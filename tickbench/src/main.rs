//! Control-tick benchmark of the Dadu-RBD reproduction.
//!
//! ```text
//! tickbench --workload <ilqr_iiwa|mppi_hyq|dfd_batch_atlas> [--seed N]
//!           [--seconds S] [--trace 0|1] [--spans-out PATH]
//! ```
//!
//! Runs closed-loop ticks of one workload for `--seconds`, checks the
//! outputs, and prints a human-readable report followed by one JSON
//! line (the last line of stdout). `--trace 0` reports the end-to-end
//! metrics; `--trace 1` alternates untraced and traced blocks of ticks,
//! replays each layer's kernels at the traced ticks' states, writes the
//! recorded spans to a file and reports the per-layer metrics. See
//! `README.md` next to this package for every metric.

mod dfd_batch_atlas;
mod ilqr_iiwa;
mod mppi_hyq;
mod probe;
mod report;
mod stats;
mod trace;
mod workload;

use report::{Metric, Report};
use stats::{block_rate, percentile_sorted, sorted_finite, tail_percentile};
use std::path::PathBuf;
use std::process::ExitCode;
use trace::Recorder;
use workload::{RunCfg, WorkloadRun, BLOCK};

pub const WORKLOADS: [&str; 3] = ["ilqr_iiwa", "mppi_hyq", "dfd_batch_atlas"];
/// Seed used while the benchmark was written.
pub const DEFAULT_SEED: u64 = 1;
/// Seed kept out of development, for confirming a claim.
pub const HELD_OUT_SEED: u64 = 1009;
const DEFAULT_SECONDS: f64 = 10.0;

/// End-to-end metrics (`--trace 0`), with units.
pub const END_TO_END: [(&str, &str); 4] = [
    ("setup_s", "s"),
    ("tick_p50_ms", "ms"),
    ("ticks_per_s", "1/s"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics (`--trace 1`), with units. A metric of a layer the
/// workload never calls reads 0.
pub const PER_LAYER: [(&str, &str); 42] = [
    ("tick_p95_ms", "ms"),
    ("ilqr.iters", "count"),
    ("ilqr.lq_ms", "ms"),
    ("ilqr.riccati_ms", "ms"),
    ("ilqr.rollout_ms", "ms"),
    ("ilqr.gap_ms", "ms"),
    ("mppi.sample_ms", "ms"),
    ("mppi.rollout_ms", "ms"),
    ("mppi.update_ms", "ms"),
    ("mppi.ess", "count"),
    ("mppi.nonfinite", "count"),
    ("integrator.rk4_sens_us", "us"),
    ("integrator.rk4_step_us", "us"),
    ("dynamics.kin_us", "us"),
    ("dynamics.did_us", "us"),
    ("dynamics.minv_us", "us"),
    ("dynamics.dfd_us", "us"),
    ("dynamics.dfd_rest_us", "us"),
    ("dynamics.fd_us", "us"),
    ("lanes.rollout_us", "us"),
    ("lanes.aba_us", "us"),
    ("pool.executors", "count"),
    ("pool.serial_ms", "ms"),
    ("pool.par_eff", "ratio"),
    ("pool.overhead_us", "us"),
    ("model.integrate_us", "us"),
    ("accel.pred_mflop", "Mflop"),
    ("accel.ns_per_flop", "ns/flop"),
    ("accel.sim_us", "us"),
    ("plan_cost", "cost"),
    ("track_err", "rad"),
    ("self.bench_ms", "ms"),
    ("self.ilqr_ms", "ms"),
    ("self.mppi_ms", "ms"),
    ("self.integrator_ms", "ms"),
    ("self.model_ms", "ms"),
    ("self.pool_ms", "ms"),
    ("trace.attributed_pct", "%"),
    ("trace.residual_ms", "ms"),
    ("trace.overhead_pct", "%"),
    ("trace.tick_p50_ms", "ms"),
    ("trace.spans", "count"),
];

const USAGE: &str = "usage: tickbench --workload <ilqr_iiwa|mppi_hyq|dfd_batch_atlas> \
[--seed N] [--seconds S] [--trace 0|1] [--spans-out PATH]";

#[derive(Debug, Clone, PartialEq)]
struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    spans_out: Option<PathBuf>,
}

fn parse_args(mut it: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut a = Args {
        workload: String::new(),
        seed: DEFAULT_SEED,
        seconds: DEFAULT_SECONDS,
        trace: false,
        spans_out: None,
    };
    while let Some(flag) = it.next() {
        let mut val = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => a.workload = val()?,
            "--seed" => a.seed = val()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                a.seconds = val()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(a.seconds.is_finite() && a.seconds > 0.0 && a.seconds <= 3600.0) {
                    return Err("--seconds must be in (0, 3600]".into());
                }
            }
            "--trace" => {
                a.trace = match val()?.as_str() {
                    "0" => false,
                    "1" => true,
                    t => return Err(format!("--trace must be 0 or 1, got {t}")),
                }
            }
            "--spans-out" => a.spans_out = Some(PathBuf::from(val()?)),
            f => return Err(format!("unknown argument {f}")),
        }
    }
    if !WORKLOADS.contains(&a.workload.as_str()) {
        return Err(format!("unknown workload {:?}", a.workload));
    }
    Ok(a)
}

/// Peak resident set (VmHWM) of this process, MiB.
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            let line = s.lines().find(|l| l.starts_with("VmHWM:"))?;
            line.split_whitespace().nth(1)?.parse::<f64>().ok()
        })
        .map_or(f64::NAN, |kib| kib / 1024.0)
}

/// `(p50, tail percentile used, tail value)` of tick durations in ms.
fn tick_quantiles(ticks_s: &[f64]) -> (f64, Option<f64>, f64) {
    let s = sorted_finite(ticks_s);
    if s.is_empty() {
        return (f64::NAN, None, f64::NAN);
    }
    let tail = tail_percentile(s.len(), 95.0);
    let p95 = tail.map_or(f64::NAN, |p| percentile_sorted(&s, p) * 1e3);
    (percentile_sorted(&s, 50.0) * 1e3, tail, p95)
}

fn end_to_end(run: &WorkloadRun) -> Vec<(&'static str, f64)> {
    let (p50, _, _) = tick_quantiles(&run.ticks_s);
    vec![
        ("setup_s", stats::median(&run.setup_s)),
        ("tick_p50_ms", p50),
        ("ticks_per_s", block_rate(&run.ticks_s, BLOCK)),
        ("peak_rss_mb", peak_rss_mb()),
    ]
}

/// Per-layer metrics derived from the spans: kernel medians, self time
/// per layer, the attribution of ticks to leaf spans, and the tracing
/// overhead against the untraced blocks of the same run.
fn from_spans(run: &WorkloadRun, rec: &Recorder) -> Vec<(&'static str, f64)> {
    let mut out = Vec::new();
    let median_us = |span: &str| stats::median(&rec.durations_s(span)) * 1e6;
    for (span, metric) in probe::KERNELS.iter().chain([&probe::LANE_ABA]) {
        out.push((*metric, median_us(span)));
    }
    let rest = median_us("dynamics.dfd")
        - median_us("dynamics.kin")
        - median_us("dynamics.did")
        - median_us("dynamics.minv");
    out.push(("dynamics.dfd_rest_us", rest));

    let spans = rec.spans();
    let att = trace::attribution(spans, "tick");
    for (layer, ns) in trace::layer_self_ns(spans, "tick") {
        if let Some((name, _)) = PER_LAYER
            .iter()
            .find(|(n, _)| n.strip_prefix("self.").and_then(|n| n.strip_suffix("_ms")) == Some(layer))
        {
            out.push((name, ns as f64 * 1e-6 / att.ticks.max(1) as f64));
        }
    }
    out.push(("trace.attributed_pct", att.attributed_pct()));
    out.push(("trace.residual_ms", att.residual_ms()));
    let (untraced, _, p95) = tick_quantiles(&run.ticks_s);
    out.push(("tick_p95_ms", p95));
    let (traced, _, _) = tick_quantiles(&run.traced_ticks_s);
    out.push(("trace.overhead_pct", 100.0 * (traced / untraced - 1.0)));
    out.push(("trace.tick_p50_ms", traced));
    out.push(("trace.spans", spans.len() as f64));
    out
}

fn build_report(trace: bool, run: &WorkloadRun, rec: &Recorder) -> Report {
    let metrics: Vec<Metric> = if trace {
        let measured: Vec<(&str, f64)> = run.layer.iter().copied().chain(from_spans(run, rec)).collect();
        PER_LAYER
            .iter()
            .map(|&(name, unit)| Metric {
                name: name.into(),
                value: measured.iter().find(|(n, _)| *n == name).map_or(0.0, |m| m.1),
                unit: unit.into(),
            })
            .collect()
    } else {
        let e2e = end_to_end(run);
        END_TO_END
            .iter()
            .map(|&(name, unit)| Metric {
                name: name.into(),
                value: e2e.iter().find(|(n, _)| *n == name).map_or(f64::NAN, |m| m.1),
                unit: unit.into(),
            })
            .collect()
    };
    let correct = run.checks.iter().all(|c| c.ok) && metrics.iter().all(|m| m.value.is_finite());
    Report {
        correct,
        attempted: run.attempted,
        failed: run.failed,
        metrics,
    }
}

fn host_meta() -> rbd_bench::harness::HostMeta {
    let now = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map_or(0, |d| d.as_secs());
    rbd_bench::harness::HostMeta::collect(rbd_bench::harness::iso8601_utc(now))
}

fn write_spans(args: &Args, rec: &Recorder, meta: &rbd_bench::harness::HostMeta) -> std::io::Result<PathBuf> {
    let path = args.spans_out.clone().unwrap_or_else(|| {
        PathBuf::from(env!("CARGO_MANIFEST_DIR"))
            .join("out")
            .join(format!("spans-{}-seed{}.json", args.workload, args.seed))
    });
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let env: Vec<String> = meta.env.iter().map(|(k, v)| format!("{k:?}:{v:?}")).collect();
    let header = format!(
        "\"workload\":{:?},\"seed\":{},\"host\":{{\"cpus\":{},\"timestamp\":{:?},\"env\":{{{}}}}}",
        args.workload,
        args.seed,
        meta.cpus,
        meta.timestamp,
        env.join(",")
    );
    std::fs::write(&path, rec.to_json(&header))?;
    Ok(path)
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("tickbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let cfg = RunCfg {
        seed: args.seed,
        seconds: args.seconds,
        trace: args.trace,
    };
    let mut rec = Recorder::new(if cfg.trace { 1 << 18 } else { 0 });
    let run = match args.workload.as_str() {
        "ilqr_iiwa" => ilqr_iiwa::run(&cfg, &mut rec),
        "mppi_hyq" => mppi_hyq::run(&cfg, &mut rec),
        _ => dfd_batch_atlas::run(&cfg, &mut rec),
    };
    let mut report = build_report(cfg.trace, &run, &rec);
    // The result line must read back as exactly what was measured.
    if Report::parse(&report.to_json()).as_ref() != Ok(&report) {
        report.correct = false;
    }
    let meta = host_meta();

    println!(
        "tickbench {} seed {} trace {} | host cpus {} at {}{}",
        args.workload,
        args.seed,
        u8::from(cfg.trace),
        meta.cpus,
        meta.timestamp,
        meta.env.iter().map(|(k, v)| format!(" {k}={v}")).collect::<String>()
    );
    let (_, tail, _) = tick_quantiles(&run.ticks_s);
    let widest = tail_percentile(run.ticks_s.len(), 100.0);
    println!(
        "  ticks: {} untraced, {} traced; tick_p95_ms is p{} (tail rule allows up to p{})",
        run.ticks_s.len(),
        run.traced_ticks_s.len(),
        tail.map_or("-".into(), |p| p.to_string()),
        widest.map_or("-".into(), |p| p.to_string()),
    );
    println!(
        "  setups: {}; attempted {} failed {} (fail_frac {})",
        run.setup_s.len(),
        run.attempted,
        run.failed,
        run.failed as f64 / run.attempted.max(1) as f64
    );
    for (name, value) in &run.layer {
        if !cfg.trace && matches!(*name, "plan_cost" | "track_err" | "ilqr.iters") {
            println!("  {name} = {value} (exact; reported with --trace 1)");
        }
    }
    for c in &run.checks {
        println!("  check {:<20} {} ({})", c.name, if c.ok { "ok" } else { "FAILED" }, c.detail);
    }
    if cfg.trace {
        let att = trace::attribution(rec.spans(), "tick");
        let within = (90.0..=110.0).contains(&att.attributed_pct());
        println!(
            "  layer sum: leaf spans cover {:.2}% of traced ticks ({}), residual {:.4} ms/tick",
            att.attributed_pct(),
            if within { "within ±10%" } else { "OUTSIDE ±10%" },
            att.residual_ms()
        );
        match write_spans(&args, &rec, &meta) {
            Ok(p) => println!("  spans: {} written to {}", rec.spans().len(), p.display()),
            Err(e) => eprintln!("tickbench: could not write spans: {e}"),
        }
    }
    for m in &report.metrics {
        println!("  {:<24} {:>16} {}", m.name, m.value, m.unit);
    }
    println!("{}", report.to_json());
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Result<Args, String> {
        parse_args(s.split_whitespace().map(String::from))
    }

    #[test]
    fn parses_the_benchmark_command_line() {
        let a = args("--workload mppi_hyq --seed 7 --seconds 10 --trace 1").expect("valid");
        assert_eq!(a.workload, "mppi_hyq");
        assert_eq!(a.seed, 7);
        assert_eq!(a.seconds, 10.0);
        assert!(a.trace);
        let d = args("--workload ilqr_iiwa").expect("defaults");
        assert_eq!((d.seed, d.seconds, d.trace), (DEFAULT_SEED, DEFAULT_SECONDS, false));
        assert!(args("--workload nope").is_err());
        assert!(args("--workload ilqr_iiwa --trace 2").is_err());
        assert!(args("--workload ilqr_iiwa --seconds 0").is_err());
        assert!(args("--workload ilqr_iiwa --seed").is_err());
        assert!(args("--bogus 1").is_err());
    }

    #[test]
    fn benchmark_json_lists_exactly_these_metrics() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json next to the package");
        let declared = text.matches("{\"name\": ").count();
        assert_eq!(declared, WORKLOADS.len() + END_TO_END.len() + PER_LAYER.len());
        for w in WORKLOADS {
            assert!(text.contains(&format!("{{\"name\": \"{w}\", \"why\": ")), "{w}");
        }
        for (name, unit) in END_TO_END.iter().chain(&PER_LAYER) {
            assert!(
                text.contains(&format!("{{\"name\": \"{name}\", \"unit\": \"{unit}\", ")),
                "{name} [{unit}]"
            );
        }
    }

    #[test]
    fn every_metric_is_reported_in_its_mode() {
        let run = WorkloadRun {
            setup_s: vec![0.5, 0.4, 0.6],
            ticks_s: (1..=300).map(|i| f64::from(i) * 1e-4).collect(),
            attempted: 300,
            ..WorkloadRun::default()
        };
        let rec = Recorder::new(0);
        let e2e = build_report(false, &run, &rec);
        let names: Vec<&str> = e2e.metrics.iter().map(|m| m.name.as_str()).collect();
        assert_eq!(names, END_TO_END.map(|m| m.0));
        assert_eq!(e2e.metrics[0].value, 0.5);
        assert!((e2e.metrics[1].value - 15.0).abs() < 1e-9); // p50 of 0.1..30 ms
        // Blocks of 50 ticks take 0.1275, 0.3775, ... 1.3775 s; the
        // median of their rates lies between the third and fourth.
        assert!((e2e.metrics[2].value - 0.5 * (50.0 / 0.6275 + 50.0 / 0.8775)).abs() < 1e-9);
        let traced = build_report(true, &run, &rec);
        assert_eq!(traced.metrics.len(), PER_LAYER.len());
        assert_eq!(traced.metrics[0].name, "tick_p95_ms");
        assert!((traced.metrics[0].value - 28.5).abs() < 1e-9); // p95, 15 beyond
        let back = Report::parse(&traced.to_json()).expect("round trip");
        assert_eq!(back.metrics.len(), PER_LAYER.len());
    }
}
