//! Fig 2 — motivation study: (b) multi-thread scaling of the robot MPC
//! workload saturates; (c) the LQ approximation (dynamics + derivatives)
//! dominates the iteration and the derivatives of dynamics alone are a
//! large share (paper: 23.61%). Fig 2c breaks down the warm ticks of a
//! real iLQR MPC loop (iiwa, horizon 20), with the ΔFD time taken inside
//! their LQ passes.
//!
//! Run with `--release`; the measurement is live on the host CPU. Exits
//! non-zero when a tick ends at a non-finite cost, the warm start does
//! not save iterations over the cold first tick, or the breakdown is
//! inconsistent.

use rbd_accel::FunctionKind;
use rbd_baselines::thread_scaling;
use rbd_bench::{bar, ilqr_iiwa_tick, print_table};
use rbd_model::robots;
use rbd_trajopt::IlqrResult;

fn main() {
    let model = robots::quadruped_arm();

    // ---- Fig 2b: relative time vs threads for the batched LQ tasks.
    // (a) modelled on the paper's 12-core AGX Orin with its memory
    //     contention curve;
    let devices = rbd_baselines::paper_devices();
    let agx = &devices[0];
    let w = rbd_baselines::function_work(&model, FunctionKind::DFd);
    let counts = [1usize, 2, 4, 6, 8, 10, 12];
    let base = {
        let one = rbd_baselines::DeviceModel {
            name: "1T",
            kind: match agx.kind {
                rbd_baselines::DeviceKind::Cpu {
                    single_thread_gops,
                    contention,
                    call_overhead_s,
                    ..
                } => rbd_baselines::DeviceKind::Cpu {
                    single_thread_gops,
                    cores: 1,
                    contention,
                    call_overhead_s,
                },
                k => k,
            },
        };
        one.batch_time_s(&w, 192)
    };
    let mut rows = Vec::new();
    for &t in &counts {
        let dev = rbd_baselines::DeviceModel {
            name: "scaled",
            kind: match agx.kind {
                rbd_baselines::DeviceKind::Cpu {
                    single_thread_gops,
                    contention,
                    call_overhead_s,
                    ..
                } => rbd_baselines::DeviceKind::Cpu {
                    single_thread_gops,
                    cores: t,
                    contention,
                    call_overhead_s,
                },
                k => k,
            },
        };
        let rel = dev.batch_time_s(&w, 192) / base;
        rows.push(vec![t.to_string(), format!("{rel:.3}"), bar(rel, 1.0, 40)]);
    }
    print_table(
        "Fig 2b (modelled AGX Orin, 12 cores) — relative time vs threads",
        &["threads", "relative time", ""],
        &rows,
    );
    let achieved: f64 = rows.last().unwrap()[1].parse().unwrap();
    println!(
        "at 12 threads the modelled speedup is {:.1}x (ideal: 12x) —\n\
         the Fig 2b saturation.",
        1.0 / achieved
    );

    // (b) live on this host (core count permitting): the lane ΔFD on
    //     `BatchEval`'s persistent pool, 20 batches per timed window.
    let host_cores = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    let live_counts: Vec<usize> = counts
        .iter()
        .copied()
        .filter(|&t| t <= host_cores.max(1))
        .collect();
    let scaling = thread_scaling(&model, FunctionKind::DFd, 96, &live_counts, 20);
    let rows: Vec<Vec<String>> = scaling
        .iter()
        .map(|&(t, rel, r)| {
            vec![
                t.to_string(),
                r.executors.to_string(),
                format!("{rel:.3}"),
                bar(rel, 1.0, 40),
            ]
        })
        .collect();
    print_table(
        &format!("Fig 2b (live, this host: {host_cores} core(s)) — relative time vs threads"),
        &["threads", "executors", "relative time", ""],
        &rows,
    );

    // ---- Fig 2c: task breakdown of a warm iLQR MPC tick.
    let (warm, cold_iters, workers) = ilqr_iiwa_tick();
    let mean = |f: fn(&IlqrResult) -> f64| warm.iter().map(f).sum::<f64>() / warm.len() as f64;
    let total = mean(|r| r.lq_time_s + r.solver_time_s + r.rollout_time_s);
    let rows: Vec<Vec<String>> = [
        ("LQ approximation (parallelizable)", mean(|r| r.lq_time_s)),
        (
            "  of which: ΔFD derivatives",
            mean(|r| r.derivatives_time_s),
        ),
        ("backward Riccati pass (serial)", mean(|r| r.solver_time_s)),
        ("rollouts / line search", mean(|r| r.rollout_time_s)),
    ]
    .iter()
    .map(|&(task, t)| {
        vec![
            task.to_string(),
            format!("{:.1}%", 100.0 * t / total),
            bar(t, total, 40),
        ]
    })
    .collect();
    print_table(
        &format!(
            "Fig 2c — task breakdown of a warm iLQR MPC tick (iiwa, horizon {})",
            warm[0].us.len()
        ),
        &["task class", "share", ""],
        &rows,
    );
    println!(
        "warm tick: {:.2} ms, {:.2} accepted iterations (mean of {}; cold first tick: {cold_iters}),\n\
         LQ on {workers} executor(s).\n\
         paper anchor: derivatives of dynamics = 23.61% of the application.",
        total * 1e3,
        mean(|r| (r.cost_history.len() - 1) as f64),
        warm.len()
    );
}
