//! Shared reporting utilities for the figure/table regeneration binaries
//! (`src/bin/fig*.rs`, `src/bin/table*.rs`, `src/bin/sec*.rs`).
//!
//! Every binary prints the rows/series of one table or figure of the
//! paper, alongside the paper-reported anchors where available, so the
//! *shape* comparison (who wins, by what factor, where crossovers fall)
//! is immediate. See EXPERIMENTS.md for the recorded outcomes.

pub mod compare;
pub mod harness;

use rbd_dynamics::DynamicsWorkspace;
use rbd_model::{robots, SplitMix64};
use rbd_trajopt::{rk4_step, Ilqr, IlqrOptions, IlqrResult};

/// Prints `msg` and exits non-zero: a figure binary's own check failed.
pub fn fail(msg: &str) -> ! {
    eprintln!("check failed: {msg}");
    std::process::exit(1)
}

/// The MPC ticks Fig 2c and §VI-B break down: a short closed loop in the
/// `ilqr_iiwa` tick configuration (horizon 20, dt 0.02, 8 iterations),
/// the plant stepped by `rk4_step` under each plan's first control. Goal
/// (neutral ± 0.8 rad) and start (neutral ± 0.3 rad, at rest) are drawn
/// from `SplitMix64::new(1000)`. The 10-tick loop runs five times, each
/// with a fresh controller, so a tick does the same work in every repeat;
/// each tick keeps its repeat with the smallest timer sum (unpinned
/// multi-executor runs swing widely).
///
/// Returns the warm ticks (all but the first), the cold first tick's
/// accepted iterations and the LQ executors engaged. Exits non-zero when
/// a repeat differs from the first in any bit, a tick ends at a
/// non-finite cost, the warm ticks average no fewer accepted iterations
/// than the cold tick, a phase share is not finite, or the derivatives
/// time exceeds the LQ time.
pub fn ilqr_iiwa_tick() -> (Vec<IlqrResult>, usize, usize) {
    let model = robots::iiwa();
    let mut ws = DynamicsWorkspace::new(&model);
    let mut rng = SplitMix64::new(1000);
    let mut draw = |range: f64| -> Vec<f64> {
        let neutral = model.neutral_config();
        neutral
            .iter()
            .map(|q| q + range * rng.next_symmetric())
            .collect()
    };
    let (goal, start) = (draw(0.8), draw(0.3));
    let options = IlqrOptions {
        horizon: 20,
        dt: 0.02,
        max_iters: 8,
        ..IlqrOptions::default()
    };
    let total = |r: &IlqrResult| r.lq_time_s + r.solver_time_s + r.rollout_time_s;
    let bits = |r: &IlqrResult| -> Vec<u64> {
        r.cost_history
            .iter()
            .chain(r.us.concat().iter())
            .map(|x| x.to_bits())
            .collect()
    };
    let mut best: Vec<IlqrResult> = Vec::new();
    let mut workers = 0;
    for _ in 0..5 {
        let mut ilqr = Ilqr::new(&model, goal.clone(), options);
        let (mut q, mut qd) = (start.clone(), vec![0.0; model.nv()]);
        for k in 0..10 {
            let r = ilqr.solve(&q, &qd);
            (q, qd) = rk4_step(&model, &mut ws, &q, &qd, &r.us[0], options.dt);
            match best.get_mut(k) {
                _ if !r.cost_history.last().unwrap().is_finite() => {
                    fail("a tick ended at a non-finite cost")
                }
                None => best.push(r),
                Some(b) if bits(b) != bits(&r) => fail("a repeat of the closed loop differs"),
                Some(b) if total(&r) < total(b) => *b = r,
                Some(_) => {}
            }
        }
        workers = workers.max(ilqr.lq_workers());
    }
    let iters = |r: &IlqrResult| r.cost_history.len() - 1;
    let warm = best.split_off(1);
    let cold_iters = iters(&best[0]);
    let warm_iters = warm.iter().map(iters).sum::<usize>() as f64 / warm.len() as f64;
    let sum = |f: fn(&IlqrResult) -> f64| warm.iter().map(f).sum::<f64>();
    let (lq, dfd) = (sum(|r| r.lq_time_s), sum(|r| r.derivatives_time_s));
    let phases = [lq, dfd, sum(|r| r.solver_time_s), sum(|r| r.rollout_time_s)];
    if warm_iters >= cold_iters as f64 {
        fail("the warm ticks accept no fewer iterations than the cold tick");
    } else if !phases.iter().all(|t| (t / sum(total)).is_finite()) {
        fail("a phase share of the iLQR ticks is not finite");
    } else if dfd > lq {
        fail("derivatives time exceeds the LQ time");
    }
    (warm, cold_iters, workers)
}

/// Prints a titled ASCII table.
pub fn print_table(title: &str, headers: &[&str], rows: &[Vec<String>]) {
    println!("\n=== {title} ===");
    let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate() {
            if i < widths.len() {
                widths[i] = widths[i].max(cell.len());
            }
        }
    }
    let line = |sep: &str| {
        let cells: Vec<String> = widths.iter().map(|w| sep.repeat(*w + 2)).collect();
        format!("+{}+", cells.join("+"))
    };
    println!("{}", line("-"));
    let hdr: Vec<String> = headers
        .iter()
        .zip(&widths)
        .map(|(h, w)| format!(" {h:<w$} "))
        .collect();
    println!("|{}|", hdr.join("|"));
    println!("{}", line("-"));
    for row in rows {
        let cells: Vec<String> = row
            .iter()
            .zip(&widths)
            .map(|(c, w)| format!(" {c:<w$} "))
            .collect();
        println!("|{}|", cells.join("|"));
    }
    println!("{}", line("-"));
}

/// Horizontal ASCII bar scaled to `max`.
pub fn bar(value: f64, max: f64, width: usize) -> String {
    let n = if max > 0.0 {
        ((value / max) * width as f64).round() as usize
    } else {
        0
    };
    "#".repeat(n.min(width))
}

/// Human-readable engineering notation (`1.23M`, `45.6k`, `789`).
pub fn fmt_si(x: f64) -> String {
    let ax = x.abs();
    if ax >= 1e9 {
        format!("{:.2}G", x / 1e9)
    } else if ax >= 1e6 {
        format!("{:.2}M", x / 1e6)
    } else if ax >= 1e3 {
        format!("{:.2}k", x / 1e3)
    } else {
        format!("{x:.2}")
    }
}

/// Microseconds with sensible precision.
pub fn fmt_us(seconds: f64) -> String {
    format!("{:.2}", seconds * 1e6)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bar_scales() {
        assert_eq!(bar(5.0, 10.0, 10), "#####");
        assert_eq!(bar(0.0, 10.0, 10), "");
        assert_eq!(bar(20.0, 10.0, 10).len(), 10);
    }

    #[test]
    fn si_formatting() {
        assert_eq!(fmt_si(1_500_000.0), "1.50M");
        assert_eq!(fmt_si(2_000.0), "2.00k");
        assert_eq!(fmt_si(12.0), "12.00");
        assert_eq!(fmt_si(3.2e9), "3.20G");
    }

    #[test]
    fn us_formatting() {
        assert_eq!(fmt_us(1.5e-6), "1.50");
    }

    #[test]
    fn table_prints_without_panic() {
        print_table(
            "t",
            &["a", "bb"],
            &[vec!["1".into(), "2".into()], vec!["333".into(), "4".into()]],
        );
    }
}
