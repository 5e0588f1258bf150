//! Shared reporting utilities for the figure/table regeneration binaries
//! (`src/bin/fig*.rs`, `src/bin/table*.rs`, `src/bin/sec*.rs`).
//!
//! Every binary prints the rows/series of one table or figure of the
//! paper, alongside the paper-reported anchors where available, so the
//! *shape* comparison (who wins, by what factor, where crossovers fall)
//! is immediate. See EXPERIMENTS.md for the recorded outcomes.

pub mod compare;
pub mod harness;

use rbd_model::robots;
use rbd_trajopt::{Ilqr, IlqrOptions, IlqrResult};

/// Prints `msg` and exits non-zero: a figure binary's own check failed.
pub fn fail(msg: &str) -> ! {
    eprintln!("check failed: {msg}");
    std::process::exit(1)
}

/// The MPC tick Fig 2c and §VI-B break down: a warm `Ilqr::solve` on
/// iiwa in the `ilqr_iiwa` tick configuration (horizon 20, dt 0.02, 8
/// iterations) from neutral at rest to a fixed goal. Of 20 warm solves
/// it returns the one with the smallest timer sum (unpinned
/// multi-executor runs swing widely), and the LQ executors engaged.
/// Exits non-zero when no iteration was accepted, a phase share is not
/// finite, or the derivatives time exceeds the LQ time.
pub fn ilqr_iiwa_tick() -> (IlqrResult, usize) {
    let model = robots::iiwa();
    let q0 = model.neutral_config();
    let qd0 = vec![0.0; model.nv()];
    let goal = q0
        .iter()
        .enumerate()
        .map(|(i, q)| q + 0.5 - 0.15 * i as f64);
    let options = IlqrOptions {
        horizon: 20,
        dt: 0.02,
        max_iters: 8,
        ..IlqrOptions::default()
    };
    let mut ilqr = Ilqr::new(&model, goal.collect(), options);
    let total = |r: &IlqrResult| r.lq_time_s + r.solver_time_s + r.rollout_time_s;
    ilqr.solve(&q0, &qd0);
    let best = (0..20)
        .map(|_| ilqr.solve(&q0, &qd0))
        .min_by(|a, b| total(a).total_cmp(&total(b)))
        .expect("20 solves");
    let (lq, dfd) = (best.lq_time_s, best.derivatives_time_s);
    let shares = [lq, dfd, best.solver_time_s, best.rollout_time_s].map(|t| t / total(&best));
    if best.cost_history.len() < 2 {
        fail("the iLQR solve accepted no iteration");
    } else if !shares.iter().all(|s| s.is_finite()) {
        fail("a phase share of the iLQR solve is not finite");
    } else if dfd > lq {
        fail("derivatives time exceeds the LQ time");
    }
    (best, ilqr.lq_workers())
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
