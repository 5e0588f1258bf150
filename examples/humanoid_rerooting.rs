//! Structure-Adaptive Pipelines on a humanoid: how re-rooting Atlas at
//! the torso (§V-C1, Fig 11c) balances the tree, shortens the pipeline
//! and cuts resources — and that the dynamics results are unaffected by
//! the hardware organisation. Exits 1 unless both organisations compute
//! the same torques (`max |Δτ| = 0`).
//!
//! ```text
//! cargo run --example humanoid_rerooting --release
//! ```

use dadu_rbd::accel::{AccelConfig, DaduRbd, FunctionKind};
use dadu_rbd::model::{random_state, robots};

fn main() {
    let model = robots::atlas();
    println!("model: {model}");

    let plain = DaduRbd::configure(
        &model,
        AccelConfig {
            auto_reroot: false,
            ..AccelConfig::default()
        },
    );
    let rerooted = DaduRbd::configure(&model, AccelConfig::default());

    for (name, accel) in [("pelvis root", &plain), ("torso re-rooted", &rerooted)] {
        let layout = accel.layout();
        let u = accel.resource_usage();
        let t = accel.estimate(FunctionKind::DFd, 256);
        println!(
            "\n[{name}] root = {}, depth = {}, hw stages = {}",
            model.body_name(layout.root_body),
            layout.max_depth,
            layout.hw_stage_count()
        );
        for b in &layout.branches {
            let names: Vec<&str> = b.bodies.iter().map(|&i| model.body_name(i)).collect();
            println!("   branch (x{}): {}", b.multiplex, names.join(" → "));
        }
        println!(
            "   resources: {u}\n   ΔFD: latency {:.2} µs, throughput {:.2} M/s",
            t.latency_s * 1e6,
            t.throughput_tasks_per_s / 1e6
        );
    }

    // The hardware organisation never changes the numbers: both
    // configurations compute identical torques.
    let s = random_state(&model, 3);
    let qdd = vec![0.1; model.nv()];
    let a = plain.run_id(&s.q, &s.qd, &qdd, None);
    let b = rerooted.run_id(&s.q, &s.qd, &qdd, None);
    let max_diff = a
        .tau
        .iter()
        .zip(&b.tau)
        .map(|(x, y)| (x - y).abs())
        .fold(0.0_f64, f64::max);
    println!("\nfunctional equivalence: max |Δτ| between organisations = {max_diff:.2e}");
    if max_diff != 0.0 {
        eprintln!("FAIL: the organisations' torques differ (max |Δτ| = {max_diff:.2e})");
        std::process::exit(1);
    }
}
