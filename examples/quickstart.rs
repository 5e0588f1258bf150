//! Quickstart: configure Dadu-RBD for a KUKA iiwa, run every Table I
//! function through the functional dataflow, and print the timing /
//! resource estimates for the configured hardware.
//!
//! ```text
//! cargo run --example quickstart --release
//! ```

use dadu_rbd::accel::{AccelConfig, DaduRbd, FunctionKind};
use dadu_rbd::dynamics::{rnea, DynamicsWorkspace};
use dadu_rbd::model::{random_state, robots};

fn main() {
    // 1. A robot model (7-DOF serial arm).
    let model = robots::iiwa();
    println!("model: {model}");

    // 2. Configure the accelerator once per robot model (§V).
    let accel = DaduRbd::configure(&model, AccelConfig::default());
    println!(
        "SAP layout: {} hardware stages, depth {}, {} branch array(s)",
        accel.layout().hw_stage_count(),
        accel.layout().max_depth,
        accel.layout().branches.len()
    );

    // 3. Run inverse dynamics through the accelerator's functional model
    //    (its trig module feeding the Rf/Rb sweeps) and check it against
    //    the reference library.
    let s = random_state(&model, 42);
    let qdd = vec![0.25; model.nv()];
    let out = accel.run_id(&s.q, &s.qd, &qdd, None);
    let mut ws = DynamicsWorkspace::new(&model);
    let reference = rnea(&model, &mut ws, &s.q, &s.qd, &qdd, None);
    let max_err = out
        .tau
        .iter()
        .zip(&reference)
        .map(|(a, b)| (a - b).abs())
        .fold(0.0_f64, f64::max);
    println!("ID through the accelerator: max |Δτ| vs reference = {max_err:.2e}");

    // 4. Forward dynamics via the paper's M⁻¹(τ - C) dataflow.
    let tau = out.tau.clone();
    let fd = accel.run_fd(&s.q, &s.qd, &tau, None);
    let rt = fd
        .qdd
        .iter()
        .zip(&qdd)
        .map(|(a, b)| (a - b).abs())
        .fold(0.0_f64, f64::max);
    println!("FD(ID(q̈)) round trip: max |Δq̈| = {rt:.2e}");

    // 5. Timing / resource / power estimates.
    println!("\nfunction  latency(µs)  throughput(Mtasks/s)  256-batch(µs)");
    for f in FunctionKind::all() {
        let t = accel.estimate(f, 256);
        println!(
            "{:>8}  {:>10.2}  {:>20.2}  {:>12.1}",
            f.short_name(),
            t.latency_s * 1e6,
            t.throughput_tasks_per_s / 1e6,
            t.batch_time_s * 1e6
        );
    }
    let u = accel.resource_usage();
    let (dsp, ff, lut, _) = accel.device().utilization(&u);
    println!(
        "\nresources on {}: {} → {:.0}% DSP, {:.0}% FF, {:.0}% LUT",
        accel.device().name,
        u,
        dsp * 100.0,
        ff * 100.0,
        lut * 100.0
    );
}
