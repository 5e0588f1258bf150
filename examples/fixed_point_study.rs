//! Datapath accuracy study (§IV-B2, §V-B2): the Taylor trigonometric
//! unit, the fixed↔float fast reciprocal, and the end-to-end effect of
//! the Taylor datapath on inverse-dynamics outputs. Exits 1 unless the
//! worst Taylor-vs-exact relative torque deviation on Atlas is below the
//! Q31.32 quantization step.
//!
//! ```text
//! cargo run --example fixed_point_study --release
//! ```

use dadu_rbd::accel::{AccelConfig, DaduRbd};
use dadu_rbd::fixed::{fast_reciprocal, trig, Q16, Q32};
use dadu_rbd::model::{random_state, robots};

fn main() {
    // Taylor trig error vs unroll depth.
    println!("Global Trigonometric Module: worst-case |error| over [-π, π]");
    for terms in 2..=8 {
        let e = trig::max_error(terms, std::f64::consts::PI, 2000);
        println!("  {terms} Taylor terms: {e:.3e}");
    }

    // Reciprocal unit.
    println!("\nfixed↔float fast reciprocal (exponent flip + Newton):");
    for x in [0.001, 0.5, 3.0, 1234.5] {
        let rel = (fast_reciprocal(x) - 1.0 / x).abs() * x;
        println!("  1/{x:<8}: relative error {rel:.3e}");
    }

    // Quantization of fixed-point words.
    println!("\nfixed-point quantization steps:");
    println!("  Q31.32 epsilon = {:.3e}", Q32::epsilon());
    println!("  Q47.16 epsilon = {:.3e}", Q16::epsilon());
    let x = 0.123456789;
    println!(
        "  0.123456789 → Q32 {} (err {:.1e}), Q16 {} (err {:.1e})",
        Q32::from_f64(x),
        (Q32::from_f64(x).to_f64() - x).abs(),
        Q16::from_f64(x),
        (Q16::from_f64(x).to_f64() - x).abs()
    );

    // End-to-end: run inverse dynamics with the Taylor trig datapath and
    // compare against the exact-trig run.
    let model = robots::atlas();
    let exact = DaduRbd::configure(&model, AccelConfig::default());
    let taylor = DaduRbd::configure(
        &model,
        AccelConfig {
            taylor_trig: true,
            ..AccelConfig::default()
        },
    );
    let mut worst = 0.0_f64;
    for seed in 0..20 {
        let s = random_state(&model, seed);
        let qdd = vec![0.3; model.nv()];
        let a = exact.run_id(&s.q, &s.qd, &qdd, None);
        let b = taylor.run_id(&s.q, &s.qd, &qdd, None);
        for (x, y) in a.tau.iter().zip(&b.tau) {
            worst = worst.max((x - y).abs() / (1.0 + x.abs()));
        }
    }
    println!(
        "\nAtlas inverse dynamics, Taylor vs exact trig over 20 random states:\n  \
         worst relative torque deviation = {worst:.3e}\n  \
         (the 7-term unit is indistinguishable at the accelerator's word width)"
    );
    if worst >= Q32::epsilon() {
        eprintln!(
            "FAIL: the worst relative torque deviation {worst:.3e} must be below \
             the Q31.32 step {:.3e}",
            Q32::epsilon()
        );
        std::process::exit(1);
    }
}
