//! Integration tests of the extension features: new robots through the
//! full stack, the serialized stream interface, on-accelerator
//! integration, and multi-instance scaling.

use dadu_rbd::accel::stream::{decode_task, encode_task, TaskPacket};
use dadu_rbd::accel::{AccelConfig, DaduRbd, FunctionKind};
use dadu_rbd::dynamics::{forward_dynamics, rnea, DynamicsWorkspace};
use dadu_rbd::fixed::Fx;
use dadu_rbd::model::{integrate_config, random_state, robots};

#[path = "../crates/dynamics/tests/support/energy.rs"]
mod energy;

use energy::total_energy;

/// Quantization step of the stream encoding (its Q11.20 word).
fn stream_epsilon() -> f64 {
    Fx::<20>::epsilon()
}

/// The Feedback Module's loop (§V-B3): `steps` semi-implicit Euler
/// steps, each on the accelerator's FD result. Returns the final
/// `(q, q̇)`.
fn fd_integrate(
    accel: &DaduRbd,
    q: &[f64],
    qd: &[f64],
    tau: &[f64],
    dt: f64,
    steps: usize,
) -> (Vec<f64>, Vec<f64>) {
    let (mut q, mut qd) = (q.to_vec(), qd.to_vec());
    for _ in 0..steps {
        let out = accel.run_fd(&q, &qd, tau, None);
        for (v, a) in qd.iter_mut().zip(&out.qdd) {
            *v += dt * a;
        }
        q = integrate_config(accel.model(), &q, &qd, dt);
    }
    (q, qd)
}

#[test]
fn hexapod_and_dual_arm_through_the_full_stack() {
    for model in [robots::hexapod(), robots::dual_arm()] {
        let accel = DaduRbd::configure(&model, AccelConfig::default());
        assert!(
            accel.device().fits(&accel.resource_usage()),
            "{}",
            model.name()
        );
        let mut ws = DynamicsWorkspace::new(&model);
        let s = random_state(&model, 1);
        let qdd: Vec<f64> = (0..model.nv()).map(|k| 0.1 * k as f64 - 0.4).collect();
        let out = accel.run_id(&s.q, &s.qd, &qdd, None);
        let expect = rnea(&model, &mut ws, &s.q, &s.qd, &qdd, None);
        for k in 0..model.nv() {
            assert!((out.tau[k] - expect[k]).abs() < 1e-9 * (1.0 + expect[k].abs()));
        }
        // Derivatives too.
        let dfd = accel.run_dfd(&s.q, &s.qd, &expect, None);
        assert!(dfd.dqdd.is_some());
    }
}

#[test]
fn stream_decode_then_compute_matches_direct_within_quantization() {
    // Full §V-B path: encode a task, decode it (lossy 32-bit words), run
    // FD; result must match the unquantized run to stream precision.
    let model = robots::iiwa();
    let accel = DaduRbd::configure(&model, AccelConfig::default());
    let s = random_state(&model, 4);
    let tau: Vec<f64> = (0..model.nv()).map(|k| 0.6 - 0.15 * k as f64).collect();

    let packet = TaskPacket {
        function: FunctionKind::Fd,
        q: s.q.clone(),
        qd: s.qd.clone(),
        u: tau.clone(),
        minv_tri: None,
    };
    let words = encode_task(&model, &packet);
    let decoded = decode_task(&model, &words).unwrap();

    let direct = accel.run_fd(&s.q, &s.qd, &tau, None);
    let streamed = accel.run_fd(&decoded.q, &decoded.qd, &decoded.u, None);
    // Error amplification through FD is bounded by ~‖M⁻¹‖·quantization;
    // allow a generous constant.
    let tol = 1e4 * stream_epsilon();
    for k in 0..model.nv() {
        assert!(
            (direct.qdd[k] - streamed.qdd[k]).abs() < tol,
            "dof {k}: {} vs {}",
            direct.qdd[k],
            streamed.qdd[k]
        );
    }
}

#[test]
fn on_accelerator_integration_loses_energy_slowly() {
    // The Feedback-Module integration loop (§V-B3) on an unactuated
    // iiwa: semi-implicit Euler keeps the energy bounded over a short
    // horizon.
    let model = robots::iiwa();
    let accel = DaduRbd::configure(&model, AccelConfig::default());
    let mut ws = DynamicsWorkspace::new(&model);
    let s = random_state(&model, 8);
    let tau = vec![0.0; model.nv()];
    let e0 = total_energy(&model, &mut ws, &s.q, &s.qd);
    let (q1, qd1) = fd_integrate(&accel, &s.q, &s.qd, &tau, 5e-4, 200);
    let e1 = total_energy(&model, &mut ws, &q1, &qd1);
    assert!(
        (e1 - e0).abs() < 0.05 * (1.0 + e0.abs()),
        "energy {e0} → {e1}"
    );
    // And the loop really moved the state.
    let moved: f64 = q1.iter().zip(&s.q).map(|(a, b)| (a - b).abs()).sum();
    assert!(moved > 1e-3);
}

#[test]
fn instances_scale_batch_time_down() {
    let model = robots::atlas();
    let t = |inst: usize| {
        DaduRbd::configure(
            &model,
            AccelConfig {
                instances: inst,
                ..AccelConfig::default()
            },
        )
        .estimate(FunctionKind::DFd, 1024)
        .batch_time_s
    };
    let one = t(1);
    let two = t(2);
    assert!(two < 0.75 * one, "2 instances {two} vs 1 instance {one}");
}

#[test]
fn fd_consistency_across_all_new_models() {
    for model in [robots::hexapod(), robots::dual_arm()] {
        let mut ws = DynamicsWorkspace::new(&model);
        let s = random_state(&model, 3);
        let qdd_in: Vec<f64> = (0..model.nv()).map(|k| 0.25 - 0.03 * k as f64).collect();
        let tau = rnea(&model, &mut ws, &s.q, &s.qd, &qdd_in, None);
        let back = forward_dynamics(&model, &mut ws, &s.q, &s.qd, &tau, None).unwrap();
        for k in 0..model.nv() {
            assert!((back[k] - qdd_in[k]).abs() < 1e-6, "{}", model.name());
        }
    }
}
