//! The test-support energy helpers (`support/energy.rs`) against the
//! mass matrix, an unactuated RK4 rollout and a raised base.

#[path = "support/crba.rs"]
mod crba;
#[path = "support/energy.rs"]
mod energy;

use crba::crba;
use energy::{kinetic_energy, potential_energy, total_energy};
use rbd_dynamics::{aba_in_ws, DynamicsWorkspace, Rk4Stages};
use rbd_model::{integrate_config, random_state, robots};
use rbd_spatial::VecN;

#[test]
fn kinetic_energy_matches_mass_matrix_quadratic_form() {
    // ½ q̇ᵀ M q̇ must equal the body-wise sum.
    for model in [robots::iiwa(), robots::hyq(), robots::atlas()] {
        let mut ws = DynamicsWorkspace::new(&model);
        let s = random_state(&model, 17);
        let ke = kinetic_energy(&model, &mut ws, &s.q, &s.qd);
        let m = crba(&model, &mut ws, &s.q);
        let qd = VecN::from_vec(s.qd.clone());
        let quad = 0.5 * qd.dot(&m.mul_vec(&qd));
        assert!(
            (ke - quad).abs() < 1e-9 * (1.0 + quad.abs()),
            "{}: {ke} vs {quad}",
            model.name()
        );
    }
}

#[test]
fn passive_pendulum_conserves_energy() {
    // Integrate an unactuated iiwa with small RK4 steps; energy drift
    // must stay tiny over a short horizon.
    let model = robots::iiwa();
    let mut ws = DynamicsWorkspace::new(&model);
    let s = random_state(&model, 4);
    let (mut q, mut qd) = (s.q.clone(), s.qd.clone());
    let tau = vec![0.0; model.nv()];
    let e0 = total_energy(&model, &mut ws, &q, &qd);
    let dt = 1e-3;
    let mut stages = Rk4Stages::for_model(&model, 1);
    let (mut q_next, mut qd_next) = (q.clone(), qd.clone());
    for _ in 0..200 {
        for stage in 0..4 {
            let (q_s, qd_s, k) = stages.point(&model, stage, &q, &qd, dt);
            aba_in_ws(&model, &mut ws, q_s, qd_s, &tau, None, k).unwrap();
        }
        stages.finish(&model, &q, &qd, dt, &mut q_next, &mut qd_next);
        std::mem::swap(&mut q, &mut q_next);
        std::mem::swap(&mut qd, &mut qd_next);
    }
    let e1 = total_energy(&model, &mut ws, &q, &qd);
    assert!(
        (e1 - e0).abs() < 1e-4 * (1.0 + e0.abs()),
        "energy drift {e0} → {e1}"
    );
}

#[test]
fn potential_energy_increases_with_height() {
    let model = robots::hyq();
    let mut ws = DynamicsWorkspace::new(&model);
    let q0 = model.neutral_config();
    let mut v = vec![0.0; model.nv()];
    v[5] = 1.0; // raise the base 1 m
    let q1 = integrate_config(&model, &q0, &v, 1.0);
    let p0 = potential_energy(&model, &mut ws, &q0);
    let p1 = potential_energy(&model, &mut ws, &q1);
    // Total robot mass × g × 1 m.
    let mass: f64 = (0..model.num_bodies())
        .map(|i| model.link_inertia(i).mass)
        .sum();
    assert!((p1 - p0 - mass * 9.81).abs() < 1e-9 * mass * 9.81);
}
