//! Property tests of the dynamics invariants over random kinematic
//! trees and random states.
//!
//! Each property runs 24 seeded cases on the shared harness in
//! `support/cases.rs`: every assertion message names the case seed, and
//! calling the property's `*_case` function with it replays the failing
//! case alone. The tests after them check power balance, momentum and
//! the centre of mass on fixed robots.

#[path = "support/cases.rs"]
mod cases;
#[path = "../crates/dynamics/tests/support/crba.rs"]
mod crba;
#[path = "../crates/dynamics/tests/support/energy.rs"]
mod energy;

use cases::{draw, for_each_case, uniform};
use crba::crba;
use dadu_rbd::dynamics::{aba, forward_dynamics, mminv_gen, rnea, DynamicsWorkspace};
use dadu_rbd::model::{integrate_config, random_state, robots, RobotModel, SplitMix64};
use dadu_rbd::spatial::{ForceVec, MatN, MotionVec, Vec3, VecN};
use energy::{kinetic_energy, total_energy};

/// Cases per property.
const CASES: u64 = 24;

/// A random tree's `(bodies, tree seed)`: `2..12` bodies, seed `0..1000`.
fn tree(rng: &mut SplitMix64) -> (usize, u64) {
    let n = draw(rng, 2, 12) as usize;
    (n, draw(rng, 0, 1000))
}

/// FD ∘ ID is the identity on accelerations, for arbitrary trees.
fn fd_inverts_id_case(seed: u64) {
    let mut rng = SplitMix64::new(seed);
    let (n, tree_seed) = tree(&mut rng);
    let state_seed = draw(&mut rng, 0, 1000);
    let model = robots::random_tree(n, tree_seed);
    let mut ws = DynamicsWorkspace::new(&model);
    let s = random_state(&model, state_seed);
    let qdd: Vec<f64> = (0..model.nv()).map(|k| 0.3 - 0.04 * k as f64).collect();
    let tau = rnea(&model, &mut ws, &s.q, &s.qd, &qdd, None);
    let back = forward_dynamics(&model, &mut ws, &s.q, &s.qd, &tau, None)
        .unwrap_or_else(|e| panic!("case seed {seed}: FD failed: {e}"));
    for k in 0..model.nv() {
        assert!(
            (back[k] - qdd[k]).abs() < 1e-6 * (1.0 + qdd[k].abs()),
            "case seed {seed}: dof {k}: {} vs {}",
            back[k],
            qdd[k]
        );
    }
}

/// The two forward-dynamics implementations agree (Eq. 2 vs ABA).
fn minv_path_equals_aba_case(seed: u64) {
    let mut rng = SplitMix64::new(seed);
    let (n, tree_seed) = tree(&mut rng);
    let model = robots::random_tree(n, tree_seed);
    let mut ws = DynamicsWorkspace::new(&model);
    let s = random_state(&model, tree_seed ^ 0xABCD);
    let tau: Vec<f64> = (0..model.nv()).map(|k| 0.5 - 0.07 * k as f64).collect();
    let a = forward_dynamics(&model, &mut ws, &s.q, &s.qd, &tau, None)
        .unwrap_or_else(|e| panic!("case seed {seed}: FD failed: {e}"));
    let b = aba(&model, &mut ws, &s.q, &s.qd, &tau, None)
        .unwrap_or_else(|e| panic!("case seed {seed}: ABA failed: {e}"));
    for k in 0..model.nv() {
        assert!(
            (a[k] - b[k]).abs() < 1e-6 * (1.0 + b[k].abs()),
            "case seed {seed}: dof {k}: {} vs {}",
            a[k],
            b[k]
        );
    }
}

/// The mass matrix is symmetric positive definite, and MMinvGen's
/// inverse really inverts it.
fn mass_matrix_spd_and_inverted_case(seed: u64) {
    let mut rng = SplitMix64::new(seed);
    let (n, tree_seed) = tree(&mut rng);
    let model = robots::random_tree(n, tree_seed);
    let mut ws = DynamicsWorkspace::new(&model);
    let s = random_state(&model, tree_seed.wrapping_mul(31));
    let out = mminv_gen(&model, &mut ws, &s.q, true, true)
        .unwrap_or_else(|e| panic!("case seed {seed}: MMinvGen failed: {e}"));
    let m = out.m.unwrap();
    let minv = out.minv.unwrap();
    assert!(
        m.is_symmetric(1e-8 * (1.0 + m.max_abs())),
        "case seed {seed}: M not symmetric"
    );
    assert!(
        m.cholesky().is_ok(),
        "case seed {seed}: M not positive definite"
    );
    let nv = model.nv();
    let prod = m.mul_mat(&minv);
    let err = (&prod - &MatN::identity(nv)).max_abs();
    assert!(
        err < 1e-6 * (1.0 + m.max_abs()),
        "case seed {seed}: M·Minv error {err}"
    );
}

/// Kinetic energy equals the mass-matrix quadratic form.
fn energy_quadratic_form_case(seed: u64) {
    let mut rng = SplitMix64::new(seed);
    let (n, tree_seed) = tree(&mut rng);
    let model = robots::random_tree(n, tree_seed);
    let mut ws = DynamicsWorkspace::new(&model);
    let s = random_state(&model, tree_seed ^ 0x55);
    let ke = kinetic_energy(&model, &mut ws, &s.q, &s.qd);
    let m = crba(&model, &mut ws, &s.q);
    let qd = VecN::from_vec(s.qd.clone());
    let quad = 0.5 * qd.dot(&m.mul_vec(&qd));
    assert!(
        (ke - quad).abs() < 1e-8 * (1.0 + quad.abs()),
        "case seed {seed}: {ke} vs {quad}"
    );
}

/// Torque is affine in q̈ with slope M (the Eq. 1 structure the
/// multifunction reuse relies on).
fn torque_affine_in_qdd_case(seed: u64) {
    let mut rng = SplitMix64::new(seed);
    let (n, tree_seed) = tree(&mut rng);
    let scale = uniform(&mut rng, 0.1, 3.0);
    let model = robots::random_tree(n, tree_seed);
    let mut ws = DynamicsWorkspace::new(&model);
    let s = random_state(&model, tree_seed ^ 0x77);
    let nv = model.nv();
    let dir: Vec<f64> = (0..nv).map(|k| ((k * 13 % 7) as f64 - 3.0) / 3.0).collect();
    let zero = vec![0.0; nv];
    let scaled: Vec<f64> = dir.iter().map(|x| x * scale).collect();

    let t0 = rnea(&model, &mut ws, &s.q, &s.qd, &zero, None);
    let t1 = rnea(&model, &mut ws, &s.q, &s.qd, &scaled, None);
    let m = crba(&model, &mut ws, &s.q);
    let m_dir = m.mul_vec(&VecN::from_vec(dir.clone()));
    for k in 0..nv {
        let predicted = t0[k] + scale * m_dir[k];
        assert!(
            (t1[k] - predicted).abs() < 1e-6 * (1.0 + predicted.abs()),
            "case seed {seed}: dof {k}: {} vs {predicted}",
            t1[k]
        );
    }
}

/// Configuration integration is consistent: integrating by v then by
/// -v returns to the start (up to first-order manifold error ~ dt²).
fn integrate_approximately_reversible_case(seed: u64) {
    let mut rng = SplitMix64::new(seed);
    let (n, tree_seed) = tree(&mut rng);
    let dt = uniform(&mut rng, 0.0001, 0.01);
    let model = robots::random_tree(n, tree_seed);
    let s = random_state(&model, tree_seed ^ 0x99);
    let v: Vec<f64> = (0..model.nv()).map(|k| 0.5 - 0.08 * k as f64).collect();
    let fwd = integrate_config(&model, &s.q, &v, dt);
    let back = integrate_config(&model, &fwd, &v, -dt);
    for i in 0..model.nq() {
        assert!(
            (back[i] - s.q[i]).abs() < 10.0 * dt * dt + 1e-12,
            "case seed {seed}: q[{i}] {} vs {}",
            back[i],
            s.q[i]
        );
    }
}

#[test]
fn fd_inverts_id() {
    for_each_case(1_000, CASES, fd_inverts_id_case);
}

#[test]
fn minv_path_equals_aba() {
    for_each_case(2_000, CASES, minv_path_equals_aba_case);
}

#[test]
fn mass_matrix_spd_and_inverted() {
    for_each_case(3_000, CASES, mass_matrix_spd_and_inverted_case);
}

#[test]
fn energy_quadratic_form() {
    for_each_case(4_000, CASES, energy_quadratic_form_case);
}

#[test]
fn torque_affine_in_qdd() {
    for_each_case(5_000, CASES, torque_affine_in_qdd_case);
}

#[test]
fn integrate_approximately_reversible() {
    for_each_case(6_000, CASES, integrate_approximately_reversible_case);
}

/// Power balance: d/dt(KE) = q̇ᵀτ - q̇ᵀg(q) where τ is the applied torque
/// (checked numerically along a short ABA rollout).
#[test]
fn power_balance_along_trajectory() {
    let model = robots::iiwa();
    let mut ws = DynamicsWorkspace::new(&model);
    let s = dadu_rbd::model::random_state(&model, 5);
    let (mut q, mut qd) = (s.q.clone(), s.qd.clone());
    let tau: Vec<f64> = (0..model.nv()).map(|k| 0.5 - 0.1 * k as f64).collect();
    let dt = 1e-5;
    for _ in 0..50 {
        let e0 = total_energy(&model, &mut ws, &q, &qd);
        let qdd = aba(&model, &mut ws, &q, &qd, &tau, None).unwrap();
        let qd_new: Vec<f64> = qd.iter().zip(&qdd).map(|(v, a)| v + dt * a).collect();
        let q_new = integrate_config(&model, &q, &qd, dt);
        let e1 = total_energy(&model, &mut ws, &q_new, &qd_new);
        // Work done by the actuators over the step.
        let work: f64 = qd.iter().zip(&tau).map(|(v, t)| v * t * dt).sum();
        assert!(
            ((e1 - e0) - work).abs() < 5e-6 * (1.0 + work.abs()),
            "energy balance violated: dE {} vs work {}",
            e1 - e0,
            work
        );
        q = q_new;
        qd = qd_new;
    }
}

// ---- Centroidal momentum: RNEA/ABA physics checked through the total
// momentum and centre of mass of the whole robot.

/// Total robot mass.
fn total_mass(model: &RobotModel) -> f64 {
    (0..model.num_bodies())
        .map(|i| model.link_inertia(i).mass)
        .sum()
}

/// Whole-robot centre of mass in world coordinates.
fn center_of_mass(model: &RobotModel, ws: &mut DynamicsWorkspace, q: &[f64]) -> Vec3 {
    ws.update_kinematics(model, q);
    let mut weighted = Vec3::zero();
    let mut mass = 0.0;
    for i in 0..model.num_bodies() {
        let inertia = model.link_inertia(i);
        if inertia.mass == 0.0 {
            continue;
        }
        let x0 = ws.xworld[i];
        let com_w = x0.rot.transpose() * inertia.com() + x0.trans;
        weighted += com_w * inertia.mass;
        mass += inertia.mass;
    }
    assert!(mass > 0.0, "massless robot");
    weighted / mass
}

/// Total spatial momentum about the world origin, world coordinates
/// (`h = Σᵢ (^0X_i)* Iᵢ vᵢ`, angular part first).
fn spatial_momentum(
    model: &RobotModel,
    ws: &mut DynamicsWorkspace,
    q: &[f64],
    qd: &[f64],
) -> ForceVec {
    ws.update_kinematics(model, q);
    let mut h = ForceVec::zero();
    for i in 0..model.num_bodies() {
        let vo = model.v_offset(i);
        let ni = ws.s_off[i + 1] - ws.s_off[i];
        let vj = MotionVec::weighted_sum(&ws.s[vo..vo + ni], &qd[vo..vo + ni]);
        let v = match model.topology().parent(i) {
            Some(p) => ws.xup[i].apply_motion(&ws.v[p]) + vj,
            None => vj,
        };
        ws.v[i] = v;
        let h_local = model.link_inertia(i).mul_motion(&v);
        h += ws.xworld[i].inv_apply_force(&h_local);
    }
    h
}

/// Linear momentum of an unactuated floating robot changes at exactly
/// m·g (Newton), and angular momentum about the world origin at the
/// gravity moment — checked along an ABA rollout.
#[test]
fn momentum_rate_equals_gravity_wrench() {
    let model = robots::hyq();
    let mut ws = DynamicsWorkspace::new(&model);
    let s = random_state(&model, 9);
    let (q, qd) = (s.q.clone(), s.qd.clone());
    let tau = vec![0.0; model.nv()];
    let m = total_mass(&model);

    let h0 = spatial_momentum(&model, &mut ws, &q, &qd);
    let dt = 1e-6;
    let qdd = aba(&model, &mut ws, &q, &qd, &tau, None).unwrap();
    let qd1: Vec<f64> = qd.iter().zip(&qdd).map(|(v, a)| v + dt * a).collect();
    let q1 = integrate_config(&model, &q, &qd, dt);
    let h1 = spatial_momentum(&model, &mut ws, &q1, &qd1);

    let dh_lin = (h1.lin() - h0.lin()) * (1.0 / dt);
    let expect_lin = model.gravity * m;
    assert!(
        (dh_lin - expect_lin).max_abs() < 1e-3 * (1.0 + expect_lin.max_abs()),
        "ṗ = {dh_lin} vs m·g = {expect_lin}"
    );

    // Angular: ḣ_ang = c × (m g) about the world origin.
    let com = center_of_mass(&model, &mut ws, &q);
    let dh_ang = (h1.ang() - h0.ang()) * (1.0 / dt);
    let expect_ang = com.cross(&(model.gravity * m));
    assert!(
        (dh_ang - expect_ang).max_abs() < 1e-2 * (1.0 + expect_ang.max_abs()),
        "ḣ = {dh_ang} vs c×mg = {expect_ang}"
    );
}

/// Internal joint motion of a free-floating robot cannot change the
/// total momentum (gravity off).
#[test]
fn internal_motion_conserves_momentum_without_gravity() {
    let mut model = robots::hyq();
    model.gravity = Vec3::zero();
    let mut ws = DynamicsWorkspace::new(&model);
    let s = random_state(&model, 2);
    let (mut q, mut qd) = (s.q.clone(), s.qd.clone());
    let tau: Vec<f64> = (0..model.nv())
        .map(|k| if k >= 6 { 0.8 - 0.1 * k as f64 } else { 0.0 })
        .collect();
    let h0 = spatial_momentum(&model, &mut ws, &q, &qd);
    let dt = 1e-4;
    for _ in 0..100 {
        let qdd = aba(&model, &mut ws, &q, &qd, &tau, None).unwrap();
        q = integrate_config(&model, &q, &qd, dt);
        for k in 0..model.nv() {
            qd[k] += dt * qdd[k];
        }
    }
    let h1 = spatial_momentum(&model, &mut ws, &q, &qd);
    assert!(
        (h1 - h0).max_abs() < 1e-2 * (1.0 + h0.max_abs()),
        "momentum drifted: {h0} → {h1}"
    );
}

#[test]
fn com_between_extremes() {
    let model = robots::iiwa();
    let mut ws = DynamicsWorkspace::new(&model);
    let q = model.neutral_config();
    let c = center_of_mass(&model, &mut ws, &q);
    // Neutral iiwa stands straight up: COM on the z axis, above 0.
    assert!(c.x().abs() < 1e-9 && c.y().abs() < 1e-9);
    assert!(c.z() > 0.1 && c.z() < 1.3);
    assert!((total_mass(&model) - 17.5).abs() < 1e-9);
}
