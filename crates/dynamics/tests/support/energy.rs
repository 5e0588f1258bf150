//! Test-only mechanical energy of a robot state: kinetic
//! `½ Σᵢ vᵢᵀ Iᵢ vᵢ`, gravitational potential and their sum. The
//! conservation-law and power-balance tests check the integrators and
//! the dynamics against it.
//!
//! Include it with `#[path = "support/energy.rs"] mod energy;`.

use rbd_dynamics::DynamicsWorkspace;
use rbd_model::RobotModel;
use rbd_spatial::MotionVec;

/// Total kinetic energy `½ Σᵢ vᵢᵀ Iᵢ vᵢ` at `(q, q̇)`.
pub fn kinetic_energy(
    model: &RobotModel,
    ws: &mut DynamicsWorkspace,
    q: &[f64],
    qd: &[f64],
) -> f64 {
    ws.update_kinematics(model, q);
    let mut e = 0.0;
    for i in 0..model.num_bodies() {
        let vo = model.v_offset(i);
        let ni = ws.s_off[i + 1] - ws.s_off[i];
        let vj = MotionVec::weighted_sum(&ws.s[vo..vo + ni], &qd[vo..vo + ni]);
        let v = match model.topology().parent(i) {
            Some(p) => ws.xup[i].apply_motion(&ws.v[p]) + vj,
            None => vj,
        };
        ws.v[i] = v;
        e += 0.5 * v.dot_force(&model.link_inertia(i).mul_motion(&v));
    }
    e
}

/// Total gravitational potential energy `-Σᵢ mᵢ g·cᵢ` (world frame,
/// zero level at the world origin).
pub fn potential_energy(model: &RobotModel, ws: &mut DynamicsWorkspace, q: &[f64]) -> f64 {
    ws.update_kinematics(model, q);
    let g = model.gravity;
    let mut e = 0.0;
    for i in 0..model.num_bodies() {
        let inertia = model.link_inertia(i);
        if inertia.mass == 0.0 {
            continue;
        }
        // COM in world coordinates: p₀ = Eᵀ p_i + r for `^iX_0 = (E, r)`.
        let x0 = ws.xworld[i];
        let com_world = x0.rot.transpose() * inertia.com() + x0.trans;
        e -= inertia.mass * g.dot(&com_world);
    }
    e
}

/// `kinetic + potential` energy.
pub fn total_energy(model: &RobotModel, ws: &mut DynamicsWorkspace, q: &[f64], qd: &[f64]) -> f64 {
    kinetic_energy(model, ws, q, qd) + potential_energy(model, ws, q)
}
