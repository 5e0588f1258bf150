//! Mechanical energy helpers — used by conservation-law tests and the
//! trajectory-optimization cost functions.

use crate::workspace::DynamicsWorkspace;
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
        e += model.link_inertia(i).kinetic_energy(&v);
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::aba::aba_in_ws;
    use crate::crba::crba;
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
        let mut stages = crate::Rk4Stages::for_model(&model, 1);
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
}
