//! Recursive Newton-Euler Algorithm (inverse dynamics), Algorithm 1 of
//! the paper.

use crate::workspace::DynamicsWorkspace;
use rbd_model::RobotModel;
use rbd_spatial::{ForceVec, MotionVec};

/// Inverse dynamics: `τ = ID(q, q̇, q̈, f_ext)`.
///
/// External forces `fext`, when given, are per-body spatial forces
/// **expressed in world coordinates** (one entry per body). Gravity is
/// taken from `model.gravity`.
///
/// Side effects: leaves per-body `v`, `a` (local frames) and the *net*
/// body forces in `ws` — exactly the `[v, a, f]` by-products the paper's
/// RNEA submodules forward to the ΔRNEA array (Fig 9a step ④).
///
/// # Panics
/// Panics if `q`, `qd`, `qdd` or `fext` have wrong dimensions.
///
/// # Example
/// ```
/// use rbd_dynamics::{rnea, DynamicsWorkspace};
/// use rbd_model::robots;
/// let model = robots::iiwa();
/// let mut ws = DynamicsWorkspace::new(&model);
/// let q = model.neutral_config();
/// let zero = vec![0.0; model.nv()];
/// // At rest the torque is pure gravity compensation.
/// let tau = rnea(&model, &mut ws, &q, &zero, &zero, None);
/// assert_eq!(tau.len(), 7);
/// ```
pub fn rnea(
    model: &RobotModel,
    ws: &mut DynamicsWorkspace,
    q: &[f64],
    qd: &[f64],
    qdd: &[f64],
    fext: Option<&[ForceVec]>,
) -> Vec<f64> {
    rnea_in_ws(model, ws, q, qd, qdd, fext);
    ws.tau.clone()
}

/// [`rnea`] leaving the torque in `ws.tau` instead of returning it — the
/// zero-allocation form of the kernel.
///
/// # Panics
/// Panics on dimension mismatch.
pub fn rnea_in_ws(
    model: &RobotModel,
    ws: &mut DynamicsWorkspace,
    q: &[f64],
    qd: &[f64],
    qdd: &[f64],
    fext: Option<&[ForceVec]>,
) {
    let nb = model.num_bodies();
    assert_eq!(q.len(), model.nq(), "q dimension");
    assert_eq!(qd.len(), model.nv(), "qd dimension");
    assert_eq!(qdd.len(), model.nv(), "qdd dimension");
    if let Some(f) = fext {
        assert_eq!(f.len(), nb, "fext dimension");
    }

    ws.update_kinematics(model, q);
    rnea_sweeps_in_ws(model, ws, qd, qdd, fext);
}

/// The forward and backward sweeps of [`rnea_in_ws`] over the joint
/// transforms that `ws.xup` and `ws.xworld` already hold, leaving `τ` in
/// `ws.tau` (and the `v`, `a`, `f` by-products of [`rnea`]).
/// [`rnea_in_ws`] fills the transforms with
/// [`DynamicsWorkspace::update_kinematics`]; a caller that builds them
/// another way (the accelerator simulator's trigonometric unit) writes
/// them itself, on a workspace of its own: `update_kinematics` skips
/// rebuilding them when called again with the `q` it last saw.
///
/// # Panics
/// Panics if `qd`, `qdd` or `fext` are shorter than the model needs.
/// Longer ones are not checked here: [`rnea_in_ws`] asserts the exact
/// dimensions.
#[inline(always)]
pub fn rnea_sweeps_in_ws(
    model: &RobotModel,
    ws: &mut DynamicsWorkspace,
    qd: &[f64],
    qdd: &[f64],
    fext: Option<&[ForceVec]>,
) {
    let nb = model.num_bodies();
    // a0 = -g expressed as a motion vector (d'Alembert trick: gravity is
    // implemented as an upward acceleration of the base).
    let a0 = MotionVec::new(rbd_spatial::Vec3::zero(), -model.gravity);

    // Forward pass: velocities, accelerations, net body forces.
    for i in 0..nb {
        let xup = ws.xup[i];
        let vo = model.v_offset(i);
        let ni = ws.s_off[i + 1] - ws.s_off[i];
        let cols = &ws.s[vo..vo + ni];

        let vj = MotionVec::weighted_sum(cols, &qd[vo..vo + ni]);
        let aj = MotionVec::weighted_sum(cols, &qdd[vo..vo + ni]);

        let (v_par, a_par) = match model.topology().parent(i) {
            Some(p) => (xup.apply_motion(&ws.v[p]), xup.apply_motion(&ws.a[p])),
            None => (MotionVec::zero(), xup.apply_motion(&a0)),
        };
        let v = v_par + vj;
        let a = a_par + aj + v.cross_motion(&vj);

        let inertia = model.link_inertia(i);
        let mut f = inertia.mul_motion(&a) + v.cross_force(&inertia.mul_motion(&v));
        if let Some(fx) = fext {
            // fext is given in world coordinates; express it locally.
            f -= ws.xworld[i].apply_force(&fx[i]);
        }

        ws.v[i] = v;
        ws.a[i] = a;
        ws.f[i] = f;
    }

    // Backward pass: project torques, propagate forces to parents.
    for i in (0..nb).rev() {
        let vo = model.v_offset(i);
        let ni = ws.s_off[i + 1] - ws.s_off[i];
        MotionVec::dot_force_batch(&ws.s[vo..vo + ni], &ws.f[i], &mut ws.tau[vo..vo + ni]);
        if let Some(p) = model.topology().parent(i) {
            let fp = ws.xup[i].inv_apply_force(&ws.f[i]);
            ws.f[p] += fp;
        }
    }
}

/// Generalised bias force `C(q, q̇, f_ext) = ID(q, q̇, 0, f_ext)`, left in
/// `ws.tau` — zero heap allocation (the constant zero `q̈` also lives in
/// the workspace).
///
/// # Panics
/// Panics on dimension mismatch.
pub fn bias_force_in_ws(
    model: &RobotModel,
    ws: &mut DynamicsWorkspace,
    q: &[f64],
    qd: &[f64],
    fext: Option<&[ForceVec]>,
) {
    // The zero q̈ buffer is moved out for the call so `ws` can be borrowed
    // mutably alongside it (a pointer swap, not an allocation).
    let zero = std::mem::take(&mut ws.zero_qdd);
    rnea_in_ws(model, ws, q, qd, &zero, fext);
    ws.zero_qdd = zero;
}

#[cfg(test)]
mod tests {
    use super::*;
    use rbd_model::{random_state, robots, JointType, ModelBuilder};
    use rbd_spatial::{Mat3, SpatialInertia, Vec3, Xform};

    /// Single pendulum: τ = m l² q̈ + m g l sin(q) for a point mass at
    /// distance l below a revolute-Y joint (rotation about y tilts the
    /// rod in the x-z plane).
    #[test]
    fn pendulum_matches_textbook() {
        let (m, l, g) = (1.3, 0.7, 9.81);
        let mut b = ModelBuilder::new("pendulum");
        b.add_body(
            "rod",
            None,
            JointType::revolute_y(),
            Xform::identity(),
            SpatialInertia::from_mass_com_inertia(m, Vec3::new(0.0, 0.0, -l), Mat3::zero()),
        );
        let model = b.build();
        let mut ws = DynamicsWorkspace::new(&model);

        for (q, qd, qdd) in [(0.3, 0.5, 1.2), (-1.1, 0.0, 0.0), (2.2, -2.0, 0.7)] {
            let tau = rnea(&model, &mut ws, &[q], &[qd], &[qdd], None);
            let expect = m * l * l * qdd + m * g * l * q.sin();
            assert!(
                (tau[0] - expect).abs() < 1e-10,
                "q={q}: got {} expected {expect}",
                tau[0]
            );
        }
    }

    #[test]
    fn gravity_compensation_at_rest_balances_weight() {
        // A prismatic-z joint at rest must carry exactly m·g.
        let mut b = ModelBuilder::new("lift");
        b.add_body(
            "mass",
            None,
            JointType::prismatic_z(),
            Xform::identity(),
            SpatialInertia::from_mass_com_inertia(2.0, Vec3::zero(), Mat3::zero()),
        );
        let model = b.build();
        let mut ws = DynamicsWorkspace::new(&model);
        let tau = rnea(&model, &mut ws, &[0.4], &[0.0], &[0.0], None);
        assert!((tau[0] - 2.0 * 9.81).abs() < 1e-10);
    }

    #[test]
    fn id_is_linear_in_qdd() {
        // τ(q̈) = M q̈ + C ⇒ τ(a+b) - τ(a) - τ(b) + τ(0) = 0.
        let model = robots::hyq();
        let mut ws = DynamicsWorkspace::new(&model);
        let s = random_state(&model, 3);
        let nv = model.nv();
        let a: Vec<f64> = (0..nv).map(|k| 0.3 - 0.05 * k as f64).collect();
        let b: Vec<f64> = (0..nv).map(|k| -0.2 + 0.07 * k as f64).collect();
        let ab: Vec<f64> = a.iter().zip(&b).map(|(x, y)| x + y).collect();
        let zero = vec![0.0; nv];

        let t_a = rnea(&model, &mut ws, &s.q, &s.qd, &a, None);
        let t_b = rnea(&model, &mut ws, &s.q, &s.qd, &b, None);
        let t_ab = rnea(&model, &mut ws, &s.q, &s.qd, &ab, None);
        let t_0 = rnea(&model, &mut ws, &s.q, &s.qd, &zero, None);
        for k in 0..nv {
            assert!(
                (t_ab[k] - t_a[k] - t_b[k] + t_0[k]).abs() < 1e-8,
                "nonlinearity at dof {k}"
            );
        }
    }

    #[test]
    fn world_frame_external_force_cancels_gravity() {
        // Pushing every body up with m_i·g world-frame forces at the
        // right point... simpler: a single body. Supporting force through
        // the COM cancels gravity exactly.
        let mut b = ModelBuilder::new("block");
        b.add_body(
            "block",
            None,
            JointType::Floating,
            Xform::identity(),
            SpatialInertia::from_mass_com_inertia(
                5.0,
                Vec3::zero(),
                Mat3::diagonal(Vec3::new(0.1, 0.2, 0.3)),
            ),
        );
        let model = b.build();
        let mut ws = DynamicsWorkspace::new(&model);
        let s = random_state(&model, 11);
        let zero = vec![0.0; 6];
        // A world-frame spatial force is a wrench about the world origin:
        // to cancel gravity its line of action must pass through the COM
        // (here the body origin, located at q[0..3]).
        let com = Vec3::new(s.q[0], s.q[1], s.q[2]);
        let lift = Vec3::new(0.0, 0.0, 5.0 * 9.81);
        let fext = vec![ForceVec::new(com.cross(&lift), lift)];
        // τ = ID(q, 0, 0, fext) should vanish: supported body at rest.
        let tau = rnea(&model, &mut ws, &s.q, &zero, &zero, Some(&fext));
        for t in &tau {
            assert!(t.abs() < 1e-9, "tau = {tau:?}");
        }
    }

    #[test]
    fn floating_base_free_fall_is_torque_free() {
        // A floating body accelerating downward at g needs zero wrench.
        let model = robots::hyq();
        let mut ws = DynamicsWorkspace::new(&model);
        let q = model.neutral_config();
        let zero = vec![0.0; model.nv()];
        let mut qdd = vec![0.0; model.nv()];
        // Base linear acceleration (body frame = world at neutral): -g ẑ.
        qdd[5] = -9.81; // [ω(3); v(3)] layout, v_z is index 5
        let tau = rnea(&model, &mut ws, &q, &zero, &qdd, None);
        // Only the base wrench must vanish; joint torques may not (links
        // hang off-axis)… actually in uniform free fall everything is
        // weightless, so all torques vanish.
        for (k, t) in tau.iter().enumerate() {
            assert!(t.abs() < 1e-9, "dof {k}: {t}");
        }
    }

    #[test]
    fn bias_force_equals_id_with_zero_qdd() {
        let model = robots::atlas();
        let mut ws = DynamicsWorkspace::new(&model);
        let s = random_state(&model, 5);
        let zero = vec![0.0; model.nv()];
        let id0 = rnea(&model, &mut ws, &s.q, &s.qd, &zero, None);
        bias_force_in_ws(&model, &mut ws, &s.q, &s.qd, None);
        assert_eq!(ws.tau, id0);
    }
}
