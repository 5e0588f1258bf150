//! Articulated Body Algorithm (forward dynamics), the software baseline
//! the paper deliberately does *not* instantiate in hardware (§III-A). It
//! steps every rollout (the controllers' lane kernel, the plant's
//! `rk4_step`) and is the reference for the `FD = M⁻¹·(τ - C)` path.
//!
//! There is one ABA body, the lane sweep of
//! [`crate::lanes::forward_dynamics_aba_lanes_in_ws`]. [`aba_in_ws`] is
//! its width-1 call (external forces included) in the workspace's own
//! `LaneWorkspace<1>`, and [`aba`] allocates the output and calls it,
//! the way `forward_dynamics` wraps `forward_dynamics_into`. The scalar
//! three-pass sweep survives as the test oracle the lane body is pinned
//! to bit for bit (`tests/support/aba.rs`).

use crate::lanes::aba_lanes_in_ws;
use crate::workspace::DynamicsWorkspace;
use crate::DynamicsError;
use rbd_model::RobotModel;
use rbd_spatial::ForceVec;

/// Forward dynamics `q̈ = ABA(q, q̇, τ, f_ext)` — O(N) articulated-body
/// algorithm with multi-DOF joint support; allocates the returned `q̈`
/// and runs [`aba_in_ws`].
///
/// `fext` entries are world-frame spatial forces per body.
///
/// # Errors
/// Returns [`DynamicsError::SingularMassMatrix`] when a joint-space
/// articulated inertia block is singular (physically impossible for
/// positive-mass models).
///
/// # Panics
/// Panics on dimension mismatches.
pub fn aba(
    model: &RobotModel,
    ws: &mut DynamicsWorkspace,
    q: &[f64],
    qd: &[f64],
    tau: &[f64],
    fext: Option<&[ForceVec]>,
) -> Result<Vec<f64>, DynamicsError> {
    let mut qdd = vec![0.0; model.nv()];
    aba_in_ws(model, ws, q, qd, tau, fext, &mut qdd)?;
    Ok(qdd)
}

/// The ABA sweep, writing `q̈` into a caller-provided output with
/// **zero steady-state heap allocation**: the width-1 call of the lane
/// ABA in the workspace's `LaneWorkspace<1>` (an AVX2-compiled clone on
/// AVX2 hosts), with the result copied out. It touches no other
/// workspace buffer, so `xup`, `xworld`, `v` and `a` keep what the last
/// kinematics or RNEA call left there.
///
/// `fext` entries are world-frame spatial forces per body.
///
/// # Errors
/// Returns [`DynamicsError::SingularMassMatrix`] when a joint-space
/// articulated inertia block is singular.
///
/// # Panics
/// Panics on dimension mismatches.
pub fn aba_in_ws(
    model: &RobotModel,
    ws: &mut DynamicsWorkspace,
    q: &[f64],
    qd: &[f64],
    tau: &[f64],
    fext: Option<&[ForceVec]>,
    qdd_out: &mut [f64],
) -> Result<(), DynamicsError> {
    aba_lanes_in_ws(model, &mut ws.aba_lanes, q, qd, tau, fext)?;
    ws.aba_lanes.scatter_qdd(qdd_out);
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rnea::rnea;
    use rbd_model::{random_state, robots};

    fn roundtrip(model: &rbd_model::RobotModel, seed: u64, tol: f64) {
        let mut ws = DynamicsWorkspace::new(model);
        let s = random_state(model, seed);
        let qdd_in: Vec<f64> = (0..model.nv()).map(|k| 0.4 - 0.03 * k as f64).collect();
        let tau = rnea(model, &mut ws, &s.q, &s.qd, &qdd_in, None);
        let qdd = aba(model, &mut ws, &s.q, &s.qd, &tau, None).unwrap();
        for k in 0..model.nv() {
            assert!(
                (qdd[k] - qdd_in[k]).abs() < tol,
                "{} dof {k}: {} vs {}",
                model.name(),
                qdd[k],
                qdd_in[k]
            );
        }
    }

    #[test]
    fn inverts_rnea_iiwa() {
        roundtrip(&robots::iiwa(), 1, 1e-8);
    }

    #[test]
    fn inverts_rnea_hyq() {
        roundtrip(&robots::hyq(), 2, 1e-7);
    }

    #[test]
    fn inverts_rnea_atlas() {
        roundtrip(&robots::atlas(), 3, 1e-7);
    }

    #[test]
    fn inverts_rnea_random_trees() {
        for seed in 0..5 {
            roundtrip(&robots::random_tree(12, seed), seed + 10, 1e-7);
        }
    }

    #[test]
    fn inverts_rnea_with_external_forces() {
        let model = robots::hyq();
        let mut ws = DynamicsWorkspace::new(&model);
        let s = random_state(&model, 8);
        let fext: Vec<ForceVec> = (0..model.num_bodies())
            .map(|i| ForceVec::from_slice(&[0.1 * i as f64, -0.2, 0.3, 5.0, -2.0, 1.0 + i as f64]))
            .collect();
        let qdd_in: Vec<f64> = (0..model.nv()).map(|k| 0.1 * k as f64 - 0.5).collect();
        let tau = rnea(&model, &mut ws, &s.q, &s.qd, &qdd_in, Some(&fext));
        let qdd = aba(&model, &mut ws, &s.q, &s.qd, &tau, Some(&fext)).unwrap();
        for k in 0..model.nv() {
            assert!((qdd[k] - qdd_in[k]).abs() < 1e-7);
        }
    }

    #[test]
    fn reused_workspace_gives_fresh_workspace_results_bitwise() {
        // `aba` runs the one sweep, `aba_in_ws`; its output must not
        // depend on what an earlier call (other state, external forces)
        // left in the workspace.
        for model in [robots::iiwa(), robots::hyq(), robots::atlas()] {
            let s = random_state(&model, 17);
            let tau: Vec<f64> = (0..model.nv()).map(|k| 0.6 - 0.07 * k as f64).collect();
            let fresh = aba(
                &model,
                &mut DynamicsWorkspace::new(&model),
                &s.q,
                &s.qd,
                &tau,
                None,
            )
            .unwrap();
            let mut ws = DynamicsWorkspace::new(&model);
            let other = random_state(&model, 18);
            let fext: Vec<ForceVec> = (0..model.num_bodies())
                .map(|i| ForceVec::from_slice(&[0.2, -0.1 * i as f64, 0.3, 2.0, -1.0, 0.5]))
                .collect();
            aba(&model, &mut ws, &other.q, &other.qd, &tau, Some(&fext)).unwrap();
            let mut qdd = vec![0.0; model.nv()];
            aba_in_ws(&model, &mut ws, &s.q, &s.qd, &tau, None, &mut qdd).unwrap();
            assert_eq!(qdd, fresh, "{}", model.name());
        }
    }

    #[test]
    fn free_fall_acceleration() {
        // Unactuated floating body: base must accelerate at -g.
        let model = robots::hyq();
        let mut ws = DynamicsWorkspace::new(&model);
        let q = model.neutral_config();
        let zero = vec![0.0; model.nv()];
        let qdd = aba(&model, &mut ws, &q, &zero, &zero, None).unwrap();
        // Base linear z acceleration (dof 5) = -9.81; legs see no torque
        // but gravity is uniform so relative accelerations vanish.
        assert!((qdd[5] + 9.81).abs() < 1e-9, "qdd = {qdd:?}");
        for k in 0..3 {
            assert!(qdd[k].abs() < 1e-9); // no angular acceleration
        }
        for k in 6..model.nv() {
            assert!(qdd[k].abs() < 1e-9, "joint dof {k}: {}", qdd[k]);
        }
    }
}
