//! ΔRNEA — analytical derivatives of inverse dynamics
//! (`∂τ/∂q`, `∂τ/∂q̇`): the output type and the public entry points.
//!
//! Derivatives are taken in the tangent space of the configuration
//! manifold (`q ⊕ δ` through each joint's exponential map), which for
//! revolute/prismatic joints coincides with plain partial derivatives.
//!
//! The kernel is the IDSVA formulation in [`crate::idsva`]. It is
//! allocation-free in steady state: all intermediate per-body/per-DOF
//! tables live in flat [`DynamicsWorkspace`] buffers, and
//! [`rnea_derivatives_into`] writes into a caller-reused
//! [`RneaDerivatives`].

use crate::workspace::DynamicsWorkspace;
use rbd_model::RobotModel;
use rbd_spatial::{ForceVec, MatN};

/// Result of [`rnea_derivatives`].
#[derive(Debug, Clone, Default)]
pub struct RneaDerivatives {
    /// `∂τ/∂q` (tangent space), `nv × nv`.
    pub dtau_dq: MatN,
    /// `∂τ/∂q̇`, `nv × nv`.
    pub dtau_dqd: MatN,
    /// The torque at the evaluation point (free by-product).
    pub tau: Vec<f64>,
}

impl RneaDerivatives {
    /// Zero-initialized output storage for an `nv`-DOF model, meant to be
    /// reused across [`rnea_derivatives_into`] calls.
    pub fn zeros(nv: usize) -> Self {
        Self {
            dtau_dq: MatN::zeros(nv, nv),
            dtau_dqd: MatN::zeros(nv, nv),
            tau: vec![0.0; nv],
        }
    }

    /// Reshapes the buffers for an `nv`-DOF model; a no-op (and hence
    /// allocation-free) when the dimensions already match.
    pub fn ensure_dims(&mut self, nv: usize) {
        self.dtau_dq.resize(nv, nv);
        self.dtau_dqd.resize(nv, nv);
        self.tau.resize(nv, 0.0);
    }
}

/// Analytical `ΔID`: `∂_u τ = ΔID(q, q̇, q̈, f_ext)` with `u = [q; q̇]`.
///
/// Allocates a fresh [`RneaDerivatives`] per call; hot paths should hold
/// one and call [`rnea_derivatives_into`] instead.
///
/// `fext` entries are world-frame spatial forces per body (constant under
/// the differentiation, matching the paper's treatment).
///
/// # Panics
/// Panics on dimension mismatches.
///
/// # Example
/// ```
/// use rbd_dynamics::{rnea_derivatives, DynamicsWorkspace};
/// use rbd_model::{robots, random_state};
/// let model = robots::iiwa();
/// let mut ws = DynamicsWorkspace::new(&model);
/// let s = random_state(&model, 0);
/// let qdd = vec![0.0; model.nv()];
/// let d = rnea_derivatives(&model, &mut ws, &s.q, &s.qd, &qdd, None);
/// assert_eq!(d.dtau_dq.rows(), model.nv());
/// ```
pub fn rnea_derivatives(
    model: &RobotModel,
    ws: &mut DynamicsWorkspace,
    q: &[f64],
    qd: &[f64],
    qdd: &[f64],
    fext: Option<&[ForceVec]>,
) -> RneaDerivatives {
    let mut out = RneaDerivatives::zeros(model.nv());
    rnea_derivatives_into(model, ws, q, qd, qdd, fext, &mut out);
    out
}

/// [`rnea_derivatives`] into caller-reused output storage: performs zero
/// heap allocation in steady state (all scratch lives in `ws`, `out` is
/// resized only on the first call).
///
/// # Panics
/// Panics on input dimension mismatches.
pub fn rnea_derivatives_into(
    model: &RobotModel,
    ws: &mut DynamicsWorkspace,
    q: &[f64],
    qd: &[f64],
    qdd: &[f64],
    fext: Option<&[ForceVec]>,
    out: &mut RneaDerivatives,
) {
    crate::idsva::rnea_derivatives_idsva_into(model, ws, q, qd, qdd, fext, out);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::finite_diff::rnea_derivatives_numeric;
    use crate::rnea::rnea;
    use rbd_model::{random_state, robots, RobotModel};

    fn check(model: &RobotModel, seed: u64, tol: f64) {
        let mut ws = DynamicsWorkspace::new(model);
        let s = random_state(model, seed);
        let qdd: Vec<f64> = (0..model.nv()).map(|k| 0.5 - 0.07 * k as f64).collect();

        let analytic = rnea_derivatives(model, &mut ws, &s.q, &s.qd, &qdd, None);
        let (num_dq, num_dqd) = rnea_derivatives_numeric(model, &s.q, &s.qd, &qdd, None, 1e-6);

        let scale = 1.0 + num_dq.max_abs().max(num_dqd.max_abs());
        let err_q = (&analytic.dtau_dq - &num_dq).max_abs() / scale;
        let err_qd = (&analytic.dtau_dqd - &num_dqd).max_abs() / scale;
        assert!(err_q < tol, "{}: ∂τ/∂q error {err_q}", model.name());
        assert!(err_qd < tol, "{}: ∂τ/∂q̇ error {err_qd}", model.name());

        // τ by-product matches plain RNEA.
        let tau = rnea(model, &mut ws, &s.q, &s.qd, &qdd, None);
        for k in 0..model.nv() {
            assert!((analytic.tau[k] - tau[k]).abs() < 1e-8 * (1.0 + tau[k].abs()));
        }
    }

    #[test]
    fn iiwa_fixed_base() {
        check(&robots::iiwa(), 1, 1e-5);
    }

    #[test]
    fn hyq_floating_base() {
        check(&robots::hyq(), 2, 1e-5);
    }

    #[test]
    fn atlas_humanoid() {
        check(&robots::atlas(), 3, 1e-5);
    }

    #[test]
    fn tiago_planar() {
        check(&robots::tiago(), 4, 1e-5);
    }

    #[test]
    fn random_trees() {
        for seed in 0..4 {
            check(&robots::random_tree(8, seed), seed + 30, 1e-5);
        }
    }

    #[test]
    fn with_external_forces() {
        let model = robots::hyq();
        let mut ws = DynamicsWorkspace::new(&model);
        let s = random_state(&model, 6);
        let qdd: Vec<f64> = (0..model.nv()).map(|k| 0.1 * k as f64).collect();
        let fext: Vec<ForceVec> = (0..model.num_bodies())
            .map(|i| ForceVec::from_slice(&[0.5, -0.3, 0.2, 3.0, 1.0 - i as f64 * 0.1, -2.0]))
            .collect();
        let analytic = rnea_derivatives(&model, &mut ws, &s.q, &s.qd, &qdd, Some(&fext));
        let (num_dq, num_dqd) =
            rnea_derivatives_numeric(&model, &s.q, &s.qd, &qdd, Some(&fext), 1e-6);
        let scale = 1.0 + num_dq.max_abs();
        assert!((&analytic.dtau_dq - &num_dq).max_abs() / scale < 1e-5);
        assert!((&analytic.dtau_dqd - &num_dqd).max_abs() / scale < 1e-5);
    }

    /// ∂τ/∂q̈ is the mass matrix; check via linearity instead of a
    /// dedicated output: ΔID at two q̈ values has identical ∂τ/∂q̇ terms
    /// only when velocity effects dominate — so instead verify that the
    /// dtau_dq of a *static* configuration (q̇ = 0, q̈ = 0) matches the
    /// gradient of gravity torques alone.
    #[test]
    fn static_gradient_is_gravity_gradient() {
        let model = robots::iiwa();
        let mut ws = DynamicsWorkspace::new(&model);
        let s = random_state(&model, 9);
        let zero = vec![0.0; model.nv()];
        let analytic = rnea_derivatives(&model, &mut ws, &s.q, &zero, &zero, None);
        let (num_dq, num_dqd) = rnea_derivatives_numeric(&model, &s.q, &zero, &zero, None, 1e-6);
        assert!((&analytic.dtau_dq - &num_dq).max_abs() < 1e-5);
        // With zero velocity the q̇ gradient must vanish except Coriolis
        // cross terms, which are linear in q̇ → exactly zero here.
        assert!(analytic.dtau_dqd.max_abs() < 1e-10);
        assert!(num_dqd.max_abs() < 1e-6);
    }

    /// Reusing one output across calls with dirty intermediate state must
    /// give bit-identical results to a fresh evaluation.
    #[test]
    fn workspace_reuse_is_deterministic() {
        for model in [robots::hyq(), robots::atlas(), robots::random_tree(9, 1)] {
            let mut ws = DynamicsWorkspace::new(&model);
            let mut out = RneaDerivatives::zeros(model.nv());
            let s1 = random_state(&model, 21);
            let s2 = random_state(&model, 22);
            let qdd: Vec<f64> = (0..model.nv()).map(|k| 0.2 - 0.03 * k as f64).collect();

            // Dirty the scratch with a different state, then re-evaluate.
            rnea_derivatives_into(&model, &mut ws, &s2.q, &s2.qd, &qdd, None, &mut out);
            rnea_derivatives_into(&model, &mut ws, &s1.q, &s1.qd, &qdd, None, &mut out);

            let mut fresh_ws = DynamicsWorkspace::new(&model);
            let fresh = rnea_derivatives(&model, &mut fresh_ws, &s1.q, &s1.qd, &qdd, None);
            assert_eq!(
                (&out.dtau_dq - &fresh.dtau_dq).max_abs(),
                0.0,
                "{}: dirty reuse changed ∂τ/∂q",
                model.name()
            );
            assert_eq!((&out.dtau_dqd - &fresh.dtau_dqd).max_abs(), 0.0);
            assert_eq!(out.tau, fresh.tau);
        }
    }
}
