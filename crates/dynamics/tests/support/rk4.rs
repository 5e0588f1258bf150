//! Test-only scalar RK4 reference of the lane rollout
//! (`rbd_dynamics::rk4_rollout_lanes_into`): classical RK4 on the
//! configuration manifold, one sample at a time, with the stage
//! dynamics as a parameter. With [`aba_stage`] (the scalar ABA oracle
//! of `support/aba.rs`) it performs the lane rollout's arithmetic
//! exactly and is the bitwise reference; with `forward_dynamics` (the
//! M⁻¹ path) it checks that the rollout integrates the right physics.
//!
//! Include it next to that oracle:
//! `#[path = "support/aba.rs"] mod aba;` and
//! `#[path = "support/rk4.rs"] mod rk4;`.

use super::aba::aba_in_ws;
use rbd_dynamics::{DynamicsError, DynamicsWorkspace};
use rbd_model::{integrate_config, RobotModel};

/// Stage dynamics `q̈ = FD(q, q̇, τ)`.
pub type StageFd = fn(
    &RobotModel,
    &mut DynamicsWorkspace,
    &[f64],
    &[f64],
    &[f64],
) -> Result<Vec<f64>, DynamicsError>;

/// The lane rollout's stage dynamics: the scalar ABA oracle.
pub fn aba_stage(
    model: &RobotModel,
    ws: &mut DynamicsWorkspace,
    q: &[f64],
    qd: &[f64],
    tau: &[f64],
) -> Result<Vec<f64>, DynamicsError> {
    let mut qdd = vec![0.0; model.nv()];
    aba_in_ws(model, ws, q, qd, tau, None, &mut qdd)?;
    Ok(qdd)
}

/// Rolls out `us` (`[step][nv]`, flat; the horizon is `us.len() / nv`)
/// from `(q0, q̇0)` with step `h`, returning the step-major trajectories
/// `((horizon+1)·nq, (horizon+1)·nv)`.
pub fn rk4_rollout(
    model: &RobotModel,
    fd: StageFd,
    q0: &[f64],
    qd0: &[f64],
    us: &[f64],
    h: f64,
) -> Result<(Vec<f64>, Vec<f64>), DynamicsError> {
    let nv = model.nv();
    let mut ws = DynamicsWorkspace::new(model);
    let (mut q_traj, mut qd_traj) = (q0.to_vec(), qd0.to_vec());
    let (mut q, mut qd) = (q0.to_vec(), qd0.to_vec());
    for tau in us.chunks(nv) {
        let mut stage = |q: &[f64], qd: &[f64]| fd(model, &mut ws, q, qd, tau);
        let k1a = stage(&q, &qd)?;
        let q2 = integrate_config(model, &q, &qd, h / 2.0);
        let qd2: Vec<f64> = (0..nv).map(|i| qd[i] + h / 2.0 * k1a[i]).collect();
        let k2a = stage(&q2, &qd2)?;
        let q3 = integrate_config(model, &q, &qd2, h / 2.0);
        let qd3: Vec<f64> = (0..nv).map(|i| qd[i] + h / 2.0 * k2a[i]).collect();
        let k3a = stage(&q3, &qd3)?;
        let q4 = integrate_config(model, &q, &qd3, h);
        let qd4: Vec<f64> = (0..nv).map(|i| qd[i] + h * k3a[i]).collect();
        let k4a = stage(&q4, &qd4)?;
        let vbar: Vec<f64> = (0..nv)
            .map(|i| (qd[i] + 2.0 * qd2[i] + 2.0 * qd3[i] + qd4[i]) / 6.0)
            .collect();
        q = integrate_config(model, &q, &vbar, h);
        qd = (0..nv)
            .map(|i| qd[i] + h / 6.0 * (k1a[i] + 2.0 * k2a[i] + 2.0 * k3a[i] + k4a[i]))
            .collect();
        q_traj.extend_from_slice(&q);
        qd_traj.extend_from_slice(&qd);
    }
    Ok((q_traj, qd_traj))
}
