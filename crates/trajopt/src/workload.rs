//! The profiled MPC workload of Fig 2: one model-predictive-control
//! iteration decomposed into its task classes, with wall-clock
//! measurement of each class on the host — serially and batched across
//! worker threads through [`BatchEval`] (the Fig 13
//! pipeline-vs-multithread comparison's software side).

use crate::ilqr::{lq_jacobians_batched, LqScratch};
use crate::integrator::{rk4_step_with_sensitivity_into, Rk4SensScratch, StepJacobians};
use rbd_dynamics::{BatchEval, DynamicsWorkspace, FdDerivatives};
use rbd_model::{random_state, RobotModel};
use rbd_spatial::MatN;
use std::time::Instant;

/// Wall-clock breakdown of one MPC iteration (the Fig 2c pie).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WorkloadProfile {
    /// LQ approximation: dynamics + derivatives at every sampling point
    /// (parallelizable; contains `derivatives_s`), evaluated serially.
    pub lq_approx_s: f64,
    /// The derivatives-of-dynamics share inside the LQ approximation
    /// (the paper highlights 23.61%): the four per-point ΔFD stage
    /// evaluations timed directly at the actual RK4 stage states (not an
    /// extrapolation, not clamped to `lq_approx_s`).
    pub derivatives_s: f64,
    /// Backward Riccati-style solve (serial).
    pub solver_s: f64,
    /// Everything else (rollout, cost bookkeeping).
    pub other_s: f64,
    /// The LQ approximation evaluated through [`BatchEval`] across
    /// `batch_threads` workers (equals the serial path for 1 worker, up
    /// to scheduling overhead).
    pub lq_batch_s: f64,
    /// Executors the work gate actually engaged for `lq_batch_s`
    /// (1 = the batch ran inline on the caller; can be below the
    /// requested thread count for small models/point counts).
    pub batch_threads: usize,
}

impl WorkloadProfile {
    /// Total iteration time (serial LQ evaluation).
    pub fn total_s(&self) -> f64 {
        self.lq_approx_s + self.solver_s + self.other_s
    }

    /// Total iteration time with the batched LQ approximation.
    pub fn total_batched_s(&self) -> f64 {
        self.lq_batch_s + self.solver_s + self.other_s
    }

    /// Fraction of the iteration spent in the LQ approximation.
    pub fn lq_fraction(&self) -> f64 {
        self.lq_approx_s / self.total_s()
    }

    /// Fraction spent in derivatives of dynamics.
    pub fn derivatives_fraction(&self) -> f64 {
        self.derivatives_s / self.total_s()
    }

    /// Speedup of the batched LQ approximation over the serial one.
    pub fn lq_batch_speedup(&self) -> f64 {
        self.lq_approx_s / self.lq_batch_s.max(1e-12)
    }
}

/// Profiles one MPC iteration with `n_points` sampling points on
/// `model`, using all available host parallelism for the batched LQ
/// measurement: per point an RK4 sensitivity evaluation (4 serial ΔFD
/// sub-tasks), then a serial backward pass over the collected Jacobians.
pub fn profile_mpc_iteration(model: &RobotModel, n_points: usize) -> WorkloadProfile {
    let threads = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    profile_mpc_iteration_threaded(model, n_points, threads)
}

/// [`profile_mpc_iteration`] with an explicit worker count for the
/// batched LQ measurement.
pub fn profile_mpc_iteration_threaded(
    model: &RobotModel,
    n_points: usize,
    threads: usize,
) -> WorkloadProfile {
    let mut ws = DynamicsWorkspace::new(model);
    let nv = model.nv();
    let dt = 0.01;
    let tau = vec![0.0; nv];
    let states: Vec<_> = (0..n_points)
        .map(|i| random_state(model, i as u64))
        .collect();

    // Derivatives-only share: time the four ΔFD evaluations of each
    // point's RK4 sensitivity chain directly, at the *actual* stage
    // states (each stage state is advanced with the ΔFD's own q̈
    // by-product, exactly as `rk4_step_with_sensitivity` does). Only the
    // ΔFD calls are inside the timed sections — the stage-state algebra
    // and the chain-rule products are excluded.
    let mut dfd = FdDerivatives::zeros(nv);
    let mut derivatives_s = 0.0;
    for s in &states {
        let mut timed_dfd = |ws: &mut DynamicsWorkspace, q: &[f64], qd: &[f64]| -> Vec<f64> {
            let t = Instant::now();
            rbd_dynamics::fd_derivatives_into(model, ws, q, qd, &tau, None, &mut dfd).expect("ΔFD");
            derivatives_s += t.elapsed().as_secs_f64();
            std::hint::black_box(&dfd);
            dfd.qdd.clone()
        };
        // Stage 1 at (q, q̇); stages 2-4 at the RK4 intermediate states.
        let k1a = timed_dfd(&mut ws, &s.q, &s.qd);
        let q2 = rbd_model::integrate_config(model, &s.q, &s.qd, dt / 2.0);
        let qd2: Vec<f64> = (0..nv).map(|i| s.qd[i] + dt / 2.0 * k1a[i]).collect();
        let k2a = timed_dfd(&mut ws, &q2, &qd2);
        let q3 = rbd_model::integrate_config(model, &s.q, &qd2, dt / 2.0);
        let qd3: Vec<f64> = (0..nv).map(|i| s.qd[i] + dt / 2.0 * k2a[i]).collect();
        let k3a = timed_dfd(&mut ws, &q3, &qd3);
        let q4 = rbd_model::integrate_config(model, &s.q, &qd3, dt);
        let qd4: Vec<f64> = (0..nv).map(|i| s.qd[i] + dt * k3a[i]).collect();
        timed_dfd(&mut ws, &q4, &qd4);
    }

    // Full LQ approximation (RK4 sensitivities per point), serial — on
    // the same zero-allocation `_into` kernel the batched path uses, so
    // the serial/batched comparison isolates the pool, not allocation
    // behavior. All buffers are pre-sized: steady state from call one.
    let mut sens = Rk4SensScratch::for_model(model);
    let mut q_next = vec![0.0; model.nq()];
    let mut qd_next = vec![0.0; nv];
    let mut jacs: Vec<StepJacobians> = (0..n_points).map(|_| StepJacobians::zeros(nv)).collect();
    let t = Instant::now();
    for (s, jac) in states.iter().zip(jacs.iter_mut()) {
        rk4_step_with_sensitivity_into(
            model,
            &mut ws,
            &mut sens,
            &s.q,
            &s.qd,
            &tau,
            dt,
            &mut q_next,
            &mut qd_next,
            jac,
        );
    }
    let lq_approx_s = t.elapsed().as_secs_f64();

    // Same LQ approximation, batched across the persistent worker pool
    // (the embarrassingly-parallel axis of Fig 13) on the
    // zero-allocation scratch-slot path; the first call warms the
    // buffers so the timed call measures the steady state an MPC loop
    // lives in.
    let mut batch = BatchEval::with_threads(model, threads)
        .with_point_flops(rbd_accel::ops::rk4_sens_point_flops(model));
    let traj: Vec<(Vec<f64>, Vec<f64>)> =
        states.iter().map(|s| (s.q.clone(), s.qd.clone())).collect();
    let us = vec![tau.clone(); n_points];
    let mut batched_jacs: Vec<StepJacobians> =
        (0..n_points).map(|_| StepJacobians::zeros(nv)).collect();
    let mut lq_scratch: Vec<LqScratch> = (0..batch.threads())
        .map(|_| LqScratch::for_model(model))
        .collect();
    lq_jacobians_batched(
        &mut batch,
        dt,
        &traj,
        &us,
        &mut batched_jacs,
        &mut lq_scratch,
    );
    let t = Instant::now();
    lq_jacobians_batched(
        &mut batch,
        dt,
        &traj,
        &us,
        &mut batched_jacs,
        &mut lq_scratch,
    );
    let lq_batch_s = t.elapsed().as_secs_f64();
    std::hint::black_box(&batched_jacs);

    // Serial backward sweep over the Jacobians (Riccati-like chain).
    let t = Instant::now();
    let nx = 2 * nv;
    let mut v = MatN::identity(nx);
    for j in jacs.iter().rev() {
        v = j.a.transpose().mul_mat(&v.mul_mat(&j.a));
        // Keep it bounded.
        let scale = v.max_abs().max(1.0);
        for i in 0..nx {
            for k in 0..nx {
                v[(i, k)] /= scale;
            }
        }
    }
    std::hint::black_box(&v);
    let solver_s = t.elapsed().as_secs_f64();

    // Rollout / bookkeeping.
    let t = Instant::now();
    for s in &states {
        let step = crate::integrator::rk4_step(model, &mut ws, &s.q, &s.qd, &tau, dt);
        std::hint::black_box(&step);
    }
    let other_s = t.elapsed().as_secs_f64();

    WorkloadProfile {
        lq_approx_s,
        derivatives_s,
        solver_s,
        other_s,
        lq_batch_s,
        batch_threads: batch.last_workers().max(1),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rbd_model::robots;

    #[test]
    fn lq_approximation_dominates() {
        // Fig 2c: the LQ approximation is the large parallelizable share.
        let m = robots::hyq();
        let p = profile_mpc_iteration(&m, 24);
        assert!(
            p.lq_fraction() > 0.4,
            "LQ fraction only {}",
            p.lq_fraction()
        );
        assert!(p.derivatives_fraction() > 0.1);
        // The four ΔFD stage evaluations are a strict subset of the LQ
        // work at the same states; allow a sliver of timing jitter.
        assert!(
            p.derivatives_s <= p.lq_approx_s * 1.1,
            "derivatives {} vs LQ {}",
            p.derivatives_s,
            p.lq_approx_s
        );
    }

    #[test]
    fn totals_are_consistent() {
        let m = robots::iiwa();
        let p = profile_mpc_iteration(&m, 8);
        let sum = p.lq_approx_s + p.solver_s + p.other_s;
        assert!((p.total_s() - sum).abs() < 1e-12);
        assert!(p.total_s() > 0.0);
        assert!(p.lq_batch_s > 0.0);
        assert!(p.batch_threads >= 1);
        assert!(p.total_batched_s() > 0.0);
    }

    #[test]
    fn batched_lq_not_catastrophically_slower() {
        // With 1 worker the batched path is the serial path plus
        // negligible dispatch; with more workers it should not regress
        // beyond scheduling noise.
        let m = robots::iiwa();
        let p = profile_mpc_iteration_threaded(&m, 32, 1);
        assert!(
            p.lq_batch_s < p.lq_approx_s * 3.0,
            "batched {} vs serial {}",
            p.lq_batch_s,
            p.lq_approx_s
        );
    }
}
