//! Iterative LQR trajectory optimizer — the paper's representative TO /
//! MPC consumer of batched dynamics and derivatives (Fig 1, Fig 2).
//!
//! Restricted to vector-space configuration models (`nq == nv`), which
//! covers the fixed-base arms the optimizer examples use.

use crate::integrator::{rk4_step_with_sensitivity_into, Rk4SensScratch, StepJacobians};
use rbd_dynamics::{aba_in_ws, bias_force_in_ws, BatchEval, DynamicsWorkspace, Rk4Stages};
use rbd_model::RobotModel;
use rbd_spatial::{MatN, VecN};
use std::time::Instant;

/// Per-executor scratch for the batched LQ approximation: one RK4
/// sensitivity scratch plus the (discarded) next-state output buffers.
/// Hold one per [`BatchEval`] executor and the whole batched LQ chain
/// ([`lq_jacobians_batched`]) runs without steady-state heap allocation
/// — proven end-to-end in `crates/trajopt/tests/zero_alloc.rs`.
#[derive(Debug, Clone, Default)]
pub struct LqScratch {
    /// Seconds this executor spent in its sampling points, accumulated
    /// over calls; the ΔFD part of it accumulates in `sens.dfd_s`.
    point_s: f64,
    sens: Rk4SensScratch,
    q_next: Vec<f64>,
    qd_next: Vec<f64>,
}

impl LqScratch {
    /// Scratch pre-sized for `model` (also grows lazily on first use).
    pub fn for_model(model: &RobotModel) -> Self {
        Self {
            point_s: 0.0,
            sens: Rk4SensScratch::for_model(model),
            q_next: vec![0.0; model.nq()],
            qd_next: vec![0.0; model.nv()],
        }
    }
}

/// The batched LQ approximation: evaluates the discrete step Jacobians
/// at every `(traj[k], us[k])` sampling point through `batch`'s worker
/// pool, writing into `jacs[k]`. The sampling points are independent
/// (Fig 2c/13), so this fans out across however many executors the
/// work gate engages — with **bit-identical results at any worker
/// count** — and performs zero steady-state heap allocation once
/// `jacs`/`scratch` are warm (one [`LqScratch`] per executor).
///
/// # Panics
/// Panics if `us`/`jacs` lengths differ, `traj` is shorter than `us`,
/// `scratch` has fewer slots than `batch.threads()`, or forward
/// dynamics fails at a sampling point.
pub fn lq_jacobians_batched(
    batch: &mut BatchEval,
    dt: f64,
    traj: &[(Vec<f64>, Vec<f64>)],
    us: &[Vec<f64>],
    jacs: &mut [StepJacobians],
    scratch: &mut [LqScratch],
) {
    assert_eq!(us.len(), jacs.len(), "us/jacs length mismatch");
    assert!(traj.len() >= us.len(), "trajectory shorter than controls");
    let ok: Result<(), std::convert::Infallible> =
        batch.for_each_with_scratch(us, jacs, scratch, |model, ws, s, k, u, jac| {
            let (q, qd) = &traj[k];
            let t = Instant::now();
            rk4_step_with_sensitivity_into(
                model,
                ws,
                &mut s.sens,
                q,
                qd,
                u,
                dt,
                &mut s.q_next,
                &mut s.qd_next,
                jac,
            );
            s.point_s += t.elapsed().as_secs_f64();
            Ok(())
        });
    ok.expect("infallible");
}

/// iLQR hyper-parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct IlqrOptions {
    /// Number of integration steps in the horizon.
    pub horizon: usize,
    /// Step length, seconds.
    pub dt: f64,
    /// Running weight on configuration error.
    pub w_q: f64,
    /// Running weight on velocity.
    pub w_v: f64,
    /// Running weight on control.
    pub w_u: f64,
    /// Terminal weight on configuration/velocity error.
    pub w_terminal: f64,
    /// Maximum outer iterations.
    pub max_iters: usize,
}

impl Default for IlqrOptions {
    fn default() -> Self {
        Self {
            horizon: 40,
            dt: 0.02,
            w_q: 2.0,
            w_v: 0.05,
            w_u: 1e-3,
            w_terminal: 60.0,
            max_iters: 30,
        }
    }
}

/// Result of an iLQR solve.
#[derive(Debug, Clone)]
pub struct IlqrResult {
    /// Cost after every accepted iteration (index 0 = initial rollout).
    pub cost_history: Vec<f64>,
    /// Optimized controls.
    pub us: Vec<Vec<f64>>,
    /// State trajectory `(q, q̇)` under the optimized controls.
    pub trajectory: Vec<(Vec<f64>, Vec<f64>)>,
    /// Whether the last step gained less than 1e-7 of the cost, or no step
    /// gained where the model predicted less than that; never at a
    /// non-finite cost.
    pub converged: bool,
    /// Wall time spent in the LQ approximation (dynamics+derivatives,
    /// the Fig 2c "parallelizable" share).
    pub lq_time_s: f64,
    /// The derivatives-of-dynamics share of `lq_time_s` (Fig 2c): each
    /// LQ pass's wall time scaled by the fraction of its per-point time
    /// the executors spent inside the ΔFD calls, both timed where the
    /// calls happen. With one executor this is the raw ΔFD time up to
    /// dispatch overhead; with several it stays a share of the pass's
    /// wall time. Never exceeds `lq_time_s`.
    pub derivatives_time_s: f64,
    /// Wall time in the backward Riccati solve (serial share).
    pub solver_time_s: f64,
    /// Wall time in forward rollouts.
    pub rollout_time_s: f64,
}

/// Per-solver state — the forward pass, the batch worker pool and every
/// Riccati scratch buffer — allocated once in [`Ilqr::new`] and reused
/// by every [`Ilqr::solve`].
#[derive(Debug)]
struct IlqrScratch<'m> {
    fwd: ForwardPass,
    batch: BatchEval<'m>,
    vx: VecN,
    vxx: MatN,
    vxx_a: MatN,
    vxx_b: MatN,
    qx: VecN,
    qu: VecN,
    qxx: MatN,
    quu: MatN,
    qux: MatN,
    quu_inv: MatN,
    l_s: MatN,
    d_s: VecN,
    tmp_nv: VecN,
    tmp_nx: VecN,
    tmp_nv_nx: MatN,
    tmp_nx_nx: MatN,
    cross: MatN,
    k_ff: Vec<VecN>,
    k_fb: Vec<MatN>,
    jacs: Vec<StepJacobians>,
    lq: Vec<LqScratch>,
}

impl<'m> IlqrScratch<'m> {
    fn new(model: &'m RobotModel, horizon: usize) -> Self {
        let nv = model.nv();
        let nx = 2 * nv;
        // The pool is sized to the host; BatchEval's estimated-FLOP work
        // gate (fed with the paper's RK4-point cost model) decides per
        // dispatch whether an LQ pass fans out.
        let batch =
            BatchEval::new(model).with_point_flops(rbd_accel::ops::rk4_sens_point_flops(model));
        let executors = batch.threads();
        Self {
            fwd: ForwardPass {
                traj: vec![(vec![0.0; model.nq()], vec![0.0; nv]); horizon + 1],
                us: vec![vec![0.0; nv]; horizon],
                new_traj: vec![(vec![0.0; model.nq()], vec![0.0; nv]); horizon + 1],
                new_us: vec![vec![0.0; nv]; horizon],
                stages: Rk4Stages::for_model(model, 1),
                dx: vec![0.0; nx],
                warm: false,
                ws: DynamicsWorkspace::new(model),
                rest: vec![0.0; nv],
            },
            batch,
            vx: VecN::zeros(nx),
            vxx: MatN::zeros(nx, nx),
            vxx_a: MatN::zeros(nx, nx),
            vxx_b: MatN::zeros(nx, nv),
            qx: VecN::zeros(nx),
            qu: VecN::zeros(nv),
            qxx: MatN::zeros(nx, nx),
            quu: MatN::zeros(nv, nv),
            qux: MatN::zeros(nv, nx),
            quu_inv: MatN::zeros(nv, nv),
            l_s: MatN::zeros(nv, nv),
            d_s: VecN::zeros(nv),
            tmp_nv: VecN::zeros(nv),
            tmp_nx: VecN::zeros(nx),
            tmp_nv_nx: MatN::zeros(nv, nx),
            tmp_nx_nx: MatN::zeros(nx, nx),
            cross: MatN::zeros(nx, nx),
            k_ff: (0..horizon).map(|_| VecN::zeros(nv)).collect(),
            k_fb: (0..horizon).map(|_| MatN::zeros(nv, nx)).collect(),
            jacs: (0..horizon).map(|_| StepJacobians::zeros(nv)).collect(),
            lq: (0..executors)
                .map(|_| LqScratch::for_model(model))
                .collect(),
        }
    }
}

/// The closed-loop forward pass: the nominal rollout, a candidate, the
/// RK4 stages that step the candidate, and one workspace for both the
/// stages' ABA ([`aba_in_ws`], the width-1 lane sweep) and the gravity
/// torque of the cold start.
#[derive(Debug)]
struct ForwardPass {
    traj: Vec<(Vec<f64>, Vec<f64>)>,
    us: Vec<Vec<f64>>,
    new_traj: Vec<(Vec<f64>, Vec<f64>)>,
    new_us: Vec<Vec<f64>>,
    stages: Rk4Stages,
    dx: Vec<f64>,
    /// Whether `us` holds the last solve's plan, which ended at a finite cost.
    warm: bool,
    ws: DynamicsWorkspace,
    /// q̇ = 0, for the gravity torque `g(q0)`.
    rest: Vec<f64>,
}

impl ForwardPass {
    /// Sets `us` to a solve's initial controls: when warm, the last plan
    /// shifted by one step with its last control repeated; when cold,
    /// gravity compensation `g(q0)` at every step.
    fn initial_controls(&mut self, model: &RobotModel, q0: &[f64]) {
        let n = self.us.len();
        if !self.warm {
            bias_force_in_ws(model, &mut self.ws, q0, &self.rest, None);
            for u in &mut self.us {
                u.copy_from_slice(&self.ws.tau);
            }
        } else if n >= 2 {
            self.us.rotate_left(1);
            let (head, last) = self.us.split_at_mut(n - 1);
            last[0].copy_from_slice(&head[n - 2]);
        }
    }

    /// Rolls the candidate out from `traj[0]` under the controls `us[k] +
    /// α·k_ff[k] + K_fb[k]·(x_k − traj[k])`, or `us[k]` without `gains`.
    fn run(&mut self, model: &RobotModel, dt: f64, gains: Option<(f64, &[VecN], &[MatN])>) {
        let nv = model.nv();
        let (traj, us, new_traj) = (&self.traj, &self.us, &mut self.new_traj);
        let (ws, stages, dx) = (&mut self.ws, &mut self.stages, &mut self.dx);
        new_traj[0].0.copy_from_slice(&traj[0].0);
        new_traj[0].1.copy_from_slice(&traj[0].1);
        for (k, u) in self.new_us.iter_mut().enumerate() {
            let (done, next) = new_traj.split_at_mut(k + 1);
            let (q, qd) = &done[k];
            if let Some((alpha, k_ff, k_fb)) = gains {
                for i in 0..nv {
                    dx[i] = q[i] - traj[k].0[i];
                    dx[nv + i] = qd[i] - traj[k].1[i];
                }
                k_fb[k].mul_slice_into(dx, u);
                for i in 0..nv {
                    u[i] += us[k][i] + alpha * k_ff[k][i];
                }
            } else {
                u.copy_from_slice(&us[k]);
            }
            for s in 0..4 {
                let (q_s, qd_s, k_s) = stages.point(model, s, q, qd, dt);
                aba_in_ws(model, ws, q_s, qd_s, u, None, k_s).expect("ABA");
            }
            let (q_next, qd_next) = &mut next[0];
            stages.finish(model, q, qd, dt, q_next, qd_next);
        }
    }
}

/// Levenberg–Marquardt schedule of the regularization `reg` added to
/// `Q_uu` (Tassa et al., IROS 2012): a solve starts at `REG_FLOOR`; each
/// failed backward pass or line search multiplies it by `REG_UP` up to
/// `REG_MAX`; each accepted step divides it by `REG_DOWN`, down to
/// `REG_FLOOR`.
const REG_UP: f64 = 10.0;
const REG_DOWN: f64 = 2.0;
const REG_FLOOR: f64 = 1e-6;
const REG_MAX: f64 = 1e10;
/// Relative cost-decrease convergence threshold.
const TOL: f64 = 1e-7;

/// The optimizer.
#[derive(Debug)]
pub struct Ilqr<'m> {
    model: &'m RobotModel,
    options: IlqrOptions,
    goal: Vec<f64>,
    scratch: IlqrScratch<'m>,
}

impl<'m> Ilqr<'m> {
    /// Creates an optimizer steering towards `q_goal` at rest; its first
    /// solve starts cold.
    ///
    /// # Panics
    /// Panics unless `model.nq() == model.nv()` (vector-space models).
    pub fn new(model: &'m RobotModel, q_goal: Vec<f64>, options: IlqrOptions) -> Self {
        assert_eq!(
            model.nq(),
            model.nv(),
            "iLQR example requires a vector-space configuration"
        );
        assert_eq!(q_goal.len(), model.nq());
        Self {
            model,
            options,
            goal: q_goal,
            scratch: IlqrScratch::new(model, options.horizon),
        }
    }

    /// Executors the most recent LQ dispatch engaged (1 = the work gate
    /// kept the batch inline on the caller; 0 before the first solve).
    pub fn lq_workers(&self) -> usize {
        self.scratch.batch.last_workers()
    }

    /// Runs the optimizer from `(q0, qd0)`. The initial controls are the
    /// last solve's plan shifted by one step (its last control repeated),
    /// the receding-horizon warm start; the first solve, and any solve
    /// after one that ended at a non-finite cost, starts instead from
    /// gravity compensation `g(q0)` at every step.
    ///
    /// The LQ approximation fans out across worker threads through
    /// [`BatchEval`] (the sampling points are independent, Fig 2c/13);
    /// the Riccati pass and the rollouts run serially on scratch
    /// preallocated in [`Ilqr::new`], so a warm solve allocates only its
    /// result.
    ///
    /// # Panics
    /// Panics if ABA fails along the way.
    pub fn solve(&mut self, q0: &[f64], qd0: &[f64]) -> IlqrResult {
        let (model, o, goal) = (self.model, self.options, &self.goal[..]);
        let nv = model.nv();
        let nx = 2 * nv;
        let IlqrScratch {
            fwd,
            batch,
            vx,
            vxx,
            vxx_a,
            vxx_b,
            qx,
            qu,
            qxx,
            quu,
            qux,
            quu_inv,
            l_s,
            d_s,
            tmp_nv,
            tmp_nx,
            tmp_nv_nx,
            tmp_nx_nx,
            cross,
            k_ff,
            k_fb,
            jacs,
            lq,
        } = &mut self.scratch;
        let (mut lq_t, mut deriv_t, mut solver_t, mut rollout_t) = (0.0, 0.0, 0.0, 0.0);

        let t0 = Instant::now();
        fwd.traj[0].0.copy_from_slice(q0);
        fwd.traj[0].1.copy_from_slice(qd0);
        fwd.initial_controls(model, q0);
        fwd.run(model, o.dt, None);
        std::mem::swap(&mut fwd.traj, &mut fwd.new_traj);
        std::mem::swap(&mut fwd.us, &mut fwd.new_us);
        rollout_t += t0.elapsed().as_secs_f64();
        let mut cost = stage_cost(&o, goal, nv, &fwd.traj, &fwd.us);
        let mut history = Vec::with_capacity(o.max_iters + 1);
        history.push(cost);
        let (mut converged, mut reg, mut linearize) = (false, REG_FLOOR, true);

        // An iteration that fails raises `reg` and reuses its LQ pass.
        for _ in 0..o.max_iters {
            // ---- LQ approximation (batched across sampling points,
            //      one workspace + scratch slot per executor; Fig 2c).
            //      Fully preallocated: zero steady-state allocation.
            for s in lq.iter_mut() {
                s.point_s = 0.0;
                s.sens.dfd_s = 0.0;
            }
            if linearize {
                let t = Instant::now();
                lq_jacobians_batched(batch, o.dt, &fwd.traj, &fwd.us, jacs, lq);
                let pass_s = t.elapsed().as_secs_f64();
                lq_t += pass_s;
                let (dfd_s, point_s) = lq
                    .iter()
                    .fold((0.0, 0.0), |(d, p), s| (d + s.sens.dfd_s, p + s.point_s));
                if point_s > 0.0 {
                    deriv_t += pass_s * dfd_s / point_s;
                }
            }

            // ---- Backward Riccati pass (serial, allocation-free).
            let t = Instant::now();
            vx.fill(0.0);
            vxx.fill(0.0);
            {
                let (qn, qdn) = fwd.traj.last().unwrap();
                for i in 0..nv {
                    vx[i] = o.w_terminal * (qn[i] - goal[i]);
                    vx[nv + i] = o.w_terminal * qdn[i];
                    vxx[(i, i)] = o.w_terminal;
                    vxx[(nv + i, nv + i)] = o.w_terminal;
                }
            }
            let mut backward_ok = true;
            // Cost decrease the quadratic model predicts at α = 1.
            let mut predicted = 0.0;
            for k in (0..o.horizon).rev() {
                let (q, qd) = &fwd.traj[k];
                let u = &fwd.us[k];
                let a = &jacs[k].a;
                let b = &jacs[k].b;

                // Q-function terms; the running-cost gradient/Hessian are
                // (block-)diagonal, so they fold in as updates instead of
                // materialized lx/lxx. Every `Xᵀ·Y` is a transposed-left
                // product, so no transpose is formed.
                a.tr_mul_vec_into(vx, qx);
                b.tr_mul_vec_into(vx, qu);
                for i in 0..nv {
                    qx[i] += o.w_q * (q[i] - goal[i]);
                    qx[nv + i] += o.w_v * qd[i];
                    qu[i] += o.w_u * u[i];
                }
                vxx.mul_mat_into(a, vxx_a);
                a.tr_mul_mat_into(vxx_a, qxx);
                vxx.mul_mat_into(b, vxx_b);
                b.tr_mul_mat_into(vxx_b, quu);
                for i in 0..nv {
                    qxx[(i, i)] += o.w_q;
                    qxx[(nv + i, nv + i)] += o.w_v;
                    quu[(i, i)] += o.w_u + reg;
                }
                b.tr_mul_mat_into(vxx_a, qux);

                if quu.inverse_spd_into(quu_inv, l_s, d_s).is_err() {
                    backward_ok = false;
                    break;
                }
                let kf = &mut k_ff[k];
                quu_inv.mul_vec_into(qu, kf);
                kf.scale(-1.0);
                predicted -= 0.5 * kf.dot(qu);
                let kb = &mut k_fb[k];
                quu_inv.mul_mat_into(qux, kb);
                kb.scale(-1.0);

                // Value update (into vx/vxx, which the Q terms no longer
                // read at this point).
                kb.tr_mul_vec_into(qu, tmp_nx);
                vx.copy_from(qx);
                *vx += &*tmp_nx;
                quu.mul_vec_into(&k_ff[k], tmp_nv);
                kb.tr_mul_vec_into(tmp_nv, tmp_nx);
                *vx += &*tmp_nx;
                qux.tr_mul_vec_into(&k_ff[k], tmp_nx);
                *vx += &*tmp_nx;

                quu.mul_mat_into(kb, tmp_nv_nx);
                kb.tr_mul_mat_into(tmp_nv_nx, tmp_nx_nx);
                vxx.copy_from(qxx);
                *vxx += &*tmp_nx_nx;
                qux.tr_mul_mat_into(kb, cross);
                for i in 0..nx {
                    for j in 0..nx {
                        vxx[(i, j)] += cross[(i, j)] + cross[(j, i)];
                    }
                }
            }
            solver_t += t.elapsed().as_secs_f64();

            // ---- Forward pass with line search (none after a failed backward pass).
            let t = Instant::now();
            let mut accepted = false;
            for &alpha in [1.0, 0.5, 0.25, 0.1, 0.03].iter().filter(|_| backward_ok) {
                fwd.run(model, o.dt, Some((alpha, k_ff, k_fb)));
                let new_cost = stage_cost(&o, goal, nv, &fwd.new_traj, &fwd.new_us);
                if new_cost < cost {
                    let rel = (cost - new_cost) / cost.max(1e-12);
                    std::mem::swap(&mut fwd.traj, &mut fwd.new_traj);
                    std::mem::swap(&mut fwd.us, &mut fwd.new_us);
                    cost = new_cost;
                    history.push(cost);
                    accepted = true;
                    converged = rel < TOL;
                    break;
                }
            }
            rollout_t += t.elapsed().as_secs_f64();
            linearize = accepted;
            if accepted {
                reg = (reg / REG_DOWN).max(REG_FLOOR);
            } else if backward_ok && predicted.abs() < TOL * cost {
                // No step improves and the model predicts nothing more to
                // gain: convergence, though only at a finite cost.
                converged = cost.is_finite();
            } else if reg < REG_MAX {
                reg *= REG_UP;
                continue;
            }
            if converged || !accepted {
                break;
            }
        }

        fwd.warm = cost.is_finite();
        IlqrResult {
            cost_history: history,
            us: fwd.us.clone(),
            trajectory: fwd.traj.clone(),
            converged,
            lq_time_s: lq_t,
            derivatives_time_s: deriv_t,
            solver_time_s: solver_t,
            rollout_time_s: rollout_t,
        }
    }
}

/// Quadratic tracking cost of a trajectory/control sequence.
fn stage_cost(
    o: &IlqrOptions,
    goal: &[f64],
    nv: usize,
    traj: &[(Vec<f64>, Vec<f64>)],
    us: &[Vec<f64>],
) -> f64 {
    let mut c = 0.0;
    for (k, u) in us.iter().enumerate() {
        let (q, qd) = &traj[k];
        for i in 0..nv {
            let e = q[i] - goal[i];
            c += 0.5 * o.w_q * e * e + 0.5 * o.w_v * qd[i] * qd[i] + 0.5 * o.w_u * u[i] * u[i];
        }
    }
    let (qn, qdn) = traj.last().unwrap();
    for i in 0..nv {
        let e = qn[i] - goal[i];
        c += 0.5 * o.w_terminal * (e * e + qdn[i] * qdn[i]);
    }
    c
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::integrator::rk4_step;
    use rbd_model::{robots, SplitMix64};

    #[test]
    fn cost_decreases_monotonically() {
        let model = robots::serial_chain(2);
        let goal = vec![0.6, -0.4];
        let mut ilqr = Ilqr::new(
            &model,
            goal,
            IlqrOptions {
                horizon: 25,
                max_iters: 12,
                ..IlqrOptions::default()
            },
        );
        let q0 = vec![0.0; 2];
        let qd0 = vec![0.0; 2];
        let r = ilqr.solve(&q0, &qd0);
        assert!(r.cost_history.len() >= 2, "no accepted iteration");
        for w in r.cost_history.windows(2) {
            assert!(w[1] <= w[0] + 1e-12);
        }
        assert!(*r.cost_history.last().unwrap() < 0.5 * r.cost_history[0]);
    }

    #[test]
    fn reaches_goal_neighborhood() {
        let model = robots::serial_chain(2);
        let goal = vec![0.3, 0.2];
        let mut ilqr = Ilqr::new(
            &model,
            goal.clone(),
            IlqrOptions {
                horizon: 35,
                max_iters: 25,
                w_terminal: 150.0,
                ..IlqrOptions::default()
            },
        );
        let r = ilqr.solve(&[0.0; 2], &[0.0; 2]);
        let (qn, _) = r.trajectory.last().unwrap();
        for i in 0..2 {
            assert!(
                (qn[i] - goal[i]).abs() < 0.15,
                "final q[{i}] = {} vs goal {}",
                qn[i],
                goal[i]
            );
        }
    }

    #[test]
    fn raised_regularisation_rescues_a_long_horizon() {
        // iiwa from neutral to the Fig 2c goal over 64 steps: at the
        // starting `reg` every α of the first line search fails, and with
        // a fixed `reg` the solve stopped there.
        let model = robots::iiwa();
        let q0 = model.neutral_config();
        let goal = q0
            .iter()
            .enumerate()
            .map(|(i, q)| q + 0.5 - 0.15 * i as f64)
            .collect();
        let options = IlqrOptions {
            horizon: 64,
            dt: 0.01,
            max_iters: 8,
            ..IlqrOptions::default()
        };
        let r = Ilqr::new(&model, goal, options).solve(&q0, &[0.0; 7]);
        let h = &r.cost_history;
        assert!(h.len() >= 3, "{h:?}");
        assert!(h[h.len() - 1] < 0.5 * h[0], "{h:?}");
        assert!(!r.converged, "{h:?}");
    }

    #[test]
    fn timing_breakdown_populated() {
        let model = robots::serial_chain(2);
        let mut ilqr = Ilqr::new(
            &model,
            vec![0.1, 0.1],
            IlqrOptions {
                horizon: 10,
                max_iters: 3,
                ..IlqrOptions::default()
            },
        );
        let r = ilqr.solve(&[0.0; 2], &[0.0; 2]);
        assert!(r.lq_time_s > 0.0);
        assert!(
            r.derivatives_time_s > 0.0 && r.derivatives_time_s <= r.lq_time_s,
            "derivatives {} s vs LQ {} s",
            r.derivatives_time_s,
            r.lq_time_s
        );
        assert!(r.solver_time_s > 0.0);
        assert!(r.rollout_time_s > 0.0);
    }

    #[test]
    fn batched_lq_pass_equals_serial_loop() {
        // Floating base (HyQ, quaternion joint) and fixed base (iiwa),
        // 11 points: the 4-executor run splits them unevenly.
        for model in [robots::hyq(), robots::iiwa()] {
            let nv = model.nv();
            let dt = 0.01;
            let traj: Vec<(Vec<f64>, Vec<f64>)> = (0..11)
                .map(|i| {
                    let s = rbd_model::random_state(&model, i);
                    (s.q, s.qd)
                })
                .collect();
            let us: Vec<Vec<f64>> = (0..11)
                .map(|k| (0..nv).map(|i| 0.3 - 0.05 * (k + i) as f64).collect())
                .collect();

            let mut ws = DynamicsWorkspace::new(&model);
            let mut sens = Rk4SensScratch::for_model(&model);
            let (mut q_next, mut qd_next) = (Vec::new(), Vec::new());
            let serial: Vec<StepJacobians> = traj
                .iter()
                .zip(&us)
                .map(|((q, qd), u)| {
                    let mut jac = StepJacobians::zeros(nv);
                    rk4_step_with_sensitivity_into(
                        &model,
                        &mut ws,
                        &mut sens,
                        q,
                        qd,
                        u,
                        dt,
                        &mut q_next,
                        &mut qd_next,
                        &mut jac,
                    );
                    jac
                })
                .collect();

            for threads in [1, 4] {
                // A huge per-point cost makes the work gate engage every
                // executor.
                let mut batch = BatchEval::with_threads(&model, threads).with_point_flops(1e12);
                let mut lq: Vec<LqScratch> =
                    (0..threads).map(|_| LqScratch::for_model(&model)).collect();
                let mut jacs: Vec<StepJacobians> =
                    (0..11).map(|_| StepJacobians::zeros(nv)).collect();
                lq_jacobians_batched(&mut batch, dt, &traj, &us, &mut jacs, &mut lq);
                assert_eq!(batch.last_workers(), threads);
                for (k, (b, s)) in jacs.iter().zip(&serial).enumerate() {
                    assert!(
                        b.a == s.a && b.b == s.b,
                        "{} point {k}, {threads} executor(s)",
                        model.name()
                    );
                }
            }
        }
    }

    #[test]
    #[should_panic]
    fn rejects_quaternion_models() {
        let model = robots::hyq();
        let _ = Ilqr::new(&model, vec![0.0; 18], IlqrOptions::default());
    }

    /// ∞-norm distance from `q` to `goal`, NaN if any entry is NaN.
    fn goal_error(q: &[f64], goal: &[f64]) -> f64 {
        q.iter()
            .zip(goal)
            .map(|(a, b)| (a - b).abs())
            .fold(0.0, |m, e| if e.is_nan() || e > m { e } else { m })
    }

    #[test]
    fn closed_loop_reaches_goal() {
        // Receding horizon: re-solve every tick, apply the first control.
        let model = robots::serial_chain(2);
        let goal = vec![0.4, -0.3];
        let options = IlqrOptions {
            horizon: 20,
            max_iters: 6,
            dt: 0.02,
            w_terminal: 120.0,
            ..IlqrOptions::default()
        };
        let mut ilqr = Ilqr::new(&model, goal.clone(), options);
        let mut ws = DynamicsWorkspace::new(&model);
        let (mut q, mut qd) = (vec![0.0; 2], vec![0.0; 2]);
        for _ in 0..25 {
            let r = ilqr.solve(&q, &qd);
            (q, qd) = rk4_step(&model, &mut ws, &q, &qd, &r.us[0], options.dt);
        }
        let err = goal_error(&q, &goal);
        assert!(
            err < 0.2,
            "closed loop did not approach the goal: err {err}"
        );
    }

    #[test]
    fn closed_loop_beats_open_loop_under_disturbance() {
        // Apply the first tick's plan open-loop vs re-planning: with a
        // velocity disturbance injected mid-run, MPC ends closer.
        let model = robots::serial_chain(2);
        let goal = vec![0.5, 0.2];
        let opts = IlqrOptions {
            horizon: 20,
            max_iters: 6,
            dt: 0.02,
            w_terminal: 120.0,
            ..IlqrOptions::default()
        };

        // Open loop: one solve, roll out its controls with a disturbance.
        let mut solver = Ilqr::new(&model, goal.clone(), opts);
        let sol = solver.solve(&[0.0, 0.0], &[0.0, 0.0]);
        let mut ws = DynamicsWorkspace::new(&model);
        let (mut q, mut qd) = (vec![0.0, 0.0], vec![0.0, 0.0]);
        for (k, u) in sol.us.iter().enumerate().take(20) {
            if k == 8 {
                qd[0] += 1.5; // kick
            }
            let (qn, qdn) = rk4_step(&model, &mut ws, &q, &qd, u, opts.dt);
            q = qn;
            qd = qdn;
        }
        let open_err = goal_error(&q, &goal);

        // Closed loop with the same kick.
        let mut qc = vec![0.0, 0.0];
        let mut qdc = vec![0.0, 0.0];
        for k in 0..20 {
            if k == 8 {
                qdc[0] += 1.5;
            }
            let sol = solver.solve(&qc, &qdc);
            let u = sol.us[0].clone();
            let (qn, qdn) = rk4_step(&model, &mut ws, &qc, &qdc, &u, opts.dt);
            qc = qn;
            qdc = qdn;
        }
        let closed_err = goal_error(&qc, &goal);

        assert!(
            closed_err < open_err + 1e-9,
            "closed {closed_err} vs open {open_err}"
        );
    }

    #[test]
    fn trajectory_is_the_plant_rollout_of_the_controls() {
        // The planner's rollout and the plant integrate the same bits:
        // each returned state is `rk4_step` of the previous one under
        // the returned control, from the requested start. Three solves
        // per solver, so stale or misswapped buffers would show.
        // `max_iters: 0` returns the initial controls alone: gravity
        // compensation `g(q0)` on the first solve, then the last plan
        // shifted by one step with its last control repeated. The first
        // start is off the upright pose, where `g` vanishes.
        let iiwa = robots::iiwa();
        let q0 = iiwa.neutral_config();
        let goal = q0
            .iter()
            .enumerate()
            .map(|(i, q)| q + 0.5 - 0.15 * i as f64);
        let fig2c = IlqrOptions {
            horizon: 20,
            dt: 0.02,
            max_iters: 8,
            ..IlqrOptions::default()
        };
        let chain = robots::serial_chain(2);
        let chain_opts = IlqrOptions {
            horizon: 20,
            max_iters: 6,
            w_terminal: 120.0,
            ..IlqrOptions::default()
        };
        let cases = [
            (&iiwa, goal.collect::<Vec<_>>(), fig2c, q0),
            (&chain, vec![0.6, -0.4], chain_opts, vec![0.1, 0.0]),
        ];
        let bits = |(q, qd): &(Vec<f64>, Vec<f64>)| -> Vec<u64> {
            q.iter().chain(qd).map(|x| x.to_bits()).collect()
        };
        let us_bits =
            |us: &[Vec<f64>]| -> Vec<u64> { us.concat().iter().map(|x| x.to_bits()).collect() };
        for (model, goal, options, q0) in cases {
            let mut ws = DynamicsWorkspace::new(model);
            let qd0 = vec![0.0; model.nv()];
            for max_iters in [0, options.max_iters] {
                let options = IlqrOptions {
                    max_iters,
                    ..options
                };
                let mut ilqr = Ilqr::new(model, goal.clone(), options);
                let mut last: Option<Vec<Vec<f64>>> = None;
                for shift in [0.05, 0.0, -0.1] {
                    let q_start: Vec<f64> = q0.iter().map(|q| q + shift).collect();
                    let r = ilqr.solve(&q_start, &qd0);
                    if max_iters == 0 {
                        let initial = match last {
                            None => {
                                bias_force_in_ws(model, &mut ws, &q_start, &qd0, None);
                                vec![ws.tau.clone(); options.horizon]
                            }
                            Some(us) => [&us[1..], &us[us.len() - 1..]].concat(),
                        };
                        assert!(initial.concat().iter().any(|&u| u != 0.0));
                        assert_eq!(us_bits(&r.us), us_bits(&initial), "{}", model.name());
                    }
                    last = Some(r.us.clone());
                    assert_eq!(
                        r.cost_history.len() > 1,
                        max_iters > 0,
                        "accepted iterations"
                    );
                    assert_eq!(r.trajectory.len(), options.horizon + 1);
                    assert_eq!(r.trajectory[0], (q_start, qd0.clone()));
                    for (k, u) in r.us.iter().enumerate() {
                        let (q, qd) = &r.trajectory[k];
                        let next = rk4_step(model, &mut ws, q, qd, u, options.dt);
                        assert_eq!(
                            bits(&next),
                            bits(&r.trajectory[k + 1]),
                            "{} step {k} differs from rk4_step",
                            model.name()
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn horizon_40_closed_loop_stays_finite() {
        // The `IlqrOptions` default horizon on a seeded iiwa episode.
        // From zero initial controls, ticks 1 and 2 ended at a NaN cost
        // after no accepted iteration: the free-fall rollout diverged.
        let model = robots::iiwa();
        let mut rng = SplitMix64::new(1000);
        let mut draw = |range: f64| -> Vec<f64> {
            let neutral = model.neutral_config();
            neutral
                .iter()
                .map(|q| q + range * rng.next_symmetric())
                .collect()
        };
        let (goal, mut q) = (draw(0.8), draw(0.3));
        let mut qd = vec![0.0; model.nv()];
        let options = IlqrOptions {
            horizon: 40,
            dt: 0.02,
            max_iters: 8,
            ..IlqrOptions::default()
        };
        let mut ilqr = Ilqr::new(&model, goal, options);
        let mut ws = DynamicsWorkspace::new(&model);
        for tick in 0..3 {
            let r = ilqr.solve(&q, &qd);
            let h = &r.cost_history;
            assert!(h.iter().all(|c| c.is_finite()), "tick {tick}: {h:?}");
            assert!(h.len() >= 2, "tick {tick}: no accepted iteration");
            (q, qd) = rk4_step(&model, &mut ws, &q, &qd, &r.us[0], options.dt);
        }
    }
}
