//! Sampling-based MPC: Model Predictive Path Integral control (MPPI,
//! Williams et al.) on top of the K-lane lockstep rollout kernels — the
//! throughput-bound scenario class the lane SoA path unlocks.
//!
//! One MPPI iteration rolls out `N` perturbed control sequences
//! (`u + δu`, `δu ~ N(0, σ²)`) over a horizon, scores each trajectory
//! with a quadratic tracking cost, and blends the perturbations with
//! softmax weights `w_k ∝ exp(−(J_k − J_min)/λ)`. The rollouts are
//! independent, so they batch two ways at once:
//!
//! * **across lanes** — groups of [`rbd_dynamics::LANE_WIDTH`] samples
//!   sweep the tree in lockstep through
//!   [`rbd_dynamics::rk4_rollout_lanes_into`] (idle SIMD lanes become
//!   per-sample throughput);
//! * **across workers** — lane groups are fanned over the persistent
//!   [`BatchEval`] pool via `for_each_lane_groups`, gated by the
//!   `rbd_accel::ops::rk4_rollout_point_flops` work model.
//!
//! The lane kernel is the only rollout path. When the sample count is
//! not a multiple of the lane width, the last, short group fills its
//! spare lanes with copies of its first sample and scores only its real
//! samples. Each lane's trajectory depends only on that lane's inputs,
//! so an MPPI iteration produces **exactly the same trajectory costs at
//! any worker count** — pinned by the tests below — and padding with a
//! real sample cannot add a failure the real samples do not have. The
//! dispatch chain performs zero steady-state heap allocation
//! (`tests/zero_alloc.rs`).
//!
//! Noise is drawn from a deterministic SplitMix64/Box-Muller stream, so
//! iterations are reproducible across runs and hosts.

use rbd_dynamics::{
    lanes::LaneWorkspace, rk4_rollout_lanes_into, BatchEval, LaneRolloutScratch, LANE_WIDTH,
};
use rbd_model::{RobotModel, SplitMix64};
use std::time::Instant;

/// Options of an MPPI controller.
#[derive(Debug, Clone)]
pub struct MppiOptions {
    /// Rollout horizon (steps per sample).
    pub horizon: usize,
    /// Integration step of the RK4 rollouts, seconds.
    pub dt: f64,
    /// Number of perturbed control sequences per iteration.
    pub samples: usize,
    /// Softmax temperature `λ` (smaller = greedier blending).
    pub lambda: f64,
    /// Standard deviation of the control perturbations.
    pub sigma: f64,
    /// Quadratic stage-cost weight on the configuration error.
    pub w_q: f64,
    /// Quadratic stage-cost weight on the velocity.
    pub w_qd: f64,
    /// Quadratic stage-cost weight on the control.
    pub w_u: f64,
    /// Noise-stream seed (iterations are deterministic given the seed).
    pub seed: u64,
}

impl Default for MppiOptions {
    fn default() -> Self {
        Self {
            horizon: 8,
            dt: 0.01,
            samples: 64,
            lambda: 30.0,
            sigma: 0.5,
            w_q: 10.0,
            w_qd: 0.1,
            w_u: 1e-3,
            seed: 1,
        }
    }
}

/// Outcome (and wall-clock breakdown) of one MPPI iteration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MppiStep {
    /// Best sampled trajectory cost this iteration.
    pub best_cost: f64,
    /// Softmax-weighted mean cost of the finite samples (`∞` if none).
    pub mean_cost: f64,
    /// Effective sample size `(Σw)²/Σw²` of the softmax weights; samples
    /// with a non-finite cost weigh 0, so this is 0 if none is finite.
    pub effective_samples: f64,
    /// Samples whose trajectory cost is not finite (diverged rollouts);
    /// they get zero weight.
    pub nonfinite_samples: usize,
    /// Time drawing the perturbation noise, seconds.
    pub sample_s: f64,
    /// Time rolling out + scoring all samples (the lane-batched,
    /// pool-dispatched phase), seconds.
    pub rollout_s: f64,
    /// Time blending the control update, seconds.
    pub update_s: f64,
    /// Executors the work gate engaged for the rollout phase.
    pub batch_threads: usize,
}

/// Per-executor scratch of the rollout phase: lane workspace + lane
/// rollout scratch + the trajectory/control staging buffers.
#[derive(Debug)]
pub struct MppiScratch {
    lws: LaneWorkspace<LANE_WIDTH>,
    lane_rs: LaneRolloutScratch,
    /// Lane-major perturbed controls of the current group.
    u_buf: Vec<f64>,
    /// Lane-major initial states of the current group.
    q0_buf: Vec<f64>,
    qd0_buf: Vec<f64>,
    /// Lane-major trajectories of the current group.
    q_traj: Vec<f64>,
    qd_traj: Vec<f64>,
}

impl MppiScratch {
    /// Scratch sized for `model` at the given horizon.
    pub fn for_model(model: &RobotModel, horizon: usize) -> Self {
        let (nq, nv) = (model.nq(), model.nv());
        Self {
            lws: LaneWorkspace::new(model),
            lane_rs: LaneRolloutScratch::for_model(model, LANE_WIDTH),
            u_buf: vec![0.0; LANE_WIDTH * horizon * nv],
            q0_buf: vec![0.0; LANE_WIDTH * nq],
            qd0_buf: vec![0.0; LANE_WIDTH * nv],
            q_traj: vec![0.0; LANE_WIDTH * (horizon + 1) * nq],
            qd_traj: vec![0.0; LANE_WIDTH * (horizon + 1) * nv],
        }
    }
}

/// An MPPI controller bound to a model: owns the nominal control
/// sequence, the noise stream, the persistent batch pool and one
/// [`MppiScratch`] per executor. Construct once, call
/// [`Mppi::iterate`] per control tick — zero steady-state allocation.
pub struct Mppi<'m> {
    model: &'m RobotModel,
    opts: MppiOptions,
    batch: BatchEval<'m>,
    scratch: Vec<MppiScratch>,
    /// Nominal control sequence, `[step][nv]` flat.
    nominal: Vec<f64>,
    /// Perturbations of the current iteration, `[sample][step][nv]`.
    noise: Vec<f64>,
    /// Trajectory cost per sample.
    costs: Vec<f64>,
    /// Softmax weights per sample.
    weights: Vec<f64>,
    /// Sample indices (the `items` of the lane-group dispatch).
    sample_ids: Vec<usize>,
    /// Tracking target configuration.
    q_goal: Vec<f64>,
    rng: SplitMix64,
}

impl std::fmt::Debug for Mppi<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Mppi")
            .field("model", &self.model.name())
            .field("samples", &self.opts.samples)
            .field("horizon", &self.opts.horizon)
            .field("threads", &self.batch.threads())
            .finish()
    }
}

impl<'m> Mppi<'m> {
    /// Controller with an explicit executor count (`0`/`1` = serial).
    /// The tracking target defaults to the model's neutral
    /// configuration; override with [`Mppi::set_goal`].
    pub fn with_threads(model: &'m RobotModel, opts: MppiOptions, threads: usize) -> Self {
        let nv = model.nv();
        let horizon = opts.horizon;
        let samples = opts.samples;
        let batch = BatchEval::with_threads(model, threads)
            .with_point_flops(rbd_accel::ops::rk4_rollout_point_flops(model, horizon));
        let scratch = (0..batch.threads())
            .map(|_| MppiScratch::for_model(model, horizon))
            .collect();
        let rng = SplitMix64::new(opts.seed);
        Self {
            model,
            batch,
            scratch,
            nominal: vec![0.0; horizon * nv],
            noise: vec![0.0; samples * horizon * nv],
            costs: vec![0.0; samples],
            weights: vec![0.0; samples],
            sample_ids: (0..samples).collect(),
            q_goal: model.neutral_config(),
            rng,
            opts,
        }
    }

    /// Controller using all available host parallelism.
    pub fn new(model: &'m RobotModel, opts: MppiOptions) -> Self {
        let threads = std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1);
        Self::with_threads(model, opts, threads)
    }

    /// Sets the tracking target configuration.
    ///
    /// # Panics
    /// Panics on dimension mismatch.
    pub fn set_goal(&mut self, q_goal: &[f64]) {
        assert_eq!(q_goal.len(), self.model.nq(), "goal dimension");
        self.q_goal.copy_from_slice(q_goal);
    }

    /// The nominal control sequence (`[step][nv]` flat).
    pub fn nominal(&self) -> &[f64] {
        &self.nominal
    }

    /// Trajectory costs of the most recent iteration, per sample.
    pub fn costs(&self) -> &[f64] {
        &self.costs
    }

    /// The controller options.
    pub fn options(&self) -> &MppiOptions {
        &self.opts
    }

    /// One MPPI iteration from state `(q0, q̇0)`: sample, roll out (lane
    /// groups over the worker pool), score, and blend the nominal
    /// controls. Deterministic given the seed; zero steady-state heap
    /// allocation.
    ///
    /// # Panics
    /// Panics on dimension mismatches or if a rollout hits a singular
    /// joint-space block (physically impossible for positive-mass
    /// models).
    pub fn iterate(&mut self, q0: &[f64], qd0: &[f64]) -> MppiStep {
        let model = self.model;
        let (nq, nv) = (model.nq(), model.nv());
        assert_eq!(q0.len(), nq, "q0 dimension");
        assert_eq!(qd0.len(), nv, "qd0 dimension");
        let horizon = self.opts.horizon;
        let sigma = self.opts.sigma;

        // Phase 1: deterministic Gaussian perturbations (Box-Muller over
        // SplitMix64). Sample 0 always carries zero perturbation — the
        // nominal itself is evaluated every iteration, so when every
        // perturbation only hurts, the softmax concentrates on δu = 0
        // and the blended update cannot random-walk away from a good
        // nominal (the standard elite-retention guard of practical MPPI
        // implementations).
        let t = Instant::now();
        let mut i = 0;
        while i + 1 < self.noise.len() {
            let (a, b) = gauss_pair(&mut self.rng);
            self.noise[i] = sigma * a;
            self.noise[i + 1] = sigma * b;
            i += 2;
        }
        if i < self.noise.len() {
            let (a, _) = gauss_pair(&mut self.rng);
            self.noise[i] = sigma * a;
        }
        let hn = (horizon * nv).min(self.noise.len());
        self.noise[..hn].fill(0.0);
        let sample_s = t.elapsed().as_secs_f64();

        // Phase 2: lane-batched rollouts + scoring over the pool.
        let t = Instant::now();
        let nominal = &self.nominal;
        let noise = &self.noise;
        let q_goal = &self.q_goal;
        let opts = &self.opts;
        let r: Result<(), std::convert::Infallible> = self.batch.for_each_lane_groups(
            LANE_WIDTH,
            &self.sample_ids,
            &mut self.costs,
            &mut self.scratch,
            |model, _, sc, _start, group, group_costs| {
                roll_group(
                    model,
                    sc,
                    opts,
                    q0,
                    qd0,
                    nominal,
                    noise,
                    q_goal,
                    group,
                    group_costs,
                );
                Ok(())
            },
        );
        r.expect("infallible");
        let rollout_s = t.elapsed().as_secs_f64();
        let batch_threads = self.batch.last_workers();

        // Phase 3: softmax blend of the perturbations. A sample with a
        // non-finite cost (a diverged rollout) gets zero weight and is
        // left out of the blend; if no sample is finite the nominal is
        // left unchanged.
        let t = Instant::now();
        let beta = self.costs.iter().copied().fold(f64::INFINITY, f64::min);
        let lambda = self.opts.lambda.max(1e-12);
        let mut eta = 0.0;
        let mut sq = 0.0;
        let mut nonfinite_samples = 0;
        for (w, &c) in self.weights.iter_mut().zip(&self.costs) {
            *w = if c.is_finite() {
                (-(c - beta) / lambda).exp()
            } else {
                nonfinite_samples += 1;
                0.0
            };
            eta += *w;
            sq += *w * *w;
        }
        let mut mean_cost = f64::INFINITY;
        if eta > 0.0 {
            mean_cost = 0.0;
            for (k, (w, &c)) in self.weights.iter_mut().zip(&self.costs).enumerate() {
                if !c.is_finite() {
                    continue;
                }
                *w /= eta;
                mean_cost += *w * c;
                let dk = &self.noise[k * horizon * nv..(k + 1) * horizon * nv];
                for (u, d) in self.nominal.iter_mut().zip(dk) {
                    *u += *w * d;
                }
            }
        }
        let update_s = t.elapsed().as_secs_f64();

        MppiStep {
            best_cost: beta,
            mean_cost,
            effective_samples: if sq > 0.0 { eta * eta / sq } else { 0.0 },
            nonfinite_samples,
            sample_s,
            rollout_s,
            update_s,
            batch_threads,
        }
    }
}

/// One standard-normal pair via Box-Muller (deterministic given the
/// stream state; the log argument is clamped away from zero).
fn gauss_pair(rng: &mut SplitMix64) -> (f64, f64) {
    let u1 = rng.next_f64().max(1e-300);
    let u2 = rng.next_f64();
    let r = (-2.0 * u1.ln()).sqrt();
    let th = 2.0 * std::f64::consts::PI * u2;
    (r * th.cos(), r * th.sin())
}

/// Quadratic tracking cost of one rolled-out sample: summed over steps
/// `1..=horizon`, `w_q·‖q_t − q_goal‖² + w_qd·‖q̇_t‖²` plus
/// `w_u·‖u_t‖²` over the applied controls. Configuration error is
/// componentwise over the `q` coordinates — a synthetic benchmark cost
/// (quaternion coordinates are compared directly).
fn trajectory_cost(
    opts: &MppiOptions,
    nq: usize,
    nv: usize,
    q_goal: &[f64],
    q_traj: &[f64],
    qd_traj: &[f64],
    u: &[f64],
) -> f64 {
    let mut cost = 0.0;
    for step in 1..=opts.horizon {
        let q = &q_traj[step * nq..(step + 1) * nq];
        let qd = &qd_traj[step * nv..(step + 1) * nv];
        let mut eq = 0.0;
        for (a, g) in q.iter().zip(q_goal) {
            let d = a - g;
            eq += d * d;
        }
        let mut ev = 0.0;
        for v in qd {
            ev += v * v;
        }
        cost += opts.w_q * eq + opts.w_qd * ev;
    }
    let mut eu = 0.0;
    for x in u {
        eu += x * x;
    }
    cost + opts.w_u * eu
}

/// Rolls out one lane group through the lockstep lane kernel and
/// scores each sample. A short (last) group fills its spare lanes with
/// copies of its first sample; their costs are discarded. Shared by
/// every executor.
#[allow(clippy::too_many_arguments)] // executor context + iteration inputs + group slices
fn roll_group(
    model: &RobotModel,
    sc: &mut MppiScratch,
    opts: &MppiOptions,
    q0: &[f64],
    qd0: &[f64],
    nominal: &[f64],
    noise: &[f64],
    q_goal: &[f64],
    group: &[usize],
    group_costs: &mut [f64],
) {
    let (nq, nv) = (model.nq(), model.nv());
    let horizon = opts.horizon;
    let hn = horizon * nv;
    // Pack the perturbed controls + initial states and sweep all lanes
    // in lockstep.
    for l in 0..LANE_WIDTH {
        let k = group.get(l).copied().unwrap_or(group[0]);
        let dst = &mut sc.u_buf[l * hn..(l + 1) * hn];
        for (u, (n, d)) in dst
            .iter_mut()
            .zip(nominal.iter().zip(&noise[k * hn..(k + 1) * hn]))
        {
            *u = n + d;
        }
        sc.q0_buf[l * nq..(l + 1) * nq].copy_from_slice(q0);
        sc.qd0_buf[l * nv..(l + 1) * nv].copy_from_slice(qd0);
    }
    rk4_rollout_lanes_into(
        model,
        &mut sc.lws,
        &mut sc.lane_rs,
        &sc.q0_buf,
        &sc.qd0_buf,
        &sc.u_buf,
        horizon,
        opts.dt,
        &mut sc.q_traj,
        &mut sc.qd_traj,
    )
    .expect("lane rollout");
    for (l, c) in group_costs.iter_mut().enumerate() {
        *c = trajectory_cost(
            opts,
            nq,
            nv,
            q_goal,
            &sc.q_traj[l * (horizon + 1) * nq..(l + 1) * (horizon + 1) * nq],
            &sc.qd_traj[l * (horizon + 1) * nv..(l + 1) * (horizon + 1) * nv],
            &sc.u_buf[l * hn..(l + 1) * hn],
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rbd_model::robots;

    #[test]
    fn costs_identical_at_any_lane_and_worker_count() {
        // The whole iteration — lane groups, padded remainder, pool
        // dispatch — must produce identical costs and identical control
        // updates for any executor count. 10 samples → two full lane
        // groups + a remainder of 2 padded to the lane width.
        let model = robots::hyq();
        let opts = MppiOptions {
            samples: 10,
            horizon: 3,
            ..Default::default()
        };
        let q0 = model.neutral_config();
        let qd0 = vec![0.05; model.nv()];

        let mut reference: Option<(Vec<f64>, Vec<f64>)> = None;
        for threads in [0, 1, 2, 4] {
            let mut mppi = Mppi::with_threads(&model, opts.clone(), threads);
            let step = mppi.iterate(&q0, &qd0);
            assert!(step.best_cost.is_finite());
            match &reference {
                None => reference = Some((mppi.costs().to_vec(), mppi.nominal().to_vec())),
                Some((costs, nominal)) => {
                    assert_eq!(mppi.costs(), &costs[..], "{threads} threads");
                    assert_eq!(mppi.nominal(), &nominal[..], "{threads} threads");
                }
            }
        }
    }

    #[test]
    fn iterations_reduce_tracking_cost() {
        // Pose-holding under gravity: MPPI must beat the passive
        // (zero-control) rollout by drifting the nominal toward gravity
        // compensation. The noise stream is seeded, so the trajectory of
        // best costs is fully deterministic.
        let model = robots::iiwa();
        let opts = MppiOptions {
            samples: 32,
            horizon: 10,
            dt: 0.02,
            sigma: 0.5,
            lambda: 30.0,
            ..Default::default()
        };
        let mut mppi = Mppi::with_threads(&model, opts, 2);
        let q0: Vec<f64> = model.neutral_config().iter().map(|x| x + 0.4).collect();
        let qd0 = vec![0.0; model.nv()];
        mppi.set_goal(&q0);
        let first = mppi.iterate(&q0, &qd0);
        let mut last = first;
        for _ in 0..19 {
            last = mppi.iterate(&q0, &qd0);
        }
        assert!(
            last.best_cost < first.best_cost,
            "best cost {} -> {}",
            first.best_cost,
            last.best_cost
        );
        assert!(last.effective_samples >= 1.0);
    }

    #[test]
    fn iterations_are_deterministic_given_seed() {
        let model = robots::iiwa();
        let opts = MppiOptions {
            samples: 8,
            horizon: 2,
            seed: 42,
            ..Default::default()
        };
        let q0 = model.neutral_config();
        let qd0 = vec![0.0; model.nv()];
        let run = |threads: usize| {
            let mut m = Mppi::with_threads(&model, opts.clone(), threads);
            m.iterate(&q0, &qd0);
            m.iterate(&q0, &qd0);
            m.nominal().to_vec()
        };
        assert_eq!(run(1), run(3));
    }

    #[test]
    fn non_finite_samples_get_zero_weight() {
        // Huge noise makes every perturbed rollout NaN; only the
        // unperturbed sample 0 stays finite, so the nominal keeps its
        // value instead of turning NaN.
        let model = robots::iiwa();
        let opts = MppiOptions {
            samples: 16,
            horizon: 5,
            sigma: 1e200,
            ..Default::default()
        };
        let mut mppi = Mppi::with_threads(&model, opts, 1);
        let q0 = model.neutral_config();
        let qd0 = vec![0.0; model.nv()];
        let before = mppi.nominal().to_vec();
        let step = mppi.iterate(&q0, &qd0);
        assert!(mppi.costs()[0].is_finite());
        assert!(mppi.costs()[1..].iter().all(|c| !c.is_finite()));
        assert_eq!(mppi.nominal(), &before[..]);
        assert_eq!(step.effective_samples, 1.0);
        assert_eq!(step.nonfinite_samples, 15);
        assert_eq!(step.best_cost, mppi.costs()[0]);
        assert_eq!(step.mean_cost, mppi.costs()[0]);
    }

    #[test]
    fn diverged_floating_base_samples_get_zero_weight() {
        // On a floating-base robot a diverged lane carries a NaN
        // quaternion through the configuration integration; it must get
        // zero weight like any other non-finite sample instead of
        // panicking the iteration.
        let model = robots::hyq();
        let opts = MppiOptions {
            samples: 16,
            horizon: 3,
            sigma: 1e200,
            ..Default::default()
        };
        let mut mppi = Mppi::with_threads(&model, opts, 1);
        let q0 = model.neutral_config();
        let qd0 = vec![0.0; model.nv()];
        let before = mppi.nominal().to_vec();
        let step = mppi.iterate(&q0, &qd0);
        assert!(mppi.costs()[0].is_finite());
        assert_eq!(step.nonfinite_samples, 15);
        assert_eq!(mppi.nominal(), &before[..]);
    }

    #[test]
    fn all_non_finite_samples_leave_the_nominal_unchanged() {
        let model = robots::iiwa();
        let opts = MppiOptions {
            samples: 8,
            horizon: 3,
            ..Default::default()
        };
        let mut mppi = Mppi::with_threads(&model, opts, 1);
        let q0 = model.neutral_config();
        let qd0 = vec![f64::NAN; model.nv()];
        let before = mppi.nominal().to_vec();
        let step = mppi.iterate(&q0, &qd0);
        assert!(mppi.costs().iter().all(|c| !c.is_finite()));
        assert_eq!(mppi.nominal(), &before[..]);
        assert_eq!(step.effective_samples, 0.0);
        assert_eq!(step.nonfinite_samples, 8);
    }

    #[test]
    fn steps_report_positive_phases() {
        let model = robots::iiwa();
        let opts = MppiOptions {
            samples: 8,
            horizon: 2,
            ..Default::default()
        };
        let mut mppi = Mppi::with_threads(&model, opts, 2);
        let q0 = model.neutral_config();
        let qd0 = vec![0.0; model.nv()];
        mppi.iterate(&q0, &qd0);
        let step = mppi.iterate(&q0, &qd0);
        assert!(step.rollout_s > 0.0);
        assert!(step.batch_threads >= 1);
    }
}
