//! `ilqr_iiwa`: receding-horizon iLQR on the LBR iiwa. One tick is
//! `Ilqr::solve` from the measured state, then `rk4_step` of the plant
//! under the first planned control. Episodes of 50 ticks each get a
//! seeded goal and start and a fresh controller (goals are fixed at
//! construction); constructing it is set-up, not tick time.
//!
//! The run is pinned to one CPU, so the controller's host-sized pool has
//! one executor and the LQ pass runs inline. With two executors on a
//! 2-CPU virtual machine the eight worker wake-ups per tick made the
//! median tick swing between about 16 and 27 ms from run to run (same
//! seed, minutes apart); on one CPU it stays within about 5 %.

use crate::probe::Probe;
use crate::stats::{bits_eq, count_nonfinite, max_abs_diff, mean, median};
use crate::trace::Recorder;
use crate::workload::{
    accel_metrics, guarded, pin_to_one_cpu, pool_metrics, stream, symmetric, RunCfg, WorkloadRun,
    SETUP_REPS,
};
use rbd_dynamics::{BatchEval, DynamicsWorkspace, LANE_WIDTH};
use rbd_model::{robots, RobotModel};
use rbd_spatial::MatN;
use rbd_trajopt::{
    lq_jacobians_batched, rk4_step, Ilqr, IlqrOptions, IlqrResult, LqScratch, StepJacobians,
};
use std::hint::black_box;
use std::time::Instant;

const TAG: u64 = 1;
pub const HORIZON: usize = 20;
pub const DT: f64 = 0.02;
pub const MAX_ITERS: usize = 8;
pub const EPISODE_TICKS: usize = 50;
/// Goal offset from neutral per joint, radians (uniform ±).
pub const GOAL_RANGE: f64 = 0.8;
/// Start offset from neutral per joint, radians (uniform ±).
pub const START_RANGE: f64 = 0.3;
/// Episodes every run completes, whatever `--seconds` says; the exact
/// quality metrics (`plan_cost`, `track_err`, `ilqr.iters`) cover these.
pub const QUALITY_EPISODES: usize = 16;
/// Trajectory points of a traced tick replayed per layer (one lane
/// group).
const PROBE_POINTS: [usize; LANE_WIDTH] = [0, 5, 10, 15];

pub fn options() -> IlqrOptions {
    IlqrOptions {
        horizon: HORIZON,
        dt: DT,
        max_iters: MAX_ITERS,
        ..IlqrOptions::default()
    }
}

struct Episode {
    goal: Vec<f64>,
    q0: Vec<f64>,
    qd0: Vec<f64>,
}

fn episode(model: &RobotModel, seed: u64, e: u64) -> Episode {
    let mut rng = stream(seed, TAG, e);
    let neutral = model.neutral_config();
    let dg = symmetric(&mut rng, model.nv(), GOAL_RANGE);
    let ds = symmetric(&mut rng, model.nv(), START_RANGE);
    Episode {
        goal: neutral.iter().zip(&dg).map(|(n, d)| n + d).collect(),
        q0: neutral.iter().zip(&ds).map(|(n, d)| n + d).collect(),
        qd0: vec![0.0; model.nv()],
    }
}

/// The accepted outcome of one tick.
struct Tick {
    sol: IlqrResult,
    q: Vec<f64>,
    qd: Vec<f64>,
}

impl Tick {
    fn cost(&self) -> f64 {
        self.sol.cost_history.last().copied().unwrap_or(f64::NAN)
    }

    fn iters(&self) -> usize {
        self.sol.cost_history.len().saturating_sub(1)
    }

    /// Finite cost, control and next state.
    fn finite(&self) -> bool {
        self.cost().is_finite()
            && count_nonfinite(&self.sol.us[0]) + count_nonfinite(&self.q) + count_nonfinite(&self.qd) == 0
    }
}

/// One closed-loop tick: plan from `(q, q̇)`, step the plant. `None` if
/// either call panicked.
#[allow(clippy::too_many_arguments)] // controller + plant + state + trace context
fn tick(
    model: &RobotModel,
    ilqr: &mut Ilqr<'_>,
    plant: &mut DynamicsWorkspace,
    q: &[f64],
    qd: &[f64],
    rec: &mut Recorder,
    id: u32,
) -> (Option<Tick>, u32, u32) {
    let solve = rec.begin("ilqr.solve", "ilqr", id);
    let sol = guarded(|| ilqr.solve(q, qd));
    rec.end(solve);
    let step = rec.begin("integrator.plant_step", "integrator", id);
    let out = sol.and_then(|sol| {
        let u = sol.us.first()?;
        let (qn, qdn) = guarded(|| rk4_step(model, plant, q, qd, u, DT))?;
        Some(Tick { sol, q: qn, qd: qdn })
    });
    rec.end(step);
    (out, solve, step)
}

/// The batched LQ pass of a traced tick, replayed once on the caller
/// alone and once through a pool gated like the controller's.
struct LqReplay<'m> {
    serial: BatchEval<'m>,
    pooled: BatchEval<'m>,
    jacs_serial: Vec<StepJacobians>,
    jacs_pooled: Vec<StepJacobians>,
    scratch: Vec<LqScratch>,
}

impl<'m> LqReplay<'m> {
    fn new(model: &'m RobotModel) -> Self {
        let flops = rbd_accel::ops::rk4_sens_point_flops(model);
        let serial = BatchEval::with_threads(model, 1).with_point_flops(flops);
        let pooled = BatchEval::new(model).with_point_flops(flops);
        let scratch = (0..pooled.threads())
            .map(|_| LqScratch::for_model(model))
            .collect();
        let jacs = || (0..HORIZON).map(|_| StepJacobians::zeros(model.nv())).collect();
        Self {
            serial,
            pooled,
            jacs_serial: jacs(),
            jacs_pooled: jacs(),
            scratch,
        }
    }

    /// `(serial s, pooled s, outputs bit-identical)`.
    fn run(&mut self, rec: &mut Recorder, id: u32, sol: &IlqrResult) -> (f64, f64, bool) {
        let s = rec.begin("pool.serial", "pool", id);
        lq_jacobians_batched(&mut self.serial, DT, &sol.trajectory, &sol.us, &mut self.jacs_serial, &mut self.scratch);
        rec.end(s);
        let b = rec.begin("pool.batched", "pool", id);
        lq_jacobians_batched(&mut self.pooled, DT, &sol.trajectory, &sol.us, &mut self.jacs_pooled, &mut self.scratch);
        rec.end(b);
        let same = self
            .jacs_serial
            .iter()
            .zip(&self.jacs_pooled)
            .all(|(x, y)| mat_bits_eq(&x.a, &y.a) && mat_bits_eq(&x.b, &y.b));
        (rec.dur_s(s), rec.dur_s(b), same)
    }
}

pub fn mat_bits_eq(a: &MatN, b: &MatN) -> bool {
    a.rows() == b.rows()
        && a.cols() == b.cols()
        && (0..a.rows()).all(|i| (0..a.cols()).all(|j| a[(i, j)].to_bits() == b[(i, j)].to_bits()))
}

pub fn run(cfg: &RunCfg, rec: &mut Recorder) -> WorkloadRun {
    let mut run = WorkloadRun::default();
    let opts = options();
    let pinned = pin_to_one_cpu();

    // Set-up: robot model, an episode's inputs, the controller (its pool
    // and scratch) and one warm-up solve. Each repetition takes another
    // episode, so the median does not hang on one goal.
    for r in 0..SETUP_REPS {
        let t = Instant::now();
        let model = robots::iiwa();
        let ep = episode(&model, cfg.seed, r as u64);
        let mut ilqr = Ilqr::new(&model, ep.goal.clone(), opts);
        black_box(ilqr.solve(&ep.q0, &ep.qd0));
        run.setup_s.push(t.elapsed().as_secs_f64());
    }

    let model = robots::iiwa();
    let mut plant = DynamicsWorkspace::new(&model);
    let mut probe = Probe::new(&model);
    let mut lq_replay = cfg.trace.then(|| LqReplay::new(&model));
    let point_flops = rbd_accel::ops::rk4_sens_point_flops(&model);

    let (mut plan_costs, mut iters, mut final_errs) = (Vec::new(), Vec::new(), Vec::new());
    let mut episode0: Vec<(f64, usize, Vec<f64>)> = Vec::new();
    let (mut lq, mut riccati, mut rollout, mut gap) = (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    let (mut executors, mut serial, mut batched) = (Vec::new(), Vec::new(), Vec::new());
    let mut pool_identical = true;
    let mut max_workers = 0;

    let start = Instant::now();
    let mut id: u32 = 0;
    let mut e = 0;
    while e < QUALITY_EPISODES || start.elapsed() < cfg.budget() {
        let traced = cfg.trace && e % 2 == 1;
        rec.set_enabled(traced);
        let quality = e < QUALITY_EPISODES;
        let ep = episode(&model, cfg.seed, e as u64);
        let mut ilqr = Ilqr::new(&model, ep.goal.clone(), opts);
        let (mut q, mut qd) = (ep.q0.clone(), ep.qd0.clone());
        let mut complete = true;
        for _ in 0..EPISODE_TICKS {
            id += 1;
            run.attempted += 1;
            let t0 = Instant::now();
            let root = rec.begin("tick", "bench", id);
            let (out, solve, step) = tick(&model, &mut ilqr, &mut plant, &q, &qd, rec, id);
            rec.end(root);
            let secs = t0.elapsed().as_secs_f64();
            run.tick(secs, traced);
            max_workers = max_workers.max(ilqr.lq_workers());
            let Some(t) = out.filter(Tick::finite) else {
                // Count it and start over with a fresh controller.
                run.failed += 1;
                complete = false;
                break;
            };
            if quality {
                plan_costs.push(t.cost());
                iters.push(t.iters() as f64);
            }
            if e == 0 {
                episode0.push((t.cost(), t.iters(), t.q.clone()));
            }
            if traced {
                let s = &t.sol;
                rec.phases(
                    solve,
                    "ilqr",
                    &[
                        ("ilqr.lq", s.lq_time_s),
                        ("ilqr.riccati", s.solver_time_s),
                        ("ilqr.rollout", s.rollout_time_s),
                    ],
                );
                lq.push(s.lq_time_s);
                riccati.push(s.solver_time_s);
                rollout.push(s.rollout_time_s);
                gap.push(secs - s.lq_time_s - s.solver_time_s - s.rollout_time_s - rec.dur_s(step));
                executors.push(ilqr.lq_workers() as f64);

                let replay = rec.begin("replay", "bench", id);
                for &k in &PROBE_POINTS {
                    let (pq, pqd) = &s.trajectory[k];
                    probe.point(rec, id, pq, pqd, &s.us[k], DT);
                }
                let states: Vec<(&[f64], &[f64])> = PROBE_POINTS
                    .iter()
                    .map(|&k| (s.trajectory[k].0.as_slice(), s.trajectory[k].1.as_slice()))
                    .collect();
                probe.lanes(rec, id, &states, &s.us.concat(), HORIZON, DT);
                if let Some(r) = lq_replay.as_mut() {
                    let (ser, bat, same) = r.run(rec, id, s);
                    serial.push(ser);
                    batched.push(bat);
                    pool_identical &= same;
                }
                rec.end(replay);
            }
            q = t.q;
            qd = t.qd;
        }
        if quality && complete {
            final_errs.push(max_abs_diff(&q, &ep.goal));
        }
        e += 1;
    }
    rec.set_enabled(false);

    // The first episode again on a fresh controller: every cost,
    // iteration count and state must repeat bit for bit.
    let ep = episode(&model, cfg.seed, 0);
    let repeat = guarded(|| {
        let mut ilqr = Ilqr::new(&model, ep.goal.clone(), opts);
        let mut ws = DynamicsWorkspace::new(&model);
        let (mut q, mut qd) = (ep.q0.clone(), ep.qd0.clone());
        episode0.iter().all(|(cost, it, qn)| {
            let sol = ilqr.solve(&q, &qd);
            (q, qd) = rk4_step(&model, &mut ws, &q, &qd, &sol.us[0], DT);
            sol.cost_history.last().map(|c| c.to_bits()) == Some(cost.to_bits())
                && sol.cost_history.len() - 1 == *it
                && bits_eq(&q, qn)
        })
    })
    .unwrap_or(false);
    run.check("repeat_exact", repeat && !episode0.is_empty(), format!("episode 0 replayed over {} ticks", episode0.len()));
    run.check(
        "one_cpu",
        pinned && max_workers == 1,
        format!("pinned {pinned}, at most {max_workers} LQ executor(s) per tick"),
    );
    run.check(
        "quality_finite",
        count_nonfinite(&plan_costs) + count_nonfinite(&final_errs) == 0 && !final_errs.is_empty(),
        format!("{} planned costs, {} final errors", plan_costs.len(), final_errs.len()),
    );

    let mean_iters = mean(&iters);
    run.set("ilqr.iters", mean_iters);
    run.set("plan_cost", mean(&plan_costs));
    run.set("track_err", mean(&final_errs));
    if cfg.trace {
        run.check("pool_bit_identical", pool_identical, "LQ Jacobians, pooled vs caller-only");
        run.set("ilqr.lq_ms", median(&lq) * 1e3);
        run.set("ilqr.riccati_ms", median(&riccati) * 1e3);
        run.set("ilqr.rollout_ms", median(&rollout) * 1e3);
        run.set("ilqr.gap_ms", median(&gap) * 1e3);
        let serial_s = median(&serial);
        pool_metrics(&mut run, median(&executors), serial_s, median(&batched));
        let lq_pass_flops = HORIZON as f64 * point_flops;
        accel_metrics(&mut run, &model, mean_iters * lq_pass_flops, serial_s, lq_pass_flops);
    }
    run
}
