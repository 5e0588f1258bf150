//! `mppi_hyq`: MPPI on HyQ at about 100 Hz. One tick turns a seeded
//! stance perturbation into the measured configuration
//! (`integrate_config` from neutral) and runs `Mppi::iterate` from it;
//! the nominal carries over between ticks. There is no plant: without
//! contacts a HyQ closed loop only free-falls.
//!
//! The run is pinned to one CPU and the controller has one executor, so
//! the lane-group rollouts run inline. With two executors on a 2-CPU
//! virtual machine whole runs read 11 ms or 19 ms per tick, depending
//! on what else the host was doing at the time.

use crate::probe::Probe;
use crate::stats::{bits_eq, count_nonfinite, mean, median};
use crate::trace::Recorder;
use crate::workload::{
    accel_metrics, guarded, pin_to_one_cpu, pool_metrics, stream, symmetric, RunCfg, WorkloadRun,
    BLOCK, SETUP_REPS,
};
use rbd_dynamics::LANE_WIDTH;
use rbd_model::{integrate_config, robots, RobotModel, SplitMix64};
use rbd_trajopt::{Mppi, MppiOptions, MppiStep};
use std::hint::black_box;
use std::time::Instant;

const TAG: u64 = 2;
pub const SAMPLES: usize = 128;
pub const HORIZON: usize = 10;
pub const DT: f64 = 0.01;
pub const EXECUTORS: usize = 1;
/// Stance perturbation per tangent coordinate (uniform ±; m or rad).
pub const POSE_RANGE: f64 = 0.03;
/// Measured velocity per coordinate (uniform ±; m/s or rad/s).
pub const VEL_RANGE: f64 = 0.1;
/// Ticks every run completes; `plan_cost` is the mean best cost over
/// them.
pub const QUALITY_TICKS: usize = 400;
/// Ticks replayed on a fresh controller to check exact repetition.
const REPEAT_TICKS: usize = 40;

pub fn options(seed: u64) -> MppiOptions {
    MppiOptions {
        horizon: HORIZON,
        dt: DT,
        samples: SAMPLES,
        seed,
        ..MppiOptions::default()
    }
}

/// The seeded stream of measured states.
struct Measurements {
    rng: SplitMix64,
    neutral: Vec<f64>,
    nv: usize,
}

impl Measurements {
    fn new(model: &RobotModel, seed: u64) -> Self {
        Self {
            rng: stream(seed, TAG, 0),
            neutral: model.neutral_config(),
            nv: model.nv(),
        }
    }

    /// Next `(tangent offset, q̇)`.
    fn next(&mut self) -> (Vec<f64>, Vec<f64>) {
        let dq = symmetric(&mut self.rng, self.nv, POSE_RANGE);
        let qd = symmetric(&mut self.rng, self.nv, VEL_RANGE);
        (dq, qd)
    }
}

/// A finite iteration: finite best cost, every sample cost finite, and a
/// finite nominal.
fn finite(step: &MppiStep, mppi: &Mppi<'_>) -> bool {
    step.best_cost.is_finite() && count_nonfinite(mppi.costs()) == 0 && count_nonfinite(mppi.nominal()) == 0
}

pub fn run(cfg: &RunCfg, rec: &mut Recorder) -> WorkloadRun {
    let mut run = WorkloadRun::default();
    let opts = options(cfg.seed);
    let pinned = pin_to_one_cpu();

    // Set-up: model, input stream, controller (pool, lane scratch), one
    // warm-up iteration.
    for _ in 0..SETUP_REPS {
        let t = Instant::now();
        let model = robots::hyq();
        let mut meas = Measurements::new(&model, cfg.seed);
        let mut mppi = Mppi::with_threads(&model, opts.clone(), EXECUTORS);
        let (dq, qd) = meas.next();
        let q = integrate_config(&model, &meas.neutral, &dq, 1.0);
        black_box(mppi.iterate(&q, &qd));
        run.setup_s.push(t.elapsed().as_secs_f64());
    }

    let model = robots::hyq();
    let nv = model.nv();
    let mut meas = Measurements::new(&model, cfg.seed);
    let mut mppi = Mppi::with_threads(&model, opts.clone(), EXECUTORS);
    // Traced runs keep a caller-only twin in lockstep: same seed, same
    // inputs, so it rolls out exactly the same samples serially.
    let mut twin = cfg.trace.then(|| Mppi::with_threads(&model, opts.clone(), 1));
    let mut probe = Probe::new(&model);

    let mut best_costs = Vec::new();
    let mut repeat_nominal = Vec::new();
    let (mut sample, mut rollout, mut update, mut ess) = (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    let (mut executors, mut serial) = (Vec::new(), Vec::new());
    let mut nonfinite = 0usize;
    let mut pool_identical = true;
    let mut max_workers = 0;

    let start = Instant::now();
    let mut k = 0usize;
    while k < QUALITY_TICKS || start.elapsed() < cfg.budget() {
        let traced = cfg.trace && (k / BLOCK) % 2 == 1;
        rec.set_enabled(traced);
        let id = k as u32 + 1;
        let (dq, qd) = meas.next();
        run.attempted += 1;

        let t0 = Instant::now();
        let root = rec.begin("tick", "bench", id);
        let q = rec.span("model.measure", "model", id, || integrate_config(&model, &meas.neutral, &dq, 1.0));
        let it = rec.begin("mppi.iterate", "mppi", id);
        let step = guarded(|| mppi.iterate(&q, &qd));
        rec.end(it);
        rec.end(root);
        let secs = t0.elapsed().as_secs_f64();
        run.tick(secs, traced);

        let twin_step = twin.as_mut().and_then(|t| guarded(|| t.iterate(&q, &qd)));
        nonfinite += count_nonfinite(mppi.costs());
        match step.filter(|s| finite(s, &mppi)) {
            Some(s) => {
                max_workers = max_workers.max(s.batch_threads);
                if k < QUALITY_TICKS {
                    best_costs.push(s.best_cost);
                }
                if k + 1 == REPEAT_TICKS {
                    repeat_nominal = mppi.nominal().to_vec();
                }
                if let (Some(t), Some(ts)) = (twin.as_ref(), twin_step) {
                    pool_identical &= bits_eq(t.costs(), mppi.costs()) && bits_eq(t.nominal(), mppi.nominal());
                    if traced {
                        serial.push(ts.rollout_s);
                    }
                }
                if traced {
                    rec.phases(
                        it,
                        "mppi",
                        &[
                            ("mppi.sample", s.sample_s),
                            ("mppi.rollout", s.rollout_s),
                            ("mppi.update", s.update_s),
                        ],
                    );
                    sample.push(s.sample_s);
                    rollout.push(s.rollout_s);
                    update.push(s.update_s);
                    ess.push(s.effective_samples);
                    executors.push(s.batch_threads as f64);

                    let replay = rec.begin("replay", "bench", id);
                    let nominal = mppi.nominal().to_vec();
                    probe.point(rec, id, &q, &qd, &nominal[..nv], DT);
                    let states = [(q.as_slice(), qd.as_slice()); LANE_WIDTH];
                    probe.lanes(rec, id, &states, &nominal, HORIZON, DT);
                    rec.end(replay);
                }
            }
            None => {
                // Count it and rebuild the controller (and its twin).
                run.failed += 1;
                mppi = Mppi::with_threads(&model, opts.clone(), EXECUTORS);
                if let Some(t) = twin.as_mut() {
                    *t = Mppi::with_threads(&model, opts.clone(), 1);
                }
            }
        }
        k += 1;
    }
    rec.set_enabled(false);

    // The first ticks again on a fresh controller and input stream.
    let repeat = guarded(|| {
        let mut fresh = Mppi::with_threads(&model, opts.clone(), EXECUTORS);
        let mut meas = Measurements::new(&model, cfg.seed);
        let costs_match = best_costs.iter().take(REPEAT_TICKS).all(|c| {
            let (dq, qd) = meas.next();
            let q = integrate_config(&model, &meas.neutral, &dq, 1.0);
            fresh.iterate(&q, &qd).best_cost.to_bits() == c.to_bits()
        });
        costs_match && bits_eq(fresh.nominal(), &repeat_nominal)
    })
    .unwrap_or(false);
    run.check(
        "repeat_exact",
        repeat && best_costs.len() >= REPEAT_TICKS,
        format!("first {REPEAT_TICKS} ticks replayed"),
    );
    run.check(
        "one_cpu",
        pinned && max_workers == 1,
        format!("pinned {pinned}, at most {max_workers} rollout executor(s) per tick"),
    );
    run.check("quality_finite", count_nonfinite(&best_costs) == 0 && !best_costs.is_empty(), format!("{} best costs", best_costs.len()));

    run.set("plan_cost", mean(&best_costs));
    run.set("mppi.nonfinite", nonfinite as f64);
    if cfg.trace {
        run.check("pool_bit_identical", pool_identical, "sample costs and nominal, controller vs caller-only twin");
        run.set("mppi.sample_ms", median(&sample) * 1e3);
        run.set("mppi.rollout_ms", median(&rollout) * 1e3);
        run.set("mppi.update_ms", median(&update) * 1e3);
        run.set("mppi.ess", median(&ess));
        let serial_s = median(&serial);
        pool_metrics(&mut run, median(&executors), serial_s, median(&rollout));
        let flops = SAMPLES as f64 * rbd_accel::ops::rk4_rollout_point_flops(&model, HORIZON);
        accel_metrics(&mut run, &model, flops, serial_s, flops);
    }
    run
}
