//! `dfd_batch_atlas`: batched ΔFD on Atlas through the worker pool. One
//! tick is `BatchEval::fd_derivatives_batch` over 64 seeded states and
//! torques; ticks rotate through several distinct batches so no call
//! sees the previous call's configurations (the workspace memoizes
//! kinematics on `q`).
//!
//! The run is pinned to one CPU and the evaluator has one executor, so
//! the batch runs inline. With two executors on a 2-CPU virtual machine
//! whole runs read about 3 ms or 8 ms per batch, depending on what else
//! the host was doing at the time.

use crate::ilqr_iiwa::mat_bits_eq;
use crate::probe::Probe;
use crate::stats::{bits_eq, count_nonfinite, median};
use crate::trace::Recorder;
use crate::workload::{
    accel_metrics, guarded, pin_to_one_cpu, pool_metrics, stream, symmetric, RunCfg, WorkloadRun,
    BLOCK, SETUP_REPS,
};
use rbd_dynamics::{
    fd_derivatives_into, fd_derivatives_numeric, BatchEval, DynamicsWorkspace, FdDerivatives,
    SamplePoint, LANE_WIDTH,
};
use rbd_model::{integrate_config, robots, RobotModel};
use std::hint::black_box;
use std::time::Instant;

const TAG: u64 = 3;
pub const POINTS: usize = 64;
pub const BATCHES: usize = 8;
pub const EXECUTORS: usize = 1;
/// Configuration offset from neutral per tangent coordinate (uniform ±).
pub const POSE_RANGE: f64 = 1.0;
/// Velocity per coordinate (uniform ±).
pub const VEL_RANGE: f64 = 1.0;
/// Torque per coordinate (uniform ±), N·m or N.
pub const TAU_RANGE: f64 = 10.0;
/// Points per tick recomputed serially and compared bit for bit (a
/// rotating window, so every point of every batch is checked).
const CHECK_POINTS: usize = 4;
/// Points checked against central finite differences during set-up.
const NUMERIC_POINTS: usize = 2;
/// Horizon and step of the lane rollout replay.
const LANE_HORIZON: usize = 10;
const LANE_DT: f64 = 0.01;

fn batches(model: &RobotModel, seed: u64) -> Vec<Vec<SamplePoint>> {
    let neutral = model.neutral_config();
    let nv = model.nv();
    (0..BATCHES)
        .map(|b| {
            (0..POINTS)
                .map(|p| {
                    let mut rng = stream(seed, TAG, (b * POINTS + p) as u64);
                    let dq = symmetric(&mut rng, nv, POSE_RANGE);
                    let qd = symmetric(&mut rng, nv, VEL_RANGE);
                    let tau = symmetric(&mut rng, nv, TAU_RANGE);
                    (integrate_config(model, &neutral, &dq, 1.0), qd, tau)
                })
                .collect()
        })
        .collect()
}

fn fd_bits_eq(a: &FdDerivatives, b: &FdDerivatives) -> bool {
    mat_bits_eq(&a.dqdd_dq, &b.dqdd_dq)
        && mat_bits_eq(&a.dqdd_dqd, &b.dqdd_dqd)
        && mat_bits_eq(&a.dqdd_dtau, &b.dqdd_dtau)
        && bits_eq(&a.qdd, &b.qdd)
}

fn fd_finite(d: &FdDerivatives) -> bool {
    let m = |x: &rbd_spatial::MatN| (0..x.rows()).all(|i| (0..x.cols()).all(|j| x[(i, j)].is_finite()));
    m(&d.dqdd_dq) && m(&d.dqdd_dqd) && m(&d.dqdd_dtau) && count_nonfinite(&d.qdd) == 0
}

/// Largest deviation of the analytic ΔFD from central differences,
/// relative to `1 + max |numeric|` (the scale the library's own
/// finite-difference tests use).
fn numeric_error(model: &RobotModel, (q, qd, tau): &SamplePoint) -> f64 {
    let mut ws = DynamicsWorkspace::new(model);
    let mut d = FdDerivatives::zeros(model.nv());
    if fd_derivatives_into(model, &mut ws, q, qd, tau, None, &mut d).is_err() {
        return f64::NAN;
    }
    let (nq, nqd, ntau) = fd_derivatives_numeric(model, q, qd, tau, None, 1e-6);
    [(&d.dqdd_dq, &nq), (&d.dqdd_dqd, &nqd), (&d.dqdd_dtau, &ntau)]
        .iter()
        .map(|(a, n)| (*a - *n).max_abs() / (1.0 + n.max_abs()))
        .fold(0.0, |m: f64, x| if x.is_nan() || m.is_nan() { f64::NAN } else { m.max(x) })
}

pub fn run(cfg: &RunCfg, rec: &mut Recorder) -> WorkloadRun {
    let mut run = WorkloadRun::default();
    let pinned = pin_to_one_cpu();

    // Set-up: model, the seeded batches, the pool with one workspace per
    // executor, output buffers, and one warm-up batch.
    for _ in 0..SETUP_REPS {
        let t = Instant::now();
        let model = robots::atlas();
        let inputs = batches(&model, cfg.seed);
        let mut be = BatchEval::with_threads(&model, EXECUTORS);
        let mut outs = vec![FdDerivatives::zeros(model.nv()); POINTS];
        black_box(be.fd_derivatives_batch(&inputs[0], &mut outs)).ok();
        run.setup_s.push(t.elapsed().as_secs_f64());
    }

    let model = robots::atlas();
    let nv = model.nv();
    let inputs = batches(&model, cfg.seed);
    let mut be = BatchEval::with_threads(&model, EXECUTORS);
    let mut outs = vec![FdDerivatives::zeros(nv); POINTS];
    let mut serial_be = cfg.trace.then(|| BatchEval::with_threads(&model, 1));
    let mut serial_outs = vec![FdDerivatives::zeros(nv); POINTS];
    let mut ws = DynamicsWorkspace::new(&model);
    let mut reference = FdDerivatives::zeros(nv);
    let mut probe = Probe::new(&model);
    let zero_us = vec![0.0; LANE_HORIZON * nv];

    let worst = inputs[0][..NUMERIC_POINTS]
        .iter()
        .map(|p| numeric_error(&model, p))
        .fold(0.0, |m: f64, x| if x.is_nan() || m.is_nan() { f64::NAN } else { m.max(x) });
    run.check("numeric_spot_check", worst < 1e-4, format!("max relative error {worst:.2e} over {NUMERIC_POINTS} points"));

    let (mut executors, mut serial, mut batched) = (Vec::new(), Vec::new(), Vec::new());
    let mut serial_identical = true;
    let mut pool_identical = true;
    let mut max_workers = 0;

    let start = Instant::now();
    let mut k = 0usize;
    while start.elapsed() < cfg.budget() || k < BATCHES {
        let traced = cfg.trace && (k / BLOCK) % 2 == 1;
        rec.set_enabled(traced);
        let id = k as u32 + 1;
        let batch = &inputs[k % BATCHES];
        run.attempted += POINTS as u64;

        let t0 = Instant::now();
        let root = rec.begin("tick", "bench", id);
        let call = rec.begin("pool.fd_derivatives_batch", "pool", id);
        let ok = guarded(|| be.fd_derivatives_batch(batch, &mut outs)).is_some_and(|r| r.is_ok());
        rec.end(call);
        rec.end(root);
        let secs = t0.elapsed().as_secs_f64();
        run.tick(secs, traced);

        if !ok {
            run.failed += POINTS as u64;
            be = BatchEval::with_threads(&model, EXECUTORS);
        } else {
            max_workers = max_workers.max(be.last_workers());
            run.failed += outs.iter().filter(|d| !fd_finite(d)).count() as u64;
            // A rotating window of points against the serial kernel.
            for j in 0..CHECK_POINTS {
                let p = (k * CHECK_POINTS + j) % POINTS;
                let (q, qd, tau) = &batch[p];
                serial_identical &= fd_derivatives_into(&model, &mut ws, q, qd, tau, None, &mut reference).is_ok()
                    && fd_bits_eq(&reference, &outs[p]);
            }
        }

        if traced && ok {
            executors.push(be.last_workers() as f64);
            batched.push(rec.dur_s(call));
            let replay = rec.begin("replay", "bench", id);
            if let Some(sb) = serial_be.as_mut() {
                let s = rec.begin("pool.serial", "pool", id);
                let r = sb.fd_derivatives_batch(batch, &mut serial_outs);
                rec.end(s);
                serial.push(rec.dur_s(s));
                pool_identical &= r.is_ok() && serial_outs.iter().zip(&outs).all(|(a, b)| fd_bits_eq(a, b));
            }
            let first = (k * LANE_WIDTH) % POINTS;
            let group: Vec<&SamplePoint> = (0..LANE_WIDTH).map(|j| &batch[(first + j) % POINTS]).collect();
            for (q, qd, tau) in &group {
                probe.point(rec, id, q, qd, tau, LANE_DT);
            }
            let states: Vec<(&[f64], &[f64])> = group.iter().map(|(q, qd, _)| (q.as_slice(), qd.as_slice())).collect();
            // Passive rollouts: the batch's random torques, held for a
            // whole horizon, drive Atlas off its manifold.
            probe.lanes(rec, id, &states, &zero_us, LANE_HORIZON, LANE_DT);
            rec.end(replay);
        }
        k += 1;
    }
    rec.set_enabled(false);

    run.check(
        "one_cpu",
        pinned && max_workers == 1,
        format!("pinned {pinned}, at most {max_workers} executor(s) per batch"),
    );
    run.check("serial_bit_identical", serial_identical, format!("{} points vs serial fd_derivatives_into", k * CHECK_POINTS));
    if cfg.trace {
        run.check("pool_bit_identical", pool_identical, "whole batches, evaluator vs caller-only replay");
        let serial_s = median(&serial);
        pool_metrics(&mut run, median(&executors), serial_s, median(&batched));
        let flops = POINTS as f64 * rbd_accel::ops::delta_fd_flops(&model);
        accel_metrics(&mut run, &model, flops, serial_s, flops);
    }
    run
}
