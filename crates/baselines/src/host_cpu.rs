//! Real host-CPU measurements of the `rbd-dynamics` kernels — the live
//! counterpart of the paper's Pinocchio baselines, used by Fig 2 and
//! Fig 15 and as a sanity check that the modelled cost ratios between
//! functions are real.
//!
//! Every measurement runs through [`BatchEval`], the persistent pool the
//! controllers use: ΔFD and ΔiFD through its lane kernel
//! ([`BatchEval::fd_derivatives_batch`]), the other functions point by
//! point through [`BatchEval::for_each_with_scratch`].

use crate::device::function_work;
use rbd_accel::FunctionKind;
use rbd_dynamics::{
    forward_dynamics_into, mminv_gen_into, rnea_derivatives_into, rnea_in_ws, BatchEval,
    DynamicsError, DynamicsWorkspace, FdDerivatives, RneaDerivatives, SamplePoint,
};
use rbd_model::{random_state, RobotModel};
use rbd_spatial::MatN;
use std::time::Instant;

/// One measurement result.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HostMeasurement {
    /// Total wall time, seconds.
    pub seconds: f64,
    /// Tasks executed.
    pub tasks: u64,
    /// Executors the pool's work gate engaged (at most the threads
    /// asked for).
    pub executors: usize,
}

impl HostMeasurement {
    /// Seconds per task.
    pub fn latency_s(&self) -> f64 {
        self.seconds / self.tasks as f64
    }

    /// Tasks per second.
    pub fn throughput(&self) -> f64 {
        self.tasks as f64 / self.seconds
    }
}

/// One executor's reusable outputs for the point-by-point functions.
struct HostScratch {
    qdd: Vec<f64>,
    m: MatN,
    did: RneaDerivatives,
}

impl HostScratch {
    fn new(model: &RobotModel) -> Self {
        let nv = model.nv();
        Self {
            qdd: vec![0.0; nv],
            m: MatN::zeros(nv, nv),
            did: RneaDerivatives::zeros(nv),
        }
    }
}

/// Executes one point-by-point function once on the executor's
/// workspace and scratch slot.
fn run_once(
    model: &RobotModel,
    ws: &mut DynamicsWorkspace,
    scratch: &mut HostScratch,
    f: FunctionKind,
    (q, qd, u): &SamplePoint,
) -> Result<(), DynamicsError> {
    match f {
        FunctionKind::Id => {
            rnea_in_ws(model, ws, q, qd, u, None);
            std::hint::black_box(&ws.tau);
        }
        FunctionKind::Fd => {
            forward_dynamics_into(model, ws, q, qd, u, None, &mut scratch.qdd)?;
            std::hint::black_box(&scratch.qdd);
        }
        FunctionKind::MassMatrix => {
            mminv_gen_into(model, ws, q, Some(&mut scratch.m), None)?;
            std::hint::black_box(&scratch.m);
        }
        FunctionKind::MassMatrixInverse => {
            mminv_gen_into(model, ws, q, None, Some(&mut scratch.m))?;
            std::hint::black_box(&scratch.m);
        }
        FunctionKind::DId => {
            rnea_derivatives_into(model, ws, q, qd, u, None, &mut scratch.did);
            std::hint::black_box(&scratch.did);
        }
        FunctionKind::DFd | FunctionKind::DiFd => unreachable!("ΔFD runs as a lane batch"),
    }
    Ok(())
}

/// Measures `repeats` batches of `batch` tasks of `f` on a
/// [`BatchEval`] pool of `threads` executors (the paper's multi-threaded
/// throughput methodology; `threads == 1` gives the latency
/// methodology). The pool is built and warmed by one untimed batch
/// first; its work gate is sized for `f`, so small batches may engage
/// fewer executors than `threads` ([`HostMeasurement::executors`]).
pub fn measure_function(
    model: &RobotModel,
    f: FunctionKind,
    batch: usize,
    threads: usize,
    repeats: usize,
) -> HostMeasurement {
    let (batch, repeats) = (batch.max(1), repeats.max(1));
    let u: Vec<f64> = (0..model.nv())
        .map(|k| 0.2 * (k % 3) as f64 - 0.1)
        .collect();
    let points: Vec<SamplePoint> = (0..batch)
        .map(|i| {
            let s = random_state(model, i as u64);
            (s.q, s.qd, u.clone())
        })
        .collect();
    let mut eval = BatchEval::with_threads(model, threads)
        .with_point_flops(function_work(model, f).ops as f64);
    let lane_fd = matches!(f, FunctionKind::DFd | FunctionKind::DiFd);
    let mut dfd = vec![FdDerivatives::zeros(model.nv()); if lane_fd { batch } else { 0 }];
    let mut done = vec![(); batch];
    let mut scratch: Vec<HostScratch> = (0..eval.threads())
        .map(|_| HostScratch::new(model))
        .collect();
    let mut dispatch = || {
        if lane_fd {
            eval.fd_derivatives_batch(&points, &mut dfd)
        } else {
            eval.for_each_with_scratch(
                &points,
                &mut done,
                &mut scratch,
                |model, ws, sc, _, p, ()| run_once(model, ws, sc, f, p),
            )
        }
        .expect("host kernels on random states")
    };

    dispatch();
    let start = Instant::now();
    for _ in 0..repeats {
        dispatch();
    }
    let seconds = start.elapsed().as_secs_f64();
    std::hint::black_box(&dfd);
    HostMeasurement {
        seconds,
        tasks: (batch * repeats) as u64,
        executors: eval.last_workers(),
    }
}

/// Interleaved rounds per thread count in [`thread_scaling`]: a burst of
/// load from another process slows one round, not the fastest.
const SCALING_ROUNDS: usize = 5;

/// Thread-scaling curve for Fig 2b and Fig 15's live host rows: one
/// `(threads, relative_time, measurement)` row per entry of
/// `thread_counts`, which must hold 1. Each row is the fastest of five
/// interleaved [`measure_function`] runs, its time relative to the
/// 1-thread row's (which reads exactly 1.0).
pub fn thread_scaling(
    model: &RobotModel,
    f: FunctionKind,
    batch: usize,
    thread_counts: &[usize],
    repeats: usize,
) -> Vec<(usize, f64, HostMeasurement)> {
    let one = thread_counts
        .iter()
        .position(|&t| t == 1)
        .expect("thread_counts holds the 1-thread base");
    let measure = |t| measure_function(model, f, batch, t, repeats);
    let mut best: Vec<HostMeasurement> = thread_counts.iter().map(|&t| measure(t)).collect();
    for _ in 1..SCALING_ROUNDS {
        for (b, &t) in best.iter_mut().zip(thread_counts) {
            let r = measure(t);
            if r.seconds < b.seconds {
                *b = r;
            }
        }
    }
    let base = best[one].seconds;
    thread_counts
        .iter()
        .zip(best)
        .map(|(&t, r)| (t, r.seconds / base, r))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use rbd_model::robots;

    #[test]
    fn measurement_counts_tasks() {
        // 256 ΔID points on HyQ clear the work gate for two executors, so
        // the 2-thread run goes through the pool; `with_threads(2)` spawns
        // its worker whatever the core count.
        let m = robots::hyq();
        for threads in [1, 2] {
            let r = measure_function(&m, FunctionKind::DId, 256, threads, 2);
            assert_eq!(r.tasks, 512);
            assert_eq!(r.executors, threads, "{r:?}");
            assert!(r.seconds > 0.0);
            assert!(r.latency_s() > 0.0);
            assert!(r.throughput() > 0.0);
        }
    }

    #[test]
    fn one_thread_row_is_the_scaling_base() {
        let m = robots::iiwa();
        assert_eq!(
            thread_scaling(&m, FunctionKind::Id, 32, &[1, 2], 2)[0].1,
            1.0
        );
    }

    #[test]
    fn derivatives_slower_than_id_on_host() {
        // Interleaved ID/ΔFD rounds, fastest of five each: a burst of
        // load from another process slows one round, not the minimum.
        let m = robots::iiwa();
        let (mut id, mut dfd) = (f64::INFINITY, f64::INFINITY);
        for _ in 0..5 {
            id = id.min(measure_function(&m, FunctionKind::Id, 64, 1, 1).latency_s());
            dfd = dfd.min(measure_function(&m, FunctionKind::DFd, 64, 1, 1).latency_s());
        }
        assert!(dfd > 2.0 * id, "dFD {dfd} vs ID {id}");
    }

    #[test]
    fn multithreading_does_not_slow_down_large_batches() {
        // Meaningful only with real parallelism available.
        let cores = std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1);
        if cores < 2 {
            return;
        }
        let m = robots::hyq();
        let t1 = measure_function(&m, FunctionKind::DId, 256, 1, 2);
        let t4 = measure_function(&m, FunctionKind::DId, 256, cores.min(4), 2);
        // Allow generous slack for CI noise; threads should at least not
        // be slower than single-threaded.
        assert!(
            t4.seconds < t1.seconds * 1.2,
            "{}T {} vs 1T {}",
            cores.min(4),
            t4.seconds,
            t1.seconds
        );
    }
}
