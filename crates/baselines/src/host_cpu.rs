//! Real host-CPU measurements of the `rbd-dynamics` kernels — the live
//! counterpart of the paper's Pinocchio baselines, used by Fig 2 and as
//! a sanity check that the modelled cost ratios between functions are
//! real.

use rbd_accel::FunctionKind;
use rbd_dynamics::{
    fd_derivatives_into, forward_dynamics_into, mminv_gen_into, rnea_derivatives_into, rnea_in_ws,
    DynamicsWorkspace, FdDerivatives, RneaDerivatives,
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

/// Per-thread reusable outputs so the measured loop exercises the same
/// zero-allocation fast path the accelerator comparison is made against.
struct HostScratch {
    qdd: Vec<f64>,
    m: MatN,
    did: RneaDerivatives,
    dfd: FdDerivatives,
}

impl HostScratch {
    fn new(model: &RobotModel) -> Self {
        let nv = model.nv();
        Self {
            qdd: vec![0.0; nv],
            m: MatN::zeros(nv, nv),
            did: RneaDerivatives::zeros(nv),
            dfd: FdDerivatives::zeros(nv),
        }
    }
}

/// Executes one function once (workload body shared by all harnesses).
fn run_once(
    model: &RobotModel,
    ws: &mut DynamicsWorkspace,
    scratch: &mut HostScratch,
    f: FunctionKind,
    q: &[f64],
    qd: &[f64],
    u: &[f64],
) {
    match f {
        FunctionKind::Id => {
            rnea_in_ws(model, ws, q, qd, u, None);
            std::hint::black_box(&ws.tau);
        }
        FunctionKind::Fd => {
            forward_dynamics_into(model, ws, q, qd, u, None, &mut scratch.qdd).expect("fd");
            std::hint::black_box(&scratch.qdd);
        }
        FunctionKind::MassMatrix => {
            mminv_gen_into(model, ws, q, Some(&mut scratch.m), None).expect("m");
            std::hint::black_box(&scratch.m);
        }
        FunctionKind::MassMatrixInverse => {
            mminv_gen_into(model, ws, q, None, Some(&mut scratch.m)).expect("minv");
            std::hint::black_box(&scratch.m);
        }
        FunctionKind::DId => {
            rnea_derivatives_into(model, ws, q, qd, u, None, &mut scratch.did);
            std::hint::black_box(&scratch.did);
        }
        FunctionKind::DFd | FunctionKind::DiFd => {
            fd_derivatives_into(model, ws, q, qd, u, None, &mut scratch.dfd).expect("dfd");
            std::hint::black_box(&scratch.dfd);
        }
    }
}

/// Measures `batch` tasks of `f` on `threads` OS threads (the paper's
/// multi-threaded throughput methodology; `threads == 1` gives the
/// latency methodology).
pub fn measure_function(
    model: &RobotModel,
    f: FunctionKind,
    batch: usize,
    threads: usize,
    repeats: usize,
) -> HostMeasurement {
    let threads = threads.max(1);
    let states: Vec<_> = (0..batch.max(1))
        .map(|i| random_state(model, i as u64))
        .collect();
    let u: Vec<f64> = (0..model.nv())
        .map(|k| 0.2 * (k % 3) as f64 - 0.1)
        .collect();

    let start = Instant::now();
    for _ in 0..repeats.max(1) {
        if threads == 1 {
            let mut ws = DynamicsWorkspace::new(model);
            let mut scratch = HostScratch::new(model);
            for s in &states {
                run_once(model, &mut ws, &mut scratch, f, &s.q, &s.qd, &u);
            }
        } else {
            std::thread::scope(|scope| {
                let chunk = states.len().div_ceil(threads);
                for part in states.chunks(chunk) {
                    let u = &u;
                    scope.spawn(move || {
                        let mut ws = DynamicsWorkspace::new(model);
                        let mut scratch = HostScratch::new(model);
                        for s in part {
                            run_once(model, &mut ws, &mut scratch, f, &s.q, &s.qd, u);
                        }
                    });
                }
            });
        }
    }
    HostMeasurement {
        seconds: start.elapsed().as_secs_f64(),
        tasks: (batch.max(1) * repeats.max(1)) as u64,
    }
}

/// Thread-scaling curve (relative time vs thread count) for the Fig 2b
/// reproduction: returns `(threads, relative_time)` with 1 thread = 1.0.
pub fn thread_scaling(
    model: &RobotModel,
    f: FunctionKind,
    batch: usize,
    thread_counts: &[usize],
    repeats: usize,
) -> Vec<(usize, f64)> {
    let base = measure_function(model, f, batch, 1, repeats).seconds;
    thread_counts
        .iter()
        .map(|&t| {
            let m = measure_function(model, f, batch, t, repeats);
            (t, m.seconds / base)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use rbd_model::robots;

    #[test]
    fn measurement_counts_tasks() {
        let m = robots::iiwa();
        let r = measure_function(&m, FunctionKind::Id, 32, 1, 2);
        assert_eq!(r.tasks, 64);
        assert!(r.seconds > 0.0);
        assert!(r.latency_s() > 0.0);
        assert!(r.throughput() > 0.0);
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
