//! Analytic device models: latency and throughput of running a dynamics
//! function on a CPU, a GPU, or the Robomorphic FPGA.
//!
//! The models consume the same operation counts as the accelerator's
//! timing model ([`function_work`] reads the accelerator's Fig 14
//! dataflow table, `FunctionKind::uses`, and its per-joint submodule
//! costs, `SubmoduleKind::cost`), so relative results across
//! functions/robots emerge from the workload, while absolute rates are
//! calibrated per device (see [`crate::calibration`]).

use rbd_accel::{ops, FunctionKind, OpCount, SubmoduleKind};
use rbd_model::RobotModel;

/// Arithmetic work of one function call on one robot.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WorkEstimate {
    /// Multiply + add operations.
    pub ops: usize,
}

/// Total arithmetic work of `f` on `model`: every submodule family the
/// function fires, as often as it fires, summed over the physical tree
/// (a CPU runs every joint, it cannot time-multiplex symmetric limbs
/// away), plus one trig evaluation per `Rf` pass and the schedule
/// module's matrix-vector columns.
pub fn function_work(model: &RobotModel, f: FunctionKind) -> WorkEstimate {
    let nv = model.nv();
    let topo = model.topology();
    let dofs = |b: usize| model.joint(b).jtype.nv();
    let mut total = OpCount::default();
    for i in 0..model.num_bodies() {
        let jt = &model.joint(i).jtype;
        let ancestors: usize = topo.ancestors(i).iter().map(|&a| dofs(a)).sum();
        let subtree: usize = topo.subtree(i).iter().map(|&b| dofs(b)).sum();
        for kind in SubmoduleKind::ALL {
            let cost = kind.cost(jt, ancestors + jt.nv(), subtree, nv - ancestors);
            total = total.plus(cost.times(f.uses(kind)));
        }
        total = total.plus(ops::trig_cost(jt).times(f.uses(SubmoduleKind::Rf)));
    }
    total = total.plus(ops::sym_matvec_cost(nv).times(f.matvec_columns(nv)));
    WorkEstimate {
        ops: total.mul + total.add,
    }
}

/// Device family.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum DeviceKind {
    /// A CPU with `cores` cores running one task per thread.
    Cpu {
        /// Sustained single-thread Gop/s on this (branchy, serial)
        /// workload.
        single_thread_gops: f64,
        /// Physical cores used for batched throughput.
        cores: usize,
        /// Memory-contention coefficient: effective threads =
        /// `T / (1 + α (T-1))` (the Fig 2b saturation).
        contention: f64,
        /// Per-call overhead, seconds.
        call_overhead_s: f64,
    },
    /// A GPU running batches of tasks (GRiD-style).
    Gpu {
        /// Peak effective Gop/s once saturated.
        gops: f64,
        /// Kernel launch + transfer overhead per batch, seconds.
        launch_overhead_s: f64,
        /// Batch size at which the device saturates.
        saturation_batch: usize,
    },
    /// A fixed-function accelerator with known per-task latency and
    /// steady-state interval (used for Robomorphic, from reported
    /// numbers).
    FixedFunction {
        /// Single-task latency, seconds.
        latency_s: f64,
        /// Steady-state seconds per task.
        interval_s: f64,
    },
}

/// A named, calibrated device.
#[derive(Debug, Clone, PartialEq)]
pub struct DeviceModel {
    /// Display name (Table II).
    pub name: &'static str,
    /// Family + parameters.
    pub kind: DeviceKind,
}

impl DeviceModel {
    /// Single-task latency (the Fig 15a/c/e methodology: one task at a
    /// time on a single thread).
    pub fn latency_s(&self, work: &WorkEstimate) -> f64 {
        match self.kind {
            DeviceKind::Cpu {
                single_thread_gops,
                call_overhead_s,
                ..
            } => work.ops as f64 / (single_thread_gops * 1e9) + call_overhead_s,
            DeviceKind::Gpu {
                gops,
                launch_overhead_s,
                ..
            } => launch_overhead_s + work.ops as f64 / (gops * 1e9) * 64.0,
            DeviceKind::FixedFunction { latency_s, .. } => latency_s,
        }
    }

    /// Time to process a batch of `batch` independent tasks with full
    /// parallelism (the Fig 15b/d/f and Fig 16/17 methodology).
    pub fn batch_time_s(&self, work: &WorkEstimate, batch: usize) -> f64 {
        let batch = batch.max(1);
        match self.kind {
            DeviceKind::Cpu {
                single_thread_gops,
                cores,
                contention,
                call_overhead_s,
            } => {
                let t = cores as f64;
                let eff = t / (1.0 + contention * (t - 1.0));
                let per_task = work.ops as f64 / (single_thread_gops * 1e9) + call_overhead_s;
                batch as f64 * per_task / eff
            }
            DeviceKind::Gpu {
                gops,
                launch_overhead_s,
                saturation_batch,
            } => {
                let util = (batch as f64 / saturation_batch as f64).min(1.0);
                let eff_gops = gops * util.max(1.0 / saturation_batch as f64);
                launch_overhead_s + batch as f64 * work.ops as f64 / (eff_gops * 1e9)
            }
            DeviceKind::FixedFunction {
                latency_s,
                interval_s,
            } => latency_s + (batch as f64 - 1.0) * interval_s,
        }
    }

    /// Steady-state throughput at a batch size, tasks/s.
    pub fn throughput(&self, work: &WorkEstimate, batch: usize) -> f64 {
        batch as f64 / self.batch_time_s(work, batch)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::calibration;
    use rbd_model::robots;

    #[test]
    fn derivative_work_exceeds_id_work() {
        let m = robots::iiwa();
        let id = function_work(&m, FunctionKind::Id);
        let did = function_work(&m, FunctionKind::DId);
        let dfd = function_work(&m, FunctionKind::DFd);
        assert!(did.ops > 2 * id.ops);
        assert!(dfd.ops > did.ops);
    }

    #[test]
    fn atlas_heavier_than_iiwa() {
        for f in FunctionKind::all() {
            let wi = function_work(&robots::iiwa(), f);
            let wa = function_work(&robots::atlas(), f);
            assert!(wa.ops > wi.ops, "{f}");
        }
    }

    #[test]
    fn cpu_latency_beats_gpu_latency_single_task() {
        // The paper's motivation: GPU single-task latency is poor.
        let devs = calibration::paper_devices();
        let cpu = devs.iter().find(|d| d.name.contains("i9")).unwrap();
        let gpu = devs.iter().find(|d| d.name.contains("4090")).unwrap();
        let w = function_work(&robots::iiwa(), FunctionKind::DFd);
        assert!(cpu.latency_s(&w) < gpu.latency_s(&w));
    }

    #[test]
    fn gpu_throughput_beats_cpu_at_large_batch() {
        let devs = calibration::paper_devices();
        let cpu = devs.iter().find(|d| d.name.contains("i9")).unwrap();
        let gpu = devs.iter().find(|d| d.name.contains("4090")).unwrap();
        let w = function_work(&robots::iiwa(), FunctionKind::DFd);
        assert!(gpu.throughput(&w, 4096) > cpu.throughput(&w, 4096));
    }

    #[test]
    fn cpu_throughput_saturates_with_contention() {
        let cpu = DeviceModel {
            name: "test",
            kind: DeviceKind::Cpu {
                single_thread_gops: 1.0,
                cores: 12,
                contention: 0.1,
                call_overhead_s: 0.0,
            },
        };
        let w = WorkEstimate { ops: 10_000 };
        let t12 = cpu.throughput(&w, 256);
        // Effective speedup is well below 12×.
        let per_task = 10_000.0 / 1e9;
        let ideal = 12.0 / per_task;
        assert!(t12 < 0.65 * ideal);
        assert!(t12 > 3.0 / per_task);
    }

    #[test]
    fn fixed_function_batch_model() {
        let d = DeviceModel {
            name: "ff",
            kind: DeviceKind::FixedFunction {
                latency_s: 1e-6,
                interval_s: 2e-6,
            },
        };
        let w = WorkEstimate { ops: 1 };
        assert!((d.batch_time_s(&w, 1) - 1e-6).abs() < 1e-12);
        assert!((d.batch_time_s(&w, 11) - 21e-6).abs() < 1e-12);
    }
}
