//! What every workload shares: run settings, seeded input streams, the
//! panic guard around library calls, and the record a run hands back.

use rbd_accel::{AccelConfig, DaduRbd, FunctionKind};
use rbd_model::{RobotModel, SplitMix64};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Duration;

/// Command-line settings of one run.
#[derive(Debug, Clone, Copy)]
pub struct RunCfg {
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

impl RunCfg {
    pub fn budget(&self) -> Duration {
        Duration::from_secs_f64(self.seconds)
    }
}

/// Full set-ups per run; `setup_s` is their median.
pub const SETUP_REPS: usize = 25;

/// Ticks per block; a traced run alternates untraced and traced blocks,
/// so tracing overhead is measured against ticks of the same run, and
/// `ticks_per_s` is the median rate over blocks.
pub const BLOCK: usize = 50;

/// One named correctness check and its outcome.
#[derive(Debug, Clone)]
pub struct Check {
    pub name: &'static str,
    pub ok: bool,
    pub detail: String,
}

/// Everything a workload measured; `main` turns it into metrics.
#[derive(Debug, Default)]
pub struct WorkloadRun {
    /// Wall time of each full set-up, seconds.
    pub setup_s: Vec<f64>,
    /// Untraced tick durations, seconds.
    pub ticks_s: Vec<f64>,
    /// Traced tick durations, seconds (traced runs only).
    pub traced_ticks_s: Vec<f64>,
    pub attempted: u64,
    pub failed: u64,
    pub checks: Vec<Check>,
    /// Per-layer metrics the workload measures itself, by name.
    pub layer: Vec<(&'static str, f64)>,
}

impl WorkloadRun {
    pub fn check(&mut self, name: &'static str, ok: bool, detail: impl Into<String>) {
        self.checks.push(Check {
            name,
            ok,
            detail: detail.into(),
        });
    }

    pub fn set(&mut self, name: &'static str, value: f64) {
        self.layer.push((name, value));
    }

    /// Files a tick duration under the untraced or traced samples.
    pub fn tick(&mut self, secs: f64, traced: bool) {
        if traced {
            self.traced_ticks_s.push(secs);
        } else {
            self.ticks_s.push(secs);
        }
    }
}

/// A deterministic input stream: one per (seed, workload tag, index).
pub fn stream(seed: u64, tag: u64, index: u64) -> SplitMix64 {
    SplitMix64::new(
        seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ tag.rotate_left(40) ^ index.wrapping_mul(0xD6E8_FEB8_6659_FD93),
    )
}

/// `n` uniform draws in `[-scale, scale)`.
pub fn symmetric(rng: &mut SplitMix64, n: usize, scale: f64) -> Vec<f64> {
    (0..n).map(|_| scale * rng.next_symmetric()).collect()
}

/// Runs a library call, turning a panic into `None` (the panic message
/// still reaches stderr through the default hook).
pub fn guarded<R>(f: impl FnOnce() -> R) -> Option<R> {
    catch_unwind(AssertUnwindSafe(f)).ok()
}

/// Restricts this thread, and every thread it spawns later, to the first
/// CPU it may run on, so `available_parallelism` — and with it every
/// pool sized to the host — sees one CPU. `false` where the CPU mask
/// cannot be read or set.
#[cfg(target_os = "linux")]
pub fn pin_to_one_cpu() -> bool {
    // glibc's calls on a 1024-bit `cpu_set_t`; pid 0 is the caller.
    extern "C" {
        fn sched_getaffinity(pid: i32, size: usize, mask: *mut u64) -> i32;
        fn sched_setaffinity(pid: i32, size: usize, mask: *const u64) -> i32;
    }
    let mut mask = [0u64; 16];
    // SAFETY: `mask` is writable and exactly the size passed.
    if unsafe { sched_getaffinity(0, std::mem::size_of_val(&mask), mask.as_mut_ptr()) } != 0 {
        return false;
    }
    let Some(word) = mask.iter().position(|&w| w != 0) else {
        return false;
    };
    let mut one = [0u64; 16];
    one[word] = 1 << mask[word].trailing_zeros();
    // SAFETY: `one` is readable and exactly the size passed.
    unsafe { sched_setaffinity(0, std::mem::size_of_val(&one), one.as_ptr()) == 0 }
}

#[cfg(not(target_os = "linux"))]
pub fn pin_to_one_cpu() -> bool {
    false
}

/// `pool.*` metrics from the executors a dispatch engaged and the
/// medians of the same items run pooled and on the caller alone.
pub fn pool_metrics(run: &mut WorkloadRun, executors: f64, serial_s: f64, batched_s: f64) {
    run.set("pool.executors", executors);
    run.set("pool.serial_ms", serial_s * 1e3);
    run.set("pool.par_eff", serial_s / (executors * batched_s));
    run.set("pool.overhead_us", (batched_s - serial_s / executors) * 1e6);
}

/// `accel.*` metrics: the op-model flops of one tick's pooled work, the
/// measured serial time per predicted flop, and the simulated Dadu-RBD
/// time of a 64-task ΔFD batch on `model` (a model output, not a
/// hardware measurement).
pub fn accel_metrics(run: &mut WorkloadRun, model: &RobotModel, tick_flops: f64, serial_s: f64, serial_flops: f64) {
    run.set("accel.pred_mflop", tick_flops * 1e-6);
    run.set("accel.ns_per_flop", serial_s * 1e9 / serial_flops);
    run.set("accel.sim_us", sim_dfd64_us(model));
}

/// Simulated batch time of 64 ΔFD tasks on a freshly configured
/// accelerator for `model`, microseconds.
pub fn sim_dfd64_us(model: &RobotModel) -> f64 {
    DaduRbd::configure(model, AccelConfig::default())
        .estimate(FunctionKind::DFd, 64)
        .batch_time_s
        * 1e6
}
