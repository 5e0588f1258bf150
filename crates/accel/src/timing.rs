//! Latency/throughput model for every function of Table I, composing the
//! per-stage initiation intervals with the Fig 14 dataflows, the Fig 13
//! batch scheduling and the 32 GB/s stream interface of §VI.

use crate::config::DaduRbd;
use crate::dataflow::FunctionKind;

use crate::pipeline::{PipelineSim, Stage};
use crate::submodule::{Submodule, SubmoduleKind};

/// Timing estimate for one function at one batch size.
#[derive(Debug, Clone, PartialEq)]
pub struct TimingEstimate {
    /// Function.
    pub function: FunctionKind,
    /// Batch size.
    pub batch: usize,
    /// Single-task latency, cycles.
    pub latency_cycles: u64,
    /// Single-task latency, seconds.
    pub latency_s: f64,
    /// Steady-state initiation interval, cycles/task.
    pub bottleneck_ii: u64,
    /// Steady-state throughput, tasks/s.
    pub throughput_tasks_per_s: f64,
    /// Total cycles for the batch (fill + steady + drain).
    pub batch_cycles: u64,
    /// Total seconds for the batch.
    pub batch_time_s: f64,
    /// Whether the stream interface, not compute, limits throughput.
    pub io_bound: bool,
}

/// Per-task stream traffic (bytes) of a function — inputs + outputs in
/// 32-bit words.
pub fn io_bytes_per_task(accel: &DaduRbd, f: FunctionKind) -> usize {
    let nv = accel.model().nv();
    let nq = accel.model().nq();
    let w = accel.config().word_bytes;
    let tri = nv * (nv + 1) / 2;
    let (input_scalars, output_scalars) = match f {
        FunctionKind::Id => (nq + 2 * nv, nv),
        FunctionKind::Fd => (nq + 2 * nv, nv),
        FunctionKind::MassMatrix | FunctionKind::MassMatrixInverse => (nq, tri),
        FunctionKind::DId => (nq + 2 * nv, 2 * nv * nv),
        FunctionKind::DFd => (nq + 2 * nv, 2 * nv * nv),
        FunctionKind::DiFd => (nq + 2 * nv + tri, 2 * nv * nv),
    };
    (input_scalars + output_scalars) * w
}

/// The matvec unit's initiation interval per task.
fn matvec_ii(accel: &DaduRbd, f: FunctionKind) -> usize {
    let cols = f.matvec_columns(accel.model().nv());
    if cols == 0 {
        return 0;
    }
    // Lanes sized like a column stage: one column per `col_ii` cycles.
    cols.div_ceil(accel.config().col_parallel) * accel.config().col_ii
        + crate::submodule::STREAM_OVERHEAD
}

/// Head/tail fixed stages (Decode, Global Trigonometric, Input Stream,
/// Encode).
fn head_stages() -> Vec<Stage> {
    vec![
        Stage::new("Decode", 2, 4),
        Stage::new("Trig", 2, 12),
        Stage::new("InStream", 2, 3),
    ]
}

fn tail_stage() -> Stage {
    Stage::new("Encode", 2, 4)
}

/// Stages along the deepest hardware branch, in traversal order for one
/// engine pass.
fn path_stages(accel: &DaduRbd, kind: SubmoduleKind, reversed: bool) -> Vec<Stage> {
    // Deepest branch = most bodies.
    let branch = accel
        .layout()
        .branches
        .iter()
        .max_by_key(|b| b.bodies.len())
        .expect("layout has at least one branch");
    let mut bodies = branch.bodies.clone();
    if reversed {
        bodies.reverse();
    }
    let mut out = Vec::new();
    for b in bodies {
        for s in stages_of(accel, kind) {
            if s.body == b {
                out.push(Stage::new(
                    format!("{}{}", s.kind, s.level),
                    s.task_ii_cycles(),
                    s.latency_cycles(),
                ));
            }
        }
    }
    out
}

fn stages_of(accel: &DaduRbd, kind: SubmoduleKind) -> impl Iterator<Item = &Submodule> {
    accel
        .fb_stages()
        .iter()
        .chain(accel.bf_stages())
        .filter(move |s| s.kind == kind)
}

/// Builds the representative linear pipeline for a function: the
/// critical path of the Fig 14 dataflow, with the global bottleneck
/// stage guaranteed present (appended as a virtual stage when it is on
/// a different branch).
pub fn representative_pipeline(accel: &DaduRbd, f: FunctionKind) -> PipelineSim {
    use SubmoduleKind::*;
    let mut stages = head_stages();
    let add_engine_pass = |stages: &mut Vec<Stage>, kinds: &[(SubmoduleKind, bool)]| {
        for &(k, rev) in kinds {
            stages.extend(path_stages(accel, k, rev));
        }
    };
    match f {
        FunctionKind::Id => add_engine_pass(&mut stages, &[(Rf, false), (Rb, true)]),
        FunctionKind::DId => add_engine_pass(
            &mut stages,
            &[(Rf, false), (Rb, true), (Df, false), (Db, true)],
        ),
        FunctionKind::DiFd => {
            add_engine_pass(
                &mut stages,
                &[(Rf, false), (Rb, true), (Df, false), (Db, true)],
            );
            stages.push(Stage::new(
                "MatVec",
                matvec_ii(accel, f),
                matvec_ii(accel, f) + 4,
            ));
        }
        FunctionKind::MassMatrix => add_engine_pass(&mut stages, &[(Mb, true)]),
        FunctionKind::MassMatrixInverse => add_engine_pass(&mut stages, &[(Mb, true), (Mf, false)]),
        FunctionKind::Fd => {
            // C via FB and M⁻¹ via BF run concurrently; the critical path
            // is the longer of the two followed by the matvec. We place
            // the BF pass (usually longer) on the path and fold the FB
            // pass in via the bottleneck guarantee below.
            add_engine_pass(&mut stages, &[(Mb, true), (Mf, false)]);
            stages.push(Stage::new(
                "MatVec",
                matvec_ii(accel, f),
                matvec_ii(accel, f) + 4,
            ));
        }
        FunctionKind::DFd => {
            // Stage 1: FD; Stage 2: ΔID (FB again); Stage 3: matvec.
            add_engine_pass(&mut stages, &[(Mb, true), (Mf, false)]);
            stages.push(Stage::new(
                "MatVec1",
                matvec_ii(accel, FunctionKind::Fd),
                10,
            ));
            stages.push(Stage::new("Feedback", 2, 8));
            add_engine_pass(
                &mut stages,
                &[(Rf, false), (Rb, true), (Df, false), (Db, true)],
            );
            let mv = matvec_ii(accel, f);
            stages.push(Stage::new("MatVec2", mv, mv + 4));
        }
    }
    stages.push(tail_stage());

    // Guarantee the global bottleneck is represented.
    let global = bottleneck_ii(accel, f);
    let present = stages.iter().map(|s| s.ii).max().unwrap_or(1);
    if global > present as u64 {
        stages.push(Stage::new("Bottleneck*", global as usize, global as usize));
    }
    PipelineSim::new(stages, accel.config().fifo_capacity)
}

/// The compute initiation interval of one SAP instance: the maximum
/// over all active stages of `task_ii × uses` and the matvec unit.
fn compute_ii(accel: &DaduRbd, f: FunctionKind) -> u64 {
    let mut worst = 1u64;
    for s in accel.fb_stages().iter().chain(accel.bf_stages()) {
        let uses = f.uses(s.kind);
        if uses > 0 {
            worst = worst.max((s.task_ii_cycles() * uses) as u64);
        }
    }
    worst.max(matvec_ii(accel, f) as u64)
}

/// The steady-state initiation interval: the compute interval or the
/// stream interface, whichever is slower.
pub fn bottleneck_ii(accel: &DaduRbd, f: FunctionKind) -> u64 {
    compute_ii(accel, f).max(io_cycles_per_task(accel, f))
}

/// Stream-interface cycles per task at the configured bandwidth.
pub fn io_cycles_per_task(accel: &DaduRbd, f: FunctionKind) -> u64 {
    let bytes = io_bytes_per_task(accel, f) as f64;
    let seconds = bytes / (accel.config().io_gbytes_per_s * 1e9);
    (seconds * accel.config().clock_hz).ceil() as u64
}

/// Produces the estimate for `f` at `batch`. With multiple SAP
/// instances (`AccelConfig::instances`) the batch is split across them
/// (latency unchanged, throughput multiplied, shared stream interface).
pub fn estimate(accel: &DaduRbd, f: FunctionKind, batch: usize) -> TimingEstimate {
    let batch = batch.max(1);
    let instances = accel.config().instances.max(1) as u64;
    let pipe = representative_pipeline(accel, f);
    let latency_cycles = pipe.critical_path_latency() as u64;
    let compute_ii = compute_ii(accel, f);
    let io = io_cycles_per_task(accel, f); // the DRAM interface is shared
    let effective_ii = (compute_ii.div_ceil(instances)).max(io).max(1);
    let per_instance_batch = (batch as u64).div_ceil(instances);
    let batch_cycles = latency_cycles + compute_ii.max(io) * per_instance_batch.saturating_sub(1);
    let clock = accel.config().clock_hz;
    TimingEstimate {
        function: f,
        batch,
        latency_cycles,
        latency_s: latency_cycles as f64 / clock,
        bottleneck_ii: effective_ii,
        throughput_tasks_per_s: clock / effective_ii as f64,
        batch_cycles,
        batch_time_s: batch_cycles as f64 / clock,
        io_bound: io >= compute_ii.div_ceil(instances),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::AccelConfig;
    use rbd_model::robots;

    fn accel(m: &rbd_model::RobotModel) -> DaduRbd {
        DaduRbd::configure(m, AccelConfig::default())
    }

    #[test]
    fn closed_form_matches_pipeline_sim() {
        let d = accel(&robots::iiwa());
        for f in FunctionKind::all() {
            let est = estimate(&d, f, 256);
            let sim = representative_pipeline(&d, f).run(256);
            // The closed form and the cycle simulation agree on latency
            // exactly and on batch makespan within fill/drain effects.
            assert_eq!(sim.first_task_latency, est.latency_cycles, "{f}");
            let rel =
                (sim.total_cycles as f64 - est.batch_cycles as f64).abs() / est.batch_cycles as f64;
            assert!(
                rel < 0.05,
                "{f}: sim {} vs model {}",
                sim.total_cycles,
                est.batch_cycles
            );
        }
    }

    #[test]
    fn derivatives_cost_more_than_id() {
        let d = accel(&robots::iiwa());
        let id = estimate(&d, FunctionKind::Id, 256);
        let did = estimate(&d, FunctionKind::DId, 256);
        assert!(did.latency_cycles > id.latency_cycles);
        assert!(did.bottleneck_ii >= id.bottleneck_ii);
    }

    #[test]
    fn iiwa_difd_latency_near_paper() {
        // §VI-A: 0.76 µs ΔiFD latency on iiwa at 125 MHz. The model
        // should land within ~3× (the simulator is not gate-accurate).
        let d = accel(&robots::iiwa());
        let est = estimate(&d, FunctionKind::DiFd, 1);
        assert!(
            est.latency_s > 0.2e-6 && est.latency_s < 2.5e-6,
            "latency {} µs",
            est.latency_s * 1e6
        );
    }

    #[test]
    fn iiwa_id_throughput_in_paper_regime() {
        // Fig 15b: iiwa ID throughput on the order of 10⁷ tasks/s.
        let d = accel(&robots::iiwa());
        let est = estimate(&d, FunctionKind::Id, 256);
        assert!(
            est.throughput_tasks_per_s > 3e6 && est.throughput_tasks_per_s < 4e7,
            "{}",
            est.throughput_tasks_per_s
        );
    }

    #[test]
    fn atlas_slower_than_iiwa() {
        let di = accel(&robots::iiwa());
        let da = accel(&robots::atlas());
        for f in [FunctionKind::Id, FunctionKind::DId, FunctionKind::DFd] {
            let ti = estimate(&di, f, 256);
            let ta = estimate(&da, f, 256);
            assert!(
                ta.throughput_tasks_per_s < ti.throughput_tasks_per_s,
                "{f}: atlas {} vs iiwa {}",
                ta.throughput_tasks_per_s,
                ti.throughput_tasks_per_s
            );
        }
    }

    #[test]
    fn throughput_flat_after_saturation() {
        // Fig 17: per-task time stabilises once the pipeline saturates.
        let d = accel(&robots::iiwa());
        let t512 = estimate(&d, FunctionKind::DFd, 512);
        let t8192 = estimate(&d, FunctionKind::DFd, 8192);
        let per512 = t512.batch_time_s / 512.0;
        let per8192 = t8192.batch_time_s / 8192.0;
        assert!((per512 - per8192).abs() / per8192 < 0.25);
    }

    #[test]
    fn io_accounting_positive() {
        let d = accel(&robots::atlas());
        for f in FunctionKind::all() {
            assert!(io_bytes_per_task(&d, f) > 0);
            assert!(io_cycles_per_task(&d, f) >= 1);
        }
    }

    #[test]
    fn dfd_derivative_outputs_dominate_io() {
        let d = accel(&robots::atlas());
        let id = io_bytes_per_task(&d, FunctionKind::Id);
        let dfd = io_bytes_per_task(&d, FunctionKind::DFd);
        assert!(dfd > 10 * id);
    }
}
