//! Accelerator configuration: binding a robot model to submodules,
//! resource allocations and pipeline parameters ("Dadu-RBD needs to be
//! configured according to the model and parameters of the robot before
//! calculation", §V-B).

use crate::dataflow::{FunctionKind, FunctionOutput};
use crate::functional::FunctionalEngine;
use crate::ops::{self, OpCount};
use crate::resources::{self, FpgaDevice, ResourceUsage};
use crate::sap::SapLayout;
use crate::submodule::{Submodule, SubmoduleKind};
use crate::timing::{self, TimingEstimate};
use rbd_model::{JointType, RobotModel};
use rbd_spatial::{ForceVec, MatN};

/// How the root (base link) submodules operate (§V-C5).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum RootMode {
    /// Treat the virtual base joint as an ordinary joint.
    Standard,
    /// Split a 6-DOF floating base into spherical + 3-DOF-translation
    /// stages (the paper's default — reduces root complexity).
    #[default]
    Split,
    /// The base state is provided by the host; root dynamics skipped.
    StateProvided,
}

/// Tunable parameters of the accelerator instance.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AccelConfig {
    /// Clock frequency (the paper's design closes timing at 125 MHz).
    pub clock_hz: f64,
    /// Compute-cycle target per activation for `Rf`/`Rb` stages.
    pub base_ii: usize,
    /// Cycles per live column in `Df`/`Db`/`Mb`/`Mf` stages.
    pub col_ii: usize,
    /// Columns processed in parallel by deep column stages.
    pub col_parallel: usize,
    /// FIFO depth between stages (bypass buffers, §IV-A).
    pub fifo_capacity: usize,
    /// Apply the depth-minimising re-rooting (§V-C1).
    pub auto_reroot: bool,
    /// Root handling mode.
    pub root_mode: RootMode,
    /// Memory interface bandwidth (the evaluation caps it at 32 GB/s).
    pub io_gbytes_per_s: f64,
    /// Bytes per streamed scalar (32-bit fixed-point words).
    pub word_bytes: usize,
    /// Functional model: evaluate the Forward-Backward module's
    /// trigonometry (ID, ΔID and the RNEA stages of FD and ΔFD) with the
    /// Taylor unit instead of `f64::sin_cos`. The Backward-Forward
    /// module's `M` and `M⁻¹` (also inside FD and ΔFD) always come from
    /// `rbd_dynamics::mminv_gen` with `f64::sin_cos`.
    pub taylor_trig: bool,
    /// Number of independent SAP instances ("If we want to further
    /// improve throughput, we can instantiate multiple SAPs", §VI-A).
    /// Resources scale with instances; lanes shrink if the device
    /// overflows.
    pub instances: usize,
}

impl Default for AccelConfig {
    fn default() -> Self {
        Self {
            clock_hz: 125e6,
            base_ii: 6,
            col_ii: 4,
            col_parallel: 2,
            fifo_capacity: 16,
            auto_reroot: true,
            root_mode: RootMode::Split,
            io_gbytes_per_s: 32.0,
            word_bytes: 4,
            taylor_trig: false,
            instances: 1,
        }
    }
}

/// A configured Dadu-RBD instance for one robot model.
#[derive(Debug, Clone)]
pub struct DaduRbd {
    model: RobotModel,
    cfg: AccelConfig,
    layout: SapLayout,
    /// Forward-Backward Module stages (Rf/Rb/Df/Db per hardware node).
    fb: Vec<Submodule>,
    /// Backward-Forward Module stages (Mb/Mf per hardware node).
    bf: Vec<Submodule>,
}

impl DaduRbd {
    /// Configures the accelerator for `model` (the once-per-robot-model
    /// synthesis step of §V).
    pub fn configure(model: &RobotModel, cfg: AccelConfig) -> Self {
        let layout = SapLayout::build(model, cfg.auto_reroot);
        let mut fb = Vec::new();
        let mut bf = Vec::new();
        let nv = model.nv();

        // Column-stage initiation targets are set by the *deepest* stage
        // of each engine (§IV-A4: deeper submodules are the inevitable
        // bottleneck; shallower ones reuse resources aggressively, which
        // here means fewer lanes at the same per-task interval). Stages
        // serving merged symmetric limbs get proportionally more lanes so
        // their doubled activation rate still meets the target (§V-C2).
        let max_fb_cols = layout
            .nodes
            .iter()
            .map(|n| layout.chain_dofs(model, layout.new_id_of(n.body)))
            .max()
            .unwrap_or(1);
        let max_bf_cols = layout
            .nodes
            .iter()
            .map(|n| {
                let id = layout.new_id_of(n.body);
                layout.subtree_dofs(model, id).max(nv)
            })
            .max()
            .unwrap_or(1);
        let ii_fb_target = max_fb_cols.div_ceil(cfg.col_parallel).max(1) * cfg.col_ii;
        let ii_bf_target = max_bf_cols.div_ceil(cfg.col_parallel).max(1) * cfg.col_ii;

        for node in &layout.nodes {
            let new_id = layout.new_id_of(node.body);
            let chain = layout.chain_dofs(model, new_id);
            let subtree = layout.subtree_dofs(model, new_id);
            let jt = model.joint(node.body).jtype;
            let ni = jt.nv();
            let trailing = nv - (chain - ni);

            // Root split: the 6-DOF floating joint contributes two
            // cheaper stage pairs (spherical + translation) instead of
            // one — wherever re-rooting placed it in the pipeline.
            let stage_joints: Vec<JointType> =
                if cfg.root_mode == RootMode::Split && jt == JointType::Floating {
                    vec![JointType::Spherical, JointType::Translation3]
                } else if node.level == 1 && cfg.root_mode == RootMode::StateProvided {
                    Vec::new()
                } else {
                    vec![jt]
                };

            for sj in &stage_joints {
                let mk = |kind: SubmoduleKind, ops: OpCount, lanes: usize| Submodule {
                    kind,
                    body: node.body,
                    level: node.level,
                    mult: node.mult,
                    ops,
                    lanes: lanes.max(1),
                };
                let base_lanes = |ops: &OpCount| ops.mul.div_ceil(cfg.base_ii).max(1);
                let col_lanes = |ops: &OpCount, ii_target: usize| {
                    (ops.mul * node.mult).div_ceil(ii_target.max(1)).max(1)
                };

                let rf = ops::rf_cost(sj);
                let rb = ops::rb_cost(sj);
                let df = ops::df_cost(sj, chain);
                let db = ops::db_cost(sj, chain);
                let mb = ops::mb_cost(sj, subtree);
                let mf = ops::mf_cost(sj, trailing);

                fb.push(mk(SubmoduleKind::Rf, rf, base_lanes(&rf)));
                fb.push(mk(SubmoduleKind::Rb, rb, base_lanes(&rb)));
                fb.push(mk(SubmoduleKind::Df, df, col_lanes(&df, ii_fb_target)));
                fb.push(mk(SubmoduleKind::Db, db, col_lanes(&db, ii_fb_target)));
                bf.push(mk(SubmoduleKind::Mb, mb, col_lanes(&mb, ii_bf_target)));
                bf.push(mk(SubmoduleKind::Mf, mf, col_lanes(&mf, ii_bf_target)));
            }
        }

        let mut accel = Self {
            model: model.clone(),
            cfg,
            layout,
            fb,
            bf,
        };
        accel.fit_to_device();
        accel
    }

    /// The paper's "more aggressive resource reuse" (§IV-A4): when the
    /// naive allocation exceeds the device budget, lanes are scaled down
    /// uniformly (initiation intervals grow correspondingly).
    fn fit_to_device(&mut self) {
        let budget = (self.device().dsp as f64 * 0.92) as usize;
        for _ in 0..16 {
            let used = self.resource_usage().dsp;
            if used <= budget {
                break;
            }
            let scale = budget as f64 / used as f64;
            for s in self.fb.iter_mut().chain(self.bf.iter_mut()) {
                s.lanes = ((s.lanes as f64 * scale).floor() as usize).max(1);
            }
        }
    }

    /// The configured model.
    pub fn model(&self) -> &RobotModel {
        &self.model
    }

    /// The configuration.
    pub fn config(&self) -> &AccelConfig {
        &self.cfg
    }

    /// The SAP organisation.
    pub fn layout(&self) -> &SapLayout {
        &self.layout
    }

    /// Forward-Backward Module stages.
    pub fn fb_stages(&self) -> &[Submodule] {
        &self.fb
    }

    /// Backward-Forward Module stages.
    pub fn bf_stages(&self) -> &[Submodule] {
        &self.bf
    }

    /// Timing estimate for a function at a batch size (§VI-A
    /// methodology).
    pub fn estimate(&self, function: FunctionKind, batch: usize) -> TimingEstimate {
        timing::estimate(self, function, batch)
    }

    /// Total resource usage of the configuration (all engines + the
    /// scheduling system + the trigonometric module), across all SAP
    /// instances.
    pub fn resource_usage(&self) -> ResourceUsage {
        let mut per_instance = ResourceUsage::default();
        for s in self.fb.iter().chain(&self.bf) {
            per_instance += resources::submodule_usage(s);
        }
        let n_trig = (0..self.model.num_bodies())
            .filter(|&i| self.model.joint(i).jtype.uses_trig())
            .count()
            .max(1);
        per_instance += resources::trig_module_usage(n_trig.min(8));
        per_instance += resources::scheduler_usage(self.model.nv());
        let k = self.cfg.instances.max(1);
        ResourceUsage {
            dsp: per_instance.dsp * k,
            ff: per_instance.ff * k,
            lut: per_instance.lut * k,
            bram: per_instance.bram * k,
        }
    }

    /// Functional feedback loop (§V-B3): the Schedule Module combines
    /// each FD result with the state into a new integration step and the
    /// Feedback Module requeues it — `steps` semi-implicit Euler steps
    /// entirely on-accelerator. Returns the final `(q, q̇)`.
    ///
    /// # Panics
    /// Panics on dimension mismatch or singular dynamics.
    pub fn run_fd_integrate(
        &self,
        q: &[f64],
        qd: &[f64],
        tau: &[f64],
        dt: f64,
        steps: usize,
    ) -> (Vec<f64>, Vec<f64>) {
        let mut q = q.to_vec();
        let mut qd = qd.to_vec();
        for _ in 0..steps {
            let out = self.run_fd(&q, &qd, tau, None);
            for (v, a) in qd.iter_mut().zip(&out.qdd) {
                *v += dt * a;
            }
            q = rbd_model::integrate_config(&self.model, &q, &qd, dt);
        }
        (q, qd)
    }

    /// Resources active for one function's dataflow (drives the power
    /// model).
    pub fn active_resources(&self, function: FunctionKind) -> ResourceUsage {
        let mut total = ResourceUsage::default();
        let fb_kinds: &[SubmoduleKind] = match function {
            FunctionKind::Id => &[SubmoduleKind::Rf, SubmoduleKind::Rb],
            FunctionKind::MassMatrix | FunctionKind::MassMatrixInverse => &[],
            FunctionKind::Fd => &[SubmoduleKind::Rf, SubmoduleKind::Rb],
            FunctionKind::DId | FunctionKind::DiFd => &[
                SubmoduleKind::Rf,
                SubmoduleKind::Rb,
                SubmoduleKind::Df,
                SubmoduleKind::Db,
            ],
            FunctionKind::DFd => &[
                SubmoduleKind::Rf,
                SubmoduleKind::Rb,
                SubmoduleKind::Df,
                SubmoduleKind::Db,
            ],
        };
        let bf_active = matches!(
            function,
            FunctionKind::MassMatrix
                | FunctionKind::MassMatrixInverse
                | FunctionKind::Fd
                | FunctionKind::DFd
        );
        for s in &self.fb {
            if fb_kinds.contains(&s.kind) {
                total += resources::submodule_usage(s);
            }
        }
        if bf_active {
            for s in &self.bf {
                total += resources::submodule_usage(s);
            }
        }
        total += resources::trig_module_usage(4);
        total += resources::scheduler_usage(self.model.nv());
        total
    }

    /// The target device.
    pub fn device(&self) -> FpgaDevice {
        FpgaDevice::xcvu9p()
    }

    // ---------------------------------------------------------------
    // Functional entry points (compute real numbers through the
    // submodule dataflow; see `functional`).
    // ---------------------------------------------------------------

    /// Inverse dynamics through the Rf/Rb round-trip pipeline.
    pub fn run_id(
        &self,
        q: &[f64],
        qd: &[f64],
        qdd: &[f64],
        fext: Option<&[ForceVec]>,
    ) -> FunctionOutput {
        FunctionalEngine::new(&self.model, self.cfg.taylor_trig).run(
            FunctionKind::Id,
            q,
            qd,
            qdd,
            None,
            fext,
        )
    }

    /// Forward dynamics (`M⁻¹(τ-C)` dataflow of Fig 9a).
    pub fn run_fd(
        &self,
        q: &[f64],
        qd: &[f64],
        tau: &[f64],
        fext: Option<&[ForceVec]>,
    ) -> FunctionOutput {
        FunctionalEngine::new(&self.model, self.cfg.taylor_trig).run(
            FunctionKind::Fd,
            q,
            qd,
            tau,
            None,
            fext,
        )
    }

    /// Mass matrix (Backward-Forward module, `outM`).
    pub fn run_mass_matrix(&self, q: &[f64]) -> FunctionOutput {
        let zero = vec![0.0; self.model.nv()];
        FunctionalEngine::new(&self.model, self.cfg.taylor_trig).run(
            FunctionKind::MassMatrix,
            q,
            &zero,
            &zero,
            None,
            None,
        )
    }

    /// Inverse mass matrix (`outMinv`).
    pub fn run_minv(&self, q: &[f64]) -> FunctionOutput {
        let zero = vec![0.0; self.model.nv()];
        FunctionalEngine::new(&self.model, self.cfg.taylor_trig).run(
            FunctionKind::MassMatrixInverse,
            q,
            &zero,
            &zero,
            None,
            None,
        )
    }

    /// ΔID through the Dynamics Array.
    pub fn run_did(
        &self,
        q: &[f64],
        qd: &[f64],
        qdd: &[f64],
        fext: Option<&[ForceVec]>,
    ) -> FunctionOutput {
        FunctionalEngine::new(&self.model, self.cfg.taylor_trig).run(
            FunctionKind::DId,
            q,
            qd,
            qdd,
            None,
            fext,
        )
    }

    /// ΔFD — the full six-step dataflow with feedback (Fig 9a / 14f).
    pub fn run_dfd(
        &self,
        q: &[f64],
        qd: &[f64],
        tau: &[f64],
        fext: Option<&[ForceVec]>,
    ) -> FunctionOutput {
        FunctionalEngine::new(&self.model, self.cfg.taylor_trig).run(
            FunctionKind::DFd,
            q,
            qd,
            tau,
            None,
            fext,
        )
    }

    /// ΔiFD — derivatives with `M⁻¹` supplied by the host (Table I).
    pub fn run_difd(
        &self,
        q: &[f64],
        qd: &[f64],
        qdd: &[f64],
        minv: &MatN,
        fext: Option<&[ForceVec]>,
    ) -> FunctionOutput {
        FunctionalEngine::new(&self.model, self.cfg.taylor_trig).run(
            FunctionKind::DiFd,
            q,
            qd,
            qdd,
            Some(minv),
            fext,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rbd_model::robots;

    #[test]
    fn configure_builds_all_stage_kinds() {
        let m = robots::iiwa();
        let d = DaduRbd::configure(&m, AccelConfig::default());
        assert_eq!(d.fb_stages().len(), 4 * 7);
        assert_eq!(d.bf_stages().len(), 2 * 7);
    }

    #[test]
    fn floating_root_splits_into_two_stage_pairs() {
        let m = robots::hyq();
        let split = DaduRbd::configure(&m, AccelConfig::default());
        let std = DaduRbd::configure(
            &m,
            AccelConfig {
                root_mode: RootMode::Standard,
                ..AccelConfig::default()
            },
        );
        // 7 hw nodes; split root adds one extra stage set.
        assert_eq!(std.fb_stages().len(), 4 * 7);
        assert_eq!(split.fb_stages().len(), 4 * 8);
        // The split root stages are individually cheaper than the fused
        // 6-DOF root stage.
        let max_root_mul_split = split
            .fb_stages()
            .iter()
            .filter(|s| s.level == 1 && s.kind == SubmoduleKind::Rf)
            .map(|s| s.ops.mul)
            .max()
            .unwrap();
        let root_mul_std = std
            .fb_stages()
            .iter()
            .find(|s| s.level == 1 && s.kind == SubmoduleKind::Rf)
            .unwrap()
            .ops
            .mul;
        assert!(max_root_mul_split < root_mul_std);
    }

    #[test]
    fn resources_fit_device_for_paper_robots() {
        for m in robots::paper_robots() {
            let d = DaduRbd::configure(&m, AccelConfig::default());
            let u = d.resource_usage();
            assert!(d.device().fits(&u), "{} does not fit: {u}", m.name());
        }
    }

    #[test]
    fn quadruped_arm_utilization_near_paper() {
        // §VI-C: 62% DSP / 17% FF / 54% LUT for the quadruped-with-arm
        // configuration. The model should land in the same regime.
        let m = robots::quadruped_arm();
        let d = DaduRbd::configure(&m, AccelConfig::default());
        let (dsp, ff, lut, _) = d.device().utilization(&d.resource_usage());
        assert!((0.3..0.9).contains(&dsp), "DSP {dsp}");
        assert!((0.05..0.45).contains(&ff), "FF {ff}");
        assert!((0.2..0.95).contains(&lut), "LUT {lut}");
    }

    #[test]
    fn deeper_df_stages_get_more_lanes() {
        // Fig 7c: resources grow with level.
        let m = robots::iiwa();
        let d = DaduRbd::configure(&m, AccelConfig::default());
        let mut dfs: Vec<(usize, usize)> = d
            .fb_stages()
            .iter()
            .filter(|s| s.kind == SubmoduleKind::Df)
            .map(|s| (s.level, s.lanes))
            .collect();
        dfs.sort();
        assert!(dfs.last().unwrap().1 > dfs.first().unwrap().1);
    }

    #[test]
    fn active_resources_smaller_than_total() {
        let m = robots::hyq();
        let d = DaduRbd::configure(&m, AccelConfig::default());
        let act = d.active_resources(FunctionKind::Id);
        let tot = d.resource_usage();
        assert!(act.dsp < tot.dsp);
    }

    #[test]
    fn second_sap_instance_raises_throughput_until_device_full() {
        let m = robots::iiwa();
        let one = DaduRbd::configure(&m, AccelConfig::default());
        let two = DaduRbd::configure(
            &m,
            AccelConfig {
                instances: 2,
                ..AccelConfig::default()
            },
        );
        // Both configurations still fit the device (lanes shrink if
        // needed)…
        assert!(two.device().fits(&two.resource_usage()));
        // …and two instances give more dID throughput than one.
        let t1 = one.estimate(FunctionKind::DId, 512).throughput_tasks_per_s;
        let t2 = two.estimate(FunctionKind::DId, 512).throughput_tasks_per_s;
        assert!(t2 > 1.3 * t1, "2 SAPs {t2} vs 1 SAP {t1}");
        // Latency is not improved by replication.
        assert!(
            two.estimate(FunctionKind::DId, 1).latency_cycles
                >= one.estimate(FunctionKind::DId, 1).latency_cycles
        );
    }

    #[test]
    fn feedback_integration_matches_host_integrator() {
        use rbd_dynamics::DynamicsWorkspace;
        let m = robots::iiwa();
        let d = DaduRbd::configure(&m, AccelConfig::default());
        let q0 = m.neutral_config();
        let qd0 = vec![0.1; m.nv()];
        let tau = vec![0.2; m.nv()];
        let dt = 1e-3;
        let (q_acc, qd_acc) = d.run_fd_integrate(&q0, &qd0, &tau, dt, 20);

        let mut ws = DynamicsWorkspace::new(&m);
        let (mut q, mut qd) = (q0, qd0);
        for _ in 0..20 {
            let qdd = rbd_dynamics::forward_dynamics(&m, &mut ws, &q, &qd, &tau, None).unwrap();
            for (v, a) in qd.iter_mut().zip(&qdd) {
                *v += dt * a;
            }
            q = rbd_model::integrate_config(&m, &q, &qd, dt);
        }
        for k in 0..m.nv() {
            assert!((q_acc[k] - q[k]).abs() < 1e-9);
            assert!((qd_acc[k] - qd[k]).abs() < 1e-9);
        }
    }
}
