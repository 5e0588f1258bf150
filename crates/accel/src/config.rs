//! Accelerator configuration: binding a robot model to submodules,
//! resource allocations and pipeline parameters ("Dadu-RBD needs to be
//! configured according to the model and parameters of the robot before
//! calculation", §V-B).

use crate::dataflow::{FunctionKind, FunctionOutput};
use crate::functional;
use crate::resources::{self, FpgaDevice, ResourceUsage};
use crate::sap::SapLayout;
use crate::submodule::{Submodule, SubmoduleKind};
use crate::timing::{self, TimingEstimate};
use rbd_dynamics::{fd_derivatives, rnea_derivatives, DynamicsWorkspace};
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
    /// Functional model: the Global Trigonometric Module evaluates the
    /// joint transforms it feeds to `rbd_dynamics::rnea_sweeps_in_ws`
    /// (ID, and FD's bias force `C`) with the Taylor unit instead of
    /// `f64::sin_cos`. Every other function runs its `rbd-dynamics`
    /// kernel with `f64::sin_cos`: `M` and `M⁻¹` (also inside FD) come
    /// from `rbd_dynamics::mminv_gen`, and ΔID, ΔFD and ΔiFD from
    /// `rnea_derivatives` / `fd_derivatives`.
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
                for kind in SubmoduleKind::ALL {
                    let ops = kind.cost(sj, chain, subtree, trailing);
                    let col_lanes =
                        |ii_target: usize| (ops.mul * node.mult).div_ceil(ii_target.max(1));
                    let (engine, lanes) = match kind {
                        SubmoduleKind::Rf | SubmoduleKind::Rb => {
                            (&mut fb, ops.mul.div_ceil(cfg.base_ii))
                        }
                        SubmoduleKind::Df | SubmoduleKind::Db => (&mut fb, col_lanes(ii_fb_target)),
                        SubmoduleKind::Mb | SubmoduleKind::Mf => (&mut bf, col_lanes(ii_bf_target)),
                    };
                    engine.push(Submodule {
                        kind,
                        body: node.body,
                        level: node.level,
                        mult: node.mult,
                        ops,
                        lanes: lanes.max(1),
                    });
                }
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

    /// Resources active for one function's dataflow (drives the power
    /// model): the stages of every family the function fires
    /// ([`FunctionKind::uses`]), plus the trig module and the scheduler.
    pub fn active_resources(&self, function: FunctionKind) -> ResourceUsage {
        let mut total = ResourceUsage::default();
        for s in self.fb.iter().chain(&self.bf) {
            if function.uses(s.kind) > 0 {
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
    // Functional entry points (compute real numbers; see `functional`).
    // The simulator has no RNEA of its own: ID and FD's bias force run
    // `rbd_dynamics::rnea_sweeps_in_ws` over the transforms of its trig
    // module; every other function runs its `rbd-dynamics` kernel.
    // ---------------------------------------------------------------

    /// Inverse dynamics: the trig module's joint transforms fed to the
    /// Rf/Rb sweeps of `rbd_dynamics::rnea_sweeps_in_ws`; with libm
    /// trigonometry `τ` is `rbd_dynamics::rnea`'s bits.
    pub fn run_id(
        &self,
        q: &[f64],
        qd: &[f64],
        qdd: &[f64],
        fext: Option<&[ForceVec]>,
    ) -> FunctionOutput {
        FunctionOutput {
            tau: functional::fb_rnea(&self.model, self.cfg.taylor_trig, q, qd, qdd, fext),
            ..FunctionOutput::default()
        }
    }

    /// Forward dynamics (`M⁻¹(τ-C)` dataflow of Fig 9a).
    pub fn run_fd(
        &self,
        q: &[f64],
        qd: &[f64],
        tau: &[f64],
        fext: Option<&[ForceVec]>,
    ) -> FunctionOutput {
        // ① C = RNEA(q, q̇, 0)   ② M⁻¹ = MMinvGen   ③ q̈ = M⁻¹(τ-C)
        let nv = self.model.nv();
        assert_eq!(tau.len(), nv);
        let c = functional::fb_rnea(
            &self.model,
            self.cfg.taylor_trig,
            q,
            qd,
            &vec![0.0; nv],
            fext,
        );
        let minv = functional::bf(&self.model, q, false);
        FunctionOutput {
            qdd: functional::sched_matvec(&minv, tau, &c),
            minv: Some(minv),
            ..FunctionOutput::default()
        }
    }

    /// Mass matrix (Backward-Forward module, `outM`).
    pub fn run_mass_matrix(&self, q: &[f64]) -> FunctionOutput {
        FunctionOutput {
            m: Some(functional::bf(&self.model, q, true)),
            ..FunctionOutput::default()
        }
    }

    /// Inverse mass matrix (`outMinv`).
    pub fn run_minv(&self, q: &[f64]) -> FunctionOutput {
        FunctionOutput {
            minv: Some(functional::bf(&self.model, q, false)),
            ..FunctionOutput::default()
        }
    }

    /// ΔID (the Dynamics Array's ΔRNEA mode):
    /// `rbd_dynamics::rnea_derivatives`, whose `τ` comes as a by-product.
    pub fn run_did(
        &self,
        q: &[f64],
        qd: &[f64],
        qdd: &[f64],
        fext: Option<&[ForceVec]>,
    ) -> FunctionOutput {
        let mut ws = DynamicsWorkspace::new(&self.model);
        let d = rnea_derivatives(&self.model, &mut ws, q, qd, qdd, fext);
        FunctionOutput {
            tau: d.tau,
            dtau: Some((d.dtau_dq, d.dtau_dqd)),
            ..FunctionOutput::default()
        }
    }

    /// ΔFD — the six-step dataflow with feedback (Fig 9a / 14f):
    /// `rbd_dynamics::fd_derivatives`, which also emits `q̈` and `M⁻¹`.
    pub fn run_dfd(
        &self,
        q: &[f64],
        qd: &[f64],
        tau: &[f64],
        fext: Option<&[ForceVec]>,
    ) -> FunctionOutput {
        let mut ws = DynamicsWorkspace::new(&self.model);
        let d =
            fd_derivatives(&self.model, &mut ws, q, qd, tau, fext).expect("BF module: singular D");
        FunctionOutput {
            qdd: d.qdd,
            minv: Some(d.dqdd_dtau),
            dqdd: Some((d.dqdd_dq, d.dqdd_dqd)),
            ..FunctionOutput::default()
        }
    }

    /// ΔiFD — derivatives with `M⁻¹` supplied by the host (Table I):
    /// `∂q̈ = −M⁻¹ ∂τ`, with `∂τ` from `rbd_dynamics::rnea_derivatives`.
    pub fn run_difd(
        &self,
        q: &[f64],
        qd: &[f64],
        qdd: &[f64],
        minv: &MatN,
        fext: Option<&[ForceVec]>,
    ) -> FunctionOutput {
        let mut ws = DynamicsWorkspace::new(&self.model);
        let d = rnea_derivatives(&self.model, &mut ws, q, qd, qdd, fext);
        FunctionOutput {
            dqdd: Some((
                functional::neg_mul(minv, &d.dtau_dq),
                functional::neg_mul(minv, &d.dtau_dqd),
            )),
            minv: Some(minv.clone()),
            ..FunctionOutput::default()
        }
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
    fn active_resources_follow_the_dataflow() {
        // `M` fires `Mb` alone (Fig 14): its active resources are the `Mb`
        // stages plus trig and scheduler, fewer than `M⁻¹`'s `Mb` + `Mf`.
        for m in [robots::iiwa(), robots::hyq(), robots::atlas()] {
            let d = DaduRbd::configure(&m, AccelConfig::default());
            let mut expected = resources::trig_module_usage(4) + resources::scheduler_usage(m.nv());
            for s in d.bf_stages().iter().filter(|s| s.kind == SubmoduleKind::Mb) {
                expected += resources::submodule_usage(s);
            }
            let mass = d.active_resources(FunctionKind::MassMatrix);
            assert_eq!(mass, expected, "{}", m.name());
            let minv = d.active_resources(FunctionKind::MassMatrixInverse);
            assert!(mass.dsp < minv.dsp, "{}: {mass} vs {minv}", m.name());
        }
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
        // The Feedback Module's loop (§V-B3): each FD result becomes a
        // semi-implicit Euler step.
        let (mut q_acc, mut qd_acc) = (q0.clone(), qd0.clone());
        for _ in 0..20 {
            let out = d.run_fd(&q_acc, &qd_acc, &tau, None);
            for (v, a) in qd_acc.iter_mut().zip(&out.qdd) {
                *v += dt * a;
            }
            q_acc = rbd_model::integrate_config(&m, &q_acc, &qd_acc, dt);
        }

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
