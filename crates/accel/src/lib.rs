//! Dadu-RBD — a functional and cycle-level simulator of the MICRO 2023
//! multifunctional robot rigid-body-dynamics accelerator.
//!
//! The real system is an FPGA design (XCVU9P @ 125 MHz); this crate models
//! it at two coupled levels:
//!
//! * **Functional** (the `DaduRbd::run_*` entry points, [`dataflow`]) —
//!   the simulator has no dynamics sweep of its own; every function runs
//!   its `rbd-dynamics` kernel. Its Global Trigonometric Module builds
//!   the joint transforms (libm, or the Taylor unit as an option) and
//!   feeds them to `rbd_dynamics::rnea_sweeps_in_ws`, the
//!   Forward-Backward module's RNEA mode (`Rf`/`Rb`, Fig 6), for ID and
//!   FD's bias force. The Backward-Forward module (`Mb`/`Mf`, Fig 8) is
//!   `rbd_dynamics::mminv_gen`, whose per-joint backward and forward
//!   sweeps are those submodules, and ΔID, ΔFD and ΔiFD (the ΔRNEA mode,
//!   Fig 7) are `rnea_derivatives` and `fd_derivatives`; the `Df`/`Db`
//!   column structure of §IV-A4 lives on in the timing model's `Df`/`Db`
//!   submodules. Outputs are asserted equal to the `rbd-dynamics`
//!   reference in the integration tests (ID and FD with libm, `M`,
//!   `M⁻¹`, ΔID and ΔFD bit for bit).
//! * **Timing/resources** ([`ops`], [`pipeline`], [`timing`],
//!   [`resources`], [`power`]) — the Fig 14 dataflow is written once:
//!   [`FunctionKind::uses`] says which submodule families a function
//!   fires and how often, [`FunctionKind::matvec_columns`] what it pushes
//!   through the schedule module's matrix unit. The timing model, the
//!   active resources behind the power model and
//!   `rbd_baselines::function_work` all read that table, and each
//!   family's per-joint cost is [`SubmoduleKind::cost`], over the
//!   operation counts of the paper's sparsity analysis (`ops` is
//!   `rbd_dynamics::ops`, the same model that gates `BatchEval`). They
//!   drive initiation intervals, pipeline latencies, DSP/FF/LUT usage
//!   and power, with a cycle-stepped FIFO simulation cross-checking the
//!   closed-form model.
//!
//! The entry point is [`DaduRbd`]:
//!
//! ```
//! use rbd_accel::{AccelConfig, DaduRbd, FunctionKind};
//! use rbd_model::{robots, random_state};
//!
//! let model = robots::iiwa();
//! let accel = DaduRbd::configure(&model, AccelConfig::default());
//! let s = random_state(&model, 0);
//! // Functional result (`rnea`'s bits, fed by the trig module):
//! let out = accel.run_id(&s.q, &s.qd, &vec![0.0; model.nv()], None);
//! assert_eq!(out.tau.len(), model.nv());
//! // Timing estimate for a 256-task batch:
//! let t = accel.estimate(FunctionKind::Id, 256);
//! assert!(t.throughput_tasks_per_s > 0.0);
//! ```

pub mod config;
pub mod dataflow;
mod functional;
pub mod pipeline;
pub mod power;
pub mod resources;
pub mod sap;
pub mod stream;
pub mod submodule;
pub mod timing;

pub use config::{AccelConfig, DaduRbd, RootMode};
pub use dataflow::{FunctionKind, FunctionOutput};
pub use ops::{delta_fd_flops, rk4_sens_point_flops, OpCount};
pub use pipeline::{PipelineSim, SimResult, Stage};
pub use power::PowerModel;
pub use rbd_dynamics::ops;
pub use resources::{FpgaDevice, ResourceUsage};
pub use sap::{BranchArray, SapLayout};
pub use stream::{decode_task, encode_task, TaskPacket};
pub use submodule::{Submodule, SubmoduleKind};
pub use timing::TimingEstimate;
