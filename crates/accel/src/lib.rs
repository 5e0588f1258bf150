//! Dadu-RBD — a functional and cycle-level simulator of the MICRO 2023
//! multifunctional robot rigid-body-dynamics accelerator.
//!
//! The real system is an FPGA design (XCVU9P @ 125 MHz); this crate models
//! it at two coupled levels:
//!
//! * **Functional** (the `DaduRbd::run_*` entry points, [`dataflow`]) —
//!   the Forward-Backward module's submodules (`Rf`/`Rb`/`Df`/`Db`,
//!   Figs 6-7) are explicit stages exchanging `ftr`/`btr`/`dtr` messages
//!   over FIFO streams and computing real numbers; the Backward-Forward
//!   module (`Mb`/`Mf`, Fig 8) runs `rbd_dynamics::mminv_gen`, whose
//!   per-joint backward and forward sweeps are those submodules. Outputs
//!   are asserted equal to the `rbd-dynamics` reference in the
//!   integration tests (`M` and `M⁻¹` bit for bit).
//! * **Timing/resources** ([`ops`], [`pipeline`], [`timing`],
//!   [`resources`], [`power`]) — per-submodule operation counts from the
//!   paper's sparsity analysis (`ops` is `rbd_dynamics::ops`, the same
//!   model that gates `BatchEval`) drive initiation intervals, pipeline
//!   latencies, DSP/FF/LUT usage and power, with a cycle-stepped FIFO
//!   simulation cross-checking the closed-form model.
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
//! // Functional result (computed through the submodule dataflow):
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
