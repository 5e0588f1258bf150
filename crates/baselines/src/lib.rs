//! Baseline performance models and measurement harnesses for the
//! evaluation figures (§VI, Table II).
//!
//! Two kinds of baseline are provided:
//!
//! * [`device`] — analytic models of the comparison hardware (Jetson AGX
//!   Orin CPU/GPU, i9-13900HX, RTX 4090M, i7-7700, RTX 2080, and the
//!   Robomorphic FPGA), driven by the *same* per-function operation
//!   counts as the accelerator model ([`function_work`] reads its Fig 14
//!   dataflow table and per-joint submodule costs) and calibrated to
//!   public specs and the paper's anchor numbers;
//! * [`host_cpu`] — real measurements of our own `rbd-dynamics` kernels
//!   on the machine running the benchmarks, the live sanity check that
//!   the relative costs between functions are real. They run on the
//!   persistent `BatchEval` pool the controllers use (one executor or
//!   several), ΔFD through its lane kernel.

pub mod calibration;
pub mod device;
pub mod host_cpu;

pub use calibration::{paper_devices, robomorphic_difd, HwEntry, TABLE2};
pub use device::{function_work, DeviceKind, DeviceModel, WorkEstimate};
pub use host_cpu::{measure_function, thread_scaling, HostMeasurement};
