//! Trajectory optimization and MPC on top of `rbd-dynamics` — the
//! application layer that motivates the accelerator (Fig 1/2 of the
//! paper) and the end-to-end experiment of §VI-B.
//!
//! * [`integrator`] — manifold RK4 integration and exact discrete
//!   sensitivities built from ΔFD (the four serial sub-tasks of Fig 13);
//! * [`ilqr`] — an iterative LQR trajectory optimizer whose "LQ
//!   approximation" phase is the batched dynamics+derivatives workload
//!   the paper profiles in Fig 2c;
//! * [`mppi`] — sampling-based MPC (MPPI rollouts) on the K-lane
//!   lockstep rollout kernels, lane groups fanned over the worker pool;
//! * [`scheduler`] — the Fig 13 pipeline-vs-multithread scheduling model
//!   for partially serial RK4 sensitivity chains.

pub mod ilqr;
pub mod integrator;
pub mod mppi;
pub mod scheduler;

pub use ilqr::{lq_jacobians_batched, Ilqr, IlqrOptions, IlqrResult, LqScratch};
pub use integrator::{rk4_step, rk4_step_with_sensitivity_into, Rk4SensScratch, StepJacobians};
pub use mppi::{Mppi, MppiOptions, MppiScratch, MppiStep};
pub use scheduler::{accel_makespan_cycles, cpu_makespan, ScheduleInputs};
