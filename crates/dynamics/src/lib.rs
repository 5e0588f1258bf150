//! Reference implementations of the rigid-body dynamics functions of
//! Table I of the Dadu-RBD paper.
//!
//! | Function | Definition | Entry point |
//! |----------|------------|-------------|
//! | Inverse dynamics | `τ = ID(q, q̇, q̈, f_ext)` | [`rnea()`] |
//! | Forward dynamics | `q̈ = FD(q, q̇, τ, f_ext)` | [`forward_dynamics`], [`aba()`] |
//! | Mass matrix | `M = M(q)` | [`mminv_gen`] |
//! | Inverse mass matrix | `M⁻¹ = Minv(q)` | [`mminv_gen`] |
//! | Derivatives of ID | `∂_u τ = ΔID(…)` | [`rnea_derivatives`] |
//! | Derivatives of FD | `∂_u q̈ = ΔFD(…)` | [`fd_derivatives`] |
//! | Derivatives of dynamics | `∂_u q̈ = ΔiFD(…, M⁻¹)` | `rbd_accel::DaduRbd::run_difd`, checked against [`fd_derivatives`] |
//!
//! The crate plays the role Pinocchio plays in the paper's evaluation: the
//! software baseline *and* the functional reference against which the
//! accelerator simulator is checked bit-for-bit (up to f64 rounding).
//!
//! # Derivative kernel
//!
//! The analytical ΔID (and hence ΔFD, which evaluates it
//! internally) has one production kernel: the IDSVA composite-quantity
//! formulation ([`rnea_derivatives_idsva_into`], Singh/Russell/Wensing
//! RA-L 2022), which [`rnea_derivatives_into`] calls. The
//! Carpentier–Mansard chain-table expansion survives only as a
//! test-only oracle (`tests/support/expansion.rs`); the two agree to
//! ≤1e-9 on every test model (`tests/backend_equivalence.rs`).
//!
//! # Workspace-reuse convention
//!
//! All algorithms share a [`DynamicsWorkspace`] (model/data split à la
//! Pinocchio): every intermediate per-body/per-DOF table lives in a
//! flat, stride-indexed buffer sized once per model, and the
//! ancestor/subtree DOF index sets driving the sparse traversals are
//! precomputed at construction. Each kernel comes in two forms:
//!
//! * the value-returning form (`rnea_derivatives`, `fd_derivatives`,
//!   `mminv_gen`, `forward_dynamics`) allocates exactly its
//!   output per call;
//! * the `*_into` form writes into caller-reused outputs and performs
//!   **zero heap allocation in steady state** — enforced by a
//!   counting-allocator regression test (`tests/zero_alloc.rs`).
//!
//! Outputs depend only on the call's inputs, never on leftover scratch
//! contents, so reusing one workspace across different states is exact
//! (also under test).
//!
//! # Batch-evaluation convention
//!
//! Independent sampling points — the LQ approximation of an MPC
//! iteration (Fig 2c), the Fig 13 RK4 sensitivity chains — go through
//! [`BatchEval`]: a **persistent worker pool** (spawned once, futex
//! rendezvous per dispatch, allocation-free in steady state) with one
//! workspace plus an optional caller-provided scratch slot per
//! executor, and estimated-FLOP work gating that keeps small batches
//! inline on the caller. The estimates come from [`ops`], the one
//! operation-count model, which also drives the accelerator
//! simulator's timing and resources. Per-point outputs are written to
//! per-point slots, so the result is bit-identical to the serial loop
//! for any worker count. Every entry point runs one dispatch body that hands
//! out lane groups; per-point calls are groups of width 1.
//!
//! # Lane batching
//!
//! MPPI rolls out `K = 4` samples in lockstep ([`rk4_rollout_lanes_into`]);
//! a batch whose size is not a multiple of [`LANE_WIDTH`] pads its last
//! group with copies of a real sample. Lane kernels exist for ABA, RK4 and
//! ΔFD, each lane bit-identical to the scalar reference on its inputs.
//! The lane ABA is the only ABA: [`aba_in_ws`] is its width-1 call,
//! external forces included, and the scalar sweep it is pinned to is a
//! test oracle. Every RK4 step — the lane rollout, the plant's
//! `rk4_step`, iLQR's forward pass and the RK4 sensitivity — is an
//! [`Rk4Stages`] step. [`rnea_in_ws`] stays scalar because it takes
//! external forces; it is on the ΔFD hot path (through
//! [`bias_force_in_ws`]).
//!
//! # One RNEA
//!
//! [`rnea_in_ws`] is [`DynamicsWorkspace::update_kinematics`] followed by
//! [`rnea_sweeps_in_ws`], the forward and backward sweeps over whatever
//! joint transforms the workspace holds. The accelerator simulator's ID
//! and FD bias force run those sweeps too: its Global Trigonometric
//! Module (libm or the Taylor unit) writes the transforms, and with libm
//! its `τ` is [`rnea()`]'s bits.
//!
//! # Example
//!
//! ```
//! use rbd_dynamics::{rnea, forward_dynamics, DynamicsWorkspace};
//! use rbd_model::{robots, random_state};
//!
//! let model = robots::iiwa();
//! let mut ws = DynamicsWorkspace::new(&model);
//! let s = random_state(&model, 1);
//! let qdd = vec![0.1; model.nv()];
//! let tau = rnea(&model, &mut ws, &s.q, &s.qd, &qdd, None);
//! let qdd_back = forward_dynamics(&model, &mut ws, &s.q, &s.qd, &tau, None).unwrap();
//! for (a, b) in qdd.iter().zip(&qdd_back) {
//!     assert!((a - b).abs() < 1e-8);
//! }
//! ```

// In-crate unit tests include the test-support oracles
// (`tests/support/*.rs`), which name this crate `rbd_dynamics`.
#[cfg(test)]
extern crate self as rbd_dynamics;

pub mod aba;
pub mod batch;
pub mod derivatives;
pub mod fd;
pub mod finite_diff;
pub mod idsva;
pub mod lanes;
pub mod mminv;
pub mod ops;
mod pool;
pub mod rnea;
pub mod workspace;

pub use aba::{aba, aba_in_ws};
pub use batch::{BatchEval, SamplePoint, FLOPS_PER_WORKER};
pub use derivatives::{rnea_derivatives, rnea_derivatives_into, RneaDerivatives};
pub use fd::{
    fd_derivatives, fd_derivatives_into, forward_dynamics, forward_dynamics_into, FdDerivatives,
};
pub use finite_diff::{fd_derivatives_numeric, rnea_derivatives_numeric};
pub use idsva::rnea_derivatives_idsva_into;
pub use lanes::{
    fd_derivatives_lanes_into, forward_dynamics_aba_lanes_in_ws, rk4_rollout_lanes_into,
    LaneFdScratch, LaneRolloutScratch, LaneWorkspace, Rk4Stages, LANE_WIDTH,
};
pub use mminv::{mminv_gen, mminv_gen_into, MMinvOutput};
pub use rnea::{bias_force_in_ws, rnea, rnea_in_ws, rnea_sweeps_in_ws};
pub use workspace::DynamicsWorkspace;

/// Error type for dynamics computations that can fail (singular mass
/// matrices and friends).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DynamicsError {
    /// The (sub-)mass matrix was not invertible.
    SingularMassMatrix(rbd_spatial::matn::FactorizationError),
}

impl std::fmt::Display for DynamicsError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::SingularMassMatrix(e) => write!(f, "singular mass matrix: {e}"),
        }
    }
}

impl std::error::Error for DynamicsError {}

impl From<rbd_spatial::matn::FactorizationError> for DynamicsError {
    fn from(e: rbd_spatial::matn::FactorizationError) -> Self {
        Self::SingularMassMatrix(e)
    }
}
