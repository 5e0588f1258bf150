//! # dadu-rbd
//!
//! Facade crate of the Dadu-RBD reproduction (MICRO 2023): a
//! multifunctional robot rigid-body-dynamics accelerator, rebuilt as a
//! functional + cycle-level simulator in Rust together with every
//! substrate it depends on.
//!
//! | Re-export | Contents |
//! |-----------|----------|
//! | [`spatial`] | Featherstone spatial algebra, small dense linear algebra |
//! | [`model`] | joints, links, kinematic trees, the paper's robots |
//! | [`dynamics`] | RNEA, CRBA, ABA, MMinvGen (Alg 2), analytical ΔRNEA/ΔFD |
//! | [`fixed`] | fixed-point datapath, Taylor trig, fast reciprocal |
//! | [`accel`] | the Dadu-RBD simulator (RTP, SAP, dataflow, resources, power) |
//! | [`baselines`] | calibrated CPU/GPU/Robomorphic device models, host harness |
//! | [`trajopt`] | RK4 sensitivities, iLQR, MPPI, Fig 13 scheduling |
//!
//! # Quickstart
//!
//! ```
//! use dadu_rbd::accel::{AccelConfig, DaduRbd, FunctionKind};
//! use dadu_rbd::model::{robots, random_state};
//!
//! let model = robots::iiwa();
//! let accel = DaduRbd::configure(&model, AccelConfig::default());
//! let s = random_state(&model, 0);
//! let out = accel.run_id(&s.q, &s.qd, &vec![0.0; model.nv()], None);
//! assert_eq!(out.tau.len(), 7);
//! let t = accel.estimate(FunctionKind::DiFd, 256);
//! assert!(t.throughput_tasks_per_s > 1e6);
//! ```
//!
//! See `README.md` for the architecture overview (its crate table) and
//! the run commands (its Quickstart);
//! `cargo run -p rbd-bench --bin <figure>` regenerates each evaluation
//! artifact.

pub use rbd_accel as accel;
pub use rbd_baselines as baselines;
pub use rbd_dynamics as dynamics;
pub use rbd_fixed as fixed;
pub use rbd_model as model;
pub use rbd_spatial as spatial;
pub use rbd_trajopt as trajopt;
