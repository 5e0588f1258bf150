//! Featherstone spatial vector algebra and small dense linear algebra.
//!
//! This crate is the numerical substrate of the Dadu-RBD reproduction. It
//! implements, from scratch:
//!
//! * 3-D primitives: [`Vec3`], [`Mat3`], [`Quat`];
//! * 6-D spatial vectors: [`MotionVec`] (`[ω; v]`) and [`ForceVec`]
//!   (`[n; f]`) with the spatial cross operators `×` (motion) and `×*`
//!   (force);
//! * Plücker coordinate transforms [`Xform`] (`^B X_A`);
//! * rigid-body spatial inertia [`SpatialInertia`] and general symmetric
//!   6×6 matrices [`Mat6`] (articulated-body inertias);
//! * dynamically sized vectors/matrices [`VecN`]/[`MatN`] with LDLᵀ and
//!   Cholesky factorisations used by the mass-matrix experiments.
//!
//! # Conventions
//!
//! All conventions follow Featherstone, *Rigid Body Dynamics Algorithms*
//! (2008): a motion vector stacks angular on top of linear coordinates, a
//! Plücker transform `^B X_A = [E 0; -E r× E]` is described by the rotation
//! `E` (A→B coordinates) and the position `r` of B's origin expressed in A.
//!
//! # Example
//!
//! ```
//! use rbd_spatial::{MotionVec, Vec3, Xform};
//!
//! let x = Xform::rot_z(std::f64::consts::FRAC_PI_2).with_translation(Vec3::new(1.0, 0.0, 0.0));
//! let v = MotionVec::new(Vec3::new(0.0, 0.0, 1.0), Vec3::zero());
//! let vb = x.apply_motion(&v);
//! assert!((vb.ang().z() - 1.0).abs() < 1e-12);
//! ```

pub mod inertia;
pub mod lane;
pub mod mat3;
pub mod mat6;
pub mod matn;
pub mod quat;
pub mod spatial_vec;
pub mod vec3;
pub mod xform;

pub use inertia::{InertiaRate, SpatialInertia};
pub use lane::{
    LaneForceVec, LaneInertiaRate, LaneMat3, LaneMat6, LaneMotionVec, LaneSpatialInertia, LaneVec3,
    LaneXform, DEFAULT_LANE_WIDTH,
};
pub use mat3::Mat3;
pub use mat6::Mat6;
pub use matn::{MatN, VecN};
pub use quat::Quat;
pub use spatial_vec::{ForceVec, MotionVec};
pub use vec3::Vec3;
pub use xform::Xform;

/// Largest absolute entry of `xs` (0 when empty), NaN as soon as any
/// entry is NaN: a fold with `f64::max` would drop it and read 0, so a
/// `max_abs() < tol` check would pass on NaN.
pub(crate) fn max_abs_of(xs: &[f64]) -> f64 {
    xs.iter().fold(0.0, |m: f64, &x| {
        if m.is_nan() || x.is_nan() {
            f64::NAN
        } else {
            m.max(x.abs())
        }
    })
}
