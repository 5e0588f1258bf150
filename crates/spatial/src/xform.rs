//! Plücker coordinate transforms between spatial frames.

use crate::{ForceVec, Mat3, MotionVec, Vec3};
use std::fmt;

/// A Plücker transform `^B X_A` describing frame B relative to frame A.
///
/// * `rot` is the coordinate rotation `E` (maps A-coordinates of a free
///   vector into B-coordinates);
/// * `trans` is `r`, the position of B's origin expressed in A.
///
/// The motion-vector matrix is `[E 0; -E r× E]`; the force-vector
/// (dual) matrix is `[E -E r×; 0 E]`.
///
/// The apply kernels below are straight-line unrolled multiply–add
/// chains over the flat `[f64; 6]` vector backing; the `*_batch` entry
/// points apply one transform to a contiguous run of vectors so `E` and
/// `r` stay in registers across the whole sweep.
///
/// # Example
/// ```
/// use rbd_spatial::{Xform, MotionVec, Vec3};
/// // Frame B: translated 1m along A's x axis, same orientation.
/// let x = Xform::translation(Vec3::unit_x());
/// // A pure rotation about A's z axis, seen from B, gains a linear term.
/// let v = MotionVec::new(Vec3::unit_z(), Vec3::zero());
/// let vb = x.apply_motion(&v);
/// // The body point at B's origin moves at ω × r = +ŷ.
/// assert!((vb.lin() - Vec3::new(0.0, 1.0, 0.0)).max_abs() < 1e-14);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Xform {
    /// Coordinate rotation `E` (A→B).
    pub rot: Mat3,
    /// Origin of B expressed in A coordinates.
    pub trans: Vec3,
}

impl Default for Xform {
    fn default() -> Self {
        Self::identity()
    }
}

impl Xform {
    /// Creates a transform from a coordinate rotation and a translation.
    #[inline]
    pub const fn new(rot: Mat3, trans: Vec3) -> Self {
        Self { rot, trans }
    }

    /// The identity transform.
    #[inline]
    pub const fn identity() -> Self {
        Self::new(Mat3::identity(), Vec3::zero())
    }

    /// Pure translation: B's origin at `r` (A coordinates), axes aligned.
    #[inline]
    pub fn translation(r: Vec3) -> Self {
        Self::new(Mat3::identity(), r)
    }

    /// Pure coordinate rotation about Z by `theta`: B is A rotated by
    /// `+theta` about A's z axis, so `E = R_z(θ)ᵀ`.
    pub fn rot_z(theta: f64) -> Self {
        Self::new(Mat3::rotation_z(theta).transpose(), Vec3::zero())
    }

    /// Pure coordinate rotation of `theta` about an arbitrary unit `axis`.
    pub fn rot_axis(axis: Vec3, theta: f64) -> Self {
        Self::new(Mat3::rotation_axis(axis, theta).transpose(), Vec3::zero())
    }

    /// Returns a copy with the translation replaced.
    #[inline]
    pub fn with_translation(mut self, r: Vec3) -> Self {
        self.trans = r;
        self
    }

    /// Transforms a motion vector from A-coordinates to B-coordinates:
    /// `v_B = [E 0; -E r× E] v_A`.
    #[inline(always)]
    pub fn apply_motion(&self, v: &MotionVec) -> MotionVec {
        let ang = self.rot * v.ang();
        let lin = self.rot * (v.lin() - self.trans.cross(&v.ang()));
        MotionVec::new(ang, lin)
    }

    /// Transforms a motion vector from B-coordinates back to A-coordinates
    /// (the inverse of [`Self::apply_motion`]).
    #[inline(always)]
    pub fn inv_apply_motion(&self, v: &MotionVec) -> MotionVec {
        let ang = self.rot.tr_mul_vec(&v.ang());
        let lin = self.rot.tr_mul_vec(&v.lin()) + self.trans.cross(&ang);
        MotionVec::new(ang, lin)
    }

    /// Transforms a force vector from A-coordinates to B-coordinates:
    /// `f_B = [E -E r×; 0 E] f_A`.
    #[inline(always)]
    pub fn apply_force(&self, f: &ForceVec) -> ForceVec {
        let lin = self.rot * f.lin();
        let ang = self.rot * (f.ang() - self.trans.cross(&f.lin()));
        ForceVec::new(ang, lin)
    }

    /// Transforms a force vector from B-coordinates back to A-coordinates
    /// (`^A X_B^* f`, the adjoint used by the RNEA backward pass).
    #[inline(always)]
    pub fn inv_apply_force(&self, f: &ForceVec) -> ForceVec {
        let lin = self.rot.tr_mul_vec(&f.lin());
        let ang = self.rot.tr_mul_vec(&f.ang()) + self.trans.cross(&lin);
        ForceVec::new(ang, lin)
    }

    /// Batched [`Self::apply_motion`]: `dst[k] = X · src[k]` over a
    /// contiguous run of motion vectors.
    ///
    /// # Panics
    /// Panics if `dst.len() != src.len()`.
    #[inline]
    pub fn apply_motion_batch(&self, src: &[MotionVec], dst: &mut [MotionVec]) {
        assert_eq!(src.len(), dst.len(), "apply_motion_batch length");
        for (d, s) in dst.iter_mut().zip(src) {
            *d = self.apply_motion(s);
        }
    }

    /// Batched [`Self::inv_apply_motion`]: `dst[k] = X⁻¹ · src[k]` (e.g.
    /// lifting all motion-subspace columns of a joint into world
    /// coordinates in one sweep).
    ///
    /// # Panics
    /// Panics if `dst.len() != src.len()`.
    #[inline]
    pub fn inv_apply_motion_batch(&self, src: &[MotionVec], dst: &mut [MotionVec]) {
        assert_eq!(src.len(), dst.len(), "inv_apply_motion_batch length");
        for (d, s) in dst.iter_mut().zip(src) {
            *d = self.inv_apply_motion(s);
        }
    }

    /// In-place batched [`Self::inv_apply_force`]: `fs[k] = X* · fs[k]`
    /// (the CRBA ancestor walk shifting a joint's force columns one link
    /// up the chain).
    #[inline]
    pub fn inv_apply_force_batch_in_place(&self, fs: &mut [ForceVec]) {
        for f in fs.iter_mut() {
            *f = self.inv_apply_force(f);
        }
    }

    /// Batched accumulating [`Self::inv_apply_force`] over an index set:
    /// `dst[j] += X* · src[j]` for every `j` in `idx` — the
    /// child-to-parent force-table propagation of the MMinvGen backward
    /// sweep, with `E` and `r` hoisted out of the column loop.
    ///
    /// # Panics
    /// Panics if an index is out of bounds for `src` or `dst`.
    #[inline]
    pub fn inv_apply_force_accum(
        &self,
        src: &[ForceVec],
        dst: &mut [ForceVec],
        idx: impl IntoIterator<Item = usize>,
    ) {
        for j in idx {
            dst[j] += self.inv_apply_force(&src[j]);
        }
    }

    /// Composition: if `self = ^C X_B` and `rhs = ^B X_A`, returns `^C X_A`.
    #[inline]
    pub fn compose(&self, rhs: &Xform) -> Xform {
        Xform::new(
            self.rot * rhs.rot,
            rhs.trans + rhs.rot.tr_mul_vec(&self.trans),
        )
    }

    /// The inverse transform `^A X_B`.
    #[inline]
    pub fn inverse(&self) -> Xform {
        Xform::new(self.rot.transpose(), -(self.rot * self.trans))
    }
}

impl fmt::Display for Xform {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Xform(E={} r={})", self.rot, self.trans)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn arbitrary_xform() -> Xform {
        Xform::rot_axis(Vec3::new(0.3, -0.5, 0.8).normalized(), 1.234)
            .with_translation(Vec3::new(0.7, -0.2, 1.5))
    }

    #[test]
    fn motion_roundtrip() {
        let x = arbitrary_xform();
        let v = MotionVec::from_slice(&[0.1, 0.2, -0.3, 1.0, -2.0, 0.5]);
        let back = x.inv_apply_motion(&x.apply_motion(&v));
        assert!((back - v).max_abs() < 1e-12);
    }

    #[test]
    fn force_roundtrip() {
        let x = arbitrary_xform();
        let f = ForceVec::from_slice(&[2.0, -0.1, 0.4, 0.3, 0.9, -1.2]);
        let back = x.inv_apply_force(&x.apply_force(&f));
        assert!((back - f).max_abs() < 1e-12);
    }

    #[test]
    fn duality_pairing_is_invariant() {
        // ⟨Xv, X*f⟩ = ⟨v, f⟩ — power does not depend on the frame.
        let x = arbitrary_xform();
        let v = MotionVec::from_slice(&[0.1, 0.2, -0.3, 1.0, -2.0, 0.5]);
        let f = ForceVec::from_slice(&[2.0, -0.1, 0.4, 0.3, 0.9, -1.2]);
        let lhs = x.apply_motion(&v).dot_force(&x.apply_force(&f));
        assert!((lhs - v.dot_force(&f)).abs() < 1e-12);
    }

    #[test]
    fn compose_matches_sequential_application() {
        let bxa = arbitrary_xform();
        let cxb = Xform::new(Mat3::rotation_y(0.4).transpose(), Vec3::new(-0.3, 0.0, 0.2));
        let cxa = cxb.compose(&bxa);
        let v = MotionVec::from_slice(&[0.5, -0.5, 0.25, 0.0, 1.0, 2.0]);
        let lhs = cxa.apply_motion(&v);
        let rhs = cxb.apply_motion(&bxa.apply_motion(&v));
        assert!((lhs - rhs).max_abs() < 1e-12);
    }

    #[test]
    fn inverse_composes_to_identity() {
        let x = arbitrary_xform();
        let id = x.compose(&x.inverse());
        assert!((id.rot - Mat3::identity()).max_abs() < 1e-12);
        assert!(id.trans.max_abs() < 1e-12);
    }

    #[test]
    fn cross_commutes_with_transform() {
        // X (a × b) = (X a) × (X b) — the cross product is equivariant.
        let x = arbitrary_xform();
        let a = MotionVec::from_slice(&[0.3, 0.1, -0.4, 0.2, 0.6, -0.1]);
        let b = MotionVec::from_slice(&[-0.2, 0.5, 0.7, 1.1, 0.0, 0.9]);
        let lhs = x.apply_motion(&a.cross_motion(&b));
        let rhs = x.apply_motion(&a).cross_motion(&x.apply_motion(&b));
        assert!((lhs - rhs).max_abs() < 1e-12);
    }

    #[test]
    fn translation_only_shifts_linear_velocity() {
        let x = Xform::translation(Vec3::new(0.0, 0.0, 2.0));
        let v = MotionVec::new(Vec3::unit_x(), Vec3::zero());
        let vb = x.apply_motion(&v);
        // The body point at +2z under ω = x̂ moves at ω × r = -2ŷ.
        assert!((vb.lin() - Vec3::new(0.0, -2.0, 0.0)).max_abs() < 1e-14);
        assert!((vb.ang() - Vec3::unit_x()).max_abs() < 1e-14);
    }

    #[test]
    fn batch_entry_points_match_scalar_kernels() {
        let x = arbitrary_xform();
        let ms: Vec<MotionVec> = (0..7)
            .map(|k| MotionVec::from_slice(&[0.1 * k as f64, 0.2, -0.3, 1.0 - k as f64, 0.5, 0.4]))
            .collect();
        let fs: Vec<ForceVec> = (0..7)
            .map(|k| ForceVec::from_slice(&[0.3, -0.1 * k as f64, 0.4, 0.9, 0.8, 0.2]))
            .collect();

        let mut out = vec![MotionVec::zero(); 7];
        x.apply_motion_batch(&ms, &mut out);
        for (s, d) in ms.iter().zip(&out) {
            assert_eq!(d.to_array(), x.apply_motion(s).to_array());
        }
        x.inv_apply_motion_batch(&ms, &mut out);
        for (s, d) in ms.iter().zip(&out) {
            assert_eq!(d.to_array(), x.inv_apply_motion(s).to_array());
        }

        let mut fs2 = fs.clone();
        x.inv_apply_force_batch_in_place(&mut fs2);
        for (s, d) in fs.iter().zip(&fs2) {
            assert_eq!(d.to_array(), x.inv_apply_force(s).to_array());
        }

        let mut acc = fs.clone();
        x.inv_apply_force_accum(&fs, &mut acc, [1usize, 3, 5]);
        for (j, (s, d)) in fs.iter().zip(&acc).enumerate() {
            let expect = if j % 2 == 1 {
                *s + x.inv_apply_force(s)
            } else {
                *s
            };
            assert_eq!(d.to_array(), expect.to_array());
        }
    }
}
