//! Rigid-body spatial inertia.

use crate::{ForceVec, Mat3, Mat6, MotionVec, Vec3, Xform};
use std::fmt;
use std::ops::{Add, AddAssign};

/// The spatial inertia of a rigid body expressed at a frame origin:
///
/// ```text
/// I = [ Ī    h× ]
///     [ h×ᵀ  m·1 ]
/// ```
///
/// where `m` is the mass, `h = m·c` the first mass moment (`c` = centre of
/// mass) and `Ī` the rotational inertia **about the frame origin**
/// (`Ī = I_C + m c× c×ᵀ`).
///
/// # Example
/// ```
/// use rbd_spatial::{SpatialInertia, MotionVec, Vec3};
/// let i = SpatialInertia::from_mass_com_inertia(
///     2.0,
///     Vec3::zero(),
///     rbd_spatial::Mat3::diagonal(Vec3::new(0.1, 0.1, 0.1)),
/// );
/// let a = MotionVec::new(Vec3::zero(), Vec3::unit_x());
/// let f = i.mul_motion(&a);
/// assert!((f.lin().x() - 2.0).abs() < 1e-12); // F = m a
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SpatialInertia {
    /// Mass.
    pub mass: f64,
    /// First mass moment `h = m c`.
    pub h: Vec3,
    /// Rotational inertia about the frame origin (symmetric).
    pub i_bar: Mat3,
}

impl Default for SpatialInertia {
    fn default() -> Self {
        Self::zero()
    }
}

impl SpatialInertia {
    /// The zero inertia (massless body).
    pub const fn zero() -> Self {
        Self {
            mass: 0.0,
            h: Vec3::zero(),
            i_bar: Mat3::zero(),
        }
    }

    /// Builds from mass, centre of mass `c` (body frame) and rotational
    /// inertia `i_com` **about the centre of mass**.
    ///
    /// # Panics
    /// Panics if `mass < 0`.
    pub fn from_mass_com_inertia(mass: f64, c: Vec3, i_com: Mat3) -> Self {
        assert!(mass >= 0.0, "negative mass");
        let cx = Mat3::skew(c);
        // Parallel-axis theorem: Ī = I_C + m c× c׳
        let i_bar = i_com + cx * cx.transpose() * mass;
        Self {
            mass,
            h: c * mass,
            i_bar,
        }
    }

    /// Builds a solid-cuboid inertia (dimensions `dx·dy·dz`, metres) with
    /// the centre of mass at `c`.
    pub fn solid_box(mass: f64, dx: f64, dy: f64, dz: f64, c: Vec3) -> Self {
        let k = mass / 12.0;
        let i_com = Mat3::diagonal(Vec3::new(
            k * (dy * dy + dz * dz),
            k * (dx * dx + dz * dz),
            k * (dx * dx + dy * dy),
        ));
        Self::from_mass_com_inertia(mass, c, i_com)
    }

    /// Builds a solid-cylinder inertia (axis along z, radius `r`,
    /// length `l`) with the centre of mass at `c`.
    pub fn solid_cylinder(mass: f64, r: f64, l: f64, c: Vec3) -> Self {
        let ixy = mass * (3.0 * r * r + l * l) / 12.0;
        let iz = mass * r * r / 2.0;
        Self::from_mass_com_inertia(mass, c, Mat3::diagonal(Vec3::new(ixy, ixy, iz)))
    }

    /// The centre of mass `c = h / m` (zero for a massless body).
    pub fn com(&self) -> Vec3 {
        if self.mass > 0.0 {
            self.h / self.mass
        } else {
            Vec3::zero()
        }
    }

    /// Applies the inertia to a motion vector: `f = I v`.
    #[inline(always)]
    pub fn mul_motion(&self, v: &MotionVec) -> ForceVec {
        ForceVec::new(
            self.i_bar * v.ang() + self.h.cross(&v.lin()),
            v.lin() * self.mass - self.h.cross(&v.ang()),
        )
    }

    /// Expresses this inertia (given in frame B) in frame A, where
    /// `x = ^B X_A`: `^A I = (^B X_A)ᵀ ^B I ^B X_A` evaluated analytically.
    pub fn transform_to_parent(&self, x: &Xform) -> SpatialInertia {
        // E: A→B rotation, r: origin of B in A coordinates.
        let et_h = x.rot.tr_mul_vec(&self.h);
        let h_a = et_h + x.trans * self.mass;
        let i_rot = x.rot.tr_mul(&self.i_bar) * x.rot;
        // Ī_A = Eᵀ Ī E - r× (Eᵀh)× - h_A× r×   (RBDA eq. 2.66 rearranged)
        let rx = Mat3::skew(x.trans);
        let i_bar = i_rot - rx * Mat3::skew(et_h) - Mat3::skew(h_a) * rx;
        SpatialInertia {
            mass: self.mass,
            h: h_a,
            i_bar,
        }
    }

    /// World-frame inertia rate `İ = v ×* I − I v×` in the compact
    /// [`InertiaRate`] form, given the (precomputed) momentum `h = I·v`.
    ///
    /// The dense rate matrix has the structure `[[K, ĝ], [−ĝ, 0]]` with
    /// `g = lin(I·v)` and symmetric `K = ŵ Ī − Ī ŵ − (v̂ ĥₘ + ĥₘ v̂)`
    /// (`w`/`v` the angular/linear velocity parts, `hₘ` the first mass
    /// moment, `x̂` the 3×3 skew of `x`) — so it is fully determined by
    /// nine scalars and accumulates over subtrees componentwise. This is
    /// the per-body build of the IDSVA composite velocity-coupling
    /// operator (`B_i` up to the `(I v) ×̄` term, Singh/Russell/Wensing
    /// 2022); it is pinned against the dense
    /// `crf(v)·I − I·crm(v)` product in
    /// `crates/spatial/tests/vectorized_kernels.rs`.
    #[inline]
    pub fn rate(&self, v: &MotionVec, h: &ForceVec) -> InertiaRate {
        let [w1, w2, w3, vl1, vl2, vl3] = v.to_array();
        let m = self.i_bar.as_array();
        // Symmetric commutator ŵ Ī − Ī ŵ (Ī symmetric), unique entries.
        let (m11, m12, m13) = (m[0], m[1], m[2]);
        let (m22, m23, m33) = (m[4], m[5], m[8]);
        let c11 = 2.0 * (w2 * m13 - w3 * m12);
        let c22 = 2.0 * (w3 * m12 - w1 * m23);
        let c33 = 2.0 * (w1 * m23 - w2 * m13);
        let c12 = w3 * (m11 - m22) + w2 * m23 - w1 * m13;
        let c13 = w2 * (m33 - m11) - w3 * m23 + w1 * m12;
        let c23 = w1 * (m22 - m33) + w3 * m13 - w2 * m12;
        // v̂ ĥₘ + ĥₘ v̂ = hₘ vᵀ + v hₘᵀ − 2 (v·hₘ) 1  (skew-product identity).
        let hm = self.h.to_array();
        let vh = vl1 * hm[0] + vl2 * hm[1] + vl3 * hm[2];
        let k = Mat3::from_flat([
            c11 - (2.0 * hm[0] * vl1 - 2.0 * vh),
            c12 - (hm[0] * vl2 + vl1 * hm[1]),
            c13 - (hm[0] * vl3 + vl1 * hm[2]),
            c12 - (hm[0] * vl2 + vl1 * hm[1]),
            c22 - (2.0 * hm[1] * vl2 - 2.0 * vh),
            c23 - (hm[1] * vl3 + vl2 * hm[2]),
            c13 - (hm[0] * vl3 + vl1 * hm[2]),
            c23 - (hm[1] * vl3 + vl2 * hm[2]),
            c33 - (2.0 * hm[2] * vl3 - 2.0 * vh),
        ]);
        InertiaRate { k, g: h.lin() }
    }

    /// Dense 6×6 form `[Ī h×; h×ᵀ m·1]`.
    pub fn to_mat6(&self) -> Mat6 {
        let hx = Mat3::skew(self.h);
        let hxt = hx.transpose();
        let mut out = Mat6::zero();
        for i in 0..3 {
            for j in 0..3 {
                out[(i, j)] = self.i_bar[(i, j)];
                out[(i, j + 3)] = hx[(i, j)];
                out[(i + 3, j)] = hxt[(i, j)];
            }
            out[(i + 3, i + 3)] = self.mass;
        }
        out
    }
}

/// Compact form of a world-frame spatial-inertia rate
/// `İ = v ×* I − I v×` (and of sums of such rates over a subtree): the
/// dense matrix is `[[k, ĝ], [−ĝ, 0]]`, so only the symmetric angular
/// block `k` and the vector `g = lin(I·v)` are stored. Built per body by
/// [`SpatialInertia::rate`] and accumulated componentwise up the tree by
/// the IDSVA ΔID backend.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct InertiaRate {
    /// Symmetric angular (top-left) 3×3 block.
    pub k: Mat3,
    /// Generator of the off-diagonal skew blocks, `g = lin(I·v)`.
    pub g: Vec3,
}

impl Default for InertiaRate {
    fn default() -> Self {
        Self::zero()
    }
}

impl InertiaRate {
    /// The zero rate (e.g. an empty composite).
    pub const fn zero() -> Self {
        Self {
            k: Mat3::zero(),
            g: Vec3::zero(),
        }
    }

    /// Applies the rate to a motion vector:
    /// `İ m = [k·ω + g×v ; −g×ω]` for `m = [ω; v]`.
    #[inline(always)]
    pub fn mul_motion(&self, m: &MotionVec) -> ForceVec {
        let w = m.ang();
        let l = m.lin();
        ForceVec::new(self.k * w + self.g.cross(&l), -self.g.cross(&w))
    }

    /// Dense 6×6 form `[[k, ĝ], [−ĝ, 0]]`.
    pub fn to_mat6(&self) -> Mat6 {
        let gx = Mat3::skew(self.g);
        let mut out = Mat6::zero();
        for i in 0..3 {
            for j in 0..3 {
                out[(i, j)] = self.k[(i, j)];
                out[(i, j + 3)] = gx[(i, j)];
                out[(i + 3, j)] = -gx[(i, j)];
            }
        }
        out
    }
}

impl Add for InertiaRate {
    type Output = InertiaRate;
    fn add(self, r: InertiaRate) -> InertiaRate {
        InertiaRate {
            k: self.k + r.k,
            g: self.g + r.g,
        }
    }
}

impl AddAssign for InertiaRate {
    fn add_assign(&mut self, r: InertiaRate) {
        *self = *self + r;
    }
}

impl Add for SpatialInertia {
    type Output = SpatialInertia;
    fn add(self, r: SpatialInertia) -> SpatialInertia {
        SpatialInertia {
            mass: self.mass + r.mass,
            h: self.h + r.h,
            i_bar: self.i_bar + r.i_bar,
        }
    }
}

impl AddAssign for SpatialInertia {
    fn add_assign(&mut self, r: SpatialInertia) {
        *self = *self + r;
    }
}

impl fmt::Display for SpatialInertia {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "SpatialInertia(m={:.4}, h={}, Ī={})",
            self.mass, self.h, self.i_bar
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A solid-sphere inertia with the centre of mass at `c`.
    fn solid_sphere(mass: f64, r: f64, c: Vec3) -> SpatialInertia {
        let i = 2.0 / 5.0 * mass * r * r;
        SpatialInertia::from_mass_com_inertia(mass, c, Mat3::diagonal(Vec3::new(i, i, i)))
    }

    fn sample() -> SpatialInertia {
        SpatialInertia::from_mass_com_inertia(
            3.0,
            Vec3::new(0.1, -0.2, 0.3),
            Mat3::diagonal(Vec3::new(0.02, 0.03, 0.04)),
        )
    }

    #[test]
    fn mat6_form_is_symmetric() {
        assert!(sample().to_mat6().is_symmetric(1e-12));
    }

    #[test]
    fn mul_matches_dense() {
        let i = sample();
        let v = MotionVec::from_slice(&[0.4, -0.1, 0.6, 1.0, 0.2, -0.8]);
        let dense = i.to_mat6().mul_motion_to_force(&v);
        let fast = i.mul_motion(&v);
        assert!((dense - fast).max_abs() < 1e-12);
    }

    #[test]
    fn transform_matches_dense_congruence() {
        let i = sample();
        let x = Xform::rot_axis(Vec3::new(0.2, 0.9, -0.4).normalized(), 0.73)
            .with_translation(Vec3::new(0.5, 0.1, -0.3));
        let analytic = i.transform_to_parent(&x).to_mat6();
        let x6 = Mat6::from_xform_motion(&x);
        let dense = i.to_mat6().congruence(&x6);
        assert!((analytic - dense).max_abs() < 1e-10);
    }

    #[test]
    fn kinetic_energy_positive() {
        let i = sample();
        let v = MotionVec::from_slice(&[0.3, 0.4, 0.5, -0.6, 0.7, 0.8]);
        // ½ vᵀ I v
        assert!(0.5 * v.dot_force(&i.mul_motion(&v)) > 0.0);
        let zero = MotionVec::zero();
        assert_eq!(0.5 * zero.dot_force(&i.mul_motion(&zero)), 0.0);
    }

    #[test]
    fn point_mass_f_equals_ma() {
        let i = SpatialInertia::from_mass_com_inertia(2.5, Vec3::zero(), Mat3::zero());
        let a = MotionVec::new(Vec3::zero(), Vec3::new(1.0, 2.0, 3.0));
        let f = i.mul_motion(&a);
        assert!((f.lin() - Vec3::new(2.5, 5.0, 7.5)).max_abs() < 1e-12);
        assert!(f.ang().max_abs() < 1e-12);
    }

    #[test]
    fn addition_is_componentwise() {
        let a = sample();
        let b = solid_sphere(1.0, 0.2, Vec3::unit_x());
        let s = a + b;
        assert!((s.mass - (a.mass + b.mass)).abs() < 1e-15);
        assert!((s.h - (a.h + b.h)).max_abs() < 1e-15);
    }

    #[test]
    fn com_roundtrip() {
        let c = Vec3::new(0.1, 0.2, -0.3);
        let i = SpatialInertia::from_mass_com_inertia(4.0, c, Mat3::identity());
        assert!((i.com() - c).max_abs() < 1e-15);
    }

    #[test]
    fn shape_constructors_reasonable() {
        let b = SpatialInertia::solid_box(12.0, 1.0, 1.0, 1.0, Vec3::zero());
        assert!((b.i_bar[(0, 0)] - 2.0).abs() < 1e-12);
        let s = solid_sphere(5.0, 0.1, Vec3::zero());
        assert!((s.i_bar[(0, 0)] - 0.02).abs() < 1e-12);
        let c = SpatialInertia::solid_cylinder(2.0, 0.1, 0.5, Vec3::zero());
        assert!(c.i_bar[(2, 2)] > 0.0);
    }
}
