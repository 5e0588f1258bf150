//! Spatial (6-D) motion and force vectors and their cross operators.
//!
//! Both vector types are backed by a flat `[f64; 6]` (angular coordinates
//! first), so per-body tables of spatial vectors are contiguous streams
//! of doubles, and the cross/dot kernels below are straight-line unrolled
//! multiply–add chains the compiler can autovectorize.

use crate::Vec3;
use std::fmt;
use std::ops::{Add, AddAssign, Index, IndexMut, Mul, Neg, Sub, SubAssign};

/// A spatial **motion** vector `[ω; v]` (velocities, accelerations, motion
/// subspace columns).
///
/// # Example
/// ```
/// use rbd_spatial::{MotionVec, Vec3};
/// let v = MotionVec::new(Vec3::unit_z(), Vec3::zero());
/// let m = MotionVec::new(Vec3::zero(), Vec3::unit_x());
/// // ẑ angular velocity sweeps an x̂ linear motion into ŷ:
/// assert!((v.cross_motion(&m).lin() - Vec3::unit_y()).max_abs() < 1e-15);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct MotionVec {
    d: [f64; 6],
}

/// A spatial **force** vector `[n; f]` (wrenches, momenta).
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct ForceVec {
    d: [f64; 6],
}

macro_rules! impl_spatial_common {
    ($ty:ident) => {
        impl $ty {
            /// Creates a spatial vector from angular and linear parts.
            #[inline(always)]
            pub const fn new(ang: Vec3, lin: Vec3) -> Self {
                let a = ang.to_array();
                let l = lin.to_array();
                Self {
                    d: [a[0], a[1], a[2], l[0], l[1], l[2]],
                }
            }

            /// Creates a spatial vector directly from its six coordinates
            /// (angular first).
            #[inline(always)]
            pub const fn from_array(d: [f64; 6]) -> Self {
                Self { d }
            }

            /// The zero vector.
            #[inline(always)]
            pub const fn zero() -> Self {
                Self { d: [0.0; 6] }
            }

            /// The angular part `ω` (a copy — the backing storage is the
            /// flat coordinate array).
            #[inline(always)]
            pub const fn ang(&self) -> Vec3 {
                Vec3::new(self.d[0], self.d[1], self.d[2])
            }

            /// The linear part `v` (a copy).
            #[inline(always)]
            pub const fn lin(&self) -> Vec3 {
                Vec3::new(self.d[3], self.d[4], self.d[5])
            }

            /// Builds from a slice of at least six elements
            /// (`[ang; lin]` order).
            ///
            /// # Panics
            /// Panics if `s.len() < 6`.
            #[inline]
            pub fn from_slice(s: &[f64]) -> Self {
                Self {
                    d: [s[0], s[1], s[2], s[3], s[4], s[5]],
                }
            }

            /// Returns the six coordinates, angular first.
            #[inline(always)]
            pub const fn to_array(&self) -> [f64; 6] {
                self.d
            }

            /// Borrows the six coordinates as a flat array.
            #[inline(always)]
            pub const fn as_array(&self) -> &[f64; 6] {
                &self.d
            }

            /// Largest absolute coordinate (NaN if any is NaN).
            pub fn max_abs(&self) -> f64 {
                crate::max_abs_of(&self.d)
            }

            /// Euclidean norm of the stacked 6-vector.
            pub fn norm(&self) -> f64 {
                self.d.iter().map(|x| x * x).sum::<f64>().sqrt()
            }
        }

        impl Add for $ty {
            type Output = $ty;
            #[inline(always)]
            fn add(self, r: $ty) -> $ty {
                let mut d = self.d;
                for k in 0..6 {
                    d[k] += r.d[k];
                }
                $ty { d }
            }
        }

        impl AddAssign for $ty {
            #[inline(always)]
            fn add_assign(&mut self, r: $ty) {
                for k in 0..6 {
                    self.d[k] += r.d[k];
                }
            }
        }

        impl Sub for $ty {
            type Output = $ty;
            #[inline(always)]
            fn sub(self, r: $ty) -> $ty {
                let mut d = self.d;
                for k in 0..6 {
                    d[k] -= r.d[k];
                }
                $ty { d }
            }
        }

        impl SubAssign for $ty {
            #[inline(always)]
            fn sub_assign(&mut self, r: $ty) {
                for k in 0..6 {
                    self.d[k] -= r.d[k];
                }
            }
        }

        impl Neg for $ty {
            type Output = $ty;
            #[inline(always)]
            fn neg(self) -> $ty {
                let mut d = self.d;
                for x in d.iter_mut() {
                    *x = -*x;
                }
                $ty { d }
            }
        }

        impl Mul<f64> for $ty {
            type Output = $ty;
            #[inline(always)]
            fn mul(self, s: f64) -> $ty {
                let mut d = self.d;
                for x in d.iter_mut() {
                    *x *= s;
                }
                $ty { d }
            }
        }

        impl Mul<$ty> for f64 {
            type Output = $ty;
            #[inline(always)]
            fn mul(self, v: $ty) -> $ty {
                v * self
            }
        }

        impl Index<usize> for $ty {
            type Output = f64;
            #[inline(always)]
            fn index(&self, i: usize) -> &f64 {
                &self.d[i]
            }
        }

        impl IndexMut<usize> for $ty {
            #[inline(always)]
            fn index_mut(&mut self, i: usize) -> &mut f64 {
                &mut self.d[i]
            }
        }

        impl fmt::Display for $ty {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                write!(f, "[{}; {}]", self.ang(), self.lin())
            }
        }
    };
}

impl_spatial_common!(MotionVec);
impl_spatial_common!(ForceVec);

impl MotionVec {
    /// Spatial motion cross product `self × m` (Featherstone `crm(v) m`):
    ///
    /// `[ω×m_ω ; ω×m_v + v×m_ω]`.
    #[inline(always)]
    pub fn cross_motion(&self, m: &MotionVec) -> MotionVec {
        let [w0, w1, w2, v0, v1, v2] = self.d;
        let [a0, a1, a2, b0, b1, b2] = m.d;
        MotionVec {
            d: [
                w1 * a2 - w2 * a1,
                w2 * a0 - w0 * a2,
                w0 * a1 - w1 * a0,
                (w1 * b2 - w2 * b1) + (v1 * a2 - v2 * a1),
                (w2 * b0 - w0 * b2) + (v2 * a0 - v0 * a2),
                (w0 * b1 - w1 * b0) + (v0 * a1 - v1 * a0),
            ],
        }
    }

    /// Spatial force cross product `self ×* f` (Featherstone `crf(v) f`):
    ///
    /// `[ω×f_n + v×f_f ; ω×f_f]`.
    #[inline(always)]
    pub fn cross_force(&self, f: &ForceVec) -> ForceVec {
        let [w0, w1, w2, v0, v1, v2] = self.d;
        let [n0, n1, n2, f0, f1, f2] = f.d;
        ForceVec {
            d: [
                (w1 * n2 - w2 * n1) + (v1 * f2 - v2 * f1),
                (w2 * n0 - w0 * n2) + (v2 * f0 - v0 * f2),
                (w0 * n1 - w1 * n0) + (v0 * f1 - v1 * f0),
                w1 * f2 - w2 * f1,
                w2 * f0 - w0 * f2,
                w0 * f1 - w1 * f0,
            ],
        }
    }

    /// Duality pairing `⟨motion, force⟩ = ωᵀn + vᵀf` (e.g. joint torque
    /// `τ = Sᵀ f`, power `vᵀ f`).
    #[inline(always)]
    pub fn dot_force(&self, f: &ForceVec) -> f64 {
        let a = &self.d;
        let b = &f.d;
        (a[0] * b[0] + a[1] * b[1] + a[2] * b[2]) + (a[3] * b[3] + a[4] * b[4] + a[5] * b[5])
    }

    /// Fused pair of duality pairings `(⟨self, f1⟩, ⟨self, f2⟩)` — one
    /// pass over the motion coordinates for both dots (the IDSVA ∂τ
    /// row-fill pairs each ancestor column against two accumulated force
    /// vectors). Bit-identical to two [`MotionVec::dot_force`] calls.
    #[inline(always)]
    pub fn dot_force_pair(&self, f1: &ForceVec, f2: &ForceVec) -> (f64, f64) {
        (self.dot_force(f1), self.dot_force(f2))
    }

    /// Fused weighted sum `Σ_k w[k]·cols[k]` over a batch of motion
    /// columns (the `S q̇` / `S q̈` joint-space sums of the per-body
    /// sweeps), accumulated per coordinate lane — one contiguous pass.
    ///
    /// # Panics
    /// Panics if `cols.len() != w.len()`.
    #[inline]
    pub fn weighted_sum(cols: &[MotionVec], w: &[f64]) -> MotionVec {
        assert_eq!(cols.len(), w.len(), "weighted_sum length mismatch");
        let mut acc = [0.0; 6];
        for (c, &wk) in cols.iter().zip(w) {
            for (a, x) in acc.iter_mut().zip(&c.d) {
                *a += x * wk;
            }
        }
        MotionVec { d: acc }
    }

    /// Batched duality pairing: `out[k] = ⟨cols[k], f⟩` (the `τ = Sᵀ f`
    /// torque projection of the backward sweeps).
    ///
    /// # Panics
    /// Panics if `out.len() != cols.len()`.
    #[inline]
    pub fn dot_force_batch(cols: &[MotionVec], f: &ForceVec, out: &mut [f64]) {
        assert_eq!(cols.len(), out.len(), "dot_force_batch length mismatch");
        for (o, c) in out.iter_mut().zip(cols) {
            *o = c.dot_force(f);
        }
    }
}

impl ForceVec {
    /// Duality pairing with a motion vector (commutes with
    /// [`MotionVec::dot_force`]).
    #[inline(always)]
    pub fn dot_motion(&self, m: &MotionVec) -> f64 {
        m.dot_force(self)
    }

    /// Fused pair of duality pairings `(⟨m1, self⟩, ⟨m2, self⟩)` — keeps
    /// this force vector's coordinates hot across both dots (the IDSVA
    /// ∂τ row fill dots each per-DOF force against two per-column motion
    /// vectors). Bit-identical to two [`ForceVec::dot_motion`] calls.
    #[inline(always)]
    pub fn dot_motion_pair(&self, m1: &MotionVec, m2: &MotionVec) -> (f64, f64) {
        (m1.dot_force(self), m2.dot_force(self))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mv(a: [f64; 6]) -> MotionVec {
        MotionVec::from_slice(&a)
    }
    fn fv(a: [f64; 6]) -> ForceVec {
        ForceVec::from_slice(&a)
    }

    #[test]
    fn cross_motion_of_self_is_zero() {
        let v = mv([0.1, -0.2, 0.3, 1.0, 2.0, -0.5]);
        assert!(v.cross_motion(&v).max_abs() < 1e-15);
    }

    #[test]
    fn cross_force_is_negative_transpose_of_cross_motion() {
        // ⟨v × m, f⟩ = -⟨m, v ×* f⟩ for all m, f (adjoint identity).
        let v = mv([0.4, 0.5, -0.6, 0.1, 0.9, 0.2]);
        let m = mv([1.0, -1.0, 0.5, 0.2, 0.3, -0.7]);
        let f = fv([0.3, 0.1, -0.2, 2.0, -1.0, 0.5]);
        let lhs = v.cross_motion(&m).dot_force(&f);
        let rhs = -m.dot_force(&v.cross_force(&f));
        assert!((lhs - rhs).abs() < 1e-12);
    }

    #[test]
    fn jacobi_identity_for_motion_cross() {
        let a = mv([0.1, 0.2, 0.3, -0.4, 0.5, 0.6]);
        let b = mv([-0.7, 0.8, 0.9, 1.0, -1.1, 1.2]);
        let c = mv([0.05, -0.15, 0.25, 0.35, 0.45, -0.55]);
        let total = a.cross_motion(&b.cross_motion(&c))
            + b.cross_motion(&c.cross_motion(&a))
            + c.cross_motion(&a.cross_motion(&b));
        assert!(total.max_abs() < 1e-12);
    }

    #[test]
    fn indexing_layout_is_angular_first() {
        let v = mv([1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        assert_eq!(v[0], 1.0);
        assert_eq!(v[3], 4.0);
        assert_eq!(v.to_array(), [1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        assert_eq!(v.ang().to_array(), [1.0, 2.0, 3.0]);
        assert_eq!(v.lin().to_array(), [4.0, 5.0, 6.0]);
        assert_eq!(MotionVec::from_array(v.to_array()), v);
    }

    #[test]
    fn arithmetic_and_norm() {
        let a = mv([1.0, 0.0, 0.0, 0.0, 0.0, 0.0]);
        let b = mv([0.0, 0.0, 0.0, 0.0, 3.0, 4.0]);
        assert!(((a + b).norm() - 26.0_f64.sqrt()).abs() < 1e-12);
        assert_eq!((a * 2.0)[0], 2.0);
        assert_eq!((2.0 * a)[0], 2.0);
        let mut c = a;
        c += b;
        c -= a;
        assert_eq!(c, b);
        assert_eq!((-b)[4], -3.0);
    }

    #[test]
    fn dot_pairing_symmetry() {
        let m = mv([0.3, 1.0, -0.5, 0.2, 0.0, 0.7]);
        let f = fv([1.5, -0.1, 0.4, 0.9, 0.8, -0.3]);
        assert_eq!(m.dot_force(&f), f.dot_motion(&m));
    }

    #[test]
    fn weighted_sum_matches_axpy_loop() {
        let cols = [
            mv([0.1, 0.2, 0.3, 0.4, 0.5, 0.6]),
            mv([-1.0, 0.5, 0.2, 0.0, 0.7, -0.3]),
            mv([2.0, -0.1, 0.4, 0.9, 0.8, -0.3]),
        ];
        let w = [0.5, -1.5, 2.0];
        let mut expect = MotionVec::zero();
        for (c, &wk) in cols.iter().zip(&w) {
            expect += *c * wk;
        }
        let got = MotionVec::weighted_sum(&cols, &w);
        assert_eq!(got.to_array(), expect.to_array());
    }

    #[test]
    fn dot_force_batch_matches_scalar() {
        let cols = [
            mv([0.1, 0.2, 0.3, 0.4, 0.5, 0.6]),
            mv([-1.0, 0.5, 0.2, 0.0, 0.7, -0.3]),
        ];
        let f = fv([1.5, -0.1, 0.4, 0.9, 0.8, -0.3]);
        let mut out = [0.0; 2];
        MotionVec::dot_force_batch(&cols, &f, &mut out);
        assert_eq!(out[0], cols[0].dot_force(&f));
        assert_eq!(out[1], cols[1].dot_force(&f));
    }
}
