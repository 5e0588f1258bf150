//! 3×3 matrices on flat array backing.

use crate::Vec3;
use std::fmt;
use std::ops::{Add, AddAssign, Index, IndexMut, Mul, Neg, Sub};

/// A dense 3×3 matrix of `f64`, backed by a flat row-major `[f64; 9]` so
/// the product kernels below are branch-free unrolled multiply–add
/// chains over one contiguous array.
///
/// # Example
/// ```
/// use rbd_spatial::{Mat3, Vec3};
/// let r = Mat3::rotation_z(std::f64::consts::FRAC_PI_2);
/// let v = r * Vec3::unit_x();
/// assert!((v.y() - 1.0).abs() < 1e-12);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Mat3 {
    /// Row-major entries; `m[3 * row + col]`.
    pub(crate) m: [f64; 9],
}

/// Flat row-major 3×3 product `a · b` (27 unrolled multiply–adds).
#[inline(always)]
pub(crate) fn mul3(a: &[f64; 9], b: &[f64; 9]) -> [f64; 9] {
    let mut out = [0.0; 9];
    for i in 0..3 {
        for j in 0..3 {
            out[3 * i + j] = a[3 * i] * b[j] + a[3 * i + 1] * b[3 + j] + a[3 * i + 2] * b[6 + j];
        }
    }
    out
}

/// Flat row-major 3×3 product `aᵀ · b` (transposed left operand).
#[inline(always)]
pub(crate) fn mul3_tn(a: &[f64; 9], b: &[f64; 9]) -> [f64; 9] {
    let mut out = [0.0; 9];
    for i in 0..3 {
        for j in 0..3 {
            out[3 * i + j] = a[i] * b[j] + a[3 + i] * b[3 + j] + a[6 + i] * b[6 + j];
        }
    }
    out
}

impl Default for Mat3 {
    fn default() -> Self {
        Self::zero()
    }
}

impl Mat3 {
    /// Builds a matrix from row-major entries.
    #[inline]
    pub const fn from_rows(rows: [[f64; 3]; 3]) -> Self {
        Self {
            m: [
                rows[0][0], rows[0][1], rows[0][2], rows[1][0], rows[1][1], rows[1][2], rows[2][0],
                rows[2][1], rows[2][2],
            ],
        }
    }

    /// Builds a matrix from its flat row-major entries.
    #[inline(always)]
    pub const fn from_flat(m: [f64; 9]) -> Self {
        Self { m }
    }

    /// Borrows the flat row-major entries (`m[3·row + col]`).
    #[inline(always)]
    pub const fn as_array(&self) -> &[f64; 9] {
        &self.m
    }

    /// The zero matrix.
    #[inline]
    pub const fn zero() -> Self {
        Self { m: [0.0; 9] }
    }

    /// The identity matrix.
    #[inline]
    pub const fn identity() -> Self {
        Self::from_flat([1.0, 0.0, 0.0, 0.0, 1.0, 0.0, 0.0, 0.0, 1.0])
    }

    /// Diagonal matrix with entries `d`.
    #[inline]
    pub fn diagonal(d: Vec3) -> Self {
        Self::from_flat([d.x(), 0.0, 0.0, 0.0, d.y(), 0.0, 0.0, 0.0, d.z()])
    }

    /// Skew-symmetric cross-product matrix `v×` such that `(v×) w = v.cross(w)`.
    #[inline(always)]
    pub fn skew(v: Vec3) -> Self {
        let [x, y, z] = *v.as_array();
        Self::from_flat([0.0, -z, y, z, 0.0, -x, -y, x, 0.0])
    }

    /// Active rotation about the X axis by `theta` (radians): `R_x(θ) v`
    /// rotates `v` by `θ` around X.
    pub fn rotation_x(theta: f64) -> Self {
        let (s, c) = theta.sin_cos();
        Self::from_flat([1.0, 0.0, 0.0, 0.0, c, -s, 0.0, s, c])
    }

    /// Active rotation about the Y axis by `theta` (radians).
    pub fn rotation_y(theta: f64) -> Self {
        let (s, c) = theta.sin_cos();
        Self::from_flat([c, 0.0, s, 0.0, 1.0, 0.0, -s, 0.0, c])
    }

    /// Active rotation about the Z axis by `theta` (radians).
    pub fn rotation_z(theta: f64) -> Self {
        let (s, c) = theta.sin_cos();
        Self::from_flat([c, -s, 0.0, s, c, 0.0, 0.0, 0.0, 1.0])
    }

    /// Active rotation of angle `theta` about an arbitrary unit `axis`
    /// (Rodrigues' formula).
    pub fn rotation_axis(axis: Vec3, theta: f64) -> Self {
        let (s, c) = theta.sin_cos();
        Self::rotation_axis_sc(axis, s, c)
    }

    /// [`Self::rotation_axis`] with precomputed `sin`/`cos` — the form
    /// used by hardware datapaths fed by a shared trigonometric unit.
    pub fn rotation_axis_sc(axis: Vec3, s: f64, c: f64) -> Self {
        let k = Mat3::skew(axis);
        Mat3::identity() + k * s + (k * k) * (1.0 - c)
    }

    /// Returns the transpose.
    #[inline(always)]
    pub fn transpose(&self) -> Self {
        let m = &self.m;
        Self::from_flat([m[0], m[3], m[6], m[1], m[4], m[7], m[2], m[5], m[8]])
    }

    /// Returns row `i` as a vector.
    #[inline(always)]
    pub fn row(&self, i: usize) -> Vec3 {
        Vec3::new(self.m[3 * i], self.m[3 * i + 1], self.m[3 * i + 2])
    }

    /// Returns column `j` as a vector.
    #[inline(always)]
    pub fn col(&self, j: usize) -> Vec3 {
        Vec3::new(self.m[j], self.m[3 + j], self.m[6 + j])
    }

    /// Matrix trace.
    #[inline]
    pub fn trace(&self) -> f64 {
        self.m[0] + self.m[4] + self.m[8]
    }

    /// Determinant.
    pub fn det(&self) -> f64 {
        let m = &self.m;
        m[0] * (m[4] * m[8] - m[5] * m[7]) - m[1] * (m[3] * m[8] - m[5] * m[6])
            + m[2] * (m[3] * m[7] - m[4] * m[6])
    }

    /// Inverse via the adjugate.
    ///
    /// # Panics
    /// Panics if the determinant magnitude is below `1e-300` (singular).
    pub fn inverse(&self) -> Self {
        let d = self.det();
        assert!(d.abs() > 1e-300, "Mat3::inverse: singular matrix");
        let m = &self.m;
        let inv = |r1: usize, c1: usize, r2: usize, c2: usize| {
            m[3 * r1 + c1] * m[3 * r2 + c2] - m[3 * r1 + c2] * m[3 * r2 + c1]
        };
        Self::from_rows([
            [
                inv(1, 1, 2, 2) / d,
                -inv(0, 1, 2, 2) / d,
                inv(0, 1, 1, 2) / d,
            ],
            [
                -inv(1, 0, 2, 2) / d,
                inv(0, 0, 2, 2) / d,
                -inv(0, 0, 1, 2) / d,
            ],
            [
                inv(1, 0, 2, 1) / d,
                -inv(0, 0, 2, 1) / d,
                inv(0, 0, 1, 1) / d,
            ],
        ])
    }

    /// Transposed product `selfᵀ · rhs` without materializing the
    /// transpose.
    #[inline(always)]
    pub fn tr_mul(&self, rhs: &Mat3) -> Mat3 {
        Mat3::from_flat(mul3_tn(&self.m, &rhs.m))
    }

    /// Transposed matrix–vector product `selfᵀ · v`.
    #[inline(always)]
    pub fn tr_mul_vec(&self, v: &Vec3) -> Vec3 {
        let m = &self.m;
        let [x, y, z] = *v.as_array();
        Vec3::new(
            m[0] * x + m[3] * y + m[6] * z,
            m[1] * x + m[4] * y + m[7] * z,
            m[2] * x + m[5] * y + m[8] * z,
        )
    }

    /// Maximum absolute entry (NaN if any entry is NaN).
    pub fn max_abs(&self) -> f64 {
        crate::max_abs_of(&self.m)
    }

    /// `true` when `‖self - selfᵀ‖∞ ≤ tol`.
    pub fn is_symmetric(&self, tol: f64) -> bool {
        (*self - self.transpose()).max_abs() <= tol
    }
}

impl fmt::Display for Mat3 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for r in 0..3 {
            writeln!(
                f,
                "[{:10.6} {:10.6} {:10.6}]",
                self.m[3 * r],
                self.m[3 * r + 1],
                self.m[3 * r + 2]
            )?;
        }
        Ok(())
    }
}

impl Add for Mat3 {
    type Output = Mat3;
    #[inline]
    fn add(self, rhs: Mat3) -> Mat3 {
        let mut out = self;
        for (o, r) in out.m.iter_mut().zip(&rhs.m) {
            *o += r;
        }
        out
    }
}

impl AddAssign for Mat3 {
    #[inline]
    fn add_assign(&mut self, rhs: Mat3) {
        *self = *self + rhs;
    }
}

impl Sub for Mat3 {
    type Output = Mat3;
    #[inline]
    fn sub(self, rhs: Mat3) -> Mat3 {
        let mut out = self;
        for (o, r) in out.m.iter_mut().zip(&rhs.m) {
            *o -= r;
        }
        out
    }
}

impl Neg for Mat3 {
    type Output = Mat3;
    fn neg(self) -> Mat3 {
        self * -1.0
    }
}

impl Mul<f64> for Mat3 {
    type Output = Mat3;
    #[inline]
    fn mul(self, s: f64) -> Mat3 {
        let mut out = self;
        for x in out.m.iter_mut() {
            *x *= s;
        }
        out
    }
}

impl Mul<Vec3> for Mat3 {
    type Output = Vec3;
    #[inline(always)]
    fn mul(self, v: Vec3) -> Vec3 {
        let m = &self.m;
        let [x, y, z] = *v.as_array();
        Vec3::new(
            m[0] * x + m[1] * y + m[2] * z,
            m[3] * x + m[4] * y + m[5] * z,
            m[6] * x + m[7] * y + m[8] * z,
        )
    }
}

impl Mul<Mat3> for Mat3 {
    type Output = Mat3;
    #[inline(always)]
    fn mul(self, rhs: Mat3) -> Mat3 {
        Mat3::from_flat(mul3(&self.m, &rhs.m))
    }
}

impl Index<(usize, usize)> for Mat3 {
    type Output = f64;
    #[inline(always)]
    fn index(&self, (i, j): (usize, usize)) -> &f64 {
        &self.m[3 * i + j]
    }
}

impl IndexMut<(usize, usize)> for Mat3 {
    #[inline(always)]
    fn index_mut(&mut self, (i, j): (usize, usize)) -> &mut f64 {
        &mut self.m[3 * i + j]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rotation_is_orthonormal() {
        for r in [
            Mat3::rotation_x(0.7),
            Mat3::rotation_y(-1.3),
            Mat3::rotation_z(2.9),
            Mat3::rotation_axis(Vec3::new(1.0, 2.0, 2.0).normalized(), 0.4),
        ] {
            let e = r * r.transpose() - Mat3::identity();
            assert!(e.max_abs() < 1e-12);
            let det = r.det();
            assert!((det - 1.0).abs() <= 1e-12 * det.abs().max(1.0));
        }
    }

    #[test]
    fn skew_matches_cross() {
        let v = Vec3::new(0.3, -1.0, 2.0);
        let w = Vec3::new(1.0, 4.0, -0.2);
        let lhs = Mat3::skew(v) * w;
        let rhs = v.cross(&w);
        assert!((lhs - rhs).max_abs() < 1e-14);
    }

    #[test]
    fn rotation_axis_matches_elementary() {
        let r1 = Mat3::rotation_axis(Vec3::unit_z(), 0.8);
        let r2 = Mat3::rotation_z(0.8);
        assert!((r1 - r2).max_abs() < 1e-12);
    }

    #[test]
    fn inverse_roundtrip() {
        let a = Mat3::from_rows([[2.0, 1.0, 0.3], [-1.0, 3.5, 0.7], [0.1, 0.0, 1.2]]);
        let i = a * a.inverse() - Mat3::identity();
        assert!(i.max_abs() < 1e-12);
    }

    #[test]
    fn det_of_identity() {
        assert_eq!(Mat3::identity().det(), 1.0);
    }

    #[test]
    fn symmetric_check() {
        let s = Mat3::from_rows([[1.0, 2.0, 3.0], [2.0, 4.0, 5.0], [3.0, 5.0, 6.0]]);
        assert!(s.is_symmetric(0.0));
        assert!(!Mat3::skew(Vec3::unit_x()).is_symmetric(1e-12));
    }

    #[test]
    fn row_col_access() {
        let a = Mat3::from_rows([[1.0, 2.0, 3.0], [4.0, 5.0, 6.0], [7.0, 8.0, 9.0]]);
        assert_eq!(a.row(1), Vec3::new(4.0, 5.0, 6.0));
        assert_eq!(a.col(2), Vec3::new(3.0, 6.0, 9.0));
        assert_eq!(a[(2, 0)], 7.0);
    }

    #[test]
    fn transposed_products_match_explicit_transpose() {
        let a = Mat3::from_rows([[1.0, 2.0, 3.0], [-4.0, 5.0, 6.0], [7.0, 0.5, 9.0]]);
        let b = Mat3::from_rows([[0.3, -1.0, 2.0], [1.0, 4.0, -0.2], [0.7, 0.1, 1.5]]);
        let v = Vec3::new(0.4, -0.7, 1.1);
        assert!((a.tr_mul(&b) - a.transpose() * b).max_abs() < 1e-15);
        assert!((a.tr_mul_vec(&v) - a.transpose() * v).max_abs() < 1e-15);
    }
}
