//! 3-dimensional vectors on flat array backing.

use std::fmt;
use std::ops::{Add, AddAssign, Div, Index, IndexMut, Mul, Neg, Sub, SubAssign};

/// A 3-D vector of `f64` coordinates, backed by a flat `[f64; 3]` so that
/// batches of vectors form one contiguous stream of doubles the compiler
/// can autovectorize over.
///
/// # Example
/// ```
/// use rbd_spatial::Vec3;
/// let a = Vec3::new(1.0, 2.0, 3.0);
/// let b = Vec3::unit_x();
/// assert_eq!(a.dot(&b), 1.0);
/// assert_eq!(a.cross(&b), Vec3::new(0.0, 3.0, -2.0));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Vec3 {
    a: [f64; 3],
}

impl Vec3 {
    /// Creates a vector from its three coordinates.
    #[inline(always)]
    pub const fn new(x: f64, y: f64, z: f64) -> Self {
        Self { a: [x, y, z] }
    }

    /// The zero vector.
    #[inline(always)]
    pub const fn zero() -> Self {
        Self::new(0.0, 0.0, 0.0)
    }

    /// Unit vector along X.
    #[inline]
    pub const fn unit_x() -> Self {
        Self::new(1.0, 0.0, 0.0)
    }

    /// Unit vector along Y.
    #[inline]
    pub const fn unit_y() -> Self {
        Self::new(0.0, 1.0, 0.0)
    }

    /// Unit vector along Z.
    #[inline]
    pub const fn unit_z() -> Self {
        Self::new(0.0, 0.0, 1.0)
    }

    /// X coordinate.
    #[inline(always)]
    pub const fn x(&self) -> f64 {
        self.a[0]
    }

    /// Y coordinate.
    #[inline(always)]
    pub const fn y(&self) -> f64 {
        self.a[1]
    }

    /// Z coordinate.
    #[inline(always)]
    pub const fn z(&self) -> f64 {
        self.a[2]
    }

    /// Builds a vector from a slice of at least three elements.
    ///
    /// # Panics
    /// Panics if `s.len() < 3`.
    #[inline]
    pub fn from_slice(s: &[f64]) -> Self {
        Self::new(s[0], s[1], s[2])
    }

    /// Returns the coordinates as an array `[x, y, z]`.
    #[inline(always)]
    pub const fn to_array(self) -> [f64; 3] {
        self.a
    }

    /// Borrows the coordinates as a flat array.
    #[inline(always)]
    pub const fn as_array(&self) -> &[f64; 3] {
        &self.a
    }

    /// Dot product.
    #[inline(always)]
    pub fn dot(&self, rhs: &Self) -> f64 {
        self.a[0] * rhs.a[0] + self.a[1] * rhs.a[1] + self.a[2] * rhs.a[2]
    }

    /// Cross product `self × rhs`.
    #[inline(always)]
    pub fn cross(&self, rhs: &Self) -> Self {
        let [ax, ay, az] = self.a;
        let [bx, by, bz] = rhs.a;
        Self::new(ay * bz - az * by, az * bx - ax * bz, ax * by - ay * bx)
    }

    /// Euclidean norm.
    #[inline]
    pub fn norm(&self) -> f64 {
        self.dot(self).sqrt()
    }

    /// Returns the vector scaled to unit length.
    ///
    /// # Panics
    /// Panics if the vector has (near-)zero norm.
    #[inline]
    pub fn normalized(&self) -> Self {
        let n = self.norm();
        assert!(n > 1e-300, "cannot normalize a zero vector");
        *self / n
    }

    /// Largest absolute coordinate (NaN if any is NaN).
    #[inline]
    pub fn max_abs(&self) -> f64 {
        crate::max_abs_of(&self.a)
    }

    /// Component-wise map.
    #[inline]
    pub fn map(&self, f: impl Fn(f64) -> f64) -> Self {
        Self::new(f(self.a[0]), f(self.a[1]), f(self.a[2]))
    }
}

impl fmt::Display for Vec3 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[{:.6}, {:.6}, {:.6}]", self.a[0], self.a[1], self.a[2])
    }
}

impl Add for Vec3 {
    type Output = Vec3;
    #[inline(always)]
    fn add(self, rhs: Vec3) -> Vec3 {
        Vec3::new(
            self.a[0] + rhs.a[0],
            self.a[1] + rhs.a[1],
            self.a[2] + rhs.a[2],
        )
    }
}

impl AddAssign for Vec3 {
    #[inline(always)]
    fn add_assign(&mut self, rhs: Vec3) {
        *self = *self + rhs;
    }
}

impl Sub for Vec3 {
    type Output = Vec3;
    #[inline(always)]
    fn sub(self, rhs: Vec3) -> Vec3 {
        Vec3::new(
            self.a[0] - rhs.a[0],
            self.a[1] - rhs.a[1],
            self.a[2] - rhs.a[2],
        )
    }
}

impl SubAssign for Vec3 {
    #[inline(always)]
    fn sub_assign(&mut self, rhs: Vec3) {
        *self = *self - rhs;
    }
}

impl Neg for Vec3 {
    type Output = Vec3;
    #[inline(always)]
    fn neg(self) -> Vec3 {
        Vec3::new(-self.a[0], -self.a[1], -self.a[2])
    }
}

impl Mul<f64> for Vec3 {
    type Output = Vec3;
    #[inline(always)]
    fn mul(self, s: f64) -> Vec3 {
        Vec3::new(self.a[0] * s, self.a[1] * s, self.a[2] * s)
    }
}

impl Mul<Vec3> for f64 {
    type Output = Vec3;
    #[inline(always)]
    fn mul(self, v: Vec3) -> Vec3 {
        v * self
    }
}

impl Div<f64> for Vec3 {
    type Output = Vec3;
    #[inline]
    fn div(self, s: f64) -> Vec3 {
        Vec3::new(self.a[0] / s, self.a[1] / s, self.a[2] / s)
    }
}

impl Index<usize> for Vec3 {
    type Output = f64;
    #[inline(always)]
    fn index(&self, i: usize) -> &f64 {
        &self.a[i]
    }
}

impl IndexMut<usize> for Vec3 {
    #[inline(always)]
    fn index_mut(&mut self, i: usize) -> &mut f64 {
        &mut self.a[i]
    }
}

impl From<[f64; 3]> for Vec3 {
    #[inline(always)]
    fn from(a: [f64; 3]) -> Self {
        Self { a }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cross_is_anticommutative() {
        let a = Vec3::new(1.0, 2.0, 3.0);
        let b = Vec3::new(-0.5, 0.25, 4.0);
        assert_eq!(a.cross(&b), -(b.cross(&a)));
    }

    #[test]
    fn cross_orthogonal_to_operands() {
        let a = Vec3::new(1.0, 2.0, 3.0);
        let b = Vec3::new(4.0, -1.0, 0.5);
        let c = a.cross(&b);
        assert!(c.dot(&a).abs() < 1e-12);
        assert!(c.dot(&b).abs() < 1e-12);
    }

    #[test]
    fn unit_vectors_cycle() {
        assert_eq!(Vec3::unit_x().cross(&Vec3::unit_y()), Vec3::unit_z());
        assert_eq!(Vec3::unit_y().cross(&Vec3::unit_z()), Vec3::unit_x());
        assert_eq!(Vec3::unit_z().cross(&Vec3::unit_x()), Vec3::unit_y());
    }

    #[test]
    fn norm_and_normalize() {
        let v = Vec3::new(3.0, 4.0, 0.0);
        assert_eq!(v.norm(), 5.0);
        let u = v.normalized();
        assert!((u.norm() - 1.0).abs() < 1e-15);
    }

    #[test]
    fn indexing_roundtrip() {
        let mut v = Vec3::zero();
        v[0] = 1.0;
        v[1] = 2.0;
        v[2] = 3.0;
        assert_eq!(v, Vec3::new(1.0, 2.0, 3.0));
        assert_eq!(v[2], 3.0);
        assert_eq!(v.x(), 1.0);
        assert_eq!(v.y(), 2.0);
        assert_eq!(v.z(), 3.0);
    }

    #[test]
    #[should_panic]
    fn index_out_of_range_panics() {
        let v = Vec3::zero();
        let _ = v[3];
    }

    #[test]
    fn arithmetic() {
        let a = Vec3::new(1.0, 2.0, 3.0);
        let b = Vec3::new(0.5, 0.5, 0.5);
        assert_eq!(a + b, Vec3::new(1.5, 2.5, 3.5));
        assert_eq!(a - b, Vec3::new(0.5, 1.5, 2.5));
        assert_eq!(a * 2.0, Vec3::new(2.0, 4.0, 6.0));
        assert_eq!(2.0 * a, a * 2.0);
        assert_eq!(a / 2.0, Vec3::new(0.5, 1.0, 1.5));
    }

    #[test]
    fn array_roundtrip() {
        let v = Vec3::from([1.0, 2.0, 3.0]);
        assert_eq!(v.to_array(), [1.0, 2.0, 3.0]);
        assert_eq!(v.as_array(), &[1.0, 2.0, 3.0]);
        assert_eq!(Vec3::from_slice(&[1.0, 2.0, 3.0, 9.0]), v);
    }
}
