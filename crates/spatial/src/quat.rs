//! Unit quaternions for spherical / floating joint configuration spaces.

use crate::{Mat3, Vec3};
use std::fmt;
use std::ops::Mul;

/// A quaternion `w + xi + yj + zk`, normally kept at unit norm and used to
/// represent an orientation (the rotation that maps child-frame coordinates
/// into the parent frame when applied actively).
///
/// # Example
/// ```
/// use rbd_spatial::{Quat, Vec3};
/// let q = Quat::from_axis_angle(Vec3::unit_z(), std::f64::consts::FRAC_PI_2);
/// let v = q.rotate(Vec3::unit_x());
/// assert!((v.y() - 1.0).abs() < 1e-12);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Quat {
    /// Scalar part.
    pub w: f64,
    /// Vector part, x.
    pub x: f64,
    /// Vector part, y.
    pub y: f64,
    /// Vector part, z.
    pub z: f64,
}

impl Default for Quat {
    fn default() -> Self {
        Self::identity()
    }
}

impl Quat {
    /// Creates a quaternion from components (not normalised).
    #[inline]
    pub const fn new(w: f64, x: f64, y: f64, z: f64) -> Self {
        Self { w, x, y, z }
    }

    /// The identity rotation.
    #[inline]
    pub const fn identity() -> Self {
        Self::new(1.0, 0.0, 0.0, 0.0)
    }

    /// Rotation of `angle` radians about the unit vector `axis`.
    pub fn from_axis_angle(axis: Vec3, angle: f64) -> Self {
        let (s, c) = (angle * 0.5).sin_cos();
        Self::new(c, axis.x() * s, axis.y() * s, axis.z() * s)
    }

    /// Exponential map: the rotation obtained by integrating angular
    /// velocity `w` for unit time (`‖w‖` is the rotation angle).
    pub fn exp(w: Vec3) -> Self {
        let theta = w.norm();
        if theta < 1e-12 {
            // Second-order series keeps the map smooth near zero.
            let half = w * 0.5;
            Self::new(1.0 - theta * theta / 8.0, half.x(), half.y(), half.z()).normalized()
        } else {
            Self::from_axis_angle(w / theta, theta)
        }
    }

    /// Quaternion norm.
    #[inline]
    pub fn norm(&self) -> f64 {
        (self.w * self.w + self.x * self.x + self.y * self.y + self.z * self.z).sqrt()
    }

    /// Returns the unit-norm version of this quaternion. A quaternion
    /// with a NaN component normalizes to NaN, so a diverged state
    /// propagates like ±∞ instead of panicking.
    ///
    /// # Panics
    /// Panics on a (near-)zero quaternion.
    pub fn normalized(&self) -> Self {
        let n = self.norm();
        assert!(
            n > 1e-300 || n.is_nan(),
            "cannot normalize a zero quaternion"
        );
        Self::new(self.w / n, self.x / n, self.y / n, self.z / n)
    }

    /// Applies the rotation to a vector.
    pub fn rotate(&self, v: Vec3) -> Vec3 {
        self.to_rotation_matrix() * v
    }

    /// Converts to an active rotation matrix `R` with `R v = self.rotate(v)`.
    pub fn to_rotation_matrix(&self) -> Mat3 {
        let (w, x, y, z) = (self.w, self.x, self.y, self.z);
        Mat3::from_rows([
            [
                1.0 - 2.0 * (y * y + z * z),
                2.0 * (x * y - w * z),
                2.0 * (x * z + w * y),
            ],
            [
                2.0 * (x * y + w * z),
                1.0 - 2.0 * (x * x + z * z),
                2.0 * (y * z - w * x),
            ],
            [
                2.0 * (x * z - w * y),
                2.0 * (y * z + w * x),
                1.0 - 2.0 * (x * x + y * y),
            ],
        ])
    }
}

impl Mul for Quat {
    type Output = Quat;
    /// Hamilton product; `(a * b).rotate(v) == a.rotate(b.rotate(v))`.
    fn mul(self, r: Quat) -> Quat {
        Quat::new(
            self.w * r.w - self.x * r.x - self.y * r.y - self.z * r.z,
            self.w * r.x + self.x * r.w + self.y * r.z - self.z * r.y,
            self.w * r.y - self.x * r.z + self.y * r.w + self.z * r.x,
            self.w * r.z + self.x * r.y - self.y * r.x + self.z * r.w,
        )
    }
}

impl fmt::Display for Quat {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "({:.6} + {:.6}i + {:.6}j + {:.6}k)",
            self.w, self.x, self.y, self.z
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nan_quaternion_normalizes_to_nan() {
        let q = Quat::new(f64::NAN, 0.0, 0.0, 1.0).normalized();
        assert!([q.w, q.x, q.y, q.z].iter().all(|c| c.is_nan()));
    }

    #[test]
    #[should_panic(expected = "cannot normalize a zero quaternion")]
    fn zero_quaternion_still_panics() {
        Quat::new(0.0, 0.0, 0.0, 0.0).normalized();
    }

    #[test]
    fn axis_angle_matches_matrix() {
        let q = Quat::from_axis_angle(Vec3::unit_y(), 0.9);
        let r = Mat3::rotation_y(0.9);
        assert!((q.to_rotation_matrix() - r).max_abs() < 1e-12);
    }

    #[test]
    fn product_composes_rotations() {
        let a = Quat::from_axis_angle(Vec3::unit_x(), 0.3);
        let b = Quat::from_axis_angle(Vec3::unit_z(), -1.1);
        let v = Vec3::new(0.2, -0.7, 1.5);
        let lhs = (a * b).rotate(v);
        let rhs = a.rotate(b.rotate(v));
        assert!((lhs - rhs).max_abs() < 1e-12);
    }

    #[test]
    fn exp_small_angle_is_smooth() {
        let q = Quat::exp(Vec3::new(1e-14, 0.0, 0.0));
        assert!((q.norm() - 1.0).abs() < 1e-12);
        let q2 = Quat::exp(Vec3::new(0.3, 0.0, 0.0));
        let expect = Quat::from_axis_angle(Vec3::unit_x(), 0.3);
        assert!((q2.to_rotation_matrix() - expect.to_rotation_matrix()).max_abs() < 1e-12);
    }
}
