//! Joint types, joint transforms and motion subspaces.

use rbd_spatial::{Mat3, MotionVec, Quat, Vec3, Xform};
use std::fmt;

/// The joint types supported by the reproduction (§II of the paper lists
/// revolute, prismatic, helical, cylindrical, planar, spherical, 3-DOF
/// translation and 6-DOF; helical/cylindrical are not exercised by any
/// paper robot and are omitted).
///
/// Every implemented joint has a motion subspace `S` that is **constant in
/// the child frame**, with velocity coordinates taken in the body (child)
/// frame; configuration integration is the corresponding right
/// exponential. This is the same convention Pinocchio and GRiD use and is
/// what makes tangent-space derivatives well-defined for quaternion
/// joints.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum JointType {
    /// 1-DOF rotation about a unit axis fixed in both parent and child.
    Revolute(Vec3),
    /// 1-DOF translation along a unit axis.
    Prismatic(Vec3),
    /// 3-DOF ball joint; configuration is a unit quaternion `[w,x,y,z]`.
    Spherical,
    /// 3-DOF translation; configuration is the offset in the parent frame.
    Translation3,
    /// 3-DOF planar joint (SE(2)): configuration `[x, y, θ]`, velocity
    /// `[ω_z, v_x, v_y]` in the body frame.
    Planar,
    /// 6-DOF free joint; configuration `[p_x,p_y,p_z, q_w,q_x,q_y,q_z]`,
    /// velocity `[ω; v]` in the body frame.
    Floating,
}

impl JointType {
    /// Convenience: revolute about X.
    pub fn revolute_x() -> Self {
        Self::Revolute(Vec3::unit_x())
    }
    /// Convenience: revolute about Y.
    pub fn revolute_y() -> Self {
        Self::Revolute(Vec3::unit_y())
    }
    /// Convenience: revolute about Z.
    pub fn revolute_z() -> Self {
        Self::Revolute(Vec3::unit_z())
    }
    /// Convenience: prismatic along Z.
    pub fn prismatic_z() -> Self {
        Self::Prismatic(Vec3::unit_z())
    }

    /// Number of configuration variables (`nq`).
    pub fn nq(&self) -> usize {
        match self {
            Self::Revolute(_) | Self::Prismatic(_) => 1,
            Self::Spherical => 4,
            Self::Translation3 | Self::Planar => 3,
            Self::Floating => 7,
        }
    }

    /// Number of velocity variables / DOF (`nv`, the paper's `N_i`).
    pub fn nv(&self) -> usize {
        match self {
            Self::Revolute(_) | Self::Prismatic(_) => 1,
            Self::Spherical | Self::Translation3 | Self::Planar => 3,
            Self::Floating => 6,
        }
    }

    /// `true` for joints whose transform involves `sin`/`cos` of the
    /// configuration (drives the Global Trigonometric Module model).
    pub fn uses_trig(&self) -> bool {
        !matches!(self, Self::Prismatic(_) | Self::Translation3)
    }

    /// The neutral (identity) configuration.
    pub fn neutral(&self) -> Vec<f64> {
        match self {
            Self::Revolute(_) | Self::Prismatic(_) => vec![0.0],
            Self::Spherical => vec![1.0, 0.0, 0.0, 0.0],
            Self::Translation3 | Self::Planar => vec![0.0; 3],
            Self::Floating => vec![0.0, 0.0, 0.0, 1.0, 0.0, 0.0, 0.0],
        }
    }

    /// The joint transform `X_J(q) = ^child X_joint-frame`.
    ///
    /// # Panics
    /// Panics if `q.len() != self.nq()`.
    pub fn joint_xform(&self, q: &[f64]) -> Xform {
        assert_eq!(q.len(), self.nq(), "bad configuration length");
        match self {
            Self::Revolute(axis) => Xform::rot_axis(*axis, q[0]),
            Self::Prismatic(axis) => Xform::translation(*axis * q[0]),
            Self::Spherical => {
                let quat = Quat::new(q[0], q[1], q[2], q[3]).normalized();
                // E maps parent coords into child coords: E = R(quat)ᵀ.
                Xform::new(quat.to_rotation_matrix().transpose(), Vec3::zero())
            }
            Self::Translation3 => Xform::translation(Vec3::new(q[0], q[1], q[2])),
            Self::Planar => Xform::new(
                Mat3::rotation_z(q[2]).transpose(),
                Vec3::new(q[0], q[1], 0.0),
            ),
            Self::Floating => {
                let quat = Quat::new(q[3], q[4], q[5], q[6]).normalized();
                Xform::new(
                    quat.to_rotation_matrix().transpose(),
                    Vec3::new(q[0], q[1], q[2]),
                )
            }
        }
    }

    /// The motion-subspace columns `S` in the child frame (constant for
    /// every implemented joint type).
    pub fn motion_subspace(&self) -> Vec<MotionVec> {
        match self {
            Self::Revolute(axis) => vec![MotionVec::new(*axis, Vec3::zero())],
            Self::Prismatic(axis) => vec![MotionVec::new(Vec3::zero(), *axis)],
            Self::Spherical => vec![
                MotionVec::new(Vec3::unit_x(), Vec3::zero()),
                MotionVec::new(Vec3::unit_y(), Vec3::zero()),
                MotionVec::new(Vec3::unit_z(), Vec3::zero()),
            ],
            Self::Translation3 => vec![
                MotionVec::new(Vec3::zero(), Vec3::unit_x()),
                MotionVec::new(Vec3::zero(), Vec3::unit_y()),
                MotionVec::new(Vec3::zero(), Vec3::unit_z()),
            ],
            Self::Planar => vec![
                MotionVec::new(Vec3::unit_z(), Vec3::zero()),
                MotionVec::new(Vec3::zero(), Vec3::unit_x()),
                MotionVec::new(Vec3::zero(), Vec3::unit_y()),
            ],
            Self::Floating => (0..6)
                .map(|k| {
                    let mut m = MotionVec::zero();
                    m[k] = 1.0;
                    m
                })
                .collect(),
        }
    }

    /// Integrates the configuration by the body-frame velocity `v` over
    /// `dt` (first-order right exponential `q ⊕ v·dt`).
    ///
    /// # Panics
    /// Panics on mismatched slice lengths.
    pub fn integrate(&self, q: &mut [f64], v: &[f64], dt: f64) {
        assert_eq!(q.len(), self.nq());
        assert_eq!(v.len(), self.nv());
        match self {
            Self::Revolute(_) | Self::Prismatic(_) => q[0] += v[0] * dt,
            Self::Spherical => {
                let quat = Quat::new(q[0], q[1], q[2], q[3]).normalized();
                let dq = Quat::exp(Vec3::new(v[0], v[1], v[2]) * dt);
                let out = (quat * dq).normalized();
                q.copy_from_slice(&[out.w, out.x, out.y, out.z]);
            }
            Self::Translation3 => {
                for k in 0..3 {
                    q[k] += v[k] * dt;
                }
            }
            Self::Planar => {
                // Body-frame (v_x, v_y) mapped through the current heading.
                let (s, c) = q[2].sin_cos();
                q[0] += (c * v[1] - s * v[2]) * dt;
                q[1] += (s * v[1] + c * v[2]) * dt;
                q[2] += v[0] * dt;
            }
            Self::Floating => {
                let quat = Quat::new(q[3], q[4], q[5], q[6]).normalized();
                let r = quat.to_rotation_matrix();
                let dp = r * (Vec3::new(v[3], v[4], v[5]) * dt);
                q[0] += dp.x();
                q[1] += dp.y();
                q[2] += dp.z();
                let dq = Quat::exp(Vec3::new(v[0], v[1], v[2]) * dt);
                let out = (quat * dq).normalized();
                q[3] = out.w;
                q[4] = out.x;
                q[5] = out.y;
                q[6] = out.z;
            }
        }
    }

    /// Short human-readable name.
    pub fn name(&self) -> &'static str {
        match self {
            Self::Revolute(_) => "revolute",
            Self::Prismatic(_) => "prismatic",
            Self::Spherical => "spherical",
            Self::Translation3 => "translation3",
            Self::Planar => "planar",
            Self::Floating => "floating",
        }
    }
}

impl fmt::Display for JointType {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.name())
    }
}

/// A joint instance: its type and its fixed placement in the parent link
/// (`X_T = ^joint-frame X_parent`), so that the full parent→child transform
/// is `Xup = X_J(q) ∘ X_T`.
#[derive(Debug, Clone, PartialEq)]
pub struct Joint {
    /// Joint type.
    pub jtype: JointType,
    /// Fixed tree transform from the parent link frame to the joint
    /// reference frame.
    pub placement: Xform,
}

impl Joint {
    /// Creates a joint with the given fixed placement.
    pub fn new(jtype: JointType, placement: Xform) -> Self {
        Self { jtype, placement }
    }

    /// Full parent→child transform `Xup = X_J(q) ∘ X_T`.
    pub fn child_xform(&self, q: &[f64]) -> Xform {
        self.jtype.joint_xform(q).compose(&self.placement)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nq_nv_consistency() {
        for jt in [
            JointType::revolute_z(),
            JointType::prismatic_z(),
            JointType::Spherical,
            JointType::Translation3,
            JointType::Planar,
            JointType::Floating,
        ] {
            assert_eq!(jt.neutral().len(), jt.nq());
            assert_eq!(jt.motion_subspace().len(), jt.nv());
        }
    }

    #[test]
    fn neutral_gives_identity_transform() {
        for jt in [
            JointType::revolute_x(),
            JointType::prismatic_z(),
            JointType::Spherical,
            JointType::Translation3,
            JointType::Planar,
            JointType::Floating,
        ] {
            let x = jt.joint_xform(&jt.neutral());
            assert!((x.rot - Mat3::identity()).max_abs() < 1e-12, "{jt}");
            assert!(x.trans.max_abs() < 1e-12, "{jt}");
        }
    }

    /// The defining property of a motion subspace: the body-frame relative
    /// velocity predicted by `S v` must match the numerical derivative of
    /// the joint transform under `integrate`.
    #[test]
    fn subspace_matches_numeric_velocity() {
        let h = 1e-6;
        for jt in [
            JointType::Revolute(Vec3::new(1.0, 2.0, -1.0).normalized()),
            JointType::Prismatic(Vec3::new(0.0, 1.0, 1.0).normalized()),
            JointType::Spherical,
            JointType::Translation3,
            JointType::Planar,
            JointType::Floating,
        ] {
            let mut q0 = jt.neutral();
            // Move to a generic configuration first.
            let v0: Vec<f64> = (0..jt.nv()).map(|k| 0.3 + 0.2 * k as f64).collect();
            jt.integrate(&mut q0, &v0, 1.0);

            for dof in 0..jt.nv() {
                let mut v = vec![0.0; jt.nv()];
                v[dof] = 1.0;
                let mut q1 = q0.clone();
                jt.integrate(&mut q1, &v, h);

                let x0 = jt.joint_xform(&q0);
                let x1 = jt.joint_xform(&q1);
                // Relative spatial velocity in the child frame:
                // v_rel = (X1 ∘ X0⁻¹ - 1)/h mapped through x0; equivalently
                // compare transformed test vectors.
                let s = jt.motion_subspace()[dof];
                // Predicted displacement of the child frame: for small h the
                // transform X(q ⊕ h e) ≈ exp(-h Ŝ) X(q) in child coords, so
                // X1 X0⁻¹ applied to a motion vector m ≈ m - h (S × m).
                let probe = MotionVec::new(Vec3::new(0.2, -0.4, 0.7), Vec3::new(1.0, 0.3, -0.5));
                let moved = x1.apply_motion(&x0.inv_apply_motion(&probe));
                let numeric = (moved - probe) * (1.0 / h);
                let analytic = -s.cross_motion(&probe);
                assert!(
                    (numeric - analytic).max_abs() < 1e-4,
                    "joint {jt} dof {dof}: numeric {numeric} vs analytic {analytic}"
                );
            }
        }
    }

    #[test]
    fn integrate_revolute_accumulates() {
        let jt = JointType::revolute_z();
        let mut q = jt.neutral();
        jt.integrate(&mut q, &[2.0], 0.25);
        assert!((q[0] - 0.5).abs() < 1e-15);
    }

    #[test]
    fn floating_integration_moves_in_body_frame() {
        let jt = JointType::Floating;
        let mut q = jt.neutral();
        // Rotate 90° about z, then move along body x — should end up at +y.
        jt.integrate(
            &mut q,
            &[0.0, 0.0, std::f64::consts::FRAC_PI_2, 0.0, 0.0, 0.0],
            1.0,
        );
        jt.integrate(&mut q, &[0.0, 0.0, 0.0, 1.0, 0.0, 0.0], 1.0);
        assert!(q[0].abs() < 1e-12);
        assert!((q[1] - 1.0).abs() < 1e-12);
    }

    #[test]
    fn planar_integration_uses_heading() {
        let jt = JointType::Planar;
        let mut q = jt.neutral();
        jt.integrate(&mut q, &[std::f64::consts::FRAC_PI_2, 0.0, 0.0], 1.0);
        jt.integrate(&mut q, &[0.0, 1.0, 0.0], 1.0);
        assert!(q[0].abs() < 1e-12);
        assert!((q[1] - 1.0).abs() < 1e-12);
    }

    #[test]
    fn child_xform_includes_placement() {
        let j = Joint::new(
            JointType::revolute_z(),
            Xform::translation(Vec3::new(0.0, 0.0, 0.5)),
        );
        let x = j.child_xform(&[0.0]);
        assert!((x.trans - Vec3::new(0.0, 0.0, 0.5)).max_abs() < 1e-15);
    }

    #[test]
    fn trig_usage_flags() {
        assert!(JointType::revolute_z().uses_trig());
        assert!(!JointType::prismatic_z().uses_trig());
        assert!(!JointType::Translation3.uses_trig());
        assert!(JointType::Planar.uses_trig());
    }
}
