//! The robot model container and its builder.

use crate::joint::{Joint, JointType};
use crate::tree::Topology;
use rbd_spatial::{SpatialInertia, Vec3, Xform};
use std::fmt;

/// A complete robot model: topology + joints + link inertias + the
/// configuration/velocity index maps.
///
/// Build one with [`ModelBuilder`] or take a ready-made robot from
/// [`crate::robots`].
///
/// # Example
/// ```
/// use rbd_model::{JointType, ModelBuilder};
/// use rbd_spatial::{SpatialInertia, Vec3, Xform};
///
/// let mut b = ModelBuilder::new("pendulum");
/// let link = SpatialInertia::solid_box(1.0, 0.1, 0.1, 0.5, Vec3::new(0.0, 0.0, -0.25));
/// b.add_body("upper", None, JointType::revolute_y(), Xform::identity(), link);
/// let model = b.build();
/// assert_eq!(model.nv(), 1);
/// ```
#[derive(Debug, Clone)]
pub struct RobotModel {
    name: String,
    topo: Topology,
    joints: Vec<Joint>,
    links: Vec<SpatialInertia>,
    body_names: Vec<String>,
    q_index: Vec<usize>,
    v_index: Vec<usize>,
    nq: usize,
    nv: usize,
    /// Gravity acceleration in world coordinates (default `-9.81 ẑ`).
    pub gravity: Vec3,
}

impl RobotModel {
    /// Model name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Number of bodies/joints `NB`.
    pub fn num_bodies(&self) -> usize {
        self.joints.len()
    }

    /// Total configuration dimension (`nq`, includes quaternion slack).
    pub fn nq(&self) -> usize {
        self.nq
    }

    /// Total velocity dimension / DOF (the paper's `N`).
    pub fn nv(&self) -> usize {
        self.nv
    }

    /// The topology.
    pub fn topology(&self) -> &Topology {
        &self.topo
    }

    /// Joint attached to body `i`.
    pub fn joint(&self, i: usize) -> &Joint {
        &self.joints[i]
    }

    /// Spatial inertia of body `i` (in its own frame).
    pub fn link_inertia(&self, i: usize) -> &SpatialInertia {
        &self.links[i]
    }

    /// Name of body `i`.
    pub fn body_name(&self, i: usize) -> &str {
        &self.body_names[i]
    }

    /// Offset of body `i`'s configuration variables in a `q` vector.
    pub fn q_offset(&self, i: usize) -> usize {
        self.q_index[i]
    }

    /// Offset of body `i`'s velocity variables in a `v` vector.
    pub fn v_offset(&self, i: usize) -> usize {
        self.v_index[i]
    }

    /// Slice of `q` belonging to joint `i`.
    pub fn q_slice<'a>(&self, i: usize, q: &'a [f64]) -> &'a [f64] {
        &q[self.q_index[i]..self.q_index[i] + self.joints[i].jtype.nq()]
    }

    /// The neutral configuration (identity quaternions, zeros elsewhere).
    pub fn neutral_config(&self) -> Vec<f64> {
        let mut q = Vec::with_capacity(self.nq);
        for j in &self.joints {
            q.extend(j.jtype.neutral());
        }
        q
    }
}

impl fmt::Display for RobotModel {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "RobotModel({}, NB={}, nq={}, nv={})",
            self.name,
            self.num_bodies(),
            self.nq,
            self.nv
        )
    }
}

/// Incrementally builds a [`RobotModel`].
#[derive(Debug, Clone)]
pub struct ModelBuilder {
    name: String,
    parents: Vec<Option<usize>>,
    joints: Vec<Joint>,
    links: Vec<SpatialInertia>,
    body_names: Vec<String>,
    gravity: Vec3,
}

impl ModelBuilder {
    /// Starts an empty model with standard gravity.
    pub fn new(name: impl Into<String>) -> Self {
        Self {
            name: name.into(),
            parents: Vec::new(),
            joints: Vec::new(),
            links: Vec::new(),
            body_names: Vec::new(),
            gravity: Vec3::new(0.0, 0.0, -9.81),
        }
    }

    /// Overrides gravity (world frame).
    pub fn gravity(&mut self, g: Vec3) -> &mut Self {
        self.gravity = g;
        self
    }

    /// Adds a body connected to `parent` (or the world when `None`) through
    /// a joint of type `jtype` placed at `placement` in the parent frame.
    /// Returns the new body id.
    ///
    /// # Panics
    /// Panics if `parent` is out of range.
    pub fn add_body(
        &mut self,
        name: impl Into<String>,
        parent: Option<usize>,
        jtype: JointType,
        placement: Xform,
        inertia: SpatialInertia,
    ) -> usize {
        if let Some(p) = parent {
            assert!(p < self.parents.len(), "parent {p} not yet added");
        }
        let id = self.parents.len();
        self.parents.push(parent);
        self.joints.push(Joint::new(jtype, placement));
        self.links.push(inertia);
        self.body_names.push(name.into());
        id
    }

    /// Finalises the model.
    ///
    /// # Panics
    /// Panics if no body was added (the topology would be empty).
    pub fn build(&self) -> RobotModel {
        let topo = Topology::from_parents(&self.parents).expect("invalid topology");
        let mut q_index = Vec::with_capacity(self.joints.len());
        let mut v_index = Vec::with_capacity(self.joints.len());
        let (mut nq, mut nv) = (0, 0);
        for j in &self.joints {
            q_index.push(nq);
            v_index.push(nv);
            nq += j.jtype.nq();
            nv += j.jtype.nv();
        }
        RobotModel {
            name: self.name.clone(),
            topo,
            joints: self.joints.clone(),
            links: self.links.clone(),
            body_names: self.body_names.clone(),
            q_index,
            v_index,
            nq,
            nv,
            gravity: self.gravity,
        }
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use rbd_spatial::Mat3;

    /// Body id by name, if present.
    pub(crate) fn body_id(m: &RobotModel, name: &str) -> Option<usize> {
        (0..m.num_bodies()).position(|i| m.body_name(i) == name)
    }

    fn two_link() -> RobotModel {
        let mut b = ModelBuilder::new("two-link");
        let i1 = SpatialInertia::from_mass_com_inertia(
            1.0,
            Vec3::new(0.0, 0.0, -0.5),
            Mat3::diagonal(Vec3::new(0.1, 0.1, 0.01)),
        );
        let l0 = b.add_body("l0", None, JointType::revolute_y(), Xform::identity(), i1);
        b.add_body(
            "l1",
            Some(l0),
            JointType::revolute_y(),
            Xform::translation(Vec3::new(0.0, 0.0, -1.0)),
            i1,
        );
        b.build()
    }

    #[test]
    fn indices_are_cumulative() {
        let m = two_link();
        assert_eq!(m.nq(), 2);
        assert_eq!(m.nv(), 2);
        assert_eq!(m.q_offset(1), 1);
        assert_eq!(m.v_offset(1), 1);
    }

    #[test]
    fn mixed_joint_indices() {
        let mut b = ModelBuilder::new("mixed");
        let base = b.add_body(
            "base",
            None,
            JointType::Floating,
            Xform::identity(),
            SpatialInertia::solid_box(10.0, 0.5, 0.3, 0.2, Vec3::zero()),
        );
        let arm = b.add_body(
            "arm",
            Some(base),
            JointType::revolute_z(),
            Xform::identity(),
            SpatialInertia::solid_cylinder(2.0, 0.05, 0.4, Vec3::zero()),
        );
        b.add_body(
            "wrist",
            Some(arm),
            JointType::Spherical,
            Xform::identity(),
            // A solid sphere of radius 0.05: I = 2/5·m·r².
            SpatialInertia::from_mass_com_inertia(
                0.5,
                Vec3::zero(),
                Mat3::diagonal(Vec3::new(5e-4, 5e-4, 5e-4)),
            ),
        );
        let m = b.build();
        assert_eq!(m.nq(), 7 + 1 + 4);
        assert_eq!(m.nv(), 6 + 1 + 3);
        assert_eq!(m.q_offset(2), 8);
        assert_eq!(m.v_offset(2), 7);
        assert_eq!(m.neutral_config().len(), m.nq());
        assert_eq!(body_id(&m, "arm"), Some(1));
        assert_eq!(body_id(&m, "nope"), None);
    }

    #[test]
    #[should_panic]
    fn bad_parent_panics() {
        let mut b = ModelBuilder::new("bad");
        b.add_body(
            "x",
            Some(3),
            JointType::revolute_x(),
            Xform::identity(),
            SpatialInertia::zero(),
        );
    }

    #[test]
    fn q_v_slices() {
        let m = two_link();
        let q = vec![0.1, 0.2];
        assert_eq!(m.q_slice(1, &q), &[0.2]);
    }
}
