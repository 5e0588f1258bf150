//! Concrete robot models used in the paper's evaluation (§VI): LBR iiwa,
//! HyQ and Atlas, plus the SAP discussion robots (Spot-arm, Tiago,
//! quadruped-with-arm of Fig 3) and synthetic generators.
//!
//! Masses, lengths and inertias are engineering approximations of the
//! public URDF data — the paper's experiments depend on the *structure*
//! (NB, DOF, branching, joint types), which is matched exactly.

use crate::joint::JointType;
use crate::robot::{ModelBuilder, RobotModel};
use crate::state::SplitMix64;
use rbd_spatial::{SpatialInertia, Vec3, Xform};

/// KUKA LBR iiwa: 7-DOF fixed-base serial arm (7 revolute joints).
pub fn iiwa() -> RobotModel {
    let mut b = ModelBuilder::new("iiwa");
    // (mass, length of the segment to the next joint, axis)
    let segs: [(f64, f64, JointType); 7] = [
        (4.0, 0.1575, JointType::revolute_z()),
        (4.0, 0.2025, JointType::revolute_y()),
        (3.0, 0.2045, JointType::revolute_z()),
        (2.7, 0.2155, JointType::revolute_y()),
        (1.7, 0.1845, JointType::revolute_z()),
        (1.8, 0.2155, JointType::revolute_y()),
        (0.3, 0.081, JointType::revolute_z()),
    ];
    let mut parent = None;
    for (k, (m, l, jt)) in segs.iter().enumerate() {
        let inertia = SpatialInertia::solid_cylinder(*m, 0.06, *l, Vec3::new(0.0, 0.0, l * 0.5));
        let placement = if k == 0 {
            Xform::identity()
        } else {
            Xform::translation(Vec3::new(0.0, 0.0, segs[k - 1].1))
        };
        let id = b.add_body(format!("link{}", k + 1), parent, *jt, placement, inertia);
        parent = Some(id);
    }
    b.build()
}

/// Adds one 3-joint leg (hip abduction/adduction, hip flexion, knee) to a
/// quadruped body. Returns the foot body id.
fn add_leg(b: &mut ModelBuilder, body: usize, prefix: &str, attach: Vec3, mirror: f64) -> usize {
    let upper = 0.35;
    let lower = 0.33;
    let haa = b.add_body(
        format!("{prefix}_haa"),
        Some(body),
        JointType::revolute_x(),
        Xform::translation(attach),
        SpatialInertia::solid_cylinder(1.5, 0.04, 0.08, Vec3::new(0.0, mirror * 0.04, 0.0)),
    );
    let hfe = b.add_body(
        format!("{prefix}_hfe"),
        Some(haa),
        JointType::revolute_y(),
        Xform::translation(Vec3::new(0.0, mirror * 0.08, 0.0)),
        SpatialInertia::solid_cylinder(2.5, 0.04, upper, Vec3::new(0.0, 0.0, -upper * 0.5)),
    );
    b.add_body(
        format!("{prefix}_kfe"),
        Some(hfe),
        JointType::revolute_y(),
        Xform::translation(Vec3::new(0.0, 0.0, -upper)),
        SpatialInertia::solid_cylinder(0.9, 0.03, lower, Vec3::new(0.0, 0.0, -lower * 0.5)),
    )
}

/// Adds an `n`-joint serial arm and returns the last body id.
fn add_arm(b: &mut ModelBuilder, mut parent: usize, prefix: &str, attach: Vec3, n: usize) -> usize {
    let axes = [
        JointType::revolute_z(),
        JointType::revolute_y(),
        JointType::revolute_z(),
        JointType::revolute_y(),
        JointType::revolute_x(),
        JointType::revolute_y(),
        JointType::revolute_x(),
    ];
    let masses = [2.5, 2.2, 1.8, 1.4, 1.0, 0.7, 0.4];
    let lens = [0.15, 0.2, 0.2, 0.18, 0.15, 0.1, 0.08];
    for k in 0..n {
        let placement = if k == 0 {
            Xform::translation(attach)
        } else {
            Xform::translation(Vec3::new(0.0, 0.0, lens[k - 1]))
        };
        let inertia = SpatialInertia::solid_cylinder(
            masses[k],
            0.045,
            lens[k],
            Vec3::new(0.0, 0.0, lens[k] * 0.5),
        );
        parent = b.add_body(
            format!("{prefix}{}", k + 1),
            Some(parent),
            axes[k],
            placement,
            inertia,
        );
    }
    parent
}

/// HyQ: hydraulically actuated quadruped — 6-DOF floating base + four
/// 3-DOF legs (NB = 13, N = 18).
pub fn hyq() -> RobotModel {
    let mut b = ModelBuilder::new("hyq");
    let body = b.add_body(
        "trunk",
        None,
        JointType::Floating,
        Xform::identity(),
        SpatialInertia::solid_box(60.0, 1.0, 0.45, 0.2, Vec3::zero()),
    );
    let (lx, ly) = (0.37, 0.21);
    add_leg(&mut b, body, "lf", Vec3::new(lx, ly, 0.0), 1.0);
    add_leg(&mut b, body, "rf", Vec3::new(lx, -ly, 0.0), -1.0);
    add_leg(&mut b, body, "lh", Vec3::new(-lx, ly, 0.0), 1.0);
    add_leg(&mut b, body, "rh", Vec3::new(-lx, -ly, 0.0), -1.0);
    b.build()
}

/// The quadruped-with-arm example of Fig 3 / §V-B: 6-DOF floating body,
/// four 3-DOF legs and a 6-DOF arm (NB = 19, N = 24).
pub fn quadruped_arm() -> RobotModel {
    let mut b = ModelBuilder::new("quadruped-arm");
    let body = b.add_body(
        "body",
        None,
        JointType::Floating,
        Xform::identity(),
        SpatialInertia::solid_box(25.0, 0.8, 0.4, 0.18, Vec3::zero()),
    );
    let (lx, ly) = (0.3, 0.17);
    add_leg(&mut b, body, "leg1", Vec3::new(lx, ly, 0.0), 1.0);
    add_leg(&mut b, body, "leg2", Vec3::new(lx, -ly, 0.0), -1.0);
    add_leg(&mut b, body, "leg3", Vec3::new(-lx, ly, 0.0), 1.0);
    add_leg(&mut b, body, "leg4", Vec3::new(-lx, -ly, 0.0), -1.0);
    add_arm(&mut b, body, "arm", Vec3::new(0.25, 0.0, 0.1), 6);
    b.build()
}

/// Spot-arm (§V-C1, Fig 11b): same structure class as
/// [`quadruped_arm`] — 6-DOF body, four symmetric 3-DOF legs, 6-DOF arm.
pub fn spot_arm() -> RobotModel {
    let mut b = ModelBuilder::new("spot-arm");
    let body = b.add_body(
        "body",
        None,
        JointType::Floating,
        Xform::identity(),
        SpatialInertia::solid_box(32.0, 0.9, 0.3, 0.2, Vec3::zero()),
    );
    let (lx, ly) = (0.32, 0.11);
    add_leg(&mut b, body, "fl", Vec3::new(lx, ly, 0.0), 1.0);
    add_leg(&mut b, body, "fr", Vec3::new(lx, -ly, 0.0), -1.0);
    add_leg(&mut b, body, "hl", Vec3::new(-lx, ly, 0.0), 1.0);
    add_leg(&mut b, body, "hr", Vec3::new(-lx, -ly, 0.0), -1.0);
    add_arm(&mut b, body, "arm", Vec3::new(0.3, 0.0, 0.12), 6);
    b.build()
}

/// Tiago (§V-C1, Fig 11a): 3-DOF planar mobile base + 7-DOF arm; linear
/// topology (one root, one branch).
pub fn tiago() -> RobotModel {
    let mut b = ModelBuilder::new("tiago");
    let base = b.add_body(
        "base",
        None,
        JointType::Planar,
        Xform::identity(),
        SpatialInertia::solid_cylinder(28.0, 0.27, 0.3, Vec3::new(0.0, 0.0, 0.15)),
    );
    add_arm(&mut b, base, "arm", Vec3::new(0.16, 0.0, 0.6), 7);
    b.build()
}

/// Adds a 6-joint humanoid leg; returns the foot id.
fn add_humanoid_leg(b: &mut ModelBuilder, pelvis: usize, prefix: &str, side: f64) -> usize {
    let hip = Vec3::new(0.0, side * 0.11, -0.05);
    let jz = b.add_body(
        format!("{prefix}_hip_yaw"),
        Some(pelvis),
        JointType::revolute_z(),
        Xform::translation(hip),
        SpatialInertia::solid_cylinder(1.0, 0.05, 0.08, Vec3::zero()),
    );
    let jx = b.add_body(
        format!("{prefix}_hip_roll"),
        Some(jz),
        JointType::revolute_x(),
        Xform::identity(),
        SpatialInertia::solid_cylinder(1.0, 0.05, 0.08, Vec3::zero()),
    );
    let jy = b.add_body(
        format!("{prefix}_hip_pitch"),
        Some(jx),
        JointType::revolute_y(),
        Xform::identity(),
        SpatialInertia::solid_cylinder(4.5, 0.07, 0.42, Vec3::new(0.0, 0.0, -0.21)),
    );
    let knee = b.add_body(
        format!("{prefix}_knee"),
        Some(jy),
        JointType::revolute_y(),
        Xform::translation(Vec3::new(0.0, 0.0, -0.42)),
        SpatialInertia::solid_cylinder(3.0, 0.06, 0.4, Vec3::new(0.0, 0.0, -0.2)),
    );
    let ap = b.add_body(
        format!("{prefix}_ankle_pitch"),
        Some(knee),
        JointType::revolute_y(),
        Xform::translation(Vec3::new(0.0, 0.0, -0.4)),
        SpatialInertia::solid_box(1.0, 0.1, 0.06, 0.05, Vec3::zero()),
    );
    b.add_body(
        format!("{prefix}_ankle_roll"),
        Some(ap),
        JointType::revolute_x(),
        Xform::identity(),
        SpatialInertia::solid_box(1.2, 0.22, 0.1, 0.04, Vec3::new(0.04, 0.0, -0.04)),
    )
}

/// Atlas (§V-C1, Fig 11c): floating pelvis, 3-joint waist
/// (torso1/2/3), two 7-joint arms and two 6-joint legs.
/// NB = 30, N = 35; topology depth 11 from the pelvis.
pub fn atlas() -> RobotModel {
    let mut b = ModelBuilder::new("atlas");
    let pelvis = b.add_body(
        "pelvis",
        None,
        JointType::Floating,
        Xform::identity(),
        SpatialInertia::solid_box(16.0, 0.25, 0.3, 0.2, Vec3::zero()),
    );
    let torso1 = b.add_body(
        "torso1",
        Some(pelvis),
        JointType::revolute_z(),
        Xform::translation(Vec3::new(0.0, 0.0, 0.12)),
        SpatialInertia::solid_box(3.0, 0.2, 0.25, 0.1, Vec3::new(0.0, 0.0, 0.05)),
    );
    let torso2 = b.add_body(
        "torso2",
        Some(torso1),
        JointType::revolute_y(),
        Xform::translation(Vec3::new(0.0, 0.0, 0.1)),
        SpatialInertia::solid_box(3.0, 0.2, 0.25, 0.1, Vec3::new(0.0, 0.0, 0.05)),
    );
    let torso3 = b.add_body(
        "torso3",
        Some(torso2),
        JointType::revolute_x(),
        Xform::translation(Vec3::new(0.0, 0.0, 0.1)),
        SpatialInertia::solid_box(20.0, 0.25, 0.35, 0.4, Vec3::new(0.0, 0.0, 0.2)),
    );
    add_arm(&mut b, torso3, "l_arm", Vec3::new(0.0, 0.25, 0.35), 7);
    add_arm(&mut b, torso3, "r_arm", Vec3::new(0.0, -0.25, 0.35), 7);
    add_humanoid_leg(&mut b, pelvis, "l_leg", 1.0);
    add_humanoid_leg(&mut b, pelvis, "r_leg", -1.0);
    b.build()
}

/// A hexapod: 6-DOF floating body with six identical 3-DOF legs
/// (NB = 19, N = 24) — exercises the SAP merge rule on an odd group
/// (6 legs → 3 × ×2 arrays).
pub fn hexapod() -> RobotModel {
    let mut b = ModelBuilder::new("hexapod");
    let body = b.add_body(
        "body",
        None,
        JointType::Floating,
        Xform::identity(),
        SpatialInertia::solid_box(18.0, 0.7, 0.4, 0.12, Vec3::zero()),
    );
    let ys: [f64; 3] = [0.18, 0.0, -0.18];
    for (k, &y) in ys.iter().enumerate() {
        add_leg(
            &mut b,
            body,
            &format!("l{k}"),
            Vec3::new(0.3, y.abs() + 0.15, 0.0),
            1.0,
        );
        add_leg(
            &mut b,
            body,
            &format!("r{k}"),
            Vec3::new(0.3 - 0.3 * k as f64, -(y.abs() + 0.15), 0.0),
            -1.0,
        );
    }
    b.build()
}

/// A fixed-base dual-arm manipulator: a torso link carrying two
/// identical 7-DOF arms — symmetric-branch merging on a *fixed* base
/// (no re-rooting possible).
pub fn dual_arm() -> RobotModel {
    let mut b = ModelBuilder::new("dual-arm");
    let torso = b.add_body(
        "torso",
        None,
        JointType::revolute_z(),
        Xform::identity(),
        SpatialInertia::solid_box(20.0, 0.3, 0.35, 0.6, Vec3::new(0.0, 0.0, 0.3)),
    );
    add_arm(&mut b, torso, "l_arm", Vec3::new(0.0, 0.25, 0.55), 7);
    add_arm(&mut b, torso, "r_arm", Vec3::new(0.0, -0.25, 0.55), 7);
    b.build()
}

/// A fixed-base serial chain of `n` revolute joints with alternating axes
/// (synthetic workloads, scaling studies).
pub fn serial_chain(n: usize) -> RobotModel {
    let mut b = ModelBuilder::new(format!("chain{n}"));
    let mut parent = None;
    for k in 0..n {
        let jt = match k % 3 {
            0 => JointType::revolute_z(),
            1 => JointType::revolute_y(),
            _ => JointType::revolute_x(),
        };
        let placement = if k == 0 {
            Xform::identity()
        } else {
            Xform::translation(Vec3::new(0.0, 0.0, 0.3))
        };
        let m = 3.0 / (1.0 + k as f64 * 0.3);
        let id = b.add_body(
            format!("link{k}"),
            parent,
            jt,
            placement,
            SpatialInertia::solid_cylinder(m, 0.05, 0.3, Vec3::new(0.0, 0.0, 0.15)),
        );
        parent = Some(id);
    }
    b.build()
}

/// A deterministic pseudo-random kinematic tree with `n` bodies — used by
/// property-based tests to exercise branching structures.
pub fn random_tree(n: usize, seed: u64) -> RobotModel {
    assert!(n >= 1);
    let mut rng = SplitMix64::new(seed);
    let mut b = ModelBuilder::new(format!("random{n}-{seed}"));
    for k in 0..n {
        let parent = if k == 0 {
            None
        } else {
            Some((rng.next_u64() % k as u64) as usize)
        };
        let jt = match rng.next_u64() % 5 {
            0 => JointType::revolute_x(),
            1 => JointType::revolute_y(),
            2 => JointType::revolute_z(),
            3 => JointType::Prismatic(Vec3::unit_z()),
            _ => JointType::Revolute(
                Vec3::new(
                    rng.next_symmetric(),
                    rng.next_symmetric(),
                    rng.next_symmetric() + 1.5,
                )
                .normalized(),
            ),
        };
        let placement = Xform::translation(Vec3::new(
            0.2 * rng.next_symmetric(),
            0.2 * rng.next_symmetric(),
            0.25 + 0.1 * rng.next_f64(),
        ));
        let mass = 0.5 + 3.0 * rng.next_f64();
        let com = Vec3::new(
            0.05 * rng.next_symmetric(),
            0.05 * rng.next_symmetric(),
            0.1 + 0.1 * rng.next_f64(),
        );
        b.add_body(
            format!("b{k}"),
            parent,
            jt,
            placement,
            SpatialInertia::from_mass_com_inertia(
                mass,
                com,
                rbd_spatial::Mat3::diagonal(Vec3::new(
                    0.02 + 0.05 * rng.next_f64(),
                    0.02 + 0.05 * rng.next_f64(),
                    0.02 + 0.05 * rng.next_f64(),
                )),
            ),
        );
    }
    b.build()
}

/// The three evaluation robots of Fig 15, in paper order.
pub fn paper_robots() -> Vec<RobotModel> {
    vec![iiwa(), hyq(), atlas()]
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::robot::tests::body_id;
    use crate::tree::tests::is_chain;

    #[test]
    fn iiwa_structure() {
        let m = iiwa();
        assert_eq!(m.num_bodies(), 7);
        assert_eq!(m.nv(), 7);
        assert_eq!(m.nq(), 7);
        assert!(is_chain(m.topology()));
        assert_eq!(m.topology().max_depth(), 7);
    }

    #[test]
    fn hyq_structure() {
        let m = hyq();
        assert_eq!(m.num_bodies(), 13);
        assert_eq!(m.nv(), 18);
        assert_eq!(m.nq(), 7 + 12);
        assert_eq!(m.topology().children(0).len(), 4);
        assert_eq!(m.topology().max_depth(), 4);
    }

    #[test]
    fn quadruped_arm_matches_paper_example() {
        let m = quadruped_arm();
        assert_eq!(m.num_bodies(), 19); // NB = 19
        assert_eq!(m.nv(), 24); // N = 24 including the floating base
    }

    #[test]
    fn atlas_depth_is_eleven() {
        let m = atlas();
        assert_eq!(m.num_bodies(), 30);
        assert_eq!(m.nv(), 35);
        assert_eq!(m.topology().max_depth(), 11);
    }

    #[test]
    fn reroot_of_atlas_topology_matches_paper() {
        let m = atlas();
        let torso2 = body_id(&m, "torso2").unwrap();
        let (r, _) = m.topology().reroot(torso2);
        assert_eq!(r.max_depth(), 9);
    }

    #[test]
    fn tiago_is_linear() {
        let m = tiago();
        assert!(is_chain(m.topology()));
        assert_eq!(m.nv(), 10);
        assert_eq!(m.num_bodies(), 8);
    }

    #[test]
    fn spot_arm_branches() {
        let m = spot_arm();
        assert_eq!(m.topology().children(0).len(), 5);
        assert_eq!(m.nv(), 24);
    }

    #[test]
    fn hexapod_structure() {
        let m = hexapod();
        assert_eq!(m.num_bodies(), 19);
        assert_eq!(m.nv(), 24);
        assert_eq!(m.topology().children(0).len(), 6);
    }

    #[test]
    fn dual_arm_structure() {
        let m = dual_arm();
        assert_eq!(m.num_bodies(), 15);
        assert_eq!(m.nv(), 15);
        assert_eq!(m.topology().children(0).len(), 2);
        assert_eq!(m.topology().max_depth(), 8);
    }

    #[test]
    fn serial_chain_sizes() {
        for n in [1, 3, 12] {
            let m = serial_chain(n);
            assert_eq!(m.num_bodies(), n);
            assert_eq!(m.nv(), n);
            assert!(is_chain(m.topology()));
        }
    }

    #[test]
    fn random_tree_valid_and_deterministic() {
        let a = random_tree(14, 9);
        let b = random_tree(14, 9);
        assert_eq!(a.num_bodies(), b.num_bodies());
        for i in 0..a.num_bodies() {
            assert_eq!(a.topology().parent(i), b.topology().parent(i));
        }
        // All links have positive mass.
        for i in 0..a.num_bodies() {
            assert!(a.link_inertia(i).mass > 0.0);
        }
    }
}
