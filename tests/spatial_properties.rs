//! Property tests of the spatial-algebra laws the dynamics algorithms
//! rely on.
//!
//! Each property runs 64 seeded cases on the shared harness in
//! `support/cases.rs`: every assertion message names the case seed, and
//! calling the property's `*_case` function with it replays the failing
//! case alone.

#[path = "support/cases.rs"]
mod cases;

use cases::{draw, for_each_case, uniform};
use dadu_rbd::model::SplitMix64;
use dadu_rbd::spatial::{
    ForceVec, Mat3, Mat6, MatN, MotionVec, Quat, SpatialInertia, Vec3, VecN, Xform,
};

/// Cases per property.
const CASES: u64 = 64;

fn vec3(rng: &mut SplitMix64) -> Vec3 {
    let x = uniform(rng, -2.0, 2.0);
    let y = uniform(rng, -2.0, 2.0);
    let z = uniform(rng, -2.0, 2.0);
    Vec3::new(x, y, z)
}

/// A unit axis, normalized from a `vec3` draw of norm above 0.3
/// (shorter draws are rejected and redrawn).
fn unit3(rng: &mut SplitMix64) -> Vec3 {
    loop {
        let v = vec3(rng);
        if v.norm() > 0.3 {
            return v.normalized();
        }
    }
}

fn xform(rng: &mut SplitMix64) -> Xform {
    let axis = unit3(rng);
    let angle = uniform(rng, -3.0, 3.0);
    let trans = vec3(rng);
    Xform::rot_axis(axis, angle).with_translation(trans)
}

fn motion(rng: &mut SplitMix64) -> MotionVec {
    let a = vec3(rng);
    MotionVec::new(a, vec3(rng))
}

fn force(rng: &mut SplitMix64) -> ForceVec {
    let a = vec3(rng);
    ForceVec::new(a, vec3(rng))
}

fn inertia(rng: &mut SplitMix64) -> SpatialInertia {
    let m = uniform(rng, 0.1, 10.0);
    let c = vec3(rng);
    let ix = uniform(rng, 0.01, 0.5);
    let iy = uniform(rng, 0.01, 0.5);
    let iz = uniform(rng, 0.01, 0.5);
    SpatialInertia::from_mass_com_inertia(m, c * 0.2, Mat3::diagonal(Vec3::new(ix, iy, iz)))
}

fn composition_is_associative_case(seed: u64) {
    let mut rng = SplitMix64::new(seed);
    let (a, b, c) = (xform(&mut rng), xform(&mut rng), xform(&mut rng));
    let v = motion(&mut rng);
    let lhs = a.compose(&b).compose(&c).apply_motion(&v);
    let rhs = a.compose(&b.compose(&c)).apply_motion(&v);
    let err = (lhs - rhs).max_abs();
    assert!(err < 1e-10, "case seed {seed}: error {err}");
}

fn inverse_is_two_sided_case(seed: u64) {
    let mut rng = SplitMix64::new(seed);
    let x = xform(&mut rng);
    let v = motion(&mut rng);
    let left = (x.inverse().compose(&x).apply_motion(&v) - v).max_abs();
    let right = (x.compose(&x.inverse()).apply_motion(&v) - v).max_abs();
    assert!(left < 1e-10, "case seed {seed}: left error {left}");
    assert!(right < 1e-10, "case seed {seed}: right error {right}");
}

fn duality_pairing_invariant_case(seed: u64) {
    let mut rng = SplitMix64::new(seed);
    let x = xform(&mut rng);
    let v = motion(&mut rng);
    let f = force(&mut rng);
    let before = v.dot_force(&f);
    let after = x.apply_motion(&v).dot_force(&x.apply_force(&f));
    assert!(
        (before - after).abs() < 1e-9 * (1.0 + before.abs()),
        "case seed {seed}: {before} vs {after}"
    );
}

fn motion_cross_is_lie_bracket_case(seed: u64) {
    let mut rng = SplitMix64::new(seed);
    let x = xform(&mut rng);
    let (a, b) = (motion(&mut rng), motion(&mut rng));
    // Ad_X [a,b] = [Ad_X a, Ad_X b]
    let lhs = x.apply_motion(&a.cross_motion(&b));
    let rhs = x.apply_motion(&a).cross_motion(&x.apply_motion(&b));
    let err = (lhs - rhs).max_abs();
    assert!(err < 1e-9, "case seed {seed}: error {err}");
}

fn inertia_energy_invariant_under_frame_change_case(seed: u64) {
    let mut rng = SplitMix64::new(seed);
    let i = inertia(&mut rng);
    let x = xform(&mut rng);
    let v = motion(&mut rng);
    // ½ vᵀIv computed in either frame must agree.
    let e_b = 0.5 * v.dot_force(&i.mul_motion(&v));
    // v expressed in frame B; transform both to A (x = ^B X_A).
    let v_a = x.inv_apply_motion(&v);
    let i_a = i.transform_to_parent(&x);
    let e_a = 0.5 * v_a.dot_force(&i_a.mul_motion(&v_a));
    assert!(
        (e_a - e_b).abs() < 1e-8 * (1.0 + e_b.abs()),
        "case seed {seed}: {e_a} vs {e_b}"
    );
}

fn inertia_transform_matches_dense_congruence_case(seed: u64) {
    let mut rng = SplitMix64::new(seed);
    let i = inertia(&mut rng);
    let x = xform(&mut rng);
    let analytic = i.transform_to_parent(&x).to_mat6();
    let dense = i.to_mat6().congruence(&Mat6::from_xform_motion(&x));
    let err = (analytic - dense).max_abs();
    assert!(err < 1e-8, "case seed {seed}: error {err}");
}

fn inertia_is_positive_semidefinite_case(seed: u64) {
    let mut rng = SplitMix64::new(seed);
    let i = inertia(&mut rng);
    let v = motion(&mut rng);
    let e = 0.5 * v.dot_force(&i.mul_motion(&v)); // ½ vᵀ I v
    assert!(e >= -1e-12, "case seed {seed}: energy {e}");
}

fn ldlt_solves_random_spd_case(seed: u64) {
    let mut rng = SplitMix64::new(seed);
    let n = draw(&mut rng, 2, 12) as usize;
    let mat_seed = draw(&mut rng, 0, 500);
    // Build SPD via B Bᵀ + n·I with a deterministic pseudo-random B.
    let b = MatN::from_fn(n, n, |i, j| {
        let mut s = mat_seed
            .wrapping_add((i * 31 + j) as u64)
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        s ^= s >> 29;
        ((s >> 33) as f64 / (1u64 << 31) as f64) - 1.0
    });
    let mut a = b.mul_mat(&b.transpose());
    for i in 0..n {
        a[(i, i)] += n as f64;
    }
    let x_true: Vec<f64> = (0..n).map(|i| 0.5 * i as f64 - 1.0).collect();
    let rhs = a.mul_vec(&VecN::from_vec(x_true.clone()));
    let x = a
        .solve(&rhs)
        .unwrap_or_else(|e| panic!("case seed {seed}: solve failed: {e:?}"));
    for i in 0..n {
        assert!(
            (x[i] - x_true[i]).abs() < 1e-7,
            "case seed {seed}: x[{i}] = {} vs {}",
            x[i],
            x_true[i]
        );
    }
}

/// The unit quaternion of an active rotation matrix (Shepperd's
/// method: the branch on the largest of the trace and the diagonal).
fn quat_from_rotation_matrix(r: &Mat3) -> Quat {
    let m = |i: usize, j: usize| r[(i, j)];
    let tr = r.trace();
    let q = if tr > 0.0 {
        let s = (tr + 1.0).sqrt() * 2.0;
        Quat::new(
            0.25 * s,
            (m(2, 1) - m(1, 2)) / s,
            (m(0, 2) - m(2, 0)) / s,
            (m(1, 0) - m(0, 1)) / s,
        )
    } else if m(0, 0) > m(1, 1) && m(0, 0) > m(2, 2) {
        let s = (1.0 + m(0, 0) - m(1, 1) - m(2, 2)).sqrt() * 2.0;
        Quat::new(
            (m(2, 1) - m(1, 2)) / s,
            0.25 * s,
            (m(0, 1) + m(1, 0)) / s,
            (m(0, 2) + m(2, 0)) / s,
        )
    } else if m(1, 1) > m(2, 2) {
        let s = (1.0 + m(1, 1) - m(0, 0) - m(2, 2)).sqrt() * 2.0;
        Quat::new(
            (m(0, 2) - m(2, 0)) / s,
            (m(0, 1) + m(1, 0)) / s,
            0.25 * s,
            (m(1, 2) + m(2, 1)) / s,
        )
    } else {
        let s = (1.0 + m(2, 2) - m(0, 0) - m(1, 1)).sqrt() * 2.0;
        Quat::new(
            (m(1, 0) - m(0, 1)) / s,
            (m(0, 2) + m(2, 0)) / s,
            (m(1, 2) + m(2, 1)) / s,
            0.25 * s,
        )
    };
    q.normalized()
}

fn quaternion_roundtrip_via_matrix_case(seed: u64) {
    let mut rng = SplitMix64::new(seed);
    let axis = unit3(&mut rng);
    let angle = uniform(&mut rng, -3.0, 3.0);
    let q = Quat::from_axis_angle(axis, angle);
    let q2 = quat_from_rotation_matrix(&q.to_rotation_matrix());
    let err = (q.to_rotation_matrix() - q2.to_rotation_matrix()).max_abs();
    assert!(err < 1e-9, "case seed {seed}: error {err}");
}

#[test]
fn composition_is_associative() {
    for_each_case(1_000, CASES, composition_is_associative_case);
}

#[test]
fn inverse_is_two_sided() {
    for_each_case(2_000, CASES, inverse_is_two_sided_case);
}

#[test]
fn duality_pairing_invariant() {
    for_each_case(3_000, CASES, duality_pairing_invariant_case);
}

#[test]
fn motion_cross_is_lie_bracket() {
    for_each_case(4_000, CASES, motion_cross_is_lie_bracket_case);
}

#[test]
fn inertia_energy_invariant_under_frame_change() {
    for_each_case(
        5_000,
        CASES,
        inertia_energy_invariant_under_frame_change_case,
    );
}

#[test]
fn inertia_transform_matches_dense_congruence() {
    for_each_case(
        6_000,
        CASES,
        inertia_transform_matches_dense_congruence_case,
    );
}

#[test]
fn inertia_is_positive_semidefinite() {
    for_each_case(7_000, CASES, inertia_is_positive_semidefinite_case);
}

#[test]
fn ldlt_solves_random_spd() {
    for_each_case(8_000, CASES, ldlt_solves_random_spd_case);
}

#[test]
fn quaternion_roundtrip_via_matrix() {
    for_each_case(9_000, CASES, quaternion_roundtrip_via_matrix_case);
}

#[test]
fn quaternion_roundtrip_via_matrix_at_fixed_angles() {
    for (axis, angle) in [
        (Vec3::unit_x(), 0.1),
        (Vec3::unit_y(), 2.9),
        (Vec3::new(1.0, -2.0, 0.5).normalized(), -1.7),
        (Vec3::unit_z(), 3.1),
    ] {
        let q = Quat::from_axis_angle(axis, angle);
        let q2 = quat_from_rotation_matrix(&q.to_rotation_matrix());
        // Quaternions double-cover rotations; compare via matrices.
        assert!((q.to_rotation_matrix() - q2.to_rotation_matrix()).max_abs() < 1e-10);
    }
}
