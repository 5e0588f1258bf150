//! Property tests of topology and configuration-space invariants.
//!
//! Each property runs 48 seeded cases on the shared harness in
//! `support/cases.rs`: every assertion message names the case seed, and
//! calling the property's `*_case` function with it replays the failing
//! case alone.

#[path = "support/cases.rs"]
mod cases;

use cases::{draw, for_each_case, uniform};
use dadu_rbd::model::{integrate_config, robots, SplitMix64, Topology};

/// Cases per property.
const CASES: u64 = 48;

/// subtree/ancestor duality: j ∈ tree(i) ⟺ i is ancestor-or-self of j.
fn subtree_ancestor_duality_case(seed: u64) {
    let mut rng = SplitMix64::new(seed);
    let n = draw(&mut rng, 2, 16) as usize;
    let tree_seed = draw(&mut rng, 0, 500);
    let m = robots::random_tree(n, tree_seed);
    let t = m.topology();
    for i in 0..n {
        let sub = t.subtree(i);
        for j in 0..n {
            assert_eq!(
                sub.contains(&j),
                i == j || t.ancestors(j).contains(&i),
                "case seed {seed}: bodies {i}, {j}"
            );
        }
    }
}

/// Segments partition the bodies and respect parent order.
fn segments_partition_case(seed: u64) {
    let mut rng = SplitMix64::new(seed);
    let n = draw(&mut rng, 1, 16) as usize;
    let tree_seed = draw(&mut rng, 0, 500);
    let m = robots::random_tree(n, tree_seed);
    let t = m.topology();
    let segs = t.segments();
    let mut seen = vec![false; n];
    for seg in &segs {
        for w in seg.windows(2) {
            assert_eq!(
                t.parent(w[1]),
                Some(w[0]),
                "case seed {seed}: segment {seg:?}"
            );
        }
        for &b in seg {
            assert!(!seen[b], "case seed {seed}: body {b} in two segments");
            seen[b] = true;
        }
    }
    assert!(seen.iter().all(|&s| s), "case seed {seed}: uncovered body");
}

/// Re-rooting preserves the undirected edge multiset and never
/// increases the eccentricity below the tree's radius.
fn reroot_edge_preserving_case(seed: u64) {
    let mut rng = SplitMix64::new(seed);
    let n = draw(&mut rng, 2, 16) as usize;
    let tree_seed = draw(&mut rng, 0, 500);
    let root_pick = draw(&mut rng, 0, 16) as usize;
    let m = robots::random_tree(n, tree_seed);
    let t = m.topology();
    let new_root = root_pick % n;
    let (r, map) = t.reroot(new_root);
    let mut before: Vec<(usize, usize)> = (0..n)
        .filter_map(|i| t.parent(i).map(|p| (p.min(i), p.max(i))))
        .collect();
    let mut after: Vec<(usize, usize)> = (0..n)
        .filter_map(|i| {
            r.parent(i).map(|p| {
                let (a, b) = (map[p], map[i]);
                (a.min(b), a.max(b))
            })
        })
        .collect();
    before.sort_unstable();
    after.sort_unstable();
    assert_eq!(before, after, "case seed {seed}");
}

/// Integration is additive along a fixed direction for 1-DOF-joint
/// robots (vector-space configuration).
fn integration_additive_for_chains_case(seed: u64) {
    let mut rng = SplitMix64::new(seed);
    let n = draw(&mut rng, 1, 8) as usize;
    let a = uniform(&mut rng, -1.0, 1.0);
    let b = uniform(&mut rng, -1.0, 1.0);
    let m = robots::serial_chain(n);
    let q0 = m.neutral_config();
    let v: Vec<f64> = (0..n).map(|k| 0.3 + 0.1 * k as f64).collect();
    let one = integrate_config(&m, &integrate_config(&m, &q0, &v, a), &v, b);
    let both = integrate_config(&m, &q0, &v, a + b);
    for i in 0..n {
        assert!(
            (one[i] - both[i]).abs() < 1e-12,
            "case seed {seed}: q[{i}] {} vs {}",
            one[i],
            both[i]
        );
    }
}

/// Quaternion joints stay normalized under arbitrary integration
/// sequences.
fn quaternions_stay_normalized_case(seed: u64) {
    let mut rng = SplitMix64::new(seed);
    let steps = draw(&mut rng, 1, 20);
    let mut lcg = draw(&mut rng, 0, 200);
    let m = robots::hyq();
    let mut q = m.neutral_config();
    for _ in 0..steps {
        lcg = lcg
            .wrapping_mul(2862933555777941757)
            .wrapping_add(3037000493);
        let v: Vec<f64> = (0..m.nv())
            .map(|k| (((lcg >> (k % 31)) & 0xFF) as f64 / 128.0) - 1.0)
            .collect();
        q = integrate_config(&m, &q, &v, 0.05);
    }
    let norm: f64 = q[3..7].iter().map(|x| x * x).sum::<f64>().sqrt();
    assert!((norm - 1.0).abs() < 1e-9, "case seed {seed}: norm {norm}");
}

/// Depth is consistent with the ancestor count for every body.
fn depth_equals_ancestor_count_case(seed: u64) {
    let mut rng = SplitMix64::new(seed);
    let n = draw(&mut rng, 1, 16) as usize;
    let tree_seed = draw(&mut rng, 0, 500);
    let m = robots::random_tree(n, tree_seed);
    let t = m.topology();
    for i in 0..n {
        assert_eq!(
            t.depth(i),
            t.ancestors(i).len(),
            "case seed {seed}: body {i}"
        );
    }
    assert!(t.max_depth() <= n, "case seed {seed}: max depth");
}

#[test]
fn subtree_ancestor_duality() {
    for_each_case(1_000, CASES, subtree_ancestor_duality_case);
}

#[test]
fn segments_partition() {
    for_each_case(2_000, CASES, segments_partition_case);
}

#[test]
fn reroot_edge_preserving() {
    for_each_case(3_000, CASES, reroot_edge_preserving_case);
}

#[test]
fn integration_additive_for_chains() {
    for_each_case(4_000, CASES, integration_additive_for_chains_case);
}

#[test]
fn quaternions_stay_normalized() {
    for_each_case(5_000, CASES, quaternions_stay_normalized_case);
}

#[test]
fn depth_equals_ancestor_count() {
    for_each_case(6_000, CASES, depth_equals_ancestor_count_case);
}

#[test]
fn forest_rejected_by_reroot() {
    // Two roots → reroot must panic; Topology allows forests otherwise.
    let t = Topology::from_parents(&[None, None, Some(0)]).unwrap();
    let r = std::panic::catch_unwind(|| t.reroot(1));
    assert!(r.is_err());
}
