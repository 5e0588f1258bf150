//! Property tests of the fixed-point datapath primitives.
//!
//! Each property runs 256 seeded cases on the shared harness in
//! `support/cases.rs`: every assertion message names the case seed, and
//! calling the property's `*_case` function with it replays the failing
//! case alone.

#[path = "support/cases.rs"]
mod cases;

use cases::{draw, for_each_case, uniform};
use dadu_rbd::fixed::{fast_reciprocal, trig, Q16, Q32};
use dadu_rbd::model::SplitMix64;

/// Cases per property.
const CASES: u64 = 256;

/// Uniform draw from one of two ranges, picked with one draw.
fn uniform_either(rng: &mut SplitMix64, a: (f64, f64), b: (f64, f64)) -> f64 {
    let (lo, hi) = if draw(rng, 0, 2) == 0 { a } else { b };
    uniform(rng, lo, hi)
}

fn q32_addition_exact_case(seed: u64) {
    let mut rng = SplitMix64::new(seed);
    let a = uniform(&mut rng, -1e6, 1e6);
    let b = uniform(&mut rng, -1e6, 1e6);
    // Fixed-point addition of already-quantized values is exact.
    let qa = Q32::from_f64(a);
    let qb = Q32::from_f64(b);
    let sum = (qa + qb).to_f64();
    assert!(
        (sum - (qa.to_f64() + qb.to_f64())).abs() < 1e-15,
        "case seed {seed}: {a} + {b} = {sum}"
    );
}

fn q32_multiplication_error_bounded_case(seed: u64) {
    let mut rng = SplitMix64::new(seed);
    let a = uniform(&mut rng, -1e3, 1e3);
    let b = uniform(&mut rng, -1e3, 1e3);
    let p = (Q32::from_f64(a) * Q32::from_f64(b)).to_f64();
    // Quantization of the inputs dominates: |err| ≤ (|a|+|b|+1)·ε.
    let bound = (a.abs() + b.abs() + 1.0) * Q32::epsilon();
    assert!(
        (p - a * b).abs() <= bound,
        "case seed {seed}: {p} vs {}",
        a * b
    );
}

fn q16_coarser_than_q32_case(seed: u64) {
    let mut rng = SplitMix64::new(seed);
    let x = uniform(&mut rng, -100.0, 100.0);
    let e32 = (Q32::from_f64(x).to_f64() - x).abs();
    let e16 = (Q16::from_f64(x).to_f64() - x).abs();
    assert!(e32 <= Q32::epsilon(), "case seed {seed}: Q32 error {e32}");
    assert!(e16 <= Q16::epsilon(), "case seed {seed}: Q16 error {e16}");
}

fn reciprocal_relative_error_tiny_case(seed: u64) {
    let mut rng = SplitMix64::new(seed);
    let x = uniform_either(&mut rng, (-1e6, -1e-6), (1e-6, 1e6));
    let r = fast_reciprocal(x);
    assert!(
        (r * x - 1.0).abs() < 1e-12,
        "case seed {seed}: x={x}, r*x={}",
        r * x
    );
}

fn division_matches_reciprocal_path_case(seed: u64) {
    let mut rng = SplitMix64::new(seed);
    let a = uniform(&mut rng, -100.0, 100.0);
    let b = uniform_either(&mut rng, (0.1, 50.0), (-50.0, -0.1));
    let exact = (Q32::from_f64(a) / Q32::from_f64(b)).to_f64();
    let via_recip = (Q32::from_f64(a) * Q32::from_f64(b).recip()).to_f64();
    // The reciprocal path (§IV-B2) loses at most a few ulps relative
    // to the exact long division.
    // recip(b) carries up to ~ε absolute error; scaled by a.
    assert!(
        (exact - via_recip).abs() < (2.0 + a.abs()) * 2.0 * Q32::epsilon(),
        "case seed {seed}: {a} / {b}: {exact} vs {via_recip}"
    );
}

fn taylor_trig_matches_libm_case(seed: u64) {
    let mut rng = SplitMix64::new(seed);
    let x = uniform(&mut rng, -50.0, 50.0);
    let (s, c) = trig::sin_cos(x);
    assert!(
        (s - x.sin()).abs() < 1e-10,
        "case seed {seed}: sin({x}) {s}"
    );
    assert!(
        (c - x.cos()).abs() < 1e-10,
        "case seed {seed}: cos({x}) {c}"
    );
    assert!(
        (s * s + c * c - 1.0).abs() < 1e-10,
        "case seed {seed}: sin²+cos² at {x}"
    );
}

fn negation_is_involutive_case(seed: u64) {
    let mut rng = SplitMix64::new(seed);
    let a = uniform(&mut rng, -1e6, 1e6);
    let q = Q32::from_f64(a);
    assert_eq!(-(-q), q, "case seed {seed}: a={a}");
    // The property is that `q − q` is exactly zero.
    #[allow(clippy::eq_op)]
    let diff = q - q;
    assert_eq!(diff.to_f64(), 0.0, "case seed {seed}: a={a}");
}

#[test]
fn q32_addition_exact() {
    for_each_case(1_000, CASES, q32_addition_exact_case);
}

#[test]
fn q32_multiplication_error_bounded() {
    for_each_case(2_000, CASES, q32_multiplication_error_bounded_case);
}

#[test]
fn q16_coarser_than_q32() {
    for_each_case(3_000, CASES, q16_coarser_than_q32_case);
}

#[test]
fn reciprocal_relative_error_tiny() {
    for_each_case(4_000, CASES, reciprocal_relative_error_tiny_case);
}

#[test]
fn division_matches_reciprocal_path() {
    for_each_case(5_000, CASES, division_matches_reciprocal_path_case);
}

#[test]
fn taylor_trig_matches_libm() {
    for_each_case(6_000, CASES, taylor_trig_matches_libm_case);
}

#[test]
fn negation_is_involutive() {
    for_each_case(7_000, CASES, negation_is_involutive_case);
}
