//! Seeded-case harness of the property suites in `tests/`.
//!
//! A property is a function `*_case(seed: u64)` that draws its
//! parameters from an `rbd_model::SplitMix64` seeded with `seed` and
//! names that seed in every assertion message. A `#[test]` runs it over
//! a fixed run of consecutive seeds with [`for_each_case`]; when a case
//! fails, calling the `*_case` function with the seed from the message
//! replays that case alone.
//!
//! Include it with `#[path = "support/cases.rs"] mod cases;`.

// Each test file compiles its own copy and uses only part of it.
#![allow(dead_code)]

use dadu_rbd::model::SplitMix64;

/// Runs `case` once per seed `first_seed..first_seed + cases`.
pub fn for_each_case(first_seed: u64, cases: u64, case: impl Fn(u64)) {
    for seed in first_seed..first_seed + cases {
        case(seed);
    }
}

/// Uniform integer draw from `lo..hi`.
pub fn draw(rng: &mut SplitMix64, lo: u64, hi: u64) -> u64 {
    lo + rng.next_u64() % (hi - lo)
}

/// Uniform draw from the half-open range `lo..hi`.
pub fn uniform(rng: &mut SplitMix64, lo: f64, hi: f64) -> f64 {
    lo + (hi - lo) * rng.next_f64()
}
