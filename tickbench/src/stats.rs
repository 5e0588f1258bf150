//! Order statistics and NaN-safe reductions used by every workload.

/// Percentile ladder of the tail rule: the benchmark reports the highest
/// rung that still has at least [`MIN_BEYOND`] samples ranked after it.
pub const LADDER: [f64; 5] = [50.0, 90.0, 95.0, 99.0, 99.9];

/// Samples that must lie beyond a reported tail percentile.
pub const MIN_BEYOND: usize = 10;

/// Nearest-rank rank (1-based) of percentile `p` among `n` samples.
fn rank(n: usize, p: f64) -> usize {
    ((p / 100.0 * n as f64).ceil() as usize).clamp(1, n.max(1))
}

/// Nearest-rank percentile of an ascending-sorted, non-empty slice.
///
/// # Panics
/// Panics on an empty slice.
pub fn percentile_sorted(sorted: &[f64], p: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of no samples");
    sorted[rank(sorted.len(), p) - 1]
}

/// The highest ladder percentile, not above `cap`, that has at least
/// [`MIN_BEYOND`] of `n` samples ranked after it; `None` when even the
/// median lacks that many.
pub fn tail_percentile(n: usize, cap: f64) -> Option<f64> {
    LADDER
        .iter()
        .copied()
        .filter(|&p| p <= cap && n >= rank(n, p) + MIN_BEYOND)
        .last()
}

/// Ascending copy with NaNs removed (they sort nowhere meaningful and
/// are counted as failures by the callers instead).
pub fn sorted_finite(v: &[f64]) -> Vec<f64> {
    let mut s: Vec<f64> = v.iter().copied().filter(|x| !x.is_nan()).collect();
    s.sort_by(f64::total_cmp);
    s
}

/// Median (mean of the two middle values for even counts); NaN for no
/// samples.
pub fn median(v: &[f64]) -> f64 {
    let s = sorted_finite(v);
    let n = s.len();
    match n {
        0 => f64::NAN,
        _ if n % 2 == 1 => s[n / 2],
        _ => 0.5 * (s[n / 2 - 1] + s[n / 2]),
    }
}

/// Rate (samples per second) of `durations_s`, taken as the median over
/// consecutive blocks of `block` samples of `block ÷ block time`, so a
/// few descheduled samples move one block, not the whole figure. A
/// trailing partial block is dropped; with no full block the rate is
/// taken over all samples.
pub fn block_rate(durations_s: &[f64], block: usize) -> f64 {
    let rates: Vec<f64> = durations_s
        .chunks_exact(block.max(1))
        .map(|c| c.len() as f64 / c.iter().sum::<f64>())
        .collect();
    if rates.is_empty() {
        durations_s.len() as f64 / durations_s.iter().sum::<f64>()
    } else {
        median(&rates)
    }
}

/// Arithmetic mean; NaN for no samples or any NaN sample.
pub fn mean(v: &[f64]) -> f64 {
    if v.is_empty() {
        return f64::NAN;
    }
    v.iter().sum::<f64>() / v.len() as f64
}

/// Number of non-finite (NaN or ±∞) entries.
pub fn count_nonfinite(v: &[f64]) -> usize {
    v.iter().filter(|x| !x.is_finite()).count()
}

/// ∞-norm of `a − b` that propagates NaN: a NaN anywhere yields NaN, so
/// a diverged state can never read as zero error (unlike
/// `fold(0.0, f64::max)`, which drops NaN operands).
///
/// # Panics
/// Panics on length mismatch.
pub fn max_abs_diff(a: &[f64], b: &[f64]) -> f64 {
    assert_eq!(a.len(), b.len(), "length mismatch");
    let mut m: f64 = 0.0;
    for (x, y) in a.iter().zip(b) {
        let d = (x - y).abs();
        if d.is_nan() {
            return f64::NAN;
        }
        m = m.max(d);
    }
    m
}

/// Bitwise equality of two slices (distinguishes `-0.0` from `0.0` and
/// matches NaN payloads), the test for "bit-identical" outputs.
pub fn bits_eq(a: &[f64], b: &[f64]) -> bool {
    a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_rule_needs_ten_samples_beyond() {
        // 200 samples: p95 is rank 190, exactly 10 beyond; p99 has 2.
        assert_eq!(tail_percentile(200, 100.0), Some(95.0));
        // 199 samples: p95 rank 190 leaves only 9 → fall back to p90.
        assert_eq!(tail_percentile(199, 100.0), Some(90.0));
        // 1000 samples: p99 rank 990 leaves 10; p99.9 leaves 1.
        assert_eq!(tail_percentile(1000, 100.0), Some(99.0));
        // The cap keeps a named p95 metric at p95 with plenty of samples.
        assert_eq!(tail_percentile(100_000, 95.0), Some(95.0));
        assert_eq!(tail_percentile(100_000, 100.0), Some(99.9));
        // Too few samples for any rung.
        assert_eq!(tail_percentile(19, 100.0), None);
        assert_eq!(tail_percentile(20, 100.0), Some(50.0));
    }

    #[test]
    fn nearest_rank_percentiles() {
        let s: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile_sorted(&s, 50.0), 50.0);
        assert_eq!(percentile_sorted(&s, 95.0), 95.0);
        assert_eq!(percentile_sorted(&s, 100.0), 100.0);
        assert_eq!(percentile_sorted(&s, 0.0), 1.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert!(median(&[]).is_nan());
    }

    #[test]
    fn block_rate_is_the_median_block() {
        // Blocks of 2: 2/0.2, 2/0.4, 2/2.0 → 10, 5, 1 per second.
        let d = [0.1, 0.1, 0.2, 0.2, 1.0, 1.0, 5.0];
        assert_eq!(block_rate(&d, 2), 5.0);
        // One stalled sample moves its own block only.
        assert_eq!(block_rate(&[0.1, 0.1, 0.1, 0.1, 0.1, 9.9], 2), 10.0);
        // Fewer samples than a block: the plain rate.
        assert_eq!(block_rate(&[0.25, 0.25], 4), 4.0);
    }

    #[test]
    fn injected_nonfinite_cost_is_detected() {
        let mut costs = vec![1.0, 2.0, 3.0, 4.0];
        assert_eq!(count_nonfinite(&costs), 0);
        costs[2] = f64::NAN;
        costs[3] = f64::INFINITY;
        assert_eq!(count_nonfinite(&costs), 2);
        // The mean of a poisoned cost vector is poisoned too, never a
        // plausible number.
        assert!(mean(&costs).is_nan());
    }

    #[test]
    fn nan_state_never_reads_as_zero_error() {
        let goal = [0.5, -0.5];
        assert_eq!(max_abs_diff(&[0.5, -0.25], &goal), 0.25);
        let diverged = [f64::NAN, -0.5];
        assert!(max_abs_diff(&diverged, &goal).is_nan());
        // The fold this replaces silently reports 0 for the same state.
        let folded = diverged
            .iter()
            .zip(&goal)
            .map(|(a, b)| (a - b).abs())
            .fold(0.0_f64, f64::max);
        assert_eq!(folded, 0.0);
    }

    #[test]
    fn bitwise_equality() {
        assert!(bits_eq(&[1.0, 2.0], &[1.0, 2.0]));
        assert!(!bits_eq(&[0.0], &[-0.0]));
        assert!(!bits_eq(&[1.0], &[1.0, 2.0]));
    }
}
