//! Bench-regression comparison: parses the `BENCH_*.json` reports the
//! in-tree harness emits and diffs medians against a committed baseline
//! — the library half of the `bench_compare` CI gate (and of the
//! `scaling_check` multi-core smoke test, which reads ratios out of the
//! same schema).
//!
//! The parser is deliberately minimal: it only understands the flat
//! `{"benchmarks": [{"name": ..., "median_ns": ...}]}` document that
//! [`crate::harness::BenchReport::to_json`] writes (the workspace has
//! no JSON dependency), and it round-trips against that writer in the
//! tests below.

use std::collections::BTreeMap;

/// One parsed benchmark case (the subset the gates need).
#[derive(Debug, Clone, PartialEq)]
pub struct BenchCase {
    /// Full `group/name` identifier.
    pub name: String,
    /// Median time per iteration, nanoseconds.
    pub median_ns: f64,
}

/// Parses a harness-schema report into its cases, in document order.
///
/// # Errors
/// Returns a description of the first malformed entry (missing
/// `median_ns`, unterminated string, non-numeric median).
pub fn parse_report(json: &str) -> Result<Vec<BenchCase>, String> {
    let mut cases = Vec::new();
    // Skip the optional host-metadata block (`"meta": {...}`, emitted
    // since the reports became self-describing): scanning only from the
    // `"benchmarks"` array keeps any metadata key/value — present or
    // future — from being misread as a case.
    let mut rest = match json.find("\"benchmarks\"") {
        Some(pos) => &json[pos..],
        None => json,
    };
    while let Some(pos) = rest.find("\"name\"") {
        rest = &rest[pos + "\"name\"".len()..];
        let colon = rest
            .find(':')
            .ok_or_else(|| "missing ':' after \"name\"".to_string())?;
        let name = parse_json_string(rest[colon + 1..].trim_start())?;
        // Bound the median search to this entry: searching past the next
        // "name" key would silently steal the following entry's median
        // when this one is malformed.
        let entry = &rest[..rest.find("\"name\"").unwrap_or(rest.len())];
        let med_pos = entry
            .find("\"median_ns\"")
            .ok_or_else(|| format!("entry {name:?} has no median_ns"))?;
        let med_rest = &entry[med_pos + "\"median_ns\"".len()..];
        let med_colon = med_rest
            .find(':')
            .ok_or_else(|| "missing ':' after \"median_ns\"".to_string())?;
        // Alphanumerics are included so non-finite tokens (`NaN`,
        // `inf`) parse into their f64 values instead of erroring —
        // `compare` then fails such rows like vanished cases rather
        // than silently passing them.
        let num: String = med_rest[med_colon + 1..]
            .trim_start()
            .chars()
            .take_while(|c| c.is_ascii_alphanumeric() || matches!(c, '.' | '-' | '+'))
            .collect();
        let median_ns: f64 = num
            .parse()
            .map_err(|e| format!("bad median_ns for {name:?}: {e}"))?;
        cases.push(BenchCase { name, median_ns });
    }
    Ok(cases)
}

fn parse_json_string(s: &str) -> Result<String, String> {
    let mut chars = s.chars();
    if chars.next() != Some('"') {
        return Err(format!("expected string, found {:?}…", s.get(..8)));
    }
    let mut out = String::new();
    loop {
        match chars.next() {
            Some('"') => return Ok(out),
            Some('\\') => match chars.next() {
                Some('"') => out.push('"'),
                Some('\\') => out.push('\\'),
                Some('u') => {
                    let hex: String = (0..4).filter_map(|_| chars.next()).collect();
                    let code = u32::from_str_radix(&hex, 16)
                        .map_err(|e| format!("bad \\u escape: {e}"))?;
                    out.push(char::from_u32(code).ok_or("invalid \\u code point")?);
                }
                other => return Err(format!("unsupported escape {other:?}")),
            },
            Some(c) => out.push(c),
            None => return Err("unterminated string".into()),
        }
    }
}

/// One median that regressed past the threshold.
#[derive(Debug, Clone, PartialEq)]
pub struct Regression {
    /// Case name.
    pub name: String,
    /// Current median, nanoseconds.
    pub current_ns: f64,
    /// Baseline median, nanoseconds.
    pub baseline_ns: f64,
    /// `current / baseline`.
    pub ratio: f64,
}

/// Per-row gating override: rows whose name contains the pattern are
/// gated by the override instead of the global threshold.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum RowGate {
    /// Fail the row past `1 + threshold` (row-specific threshold).
    Threshold(f64),
    /// Report drift but never fail the row — for benches whose baseline
    /// is not yet meaningful on the gating machine class (e.g. the
    /// `rollout_lane*`/`mppi_*` rows until a multi-core baseline is
    /// frozen).
    Advisory,
}

/// Outcome of diffing a current report against a baseline.
#[derive(Debug, Clone, Default)]
pub struct CompareOutcome {
    /// Cases compared (present in both reports), with their ratios.
    pub compared: Vec<Regression>,
    /// Cases whose ratio exceeded their gate (these fail the gate).
    pub regressions: Vec<Regression>,
    /// Cases past their threshold but gated [`RowGate::Advisory`]:
    /// reported, never failing.
    pub advisory: Vec<Regression>,
    /// Current cases with no baseline counterpart (new benches: fine).
    pub missing_in_baseline: Vec<String>,
    /// Baseline cases that vanished from the current report — or whose
    /// current median is non-finite (`NaN`/`inf`), which hides a
    /// regression just as effectively as dropping the row (suspicious
    /// either way: both fail the gate).
    pub missing_in_current: Vec<String>,
}

/// Diffs `current` against `baseline`: a case regresses when its median
/// exceeds the baseline median by more than `threshold` (e.g. `0.15`
/// = +15%, the CI default — chosen to sit above the ±10% box noise the
/// perf logs in CHANGES.md record for these kernels, so the gate trips
/// on real regressions, not scheduler jitter).
///
/// A baseline row whose current median is **non-finite** fails like a
/// vanished case: `NaN` compares false against every threshold, so
/// without this rule a NaN median would silently pass the gate.
pub fn compare(current: &[BenchCase], baseline: &[BenchCase], threshold: f64) -> CompareOutcome {
    compare_with_overrides(current, baseline, threshold, &[])
}

/// [`compare`] with per-row gating overrides: the first override whose
/// pattern is a substring of the row name wins; rows matching no
/// override use the global `threshold`.
pub fn compare_with_overrides(
    current: &[BenchCase],
    baseline: &[BenchCase],
    threshold: f64,
    overrides: &[(String, RowGate)],
) -> CompareOutcome {
    let base: BTreeMap<&str, f64> = baseline
        .iter()
        .map(|c| (c.name.as_str(), c.median_ns))
        .collect();
    let cur: BTreeMap<&str, f64> = current
        .iter()
        .map(|c| (c.name.as_str(), c.median_ns))
        .collect();
    let gate_of = |name: &str| -> RowGate {
        overrides
            .iter()
            .find(|(pat, _)| name.contains(pat.as_str()))
            .map(|(_, g)| *g)
            .unwrap_or(RowGate::Threshold(threshold))
    };
    let mut out = CompareOutcome::default();
    for c in current {
        match base.get(c.name.as_str()) {
            None => out.missing_in_baseline.push(c.name.clone()),
            Some(&b) => {
                if !c.median_ns.is_finite() || !b.is_finite() {
                    // A NaN/inf median cannot be compared — NaN ratios
                    // answer `false` to every `>`, which would read as
                    // "pass". Fail like a vanished case instead.
                    out.missing_in_current
                        .push(format!("{} (non-finite median)", c.name));
                    continue;
                }
                let r = Regression {
                    name: c.name.clone(),
                    current_ns: c.median_ns,
                    baseline_ns: b,
                    ratio: c.median_ns / b,
                };
                match gate_of(&c.name) {
                    RowGate::Threshold(t) => {
                        if r.ratio > 1.0 + t {
                            out.regressions.push(r.clone());
                        }
                    }
                    RowGate::Advisory => {
                        if r.ratio > 1.0 + threshold {
                            out.advisory.push(r.clone());
                        }
                    }
                }
                out.compared.push(r);
            }
        }
    }
    for b in baseline {
        if !cur.contains_key(b.name.as_str()) {
            out.missing_in_current.push(b.name.clone());
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::harness::Bench;
    use std::time::Duration;

    fn case(name: &str, median_ns: f64) -> BenchCase {
        BenchCase {
            name: name.into(),
            median_ns,
        }
    }

    #[test]
    fn round_trips_the_harness_writer() {
        let mut b = Bench::new("g").quiet();
        b.sample_count = 2;
        b.sample_time = Duration::from_micros(100);
        b.warm_up = Duration::from_micros(100);
        b.bench("plain", || std::hint::black_box(1));
        b.bench("quo\"ted", || std::hint::black_box(2));
        let report = b.finish();
        let parsed = parse_report(&report.to_json()).unwrap();
        assert_eq!(parsed.len(), 2);
        assert_eq!(parsed[0].name, "g/plain");
        assert_eq!(parsed[1].name, "g/quo\"ted");
        for (p, e) in parsed.iter().zip(&report.entries) {
            assert!((p.median_ns - e.median_ns).abs() < 1e-3);
        }
    }

    #[test]
    fn round_trips_reports_with_host_metadata() {
        use crate::harness::HostMeta;
        let mut b = Bench::new("g").quiet();
        b.sample_count = 2;
        b.sample_time = Duration::from_micros(100);
        b.warm_up = Duration::from_micros(100);
        b.bench("case", || std::hint::black_box(1));
        let mut report = b.finish();
        report.set_meta(HostMeta {
            cpus: 4,
            timestamp: "2026-07-31T12:00:00Z".into(),
            env: vec![
                // Adversarial values: a "name"-bearing key/value must not
                // be misread as a benchmark case.
                ("RBD_SCALING_STRICT".into(), "1".into()),
                ("RBD_WEIRD".into(), "\"name\": \"fake\"".into()),
            ],
        });
        let json = report.to_json();
        assert!(json.contains("\"meta\""));
        assert!(json.contains("\"cpus\": 4"));
        assert!(json.contains("2026-07-31T12:00:00Z"));
        // The parser ignores the whole meta block.
        let parsed = parse_report(&json).unwrap();
        assert_eq!(parsed.len(), 1);
        assert_eq!(parsed[0].name, "g/case");
        assert!((parsed[0].median_ns - report.entries[0].median_ns).abs() < 1e-3);
        // Meta-free reports keep parsing identically.
        let bare = {
            let mut b = Bench::new("g").quiet();
            b.sample_count = 2;
            b.sample_time = Duration::from_micros(100);
            b.warm_up = Duration::from_micros(100);
            b.bench("case", || std::hint::black_box(1));
            b.finish().to_json()
        };
        assert_eq!(parse_report(&bare).unwrap().len(), 1);
    }

    #[test]
    fn parses_the_committed_schema_shape() {
        let json = r#"{
  "benchmarks": [
    {"name": "derivatives/iiwa/dID_single", "median_ns": 3341.519, "mean_ns": 3380.177, "min_ns": 3135.692, "throughput_per_s": 299265.082, "iters_per_sample": 6137, "samples": 15},
    {"name": "derivatives/iiwa/dFD_batch64_1T", "median_ns": 435314.174, "mean_ns": 439622.846, "min_ns": 427083.500, "throughput_per_s": 2297.191, "iters_per_sample": 46, "samples": 15}
  ]
}"#;
        let cases = parse_report(json).unwrap();
        assert_eq!(cases.len(), 2);
        assert_eq!(cases[0].median_ns, 3341.519);
        assert_eq!(cases[1].name, "derivatives/iiwa/dFD_batch64_1T");
        assert_eq!(cases[1].median_ns, 435314.174);
    }

    #[test]
    fn rejects_malformed_entries() {
        assert!(parse_report(r#"{"benchmarks": [{"name": "a"}]}"#).is_err());
        assert!(parse_report(r#"{"benchmarks": [{"name": "a", "median_ns": "x"}]}"#).is_err());
        assert!(parse_report("").unwrap().is_empty());
        // An entry missing its median must error, not steal the next
        // entry's median.
        let stolen = r#"{"benchmarks": [{"name": "a"}, {"name": "b", "median_ns": 5}]}"#;
        assert!(parse_report(stolen).unwrap_err().contains("\"a\""));
    }

    #[test]
    fn flags_regressions_past_threshold_only() {
        let baseline = [case("a", 100.0), case("b", 100.0), case("gone", 50.0)];
        let current = [case("a", 114.0), case("b", 116.0), case("new", 10.0)];
        let out = compare(&current, &baseline, 0.15);
        assert_eq!(out.compared.len(), 2);
        assert_eq!(out.regressions.len(), 1);
        assert_eq!(out.regressions[0].name, "b");
        assert!((out.regressions[0].ratio - 1.16).abs() < 1e-12);
        assert_eq!(out.missing_in_baseline, vec!["new".to_string()]);
        assert_eq!(out.missing_in_current, vec!["gone".to_string()]);
    }

    #[test]
    fn nan_current_median_fails_like_a_vanished_case() {
        // Regression test: a row present in the baseline whose current
        // median is NaN (or inf) used to sail through the gate — NaN
        // ratios answer `false` to every threshold comparison. It must
        // fail exactly like a silently dropped benchmark.
        let baseline = [case("a", 100.0), case("b", 100.0)];
        let current = [case("a", f64::NAN), case("b", 90.0)];
        let out = compare(&current, &baseline, 0.15);
        assert!(out.regressions.is_empty());
        assert_eq!(out.missing_in_current.len(), 1);
        assert!(
            out.missing_in_current[0].contains("a"),
            "{:?}",
            out.missing_in_current
        );
        // Same for an infinite median and for a NaN baseline.
        let out = compare(&[case("a", f64::INFINITY)], &[case("a", 100.0)], 0.15);
        assert_eq!(out.missing_in_current.len(), 1);
        let out = compare(&[case("a", 100.0)], &[case("a", f64::NAN)], 0.15);
        assert_eq!(out.missing_in_current.len(), 1);
    }

    #[test]
    fn parser_accepts_non_finite_medians() {
        // The writer can emit `NaN` for a zero-iteration case; the
        // parser must carry it into `compare` (which then fails the
        // row) instead of erroring out with exit 2 semantics.
        let json = r#"{"benchmarks": [
            {"name": "g/bad", "median_ns": NaN, "mean_ns": NaN},
            {"name": "g/ok", "median_ns": 12.5}
        ]}"#;
        let cases = parse_report(json).unwrap();
        assert_eq!(cases.len(), 2);
        assert!(cases[0].median_ns.is_nan());
        assert_eq!(cases[1].median_ns, 12.5);
        let json_inf = r#"{"benchmarks": [{"name": "g/i", "median_ns": inf}]}"#;
        assert!(parse_report(json_inf).unwrap()[0].median_ns.is_infinite());
    }

    #[test]
    fn row_threshold_overrides_gate_per_row() {
        let baseline = [
            case("derivatives/atlas/dFD_into", 100.0),
            case("derivatives/atlas/rollout_lane4", 100.0),
            case("derivatives/atlas/mppi_batch64", 100.0),
        ];
        let current = [
            case("derivatives/atlas/dFD_into", 120.0),
            case("derivatives/atlas/rollout_lane4", 300.0),
            case("derivatives/atlas/mppi_batch64", 108.0),
        ];
        let overrides = vec![
            ("rollout_lane".to_string(), RowGate::Advisory),
            ("mppi".to_string(), RowGate::Threshold(0.05)),
        ];
        let out = compare_with_overrides(&current, &baseline, 0.15, &overrides);
        // dFD regressed past the global gate; mppi past its tighter
        // row gate; the lane row only lands in the advisory bucket.
        let failing: Vec<&str> = out.regressions.iter().map(|r| r.name.as_str()).collect();
        assert_eq!(
            failing,
            vec![
                "derivatives/atlas/dFD_into",
                "derivatives/atlas/mppi_batch64"
            ]
        );
        assert_eq!(out.advisory.len(), 1);
        assert!(out.advisory[0].name.contains("rollout_lane4"));
        assert_eq!(out.compared.len(), 3);
    }

    #[test]
    fn first_matching_override_wins() {
        let baseline = [case("g/lane_special", 100.0)];
        let current = [case("g/lane_special", 200.0)];
        let overrides = vec![
            ("lane_special".to_string(), RowGate::Threshold(2.0)),
            ("lane".to_string(), RowGate::Advisory),
        ];
        let out = compare_with_overrides(&current, &baseline, 0.15, &overrides);
        // The more specific first override (x3 allowed) wins: no
        // regression, no advisory.
        assert!(out.regressions.is_empty());
        assert!(out.advisory.is_empty());
    }

    #[test]
    fn improvements_never_trip_the_gate() {
        let baseline = [case("a", 100.0)];
        let current = [case("a", 40.0)];
        let out = compare(&current, &baseline, 0.15);
        assert!(out.regressions.is_empty());
        assert!((out.compared[0].ratio - 0.4).abs() < 1e-12);
    }
}
