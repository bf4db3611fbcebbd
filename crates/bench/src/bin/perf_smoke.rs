//! Perf regression smoke gate.
//!
//! Compares the Criterion medians of the current run
//! (`bench_results/criterion_medians.json`, written by `cargo bench`)
//! against the committed baselines (`bench_results/BENCH_pr3.json` for
//! the arena rewrites, `bench_results/BENCH_pr6.json` for the datapath
//! kernels) and fails on a >25 % regression of any tracked key. It also
//! re-checks the speedup claims *within the current run* — fast path vs
//! the retained reference measured on the same machine moments apart —
//! so the ≥2× bounds never depend on cross-machine comparisons. Finally
//! it holds the bulk aggregator to the modeled link bandwidth: the wire
//! feeding a PCIe-3.0×16-class CXL link is ~15 GB/s, and a datapath that
//! can't outrun the link it feeds is the bottleneck the datapath PR
//! exists to remove. It gates Criterion medians only: the model checks
//! (pool vs ring, fabric chaos, tiered placement) are the sweeps' gates.
//!
//! Usage:
//!   perf_smoke               # gate current medians vs both baselines
//!   perf_smoke --record      # (re)write BENCH_pr3.json from current medians
//!   perf_smoke --record-pr6  # (re)write BENCH_pr6.json from current medians

use serde::Value;

const MEDIANS: &str = "bench_results/criterion_medians.json";
const BASELINE: &str = "bench_results/BENCH_pr3.json";
const BASELINE_PR6: &str = "bench_results/BENCH_pr6.json";

/// Keys gated against the committed PR-3 baseline (median_ns, lower is
/// better).
const TRACKED: &[&str] = &[
    "coherence_event/dense_update",
    "coherence_event/dense_invalidation",
    "giant_cache_merge/dense_bulk_dba",
    "step_throughput/push_fence_dba",
    "step_throughput/push_fence_full",
];

/// Keys gated against the committed PR-6 datapath baseline.
const TRACKED_PR6: &[&str] = &[
    "aggregator_bulk/dirty_bytes_2",
    "disaggregator_bulk/merge_dirty2",
    "datapath/checksummed_kernel_2",
    "datapath/write_run",
];

/// (fast, slow, minimum required slow/fast ratio) asserted on the current
/// run's medians.
const SPEEDUPS: &[(&str, &str, f64)] = &[
    ("coherence_event/dense_update", "coherence_event/hashref_update", 2.0),
    ("coherence_event/dense_invalidation", "coherence_event/hashref_invalidation", 2.0),
    ("giant_cache_merge/dense_bulk_dba", "giant_cache_merge/hashref_bulk_dba", 2.0),
    // Fused chunk-wise pack+Fletcher vs the pre-fusion scalar pack plus
    // per-byte checksum second pass (both measured this run; measured
    // headroom ~6× and ~5×).
    ("datapath/checksummed_kernel_2", "datapath/checksummed_scalar_2", 2.0),
    ("datapath/checksummed_kernel_3", "datapath/checksummed_scalar_3", 2.0),
];

/// (key, bytes processed per iteration, minimum GB/s) asserted on the
/// current run's medians: `bytes / median_ns` is exactly GB/s.
const BANDWIDTH: &[(&str, u64, f64)] = &[
    // 1024 whole lines through the bulk aggregator at dirty_bytes=2 must
    // saturate the modeled PCIe-3.0×16 link (~15 GB/s).
    ("aggregator_bulk/dirty_bytes_2", 1024 * 64, 15.0),
];

/// Regression threshold: fail when current > baseline × 1.25.
const MAX_REGRESSION: f64 = 1.25;

fn median_ns(doc: &Value, key: &str) -> Option<f64> {
    doc.get(key)?.get("median_ns")?.as_f64()
}

fn load(path: &str) -> Value {
    let text = std::fs::read_to_string(path)
        .unwrap_or_else(|e| panic!("cannot read {path}: {e} — run `cargo bench` first"));
    serde_json::from_str(&text).unwrap_or_else(|e| panic!("cannot parse {path}: {e}"))
}

fn record(current: &Value, path: &str, tracked: &[&str], extra_pairs: bool) {
    let mut fields = Vec::new();
    let mut keys: Vec<&str> = tracked.to_vec();
    if extra_pairs {
        for &(fast, slow, _) in SPEEDUPS {
            for k in [fast, slow] {
                if !keys.contains(&k) {
                    keys.push(k);
                }
            }
        }
    }
    for key in keys {
        let ns = median_ns(current, key)
            .unwrap_or_else(|| panic!("{MEDIANS} is missing {key} — run the benches first"));
        fields.push((
            key.to_string(),
            Value::Object(vec![("median_ns".to_string(), Value::Float(ns))]),
        ));
    }
    let doc = Value::Object(fields);
    std::fs::write(path, serde_json::to_string_pretty(&doc).expect("serialize baseline"))
        .unwrap_or_else(|e| panic!("cannot write {path}: {e}"));
    println!("recorded {} keys to {path}", tracked.len());
}

/// Gate `tracked` keys of the current run against a committed baseline.
fn gate_regressions(
    current: &Value,
    baseline: &Value,
    baseline_path: &str,
    tracked: &[&str],
    failures: &mut Vec<String>,
) {
    for &key in tracked {
        let now = median_ns(current, key);
        let then = median_ns(baseline, key);
        match (now, then) {
            (Some(now), Some(then)) => {
                let ratio = now / then;
                let verdict = if ratio > MAX_REGRESSION { "REGRESSED" } else { "ok" };
                println!("{key}: {now:.0} ns vs baseline {then:.0} ns ({ratio:.2}x) {verdict}");
                if ratio > MAX_REGRESSION {
                    failures.push(format!("{key} regressed {ratio:.2}x (> {MAX_REGRESSION}x)"));
                }
            }
            (None, _) => failures.push(format!("{key} missing from {MEDIANS}")),
            (_, None) => failures.push(format!("{key} missing from {baseline_path}")),
        }
    }
}

fn main() {
    let current = load(MEDIANS);
    if std::env::args().any(|a| a == "--record") {
        record(&current, BASELINE, TRACKED, true);
        return;
    }
    if std::env::args().any(|a| a == "--record-pr6") {
        record(&current, BASELINE_PR6, TRACKED_PR6, false);
        return;
    }

    let mut failures = Vec::new();
    gate_regressions(&current, &load(BASELINE), BASELINE, TRACKED, &mut failures);
    gate_regressions(&current, &load(BASELINE_PR6), BASELINE_PR6, TRACKED_PR6, &mut failures);

    for &(fast, slow, min_ratio) in SPEEDUPS {
        match (median_ns(&current, fast), median_ns(&current, slow)) {
            (Some(f), Some(s)) => {
                let ratio = s / f;
                let verdict = if ratio < min_ratio { "TOO SLOW" } else { "ok" };
                println!(
                    "{fast} is {ratio:.2}x faster than {slow} (need {min_ratio:.1}x) {verdict}"
                );
                if ratio < min_ratio {
                    failures.push(format!(
                        "{fast} only {ratio:.2}x faster than {slow} (need {min_ratio:.1}x)"
                    ));
                }
            }
            _ => failures.push(format!("{fast} / {slow} missing from {MEDIANS}")),
        }
    }

    for &(key, bytes, min_gbps) in BANDWIDTH {
        match median_ns(&current, key) {
            Some(ns) if ns > 0.0 => {
                let gbps = bytes as f64 / ns;
                let verdict = if gbps < min_gbps { "BELOW LINK RATE" } else { "ok" };
                println!("{key}: {gbps:.2} GB/s (need {min_gbps:.1} GB/s) {verdict}");
                if gbps < min_gbps {
                    failures.push(format!(
                        "{key} sustains only {gbps:.2} GB/s (need {min_gbps:.1} GB/s)"
                    ));
                }
            }
            _ => failures.push(format!("{key} missing from {MEDIANS}")),
        }
    }

    if failures.is_empty() {
        println!("perf smoke: all checks passed");
    } else {
        for f in &failures {
            eprintln!("perf smoke FAILURE: {f}");
        }
        std::process::exit(1);
    }
}
