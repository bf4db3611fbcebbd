//! Smoke-size runs of every workload: the result line carries exactly the
//! metrics `BENCHMARK.json` names, with their units; the output checks
//! pass; the simulated digest repeats across runs and with tracing on.

use crate::report;
use crate::run::{run, RunConfig, RunResult};
use crate::workloads::{Kind, Size};
use crate::DEFAULT_SEED;
use serde::Value;

fn smoke(kind: Kind, trace: bool) -> (RunConfig, RunResult) {
    let cfg = RunConfig { kind, seed: DEFAULT_SEED, seconds: 0.0, trace, size: Size::Smoke };
    let r = run(&cfg).unwrap_or_else(|e| panic!("{} smoke run failed: {e}", kind.name()));
    (cfg, r)
}

/// `(name, unit)` of every metric in one `BENCHMARK.json` list.
fn contract(list: &str) -> Vec<(String, String)> {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json beside the benchmark");
    let json: Value = serde_json::from_str(&text).expect("BENCHMARK.json parses");
    let Some(Value::Array(metrics)) = json.get(list) else { panic!("{list} list present") };
    metrics.iter().map(|m| (text_field(m, "name"), text_field(m, "unit"))).collect()
}

fn text_field(v: &Value, key: &str) -> String {
    match v.get(key) {
        Some(Value::Str(s)) => s.clone(),
        other => panic!("`{key}` is not a string: {other:?}"),
    }
}

/// The result line's metrics as `(name, unit)`, checking its other keys.
fn result_metrics(cfg: &RunConfig, r: &RunResult) -> Vec<(String, String)> {
    let lines = report::render(cfg, r, &Ok(()));
    let last: Value = serde_json::from_str(lines.last().expect("output")).expect("JSON result");
    assert_eq!(last.get("correct"), Some(&Value::Bool(true)), "{}", cfg.kind.name());
    assert_eq!(last.get("failed").and_then(Value::as_u64), Some(0));
    assert!(last.get("attempted").and_then(Value::as_u64).is_some_and(|a| a >= 1));
    let Some(Value::Object(metrics)) = last.get("metrics") else { panic!("metrics object") };
    metrics
        .iter()
        .map(|(name, m)| {
            assert!(m.get("value").and_then(Value::as_f64).is_some(), "{name} has a value");
            (name.clone(), text_field(m, "unit"))
        })
        .collect()
}

fn layer(r: &RunResult, name: &str) -> f64 {
    r.per_layer.iter().find(|m| m.name == name).unwrap_or_else(|| panic!("{name} reported")).value
}

#[test]
fn every_workload_reports_its_metrics_passes_its_checks_and_repeats_its_digest() {
    let (mut e2e, mut per_layer) = (contract("end_to_end"), contract("per_layer"));
    e2e.sort();
    per_layer.sort();
    for kind in Kind::ALL {
        let (cfg, first) = smoke(kind, false);
        let (_, second) = smoke(kind, false);
        let (tcfg, traced) = smoke(kind, true);
        assert!(first.errors.is_empty(), "{}: {:?}", kind.name(), first.errors);
        assert!(traced.errors.is_empty(), "{}: {:?}", kind.name(), traced.errors);
        assert_eq!(first.digest, second.digest, "{}: digest repeats", kind.name());
        assert_eq!(first.digest, traced.digest, "{}: tracing leaves the digest", kind.name());
        for name in [
            "step_wall_ms",
            "step_wall_ms_tail",
            "sim_lines_per_s",
            "sim_step_us",
            "setup_s",
            "peak_rss_mb",
            "failed_ratio",
        ] {
            assert!(first.end_to_end.iter().any(|m| m.name == name), "{name} reported");
        }

        let mut got = result_metrics(&cfg, &first);
        got.sort();
        assert_eq!(got, e2e, "{}: end-to-end metrics and units", kind.name());
        let mut got = result_metrics(&tcfg, &traced);
        got.sort();
        assert_eq!(got, per_layer, "{}: per-layer metrics and units", kind.name());
    }
}

#[test]
fn layers_are_exercised_where_the_workloads_claim() {
    let (_, t) = smoke(Kind::TieredFaulty, true);
    assert!(layer(&t, "placement.promotions") > 0.0);
    assert!(layer(&t, "placement.demotions") > 0.0);
    assert!(layer(&t, "fault.retries") > 0.0);
    assert!(layer(&t, "ras.scrub_visits") > 0.0);
    assert!(layer(&t, "placement.side_push.ns_per_line") > 0.0);

    let (_, f) = smoke(Kind::FabricAllreduce, true);
    assert!(layer(&f, "collective.all_reduce.ms") > 0.0);
    assert!(layer(&f, "collective.port_bytes") > 0.0);
    assert!(layer(&f, "arbiter.rounds") > 0.0);

    let (_, g) = smoke(Kind::Gpt2Step, true);
    assert_eq!(layer(&g, "session.wire_bytes_per_param_line"), 32.0, "DBA at dirty_bytes 2");
    assert!(layer(&g, "session.push_param_lines.ns_per_line") > 0.0);
    assert!(layer(&g, "dba.aggregate_lines.ns_per_line") > 0.0);
    assert_eq!(layer(&g, "fault.retries"), 0.0);
}

#[test]
fn another_seed_changes_the_faulty_workload() {
    let a = smoke(Kind::TieredFaulty, false).1;
    let cfg = RunConfig {
        kind: Kind::TieredFaulty,
        seed: crate::HELD_OUT_SEED,
        seconds: 0.0,
        trace: false,
        size: Size::Smoke,
    };
    let b = run(&cfg).expect("held-out seed runs");
    assert!(b.errors.is_empty(), "{:?}", b.errors);
    assert_ne!(a.digest, b.digest);
}
