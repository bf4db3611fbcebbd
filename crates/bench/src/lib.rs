//! # teco-bench — experiment harness
//!
//! Every experiment behind `bench_results/*.json` — the paper's tables and
//! figures (`paper`) and the extension sweeps ([`sweeps`]) — is an entry of
//! [`sweeps::registry`], run by name through the one `sweep` binary.
//! `generate_report` renders REPORT.md, `perf_smoke` gates the Criterion
//! micro-benchmarks (`benches/`). This library also holds the shared
//! output helpers: cell formatting and JSON result dumps into
//! `bench_results/`.

mod paper;
pub mod report;
pub mod sweeps;

use serde::Serialize;
use std::fs;
use std::path::PathBuf;

/// Format a float cell.
pub fn f(x: f64) -> String {
    format!("{x:.2}")
}

/// Format a percent cell.
pub fn pct(x: f64) -> String {
    format!("{x:.1}%")
}

/// Write an experiment's rows as JSON under `bench_results/<name>.json`
/// and return the path written. A failed serialization or write exits the
/// process nonzero: a stale JSON file must never pass for a fresh one.
pub fn dump_json<T: Serialize + ?Sized>(name: &str, value: &T) -> PathBuf {
    let path = PathBuf::from("bench_results").join(format!("{name}.json"));
    let written = serde_json::to_string_pretty(value)
        .map_err(|e| format!("cannot serialize {name}: {e}"))
        .and_then(|s| {
            fs::create_dir_all("bench_results")
                .and_then(|()| fs::write(&path, s))
                .map_err(|e| format!("cannot write {}: {e}", path.display()))
        });
    if let Err(e) = written {
        eprintln!("error: {e}");
        std::process::exit(1);
    }
    path
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn formatters() {
        assert_eq!(f(1.234), "1.23");
        assert_eq!(pct(12.345), "12.3%");
    }

    #[test]
    fn dump_json_roundtrips() {
        let rows = vec![("a", 1.5f64), ("b", 2.5)];
        let path = dump_json("unit_test_rows", &rows);
        let text = std::fs::read_to_string(&path).unwrap();
        let back: Vec<(String, f64)> = serde_json::from_str(&text).unwrap();
        assert_eq!(back.len(), 2);
        assert_eq!(back[0].0, "a");
        std::fs::remove_file(path).ok();
    }
}
