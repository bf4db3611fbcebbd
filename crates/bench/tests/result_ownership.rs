//! Every result file in `bench_results/` belongs to exactly one entry of
//! the experiment registry, so the one `sweep` binary regenerates all of
//! them and the CI sweeps job pins all of them. The Criterion artifacts
//! (`criterion_medians.json`, `perf_summary.json`) and the `BENCH_*.json`
//! perf trajectories come from `cargo bench` and `generate_report`
//! instead. Names only: no experiment runs here.

use std::collections::BTreeSet;
use std::path::Path;
use teco_bench::sweeps::registry;

fn committed_results() -> BTreeSet<String> {
    let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../bench_results");
    std::fs::read_dir(&dir)
        .unwrap_or_else(|e| panic!("read {}: {e}", dir.display()))
        .map(|e| e.expect("dir entry").path())
        .filter(|p| p.extension().is_some_and(|x| x == "json"))
        .map(|p| p.file_stem().expect("file stem").to_string_lossy().into_owned())
        .filter(|stem| {
            stem != "criterion_medians" && stem != "perf_summary" && !stem.starts_with("BENCH_")
        })
        .collect()
}

#[test]
fn every_result_file_has_exactly_one_registry_entry() {
    let names: Vec<&str> = registry().iter().map(|e| e.name).collect();
    let entries: BTreeSet<String> = names.iter().map(|n| n.to_string()).collect();
    assert_eq!(entries.len(), names.len(), "two registry entries share a name: {names:?}");
    let files = committed_results();
    let orphans: Vec<_> = files.difference(&entries).collect();
    let unwritten: Vec<_> = entries.difference(&files).collect();
    assert!(orphans.is_empty(), "result files no registry entry writes: {orphans:?}");
    assert!(unwritten.is_empty(), "registry entries with no committed result file: {unwritten:?}");
}
