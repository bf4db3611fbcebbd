//! `scripts/reproduce_all.sh` must run every experiment binary: each
//! `src/bin/*.rs` except the `perf_smoke` gate (which needs fresh
//! Criterion medians) has to appear in its `BINS` list, and every listed
//! name has to be a real binary.

use std::collections::BTreeSet;
use std::path::Path;

fn listed_bins(script: &str) -> BTreeSet<String> {
    let start = script.find("BINS=(").expect("reproduce_all.sh defines BINS=(") + "BINS=(".len();
    let len = script[start..].find(')').expect("BINS list is closed");
    script[start..start + len].split_whitespace().map(str::to_string).collect()
}

#[test]
fn reproduce_all_lists_every_experiment_binary() {
    let crate_dir = Path::new(env!("CARGO_MANIFEST_DIR"));
    let script = std::fs::read_to_string(crate_dir.join("../../scripts/reproduce_all.sh"))
        .expect("read scripts/reproduce_all.sh");
    let listed = listed_bins(&script);
    let bins: BTreeSet<String> = std::fs::read_dir(crate_dir.join("src/bin"))
        .expect("read src/bin")
        .map(|e| e.expect("dir entry").path())
        .filter(|p| p.extension().is_some_and(|x| x == "rs"))
        .map(|p| p.file_stem().expect("file stem").to_string_lossy().into_owned())
        .filter(|name| name != "perf_smoke")
        .collect();
    let missing: Vec<_> = bins.difference(&listed).collect();
    let unknown: Vec<_> = listed.difference(&bins).collect();
    assert!(missing.is_empty(), "binaries missing from BINS in reproduce_all.sh: {missing:?}");
    assert!(unknown.is_empty(), "BINS in reproduce_all.sh names unknown binaries: {unknown:?}");
}
