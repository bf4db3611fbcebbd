//! End-to-end placement anchor: the default (single-tier) policy must be
//! byte-identical to the pre-placement-engine behavior.
//!
//! The fixture `tests/golden/placement_anchor.md` was blessed from the
//! tree *before* the placement engine landed, so every digest below is a
//! commitment to the pre-PR bytes: the default TECO configuration, a
//! default session's serialized snapshot (fault-free and faulty), and the
//! serialized cluster/fabric reports for N ∈ {1, 2} and H ∈ {1, 2} with
//! and without fault injection. If wiring the placement engine through
//! `TecoSession`/`ClusterSession` perturbs any of these encodings — an
//! extra config key, a reordered snapshot field, a changed stat — the
//! digest moves and this test fails. Regenerate (only for an *intended*
//! byte change) with `TECO_BLESS=1 cargo test --test placement_anchor`.

use std::fmt::Write as _;
use std::path::PathBuf;

use teco::core::{run_uninterrupted, TecoConfig};
use teco_bench::sweeps::{fabric_workload, fnv1a_hex, run_fault_workload, scaling_workload};
use teco_cxl::{FaultConfig, RasConfig};
use teco_testsupport::golden::assert_golden;

fn fixture() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/golden/placement_anchor.md")
}

/// The faulty variant drives the cluster/fabric paths through pool-media
/// RAS (the churn sweep's proven recipe — link-level faults can kill a
/// cluster run, RAS cannot).
fn ras() -> RasConfig {
    RasConfig { media_faults_per_tick: 0.5, scrub_lines_per_tick: 16, spare_lines: 128, seed: 11 }
}

fn anchor_document() -> String {
    let mut out = String::from("# Placement anchor digests (pre-engine bytes)\n\n");

    // The default configuration's exact serialized form. The placement
    // field must be omitted at its default, so this encoding can never
    // carry a `placement` key.
    let cfg_json = serde_json::to_string(&TecoConfig::default()).expect("serialize config");
    assert!(
        !cfg_json.contains("placement"),
        "default TecoConfig must not serialize a placement field"
    );
    let _ = writeln!(out, "default_config: `{}`", fnv1a_hex(cfg_json.as_bytes()));

    // A default session after the fixed fault-sweep workload, fault-free
    // and with the fault injector on: the full snapshot encoding.
    let (clean, _, _) = run_fault_workload(2, FaultConfig::off());
    let clean_json = serde_json::to_string(&clean.snapshot()).expect("serialize snapshot");
    let _ = writeln!(out, "session_clean: `{}`", fnv1a_hex(clean_json.as_bytes()));
    let fault = FaultConfig {
        crc_error_rate: 0.01,
        stall_rate: 0.01,
        stall_ns: 100,
        poison_rate: 0.0025,
        dba_checksum_error_rate: 0.01,
        retry_limit: 16,
        seed: 42,
        ..FaultConfig::off()
    };
    let (faulty, _, _) = run_fault_workload(2, fault);
    let faulty_json = serde_json::to_string(&faulty.snapshot()).expect("serialize snapshot");
    let _ = writeln!(out, "session_faulty: `{}`", fnv1a_hex(faulty_json.as_bytes()));

    // Cluster reports, N ∈ {1, 2}, fault-free and under media RAS.
    for devices in [1usize, 2] {
        let w = scaling_workload(devices, 4);
        let report = run_uninterrupted(&w).expect("cluster run completes").report;
        let json = serde_json::to_string(&report).expect("serialize report");
        let _ = writeln!(out, "cluster_n{devices}_clean: `{}`", fnv1a_hex(json.as_bytes()));

        let mut wf = scaling_workload(devices, 4);
        wf.cfg.base = wf.cfg.base.clone().with_ras(ras());
        let report = run_uninterrupted(&wf).expect("faulty cluster run completes").report;
        let json = serde_json::to_string(&report).expect("serialize report");
        let _ = writeln!(out, "cluster_n{devices}_faulty: `{}`", fnv1a_hex(json.as_bytes()));
    }

    // Fabric reports, H ∈ {1, 2}, fault-free and under media RAS.
    for hosts in [1usize, 2] {
        let w = fabric_workload(hosts);
        let report = run_uninterrupted(&w).expect("fabric run completes").report;
        let json = serde_json::to_string(&report).expect("serialize report");
        let _ = writeln!(out, "fabric_h{hosts}_clean: `{}`", fnv1a_hex(json.as_bytes()));

        let mut wf = fabric_workload(hosts);
        wf.base.cfg.base = wf.base.cfg.base.clone().with_ras(ras());
        let report = run_uninterrupted(&wf).expect("faulty fabric run completes").report;
        let json = serde_json::to_string(&report).expect("serialize report");
        let _ = writeln!(out, "fabric_h{hosts}_faulty: `{}`", fnv1a_hex(json.as_bytes()));
    }

    out
}

#[test]
fn default_policy_byte_identical_to_pre_engine_behavior() {
    assert_golden(fixture(), &anchor_document());
}
