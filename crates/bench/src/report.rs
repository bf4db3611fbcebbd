//! The REPORT.md section renderers.
//!
//! These used to live inline in the `generate_report` binary; they are
//! library functions so the golden-file tests (`tests/report_golden.rs`)
//! can render each section against its checked-in fixture byte-for-byte.
//! Every section is deterministic: fixed seeds, fixed workloads, no
//! wall-clock or environment inputs.

use crate::sweeps::{
    rows, ChurnSweep, CollectiveSweep, DatapathSweep, FabricChaosSweep, PlacementSweep,
    ScalingSweep, Sweep,
};
use teco_core::{
    run_resumed, run_uninterrupted, KillPoint, ResumeWorkload, StepBoundary, TecoConfig,
    TecoSession,
};
use teco_cxl::FaultConfig;
use teco_mem::LineData;
use teco_offload::fault_report_md;
use teco_sim::SimTime;

/// A small fixed-seed faulty run so the report always carries a populated
/// fault/recovery section (deterministic: same counters every invocation).
pub fn fault_section() -> String {
    let fault = FaultConfig {
        crc_error_rate: 0.05,
        stall_rate: 0.05,
        stall_ns: 100,
        poison_rate: 0.01,
        dba_checksum_error_rate: 0.05,
        retry_limit: 8,
        seed: 7,
        ..FaultConfig::off()
    };
    let cfg = TecoConfig::default()
        .with_giant_cache_bytes(1 << 20)
        .with_act_aft_steps(1)
        .with_fault(fault);
    let mut s = TecoSession::new(cfg).expect("valid config");
    let (_, base) = s.alloc_tensor("params", 256 * 64).expect("alloc params");
    let mut now = SimTime::ZERO;
    for step in 0..3u64 {
        s.check_activation(step);
        let lines: Vec<LineData> = (0..256u64)
            .map(|i| {
                let mut l = LineData::zeroed();
                for w in 0..16usize {
                    // High halves fixed across steps (the DBA premise).
                    l.set_word(w, ((i as u32) << 16) | (0x100 + step as u32 * 3 + w as u32));
                }
                l
            })
            .collect();
        s.push_param_lines(base, &lines, now).expect("param push");
        now = s.cxlfence_params(now);
    }
    fault_report_md(&s.fault_report(), s.degraded_regions())
}

/// A deterministic invalidation-mode run that populates the snoop filter,
/// reported so the directory's occupancy (and where its entries live —
/// dense arena vs spillover) is visible next to the fault section.
pub fn snoop_section() -> String {
    let cfg = TecoConfig::default()
        .with_giant_cache_bytes(1 << 20)
        .with_protocol(teco_cxl::ProtocolMode::Invalidation);
    let mut s = TecoSession::new(cfg).expect("valid config");
    let (_, base) = s.alloc_tensor("params", 512 * 64).expect("alloc params");
    let lines: Vec<LineData> = (0..512u64)
        .map(|i| {
            let mut l = LineData::zeroed();
            for w in 0..16usize {
                l.set_word(w, ((i as u32) << 8) | w as u32);
            }
            l
        })
        .collect();
    s.push_param_lines(base, &lines, SimTime::ZERO).expect("param push");
    let st = s.coherence().snoop_filter().stats();
    format!(
        "\n## Snoop-filter occupancy (invalidation mode, 512-line push)\n\n\
         | metric | value |\n|---|---|\n\
         | tracked lines | {} |\n\
         | dense-arena entries | {} |\n\
         | spillover entries | {} |\n\
         | dense slots available | {} |\n\
         | peak tracked lines | {} |\n\
         | peak directory bytes | {} |\n",
        st.entries,
        st.dense_entries,
        st.spill_entries,
        st.dense_slots,
        st.peak_entries,
        st.peak_bytes
    )
}

/// A fixed-seed kill+resume exercise so the report always carries the
/// crash-consistency counters: snapshots taken, restores performed,
/// snapshot image size, byte-identity of the resumed run, and the paranoid
/// auditor's final verdict. Deterministic: same numbers every invocation.
pub fn resume_section() -> String {
    let mut w = ResumeWorkload::small(7);
    w.cfg = w.cfg.clone().with_audit(true);
    let baseline = run_uninterrupted(&w).expect("uninterrupted run completes");
    let kill = KillPoint { step: w.steps / 2, boundary: StepBoundary::AfterActivation };
    let resumed = run_resumed(&w, kill).expect("resumed run completes");
    let identical = serde_json::to_string(&resumed.report).expect("serialize resumed")
        == serde_json::to_string(&baseline.report).expect("serialize baseline");
    let audit = |e: &Option<String>| match e {
        None => "clean".to_string(),
        Some(msg) => format!("FAILED: {msg}"),
    };
    format!(
        "\n## Crash-consistent snapshot/resume (audited, kill at step {} {})\n\n\
         | metric | uninterrupted | killed+resumed |\n|---|---|---|\n\
         | snapshots taken | {} | {} |\n\
         | restores performed | {} | {} |\n\
         | snapshot image bytes | {} | {} |\n\
         | device checksum | {:#018x} | {:#018x} |\n\
         | last audit walk | {} | {} |\n\
         | report byte-identical to uninterrupted | — | {} |\n",
        kill.step,
        "after-activation",
        baseline.snapshots_taken,
        resumed.snapshots_taken,
        baseline.restores,
        resumed.restores,
        baseline.snapshot_bytes,
        resumed.snapshot_bytes,
        baseline.report.device_checksum,
        resumed.report.device_checksum,
        audit(&baseline.last_audit_error),
        audit(&resumed.last_audit_error),
        identical,
    )
}

/// A sweep's section: its table over rows computed serially — a report
/// render must not depend on core count even transiently (the rows are
/// worker-independent anyway; this keeps the render path trivially
/// single-threaded). With `pass`, a gate line follows: `pass` when the
/// sweep's divergences are empty, the failures otherwise.
fn sweep_section<S: Sweep>(pass: Option<&str>) -> String {
    let rows = rows::<S>(1);
    let mut out = format!("\n{}", S::table(&rows));
    if let Some(pass) = pass {
        let bad = S::divergences(&rows);
        let verdict = if bad.is_empty() {
            pass.to_string()
        } else {
            format!("FAILED — {}", bad.join("; "))
        };
        out.push_str(&format!("\ngate: {verdict}\n"));
    }
    out
}

/// The datapath section: the fixed-seed datapath workload across fault ×
/// protocol, one row per cell.
pub fn datapath_section() -> String {
    sweep_section::<DatapathSweep>(None)
}

/// The multi-device scaling section: N ∈ {1, 2, 4, 8} × batch ∈ {4, 8, 16}.
pub fn scaling_section() -> String {
    sweep_section::<ScalingSweep>(None)
}

/// The fault-domain churn section: device loss, watchdog detection,
/// shard redistribution, hot readmission, and pool-media RAS.
pub fn churn_section() -> String {
    sweep_section::<ChurnSweep>(None)
}

/// The fabric chaos section: host loss at a chunk boundary of the fused
/// all-reduce, watchdog detection, survivor regroup, hot readmission,
/// and staging-media RAS, with the sweep's gate underneath.
pub fn chaos_section() -> String {
    sweep_section::<FabricChaosSweep>(Some(
        "every degraded and readmitted fabric ended byte-identical to its \
         never-failed golden, with zero poisoned bytes admitted",
    ))
}

/// The tiered-placement section: every Table III model under the
/// explicit single-tier policy instance and the tiered policy, with the
/// sweep's gate underneath.
pub fn placement_section() -> String {
    sweep_section::<PlacementSweep>(Some(
        "explicit single-tier stayed byte-identical to the legacy default on \
         every model, every tiered cell re-placed tensors off the giant cache, \
         and the autotuned cache tracked Table III",
    ))
}

/// The inter-host collective section: the pool-vs-ring comparison grid,
/// with the sweep's gate (pool beats ring on time and bytes, bits match,
/// host 0 unperturbed) underneath.
pub fn collective_section() -> String {
    sweep_section::<CollectiveSweep>(Some(
        "pool beat the ring on time and bytes in every cell, bit-identically, \
         with host 0 of every fabric byte-identical to the single-host path",
    ))
}

#[cfg(test)]
mod tests {
    use crate::sweeps::{
        ChurnRow, ChurnSweep, CollectiveEntry, CollectiveRow, CollectiveSweep, PlacementRow,
        PlacementSweep, ScalingRow, ScalingSweep, Sweep,
    };

    #[test]
    fn scaling_report_renders_rows_and_empty_case() {
        assert!(ScalingSweep::table(&[]).contains("No scaling points recorded"));
        let r = ScalingRow {
            devices: 4,
            batch: 8,
            steps: 6,
            model_lines: 512,
            cluster_time_ns: 1_500_000,
            one_device_time_ns: 1_200_000,
            speedup_vs_one: 3.2,
            efficiency_pct: 80.0,
            host_wait_ns: 250_000,
            host_drained_ns: 1_400_000,
            host_bytes: 0,
            broadcast_bytes: 0,
            fanout_saved_bytes: 3_000_000,
            device_checksum: 0,
            pool_checksum: 0,
        };
        let md = ScalingSweep::table(std::slice::from_ref(&r));
        assert!(md.contains("| 4 | 8 | 1.500 | 3.20 | 80.0% | 0.250 | 1.400 | 3.00 |"), "{md}");
        assert_eq!(md, ScalingSweep::table(&[r]), "deterministic");
    }

    #[test]
    fn churn_report_renders_rows_and_empty_case() {
        assert!(ChurnSweep::table(&[]).contains("No churn points recorded"));
        let r = ChurnRow {
            devices: 4,
            kill_mode: "readmit".into(),
            media_rate: 1.0,
            steps: 10,
            down_events: 1,
            quarantines: 1,
            readmits: 1,
            redistributed_lines: 24,
            typed_errors: 1,
            ras_faults_injected: 17,
            ras_detected_by_scrub: 0,
            ras_detected_on_access: 0,
            ras_lines_retired: 12,
            ras_rebuilds: 3,
            cluster_time_ns: 2_400_000,
            pool_checksum: 0,
            clean_pool_checksum: 0,
            converged: true,
        };
        let md = ChurnSweep::table(std::slice::from_ref(&r));
        assert!(
            md.contains("| 4 | readmit | 1.00 | 1 | 1 | 24 | 17 | 12 | 3 | 2.400 | yes |"),
            "{md}"
        );
        let bad = ChurnRow { converged: false, ..r.clone() };
        assert!(ChurnSweep::table(&[bad]).contains("| NO |"));
        assert_eq!(md, ChurnSweep::table(&[r]), "deterministic");
    }

    #[test]
    fn collective_report_renders_rows_and_empty_case() {
        assert!(CollectiveSweep::table(&[]).contains("No collective points recorded"));
        let r = CollectiveRow {
            hosts: 4,
            grad_bytes: 64 << 20,
            pool_ns: 20_000_000,
            ring_ns: 33_000_000,
            speedup: 1.65,
            pool_port_bytes: 7 * (64 << 20),
            pool_media_bytes: 0,
            fanin_saved_bytes: 2 * (64 << 20),
            ring_link_bytes: 12 * (64 << 20),
            byte_ratio: 12.0 / 7.0,
            results_match: true,
            grad_checksum: String::new(),
        };
        let md = CollectiveSweep::table(&[CollectiveEntry::Compare(r.clone())]);
        assert!(
            md.contains("| 4 | 64 | 20.000 | 33.000 | 1.65 | 469.8 | 805.3 | 134.2 | yes |"),
            "{md}"
        );
        let bad = CollectiveRow { results_match: false, ..r.clone() };
        assert!(CollectiveSweep::table(&[CollectiveEntry::Compare(bad)]).contains("| NO |"));
        assert_eq!(md, CollectiveSweep::table(&[CollectiveEntry::Compare(r)]), "deterministic");
    }

    #[test]
    fn placement_report_renders_rows_and_empty_case() {
        assert!(PlacementSweep::table(&[]).contains("No placement points recorded"));
        let r = PlacementRow {
            model: "GPT-2".into(),
            policy: "tiered".into(),
            autotuned_mb: 320,
            table3_mb: 324,
            sim_time_ns: 0,
            device_bytes: 4096,
            giant_cache_bytes: 131_072,
            host_dram_bytes: 65_536,
            migrations: 2,
            migrated_bytes: 8192,
            bytes_to_device: 262_144,
            bytes_to_host: 131_072,
            snapshot_digest: "deadbeefcafef00d".into(),
        };
        let md = PlacementSweep::table(std::slice::from_ref(&r));
        assert!(
            md.contains(
                "| GPT-2 | tiered | 320 | 324 | 4096 | 131072 | 65536 | 2 | 8192 | 262144 \
                 | 131072 | deadbeefcafef00d |"
            ),
            "{md}"
        );
        assert_eq!(md, PlacementSweep::table(&[r]), "deterministic");
    }
}
