//! Fabric-wide snapshot/resume acceptance: killing an H-host fabric at
//! any step boundary — including `AfterGradFence`, which sits *after* the
//! inter-host all-reduce, so mid-flight collective accounting is in the
//! image — and restoring every host cluster plus the collective engine
//! from nothing but the serialized bytes must reproduce the uninterrupted
//! run's report byte-for-byte.

use teco_core::resume::{KillPoint, StepBoundary};
use teco_core::{run_resumed, run_uninterrupted, FabricWorkload};

const BOUNDARIES: [StepBoundary; 3] =
    [StepBoundary::AfterGradFence, StepBoundary::AfterActivation, StepBoundary::AfterParamFence];

#[test]
fn fabric_resume_is_byte_identical_at_every_boundary() {
    for hosts in [1usize, 2, 4] {
        let mut w = FabricWorkload::small(hosts, 2, 42);
        w.base.steps = 3;
        let baseline = run_uninterrupted(&w).unwrap();
        let want = serde_json::to_string(&baseline.report).unwrap();
        for step in 0..w.base.steps {
            for boundary in BOUNDARIES {
                let resumed = run_resumed(&w, KillPoint { step, boundary }).unwrap();
                assert_eq!(resumed.snapshots_taken, 1);
                assert_eq!(resumed.restores, 1);
                assert!(resumed.snapshot_bytes > 0);
                let got = serde_json::to_string(&resumed.report).unwrap();
                assert_eq!(
                    got, want,
                    "H={hosts} fabric diverged after kill at step {step} {boundary:?}"
                );
            }
        }
    }
}

#[test]
fn fabric_resume_preserves_collective_accounting_mid_run() {
    // Kill right after the exchange of a middle step: the restored
    // collective engine must carry the media arbiter horizon and fan-in
    // counters, or the remaining steps' exchange times drift.
    let mut w = FabricWorkload::small(4, 2, 7);
    w.base.steps = 6;
    let baseline = run_uninterrupted(&w).unwrap().report;
    let resumed = run_resumed(&w, KillPoint { step: 3, boundary: StepBoundary::AfterGradFence })
        .unwrap()
        .report;
    assert_eq!(baseline.exchange_ns, resumed.exchange_ns);
    assert_eq!(baseline.fanin_saved_bytes, resumed.fanin_saved_bytes);
    assert_eq!(baseline.global_grad_checksum, resumed.global_grad_checksum);
    assert!(baseline.fanin_saved_bytes > 0, "H=4 gathers must dedup media reads");
}
