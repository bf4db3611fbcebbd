//! Deterministic device-churn harness: kill, detect, redistribute,
//! readmit — and prove the cluster converges to the never-failed run.
//!
//! The driver trains an N-device data-parallel cluster on *formulaic*
//! line content (no RNG): parameter line `i` at step `s` has fixed high
//! halves per `(i, word)` and a step-dependent low half, so the stream is
//! DBA-conformant and a device rebuilt from the pooled master converges
//! bit-exactly with replicas that never failed. Gradient shards are
//! arbitrary full lines keyed by `(device, step, i)`.
//!
//! The failure protocol is the redistribution algebra the fault-domain
//! design rests on: when a device dies, its shard for the step is pushed
//! through the survivors round-robin (`survivors[i % k]`). The pooled
//! reduce is a wrapping word-sum — commutative and associative — so the
//! pool's post-step bytes are **identical** to the never-failed run's, no
//! renormalization residue. Detection happens at the step's gradient
//! fence (the [`teco_cxl::FenceDeadline`] watchdog); the detection step
//! redistributes the missed shard *after* that fence and flushes with a
//! second fence; later steps redistribute inline before the single fence.
//! Hot readmission rebuilds the device from nothing but the pooled
//! parameters, after which its content checksum must equal the golden
//! run's (`tests/cluster_device_loss.rs` holds the proofs).

use crate::cluster::{ClusterConfig, ClusterReport, ClusterSession};
use crate::config::TecoConfig;
use crate::session::SessionError;
use serde::{Deserialize, Serialize};
use teco_mem::{LineData, LINE_BYTES};

/// Kill device `device` at the start of step `step` (before the shard
/// flush — the shard never leaves the device).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct KillSpec {
    /// Device index to kill.
    pub device: u64,
    /// Step at whose start the kill fires.
    pub step: u64,
}

/// A watchdog detection observed by the driver.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct ChurnDetection {
    /// Device the watchdog declared down.
    pub device: u64,
    /// Step whose gradient fence detected it.
    pub step: u64,
}

/// A deterministic churn workload: fixed kill schedule, fixed content
/// formulas, byte-reproducible outcome.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ChurnWorkload {
    /// Cluster configuration (devices, watchdog deadline, RAS, ...).
    pub cfg: ClusterConfig,
    /// Training steps to simulate.
    pub steps: u64,
    /// Parameter lines broadcast per step.
    pub param_lines: u64,
    /// Gradient lines per device shard per step.
    pub grad_lines: u64,
    /// Scheduled device kills. Empty = the never-failed golden run.
    pub kills: Vec<KillSpec>,
    /// Steps between a watchdog detection and hot readmission: the device
    /// readmits at the start of step `detection + 1 + readmit_after`.
    /// `None` leaves the cluster at N−1 for the rest of the run.
    pub readmit_after: Option<u64>,
}

impl ChurnWorkload {
    /// A small churn workload over `devices` accelerators: the same shape
    /// as [`crate::cluster::ClusterWorkload::small`] but with formulaic
    /// content so kill runs are comparable to golden runs by checksum.
    pub fn small(devices: usize) -> Self {
        ChurnWorkload {
            cfg: ClusterConfig::new(
                TecoConfig::default().with_act_aft_steps(4).with_giant_cache_bytes(1 << 20),
                devices,
            ),
            steps: 12,
            param_lines: 32,
            grad_lines: 8,
            kills: Vec::new(),
            readmit_after: None,
        }
    }

    /// Builder-style: schedule one kill.
    pub fn with_kill(mut self, device: u64, step: u64) -> Self {
        self.kills.push(KillSpec { device, step });
        self
    }

    /// Builder-style: set the readmission delay.
    pub fn with_readmit_after(mut self, steps: u64) -> Self {
        self.readmit_after = Some(steps);
        self
    }
}

/// What a churn run produces: the cluster report plus the content
/// checksums convergence is judged on (stats and clocks legitimately
/// differ between a churn run and its golden twin — content must not).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ChurnOutcome {
    /// The full cluster report.
    pub report: ClusterReport,
    /// FNV-1a-64 over the pooled optimizer's end state.
    pub pool_checksum: u64,
    /// Per-device giant-cache content checksums.
    pub device_checksums: Vec<u64>,
    /// Watchdog detections, in order.
    pub detections: Vec<ChurnDetection>,
    /// Gradient-line pushes rerouted through survivors.
    pub redistributed_lines: u64,
    /// Typed [`SessionError::DeviceDown`] errors the driver absorbed
    /// (kill-step pushes that hit the dead device before detection).
    pub typed_errors: u64,
}

impl ChurnOutcome {
    /// Content convergence: every byte of training state matches `other`
    /// — the pooled optimizer and every device replica, including a
    /// readmitted one. Timing, wait accounts, and RAS counters are
    /// allowed to differ; parameter bytes are not.
    pub fn content_matches(&self, other: &ChurnOutcome) -> bool {
        self.pool_checksum == other.pool_checksum && self.device_checksums == other.device_checksums
    }
}

/// Parameter line `i` at step `step`: high halves fixed per `(i, word)`
/// for the whole run (DBA-conformant — a 2-byte dirty merge equals the
/// full-line store), low halves a function of the step alone.
pub fn churn_param_line(step: u64, i: u64) -> LineData {
    let mut l = LineData::zeroed();
    for w in 0..(LINE_BYTES / 4) {
        let hi = (0x9E37_0000u32 ^ ((i as u32) << 20) ^ ((w as u32) << 16)) & 0xFFFF_0000;
        let lo = (step as u32).wrapping_mul(0x85EB).wrapping_add(i as u32) & 0xFFFF;
        l.set_word(w, hi | lo);
    }
    l
}

/// Gradient line `i` of device `dev`'s shard at step `step` (full lines —
/// gradients never use DBA).
pub fn churn_grad_line(dev: u64, step: u64, i: u64) -> LineData {
    let mut l = LineData::zeroed();
    for w in 0..(LINE_BYTES / 4) {
        let v = (dev as u32)
            .wrapping_mul(0x9E37_79B9)
            .wrapping_add((step as u32).wrapping_mul(0x85EB_CA6B))
            .wrapping_add((i as u32).wrapping_mul(0xC2B2_AE35))
            .wrapping_add(w as u32);
        l.set_word(w, v);
    }
    l
}

/// Run a churn workload to completion.
///
/// Per step: fire scheduled kills, perform due readmissions, flush every
/// shard (rerouting known-dead devices' shards through the survivors),
/// fence — the watchdog declares newly dead devices here — then
/// redistribute any shard a typed [`SessionError::DeviceDown`] held back
/// and flush it with a second fence, run `check_activation` everywhere,
/// and broadcast the step's parameters.
///
/// Errors the protocol defines as fatal (e.g. a dead device with the
/// watchdog disabled hanging the broadcast) propagate typed; the driver
/// itself never panics on device loss.
pub fn run_churn(w: &ChurnWorkload) -> Result<ChurnOutcome, SessionError> {
    let n = w.cfg.devices;
    let mut cluster = ClusterSession::new(w.cfg.clone())?;
    cluster.alloc_params(w.param_lines)?;
    cluster.alloc_grads(w.grad_lines)?;

    let mut readmit_due: Vec<Option<u64>> = vec![None; n];
    let mut held_shards: Vec<usize> = Vec::new();
    let mut survivors: Vec<usize> = Vec::new();
    let mut detections = Vec::new();
    let mut redistributed_lines = 0u64;
    let mut typed_errors = 0u64;
    let mut param_buf: Vec<LineData> = Vec::with_capacity(w.param_lines as usize);

    for step in 0..w.steps {
        for k in &w.kills {
            if k.step == step {
                cluster.kill_device(k.device as usize);
            }
        }
        for (d, due) in readmit_due.iter_mut().enumerate() {
            if *due == Some(step) {
                cluster.readmit_device(d)?;
                *due = None;
            }
        }

        // Shard flush. A declared-down device's shard reroutes through
        // the survivors up front; an undeclared-dead one surfaces a typed
        // error on its first push and its whole shard is held for the
        // post-detection flush.
        survivors.clear();
        survivors.extend((0..n).filter(|&d| cluster.is_alive(d)));
        held_shards.clear();
        for d in 0..n {
            if cluster.is_detected_down(d) {
                redistribute_shard(&mut cluster, &survivors, d as u64, step, w.grad_lines)?;
                redistributed_lines += w.grad_lines;
                continue;
            }
            let mut held = false;
            for i in 0..w.grad_lines {
                match cluster.push_grad_shard(d, i, churn_grad_line(d as u64, step, i)) {
                    Ok(()) => {}
                    Err(e) => match e.root() {
                        SessionError::DeviceDown { .. } => {
                            typed_errors += 1;
                            held = true;
                            break;
                        }
                        _ => return Err(e),
                    },
                }
            }
            if held {
                held_shards.push(d);
            }
        }

        let newly_down = cluster.fence_grads_all();
        for &d in &newly_down {
            detections.push(ChurnDetection { device: d as u64, step });
            if let Some(after) = w.readmit_after {
                readmit_due[d] = Some(step + 1 + after);
            }
        }

        if !held_shards.is_empty() {
            // The watchdog has now declared the holders dead; reroute
            // their shards and flush with a second fence so the step's
            // reduce is complete before the optimizer runs.
            survivors.clear();
            survivors.extend((0..n).filter(|&d| cluster.is_alive(d)));
            for &dead in &held_shards {
                redistribute_shard(&mut cluster, &survivors, dead as u64, step, w.grad_lines)?;
                redistributed_lines += w.grad_lines;
            }
            cluster.fence_grads_all();
        }

        cluster.check_activation_all();

        param_buf.clear();
        for i in 0..w.param_lines {
            param_buf.push(churn_param_line(step, i));
        }
        cluster.broadcast_params(&param_buf)?;
    }

    let report = cluster.report();
    let device_checksums = report.devices.iter().map(|d| d.device_checksum).collect();
    Ok(ChurnOutcome {
        pool_checksum: report.pool_checksum,
        device_checksums,
        detections,
        redistributed_lines,
        typed_errors,
        report,
    })
}

/// Push dead device `dead`'s step-`step` shard through the survivors
/// round-robin. The wrapping-sum reduce makes the landing order
/// irrelevant: the pool's bytes equal the never-failed run's exactly.
fn redistribute_shard(
    cluster: &mut ClusterSession,
    survivors: &[usize],
    dead: u64,
    step: u64,
    grad_lines: u64,
) -> Result<(), SessionError> {
    if survivors.is_empty() {
        return Err(SessionError::Config(format!(
            "no survivors to absorb device {dead}'s shard: the workload kills every device"
        )));
    }
    for i in 0..grad_lines {
        let via = survivors[(i as usize) % survivors.len()];
        cluster.push_grad_shard(via, i, churn_grad_line(dead, step, i))?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn golden_run_is_reproducible() {
        let w = ChurnWorkload::small(4);
        let a = run_churn(&w).unwrap();
        let b = run_churn(&w).unwrap();
        assert_eq!(
            serde_json::to_string(&a.report).unwrap(),
            serde_json::to_string(&b.report).unwrap()
        );
        assert!(a.detections.is_empty());
        assert_eq!(a.report.down_events, 0);
    }

    #[test]
    fn param_stream_is_dba_conformant() {
        // High halves must not move across steps — that is what lets a
        // 2-byte dirty merge reproduce the full store.
        for i in 0..8 {
            for w in 0..(LINE_BYTES / 4) {
                let a = churn_param_line(0, i).word(w) & 0xFFFF_0000;
                let b = churn_param_line(11, i).word(w) & 0xFFFF_0000;
                assert_eq!(a, b);
            }
        }
        // And distinct lines must differ, or the checksum proves nothing.
        assert_ne!(churn_param_line(3, 0), churn_param_line(3, 1));
    }

    #[test]
    fn killing_every_device_is_a_typed_error() {
        let w = ChurnWorkload::small(2).with_kill(0, 3).with_kill(1, 3);
        let err = run_churn(&w).expect_err("no survivor can absorb the shards");
        assert!(
            matches!(err.root(), SessionError::Config(m) if m.contains("no survivors")),
            "{err}"
        );
    }

    #[test]
    fn kill_without_readmit_converges_at_n_minus_one() {
        let golden = run_churn(&ChurnWorkload::small(4)).unwrap();
        let churn = run_churn(&ChurnWorkload::small(4).with_kill(2, 5)).unwrap();
        assert_eq!(churn.detections, vec![ChurnDetection { device: 2, step: 5 }]);
        assert_eq!(churn.report.down_events, 1);
        assert_eq!(churn.report.readmits, 0);
        assert!(churn.typed_errors >= 1, "kill-step push must fail typed");
        assert_eq!(
            churn.pool_checksum, golden.pool_checksum,
            "redistribution must preserve the pooled reduce bit-exactly"
        );
        // Survivors' replicas match golden; the dead device's does not.
        for d in [0usize, 1, 3] {
            assert_eq!(churn.device_checksums[d], golden.device_checksums[d]);
        }
        assert_ne!(churn.device_checksums[2], golden.device_checksums[2]);
    }

    #[test]
    fn readmitted_device_reconverges_bit_identically() {
        let golden = run_churn(&ChurnWorkload::small(4)).unwrap();
        let churn =
            run_churn(&ChurnWorkload::small(4).with_kill(1, 4).with_readmit_after(2)).unwrap();
        assert_eq!(churn.report.down_events, 1);
        assert_eq!(churn.report.readmits, 1);
        assert!(
            churn.content_matches(&golden),
            "hot-readmitted cluster must converge to the never-failed run: \
             pool {:#x} vs {:#x}, devices {:x?} vs {:x?}",
            churn.pool_checksum,
            golden.pool_checksum,
            churn.device_checksums,
            golden.device_checksums
        );
    }
}
