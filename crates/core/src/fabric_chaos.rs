//! Fabric chaos workloads: host loss, staging-media faults, and
//! deadline-driven degradation injected into the multi-host training
//! fabric of [`crate::fabric`].
//!
//! The plain fabric assumes every host survives every all-reduce. A chaos
//! workload drops that assumption the same way [`crate::churn`] did for
//! devices inside one host: a deterministic kill schedule fires at a
//! chosen chunk boundary of a chosen step's collective, the collective
//! deadline watchdog converts the silence into a typed
//! [`teco_cxl::CollectiveError::HostDown`], and [`FabricDriver`] walks the
//! degradation ladder — per-chunk checksummed retry (inside
//! [`teco_cxl::PoolCollective`]), survivor regroup (quarantine + H→H−1,
//! bit-identical to a never-failed H−1 fabric), and the ring fallback
//! under RAS retirement pressure — then hot-readmits the lost host.
//!
//! Two structural anchors keep the harness honest:
//!
//! - one driver and one all-reduce engine run every workload, so a
//!   zero-fault, no-kill chaos run's report is **byte-identical** to the
//!   plain fabric path;
//! - the all-reduce is suspendable at any chunk boundary
//!   ([`run_fabric_chaos_resumed`]): the whole fabric — hosts, engine,
//!   and the in-flight op — round-trips through the serialized snapshot
//!   envelope and finishes bit-identically.

use crate::fabric::{FabricDriver, FabricError, FabricReport, FabricWorkload};
use crate::resume::{RunOutcome, StepBoundary, StepDriver};
use serde::{Deserialize, Serialize};
use teco_cxl::{CollectiveFaultConfig, CollectiveFaultStats, CollectivePhase, RasConfig, RasStats};
use teco_sim::{decode_snapshot, encode_snapshot, SnapshotError};

/// A scheduled host kill: the host stops responding at chunk boundary
/// `chunk` of phase `phase` of step `step`'s all-reduce.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct HostKillSpec {
    /// Host to kill.
    pub host: u64,
    /// Training step whose collective the kill fires in.
    pub step: u64,
    /// Collective phase the kill fires in.
    pub phase: CollectivePhase,
    /// Flat chunk index (within the phase) at which the host goes
    /// silent; clamped to the phase's last item if out of range.
    pub chunk: u64,
}

/// A chunk boundary of one step's collective — where
/// [`run_fabric_chaos_resumed`] suspends, serializes, and restores the
/// whole fabric mid-all-reduce.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct ChunkPoint {
    /// Training step of the targeted collective.
    pub step: u64,
    /// Phase within the collective.
    pub phase: CollectivePhase,
    /// Flat chunk index within the phase.
    pub chunk: u64,
}

/// A deterministic fabric chaos workload: fixed kill schedule, fixed
/// fault posture, byte-reproducible outcome.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct FabricChaosWorkload {
    /// The fabric under test.
    pub fabric: FabricWorkload,
    /// Collective fault posture (port faults, retry budget, watchdog
    /// deadline, staging-media RAS, ring-fallback threshold).
    pub faults: CollectiveFaultConfig,
    /// Scheduled host kill. `None` = the never-failed golden run.
    pub kill: Option<HostKillSpec>,
    /// Steps between a watchdog detection and hot readmission: the host
    /// readmits at the start of step `detection + 1 + readmit_after`.
    /// `None` leaves the fabric at H−1 for the rest of the run.
    pub readmit_after: Option<u64>,
}

impl FabricChaosWorkload {
    /// A small chaos workload over [`FabricWorkload::small`], fault
    /// machinery armed but quiet (no kill, no port faults, no RAS).
    pub fn small(hosts: usize, devices: usize, seed: u64) -> Self {
        FabricChaosWorkload {
            fabric: FabricWorkload::small(hosts, devices, seed),
            faults: CollectiveFaultConfig { seed, ..CollectiveFaultConfig::off() },
            kill: None,
            readmit_after: None,
        }
    }

    /// Schedule a host kill.
    pub fn with_kill(mut self, kill: HostKillSpec) -> Self {
        self.kill = Some(kill);
        self
    }

    /// Readmit the killed host `after` full steps past its detection.
    pub fn with_readmit_after(mut self, after: u64) -> Self {
        self.readmit_after = Some(after);
        self
    }

    /// Arm transient pool-port faults at the given per-chunk rate.
    pub fn with_port_fault_rate(mut self, rate: f64) -> Self {
        self.faults.port_fault_rate = rate;
        self
    }

    /// Arm staging-media RAS with the given fault arrival rate.
    pub fn with_media_faults(mut self, per_tick: f64) -> Self {
        self.faults.ras = RasConfig {
            media_faults_per_tick: per_tick,
            scrub_lines_per_tick: 8,
            spare_lines: 32,
            seed: self.faults.seed,
        };
        self
    }

    /// Arm the ring fallback at the given retired-line threshold.
    pub fn with_ring_fallback(mut self, retired_lines: u64) -> Self {
        self.faults.ring_fallback_retired_lines = retired_lines;
        self
    }

    pub(crate) fn validate(&self) -> Result<(), FabricError> {
        if let Some(k) = &self.kill {
            if k.host as usize >= self.fabric.hosts {
                return Err(FabricError::Config(format!(
                    "kill targets host {} of {}",
                    k.host, self.fabric.hosts
                )));
            }
            if k.step >= self.fabric.base.steps {
                return Err(FabricError::Config(format!(
                    "kill step {} out of range {}",
                    k.step, self.fabric.base.steps
                )));
            }
        }
        Ok(())
    }
}

/// A watchdog detection observed by the harness.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct ChaosDetection {
    /// Host the watchdog declared lost.
    pub host: u64,
    /// Training step the loss surfaced in.
    pub step: u64,
    /// Collective phase detection fired in.
    pub phase: CollectivePhase,
    /// Flat chunk index at detection.
    pub chunk: u64,
    /// Simulated time of the declaration, in nanoseconds.
    pub time_ns: u64,
}

/// The chaos run's observable result. Serializing this to JSON is the
/// byte-identity oracle for the mid-collective resume path, and the
/// per-step gradient checksums are the regroup oracle: after a kill at
/// step `s`, `step_grad_checksums[s..]` of an H-host run equal the
/// never-failed (H−1)-host run's.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FabricChaosOutcome {
    /// The fabric report (dead hosts report their last pre-kill state).
    pub report: FabricReport,
    /// Watchdog detections, in order.
    pub detections: Vec<ChaosDetection>,
    /// FNV-1a-64 of each step's globally reduced gradient.
    pub step_grad_checksums: Vec<u64>,
    /// FNV-1a-64 folded over every broadcast parameter line, in step
    /// order — the "final parameters" identity anchor.
    pub param_checksum: u64,
    /// Per-host, per-device giant-cache content checksums — the
    /// readmission convergence anchor.
    pub device_checksums: Vec<Vec<u64>>,
    /// Hosts alive at the end of the run.
    pub live_hosts: u64,
    /// Survivor regroups performed (ladder rung 2).
    pub regroups: u64,
    /// Hot host readmissions performed.
    pub readmissions: u64,
    /// Typed collective errors the harness absorbed.
    pub typed_errors: u64,
    /// Collective fault/recovery counters.
    pub fstats: CollectiveFaultStats,
    /// Staging-media RAS counters.
    pub ras: RasStats,
    /// Corrupted bytes that reached a reduction — structurally zero;
    /// measured, not assumed.
    pub poisoned_admitted: u64,
}

/// Run the chaos workload start to finish.
pub fn run_fabric_chaos(
    w: &FabricChaosWorkload,
) -> Result<RunOutcome<FabricChaosOutcome>, FabricError> {
    run_chaos(w, None)
}

/// Run the chaos workload, suspend the whole fabric at chunk boundary
/// `at` **inside** that step's all-reduce, round-trip every host, the
/// collective engine, and the in-flight op through the serialized
/// snapshot envelope, and finish. The returned `report` must serialize
/// byte-identical to [`run_fabric_chaos`]'s.
pub fn run_fabric_chaos_resumed(
    w: &FabricChaosWorkload,
    at: ChunkPoint,
) -> Result<RunOutcome<FabricChaosOutcome>, FabricError> {
    run_chaos(w, Some(at))
}

fn run_chaos(
    w: &FabricChaosWorkload,
    suspend: Option<ChunkPoint>,
) -> Result<RunOutcome<FabricChaosOutcome>, FabricError> {
    let mut d = FabricDriver::chaos(w)?;
    let (mut snapshots, mut snapshot_bytes) = (0, 0);
    while d.step() < w.fabric.base.steps {
        let Some(at) = suspend.filter(|at| at.step == d.step()) else {
            d.run_step()?;
            continue;
        };
        if d.run_step_until_chunk(at)? {
            let bytes = encode_snapshot(&d.capture());
            (snapshots, snapshot_bytes) = (1, bytes.len() as u64);
            drop(d);
            let snap = decode_snapshot(&bytes)
                .map_err(|e: SnapshotError| FabricError::Config(e.to_string()))?;
            d = FabricDriver::restore(&snap)?;
        }
        d.finish_step_from(StepBoundary::AfterGradFence)?;
    }
    let report = d.report();
    let fstats = d.collective().fault_stats();
    Ok(RunOutcome {
        report: FabricChaosOutcome {
            device_checksums: report
                .host_reports
                .iter()
                .map(|hr| hr.devices.iter().map(|dv| dv.device_checksum).collect())
                .collect(),
            live_hosts: d.live_hosts(),
            regroups: d.detections().len() as u64,
            readmissions: fstats.readmissions,
            typed_errors: d.detections().len() as u64,
            ras: d.collective().ras_stats(),
            poisoned_admitted: fstats.poisoned_admitted,
            fstats,
            detections: d.detections().to_vec(),
            step_grad_checksums: d.step_grad_checksums().to_vec(),
            param_checksum: d.param_checksum(),
            report,
        },
        snapshots_taken: snapshots,
        restores: snapshots,
        snapshot_bytes,
        last_audit_error: d.audit_status(),
    })
}
