//! Pool-staged inter-host collectives and the point-to-point ring baseline.
//!
//! When H hosts share one switched CXL memory pool, the pool itself can be
//! the collective fabric (CCCL, PAPERS.md): every host's gradient already
//! lands in its pool-resident staging region as part of the training step,
//! so an all-reduce needs only **one staged write plus direct reads of the
//! peers' regions** — no per-hop store-and-forward. [`PoolCollective`]
//! models that datapath as one fused all-reduce in two phases:
//!
//! - reduce-scatter: host `h` reads shard `h` of every peer's staged
//!   gradient ((H−1)·G/H port-bytes) and folds it with the chunked
//!   wrapping-add kernel ([`crate::dba::kernels::reduce_sum_run`]);
//! - all-gather: host `h` writes its reduced shard once — overlapped on
//!   the write direction of the full-duplex port, trailing the read
//!   stream by one chunk — and the gather reads of the H−1 peer shards
//!   continue on the same read stream. Total port traffic is (2H−1)·G
//!   versus the ring's 4(H−1)·G endpoint-port bytes.
//!
//! The engine walks that schedule one chunk at a time ([`CollectiveOp`]),
//! so a host loss can land at any chunk boundary and an op can be
//! snapshotted mid-flight. The walk counts each host's stream bytes and
//! prices them with one transfer time per stream, so a fault-free op times
//! exactly like the fused closed form; fault delays (replay backoff, media
//! re-reads) add to the affected host's stream.
//!
//! The pool media (its DRAM channels) is a shared resource behind the
//! per-host ports, arbitrated by a [`HostLinkArbiter`] with one account
//! per host port. Gather-phase reads of the same reduced shard by H−1
//! hosts are charged to the media **once** ([`HostLinkArbiter::charge_fanin`]):
//! the switched pool multicasts one DRAM read to every requesting port,
//! the dual of the update-mode broadcast fan-out inside one host.
//!
//! [`ring_all_reduce`] is the baseline: an NCCL-style ring over modeled
//! point-to-point links, 2(H−1) bulk-synchronous steps each moving G/H
//! bytes per link with a per-hop latency. Link-bytes use endpoint-port
//! accounting — every hop consumes the sender's egress *and* the
//! receiver's ingress port, whereas a pool access traverses exactly one
//! host↔pool port (the pool is switched memory, not a peer NIC).
//!
//! Both paths reduce with wrapping `u32` addition, which is commutative
//! and associative — pool shard order and ring hop order produce
//! bit-identical sums, and the tests assert exactly that.

use crate::arbiter::{HostLinkArbiter, HostLinkArbiterSnapshot};
use crate::dba::kernels;
use crate::fault::line_checksum;
use crate::fence::FenceDeadline;
use crate::ras::{MediaRas, MediaRasSnapshot, RasConfig, RasStats};
use serde::{Deserialize, Serialize};
use std::fmt;
use std::ops::Range;
use teco_sim::{Bandwidth, SimRng, SimTime};

/// Typed failure of a collective operation. Carries host/chunk/time
/// context so the fabric layer can log, quarantine, and regroup without
/// string-parsing — and so no kill point inside an operation ever
/// panics.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CollectiveError {
    /// A configuration is unusable (non-positive bandwidth, zero hosts,
    /// sub-line chunks, mismatched snapshot shapes, ...).
    Config(String),
    /// Operand shape mismatch: the caller handed the wrong number of
    /// buffers/ready times, unequal buffer lengths, or a non-word size.
    Shape {
        /// What was being checked.
        what: &'static str,
        /// Expected count/size.
        expect: u64,
        /// Observed count/size.
        got: u64,
    },
    /// A host stopped responding mid-collective; the deadline watchdog
    /// declared it dead at a chunk boundary.
    HostDown {
        /// The host the watchdog declared lost.
        host: u64,
        /// Phase the loss was detected in.
        phase: CollectivePhase,
        /// Flat chunk index (within the phase) at which detection fired.
        chunk: u64,
        /// Simulated time of the declaration, in nanoseconds.
        time_ns: u64,
    },
    /// A chunk transfer kept failing its checksum past the retry budget.
    RetryExhausted {
        /// Host whose port kept faulting.
        host: u64,
        /// Flat chunk index of the failing transfer.
        chunk: u64,
        /// Replay attempts consumed.
        attempts: u32,
        /// Simulated time the budget ran out, in nanoseconds.
        time_ns: u64,
    },
    /// Every host is quarantined — there is nobody left to reduce.
    NoSurvivors {
        /// Simulated time of the attempt, in nanoseconds.
        time_ns: u64,
    },
}

impl fmt::Display for CollectiveError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CollectiveError::Config(msg) => write!(f, "collective config error: {msg}"),
            CollectiveError::Shape { what, expect, got } => {
                write!(f, "collective operand mismatch: {what} expected {expect}, got {got}")
            }
            CollectiveError::HostDown { host, phase, chunk, time_ns } => write!(
                f,
                "host {host} lost in {phase:?} at chunk {chunk} (declared at {time_ns} ns)"
            ),
            CollectiveError::RetryExhausted { host, chunk, attempts, time_ns } => write!(
                f,
                "host {host} chunk {chunk}: checksum retry budget exhausted \
                 after {attempts} attempts at {time_ns} ns"
            ),
            CollectiveError::NoSurvivors { time_ns } => {
                write!(f, "no surviving hosts to run the collective at {time_ns} ns")
            }
        }
    }
}

impl std::error::Error for CollectiveError {}

/// Tuning knobs for both the pool-staged collectives and the ring
/// baseline. Defaults model the paper's platform: the host↔pool port is
/// the 15.088 GB/s effective CXL link, the ring NIC is 100 GbE
/// (12.5 GB/s), and the pool media is a multi-channel DDR5 box that can
/// feed all eight ports at once.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct CollectiveConfig {
    /// Hosts sharing the pool (H ≥ 1; H = 1 collectives are no-ops).
    pub hosts: usize,
    /// Per-host host↔pool port bandwidth (full duplex).
    pub pool_port_gb_per_sec: f64,
    /// Aggregate pool DRAM bandwidth shared by all ports.
    pub pool_media_gb_per_sec: f64,
    /// Per-link bandwidth of the ring baseline's point-to-point NICs.
    pub ring_link_gb_per_sec: f64,
    /// Pool phase-barrier latency (doorbell + visibility ordering).
    pub pool_phase_latency_ns: u64,
    /// Per-hop latency of a ring step (NIC + switch traversal).
    pub ring_hop_latency_ns: u64,
    /// Pipelining granule of the fused all-reduce: the reduced-shard
    /// writeback trails the read stream by one chunk.
    pub chunk_bytes: u64,
}

impl CollectiveConfig {
    /// The default platform model for `hosts` hosts.
    pub fn for_hosts(hosts: usize) -> Self {
        CollectiveConfig {
            hosts,
            pool_port_gb_per_sec: 15.088,
            pool_media_gb_per_sec: 256.0,
            ring_link_gb_per_sec: 12.5,
            pool_phase_latency_ns: 500,
            ring_hop_latency_ns: 1_500,
            chunk_bytes: 256 * 1024,
        }
    }

    /// Reject unusable configurations with a typed error instead of a
    /// panic, so snapshot decoding and harness plumbing stay
    /// kill-safe.
    pub fn validate(&self) -> Result<(), CollectiveError> {
        if self.hosts < 1 {
            return Err(CollectiveError::Config("collective needs at least one host".into()));
        }
        for (name, v) in [
            ("pool_port_gb_per_sec", self.pool_port_gb_per_sec),
            ("pool_media_gb_per_sec", self.pool_media_gb_per_sec),
            ("ring_link_gb_per_sec", self.ring_link_gb_per_sec),
        ] {
            if !(v.is_finite() && v > 0.0) {
                return Err(CollectiveError::Config(format!(
                    "{name} must be finite and positive, got {v}"
                )));
            }
        }
        if self.chunk_bytes < 64 {
            return Err(CollectiveError::Config(format!(
                "chunk_bytes must be at least one line, got {}",
                self.chunk_bytes
            )));
        }
        Ok(())
    }

    fn port(&self) -> Bandwidth {
        Bandwidth::from_gb_per_sec(self.pool_port_gb_per_sec)
    }
    fn media(&self) -> Bandwidth {
        Bandwidth::from_gb_per_sec(self.pool_media_gb_per_sec)
    }
    fn ring(&self) -> Bandwidth {
        Bandwidth::from_gb_per_sec(self.ring_link_gb_per_sec)
    }
    fn phase_latency(&self) -> SimTime {
        SimTime::from_ns(self.pool_phase_latency_ns)
    }
    fn hop_latency(&self) -> SimTime {
        SimTime::from_ns(self.ring_hop_latency_ns)
    }
}

/// Byte range of host `h`'s shard of a `total_bytes` gradient split
/// across `hosts` hosts at FP32-word granularity: the first
/// `total_words % hosts` shards take one extra word. Both the pool
/// collectives and the ring baseline partition with this, so their
/// reduction segments line up exactly.
pub fn shard_range(total_bytes: usize, hosts: usize, h: usize) -> Range<usize> {
    assert!(h < hosts, "shard index out of range");
    assert_eq!(total_bytes % 4, 0, "gradients are whole FP32 words");
    let words = total_bytes / 4;
    let base = words / hosts;
    let rem = words % hosts;
    let start = h * base + h.min(rem);
    let len = base + usize::from(h < rem);
    4 * start..4 * (start + len)
}

/// Cumulative operation counters of a [`PoolCollective`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct CollectiveStats {
    /// All-reduce operations completed.
    pub all_reduces: u64,
    /// Total host↔pool port bytes moved (both directions, all hosts).
    pub port_bytes: u64,
    /// Total pool-DRAM bytes served (after fan-in dedup).
    pub media_bytes: u64,
}

/// Modeled result of one pool-staged collective operation.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CollectiveOutcome {
    /// Participating hosts.
    pub hosts: u64,
    /// Gradient bytes contributed per host.
    pub bytes_per_host: u64,
    /// When the operation's entry barrier passed (latest host ready).
    pub start: SimTime,
    /// When the last host held its full result.
    pub completion: SimTime,
    /// Per-host completion times.
    pub per_host_done: Vec<SimTime>,
    /// Host↔pool port bytes this operation moved (all hosts, both
    /// directions).
    pub port_bytes: u64,
    /// Pool-DRAM bytes served (gather fan-in deduplicated).
    pub media_bytes: u64,
    /// Media bytes the gather fan-in avoided re-reading.
    pub fanin_saved_bytes: u64,
}

impl CollectiveOutcome {
    fn noop(hosts: u64, bytes: u64, at: SimTime) -> Self {
        CollectiveOutcome {
            hosts,
            bytes_per_host: bytes,
            start: at,
            completion: at,
            per_host_done: vec![at; hosts as usize],
            port_bytes: 0,
            media_bytes: 0,
            fanin_saved_bytes: 0,
        }
    }
}

/// The pool-staged all-reduce engine: per-host port timelines over a
/// media budget arbitrated by a [`HostLinkArbiter`] (one account per host
/// port), with the fault posture of [`CollectiveFaultConfig`]:
/// kill-injectable host loss at every chunk boundary, per-chunk
/// checksummed retry with seeded backoff on transient port faults,
/// pool-media RAS over the staging regions (detected faults are re-served
/// from the source replica — poison never reaches the sum), and the
/// three-rung degradation ladder: chunk retry → survivor regroup (the
/// caller quarantines the lost host and begins again over H−1,
/// bit-identical to a never-failed H−1 run) → ring fallback once RAS
/// retirement pressure crosses the configured threshold.
#[derive(Debug, Clone)]
pub struct PoolCollective {
    cfg: CollectiveConfig,
    media: HostLinkArbiter,
    stats: CollectiveStats,
    fcfg: CollectiveFaultConfig,
    port_rng: SimRng,
    ras: MediaRas,
    spares_left: u64,
    down: Vec<bool>,
    fstats: CollectiveFaultStats,
}

impl PoolCollective {
    /// A fault-free engine over `cfg.hosts` pool ports.
    pub fn new(cfg: CollectiveConfig) -> Result<Self, CollectiveError> {
        Self::with_faults(cfg, CollectiveFaultConfig::off())
    }

    /// An engine over `cfg.hosts` pool ports with fault posture `fcfg`.
    pub fn with_faults(
        cfg: CollectiveConfig,
        fcfg: CollectiveFaultConfig,
    ) -> Result<Self, CollectiveError> {
        cfg.validate()?;
        fcfg.validate()?;
        Ok(PoolCollective {
            media: HostLinkArbiter::new(cfg.media(), cfg.hosts),
            stats: CollectiveStats::default(),
            port_rng: SimRng::seed_from_u64(fcfg.seed).fork("collective.port-faults"),
            ras: MediaRas::with_label(fcfg.ras, "collective.staging"),
            spares_left: fcfg.ras.spare_lines,
            down: vec![false; cfg.hosts],
            fstats: CollectiveFaultStats::default(),
            cfg,
            fcfg,
        })
    }

    /// The configuration this engine models.
    pub fn config(&self) -> &CollectiveConfig {
        &self.cfg
    }
    /// Cumulative operation counters.
    pub fn stats(&self) -> CollectiveStats {
        self.stats
    }
    /// The pool-media arbiter (per-host-port accounts, fan-in counters).
    pub fn media(&self) -> &HostLinkArbiter {
        &self.media
    }
    /// Fault/recovery counters.
    pub fn fault_stats(&self) -> CollectiveFaultStats {
        self.fstats
    }
    /// Staging-media RAS counters.
    pub fn ras_stats(&self) -> RasStats {
        *self.ras.stats()
    }
    /// Is this host quarantined?
    pub fn is_down(&self, host: usize) -> bool {
        self.down[host]
    }

    /// Quarantine a lost host: drop it from future ops and park its
    /// media-arbiter account.
    pub fn quarantine_host(&mut self, host: usize) {
        if !self.down[host] {
            self.down[host] = true;
            self.media.quarantine_device(host);
            self.fstats.hosts_lost += 1;
        }
    }

    /// Readmit a quarantined host into future ops.
    pub fn readmit_host(&mut self, host: usize) {
        if self.down[host] {
            self.down[host] = false;
            self.media.readmit_device(host);
            self.fstats.readmissions += 1;
        }
    }

    /// The fused all-reduce over the live hosts, run to completion:
    /// every live host's buffer ends up holding the global sum, reduced
    /// in place (quarantined hosts' buffers are left alone). Port traffic
    /// totals (2H−1)·G across hosts; the gather fan-in costs the media
    /// only G.
    pub fn all_reduce(
        &mut self,
        bufs: &mut [Vec<u8>],
        ready: &[SimTime],
    ) -> Result<CollectiveOutcome, CollectiveError> {
        let mut op = self.begin_all_reduce(bufs, ready)?;
        let mut walked = Ok(false);
        while let Ok(false) = walked {
            walked = self.step_chunk(&mut op, None);
        }
        if walked.is_ok() && op.live.len() > 1 {
            for buf in op.inputs.iter_mut() {
                for (i, red) in op.reduced.iter().enumerate() {
                    buf[shard_range(op.g as usize, op.live.len(), i)].copy_from_slice(red);
                }
            }
        }
        op.release_inputs(bufs);
        walked?;
        op.outcome.ok_or_else(|| CollectiveError::Config("collective op is not complete".into()))
    }

    /// Start a fused all-reduce over the currently live hosts. `staged`
    /// and `ready` are full-length (one slot per configured host); the op
    /// takes the live hosts' buffers out of `staged` (hand them back with
    /// [`CollectiveOp::release_inputs`]) and ignores quarantined hosts'
    /// entries. Runs RAS maintenance (fault arrival + patrol scrub) over
    /// the staging regions and decides the ring-fallback rung before any
    /// chunk moves.
    pub fn begin_all_reduce(
        &mut self,
        staged: &mut [Vec<u8>],
        ready: &[SimTime],
    ) -> Result<CollectiveOp, CollectiveError> {
        let hosts = self.cfg.hosts;
        if staged.len() != hosts {
            return Err(CollectiveError::Shape {
                what: "host buffers",
                expect: hosts as u64,
                got: staged.len() as u64,
            });
        }
        if ready.len() != hosts {
            return Err(CollectiveError::Shape {
                what: "ready times",
                expect: hosts as u64,
                got: ready.len() as u64,
            });
        }
        let live: Vec<u64> = (0..hosts as u64).filter(|&h| !self.down[h as usize]).collect();
        if live.is_empty() {
            let at = ready.iter().copied().fold(SimTime::ZERO, SimTime::max);
            return Err(CollectiveError::NoSurvivors { time_ns: at.as_ns() });
        }
        let g = live.iter().map(|&h| staged[h as usize].len() as u64).max().unwrap_or(0);
        for &h in &live {
            let len = staged[h as usize].len() as u64;
            if len != g {
                return Err(CollectiveError::Shape { what: "buffer bytes", expect: g, got: len });
            }
        }
        if !g.is_multiple_of(4) {
            return Err(CollectiveError::Shape {
                what: "whole FP32 words",
                expect: g / 4 * 4,
                got: g,
            });
        }

        self.ras_maintenance(g);
        let via_ring = self.fcfg.ring_fallback_retired_lines > 0
            && self.ras.stats().lines_retired >= self.fcfg.ring_fallback_retired_lines;

        let n = live.len();
        let inputs: Vec<Vec<u8>> =
            live.iter().map(|&h| std::mem::take(&mut staged[h as usize])).collect();
        let start = live.iter().map(|&h| ready[h as usize]).fold(SimTime::ZERO, SimTime::max);
        let mut op = CollectiveOp {
            g,
            reduced: Vec::new(),
            phase: CollectivePhase::ReduceScatter,
            flat: 0,
            cur_shard: 0,
            cur_chunk: 0,
            start,
            clocks: vec![start + self.cfg.phase_latency(); n],
            read_bytes: vec![0; n],
            media_reads: vec![0; n],
            write_done: SimTime::ZERO,
            via_ring,
            outcome: None,
            live,
            inputs,
        };
        if n == 1 {
            // A lone survivor already holds the sum: no data moves and
            // the arbiter is not touched.
            self.stats.all_reduces += 1;
            op.outcome = Some(CollectiveOutcome::noop(1, g, start));
            return Ok(op);
        }
        op.reduced = (0..n).map(|i| op.inputs[i][shard_range(g as usize, n, i)].to_vec()).collect();
        Ok(op)
    }

    /// Advance the op by one chunk item (or one phase transition).
    /// Returns `Ok(true)` when the op is complete. A kill injected at
    /// the current chunk boundary surfaces as
    /// [`CollectiveError::HostDown`] after the watchdog's modeled wait —
    /// the caller quarantines the host and begins again over the
    /// survivors (ladder rung 2).
    pub fn step_chunk(
        &mut self,
        op: &mut CollectiveOp,
        kill: Option<&HostKill>,
    ) -> Result<bool, CollectiveError> {
        if op.outcome.is_some() {
            return Ok(true);
        }
        let chunk_bytes = self.cfg.chunk_bytes;

        if let Some(k) = kill {
            if op.live.contains(&k.host) {
                let fires = if op.via_ring {
                    true
                } else if k.phase == op.phase {
                    let items = op.items_per_phase(chunk_bytes);
                    items > 0 && op.flat >= k.chunk.min(items - 1)
                } else {
                    false
                };
                if fires {
                    return Err(self.declare_host_down(op, k.host));
                }
            }
        }

        if op.via_ring {
            return self.run_ring_fallback(op);
        }

        let n = op.live.len();
        // Skip zero-length shards (more hosts than words).
        while (op.cur_shard as usize) < n
            && op.shard_chunks(op.cur_shard as usize, chunk_bytes) == 0
        {
            op.cur_shard += 1;
        }
        if op.cur_shard as usize == n {
            match op.phase {
                CollectivePhase::ReduceScatter => {
                    self.finish_reduce_phase(op);
                    return Ok(false);
                }
                CollectivePhase::AllGather => {
                    self.finish_gather_phase(op);
                    return Ok(true);
                }
            }
        }

        match op.phase {
            CollectivePhase::ReduceScatter => self.reduce_chunk(op)?,
            CollectivePhase::AllGather => self.gather_chunk(op)?,
        }

        op.cur_chunk += 1;
        if op.cur_chunk >= op.shard_chunks(op.cur_shard as usize, chunk_bytes) {
            op.cur_shard += 1;
            op.cur_chunk = 0;
        }
        op.flat += 1;
        Ok(false)
    }

    /// Reject an op (typically one decoded from a snapshot) whose shape
    /// does not match this engine, so a restored op can never index out
    /// of bounds mid-walk.
    pub fn check_op(&self, op: &CollectiveOp) -> Result<(), CollectiveError> {
        let bad = |msg: String| Err(CollectiveError::Config(format!("in-flight op: {msg}")));
        let n = op.live.len();
        if op.outcome.is_some() || n < 2 {
            return bad(format!("complete or single-host op ({n} live) cannot be in flight"));
        }
        if op.live.windows(2).any(|w| w[0] >= w[1]) {
            return bad(format!("live hosts {:?} not ascending", op.live));
        }
        if let Some(&h) =
            op.live.iter().find(|&&h| h as usize >= self.cfg.hosts || self.down[h as usize])
        {
            return bad(format!("live host {h} is out of range or down"));
        }
        for (what, len) in [
            ("inputs", op.inputs.len()),
            ("reduced", op.reduced.len()),
            ("clocks", op.clocks.len()),
            ("read_bytes", op.read_bytes.len()),
            ("media_reads", op.media_reads.len()),
        ] {
            if len != n {
                return bad(format!("{what} has {len} entries for {n} live hosts"));
            }
        }
        if !op.g.is_multiple_of(4) {
            return bad(format!("{} gradient bytes are not whole FP32 words", op.g));
        }
        if let Some(b) = op.inputs.iter().find(|b| b.len() as u64 != op.g) {
            return bad(format!("input buffer of {} bytes, op reduces {}", b.len(), op.g));
        }
        for (i, r) in op.reduced.iter().enumerate() {
            if r.len() as u64 != range_len(op.g, n, i) {
                return bad(format!("shard {i} accumulator of {} bytes", r.len()));
            }
        }
        let shard = op.cur_shard as usize;
        if shard > n
            || (shard < n && op.cur_chunk >= op.shard_chunks(shard, self.cfg.chunk_bytes).max(1))
        {
            return bad(format!("cursor at shard {shard} chunk {}", op.cur_chunk));
        }
        Ok(())
    }

    /// Checkpoint image of the engine (not of any in-flight op — the op
    /// itself is serializable and travels separately).
    pub fn snapshot(&self) -> PoolCollectiveSnapshot {
        PoolCollectiveSnapshot {
            cfg: self.cfg,
            media: self.media.snapshot(),
            stats: self.stats,
            fcfg: self.fcfg,
            port_rng: self.port_rng.state(),
            ras: self.ras.snapshot(),
            spares_left: self.spares_left,
            down: self.down.clone(),
            fstats: self.fstats,
        }
    }

    /// Rebuild an engine from a snapshot; subsequent chunks fault, time,
    /// and account identically to the original.
    pub fn restore(s: &PoolCollectiveSnapshot) -> Result<Self, CollectiveError> {
        s.cfg.validate()?;
        s.fcfg.validate()?;
        if s.down.len() != s.cfg.hosts || s.media.n != s.cfg.hosts as u64 {
            return Err(CollectiveError::Config(format!(
                "snapshot has {} quarantine flags and {} media accounts, config has {} hosts",
                s.down.len(),
                s.media.n,
                s.cfg.hosts
            )));
        }
        Ok(PoolCollective {
            cfg: s.cfg,
            media: HostLinkArbiter::restore(&s.media),
            stats: s.stats,
            fcfg: s.fcfg,
            port_rng: SimRng::from_state(s.port_rng),
            ras: MediaRas::from_snapshot(&s.ras),
            spares_left: s.spares_left,
            down: s.down.clone(),
            fstats: s.fstats,
        })
    }

    /// Lines one host's staging region occupies.
    fn lines_per_host(&self, g: u64) -> u64 {
        g.div_ceil(64)
    }

    /// RAS fault arrival + patrol scrub over all staging regions, with
    /// retirement against the spare-line budget.
    fn ras_maintenance(&mut self, g: u64) {
        if self.fcfg.ras.is_off() {
            return;
        }
        let mapped = self.cfg.hosts as u64 * self.lines_per_host(g);
        if mapped == 0 {
            return;
        }
        self.ras.tick(mapped);
        let mut found = Vec::new();
        self.ras.scrub(mapped, &mut found);
        for _line in found {
            self.retire_line();
        }
    }

    fn retire_line(&mut self) {
        if self.spares_left > 0 {
            self.spares_left -= 1;
            self.ras.note_retired(true);
        } else {
            self.ras.note_retired(false);
        }
    }

    /// RAS check over the staged lines a chunk read touches. Returns
    /// true when any line faulted: the chunk is re-served from the
    /// source replica (the fault never reaches the data path).
    fn media_check_chunk(&mut self, host: u64, g: u64, range: &Range<usize>) -> bool {
        if self.fcfg.ras.is_off() || range.is_empty() {
            return false;
        }
        let base = host * self.lines_per_host(g);
        let first = base + range.start as u64 / 64;
        let last = base + (range.end as u64 - 1) / 64;
        let mut faulted = false;
        for line in first..=last {
            if self.ras.check_access(line) {
                self.fstats.media_detections += 1;
                self.retire_line();
                faulted = true;
            }
        }
        faulted
    }

    /// A chunk read over a fault-prone port: Bernoulli corruption per
    /// delivery, caught by the Fletcher-16 chunk checksum, replayed
    /// after seeded backoff up to the retry budget. The backoff delays
    /// the reading host's stream `clock`; `streamed` is the stream's
    /// byte count so far (for the exhaustion timestamp).
    fn faulted_read(
        &mut self,
        chunk: &[u8],
        host: u64,
        flat: u64,
        clock: &mut SimTime,
        streamed: u64,
    ) -> Result<(), CollectiveError> {
        if self.fcfg.port_fault_rate <= 0.0 || chunk.is_empty() {
            return Ok(());
        }
        let posted = line_checksum(chunk);
        let mut attempts = 0u32;
        while self.port_rng.bernoulli(self.fcfg.port_fault_rate) {
            self.fstats.port_faults += 1;
            let mut delivered = chunk.to_vec();
            let idx = self.port_rng.index(delivered.len());
            delivered[idx] ^= 0x5A;
            if line_checksum(&delivered) == posted {
                // Structurally unreachable: Fletcher-16 catches every
                // single-byte flip. Counted so the zero-poison gate is a
                // measurement, not an assumption.
                self.fstats.poisoned_admitted += 1;
            } else {
                self.fstats.checksum_detects += 1;
            }
            attempts += 1;
            if attempts > self.fcfg.retry_limit {
                return Err(CollectiveError::RetryExhausted {
                    host,
                    chunk: flat,
                    attempts,
                    time_ns: (*clock + self.cfg.port().transfer_time(streamed)).as_ns(),
                });
            }
            let base = self.fcfg.retry_backoff_ns.max(1);
            let delay = base * attempts as u64 + self.port_rng.next_u64() % base;
            *clock += SimTime::from_ns(delay);
            self.fstats.backoff_ns += delay;
            self.fstats.chunk_retries += 1;
        }
        Ok(())
    }

    /// Watchdog declaration: wait out the deadline (bounded) past the
    /// furthest host stream and return the typed loss.
    fn declare_host_down(&mut self, op: &CollectiveOp, host: u64) -> CollectiveError {
        let port = self.cfg.port();
        let now = (0..op.live.len())
            .map(|i| op.clocks[i] + port.transfer_time(op.read_bytes[i]))
            .fold(SimTime::ZERO, SimTime::max);
        let deadline = FenceDeadline::from_ns(self.fcfg.deadline_ns);
        let declared_at = if deadline.expired(now, SimTime::MAX) {
            self.fstats.watchdog_timeouts += 1;
            now + deadline.timeout()
        } else {
            now
        };
        CollectiveError::HostDown {
            host,
            phase: op.phase,
            chunk: op.flat,
            time_ns: declared_at.as_ns(),
        }
    }

    /// One reduce-scatter item: the shard owner reads this chunk from
    /// every peer's staging region and folds it into its accumulator.
    fn reduce_chunk(&mut self, op: &mut CollectiveOp) -> Result<(), CollectiveError> {
        let n = op.live.len();
        let i = op.cur_shard as usize;
        let (shard, lo, hi) = op.chunk_range(self.cfg.chunk_bytes);
        let len = (hi - lo) as u64;
        let port = self.cfg.port();
        for j in (0..n).filter(|&j| j != i) {
            let (owner, streamed) = (op.live[i], op.read_bytes[i]);
            self.faulted_read(&op.inputs[j][lo..hi], owner, op.flat, &mut op.clocks[i], streamed)?;
            if self.media_check_chunk(op.live[j], op.g, &(lo..hi)) {
                // Detected staging-media fault: re-serve the chunk from
                // the peer's source replica instead of the poisoned line.
                self.fstats.media_chunk_rereads += 1;
                op.clocks[i] += port.transfer_time(len);
                op.media_reads[i] += len;
            }
            let local = lo - shard.start..hi - shard.start;
            kernels::reduce_sum_run(&op.inputs[j][lo..hi], &mut op.reduced[i][local]);
        }
        op.read_bytes[i] += (n as u64 - 1) * len;
        op.media_reads[i] += (n as u64 - 1) * len;
        Ok(())
    }

    /// Reduce phase done: the reduced-shard stores trail each owner's
    /// read stream by one chunk; the slowest store gates the gather tail.
    fn finish_reduce_phase(&mut self, op: &mut CollectiveOp) {
        let n = op.live.len();
        let port = self.cfg.port();
        op.write_done = (0..n)
            .map(|i| {
                let chunk = range_len(op.g, n, i).min(self.cfg.chunk_bytes);
                op.clocks[i] + port.transfer_time(op.read_bytes[i]) + port.transfer_time(chunk)
            })
            .fold(SimTime::ZERO, SimTime::max);
        op.phase = CollectivePhase::AllGather;
        op.cur_shard = 0;
        op.cur_chunk = 0;
        op.flat = 0;
    }

    /// One all-gather item: every peer reads the owner's reduced chunk
    /// directly, continuing its read stream.
    fn gather_chunk(&mut self, op: &mut CollectiveOp) -> Result<(), CollectiveError> {
        let n = op.live.len();
        let i = op.cur_shard as usize;
        let (shard, lo, hi) = op.chunk_range(self.cfg.chunk_bytes);
        let len = (hi - lo) as u64;
        let owner = op.live[i];
        let port = self.cfg.port();
        let local = lo - shard.start..hi - shard.start;
        for j in (0..n).filter(|&j| j != i) {
            let (reader, streamed) = (op.live[j], op.read_bytes[j]);
            let chunk = &op.reduced[i][local.clone()];
            self.faulted_read(chunk, reader, op.flat, &mut op.clocks[j], streamed)?;
            if self.media_check_chunk(owner, op.g, &(lo..hi)) {
                self.fstats.media_chunk_rereads += 1;
                op.clocks[j] += port.transfer_time(len);
                op.media_reads[j] += len;
            }
            op.read_bytes[j] += len;
        }
        Ok(())
    }

    /// Gather phase done: price every host's port streams, charge the
    /// media — the reduce reads at the entry barrier, the reduced-shard
    /// writes at the end of that round, one fan-in read per shard — and
    /// close the outcome.
    fn finish_gather_phase(&mut self, op: &mut CollectiveOp) {
        let n = op.live.len();
        let hosts = self.cfg.hosts;
        let port = self.cfg.port();
        let t0 = op.start + self.cfg.phase_latency();
        let mut reads = vec![0u64; hosts];
        let mut writes = vec![0u64; hosts];
        for (i, &h) in op.live.iter().enumerate() {
            reads[h as usize] = op.media_reads[i];
            writes[h as usize] = range_len(op.g, n, i);
        }
        let mut media_r = vec![SimTime::ZERO; hosts];
        self.media.arbitrate_round_into(&vec![t0; hosts], &reads, &mut media_r);
        let mut media_w = vec![SimTime::ZERO; hosts];
        self.media.arbitrate_round_into(&media_r, &writes, &mut media_w);
        let mut fanin_saved = 0u64;
        for &h in &op.live {
            let s = writes[h as usize];
            if s > 0 {
                let before = self.media.fanin_saved_bytes();
                self.media.charge_fanin(media_w[h as usize], s, n - 1);
                fanin_saved += self.media.fanin_saved_bytes() - before;
            }
        }
        let drain = self.media.drained_at();

        let per_host_done: Vec<SimTime> = (0..n)
            .map(|i| {
                let chunk = range_len(op.g, n, i).min(self.cfg.chunk_bytes);
                let stream = op.clocks[i] + port.transfer_time(op.read_bytes[i]);
                stream.max(op.write_done + port.transfer_time(chunk)).max(drain)
            })
            .collect();
        let port_bytes = (2 * n as u64 - 1) * op.g;
        // Reduce reads and re-reads, G of writes, G of fan-in.
        let media_bytes = op.media_reads.iter().sum::<u64>() + 2 * op.g;
        self.stats.all_reduces += 1;
        self.stats.port_bytes += port_bytes;
        self.stats.media_bytes += media_bytes;
        op.outcome = Some(CollectiveOutcome {
            hosts: n as u64,
            bytes_per_host: op.g,
            start: op.start,
            completion: per_host_done.iter().copied().fold(SimTime::ZERO, SimTime::max),
            per_host_done,
            port_bytes,
            media_bytes,
            fanin_saved_bytes: fanin_saved,
        });
    }

    /// Ladder rung 3: retirement pressure tripped the threshold — run
    /// the whole op over the point-to-point ring, off the pool media.
    fn run_ring_fallback(&mut self, op: &mut CollectiveOp) -> Result<bool, CollectiveError> {
        let n = op.live.len();
        let ring_cfg = CollectiveConfig { hosts: n, ..self.cfg };
        let out = ring_all_reduce(&ring_cfg, &mut op.inputs, &op.clocks)?;
        for (i, red) in op.reduced.iter_mut().enumerate() {
            red.copy_from_slice(&op.inputs[0][shard_range(op.g as usize, n, i)]);
        }
        self.fstats.ring_fallbacks += 1;
        self.stats.all_reduces += 1;
        op.outcome = Some(CollectiveOutcome {
            hosts: n as u64,
            bytes_per_host: op.g,
            start: out.start,
            completion: out.completion,
            per_host_done: vec![out.completion; n],
            port_bytes: out.link_bytes,
            media_bytes: 0,
            fanin_saved_bytes: 0,
        });
        Ok(true)
    }
}

/// Serializable image of a [`PoolCollective`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PoolCollectiveSnapshot {
    /// Engine configuration.
    pub cfg: CollectiveConfig,
    /// Media-arbiter state.
    pub media: HostLinkArbiterSnapshot,
    /// Operation counters.
    pub stats: CollectiveStats,
    /// Fault posture.
    pub fcfg: CollectiveFaultConfig,
    /// Port-fault injection stream state.
    pub port_rng: [u64; 4],
    /// Staging-media RAS state.
    pub ras: MediaRasSnapshot,
    /// Spare lines left for retirement remaps.
    pub spares_left: u64,
    /// Per-host quarantine flags.
    pub down: Vec<bool>,
    /// Fault/recovery counters.
    pub fstats: CollectiveFaultStats,
}

fn range_len(total: u64, hosts: usize, h: usize) -> u64 {
    let r = shard_range(total as usize, hosts, h);
    (r.end - r.start) as u64
}

/// Shared operand validation: one equal-size whole-word buffer and one
/// ready time per host.
fn check_shapes(hosts: usize, bufs: &[Vec<u8>], ready: &[SimTime]) -> Result<u64, CollectiveError> {
    if bufs.len() != hosts {
        return Err(CollectiveError::Shape {
            what: "host buffers",
            expect: hosts as u64,
            got: bufs.len() as u64,
        });
    }
    if ready.len() != hosts {
        return Err(CollectiveError::Shape {
            what: "ready times",
            expect: hosts as u64,
            got: ready.len() as u64,
        });
    }
    let g = bufs[0].len() as u64;
    for b in bufs {
        if b.len() as u64 != g {
            return Err(CollectiveError::Shape {
                what: "buffer bytes",
                expect: g,
                got: b.len() as u64,
            });
        }
    }
    if !g.is_multiple_of(4) {
        return Err(CollectiveError::Shape { what: "whole FP32 words", expect: g / 4 * 4, got: g });
    }
    Ok(g)
}

/// Modeled result of one ring all-reduce.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RingOutcome {
    /// Participating hosts.
    pub hosts: u64,
    /// Gradient bytes per host.
    pub bytes_per_host: u64,
    /// When the ring's entry barrier passed (latest host ready).
    pub start: SimTime,
    /// When the last step's transfers landed.
    pub completion: SimTime,
    /// Bulk-synchronous steps executed (2(H−1)).
    pub steps: u64,
    /// Endpoint-port bytes moved: every hop consumes the sender's egress
    /// and the receiver's ingress port.
    pub link_bytes: u64,
    /// Point-to-point messages sent.
    pub messages: u64,
}

/// The NCCL-style ring all-reduce baseline: H−1 reduce-scatter steps then
/// H−1 all-gather steps, each a bulk-synchronous round in which host `h`
/// sends one segment to host `(h+1) % H` over its point-to-point link
/// (full duplex, so every host sends and receives concurrently). The
/// reduction segments are the same word-granular [`shard_range`] split
/// the pool path uses, and the additions are the same wrapping kernel —
/// the result is bit-identical to [`PoolCollective::all_reduce`].
pub fn ring_all_reduce(
    cfg: &CollectiveConfig,
    shards: &mut [Vec<u8>],
    ready: &[SimTime],
) -> Result<RingOutcome, CollectiveError> {
    cfg.validate()?;
    let h = shards.len();
    if h != cfg.hosts {
        return Err(CollectiveError::Shape {
            what: "host buffers",
            expect: cfg.hosts as u64,
            got: h as u64,
        });
    }
    let g = check_shapes(h, shards, ready)? as usize;

    let start = ready.iter().copied().fold(SimTime::ZERO, SimTime::max);
    if h == 1 {
        return Ok(RingOutcome {
            hosts: 1,
            bytes_per_host: g as u64,
            start: ready[0],
            completion: ready[0],
            steps: 0,
            link_bytes: 0,
            messages: 0,
        });
    }

    let link = cfg.ring();
    let hop = cfg.hop_latency();
    let mut now = start;
    let mut link_bytes = 0u64;
    let mut messages = 0u64;
    let mut outgoing: Vec<Vec<u8>> = vec![Vec::new(); h];

    // Phase 1 — reduce-scatter: at step k, host `h` sends segment
    // (h − k) mod H and folds the segment arriving from its predecessor.
    // Phase 2 — all-gather: host `h` sends segment (h + 1 − k) mod H and
    // copies the arriving one. After both, every buffer holds the sum.
    for (phase, reduce) in [(0usize, true), (1, false)] {
        for k in 0..h - 1 {
            let mut in_flight_max = 0u64;
            for (src, out) in outgoing.iter_mut().enumerate() {
                let idx =
                    if phase == 0 { (src + h - k % h) % h } else { (src + 1 + h - k % h) % h };
                let seg = shard_range(g, h, idx);
                out.clear();
                out.extend_from_slice(&shards[src][seg]);
                in_flight_max = in_flight_max.max(out.len() as u64);
                link_bytes += 2 * out.len() as u64; // sender egress + receiver ingress
                messages += 1;
            }
            for (dst, shard) in shards.iter_mut().enumerate() {
                let src = (dst + h - 1) % h;
                let idx =
                    if phase == 0 { (src + h - k % h) % h } else { (src + 1 + h - k % h) % h };
                let seg = shard_range(g, h, idx);
                if reduce {
                    kernels::reduce_sum_run(&outgoing[src], &mut shard[seg]);
                } else {
                    shard[seg].copy_from_slice(&outgoing[src]);
                }
            }
            now = now + hop + link.transfer_time(in_flight_max);
        }
    }

    Ok(RingOutcome {
        hosts: h as u64,
        bytes_per_host: g as u64,
        start,
        completion: now,
        steps: 2 * (h as u64 - 1),
        link_bytes,
        messages,
    })
}

/// Which half of the fused all-reduce a chunk boundary sits in.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum CollectivePhase {
    /// Peer-shard reads + local folds.
    ReduceScatter,
    /// Reduced-shard write + peer gather reads.
    AllGather,
}

/// Kill injection point for an all-reduce: host `host` stops
/// responding at flat chunk index `chunk` of `phase`. Indices past the
/// end of the phase clamp to its last chunk boundary.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct HostKill {
    /// Host that dies.
    pub host: u64,
    /// Phase the death lands in.
    pub phase: CollectivePhase,
    /// Flat chunk index within the phase.
    pub chunk: u64,
}

/// Fault posture of a [`PoolCollective`]: transient pool-port faults
/// (per-chunk Bernoulli, checksummed retry with seeded backoff), a
/// deadline watchdog for host loss, pool-media RAS over the staging
/// regions, and the retirement-pressure threshold that trips the
/// ring-fallback rung of the degradation ladder.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct CollectiveFaultConfig {
    /// Probability a chunk read arrives corrupted (checksum-detected,
    /// replayed after backoff). `0.0` disables port-fault injection.
    pub port_fault_rate: f64,
    /// Replay attempts per chunk before [`CollectiveError::RetryExhausted`].
    pub retry_limit: u32,
    /// Base backoff per replay, in nanoseconds; attempt `k` waits
    /// `k·base + jitter(base)`.
    pub retry_backoff_ns: u64,
    /// Watchdog deadline for declaring a silent host dead at a chunk
    /// boundary; `0` means unbounded (detection still yields a typed
    /// error, without the modeled wait).
    pub deadline_ns: u64,
    /// Pool-media RAS posture over the collective staging regions.
    pub ras: RasConfig,
    /// Degradation-ladder rung 3: once the staging RAS has retired this
    /// many lines, route all-reduces over the point-to-point ring
    /// instead of the pool. `0` disables the fallback.
    pub ring_fallback_retired_lines: u64,
    /// Seed of the port-fault injection stream.
    pub seed: u64,
}

impl CollectiveFaultConfig {
    /// No injected faults; watchdog armed at 1 ms.
    pub fn off() -> Self {
        CollectiveFaultConfig {
            port_fault_rate: 0.0,
            retry_limit: 8,
            retry_backoff_ns: 200,
            deadline_ns: 1_000_000,
            ras: RasConfig::off(),
            ring_fallback_retired_lines: 0,
            seed: 0,
        }
    }

    /// Reject unusable fault postures.
    pub fn validate(&self) -> Result<(), CollectiveError> {
        if !self.port_fault_rate.is_finite() || !(0.0..=1.0).contains(&self.port_fault_rate) {
            return Err(CollectiveError::Config(format!(
                "port_fault_rate must be in [0, 1], got {}",
                self.port_fault_rate
            )));
        }
        self.ras.validate().map_err(CollectiveError::Config)
    }
}

/// Fault/recovery counters of a [`PoolCollective`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct CollectiveFaultStats {
    /// Chunk deliveries that arrived corrupted.
    pub port_faults: u64,
    /// Chunk replays performed.
    pub chunk_retries: u64,
    /// Total modeled backoff across replays, in nanoseconds.
    pub backoff_ns: u64,
    /// Corruptions caught by the per-chunk Fletcher-16 checksum.
    pub checksum_detects: u64,
    /// Staging-media faults caught on access by RAS.
    pub media_detections: u64,
    /// Chunks re-served from the source replica after a media detection.
    pub media_chunk_rereads: u64,
    /// Watchdog deadline expiries (bounded deadlines only).
    pub watchdog_timeouts: u64,
    /// Hosts quarantined after a watchdog declaration.
    pub hosts_lost: u64,
    /// All-reduces routed over the ring fallback (ladder rung 3).
    pub ring_fallbacks: u64,
    /// Hosts readmitted after quarantine.
    pub readmissions: u64,
    /// Corrupted chunks that slipped past the checksum — structurally
    /// zero (Fletcher-16 detects every single-byte flip); counted so the
    /// zero-poison acceptance gate measures something real.
    pub poisoned_admitted: u64,
}

/// In-flight state of one fused all-reduce. The op is a plain
/// serializable value: a fabric can snapshot it at any chunk boundary and
/// a restored engine finishes it bit-identically
/// ([`PoolCollective::check_op`] vets a decoded one).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CollectiveOp {
    /// Gradient bytes per host.
    pub g: u64,
    /// Live host ids (ascending) this op reduces across.
    pub live: Vec<u64>,
    /// Source replicas: each live host's staged gradient, pristine (the
    /// caller's buffers, owned by the op until released).
    pub inputs: Vec<Vec<u8>>,
    /// Per-live-shard reduction accumulators (empty for a lone host).
    pub reduced: Vec<Vec<u8>>,
    /// Current phase.
    pub phase: CollectivePhase,
    /// Flat chunk index within the current phase.
    pub flat: u64,
    /// Current shard (live index) being walked.
    pub cur_shard: u64,
    /// Current chunk within the shard.
    pub cur_chunk: u64,
    /// Entry-barrier time.
    pub start: SimTime,
    /// Per-live-host stream clocks: the first chunk's issue time plus
    /// every fault delay the host's stream has absorbed. Host `i`'s read
    /// stream ends at `clocks[i]` plus the transfer time of
    /// `read_bytes[i]`.
    pub clocks: Vec<SimTime>,
    /// Per-live-host read-stream bytes so far.
    pub read_bytes: Vec<u64>,
    /// Per-live-host media read bytes (peer reads and re-reads), charged
    /// when the op completes.
    pub media_reads: Vec<u64>,
    /// When the slowest reduced-shard store completes (set when the
    /// reduce-scatter phase ends).
    pub write_done: SimTime,
    /// Routed over the ring fallback instead of the pool.
    pub via_ring: bool,
    /// Final accounting, set once the op completes.
    pub outcome: Option<CollectiveOutcome>,
}

impl CollectiveOp {
    /// Chunks in live shard `i`.
    fn shard_chunks(&self, i: usize, chunk_bytes: u64) -> u64 {
        range_len(self.g, self.live.len(), i).div_ceil(chunk_bytes)
    }

    /// Total chunk items in one phase.
    fn items_per_phase(&self, chunk_bytes: u64) -> u64 {
        (0..self.live.len()).map(|i| self.shard_chunks(i, chunk_bytes)).sum()
    }

    /// The current shard's byte range and the current chunk's bounds.
    fn chunk_range(&self, chunk_bytes: u64) -> (Range<usize>, usize, usize) {
        let shard = shard_range(self.g as usize, self.live.len(), self.cur_shard as usize);
        let lo = shard.start + (self.cur_chunk * chunk_bytes) as usize;
        let hi = (lo + chunk_bytes as usize).min(shard.end);
        (shard, lo, hi)
    }

    /// The final accounting, once the op is complete.
    pub fn outcome(&self) -> Option<&CollectiveOutcome> {
        self.outcome.as_ref()
    }

    /// Copy the reduced gradient (identical on every live host) into
    /// `out`, replacing its contents. Meaningful once the op is complete.
    pub fn copy_result_into(&self, out: &mut Vec<u8>) {
        out.clear();
        if self.live.len() == 1 {
            out.extend_from_slice(&self.inputs[0]);
        } else {
            for red in &self.reduced {
                out.extend_from_slice(red);
            }
        }
    }

    /// Hand the staged buffers back to their host slots in `staged` (the
    /// full-length vector [`PoolCollective::begin_all_reduce`] took them
    /// from), so the caller keeps their capacity.
    pub fn release_inputs(&mut self, staged: &mut [Vec<u8>]) {
        for (&h, buf) in self.live.iter().zip(self.inputs.iter_mut()) {
            staged[h as usize] = std::mem::take(buf);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dba::scalar;
    use teco_sim::SimRng;

    fn gradients(hosts: usize, bytes: usize, seed: u64) -> Vec<Vec<u8>> {
        (0..hosts)
            .map(|hst| {
                let mut rng = SimRng::seed_from_u64(seed).fork(&format!("grad-h{hst}"));
                let mut buf = vec![0u8; bytes];
                for chunk in buf.chunks_exact_mut(8) {
                    chunk.copy_from_slice(&rng.next_u64().to_le_bytes());
                }
                buf
            })
            .collect()
    }

    /// The element-wise wrapping sum every path must land on.
    fn expected_sum(inputs: &[Vec<u8>]) -> Vec<u8> {
        let mut acc = inputs[0].clone();
        for other in &inputs[1..] {
            scalar::reduce_sum_words(other, &mut acc);
        }
        acc
    }

    #[test]
    fn shard_ranges_partition_the_buffer() {
        for (bytes, hosts) in [(1024usize, 4usize), (100, 3), (64, 8), (8, 3)] {
            let mut covered = 0;
            for hst in 0..hosts {
                let r = shard_range(bytes, hosts, hst);
                assert_eq!(r.start, covered, "shards must tile in order");
                assert_eq!(r.len() % 4, 0);
                covered = r.end;
            }
            assert_eq!(covered, bytes);
        }
    }

    #[test]
    fn pool_all_reduce_computes_the_global_sum_on_every_host() {
        for hosts in [2usize, 3, 4, 8] {
            let inputs = gradients(hosts, 4096, 7);
            let want = expected_sum(&inputs);
            let mut pool = PoolCollective::new(CollectiveConfig::for_hosts(hosts)).unwrap();
            let mut bufs = inputs.clone();
            let out = pool.all_reduce(&mut bufs, &vec![SimTime::ZERO; hosts]).unwrap();
            for buf in &bufs {
                assert_eq!(buf, &want, "every host must hold the global sum");
            }
            assert_eq!(out.port_bytes, (2 * hosts as u64 - 1) * 4096);
            assert_eq!(out.media_bytes, (hosts as u64 + 1) * 4096);
            assert!(out.completion > out.start);
        }
    }

    #[test]
    fn ring_matches_pool_bit_for_bit() {
        for hosts in [2usize, 3, 4, 8] {
            let inputs = gradients(hosts, 2048, 21);
            let cfg = CollectiveConfig::for_hosts(hosts);
            let mut pool_bufs = inputs.clone();
            PoolCollective::new(cfg)
                .unwrap()
                .all_reduce(&mut pool_bufs, &vec![SimTime::ZERO; hosts])
                .unwrap();
            let mut ring_bufs = inputs.clone();
            let out = ring_all_reduce(&cfg, &mut ring_bufs, &vec![SimTime::ZERO; hosts]).unwrap();
            assert_eq!(pool_bufs, ring_bufs, "hop order must not change the sum");
            assert_eq!(out.steps, 2 * (hosts as u64 - 1));
            // Endpoint-port accounting with evenly divisible segments:
            // 2(H−1) steps × H messages × 2 ports × G/H bytes.
            assert_eq!(out.link_bytes, 4 * (hosts as u64 - 1) * 2048);
        }
    }

    #[test]
    fn single_host_collectives_are_noops() {
        let inputs = gradients(1, 512, 9);
        let mut pool = PoolCollective::new(CollectiveConfig::for_hosts(1)).unwrap();
        let mut bufs = inputs.clone();
        let ready = [SimTime::from_ns(42)];
        let out = pool.all_reduce(&mut bufs, &ready).unwrap();
        assert_eq!(bufs, inputs, "H = 1 must not touch the data");
        assert_eq!(out.completion, SimTime::from_ns(42));
        assert_eq!(out.port_bytes, 0);
        assert_eq!(pool.media().rounds(), 0, "H = 1 must not touch the arbiter");
        let ring = ring_all_reduce(pool.config(), &mut bufs, &ready).unwrap();
        assert_eq!(ring.steps, 0);
        assert_eq!(ring.link_bytes, 0);
        assert_eq!(ring.completion, SimTime::from_ns(42));
    }

    #[test]
    fn pool_beats_ring_on_time_and_port_bytes() {
        for hosts in [2usize, 4, 8] {
            let bytes = 1 << 20;
            let inputs = gradients(hosts, bytes, 11);
            let cfg = CollectiveConfig::for_hosts(hosts);
            let ready = vec![SimTime::ZERO; hosts];
            let mut pool_bufs = inputs.clone();
            let pool =
                PoolCollective::new(cfg).unwrap().all_reduce(&mut pool_bufs, &ready).unwrap();
            let mut ring_bufs = inputs.clone();
            let ring = ring_all_reduce(&cfg, &mut ring_bufs, &ready).unwrap();
            assert!(
                pool.completion < ring.completion,
                "H={hosts}: pool {:?} must beat ring {:?}",
                pool.completion,
                ring.completion
            );
            assert!(pool.port_bytes < ring.link_bytes, "H={hosts}: pool must move fewer bytes");
        }
    }

    #[test]
    fn outcomes_are_deterministic_and_snapshot_compatible() {
        let hosts = 3;
        let cfg = CollectiveConfig::for_hosts(hosts);
        let inputs = gradients(hosts, 1536, 5);
        let ready = vec![SimTime::from_ns(10); hosts];

        let run = || {
            let mut pool = PoolCollective::new(cfg).unwrap();
            let mut bufs = inputs.clone();
            let a = pool.all_reduce(&mut bufs, &ready).unwrap();
            (a, pool.snapshot())
        };
        let (o1, s1) = run();
        let (o2, s2) = run();
        assert_eq!(o1, o2);
        assert_eq!(s1, s2);
        assert_eq!(serde_json::to_string(&s1).unwrap(), serde_json::to_string(&s2).unwrap());

        // Restore mid-sequence: the second op must come out identical.
        let mut orig = PoolCollective::new(cfg).unwrap();
        let mut bufs = inputs.clone();
        orig.all_reduce(&mut bufs, &ready).unwrap();
        let snap_json = serde_json::to_string(&orig.snapshot()).unwrap();
        let snap: PoolCollectiveSnapshot = serde_json::from_str(&snap_json).unwrap();
        let mut restored = PoolCollective::restore(&snap).unwrap();
        let later = vec![SimTime::from_us(2); hosts];
        let mut b1 = inputs.clone();
        let mut b2 = inputs.clone();
        let a = orig.all_reduce(&mut b1, &later).unwrap();
        let b = restored.all_reduce(&mut b2, &later).unwrap();
        assert_eq!(a, b);
        assert_eq!(orig.snapshot(), restored.snapshot());
    }

    #[test]
    fn gather_fanin_is_charged_once_per_shard() {
        let hosts = 4;
        let mut pool = PoolCollective::new(CollectiveConfig::for_hosts(hosts)).unwrap();
        let mut bufs = gradients(hosts, 4096, 13);
        let out = pool.all_reduce(&mut bufs, &vec![SimTime::ZERO; hosts]).unwrap();
        // Each of the four reduced shards is read by three ports but
        // served from media once: saved = G × (H − 2).
        assert_eq!(out.fanin_saved_bytes, 4096 * (hosts as u64 - 2));
        assert_eq!(pool.media().fanin_grants(), hosts as u64);
        assert_eq!(pool.media().fanin_deliveries(), (hosts * (hosts - 1)) as u64);
    }

    #[test]
    fn operand_mismatches_are_typed_errors_not_panics() {
        let mut pool = PoolCollective::new(CollectiveConfig::for_hosts(2)).unwrap();
        let err = pool.all_reduce(&mut [vec![0u8; 64]], &[SimTime::ZERO, SimTime::ZERO]);
        assert_eq!(
            err.unwrap_err(),
            CollectiveError::Shape { what: "host buffers", expect: 2, got: 1 }
        );
        let err = pool.all_reduce(&mut [vec![0u8; 64], vec![0u8; 32]], &[SimTime::ZERO; 2]);
        assert_eq!(
            err.unwrap_err(),
            CollectiveError::Shape { what: "buffer bytes", expect: 64, got: 32 }
        );
        let err = pool.all_reduce(&mut [vec![0u8; 6], vec![0u8; 6]], &[SimTime::ZERO; 2]);
        assert!(matches!(
            err.unwrap_err(),
            CollectiveError::Shape { what: "whole FP32 words", .. }
        ));
        let bad = CollectiveConfig { chunk_bytes: 1, ..CollectiveConfig::for_hosts(2) };
        assert!(matches!(PoolCollective::new(bad), Err(CollectiveError::Config(_))));
        let mut bufs = vec![vec![0u8; 64]; 3];
        let err = ring_all_reduce(&CollectiveConfig::for_hosts(2), &mut bufs, &[SimTime::ZERO; 3]);
        assert!(matches!(err.unwrap_err(), CollectiveError::Shape { what: "host buffers", .. }));
    }

    #[test]
    fn two_host_gather_fanin_saves_zero_and_snapshot_round_trips() {
        // H = 2: each reduced shard has exactly one reader, so the
        // fan-in grant saves nothing — and must record exactly zero, not
        // underflow. The accounting must survive a JSON round trip.
        let mut pool = PoolCollective::new(CollectiveConfig::for_hosts(2)).unwrap();
        let mut bufs = gradients(2, 4096, 13);
        let out = pool.all_reduce(&mut bufs, &[SimTime::ZERO; 2]).unwrap();
        assert_eq!(out.fanin_saved_bytes, 0);
        assert_eq!(pool.media().fanin_saved_bytes(), 0);
        assert_eq!(pool.media().fanin_grants(), 2);
        assert_eq!(pool.media().fanin_deliveries(), 2);
        let snap = pool.snapshot();
        let json = serde_json::to_string(&snap).unwrap();
        let back: PoolCollectiveSnapshot = serde_json::from_str(&json).unwrap();
        assert_eq!(back, snap);
        assert_eq!(PoolCollective::restore(&back).unwrap().snapshot(), snap);
    }

    /// Two back-to-back fault-free all-reduces through one fresh engine:
    /// the data must be the global sum, and the outcomes plus the media
    /// arbiter's final state serialize to the returned JSON.
    fn pinned_pair(cfg: CollectiveConfig, bytes: usize, ready: &[SimTime]) -> String {
        let mut pool = PoolCollective::new(cfg).unwrap();
        let inputs = gradients(cfg.hosts, bytes, 47);
        let later: Vec<SimTime> = ready.iter().map(|&t| t + SimTime::from_us(1)).collect();
        let mut outs = Vec::new();
        for r in [ready, &later[..]] {
            let mut bufs = inputs.clone();
            outs.push(pool.all_reduce(&mut bufs, r).unwrap());
            assert!(bufs.iter().all(|b| *b == expected_sum(&inputs)));
        }
        serde_json::to_string(&(outs, pool.media().snapshot())).unwrap()
    }

    /// The fused closed-form timeline off the even splits the sweeps
    /// cover. The expected strings were recorded from the closed-form
    /// engine; the chunk walk must reproduce them bit for bit.
    #[test]
    fn fault_free_timeline_is_pinned_off_the_sweep_grid() {
        let ns = SimTime::from_ns;
        // H=3 over 1,001 words: shards of 334, 334 and 333 words.
        let uneven = pinned_pair(CollectiveConfig::for_hosts(3), 4004, &[ns(10), ns(250), ns(40)]);
        assert_eq!(
            uneven,
            concat!(
                r#"[[{"hosts":3,"bytes_per_host":4004,"start":250000,"completion":1104188,"#,
                r#""per_host_done":[1104188,1104188,1103923],"port_bytes":20020,"#,
                r#""media_bytes":16016,"fanin_saved_bytes":4004},{"hosts":3,"#,
                r#""bytes_per_host":4004,"start":1250000,"completion":2104188,"#,
                r#""per_host_done":[2104188,2104188,2103923],"port_bytes":20020,"#,
                r#""media_bytes":16016,"fanin_saved_bytes":4004}],"#,
                r#"{"bw":{"bytes_per_sec":256000000000.0},"n":3,"next_free":1812564,"rr":1,"#,
                r#""accounts":[{"bytes":8016,"grants":4,"wait_ns":51,"busy_ns":30},{"bytes":8016,"#,
                r#""grants":4,"wait_ns":45,"busy_ns":30},{"bytes":7992,"grants":4,"wait_ns":56,"#,
                r#""busy_ns":30}],"rounds":4,"broadcast_grants":0,"broadcast_bytes":0,"#,
                r#""fanout_saved_bytes":0,"fanout_deliveries":0,"fanin_grants":6,"#,
                r#""fanin_bytes":8008,"fanin_saved_bytes":8008,"fanin_deliveries":12}]"#,
            )
        );
        // 625-word shards walked in 768-byte chunks: the last chunk is short.
        let cfg = CollectiveConfig { chunk_bytes: 768, ..CollectiveConfig::for_hosts(4) };
        let short_chunk = pinned_pair(cfg, 10_000, &[ns(0), ns(5), ns(900), ns(5)]);
        assert_eq!(
            short_chunk,
            concat!(
                r#"[[{"hosts":4,"bytes_per_host":10000,"start":900000,"completion":2394168,"#,
                r#""per_host_done":[2394168,2394168,2394168,2394168],"port_bytes":70000,"#,
                r#""media_bytes":50000,"fanin_saved_bytes":20000},{"hosts":4,"#,
                r#""bytes_per_host":10000,"start":1900000,"completion":3394168,"#,
                r#""per_host_done":[3394168,3394168,3394168,3394168],"port_bytes":70000,"#,
                r#""media_bytes":50000,"fanin_saved_bytes":20000}],"#,
                r#"{"bw":{"bytes_per_sec":256000000000.0},"n":4,"next_free":2595316,"rr":0,"#,
                r#""accounts":[{"bytes":20000,"grants":4,"wait_ns":214,"busy_ns":76},"#,
                r#"{"bytes":20000,"grants":4,"wait_ns":193,"busy_ns":76},{"bytes":20000,"#,
                r#""grants":4,"wait_ns":214,"busy_ns":76},{"bytes":20000,"grants":4,"#,
                r#""wait_ns":193,"busy_ns":76}],"rounds":4,"broadcast_grants":0,"#,
                r#""broadcast_bytes":0,"fanout_saved_bytes":0,"fanout_deliveries":0,"#,
                r#""fanin_grants":8,"fanin_bytes":20000,"fanin_saved_bytes":40000,"#,
                r#""fanin_deliveries":24}]"#,
            )
        );
        // Eight hosts over five words: shards 5, 6 and 7 are empty.
        let empty_shards = pinned_pair(CollectiveConfig::for_hosts(8), 20, &[ns(3); 8]);
        assert_eq!(
            empty_shards,
            concat!(
                r#"[[{"hosts":8,"bytes_per_host":20,"start":3000,"completion":505916,"#,
                r#""per_host_done":[505916,505916,505916,505916,505916,505121,505121,505121],"#,
                r#""port_bytes":300,"media_bytes":180,"fanin_saved_bytes":120},{"hosts":8,"#,
                r#""bytes_per_host":20,"start":1003000,"completion":1505916,"#,
                r#""per_host_done":[1505916,1505916,1505916,1505916,1505916,1505121,1505121,"#,
                r#"1505121],"port_bytes":300,"media_bytes":180,"fanin_saved_bytes":120}],"#,
                r#"{"bw":{"bytes_per_sec":256000000000.0},"n":8,"next_free":1503705,"rr":4,"#,
                r#""accounts":[{"bytes":64,"grants":4,"wait_ns":0,"busy_ns":0},{"bytes":64,"#,
                r#""grants":4,"wait_ns":0,"busy_ns":0},{"bytes":64,"grants":4,"wait_ns":0,"#,
                r#""busy_ns":0},{"bytes":64,"grants":4,"wait_ns":0,"busy_ns":0},{"bytes":64,"#,
                r#""grants":4,"wait_ns":0,"busy_ns":0},{"bytes":0,"grants":0,"wait_ns":0,"#,
                r#""busy_ns":0},{"bytes":0,"grants":0,"wait_ns":0,"busy_ns":0},{"bytes":0,"#,
                r#""grants":0,"wait_ns":0,"busy_ns":0}],"rounds":4,"broadcast_grants":0,"#,
                r#""broadcast_bytes":0,"fanout_saved_bytes":0,"fanout_deliveries":0,"#,
                r#""fanin_grants":10,"fanin_bytes":40,"fanin_saved_bytes":240,"#,
                r#""fanin_deliveries":70}]"#,
            )
        );
    }

    /// A regroup from H=4 to H=3: after one four-host op the engine
    /// quarantines host 3 and reduces over the survivors on the same
    /// four-account media arbiter. The expected string is the fused
    /// closed form evaluated over the three survivors.
    #[test]
    fn regroup_timeline_is_pinned() {
        let ns = SimTime::from_ns;
        let cfg = CollectiveConfig { chunk_bytes: 512, ..CollectiveConfig::for_hosts(4) };
        let mut pool = PoolCollective::new(cfg).unwrap();
        let inputs = gradients(4, 6000, 53);
        let ready = [ns(20), ns(0), ns(700), ns(20)];
        let mut bufs = inputs.clone();
        let first = pool.all_reduce(&mut bufs, &ready).unwrap();
        pool.quarantine_host(3);
        let later: Vec<SimTime> = ready.iter().map(|&t| t + SimTime::from_us(2)).collect();
        let mut bufs = inputs.clone();
        let second = pool.all_reduce(&mut bufs, &later).unwrap();
        assert!(bufs[..3].iter().all(|b| *b == expected_sum(&inputs[..3])));
        assert_eq!(bufs[3], inputs[3], "a quarantined host's buffer is left alone");
        let got = serde_json::to_string(&(vec![first, second], pool.media().snapshot())).unwrap();
        assert_eq!(
            got,
            concat!(
                r#"[[{"hosts":4,"bytes_per_host":6000,"start":700000,"completion":1796501,"#,
                r#""per_host_done":[1796501,1796501,1796501,1796501],"port_bytes":42000,"#,
                r#""media_bytes":30000,"fanin_saved_bytes":12000},{"hosts":3,"#,
                r#""bytes_per_host":6000,"start":2700000,"completion":3730223,"#,
                r#""per_host_done":[3730223,3730223,3730223],"port_bytes":30000,"#,
                r#""media_bytes":24000,"fanin_saved_bytes":6000}],"#,
                r#"{"bw":{"bytes_per_sec":256000000000.0},"n":4,"next_free":3293753,"rr":0,"#,
                r#""accounts":[{"bytes":12000,"grants":4,"wait_ns":100,"busy_ns":44},"#,
                r#"{"bytes":12000,"grants":4,"wait_ns":90,"busy_ns":44},{"bytes":12000,"#,
                r#""grants":4,"wait_ns":104,"busy_ns":44},{"bytes":6000,"grants":2,"wait_ns":63,"#,
                r#""busy_ns":22}],"rounds":4,"broadcast_grants":0,"broadcast_bytes":0,"#,
                r#""fanout_saved_bytes":0,"fanout_deliveries":0,"quarantined":[false,false,false,"#,
                r#"true],"quarantine_events":1,"fanin_grants":7,"fanin_bytes":12000,"#,
                r#""fanin_saved_bytes":18000,"fanin_deliveries":18}]"#,
            )
        );
    }

    /// A small engine: 512-byte gradients walked in 64-byte chunks.
    fn small_pool(hosts: usize, fcfg: CollectiveFaultConfig) -> PoolCollective {
        let cfg = CollectiveConfig { chunk_bytes: 64, ..CollectiveConfig::for_hosts(hosts) };
        PoolCollective::with_faults(cfg, fcfg).unwrap()
    }

    /// Walk one op to completion; returns the reduced bytes and the
    /// accounting.
    fn walk(
        pool: &mut PoolCollective,
        inputs: &[Vec<u8>],
        ready: &[SimTime],
    ) -> Result<(Vec<u8>, CollectiveOutcome), CollectiveError> {
        let mut staged = inputs.to_vec();
        let mut op = pool.begin_all_reduce(&mut staged, ready)?;
        while !pool.step_chunk(&mut op, None)? {}
        let mut result = Vec::new();
        op.copy_result_into(&mut result);
        Ok((result, op.outcome.unwrap()))
    }

    #[test]
    fn chunked_zero_fault_data_matches_closed_form() {
        // Walking the op chunk by chunk and the run-to-completion
        // `all_reduce` are one engine: same sum, outcome and media state.
        for hosts in [2usize, 3, 4] {
            let inputs = gradients(hosts, 512, 17);
            let ready = vec![SimTime::ZERO; hosts];
            let mut walked = small_pool(hosts, CollectiveFaultConfig::off());
            let (result, out) = walk(&mut walked, &inputs, &ready).unwrap();
            let mut whole = small_pool(hosts, CollectiveFaultConfig::off());
            let mut bufs = inputs.clone();
            assert_eq!(whole.all_reduce(&mut bufs, &ready).unwrap(), out, "H={hosts}");
            assert_eq!(result, expected_sum(&inputs), "H={hosts}");
            assert!(bufs.iter().all(|b| *b == result));
            assert_eq!(walked.snapshot(), whole.snapshot());
            assert_eq!(out.port_bytes, (2 * hosts as u64 - 1) * 512);
            assert_eq!(out.media_bytes, (hosts as u64 + 1) * 512);
            assert_eq!(walked.fault_stats(), CollectiveFaultStats::default());
        }
    }

    #[test]
    fn kill_at_every_chunk_boundary_regroups_bit_identically() {
        // Kill the last host at every chunk boundary of both phases of
        // an H=4 all-reduce. The watchdog declares it, the survivors
        // regroup to H=3, and the reduced bytes are bit-identical to a
        // never-failed H=3 run over the survivors.
        let hosts = 4;
        let inputs = gradients(hosts, 512, 23);
        let ready = vec![SimTime::ZERO; hosts];

        // The never-failed H−1 oracle: host 3 quarantined from the start.
        let mut oracle = small_pool(hosts, CollectiveFaultConfig::off());
        oracle.quarantine_host(3);
        let (want, _) = walk(&mut oracle, &inputs, &ready).unwrap();
        assert_eq!(want, expected_sum(&inputs[..3]));

        for phase in [CollectivePhase::ReduceScatter, CollectivePhase::AllGather] {
            for chunk in 0..8u64 {
                let kill = HostKill { host: 3, phase, chunk };
                let mut cc = small_pool(hosts, CollectiveFaultConfig::off());
                let mut staged = inputs.clone();
                let mut op = cc.begin_all_reduce(&mut staged, &ready).unwrap();
                let lost = loop {
                    match cc.step_chunk(&mut op, Some(&kill)) {
                        Ok(true) => panic!("{phase:?} chunk {chunk}: kill must interrupt the op"),
                        Ok(false) => {}
                        Err(CollectiveError::HostDown { host, phase: p, chunk: c, time_ns }) => {
                            assert_eq!(host, 3);
                            assert_eq!(p, phase);
                            assert_eq!(c, chunk);
                            assert!(time_ns > 0, "bounded watchdog waits out its deadline");
                            break host;
                        }
                        Err(e) => panic!("unexpected error: {e}"),
                    }
                };
                cc.quarantine_host(lost as usize);
                assert_eq!(cc.fault_stats().watchdog_timeouts, 1);
                assert_eq!(cc.fault_stats().hosts_lost, 1);
                assert!(cc.media().is_quarantined(3), "arbiter account quarantined");
                op.release_inputs(&mut staged);
                assert_eq!(staged, inputs, "the regroup starts from pristine inputs");
                let (got, out) = walk(&mut cc, &staged, &ready).unwrap();
                assert_eq!(got, want, "{phase:?} chunk {chunk}: regroup must match H−1 oracle");
                assert_eq!(out.hosts, 3);
            }
        }
    }

    #[test]
    fn transient_port_faults_retry_and_converge_deterministically() {
        let hosts = 3;
        let inputs = gradients(hosts, 512, 29);
        let ready = vec![SimTime::ZERO; hosts];
        let fcfg = CollectiveFaultConfig {
            port_fault_rate: 0.3,
            seed: 11,
            ..CollectiveFaultConfig::off()
        };
        let run = || {
            let mut cc = small_pool(hosts, fcfg);
            let (result, out) = walk(&mut cc, &inputs, &ready).unwrap();
            (result, out, cc.fault_stats())
        };
        let (r1, o1, s1) = run();
        let (r2, o2, s2) = run();
        assert_eq!(r1, expected_sum(&inputs), "faulted chunks must be replayed, not admitted");
        assert_eq!((&r1, &o1, s1), (&r2, &o2, s2), "seeded faults must replay identically");
        assert!(s1.port_faults > 0 && s1.chunk_retries > 0 && s1.checksum_detects > 0);
        assert!(s1.backoff_ns > 0, "replays must cost modeled backoff");
        assert_eq!(s1.poisoned_admitted, 0, "Fletcher-16 must catch every corruption");
        let clean = walk(&mut small_pool(hosts, CollectiveFaultConfig::off()), &inputs, &ready);
        assert!(o1.completion > clean.unwrap().1.completion, "backoff delays the host streams");
    }

    #[test]
    fn retry_exhaustion_is_a_typed_error() {
        let hosts = 2;
        let inputs = gradients(hosts, 512, 31);
        let ready = vec![SimTime::ZERO; hosts];
        let fcfg = CollectiveFaultConfig {
            port_fault_rate: 1.0,
            retry_limit: 2,
            seed: 3,
            ..CollectiveFaultConfig::off()
        };
        let mut cc = small_pool(hosts, fcfg);
        let mut bufs = inputs.clone();
        let err = cc.all_reduce(&mut bufs, &ready).unwrap_err();
        assert!(matches!(err, CollectiveError::RetryExhausted { attempts: 3, .. }), "got {err:?}");
        assert_eq!(bufs, inputs, "a failed op hands the caller's buffers back untouched");
    }

    #[test]
    fn retirement_pressure_trips_the_ring_fallback() {
        let hosts = 3;
        let inputs = gradients(hosts, 512, 37);
        let ready = vec![SimTime::ZERO; hosts];
        let fcfg = CollectiveFaultConfig {
            ras: RasConfig {
                media_faults_per_tick: 4.0,
                scrub_lines_per_tick: 64,
                spare_lines: 16,
                seed: 5,
            },
            ring_fallback_retired_lines: 2,
            ..CollectiveFaultConfig::off()
        };
        let mut cc = small_pool(hosts, fcfg);
        let mut fell_back = false;
        for _ in 0..8 {
            let (result, _) = walk(&mut cc, &inputs, &ready).unwrap();
            assert_eq!(result, expected_sum(&inputs), "fallback must not change the sum");
            if cc.fault_stats().ring_fallbacks > 0 {
                fell_back = true;
                break;
            }
        }
        assert!(fell_back, "retirement pressure must trip rung 3");
        assert!(cc.ras_stats().lines_retired >= 2);
    }

    #[test]
    fn mid_op_snapshot_resumes_bit_identically() {
        let hosts = 4;
        let inputs = gradients(hosts, 512, 41);
        let ready = vec![SimTime::ZERO; hosts];
        let fcfg = CollectiveFaultConfig {
            port_fault_rate: 0.25,
            seed: 7,
            ..CollectiveFaultConfig::off()
        };

        let mut golden = small_pool(hosts, fcfg);
        let (want, want_out) = walk(&mut golden, &inputs, &ready).unwrap();

        for cut in [1u64, 5, 9, 13] {
            let mut cc = small_pool(hosts, fcfg);
            let mut staged = inputs.clone();
            let mut op = cc.begin_all_reduce(&mut staged, &ready).unwrap();
            for _ in 0..cut {
                assert!(!cc.step_chunk(&mut op, None).unwrap());
            }
            // Serialize engine + in-flight op, drop both, rebuild.
            let engine_json = serde_json::to_string(&cc.snapshot()).unwrap();
            let op_json = serde_json::to_string(&op).unwrap();
            drop((cc, op));
            let snap: PoolCollectiveSnapshot = serde_json::from_str(&engine_json).unwrap();
            let mut cc = PoolCollective::restore(&snap).unwrap();
            let mut op: CollectiveOp = serde_json::from_str(&op_json).unwrap();
            cc.check_op(&op).unwrap();
            while !cc.step_chunk(&mut op, None).unwrap() {}
            let mut got = Vec::new();
            op.copy_result_into(&mut got);
            assert_eq!(got, want, "cut at chunk {cut}");
            assert_eq!(op.outcome(), Some(&want_out), "cut at chunk {cut}");
            assert_eq!(cc.snapshot(), golden.snapshot(), "cut at chunk {cut}");
        }
    }
}
