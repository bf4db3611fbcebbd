//! The multi-host training fabric: H hosts, each bringing its own
//! [`crate::cluster::ClusterSession`] device cluster to one shared CXL memory pool.
//!
//! Scaling out from [`crate::cluster`]'s "one box" takes exactly one new
//! mechanism: after every host's intra-host gradient fence, the per-host
//! pooled accumulators must agree globally. The fabric stages each host's
//! accumulator bytes through the pool and runs the pool-staged
//! [`PoolCollective`] all-reduce (one staged write + H−1 direct reads,
//! CCCL-style) — no ring of point-to-point hops. The globally reduced
//! gradient and its running checksum live at the **fabric** level; no
//! per-host cluster state changes shape, which buys two anchors
//! structurally:
//!
//! - an H=1 fabric never touches the collective datapath, so its single
//!   host report is **byte-identical** to the cluster path's
//!   (the `scaling_sweep` path);
//! - host 0 of *any* fabric is seeded exactly like a standalone cluster
//!   ([`ClusterDriver::for_host`]), so its report stays byte-identical at
//!   every H — the collective sits beside the hosts' physics, never
//!   inside it, just as the intra-host arbiter sits beside the device
//!   sessions.
//!
//! Each step: pending host readmission → per-host grad fence →
//! inter-host all-reduce (the fabric's `AfterGradFence` boundary,
//! collective state included in snapshots) → per-host activation check →
//! one parameter update drawn from the lowest live host's pool stream and
//! broadcast to every live host. The whole fabric kills and resumes at
//! any [`StepBoundary`] through the same versioned snapshot envelope as a
//! single cluster, byte-identically, and at any chunk boundary inside the
//! all-reduce ([`FabricDriver::run_step_until_chunk`]).
//!
//! The same driver runs the chaos workloads of [`crate::fabric_chaos`]:
//! a host killed at a chunk boundary is declared by the collective's
//! deadline watchdog, quarantined, and the survivors regroup H→H−1 once
//! the declaration lands; a scheduled readmission rebuilds the lost host
//! from the workload seed, fast-forwards its content streams
//! ([`ClusterDriver::fast_forward_steps`]), and catches it up from the
//! pooled parameter state so it converges byte-identically.

use crate::cluster::{ClusterDriver, ClusterReport, ClusterWorkload, ClusterWorkloadSnapshot};
use crate::fabric_chaos::{ChaosDetection, ChunkPoint, FabricChaosWorkload, HostKillSpec};
use crate::resume::{run_uninterrupted, StepBoundary, StepDriver, StepWorkload};
use crate::session::SessionError;
use serde::{Deserialize, Serialize};
use std::fmt;
use teco_cxl::{
    CollectiveConfig, CollectiveError, CollectiveFaultConfig, CollectiveOp, HostKill,
    PoolCollective, PoolCollectiveSnapshot,
};
use teco_mem::{LineData, LINE_BYTES};
use teco_sim::SimTime;

/// FNV-1a-64 offset basis and prime (the fabric's checksums).
const FNV_SEED: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x1000_0000_01b3;

/// Typed failure of the multi-host fabric, carrying host/step/time
/// context. Wraps the per-host session errors and the collective
/// layer's typed errors so nothing on the fabric path panics on a
/// non-boundary kill point.
#[derive(Debug, Clone, PartialEq)]
pub enum FabricError {
    /// A per-host cluster operation failed.
    Session(SessionError),
    /// The inter-host collective failed.
    Collective(CollectiveError),
    /// A host was declared lost and nobody recovered it.
    HostLost {
        /// The lost host.
        host: u64,
        /// The training step the loss surfaced in.
        step: u64,
        /// Simulated time of the declaration, in nanoseconds.
        time_ns: u64,
    },
    /// The workload or harness parameters are unusable.
    Config(String),
}

impl fmt::Display for FabricError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FabricError::Session(e) => write!(f, "fabric host session error: {e}"),
            FabricError::Collective(e) => write!(f, "fabric collective error: {e}"),
            FabricError::HostLost { host, step, time_ns } => {
                write!(f, "host {host} lost at step {step} ({time_ns} ns) with no recovery")
            }
            FabricError::Config(msg) => write!(f, "fabric config error: {msg}"),
        }
    }
}

impl std::error::Error for FabricError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            FabricError::Session(e) => Some(e),
            FabricError::Collective(e) => Some(e),
            _ => None,
        }
    }
}

impl From<SessionError> for FabricError {
    fn from(e: SessionError) -> Self {
        FabricError::Session(e)
    }
}

impl From<CollectiveError> for FabricError {
    fn from(e: CollectiveError) -> Self {
        FabricError::Collective(e)
    }
}

/// A fixed-seed multi-host workload the harness can run, kill, and
/// resume.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct FabricWorkload {
    /// The per-host cluster workload, replicated across hosts (host 0
    /// keeps the standalone seeding; hosts 1.. fork their content
    /// streams by host label).
    pub base: ClusterWorkload,
    /// Hosts sharing the pool.
    pub hosts: usize,
    /// Collective-layer tuning; `collective.hosts` must equal `hosts`.
    pub collective: CollectiveConfig,
}

impl FabricWorkload {
    /// A small default workload: `hosts` hosts of
    /// [`ClusterWorkload::small`] clusters.
    pub fn small(hosts: usize, devices: usize, seed: u64) -> Self {
        FabricWorkload {
            base: ClusterWorkload::small(devices, seed),
            hosts,
            collective: CollectiveConfig::for_hosts(hosts),
        }
    }

    fn validate(&self) -> Result<(), FabricError> {
        if self.hosts == 0 {
            return Err(FabricError::Config("fabric needs at least one host".into()));
        }
        if self.collective.hosts != self.hosts {
            return Err(FabricError::Config(format!(
                "collective config models {} hosts but the fabric has {}",
                self.collective.hosts, self.hosts
            )));
        }
        Ok(())
    }
}

impl StepWorkload for FabricWorkload {
    type Driver = FabricDriver;
    fn steps(&self) -> u64 {
        self.base.steps
    }
}

/// A readmission scheduled by a watchdog detection.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct PendingReadmit {
    /// The lost host.
    pub host: u64,
    /// The step at whose start it rejoins.
    pub step: u64,
}

/// Live driver state for a [`FabricWorkload`] (what a kill destroys),
/// with the chaos machinery of [`FabricChaosWorkload`] in the loop:
/// live-host flags, a scheduled host kill absorbed as quarantine plus
/// survivor regroup, hot readmission, per-step gradient and parameter
/// checksums, and suspension at a [`ChunkPoint`] inside the all-reduce.
/// A plain [`FabricDriver::new`] fabric arms none of it.
#[derive(Debug)]
pub struct FabricDriver {
    /// The per-host workload a readmitted host is rebuilt from.
    base: ClusterWorkload,
    kill: Option<HostKillSpec>,
    readmit_after: Option<u64>,
    hosts: Vec<ClusterDriver>,
    alive: Vec<bool>,
    collective: PoolCollective,
    /// The all-reduce suspended at a chunk boundary, if any.
    op: Option<CollectiveOp>,
    /// Fabric-clock excess over the live host clusters' clocks: how far
    /// the inter-host exchanges have pushed the global timeline past the
    /// slowest host's own physics.
    lag: SimTime,
    /// Total time spent in inter-host exchanges (barrier to completion).
    exchange_time: SimTime,
    /// The latest globally reduced gradient accumulator.
    global_grads: Vec<u8>,
    /// FNV-1a-64 folded over every step's reduced gradient bytes.
    grad_checksum: u64,
    /// FNV-1a-64 of each step's reduced gradient.
    step_sums: Vec<u64>,
    /// FNV-1a-64 folded over every broadcast parameter line.
    param_checksum: u64,
    detections: Vec<ChaosDetection>,
    steps_done: u64,
    readmit: Option<PendingReadmit>,
    /// Per-host staging buffers, lent to the collective op (capacity
    /// reused across steps).
    staged: Vec<Vec<u8>>,
    ready_buf: Vec<SimTime>,
    /// The parameter lines broadcast by the most recent step.
    param_buf: Vec<LineData>,
}

impl FabricDriver {
    /// Build every host's cluster and the fault-free pool collective.
    pub fn new(w: &FabricWorkload) -> Result<Self, FabricError> {
        Self::build(w, CollectiveFaultConfig::off(), None, None)
    }

    /// Build a fabric with `w`'s fault posture, kill schedule and
    /// readmission policy armed.
    pub fn chaos(w: &FabricChaosWorkload) -> Result<Self, FabricError> {
        w.validate()?;
        Self::build(&w.fabric, w.faults, w.kill, w.readmit_after)
    }

    fn build(
        w: &FabricWorkload,
        faults: CollectiveFaultConfig,
        kill: Option<HostKillSpec>,
        readmit_after: Option<u64>,
    ) -> Result<Self, FabricError> {
        w.validate()?;
        let hosts = (0..w.hosts)
            .map(|h| ClusterDriver::for_host(&w.base, h))
            .collect::<Result<Vec<_>, SessionError>>()?;
        Ok(FabricDriver {
            base: w.base.clone(),
            kill,
            readmit_after,
            alive: vec![true; hosts.len()],
            hosts,
            collective: PoolCollective::with_faults(w.collective, faults)?,
            op: None,
            lag: SimTime::ZERO,
            exchange_time: SimTime::ZERO,
            global_grads: Vec::new(),
            grad_checksum: FNV_SEED,
            step_sums: Vec::new(),
            param_checksum: FNV_SEED,
            detections: Vec::new(),
            steps_done: 0,
            readmit: None,
            staged: Vec::new(),
            ready_buf: Vec::new(),
            param_buf: Vec::new(),
        })
    }

    /// The per-host cluster drivers (a lost host reports its last
    /// pre-loss state).
    pub fn hosts(&self) -> &[ClusterDriver] {
        &self.hosts
    }
    /// The pool collective engine.
    pub fn collective(&self) -> &PoolCollective {
        &self.collective
    }
    /// Hosts currently alive.
    pub fn live_hosts(&self) -> u64 {
        self.alive.iter().filter(|&&a| a).count() as u64
    }
    /// The latest globally reduced gradient bytes.
    pub fn global_grads(&self) -> &[u8] {
        &self.global_grads
    }
    /// FNV-1a-64 of each completed exchange's reduced gradient.
    pub fn step_grad_checksums(&self) -> &[u64] {
        &self.step_sums
    }
    /// FNV-1a-64 folded over every broadcast parameter line, in step
    /// order.
    pub fn param_checksum(&self) -> u64 {
        self.param_checksum
    }
    /// Watchdog detections, in order.
    pub fn detections(&self) -> &[ChaosDetection] {
        &self.detections
    }
    /// The parameter lines broadcast by the most recent step (empty
    /// before the first broadcast).
    pub fn last_params(&self) -> &[LineData] {
        &self.param_buf
    }

    /// The fabric clock: the slowest live host's own physics plus the
    /// accumulated inter-host exchange excess.
    pub fn fabric_time(&self) -> SimTime {
        self.max_live_time() + self.lag
    }

    fn max_live_time(&self) -> SimTime {
        self.hosts
            .iter()
            .zip(&self.alive)
            .filter(|&(_, &a)| a)
            .map(|(d, _)| d.cluster().cluster_time())
            .fold(SimTime::ZERO, SimTime::max)
    }

    /// Hot readmission: rebuild the lost host from the workload seed,
    /// fast-forward its content streams past every step it missed, and
    /// catch its replicas up from the pooled parameter state. From here
    /// on it pushes exactly the lines it would have pushed had it never
    /// died — byte-identical convergence.
    fn maybe_readmit(&mut self) -> Result<(), FabricError> {
        let Some(p) = self.readmit.filter(|p| p.step == self.steps_done) else {
            return Ok(());
        };
        let host = p.host as usize;
        let mut fresh = ClusterDriver::for_host(&self.base, host)?;
        fresh.fast_forward_steps(self.steps_done);
        if !self.param_buf.is_empty() {
            fresh.broadcast_lines(&self.param_buf)?;
        }
        // After the catch-up broadcast: the next activation check must
        // see the same step index a never-failed host's would, so the
        // DBA schedule (and the stale bytes its dirty-byte merge leaves
        // behind) lines up byte-for-byte.
        fresh.align_step(self.steps_done);
        self.hosts[host] = fresh;
        self.alive[host] = true;
        self.collective.readmit_host(host);
        self.readmit = None;
        Ok(())
    }

    /// Each live host's exchange entry time: its cluster clock plus the
    /// fabric lag, no earlier than `not_before`.
    fn ready_times(&mut self, not_before: SimTime) {
        self.ready_buf.clear();
        for (host, &alive) in self.hosts.iter().zip(&self.alive) {
            let ready = host.cluster().cluster_time() + self.lag;
            self.ready_buf.push(if alive { ready.max(not_before) } else { SimTime::ZERO });
        }
    }

    /// Stage the live hosts' accumulators and all-reduce them through the
    /// pool one chunk at a time (or resume the suspended op). A watchdog
    /// [`CollectiveError::HostDown`] is absorbed here: quarantine, then
    /// regroup over the survivors once the watchdog has declared the
    /// loss. With `suspend`, stop at that chunk boundary of this step's
    /// op and keep it in flight. Returns whether the exchange completed.
    fn exchange(&mut self, suspend: Option<ChunkPoint>) -> Result<bool, FabricError> {
        let n = self.hosts.len();
        self.staged.resize_with(n, Vec::new);
        let mut op = match self.op.take() {
            Some(op) => op,
            None => {
                for h in (0..n).filter(|&h| self.alive[h]) {
                    self.hosts[h].cluster().pool().copy_grad_bytes_into(&mut self.staged[h]);
                }
                self.ready_times(SimTime::ZERO);
                self.collective.begin_all_reduce(&mut self.staged, &self.ready_buf)?
            }
        };
        let kill = self.kill.filter(|k| k.step == self.steps_done).map(|k| HostKill {
            host: k.host,
            phase: k.phase,
            chunk: k.chunk,
        });
        loop {
            let at = (self.steps_done, op.phase, op.flat);
            if suspend.is_some_and(|s| (s.step, s.phase, s.chunk) == at && op.outcome().is_none()) {
                self.op = Some(op);
                return Ok(false);
            }
            match self.collective.step_chunk(&mut op, kill.as_ref()) {
                Ok(true) => break,
                Ok(false) => {}
                Err(CollectiveError::HostDown { host, phase, chunk, time_ns }) => {
                    let step = self.steps_done;
                    self.detections.push(ChaosDetection { host, step, phase, chunk, time_ns });
                    self.collective.quarantine_host(host as usize);
                    self.alive[host as usize] = false;
                    if let Some(after) = self.readmit_after {
                        self.readmit = Some(PendingReadmit { host, step: step + 1 + after });
                    }
                    let declared = SimTime::from_ns(time_ns);
                    self.exchange_time += declared.saturating_sub(op.start);
                    op.release_inputs(&mut self.staged);
                    self.ready_times(declared);
                    op = self.collective.begin_all_reduce(&mut self.staged, &self.ready_buf)?;
                }
                Err(e) => return Err(e.into()),
            }
        }
        op.copy_result_into(&mut self.global_grads);
        op.release_inputs(&mut self.staged);
        let outcome = op
            .outcome()
            .ok_or_else(|| FabricError::Config("all-reduce finished without an outcome".into()))?;
        self.lag = outcome.completion.saturating_sub(self.max_live_time());
        self.exchange_time += outcome.completion - outcome.start;
        let (mut running, mut step) = (self.grad_checksum, FNV_SEED);
        for &b in &self.global_grads {
            running = (running ^ b as u64).wrapping_mul(FNV_PRIME);
            step = (step ^ b as u64).wrapping_mul(FNV_PRIME);
        }
        self.grad_checksum = running;
        self.step_sums.push(step);
        Ok(true)
    }

    /// Pending readmission, then every live host's gradient half-step.
    fn run_grads(&mut self) -> Result<(), FabricError> {
        self.maybe_readmit()?;
        for (host, &alive) in self.hosts.iter_mut().zip(&self.alive) {
            if alive {
                host.run_step_until(StepBoundary::AfterGradFence)?;
            }
        }
        Ok(())
    }

    fn check_activation(&mut self) {
        for (host, &alive) in self.hosts.iter_mut().zip(&self.alive) {
            if alive {
                host.check_activation();
            }
        }
    }

    /// One globally shared parameter update: drawn from the lowest live
    /// host's pool stream, broadcast to every live host's giant caches.
    fn broadcast(&mut self) -> Result<(), FabricError> {
        let drawer =
            self.alive.iter().position(|&a| a).ok_or_else(|| {
                FabricError::Config("no live hosts left to draw parameters".into())
            })?;
        let mut lines = std::mem::take(&mut self.param_buf);
        self.hosts[drawer].draw_param_lines(&mut lines);
        for line in &lines {
            for &b in line.bytes() {
                self.param_checksum = (self.param_checksum ^ b as u64).wrapping_mul(FNV_PRIME);
            }
        }
        for (host, &alive) in self.hosts.iter_mut().zip(&self.alive) {
            if alive {
                host.broadcast_lines(&lines)?;
            }
        }
        self.param_buf = lines;
        self.steps_done += 1;
        Ok(())
    }

    /// Run the current step from its start up to (and including) `until`.
    /// The fabric's `AfterGradFence` boundary includes the inter-host
    /// exchange.
    pub fn run_step_until(&mut self, until: StepBoundary) -> Result<(), FabricError> {
        self.run_grads()?;
        self.exchange(None)?;
        if until == StepBoundary::AfterGradFence {
            return Ok(());
        }
        self.check_activation();
        if until == StepBoundary::AfterActivation {
            return Ok(());
        }
        self.broadcast()
    }

    /// Run the current step (which must be `at.step`) into its
    /// all-reduce and suspend at chunk boundary `at`, holding the
    /// in-flight op (it travels in [`FabricDriver::capture`]). Returns
    /// `false`, with the step run to `AfterGradFence`, if the op
    /// completes without reaching `at`. Either way,
    /// `finish_step_from(AfterGradFence)` finishes the step.
    pub fn run_step_until_chunk(&mut self, at: ChunkPoint) -> Result<bool, FabricError> {
        if at.step != self.steps_done {
            return Err(FabricError::Config(format!(
                "chunk point targets step {} but the fabric is at step {}",
                at.step, self.steps_done
            )));
        }
        self.run_grads()?;
        Ok(!self.exchange(Some(at))?)
    }

    /// Finish the current step from `after` (exclusive) to its end. From
    /// `AfterGradFence` this first completes a suspended all-reduce.
    pub fn finish_step_from(&mut self, after: StepBoundary) -> Result<(), FabricError> {
        match after {
            StepBoundary::AfterParamFence => Ok(()), // step completed pre-kill
            StepBoundary::AfterGradFence => {
                if self.op.is_some() {
                    self.exchange(None)?;
                }
                self.check_activation();
                self.broadcast()
            }
            StepBoundary::AfterActivation => self.broadcast(),
        }
    }

    /// Run one full step.
    pub fn run_step(&mut self) -> Result<(), FabricError> {
        self.run_step_until(StepBoundary::AfterParamFence)
    }

    /// The fabric report at the current step.
    pub fn report(&self) -> FabricReport {
        let stats = self.collective.stats();
        FabricReport {
            hosts: self.hosts.len() as u64,
            steps: self.steps_done,
            fabric_time_ns: self.fabric_time().as_ns(),
            exchange_ns: self.exchange_time.as_ns(),
            all_reduces: stats.all_reduces,
            pool_port_bytes: stats.port_bytes,
            pool_media_bytes: stats.media_bytes,
            fanin_saved_bytes: self.collective.media().fanin_saved_bytes(),
            global_grad_checksum: self.grad_checksum,
            host_reports: self.hosts.iter().map(|d| d.report()).collect(),
        }
    }
}

impl StepDriver for FabricDriver {
    type Workload = FabricWorkload;
    type Snapshot = FabricSnapshot;
    type Report = FabricReport;
    type Error = FabricError;

    fn new(w: &FabricWorkload) -> Result<Self, FabricError> {
        FabricDriver::new(w)
    }

    fn step(&self) -> u64 {
        self.steps_done
    }

    fn run_step_until(&mut self, until: StepBoundary) -> Result<(), FabricError> {
        FabricDriver::run_step_until(self, until)
    }

    fn finish_step_from(&mut self, after: StepBoundary) -> Result<(), FabricError> {
        FabricDriver::finish_step_from(self, after)
    }

    /// Capture the fabric whole, including a suspended all-reduce.
    fn capture(&self) -> FabricSnapshot {
        let mut last_params = Vec::with_capacity(self.param_buf.len() * LINE_BYTES);
        for line in &self.param_buf {
            last_params.extend_from_slice(line.bytes());
        }
        FabricSnapshot {
            base: self.base.clone(),
            kill: self.kill,
            readmit_after: self.readmit_after,
            hosts: self.hosts.iter().map(|d| d.capture()).collect(),
            alive: self.alive.clone(),
            collective: self.collective.snapshot(),
            op: self.op.clone(),
            lag: self.lag,
            exchange_time: self.exchange_time,
            global_grads: self.global_grads.clone(),
            grad_checksum: self.grad_checksum,
            step_sums: self.step_sums.clone(),
            param_checksum: self.param_checksum,
            last_params,
            detections: self.detections.clone(),
            steps_done: self.steps_done,
            readmit: self.readmit,
        }
    }

    /// Rebuild a fabric from a captured state. A snapshot whose shapes
    /// disagree — host counts, quarantine flags, or an in-flight op that
    /// does not fit the engine — is a [`FabricError::Config`].
    fn restore(s: &FabricSnapshot) -> Result<Self, FabricError> {
        let n = s.hosts.len();
        let collective = PoolCollective::restore(&s.collective)?;
        let bad = |msg: String| Err(FabricError::Config(format!("fabric snapshot: {msg}")));
        if n == 0 || s.alive.len() != n || collective.config().hosts != n {
            return bad(format!(
                "{n} hosts, {} live flags, collective over {}",
                s.alive.len(),
                collective.config().hosts
            ));
        }
        if (0..n).any(|h| s.alive[h] == collective.is_down(h)) {
            return bad("live flags disagree with the collective's quarantine".into());
        }
        let targets = s.kill.map(|k| k.host).into_iter().chain(s.readmit.map(|p| p.host));
        if let Some(h) = targets.into_iter().find(|&h| h as usize >= n) {
            return bad(format!("kill or readmission targets host {h} of {n}"));
        }
        if let Some(op) = &s.op {
            if let Err(e) = collective.check_op(op) {
                return bad(e.to_string());
            }
        }
        Ok(FabricDriver {
            base: s.base.clone(),
            kill: s.kill,
            readmit_after: s.readmit_after,
            hosts: s
                .hosts
                .iter()
                .map(ClusterDriver::restore)
                .collect::<Result<Vec<_>, SessionError>>()?,
            alive: s.alive.clone(),
            collective,
            op: s.op.clone(),
            lag: s.lag,
            exchange_time: s.exchange_time,
            global_grads: s.global_grads.clone(),
            grad_checksum: s.grad_checksum,
            step_sums: s.step_sums.clone(),
            param_checksum: s.param_checksum,
            detections: s.detections.clone(),
            steps_done: s.steps_done,
            readmit: s.readmit,
            staged: Vec::new(),
            ready_buf: Vec::new(),
            param_buf: s
                .last_params
                .chunks_exact(LINE_BYTES)
                .map(|c| {
                    let mut l = LineData::zeroed();
                    l.bytes_mut().copy_from_slice(c);
                    l
                })
                .collect(),
        })
    }

    fn report(&self) -> FabricReport {
        FabricDriver::report(self)
    }

    fn audit_status(&self) -> Option<String> {
        self.hosts.iter().find_map(|h| h.cluster().audit_status())
    }

    fn config_error(msg: String) -> FabricError {
        FabricError::Config(msg)
    }
}

/// Everything the fabric holds between steps, captured whole —
/// including the all-reduce when suspended at a chunk boundary.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct FabricSnapshot {
    /// The per-host workload a readmitted host is rebuilt from.
    pub base: ClusterWorkload,
    /// Scheduled host kill.
    pub kill: Option<HostKillSpec>,
    /// Steps between a detection and readmission.
    pub readmit_after: Option<u64>,
    /// Every host cluster's checkpoint image.
    pub hosts: Vec<ClusterWorkloadSnapshot>,
    /// Per-host live flags.
    pub alive: Vec<bool>,
    /// The collective engine's state (media arbiter, counters, fault
    /// state).
    pub collective: PoolCollectiveSnapshot,
    /// The suspended all-reduce, if any.
    pub op: Option<CollectiveOp>,
    /// Fabric-clock excess over the host clocks.
    pub lag: SimTime,
    /// Accumulated exchange time.
    pub exchange_time: SimTime,
    /// The latest globally reduced gradient.
    pub global_grads: Vec<u8>,
    /// Running FNV-1a-64 over every step's reduced gradient.
    pub grad_checksum: u64,
    /// FNV-1a-64 of each step's reduced gradient.
    pub step_sums: Vec<u64>,
    /// Running FNV-1a-64 over every broadcast parameter line.
    pub param_checksum: u64,
    /// The last broadcast's parameter lines, flattened to bytes.
    pub last_params: Vec<u8>,
    /// Watchdog detections so far.
    pub detections: Vec<ChaosDetection>,
    /// Completed steps.
    pub steps_done: u64,
    /// A scheduled readmission.
    pub readmit: Option<PendingReadmit>,
}

/// The fabric run's observable result: serializing this to JSON is the
/// byte-identity oracle for fabric snapshot/resume, and `host_reports[0]`
/// is byte-identical to the standalone cluster path at **every** H (H=1
/// additionally makes the whole fabric equivalent to that path).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FabricReport {
    /// Hosts in the fabric.
    pub hosts: u64,
    /// Steps completed.
    pub steps: u64,
    /// The fabric clock in nanoseconds.
    pub fabric_time_ns: u64,
    /// Time spent in inter-host exchanges.
    pub exchange_ns: u64,
    /// Pool-staged all-reduces executed.
    pub all_reduces: u64,
    /// Host↔pool port bytes the collectives moved.
    pub pool_port_bytes: u64,
    /// Pool-DRAM bytes served (fan-in deduplicated).
    pub pool_media_bytes: u64,
    /// Media bytes the gather fan-in avoided re-reading.
    pub fanin_saved_bytes: u64,
    /// Running checksum of every step's globally reduced gradient.
    pub global_grad_checksum: u64,
    /// Per-host cluster reports.
    pub host_reports: Vec<ClusterReport>,
}

/// Serialized `host_reports[0]` of an H-host fabric equals the standalone
/// cluster report of the same base workload — exposed as a helper so the
/// bench sweep can assert the anchor inside every row.
pub fn host0_matches_cluster_path(w: &FabricWorkload) -> Result<bool, FabricError> {
    let fabric = run_uninterrupted(w)?;
    let cluster = run_uninterrupted(&w.base)?;
    let a = serde_json::to_string(&fabric.report.host_reports[0])
        .map_err(|e| FabricError::Config(e.to_string()))?;
    let b =
        serde_json::to_string(&cluster.report).map_err(|e| FabricError::Config(e.to_string()))?;
    Ok(a == b)
}

#[cfg(test)]
mod tests {
    use super::*;
    use teco_cxl::dba::scalar;

    #[test]
    fn h1_fabric_report_is_byte_identical_to_the_cluster_path() {
        let w = FabricWorkload::small(1, 2, 42);
        let fabric = run_uninterrupted(&w).unwrap();
        let cluster = run_uninterrupted(&w.base).unwrap();
        assert_eq!(
            serde_json::to_string(&fabric.report.host_reports[0]).unwrap(),
            serde_json::to_string(&cluster.report).unwrap()
        );
        assert_eq!(fabric.report.pool_port_bytes, 0, "H = 1 moves nothing inter-host");
        assert_eq!(fabric.report.exchange_ns, 0);
        assert_eq!(
            fabric.report.fabric_time_ns, cluster.report.cluster_time_ns,
            "H = 1 fabric clock is the cluster clock"
        );
    }

    #[test]
    fn host0_stays_unperturbed_at_every_host_count() {
        for hosts in [2usize, 4] {
            let w = FabricWorkload::small(hosts, 2, 7);
            assert!(
                host0_matches_cluster_path(&w).unwrap(),
                "host 0 of an H={hosts} fabric must match the standalone cluster"
            );
        }
    }

    #[test]
    fn peer_hosts_train_distinct_shards_but_share_parameters() {
        let w = FabricWorkload::small(3, 2, 5);
        let r = run_uninterrupted(&w).unwrap().report;
        // Different gradient content per host → different pool checksums…
        assert_ne!(r.host_reports[0].pool_checksum, r.host_reports[1].pool_checksum);
        assert_ne!(r.host_reports[1].pool_checksum, r.host_reports[2].pool_checksum);
        // …but the same physics shape: identical step counts and volumes.
        for hr in &r.host_reports {
            assert_eq!(hr.steps, r.host_reports[0].steps);
            assert_eq!(hr.reduced_lines, r.host_reports[0].reduced_lines);
            assert_eq!(hr.cluster_time_ns, r.host_reports[0].cluster_time_ns);
        }
        assert_eq!(r.all_reduces, r.steps);
        assert!(r.exchange_ns > 0);
    }

    #[test]
    fn global_gradient_is_the_wrapping_sum_of_every_hosts_accumulator() {
        let w = FabricWorkload::small(4, 2, 11);
        let mut d = FabricDriver::new(&w).unwrap();
        for _ in 0..w.base.steps {
            d.run_step().unwrap();
        }
        let mut want: Option<Vec<u8>> = None;
        for host in d.hosts() {
            let mut bytes = Vec::new();
            host.cluster().pool().copy_grad_bytes_into(&mut bytes);
            match &mut want {
                None => want = Some(bytes),
                Some(acc) => scalar::reduce_sum_words(&bytes, acc),
            }
        }
        assert_eq!(d.global_grads(), want.unwrap().as_slice());
    }

    #[test]
    fn fabric_runs_are_deterministic() {
        let w = FabricWorkload::small(2, 2, 9);
        let a = run_uninterrupted(&w).unwrap();
        let b = run_uninterrupted(&w).unwrap();
        assert_eq!(a, b);
        assert_eq!(
            serde_json::to_string(&a.report).unwrap(),
            serde_json::to_string(&b.report).unwrap()
        );
    }
}
