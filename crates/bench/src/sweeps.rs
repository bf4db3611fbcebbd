//! The eight experiment sweeps behind `bench_results/*.json`, behind one
//! [`Sweep`] trait and one [`registry`].
//!
//! A sweep is a grid of independent cells, one row per cell, one markdown
//! table, and a gate ([`Sweep::divergences`]) its rows must pass. The
//! `sweep` binary runs any of them by name, `generate_report` renders their
//! tables into REPORT.md, and `tests/determinism.rs` pins serial against
//! parallel execution for every registered sweep. Every cell computes its
//! own baseline, so cells run on any worker in any order without sharing
//! state and the rows never depend on the worker count.

use serde::{Deserialize, Serialize, Value};
use teco_core::{
    run_churn, run_fabric_chaos, run_resumed, run_uninterrupted, ChurnWorkload, ClusterConfig,
    ClusterReport, ClusterWorkload, FabricChaosWorkload, FabricWorkload, HostKillSpec, KillPoint,
    PlacementPolicy, ResumeWorkload, StepBoundary, TecoConfig, TecoSession, TieredPolicy,
};
use teco_cxl::{
    ring_all_reduce, CollectiveConfig, CollectivePhase, FaultConfig, PoolCollective, RasConfig,
};
use teco_dl::ModelSpec;
use teco_mem::{Addr, LineData};
use teco_offload::{autotune_giant_cache, md_table, sweep_with_workers};
use teco_sim::{SimRng, SimTime};

// ---------------------------------------------------------------------------
// The trait, the runner, and the registry
// ---------------------------------------------------------------------------

/// One experiment sweep: a grid of independent cells, the row computed
/// per cell, one markdown table, and the gate its rows must pass.
pub trait Sweep {
    /// The sweep's name: the `sweep` binary's argument and the stem of
    /// `bench_results/<NAME>.json`.
    const NAME: &'static str;
    /// One cell of the grid.
    type Cell: Sync;
    /// The row computed for one cell.
    type Row: Serialize + Send;
    /// The grid, in the order the JSON carries.
    fn grid() -> Vec<Self::Cell>;
    /// Compute one cell's row, including any baseline it compares against.
    fn row(cell: &Self::Cell) -> Self::Row;
    /// The markdown table REPORT.md renders and the `sweep` binary prints.
    fn table(rows: &[Self::Row]) -> String;
    /// The gate: one description per failed check (empty = pass).
    fn divergences(_rows: &[Self::Row]) -> Vec<String> {
        Vec::new()
    }
    /// The document written to `bench_results/<NAME>.json`.
    fn json(rows: &[Self::Row]) -> Value {
        rows.to_value()
    }
}

/// Every row of `S`, computed on `workers` threads; any count returns the
/// same rows.
pub fn rows<S: Sweep>(workers: usize) -> Vec<S::Row> {
    sweep_with_workers(&S::grid(), workers, |_, cell| S::row(cell))
}

/// What one run of a sweep produced.
pub struct Outcome {
    /// The document for `bench_results/<name>.json`.
    pub json: Value,
    /// The sweep's markdown table.
    pub table: String,
    /// The gate's failures (empty = pass).
    pub divergences: Vec<String>,
}

/// A registered sweep with its cell and row types erased.
#[derive(Clone, Copy)]
pub struct Entry {
    /// [`Sweep::NAME`].
    pub name: &'static str,
    /// Compute every row on the given number of workers.
    pub run: fn(workers: usize) -> Outcome,
}

fn entry<S: Sweep>() -> Entry {
    Entry {
        name: S::NAME,
        run: |workers| {
            let rows = rows::<S>(workers);
            Outcome {
                json: S::json(&rows),
                table: S::table(&rows),
                divergences: S::divergences(&rows),
            }
        },
    }
}

/// Every sweep, in the order the `sweep` binary runs them.
pub fn registry() -> [Entry; 8] {
    [
        entry::<FaultSweep>(),
        entry::<ScalingSweep>(),
        entry::<DatapathSweep>(),
        entry::<ChurnSweep>(),
        entry::<CollectiveSweep>(),
        entry::<FabricChaosSweep>(),
        entry::<PlacementSweep>(),
        entry::<SoakResume>(),
    ]
}

/// A sweep's markdown section: `## title`, one table (or "No `noun` points
/// recorded." when there are no rows), then `note` when it is non-empty.
fn md_section(
    title: &str,
    noun: &str,
    header: &[&str],
    rows: Vec<Vec<String>>,
    note: &str,
) -> String {
    let mut out = format!("## {title}\n\n");
    if rows.is_empty() {
        out += &format!("No {noun} points recorded.\n\n");
        return out;
    }
    out += &md_table(header, &rows);
    if !note.is_empty() {
        out += &format!("\n{note}\n");
    }
    out
}

fn yes_no(ok: bool) -> String {
    if ok { "yes" } else { "NO" }.to_string()
}

/// FNV-1a 64 in hex over arbitrary bytes.
pub fn fnv1a_hex(bytes: &[u8]) -> String {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    format!("{h:016x}")
}

/// Parameter line for (step, i): the high halves of every word are fixed
/// across steps (the §III DBA premise), only the low two bytes change.
fn param_line(step: u64, i: u64) -> LineData {
    let mut l = LineData::zeroed();
    for w in 0..16usize {
        let hi = ((i as u32) << 16) ^ ((w as u32) << 26);
        let lo = (0x1000u32.wrapping_add(step as u32 * 257).wrapping_add(w as u32)) & 0xFFFF;
        l.set_word(w, (hi & 0xFFFF_0000) | lo);
    }
    l
}

fn grad_line(step: u64, i: u64) -> LineData {
    let mut l = LineData::zeroed();
    for w in 0..16usize {
        l.set_word(w, (step as u32) << 24 ^ (i as u32) << 8 ^ w as u32);
    }
    l
}

// ---------------------------------------------------------------------------
// Fault sweep
// ---------------------------------------------------------------------------

/// Lines per region in the fault workload.
pub const FAULT_LINES: u64 = 512;
/// Training steps in the fault workload.
pub const FAULT_ROUNDS: u64 = 4;
/// The fault injector's fixed seed.
pub const FAULT_SEED: u64 = 42;

/// The recovery cost of the link fault model across fault rates ×
/// `dirty_bytes`, each cell against its own fault-model-off run.
pub struct FaultSweep;

/// One cell of the fault sweep's grid.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct FaultCell {
    /// DBA dirty-byte setting.
    pub dirty_bytes: u8,
    /// The rate fed to every fault class.
    pub fault_rate: f64,
}

/// One row of `bench_results/fault_sweep.json`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FaultSweepRow {
    /// The rate fed to every fault class.
    pub fault_rate: f64,
    /// DBA dirty-byte setting.
    pub dirty_bytes: u8,
    /// End-of-run simulated time.
    pub sim_time_ns: u64,
    /// Simulated-time ratio versus the fault-model-off run.
    pub slowdown_vs_clean: f64,
    /// Payload bytes CPU→device.
    pub bytes_to_device: u64,
    /// Link CRC errors.
    pub crc_errors: u64,
    /// Link retries.
    pub link_retries: u64,
    /// Transient stalls.
    pub stalls: u64,
    /// DBA checksum mismatches caught receiver-side.
    pub checksum_mismatches: u64,
    /// Lines quarantined by poison containment.
    pub quarantined_lines: u64,
    /// Full-line retries (ladder step 2).
    pub full_line_retries: u64,
    /// Regions degraded to the software baseline (ladder step 3).
    pub degraded_regions: u64,
    /// Did the giant-cache end state stay bit-identical to the clean run?
    pub state_matches_clean: bool,
}

/// Run the fixed fault workload; returns the session, the end-of-run
/// simulated time, and the parameter region base.
pub fn run_fault_workload(dirty_bytes: u8, fault: FaultConfig) -> (TecoSession, SimTime, Addr) {
    let cfg = TecoConfig::default()
        .with_giant_cache_bytes(1 << 22)
        .with_dirty_bytes(dirty_bytes)
        .with_act_aft_steps(1) // step 0 establishes resident copies
        .with_fault(fault);
    let mut s = TecoSession::new(cfg).expect("valid config");
    let (_, pbase) = s.alloc_tensor("params", FAULT_LINES * 64).expect("alloc params");
    let (_, gbase) = s.alloc_tensor("grads", FAULT_LINES * 64).expect("alloc grads");
    let mut now = SimTime::ZERO;
    for step in 0..FAULT_ROUNDS {
        for i in 0..FAULT_LINES {
            // A gradient line lost to retry exhaustion is recorded in the
            // fault stats; the sweep keeps going.
            let _ = s.push_grad_line(Addr(gbase.0 + i * 64), grad_line(step, i), now);
        }
        now = s.cxlfence_grads(now);
        s.check_activation(step);
        let lines: Vec<LineData> = (0..FAULT_LINES).map(|i| param_line(step, i)).collect();
        s.push_param_lines(pbase, &lines, now).expect("param push");
        now = s.cxlfence_params(now);
    }
    (s, now, pbase)
}

fn state_matches(a: &TecoSession, ab: Addr, b: &TecoSession, bb: Addr) -> bool {
    (0..FAULT_LINES).all(|i| {
        a.device_read_line(Addr(ab.0 + i * 64)).ok() == b.device_read_line(Addr(bb.0 + i * 64)).ok()
    })
}

impl Sweep for FaultSweep {
    const NAME: &'static str = "fault_sweep";
    type Cell = FaultCell;
    type Row = FaultSweepRow;

    /// dirty ∈ {2, 4} × rate ∈ {0, 0.001, 0.01, 0.05}.
    fn grid() -> Vec<FaultCell> {
        let mut cells = Vec::new();
        for &dirty_bytes in &[2u8, 4] {
            for &fault_rate in &[0.0f64, 0.001, 0.01, 0.05] {
                cells.push(FaultCell { dirty_bytes, fault_rate });
            }
        }
        cells
    }

    fn row(cell: &FaultCell) -> FaultSweepRow {
        let (clean_s, clean_t, clean_b) = run_fault_workload(cell.dirty_bytes, FaultConfig::off());
        let fault = FaultConfig {
            crc_error_rate: cell.fault_rate,
            stall_rate: cell.fault_rate,
            stall_ns: 100,
            poison_rate: cell.fault_rate / 4.0,
            dba_checksum_error_rate: cell.fault_rate,
            retry_limit: 8,
            seed: FAULT_SEED,
            ..FaultConfig::off()
        };
        let (s, t, b) = run_fault_workload(cell.dirty_bytes, fault);
        let r = s.fault_report();
        FaultSweepRow {
            fault_rate: cell.fault_rate,
            dirty_bytes: cell.dirty_bytes,
            sim_time_ns: t.as_ns(),
            slowdown_vs_clean: t.as_ns() as f64 / clean_t.as_ns() as f64,
            bytes_to_device: s.stats().bytes_to_device,
            crc_errors: r.crc_errors,
            link_retries: r.retries,
            stalls: r.stalls,
            checksum_mismatches: r.checksum_mismatches,
            quarantined_lines: r.quarantined_lines,
            full_line_retries: r.full_line_retries,
            degraded_regions: r.degraded_regions,
            state_matches_clean: state_matches(&s, b, &clean_s, clean_b),
        }
    }

    fn table(rows: &[FaultSweepRow]) -> String {
        md_section(
            "Link fault sweep: recovery cost across fault rates \u{d7} dirty bytes",
            "fault",
            &[
                "rate",
                "dirty bytes",
                "sim ms",
                "slowdown",
                "retries",
                "checksum mismatches",
                "quarantined",
                "degraded",
                "state ok",
            ],
            rows.iter()
                .map(|r| {
                    vec![
                        r.fault_rate.to_string(),
                        r.dirty_bytes.to_string(),
                        format!("{:.3}", r.sim_time_ns as f64 / 1e6),
                        format!("{:.2}", r.slowdown_vs_clean),
                        r.link_retries.to_string(),
                        r.checksum_mismatches.to_string(),
                        r.quarantined_lines.to_string(),
                        r.degraded_regions.to_string(),
                        yes_no(r.state_matches_clean),
                    ]
                })
                .collect(),
            "Rate-0 rows are byte-identical to the fault-model-off baseline; nonzero\n\
             rates pay recovery time (retries, stalls, full-line resends) but the\n\
             giant-cache end state stays bit-identical to the clean run.",
        )
    }

    /// Every cell's giant-cache end state must equal its clean run's.
    fn divergences(rows: &[FaultSweepRow]) -> Vec<String> {
        rows.iter()
            .filter(|r| !r.state_matches_clean)
            .map(|r| {
                format!(
                    "rate={} dirty={}: giant-cache end state diverged from the clean run",
                    r.fault_rate, r.dirty_bytes
                )
            })
            .collect()
    }
}

// ---------------------------------------------------------------------------
// Scaling sweep
// ---------------------------------------------------------------------------

/// Device counts the scaling sweep covers.
pub const SCALING_DEVICES: [usize; 4] = [1, 2, 4, 8];
/// Per-device batch sizes the scaling sweep covers.
pub const SCALING_BATCHES: [u64; 3] = [4, 8, 16];
/// Steps per scaling run.
pub const SCALING_STEPS: u64 = 6;
/// Model size, in parameter cache lines (gradients match).
pub const SCALING_LINES: u64 = 512;
/// The content-stream seed.
pub const SCALING_SEED: u64 = 42;
/// Simulated compute per sample (forward+backward), in nanoseconds;
/// multiplied by the batch size. Kept small so the wire time is a visible
/// fraction of the step: per-device host waits then grow superlinearly
/// with N (round-robin serialization inside each gradient round) and
/// efficiency at N=8 recovers as the batch grows — compute hiding the
/// same contention — which is the weak-scaling trend the sweep exists to
/// show.
pub const SCALING_COMPUTE_NS_PER_SAMPLE: u64 = 500;

/// N accelerators data-parallel over a shared CXL pool, each cell against
/// its own one-device run. There is no paper baseline: the paper evaluates
/// one accelerator per coherence domain (see EXPERIMENTS.md).
pub struct ScalingSweep;

/// One cell of the scaling sweep's grid.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct ScalingCell {
    /// Devices sharing the pool.
    pub devices: usize,
    /// Per-device batch size.
    pub batch: u64,
}

/// The fixed-seed cluster workload for one cell.
pub fn scaling_workload(devices: usize, batch: u64) -> ClusterWorkload {
    ClusterWorkload {
        cfg: ClusterConfig::new(
            TecoConfig::default().with_act_aft_steps(1).with_giant_cache_bytes(1 << 22),
            devices,
        ),
        steps: SCALING_STEPS,
        param_lines: SCALING_LINES,
        grad_lines: SCALING_LINES,
        compute_ns_per_step: batch * SCALING_COMPUTE_NS_PER_SAMPLE,
        seed: SCALING_SEED,
    }
}

/// One row of `bench_results/scaling_sweep.json`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ScalingRow {
    /// Devices sharing the pool.
    pub devices: u64,
    /// Per-device batch size.
    pub batch: u64,
    /// Steps simulated.
    pub steps: u64,
    /// Model size in cache lines.
    pub model_lines: u64,
    /// End-to-end cluster time.
    pub cluster_time_ns: u64,
    /// The same workload on one device (each cell computes its own
    /// baseline, so rows are worker-independent).
    pub one_device_time_ns: u64,
    /// Throughput speedup versus one device: `N · t₁ / t_N`.
    pub speedup_vs_one: f64,
    /// Parallel efficiency: `speedup / N × 100`.
    pub efficiency_pct: f64,
    /// Total time devices waited on the shared host budget.
    pub host_wait_ns: u64,
    /// When the shared host budget drained.
    pub host_drained_ns: u64,
    /// Gradient bytes the devices pushed through the budget.
    pub host_bytes: u64,
    /// Bytes read from the pool for parameter broadcasts.
    pub broadcast_bytes: u64,
    /// Bytes the update-mode fan-out avoided reading.
    pub fanout_saved_bytes: u64,
    /// Device 0's end-state checksum (identical on every replica).
    pub device_checksum: u64,
    /// The pooled optimizer's end-state checksum.
    pub pool_checksum: u64,
}

fn cluster_report(devices: usize, batch: u64) -> ClusterReport {
    run_uninterrupted(&scaling_workload(devices, batch)).expect("scaling workload completes").report
}

impl Sweep for ScalingSweep {
    const NAME: &'static str = "scaling_sweep";
    type Cell = ScalingCell;
    type Row = ScalingRow;

    /// N ∈ {1, 2, 4, 8} × batch ∈ {4, 8, 16}, devices-major.
    fn grid() -> Vec<ScalingCell> {
        let mut cells = Vec::new();
        for &devices in &SCALING_DEVICES {
            for &batch in &SCALING_BATCHES {
                cells.push(ScalingCell { devices, batch });
            }
        }
        cells
    }

    fn row(cell: &ScalingCell) -> ScalingRow {
        let r = cluster_report(cell.devices, cell.batch);
        let one = if cell.devices == 1 { r.clone() } else { cluster_report(1, cell.batch) };
        let t1 = one.cluster_time_ns as f64;
        let tn = r.cluster_time_ns as f64;
        let speedup = cell.devices as f64 * t1 / tn;
        ScalingRow {
            devices: r.n_devices,
            batch: cell.batch,
            steps: r.steps,
            model_lines: SCALING_LINES,
            cluster_time_ns: r.cluster_time_ns,
            one_device_time_ns: one.cluster_time_ns,
            speedup_vs_one: speedup,
            efficiency_pct: speedup / cell.devices as f64 * 100.0,
            host_wait_ns: r.host.total_wait_ns,
            host_drained_ns: r.host.drained_ns,
            host_bytes: r.host.per_device.iter().map(|a| a.bytes).sum(),
            broadcast_bytes: r.host.broadcast_bytes,
            fanout_saved_bytes: r.host.fanout_saved_bytes,
            device_checksum: r.devices[0].device_checksum,
            pool_checksum: r.pool_checksum,
        }
    }

    fn table(rows: &[ScalingRow]) -> String {
        md_section(
            "Multi-device scaling over a shared CXL pool",
            "scaling",
            &[
                "devices",
                "batch",
                "cluster ms",
                "speedup",
                "efficiency",
                "host wait ms",
                "host drain ms",
                "fan-out saved MB",
            ],
            rows.iter()
                .map(|r| {
                    vec![
                        r.devices.to_string(),
                        r.batch.to_string(),
                        format!("{:.3}", r.cluster_time_ns as f64 / 1e6),
                        format!("{:.2}", r.speedup_vs_one),
                        format!("{:.1}%", r.efficiency_pct),
                        format!("{:.3}", r.host_wait_ns as f64 / 1e6),
                        format!("{:.3}", r.host_drained_ns as f64 / 1e6),
                        format!("{:.2}", r.fanout_saved_bytes as f64 / 1e6),
                    ]
                })
                .collect(),
            "Speedup counts shards processed per unit time versus the one-device run;\n\
             efficiency below 100% is host-budget contention (the shared DRAM pool\n\
             serializes gradient reduction once aggregate link bandwidth exceeds it).\n\
             Fan-out savings are the host reads the update-mode broadcast avoided.",
        )
    }
}

// ---------------------------------------------------------------------------
// Datapath sweep
// ---------------------------------------------------------------------------

/// Lines in the datapath sweep's parameter region, pushed as one bulk
/// run per round.
pub const DATAPATH_LINES: u64 = 5000;
/// Gradient lines per round (device→CPU direction).
pub const DATAPATH_GRAD_LINES: u64 = 256;
/// Training rounds per cell.
pub const DATAPATH_ROUNDS: u64 = 2;
/// The fault injector's fixed seed.
pub const DATAPATH_SEED: u64 = 1234;

/// One session workload (bulk parameter runs, a gradient stream back, two
/// fences per round) with the fault model off and on, under both protocol
/// modes, down to an FNV-1a digest of the serialized session snapshot.
pub struct DatapathSweep;

/// One cell of the datapath sweep's grid.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct DatapathCell {
    /// Fault model on?
    pub faulty: bool,
    /// Invalidation mode instead of the update protocol?
    pub invalidation: bool,
}

/// One row of `bench_results/datapath_sweep.json`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DatapathRow {
    /// Fault model on?
    pub faulty: bool,
    /// Invalidation mode?
    pub invalidation: bool,
    /// End-of-run simulated time.
    pub sim_time_ns: u64,
    /// Payload bytes CPU→device.
    pub bytes_to_device: u64,
    /// Payload bytes device→CPU.
    pub bytes_to_host: u64,
    /// Coherence control bytes CPU→device.
    pub coherence_control_bytes: u64,
    /// Snoop-filter occupancy at end of run.
    pub snoop_entries: usize,
    /// Snoop-filter high-water mark.
    pub snoop_peak: usize,
    /// Link retries (0 when the fault model is off).
    pub link_retries: u64,
    /// DBA checksum mismatches caught receiver-side.
    pub checksum_mismatches: u64,
    /// FNV-1a 64 over the serialized session snapshot — the byte-identity
    /// witness, cheap enough to commit in JSON.
    pub snapshot_digest: String,
}

impl Sweep for DatapathSweep {
    const NAME: &'static str = "datapath_sweep";
    type Cell = DatapathCell;
    type Row = DatapathRow;

    /// Protocol-major, then fault.
    fn grid() -> Vec<DatapathCell> {
        let mut cells = Vec::new();
        for &invalidation in &[false, true] {
            for &faulty in &[false, true] {
                cells.push(DatapathCell { faulty, invalidation });
            }
        }
        cells
    }

    fn row(cell: &DatapathCell) -> DatapathRow {
        let fault = if cell.faulty {
            FaultConfig {
                crc_error_rate: 0.01,
                stall_rate: 0.005,
                stall_ns: 60,
                poison_rate: 0.002,
                dba_checksum_error_rate: 0.01,
                retry_limit: 16,
                seed: DATAPATH_SEED,
                ..FaultConfig::off()
            }
        } else {
            FaultConfig::off()
        };
        let mut cfg = TecoConfig::default()
            .with_giant_cache_bytes(1 << 22)
            .with_dirty_bytes(2)
            .with_act_aft_steps(1)
            .with_fault(fault);
        if cell.invalidation {
            cfg = cfg.with_protocol(teco_cxl::ProtocolMode::Invalidation);
        }
        let mut s = TecoSession::new(cfg).expect("valid config");
        let (_, pbase) = s.alloc_tensor("params", DATAPATH_LINES * 64).expect("alloc params");
        let (_, gbase) = s.alloc_tensor("grads", DATAPATH_GRAD_LINES * 64).expect("alloc grads");
        let mut now = SimTime::ZERO;
        for step in 0..DATAPATH_ROUNDS {
            for i in 0..DATAPATH_GRAD_LINES {
                let _ = s.push_grad_line(Addr(gbase.0 + i * 64), grad_line(step, i), now);
            }
            now = s.cxlfence_grads(now);
            s.check_activation(step);
            let lines: Vec<LineData> = (0..DATAPATH_LINES).map(|i| param_line(step, i)).collect();
            s.push_param_lines(pbase, &lines, now).expect("param push");
            now = s.cxlfence_params(now);
        }
        let snap_json = serde_json::to_string(&s.snapshot()).expect("serialize snapshot");
        let r = s.fault_report();
        let snoop = s.coherence().snoop_filter().stats();
        DatapathRow {
            faulty: cell.faulty,
            invalidation: cell.invalidation,
            sim_time_ns: now.as_ns(),
            bytes_to_device: s.stats().bytes_to_device,
            bytes_to_host: s.stats().bytes_to_host,
            coherence_control_bytes: s.coherence().to_device.control_bytes,
            snoop_entries: snoop.entries,
            snoop_peak: snoop.peak_entries,
            link_retries: r.retries,
            checksum_mismatches: r.checksum_mismatches,
            snapshot_digest: fnv1a_hex(snap_json.as_bytes()),
        }
    }

    /// The digest column is FNV-1a over the serialized session snapshot,
    /// so any change to simulated state shows up as a changed digest.
    fn table(rows: &[DatapathRow]) -> String {
        md_section(
            "Datapath end state (faults \u{d7} protocol)",
            "datapath",
            &[
                "faults",
                "protocol",
                "sim \u{b5}s",
                "to-device bytes",
                "retries",
                "checksum mismatches",
                "snoop peak",
                "snapshot digest",
            ],
            rows.iter()
                .map(|r| {
                    vec![
                        if r.faulty { "on" } else { "off" }.to_string(),
                        if r.invalidation { "invalidation" } else { "update" }.to_string(),
                        format!("{:.3}", r.sim_time_ns as f64 / 1e3),
                        r.bytes_to_device.to_string(),
                        r.link_retries.to_string(),
                        r.checksum_mismatches.to_string(),
                        r.snoop_peak.to_string(),
                        format!("`{}`", r.snapshot_digest),
                    ]
                })
                .collect(),
            "",
        )
    }
}

// ---------------------------------------------------------------------------
// Churn sweep (fault domains: device loss × media faults × N)
// ---------------------------------------------------------------------------

/// Device counts the churn sweep covers (≥ 2: a device must be losable).
pub const CHURN_DEVICES: [usize; 2] = [2, 4];
/// Media-fault rates (persistent uncorrectable faults per scrub tick).
pub const CHURN_MEDIA_RATES: [f64; 2] = [0.0, 1.0];
/// Steps per churn run.
pub const CHURN_STEPS: u64 = 10;
/// Parameter lines per replica.
pub const CHURN_PARAM_LINES: u64 = 128;
/// Gradient lines per device shard.
pub const CHURN_GRAD_LINES: u64 = 32;
/// Step at whose start the kill fires (kill modes only).
pub const CHURN_KILL_STEP: u64 = 3;
/// Steps between watchdog detection and hot readmission (readmit mode).
pub const CHURN_READMIT_AFTER: u64 = 2;
/// The RAS fault injector's fixed seed.
pub const CHURN_RAS_SEED: u64 = 42;

/// Device loss and pool-media RAS over a shared pool: a killed device is
/// declared down by the fence-deadline watchdog, its shard reroutes
/// through the survivors, and in readmit mode it is rebuilt from the
/// pooled optimizer state; every cell must converge to its clean run.
pub struct ChurnSweep;

/// Failure schedule of one churn cell.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum KillMode {
    /// Never-failed run (the convergence baseline's shape).
    None,
    /// Kill one device; the cluster finishes at N−1.
    Lose,
    /// Kill one device, then hot-readmit it from the pooled state.
    Readmit,
}

impl KillMode {
    fn label(self) -> &'static str {
        match self {
            KillMode::None => "none",
            KillMode::Lose => "lose",
            KillMode::Readmit => "readmit",
        }
    }
}

/// One cell of the churn sweep's grid.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ChurnCell {
    /// Devices sharing the pool.
    pub devices: usize,
    /// Failure schedule.
    pub kill: KillMode,
    /// Persistent media faults per scrub tick (0 = RAS off).
    pub media_rate: f64,
}

/// The fixed churn workload for one cell. Content is formulaic (see
/// [`teco_core::churn`]), so a kill cell's end state is comparable by
/// checksum to its clean baseline.
pub fn churn_cell_workload(cell: &ChurnCell) -> ChurnWorkload {
    let mut base = TecoConfig::default().with_act_aft_steps(2).with_giant_cache_bytes(1 << 22);
    if cell.media_rate > 0.0 {
        base = base.with_ras(RasConfig {
            media_faults_per_tick: cell.media_rate,
            scrub_lines_per_tick: 16,
            spare_lines: 128,
            seed: CHURN_RAS_SEED,
        });
    }
    let mut w = ChurnWorkload {
        cfg: ClusterConfig::new(base, cell.devices),
        steps: CHURN_STEPS,
        param_lines: CHURN_PARAM_LINES,
        grad_lines: CHURN_GRAD_LINES,
        kills: Vec::new(),
        readmit_after: None,
    };
    match cell.kill {
        KillMode::None => {}
        KillMode::Lose => w = w.with_kill(cell.devices as u64 - 1, CHURN_KILL_STEP),
        KillMode::Readmit => {
            w = w
                .with_kill(cell.devices as u64 - 1, CHURN_KILL_STEP)
                .with_readmit_after(CHURN_READMIT_AFTER)
        }
    }
    w
}

/// One row of `bench_results/churn_sweep.json`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ChurnRow {
    /// Devices sharing the pool.
    pub devices: u64,
    /// Failure schedule: `none`, `lose`, or `readmit`.
    pub kill_mode: String,
    /// Persistent media faults per scrub tick.
    pub media_rate: f64,
    /// Steps simulated.
    pub steps: u64,
    /// Watchdog detections.
    pub down_events: u64,
    /// Host-account quarantines.
    pub quarantines: u64,
    /// Hot readmissions performed.
    pub readmits: u64,
    /// Gradient-line pushes rerouted through survivors.
    pub redistributed_lines: u64,
    /// Typed `DeviceDown` errors the driver absorbed (never a panic).
    pub typed_errors: u64,
    /// Media faults injected (device + pool streams).
    pub ras_faults_injected: u64,
    /// Faults found by the patrol scrubber.
    pub ras_detected_by_scrub: u64,
    /// Faults found at access time.
    pub ras_detected_on_access: u64,
    /// Lines retired to spares.
    pub ras_lines_retired: u64,
    /// Quarantined lines rebuilt from the clean pooled copy.
    pub ras_rebuilds: u64,
    /// End-to-end cluster time.
    pub cluster_time_ns: u64,
    /// The pooled optimizer's end-state checksum.
    pub pool_checksum: u64,
    /// The clean (no-kill, no-RAS) baseline's pool checksum — must equal
    /// `pool_checksum` in every cell: redistribution preserves the reduce
    /// and chipkill-mirrored retirement preserves the pool bytes.
    pub clean_pool_checksum: u64,
    /// Did the pool and every live replica end byte-identical to the
    /// clean baseline? (In `lose` mode the dead replica is excluded —
    /// its last broadcasts never reached it.)
    pub converged: bool,
}

impl Sweep for ChurnSweep {
    const NAME: &'static str = "churn_sweep";
    type Cell = ChurnCell;
    type Row = ChurnRow;

    /// N ∈ {2, 4} × kill ∈ {none, lose, readmit} × media rate ∈ {0, 1},
    /// devices-major.
    fn grid() -> Vec<ChurnCell> {
        let mut cells = Vec::new();
        for &devices in &CHURN_DEVICES {
            for &kill in &[KillMode::None, KillMode::Lose, KillMode::Readmit] {
                for &media_rate in &CHURN_MEDIA_RATES {
                    cells.push(ChurnCell { devices, kill, media_rate });
                }
            }
        }
        cells
    }

    /// Includes the cell's own clean baseline (kill = none, RAS off).
    fn row(cell: &ChurnCell) -> ChurnRow {
        let clean_cell = ChurnCell { devices: cell.devices, kill: KillMode::None, media_rate: 0.0 };
        let clean =
            run_churn(&churn_cell_workload(&clean_cell)).expect("clean churn run completes");
        let out = run_churn(&churn_cell_workload(cell)).expect("churn run completes");
        // Every device must match the clean run except a dead, never-readmitted
        // one (the broadcasts after its death never reached it).
        let dead = match cell.kill {
            KillMode::Lose => Some(cell.devices - 1),
            _ => None,
        };
        let converged = out.pool_checksum == clean.pool_checksum
            && (0..cell.devices)
                .filter(|&d| Some(d) != dead)
                .all(|d| out.device_checksums[d] == clean.device_checksums[d]);
        ChurnRow {
            devices: cell.devices as u64,
            kill_mode: cell.kill.label().to_string(),
            media_rate: cell.media_rate,
            steps: out.report.steps,
            down_events: out.report.down_events,
            quarantines: out.report.quarantines,
            readmits: out.report.readmits,
            redistributed_lines: out.redistributed_lines,
            typed_errors: out.typed_errors,
            ras_faults_injected: out.report.ras.faults_injected,
            ras_detected_by_scrub: out.report.ras.detected_by_scrub,
            ras_detected_on_access: out.report.ras.detected_on_access,
            ras_lines_retired: out.report.ras.lines_retired,
            ras_rebuilds: out.report.ras.rebuilds,
            cluster_time_ns: out.report.cluster_time_ns,
            pool_checksum: out.pool_checksum,
            clean_pool_checksum: clean.pool_checksum,
            converged,
        }
    }

    fn table(rows: &[ChurnRow]) -> String {
        md_section(
            "Fault domains: device loss and pool-media RAS under churn",
            "churn",
            &[
                "devices",
                "kill",
                "media rate",
                "down",
                "readmits",
                "rerouted lines",
                "faults",
                "retired",
                "rebuilds",
                "cluster ms",
                "converged",
            ],
            rows.iter()
                .map(|r| {
                    vec![
                        r.devices.to_string(),
                        r.kill_mode.clone(),
                        format!("{:.2}", r.media_rate),
                        r.down_events.to_string(),
                        r.readmits.to_string(),
                        r.redistributed_lines.to_string(),
                        r.ras_faults_injected.to_string(),
                        r.ras_lines_retired.to_string(),
                        r.ras_rebuilds.to_string(),
                        format!("{:.3}", r.cluster_time_ns as f64 / 1e6),
                        yes_no(r.converged),
                    ]
                })
                .collect(),
            "Each cell kills a device mid-run (watchdog-detected at the gradient\n\
             fence), reroutes its shard through the survivors, and optionally\n\
             hot-readmits it from the pooled optimizer state, while persistent\n\
             media faults are scrubbed, retired to spares, and rebuilt from the\n\
             clean pooled copy. \"converged\" means the pooled optimizer and every\n\
             live replica ended byte-identical to the never-failed, fault-free run.",
        )
    }

    /// Every cell must converge to its clean baseline.
    fn divergences(rows: &[ChurnRow]) -> Vec<String> {
        rows.iter()
            .filter(|r| !r.converged)
            .map(|r| {
                format!(
                    "N={} kill={} rate={}: diverged from the clean baseline",
                    r.devices, r.kill_mode, r.media_rate
                )
            })
            .collect()
    }
}

// ---------------------------------------------------------------------------
// Collective sweep (pool-staged all-reduce vs the point-to-point ring)
// ---------------------------------------------------------------------------

/// Host counts the collective comparison covers (H ≥ 2: an inter-host
/// exchange must exist).
pub const COLLECTIVE_HOSTS: [usize; 3] = [2, 4, 8];
/// Per-host gradient sizes in MiB. 64 MiB is the acceptance cell: a
/// Bert-large-class gradient per step.
pub const COLLECTIVE_MB: [u64; 3] = [1, 16, 64];
/// The gradient content-stream seed.
pub const COLLECTIVE_SEED: u64 = 42;
/// Host counts the fabric anchor rows cover (H = 1 is the anchor that
/// must collapse to the single-host scaling path).
pub const FABRIC_HOSTS: [usize; 4] = [1, 2, 4, 8];
/// Devices per host in the fabric anchor rows.
pub const FABRIC_DEVICES: usize = 2;
/// The fabric workload seed.
pub const FABRIC_SEED: u64 = 42;

/// Pool-staged inter-host all-reduce vs the NCCL-style point-to-point
/// ring, plus the fabric anchor rows (H-host training fabrics over the
/// shared pool). The pool path moves (2H−1)·G host↔pool port bytes, the
/// ring 4(H−1)·G endpoint-port bytes; both reduce with the same
/// wrapping-add kernel, so every cell must match bit for bit.
pub struct CollectiveSweep;

/// One cell of the collective sweep: a fabric anchor run, or one
/// pool-vs-ring comparison.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CollectiveCell {
    /// An H-host training fabric checked against the standalone cluster
    /// path.
    Fabric {
        /// Hosts in the fabric.
        hosts: usize,
    },
    /// Pool-staged vs ring all-reduce.
    Compare {
        /// Hosts sharing the pool.
        hosts: usize,
        /// Per-host gradient size in MiB.
        grad_mb: u64,
    },
}

/// One row of the collective sweep, of the same kind as its cell.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub enum CollectiveEntry {
    /// A fabric anchor row.
    Fabric(FabricRow),
    /// A pool-vs-ring comparison row.
    Compare(CollectiveRow),
}

/// The per-host gradient buffers of one cell, drawn from per-host forks
/// of the fixed content stream (regenerable, so a cell never needs pool
/// and ring inputs alive at once).
fn collective_inputs(hosts: usize, bytes: usize) -> Vec<Vec<u8>> {
    (0..hosts)
        .map(|h| {
            let mut rng = SimRng::seed_from_u64(COLLECTIVE_SEED).fork(&format!("grad-h{h}"));
            let mut buf = vec![0u8; bytes];
            for chunk in buf.chunks_exact_mut(8) {
                chunk.copy_from_slice(&rng.next_u64().to_le_bytes());
            }
            buf
        })
        .collect()
}

/// One row of the collective comparison in
/// `bench_results/collective_sweep.json`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CollectiveRow {
    /// Hosts sharing the pool.
    pub hosts: u64,
    /// Gradient bytes contributed per host.
    pub grad_bytes: u64,
    /// Pool-staged all-reduce completion (barrier → last host done).
    pub pool_ns: u64,
    /// Ring all-reduce completion over the same barrier.
    pub ring_ns: u64,
    /// `ring_ns / pool_ns` — must exceed 1 in every cell.
    pub speedup: f64,
    /// Host↔pool port bytes the pool path moved ((2H−1)·G).
    pub pool_port_bytes: u64,
    /// Pool-DRAM bytes served after fan-in dedup ((H+1)·G).
    pub pool_media_bytes: u64,
    /// Media bytes the gather fan-in avoided re-reading ((H−2)·G).
    pub fanin_saved_bytes: u64,
    /// Endpoint-port bytes the ring moved (4(H−1)·G).
    pub ring_link_bytes: u64,
    /// `ring_link_bytes / pool_port_bytes` — must exceed 1 in every cell.
    pub byte_ratio: f64,
    /// Did pool and ring produce bit-identical reduced gradients?
    pub results_match: bool,
    /// FNV-1a-64 over host 0's reduced gradient, hex (identical for both
    /// paths whenever `results_match`).
    pub grad_checksum: String,
}

/// Compute one collective comparison row. The pool and ring runs never
/// hold their input sets concurrently: each path regenerates the
/// formulaic gradients, reduces in place, and is summarized by checksum
/// before the other starts — the 64 MiB × 8-host cell peaks at one input
/// set, not two.
fn collective_row(hosts: usize, grad_mb: u64) -> CollectiveRow {
    let bytes = (grad_mb << 20) as usize;
    let cfg = CollectiveConfig::for_hosts(hosts);
    let ready = vec![SimTime::ZERO; hosts];

    let mut bufs = collective_inputs(hosts, bytes);
    let pool = PoolCollective::new(cfg)
        .and_then(|mut p| p.all_reduce(&mut bufs, &ready))
        .expect("pool all-reduce completes");
    let pool_sum = fnv1a_hex(&bufs[0]);
    let all_equal = bufs.windows(2).all(|w| w[0] == w[1]);
    drop(bufs);

    let mut bufs = collective_inputs(hosts, bytes);
    let ring = ring_all_reduce(&cfg, &mut bufs, &ready).expect("ring all-reduce completes");
    let ring_sum = fnv1a_hex(&bufs[0]);
    drop(bufs);

    let pool_ns = (pool.completion - pool.start).as_ns();
    let ring_ns = (ring.completion - ring.start).as_ns();
    CollectiveRow {
        hosts: hosts as u64,
        grad_bytes: bytes as u64,
        pool_ns,
        ring_ns,
        speedup: ring_ns as f64 / pool_ns as f64,
        pool_port_bytes: pool.port_bytes,
        pool_media_bytes: pool.media_bytes,
        fanin_saved_bytes: pool.fanin_saved_bytes,
        ring_link_bytes: ring.link_bytes,
        byte_ratio: ring.link_bytes as f64 / pool.port_bytes as f64,
        results_match: all_equal && pool_sum == ring_sum,
        grad_checksum: pool_sum,
    }
}

/// One fabric anchor row in `bench_results/collective_sweep.json`: an
/// H-host training fabric over the shared pool, with the structural
/// anchor asserted per row — host 0's cluster report is byte-identical
/// to the standalone single-host path (the scaling sweep's
/// `run_uninterrupted`) at every H, and at H = 1 the whole
/// fabric collapses to it.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FabricRow {
    /// Hosts in the fabric.
    pub hosts: u64,
    /// Devices per host.
    pub devices_per_host: u64,
    /// Steps simulated.
    pub steps: u64,
    /// The fabric clock at the end of the run.
    pub fabric_time_ns: u64,
    /// Time spent in inter-host exchanges.
    pub exchange_ns: u64,
    /// Host↔pool port bytes the collectives moved.
    pub pool_port_bytes: u64,
    /// Pool-DRAM bytes served (fan-in deduplicated).
    pub pool_media_bytes: u64,
    /// Media bytes the gather fan-in avoided re-reading.
    pub fanin_saved_bytes: u64,
    /// Running checksum of every step's globally reduced gradient.
    pub global_grad_checksum: u64,
    /// FNV-1a-64 over host 0's serialized cluster report.
    pub host0_digest: String,
    /// Does `host0_digest` equal the standalone cluster path's digest?
    pub host0_matches_cluster: bool,
}

/// The fixed fabric workload for an anchor row.
pub fn fabric_workload(hosts: usize) -> FabricWorkload {
    FabricWorkload::small(hosts, FABRIC_DEVICES, FABRIC_SEED)
}

/// Compute one fabric anchor row, including the standalone-cluster
/// digest comparison.
fn fabric_row(hosts: usize) -> FabricRow {
    let w = fabric_workload(hosts);
    let fabric = run_uninterrupted(&w).expect("fabric run completes").report;
    let cluster = run_uninterrupted(&w.base).expect("cluster run completes").report;
    let host0 = serde_json::to_string(&fabric.host_reports[0]).expect("serialize host 0");
    let standalone = serde_json::to_string(&cluster).expect("serialize cluster");
    FabricRow {
        hosts: fabric.hosts,
        devices_per_host: FABRIC_DEVICES as u64,
        steps: fabric.steps,
        fabric_time_ns: fabric.fabric_time_ns,
        exchange_ns: fabric.exchange_ns,
        pool_port_bytes: fabric.pool_port_bytes,
        pool_media_bytes: fabric.pool_media_bytes,
        fanin_saved_bytes: fabric.fanin_saved_bytes,
        global_grad_checksum: fabric.global_grad_checksum,
        host0_digest: fnv1a_hex(host0.as_bytes()),
        host0_matches_cluster: host0 == standalone,
    }
}

/// Split collective rows into the fabric anchor rows and the comparison
/// rows, each in grid order.
fn split_collective(rows: &[CollectiveEntry]) -> (Vec<&FabricRow>, Vec<&CollectiveRow>) {
    let mut fabric = Vec::new();
    let mut compare = Vec::new();
    for r in rows {
        match r {
            CollectiveEntry::Fabric(f) => fabric.push(f),
            CollectiveEntry::Compare(c) => compare.push(c),
        }
    }
    (fabric, compare)
}

impl Sweep for CollectiveSweep {
    const NAME: &'static str = "collective_sweep";
    type Cell = CollectiveCell;
    type Row = CollectiveEntry;

    /// The fabric anchors H ∈ {1, 2, 4, 8}, then the comparison grid
    /// H ∈ {2, 4, 8} × G ∈ {1, 16, 64} MiB, hosts-major.
    fn grid() -> Vec<CollectiveCell> {
        let mut cells: Vec<CollectiveCell> =
            FABRIC_HOSTS.iter().map(|&hosts| CollectiveCell::Fabric { hosts }).collect();
        for &hosts in &COLLECTIVE_HOSTS {
            for &grad_mb in &COLLECTIVE_MB {
                cells.push(CollectiveCell::Compare { hosts, grad_mb });
            }
        }
        cells
    }

    fn row(cell: &CollectiveCell) -> CollectiveEntry {
        match *cell {
            CollectiveCell::Fabric { hosts } => CollectiveEntry::Fabric(fabric_row(hosts)),
            CollectiveCell::Compare { hosts, grad_mb } => {
                CollectiveEntry::Compare(collective_row(hosts, grad_mb))
            }
        }
    }

    /// The comparison grid only; the fabric anchors are gated, not tabled.
    fn table(rows: &[CollectiveEntry]) -> String {
        let (_, compare) = split_collective(rows);
        md_section(
            "Inter-host all-reduce: pool-staged vs point-to-point ring",
            "collective",
            &[
                "hosts",
                "grad MB",
                "pool ms",
                "ring ms",
                "speedup",
                "pool port MB",
                "ring link MB",
                "fan-in saved MB",
                "bits match",
            ],
            compare
                .iter()
                .map(|r| {
                    vec![
                        r.hosts.to_string(),
                        format!("{:.0}", r.grad_bytes as f64 / (1 << 20) as f64),
                        format!("{:.3}", r.pool_ns as f64 / 1e6),
                        format!("{:.3}", r.ring_ns as f64 / 1e6),
                        format!("{:.2}", r.speedup),
                        format!("{:.1}", r.pool_port_bytes as f64 / 1e6),
                        format!("{:.1}", r.ring_link_bytes as f64 / 1e6),
                        format!("{:.1}", r.fanin_saved_bytes as f64 / 1e6),
                        yes_no(r.results_match),
                    ]
                })
                .collect(),
            "The pool path stages each host's gradient once and reads peers\n\
             directly from the shared pool ((2H\u{2212}1)\u{b7}G port bytes, one staged\n\
             write plus direct reads); the ring moves 4(H\u{2212}1)\u{b7}G endpoint-port\n\
             bytes over 2(H\u{2212}1) bulk-synchronous hops. Both reduce with the same\n\
             wrapping-add kernel, so \"bits match\" is exact equality of the\n\
             reduced gradients. Fan-in savings are the pool-DRAM reads the\n\
             switched multicast avoided during the gather phase.",
        )
    }

    /// Every comparison cell must beat the ring on completion time *and*
    /// moved bytes with bit-identical results, and every fabric row must
    /// keep host 0 byte-identical to the standalone cluster path.
    fn divergences(rows: &[CollectiveEntry]) -> Vec<String> {
        let (fabric, compare) = split_collective(rows);
        let mut bad = Vec::new();
        for r in compare {
            let cell = format!("H={} G={}MB", r.hosts, r.grad_bytes >> 20);
            if !r.results_match {
                bad.push(format!("{cell}: pool and ring bits diverge"));
            }
            if r.pool_ns >= r.ring_ns {
                bad.push(format!(
                    "{cell}: pool {}ns not faster than ring {}ns",
                    r.pool_ns, r.ring_ns
                ));
            }
            if r.pool_port_bytes >= r.ring_link_bytes {
                bad.push(format!(
                    "{cell}: pool moved {} bytes, ring {}",
                    r.pool_port_bytes, r.ring_link_bytes
                ));
            }
        }
        for r in fabric {
            if !r.host0_matches_cluster {
                bad.push(format!(
                    "H={}: host 0 diverged from the standalone cluster path",
                    r.hosts
                ));
            }
        }
        bad
    }

    /// `{"fabric": [...], "collective": [...]}`.
    fn json(rows: &[CollectiveEntry]) -> Value {
        let (fabric, compare) = split_collective(rows);
        Value::Object(vec![
            ("fabric".to_string(), fabric.to_value()),
            ("collective".to_string(), compare.to_value()),
        ])
    }
}

// ---------------------------------------------------------------------------
// Fabric chaos sweep
// ---------------------------------------------------------------------------

/// Host counts swept by the chaos grid.
pub const CHAOS_HOSTS: [usize; 2] = [2, 4];
/// Devices per host in the chaos workload.
pub const CHAOS_DEVICES: usize = 2;
/// Training steps in the chaos workload — long enough that the DBA
/// activates (step 4) *after* the kill and the readmission, so the
/// readmitted host must reproduce the dirty-byte merge history too.
pub const CHAOS_STEPS: u64 = 6;
/// The chaos workload's fixed seed.
pub const CHAOS_SEED: u64 = 42;
/// Step whose collective the scheduled kill fires in.
pub const CHAOS_KILL_STEP: u64 = 1;
/// Flat chunk index (within the kill phase) the host goes silent at.
pub const CHAOS_KILL_CHUNK: u64 = 1;
/// Full steps between the watchdog detection and hot readmission.
pub const CHAOS_READMIT_AFTER: u64 = 1;
/// Chunk size forcing multi-chunk shards on the small workload.
pub const CHAOS_CHUNK_BYTES: u64 = 64;
/// Staging-media fault rates swept (faults per RAS tick).
pub const CHAOS_MEDIA_RATES: [f64; 2] = [0.0, 1.0];

/// Host loss and staging-media faults mid-all-reduce: a host killed at a
/// chunk boundary is detected by the collective deadline watchdog, the
/// survivors regroup H→H−1, and one full step later the host is
/// hot-readmitted from the pooled parameter state; no poisoned byte may
/// reach a reduction.
pub struct FabricChaosSweep;

/// Where (if anywhere) the scheduled host kill fires.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum ChaosKill {
    /// Never-failed cell (the golden for its host count).
    None,
    /// Kill mid reduce-scatter.
    ReduceScatter,
    /// Kill mid all-gather.
    AllGather,
}

impl ChaosKill {
    /// The label carried in rows and the report table.
    pub fn label(self) -> &'static str {
        match self {
            ChaosKill::None => "none",
            ChaosKill::ReduceScatter => "reduce-scatter",
            ChaosKill::AllGather => "all-gather",
        }
    }

    fn phase(self) -> Option<CollectivePhase> {
        match self {
            ChaosKill::None => None,
            ChaosKill::ReduceScatter => Some(CollectivePhase::ReduceScatter),
            ChaosKill::AllGather => Some(CollectivePhase::AllGather),
        }
    }
}

/// One cell of the chaos grid.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ChaosCell {
    /// Hosts in the fabric.
    pub hosts: usize,
    /// Kill schedule.
    pub kill: ChaosKill,
    /// Staging-media faults per RAS tick.
    pub media_rate: f64,
}

/// The fixed chaos workload for one cell. Kill cells lose their
/// highest-numbered host at step 1 and hot-readmit it one full step
/// after detection; media cells arm staging-media RAS.
pub fn chaos_cell_workload(cell: &ChaosCell) -> FabricChaosWorkload {
    let mut w = FabricChaosWorkload::small(cell.hosts, CHAOS_DEVICES, CHAOS_SEED);
    w.fabric.base.steps = CHAOS_STEPS;
    w.fabric.collective.chunk_bytes = CHAOS_CHUNK_BYTES;
    if cell.media_rate > 0.0 {
        w = w.with_media_faults(cell.media_rate);
    }
    if let Some(phase) = cell.kill.phase() {
        w = w
            .with_kill(HostKillSpec {
                host: cell.hosts as u64 - 1,
                step: CHAOS_KILL_STEP,
                phase,
                chunk: CHAOS_KILL_CHUNK,
            })
            .with_readmit_after(CHAOS_READMIT_AFTER);
    }
    w
}

/// One row of the chaos sweep.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ChaosRow {
    /// Hosts in the fabric.
    pub hosts: usize,
    /// Kill schedule label (`none` / `reduce-scatter` / `all-gather`).
    pub kill_phase: String,
    /// Staging-media faults per RAS tick.
    pub media_rate: f64,
    /// Steps the fabric completed.
    pub steps: u64,
    /// Watchdog host-loss detections.
    pub detections: u64,
    /// Survivor regroups (ladder rung 2).
    pub regroups: u64,
    /// Hot host readmissions.
    pub readmissions: u64,
    /// Per-chunk checksummed retries on transient port faults.
    pub chunk_retries: u64,
    /// Staging-media faults detected (scrub + on-access) before any
    /// poisoned byte reached a reduction.
    pub media_detections: u64,
    /// Collectives rerouted over the ring fallback (ladder rung 3).
    pub ring_fallbacks: u64,
    /// Watchdog deadline expiries.
    pub watchdog_timeouts: u64,
    /// Persistent media faults injected.
    pub ras_faults_injected: u64,
    /// Staging lines retired to spares.
    pub ras_lines_retired: u64,
    /// Corrupted bytes admitted to a reduction — must be zero.
    pub poisoned_admitted: u64,
    /// End-of-run fabric time in nanoseconds.
    pub fabric_time_ns: u64,
    /// FNV-1a-64 over every broadcast parameter line.
    pub param_checksum: u64,
    /// The never-failed same-H golden's parameter checksum.
    pub golden_param_checksum: u64,
    /// Byte-identity verdict against the golden (see
    /// [`FabricChaosSweep`]'s `row`).
    pub converged: bool,
}

impl Sweep for FabricChaosSweep {
    const NAME: &'static str = "fabric_chaos_sweep";
    type Cell = ChaosCell;
    type Row = ChaosRow;

    /// Hosts-major: H ∈ {2, 4} × kill ∈ {none, reduce-scatter,
    /// all-gather} × media rate ∈ {0, 1}.
    fn grid() -> Vec<ChaosCell> {
        let mut cells = Vec::new();
        for &hosts in &CHAOS_HOSTS {
            for &kill in &[ChaosKill::None, ChaosKill::ReduceScatter, ChaosKill::AllGather] {
                for &media_rate in &CHAOS_MEDIA_RATES {
                    cells.push(ChaosCell { hosts, kill, media_rate });
                }
            }
        }
        cells
    }

    /// The cell recomputes its own never-failed, fault-free same-H golden.
    ///
    /// `converged` requires zero poisoned bytes, the golden's parameter
    /// checksum, the golden's per-device content checksums (the readmitted
    /// host included), and golden per-step global-gradient checksums — the
    /// full run for fault-only cells, the pre-kill prefix for kill cells
    /// (the survivor accumulator restarts at the regroup; the post-kill
    /// tail is asserted against the never-failed H−1 fabric by the
    /// `fabric_chaos` acceptance suite, not re-derived here).
    fn row(cell: &ChaosCell) -> ChaosRow {
        let golden_cell = ChaosCell { hosts: cell.hosts, kill: ChaosKill::None, media_rate: 0.0 };
        let golden = run_fabric_chaos(&chaos_cell_workload(&golden_cell))
            .expect("golden chaos run completes")
            .report;
        let out = run_fabric_chaos(&chaos_cell_workload(cell)).expect("chaos run completes").report;
        let k = CHAOS_KILL_STEP as usize;
        let grads_ok = match cell.kill {
            ChaosKill::None => out.step_grad_checksums == golden.step_grad_checksums,
            _ => out.step_grad_checksums[..k] == golden.step_grad_checksums[..k],
        };
        let converged = out.poisoned_admitted == 0
            && grads_ok
            && out.param_checksum == golden.param_checksum
            && out.device_checksums == golden.device_checksums;
        ChaosRow {
            hosts: cell.hosts,
            kill_phase: cell.kill.label().to_string(),
            media_rate: cell.media_rate,
            steps: out.report.steps,
            detections: out.detections.len() as u64,
            regroups: out.regroups,
            readmissions: out.readmissions,
            chunk_retries: out.fstats.chunk_retries,
            media_detections: out.ras.detected_by_scrub + out.ras.detected_on_access,
            ring_fallbacks: out.fstats.ring_fallbacks,
            watchdog_timeouts: out.fstats.watchdog_timeouts,
            ras_faults_injected: out.ras.faults_injected,
            ras_lines_retired: out.ras.lines_retired,
            poisoned_admitted: out.poisoned_admitted,
            fabric_time_ns: out.report.fabric_time_ns,
            param_checksum: out.param_checksum,
            golden_param_checksum: golden.param_checksum,
            converged,
        }
    }

    fn table(rows: &[ChaosRow]) -> String {
        md_section(
            "Fabric chaos: host loss and media faults mid-all-reduce",
            "chaos",
            &[
                "hosts",
                "kill phase",
                "media rate",
                "detected",
                "regroups",
                "readmits",
                "retries",
                "media det",
                "ring falls",
                "poisoned",
                "fabric ms",
                "converged",
            ],
            rows.iter()
                .map(|r| {
                    vec![
                        r.hosts.to_string(),
                        r.kill_phase.clone(),
                        format!("{:.2}", r.media_rate),
                        r.detections.to_string(),
                        r.regroups.to_string(),
                        r.readmissions.to_string(),
                        r.chunk_retries.to_string(),
                        r.media_detections.to_string(),
                        r.ring_fallbacks.to_string(),
                        r.poisoned_admitted.to_string(),
                        format!("{:.3}", r.fabric_time_ns as f64 / 1e6),
                        yes_no(r.converged),
                    ]
                })
                .collect(),
            "Each cell kills a host at a chunk boundary of one step's all-reduce\n\
             and/or injects persistent staging-media faults. The collective\n\
             deadline watchdog detects the loss, the fabric walks the degradation\n\
             ladder (per-chunk checksummed retry \u{2192} survivor regroup \u{2192} ring\n\
             fallback under retirement pressure), and the lost host hot-readmits\n\
             from pooled state. \"converged\" means the regrouped reduces and the\n\
             final parameters stayed byte-identical to the matching never-failed\n\
             fabric; \"poisoned\" counts corrupt bytes admitted to a reduction and\n\
             must be zero in every cell.",
        )
    }

    /// Every cell byte-converged, zero poisoned bytes anywhere, kill cells
    /// saw exactly one detection, one regroup, and one readmission,
    /// never-failed cells saw none.
    fn divergences(rows: &[ChaosRow]) -> Vec<String> {
        let mut bad = Vec::new();
        for r in rows {
            let cell = format!("H={} kill={} rate={}", r.hosts, r.kill_phase, r.media_rate);
            if !r.converged {
                bad.push(format!("{cell}: diverged from the never-failed golden"));
            }
            if r.poisoned_admitted > 0 {
                bad.push(format!("{cell}: {} poisoned bytes admitted", r.poisoned_admitted));
            }
            if r.kill_phase == "none" {
                if r.detections != 0 || r.regroups != 0 || r.readmissions != 0 {
                    bad.push(format!("{cell}: spurious loss events on a kill-free cell"));
                }
            } else if r.detections != 1 || r.regroups != 1 || r.readmissions != 1 {
                bad.push(format!(
                    "{cell}: detections={} regroups={} readmissions={} (want 1 each)",
                    r.detections, r.regroups, r.readmissions
                ));
            }
        }
        bad
    }
}

// ---------------------------------------------------------------------------
// Placement sweep (tiered tensor placement × Table III models)
// ---------------------------------------------------------------------------

/// Training steps per placement cell.
pub const PLACEMENT_STEPS: u64 = 4;
/// DBA activation step for placement cells (activates mid-run).
pub const PLACEMENT_ACT_AFT: u64 = 2;
/// Giant-cache capacity for the scaled-down placement workloads.
pub const PLACEMENT_CACHE_BYTES: u64 = 1 << 20;
/// The BO autotuner's fixed seed.
pub const PLACEMENT_SEED: u64 = 11;

/// Every Table III model under the explicit single-tier policy instance
/// and the non-default tiered policy, each row carrying the BO-autotuned
/// giant-cache size next to the published Table III setting.
pub struct PlacementSweep;

/// One cell of the placement grid.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct PlacementCell {
    /// Table III model name (resolved via [`ModelSpec::by_name`]).
    pub model: String,
    /// Tiered policy instead of the explicit single-tier instance?
    pub tiered: bool,
}

/// The non-default tiering policy every tiered cell runs: a small
/// device-resident tier for compact hot tensors, optimizer moments
/// spilled to plain host DRAM, params/grads staged in the giant cache.
pub fn placement_tiered_policy() -> TieredPolicy {
    TieredPolicy {
        device_capacity_bytes: 1 << 14,
        device_size_threshold: 2048,
        ..TieredPolicy::default()
    }
}

/// Scaled-down tensor shapes for one model: line counts derived from the
/// parameter count so every model lands on distinct, cache-fitting sizes.
pub fn placement_shapes(spec: &ModelSpec) -> (u64, u64, u64) {
    let param_lines = 64 + spec.params / 10_000_000;
    let grad_lines = param_lines / 4;
    let moment_bytes = 2 * grad_lines * 64;
    (param_lines, grad_lines, moment_bytes)
}

/// One row of `bench_results/placement_sweep.json`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PlacementRow {
    /// Model display name.
    pub model: String,
    /// Policy label: `single-tier` or `tiered`.
    pub policy: String,
    /// BO-autotuned giant-cache size in MB.
    pub autotuned_mb: u64,
    /// Published Table III giant-cache size in MB.
    pub table3_mb: u64,
    /// End-of-run simulated time.
    pub sim_time_ns: u64,
    /// Bytes resident in the device tier at end of run.
    pub device_bytes: u64,
    /// Bytes resident in the giant cache at end of run.
    pub giant_cache_bytes: u64,
    /// Bytes resident in plain host DRAM at end of run.
    pub host_dram_bytes: u64,
    /// Step-boundary migrations executed.
    pub migrations: u64,
    /// Bytes moved by those migrations.
    pub migrated_bytes: u64,
    /// Link bytes CPU→device (parameter direction).
    pub bytes_to_device: u64,
    /// Link bytes device→CPU (gradient direction).
    pub bytes_to_host: u64,
    /// FNV-1a 64 over the serialized session snapshot — the byte-identity
    /// witness the CI sweeps job diffs run-to-run.
    pub snapshot_digest: String,
}

/// The fixed placement workload: params (broadcast-mostly), grads
/// (write-once per step), and optimizer moments (write-mostly) pushed for
/// [`PLACEMENT_STEPS`] steps with DBA activating mid-run.
fn run_placement_workload(spec: &ModelSpec, cfg: TecoConfig) -> (TecoSession, SimTime) {
    let (param_lines, grad_lines, moment_bytes) = placement_shapes(spec);
    let cfg = cfg
        .with_giant_cache_bytes(PLACEMENT_CACHE_BYTES)
        .with_act_aft_steps(PLACEMENT_ACT_AFT)
        .with_dirty_bytes(2);
    let mut s = TecoSession::new(cfg).expect("valid config");
    let (_, pbase) = s.alloc_tensor("params", param_lines * 64).expect("alloc params");
    let (_, gbase) = s.alloc_tensor("grads", grad_lines * 64).expect("alloc grads");
    let (_, mbase) = s.alloc_tensor("moment_m", moment_bytes).expect("alloc moments");
    let mut now = SimTime::ZERO;
    for step in 0..PLACEMENT_STEPS {
        for i in 0..grad_lines {
            let _ = s.push_grad_line(Addr(gbase.0 + i * 64), grad_line(step, i), now);
        }
        now = s.cxlfence_grads(now);
        s.check_activation(step);
        let lines: Vec<LineData> = (0..param_lines).map(|i| param_line(step, i)).collect();
        s.push_param_lines(pbase, &lines, now).expect("param push");
        let moments: Vec<LineData> =
            (0..moment_bytes / 64).map(|i| param_line(step.wrapping_add(17), i)).collect();
        s.push_param_lines(mbase, &moments, now).expect("moment push");
        now = s.cxlfence_params(now);
    }
    (s, now)
}

impl Sweep for PlacementSweep {
    const NAME: &'static str = "placement_sweep";
    type Cell = PlacementCell;
    type Row = PlacementRow;

    /// Model-major: each Table III model under the explicit single-tier
    /// policy instance, then the tiered policy.
    fn grid() -> Vec<PlacementCell> {
        let mut cells = Vec::new();
        for spec in ModelSpec::table3() {
            for &tiered in &[false, true] {
                cells.push(PlacementCell { model: spec.name.to_string(), tiered });
            }
        }
        cells
    }

    fn row(cell: &PlacementCell) -> PlacementRow {
        let spec = ModelSpec::by_name(&cell.model).expect("placement cell names a known model");
        let policy = if cell.tiered {
            PlacementPolicy::Tiered(placement_tiered_policy())
        } else {
            PlacementPolicy::SingleTier
        };
        let (s, now) = run_placement_workload(&spec, TecoConfig::default().with_placement(policy));
        let tune = autotune_giant_cache(&spec, PLACEMENT_SEED);
        let (device_bytes, giant_cache_bytes, host_dram_bytes, migrations, migrated_bytes) =
            match s.placement() {
                Some(engine) => {
                    let map = engine.map();
                    let st = engine.stats();
                    (
                        map.used(teco_mem::Tier::Device),
                        map.used(teco_mem::Tier::GiantCache),
                        map.used(teco_mem::Tier::HostDram),
                        st.migrations,
                        st.migrated_bytes,
                    )
                }
                None => (0, s.giant_cache().allocated(), 0, 0, 0),
            };
        let snap_json = serde_json::to_string(&s.snapshot()).expect("serialize snapshot");
        PlacementRow {
            model: cell.model.clone(),
            policy: if cell.tiered { "tiered" } else { "single-tier" }.to_string(),
            autotuned_mb: tune.tuned_mb,
            table3_mb: tune.table3_mb,
            sim_time_ns: now.as_ns(),
            device_bytes,
            giant_cache_bytes,
            host_dram_bytes,
            migrations,
            migrated_bytes,
            bytes_to_device: s.stats().bytes_to_device,
            bytes_to_host: s.stats().bytes_to_host,
            snapshot_digest: fnv1a_hex(snap_json.as_bytes()),
        }
    }

    fn table(rows: &[PlacementRow]) -> String {
        md_section(
            "Tiered tensor placement: device / giant cache / host DRAM",
            "placement",
            &[
                "model",
                "policy",
                "tuned MB",
                "Table III MB",
                "device B",
                "cache B",
                "host B",
                "migrations",
                "migrated B",
                "param link B",
                "grad link B",
                "snapshot",
            ],
            rows.iter()
                .map(|r| {
                    vec![
                        r.model.clone(),
                        r.policy.clone(),
                        r.autotuned_mb.to_string(),
                        r.table3_mb.to_string(),
                        r.device_bytes.to_string(),
                        r.giant_cache_bytes.to_string(),
                        r.host_dram_bytes.to_string(),
                        r.migrations.to_string(),
                        r.migrated_bytes.to_string(),
                        r.bytes_to_device.to_string(),
                        r.bytes_to_host.to_string(),
                        r.snapshot_digest.clone(),
                    ]
                })
                .collect(),
            "Each row trains one scaled-down model under one placement policy.\n\
             Single-tier is the legacy layout (everything in the giant cache, no\n\
             placement engine constructed); tiered splits tensors by class —\n\
             small hot tensors pin device-resident, params and grads stage in\n\
             the CXL giant cache, optimizer moments spill to plain host DRAM —\n\
             and migrates across tiers only at step boundaries. \"tuned MB\" is\n\
             the BO-sized giant cache next to the published Table III setting;\n\
             the snapshot digest proves run-to-run byte reproducibility.",
        )
    }

    /// 1. every single-tier row is byte-identical to a freshly-run session
    ///    whose config never mentions placement at all (the explicit
    ///    `SingleTier` policy instance *is* the legacy layout);
    /// 2. every tiered row demonstrably changes placement — bytes resident
    ///    outside the giant cache, and a snapshot digest different from its
    ///    single-tier sibling;
    /// 3. the autotuned giant-cache size tracks Table III within ratio
    ///    [0.7, 1.4] on every row;
    /// 4. the default tiered policy is not slower than single-tier on the
    ///    GPT-2 workload (spilling write-mostly optimizer moments to plain
    ///    host DRAM rides the faster pool link; it must never cost step
    ///    time).
    fn divergences(rows: &[PlacementRow]) -> Vec<String> {
        let mut bad = Vec::new();
        for r in rows {
            let cell = format!("model={} policy={}", r.model, r.policy);
            let ratio = r.autotuned_mb as f64 / r.table3_mb as f64;
            if !(0.7..=1.4).contains(&ratio) {
                bad.push(format!(
                    "{cell}: autotuned {} MB strays from Table III {} MB",
                    r.autotuned_mb, r.table3_mb
                ));
            }
            if r.policy == "single-tier" {
                let spec = ModelSpec::by_name(&r.model).expect("known model");
                let (s, _) = run_placement_workload(&spec, TecoConfig::default());
                let legacy =
                    fnv1a_hex(serde_json::to_string(&s.snapshot()).expect("serialize").as_bytes());
                if r.snapshot_digest != legacy {
                    bad.push(format!(
                        "{cell}: explicit single-tier digest {} != legacy default {legacy}",
                        r.snapshot_digest
                    ));
                }
                if r.device_bytes != 0 || r.host_dram_bytes != 0 || r.migrations != 0 {
                    bad.push(format!(
                        "{cell}: single-tier row placed bytes outside the giant cache"
                    ));
                }
            } else {
                if r.device_bytes + r.host_dram_bytes == 0 {
                    bad.push(format!("{cell}: tiered row placed nothing outside the giant cache"));
                }
                if let Some(single) =
                    rows.iter().find(|s| s.model == r.model && s.policy == "single-tier")
                {
                    if single.snapshot_digest == r.snapshot_digest {
                        bad.push(format!("{cell}: tiered digest equals the single-tier digest"));
                    }
                } else {
                    bad.push(format!("{cell}: no single-tier sibling row"));
                }
            }
        }
        let gpt2 = ModelSpec::gpt2();
        let (_, single) = run_placement_workload(&gpt2, TecoConfig::default());
        let tiered_default = PlacementPolicy::Tiered(TieredPolicy::default());
        let (_, tiered) =
            run_placement_workload(&gpt2, TecoConfig::default().with_placement(tiered_default));
        if tiered > single {
            bad.push(format!(
                "GPT-2: tiered default {} ns slower than single-tier {} ns",
                tiered.as_ns(),
                single.as_ns()
            ));
        }
        bad
    }
}

// ---------------------------------------------------------------------------
// Soak resume (kill + resume at step boundaries)
// ---------------------------------------------------------------------------

/// The seed of every soak workload.
pub const SOAK_SEED: u64 = 7;

/// The crash/resume path: each cell runs a fixed-seed workload
/// uninterrupted, then kills and resumes it at one step boundary, and the
/// resumed run's JSON report must be byte-identical to the uninterrupted
/// run's, with clean audits.
pub struct SoakResume;

/// The workload configurations the soak covers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SoakWorkload {
    /// No fault model.
    ZeroFault,
    /// CRC retries, stalls, DBA checksum errors and poison, so the fault
    /// injector's RNG is mid-schedule at the kill.
    Faulty,
    /// The paranoid auditor on; its final invariant walk must be clean.
    Audited,
}

impl SoakWorkload {
    fn label(self) -> &'static str {
        match self {
            SoakWorkload::ZeroFault => "zero-fault",
            SoakWorkload::Faulty => "faulty",
            SoakWorkload::Audited => "audited",
        }
    }

    fn workload(self) -> ResumeWorkload {
        let mut w = ResumeWorkload::small(SOAK_SEED);
        match self {
            SoakWorkload::ZeroFault => {}
            SoakWorkload::Faulty => {
                w.cfg = w.cfg.with_fault(FaultConfig {
                    crc_error_rate: 0.25,
                    stall_rate: 0.1,
                    stall_ns: 40,
                    dba_checksum_error_rate: 0.2,
                    poison_rate: 0.02,
                    retry_limit: 64,
                    seed: 1234,
                    ..FaultConfig::off()
                })
            }
            SoakWorkload::Audited => w.cfg = w.cfg.clone().with_audit(true),
        }
        w
    }
}

/// One soak cell: a workload killed at one boundary of one step.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SoakCell {
    /// The workload configuration.
    pub workload: SoakWorkload,
    /// Where the kill lands.
    pub kill: KillPoint,
}

/// One row of `bench_results/soak_resume.json`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SoakRow {
    /// Workload label.
    pub workload: String,
    /// Step the kill landed in.
    pub kill_step: u64,
    /// Boundary label within that step.
    pub boundary: String,
    /// Bytes of the resumed run's JSON report.
    pub report_bytes: u64,
    /// Bytes of the snapshot image the run was restored from.
    pub snapshot_bytes: u64,
    /// Snapshots the harness took.
    pub snapshots_taken: u64,
    /// Restores the harness performed.
    pub restores: u64,
    /// Is the resumed report byte-identical to the uninterrupted one?
    pub byte_identical: bool,
    /// Was the paranoid auditor on?
    pub audit_enabled: bool,
    /// Did the audit walks of both the uninterrupted and the resumed run
    /// come back clean?
    pub audit_clean: bool,
}

fn boundary_label(b: StepBoundary) -> &'static str {
    match b {
        StepBoundary::AfterGradFence => "after-grad-fence",
        StepBoundary::AfterActivation => "after-activation",
        StepBoundary::AfterParamFence => "after-param-fence",
    }
}

impl Sweep for SoakResume {
    const NAME: &'static str = "soak_resume";
    type Cell = SoakCell;
    type Row = SoakRow;

    /// Workload-major: every boundary of the first, a middle, and the last
    /// step.
    fn grid() -> Vec<SoakCell> {
        let steps = ResumeWorkload::small(SOAK_SEED).steps;
        let mut cells = Vec::new();
        for workload in [SoakWorkload::ZeroFault, SoakWorkload::Faulty, SoakWorkload::Audited] {
            for step in [0, steps / 2, steps - 1] {
                for boundary in [
                    StepBoundary::AfterGradFence,
                    StepBoundary::AfterActivation,
                    StepBoundary::AfterParamFence,
                ] {
                    cells.push(SoakCell { workload, kill: KillPoint { step, boundary } });
                }
            }
        }
        cells
    }

    fn row(cell: &SoakCell) -> SoakRow {
        let w = cell.workload.workload();
        let baseline = run_uninterrupted(&w).expect("uninterrupted run completes");
        let resumed = run_resumed(&w, cell.kill).expect("resumed run completes");
        let base_json = serde_json::to_string(&baseline.report).expect("serialize baseline");
        let resumed_json = serde_json::to_string(&resumed.report).expect("serialize resumed");
        SoakRow {
            workload: cell.workload.label().to_string(),
            kill_step: cell.kill.step,
            boundary: boundary_label(cell.kill.boundary).to_string(),
            report_bytes: resumed_json.len() as u64,
            snapshot_bytes: resumed.snapshot_bytes,
            snapshots_taken: resumed.snapshots_taken,
            restores: resumed.restores,
            byte_identical: resumed_json == base_json,
            audit_enabled: resumed.report.audit_enabled,
            audit_clean: baseline.last_audit_error.is_none() && resumed.last_audit_error.is_none(),
        }
    }

    fn table(rows: &[SoakRow]) -> String {
        md_section(
            "Kill+resume soak: three boundaries \u{d7} three steps \u{d7} three workloads",
            "soak",
            &[
                "workload",
                "kill step",
                "boundary",
                "snapshot bytes",
                "byte-identical",
                "audit clean",
            ],
            rows.iter()
                .map(|r| {
                    vec![
                        r.workload.clone(),
                        r.kill_step.to_string(),
                        r.boundary.clone(),
                        r.snapshot_bytes.to_string(),
                        yes_no(r.byte_identical),
                        yes_no(r.audit_clean),
                    ]
                })
                .collect(),
            "Each cell kills the run at one step boundary, restores it from nothing\n\
             but the serialized snapshot, and finishes; the resumed report must be\n\
             byte-identical to the uninterrupted run's and every audit walk clean.",
        )
    }

    /// Every kill point resumes byte-identically with clean audits.
    fn divergences(rows: &[SoakRow]) -> Vec<String> {
        rows.iter()
            .filter(|r| !r.byte_identical || !r.audit_clean)
            .map(|r| {
                format!(
                    "{} kill at step {} {}: byte-identical={} audit clean={}",
                    r.workload, r.kill_step, r.boundary, r.byte_identical, r.audit_clean
                )
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn grids_have_expected_shape() {
        assert_eq!(FaultSweep::grid().len(), 8);
        let scaling = ScalingSweep::grid();
        assert_eq!(scaling.len(), 12);
        // Devices-major order, the order the JSON has always carried.
        assert_eq!(scaling[0], ScalingCell { devices: 1, batch: 4 });
        assert_eq!(scaling[3], ScalingCell { devices: 2, batch: 4 });
        assert_eq!(SoakResume::grid().len(), 27);
        let names: Vec<&str> = registry().iter().map(|e| e.name).collect();
        assert_eq!(
            names,
            [
                "fault_sweep",
                "scaling_sweep",
                "datapath_sweep",
                "churn_sweep",
                "collective_sweep",
                "fabric_chaos_sweep",
                "placement_sweep",
                "soak_resume"
            ]
        );
    }

    #[test]
    fn one_device_cell_is_its_own_baseline() {
        let row = ScalingSweep::row(&ScalingCell { devices: 1, batch: 4 });
        assert_eq!(row.cluster_time_ns, row.one_device_time_ns);
        assert_eq!(row.speedup_vs_one, 1.0);
        assert_eq!(row.efficiency_pct, 100.0);
        assert_eq!(row.host_wait_ns, 0);
    }

    #[test]
    fn datapath_grid_is_protocol_major() {
        let grid = DatapathSweep::grid();
        assert_eq!(grid.len(), 4);
        assert_eq!(grid[0], DatapathCell { faulty: false, invalidation: false });
        assert_eq!(grid[1], DatapathCell { faulty: true, invalidation: false });
        assert_eq!(grid[2], DatapathCell { faulty: false, invalidation: true });
    }

    #[test]
    fn datapath_row_matches_committed_digest_in_miniature() {
        // One faulty cell end to end — the full grid runs in `sweep
        // datapath_sweep` and the CI sweeps job. The digest is the cell's
        // row in bench_results/datapath_sweep.json.
        let row = DatapathSweep::row(&DatapathCell { faulty: true, invalidation: false });
        assert_eq!(row.snapshot_digest, "cd1f9843dc5b8650");
        assert!(row.link_retries > 0, "fault model should have fired");
    }

    #[test]
    fn churn_grid_shape_and_none_cell_is_clean() {
        let grid = ChurnSweep::grid();
        assert_eq!(grid.len(), 12);
        assert_eq!(grid[0], ChurnCell { devices: 2, kill: KillMode::None, media_rate: 0.0 });
        let row = ChurnSweep::row(&grid[0]);
        assert_eq!(row.down_events, 0);
        assert_eq!(row.redistributed_lines, 0);
        assert_eq!(row.pool_checksum, row.clean_pool_checksum);
        assert!(row.converged);
    }

    #[test]
    fn churn_readmit_cell_converges_under_media_faults() {
        let row =
            ChurnSweep::row(&ChurnCell { devices: 2, kill: KillMode::Readmit, media_rate: 1.0 });
        assert_eq!(row.down_events, 1);
        assert_eq!(row.readmits, 1);
        assert!(row.typed_errors >= 1, "kill must surface typed");
        assert!(row.redistributed_lines > 0);
        assert!(row.ras_faults_injected > 0, "media faults must fire");
        assert!(row.converged, "readmitted cell must converge to clean baseline");
        assert_eq!(ChurnSweep::divergences(&[row]), Vec::<String>::new());
    }

    #[test]
    fn collective_grid_shape_and_small_cell_beats_ring() {
        let grid = CollectiveSweep::grid();
        assert_eq!(grid.len(), 13);
        assert_eq!(grid[0], CollectiveCell::Fabric { hosts: 1 });
        assert_eq!(grid[4], CollectiveCell::Compare { hosts: 2, grad_mb: 1 });
        let CollectiveEntry::Compare(row) = CollectiveSweep::row(&grid[4]) else {
            panic!("a comparison cell yields a comparison row");
        };
        assert!(row.results_match, "pool and ring must agree bit for bit");
        assert!(row.speedup > 1.0, "pool must beat the ring: {row:?}");
        assert!(row.byte_ratio > 1.0, "pool must move fewer bytes: {row:?}");
        assert_eq!(row.pool_port_bytes, 3 << 20);
        assert_eq!(row.ring_link_bytes, 4 << 20);
    }

    #[test]
    fn fabric_anchor_holds_at_one_host_and_four() {
        let rows: Vec<CollectiveEntry> = [1, 4]
            .iter()
            .map(|&hosts| CollectiveSweep::row(&CollectiveCell::Fabric { hosts }))
            .collect();
        let (fabric, _) = split_collective(&rows);
        let (one, four) = (fabric[0], fabric[1]);
        assert!(one.host0_matches_cluster, "H=1 must collapse to the cluster path");
        assert_eq!(one.exchange_ns, 0);
        assert_eq!(one.pool_port_bytes, 0);
        assert!(four.host0_matches_cluster, "host 0 must stay unperturbed at H=4");
        assert!(four.exchange_ns > 0);
        assert!(four.fanin_saved_bytes > 0);
        assert_eq!(CollectiveSweep::divergences(&rows), Vec::<String>::new());
    }

    #[test]
    fn chaos_grid_shape_and_kill_cell_converges() {
        let grid = FabricChaosSweep::grid();
        assert_eq!(grid.len(), 12);
        assert_eq!(grid[0], ChaosCell { hosts: 2, kill: ChaosKill::None, media_rate: 0.0 });
        // One kill cell end to end — the full grid runs in `sweep
        // fabric_chaos_sweep` and the CI sweeps job.
        let row = FabricChaosSweep::row(&ChaosCell {
            hosts: 2,
            kill: ChaosKill::ReduceScatter,
            media_rate: 1.0,
        });
        assert_eq!(row.detections, 1);
        assert_eq!(row.regroups, 1);
        assert_eq!(row.readmissions, 1);
        assert!(row.ras_faults_injected > 0, "media faults must fire");
        assert_eq!(row.poisoned_admitted, 0);
        assert!(row.converged, "kill cell must converge to the never-failed golden");
        assert_eq!(FabricChaosSweep::divergences(&[row]), Vec::<String>::new());
    }

    #[test]
    fn placement_grid_shape_and_tiered_cell_changes_placement() {
        let grid = PlacementSweep::grid();
        assert_eq!(grid.len(), 10);
        assert_eq!(grid[0], PlacementCell { model: "GPT-2".into(), tiered: false });
        // One model's (single-tier, tiered) pair end to end — the full grid
        // runs in `sweep placement_sweep` and the CI sweeps job.
        let single = PlacementSweep::row(&grid[0]);
        let tiered = PlacementSweep::row(&grid[1]);
        assert_eq!(single.device_bytes, 0);
        assert_eq!(single.host_dram_bytes, 0);
        assert!(tiered.host_dram_bytes > 0, "moments must spill to host DRAM: {tiered:?}");
        assert!(tiered.device_bytes > 0, "small grads must pin device-resident: {tiered:?}");
        assert_ne!(single.snapshot_digest, tiered.snapshot_digest);
        assert_eq!(PlacementSweep::divergences(&[single, tiered]), Vec::<String>::new());
    }

    #[test]
    fn placement_rows_reproduce_run_to_run() {
        let cell = PlacementCell { model: "GCNII".into(), tiered: true };
        let a = PlacementSweep::row(&cell);
        let b = PlacementSweep::row(&cell);
        assert_eq!(a, b, "tiered placement row must be byte-reproducible");
    }

    #[test]
    fn zero_rate_fault_cell_matches_clean() {
        let row = FaultSweep::row(&FaultCell { dirty_bytes: 2, fault_rate: 0.0 });
        assert!(row.state_matches_clean);
        assert_eq!(row.slowdown_vs_clean, 1.0);
        assert_eq!(row.crc_errors, 0);
        assert_eq!(FaultSweep::divergences(&[row]), Vec::<String>::new());
    }

    #[test]
    fn soak_cell_resumes_byte_identically() {
        let cell = SoakResume::grid()[22];
        assert_eq!(cell.workload, SoakWorkload::Audited);
        let row = SoakResume::row(&cell);
        assert!(row.byte_identical && row.audit_clean && row.audit_enabled, "{row:?}");
        assert_eq!((row.snapshots_taken, row.restores), (1, 1));
        let mut bad = row.clone();
        bad.byte_identical = false;
        assert_eq!(SoakResume::divergences(&[row, bad]).len(), 1);
    }
}
