//! One benchmark run: generate inputs, set up several times, run the timed
//! closed loop, and derive the end-to-end and per-layer metrics.

use crate::counters::{self, FabricCounters, SimCounters};
use crate::replay;
use crate::trace::{Clock, SpanTotals};
use crate::workloads::{Inputs, Kind, Size};
use std::collections::BTreeMap;
use std::time::Instant;

/// Set-ups per run: at least `SETUP_ROUNDS`, then more while they have
/// taken under `SETUP_SECONDS` in all, up to `MAX_SETUP_ROUNDS`. `setup_s`
/// is their median, so a short set-up is sampled as often as a long one
/// needs to be steady.
const SETUP_ROUNDS: usize = 3;
const SETUP_SECONDS: f64 = 2.0;
const MAX_SETUP_ROUNDS: usize = 25;

pub struct RunConfig {
    pub kind: Kind,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub size: Size,
}

/// One named metric.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

pub struct RunResult {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    /// Every end-to-end metric (traced runs report them too, for
    /// reference; only untraced runs are the measurement).
    pub end_to_end: Vec<Metric>,
    /// Per-layer metrics; empty unless traced.
    pub per_layer: Vec<Metric>,
    pub digest: u64,
    pub digest_steps: u64,
    /// The percentile the `*_tail` metrics report, e.g. `p90.1 of 101`.
    pub tail_label: String,
    pub errors: Vec<String>,
    /// Host wall time of every timed step, in order.
    pub step_ms: Vec<f64>,
    /// Each timed step's wall time in reference-probe units.
    pub step_rel: Vec<f64>,
    /// Self-time summary of the traced run, per span name.
    pub span_totals: BTreeMap<&'static str, SpanTotals>,
    pub chrome_trace: Option<String>,
}

fn median(v: &[f64]) -> f64 {
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let n = s.len();
    if n % 2 == 1 {
        s[n / 2]
    } else {
        (s[n / 2 - 1] + s[n / 2]) / 2.0
    }
}

/// The highest percentile of `v` with at least ten samples beyond it,
/// labelled; with ten samples or fewer, the maximum.
fn tail(v: &[f64]) -> (f64, String) {
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let n = s.len();
    if n <= 10 {
        return (s[n - 1], format!("max of {n}"));
    }
    let i = n - 11;
    let pct = 100.0 * (i + 1) as f64 / n as f64;
    (s[i], format!("p{pct:.1} of {n}"))
}

/// Process high-water resident set size in MB.
fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kib| kib * 1024.0 / 1e6)
}

pub fn run(cfg: &RunConfig) -> Result<RunResult, String> {
    let inputs = Inputs::generate(cfg.kind, cfg.size, cfg.seed);

    let mut setup_s: Vec<f64> = Vec::new();
    let mut w = None;
    while setup_s.len() < SETUP_ROUNDS
        || (setup_s.len() < MAX_SETUP_ROUNDS && setup_s.iter().sum::<f64>() < SETUP_SECONDS)
    {
        // Drop the previous instance first, so set-ups never overlap.
        drop(w.take());
        let t0 = Instant::now();
        w = Some(inputs.setup()?);
        setup_s.push(t0.elapsed().as_secs_f64());
    }
    let mut w = w.expect("at least one set-up round");

    let window = cfg.kind.digest_steps();
    let c0 = SimCounters::of(&w.sessions());
    let f0 = w.fabric_counters();
    let (attempts0, retried0) = w.param_attempts();
    let sim0 = w.sim_now();

    let mut clock = Clock::new(cfg.trace);
    let mut walls_ns: Vec<u64> = Vec::new();
    let mut rel: Vec<f64> = Vec::new();
    let mut traced_step: Vec<bool> = Vec::new();
    let mut errors = Vec::new();
    let mut at_window = None;
    let started = Instant::now();
    let mut step = 0u64;
    while step < window || started.elapsed().as_secs_f64() < cfg.seconds {
        // A traced run records every other step, so the unrecorded ones
        // measure what recording costs.
        let record = cfg.trace && step.is_multiple_of(2);
        clock.set_tracing(record);
        clock.begin_step(step);
        let r = w.step(&mut clock);
        let (wall, step_rel) = clock.end_step();
        walls_ns.push(wall);
        rel.push(step_rel);
        traced_step.push(record);
        if let Err(e) = r {
            errors.push(format!("step {step}: {e}"));
        }
        step += 1;
        if step == window {
            let sessions = w.sessions();
            at_window = Some((
                SimCounters::of(&sessions).since(&c0),
                w.fabric_counters().since(&f0),
                w.param_attempts(),
                w.sim_now() - sim0,
                counters::digest(&sessions, &w.digest_state(), w.sim_now()),
            ));
        }
        if errors.len() > 16 {
            break;
        }
    }
    clock.set_tracing(cfg.trace);
    let c_end = SimCounters::of(&w.sessions());
    let replay_set = w.replay_set();
    drop(w);

    let attempted = walls_ns.len() as u64;
    let failed = errors.len() as u64;
    let Some((cw, fw, (attempts_k, retried_k), sim_window, digest)) = at_window else {
        return Err(format!("run stopped before its {window}-step digest window: {errors:?}"));
    };
    let walls_ms: Vec<f64> = walls_ns.iter().map(|&ns| ns as f64 / 1e6).collect();
    let (tail_ms, tail_label) = tail(&walls_ms);
    let wall_total_s = walls_ns.iter().sum::<u64>() as f64 / 1e9;
    let lines = c_end.since(&c0).lines_moved() as f64;
    let k = window as f64;
    let sim_step_us = sim_window.as_ps() as f64 / 1e6 / k;

    let end_to_end = vec![
        Metric { name: "step_wall_ms", value: median(&walls_ms), unit: "ms" },
        Metric { name: "step_wall_ms_tail", value: tail_ms, unit: "ms" },
        Metric { name: "step_wall_rel", value: median(&rel), unit: "probes" },
        Metric { name: "step_wall_rel_tail", value: tail(&rel).0, unit: "probes" },
        Metric { name: "sim_lines_per_s", value: lines / wall_total_s, unit: "lines/s" },
        Metric { name: "sim_step_us", value: sim_step_us, unit: "sim_us" },
        Metric { name: "setup_s", value: median(&setup_s), unit: "s" },
        Metric { name: "peak_rss_mb", value: peak_rss_mb(), unit: "MB" },
        Metric { name: "failed_ratio", value: failed as f64 / attempted as f64, unit: "ratio" },
    ];

    let mut per_layer = Vec::new();
    if cfg.trace {
        let kernels = replay::replay(&replay_set, &mut clock);
        let totals = clock.totals();
        let ns_per_unit = |name: &str| {
            totals.get(name).map_or(0.0, |t| t.total_ns as f64 / t.units.max(1) as f64)
        };
        let per_call = |name: &str| {
            totals.get(name).map_or(0.0, |t| t.total_ns as f64 / t.calls.max(1) as f64)
        };
        // Compared in probe units, which factor out the host's contention.
        let recorded: Vec<f64> =
            rel.iter().zip(&traced_step).filter(|(_, &t)| t).map(|(&r, _)| r).collect();
        let unrecorded: Vec<f64> =
            rel.iter().zip(&traced_step).filter(|(_, &t)| !t).map(|(&r, _)| r).collect();
        let overhead_pct = if recorded.is_empty() || unrecorded.is_empty() {
            0.0
        } else {
            (median(&recorded) / median(&unrecorded) - 1.0) * 100.0
        };
        let push_param = ns_per_unit("session.push_param_lines");
        // The gap is meaningful only where the session runs the bulk path
        // the four kernels make up.
        let unattributed =
            if cfg.kind == Kind::Gpt2Step { push_param - kernels.sum() } else { 0.0 };
        per_layer = layer_metrics(&cw, &fw, k, attempts_k - attempts0, retried_k - retried0);
        per_layer.extend([
            Metric {
                name: "session.push_param_lines.ns_per_line",
                value: push_param,
                unit: "ns/line",
            },
            Metric {
                name: "session.push_grad_line.ns_per_line",
                value: ns_per_unit("session.push_grad_line"),
                unit: "ns/line",
            },
            Metric {
                name: "session.fence.us_per_call",
                value: per_call("session.fence") / 1e3,
                unit: "us/call",
            },
            Metric {
                name: "session.check_activation.us_per_call",
                value: per_call("session.check_activation") / 1e3,
                unit: "us/call",
            },
            Metric {
                name: "session.unattributed.ns_per_line",
                value: unattributed,
                unit: "ns/line",
            },
            Metric {
                name: "dba.aggregate_lines.ns_per_line",
                value: kernels.dba_aggregate_lines,
                unit: "ns/line",
            },
            Metric {
                name: "giant_cache.apply_dba_payloads.ns_per_line",
                value: kernels.giant_cache_apply_dba_payloads,
                unit: "ns/line",
            },
            Metric {
                name: "coherence.write_run_accounted.ns_per_line",
                value: kernels.coherence_write_run_accounted,
                unit: "ns/line",
            },
            Metric {
                name: "link.transfer.ns_per_call",
                value: kernels.link_transfer,
                unit: "ns/call",
            },
            Metric {
                name: "placement.side_push.ns_per_line",
                value: ns_per_unit("placement.side_push"),
                unit: "ns/line",
            },
            Metric {
                name: "fabric.grad_and_exchange.ms",
                value: per_call("fabric.grad_and_exchange") / 1e6,
                unit: "ms",
            },
            Metric {
                name: "fabric.activate_and_broadcast.ms",
                value: per_call("fabric.activate_and_broadcast") / 1e6,
                unit: "ms",
            },
            Metric {
                name: "collective.all_reduce.ms",
                value: per_call("replay.collective.all_reduce") / 1e6,
                unit: "ms",
            },
            Metric { name: "trace.overhead_pct", value: overhead_pct, unit: "%" },
            Metric { name: "sim.step_us", value: sim_step_us, unit: "sim_us" },
        ]);
    }

    Ok(RunResult {
        correct: errors.is_empty(),
        attempted,
        failed,
        end_to_end,
        per_layer,
        digest,
        digest_steps: window,
        tail_label,
        span_totals: clock.totals(),
        step_ms: walls_ms,
        step_rel: rel,
        chrome_trace: cfg.trace.then(|| clock.chrome_trace()),
        errors,
    })
}

/// The simulated per-layer counters over the digest window, per step.
fn layer_metrics(
    c: &SimCounters,
    f: &FabricCounters,
    k: f64,
    param_attempts: u64,
    param_retried: u64,
) -> Vec<Metric> {
    let per_step = |v: u64| v as f64 / k;
    let us_per_step = |ps_or_ns: f64| ps_or_ns / k;
    let first_try =
        if param_attempts == 0 { 0.0 } else { 1.0 - param_retried as f64 / param_attempts as f64 };
    let m = |name, value, unit| Metric { name, value, unit };
    vec![
        m(
            "session.wire_bytes_per_param_line",
            c.bytes_to_device as f64 / c.param_lines.max(1) as f64,
            "bytes/line",
        ),
        m("link.to_device_bytes", per_step(c.link_to_device_bytes), "bytes/step"),
        m("link.to_host_bytes", per_step(c.link_to_host_bytes), "bytes/step"),
        m(
            "link.to_device_busy_us",
            us_per_step(c.link_to_device_busy_ps as f64 / 1e6),
            "sim_us/step",
        ),
        m("fence.calls", per_step(c.fence_calls), "count/step"),
        m("fence.wait_us", us_per_step(c.fence_wait_ps as f64 / 1e6), "sim_us/step"),
        m("coherence.messages", per_step(c.coherence_messages), "count/step"),
        m("fault.retries", per_step(c.retries), "count/step"),
        m("fault.full_line_retries", per_step(c.full_line_retries), "count/step"),
        m("fault.checksum_mismatches", per_step(c.checksum_mismatches), "count/step"),
        m("fault.quarantined_lines", per_step(c.quarantined_lines), "count/step"),
        m("fault.degraded_regions", per_step(c.degraded_regions), "count/step"),
        m("fault.first_try_ratio", first_try, "ratio"),
        m("ras.scrub_visits", per_step(c.scrub_visits), "count/step"),
        m("ras.lines_retired", per_step(c.lines_retired), "count/step"),
        m("ras.rebuilds", per_step(c.rebuilds), "count/step"),
        m("placement.migrations", per_step(c.migrations), "count/step"),
        m("placement.promotions", per_step(c.promotions), "count/step"),
        m("placement.demotions", per_step(c.demotions), "count/step"),
        m("placement.migrated_bytes", per_step(c.migrated_bytes), "bytes/step"),
        m("placement.pool_bytes", per_step(c.pool_bytes), "bytes/step"),
        m("placement.migration_us", us_per_step(c.migration_ns as f64 / 1e3), "sim_us/step"),
        m("arbiter.wait_us", us_per_step(f.arbiter_wait_ns as f64 / 1e3), "sim_us/step"),
        m("arbiter.rounds", per_step(f.arbiter_rounds), "count/step"),
        m("arbiter.fanout_saved_bytes", per_step(f.arbiter_fanout_saved_bytes), "bytes/step"),
        m("collective.exchange_us", us_per_step(f.exchange_ns as f64 / 1e3), "sim_us/step"),
        m("collective.port_bytes", per_step(f.port_bytes), "bytes/step"),
        m("collective.media_bytes", per_step(f.media_bytes), "bytes/step"),
        m("collective.fanin_saved_bytes", per_step(f.fanin_saved_bytes), "bytes/step"),
    ]
}
