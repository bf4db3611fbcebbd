//! Kernel replays: the latest step's parameter lines pushed through
//! standalone instances of the four kernels the session's bulk parameter
//! path is built from, each timed alone. Their sum, against the session's
//! own per-line cost, leaves the session path's unattributed time.

use crate::trace::Clock;
use std::borrow::Cow;
use teco_cxl::{
    Agent, Aggregator, CoherenceFabric, CxlConfig, CxlLink, DbaRegister, Direction, GiantCache,
    ProtocolMode,
};
use teco_mem::{Addr, LineData, LINE_BYTES};
use teco_sim::SimTime;

/// Replay rounds; each kernel reports its median round.
const ROUNDS: usize = 3;

/// Parameter lines to replay: `fresh` is pushed over a giant cache and a
/// coherence engine already holding `stale` (the step before).
pub struct ReplaySet<'a> {
    pub fresh: Cow<'a, [LineData]>,
    pub stale: Cow<'a, [LineData]>,
    pub dirty: u8,
}

/// Host nanoseconds per line (per call for the link).
#[derive(Debug, Clone, Copy, Default)]
pub struct KernelCosts {
    pub dba_aggregate_lines: f64,
    pub giant_cache_apply_dba_payloads: f64,
    pub coherence_write_run_accounted: f64,
    pub link_transfer: f64,
}

impl KernelCosts {
    pub fn sum(&self) -> f64 {
        self.dba_aggregate_lines
            + self.giant_cache_apply_dba_payloads
            + self.coherence_write_run_accounted
            + self.link_transfer
    }
}

fn median(mut v: Vec<f64>) -> f64 {
    v.sort_by(f64::total_cmp);
    v[v.len() / 2]
}

/// Time `f` under `clock` and return host nanoseconds per unit.
fn per_unit(clock: &mut Clock, name: &'static str, units: usize, f: impl FnOnce()) -> f64 {
    let t0 = std::time::Instant::now();
    clock.call(name, units as u64, f);
    t0.elapsed().as_nanos() as f64 / units as f64
}

pub fn replay(set: &ReplaySet<'_>, clock: &mut Clock) -> KernelCosts {
    let n = set.fresh.len();
    if n == 0 || set.stale.len() != n {
        return KernelCosts::default();
    }
    let bytes = (n * LINE_BYTES) as u64;
    let reg = DbaRegister::new(true, set.dirty);
    let per = reg.payload_bytes();
    let mut rounds: [Vec<f64>; 4] = Default::default();
    for _ in 0..ROUNDS {
        // Aggregator: pack the fresh lines into one wire payload.
        let mut agg = Aggregator::new();
        agg.set_register(reg);
        let mut payload = Vec::new();
        agg.aggregate_lines(&set.stale, &mut payload);
        rounds[0].push(per_unit(clock, "replay.dba.aggregate_lines", n, || {
            agg.aggregate_lines(&set.fresh, &mut payload);
        }));

        // Giant cache: merge that payload into resident stale lines.
        let mut gc = GiantCache::new(bytes);
        let (_, base) = gc.alloc_region("params", bytes).expect("replay cache fits its lines");
        let mut full = Vec::new();
        Aggregator::new().aggregate_lines(&set.stale, &mut full);
        gc.apply_dba_payloads(base, n, &full).expect("full-line fill of mapped lines");
        gc.disaggregator.set_register(reg);
        rounds[1].push(per_unit(clock, "replay.giant_cache.apply_dba_payloads", n, || {
            gc.apply_dba_payloads(base, n, &payload).expect("merge into mapped lines");
        }));
        drop(gc);

        // Coherence: the run's update-mode writes, over warmed line state.
        let mut coh = CoherenceFabric::new(ProtocolMode::Update);
        coh.register_region(Addr(0), bytes);
        let start = coh.resolve_run(Addr(0), n).expect("registered run resolves");
        coh.write_run_accounted(Agent::Cpu, start, n, LINE_BYTES);
        rounds[2].push(per_unit(clock, "replay.coherence.write_run_accounted", n, || {
            coh.write_run_accounted(Agent::Cpu, start, n, per);
        }));
        drop(coh);

        // Link: one transfer per line, as the session charges it.
        let cfg = CxlConfig::paper();
        let latency = cfg.aggregator_latency;
        let mut link = CxlLink::new(cfg);
        rounds[3].push(per_unit(clock, "replay.link.transfer", n, || {
            for _ in 0..n {
                link.transfer(Direction::ToDevice, SimTime::ZERO, per as u64, latency);
            }
        }));
    }
    let [a, g, c, l] = rounds.map(median);
    KernelCosts {
        dba_aggregate_lines: a,
        giant_cache_apply_dba_payloads: g,
        coherence_write_run_accounted: c,
        link_transfer: l,
    }
}
