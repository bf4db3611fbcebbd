//! Equivalence of the run-level bookkeeping against its per-event
//! definitions:
//!
//! - `CoherenceEngine::write_run_accounted` (one pass per run in update
//!   mode) against one `write_accounted_at` per line, from random prior
//!   line states, initial states and modes, on runs that cross a slab-chunk
//!   boundary;
//! - `IntervalSet::add` (tail fast path) against the general
//!   partition-point/splice insertion it replaces;
//! - the link's memoised service time against a fresh
//!   `Bandwidth::transfer_time` per job, across snapshot/restore.

use proptest::prelude::*;
use teco_cxl::{Agent, CoherenceEngine, CxlConfig, CxlLink, Direction, MesiState, ProtocolMode};
use teco_mem::{Addr, LineSlot, CHUNK_LINES, LINE_BYTES};
use teco_sim::{Interval, IntervalSet, SerialServer, SimTime};

/// Lines in the registered region: one full slab chunk plus part of the
/// next, so runs can start before and end after the chunk boundary.
const REGION_LINES: usize = CHUNK_LINES + 1024;
/// Lowest line any prior operation or run touches.
const WINDOW_LO: usize = CHUNK_LINES - 700;

fn mesi() -> impl Strategy<Value = MesiState> {
    prop::sample::select(vec![MesiState::M, MesiState::E, MesiState::S, MesiState::I])
}

fn mode() -> impl Strategy<Value = ProtocolMode> {
    prop::sample::select(vec![ProtocolMode::Update, ProtocolMode::Invalidation])
}

fn agent() -> impl Strategy<Value = Agent> {
    prop::sample::select(vec![Agent::Cpu, Agent::Device])
}

/// One prior operation: (kind: write/read/flush, agent, line).
fn prior_op() -> impl Strategy<Value = (u8, Agent, usize)> {
    (0u8..3, agent(), WINDOW_LO..REGION_LINES)
}

fn addr(line: usize) -> Addr {
    Addr((line * LINE_BYTES) as u64)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// The run pass lands on the same snapshot — line states, touched
    /// lines, per-opcode counts, traffic per direction, snoop filter — as
    /// the per-line loop, and reports the same push result.
    #[test]
    fn write_run_matches_per_line_writes(
        prior_mode in mode(),
        run_mode in mode(),
        initial in (mesi(), mesi()),
        late_initial in (any::<bool>(), mesi(), mesi()),
        prior in prop::collection::vec(prior_op(), 0..60),
        writer in agent(),
        start in WINDOW_LO..CHUNK_LINES + 200,
        n in 0usize..900,
        payload_len in prop::sample::select(vec![0usize, 16, 32, 48, 64]),
    ) {
        let n = n.min(REGION_LINES - start);
        let mut eng = CoherenceEngine::new(prior_mode).with_initial(initial.0, initial.1);
        eng.register_region(Addr(0), (REGION_LINES * LINE_BYTES) as u64);
        for &(kind, who, line) in &prior {
            match kind {
                0 => {
                    eng.write_accounted_at(who, LineSlot::Dense(line), LINE_BYTES);
                }
                1 => {
                    eng.read(who, addr(line), LINE_BYTES);
                }
                _ => {
                    eng.flush(who, &[addr(line)], LINE_BYTES);
                }
            }
        }
        // A late override changes what every still-untouched line reports.
        if let (true, cs, gs) = late_initial {
            eng = eng.with_initial(cs, gs);
        }
        eng.set_mode(run_mode);
        let mut one = eng.clone();
        let dense = eng.resolve_run(addr(start), n).expect("run lies inside the region");
        let pushed = eng.write_run_accounted(writer, dense, n, payload_len);
        let mut all = true;
        for k in 0..n {
            all &= one.write_accounted_at(writer, LineSlot::Dense(dense + k), payload_len);
        }
        prop_assert_eq!(pushed, all);
        prop_assert_eq!(eng.tracked_lines(), one.tracked_lines());
        prop_assert_eq!(eng.snapshot(), one.snapshot());
    }
}

/// The insertion `IntervalSet::add` used before its tail fast path, kept
/// here as the reference.
fn reference_add(ivs: &mut Vec<Interval>, iv: Interval) {
    if iv.is_empty() {
        return;
    }
    let pos = ivs.partition_point(|x| x.end < iv.start);
    let mut merged = iv;
    let mut end_pos = pos;
    while end_pos < ivs.len() && ivs[end_pos].start <= merged.end {
        merged.start = merged.start.min(ivs[end_pos].start);
        merged.end = merged.end.max(ivs[end_pos].end);
        end_pos += 1;
    }
    ivs.splice(pos..end_pos, [merged]);
}

/// An insertion either at an absolute position (out of order) or relative
/// to the current end of the set (the tail cases: touching, overlapping,
/// inside, or past the last interval).
fn insertion() -> impl Strategy<Value = (bool, i64, u64)> {
    (any::<bool>(), -40i64..400, 0u64..60)
}

proptest! {
    #[test]
    fn interval_set_add_matches_reference(ops in prop::collection::vec(insertion(), 0..80)) {
        let mut set = IntervalSet::new();
        let mut reference = Vec::new();
        for (tail, at, len) in ops {
            let start = if tail {
                (set.span_end().as_ns() as i64 + at.clamp(-40, 40)).max(0) as u64
            } else {
                at.max(0) as u64
            };
            let iv = Interval::new(SimTime::from_ns(start), SimTime::from_ns(start + len));
            set.add(iv);
            reference_add(&mut reference, iv);
            prop_assert_eq!(set.intervals(), &reference[..]);
        }
        let total: SimTime = reference.iter().map(Interval::len).sum();
        prop_assert_eq!(set.total(), total);
    }
}

/// Byte counts a link sees: repeats of one size (the memo hits) mixed with
/// others, including zero.
fn job() -> impl Strategy<Value = (u64, u64, u64)> {
    let bytes = prop_oneof![
        prop::sample::select(vec![0u64, 1, 16, 32, 48, 64, 4096, 1 << 20]),
        0u64..100_000,
    ];
    (0u64..50, bytes, 0u64..3)
}

proptest! {
    /// A serial server charges each job exactly `transfer_time(bytes)`,
    /// starting at `max(ready + latency, previous end)`.
    #[test]
    fn serial_server_service_matches_fresh_transfer_time(
        jobs in prop::collection::vec(job(), 1..120),
    ) {
        let bw = CxlConfig::paper().cxl_bandwidth();
        let mut server = SerialServer::new(bw);
        let (mut ready, mut next_free) = (SimTime::ZERO, SimTime::ZERO);
        for (gap_ns, bytes, latency_ns) in jobs {
            ready += SimTime::from_ns(gap_ns);
            let latency = SimTime::from_ns(latency_ns);
            let iv = server.submit_with_latency(ready, bytes, latency);
            let start = (ready + latency).max(next_free);
            prop_assert_eq!(iv, Interval { start, end: start + bw.transfer_time(bytes) });
            next_free = iv.end;
        }
    }

    /// The link's wire intervals last exactly `transfer_time(bytes)`, and a
    /// link restored from a mid-stream snapshot (which carries no memo)
    /// continues exactly like the uninterrupted one.
    #[test]
    fn link_memo_survives_snapshot_restore(
        jobs in prop::collection::vec(job(), 1..120),
        cut in 0usize..120,
    ) {
        let cfg = CxlConfig::paper();
        let bw = cfg.cxl_bandwidth();
        let mut whole = CxlLink::new(cfg);
        let mut resumed = CxlLink::new(cfg);
        let mut ready = SimTime::ZERO;
        for (i, (gap_ns, bytes, latency_ns)) in jobs.into_iter().enumerate() {
            if i == cut {
                resumed = CxlLink::restore(&resumed.snapshot());
            }
            ready += SimTime::from_ns(gap_ns);
            let d = if i % 3 == 0 { Direction::ToHost } else { Direction::ToDevice };
            let latency = SimTime::from_ns(latency_ns);
            let a = whole.transfer(d, ready, bytes, latency);
            let b = resumed.transfer(d, ready, bytes, latency);
            prop_assert_eq!(a, b);
            prop_assert_eq!(a.len(), bw.transfer_time(bytes));
        }
        prop_assert_eq!(whole.snapshot(), resumed.snapshot());
    }
}
