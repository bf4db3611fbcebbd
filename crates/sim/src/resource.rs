//! Queueing-theory building blocks used by the interconnect and compute
//! models: a FIFO serial server (a link is a serial bus — the paper's CXL
//! emulator streams cache lines "one after another"), a bounded pending
//! queue (the 128-entry CXL controller queue), and busy-interval sets for
//! exposed-vs-overlapped time accounting.

use crate::time::{Bandwidth, SimTime};
use serde::{Deserialize, Serialize};
use std::collections::VecDeque;

/// A half-open busy interval `[start, end)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Interval {
    pub start: SimTime,
    pub end: SimTime,
}

impl Interval {
    /// Construct, asserting `start <= end`.
    pub fn new(start: SimTime, end: SimTime) -> Self {
        assert!(start <= end, "inverted interval {start}..{end}");
        Interval { start, end }
    }
    /// Interval length.
    #[inline]
    pub fn len(&self) -> SimTime {
        self.end - self.start
    }
    /// True when the interval is empty.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.start == self.end
    }
}

/// A work-conserving FIFO server with a fixed byte rate.
///
/// Jobs are submitted in nondecreasing ready-time order (the simulation is
/// causal) and each occupies the server for `bytes / rate`, starting no
/// earlier than both its ready time and the completion of the previous job.
#[derive(Debug, Clone)]
pub struct SerialServer {
    rate: Bandwidth,
    next_free: SimTime,
    busy: SimTime,
    bytes_served: u64,
    jobs: u64,
    last_ready: SimTime,
    /// Service time of the most recent byte count, `(bytes, time)`: links
    /// stream runs of equal-sized payloads, so this saves the per-job float
    /// divide. Derived from `rate`, so not part of the snapshot.
    memo: (u64, SimTime),
}

impl SerialServer {
    /// A server draining at `rate`.
    pub fn new(rate: Bandwidth) -> Self {
        SerialServer {
            rate,
            next_free: SimTime::ZERO,
            busy: SimTime::ZERO,
            bytes_served: 0,
            jobs: 0,
            last_ready: SimTime::ZERO,
            memo: (0, SimTime::ZERO),
        }
    }

    /// The configured rate.
    pub fn rate(&self) -> Bandwidth {
        self.rate
    }

    /// Submit a job of `bytes` that becomes ready at `ready`; returns the
    /// service interval. An extra fixed `latency` (e.g. the 1 ns Aggregator
    /// delay) can be folded in by the caller via [`SerialServer::submit_with_latency`].
    pub fn submit(&mut self, ready: SimTime, bytes: u64) -> Interval {
        self.submit_with_latency(ready, bytes, SimTime::ZERO)
    }

    /// Like [`submit`](Self::submit) but the job additionally pays a fixed
    /// pipeline `latency` before its bytes start flowing. Because service is
    /// FIFO and pipelined, the latency delays only this job's start, not the
    /// server's availability for subsequent bytes.
    pub fn submit_with_latency(
        &mut self,
        ready: SimTime,
        bytes: u64,
        latency: SimTime,
    ) -> Interval {
        assert!(
            ready >= self.last_ready,
            "SerialServer requires nondecreasing ready times ({ready} < {})",
            self.last_ready
        );
        self.last_ready = ready;
        let start = (ready + latency).max(self.next_free);
        if self.memo.0 != bytes {
            self.memo = (bytes, self.rate.transfer_time(bytes));
        }
        let service = self.memo.1;
        let end = start + service;
        self.next_free = end;
        self.busy += service;
        self.bytes_served += bytes;
        self.jobs += 1;
        Interval { start, end }
    }

    /// Earliest time the server could start a new job.
    pub fn next_free(&self) -> SimTime {
        self.next_free
    }
    /// Cumulative service (busy) time.
    pub fn busy_time(&self) -> SimTime {
        self.busy
    }
    /// Total bytes served.
    pub fn bytes_served(&self) -> u64 {
        self.bytes_served
    }
    /// Total jobs served.
    pub fn jobs(&self) -> u64 {
        self.jobs
    }
    /// Utilization over `[0, horizon)`.
    pub fn utilization(&self, horizon: SimTime) -> f64 {
        self.busy.fraction_of(horizon)
    }

    /// Capture the full server state for a checkpoint.
    pub fn snapshot(&self) -> SerialServerSnapshot {
        SerialServerSnapshot {
            rate: self.rate,
            next_free: self.next_free,
            busy: self.busy,
            bytes_served: self.bytes_served,
            jobs: self.jobs,
            last_ready: self.last_ready,
        }
    }

    /// Rebuild a server from a snapshot; subsequent submissions behave
    /// exactly as they would have on the original.
    pub fn restore(s: &SerialServerSnapshot) -> Self {
        SerialServer {
            rate: s.rate,
            next_free: s.next_free,
            busy: s.busy,
            bytes_served: s.bytes_served,
            jobs: s.jobs,
            last_ready: s.last_ready,
            memo: (0, SimTime::ZERO),
        }
    }
}

/// Serializable image of a [`SerialServer`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SerialServerSnapshot {
    /// Configured drain rate.
    pub rate: Bandwidth,
    /// Earliest start time for the next job.
    pub next_free: SimTime,
    /// Cumulative busy time.
    pub busy: SimTime,
    /// Total bytes served.
    pub bytes_served: u64,
    /// Total jobs served.
    pub jobs: u64,
    /// Ready time of the most recent submission (monotonicity guard).
    pub last_ready: SimTime,
}

/// A bounded FIFO admission queue in front of a serial server, modeling the
/// CXL controller's pending queue ("a pending queue of 128 entries",
/// §VIII-A). When the queue is full the producer stalls: the entry is
/// admitted only once an older entry has completed service. The returned
/// admission time therefore back-pressures the producer model.
#[derive(Debug, Clone)]
pub struct BoundedServer {
    server: SerialServer,
    capacity: usize,
    /// Completion times of admitted-but-possibly-unfinished entries, FIFO.
    completions: VecDeque<SimTime>,
    stall: SimTime,
    max_occupancy: usize,
}

impl BoundedServer {
    /// A serial server fronted by a queue of `capacity` entries.
    pub fn new(rate: Bandwidth, capacity: usize) -> Self {
        assert!(capacity > 0, "queue capacity must be positive");
        BoundedServer {
            server: SerialServer::new(rate),
            capacity,
            completions: VecDeque::with_capacity(capacity),
            stall: SimTime::ZERO,
            max_occupancy: 0,
        }
    }

    /// Submit a job; returns `(admitted, service_interval)` where `admitted`
    /// is when the producer could hand the entry to the queue (≥ `ready` when
    /// the queue was full) and the interval is the link service window.
    pub fn submit(&mut self, ready: SimTime, bytes: u64) -> (SimTime, Interval) {
        self.submit_with_latency(ready, bytes, SimTime::ZERO)
    }

    /// [`submit`](Self::submit) with a fixed per-entry pipeline latency.
    pub fn submit_with_latency(
        &mut self,
        ready: SimTime,
        bytes: u64,
        latency: SimTime,
    ) -> (SimTime, Interval) {
        // Drop entries that have certainly drained by `ready`.
        while let Some(&front) = self.completions.front() {
            if front <= ready {
                self.completions.pop_front();
            } else {
                break;
            }
        }
        // If still full, the producer must wait for the oldest in-flight
        // entry to finish.
        let admitted = if self.completions.len() >= self.capacity {
            let idx = self.completions.len() - self.capacity;
            let unblock = self.completions[idx];
            self.stall += unblock - ready;
            unblock
        } else {
            ready
        };
        // Entries that drained while the producer was stalled have left the
        // queue by the admission instant.
        while let Some(&front) = self.completions.front() {
            if front <= admitted {
                self.completions.pop_front();
            } else {
                break;
            }
        }
        let iv = self.server.submit_with_latency(admitted, bytes, latency);
        self.completions.push_back(iv.end);
        self.max_occupancy = self.max_occupancy.max(self.completions.len());
        (admitted, iv)
    }

    /// Total producer stall time caused by a full queue.
    pub fn stall_time(&self) -> SimTime {
        self.stall
    }
    /// High-water mark of queue occupancy observed.
    pub fn max_occupancy(&self) -> usize {
        self.max_occupancy
    }
    /// The underlying serial server.
    pub fn server(&self) -> &SerialServer {
        &self.server
    }

    /// Capture the queue state (including in-flight completion times) for a
    /// checkpoint.
    pub fn snapshot(&self) -> BoundedServerSnapshot {
        BoundedServerSnapshot {
            server: self.server.snapshot(),
            capacity: self.capacity as u64,
            completions: self.completions.iter().copied().collect(),
            stall: self.stall,
            max_occupancy: self.max_occupancy as u64,
        }
    }

    /// Rebuild a bounded server from a snapshot.
    pub fn restore(s: &BoundedServerSnapshot) -> Self {
        assert!(s.capacity > 0, "queue capacity must be positive");
        BoundedServer {
            server: SerialServer::restore(&s.server),
            capacity: s.capacity as usize,
            completions: s.completions.iter().copied().collect(),
            stall: s.stall,
            max_occupancy: s.max_occupancy as usize,
        }
    }
}

/// Serializable image of a [`BoundedServer`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct BoundedServerSnapshot {
    /// The fronted serial server.
    pub server: SerialServerSnapshot,
    /// Queue capacity.
    pub capacity: u64,
    /// FIFO completion times of admitted-but-possibly-unfinished entries.
    pub completions: Vec<SimTime>,
    /// Accumulated producer stall time.
    pub stall: SimTime,
    /// Occupancy high-water mark.
    pub max_occupancy: u64,
}

/// A set of busy intervals with union/intersection measures. Used to compute
/// "communication time exposed to the critical path": the part of the link's
/// busy time not covered by compute busy time.
#[derive(Debug, Clone, Default)]
pub struct IntervalSet {
    /// Disjoint, sorted intervals.
    ivs: Vec<Interval>,
}

impl IntervalSet {
    /// Empty set.
    pub fn new() -> Self {
        Self::default()
    }

    /// Build from arbitrary (possibly overlapping, unsorted) intervals.
    pub fn from_intervals<I: IntoIterator<Item = Interval>>(iter: I) -> Self {
        let mut s = Self::new();
        for iv in iter {
            s.add(iv);
        }
        s
    }

    /// Insert an interval, merging overlaps and touching neighbours.
    pub fn add(&mut self, iv: Interval) {
        if iv.is_empty() {
            return;
        }
        // Causal callers insert at the tail. Stored intervals are disjoint
        // and non-touching, so an interval starting at or after the last
        // one's start can only extend it or follow it.
        if let Some(last) = self.ivs.last_mut() {
            if iv.start > last.end {
                self.ivs.push(iv);
                return;
            }
            if iv.start >= last.start {
                last.end = last.end.max(iv.end);
                return;
            }
        }
        // Binary search for insertion point by start.
        let pos = self.ivs.partition_point(|x| x.end < iv.start);
        let mut merged = iv;
        let mut end_pos = pos;
        while end_pos < self.ivs.len() && self.ivs[end_pos].start <= merged.end {
            merged.start = merged.start.min(self.ivs[end_pos].start);
            merged.end = merged.end.max(self.ivs[end_pos].end);
            end_pos += 1;
        }
        self.ivs.splice(pos..end_pos, [merged]);
    }

    /// Total measure of the set.
    pub fn total(&self) -> SimTime {
        self.ivs.iter().map(Interval::len).sum()
    }

    /// Number of disjoint intervals.
    pub fn len(&self) -> usize {
        self.ivs.len()
    }
    /// True if the set is empty.
    pub fn is_empty(&self) -> bool {
        self.ivs.is_empty()
    }
    /// The disjoint intervals, sorted.
    pub fn intervals(&self) -> &[Interval] {
        &self.ivs
    }

    /// Measure of `self ∩ other`.
    pub fn intersection_measure(&self, other: &IntervalSet) -> SimTime {
        let mut total = SimTime::ZERO;
        let (mut i, mut j) = (0, 0);
        while i < self.ivs.len() && j < other.ivs.len() {
            let a = self.ivs[i];
            let b = other.ivs[j];
            let lo = a.start.max(b.start);
            let hi = a.end.min(b.end);
            if lo < hi {
                total += hi - lo;
            }
            if a.end <= b.end {
                i += 1;
            } else {
                j += 1;
            }
        }
        total
    }

    /// Measure of `self \ other` — e.g. link-busy time *not* hidden behind
    /// compute: the exposed communication time of the paper's Table I.
    pub fn difference_measure(&self, other: &IntervalSet) -> SimTime {
        self.total() - self.intersection_measure(other)
    }

    /// Latest end time in the set (ZERO when empty).
    pub fn span_end(&self) -> SimTime {
        self.ivs.last().map_or(SimTime::ZERO, |iv| iv.end)
    }

    /// Capture the disjoint interval list for a checkpoint.
    pub fn snapshot(&self) -> IntervalSetSnapshot {
        IntervalSetSnapshot { ivs: self.ivs.iter().map(|iv| (iv.start, iv.end)).collect() }
    }

    /// Rebuild a set from a snapshot. The captured list is already disjoint
    /// and sorted, so this is a straight reload.
    pub fn restore(s: &IntervalSetSnapshot) -> Self {
        IntervalSet { ivs: s.ivs.iter().map(|&(start, end)| Interval::new(start, end)).collect() }
    }
}

/// Serializable image of an [`IntervalSet`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct IntervalSetSnapshot {
    /// Disjoint `(start, end)` pairs, sorted by start.
    pub ivs: Vec<(SimTime, SimTime)>,
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ns(a: u64, b: u64) -> Interval {
        Interval::new(SimTime::from_ns(a), SimTime::from_ns(b))
    }

    #[test]
    fn serial_server_fifo_backlog() {
        // 16 GB/s → 64 B lines take 4 ns each.
        let mut s = SerialServer::new(Bandwidth::from_gb_per_sec(16.0));
        let a = s.submit(SimTime::ZERO, 64);
        assert_eq!((a.start, a.end), (SimTime::ZERO, SimTime::from_ns(4)));
        // Second job ready at 1 ns queues behind the first.
        let b = s.submit(SimTime::from_ns(1), 64);
        assert_eq!((b.start, b.end), (SimTime::from_ns(4), SimTime::from_ns(8)));
        // Third job ready after the backlog drains starts immediately.
        let c = s.submit(SimTime::from_ns(20), 64);
        assert_eq!(c.start, SimTime::from_ns(20));
        assert_eq!(s.bytes_served(), 192);
        assert_eq!(s.jobs(), 3);
        assert_eq!(s.busy_time(), SimTime::from_ns(12));
    }

    #[test]
    fn serial_server_latency_delays_start_only() {
        let mut s = SerialServer::new(Bandwidth::from_gb_per_sec(16.0));
        // 1 ns aggregator latency on a lightly-loaded link.
        let a = s.submit_with_latency(SimTime::ZERO, 64, SimTime::from_ns(1));
        assert_eq!((a.start, a.end), (SimTime::from_ns(1), SimTime::from_ns(5)));
        // Pipelined: a back-to-back job's latency is hidden behind the busy link.
        let b = s.submit_with_latency(SimTime::ZERO, 64, SimTime::from_ns(1));
        assert_eq!(b.start, SimTime::from_ns(5));
    }

    #[test]
    #[should_panic(expected = "nondecreasing")]
    fn serial_server_rejects_time_travel() {
        let mut s = SerialServer::new(Bandwidth::from_gb_per_sec(1.0));
        s.submit(SimTime::from_ns(10), 1);
        s.submit(SimTime::from_ns(5), 1);
    }

    #[test]
    fn bounded_server_backpressure() {
        // Capacity 2, 4 ns per 64B line, all ready at t=0.
        let mut q = BoundedServer::new(Bandwidth::from_gb_per_sec(16.0), 2);
        let (a0, _) = q.submit(SimTime::ZERO, 64);
        let (a1, _) = q.submit(SimTime::ZERO, 64);
        assert_eq!(a0, SimTime::ZERO);
        assert_eq!(a1, SimTime::ZERO);
        // Third entry must wait for the first to complete at 4 ns.
        let (a2, iv2) = q.submit(SimTime::ZERO, 64);
        assert_eq!(a2, SimTime::from_ns(4));
        assert_eq!(iv2.end, SimTime::from_ns(12));
        assert_eq!(q.stall_time(), SimTime::from_ns(4));
        assert_eq!(q.max_occupancy(), 2);
    }

    #[test]
    fn bounded_server_no_stall_when_spaced() {
        let mut q = BoundedServer::new(Bandwidth::from_gb_per_sec(16.0), 2);
        for i in 0..10 {
            let (adm, _) = q.submit(SimTime::from_ns(i * 10), 64);
            assert_eq!(adm, SimTime::from_ns(i * 10));
        }
        assert_eq!(q.stall_time(), SimTime::ZERO);
    }

    #[test]
    fn interval_set_merging() {
        let mut s = IntervalSet::new();
        s.add(ns(0, 10));
        s.add(ns(20, 30));
        s.add(ns(5, 25)); // bridges both
        assert_eq!(s.len(), 1);
        assert_eq!(s.total(), SimTime::from_ns(30));
        s.add(ns(40, 40)); // empty is a no-op
        assert_eq!(s.len(), 1);
    }

    #[test]
    fn interval_set_adjacent_intervals_merge() {
        let mut s = IntervalSet::new();
        s.add(ns(0, 10));
        s.add(ns(10, 20));
        assert_eq!(s.len(), 1);
        assert_eq!(s.total(), SimTime::from_ns(20));
    }

    #[test]
    fn interval_set_out_of_order_insertion() {
        let mut s = IntervalSet::new();
        s.add(ns(50, 60));
        s.add(ns(0, 10));
        s.add(ns(30, 40));
        assert_eq!(s.len(), 3);
        assert_eq!(s.total(), SimTime::from_ns(30));
        assert_eq!(s.span_end(), SimTime::from_ns(60));
    }

    #[test]
    fn exposed_time_accounting() {
        // Link busy 0..40; compute busy 10..30 → 20 ns exposed.
        let link = IntervalSet::from_intervals([ns(0, 40)]);
        let compute = IntervalSet::from_intervals([ns(10, 30)]);
        assert_eq!(link.intersection_measure(&compute), SimTime::from_ns(20));
        assert_eq!(link.difference_measure(&compute), SimTime::from_ns(20));
        // Fully hidden case.
        let compute_all = IntervalSet::from_intervals([ns(0, 100)]);
        assert_eq!(link.difference_measure(&compute_all), SimTime::ZERO);
    }

    #[test]
    fn intersection_multiple_fragments() {
        let a = IntervalSet::from_intervals([ns(0, 10), ns(20, 30), ns(40, 50)]);
        let b = IntervalSet::from_intervals([ns(5, 25), ns(45, 60)]);
        // overlaps: [5,10)=5, [20,25)=5, [45,50)=5
        assert_eq!(a.intersection_measure(&b), SimTime::from_ns(15));
        assert_eq!(b.intersection_measure(&a), SimTime::from_ns(15));
    }
}
