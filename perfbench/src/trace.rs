//! Host-time measurement from outside the program: every call into the
//! library goes through [`Clock::call`], which times it and, in a traced
//! run, records a span (name, start, end, parent, step id, work units).
//! Spans stay in memory and are written out once the run ends.

use crate::reference::Reference;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// One recorded span. Times are nanoseconds since the clock's epoch.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    /// Step id shared by every span of one step (`u64::MAX` for spans
    /// outside any step, such as kernel replays).
    pub step: u64,
    pub parent: Option<usize>,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Work units the span covers (lines, calls), for per-unit costs.
    pub units: u64,
}

/// Per-name totals over every recorded span.
#[derive(Debug, Clone, Copy, Default)]
pub struct SpanTotals {
    pub calls: u64,
    pub units: u64,
    pub total_ns: u64,
    pub self_ns: u64,
}

/// Times calls into the program and, when tracing, records their spans.
#[derive(Debug)]
pub struct Clock {
    epoch: Instant,
    tracing: bool,
    spans: Vec<Span>,
    step: u64,
    step_span: Option<usize>,
    step_start: Option<Instant>,
    /// Host time spent in harness-side output checks and reference probes
    /// during this step, excluded from the step's wall time.
    check_ns: u64,
    /// Built on the first probe, so untimed warm-up steps never pay for it.
    reference: Option<Reference>,
    /// The latest reference probe's time.
    last_probe_ns: u64,
    /// This step's calls: total host time, and the same in probe units.
    calls_ns: u64,
    rel: f64,
}

/// Calls at least this long are followed by a reference probe, so long
/// steps are sampled through their length.
const PROBE_AFTER_NS: u64 = 1_000_000;

fn nanos(d: std::time::Duration) -> u64 {
    u64::try_from(d.as_nanos()).unwrap_or(u64::MAX)
}

impl Clock {
    pub fn new(tracing: bool) -> Self {
        Clock {
            epoch: Instant::now(),
            tracing,
            spans: Vec::new(),
            step: u64::MAX,
            step_span: None,
            step_start: None,
            check_ns: 0,
            reference: None,
            last_probe_ns: 0,
            calls_ns: 0,
            rel: 0.0,
        }
    }

    pub fn tracing(&self) -> bool {
        self.tracing
    }

    /// Turn span recording on or off (timing continues either way).
    pub fn set_tracing(&mut self, on: bool) {
        self.tracing = on;
    }

    fn since_epoch(&self, t: Instant) -> u64 {
        nanos(t.duration_since(self.epoch))
    }

    /// Take a reference probe (excluded from the step) and return the mean
    /// of it and the previous one: the probe time across the interval
    /// between them.
    fn probe(&mut self) -> f64 {
        let t0 = Instant::now();
        let p = self.reference.get_or_insert_with(Reference::new).probe().max(1);
        self.check_ns += nanos(t0.elapsed());
        let span = (self.last_probe_ns + p) as f64 / 2.0;
        self.last_probe_ns = p;
        span
    }

    /// Open step `step`: spans recorded until [`Clock::end_step`] share its id.
    pub fn begin_step(&mut self, step: u64) {
        self.step = step;
        self.calls_ns = 0;
        self.rel = 0.0;
        self.last_probe_ns = 0;
        self.probe();
        // The opening probe runs before the step starts.
        self.check_ns = 0;
        let now = Instant::now();
        self.step_start = Some(now);
        if self.tracing {
            let start = self.since_epoch(now);
            self.spans.push(Span {
                name: "step",
                step,
                parent: None,
                start_ns: start,
                end_ns: start,
                units: 1,
            });
            self.step_span = Some(self.spans.len() - 1);
        }
    }

    /// Close the open step. Returns its host wall time in nanoseconds,
    /// harness checks and probes excluded, and the same time in units of
    /// the reference probes taken across it: each call is divided by the
    /// probe time around it.
    pub fn end_step(&mut self) -> (u64, f64) {
        let now = Instant::now();
        let start = self.step_start.take().expect("end_step follows begin_step");
        if let Some(i) = self.step_span.take() {
            self.spans[i].end_ns = self.since_epoch(now);
        }
        self.step = u64::MAX;
        let wall = nanos(now.duration_since(start)).saturating_sub(self.check_ns);
        let rest = wall.saturating_sub(self.calls_ns);
        self.rel += rest as f64 / self.probe();
        (wall, self.rel)
    }

    /// Time one call into the program, covering `units` work units.
    pub fn call<T>(&mut self, name: &'static str, units: u64, f: impl FnOnce() -> T) -> T {
        let t0 = Instant::now();
        let out = f();
        let t1 = Instant::now();
        if self.step_start.is_some() {
            let dur = nanos(t1.duration_since(t0));
            self.calls_ns += dur;
            let unit = if dur >= PROBE_AFTER_NS { self.probe() } else { self.last_probe_ns as f64 };
            self.rel += dur as f64 / unit;
        }
        if self.tracing {
            let (start_ns, end_ns) = (self.since_epoch(t0), self.since_epoch(t1));
            self.spans.push(Span {
                name,
                step: self.step,
                parent: self.step_span,
                start_ns,
                end_ns,
                units,
            });
        }
        out
    }

    /// Time a kernel replay the harness runs inside a step: recorded as a
    /// span of its own, and excluded from the step like a check.
    pub fn replay<T>(&mut self, name: &'static str, units: u64, f: impl FnOnce() -> T) -> T {
        let t0 = Instant::now();
        let out = f();
        let t1 = Instant::now();
        self.check_ns += nanos(t1.duration_since(t0));
        if self.tracing {
            let (start_ns, end_ns) = (self.since_epoch(t0), self.since_epoch(t1));
            self.spans.push(Span { name, step: self.step, parent: None, start_ns, end_ns, units });
        }
        out
    }

    /// Run a harness-side output check; its time is excluded from the step.
    pub fn check<T>(&mut self, f: impl FnOnce() -> T) -> T {
        let t0 = Instant::now();
        let out = f();
        self.check_ns += nanos(t0.elapsed());
        out
    }

    /// Totals per span name. A span's self time is its duration minus the
    /// part of it its children cover (children never overlap: the client
    /// is one thread).
    pub fn totals(&self) -> BTreeMap<&'static str, SpanTotals> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.end_ns - s.start_ns;
            }
        }
        let mut out: BTreeMap<&'static str, SpanTotals> = BTreeMap::new();
        for (s, child) in self.spans.iter().zip(child_ns) {
            let t = out.entry(s.name).or_default();
            let dur = s.end_ns - s.start_ns;
            t.calls += 1;
            t.units += s.units;
            t.total_ns += dur;
            t.self_ns += dur.saturating_sub(child);
        }
        out
    }

    /// The spans as Chrome trace-event JSON (open in Perfetto or
    /// `chrome://tracing`).
    pub fn chrome_trace(&self) -> String {
        let mut out = String::from("{\"traceEvents\":[");
        for (i, s) in self.spans.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let step = if s.step == u64::MAX { -1 } else { s.step as i64 };
            let parent = s.parent.map_or(-1, |p| p as i64);
            let _ = write!(
                out,
                "{{\"name\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":{:.3},\"dur\":{:.3},\
                 \"args\":{{\"id\":{i},\"step\":{step},\"parent\":{parent},\"units\":{}}}}}",
                s.name,
                s.start_ns as f64 / 1e3,
                (s.end_ns - s.start_ns) as f64 / 1e3,
                s.units
            );
        }
        out.push_str("]}");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children_and_checks_leave_the_step() {
        let mut c = Clock::new(true);
        c.begin_step(3);
        c.call("a", 10, || std::thread::sleep(std::time::Duration::from_millis(2)));
        c.check(|| std::thread::sleep(std::time::Duration::from_millis(5)));
        let (wall, rel) = c.end_step();
        assert!(rel > 0.0);
        assert!(wall < 5_000_000, "check time excluded from the step: {wall}");
        let t = c.totals();
        assert_eq!(t["a"].units, 10);
        assert_eq!(t["a"].total_ns, t["a"].self_ns);
        assert!(t["step"].self_ns >= 5_000_000, "the check shows as the step's self time");
        assert!(c.chrome_trace().contains("\"name\":\"a\""));
        assert!(c.chrome_trace().contains("\"step\":3,\"parent\":0"));
    }
}
