//! The three workloads and what they share: the step interface the harness
//! drives, seeded line generation, and the parameter-line output check.

use crate::counters::FabricCounters;
use crate::replay::ReplaySet;
use crate::trace::Clock;
use std::borrow::Cow;
use teco_core::TecoSession;
use teco_cxl::merged_reference;
use teco_mem::{Addr, LineData, LINE_BYTES};
use teco_sim::{SimRng, SimTime};

pub mod fabric;
pub mod gpt2;
pub mod tiered;

/// Input scale: `Full` is the benchmark, `Smoke` a tiny copy of every
/// workload for the benchmark's own tests.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Size {
    Full,
    Smoke,
}

impl Size {
    pub fn name(self) -> &'static str {
        match self {
            Size::Full => "full",
            Size::Smoke => "smoke",
        }
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    Gpt2Step,
    FabricAllreduce,
    TieredFaulty,
}

impl Kind {
    pub const ALL: [Kind; 3] = [Kind::Gpt2Step, Kind::FabricAllreduce, Kind::TieredFaulty];

    pub fn name(self) -> &'static str {
        match self {
            Kind::Gpt2Step => "gpt2-step",
            Kind::FabricAllreduce => "fabric-allreduce",
            Kind::TieredFaulty => "tiered-faulty",
        }
    }

    pub fn parse(s: &str) -> Option<Kind> {
        Kind::ALL.into_iter().find(|k| k.name() == s)
    }

    /// Timed steps every run makes at least, and over which the
    /// simulated counters and the digest are taken, so both are exact per
    /// seed however many further steps the time budget allows.
    pub fn digest_steps(self) -> u64 {
        match self {
            Kind::Gpt2Step => 2,
            Kind::FabricAllreduce => 8,
            Kind::TieredFaulty => 2 * tiered::PHASE_STEPS,
        }
    }
}

/// Generated inputs, built before any timing starts.
pub enum Inputs {
    Gpt2(gpt2::Inputs),
    Fabric(fabric::Inputs),
    Tiered(tiered::Inputs),
}

impl Inputs {
    pub fn generate(kind: Kind, size: Size, seed: u64) -> Inputs {
        match kind {
            Kind::Gpt2Step => Inputs::Gpt2(gpt2::Inputs::generate(size, seed)),
            Kind::FabricAllreduce => Inputs::Fabric(fabric::Inputs::generate(size, seed)),
            Kind::TieredFaulty => Inputs::Tiered(tiered::Inputs::generate(size, seed)),
        }
    }

    /// Construct, map tensors and run the warm-up step.
    pub fn setup(&self) -> Result<Box<dyn Workload<'_> + '_>, String> {
        Ok(match self {
            Inputs::Gpt2(i) => Box::new(gpt2::Gpt2Step::setup(i)?),
            Inputs::Fabric(i) => Box::new(fabric::FabricAllreduce::setup(i)?),
            Inputs::Tiered(i) => Box::new(tiered::TieredFaulty::setup(i)?),
        })
    }
}

/// One workload instance, past its set-up and warm-up.
pub trait Workload<'a> {
    /// Run the next step. Every call into the program goes through
    /// `clock`; output checks run under [`Clock::check`]. `Err` means the
    /// step failed, by a program error or a failed output check.
    fn step(&mut self, clock: &mut Clock) -> Result<(), String>;
    /// The simulated clock after the last step.
    fn sim_now(&self) -> SimTime;
    /// Every device session.
    fn sessions(&self) -> Vec<&TecoSession>;
    /// Fabric-layer counters (zero for a single session).
    fn fabric_counters(&self) -> FabricCounters {
        FabricCounters::default()
    }
    /// State folded into the digest beyond the sessions' statistics: the
    /// fabric report, or the sampled parameter lines as the device holds
    /// them.
    fn digest_state(&self) -> String;
    /// Cumulative parameter lines pushed through the timed session call
    /// and how many of them needed a retry (CRC replay or full-line resend).
    fn param_attempts(&self) -> (u64, u64);
    /// The latest step's parameter lines, for the kernel replays.
    fn replay_set(&self) -> ReplaySet<'a>;
}

/// Tensors are pushed in this many calls per step — the optimizer's
/// per-layer-group granularity — so a long step is timed, and probed, in
/// parts.
pub const PUSH_CALLS: usize = 8;

/// Push `grads` through `push_grad_line` in [`PUSH_CALLS`] timed parts.
pub fn push_grads(
    clock: &mut Clock,
    s: &mut TecoSession,
    base: Addr,
    grads: &[LineData],
    now: SimTime,
) -> Result<(), String> {
    let part = grads.len().div_ceil(PUSH_CALLS);
    for (c, lines) in grads.chunks(part).enumerate() {
        clock
            .call("session.push_grad_line", lines.len() as u64, || {
                for (i, line) in lines.iter().enumerate() {
                    s.push_grad_line(line_addr(base, c * part + i), *line, now)?;
                }
                Ok::<_, teco_core::SessionError>(())
            })
            .map_err(|e| e.to_string())?;
    }
    Ok(())
}

/// Push `lines` through `push_param_lines` in [`PUSH_CALLS`] timed parts,
/// recording each part as span `name`.
pub fn push_params(
    clock: &mut Clock,
    name: &'static str,
    s: &mut TecoSession,
    base: Addr,
    lines: &[LineData],
    now: SimTime,
) -> Result<(), String> {
    let part = lines.len().div_ceil(PUSH_CALLS);
    for (c, run) in lines.chunks(part).enumerate() {
        clock
            .call(name, run.len() as u64, || {
                s.push_param_lines(line_addr(base, c * part), run, now)
            })
            .map_err(|e| e.to_string())?;
    }
    Ok(())
}

/// Push `fresh` through `push_param_lines` in timed parts and check the
/// sampled lines against the merge reference. Returns how many lines the
/// push retried, bounded as [`retry_marks`] describes.
pub fn push_params_checked(
    clock: &mut Clock,
    s: &mut TecoSession,
    base: Addr,
    fresh: &[LineData],
    sample: &[usize],
    now: SimTime,
) -> Result<u64, String> {
    let (stale, marks) = clock.check(|| (read_sample(s, base, sample), retry_marks(s)));
    let stale = stale?;
    push_params(clock, "session.push_param_lines", s, base, fresh, now)?;
    let dirty = merge_dirty_bytes(s);
    clock.check(|| {
        verify_sample(s, base, sample, &stale, fresh, dirty)?;
        Ok(retry_marks(s) - marks)
    })
}

/// The replay set of a workload whose steps alternate between two
/// parameter versions, after `steps` steps.
pub fn alternating_replay(params: &[Vec<LineData>; 2], steps: u64, dirty: u8) -> ReplaySet<'_> {
    let last = ((steps + 1) % 2) as usize;
    ReplaySet {
        fresh: Cow::Borrowed(&params[last]),
        stale: Cow::Borrowed(&params[1 - last]),
        dirty,
    }
}

/// A line of 16 seeded 32-bit words.
pub fn random_line(rng: &mut SimRng) -> LineData {
    let mut l = LineData::zeroed();
    for w in (0..16).step_by(2) {
        let x = rng.next_u64();
        l.set_word(w, x as u32);
        l.set_word(w + 1, (x >> 32) as u32);
    }
    l
}

/// `lines` with a seeded change in the low two bytes of every word — an
/// optimizer update whose value changes sit in the least-significant bytes.
pub fn perturb_low_bytes(lines: &[LineData], rng: &mut SimRng) -> Vec<LineData> {
    lines
        .iter()
        .map(|l| {
            let mut m = *l;
            for w in (0..16).step_by(4) {
                let x = rng.next_u64();
                for k in 0..4 {
                    let low = (x >> (16 * k)) as u32 & 0xFFFF;
                    m.set_word(w + k, (m.word(w + k) & 0xFFFF_0000) | low);
                }
            }
            m
        })
        .collect()
}

/// A fixed seeded sample of `k` line indices below `n`.
pub fn sample_indices(n: usize, k: usize, rng: &mut SimRng) -> Vec<usize> {
    let mut v: Vec<usize> = (0..k.min(n)).map(|_| rng.index(n)).collect();
    v.sort_unstable();
    v.dedup();
    v
}

pub fn line_addr(base: Addr, i: usize) -> Addr {
    Addr(base.0 + (i * LINE_BYTES) as u64)
}

/// The parameter-line output check. `stale` holds what the device read at
/// the sampled lines before the push; afterwards each line must read
/// `merged_reference(stale, fresh, dirty)`. A line that was quarantined
/// before the push is rebuilt from the authoritative CPU copy, so it must
/// read `fresh`.
pub fn read_sample(
    s: &TecoSession,
    base: Addr,
    sample: &[usize],
) -> Result<Vec<Option<LineData>>, String> {
    sample
        .iter()
        .map(|&i| match s.device_read_line(line_addr(base, i)) {
            Ok(l) => Ok(Some(l)),
            Err(teco_cxl::GiantCacheError::Poisoned(_)) => Ok(None),
            Err(e) => Err(format!("parameter line {i} unreadable before push: {e}")),
        })
        .collect()
}

pub fn verify_sample(
    s: &TecoSession,
    base: Addr,
    sample: &[usize],
    stale: &[Option<LineData>],
    fresh: &[LineData],
    dirty: u8,
) -> Result<(), String> {
    for (&i, before) in sample.iter().zip(stale) {
        let expect = match before {
            Some(st) => merged_reference(st, &fresh[i], dirty),
            None => fresh[i],
        };
        let got = s
            .device_read_line(line_addr(base, i))
            .map_err(|e| format!("parameter line {i} unreadable after push: {e}"))?;
        if got != expect {
            return Err(format!("parameter line {i} reads {got:?}, expected {expect:?}"));
        }
    }
    Ok(())
}

/// The sampled lines as the device holds them, for the digest.
pub fn sample_text(s: &TecoSession, base: Addr, sample: &[usize]) -> String {
    let lines: Vec<_> = sample.iter().map(|&i| s.device_read_line(line_addr(base, i))).collect();
    format!("{lines:?}")
}

/// The dirty-byte length the session merges with right now (4 = full lines).
pub fn merge_dirty_bytes(s: &TecoSession) -> u8 {
    if s.dba_active() {
        s.config().dirty_bytes
    } else {
        4
    }
}

/// Transfers with a CRC replay plus full-line resends so far. Its growth
/// across one parameter push bounds the lines that push retried.
pub fn retry_marks(s: &TecoSession) -> u64 {
    let f = s.fault_report();
    f.crc_errors + f.full_line_retries
}
