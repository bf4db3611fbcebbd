//! `tiered-faulty`: one session with the link fault model on (CRC replays,
//! poison, DBA-checksum corruption), pool-media RAS on, and the tiered
//! placement policy. `params`/`grads` live in the giant cache; the ADAM
//! moments `moment_m`/`moment_v` start on the host-DRAM side tier.
//!
//! The CPU optimizer writes one moment per step, in chunks, and switches
//! moment every [`PHASE_STEPS`] steps. The heat shift makes the planner
//! promote the hot moment and demote the cold one; the giant cache has
//! room for one promoted moment, so each promotion after the first waits
//! for a demotion.
//!
//! With faults on, parameters take the guarded per-line recovery ladder
//! instead of the bulk path, and moments take the side-tier store.

use super::{
    alternating_replay, line_addr, perturb_low_bytes, push_grads, push_params, push_params_checked,
    random_line, sample_indices, sample_text, Size, Workload,
};
use crate::replay::ReplaySet;
use crate::trace::Clock;
use teco_core::{PlacementPolicy, TecoConfig, TecoSession, TieredPolicy};
use teco_cxl::{FaultConfig, RasConfig};
use teco_mem::{Addr, LineData, LINE_BYTES};
use teco_sim::{SimRng, SimTime};

/// Steps per heat phase: long enough for the cold moment's decaying heat
/// to reach the demotion threshold inside the phase.
pub const PHASE_STEPS: u64 = 8;
const SAMPLE_LINES: usize = 64;

pub struct Inputs {
    params: [Vec<LineData>; 2],
    grads: Vec<LineData>,
    /// Two versions of each moment's lines; consecutive writes alternate.
    moments: [Vec<LineData>; 2],
    sample: Vec<usize>,
    moment_sample: Vec<usize>,
    seed: u64,
}

impl Inputs {
    pub fn generate(size: Size, seed: u64) -> Inputs {
        let (param_lines, grad_lines, moment_lines) = match size {
            Size::Full => (131_072, 65_536, 131_072),
            Size::Smoke => (2_048, 1_024, 2_048),
        };
        let mut rng = SimRng::seed_from_u64(seed).fork("tiered-faulty");
        let a: Vec<LineData> = (0..param_lines).map(|_| random_line(&mut rng)).collect();
        let b = perturb_low_bytes(&a, &mut rng);
        let grads = (0..grad_lines).map(|_| random_line(&mut rng)).collect();
        let m0: Vec<LineData> = (0..moment_lines).map(|_| random_line(&mut rng)).collect();
        let m1 = (0..moment_lines).map(|_| random_line(&mut rng)).collect();
        let sample = sample_indices(param_lines, SAMPLE_LINES, &mut rng);
        let moment_sample = sample_indices(moment_lines, SAMPLE_LINES, &mut rng);
        Inputs { params: [a, b], grads, moments: [m0, m1], sample, moment_sample, seed }
    }

    fn config(&self) -> TecoConfig {
        let line = LINE_BYTES as u64;
        let moment = self.moments[0].len() as u64 * line;
        let pinned = (self.params[0].len() + self.grads.len()) as u64 * line;
        let fault = FaultConfig {
            crc_error_rate: 1e-3,
            stall_rate: 1e-4,
            stall_ns: 200,
            poison_rate: 5e-6,
            dba_checksum_error_rate: 5e-5,
            seed: self.seed,
            ..FaultConfig::off()
        };
        let ras = RasConfig {
            media_faults_per_tick: 4.0,
            scrub_lines_per_tick: 16_384,
            spare_lines: 4_096,
            seed: self.seed ^ 0x5eed,
        };
        TecoConfig::default()
            .with_act_aft_steps(1)
            .with_dirty_bytes(2)
            // Room for one promoted moment, not two.
            .with_giant_cache_bytes(pinned + moment + moment / 2)
            .with_fault(fault)
            .with_ras(ras)
            .with_placement(PlacementPolicy::Tiered(TieredPolicy::default()))
    }
}

pub struct TieredFaulty<'a> {
    inp: &'a Inputs,
    s: TecoSession,
    params: Addr,
    grads: Addr,
    moments: [Addr; 2],
    /// Writes so far per moment, choosing the version of the next write.
    moment_writes: [u64; 2],
    now: SimTime,
    step: u64,
    pushed: u64,
    retried: u64,
}

impl<'a> TieredFaulty<'a> {
    pub fn setup(inp: &'a Inputs) -> Result<Self, String> {
        let mut s = TecoSession::new(inp.config()).map_err(|e| e.to_string())?;
        let line = LINE_BYTES as u64;
        let mut alloc = |name: &str, lines: usize| {
            s.alloc_tensor(name, lines as u64 * line).map(|(_, a)| a).map_err(|e| e.to_string())
        };
        let params = alloc("params", inp.params[0].len())?;
        let grads = alloc("grads", inp.grads.len())?;
        let m = alloc("moment_m", inp.moments[0].len())?;
        let v = alloc("moment_v", inp.moments[0].len())?;
        let mut w = TieredFaulty {
            inp,
            s,
            params,
            grads,
            moments: [m, v],
            moment_writes: [0; 2],
            now: SimTime::ZERO,
            step: 0,
            pushed: 0,
            retried: 0,
        };
        w.run(&mut Clock::new(false))?;
        Ok(w)
    }

    fn run(&mut self, clock: &mut Clock) -> Result<(), String> {
        let (s, inp, t) = (&mut self.s, self.inp, self.now);
        push_grads(clock, s, self.grads, &inp.grads, t)?;
        let t = clock.call("session.fence", 1, || s.cxlfence_grads(t));
        clock.call("session.check_activation", 1, || s.check_activation(self.step));

        let fresh = &inp.params[(self.step % 2) as usize];
        self.retried += push_params_checked(clock, s, self.params, fresh, &inp.sample, t)?;
        self.pushed += fresh.len() as u64;

        // The optimizer's moment writes for this phase.
        let which = ((self.step / PHASE_STEPS) % 2) as usize;
        let base = self.moments[which];
        let lines = &inp.moments[(self.moment_writes[which] % 2) as usize];
        self.moment_writes[which] += 1;
        // Each part is one heat transaction on the moment.
        push_params(clock, "placement.side_push", s, base, lines, t)?;
        clock.check(|| {
            for &i in &inp.moment_sample {
                let got = s.device_read_line(line_addr(base, i)).map_err(|e| e.to_string())?;
                if got != lines[i] {
                    return Err(format!("side-tier line {i} does not read back what was written"));
                }
            }
            Ok(())
        })?;
        self.now = clock.call("session.fence", 1, || s.cxlfence_params(t));
        self.step += 1;
        Ok(())
    }
}

impl<'a> Workload<'a> for TieredFaulty<'a> {
    fn step(&mut self, clock: &mut Clock) -> Result<(), String> {
        self.run(clock)
    }

    fn sim_now(&self) -> SimTime {
        self.now
    }

    fn sessions(&self) -> Vec<&TecoSession> {
        vec![&self.s]
    }

    fn digest_state(&self) -> String {
        sample_text(&self.s, self.params, &self.inp.sample)
    }

    fn param_attempts(&self) -> (u64, u64) {
        (self.pushed, self.retried)
    }

    fn replay_set(&self) -> ReplaySet<'a> {
        alternating_replay(&self.inp.params, self.step, self.s.config().dirty_bytes)
    }
}
