//! `gpt2-step`: one session at GPT-2's Table III size (122 M fp32
//! parameters = 7,625,000 lines; fp16 gradients = 3,812,500 lines).
//!
//! Each step follows ZeRO-Offload's phase split: the gradient flush through
//! `push_grad_line`, `cxlfence_grads`, `check_activation`, the CPU update's
//! parameter push through the bulk `push_param_lines` (DBA at dirty_bytes 2
//! once the warm-up step has filled the giant cache), `cxlfence_params`.
//! Both tensors move in eight calls per step, one per layer group.
//! Faults, media RAS and tiering are off.

use super::{
    alternating_replay, perturb_low_bytes, push_grads, push_params_checked, random_line,
    sample_indices, sample_text, Size, Workload,
};
use crate::replay::ReplaySet;
use crate::trace::Clock;
use teco_core::{TecoConfig, TecoSession};
use teco_mem::{Addr, LineData, LINE_BYTES};
use teco_sim::{SimRng, SimTime};

/// Parameter lines checked against the merge reference every step.
const SAMPLE_LINES: usize = 64;

pub struct Inputs {
    /// Two parameter versions that differ only in the low two bytes of
    /// each word; steps alternate between them.
    params: [Vec<LineData>; 2],
    grads: Vec<LineData>,
    sample: Vec<usize>,
}

impl Inputs {
    pub fn generate(size: Size, seed: u64) -> Inputs {
        let (param_lines, grad_lines) = match size {
            Size::Full => (7_625_000, 3_812_500),
            Size::Smoke => (8_192, 4_096),
        };
        let mut rng = SimRng::seed_from_u64(seed).fork("gpt2-step");
        let a: Vec<LineData> = (0..param_lines).map(|_| random_line(&mut rng)).collect();
        let b = perturb_low_bytes(&a, &mut rng);
        let grads = (0..grad_lines).map(|_| random_line(&mut rng)).collect();
        let sample = sample_indices(param_lines, SAMPLE_LINES, &mut rng);
        Inputs { params: [a, b], grads, sample }
    }
}

pub struct Gpt2Step<'a> {
    inp: &'a Inputs,
    s: TecoSession,
    params: Addr,
    grads: Addr,
    now: SimTime,
    step: u64,
    pushed: u64,
    retried: u64,
}

impl<'a> Gpt2Step<'a> {
    pub fn setup(inp: &'a Inputs) -> Result<Self, String> {
        let param_bytes = (inp.params[0].len() * LINE_BYTES) as u64;
        let grad_bytes = (inp.grads.len() * LINE_BYTES) as u64;
        // DBA activates at the step-1 check, so step 0 fills the giant
        // cache with full lines.
        let cfg = TecoConfig::default()
            .with_act_aft_steps(1)
            .with_dirty_bytes(2)
            .with_giant_cache_bytes(param_bytes + grad_bytes);
        let mut s = TecoSession::new(cfg).map_err(|e| e.to_string())?;
        let (_, params) = s.alloc_tensor("params", param_bytes).map_err(|e| e.to_string())?;
        let (_, grads) = s.alloc_tensor("grads", grad_bytes).map_err(|e| e.to_string())?;
        let mut w =
            Gpt2Step { inp, s, params, grads, now: SimTime::ZERO, step: 0, pushed: 0, retried: 0 };
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
        self.now = clock.call("session.fence", 1, || s.cxlfence_params(t));
        self.step += 1;
        Ok(())
    }
}

impl<'a> Workload<'a> for Gpt2Step<'a> {
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
