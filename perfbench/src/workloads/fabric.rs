//! `fabric-allreduce`: a `FabricDriver` of 4 hosts × 2 devices. Each
//! device shard pushes 65,536 gradient lines per step into its host's
//! pooled accumulator (through the shared-host `HostLinkArbiter`), the
//! hosts all-reduce their accumulators through the pool, and 4,096
//! parameter lines are broadcast to every device.
//!
//! The step is timed in its two public halves:
//! `run_step_until(AfterGradFence)` (gradients + exchange) and
//! `finish_step_from(AfterGradFence)` (activation + broadcast).

use super::{merge_dirty_bytes, read_sample, retry_marks, verify_sample, Size, Workload};
use crate::counters::FabricCounters;
use crate::replay::ReplaySet;
use crate::trace::Clock;
use std::borrow::Cow;
use teco_core::{
    ClusterConfig, ClusterWorkload, FabricDriver, FabricWorkload, StepBoundary, TecoConfig,
    TecoSession,
};
use teco_cxl::{CollectiveConfig, PoolCollective};
use teco_mem::{LineData, LINE_BYTES};
use teco_sim::{SimRng, SimTime};

const HOSTS: usize = 4;
const DEVICES: usize = 2;
/// Broadcast parameter lines checked on every device every step.
const SAMPLE_LINES: usize = 16;

pub struct Inputs {
    workload: FabricWorkload,
    sample: Vec<usize>,
}

impl Inputs {
    pub fn generate(size: Size, seed: u64) -> Inputs {
        let (grad_lines, param_lines) = match size {
            Size::Full => (65_536u64, 4_096u64),
            Size::Smoke => (1_024, 64),
        };
        let bytes = (grad_lines + param_lines) * LINE_BYTES as u64;
        // DBA activates at the step-1 check: the warm-up broadcast fills
        // every giant cache with full lines.
        let base = TecoConfig::default().with_act_aft_steps(1).with_giant_cache_bytes(bytes);
        let workload = FabricWorkload {
            base: ClusterWorkload {
                cfg: ClusterConfig::new(base, DEVICES),
                steps: 0,
                param_lines,
                grad_lines,
                compute_ns_per_step: 0,
                seed,
            },
            hosts: HOSTS,
            collective: CollectiveConfig::for_hosts(HOSTS),
        };
        let mut rng = SimRng::seed_from_u64(seed).fork("fabric-allreduce");
        let sample = super::sample_indices(param_lines as usize, SAMPLE_LINES, &mut rng);
        Inputs { workload, sample }
    }
}

pub struct FabricAllreduce<'a> {
    inp: &'a Inputs,
    d: FabricDriver,
    /// The parameter lines of the broadcast before the latest one.
    prev_params: Vec<LineData>,
    /// A standalone pool collective the traced run replays the hosts'
    /// staged accumulators through.
    replay: Option<PoolCollective>,
    staged: Vec<Vec<u8>>,
    pushed: u64,
    retried: u64,
}

impl<'a> FabricAllreduce<'a> {
    pub fn setup(inp: &'a Inputs) -> Result<Self, String> {
        let d = FabricDriver::new(&inp.workload).map_err(|e| e.to_string())?;
        let mut w = FabricAllreduce {
            inp,
            d,
            prev_params: Vec::new(),
            replay: None,
            staged: Vec::new(),
            pushed: 0,
            retried: 0,
        };
        w.run(&mut Clock::new(false))?;
        Ok(w)
    }

    fn all_sessions(d: &FabricDriver) -> impl Iterator<Item = &TecoSession> {
        d.hosts().iter().flat_map(|h| h.cluster().devices().iter())
    }

    fn run(&mut self, clock: &mut Clock) -> Result<(), String> {
        let d = &mut self.d;
        clock
            .call("fabric.grad_and_exchange", 1, || d.run_step_until(StepBoundary::AfterGradFence))
            .map_err(|e| e.to_string())?;
        let staged = &mut self.staged;
        clock.check(|| check_global_grads(d, staged))?;
        if clock.tracing() {
            let replay = self.replay.get_or_insert_with(|| {
                PoolCollective::new(CollectiveConfig::for_hosts(HOSTS))
                    .expect("the fabric's own collective config is valid")
            });
            let ready = vec![SimTime::ZERO; HOSTS];
            clock
                .replay("replay.collective.all_reduce", 1, || replay.all_reduce(staged, &ready))
                .map_err(|e| e.to_string())?;
        }
        let sample = &self.inp.sample;
        let (stale, marks) = clock.check(|| {
            let stale = Self::all_sessions(d)
                .map(|s| read_sample(s, param_base(d), sample))
                .collect::<Result<Vec<_>, _>>();
            (stale, Self::all_sessions(d).map(retry_marks).sum::<u64>())
        });
        let stale = stale?;
        self.prev_params.clear();
        self.prev_params.extend_from_slice(d.last_params());
        clock
            .call("fabric.activate_and_broadcast", 1, || {
                d.finish_step_from(StepBoundary::AfterGradFence)
            })
            .map_err(|e| e.to_string())?;
        let fresh = d.last_params();
        self.pushed += (fresh.len() * HOSTS * DEVICES) as u64;
        clock.check(|| {
            self.retried += Self::all_sessions(d).map(retry_marks).sum::<u64>() - marks;
            for (s, before) in Self::all_sessions(d).zip(&stale) {
                verify_sample(s, param_base(d), sample, before, fresh, merge_dirty_bytes(s))?;
            }
            Ok::<_, String>(())
        })
    }
}

fn param_base(d: &FabricDriver) -> teco_mem::Addr {
    d.hosts()[0].cluster().param_base()
}

/// The all-reduce output check: the fabric's global gradient must equal
/// the wrapping 32-bit word sum of every host's staged accumulator.
fn check_global_grads(d: &FabricDriver, staged: &mut Vec<Vec<u8>>) -> Result<(), String> {
    staged.resize_with(HOSTS, Vec::new);
    for (host, buf) in d.hosts().iter().zip(staged.iter_mut()) {
        host.cluster().pool().copy_grad_bytes_into(buf);
    }
    let mut sum = vec![0u32; staged[0].len() / 4];
    for buf in staged.iter() {
        for (acc, w) in sum.iter_mut().zip(buf.chunks_exact(4)) {
            *acc = acc.wrapping_add(u32::from_le_bytes([w[0], w[1], w[2], w[3]]));
        }
    }
    let global = d.global_grads();
    let ok = global.len() == sum.len() * 4
        && global.chunks_exact(4).zip(&sum).all(|(w, &s)| w == s.to_le_bytes());
    if ok {
        Ok(())
    } else {
        Err("global gradient differs from the sum of the hosts' accumulators".into())
    }
}

impl<'a> Workload<'a> for FabricAllreduce<'a> {
    fn step(&mut self, clock: &mut Clock) -> Result<(), String> {
        self.run(clock)
    }

    fn sim_now(&self) -> SimTime {
        self.d.fabric_time()
    }

    fn sessions(&self) -> Vec<&TecoSession> {
        Self::all_sessions(&self.d).collect()
    }

    fn digest_state(&self) -> String {
        format!("{:?}", self.d.report())
    }

    fn fabric_counters(&self) -> FabricCounters {
        let r = self.d.report();
        let mut c = FabricCounters {
            exchange_ns: r.exchange_ns,
            port_bytes: r.pool_port_bytes,
            media_bytes: r.pool_media_bytes,
            fanin_saved_bytes: r.fanin_saved_bytes,
            ..FabricCounters::default()
        };
        for h in &r.host_reports {
            c.arbiter_wait_ns += h.host.total_wait_ns;
            c.arbiter_rounds += h.host.rounds;
            c.arbiter_fanout_saved_bytes += h.host.fanout_saved_bytes;
        }
        c
    }

    fn param_attempts(&self) -> (u64, u64) {
        (self.pushed, self.retried)
    }

    fn replay_set(&self) -> ReplaySet<'a> {
        let dirty = self.d.hosts()[0].cluster().devices()[0].config().dirty_bytes;
        ReplaySet {
            fresh: Cow::Owned(self.d.last_params().to_vec()),
            stale: Cow::Owned(self.prev_params.clone()),
            dirty,
        }
    }
}
