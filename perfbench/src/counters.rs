//! Simulated-state counters read through the public API, and the
//! simulated-state digest.
//!
//! Everything here is simulated (deterministic per seed), never host time,
//! so a change that only speeds up the simulator must leave it unchanged.

use std::fmt::Write as _;
use teco_core::TecoSession;
use teco_cxl::packet::OPCODE_COUNT;
use teco_cxl::{Direction, Opcode};
use teco_sim::SimTime;

const OPCODES: [Opcode; OPCODE_COUNT] = [
    Opcode::ReadOwn,
    Opcode::ReadShared,
    Opcode::GoFlush,
    Opcode::FlushData,
    Opcode::Invalidate,
    Opcode::Data,
    Opcode::Evict,
    Opcode::DbaConfig,
];

/// Cumulative counters summed over a set of device sessions.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SimCounters {
    pub param_lines: u64,
    pub grad_lines: u64,
    pub bytes_to_device: u64,
    pub link_to_device_bytes: u64,
    pub link_to_host_bytes: u64,
    pub link_to_device_busy_ps: u64,
    pub fence_calls: u64,
    pub fence_wait_ps: u64,
    pub coherence_messages: u64,
    pub retries: u64,
    pub full_line_retries: u64,
    pub checksum_mismatches: u64,
    pub quarantined_lines: u64,
    pub degraded_regions: u64,
    pub scrub_visits: u64,
    pub lines_retired: u64,
    pub rebuilds: u64,
    pub migrations: u64,
    pub promotions: u64,
    pub demotions: u64,
    pub migrated_bytes: u64,
    pub pool_bytes: u64,
    pub migration_ns: u64,
}

impl SimCounters {
    pub fn of(sessions: &[&TecoSession]) -> Self {
        let mut c = SimCounters::default();
        for s in sessions {
            let st = s.stats();
            c.param_lines += st.param_lines;
            c.grad_lines += st.grad_lines;
            c.bytes_to_device += st.bytes_to_device;
            let link = s.link();
            c.link_to_device_bytes += link.volume(Direction::ToDevice);
            c.link_to_host_bytes += link.volume(Direction::ToHost);
            c.link_to_device_busy_ps += link.busy(Direction::ToDevice).total().as_ps();
            let f = s.fence_stats();
            c.fence_calls += f.calls;
            c.fence_wait_ps += f.total_wait.as_ps();
            c.coherence_messages +=
                OPCODES.iter().map(|&op| s.coherence().msg_count(op)).sum::<u64>();
            let fr = s.fault_report();
            c.retries += fr.retries;
            c.full_line_retries += fr.full_line_retries;
            c.checksum_mismatches += fr.checksum_mismatches;
            c.quarantined_lines += fr.quarantined_lines;
            c.degraded_regions += fr.degraded_regions;
            let ras = s.ras_report();
            c.scrub_visits += ras.scrub_visits;
            c.lines_retired += ras.lines_retired;
            c.rebuilds += ras.rebuilds;
            if let Some(p) = s.placement() {
                let ps = p.stats();
                c.migrations += ps.migrations;
                c.promotions += ps.promotions;
                c.demotions += ps.demotions;
                c.migrated_bytes += ps.migrated_bytes;
                c.pool_bytes += ps.pool_bytes;
                c.migration_ns += ps.migration_ns;
            }
        }
        c
    }

    /// Simulated cache lines moved: parameter, gradient and moment lines
    /// (moment pushes count as parameter-direction lines).
    pub fn lines_moved(&self) -> u64 {
        self.param_lines + self.grad_lines
    }

    /// Field-wise `self - earlier`.
    pub fn since(&self, earlier: &SimCounters) -> SimCounters {
        macro_rules! sub {
            ($($f:ident),*) => { SimCounters { $($f: self.$f - earlier.$f),* } };
        }
        sub!(
            param_lines,
            grad_lines,
            bytes_to_device,
            link_to_device_bytes,
            link_to_host_bytes,
            link_to_device_busy_ps,
            fence_calls,
            fence_wait_ps,
            coherence_messages,
            retries,
            full_line_retries,
            checksum_mismatches,
            quarantined_lines,
            degraded_regions,
            scrub_visits,
            lines_retired,
            rebuilds,
            migrations,
            promotions,
            demotions,
            migrated_bytes,
            pool_bytes,
            migration_ns
        )
    }
}

/// Counters of the multi-host fabric layers (zero for single sessions).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FabricCounters {
    pub arbiter_wait_ns: u64,
    pub arbiter_rounds: u64,
    pub arbiter_fanout_saved_bytes: u64,
    pub exchange_ns: u64,
    pub port_bytes: u64,
    pub media_bytes: u64,
    pub fanin_saved_bytes: u64,
}

impl FabricCounters {
    pub fn since(&self, e: &FabricCounters) -> FabricCounters {
        FabricCounters {
            arbiter_wait_ns: self.arbiter_wait_ns - e.arbiter_wait_ns,
            arbiter_rounds: self.arbiter_rounds - e.arbiter_rounds,
            arbiter_fanout_saved_bytes: self.arbiter_fanout_saved_bytes
                - e.arbiter_fanout_saved_bytes,
            exchange_ns: self.exchange_ns - e.exchange_ns,
            port_bytes: self.port_bytes - e.port_bytes,
            media_bytes: self.media_bytes - e.media_bytes,
            fanin_saved_bytes: self.fanin_saved_bytes - e.fanin_saved_bytes,
        }
    }
}

/// FNV-1a-64 over the simulated state of `sessions` — session, fence,
/// link-volume, fault, RAS and placement statistics — plus `extra` (the
/// workload's [`digest_state`](crate::workloads::Workload::digest_state))
/// and the simulated clock `now`.
pub fn digest(sessions: &[&TecoSession], extra: &str, now: SimTime) -> u64 {
    let mut text = String::new();
    for s in sessions {
        let _ = write!(
            text,
            "{:?}|{:?}|{}/{}/{}/{}|{:?}|{:?}|{:?}|{}|",
            s.stats(),
            s.fence_stats(),
            s.link().volume(Direction::ToDevice),
            s.link().volume(Direction::ToHost),
            s.link().replay_volume(Direction::ToDevice),
            s.link().replay_volume(Direction::ToHost),
            s.fault_report(),
            s.ras_report(),
            s.placement().map(|p| p.stats()),
            s.dba_active(),
        );
    }
    let _ = write!(text, "{extra}|{}", now.as_ps());
    fnv1a(text.as_bytes())
}

pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h = (h ^ b as u64).wrapping_mul(0x1000_0000_01b3);
    }
    h
}
