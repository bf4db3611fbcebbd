//! The MESI coherence engine with TECO's update-protocol extension
//! (§IV-A2, Figs. 4 and 5).
//!
//! Two peer caches share a coherence domain managed by the home agent: the
//! CPU cache (`Cs`) and the accelerator's giant cache (`Gs`). Stock CXL
//! uses invalidation-based MESI: a CPU store invalidates the peer copy, and
//! the data moves only later, on demand, when the peer reads — placing the
//! PCIe transfer on the critical path. TECO's extension adds one transition
//! (the red arrow of Fig. 4): on a store to a line that maps into the giant
//! cache, the home agent answers with `GoFlush`, the line's data is pushed
//! immediately (`FlushData`), and `Cs` moves M→S while `Gs` becomes S.
//!
//! The engine is *functional*: each operation returns the packets emitted,
//! which the caller prices on a [`crate::link::CxlLink`]. It also keeps the
//! per-opcode message counts and data volumes used by §VIII-C.
//!
//! Per-line state for registered regions lives in a dense, lazily chunked
//! slab indexed by [`LineSlot::Dense`] arithmetic (one array access per
//! event instead of a hash + probe); lines outside every region fall back
//! to a hash-map spillover. [`CoherenceEngine::resolve`] exposes the
//! address→slot mapping so bulk callers pay the lookup once per run.

use crate::packet::{CxlPacket, Opcode};
use crate::snoop::SnoopFilter;
use serde::{Deserialize, Serialize};
use std::collections::HashMap;
use teco_mem::{Addr, LineBitmap, LineData, LineIndexer, LineSlab, LineSlot, LINE_BYTES};

/// MESI line states.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum MesiState {
    /// Modified: sole dirty copy.
    M,
    /// Exclusive: sole clean copy.
    E,
    /// Shared: clean copy, peer may also hold one.
    S,
    /// Invalid: no copy.
    I,
}

/// Which coherence protocol the home agent runs for giant-cache lines.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum ProtocolMode {
    /// Stock CXL MESI: stores invalidate the peer; data moves on demand.
    Invalidation,
    /// TECO extension: stores push the updated line immediately (M→S fast
    /// path approved by the home agent).
    Update,
}

/// The two agents in the coherence domain.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Agent {
    /// The host CPU cache.
    Cpu,
    /// The accelerator (its giant cache).
    Device,
}

impl Agent {
    /// The opposite peer.
    pub fn peer(self) -> Agent {
        match self {
            Agent::Cpu => Agent::Device,
            Agent::Device => Agent::Cpu,
        }
    }
}

/// Coherence state of one line in both peers.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct LineState {
    /// CPU cache state (Cs in Fig. 5).
    pub cs: MesiState,
    /// Giant-cache state (Gs in Fig. 5).
    pub gs: MesiState,
}

impl LineState {
    pub(crate) fn get(&self, a: Agent) -> MesiState {
        match a {
            Agent::Cpu => self.cs,
            Agent::Device => self.gs,
        }
    }
    pub(crate) fn set(&mut self, a: Agent, s: MesiState) {
        match a {
            Agent::Cpu => self.cs = s,
            Agent::Device => self.gs = s,
        }
    }
}

/// Both peers in S: where every update-mode store leaves its line.
const SHARED: LineState = LineState { cs: MesiState::S, gs: MesiState::S };

/// Per-direction traffic accounting.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct TrafficStats {
    /// Header-only control bytes.
    pub control_bytes: u64,
    /// Data payload bytes.
    pub data_bytes: u64,
    /// Packets sent.
    pub packets: u64,
}

/// The home agent + both peer caches, for lines inside the giant-cache
/// coherence domain.
#[derive(Debug, Clone)]
pub struct CoherenceEngine {
    mode: ProtocolMode,
    /// Address→slot mapping for registered regions.
    indexer: LineIndexer,
    /// Dense per-line states for registered regions.
    dense: LineSlab<LineState>,
    /// Dense lines that have been touched (hold explicit state). Untouched
    /// slots report `initial`, so late `with_initial`-style overrides and
    /// `tracked_lines` behave exactly like the old map.
    touched: LineBitmap,
    /// Per-line states for lines outside every registered region.
    spill: HashMap<u64, LineState>,
    /// State assumed for untouched lines. At training start "the giant
    /// cache has a copy of the parameters": `Cs = I`, `Gs = E`.
    initial: LineState,
    /// Message counts per opcode, indexed by [`Opcode::index`] — bumped on
    /// every message, so a hash map here would put SipHash on the per-event
    /// path.
    msg_counts: [u64; crate::packet::OPCODE_COUNT],
    /// Traffic toward the device (CPU→GPU direction).
    pub to_device: TrafficStats,
    /// Traffic toward the host (GPU→CPU direction).
    pub to_host: TrafficStats,
    /// Snoop filter used in invalidation mode. The update mode does not
    /// need it (§IV-A2: clear producer/consumer makes sharer tracking
    /// unnecessary) and leaves it empty. Regions registered on the engine
    /// are forwarded here in the same order, so a [`LineSlot`] resolved by
    /// the engine is valid for the filter's slot-based calls too.
    snoop: SnoopFilter,
    /// Inbound data packets refused admission because their poison bit was
    /// set (CXL poison containment: the receiver must not consume them).
    poisoned_rejects: u64,
}

impl CoherenceEngine {
    /// New engine in the given mode, with untouched lines starting as
    /// `Cs = I, Gs = E` (device holds the initial copy).
    pub fn new(mode: ProtocolMode) -> Self {
        let initial = LineState { cs: MesiState::I, gs: MesiState::E };
        CoherenceEngine {
            mode,
            indexer: LineIndexer::new(),
            dense: LineSlab::new(1, initial),
            touched: LineBitmap::new(),
            spill: HashMap::new(),
            initial,
            msg_counts: [0; crate::packet::OPCODE_COUNT],
            to_device: TrafficStats::default(),
            to_host: TrafficStats::default(),
            snoop: SnoopFilter::new(),
            poisoned_rejects: 0,
        }
    }

    /// Override the initial (untouched-line) state.
    pub fn with_initial(mut self, cs: MesiState, gs: MesiState) -> Self {
        self.initial = LineState { cs, gs };
        self
    }

    /// Current protocol mode.
    pub fn mode(&self) -> ProtocolMode {
        self.mode
    }

    /// Switch modes. TECO "goes back to using the invalidation protocol and
    /// snoop filter" for workloads without a clear producer-consumer
    /// relationship; the home agent disables the immediate FlushData
    /// transition (§IV-A2).
    pub fn set_mode(&mut self, mode: ProtocolMode) {
        self.mode = mode;
    }

    /// Register an address region so its lines use the dense slab; the
    /// snoop filter is registered with the same span so slot numbering
    /// matches. Overlapping or duplicate registrations are ignored.
    pub fn register_region(&mut self, base: Addr, bytes: u64) {
        if self.indexer.add_span(base, bytes) {
            self.dense.grow_lines(self.indexer.slots());
            self.touched.grow(self.indexer.slots());
        }
        self.snoop.register_region(base, bytes);
    }

    /// Resolve the line containing `addr` to its storage slot.
    #[inline]
    pub fn resolve(&self, addr: Addr) -> LineSlot {
        self.indexer.resolve(addr)
    }

    /// Dense starting slot for an aligned run of `n` lines beginning at
    /// `base`, when the whole run falls inside one registered region.
    #[inline]
    pub fn resolve_run(&self, base: Addr, n: usize) -> Option<usize> {
        self.indexer.resolve_run(base, n)
    }

    /// State of a line.
    pub fn line_state(&self, addr: Addr) -> LineState {
        match self.resolve(addr) {
            LineSlot::Dense(i) => {
                if self.touched.get(i) {
                    self.dense.get(i)
                } else {
                    self.initial
                }
            }
            LineSlot::Spill(line) => *self.spill.get(&line).unwrap_or(&self.initial),
        }
    }

    /// Messages sent so far for an opcode.
    pub fn msg_count(&self, op: Opcode) -> u64 {
        self.msg_counts[op.index()]
    }

    /// The snoop filter (populated only in invalidation mode).
    pub fn snoop_filter(&self) -> &SnoopFilter {
        &self.snoop
    }

    /// Home-agent admission check for an inbound data packet: a payload
    /// whose poison bit is set must *not* be consumed — the receiver
    /// quarantines the target line instead (CXL poison containment).
    /// Returns `true` when the packet is clean and may be merged.
    pub fn admit_data(&mut self, pkt: &CxlPacket) -> bool {
        if pkt.poisoned {
            self.poisoned_rejects += 1;
            return false;
        }
        true
    }

    /// Inbound data packets rejected for carrying the poison bit.
    pub fn poisoned_rejects(&self) -> u64 {
        self.poisoned_rejects
    }

    /// Mutable state at a pre-resolved slot; first touch installs the
    /// current `initial` (matching the old map's `entry().or_insert`).
    fn state_mut_at(&mut self, slot: LineSlot) -> &mut LineState {
        match slot {
            LineSlot::Dense(i) => {
                let first_touch = !self.touched.set(i);
                let ls = self.dense.get_mut(i);
                if first_touch {
                    *ls = self.initial;
                }
                ls
            }
            LineSlot::Spill(line) => {
                let init = self.initial;
                self.spill.entry(line).or_insert(init)
            }
        }
    }

    /// Account one message (opcode counts + per-direction traffic) without
    /// materializing a packet. `payload_len` is 0 for control messages.
    fn account(&mut self, to: Agent, opcode: Opcode, payload_len: usize) {
        self.account_n(to, opcode, payload_len, 1);
    }

    /// Account `count` identical messages at once.
    fn account_n(&mut self, to: Agent, opcode: Opcode, payload_len: usize, count: u64) {
        self.msg_counts[opcode.index()] += count;
        let stats = match to {
            Agent::Device => &mut self.to_device,
            Agent::Cpu => &mut self.to_host,
        };
        stats.packets += count;
        let header = crate::packet::HEADER_BYTES as u64;
        if opcode.carries_data() {
            stats.data_bytes += payload_len as u64 * count;
            stats.control_bytes += header * count;
        } else {
            stats.control_bytes += (header + payload_len as u64) * count;
        }
    }

    fn emit(&mut self, to: Agent, pkt: CxlPacket) -> CxlPacket {
        self.account(to, pkt.opcode, pkt.payload.len());
        pkt
    }

    /// The state transitions of one store by `writer` at `slot`, with one
    /// read and one write of the line state. Returns whether the store
    /// sends `ReadOwn` (the writer did not own the line, Fig. 5 step ①) and
    /// whether that `ReadOwn` invalidates the peer copy (invalidation mode
    /// only). In update mode the store also sends `GoFlush` + `FlushData`
    /// and both ends finish in S (Fig. 5 step ②); in invalidation mode the
    /// writer finishes in M and the data stays put until the peer reads.
    fn store_at(&mut self, writer: Agent, slot: LineSlot) -> (bool, bool) {
        let mode = self.mode;
        let reader = writer.peer();
        let ls = self.state_mut_at(slot);
        let read_own = matches!(ls.get(writer), MesiState::I | MesiState::S);
        let invalidate =
            read_own && mode == ProtocolMode::Invalidation && ls.get(reader) != MesiState::I;
        match mode {
            ProtocolMode::Update => *ls = SHARED,
            ProtocolMode::Invalidation => {
                ls.set(writer, MesiState::M);
                if invalidate {
                    ls.set(reader, MesiState::I);
                }
            }
        }
        if read_own && mode == ProtocolMode::Invalidation {
            self.snoop.set_exclusive_at(slot, writer);
        }
        (read_own, invalidate)
    }

    /// A store by `writer` to a giant-cache-domain line. `payload` is the
    /// updated line (or DBA-compacted fragment) pushed by the update
    /// protocol; pass the full line for unaggregated operation.
    ///
    /// Returns the packets placed on the link, in order.
    pub fn write(
        &mut self,
        writer: Agent,
        addr: Addr,
        payload: &[u8],
        aggregated: bool,
    ) -> Vec<CxlPacket> {
        let reader = writer.peer();
        let (read_own, invalidate) = self.store_at(writer, self.resolve(addr));
        let mut out = Vec::new();
        if read_own {
            out.push(self.emit(reader, CxlPacket::control(Opcode::ReadOwn, addr)));
        }
        if invalidate {
            out.push(self.emit(reader, CxlPacket::control(Opcode::Invalidate, addr)));
        }
        if self.mode == ProtocolMode::Update {
            out.push(self.emit(writer, CxlPacket::control(Opcode::GoFlush, addr)));
            out.push(self.emit(
                reader,
                CxlPacket::data(Opcode::FlushData, addr, payload.to_vec(), aggregated),
            ));
        }
        out
    }

    /// Allocation-free variant of [`CoherenceEngine::write`] for the bulk
    /// data path: identical state transitions and opcode/traffic
    /// accounting, but no `CxlPacket`s are materialized (and therefore no
    /// payload copy). `payload_len` is the FlushData payload size the
    /// update protocol would push. Returns `true` when a `FlushData` push
    /// was emitted (always, in update mode).
    pub fn write_accounted(&mut self, writer: Agent, addr: Addr, payload_len: usize) -> bool {
        let slot = self.resolve(addr);
        self.write_accounted_at(writer, slot, payload_len)
    }

    /// [`CoherenceEngine::write_accounted`] against a pre-resolved slot —
    /// the per-event hot path for bulk pushes, where the caller resolved
    /// the whole run once via [`CoherenceEngine::resolve_run`].
    pub fn write_accounted_at(
        &mut self,
        writer: Agent,
        slot: LineSlot,
        payload_len: usize,
    ) -> bool {
        let reader = writer.peer();
        let (read_own, invalidate) = self.store_at(writer, slot);
        if read_own {
            self.account(reader, Opcode::ReadOwn, 0);
        }
        if invalidate {
            self.account(reader, Opcode::Invalidate, 0);
        }
        match self.mode {
            ProtocolMode::Update => {
                self.account(writer, Opcode::GoFlush, 0);
                self.account(reader, Opcode::FlushData, payload_len);
                true
            }
            ProtocolMode::Invalidation => false,
        }
    }

    /// The bulk path: the stores of an aligned dense run
    /// `[dense_start, dense_start + n)`, with the same end state and
    /// accounting as one [`CoherenceEngine::write_accounted_at`] per line.
    /// Returns whether every line pushed a `FlushData` (always, in update
    /// mode).
    ///
    /// In update mode every line of the run ends in (S,S) whatever it held
    /// before, so the run is one pass over the slab segments: count the
    /// lines whose writer was not yet an owner (each sends a `ReadOwn`),
    /// fill (S,S), mark the run touched, and account the `ReadOwn`s,
    /// `GoFlush`es and `FlushData`s by count. Invalidation-mode transitions
    /// depend on the peer state and drive the snoop filter, so that mode
    /// keeps the per-line loop.
    pub fn write_run_accounted(
        &mut self,
        writer: Agent,
        dense_start: usize,
        n: usize,
        payload_len: usize,
    ) -> bool {
        if self.mode == ProtocolMode::Invalidation {
            let mut all = true;
            for k in 0..n {
                all &=
                    self.write_accounted_at(writer, LineSlot::Dense(dense_start + k), payload_len);
            }
            return all;
        }
        let (initial, touched) = (self.initial, &self.touched);
        let mut read_owns = 0u64;
        self.dense.for_segments_mut(dense_start, n, |off, seg| {
            let first = dense_start + off;
            for (k, ls) in seg.iter_mut().enumerate() {
                let prior = if touched.get(first + k) { *ls } else { initial };
                read_owns += matches!(prior.get(writer), MesiState::I | MesiState::S) as u64;
                *ls = SHARED;
            }
        });
        self.touched.set_range(dense_start, n);
        let reader = writer.peer();
        self.account_n(reader, Opcode::ReadOwn, 0, read_owns);
        self.account_n(writer, Opcode::GoFlush, 0, n as u64);
        self.account_n(reader, Opcode::FlushData, payload_len, n as u64);
        true
    }

    /// A load by `reader` of a giant-cache-domain line. In the update
    /// protocol this is a local hit (the data was pushed at write time). In
    /// the invalidation protocol a read of an invalidated copy triggers the
    /// on-demand transfer — the exposed critical-path PCIe trip that
    /// motivates the extension.
    pub fn read(&mut self, reader: Agent, addr: Addr, line_bytes: usize) -> Vec<CxlPacket> {
        let mut out = Vec::new();
        let slot = self.resolve(addr);
        let writer = reader.peer();
        let st = *self.state_mut_at(slot);
        match st.get(reader) {
            MesiState::M | MesiState::E | MesiState::S => {
                // Hit: no traffic.
            }
            MesiState::I => {
                out.push(self.emit(writer, CxlPacket::control(Opcode::ReadShared, addr)));
                out.push(self.emit(
                    reader,
                    CxlPacket::data(Opcode::Data, addr, vec![0u8; line_bytes], false),
                ));
                let ls = self.state_mut_at(slot);
                ls.set(reader, MesiState::S);
                // The former owner downgrades M/E → S.
                if matches!(ls.get(writer), MesiState::M | MesiState::E) {
                    ls.set(writer, MesiState::S);
                }
                if self.mode == ProtocolMode::Invalidation {
                    self.snoop.add_sharer_at(slot, reader);
                    self.snoop.add_sharer_at(slot, writer);
                }
            }
        }
        out
    }

    /// CPU end-of-iteration flush (Fig. 5: "the flush happens only once at
    /// each training iteration to guarantee all the updated parameters are
    /// sent out"). In the update protocol, S lines drop to I on the flusher
    /// and the peer re-promotes to E; any straggler M lines are pushed. In
    /// the invalidation protocol, M lines are written back with data.
    pub fn flush(&mut self, flusher: Agent, addrs: &[Addr], line_bytes: usize) -> Vec<CxlPacket> {
        let mut out = Vec::new();
        let peer = flusher.peer();
        for &addr in addrs {
            let slot = self.resolve(addr);
            let st = *self.state_mut_at(slot);
            match st.get(flusher) {
                MesiState::S => {
                    let ls = self.state_mut_at(slot);
                    ls.set(flusher, MesiState::I);
                    if ls.get(peer) == MesiState::S {
                        ls.set(peer, MesiState::E);
                    }
                }
                MesiState::M => {
                    out.push(self.emit(
                        peer,
                        CxlPacket::data(Opcode::FlushData, addr, vec![0u8; line_bytes], false),
                    ));
                    let ls = self.state_mut_at(slot);
                    ls.set(flusher, MesiState::I);
                    ls.set(peer, MesiState::E);
                }
                MesiState::E => {
                    let ls = self.state_mut_at(slot);
                    ls.set(flusher, MesiState::I);
                    if ls.get(peer) == MesiState::I {
                        ls.set(peer, MesiState::E);
                    }
                }
                MesiState::I => {}
            }
        }
        out
    }

    /// Number of lines with non-initial tracked state.
    pub fn tracked_lines(&self) -> usize {
        self.touched.count() + self.spill.len()
    }

    /// Checkpoint image of the whole engine: mode, indexer spans, resident
    /// dense state chunks, touched bitmap, spillover (sorted), the initial
    /// state, per-opcode counts, traffic, the snoop filter, and the
    /// poison-containment counter.
    pub fn snapshot(&self) -> CoherenceSnapshot {
        let mut spill: Vec<(u64, LineState)> = self.spill.iter().map(|(&k, &v)| (k, v)).collect();
        spill.sort_unstable_by_key(|&(k, _)| k);
        CoherenceSnapshot {
            mode: self.mode,
            spans: self.indexer.span_parts(),
            dense_len: self.dense.len() as u64,
            dense_chunks: self.dense.resident_parts(),
            touched_lines: self.touched.len() as u64,
            touched_words: self.touched.word_parts(),
            spill,
            initial: self.initial,
            msg_counts: self.msg_counts.to_vec(),
            to_device: self.to_device,
            to_host: self.to_host,
            snoop: self.snoop.snapshot(),
            poisoned_rejects: self.poisoned_rejects,
        }
    }

    /// Rebuild an engine from a snapshot.
    pub fn restore(s: &CoherenceSnapshot) -> Self {
        assert_eq!(
            s.msg_counts.len(),
            crate::packet::OPCODE_COUNT,
            "opcode count mismatch in snapshot"
        );
        let mut msg_counts = [0u64; crate::packet::OPCODE_COUNT];
        msg_counts.copy_from_slice(&s.msg_counts);
        CoherenceEngine {
            mode: s.mode,
            indexer: LineIndexer::from_span_parts(&s.spans),
            dense: LineSlab::from_parts(1, s.initial, s.dense_len as usize, &s.dense_chunks),
            touched: LineBitmap::from_parts(s.touched_lines as usize, &s.touched_words),
            spill: s.spill.iter().copied().collect(),
            initial: s.initial,
            msg_counts,
            to_device: s.to_device,
            to_host: s.to_host,
            snoop: SnoopFilter::restore(&s.snoop),
            poisoned_rejects: s.poisoned_rejects,
        }
    }
}

/// Serializable image of a [`CoherenceEngine`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CoherenceSnapshot {
    /// Protocol mode.
    pub mode: ProtocolMode,
    /// Registered spans as `(first_line, n_lines, slot_base)` triples.
    pub spans: Vec<(u64, u64, u64)>,
    /// Dense slab entry count.
    pub dense_len: u64,
    /// Resident dense chunks as `(chunk_index, states)`.
    pub dense_chunks: Vec<(u64, Vec<LineState>)>,
    /// Lines covered by the touched bitmap.
    pub touched_lines: u64,
    /// Raw touched-bitmap words.
    pub touched_words: Vec<u64>,
    /// Spillover entries, sorted by line index.
    pub spill: Vec<(u64, LineState)>,
    /// State assumed for untouched lines.
    pub initial: LineState,
    /// Per-opcode message counts, indexed by `Opcode::index`.
    pub msg_counts: Vec<u64>,
    /// Traffic toward the device.
    pub to_device: TrafficStats,
    /// Traffic toward the host.
    pub to_host: TrafficStats,
    /// The snoop filter.
    pub snoop: crate::snoop::SnoopFilterSnapshot,
    /// Inbound data packets rejected for carrying the poison bit.
    pub poisoned_rejects: u64,
}

/// A scripted replay of Fig. 5's canonical parameter-update flow, used by
/// tests and the `ablation_inval_vs_update` experiment: returns the packet
/// sequence for (CPU updates line, GPU reads line, CPU flush).
pub fn parameter_update_flow(
    mode: ProtocolMode,
    addr: Addr,
    line: &LineData,
) -> (Vec<CxlPacket>, CoherenceEngine) {
    let mut eng = CoherenceEngine::new(mode);
    let mut pkts = Vec::new();
    pkts.extend(eng.write(Agent::Cpu, addr, line.bytes(), false));
    pkts.extend(eng.read(Agent::Device, addr, LINE_BYTES));
    pkts.extend(eng.flush(Agent::Cpu, &[addr], LINE_BYTES));
    (pkts, eng)
}

#[cfg(test)]
mod tests {
    use super::*;

    const A: Addr = Addr(0x40);

    #[test]
    fn initial_state_matches_fig5() {
        let eng = CoherenceEngine::new(ProtocolMode::Update);
        let st = eng.line_state(A);
        assert_eq!(st.cs, MesiState::I);
        assert_eq!(st.gs, MesiState::E);
    }

    #[test]
    fn update_protocol_write_pushes_data_immediately() {
        let mut eng = CoherenceEngine::new(ProtocolMode::Update);
        let line = LineData::zeroed();
        let pkts = eng.write(Agent::Cpu, A, line.bytes(), false);
        let ops: Vec<Opcode> = pkts.iter().map(|p| p.opcode).collect();
        // Fig. 5: ReadOwn (①), then GoFlush + FlushData (②).
        assert_eq!(ops, vec![Opcode::ReadOwn, Opcode::GoFlush, Opcode::FlushData]);
        let st = eng.line_state(A);
        assert_eq!(st.cs, MesiState::S);
        assert_eq!(st.gs, MesiState::S);
        // Subsequent device read is a pure hit — zero packets.
        assert!(eng.read(Agent::Device, A, LINE_BYTES).is_empty());
    }

    #[test]
    fn update_protocol_repeat_writes_skip_readown() {
        let mut eng = CoherenceEngine::new(ProtocolMode::Update);
        let line = LineData::zeroed();
        eng.write(Agent::Cpu, A, line.bytes(), false);
        // Cs is now S; a second write upgrades via ReadOwn again per MESI.
        let pkts = eng.write(Agent::Cpu, A, line.bytes(), false);
        assert_eq!(pkts[0].opcode, Opcode::ReadOwn);
        assert_eq!(eng.msg_count(Opcode::FlushData), 2);
    }

    #[test]
    fn invalidation_protocol_defers_data_to_read() {
        let mut eng = CoherenceEngine::new(ProtocolMode::Invalidation);
        let line = LineData::zeroed();
        let pkts = eng.write(Agent::Cpu, A, line.bytes(), false);
        let ops: Vec<Opcode> = pkts.iter().map(|p| p.opcode).collect();
        assert_eq!(ops, vec![Opcode::ReadOwn, Opcode::Invalidate]);
        assert_eq!(eng.line_state(A).cs, MesiState::M);
        assert_eq!(eng.line_state(A).gs, MesiState::I);
        assert_eq!(eng.to_device.data_bytes, 0, "no data moved yet");
        // The device read now pays the on-demand transfer.
        let pkts = eng.read(Agent::Device, A, LINE_BYTES);
        let ops: Vec<Opcode> = pkts.iter().map(|p| p.opcode).collect();
        assert_eq!(ops, vec![Opcode::ReadShared, Opcode::Data]);
        assert_eq!(eng.to_device.data_bytes, 64);
        let st = eng.line_state(A);
        assert_eq!(st.cs, MesiState::S);
        assert_eq!(st.gs, MesiState::S);
    }

    #[test]
    fn flush_downgrades_and_promotes_peer() {
        let mut eng = CoherenceEngine::new(ProtocolMode::Update);
        let line = LineData::zeroed();
        eng.write(Agent::Cpu, A, line.bytes(), false);
        let pkts = eng.flush(Agent::Cpu, &[A], LINE_BYTES);
        assert!(pkts.is_empty(), "update-protocol flush moves no data");
        let st = eng.line_state(A);
        assert_eq!(st.cs, MesiState::I, "Cs S→I on flush");
        assert_eq!(st.gs, MesiState::E, "Gs S→E on flush (Fig. 5)");
    }

    #[test]
    fn invalidation_flush_writes_back_modified_lines() {
        let mut eng = CoherenceEngine::new(ProtocolMode::Invalidation);
        let line = LineData::zeroed();
        eng.write(Agent::Cpu, A, line.bytes(), false);
        assert_eq!(eng.line_state(A).cs, MesiState::M);
        let pkts = eng.flush(Agent::Cpu, &[A], LINE_BYTES);
        assert_eq!(pkts.len(), 1);
        assert_eq!(pkts[0].opcode, Opcode::FlushData);
        assert_eq!(eng.line_state(A).cs, MesiState::I);
        assert_eq!(eng.line_state(A).gs, MesiState::E);
    }

    #[test]
    fn gradient_direction_device_writes() {
        // GPU produces gradients into giant-cache lines; update protocol
        // pushes them to the host as they are written back.
        let mut eng =
            CoherenceEngine::new(ProtocolMode::Update).with_initial(MesiState::E, MesiState::I);
        let line = LineData::zeroed();
        let pkts = eng.write(Agent::Device, A, line.bytes(), false);
        let ops: Vec<Opcode> = pkts.iter().map(|p| p.opcode).collect();
        assert_eq!(ops, vec![Opcode::ReadOwn, Opcode::GoFlush, Opcode::FlushData]);
        assert_eq!(eng.to_host.data_bytes, 64);
        assert_eq!(eng.to_device.data_bytes, 0);
        // CPU read is then a hit.
        assert!(eng.read(Agent::Cpu, A, LINE_BYTES).is_empty());
    }

    #[test]
    fn update_mode_keeps_snoop_filter_empty() {
        let mut eng = CoherenceEngine::new(ProtocolMode::Update);
        let line = LineData::zeroed();
        for i in 0..100u64 {
            eng.write(Agent::Cpu, Addr(i * 64), line.bytes(), false);
        }
        assert_eq!(eng.snoop_filter().entries(), 0, "§IV-A2: no snoop filter needed");
        let mut inv = CoherenceEngine::new(ProtocolMode::Invalidation);
        for i in 0..100u64 {
            inv.write(Agent::Cpu, Addr(i * 64), line.bytes(), false);
        }
        assert!(inv.snoop_filter().entries() > 0);
    }

    #[test]
    fn traffic_accounting_separates_directions_and_kinds() {
        let mut eng = CoherenceEngine::new(ProtocolMode::Update);
        let line = LineData::zeroed();
        eng.write(Agent::Cpu, A, line.bytes(), false);
        // ReadOwn → device, GoFlush → cpu, FlushData → device.
        assert_eq!(eng.to_device.packets, 2);
        assert_eq!(eng.to_host.packets, 1);
        assert_eq!(eng.to_device.data_bytes, 64);
        assert!(eng.to_device.control_bytes > 0);
        assert_eq!(eng.to_host.data_bytes, 0);
    }

    #[test]
    fn aggregated_payload_flagged_in_packet() {
        let mut eng = CoherenceEngine::new(ProtocolMode::Update);
        let payload = vec![0u8; 32];
        let pkts = eng.write(Agent::Cpu, A, &payload, true);
        let flush = pkts.iter().find(|p| p.opcode == Opcode::FlushData).unwrap();
        assert!(flush.dba_aggregated);
        assert_eq!(flush.payload.len(), 32);
        assert_eq!(eng.to_device.data_bytes, 32);
    }

    #[test]
    fn write_accounted_matches_write() {
        // The zero-allocation path must be observationally identical to the
        // packet-returning one: same states, opcode counts, and traffic.
        for mode in [ProtocolMode::Update, ProtocolMode::Invalidation] {
            let mut a = CoherenceEngine::new(mode);
            let mut b = CoherenceEngine::new(mode);
            let line = LineData::zeroed();
            let script: &[(Agent, u64, usize)] = &[
                (Agent::Cpu, 0x40, 64),
                (Agent::Cpu, 0x40, 64), // repeat write (S→M upgrade)
                (Agent::Device, 0x80, 64),
                (Agent::Cpu, 0xC0, 32), // aggregated payload size
                (Agent::Cpu, 0x80, 64), // cross-direction conflict
            ];
            for &(agent, addr, len) in script {
                let payload = &line.bytes()[..len];
                let pkts = a.write(agent, Addr(addr), payload, len < LINE_BYTES);
                let pushed = b.write_accounted(agent, Addr(addr), len);
                assert_eq!(pushed, pkts.iter().any(|p| p.opcode == Opcode::FlushData));
                assert_eq!(a.line_state(Addr(addr)), b.line_state(Addr(addr)));
            }
            assert_eq!(a.to_device, b.to_device);
            assert_eq!(a.to_host, b.to_host);
            for op in [Opcode::ReadOwn, Opcode::GoFlush, Opcode::FlushData, Opcode::Invalidate] {
                assert_eq!(a.msg_count(op), b.msg_count(op), "{mode:?} {op:?}");
            }
            assert_eq!(a.snoop_filter().entries(), b.snoop_filter().entries());
        }
    }

    #[test]
    fn registered_region_behaves_like_unregistered() {
        // The dense slab is a pure storage change: an engine with a
        // registered region must emit the same packets and reach the same
        // states as one resolving every address through the spillover.
        for mode in [ProtocolMode::Update, ProtocolMode::Invalidation] {
            let mut dense = CoherenceEngine::new(mode);
            dense.register_region(Addr(0), 64 * LINE_BYTES as u64);
            let mut spill = CoherenceEngine::new(mode);
            let line = LineData::zeroed();
            for i in 0..64u64 {
                let a = Addr(i * 64);
                let pd = dense.write(Agent::Cpu, a, line.bytes(), false);
                let ps = spill.write(Agent::Cpu, a, line.bytes(), false);
                assert_eq!(pd, ps);
                assert_eq!(
                    dense.read(Agent::Device, a, LINE_BYTES).len(),
                    spill.read(Agent::Device, a, LINE_BYTES).len()
                );
            }
            let addrs: Vec<Addr> = (0..64u64).map(|i| Addr(i * 64)).collect();
            assert_eq!(
                dense.flush(Agent::Cpu, &addrs, LINE_BYTES).len(),
                spill.flush(Agent::Cpu, &addrs, LINE_BYTES).len()
            );
            for &a in &addrs {
                assert_eq!(dense.line_state(a), spill.line_state(a), "{mode:?} {a:?}");
            }
            assert_eq!(dense.tracked_lines(), spill.tracked_lines());
            assert_eq!(dense.to_device, spill.to_device);
            assert_eq!(dense.to_host, spill.to_host);
            assert_eq!(dense.snoop_filter().entries(), spill.snoop_filter().entries());
            assert_eq!(dense.snoop_filter().peak_entries(), spill.snoop_filter().peak_entries());
        }
    }

    #[test]
    fn slot_path_matches_addr_path() {
        let mut a = CoherenceEngine::new(ProtocolMode::Update);
        a.register_region(Addr(0), 16 * LINE_BYTES as u64);
        let mut b = a.clone();
        let base = a.resolve_run(Addr(0), 16).expect("run inside region");
        for i in 0..16usize {
            let addr = Addr(i as u64 * 64);
            let pa = a.write_accounted(Agent::Cpu, addr, 32);
            let pb = b.write_accounted_at(Agent::Cpu, LineSlot::Dense(base + i), 32);
            assert_eq!(pa, pb);
        }
        for i in 0..16u64 {
            assert_eq!(a.line_state(Addr(i * 64)), b.line_state(Addr(i * 64)));
        }
        assert_eq!(a.to_device, b.to_device);
        assert_eq!(a.tracked_lines(), b.tracked_lines());
    }

    #[test]
    fn write_run_matches_per_line_writes() {
        // A run starting mid-chunk and crossing into the next slab chunk
        // must land on the same snapshot as the same lines written one at
        // a time.
        let n = 5330;
        let first = (teco_mem::CHUNK_LINES - 1000) as u64;
        let bytes = (first + n as u64) * LINE_BYTES as u64;
        for mode in [ProtocolMode::Update, ProtocolMode::Invalidation] {
            let mut run = CoherenceEngine::new(mode);
            run.register_region(Addr(0), bytes);
            let mut one = run.clone();
            let start = run.resolve_run(Addr(first * LINE_BYTES as u64), n).unwrap();
            let pushed = run.write_run_accounted(Agent::Cpu, start, n, 32);
            assert_eq!(pushed, mode == ProtocolMode::Update);
            for k in 0..n {
                one.write_accounted_at(Agent::Cpu, LineSlot::Dense(start + k), 32);
            }
            assert_eq!(run.snapshot(), one.snapshot(), "{mode:?}");
            assert_eq!(run.tracked_lines(), n);
        }
    }

    #[test]
    fn poisoned_data_is_refused_admission() {
        let mut eng = CoherenceEngine::new(ProtocolMode::Update);
        let clean = CxlPacket::data(Opcode::FlushData, A, vec![0u8; 64], false);
        let bad = clean.clone().with_poison(true);
        assert!(eng.admit_data(&clean));
        assert!(!eng.admit_data(&bad));
        assert!(!eng.admit_data(&bad));
        assert_eq!(eng.poisoned_rejects(), 2);
        // Admission checks never perturb coherence state or traffic.
        assert_eq!(eng.tracked_lines(), 0);
        assert_eq!(eng.to_device, TrafficStats::default());
        assert_eq!(eng.to_host, TrafficStats::default());
    }

    #[test]
    fn poison_containment_counts_globally() {
        // The rejection count covers every region and survives a checkpoint.
        let mut eng = CoherenceEngine::new(ProtocolMode::Update);
        eng.register_region(Addr(0), 64 * LINE_BYTES as u64);
        let bad =
            CxlPacket::data(Opcode::FlushData, Addr(0), vec![0u8; 64], false).with_poison(true);
        let far = CxlPacket::data(Opcode::FlushData, Addr(1 << 40), vec![0u8; 64], false)
            .with_poison(true);
        assert!(!eng.admit_data(&bad));
        assert!(!eng.admit_data(&far));
        assert!(eng.admit_data(&CxlPacket::data(Opcode::FlushData, Addr(0), vec![0u8; 64], false)));
        assert_eq!(eng.poisoned_rejects(), 2);
        assert_eq!(eng.snapshot().poisoned_rejects, 2);
        let back = CoherenceEngine::restore(&eng.snapshot());
        assert_eq!(back.poisoned_rejects(), 2);
    }

    #[test]
    fn canonical_flow_packet_counts() {
        let line = LineData::zeroed();
        let (upd, _) = parameter_update_flow(ProtocolMode::Update, A, &line);
        let (inv, _) = parameter_update_flow(ProtocolMode::Invalidation, A, &line);
        // Same data volume either way (64 B), but the update protocol moves
        // it at write time, the invalidation protocol at read time.
        let data_upd: usize = upd.iter().map(|p| p.payload.len()).sum();
        let data_inv: usize = inv.iter().map(|p| p.payload.len()).sum();
        assert_eq!(data_upd, 64);
        assert_eq!(data_inv, 64);
    }
}
