//! Dense, region-indexed line arenas.
//!
//! Tensor regions give every cache line a stable `(region, line_index)`
//! coordinate, so per-line bookkeeping that the hot paths used to keep in
//! `HashMap<u64, …>`s can live in flat slabs addressed by O(1) arithmetic:
//! a [`LineIndexer`] maps a line address to a dense slot (binary search
//! over the handful of registered region spans — far cheaper than hashing
//! a SipHash key per event), a [`LineSlab`] stores per-line values in
//! lazily materialized fixed-size chunks (so a multi-GB timing-only region
//! costs no memory until a line is actually touched), and a [`LineBitmap`]
//! keeps one bit per line with a popcount maintained incrementally.
//!
//! Addresses outside every registered region resolve to
//! [`LineSlot::Spill`]: callers keep a small hash-map spillover for those,
//! preserving the old "any address works" behavior for standalone use
//! while the region-registered steady state never hashes.

use crate::line::{Addr, LINE_BYTES};

/// Resolved coordinate of one cache line.
///
/// `Dense` carries the slot in the flat slabs; `Spill` carries the global
/// line index (address / 64) for the hash-map spillover.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LineSlot {
    /// Inside a registered region: index into the dense slabs.
    Dense(usize),
    /// Outside every registered region: global line index, for the
    /// spillover map.
    Spill(u64),
}

/// One registered span of lines.
#[derive(Debug, Clone, Copy)]
struct Span {
    /// First line index (base address / 64).
    first_line: u64,
    /// Lines in the span.
    n_lines: usize,
    /// Dense slot of `first_line`.
    slot_base: usize,
}

/// Maps line addresses to dense slots across registered region spans.
///
/// Spans are assigned slots in registration order (append-only, so already
/// handed-out slots never move) and kept sorted by base line for binary
/// search on resolve.
#[derive(Debug, Clone, Default)]
pub struct LineIndexer {
    spans: Vec<Span>,
    slots: usize,
}

impl LineIndexer {
    /// Empty indexer: every address resolves to `Spill`.
    pub fn new() -> Self {
        Self::default()
    }

    /// Register `bytes` (rounded up to whole lines) starting at `base`.
    /// Returns `false` (and registers nothing) if the span would overlap an
    /// existing one — callers treat those addresses as spillover.
    pub fn add_span(&mut self, base: Addr, bytes: u64) -> bool {
        let first_line = base.line_index();
        let n_lines = bytes.div_ceil(LINE_BYTES as u64) as usize;
        if n_lines == 0 {
            return true;
        }
        let overlaps = self.spans.iter().any(|s| {
            first_line < s.first_line + s.n_lines as u64
                && s.first_line < first_line + n_lines as u64
        });
        if overlaps {
            return false;
        }
        self.spans.push(Span { first_line, n_lines, slot_base: self.slots });
        self.slots += n_lines;
        self.spans.sort_by_key(|s| s.first_line);
        true
    }

    /// Total dense slots (lines) registered.
    pub fn slots(&self) -> usize {
        self.slots
    }

    /// Number of registered spans.
    pub fn spans(&self) -> usize {
        self.spans.len()
    }

    /// Resolve the line containing `a`.
    #[inline]
    pub fn resolve(&self, a: Addr) -> LineSlot {
        self.resolve_line(a.line_index())
    }

    /// Resolve a global line index.
    #[inline]
    pub fn resolve_line(&self, line: u64) -> LineSlot {
        let idx = self.spans.partition_point(|s| s.first_line <= line);
        if idx > 0 {
            let s = &self.spans[idx - 1];
            let off = line - s.first_line;
            if off < s.n_lines as u64 {
                return LineSlot::Dense(s.slot_base + off as usize);
            }
        }
        LineSlot::Spill(line)
    }

    /// Resolve a run of `n` consecutive lines starting at `a`. Returns the
    /// dense slot of the first line only when the *whole* run lies inside
    /// one span (so slot arithmetic `start + i` is valid for every line).
    pub fn resolve_run(&self, a: Addr, n: usize) -> Option<usize> {
        let line = a.line_index();
        let idx = self.spans.partition_point(|s| s.first_line <= line);
        if idx == 0 {
            return None;
        }
        let s = &self.spans[idx - 1];
        let off = line - s.first_line;
        (off + n as u64 <= s.n_lines as u64).then(|| s.slot_base + off as usize)
    }

    /// The registered spans as plain `(first_line, n_lines, slot_base)`
    /// triples, sorted by first line — the checkpoint image of the indexer.
    pub fn span_parts(&self) -> Vec<(u64, u64, u64)> {
        self.spans.iter().map(|s| (s.first_line, s.n_lines as u64, s.slot_base as u64)).collect()
    }

    /// Rebuild an indexer from [`LineIndexer::span_parts`] output. Slot
    /// assignments are restored verbatim, so dense slots handed out before
    /// the checkpoint stay valid after it.
    pub fn from_span_parts(parts: &[(u64, u64, u64)]) -> Self {
        let mut spans: Vec<Span> = parts
            .iter()
            .map(|&(first_line, n_lines, slot_base)| Span {
                first_line,
                n_lines: n_lines as usize,
                slot_base: slot_base as usize,
            })
            .collect();
        spans.sort_by_key(|s| s.first_line);
        let slots = parts.iter().map(|&(_, n, base)| (base + n) as usize).max().unwrap_or(0);
        LineIndexer { spans, slots }
    }
}

/// Lines per [`LineSlab`] chunk. 8192 lines = 512 KB of line data: big
/// enough that chunk crossings are rare in bulk runs, small enough that a
/// barely-touched multi-GB region stays cheap.
pub const CHUNK_LINES: usize = 8192;

/// A dense per-line value store with lazily materialized chunks.
///
/// Slots are allocated in whole chunks of `CHUNK_LINES × stride` entries;
/// a chunk materializes (filled with the default value) on first mutable
/// access, so untouched stretches of a huge region cost only one pointer.
/// `stride` is the entries-per-line factor: 1 for per-line state, 64
/// (`LINE_BYTES`) for line data.
#[derive(Debug, Clone)]
pub struct LineSlab<T: Copy> {
    chunks: Vec<Option<Box<[T]>>>,
    /// Entries per line.
    stride: usize,
    /// Total entries (lines × stride).
    len: usize,
    fill: T,
}

impl<T: Copy> LineSlab<T> {
    /// Empty slab holding `stride` entries per line.
    pub fn new(stride: usize, fill: T) -> Self {
        assert!(stride > 0);
        LineSlab { chunks: Vec::new(), stride, len: 0, fill }
    }

    /// Entries per chunk.
    #[inline]
    fn chunk_len(&self) -> usize {
        CHUNK_LINES * self.stride
    }

    /// Grow to cover `lines` lines (no-op if already that large).
    pub fn grow_lines(&mut self, lines: usize) {
        let want = lines * self.stride;
        if want > self.len {
            self.len = want;
            let chunks = want.div_ceil(self.chunk_len());
            self.chunks.resize_with(chunks, || None);
        }
    }

    /// Total entries covered.
    pub fn len(&self) -> usize {
        self.len
    }
    /// True when no lines are covered.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }
    /// Number of chunks actually materialized.
    pub fn chunks_resident(&self) -> usize {
        self.chunks.iter().filter(|c| c.is_some()).count()
    }

    /// Read entry `i`, returning the fill value while the chunk is
    /// unmaterialized.
    #[inline]
    pub fn get(&self, i: usize) -> T {
        debug_assert!(i < self.len);
        match &self.chunks[i / self.chunk_len()] {
            Some(c) => c[i % self.chunk_len()],
            None => self.fill,
        }
    }

    /// Mutable access to entry `i`, materializing its chunk.
    #[inline]
    pub fn get_mut(&mut self, i: usize) -> &mut T {
        debug_assert!(i < self.len);
        let cl = self.chunk_len();
        let (fill, chunk) = (self.fill, &mut self.chunks[i / cl]);
        let c = chunk.get_or_insert_with(|| vec![fill; cl].into_boxed_slice());
        &mut c[i % cl]
    }

    /// Copy entries `[start, start + out.len())` into `out`, reading the
    /// fill value from unmaterialized chunks (no materialization).
    pub fn copy_to(&self, start: usize, out: &mut [T]) {
        debug_assert!(start + out.len() <= self.len);
        let cl = self.chunk_len();
        let mut done = 0;
        while done < out.len() {
            let i = start + done;
            let within = i % cl;
            let take = (cl - within).min(out.len() - done);
            match &self.chunks[i / cl] {
                Some(c) => out[done..done + take].copy_from_slice(&c[within..within + take]),
                None => out[done..done + take].fill(self.fill),
            }
            done += take;
        }
    }

    /// The materialized chunks as `(chunk_index, contents)` pairs, in
    /// index order — together with `len()` and the construction-time
    /// `(stride, fill)`, the complete checkpoint image of the slab.
    /// Unmaterialized chunks are omitted; restoring through
    /// [`LineSlab::from_parts`] leaves them unmaterialized again, so a
    /// restore does not inflate memory over the original.
    pub fn resident_parts(&self) -> Vec<(u64, Vec<T>)> {
        self.chunks
            .iter()
            .enumerate()
            .filter_map(|(i, c)| c.as_ref().map(|c| (i as u64, c.to_vec())))
            .collect()
    }

    /// Rebuild a slab from its construction parameters, total entry count,
    /// and [`LineSlab::resident_parts`] output.
    pub fn from_parts(stride: usize, fill: T, len: usize, parts: &[(u64, Vec<T>)]) -> Self {
        let mut slab = LineSlab::new(stride, fill);
        slab.len = len;
        slab.chunks.resize_with(len.div_ceil(slab.chunk_len()), || None);
        for (idx, contents) in parts {
            let idx = *idx as usize;
            assert!(idx < slab.chunks.len(), "chunk {idx} out of range");
            assert_eq!(contents.len(), slab.chunk_len(), "chunk {idx} has wrong length");
            slab.chunks[idx] = Some(contents.clone().into_boxed_slice());
        }
        slab
    }

    /// Visit each materialized contiguous segment of entries
    /// `[start, start + len)` mutably, materializing chunks on the way.
    /// Segments are passed in order as `(offset_within_range, &mut [T])`.
    pub fn for_segments_mut(
        &mut self,
        start: usize,
        len: usize,
        mut f: impl FnMut(usize, &mut [T]),
    ) {
        debug_assert!(start + len <= self.len);
        let cl = self.chunk_len();
        let fill = self.fill;
        let mut done = 0;
        while done < len {
            let i = start + done;
            let within = i % cl;
            let take = (cl - within).min(len - done);
            let chunk =
                self.chunks[i / cl].get_or_insert_with(|| vec![fill; cl].into_boxed_slice());
            f(done, &mut chunk[within..within + take]);
            done += take;
        }
    }
}

/// One bit per line with an incrementally maintained popcount.
#[derive(Debug, Clone, Default)]
pub struct LineBitmap {
    words: Vec<u64>,
    lines: usize,
    ones: usize,
}

impl LineBitmap {
    /// Empty bitmap.
    pub fn new() -> Self {
        Self::default()
    }

    /// Grow to cover `lines` lines (new bits are 0).
    pub fn grow(&mut self, lines: usize) {
        if lines > self.lines {
            self.lines = lines;
            self.words.resize(lines.div_ceil(64), 0);
        }
    }

    /// Lines covered.
    pub fn len(&self) -> usize {
        self.lines
    }
    /// True when no lines are covered.
    pub fn is_empty(&self) -> bool {
        self.lines == 0
    }
    /// Bits currently set.
    pub fn count(&self) -> usize {
        self.ones
    }

    /// Read bit `i`.
    #[inline]
    pub fn get(&self, i: usize) -> bool {
        debug_assert!(i < self.lines);
        self.words[i / 64] & (1u64 << (i % 64)) != 0
    }

    /// Set bit `i`; returns the previous value.
    #[inline]
    pub fn set(&mut self, i: usize) -> bool {
        debug_assert!(i < self.lines);
        let (w, m) = (i / 64, 1u64 << (i % 64));
        let was = self.words[w] & m != 0;
        if !was {
            self.words[w] |= m;
            self.ones += 1;
        }
        was
    }

    /// Clear bit `i`; returns the previous value.
    #[inline]
    pub fn clear(&mut self, i: usize) -> bool {
        debug_assert!(i < self.lines);
        let (w, m) = (i / 64, 1u64 << (i % 64));
        let was = self.words[w] & m != 0;
        if was {
            self.words[w] &= !m;
            self.ones -= 1;
        }
        was
    }

    /// First set bit in `[start, start + len)`, if any — word-at-a-time, so
    /// the all-clear common case costs `len / 64` tests.
    pub fn first_set_in(&self, start: usize, len: usize) -> Option<usize> {
        debug_assert!(start + len <= self.lines);
        if self.ones == 0 || len == 0 {
            return None;
        }
        range_words(start, start + len).find_map(|(w, mask)| {
            let bits = self.words[w] & mask;
            (bits != 0).then(|| w * 64 + bits.trailing_zeros() as usize)
        })
    }

    /// Set every bit in `[start, start + len)` — word-at-a-time, counting
    /// only the bits that were clear into the popcount.
    pub fn set_range(&mut self, start: usize, len: usize) {
        debug_assert!(start + len <= self.lines);
        for (w, mask) in range_words(start, start + len) {
            self.ones += (mask & !self.words[w]).count_ones() as usize;
            self.words[w] |= mask;
        }
    }

    /// The raw bit words, for a checkpoint. Paired with `len()`, this is
    /// the full image (the popcount is derivable).
    pub fn word_parts(&self) -> Vec<u64> {
        self.words.clone()
    }

    /// Rebuild a bitmap from `lines` and [`LineBitmap::word_parts`] output;
    /// the popcount is recomputed.
    pub fn from_parts(lines: usize, words: &[u64]) -> Self {
        assert_eq!(words.len(), lines.div_ceil(64), "word count does not match line count");
        let ones = words.iter().map(|w| w.count_ones() as usize).sum();
        LineBitmap { words: words.to_vec(), lines, ones }
    }

    /// Iterate the indices of all set bits, ascending.
    pub fn iter_ones(&self) -> impl Iterator<Item = usize> + '_ {
        self.words.iter().enumerate().flat_map(move |(w, &word)| {
            let base = w * 64;
            (0..64).filter(move |b| word & (1u64 << b) != 0).map(move |b| base + b)
        })
    }
}

/// The bitmap words covering bits `[start, end)`, each with the mask of
/// the range's bits inside it.
fn range_words(start: usize, end: usize) -> impl Iterator<Item = (usize, u64)> {
    (start / 64..end.div_ceil(64)).map(move |w| {
        let lo = start.saturating_sub(w * 64);
        let hi = (end - w * 64).min(64);
        let mask = if hi == 64 { !0u64 << lo } else { ((1u64 << hi) - 1) & (!0u64 << lo) };
        (w, mask)
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn indexer_resolves_dense_and_spill() {
        let mut ix = LineIndexer::new();
        assert_eq!(ix.resolve(Addr(0)), LineSlot::Spill(0));
        assert!(ix.add_span(Addr(0), 256)); // 4 lines, slots 0..4
        assert!(ix.add_span(Addr(1024), 128)); // 2 lines, slots 4..6
        assert_eq!(ix.slots(), 6);
        assert_eq!(ix.resolve(Addr(0)), LineSlot::Dense(0));
        assert_eq!(ix.resolve(Addr(255)), LineSlot::Dense(3));
        assert_eq!(ix.resolve(Addr(256)), LineSlot::Spill(4));
        assert_eq!(ix.resolve(Addr(1024)), LineSlot::Dense(4));
        assert_eq!(ix.resolve(Addr(1089)), LineSlot::Dense(5));
        assert_eq!(ix.resolve(Addr(1152)), LineSlot::Spill(18));
    }

    #[test]
    fn indexer_slots_stable_under_out_of_order_registration() {
        let mut ix = LineIndexer::new();
        assert!(ix.add_span(Addr(4096), 64)); // slot 0
        assert!(ix.add_span(Addr(0), 64)); // slot 1, though lower address
        assert_eq!(ix.resolve(Addr(4096)), LineSlot::Dense(0));
        assert_eq!(ix.resolve(Addr(0)), LineSlot::Dense(1));
    }

    #[test]
    fn indexer_rejects_overlap() {
        let mut ix = LineIndexer::new();
        assert!(ix.add_span(Addr(0), 256));
        assert!(!ix.add_span(Addr(128), 256));
        assert_eq!(ix.slots(), 4);
    }

    #[test]
    fn indexer_resolve_run_requires_one_span() {
        let mut ix = LineIndexer::new();
        ix.add_span(Addr(0), 256); // 4 lines
        assert_eq!(ix.resolve_run(Addr(0), 4), Some(0));
        assert_eq!(ix.resolve_run(Addr(64), 3), Some(1));
        assert_eq!(ix.resolve_run(Addr(64), 4), None, "run leaves the span");
        assert_eq!(ix.resolve_run(Addr(512), 1), None);
    }

    #[test]
    fn slab_lazy_chunks_and_fill() {
        let mut s: LineSlab<u8> = LineSlab::new(1, 0xEE);
        s.grow_lines(3 * CHUNK_LINES);
        assert_eq!(s.chunks_resident(), 0);
        assert_eq!(s.get(5), 0xEE);
        *s.get_mut(CHUNK_LINES + 7) = 0x42;
        assert_eq!(s.chunks_resident(), 1, "only the touched chunk materialized");
        assert_eq!(s.get(CHUNK_LINES + 7), 0x42);
        assert_eq!(s.get(CHUNK_LINES + 8), 0xEE, "rest of chunk holds the fill");
    }

    #[test]
    fn slab_segments_cross_chunks() {
        let mut s: LineSlab<u32> = LineSlab::new(1, 0);
        s.grow_lines(2 * CHUNK_LINES);
        let start = CHUNK_LINES - 2;
        let mut offsets = Vec::new();
        s.for_segments_mut(start, 5, |off, seg| {
            offsets.push((off, seg.len()));
            for v in seg.iter_mut() {
                *v = 9;
            }
        });
        assert_eq!(offsets, vec![(0, 2), (2, 3)]);
        for i in 0..5 {
            assert_eq!(s.get(start + i), 9);
        }
    }

    #[test]
    fn slab_copy_to_mixes_resident_and_fill() {
        let mut s: LineSlab<u8> = LineSlab::new(1, 0x11);
        s.grow_lines(2 * CHUNK_LINES);
        *s.get_mut(CHUNK_LINES) = 0x77; // second chunk resident, first absent
        let mut out = [0u8; 4];
        s.copy_to(CHUNK_LINES - 2, &mut out);
        assert_eq!(out, [0x11, 0x11, 0x77, 0x11]);
    }

    #[test]
    fn bitmap_counts_and_scans() {
        let mut b = LineBitmap::new();
        b.grow(200);
        assert_eq!(b.count(), 0);
        assert!(!b.set(3));
        assert!(b.set(3), "second set reports already-set");
        b.set(130);
        assert_eq!(b.count(), 2);
        assert!(b.get(3) && b.get(130));
        assert_eq!(b.first_set_in(0, 200), Some(3));
        assert_eq!(b.first_set_in(4, 196), Some(130));
        assert_eq!(b.first_set_in(4, 100), None);
        assert!(b.clear(3));
        assert!(!b.clear(3));
        assert_eq!(b.count(), 1);
        b.set_range(60, 10);
        assert_eq!(b.count(), 11);
        assert_eq!(b.first_set_in(0, 200), Some(60));
    }

    #[test]
    fn bitmap_set_range_matches_per_bit_set() {
        // Random ranges crossing word boundaries, over bits that are
        // partly set already: same words and popcount as a per-bit loop.
        let mut rng = 0x9E37_79B9_7F4A_7C15u64;
        let mut next = |m: usize| {
            rng ^= rng << 13;
            rng ^= rng >> 7;
            rng ^= rng << 17;
            (rng % m as u64) as usize
        };
        let mut fast = LineBitmap::new();
        fast.grow(1000);
        let mut slow = fast.clone();
        for _ in 0..300 {
            if next(3) == 0 {
                let i = next(1000);
                fast.set(i);
                slow.set(i);
            }
            let start = next(1000);
            let len = next(1000 - start + 1).min(200);
            fast.set_range(start, len);
            for i in start..start + len {
                slow.set(i);
            }
            assert_eq!(fast.word_parts(), slow.word_parts(), "range {start}+{len}");
            assert_eq!(fast.count(), slow.count(), "range {start}+{len}");
        }
        assert_eq!(fast.count(), fast.word_parts().iter().map(|w| w.count_ones() as usize).sum());
        fast.set_range(0, 0);
        fast.set_range(1000, 0);
        assert_eq!(fast.count(), slow.count(), "empty ranges set nothing");
    }

    #[test]
    fn bitmap_scan_word_boundaries() {
        let mut b = LineBitmap::new();
        b.grow(256);
        b.set(63);
        b.set(64);
        b.set(191);
        assert_eq!(b.first_set_in(0, 63), None);
        assert_eq!(b.first_set_in(0, 64), Some(63));
        assert_eq!(b.first_set_in(64, 64), Some(64));
        assert_eq!(b.first_set_in(65, 127), Some(191), "191 is the last line in range");
        assert_eq!(b.first_set_in(65, 126), None, "range ends just before 191");
        assert_eq!(b.first_set_in(192, 64), None);
    }
}
