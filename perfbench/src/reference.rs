//! A fixed reference workload, probed next to the steps in the same
//! process. The host shares its cores and caches with other tenants, and
//! a step's host time moves with them; the probes sample the same
//! contention, so step time in probe units reads the code's cost with
//! most of the host's share factored out.

use std::collections::HashMap;
use std::time::Instant;

/// 256 KiB of words: resident in a private cache.
const WORDS: usize = 1 << 15;
/// 1 MiB of words, touched at random lines: the cache a core shares with
/// its sibling thread.
const SHARED_WORDS: usize = 1 << 17;

#[derive(Debug)]
pub struct Reference {
    buf: Vec<u64>,
    shared: Vec<u64>,
    table: HashMap<u64, u64>,
    state: u64,
}

impl Reference {
    pub fn new() -> Self {
        Reference {
            buf: (0..WORDS as u64).collect(),
            shared: (0..SHARED_WORDS as u64).collect(),
            table: HashMap::with_capacity(1 << 12),
            state: 0x9e37_79b9_7f4a_7c15,
        }
    }

    /// Run one probe and return its host time in nanoseconds: independent
    /// arithmetic streams over the small buffer, hashed inserts and lookups
    /// with short-lived allocations, and random line updates in the larger
    /// buffer — the instruction and memory mix of simulator code.
    pub fn probe(&mut self) -> u64 {
        let t0 = Instant::now();
        let mut acc = [0u64; 8];
        for _ in 0..4 {
            for c in self.buf.chunks_exact(8) {
                for k in 0..8 {
                    acc[k] = acc[k].wrapping_add(c[k] ^ (acc[k] >> 3)).rotate_left(7);
                }
            }
        }
        let mut x = self.state ^ acc.iter().fold(0, |a, &b| a ^ b);
        self.table.clear();
        for _ in 0..2048 {
            x = x.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1_442_695_040_888_963_407);
            let key = x >> 52;
            let boxed = std::hint::black_box(vec![x; 4]);
            let slot = self.table.entry(key).or_insert(0);
            *slot = slot.wrapping_add(boxed[(x & 3) as usize]);
        }
        for _ in 0..8192 {
            x = x.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1_442_695_040_888_963_407);
            let i = ((x >> 33) as usize * 8) % SHARED_WORDS;
            self.shared[i] = self.shared[i].wrapping_add(x);
        }
        self.state = std::hint::black_box(x ^ self.table.len() as u64);
        u64::try_from(t0.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }
}
