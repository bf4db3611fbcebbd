//! Zero-cost-when-off audit for the session's hot path.
//!
//! The shared counting allocator from `teco-testsupport` wraps the system
//! allocator. After a warm-up pass has sized the session's reused wire
//! buffer, the gradient-push, bulk parameter-push and fence loop must not
//! allocate at all with auditing off — the paranoid auditor's shadow machinery may cost
//! nothing on the legacy path. The same loop with auditing ON is then
//! allowed (and expected) to allocate for the shadow map, which doubles as
//! proof the counter actually observes this code path.
//!
//! One `#[test]` only: the counter is global and the default harness runs
//! tests on multiple threads.

use teco_core::{TecoConfig, TecoSession};
use teco_mem::{Addr, LineData, LINE_BYTES};
use teco_sim::SimTime;
use teco_testsupport::{allocations, min_allocations, CountingAlloc};

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

const LINES: usize = 128;

fn line_with(v: u32) -> LineData {
    let mut l = LineData::zeroed();
    for w in 0..16 {
        l.set_word(w, v.wrapping_add(w as u32));
    }
    l
}

// The zero-alloc contract covers the fault-free gradient path, the bulk
// parameter path and the fences.
fn push_loop(s: &mut TecoSession, (base, grads): (Addr, Addr), lines: &[LineData]) {
    for (i, line) in lines.iter().enumerate() {
        let addr = Addr(grads.0 + (i * LINE_BYTES) as u64);
        s.push_grad_line(addr, *line, SimTime::ZERO).expect("mapped grad line must push");
    }
    s.push_param_lines(base, lines, SimTime::ZERO).expect("mapped run must push");
    s.cxlfence_grads(SimTime::ZERO);
    s.cxlfence_params(SimTime::ZERO);
}

/// Map the parameter and gradient tensors, returning their bases.
fn alloc_tensors(s: &mut TecoSession) -> (Addr, Addr) {
    let bytes = (LINES * LINE_BYTES) as u64;
    let (_, params) = s.alloc_tensor("params", bytes).expect("params fit");
    let (_, grads) = s.alloc_tensor("grads", bytes).expect("grads fit");
    (params, grads)
}

#[test]
fn session_steady_state_allocates_nothing_with_audit_off() {
    let cfg = TecoConfig::default().with_act_aft_steps(0).with_giant_cache_bytes(1 << 20);
    assert!(!cfg.audit, "audit must default off");
    let mut s = TecoSession::new(cfg).expect("default config validates");
    let bases = alloc_tensors(&mut s);
    s.check_activation(0);
    let lines: Vec<LineData> = (0..LINES).map(|i| line_with(0x6100_0000 + i as u32)).collect();
    // Warm-up sizes the wire buffer and the arena chunks.
    push_loop(&mut s, bases, &lines);
    let off_allocs = min_allocations(5, || {
        for _ in 0..10 {
            push_loop(&mut s, bases, &lines);
        }
    });
    assert_eq!(off_allocs, 0, "audit-off session steady state must not allocate");

    // Control: the same loop with the auditor ON does allocate (the shadow
    // map exists and every fence walks it) — proving the counter watches
    // this path and the zero above is meaningful.
    let cfg = TecoConfig::default()
        .with_act_aft_steps(0)
        .with_giant_cache_bytes(1 << 20)
        .with_audit(true);
    let mut audited = TecoSession::new(cfg).expect("audited config validates");
    let abases = alloc_tensors(&mut audited);
    audited.check_activation(0);
    let on_allocs = allocations(|| {
        push_loop(&mut audited, abases, &lines);
    });
    assert!(on_allocs > 0, "audited first pass must populate the shadow");
    audited.run_audit().expect("shadow must match the device");
}
