//! Allocation regression test: `Simulator::run` allocates (almost)
//! nothing per fetched instruction.
//!
//! Branch state lives in one record per CTX position, allocated with the
//! simulator, and the front-end latches and window slots are filled in
//! place, so the cycle loop's only remaining heap traffic is the return
//! address stack's call frames (one `Rc` node per fetched `call`) and
//! per-cycle vectors growing to their high-water mark.
//!
//! A counting global allocator counts the allocations this thread makes
//! inside `run` (test threads run in parallel, so the counter is
//! thread-local). Release builds only: debug builds run extra
//! allocating cross-checks inside the loop (`cfg(debug_assertions)`).

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use pp_core::Simulator;
use pp_experiments::experiments::BASELINE_HISTORY_BITS;
use pp_experiments::{named_config, Config};
use pp_workloads::Workload;

/// Most heap allocations `run` may make per fetched instruction.
const MAX_ALLOCATIONS_PER_FETCHED: f64 = 0.02;

thread_local! {
    /// Allocations (including reallocations) made by this thread.
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

fn allocations() -> u64 {
    ALLOCATIONS.with(Cell::get)
}

/// The system allocator, counting every call that may allocate.
struct CountingAlloc;

fn count_one() {
    // `try_with`: the allocator also runs while thread-locals are being
    // torn down, when there is nothing left to count into.
    let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
}

// SAFETY: every method forwards its arguments unchanged to `System`, so
// the `GlobalAlloc` contract holds exactly as it does for `System`. The
// counter is a const-initialised thread-local `Cell<u64>` without a
// destructor, so updating it never allocates or re-enters the allocator.
#[allow(unsafe_code)]
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_one();
        // SAFETY: the caller upholds `alloc`'s contract, which is `System`'s.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count_one();
        // SAFETY: as for `alloc`.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_one();
        // SAFETY: `ptr` was allocated by this allocator, i.e. by `System`,
        // with `layout`; the caller upholds the rest of `realloc`'s contract.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` was allocated by this allocator, i.e. by `System`,
        // with `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

#[test]
fn simulator_run_allocates_almost_nothing_per_fetched_instruction() {
    if cfg!(debug_assertions) {
        eprintln!("alloc_free: debug cross-checks allocate per cycle — run with --release");
        return;
    }
    let mut report = Vec::new();
    let mut worst = 0.0f64;
    for c in [Config::Monopath, Config::SeeJrs, Config::DualJrs] {
        let cfg = named_config(c, BASELINE_HISTORY_BITS);
        for w in Workload::ALL {
            let program = w.build(w.default_scale() / 8);
            let mut sim = Simulator::new(&program, cfg.clone());
            let before = allocations();
            let stats = sim.run();
            let made = allocations() - before;
            assert!(
                !stats.hit_cycle_limit,
                "{w} under {c:?} hit the cycle limit"
            );
            let per_fetched = made as f64 / stats.fetched_instructions as f64;
            worst = worst.max(per_fetched);
            report.push(format!(
                "{w}/{c:?}: {made} allocations over {} fetched ({per_fetched:.5} each)",
                stats.fetched_instructions
            ));
        }
    }
    eprintln!("{}", report.join("\n"));
    assert!(
        worst <= MAX_ALLOCATIONS_PER_FETCHED,
        "Simulator::run allocated up to {worst:.4} times per fetched instruction \
         (at most {MAX_ALLOCATIONS_PER_FETCHED} allowed)"
    );
}
