//! Shared helpers for the AQF benchmark suite.
//!
//! The benches regenerate the paper's Figure 3 (selection overhead) on real
//! CPU time and add ablation measurements for the design choices called out
//! in `DESIGN.md` (convolution cost, Poisson staleness factor, gateway
//! pipeline, selection policies).

pub use aqf_workload::{
    build_candidates, build_candidates_uncached, candidate_keys, synthetic_repository,
};

/// Allocation counting for the bench suite's regression gates.
///
/// Compiled only with `--features alloc-counter`: installs a wrapper around
/// the system allocator that counts every `alloc`/`realloc` call, so the
/// `world_core` and `gateway_pipeline` benches can assert an
/// allocations-per-event ceiling and fail when a change quietly reintroduces
/// per-copy cloning on the message plane. Counting is a single relaxed
/// atomic increment; it perturbs timings, which is why the gates run as a
/// separate feature-gated pass rather than inside the timed benches.
#[cfg(feature = "alloc-counter")]
pub mod alloc_count {
    use std::alloc::{GlobalAlloc, Layout, System};
    use std::sync::atomic::{AtomicU64, Ordering};

    static ALLOCS: AtomicU64 = AtomicU64::new(0);

    /// Counts heap acquisitions (`alloc` and `realloc`) and forwards to the
    /// system allocator.
    pub struct CountingAlloc;

    unsafe impl GlobalAlloc for CountingAlloc {
        unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
            ALLOCS.fetch_add(1, Ordering::Relaxed);
            unsafe { System.alloc(layout) }
        }

        unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
            unsafe { System.dealloc(ptr, layout) }
        }

        unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
            ALLOCS.fetch_add(1, Ordering::Relaxed);
            unsafe { System.realloc(ptr, layout, new_size) }
        }
    }

    #[global_allocator]
    static COUNTER: CountingAlloc = CountingAlloc;

    /// Heap acquisitions since process start.
    pub fn allocations() -> u64 {
        ALLOCS.load(Ordering::Relaxed)
    }

    /// Runs `f` and returns `(allocations during f, f's result)`.
    pub fn measure<R>(f: impl FnOnce() -> R) -> (u64, R) {
        let before = allocations();
        let out = f();
        (allocations() - before, out)
    }
}

use aqf_core::object::VersionedRegister;
use aqf_core::shell::{Discipline, Replica, ServerConfig};
use aqf_core::{PRIMARY_GROUP, SECONDARY_GROUP};
use aqf_group::{View, ViewId};
use aqf_sim::ActorId;

/// A primary view of `n + 1` members (ids 0..=n, 0 = sequencer/leader).
pub fn primary_view(n: usize) -> View {
    View::new(
        PRIMARY_GROUP,
        ViewId(0),
        (0..=n).map(ActorId::from_index).collect(),
    )
}

/// A secondary view of `n` members (ids 100..100+n).
pub fn secondary_view(n: usize) -> View {
    View::new(
        SECONDARY_GROUP,
        ViewId(0),
        (100..100 + n).map(ActorId::from_index).collect(),
    )
}

/// A primary (non-leader for `me > 0`) server gateway under discipline `D`.
pub fn primary_gateway<D: Discipline>(
    me: usize,
    primaries: usize,
    secondaries: usize,
) -> Replica<D> {
    Replica::new(
        ActorId::from_index(me),
        primary_view(primaries),
        secondary_view(secondaries),
        Box::new(VersionedRegister::new()),
        ServerConfig {
            clients: vec![ActorId::from_index(999)],
            ..ServerConfig::default()
        },
    )
}
