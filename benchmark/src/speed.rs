//! Machine-speed normalisation.
//!
//! The sandbox this benchmark is built for is a small VM on a shared host
//! whose speed drifts by 25-30 % over seconds to minutes (measured: the same
//! deterministic cycle takes 0.26-0.41 s within one minute, with no steal
//! time reported and no other local process). No window of tens of seconds
//! averages that out. A fixed *probe* computation run next to every
//! measurement drifts with it, so host times are reported as
//! `wall * NOMINAL_PROBE_S / probe`: the time the work would take on a box
//! where the probe takes its nominal 3 ms. Across 20 s windows this cut the
//! spread of median cycle time from 11-23 % to 1-3 % on all four workloads.
//!
//! The probe lives here, not in the crates under test, so no later change to
//! the system can move it.

use std::hint::black_box;
use std::time::Instant;

/// The probe's duration on the reference box in its uncontended state.
pub const NOMINAL_PROBE_S: f64 = 0.003;

/// Sorts 200 000 pseudo-random words and folds them: branchy, allocating and
/// cache-missing in roughly the simulator's own proportions. Returns the
/// elapsed seconds.
pub fn probe() -> f64 {
    let t0 = Instant::now();
    let mut v: Vec<u64> = (0..200_000u64)
        .map(|i| i.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 20)
        .collect();
    v.sort_unstable();
    let fold = v
        .iter()
        .enumerate()
        .fold(0u64, |acc, (i, x)| acc.wrapping_add(x ^ i as u64));
    black_box(fold);
    t0.elapsed().as_secs_f64()
}

/// Factor that turns a wall time measured between two probes into
/// normalised time.
pub fn factor(probe_before: f64, probe_after: f64) -> f64 {
    NOMINAL_PROBE_S / ((probe_before + probe_after) / 2.0)
}

/// Runs `f` between two probes; returns its normalised seconds and result.
pub fn normalised<T>(f: impl FnOnce() -> T) -> (f64, T) {
    let before = probe();
    let t0 = Instant::now();
    let out = f();
    let wall = t0.elapsed().as_secs_f64();
    (wall * factor(before, probe()), out)
}
