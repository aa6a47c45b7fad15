//! Properties of the memoized response-time CDF engine: the cached
//! evaluators must be *bit-identical* to the from-scratch computation under
//! arbitrary interleavings of measurements, replies, quarantines, and
//! queries, and the `S⊛W` base convolution must run at most once per window
//! generation.

use aqf_core::monitor::{InfoRepository, MonitorConfig};
use aqf_core::wire::{PerfBroadcast, ReadMeasurement};
use aqf_sim::{ActorId, SimDuration, SimTime};
use proptest::prelude::*;

fn r(i: usize) -> ActorId {
    ActorId::from_index(i)
}

fn perf(ts_us: u64, tq_us: u64, tb_us: u64) -> PerfBroadcast {
    PerfBroadcast {
        read: Some(ReadMeasurement {
            ts_us,
            tq_us,
            tb_us,
        }),
        publisher: None,
    }
}

fn repo_with(bin: Option<u64>, window: usize) -> InfoRepository {
    InfoRepository::new(MonitorConfig {
        window_size: window,
        cdf_bin_us: bin,
        ..MonitorConfig::default()
    })
}

/// One scripted repository operation, decoded from a `(kind, replica, a, b)`
/// tuple drawn by the property below.
#[derive(Debug, Clone, Copy)]
enum Op {
    /// Push an `(S, W, U)` measurement (U omitted when zero).
    Push { ts: u64, tq: u64, tb: u64 },
    /// Record a reply, refreshing the gateway-delay point mass.
    Reply { t1: u64, rtt: u64 },
    /// Charge a timeout (threshold 1: quarantines immediately).
    Timeout,
    /// Evaluate both CDFs at a deadline and compare against the reference.
    Query { deadline_us: u64 },
}

fn decode(kind: u8, a: u64, b: u64) -> Op {
    match kind % 4 {
        0 => Op::Push {
            ts: a % 400_000 + 1,
            tq: b % 150_000,
            // Roughly half the pushes contribute deferred-wait history.
            tb: if a.is_multiple_of(2) { b % 250_000 } else { 0 },
        },
        1 => Op::Reply {
            t1: a % 80_000,
            rtt: b % 120_000,
        },
        2 => Op::Timeout,
        _ => Op::Query {
            deadline_us: a % 1_500_000,
        },
    }
}

/// Applies `ops` to a repository, asserting after every query that the
/// cached CDFs match the uncached reference bit for bit.
fn run_script(ops: &[(u8, usize, u64, u64)], bin: Option<u64>, window: usize) {
    let repo = &mut repo_with(bin, window);
    let mut now_us = 1_000u64;
    for &(kind, replica, a, b) in ops {
        now_us += 1_000;
        let now = SimTime::from_micros(now_us);
        let id = r(replica % 3);
        match decode(kind, a, b) {
            Op::Push { ts, tq, tb } => repo.record_perf(id, &perf(ts, tq, tb), now),
            Op::Reply { t1, rtt } => {
                let tm = SimTime::from_micros(now_us.saturating_sub(rtt));
                repo.record_reply(id, t1, tm, now);
            }
            Op::Timeout => {
                repo.record_timeout(
                    id,
                    now,
                    1,
                    SimDuration::from_secs(5),
                    SimDuration::from_secs(60),
                );
            }
            Op::Query { deadline_us } => {
                let d = SimDuration::from_micros(deadline_us);
                // Exact equality on purpose: the cached pipeline performs
                // the same floating-point operations in the same order.
                assert_eq!(
                    repo.immediate_cdf(id, d).to_bits(),
                    repo.immediate_cdf_uncached(id, d).to_bits(),
                    "immediate_cdf diverged at deadline {deadline_us}µs"
                );
                assert_eq!(
                    repo.deferred_cdf(id, d).to_bits(),
                    repo.deferred_cdf_uncached(id, d).to_bits(),
                    "deferred_cdf diverged at deadline {deadline_us}µs"
                );
            }
        }
    }
    // Sweep every replica at a spread of deadlines once more, now that the
    // caches are warm from the scripted queries.
    for i in 0..3 {
        for deadline_us in [0u64, 50_000, 200_000, 700_000, 2_000_000] {
            let d = SimDuration::from_micros(deadline_us);
            assert_eq!(
                repo.immediate_cdf(r(i), d).to_bits(),
                repo.immediate_cdf_uncached(r(i), d).to_bits()
            );
            assert_eq!(
                repo.deferred_cdf(r(i), d).to_bits(),
                repo.deferred_cdf_uncached(r(i), d).to_bits()
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn cached_cdf_bit_identical_to_uncached(
        ops in proptest::collection::vec(
            (0u8..8, 0usize..3, 0u64..1_000_000, 0u64..1_000_000),
            1..80,
        ),
        window in [4usize, 10, 20],
    ) {
        run_script(&ops, None, window);
    }

    #[test]
    fn cached_cdf_bit_identical_to_uncached_with_binning(
        ops in proptest::collection::vec(
            (0u8..8, 0usize..3, 0u64..1_000_000, 0u64..1_000_000),
            1..80,
        ),
        bin in [1u64, 500, 10_000],
    ) {
        run_script(&ops, Some(bin), 10);
    }
}

/// Satellite regression: the `S⊛W` base convolution — ~90% of the paper's
/// Figure 3 selection overhead — runs exactly once per window generation no
/// matter how many CDFs are evaluated against the unchanged window.
#[test]
fn one_base_convolution_per_window_generation() {
    let mut repo = repo_with(None, 20);
    let now = SimTime::from_secs(1);
    repo.record_perf(r(1), &perf(100_000, 10_000, 50_000), now);

    // Largest deadline first: it sets the horizon the layers are built to,
    // and every smaller deadline is answered from the same pmfs.
    for deadline_ms in (1..200u64).rev() {
        let d = SimDuration::from_millis(deadline_ms);
        repo.immediate_cdf(r(1), d);
        repo.deferred_cdf(r(1), d);
    }
    let stats = repo.cache_stats();
    assert_eq!(stats.base_rebuilds, 1, "one S⊛W per window generation");
    assert_eq!(stats.deferred_rebuilds, 1);
    // 199 immediate + 199 deferred queries; 2 were rebuild misses.
    assert_eq!(stats.lookups(), 398);
    assert_eq!(stats.hits, 396);

    // A new measurement starts a new generation: exactly one more base
    // convolution, however many queries follow.
    repo.record_perf(r(1), &perf(120_000, 5_000, 40_000), now);
    for deadline_ms in 1..100u64 {
        let d = SimDuration::from_millis(deadline_ms);
        repo.immediate_cdf(r(1), d);
        repo.deferred_cdf(r(1), d);
    }
    assert_eq!(repo.cache_stats().base_rebuilds, 2);
}

/// The deferred path must reuse the cached base: evaluating
/// `deferred_cdf` first (cold) still performs a single `S⊛W` — one miss,
/// though it built two layers — and a subsequent `immediate_cdf` finds the
/// base already cached.
#[test]
fn deferred_path_shares_base_with_immediate() {
    let mut repo = repo_with(None, 20);
    let now = SimTime::from_secs(1);
    for i in 0..10u64 {
        repo.record_perf(r(1), &perf(90_000 + i * 1_000, 5_000, 30_000), now);
    }
    repo.deferred_cdf(r(1), SimDuration::from_millis(500));
    let stats = repo.cache_stats();
    assert_eq!(stats.base_rebuilds, 1);
    assert_eq!(stats.deferred_rebuilds, 1);
    assert_eq!((stats.lookups(), stats.misses), (1, 1));
    // The immediate path reads the base the deferred pmf was built from.
    repo.immediate_cdf(r(1), SimDuration::from_millis(500));
    let stats = repo.cache_stats();
    assert_eq!(stats.base_rebuilds, 1, "no second convolution");
    assert_eq!(stats.hits, 1);
    assert_eq!(stats.lookups(), 2);
}

/// A new gateway delay (recorded by `record_reply`) must move both
/// distributions — the point mass moved — without re-running the `S⊛W`
/// convolution, and the refreshed values must match the reference.
#[test]
fn gateway_shift_invalidates_derived_layers_only() {
    let mut repo = repo_with(None, 20);
    let now = SimTime::from_secs(1);
    repo.record_perf(r(1), &perf(100_000, 0, 20_000), now);

    // The largest deadline of this test, asked first, fixes the horizon:
    // from here on only window and gateway changes can rebuild a layer.
    repo.immediate_cdf(r(1), SimDuration::from_millis(125));
    assert_eq!(repo.cache_stats().base_rebuilds, 1);

    // G = 0 initially: all mass at 100ms.
    assert_eq!(repo.immediate_cdf(r(1), SimDuration::from_millis(100)), 1.0);
    assert_eq!(repo.cache_stats().hits, 1, "served from the primed layers");

    // A reply with a 5ms gateway delay shifts the distribution to 105ms.
    let tm = SimTime::from_millis(2_000);
    let tp = SimTime::from_millis(2_030);
    repo.record_reply(r(1), 25_000, tm, tp);
    assert_eq!(repo.immediate_cdf(r(1), SimDuration::from_millis(104)), 0.0);
    assert_eq!(repo.immediate_cdf(r(1), SimDuration::from_millis(105)), 1.0);
    assert_eq!(
        repo.immediate_cdf(r(1), SimDuration::from_millis(105)),
        repo.immediate_cdf_uncached(r(1), SimDuration::from_millis(105))
    );
    let stats = repo.cache_stats();
    assert_eq!(stats.base_rebuilds, 1, "shift must not re-convolve");
    assert_eq!(stats.lookups(), 5);

    // Deferred layer saw the same invalidation.
    assert_eq!(
        repo.deferred_cdf(r(1), SimDuration::from_millis(125))
            .to_bits(),
        repo.deferred_cdf_uncached(r(1), SimDuration::from_millis(125))
            .to_bits()
    );
    let stats = repo.cache_stats();
    assert_eq!(stats.base_rebuilds, 1);
    assert_eq!((stats.lookups(), stats.deferred_rebuilds), (6, 1));
}

/// Both cached evaluators against the from-scratch reference, bit for bit.
fn assert_cached_matches_uncached(repo: &InfoRepository, id: ActorId, d: SimDuration) {
    assert_eq!(
        repo.immediate_cdf(id, d).to_bits(),
        repo.immediate_cdf_uncached(id, d).to_bits(),
        "immediate_cdf diverged at {d:?}"
    );
    assert_eq!(
        repo.deferred_cdf(id, d).to_bits(),
        repo.deferred_cdf_uncached(id, d).to_bits(),
        "deferred_cdf diverged at {d:?}"
    );
}

/// Scripted traffic at one deadline — what every client of the simulated
/// workloads sends: fresh measurements, an occasional reply moving the
/// gateway delay, and a selection round over three replicas.
fn fixed_deadline_traffic(repo: &mut InfoRepository, d: SimDuration) {
    for k in 0..60u64 {
        let now = SimTime::from_millis(1_000 + 10 * k);
        let id = r((k % 3) as usize);
        let tb = if k % 4 == 0 { 30_000 + 900 * k } else { 0 };
        repo.record_perf(id, &perf(80_000 + 700 * k, 400 * (k % 7), tb), now);
        if k % 5 == 0 {
            repo.record_reply(id, 20_000, now - SimDuration::from_millis(25 + k % 3), now);
        }
        for i in 0..3 {
            repo.immediate_cdf(r(i), d);
            repo.deferred_cdf(r(i), d);
        }
    }
}

/// With one deadline the horizon is set by the first query and never moves,
/// so bounding the convolutions changes what a rebuild costs and nothing
/// about when one happens: the counters are the ones the unbounded cache
/// produced for this script.
#[test]
fn fixed_deadline_traffic_keeps_the_unbounded_counters() {
    let mut repo = repo_with(None, 20);
    fixed_deadline_traffic(&mut repo, SimDuration::from_millis(140));
    let stats = repo.cache_stats();
    assert_eq!(
        (stats.hits, stats.base_rebuilds, stats.deferred_rebuilds),
        (228, 60, 57)
    );
}

/// Deadlines arriving in the worst order — each one beyond the last — grow
/// the horizon by doubling, so a 1..200 ms sweep rebuilds each layer at
/// most ⌈log₂ 199⌉ + 1 = 9 times on one window generation, not 199.
#[test]
fn ascending_deadlines_rebuild_logarithmically() {
    let mut repo = repo_with(None, 20);
    repo.record_perf(r(1), &perf(100_000, 10_000, 50_000), SimTime::from_secs(1));
    for deadline_ms in 1..200u64 {
        assert_cached_matches_uncached(&repo, r(1), SimDuration::from_millis(deadline_ms));
    }
    let stats = repo.cache_stats();
    assert!(stats.base_rebuilds <= 9, "{stats:?}");
    assert!(stats.deferred_rebuilds <= 9, "{stats:?}");
    assert_eq!(stats.lookups(), 398);
}

/// The horizon belongs to the replica, not to a window generation: after a
/// new measurement the layers rebuild once, at the old horizon, even when
/// the next query asks for less — asking for the old maximum again is a hit.
#[test]
fn horizon_survives_a_new_window_generation() {
    let mut repo = repo_with(None, 20);
    let now = SimTime::from_secs(1);
    repo.record_perf(r(1), &perf(100_000, 10_000, 50_000), now);
    let (small, large) = (SimDuration::from_millis(60), SimDuration::from_millis(200));
    repo.immediate_cdf(r(1), large);
    repo.deferred_cdf(r(1), large);

    repo.record_perf(r(1), &perf(120_000, 5_000, 40_000), now);
    repo.immediate_cdf(r(1), small);
    repo.deferred_cdf(r(1), small);
    let rebuilt = repo.cache_stats();
    assert_eq!((rebuilt.base_rebuilds, rebuilt.deferred_rebuilds), (2, 2));

    assert_cached_matches_uncached(&repo, r(1), large);
    let after = repo.cache_stats();
    assert_eq!(after.hits, rebuilt.hits + 2, "no shrink, so no regrowth");
    assert_eq!(after.base_rebuilds, 2);
}

/// With binning, a deadline inside a bin must not expose a bin that holds
/// only the part of its mass below the horizon: cached ≡ uncached at every
/// `x` up to the deadline, bin boundaries included.
#[test]
fn binned_cache_matches_uncached_below_an_unaligned_deadline() {
    let bin = 7_000u64;
    let deadline_us = 123_457u64;
    assert_ne!(deadline_us % bin, 0);
    let mut repo = repo_with(Some(bin), 20);
    let now = SimTime::from_secs(1);
    for k in 0..20u64 {
        let tb = if k % 2 == 0 { 1_000 + 3_100 * k } else { 0 };
        repo.record_perf(r(1), &perf(40_000 + 3_300 * k, 650 * (k % 9), tb), now);
    }
    repo.record_reply(r(1), 20_000, now - SimDuration::from_micros(21_234), now);
    // The first query fixes the horizon at the unaligned deadline.
    let d = SimDuration::from_micros(deadline_us);
    assert!(repo.immediate_cdf(r(1), d) > 0.0);
    assert!(repo.deferred_cdf(r(1), d) > 0.0);
    let boundaries = (0..=deadline_us / bin).map(|b| b * bin);
    for x_us in (0..=deadline_us)
        .step_by(997)
        .chain(boundaries)
        .chain([deadline_us])
    {
        assert_cached_matches_uncached(&repo, r(1), SimDuration::from_micros(x_us));
    }
    assert_eq!(
        repo.cache_stats().base_rebuilds,
        1,
        "one horizon throughout"
    );
}
