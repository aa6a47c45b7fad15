//! Figure 3 companion: CPU overhead of the probabilistic selection, split
//! into the response-time-distribution computation (the paper's ~90%) and
//! Algorithm 1 itself (~10%), versus the number of available replicas and
//! the sliding-window size.

use aqf_bench::{
    build_candidates, build_candidates_uncached, candidate_keys, synthetic_repository,
};
use aqf_core::{select_on_demand, select_replicas, CandidateOrder};
use aqf_sim::{ActorId, SimDuration, SimTime};
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};

fn bench_selection(c: &mut Criterion) {
    let deadline = SimDuration::from_millis(150);
    let now = SimTime::from_secs(100);
    let sequencer = ActorId::from_index(0);

    let mut group = c.benchmark_group("selection_overhead");
    for window in [10usize, 20] {
        for replicas in [2usize, 6, 10] {
            let repo = synthetic_repository(replicas, window, replicas as u64);
            let n_primaries = replicas.div_ceil(3);
            group.bench_with_input(
                BenchmarkId::new(format!("model_w{window}"), replicas),
                &replicas,
                |b, &n| {
                    b.iter(|| {
                        std::hint::black_box(build_candidates(&repo, n, n_primaries, deadline, now))
                    })
                },
            );
            let candidates = build_candidates(&repo, replicas, n_primaries, deadline, now);
            let sf = repo.staleness_factor(2, now);
            group.bench_with_input(
                BenchmarkId::new(format!("algorithm1_w{window}"), replicas),
                &replicas,
                |b, _| {
                    b.iter(|| {
                        std::hint::black_box(select_replicas(&candidates, sf, 0.9, Some(sequencer)))
                    })
                },
            );
            group.bench_with_input(
                BenchmarkId::new(format!("total_w{window}"), replicas),
                &replicas,
                |b, &n| {
                    b.iter(|| {
                        let cands = build_candidates(&repo, n, n_primaries, deadline, now);
                        std::hint::black_box(select_replicas(&cands, sf, 0.9, Some(sequencer)))
                    })
                },
            );
        }
    }
    group.finish();

    // Before/after study of the memoized CDF engine at the acceptance
    // point (window 20, 16 replicas): `uncached` re-runs every `S⊛W`
    // convolution per selection (the seed's behaviour), `cached_repeat`
    // issues repeated selections against unchanged windows, which is the
    // steady-state hot path between measurement arrivals.
    let mut group = c.benchmark_group("selection_cached_vs_uncached");
    let (window, replicas) = (20usize, 16usize);
    let repo = synthetic_repository(replicas, window, replicas as u64);
    let n_primaries = replicas.div_ceil(3);
    let sf = repo.staleness_factor(2, now);
    group.bench_with_input(
        BenchmarkId::new(format!("uncached_w{window}"), replicas),
        &replicas,
        |b, &n| {
            b.iter(|| {
                let cands = build_candidates_uncached(&repo, n, n_primaries, deadline, now);
                std::hint::black_box(select_replicas(&cands, sf, 0.9, Some(sequencer)))
            })
        },
    );
    // Warm the cache once so every timed iteration is a repeat selection.
    std::hint::black_box(build_candidates(
        &repo,
        replicas,
        n_primaries,
        deadline,
        now,
    ));
    group.bench_with_input(
        BenchmarkId::new(format!("cached_repeat_w{window}"), replicas),
        &replicas,
        |b, &n| {
            b.iter(|| {
                let cands = build_candidates(&repo, n, n_primaries, deadline, now);
                std::hint::black_box(select_replicas(&cands, sf, 0.9, Some(sequencer)))
            })
        },
    );
    group.finish();

    // Same-binary A/B of a cold selection (the first one after every window
    // changed): evaluating all available replicas before Algorithm 1 runs,
    // against letting the scan pull `F^I`/`F^D` for the replicas it visits.
    // Both arms pay the same repository clone for their empty cache.
    let mut group = c.benchmark_group("selection_cold_all_vs_demand");
    let window = 20usize;
    for replicas in [10usize, 57] {
        let repo = synthetic_repository(replicas, window, replicas as u64);
        let n_primaries = replicas.div_ceil(3);
        let sf = repo.staleness_factor(2, now);
        let keys = candidate_keys(&repo, replicas, n_primaries, now);
        group.bench_with_input(
            BenchmarkId::new(format!("evaluate_all_w{window}"), replicas),
            &replicas,
            |b, &n| {
                b.iter(|| {
                    let cold = repo.clone();
                    let cands = build_candidates(&cold, n, n_primaries, deadline, now);
                    std::hint::black_box(select_replicas(&cands, sf, 0.9, Some(sequencer)))
                })
            },
        );
        group.bench_with_input(
            BenchmarkId::new(format!("on_demand_w{window}"), replicas),
            &replicas,
            |b, _| {
                b.iter(|| {
                    let cold = repo.clone();
                    std::hint::black_box(select_on_demand(
                        &mut cold.on_demand(&keys, deadline),
                        sf,
                        0.9,
                        Some(sequencer),
                        CandidateOrder::LeastRecentlyUsed,
                    ))
                })
            },
        );
    }
    group.finish();
}

criterion_group!(benches, bench_selection);
criterion_main!(benches);
