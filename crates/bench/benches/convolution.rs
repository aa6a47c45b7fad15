//! Cost of the discrete convolutions of the paper's response-time model
//! (§5.2): `S (*) W` for immediate reads, `S (*) W (*) U` for deferred
//! reads, across sliding-window sizes — and of the counts over sorted
//! windows that give the client the same CDF values without convolving.

use aqf_sim::DelayModel;
use aqf_stats::{count_pairs_le, Pmf};
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use rand::rngs::SmallRng;
use rand::SeedableRng;

/// A window's samples, sorted.
fn window_samples(model: &DelayModel, window: usize, seed: u64) -> Vec<u64> {
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut samples: Vec<u64> = (0..window)
        .map(|_| model.sample(&mut rng).as_micros())
        .collect();
    samples.sort_unstable();
    samples
}

fn window_pmf(model: &DelayModel, window: usize, seed: u64) -> Pmf {
    Pmf::from_samples(window_samples(model, window, seed).into_iter())
}

/// The pre-merge convolution: materialize every pairwise term, stable-sort
/// by sum, accumulate adjacent runs. Kept here (not in `aqf-stats`) purely
/// as the same-binary A/B baseline for the k-way merge that replaced it —
/// cross-run wall-clock comparisons on shared hardware are noise-dominated,
/// so the before/after is measured inside one process.
fn convolve_materialized(a: &Pmf, b: &Pmf) -> Vec<(u64, f64)> {
    let mut pairs: Vec<(u64, f64)> = Vec::with_capacity(a.support_len() * b.support_len());
    for (v1, p1) in a.iter() {
        for (v2, p2) in b.iter() {
            pairs.push((v1.saturating_add(v2), p1 * p2));
        }
    }
    pairs.sort_by_key(|&(v, _)| v);
    let mut points: Vec<(u64, f64)> = Vec::new();
    for (v, p) in pairs {
        match points.last_mut() {
            Some(last) if last.0 == v => last.1 += p,
            _ => points.push((v, p)),
        }
    }
    points
}

fn bench_convolution(c: &mut Criterion) {
    let service = DelayModel::normal_ms(100.0, 50.0);
    let queue = DelayModel::Exponential {
        mean_us: 10_000.0,
        min: aqf_sim::SimDuration::ZERO,
    };
    let deferred = DelayModel::Uniform {
        lo: aqf_sim::SimDuration::ZERO,
        hi: aqf_sim::SimDuration::from_secs(4),
    };

    let mut group = c.benchmark_group("convolution");
    for window in [10usize, 20, 40] {
        let s = window_pmf(&service, window, 1);
        let w = window_pmf(&queue, window, 2);
        let u = window_pmf(&deferred, window, 3);
        group.bench_with_input(
            BenchmarkId::new("immediate_s_w_g", window),
            &window,
            |b, _| {
                b.iter(|| {
                    let pmf = s.convolve(&w).shift(1_000);
                    std::hint::black_box(pmf.cdf(150_000))
                })
            },
        );
        group.bench_with_input(
            BenchmarkId::new("deferred_s_w_g_u", window),
            &window,
            |b, _| {
                b.iter(|| {
                    let pmf = s.convolve(&w).shift(1_000).convolve(&u);
                    std::hint::black_box(pmf.cdf(150_000))
                })
            },
        );
        group.bench_with_input(
            BenchmarkId::new("binned_deferred_1ms", window),
            &window,
            |b, _| {
                b.iter(|| {
                    let pmf = s.convolve(&w).binned(1_000).shift(1_000).convolve(&u);
                    std::hint::black_box(pmf.cdf(150_000))
                })
            },
        );
    }
    group.finish();

    // Same-binary before/after of the convolution engine itself: the old
    // materialize-all-pairs sort versus the shipping k-way merge, at the
    // window sizes above and at the wide-support shape (a second-stage
    // convolution, where the left side is already a product of two windows:
    // ~400 x 20 at window 20) where the l^2 pair table was largest.
    let mut ab = c.benchmark_group("convolve_kway_vs_sort");
    for window in [10usize, 20, 40] {
        let s = window_pmf(&service, window, 1);
        let w = window_pmf(&queue, window, 2);
        let u = window_pmf(&deferred, window, 3);
        let sw = s.convolve(&w).shift(1_000); // wide left side: ~window^2 points
        ab.bench_with_input(BenchmarkId::new("sort_s_w", window), &window, |b, _| {
            b.iter(|| std::hint::black_box(convolve_materialized(&s, &w)))
        });
        ab.bench_with_input(BenchmarkId::new("kway_s_w", window), &window, |b, _| {
            b.iter(|| std::hint::black_box(s.convolve(&w)))
        });
        ab.bench_with_input(BenchmarkId::new("sort_sw_u", window), &window, |b, _| {
            b.iter(|| std::hint::black_box(convolve_materialized(&sw, &u)))
        });
        ab.bench_with_input(BenchmarkId::new("kway_sw_u", window), &window, |b, _| {
            b.iter(|| std::hint::black_box(sw.convolve(&u)))
        });
        // The deferred CDF at one deadline, counted over the sorted
        // windows: what the client's response-time model runs in place of
        // the two merges above.
        let (s, w, u) = (
            window_samples(&service, window, 1),
            window_samples(&queue, window, 2),
            window_samples(&deferred, window, 3),
        );
        ab.bench_with_input(BenchmarkId::new("count_s_w_u", window), &window, |b, _| {
            b.iter(|| {
                let x = 150_000u64 - 1_000;
                let triples: u64 = u
                    .iter()
                    .map_while(|&u| x.checked_sub(u))
                    .map(|x| count_pairs_le(&s, &w, x))
                    .sum();
                std::hint::black_box(triples)
            })
        });
    }
    ab.finish();
}

criterion_group!(benches, bench_convolution);
criterion_main!(benches);
