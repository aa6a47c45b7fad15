//! Properties of the client's response-time model: `immediate_cdf` and
//! `deferred_cdf`, which count over the sorted windows, must agree with the
//! paper's convolution (`*_uncached`) to rounding under arbitrary
//! interleavings of measurements, replies, quarantines and queries — at
//! deadlines below the gateway delay, on support points and at `u64::MAX`.

use aqf_core::monitor::{InfoRepository, WINDOW_SIZE};
use aqf_core::wire::{PerfBroadcast, ReadMeasurement};
use aqf_sim::{ActorId, SimDuration, SimTime};
use proptest::prelude::*;
use std::collections::VecDeque;

/// How far the count may sit from the convolution: the convolution sums up
/// to `l³` rounded products, the count divides once.
const TOLERANCE: f64 = 1e-12;

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

/// Both evaluators against the convolution at `d`.
fn assert_agrees(repo: &InfoRepository, id: ActorId, d_us: u64) {
    let d = SimDuration::from_micros(d_us);
    for (path, counted, convolved) in [
        (
            "immediate",
            repo.immediate_cdf(id, d),
            repo.immediate_cdf_uncached(id, d),
        ),
        (
            "deferred",
            repo.deferred_cdf(id, d),
            repo.deferred_cdf_uncached(id, d),
        ),
    ] {
        assert!(
            (counted - convolved).abs() < TOLERANCE,
            "{path} at {d_us}µs: counted {counted}, convolved {convolved}"
        );
    }
}

/// What the test knows of one replica's history: the windows as pushed and
/// the gateway delay, so deadlines can be aimed at the support.
#[derive(Default)]
struct Shadow {
    s: VecDeque<u64>,
    w: VecDeque<u64>,
    u: VecDeque<u64>,
    gateway: u64,
}

fn push(window: &mut VecDeque<u64>, cap: usize, v: u64) {
    if window.len() == cap {
        window.pop_front();
    }
    window.push_back(v);
}

impl Shadow {
    /// A deadline picked by `kind` from a draw `a`: anywhere, just below
    /// the gateway delay, on an immediate or deferred support point, or
    /// `u64::MAX`.
    fn deadline(&self, kind: u64, a: u64) -> u64 {
        let pick = |w: &VecDeque<u64>, k: u64| match w.len() {
            0 => 0,
            n => w[(k % n as u64) as usize],
        };
        let immediate = pick(&self.s, a) + pick(&self.w, a / 7) + self.gateway;
        match kind % 5 {
            0 => a % 1_500_000,
            1 => self.gateway.saturating_sub(1 + a % 3),
            2 => immediate,
            3 => immediate + pick(&self.u, a / 49),
            _ => u64::MAX,
        }
    }
}

/// Applies `ops` to a repository, checking both evaluators after every
/// query and once more over every replica at the end.
fn run_script(ops: &[(u8, usize, u64, u64)], window: usize) {
    let repo = &mut InfoRepository::new(window);
    let mut shadows: [Shadow; 3] = Default::default();
    let mut now_us = 1_000u64;
    for &(kind, replica, a, b) in ops {
        now_us += 1_000;
        let now = SimTime::from_micros(now_us);
        let (id, shadow) = (r(replica % 3), &mut shadows[replica % 3]);
        match kind % 4 {
            0 => {
                let (ts, tq) = (a % 400_000 + 1, b % 150_000);
                // Roughly half the pushes contribute deferred-wait history.
                let tb = if a.is_multiple_of(2) { b % 250_000 } else { 0 };
                repo.record_perf(id, &perf(ts, tq, tb), now);
                push(&mut shadow.s, window, ts);
                push(&mut shadow.w, window, tq);
                if tb > 0 {
                    push(&mut shadow.u, window, tb);
                }
            }
            1 => {
                let (t1, rtt) = (a % 80_000, b % 120_000);
                let tm = now_us.saturating_sub(rtt);
                repo.record_reply(id, t1, SimTime::from_micros(tm), now);
                shadow.gateway = (now_us - tm).saturating_sub(t1);
            }
            2 => {
                // Strikes (and the quarantines they open) the model ignores.
                repo.record_strike(id, now);
            }
            _ => assert_agrees(repo, id, shadow.deadline(b, a)),
        }
    }
    for (i, shadow) in shadows.iter().enumerate() {
        for kind in 0..5 {
            assert_agrees(repo, r(i), shadow.deadline(kind, 123_457 * kind));
        }
        for d_us in [0u64, 50_000, 200_000, 700_000, 2_000_000] {
            assert_agrees(repo, r(i), d_us);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn count_cdf_agrees_with_convolution(
        ops in proptest::collection::vec(
            (0u8..8, 0usize..3, 0u64..1_000_000, 0u64..1_000_000),
            1..120,
        ),
        window in 1usize..=20,
    ) {
        run_script(&ops, window);
    }

}

/// Every evaluation with history counts once, whatever the path; one
/// without the history it needs returns 0 and does not count.
#[test]
fn evaluations_count_queries_with_history() {
    let mut repo = InfoRepository::new(WINDOW_SIZE);
    let d = SimDuration::from_millis(150);
    assert_eq!(repo.immediate_cdf(r(1), d), 0.0);
    repo.record_perf(r(1), &perf(100_000, 10_000, 0), SimTime::from_secs(1));
    assert_eq!(repo.deferred_cdf(r(1), d), 0.0, "no U history yet");
    assert_eq!(repo.cdf_evaluations(), 0);
    assert_eq!(repo.immediate_cdf(r(1), d), 1.0);
    repo.record_perf(r(1), &perf(100_000, 10_000, 60_000), SimTime::from_secs(1));
    assert_eq!(repo.deferred_cdf(r(1), d), 0.0, "110 + 60 ms > 150 ms");
    assert_eq!(repo.cdf_evaluations(), 2);
}
