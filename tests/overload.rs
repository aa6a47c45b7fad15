//! Overload-protection integration tests: the protective knobs under
//! saturation must not cost safety (sequential consistency, convergence,
//! GSN uniqueness), must coexist with crash faults and view changes, and
//! must stay bit-deterministic under a fixed seed.

use aqf::sim::SimTime;
use aqf::workload::{
    overload_config, run_scenario, FaultEvent, FaultKind, FaultTarget, ScenarioMetrics,
};

/// Overload and a crashing primary group must compose: the view change
/// completes under saturation, no committed update is lost or
/// double-assigned, live replicas converge, and the consistency contract
/// holds for every non-degraded read.
#[test]
fn overload_survives_primary_and_sequencer_crashes() {
    for (seed, target) in [
        (7u64, FaultTarget::Sequencer),
        (21, FaultTarget::Primary(0)),
    ] {
        let mut config = overload_config(8, 150, seed);
        config.faults = vec![FaultEvent {
            at: SimTime::from_secs(30),
            target,
            kind: FaultKind::Crash,
        }];
        let m = run_scenario(&config);

        // Liveness under saturation + crash: every request resolves
        // (timely, degraded, shed, or given up — never wedged).
        for c in &m.clients {
            assert_eq!(
                c.record.completed, 150,
                "seed {seed}: client {} wedged under overload + crash",
                c.id
            );
        }
        // The membership layer made progress despite the shedding: the
        // crash surfaced and a sequencer stands. A successor took over if
        // the sequencer was the one to crash, and only then.
        let recoveries: u64 = m.servers.iter().map(|s| s.stats.recoveries).sum();
        let takeovers = u64::from(target == FaultTarget::Sequencer);
        assert_eq!(recoveries, takeovers, "seed {seed}: takeovers");
        assert!(
            m.servers.iter().any(|s| s.alive && s.is_sequencer),
            "seed {seed}: no live sequencer after the crash"
        );
        // Safety: GSNs stay unique, committed updates survive the view
        // change (every live replica converges on the maximum CSN), and
        // shedding never reordered anything.
        assert!(
            m.servers.iter().all(|s| s.stats.gsn_conflicts == 0),
            "seed {seed}: GSN conflict under overload + crash"
        );
        let max_applied = m
            .servers
            .iter()
            .filter(|s| s.alive)
            .map(|s| s.applied_csn)
            .max()
            .unwrap();
        for s in m.servers.iter().filter(|s| s.alive) {
            assert_eq!(
                s.applied_csn, max_applied,
                "seed {seed}: replica {} dropped committed updates",
                s.id
            );
        }
        for c in &m.clients {
            assert_eq!(
                c.record.staleness_violations, 0,
                "seed {seed}: staleness violation under overload + crash"
            );
        }
        // The protection actually engaged — this was a real overload run,
        // not a trivially idle one.
        let busy: u64 = m.clients.iter().map(|c| c.busy_rejections).sum();
        assert!(busy > 0, "seed {seed}: no shedding under 4x load");
    }
}

/// EXT-OVL's shape (the grid of `aqf-experiments overload`, 200 requests
/// per client) at 4x and 8x, protected and unprotected, over four seeds:
/// every request resolves, nothing is stale, reordered or divergent, the
/// unprotected arm never refuses a read, and at 4x protection engages
/// (refusals and quarantines) and keeps at least twice the unprotected
/// timely goodput.
///
/// Protected timely reads per virtual second, seeds 1/7/21/42, with a
/// client breaker per replica beside the quarantine: 4x 8.94/9.19/8.68/8.03,
/// 8x 8.30/8.65/8.25/8.50.
#[test]
fn protection_retains_timely_goodput_over_seeds() {
    for seed in [1u64, 7, 21, 42] {
        for mult in [4usize, 8] {
            let mut goodput = [0.0; 2];
            for (arm, overload) in [false, true].into_iter().enumerate() {
                let mut config = overload_config(2 * mult, 200, seed);
                config.overload = overload;
                let m = run_scenario(&config);
                let cell = format!("seed {seed}, {mult}x, arm {arm}");
                let completed: u64 = m.clients.iter().map(|c| c.record.completed).sum();
                assert_eq!(completed, 2 * mult as u64 * 200, "{cell}: unresolved");
                let stale: u64 = m
                    .clients
                    .iter()
                    .map(|c| c.record.staleness_violations)
                    .sum();
                assert_eq!(stale, 0, "{cell}: staleness violations");
                let conflicts: u64 = m.servers.iter().map(|s| s.stats.gsn_conflicts).sum();
                assert_eq!(conflicts, 0, "{cell}: GSN conflicts");
                assert_eq!(m.max_applied_divergence(), 0, "{cell}: divergence");
                let refused: u64 = m
                    .clients
                    .iter()
                    .map(|c| c.busy_rejections + c.local_sheds)
                    .sum();
                let quarantines: u64 = m.clients.iter().map(|c| c.quarantines).sum();
                if !overload {
                    assert_eq!(refused, 0, "{cell}: the unprotected arm refused reads");
                } else if mult == 4 {
                    assert!(
                        refused > 0 && quarantines > 0,
                        "{cell}: protection never engaged \
                         ({refused} busy or shed, {quarantines} quarantines)"
                    );
                }
                let timely: u64 = m.clients.iter().map(|c| c.timely_responses).sum();
                goodput[arm] = timely as f64 / m.virtual_secs;
            }
            println!(
                "seed {seed} {mult}x: timely/s {:.2} unprotected, {:.2} protected",
                goodput[0], goodput[1]
            );
            if mult == 4 {
                assert!(
                    goodput[1] > 0.0 && goodput[1] >= 2.0 * goodput[0],
                    "seed {seed}: protected {:.2}/s vs unprotected {:.2}/s",
                    goodput[1],
                    goodput[0]
                );
            }
        }
    }
}

/// Same seed, same config: the shed/busy/degrade sequences — and every
/// other observable — must replay bit-identically. The overload machinery
/// draws all its timing from the virtual clock and the seeded RNG, so a
/// single divergent branch would show up here.
#[test]
fn overload_decisions_are_deterministic() {
    let run = || -> ScenarioMetrics { run_scenario(&overload_config(6, 120, 99)) };
    let a = run();
    let b = run();

    // The degradation ladders walked identical transition sequences...
    for (ca, cb) in a.clients.iter().zip(&b.clients) {
        assert_eq!(
            ca.degrade_transitions, cb.degrade_transitions,
            "client {} ladder diverged across identical runs",
            ca.id
        );
        assert_eq!(ca.busy_rejections, cb.busy_rejections);
        assert_eq!(ca.local_sheds, cb.local_sheds);
        assert_eq!(ca.quarantines, cb.quarantines);
    }
    // ...and so did the server-side shed counters.
    for (sa, sb) in a.servers.iter().zip(&b.servers) {
        assert_eq!(sa.stats.shed_reads, sb.stats.shed_reads);
    }
    // Belt and braces: the complete metric trees are identical.
    assert_eq!(
        format!("{a:#?}"),
        format!("{b:#?}"),
        "overloaded runs with one seed must be bit-identical"
    );
    // And the run exercised the machinery it claims to pin down.
    let busy: u64 = a.clients.iter().map(|c| c.busy_rejections).sum();
    let moves: u64 = a
        .clients
        .iter()
        .map(|c| c.degrade_transitions.len() as u64)
        .sum();
    assert!(busy > 0, "determinism run saw no shedding");
    assert!(moves > 0, "determinism run saw no ladder transitions");
}
