//! EXT-OVL: timely-goodput retention under offered-load multiplication
//! (the §7 admission-control discussion taken to its overload limit).
//!
//! A closed-loop population of clients (each issues its next request a
//! fixed delay after the previous one completes) is scaled from 1× to 8×
//! the baseline. Each multiplier runs twice: **unprotected** (`overload`
//! off, the seed's behaviour) and **protected** (`overload` on: bounded
//! admission queues with deadline-aware shedding, `Busy` replies as
//! quarantine strikes, and the graceful-degradation ladder).
//!
//! The headline metric is **timely goodput**: reads the timing-failure
//! detector scored as timely, per virtual second. Under saturation the
//! unprotected system queues every read behind ~`depth × E[S]` of work and
//! almost nothing meets the deadline; the protected system sheds what
//! cannot make its deadline early (explicit `Busy`, retried elsewhere),
//! widens the staleness bound to spread load, and keeps the admitted
//! residue timely.

use crate::table::{Output, Table};
use aqf_workload::runner::ScenarioMetrics;
use aqf_workload::{overload_config, run_scenario};

/// Client population at load multiplier 1.
const BASE_CLIENTS: usize = 2;

/// The observables of one arm of the grid.
struct ArmOutcome {
    goodput: f64,
    failure_p: f64,
    busy: u64,
    local_sheds: u64,
    shed_server: u64,
    exclusions: u64,
    transitions: u64,
    staleness_violations: u64,
    divergence: u64,
    completed: u64,
    issued: u64,
}

fn observe(m: &ScenarioMetrics) -> ArmOutcome {
    let timely: u64 = m.clients.iter().map(|c| c.timely_responses).sum();
    let failures: u64 = m.clients.iter().map(|c| c.timing_failures).sum();
    let scored = timely + failures;
    ArmOutcome {
        goodput: timely as f64 / m.virtual_secs,
        failure_p: if scored > 0 {
            failures as f64 / scored as f64
        } else {
            0.0
        },
        busy: m.clients.iter().map(|c| c.busy_rejections).sum(),
        local_sheds: m.clients.iter().map(|c| c.local_sheds).sum(),
        shed_server: m.servers.iter().map(|s| s.stats.shed_reads).sum(),
        exclusions: m.clients.iter().map(|c| c.quarantines).sum(),
        transitions: m
            .clients
            .iter()
            .map(|c| c.degrade_transitions.len() as u64)
            .sum(),
        staleness_violations: m
            .clients
            .iter()
            .map(|c| c.record.staleness_violations)
            .sum(),
        divergence: m.max_applied_divergence(),
        completed: m.clients.iter().map(|c| c.record.completed).sum(),
        issued: m.clients.iter().map(|c| c.reads + c.updates).sum(),
    }
}

/// Runs the EXT-OVL grid and prints the comparison.
pub fn run(seed: u64, out: &Output) {
    let mut table = Table::new(
        "EXT-OVL: timely goodput under offered-load multiplication \
         (d = 200 ms, Pc = 0.9, think 250 ms)",
        &[
            "load",
            "protection",
            "clients",
            "timely/s",
            "P(timing failure)",
            "busy",
            "local sheds",
            "server sheds",
            "exclusions",
            "ladder moves",
            "stale viol",
            "divergence",
            "done",
        ],
    );
    for mult in [1usize, 2, 4, 8] {
        for (label, overload) in [("off", false), ("on", true)] {
            // Recovery is the same in both arms and hedging is off, so
            // only the overload machinery varies.
            let mut config = overload_config(BASE_CLIENTS * mult, 200, seed);
            config.overload = overload;
            let m = run_scenario(&config);
            let o = observe(&m);
            table.row(vec![
                format!("{mult}x"),
                label.to_string(),
                config.clients.len().to_string(),
                format!("{:.2}", o.goodput),
                format!("{:.3}", o.failure_p),
                o.busy.to_string(),
                o.local_sheds.to_string(),
                o.shed_server.to_string(),
                o.exclusions.to_string(),
                o.transitions.to_string(),
                o.staleness_violations.to_string(),
                o.divergence.to_string(),
                format!("{}/{}", o.completed, o.issued),
            ]);
        }
    }
    out.emit(&table, "ext_overload");
    println!(
        "expected shape: at 1x the two arms are close (protection barely\n\
         engages). From 4x on the unprotected system queues every read\n\
         behind seconds of backlog and its timely goodput collapses, while\n\
         the protected system sheds early, walks the degradation ladder, and\n\
         retains several times the timely goodput — with zero staleness\n\
         violations against the effective specification and convergent\n\
         replicas in both arms."
    );
}
