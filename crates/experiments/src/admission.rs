//! EXT-ADM: the admission-control extension (paper §7).
//!
//! Warms a client repository with a real validation run, then asks the
//! admission check which QoS specifications would be attainable for a
//! newly arriving client, across a grid of deadlines and requested
//! probabilities.

use crate::table::{Output, Table};
use aqf_core::admission;
use aqf_core::{Candidate, QosSpec};
use aqf_sim::{ActorId, SimDuration, SimTime};
use aqf_workload::{run_scenario, ScenarioConfig};

/// Runs the admission study and prints the admit/reject grid.
pub fn run(seed: u64, out: &Output) {
    // Warm-up: a shortened validation run builds a realistic repository.
    let mut config = ScenarioConfig::paper_validation(160, 0.9, 2, seed);
    for c in &mut config.clients {
        c.total_requests = 400;
    }
    let metrics = run_scenario(&config);
    let repo = &metrics.client(1).repository;
    let now = SimTime::from_secs(1_000_000); // ert beyond the run horizon

    let np = config.num_primaries;
    let ns = config.num_secondaries;
    let candidates_at = |deadline: SimDuration| -> Vec<Candidate> {
        (1..=np + ns)
            .map(|i| repo.candidate(ActorId::from_index(i), i <= np, deadline, now))
            .collect()
    };

    let deadlines = [60u64, 100, 140, 180, 220];
    let pcs = [0.5, 0.9, 0.99, 0.999];

    let mut table = Table::new(
        "EXT-ADM: admission decisions for a new client (warmed repository)",
        &["deadline(ms)", "Pc", "achievable", "admit"],
    );
    for &d in &deadlines {
        let deadline = SimDuration::from_millis(d);
        let cands = candidates_at(deadline);
        let sf = repo.staleness_factor(2, now);
        for &pc in &pcs {
            let qos = QosSpec::new(2, deadline, pc).expect("valid qos");
            let decision = admission::decide(&cands, sf, &qos);
            table.row(vec![
                d.to_string(),
                format!("{pc}"),
                format!("{:.4}", decision.achievable),
                if decision.admit { "yes" } else { "NO" }.to_string(),
            ]);
        }
    }
    out.emit(&table, "ext_admission");
    println!(
        "expected shape: short deadlines and high requested probabilities are\n\
         rejected, and the achievable bound grows with the deadline."
    );
}
