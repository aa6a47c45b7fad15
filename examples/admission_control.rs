//! Admission control (the paper's §7 extension): decide whether a newly
//! arriving client's QoS specification is attainable with the current
//! replica pool, using a repository warmed by real traffic.
//!
//! ```sh
//! cargo run --release --example admission_control
//! ```

use aqf::core::admission;
use aqf::core::{Candidate, QosSpec};
use aqf::sim::{ActorId, SimDuration, SimTime};
use aqf::workload::{run_scenario, ScenarioConfig};

fn main() {
    // Warm the repository with a shortened validation run.
    let mut config = ScenarioConfig::paper_validation(160, 0.9, 2, 5);
    for c in &mut config.clients {
        c.total_requests = 300;
    }
    let metrics = run_scenario(&config);
    let repo = &metrics.client(1).repository;
    let now = SimTime::from_secs(1_000_000);
    let (np, ns) = (config.num_primaries, config.num_secondaries);

    println!("admission decisions for arriving clients (staleness threshold 2):\n");
    println!(
        "{:>12}  {:>6}  {:>10}  decision",
        "deadline", "Pc", "achievable"
    );
    for deadline_ms in [60u64, 90, 120, 160, 200, 300] {
        let deadline = SimDuration::from_millis(deadline_ms);
        let candidates: Vec<Candidate> = (1..=np + ns)
            .map(|i| repo.candidate(ActorId::from_index(i), i <= np, deadline, now))
            .collect();
        let sf = repo.staleness_factor(2, now);
        for pc in [0.5, 0.9, 0.99] {
            let qos = QosSpec::new(2, deadline, pc).expect("valid");
            let d = admission::decide(&candidates, sf, &qos);
            println!(
                "{:>10}ms  {:>6}  {:>10.4}  {}",
                deadline_ms,
                pc,
                d.achievable,
                if d.admit { "admit" } else { "REJECT" }
            );
        }
    }
    println!(
        "\nthe check applies the same single-failure-tolerant bound as\n\
         Algorithm 1: a spec is admitted only if the pool can meet it even\n\
         after losing its best replica."
    );
}
