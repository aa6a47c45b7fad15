//! The paper's §2 motivating application: "a document-sharing application
//! in which multiple readers and writers concurrently access a document
//! that is updated in sequential mode. ... a client of such an application
//! can specify that he wishes to obtain a copy of the document that is not
//! more than 5 versions old within 2.0 seconds with a probability of at
//! least 0.7."
//!
//! ```sh
//! cargo run --release --example document_sharing
//! ```

use aqf::core::{QosSpec, SelectionPolicy};
use aqf::sim::SimDuration;
use aqf::workload::{run_scenario, ClientSpec, ObjectKind, OpPattern, ScenarioConfig};

fn main() {
    let mut config = ScenarioConfig::paper_validation(200, 0.7, 4, 11);
    config.object = ObjectKind::Document;
    config.num_primaries = 3;
    config.num_secondaries = 5;

    config.clients = vec![
        // An editor: writes lines, never reads.
        ClientSpec {
            qos: QosSpec::new(0, SimDuration::from_secs(2), 0.1).expect("valid"),
            request_delay: SimDuration::from_millis(400),
            total_requests: 600,
            pattern: OpPattern::WriteOnly,
            policy: SelectionPolicy::Probabilistic,
            start_offset: SimDuration::ZERO,
        },
        // The paper's example reader: <= 5 versions old, 2.0 s, prob 0.7.
        ClientSpec {
            qos: QosSpec::document_sharing_example(),
            request_delay: SimDuration::from_millis(700),
            total_requests: 400,
            pattern: OpPattern::ReadOnly,
            policy: SelectionPolicy::Probabilistic,
            start_offset: SimDuration::from_millis(200),
        },
        // An impatient reviewer: fresh copies (<= 1 version), 150 ms, 0.99.
        ClientSpec {
            qos: QosSpec::new(1, SimDuration::from_millis(150), 0.99).expect("valid"),
            request_delay: SimDuration::from_millis(900),
            total_requests: 300,
            pattern: OpPattern::ReadOnly,
            policy: SelectionPolicy::Probabilistic,
            start_offset: SimDuration::from_millis(350),
        },
    ];

    let metrics = run_scenario(&config);
    println!("document-sharing service: 1 sequencer + 3 primaries + 5 secondaries\n");
    let names = [
        "editor (write-only)",
        "casual reader (<=5 vers, 2 s, 0.7)",
        "reviewer (<=1 vers, 150 ms, 0.99)",
    ];
    for (i, name) in names.iter().enumerate() {
        let c = metrics.client(i);
        println!("{name}:");
        println!("  requests: {} reads / {} updates", c.reads, c.updates);
        if c.reads > 0 {
            println!(
                "  failure probability: {}",
                c.failure_ci
                    .map(|ci| ci.to_string())
                    .unwrap_or_else(|| "n/a".into())
            );
            println!(
                "  avg replicas selected: {:.2} | deferred replies: {} | mean staleness seen: {:.2} versions",
                c.avg_replicas_selected,
                c.deferred_replies,
                c.record.response_staleness.mean().unwrap_or(0.0),
            );
            if c.record.alerts > 0 {
                println!(
                    "  QoS callback fired: the observed timely frequency dropped below the\n  requested probability (the paper's §5.4 notification) — this spec\n  wants admission control or more primaries"
                );
            }
        }
        println!();
    }
    println!(
        "note the trade-off: the relaxed reader is served by lazily updated\n\
         secondaries (higher staleness, tiny selected sets), while the\n\
         reviewer's tight staleness bound pushes it onto the primaries."
    );
}
