//! Golden pins for the read path: replica selection must not move unless
//! the selection model does. Each cell is read-heavy, so its
//! [`ScenarioMetrics::digest`] depends on every `F_Ri(d)` Algorithm 1
//! read — a CDF value off by one ulp that flips a single selection moves
//! event order, RNG draws and the digest with it.
//!
//! Re-baseline only for a deliberate change to the selection model, using
//! the ignored printer test at the bottom.

use aqf::core::OrderingGuarantee;
use aqf::workload::{run_scenario, ObjectKind, ScenarioConfig};

/// The paper's §6 validation cell at a tight deadline: the measured client
/// selects most of the pool, queues form, and the `W` windows stop being
/// degenerate.
fn sequential_cell() -> ScenarioConfig {
    ScenarioConfig::paper_validation(100, 0.9, 2, 2002)
}

/// Reads through the causal gateway; the generous staleness bound leaves
/// selection to the timeliness model.
fn causal_cell() -> ScenarioConfig {
    let mut c = ScenarioConfig::paper_validation(140, 0.9, 2, 2003);
    c.ordering = OrderingGuarantee::Causal;
    for spec in &mut c.clients {
        spec.qos.staleness_threshold = 10;
        spec.total_requests = 600;
    }
    c
}

/// Reads through the FIFO gateway over the banking object.
fn fifo_bank_cell() -> ScenarioConfig {
    let mut c = ScenarioConfig::paper_validation(180, 0.5, 4, 2004);
    c.ordering = OrderingGuarantee::Fifo;
    c.object = ObjectKind::Bank;
    for spec in &mut c.clients {
        spec.total_requests = 600;
    }
    c
}

fn cells() -> [(&'static str, ScenarioConfig, u64); 3] {
    [
        ("sequential", sequential_cell(), SEQUENTIAL_DIGEST),
        ("causal", causal_cell(), CAUSAL_DIGEST),
        ("fifo-bank", fifo_bank_cell(), FIFO_BANK_DIGEST),
    ]
}

#[test]
fn selection_digests_unchanged() {
    for (name, config, expected) in cells() {
        let metrics = run_scenario(&config);
        assert!(
            metrics.clients.iter().all(|c| c.reads > 0),
            "{name}: every client must read"
        );
        assert_eq!(
            metrics.digest(),
            expected,
            "{name} cell diverged from the recorded unbounded-cache run"
        );
    }
}

// --- Recorded digests (unbounded CDF cache, commit preceding the bounded
// --- engine; re-recorded once when group liveness became leader-rooted,
// --- once when stream tips and observer announces went on-change, and once
// --- when stream tips moved onto the leader's announce, and once when the
// --- response-time model became a count: an exact tie in `F^I` between a
// --- primary and a secondary no longer flips Algorithm 1's exclusion swap
// --- on the convolution's rounding; sequential and causal once more when
// --- the staleness estimator began choosing itself from the observed
// --- dispersion) ---

const SEQUENTIAL_DIGEST: u64 = 0xbe53_8966_3342_dc9d;
const CAUSAL_DIGEST: u64 = 0x29df_b320_e913_b161;
const FIFO_BANK_DIGEST: u64 = 0xfc21_4b8e_a734_46bd;

/// Re-baselining tool: prints the digests the constants above pin.
/// `cargo test --release -p aqf --test selection_golden -- --ignored --nocapture`
#[test]
#[ignore = "prints baseline digests for re-pinning after a deliberate selection-model change"]
fn print_golden_digests() {
    for (name, config, _) in cells() {
        let m = run_scenario(&config);
        println!("{name}: {:#018x} (events {})", m.digest(), m.events);
    }
}
