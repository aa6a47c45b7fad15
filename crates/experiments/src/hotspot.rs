//! EXT-HOT: the hot-spot ablation (paper §5.3's motivation for the
//! least-recently-used ordering).
//!
//! "Since the information repositories of the different clients may contain
//! almost identical performance histories for the replicas, this may cause
//! the clients to select the same or common replicas." Algorithm 1 sorts by
//! elapsed response time to spread load; the `GreedyCdf` ablation removes
//! that sort, so every client converges on the same "best" replicas.

use crate::table::{Output, Table};
use aqf_core::SelectionPolicy;
use aqf_workload::{run_scenario, ScenarioConfig};

/// Load-imbalance statistics over the measured client's replica choices.
#[derive(Debug, Clone, Copy)]
pub struct Imbalance {
    /// Selections of the most-picked replica divided by the mean.
    pub max_over_mean: f64,
    /// Fraction of all selections landing on the two most-picked replicas
    /// (the hot-spot signature: clients converging on the same "best"
    /// replicas).
    pub top2_share: f64,
    /// Observed timing-failure probability.
    pub failure_probability: f64,
}

fn imbalance(policy: SelectionPolicy, seed: u64) -> Imbalance {
    let mut config = ScenarioConfig::paper_validation(140, 0.5, 2, seed);
    for c in &mut config.clients {
        c.policy = policy;
    }
    let m = run_scenario(&config);
    // Pool selections across both clients; exclude the sequencer (always
    // included by protocol necessity, not by choice).
    let mut counts: aqf_sim::FastMap<_, u64> = aqf_sim::FastMap::default();
    for c in &m.clients {
        for (&replica, &n) in &c.selection_counts {
            if replica != aqf_sim::ActorId::from_index(0) {
                *counts.entry(replica).or_insert(0) += n;
            }
        }
    }
    let mut values: Vec<f64> = counts.values().map(|&v| v as f64).collect();
    values.sort_by(|a, b| b.total_cmp(a));
    let total: f64 = values.iter().sum();
    let mean = total / values.len().max(1) as f64;
    let max = values.first().copied().unwrap_or(0.0);
    let top2: f64 = values.iter().take(2).sum();
    Imbalance {
        max_over_mean: if mean > 0.0 { max / mean } else { 0.0 },
        top2_share: if total > 0.0 { top2 / total } else { 0.0 },
        failure_probability: m.client(1).failure_ci.map(|x| x.estimate).unwrap_or(0.0),
    }
}

/// Runs the ablation and prints the comparison.
pub fn run(seed: u64, out: &Output) {
    let mut table = Table::new(
        "EXT-HOT: load balance, Algorithm 1 vs greedy-by-CDF ablation",
        &[
            "policy",
            "max/mean selections",
            "top-2 share",
            "P(timing failure)",
        ],
    );
    for (name, policy) in [
        ("Algorithm 1 (ert sort)", SelectionPolicy::Probabilistic),
        ("GreedyCdf (no ert sort)", SelectionPolicy::GreedyCdf),
        ("RandomK(3)", SelectionPolicy::RandomK(3)),
        ("SingleRoundRobin", SelectionPolicy::SingleRoundRobin),
        ("AllReplicas", SelectionPolicy::AllReplicas),
    ] {
        let im = imbalance(policy, seed);
        table.row(vec![
            name.to_string(),
            format!("{:.2}", im.max_over_mean),
            format!("{:.2}", im.top2_share),
            format!("{:.3}", im.failure_probability),
        ]);
    }
    out.emit(&table, "ext_hotspot");
    println!(
        "expected shape: Algorithm 1 spreads selections (lower max/mean and\n\
         top-2 share) while the greedy ablation concentrates them on the\n\
         few best replicas (hot spots)."
    );
}
