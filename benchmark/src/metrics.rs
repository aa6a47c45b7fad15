//! The declared metric set (mirrored by `/BENCHMARK.json`, which a test
//! compares against), the percentile rule, and the result document.

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// `(name, unit, higher_is_better)`; bounds live in `/BENCHMARK.json`.
pub type Decl = (&'static str, &'static str, bool);

/// What a user of the reproduction sees: how fast a grid cell or a fault
/// schedule comes back, what it costs to start, and how much memory it
/// takes. Measured with tracing off.
pub const END_TO_END: &[Decl] = &[
    ("setup_s", "s", false),
    ("sim_requests_per_s", "1/s", true),
    ("peak_rss_mb", "MiB", false),
];

/// Single-layer metrics, from the traced pass. `count`-like units are exact
/// per seed; `ns`/`us`/`ms` host times and `ratio`s of host times are noisy.
/// Unit `vms` is *virtual* milliseconds: simulated time, exact per seed.
pub const PER_LAYER: &[Decl] = &[
    // The paper's own QoS quantities, per cycle (virtual time, exact).
    ("qos.timely_fraction", "ratio", true),
    ("qos.read_ms.p50", "vms", false),
    ("qos.read_ms.p99", "vms", false),
    ("qos.update_ms.p50", "vms", false),
    ("qos.update_ms.p99", "vms", false),
    ("qos.replicas_per_read", "replicas", false),
    ("qos.ops_failed_fraction", "ratio", false),
    ("qos.failover_unavail_ms", "vms", false),
    ("qos.replica_divergence_max", "versions", false),
    // Host ms per scenario run (`build_scenario` to the end of the drain)
    // over the runs of the plain cycle.
    ("run_ms.p50", "ms", false),
    ("run_ms.max", "ms", false),
    // Step-traced attribution.
    ("trace.share.read_issue", "ratio", false),
    ("trace.share.update_issue", "ratio", false),
    ("trace.share.deliver", "ratio", false),
    ("trace.share.timer_other", "ratio", false),
    ("trace.share.fault", "ratio", false),
    ("trace.ns_per_step.read_issue", "ns", false),
    ("trace.ns_per_step.deliver", "ns", false),
    ("trace.ns_per_step.timer_other", "ns", false),
    ("trace.top1pct_share", "ratio", false),
    ("trace.overhead_ratio", "ratio", false),
    // Simulator core.
    ("sim.world.events_per_s", "1/s", true),
    ("sim.world.events_per_request", "count", false),
    ("sim.world.step_ns.p50", "ns", false),
    ("sim.world.step_ns.p99", "ns", false),
    ("sim.world.dispatch_ns", "ns", false),
    ("sim.world.timer_ns", "ns", false),
    ("sim.net.deliveries_per_request", "count", false),
    ("sim.net.dropped_per_request", "count", false),
    ("sim.net.duplicated_per_request", "count", false),
    ("sim.net.route_ns.clean", "ns", false),
    ("sim.net.route_ns.faulty", "ns", false),
    // Group communication.
    ("group.multicasts_per_update", "count", false),
    ("group.retransmissions_per_request", "count", false),
    ("group.nacks_per_request", "count", false),
    ("group.views_installed", "count", false),
    ("group.suspicions", "count", false),
    ("group.suspect_to_view_ms.max", "vms", false),
    ("group.multicast_ns_per_delivery.n16", "ns", false),
    ("group.multicast_ns_per_delivery.n16-loss10", "ns", false),
    ("group.idle_ns_per_member_tick.n16", "ns", false),
    ("group.idle_ns_per_member_tick.n64", "ns", false),
    // Response-time model.
    ("stats.pmf.convolve_ns.w20", "ns", false),
    ("stats.pmf.cdf_lookup_ns", "ns", false),
    // Client gateway (Algorithm 1).
    ("core.client.cdf_rebuilds_per_read", "count", false),
    ("core.client.cdf_hit_ratio", "ratio", true),
    ("core.client.retries_per_request", "count", false),
    ("core.client.select_us.warm.n10", "us", false),
    ("core.client.select_us.cold.n10", "us", false),
    ("core.client.select_us.cold.n57", "us", false),
    // Server gateways.
    ("core.server.host_us_per_update.sequential", "us", false),
    ("core.server.host_us_per_update.causal", "us", false),
    ("core.server.host_us_per_update.fifo", "us", false),
    ("core.server.reads_deferred_ratio", "ratio", false),
    ("core.server.dedup_hits", "count", false),
    ("core.server.state_transfers", "count", false),
    ("core.server.transfer_bytes", "bytes", false),
    ("core.server.commit_stall_ms.max", "vms", false),
    ("core.server.recovery_ms.max", "vms", false),
    // Stable storage.
    ("store.wal_appends_per_update", "count", false),
    ("store.snapshots", "count", false),
    ("store.replayed_records", "count", false),
    ("store.wal.append_ns", "ns", false),
    ("store.wal.replay_ns_per_record", "ns", false),
    // Observability, on the cycle's first run.
    ("obs.run_overhead_ratio", "ratio", false),
    ("obs.events_per_request", "count", false),
    ("obs.trace_bytes_per_request", "bytes", false),
    ("obs.render_ns_per_event", "ns", false),
    // Scenario construction and chaos tooling, on the cycle's first run.
    ("workload.build_ms", "ms", false),
    ("chaos.generate_us_per_schedule", "us", false),
    ("chaos.judge_overhead_ratio", "ratio", false),
    // Allocator (counting allocator of the traced binary).
    ("alloc.allocs_per_event", "count", false),
    ("alloc.bytes_per_request", "bytes", false),
];

/// Nearest-rank percentile of `sorted` (ascending), `p` in `(0, 100]`.
pub fn percentile<T: Copy>(sorted: &[T], p: f64) -> T {
    assert!(!sorted.is_empty(), "percentile of no samples");
    // The epsilon keeps 0.9 * 100 = 90.00000000000001 at rank 90.
    let rank = (p / 100.0 * sorted.len() as f64 - 1e-9).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

pub fn median(values: &mut [f64]) -> f64 {
    values.sort_by(f64::total_cmp);
    percentile(values, 50.0)
}

/// The guide's rule: beside the median, report the highest percentile that
/// still has at least ten samples beyond it. `None` below 20 samples, where
/// not even the median has ten on each side.
pub fn highest_supported_percentile(samples: usize) -> Option<f64> {
    // In per mille, so that "ten beyond" is integer arithmetic.
    const LADDER: [usize; 4] = [999, 990, 900, 500];
    LADDER
        .into_iter()
        .find(|per_mille| samples - (samples * per_mille).div_ceil(1000) >= 10)
        .map(|per_mille| per_mille as f64 / 10.0)
}

/// Values collected for one declared metric set.
#[derive(Debug)]
pub struct Report {
    decls: &'static [Decl],
    values: BTreeMap<&'static str, f64>,
}

impl Report {
    pub fn new(decls: &'static [Decl]) -> Self {
        Self {
            decls,
            values: BTreeMap::new(),
        }
    }

    /// Records `name`. Panics on an undeclared name, a second value, or a
    /// value JSON cannot carry: each is a bug in the harness.
    pub fn set(&mut self, name: &str, value: f64) {
        let &(declared, ..) = self
            .decls
            .iter()
            .find(|d| d.0 == name)
            .unwrap_or_else(|| panic!("undeclared metric {name}"));
        assert!(value.is_finite(), "metric {name} is {value}");
        assert!(
            self.values.insert(declared, value).is_none(),
            "metric {name} set twice"
        );
    }

    /// `(name, unit, higher_is_better, value)` in declaration order. Panics
    /// if a declared metric was never set.
    pub fn rows(&self) -> Vec<(&'static str, &'static str, bool, f64)> {
        self.decls
            .iter()
            .map(|&(name, unit, up)| {
                let v = *self
                    .values
                    .get(name)
                    .unwrap_or_else(|| panic!("declared metric {name} was never set"));
                (name, unit, up, v)
            })
            .collect()
    }

    /// `{"name": {"value": v, "unit": "u"}, ...}`.
    pub fn to_json(&self) -> String {
        let mut out = String::from("{");
        for (i, (name, unit, _, v)) in self.rows().into_iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            write!(out, "\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}").unwrap();
        }
        out.push('}');
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Metric names: `[A-Za-z0-9_.-]+`, starting with a letter or digit, at
    /// most 64 characters.
    fn valid_name(name: &str) -> bool {
        !name.is_empty()
            && name.len() <= 64
            && name.as_bytes()[0].is_ascii_alphanumeric()
            && name
                .bytes()
                .all(|b| b.is_ascii_alphanumeric() || matches!(b, b'_' | b'.' | b'-'))
    }

    #[test]
    fn percentile_rule_needs_ten_samples_beyond() {
        assert_eq!(highest_supported_percentile(19), None);
        assert_eq!(highest_supported_percentile(20), Some(50.0));
        assert_eq!(highest_supported_percentile(99), Some(50.0));
        assert_eq!(highest_supported_percentile(100), Some(90.0));
        assert_eq!(highest_supported_percentile(999), Some(90.0));
        assert_eq!(highest_supported_percentile(1000), Some(99.0));
        assert_eq!(highest_supported_percentile(10_000), Some(99.9));
    }

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), 50.0);
        assert_eq!(percentile(&v, 90.0), 90.0);
        assert_eq!(percentile(&v, 100.0), 100.0);
        assert_eq!(percentile(&[3.0], 99.0), 3.0);
        assert_eq!(median(&mut [5.0, 1.0, 3.0]), 3.0);
    }

    #[test]
    fn declared_names_follow_the_grammar_and_are_unique() {
        let mut seen = std::collections::BTreeSet::new();
        for &(name, unit, _) in END_TO_END.iter().chain(PER_LAYER) {
            assert!(valid_name(name), "{name}");
            assert!(seen.insert(name), "{name} declared twice");
            assert!(!unit.is_empty() && unit.len() <= 16, "{name}: unit {unit}");
        }
        assert!(!valid_name(""));
        assert!(!valid_name(".p50"));
        assert!(!valid_name("a b"));
        assert!(!valid_name("run/ms"));
        assert!(!valid_name(&"x".repeat(65)));
    }

    #[test]
    #[should_panic(expected = "undeclared metric")]
    fn report_refuses_undeclared_names() {
        Report::new(END_TO_END).set("surprise", 1.0);
    }

    #[test]
    #[should_panic(expected = "never set")]
    fn report_refuses_missing_metrics() {
        let mut r = Report::new(END_TO_END);
        r.set("setup_s", 1.0);
        r.rows();
    }
}
