//! Everything the harness derives from the `ScenarioMetrics` of one cycle:
//! the correctness checks, the paper's QoS quantities and the count-type
//! layer metrics. All of it is virtual-time or counts, so it repeats exactly
//! for a seed.

use crate::metrics::{percentile, Report};
use crate::runloop::RunOutput;
use crate::workloads::RunSpec;
use aqf_sim::Digest;
use aqf_stats::Summary;

/// `Summary` keeps its samples private, but its nearest-rank percentile at
/// the mid-rank grid `(k - 0.5) / n` returns the k-th smallest sample, which
/// is what pooling percentiles across clients and runs needs.
fn samples(s: &Summary) -> impl Iterator<Item = f64> + '_ {
    let n = s.count();
    (1..=n).map(move |k| {
        s.percentile(100.0 * (k as f64 - 0.5) / n as f64)
            .expect("non-empty summary")
    })
}

/// Sums and maxima over the runs of one cycle.
#[derive(Debug, Default)]
pub struct CycleSummary {
    pub attempted: u64,
    /// Requests the client gave up on or shed locally: the outcome the
    /// system owes a client whose request met an injected fault, counted
    /// against the QoS (`qos.ops_failed_fraction`), not against correctness.
    pub unanswered: u64,
    /// Requests that broke a promise no fault excuses: still unresolved
    /// when the run ended, or answered timely but staler than asked.
    pub broken: u64,
    reads: u64,
    updates: u64,
    timely_reads: u64,
    selected_sum: f64,
    read_ms: Vec<f64>,
    update_ms: Vec<f64>,
    seq_unavail_us: u64,
    divergence: u64,
    pub events: u64,
    delivered: u64,
    dropped: u64,
    duplicated: u64,
    multicasts: u64,
    retransmissions: u64,
    nacks: u64,
    views_installed: u64,
    suspicions: u64,
    suspect_to_view_us: u64,
    cdf_rebuilds: u64,
    cdf_hits: u64,
    cdf_misses: u64,
    retries: u64,
    reads_served: u64,
    reads_deferred: u64,
    dedup_hits: u64,
    state_transfers: u64,
    transfer_bytes: u64,
    commit_stall_us: u64,
    recovery_us: u64,
    wal_appends: u64,
    snapshots: u64,
    replayed_records: u64,
    /// Fold of the runs' `ScenarioMetrics::digest()`, in cycle order.
    pub sim_digest: u64,
    /// Violated checks, empty when the cycle is correct.
    pub violations: Vec<String>,
}

impl CycleSummary {
    pub fn of(cycle: &[RunSpec], outputs: &[RunOutput]) -> Self {
        let mut s = CycleSummary::default();
        let mut digest = Digest::new();
        for (i, (spec, out)) in cycle.iter().zip(outputs).enumerate() {
            let m = &out.metrics;
            digest.mix(m.digest());
            s.attempted += spec.attempted();
            s.divergence = s.divergence.max(m.max_applied_divergence());
            s.events += out.world.events;
            s.delivered += out.world.delivered;
            s.dropped += out.world.dropped;
            s.duplicated += out.world.duplicated;
            for (c, client_spec) in m.clients.iter().zip(&spec.config.clients) {
                let r = &c.record;
                let total = client_spec.total_requests;
                // Every request was issued and resolved (reply, give-up or
                // local shed) before the run ended, and each resolution is
                // of exactly one kind.
                let resolved_kinds =
                    r.reads_completed + r.update_response_ms.count() as u64 + r.local_sheds;
                if c.reads + c.updates != total || r.completed != total || resolved_kinds != total {
                    s.violations.push(format!(
                        "run {i} client {}: {total} requests attempted, {} issued, {} completed, \
                         {resolved_kinds} by kind",
                        c.id,
                        c.reads + c.updates,
                        r.completed
                    ));
                }
                if r.staleness_violations > 0 {
                    s.violations.push(format!(
                        "run {i} client {}: {} staleness violations",
                        c.id, r.staleness_violations
                    ));
                }
                s.unanswered += r.timeouts + r.local_sheds;
                s.broken += total.saturating_sub(r.completed) + r.staleness_violations;
                s.reads += c.reads;
                s.updates += c.updates;
                s.timely_reads += c.timely_responses;
                s.selected_sum += c.avg_replicas_selected * c.reads as f64;
                s.read_ms.extend(samples(&r.read_response_ms));
                s.update_ms.extend(samples(&r.update_response_ms));
                s.cdf_rebuilds += c.cdf_base_rebuilds;
                s.cdf_hits += c.cdf_cache_hits;
                s.cdf_misses += c.cdf_cache_misses;
                s.retries += c.retries;
            }
            for srv in &m.servers {
                let (st, g) = (&srv.stats, &srv.group);
                if st.gsn_conflicts > 0 {
                    s.violations.push(format!(
                        "run {i} server {}: {} GSN conflicts",
                        srv.id, st.gsn_conflicts
                    ));
                }
                s.seq_unavail_us = s.seq_unavail_us.max(st.seq_unavail_us);
                s.commit_stall_us = s.commit_stall_us.max(st.commit_stall_us);
                s.recovery_us = s.recovery_us.max(st.recovery_us);
                s.reads_served += st.reads_served;
                s.reads_deferred += st.reads_deferred;
                s.dedup_hits += st.dedup_hits;
                s.state_transfers += st.state_transfers;
                s.transfer_bytes += st.transfer_bytes_sent;
                s.wal_appends += st.wal_appends;
                s.snapshots += st.snapshots_taken;
                s.replayed_records += st.replayed_records;
                s.multicasts += g.multicasts_sent;
                s.retransmissions += g.retransmissions;
                s.nacks += g.nacks_sent;
                s.views_installed += g.views_installed;
                s.suspicions += g.suspicions;
                s.suspect_to_view_us = s.suspect_to_view_us.max(g.max_suspect_to_view_us);
            }
        }
        s.read_ms.sort_by(f64::total_cmp);
        s.update_ms.sort_by(f64::total_cmp);
        s.sim_digest = digest.value();
        s
    }

    /// Sets the virtual-time and count metrics. A ratio whose denominator
    /// is zero on this workload (reads on `write-stream`) is reported as 0.
    pub fn report(&self, r: &mut Report) {
        let per = |n: u64, d: u64| if d == 0 { 0.0 } else { n as f64 / d as f64 };
        let pct = |v: &[f64], p: f64| if v.is_empty() { 0.0 } else { percentile(v, p) };
        let ms = |us: u64| us as f64 / 1e3;
        r.set("qos.timely_fraction", per(self.timely_reads, self.reads));
        r.set("qos.read_ms.p50", pct(&self.read_ms, 50.0));
        r.set("qos.read_ms.p99", pct(&self.read_ms, 99.0));
        r.set("qos.update_ms.p50", pct(&self.update_ms, 50.0));
        r.set("qos.update_ms.p99", pct(&self.update_ms, 99.0));
        r.set(
            "qos.replicas_per_read",
            if self.reads == 0 {
                0.0
            } else {
                self.selected_sum / self.reads as f64
            },
        );
        r.set(
            "qos.ops_failed_fraction",
            per(self.unanswered, self.attempted),
        );
        r.set("qos.failover_unavail_ms", ms(self.seq_unavail_us));
        r.set("qos.replica_divergence_max", self.divergence as f64);
        r.set(
            "sim.world.events_per_request",
            per(self.events, self.attempted),
        );
        r.set(
            "sim.net.deliveries_per_request",
            per(self.delivered, self.attempted),
        );
        r.set(
            "sim.net.dropped_per_request",
            per(self.dropped, self.attempted),
        );
        r.set(
            "sim.net.duplicated_per_request",
            per(self.duplicated, self.attempted),
        );
        r.set(
            "group.multicasts_per_update",
            per(self.multicasts, self.updates),
        );
        r.set(
            "group.retransmissions_per_request",
            per(self.retransmissions, self.attempted),
        );
        r.set("group.nacks_per_request", per(self.nacks, self.attempted));
        r.set("group.views_installed", self.views_installed as f64);
        r.set("group.suspicions", self.suspicions as f64);
        r.set("group.suspect_to_view_ms.max", ms(self.suspect_to_view_us));
        r.set(
            "core.client.cdf_rebuilds_per_read",
            per(self.cdf_rebuilds, self.reads),
        );
        r.set(
            "core.client.cdf_hit_ratio",
            per(self.cdf_hits, self.cdf_hits + self.cdf_misses),
        );
        r.set(
            "core.client.retries_per_request",
            per(self.retries, self.attempted),
        );
        r.set(
            "core.server.reads_deferred_ratio",
            per(self.reads_deferred, self.reads_served),
        );
        r.set("core.server.dedup_hits", self.dedup_hits as f64);
        r.set("core.server.state_transfers", self.state_transfers as f64);
        r.set("core.server.transfer_bytes", self.transfer_bytes as f64);
        r.set("core.server.commit_stall_ms.max", ms(self.commit_stall_us));
        r.set("core.server.recovery_ms.max", ms(self.recovery_us));
        r.set(
            "store.wal_appends_per_update",
            per(self.wal_appends, self.updates),
        );
        r.set("store.snapshots", self.snapshots as f64);
        r.set("store.replayed_records", self.replayed_records as f64);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mid_rank_grid_recovers_every_sample() {
        let mut s = Summary::new();
        let values = [9.0, 1.5, 1.5, 7.25, 3.0, 1000.0, 0.0];
        s.extend(values);
        let mut sorted = values.to_vec();
        sorted.sort_by(f64::total_cmp);
        assert_eq!(samples(&s).collect::<Vec<_>>(), sorted);
        assert_eq!(samples(&Summary::new()).count(), 0);
    }
}
