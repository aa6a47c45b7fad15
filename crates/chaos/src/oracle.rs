//! Consistency oracles: machine checks over the client history a run's
//! trace records.
//!
//! The history is a typed view over the [`TraceRecord`]s of an observed
//! run: each client's `request_issued` joined, by its
//! [`ReqId`](aqf_obs::ReqId), to the one event that resolved the request
//! ([`RESOLVING_KINDS`]). Each oracle replays that history and checks the
//! invariant its consistency level promises. Every check is *sound* — it
//! only uses information the history actually proves, so a reported
//! violation is a real protocol bug, never an artifact of the oracle's
//! reconstruction being incomplete:
//!
//! - **Sequential** (register workload): all replicas commit updates in a
//!   single total order. Concretely: (1) no two different values are ever
//!   observed at the same register version (an acked `set` pins its
//!   version to its payload; reads pin `(version, value)` pairs); (2) a
//!   read's value equals the payload of the `set` acked at its version,
//!   when that ack is known; (3) one client's own `set` acks carry
//!   strictly increasing versions (program order embeds into the total
//!   order); (4) no read observes more versions than `set` operations
//!   issued before its completion.
//! - **Causal** (vector-carrying workloads): no causality inversion. The
//!   vector on a served read must dominate everything its client had
//!   causally observed when it issued the read. The client's observation
//!   is reconstructed as the merge of all reply vectors completed before
//!   the issue instant — a lower bound on its true dependency set (extra
//!   duplicate replies only grow it), so dominance failures are genuine.
//! - **FIFO** (banking workload): per-writer monotonicity. Only client
//!   `c` transacts on account `acct-c` with a deterministic op sequence,
//!   so under FIFO delivery every observable balance — update acks and
//!   balance reads alike — must lie on the prefix-sum path of that op
//!   sequence, and acks must walk it in order.
//! - **Timed** (the paper's §3 guarantee): a timely, non-deferred,
//!   non-degraded read never exceeds the client's staleness bound `a`
//!   (the same invariant `ClientRecord::staleness_violations` counts),
//!   and — when [`OracleOptions::enforce_pc`] is set — the empirical
//!   timely frequency is compatible with the requested `Pc(d)` under a
//!   Wilson-interval tolerance.

use std::collections::{BTreeMap, BTreeSet};

use aqf_core::OrderingGuarantee;
use aqf_obs::{Event, TraceRecord, RESOLVING_KINDS};
use aqf_stats::BinomialCi;
use aqf_workload::{ObjectKind, ScenarioConfig};

/// Which oracle flagged a violation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OracleKind {
    /// Single total order + monotone prefix reads.
    Sequential,
    /// Vector dominance / no causality inversion.
    Causal,
    /// Per-writer monotonicity.
    Fifo,
    /// Staleness of timely reads within `a`, frequency ≥ `Pc`.
    Timed,
}

impl OracleKind {
    /// Stable lower-case name for reports.
    pub fn name(self) -> &'static str {
        match self {
            OracleKind::Sequential => "sequential",
            OracleKind::Causal => "causal",
            OracleKind::Fifo => "fifo",
            OracleKind::Timed => "timed",
        }
    }
}

/// One invariant breach, anchored to the completion that exposed it.
#[derive(Debug, Clone, PartialEq)]
pub struct Violation {
    /// Which oracle fired.
    pub oracle: OracleKind,
    /// The client whose completion exposed the breach.
    pub client: u64,
    /// The request sequence number of that completion (0 for run-level
    /// breaches such as a failed `Pc` frequency check).
    pub seq: u64,
    /// Human-readable description with the concrete numbers.
    pub detail: String,
}

/// Oracle tuning.
#[derive(Debug, Clone, Copy, Default)]
pub struct OracleOptions {
    /// Also enforce the probabilistic part of the timed guarantee: the
    /// Wilson 95% interval of the observed timely frequency must not sit
    /// entirely below the requested `Pc(d)`. Off by default — fault
    /// schedules legitimately depress timeliness, and a QoS miss under
    /// injected faults is a timing failure, not a consistency bug. Turn
    /// on to *hunt* for mis-provisioned configurations (see
    /// `examples/chaos_hunt.rs`).
    pub enforce_pc: bool,
}

/// One joined request: what its `request_issued` recorded and, once it
/// resolved, the time and event that resolved it ([`RESOLVING_KINDS`]).
struct Op<'a> {
    seq: u64,
    issued_us: u64,
    read: bool,
    method: &'a str,
    arg: &'a [u8],
    resolved: Option<(u64, &'a Event)>,
}

/// Checks every applicable oracle over the history in `trace`, returning
/// all violations found (empty = the history is consistent).
pub fn check_trace(
    config: &ScenarioConfig,
    trace: &[TraceRecord],
    opts: &OracleOptions,
) -> Vec<Violation> {
    let mut violations = Vec::new();
    let per_client = join_per_client(trace);

    match config.ordering {
        OrderingGuarantee::Sequential => {
            if config.object == ObjectKind::Register {
                check_sequential(&per_client, &mut violations);
            }
        }
        OrderingGuarantee::Causal => check_causal(&per_client, &mut violations),
        OrderingGuarantee::Fifo => {
            if config.object == ObjectKind::Bank {
                check_fifo(&per_client, &mut violations);
            }
        }
    }
    check_timed(config, &per_client, opts, &mut violations);
    violations
}

/// Joins each `request_issued` to the event that resolved it, grouped by
/// client in trace order — issue order, and since clients are closed-loop
/// also completion order.
fn join_per_client(trace: &[TraceRecord]) -> BTreeMap<u64, Vec<Op<'_>>> {
    let mut per_client: BTreeMap<u64, Vec<Op<'_>>> = BTreeMap::new();
    for r in trace {
        let Some(req) = r.event.req() else {
            continue;
        };
        let ops = per_client.entry(req.client.index() as u64).or_default();
        if let Event::RequestIssued {
            read, method, arg, ..
        } = &r.event
        {
            ops.push(Op {
                seq: req.seq,
                issued_us: r.t_us,
                read: *read,
                method,
                arg,
                resolved: None,
            });
        } else if RESOLVING_KINDS.contains(&r.event.kind()) {
            if let Some(op) = ops.iter_mut().rev().find(|op| op.seq == req.seq) {
                op.resolved = Some((r.t_us, &r.event));
            }
        }
    }
    per_client
}

fn u64_be(bytes: &[u8]) -> Option<u64> {
    Some(u64::from_be_bytes(bytes.get(..8)?.try_into().ok()?))
}

fn check_sequential(per_client: &BTreeMap<u64, Vec<Op<'_>>>, out: &mut Vec<Violation>) {
    // version -> (value bytes, provenance) pinned by the first observer.
    let mut at_version: BTreeMap<u64, (Vec<u8>, String)> = BTreeMap::new();
    // Completion-time-ordered view of every op, for the issued-set bound.
    let mut set_issue_times: Vec<u64> = Vec::new();
    for op in per_client.values().flatten() {
        if !op.read && op.method == "set" {
            set_issue_times.push(op.issued_us);
        }
    }
    set_issue_times.sort_unstable();

    let mut pin = |version: u64,
                   value: &[u8],
                   who: String,
                   client: u64,
                   seq: u64,
                   out: &mut Vec<Violation>| {
        match at_version.get(&version) {
            None => {
                at_version.insert(version, (value.to_vec(), who));
            }
            Some((prior, prior_who)) if prior != value => out.push(Violation {
                oracle: OracleKind::Sequential,
                client,
                seq,
                detail: format!(
                    "two values at register version {version}: {} pinned {:?}, {who} observed {:?}",
                    prior_who,
                    String::from_utf8_lossy(prior),
                    String::from_utf8_lossy(value),
                ),
            }),
            Some(_) => {}
        }
    };

    for (&client, ops) in per_client {
        let mut last_ack_version = 0u64;
        for op in ops {
            let Some((at_us, Event::Delivered { result, .. })) = op.resolved else {
                continue;
            };
            let seq = op.seq;
            if !op.read && op.method == "set" {
                let Some(version) = u64_be(result) else {
                    out.push(Violation {
                        oracle: OracleKind::Sequential,
                        client,
                        seq,
                        detail: format!("set ack is not a version: {result:?}"),
                    });
                    continue;
                };
                // Program order embeds in the total order: a client's own
                // acks are strictly increasing.
                if version <= last_ack_version {
                    out.push(Violation {
                        oracle: OracleKind::Sequential,
                        client,
                        seq,
                        detail: format!(
                            "set acked at version {version} after an earlier ack at {last_ack_version}"
                        ),
                    });
                }
                last_ack_version = last_ack_version.max(version);
                pin(
                    version,
                    op.arg,
                    format!("client {client} set #{seq}"),
                    client,
                    seq,
                    out,
                );
            } else if op.read && op.method == "get" {
                let Some(version) = u64_be(result) else {
                    out.push(Violation {
                        oracle: OracleKind::Sequential,
                        client,
                        seq,
                        detail: format!("get reply too short: {result:?}"),
                    });
                    continue;
                };
                // No reading the future: at most the sets issued before
                // this read completed can have been applied anywhere.
                let issued_before = set_issue_times.partition_point(|&t| t <= at_us) as u64;
                if version > issued_before {
                    out.push(Violation {
                        oracle: OracleKind::Sequential,
                        client,
                        seq,
                        detail: format!(
                            "read at version {version} but only {issued_before} sets were issued by then"
                        ),
                    });
                }
                if version > 0 {
                    pin(
                        version,
                        &result[8..],
                        format!("client {client} get #{seq}"),
                        client,
                        seq,
                        out,
                    );
                }
            }
        }
    }
}

/// `a` dominates `b` when every entry of `b` is covered by `a`.
fn dominates(a: &[(u64, u64)], b: &BTreeMap<u64, u64>) -> bool {
    let a: BTreeMap<u64, u64> = a.iter().copied().collect();
    b.iter()
        .all(|(actor, n)| a.get(actor).copied().unwrap_or(0) >= *n)
}

fn merge(into: &mut BTreeMap<u64, u64>, from: &[(u64, u64)]) {
    for &(actor, n) in from {
        let e = into.entry(actor).or_insert(0);
        *e = (*e).max(n);
    }
}

fn check_causal(per_client: &BTreeMap<u64, Vec<Op<'_>>>, out: &mut Vec<Violation>) {
    for (&client, ops) in per_client {
        // The client's causal past, reconstructed exactly as the gateway
        // builds it: merge every reply vector as its completion lands.
        let mut observed: BTreeMap<u64, u64> = BTreeMap::new();
        for op in ops {
            let Some((_, Event::Delivered { vector, .. })) = op.resolved else {
                continue;
            };
            let vector: Vec<(u64, u64)> =
                vector.iter().map(|&(a, n)| (a.index() as u64, n)).collect();
            if op.read && !vector.is_empty() && !dominates(&vector, &observed) {
                out.push(Violation {
                    oracle: OracleKind::Causal,
                    client,
                    seq: op.seq,
                    detail: format!(
                        "causality inversion: reply vector {vector:?} does not dominate \
                         the client's observed past {observed:?}"
                    ),
                });
            }
            merge(&mut observed, &vector);
        }
    }
}

/// One parsed banking write: `deposit` adds, `withdraw` saturating-subs.
fn tx_amount(method: &str, arg: &[u8]) -> Option<(bool, u64)> {
    let deposit = match method {
        "deposit" => true,
        "withdraw" => false,
        _ => return None,
    };
    // `encode_tx` layout: account bytes, NUL, then the amount as u64 BE.
    let amount = arg
        .iter()
        .position(|&b| b == 0)
        .map(|nul| &arg[nul + 1..])
        .filter(|rest| rest.len() == 8)
        .and_then(u64_be)
        .unwrap_or(if deposit { 100 } else { 40 });
    Some((deposit, amount))
}

fn apply_tx(balance: u64, deposit: bool, amount: u64) -> u64 {
    if deposit {
        balance + amount
    } else {
        balance.saturating_sub(amount)
    }
}

fn check_fifo(per_client: &BTreeMap<u64, Vec<Op<'_>>>, out: &mut Vec<Violation>) {
    // What per-sender FIFO guarantees: every replica applies a
    // *subsequence* of the client's transactions in issue order. Replicas
    // may lag (suffix not yet applied) and — with fire-and-forget clients
    // under lossy faults — miss transactions entirely (interior gaps), so
    // the oracle accepts any order-preserving subsequence. What it
    // rejects is a balance no such subsequence can produce: a reorder
    // that changed a saturating withdraw, a double-apply, or an amount
    // from nowhere.
    for (&client, ops) in per_client {
        // Balances reachable by applying some subsequence of the writes
        // issued so far (grows monotonically: dropping a suffix of a
        // longer prefix reproduces every earlier set).
        let mut reachable: BTreeSet<u64> = BTreeSet::from([0]);
        // Snapshots of `reachable` after each issued write, for reads
        // that complete out of band (deferred past later issues).
        let mut snapshots: Vec<(u64, BTreeSet<u64>)> = Vec::new();
        let mut reads: Vec<(u64, u64, u64)> = Vec::new(); // (seq, complete_at, balance)
        let mut write_index = 0usize;
        for op in ops {
            let acked = match op.resolved {
                Some((at_us, Event::Delivered { result, .. })) => Some((at_us, result)),
                _ => None,
            };
            let balance = match acked {
                Some((_, result)) => match u64_be(result) {
                    Some(b) => Some((op.seq, b)),
                    None => {
                        out.push(Violation {
                            oracle: OracleKind::Fifo,
                            client,
                            seq: op.seq,
                            detail: format!("balance reply is not a u64: {result:?}"),
                        });
                        continue;
                    }
                },
                None => None,
            };
            if op.read {
                if let (Some((at_us, _)), Some((seq, b))) = (acked, balance) {
                    reads.push((seq, at_us, b));
                }
                continue;
            }
            let Some((deposit, amount)) = tx_amount(op.method, op.arg) else {
                continue;
            };
            write_index += 1;
            let applied: BTreeSet<u64> = reachable
                .iter()
                .map(|&b| apply_tx(b, deposit, amount))
                .collect();
            if let Some((seq, b)) = balance {
                // The serving replica produced this ack by applying the
                // transaction to some FIFO-consistent prior state.
                if !applied.contains(&b) {
                    out.push(Violation {
                        oracle: OracleKind::Fifo,
                        client,
                        seq,
                        detail: format!(
                            "tx #{write_index} acked balance {b}, unreachable by any \
                             in-order subsequence of the {write_index} issued txs"
                        ),
                    });
                }
            }
            reachable.extend(applied);
            snapshots.push((op.issued_us, reachable.clone()));
        }
        for (seq, complete_at, balance) in reads {
            // Judge the read against the writes issued before it
            // completed (a deferred read may land after later writes).
            let visible = snapshots
                .iter()
                .rev()
                .find(|(issued_at, _)| *issued_at <= complete_at)
                .map(|(_, set)| set);
            let on_path = match visible {
                Some(set) => set.contains(&balance),
                None => balance == 0,
            };
            if !on_path {
                out.push(Violation {
                    oracle: OracleKind::Fifo,
                    client,
                    seq,
                    detail: format!(
                        "balance {balance} is unreachable by any in-order subsequence \
                         of the client's txs issued before the read completed"
                    ),
                });
            }
        }
    }
}

fn check_timed(
    config: &ScenarioConfig,
    per_client: &BTreeMap<u64, Vec<Op<'_>>>,
    opts: &OracleOptions,
    out: &mut Vec<Violation>,
) {
    // Client actor ids are assigned after the servers, in spec order.
    let first_client = 1 + config.num_primaries + config.num_secondaries;
    for (&client, ops) in per_client {
        let spec_index = (client as usize).saturating_sub(first_client);
        let Some(spec) = config.clients.get(spec_index) else {
            continue;
        };
        let bound = spec.qos.staleness_threshold as u64;
        let mut timely_reads = 0u64;
        let mut judged_reads = 0u64;
        for op in ops.iter().filter(|op| op.read) {
            // A local shed is no service outcome; a give-up is an untimely one.
            let Some((_, event)) = op.resolved else {
                continue;
            };
            if matches!(event, Event::LocalShed { .. }) {
                continue;
            }
            judged_reads += 1;
            let Event::Delivered {
                timely: true,
                deferred,
                staleness,
                degraded,
                ..
            } = event
            else {
                continue;
            };
            timely_reads += 1;
            // The hard half of the §3 guarantee — identical to what
            // `ClientRecord::staleness_violations` counts.
            if !deferred && !degraded && *staleness > bound {
                out.push(Violation {
                    oracle: OracleKind::Timed,
                    client,
                    seq: op.seq,
                    detail: format!(
                        "timely immediate read with staleness {staleness} > bound {bound}"
                    ),
                });
            }
        }
        if opts.enforce_pc && judged_reads > 0 {
            let ci = BinomialCi::wilson95(timely_reads, judged_reads);
            if ci.upper < spec.qos.min_probability {
                out.push(Violation {
                    oracle: OracleKind::Timed,
                    client,
                    seq: 0,
                    detail: format!(
                        "timely frequency {:.3} (95% CI [{:.3}, {:.3}], {timely_reads}/{judged_reads}) \
                         is below the requested Pc {:.3}",
                        ci.estimate, ci.lower, ci.upper, spec.qos.min_probability
                    ),
                });
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use aqf_obs::ReqId;
    use aqf_sim::ActorId;

    /// `client`'s record at `at` µs of the event `make` builds for its
    /// request `seq`.
    fn record(client: u64, seq: u64, at: u64, make: impl FnOnce(ReqId) -> Event) -> TraceRecord {
        let actor = ActorId::from_index(client as usize);
        let event = make(ReqId::new(actor, seq));
        TraceRecord {
            t_us: at,
            actor,
            event,
        }
    }

    fn issue(
        client: u64,
        seq: u64,
        at: u64,
        read: bool,
        method: &'static str,
        arg: &[u8],
    ) -> TraceRecord {
        record(client, seq, at, |req| Event::RequestIssued {
            req,
            read,
            deadline_us: 0,
            method,
            arg: arg.to_vec(),
        })
    }

    /// A timely, immediate delivery.
    fn complete(
        client: u64,
        seq: u64,
        at: u64,
        result: Vec<u8>,
        staleness: u64,
        csn: u64,
        vector: Vec<(u64, u64)>,
    ) -> TraceRecord {
        let vector = vector
            .iter()
            .map(|&(a, n)| (ActorId::from_index(a as usize), n));
        record(client, seq, at, |req| Event::Delivered {
            req,
            response_us: 0,
            timely: true,
            deferred: false,
            staleness,
            degraded: false,
            csn,
            vector: vector.collect(),
            result,
        })
    }

    fn seq_config() -> ScenarioConfig {
        ScenarioConfig::paper_validation(200, 0.9, 2, 1)
    }

    fn ver(v: u64) -> Vec<u8> {
        v.to_be_bytes().to_vec()
    }

    fn ver_val(v: u64, value: &[u8]) -> Vec<u8> {
        let mut out = ver(v);
        out.extend_from_slice(value);
        out
    }

    #[test]
    fn sequential_accepts_a_clean_history() {
        let c = 11; // first client actor of the paper deployment
        let events = vec![
            issue(c, 1, 100, false, "set", b"value-11-0"),
            complete(c, 1, 200, ver(1), 0, 1, vec![]),
            issue(c, 2, 300, true, "get", b""),
            complete(c, 2, 400, ver_val(1, b"value-11-0"), 0, 1, vec![]),
        ];
        assert!(check_trace(&seq_config(), &events, &OracleOptions::default()).is_empty());
    }

    #[test]
    fn sequential_catches_forked_total_order() {
        let (c1, c2) = (11, 12);
        let events = vec![
            issue(c1, 1, 100, false, "set", b"value-11-0"),
            complete(c1, 1, 200, ver(1), 0, 1, vec![]),
            issue(c2, 1, 110, false, "set", b"value-12-0"),
            // Same version acked for a different payload: a fork.
            complete(c2, 1, 210, ver(1), 0, 1, vec![]),
        ];
        let violations = check_trace(&seq_config(), &events, &OracleOptions::default());
        assert!(
            violations
                .iter()
                .any(|v| v.oracle == OracleKind::Sequential),
            "{violations:?}"
        );
    }

    #[test]
    fn sequential_catches_value_mismatch_on_read() {
        let c = 11;
        let events = vec![
            issue(c, 1, 100, false, "set", b"value-11-0"),
            complete(c, 1, 200, ver(1), 0, 1, vec![]),
            issue(c, 2, 300, true, "get", b""),
            complete(c, 2, 400, ver_val(1, b"zombie"), 0, 1, vec![]),
        ];
        let violations = check_trace(&seq_config(), &events, &OracleOptions::default());
        assert_eq!(violations.len(), 1, "{violations:?}");
        assert_eq!(violations[0].oracle, OracleKind::Sequential);
    }

    #[test]
    fn sequential_catches_future_read() {
        let c = 11;
        let events = vec![
            issue(c, 1, 100, true, "get", b""),
            // Read observes 3 applied sets before any set was issued.
            complete(c, 1, 200, ver_val(3, b"ghost"), 0, 3, vec![]),
        ];
        let violations = check_trace(&seq_config(), &events, &OracleOptions::default());
        assert!(
            violations
                .iter()
                .any(|v| v.detail.contains("only 0 sets were issued")),
            "{violations:?}"
        );
    }

    #[test]
    fn causal_catches_inversion() {
        let mut config = seq_config();
        config.ordering = OrderingGuarantee::Causal;
        let c = 11;
        let events = vec![
            issue(c, 1, 100, true, "get", b""),
            complete(c, 1, 200, ver_val(2, b"x"), 0, 2, vec![(1, 2), (2, 1)]),
            issue(c, 2, 300, true, "get", b""),
            // Second read's vector regressed on actor 1: inversion.
            complete(c, 2, 400, ver_val(1, b"y"), 0, 1, vec![(1, 1), (2, 1)]),
        ];
        let violations = check_trace(&config, &events, &OracleOptions::default());
        assert_eq!(violations.len(), 1, "{violations:?}");
        assert_eq!(violations[0].oracle, OracleKind::Causal);
    }

    #[test]
    fn causal_accepts_growing_vectors() {
        let mut config = seq_config();
        config.ordering = OrderingGuarantee::Causal;
        let c = 11;
        let events = vec![
            issue(c, 1, 100, true, "get", b""),
            complete(c, 1, 200, ver_val(1, b"x"), 0, 1, vec![(1, 1)]),
            issue(c, 2, 300, true, "get", b""),
            complete(c, 2, 400, ver_val(2, b"y"), 0, 2, vec![(1, 2), (2, 3)]),
        ];
        assert!(check_trace(&config, &events, &OracleOptions::default()).is_empty());
    }

    #[test]
    fn fifo_checks_prefix_path() {
        let mut config = seq_config();
        config.ordering = OrderingGuarantee::Fifo;
        config.object = ObjectKind::Bank;
        let c = 11;
        // deposit 100 -> 100, deposit 100 -> 200, withdraw 40 -> 160.
        let ok = vec![
            issue(c, 1, 100, false, "deposit", b"acct-11\x00"),
            complete(c, 1, 150, ver(100), 0, 1, vec![]),
            issue(c, 2, 200, false, "deposit", b"acct-11\x00"),
            complete(c, 2, 250, ver(200), 0, 2, vec![]),
            issue(c, 3, 300, false, "withdraw", b"acct-11\x00"),
            complete(c, 3, 350, ver(160), 0, 3, vec![]),
            issue(c, 4, 400, true, "balance", b"acct-11"),
            complete(c, 4, 450, ver(100), 2, 1, vec![]), // stale but on-path
        ];
        assert!(check_trace(&config, &ok, &OracleOptions::default()).is_empty());

        let mut bad = ok.clone();
        // An off-path balance: the second deposit was skipped or doubled.
        bad[3] = complete(c, 2, 250, ver(300), 0, 2, vec![]);
        let violations = check_trace(&config, &bad, &OracleOptions::default());
        assert!(
            violations.iter().any(|v| v.oracle == OracleKind::Fifo),
            "{violations:?}"
        );
    }

    #[test]
    fn timed_flags_stale_timely_reads_and_pc() {
        let config = seq_config();
        let c = 12; // the measured client: staleness bound 2
        let events = vec![
            issue(c, 1, 10, false, "set", b"x"),
            complete(c, 1, 50, ver(1), 0, 1, vec![]),
            issue(c, 2, 100, true, "get", b""),
            complete(c, 2, 200, ver_val(1, b"x"), 7, 1, vec![]),
        ];
        let violations = check_trace(&config, &events, &OracleOptions::default());
        assert_eq!(violations.len(), 1, "{violations:?}");
        assert_eq!(violations[0].oracle, OracleKind::Timed);
        assert!(violations[0].detail.contains("staleness 7 > bound 2"));
    }

    #[test]
    fn pc_enforcement_uses_wilson_tolerance() {
        let config = seq_config();
        let c = 12;
        let mut events = vec![
            issue(c, 1, 10, false, "set", b"x"),
            complete(c, 1, 50, ver(1), 0, 1, vec![]),
        ];
        // 40 untimely reads out of 40: frequency 0 « Pc 0.9.
        for i in 0..40u64 {
            events.push(issue(c, i + 2, 1000 * (i + 1), true, "get", b""));
            let mut late = complete(
                c,
                i + 2,
                1000 * (i + 1) + 500,
                ver_val(1, b"x"),
                0,
                1,
                vec![],
            );
            if let Event::Delivered { timely, .. } = &mut late.event {
                *timely = false;
            }
            events.push(late);
        }
        assert!(
            check_trace(&config, &events, &OracleOptions::default()).is_empty(),
            "pc is not enforced by default"
        );
        let violations = check_trace(&config, &events, &OracleOptions { enforce_pc: true });
        assert_eq!(violations.len(), 1, "{violations:?}");
        assert!(violations[0].detail.contains("below the requested Pc"));
    }
}
