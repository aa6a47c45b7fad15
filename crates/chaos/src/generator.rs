//! Seed-driven fault-schedule generation under a sanity budget.
//!
//! Each call to [`generate_faults`] deterministically samples one budgeted
//! fault schedule over the full [`FaultKind`] space: crash/restart,
//! whole-node isolation, gray degradation and loss, and pairwise
//! [`FaultKind::CutLink`] partitions. When the scenario enables durable
//! storage, crashes double as storage crash faults — the configured
//! torn-write and bit-flip probabilities govern the disk damage a
//! generated crash inflicts.
//!
//! The budget keeps schedules inside the envelope where the service is
//! *supposed* to keep its guarantees, so an oracle violation indicts the
//! protocol rather than the schedule:
//!
//! - **Primary majority stays alive.** At every instant, fewer than half
//!   of the initial primary-group members (sequencer + primaries) are
//!   concurrently crashed or isolated. Losing the majority is legitimate
//!   unavailability, not a consistency bug.
//! - **Every fault heals.** Each damaging fault is paired with its healing
//!   counterpart ([`FaultKind::heal`]) inside the active window.
//! - **The tail quiesces.** No fault activity in the last
//!   [`ScheduleBudget::quiesce`] of the active window, so the run settles
//!   and late replies drain before the history is judged.

use aqf_sim::{SimDuration, SimTime};
use aqf_workload::{FaultEvent, FaultKind, FaultTarget, ScenarioConfig};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// Sampling envelope for one generated schedule.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ScheduleBudget {
    /// Maximum number of damaging faults (each brings its matching heal,
    /// which does not count against the budget).
    pub max_faults: usize,
    /// Earliest fault instant — leave the warm-up alone so group views
    /// and client windows form first.
    pub start: SimDuration,
    /// Latest instant by which every fault must have healed.
    pub active_until: SimDuration,
    /// Healed-and-quiet tail subtracted from the end of the active
    /// window: the last heal lands at `active_until - quiesce` or
    /// earlier.
    pub quiesce: SimDuration,
    /// Shortest and longest damage window (damage → heal spacing).
    pub min_hold: SimDuration,
    /// See [`ScheduleBudget::min_hold`].
    pub max_hold: SimDuration,
}

impl ScheduleBudget {
    /// The quick-profile budget used by the fixed-seed corpus: a handful
    /// of faults inside the first two minutes of a short run.
    pub fn quick() -> Self {
        Self {
            max_faults: 4,
            start: SimDuration::from_secs(5),
            active_until: SimDuration::from_secs(110),
            quiesce: SimDuration::from_secs(20),
            min_hold: SimDuration::from_secs(2),
            max_hold: SimDuration::from_secs(25),
        }
    }
}

/// One damaging fault occupying `[from, to)` on `target`, healed at `to`
/// by the kind [`FaultKind::heal`] names.
struct Window {
    target: FaultTarget,
    from: SimTime,
    to: SimTime,
    damage: FaultKind,
    /// Whether the target counts as *down* (crashed or isolated) for the
    /// primary-majority rule while the window is open.
    downs_member: bool,
}

impl Window {
    /// The damaging fault at `from` and its heal at `to`.
    fn events(&self) -> [FaultEvent; 2] {
        let heal = self
            .damage
            .heal()
            .expect("a window opens with a damaging kind");
        [(self.from, self.damage), (self.to, heal)].map(|(at, kind)| FaultEvent {
            at,
            target: self.target,
            kind,
        })
    }
}

/// Samples a budgeted fault schedule for `config` from `seed` and returns
/// it (chronologically sorted). The result always passes
/// [`ScenarioConfig::validate`] when installed into `config`.
pub fn generate_faults(
    config: &ScenarioConfig,
    budget: &ScheduleBudget,
    seed: u64,
) -> Vec<FaultEvent> {
    let mut faults: Vec<FaultEvent> = sample_windows(config, budget, seed)
        .iter()
        .flat_map(Window::events)
        .collect();
    faults.sort_by_key(|f| f.at);
    faults
}

/// The damage windows of [`generate_faults`]' schedule, in sampling order.
fn sample_windows(config: &ScenarioConfig, budget: &ScheduleBudget, seed: u64) -> Vec<Window> {
    let mut rng = SmallRng::seed_from_u64(seed ^ 0x00c4_a05a_11ce_5eed);
    let np = config.num_primaries;
    let ns = config.num_secondaries;
    // Initial primary group = sequencer + np serving primaries. The
    // budget keeps strictly more than half of it alive at all times.
    let group_size = np + 1;
    let max_down = (group_size - 1) / 2;

    let lo = budget.start.as_micros();
    let hi = budget
        .active_until
        .as_micros()
        .saturating_sub(budget.quiesce.as_micros());
    if hi <= lo {
        return Vec::new();
    }

    let n_faults = rng.gen_range(1..=budget.max_faults.max(1));
    let mut windows: Vec<Window> = Vec::new();

    for _ in 0..n_faults {
        // Rejection-sample a window that respects the per-target
        // non-overlap rules and the primary-majority rule; give up on a
        // fault after a bounded number of tries rather than loop.
        'tries: for _ in 0..24 {
            let from_us = rng.gen_range(lo..hi);
            let hold = rng
                .gen_range(budget.min_hold.as_micros()..=budget.max_hold.as_micros())
                .min(hi - from_us);
            if hold < budget.min_hold.as_micros() {
                continue;
            }
            let from = SimTime::from_micros(from_us);
            let to = SimTime::from_micros(from_us + hold);

            let target = sample_target(&mut rng, np, ns);
            let (damage, downs_member) = sample_kind(&mut rng, config, np, ns, target);

            // Same-target overlap with any open window is a contradictory
            // schedule (and, for gray faults, ambiguous pairing) — keep
            // windows on one target disjoint.
            let overlaps = |w: &Window| from < w.to && w.from < to;
            if windows
                .iter()
                .any(|w| (w.target == target || touches_link(w, target, damage)) && overlaps(w))
            {
                continue 'tries;
            }

            // Primary-majority rule: count concurrently-down group
            // members at every boundary inside the candidate window.
            if downs_member && is_group_member(target, np) {
                let down_at = |t: SimTime| {
                    windows
                        .iter()
                        .filter(|w| {
                            w.downs_member
                                && is_group_member(w.target, np)
                                && w.from <= t
                                && t < w.to
                        })
                        .count()
                };
                if down_at(from) + 1 > max_down
                    || windows
                        .iter()
                        .filter(|w| overlaps(w))
                        .any(|w| down_at(w.from.max(from)) + 1 > max_down)
                {
                    continue 'tries;
                }
            }

            windows.push(Window {
                target,
                from,
                to,
                damage,
                downs_member,
            });
            break 'tries;
        }
    }
    windows
}

/// Whether `target` is an initial primary-group member.
fn is_group_member(target: FaultTarget, np: usize) -> bool {
    matches!(target, FaultTarget::Sequencer | FaultTarget::Publisher)
        || matches!(target, FaultTarget::Primary(i) if i < np)
}

/// Whether `w` is a link window touching `target` (link windows occupy
/// both endpoints for the overlap rule).
fn touches_link(w: &Window, target: FaultTarget, _damage: FaultKind) -> bool {
    match w.damage {
        FaultKind::CutLink { peer } => peer == target,
        _ => false,
    }
}

/// Samples a single-process fault target. Role targets (sequencer /
/// publisher) are included so failover paths get exercised; correlated
/// targets are left to the dedicated durability experiments.
fn sample_target(rng: &mut SmallRng, np: usize, ns: usize) -> FaultTarget {
    loop {
        match rng.gen_range(0u32..4) {
            0 => return FaultTarget::Sequencer,
            1 if np > 0 => return FaultTarget::Primary(rng.gen_range(0..np)),
            2 if ns > 0 => return FaultTarget::Secondary(rng.gen_range(0..ns)),
            3 => return FaultTarget::Publisher,
            _ => {}
        }
    }
}

/// Samples a damaging kind for `target`, and whether it downs the target
/// for the primary-majority rule. Secondaries take
/// the full menu; primary-group members skip whole-node isolation in
/// favour of crashes (isolation of the sequencer mostly measures failover
/// noise, which the membership tests already cover).
fn sample_kind(
    rng: &mut SmallRng,
    config: &ScenarioConfig,
    np: usize,
    ns: usize,
    target: FaultTarget,
) -> (FaultKind, bool) {
    // Crashes are over-weighted when durable storage is on: each one also
    // exercises WAL damage + recovery replay.
    let crash_weight = if config.storage.enabled { 3 } else { 2 };
    let menu = 4 + crash_weight;
    match rng.gen_range(0..menu) {
        0 => (
            FaultKind::Degrade {
                factor: 2.0 + rng.gen_range(0.0..6.0),
            },
            false,
        ),
        1 => (
            FaultKind::Lossy {
                p: rng.gen_range(0.05..0.6),
            },
            false,
        ),
        2 if !is_group_member(target, np) => (FaultKind::Isolate, true),
        3 => {
            // Pairwise partition to a distinct single-process peer.
            for _ in 0..16 {
                let peer = sample_target(rng, np, ns);
                if peer != target {
                    return (FaultKind::CutLink { peer }, false);
                }
            }
            (FaultKind::Crash, true)
        }
        _ => (FaultKind::Crash, true),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{config_from_json, config_to_json};
    use aqf_workload::damage_windows;

    fn base() -> ScenarioConfig {
        let mut c = ScenarioConfig::paper_validation(200, 0.9, 2, 11).with_fast_detection();
        c.run_limit = SimDuration::from_secs(150);
        for spec in &mut c.clients {
            spec.total_requests = 60;
        }
        c
    }

    #[test]
    fn generated_schedules_validate_across_seeds() {
        let config = base();
        let budget = ScheduleBudget::quick();
        for seed in 0..200 {
            let mut c = config.clone();
            c.faults = generate_faults(&c, &budget, seed);
            c.validate()
                .unwrap_or_else(|e| panic!("seed {seed}: invalid schedule: {e}\n{:?}", c.faults));
        }
    }

    /// The pairing the generator implies — each window's damage healed by
    /// the event it emits at the window's end — is the pairing validation's
    /// walk finds, for 500 schedules of every corpus profile.
    #[test]
    fn walk_pairs_each_generated_damage_with_its_emitted_heal() {
        let budget = ScheduleBudget::quick();
        for profile in crate::corpus::profiles() {
            for seed in profile.first_seed..profile.first_seed + 500 {
                let config = crate::scenario_for_seed(&profile.base, &budget, seed);
                // Window `k` emits its damage as event `2k` and its heal as
                // event `2k + 1`; `generate_faults` only sorts them.
                let windows = sample_windows(&config, &budget, seed);
                let events: Vec<FaultEvent> = windows.iter().flat_map(Window::events).collect();
                let mut pairs = damage_windows(&events)
                    .unwrap_or_else(|e| panic!("{} seed {seed}: {e}\n{events:?}", profile.name));
                pairs.sort_unstable();
                let emitted: Vec<(usize, usize)> =
                    (0..windows.len()).map(|k| (2 * k, 2 * k + 1)).collect();
                assert_eq!(pairs, emitted, "{} seed {seed}: {events:?}", profile.name);
                config.validate().unwrap_or_else(|e| {
                    panic!("{} seed {seed}: invalid schedule: {e}", profile.name)
                });
            }
        }
    }

    #[test]
    fn generation_is_deterministic_per_seed() {
        let config = base();
        let budget = ScheduleBudget::quick();
        for seed in [0, 7, 99] {
            assert_eq!(
                generate_faults(&config, &budget, seed),
                generate_faults(&config, &budget, seed),
            );
        }
    }

    #[test]
    fn round_trips_generated_schedules() {
        let mut config = ScenarioConfig::paper_validation(200, 0.9, 2, 3).with_fast_detection();
        let budget = ScheduleBudget::quick();
        for seed in 0..50 {
            config.faults = generate_faults(&config, &budget, seed);
            let back = config_from_json(&config_to_json(&config)).expect("parses");
            assert_eq!(back, config, "seed {seed}");
        }
    }

    #[test]
    fn majority_of_primary_group_stays_alive() {
        let config = base();
        let budget = ScheduleBudget::quick();
        for seed in 0..200 {
            let faults = generate_faults(&config, &budget, seed);
            // Sweep the schedule counting concurrently-down group members.
            let mut down = std::collections::BTreeSet::new();
            let mut events: Vec<&FaultEvent> = faults.iter().collect();
            events.sort_by_key(|f| f.at);
            for f in events {
                match f.kind {
                    FaultKind::Crash | FaultKind::Isolate
                        if is_group_member(f.target, config.num_primaries) =>
                    {
                        down.insert(f.target);
                    }
                    FaultKind::Restart | FaultKind::Reconnect => {
                        down.remove(&f.target);
                    }
                    _ => {}
                }
                assert!(
                    down.len() <= config.num_primaries / 2,
                    "seed {seed}: majority lost: {down:?}"
                );
            }
        }
    }

    #[test]
    fn tail_quiesces_before_active_until() {
        let config = base();
        let budget = ScheduleBudget::quick();
        let deadline = budget.active_until.as_micros() - budget.quiesce.as_micros();
        for seed in 0..200 {
            for f in generate_faults(&config, &budget, seed) {
                assert!(
                    f.at.as_micros() <= deadline,
                    "seed {seed}: fault at {:?} past the quiesce deadline",
                    f.at
                );
            }
        }
    }
}
