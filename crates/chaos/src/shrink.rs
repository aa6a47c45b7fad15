//! Delta-debugging minimization of violating fault schedules.
//!
//! Given a scenario whose replay exhibits an oracle violation, the
//! shrinker searches for a smaller schedule that still does, using three
//! reduction passes repeated to a fixed point:
//!
//! 1. **Drop events** — classic ddmin over the fault list: try removing
//!    halves, then quarters, and so on down to single events.
//! 2. **Shorten windows** — move each healing fault toward its damaging
//!    fault (binary search on the window length).
//! 3. **Merge adjacent faults** — when two damage windows on the same
//!    target, ended by the same healing kind, sit back to back, fuse them
//!    into one by deleting the inner heal/damage pair.
//!
//! Every candidate must pass [`ScenarioConfig::validate`] (invalid
//! subsets are skipped, they are not counterexamples) and is judged by
//! deterministic replay through the caller's `still_fails` closure, so a
//! shrink accepted once replays identically forever.

use aqf_sim::SimTime;
use aqf_workload::{damage_windows, FaultEvent, ScenarioConfig};

/// Outcome of a shrink run.
#[derive(Debug, Clone)]
pub struct Shrunk {
    /// The minimized scenario (same config, reduced fault schedule).
    pub config: ScenarioConfig,
    /// Number of replays spent shrinking.
    pub replays: u64,
}

/// Minimizes `config.faults` while `still_fails` keeps returning `true`.
///
/// `still_fails` must be deterministic (replay the scenario, check the
/// oracles). The returned scenario is 1-minimal with respect to the drop
/// pass: removing any single remaining fault event makes the violation
/// disappear or the schedule invalid.
pub fn shrink(
    config: &ScenarioConfig,
    still_fails: &mut dyn FnMut(&ScenarioConfig) -> bool,
) -> Shrunk {
    fn try_candidate(
        faults: Vec<FaultEvent>,
        current: &ScenarioConfig,
        replays: &mut u64,
        still_fails: &mut dyn FnMut(&ScenarioConfig) -> bool,
    ) -> Option<ScenarioConfig> {
        if faults.len() >= current.faults.len() {
            return None;
        }
        let mut candidate = current.clone();
        candidate.faults = faults;
        if candidate.validate().is_err() {
            return None;
        }
        *replays += 1;
        still_fails(&candidate).then_some(candidate)
    }

    let mut current = config.clone();
    let mut replays = 0u64;

    loop {
        let before = signature(&current);

        // Pass 1: ddmin event dropping.
        let mut chunk = current.faults.len().div_ceil(2).max(1);
        while chunk >= 1 {
            let mut i = 0;
            while i < current.faults.len() && current.faults.len() > 1 {
                let mut faults = current.faults.clone();
                faults.drain(i..(i + chunk).min(faults.len()));
                match try_candidate(faults, &current, &mut replays, still_fails) {
                    Some(smaller) => current = smaller, // retry same index
                    None => i += chunk,
                }
            }
            if chunk == 1 {
                break;
            }
            chunk /= 2;
        }

        // Pass 2: shorten damage windows by moving heals earlier.
        // Every schedule held here was replayed, so it passed validation
        // and the walk pairs all of its windows.
        let pairs = damage_windows(&current.faults).unwrap_or_default();
        for (damage_idx, heal_idx) in pairs {
            let lo = current.faults[damage_idx].at.as_micros();
            let mut hi = current.faults[heal_idx].at.as_micros();
            // Binary-search the earliest heal instant that still fails.
            while hi - lo > 1_000_000 {
                let mid = lo + (hi - lo) / 2;
                let mut faults = current.faults.clone();
                faults[heal_idx].at = SimTime::from_micros(mid);
                faults.sort_by_key(|f| f.at);
                let mut candidate = current.clone();
                candidate.faults = faults;
                if candidate.validate().is_err() {
                    break;
                }
                replays += 1;
                if still_fails(&candidate) {
                    current = candidate;
                    hi = mid;
                } else {
                    break; // shorter windows only get weaker
                }
            }
        }

        // Pass 3: merge adjacent same-kind windows on the same target.
        let mut merged = true;
        while merged {
            merged = false;
            let pairs = damage_windows(&current.faults).unwrap_or_default();
            'outer: for w in 0..pairs.len() {
                for v in 0..pairs.len() {
                    if w == v {
                        continue;
                    }
                    let (d1, h1) = pairs[w];
                    let (d2, _h2) = pairs[v];
                    let (f1, f2) = (&current.faults[d1], &current.faults[d2]);
                    let same_target = f1.target == f2.target && f1.kind.heal() == f2.kind.heal();
                    // Window w ends right before window v begins: drop
                    // the inner heal + damage, fusing the two windows.
                    if same_target && current.faults[h1].at <= current.faults[d2].at {
                        let mut faults = current.faults.clone();
                        let mut kill = [h1, d2];
                        kill.sort_unstable();
                        faults.remove(kill[1]);
                        faults.remove(kill[0]);
                        if let Some(smaller) =
                            try_candidate(faults, &current, &mut replays, still_fails)
                        {
                            current = smaller;
                            merged = true;
                            break 'outer;
                        }
                    }
                }
            }
        }

        if signature(&current) == before {
            return Shrunk {
                config: current,
                replays,
            };
        }
    }
}

/// Cheap structural fingerprint used to detect the fixed point.
fn signature(config: &ScenarioConfig) -> (usize, u64) {
    (
        config.faults.len(),
        config
            .faults
            .iter()
            .map(|f| f.at.as_micros())
            .fold(0u64, |acc, t| acc.wrapping_mul(31).wrapping_add(t)),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use aqf_sim::SimDuration;
    use aqf_workload::{FaultKind, FaultTarget};

    fn config_with(faults: Vec<FaultEvent>) -> ScenarioConfig {
        let mut c = ScenarioConfig::paper_validation(200, 0.9, 2, 5);
        c.run_limit = SimDuration::from_secs(1000);
        c.faults = faults;
        c.validate().expect("test schedule is valid");
        c
    }

    fn fault(at: u64, target: FaultTarget, kind: FaultKind) -> FaultEvent {
        FaultEvent {
            at: SimTime::from_secs(at),
            target,
            kind,
        }
    }

    #[test]
    fn drops_irrelevant_events() {
        // "Fails" iff the Crash on Primary(1) is present.
        let config = config_with(vec![
            fault(
                10,
                FaultTarget::Secondary(0),
                FaultKind::Degrade { factor: 3.0 },
            ),
            fault(20, FaultTarget::Primary(1), FaultKind::Crash),
            fault(30, FaultTarget::Secondary(1), FaultKind::Lossy { p: 0.3 }),
            fault(40, FaultTarget::Primary(1), FaultKind::Restart),
            fault(50, FaultTarget::Secondary(0), FaultKind::RestoreGray),
            fault(60, FaultTarget::Secondary(1), FaultKind::RestoreGray),
        ]);
        let mut fails = |c: &ScenarioConfig| {
            c.faults
                .iter()
                .any(|f| f.target == FaultTarget::Primary(1) && matches!(f.kind, FaultKind::Crash))
        };
        let shrunk = shrink(&config, &mut fails);
        assert!(
            shrunk.config.faults.len() <= 2,
            "kept {:?}",
            shrunk.config.faults
        );
        assert!(shrunk
            .config
            .faults
            .iter()
            .any(|f| matches!(f.kind, FaultKind::Crash)));
        assert!(shrunk.config.validate().is_ok());
    }

    #[test]
    fn shortens_windows() {
        let config = config_with(vec![
            fault(10, FaultTarget::Secondary(0), FaultKind::Isolate),
            fault(500, FaultTarget::Secondary(0), FaultKind::Reconnect),
        ]);
        // Fails as long as the isolation covers t=12s.
        let mut fails = |c: &ScenarioConfig| {
            let from = c
                .faults
                .iter()
                .find(|f| matches!(f.kind, FaultKind::Isolate))
                .map(|f| f.at.as_micros());
            let to = c
                .faults
                .iter()
                .find(|f| matches!(f.kind, FaultKind::Reconnect))
                .map(|f| f.at.as_micros());
            matches!((from, to), (Some(f), Some(t)) if f <= 12_000_000 && t >= 12_000_000)
        };
        let shrunk = shrink(&config, &mut fails);
        let heal_at = shrunk
            .config
            .faults
            .iter()
            .find(|f| matches!(f.kind, FaultKind::Reconnect))
            .expect("heal survives")
            .at
            .as_micros();
        assert!(
            heal_at <= 14_000_000,
            "window not shortened: heals at {heal_at}µs"
        );
        assert!(shrunk.config.validate().is_ok());
    }

    #[test]
    fn merges_adjacent_windows() {
        let config = config_with(vec![
            fault(10, FaultTarget::Primary(0), FaultKind::Crash),
            fault(20, FaultTarget::Primary(0), FaultKind::Restart),
            fault(21, FaultTarget::Primary(0), FaultKind::Crash),
            fault(30, FaultTarget::Primary(0), FaultKind::Restart),
        ]);
        // Fails as long as Primary(0) is down at t=15s and t=25s.
        let mut fails = |c: &ScenarioConfig| {
            let down_at = |t: u64| {
                let mut down = false;
                let mut order: Vec<&FaultEvent> = c.faults.iter().collect();
                order.sort_by_key(|f| f.at);
                for f in order {
                    if f.at.as_micros() > t {
                        break;
                    }
                    match f.kind {
                        FaultKind::Crash => down = true,
                        FaultKind::Restart => down = false,
                        _ => {}
                    }
                }
                down
            };
            down_at(15_000_000) && down_at(25_000_000)
        };
        let shrunk = shrink(&config, &mut fails);
        assert!(
            shrunk.config.faults.len() <= 3,
            "windows not merged: {:?}",
            shrunk.config.faults
        );
        assert!(shrunk.config.validate().is_ok());
    }
}
