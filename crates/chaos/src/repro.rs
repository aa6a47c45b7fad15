//! Minimal-repro artifacts: a shrunk schedule is saved as the *entire*
//! [`ScenarioConfig`](aqf_workload::ScenarioConfig), so replaying it later
//! needs no out-of-band profile. The codec lives beside the config it
//! describes, in [`aqf_workload::repro`]; this module re-exports it where
//! the chaos tooling has always found it.

pub use aqf_workload::repro::{config_from_json, config_to_json};

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generator::{generate_faults, ScheduleBudget};
    use aqf_workload::ScenarioConfig;

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
}
