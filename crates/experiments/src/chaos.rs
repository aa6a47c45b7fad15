//! EXT-CHAOS: seeded fault-schedule search judged by the consistency and
//! timeliness oracles.
//!
//! `chaos-search` sweeps `--iters` schedule seeds per ordering profile
//! (sequential register, causal register, FIFO banking with durable
//! storage), replays each generated schedule traced, and judges the
//! history its trace records with every applicable oracle. On an
//! unmutated build every seed must replay clean; any violation is printed
//! with enough detail to re-run and shrink it.
//!
//! `chaos-smoke` is the CI gate: a fixed-seed subset (≥50 schedules)
//! asserting zero violations, plus a double replay of the checked-in
//! minimized repro `results/chaos_repro.json` asserting bit-identical
//! digests.

use std::path::PathBuf;

use aqf_chaos::{
    config_from_json, replay_and_judge, search, OracleOptions, ScheduleBudget, SearchReport,
};
use aqf_core::{OrderingGuarantee, StorageConfig};
use aqf_sim::SimDuration;
use aqf_workload::{ObjectKind, ScenarioConfig};

use crate::table::{Output, Table};

/// The corpus's shared deployment shape: the paper's 11-server layout with
/// fast failure detection and a workload that spans the fault window.
/// Mirrors the fixed corpus in `crates/chaos/tests/corpus.rs`.
fn corpus_base(seed: u64) -> ScenarioConfig {
    let mut c = ScenarioConfig::paper_validation(200, 0.9, 2, seed).with_fast_detection();
    c.run_limit = SimDuration::from_secs(250);
    for spec in &mut c.clients {
        spec.total_requests = 60;
        spec.request_delay = SimDuration::from_millis(600);
    }
    c
}

/// The three ordering profiles swept by the search, each with its own
/// disjoint schedule-seed block.
fn profiles() -> Vec<(&'static str, ScenarioConfig, u64)> {
    let sequential = corpus_base(101);

    let mut causal = corpus_base(202);
    causal.ordering = OrderingGuarantee::Causal;
    for spec in &mut causal.clients {
        spec.qos.staleness_threshold = 10;
    }

    let mut fifo = corpus_base(303);
    fifo.ordering = OrderingGuarantee::Fifo;
    fifo.object = ObjectKind::Bank;
    fifo.storage = StorageConfig::durable();

    vec![
        ("sequential", sequential, 0),
        ("causal", causal, 1000),
        ("fifo-bank", fifo, 2000),
    ]
}

fn print_failures(name: &str, report: &SearchReport) {
    for outcome in report.failures() {
        println!(
            "  FAIL profile {name} seed {} ({} faults, digest {}):",
            outcome.seed, outcome.num_faults, outcome.digest
        );
        for v in &outcome.violations {
            println!(
                "    [{}] client {} seq {}: {}",
                v.oracle.name(),
                v.client,
                v.seq,
                v.detail
            );
        }
    }
}

/// Full search: `iters` seeds per profile starting at `seed` plus the
/// profile's block offset. Writes `chaos_<profile>.{json,csv}` reports
/// next to the CSV tables when `--csv` is given.
pub fn run(seed: u64, iters: u32, out: &Output) {
    let budget = ScheduleBudget::quick();
    let opts = OracleOptions::default();
    let mut table = Table::new(
        "EXT-CHAOS: seeded fault-schedule search (oracle-judged replays)",
        &[
            "profile",
            "seeds",
            "fault events",
            "clean",
            "failing",
            "violations",
        ],
    );
    let mut total_failing = 0usize;
    for (name, base, block) in profiles() {
        let start = seed + block;
        let report = search(&base, &budget, start, u64::from(iters), &opts);
        let faults: usize = report.outcomes.iter().map(|o| o.num_faults).sum();
        let failing = report.failures().count();
        total_failing += failing;
        table.row(vec![
            name.to_string(),
            format!("{start}..{}", start + u64::from(iters)),
            faults.to_string(),
            (report.outcomes.len() - failing).to_string(),
            failing.to_string(),
            report.total_violations().to_string(),
        ]);
        print_failures(name, &report);
        if let Some(dir) = out.csv_dir() {
            let _ = std::fs::create_dir_all(dir);
            for (ext, text) in [("json", report.to_json()), ("csv", report.to_csv())] {
                let path = dir.join(format!("chaos_{name}.{ext}"));
                match std::fs::write(&path, text) {
                    Ok(()) => eprintln!("[chaos] wrote {}", path.display()),
                    Err(e) => eprintln!("cannot write {}: {e}", path.display()),
                }
            }
        }
    }
    out.emit(&table, "ext_chaos");
    if total_failing > 0 {
        println!(
            "\n{total_failing} seed(s) violated an oracle — each replays deterministically; \
             shrink with aqf_chaos::minimize for a minimal repro"
        );
    }
}

/// Resolves the checked-in minimized repro, whether the binary runs from
/// the repo root (CI) or anywhere else (falls back to the source tree).
fn repro_path() -> PathBuf {
    let local = PathBuf::from("results/chaos_repro.json");
    if local.exists() {
        return local;
    }
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../results/chaos_repro.json")
}

/// CI smoke: a fixed-seed corpus subset (≥50 schedules across the three
/// profiles) must replay with zero oracle violations, and the checked-in
/// minimized repro must replay twice with bit-identical digests.
///
/// # Panics
///
/// Panics on any oracle violation, on a missing or malformed repro
/// artifact, or if the repro's two replays diverge.
pub fn smoke(_seed: u64) {
    let budget = ScheduleBudget::quick();
    let opts = OracleOptions::default();

    // The seed blocks are fixed (not --seed derived): this is a regression
    // corpus, and a violation must point at a reproducible schedule.
    let mut swept = 0u64;
    for (name, base, block) in profiles() {
        let count = if block == 0 { 30 } else { 12 };
        let report = search(&base, &budget, block, count, &opts);
        swept += count;
        print_failures(name, &report);
        assert_eq!(
            report.failures().count(),
            0,
            "chaos smoke: profile {name} tripped an oracle (see above)"
        );
        println!(
            "chaos smoke: profile {name} clean over seeds {block}..{} ({} fault events)",
            block + count,
            report.outcomes.iter().map(|o| o.num_faults).sum::<usize>()
        );
    }
    assert!(swept >= 50, "chaos smoke swept only {swept} schedules");

    // The minimized repro artifact is self-contained: parse, replay twice,
    // demand bit-identical digests. (It reproduces a causal read-path bug
    // only under `--features mutation`; an unmutated build replays clean.)
    let path = repro_path();
    let text = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("chaos smoke: cannot read {}: {e}", path.display()));
    let config = config_from_json(&text)
        .unwrap_or_else(|e| panic!("chaos smoke: malformed {}: {e}", path.display()));
    let (digest_a, viol_a) = replay_and_judge(&config, &opts);
    let (digest_b, viol_b) = replay_and_judge(&config, &opts);
    assert_eq!(
        digest_a, digest_b,
        "chaos smoke: repro replays diverged ({digest_a} vs {digest_b})"
    );
    assert_eq!(viol_a.len(), viol_b.len());
    assert!(
        viol_a.is_empty(),
        "chaos smoke: repro violates an oracle on an unmutated build: {viol_a:?}"
    );
    println!(
        "chaos smoke: repro {} replays bit-identically (digest {digest_a}, {} fault events)",
        path.display(),
        config.faults.len()
    );
}
