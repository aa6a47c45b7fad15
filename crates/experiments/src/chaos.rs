//! EXT-CHAOS: seeded fault-schedule search judged by the consistency and
//! timeliness oracles.
//!
//! `chaos-search` sweeps `--iters` schedule seeds per ordering profile
//! (sequential register, causal register, FIFO banking with durable
//! storage), replays each generated schedule traced, and judges the
//! history its trace records with every applicable oracle. On an
//! unmutated build every seed must replay clean; any violation is printed
//! with enough detail to re-run and shrink it. The profiles are the fixed
//! corpus's ([`aqf_chaos::corpus`]), which the tier-1 tests replay clean.

use aqf_chaos::{corpus, search, OracleOptions, ScheduleBudget, SearchReport};

use crate::table::{Output, Table};

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
    for p in corpus::profiles() {
        let start = seed + p.first_seed;
        let report = search(&p.base, &budget, start, u64::from(iters), &opts);
        let faults: usize = report.outcomes.iter().map(|o| o.num_faults).sum();
        let failing = report.failures().count();
        total_failing += failing;
        table.row(vec![
            p.name.to_string(),
            format!("{start}..{}", start + u64::from(iters)),
            faults.to_string(),
            (report.outcomes.len() - failing).to_string(),
            failing.to_string(),
            report.total_violations().to_string(),
        ]);
        print_failures(p.name, &report);
        if let Some(dir) = out.csv_dir() {
            let _ = std::fs::create_dir_all(dir);
            for (ext, text) in [("json", report.to_json()), ("csv", report.to_csv())] {
                let path = dir.join(format!("chaos_{}.{ext}", p.name));
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
