//! Experiment harness regenerating every figure of the paper's evaluation
//! (§6) plus the extension studies indexed in `DESIGN.md` §10.2.
//!
//! ```text
//! aqf-experiments <command> [--seed N] [--iters N]
//!
//! commands:
//!   fig3           selection-algorithm CPU overhead (Figure 3)
//!   fig4           both validation figures (Figure 4a + 4b)
//!   fig4a          average number of replicas selected (Figure 4a)
//!   fig4b          observed timing-failure probability (Figure 4b)
//!   sweep-lui      lazy-update-interval sweep (EXT-LUI)
//!   sweep-reqdelay request-delay sweep (EXT-REQD)
//!   hotspot        selection-policy load-balance ablation (EXT-HOT)
//!   failures       crash/gray-fault injection suite (EXT-FAIL)
//!   admission      admission-control extension (EXT-ADM)
//!   ordering       sequential vs causal vs FIFO handler comparison (EXT-ORD)
//!   staleness      the staleness estimator under bursty updates (EXT-STALE)
//!   overload       overload-protection goodput retention (EXT-OVL)
//!   durability     crash recovery with and without the write-ahead log (EXT-DUR)
//!   chaos-search   seeded fault-schedule search judged by oracles (EXT-CHAOS)
//!   all            everything above
//! ```
//!
//! With `--trace-out DIR`, a representative observed scenario is
//! additionally captured and its trace written as `<command>.trace.jsonl`.

mod admission;
mod chaos;
mod durability;
mod failures;
mod fig3;
mod fig4;
mod hotspot;
mod obsout;
mod ordering;
mod overload;
mod pool;
mod staleness;
mod sweeps;
mod table;

use std::env;
use std::process::ExitCode;

struct Args {
    command: String,
    seed: u64,
    iters: u32,
    csv_dir: Option<std::path::PathBuf>,
    trace_dir: Option<std::path::PathBuf>,
}

fn parse_args() -> Result<Args, String> {
    let mut args = env::args().skip(1);
    let command = args.next().ok_or_else(usage)?;
    let mut seed = 7;
    let mut iters = 200;
    let mut csv_dir = None;
    let mut trace_dir = None;
    while let Some(flag) = args.next() {
        match flag.as_str() {
            "--csv" => {
                csv_dir = Some(std::path::PathBuf::from(
                    args.next().ok_or("--csv needs a directory")?,
                ));
            }
            "--trace-out" => {
                trace_dir = Some(std::path::PathBuf::from(
                    args.next().ok_or("--trace-out needs a directory")?,
                ));
            }
            "--seed" => {
                seed = args
                    .next()
                    .ok_or("--seed needs a value")?
                    .parse()
                    .map_err(|e| format!("bad seed: {e}"))?;
            }
            "--iters" => {
                iters = args
                    .next()
                    .ok_or("--iters needs a value")?
                    .parse()
                    .map_err(|e| format!("bad iters: {e}"))?;
            }
            other => return Err(format!("unknown flag {other}\n{}", usage())),
        }
    }
    Ok(Args {
        command,
        seed,
        iters,
        csv_dir,
        trace_dir,
    })
}

fn usage() -> String {
    "usage: aqf-experiments <fig3|fig4|fig4a|fig4b|sweep-lui|sweep-reqdelay|hotspot|failures|admission|ordering|staleness|overload|durability|chaos-search|all> [--seed N] [--iters N] [--csv DIR] [--trace-out DIR]".to_string()
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::FAILURE;
        }
    };
    let t0 = std::time::Instant::now();
    let out = table::Output::new(args.csv_dir.clone());
    match args.command.as_str() {
        "fig3" => {
            fig3::run(args.iters, &out);
        }
        "fig4" => {
            let points = fig4::run_grid(args.seed);
            fig4::print_fig4a(&points, &out);
            fig4::print_fig4b(&points, &out);
        }
        "fig4a" => {
            let points = fig4::run_grid(args.seed);
            fig4::print_fig4a(&points, &out);
        }
        "fig4b" => {
            let points = fig4::run_grid(args.seed);
            fig4::print_fig4b(&points, &out);
        }
        "sweep-lui" => sweeps::sweep_lui(args.seed, &out),
        "sweep-reqdelay" => sweeps::sweep_request_delay(args.seed, &out),
        "hotspot" => hotspot::run(args.seed, &out),
        "failures" => failures::run(args.seed, &out),
        "admission" => admission::run(args.seed, &out),
        "ordering" => ordering::run(args.seed, &out),
        "staleness" => staleness::run(args.seed, &out),
        "overload" => overload::run(args.seed, &out),
        "durability" => durability::run(args.seed, &out),
        "chaos-search" => chaos::run(args.seed, args.iters, &out),
        "all" => {
            fig3::run(args.iters, &out);
            let points = fig4::run_grid(args.seed);
            fig4::print_fig4a(&points, &out);
            fig4::print_fig4b(&points, &out);
            sweeps::sweep_lui(args.seed, &out);
            sweeps::sweep_request_delay(args.seed, &out);
            hotspot::run(args.seed, &out);
            failures::run(args.seed, &out);
            admission::run(args.seed, &out);
            ordering::run(args.seed, &out);
            staleness::run(args.seed, &out);
            overload::run(args.seed, &out);
            durability::run(args.seed, &out);
            chaos::run(args.seed, args.iters, &out);
        }
        _ => {
            eprintln!("{}", usage());
            return ExitCode::FAILURE;
        }
    }
    let obsout = obsout::ObsOut::new(args.trace_dir);
    if let Err(e) = obsout.capture(&args.command, &obsout::traced_config(args.seed)) {
        eprintln!("artifact capture failed: {e}");
        return ExitCode::FAILURE;
    }
    eprintln!("\n[done in {:.1?}]", t0.elapsed());
    ExitCode::SUCCESS
}
