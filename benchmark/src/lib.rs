//! The repo benchmark: four named workloads, end-to-end metrics from a timed
//! pass with tracing off, per-layer metrics from a step-traced pass. See
//! `README.md` for the contract and `/BENCHMARK.json` for the declaration.
//!
//! One process measures one workload in one pass, single-threaded.

pub mod alloc;
pub mod cycle;
pub mod layers;
pub mod metrics;
pub mod passes;
pub mod runloop;
pub mod speed;
pub mod workloads;

use passes::Options;
use std::process::ExitCode;
use std::time::Instant;

/// Any other seed must work too; this one is only the default.
const DEFAULT_SEED: u64 = 2002;
const DEFAULT_SECONDS: f64 = 20.0;

const USAGE: &str =
    "usage: bench --workload <paper-fig4|write-stream|bigworld-churn|chaos-corpus> \
[--seed N] [--seconds S] [--trace 0|1] [--quick]";

struct Args {
    options: Options,
    trace: bool,
}

fn parse(args: &[String]) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) =
        (None, DEFAULT_SEED, DEFAULT_SECONDS, false);
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                workload =
                    Some(workloads::by_name(name).ok_or(format!("unknown workload {name}"))?);
            }
            "--seed" => seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(0.0..=3600.0).contains(&seconds) {
                    return Err(format!("--seconds {seconds} out of range"));
                }
            }
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                }
            }
            "--quick" => seconds = 0.0,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(Args {
        options: Options {
            workload: workload.ok_or("--workload is required")?,
            seed,
            seconds,
            write_trace_file: true,
        },
        trace,
    })
}

/// Entry point shared by the two binaries. Prints the readable report, then
/// the result object as the last line; exits non-zero if a check failed.
pub fn main() -> ExitCode {
    let process_start = Instant::now();
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let outcome = if args.trace {
        passes::traced(&args.options)
    } else {
        passes::timed(&args.options, process_start)
    };
    print!("{}", outcome.text);
    println!("{}", outcome.to_json());
    if outcome.correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
#[global_allocator]
static TEST_ALLOC: alloc::CountingAlloc = alloc::CountingAlloc;

#[cfg(test)]
mod tests {
    use super::*;
    use aqf_obs::{parse_json, Json};
    use std::collections::BTreeSet;

    fn manifest() -> Json {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        parse_json(&std::fs::read_to_string(path).expect("read BENCHMARK.json"))
            .expect("BENCHMARK.json parses")
    }

    /// `(name, unit, better)` of one section of `/BENCHMARK.json`.
    fn declared(manifest: &Json, section: &str) -> BTreeSet<(String, String, String)> {
        let field = |m: &Json, key: &str| m.as_obj().unwrap()[key].as_str().unwrap().to_owned();
        manifest.as_obj().unwrap()[section]
            .as_arr()
            .unwrap()
            .iter()
            .map(|m| (field(m, "name"), field(m, "unit"), field(m, "better")))
            .collect()
    }

    fn emitted(outcome: &passes::Outcome) -> BTreeSet<(String, String, String)> {
        let json = parse_json(&outcome.to_json()).expect("result line parses");
        let metrics = json.as_obj().unwrap()["metrics"].as_obj().unwrap().clone();
        outcome
            .report
            .rows()
            .into_iter()
            .map(|(name, unit, up, value)| {
                assert!(value.is_finite(), "{name} is {value}");
                let printed = metrics[name].as_obj().unwrap();
                assert_eq!(printed["unit"].as_str(), Some(unit), "{name}");
                let better = if up { "higher" } else { "lower" };
                (name.to_owned(), unit.to_owned(), better.to_owned())
            })
            .collect()
    }

    /// No undeclared metric, no declared metric missing or NaN, in either
    /// pass: a `--quick` run emits exactly what `/BENCHMARK.json` declares.
    #[test]
    fn quick_run_emits_exactly_the_declared_metrics() {
        let manifest = manifest();
        let options = Options {
            workload: workloads::by_name("write-stream").unwrap(),
            seed: 5,
            seconds: 0.0,
            write_trace_file: false,
        };
        let timed = passes::timed(&options, Instant::now());
        assert!(timed.correct, "{}", timed.text);
        assert_eq!(emitted(&timed), declared(&manifest, "end_to_end"));
        let traced = passes::traced(&options);
        assert!(traced.correct, "{}", traced.text);
        assert_eq!(emitted(&traced), declared(&manifest, "per_layer"));
    }

    #[test]
    fn manifest_names_the_workloads_and_this_directory() {
        let manifest = manifest();
        let top = manifest.as_obj().unwrap();
        let names: Vec<&str> = top["workloads"]
            .as_arr()
            .unwrap()
            .iter()
            .map(|w| w.as_obj().unwrap()["name"].as_str().unwrap())
            .collect();
        let ours: Vec<&str> = workloads::WORKLOADS.iter().map(|w| w.name).collect();
        assert_eq!(names, ours);
        assert_eq!(
            top["paths"].as_arr().unwrap(),
            [Json::Str("benchmark".into())]
        );
        assert_eq!(top["run_seconds"].as_u64(), Some(DEFAULT_SECONDS as u64));
    }

    #[test]
    fn arguments_are_checked() {
        let args = |s: &str| s.split_whitespace().map(str::to_owned).collect::<Vec<_>>();
        let ok = parse(&args(
            "--workload chaos-corpus --seed 9 --seconds 3 --trace 1",
        ))
        .unwrap();
        assert!(ok.trace);
        assert_eq!(
            (
                ok.options.workload.name,
                ok.options.seed,
                ok.options.seconds
            ),
            ("chaos-corpus", 9, 3.0)
        );
        assert_eq!(
            parse(&args("--workload write-stream --quick"))
                .unwrap()
                .options
                .seconds,
            0.0
        );
        for bad in [
            "",
            "--workload nope",
            "--workload write-stream --trace 2",
            "--workload write-stream --seed x",
            "--workload write-stream --seconds -1",
            "--workload write-stream --frobnicate",
            "--workload",
        ] {
            assert!(parse(&args(bad)).is_err(), "{bad:?} must be refused");
        }
    }
}
