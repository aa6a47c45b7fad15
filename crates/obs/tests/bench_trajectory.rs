//! `results/BENCH_trajectory.jsonl`, the repo benchmark's trajectory: one
//! line per measured change, read and re-written through the artifact
//! codec.
//!
//! A line holds the change's number, kind, commit and the parent it was
//! measured against, how many alternating pairs were run, their timed
//! window and seeds, where the numbers were first published, one row per
//! workload and end-to-end metric, and the traced counts at seed 2002 the
//! change quoted. A row holds the parent's and the change's medians (with
//! quartiles and wins where published), or only their ratio where that is
//! all that was published; an unpublished value is `null`. The bounds live
//! in `BENCHMARK.json` alone. A change that runs pairs appends one line.

use aqf_obs::json::{parse_json, write_object, Fields, Json, ObjWriter};
use std::path::Path;

struct Entry {
    pr: u64,
    kind: Option<String>,
    commit: String,
    parent: String,
    pairs: u64,
    window_s: u64,
    seeds: String,
    source: String,
    rows: Vec<Row>,
    traced: Vec<Traced>,
}

/// One workload × end-to-end metric.
struct Row {
    workload: String,
    metric: String,
    parent: Option<f64>,
    parent_q1: Option<f64>,
    parent_q3: Option<f64>,
    change: Option<f64>,
    change_q1: Option<f64>,
    change_q3: Option<f64>,
    ratio: Option<f64>,
    wins: Option<u64>,
}

/// One workload × per-layer count of the traced pass at seed 2002.
struct Traced {
    workload: String,
    metric: String,
    parent: f64,
    change: f64,
}

/// `None` for a `null` field, else the field read by `get`.
fn nullable<'a, T>(
    f: Fields<'a>,
    key: &str,
    get: impl FnOnce(Fields<'a>, &str) -> Result<T, String>,
) -> Result<Option<T>, String> {
    Ok(if f.is_null(key)? {
        None
    } else {
        Some(get(f, key)?)
    })
}

fn opt_f64(f: Fields<'_>, key: &str) -> Result<Option<f64>, String> {
    nullable(f, key, Fields::f64)
}

fn objects<'a>(f: Fields<'a>, key: &str) -> Result<Vec<Fields<'a>>, String> {
    f.arr(key)?.iter().map(Fields::of).collect()
}

impl Entry {
    fn from_json(v: &Json) -> Result<Self, String> {
        let f = Fields::of(v)?;
        let rows = objects(f, "rows")?
            .into_iter()
            .map(|r| {
                Ok(Row {
                    workload: r.str("workload")?.to_string(),
                    metric: r.str("metric")?.to_string(),
                    parent: opt_f64(r, "parent")?,
                    parent_q1: opt_f64(r, "parent_q1")?,
                    parent_q3: opt_f64(r, "parent_q3")?,
                    change: opt_f64(r, "change")?,
                    change_q1: opt_f64(r, "change_q1")?,
                    change_q3: opt_f64(r, "change_q3")?,
                    ratio: opt_f64(r, "ratio")?,
                    wins: nullable(r, "wins", Fields::uint)?,
                })
            })
            .collect::<Result<_, String>>()?;
        let traced = objects(f, "traced")?
            .into_iter()
            .map(|t| {
                Ok(Traced {
                    workload: t.str("workload")?.to_string(),
                    metric: t.str("metric")?.to_string(),
                    parent: t.f64("parent")?,
                    change: t.f64("change")?,
                })
            })
            .collect::<Result<_, String>>()?;
        Ok(Entry {
            pr: f.uint("pr")?,
            kind: nullable(f, "kind", Fields::str)?.map(str::to_string),
            commit: f.str("commit")?.to_string(),
            parent: f.str("parent")?.to_string(),
            pairs: f.uint("pairs")?,
            window_s: f.uint("window_s")?,
            seeds: f.str("seeds")?.to_string(),
            source: f.str("source")?.to_string(),
            rows,
            traced,
        })
    }

    fn render(&self) -> String {
        fn opt(o: &mut ObjWriter<'_>, key: &str, v: Option<f64>) {
            match v {
                Some(v) => o.f64(key, v),
                None => o.null(key),
            }
        }
        let mut out = String::new();
        write_object(&mut out, |o| {
            o.u64("pr", self.pr);
            match &self.kind {
                Some(k) => o.str("kind", k),
                None => o.null("kind"),
            }
            o.str("commit", &self.commit);
            o.str("parent", &self.parent);
            o.u64("pairs", self.pairs);
            o.u64("window_s", self.window_s);
            o.str("seeds", &self.seeds);
            o.str("source", &self.source);
            o.objs("rows", &self.rows, |r, o| {
                o.str("workload", &r.workload);
                o.str("metric", &r.metric);
                opt(o, "parent", r.parent);
                opt(o, "parent_q1", r.parent_q1);
                opt(o, "parent_q3", r.parent_q3);
                opt(o, "change", r.change);
                opt(o, "change_q1", r.change_q1);
                opt(o, "change_q3", r.change_q3);
                opt(o, "ratio", r.ratio);
                match r.wins {
                    Some(w) => o.u64("wins", w),
                    None => o.null("wins"),
                }
            });
            o.objs("traced", &self.traced, |t, o| {
                o.str("workload", &t.workload);
                o.str("metric", &t.metric);
                o.f64("parent", t.parent);
                o.f64("change", t.change);
            });
        });
        out
    }
}

/// The names one section of `BENCHMARK.json` declares.
fn declared(bench: &Json, section: &str) -> Vec<String> {
    let f = Fields::of(bench).expect("BENCHMARK.json is an object");
    f.arr(section)
        .unwrap_or_else(|e| panic!("BENCHMARK.json: {e}"))
        .iter()
        .map(|v| {
            let item = Fields::of(v).expect("a declared item is an object");
            item.str("name")
                .expect("a declared item has a name")
                .to_string()
        })
        .collect()
}

/// Every fault the trajectory can have, one message per fault.
fn check(trajectory: &str, bench: &Json) -> Vec<String> {
    let workloads = declared(bench, "workloads");
    let end_to_end = declared(bench, "end_to_end");
    let per_layer = declared(bench, "per_layer");
    let mut faults = Vec::new();
    let mut last_pr = 0;
    for (n, line) in trajectory.lines().enumerate() {
        let n = n + 1;
        let entry = match parse_json(line).and_then(|v| Entry::from_json(&v)) {
            Ok(e) => e,
            Err(e) => {
                faults.push(format!("line {n}: {e}"));
                continue;
            }
        };
        let at = format!("line {n} (PR {})", entry.pr);
        if entry.render() != line {
            faults.push(format!("{at}: does not re-render byte for byte"));
        }
        if entry.pr <= last_pr {
            faults.push(format!("{at}: PR numbers must strictly increase"));
        }
        last_pr = entry.pr;
        if entry.pairs == 0 || entry.rows.is_empty() {
            faults.push(format!("{at}: no pairs or no rows"));
        }
        for r in &entry.rows {
            let at = format!("{at}, {} {}", r.workload, r.metric);
            if !workloads.contains(&r.workload) {
                faults.push(format!("{at}: workload not in BENCHMARK.json"));
            }
            if !end_to_end.contains(&r.metric) {
                faults.push(format!("{at}: not an end-to-end metric of BENCHMARK.json"));
            }
            if r.wins.is_some_and(|w| w > entry.pairs) {
                faults.push(format!("{at}: more wins than pairs"));
            }
            let medians = r.parent.is_some() && r.change.is_some();
            if medians == r.ratio.is_some() {
                faults.push(format!("{at}: needs both medians or else a ratio"));
            }
            let orphan_quartile = (r.parent.is_none()
                && (r.parent_q1.is_some() || r.parent_q3.is_some()))
                || (r.change.is_none() && (r.change_q1.is_some() || r.change_q3.is_some()));
            if orphan_quartile {
                faults.push(format!("{at}: quartiles without their median"));
            }
        }
        for t in &entry.traced {
            if !workloads.contains(&t.workload) || !per_layer.contains(&t.metric) {
                faults.push(format!(
                    "{at}: traced {} {} not declared in BENCHMARK.json",
                    t.workload, t.metric
                ));
            }
        }
    }
    faults
}

fn repo_file(name: &str) -> String {
    let path = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .join(name);
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{}: {e}", path.display()))
}

fn benchmark_json() -> Json {
    parse_json(&repo_file("BENCHMARK.json")).expect("BENCHMARK.json parses")
}

#[test]
fn trajectory_round_trips_and_names_only_declared_workloads_and_metrics() {
    let trajectory = repo_file("results/BENCH_trajectory.jsonl");
    assert!(trajectory.ends_with('\n'), "one line per entry");
    let faults = check(&trajectory, &benchmark_json());
    assert!(faults.is_empty(), "{}", faults.join("\n"));
}

#[test]
fn checker_rejects_each_kind_of_fault() {
    let bench = benchmark_json();
    let good = r#"{"pr":1,"kind":null,"commit":"a","parent":"b","pairs":3,"window_s":20,"seeds":"1-3","source":"s","rows":[{"workload":"write-stream","metric":"setup_s","parent":0.5,"parent_q1":null,"parent_q3":null,"change":0.4,"change_q1":null,"change_q3":null,"ratio":null,"wins":3}],"traced":[{"workload":"write-stream","metric":"alloc.allocs_per_event","parent":1.5,"change":1}]}"#;
    assert!(check(good, &bench).is_empty(), "{:?}", check(good, &bench));
    for (bad, why) in [
        (good.replace("setup_s", "setup_ms"), "end-to-end metric"),
        (good.replace("write-stream", "read-stream"), "workload"),
        (good.replace("\"wins\":3", "\"wins\":4"), "more wins"),
        (
            good.replace("\"change\":0.4", "\"change\":null"),
            "both medians",
        ),
        (
            good.replace("\"ratio\":null", "\"ratio\":0.8"),
            "both medians",
        ),
        (
            good.replace("\"parent\":0.5", "\"parent\":0.50"),
            "re-render",
        ),
        (format!("{good}\n{good}"), "strictly increase"),
    ] {
        let faults = check(&bad, &bench);
        assert!(
            faults.iter().any(|f| f.contains(why)),
            "expected a fault naming {why:?}, got {faults:?}"
        );
    }
}
