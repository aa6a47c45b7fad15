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
//!
//! A second kind of line, marked by its `tier1` key (the command timed),
//! records the tier-1 suite's wall time at the change and its parent: the
//! median of `runs` runs of the whole command, and per test binary the
//! median of the `finished in` its `test result` line prints, named as
//! cargo names the binary (`group_sim`, `aqf_core (lib)`,
//! `aqf_core (doc)`). A binary one side lacks is `null` there. A change
//! that times the suite appends one such line. The change's median must
//! stay within [`TIER1_BUDGET_S`].
//!
//! A third kind, marked by its `anchor` key (a fixed old commit), holds
//! [`ANCHOR_PAIRS`] alternating runs of that commit and of the change's
//! head on every workload, for one higher-is-better end-to-end metric:
//! same-day pairs against one fixed point, so a slow drift across changes
//! shows where each line's own parent hides it. The medians and the
//! anchor's quartiles are recomputed from the runs. A head whose median
//! falls below the anchor's by more than the anchor runs' interquartile
//! distance must name the PR that paid for the loss (`paid_by`, after the
//! anchor's PR); a line names no payer for a loss it does not show.

use aqf_obs::json::{parse_json, write_object, Fields, Json, ObjWriter};
use std::path::Path;

/// How many alternating anchor/head pairs an anchor line holds per
/// workload.
const ANCHOR_PAIRS: usize = 10;

/// The tier-1 suite's time budget: at most this many seconds of wall time
/// (`change_s`) on a 2-core machine, the test build done.
const TIER1_BUDGET_S: f64 = 60.0;

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

/// A tier-1 timing line: the suite's wall time and each test binary's.
struct Tier1 {
    pr: u64,
    command: String,
    commit: String,
    parent: String,
    runs: u64,
    source: String,
    parent_s: f64,
    change_s: f64,
    binaries: Vec<Binary>,
}

/// One test binary's time on each side, `None` where that side lacks it.
struct Binary {
    name: String,
    parent_s: Option<f64>,
    change_s: Option<f64>,
}

impl Tier1 {
    fn from_json(v: &Json) -> Result<Self, String> {
        let f = Fields::of(v)?;
        let binaries = objects(f, "binaries")?
            .into_iter()
            .map(|b| {
                Ok(Binary {
                    name: b.str("binary")?.to_string(),
                    parent_s: opt_f64(b, "parent_s")?,
                    change_s: opt_f64(b, "change_s")?,
                })
            })
            .collect::<Result<_, String>>()?;
        Ok(Tier1 {
            pr: f.uint("pr")?,
            command: f.str("tier1")?.to_string(),
            commit: f.str("commit")?.to_string(),
            parent: f.str("parent")?.to_string(),
            runs: f.uint("runs")?,
            source: f.str("source")?.to_string(),
            parent_s: f.f64("parent_s")?,
            change_s: f.f64("change_s")?,
            binaries,
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
            o.str("tier1", &self.command);
            o.str("commit", &self.commit);
            o.str("parent", &self.parent);
            o.u64("runs", self.runs);
            o.str("source", &self.source);
            o.f64("parent_s", self.parent_s);
            o.f64("change_s", self.change_s);
            o.objs("binaries", &self.binaries, |b, o| {
                o.str("binary", &b.name);
                opt(o, "parent_s", b.parent_s);
                opt(o, "change_s", b.change_s);
            });
        });
        out
    }

    /// Every fault of this line, each prefixed with `at`.
    fn faults(&self, at: &str) -> Vec<String> {
        let mut faults = Vec::new();
        if self.runs == 0 || self.binaries.is_empty() {
            faults.push(format!("{at}: no runs or no binaries"));
        }
        if self.change_s > TIER1_BUDGET_S {
            faults.push(format!(
                "{at}: the suite took {} s, above the tier-1 budget of {TIER1_BUDGET_S} s",
                self.change_s
            ));
        }
        for (i, b) in self.binaries.iter().enumerate() {
            if self.binaries[..i].iter().any(|o| o.name == b.name) {
                faults.push(format!("{at}: binary {} listed twice", b.name));
            }
            if b.parent_s.is_none() && b.change_s.is_none() {
                faults.push(format!(
                    "{at}: binary {} has no time on either side",
                    b.name
                ));
            }
            if b.parent_s.into_iter().chain(b.change_s).any(|t| t < 0.0) {
                faults.push(format!("{at}: binary {} has a negative time", b.name));
            }
        }
        let sum = |time: fn(&Binary) -> Option<f64>| -> f64 {
            self.binaries.iter().filter_map(time).sum()
        };
        for (side, suite, sum) in [
            ("parent", self.parent_s, sum(|b| b.parent_s)),
            ("change", self.change_s, sum(|b| b.change_s)),
        ] {
            if sum > suite {
                faults.push(format!(
                    "{at}: the {side}'s binaries sum to {sum} s, above its suite's {suite} s"
                ));
            }
        }
        faults
    }
}

/// An anchor line: the head against a fixed old commit.
struct Anchor {
    pr: u64,
    anchor: String,
    anchor_pr: u64,
    head: String,
    window_s: u64,
    seeds: String,
    source: String,
    metric: String,
    workloads: Vec<AnchorRuns>,
}

/// One workload's runs, `anchor_runs[i]` and `head_runs[i]` the i-th pair.
struct AnchorRuns {
    workload: String,
    anchor_runs: Vec<u64>,
    head_runs: Vec<u64>,
    anchor_median: f64,
    anchor_q1: f64,
    anchor_q3: f64,
    head_median: f64,
    paid_by: Option<u64>,
}

/// The median of `runs`, and the medians of its lower and upper halves.
fn quartiles(runs: &[u64]) -> (f64, f64, f64) {
    fn median(sorted: &[u64]) -> f64 {
        let n = sorted.len();
        if n == 0 {
            return f64::NAN;
        }
        (sorted[(n - 1) / 2] as f64 + sorted[n / 2] as f64) / 2.0
    }
    let mut sorted = runs.to_vec();
    sorted.sort_unstable();
    let half = sorted.len() / 2;
    (
        median(&sorted[..half]),
        median(&sorted),
        median(&sorted[sorted.len() - half..]),
    )
}

impl AnchorRuns {
    /// Runs whose summaries are recomputed from them.
    fn new(workload: &str, anchor_runs: Vec<u64>, head_runs: Vec<u64>) -> Self {
        let (anchor_q1, anchor_median, anchor_q3) = quartiles(&anchor_runs);
        AnchorRuns {
            workload: workload.to_string(),
            head_median: quartiles(&head_runs).1,
            anchor_runs,
            head_runs,
            anchor_median,
            anchor_q1,
            anchor_q3,
            paid_by: None,
        }
    }

    /// Whether the head's median is below the anchor's by more than the
    /// anchor runs' interquartile distance.
    fn below_anchor(&self) -> bool {
        self.anchor_median - self.head_median > self.anchor_q3 - self.anchor_q1
    }
}

impl Anchor {
    fn from_json(v: &Json) -> Result<Self, String> {
        let f = Fields::of(v)?;
        let workloads = objects(f, "workloads")?
            .into_iter()
            .map(|w| {
                Ok(AnchorRuns {
                    workload: w.str("workload")?.to_string(),
                    anchor_runs: w.u64s("anchor_runs")?,
                    head_runs: w.u64s("head_runs")?,
                    anchor_median: w.f64("anchor_median")?,
                    anchor_q1: w.f64("anchor_q1")?,
                    anchor_q3: w.f64("anchor_q3")?,
                    head_median: w.f64("head_median")?,
                    paid_by: nullable(w, "paid_by", Fields::uint)?,
                })
            })
            .collect::<Result<_, String>>()?;
        Ok(Anchor {
            pr: f.uint("pr")?,
            anchor: f.str("anchor")?.to_string(),
            anchor_pr: f.uint("anchor_pr")?,
            head: f.str("head")?.to_string(),
            window_s: f.uint("window_s")?,
            seeds: f.str("seeds")?.to_string(),
            source: f.str("source")?.to_string(),
            metric: f.str("metric")?.to_string(),
            workloads,
        })
    }

    fn render(&self) -> String {
        let mut out = String::new();
        write_object(&mut out, |o| {
            o.u64("pr", self.pr);
            o.str("anchor", &self.anchor);
            o.u64("anchor_pr", self.anchor_pr);
            o.str("head", &self.head);
            o.u64("window_s", self.window_s);
            o.str("seeds", &self.seeds);
            o.str("source", &self.source);
            o.str("metric", &self.metric);
            o.objs("workloads", &self.workloads, |w, o| {
                o.str("workload", &w.workload);
                o.u64s("anchor_runs", w.anchor_runs.iter().copied());
                o.u64s("head_runs", w.head_runs.iter().copied());
                o.f64("anchor_median", w.anchor_median);
                o.f64("anchor_q1", w.anchor_q1);
                o.f64("anchor_q3", w.anchor_q3);
                o.f64("head_median", w.head_median);
                match w.paid_by {
                    Some(pr) => o.u64("paid_by", pr),
                    None => o.null("paid_by"),
                }
            });
        });
        out
    }

    /// Every fault of this line, each prefixed with `at`. `workloads` and
    /// `higher_better` are what `BENCHMARK.json` declares.
    fn faults(&self, at: &str, workloads: &[String], higher_better: &[String]) -> Vec<String> {
        let mut faults = Vec::new();
        if !higher_better.contains(&self.metric) {
            faults.push(format!(
                "{at}: {} is not a higher-is-better end-to-end metric",
                self.metric
            ));
        }
        if self.anchor_pr >= self.pr {
            faults.push(format!("{at}: the anchor must be older than the line"));
        }
        let named: Vec<&str> = self.workloads.iter().map(|w| w.workload.as_str()).collect();
        let mut sorted = named.clone();
        sorted.sort_unstable();
        let mut declared: Vec<&str> = workloads.iter().map(String::as_str).collect();
        declared.sort_unstable();
        if sorted != declared {
            faults.push(format!(
                "{at}: needs every workload once, has {named:?} for {declared:?}"
            ));
        }
        for w in &self.workloads {
            let at = format!("{at}, {}", w.workload);
            if w.anchor_runs.len() != ANCHOR_PAIRS || w.head_runs.len() != ANCHOR_PAIRS {
                faults.push(format!(
                    "{at}: needs {ANCHOR_PAIRS} pairs, has {} anchor and {} head runs",
                    w.anchor_runs.len(),
                    w.head_runs.len()
                ));
            }
            let recomputed =
                AnchorRuns::new(&w.workload, w.anchor_runs.clone(), w.head_runs.clone());
            let summaries =
                |r: &AnchorRuns| (r.anchor_median, r.anchor_q1, r.anchor_q3, r.head_median);
            if summaries(w) != summaries(&recomputed) {
                faults.push(format!(
                    "{at}: medians and quartiles are not those recomputed from the runs, {:?}",
                    summaries(&recomputed)
                ));
            }
            match (w.below_anchor(), w.paid_by) {
                (true, None) => faults.push(format!(
                    "{at}: the head is below the anchor by more than the anchor's \
                     interquartile distance and names no PR that paid for it"
                )),
                (false, Some(pr)) => faults.push(format!(
                    "{at}: names PR {pr} as payer for a loss the runs do not show"
                )),
                (true, Some(pr)) if pr <= self.anchor_pr || pr > self.pr => faults.push(format!(
                    "{at}: the payer, PR {pr}, must come after the anchor and by this line"
                )),
                _ => {}
            }
        }
        faults
    }
}

/// One line of the trajectory, of any kind.
enum Line {
    Pairs(Entry),
    Tier1(Tier1),
    Anchor(Anchor),
}

impl Line {
    fn from_json(v: &Json) -> Result<Self, String> {
        let keys = Fields::of(v)?.0;
        if keys.contains_key("tier1") {
            Tier1::from_json(v).map(Line::Tier1)
        } else if keys.contains_key("anchor") {
            Anchor::from_json(v).map(Line::Anchor)
        } else {
            Entry::from_json(v).map(Line::Pairs)
        }
    }
}

/// The end-to-end metrics `BENCHMARK.json` declares higher-is-better.
fn higher_better(bench: &Json) -> Vec<String> {
    let f = Fields::of(bench).expect("BENCHMARK.json is an object");
    f.arr("end_to_end")
        .unwrap_or_else(|e| panic!("BENCHMARK.json: {e}"))
        .iter()
        .filter_map(|v| {
            let item = Fields::of(v).ok()?;
            (item.str("better").ok()? == "higher").then(|| item.str("name").ok())?
        })
        .map(str::to_string)
        .collect()
}

/// Every fault the trajectory can have, one message per fault.
fn check(trajectory: &str, bench: &Json) -> Vec<String> {
    let workloads = declared(bench, "workloads");
    let end_to_end = declared(bench, "end_to_end");
    let per_layer = declared(bench, "per_layer");
    let higher_better = higher_better(bench);
    let mut faults = Vec::new();
    // The last PR number of any line, and of each kind of line.
    let (mut last_pr, mut last_pairs, mut last_tier1, mut last_anchor) = (0, 0, 0, 0);
    for (n, line) in trajectory.lines().enumerate() {
        let n = n + 1;
        let entry = match parse_json(line).and_then(|v| Line::from_json(&v)) {
            Ok(Line::Pairs(e)) => e,
            Ok(Line::Anchor(a)) => {
                let at = format!("line {n} (PR {}, anchor)", a.pr);
                if a.render() != line {
                    faults.push(format!("{at}: does not re-render byte for byte"));
                }
                if a.pr < last_pr || a.pr <= last_anchor {
                    faults.push(format!("{at}: PR numbers must strictly increase"));
                }
                (last_pr, last_anchor) = (a.pr, a.pr);
                faults.extend(a.faults(&at, &workloads, &higher_better));
                continue;
            }
            Ok(Line::Tier1(t)) => {
                let at = format!("line {n} (PR {}, tier 1)", t.pr);
                if t.render() != line {
                    faults.push(format!("{at}: does not re-render byte for byte"));
                }
                if t.pr < last_pr || t.pr <= last_tier1 {
                    faults.push(format!("{at}: PR numbers must strictly increase"));
                }
                (last_pr, last_tier1) = (t.pr, t.pr);
                faults.extend(t.faults(&at));
                continue;
            }
            Err(e) => {
                faults.push(format!("line {n}: {e}"));
                continue;
            }
        };
        let at = format!("line {n} (PR {})", entry.pr);
        if entry.render() != line {
            faults.push(format!("{at}: does not re-render byte for byte"));
        }
        if entry.pr < last_pr || entry.pr <= last_pairs {
            faults.push(format!("{at}: PR numbers must strictly increase"));
        }
        (last_pr, last_pairs) = (entry.pr, entry.pr);
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

#[test]
fn checker_rejects_each_kind_of_tier1_fault() {
    let bench = benchmark_json();
    let pairs = r#"{"pr":1,"kind":null,"commit":"a","parent":"b","pairs":3,"window_s":20,"seeds":"1-3","source":"s","rows":[{"workload":"write-stream","metric":"setup_s","parent":0.5,"parent_q1":null,"parent_q3":null,"change":0.4,"change_q1":null,"change_q3":null,"ratio":null,"wins":3}],"traced":[]}"#;
    let good = r#"{"pr":1,"tier1":"cargo test","commit":"a","parent":"b","runs":3,"source":"s","parent_s":30.5,"change_s":29,"binaries":[{"binary":"group_sim","parent_s":1.5,"change_s":1.25},{"binary":"aqf_core (lib)","parent_s":null,"change_s":0.1}]}"#;
    // A pairs line and a tier-1 line of the same PR, in either order.
    for ok in [format!("{pairs}\n{good}"), format!("{good}\n{pairs}")] {
        assert!(check(&ok, &bench).is_empty(), "{:?}", check(&ok, &bench));
    }
    for (bad, why) in [
        (good.replace("\"runs\":3", "\"runs\":0"), "no runs"),
        (good.replace("aqf_core (lib)", "group_sim"), "listed twice"),
        (
            good.replace("\"change_s\":0.1", "\"change_s\":null"),
            "no time on either side",
        ),
        (good.replace("1.25", "-1.25"), "negative time"),
        (good.replace("30.5", "1"), "above its suite"),
        (
            good.replace("\"change_s\":29", "\"change_s\":61"),
            "tier-1 budget",
        ),
        (good.replace("30.5", "30.50"), "re-render"),
        (format!("{good}\n{good}"), "strictly increase"),
        (
            format!("{pairs}\n{}", good.replace("\"pr\":1", "\"pr\":0")),
            "strictly increase",
        ),
    ] {
        let faults = check(&bad, &bench);
        assert!(
            faults.iter().any(|f| f.contains(why)),
            "expected a fault naming {why:?}, got {faults:?}"
        );
    }
}

/// A well-formed anchor line over `bench`'s workloads: each head run 1 %
/// below its anchor run, well inside the anchor runs' spread.
fn good_anchor(bench: &Json) -> Anchor {
    let workloads = declared(bench, "workloads")
        .iter()
        .map(|w| {
            let anchor: Vec<u64> = (0..ANCHOR_PAIRS as u64).map(|i| 1000 + 10 * i).collect();
            let head = anchor.iter().map(|a| a - 10).collect();
            AnchorRuns::new(w, anchor, head)
        })
        .collect();
    Anchor {
        pr: 3,
        anchor: "a".to_string(),
        anchor_pr: 1,
        head: "h".to_string(),
        window_s: 20,
        seeds: "1-10".to_string(),
        source: "s".to_string(),
        metric: "sim_requests_per_s".to_string(),
        workloads,
    }
}

#[test]
fn anchor_quartiles_are_the_medians_of_the_halves() {
    let runs = [7, 1, 9, 3, 5, 2, 8, 4, 10, 6];
    assert_eq!(quartiles(&runs), (3.0, 5.5, 8.0));
    assert_eq!(quartiles(&[4, 1, 3, 2, 5]), (1.5, 3.0, 4.5));
}

/// One way to spoil an anchor line.
type Edit = fn(&mut Anchor);

#[test]
fn checker_rejects_each_kind_of_anchor_fault() {
    let bench = benchmark_json();
    let good = good_anchor(&bench);
    assert!(
        check(&good.render(), &bench).is_empty(),
        "{:?}",
        check(&good.render(), &bench)
    );
    // A loss beyond the spread is accepted once a later PR pays for it.
    let mut paid = good_anchor(&bench);
    paid.workloads[2] = AnchorRuns::new(
        &paid.workloads[2].workload,
        paid.workloads[2].anchor_runs.clone(),
        paid.workloads[2]
            .anchor_runs
            .iter()
            .map(|a| a - 100)
            .collect(),
    );
    paid.workloads[2].paid_by = Some(2);
    assert!(
        check(&paid.render(), &bench).is_empty(),
        "{:?}",
        check(&paid.render(), &bench)
    );
    let edits: [(&str, Edit); 8] = [
        ("10 pairs", |a| {
            a.workloads[0].anchor_runs.pop();
            a.workloads[0].head_runs.pop();
            let w = &a.workloads[0];
            a.workloads[0] =
                AnchorRuns::new(&w.workload, w.anchor_runs.clone(), w.head_runs.clone());
        }),
        ("every workload", |a| {
            a.workloads.pop();
        }),
        ("every workload", |a| {
            a.workloads[1].workload = a.workloads[0].workload.clone()
        }),
        ("recomputed", |a| a.workloads[0].head_median += 1.0),
        ("recomputed", |a| a.workloads[0].anchor_q3 -= 1.0),
        ("names no PR", |a| {
            let w = &a.workloads[0];
            let head = w.anchor_runs.iter().map(|r| r - 100).collect();
            a.workloads[0] = AnchorRuns::new(&w.workload, w.anchor_runs.clone(), head);
        }),
        ("do not show", |a| a.workloads[0].paid_by = Some(2)),
        ("higher-is-better", |a| a.metric = "setup_s".to_string()),
    ];
    for (why, edit) in edits {
        let mut bad = good_anchor(&bench);
        edit(&mut bad);
        let faults = check(&bad.render(), &bench);
        assert!(
            faults.iter().any(|f| f.contains(why)),
            "expected a fault naming {why:?}, got {faults:?}"
        );
    }
    let mut early = paid;
    early.workloads[2].paid_by = Some(1);
    let faults = check(&early.render(), &bench);
    assert!(
        faults.iter().any(|f| f.contains("after the anchor")),
        "{faults:?}"
    );
    let twice = format!("{}\n{}", good.render(), good.render());
    let faults = check(&twice, &bench);
    assert!(
        faults.iter().any(|f| f.contains("strictly increase")),
        "{faults:?}"
    );
}
