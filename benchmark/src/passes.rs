//! The two passes of one benchmark process.
//!
//! `timed`: set-up (config generation + one warm-up cycle, repeated
//! `SETUP_REPS` times), then whole cycles until `--seconds` have elapsed,
//! tracing off. End-to-end metrics only.
//!
//! `traced`: one plain cycle, the same cycle again one `World::step` at a
//! time with a span per step, the library runner on the same configs, the
//! first run observed and judged, then the isolated layer drivers.
//! Per-layer metrics only.
//!
//! Every host time is speed-normalised (see `speed`): a probe runs before,
//! between and after the scenario runs of a cycle, and a run's wall time is
//! scaled by the factor of its two neighbouring probes.

use crate::cycle::CycleSummary;
use crate::metrics::{highest_supported_percentile, median, percentile, Report};
use crate::metrics::{END_TO_END, PER_LAYER};
use crate::runloop::{run_plain, run_traced, RunOutput, Span, StepClass};
use crate::speed::{self, normalised, probe};
use crate::workloads::{Driver, RunSpec, Workload};
use crate::{alloc, layers};
use aqf_chaos::{replay_and_judge, scenario_for_seed, OracleOptions, ScheduleBudget};
use aqf_core::OrderingGuarantee;
use aqf_sim::Digest;
use aqf_workload::{run_scenario, run_scenario_observed, ObsHandle};
use std::fmt::Write as _;
use std::time::{Duration, Instant};

const SETUP_REPS: usize = 3;

#[derive(Debug, Clone, Copy)]
pub struct Options {
    pub workload: &'static Workload,
    pub seed: u64,
    /// Length of the timed window; 0 runs a single cycle (`--quick`).
    pub seconds: f64,
    /// Whether the traced pass writes `benchmark/out/trace-<workload>.json`
    /// (relative to the working directory, the repo root under `run.sh`).
    pub write_trace_file: bool,
}

/// What one process reports: the contract's result object plus the lines
/// printed before it.
#[derive(Debug)]
pub struct Outcome {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub report: Report,
    /// Human-readable report, printed above the result line.
    pub text: String,
}

impl Outcome {
    /// The contract's last stdout line.
    pub fn to_json(&self) -> String {
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
            self.correct,
            self.attempted,
            self.failed,
            self.report.to_json()
        )
    }
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Results of one cycle run between speed probes.
struct Probed<T> {
    results: Vec<T>,
    /// Per run, the factor that normalises host time measured inside it
    /// (1 = the probe ran at its nominal speed).
    factors: Vec<f64>,
    /// Seconds spent probing.
    probe_s: f64,
}

/// Runs `run` on every spec of the cycle with a speed probe before, between
/// and after.
fn probed<T>(cycle: &[RunSpec], mut run: impl FnMut(usize, &RunSpec) -> T) -> Probed<T> {
    let mut before = probe();
    let mut out = Probed {
        results: Vec::with_capacity(cycle.len()),
        factors: Vec::with_capacity(cycle.len()),
        probe_s: before,
    };
    for (i, spec) in cycle.iter().enumerate() {
        out.results.push(run(i, spec));
        let after = probe();
        out.probe_s += after;
        out.factors.push(speed::factor(before, after));
        before = after;
    }
    out
}

/// Normalised seconds of each run of a probed cycle.
fn run_seconds(runs: &Probed<RunOutput>) -> Vec<f64> {
    runs.results
        .iter()
        .zip(&runs.factors)
        .map(|(r, f)| r.wall.as_secs_f64() * f)
        .collect()
}

/// One timed execution of a cycle.
struct TimedCycle {
    /// Normalised ms per run.
    run_ms: Vec<f64>,
    factors: Vec<f64>,
    probe_s: f64,
    sim_digest: u64,
    oracle_violations: usize,
    /// Kept for the first warm-up cycle of `Driver::Harness` only.
    outputs: Vec<RunOutput>,
}

fn timed_cycle(workload: &Workload, cycle: &[RunSpec], keep: bool) -> TimedCycle {
    let mut digest = Digest::new();
    let mut oracle_violations = 0;
    let mut outputs = Vec::new();
    let walls = probed(cycle, |_, spec| match workload.driver {
        Driver::Harness => {
            let run = run_plain(spec);
            let wall = run.wall;
            digest.mix(run.metrics.digest());
            if keep {
                outputs.push(run);
            }
            wall
        }
        Driver::Judged => {
            let t0 = Instant::now();
            let (run_digest, violations) =
                replay_and_judge(&spec.config, &OracleOptions::default());
            let wall = t0.elapsed();
            digest.mix(run_digest);
            oracle_violations += violations.len();
            wall
        }
    });
    TimedCycle {
        run_ms: walls
            .results
            .iter()
            .zip(&walls.factors)
            .map(|(&wall, f)| ms(wall) * f)
            .collect(),
        factors: walls.factors,
        probe_s: walls.probe_s,
        sim_digest: digest.value(),
        oracle_violations,
        outputs,
    }
}

fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("read /proc/self/status");
    let kib: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .expect("VmHWM line in /proc/self/status");
    kib / 1024.0
}

/// The lines both passes end with — the cycle's identity, every metric by
/// name, every failed check — and the outcome.
fn finish(
    mut text: String,
    summary: &CycleSummary,
    report: Report,
    violations: Vec<String>,
    attempted: u64,
    failed: u64,
) -> Outcome {
    writeln!(
        text,
        "  sim_digest {:016x}; per cycle: {} requests attempted, {} unanswered, {} broken",
        summary.sim_digest, summary.attempted, summary.unanswered, summary.broken
    )
    .unwrap();
    for (name, unit, up, v) in report.rows() {
        let dir = if up { "higher" } else { "lower" };
        writeln!(text, "  {name:<46} {v:>16.4} {unit:<8} ({dir} is better)").unwrap();
    }
    for v in &violations {
        writeln!(text, "  CHECK FAILED: {v}").unwrap();
    }
    Outcome {
        correct: violations.is_empty(),
        attempted,
        failed,
        report,
        text,
    }
}

/// The timed pass. `process_start` is when the process began, so the first
/// set-up sample includes whatever start-up cost precedes `main`'s call.
pub fn timed(opts: &Options, process_start: Instant) -> Outcome {
    let w = opts.workload;
    let quick = opts.seconds == 0.0;
    let mut text = String::new();
    let mut violations: Vec<String> = Vec::new();

    // Set-up, several times over so its median is steady. Every repetition
    // regenerates the inputs from the seed and must reproduce the digest.
    let mut setup_s = Vec::new();
    let mut cycle = Vec::new();
    let mut warm: Option<TimedCycle> = None;
    for rep in 0..if quick { 1 } else { SETUP_REPS } {
        let t0 = if rep == 0 {
            process_start
        } else {
            Instant::now()
        };
        cycle = (w.cycle)(opts.seed);
        let mut c = timed_cycle(w, &cycle, rep == 0);
        setup_s.push((t0.elapsed().as_secs_f64() - c.probe_s) * median(&mut c.factors));
        match &warm {
            None => warm = Some(c),
            Some(first) if first.sim_digest != c.sim_digest => violations.push(format!(
                "set-up repetition {rep}: sim_digest {:016x} != {:016x}",
                c.sim_digest, first.sim_digest
            )),
            Some(_) => {}
        }
    }
    let warm = warm.expect("at least one set-up repetition");

    // Timed window: whole cycles only, so every window has the same mix.
    let mut run_ms: Vec<f64> = Vec::new();
    let mut cycle_s: Vec<f64> = Vec::new();
    let mut factors: Vec<f64> = Vec::new();
    let mut oracle_violations = warm.oracle_violations;
    let window = Instant::now();
    while cycle_s.is_empty() || window.elapsed().as_secs_f64() < opts.seconds {
        let c = timed_cycle(w, &cycle, false);
        if c.sim_digest != warm.sim_digest {
            violations.push(format!(
                "timed cycle {}: sim_digest {:016x} != warm-up {:016x}",
                cycle_s.len(),
                c.sim_digest,
                warm.sim_digest
            ));
        }
        oracle_violations += c.oracle_violations;
        cycle_s.push(c.run_ms.iter().sum::<f64>() / 1e3);
        run_ms.extend(c.run_ms);
        factors.extend(c.factors);
    }
    let rss = peak_rss_mib();

    // Checks on the cycle's outputs (after the window: for the judged
    // driver this needs one more, plain, cycle to obtain the metrics).
    let outputs = match w.driver {
        Driver::Harness => warm.outputs,
        Driver::Judged => cycle.iter().map(run_plain).collect(),
    };
    let summary = CycleSummary::of(&cycle, &outputs);
    if summary.sim_digest != warm.sim_digest {
        violations.push(format!(
            "harness loop sim_digest {:016x} != replay_and_judge {:016x}",
            summary.sim_digest, warm.sim_digest
        ));
    }
    if oracle_violations > 0 {
        violations.push(format!("{oracle_violations} oracle violations"));
    }
    violations.extend(summary.violations.iter().cloned());

    let resolved = (summary.attempted - summary.unanswered - summary.broken) as f64;
    let cycles = cycle_s.len() as u64;
    let mut report = Report::new(END_TO_END);
    report.set("setup_s", median(&mut setup_s));
    report.set("sim_requests_per_s", resolved / median(&mut cycle_s));
    report.set("peak_rss_mb", rss);
    run_ms.sort_by(f64::total_cmp);

    writeln!(
        text,
        "workload {} seed {} pass timed: {} cycles x {} runs in {:.2} s (set-up x{})",
        w.name,
        opts.seed,
        cycles,
        cycle.len(),
        window.elapsed().as_secs_f64(),
        setup_s.len()
    )
    .unwrap();
    // Not metrics (see README "End-to-end metrics"): the median run and the
    // highest percentile the sample supports, for the reader.
    let supported = highest_supported_percentile(run_ms.len()).filter(|&p| p > 50.0);
    writeln!(
        text,
        "  run_ms over {} runs: p50 {:.3}{}",
        run_ms.len(),
        percentile(&run_ms, 50.0),
        supported.map_or(
            "; too few samples for a higher percentile".to_string(),
            |p| format!(", p{p} {:.3}", percentile(&run_ms, p))
        )
    )
    .unwrap();
    writeln!(
        text,
        "  machine speed during the window: x{:.3} of nominal (host times are normalised by it)",
        median(&mut factors)
    )
    .unwrap();
    finish(
        text,
        &summary,
        report,
        violations,
        summary.attempted * cycles,
        summary.broken * cycles + oracle_violations as u64,
    )
}

/// Host time per step class over the traced cycle.
struct Attribution {
    total_ns: f64,
    ns: [f64; 5],
    steps: [u64; 5],
}

impl Attribution {
    fn of(spans: &[Span]) -> Self {
        let mut a = Attribution {
            total_ns: 0.0,
            ns: [0.0; 5],
            steps: [0; 5],
        };
        for s in spans {
            a.ns[s.class as usize] += f64::from(s.dur_ns);
            a.steps[s.class as usize] += 1;
            a.total_ns += f64::from(s.dur_ns);
        }
        a
    }
    fn share(&self, c: StepClass) -> f64 {
        self.ns[c as usize] / self.total_ns
    }
    fn ns_per_step(&self, c: StepClass) -> f64 {
        match self.steps[c as usize] {
            0 => 0.0,
            n => self.ns[c as usize] / n as f64,
        }
    }
}

/// The traced pass. Requires the counting allocator (the `bench-traced`
/// binary).
pub fn traced(opts: &Options) -> Outcome {
    assert!(
        alloc::installed(),
        "the traced pass needs the counting allocator: run the bench-traced binary"
    );
    let w = opts.workload;
    let quick = opts.seconds == 0.0;
    let mut violations: Vec<String> = Vec::new();
    let mut report = Report::new(PER_LAYER);
    let cycle = (w.cycle)(opts.seed);

    // (1) Plain cycle: the reference digest, the checkpoints the stepped
    // loop replays, untraced host time and allocation counts.
    let (mut allocs, mut alloc_bytes) = (0, 0);
    let mut plain = probed(&cycle, |_, spec| {
        let before = alloc::snapshot();
        let run = run_plain(spec);
        let after = alloc::snapshot();
        allocs += after.0 - before.0;
        alloc_bytes += after.1 - before.1;
        run
    });
    let summary = CycleSummary::of(&cycle, &plain.results);
    violations.extend(summary.violations.iter().cloned());
    summary.report(&mut report);
    let plain_run_s = run_seconds(&plain);
    let plain_s: f64 = plain_run_s.iter().sum();
    report.set("sim.world.events_per_s", summary.events as f64 / plain_s);
    report.set(
        "alloc.allocs_per_event",
        allocs as f64 / summary.events as f64,
    );
    report.set(
        "alloc.bytes_per_request",
        alloc_bytes as f64 / summary.attempted as f64,
    );
    let mut build_ms: Vec<f64> = plain
        .results
        .iter()
        .zip(&plain.factors)
        .map(|(r, f)| ms(r.build) * f)
        .collect();
    report.set("workload.build_ms", median(&mut build_ms));
    let mut run_ms: Vec<f64> = plain_run_s.iter().map(|s| s * 1e3).collect();
    report.set("run_ms.p50", median(&mut run_ms));
    report.set("run_ms.max", run_ms[run_ms.len() - 1]);

    // (2) The same cycle, one span per step.
    let epoch = Instant::now();
    // One slot per event of the plain cycle, touched now so that neither
    // reallocation nor first-touch page faults land inside a traced run.
    let mut spans: Vec<Span> = vec![Span::default(); summary.events as usize + 64];
    spans.clear();
    let stepped = probed(&cycle, |i, spec| {
        let checkpoints = &plain.results[i].checkpoints;
        run_traced(spec, i as u16, checkpoints, epoch, &mut spans)
    });
    let mut digest = Digest::new();
    for run in &stepped.results {
        digest.mix(run.metrics.digest());
    }
    if digest.value() != summary.sim_digest {
        violations.push(format!(
            "step-driven sim_digest {:016x} != plain {:016x}",
            digest.value(),
            summary.sim_digest
        ));
    }
    for s in &mut spans {
        s.dur_ns = (f64::from(s.dur_ns) * stepped.factors[s.run as usize]).round() as u32;
    }
    let stepped_run_s = run_seconds(&stepped);
    // Per run, then the median: one slow phase of the machine that the probes
    // miss must not decide the ratio.
    let mut overhead: Vec<f64> = stepped_run_s
        .iter()
        .zip(&plain_run_s)
        .map(|(stepped, plain)| stepped / plain)
        .collect();
    report.set("trace.overhead_ratio", median(&mut overhead));
    let attr = Attribution::of(&spans);
    let mut durs: Vec<u32> = spans.iter().map(|s| s.dur_ns).collect();
    durs.sort_unstable();
    report_attribution(&cycle, &plain.results, &spans, &attr, &durs, &mut report);

    // (3) The library's own runner on the same configs. Where the harness
    // schedules no fault of its own the digests must agree.
    if cycle.iter().all(|s| s.harness_faults.is_empty()) {
        let mut digest = Digest::new();
        for spec in &cycle {
            digest.mix(run_scenario(&spec.config).digest());
        }
        if digest.value() != summary.sim_digest {
            violations.push(format!(
                "run_scenario sim_digest {:016x} != harness loop {:016x}",
                digest.value(),
                summary.sim_digest
            ));
        }
    }

    // (4) The first run three ways, (5) the isolated layer drivers.
    first_run_three_ways(&cycle[0], opts.seed, quick, &mut report, &mut violations);
    layers::run_all(opts.seed, if quick { 20 } else { 1 }, &mut report);

    let stepped_s: f64 = stepped_run_s.iter().sum();
    if opts.write_trace_file {
        write_trace_file(w.name, opts.seed, &spans, &attr, &durs, plain_s, stepped_s);
    }
    let mut text = String::new();
    writeln!(
        text,
        "workload {} seed {} pass traced: {} runs, {} steps, plain {plain_s:.3} s, stepped \
         {stepped_s:.3} s (normalised), machine speed x{:.3} of nominal",
        w.name,
        opts.seed,
        cycle.len(),
        spans.len(),
        median(&mut plain.factors),
    )
    .unwrap();
    let (attempted, failed) = (summary.attempted, summary.broken);
    finish(text, &summary, report, violations, attempted, failed)
}

/// Sets the `trace.*`, `sim.world.step_ns.*` and
/// `core.server.host_us_per_update.*` metrics from the (normalised) spans;
/// `durs` is their durations, ascending.
fn report_attribution(
    cycle: &[RunSpec],
    plain: &[RunOutput],
    spans: &[Span],
    attr: &Attribution,
    durs: &[u32],
    report: &mut Report,
) {
    for c in StepClass::ALL {
        report.set(&format!("trace.share.{}", c.name()), attr.share(c));
    }
    for c in [
        StepClass::ReadIssue,
        StepClass::Deliver,
        StepClass::TimerOther,
    ] {
        report.set(
            &format!("trace.ns_per_step.{}", c.name()),
            attr.ns_per_step(c),
        );
    }
    report.set("sim.world.step_ns.p50", f64::from(percentile(durs, 50.0)));
    report.set("sim.world.step_ns.p99", f64::from(percentile(durs, 99.0)));
    let top = durs.len().div_ceil(100);
    let top_ns: f64 = durs[durs.len() - top..].iter().map(|&d| f64::from(d)).sum();
    report.set("trace.top1pct_share", top_ns / attr.total_ns);
    // Server-side host time per update, by ordering guarantee: the steps
    // that are neither client issue steps nor faults, over the runs of that
    // ordering.
    for (ordering, name) in [
        (OrderingGuarantee::Sequential, "sequential"),
        (OrderingGuarantee::Causal, "causal"),
        (OrderingGuarantee::Fifo, "fifo"),
    ] {
        let of_ordering = |run: usize| cycle[run].config.ordering == ordering;
        let ns: f64 = spans
            .iter()
            .filter(|s| of_ordering(s.run as usize))
            .filter(|s| matches!(s.class, StepClass::Deliver | StepClass::TimerOther))
            .map(|s| f64::from(s.dur_ns))
            .sum();
        let updates: u64 = (0..cycle.len())
            .filter(|&i| of_ordering(i))
            .flat_map(|i| &plain[i].metrics.clients)
            .map(|c| c.updates)
            .sum();
        report.set(
            &format!("core.server.host_us_per_update.{name}"),
            if updates == 0 {
                0.0
            } else {
                ns / 1e3 / updates as f64
            },
        );
    }
}

/// The first run of the cycle three ways — plain, observed, judged —
/// interleaved so drift hits all three alike: the `obs.*` and `chaos.*`
/// metrics, and the check that neither observing nor recording steers.
fn first_run_three_ways(
    first: &RunSpec,
    seed: u64,
    quick: bool,
    report: &mut Report,
    violations: &mut Vec<String>,
) {
    let config = &first.config;
    let requests = first.attempted() as f64;
    let (mut plain_s, mut observed_s, mut judged_s) = (Vec::new(), Vec::new(), Vec::new());
    let mut obs_report = None;
    for _ in 0..if quick { 1 } else { 3 } {
        let (s, reference) = normalised(|| run_scenario(config).digest());
        plain_s.push(s);
        let obs = ObsHandle::enabled();
        let (s, observed) = normalised(|| run_scenario_observed(config, &obs).digest());
        observed_s.push(s);
        obs_report = obs.take_report();
        let (s, (judged, oracle)) =
            normalised(|| replay_and_judge(config, &OracleOptions::default()));
        judged_s.push(s);
        if observed != reference || judged != reference {
            violations.push(format!(
                "first run digests differ: plain {reference:016x} observed {observed:016x} \
                 judged {judged:016x}"
            ));
        }
        if !oracle.is_empty() {
            violations.push(format!(
                "{} oracle violations on the first run",
                oracle.len()
            ));
        }
    }
    let plain_s = median(&mut plain_s);
    report.set("obs.run_overhead_ratio", median(&mut observed_s) / plain_s);
    report.set(
        "chaos.judge_overhead_ratio",
        median(&mut judged_s) / plain_s,
    );
    let obs_report = obs_report.expect("an enabled handle yields a report");
    let (render_s, jsonl) = normalised(|| obs_report.trace_jsonl());
    let records = obs_report.records.len() as f64;
    report.set("obs.events_per_request", records / requests);
    report.set("obs.trace_bytes_per_request", jsonl.len() as f64 / requests);
    report.set("obs.render_ns_per_event", render_s * 1e9 / records.max(1.0));
    const SCHEDULES: u64 = 2000;
    let budget = ScheduleBudget::quick();
    let (generate_s, ()) = normalised(|| {
        for k in 0..SCHEDULES {
            std::hint::black_box(scenario_for_seed(config, &budget, seed ^ k));
        }
    });
    report.set(
        "chaos.generate_us_per_schedule",
        generate_s * 1e6 / SCHEDULES as f64,
    );
}

/// Writes the trace summary and the 100 slowest steps to
/// `benchmark/out/trace-<workload>.json` (best effort: the metrics do not
/// depend on it).
fn write_trace_file(
    workload: &str,
    seed: u64,
    spans: &[Span],
    attr: &Attribution,
    sorted_durs: &[u32],
    plain_s: f64,
    stepped_s: f64,
) {
    // Only the spans at least as slow as the 100th slowest need sorting.
    let threshold = sorted_durs[sorted_durs.len().saturating_sub(100)];
    let mut slowest: Vec<&Span> = spans.iter().filter(|s| s.dur_ns >= threshold).collect();
    slowest.sort_by_key(|s| std::cmp::Reverse(s.dur_ns));
    slowest.truncate(100);
    let mut out = String::new();
    writeln!(out, "{{\"workload\": \"{workload}\", \"seed\": {seed},").unwrap();
    // All ns are speed-normalised; `start_us` is raw host time since the
    // stepped cycle began, for ordering.
    writeln!(
        out,
        " \"plain_ns\": {}, \"stepped_ns\": {}, \"step_ns\": {}, \"steps\": {},",
        plain_s * 1e9,
        stepped_s * 1e9,
        attr.total_ns,
        spans.len()
    )
    .unwrap();
    // Self time of the run spans: what the stepped loop spent outside any
    // step (build_scenario, clock reads, span bookkeeping, metrics).
    writeln!(
        out,
        " \"run_self_ns\": {},",
        stepped_s * 1e9 - attr.total_ns
    )
    .unwrap();
    out.push_str(" \"classes\": {");
    for (i, c) in StepClass::ALL.into_iter().enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        write!(
            out,
            "{sep}\"{}\": {{\"steps\": {}, \"ns\": {}}}",
            c.name(),
            attr.steps[c as usize],
            attr.ns[c as usize]
        )
        .unwrap();
    }
    out.push_str("},\n \"slowest_steps\": [\n");
    for (i, s) in slowest.iter().enumerate() {
        let sep = if i + 1 == slowest.len() { "" } else { "," };
        writeln!(
            out,
            "  {{\"run\": {}, \"class\": \"{}\", \"virtual_ms\": {}, \"start_us\": {}, \"ns\": {}}}{sep}",
            s.run,
            s.class.name(),
            s.virt_ms,
            s.start_us,
            s.dur_ns
        )
        .unwrap();
    }
    out.push_str(" ]}\n");
    let dir = std::path::Path::new("benchmark/out");
    let path = dir.join(format!("trace-{workload}.json"));
    if let Err(e) = std::fs::create_dir_all(dir).and_then(|()| std::fs::write(&path, out)) {
        eprintln!("cannot write {}: {e}", path.display());
    }
}
