//! The harness's copy of `aqf_workload`'s runner loop, in two forms that
//! process the same events in the same order: `run_plain` (untimed-per-step,
//! used by the timed pass) and `run_traced` (one span per `World::step`).
//!
//! `World` has no "peek next event time", so the traced form cannot decide
//! by itself where a `run_until` would stop. Instead the plain form records
//! the event count at every stop (*checkpoint*) and the traced form steps to
//! exactly those counts; the run digests of the two must then be equal.

use crate::workloads::RunSpec;
use aqf_sim::{ActorId, SimDuration, SimTime, World, WorldStats};
use aqf_workload::{build_scenario, BuiltScenario, ClientActor, ScenarioMetrics};
use std::time::{Duration, Instant};

/// What one step did, by the counters it moved.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, PartialOrd, Ord)]
pub enum StepClass {
    /// A client issued a read: Algorithm 1 + send.
    #[default]
    ReadIssue,
    /// A client issued an update: no selection.
    UpdateIssue,
    /// A message reached an actor (or was dropped at a dead one).
    Deliver,
    /// Any other timer: group ticks, heartbeats, service completions, lazy
    /// publisher, retries — and cancelled timers popping off the queue.
    TimerOther,
    /// Crash, restart (incl. WAL replay), partition or gray-fault event.
    Fault,
}

impl StepClass {
    pub const ALL: [StepClass; 5] = [
        StepClass::ReadIssue,
        StepClass::UpdateIssue,
        StepClass::Deliver,
        StepClass::TimerOther,
        StepClass::Fault,
    ];

    pub fn name(self) -> &'static str {
        match self {
            StepClass::ReadIssue => "read_issue",
            StepClass::UpdateIssue => "update_issue",
            StepClass::Deliver => "deliver",
            StepClass::TimerOther => "timer_other",
            StepClass::Fault => "fault",
        }
    }
}

/// Counters sampled around a step.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Probe {
    pub world: WorldStats,
    /// Reads issued by all clients so far.
    pub reads: u64,
    /// Updates issued by all clients so far.
    pub updates: u64,
}

/// Classifies one step from the counters before and after it.
/// `at_fault_instant`: whether the step's virtual time is one at which the
/// schedule injects a fault (tells a restart whose handler lost a message
/// from a delivery dropped at a dead actor); asked only when no handler ran.
pub fn classify(
    before: &Probe,
    after: &Probe,
    at_fault_instant: impl FnOnce() -> bool,
) -> StepClass {
    let (b, a) = (&before.world, &after.world);
    if after.reads > before.reads {
        StepClass::ReadIssue
    } else if after.updates > before.updates {
        StepClass::UpdateIssue
    } else if a.timers > b.timers {
        StepClass::TimerOther
    } else if a.delivered > b.delivered {
        StepClass::Deliver
    } else if at_fault_instant() {
        StepClass::Fault
    } else if a.dropped > b.dropped {
        StepClass::Deliver
    } else {
        StepClass::TimerOther
    }
}

/// One traced step (or one untraced fault injection). `run` is the parent
/// span: the index of the scenario run in the cycle. 16 bytes, because a
/// cycle has millions of steps and the buffer must not disturb what it
/// measures.
#[derive(Debug, Clone, Copy, Default)]
pub struct Span {
    /// Host µs since the start of the stepped cycle.
    pub start_us: u32,
    pub dur_ns: u32,
    pub virt_ms: u32,
    pub run: u16,
    pub class: StepClass,
}

impl Span {
    fn new(
        run: u16,
        class: StepClass,
        virt_us: u64,
        epoch: Instant,
        start: Instant,
        end: Instant,
    ) -> Self {
        let clamp = |v: u128| u32::try_from(v).unwrap_or(u32::MAX);
        Span {
            start_us: clamp((start - epoch).as_micros()),
            dur_ns: clamp((end - start).as_nanos()),
            virt_ms: clamp(u128::from(virt_us / 1000)),
            run,
            class,
        }
    }
}

/// Result of one scenario run.
#[derive(Debug)]
pub struct RunOutput {
    /// `build_scenario` to the end of the drain.
    pub wall: Duration,
    /// `build_scenario` alone.
    pub build: Duration,
    pub metrics: ScenarioMetrics,
    pub world: WorldStats,
    /// Event count at every stop of the plain loop, in order (empty for a
    /// traced run, which is given them).
    pub checkpoints: Vec<u64>,
}

fn prepare(spec: &RunSpec) -> BuiltScenario {
    let mut built = build_scenario(&spec.config);
    for f in &spec.harness_faults {
        let target = built.primary_ids[f.primary];
        if f.restart {
            built.world.schedule_restart(target, f.at);
        } else {
            built.world.schedule_crash(target, f.at);
        }
    }
    built
}

/// How the loop moves the world forward. Both implementations must leave
/// the world in the same state.
trait Advance {
    /// Process every queued event up to and including `until`, then set the
    /// clock to `until`. Injects nothing.
    fn free_run(&mut self, built: &mut BuiltScenario, until: SimTime);
    /// `built.run_until_with_faults(at)` with every event up to `at`
    /// already processed: injects the role-targeted faults due at `at` and
    /// processes the events they schedule for that instant.
    fn inject(&mut self, built: &mut BuiltScenario, at: SimTime);
}

/// The runner's loop (`run_scenario_recorded`): 10 s chunks until every
/// client is done or the run limit passes, then a 5 s drain. Each chunk
/// additionally stops at the instants of pending role-targeted faults,
/// which only changes where `run_until` is called, not what it processes.
fn drive(built: &mut BuiltScenario, limit: SimDuration, adv: &mut impl Advance) {
    let mut advance_to = |built: &mut BuiltScenario, until: SimTime| {
        while let Some(at) = built
            .pending_faults
            .first()
            .map(|f| f.at)
            .filter(|&at| at <= until)
        {
            adv.free_run(built, at);
            adv.inject(built, at);
        }
        adv.free_run(built, until);
    };
    loop {
        let until = built.world.now() + SimDuration::from_secs(10);
        advance_to(built, until);
        if built.all_clients_done() || built.world.now().as_secs_f64() > limit.as_secs_f64() {
            break;
        }
    }
    let drain = built.world.now() + SimDuration::from_secs(5);
    advance_to(built, drain);
}

struct Plain {
    checkpoints: Vec<u64>,
}

impl Advance for Plain {
    fn free_run(&mut self, built: &mut BuiltScenario, until: SimTime) {
        built.world.run_until(until);
        self.checkpoints.push(built.world.stats().events);
    }
    fn inject(&mut self, built: &mut BuiltScenario, at: SimTime) {
        built.run_until_with_faults(at);
        self.checkpoints.push(built.world.stats().events);
    }
}

/// Builds `spec`, drives it with the `Advance` that `make` returns and
/// collects the outcome (`checkpoints` left empty).
fn execute<A: Advance>(spec: &RunSpec, make: impl FnOnce(&BuiltScenario) -> A) -> (RunOutput, A) {
    let t0 = Instant::now();
    let mut built = prepare(spec);
    let build = t0.elapsed();
    let mut adv = make(&built);
    drive(&mut built, spec.config.run_limit, &mut adv);
    let wall = t0.elapsed();
    let out = RunOutput {
        wall,
        build,
        metrics: built.metrics(),
        world: built.world.stats(),
        checkpoints: Vec::new(),
    };
    (out, adv)
}

/// Runs `spec` untraced.
pub fn run_plain(spec: &RunSpec) -> RunOutput {
    let (out, adv) = execute(spec, |_| Plain {
        checkpoints: Vec::new(),
    });
    RunOutput {
        checkpoints: adv.checkpoints,
        ..out
    }
}

struct Traced<'a> {
    run: u16,
    epoch: Instant,
    checkpoints: std::slice::Iter<'a, u64>,
    /// Sorted instants at which the schedule injects a static fault.
    fault_instants: Vec<SimTime>,
    clients: Vec<ActorId>,
    probe: Probe,
    spans: &'a mut Vec<Span>,
}

impl Traced<'_> {
    fn target(&mut self) -> u64 {
        *self
            .checkpoints
            .next()
            .expect("traced loop stops where the plain loop stopped")
    }
}

impl Advance for Traced<'_> {
    fn free_run(&mut self, built: &mut BuiltScenario, until: SimTime) {
        let target = self.target();
        let Traced {
            run,
            epoch,
            fault_instants,
            clients,
            probe,
            spans,
            ..
        } = self;
        trace_steps(
            &mut built.world,
            target,
            probe,
            |world| {
                clients.iter().fold((0, 0), |(r, u), &id| {
                    let s = world
                        .actor::<ClientActor>(id)
                        .expect("client actor type")
                        .gateway()
                        .stats();
                    (r + s.reads, u + s.updates)
                })
            },
            |now| fault_instants.binary_search(&now).is_ok(),
            |class, virt_us, start, end| {
                spans.push(Span::new(*run, class, virt_us, *epoch, start, end));
            },
        );
        // No event is left at or before `until`: this only sets the clock.
        built.world.run_until(until);
        assert_eq!(built.world.stats().events, target, "free_run overshot");
    }

    fn inject(&mut self, built: &mut BuiltScenario, at: SimTime) {
        let target = self.target();
        let start = Instant::now();
        built.run_until_with_faults(at);
        let end = Instant::now();
        self.probe.world = built.world.stats();
        assert_eq!(self.probe.world.events, target, "inject diverged");
        self.spans.push(Span::new(
            self.run,
            StepClass::Fault,
            at.as_micros(),
            self.epoch,
            start,
            end,
        ));
    }
}

/// Steps `world` until it has processed `target_events` events, reporting
/// one `(class, virtual µs, start, end)` per step. Spans are back to back —
/// a step's span starts where the previous one ended — so each costs one
/// clock read, and the few ns of bookkeeping between two steps sit inside
/// the later span rather than in a gap. `requests` returns the `(reads,
/// updates)` issued so far; it is polled only after steps that fired a
/// timer, since clients issue requests from their think timer.
pub fn trace_steps<M: Clone + 'static>(
    world: &mut World<M>,
    target_events: u64,
    probe: &mut Probe,
    requests: impl Fn(&World<M>) -> (u64, u64),
    is_fault_instant: impl Fn(SimTime) -> bool,
    mut emit: impl FnMut(StepClass, u64, Instant, Instant),
) {
    let mut start = Instant::now();
    while probe.world.events < target_events {
        let before = *probe;
        let stepped = world.step();
        let end = Instant::now();
        assert!(stepped, "event queue ran dry before the checkpoint");
        probe.world = world.stats();
        if probe.world.timers > before.world.timers {
            (probe.reads, probe.updates) = requests(world);
        }
        let now = world.now();
        let class = classify(&before, probe, || is_fault_instant(now));
        emit(class, now.as_micros(), start, end);
        start = end;
    }
}

/// Runs `spec` one `World::step` at a time, stopping at `checkpoints` (from
/// `run_plain` on the same spec) and appending one span per step.
pub fn run_traced(
    spec: &RunSpec,
    run: u16,
    checkpoints: &[u64],
    epoch: Instant,
    spans: &mut Vec<Span>,
) -> RunOutput {
    let mut fault_instants: Vec<SimTime> = spec
        .config
        .faults
        .iter()
        .map(|f| f.at)
        .chain(spec.harness_faults.iter().map(|f| f.at))
        .collect();
    fault_instants.sort();
    let (out, mut adv) = execute(spec, |built| Traced {
        run,
        epoch,
        checkpoints: checkpoints.iter(),
        fault_instants,
        clients: built.client_ids.clone(),
        probe: Probe::default(),
        spans,
    });
    assert!(
        adv.checkpoints.next().is_none(),
        "plain loop stopped more often"
    );
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use aqf_sim::{Actor, Context, Timer};

    /// Actor 0 is a toy client: its timer "issues" a read and then an
    /// update (a message to actor 1). Actor 1 answers a message with a
    /// message to actor 2, which is crashed part of the time.
    struct Toy {
        reads: u64,
        updates: u64,
    }

    impl Actor<u32> for Toy {
        fn on_start(&mut self, ctx: &mut Context<'_, u32>) {
            if ctx.me().index() == 0 {
                ctx.set_timer(1, SimDuration::from_millis(10));
                ctx.set_timer(2, SimDuration::from_millis(30));
            }
            if ctx.me().index() == 1 {
                ctx.set_timer(3, SimDuration::from_millis(15));
                let doomed = ctx.set_timer(4, SimDuration::from_millis(16));
                ctx.cancel_timer(doomed);
            }
        }
        fn on_message(&mut self, _: ActorId, msg: u32, ctx: &mut Context<'_, u32>) {
            if ctx.me().index() == 1 {
                ctx.send(ActorId::from_index(2), msg);
            }
        }
        fn on_timer(&mut self, timer: Timer, ctx: &mut Context<'_, u32>) {
            match timer.kind {
                1 => self.reads += 1,
                2 => {
                    self.updates += 1;
                    ctx.send(ActorId::from_index(1), 7);
                }
                _ => {}
            }
        }
    }

    #[test]
    fn classifier_on_a_three_actor_world() {
        let mut world: World<u32> = World::new(1);
        for _ in 0..3 {
            world.add_actor(Box::new(Toy {
                reads: 0,
                updates: 0,
            }));
        }
        let victim = ActorId::from_index(2);
        world.schedule_crash(victim, SimTime::from_millis(20));
        world.schedule_restart(victim, SimTime::from_millis(50));
        let faults = [SimTime::from_millis(20), SimTime::from_millis(50)];
        let mut seen = Vec::new();
        let mut probe = Probe::default();
        trace_steps(
            &mut world,
            8,
            &mut probe,
            |w| {
                let c = w.actor::<Toy>(ActorId::from_index(0)).unwrap();
                (c.reads, c.updates)
            },
            |now| faults.contains(&now),
            |class, virt_us, start, end| {
                assert!(end >= start);
                seen.push((virt_us / 10_000, class));
            },
        );
        use StepClass::*;
        assert_eq!(
            seen,
            vec![
                (1, ReadIssue),   // 10 ms: client think timer, read counter moved
                (1, TimerOther),  // 15 ms: a timer that issues nothing
                (1, TimerOther),  // 16 ms: cancelled timer popping
                (2, Fault),       // 20 ms: crash of actor 2
                (3, UpdateIssue), // 30 ms: client think timer, update counter moved
                (3, Deliver),     // actor 1 receives (link delay < 1 ms)
                (3, Deliver),     // dropped at crashed actor 2
                (5, Fault),       // 50 ms: restart of actor 2
            ]
        );
        assert_eq!(probe.world.events, 8);
        assert!(!world.step(), "queue is empty after the eighth event");
    }

    #[test]
    fn classify_prefers_request_counters_over_timer_counters() {
        let before = Probe::default();
        let mut after = before;
        after.world.timers = 1;
        assert_eq!(classify(&before, &after, || false), StepClass::TimerOther);
        after.updates = 1;
        assert_eq!(classify(&before, &after, || false), StepClass::UpdateIssue);
        after.reads = 1;
        assert_eq!(classify(&before, &after, || true), StepClass::ReadIssue);
    }
}
