//! The four workloads. Each one is a set-up (timed) and a pass of fixed
//! size over the state it builds: the amount of work is a function of
//! the seed and the pass length only, never of how fast the host is, so
//! two passes of one seed do the same operations in the same order and
//! their outputs can be compared bit for bit.
//!
//! Why each workload exists (see `perfbench/README.md` for the layer
//! map):
//! - `toolchain_suite` is the only one where the design-time pipeline,
//!   DSE profiling and kernel lowering run; the fleets are idle.
//! - `event_churn` stresses the event heap, slab churn and per-event
//!   knowledge merges; no kernel runs and no wire message is encoded.
//! - `lockstep_fleet` is the only one with rayon-stepped rounds,
//!   cached compiled-kernel execution, monitor feedback and barrier
//!   batch publishes.
//! - `dist_gossip` is the only one that runs the wire codec, the
//!   simulated network and replica folds.

use crate::deploy::{self, derive, fnv_fold, fnv_str, Deployment, EffSums, FNV_OFFSET};
use crate::spans::Tracer;
use crate::stats::Tally;
use margot::{AsRtm, SharedKnowledge};
use polybench::App;
use socrates::{
    compile_kernel_for, trace_digest, ArtifactStore, DistTopology, DistributedConfig,
    DistributedFleet, EnhancedApp, EventFleet, ExecutionEngine, ExecutionReport, Fleet,
    FleetConfig, FleetEvent, FleetRuntime, LinkConfig, Schedule, SocratesError, Toolchain,
    TraceSample, WorkloadCurve, WorkloadTrace,
};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// A workload: a seeded set-up and a fixed-size pass over its state.
pub trait Workload {
    /// The state a set-up builds and a pass consumes.
    type State;

    /// Whether a pass runs on the calling thread alone (no rayon), so
    /// it may be pinned to one core.
    const SINGLE_THREADED: bool = false;

    /// Builds the inputs and the program state from the seed, for a
    /// pass sized from `seconds`.
    ///
    /// # Errors
    ///
    /// Propagates errors of the program's set-up calls.
    fn setup(&self, seed: u64, seconds: f64) -> Result<Self::State, SocratesError>;

    /// Runs the measured operations (sized from `seconds`), checks the
    /// outputs against the benchmark's references, and reports.
    fn pass(&self, state: Self::State, seed: u64, seconds: f64, tracer: &mut Tracer) -> Pass;
}

/// What one pass measured.
#[derive(Debug, Default)]
pub struct Pass {
    /// Wall time of every operation in run order, ms (the latency
    /// sample).
    pub op_ms: Vec<f64>,
    /// Wall time of the pass's other timed calls in run order, ms: part
    /// of the throughput's time, not of the latency sample (the gossip
    /// drains).
    pub other_ms: Vec<f64>,
    /// Units of useful work done (apps enhanced, events, instance
    /// steps, observations).
    pub work: u64,
    /// Wall seconds of the whole pass, checks excluded.
    pub pass_s: f64,
    /// Fingerprint of the pass's outputs: equal across the plain and
    /// the traced pass of one seed.
    pub digest: u64,
    /// Achieved Thr/W² as a percentage of the noise-free oracle.
    pub tuning_eff_pct: f64,
    /// Samples behind `tuning_eff_pct`.
    pub tuning_samples: u64,
    /// Operations attempted and failed.
    pub tally: Tally,
    /// The workload's own names for end-to-end metrics, printed beside
    /// them: (metric, name, scale, unit).
    pub aliases: Vec<(&'static str, &'static str, f64, &'static str)>,
    /// Further workload-specific figures, printed by name: (name,
    /// value, unit, samples).
    pub named: Vec<(String, f64, String, u64)>,
    /// Facts for the provenance record.
    pub notes: Vec<(String, String)>,
}

impl Pass {
    fn name(&mut self, name: &str, value: f64, unit: &str, samples: u64) {
        self.named
            .push((name.to_string(), value, unit.to_string(), samples));
    }
}

fn ms(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e3
}

// ---- toolchain_suite ----------------------------------------------------

/// `Toolchain::default().enhance_all(&App::ALL)` on a fresh store per
/// sweep: the paper's design-time flow over the whole suite.
pub struct ToolchainSuite;

/// Sweeps per second of pass (about 0.7 s per sweep on a 2-core
/// host).
const SWEEPS_PER_S: f64 = 1.4;

/// Toolchain plus the reference kernel reports of the AST interpreter.
pub struct ToolchainState {
    toolchain: Toolchain,
    ast_reports: Vec<ExecutionReport>,
}

impl Workload for ToolchainSuite {
    type State = ToolchainState;

    fn setup(&self, seed: u64, _seconds: f64) -> Result<ToolchainState, SocratesError> {
        let toolchain = Toolchain {
            seed: derive(seed, 2),
            ..Toolchain::default()
        };
        // The reference: every app's weaved kernel run by the AST
        // interpreter, which the bytecode engine must match.
        let store = ArtifactStore::new();
        let ast_reports = App::ALL
            .iter()
            .map(|&app| {
                let weaved = store.weaved(&toolchain, app)?;
                let entry = weaved
                    .multiversioned
                    .version_functions
                    .first()
                    .cloned()
                    .unwrap_or_else(|| app.kernel_name());
                let kernel = compile_kernel_for(
                    ExecutionEngine::Ast,
                    &weaved.weaved,
                    &entry,
                    app,
                    toolchain.dataset,
                    1,
                )?;
                Ok(kernel.report)
            })
            .collect::<Result<_, SocratesError>>()?;
        Ok(ToolchainState {
            toolchain,
            ast_reports,
        })
    }

    fn pass(&self, state: ToolchainState, _seed: u64, seconds: f64, tracer: &mut Tracer) -> Pass {
        let sweeps = ((seconds * SWEEPS_PER_S).ceil() as usize).max(1);
        let tc = &state.toolchain;
        let mut pass = Pass::default();
        let mut first: Option<Vec<EnhancedApp>> = None;
        let mut builds = Vec::with_capacity(sweeps);
        for sweep in 0..sweeps {
            pass.tally.attempt(1);
            let store = ArtifactStore::new();
            let start = Instant::now();
            tracer.enter("pipeline.enhance_all");
            let out = tc.enhance_all_with_store(&App::ALL, &store);
            tracer.exit();
            let took = ms(start);
            pass.pass_s += took / 1e3;
            pass.op_ms.push(took);
            let apps = match out {
                Ok(apps) => apps,
                Err(e) => {
                    pass.tally.check(false, || format!("sweep {sweep}: {e}"));
                    continue;
                }
            };
            pass.work += apps.len() as u64;
            builds.push(store.stats().kernel_builds);
            let mut problems = Vec::new();
            for (app, ast) in App::ALL.iter().zip(&state.ast_reports) {
                match store.compiled_kernel(tc, *app, 1) {
                    Ok(k) if k.report == *ast => {}
                    Ok(_) => {
                        problems.push(format!("{}: bytecode report != AST report", app.name()))
                    }
                    Err(e) => problems.push(format!("{}: {e}", app.name())),
                }
            }
            match &first {
                None => first = Some(apps),
                Some(f) if *f == apps => {}
                Some(_) => problems.push("outputs differ from sweep 0".into()),
            }
            pass.tally.check(problems.is_empty(), || {
                format!("sweep {sweep}: {}", problems.join("; "))
            });
        }
        if let Some(apps) = &first {
            let mut digest = FNV_OFFSET;
            let mut effs = Vec::new();
            for e in apps {
                let facts = format!("{:?}", (e.app, &e.versions, &e.cobayn_flags, &e.knowledge));
                digest = fnv_fold(digest, fnv_str(&facts));
                effs.push(design_choice_pct(tc, e));
            }
            pass.digest = digest;
            pass.tuning_eff_pct = effs.iter().sum::<f64>() / effs.len() as f64;
            pass.tuning_samples = effs.len() as u64;
        }
        pass.aliases = vec![
            ("op_ms_p50", "sweep_ms_p50", 1.0, "ms"),
            ("throughput_per_s", "apps_per_s", 1.0, "1/s"),
        ];
        let mean_builds = builds.iter().sum::<u64>() as f64 / builds.len().max(1) as f64;
        pass.name(
            "artifact.kernel_builds_per_sweep",
            mean_builds,
            "count",
            builds.len() as u64,
        );
        pass.notes.push((
            "kernel_builds_per_sweep".into(),
            format!(
                "{builds:?} (varies with thread count until the kernel cache is single-flight)"
            ),
        ));
        pass
    }
}

/// How good the AS-RTM's design-time pick is: the noise-free Thr/W² of
/// the configuration it selects from the profiled knowledge, as a
/// percentage of the best configuration in that knowledge.
fn design_choice_pct(tc: &Toolchain, e: &EnhancedApp) -> f64 {
    let machine = tc.platform.machine(0);
    let best = deploy::best_eff(&machine, e);
    let asrtm = AsRtm::new(e.knowledge.clone(), deploy::rank());
    let pick = asrtm.best().map(|p| p.config.clone());
    pick.map_or(0.0, |c| 100.0 * deploy::true_eff(&machine, e, &c) / best)
}

// ---- event_churn ---------------------------------------------------------

/// An event-driven fleet with a large resident population plus a
/// seeded diurnal arrival trace, on the drifted deployment.
pub struct EventChurn;

/// Resident instances spawned at time zero (the working set).
pub const RESIDENTS: usize = 65_536;
/// `run_events(1)` calls per second of pass.
const EVENTS_PER_S: f64 = 150_000.0;
/// Width of the virtual-time buckets the tuning sums are kept in.
const BUCKET_S: f64 = 1e-3;

/// Scheduler events per resident instance per virtual second on the
/// 2mm deployment (its kernel takes about 30 ms), including churn.
const EVENTS_PER_RESIDENT_S: f64 = 33.0;

/// The churn trace for `residents` resident instances over a pass of
/// `events` scheduler events: arrivals at 0.61 per resident per second,
/// each living a fifth of the horizon on average, so that about one
/// event in thirty is an arrival or a retirement whatever the pass
/// length. The horizon is the virtual time the pass covers, so no
/// arrival waits in the heap unused, and the diurnal curve swings
/// through two periods of it.
pub fn churn_trace(seed: u64, residents: usize, events: u64) -> WorkloadTrace {
    let horizon_s = events as f64 / (EVENTS_PER_RESIDENT_S * residents as f64);
    WorkloadTrace {
        seed,
        horizon_s,
        base_rate_hz: 0.61 * residents as f64,
        mean_lifetime_s: horizon_s / 5.0,
        curve: WorkloadCurve::Diurnal {
            period_s: horizon_s / 2.0,
            amplitude: 0.6,
        },
    }
}

/// What the event observer saw.
#[derive(Debug, Default)]
pub struct EventLog {
    /// Arrivals.
    pub arrived: u64,
    /// Retirements.
    pub retired: u64,
    /// Steps.
    pub stepped: u64,
    /// Publishes.
    pub published: u64,
    /// Kinds seen since the last reset: bit 0 step, 1 arrival, 2
    /// retirement.
    pub kinds: u8,
    /// Planned steps by virtual start time, in [`BUCKET_S`] buckets.
    pub buckets: Vec<EffSums>,
}

impl EventLog {
    fn see(&mut self, ev: &FleetEvent) {
        match *ev {
            FleetEvent::Arrived { .. } => {
                self.arrived += 1;
                self.kinds |= 2;
            }
            FleetEvent::Retired { .. } => {
                self.retired += 1;
                self.kinds |= 4;
            }
            FleetEvent::Stepped {
                t_start_s,
                time_s,
                power_w,
                forced,
                ..
            } => {
                self.stepped += 1;
                self.kinds |= 1;
                if !forced {
                    let b = (t_start_s / BUCKET_S) as usize;
                    if self.buckets.len() <= b {
                        self.buckets.resize(b + 1, EffSums::default());
                    }
                    self.buckets[b].add(time_s, power_w);
                }
            }
            FleetEvent::Published { .. } => self.published += 1,
        }
    }

    /// Planned-step sums over the final third of `[0, t_end)`.
    pub fn final_third(&self, t_end: f64) -> EffSums {
        let from = (t_end * 2.0 / 3.0 / BUCKET_S) as usize;
        let mut sums = EffSums::default();
        for b in self.buckets.iter().skip(from) {
            sums.merge(b);
        }
        sums
    }
}

/// An event fleet with its observer's log.
pub struct EventState {
    /// Noise-free oracle Thr/W² of the deployment.
    pub oracle_eff: f64,
    /// The fleet.
    pub fleet: EventFleet,
    /// The trace driving arrivals.
    pub trace: WorkloadTrace,
    /// Resident instances spawned before the trace.
    pub residents: usize,
    /// The observer's log, registered after the residents spawned.
    pub log: Arc<Mutex<EventLog>>,
}

/// Boots an event fleet of `residents` on the drifted deployment and
/// schedules the churn trace.
pub fn event_fleet(
    deployment: &Deployment,
    seed: u64,
    residents: usize,
    events: u64,
) -> Result<EventState, SocratesError> {
    let config = FleetConfig::builder()
        .schedule(Schedule::EventDriven)
        .build()?;
    let mut fleet = EventFleet::new(config)?;
    let rank = deploy::rank();
    let base = deployment.machine(derive(seed, 4));
    fleet.spawn_on(&deployment.enhanced, &rank, &base, residents);
    let trace = churn_trace(derive(seed, 3), residents, events);
    fleet.drive(&trace, &deployment.enhanced, &rank)?;
    let log = Arc::new(Mutex::new(EventLog::default()));
    let sink = Arc::clone(&log);
    fleet.observe(Box::new(move |ev| {
        sink.lock().expect("event log lock").see(ev)
    }));
    Ok(EventState {
        oracle_eff: deployment.oracle_eff,
        fleet,
        trace,
        residents,
        log,
    })
}

/// Checks an event fleet's counters against the observer and the
/// trace; every mismatch is one failure.
pub fn check_event_fleet(state: &EventState, tally: &mut Tally) {
    let stats = state.fleet.stats();
    let log = state.log.lock().expect("event log lock");
    let now = state.fleet.virtual_now_s();
    let due = state
        .trace
        .arrivals()
        .iter()
        .filter(|a| a.t_s <= now)
        .count() as u64;
    tally.check(log.arrived == due, || {
        format!("{} arrivals observed, {due} due by t = {now}", log.arrived)
    });
    tally.check(
        stats.spawned == state.residents as u64 + log.arrived,
        || {
            format!(
                "spawned {} != residents {} + arrivals {}",
                stats.spawned, state.residents, log.arrived
            )
        },
    );
    tally.check(stats.retired + stats.active as u64 == stats.spawned, || {
        format!(
            "retired {} + active {} != spawned {}",
            stats.retired, stats.active, stats.spawned
        )
    });
    tally.check(log.retired == stats.retired, || {
        format!(
            "{} retirements observed, {} counted",
            log.retired, stats.retired
        )
    });
    let observed = log.arrived + log.retired + log.stepped + stats.stale_dropped;
    tally.check(observed == stats.events, || {
        format!(
            "observer saw {observed} events (stale included), scheduler counted {}",
            stats.events
        )
    });
    tally.check(log.published == log.stepped, || {
        format!("{} publishes for {} steps", log.published, log.stepped)
    });
}

/// Events in a pass of `seconds`.
fn pass_events(seconds: f64) -> u64 {
    ((EVENTS_PER_S * seconds) as u64).max(1)
}

impl Workload for EventChurn {
    type State = EventState;

    // The event loop runs no rayon, whose workers would inherit a pin.
    const SINGLE_THREADED: bool = true;

    fn setup(&self, seed: u64, seconds: f64) -> Result<EventState, SocratesError> {
        event_fleet(&Deployment::build()?, seed, RESIDENTS, pass_events(seconds))
    }

    fn pass(&self, mut state: EventState, _seed: u64, seconds: f64, tracer: &mut Tracer) -> Pass {
        let events = pass_events(seconds);
        let mut pass = Pass {
            op_ms: Vec::with_capacity(events as usize),
            ..Pass::default()
        };
        let fleet = &mut state.fleet;
        let whole = Instant::now();
        for _ in 0..events {
            let start = Instant::now();
            tracer.enter("fleet_events.run_events");
            pass.work += fleet.run_events(1);
            tracer.exit();
            pass.op_ms.push(start.elapsed().as_secs_f64() * 1e3);
        }
        pass.pass_s = whole.elapsed().as_secs_f64();
        pass.tally.attempt(events);
        pass.tally.check(pass.work == events, || {
            format!(
                "the scheduler ran dry after {} of {events} events",
                pass.work
            )
        });
        check_event_fleet(&state, &mut pass.tally);
        pass.digest = state.fleet.event_digest();
        let now = state.fleet.virtual_now_s();
        let sums = state.log.lock().expect("event log lock").final_third(now);
        pass.tuning_eff_pct = sums.pct_of(state.oracle_eff);
        pass.tuning_samples = sums.n;
        let stats = state.fleet.stats();
        pass.aliases = vec![
            ("op_ms_p50", "event_us_p50", 1e3, "us"),
            ("op_ms_tail", "event_us_p75", 1e3, "us"),
            ("throughput_per_s", "events_per_s", 1.0, "1/s"),
        ];
        pass.name("regret_pct", 100.0 - pass.tuning_eff_pct, "%", sums.n);
        pass.notes.push(("virtual_end_s".into(), now.to_string()));
        pass.notes
            .push(("fleet_stats".into(), format!("{stats:?}")));
        pass
    }
}

// ---- lockstep_fleet ------------------------------------------------------

/// A lockstep fleet of [`INSTANCES`] drifted 2mm instances with
/// cooperative exploration on.
pub struct LockstepFleet;

/// Fleet size.
pub const INSTANCES: usize = 1024;
/// Rounds per second of pass. Rounds take about 5.5 ms on a 2-core
/// host, but every instance keeps its whole trace, so memory grows
/// with the round count: 150 rounds per second keeps the peak of a
/// 2-second pass (300 rounds) near 310 MB.
const ROUNDS_PER_S: f64 = 150.0;

/// A lockstep fleet and its deployment.
pub struct LockstepState {
    deployment: Deployment,
    fleet: Fleet,
}

/// Boots a lockstep fleet of `instances` on the drifted deployment.
pub fn lockstep_fleet(
    deployment: &Deployment,
    seed: u64,
    instances: usize,
) -> Result<Fleet, SocratesError> {
    let mut fleet = Fleet::new(FleetConfig::default())?;
    fleet.spawn_on(
        &deployment.enhanced,
        &deploy::rank(),
        &deployment.machine(derive(seed, 5)),
        instances,
    );
    Ok(fleet)
}

/// Planned-step sums over the final third of the virtual time every
/// trace reached, plus the digest of all traces.
fn trace_tuning(traces: impl Iterator<Item = Vec<TraceSample>>, t_end: f64) -> (EffSums, u64, u64) {
    let mut sums = EffSums::default();
    let mut digest = FNV_OFFSET;
    let mut steps = 0;
    let from = t_end * 2.0 / 3.0;
    for trace in traces {
        digest = fnv_fold(digest, trace_digest(&trace));
        steps += trace.len() as u64;
        for s in trace
            .iter()
            .filter(|s| !s.forced && s.t_start_s >= from && s.t_start_s < t_end)
        {
            sums.add(s.time_s, s.power_w);
        }
    }
    (sums, digest, steps)
}

impl Workload for LockstepFleet {
    type State = LockstepState;

    fn setup(&self, seed: u64, _seconds: f64) -> Result<LockstepState, SocratesError> {
        let deployment = Deployment::build()?;
        let fleet = lockstep_fleet(&deployment, seed, INSTANCES)?;
        Ok(LockstepState { deployment, fleet })
    }

    fn pass(
        &self,
        mut state: LockstepState,
        _seed: u64,
        seconds: f64,
        tracer: &mut Tracer,
    ) -> Pass {
        let rounds = ((ROUNDS_PER_S * seconds) as u64).max(1);
        let mut pass = Pass::default();
        let fleet = &mut state.fleet;
        let whole = Instant::now();
        let mut ran = 0;
        for _ in 0..rounds {
            let start = Instant::now();
            tracer.enter("fleet.run_events");
            ran += fleet.run_events(1);
            tracer.exit();
            pass.op_ms.push(ms(start));
        }
        pass.pass_s = whole.elapsed().as_secs_f64();
        pass.tally.attempt(rounds);
        pass.tally
            .check(ran == rounds, || format!("{ran} of {rounds} rounds ran"));
        let stats = fleet.stats();
        pass.tally
            .fail_n(fleet.failed_instances() as u64, "failed fleet instance");
        let (covered, total) = fleet.exploration_coverage(App::TwoMm).unwrap_or((0, 0));
        pass.tally.check(
            total == state.deployment.enhanced.knowledge.len()
                && covered <= total
                && (rounds < 8 || covered == total),
            || format!("exploration coverage {covered}/{total} after {rounds} rounds"),
        );
        let t_end = (0..fleet.len())
            .map(|id| fleet.now_s(id))
            .fold(f64::INFINITY, f64::min);
        let (sums, digest, steps) = trace_tuning((0..fleet.len()).map(|id| fleet.trace(id)), t_end);
        pass.work = INSTANCES as u64 * rounds;
        pass.tally.check(steps == pass.work, || {
            format!(
                "{steps} instance steps in the traces, {} expected",
                pass.work
            )
        });
        pass.digest = digest;
        pass.tuning_eff_pct = sums.pct_of(state.deployment.oracle_eff);
        pass.tuning_samples = sums.n;
        pass.aliases = vec![
            ("op_ms_p50", "round_ms_p50", 1.0, "ms"),
            ("op_ms_tail", "round_ms_p75", 1.0, "ms"),
            ("throughput_per_s", "steps_per_s", 1.0, "1/s"),
        ];
        pass.name("regret_pct", 100.0 - pass.tuning_eff_pct, "%", sums.n);
        pass.notes.push(("virtual_end_s".into(), t_end.to_string()));
        pass.notes
            .push(("fleet_stats".into(), format!("{stats:?}")));
        pass
    }
}

// ---- dist_gossip ---------------------------------------------------------

/// Episodes of a 16-node gossip fleet on a lossy link: a fixed number
/// of rounds, then a drain to convergence, on the design-time platform.
pub struct DistGossip;

/// Nodes per episode.
pub const NODES: usize = 16;
/// Application rounds per episode before the drain.
pub const EPISODE_ROUNDS: usize = 25;
/// Episodes per second of pass (about 90 ms each on a 2-core host).
const EPISODES_PER_S: f64 = 9.0;

/// The lossy gossip link of episode `episode`.
pub fn gossip_config(seed: u64, episode: u64) -> FleetConfig {
    FleetConfig {
        exploration_interval: 0,
        distributed: Some(DistributedConfig {
            topology: DistTopology::Gossip { fanout: 2 },
            link: LinkConfig {
                seed: derive(seed, 100 + episode),
                min_latency: 0,
                max_latency: 2,
                drop_prob: 0.1,
                dup_prob: 0.1,
            },
            ..DistributedConfig::default()
        }),
        ..FleetConfig::default()
    }
}

/// Boots the gossip fleet of one episode.
pub fn gossip_fleet(
    deployment: &Deployment,
    seed: u64,
    episode: u64,
) -> Result<DistributedFleet, SocratesError> {
    let mut fleet = DistributedFleet::new(gossip_config(seed, episode), &deployment.enhanced)?;
    fleet.spawn_on(
        &deploy::rank(),
        &deployment
            .enhanced
            .platform
            .machine(derive(seed, 200 + episode)),
        NODES,
    );
    Ok(fleet)
}

/// Whether every node holds the single-shard `SharedKnowledge` fold of
/// the canonical log (the `fleet_dist_bench::verify_converged`
/// pattern); one failure per diverged node.
pub fn check_converged(fleet: &DistributedFleet, design: &EnhancedApp, tally: &mut Tally) {
    tally.check(fleet.converged(), || {
        "drain returned but fleet not converged".into()
    });
    let config = fleet.config();
    let reference = SharedKnowledge::new(design.knowledge.clone(), config.knowledge_window)
        .with_min_observations(config.min_observations)
        .with_shards(1);
    for op in fleet.canonical_ops() {
        reference.publish(&op.config, &op.observed);
    }
    let reference = reference.knowledge();
    for id in 0..fleet.len() {
        tally.check(fleet.node_knowledge(id) == reference, || {
            format!("node {id} diverged from the single-shard reference fold")
        });
    }
}

/// The deployment and the first episode's fleet.
pub struct GossipState {
    deployment: Deployment,
    first: DistributedFleet,
}

impl Workload for DistGossip {
    type State = GossipState;

    fn setup(&self, seed: u64, _seconds: f64) -> Result<GossipState, SocratesError> {
        let deployment = Deployment::build()?;
        let first = gossip_fleet(&deployment, seed, 0)?;
        Ok(GossipState { deployment, first })
    }

    fn pass(&self, state: GossipState, seed: u64, seconds: f64, tracer: &mut Tracer) -> Pass {
        let episodes = ((EPISODES_PER_S * seconds) as u64).max(1);
        let mut pass = Pass::default();
        let mut sums = EffSums::default();
        let mut digest = FNV_OFFSET;
        let (mut drain_rounds, mut refolds, mut replayed) = (0u64, 0u64, 0u64);
        let (mut sent, mut bytes) = (0u64, 0u64);
        let mut first = Some(state.first);
        for episode in 0..episodes {
            let whole = Instant::now();
            let built = match first.take() {
                Some(f) => Ok(f),
                None => gossip_fleet(&state.deployment, seed, episode),
            };
            pass.tally.attempt(EPISODE_ROUNDS as u64 + 1);
            let mut fleet = match built {
                Ok(f) => f,
                Err(e) => {
                    pass.tally
                        .check(false, || format!("episode {episode}: {e}"));
                    continue;
                }
            };
            for _ in 0..EPISODE_ROUNDS {
                let start = Instant::now();
                tracer.enter("fleet_dist.run_events");
                fleet.run_events(1);
                tracer.exit();
                pass.op_ms.push(ms(start));
            }
            let start = Instant::now();
            tracer.enter("fleet_dist.drain");
            let drained = fleet.drain();
            tracer.exit();
            pass.other_ms.push(ms(start));
            pass.pass_s += whole.elapsed().as_secs_f64();
            match drained {
                Ok(r) => {
                    drain_rounds += r;
                    digest = fnv_fold(digest, r);
                }
                Err(e) => pass
                    .tally
                    .check(false, || format!("episode {episode}: {e}")),
            }
            check_converged(&fleet, &state.deployment.enhanced, &mut pass.tally);
            let observations = fleet.canonical_ops().len() as u64;
            pass.work += observations;
            let t_end = (0..fleet.len())
                .map(|id| fleet.now_s(id))
                .fold(f64::INFINITY, f64::min);
            let (s, d, _) = trace_tuning((0..fleet.len()).map(|id| fleet.trace(id)), t_end);
            sums.merge(&s);
            digest = fnv_fold(digest, d);
            let stats = fleet.stats();
            refolds += stats.refolds;
            replayed += stats.refold_ops_replayed;
            sent += stats.net.sent;
            bytes += stats.net.bytes_sent;
        }
        pass.digest = digest;
        pass.tuning_eff_pct = sums.pct_of(state.deployment.design_oracle_eff);
        pass.tuning_samples = sums.n;
        pass.aliases = vec![
            ("op_ms_p50", "round_ms_p50", 1.0, "ms"),
            ("op_ms_tail", "round_ms_p75", 1.0, "ms"),
            ("throughput_per_s", "observations_per_s", 1.0, "1/s"),
        ];
        pass.name(
            "drain_rounds",
            drain_rounds as f64 / episodes as f64,
            "count",
            episodes,
        );
        pass.name(
            "refolds_per_episode",
            refolds as f64 / episodes as f64,
            "count",
            episodes,
        );
        pass.name(
            "replay_ratio",
            replayed as f64 / pass.work.max(1) as f64,
            "ratio",
            pass.work,
        );
        pass.name(
            "bytes_per_msg",
            bytes as f64 / sent.max(1) as f64,
            "B",
            sent,
        );
        pass
    }
}
