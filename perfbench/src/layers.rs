//! Per-layer probes of the traced run. Every traced run, whatever its
//! workload, drives the same seeded fixtures through each layer's
//! public functions, each call wrapped in a span, so every per-layer
//! metric is measured on every workload from identical inputs. The
//! fixtures are small copies of the four workloads; their outputs are
//! checked like the workloads' own.

use crate::deploy::{self, derive, Deployment};
use crate::report::Metrics;
use crate::spans::Tracer;
use crate::stats::{percentile, sorted, Tally};
use crate::workloads::{self, check_converged, check_event_fleet};
use margot::{AsRtm, MetricValues, SharedKnowledge};
use platform_sim::KnobConfig;
use polybench::App;
use socrates::transport::{Replica, WireMessage};
use socrates::{
    compile_kernel, functional_spec, wire_from_bytes, wire_to_bytes, ArtifactStore,
    ExecutionEngine, FleetRuntime, SocratesError, Toolchain,
};
use std::hint::black_box;
use std::time::Instant;

/// Lockstep fixture: instances and rounds replayed into `margot`.
const LOCKSTEP_INSTANCES: usize = 64;
const LOCKSTEP_ROUNDS: usize = 60;
/// Event fixture: residents and `run_events(1)` calls.
const EVENT_RESIDENTS: usize = 4096;
const EVENT_CALLS: usize = 100_000;
/// Repetitions of the cheap probes, for enough timed calls.
const KERNEL_RUNS: usize = 20;
const PLANS: usize = 2000;
const CODEC_REPS: usize = 20;

/// Mean duration of the fixture's spans named `name`, µs (0 without
/// spans); `since` marks the fixture's first span.
fn mean_us(tracer: &Tracer, since: usize, name: &str) -> (f64, u64) {
    let (total, n) = tracer.total_ns(since, name);
    (total as f64 / 1e3 / n.max(1) as f64, n)
}

/// Total duration of the fixture's spans named `name`, ms.
fn total_ms(tracer: &Tracer, since: usize, name: &str) -> (f64, u64) {
    let (total, n) = tracer.total_ns(since, name);
    (total as f64 / 1e6, n)
}

/// Runs every fixture and records the per-layer metrics.
///
/// # Errors
///
/// Propagates errors of the program's calls.
pub fn probe(
    seed: u64,
    tracer: &mut Tracer,
    tally: &mut Tally,
    m: &mut Metrics,
) -> Result<(), SocratesError> {
    tracer.enter("bench.pipeline_fixture");
    let r = pipeline(seed, tracer, tally, m);
    tracer.exit();
    r?;
    tracer.enter("bench.deployment");
    let deployment = tracer.span("pipeline.enhance_deployment", Deployment::build);
    tracer.exit();
    let deployment = deployment?;
    for (name, fixture) in [
        ("bench.lockstep_fixture", lockstep as Fixture),
        ("bench.event_fixture", events),
        ("bench.gossip_fixture", gossip),
    ] {
        tracer.enter(name);
        let r = fixture(&deployment, seed, tracer, tally, m);
        tracer.exit();
        r?;
    }
    Ok(())
}

type Fixture =
    fn(&Deployment, u64, &mut Tracer, &mut Tally, &mut Metrics) -> Result<(), SocratesError>;

/// `pipeline` and `artifact`: each stage called in order on a fresh
/// store for the 12 apps, then `minivm` lowering and runs on the
/// weaved kernels.
fn pipeline(
    seed: u64,
    tracer: &mut Tracer,
    tally: &mut Tally,
    m: &mut Metrics,
) -> Result<(), SocratesError> {
    let since = tracer.len();
    let tc = Toolchain {
        seed: derive(seed, 2),
        ..Toolchain::default()
    };
    let store = ArtifactStore::new();
    for app in App::ALL {
        tracer.span("pipeline.parse", || store.parsed(&tc, app))?;
    }
    for app in App::ALL {
        tracer.span("pipeline.features", || store.kernel_features(&tc, app))?;
    }
    tracer.span("pipeline.corpus", || store.warm_corpus(&tc, &App::ALL))?;
    for app in App::ALL {
        tracer.span("pipeline.predict", || store.flag_predictions(&tc, app))?;
    }
    for app in App::ALL {
        tracer.span("pipeline.weave", || store.weaved(&tc, app))?;
    }
    for app in App::ALL {
        tracer.span("pipeline.profile", || store.profiled_knowledge(&tc, app))?;
    }
    for (metric, span) in [
        ("pipeline.corpus_ms", "pipeline.corpus"),
        ("pipeline.parse_ms", "pipeline.parse"),
        ("pipeline.features_ms", "pipeline.features"),
        ("pipeline.predict_ms", "pipeline.predict"),
        ("pipeline.weave_ms", "pipeline.weave"),
        ("pipeline.profile_ms", "pipeline.profile"),
    ] {
        let (ms, n) = total_ms(tracer, since, span);
        m.put(metric, ms, "ms", n);
    }
    let stats = store.stats();
    let lookups = stats.kernel_builds + stats.kernel_hits;
    m.put(
        "artifact.kernel_builds",
        stats.kernel_builds as f64,
        "count",
        1,
    );
    m.put("artifact.kernel_hits", stats.kernel_hits as f64, "count", 1);
    m.put(
        "artifact.kernel_hit_ratio",
        stats.kernel_hits as f64 / lookups.max(1) as f64,
        "ratio",
        lookups,
    );
    m.put(
        "artifact.kernel_compile_ms",
        store.kernel_compile_ns() as f64 / 1e6,
        "ms",
        stats.kernel_builds,
    );

    for app in App::ALL {
        let weaved = store.weaved(&tc, app)?;
        let entry = weaved
            .multiversioned
            .version_functions
            .first()
            .cloned()
            .unwrap_or_else(|| app.kernel_name());
        let spec = functional_spec(app, tc.dataset, 1);
        let kernel = tracer.span("minivm.compile_kernel", || {
            compile_kernel(
                ExecutionEngine::Bytecode,
                &weaved.weaved,
                &entry,
                app,
                &spec,
            )
        })?;
        for _ in 0..KERNEL_RUNS {
            let report = tracer.span("minivm.run", || kernel.run())?;
            tally.check(report == kernel.report, || {
                format!(
                    "{}: a rerun of the compiled kernel changed its report",
                    app.name()
                )
            });
        }
    }
    let (lower, n) = mean_us(tracer, since, "minivm.compile_kernel");
    m.put("minivm.lower_us", lower, "us", n);
    let (run, n) = mean_us(tracer, since, "minivm.run");
    m.put("minivm.run_us", run, "us", n);
    Ok(())
}

/// `fleet` and `margot`: a small lockstep fleet, then its recorded
/// rounds replayed into fresh knowledge bases, batch by batch and
/// observation by observation.
fn lockstep(
    deployment: &Deployment,
    seed: u64,
    tracer: &mut Tracer,
    tally: &mut Tally,
    m: &mut Metrics,
) -> Result<(), SocratesError> {
    let since = tracer.len();
    let mut fleet = workloads::lockstep_fleet(deployment, seed, LOCKSTEP_INSTANCES)?;
    for _ in 0..LOCKSTEP_ROUNDS {
        tracer.span("fleet.run_events", || fleet.run_events(1));
    }
    let stats = fleet.stats();
    let (covered, total) = fleet.exploration_coverage(App::TwoMm).unwrap_or((0, 0));
    m.put(
        "fleet.kernel_builds",
        stats.kernel_builds as f64,
        "count",
        1,
    );
    m.put(
        "fleet.kernel_cache_hits",
        stats.kernel_cache_hits as f64,
        "count",
        1,
    );
    m.put(
        "fleet.coverage",
        covered as f64 / total.max(1) as f64,
        "ratio",
        total as u64,
    );
    m.put(
        "fleet.failed_instances",
        stats.failed as f64,
        "count",
        stats.instances as u64,
    );
    tally.fail_n(stats.failed as u64, "failed fleet instance");

    // Round r's barrier batch is every instance's r-th sample, in
    // instance order.
    let traces: Vec<_> = (0..fleet.len()).map(|id| fleet.trace(id)).collect();
    let rounds: Vec<Vec<(KnobConfig, MetricValues)>> = (0..LOCKSTEP_ROUNDS)
        .map(|r| {
            traces
                .iter()
                .filter_map(|t| t.get(r))
                .map(|s| (s.config.clone(), s.observed_metrics()))
                .collect()
        })
        .collect();
    let config = fleet.config().clone();
    let fresh = || {
        SharedKnowledge::new(
            deployment.enhanced.knowledge.clone(),
            config.knowledge_window,
        )
        .with_min_observations(config.min_observations)
        .with_shards(config.knowledge_shards)
    };
    let batched = fresh();
    for batch in &rounds {
        tracer.span("margot.publish_batch", || {
            batched.publish_batch(batch.iter().map(|(c, o)| (c, o)))
        });
        tracer.span("margot.drain_changes", || {
            black_box(batched.drain_changes())
        });
    }
    let learned = fleet.learned_knowledge(App::TwoMm);
    tally.check(learned.as_ref() == Some(&batched.knowledge()), || {
        "replayed lockstep rounds do not reproduce the fleet's knowledge".into()
    });
    let per_event = fresh();
    let mut cache = deployment.enhanced.knowledge.clone();
    let mut observations = 0u64;
    for batch in &rounds {
        tracer.span("margot.publish_into", || {
            for (c, o) in batch {
                black_box(per_event.publish_into(c, o, &mut cache));
            }
        });
        observations += batch.len() as u64;
    }
    let effective = per_event.knowledge();
    tally.check(
        effective == batched.knowledge() && cache == effective,
        || "per-event publishes diverge from the batched replay".into(),
    );
    let (batch_us, batches) = mean_us(tracer, since, "margot.publish_batch");
    m.put("margot.publish_batch_us", batch_us, "us", batches);
    let (drain_us, drains) = mean_us(tracer, since, "margot.drain_changes");
    m.put("margot.drain_changes_us", drain_us, "us", drains);
    let (into_ms, _) = total_ms(tracer, since, "margot.publish_into");
    m.put(
        "margot.publish_into_us",
        into_ms * 1e3 / observations.max(1) as f64,
        "us",
        observations,
    );
    let asrtm = AsRtm::new(learned.unwrap_or_default(), deploy::rank());
    for _ in 0..PLANS {
        tracer.span("margot.plan", || {
            black_box(asrtm.best().map(|p| p.config.tn))
        });
    }
    let (plan_us, plans) = mean_us(tracer, since, "margot.plan");
    m.put("margot.plan_us", plan_us, "us", plans);
    m.put(
        "margot.knowledge_epoch",
        fleet.knowledge_epoch(App::TwoMm).unwrap_or(0) as f64,
        "count",
        1,
    );
    Ok(())
}

/// `fleet_events`: a small churning event fleet, each `run_events(1)`
/// call classified by the events the observer saw it emit.
fn events(
    deployment: &Deployment,
    seed: u64,
    tracer: &mut Tracer,
    tally: &mut Tally,
    m: &mut Metrics,
) -> Result<(), SocratesError> {
    let mut state = workloads::event_fleet(deployment, seed, EVENT_RESIDENTS, EVENT_CALLS as u64)?;
    let (mut step, mut arrive, mut retire) = (Vec::new(), Vec::new(), Vec::new());
    let mut peak_queued = 0;
    for _ in 0..EVENT_CALLS {
        state.log.lock().expect("event log lock").kinds = 0;
        let start = Instant::now();
        tracer.span("fleet_events.run_events", || state.fleet.run_events(1));
        let us = start.elapsed().as_secs_f64() * 1e6;
        peak_queued = peak_queued.max(state.fleet.queued_events());
        let kinds = state.log.lock().expect("event log lock").kinds;
        if kinds & 2 != 0 {
            arrive.push(us);
        } else if kinds & 4 != 0 {
            retire.push(us);
        } else if kinds & 1 != 0 {
            step.push(us);
        }
    }
    check_event_fleet(&state, tally);
    let stats = state.fleet.stats();
    let log = state.log.lock().expect("event log lock");
    let (step, arrive, retire) = (sorted(step), sorted(arrive), sorted(retire));
    for (metric, sample, q) in [
        ("fleet_events.step_us_p50", &step, 50.0),
        ("fleet_events.step_us_p99", &step, 99.0),
        ("fleet_events.arrive_us_p50", &arrive, 50.0),
        ("fleet_events.retire_us_p50", &retire, 50.0),
    ] {
        let value = if sample.is_empty() {
            0.0
        } else {
            percentile(sample, q).0
        };
        m.put(metric, value, "us", sample.len() as u64);
    }
    m.put(
        "fleet_events.stale_dropped",
        stats.stale_dropped as f64,
        "count",
        stats.events,
    );
    m.put("fleet_events.peak_slots", stats.slots as f64, "count", 1);
    m.put(
        "fleet_events.peak_queued",
        peak_queued as f64,
        "count",
        EVENT_CALLS as u64,
    );
    m.put(
        "fleet_events.publish_ratio",
        log.published as f64 / log.stepped.max(1) as f64,
        "ratio",
        log.stepped,
    );
    Ok(())
}

/// `fleet_dist` and `transport`: one gossip episode, then its
/// canonical log re-encoded batch by batch and folded into a fresh
/// replica in a seeded shuffled order.
fn gossip(
    deployment: &Deployment,
    seed: u64,
    tracer: &mut Tracer,
    tally: &mut Tally,
    m: &mut Metrics,
) -> Result<(), SocratesError> {
    let since = tracer.len();
    let mut fleet = workloads::gossip_fleet(deployment, seed, 0)?;
    for _ in 0..workloads::EPISODE_ROUNDS {
        tracer.span("fleet_dist.run_events", || fleet.run_events(1));
    }
    let drain_rounds = tracer.span("fleet_dist.drain", || fleet.drain())?;
    check_converged(&fleet, &deployment.enhanced, tally);
    let (drain_ms, _) = total_ms(tracer, since, "fleet_dist.drain");
    m.put("fleet_dist.drain_ms", drain_ms, "ms", 1);
    m.put("fleet_dist.drain_rounds", drain_rounds as f64, "count", 1);
    let ops = fleet.canonical_ops();
    let stats = fleet.stats();
    let net = stats.net;
    m.put(
        "transport.bytes_per_msg",
        net.bytes_sent as f64 / net.sent.max(1) as f64,
        "B",
        net.sent,
    );
    m.put(
        "transport.delivered_ratio",
        net.delivered as f64 / (net.sent + net.duplicated).max(1) as f64,
        "ratio",
        net.sent + net.duplicated,
    );
    m.put("transport.refolds", stats.refolds as f64, "count", 1);
    m.put(
        "transport.replay_ratio",
        stats.refold_ops_replayed as f64 / ops.len().max(1) as f64,
        "ratio",
        ops.len() as u64,
    );

    let mut batches: Vec<WireMessage> = Vec::new();
    for op in &ops {
        match batches.last_mut() {
            Some(WireMessage::Ops { ops: batch }) if batch[0].round == op.round => {
                batch.push(op.clone())
            }
            _ => batches.push(WireMessage::Ops {
                ops: vec![op.clone()],
            }),
        }
    }
    for rep in 0..CODEC_REPS {
        for msg in &batches {
            let bytes = tracer.span("transport.wire_to_bytes", || wire_to_bytes(msg))?;
            let back = tracer.span("transport.wire_from_bytes", || wire_from_bytes(&bytes))?;
            if rep == 0 {
                tally.check(back == *msg, || {
                    "a wire round trip changed an Ops batch".into()
                });
            }
        }
    }
    let (encode_us, n) = mean_us(tracer, since, "transport.wire_to_bytes");
    m.put("transport.encode_us", encode_us, "us", n);
    let (decode_us, n) = mean_us(tracer, since, "transport.wire_from_bytes");
    m.put("transport.decode_us", decode_us, "us", n);

    let config = fleet.config();
    let mut replica = Replica::new(
        deployment.enhanced.knowledge.clone(),
        config.knowledge_window,
        config.min_observations,
        config.knowledge_shards,
    );
    let mut order: Vec<usize> = (0..ops.len()).collect();
    let mut rng = derive(seed, 6);
    for i in (1..order.len()).rev() {
        rng = derive(rng, i as u64);
        order.swap(i, (rng % (i as u64 + 1)) as usize);
    }
    for i in order {
        let op = ops[i].clone();
        tracer.span("transport.replica_fold", || {
            replica.insert(op);
            replica.fold_pending();
        });
    }
    tally.check(replica.knowledge() == fleet.node_knowledge(0), || {
        "a shuffled replica fold differs from the converged knowledge".into()
    });
    let (fold_us, n) = mean_us(tracer, since, "transport.replica_fold");
    m.put("transport.fold_us_per_op", fold_us, "us", n);
    Ok(())
}
