//! Distributed-fleet determinism: over a **lossless zero-latency
//! link**, the distributed fleet must be **bit-identical** to the
//! in-process shared-knowledge fleet — same traces, same learned
//! knowledge — in both topologies, at any rayon thread count (CI
//! re-runs this file under forced `RAYON_NUM_THREADS` values).
//!
//! This pins the distributed runtime's determinism contract: an ideal
//! link is exactly the in-process round barrier, so every divergence
//! observed under loss/latency is attributable to the link model, not
//! to the exchange protocol.

use margot::Rank;
use polybench::{App, Dataset};
use socrates::{
    DistTopology, DistributedConfig, DistributedFleet, EnhancedApp, Fleet, FleetConfig,
    FleetRuntime, LinkConfig, Toolchain,
};

const INSTANCES: usize = 8;
const SEED: u64 = 2018;

fn quick_enhanced(app: App) -> EnhancedApp {
    Toolchain {
        dataset: Dataset::Medium,
        dse_repetitions: 1,
        ..Toolchain::default()
    }
    .enhance(app)
    .unwrap()
}

/// The in-process reference: shared knowledge on, no cooperative
/// exploration, no power budget (the capabilities the distributed
/// mode models).
fn reference_config() -> FleetConfig {
    FleetConfig {
        exploration_interval: 0,
        ..FleetConfig::default()
    }
}

fn dist_config(topology: DistTopology) -> FleetConfig {
    FleetConfig {
        exploration_interval: 0,
        distributed: Some(DistributedConfig {
            topology,
            link: LinkConfig::ideal(0),
            ..DistributedConfig::default()
        }),
        ..FleetConfig::default()
    }
}

type Traces = Vec<Vec<socrates::TraceSample>>;
type Learned = margot::Knowledge<platform_sim::KnobConfig>;

fn run_reference(enhanced: &EnhancedApp, duration_s: f64) -> (Traces, Learned) {
    let mut fleet = Fleet::new(reference_config()).expect("valid config");
    fleet.spawn(enhanced, &Rank::throughput_per_watt2(), SEED, INSTANCES);
    fleet.run_until(duration_s);
    let traces = (0..INSTANCES).map(|id| fleet.trace(id)).collect();
    (traces, fleet.learned_knowledge(App::TwoMm).unwrap())
}

fn run_distributed(
    enhanced: &EnhancedApp,
    topology: DistTopology,
    duration_s: f64,
) -> (Traces, Learned) {
    let mut fleet = DistributedFleet::new(dist_config(topology), enhanced).expect("valid config");
    fleet.spawn(&Rank::throughput_per_watt2(), SEED, INSTANCES);
    fleet.run_until(duration_s);
    fleet.drain().expect("an ideal link drains immediately");
    assert!(fleet.converged());
    let traces = (0..INSTANCES).map(|id| fleet.trace(id)).collect();
    (traces, fleet.authoritative_knowledge())
}

#[test]
fn ideal_star_link_is_bit_identical_to_the_in_process_fleet() {
    let enhanced = quick_enhanced(App::TwoMm);
    let (ref_traces, ref_knowledge) = run_reference(&enhanced, 8.0);
    let (dist_traces, dist_knowledge) = run_distributed(&enhanced, DistTopology::BrokerStar, 8.0);
    for (id, (d, r)) in dist_traces.iter().zip(&ref_traces).enumerate() {
        assert_eq!(d, r, "instance {id}: distributed trace != in-process trace");
    }
    assert_eq!(
        dist_knowledge, ref_knowledge,
        "the broker's published knowledge must equal the in-process pool's"
    );
}

#[test]
fn ideal_full_mesh_gossip_is_bit_identical_to_the_in_process_fleet() {
    let enhanced = quick_enhanced(App::TwoMm);
    let (ref_traces, ref_knowledge) = run_reference(&enhanced, 6.0);
    // fanout >= peers: every round's observations reach every node by
    // the next round, exactly like the in-process barrier.
    let (dist_traces, dist_knowledge) = run_distributed(
        &enhanced,
        DistTopology::Gossip {
            fanout: INSTANCES - 1,
        },
        6.0,
    );
    for (id, (d, r)) in dist_traces.iter().zip(&ref_traces).enumerate() {
        assert_eq!(d, r, "instance {id}: gossip trace != in-process trace");
    }
    assert_eq!(dist_knowledge, ref_knowledge);
}

#[test]
fn parallel_and_serial_distributed_rounds_are_bit_identical() {
    let enhanced = quick_enhanced(App::TwoMm);
    let run = |parallel_step: bool| {
        let mut config = dist_config(DistTopology::BrokerStar);
        config.parallel_step = parallel_step;
        let mut fleet = DistributedFleet::new(config, &enhanced).expect("valid config");
        fleet.spawn(&Rank::throughput_per_watt2(), SEED, INSTANCES);
        fleet.run_until(5.0);
        fleet.drain().expect("ideal link drains");
        (
            (0..INSTANCES).map(|id| fleet.trace(id)).collect::<Vec<_>>(),
            fleet.authoritative_knowledge(),
            fleet.canonical_ops(),
        )
    };
    assert_eq!(run(true), run(false));
}

#[test]
fn repeated_distributed_runs_are_reproducible() {
    let enhanced = quick_enhanced(App::TwoMm);
    let run = || {
        let mut fleet =
            DistributedFleet::new(dist_config(DistTopology::Gossip { fanout: 2 }), &enhanced)
                .expect("valid config");
        fleet.spawn(&Rank::throughput_per_watt2(), SEED, 4);
        fleet.run_until(4.0);
        fleet.drain().expect("ideal link drains");
        (
            (0..4).map(|id| fleet.trace(id)).collect::<Vec<_>>(),
            fleet.node_knowledge(0),
            fleet.stats().net,
        )
    };
    assert_eq!(run(), run());
}
