//! Fleet determinism: stepping a fleet over rayon must be
//! **bit-identical** to the sequential reference at any thread count.
//!
//! Mirrors `tests/pipeline_equivalence.rs`: the parallel phase of a
//! round only *reads* shared state; all mutation (observation merge +
//! exploration bookkeeping) happens at the round barrier in instance
//! order. CI re-runs this file under forced `RAYON_NUM_THREADS` values
//! (1, 2, 8), so the identity holds at any worker count.

use margot::{Metric, Rank};
use polybench::{App, Dataset};
use socrates::{EnhancedApp, Fleet, FleetConfig, FleetRuntime, Toolchain};

fn quick_enhanced(app: App) -> EnhancedApp {
    // Medium keeps kernel invocations ~50 ms of virtual time, so a
    // 10-virtual-second fleet run is a few hundred rounds, not tens of
    // thousands (Small kernels run in under a millisecond).
    Toolchain {
        dataset: Dataset::Medium,
        dse_repetitions: 1,
        ..Toolchain::default()
    }
    .enhance(app)
    .unwrap()
}

fn build_fleet(parallel_step: bool, enhanced: &EnhancedApp) -> Fleet {
    let mut fleet = Fleet::new(FleetConfig {
        parallel_step,
        exploration_interval: 2,
        ..FleetConfig::default()
    })
    .expect("valid fleet config");
    fleet.spawn(enhanced, &Rank::throughput_per_watt2(), 2018, 8);
    fleet.set_power_budget(Some(8.0 * 85.0));
    fleet
}

#[test]
fn parallel_fleet_is_bit_identical_to_serial_reference() {
    let enhanced = quick_enhanced(App::TwoMm);
    let mut parallel = build_fleet(true, &enhanced);
    let mut serial = build_fleet(false, &enhanced);
    parallel.run_until(10.0);
    serial.run_until(10.0);
    assert_eq!(parallel.rounds(), serial.rounds());
    for id in 0..8 {
        assert_eq!(
            parallel.trace(id),
            serial.trace(id),
            "instance {id}: parallel trace != serial trace"
        );
    }
    assert_eq!(
        parallel.knowledge_epoch(App::TwoMm),
        serial.knowledge_epoch(App::TwoMm)
    );
    assert_eq!(
        parallel.learned_knowledge(App::TwoMm),
        serial.learned_knowledge(App::TwoMm),
        "final shared knowledge must be identical"
    );
    assert_eq!(
        parallel.exploration_coverage(App::TwoMm),
        serial.exploration_coverage(App::TwoMm)
    );
}

#[test]
fn repeated_runs_are_reproducible() {
    let enhanced = quick_enhanced(App::TwoMm);
    let mut a = build_fleet(true, &enhanced);
    let mut b = build_fleet(true, &enhanced);
    a.run_until(5.0);
    b.run_until(5.0);
    for id in 0..8 {
        assert_eq!(a.trace(id), b.trace(id), "instance {id} diverged");
    }
    assert_eq!(
        a.learned_knowledge(App::TwoMm),
        b.learned_knowledge(App::TwoMm)
    );
}

#[test]
fn sharded_incremental_path_matches_the_single_mutex_reference() {
    // The scaling path (sharded knowledge + batched barrier merge +
    // incremental cache/delta adoption) must be bit-identical to the
    // single-shard, full-rebuild/full-clone reference — at any rayon
    // thread count (CI re-runs this under the forced thread matrix).
    let enhanced = quick_enhanced(App::TwoMm);
    let run = |knowledge_shards: usize, incremental_refresh: bool| {
        let mut fleet = Fleet::new(FleetConfig {
            exploration_interval: 2,
            knowledge_shards,
            incremental_refresh,
            ..FleetConfig::default()
        })
        .expect("valid fleet config");
        fleet.spawn(&enhanced, &Rank::throughput_per_watt2(), 2018, 8);
        fleet.set_power_budget(Some(8.0 * 85.0));
        fleet.run_until(6.0);
        let traces: Vec<_> = (0..8).map(|id| fleet.trace(id)).collect();
        (
            traces,
            fleet.learned_knowledge(App::TwoMm).unwrap(),
            fleet.knowledge_epoch(App::TwoMm).unwrap(),
            fleet.exploration_coverage(App::TwoMm).unwrap(),
        )
    };
    let sharded = run(margot::DEFAULT_SHARDS, true);
    let reference = run(1, false);
    assert_eq!(sharded.1, reference.1, "learned knowledge diverged");
    assert_eq!(sharded.2, reference.2, "epoch diverged");
    assert_eq!(sharded.3, reference.3, "coverage diverged");
    for (id, (s, r)) in sharded.0.iter().zip(&reference.0).enumerate() {
        assert_eq!(s, r, "instance {id}: sharded trace != reference trace");
    }
}

#[test]
fn membership_changes_mid_run_stay_deterministic() {
    let enhanced = quick_enhanced(App::TwoMm);
    let run = |parallel_step: bool| {
        let mut fleet = build_fleet(parallel_step, &enhanced);
        fleet.run_until(3.0);
        fleet.retire_instance(2);
        let late = fleet.add_instance(
            enhanced.clone(),
            Rank::minimize(Metric::exec_time()),
            enhanced.platform.machine(4242),
        );
        fleet.run_until(6.0);
        (0..=late).map(|id| fleet.trace(id)).collect::<Vec<_>>()
    };
    assert_eq!(run(true), run(false));
}
