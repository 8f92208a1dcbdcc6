//! Power-capped operation (the Fig. 4 scenario as an application):
//! a data-centre operator imposes a machine power budget that changes
//! during the day; the adaptive application keeps maximising performance
//! inside whatever budget is currently in force.
//!
//! ```text
//! cargo run --example power_budget --release
//! ```

use margot::{Cmp, Constraint, Metric, Rank};
use polybench::{App, Dataset};
use socrates::{AdaptiveApplication, ArtifactStore, Toolchain};

fn main() {
    let toolchain = Toolchain {
        dataset: Dataset::Medium,
        ..Toolchain::default()
    };
    // Persisted artifact store: the profiled knowledge round-trips
    // through a binary knowledge file on disk, so re-running this
    // example skips the DSE.
    // The cache key covers the toolchain config only — delete the
    // directory to force a re-profile after changing the code itself.
    let user = std::env::var("USER").unwrap_or_else(|_| "anon".to_string());
    let cache_dir = std::env::temp_dir().join(format!("socrates-knowledge-cache-{user}"));
    let store = ArtifactStore::with_persist_dir(&cache_dir);
    let enhanced = toolchain
        .enhance_with_store(App::ThreeMm, &store)
        .expect("toolchain");
    if store.stats().knowledge_loads > 0 {
        println!(
            "(design-time knowledge reloaded from {})",
            cache_dir.display()
        );
    } else {
        println!(
            "(design-time knowledge profiled and saved to {})",
            cache_dir.display()
        );
    }
    let mut app = AdaptiveApplication::new(enhanced, Rank::minimize(Metric::exec_time()), 7);

    // Performance objective under a power constraint (priority 10).
    app.add_constraint(Constraint::new(
        Metric::power(),
        Cmp::LessOrEqual,
        140.0,
        10,
    ));

    println!("power-capped adaptive execution of 3mm");
    println!(
        "{:>10} {:>10} {:>11} {:>10} {:>26}",
        "budget [W]", "power [W]", "exec [ms]", "threads", "compiler/binding"
    );

    // The operator tightens the cap in steps: 140 -> 100 -> 60 W, then
    // lifts it back to 120 W.
    for budget in [140.0, 100.0, 60.0, 120.0] {
        app.manager_mut()
            .asrtm_mut()
            .set_constraint_value(&Metric::power(), budget);
        app.run_for(5.0);
        let s = app.trace().last().expect("non-empty trace");
        println!(
            "{:>10.0} {:>10.1} {:>11.1} {:>10} {:>26}",
            budget,
            s.power_w,
            s.time_s * 1e3,
            s.config.tn,
            format!("{} / {}", s.config.co, s.config.bp),
        );
    }

    // Sanity: the tightest budget must have produced the coolest, slowest
    // configuration of the four phases.
    let phases: Vec<f64> = app.trace().iter().map(|s| s.power_w).collect();
    println!();
    println!(
        "observed machine power range across the day: {:.1} W .. {:.1} W",
        phases.iter().copied().fold(f64::INFINITY, f64::min),
        phases.iter().copied().fold(0.0, f64::max),
    );
}
