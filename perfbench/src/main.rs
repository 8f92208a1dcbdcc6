//! The repository benchmark. Run from the repository root:
//!
//! ```sh
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload event_churn --seed 1 --seconds 20 --trace 0
//! ```
//!
//! `--trace 0` prints the end-to-end metrics; `--trace 1` runs the
//! workload plain and traced, checks that both produce the same
//! digest, runs the per-layer probes and prints the per-layer metrics.
//! Human-readable lines come first; the last line of standard output
//! is the JSON result. See `perfbench/README.md`.

mod affinity;
mod deploy;
mod layers;
mod report;
mod spans;
mod stats;
mod workloads;

use report::{BenchResult, Metrics, Provenance};
use spans::Tracer;
use stats::Tally;
use std::collections::BTreeMap;
use std::time::Instant;
use workloads::{DistGossip, EventChurn, LockstepFleet, Pass, ToolchainSuite, Workload};

/// Passes per plain run, each from its own set-up: `setup_s` is the
/// median set-up time, and each operation's time is its best over the
/// passes.
const PASSES: usize = 10;

/// Layers whose self time the traced run reports.
const LAYERS: [&str; 7] = [
    "pipeline",
    "minivm",
    "margot",
    "fleet",
    "fleet_events",
    "fleet_dist",
    "transport",
];

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|e| format!("{flag} {value}: {e}"))
        };
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(number()?),
            "--seconds" => seconds = Some(number()?.max(1)),
            "--trace" => trace = Some(number()? != 0),
            other => return Err(format!("unknown flag {other}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.unwrap_or(1),
        seconds: seconds.unwrap_or(20),
        trace: trace.unwrap_or(false),
    })
}

fn main() {
    let code = match run() {
        Ok(code) => code,
        Err(msg) => {
            eprintln!("perfbench: {msg}");
            2
        }
    };
    std::process::exit(code);
}

fn run() -> Result<i32, String> {
    let args = parse_args()?;
    let nproc = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
    let rayon_threads = rayon::current_num_threads();
    let mut provenance = Provenance {
        workload: args.workload.clone(),
        seed: args.seed,
        seconds: args.seconds,
        trace: args.trace,
        nproc,
        rayon_threads,
        commit: report::git_commit(),
        samples: BTreeMap::new(),
        notes: BTreeMap::new(),
    };
    if rayon_threads > nproc {
        // Oversubscribed threads measure the scheduler, not the program:
        // report the run as failed instead of measuring it.
        eprintln!("perfbench: {rayon_threads} rayon threads on {nproc} cores; refusing to measure");
        print_result(
            provenance,
            &Tally {
                attempted: 1,
                failures: vec!["oversubscribed".into()],
            },
            Metrics::default(),
        );
        return Ok(1);
    }
    let (tally, metrics) = match args.workload.as_str() {
        "toolchain_suite" => measure(&ToolchainSuite, &args, &mut provenance)?,
        "event_churn" => measure(&EventChurn, &args, &mut provenance)?,
        "lockstep_fleet" => measure(&LockstepFleet, &args, &mut provenance)?,
        "dist_gossip" => measure(&DistGossip, &args, &mut provenance)?,
        other => return Err(format!("unknown workload {other}")),
    };
    for reason in tally.failures.iter().take(20) {
        eprintln!("perfbench: FAILED {reason}");
    }
    print_result(provenance, &tally, metrics);
    Ok(0)
}

fn print_result(mut provenance: Provenance, tally: &Tally, metrics: Metrics) {
    provenance.samples = metrics.samples;
    println!(
        "{{\"provenance\":{}}}",
        serde_json::to_string(&provenance).expect("provenance serialises")
    );
    let result = BenchResult {
        correct: tally.failures.is_empty(),
        attempted: tally.attempted,
        failed: tally.failed(),
        metrics: metrics.values,
    };
    println!(
        "{}",
        serde_json::to_string(&result).expect("result serialises")
    );
}

fn line(name: &str, value: f64, unit: &str, samples: u64) {
    println!("  {name:<34} {value:>16.6} {unit:<6} (n={samples})");
}

fn measure<W: Workload>(
    workload: &W,
    args: &Args,
    provenance: &mut Provenance,
) -> Result<(Tally, Metrics), String> {
    println!(
        "perfbench {} seed {} seconds {} trace {} | nproc {} rayon threads {} commit {}",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        provenance.nproc,
        provenance.rayon_threads,
        provenance.commit
    );
    let pass_s = args.seconds as f64 / PASSES as f64;
    let setup = |seed| {
        workload
            .setup(seed, pass_s)
            .map_err(|e| format!("set-up failed: {e}"))
    };
    if args.trace {
        return measure_traced(workload, args, provenance, pass_s, setup);
    }
    let mut setup_s = Vec::with_capacity(PASSES);
    let mut passes = Vec::with_capacity(PASSES);
    for i in 0..PASSES {
        let start = Instant::now();
        let state = setup(args.seed)?;
        setup_s.push(start.elapsed().as_secs_f64());
        let _pin = if W::SINGLE_THREADED {
            affinity::pin_nth(i)
        } else {
            None
        };
        passes.push(workload.pass(state, args.seed, pass_s, &mut Tracer::new(false)));
    }
    let best = |field: fn(&Pass) -> &[f64]| {
        let samples: Vec<&[f64]> = passes.iter().map(field).collect();
        stats::best_of(&samples).ok_or("the passes timed different numbers of operations")
    };
    let op_ms = best(|p| &p.op_ms)?;
    let other_ms = best(|p| &p.other_ms)?;
    // The last pass reports for the run; every pass's failures count.
    let mut pass = passes.pop().expect("at least one pass");
    for (i, other) in passes.into_iter().enumerate() {
        pass.tally.merge(other.tally);
        pass.tally.check(other.digest == pass.digest, || {
            format!(
                "pass {i} digest {:016x} != last pass digest {:016x}",
                other.digest, pass.digest
            )
        });
    }
    if op_ms.is_empty() {
        return Err("the pass timed no operation".into());
    }
    let mut m = Metrics::default();
    m.put("setup_s", stats::median(&setup_s), "s", PASSES as u64);
    let rss = report::peak_rss_mb().ok_or("cannot read the peak RSS from /proc/self/status")?;
    m.put("peak_rss_mb", rss, "MB", 1);
    let n = op_ms.len() as u64;
    let sorted_ms = stats::sorted(op_ms.clone());
    let p50 = stats::percentile(&sorted_ms, 50.0).0;
    m.put("op_ms_p50", p50, "ms", n);
    let (rung, tail) = match stats::tail_rung(sorted_ms.len()) {
        Some(q) => (format!("p{q}"), stats::percentile(&sorted_ms, q).0),
        None => ("p50: too few operations for a tail".to_string(), p50),
    };
    m.put("op_ms_tail", tail, "ms", n);
    provenance.notes.insert("op_ms_tail".into(), rung);
    // Recorded, not gated: see `stats::TAIL_LADDER`.
    for q in [90.0, 99.0] {
        let (value, beyond) = stats::percentile(&sorted_ms, q);
        if beyond >= stats::MIN_BEYOND {
            provenance
                .notes
                .insert(format!("op_ms_p{q}"), format!("{value} ms"));
        }
    }
    provenance.notes.insert(
        "passes".into(),
        format!("{PASSES} passes of {pass_s} s; each operation's time is its best over the passes"),
    );
    let busy_s = (op_ms.iter().sum::<f64>() + other_ms.iter().sum::<f64>()) / 1e3;
    m.put(
        "throughput_per_s",
        pass.work as f64 / busy_s,
        "1/s",
        pass.work,
    );
    m.put(
        "tuning_eff_pct",
        pass.tuning_eff_pct,
        "%",
        pass.tuning_samples,
    );
    for (name, value) in &m.values {
        line(name, value.value, &value.unit, m.samples[name]);
    }
    println!(" by the workload's own names:");
    for &(metric, alias, scale, unit) in &pass.aliases {
        line(
            alias,
            m.values[metric].value * scale,
            unit,
            m.samples[metric],
        );
    }
    print_named(&pass);
    Ok(finish(pass, provenance, m))
}

fn print_named(pass: &Pass) {
    for (name, value, unit, n) in &pass.named {
        line(name, *value, unit, *n);
    }
    line(
        "error_rate",
        pass.tally.error_rate(),
        "ratio",
        pass.tally.attempted,
    );
}

/// Moves the pass's digest and notes into the provenance record.
fn finish(pass: Pass, provenance: &mut Provenance, m: Metrics) -> (Tally, Metrics) {
    provenance
        .notes
        .insert("digest".into(), format!("{:016x}", pass.digest));
    provenance.notes.extend(pass.notes);
    (pass.tally, m)
}

/// Median operation time of one pass, ms.
fn median_op_ms(pass: &Pass) -> Result<f64, String> {
    if pass.op_ms.is_empty() {
        return Err("the pass timed no operation".into());
    }
    Ok(stats::median(&pass.op_ms))
}

fn measure_traced<W: Workload>(
    workload: &W,
    args: &Args,
    provenance: &mut Provenance,
    pass_s: f64,
    setup: impl Fn(u64) -> Result<W::State, String>,
) -> Result<(Tally, Metrics), String> {
    // One plain and one traced pass of the plain run's pass length:
    // enough for the overhead and the digest comparison, and it keeps
    // the span file small.
    let mut plain = workload.pass(
        setup(args.seed)?,
        args.seed,
        pass_s,
        &mut Tracer::new(false),
    );
    let mut tracer = Tracer::new(true);
    let mut traced = workload.pass(setup(args.seed)?, args.seed, pass_s, &mut tracer);
    let mut tally = std::mem::take(&mut plain.tally);
    tally.merge(std::mem::take(&mut traced.tally));
    tally.check(plain.digest == traced.digest, || {
        format!(
            "traced digest {:016x} != plain digest {:016x}",
            traced.digest, plain.digest
        )
    });
    let mut m = Metrics::default();
    layers::probe(args.seed, &mut tracer, &mut tally, &mut m)
        .map_err(|e| format!("per-layer probe failed: {e}"))?;
    let self_ns = tracer.self_ns_by_layer();
    for layer in LAYERS {
        let ns = self_ns.get(layer).copied().unwrap_or(0);
        m.put(&format!("{layer}.self_ms"), ns as f64 / 1e6, "ms", 1);
    }
    // The overhead compares per-operation times rather than whole pass
    // times: the first pass of a process also pays for warming caches
    // and the allocator.
    let (plain_ms, traced_ms) = (median_op_ms(&plain)?, median_op_ms(&traced)?);
    m.put(
        "trace.overhead_pct",
        100.0 * (traced_ms - plain_ms) / plain_ms,
        "%",
        traced.op_ms.len() as u64,
    );
    provenance.notes.insert(
        "plain_vs_traced".into(),
        format!(
            "pass {} s vs {} s, operation {plain_ms} ms vs {traced_ms} ms",
            plain.pass_s, traced.pass_s
        ),
    );
    let path = std::path::PathBuf::from(format!("perfbench/out/{}.spans", args.workload));
    tracer
        .write(&path)
        .map_err(|e| format!("writing {}: {e}", path.display()))?;
    provenance.notes.insert(
        "spans".into(),
        format!("{} spans in {}", tracer.len(), path.display()),
    );
    for (name, value) in &m.values {
        line(name, value.value, &value.unit, m.samples[name]);
    }
    traced.tally = tally;
    print_named(&traced);
    Ok(finish(traced, provenance, m))
}
