//! The result schema: the one-line JSON object the benchmark ends its
//! standard output with, and the provenance line printed before it.

use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

/// One measured value with its unit.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Measured {
    /// The value, with all its digits.
    pub value: f64,
    /// The unit (`ms`, `s`, `1/s`, `count`, …).
    pub unit: String,
}

/// The last line of standard output.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct BenchResult {
    /// Whether every reference check passed and no operation failed.
    pub correct: bool,
    /// Operations attempted.
    pub attempted: u64,
    /// Operations failed.
    pub failed: u64,
    /// Metrics by name.
    pub metrics: BTreeMap<String, Measured>,
}

/// Where a result came from, printed as its own JSON line before the
/// result.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Provenance {
    /// Workload name.
    pub workload: String,
    /// Input seed.
    pub seed: u64,
    /// Requested run length, seconds.
    pub seconds: u64,
    /// Whether this was the traced run.
    pub trace: bool,
    /// Cores available to the process.
    pub nproc: usize,
    /// Effective rayon thread count.
    pub rayon_threads: usize,
    /// The checkout's git commit, or `unknown` outside a git checkout.
    pub commit: String,
    /// Sample count behind each metric.
    pub samples: BTreeMap<String, u64>,
    /// Free-form facts about the run (the tail percentile used, the
    /// kernel builds per sweep, digests, …).
    pub notes: BTreeMap<String, String>,
}

/// Accumulates metrics with their sample counts.
#[derive(Debug, Default)]
pub struct Metrics {
    /// Metrics by name.
    pub values: BTreeMap<String, Measured>,
    /// Sample count behind each metric.
    pub samples: BTreeMap<String, u64>,
}

impl Metrics {
    /// Records a metric measured over `samples` samples.
    pub fn put(&mut self, name: &str, value: f64, unit: &str, samples: u64) {
        self.values.insert(
            name.to_string(),
            Measured {
                value,
                unit: unit.to_string(),
            },
        );
        self.samples.insert(name.to_string(), samples);
    }
}

/// The commit of a git checkout rooted at the working directory,
/// read from `.git` without running git; `unknown` elsewhere.
pub fn git_commit() -> String {
    let head = match std::fs::read_to_string(".git/HEAD") {
        Ok(h) => h.trim().to_string(),
        Err(_) => return "unknown".to_string(),
    };
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head;
    };
    if let Ok(id) = std::fs::read_to_string(format!(".git/{reference}")) {
        return id.trim().to_string();
    }
    std::fs::read_to_string(".git/packed-refs")
        .ok()
        .and_then(|packed| {
            packed.lines().find_map(|line| {
                let (id, name) = line.split_once(' ')?;
                (name == reference).then(|| id.to_string())
            })
        })
        .unwrap_or_else(|| "unknown".to_string())
}

/// Peak resident set size of this process, MiB (`VmHWM`).
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_round_trips_through_its_json_line() {
        let mut metrics = Metrics::default();
        metrics.put("op_ms_p50", 1.203_417_000_000_1, "ms", 1000);
        metrics.put("setup_s", 0.812_7, "s", 3);
        let result = BenchResult {
            correct: true,
            attempted: 1000,
            failed: 0,
            metrics: metrics.values,
        };
        let line = serde_json::to_string(&result).expect("serialise");
        assert!(!line.contains('\n'), "the result is one line");
        assert!(
            line.starts_with(r#"{"correct":true,"attempted":1000,"failed":0,"metrics":{"#),
            "{line}"
        );
        let back: BenchResult = serde_json::from_str(&line).expect("parse");
        assert_eq!(back, result, "every digit survives the round trip");
        assert_eq!(back.metrics["op_ms_p50"].unit, "ms");
    }

    #[test]
    fn provenance_round_trips() {
        let p = Provenance {
            workload: "event_churn".into(),
            seed: 7,
            seconds: 15,
            trace: false,
            nproc: 2,
            rayon_threads: 2,
            commit: "unknown".into(),
            samples: BTreeMap::from([("op_ms_p50".to_string(), 42)]),
            notes: BTreeMap::from([("tail".to_string(), "p99".to_string())]),
        };
        let line = serde_json::to_string(&p).expect("serialise");
        assert_eq!(serde_json::from_str::<Provenance>(&line).expect("parse"), p);
    }
}
