//! Sample statistics: nearest-rank percentiles, the tail-percentile
//! rule, best-of-passes readings and the failure tally behind
//! `error_rate`.

/// The percentiles a tail metric may report, highest first. Higher ones
/// are left out: on a shared host, load from other tenants slows a
/// tenth or more of the operations in every pass, so they read the
/// neighbours rather than the program (over sixteen runs of one build
/// the per-event p90 read 3.8–4.7 µs, but 5.0 and 5.7 µs in the two most
/// loaded runs, and p99 spread 0.42; p75 stayed within 3.7–4.4 µs).
pub const TAIL_LADDER: [f64; 2] = [75.0, 50.0];

/// The fewest samples that must lie beyond a percentile before it is
/// reported: a tail read from fewer points is one outlier wide.
pub const MIN_BEYOND: usize = 10;

/// Nearest-rank percentile `q` (0 < q ≤ 100) of an ascending sample,
/// with the number of samples strictly beyond it.
///
/// # Panics
///
/// Panics on an empty sample or a `q` outside (0, 100].
pub fn percentile(sorted: &[f64], q: f64) -> (f64, usize) {
    assert!(!sorted.is_empty(), "percentile of an empty sample");
    assert!(q > 0.0 && q <= 100.0, "percentile {q} outside (0, 100]");
    let rank = (q / 100.0 * sorted.len() as f64).ceil() as usize;
    let idx = rank.clamp(1, sorted.len()) - 1;
    (sorted[idx], sorted.len() - idx - 1)
}

/// Each operation's best time over repeated passes: the element-wise
/// minimum of equally long samples, `None` when there are none or their
/// lengths differ. Other tenants of a shared host only ever add time, in
/// episodes of seconds; an operation reads slow only if every pass ran
/// it during one, while a change to the program moves every pass.
pub fn best_of(passes: &[&[f64]]) -> Option<Vec<f64>> {
    let (first, rest) = passes.split_first()?;
    if rest.iter().any(|p| p.len() != first.len()) {
        return None;
    }
    let mut best = first.to_vec();
    for pass in rest {
        for (b, &v) in best.iter_mut().zip(pass.iter()) {
            *b = b.min(v);
        }
    }
    Some(best)
}

/// The highest rung of [`TAIL_LADDER`] that a sample of `n` values
/// supports with [`MIN_BEYOND`] samples beyond it.
pub fn tail_rung(n: usize) -> Option<f64> {
    TAIL_LADDER.iter().copied().find(|&q| {
        let rank = ((q / 100.0 * n as f64).ceil() as usize).max(1);
        n >= rank && n - rank >= MIN_BEYOND
    })
}

/// Sorts a sample ascending (every value must be finite).
///
/// # Panics
///
/// Panics on a NaN.
pub fn sorted(mut values: Vec<f64>) -> Vec<f64> {
    values.sort_by(|a, b| a.partial_cmp(b).expect("finite sample"));
    values
}

/// Median of a sample (mean of the middle pair for even lengths).
///
/// # Panics
///
/// Panics on an empty sample or a NaN.
pub fn median(values: &[f64]) -> f64 {
    let s = sorted(values.to_vec());
    assert!(!s.is_empty(), "median of an empty sample");
    let mid = s.len() / 2;
    if s.len().is_multiple_of(2) {
        (s[mid - 1] + s[mid]) / 2.0
    } else {
        s[mid]
    }
}

/// Operations attempted and failed in one run, with the reason for
/// every failure. An operation fails when it returns an error, when a
/// fleet instance fails, or when a reference check mismatches.
#[derive(Debug, Default)]
pub struct Tally {
    /// Operations attempted.
    pub attempted: u64,
    /// Failure reasons, one per failed operation.
    pub failures: Vec<String>,
}

impl Tally {
    /// Counts `n` more attempted operations.
    pub fn attempt(&mut self, n: u64) {
        self.attempted += n;
    }

    /// Records a reference check: a failure when `ok` is false.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.failures.push(what());
        }
    }

    /// Records `n` failed operations for one reason (e.g. failed fleet
    /// instances).
    pub fn fail_n(&mut self, n: u64, what: &str) {
        for _ in 0..n {
            self.failures.push(what.to_string());
        }
    }

    /// Failed operations.
    pub fn failed(&self) -> u64 {
        self.failures.len() as u64
    }

    /// Failed ÷ attempted (0 when nothing was attempted).
    pub fn error_rate(&self) -> f64 {
        if self.attempted == 0 {
            0.0
        } else {
            self.failed() as f64 / self.attempted as f64
        }
    }

    /// Folds another tally into this one.
    pub fn merge(&mut self, other: Tally) {
        self.attempted += other.attempted;
        self.failures.extend(other.failures);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Vec<f64> {
        (1..=n).map(|v| v as f64).collect()
    }

    #[test]
    fn nearest_rank_percentiles_count_the_samples_beyond() {
        let s = ramp(100);
        assert_eq!(percentile(&s, 50.0), (50.0, 50));
        assert_eq!(percentile(&s, 90.0), (90.0, 10));
        assert_eq!(percentile(&s, 99.0), (99.0, 1));
        assert_eq!(percentile(&s, 100.0), (100.0, 0));
        assert_eq!(percentile(&[7.0], 50.0), (7.0, 0));
    }

    #[test]
    fn best_of_takes_each_operation_s_minimum_across_passes() {
        // A burst of load slows different operations in each pass; the
        // best of the passes reads every operation undisturbed.
        let a = [1.0, 9.0, 9.0, 1.2];
        let b = [9.0, 1.1, 1.0, 9.0];
        let c = [1.1, 1.0, 9.0, 9.0];
        assert_eq!(best_of(&[&a, &b, &c]), Some(vec![1.0, 1.0, 1.0, 1.2]));
        assert_eq!(best_of(&[&a]), Some(a.to_vec()));
        assert_eq!(best_of(&[]), None);
        assert_eq!(best_of(&[&a, &[1.0]]), None, "unequal passes");
    }

    #[test]
    fn tail_rung_reports_only_percentiles_with_ten_samples_beyond() {
        assert_eq!(tail_rung(0), None);
        assert_eq!(tail_rung(1), None);
        // 19 samples: the median has 9 beyond it — nothing qualifies.
        assert_eq!(tail_rung(19), None);
        // 21 samples: the median has 10 beyond, p75 only 5.
        assert_eq!(tail_rung(21), Some(50.0));
        assert_eq!(percentile(&ramp(21), 50.0), (11.0, 10));
        // 39 samples: p75 has 9 beyond — still the median.
        assert_eq!(tail_rung(39), Some(50.0));
        // 40 samples: p75 has exactly 10 beyond.
        assert_eq!(tail_rung(40), Some(75.0));
        assert_eq!(percentile(&ramp(40), 75.0), (30.0, 10));
        // p75 is the highest rung however large the sample.
        assert_eq!(tail_rung(1_000_000), Some(75.0));
    }

    #[test]
    fn median_of_odd_and_even_samples() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn error_rate_counts_failed_over_attempted() {
        let mut t = Tally::default();
        assert_eq!(t.error_rate(), 0.0);
        t.attempt(200);
        t.check(true, || unreachable!("a passing check records nothing"));
        assert_eq!(t.failed(), 0);
        t.check(false, || "sweep 3 differs from sweep 0".into());
        t.fail_n(3, "failed fleet instance");
        assert_eq!(t.failed(), 4);
        assert_eq!(t.error_rate(), 0.02);
        let mut other = Tally::default();
        other.attempt(50);
        other.check(false, || "digest mismatch".into());
        t.merge(other);
        assert_eq!((t.attempted, t.failed()), (250, 5));
        assert_eq!(t.error_rate(), 0.02);
    }
}
