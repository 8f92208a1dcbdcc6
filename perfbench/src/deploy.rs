//! Inputs shared by the fleet workloads: seed derivation, the drifted
//! 2mm deployment and the tuning-quality yardstick.

use margot::{Knowledge, Rank};
use platform_sim::{KnobConfig, Machine};
use polybench::{App, Dataset};
use socrates::{EnhancedApp, Platform, SocratesError, Toolchain};

/// Per-core dynamic power drift of the deployment machine over the
/// design-time platform (as in `fleet_bench`): it re-orders the
/// operating points, so only online learning finds the new optimum.
pub const DRIFT_FACTOR: f64 = 1.6;

/// Operating points kept from the 2mm design knowledge.
pub const KNOWLEDGE_POINTS: usize = 64;

/// Toolchain seed of the fleet workloads' deployment. The deployment is
/// the design-time artifact shipped with the application, so it is the
/// same for every run; the run seed drives the runtime inputs (machine
/// noise streams, arrival trace, link loss). With a seeded deployment
/// the knowledge, and so the configurations a fleet runs, changed with
/// the seed, and the best gossip round time with them (by up to a fifth
/// in single-threaded trials).
pub const DESIGN_SEED: u64 = 0x50C7_A7E5;

/// A seed for one purpose, derived from the run seed (SplitMix64).
pub fn derive(seed: u64, salt: u64) -> u64 {
    let mut z = seed ^ salt.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The fleet workloads' deployment: 2mm enhanced on the Medium dataset
/// with one DSE repetition, its knowledge subsampled evenly to
/// [`KNOWLEDGE_POINTS`]. The in-process fleets run on a
/// [`DRIFT_FACTOR`]× hotter machine, which only online learning
/// recovers from; the distributed fleet, which cannot explore, runs on
/// the design-time platform (as `fleet_dist_bench` does).
pub struct Deployment {
    /// The enhanced application every instance runs.
    pub enhanced: EnhancedApp,
    /// The drifted deployment platform.
    pub drifted: Platform,
    /// Noise-free Thr/W² of the best knowledge configuration on the
    /// drifted machine.
    pub oracle_eff: f64,
    /// The same on the design-time platform.
    pub design_oracle_eff: f64,
}

impl Deployment {
    /// Enhances 2mm with a toolchain seeded from [`DESIGN_SEED`].
    ///
    /// # Errors
    ///
    /// Propagates toolchain errors.
    pub fn build() -> Result<Self, SocratesError> {
        let mut enhanced = Toolchain {
            dataset: Dataset::Medium,
            dse_repetitions: 1,
            seed: DESIGN_SEED,
            ..Toolchain::default()
        }
        .enhance(App::TwoMm)?;
        let all = enhanced.knowledge.points();
        let stride = (all.len() / KNOWLEDGE_POINTS).max(1);
        enhanced.knowledge = all
            .iter()
            .step_by(stride)
            .take(KNOWLEDGE_POINTS)
            .cloned()
            .collect::<Knowledge<_>>();
        let drifted = enhanced.platform.hotter(DRIFT_FACTOR);
        let oracle_eff = best_eff(&drifted.machine(0), &enhanced);
        let design_oracle_eff = best_eff(&enhanced.platform.machine(0), &enhanced);
        Ok(Deployment {
            enhanced,
            drifted,
            oracle_eff,
            design_oracle_eff,
        })
    }

    /// The drifted base machine for the instances of one fleet.
    pub fn machine(&self, seed: u64) -> Machine {
        self.drifted.machine(seed)
    }
}

/// The rank every workload tunes for.
pub fn rank() -> Rank {
    Rank::throughput_per_watt2()
}

/// Noise-free Thr/W² of the best configuration in `enhanced`'s
/// knowledge on `machine`.
pub fn best_eff(machine: &Machine, enhanced: &EnhancedApp) -> f64 {
    enhanced
        .knowledge
        .points()
        .iter()
        .map(|p| true_eff(machine, enhanced, &p.config))
        .fold(f64::MIN, f64::max)
}

/// Noise-free Thr/W² of `config` for `enhanced`'s kernel on `machine`.
pub fn true_eff(machine: &Machine, enhanced: &EnhancedApp, config: &KnobConfig) -> f64 {
    machine
        .expected(&enhanced.profile, config)
        .throughput_per_watt2()
}

/// Running sums of observed planned invocations, for the mean observed
/// Thr/W² (`1 / mean time / mean power²`).
#[derive(Debug, Default, Clone, Copy)]
pub struct EffSums {
    /// Invocations.
    pub n: u64,
    /// Summed observed execution time, s.
    pub time_s: f64,
    /// Summed observed power, W.
    pub power_w: f64,
}

impl EffSums {
    /// Adds one observed invocation.
    pub fn add(&mut self, time_s: f64, power_w: f64) {
        self.n += 1;
        self.time_s += time_s;
        self.power_w += power_w;
    }

    /// Folds another sum into this one.
    pub fn merge(&mut self, other: &EffSums) {
        self.n += other.n;
        self.time_s += other.time_s;
        self.power_w += other.power_w;
    }

    /// Achieved Thr/W² as a percentage of `oracle_eff` (NaN with no
    /// samples).
    pub fn pct_of(&self, oracle_eff: f64) -> f64 {
        let n = self.n as f64;
        let mean_t = self.time_s / n;
        let mean_p = self.power_w / n;
        100.0 * (1.0 / mean_t) / (mean_p * mean_p) / oracle_eff
    }
}

/// FNV-1a fold of one word into a digest.
pub fn fnv_fold(digest: u64, word: u64) -> u64 {
    let mut d = digest;
    for b in word.to_le_bytes() {
        d = (d ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
    }
    d
}

/// FNV-1a offset basis.
pub const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

/// FNV-1a digest of a string.
pub fn fnv_str(s: &str) -> u64 {
    s.bytes().fold(FNV_OFFSET, |d, b| {
        (d ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}
