//! Per-feature statistics.
//!
//! For each feature, §V-C computes "the empirical probability p of sw-diff
//! being +1 … (using Laplace-smoothing to address sparsity)" and records
//! "the odds-ratio of this probability (p / (1-p))". We keep the raw up/down
//! counts so the smoothing parameter can be chosen (and ablated) at read
//! time rather than baked in at build time.

/// Up/down counts of `delta-sw` for one feature.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FeatureStat {
    /// Observations where sw-diff was positive (`delta-sw = +1`).
    pub up: u64,
    /// Observations where sw-diff was negative (`delta-sw = -1`).
    pub down: u64,
}

impl FeatureStat {
    /// A single observation.
    pub fn observation(positive: bool) -> Self {
        if positive {
            Self { up: 1, down: 0 }
        } else {
            Self { up: 0, down: 1 }
        }
    }

    /// Record one observation in place.
    pub fn record(&mut self, positive: bool) {
        if positive {
            self.up += 1;
        } else {
            self.down += 1;
        }
    }

    /// Merge counts (shard/snapshot merge).
    pub fn merge(&mut self, other: &FeatureStat) {
        self.up += other.up;
        self.down += other.down;
    }

    /// Total observations.
    pub fn total(&self) -> u64 {
        self.up + self.down
    }

    /// Laplace-smoothed probability of `delta-sw = +1`:
    /// `(up + alpha) / (up + down + 2*alpha)`.
    ///
    /// `alpha` must be positive; with `alpha > 0` the result is always in
    /// the open interval (0, 1), so the odds ratio below is finite.
    pub fn probability(&self, alpha: f64) -> f64 {
        debug_assert!(alpha > 0.0, "Laplace alpha must be positive");
        (self.up as f64 + alpha) / (self.total() as f64 + 2.0 * alpha)
    }

    /// The paper's stored statistic: the odds ratio `p / (1 - p)`.
    pub fn odds(&self, alpha: f64) -> f64 {
        let p = self.probability(alpha);
        p / (1.0 - p)
    }

    /// Log odds-ratio — the natural initialization for logistic-regression
    /// weights (a feature with no evidence gets exactly 0).
    pub fn log_odds(&self, alpha: f64) -> f64 {
        self.odds(alpha).ln()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn record_and_merge() {
        let mut s = FeatureStat::default();
        s.record(true);
        s.record(true);
        s.record(false);
        assert_eq!(s, FeatureStat { up: 2, down: 1 });
        let mut t = FeatureStat::observation(false);
        t.merge(&s);
        assert_eq!(t, FeatureStat { up: 2, down: 2 });
        assert_eq!(t.total(), 4);
    }

    #[test]
    fn laplace_probability() {
        let s = FeatureStat { up: 3, down: 1 };
        // (3 + 1) / (4 + 2) = 2/3
        assert!((s.probability(1.0) - 2.0 / 3.0).abs() < 1e-12);
        // Stronger smoothing pulls toward 1/2.
        assert!((s.probability(100.0) - 0.5).abs() < 0.02);
    }

    #[test]
    fn empty_stat_is_uninformative() {
        let s = FeatureStat::default();
        assert_eq!(s.probability(1.0), 0.5);
        assert_eq!(s.odds(1.0), 1.0);
        assert_eq!(s.log_odds(1.0), 0.0);
    }

    #[test]
    fn odds_sign_matches_evidence() {
        let up = FeatureStat { up: 10, down: 2 };
        let down = FeatureStat { up: 2, down: 10 };
        assert!(up.log_odds(1.0) > 0.0);
        assert!(down.log_odds(1.0) < 0.0);
        // Symmetric counts give symmetric log-odds.
        assert!((up.log_odds(1.0) + down.log_odds(1.0)).abs() < 1e-12);
    }

    #[test]
    fn extreme_counts_stay_finite() {
        let s = FeatureStat {
            up: u32::MAX as u64,
            down: 0,
        };
        assert!(s.log_odds(1.0).is_finite());
        assert!(s.probability(1.0) < 1.0);
    }
}
