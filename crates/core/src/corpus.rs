//! The ad-corpus schema (§V-A).
//!
//! "Our ADCORPUS consists of ad creatives collected from a particular time
//! period, where each adgroup got at least one click in that time." An
//! adgroup groups creatives that target the same keyword, so "when these
//! creatives are shown corresponding to a query and the keyword used for
//! targeting is the same, any observed difference in CTR can only \[be\]
//! caused by difference in the text of the creative."
//!
//! This module owns the consumer-side schema — whoever produces the corpus
//! (the `microbrowse-synth` generator standing in for Google's ad logs)
//! fills these types in. Pair extraction enforces the paper's filters:
//! enough traffic on both creatives and a statistically meaningful CTR gap.

use microbrowse_text::Snippet;

/// Identifier of a creative within the corpus.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct CreativeId(pub u64);

/// Identifier of an adgroup.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct AdGroupId(pub u64);

/// Where the ad was displayed (§V, Table 4): mainline above the organic
/// results, or the right-hand side rail.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Placement {
    /// Mainline / top-of-page ads.
    #[default]
    Top,
    /// Right-hand-side ads.
    Rhs,
}

impl std::fmt::Display for Placement {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Placement::Top => write!(f, "Top"),
            Placement::Rhs => write!(f, "Rhs"),
        }
    }
}

/// One ad creative with its observed traffic.
#[derive(Debug, Clone, PartialEq)]
pub struct Creative {
    /// Corpus-unique id.
    pub id: CreativeId,
    /// The creative text (typically 3 lines).
    pub snippet: Snippet,
    /// Observed impressions.
    pub impressions: u64,
    /// Observed clicks (≤ impressions).
    pub clicks: u64,
}

impl Creative {
    /// Observed click-through rate (0 when never shown).
    pub fn ctr(&self) -> f64 {
        if self.impressions == 0 {
            0.0
        } else {
            self.clicks as f64 / self.impressions as f64
        }
    }
}

/// A set of creatives targeting the same keyword.
#[derive(Debug, Clone, PartialEq)]
pub struct AdGroup {
    /// Corpus-unique id.
    pub id: AdGroupId,
    /// The targeting keyword (the query for which these creatives serve).
    pub keyword: String,
    /// Where this adgroup's ads were displayed.
    pub placement: Placement,
    /// The alternative creatives the advertiser provided.
    pub creatives: Vec<Creative>,
}

impl AdGroup {
    /// Mean CTR across creatives weighted by impressions (the normalizer of
    /// §V-B's serve weights). 0 if no impressions at all.
    pub fn mean_ctr(&self) -> f64 {
        let imps: u64 = self.creatives.iter().map(|c| c.impressions).sum();
        let clicks: u64 = self.creatives.iter().map(|c| c.clicks).sum();
        if imps == 0 {
            0.0
        } else {
            clicks as f64 / imps as f64
        }
    }

    /// Total clicks in the adgroup (ADCORPUS requires ≥ 1).
    pub fn total_clicks(&self) -> u64 {
        self.creatives.iter().map(|c| c.clicks).sum()
    }
}

/// The corpus: every adgroup collected in the time window.
#[derive(Debug, Clone, Default)]
pub struct AdCorpus {
    /// All adgroups.
    pub adgroups: Vec<AdGroup>,
}

impl AdCorpus {
    /// Number of adgroups.
    pub fn num_adgroups(&self) -> usize {
        self.adgroups.len()
    }

    /// Total number of creatives.
    pub fn num_creatives(&self) -> usize {
        self.adgroups.iter().map(|g| g.creatives.len()).sum()
    }

    /// Drop adgroups that got no click in the window (the ADCORPUS
    /// collection rule) and creatives that were never shown.
    pub fn retain_active(&mut self) {
        for g in &mut self.adgroups {
            g.creatives.retain(|c| c.impressions > 0);
        }
        self.adgroups
            .retain(|g| g.total_clicks() >= 1 && g.creatives.len() >= 2);
    }

    /// Restrict to one placement (Table 4 slices).
    pub fn filter_placement(&self, placement: Placement) -> AdCorpus {
        AdCorpus {
            adgroups: self
                .adgroups
                .iter()
                .filter(|g| g.placement == placement)
                .cloned()
                .collect(),
        }
    }

    /// Extract labelled creative pairs per `filter`.
    pub fn extract_pairs(&self, filter: &PairFilter) -> Vec<CreativePair> {
        let mut out = Vec::new();
        for group in &self.adgroups {
            for i in 0..group.creatives.len() {
                for j in (i + 1)..group.creatives.len() {
                    let a = &group.creatives[i];
                    let b = &group.creatives[j];
                    if a.impressions < filter.min_impressions
                        || b.impressions < filter.min_impressions
                    {
                        continue;
                    }
                    let z = ctr_diff_zscore(a.clicks, a.impressions, b.clicks, b.impressions);
                    if z.abs() < filter.min_zscore {
                        continue;
                    }
                    // Canonical orientation: R is the listed-first creative;
                    // the label says whether R (a) beat S (b).
                    out.push(CreativePair {
                        adgroup: group.id,
                        r: a.id,
                        s: b.id,
                        r_better: a.ctr() > b.ctr(),
                        placement: group.placement,
                    });
                }
            }
        }
        out
    }
}

/// Filters applied when forming training pairs (§V-A: pairs "where the
/// keyword used for targeting was same and the observed CTR was different").
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PairFilter {
    /// Minimum impressions on each creative of the pair.
    pub min_impressions: u64,
    /// Minimum absolute two-proportion z-score of the CTR difference; keeps
    /// only pairs whose CTR gap is unlikely to be traffic noise.
    pub min_zscore: f64,
}

impl Default for PairFilter {
    fn default() -> Self {
        Self {
            min_impressions: 200,
            min_zscore: 2.0,
        }
    }
}

/// A labelled training pair: two creatives of one adgroup and which won.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CreativePair {
    /// Owning adgroup.
    pub adgroup: AdGroupId,
    /// The R-side creative.
    pub r: CreativeId,
    /// The S-side creative.
    pub s: CreativeId,
    /// `true` iff R's observed CTR exceeded S's.
    pub r_better: bool,
    /// The placement the pair was observed under.
    pub placement: Placement,
}

/// Two-proportion z-score for a CTR difference — the pooled-variance test
/// statistic. Returns 0 when either side has no impressions or the pooled
/// variance vanishes.
pub fn ctr_diff_zscore(clicks_a: u64, imps_a: u64, clicks_b: u64, imps_b: u64) -> f64 {
    if imps_a == 0 || imps_b == 0 {
        return 0.0;
    }
    let pa = clicks_a as f64 / imps_a as f64;
    let pb = clicks_b as f64 / imps_b as f64;
    let pooled = (clicks_a + clicks_b) as f64 / (imps_a + imps_b) as f64;
    let var = pooled * (1.0 - pooled) * (1.0 / imps_a as f64 + 1.0 / imps_b as f64);
    if var <= 0.0 {
        return 0.0;
    }
    (pa - pb) / var.sqrt()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn creative(id: u64, clicks: u64, imps: u64) -> Creative {
        Creative {
            id: CreativeId(id),
            snippet: Snippet::creative("h", "d1", "d2"),
            impressions: imps,
            clicks,
        }
    }

    fn group(id: u64, creatives: Vec<Creative>) -> AdGroup {
        AdGroup {
            id: AdGroupId(id),
            keyword: "cheap flights".into(),
            placement: Placement::Top,
            creatives,
        }
    }

    #[test]
    fn ctr_math() {
        assert_eq!(creative(0, 10, 100).ctr(), 0.1);
        assert_eq!(creative(0, 0, 0).ctr(), 0.0);
        let g = group(0, vec![creative(0, 10, 100), creative(1, 30, 100)]);
        assert!((g.mean_ctr() - 0.2).abs() < 1e-12);
        assert_eq!(g.total_clicks(), 40);
    }

    #[test]
    fn zscore_behaviour() {
        // Identical rates: 0.
        assert_eq!(ctr_diff_zscore(10, 100, 10, 100), 0.0);
        // Large gap, large samples: strongly significant.
        let z = ctr_diff_zscore(300, 1000, 100, 1000);
        assert!(z > 5.0, "z = {z}");
        // Antisymmetric.
        assert!((ctr_diff_zscore(1, 50, 5, 50) + ctr_diff_zscore(5, 50, 1, 50)).abs() < 1e-12);
        // Degenerate inputs.
        assert_eq!(ctr_diff_zscore(0, 0, 5, 50), 0.0);
        assert_eq!(ctr_diff_zscore(0, 50, 0, 50), 0.0);
    }

    #[test]
    fn small_samples_are_insignificant() {
        // 2/10 vs 1/10 looks like a 2x CTR gap but is noise.
        let z = ctr_diff_zscore(2, 10, 1, 10);
        assert!(z.abs() < 2.0, "z = {z}");
    }

    #[test]
    fn pair_extraction_filters() {
        let corpus = AdCorpus {
            adgroups: vec![group(
                0,
                vec![
                    creative(0, 300, 1000),
                    creative(1, 100, 1000),
                    creative(2, 1, 10), // too little traffic
                ],
            )],
        };
        let pairs = corpus.extract_pairs(&PairFilter {
            min_impressions: 200,
            min_zscore: 2.0,
        });
        assert_eq!(pairs.len(), 1);
        let p = pairs[0];
        assert_eq!((p.r, p.s), (CreativeId(0), CreativeId(1)));
        assert!(p.r_better);
    }

    #[test]
    fn insignificant_pairs_are_dropped() {
        let corpus = AdCorpus {
            adgroups: vec![group(
                0,
                vec![creative(0, 101, 1000), creative(1, 100, 1000)],
            )],
        };
        assert!(corpus.extract_pairs(&PairFilter::default()).is_empty());
    }

    #[test]
    fn pairs_never_cross_adgroups() {
        let corpus = AdCorpus {
            adgroups: vec![
                group(0, vec![creative(0, 300, 1000)]),
                group(1, vec![creative(1, 10, 1000)]),
            ],
        };
        assert!(corpus.extract_pairs(&PairFilter::default()).is_empty());
    }

    #[test]
    fn retain_active_enforces_adcorpus_rules() {
        let mut corpus = AdCorpus {
            adgroups: vec![
                group(0, vec![creative(0, 0, 100), creative(1, 0, 100)]), // no clicks
                group(1, vec![creative(2, 5, 100), creative(3, 0, 0)]),   // 1 live creative
                group(2, vec![creative(4, 5, 100), creative(5, 2, 100)]), // keeps
            ],
        };
        corpus.retain_active();
        assert_eq!(corpus.num_adgroups(), 1);
        assert_eq!(corpus.adgroups[0].id, AdGroupId(2));
    }

    #[test]
    fn placement_filter() {
        let mut g_top = group(0, vec![creative(0, 1, 10), creative(1, 2, 10)]);
        g_top.placement = Placement::Top;
        let mut g_rhs = group(1, vec![creative(2, 1, 10), creative(3, 2, 10)]);
        g_rhs.placement = Placement::Rhs;
        let corpus = AdCorpus {
            adgroups: vec![g_top, g_rhs],
        };
        assert_eq!(corpus.filter_placement(Placement::Top).num_adgroups(), 1);
        assert_eq!(
            corpus.filter_placement(Placement::Rhs).adgroups[0].id,
            AdGroupId(1)
        );
    }
}
