//! The ADCORPUS generator.
//!
//! One adgroup = one keyword + one creative *family*: a base creative
//! rendered from a domain template, plus variants that rewrite one or two
//! slot phrases — exactly the "advertisers often provide multiple
//! alternative creative texts in a particular adgroup" setting of §V-A.
//! Impressions and clicks come from the ground-truth micro-browsing user:
//! each creative's exact expected CTR (optionally distorted by per-creative
//! idiosyncratic noise) drives a binomial click sample.
//!
//! Everything is deterministic given [`GeneratorConfig::seed`].

use microbrowse_core::{AdCorpus, AdGroup, AdGroupId, Creative, CreativeId, Placement};
use microbrowse_text::hash::FxHashMap;
use microbrowse_text::Snippet;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};

use crate::lexicon::{decor_options, render_template, template_slots, Domain, DOMAINS};
use crate::placement::placement_profile;
use crate::user::{AttentionProfile, MicroUser};
use crate::util::binomial;

/// Configuration of a corpus generation run.
#[derive(Debug, Clone, PartialEq)]
pub struct GeneratorConfig {
    /// Number of adgroups to generate.
    pub num_adgroups: usize,
    /// Creatives per adgroup, inclusive range.
    pub creatives_per_adgroup: (usize, usize),
    /// Impressions per creative, inclusive range.
    pub impressions: (u64, u64),
    /// Placement of every adgroup in this corpus (generate twice for
    /// Table 4).
    pub placement: Placement,
    /// Slots rewritten per variant, inclusive range (the paper's key
    /// insight: "relatively few word variations within a snippet").
    pub rewrites_per_variant: (usize, usize),
    /// Baseline click logit of the user (−3 ⇒ ~4.7% base CTR).
    pub base_logit: f64,
    /// Standard deviation of per-creative log-CTR noise (idiosyncratic
    /// quality the text does not explain: landing page, brand, budget…).
    pub ctr_noise: f64,
    /// Probability that a variant re-renders with a *different template* of
    /// the same domain: identical phrases, different positions — the
    /// paper's "even where within a snippet particular words are located"
    /// effect. Such pairs are invisible to position-free features.
    pub template_switch_prob: f64,
    /// Master seed.
    pub seed: u64,
}

impl Default for GeneratorConfig {
    fn default() -> Self {
        Self {
            num_adgroups: 1000,
            creatives_per_adgroup: (2, 5),
            impressions: (20_000, 60_000),
            placement: Placement::Top,
            rewrites_per_variant: (1, 2),
            base_logit: -3.0,
            ctr_noise: 0.20,
            template_switch_prob: 0.60,
            seed: 42,
        }
    }
}

/// What the generator knows and the learner has to rediscover.
#[derive(Debug, Clone)]
pub struct GroundTruth {
    /// Domain name → (phrase → salience). Salience is *query-dependent*:
    /// the same text can carry different salience in different verticals.
    pub salience_by_domain: FxHashMap<String, FxHashMap<String, f64>>,
    /// The attention curve used.
    pub attention: AttentionProfile,
    /// The user's baseline click logit.
    pub base_logit: f64,
}

impl GroundTruth {
    /// The oracle user for one domain.
    pub fn user_for(&self, domain: &str) -> MicroUser {
        MicroUser {
            attention: self.attention.clone(),
            salience: self
                .salience_by_domain
                .get(domain)
                .cloned()
                .unwrap_or_default(),
            base_logit: self.base_logit,
        }
    }
}

/// A generated corpus plus its ground truth.
#[derive(Debug, Clone)]
pub struct SynthCorpus {
    /// The corpus, schema-compatible with `microbrowse_core`.
    pub corpus: AdCorpus,
    /// The generating model (for oracle evaluations and tests).
    pub truth: GroundTruth,
}

/// The phrase → salience table of one domain.
///
/// Saliences are **centered per pool** (each pool's options sum to zero):
/// creative pairs only ever compare options of the same pool, so only
/// within-pool differences are identified by CTR data, and leaving a
/// nonzero pool mean would give every *template* an artificial average
/// advantage that leaks position information through its fixed filler
/// words.
pub fn domain_salience(domain: &Domain) -> FxHashMap<String, f64> {
    let mut map = FxHashMap::default();
    for pool in domain.pools {
        let mean: f64 =
            pool.options.iter().map(|o| o.salience).sum::<f64>() / pool.options.len().max(1) as f64;
        for opt in pool.options {
            map.insert(opt.text.to_string(), opt.salience - mean);
        }
    }
    map
}

/// Per-domain salience tables for every built-in domain.
pub fn all_domain_salience() -> FxHashMap<String, FxHashMap<String, f64>> {
    DOMAINS
        .iter()
        .map(|d| (d.name.to_string(), domain_salience(d)))
        .collect()
}

/// The domain owning `keyword`, if any (keywords are unique per domain).
pub fn domain_of_keyword(keyword: &str) -> Option<&'static Domain> {
    DOMAINS.iter().find(|d| d.keywords.contains(&keyword))
}

/// One slot assignment: pool name → option index.
type Assignment = FxHashMap<&'static str, usize>;

/// Pick a template different from `current` (assumes `options.len() > 1`).
fn pick_other<'a>(options: &[&'a str], current: &str, rng: &mut StdRng) -> &'a str {
    loop {
        let cand = options[rng.gen_range(0..options.len())];
        if cand != current {
            return cand;
        }
    }
}

/// Per-adgroup decor choices: decor pool name → chosen phrasing.
type DecorAssignment = FxHashMap<&'static str, String>;

fn render_creative(
    domain: &Domain,
    line1_t: &str,
    line2_t: &str,
    line3_t: &str,
    asg: &Assignment,
    decor_asg: &DecorAssignment,
) -> Snippet {
    let mut choose = |slot: &str| -> String {
        let pool = domain.pool(slot);
        if pool.decor {
            decor_asg[pool.name].clone()
        } else {
            pool.options[asg[pool.name]].text.to_string()
        }
    };
    let line1 = render_template(line1_t, &mut choose);
    let line2 = render_template(line2_t, &mut choose);
    let line3 = render_template(line3_t, &mut choose);
    Snippet::creative(line1, line2, line3)
}

/// Generate a corpus with the built-in (phase-zero) salience tables.
pub fn generate(cfg: &GeneratorConfig) -> SynthCorpus {
    generate_with_salience(cfg, all_domain_salience())
}

/// Generate a corpus whose clicking user runs on *custom* salience tables
/// (domain name → phrase → salience).
///
/// This is the seam the drift machinery uses: [`crate::drift`] interpolates
/// the built-in tables toward a rotated preference and feeds the result
/// here, so "the market changed its mind about which phrases sell" is a
/// pure data change — template text, adgroup structure, and all other RNG
/// draws stay identical for identical seeds.
pub fn generate_with_salience(
    cfg: &GeneratorConfig,
    salience_by_domain: FxHashMap<String, FxHashMap<String, f64>>,
) -> SynthCorpus {
    let mut rng = StdRng::seed_from_u64(cfg.seed);
    let attention = placement_profile(cfg.placement);
    let users: FxHashMap<&str, MicroUser> = DOMAINS
        .iter()
        .map(|d| {
            (
                d.name,
                MicroUser {
                    attention: attention.clone(),
                    salience: salience_by_domain.get(d.name).cloned().unwrap_or_default(),
                    base_logit: cfg.base_logit,
                },
            )
        })
        .collect();

    // Procedurally expanded decor inventories, built once per domain pool.
    let decor_inventory: FxHashMap<(&str, &str), Vec<String>> = DOMAINS
        .iter()
        .flat_map(|d| {
            d.pools
                .iter()
                .filter(|p| p.decor)
                .map(move |p| ((d.name, p.name), decor_options(p)))
        })
        .collect();

    let mut adgroups = Vec::with_capacity(cfg.num_adgroups);
    let mut next_creative_id = 0u64;

    for gid in 0..cfg.num_adgroups {
        let domain = DOMAINS[rng.gen_range(0..DOMAINS.len())];
        let user = &users[domain.name];
        let keyword = domain.keywords[rng.gen_range(0..domain.keywords.len())];
        let line1_t = domain.line1[rng.gen_range(0..domain.line1.len())];
        let line2_t = domain.line2[rng.gen_range(0..domain.line2.len())];
        let line3_t = domain.line3[rng.gen_range(0..domain.line3.len())];

        // Slots actually present in this adgroup's templates. Decor slots
        // get a per-adgroup choice but are not rewritten between variants.
        let mut all_slots: Vec<&'static str> = Vec::new();
        for t in [line1_t, line2_t, line3_t] {
            for s in template_slots(t) {
                let pool_name = domain.pool(s).name;
                if !all_slots.contains(&pool_name) {
                    all_slots.push(pool_name);
                }
            }
        }
        let slots: Vec<&'static str> = all_slots
            .iter()
            .copied()
            .filter(|s| !domain.pool(s).decor)
            .collect();

        // Base assignment (non-decor) and per-adgroup decor phrasing.
        let mut base: Assignment = Assignment::default();
        let mut decor_asg: DecorAssignment = DecorAssignment::default();
        for &slot in &all_slots {
            let pool = domain.pool(slot);
            if pool.decor {
                let inv = &decor_inventory[&(domain.name, pool.name)];
                decor_asg.insert(pool.name, inv[rng.gen_range(0..inv.len())].clone());
            } else {
                base.insert(slot, rng.gen_range(0..pool.options.len()));
            }
        }

        let n_creatives = rng.gen_range(cfg.creatives_per_adgroup.0..=cfg.creatives_per_adgroup.1);
        // A variant = slot assignment + the templates it renders with.
        let mut variants: Vec<(Assignment, &str, &str, &str)> =
            vec![(base.clone(), line1_t, line2_t, line3_t)];
        let mut seen_texts: Vec<Snippet> = vec![render_creative(
            &domain, line1_t, line2_t, line3_t, &base, &decor_asg,
        )];
        let mut guard = 0;
        while variants.len() < n_creatives && guard < 100 {
            guard += 1;
            let mut variant = base.clone();
            let (mut v_l1, mut v_l2, mut v_l3) = (line1_t, line2_t, line3_t);

            // Sometimes the advertiser only restructures the creative:
            // identical phrases, different positions.
            let switch_template = rng.gen_bool(cfg.template_switch_prob);
            if switch_template {
                match rng.gen_range(0..4) {
                    0 if domain.line1.len() > 1 => v_l1 = pick_other(domain.line1, v_l1, &mut rng),
                    1 | 2 if domain.line2.len() > 1 => {
                        v_l2 = pick_other(domain.line2, v_l2, &mut rng)
                    }
                    _ if domain.line3.len() > 1 => v_l3 = pick_other(domain.line3, v_l3, &mut rng),
                    _ => {}
                }
                // Cover any slots the new templates introduce.
                for t in [v_l1, v_l2, v_l3] {
                    for s in template_slots(t) {
                        let pool = domain.pool(s);
                        if pool.decor {
                            if !decor_asg.contains_key(pool.name) {
                                let inv = &decor_inventory[&(domain.name, pool.name)];
                                decor_asg
                                    .insert(pool.name, inv[rng.gen_range(0..inv.len())].clone());
                            }
                        } else {
                            variant
                                .entry(pool.name)
                                .or_insert_with(|| rng.gen_range(0..pool.options.len()));
                        }
                    }
                }
            }

            // Rewrite 1–2 slot phrases (sometimes zero when the variant is a
            // pure restructuring).
            let k = if switch_template && rng.gen_bool(0.7) {
                0
            } else {
                rng.gen_range(cfg.rewrites_per_variant.0..=cfg.rewrites_per_variant.1)
                    .min(slots.len())
            };
            let mut chosen_slots = slots.clone();
            chosen_slots.shuffle(&mut rng);
            for &slot in chosen_slots.iter().take(k) {
                let pool = domain.pool(slot);
                if pool.options.len() < 2 {
                    continue;
                }
                let current = variant[slot];
                let mut alt = rng.gen_range(0..pool.options.len() - 1);
                if alt >= current {
                    alt += 1;
                }
                variant.insert(slot, alt);
            }

            let rendered = render_creative(&domain, v_l1, v_l2, v_l3, &variant, &decor_asg);
            if seen_texts.contains(&rendered) {
                continue;
            }
            seen_texts.push(rendered);
            variants.push((variant, v_l1, v_l2, v_l3));
        }

        let creatives: Vec<Creative> = variants
            .iter()
            .map(|(asg, v_l1, v_l2, v_l3)| {
                let snippet = render_creative(&domain, v_l1, v_l2, v_l3, asg, &decor_asg);
                let mut ctr = user.expected_ctr(&snippet);
                if cfg.ctr_noise > 0.0 {
                    let noise = crate::util::gaussian(&mut rng) * cfg.ctr_noise;
                    ctr = (ctr * noise.exp()).clamp(0.0, 0.95);
                }
                let impressions = rng.gen_range(cfg.impressions.0..=cfg.impressions.1);
                let clicks = binomial(impressions, ctr, &mut rng);
                let id = CreativeId(next_creative_id);
                next_creative_id += 1;
                Creative {
                    id,
                    snippet,
                    impressions,
                    clicks,
                }
            })
            .collect();

        adgroups.push(AdGroup {
            id: AdGroupId(gid as u64),
            keyword: keyword.to_string(),
            placement: cfg.placement,
            creatives,
        });
    }

    let mut corpus = AdCorpus { adgroups };
    corpus.retain_active();
    SynthCorpus {
        corpus,
        truth: GroundTruth {
            salience_by_domain,
            attention,
            base_logit: cfg.base_logit,
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use microbrowse_core::PairFilter;

    fn small_cfg(seed: u64) -> GeneratorConfig {
        GeneratorConfig {
            num_adgroups: 60,
            seed,
            ..Default::default()
        }
    }

    #[test]
    fn deterministic() {
        let a = generate(&small_cfg(7));
        let b = generate(&small_cfg(7));
        assert_eq!(a.corpus.adgroups, b.corpus.adgroups);
        let c = generate(&small_cfg(8));
        assert_ne!(a.corpus.adgroups, c.corpus.adgroups);
    }

    #[test]
    fn corpus_shape() {
        let sc = generate(&small_cfg(1));
        assert!(
            sc.corpus.num_adgroups() >= 55,
            "most adgroups survive retain_active"
        );
        for g in &sc.corpus.adgroups {
            assert!(g.creatives.len() >= 2);
            assert!(g.total_clicks() >= 1);
            for c in &g.creatives {
                assert_eq!(c.snippet.num_lines(), 3);
                assert!(c.clicks <= c.impressions);
            }
            // All creatives in a group share the brand (taglines and line-1
            // templates may vary): some token appears in every line 1.
            let line1s: Vec<&str> = g
                .creatives
                .iter()
                .map(|c| c.snippet.lines()[0].text.as_str())
                .collect();
            let first: std::collections::HashSet<&str> = line1s[0].split_whitespace().collect();
            let shared = first.iter().any(|tok| {
                line1s
                    .iter()
                    .all(|l| l.split_whitespace().any(|t| t == *tok))
            });
            assert!(shared, "no shared brand token in {line1s:?}");
        }
    }

    #[test]
    fn variants_differ_in_few_tokens() {
        let sc = generate(&small_cfg(2));
        for g in sc.corpus.adgroups.iter().take(20) {
            let a = &g.creatives[0].snippet;
            let b = &g.creatives[1].snippet;
            assert_ne!(a, b, "variants must differ");
            // Variants share most of their vocabulary (rewrites touch a few
            // phrases; template switches reshuffle but reuse the same words).
            let toks = |s: &microbrowse_text::Snippet| -> std::collections::HashSet<String> {
                s.lines()
                    .iter()
                    .flat_map(|l| l.text.split_whitespace().map(str::to_string))
                    .collect()
            };
            let (ta, tb) = (toks(a), toks(b));
            let shared = ta.intersection(&tb).count();
            assert!(
                shared * 10 >= ta.len().min(tb.len()) * 3,
                "variants too dissimilar:\n{a}\n--\n{b}"
            );
        }
    }

    #[test]
    fn ctr_ordering_follows_ground_truth_salience() {
        // With noise off, the creative whose examined phrases are more
        // salient must have the higher true CTR; verify via the oracle.
        let cfg = GeneratorConfig {
            ctr_noise: 0.0,
            num_adgroups: 80,
            seed: 3,
            ..Default::default()
        };
        let sc = generate(&cfg);
        let mut checked = 0;
        for g in &sc.corpus.adgroups {
            let domain = domain_of_keyword(&g.keyword).expect("generated keyword has a domain");
            let user = sc.truth.user_for(domain.name);
            for pair in g.creatives.windows(2) {
                let e0 = user.expected_ctr(&pair[0].snippet);
                let e1 = user.expected_ctr(&pair[1].snippet);
                if (e0 - e1).abs() < 0.002 {
                    continue; // too close to call through binomial noise
                }
                // Large samples: empirical CTR ordering should usually agree.
                if (pair[0].ctr() > pair[1].ctr()) == (e0 > e1) {
                    checked += 1;
                }
            }
        }
        assert!(checked > 20, "ordering agreements: {checked}");
    }

    #[test]
    fn produces_trainable_pairs() {
        let sc = generate(&GeneratorConfig {
            num_adgroups: 200,
            seed: 4,
            ..Default::default()
        });
        let pairs = sc.corpus.extract_pairs(&PairFilter::default());
        assert!(
            pairs.len() >= 100,
            "expected a healthy number of significant pairs, got {}",
            pairs.len()
        );
        // Labels must not be degenerate.
        let pos = pairs.iter().filter(|p| p.r_better).count();
        assert!(
            pos > pairs.len() / 5 && pos < pairs.len() * 4 / 5,
            "{pos}/{}",
            pairs.len()
        );
    }

    #[test]
    fn placement_is_stamped() {
        let cfg = GeneratorConfig {
            placement: Placement::Rhs,
            num_adgroups: 10,
            ..Default::default()
        };
        let sc = generate(&cfg);
        assert!(sc
            .corpus
            .adgroups
            .iter()
            .all(|g| g.placement == Placement::Rhs));
    }

    #[test]
    fn rhs_corpus_has_lower_ctr_spread() {
        // Text matters less on RHS: the within-adgroup CTR ratio spread is
        // smaller than for Top given identical seeds.
        let top = generate(&GeneratorConfig {
            placement: Placement::Top,
            ctr_noise: 0.0,
            num_adgroups: 150,
            seed: 5,
            ..Default::default()
        });
        let rhs = generate(&GeneratorConfig {
            placement: Placement::Rhs,
            ctr_noise: 0.0,
            num_adgroups: 150,
            seed: 5,
            ..Default::default()
        });
        let spread = |corpus: &AdCorpus| -> f64 {
            let mut total = 0.0;
            let mut n = 0.0;
            for g in &corpus.adgroups {
                let mean = g.mean_ctr();
                if mean <= 0.0 {
                    continue;
                }
                for c in &g.creatives {
                    total += (c.ctr() / mean - 1.0).abs();
                    n += 1.0;
                }
            }
            total / n
        };
        let (st, sr) = (spread(&top.corpus), spread(&rhs.corpus));
        assert!(st > sr, "top spread {st} should exceed rhs spread {sr}");
    }

    #[test]
    fn domain_salience_tables_cover_all_domains() {
        let tables = all_domain_salience();
        assert!(tables["flights"].contains_key("find cheap"));
        assert!(tables["hotels"].contains_key("free cancellation"));
        assert!(tables["shoes"].contains_key("free shipping"));
        assert!(tables["insurance"].contains_key("get a free quote"));
        let total: usize = tables.values().map(FxHashMap::len).sum();
        assert!(total > 60);
    }

    #[test]
    fn query_dependent_salience_differs_across_domains() {
        let tables = all_domain_salience();
        let hotels = tables["hotels"]["compare prices"];
        let insurance = tables["insurance"]["compare prices"];
        assert!(
            hotels > 0.0 && insurance < 0.0,
            "hotels {hotels}, insurance {insurance}"
        );
    }

    #[test]
    fn keyword_domain_lookup() {
        assert_eq!(
            domain_of_keyword("cheap flights").map(|d| d.name),
            Some("flights")
        );
        assert!(domain_of_keyword("no such keyword").is_none());
    }
}
