//! The paper's motivating scenario (§I): a flight advertiser wonders which
//! creative will earn more clicks — and *where in the snippet* the decisive
//! words should go.
//!
//! ```text
//! cargo run --release -p microbrowse-bench --example flight_ads
//! ```
//!
//! Uses the ground-truth micro-browsing user from `microbrowse-synth` to
//! show how CTR responds to (a) which phrases a creative uses and (b) where
//! they sit, then runs the full pipeline on a synthetic flights-heavy corpus
//! and reports how well each classifier variant predicts the winner.

use microbrowse_core::pipeline::{run_experiment, ExperimentConfig};
use microbrowse_core::{ModelSpec, Placement};
use microbrowse_synth::{generate, AttentionProfile, GeneratorConfig, MicroUser};
use microbrowse_text::Snippet;

fn main() {
    // ------------------------------------------------------------------
    // 1. One user, several creatives: phrase choice and phrase placement.
    // ------------------------------------------------------------------
    let salience = [
        ("more legroom", 0.85),
        ("save 20%", 1.30),
        ("find cheap", 0.55),
        ("fees may apply", -1.10),
    ]
    .into_iter()
    .map(|(t, s)| (t.to_string(), s))
    .collect();
    let user = MicroUser {
        attention: AttentionProfile::top(),
        salience,
        base_logit: -3.0,
    };

    println!("== expected CTR under the micro-browsing user ==\n");
    let creatives = [
        (
            "offer up front",
            Snippet::creative(
                "XYZ Airlines",
                "save 20% on flights to new york",
                "book today",
            ),
        ),
        (
            "offer buried in line 3",
            Snippet::creative(
                "XYZ Airlines",
                "flights to new york",
                "book today and save 20%",
            ),
        ),
        (
            "comfort angle",
            Snippet::creative("XYZ Airlines", "more legroom on every flight", "book today"),
        ),
        (
            "fine print up top",
            Snippet::creative(
                "XYZ Airlines",
                "fees may apply on some routes",
                "find cheap flights",
            ),
        ),
    ];
    for (label, snippet) in &creatives {
        println!("  {:24} ctr = {:.4}", label, user.expected_ctr(snippet));
    }
    println!("\nthe SAME offer moves from line 1 to line 3 and loses most of its pull —");
    println!("that placement effect is exactly what the micro-browsing model captures.\n");

    // ------------------------------------------------------------------
    // 2. Can a classifier learn this from CTR logs alone?
    // ------------------------------------------------------------------
    println!("== training snippet classifiers on a synthetic ad corpus ==\n");
    let synth = generate(&GeneratorConfig {
        num_adgroups: 400,
        placement: Placement::Top,
        seed: 11,
        ..Default::default()
    });
    println!(
        "corpus: {} adgroups, {} creatives",
        synth.corpus.num_adgroups(),
        synth.corpus.num_creatives()
    );
    let cfg = ExperimentConfig {
        folds: 5,
        ..Default::default()
    };
    for spec in [ModelSpec::m1(), ModelSpec::m4(), ModelSpec::m6()] {
        let out = run_experiment(&synth.corpus, spec, &cfg);
        println!(
            "  {:32} accuracy {:.3}  F {:.3}  ({} pairs)",
            out.spec.label(),
            out.mean.accuracy,
            out.mean.f1,
            out.num_pairs
        );
    }
    println!(
        "\nposition-aware rewrites (M4/M6) recover more of the signal than bag-of-terms (M1)."
    );
}
