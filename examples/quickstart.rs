//! Quickstart: the micro-browsing model in five minutes.
//!
//! ```text
//! cargo run --release -p microbrowse-bench --example quickstart
//! ```
//!
//! Walks through the paper's core equations on the paper's own example pair
//! ("Find cheap flights to New York." vs "Flying to New York? Get
//! discounts."), then shows the rewrite extractor recovering the phrase
//! alignment and a snippet classifier scoring the pair.

use microbrowse_core::model::{score_flat, snippet_relevance, TermJudgment};
use microbrowse_core::rewrite::{canonical_rewrite_key, RewriteExtractor};
use microbrowse_store::StatsDb;
use microbrowse_text::{Interner, Snippet, Tokenizer};

fn main() {
    // ------------------------------------------------------------------
    // 1. Eq. 3: a snippet's perceived relevance depends only on the terms
    //    the user actually examined.
    // ------------------------------------------------------------------
    println!("== Eq. 3: perceived relevance under partial examination ==\n");
    let t = TermJudgment::new;
    // "more legroom" read at the start of the line…
    let legroom_read = [t(0.95, true), t(0.5, true), t(0.4, false), t(0.4, false)];
    // …versus buried at the end where the user never looks.
    let legroom_buried = [t(0.4, true), t(0.4, true), t(0.5, false), t(0.95, false)];
    println!(
        "salient phrase read:    Pr(R|q) = {:.3}",
        snippet_relevance(&legroom_read)
    );
    println!(
        "salient phrase buried:  Pr(R|q) = {:.3}",
        snippet_relevance(&legroom_buried)
    );
    println!(
        "same words, different positions → log-odds gap {:+.3}\n",
        score_flat(&legroom_read, &legroom_buried)
    );

    // ------------------------------------------------------------------
    // 2. The paper's §IV-A example pair, diffed and greedily matched.
    // ------------------------------------------------------------------
    println!("== §IV-A: rewrite extraction on the paper's example ==\n");
    let snippet_r = Snippet::creative(
        "XYZ Airlines",
        "Find cheap flights to New York.",
        "No reservation costs. Great rates",
    );
    let snippet_s = Snippet::creative(
        "XYZ Airlines",
        "Flying to New York? Get discounts.",
        "No reservation costs. Great rates!",
    );
    println!("Snippet R:\n{snippet_r}\n");
    println!("Snippet S:\n{snippet_s}\n");

    let tokenizer = Tokenizer::default();
    let mut interner = Interner::new();
    let tok_r = snippet_r.tokenize(&tokenizer, &mut interner);
    let tok_s = snippet_s.tokenize(&tokenizer, &mut interner);

    // A rewrite statistics database seeded with corpus-level evidence (in
    // the full pipeline this comes from millions of pairs; here we plant
    // the two entries the paper discusses).
    let mut stats = StatsDb::new();
    for _ in 0..40 {
        stats.record(canonical_rewrite_key("find cheap", "get discounts"), true);
    }
    for _ in 0..25 {
        stats.record(canonical_rewrite_key("flights", "flying"), true);
    }

    let extraction = RewriteExtractor::default().extract(&tok_r, &tok_s, &stats, &mut interner);
    println!("greedy rewrite matching found:");
    for rw in &extraction.rewrites {
        println!(
            "  '{}' (line {}, pos {})  →  '{}' (line {}, pos {})",
            interner.resolve(rw.from.phrase),
            rw.from.pos.line + 1,
            rw.from.pos.pos + 1,
            interner.resolve(rw.to.phrase),
            rw.to.pos.line + 1,
            rw.to.pos.pos + 1,
        );
    }
    for occ in &extraction.r_leftover {
        println!("  leftover in R: '{}'", interner.resolve(occ.phrase));
    }
    for occ in &extraction.s_leftover {
        println!("  leftover in S: '{}'", interner.resolve(occ.phrase));
    }

    // ------------------------------------------------------------------
    // 3. Scoring the pair with stats-DB log-odds (the "+init" classifier
    //    before any gradient step).
    // ------------------------------------------------------------------
    println!("\n== scoring R vs S from rewrite statistics alone ==\n");
    let mut score = 0.0;
    for rw in &extraction.rewrites {
        let from = interner.resolve(rw.from.phrase);
        let to = interner.resolve(rw.to.phrase);
        let key = canonical_rewrite_key(from, to);
        let log_odds = stats.log_odds(&key, 1.0);
        // Canonical direction: positive log-odds favor the lexicographically
        // smaller phrase's side.
        let oriented = if from <= to { log_odds } else { -log_odds };
        println!("  rewrite '{from}' → '{to}': oriented log-odds {oriented:+.3}");
        score += oriented;
    }
    println!("\ntotal score(R→S|q) = {score:+.3}");
    println!(
        "⇒ the corpus evidence says {} has the higher expected CTR",
        if score > 0.0 { "R" } else { "S" }
    );
}
