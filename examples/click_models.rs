//! Tour of the macro click-model zoo (§II of the paper).
//!
//! ```text
//! cargo run --release -p microbrowse-bench --example click_models
//! ```
//!
//! Simulates SERP sessions with a DBN-style ground truth, fits every model
//! the paper surveys, and prints (a) held-out perplexity, (b) each model's
//! CTR-by-rank prediction against the empirical curve, and (c) the DBN's
//! recovered perseverance parameter.

use microbrowse_click::{
    evaluate, CascadeModel, CcmModel, ClickModel, DbnModel, DcmModel, DocId, PositionModel,
    QueryId, UbmModel,
};
use microbrowse_synth::sessions::{generate_sessions, SessionConfig};

fn main() {
    let cfg = SessionConfig {
        num_sessions: 40_000,
        seed: 5,
        ..SessionConfig::default()
    };
    let (all, truth) = generate_sessions(&cfg);
    let (train, test) = all.split_every_kth(5);
    println!(
        "simulated {} sessions ({} train / {} test), ground-truth γ = {}\n",
        all.len(),
        train.len(),
        test.len(),
        truth.gamma
    );

    let empirical = test.ctr_by_rank();
    println!("empirical CTR by rank: {}", fmt_row(&empirical));

    let mut models: Vec<Box<dyn ClickModel>> = vec![
        Box::new(PositionModel::default()),
        Box::new(CascadeModel::default()),
        Box::new(DcmModel::default()),
        Box::new(UbmModel::default()),
        Box::new(CcmModel::default()),
        Box::new(DbnModel::default()),
    ];

    println!(
        "\n{:8}  {:>10}  {:>8}  predicted CTR by rank",
        "model", "perplexity", "LL/pos"
    );
    for model in &mut models {
        model.fit(&train);
        let report = evaluate(model.as_ref(), &test);
        // Predict the marginal CTR curve for a canonical SERP of query 0.
        let docs: Vec<DocId> = (0..cfg.serp_depth as u32).map(DocId).collect();
        let predicted = model.full_click_probs(QueryId(0), &docs);
        println!(
            "{:8}  {:>10.4}  {:>8.4}  {}",
            report.model,
            report.perplexity,
            report.mean_position_ll,
            fmt_row(&predicted)
        );
    }

    // The DBN should recover the generator's perseverance.
    let mut dbn = DbnModel::default();
    dbn.fit(&train);
    println!(
        "\nDBN recovered perseverance γ = {:.3} (truth {:.3})",
        dbn.gamma, truth.gamma
    );
    println!("lower perplexity = better; 2.0 would be a fair coin at every rank.");
}

fn fmt_row(xs: &[f64]) -> String {
    xs.iter()
        .map(|x| format!("{x:.3}"))
        .collect::<Vec<_>>()
        .join(" ")
}
