//! `microbrowse` — train, persist, validate, and serve snippet classifiers
//! from the command line.
//!
//! ```text
//! microbrowse train    --model out.mbm --stats out.mbs [--spec m4] [--adgroups 1000] [--seed 42]
//! microbrowse eval     --model out.mbm --stats out.mbs [--adgroups 300] [--seed 99] [--degraded true]
//! microbrowse score    --model out.mbm --stats out.mbs --r "l1|l2|l3" --s "l1|l2|l3"
//! microbrowse rank     --model out.mbm --stats out.mbs --creative "…" --creative "…" [...]
//! microbrowse optimize --model out.mbm --stats out.mbs --base "l1|l2|l3" \
//!                      --rewrite "find cheap=save 20%" [--rewrite …] [--swap-lines 1,2]
//! microbrowse validate --model out.mbm [--stats out.mbs]
//! ```
//!
//! Creatives are passed as `|`-separated lines. `train` generates a
//! synthetic ADCORPUS (there is no public corpus; see DESIGN.md §3), builds
//! the Phase-1 statistics database, trains the chosen classifier variant,
//! and writes both artifacts; the other subcommands only ever read them.
//!
//! ## Robustness contract
//!
//! Every failure surfaces as a typed [`MbError`] with the offending path;
//! nothing on the load/serve path panics. Exit codes: 0 success, 1 the
//! operation failed (bad artifact, IO, failed validation), 2 the
//! invocation itself was malformed. If `--model` / `--stats` name a
//! *directory*, it is treated as a crash-safe generation slot: `train`
//! commits a new generation, readers recover the newest valid one (rolling
//! back past torn writes). `--policy degrade` keeps the serving commands
//! alive when the stats snapshot is missing or corrupt, at explicitly
//! reported term-only fidelity.

use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::sync::Arc;
use std::time::Instant;

use microbrowse_api::v1::{
    ExplainResponse, RankResponse, ScoreResponse, SpanAttribution, SuggestResponse,
    SuggestedRewrite, SuggestedVariant, Winner,
};
use microbrowse_core::classifier::{ModelSpec, TrainConfig, TrainedClassifier};
use microbrowse_core::error::MbError;
use microbrowse_core::explain::{explain_pair, SpanKind};
use microbrowse_core::features::{PositionVocab, SpanSide};
use microbrowse_core::optimize::{optimize_creative, Edit, OptimizeConfig};
use microbrowse_core::pipeline::{run_experiments, ExperimentConfig};
use microbrowse_core::serve::{
    DegradeReason, DeployedModel, Fidelity, LoadPolicy, ModelIoError, ScorerBuilder, ServingBundle,
    MODEL_SLOT_NAME, STATS_SLOT_NAME,
};
use microbrowse_core::suggest::{suggest, SuggestConfig};
use microbrowse_core::{PairFilter, Placement, TrainingSet};
use microbrowse_store::{ArtifactSlot, SnapshotError, StatsDb};
use microbrowse_synth::{generate, GeneratorConfig};
use microbrowse_text::Snippet;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some(command) = args.first() else {
        eprintln!("{USAGE}");
        return ExitCode::from(2);
    };
    let flags = match Flags::parse(&args[1..]).and_then(|f| {
        if let Some(allowed) = allowed_flags(command) {
            f.reject_unknown(allowed)?;
        }
        Ok(f)
    }) {
        Ok(f) => f,
        Err(e) => {
            eprintln!("error: {e}\n\n{USAGE}");
            return ExitCode::from(e.exit_code());
        }
    };
    // `--trace-json FILE` works on every subcommand: install the JSONL
    // sink and switch instrumentation on for the whole process.
    let tracing = match flags.get("trace-json") {
        Some(path) => match microbrowse_obs::trace::JsonlSink::create(Path::new(path)) {
            Ok(sink) => {
                microbrowse_obs::trace::install_sink(Arc::new(sink));
                microbrowse_obs::set_enabled(true);
                true
            }
            Err(e) => {
                eprintln!("error: cannot create trace file {path:?}: {e}");
                return ExitCode::from(1);
            }
        },
        None => false,
    };
    // One command = one trace: give the whole run a root trace id so the
    // JSONL joins the same tooling as served requests (trace_schema,
    // post-hoc trace-id joins). Served requests still enter their own
    // per-request wire contexts underneath.
    let _root_trace = tracing.then(|| {
        microbrowse_obs::trace::TraceContext::for_trace(microbrowse_obs::trace::new_trace_id())
            .enter()
    });
    let result = match command.as_str() {
        "train" => cmd_train(&flags),
        "eval" => cmd_eval(&flags),
        "experiment" => cmd_experiment(&flags),
        "score" => cmd_score(&flags),
        "rank" => cmd_rank(&flags),
        "suggest" => cmd_suggest(&flags),
        "explain" => cmd_explain(&flags),
        "optimize" => cmd_optimize(&flags),
        "validate" => cmd_validate(&flags),
        "metrics" => cmd_metrics(&flags),
        "serve" => cmd_serve(&flags),
        "replay" => cmd_replay(&flags),
        "help" | "--help" | "-h" => {
            println!("{USAGE}");
            return ExitCode::SUCCESS;
        }
        other => Err(MbError::usage(format!("unknown command {other:?}"))),
    };
    if tracing {
        // The sink lives in a process-global; static destructors never
        // run, so flush buffered records explicitly.
        microbrowse_obs::trace::flush();
    }
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            if matches!(e, MbError::Usage(_)) {
                eprintln!("\n{USAGE}");
            }
            ExitCode::from(e.exit_code())
        }
    }
}

const USAGE: &str = "usage:
  microbrowse train    --model FILE --stats FILE [--spec m1..m6] [--adgroups N] [--seed S]
                       [--threads T]  (0 = MICROBROWSE_THREADS env or auto)
  microbrowse eval     --model FILE --stats FILE [--adgroups N] [--seed S] [--degraded true]
  microbrowse experiment [--spec m1..m6|all]... [--adgroups N] [--seed S] [--folds K]
                       [--threads T]  (cross-validated engine run, no artifacts written)
  microbrowse score    --model FILE --stats FILE --r 'l1|l2|l3' --s 'l1|l2|l3' [--json]
  microbrowse rank     --model FILE --stats FILE --creative '…' --creative '…' [...] [--json]
  microbrowse suggest  --model FILE --stats FILE --creative 'l1|l2|l3'
                       [--beam-width N] [--max-depth N] [--top-k N] [--json]
                       (beam-search corpus rewrites for higher-scoring variants)
  microbrowse explain  --model FILE --stats FILE --r 'l1|l2|l3' --s 'l1|l2|l3' [--json]
                       (attribute the pair's score span by span)
  microbrowse optimize --model FILE --stats FILE --base 'l1|l2|l3'
                       [--rewrite 'from=to']... [--swap-lines A,B]... [--move-front 'phrase']...
  microbrowse validate --model FILE [--stats FILE]
  microbrowse metrics  --model FILE --stats FILE [--adgroups N] [--seed S]
                       (score a held-out corpus, dump Prometheus-style metrics)
  microbrowse serve    --slot-dir DIR [--addr HOST:PORT] [--workers N] [--queue-depth N]
                       [--max-batch N] [--max-conns N] [--request-deadline-ms MS]
                       [--max-beam N] [--max-suggestions N]
                       [--flight-recorder-slow-ms MS] [--access-log]
                       [--feedback-journal DIR] [--refit-interval SECS]
                       [--min-refit-batches N]
                       (HTTP scoring server: POST /v1/score /v1/rank /v1/batch
                        /v1/suggest /v1/explain,
                        GET /healthz /metrics /version /debug/trace
                        /debug/requests; hot-reloads new slot generations;
                        graceful drain on stdin EOF; sheds expired work under
                        overload — see X-Mb-Deadline-Ms. Requests may carry
                        X-Mb-Trace-Id/X-Mb-Parent-Span/X-Mb-Sampled; every
                        response echoes X-Mb-Trace-Id. Each response's record
                        (method, path, status, trace id, queue/parse/score/
                        write µs) goes into the flight recorder's ring, which
                        GET /debug/requests reads back and --access-log
                        prints to stderr; anomalous requests are retained
                        with their spans for GET /debug/trace.
                        --feedback-journal enables POST /v1/feedback: click
                        batches are journalled crash-safely, folded into the
                        statistics, and a background refit republishes the
                        model through the slot — zero-drop hot reload,
                        provenance in /healthz)
  microbrowse replay   --slot-dir DIR --journal DIR
                       (offline recovery: fold an existing feedback journal
                        into the slot artifacts without a running server —
                        replays unfolded batches, refits once, commits new
                        model/stats generations, checkpoints the journal)

  Every subcommand accepts --trace-json FILE: write structured span/event
  records as JSON lines (one object per line) while the command runs.

  A FILE that names a directory is a crash-safe generation slot: train
  commits a new generation, readers recover the newest valid one.
  --slot-dir DIR is shorthand for --model DIR --stats DIR.
  Serving commands accept --policy strict|degrade (default strict);
  degrade keeps serving on a missing/corrupt stats snapshot, term-only.";

/// Repeated `--flag value` pairs.
#[derive(Debug)]
struct Flags {
    pairs: Vec<(String, String)>,
}

impl Flags {
    fn parse(args: &[String]) -> Result<Self, MbError> {
        let mut pairs = Vec::new();
        let mut i = 0;
        while i < args.len() {
            let name = args[i]
                .strip_prefix("--")
                .ok_or_else(|| MbError::usage(format!("expected --flag, got {:?}", args[i])))?;
            if BOOLEAN_FLAG_NAMES.contains(&name) {
                // Bare boolean: `--json` alone means true. A literal
                // true/false value is still accepted for compatibility;
                // anything else (`--json maybe`) is left in place and
                // rejected as a stray argument below.
                match args.get(i + 1).map(String::as_str) {
                    Some(v @ ("true" | "false")) => {
                        pairs.push((name.to_string(), v.to_string()));
                        i += 2;
                    }
                    _ => {
                        pairs.push((name.to_string(), "true".to_string()));
                        i += 1;
                    }
                }
                continue;
            }
            let value = args
                .get(i + 1)
                .ok_or_else(|| MbError::usage(format!("flag --{name} needs a value")))?;
            pairs.push((name.to_string(), value.clone()));
            i += 2;
        }
        Ok(Self { pairs })
    }

    fn get(&self, name: &str) -> Option<&str> {
        self.pairs
            .iter()
            .rev()
            .find(|(n, _)| n == name)
            .map(|(_, v)| v.as_str())
    }

    fn require(&self, name: &str) -> Result<&str, MbError> {
        self.get(name)
            .ok_or_else(|| MbError::usage(format!("missing required flag --{name}")))
    }

    fn get_all(&self, name: &str) -> Vec<&str> {
        self.pairs
            .iter()
            .filter(|(n, _)| n == name)
            .map(|(_, v)| v.as_str())
            .collect()
    }

    fn parse_or<T: std::str::FromStr>(&self, name: &str, default: T) -> Result<T, MbError> {
        match self.get(name) {
            None => Ok(default),
            Some(v) => v
                .parse()
                .map_err(|_| MbError::usage(format!("bad value for --{name}: {v:?}"))),
        }
    }

    fn policy(&self) -> Result<LoadPolicy, MbError> {
        match self.get("policy") {
            None => Ok(LoadPolicy::Strict),
            Some("strict") => Ok(LoadPolicy::Strict),
            Some("degrade") => Ok(LoadPolicy::Degrade),
            Some(other) => Err(MbError::usage(format!(
                "bad value for --policy: {other:?} (expected strict or degrade)"
            ))),
        }
    }

    /// Reject any flag that is neither common nor in the subcommand's
    /// `extra` list (a typo'd flag silently defaulting is worse than an
    /// error).
    fn reject_unknown(&self, extra: &[&str]) -> Result<(), MbError> {
        for (name, _) in &self.pairs {
            let name = name.as_str();
            if !COMMON_FLAG_NAMES.contains(&name) && !extra.contains(&name) {
                return Err(MbError::usage(format!("unknown flag --{name}")));
            }
        }
        Ok(())
    }
}

/// Flag names every subcommand shares (see [`CommonFlags`]).
const COMMON_FLAG_NAMES: &[&str] = &["model", "stats", "slot-dir", "policy", "trace-json"];

/// Flags that take no value: bare presence means true (a trailing literal
/// `true`/`false` is still accepted for compatibility).
const BOOLEAN_FLAG_NAMES: &[&str] = &["json", "access-log"];

/// Flags every artifact-consuming subcommand shares. `--slot-dir DIR` is
/// shorthand for `--model DIR --stats DIR` (the generation-slot layout the
/// server and `train` both use); explicit `--model`/`--stats` win.
struct CommonFlags {
    model: Option<PathBuf>,
    stats: Option<PathBuf>,
    policy: LoadPolicy,
}

impl CommonFlags {
    fn parse(flags: &Flags) -> Result<Self, MbError> {
        let slot_dir = flags.get("slot-dir").map(PathBuf::from);
        Ok(Self {
            model: flags
                .get("model")
                .map(PathBuf::from)
                .or_else(|| slot_dir.clone()),
            stats: flags.get("stats").map(PathBuf::from).or(slot_dir),
            policy: flags.policy()?,
        })
    }

    fn require_model(&self) -> Result<&Path, MbError> {
        self.model
            .as_deref()
            .ok_or_else(|| MbError::usage("missing required flag --model (or --slot-dir)"))
    }

    fn require_stats(&self) -> Result<&Path, MbError> {
        self.stats
            .as_deref()
            .ok_or_else(|| MbError::usage("missing required flag --stats (or --slot-dir)"))
    }
}

/// Per-subcommand extra flags beyond [`COMMON_FLAG_NAMES`]. `None` means
/// the command validates its own arguments (`help` and unknown commands).
fn allowed_flags(command: &str) -> Option<&'static [&'static str]> {
    match command {
        "train" => Some(&["spec", "adgroups", "seed", "threads"]),
        "eval" => Some(&["adgroups", "seed", "degraded"]),
        "experiment" => Some(&["spec", "adgroups", "seed", "folds", "threads"]),
        "score" => Some(&["r", "s", "json"]),
        "rank" => Some(&["creative", "json"]),
        "suggest" => Some(&["creative", "beam-width", "max-depth", "top-k", "json"]),
        "explain" => Some(&["r", "s", "json"]),
        "optimize" => Some(&["base", "rewrite", "swap-lines", "move-front"]),
        "validate" => Some(&[]),
        "metrics" => Some(&["adgroups", "seed"]),
        "serve" => Some(&[
            "addr",
            "workers",
            "queue-depth",
            "max-batch",
            "max-beam",
            "max-suggestions",
            "max-conns",
            "request-deadline-ms",
            "flight-recorder-slow-ms",
            "access-log",
            "feedback-journal",
            "refit-interval",
            "min-refit-batches",
        ]),
        "replay" => Some(&["journal"]),
        _ => None,
    }
}

fn spec_by_name(name: &str) -> Result<ModelSpec, MbError> {
    Ok(match name.to_ascii_lowercase().as_str() {
        "m1" => ModelSpec::m1(),
        "m2" => ModelSpec::m2(),
        "m3" => ModelSpec::m3(),
        "m4" => ModelSpec::m4(),
        "m5" => ModelSpec::m5(),
        "m6" => ModelSpec::m6(),
        other => {
            return Err(MbError::usage(format!(
                "unknown spec {other:?} (expected m1..m6)"
            )))
        }
    })
}

/// Load the model + stats bundle under the `--policy` flag, reporting the
/// fidelity (and any rollback) to stderr so operators see degradation the
/// moment it starts.
fn load_bundle(flags: &Flags) -> Result<ServingBundle, MbError> {
    let common = CommonFlags::parse(flags)?;
    let bundle = ScorerBuilder::new(common.require_model()?)
        .stats_path(common.require_stats()?)
        .policy(common.policy)
        .load()?;
    if let Fidelity::Degraded(reason) = bundle.fidelity() {
        eprintln!("warning: serving degraded (term features only): {reason}");
    }
    Ok(bundle)
}

/// Write `model` to `path`: a directory commits a slot generation, a plain
/// path is written atomically.
fn save_model(model: &DeployedModel, path: &Path) -> Result<Option<u64>, MbError> {
    if path.is_dir() {
        let slot = ArtifactSlot::new(path, MODEL_SLOT_NAME);
        let generation = model
            .commit_to_slot(&slot)
            .map_err(|e| MbError::slot(path, e))?;
        Ok(Some(generation))
    } else {
        model.save(path).map_err(|e| MbError::model(path, e))?;
        Ok(None)
    }
}

/// Write `stats` to `path` with the same file-or-slot contract.
fn save_stats(stats: &StatsDb, path: &Path) -> Result<Option<u64>, MbError> {
    if path.is_dir() {
        let slot = ArtifactSlot::new(path, STATS_SLOT_NAME);
        let generation = slot
            .commit(&microbrowse_store::file::to_bytes(stats))
            .map_err(|e| MbError::slot(path, e))?;
        Ok(Some(generation))
    } else {
        microbrowse_store::write_snapshot(stats, path).map_err(|e| MbError::stats(path, e))?;
        Ok(None)
    }
}

fn cmd_train(flags: &Flags) -> Result<(), MbError> {
    let common = CommonFlags::parse(flags)?;
    let model_path = common.require_model()?.to_path_buf();
    let stats_path = common.require_stats()?.to_path_buf();
    let spec = spec_by_name(flags.get("spec").unwrap_or("m4"))?;
    let adgroups: usize = flags.parse_or("adgroups", 1000)?;
    let seed: u64 = flags.parse_or("seed", 42)?;
    let threads: usize = flags.parse_or("threads", 0)?;

    eprintln!("generating synthetic ADCORPUS ({adgroups} adgroups, seed {seed})…");
    let synth = generate(&GeneratorConfig {
        num_adgroups: adgroups,
        placement: Placement::Top,
        seed,
        ..Default::default()
    });
    let set = TrainingSet::from_corpus(&synth.corpus);
    eprintln!("building statistics over {} pairs…", set.pairs().len());
    let stats = set.build_stats(&set.all(), threads);

    eprintln!("training {}…", spec.label());
    let deployed = set.train(spec, &stats, &TrainConfig::default(), threads);
    let model_gen = save_model(&deployed, &model_path)?;
    let stats_gen = save_stats(&stats, &stats_path)?;
    let gen_note = |g: Option<u64>| g.map_or(String::new(), |g| format!(" [generation {g}]"));
    println!(
        "wrote {}{} ({} features) and {}{} ({} statistics)",
        model_path.display(),
        gen_note(model_gen),
        deployed.vocab.len(),
        stats_path.display(),
        gen_note(stats_gen),
        stats.len()
    );
    Ok(())
}

fn cmd_eval(flags: &Flags) -> Result<(), MbError> {
    let bundle = load_bundle(flags)?;
    let adgroups: usize = flags.parse_or("adgroups", 300)?;
    let seed: u64 = flags.parse_or("seed", 99)?;
    let force_degraded: bool = flags.parse_or("degraded", false)?;

    eprintln!("generating held-out corpus ({adgroups} adgroups, seed {seed})…");
    let synth = generate(&GeneratorConfig {
        num_adgroups: adgroups,
        placement: Placement::Top,
        seed,
        ..Default::default()
    });
    let pairs = synth.corpus.extract_pairs(&PairFilter::default());
    // `--degraded true` measures the term-only fallback on demand (the
    // accuracy an outage would serve at), regardless of artifact health.
    let bundle = if force_degraded {
        ServingBundle::from_parts(
            bundle.model().clone(),
            StatsDb::new(),
            Fidelity::Degraded(DegradeReason::StatsMissing),
        )?
    } else {
        bundle
    };
    let scorer = bundle.scorer();
    let mut scratch = scorer.scratch();

    let by_id: HashMap<_, _> = synth
        .corpus
        .adgroups
        .iter()
        .flat_map(|g| &g.creatives)
        .map(|c| (c.id, c))
        .collect();
    let mut correct = 0usize;
    for p in &pairs {
        let (r, s) = match (by_id.get(&p.r), by_id.get(&p.s)) {
            (Some(r), Some(s)) => (r, s),
            _ => {
                return Err(MbError::invariant(format!(
                    "pair references creative {:?}/{:?} absent from its own corpus",
                    p.r, p.s
                )))
            }
        };
        let predicted_r = scorer.predict_pair(&r.snippet, &s.snippet, &mut scratch);
        if predicted_r == p.r_better {
            correct += 1;
        }
    }
    println!(
        "{} [fidelity {}]: accuracy {:.3} on {} held-out pairs",
        bundle.model().spec.label(),
        scorer.fidelity(),
        correct as f64 / pairs.len().max(1) as f64,
        pairs.len()
    );
    Ok(())
}

/// Run the cross-validated experiment engine over a synthetic corpus —
/// the full paper pipeline (parse, stats, cache, encode, per-fold train,
/// eval) in one process, so a single `--trace-json` invocation captures
/// spans for every stage. No artifacts are written.
fn cmd_experiment(flags: &Flags) -> Result<(), MbError> {
    let adgroups: usize = flags.parse_or("adgroups", 200)?;
    let seed: u64 = flags.parse_or("seed", 42)?;
    let folds: usize = flags.parse_or("folds", 5)?;
    let threads: usize = flags.parse_or("threads", 0)?;
    let spec_flags = flags.get_all("spec");
    let specs: Vec<ModelSpec> = if spec_flags.is_empty() {
        vec![ModelSpec::m4()]
    } else if spec_flags.iter().any(|s| s.eq_ignore_ascii_case("all")) {
        ModelSpec::paper_models().to_vec()
    } else {
        spec_flags
            .into_iter()
            .map(spec_by_name)
            .collect::<Result<_, _>>()?
    };

    eprintln!(
        "generating synthetic ADCORPUS ({adgroups} adgroups, seed {seed}), \
         {folds}-fold cross-validation…"
    );
    let synth = generate(&GeneratorConfig {
        num_adgroups: adgroups,
        placement: Placement::Top,
        seed,
        ..Default::default()
    });
    let cfg = ExperimentConfig {
        folds,
        seed,
        threads,
        ..Default::default()
    };
    let outcomes = run_experiments(&synth.corpus, &specs, &cfg);
    for o in &outcomes {
        println!(
            "{}: accuracy {:.3} precision {:.3} recall {:.3} f1 {:.3} ({} pairs, {} folds)",
            o.spec.label(),
            o.mean.accuracy,
            o.mean.precision,
            o.mean.recall,
            o.mean.f1,
            o.num_pairs,
            o.fold_metrics.len()
        );
    }
    Ok(())
}

/// Serve-path counters and histograms the `metrics` dump always reports,
/// even at zero — operators alert on these names, so they must exist
/// before the first failure does.
const SERVE_METRIC_COUNTERS: &[&str] = &[
    "microbrowse_scores_total",
    "microbrowse_scores_degraded_total",
    "microbrowse_degraded_loads_total",
    "microbrowse_slot_rollbacks_total",
    "microbrowse_crc_failures_total",
    "microbrowse_io_retries_total",
    "microbrowse_load_failures_total",
];

/// Load a bundle, score a generated held-out corpus through the real
/// serve path, and dump the metrics registry in Prometheus text format.
fn cmd_metrics(flags: &Flags) -> Result<(), MbError> {
    // Metrics mutation is gated on the process-wide obs flag; this command
    // exists to observe, so switch it on regardless of --trace-json.
    microbrowse_obs::set_enabled(true);
    let registry = microbrowse_obs::metrics::registry();
    for name in SERVE_METRIC_COUNTERS {
        registry.counter(name);
    }
    registry.histogram("microbrowse_score_latency_us");

    let bundle = load_bundle(flags)?;
    let adgroups: usize = flags.parse_or("adgroups", 60)?;
    let seed: u64 = flags.parse_or("seed", 7)?;
    eprintln!("scoring held-out corpus ({adgroups} adgroups, seed {seed})…");
    let synth = generate(&GeneratorConfig {
        num_adgroups: adgroups,
        placement: Placement::Top,
        seed,
        ..Default::default()
    });
    let pairs = synth.corpus.extract_pairs(&PairFilter::default());
    let by_id: HashMap<_, _> = synth
        .corpus
        .adgroups
        .iter()
        .flat_map(|g| &g.creatives)
        .map(|c| (c.id, c))
        .collect();
    let scorer = bundle.scorer();
    let mut scratch = scorer.scratch();
    for p in &pairs {
        if let (Some(r), Some(s)) = (by_id.get(&p.r), by_id.get(&p.s)) {
            scorer.score_pair(&r.snippet, &s.snippet, &mut scratch);
        }
    }
    print!("{}", registry.render_prometheus());
    Ok(())
}

fn cmd_score(flags: &Flags) -> Result<(), MbError> {
    let json: bool = flags.parse_or("json", false)?;
    let bundle = load_bundle(flags)?;
    let r = Snippet::from_wire(flags.require("r")?);
    let s = Snippet::from_wire(flags.require("s")?);
    let scorer = bundle.scorer();
    let mut scratch = scorer.scratch();
    let started = Instant::now();
    let outcome = scorer.score_pair_outcome(&r, &s, &mut scratch);
    let latency_us = started.elapsed().as_micros() as u64;
    if json {
        let resp = ScoreResponse::from_outcome(&outcome, latency_us);
        println!("{}", resp.to_json_with_command("score"));
        return Ok(());
    }
    println!(
        "score(R→S) = {:+.4} (positive ⇒ R expected to out-click S)",
        outcome.score
    );
    if let Fidelity::Degraded(reason) = &outcome.fidelity {
        println!("fidelity: degraded — {reason}");
    }
    println!(
        "prediction: {} wins",
        Winner::from_score(outcome.score).as_str()
    );
    Ok(())
}

fn cmd_suggest(flags: &Flags) -> Result<(), MbError> {
    let json: bool = flags.parse_or("json", false)?;
    let bundle = load_bundle(flags)?;
    let creative = Snippet::from_wire(flags.require("creative")?);
    let base = SuggestConfig::default();
    let cfg = SuggestConfig {
        beam_width: flags.parse_or("beam-width", base.beam_width)?,
        max_depth: flags.parse_or("max-depth", base.max_depth)?,
        top_k: flags.parse_or("top-k", base.top_k)?,
        ..base
    };
    if cfg.beam_width == 0 || cfg.max_depth == 0 || cfg.top_k == 0 {
        return Err(MbError::usage(
            "--beam-width, --max-depth, and --top-k must be >= 1",
        ));
    }
    let scorer = bundle.scorer();
    let mut scratch = scorer.scratch();
    let started = Instant::now();
    let out = suggest(&scorer, &creative, &cfg, &mut scratch);
    let latency_us = started.elapsed().as_micros() as u64;
    if json {
        let resp = SuggestResponse {
            suggestions: out
                .iter()
                .map(|s| SuggestedVariant {
                    creative: s.creative.to_wire(),
                    score: s.score,
                    rewrites: s.steps.iter().map(SuggestedRewrite::from).collect(),
                })
                .collect(),
            fidelity: scorer.fidelity().into(),
            generation: bundle.model_generation(),
            latency_us,
        };
        println!("{}", resp.to_json_with_command("suggest"));
        return Ok(());
    }
    if out.is_empty() {
        println!(
            "no improving rewrites found (the model has no rewrite features, \
             or no corpus substitution beats the input)"
        );
        return Ok(());
    }
    println!("suggestions (best first):");
    for (place, s) in out.iter().enumerate() {
        println!(
            "  #{}: {:+.4}  {:?}",
            place + 1,
            s.score,
            s.creative.to_wire()
        );
        for step in &s.steps {
            println!(
                "       {:?} → {:?} (line {}, pos {}): {:+.4}",
                step.from, step.to, step.line, step.pos, step.delta
            );
        }
    }
    Ok(())
}

fn cmd_explain(flags: &Flags) -> Result<(), MbError> {
    let json: bool = flags.parse_or("json", false)?;
    let bundle = load_bundle(flags)?;
    let r = Snippet::from_wire(flags.require("r")?);
    let s = Snippet::from_wire(flags.require("s")?);
    let scorer = bundle.scorer();
    let mut scratch = scorer.scratch();
    let started = Instant::now();
    let exp = explain_pair(&scorer, &r, &s, &mut scratch);
    let latency_us = started.elapsed().as_micros() as u64;
    if json {
        let resp = ExplainResponse {
            score: exp.score,
            bias: exp.bias,
            spans: exp.spans.iter().map(SpanAttribution::from).collect(),
            fidelity: (&exp.fidelity).into(),
            generation: bundle.model_generation(),
            latency_us,
        };
        println!("{}", resp.to_json_with_command("explain"));
        return Ok(());
    }
    println!(
        "score(R→S) = {:+.4} (bias {:+.4}; positive ⇒ R expected to out-click S)",
        exp.score, exp.bias
    );
    if let Fidelity::Degraded(reason) = &exp.fidelity {
        println!("fidelity: degraded — {reason}");
    }
    for a in &exp.spans {
        let side = match a.side {
            SpanSide::R => "R",
            SpanSide::S => "S",
        };
        match (a.kind, &a.to) {
            (SpanKind::Rewrite, Some(to)) => println!(
                "  [{side}] rewrite {:?} → {to:?} (line {}, pos {}): {:+.4}",
                a.text, a.line, a.pos, a.contribution
            ),
            _ => println!(
                "  [{side}] term {:?} (line {}, pos {}): {:+.4} (weight {:+.4})",
                a.text, a.line, a.pos, a.contribution, a.weight
            ),
        }
    }
    Ok(())
}

fn cmd_rank(flags: &Flags) -> Result<(), MbError> {
    let json: bool = flags.parse_or("json", false)?;
    let bundle = load_bundle(flags)?;
    let creatives: Vec<Snippet> = flags
        .get_all("creative")
        .into_iter()
        .map(Snippet::from_wire)
        .collect();
    if creatives.len() < 2 {
        return Err(MbError::usage("rank needs at least two --creative flags"));
    }
    let scorer = bundle.scorer();
    let mut scratch = scorer.scratch();
    let started = Instant::now();
    let order = scorer.rank(&creatives, &mut scratch);
    let latency_us = started.elapsed().as_micros() as u64;
    if json {
        let resp = RankResponse::from_zero_based(&order, scorer.fidelity().into(), latency_us);
        println!("{}", resp.to_json_with_command("rank"));
        return Ok(());
    }
    println!("ranking (best first):");
    for (place, &idx) in order.iter().enumerate() {
        println!(
            "  #{}: creative {} — {:?}",
            place + 1,
            idx + 1,
            creatives[idx].to_string()
        );
    }
    Ok(())
}

fn cmd_optimize(flags: &Flags) -> Result<(), MbError> {
    let bundle = load_bundle(flags)?;
    let base = Snippet::from_wire(flags.require("base")?);

    let mut edits = Vec::new();
    for rw in flags.get_all("rewrite") {
        let (from, to) = rw
            .split_once('=')
            .ok_or_else(|| MbError::usage(format!("--rewrite wants 'from=to', got {rw:?}")))?;
        edits.push(Edit::ReplacePhrase {
            from: from.trim().into(),
            to: to.trim().into(),
        });
    }
    for sw in flags.get_all("swap-lines") {
        let (a, b) = sw
            .split_once(',')
            .ok_or_else(|| MbError::usage(format!("--swap-lines wants 'A,B', got {sw:?}")))?;
        let a: usize = a
            .trim()
            .parse()
            .map_err(|_| MbError::usage(format!("bad line index {a:?}")))?;
        let b: usize = b
            .trim()
            .parse()
            .map_err(|_| MbError::usage(format!("bad line index {b:?}")))?;
        edits.push(Edit::SwapLines { a, b });
    }
    for phrase in flags.get_all("move-front") {
        edits.push(Edit::MoveToFront {
            phrase: phrase.trim().into(),
        });
    }
    if edits.is_empty() {
        return Err(MbError::usage(
            "optimize needs at least one --rewrite / --swap-lines / --move-front",
        ));
    }

    let scorer = bundle.scorer();
    let mut scratch = scorer.scratch();
    let outcome = optimize_creative(
        &scorer,
        &mut scratch,
        &base,
        &edits,
        &OptimizeConfig::default(),
    );
    println!("base creative:\n{base}\n");
    println!("optimized creative:\n{}\n", outcome.best);
    println!(
        "accepted {} edit(s), total log-odds margin {:+.3}:",
        outcome.accepted.len(),
        outcome.total_margin
    );
    for e in &outcome.accepted {
        match e {
            Edit::ReplacePhrase { from, to } => println!("  rewrite '{from}' → '{to}'"),
            Edit::SwapLines { a, b } => println!("  swap lines {a} and {b}"),
            Edit::MoveToFront { phrase } => println!("  move '{phrase}' to the front"),
        }
    }
    Ok(())
}

/// One validation line: stable `key=value` pairs, one artifact or check per
/// line, so a deploy pipeline can grep `verdict=` and parse the rest.
fn verdict_line(fields: &[(&str, String)]) {
    let rendered: Vec<String> = fields
        .iter()
        .map(|(k, v)| {
            if v.chars().any(|c| c.is_whitespace()) {
                format!("{k}={v:?}")
            } else {
                format!("{k}={v}")
            }
        })
        .collect();
    println!("{}", rendered.join(" "));
}

/// Which structural check a model load error corresponds to.
fn model_failed_check(e: &ModelIoError) -> &'static str {
    match e {
        ModelIoError::Io(_) => "io",
        ModelIoError::BadMagic => "magic",
        ModelIoError::UnsupportedVersion(_) => "version",
        ModelIoError::ChecksumMismatch => "crc",
        ModelIoError::Decode(_) => "decode",
        ModelIoError::BadTag(_) => "tag",
    }
}

fn snapshot_failed_check(e: &SnapshotError) -> &'static str {
    match e {
        SnapshotError::Io(_) => "io",
        SnapshotError::BadMagic => "magic",
        SnapshotError::UnsupportedVersion(_) => "version",
        SnapshotError::ChecksumMismatch { .. } => "crc",
        SnapshotError::Decode(_) => "decode",
        SnapshotError::Truncated => "truncated",
        SnapshotError::KeyOrder { .. } => "order",
        SnapshotError::TrailingBytes { .. } => "trailing",
    }
}

/// Deep-check a model (+ optional stats) bundle and print a
/// machine-readable verdict: the health check a deploy pipeline calls
/// before flipping traffic. Exit code 0 iff every check passes.
fn cmd_validate(flags: &Flags) -> Result<(), MbError> {
    let common = CommonFlags::parse(flags)?;
    let model_path = common.require_model()?.to_path_buf();
    let stats_path = common.stats.clone();
    let mut ok = true;

    // Model: magic, version, CRC, full decode — via the typed loader.
    let model_result = if model_path.is_dir() {
        let slot = ArtifactSlot::new(&model_path, MODEL_SLOT_NAME);
        match DeployedModel::load_from_slot(&slot) {
            Ok(load) => Ok((load.value, Some(load.generation), load.rolled_back)),
            Err(e) => Err((String::from("slot"), e.to_string())),
        }
    } else {
        match DeployedModel::load(&model_path) {
            Ok(m) => Ok((m, None, false)),
            Err(e) => Err((model_failed_check(&e).to_string(), e.to_string())),
        }
    };
    let model = match model_result {
        Ok((model, generation, rolled_back)) => {
            let (n_weights, kind) = match &model.classifier {
                TrainedClassifier::Flat(lr) => (lr.weights().len(), "flat"),
                TrainedClassifier::Coupled(cm) => (cm.term_weights().len(), "coupled"),
            };
            verdict_line(&[
                ("artifact", "model".into()),
                ("path", model_path.display().to_string()),
                ("status", "ok".into()),
                (
                    "generation",
                    generation.map_or("-".into(), |g| g.to_string()),
                ),
                ("rolled_back", rolled_back.to_string()),
                ("spec", model.spec.label()),
                ("classifier", kind.into()),
                ("features", model.vocab.len().to_string()),
                ("weights", n_weights.to_string()),
            ]);
            // Vocabulary and weight vector must agree, or scoring silently
            // reads zeros / drops trained weights.
            let agreement = match &model.classifier {
                TrainedClassifier::Flat(lr) => lr.weights().len() == model.vocab.len(),
                TrainedClassifier::Coupled(cm) => {
                    cm.term_weights().len() == model.vocab.len()
                        && cm.pos_weights().len() == PositionVocab::num_groups() as usize
                }
            };
            verdict_line(&[
                ("check", "vocab_weights_agreement".into()),
                ("status", if agreement { "ok" } else { "fail" }.into()),
            ]);
            ok &= agreement;
            Some(model)
        }
        Err((check, detail)) => {
            verdict_line(&[
                ("artifact", "model".into()),
                ("path", model_path.display().to_string()),
                ("status", "fail".into()),
                ("check", check),
                ("error", detail),
            ]);
            ok = false;
            None
        }
    };

    // Stats: magic, version, CRC, record decode and key order, counted
    // through the one snapshot reader without building the map — and a
    // cross-check that the model's rewrite vocabulary can actually be
    // served from it.
    if let Some(stats_path) = &stats_path {
        let count = |bytes: &[u8]| microbrowse_store::file::records(bytes).map(|r| r.len());
        let stats_result = if stats_path.is_dir() {
            ArtifactSlot::new(stats_path, STATS_SLOT_NAME)
                .load_with(count)
                .map(|l| (l.value, Some(l.generation)))
                .map_err(|e| (String::from("slot"), e.to_string()))
        } else {
            std::fs::read(stats_path)
                .map_err(SnapshotError::Io)
                .and_then(|bytes| count(&bytes))
                .map(|records| (records, None))
                .map_err(|e| (snapshot_failed_check(&e).to_string(), e.to_string()))
        };
        match stats_result {
            Ok((records, generation)) => {
                verdict_line(&[
                    ("artifact", "stats".into()),
                    ("path", stats_path.display().to_string()),
                    ("status", "ok".into()),
                    (
                        "generation",
                        generation.map_or("-".into(), |g| g.to_string()),
                    ),
                    ("records", records.to_string()),
                ]);
                if let Some(model) = &model {
                    if model.spec.rewrites && records == 0 && !model.vocab.is_empty() {
                        verdict_line(&[
                            ("check", "stats_support_rewrites".into()),
                            ("status", "fail".into()),
                            (
                                "error",
                                "model uses rewrite features but stats snapshot is empty".into(),
                            ),
                        ]);
                        ok = false;
                    }
                }
            }
            Err((check, detail)) => {
                verdict_line(&[
                    ("artifact", "stats".into()),
                    ("path", stats_path.display().to_string()),
                    ("status", "fail".into()),
                    ("check", check),
                    ("error", detail),
                ]);
                ok = false;
            }
        }
    }

    verdict_line(&[("verdict", if ok { "ok" } else { "fail" }.into())]);
    if ok {
        Ok(())
    } else {
        Err(MbError::validation(format!(
            "artifact bundle at {} failed deep checks (see verdict lines)",
            model_path.display()
        )))
    }
}

/// Run the HTTP scoring server until stdin reaches EOF — the deterministic,
/// signal-free shutdown channel: a supervisor (or the smoke gate) closes
/// the pipe to trigger a graceful drain, and `serve < /dev/null` exits
/// immediately after startup.
fn cmd_serve(flags: &Flags) -> Result<(), MbError> {
    use microbrowse_server::{start, BundleSource, OnlineConfig, ReloadSource, ServerConfig};
    use std::io::{Read as _, Write as _};

    let common = CommonFlags::parse(flags)?;
    let source = ReloadSource {
        model_path: common.require_model()?.to_path_buf(),
        stats_path: common.stats.clone(),
        policy: common.policy,
    };
    let request_deadline_ms: u64 = flags.parse_or("request-deadline-ms", 0)?;
    let flight_slow_ms: u64 = flags.parse_or("flight-recorder-slow-ms", 500)?;
    let online = match flags.get("feedback-journal") {
        Some(dir) => {
            let refit_secs: f64 = flags.parse_or("refit-interval", 30.0)?;
            if !(refit_secs > 0.0 && refit_secs.is_finite()) {
                return Err(MbError::usage(
                    "--refit-interval must be a positive number of seconds",
                ));
            }
            let mut ocfg = OnlineConfig::new(PathBuf::from(dir));
            ocfg.refit_interval = std::time::Duration::from_secs_f64(refit_secs);
            ocfg.min_refit_batches = flags.parse_or("min-refit-batches", 1)?;
            Some(ocfg)
        }
        None => {
            for dependent in ["refit-interval", "min-refit-batches"] {
                if flags.get(dependent).is_some() {
                    return Err(MbError::usage(format!(
                        "--{dependent} requires --feedback-journal DIR"
                    )));
                }
            }
            None
        }
    };
    let cfg = ServerConfig {
        addr: flags.get("addr").unwrap_or("127.0.0.1:8660").to_string(),
        workers: flags.parse_or("workers", 4)?,
        queue_depth: flags.parse_or("queue-depth", 128)?,
        max_batch: flags.parse_or("max-batch", 256)?,
        max_beam: flags.parse_or("max-beam", 32)?,
        max_suggestions: flags.parse_or("max-suggestions", 32)?,
        // 0 = unlimited connections / no server-side default deadline.
        max_conns: flags.parse_or("max-conns", 1024)?,
        request_deadline: (request_deadline_ms > 0)
            .then(|| std::time::Duration::from_millis(request_deadline_ms)),
        flight_slow: std::time::Duration::from_millis(flight_slow_ms),
        access_log_stderr: flags.get("access-log") == Some("true"),
        online,
        ..ServerConfig::default()
    };
    if cfg.workers == 0 || cfg.queue_depth == 0 || cfg.max_batch == 0 {
        return Err(MbError::usage(
            "--workers, --queue-depth, and --max-batch must be >= 1",
        ));
    }
    if cfg.max_beam == 0 || cfg.max_suggestions == 0 {
        return Err(MbError::usage(
            "--max-beam and --max-suggestions must be >= 1",
        ));
    }
    let handle = start(cfg, BundleSource::Artifacts(source))?;
    // stdout through a pipe is block-buffered: flush explicitly so a
    // supervising process sees the bound address immediately.
    println!("listening on {}", handle.addr());
    std::io::stdout()
        .flush()
        .map_err(|e| MbError::io("flush stdout", e))?;
    if handle.degraded() {
        eprintln!("warning: serving degraded (term features only); see /healthz");
    }
    // Park until stdin closes, discarding anything written to it.
    let mut stdin = std::io::stdin().lock();
    let mut buf = [0u8; 256];
    loop {
        match stdin.read(&mut buf) {
            Ok(0) => break,
            Ok(_) => continue,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
            Err(_) => break,
        }
    }
    let report = handle.shutdown();
    println!(
        "drained {} request(s), aborted {}",
        report.drained, report.aborted
    );
    Ok(())
}

/// Fold a feedback journal into the slot artifacts without a running
/// server — the disaster-recovery path: if a serving host dies, its
/// journal directory plus the last published artifacts are enough to
/// reconstruct every click the server ever acknowledged.
fn cmd_replay(flags: &Flags) -> Result<(), MbError> {
    use microbrowse_online::{Journal, OnlineError, OnlineLearner};

    let common = CommonFlags::parse(flags)?;
    let model_path = common.require_model()?.to_path_buf();
    let stats_path = common.require_stats()?.to_path_buf();
    if !model_path.is_dir() || !stats_path.is_dir() {
        return Err(MbError::usage(
            "replay commits new generations, so --slot-dir (or --model/--stats) must name slot directories",
        ));
    }
    let journal_dir = PathBuf::from(flags.require("journal")?);

    let bundle = ScorerBuilder::new(&model_path)
        .stats_path(&stats_path)
        .policy(common.policy)
        .load()?;
    let (mut journal, recovery) = Journal::open(&journal_dir).map_err(|e| {
        MbError::invariant(format!(
            "cannot open feedback journal {}: {e}",
            journal_dir.display()
        ))
    })?;

    let learner =
        OnlineLearner::recover(bundle.stats()?, bundle.model().spec, &recovery).map_err(|e| {
            MbError::invariant(format!("journal checkpoint state did not restore: {e}"))
        })?;
    let replayed = recovery.batches.len();
    eprintln!(
        "journal {}: {replayed} unfolded batch(es); learner at {} batch(es) / {} event(s) total",
        journal_dir.display(),
        learner.batches_folded(),
        learner.events_folded()
    );
    if replayed == 0 {
        // Either a pristine journal, or everything was already folded and
        // checkpointed — the published artifacts reflect every batch, so
        // committing another (identical) generation would only churn slots.
        println!("no unfolded batches: nothing to fold, artifacts untouched");
        return Ok(());
    }

    let out = match learner.refit() {
        Ok(out) => out,
        Err(OnlineError::NoPairs) => {
            return Err(MbError::validation(
                "journal replay produced no statistically significant creative pairs; \
                 artifacts untouched (not enough feedback to refit)",
            ))
        }
        Err(e) => return Err(MbError::invariant(format!("online refit failed: {e}"))),
    };
    let stats_gen = save_stats(&out.stats, &stats_path)?;
    let model_gen = save_model(&out.model, &model_path)?;
    journal
        .commit_checkpoint(&learner.state_bytes())
        .map_err(|e| MbError::invariant(format!("journal checkpoint failed: {e}")))?;
    let gen_note = |g: Option<u64>| g.map_or(String::new(), |g| format!(" [generation {g}]"));
    println!(
        "replayed {replayed} batch(es), refit on {} pairs: wrote {}{} and {}{}; journal checkpointed",
        out.pairs,
        model_path.display(),
        gen_note(model_gen),
        stats_path.display(),
        gen_note(stats_gen),
    );
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn flags(args: &[&str]) -> Flags {
        let owned: Vec<String> = args.iter().map(|s| s.to_string()).collect();
        Flags::parse(&owned).expect("flags parse")
    }

    #[test]
    fn unknown_flag_is_usage_error() {
        let f = flags(&["--model", "m.mbm", "--bogus", "1"]);
        let err = f
            .reject_unknown(allowed_flags("score").expect("score is a command"))
            .unwrap_err();
        assert_eq!(err.exit_code(), 2);
        assert!(err.to_string().contains("--bogus"), "{err}");
    }

    #[test]
    fn common_flags_accepted_by_every_command() {
        let f = flags(&["--trace-json", "t.jsonl", "--policy", "degrade"]);
        for cmd in [
            "train",
            "eval",
            "experiment",
            "score",
            "rank",
            "optimize",
            "validate",
            "metrics",
            "serve",
            "replay",
        ] {
            let extra = allowed_flags(cmd).expect("known command");
            f.reject_unknown(extra)
                .unwrap_or_else(|e| panic!("{cmd} rejected a common flag: {e}"));
        }
    }

    #[test]
    fn bare_json_flag_means_true() {
        // `--json` with no value.
        let f = flags(&["--json", "--r", "a"]);
        assert_eq!(f.get("json"), Some("true"));
        assert_eq!(f.get("r"), Some("a"));
        // Trailing position too.
        let f = flags(&["--r", "a", "--json"]);
        assert_eq!(f.get("json"), Some("true"));
        // Explicit true/false still accepted for compatibility.
        let f = flags(&["--json", "false"]);
        assert_eq!(f.get("json"), Some("false"));
        let f = flags(&["--json", "true"]);
        assert_eq!(f.get("json"), Some("true"));
    }

    #[test]
    fn json_with_garbage_value_is_usage_error() {
        let args: Vec<String> = ["--json", "maybe"].iter().map(|s| s.to_string()).collect();
        let err = Flags::parse(&args).unwrap_err();
        assert_eq!(err.exit_code(), 2);
        assert!(err.to_string().contains("maybe"), "{err}");
    }

    #[test]
    fn missing_value_is_usage_error() {
        let args = vec!["--model".to_string()];
        let err = Flags::parse(&args).unwrap_err();
        assert_eq!(err.exit_code(), 2);
        assert!(err.to_string().contains("--model"), "{err}");
    }

    #[test]
    fn slot_dir_fills_model_and_stats() {
        let f = flags(&["--slot-dir", "/tmp/slot"]);
        let common = CommonFlags::parse(&f).expect("common flags");
        assert_eq!(
            common.require_model().expect("model"),
            Path::new("/tmp/slot")
        );
        assert_eq!(
            common.require_stats().expect("stats"),
            Path::new("/tmp/slot")
        );
    }

    #[test]
    fn explicit_paths_win_over_slot_dir() {
        let f = flags(&["--slot-dir", "/tmp/slot", "--model", "/tmp/m.mbm"]);
        let common = CommonFlags::parse(&f).expect("common flags");
        assert_eq!(
            common.require_model().expect("model"),
            Path::new("/tmp/m.mbm")
        );
        assert_eq!(
            common.require_stats().expect("stats"),
            Path::new("/tmp/slot")
        );
    }

    #[test]
    fn missing_model_is_usage_error() {
        let f = flags(&[]);
        let common = CommonFlags::parse(&f).expect("common flags");
        let err = common.require_model().unwrap_err();
        assert_eq!(err.exit_code(), 2);
        assert!(err.to_string().contains("--model"), "{err}");
    }
}
