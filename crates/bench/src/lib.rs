//! Shared experiment harness for the `microbrowse` reproduction binaries.
//!
//! Every binary in `src/bin/` regenerates one table or figure of the paper
//! (see EXPERIMENTS.md at the workspace root) or runs one gate. This
//! library holds the configuration presets and the tiny CLI-argument
//! helper they share, so that the experiments agree on corpus scale and
//! training settings unless a flag says otherwise; the one load driver
//! and the fixtures of the serving harnesses ([`load`], [`fixture`]); and
//! the writer of the `results/BENCH_*.json` artifacts ([`write_artifact`]).

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod fixture;
pub mod load;

use std::process::Command;

use microbrowse_core::pipeline::ExperimentConfig;
use microbrowse_core::Placement;
use microbrowse_obs::json::{assert_parses, write_str};
use microbrowse_synth::GeneratorConfig;

/// Default adgroup count for experiment binaries (overridable with
/// `--adgroups N`). Sized so a release-mode run finishes in minutes while
/// leaving every estimator comfortably out of the small-sample regime.
pub const DEFAULT_ADGROUPS: usize = 2_000;

/// The corpus preset used by Table 2 / Figure 3 (Top placement).
pub fn corpus_config(num_adgroups: usize, placement: Placement, seed: u64) -> GeneratorConfig {
    GeneratorConfig {
        num_adgroups,
        creatives_per_adgroup: (2, 5),
        impressions: (20_000, 60_000),
        placement,
        rewrites_per_variant: (1, 2),
        base_logit: -3.0,
        ctr_noise: 0.20,
        template_switch_prob: 0.60,
        seed,
    }
}

/// The experiment preset shared by the paper-table binaries.
pub fn experiment_config(seed: u64) -> ExperimentConfig {
    ExperimentConfig {
        seed,
        ..ExperimentConfig::default()
    }
}

/// Minimal flag parser: `--name value` pairs, panicking with a usage hint
/// on malformed input (these are experiment drivers, not user-facing CLIs).
pub struct Args {
    pairs: Vec<(String, String)>,
}

impl Args {
    /// Parse from `std::env::args` (skipping the program name).
    pub fn parse() -> Self {
        let raw: Vec<String> = std::env::args().skip(1).collect();
        let mut pairs = Vec::new();
        let mut i = 0;
        while i < raw.len() {
            let name = raw[i]
                .strip_prefix("--")
                .unwrap_or_else(|| panic!("expected --flag, got {:?}", raw[i]))
                .to_string();
            let value = raw
                .get(i + 1)
                .unwrap_or_else(|| panic!("flag --{name} needs a value"))
                .clone();
            pairs.push((name, value));
            i += 2;
        }
        Self { pairs }
    }

    /// Get a parsed flag value or a default.
    pub fn get<T: std::str::FromStr>(&self, name: &str, default: T) -> T
    where
        T::Err: std::fmt::Debug,
    {
        self.pairs
            .iter()
            .rev()
            .find(|(n, _)| n == name)
            .map(|(_, v)| {
                v.parse()
                    .unwrap_or_else(|e| panic!("bad value for --{name}: {e:?}"))
            })
            .unwrap_or(default)
    }
}

/// Write a bench artifact: `json`, one object, with the run's `commit`,
/// `args` and `cpus` put first, checked to parse, to `path` (its directory
/// created). Returns the text written.
///
/// `commit` is the source tree's abbreviated `HEAD`, suffixed `-dirty`
/// when a source or manifest differs from it (`results/` is not a
/// source), or `unknown` outside a git checkout.
pub fn write_artifact(path: &str, json: &str) -> String {
    let fields = json
        .trim_start()
        .strip_prefix('{')
        .expect("an artifact is one JSON object");
    let mut out = String::from("{\n  \"commit\": ");
    write_str(&mut out, &source_commit());
    out.push_str(",\n  \"args\": [");
    for (i, arg) in std::env::args().skip(1).enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        write_str(&mut out, &arg);
    }
    let cpus = std::thread::available_parallelism().map_or(0, |n| n.get());
    out.push_str(&format!("],\n  \"cpus\": {cpus},"));
    out.push_str(fields);
    assert_parses(&out);
    if let Some(dir) = std::path::Path::new(path).parent() {
        std::fs::create_dir_all(dir).expect("create output dir");
    }
    std::fs::write(path, &out).expect("write bench artifact");
    out
}

/// A gate threshold as JSON: `null` when the gate is off (0).
pub fn gate_json(gate: f64) -> String {
    if gate > 0.0 {
        format!("{gate}")
    } else {
        "null".to_string()
    }
}

fn source_commit() -> String {
    let root = concat!(env!("CARGO_MANIFEST_DIR"), "/../..");
    let git = |args: &[&str]| {
        Command::new("git")
            .arg("-C")
            .arg(root)
            .args(args)
            .output()
            .ok()
            .filter(|o| o.status.success())
            .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
    };
    let Some(head) = git(&["rev-parse", "--short=7", "HEAD"]) else {
        return "unknown".to_string();
    };
    let changed = ["status", "--porcelain", "--"];
    let sources = ["crates", "Cargo.toml", "Cargo.lock"];
    match git(&[&changed[..], &sources[..]].concat()) {
        Some(status) if status.is_empty() => head,
        _ => format!("{head}-dirty"),
    }
}

/// Paper reference numbers, used by the binaries to print the comparison
/// column next to measured results.
pub mod paper {
    /// Table 2: (model, recall, precision, f-measure).
    pub const TABLE2: [(&str, f64, f64, f64); 6] = [
        ("M1", 0.559, 0.582, 0.570),
        ("M2", 0.644, 0.663, 0.653),
        ("M3", 0.590, 0.612, 0.601),
        ("M4", 0.700, 0.719, 0.709),
        ("M5", 0.597, 0.618, 0.607),
        ("M6", 0.704, 0.721, 0.712),
    ];

    /// Table 4: (model, top accuracy, rhs accuracy).
    pub const TABLE4: [(&str, f64, f64); 6] = [
        ("M1", 0.571, 0.570),
        ("M2", 0.657, 0.651),
        ("M3", 0.602, 0.599),
        ("M4", 0.711, 0.708),
        ("M5", 0.609, 0.606),
        ("M6", 0.714, 0.711),
    ];
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn presets_are_consistent() {
        let c = corpus_config(100, Placement::Top, 1);
        assert_eq!(c.num_adgroups, 100);
        let e = experiment_config(9);
        assert_eq!(e.seed, 9);
        assert_eq!(e.folds, 10);
    }

    #[test]
    fn artifacts_name_their_commit_args_and_cpus() {
        use microbrowse_obs::json::Json;
        let path = std::env::temp_dir().join(format!("mb-artifact-{}.json", std::process::id()));
        let path = path.to_str().expect("utf-8 temp path");
        let out = write_artifact(path, "{\n  \"gate\": null\n}\n");
        assert_eq!(std::fs::read_to_string(path).expect("written"), out);
        std::fs::remove_file(path).ok();
        let json = Json::parse(&out).expect("parses");
        assert!(!json
            .get("commit")
            .and_then(Json::as_str)
            .expect("commit")
            .is_empty());
        assert!(json.get("args").and_then(Json::as_array).is_some());
        assert!(json.get("cpus").and_then(Json::as_f64).expect("cpus") >= 1.0);
        assert!(matches!(json.get("gate"), Some(Json::Null)));
        assert_eq!(gate_json(0.0), "null");
        assert_eq!(gate_json(5.1), "5.1");
    }

    #[test]
    fn paper_tables_are_ordered_like_the_paper() {
        // The qualitative claims we reproduce: position info helps, rewrites
        // beat terms, M6 is best.
        let f = |name: &str| paper::TABLE2.iter().find(|r| r.0 == name).unwrap().3;
        assert!(f("M2") > f("M1"));
        assert!(f("M4") > f("M3"));
        assert!(f("M6") > f("M5"));
        assert!(f("M3") > f("M1"));
        assert!(f("M6") >= f("M4"));
        for (m, top, rhs) in paper::TABLE4 {
            assert!(top >= rhs, "{m}: top {top} rhs {rhs}");
        }
    }
}
