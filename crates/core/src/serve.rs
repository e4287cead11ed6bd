//! Model persistence and the serving API.
//!
//! Training happens offline over a corpus snapshot; serving happens later,
//! in another process, possibly on another machine. This module makes a
//! trained snippet classifier a *deployable artifact*:
//!
//! * [`DeployedModel`] bundles everything scoring needs — the model spec,
//!   the trained weights, and the feature vocabulary (as strings, because
//!   interner symbols are process-local). The companion statistics snapshot
//!   (`microbrowse_store::write_snapshot`) travels alongside it for greedy
//!   rewrite matching at serve time.
//! * [`DeployedModel::save`] / [`DeployedModel::load`] write and read one
//!   versioned, CRC-checked [`frame`](microbrowse_store::codec::frame) in
//!   the same codec as the statistics snapshots.
//! * [`ServingBundle`] holds a deployed model, its statistics database and
//!   the [`ScoringEngine`] compiled from them; [`ServingBundle::scorer`]
//!   builds the one-call [`Scorer`] a serving system wants: *given two
//!   creatives for the same keyword, which is expected to earn the higher
//!   CTR?*
//!
//! ## Resilience
//!
//! Serving survives damaged artifacts instead of falling over:
//!
//! * Writes are crash-safe ([`DeployedModel::save`] goes through
//!   `microbrowse_store::write_atomic`; [`DeployedModel::commit_to_slot`]
//!   adds generation numbering with automatic rollback on load).
//! * [`ScorerBuilder`] loads a model + stats bundle under an explicit
//!   [`LoadPolicy`]: `Strict` turns any damage into a typed
//!   [`MbError`]; `Degrade` keeps serving on a
//!   missing or corrupt stats snapshot by falling back to term-only
//!   features — the paper's own Table 2 ablation shows term-only models
//!   still beat the CTR baseline, so this fallback is principled, and it
//!   is *visible*: every score carries a [`Fidelity`].
//! * Transient IO is retried with bounded backoff
//!   ([`crate::error::RetryPolicy`]).

use std::io::Read;
use std::marker::PhantomData;
use std::path::{Path, PathBuf};
use std::sync::Arc;

use microbrowse_ml::coupled::CoupledModel;
use microbrowse_ml::{CoupledFeature, LogReg, SparseVec};
use microbrowse_obs as obs;
use microbrowse_store::codec::{self, DecodeError, FrameError};
use microbrowse_store::{write_atomic, ArtifactSlot, SlotError, SlotLoad, SnapshotError, StatsDb};
use microbrowse_text::{
    FxHashMap, Interner, NGramExtractor, Snippet, TermOccurrence, TokenizedSnippet, Tokenizer,
};

use crate::classifier::{ModelSpec, TrainedClassifier};
use crate::compiled::{CompiledEvidence, CompiledFeatureTable, ScoringEngine};
use crate::error::{read_file_with_retry, MbError, RetryPolicy};
use crate::features::{aggregate, walk_features, OwnedTermFeat, PairFeature};
use crate::paircache::{AlignCache, PairKey, PairSide};
use crate::rewrite::{prepare_pair, MatchStrategy, RewriteExtraction, RewriteExtractor};

const MAGIC: &[u8; 8] = b"MBMODEL\0";
const VERSION: u32 = 1;

/// Errors from model (de)serialization.
#[derive(Debug)]
pub enum ModelIoError {
    /// Filesystem error.
    Io(std::io::Error),
    /// Not a model file.
    BadMagic,
    /// Format version from a newer build.
    UnsupportedVersion(u32),
    /// Payload corrupt (checksum mismatch).
    ChecksumMismatch,
    /// Malformed payload.
    Decode(DecodeError),
    /// A structural tag byte was invalid.
    BadTag(u8),
}

impl std::fmt::Display for ModelIoError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ModelIoError::Io(e) => write!(f, "model io error: {e}"),
            ModelIoError::BadMagic => write!(f, "not a microbrowse model file"),
            ModelIoError::UnsupportedVersion(v) => write!(f, "unsupported model version {v}"),
            ModelIoError::ChecksumMismatch => write!(f, "model file corrupt (crc mismatch)"),
            ModelIoError::Decode(e) => write!(f, "model decode failed: {e}"),
            ModelIoError::BadTag(t) => write!(f, "invalid structural tag {t}"),
        }
    }
}

impl std::error::Error for ModelIoError {}

impl From<std::io::Error> for ModelIoError {
    fn from(e: std::io::Error) -> Self {
        ModelIoError::Io(e)
    }
}

impl From<DecodeError> for ModelIoError {
    fn from(e: DecodeError) -> Self {
        ModelIoError::Decode(e)
    }
}

impl From<FrameError> for ModelIoError {
    fn from(e: FrameError) -> Self {
        match e {
            FrameError::Truncated => ModelIoError::Decode(DecodeError::UnexpectedEof),
            FrameError::BadMagic => ModelIoError::BadMagic,
            FrameError::UnsupportedVersion(v) => ModelIoError::UnsupportedVersion(v),
            FrameError::ChecksumMismatch { .. } => ModelIoError::ChecksumMismatch,
        }
    }
}

/// A self-contained trained snippet classifier, ready to save or serve.
#[derive(Debug, Clone, PartialEq)]
pub struct DeployedModel {
    /// The variant that was trained (M1–M6 or custom).
    pub spec: ModelSpec,
    /// The trained parameters.
    pub classifier: TrainedClassifier,
    /// Feature vocabulary in id order (strings; re-interned on load).
    pub vocab: Vec<OwnedTermFeat>,
}

fn put_f64s(buf: &mut Vec<u8>, xs: &[f64]) {
    codec::put_varint(buf, xs.len() as u64);
    for &x in xs {
        codec::put_f64(buf, x);
    }
}

fn get_f64s(buf: &mut &[u8]) -> Result<Vec<f64>, DecodeError> {
    let n = codec::get_varint(buf)? as usize;
    let mut out = Vec::with_capacity(n.min(1 << 22));
    for _ in 0..n {
        out.push(codec::get_f64(buf)?);
    }
    Ok(out)
}

impl DeployedModel {
    /// Serialize to bytes (header + payload + CRC trailer).
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut payload = Vec::new();
        // Spec.
        codec::put_str(&mut payload, self.spec.name);
        let flags = (self.spec.terms as u8)
            | (self.spec.rewrites as u8) << 1
            | (self.spec.positions as u8) << 2
            | (self.spec.init_from_stats as u8) << 3;
        payload.push(flags);
        // Classifier.
        match &self.classifier {
            TrainedClassifier::Flat(lr) => {
                payload.push(0);
                put_f64s(&mut payload, lr.weights());
                codec::put_f64(&mut payload, lr.bias());
            }
            TrainedClassifier::Coupled(cm) => {
                payload.push(1);
                put_f64s(&mut payload, cm.pos_weights());
                put_f64s(&mut payload, cm.term_weights());
                codec::put_f64(&mut payload, cm.bias());
            }
        }
        // Vocabulary.
        codec::put_varint(&mut payload, self.vocab.len() as u64);
        for feat in &self.vocab {
            match feat {
                OwnedTermFeat::Term(t) => {
                    payload.push(0);
                    codec::put_str(&mut payload, t);
                }
                OwnedTermFeat::Rewrite(a, b) => {
                    payload.push(1);
                    codec::put_str(&mut payload, a);
                    codec::put_str(&mut payload, b);
                }
            }
        }
        codec::frame(MAGIC, VERSION, &payload)
    }

    /// Deserialize from bytes written by [`DeployedModel::to_bytes`].
    ///
    /// The spec name is mapped back to its `'static` form; names other than
    /// M1–M6 load as `"custom"`.
    pub fn from_bytes(bytes: &[u8]) -> Result<Self, ModelIoError> {
        let mut buf = codec::unframe(MAGIC, VERSION, bytes)?;
        let name = codec::get_str(&mut buf)?;
        let flags = codec::get_u8(&mut buf)?;
        let spec = ModelSpec {
            name: static_name(&name),
            terms: flags & 1 != 0,
            rewrites: flags & 2 != 0,
            positions: flags & 4 != 0,
            init_from_stats: flags & 8 != 0,
        };

        let classifier = match codec::get_u8(&mut buf)? {
            0 => {
                let weights = get_f64s(&mut buf)?;
                let bias = codec::get_f64(&mut buf)?;
                TrainedClassifier::Flat(LogReg::from_parts(weights, bias))
            }
            1 => {
                let pos = get_f64s(&mut buf)?;
                let terms = get_f64s(&mut buf)?;
                let bias = codec::get_f64(&mut buf)?;
                TrainedClassifier::Coupled(CoupledModel::from_parts(pos, terms, bias))
            }
            t => return Err(ModelIoError::BadTag(t)),
        };

        let n_vocab = codec::get_varint(&mut buf)? as usize;
        let mut vocab = Vec::with_capacity(n_vocab.min(1 << 22));
        for _ in 0..n_vocab {
            vocab.push(match codec::get_u8(&mut buf)? {
                0 => OwnedTermFeat::Term(codec::get_str(&mut buf)?),
                1 => OwnedTermFeat::Rewrite(codec::get_str(&mut buf)?, codec::get_str(&mut buf)?),
                t => return Err(ModelIoError::BadTag(t)),
            });
        }

        Ok(Self {
            spec,
            classifier,
            vocab,
        })
    }

    /// Write to `path`, crash-safely (temp file + fsync + atomic rename):
    /// a kill at any byte leaves either the previous artifact or the
    /// complete new one on disk, never a torn prefix.
    pub fn save(&self, path: &Path) -> Result<(), ModelIoError> {
        write_atomic(path, &self.to_bytes())?;
        Ok(())
    }

    /// Read from `path`.
    pub fn load(path: &Path) -> Result<Self, ModelIoError> {
        let mut bytes = Vec::new();
        std::fs::File::open(path)?.read_to_end(&mut bytes)?;
        Self::from_bytes(&bytes)
    }

    /// Commit as the next generation of `slot` (see
    /// [`microbrowse_store::slot`]). Returns the new generation number.
    pub fn commit_to_slot(&self, slot: &ArtifactSlot) -> Result<u64, SlotError> {
        slot.commit(&self.to_bytes())
    }

    /// Load the newest valid generation from `slot`, rolling back past torn
    /// or corrupt generations (the CRC trailer is the validator).
    pub fn load_from_slot(slot: &ArtifactSlot) -> Result<SlotLoad<Self>, SlotError> {
        slot.load_with(Self::from_bytes)
    }
}

/// Artifact name used for models inside a slot directory.
pub const MODEL_SLOT_NAME: &str = "model.mbm";
/// Artifact name used for stats snapshots inside a slot directory.
pub const STATS_SLOT_NAME: &str = "stats.mbs";

fn static_name(name: &str) -> &'static str {
    match name {
        "M1" => "M1",
        "M2" => "M2",
        "M3" => "M3",
        "M4" => "M4",
        "M5" => "M5",
        "M6" => "M6",
        _ => "custom",
    }
}

/// Why a scorer is serving below full fidelity.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DegradeReason {
    /// No stats snapshot was found (file absent, or slot empty).
    StatsMissing,
    /// A stats snapshot existed but failed validation (torn write, CRC
    /// mismatch, undecodable records); the rendering says which.
    StatsCorrupt(String),
    /// Reading the stats snapshot failed at the IO layer (after retries).
    StatsIo(String),
}

impl std::fmt::Display for DegradeReason {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DegradeReason::StatsMissing => write!(f, "stats snapshot missing"),
            DegradeReason::StatsCorrupt(e) => write!(f, "stats snapshot corrupt: {e}"),
            DegradeReason::StatsIo(e) => write!(f, "stats snapshot unreadable: {e}"),
        }
    }
}

/// How faithfully a scorer reproduces the trained model.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Fidelity {
    /// Full model: every trained feature family active.
    Full,
    /// Term-features-only fallback: rewrite features disabled because the
    /// statistics snapshot they need is unavailable.
    Degraded(DegradeReason),
}

impl Fidelity {
    /// Whether this is the degraded (term-only) mode.
    pub fn is_degraded(&self) -> bool {
        matches!(self, Fidelity::Degraded(_))
    }
}

impl std::fmt::Display for Fidelity {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Fidelity::Full => write!(f, "full"),
            Fidelity::Degraded(r) => write!(f, "degraded ({r})"),
        }
    }
}

/// A score plus the fidelity it was computed at — the serve-path return
/// type that makes degradation explicit instead of silent.
#[derive(Debug, Clone, PartialEq)]
pub struct ScoreOutcome {
    /// Log-odds margin, Eq. 5 orientation (positive ⇒ `r` out-clicks `s`).
    pub score: f64,
    /// Fidelity the score was computed at.
    pub fidelity: Fidelity,
}

/// Reusable per-thread working state for a [`Scorer`]: an interner layered
/// over the bundle vocabulary, the snippet arena and reused buffers.
/// Splitting this out of the scorer keeps scoring `&self`, so one shared
/// `&Scorer` serves any number of threads, each with its own `Scratch`.
///
/// Build one with [`Scorer::scratch`] (a few empty buffers) and reuse it
/// across calls — reuse lets the arena skip repeat tokenization.
/// Nothing a scratch holds outlives its arena: strings outside the
/// vocabulary are forgotten whenever the arena is dropped, so memory stays
/// bounded however long the scratch lives, and no score depends on what
/// the scratch scored before.
pub struct Scratch<'a> {
    /// Vocabulary phrases intern to their bundle ids; any other string
    /// gets a local id above them, valid until the arena is next dropped.
    interner: Interner,
    /// Reusable rewrite-extraction buffer.
    ext_buf: RewriteExtraction,
    /// Reusable n-gram occurrence buffer for arena fills.
    occ_buf: Vec<TermOccurrence>,
    /// The scored pair's priced features: (position group, weight index,
    /// value) triples.
    feats: Vec<CoupledFeature>,
    /// Reusable buffers for the flat encoding of `feats`.
    pair_buf: Vec<(u32, f64)>,
    sparse_buf: SparseVec,
    /// Reusable normalization buffer for arena tokenization.
    norm: String,
    /// The key of the pair being scored, rewritten in place for each pair.
    key: PairKey,
    /// Persistent snippet arena: each distinct snippet's tokens and priced
    /// term features, kept across calls; `arena_len` is the number of live
    /// entries.
    arena: Vec<ArenaEntry>,
    arena_len: usize,
    /// Side hash → arena index. Hash-keyed to stay allocation-free on
    /// lookups; hits verify the side key against the entry's own copy, so
    /// a 64-bit collision degrades to reprocessing, never to a wrong
    /// score.
    arena_index: FxHashMap<u64, usize>,
    /// A scratch serves the bundle its scorer borrows.
    bundle: PhantomData<&'a ServingBundle>,
}

impl Scratch<'_> {
    /// The interner every phrase id of this scratch's last walk resolves
    /// through, for the attribution path (`crate::explain`).
    pub(crate) fn interner(&self) -> &Interner {
        &self.interner
    }
}

/// Arena entries above this count drop the whole arena (capacity kept) —
/// the serving working set of distinct snippets is far smaller, this just
/// bounds memory against adversarial streams.
const SNIPPET_ARENA_CAP: usize = 8192;

/// An arena slot: one distinct snippet's preprocessing, kept across calls
/// (buffers keep their capacity on eviction reuse), so a warmed-up scratch
/// scores repeat traffic without tokenizing at all.
struct ArenaEntry {
    /// The side key ([`PairKey`]) of the snippet this entry was filled
    /// from — hash-index hits are verified against it by slice equality.
    key: Vec<u8>,
    tok: TokenizedSnippet,
    /// The snippet's term features the model prices, valued as R-side
    /// occurrences (`+1`).
    terms: Vec<CoupledFeature>,
    terms_ready: bool,
}

/// The spec a model encodes with at `fidelity`. Degraded scorers encode
/// term features only: rewrite extraction needs the statistics database,
/// so the rewrite family is switched off (term features stay on even for
/// rewrite-only specs — their leftover-term vocabulary still fires).
/// Weight indices come from the model vocabulary either way; features
/// outside it score zero.
pub(crate) fn effective_spec(spec: ModelSpec, fidelity: &Fidelity) -> ModelSpec {
    match fidelity {
        Fidelity::Full => spec,
        Fidelity::Degraded(_) => ModelSpec {
            terms: true,
            rewrites: false,
            ..spec
        },
    }
}

/// The scoring walk's sink: keep a feature the model prices as its
/// (position group, weight index, value) triple. A feature outside the
/// vocabulary would price at exactly zero — the flat dot product skips
/// its id, the coupled model multiplies it by a zero term weight — so it
/// is dropped here.
fn price(table: &CompiledFeatureTable, out: &mut Vec<CoupledFeature>, f: PairFeature) {
    if let Some(term) = table.weight_index(f.feat) {
        out.push(CoupledFeature {
            pos: f.pos_group,
            term,
            value: f.value,
        });
    }
}

/// A ready-to-serve scorer over a [`ServingBundle`]: deployed model,
/// statistics database and the compiled engine built from them.
///
/// The scorer itself is immutable — every scoring call takes a
/// [`Scratch`] holding the mutable per-thread state — so one scorer can
/// be shared across serving threads (one scratch per thread). Build one
/// with [`ServingBundle::scorer`].
pub struct Scorer<'a> {
    model: &'a DeployedModel,
    /// Effective spec: degraded fidelity switches the rewrite family off.
    spec: ModelSpec,
    tokenizer: Tokenizer,
    ngram: NGramExtractor,
    rewriter: RewriteExtractor,
    fidelity: Fidelity,
    /// Compiled feature table + score cache.
    engine: &'a ScoringEngine,
}

impl<'a> Scorer<'a> {
    /// Build a fresh scratch for this scorer: one per scoring thread, at
    /// the cost of a few empty buffers.
    pub fn scratch(&self) -> Scratch<'a> {
        Scratch {
            interner: Interner::with_base(Arc::clone(self.engine.table().phrases())),
            ext_buf: RewriteExtraction::default(),
            occ_buf: Vec::new(),
            feats: Vec::new(),
            pair_buf: Vec::new(),
            sparse_buf: SparseVec::new(),
            norm: String::new(),
            key: PairKey::default(),
            arena: Vec::new(),
            arena_len: 0,
            arena_index: FxHashMap::default(),
            bundle: PhantomData,
        }
    }

    /// The deployed model's spec.
    pub fn spec(&self) -> &ModelSpec {
        &self.model.spec
    }

    /// The fidelity this scorer serves at.
    pub fn fidelity(&self) -> &Fidelity {
        &self.fidelity
    }

    /// The *effective* spec this scorer encodes with — degraded fidelity
    /// switches the rewrite family off, so this can differ from
    /// [`Self::spec`] (the deployed model's original spec).
    pub fn effective_spec(&self) -> &ModelSpec {
        &self.spec
    }

    /// The trained classifier, exposed for the attribution path
    /// (`crate::explain`), which walks its weights feature by feature.
    pub fn classifier(&self) -> &'a TrainedClassifier {
        &self.model.classifier
    }

    /// The tokenizer every scoring path tokenizes with.
    pub fn tokenizer(&self) -> &Tokenizer {
        &self.tokenizer
    }

    /// The compiled engine this scorer runs on. The suggestion path
    /// (`crate::suggest`) enumerates rewrite candidates from its table.
    pub fn engine(&self) -> &'a ScoringEngine {
        self.engine
    }

    /// Score a creative pair: positive means `r` is expected to out-click
    /// `s` (the Eq. 5 orientation), and the magnitude is the model's
    /// log-odds margin.
    ///
    /// The sides are [`PairSide`]s: [`Snippet`]s, or creatives in wire
    /// form (`str`), which score exactly like their
    /// [`Snippet::from_wire`]. The pair's key probes the bundle-shared
    /// score cache; only a miss resolves the sides through the scratch's
    /// persistent snippet arena.
    pub fn score_pair<S: PairSide + ?Sized>(&self, r: &S, s: &S, scratch: &mut Scratch<'a>) -> f64 {
        let start = obs::now_if_enabled();
        let score = self.score_engine(r, s, scratch);
        self.count_scores(1);
        obs::histogram!("microbrowse_score_latency_us").observe_since(start);
        score
    }

    /// [`Self::score_pair`] with the fidelity attached: the API a serving
    /// system should prefer, because it cannot mistake a degraded score
    /// for a full-fidelity one.
    pub fn score_pair_outcome<S: PairSide + ?Sized>(
        &self,
        r: &S,
        s: &S,
        scratch: &mut Scratch<'a>,
    ) -> ScoreOutcome {
        ScoreOutcome {
            score: self.score_pair(r, s, scratch),
            fidelity: self.fidelity.clone(),
        }
    }

    /// Predict whether `r` will out-click `s`.
    pub fn predict_pair(&self, r: &Snippet, s: &Snippet, scratch: &mut Scratch<'a>) -> bool {
        self.score_pair(r, s, scratch) > 0.0
    }

    /// Rank creatives best-first by round-robin pairwise scoring (Borda
    /// count over the model's pairwise margins).
    pub fn rank(&self, creatives: &[Snippet], scratch: &mut Scratch<'a>) -> Vec<usize> {
        let mut margin = vec![0.0f64; creatives.len()];
        for i in 0..creatives.len() {
            for j in (i + 1)..creatives.len() {
                let s = self.score_pair(&creatives[i], &creatives[j], scratch);
                margin[i] += s;
                margin[j] -= s;
            }
        }
        let mut order: Vec<usize> = (0..creatives.len()).collect();
        order.sort_by(|&a, &b| margin[b].total_cmp(&margin[a]));
        order
    }

    /// Score many pairs through one scratch, as a [`Self::score_pair`] loop
    /// would.
    /// Each distinct side is tokenized and n-gram-extracted once per
    /// scratch (the arena), however many pairs it appears in.
    pub fn score_batch<S: PairSide>(
        &self,
        pairs: &[(S, S)],
        scratch: &mut Scratch<'a>,
    ) -> Vec<f64> {
        self.score_batch_timed(pairs, scratch).0
    }

    /// [`Self::score_batch`] plus per-item wall-clock latency in
    /// microseconds (first-time tokenization/extraction of a side is
    /// attributed to the first pair that touches it). The clock is read
    /// once before the first pair and once after each pair; an item's
    /// latency is the difference between the whole microseconds elapsed
    /// at its two boundaries, so the items partition the batch and sum to
    /// its elapsed microseconds. The latencies reach the score-latency
    /// histogram in one record per batch.
    pub fn score_batch_timed<S: PairSide>(
        &self,
        pairs: &[(S, S)],
        scratch: &mut Scratch<'a>,
    ) -> (Vec<f64>, Vec<u64>) {
        let mut scores = Vec::with_capacity(pairs.len());
        let mut latencies = Vec::with_capacity(pairs.len());
        let start = std::time::Instant::now();
        let mut prev_us = 0;
        for (r, s) in pairs {
            scores.push(self.score_engine(r, s, scratch));
            let now_us = start.elapsed().as_micros() as u64;
            let us = now_us - prev_us;
            prev_us = now_us;
            latencies.push(us);
        }
        obs::histogram!("microbrowse_score_latency_us").observe_all_us(&latencies);
        self.count_scores(pairs.len() as u64);
        (scores, latencies)
    }

    /// Make room for both sides of a pair before resolving either:
    /// clearing the arena while filling `s` would recycle the slot `r`
    /// resolved to. Near [`SNIPPET_ARENA_CAP`] the whole arena is logically
    /// dropped and refilled from slot 0 — entry buffers keep their
    /// capacity — and the interner's local ids go with it: arena entries
    /// are the only state that outlives a pair.
    fn make_room(scratch: &mut Scratch<'a>) {
        if scratch.arena_len + 2 > SNIPPET_ARENA_CAP {
            scratch.arena_index.clear();
            scratch.arena_len = 0;
            scratch.interner.clear_local();
        }
    }

    /// Arena index of the pair side `side` picks out of the scratch's
    /// [`PairKey`] (side hash `h`), tokenizing `lines` — that side — on
    /// first encounter. Hash-index hits are verified by slice equality
    /// against the entry's own side key; a 64-bit collision falls through
    /// to reprocessing (only slower).
    fn arena_entry<S: PairSide + ?Sized>(
        lines: &S,
        side: fn(&PairKey) -> &[u8],
        h: u64,
        tokenizer: &Tokenizer,
        scratch: &mut Scratch<'a>,
    ) -> usize {
        if let Some(&i) = scratch.arena_index.get(&h) {
            if i < scratch.arena_len && scratch.arena[i].key == side(&scratch.key) {
                return i;
            }
        }
        let i = Self::arena_fill(lines, side, tokenizer, scratch);
        scratch.arena_index.insert(h, i);
        i
    }

    /// Fill the next arena slot with the side key and the tokenized lines
    /// of `lines` (reusing the slot's buffers) and return its index. The
    /// caller has made room ([`Self::make_room`]).
    fn arena_fill<S: PairSide + ?Sized>(
        lines: &S,
        side: fn(&PairKey) -> &[u8],
        tokenizer: &Tokenizer,
        scratch: &mut Scratch<'a>,
    ) -> usize {
        let i = scratch.arena_len;
        if scratch.arena.len() == i {
            scratch.arena.push(ArenaEntry {
                key: Vec::new(),
                tok: TokenizedSnippet::default(),
                terms: Vec::new(),
                terms_ready: false,
            });
        }
        let Scratch {
            arena,
            interner,
            norm,
            key,
            ..
        } = scratch;
        let e = &mut arena[i];
        e.key.clear();
        e.key.extend_from_slice(side(key));
        e.terms_ready = false;
        e.tok.fill(lines.side_lines(), tokenizer, interner, norm);
        scratch.arena_len = i + 1;
        i
    }

    /// Arena indices of both sides of the pair whose key the scratch holds
    /// (`hashes` as [`PairKey::set`] returned them).
    fn arena_pair<S: PairSide + ?Sized>(
        &self,
        r: &S,
        s: &S,
        (hr, hs): (u64, u64),
        scratch: &mut Scratch<'a>,
    ) -> (usize, usize) {
        let ri = Self::arena_entry(r, PairKey::r, hr, &self.tokenizer, scratch);
        let si = Self::arena_entry(s, PairKey::s, hs, &self.tokenizer, scratch);
        (ri, si)
    }

    /// Price the term features of arena entry `i` if not already cached
    /// (into the entry's reused buffer).
    fn ensure_arena_terms(&self, i: usize, scratch: &mut Scratch<'a>) {
        let Scratch {
            arena,
            interner,
            occ_buf,
            ..
        } = scratch;
        let e = &mut arena[i];
        if e.terms_ready {
            return;
        }
        self.ngram.extract_into(&e.tok, interner, occ_buf);
        e.terms.clear();
        let table = self.engine.table();
        walk_features(&self.spec, interner, occ_buf, &[], None, |f| {
            price(table, &mut e.terms, f)
        });
        e.terms_ready = true;
    }

    /// Extract the rewrites of `(r, s)` into `ext`, probing the compiled
    /// table for greedy evidence.
    fn extract_rewrites(
        &self,
        r: &TokenizedSnippet,
        s: &TokenizedSnippet,
        interner: &mut Interner,
        ext: &mut RewriteExtraction,
    ) {
        let cfg = self.rewriter.config();
        let prepared = prepare_pair(
            r,
            s,
            cfg.max_phrase_len,
            cfg.strategy == MatchStrategy::GreedyStats,
            interner,
        );
        let evidence = CompiledEvidence(self.engine.table());
        self.rewriter
            .extract_prepared_into(r, s, &prepared, &evidence, interner, ext);
    }

    /// Score one pair through the engine. The pair's key is written and
    /// the bundle's score cache probed with it: a hit is the score, with
    /// no arena entry resolved and no feature walked. A miss scores the
    /// pair from its features ([`Self::score_features`]) and offers the
    /// score to the cache, which keeps it from the pair's second miss on.
    fn score_engine<S: PairSide + ?Sized>(&self, r: &S, s: &S, scratch: &mut Scratch<'a>) -> f64 {
        let hashes = scratch.key.set(r, s);
        let pair_hash = AlignCache::combine_hashes(hashes.0, hashes.1);
        let cache = self.engine.align();
        if let Some(score) = cache.get_hashed(pair_hash, scratch.key.pair()) {
            return score;
        }
        let score = self.score_features(r, s, hashes, scratch);
        cache.insert_hashed(pair_hash, scratch.key.pair(), score);
        score
    }

    /// Score the pair whose key the scratch holds from its features: both
    /// sides resolve in the arena, the rewrite family is extracted and
    /// walked when the spec has it, and the arena's priced term features
    /// of each side are appended when it has them. Values are ±1 counts
    /// summed exactly, so appending the families in either order leaves the
    /// encoding unchanged: the classifier sees exactly the priced part of
    /// what training's encoding of the pair holds.
    fn score_features<S: PairSide + ?Sized>(
        &self,
        r: &S,
        s: &S,
        hashes: (u64, u64),
        scratch: &mut Scratch<'a>,
    ) -> f64 {
        Self::make_room(scratch);
        let (ri, si) = self.arena_pair(r, s, hashes, scratch);
        scratch.feats.clear();
        if self.spec.rewrites {
            let Scratch {
                arena,
                interner,
                ext_buf,
                feats,
                ..
            } = scratch;
            self.extract_rewrites(&arena[ri].tok, &arena[si].tok, interner, ext_buf);
            let table = self.engine.table();
            walk_features(&self.spec, interner, &[], &[], Some(ext_buf), |f| {
                price(table, feats, f)
            });
        }
        if self.spec.terms {
            self.ensure_arena_terms(ri, scratch);
            self.ensure_arena_terms(si, scratch);
            let Scratch { arena, feats, .. } = scratch;
            feats.extend_from_slice(&arena[ri].terms);
            feats.extend(arena[si].terms.iter().map(|f| CoupledFeature {
                value: -f.value,
                ..*f
            }));
        }
        let Scratch {
            feats,
            pair_buf,
            sparse_buf,
            ..
        } = scratch;
        match &self.model.classifier {
            TrainedClassifier::Flat(lr) => {
                pair_buf.extend(feats.iter().map(|f| (f.term, f.value)));
                sparse_buf.assign_from_pairs(pair_buf);
                lr.score(sparse_buf)
            }
            TrainedClassifier::Coupled(cm) => {
                aggregate(feats);
                cm.score_occs(feats)
            }
        }
    }

    /// Every feature occurrence of `(r, s)` in walk order, each with the
    /// weight index the model prices it at (`None` outside the
    /// vocabulary), for the attribution path (`crate::explain`). The
    /// alignment is extracted afresh: explaining neither reads nor offers
    /// to the score cache. Phrase ids resolve through
    /// [`Scratch::interner`] until the scratch scores again.
    pub(crate) fn explain_features<S: PairSide + ?Sized>(
        &self,
        r: &S,
        s: &S,
        scratch: &mut Scratch<'a>,
    ) -> Vec<(PairFeature, Option<u32>)> {
        Self::make_room(scratch);
        let hashes = scratch.key.set(r, s);
        let (ri, si) = self.arena_pair(r, s, hashes, scratch);
        let Scratch {
            arena,
            interner,
            ext_buf,
            ..
        } = scratch;
        let (tok_r, tok_s) = (&arena[ri].tok, &arena[si].tok);
        let (r_occs, s_occs) = if self.spec.terms {
            (
                self.ngram.extract(tok_r, interner),
                self.ngram.extract(tok_s, interner),
            )
        } else {
            (Vec::new(), Vec::new())
        };
        if self.spec.rewrites {
            self.extract_rewrites(tok_r, tok_s, interner, ext_buf);
        }
        let table = self.engine.table();
        let mut out = Vec::new();
        let ext = self.spec.rewrites.then_some(&*ext_buf);
        walk_features(&self.spec, interner, &r_occs, &s_occs, ext, |f| {
            out.push((f, table.weight_index(f.feat)))
        });
        out
    }

    /// Count `n` scores (and `n` degraded ones at degraded fidelity).
    fn count_scores(&self, n: u64) {
        obs::counter!("microbrowse_scores_total").add(n);
        if self.fidelity.is_degraded() {
            obs::counter!("microbrowse_scores_degraded_total").add(n);
        }
    }
}

/// Loading policy for [`ScorerBuilder`]: what to do when the statistics
/// snapshot is missing or damaged.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum LoadPolicy {
    /// Any damage is a typed error; nothing serves.
    #[default]
    Strict,
    /// Serve anyway at [`Fidelity::Degraded`] (term features only). A
    /// damaged *model* is still fatal — there is nothing to serve without
    /// it.
    Degrade,
}

/// Everything [`ScorerBuilder::load`] recovered from disk: the model, the
/// stats (empty when degraded), the fidelity, and which slot generations
/// were served (when slots were used).
#[derive(Debug)]
pub struct ServingBundle {
    model: DeployedModel,
    stats: StatsDb,
    fidelity: Fidelity,
    model_generation: Option<u64>,
    stats_generation: Option<u64>,
    engine: ScoringEngine,
}

impl ServingBundle {
    /// Assemble a bundle from in-memory parts (no disk involved). This is
    /// the construction path for servers and load generators that build or
    /// receive artifacts directly; generation numbers are `None` because
    /// nothing came from a slot. Fails only when `stats` cannot be compiled
    /// into the hot-path engine (a database too large for its id spaces —
    /// impossible for any database that fits in memory).
    pub fn from_parts(
        model: DeployedModel,
        stats: StatsDb,
        fidelity: Fidelity,
    ) -> Result<Self, MbError> {
        let engine = compile_engine(&stats, &model.vocab)?;
        Ok(Self {
            model,
            stats,
            fidelity,
            model_generation: None,
            stats_generation: None,
            engine,
        })
    }

    /// The loaded model.
    pub fn model(&self) -> &DeployedModel {
        &self.model
    }

    /// The loaded statistics database (empty when degraded).
    pub fn stats(&self) -> &StatsDb {
        &self.stats
    }

    /// Fidelity every scorer built from this bundle will serve at.
    pub fn fidelity(&self) -> &Fidelity {
        &self.fidelity
    }

    /// Slot generation the model came from (None for plain files).
    pub fn model_generation(&self) -> Option<u64> {
        self.model_generation
    }

    /// Slot generation the stats came from (None for plain files or
    /// degraded bundles).
    pub fn stats_generation(&self) -> Option<u64> {
        self.stats_generation
    }

    /// The compiled scoring engine for this bundle: the precompiled
    /// feature table plus the serve-time score cache. Replacing the
    /// bundle on hot reload replaces the engine — and thus invalidates the
    /// cache — atomically with the stats it was compiled from.
    pub fn engine(&self) -> &ScoringEngine {
        &self.engine
    }

    /// Build a scorer over this bundle (one per serving thread) — the only
    /// way to build one. Scores are bit-identical to
    /// [`ReferenceScorer`](crate::reference::ReferenceScorer) over the same
    /// artifacts and fidelity.
    pub fn scorer(&self) -> Scorer<'_> {
        Scorer {
            model: &self.model,
            spec: effective_spec(self.model.spec, &self.fidelity),
            tokenizer: Tokenizer::default(),
            ngram: NGramExtractor::default(),
            rewriter: RewriteExtractor::default(),
            fidelity: self.fidelity.clone(),
            engine: &self.engine,
        }
    }
}

/// Builder for the resilient serve path: explicit degradation policy,
/// bounded retry on transient IO, and transparent slot-directory support
/// (a path that is a directory is treated as a generation slot and loaded
/// through rollback recovery).
#[derive(Debug, Clone)]
pub struct ScorerBuilder {
    model_path: PathBuf,
    stats_path: Option<PathBuf>,
    policy: LoadPolicy,
    retry: RetryPolicy,
}

impl ScorerBuilder {
    /// Start a builder for the model at `model_path` (file or slot
    /// directory). Policy defaults to [`LoadPolicy::Strict`].
    pub fn new(model_path: impl Into<PathBuf>) -> Self {
        Self {
            model_path: model_path.into(),
            stats_path: None,
            policy: LoadPolicy::default(),
            retry: RetryPolicy::default(),
        }
    }

    /// Where the statistics snapshot lives (file or slot directory).
    pub fn stats_path(mut self, path: impl Into<PathBuf>) -> Self {
        self.stats_path = Some(path.into());
        self
    }

    /// What to do when the stats snapshot is missing or damaged.
    pub fn policy(mut self, policy: LoadPolicy) -> Self {
        self.policy = policy;
        self
    }

    /// Retry schedule for transient IO during loading.
    pub fn retry(mut self, retry: RetryPolicy) -> Self {
        self.retry = retry;
        self
    }

    /// [`Self::load`], returning the bundle behind an [`Arc`]
    /// so a multi-threaded server can share one loaded bundle across its
    /// worker pool (each worker builds its own cheap [`Scorer`] over the
    /// shared data) and atomically swap in a replacement on hot reload.
    pub fn load_shared(&self) -> Result<std::sync::Arc<ServingBundle>, MbError> {
        self.load().map(std::sync::Arc::new)
    }

    /// Load the artifacts under the configured policy.
    pub fn load(&self) -> Result<ServingBundle, MbError> {
        let mut span = obs::trace::span("serve.load").with(
            "policy",
            match self.policy {
                LoadPolicy::Strict => "strict",
                LoadPolicy::Degrade => "degrade",
            },
        );
        let loaded = self.load_model().and_then(|(model, model_generation)| {
            let (stats, fidelity, stats_generation) = self.load_stats()?;
            let engine = compile_engine(&stats, &model.vocab)?;
            Ok(ServingBundle {
                model,
                stats,
                fidelity,
                model_generation,
                stats_generation,
                engine,
            })
        });
        match &loaded {
            Ok(bundle) => span.add("degraded", bundle.fidelity.is_degraded()),
            Err(_) => {
                span.add("failed", true);
                obs::counter!("microbrowse_load_failures_total").inc();
            }
        }
        loaded
    }

    fn load_model(&self) -> Result<(DeployedModel, Option<u64>), MbError> {
        let path = &self.model_path;
        if path.is_dir() {
            let slot = ArtifactSlot::new(path, MODEL_SLOT_NAME);
            let load = DeployedModel::load_from_slot(&slot).map_err(|e| MbError::slot(path, e))?;
            if load.rolled_back {
                obs::counter!("microbrowse_slot_rollbacks_total").inc();
                obs::trace::event("serve.rollback")
                    .with("artifact", "model")
                    .with("generation", load.generation);
            }
            Ok((load.value, Some(load.generation)))
        } else {
            let bytes = read_file_with_retry(path, &self.retry)
                .map_err(|e| MbError::model(path, ModelIoError::Io(e)))?;
            let model = DeployedModel::from_bytes(&bytes).map_err(|e| {
                if matches!(e, ModelIoError::ChecksumMismatch) {
                    obs::counter!("microbrowse_crc_failures_total").inc();
                    obs::trace::event("serve.crc_failure").with("artifact", "model");
                }
                MbError::model(path, e)
            })?;
            Ok((model, None))
        }
    }

    fn load_stats(&self) -> Result<(StatsDb, Fidelity, Option<u64>), MbError> {
        let Some(path) = &self.stats_path else {
            return match self.policy {
                LoadPolicy::Strict => Err(MbError::usage(
                    "strict loading requires a stats snapshot path",
                )),
                LoadPolicy::Degrade => {
                    let reason = DegradeReason::StatsMissing;
                    emit_degraded(&reason);
                    Ok((StatsDb::new(), Fidelity::Degraded(reason), None))
                }
            };
        };
        let attempt: Result<(StatsDb, Option<u64>), MbError> = if path.is_dir() {
            ArtifactSlot::new(path, STATS_SLOT_NAME)
                .load_with(microbrowse_store::file::from_bytes)
                .map(|l| {
                    if l.rolled_back {
                        obs::counter!("microbrowse_slot_rollbacks_total").inc();
                        obs::trace::event("serve.rollback")
                            .with("artifact", "stats")
                            .with("generation", l.generation);
                    }
                    (l.value, Some(l.generation))
                })
                .map_err(|e| MbError::slot(path, e))
        } else {
            read_file_with_retry(path, &self.retry)
                .map_err(|e| MbError::stats(path, SnapshotError::Io(e)))
                .and_then(|bytes| {
                    microbrowse_store::file::from_bytes(&bytes)
                        .map(|db| (db, None))
                        .map_err(|e| MbError::stats(path, e))
                })
        };
        match (attempt, self.policy) {
            (Ok((stats, generation)), _) => Ok((stats, Fidelity::Full, generation)),
            (Err(e), LoadPolicy::Strict) => Err(e),
            (Err(e), LoadPolicy::Degrade) => {
                let reason = classify_stats_failure(&e);
                emit_degraded(&reason);
                Ok((StatsDb::new(), Fidelity::Degraded(reason), None))
            }
        }
    }
}

/// Compile the hot-path engine for a bundle, mapping the (practically
/// unreachable) too-large-database failure into the serve-path error
/// taxonomy so a load reports it instead of serving mis-resolved keys.
fn compile_engine(stats: &StatsDb, vocab: &[OwnedTermFeat]) -> Result<ScoringEngine, MbError> {
    ScoringEngine::compile(stats, vocab)
        .map_err(|e| MbError::validation(format!("stats database not compilable for serving: {e}")))
}

/// One structured event + counter per degraded-fidelity fallback.
fn emit_degraded(reason: &DegradeReason) {
    obs::counter!("microbrowse_degraded_loads_total").inc();
    obs::trace::event("serve.degraded")
        .with(
            "reason",
            match reason {
                DegradeReason::StatsMissing => "stats_missing",
                DegradeReason::StatsCorrupt(_) => "stats_corrupt",
                DegradeReason::StatsIo(_) => "stats_io",
            },
        )
        .with("detail", reason.to_string());
}

/// Map a stats-loading failure onto the reason a degraded scorer reports.
fn classify_stats_failure(e: &MbError) -> DegradeReason {
    match e {
        MbError::Stats {
            source: SnapshotError::Io(io),
            ..
        } if io.kind() == std::io::ErrorKind::NotFound => DegradeReason::StatsMissing,
        MbError::Stats {
            source: SnapshotError::Io(io),
            ..
        } => DegradeReason::StatsIo(io.to_string()),
        MbError::Slot {
            source: SlotError::NoGoodGeneration { tried: 0, .. },
            ..
        } => DegradeReason::StatsMissing,
        other => DegradeReason::StatsCorrupt(other.to_string()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reference::ReferenceScorer;

    fn sample_model() -> DeployedModel {
        DeployedModel {
            spec: ModelSpec::m5(),
            classifier: TrainedClassifier::Flat(LogReg::from_parts(vec![1.5, -0.5, 0.25], 0.1)),
            vocab: vec![
                OwnedTermFeat::Term("cheap".into()),
                OwnedTermFeat::Rewrite("find cheap".into(), "get discounts".into()),
                OwnedTermFeat::Term("fees".into()),
            ],
        }
    }

    #[test]
    fn round_trip_flat() {
        let m = sample_model();
        let back = DeployedModel::from_bytes(&m.to_bytes()).expect("round trip");
        assert_eq!(m, back);
    }

    #[test]
    fn round_trip_coupled() {
        let m = DeployedModel {
            spec: ModelSpec::m6(),
            classifier: TrainedClassifier::Coupled(CoupledModel::from_parts(
                vec![1.0, 0.5],
                vec![0.3, -0.7, 0.0],
                -0.2,
            )),
            vocab: vec![OwnedTermFeat::Term("a".into())],
        };
        let back = DeployedModel::from_bytes(&m.to_bytes()).expect("round trip");
        assert_eq!(m, back);
    }

    #[test]
    fn corruption_detected() {
        let mut bytes = sample_model().to_bytes();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x10;
        assert!(matches!(
            DeployedModel::from_bytes(&bytes),
            Err(ModelIoError::ChecksumMismatch)
        ));
    }

    #[test]
    fn bad_magic_and_version() {
        let mut bytes = sample_model().to_bytes();
        bytes[0] = b'Z';
        assert!(matches!(
            DeployedModel::from_bytes(&bytes),
            Err(ModelIoError::BadMagic)
        ));
        let mut bytes = sample_model().to_bytes();
        bytes[8] = 42;
        assert!(matches!(
            DeployedModel::from_bytes(&bytes),
            Err(ModelIoError::UnsupportedVersion(42))
        ));
    }

    #[test]
    fn file_round_trip() {
        let dir = std::env::temp_dir().join(format!("mbmodel-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("model.mbm");
        let m = sample_model();
        m.save(&path).expect("save");
        let back = DeployedModel::load(&path).expect("load");
        assert_eq!(m, back);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn scorer_uses_persisted_vocab() {
        // Weight 1.5 on "cheap": a creative containing "cheap" must beat an
        // otherwise-identical one, through a fresh interner after reload.
        let m = DeployedModel {
            spec: ModelSpec {
                name: "M1",
                terms: true,
                rewrites: false,
                positions: false,
                init_from_stats: false,
            },
            classifier: TrainedClassifier::Flat(LogReg::from_parts(vec![1.5], 0.0)),
            vocab: vec![OwnedTermFeat::Term("cheap".into())],
        };
        let reloaded = DeployedModel::from_bytes(&m.to_bytes()).unwrap();
        let bundle = ServingBundle::from_parts(reloaded, StatsDb::new(), Fidelity::Full).unwrap();
        let scorer = bundle.scorer();
        let mut scratch = scorer.scratch();
        let r = Snippet::creative("air", "cheap flights", "book now");
        let s = Snippet::creative("air", "luxury flights", "book now");
        assert!(scorer.score_pair(&r, &s, &mut scratch) > 0.0);
        assert!(scorer.score_pair(&s, &r, &mut scratch) < 0.0);
        assert!(scorer.predict_pair(&r, &s, &mut scratch));
    }

    fn tmp_dir(tag: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("mbserve-{tag}-{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn degraded_scorer_still_ranks_by_terms() {
        let m = DeployedModel {
            spec: ModelSpec::m5(), // terms + rewrites
            classifier: TrainedClassifier::Flat(LogReg::from_parts(vec![1.5, 2.0, -0.5], 0.0)),
            vocab: vec![
                OwnedTermFeat::Term("cheap".into()),
                OwnedTermFeat::Rewrite("find cheap".into(), "get discounts".into()),
                OwnedTermFeat::Term("fees".into()),
            ],
        };
        let bundle = ServingBundle::from_parts(
            m,
            StatsDb::new(),
            Fidelity::Degraded(DegradeReason::StatsMissing),
        )
        .unwrap();
        let scorer = bundle.scorer();
        let mut scratch = scorer.scratch();
        let r = Snippet::creative("air", "cheap flights", "book now");
        let s = Snippet::creative("air", "flights with fees", "book now");
        let outcome = scorer.score_pair_outcome(&r, &s, &mut scratch);
        assert!(outcome.score > 0.0, "term weights still separate the pair");
        assert!(outcome.fidelity.is_degraded());
        assert_eq!(
            outcome.fidelity,
            Fidelity::Degraded(DegradeReason::StatsMissing)
        );
    }

    #[test]
    fn builder_strict_fails_on_missing_stats() {
        let dir = tmp_dir("strict");
        let model_path = dir.join("model.mbm");
        sample_model().save(&model_path).unwrap();
        let err = ScorerBuilder::new(&model_path)
            .stats_path(dir.join("absent.mbs"))
            .policy(LoadPolicy::Strict)
            .load()
            .unwrap_err();
        assert!(matches!(err, crate::error::MbError::Stats { .. }), "{err}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn builder_degrade_serves_without_stats() {
        let dir = tmp_dir("degrade");
        let model_path = dir.join("model.mbm");
        sample_model().save(&model_path).unwrap();
        let bundle = ScorerBuilder::new(&model_path)
            .stats_path(dir.join("absent.mbs"))
            .policy(LoadPolicy::Degrade)
            .load()
            .expect("degrade policy must serve");
        assert_eq!(
            bundle.fidelity(),
            &Fidelity::Degraded(DegradeReason::StatsMissing)
        );
        assert!(bundle.stats().is_empty());
        let scorer = bundle.scorer();
        let mut scratch = scorer.scratch();
        let r = Snippet::creative("air", "cheap flights", "book now");
        let s = Snippet::creative("air", "luxury flights", "book now");
        assert!(scorer
            .score_pair_outcome(&r, &s, &mut scratch)
            .fidelity
            .is_degraded());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn builder_degrade_flags_corrupt_stats() {
        let dir = tmp_dir("corruptstats");
        let model_path = dir.join("model.mbm");
        sample_model().save(&model_path).unwrap();
        let stats_path = dir.join("stats.mbs");
        let mut bytes = microbrowse_store::file::to_bytes(&StatsDb::new());
        let last = bytes.len() - 1;
        bytes[last] ^= 0xFF; // break the CRC trailer
        std::fs::write(&stats_path, &bytes).unwrap();
        let bundle = ScorerBuilder::new(&model_path)
            .stats_path(&stats_path)
            .policy(LoadPolicy::Degrade)
            .load()
            .unwrap();
        match bundle.fidelity() {
            Fidelity::Degraded(DegradeReason::StatsCorrupt(msg)) => {
                assert!(msg.contains("crc"), "{msg}")
            }
            other => panic!("expected StatsCorrupt, got {other:?}"),
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn builder_loads_slot_directories_with_rollback() {
        let dir = tmp_dir("slots");
        let model_slot = ArtifactSlot::new(&dir, MODEL_SLOT_NAME);
        let stats_slot = ArtifactSlot::new(&dir, STATS_SLOT_NAME);
        sample_model().commit_to_slot(&model_slot).unwrap();
        let mut db = StatsDb::new();
        db.record(microbrowse_store::FeatureKey::term("cheap"), true);
        stats_slot
            .commit(&microbrowse_store::file::to_bytes(&db))
            .unwrap();
        // Torn generation 2 of the model: recovery must roll back to 1.
        std::fs::write(model_slot.generation_path(2), b"MBMODEL\0torn").unwrap();
        let bundle = ScorerBuilder::new(&dir)
            .stats_path(&dir)
            .policy(LoadPolicy::Strict)
            .load()
            .expect("slot recovery");
        assert_eq!(bundle.model_generation(), Some(1));
        assert_eq!(bundle.stats_generation(), Some(1));
        assert_eq!(bundle.fidelity(), &Fidelity::Full);
        assert_eq!(bundle.model(), &sample_model());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn degraded_equals_full_for_term_only_models() {
        // An M1 model has no rewrite features: degradation must not change
        // its scores at all.
        let m = DeployedModel {
            spec: ModelSpec::m1(),
            classifier: TrainedClassifier::Flat(LogReg::from_parts(vec![1.0, -2.0], 0.1)),
            vocab: vec![
                OwnedTermFeat::Term("cheap".into()),
                OwnedTermFeat::Term("fees".into()),
            ],
        };
        let r = Snippet::creative("air", "cheap flights", "book now");
        let s = Snippet::creative("air", "flights with fees", "book now");
        let score_at = |fidelity| {
            let bundle = ServingBundle::from_parts(m.clone(), StatsDb::new(), fidelity).unwrap();
            let scorer = bundle.scorer();
            let score = scorer.score_pair(&r, &s, &mut scorer.scratch());
            score
        };
        let full = score_at(Fidelity::Full);
        let degraded = score_at(Fidelity::Degraded(DegradeReason::StatsMissing));
        assert_eq!(full, degraded);
    }

    #[test]
    fn serving_bundle_is_send_sync_and_shareable() {
        // Compile-time contract for the HTTP server: a bundle must cross
        // thread boundaries behind an Arc with no lifetime leaking out.
        fn assert_send_sync<T: Send + Sync + 'static>() {}
        assert_send_sync::<ServingBundle>();
        assert_send_sync::<std::sync::Arc<ServingBundle>>();

        let bundle = std::sync::Arc::new(
            ServingBundle::from_parts(sample_model(), StatsDb::new(), Fidelity::Full)
                .expect("bundle"),
        );
        assert_eq!(bundle.model_generation(), None);
        let shared = std::sync::Arc::clone(&bundle);
        let handle = std::thread::spawn(move || {
            let scorer = shared.scorer();
            let mut scratch = scorer.scratch();
            let r = Snippet::creative("air", "cheap flights", "book now");
            let s = Snippet::creative("air", "flights with fees", "book now");
            scorer.score_pair(&r, &s, &mut scratch)
        });
        let from_thread = handle.join().expect("scoring thread");
        let r = Snippet::creative("air", "cheap flights", "book now");
        let s = Snippet::creative("air", "flights with fees", "book now");
        let scorer = bundle.scorer();
        assert_eq!(
            from_thread,
            scorer.score_pair(&r, &s, &mut scorer.scratch())
        );
    }

    #[test]
    fn load_shared_returns_arc_bundle() {
        let dir = tmp_dir("shared");
        let model_path = dir.join("model.mbm");
        sample_model().save(&model_path).unwrap();
        let bundle = ScorerBuilder::new(&model_path)
            .policy(LoadPolicy::Degrade)
            .load_shared()
            .expect("load_shared");
        assert!(bundle.fidelity().is_degraded());
        assert_eq!(std::sync::Arc::strong_count(&bundle), 1);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn rank_orders_by_pairwise_margin() {
        let m = DeployedModel {
            spec: ModelSpec {
                name: "M1",
                terms: true,
                rewrites: false,
                positions: false,
                init_from_stats: false,
            },
            classifier: TrainedClassifier::Flat(LogReg::from_parts(vec![2.0, 1.0], 0.0)),
            vocab: vec![
                OwnedTermFeat::Term("great".into()),
                OwnedTermFeat::Term("good".into()),
            ],
        };
        let bundle = ServingBundle::from_parts(m, StatsDb::new(), Fidelity::Full).unwrap();
        let scorer = bundle.scorer();
        let mut scratch = scorer.scratch();
        let creatives = [
            Snippet::creative("x", "plain offer", "text"),
            Snippet::creative("x", "great offer", "text"),
            Snippet::creative("x", "good offer", "text"),
        ];
        let order = scorer.rank(&creatives, &mut scratch);
        assert_eq!(order, vec![1, 2, 0]);
    }

    #[test]
    fn one_scorer_shared_across_threads_with_scratches() {
        // The point of the Scratch split: a single `&Scorer` used from many
        // threads concurrently, each thread with its own scratch, must agree
        // with serial scoring.
        let bundle =
            ServingBundle::from_parts(sample_model(), StatsDb::new(), Fidelity::Full).unwrap();
        let scorer = bundle.scorer();
        let r = Snippet::creative("air", "find cheap flights", "book now");
        let s = Snippet::creative("air", "get discounts", "fees apply");
        let serial = scorer.score_pair(&r, &s, &mut scorer.scratch());
        let scorer_ref = &scorer;
        std::thread::scope(|scope| {
            let handles: Vec<_> = (0..4)
                .map(|_| {
                    scope.spawn(move || {
                        let mut scratch = scorer_ref.scratch();
                        scorer_ref.score_pair(
                            &Snippet::creative("air", "find cheap flights", "book now"),
                            &Snippet::creative("air", "get discounts", "fees apply"),
                            &mut scratch,
                        )
                    })
                })
                .collect();
            for h in handles {
                assert_eq!(h.join().expect("thread"), serial);
            }
        });
    }

    #[test]
    fn score_batch_matches_serial_and_dedups_work() {
        let bundle =
            ServingBundle::from_parts(sample_model(), StatsDb::new(), Fidelity::Full).unwrap();
        let scorer = bundle.scorer();
        let a = Snippet::creative("air", "find cheap flights", "book now");
        let b = Snippet::creative("air", "get discounts", "fees apply");
        let c = Snippet::creative("air", "luxury flights", "no fees");
        // Duplicate snippets across pairs exercise the arena reuse path.
        let pairs = vec![
            (a.clone(), b.clone()),
            (b.clone(), c.clone()),
            (a.clone(), c.clone()),
            (a.clone(), b.clone()),
        ];
        let mut serial_scratch = scorer.scratch();
        let serial: Vec<f64> = pairs
            .iter()
            .map(|(r, s)| scorer.score_pair(r, s, &mut serial_scratch))
            .collect();
        let mut batch_scratch = scorer.scratch();
        let (batch, latencies) = scorer.score_batch_timed(&pairs, &mut batch_scratch);
        assert_eq!(serial, batch);
        assert_eq!(latencies.len(), pairs.len());
    }

    /// The differential check at unit scale (the proptests in
    /// `core/tests/prop_hot.rs` cover the full input matrix): the engine
    /// scorer agrees bit for bit with [`ReferenceScorer`], the former
    /// single-pair legacy path moved unchanged.
    #[test]
    fn engine_scorer_matches_legacy_scorer() {
        let m = sample_model();
        let stats = StatsDb::new();
        let bundle =
            ServingBundle::from_parts(m.clone(), stats.clone(), Fidelity::Full).expect("bundle");
        let r = Snippet::creative("air", "find cheap flights", "book now");
        let s = Snippet::creative("air", "get discounts", "fees apply");
        let expected = ReferenceScorer::from_parts(&m, &stats, &Fidelity::Full).score_pair(&r, &s);
        let scorer = bundle.scorer();
        let mut scratch = scorer.scratch();
        // Three times: the first miss is deferred, the second is admitted
        // into the cache, the third replays the cached alignment.
        for _ in 0..2 {
            assert_eq!(
                scorer.score_pair(&r, &s, &mut scratch).to_bits(),
                expected.to_bits()
            );
        }
        assert!(bundle.engine().align().entries() > 0);
        assert_eq!(
            scorer.score_pair(&r, &s, &mut scratch).to_bits(),
            expected.to_bits()
        );
    }

    /// Regression: with the arena full and `r` a hit in slot 0, filling a
    /// new `s` used to clear the arena and write `s` into slot 0, so the
    /// pair scored as `(s, s)` — 0.0 instead of 2.5 at the 8192nd pair.
    #[test]
    fn full_arena_keeps_both_sides_of_the_pair() {
        let m = DeployedModel {
            spec: ModelSpec::m1(),
            classifier: TrainedClassifier::Flat(LogReg::from_parts(vec![1.5, -1.0], 0.0)),
            vocab: vec![
                OwnedTermFeat::Term("cheap".into()),
                OwnedTermFeat::Term("pricey".into()),
            ],
        };
        let stats = StatsDb::new();
        let bundle =
            ServingBundle::from_parts(m.clone(), stats.clone(), Fidelity::Full).expect("bundle");
        let scorer = bundle.scorer();
        let mut scratch = scorer.scratch();
        let mut reference = ReferenceScorer::from_parts(&m, &stats, &Fidelity::Full);
        let r = Snippet::from_lines(["cheap flights"]);
        for i in 0..SNIPPET_ARENA_CAP + 8 {
            let s = Snippet::from_lines([format!("pricey flights {i}")]);
            let expected = reference.score_pair(&r, &s);
            assert_eq!(expected, 2.5);
            assert_eq!(
                scorer.score_pair(&r, &s, &mut scratch).to_bits(),
                expected.to_bits(),
                "pair {i}"
            );
        }
    }

    /// Pairs built by editing one creative: a rewrite partner substituted,
    /// a phrase moved, a token inserted, a never-seen token inserted, and
    /// the creative itself — every other line shared — in both orders.
    fn edited_pairs() -> Vec<(Snippet, Snippet)> {
        let base = Snippet::creative("XYZ Air", "find cheap flights today", "no fees apply");
        [
            Snippet::creative("XYZ Air", "get discounts flights today", "no fees apply"),
            Snippet::creative("XYZ Air", "flights today find cheap", "no fees apply"),
            Snippet::creative(
                "XYZ Air",
                "find cheap flights today",
                "no hidden fees apply",
            ),
            Snippet::creative("XYZ Air", "find cheap qqzx flights today", "no fees apply"),
            base.clone(),
        ]
        .into_iter()
        .flat_map(|s| [(base.clone(), s.clone()), (s, base.clone())])
        .collect()
    }

    /// Pairs that only a key with line counts, line lengths and side order
    /// tells apart, scored back to back by one scratch — three passes, so
    /// the later ones score from the alignment cache — agree bit for bit
    /// with a fresh scratch per score and with `ReferenceScorer`.
    #[test]
    fn confusable_pairs_score_as_themselves() {
        let vocab = vec![
            OwnedTermFeat::Term("ab".into()),
            OwnedTermFeat::Term("bc".into()),
            OwnedTermFeat::Term("a".into()),
            OwnedTermFeat::Term("c".into()),
            OwnedTermFeat::Term("cheap".into()),
            OwnedTermFeat::Rewrite("cheap".into(), "pricey".into()),
        ];
        let mut stats = StatsDb::new();
        for _ in 0..5 {
            stats.record(
                microbrowse_store::FeatureKey::rewrite("cheap", "pricey"),
                true,
            );
        }
        let groups = crate::features::PositionVocab::num_groups() as usize;
        let flat = DeployedModel {
            spec: ModelSpec::m5(),
            classifier: TrainedClassifier::Flat(LogReg::from_parts(
                vec![1.0, -2.0, 0.5, 0.25, 0.75, -1.5],
                0.0,
            )),
            vocab: vocab.clone(),
        };
        let coupled = DeployedModel {
            spec: ModelSpec::m6(),
            classifier: TrainedClassifier::Coupled(CoupledModel::from_parts(
                (0..groups).map(|g| 1.0 - 0.01 * g as f64).collect(),
                vec![1.0, -2.0, 0.5, 0.25, 0.75, -1.5],
                0.05,
            )),
            vocab,
        };
        let pairs: Vec<(Snippet, Snippet)> = crate::paircache::tests::confusable_pairs()
            .into_iter()
            .flat_map(|(a, b)| [a, b])
            .collect();
        for m in [flat, coupled] {
            let bundle = ServingBundle::from_parts(m.clone(), stats.clone(), Fidelity::Full)
                .expect("bundle");
            let scorer = bundle.scorer();
            let mut scratch = scorer.scratch();
            let mut reference = ReferenceScorer::from_parts(&m, &stats, &Fidelity::Full);
            for pass in 0..3 {
                for (r, s) in &pairs {
                    let want = reference.score_pair(r, s).to_bits();
                    let fresh = scorer.score_pair(r, s, &mut scorer.scratch()).to_bits();
                    let got = scorer.score_pair(r, s, &mut scratch).to_bits();
                    assert_eq!(fresh, want, "{} pass {pass}: {r:?} vs {s:?}", m.spec.name);
                    assert_eq!(got, want, "{} pass {pass}: {r:?} vs {s:?}", m.spec.name);
                }
            }
            assert!(bundle.engine().align().entries() > 0);
        }
    }

    /// One scratch scoring a stream of never-seen tokens keeps every table
    /// within what its arena holds — the arena within its cap, the interner
    /// within the strings of live entries — and afterwards scores exactly
    /// like a fresh scratch and a fresh `ReferenceScorer`.
    #[test]
    fn long_lived_scratch_stays_bounded_and_history_free() {
        let mut stats = StatsDb::new();
        for _ in 0..5 {
            stats.record(
                microbrowse_store::FeatureKey::rewrite("find cheap", "get discounts"),
                true,
            );
        }
        let groups = crate::features::PositionVocab::num_groups() as usize;
        let coupled = DeployedModel {
            spec: ModelSpec::m6(),
            classifier: TrainedClassifier::Coupled(CoupledModel::from_parts(
                (0..groups).map(|g| 1.0 - 0.002 * g as f64).collect(),
                vec![0.4, -0.9, 0.3],
                0.05,
            )),
            vocab: sample_model().vocab,
        };
        for m in [sample_model(), coupled] {
            let bundle = ServingBundle::from_parts(m.clone(), stats.clone(), Fidelity::Full)
                .expect("bundle");
            let scorer = bundle.scorer();
            let mut scratch = scorer.scratch();
            // Two never-seen tokens a side: each snippet brings three
            // strings the vocabulary lacks (its tokens and their bigram).
            for i in 0..3 * SNIPPET_ARENA_CAP {
                let r = Snippet::from_lines([format!("ra{i} rb{i}")]);
                let s = Snippet::from_lines([format!("sa{i} sb{i}")]);
                scorer.score_pair(&r, &s, &mut scratch);
                assert!(scratch.arena.len() <= SNIPPET_ARENA_CAP);
                assert!(scratch.arena_index.len() <= SNIPPET_ARENA_CAP);
                assert!(scratch.interner.local_len() <= 3 * scratch.arena_len);
            }
            let mut fresh = scorer.scratch();
            let mut reference = ReferenceScorer::from_parts(&m, &stats, &Fidelity::Full);
            for (r, s) in edited_pairs() {
                let want = reference.score_pair(&r, &s).to_bits();
                assert_eq!(scorer.score_pair(&r, &s, &mut scratch).to_bits(), want);
                assert_eq!(scorer.score_pair(&r, &s, &mut fresh).to_bits(), want);
            }
        }
    }

    /// A pair spelled three ways — as `Snippet`s, as padded wire texts and
    /// as the trimmed wire texts `Snippet::to_wire` writes — takes three
    /// cache entries, each admitted on its second miss, and every score,
    /// missed or cached, matches `ReferenceScorer` bit for bit.
    #[test]
    fn each_spelling_of_a_pair_takes_its_own_entry() {
        let m = sample_model();
        let stats = StatsDb::new();
        let bundle =
            ServingBundle::from_parts(m.clone(), stats.clone(), Fidelity::Full).expect("bundle");
        let padded = (" find cheap | flights ", "get discounts |\u{a0}fees apply");
        let snippets = (Snippet::from_wire(padded.0), Snippet::from_wire(padded.1));
        let trimmed = (snippets.0.to_wire(), snippets.1.to_wire());
        assert_eq!(trimmed.0, "find cheap|flights");
        let expected = ReferenceScorer::from_parts(&m, &stats, &Fidelity::Full)
            .score_pair(&snippets.0, &snippets.1)
            .to_bits();
        let scorer = bundle.scorer();
        let (mut scratch, mut fresh) = (scorer.scratch(), scorer.scratch());
        for (pass, entries) in [0, 3, 3].into_iter().enumerate() {
            // Deferred, admitted, then three hits in a fresh scratch.
            let scratch = if pass < 2 { &mut scratch } else { &mut fresh };
            let got = [
                scorer.score_pair(&snippets.0, &snippets.1, scratch),
                scorer.score_pair(padded.0, padded.1, scratch),
                scorer.score_pair(trimmed.0.as_str(), trimmed.1.as_str(), scratch),
            ];
            assert_eq!(got.map(f64::to_bits), [expected; 3], "pass {pass}");
            assert_eq!(bundle.engine().align().entries(), entries, "pass {pass}");
        }
        assert_eq!(fresh.arena_len, 0, "a hit resolved an arena entry");
    }

    /// For a flat (M5), a coupled (M6), a term-only (M1) and a degraded
    /// scorer, a cache hit returns the score its pair's misses computed, bit
    /// for bit, which is `ReferenceScorer`'s; and it resolves no arena
    /// entry, so a fresh scratch's arena stays empty.
    #[test]
    fn a_cache_hit_is_the_missed_score_without_the_arena() {
        let mut stats = StatsDb::new();
        for _ in 0..5 {
            stats.record(
                microbrowse_store::FeatureKey::rewrite("find cheap", "get discounts"),
                true,
            );
        }
        let groups = crate::features::PositionVocab::num_groups() as usize;
        let coupled = DeployedModel {
            spec: ModelSpec::m6(),
            classifier: TrainedClassifier::Coupled(CoupledModel::from_parts(
                (0..groups).map(|g| 1.0 - 0.002 * g as f64).collect(),
                vec![0.4, -0.9, 0.3],
                0.05,
            )),
            vocab: sample_model().vocab,
        };
        let term_only = DeployedModel {
            spec: ModelSpec::m1(),
            classifier: TrainedClassifier::Flat(LogReg::from_parts(vec![1.5, -0.75], 0.1)),
            vocab: vec![
                OwnedTermFeat::Term("cheap".into()),
                OwnedTermFeat::Term("fees".into()),
            ],
        };
        let degraded = Fidelity::Degraded(DegradeReason::StatsMissing);
        for (m, fidelity) in [
            (sample_model(), Fidelity::Full),
            (coupled, Fidelity::Full),
            (term_only, Fidelity::Full),
            (sample_model(), degraded),
        ] {
            let bundle = ServingBundle::from_parts(m.clone(), stats.clone(), fidelity.clone())
                .expect("bundle");
            let scorer = bundle.scorer();
            let mut reference = ReferenceScorer::from_parts(&m, &stats, &fidelity);
            let mut scratch = scorer.scratch();
            for (r, s) in edited_pairs() {
                let want = reference.score_pair(&r, &s).to_bits();
                for _ in 0..2 {
                    assert_eq!(scorer.score_pair(&r, &s, &mut scratch).to_bits(), want);
                }
                let mut fresh = scorer.scratch();
                let hit = scorer.score_pair(&r, &s, &mut fresh).to_bits();
                assert_eq!(hit, want, "{} {fidelity:?}: {r:?} vs {s:?}", m.spec.name);
                assert_eq!(fresh.arena_len, 0, "{} {fidelity:?}", m.spec.name);
            }
            assert!(bundle.engine().align().entries() > 0);
        }
    }

    /// Wire pairs that only a key with byte lengths, form markers and side
    /// order tells apart from each other or from a `Snippet` pair score as
    /// themselves: on a term model where every case's two pairs score
    /// differently, three passes (deferred, admitted, cached) agree bit for
    /// bit with `ReferenceScorer` on the lines each side holds.
    #[test]
    fn confusable_wire_pairs_score_as_themselves() {
        use crate::paircache::tests::{confusable_wire_pairs, snippet_pair_spelled_by_wire};
        let m = DeployedModel {
            spec: ModelSpec::m1(),
            classifier: TrainedClassifier::Flat(LogReg::from_parts(
                vec![1.5, -1.0, 0.5, 0.25, -0.5, 0.75],
                0.0,
            )),
            vocab: ["cheap", "fees", "ab", "c", "a", "bc"]
                .map(|t| OwnedTermFeat::Term(t.into()))
                .to_vec(),
        };
        let stats = StatsDb::new();
        let mut reference = ReferenceScorer::from_parts(&m, &stats, &Fidelity::Full);
        let bundle =
            ServingBundle::from_parts(m.clone(), stats.clone(), Fidelity::Full).expect("bundle");
        let scorer = bundle.scorer();
        let mut scratch = scorer.scratch();
        for (a, b) in confusable_wire_pairs() {
            let want = [&a, &b].map(|(r, s)| {
                reference
                    .score_pair(&Snippet::from_wire(r), &Snippet::from_wire(s))
                    .to_bits()
            });
            assert_ne!(want[0], want[1], "{a:?} and {b:?} score alike");
            for pass in 0..3 {
                let got = [&a, &b].map(|(r, s)| {
                    scorer
                        .score_pair(r.as_str(), s.as_str(), &mut scratch)
                        .to_bits()
                });
                assert_eq!(got, want, "pass {pass}: {a:?} / {b:?}");
            }
        }
        for bare in [true, false] {
            let ((r, s), (wr, ws)) = snippet_pair_spelled_by_wire(bare);
            let want = [
                reference.score_pair(&r, &s).to_bits(),
                reference
                    .score_pair(&Snippet::from_wire(&wr), &Snippet::from_wire(&ws))
                    .to_bits(),
            ];
            assert_ne!(want[0], want[1], "bare {bare}: both pairs score alike");
            for pass in 0..3 {
                let got = [
                    scorer.score_pair(&r, &s, &mut scratch).to_bits(),
                    scorer
                        .score_pair(wr.as_str(), ws.as_str(), &mut scratch)
                        .to_bits(),
                ];
                assert_eq!(got, want, "bare {bare}, pass {pass}");
            }
        }
    }

    #[test]
    fn batch_of_zero_or_one_pair_matches_reference() {
        let m = sample_model();
        let stats = StatsDb::new();
        let bundle =
            ServingBundle::from_parts(m.clone(), stats.clone(), Fidelity::Full).expect("bundle");
        let scorer = bundle.scorer();
        let mut scratch = scorer.scratch();
        let (scores, lat) = scorer.score_batch_timed::<Snippet>(&[], &mut scratch);
        assert!(scores.is_empty() && lat.is_empty());
        let r = Snippet::creative("air", "find cheap flights", "book now");
        let s = Snippet::creative("air", "get discounts", "fees apply");
        let single = vec![(r.clone(), s.clone())];
        let (scores, lat) = scorer.score_batch_timed(&single, &mut scratch);
        assert_eq!(scores.len(), 1);
        assert_eq!(lat.len(), 1);
        let expected = ReferenceScorer::from_parts(&m, &stats, &Fidelity::Full).score_pair(&r, &s);
        assert_eq!(scores[0].to_bits(), expected.to_bits());
    }

    #[test]
    fn batch_all_duplicate_pairs_matches_serial() {
        let m = sample_model();
        let stats = StatsDb::new();
        let bundle =
            ServingBundle::from_parts(m.clone(), stats.clone(), Fidelity::Full).expect("bundle");
        let r = Snippet::creative("air", "find cheap flights", "book now");
        let s = Snippet::creative("air", "get discounts", "fees apply");
        let pairs: Vec<_> = (0..8).map(|_| (r.clone(), s.clone())).collect();
        let scorer = bundle.scorer();
        let mut scratch = scorer.scratch();
        let batch = scorer.score_batch(&pairs, &mut scratch);
        let mut reference = ReferenceScorer::from_parts(&m, &stats, &Fidelity::Full);
        let serial: Vec<f64> = pairs
            .iter()
            .map(|(a, b)| reference.score_pair(a, b))
            .collect();
        for (b, s) in batch.iter().zip(&serial) {
            assert_eq!(b.to_bits(), s.to_bits());
        }
    }
}
