//! Version-1 wire shapes: the bodies of `POST /v1/score`, `POST /v1/rank`,
//! `POST /v1/batch`, the `POST /v1/feedback` click-ingestion surface, the
//! generative `POST /v1/suggest` / `POST /v1/explain` pair, plus the error
//! envelope every non-2xx response carries.
//!
//! Uniform response contract (the v1 surface audit): every scoring-family
//! response (`score`, `rank`, `batch`, `suggest`, `explain`) reports the
//! `fidelity` it was computed at (plus `degrade_reason` when degraded) and,
//! when the serving bundle knows it, the model `generation` that produced
//! it; every non-2xx body on every endpoint is an [`ErrorEnvelope`] with a
//! stable machine-readable `code` (one of the `CODE_*` constants).
//!
//! Each type knows how to render itself to its exact wire bytes
//! ([`ScoreResponse::to_json`] etc.) and how to parse itself back from a
//! body ([`ScoreRequest::from_json`] etc.). Field order, number formatting
//! (via [`JsonObject::f64`]) and optional-field placement are part of the
//! contract and pinned by the golden tests at the bottom of this module — a
//! change that alters any rendered byte is a wire break and belongs in a
//! `v2` module instead.
//!
//! The `{"r","s"}` request shapes (`/v1/score`, `/v1/explain`, and each
//! `/v1/batch` item) decode through [`PairRef`]: a scan that borrows both
//! sides from the body when the body is in the plain shape clients render,
//! and falls back to the [`Json`] DOM for every other body. Only the DOM
//! path reports errors, so syntax offsets and shape messages do not depend
//! on which path a body took.

use std::borrow::Cow;

use microbrowse_obs::json::{self, Json, JsonObject};

/// Parse failure for a v1 body: either the bytes were not JSON at all, or
/// they were JSON of the wrong shape.
///
/// [`std::fmt::Display`] renders the exact human-readable strings the server
/// returns in its 400 [`ErrorEnvelope`]s, so `WireError → envelope → body`
/// needs no extra mapping.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WireError {
    /// The body was not valid JSON; payload is the byte offset of the first
    /// error, as reported by [`json::Json::parse`].
    Syntax(usize),
    /// The body parsed as JSON but did not have the required shape; payload
    /// is one of the `*_SHAPE` message constants in this module.
    Shape(&'static str),
}

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WireError::Syntax(at) => write!(f, "body is not valid JSON (error at byte {at})"),
            WireError::Shape(msg) => f.write_str(msg),
        }
    }
}

impl std::error::Error for WireError {}

/// Shape message for a malformed [`ScoreRequest`].
pub const SCORE_REQUEST_SHAPE: &str = "body must have string fields \"r\" and \"s\"";
/// Shape message for a malformed [`RankRequest`].
pub const RANK_REQUEST_SHAPE: &str = "body must have a string array field \"creatives\"";
/// Semantic message for a [`RankRequest`] with fewer than two creatives.
pub const RANK_TOO_FEW: &str = "ranking needs at least two creatives";
/// Shape message for a malformed [`BatchRequest`].
pub const BATCH_REQUEST_SHAPE: &str =
    "body must be a JSON array of objects with string fields \"r\" and \"s\"";
/// Shape message for a malformed [`ScoreResponse`].
pub const SCORE_RESPONSE_SHAPE: &str = "not a v1 score response";
/// Shape message for a malformed [`RankResponse`].
pub const RANK_RESPONSE_SHAPE: &str = "not a v1 rank response";
/// Shape message for a malformed [`BatchResponse`].
pub const BATCH_RESPONSE_SHAPE: &str = "not a v1 batch response";
/// Shape message for a malformed [`FeedbackRequest`].
pub const FEEDBACK_REQUEST_SHAPE: &str =
    "body must have an array field \"events\" of feedback event objects";
/// Semantic message for a [`FeedbackRequest`] with no events.
pub const FEEDBACK_NO_EVENTS: &str = "feedback batch needs at least one event";
/// Shape message for a malformed [`FeedbackResponse`].
pub const FEEDBACK_RESPONSE_SHAPE: &str = "not a v1 feedback response";
/// Shape message for a malformed [`ErrorEnvelope`].
pub const ERROR_ENVELOPE_SHAPE: &str = "not a v1 error envelope";
/// Shape message for a malformed [`SuggestRequest`].
pub const SUGGEST_REQUEST_SHAPE: &str = "body must have a string field \"creative\"";
/// Shape message for a malformed [`SuggestResponse`].
pub const SUGGEST_RESPONSE_SHAPE: &str = "not a v1 suggest response";
/// Shape message for a malformed [`ExplainResponse`].
pub const EXPLAIN_RESPONSE_SHAPE: &str = "not a v1 explain response";

fn parse_body(body: &str) -> Result<Json, WireError> {
    Json::parse(body).map_err(WireError::Syntax)
}

fn get_u64(v: &Json, key: &str) -> Option<u64> {
    let n = v.get(key).and_then(Json::as_f64)?;
    if n.is_finite() && n >= 0.0 && n.fract() == 0.0 {
        Some(n as u64)
    } else {
        None
    }
}

/// Read an *optional* non-negative integer field: absent is `None`, present
/// but non-integral is a shape error.
fn opt_u64(v: &Json, key: &str, shape: &'static str) -> Result<Option<u64>, WireError> {
    match v.get(key) {
        None => Ok(None),
        Some(_) => get_u64(v, key).map(Some).ok_or(WireError::Shape(shape)),
    }
}

/// Append `"generation":N` when the serving bundle reported one — the shared
/// optional field every scoring-family response places between its fidelity
/// fields and `"latency_us"`.
fn append_generation(obj: JsonObject, generation: Option<u64>) -> JsonObject {
    match generation {
        Some(g) => obj.u64("generation", g),
        None => obj,
    }
}

/// The fidelity a response was computed at, as it appears on the wire: the
/// `"fidelity"` field plus, when degraded, the adjacent `"degrade_reason"`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Fidelity {
    /// `"fidelity":"full"` — every trained feature family was active.
    Full,
    /// `"fidelity":"degraded","degrade_reason":"…"` — term-only fallback.
    Degraded {
        /// Human-readable reason, e.g. `stats snapshot missing`.
        reason: String,
    },
}

impl Fidelity {
    /// The value of the `"fidelity"` field: `"full"` or `"degraded"`.
    pub fn as_str(&self) -> &'static str {
        match self {
            Fidelity::Full => "full",
            Fidelity::Degraded { .. } => "degraded",
        }
    }

    /// The degrade reason, when degraded.
    pub fn degrade_reason(&self) -> Option<&str> {
        match self {
            Fidelity::Full => None,
            Fidelity::Degraded { reason } => Some(reason),
        }
    }

    /// Append `"fidelity"` (and, when degraded, `"degrade_reason"`) to a
    /// JSON object under construction — the shared tail of every v1
    /// response that reports fidelity, also used by `/healthz`.
    pub fn append_to(&self, obj: JsonObject) -> JsonObject {
        let obj = obj.str("fidelity", self.as_str());
        match self {
            Fidelity::Full => obj,
            Fidelity::Degraded { reason } => obj.str("degrade_reason", reason),
        }
    }

    /// Read the fidelity fields back out of a parsed response object.
    fn from_response(v: &Json, shape: &'static str) -> Result<Self, WireError> {
        match v.get("fidelity").and_then(Json::as_str) {
            Some("full") => Ok(Fidelity::Full),
            Some("degraded") => Ok(Fidelity::Degraded {
                reason: v
                    .get("degrade_reason")
                    .and_then(Json::as_str)
                    .unwrap_or_default()
                    .to_string(),
            }),
            _ => Err(WireError::Shape(shape)),
        }
    }
}

impl From<&microbrowse_core::serve::Fidelity> for Fidelity {
    fn from(f: &microbrowse_core::serve::Fidelity) -> Self {
        match f {
            microbrowse_core::serve::Fidelity::Full => Fidelity::Full,
            microbrowse_core::serve::Fidelity::Degraded(reason) => Fidelity::Degraded {
                reason: reason.to_string(),
            },
        }
    }
}

/// Which side of a scored pair the model predicts will earn the higher CTR.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Winner {
    /// The `r` creative wins (score strictly positive).
    R,
    /// The `s` creative wins (score zero or negative).
    S,
}

impl Winner {
    /// The wire spelling: `"R"` or `"S"`.
    pub fn as_str(self) -> &'static str {
        match self {
            Winner::R => "R",
            Winner::S => "S",
        }
    }

    /// The v1 decision rule: `r` wins iff the log-odds margin is strictly
    /// positive. Ties break toward `s` — the incumbent keeps its slot.
    pub fn from_score(score: f64) -> Self {
        if score > 0.0 {
            Winner::R
        } else {
            Winner::S
        }
    }
}

/// Body of `POST /v1/score`: two creatives to compare.
///
/// Wire shape: `{"r":"…","s":"…"}`. Creative text uses `|` to separate
/// snippet lines (headline first), e.g. `"Cheap Flights|book today"`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ScoreRequest {
    /// Candidate creative (the "R" side of Eq. 5).
    pub r: String,
    /// Reference creative (the "S" side).
    pub s: String,
}

impl ScoreRequest {
    fn fill(&self, obj: JsonObject) -> JsonObject {
        obj.str("r", &self.r).str("s", &self.s)
    }

    /// Render the request body.
    pub fn to_json(&self) -> String {
        self.fill(JsonObject::new()).finish()
    }

    /// Parse a request body.
    pub fn from_json(body: &str) -> Result<Self, WireError> {
        PairRef::from_json(body).map(PairRef::into_owned)
    }

    /// Parse from an already-parsed JSON value (used per-item by
    /// [`BatchRequest`]).
    pub fn from_value(v: &Json) -> Result<Self, WireError> {
        match (
            v.get("r").and_then(Json::as_str),
            v.get("s").and_then(Json::as_str),
        ) {
            (Some(r), Some(s)) => Ok(Self {
                r: r.to_string(),
                s: s.to_string(),
            }),
            _ => Err(WireError::Shape(SCORE_REQUEST_SHAPE)),
        }
    }
}

/// A `{"r":"…","s":"…"}` pair decoded from a request body: each side
/// borrows the body unless its JSON string had escapes. This is what
/// [`ScoreRequest::from_json`], [`ExplainRequest::from_json`] and
/// [`BatchRequest::from_json_borrowed`] decode to before any copy.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PairRef<'a> {
    /// Candidate creative (the "R" side).
    pub r: Cow<'a, str>,
    /// Reference creative (the "S" side).
    pub s: Cow<'a, str>,
}

impl<'a> PairRef<'a> {
    /// Decode a `{"r":"…","s":"…"}` body. Same result as parsing it through
    /// the [`Json`] DOM with [`ScoreRequest::from_value`], errors included.
    pub fn from_json(body: &'a str) -> Result<Self, WireError> {
        match plain_pair(body, json::skip_ws(body, 0)) {
            Some((pair, end)) if json::skip_ws(body, end) == body.len() => Ok(pair),
            _ => ScoreRequest::from_value(&parse_body(body)?).map(Self::from),
        }
    }

    /// Copy both sides out of the body.
    pub fn into_owned(self) -> ScoreRequest {
        ScoreRequest {
            r: self.r.into_owned(),
            s: self.s.into_owned(),
        }
    }
}

impl From<ScoreRequest> for PairRef<'_> {
    fn from(req: ScoreRequest) -> Self {
        Self {
            r: Cow::Owned(req.r),
            s: Cow::Owned(req.s),
        }
    }
}

/// The first `"r"` and `"s"` members of the plain object at `pos` (see
/// [`json::plain_object`]) and the offset just past it; `None` for any
/// other object, including one that lacks a side.
fn plain_pair(body: &str, pos: usize) -> Option<(PairRef<'_>, usize)> {
    let (mut r, mut s) = (None, None);
    let end = json::plain_object(body, pos, |key, value| {
        let side = match key {
            "r" => &mut r,
            "s" => &mut s,
            _ => return,
        };
        // Duplicate keys: the first wins, as with `Json::get`.
        if side.is_none() {
            *side = Some(value);
        }
    })?;
    Some((PairRef { r: r?, s: s? }, end))
}

/// A batch body in the plain shape every client renders,
/// `[{"r":"…","s":"…"},…]` (whitespace allowed anywhere), decoded in
/// place; `None` for every other body.
fn plain_batch(body: &str) -> Option<Vec<PairRef<'_>>> {
    let b = body.as_bytes();
    let mut pos = json::skip_ws(body, 0);
    if b.get(pos) != Some(&b'[') {
        return None;
    }
    pos = json::skip_ws(body, pos + 1);
    let mut items = Vec::new();
    if b.get(pos) == Some(&b']') {
        pos += 1;
    } else {
        loop {
            let (item, end) = plain_pair(body, pos)?;
            items.push(item);
            pos = json::skip_ws(body, end);
            match b.get(pos) {
                Some(b',') => pos = json::skip_ws(body, pos + 1),
                Some(b']') => {
                    pos += 1;
                    break;
                }
                _ => return None,
            }
        }
    }
    (json::skip_ws(body, pos) == b.len()).then_some(items)
}

/// Body of `POST /v1/rank`: creatives to order by predicted CTR.
///
/// Wire shape: `{"creatives":["…","…",…]}` — at least two entries.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RankRequest {
    /// Creatives to rank, `|`-separated lines each.
    pub creatives: Vec<String>,
}

impl RankRequest {
    /// Render the request body.
    pub fn to_json(&self) -> String {
        JsonObject::new()
            .array("creatives", &self.creatives, |out, c| {
                json::write_str(out, c)
            })
            .finish()
    }

    /// Parse a request body. Shape only — the two-creative minimum
    /// ([`RANK_TOO_FEW`]) is checked by [`RankRequest::validate`] so the
    /// server can keep its distinct 400 message for it.
    pub fn from_json(body: &str) -> Result<Self, WireError> {
        let v = parse_body(body)?;
        let arr = v
            .get("creatives")
            .and_then(Json::as_array)
            .ok_or(WireError::Shape(RANK_REQUEST_SHAPE))?;
        let mut creatives = Vec::with_capacity(arr.len());
        for item in arr {
            creatives.push(
                item.as_str()
                    .ok_or(WireError::Shape(RANK_REQUEST_SHAPE))?
                    .to_string(),
            );
        }
        Ok(Self { creatives })
    }

    /// Enforce the two-creative minimum.
    pub fn validate(&self) -> Result<(), WireError> {
        if self.creatives.len() < 2 {
            return Err(WireError::Shape(RANK_TOO_FEW));
        }
        Ok(())
    }
}

/// Body of `POST /v1/batch`: a JSON **array** of [`ScoreRequest`] objects,
/// scored in one engine pass.
///
/// Wire shape: `[{"r":"…","s":"…"},…]`. An empty array is valid and yields
/// an empty [`BatchResponse`].
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct BatchRequest {
    /// The pairs to score, in order.
    pub items: Vec<ScoreRequest>,
}

impl BatchRequest {
    /// Render the request body.
    pub fn to_json(&self) -> String {
        let mut out = String::from("[");
        for (i, item) in self.items.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out = item.fill(JsonObject::continue_in(out)).finish();
        }
        out.push(']');
        out
    }

    /// Parse a request body.
    pub fn from_json(body: &str) -> Result<Self, WireError> {
        let items = Self::from_json_borrowed(body)?;
        Ok(Self {
            items: items.into_iter().map(PairRef::into_owned).collect(),
        })
    }

    /// Parse a request body into pairs that borrow it: the plain shape
    /// without a DOM, any other body through the [`Json`] DOM, which alone
    /// decides errors.
    pub fn from_json_borrowed(body: &str) -> Result<Vec<PairRef<'_>>, WireError> {
        if let Some(items) = plain_batch(body) {
            return Ok(items);
        }
        let v = parse_body(body)?;
        let arr = v.as_array().ok_or(WireError::Shape(BATCH_REQUEST_SHAPE))?;
        arr.iter()
            .map(|item| {
                ScoreRequest::from_value(item)
                    .map(PairRef::from)
                    .map_err(|_| WireError::Shape(BATCH_REQUEST_SHAPE))
            })
            .collect()
    }
}

/// Body of a 200 from `POST /v1/score`, and of each `results` element in a
/// [`BatchResponse`].
///
/// Wire shape (field order is contractual):
/// `{"score":…,"winner":"R","fidelity":"full","latency_us":…}` — degraded
/// responses insert `"degrade_reason":"…"` directly after `"fidelity"`, and
/// responses from a bundle that knows its model generation insert
/// `"generation":N` directly before `"latency_us"`.
#[derive(Debug, Clone, PartialEq)]
pub struct ScoreResponse {
    /// Log-odds margin, Eq. 5 orientation (positive ⇒ `r` out-clicks `s`).
    pub score: f64,
    /// Predicted winner, derived from `score` by [`Winner::from_score`].
    pub winner: Winner,
    /// Fidelity the score was computed at.
    pub fidelity: Fidelity,
    /// Generation of the model snapshot that served the score, when known.
    pub generation: Option<u64>,
    /// Wall-clock time spent scoring, in microseconds.
    pub latency_us: u64,
}

impl ScoreResponse {
    /// Build a response from a raw score, deriving the winner. No model
    /// generation; chain [`ScoreResponse::with_generation`] to add one.
    pub fn new(score: f64, fidelity: Fidelity, latency_us: u64) -> Self {
        Self {
            score,
            winner: Winner::from_score(score),
            fidelity,
            generation: None,
            latency_us,
        }
    }

    /// Attach (or clear) the serving model generation.
    pub fn with_generation(mut self, generation: Option<u64>) -> Self {
        self.generation = generation;
        self
    }

    /// Build a response from the engine's [`ScoreOutcome`].
    ///
    /// [`ScoreOutcome`]: microbrowse_core::serve::ScoreOutcome
    pub fn from_outcome(outcome: &microbrowse_core::serve::ScoreOutcome, latency_us: u64) -> Self {
        Self::new(outcome.score, (&outcome.fidelity).into(), latency_us)
    }

    fn fill(&self, obj: JsonObject) -> JsonObject {
        let obj = obj
            .f64("score", self.score)
            .str("winner", self.winner.as_str());
        append_generation(self.fidelity.append_to(obj), self.generation)
            .u64("latency_us", self.latency_us)
    }

    /// Render the server response body.
    pub fn to_json(&self) -> String {
        self.fill(JsonObject::new()).finish()
    }

    /// Render the CLI's `--json` line: the same fields prefixed with a
    /// `"command"` tag.
    pub fn to_json_with_command(&self, command: &str) -> String {
        self.fill(JsonObject::new().str("command", command))
            .finish()
    }

    /// Parse a response body (a leading `"command"` tag is tolerated and
    /// ignored, so CLI output parses too).
    pub fn from_json(body: &str) -> Result<Self, WireError> {
        Self::from_value(&parse_body(body)?)
    }

    /// Parse from an already-parsed JSON value (used per-item by
    /// [`BatchResponse`]).
    pub fn from_value(v: &Json) -> Result<Self, WireError> {
        let score = v
            .get("score")
            .and_then(Json::as_f64)
            .ok_or(WireError::Shape(SCORE_RESPONSE_SHAPE))?;
        let winner = match v.get("winner").and_then(Json::as_str) {
            Some("R") => Winner::R,
            Some("S") => Winner::S,
            _ => return Err(WireError::Shape(SCORE_RESPONSE_SHAPE)),
        };
        let fidelity = Fidelity::from_response(v, SCORE_RESPONSE_SHAPE)?;
        let generation = opt_u64(v, "generation", SCORE_RESPONSE_SHAPE)?;
        let latency_us = get_u64(v, "latency_us").ok_or(WireError::Shape(SCORE_RESPONSE_SHAPE))?;
        Ok(Self {
            score,
            winner,
            fidelity,
            generation,
            latency_us,
        })
    }
}

/// Body of a 200 from `POST /v1/rank`.
///
/// Wire shape: `{"order":[2,1,…],"fidelity":"full","latency_us":…}` — the
/// `order` entries are **1-based** positions into the request's `creatives`
/// array, best first. Degraded responses insert `"degrade_reason"` after
/// `"fidelity"`, and a known model generation inserts `"generation":N`
/// before `"latency_us"`, as in [`ScoreResponse`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RankResponse {
    /// 1-based indices into the request's creatives, best first.
    pub order: Vec<usize>,
    /// Fidelity the ranking was computed at.
    pub fidelity: Fidelity,
    /// Generation of the model snapshot that ranked, when known.
    pub generation: Option<u64>,
    /// Wall-clock time spent ranking, in microseconds.
    pub latency_us: u64,
}

impl RankResponse {
    /// Build from the engine's zero-based ranking (shifts every index up
    /// by one for the wire). No model generation; chain
    /// [`RankResponse::with_generation`] to add one.
    pub fn from_zero_based(order: &[usize], fidelity: Fidelity, latency_us: u64) -> Self {
        Self {
            order: order.iter().map(|i| i + 1).collect(),
            fidelity,
            generation: None,
            latency_us,
        }
    }

    /// Attach (or clear) the serving model generation.
    pub fn with_generation(mut self, generation: Option<u64>) -> Self {
        self.generation = generation;
        self
    }

    fn fill(&self, obj: JsonObject) -> JsonObject {
        let obj = obj.array("order", &self.order, |out, &i| {
            json::write_u64(out, i as u64)
        });
        append_generation(self.fidelity.append_to(obj), self.generation)
            .u64("latency_us", self.latency_us)
    }

    /// Render the server response body.
    pub fn to_json(&self) -> String {
        self.fill(JsonObject::new()).finish()
    }

    /// Render the CLI's `--json` line, `"command"`-prefixed.
    pub fn to_json_with_command(&self, command: &str) -> String {
        self.fill(JsonObject::new().str("command", command))
            .finish()
    }

    /// Parse a response body (a leading `"command"` tag is tolerated).
    pub fn from_json(body: &str) -> Result<Self, WireError> {
        let v = parse_body(body)?;
        let arr = v
            .get("order")
            .and_then(Json::as_array)
            .ok_or(WireError::Shape(RANK_RESPONSE_SHAPE))?;
        let mut order = Vec::with_capacity(arr.len());
        for item in arr {
            let n = item
                .as_f64()
                .filter(|n| n.is_finite() && *n >= 1.0 && n.fract() == 0.0)
                .ok_or(WireError::Shape(RANK_RESPONSE_SHAPE))?;
            order.push(n as usize);
        }
        let fidelity = Fidelity::from_response(&v, RANK_RESPONSE_SHAPE)?;
        let generation = opt_u64(&v, "generation", RANK_RESPONSE_SHAPE)?;
        let latency_us = get_u64(&v, "latency_us").ok_or(WireError::Shape(RANK_RESPONSE_SHAPE))?;
        Ok(Self {
            order,
            fidelity,
            generation,
            latency_us,
        })
    }
}

/// Body of a 200 from `POST /v1/batch`.
///
/// Wire shape: `{"results":[…],"count":N,"fidelity":"full","latency_us":T}`
/// — `results` holds one [`ScoreResponse`] object per request item, in
/// request order, each with its **own** per-item latency; `count` is
/// `results.len()` (redundant but cheap for clients that stream);
/// `fidelity` (plus `degrade_reason` when degraded) is the batch-level
/// fidelity every item was scored at; a known model generation inserts
/// `"generation":N` before `"latency_us"`, which is the wall-clock time for
/// the whole batch.
#[derive(Debug, Clone, PartialEq)]
pub struct BatchResponse {
    /// Per-item results, in request order.
    pub results: Vec<ScoreResponse>,
    /// Fidelity the whole batch was scored at.
    pub fidelity: Fidelity,
    /// Generation of the model snapshot that scored, when known.
    pub generation: Option<u64>,
    /// Wall-clock time for the whole batch, in microseconds.
    pub latency_us: u64,
}

impl BatchResponse {
    /// Render the response body into one buffer, sized up front for every
    /// result (about 80 bytes each). A result scored at the batch's
    /// fidelity and generation — every result the server renders — differs
    /// from the others only in its score, winner and latency, so its
    /// members from `"winner"` up to `"latency_us":` are rendered once per
    /// winner and copied; any other result renders all of its own fields.
    pub fn to_json(&self) -> String {
        let [tail_r, tail_s] =
            [Winner::R, Winner::S].map(|w| item_tail(w, &self.fidelity, self.generation));
        let buf = String::with_capacity(128 + 96 * self.results.len());
        let obj = JsonObject::continue_in(buf)
            .array("results", &self.results, |out, r| {
                if r.fidelity != self.fidelity || r.generation != self.generation {
                    *out = r
                        .fill(JsonObject::continue_in(std::mem::take(out)))
                        .finish();
                    return;
                }
                out.push_str("{\"score\":");
                json::write_f64(out, r.score);
                out.push(',');
                out.push_str(match r.winner {
                    Winner::R => &tail_r,
                    Winner::S => &tail_s,
                });
                json::write_u64(out, r.latency_us);
                out.push('}');
            })
            .u64("count", self.results.len() as u64);
        append_generation(self.fidelity.append_to(obj), self.generation)
            .u64("latency_us", self.latency_us)
            .finish()
    }

    /// Parse a response body. `count` is ignored on read — `results.len()`
    /// is authoritative.
    pub fn from_json(body: &str) -> Result<Self, WireError> {
        let v = parse_body(body)?;
        let arr = v
            .get("results")
            .and_then(Json::as_array)
            .ok_or(WireError::Shape(BATCH_RESPONSE_SHAPE))?;
        let mut results = Vec::with_capacity(arr.len());
        for item in arr {
            results.push(
                ScoreResponse::from_value(item)
                    .map_err(|_| WireError::Shape(BATCH_RESPONSE_SHAPE))?,
            );
        }
        let fidelity = Fidelity::from_response(&v, BATCH_RESPONSE_SHAPE)?;
        let generation = opt_u64(&v, "generation", BATCH_RESPONSE_SHAPE)?;
        let latency_us = get_u64(&v, "latency_us").ok_or(WireError::Shape(BATCH_RESPONSE_SHAPE))?;
        Ok(Self {
            results,
            fidelity,
            generation,
            latency_us,
        })
    }
}

/// The members a [`ScoreResponse`] with `winner`, `fidelity` and
/// `generation` renders between its score and its latency value:
/// `"winner":…` up to and including `"latency_us":`. Rendered by the same
/// builder calls as [`ScoreResponse::fill`], so a copied tail is
/// byte-identical to the fields it stands for.
fn item_tail(winner: Winner, fidelity: &Fidelity, generation: Option<u64>) -> String {
    let obj = JsonObject::new().str("winner", winner.as_str());
    let mut tail = append_generation(fidelity.append_to(obj), generation)
        .u64("latency_us", 0)
        .finish();
    // `{"winner":…,"latency_us":0}` → `"winner":…,"latency_us":`
    tail.truncate(tail.len() - "0}".len());
    tail.split_off(1)
}

/// One aggregated impression/click observation for a creative, as it
/// appears in a `POST /v1/feedback` batch.
///
/// Wire shape: `{"adgroup":G,"creative":C,"snippet":"…","position":P,
/// "query_class":"…","impressions":N,"clicks":K}`. `snippet` uses the
/// same `|`-separated line spelling as `/v1/score`; `position` is the
/// 1-based SERP slot the creative was shown at; `query_class` buckets the
/// adgroup's keyword and becomes its keyword in the online refit (empty is
/// allowed). The online learner does not use `position`: it is accepted,
/// journaled and replayed, but no model reads it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FeedbackEvent {
    /// Adgroup the creative competed in.
    pub adgroup: u64,
    /// Creative the counts belong to.
    pub creative: u64,
    /// Creative text, `|`-separated lines (headline first).
    pub snippet: String,
    /// 1-based SERP position the impressions were served at (journaled;
    /// unused by the learner).
    pub position: u64,
    /// Query class of the adgroup's keyword (may be empty).
    pub query_class: String,
    /// Impressions observed.
    pub impressions: u64,
    /// Clicks observed (at most `impressions`; the server clamps).
    pub clicks: u64,
}

impl FeedbackEvent {
    /// Render the event object.
    pub fn to_json(&self) -> String {
        self.fill(JsonObject::new()).finish()
    }

    fn fill(&self, obj: JsonObject) -> JsonObject {
        obj.u64("adgroup", self.adgroup)
            .u64("creative", self.creative)
            .str("snippet", &self.snippet)
            .u64("position", self.position)
            .str("query_class", &self.query_class)
            .u64("impressions", self.impressions)
            .u64("clicks", self.clicks)
    }

    /// Parse one event out of a parsed `events` array element.
    pub fn from_value(v: &Json) -> Result<Self, WireError> {
        let shape = WireError::Shape(FEEDBACK_REQUEST_SHAPE);
        Ok(Self {
            adgroup: get_u64(v, "adgroup").ok_or(shape.clone())?,
            creative: get_u64(v, "creative").ok_or(shape.clone())?,
            snippet: v
                .get("snippet")
                .and_then(Json::as_str)
                .ok_or(shape.clone())?
                .to_string(),
            position: get_u64(v, "position").ok_or(shape.clone())?,
            query_class: v
                .get("query_class")
                .and_then(Json::as_str)
                .unwrap_or_default()
                .to_string(),
            impressions: get_u64(v, "impressions").ok_or(shape.clone())?,
            clicks: get_u64(v, "clicks").ok_or(shape)?,
        })
    }
}

/// Body of `POST /v1/feedback`: a batch of observations plus an optional
/// idempotency key.
///
/// Wire shape: `{"key":"…","events":[…]}`. The `X-Mb-Idempotency-Key`
/// request header, when present, overrides `key`; one of the two must be
/// non-empty. Batches that retry with the same key are accepted once and
/// reported as duplicates after that.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FeedbackRequest {
    /// Idempotency key (may be empty when the header carries it instead).
    pub key: String,
    /// The observations, in any order.
    pub events: Vec<FeedbackEvent>,
}

impl FeedbackRequest {
    /// Render the request body.
    pub fn to_json(&self) -> String {
        JsonObject::new()
            .str("key", &self.key)
            .objects("events", &self.events, |obj, e| e.fill(obj))
            .finish()
    }

    /// Parse a request body. A missing `key` parses as empty.
    pub fn from_json(body: &str) -> Result<Self, WireError> {
        let v = parse_body(body)?;
        let key = v
            .get("key")
            .and_then(Json::as_str)
            .unwrap_or_default()
            .to_string();
        let arr = v
            .get("events")
            .and_then(Json::as_array)
            .ok_or(WireError::Shape(FEEDBACK_REQUEST_SHAPE))?;
        let mut events = Vec::with_capacity(arr.len());
        for item in arr {
            events.push(FeedbackEvent::from_value(item)?);
        }
        Ok(Self { key, events })
    }

    /// Semantic validation beyond shape: the batch must not be empty.
    pub fn validate(&self) -> Result<(), WireError> {
        if self.events.is_empty() {
            return Err(WireError::Shape(FEEDBACK_NO_EVENTS));
        }
        Ok(())
    }
}

/// Body of a 200 from `POST /v1/feedback`.
///
/// Wire shape: `{"accepted":N,"deduped":B,"seq":S,"latency_us":T}`.
/// `accepted` is the number of events journaled (0 on a duplicate);
/// `deduped` is true when the idempotency key was already in the journal
/// window; `seq` is the journal sequence number the batch holds — the one
/// the original append got, when deduped.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FeedbackResponse {
    /// Events journaled by this request (0 on a duplicate).
    pub accepted: u64,
    /// True when the idempotency key was already journaled.
    pub deduped: bool,
    /// Journal sequence number holding this batch.
    pub seq: u64,
    /// Server-side wall-clock time, in microseconds.
    pub latency_us: u64,
}

impl FeedbackResponse {
    /// Render the response body.
    pub fn to_json(&self) -> String {
        JsonObject::new()
            .u64("accepted", self.accepted)
            .bool("deduped", self.deduped)
            .u64("seq", self.seq)
            .u64("latency_us", self.latency_us)
            .finish()
    }

    /// Parse a response body.
    pub fn from_json(body: &str) -> Result<Self, WireError> {
        let v = parse_body(body)?;
        let shape = WireError::Shape(FEEDBACK_RESPONSE_SHAPE);
        Ok(Self {
            accepted: get_u64(&v, "accepted").ok_or(shape.clone())?,
            deduped: v
                .get("deduped")
                .and_then(Json::as_bool)
                .ok_or(shape.clone())?,
            seq: get_u64(&v, "seq").ok_or(shape.clone())?,
            latency_us: get_u64(&v, "latency_us").ok_or(shape)?,
        })
    }
}

/// Body of `POST /v1/suggest`: one creative to improve, plus optional beam
/// knobs.
///
/// Wire shape: `{"creative":"…","beam_width":B,"max_depth":D,"top_k":K}` —
/// only `creative` is required; absent knobs fall back to the server's
/// defaults, and requested values are capped by the server's `--max-beam` /
/// `--max-suggestions` limits (413 over the cap).
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct SuggestRequest {
    /// Creative to improve, `|`-separated lines (headline first).
    pub creative: String,
    /// Beam width override (candidates kept per depth).
    pub beam_width: Option<u64>,
    /// Maximum rewrite-chain depth override.
    pub max_depth: Option<u64>,
    /// Number of suggestions to return.
    pub top_k: Option<u64>,
}

impl SuggestRequest {
    /// Build a request with server-default beam knobs.
    pub fn new(creative: impl Into<String>) -> Self {
        Self {
            creative: creative.into(),
            ..Self::default()
        }
    }

    /// Render the request body (absent knobs are omitted).
    pub fn to_json(&self) -> String {
        let obj = JsonObject::new().str("creative", &self.creative);
        let obj = match self.beam_width {
            Some(b) => obj.u64("beam_width", b),
            None => obj,
        };
        let obj = match self.max_depth {
            Some(d) => obj.u64("max_depth", d),
            None => obj,
        };
        match self.top_k {
            Some(k) => obj.u64("top_k", k),
            None => obj,
        }
        .finish()
    }

    /// Parse a request body. Knobs that are present but not non-negative
    /// integers are shape errors, not silently dropped.
    pub fn from_json(body: &str) -> Result<Self, WireError> {
        let v = parse_body(body)?;
        let creative = v
            .get("creative")
            .and_then(Json::as_str)
            .ok_or(WireError::Shape(SUGGEST_REQUEST_SHAPE))?
            .to_string();
        Ok(Self {
            creative,
            beam_width: opt_u64(&v, "beam_width", SUGGEST_REQUEST_SHAPE)?,
            max_depth: opt_u64(&v, "max_depth", SUGGEST_REQUEST_SHAPE)?,
            top_k: opt_u64(&v, "top_k", SUGGEST_REQUEST_SHAPE)?,
        })
    }
}

/// One applied phrase substitution inside a [`SuggestedVariant`].
///
/// Wire shape: `{"from":"…","to":"…","line":L,"pos":P,"delta":D}` — `line` /
/// `pos` locate the replaced phrase in the variant the step was applied to
/// (zero-based), `delta` is the score gained by this single step.
#[derive(Debug, Clone, PartialEq)]
pub struct SuggestedRewrite {
    /// Phrase that was replaced.
    pub from: String,
    /// Phrase it was replaced with.
    pub to: String,
    /// Zero-based line of the replaced phrase.
    pub line: u64,
    /// Zero-based token offset of the replaced phrase within its line.
    pub pos: u64,
    /// Score delta contributed by this step.
    pub delta: f64,
}

impl SuggestedRewrite {
    fn fill(&self, obj: JsonObject) -> JsonObject {
        obj.str("from", &self.from)
            .str("to", &self.to)
            .u64("line", self.line)
            .u64("pos", self.pos)
            .f64("delta", self.delta)
    }

    fn from_value(v: &Json) -> Result<Self, WireError> {
        let shape = WireError::Shape(SUGGEST_RESPONSE_SHAPE);
        Ok(Self {
            from: v
                .get("from")
                .and_then(Json::as_str)
                .ok_or(shape.clone())?
                .to_string(),
            to: v
                .get("to")
                .and_then(Json::as_str)
                .ok_or(shape.clone())?
                .to_string(),
            line: get_u64(v, "line").ok_or(shape.clone())?,
            pos: get_u64(v, "pos").ok_or(shape.clone())?,
            delta: v.get("delta").and_then(Json::as_f64).ok_or(shape)?,
        })
    }
}

impl From<&microbrowse_core::suggest::RewriteStep> for SuggestedRewrite {
    fn from(step: &microbrowse_core::suggest::RewriteStep) -> Self {
        Self {
            from: step.from.clone(),
            to: step.to.clone(),
            line: step.line as u64,
            pos: step.pos as u64,
            delta: step.delta,
        }
    }
}

/// One rewritten variant inside a [`SuggestResponse`].
///
/// Wire shape: `{"creative":"…","score":S,"rewrites":[…]}` — `creative` is
/// the rewritten text in the `|`-separated line spelling, `score` its margin
/// over the input creative (positive ⇒ the variant is predicted to
/// out-click the input), `rewrites` the substitution chain that produced it
/// in application order.
#[derive(Debug, Clone, PartialEq)]
pub struct SuggestedVariant {
    /// Rewritten creative, `|`-separated lines.
    pub creative: String,
    /// Margin of the variant over the input creative.
    pub score: f64,
    /// Substitution chain, in application order.
    pub rewrites: Vec<SuggestedRewrite>,
}

impl SuggestedVariant {
    fn fill(&self, obj: JsonObject) -> JsonObject {
        obj.str("creative", &self.creative)
            .f64("score", self.score)
            .objects("rewrites", &self.rewrites, |obj, r| r.fill(obj))
    }

    fn from_value(v: &Json) -> Result<Self, WireError> {
        let shape = WireError::Shape(SUGGEST_RESPONSE_SHAPE);
        let creative = v
            .get("creative")
            .and_then(Json::as_str)
            .ok_or(shape.clone())?
            .to_string();
        let score = v.get("score").and_then(Json::as_f64).ok_or(shape.clone())?;
        let arr = v.get("rewrites").and_then(Json::as_array).ok_or(shape)?;
        let mut rewrites = Vec::with_capacity(arr.len());
        for item in arr {
            rewrites.push(SuggestedRewrite::from_value(item)?);
        }
        Ok(Self {
            creative,
            score,
            rewrites,
        })
    }
}

/// Body of a 200 from `POST /v1/suggest`.
///
/// Wire shape:
/// `{"suggestions":[…],"count":N,"fidelity":"full","latency_us":T}` —
/// `suggestions` holds [`SuggestedVariant`] objects best-first; `count` is
/// `suggestions.len()`; fidelity/generation placement matches every other
/// scoring response. An empty `suggestions` array is a valid 200: the
/// beam found no variant that out-scores the input (or the scorer is
/// degraded and rewrites are off).
#[derive(Debug, Clone, PartialEq)]
pub struct SuggestResponse {
    /// Suggested variants, best first.
    pub suggestions: Vec<SuggestedVariant>,
    /// Fidelity the beam search scored at.
    pub fidelity: Fidelity,
    /// Generation of the model snapshot that scored, when known.
    pub generation: Option<u64>,
    /// Wall-clock time for the whole beam search, in microseconds.
    pub latency_us: u64,
}

impl SuggestResponse {
    fn fill(&self, obj: JsonObject) -> JsonObject {
        let obj = obj
            .objects("suggestions", &self.suggestions, |obj, v| v.fill(obj))
            .u64("count", self.suggestions.len() as u64);
        append_generation(self.fidelity.append_to(obj), self.generation)
            .u64("latency_us", self.latency_us)
    }

    /// Render the server response body.
    pub fn to_json(&self) -> String {
        self.fill(JsonObject::new()).finish()
    }

    /// Render the CLI's `--json` line, `"command"`-prefixed.
    pub fn to_json_with_command(&self, command: &str) -> String {
        self.fill(JsonObject::new().str("command", command))
            .finish()
    }

    /// Parse a response body. `count` is ignored on read.
    pub fn from_json(body: &str) -> Result<Self, WireError> {
        let v = parse_body(body)?;
        let arr = v
            .get("suggestions")
            .and_then(Json::as_array)
            .ok_or(WireError::Shape(SUGGEST_RESPONSE_SHAPE))?;
        let mut suggestions = Vec::with_capacity(arr.len());
        for item in arr {
            suggestions.push(SuggestedVariant::from_value(item)?);
        }
        let fidelity = Fidelity::from_response(&v, SUGGEST_RESPONSE_SHAPE)?;
        let generation = opt_u64(&v, "generation", SUGGEST_RESPONSE_SHAPE)?;
        let latency_us =
            get_u64(&v, "latency_us").ok_or(WireError::Shape(SUGGEST_RESPONSE_SHAPE))?;
        Ok(Self {
            suggestions,
            fidelity,
            generation,
            latency_us,
        })
    }
}

/// Body of `POST /v1/explain`: the same two-creative pair as a
/// [`ScoreRequest`], scored *and* decomposed span by span.
///
/// Wire shape: `{"r":"…","s":"…"}`; malformed bodies report
/// [`SCORE_REQUEST_SHAPE`], which describes this shape too.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ExplainRequest {
    /// Candidate creative (the "R" side).
    pub r: String,
    /// Reference creative (the "S" side).
    pub s: String,
}

impl ExplainRequest {
    /// Render the request body.
    pub fn to_json(&self) -> String {
        JsonObject::new()
            .str("r", &self.r)
            .str("s", &self.s)
            .finish()
    }

    /// Parse a request body.
    pub fn from_json(body: &str) -> Result<Self, WireError> {
        let ScoreRequest { r, s } = PairRef::from_json(body)?.into_owned();
        Ok(Self { r, s })
    }
}

/// What kind of model feature a wire span attribution prices.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SpanKind {
    /// `"kind":"term"` — an n-gram occurrence on one side.
    Term,
    /// `"kind":"rewrite"` — an aligned phrase substitution.
    Rewrite,
}

impl SpanKind {
    /// The wire spelling: `"term"` or `"rewrite"`.
    pub fn as_str(self) -> &'static str {
        match self {
            SpanKind::Term => "term",
            SpanKind::Rewrite => "rewrite",
        }
    }
}

/// Which creative a wire span attribution anchors to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SpanSide {
    /// `"side":"R"` — the candidate creative.
    R,
    /// `"side":"S"` — the reference creative.
    S,
}

impl SpanSide {
    /// The wire spelling: `"R"` or `"S"`.
    pub fn as_str(self) -> &'static str {
        match self {
            SpanSide::R => "R",
            SpanSide::S => "S",
        }
    }
}

/// One span of an [`ExplainResponse`]: a term or rewrite occurrence with
/// its trained weight and score contribution.
///
/// Wire shape (field order is contractual):
/// `{"kind":"term","side":"R","text":"…","line":L,"pos":P,"value":V,
/// "weight":W,"contribution":C}` — rewrite spans insert `"to":"…"` after
/// `"text"` and `"to_line":L,"to_pos":P` after `"pos"`.
#[derive(Debug, Clone, PartialEq)]
pub struct SpanAttribution {
    /// Term or rewrite.
    pub kind: SpanKind,
    /// Side the anchoring span lives in (rewrites anchor R).
    pub side: SpanSide,
    /// The span's phrase (for rewrites, in the observed direction).
    pub text: String,
    /// For rewrites: the S-side replacement phrase.
    pub to: Option<String>,
    /// Zero-based line of the anchoring span.
    pub line: u64,
    /// Zero-based token offset within the line.
    pub pos: u64,
    /// For rewrites: `(line, pos)` of the S-side occurrence.
    pub to_span: Option<(u64, u64)>,
    /// Antisymmetric feature value (+1 R-side, −1 S-side).
    pub value: f64,
    /// Trained weight the value is priced at (0 outside the vocabulary).
    pub weight: f64,
    /// `value × weight` — this span's share of the margin.
    pub contribution: f64,
}

impl SpanAttribution {
    fn fill(&self, obj: JsonObject) -> JsonObject {
        let obj = obj
            .str("kind", self.kind.as_str())
            .str("side", self.side.as_str())
            .str("text", &self.text);
        let obj = match &self.to {
            Some(to) => obj.str("to", to),
            None => obj,
        };
        let obj = obj.u64("line", self.line).u64("pos", self.pos);
        let obj = match self.to_span {
            Some((l, p)) => obj.u64("to_line", l).u64("to_pos", p),
            None => obj,
        };
        obj.f64("value", self.value)
            .f64("weight", self.weight)
            .f64("contribution", self.contribution)
    }

    fn from_value(v: &Json) -> Result<Self, WireError> {
        let shape = WireError::Shape(EXPLAIN_RESPONSE_SHAPE);
        let kind = match v.get("kind").and_then(Json::as_str) {
            Some("term") => SpanKind::Term,
            Some("rewrite") => SpanKind::Rewrite,
            _ => return Err(shape),
        };
        let side = match v.get("side").and_then(Json::as_str) {
            Some("R") => SpanSide::R,
            Some("S") => SpanSide::S,
            _ => return Err(shape),
        };
        let text = v
            .get("text")
            .and_then(Json::as_str)
            .ok_or(shape.clone())?
            .to_string();
        let to = v.get("to").and_then(Json::as_str).map(str::to_string);
        let line = get_u64(v, "line").ok_or(shape.clone())?;
        let pos = get_u64(v, "pos").ok_or(shape.clone())?;
        let to_span = match (
            opt_u64(v, "to_line", EXPLAIN_RESPONSE_SHAPE)?,
            opt_u64(v, "to_pos", EXPLAIN_RESPONSE_SHAPE)?,
        ) {
            (Some(l), Some(p)) => Some((l, p)),
            (None, None) => None,
            _ => return Err(shape),
        };
        let value = v.get("value").and_then(Json::as_f64).ok_or(shape.clone())?;
        let weight = v
            .get("weight")
            .and_then(Json::as_f64)
            .ok_or(shape.clone())?;
        let contribution = v.get("contribution").and_then(Json::as_f64).ok_or(shape)?;
        Ok(Self {
            kind,
            side,
            text,
            to,
            line,
            pos,
            to_span,
            value,
            weight,
            contribution,
        })
    }
}

impl From<&microbrowse_core::explain::SpanAttribution> for SpanAttribution {
    fn from(a: &microbrowse_core::explain::SpanAttribution) -> Self {
        Self {
            kind: match a.kind {
                microbrowse_core::explain::SpanKind::Term => SpanKind::Term,
                microbrowse_core::explain::SpanKind::Rewrite => SpanKind::Rewrite,
            },
            side: match a.side {
                microbrowse_core::features::SpanSide::R => SpanSide::R,
                microbrowse_core::features::SpanSide::S => SpanSide::S,
            },
            text: a.text.clone(),
            to: a.to.clone(),
            line: a.line as u64,
            pos: a.pos as u64,
            to_span: a.to_span.map(|(l, p)| (l as u64, p as u64)),
            value: a.value,
            weight: a.weight,
            contribution: a.contribution,
        }
    }
}

/// Body of a 200 from `POST /v1/explain`.
///
/// Wire shape: `{"score":S,"bias":B,"spans":[…],"count":N,
/// "fidelity":"full","latency_us":T}` — `score` is exactly what
/// `/v1/score` would serve for the pair, `bias` the classifier intercept,
/// `spans` the per-span decomposition (`bias + Σ contribution ≈ score`),
/// `count` is `spans.len()`; fidelity/generation placement matches every
/// other scoring response.
#[derive(Debug, Clone, PartialEq)]
pub struct ExplainResponse {
    /// The pair's margin, as `/v1/score` would serve it.
    pub score: f64,
    /// The classifier intercept.
    pub bias: f64,
    /// Per-span attributions, in featurizer emission order.
    pub spans: Vec<SpanAttribution>,
    /// Fidelity the explanation was computed at.
    pub fidelity: Fidelity,
    /// Generation of the model snapshot that scored, when known.
    pub generation: Option<u64>,
    /// Server-side wall-clock time, in microseconds.
    pub latency_us: u64,
}

impl ExplainResponse {
    fn fill(&self, obj: JsonObject) -> JsonObject {
        let obj = obj
            .f64("score", self.score)
            .f64("bias", self.bias)
            .objects("spans", &self.spans, |obj, span| span.fill(obj))
            .u64("count", self.spans.len() as u64);
        append_generation(self.fidelity.append_to(obj), self.generation)
            .u64("latency_us", self.latency_us)
    }

    /// Render the server response body.
    pub fn to_json(&self) -> String {
        self.fill(JsonObject::new()).finish()
    }

    /// Render the CLI's `--json` line, `"command"`-prefixed.
    pub fn to_json_with_command(&self, command: &str) -> String {
        self.fill(JsonObject::new().str("command", command))
            .finish()
    }

    /// Parse a response body. `count` is ignored on read.
    pub fn from_json(body: &str) -> Result<Self, WireError> {
        let v = parse_body(body)?;
        let shape = WireError::Shape(EXPLAIN_RESPONSE_SHAPE);
        let score = v.get("score").and_then(Json::as_f64).ok_or(shape.clone())?;
        let bias = v.get("bias").and_then(Json::as_f64).ok_or(shape.clone())?;
        let arr = v.get("spans").and_then(Json::as_array).ok_or(shape)?;
        let mut spans = Vec::with_capacity(arr.len());
        for item in arr {
            spans.push(SpanAttribution::from_value(item)?);
        }
        let fidelity = Fidelity::from_response(&v, EXPLAIN_RESPONSE_SHAPE)?;
        let generation = opt_u64(&v, "generation", EXPLAIN_RESPONSE_SHAPE)?;
        let latency_us =
            get_u64(&v, "latency_us").ok_or(WireError::Shape(EXPLAIN_RESPONSE_SHAPE))?;
        Ok(Self {
            score,
            bias,
            spans,
            fidelity,
            generation,
            latency_us,
        })
    }
}

/// Machine-readable code for a request shed because its deadline (the
/// `X-Mb-Deadline-Ms` budget or the server default) expired before scoring.
pub const CODE_DEADLINE_EXCEEDED: &str = "deadline_exceeded";
/// Machine-readable code for a request refused or reaped under overload
/// (full queue, connection cap, stale queue entry); retry after backoff.
pub const CODE_OVERLOADED: &str = "overloaded";
/// Machine-readable code for a request whose deadline header did not parse.
pub const CODE_BAD_DEADLINE: &str = "bad_deadline";
/// Machine-readable code for a 400: the body failed to parse or validate.
pub const CODE_BAD_REQUEST: &str = "bad_request";
/// Machine-readable code for a 404: no such v1 endpoint.
pub const CODE_NOT_FOUND: &str = "not_found";
/// Machine-readable code for a 405: the endpoint exists, the method is wrong.
pub const CODE_METHOD_NOT_ALLOWED: &str = "method_not_allowed";
/// Machine-readable code for a 413: body, batch, or beam over the cap.
pub const CODE_TOO_LARGE: &str = "too_large";
/// Machine-readable code for a 408: the client sent bytes too slowly.
pub const CODE_TIMEOUT: &str = "request_timeout";
/// Machine-readable code for a 503 with no retry cure: the endpoint is
/// disabled or has no backing state (distinct from [`CODE_OVERLOADED`]).
pub const CODE_UNAVAILABLE: &str = "unavailable";
/// Machine-readable code for a 500: the server broke, not the request.
pub const CODE_INTERNAL: &str = "internal";

/// Body of every non-2xx response: `{"error":"…"}`, optionally followed by
/// a machine-readable `"code"` (one of the `CODE_*` constants) that retry
/// logic can branch on without parsing prose. Envelopes without a code
/// render exactly the pre-code bytes, so the field is wire-compatible.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ErrorEnvelope {
    /// Human-readable description of what went wrong.
    pub error: String,
    /// Machine-readable classification, when one applies (`CODE_*`).
    pub code: Option<String>,
}

impl ErrorEnvelope {
    /// Wrap a message with no machine-readable code.
    pub fn new(error: impl Into<String>) -> Self {
        Self {
            error: error.into(),
            code: None,
        }
    }

    /// Wrap a message with a machine-readable code (`CODE_*`).
    pub fn with_code(error: impl Into<String>, code: impl Into<String>) -> Self {
        Self {
            error: error.into(),
            code: Some(code.into()),
        }
    }

    /// Whether the envelope carries this machine-readable code.
    pub fn has_code(&self, code: &str) -> bool {
        self.code.as_deref() == Some(code)
    }

    /// Render the response body.
    pub fn to_json(&self) -> String {
        let obj = JsonObject::new().str("error", &self.error);
        match &self.code {
            Some(code) => obj.str("code", code).finish(),
            None => obj.finish(),
        }
    }

    /// Parse a response body.
    pub fn from_json(body: &str) -> Result<Self, WireError> {
        let v = parse_body(body)?;
        let error = v
            .get("error")
            .and_then(Json::as_str)
            .ok_or(WireError::Shape(ERROR_ENVELOPE_SHAPE))?;
        let code = v.get("code").and_then(Json::as_str).map(str::to_string);
        Ok(Self {
            error: error.to_string(),
            code,
        })
    }
}

impl From<WireError> for ErrorEnvelope {
    fn from(e: WireError) -> Self {
        Self::new(e.to_string())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use microbrowse_obs::json::assert_parses;
    use proptest::prelude::*;

    // ---- golden strings: every v1 shape, byte for byte -----------------

    #[test]
    fn golden_score_request() {
        let req = ScoreRequest {
            r: "Cheap Flights|book today".into(),
            s: "Flights \"4U\"|fees apply".into(),
        };
        let wire = req.to_json();
        assert_eq!(
            wire,
            r#"{"r":"Cheap Flights|book today","s":"Flights \"4U\"|fees apply"}"#
        );
        assert_parses(&wire);
        assert_eq!(ScoreRequest::from_json(&wire).unwrap(), req);
    }

    #[test]
    fn golden_rank_request() {
        let req = RankRequest {
            creatives: vec!["a|b".into(), "c".into()],
        };
        let wire = req.to_json();
        assert_eq!(wire, r#"{"creatives":["a|b","c"]}"#);
        assert_parses(&wire);
        assert_eq!(RankRequest::from_json(&wire).unwrap(), req);
        assert!(req.validate().is_ok());
    }

    #[test]
    fn golden_batch_request() {
        let req = BatchRequest {
            items: vec![
                ScoreRequest {
                    r: "a".into(),
                    s: "b".into(),
                },
                ScoreRequest {
                    r: "c".into(),
                    s: "d".into(),
                },
            ],
        };
        let wire = req.to_json();
        assert_eq!(wire, r#"[{"r":"a","s":"b"},{"r":"c","s":"d"}]"#);
        assert_parses(&wire);
        assert_eq!(BatchRequest::from_json(&wire).unwrap(), req);
        // Empty batches are legal.
        assert_eq!(BatchRequest::from_json("[]").unwrap().items.len(), 0);
    }

    #[test]
    fn golden_score_response_full() {
        let resp = ScoreResponse::new(1.5, Fidelity::Full, 42);
        let wire = resp.to_json();
        assert_eq!(
            wire,
            r#"{"score":1.5,"winner":"R","fidelity":"full","latency_us":42}"#
        );
        assert_parses(&wire);
        assert_eq!(ScoreResponse::from_json(&wire).unwrap(), resp);
    }

    #[test]
    fn golden_score_response_degraded() {
        let resp = ScoreResponse::new(
            -2.0,
            Fidelity::Degraded {
                reason: "stats snapshot missing".into(),
            },
            7,
        );
        let wire = resp.to_json();
        assert_eq!(
            wire,
            r#"{"score":-2.0,"winner":"S","fidelity":"degraded","degrade_reason":"stats snapshot missing","latency_us":7}"#
        );
        assert_parses(&wire);
        assert_eq!(ScoreResponse::from_json(&wire).unwrap(), resp);
    }

    #[test]
    fn golden_score_response_with_command() {
        let resp = ScoreResponse::new(0.25, Fidelity::Full, 9);
        let wire = resp.to_json_with_command("score");
        assert_eq!(
            wire,
            r#"{"command":"score","score":0.25,"winner":"R","fidelity":"full","latency_us":9}"#
        );
        assert_parses(&wire);
        // The command tag round-trips through the plain parser.
        assert_eq!(ScoreResponse::from_json(&wire).unwrap(), resp);
    }

    #[test]
    fn golden_rank_response() {
        let resp = RankResponse::from_zero_based(&[1, 0, 2], Fidelity::Full, 100);
        let wire = resp.to_json();
        assert_eq!(
            wire,
            r#"{"order":[2,1,3],"fidelity":"full","latency_us":100}"#
        );
        assert_parses(&wire);
        assert_eq!(RankResponse::from_json(&wire).unwrap(), resp);
    }

    #[test]
    fn golden_rank_response_degraded_with_command() {
        let resp = RankResponse::from_zero_based(
            &[0, 1],
            Fidelity::Degraded {
                reason: "stats snapshot missing".into(),
            },
            3,
        );
        let wire = resp.to_json_with_command("rank");
        assert_eq!(
            wire,
            r#"{"command":"rank","order":[1,2],"fidelity":"degraded","degrade_reason":"stats snapshot missing","latency_us":3}"#
        );
        assert_parses(&wire);
        assert_eq!(RankResponse::from_json(&wire).unwrap(), resp);
    }

    #[test]
    fn golden_batch_response() {
        let resp = BatchResponse {
            results: vec![
                ScoreResponse::new(1.0, Fidelity::Full, 5),
                ScoreResponse::new(-0.5, Fidelity::Full, 4),
            ],
            fidelity: Fidelity::Full,
            generation: None,
            latency_us: 11,
        };
        let wire = resp.to_json();
        assert_eq!(
            wire,
            r#"{"results":[{"score":1.0,"winner":"R","fidelity":"full","latency_us":5},{"score":-0.5,"winner":"S","fidelity":"full","latency_us":4}],"count":2,"fidelity":"full","latency_us":11}"#
        );
        assert_parses(&wire);
        assert_eq!(BatchResponse::from_json(&wire).unwrap(), resp);
    }

    #[test]
    fn golden_batch_response_with_generation() {
        let resp = BatchResponse {
            results: vec![ScoreResponse::new(1.0, Fidelity::Full, 5).with_generation(Some(3))],
            fidelity: Fidelity::Full,
            generation: Some(3),
            latency_us: 9,
        };
        let wire = resp.to_json();
        assert_eq!(
            wire,
            r#"{"results":[{"score":1.0,"winner":"R","fidelity":"full","generation":3,"latency_us":5}],"count":1,"fidelity":"full","generation":3,"latency_us":9}"#
        );
        assert_parses(&wire);
        assert_eq!(BatchResponse::from_json(&wire).unwrap(), resp);
    }

    #[test]
    fn golden_score_response_with_generation() {
        let resp = ScoreResponse::new(1.5, Fidelity::Full, 42).with_generation(Some(7));
        let wire = resp.to_json();
        assert_eq!(
            wire,
            r#"{"score":1.5,"winner":"R","fidelity":"full","generation":7,"latency_us":42}"#
        );
        assert_parses(&wire);
        assert_eq!(ScoreResponse::from_json(&wire).unwrap(), resp);
        // Generation slots between the fidelity fields and latency when
        // degraded, too.
        let deg = ScoreResponse::new(
            -1.0,
            Fidelity::Degraded {
                reason: "stats snapshot missing".into(),
            },
            3,
        )
        .with_generation(Some(2));
        assert_eq!(
            deg.to_json(),
            r#"{"score":-1.0,"winner":"S","fidelity":"degraded","degrade_reason":"stats snapshot missing","generation":2,"latency_us":3}"#
        );
    }

    #[test]
    fn golden_rank_response_with_generation() {
        let resp =
            RankResponse::from_zero_based(&[1, 0], Fidelity::Full, 8).with_generation(Some(4));
        let wire = resp.to_json();
        assert_eq!(
            wire,
            r#"{"order":[2,1],"fidelity":"full","generation":4,"latency_us":8}"#
        );
        assert_parses(&wire);
        assert_eq!(RankResponse::from_json(&wire).unwrap(), resp);
    }

    #[test]
    fn golden_suggest_request() {
        let req = SuggestRequest {
            creative: "book pricey flights|fees apply".into(),
            beam_width: Some(4),
            max_depth: Some(2),
            top_k: Some(3),
        };
        let wire = req.to_json();
        assert_eq!(
            wire,
            r#"{"creative":"book pricey flights|fees apply","beam_width":4,"max_depth":2,"top_k":3}"#
        );
        assert_parses(&wire);
        assert_eq!(SuggestRequest::from_json(&wire).unwrap(), req);
        // The minimal request carries only the creative.
        let min = SuggestRequest::new("a|b");
        assert_eq!(min.to_json(), r#"{"creative":"a|b"}"#);
        assert_eq!(SuggestRequest::from_json(&min.to_json()).unwrap(), min);
    }

    #[test]
    fn golden_suggest_response() {
        let resp = SuggestResponse {
            suggestions: vec![SuggestedVariant {
                creative: "book cheap flights".into(),
                score: 3.5,
                rewrites: vec![SuggestedRewrite {
                    from: "pricey".into(),
                    to: "cheap".into(),
                    line: 0,
                    pos: 1,
                    delta: 3.5,
                }],
            }],
            fidelity: Fidelity::Full,
            generation: Some(2),
            latency_us: 120,
        };
        let wire = resp.to_json();
        assert_eq!(
            wire,
            r#"{"suggestions":[{"creative":"book cheap flights","score":3.5,"rewrites":[{"from":"pricey","to":"cheap","line":0,"pos":1,"delta":3.5}]}],"count":1,"fidelity":"full","generation":2,"latency_us":120}"#
        );
        assert_parses(&wire);
        assert_eq!(SuggestResponse::from_json(&wire).unwrap(), resp);
        // Empty suggestion lists are a valid 200.
        let empty = SuggestResponse {
            suggestions: vec![],
            fidelity: Fidelity::Full,
            generation: None,
            latency_us: 5,
        };
        assert_eq!(
            empty.to_json(),
            r#"{"suggestions":[],"count":0,"fidelity":"full","latency_us":5}"#
        );
        assert_eq!(SuggestResponse::from_json(&empty.to_json()).unwrap(), empty);
        // The CLI line is the same fields, command-prefixed.
        assert!(resp
            .to_json_with_command("suggest")
            .starts_with(r#"{"command":"suggest","suggestions":"#));
    }

    #[test]
    fn golden_explain_request() {
        let req = ExplainRequest {
            r: "a|b".into(),
            s: "c".into(),
        };
        let wire = req.to_json();
        assert_eq!(wire, r#"{"r":"a|b","s":"c"}"#);
        assert_eq!(ExplainRequest::from_json(&wire).unwrap(), req);
        assert_eq!(
            ExplainRequest::from_json("{}"),
            Err(WireError::Shape(SCORE_REQUEST_SHAPE))
        );
    }

    #[test]
    fn golden_explain_response() {
        let resp = ExplainResponse {
            score: 3.75,
            bias: 0.25,
            spans: vec![
                SpanAttribution {
                    kind: SpanKind::Term,
                    side: SpanSide::R,
                    text: "cheap".into(),
                    to: None,
                    line: 0,
                    pos: 1,
                    to_span: None,
                    value: 1.0,
                    weight: 2.0,
                    contribution: 2.0,
                },
                SpanAttribution {
                    kind: SpanKind::Rewrite,
                    side: SpanSide::R,
                    text: "cheap".into(),
                    to: Some("pricey".into()),
                    line: 0,
                    pos: 1,
                    to_span: Some((0, 1)),
                    value: 1.0,
                    weight: 1.5,
                    contribution: 1.5,
                },
            ],
            fidelity: Fidelity::Full,
            generation: Some(1),
            latency_us: 33,
        };
        let wire = resp.to_json();
        assert_eq!(
            wire,
            r#"{"score":3.75,"bias":0.25,"spans":[{"kind":"term","side":"R","text":"cheap","line":0,"pos":1,"value":1.0,"weight":2.0,"contribution":2.0},{"kind":"rewrite","side":"R","text":"cheap","to":"pricey","line":0,"pos":1,"to_line":0,"to_pos":1,"value":1.0,"weight":1.5,"contribution":1.5}],"count":2,"fidelity":"full","generation":1,"latency_us":33}"#
        );
        assert_parses(&wire);
        assert_eq!(ExplainResponse::from_json(&wire).unwrap(), resp);
    }

    #[test]
    fn suggest_and_explain_shape_errors() {
        assert_eq!(
            SuggestRequest::from_json("{}"),
            Err(WireError::Shape(SUGGEST_REQUEST_SHAPE))
        );
        assert_eq!(
            SuggestRequest::from_json(r#"{"creative":"a","beam_width":-1}"#),
            Err(WireError::Shape(SUGGEST_REQUEST_SHAPE))
        );
        assert_eq!(
            SuggestResponse::from_json(
                r#"{"suggestions":[{"creative":"a"}],"count":1,"fidelity":"full","latency_us":1}"#
            ),
            Err(WireError::Shape(SUGGEST_RESPONSE_SHAPE))
        );
        assert_eq!(
            SuggestResponse::from_json(r#"{"count":0,"fidelity":"full","latency_us":1}"#),
            Err(WireError::Shape(SUGGEST_RESPONSE_SHAPE))
        );
        assert_eq!(
            ExplainResponse::from_json(
                r#"{"score":1.0,"bias":0.0,"spans":[{"kind":"nope"}],"count":1,"fidelity":"full","latency_us":1}"#
            ),
            Err(WireError::Shape(EXPLAIN_RESPONSE_SHAPE))
        );
        assert_eq!(
            ExplainResponse::from_json(
                r#"{"bias":0.0,"spans":[],"fidelity":"full","latency_us":1}"#
            ),
            Err(WireError::Shape(EXPLAIN_RESPONSE_SHAPE))
        );
        // A generation that is not a non-negative integer is a shape error.
        assert_eq!(
            ScoreResponse::from_json(
                r#"{"score":1.0,"winner":"R","fidelity":"full","generation":1.5,"latency_us":1}"#
            ),
            Err(WireError::Shape(SCORE_RESPONSE_SHAPE))
        );
    }

    #[test]
    fn span_attribution_converts_from_core() {
        let core_span = microbrowse_core::explain::SpanAttribution {
            kind: microbrowse_core::explain::SpanKind::Rewrite,
            side: microbrowse_core::features::SpanSide::R,
            text: "cheap".into(),
            to: Some("pricey".into()),
            line: 1,
            pos: 2,
            to_span: Some((1, 3)),
            value: -1.0,
            weight: 0.5,
            contribution: -0.5,
        };
        let wire = SpanAttribution::from(&core_span);
        assert_eq!(wire.kind, SpanKind::Rewrite);
        assert_eq!(wire.side, SpanSide::R);
        assert_eq!(wire.to.as_deref(), Some("pricey"));
        assert_eq!(wire.to_span, Some((1, 3)));
        assert_eq!(wire.contribution, -0.5);
    }

    #[test]
    fn golden_error_envelope() {
        let env = ErrorEnvelope::new("server busy, queue full");
        let wire = env.to_json();
        assert_eq!(wire, r#"{"error":"server busy, queue full"}"#);
        assert_parses(&wire);
        assert_eq!(ErrorEnvelope::from_json(&wire).unwrap(), env);
    }

    #[test]
    fn golden_error_envelope_with_code() {
        let env = ErrorEnvelope::with_code("deadline expired in queue", CODE_DEADLINE_EXCEEDED);
        let wire = env.to_json();
        assert_eq!(
            wire,
            r#"{"error":"deadline expired in queue","code":"deadline_exceeded"}"#
        );
        assert_parses(&wire);
        let parsed = ErrorEnvelope::from_json(&wire).unwrap();
        assert_eq!(parsed, env);
        assert!(parsed.has_code(CODE_DEADLINE_EXCEEDED));
        assert!(!parsed.has_code(CODE_OVERLOADED));
        // Envelopes without a code keep the pre-code wire bytes.
        assert!(!ErrorEnvelope::new("x").to_json().contains("code"));
    }

    // ---- error strings match the server's 400 bodies -------------------

    #[test]
    fn wire_error_strings_are_the_server_strings() {
        assert_eq!(
            WireError::Syntax(17).to_string(),
            "body is not valid JSON (error at byte 17)"
        );
        assert_eq!(
            WireError::Shape(SCORE_REQUEST_SHAPE).to_string(),
            "body must have string fields \"r\" and \"s\""
        );
        assert_eq!(
            WireError::Shape(RANK_REQUEST_SHAPE).to_string(),
            "body must have a string array field \"creatives\""
        );
        assert_eq!(
            WireError::Shape(RANK_TOO_FEW).to_string(),
            "ranking needs at least two creatives"
        );
        let env: ErrorEnvelope = WireError::Syntax(0).into();
        assert_eq!(
            env.to_json(),
            r#"{"error":"body is not valid JSON (error at byte 0)"}"#
        );
    }

    #[test]
    fn malformed_bodies_are_rejected_with_the_right_shape() {
        assert_eq!(
            ScoreRequest::from_json("{\"r\":1,\"s\":\"x\"}"),
            Err(WireError::Shape(SCORE_REQUEST_SHAPE))
        );
        assert!(matches!(
            ScoreRequest::from_json("not json"),
            Err(WireError::Syntax(_))
        ));
        assert_eq!(
            RankRequest::from_json("{\"creatives\":\"oops\"}"),
            Err(WireError::Shape(RANK_REQUEST_SHAPE))
        );
        assert_eq!(
            RankRequest::from_json("{\"creatives\":[\"only one\"]}")
                .unwrap()
                .validate(),
            Err(WireError::Shape(RANK_TOO_FEW))
        );
        assert_eq!(
            BatchRequest::from_json("{\"r\":\"a\",\"s\":\"b\"}"),
            Err(WireError::Shape(BATCH_REQUEST_SHAPE))
        );
        assert_eq!(
            BatchRequest::from_json("[{\"r\":\"a\"}]"),
            Err(WireError::Shape(BATCH_REQUEST_SHAPE))
        );
        assert_eq!(
            ScoreResponse::from_json("{\"score\":1.0}"),
            Err(WireError::Shape(SCORE_RESPONSE_SHAPE))
        );
        assert_eq!(
            ErrorEnvelope::from_json("{}"),
            Err(WireError::Shape(ERROR_ENVELOPE_SHAPE))
        );
    }

    #[test]
    fn golden_feedback_request() {
        let req = FeedbackRequest {
            key: "w1-b0".into(),
            events: vec![FeedbackEvent {
                adgroup: 7,
                creative: 70,
                snippet: "Cheap Flights|book today".into(),
                position: 1,
                query_class: "travel".into(),
                impressions: 1200,
                clicks: 84,
            }],
        };
        let wire = req.to_json();
        assert_eq!(
            wire,
            r#"{"key":"w1-b0","events":[{"adgroup":7,"creative":70,"snippet":"Cheap Flights|book today","position":1,"query_class":"travel","impressions":1200,"clicks":84}]}"#
        );
        assert_parses(&wire);
        assert_eq!(FeedbackRequest::from_json(&wire).unwrap(), req);
        assert!(req.validate().is_ok());
    }

    #[test]
    fn golden_feedback_response() {
        let resp = FeedbackResponse {
            accepted: 12,
            deduped: false,
            seq: 40,
            latency_us: 180,
        };
        let wire = resp.to_json();
        assert_eq!(
            wire,
            r#"{"accepted":12,"deduped":false,"seq":40,"latency_us":180}"#
        );
        assert_parses(&wire);
        assert_eq!(FeedbackResponse::from_json(&wire).unwrap(), resp);
    }

    #[test]
    fn feedback_request_key_is_optional_on_parse() {
        let req = FeedbackRequest::from_json(
            r#"{"events":[{"adgroup":1,"creative":2,"snippet":"a|b","position":1,"query_class":"","impressions":10,"clicks":1}]}"#,
        )
        .unwrap();
        assert_eq!(req.key, "");
        assert_eq!(req.events.len(), 1);
    }

    #[test]
    fn feedback_shape_errors() {
        assert_eq!(
            FeedbackRequest::from_json("{}"),
            Err(WireError::Shape(FEEDBACK_REQUEST_SHAPE))
        );
        assert_eq!(
            FeedbackRequest::from_json(r#"{"events":[{"adgroup":1}]}"#),
            Err(WireError::Shape(FEEDBACK_REQUEST_SHAPE))
        );
        assert_eq!(
            FeedbackRequest {
                key: "k".into(),
                events: vec![]
            }
            .validate(),
            Err(WireError::Shape(FEEDBACK_NO_EVENTS))
        );
        assert_eq!(
            FeedbackResponse::from_json(r#"{"accepted":1}"#),
            Err(WireError::Shape(FEEDBACK_RESPONSE_SHAPE))
        );
    }

    // ---- semantic invariants -------------------------------------------

    #[test]
    fn winner_rule_ties_break_to_s() {
        assert_eq!(Winner::from_score(1e-9), Winner::R);
        assert_eq!(Winner::from_score(0.0), Winner::S);
        assert_eq!(Winner::from_score(-3.0), Winner::S);
    }

    /// `BatchResponse::to_json` as it was before per-batch tails, copied
    /// verbatim: every result rendered through `ScoreResponse::fill`.
    mod oracle {
        use super::super::*;

        pub trait BatchRender {
            fn to_json(&self) -> String;
        }

        impl BatchRender for BatchResponse {
            /// Render the response body into one buffer, sized up front for every
            /// result (about 80 bytes each).
            fn to_json(&self) -> String {
                let buf = String::with_capacity(128 + 96 * self.results.len());
                let obj = JsonObject::continue_in(buf)
                    .objects("results", &self.results, |obj, r| r.fill(obj))
                    .u64("count", self.results.len() as u64);
                append_generation(self.fidelity.append_to(obj), self.generation)
                    .u64("latency_us", self.latency_us)
                    .finish()
            }
        }
    }

    fn arb_fidelity() -> impl Strategy<Value = Fidelity> {
        prop_oneof![
            Just(Fidelity::Full),
            "[a-z \"\\\n\u{1}\u{e9}]{0,12}".prop_map(|reason| Fidelity::Degraded { reason }),
        ]
    }

    fn arb_generation() -> impl Strategy<Value = Option<u64>> {
        prop_oneof![Just(None), (0u64..3).prop_map(Some)]
    }

    /// Zero of both signs, whole floats, any bit pattern (NaN and the
    /// infinities render `null`).
    fn arb_score() -> impl Strategy<Value = f64> {
        prop_oneof![
            Just(0.0),
            Just(-0.0),
            (-1000i32..1000).prop_map(f64::from),
            any::<u64>().prop_map(f64::from_bits),
            Just(f64::NAN),
            Just(f64::INFINITY),
            Just(f64::NEG_INFINITY),
        ]
    }

    /// A batch whose results mostly share its fidelity and generation; the
    /// rest carry their own, which may or may not happen to equal it.
    fn arb_batch() -> impl Strategy<Value = BatchResponse> {
        let item = (
            arb_score(),
            any::<bool>(),
            any::<u64>(),
            any::<u8>(),
            arb_fidelity(),
            arb_generation(),
        );
        (
            arb_fidelity(),
            arb_generation(),
            prop::collection::vec(item, 0..12),
            any::<u64>(),
        )
            .prop_map(|(fidelity, generation, items, latency_us)| BatchResponse {
                results: items
                    .into_iter()
                    .map(
                        |(score, r_wins, latency_us, own, own_fidelity, own_generation)| {
                            let shared = own % 4 != 0;
                            ScoreResponse {
                                score,
                                winner: if r_wins { Winner::R } else { Winner::S },
                                fidelity: if shared {
                                    fidelity.clone()
                                } else {
                                    own_fidelity
                                },
                                generation: if shared { generation } else { own_generation },
                                latency_us,
                            }
                        },
                    )
                    .collect(),
                fidelity,
                generation,
                latency_us,
            })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        /// Per-batch tails render exactly the bytes every result rendered
        /// on its own did, winners of both sides, escaped degrade reasons
        /// and results off the batch's fidelity or generation included.
        #[test]
        fn batch_render_matches_the_per_result_render(batch in arb_batch()) {
            prop_assert_eq!(batch.to_json(), oracle::BatchRender::to_json(&batch));
        }
    }

    #[test]
    fn fidelity_converts_from_engine() {
        use microbrowse_core::serve::{DegradeReason, Fidelity as CoreFidelity};
        assert_eq!(Fidelity::from(&CoreFidelity::Full), Fidelity::Full);
        let deg = CoreFidelity::Degraded(DegradeReason::StatsMissing);
        assert_eq!(
            Fidelity::from(&deg),
            Fidelity::Degraded {
                reason: "stats snapshot missing".into()
            }
        );
    }
}
