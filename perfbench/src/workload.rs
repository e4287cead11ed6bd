//! The two traffic mixes, built from the synthetic ad corpus: which
//! requests each one sends, how a served answer is checked against the
//! in-process library, and how a request is replayed layer by layer.

use std::sync::Arc;
use std::time::Instant;

use microbrowse_api::v1::{
    BatchRequest, BatchResponse, ExplainRequest, ExplainResponse, Fidelity, ScoreRequest,
    ScoreResponse, SpanAttribution, SuggestRequest, SuggestResponse, SuggestedRewrite,
    SuggestedVariant, WireError,
};
use microbrowse_core::explain::{explain_pair, Explanation};
use microbrowse_core::serve::{Scorer, Scratch};
use microbrowse_core::suggest::{suggest, SuggestConfig, Suggestion};
use microbrowse_synth::{generate, GeneratorConfig};
use microbrowse_text::Snippet;

/// Workload names, in the order `BENCHMARK.json` lists them.
pub const NAMES: [&str; 2] = ["batch_hot", "suggest_explain"];

/// Pairs per `/v1/batch` request: the server's default `--max-batch`, the
/// largest batch it accepts unless configured otherwise.
const BATCH_SIZE: usize = 256;
/// Distinct pairs `batch_hot` cycles through (four batches), each two
/// creatives of one adgroup (the pairs the paper's model compares): after
/// warm-up every alignment is in the server's cache and every snippet in
/// its worker's arena.
const HOT_POOL: usize = 1024;
/// Adgroups generated per pair of `batch_hot`'s pool. Without simulated
/// clicks most adgroups are dropped as inactive; eight per pair leave
/// about 1.4 distinct pairs per pair needed.
const HOT_ADGROUPS_PER_PAIR: usize = 8;
/// Adgroups `suggest_explain` draws its drafts from: about 22 800
/// distinct creatives survive, more than twice the drafts a 41-second run
/// would send even at its best second's pace throughout (about 250 drafts/s
/// on a 2-vCPU VM). A run that still runs out is marked incorrect.
const DRAFT_ADGROUPS: usize = 32_000;

/// The endpoint a request goes to.
#[derive(Clone, Copy)]
pub enum Kind {
    Batch,
    Suggest,
    Explain,
}

impl Kind {
    pub fn path(self) -> &'static str {
        match self {
            Kind::Batch => "/v1/batch",
            Kind::Suggest => "/v1/suggest",
            Kind::Explain => "/v1/explain",
        }
    }
}

/// One request as sent: its endpoint and body.
#[derive(Clone)]
pub struct Sent {
    pub kind: Kind,
    pub body: Arc<str>,
}

impl Sent {
    fn new(kind: Kind, body: String) -> Self {
        Self {
            kind,
            body: body.into(),
        }
    }
}

/// A workload's inputs, made from `--seed`.
pub struct Workload {
    name: &'static str,
    /// `batch_hot`: the batch requests it cycles through.
    batches: Vec<Sent>,
    /// `suggest_explain`: distinct creatives in seeded order; each is a
    /// draft sent at most once.
    drafts: Vec<String>,
}

impl Workload {
    /// Build workload `name` from `seed`; `None` for an unknown name.
    pub fn build(name: &str, seed: u64) -> Option<Self> {
        let name = *NAMES.iter().find(|n| **n == name)?;
        let hot = name == "batch_hot";
        let synth = generate(&GeneratorConfig {
            num_adgroups: if hot {
                HOT_ADGROUPS_PER_PAIR * HOT_POOL
            } else {
                DRAFT_ADGROUPS
            },
            seed,
            // Only the creatives' text is used; skip simulating clicks.
            impressions: (1, 1),
            ..GeneratorConfig::default()
        });
        let groups = &synth.corpus.adgroups;
        let mut rng = Rng::new(seed);
        let (mut batches, mut drafts) = (Vec::new(), Vec::new());
        if hot {
            let mut pairs: Vec<(String, String)> = groups
                .iter()
                .filter_map(|g| match &g.creatives[..] {
                    [r, s, ..] => Some((render(&r.snippet), render(&s.snippet))),
                    _ => None,
                })
                .collect();
            pairs.sort();
            pairs.dedup();
            if pairs.len() < HOT_POOL {
                return None;
            }
            rng.shuffle(&mut pairs);
            pairs.truncate(HOT_POOL);
            batches = pairs
                .chunks(BATCH_SIZE)
                .map(|chunk| {
                    let items = chunk
                        .iter()
                        .map(|(r, s)| ScoreRequest {
                            r: r.clone(),
                            s: s.clone(),
                        })
                        .collect();
                    Sent::new(Kind::Batch, BatchRequest { items }.to_json())
                })
                .collect();
        } else {
            drafts = groups
                .iter()
                .flat_map(|g| g.creatives.iter().map(|c| render(&c.snippet)))
                .collect();
            drafts.sort();
            drafts.dedup();
            rng.shuffle(&mut drafts);
        }
        Some(Self {
            name,
            batches,
            drafts,
        })
    }

    /// Distinct drafts available to `suggest_explain`.
    pub fn drafts(&self) -> usize {
        self.drafts.len()
    }

    /// A fresh request stream.
    pub fn stream(&self) -> Stream<'_> {
        Stream {
            wl: self,
            sent: 0,
            next_draft: 0,
            draft: None,
        }
    }
}

/// A run's request stream. `batch_hot` cycles its batches.
/// `suggest_explain` takes each draft through the README's "Suggesting
/// better snippets" steps: `/v1/suggest` on the draft, then `/v1/explain`
/// of the top variant against the draft (skipped when nothing beats it).
/// With a correct server the stream is a pure function of the seed.
pub struct Stream<'w> {
    wl: &'w Workload,
    sent: usize,
    next_draft: usize,
    /// The draft whose suggestions are awaited.
    draft: Option<String>,
}

impl Stream<'_> {
    /// The next request, given the body of the previous 200 answer (`None`
    /// after a failure). `None` when the drafts have run out.
    pub fn next(&mut self, answer: Option<&str>) -> Option<Sent> {
        self.sent += 1;
        if self.wl.name == "batch_hot" {
            let batches = &self.wl.batches;
            return Some(batches[(self.sent - 1) % batches.len()].clone());
        }
        if let (Some(draft), Some(body)) = (self.draft.take(), answer) {
            let top = SuggestResponse::from_json(body)
                .ok()
                .and_then(|r| r.suggestions.into_iter().next());
            if let Some(top) = top {
                let body = ExplainRequest {
                    r: top.creative,
                    s: draft,
                }
                .to_json();
                return Some(Sent::new(Kind::Explain, body));
            }
        }
        let draft = self.wl.drafts.get(self.next_draft)?.clone();
        self.next_draft += 1;
        let body = SuggestRequest::new(draft.clone()).to_json();
        self.draft = Some(draft);
        Some(Sent::new(Kind::Suggest, body))
    }
}

/// SplitMix64: a seeded, dependency-free generator for shuffling inputs.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Self(seed ^ 0x9E37_79B9_7F4A_7C15)
    }

    pub fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn shuffle<T>(&mut self, v: &mut [T]) {
        for i in (1..v.len()).rev() {
            v.swap(i, (self.next() % (i as u64 + 1)) as usize);
        }
    }
}

/// The wire form of a creative: its lines joined by `|`.
fn render(s: &Snippet) -> String {
    let lines: Vec<&str> = s.lines().iter().map(|l| l.text.as_str()).collect();
    lines.join("|")
}

/// A creative from its wire form, split the way the server splits it.
fn parse(text: &str) -> Snippet {
    Snippet::from_lines(text.split('|').map(str::trim))
}

/// A request decoded from its wire body.
enum Request {
    Batch(BatchRequest),
    Suggest(SuggestRequest),
    Explain(ExplainRequest),
}

/// A request's creatives, parsed into snippets.
enum Parsed {
    Batch(Vec<(Snippet, Snippet)>),
    Suggest(Snippet),
    Explain(Snippet, Snippet),
}

/// What the library answers for a request.
enum Answer {
    Batch(Vec<f64>, Vec<u64>),
    Suggest(Vec<Suggestion>),
    Explain(Explanation),
}

fn decode(kind: Kind, body: &str) -> Result<Request, String> {
    let err = |e: WireError| format!("undecodable request: {e}");
    Ok(match kind {
        Kind::Batch => Request::Batch(BatchRequest::from_json(body).map_err(err)?),
        Kind::Suggest => Request::Suggest(SuggestRequest::from_json(body).map_err(err)?),
        Kind::Explain => Request::Explain(ExplainRequest::from_json(body).map_err(err)?),
    })
}

fn parse_request(req: &Request) -> Parsed {
    match req {
        Request::Batch(b) => {
            Parsed::Batch(b.items.iter().map(|i| (parse(&i.r), parse(&i.s))).collect())
        }
        Request::Suggest(r) => Parsed::Suggest(parse(&r.creative)),
        Request::Explain(r) => Parsed::Explain(parse(&r.r), parse(&r.s)),
    }
}

/// Run the library call a server worker makes for this request.
fn answer<'a>(parsed: &Parsed, scorer: &Scorer<'a>, scratch: &mut Scratch<'a>) -> Answer {
    match parsed {
        Parsed::Batch(pairs) => {
            let (scores, latencies) = scorer.score_batch_timed(pairs, scratch);
            Answer::Batch(scores, latencies)
        }
        Parsed::Suggest(c) => {
            Answer::Suggest(suggest(scorer, c, &SuggestConfig::default(), scratch))
        }
        Parsed::Explain(r, s) => Answer::Explain(explain_pair(scorer, r, s, scratch)),
    }
}

/// Render the response body the server would send for `answer`.
fn encode(
    answer: &Answer,
    fidelity: &Fidelity,
    generation: Option<u64>,
    latency_us: u64,
) -> String {
    match answer {
        Answer::Batch(scores, latencies) => BatchResponse {
            results: scores
                .iter()
                .zip(latencies)
                .map(|(&sc, &us)| {
                    ScoreResponse::new(sc, fidelity.clone(), us).with_generation(generation)
                })
                .collect(),
            fidelity: fidelity.clone(),
            generation,
            latency_us,
        }
        .to_json(),
        Answer::Suggest(found) => SuggestResponse {
            suggestions: found
                .iter()
                .map(|s| SuggestedVariant {
                    creative: render(&s.creative),
                    score: s.score,
                    rewrites: s.steps.iter().map(SuggestedRewrite::from).collect(),
                })
                .collect(),
            fidelity: fidelity.clone(),
            generation,
            latency_us,
        }
        .to_json(),
        Answer::Explain(exp) => ExplainResponse {
            score: exp.score,
            bias: exp.bias,
            spans: exp.spans.iter().map(SpanAttribution::from).collect(),
            fidelity: (&exp.fidelity).into(),
            generation,
            latency_us,
        }
        .to_json(),
    }
}

fn close(a: f64, b: f64) -> bool {
    (a - b).abs() <= 1e-9 * a.abs().max(b.abs()).max(1.0)
}

/// Same span, same feature, and the same price to f64 tolerance.
fn same_span(got: &SpanAttribution, want: &SpanAttribution) -> bool {
    got.kind == want.kind
        && got.side == want.side
        && got.text == want.text
        && got.to == want.to
        && (got.line, got.pos, got.to_span) == (want.line, want.pos, want.to_span)
        && close(got.value, want.value)
        && close(got.weight, want.weight)
        && close(got.contribution, want.contribution)
}

/// Check one served answer against the library, called in-process on the
/// same artifacts: batch scores, suggestion lists, and explanations span
/// by span (bias and every contribution) must all match.
pub fn check<'a>(
    request: &Sent,
    response: &str,
    scorer: &Scorer<'a>,
    scratch: &mut Scratch<'a>,
) -> Result<(), String> {
    let parsed = parse_request(&decode(request.kind, &request.body)?);
    let err = |e: WireError| format!("undecodable response {response:?}: {e}");
    let same = match answer(&parsed, scorer, scratch) {
        Answer::Batch(want, _) => {
            let got = BatchResponse::from_json(response).map_err(err)?.results;
            got.len() == want.len() && got.iter().zip(&want).all(|(g, &w)| close(g.score, w))
        }
        Answer::Suggest(want) => {
            let got = SuggestResponse::from_json(response)
                .map_err(err)?
                .suggestions;
            got.len() == want.len()
                && got
                    .iter()
                    .zip(&want)
                    .all(|(g, w)| g.creative == render(&w.creative) && close(g.score, w.score))
        }
        Answer::Explain(want) => {
            let got = ExplainResponse::from_json(response).map_err(err)?;
            let spans: Vec<SpanAttribution> = want.spans.iter().map(Into::into).collect();
            close(got.score, want.score)
                && close(got.bias, want.bias)
                && got.spans.len() == spans.len()
                && got.spans.iter().zip(&spans).all(|(g, w)| same_span(g, w))
        }
    };
    if same {
        Ok(())
    } else {
        Err(format!(
            "served {response:?} for {:?}, the library disagrees",
            request.body
        ))
    }
}

/// Nanoseconds one replayed request spent in each layer.
#[derive(Default, Clone, Copy)]
pub struct LayerNs {
    pub decode: u64,
    pub parse: u64,
    pub score: u64,
    pub encode: u64,
}

fn lap(t: &mut Instant) -> u64 {
    let now = Instant::now();
    let ns = now.duration_since(*t).as_nanos() as u64;
    *t = now;
    ns
}

/// Run one request through the layers a server worker runs it through —
/// wire decode, creative parsing, scoring, response encode — and time
/// each.
pub fn replay<'a>(
    request: &Sent,
    scorer: &Scorer<'a>,
    scratch: &mut Scratch<'a>,
    generation: Option<u64>,
) -> Result<LayerNs, String> {
    let fidelity: Fidelity = scorer.fidelity().into();
    let mut ns = LayerNs::default();
    let mut t = Instant::now();
    let req = decode(request.kind, &request.body)?;
    ns.decode = lap(&mut t);
    let parsed = parse_request(&req);
    ns.parse = lap(&mut t);
    let ans = answer(&parsed, scorer, scratch);
    ns.score = lap(&mut t);
    std::hint::black_box(encode(&ans, &fidelity, generation, ns.score / 1000));
    ns.encode = lap(&mut t);
    Ok(ns)
}
