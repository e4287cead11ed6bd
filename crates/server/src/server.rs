//! The threaded HTTP server: accept loop → bounded queue → worker pool,
//! with hot reload and graceful drain.
//!
//! ```text
//!              ┌────────────┐   try_push    ┌─────────────┐
//!  clients ──▶ │ accept loop │ ───────────▶ │ bounded queue│ ──▶ workers × N
//!              └────────────┘   full? 503   └─────────────┘        │
//!                                                                  ▼
//!  slot dir ──▶ reload thread ── Arc-swap ──▶ ServeState ──▶ Scorer per
//!               (manifest poll)               (epoch++)      connection-epoch
//! ```
//!
//! Each worker owns one connection at a time and serves its whole
//! keep-alive session. Between requests it checks the reload epoch and
//! rebuilds its scorer over the freshly swapped bundle when it changed —
//! requests in flight finish on the bundle they started with.

use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicI64, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, PoisonError};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use microbrowse_api::debug::{
    DebugEvent, DebugRequestEntry, DebugRequestsResponse, DebugSpan, DebugStages, DebugTraceEntry,
    DebugTraceResponse, VersionInfo,
};
use microbrowse_api::v1::{
    BatchRequest, BatchResponse, ErrorEnvelope, ExplainRequest, ExplainResponse, FeedbackRequest,
    FeedbackResponse, Fidelity, PairRef, RankRequest, RankResponse, ScoreResponse, SpanAttribution,
    SuggestRequest, SuggestResponse, SuggestedRewrite, SuggestedVariant, CODE_BAD_DEADLINE,
    CODE_BAD_REQUEST, CODE_DEADLINE_EXCEEDED, CODE_INTERNAL, CODE_METHOD_NOT_ALLOWED,
    CODE_NOT_FOUND, CODE_OVERLOADED, CODE_TOO_LARGE, CODE_UNAVAILABLE,
};
use microbrowse_core::error::MbError;
use microbrowse_core::explain::explain_pair;
use microbrowse_core::serve::{Scorer, Scratch, ServingBundle, MODEL_SLOT_NAME, STATS_SLOT_NAME};
use microbrowse_core::suggest::{suggest as beam_suggest, SuggestConfig, Suggestion};
use microbrowse_obs as obs;
use microbrowse_obs::flight::{
    FlightConfig, FlightRecorder, PromoteReason, RequestRecord, RetainedTrace,
};
use microbrowse_obs::json::JsonObject;
use microbrowse_obs::trace::{format_trace_id, TraceContext};
use microbrowse_online::{Append, Journal, OnlineError, OnlineLearner};
use microbrowse_store::{file as stats_file, ArtifactSlot};
use microbrowse_text::Snippet;

use crate::deadline::Deadline;
use crate::http::{
    error_response, HttpError, HttpRequest, Limits, RequestReader, Response, IDEMPOTENCY_HEADER,
    PARENT_SPAN_HEADER, SAMPLED_HEADER, SERVER_TIMING_HEADER, TRACE_ID_HEADER,
};
use crate::queue::{Bounded, Popped, PushError};
use crate::state::{reload_loop, ReloadSource, ServeState};

/// Server tuning knobs. The defaults suit tests and small deployments.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Bind address; port 0 picks an ephemeral port.
    pub addr: String,
    /// Worker threads (each serves one connection at a time).
    pub workers: usize,
    /// Bounded queue depth; pushes beyond it answer `503`.
    pub queue_depth: usize,
    /// Per-connection socket read timeout (also the idle keep-alive
    /// timeout, and the bound on how long an aborted drain can linger).
    pub read_timeout: Duration,
    /// Per-connection socket write timeout.
    pub write_timeout: Duration,
    /// HTTP parser limits.
    pub limits: Limits,
    /// How often the reload thread polls the slot manifests.
    pub reload_poll: Duration,
    /// How long [`ServerHandle::shutdown`] waits for in-flight sessions
    /// before force-aborting them.
    pub drain_deadline: Duration,
    /// Largest `/v1/batch` request accepted (items), and the cap on the
    /// pairs one `/v1/rank` request scores: `n` creatives are `n(n−1)/2`
    /// pairs, so the default of 256 admits 23 creatives. Larger batches and
    /// rankings answer `413`.
    pub max_batch: usize,
    /// Cap on simultaneously open connections (queued + being served);
    /// beyond it, new connections are answered `503` with the `overloaded`
    /// code from the accept thread. `0` means unlimited.
    pub max_conns: usize,
    /// Deadline budget applied to scoring requests that do not carry an
    /// `X-Mb-Deadline-Ms` header. `None` means only client-sent deadlines
    /// are enforced.
    pub request_deadline: Option<Duration>,
    /// How long an accepted connection may sit in the queue before the
    /// reaper sheds it with a `503 overloaded` instead of letting it go
    /// stale behind pinned workers.
    pub queue_timeout: Duration,
    /// Latency threshold above which the flight recorder's tail sampler
    /// retains a request's trace (`--flight-recorder-slow-ms`).
    pub flight_slow: Duration,
    /// How many promoted (anomalous) traces the flight recorder keeps for
    /// `GET /debug/trace`; oldest evicted first.
    pub flight_retained: usize,
    /// Also print one access-log line per response to stderr
    /// (`--access-log`).
    pub access_log_stderr: bool,
    /// Online-learning configuration; `None` disables `POST /v1/feedback`
    /// and the background refitter.
    pub online: Option<OnlineConfig>,
    /// Largest `beam_width` / `max_depth` a `/v1/suggest` request may ask
    /// for (`--max-beam`). Requests over the cap answer `413`.
    pub max_beam: usize,
    /// Largest `top_k` a `/v1/suggest` request may ask for
    /// (`--max-suggestions`). Requests over the cap answer `413`.
    pub max_suggestions: usize,
}

/// Online-learning knobs (`--feedback-journal`, `--refit-interval`).
/// Requires slot-directory artifacts, because refits publish new
/// generations through the same slots the hot-reload poller watches.
#[derive(Debug, Clone)]
pub struct OnlineConfig {
    /// Directory holding the crash-safe feedback journal.
    pub journal_dir: PathBuf,
    /// How often the background refitter wakes up to consider a refit.
    pub refit_interval: Duration,
    /// Minimum feedback batches folded since the last refit before a new
    /// refit is attempted (avoids retraining on an unchanged corpus).
    pub min_refit_batches: u64,
}

impl OnlineConfig {
    /// Config with the default cadence (refit every 30 s when at least one
    /// new batch arrived).
    pub fn new(journal_dir: impl Into<PathBuf>) -> Self {
        Self {
            journal_dir: journal_dir.into(),
            refit_interval: Duration::from_secs(30),
            min_refit_batches: 1,
        }
    }
}

impl Default for ServerConfig {
    fn default() -> Self {
        Self {
            addr: "127.0.0.1:0".to_string(),
            workers: 4,
            queue_depth: 128,
            read_timeout: Duration::from_secs(2),
            write_timeout: Duration::from_secs(2),
            limits: Limits::default(),
            reload_poll: Duration::from_millis(200),
            drain_deadline: Duration::from_secs(5),
            max_batch: 256,
            max_conns: 1024,
            request_deadline: None,
            queue_timeout: Duration::from_secs(4),
            flight_slow: Duration::from_millis(500),
            flight_retained: 256,
            access_log_stderr: false,
            online: None,
            max_beam: 32,
            max_suggestions: 32,
        }
    }
}

/// Where the server gets its serving bundle.
pub enum BundleSource {
    /// A fixed in-memory bundle; no hot reload (benchmarks, tests).
    Static(Arc<ServingBundle>),
    /// Load from artifact paths; slot directories hot-reload on new
    /// generations.
    Artifacts(ReloadSource),
}

/// What the drain accomplished.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DrainReport {
    /// Requests completed after shutdown began.
    pub drained: u64,
    /// Connections cut off mid-session or never served.
    pub aborted: u64,
}

/// Counters/gauges/histograms the server touches, pre-registered at start
/// so `/metrics` exposes the full alertable surface from the first scrape.
pub const HTTP_METRIC_COUNTERS: &[&str] = &[
    "microbrowse_http_requests_total",
    "microbrowse_http_responses_5xx_total",
    "microbrowse_http_responses_4xx_total",
    "microbrowse_http_rejected_total",
    "microbrowse_http_bad_requests_total",
    "microbrowse_http_connections_total",
    "microbrowse_serve_reloads_total",
    "microbrowse_serve_reload_failures_total",
    "microbrowse_batch_requests_total",
    "microbrowse_batch_items_total",
    "microbrowse_http_deadline_exceeded_total",
    "microbrowse_http_slow_requests_total",
    "microbrowse_http_conn_limit_rejected_total",
    "microbrowse_http_reaped_total",
    "microbrowse_http_sock_cfg_failed_total",
    "microbrowse_feedback_requests_total",
    "microbrowse_feedback_events_total",
    "microbrowse_feedback_deduped_total",
    "microbrowse_refit_total",
    "microbrowse_refit_failures_total",
];

/// Per-endpoint latency histograms (microseconds), plus the batch-size
/// distribution (items per `/v1/batch` request).
pub const HTTP_METRIC_HISTOGRAMS: &[&str] = &[
    "microbrowse_http_score_latency_us",
    "microbrowse_http_rank_latency_us",
    "microbrowse_http_batch_latency_us",
    "microbrowse_http_suggest_latency_us",
    "microbrowse_http_explain_latency_us",
    "microbrowse_http_other_latency_us",
    "microbrowse_batch_size",
    "microbrowse_http_feedback_latency_us",
    "microbrowse_refit_duration_us",
];

/// Releases one slot of the connection cap when the connection ends, no
/// matter which path (served, shed, drained, aborted) ends it.
struct ConnPermit {
    open: Arc<AtomicI64>,
}

impl ConnPermit {
    fn acquire(open: &Arc<AtomicI64>) -> Self {
        let now = open.fetch_add(1, Ordering::SeqCst) + 1;
        obs::gauge!("microbrowse_http_open_conns").set(now);
        Self {
            open: Arc::clone(open),
        }
    }
}

impl Drop for ConnPermit {
    fn drop(&mut self) {
        let now = self.open.fetch_sub(1, Ordering::SeqCst) - 1;
        obs::gauge!("microbrowse_http_open_conns").set(now);
    }
}

/// An accepted connection waiting for (or held by) a worker, timestamped
/// so staleness is observable at dequeue, by the reaper, and in
/// `/healthz` (`queue_age_ms`).
struct QueuedConn {
    stream: TcpStream,
    accepted: Instant,
    _permit: ConnPermit,
}

struct Shared {
    state: ServeState,
    queue: Bounded<QueuedConn>,
    cfg: ServerConfig,
    draining: AtomicBool,
    force_abort: AtomicBool,
    drained: AtomicU64,
    aborted: AtomicU64,
    /// Connections currently open (queued + being served): the `--max-conns`
    /// accounting and the `/healthz` `open_conns` field.
    open_conns: Arc<AtomicI64>,
    /// Always-on flight recorder behind `GET /debug/trace` and
    /// `GET /debug/requests` (also installed as a trace sink).
    flight: Arc<FlightRecorder>,
    /// Online-learning state (`POST /v1/feedback` + the refit thread);
    /// `None` when started without [`OnlineConfig`].
    online: Option<Arc<OnlineState>>,
}

/// Everything the feedback endpoint and the refit thread share. The mutex
/// guards the journal + learner pair; provenance counters are atomics so
/// `/healthz` and `/version` read them without touching the lock.
struct OnlineState {
    inner: Mutex<OnlineInner>,
    /// Slot directory the refitter commits model generations into.
    model_dir: PathBuf,
    /// Slot directory the refitter commits folded-stats generations into.
    stats_dir: PathBuf,
    refit_interval: Duration,
    min_refit_batches: u64,
    /// False until the first online refit publishes — the provenance bit.
    origin_online: AtomicBool,
    /// Completed online refits.
    refits: AtomicU64,
    /// Feedback batches folded (including journal replay on restart).
    batches: AtomicU64,
    /// Feedback events folded.
    events: AtomicU64,
    /// Model-slot generation the last online refit published.
    last_refit_generation: AtomicU64,
}

struct OnlineInner {
    journal: Journal,
    learner: OnlineLearner,
    /// Batches folded since the refitter last snapshot the learner.
    pending: u64,
}

impl OnlineState {
    fn lock(&self) -> std::sync::MutexGuard<'_, OnlineInner> {
        self.inner.lock().unwrap_or_else(PoisonError::into_inner)
    }

    fn origin(&self) -> &'static str {
        if self.origin_online.load(Ordering::Relaxed) {
            "online-refit"
        } else {
            "batch-built"
        }
    }
}

/// A running server. Dropping the handle does **not** stop it; call
/// [`ServerHandle::shutdown`].
pub struct ServerHandle {
    addr: SocketAddr,
    shared: Arc<Shared>,
    accept: Option<JoinHandle<()>>,
    reload: Option<JoinHandle<()>>,
    reaper: Option<JoinHandle<()>>,
    refit: Option<JoinHandle<()>>,
    workers: Vec<JoinHandle<()>>,
}

/// Bind, load the initial bundle, and start the accept/worker/reload
/// threads. Instrumentation (obs) is enabled process-wide so `/metrics`
/// observes real traffic.
pub fn start(cfg: ServerConfig, source: BundleSource) -> Result<ServerHandle, MbError> {
    obs::set_enabled(true);
    let registry = obs::metrics::registry();
    for name in HTTP_METRIC_COUNTERS {
        registry.counter(name);
    }
    for name in HTTP_METRIC_HISTOGRAMS {
        registry.histogram(name);
    }
    registry.gauge("microbrowse_http_queue_depth");
    registry.gauge("microbrowse_http_open_conns");
    registry.counter("microbrowse_trace_write_errors_total");
    registry.counter("microbrowse_flight_promoted_total");

    let (bundle, reload_source) = match source {
        BundleSource::Static(bundle) => (bundle, None),
        BundleSource::Artifacts(src) => {
            let bundle = src.builder().load_shared()?;
            let reloadable = src.reloadable();
            (bundle, reloadable.then_some(src))
        }
    };
    let online = match &cfg.online {
        None => None,
        Some(ocfg) => Some(open_online(ocfg, &bundle, reload_source.as_ref())?),
    };

    let listener =
        TcpListener::bind(&cfg.addr).map_err(|e| MbError::io(format!("bind {}", cfg.addr), e))?;
    let addr = listener
        .local_addr()
        .map_err(|e| MbError::io("local_addr", e))?;

    // Always-on flight recorder: installed as a trace sink *alongside* any
    // sink already in place (e.g. the CLI's `--trace-json` JSONL sink), so
    // turning on file tracing never disables `/debug/trace` or vice versa.
    let flight = Arc::new(FlightRecorder::new(FlightConfig {
        retained_cap: cfg.flight_retained,
        ..FlightConfig::default()
    }));
    let sink: Arc<dyn obs::trace::TraceSink> = match obs::trace::installed_sink() {
        Some(existing) => Arc::new(obs::trace::TeeSink::new(vec![
            existing,
            flight.clone() as Arc<dyn obs::trace::TraceSink>,
        ])),
        None => flight.clone(),
    };
    obs::trace::install_sink(sink);

    let shared = Arc::new(Shared {
        state: ServeState::new(bundle),
        queue: Bounded::new(cfg.queue_depth),
        cfg,
        draining: AtomicBool::new(false),
        force_abort: AtomicBool::new(false),
        drained: AtomicU64::new(0),
        aborted: AtomicU64::new(0),
        open_conns: Arc::new(AtomicI64::new(0)),
        flight,
        online,
    });

    let workers = (0..shared.cfg.workers.max(1))
        .map(|_| {
            let shared = Arc::clone(&shared);
            std::thread::spawn(move || worker_loop(&shared))
        })
        .collect();
    let accept = {
        let shared = Arc::clone(&shared);
        std::thread::spawn(move || accept_loop(&shared, listener))
    };
    let reaper = {
        let shared = Arc::clone(&shared);
        std::thread::spawn(move || reaper_loop(&shared))
    };
    let reload = reload_source.map(|src| {
        let shared = Arc::clone(&shared);
        std::thread::spawn(move || {
            reload_loop(
                &shared.state,
                &src,
                shared.cfg.reload_poll,
                &shared.draining,
            )
        })
    });
    let refit = shared.online.is_some().then(|| {
        let shared = Arc::clone(&shared);
        std::thread::spawn(move || refit_loop(&shared))
    });

    obs::trace::event("serve.start")
        .with("addr", addr.to_string())
        .with("workers", shared.cfg.workers as u64)
        .with("queue_depth", shared.cfg.queue_depth as u64);
    Ok(ServerHandle {
        addr,
        shared,
        accept: Some(accept),
        reload,
        reaper: Some(reaper),
        refit,
        workers,
    })
}

/// Open the feedback journal, restore the learner from its checkpoint plus
/// the journaled tail, and package the shared online state. Fails loudly
/// when the artifacts are not slot directories — without slots there is
/// nowhere for a refit to publish a generation.
fn open_online(
    ocfg: &OnlineConfig,
    bundle: &Arc<ServingBundle>,
    reload_source: Option<&ReloadSource>,
) -> Result<Arc<OnlineState>, MbError> {
    let src = reload_source.ok_or_else(|| {
        MbError::usage(
            "--feedback-journal requires slot-directory artifacts (--slot-dir) \
             so refits can publish new generations",
        )
    })?;
    if !src.model_path.is_dir() {
        return Err(MbError::usage(
            "--feedback-journal requires the model path to be a slot directory",
        ));
    }
    let stats_dir = src
        .stats_path
        .clone()
        .filter(|p| p.is_dir())
        .ok_or_else(|| {
            MbError::usage("--feedback-journal requires the stats path to be a slot directory")
        })?;

    let (journal, recovery) = Journal::open(&ocfg.journal_dir)
        .map_err(|e| MbError::invariant(format!("feedback journal open failed: {e}")))?;
    let learner = OnlineLearner::recover(bundle.stats()?, bundle.model().spec, &recovery)
        .map_err(|e| MbError::invariant(format!("learner checkpoint restore failed: {e}")))?;
    let replayed = recovery.batches.len() as u64;
    if replayed > 0 || recovery.state.is_some() {
        obs::trace::event("online.journal_replayed")
            .with("replayed_batches", replayed)
            .with("total_batches", learner.batches_folded());
    }
    let batches = learner.batches_folded();
    let events = learner.events_folded();
    Ok(Arc::new(OnlineState {
        inner: Mutex::new(OnlineInner {
            journal,
            learner,
            pending: replayed,
        }),
        model_dir: src.model_path.clone(),
        stats_dir,
        refit_interval: ocfg.refit_interval,
        min_refit_batches: ocfg.min_refit_batches.max(1),
        origin_online: AtomicBool::new(false),
        refits: AtomicU64::new(0),
        batches: AtomicU64::new(batches),
        events: AtomicU64::new(events),
        last_refit_generation: AtomicU64::new(0),
    }))
}

/// The background refitter: every `refit_interval`, snapshot the learner
/// (cheaply, under the ingest lock), retrain **off** the lock, publish the
/// new generation through the artifact slots the hot-reload poller
/// watches, then checkpoint the journal so replay stays bounded.
fn refit_loop(shared: &Shared) {
    let Some(online) = shared.online.as_ref() else {
        return;
    };
    let step = Duration::from_millis(20).min(online.refit_interval.max(Duration::from_millis(1)));
    loop {
        let mut slept = Duration::ZERO;
        while slept < online.refit_interval {
            if shared.draining.load(Ordering::Relaxed) {
                return;
            }
            std::thread::sleep(step);
            slept += step;
        }
        if shared.draining.load(Ordering::Relaxed) {
            return;
        }
        run_refit(online);
    }
}

/// One refit attempt; all failure paths leave the previous generation
/// serving untouched.
fn run_refit(online: &OnlineState) {
    let (learner, pending_at_snapshot) = {
        let inner = online.lock();
        if inner.pending < online.min_refit_batches {
            return;
        }
        (inner.learner.clone(), inner.pending)
    };
    let started = obs::now_if_enabled();
    let out = match learner.refit() {
        Ok(out) => out,
        Err(OnlineError::NoPairs) => {
            // Expected while the online corpus is still below the pair
            // filter's significance floor; try again next interval.
            obs::trace::event("online.refit_skipped").with("reason", "no_pairs");
            return;
        }
        Err(e) => {
            obs::counter!("microbrowse_refit_failures_total").inc();
            obs::trace::event("online.refit_failed").with("error", e.to_string());
            return;
        }
    };

    // Stats first, then model: the reload poller keys on the manifests, and
    // committing the folded stats before the model that was fit against
    // them means whichever poll observes the new model also sees its stats.
    let stats_slot = ArtifactSlot::new(&online.stats_dir, STATS_SLOT_NAME);
    if let Err(e) = stats_slot.commit(&stats_file::to_bytes(&out.stats)) {
        obs::counter!("microbrowse_refit_failures_total").inc();
        obs::trace::event("online.refit_failed").with("error", format!("stats commit: {e}"));
        return;
    }
    let model_slot = ArtifactSlot::new(&online.model_dir, MODEL_SLOT_NAME);
    let generation = match out.model.commit_to_slot(&model_slot) {
        Ok(g) => g,
        Err(e) => {
            obs::counter!("microbrowse_refit_failures_total").inc();
            obs::trace::event("online.refit_failed").with("error", format!("model commit: {e}"));
            return;
        }
    };
    let _ = stats_slot.prune(4);
    let _ = model_slot.prune(4);

    {
        let mut inner = online.lock();
        let state = inner.learner.state_bytes();
        if let Err(e) = inner.journal.commit_checkpoint(&state) {
            // Replay will redo a little extra work after a restart, but
            // the published generation is unaffected.
            obs::trace::event("online.checkpoint_failed").with("error", e.to_string());
        }
        inner.pending = inner.pending.saturating_sub(pending_at_snapshot);
    }
    online.origin_online.store(true, Ordering::Relaxed);
    online.refits.fetch_add(1, Ordering::Relaxed);
    online
        .last_refit_generation
        .store(generation, Ordering::Relaxed);
    obs::counter!("microbrowse_refit_total").inc();
    obs::histogram!("microbrowse_refit_duration_us").observe_since(started);
    obs::trace::event("online.refit_published")
        .with("generation", generation)
        .with("pairs", out.pairs as u64)
        .with("batches", learner.batches_folded());
}

impl ServerHandle {
    /// The bound address (useful with port 0).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Completed hot reloads so far.
    pub fn reloads(&self) -> u64 {
        self.shared.state.reloads()
    }

    /// Whether the currently served bundle is degraded (term-only).
    pub fn degraded(&self) -> bool {
        self.shared.state.current().fidelity().is_degraded()
    }

    /// The flight recorder, for benches and tests.
    pub fn flight(&self) -> &Arc<FlightRecorder> {
        &self.shared.flight
    }

    /// Graceful shutdown: stop accepting, serve what is queued, give
    /// in-flight sessions until the drain deadline, then force-abort the
    /// rest. Returns the drained/aborted accounting.
    pub fn shutdown(mut self) -> DrainReport {
        let started = Instant::now();
        self.shared.draining.store(true, Ordering::SeqCst);
        // Unblock the accept loop: it re-checks the flag per connection.
        let _ = TcpStream::connect(self.addr);
        if let Some(h) = self.accept.take() {
            let _ = h.join();
        }
        self.shared.queue.close();
        if let Some(h) = self.reload.take() {
            let _ = h.join();
        }
        if let Some(h) = self.reaper.take() {
            let _ = h.join();
        }
        if let Some(h) = self.refit.take() {
            let _ = h.join();
        }

        let deadline = started + self.shared.cfg.drain_deadline;
        for h in &self.workers {
            while !h.is_finished() && Instant::now() < deadline {
                std::thread::sleep(Duration::from_millis(5));
            }
            if !h.is_finished() {
                self.shared.force_abort.store(true, Ordering::SeqCst);
                break;
            }
        }
        for h in self.workers.drain(..) {
            let _ = h.join();
        }
        // Connections accepted but never served count as aborted.
        let unserved = self.shared.queue.drain().len() as u64;
        self.shared.aborted.fetch_add(unserved, Ordering::Relaxed);

        let report = DrainReport {
            drained: self.shared.drained.load(Ordering::Relaxed),
            aborted: self.shared.aborted.load(Ordering::Relaxed),
        };
        obs::trace::event("serve.shutdown")
            .with("drained", report.drained)
            .with("aborted", report.aborted)
            .with("elapsed_ms", started.elapsed().as_millis() as u64);
        report
    }
}

fn accept_loop(shared: &Shared, listener: TcpListener) {
    for conn in listener.incoming() {
        if shared.draining.load(Ordering::SeqCst) {
            return;
        }
        let stream = match conn {
            Ok(s) => s,
            Err(_) => continue,
        };
        obs::counter!("microbrowse_http_connections_total").inc();
        let _ = stream.set_nodelay(true);
        // A socket whose timeouts cannot be configured must not be served:
        // without them every read/write on it is unbounded IO. Refuse it
        // loudly instead of proceeding.
        if stream
            .set_read_timeout(Some(shared.cfg.read_timeout))
            .and_then(|()| stream.set_write_timeout(Some(shared.cfg.write_timeout)))
            .is_err()
        {
            obs::counter!("microbrowse_http_sock_cfg_failed_total").inc();
            obs::trace::event("serve.sock_cfg_failed");
            drop(stream);
            continue;
        }
        if shared.cfg.max_conns > 0
            && shared.open_conns.load(Ordering::SeqCst) >= shared.cfg.max_conns as i64
        {
            obs::counter!("microbrowse_http_conn_limit_rejected_total").inc();
            reject_busy(shared, stream, "connection limit reached");
            continue;
        }
        let entry = QueuedConn {
            stream,
            accepted: Instant::now(),
            _permit: ConnPermit::acquire(&shared.open_conns),
        };
        match shared.queue.try_push(entry) {
            Ok(depth) => {
                obs::gauge!("microbrowse_http_queue_depth").set(depth as i64);
            }
            Err(PushError::Full(entry)) => reject_busy(shared, entry.stream, "queue full"),
            Err(PushError::Closed(_)) => return,
        }
    }
}

/// `Retry-After` seconds derived from live queue depth: assume each worker
/// clears ~10 queued connections a second (scoring itself is sub-ms; the
/// bound is slow clients), so the hinted wait tracks how far back in line a
/// retry would land. Clamped to `[1, 30]`.
fn retry_after_secs(depth: usize, workers: usize) -> u32 {
    let per_sec = workers.max(1) * 10;
    (depth.div_ceil(per_sec)).clamp(1, 30) as u32
}

/// The backpressure answer: an immediate `503` with the `overloaded`
/// envelope code and a depth-derived `Retry-After`, written from the accept
/// thread so a saturated worker pool cannot delay it.
fn reject_busy(shared: &Shared, stream: TcpStream, why: &str) {
    obs::counter!("microbrowse_http_rejected_total").inc();
    let trace = obs::trace::new_trace_id();
    let secs = retry_after_secs(shared.queue.len(), shared.cfg.workers);
    let body = ErrorEnvelope::with_code(format!("server busy, {why}"), CODE_OVERLOADED).to_json();
    let mut resp = Response::json(503, body).retry_after(secs).closing();
    respond(shared, &stream, Answered::Shed(trace), 0, 0, 0, &mut resp);
}

/// Shed one stale queued connection: its client has been waiting longer
/// than the queue timeout, so the connection is answered `503 overloaded`
/// and closed rather than served long after the caller gave up.
fn shed_stale(shared: &Shared, entry: QueuedConn) {
    obs::counter!("microbrowse_http_reaped_total").inc();
    let trace = obs::trace::new_trace_id();
    let queue_us = entry.accepted.elapsed().as_micros() as u64;
    let secs = retry_after_secs(shared.queue.len(), shared.cfg.workers);
    let body = ErrorEnvelope::with_code("server busy, queued too long", CODE_OVERLOADED).to_json();
    let mut resp = Response::json(503, body).retry_after(secs).closing();
    respond(
        shared,
        &entry.stream,
        Answered::Shed(trace),
        queue_us,
        0,
        0,
        &mut resp,
    );
}

/// The idle/stale-connection reaper: periodically pops connections that
/// have sat in the queue beyond [`ServerConfig::queue_timeout`] and sheds
/// them. Workers also check at dequeue; the reaper covers the case where
/// every worker is pinned by a slow session and nothing is dequeuing at
/// all — queue slots reopen instead of filling with dead connections.
fn reaper_loop(shared: &Shared) {
    while !shared.draining.load(Ordering::SeqCst) {
        std::thread::sleep(Duration::from_millis(50));
        while let Some(entry) = shared
            .queue
            .pop_front_if(|c| c.accepted.elapsed() > shared.cfg.queue_timeout)
        {
            shed_stale(shared, entry);
        }
        obs::gauge!("microbrowse_http_queue_depth").set(shared.queue.len() as i64);
    }
}

fn worker_loop(shared: &Shared) {
    loop {
        match shared.queue.pop_timeout(Duration::from_millis(50)) {
            Popped::Item(entry) => {
                obs::gauge!("microbrowse_http_queue_depth").set(shared.queue.len() as i64);
                // Dequeue-time staleness check (the reaper's fast path):
                // don't start a session nobody is waiting on. Draining
                // sessions are served — drain means "finish the queue".
                if !shared.draining.load(Ordering::SeqCst)
                    && entry.accepted.elapsed() > shared.cfg.queue_timeout
                {
                    shed_stale(shared, entry);
                    continue;
                }
                serve_connection(shared, entry);
            }
            Popped::TimedOut => {
                if shared.force_abort.load(Ordering::Relaxed) {
                    return;
                }
            }
            Popped::Closed => return,
        }
    }
}

/// Serve one connection's whole keep-alive session. The outer loop pins a
/// bundle + scorer for the current reload epoch; the inner loop answers
/// the connection's requests one at a time, in arrival order, until
/// close, error, or epoch change.
fn serve_connection(shared: &Shared, conn: QueuedConn) {
    let stream = &conn.stream;
    let dequeued = Instant::now();
    let mut reader = RequestReader::new(stream, shared.cfg.limits.clone());
    let mut first_request = true;
    'epoch: loop {
        let epoch = shared.state.epoch();
        let bundle = shared.state.current();
        let scorer = bundle.scorer();
        let mut scratch = scorer.scratch();
        let degraded = bundle.fidelity().is_degraded();
        loop {
            if shared.force_abort.load(Ordering::Relaxed) {
                shared.aborted.fetch_add(1, Ordering::Relaxed);
                return;
            }
            if shared.state.epoch() != epoch {
                continue 'epoch;
            }
            // Stage accounting. Queue is accept → worker dequeue for a
            // session's first request; a pipelined request, already
            // buffered when the previous one parsed, also queues from then
            // until the worker turns to it here. Parse runs from that turn,
            // or from the request's own first byte if later, until it
            // parsed or failed, so keep-alive idle time counts in neither.
            let turned = Instant::now();
            let session_queue_us = if first_request {
                dequeued
                    .saturating_duration_since(conn.accepted)
                    .as_micros() as u64
            } else {
                0
            };
            let stages = |started: Option<Instant>| match started {
                Some(s) => (
                    session_queue_us + turned.saturating_duration_since(s).as_micros() as u64,
                    s.max(turned).elapsed().as_micros() as u64,
                ),
                None => (session_queue_us, 0),
            };
            let next = reader.next_request();
            // Read once the request is in, not before the read blocks: a
            // request on a session that sat idle while the drain began is
            // still served as part of the drain and counted.
            let draining = shared.draining.load(Ordering::SeqCst);
            match next {
                Ok(Some(req)) => {
                    let (queue_us, parse_us) = stages(reader.last_request_started());
                    // The deadline budget is anchored at connection accept
                    // for the first request — time spent waiting in the
                    // accept queue counts against it, which is exactly what
                    // makes shed-at-dequeue work — and at the request's start
                    // afterwards, so a pipelined request's wait counts too.
                    let anchor = if first_request {
                        conn.accepted
                    } else {
                        reader.last_request_started().unwrap_or_else(Instant::now)
                    };
                    // Adopt the caller's trace context (or mint a fresh id)
                    // before any span or event for this request fires, so
                    // the whole handling — deadline shed included — shares
                    // one trace id.
                    let ctx = wire_context(&req);
                    let _ctx_guard = ctx.enter();
                    if first_request {
                        obs::trace::event("serve.dequeued")
                            .with("queue_us", queue_us)
                            .with("parse_us", parse_us);
                    }
                    first_request = false;
                    let scoring = req.method == "POST" && req.path().starts_with("/v1/");
                    // One answer per request, checked for its deadline before
                    // any scoring work: a malformed deadline header's 400,
                    // the 504 that sheds expired scoring work (the caller
                    // already gave up; reads such as healthz and metrics are
                    // served regardless, being cheap and polled by operators
                    // under overload), or the routed answer, whose handling
                    // is the score stage.
                    let (mut resp, score_us, routed) =
                        match Deadline::from_request(&req, anchor, shared.cfg.request_deadline) {
                            Err(e) => {
                                obs::counter!("microbrowse_http_bad_requests_total").inc();
                                let body = ErrorEnvelope::with_code(e, CODE_BAD_DEADLINE);
                                (Response::json(400, body.to_json()), 0, false)
                            }
                            Ok(Some(deadline)) if scoring && deadline.expired() => {
                                obs::counter!("microbrowse_http_deadline_exceeded_total").inc();
                                obs::counter!("microbrowse_http_responses_5xx_total").inc();
                                obs::trace::event("serve.deadline_exceeded")
                                    .with("overdue_ms", deadline.overdue().as_millis() as u64);
                                let body = ErrorEnvelope::with_code(
                                    "deadline expired in queue",
                                    CODE_DEADLINE_EXCEEDED,
                                );
                                (Response::json(504, body.to_json()), 0, false)
                            }
                            Ok(_) => {
                                let started = Instant::now();
                                let resp = route(&req, &scorer, &mut scratch, &bundle, shared);
                                (resp, started.elapsed().as_micros() as u64, true)
                            }
                        };
                    resp.close = draining || !req.keep_alive;
                    let answered = Answered::Request {
                        req: &req,
                        ctx,
                        degraded,
                    };
                    let wrote = respond(
                        shared, stream, answered, queue_us, parse_us, score_us, &mut resp,
                    );
                    // During a drain a routed request counts as drained when
                    // its write lands and as aborted when it does not; a
                    // deadline 504 is aborted work; a bad-deadline 400 is
                    // neither.
                    if draining && (routed || resp.status == 504) {
                        let count = if routed && wrote {
                            &shared.drained
                        } else {
                            &shared.aborted
                        };
                        count.fetch_add(1, Ordering::Relaxed);
                    }
                    if resp.close || !wrote {
                        return;
                    }
                }
                Ok(None) => return, // clean close between requests
                Err(e) => {
                    // The request never parsed, so there is no caller trace
                    // id to adopt — mint one so the error response and its
                    // request record still join up.
                    let trace = obs::trace::new_trace_id();
                    let _ctx_guard = TraceContext::for_trace(trace).enter();
                    if matches!(e, HttpError::SlowRequest) {
                        obs::counter!("microbrowse_http_slow_requests_total").inc();
                        obs::trace::event("serve.slow_request");
                    } else if e.status().is_some() {
                        obs::counter!("microbrowse_http_bad_requests_total").inc();
                        obs::trace::event("serve.bad_request").with("error", e.to_string());
                    }
                    if let Some(mut resp) = error_response(&e) {
                        let (queue_us, parse_us) = stages(reader.request_started());
                        let answered = Answered::Malformed(trace);
                        respond(shared, stream, answered, queue_us, parse_us, 0, &mut resp);
                    }
                    // An idle keep-alive connection timing out during the
                    // drain is a clean close, not an aborted request.
                    let idle = matches!(e, crate::http::HttpError::Timeout { mid_request: false });
                    if draining && !idle {
                        shared.aborted.fetch_add(1, Ordering::Relaxed);
                    }
                    return;
                }
            }
        }
    }
}

/// Reconstruct a request's trace context from its wire headers, minting a
/// fresh trace id when the caller did not send one (every response carries
/// `X-Mb-Trace-Id` either way, so the caller can always join its outcome to
/// `/debug/trace`).
fn wire_context(req: &HttpRequest) -> TraceContext {
    let trace = req
        .header(TRACE_ID_HEADER)
        .and_then(obs::trace::parse_trace_id)
        .unwrap_or_else(obs::trace::new_trace_id);
    let parent = req
        .header(PARENT_SPAN_HEADER)
        .and_then(|v| v.trim().parse::<u64>().ok())
        .unwrap_or(0);
    let sampled = matches!(
        req.header(SAMPLED_HEADER).map(str::trim),
        Some("1" | "true")
    );
    TraceContext::from_wire(trace, parent, sampled)
}

/// What a response answers.
#[derive(Clone, Copy)]
enum Answered<'r> {
    /// A parsed request, in its trace context, served from a bundle that
    /// is degraded or not.
    Request {
        req: &'r HttpRequest,
        ctx: TraceContext,
        degraded: bool,
    },
    /// Bytes that failed to parse; the trace id was minted for the error.
    Malformed(u128),
    /// A connection shed from the accept thread or the reaper before any
    /// worker read it; the trace id was minted for the shed.
    Shed(u128),
}

/// Write one response and record it. Every response the server writes
/// passes through here once, and this is where its [`RequestRecord`] is
/// built: the trace id is echoed in `X-Mb-Trace-Id`, the queue/parse/score
/// stages go in `X-Mb-Server-Timing` when the caller opted in by sending
/// that header, the write is timed, `--access-log` prints the record, and
/// the flight recorder writes it into its ring. The one tail-sampling rule
/// also has the recorder retain it with its trace when the request was
/// shed (503/504), errored (other 4xx/5xx), slower than the configured
/// threshold, served degraded, or force-sampled by the caller. Returns
/// whether the write succeeded.
fn respond(
    shared: &Shared,
    stream: &TcpStream,
    answered: Answered,
    queue_us: u64,
    parse_us: u64,
    score_us: u64,
    resp: &mut Response,
) -> bool {
    let (method, path, trace) = match answered {
        Answered::Request { req, ctx, .. } => {
            (req.method.clone(), req.path().to_owned(), ctx.trace_id())
        }
        Answered::Malformed(trace) | Answered::Shed(trace) => {
            ("-".to_owned(), "-".to_owned(), trace)
        }
    };
    let mut record = RequestRecord {
        method,
        path,
        status: resp.status,
        trace,
        queue_us,
        parse_us,
        score_us,
        write_us: 0,
    };
    resp.extra_headers
        .push(("X-Mb-Trace-Id", format_trace_id(trace)));
    let (degraded, sampled) = match answered {
        Answered::Request { req, ctx, degraded } => {
            if req.header(SERVER_TIMING_HEADER).is_some() {
                resp.extra_headers.push((
                    "X-Mb-Server-Timing",
                    format!(
                        "queue={};parse={};score={}",
                        record.queue_us, record.parse_us, record.score_us
                    ),
                ));
            }
            (degraded, ctx.sampled())
        }
        Answered::Malformed(_) | Answered::Shed(_) => (false, false),
    };
    let write_started = Instant::now();
    let wrote = resp.write_to(&mut &*stream).is_ok();
    record.write_us = write_started.elapsed().as_micros() as u64;
    if shared.cfg.access_log_stderr {
        eprintln!("{record}");
    }
    let reason = if matches!(resp.status, 503 | 504) {
        Some(PromoteReason::Shed)
    } else if resp.status >= 400 {
        Some(PromoteReason::Error)
    } else if record.total_us() > shared.cfg.flight_slow.as_micros() as u64 {
        Some(PromoteReason::Slow)
    } else if degraded {
        Some(PromoteReason::Degraded)
    } else if sampled {
        Some(PromoteReason::Sampled)
    } else {
        None
    };
    match (answered, reason) {
        // A shed left nothing in the ring to collect.
        (Answered::Shed(_), Some(reason)) => shared.flight.record_direct(record, reason),
        _ => shared.flight.record(record, reason),
    }
    wrote
}

/// Dispatch one request, with per-endpoint metrics and a request span.
fn route<'a>(
    req: &HttpRequest,
    scorer: &Scorer<'a>,
    scratch: &mut Scratch<'a>,
    bundle: &ServingBundle,
    shared: &Shared,
) -> Response {
    let started = obs::now_if_enabled();
    let endpoint = match (req.method.as_str(), req.path()) {
        ("POST", "/v1/score") => "score",
        ("POST", "/v1/rank") => "rank",
        ("POST", "/v1/batch") => "batch",
        ("POST", "/v1/suggest") => "suggest",
        ("POST", "/v1/explain") => "explain",
        ("POST", "/v1/feedback") => "feedback",
        ("GET", "/healthz") => "healthz",
        ("GET", "/metrics") => "metrics",
        ("GET", "/version") => "version",
        ("GET", "/debug/trace") => "debug_trace",
        ("GET", "/debug/requests") => "debug_requests",
        (
            _,
            "/v1/score" | "/v1/rank" | "/v1/batch" | "/v1/suggest" | "/v1/explain" | "/v1/feedback"
            | "/healthz" | "/metrics" | "/version" | "/debug/trace" | "/debug/requests",
        ) => "bad_method",
        _ => "unknown",
    };
    let mut span = obs::trace::span("serve.request").with("endpoint", endpoint);
    let generation = bundle.model_generation();
    let resp = match endpoint {
        "score" => handle_score(req, scorer, scratch, generation),
        "rank" => handle_rank(req, scorer, scratch, shared, generation),
        "batch" => handle_batch(req, scorer, scratch, shared, generation),
        "suggest" => handle_suggest(req, scorer, scratch, shared, generation),
        "explain" => handle_explain(req, scorer, scratch, generation),
        "feedback" => handle_feedback(req, shared),
        "healthz" => handle_healthz(bundle, shared),
        "metrics" => handle_metrics(),
        "version" => handle_version(shared),
        "debug_trace" => handle_debug_trace(req, shared),
        "debug_requests" => handle_debug_requests(req, shared),
        "bad_method" => Response::json(
            405,
            ErrorEnvelope::with_code("method not allowed", CODE_METHOD_NOT_ALLOWED).to_json(),
        ),
        _ => Response::json(
            404,
            ErrorEnvelope::with_code(format!("no such endpoint: {}", req.path()), CODE_NOT_FOUND)
                .to_json(),
        ),
    };
    span.add("status", resp.status as u64);

    obs::counter!("microbrowse_http_requests_total").inc();
    match endpoint {
        "score" => obs::histogram!("microbrowse_http_score_latency_us").observe_since(started),
        "rank" => obs::histogram!("microbrowse_http_rank_latency_us").observe_since(started),
        "batch" => obs::histogram!("microbrowse_http_batch_latency_us").observe_since(started),
        "suggest" => obs::histogram!("microbrowse_http_suggest_latency_us").observe_since(started),
        "explain" => obs::histogram!("microbrowse_http_explain_latency_us").observe_since(started),
        "feedback" => {
            obs::histogram!("microbrowse_http_feedback_latency_us").observe_since(started)
        }
        _ => obs::histogram!("microbrowse_http_other_latency_us").observe_since(started),
    }
    match resp.status {
        400..=499 => obs::counter!("microbrowse_http_responses_4xx_total").inc(),
        500..=599 => obs::counter!("microbrowse_http_responses_5xx_total").inc(),
        _ => {}
    }
    resp
}

/// 400 with the coded v1 error envelope.
fn bad_request(e: impl std::fmt::Display) -> Response {
    Response::json(
        400,
        ErrorEnvelope::with_code(e.to_string(), CODE_BAD_REQUEST).to_json(),
    )
}

/// 413 with the coded v1 error envelope.
fn too_large(msg: String) -> Response {
    Response::json(413, ErrorEnvelope::with_code(msg, CODE_TOO_LARGE).to_json())
}

/// The request body as UTF-8, or the 400 that says it is not.
fn body_str(req: &HttpRequest) -> Result<&str, Response> {
    std::str::from_utf8(&req.body).map_err(|_| bad_request("body is not valid UTF-8"))
}

/// The wire texts of a decoded pair, as the engine scores them: each side
/// a creative in wire form, split into lines by the engine itself.
fn wire_sides<'p>(pair: &'p PairRef<'_>) -> (&'p str, &'p str) {
    (&pair.r, &pair.s)
}

/// `POST /v1/score` — body `{"r": "l1|l2|l3", "s": "l1|l2|l3"}`.
fn handle_score<'a>(
    req: &HttpRequest,
    scorer: &Scorer<'a>,
    scratch: &mut Scratch<'a>,
    generation: Option<u64>,
) -> Response {
    let pair = match body_str(req).and_then(|t| PairRef::from_json(t).map_err(bad_request)) {
        Ok(v) => v,
        Err(resp) => return resp,
    };
    let started = Instant::now();
    let (r, s) = wire_sides(&pair);
    let outcome = scorer.score_pair_outcome(r, s, scratch);
    let resp = ScoreResponse::from_outcome(&outcome, started.elapsed().as_micros() as u64)
        .with_generation(generation);
    Response::json(200, resp.to_json())
}

/// A beam-searched [`Suggestion`] in its `/v1/suggest` wire form.
fn suggestion_to_wire(s: &Suggestion) -> SuggestedVariant {
    SuggestedVariant {
        creative: s.creative.to_wire(),
        score: s.score,
        rewrites: s.steps.iter().map(SuggestedRewrite::from).collect(),
    }
}

/// `POST /v1/suggest` — body `{"creative":"l1|l2","beam_width":…,
/// "max_depth":…,"top_k":…}` (knobs optional). Enumerates corpus-observed
/// phrase substitutions, beam-searches the top-k rewritten variants, and
/// reports each with its score margin over the input and its substitution
/// chain. Knobs over `--max-beam` / `--max-suggestions` answer `413`.
fn handle_suggest<'a>(
    req: &HttpRequest,
    scorer: &Scorer<'a>,
    scratch: &mut Scratch<'a>,
    shared: &Shared,
    generation: Option<u64>,
) -> Response {
    let sreq = match body_str(req).and_then(|t| SuggestRequest::from_json(t).map_err(bad_request)) {
        Ok(v) => v,
        Err(resp) => return resp,
    };
    let mut cfg = SuggestConfig::default();
    let beam_cap = shared.cfg.max_beam;
    if let Some(b) = sreq.beam_width {
        if b == 0 || b as usize > beam_cap {
            return too_large(format!("beam_width {b} outside [1, {beam_cap}]"));
        }
        cfg.beam_width = b as usize;
    }
    if let Some(d) = sreq.max_depth {
        if d == 0 || d as usize > beam_cap {
            return too_large(format!("max_depth {d} outside [1, {beam_cap}]"));
        }
        cfg.max_depth = d as usize;
    }
    let k_cap = shared.cfg.max_suggestions;
    if let Some(k) = sreq.top_k {
        if k == 0 || k as usize > k_cap {
            return too_large(format!("top_k {k} outside [1, {k_cap}]"));
        }
        cfg.top_k = k as usize;
    }
    let started = Instant::now();
    let suggestions = beam_suggest(scorer, &Snippet::from_wire(&sreq.creative), &cfg, scratch);
    let resp = SuggestResponse {
        suggestions: suggestions.iter().map(suggestion_to_wire).collect(),
        fidelity: scorer.fidelity().into(),
        generation,
        latency_us: started.elapsed().as_micros() as u64,
    };
    Response::json(200, resp.to_json())
}

/// `POST /v1/explain` — body `{"r":"l1|l2","s":"l1|l2"}`. Scores the pair
/// through the normal path, then decomposes the served margin into per-span
/// log-odds contributions (`bias + Σ contribution ≈ score`).
fn handle_explain<'a>(
    req: &HttpRequest,
    scorer: &Scorer<'a>,
    scratch: &mut Scratch<'a>,
    generation: Option<u64>,
) -> Response {
    let ereq = match body_str(req).and_then(|t| ExplainRequest::from_json(t).map_err(bad_request)) {
        Ok(v) => v,
        Err(resp) => return resp,
    };
    let started = Instant::now();
    let exp = explain_pair(
        scorer,
        &Snippet::from_wire(&ereq.r),
        &Snippet::from_wire(&ereq.s),
        scratch,
    );
    let resp = ExplainResponse {
        score: exp.score,
        bias: exp.bias,
        spans: exp.spans.iter().map(SpanAttribution::from).collect(),
        fidelity: (&exp.fidelity).into(),
        generation,
        latency_us: started.elapsed().as_micros() as u64,
    };
    Response::json(200, resp.to_json())
}

/// `POST /v1/rank` — body `{"creatives": ["l1|l2|l3", ...]}` (≥ 2). Every
/// pair of creatives is scored in one engine pass, so the pair count
/// `n(n−1)/2` is held to [`ServerConfig::max_batch`] like a batch's items;
/// a longer list answers `413`.
fn handle_rank<'a>(
    req: &HttpRequest,
    scorer: &Scorer<'a>,
    scratch: &mut Scratch<'a>,
    shared: &Shared,
    generation: Option<u64>,
) -> Response {
    let rreq = match body_str(req).and_then(|t| RankRequest::from_json(t).map_err(bad_request)) {
        Ok(v) => v,
        Err(resp) => return resp,
    };
    if let Err(e) = rreq.validate() {
        return bad_request(e);
    }
    let n = rreq.creatives.len();
    let pair_count = n.saturating_mul(n - 1) / 2;
    if pair_count > shared.cfg.max_batch {
        return too_large(format!(
            "rank of {n} creatives is {pair_count} pairs, over the limit of {}",
            shared.cfg.max_batch
        ));
    }
    let creatives: Vec<Snippet> = rreq
        .creatives
        .iter()
        .map(|c| Snippet::from_wire(c))
        .collect();
    let started = Instant::now();
    let order = scorer.rank(&creatives, scratch);
    let resp = RankResponse::from_zero_based(
        &order,
        scorer.fidelity().into(),
        started.elapsed().as_micros() as u64,
    )
    .with_generation(generation);
    Response::json(200, resp.to_json())
}

/// `POST /v1/batch` — body `[{"r": …, "s": …}, …]`, at most
/// [`ServerConfig::max_batch`] items. The body is decoded in place
/// ([`BatchRequest::from_json_borrowed`]), the items' wire texts go
/// through one [`Scorer::score_batch`] pass as they are, and the response
/// — a per-item [`ScoreResponse`] (own latency each) plus the aggregate
/// wall time — is rendered into one buffer.
fn handle_batch<'a>(
    req: &HttpRequest,
    scorer: &Scorer<'a>,
    scratch: &mut Scratch<'a>,
    shared: &Shared,
    generation: Option<u64>,
) -> Response {
    let items = match body_str(req)
        .and_then(|t| BatchRequest::from_json_borrowed(t).map_err(bad_request))
    {
        Ok(v) => v,
        Err(resp) => return resp,
    };
    if items.len() > shared.cfg.max_batch {
        return too_large(format!(
            "batch of {} items over the limit of {}",
            items.len(),
            shared.cfg.max_batch
        ));
    }
    obs::counter!("microbrowse_batch_requests_total").inc();
    obs::counter!("microbrowse_batch_items_total").add(items.len() as u64);
    obs::histogram!("microbrowse_batch_size").observe_us(items.len() as u64);

    let pairs: Vec<(&str, &str)> = items.iter().map(wire_sides).collect();
    let started = Instant::now();
    let (scores, latencies) = scorer.score_batch_timed(&pairs, scratch);
    let fidelity: Fidelity = scorer.fidelity().into();
    let results: Vec<ScoreResponse> = scores
        .iter()
        .zip(&latencies)
        .map(|(&score, &lat)| {
            ScoreResponse::new(score, fidelity.clone(), lat).with_generation(generation)
        })
        .collect();
    let resp = BatchResponse {
        results,
        fidelity,
        generation,
        latency_us: started.elapsed().as_micros() as u64,
    };
    Response::json(200, resp.to_json())
}

/// `POST /v1/feedback` — body `{"key":"…","events":[…]}`. Journals the
/// batch durably (segment + listing committed before the 200), folds it
/// into the learner, and dedupes by idempotency key: the
/// `X-Mb-Idempotency-Key` header overrides the body's `"key"`, and a
/// repeat of an already-journaled key answers `deduped:true` without
/// double-counting, which is what makes ambiguous client retries safe.
fn handle_feedback(req: &HttpRequest, shared: &Shared) -> Response {
    let Some(online) = shared.online.as_ref() else {
        return Response::json(
            503,
            ErrorEnvelope::with_code(
                "feedback ingestion disabled (start with --feedback-journal)",
                CODE_UNAVAILABLE,
            )
            .to_json(),
        );
    };
    let freq = match body_str(req).and_then(|t| FeedbackRequest::from_json(t).map_err(bad_request))
    {
        Ok(v) => v,
        Err(resp) => return resp,
    };
    if let Err(e) = freq.validate() {
        return bad_request(e);
    }
    let header_key = req
        .header(IDEMPOTENCY_HEADER)
        .map(str::trim)
        .filter(|k| !k.is_empty());
    let key = match header_key {
        Some(k) => k.to_string(),
        None if !freq.key.is_empty() => freq.key.clone(),
        None => {
            return bad_request(
                "feedback needs an idempotency key \
                 (X-Mb-Idempotency-Key header or \"key\" field)",
            )
        }
    };
    obs::counter!("microbrowse_feedback_requests_total").inc();
    let started = Instant::now();
    let batch = FeedbackRequest {
        key,
        events: freq.events,
    };
    let mut inner = online.lock();
    match inner.journal.append(&batch) {
        Ok(Append::Duplicate { seq }) => {
            drop(inner);
            obs::counter!("microbrowse_feedback_deduped_total").inc();
            let resp = FeedbackResponse {
                accepted: 0,
                deduped: true,
                seq,
                latency_us: started.elapsed().as_micros() as u64,
            };
            Response::json(200, resp.to_json())
        }
        Ok(Append::Appended { seq }) => {
            inner.learner.absorb(&batch);
            inner.pending += 1;
            drop(inner);
            online.batches.fetch_add(1, Ordering::Relaxed);
            online
                .events
                .fetch_add(batch.events.len() as u64, Ordering::Relaxed);
            obs::counter!("microbrowse_feedback_events_total").add(batch.events.len() as u64);
            let resp = FeedbackResponse {
                accepted: batch.events.len() as u64,
                deduped: false,
                seq,
                latency_us: started.elapsed().as_micros() as u64,
            };
            Response::json(200, resp.to_json())
        }
        Err(e) => {
            drop(inner);
            Response::json(
                500,
                ErrorEnvelope::with_code(
                    format!("feedback journal append failed: {e}"),
                    CODE_INTERNAL,
                )
                .to_json(),
            )
        }
    }
}

/// `GET /healthz` — `200` only when serving at full fidelity and not
/// draining; degraded bundles answer `503` with the reason, so load
/// balancers stop sending traffic that deserves full-fidelity scores.
fn handle_healthz(bundle: &ServingBundle, shared: &Shared) -> Response {
    let draining = shared.draining.load(Ordering::SeqCst);
    let degraded = bundle.fidelity().is_degraded();
    let status_text = if draining {
        "draining"
    } else if degraded {
        "degraded"
    } else {
        "ok"
    };
    let gen_json = |g: Option<u64>| g.map_or("null".to_string(), |g| g.to_string());
    let obj = JsonObject::new()
        .str("status", status_text)
        .raw("model_generation", &gen_json(bundle.model_generation()))
        .raw("stats_generation", &gen_json(bundle.stats_generation()))
        .u64("queue_depth", shared.queue.len() as u64)
        .u64(
            "queue_age_ms",
            shared
                .queue
                .peek_front_map(|c| c.accepted.elapsed().as_millis() as u64)
                .unwrap_or(0),
        )
        .u64(
            "open_conns",
            shared.open_conns.load(Ordering::SeqCst).max(0) as u64,
        )
        .u64("epoch", shared.state.epoch())
        .u64("reloads", shared.state.reloads())
        .u64("compiled_features", bundle.engine().table().len() as u64)
        .u64(
            "align_cache_entries",
            bundle.engine().align().entries() as u64,
        );
    // Provenance: whether the generation being served came from the batch
    // build or an online refit, and how much feedback has been folded.
    let obj = match shared.online.as_ref() {
        Some(online) => obj
            .str("provenance", online.origin())
            .u64("refits", online.refits.load(Ordering::Relaxed))
            .u64("feedback_batches", online.batches.load(Ordering::Relaxed))
            .u64("feedback_events", online.events.load(Ordering::Relaxed)),
        None => obj.str("provenance", "batch-built"),
    };
    let obj = Fidelity::from(bundle.fidelity()).append_to(obj);
    let status = if draining || degraded { 503 } else { 200 };
    Response::json(status, obj.finish())
}

/// `GET /metrics` — the Prometheus dump, plus the conventional
/// `build_info` gauge (always 1; the interesting part is the version
/// label) that the registry's label-free model cannot express.
fn handle_metrics() -> Response {
    let mut text = obs::metrics::registry().render_prometheus();
    text.push_str("# TYPE microbrowse_build_info gauge\n");
    text.push_str(&format!(
        "microbrowse_build_info{{version=\"{}\"}} 1\n",
        env!("CARGO_PKG_VERSION")
    ));
    Response::text(200, text)
}

/// `GET /version` — crate version plus the capabilities this server was
/// started with, so operators can tell from one probe what the instance
/// can do.
fn handle_version(shared: &Shared) -> Response {
    let mut features = vec![
        "flight-recorder".to_owned(),
        "suggest".to_owned(),
        "explain".to_owned(),
    ];
    if shared.cfg.access_log_stderr {
        features.push("access-log".to_owned());
    }
    if shared.cfg.request_deadline.is_some() {
        features.push("request-deadline".to_owned());
    }
    if let Some(online) = shared.online.as_ref() {
        features.push("online-feedback".to_owned());
        features.push(format!("model-origin:{}", online.origin()));
        let gen = online.last_refit_generation.load(Ordering::Relaxed);
        if gen > 0 {
            features.push(format!("refit-generation:{gen}"));
        }
    }
    let info = VersionInfo {
        name: "microbrowse-server".to_owned(),
        version: env!("CARGO_PKG_VERSION").to_owned(),
        features,
    };
    Response::json(200, info.to_json())
}

/// `GET /debug/trace?last=N` — the most recently retained anomalous
/// traces (default 16), newest first, as [`DebugTraceResponse`].
fn handle_debug_trace(req: &HttpRequest, shared: &Shared) -> Response {
    let last = req
        .query_param("last")
        .and_then(|v| v.parse::<usize>().ok())
        .unwrap_or(16);
    let traces = shared
        .flight
        .retained(last)
        .iter()
        .map(retained_to_wire)
        .collect();
    Response::json(200, DebugTraceResponse { traces }.to_json())
}

/// `GET /debug/requests?last=N` — the request records still in the flight
/// recorder's ring (up to `N`, default 64), newest first, as
/// [`DebugRequestsResponse`].
fn handle_debug_requests(req: &HttpRequest, shared: &Shared) -> Response {
    let last = req
        .query_param("last")
        .and_then(|v| v.parse::<usize>().ok())
        .unwrap_or(64);
    let requests = shared
        .flight
        .recent_requests(last)
        .iter()
        .map(|r| DebugRequestEntry {
            method: r.method.clone(),
            path: r.path.clone(),
            status: r.status,
            trace_id: format_trace_id(r.trace),
            total_us: r.total_us(),
            stages: debug_stages(r),
        })
        .collect();
    Response::json(200, DebugRequestsResponse { requests }.to_json())
}

/// A request record's stages in their `/debug` wire form.
fn debug_stages(r: &RequestRecord) -> DebugStages {
    DebugStages {
        queue_us: r.queue_us,
        parse_us: r.parse_us,
        score_us: r.score_us,
        write_us: r.write_us,
    }
}

/// A retained flight-recorder trace in its `/debug/trace` wire form.
fn retained_to_wire(t: &RetainedTrace) -> DebugTraceEntry {
    let r = &t.request;
    DebugTraceEntry {
        trace_id: format_trace_id(r.trace),
        reason: t.reason.as_str().to_owned(),
        status: r.status,
        endpoint: r.endpoint(),
        total_us: r.total_us(),
        stages: debug_stages(r),
        spans: t
            .spans
            .iter()
            .map(|s| DebugSpan {
                id: s.id,
                parent: s.parent,
                name: s.name.to_owned(),
                thread: s.thread,
                start_us: s.start_us,
                dur_us: s.dur_us,
            })
            .collect(),
        events: t
            .events
            .iter()
            .map(|e| DebugEvent {
                span: e.span,
                name: e.name.to_owned(),
                thread: e.thread,
                at_us: e.at_us,
            })
            .collect(),
    }
}
