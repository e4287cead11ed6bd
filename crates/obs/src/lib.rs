//! # microbrowse-obs — structured tracing, metrics, and profiling
//!
//! A zero-external-dependency observability layer for the microbrowse
//! workspace (consistent with the `crates/compat/` no-registry policy):
//!
//! * [`trace`] — span-based structured tracing: nested spans with parent /
//!   child ids and wall-clock timing, point events, and a pluggable
//!   [`trace::TraceSink`] (JSON-lines file sink for offline analysis, an
//!   in-memory sink for tests, or nothing at all).
//! * [`metrics`] — a process-wide registry of lock-free atomic counters,
//!   gauges, and log-bucketed latency histograms (p50/p90/p99), rendered in
//!   Prometheus exposition style. Metric mutation is a relaxed atomic
//!   RMW, so worker threads of `microbrowse-par` scoped pools aggregate
//!   into the same instrument without locks or post-hoc merging.
//! * [`flight`] — an always-on in-memory flight recorder: a fixed-size
//!   ring of recent trace-tagged records and per-request records, with
//!   tail sampling (anomalous requests are promoted to a retained buffer
//!   after the fact), serving the HTTP `/debug/trace` and
//!   `/debug/requests` endpoints without a file sink.
//! * [`json`] — the tiny JSON writer backing the JSONL sink and the CLI's
//!   machine-readable outputs.
//!
//! ## The overhead contract
//!
//! Instrumentation is off by default. Every entry point — span creation,
//! event emission, counter increments, histogram observations — first loads
//! one process-wide [`AtomicBool`] with `Ordering::Relaxed` and returns
//! immediately when it is false. The disabled path therefore costs a single
//! relaxed load plus a predictable branch: cheap enough to leave the
//! instrumentation compiled into the serve hot path permanently.
//! `scripts/check.sh` enforces this with an overhead gate (see the
//! `overhead_gate` bench binary).
//!
//! ## Thread handoff
//!
//! Span parentage lives in a thread-local stack; scoped-pool workers would
//! start orphaned. [`trace::current_context`] captures the calling thread's
//! innermost span and [`trace::TraceContext::enter`] re-roots a worker
//! thread under it — `microbrowse-par` does this automatically, so spans
//! recorded inside `par_map` / `for_each_chunk` closures nest under the
//! span that launched the parallel section.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod flight;
pub mod json;
pub mod metrics;
mod num;
pub mod trace;

use std::sync::atomic::{AtomicBool, Ordering};
use std::time::Instant;

static ENABLED: AtomicBool = AtomicBool::new(false);

/// Is instrumentation globally enabled? One relaxed atomic load — this is
/// the whole cost of every obs call site while disabled.
#[inline]
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Turn instrumentation on or off process-wide.
pub fn set_enabled(on: bool) {
    ENABLED.store(on, Ordering::Relaxed);
}

/// `Some(Instant::now())` iff instrumentation is enabled. The idiom for
/// timing a hot path without paying for a clock read while disabled:
///
/// ```
/// let t = microbrowse_obs::now_if_enabled();
/// // ... work ...
/// microbrowse_obs::histogram!("work_latency_us").observe_since(t);
/// ```
#[inline]
pub fn now_if_enabled() -> Option<Instant> {
    if enabled() {
        Some(Instant::now())
    } else {
        None
    }
}

/// A cached [`metrics::Counter`] handle: the registry lookup runs once per
/// call site (`OnceLock`), after which an increment is one relaxed load
/// (the enabled flag) plus one relaxed `fetch_add`.
#[macro_export]
macro_rules! counter {
    ($name:expr) => {{
        static HANDLE: ::std::sync::OnceLock<::std::sync::Arc<$crate::metrics::Counter>> =
            ::std::sync::OnceLock::new();
        HANDLE.get_or_init(|| $crate::metrics::registry().counter($name))
    }};
}

/// A cached [`metrics::Gauge`] handle (see [`counter!`]).
#[macro_export]
macro_rules! gauge {
    ($name:expr) => {{
        static HANDLE: ::std::sync::OnceLock<::std::sync::Arc<$crate::metrics::Gauge>> =
            ::std::sync::OnceLock::new();
        HANDLE.get_or_init(|| $crate::metrics::registry().gauge($name))
    }};
}

/// A cached [`metrics::Histogram`] handle (see [`counter!`]).
#[macro_export]
macro_rules! histogram {
    ($name:expr) => {{
        static HANDLE: ::std::sync::OnceLock<::std::sync::Arc<$crate::metrics::Histogram>> =
            ::std::sync::OnceLock::new();
        HANDLE.get_or_init(|| $crate::metrics::registry().histogram($name))
    }};
}
