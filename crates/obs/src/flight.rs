//! Always-on in-memory flight recorder with tail sampling.
//!
//! The [`FlightRecorder`] is a [`TraceSink`] that keeps the most recent
//! trace-tagged [`SpanRecord`]s and [`EventRecord`]s in a fixed-size ring.
//! Nothing is written to disk and nothing is retained by default: the ring
//! simply overwrites itself. When a caller decides a request was anomalous
//! — slow, errored, shed, degraded, or explicitly sampled — it *promotes*
//! the request's trace id, which copies every ring record carrying that id
//! into a bounded retained buffer together with a [`TraceSummary`] (status,
//! endpoint, per-stage breakdown). The `/debug/trace` endpoint serves that
//! buffer.
//!
//! This is **tail sampling**: the keep/drop decision happens after the
//! request finishes, when its outcome is known, so anomalies are always
//! captured while the steady state pays only the ring write (one atomic
//! `fetch_add` to claim a slot plus one uncontended per-slot mutex; records
//! without a trace id — e.g. offline pipeline spans — are skipped
//! entirely). `scripts/check.sh` gates the per-record cost via the
//! `overhead_gate` bench binary.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Mutex, MutexGuard, PoisonError};

use crate::trace::{EventRecord, SpanRecord, TraceSink};

fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// One ring slot: a span or an event, both tagged with a trace id.
#[derive(Debug, Clone)]
enum RingRecord {
    Span(SpanRecord),
    Event(EventRecord),
}

impl RingRecord {
    fn trace(&self) -> u128 {
        match self {
            RingRecord::Span(s) => s.trace,
            RingRecord::Event(e) => e.trace,
        }
    }
}

/// Why a trace was promoted into the retained buffer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PromoteReason {
    /// Total latency exceeded the configured slow threshold.
    Slow,
    /// The response was a non-shed 4xx/5xx.
    Error,
    /// The request was shed (503 overloaded / 504 deadline exceeded).
    Shed,
    /// The response was served from a degraded bundle.
    Degraded,
    /// The caller set the sampling flag (e.g. `X-Mb-Sampled: 1`).
    Sampled,
}

impl PromoteReason {
    /// Stable lowercase wire name.
    pub fn as_str(self) -> &'static str {
        match self {
            PromoteReason::Slow => "slow",
            PromoteReason::Error => "error",
            PromoteReason::Shed => "shed",
            PromoteReason::Degraded => "degraded",
            PromoteReason::Sampled => "sampled",
        }
    }
}

/// Request-level facts attached to a promoted trace: outcome plus the
/// per-stage budget breakdown (queue wait, head+body parse, scoring,
/// response write), all in microseconds.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceSummary {
    /// Why the trace was retained.
    pub reason: PromoteReason,
    /// HTTP status of the response.
    pub status: u16,
    /// `METHOD path` of the request (`"-"` when the request was never
    /// parsed, e.g. a connection shed from the accept thread).
    pub endpoint: String,
    /// Total request latency in microseconds.
    pub total_us: u64,
    /// Time spent queued before a worker picked the connection up.
    pub queue_us: u64,
    /// Time spent reading and parsing the request.
    pub parse_us: u64,
    /// Time spent scoring / handling.
    pub score_us: u64,
    /// Time spent writing the response.
    pub write_us: u64,
}

/// One retained anomalous trace: the summary plus every span and event the
/// ring still held for that trace id at promotion time.
#[derive(Debug, Clone)]
pub struct RetainedTrace {
    /// The 128-bit trace id.
    pub trace: u128,
    /// Outcome and stage breakdown.
    pub summary: TraceSummary,
    /// Spans, ordered by start time.
    pub spans: Vec<SpanRecord>,
    /// Events, ordered by emission time.
    pub events: Vec<EventRecord>,
}

/// Sizing knobs for the recorder.
#[derive(Debug, Clone, Copy)]
pub struct FlightConfig {
    /// Ring capacity in records (spans + events).
    pub ring_slots: usize,
    /// Maximum number of retained (promoted) traces; oldest evicted first.
    pub retained_cap: usize,
}

impl Default for FlightConfig {
    fn default() -> Self {
        Self {
            ring_slots: 2048,
            retained_cap: 256,
        }
    }
}

/// The always-on flight recorder. See the module docs for the model.
pub struct FlightRecorder {
    slots: Vec<Mutex<Option<RingRecord>>>,
    cursor: AtomicUsize,
    ring_writes: AtomicU64,
    retained: Mutex<VecDeque<RetainedTrace>>,
    retained_cap: usize,
    evicted: AtomicU64,
}

impl FlightRecorder {
    /// Build a recorder with the given sizing (capacities are clamped to
    /// at least 1).
    pub fn new(cfg: FlightConfig) -> Self {
        let slots = cfg.ring_slots.max(1);
        Self {
            slots: (0..slots).map(|_| Mutex::new(None)).collect(),
            cursor: AtomicUsize::new(0),
            ring_writes: AtomicU64::new(0),
            retained: Mutex::new(VecDeque::new()),
            retained_cap: cfg.retained_cap.max(1),
            evicted: AtomicU64::new(0),
        }
    }

    fn push(&self, record: RingRecord) {
        let idx = self.cursor.fetch_add(1, Ordering::Relaxed) % self.slots.len();
        *lock(&self.slots[idx]) = Some(record);
        self.ring_writes.fetch_add(1, Ordering::Relaxed);
    }

    /// Total records written into the ring since startup (overhead gate
    /// instrumentation).
    pub fn ring_writes(&self) -> u64 {
        self.ring_writes.load(Ordering::Relaxed)
    }

    /// Retained traces evicted because the buffer was full.
    pub fn evicted(&self) -> u64 {
        self.evicted.load(Ordering::Relaxed)
    }

    fn retain(&self, trace: RetainedTrace) {
        let mut retained = lock(&self.retained);
        if retained.len() == self.retained_cap {
            retained.pop_front();
            self.evicted.fetch_add(1, Ordering::Relaxed);
        }
        retained.push_back(trace);
        crate::counter!("microbrowse_flight_promoted_total").inc();
    }

    /// Promote `trace` into the retained buffer: scan the ring for every
    /// record carrying the id and store them with `summary`. Called once
    /// per anomalous request, after its response was written.
    pub fn promote(&self, trace: u128, summary: TraceSummary) {
        let mut spans = Vec::new();
        let mut events = Vec::new();
        for slot in &self.slots {
            match lock(slot).as_ref() {
                Some(record) if record.trace() == trace => match record {
                    RingRecord::Span(s) => spans.push(s.clone()),
                    RingRecord::Event(e) => events.push(e.clone()),
                },
                _ => {}
            }
        }
        spans.sort_by_key(|s| s.start_us);
        events.sort_by_key(|e| e.at_us);
        self.retain(RetainedTrace {
            trace,
            summary,
            spans,
            events,
        });
    }

    /// Promote a trace known to have no ring records (e.g. a connection
    /// rejected from the accept thread before any span opened), skipping
    /// the ring scan. `events` may carry synthetic context.
    pub fn promote_direct(&self, trace: u128, summary: TraceSummary, events: Vec<EventRecord>) {
        self.retain(RetainedTrace {
            trace,
            summary,
            spans: Vec::new(),
            events,
        });
    }

    /// The `n` most recently retained traces, newest first.
    pub fn retained(&self, n: usize) -> Vec<RetainedTrace> {
        lock(&self.retained).iter().rev().take(n).cloned().collect()
    }

    /// Number of traces currently retained.
    pub fn retained_len(&self) -> usize {
        lock(&self.retained).len()
    }
}

impl TraceSink for FlightRecorder {
    fn on_span(&self, span: &SpanRecord) {
        if span.trace != 0 {
            self.push(RingRecord::Span(span.clone()));
        }
    }

    fn on_event(&self, event: &EventRecord) {
        if event.trace != 0 {
            self.push(RingRecord::Event(event.clone()));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::{event, span, TraceContext};
    use std::sync::Arc;

    fn summary(reason: PromoteReason, status: u16) -> TraceSummary {
        TraceSummary {
            reason,
            status,
            endpoint: "POST /v1/score".to_owned(),
            total_us: 10,
            queue_us: 1,
            parse_us: 2,
            score_us: 3,
            write_us: 4,
        }
    }

    #[test]
    fn untraced_records_are_skipped() {
        let rec = FlightRecorder::new(FlightConfig::default());
        rec.on_span(&SpanRecord {
            id: 1,
            parent: 0,
            trace: 0,
            name: "x",
            thread: 1,
            start_us: 0,
            dur_us: 1,
            fields: Vec::new(),
        });
        assert_eq!(rec.ring_writes(), 0);
    }

    #[test]
    fn promotion_collects_trace_records_in_time_order() {
        let _x = crate::trace::tests::exclusive();
        let rec = Arc::new(FlightRecorder::new(FlightConfig::default()));
        crate::trace::install_sink(rec.clone());
        crate::set_enabled(true);
        {
            let _g = TraceContext::from_wire(7, 0, false).enter();
            let _outer = span("serve.request");
            event("serve.tick");
            let _inner = span("engine.score");
        }
        {
            // A different trace the promotion must not pick up.
            let _g = TraceContext::from_wire(8, 0, false).enter();
            let _other = span("serve.request");
        }
        crate::set_enabled(false);
        crate::trace::clear_sink();
        rec.promote(7, summary(PromoteReason::Slow, 200));
        let kept = rec.retained(10);
        assert_eq!(kept.len(), 1);
        assert_eq!(kept[0].trace, 7);
        assert_eq!(kept[0].spans.len(), 2);
        assert_eq!(kept[0].events.len(), 1);
        assert!(kept[0].spans[0].start_us <= kept[0].spans[1].start_us);
        assert!(kept[0].spans.iter().all(|s| s.trace == 7));
        assert_eq!(kept[0].summary.reason, PromoteReason::Slow);
    }

    #[test]
    fn retained_buffer_is_bounded_and_newest_first() {
        let rec = FlightRecorder::new(FlightConfig {
            ring_slots: 8,
            retained_cap: 2,
        });
        for status in [500u16, 501, 502] {
            rec.promote_direct(
                u128::from(status),
                summary(PromoteReason::Error, status),
                Vec::new(),
            );
        }
        assert_eq!(rec.retained_len(), 2);
        assert_eq!(rec.evicted(), 1);
        let kept = rec.retained(10);
        assert_eq!(kept[0].summary.status, 502, "newest first");
        assert_eq!(kept[1].summary.status, 501);
        assert_eq!(rec.retained(1).len(), 1);
    }

    #[test]
    fn ring_overwrites_oldest_records() {
        let _x = crate::trace::tests::exclusive();
        let rec = Arc::new(FlightRecorder::new(FlightConfig {
            ring_slots: 4,
            retained_cap: 4,
        }));
        crate::trace::install_sink(rec.clone());
        crate::set_enabled(true);
        {
            let _g = TraceContext::from_wire(1, 0, false).enter();
            for _ in 0..3 {
                let _s = span("old");
            }
        }
        {
            let _g = TraceContext::from_wire(2, 0, false).enter();
            for _ in 0..4 {
                let _s = span("new");
            }
        }
        crate::set_enabled(false);
        crate::trace::clear_sink();
        rec.promote(1, summary(PromoteReason::Shed, 503));
        let kept = rec.retained(1);
        assert!(kept[0].spans.is_empty(), "trace 1 fully overwritten");
        assert_eq!(rec.ring_writes(), 7);
    }
}
