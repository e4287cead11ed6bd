//! Always-on in-memory flight recorder with tail sampling.
//!
//! The [`FlightRecorder`] is a [`TraceSink`] that keeps the most recent
//! trace-tagged [`SpanRecord`]s and [`EventRecord`]s (ids, timing and name;
//! their fields stay with the other sinks) in a fixed-size ring,
//! together with one [`RequestRecord`] per response the server wrote
//! (method, path, status, trace id and where the request's time went).
//! Nothing is written to disk and nothing is retained by default: the ring
//! simply overwrites itself, and `/debug/requests` reads the request
//! records it still holds. When the server's tail sampler decides a
//! request was anomalous — slow, errored, shed, degraded, or explicitly
//! sampled — the recorder *promotes* it: its request record, and every
//! ring record carrying its trace id, are copied into a bounded retained
//! buffer. The `/debug/trace` endpoint serves that buffer.
//!
//! This is **tail sampling**: the keep/drop decision happens after the
//! request finishes, when its outcome is known, so anomalies are always
//! captured while the steady state pays only the ring writes (one atomic
//! `fetch_add` to claim a slot plus one uncontended per-slot mutex each;
//! spans and events without a trace id — e.g. offline pipeline spans — are
//! skipped entirely). `scripts/check.sh` gates the per-record cost via the
//! `overhead_gate` bench binary.

use std::collections::VecDeque;
use std::fmt;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Mutex, MutexGuard, PoisonError};

use crate::trace::{format_trace_id, EventRecord, SpanRecord, TraceSink};

fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// One ring slot's record.
#[derive(Debug, Clone)]
enum RingRecord {
    Span(SpanRecord),
    Event(EventRecord),
    Request(RequestRecord),
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

/// One response the server wrote: what was asked, how it ended, and the
/// per-stage budget breakdown (queue wait, request read and parse,
/// scoring, response write), all in microseconds. The stages partition
/// the request's time in the server, so [`RequestRecord::total_us`] is
/// their sum.
///
/// Displays as the `--access-log` line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RequestRecord {
    /// Request method (`"-"` when the request was never parsed, e.g. a
    /// connection shed from the accept thread or a malformed request).
    pub method: String,
    /// Request path, query stripped (`"-"` when never parsed; a parsed
    /// path always starts with `/`).
    pub path: String,
    /// HTTP status of the response.
    pub status: u16,
    /// 128-bit trace id of the request.
    pub trace: u128,
    /// Time spent queued before a worker picked the connection up.
    pub queue_us: u64,
    /// Time from the request's first byte until it parsed (or failed to).
    pub parse_us: u64,
    /// Time spent scoring / handling.
    pub score_us: u64,
    /// Time spent writing the response.
    pub write_us: u64,
}

impl RequestRecord {
    /// Total latency: the sum of the stage times.
    pub fn total_us(&self) -> u64 {
        self.queue_us
            .saturating_add(self.parse_us)
            .saturating_add(self.score_us)
            .saturating_add(self.write_us)
    }

    /// `METHOD path`, or `"-"` when the request was never parsed.
    pub fn endpoint(&self) -> String {
        if self.path == "-" {
            "-".to_owned()
        } else {
            format!("{} {}", self.method, self.path)
        }
    }
}

impl fmt::Display for RequestRecord {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "access {} {} {} trace={} total_us={} queue_us={} parse_us={} score_us={} write_us={}",
            self.method,
            self.path,
            self.status,
            format_trace_id(self.trace),
            self.total_us(),
            self.queue_us,
            self.parse_us,
            self.score_us,
            self.write_us,
        )
    }
}

/// One retained anomalous request: why it was kept, its record, and every
/// span and event the ring still held for its trace id at promotion time.
#[derive(Debug, Clone)]
pub struct RetainedTrace {
    /// Why the trace was retained.
    pub reason: PromoteReason,
    /// Outcome and stage breakdown; `request.trace` is the trace id.
    pub request: RequestRecord,
    /// Spans, ordered by start time, without their fields.
    pub spans: Vec<SpanRecord>,
    /// Events, ordered by emission time, without their fields.
    pub events: Vec<EventRecord>,
}

/// Sizing knobs for the recorder.
#[derive(Debug, Clone, Copy)]
pub struct FlightConfig {
    /// Ring capacity in records (spans + events + request records).
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
    /// Each slot holds its record and the write sequence number that
    /// claimed it, so readers can order what they find.
    slots: Vec<Mutex<Option<(u64, RingRecord)>>>,
    cursor: AtomicUsize,
    request_writes: AtomicU64,
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
            request_writes: AtomicU64::new(0),
            retained: Mutex::new(VecDeque::new()),
            retained_cap: cfg.retained_cap.max(1),
            evicted: AtomicU64::new(0),
        }
    }

    fn push(&self, record: RingRecord) {
        let seq = self.cursor.fetch_add(1, Ordering::Relaxed);
        *lock(&self.slots[seq % self.slots.len()]) = Some((seq as u64, record));
    }

    /// Total records written into the ring since startup, request records
    /// included (overhead gate instrumentation).
    pub fn ring_writes(&self) -> u64 {
        self.cursor.load(Ordering::Relaxed) as u64
    }

    /// Request records written into the ring since startup.
    pub fn request_writes(&self) -> u64 {
        self.request_writes.load(Ordering::Relaxed)
    }

    /// Retained traces evicted because the buffer was full.
    pub fn evicted(&self) -> u64 {
        self.evicted.load(Ordering::Relaxed)
    }

    /// Write one response's record into the ring. When `reason` is set the
    /// tail sampler found the request anomalous, and the record is also
    /// retained with every span and event the ring holds for its trace.
    pub fn record(&self, request: RequestRecord, reason: Option<PromoteReason>) {
        if let Some(reason) = reason {
            self.promote(reason, request.clone());
        }
        self.push_request(request);
    }

    /// [`FlightRecorder::record`] for a request known to have no spans or
    /// events in the ring (a connection shed before a worker read it):
    /// retains it without scanning the ring.
    pub fn record_direct(&self, request: RequestRecord, reason: PromoteReason) {
        self.promote_direct(reason, request.clone());
        self.push_request(request);
    }

    fn push_request(&self, request: RequestRecord) {
        self.push(RingRecord::Request(request));
        self.request_writes.fetch_add(1, Ordering::Relaxed);
    }

    /// The `n` most recent request records the ring still holds, newest
    /// first.
    pub fn recent_requests(&self, n: usize) -> Vec<RequestRecord> {
        let mut found: Vec<(u64, RequestRecord)> = self
            .slots
            .iter()
            .filter_map(|slot| match lock(slot).as_ref() {
                Some((seq, RingRecord::Request(r))) => Some((*seq, r.clone())),
                _ => None,
            })
            .collect();
        found.sort_unstable_by_key(|&(seq, _)| std::cmp::Reverse(seq));
        found.into_iter().take(n).map(|(_, r)| r).collect()
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

    /// Retain `request` with every span and event in the ring carrying its
    /// trace id.
    fn promote(&self, reason: PromoteReason, request: RequestRecord) {
        let mut spans = Vec::new();
        let mut events = Vec::new();
        for slot in &self.slots {
            match lock(slot).as_ref() {
                Some((_, RingRecord::Span(s))) if s.trace == request.trace => spans.push(s.clone()),
                Some((_, RingRecord::Event(e))) if e.trace == request.trace => {
                    events.push(e.clone())
                }
                _ => {}
            }
        }
        spans.sort_by_key(|s| s.start_us);
        events.sort_by_key(|e| e.at_us);
        self.retain(RetainedTrace {
            reason,
            request,
            spans,
            events,
        });
    }

    /// Retain `request` alone, skipping the ring scan.
    fn promote_direct(&self, reason: PromoteReason, request: RequestRecord) {
        self.retain(RetainedTrace {
            reason,
            request,
            spans: Vec::new(),
            events: Vec::new(),
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

/// The ring keeps a span's or event's ids, timing and name: `/debug/trace`
/// renders nothing else, so its field bag stays with the JSONL and memory
/// sinks and the copy allocates nothing.
impl TraceSink for FlightRecorder {
    fn on_span(&self, span: &SpanRecord) {
        if span.trace != 0 {
            self.push(RingRecord::Span(SpanRecord {
                fields: Vec::new(),
                ..*span
            }));
        }
    }

    fn on_event(&self, event: &EventRecord) {
        if event.trace != 0 {
            self.push(RingRecord::Event(EventRecord {
                fields: Vec::new(),
                ..*event
            }));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::{event, span, TraceContext};
    use std::sync::Arc;

    fn request(trace: u128, status: u16) -> RequestRecord {
        RequestRecord {
            method: "POST".to_owned(),
            path: "/v1/score".to_owned(),
            status,
            trace,
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
            let _outer = span("serve.request").with("endpoint", "/v1/score");
            event("serve.tick").with("n", 1u64);
            let _inner = span("engine.score");
        }
        {
            // A different trace the promotion must not pick up.
            let _g = TraceContext::from_wire(8, 0, false).enter();
            let _other = span("serve.request");
        }
        crate::set_enabled(false);
        crate::trace::clear_sink();
        rec.promote(PromoteReason::Slow, request(7, 200));
        let kept = rec.retained(10);
        assert_eq!(kept.len(), 1);
        assert_eq!(kept[0].request.trace, 7);
        assert_eq!(kept[0].spans.len(), 2);
        assert_eq!(kept[0].events.len(), 1);
        assert!(kept[0].spans[0].start_us <= kept[0].spans[1].start_us);
        assert!(kept[0].spans.iter().all(|s| s.trace == 7));
        assert!(kept[0].spans.iter().all(|s| s.fields.is_empty()));
        assert!(kept[0].events[0].fields.is_empty());
        assert_eq!(kept[0].reason, PromoteReason::Slow);
    }

    #[test]
    fn retained_buffer_is_bounded_and_newest_first() {
        let rec = FlightRecorder::new(FlightConfig {
            ring_slots: 8,
            retained_cap: 2,
        });
        for status in [500u16, 501, 502] {
            rec.promote_direct(PromoteReason::Error, request(u128::from(status), status));
        }
        assert_eq!(rec.retained_len(), 2);
        assert_eq!(rec.evicted(), 1);
        let kept = rec.retained(10);
        assert_eq!(kept[0].request.status, 502, "newest first");
        assert_eq!(kept[1].request.status, 501);
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
        rec.promote(PromoteReason::Shed, request(1, 503));
        let kept = rec.retained(1);
        assert!(kept[0].spans.is_empty(), "trace 1 fully overwritten");
        assert_eq!(rec.ring_writes(), 7);
    }

    #[test]
    fn request_ring_is_bounded_and_newest_first() {
        let rec = FlightRecorder::new(FlightConfig {
            ring_slots: 2,
            retained_cap: 2,
        });
        assert!(rec.recent_requests(10).is_empty());
        for status in [200u16, 201, 202] {
            rec.record(request(u128::from(status), status), None);
        }
        assert_eq!(rec.request_writes(), 3);
        let recent = rec.recent_requests(10);
        assert_eq!(recent.len(), 2);
        assert_eq!(recent[0].status, 202);
        assert_eq!(recent[1].status, 201);
        assert_eq!(rec.recent_requests(1).len(), 1);
        assert_eq!(recent[0].total_us(), 10);
        assert_eq!(rec.retained_len(), 0, "no reason, nothing retained");
    }

    #[test]
    fn request_record_displays_as_the_access_log_line() {
        assert_eq!(
            request(0xabc, 200).to_string(),
            "access POST /v1/score 200 trace=00000000000000000000000000000abc \
             total_us=10 queue_us=1 parse_us=2 score_us=3 write_us=4"
        );
        let shed = RequestRecord {
            method: "-".to_owned(),
            path: "-".to_owned(),
            status: 503,
            trace: 1,
            queue_us: 0,
            parse_us: 0,
            score_us: 0,
            write_us: 7,
        };
        assert_eq!(
            shed.to_string(),
            "access - - 503 trace=00000000000000000000000000000001 \
             total_us=7 queue_us=0 parse_us=0 score_us=0 write_us=7"
        );
        assert_eq!(shed.endpoint(), "-");
        assert_eq!(request(1, 200).endpoint(), "POST /v1/score");
    }

    #[test]
    fn a_promoted_record_is_retained_and_stays_in_the_ring() {
        let rec = FlightRecorder::new(FlightConfig::default());
        rec.record(request(9, 500), Some(PromoteReason::Error));
        rec.record_direct(request(10, 503), PromoteReason::Shed);
        let kept = rec.retained(10);
        assert_eq!(kept.len(), 2);
        assert_eq!(
            (kept[0].reason, kept[0].request.trace),
            (PromoteReason::Shed, 10)
        );
        assert_eq!(kept[1].request, request(9, 500));
        let recent = rec.recent_requests(10);
        assert_eq!(recent, vec![request(10, 503), request(9, 500)]);
    }
}
