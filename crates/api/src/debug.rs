//! Wire shapes for the server's `/debug` introspection surface and the
//! enriched `/version` endpoint.
//!
//! `GET /debug/trace?last=N` returns a [`DebugTraceResponse`]: the most
//! recently retained anomalous traces from the in-process flight recorder,
//! each with its promotion reason, outcome, per-stage budget breakdown,
//! and the spans/events the recorder still held. `GET /debug/requests`
//! returns a [`DebugRequestsResponse`]: the request records still in the
//! flight recorder's ring, newest first. Both views render the same
//! per-request record, so a trace id present in both has the same status
//! and stages in each. Like
//! the `/v1` shapes, every type here serializes through
//! [`microbrowse_obs::json`] and is pinned byte-for-byte by golden-string
//! tests; these are diagnostics, but clients still script against them.

use microbrowse_obs::json::{self, Json, JsonObject};

use crate::v1::WireError;

/// Shape message for a malformed [`DebugStages`].
pub const DEBUG_STAGES_SHAPE: &str = "not a debug stage breakdown";
/// Shape message for a malformed [`DebugTraceResponse`].
pub const DEBUG_TRACE_SHAPE: &str = "not a debug trace response";
/// Shape message for a malformed [`DebugRequestsResponse`].
pub const DEBUG_REQUESTS_SHAPE: &str = "not a debug requests response";
/// Shape message for a malformed [`VersionInfo`].
pub const VERSION_INFO_SHAPE: &str = "not a version info response";

fn parse_body(body: &str) -> Result<Json, WireError> {
    Json::parse(body).map_err(WireError::Syntax)
}

fn get_u64(v: &Json, key: &str) -> Option<u64> {
    let n = v.get(key)?.as_f64()?;
    if n.is_finite() && n >= 0.0 && n.fract() == 0.0 {
        Some(n as u64)
    } else {
        None
    }
}

fn get_str(v: &Json, key: &str) -> Option<String> {
    v.get(key)?.as_str().map(str::to_owned)
}

/// Per-stage budget breakdown of one request, in microseconds: time queued
/// before a worker picked the connection up, time reading and parsing the
/// request, time scoring/handling, and time writing the response.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct DebugStages {
    /// Queue wait (accept → worker dequeue).
    pub queue_us: u64,
    /// Request read + parse.
    pub parse_us: u64,
    /// Handler / scoring time.
    pub score_us: u64,
    /// Response serialization + socket write.
    pub write_us: u64,
}

impl DebugStages {
    /// Render as a JSON object.
    pub fn to_json(&self) -> String {
        JsonObject::new()
            .u64("queue_us", self.queue_us)
            .u64("parse_us", self.parse_us)
            .u64("score_us", self.score_us)
            .u64("write_us", self.write_us)
            .finish()
    }

    fn from_value(v: &Json) -> Result<Self, WireError> {
        let shape = || WireError::Shape(DEBUG_STAGES_SHAPE);
        Ok(Self {
            queue_us: get_u64(v, "queue_us").ok_or_else(shape)?,
            parse_us: get_u64(v, "parse_us").ok_or_else(shape)?,
            score_us: get_u64(v, "score_us").ok_or_else(shape)?,
            write_us: get_u64(v, "write_us").ok_or_else(shape)?,
        })
    }
}

/// One span of a retained trace (the flight-recorder view: ids, timing,
/// and name; field bags stay in the JSONL sink).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DebugSpan {
    /// Process-unique span id.
    pub id: u64,
    /// Parent span id (0 = root).
    pub parent: u64,
    /// Span name, e.g. `"serve.request"`.
    pub name: String,
    /// Recording thread id.
    pub thread: u64,
    /// Start, microseconds since the process trace epoch.
    pub start_us: u64,
    /// Duration in microseconds.
    pub dur_us: u64,
}

impl DebugSpan {
    /// Render as a JSON object.
    pub fn to_json(&self) -> String {
        self.fill(JsonObject::new()).finish()
    }

    fn fill(&self, obj: JsonObject) -> JsonObject {
        obj.u64("id", self.id)
            .u64("parent", self.parent)
            .str("name", &self.name)
            .u64("thread", self.thread)
            .u64("start_us", self.start_us)
            .u64("dur_us", self.dur_us)
    }

    fn from_value(v: &Json) -> Result<Self, WireError> {
        let shape = || WireError::Shape(DEBUG_TRACE_SHAPE);
        Ok(Self {
            id: get_u64(v, "id").ok_or_else(shape)?,
            parent: get_u64(v, "parent").ok_or_else(shape)?,
            name: get_str(v, "name").ok_or_else(shape)?,
            thread: get_u64(v, "thread").ok_or_else(shape)?,
            start_us: get_u64(v, "start_us").ok_or_else(shape)?,
            dur_us: get_u64(v, "dur_us").ok_or_else(shape)?,
        })
    }
}

/// One event of a retained trace.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DebugEvent {
    /// Innermost open span when the event fired (0 = none).
    pub span: u64,
    /// Event name, e.g. `"client.retry"`.
    pub name: String,
    /// Recording thread id.
    pub thread: u64,
    /// Emission time, microseconds since the process trace epoch.
    pub at_us: u64,
}

impl DebugEvent {
    /// Render as a JSON object.
    pub fn to_json(&self) -> String {
        self.fill(JsonObject::new()).finish()
    }

    fn fill(&self, obj: JsonObject) -> JsonObject {
        obj.u64("span", self.span)
            .str("name", &self.name)
            .u64("thread", self.thread)
            .u64("at_us", self.at_us)
    }

    fn from_value(v: &Json) -> Result<Self, WireError> {
        let shape = || WireError::Shape(DEBUG_TRACE_SHAPE);
        Ok(Self {
            span: get_u64(v, "span").ok_or_else(shape)?,
            name: get_str(v, "name").ok_or_else(shape)?,
            thread: get_u64(v, "thread").ok_or_else(shape)?,
            at_us: get_u64(v, "at_us").ok_or_else(shape)?,
        })
    }
}

/// One retained anomalous trace, as served by `GET /debug/trace`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DebugTraceEntry {
    /// 32-hex-char trace id (the `X-Mb-Trace-Id` wire form).
    pub trace_id: String,
    /// Promotion reason: `slow`, `error`, `shed`, `degraded`, or `sampled`.
    pub reason: String,
    /// HTTP status of the response.
    pub status: u16,
    /// `METHOD path`, or `"-"` when the request was never parsed.
    pub endpoint: String,
    /// Total request latency in microseconds.
    pub total_us: u64,
    /// Per-stage breakdown.
    pub stages: DebugStages,
    /// Retained spans, ordered by start time.
    pub spans: Vec<DebugSpan>,
    /// Retained events, ordered by emission time.
    pub events: Vec<DebugEvent>,
}

impl DebugTraceEntry {
    /// Render as a JSON object.
    pub fn to_json(&self) -> String {
        self.fill(JsonObject::new()).finish()
    }

    fn fill(&self, obj: JsonObject) -> JsonObject {
        obj.str("trace_id", &self.trace_id)
            .str("reason", &self.reason)
            .u64("status", u64::from(self.status))
            .str("endpoint", &self.endpoint)
            .u64("total_us", self.total_us)
            .raw("stages", &self.stages.to_json())
            .objects("spans", &self.spans, |obj, span| span.fill(obj))
            .objects("events", &self.events, |obj, event| event.fill(obj))
    }

    fn from_value(v: &Json) -> Result<Self, WireError> {
        let shape = || WireError::Shape(DEBUG_TRACE_SHAPE);
        let status = get_u64(v, "status").ok_or_else(shape)?;
        let spans = v
            .get("spans")
            .and_then(Json::as_array)
            .ok_or_else(shape)?
            .iter()
            .map(DebugSpan::from_value)
            .collect::<Result<_, _>>()?;
        let events = v
            .get("events")
            .and_then(Json::as_array)
            .ok_or_else(shape)?
            .iter()
            .map(DebugEvent::from_value)
            .collect::<Result<_, _>>()?;
        Ok(Self {
            trace_id: get_str(v, "trace_id").ok_or_else(shape)?,
            reason: get_str(v, "reason").ok_or_else(shape)?,
            status: u16::try_from(status).map_err(|_| shape())?,
            endpoint: get_str(v, "endpoint").ok_or_else(shape)?,
            total_us: get_u64(v, "total_us").ok_or_else(shape)?,
            stages: DebugStages::from_value(v.get("stages").ok_or_else(shape)?)?,
            spans,
            events,
        })
    }
}

/// Response body of `GET /debug/trace?last=N`: retained traces, newest
/// first.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct DebugTraceResponse {
    /// Retained traces, newest first.
    pub traces: Vec<DebugTraceEntry>,
}

impl DebugTraceResponse {
    /// Render as a JSON object (`count` is derived, rendered last).
    pub fn to_json(&self) -> String {
        JsonObject::new()
            .objects("traces", &self.traces, |obj, trace| trace.fill(obj))
            .u64("count", self.traces.len() as u64)
            .finish()
    }

    /// Parse from the wire form.
    pub fn from_json(body: &str) -> Result<Self, WireError> {
        let v = parse_body(body)?;
        let shape = || WireError::Shape(DEBUG_TRACE_SHAPE);
        let traces = v
            .get("traces")
            .and_then(Json::as_array)
            .ok_or_else(shape)?
            .iter()
            .map(DebugTraceEntry::from_value)
            .collect::<Result<_, _>>()?;
        Ok(Self { traces })
    }
}

/// One request record from the flight recorder's ring, as served by
/// `GET /debug/requests`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DebugRequestEntry {
    /// Request method, or `"-"` when the request was never parsed (a
    /// shed connection or a malformed request).
    pub method: String,
    /// Request path (query stripped), or `"-"` when never parsed.
    pub path: String,
    /// Response status.
    pub status: u16,
    /// 32-hex-char trace id of the request.
    pub trace_id: String,
    /// Total request latency in microseconds.
    pub total_us: u64,
    /// Per-stage breakdown.
    pub stages: DebugStages,
}

impl DebugRequestEntry {
    /// Render as a JSON object.
    pub fn to_json(&self) -> String {
        self.fill(JsonObject::new()).finish()
    }

    fn fill(&self, obj: JsonObject) -> JsonObject {
        obj.str("method", &self.method)
            .str("path", &self.path)
            .u64("status", u64::from(self.status))
            .str("trace_id", &self.trace_id)
            .u64("total_us", self.total_us)
            .raw("stages", &self.stages.to_json())
    }

    fn from_value(v: &Json) -> Result<Self, WireError> {
        let shape = || WireError::Shape(DEBUG_REQUESTS_SHAPE);
        let status = get_u64(v, "status").ok_or_else(shape)?;
        Ok(Self {
            method: get_str(v, "method").ok_or_else(shape)?,
            path: get_str(v, "path").ok_or_else(shape)?,
            status: u16::try_from(status).map_err(|_| shape())?,
            trace_id: get_str(v, "trace_id").ok_or_else(shape)?,
            total_us: get_u64(v, "total_us").ok_or_else(shape)?,
            stages: DebugStages::from_value(v.get("stages").ok_or_else(shape)?)
                .map_err(|_| shape())?,
        })
    }
}

/// Response body of `GET /debug/requests`: the request records still in
/// the flight recorder's ring, newest first.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct DebugRequestsResponse {
    /// Recent requests, newest first.
    pub requests: Vec<DebugRequestEntry>,
}

impl DebugRequestsResponse {
    /// Render as a JSON object (`count` is derived, rendered last).
    pub fn to_json(&self) -> String {
        JsonObject::new()
            .objects("requests", &self.requests, |obj, r| r.fill(obj))
            .u64("count", self.requests.len() as u64)
            .finish()
    }

    /// Parse from the wire form.
    pub fn from_json(body: &str) -> Result<Self, WireError> {
        let v = parse_body(body)?;
        let shape = || WireError::Shape(DEBUG_REQUESTS_SHAPE);
        let requests = v
            .get("requests")
            .and_then(Json::as_array)
            .ok_or_else(shape)?
            .iter()
            .map(DebugRequestEntry::from_value)
            .collect::<Result<_, _>>()?;
        Ok(Self { requests })
    }
}

/// Response body of `GET /version`: crate identity plus the runtime
/// capabilities enabled in this server process.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct VersionInfo {
    /// Serving binary name.
    pub name: String,
    /// Crate version (`CARGO_PKG_VERSION` of the server).
    pub version: String,
    /// Enabled capabilities, e.g. `"flight-recorder"`, `"access-log"`.
    pub features: Vec<String>,
}

impl VersionInfo {
    /// Render as a JSON object.
    pub fn to_json(&self) -> String {
        JsonObject::new()
            .str("name", &self.name)
            .str("version", &self.version)
            .array("features", &self.features, |out, f| json::write_str(out, f))
            .finish()
    }

    /// Parse from the wire form.
    pub fn from_json(body: &str) -> Result<Self, WireError> {
        let v = parse_body(body)?;
        let shape = || WireError::Shape(VERSION_INFO_SHAPE);
        let features = v
            .get("features")
            .and_then(Json::as_array)
            .ok_or_else(shape)?
            .iter()
            .map(|f| f.as_str().map(str::to_owned).ok_or_else(shape))
            .collect::<Result<_, _>>()?;
        Ok(Self {
            name: get_str(&v, "name").ok_or_else(shape)?,
            version: get_str(&v, "version").ok_or_else(shape)?,
            features,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use microbrowse_obs::json::assert_parses;

    fn stages() -> DebugStages {
        DebugStages {
            queue_us: 120,
            parse_us: 45,
            score_us: 830,
            write_us: 12,
        }
    }

    #[test]
    fn debug_trace_response_golden_round_trip() {
        let resp = DebugTraceResponse {
            traces: vec![DebugTraceEntry {
                trace_id: "000102030405060708090a0b0c0d0e0f".to_owned(),
                reason: "shed".to_owned(),
                status: 503,
                endpoint: "POST /v1/score".to_owned(),
                total_us: 1007,
                stages: stages(),
                spans: vec![DebugSpan {
                    id: 9,
                    parent: 2,
                    name: "serve.request".to_owned(),
                    thread: 3,
                    start_us: 100,
                    dur_us: 40,
                }],
                events: vec![DebugEvent {
                    span: 9,
                    name: "serve.deadline_exceeded".to_owned(),
                    thread: 3,
                    at_us: 139,
                }],
            }],
        };
        let wire = resp.to_json();
        assert_eq!(
            wire,
            r#"{"traces":[{"trace_id":"000102030405060708090a0b0c0d0e0f","reason":"shed","status":503,"endpoint":"POST /v1/score","total_us":1007,"stages":{"queue_us":120,"parse_us":45,"score_us":830,"write_us":12},"spans":[{"id":9,"parent":2,"name":"serve.request","thread":3,"start_us":100,"dur_us":40}],"events":[{"span":9,"name":"serve.deadline_exceeded","thread":3,"at_us":139}]}],"count":1}"#
        );
        assert_parses(&wire);
        assert_eq!(DebugTraceResponse::from_json(&wire).unwrap(), resp);
    }

    #[test]
    fn empty_debug_trace_response_golden() {
        let wire = DebugTraceResponse::default().to_json();
        assert_eq!(wire, r#"{"traces":[],"count":0}"#);
        assert_parses(&wire);
        assert_eq!(
            DebugTraceResponse::from_json(&wire).unwrap(),
            DebugTraceResponse::default()
        );
    }

    #[test]
    fn debug_requests_response_golden_round_trip() {
        let resp = DebugRequestsResponse {
            requests: vec![DebugRequestEntry {
                method: "POST".to_owned(),
                path: "/v1/score".to_owned(),
                status: 200,
                trace_id: "00000000000000000000000000000abc".to_owned(),
                total_us: 1007,
                stages: stages(),
            }],
        };
        let wire = resp.to_json();
        assert_eq!(
            wire,
            r#"{"requests":[{"method":"POST","path":"/v1/score","status":200,"trace_id":"00000000000000000000000000000abc","total_us":1007,"stages":{"queue_us":120,"parse_us":45,"score_us":830,"write_us":12}}],"count":1}"#
        );
        assert_parses(&wire);
        assert_eq!(DebugRequestsResponse::from_json(&wire).unwrap(), resp);
    }

    #[test]
    fn version_info_golden_round_trip() {
        let info = VersionInfo {
            name: "microbrowse-server".to_owned(),
            version: "0.1.0".to_owned(),
            features: vec!["flight-recorder".to_owned(), "access-log".to_owned()],
        };
        let wire = info.to_json();
        assert_eq!(
            wire,
            r#"{"name":"microbrowse-server","version":"0.1.0","features":["flight-recorder","access-log"]}"#
        );
        assert_parses(&wire);
        assert_eq!(VersionInfo::from_json(&wire).unwrap(), info);
    }

    #[test]
    fn malformed_bodies_report_shapes() {
        assert!(matches!(
            DebugTraceResponse::from_json("[]"),
            Err(WireError::Shape(DEBUG_TRACE_SHAPE))
        ));
        assert!(matches!(
            DebugTraceResponse::from_json("not json"),
            Err(WireError::Syntax(_))
        ));
        assert!(matches!(
            DebugRequestsResponse::from_json(r#"{"requests":[{"method":"GET"}],"count":1}"#),
            Err(WireError::Shape(DEBUG_REQUESTS_SHAPE))
        ));
        assert!(matches!(
            VersionInfo::from_json(r#"{"name":"x","version":"y","features":[1]}"#),
            Err(WireError::Shape(VERSION_INFO_SHAPE))
        ));
    }
}
