//! `microbrowse-server` — the network face of the serve path.
//!
//! A std-only (zero external dependencies) threaded HTTP/1.1 server that
//! exposes the pairwise snippet scorer over loopback or LAN:
//!
//! * `POST /v1/score` — score one creative pair (`{"r": "...", "s": "..."}`).
//! * `POST /v1/rank` — rank creatives best-first (`{"creatives": [...]}`).
//! * `POST /v1/batch` — score a JSON array of pairs in one engine pass;
//!   arrays over `--max-batch` answer `413`.
//! * `GET /healthz` — slot generations, fidelity, queue depth; `503` when
//!   degraded or draining.
//! * `GET /metrics` — Prometheus text dump of the `microbrowse-obs`
//!   registry.
//! * `GET /version` — crate name, version, and enabled capabilities.
//! * `GET /debug/trace` — recently retained anomalous traces from the
//!   in-process flight recorder (tail sampling: slow / errored / shed /
//!   degraded / force-sampled requests).
//! * `GET /debug/requests` — the request records still in the flight
//!   recorder's ring, newest first, with per-stage
//!   (queue/parse/score/write) latency breakdown.
//!
//! Distributed tracing: callers may send `X-Mb-Trace-Id` (32 hex chars)
//! and `X-Mb-Parent-Span`; the server adopts them so one trace id threads
//! client → accept → queue wait → worker → scoring engine. Every response
//! echoes `X-Mb-Trace-Id` (minting an id when the caller sent none), so
//! any outcome — including 503s shed from the accept thread — can be
//! joined to `/debug/trace`. Every response the server writes — served,
//! shed, or answering bytes that never parsed — is one
//! [`RequestRecord`](microbrowse_obs::flight::RequestRecord), built in
//! one place: it fills `X-Mb-Server-Timing`, is the `--access-log` line,
//! backs `/debug/requests`, and is what `/debug/trace` retains.
//!
//! Architecture (DESIGN.md §11): a strict bounded HTTP parser feeds an
//! accept loop that pushes connections onto a **bounded queue** drained by
//! a fixed worker pool — saturation answers `503 Retry-After` immediately
//! instead of queueing unboundedly. A background thread polls the
//! [`ArtifactSlot`](microbrowse_store::ArtifactSlot) manifests and
//! **hot-swaps** a freshly loaded `Arc<ServingBundle>` with zero downtime.
//! Shutdown drains in-flight sessions up to a deadline and reports
//! drained/aborted counts.
//!
//! Every request and response body is a [`microbrowse_api::v1`] wire type —
//! this crate contains no ad-hoc JSON shapes. A worker answers a
//! connection's requests one at a time, in arrival order, pipelined or
//! not.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod client;
pub mod deadline;
pub mod http;
pub mod queue;
pub mod server;
pub mod state;

pub use server::{
    start, BundleSource, DrainReport, OnlineConfig, ServerConfig, ServerHandle,
    HTTP_METRIC_COUNTERS, HTTP_METRIC_HISTOGRAMS,
};
pub use state::{ReloadSource, ServeState};
