//! Online learning subsystem: streaming click ingestion, incremental
//! [`StatsDb`](microbrowse_store::StatsDb) deltas, and live model refresh.
//!
//! The batch pipeline builds the feature-statistics database once from a
//! frozen ad-log corpus; this crate closes the loop for a *live* system.
//! Feedback batches (impression/click counts per creative; the query class
//! becomes the refit adgroup's keyword) flow through four stages:
//!
//! ```text
//! POST /v1/feedback            background refitter
//!       |                            |
//!       v                            v
//!  [ journal ]  --replay-->  [ delta fold ]  -->  [ refit ]  --> [ publish ]
//!  crash-safe                 StatsDb::merge      coupled-LR      ArtifactSlot
//!  segments +                 (pure count         final fit       generation;
//!  CRC listing                 increments)                        hot-reload
//! ```
//!
//! * [`journal`] — a bounded on-disk event journal, crash-safe via the
//!   same atomic-write discipline as [`microbrowse_store::slot`]: append
//!   segments (each one CRC-checked
//!   [`frame`](microbrowse_store::codec::frame)), an
//!   [`ArtifactSlot`](microbrowse_store::ArtifactSlot) listing as the
//!   atomic commit point, and a checkpoint that bounds replay to the
//!   uncheckpointed tail.
//! * [`delta`] — turns a feedback batch into a [`StatsDb`] of pure count
//!   increments. Laplace-smoothed odds are derived from counts, so deltas
//!   fold into the base database with [`StatsDb::merge`] — exact,
//!   order-independent, no rebuild.
//! * [`refit`] — [`OnlineLearner`] accumulates deltas plus the online pair
//!   corpus and re-runs the coupled-LR final fit on demand, producing a
//!   [`DeployedModel`](microbrowse_core::serve::DeployedModel) plus folded
//!   stats ready to commit through `ArtifactSlot` for zero-drop hot reload.
//!   Its state (counters, delta, accumulator) rides the journal checkpoint.
//!
//! [`StatsDb`]: microbrowse_store::StatsDb
//! [`StatsDb::merge`]: microbrowse_store::StatsDb::merge

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod delta;
mod error;
pub mod event;
pub mod journal;
pub mod refit;

pub use delta::delta_from_batch;
pub use error::OnlineError;
pub use journal::{Append, Journal, Recovery};
pub use refit::{OnlineLearner, RefitOutput};
