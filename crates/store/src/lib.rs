//! The feature statistics database (paper §V-C).
//!
//! Phase 1 of the snippet-classification pipeline (Figure 1) scans the ad
//! corpus and, for every feature — term n-gram, phrase rewrite, term
//! position, rewrite position pair — counts how often the feature's presence
//! coincided with a serve-weight increase (`delta-sw = +1`) versus decrease
//! (`delta-sw = -1`). The Laplace-smoothed probability `p` of `+1` and its
//! odds ratio `p / (1 - p)` are "the statistic corresponding to that feature
//! in the statistics database", later used to initialize classifier weights.
//!
//! This crate is that database, built like a real storage component:
//!
//! * [`key`] — the typed key space ([`FeatureKey`]).
//! * [`stats`] — up/down counters and smoothed estimators ([`FeatureStat`]).
//! * [`db`] — the in-memory store ([`StatsDb`]) plus a sharded concurrent
//!   builder ([`ShardedBuilder`]) for parallel corpus scans.
//! * [`codec`] — the binary codec every artifact uses: varints, strings,
//!   keys and records, and the one magic + version + CRC-32 frame.
//! * [`crc`] — CRC-32 (IEEE) for artifact integrity.
//! * [`mod@file`] — stats snapshot serialization.
//! * [`slot`] — crash-safe generation slots: atomic writes, a manifest
//!   pointer, and a recovery loader that rolls back past torn or corrupt
//!   generations.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod codec;
pub mod crc;
pub mod db;
pub mod file;
pub mod key;
pub mod slot;
pub mod stats;

pub use db::{ShardedBuilder, SortedRecords, StatsDb};
pub use file::{read_snapshot, write_snapshot, SnapshotError};
pub use key::{FeatureKey, KeyRef};
pub use slot::{write_atomic, ArtifactSlot, SlotError, SlotLoad};
pub use stats::FeatureStat;
