//! # microbrowse-api — versioned wire types for the scoring API
//!
//! The single definition of every JSON shape that crosses a process
//! boundary: the HTTP server's `/v1/*` request and response bodies, the
//! CLI's `--json` output, and the client's typed helpers all import these
//! types instead of hand-rolling the JSON. Serialization goes through
//! [`microbrowse_obs::json`], and every shape is pinned byte-for-byte by
//! golden-string tests.
//!
//! Versioning: the [`v1`] module matches the `/v1/*` endpoint namespace. A
//! breaking wire change gets a `v2` module and a `/v2/*` namespace; `v1`
//! shapes stay frozen.

#![deny(missing_docs)]
#![forbid(unsafe_code)]

pub mod debug;
pub mod v1;
