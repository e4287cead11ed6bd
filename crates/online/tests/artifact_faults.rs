//! Fault injection for the two online artifacts a restart depends on: the
//! learner state and the journal checkpoint that carries it. Cutting
//! either at any offset or flipping any single bit must yield an error —
//! never a panic, never a silently different learner. Cuts are made twice:
//! through the frame (the CRC trailer catches them) and inside a re-framed
//! payload with a valid CRC, so the decoders' own bounds checks must catch
//! them.
//!
//! The last test pins compatibility with the older learner-state layout,
//! which ended in a position-class blob.

use std::path::{Path, PathBuf};

use microbrowse_api::v1::{FeedbackEvent, FeedbackRequest};
use microbrowse_core::ModelSpec;
use microbrowse_faultinject::{bit_flip, truncate};
use microbrowse_online::{Journal, OnlineLearner};
use microbrowse_store::codec::{frame, put_str, put_varint, unframe};
use microbrowse_store::StatsDb;

const STATE_MAGIC: &[u8; 8] = b"MBONLS0\0";
const VERSION: u32 = 1;

fn ev(adgroup: u64, creative: u64, snippet: &str, impressions: u64, clicks: u64) -> FeedbackEvent {
    FeedbackEvent {
        adgroup,
        creative,
        snippet: snippet.to_string(),
        position: 1 + creative % 3,
        query_class: "travel".to_string(),
        impressions,
        clicks,
    }
}

/// A learner whose state has every section populated: counters, a
/// non-empty delta snapshot and a two-adgroup accumulator.
fn sample_learner() -> OnlineLearner {
    let mut learner = OnlineLearner::new(StatsDb::new(), ModelSpec::m4());
    for g in 1..=2u64 {
        learner.absorb(&FeedbackRequest {
            key: format!("k{g}"),
            events: vec![
                ev(g, g * 10, "cheap flights|book now today", 4000, 700),
                ev(g, g * 10 + 1, "flights|standard fare terms", 4000, 90),
            ],
        });
    }
    assert!(learner.delta_features() > 0, "sample delta is empty");
    learner
}

fn fresh() -> OnlineLearner {
    OnlineLearner::new(StatsDb::new(), ModelSpec::m4())
}

/// Restoring `bytes` fails and leaves the learner untouched.
fn assert_restore_rejected(bytes: &[u8], what: &str) {
    let mut learner = fresh();
    let err = learner
        .restore_state(bytes)
        .expect_err(&format!("{what} restored"));
    let _ = err.to_string();
    assert_eq!(learner.state_bytes(), fresh().state_bytes(), "{what}");
}

#[test]
fn learner_state_cut_at_every_offset_is_rejected() {
    let bytes = sample_learner().state_bytes();
    for cut in 0..bytes.len() {
        assert_restore_rejected(&truncate(&bytes, cut), &format!("cut at {cut}"));
    }
    let payload = unframe(STATE_MAGIC, VERSION, &bytes).expect("valid frame");
    for cut in 0..payload.len() {
        let reframed = frame(STATE_MAGIC, VERSION, &payload[..cut]);
        assert_restore_rejected(&reframed, &format!("payload cut at {cut}"));
    }
}

#[test]
fn learner_state_single_bit_flips_are_rejected() {
    let bytes = sample_learner().state_bytes();
    for offset in 0..bytes.len() {
        for bit in 0..8 {
            let flipped = bit_flip(&bytes, offset, 1 << bit);
            assert_restore_rejected(&flipped, &format!("flip at {offset} bit {bit}"));
        }
    }
}

fn tmpdir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "mb-artifact-faults-{tag}-{}-{:?}",
        std::process::id(),
        std::thread::current().id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// A journal with one checkpoint generation (two folded keys and a small
/// opaque state). Returns the generation file and its good bytes.
fn checkpointed_journal(dir: &Path) -> (PathBuf, Vec<u8>) {
    let (mut journal, _) = Journal::open(dir).expect("open");
    for g in 1..=2u64 {
        let batch = FeedbackRequest {
            key: format!("key-{g}"),
            events: vec![ev(g, g * 10, "a|b", 100, 5)],
        };
        journal.append(&batch).expect("append");
    }
    journal
        .commit_checkpoint(b"opaque learner state")
        .expect("checkpoint");
    let path = dir.join("online.ckpt.gen-1");
    let good = std::fs::read(&path).expect("read checkpoint");
    (path, good)
}

/// With its only checkpoint generation damaged, the journal refuses to
/// open rather than replay from a state it cannot read.
fn assert_open_rejected(dir: &Path, path: &Path, bytes: &[u8], what: &str) {
    std::fs::write(path, bytes).expect("write damaged checkpoint");
    let err = Journal::open(dir).expect_err(&format!("{what} opened"));
    let _ = err.to_string();
}

#[test]
fn checkpoint_cut_at_every_offset_is_rejected() {
    let dir = tmpdir("cut");
    let (path, good) = checkpointed_journal(&dir);
    for cut in 0..good.len() {
        assert_open_rejected(&dir, &path, &truncate(&good, cut), &format!("cut at {cut}"));
    }
    let mut magic = [0u8; 8];
    magic.copy_from_slice(&good[..8]);
    let payload = unframe(&magic, VERSION, &good).expect("valid frame");
    for cut in 0..payload.len() {
        let reframed = frame(&magic, VERSION, &payload[..cut]);
        assert_open_rejected(&dir, &path, &reframed, &format!("payload cut at {cut}"));
    }
    std::fs::write(&path, &good).expect("restore checkpoint");
    let (_, rec) = Journal::open(&dir).expect("intact checkpoint opens");
    assert_eq!(rec.state.as_deref(), Some(&b"opaque learner state"[..]));
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn checkpoint_single_bit_flips_are_rejected() {
    let dir = tmpdir("flip");
    let (path, good) = checkpointed_journal(&dir);
    for offset in 0..good.len() {
        for bit in 0..8 {
            let flipped = bit_flip(&good, offset, 1 << bit);
            let what = format!("flip at {offset} bit {bit}");
            assert_open_rejected(&dir, &path, &flipped, &what);
        }
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// Older builds appended a length-prefixed `MBPOSC0\0` frame of
/// per-query-class position counts after the accumulator. A checkpoint
/// they wrote must still restore — `serve` refuses to start on a journal
/// whose state does not — and the next checkpoint drops the blob.
#[test]
fn learner_state_with_trailing_position_class_blob_restores() {
    let learner = sample_learner();
    let current = learner.state_bytes();

    let mut counts = Vec::new();
    put_varint(&mut counts, 1); // one query class
    put_str(&mut counts, "travel");
    put_varint(&mut counts, 2); // two positions: (position, clicks, impressions)
    for (position, clicks, impressions) in [(1, 700, 4000), (2, 90, 4000)] {
        put_varint(&mut counts, position);
        put_varint(&mut counts, clicks);
        put_varint(&mut counts, impressions);
    }
    let blob = frame(b"MBPOSC0\0", 1, &counts);
    let mut payload = unframe(STATE_MAGIC, VERSION, &current)
        .expect("valid frame")
        .to_vec();
    put_varint(&mut payload, blob.len() as u64);
    payload.extend_from_slice(&blob);
    let older = frame(STATE_MAGIC, VERSION, &payload);

    let mut restored = fresh();
    restored
        .restore_state(&older)
        .expect("older layout restores");
    assert_eq!(restored.state_bytes(), current);
    assert_eq!(restored.batches_folded(), learner.batches_folded());
    assert_eq!(restored.events_folded(), learner.events_folded());
    assert_eq!(
        restored.folded_stats().sorted_records(),
        learner.folded_stats().sorted_records()
    );
}
