//! Crash-safe bounded event journal.
//!
//! A journal is a directory holding three kinds of artifact, each one
//! [`frame`] (magic + version + CRC-32) and written with the
//! `store::slot` atomic-write discipline:
//!
//! * **Segments** (`seg-{seq}.mbj`) — one per accepted feedback batch,
//!   written via [`write_atomic`] *before* the listing is updated. A
//!   segment that crashes mid-write is a torn unlisted file and is
//!   ignored on replay.
//! * **Listing** (an [`ArtifactSlot`] named `journal.list`) — the atomic
//!   commit point. Only sequence numbers present in the newest valid
//!   listing generation are replayed; committing the listing *after* the
//!   segment makes append an all-or-nothing operation, so a crash at any
//!   byte offset loses at most the uncommitted tail.
//! * **Checkpoint** (an [`ArtifactSlot`] named `online.ckpt`) — opaque
//!   learner state plus the sequence number up to which it is folded and
//!   the dedupe-key window. After a checkpoint commits, folded segments
//!   are unlisted and deleted, which is what keeps the journal bounded:
//!   replay work is proportional to one refit interval, not to uptime.
//!
//! Idempotency keys are remembered per batch (`key → seq`). A duplicate
//! append is reported, not re-journaled, so an ambiguous client retry of
//! `POST /v1/feedback` is safe. The dedupe window survives restarts: live
//! segment keys are recovered by replay, folded ones ride the checkpoint.

use std::collections::HashMap;
use std::path::{Path, PathBuf};

use microbrowse_api::v1::FeedbackRequest;
use microbrowse_store::codec::{
    frame, get_bytes, get_str, get_varint, put_str, put_varint, unframe,
};
use microbrowse_store::{write_atomic, ArtifactSlot, SlotError};

use crate::error::OnlineError;
use crate::event::{get_event, put_event};

const SEGMENT_MAGIC: &[u8; 8] = b"MBJSEG0\0";
const LISTING_MAGIC: &[u8; 8] = b"MBJLST0\0";
const CHECKPOINT_MAGIC: &[u8; 8] = b"MBJCKP0\0";
const VERSION: u32 = 1;

const LISTING_SLOT: &str = "journal.list";
const CHECKPOINT_SLOT: &str = "online.ckpt";

/// Slot generations kept for the listing and checkpoint (current + one
/// rollback target).
const SLOT_KEEP: usize = 2;

/// Maximum idempotency keys remembered. Oldest (lowest-seq) keys are
/// evicted first; a duplicate arriving after eviction is re-accepted,
/// which only double-counts if the client retries across more than this
/// many intervening batches.
const DEDUPE_WINDOW: usize = 4096;

/// Outcome of [`Journal::append`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Append {
    /// The batch was journaled durably under this sequence number.
    Appended {
        /// Sequence number assigned to the batch.
        seq: u64,
    },
    /// The idempotency key was already journaled; nothing was written.
    Duplicate {
        /// Sequence number the original batch got.
        seq: u64,
    },
}

/// What [`Journal::open`] recovered from disk.
#[derive(Debug)]
pub struct Recovery {
    /// Opaque learner state from the newest valid checkpoint, if any.
    pub state: Option<Vec<u8>>,
    /// Journaled batches newer than the checkpoint, in sequence order.
    /// These must be re-absorbed on top of `state`.
    pub batches: Vec<FeedbackRequest>,
}

/// A crash-safe, bounded, deduplicating event journal in one directory.
#[derive(Debug)]
pub struct Journal {
    dir: PathBuf,
    listing: ArtifactSlot,
    checkpoint: ArtifactSlot,
    /// Listed live segments (seq ascending), not yet folded into a checkpoint.
    segments: Vec<u64>,
    /// Idempotency window: key → seq of the batch that first carried it.
    dedupe: HashMap<String, u64>,
    next_seq: u64,
}

impl Journal {
    /// Open (or create) the journal at `dir`, replaying whatever a previous
    /// process left behind: the newest valid checkpoint plus every listed
    /// segment newer than it. Torn segments and torn listing generations
    /// are rolled over exactly like torn slot artifacts — at most the
    /// uncommitted tail is lost.
    pub fn open(dir: impl Into<PathBuf>) -> Result<(Journal, Recovery), OnlineError> {
        let dir = dir.into();
        std::fs::create_dir_all(&dir)?;
        let listing = ArtifactSlot::new(&dir, LISTING_SLOT);
        let checkpoint = ArtifactSlot::new(&dir, CHECKPOINT_SLOT);

        let listed = match listing.load_with(decode_listing) {
            Ok(load) => load.value,
            Err(SlotError::NoGoodGeneration { tried: 0, .. }) => Vec::new(),
            Err(e) => return Err(e.into()),
        };
        let (last_folded, ckpt_dedupe, state) = match checkpoint.load_with(decode_checkpoint) {
            Ok(load) => {
                let (seq, dedupe, state) = load.value;
                (seq, dedupe, Some(state))
            }
            Err(SlotError::NoGoodGeneration { tried: 0, .. }) => (0, Vec::new(), None),
            Err(e) => return Err(e.into()),
        };

        let mut dedupe: HashMap<String, u64> = ckpt_dedupe.into_iter().collect();
        let mut segments = Vec::new();
        let mut batches = Vec::new();
        let mut max_seq = last_folded;
        for seq in listed {
            if seq <= last_folded {
                // Folded into the checkpoint but not yet pruned (crash
                // between checkpoint commit and prune): drop the file.
                let _ = std::fs::remove_file(segment_path(&dir, seq));
                continue;
            }
            let bytes = std::fs::read(segment_path(&dir, seq))?;
            let (found, batch) = decode_segment(&bytes)?;
            if found != seq {
                return Err(OnlineError::SeqMismatch { listed: seq, found });
            }
            dedupe.insert(batch.key.clone(), seq);
            segments.push(seq);
            batches.push(batch);
            max_seq = max_seq.max(seq);
        }
        for &seq in dedupe.values() {
            max_seq = max_seq.max(seq);
        }

        let journal = Journal {
            dir,
            listing,
            checkpoint,
            segments,
            dedupe,
            next_seq: max_seq + 1,
        };
        Ok((journal, Recovery { state, batches }))
    }

    /// Directory this journal lives in.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Number of live (unfolded) segments.
    pub fn live_segments(&self) -> usize {
        self.segments.len()
    }

    /// Durably append a batch, or report the duplicate if its idempotency
    /// key is already in the window. On `Appended`, the segment file and
    /// the listing pointing at it are both on disk when this returns.
    pub fn append(&mut self, batch: &FeedbackRequest) -> Result<Append, OnlineError> {
        if let Some(&seq) = self.dedupe.get(&batch.key) {
            return Ok(Append::Duplicate { seq });
        }
        let seq = self.next_seq;
        let bytes = encode_segment(seq, batch);
        write_atomic(&segment_path(&self.dir, seq), &bytes)?;
        self.segments.push(seq);
        self.listing.commit(&encode_listing(&self.segments))?;
        let _ = self.listing.prune(SLOT_KEEP);
        self.dedupe.insert(batch.key.clone(), seq);
        self.trim_dedupe();
        self.next_seq = seq + 1;
        Ok(Append::Appended { seq })
    }

    /// Commit a checkpoint: `state` is opaque learner state that reflects
    /// every batch appended so far. After the checkpoint is durable, live
    /// segments are unlisted and deleted — the journal's bound.
    pub fn commit_checkpoint(&mut self, state: &[u8]) -> Result<(), OnlineError> {
        let last_folded = self.next_seq.saturating_sub(1);
        let payload = encode_checkpoint(last_folded, &self.dedupe, state);
        self.checkpoint.commit(&payload)?;
        let _ = self.checkpoint.prune(SLOT_KEEP);
        // Checkpoint is durable; now shrink the replay window.
        let folded = std::mem::take(&mut self.segments);
        self.listing.commit(&encode_listing(&self.segments))?;
        let _ = self.listing.prune(SLOT_KEEP);
        for seq in folded {
            let _ = std::fs::remove_file(segment_path(&self.dir, seq));
        }
        Ok(())
    }

    fn trim_dedupe(&mut self) {
        if self.dedupe.len() <= DEDUPE_WINDOW {
            return;
        }
        let mut seqs: Vec<u64> = self.dedupe.values().copied().collect();
        seqs.sort_unstable();
        let cutoff = seqs[seqs.len() - DEDUPE_WINDOW];
        self.dedupe.retain(|_, &mut seq| seq >= cutoff);
    }
}

fn segment_path(dir: &Path, seq: u64) -> PathBuf {
    dir.join(format!("seg-{seq}.mbj"))
}

/// Encode one segment's bytes: framed `{seq, key, events}`. Public so the
/// fault-injection tests can write torn copies of a real segment at every
/// abort offset.
pub fn encode_segment(seq: u64, batch: &FeedbackRequest) -> Vec<u8> {
    let mut payload = Vec::new();
    put_varint(&mut payload, seq);
    put_str(&mut payload, &batch.key);
    put_varint(&mut payload, batch.events.len() as u64);
    for ev in &batch.events {
        put_event(&mut payload, ev);
    }
    frame(SEGMENT_MAGIC, VERSION, &payload)
}

/// Decode a segment written by [`encode_segment`].
pub fn decode_segment(bytes: &[u8]) -> Result<(u64, FeedbackRequest), OnlineError> {
    let mut buf = unframe(SEGMENT_MAGIC, VERSION, bytes)
        .map_err(|e| OnlineError::frame("journal segment", e))?;
    let seq = get_varint(&mut buf)?;
    let key = get_str(&mut buf)?;
    let count = get_varint(&mut buf)?;
    let mut events = Vec::with_capacity(count.min(1 << 16) as usize);
    for _ in 0..count {
        events.push(get_event(&mut buf)?);
    }
    Ok((seq, FeedbackRequest { key, events }))
}

fn encode_listing(segments: &[u64]) -> Vec<u8> {
    let mut payload = Vec::new();
    put_varint(&mut payload, segments.len() as u64);
    for &seq in segments {
        put_varint(&mut payload, seq);
    }
    frame(LISTING_MAGIC, VERSION, &payload)
}

fn decode_listing(bytes: &[u8]) -> Result<Vec<u64>, OnlineError> {
    let mut buf = unframe(LISTING_MAGIC, VERSION, bytes)
        .map_err(|e| OnlineError::frame("journal listing", e))?;
    let count = get_varint(&mut buf)?;
    let mut segments = Vec::with_capacity(count.min(1 << 16) as usize);
    for _ in 0..count {
        segments.push(get_varint(&mut buf)?);
    }
    segments.sort_unstable();
    Ok(segments)
}

fn encode_checkpoint(last_folded: u64, dedupe: &HashMap<String, u64>, state: &[u8]) -> Vec<u8> {
    let mut payload = Vec::new();
    put_varint(&mut payload, last_folded);
    // Deterministic order: by (seq, key).
    let mut entries: Vec<(&String, u64)> = dedupe.iter().map(|(k, &v)| (k, v)).collect();
    entries.sort_by(|a, b| a.1.cmp(&b.1).then_with(|| a.0.cmp(b.0)));
    put_varint(&mut payload, entries.len() as u64);
    for (key, seq) in entries {
        put_str(&mut payload, key);
        put_varint(&mut payload, seq);
    }
    put_varint(&mut payload, state.len() as u64);
    payload.extend_from_slice(state);
    frame(CHECKPOINT_MAGIC, VERSION, &payload)
}

type CheckpointContents = (u64, Vec<(String, u64)>, Vec<u8>);

fn decode_checkpoint(bytes: &[u8]) -> Result<CheckpointContents, OnlineError> {
    let mut buf = unframe(CHECKPOINT_MAGIC, VERSION, bytes)
        .map_err(|e| OnlineError::frame("journal checkpoint", e))?;
    let last_folded = get_varint(&mut buf)?;
    let count = get_varint(&mut buf)?;
    let mut dedupe = Vec::with_capacity(count.min(1 << 16) as usize);
    for _ in 0..count {
        let key = get_str(&mut buf)?;
        let seq = get_varint(&mut buf)?;
        dedupe.push((key, seq));
    }
    let state_len = get_varint(&mut buf)? as usize;
    let state = get_bytes(&mut buf, state_len)
        .map_err(|_| OnlineError::Truncated("journal checkpoint"))?
        .to_vec();
    Ok((last_folded, dedupe, state))
}

#[cfg(test)]
mod tests {
    use super::*;
    use microbrowse_api::v1::FeedbackEvent;

    fn tmpdir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "mb-journal-{tag}-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn batch(key: &str, adgroup: u64) -> FeedbackRequest {
        FeedbackRequest {
            key: key.to_string(),
            events: vec![FeedbackEvent {
                adgroup,
                creative: adgroup * 10,
                snippet: "cheap flights|book now|fly today".to_string(),
                position: 1,
                query_class: "travel".to_string(),
                impressions: 1000,
                clicks: 50,
            }],
        }
    }

    #[test]
    fn append_replay_round_trip() {
        let dir = tmpdir("roundtrip");
        let (mut journal, rec) = Journal::open(&dir).unwrap();
        assert!(rec.state.is_none());
        assert!(rec.batches.is_empty());
        assert_eq!(
            journal.append(&batch("k1", 1)).unwrap(),
            Append::Appended { seq: 1 }
        );
        assert_eq!(
            journal.append(&batch("k2", 2)).unwrap(),
            Append::Appended { seq: 2 }
        );
        drop(journal);

        let (journal, rec) = Journal::open(&dir).unwrap();
        assert_eq!(rec.batches.len(), 2);
        assert_eq!(rec.batches[0].key, "k1");
        assert_eq!(rec.batches[1].key, "k2");
        assert_eq!(journal.live_segments(), 2);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn duplicate_keys_dedupe_across_restart() {
        let dir = tmpdir("dedupe");
        let (mut journal, _) = Journal::open(&dir).unwrap();
        let first = journal.append(&batch("same", 1)).unwrap();
        assert_eq!(first, Append::Appended { seq: 1 });
        assert_eq!(
            journal.append(&batch("same", 1)).unwrap(),
            Append::Duplicate { seq: 1 }
        );
        drop(journal);
        let (mut journal, _) = Journal::open(&dir).unwrap();
        assert_eq!(
            journal.append(&batch("same", 1)).unwrap(),
            Append::Duplicate { seq: 1 }
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn checkpoint_bounds_replay_and_keeps_dedupe() {
        let dir = tmpdir("ckpt");
        let (mut journal, _) = Journal::open(&dir).unwrap();
        journal.append(&batch("k1", 1)).unwrap();
        journal.append(&batch("k2", 2)).unwrap();
        journal.commit_checkpoint(b"learner-state").unwrap();
        assert_eq!(journal.live_segments(), 0);
        journal.append(&batch("k3", 3)).unwrap();
        drop(journal);

        let (mut journal, rec) = Journal::open(&dir).unwrap();
        assert_eq!(rec.state.as_deref(), Some(&b"learner-state"[..]));
        assert_eq!(rec.batches.len(), 1, "only the post-checkpoint tail");
        assert_eq!(rec.batches[0].key, "k3");
        // Folded keys still dedupe.
        assert_eq!(
            journal.append(&batch("k1", 1)).unwrap(),
            Append::Duplicate { seq: 1 }
        );
        // Folded segment files are gone.
        assert!(!segment_path(&dir, 1).exists());
        assert!(!segment_path(&dir, 2).exists());
        assert!(segment_path(&dir, 3).exists());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn sequence_numbers_never_reused_after_checkpoint() {
        let dir = tmpdir("seq");
        let (mut journal, _) = Journal::open(&dir).unwrap();
        journal.append(&batch("k1", 1)).unwrap();
        journal.commit_checkpoint(b"s").unwrap();
        drop(journal);
        let (mut journal, _) = Journal::open(&dir).unwrap();
        assert_eq!(
            journal.append(&batch("k2", 2)).unwrap(),
            Append::Appended { seq: 2 }
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
