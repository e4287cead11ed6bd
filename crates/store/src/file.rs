//! Snapshot serialization.
//!
//! A snapshot is the on-disk form of a [`StatsDb`], written once at the end
//! of Phase 1 and read at the start of Phase 2 (or by later experiment
//! runs). It is one [`codec::frame`] (magic `MBSTATS\0`, version 1) whose
//! payload is a varint record count followed by the records
//! ([`codec::put_record`] each).
//!
//! Records are written in strictly increasing key order, so the same
//! database always produces the same bytes (important for reproducible
//! experiment bundles and for content-addressed caching). [`records`] is
//! the one reader: it checks the frame and every record, rejects keys that
//! do not strictly increase, and returns the records in place, their
//! phrases borrowed from the snapshot's bytes. [`from_bytes`] is its owned
//! view.

use std::io::Read;
use std::path::Path;

use crate::codec::{self, DecodeError, FrameError};
use crate::db::{SortedRecords, StatsDb};

const MAGIC: &[u8; 8] = b"MBSTATS\0";
const VERSION: u32 = 1;

/// Errors arising from snapshot IO and validation.
#[derive(Debug)]
pub enum SnapshotError {
    /// Underlying filesystem error.
    Io(std::io::Error),
    /// The file does not begin with the snapshot magic.
    BadMagic,
    /// The format version is newer than this build understands.
    UnsupportedVersion(u32),
    /// The payload checksum does not match the trailer.
    ChecksumMismatch {
        /// CRC recorded in the file trailer.
        expected: u32,
        /// CRC computed over the payload actually read.
        actual: u32,
    },
    /// A record failed to decode.
    Decode(DecodeError),
    /// The file ended before the declared record count was read.
    Truncated,
    /// A record's key does not follow its predecessor's: the writer emits
    /// keys in strictly increasing order, so a repeated or descending key
    /// means the file was not written by it.
    KeyOrder {
        /// Zero-based index of the offending record.
        record: u64,
    },
    /// Bytes follow the last declared record: the count understates the
    /// records, so reading only the count would load a prefix.
    TrailingBytes {
        /// How many payload bytes were left unread.
        bytes: u64,
    },
}

impl std::fmt::Display for SnapshotError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SnapshotError::Io(e) => write!(f, "snapshot io error: {e}"),
            SnapshotError::BadMagic => write!(f, "not a stats snapshot (bad magic)"),
            SnapshotError::UnsupportedVersion(v) => write!(f, "unsupported snapshot version {v}"),
            SnapshotError::ChecksumMismatch { expected, actual } => {
                write!(
                    f,
                    "snapshot corrupt: crc {actual:#010x} != recorded {expected:#010x}"
                )
            }
            SnapshotError::Decode(e) => write!(f, "snapshot record decode failed: {e}"),
            SnapshotError::Truncated => write!(f, "snapshot truncated"),
            SnapshotError::KeyOrder { record } => write!(
                f,
                "snapshot record {record} is out of key order (keys must strictly increase)"
            ),
            SnapshotError::TrailingBytes { bytes } => write!(
                f,
                "snapshot has {bytes} trailing byte(s) after its declared records"
            ),
        }
    }
}

impl std::error::Error for SnapshotError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            SnapshotError::Io(e) => Some(e),
            SnapshotError::Decode(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for SnapshotError {
    fn from(e: std::io::Error) -> Self {
        SnapshotError::Io(e)
    }
}

impl From<DecodeError> for SnapshotError {
    fn from(e: DecodeError) -> Self {
        SnapshotError::Decode(e)
    }
}

impl From<FrameError> for SnapshotError {
    fn from(e: FrameError) -> Self {
        match e {
            FrameError::Truncated => SnapshotError::Truncated,
            FrameError::BadMagic => SnapshotError::BadMagic,
            FrameError::UnsupportedVersion(v) => SnapshotError::UnsupportedVersion(v),
            FrameError::ChecksumMismatch { expected, actual } => {
                SnapshotError::ChecksumMismatch { expected, actual }
            }
        }
    }
}

/// Serialize `db` to bytes (header + payload + CRC trailer).
pub fn to_bytes(db: &StatsDb) -> Vec<u8> {
    let mut payload = Vec::new();
    let records = db.sorted_refs();
    codec::put_varint(&mut payload, records.len() as u64);
    for (key, stat) in records.iter() {
        codec::put_record(&mut payload, *key, stat);
    }
    codec::frame(MAGIC, VERSION, &payload)
}

/// Read a snapshot produced by [`to_bytes`] into its records, in key
/// order, their phrases borrowed from `bytes`. Checks the frame (magic,
/// version, CRC), every record (tag, UTF-8, position range), that the
/// declared count is present and nothing follows it, and that keys
/// strictly increase.
pub fn records(bytes: &[u8]) -> Result<SortedRecords<'_>, SnapshotError> {
    let mut buf = codec::unframe(MAGIC, VERSION, bytes)?;
    let count = codec::get_varint(&mut buf)?;
    // A record takes at least four bytes, which bounds the allocation a
    // forged count can ask for.
    let mut records = Vec::with_capacity(count.min(buf.len() as u64 / 4) as usize);
    for record in 0..count {
        // Running out on a record boundary means records are missing: the
        // file was cut, not malformed.
        if buf.is_empty() {
            return Err(SnapshotError::Truncated);
        }
        let (key, stat) = codec::get_record(&mut buf)?;
        if records.last().is_some_and(|&(prev, _)| prev >= key) {
            return Err(SnapshotError::KeyOrder { record });
        }
        records.push((key, stat));
    }
    if !buf.is_empty() {
        return Err(SnapshotError::TrailingBytes {
            bytes: buf.len() as u64,
        });
    }
    Ok(SortedRecords::from_ordered(records))
}

/// Deserialize a snapshot produced by [`to_bytes`]: the owned view of
/// [`records`].
pub fn from_bytes(bytes: &[u8]) -> Result<StatsDb, SnapshotError> {
    Ok(StatsDb::from_records(
        records(bytes)?
            .iter()
            .map(|&(key, stat)| (key.into(), stat)),
    ))
}

/// Write a snapshot of `db` to `path`, crash-safely (temp file + fsync +
/// atomic rename; see [`crate::slot::write_atomic`]). A crash mid-write
/// leaves either the previous snapshot or the complete new one.
pub fn write_snapshot(db: &StatsDb, path: &Path) -> Result<(), SnapshotError> {
    crate::slot::write_atomic(path, &to_bytes(db))?;
    Ok(())
}

/// Read a snapshot from `path`.
pub fn read_snapshot(path: &Path) -> Result<StatsDb, SnapshotError> {
    let mut bytes = Vec::new();
    std::fs::File::open(path)?.read_to_end(&mut bytes)?;
    from_bytes(&bytes)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::key::FeatureKey;

    fn sample_db() -> StatsDb {
        let mut db = StatsDb::new();
        for i in 0..50 {
            for _ in 0..=(i % 4) {
                db.record(FeatureKey::term(format!("term {i}")), i % 3 != 0);
            }
        }
        db.record(FeatureKey::rewrite("find cheap", "get discounts"), true);
        db.record(FeatureKey::term_position(1, 4), false);
        db
    }

    #[test]
    fn bytes_round_trip() {
        let db = sample_db();
        let bytes = to_bytes(&db);
        let back = from_bytes(&bytes).expect("round trip");
        assert_eq!(db.sorted_records(), back.sorted_records());
    }

    #[test]
    fn serialization_is_deterministic() {
        let db = sample_db();
        assert_eq!(to_bytes(&db), to_bytes(&db));
    }

    #[test]
    fn empty_db_round_trips() {
        let db = StatsDb::new();
        let back = from_bytes(&to_bytes(&db)).unwrap();
        assert!(back.is_empty());
    }

    #[test]
    fn bad_magic_rejected() {
        let mut bytes = to_bytes(&sample_db());
        bytes[0] = b'X';
        assert!(matches!(from_bytes(&bytes), Err(SnapshotError::BadMagic)));
    }

    #[test]
    fn wrong_version_rejected() {
        let mut bytes = to_bytes(&sample_db());
        bytes[8] = 99;
        assert!(matches!(
            from_bytes(&bytes),
            Err(SnapshotError::UnsupportedVersion(99))
        ));
    }

    #[test]
    fn corruption_detected() {
        let mut bytes = to_bytes(&sample_db());
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x40;
        match from_bytes(&bytes) {
            // Either the CRC catches it (almost always) or, if the flip
            // lands in the trailer itself, the mismatch is still reported.
            Err(SnapshotError::ChecksumMismatch { .. }) => {}
            other => panic!("corruption not detected: {other:?}"),
        }
    }

    #[test]
    fn truncation_detected() {
        let bytes = to_bytes(&sample_db());
        for cut in [0, 5, 11, bytes.len() - 5] {
            let res = from_bytes(&bytes[..cut]);
            assert!(res.is_err(), "truncation at {cut} not detected");
        }
    }

    #[test]
    fn file_round_trip() {
        let dir = std::env::temp_dir().join(format!("mbstats-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("stats.mbs");
        let db = sample_db();
        write_snapshot(&db, &path).expect("write");
        let back = read_snapshot(&path).expect("read");
        assert_eq!(db.sorted_records(), back.sorted_records());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn missing_file_is_io_error() {
        let res = read_snapshot(Path::new("/nonexistent/dir/stats.mbs"));
        assert!(matches!(res, Err(SnapshotError::Io(_))));
    }
}
