//! Hand-corrupted snapshot fixtures: one test per [`SnapshotError`] /
//! [`DecodeError`] variant, each asserting the *exact* variant. The
//! fixtures with valid CRC trailers matter most — they prove the decoder's
//! own structural checks fire even when the checksum cannot help.

use microbrowse_store::codec::{self, DecodeError};
use microbrowse_store::crc::crc32;
use microbrowse_store::file::{from_bytes, records, to_bytes};
use microbrowse_store::{read_snapshot, FeatureKey, FeatureStat, SnapshotError, StatsDb};

const MAGIC: &[u8; 8] = b"MBSTATS\0";
const VERSION: u32 = 1;

/// Frame an arbitrary payload as a snapshot whose CRC trailer is *valid*:
/// the corruption under test lives inside the payload.
fn frame(payload: &[u8]) -> Vec<u8> {
    let mut out = Vec::new();
    out.extend_from_slice(MAGIC);
    out.extend_from_slice(&VERSION.to_le_bytes());
    out.extend_from_slice(payload);
    out.extend_from_slice(&crc32(payload).to_le_bytes());
    out
}

fn sample() -> StatsDb {
    let mut db = StatsDb::new();
    db.record(FeatureKey::term("cheap"), true);
    db.record(FeatureKey::rewrite("find cheap", "save 20%"), false);
    db
}

#[test]
fn io_error_variant() {
    match read_snapshot(std::path::Path::new("/nonexistent/stats.mbs")) {
        Err(SnapshotError::Io(e)) => assert_eq!(e.kind(), std::io::ErrorKind::NotFound),
        other => panic!("expected Io(NotFound), got {other:?}"),
    }
}

#[test]
fn bad_magic_variant() {
    let mut bytes = to_bytes(&sample());
    bytes[..8].copy_from_slice(b"NOTSTATS");
    assert!(matches!(from_bytes(&bytes), Err(SnapshotError::BadMagic)));
}

#[test]
fn unsupported_version_variant() {
    let mut bytes = to_bytes(&sample());
    bytes[8..12].copy_from_slice(&7u32.to_le_bytes());
    assert!(matches!(
        from_bytes(&bytes),
        Err(SnapshotError::UnsupportedVersion(7))
    ));
}

#[test]
fn checksum_mismatch_variant_reports_both_crcs() {
    let mut bytes = to_bytes(&sample());
    let mid = 12 + (bytes.len() - 16) / 2; // inside the payload
    bytes[mid] ^= 0x01;
    match from_bytes(&bytes) {
        Err(SnapshotError::ChecksumMismatch { expected, actual }) => {
            assert_ne!(expected, actual);
        }
        other => panic!("expected ChecksumMismatch, got {other:?}"),
    }
}

#[test]
fn truncated_variant_when_count_overstates() {
    // Count claims 3 records, payload contains none; CRC is valid, so the
    // decoder's own bookkeeping must catch it.
    let bytes = frame(&[3]);
    assert!(matches!(from_bytes(&bytes), Err(SnapshotError::Truncated)));
}

#[test]
fn truncated_variant_when_file_below_minimum() {
    // Shorter than magic + version + trailer: rejected before any parsing.
    assert!(matches!(
        from_bytes(b"MBSTATS\0"),
        Err(SnapshotError::Truncated)
    ));
    assert!(matches!(from_bytes(&[]), Err(SnapshotError::Truncated)));
}

#[test]
fn decode_unknown_tag_variant() {
    // One record whose key family tag is 42 (valid tags are 0–3).
    let bytes = frame(&[1, 42]);
    assert!(matches!(
        from_bytes(&bytes),
        Err(SnapshotError::Decode(DecodeError::UnknownTag(42)))
    ));
}

#[test]
fn decode_position_out_of_range_variant() {
    // One TermPosition record (tag 2) on line 1 whose token position is
    // 65 536 (varint 80 80 04): one past u16::MAX, which no writer emits.
    // Clamping it would load a key that was never written.
    let bytes = frame(&[1, 2, 1, 0x80, 0x80, 0x04, 0, 0]);
    assert!(matches!(
        from_bytes(&bytes),
        Err(SnapshotError::Decode(DecodeError::PositionOutOfRange(
            65_536
        )))
    ));
}

#[test]
fn decode_truncated_varint_variant() {
    // Record count varint has its continuation bit set and then the
    // payload ends: UnexpectedEof from inside the varint reader.
    let bytes = frame(&[0x80]);
    assert!(matches!(
        from_bytes(&bytes),
        Err(SnapshotError::Decode(DecodeError::UnexpectedEof))
    ));
}

#[test]
fn decode_varint_overflow_variant() {
    // An 11-byte all-continuation varint is not a valid LEB128 u64.
    let mut payload = vec![1u8, 0]; // one record, Term tag
    payload.extend_from_slice(&[0x80; 11]); // phrase length varint overflows
    let bytes = frame(&payload);
    assert!(matches!(
        from_bytes(&bytes),
        Err(SnapshotError::Decode(DecodeError::VarintOverflow))
    ));
}

#[test]
fn decode_invalid_utf8_variant() {
    // Term record whose 2-byte phrase is not UTF-8.
    let bytes = frame(&[1, 0, 2, 0xFF, 0xFE]);
    assert!(matches!(
        from_bytes(&bytes),
        Err(SnapshotError::Decode(DecodeError::InvalidUtf8))
    ));
}

#[test]
fn decode_string_body_truncated_variant() {
    // Phrase length says 10 bytes but only 2 follow (CRC still valid).
    let bytes = frame(&[1, 0, 10, b'a', b'b']);
    assert!(matches!(
        from_bytes(&bytes),
        Err(SnapshotError::Decode(DecodeError::UnexpectedEof))
    ));
}

/// A snapshot holding exactly `keys`, in the order given, each in the
/// writer's record encoding, under a valid CRC.
fn snapshot_of(keys: &[FeatureKey]) -> Vec<u8> {
    let mut payload = Vec::new();
    codec::put_varint(&mut payload, keys.len() as u64);
    for key in keys {
        codec::put_record(
            &mut payload,
            key.as_key_ref(),
            &FeatureStat { up: 1, down: 2 },
        );
    }
    frame(&payload)
}

fn assert_key_order(bytes: &[u8], record: u64) {
    assert!(
        matches!(from_bytes(bytes), Err(SnapshotError::KeyOrder { record: r }) if r == record),
        "{:?}",
        from_bytes(bytes)
    );
    assert!(matches!(records(bytes), Err(SnapshotError::KeyOrder { record: r }) if r == record));
}

#[test]
fn key_order_variant_on_repeated_key() {
    // Merging the two would load counts no writer wrote for one key.
    let t = FeatureKey::term;
    assert_key_order(&snapshot_of(&[t("a"), t("b"), t("b")]), 2);
    let rw = FeatureKey::rewrite("find cheap", "save 20%");
    assert_key_order(&snapshot_of(&[rw.clone(), rw]), 1);
}

#[test]
fn key_order_variant_on_descending_key() {
    let t = FeatureKey::term;
    assert_key_order(&snapshot_of(&[t("b"), t("a")]), 1);
    // A prefix sorts first: "ab" after "abc" descends.
    assert_key_order(&snapshot_of(&[t("abc"), t("ab")]), 1);
    // Families order Term < Rewrite < TermPosition < RewritePosition.
    let keys = [
        t("z"),
        FeatureKey::term_position(0, 1),
        FeatureKey::rewrite("a", "b"),
    ];
    assert_key_order(&snapshot_of(&keys), 2);
    // The ascending order of the same keys reads.
    let mut sorted = keys.to_vec();
    sorted.sort();
    assert_eq!(from_bytes(&snapshot_of(&sorted)).expect("sorted").len(), 3);
}

fn assert_trailing(bytes: &[u8], trailing: u64) {
    assert!(
        matches!(from_bytes(bytes), Err(SnapshotError::TrailingBytes { bytes: n }) if n == trailing),
        "{:?}",
        from_bytes(bytes)
    );
    assert!(
        matches!(records(bytes), Err(SnapshotError::TrailingBytes { bytes: n }) if n == trailing)
    );
}

#[test]
fn trailing_bytes_variant_when_count_understates() {
    // Two well-formed, ordered records under a count of one: reading only
    // the count would load the first record and drop the second.
    let stat = FeatureStat { up: 1, down: 2 };
    let mut payload = Vec::new();
    codec::put_varint(&mut payload, 1);
    codec::put_record(&mut payload, FeatureKey::term("a").as_key_ref(), &stat);
    let first_end = payload.len();
    codec::put_record(&mut payload, FeatureKey::term("b").as_key_ref(), &stat);
    assert_trailing(&frame(&payload), (payload.len() - first_end) as u64);
}

#[test]
fn trailing_bytes_variant_on_stray_byte() {
    // A byte no record claims, after an empty snapshot and after a full one.
    assert_trailing(&frame(&[0, 0]), 1);
    let mut payload = Vec::new();
    codec::put_varint(&mut payload, 1);
    codec::put_record(
        &mut payload,
        FeatureKey::term("cheap").as_key_ref(),
        &FeatureStat { up: 3, down: 4 },
    );
    assert_eq!(records(&frame(&payload)).expect("exact").len(), 1);
    payload.extend_from_slice(&[0xff, 0x00]);
    assert_trailing(&frame(&payload), 2);
}

/// The error messages an operator actually reads: each variant renders
/// with the discriminating detail in it.
#[test]
fn error_rendering_names_the_problem() {
    let cases: Vec<(SnapshotError, &str)> = vec![
        (SnapshotError::BadMagic, "magic"),
        (SnapshotError::UnsupportedVersion(9), "version 9"),
        (
            SnapshotError::ChecksumMismatch {
                expected: 1,
                actual: 2,
            },
            "crc",
        ),
        (SnapshotError::Truncated, "truncated"),
        (SnapshotError::Decode(DecodeError::UnknownTag(42)), "tag 42"),
        (
            SnapshotError::KeyOrder { record: 7 },
            "record 7 is out of key order",
        ),
        (
            SnapshotError::TrailingBytes { bytes: 5 },
            "5 trailing byte(s)",
        ),
        (
            SnapshotError::Decode(DecodeError::PositionOutOfRange(65_536)),
            "position 65536",
        ),
    ];
    for (err, needle) in cases {
        let msg = err.to_string();
        assert!(msg.contains(needle), "{msg:?} lacks {needle:?}");
    }
}
