//! The binary codec every artifact is written in.
//!
//! Layout choices are the usual storage-engine ones: LEB128 varints for
//! counts and lengths (most features are rare, so counts are small),
//! length-prefixed UTF-8 for phrases, a one-byte family tag
//! discriminating [`FeatureKey`](crate::FeatureKey) variants, and little-endian fixed-width
//! numbers. Encoders append to a `Vec<u8>`; decoders consume a `&mut &[u8]`
//! through the checked reads [`get_u8`], [`get_f64`] and [`get_bytes`],
//! which report [`DecodeError::UnexpectedEof`] at the end of input. Keys
//! and records decode as [`KeyRef`]s borrowing their phrases from the
//! input, so reading a snapshot allocates nothing per record.
//!
//! Every artifact on disk — stats snapshot, model, slot manifest, journal
//! segment, listing and checkpoint, learner state — is one [`frame`]:
//!
//! ```text
//! 8 bytes  magic
//! 4 bytes  format version (LE u32)
//! payload
//! 4 bytes  CRC-32 of payload (LE u32)
//! ```

use crate::crc::crc32;
use crate::key::{KeyFamily, KeyRef, SnippetPos};
use crate::stats::FeatureStat;

/// Errors produced while decoding.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DecodeError {
    /// Input ended before the value was complete.
    UnexpectedEof,
    /// A varint ran past 10 bytes (not a valid LEB128 u64).
    VarintOverflow,
    /// A phrase was not valid UTF-8.
    InvalidUtf8,
    /// An unknown key-family tag.
    UnknownTag(u8),
    /// A snippet token position above `u16::MAX`.
    PositionOutOfRange(u64),
}

impl std::fmt::Display for DecodeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DecodeError::UnexpectedEof => write!(f, "unexpected end of input"),
            DecodeError::VarintOverflow => write!(f, "varint longer than 10 bytes"),
            DecodeError::InvalidUtf8 => write!(f, "phrase is not valid UTF-8"),
            DecodeError::UnknownTag(t) => write!(f, "unknown feature-key tag {t}"),
            DecodeError::PositionOutOfRange(p) => {
                write!(f, "token position {p} exceeds {}", u16::MAX)
            }
        }
    }
}

impl std::error::Error for DecodeError {}

/// Why [`unframe`] rejected an artifact.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FrameError {
    /// Shorter than magic + version + trailer.
    Truncated,
    /// The artifact does not begin with the expected magic.
    BadMagic,
    /// The format version is not the one this build writes.
    UnsupportedVersion(u32),
    /// The payload checksum does not match the trailer.
    ChecksumMismatch {
        /// CRC recorded in the trailer.
        expected: u32,
        /// CRC computed over the payload actually read.
        actual: u32,
    },
}

/// Wrap `payload` in a magic + version header and a CRC-32 trailer.
pub fn frame(magic: &[u8; 8], version: u32, payload: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(magic.len() + 4 + payload.len() + 4);
    out.extend_from_slice(magic);
    out.extend_from_slice(&version.to_le_bytes());
    out.extend_from_slice(payload);
    out.extend_from_slice(&crc32(payload).to_le_bytes());
    out
}

/// Check the frame [`frame`] wrote and return its payload.
pub fn unframe<'a>(magic: &[u8; 8], version: u32, bytes: &'a [u8]) -> Result<&'a [u8], FrameError> {
    if bytes.len() < magic.len() + 4 + 4 {
        return Err(FrameError::Truncated);
    }
    let (header, rest) = bytes.split_at(magic.len() + 4);
    let (payload, trailer) = rest.split_at(rest.len() - 4);
    if header[..magic.len()] != magic[..] {
        return Err(FrameError::BadMagic);
    }
    let found = le_u32(&header[magic.len()..]);
    if found != version {
        return Err(FrameError::UnsupportedVersion(found));
    }
    let expected = le_u32(trailer);
    let actual = crc32(payload);
    if expected != actual {
        return Err(FrameError::ChecksumMismatch { expected, actual });
    }
    Ok(payload)
}

fn le_u32(b: &[u8]) -> u32 {
    let mut a = [0u8; 4];
    a.copy_from_slice(b);
    u32::from_le_bytes(a)
}

/// Read one byte.
pub fn get_u8(buf: &mut &[u8]) -> Result<u8, DecodeError> {
    let (&b, rest) = buf.split_first().ok_or(DecodeError::UnexpectedEof)?;
    *buf = rest;
    Ok(b)
}

/// Read the next `n` bytes.
pub fn get_bytes<'a>(buf: &mut &'a [u8], n: usize) -> Result<&'a [u8], DecodeError> {
    if buf.len() < n {
        return Err(DecodeError::UnexpectedEof);
    }
    let (head, rest) = buf.split_at(n);
    *buf = rest;
    Ok(head)
}

/// Append a little-endian f64.
pub fn put_f64(buf: &mut Vec<u8>, x: f64) {
    buf.extend_from_slice(&x.to_le_bytes());
}

/// Read a little-endian f64.
pub fn get_f64(buf: &mut &[u8]) -> Result<f64, DecodeError> {
    let mut a = [0u8; 8];
    a.copy_from_slice(get_bytes(buf, 8)?);
    Ok(f64::from_le_bytes(a))
}

/// Append a LEB128 varint.
pub fn put_varint(buf: &mut Vec<u8>, mut v: u64) {
    loop {
        let byte = (v & 0x7F) as u8;
        v >>= 7;
        if v == 0 {
            buf.push(byte);
            return;
        }
        buf.push(byte | 0x80);
    }
}

/// Read a LEB128 varint.
pub fn get_varint(buf: &mut &[u8]) -> Result<u64, DecodeError> {
    let mut out: u64 = 0;
    for shift in (0..64).step_by(7) {
        let byte = get_u8(buf)?;
        out |= u64::from(byte & 0x7F) << shift;
        if byte & 0x80 == 0 {
            return Ok(out);
        }
    }
    Err(DecodeError::VarintOverflow)
}

/// Append a length-prefixed UTF-8 string.
pub fn put_str(buf: &mut Vec<u8>, s: &str) {
    put_varint(buf, s.len() as u64);
    buf.extend_from_slice(s.as_bytes());
}

/// Read a length-prefixed UTF-8 string.
pub fn get_str(buf: &mut &[u8]) -> Result<String, DecodeError> {
    get_str_ref(buf).map(str::to_owned)
}

/// Read a length-prefixed UTF-8 string in place.
pub fn get_str_ref<'a>(buf: &mut &'a [u8]) -> Result<&'a str, DecodeError> {
    let len = get_varint(buf)? as usize;
    let bytes = get_bytes(buf, len)?;
    std::str::from_utf8(bytes).map_err(|_| DecodeError::InvalidUtf8)
}

fn put_pos(buf: &mut Vec<u8>, p: SnippetPos) {
    buf.push(p.line);
    put_varint(buf, u64::from(p.pos));
}

fn get_pos(buf: &mut &[u8]) -> Result<SnippetPos, DecodeError> {
    let line = get_u8(buf)?;
    let pos = get_varint(buf)?;
    let pos = u16::try_from(pos).map_err(|_| DecodeError::PositionOutOfRange(pos))?;
    Ok(SnippetPos { line, pos })
}

/// Encode a feature key.
pub fn put_key(buf: &mut Vec<u8>, key: KeyRef<'_>) {
    buf.push(key.family().tag());
    match key {
        KeyRef::Term { phrase } => put_str(buf, phrase),
        KeyRef::Rewrite { from, to } => {
            put_str(buf, from);
            put_str(buf, to);
        }
        KeyRef::TermPosition(p) => put_pos(buf, p),
        KeyRef::RewritePosition { from, to } => {
            put_pos(buf, from);
            put_pos(buf, to);
        }
    }
}

/// Decode a feature key, borrowing its phrases from `buf`.
pub fn get_key<'a>(buf: &mut &'a [u8]) -> Result<KeyRef<'a>, DecodeError> {
    let tag = get_u8(buf)?;
    let family = KeyFamily::from_tag(tag).ok_or(DecodeError::UnknownTag(tag))?;
    Ok(match family {
        KeyFamily::Term => KeyRef::Term {
            phrase: get_str_ref(buf)?,
        },
        KeyFamily::Rewrite => KeyRef::Rewrite {
            from: get_str_ref(buf)?,
            to: get_str_ref(buf)?,
        },
        KeyFamily::TermPosition => KeyRef::TermPosition(get_pos(buf)?),
        KeyFamily::RewritePosition => KeyRef::RewritePosition {
            from: get_pos(buf)?,
            to: get_pos(buf)?,
        },
    })
}

/// Encode one `(key, stat)` record.
pub fn put_record(buf: &mut Vec<u8>, key: KeyRef<'_>, stat: &FeatureStat) {
    put_key(buf, key);
    put_varint(buf, stat.up);
    put_varint(buf, stat.down);
}

/// Decode one `(key, stat)` record, borrowing the key's phrases from `buf`.
pub fn get_record<'a>(buf: &mut &'a [u8]) -> Result<(KeyRef<'a>, FeatureStat), DecodeError> {
    let key = get_key(buf)?;
    let up = get_varint(buf)?;
    let down = get_varint(buf)?;
    Ok((key, FeatureStat { up, down }))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::key::FeatureKey;

    fn round_trip_key(key: FeatureKey) {
        let mut buf = Vec::new();
        put_key(&mut buf, key.as_key_ref());
        let mut slice = &buf[..];
        let back = get_key(&mut slice).expect("decode");
        assert_eq!(back, key.as_key_ref());
        assert!(slice.is_empty(), "trailing bytes after {key:?}");
    }

    #[test]
    fn varint_round_trip_edges() {
        for v in [
            0u64,
            1,
            127,
            128,
            300,
            16_383,
            16_384,
            u32::MAX as u64,
            u64::MAX,
        ] {
            let mut buf = Vec::new();
            put_varint(&mut buf, v);
            let mut s = &buf[..];
            assert_eq!(get_varint(&mut s).unwrap(), v);
        }
    }

    #[test]
    fn varint_rejects_overlong() {
        let eleven = [0x80u8; 11];
        let mut s = &eleven[..];
        assert_eq!(get_varint(&mut s), Err(DecodeError::VarintOverflow));
    }

    #[test]
    fn varint_eof() {
        let mut s: &[u8] = &[0x80];
        assert_eq!(get_varint(&mut s), Err(DecodeError::UnexpectedEof));
    }

    #[test]
    fn fixed_width_reads_stop_at_end_of_input() {
        let mut buf = Vec::new();
        put_f64(&mut buf, -2.5);
        buf.push(7);
        let mut s = &buf[..];
        assert_eq!(get_f64(&mut s), Ok(-2.5));
        assert_eq!(get_u8(&mut s), Ok(7));
        assert_eq!(get_u8(&mut s), Err(DecodeError::UnexpectedEof));
        assert_eq!(get_f64(&mut &buf[..7]), Err(DecodeError::UnexpectedEof));
        assert_eq!(
            get_bytes(&mut &buf[..3], 4),
            Err(DecodeError::UnexpectedEof)
        );
    }

    #[test]
    fn string_round_trip() {
        for s in ["", "a", "find cheap flights", "zürich 20% café"] {
            let mut buf = Vec::new();
            put_str(&mut buf, s);
            let mut slice = &buf[..];
            assert_eq!(get_str(&mut slice).unwrap(), s);
        }
    }

    #[test]
    fn string_truncated_is_eof() {
        let mut buf = Vec::new();
        put_str(&mut buf, "hello world");
        let mut short = &buf[..buf.len() - 3];
        assert_eq!(get_str(&mut short), Err(DecodeError::UnexpectedEof));
    }

    #[test]
    fn string_invalid_utf8() {
        let mut buf = Vec::new();
        put_varint(&mut buf, 2);
        buf.extend_from_slice(&[0xFF, 0xFE]);
        let mut s = &buf[..];
        assert_eq!(get_str(&mut s), Err(DecodeError::InvalidUtf8));
    }

    #[test]
    fn all_key_variants_round_trip() {
        round_trip_key(FeatureKey::term("get discounts"));
        round_trip_key(FeatureKey::term(""));
        round_trip_key(FeatureKey::rewrite("find cheap", "get discounts"));
        round_trip_key(FeatureKey::term_position(2, 1000));
        round_trip_key(FeatureKey::term_position(0, u16::MAX));
        round_trip_key(FeatureKey::rewrite_position(
            SnippetPos::new(1, 0),
            SnippetPos::new(1, 5),
        ));
    }

    #[test]
    fn unknown_tag_rejected() {
        let mut s: &[u8] = &[42];
        assert_eq!(get_key(&mut s), Err(DecodeError::UnknownTag(42)));
    }

    #[test]
    fn record_round_trip() {
        let key = FeatureKey::rewrite("flights", "flying");
        let stat = FeatureStat {
            up: 12_345,
            down: 7,
        };
        let mut buf = Vec::new();
        put_record(&mut buf, key.as_key_ref(), &stat);
        let mut s = &buf[..];
        assert_eq!(get_record(&mut s).unwrap(), (key.as_key_ref(), stat));
    }

    const MAGIC: &[u8; 8] = b"MBTEST0\0";

    #[test]
    fn frame_round_trip() {
        let framed = frame(MAGIC, 1, b"hello");
        assert_eq!(framed.len(), 8 + 4 + 5 + 4);
        assert_eq!(unframe(MAGIC, 1, &framed), Ok(&b"hello"[..]));
        assert_eq!(unframe(MAGIC, 1, &frame(MAGIC, 1, b"")), Ok(&b""[..]));
    }

    #[test]
    fn unframe_rejects_every_corruption() {
        let framed = frame(MAGIC, 1, b"hello");
        assert_eq!(unframe(b"MBWRONG\0", 1, &framed), Err(FrameError::BadMagic));
        assert_eq!(
            unframe(MAGIC, 2, &framed),
            Err(FrameError::UnsupportedVersion(1))
        );
        let mut flipped = framed.clone();
        flipped[13] ^= 0x01;
        assert!(matches!(
            unframe(MAGIC, 1, &flipped),
            Err(FrameError::ChecksumMismatch { expected, actual }) if expected != actual
        ));
        for cut in 0..16 {
            assert_eq!(
                unframe(MAGIC, 1, &framed[..cut]),
                Err(FrameError::Truncated)
            );
        }
        for cut in 16..framed.len() {
            assert!(unframe(MAGIC, 1, &framed[..cut]).is_err(), "cut at {cut}");
        }
    }
}
