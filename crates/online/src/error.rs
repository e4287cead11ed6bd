//! Crate-wide error type.

use microbrowse_store::codec::{DecodeError, FrameError};
use microbrowse_store::file::SnapshotError;
use microbrowse_store::SlotError;

/// Errors from the journal, the learner-state codec, or a refit attempt.
#[derive(Debug)]
pub enum OnlineError {
    /// Underlying filesystem error.
    Io(std::io::Error),
    /// Artifact-slot commit or load failed.
    Slot(SlotError),
    /// A varint / string / record failed to decode.
    Decode(DecodeError),
    /// An embedded stats snapshot failed to decode.
    Snapshot(SnapshotError),
    /// A framed artifact does not begin with the expected magic.
    BadMagic(&'static str),
    /// A framed artifact declares a format version this build does not know.
    UnsupportedVersion {
        /// Which artifact kind ("journal segment", "checkpoint", …).
        kind: &'static str,
        /// The version found in the header.
        version: u32,
    },
    /// A framed artifact's payload checksum does not match its trailer.
    ChecksumMismatch {
        /// Which artifact kind.
        kind: &'static str,
        /// CRC recorded in the trailer.
        expected: u32,
        /// CRC computed over the payload actually read.
        actual: u32,
    },
    /// A framed artifact ended before its declared contents.
    Truncated(&'static str),
    /// A listed journal segment decoded to a different sequence number than
    /// its listing entry — the journal directory is inconsistent.
    SeqMismatch {
        /// Sequence number the listing promised.
        listed: u64,
        /// Sequence number the segment payload carries.
        found: u64,
    },
    /// The accumulated online corpus yields no trainable pairs yet (every
    /// adgroup is below the pair filter's impression or z-score floor).
    NoPairs,
}

impl OnlineError {
    /// The error for a `kind` artifact whose frame failed to check.
    pub(crate) fn frame(kind: &'static str, e: FrameError) -> Self {
        match e {
            FrameError::Truncated => OnlineError::Truncated(kind),
            FrameError::BadMagic => OnlineError::BadMagic(kind),
            FrameError::UnsupportedVersion(version) => {
                OnlineError::UnsupportedVersion { kind, version }
            }
            FrameError::ChecksumMismatch { expected, actual } => OnlineError::ChecksumMismatch {
                kind,
                expected,
                actual,
            },
        }
    }
}

impl std::fmt::Display for OnlineError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            OnlineError::Io(e) => write!(f, "online io error: {e}"),
            OnlineError::Slot(e) => write!(f, "online slot error: {e}"),
            OnlineError::Decode(e) => write!(f, "online decode error: {e}"),
            OnlineError::Snapshot(e) => write!(f, "online stats snapshot error: {e}"),
            OnlineError::BadMagic(kind) => write!(f, "not a {kind} (bad magic)"),
            OnlineError::UnsupportedVersion { kind, version } => {
                write!(f, "unsupported {kind} version {version}")
            }
            OnlineError::ChecksumMismatch {
                kind,
                expected,
                actual,
            } => write!(
                f,
                "{kind} corrupt: crc {actual:#010x} != recorded {expected:#010x}"
            ),
            OnlineError::Truncated(kind) => write!(f, "{kind} truncated"),
            OnlineError::SeqMismatch { listed, found } => write!(
                f,
                "journal segment seq mismatch: listing says {listed}, payload says {found}"
            ),
            OnlineError::NoPairs => {
                write!(f, "online corpus has no trainable pairs yet")
            }
        }
    }
}

impl std::error::Error for OnlineError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            OnlineError::Io(e) => Some(e),
            OnlineError::Slot(e) => Some(e),
            OnlineError::Decode(e) => Some(e),
            OnlineError::Snapshot(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for OnlineError {
    fn from(e: std::io::Error) -> Self {
        OnlineError::Io(e)
    }
}

impl From<SlotError> for OnlineError {
    fn from(e: SlotError) -> Self {
        OnlineError::Slot(e)
    }
}

impl From<DecodeError> for OnlineError {
    fn from(e: DecodeError) -> Self {
        OnlineError::Decode(e)
    }
}

impl From<SnapshotError> for OnlineError {
    fn from(e: SnapshotError) -> Self {
        OnlineError::Snapshot(e)
    }
}
