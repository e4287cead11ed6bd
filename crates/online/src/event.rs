//! Binary codec for feedback events as they sit in the journal.
//!
//! The wire shapes live in [`microbrowse_api::v1`]; this module gives them
//! the same varint + length-prefixed-string encoding the stats snapshots
//! use, so journal segments are compact and deterministic.

use microbrowse_api::v1::FeedbackEvent;
use microbrowse_store::codec::{get_str, get_varint, put_str, put_varint, DecodeError};

/// Append one event to `buf`.
pub fn put_event(buf: &mut Vec<u8>, ev: &FeedbackEvent) {
    put_varint(buf, ev.adgroup);
    put_varint(buf, ev.creative);
    put_str(buf, &ev.snippet);
    put_varint(buf, ev.position);
    put_str(buf, &ev.query_class);
    put_varint(buf, ev.impressions);
    put_varint(buf, ev.clicks);
}

/// Read one event written by [`put_event`].
pub fn get_event(buf: &mut &[u8]) -> Result<FeedbackEvent, DecodeError> {
    let adgroup = get_varint(buf)?;
    let creative = get_varint(buf)?;
    let snippet = get_str(buf)?;
    let position = get_varint(buf)?;
    let query_class = get_str(buf)?;
    let impressions = get_varint(buf)?;
    let clicks = get_varint(buf)?;
    Ok(FeedbackEvent {
        adgroup,
        creative,
        snippet,
        position,
        query_class,
        impressions,
        clicks,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trip() {
        let ev = FeedbackEvent {
            adgroup: 7,
            creative: 300,
            snippet: "cheap flights|book now|fly today".to_string(),
            position: 2,
            query_class: "travel".to_string(),
            impressions: 12_000,
            clicks: 340,
        };
        let mut buf = Vec::new();
        put_event(&mut buf, &ev);
        let mut slice = &buf[..];
        assert_eq!(get_event(&mut slice).unwrap(), ev);
        assert!(slice.is_empty());
    }

    #[test]
    fn truncated_event_errors() {
        let ev = FeedbackEvent {
            adgroup: 1,
            creative: 2,
            snippet: "a|b".to_string(),
            position: 1,
            query_class: "c".to_string(),
            impressions: 10,
            clicks: 1,
        };
        let mut buf = Vec::new();
        put_event(&mut buf, &ev);
        for cut in 0..buf.len() {
            let mut slice = &buf[..cut];
            assert!(get_event(&mut slice).is_err(), "cut at {cut} should fail");
        }
    }
}
