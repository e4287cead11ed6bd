//! The borrowed request decoders against the DOM decoders they replaced.
//!
//! `ScoreRequest`, `ExplainRequest` and `BatchRequest` bodies in the plain
//! shape clients render are decoded without the JSON DOM; every other body
//! still goes through it. `mod oracle` holds the DOM-based decoders as they
//! were before the borrowed path existed, and the properties below require
//! the same `Result` from both on generated bodies: the same items, the
//! same `WireError::Syntax` offset, the same shape message.

use std::borrow::Cow;

use microbrowse_api::v1::{BatchRequest, ExplainRequest, PairRef, ScoreRequest};
use proptest::prelude::*;

/// The DOM-based decoders, verbatim apart from living outside the crate.
mod oracle {
    use microbrowse_api::v1::{
        BatchRequest, ExplainRequest, ScoreRequest, WireError, BATCH_REQUEST_SHAPE,
        SCORE_REQUEST_SHAPE,
    };
    use microbrowse_obs::json::Json;

    fn parse_body(body: &str) -> Result<Json, WireError> {
        Json::parse(body).map_err(WireError::Syntax)
    }

    fn score_from_value(v: &Json) -> Result<ScoreRequest, WireError> {
        match (
            v.get("r").and_then(Json::as_str),
            v.get("s").and_then(Json::as_str),
        ) {
            (Some(r), Some(s)) => Ok(ScoreRequest {
                r: r.to_string(),
                s: s.to_string(),
            }),
            _ => Err(WireError::Shape(SCORE_REQUEST_SHAPE)),
        }
    }

    pub fn score_from_json(body: &str) -> Result<ScoreRequest, WireError> {
        score_from_value(&parse_body(body)?)
    }

    pub fn explain_from_json(body: &str) -> Result<ExplainRequest, WireError> {
        let req = score_from_json(body)?;
        Ok(ExplainRequest { r: req.r, s: req.s })
    }

    pub fn batch_from_json(body: &str) -> Result<BatchRequest, WireError> {
        let v = parse_body(body)?;
        let arr = v.as_array().ok_or(WireError::Shape(BATCH_REQUEST_SHAPE))?;
        let mut items = Vec::with_capacity(arr.len());
        for item in arr {
            items.push(score_from_value(item).map_err(|_| WireError::Shape(BATCH_REQUEST_SHAPE))?);
        }
        Ok(BatchRequest { items })
    }
}

/// SplitMix64 over a proptest-drawn seed: the body generator below makes
/// many dependent choices, which read more plainly as calls than as nested
/// strategies.
struct Gen(u64);

impl Gen {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }

    fn chance(&mut self, percent: usize) -> bool {
        self.below(100) < percent
    }

    fn pick<'t>(&mut self, from: &[&'t str]) -> &'t str {
        from[self.below(from.len())]
    }

    /// JSON whitespace, usually none.
    fn ws(&mut self) -> &'static str {
        if self.chance(85) {
            ""
        } else {
            self.pick(&[" ", "\n", "\t", "\r", "  \n\t "])
        }
    }
}

/// Pieces of a JSON string literal's inside: plain text long and short
/// (so the scanner's word skip runs), `|` separators, multi-byte UTF-8,
/// valid escapes (an escaped `|`, a surrogate pair), and a few pieces that
/// make the literal invalid (a lone surrogate, a bad escape, a raw control
/// byte).
const STRING_PIECES: &[&str] = &[
    "Cheap Flights",
    "book today and save on every fare",
    "a",
    "|",
    " | ",
    "é",
    "中文",
    "😀",
    "\u{7f}",
    "\\\"",
    "\\\\",
    "\\/",
    "\\n",
    "\\t",
    "\\u00e9",
    "\\u007c",
    "\\ud83d\\ude00",
    "\\u0000",
];
const BAD_STRING_PIECES: &[&str] = &["\\ud83d", "\\ude00\\ud83d", "\\q", "\\u12", "\u{1}"];

fn string_literal(g: &mut Gen) -> String {
    let mut out = String::from("\"");
    for _ in 0..g.below(6) {
        out.push_str(g.pick(STRING_PIECES));
    }
    if g.chance(2) {
        out.push_str(g.pick(BAD_STRING_PIECES));
    }
    out.push('"');
    out
}

/// A member value that is not a string, of every JSON type.
fn other_value(g: &mut Gen) -> String {
    g.pick(&[
        "1",
        "-0.5e3",
        "0",
        "true",
        "false",
        "null",
        "[]",
        "[\"a\",1]",
        "{}",
        "{\"r\":\"x\"}",
        "{\"k\":[null,{\"s\":\"y\"}]}",
    ])
    .to_owned()
}

/// A key: mostly `r`/`s`, sometimes escaped (`\u0072` is `r`), another
/// name, or a duplicate of either side.
fn key(g: &mut Gen) -> &'static str {
    g.pick(&[
        "\"r\"",
        "\"s\"",
        "\"\\u0072\"",
        "\"\\u0073\"",
        "\"x\"",
        "\"\"",
        "\"rs\"",
    ])
}

/// One `{"r":…,"s":…}` object. `depth` is the nesting depth the object sits
/// at, so an extra member can reach exactly the DOM's depth limit (64) or
/// one past it.
fn item(g: &mut Gen, depth: usize) -> String {
    let mut members: Vec<(String, String)> = Vec::new();
    if g.chance(90) {
        members.push(("\"r\"".into(), string_literal(g)));
    }
    if g.chance(90) {
        members.push(("\"s\"".into(), string_literal(g)));
    }
    if g.chance(15) {
        members.push((key(g).into(), string_literal(g)));
    }
    if g.chance(10) {
        members.push((key(g).into(), other_value(g)));
    }
    if g.chance(3) {
        // The member value sits at depth + 1; the innermost of `k` nested
        // arrays at depth + k, so k = 64 - depth is the deepest legal.
        let k = (64 - depth) + g.below(2);
        members.push(("\"deep\"".into(), "[".repeat(k) + &"]".repeat(k)));
    }
    if g.chance(20) && members.len() > 1 {
        let n = members.len();
        members.swap(g.below(n), g.below(n));
    }
    let mut out = format!("{{{}", g.ws());
    for (i, (k, v)) in members.iter().enumerate() {
        if i > 0 {
            out.push_str(&format!("{},{}", g.ws(), g.ws()));
        }
        out.push_str(&format!("{k}{}:{}{v}", g.ws(), g.ws()));
    }
    out.push_str(&format!("{}}}", g.ws()));
    out
}

fn batch_body(g: &mut Gen) -> String {
    if g.chance(3) {
        return item(g, 0);
    }
    let mut out = format!("{}[{}", g.ws(), g.ws());
    for i in 0..g.below(5) {
        if i > 0 {
            out.push_str(&format!("{},{}", g.ws(), g.ws()));
        }
        if g.chance(3) {
            out.push_str(&other_value(g));
        } else {
            out.push_str(&item(g, 1));
        }
    }
    out.push_str(&format!("{}]{}", g.ws(), g.ws()));
    out
}

fn pair_body(g: &mut Gen) -> String {
    if g.chance(3) {
        return batch_body(g);
    }
    format!("{}{}{}", g.ws(), item(g, 0), g.ws())
}

/// Single-byte mutations that keep the body UTF-8: replace, insert or
/// delete one byte at a position that starts a char.
fn mutate(g: &mut Gen, body: &str) -> Option<String> {
    const BYTES: &[u8] = b"\"\\{}[]:, a1\x01\x7f";
    let mut bytes = body.as_bytes().to_vec();
    let at = g.below(bytes.len() + 1);
    let b = BYTES[g.below(BYTES.len())];
    match g.below(3) {
        0 if at < bytes.len() => bytes[at] = b,
        1 if at < bytes.len() => {
            bytes.remove(at);
        }
        _ => bytes.insert(at, b),
    }
    String::from_utf8(bytes).ok()
}

/// Every decoder agrees with its oracle on `body`.
fn assert_decoders_agree(body: &str) -> Result<(), String> {
    let batch = BatchRequest::from_json(body);
    prop_assert_eq!(&batch, &oracle::batch_from_json(body), "batch {:?}", body);
    let borrowed = BatchRequest::from_json_borrowed(body).map(|items| {
        items
            .into_iter()
            .map(PairRef::into_owned)
            .collect::<Vec<_>>()
    });
    prop_assert_eq!(
        borrowed,
        batch.map(|b| b.items),
        "borrowed batch {:?}",
        body
    );
    let score = ScoreRequest::from_json(body);
    prop_assert_eq!(&score, &oracle::score_from_json(body), "score {:?}", body);
    prop_assert_eq!(
        PairRef::from_json(body).map(PairRef::into_owned),
        score,
        "pair {:?}",
        body
    );
    prop_assert_eq!(
        ExplainRequest::from_json(body),
        oracle::explain_from_json(body),
        "explain {:?}",
        body
    );
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(1024))]

    /// Generated batch and pair bodies decode identically, and so does
    /// every one of their truncations.
    #[test]
    fn decoders_match_the_dom_oracle(seed in any::<u64>()) {
        let mut g = Gen(seed);
        for body in [batch_body(&mut g), pair_body(&mut g)] {
            assert_decoders_agree(&body)?;
            for cut in 0..body.len() {
                if let Some(prefix) = body.get(..cut) {
                    assert_decoders_agree(prefix)?;
                }
            }
        }
    }

    /// Single-byte mutations of generated bodies decode identically.
    #[test]
    fn mutated_bodies_match_the_dom_oracle(seed in any::<u64>()) {
        let mut g = Gen(seed);
        let body = if g.chance(50) { batch_body(&mut g) } else { pair_body(&mut g) };
        for _ in 0..16 {
            if let Some(mutant) = mutate(&mut g, &body) {
                assert_decoders_agree(&mutant)?;
            }
        }
    }
}

#[test]
fn plain_bodies_borrow_and_escaped_sides_are_owned() {
    let body = r#"[{"r":"Cheap Flights|book today","s":"a"}, {"s":"x\ny","r":"b","r":"dup"}]"#;
    let items = BatchRequest::from_json_borrowed(body).unwrap();
    assert_eq!(items.len(), 2);
    assert!(matches!(
        items[0].r,
        Cow::Borrowed("Cheap Flights|book today")
    ));
    assert!(matches!(items[0].s, Cow::Borrowed("a")));
    assert!(matches!(items[1].r, Cow::Borrowed("b")));
    assert!(matches!(&items[1].s, Cow::Owned(s) if s == "x\ny"));
    // Bodies outside the plain shape are decoded by the DOM, so nothing
    // borrows — but the items are the same.
    let escaped_key = r#"[{"\u0072":"Cheap Flights|book today","s":"a"}]"#;
    let items = BatchRequest::from_json_borrowed(escaped_key).unwrap();
    assert!(matches!(items[0].r, Cow::Owned(_)));
    assert_eq!(items[0].r, "Cheap Flights|book today");
    let pair = PairRef::from_json(r#" {"r":"a","s":"b","n":1} "#).unwrap();
    assert!(matches!(pair.r, Cow::Owned(_)));
    assert_eq!((&*pair.r, &*pair.s), ("a", "b"));
}

#[test]
fn depth_limit_offsets_match_at_64_and_65() {
    for k in [63, 64, 65] {
        let body = format!(
            r#"[{{"r":"a","s":"b","deep":{}{}}}]"#,
            "[".repeat(k),
            "]".repeat(k)
        );
        assert_eq!(
            BatchRequest::from_json(&body),
            oracle::batch_from_json(&body),
            "k={k}"
        );
        let body = format!(
            r#"{{"r":"a","s":"b","deep":{}{}}}"#,
            "[".repeat(k),
            "]".repeat(k)
        );
        assert_eq!(
            ScoreRequest::from_json(&body),
            oracle::score_from_json(&body),
            "k={k}"
        );
    }
    // The batch at k = 64 sits one past the limit and fails in both.
    let body = format!(
        r#"[{{"r":"a","s":"b","deep":{}{}}}]"#,
        "[".repeat(64),
        "]".repeat(64)
    );
    assert!(BatchRequest::from_json(&body).is_err());
}
