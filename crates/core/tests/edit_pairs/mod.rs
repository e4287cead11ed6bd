//! Edit-built creative pairs for the bitwise oracles: S is derived from R
//! the way creatives of one adgroup differ, so the two sides share most of
//! their lines — the common case in real traffic, which independently drawn
//! pairs almost never produce.

use microbrowse_core::features::OwnedTermFeat;
use microbrowse_store::{FeatureKey, StatsDb};
use microbrowse_text::Snippet;
use proptest::prelude::*;

/// One edit of R's lines. The numbers pick a line, a position and a choice
/// modulo what the line offers.
#[derive(Debug, Clone, Copy)]
pub enum Edit {
    /// Swap a phrase for one of its rewrite partners.
    Substitute { line: usize, pick: usize },
    /// Move a phrase of `len` tokens to another offset of its line.
    Move {
        line: usize,
        start: usize,
        len: usize,
        to: usize,
    },
    /// Insert a token no statistics or vocabulary mention.
    Insert { line: usize, at: usize, token: u16 },
}

fn arb_edit() -> impl Strategy<Value = Edit> {
    prop_oneof![
        (0usize..8, 0usize..64).prop_map(|(line, pick)| Edit::Substitute { line, pick }),
        (0usize..8, 0usize..8, 1usize..3, 0usize..8).prop_map(|(line, start, len, to)| {
            Edit::Move {
                line,
                start,
                len,
                to,
            }
        }),
        (0usize..8, 0usize..8, 0u16..1000).prop_map(|(line, at, token)| Edit::Insert {
            line,
            at,
            token
        }),
    ]
}

/// R's lines (word salad over the alphabet the statistics use) and up to
/// three edits deriving S from them.
pub fn arb_edited() -> impl Strategy<Value = (Vec<String>, Vec<Edit>)> {
    (
        prop::collection::vec("[a-d]{1,3}( [a-d]{1,3}){0,5}", 1..4),
        prop::collection::vec(arb_edit(), 0..4),
    )
}

/// The pair `(R, S)` with S derived from `r_lines` by `edits`. Lines no
/// edit touches are shared verbatim. A substitution draws its partner from
/// the rewrite records of `db` and the rewrite features of `vocab`, in
/// either direction, over every sub-phrase of up to two tokens in the line;
/// an edit with nothing to act on is skipped.
pub fn edited_pair(
    r_lines: &[String],
    edits: &[Edit],
    db: &StatsDb,
    vocab: &[OwnedTermFeat],
) -> (Snippet, Snippet) {
    let mut partners: Vec<(String, String)> = Vec::new();
    for (key, _) in db.sorted_records() {
        if let FeatureKey::Rewrite { from, to } = key {
            partners.push((from.clone(), to.clone()));
            partners.push((to, from));
        }
    }
    for feat in vocab {
        if let OwnedTermFeat::Rewrite(a, b) = feat {
            partners.push((a.clone(), b.clone()));
            partners.push((b.clone(), a.clone()));
        }
    }
    let mut lines: Vec<Vec<String>> = r_lines
        .iter()
        .map(|l| l.split_whitespace().map(str::to_owned).collect())
        .collect();
    for edit in edits {
        match *edit {
            Edit::Substitute { line, pick } => {
                let n = lines.len();
                let toks = &mut lines[line % n];
                let mut options: Vec<(usize, usize, &str)> = Vec::new();
                for start in 0..toks.len() {
                    for len in 1..=2.min(toks.len() - start) {
                        let phrase = toks[start..start + len].join(" ");
                        for (from, to) in &partners {
                            if *from == phrase {
                                options.push((start, len, to));
                            }
                        }
                    }
                }
                if let Some(&(start, len, to)) = options.get(pick % options.len().max(1)) {
                    toks.splice(start..start + len, to.split_whitespace().map(str::to_owned));
                }
            }
            Edit::Move {
                line,
                start,
                len,
                to,
            } => {
                let n = lines.len();
                let toks = &mut lines[line % n];
                if toks.len() < 2 {
                    continue;
                }
                let start = start % toks.len();
                let moved: Vec<String> = toks.drain(start..(start + len).min(toks.len())).collect();
                let at = to % (toks.len() + 1);
                toks.splice(at..at, moved);
            }
            Edit::Insert { line, at, token } => {
                let n = lines.len();
                let toks = &mut lines[line % n];
                let at = at % (toks.len() + 1);
                toks.insert(at, format!("zq{token}"));
            }
        }
    }
    (
        Snippet::from_lines(r_lines.iter().cloned()),
        Snippet::from_lines(lines.iter().map(|l| l.join(" "))),
    )
}
