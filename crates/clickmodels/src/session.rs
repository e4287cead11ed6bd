//! Search sessions: ranked result pages with click feedback.
//!
//! The unit of click-model training data is one *query instance*: the user
//! issued a query, saw a ranked list of results, and clicked some subset.
//! Following the click-model literature (and the notation of §II: `φ(i)` is
//! the result at position `i`, `C_i` the click event), a [`Session`] stores
//! the query, the displayed documents in rank order, and one click bit per
//! rank.

/// Identifier of a query (intent), e.g. "cheap flights new york".
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct QueryId(pub u32);

/// Identifier of a document / ad creative shown as a result.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct DocId(pub u32);

/// One query instance: ranked documents and the user's clicks.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Session {
    /// The issued query.
    pub query: QueryId,
    /// Documents in display order (`docs[0]` is rank 1 / `φ(1)`).
    pub docs: Vec<DocId>,
    /// `clicks[i]` is `C_{i+1}`: did the user click the doc at rank i+1.
    pub clicks: Vec<bool>,
}

impl Session {
    /// Construct, checking that `docs` and `clicks` are parallel.
    pub fn new(query: QueryId, docs: Vec<DocId>, clicks: Vec<bool>) -> Self {
        assert_eq!(docs.len(), clicks.len(), "docs and clicks must be parallel");
        Self {
            query,
            docs,
            clicks,
        }
    }

    /// Number of displayed ranks.
    pub fn depth(&self) -> usize {
        self.docs.len()
    }

    /// Rank index of the last click, if any.
    pub fn last_click(&self) -> Option<usize> {
        self.clicks.iter().rposition(|&c| c)
    }

    /// Rank index of the first click, if any.
    pub fn first_click(&self) -> Option<usize> {
        self.clicks.iter().position(|&c| c)
    }

    /// Total number of clicks.
    pub fn num_clicks(&self) -> usize {
        self.clicks.iter().filter(|&&c| c).count()
    }

    /// Iterate `(rank, doc, clicked)`.
    pub fn iter(&self) -> impl Iterator<Item = (usize, DocId, bool)> + '_ {
        self.docs
            .iter()
            .zip(self.clicks.iter())
            .enumerate()
            .map(|(i, (&d, &c))| (i, d, c))
    }
}

/// A training/evaluation corpus of sessions.
#[derive(Debug, Clone, Default)]
pub struct SessionSet {
    sessions: Vec<Session>,
    max_depth: usize,
}

impl SessionSet {
    /// Empty set.
    pub fn new() -> Self {
        Self::default()
    }

    /// Build from sessions.
    pub fn from_sessions(sessions: Vec<Session>) -> Self {
        let max_depth = sessions.iter().map(Session::depth).max().unwrap_or(0);
        Self {
            sessions,
            max_depth,
        }
    }

    /// Append a session.
    pub fn push(&mut self, s: Session) {
        self.max_depth = self.max_depth.max(s.depth());
        self.sessions.push(s);
    }

    /// The sessions.
    pub fn sessions(&self) -> &[Session] {
        &self.sessions
    }

    /// Number of sessions.
    pub fn len(&self) -> usize {
        self.sessions.len()
    }

    /// Whether the set is empty.
    pub fn is_empty(&self) -> bool {
        self.sessions.is_empty()
    }

    /// Deepest result list seen.
    pub fn max_depth(&self) -> usize {
        self.max_depth
    }

    /// Empirical CTR per rank: `(clicks at rank, impressions at rank)`
    /// reduced to a ratio; ranks with no impressions report 0.
    pub fn ctr_by_rank(&self) -> Vec<f64> {
        let mut clicks = vec![0u64; self.max_depth];
        let mut imps = vec![0u64; self.max_depth];
        for s in &self.sessions {
            for (i, _, c) in s.iter() {
                imps[i] += 1;
                if c {
                    clicks[i] += 1;
                }
            }
        }
        clicks
            .into_iter()
            .zip(imps)
            .map(|(c, n)| if n == 0 { 0.0 } else { c as f64 / n as f64 })
            .collect()
    }

    /// Split deterministically into train/test by taking every `k`-th
    /// session into the test set.
    pub fn split_every_kth(&self, k: usize) -> (SessionSet, SessionSet) {
        assert!(k >= 2, "k must be at least 2");
        let mut train = SessionSet::new();
        let mut test = SessionSet::new();
        for (i, s) in self.sessions.iter().enumerate() {
            if i % k == 0 {
                test.push(s.clone());
            } else {
                train.push(s.clone());
            }
        }
        (train, test)
    }
}

impl FromIterator<Session> for SessionSet {
    fn from_iter<T: IntoIterator<Item = Session>>(iter: T) -> Self {
        Self::from_sessions(iter.into_iter().collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sess(clicks: &[bool]) -> Session {
        Session::new(
            QueryId(1),
            (0..clicks.len() as u32).map(DocId).collect(),
            clicks.to_vec(),
        )
    }

    #[test]
    fn click_positions() {
        let s = sess(&[false, true, false, true, false]);
        assert_eq!(s.first_click(), Some(1));
        assert_eq!(s.last_click(), Some(3));
        assert_eq!(s.num_clicks(), 2);
        assert_eq!(s.depth(), 5);
        assert_eq!(sess(&[false, false]).last_click(), None);
    }

    #[test]
    #[should_panic(expected = "parallel")]
    fn mismatched_lengths_panic() {
        let _ = Session::new(QueryId(0), vec![DocId(1)], vec![true, false]);
    }

    #[test]
    fn iter_yields_ranks() {
        let s = sess(&[true, false]);
        let got: Vec<(usize, DocId, bool)> = s.iter().collect();
        assert_eq!(got, vec![(0, DocId(0), true), (1, DocId(1), false)]);
    }

    #[test]
    fn session_set_tracks_depth() {
        let mut set = SessionSet::new();
        assert_eq!(set.max_depth(), 0);
        set.push(sess(&[false; 3]));
        set.push(sess(&[false; 7]));
        assert_eq!(set.max_depth(), 7);
        assert_eq!(set.len(), 2);
    }

    #[test]
    fn ctr_by_rank_counts() {
        let set = SessionSet::from_sessions(vec![
            sess(&[true, false]),
            sess(&[true, true]),
            sess(&[false, false]),
        ]);
        let ctr = set.ctr_by_rank();
        assert!((ctr[0] - 2.0 / 3.0).abs() < 1e-12);
        assert!((ctr[1] - 1.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn ctr_with_ragged_depths() {
        let set = SessionSet::from_sessions(vec![sess(&[true]), sess(&[false, true])]);
        let ctr = set.ctr_by_rank();
        assert_eq!(ctr.len(), 2);
        assert!((ctr[0] - 0.5).abs() < 1e-12);
        assert!((ctr[1] - 1.0).abs() < 1e-12);
    }

    #[test]
    fn split_every_kth_partitions() {
        let set: SessionSet = (0..10).map(|_| sess(&[false, true])).collect();
        let (train, test) = set.split_every_kth(5);
        assert_eq!(test.len(), 2);
        assert_eq!(train.len(), 8);
    }
}
