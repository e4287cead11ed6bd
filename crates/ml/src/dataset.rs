//! Binary-classification datasets.
//!
//! A dataset row is one *creative pair* (paper §IV-B): features encode the
//! difference between snippet R and snippet S, and the label says whether R
//! had the higher CTR. This module is agnostic to that meaning — it just
//! stores sparse examples with boolean labels and offers deterministic
//! shuffling and subsetting for cross-validation.

use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

use crate::sparse::SparseVec;

/// One labelled example.
#[derive(Debug, Clone, PartialEq)]
pub struct Example {
    /// Sparse feature vector.
    pub features: SparseVec,
    /// Binary label (`true` = positive class, e.g. "R has higher CTR").
    pub label: bool,
    /// Importance weight (1.0 for ordinary examples).
    pub weight: f64,
}

impl Example {
    /// Construct with unit weight.
    pub fn new(features: SparseVec, label: bool) -> Self {
        Self {
            features,
            label,
            weight: 1.0,
        }
    }
}

/// A collection of examples plus the feature-space dimension.
#[derive(Debug, Clone, Default)]
pub struct Dataset {
    examples: Vec<Example>,
    dim: usize,
}

impl Dataset {
    /// Create an empty dataset with a declared feature dimension.
    pub fn with_dim(dim: usize) -> Self {
        Self {
            examples: Vec::new(),
            dim,
        }
    }

    /// Build from examples; the dimension is the max of `declared_dim` and
    /// what the examples require.
    pub fn from_examples(examples: Vec<Example>, declared_dim: usize) -> Self {
        let needed = examples
            .iter()
            .map(|e| e.features.dim_lower_bound())
            .max()
            .unwrap_or(0);
        Self {
            examples,
            dim: declared_dim.max(needed),
        }
    }

    /// Add one example, growing `dim` if needed.
    pub fn push(&mut self, ex: Example) {
        self.dim = self.dim.max(ex.features.dim_lower_bound());
        self.examples.push(ex);
    }

    /// The examples.
    pub fn examples(&self) -> &[Example] {
        &self.examples
    }

    /// Number of examples.
    pub fn len(&self) -> usize {
        self.examples.len()
    }

    /// Whether the dataset has no examples.
    pub fn is_empty(&self) -> bool {
        self.examples.is_empty()
    }

    /// Feature-space dimension.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Count of positive labels.
    pub fn num_positive(&self) -> usize {
        self.examples.iter().filter(|e| e.label).count()
    }

    /// Deterministically shuffle example order.
    pub fn shuffle(&mut self, seed: u64) {
        let mut rng = StdRng::seed_from_u64(seed);
        self.examples.shuffle(&mut rng);
    }

    /// Materialize the subset selected by `idx` (indices into this dataset).
    pub fn subset(&self, idx: &[usize]) -> Dataset {
        let examples = idx.iter().map(|&i| self.examples[i].clone()).collect();
        Dataset {
            examples,
            dim: self.dim,
        }
    }

    /// Split into (train, test) given test indices; everything not in
    /// `test_idx` goes to train. `test_idx` must be sorted.
    pub fn split(&self, test_idx: &[usize]) -> (Dataset, Dataset) {
        debug_assert!(
            test_idx.windows(2).all(|w| w[0] < w[1]),
            "test_idx must be sorted"
        );
        let mut train = Vec::with_capacity(self.len().saturating_sub(test_idx.len()));
        let mut test = Vec::with_capacity(test_idx.len());
        let mut cursor = 0usize;
        for (i, ex) in self.examples.iter().enumerate() {
            if cursor < test_idx.len() && test_idx[cursor] == i {
                test.push(ex.clone());
                cursor += 1;
            } else {
                train.push(ex.clone());
            }
        }
        (
            Dataset {
                examples: train,
                dim: self.dim,
            },
            Dataset {
                examples: test,
                dim: self.dim,
            },
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ex(idx: u32, label: bool) -> Example {
        Example::new(SparseVec::from_pairs(vec![(idx, 1.0)]), label)
    }

    #[test]
    fn push_grows_dim() {
        let mut d = Dataset::with_dim(0);
        d.push(ex(5, true));
        assert_eq!(d.dim(), 6);
        d.push(ex(2, false));
        assert_eq!(d.dim(), 6);
        assert_eq!(d.len(), 2);
        assert_eq!(d.num_positive(), 1);
    }

    #[test]
    fn from_examples_respects_declared_dim() {
        let d = Dataset::from_examples(vec![ex(3, true)], 100);
        assert_eq!(d.dim(), 100);
        let d = Dataset::from_examples(vec![ex(300, true)], 100);
        assert_eq!(d.dim(), 301);
    }

    #[test]
    fn shuffle_is_deterministic() {
        let mut a = Dataset::with_dim(0);
        let mut b = Dataset::with_dim(0);
        for i in 0..50 {
            a.push(ex(i, i % 2 == 0));
            b.push(ex(i, i % 2 == 0));
        }
        a.shuffle(7);
        b.shuffle(7);
        assert_eq!(a.examples(), b.examples());
        let mut c = a.clone();
        c.shuffle(8);
        assert_ne!(a.examples(), c.examples());
    }

    #[test]
    fn split_partitions() {
        let mut d = Dataset::with_dim(0);
        for i in 0..10 {
            d.push(ex(i, true));
        }
        let (train, test) = d.split(&[1, 4, 9]);
        assert_eq!(train.len(), 7);
        assert_eq!(test.len(), 3);
        assert_eq!(test.examples()[0].features.get(1), 1.0);
        assert_eq!(train.dim(), d.dim());
    }

    #[test]
    fn subset_picks_rows() {
        let mut d = Dataset::with_dim(0);
        for i in 0..5 {
            d.push(ex(i, false));
        }
        let s = d.subset(&[4, 0]);
        assert_eq!(s.len(), 2);
        assert_eq!(s.examples()[0].features.get(4), 1.0);
    }

    #[test]
    fn empty_split() {
        let d = Dataset::with_dim(3);
        let (tr, te) = d.split(&[]);
        assert!(tr.is_empty() && te.is_empty());
    }
}
