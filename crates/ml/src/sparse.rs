//! Sorted sparse vectors.
//!
//! Classifier examples are extremely sparse (a creative pair touches a few
//! dozen of potentially millions of features), so the whole training stack
//! works on index-sorted `(u32, f64)` pair vectors. Keeping indices sorted
//! and deduplicated makes dot products, merges, and equality checks linear
//! and branch-predictable.

/// A sparse vector: strictly increasing feature indices with `f64` values.
///
/// Invariants (enforced by construction):
/// * `indices` strictly increasing (no duplicates),
/// * `indices.len() == values.len()`,
/// * no stored value is exactly `0.0` (zeros are dropped).
#[derive(Debug, Clone, PartialEq, Default)]
pub struct SparseVec {
    indices: Vec<u32>,
    values: Vec<f64>,
}

impl SparseVec {
    /// The empty vector.
    pub fn new() -> Self {
        Self::default()
    }

    /// Build from arbitrary `(index, value)` pairs: sorts, sums duplicates,
    /// and drops exact zeros (including duplicate groups that cancel).
    pub fn from_pairs(mut pairs: Vec<(u32, f64)>) -> Self {
        pairs.sort_unstable_by_key(|&(i, _)| i);
        let mut indices = Vec::with_capacity(pairs.len());
        let mut values = Vec::with_capacity(pairs.len());
        for (i, v) in pairs {
            if let Some(&last) = indices.last() {
                if last == i {
                    *values.last_mut().expect("values parallel to indices") += v;
                    continue;
                }
            }
            indices.push(i);
            values.push(v);
        }
        // Drop exact zeros produced by cancellation.
        let mut k = 0;
        for j in 0..indices.len() {
            if values[j] != 0.0 {
                indices[k] = indices[j];
                values[k] = values[j];
                k += 1;
            }
        }
        indices.truncate(k);
        values.truncate(k);
        Self { indices, values }
    }

    /// Rebuild `self` in place from `pairs`, reusing both buffers.
    ///
    /// Runs the exact algorithm of [`SparseVec::from_pairs`] (same unstable
    /// sort, same in-order duplicate summation, same exact-zero drop), so the
    /// result is bit-identical for the same input sequence — but the capacity
    /// of `self` and of `pairs` survives across calls, which lets a warmed-up
    /// scoring loop build feature vectors without allocating. `pairs` is
    /// cleared afterwards, ready for refilling.
    pub fn assign_from_pairs(&mut self, pairs: &mut Vec<(u32, f64)>) {
        pairs.sort_unstable_by_key(|&(i, _)| i);
        self.indices.clear();
        self.values.clear();
        for &(i, v) in pairs.iter() {
            if let Some(&last) = self.indices.last() {
                if last == i {
                    *self.values.last_mut().expect("values parallel to indices") += v;
                    continue;
                }
            }
            self.indices.push(i);
            self.values.push(v);
        }
        // Drop exact zeros produced by cancellation.
        let mut k = 0;
        for j in 0..self.indices.len() {
            if self.values[j] != 0.0 {
                self.indices[k] = self.indices[j];
                self.values[k] = self.values[j];
                k += 1;
            }
        }
        self.indices.truncate(k);
        self.values.truncate(k);
        pairs.clear();
    }

    /// Number of stored (nonzero) entries.
    pub fn nnz(&self) -> usize {
        self.indices.len()
    }

    /// Whether there are no stored entries.
    pub fn is_empty(&self) -> bool {
        self.indices.is_empty()
    }

    /// Largest stored index plus one (0 for the empty vector).
    pub fn dim_lower_bound(&self) -> usize {
        self.indices.last().map_or(0, |&i| i as usize + 1)
    }

    /// Iterate `(index, value)` in increasing index order.
    pub fn iter(&self) -> impl Iterator<Item = (u32, f64)> + '_ {
        self.indices
            .iter()
            .copied()
            .zip(self.values.iter().copied())
    }

    /// Value at `index` (0.0 if absent). O(log nnz).
    pub fn get(&self, index: u32) -> f64 {
        match self.indices.binary_search(&index) {
            Ok(pos) => self.values[pos],
            Err(_) => 0.0,
        }
    }

    /// Dot product against a dense weight slice. Indices beyond the slice
    /// contribute zero (useful while a model is still growing its dim).
    pub fn dot_dense(&self, dense: &[f64]) -> f64 {
        let mut acc = 0.0;
        for (i, v) in self.iter() {
            if let Some(w) = dense.get(i as usize) {
                acc += w * v;
            }
        }
        acc
    }

    /// Sparse-sparse dot product. O(nnz_a + nnz_b).
    pub fn dot(&self, other: &SparseVec) -> f64 {
        let mut acc = 0.0;
        let (mut a, mut b) = (0usize, 0usize);
        while a < self.indices.len() && b < other.indices.len() {
            match self.indices[a].cmp(&other.indices[b]) {
                std::cmp::Ordering::Less => a += 1,
                std::cmp::Ordering::Greater => b += 1,
                std::cmp::Ordering::Equal => {
                    acc += self.values[a] * other.values[b];
                    a += 1;
                    b += 1;
                }
            }
        }
        acc
    }

    /// `self + alpha * other`, materialized as a new vector.
    pub fn axpy(&self, alpha: f64, other: &SparseVec) -> SparseVec {
        let mut pairs: Vec<(u32, f64)> = self.iter().collect();
        pairs.extend(other.iter().map(|(i, v)| (i, alpha * v)));
        SparseVec::from_pairs(pairs)
    }

    /// Scale every value by `alpha` (alpha = 0 empties the vector).
    pub fn scaled(&self, alpha: f64) -> SparseVec {
        if alpha == 0.0 {
            return SparseVec::new();
        }
        SparseVec {
            indices: self.indices.clone(),
            values: self.values.iter().map(|v| v * alpha).collect(),
        }
    }

    /// L1 norm.
    pub fn l1_norm(&self) -> f64 {
        self.values.iter().map(|v| v.abs()).sum()
    }

    /// L2 norm.
    pub fn l2_norm(&self) -> f64 {
        self.values.iter().map(|v| v * v).sum::<f64>().sqrt()
    }

    /// Internal check of the sortedness/no-zero invariants (used by tests
    /// and by debug assertions in consumers).
    pub fn check_invariants(&self) -> bool {
        self.indices.len() == self.values.len()
            && self.indices.windows(2).all(|w| w[0] < w[1])
            && self.values.iter().all(|&v| v != 0.0)
    }
}

impl FromIterator<(u32, f64)> for SparseVec {
    fn from_iter<T: IntoIterator<Item = (u32, f64)>>(iter: T) -> Self {
        SparseVec::from_pairs(iter.into_iter().collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn from_pairs_sorts_and_merges() {
        let v = SparseVec::from_pairs(vec![(5, 1.0), (2, 2.0), (5, 3.0), (9, -1.0)]);
        let got: Vec<_> = v.iter().collect();
        assert_eq!(got, vec![(2, 2.0), (5, 4.0), (9, -1.0)]);
        assert!(v.check_invariants());
    }

    #[test]
    fn cancellation_drops_entries() {
        let v = SparseVec::from_pairs(vec![(3, 1.5), (3, -1.5), (1, 0.0)]);
        assert!(v.is_empty());
        assert_eq!(v.nnz(), 0);
    }

    #[test]
    fn get_and_dim() {
        let v = SparseVec::from_pairs(vec![(0, 1.0), (7, 2.0)]);
        assert_eq!(v.get(0), 1.0);
        assert_eq!(v.get(7), 2.0);
        assert_eq!(v.get(3), 0.0);
        assert_eq!(v.dim_lower_bound(), 8);
        assert_eq!(SparseVec::new().dim_lower_bound(), 0);
    }

    #[test]
    fn dot_dense_ignores_out_of_range() {
        let v = SparseVec::from_pairs(vec![(1, 2.0), (10, 5.0)]);
        let w = [0.5, 1.5, 0.0];
        assert_eq!(v.dot_dense(&w), 3.0); // only index 1 in range
    }

    #[test]
    fn sparse_sparse_dot() {
        let a = SparseVec::from_pairs(vec![(1, 2.0), (3, 1.0), (5, -1.0)]);
        let b = SparseVec::from_pairs(vec![(0, 9.0), (3, 4.0), (5, 2.0)]);
        assert_eq!(a.dot(&b), 4.0 - 2.0);
        assert_eq!(a.dot(&SparseVec::new()), 0.0);
    }

    #[test]
    fn axpy_and_scale() {
        let a = SparseVec::from_pairs(vec![(1, 1.0), (2, 1.0)]);
        let b = SparseVec::from_pairs(vec![(2, 1.0), (3, 1.0)]);
        let c = a.axpy(2.0, &b);
        let got: Vec<_> = c.iter().collect();
        assert_eq!(got, vec![(1, 1.0), (2, 3.0), (3, 2.0)]);
        assert!(a.scaled(0.0).is_empty());
        assert_eq!(a.scaled(-1.0).get(1), -1.0);
    }

    #[test]
    fn norms() {
        let v = SparseVec::from_pairs(vec![(0, 3.0), (1, -4.0)]);
        assert_eq!(v.l1_norm(), 7.0);
        assert_eq!(v.l2_norm(), 5.0);
        assert_eq!(SparseVec::new().l1_norm(), 0.0);
    }

    #[test]
    fn from_iterator() {
        let v: SparseVec = [(2u32, 1.0), (1u32, 1.0)].into_iter().collect();
        assert_eq!(v.iter().next(), Some((1, 1.0)));
    }
}
