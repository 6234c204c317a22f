use crate::LinalgError;

/// The immutable nonzero structure of a square sparse matrix, in CSR layout.
///
/// A pattern is built once per circuit topology and shared (via `Arc`) by
/// everything that reuses the structure: value arrays are indexed by the
/// *slot* numbers this pattern assigns, so re-stamping new element values
/// never re-derives the structure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SparsityPattern {
    n: usize,
    row_ptr: Vec<usize>,
    col_idx: Vec<usize>,
}

impl SparsityPattern {
    /// Builds the pattern from a list of `(row, col)` positions.  Duplicates
    /// collapse to a single slot; rows and columns within rows are sorted.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::InvalidDimensions`] if `n == 0` or any position
    /// is out of range.
    pub fn from_positions(n: usize, positions: &[(usize, usize)]) -> Result<Self, LinalgError> {
        if n == 0 {
            return Err(LinalgError::InvalidDimensions {
                reason: "sparsity pattern dimension must be non-zero",
            });
        }
        if positions.iter().any(|&(r, c)| r >= n || c >= n) {
            return Err(LinalgError::InvalidDimensions {
                reason: "sparsity pattern position out of range",
            });
        }
        let mut sorted: Vec<(usize, usize)> = positions.to_vec();
        sorted.sort_unstable();
        sorted.dedup();

        let mut row_ptr = vec![0usize; n + 1];
        let mut col_idx = Vec::with_capacity(sorted.len());
        for &(r, c) in &sorted {
            row_ptr[r + 1] += 1;
            col_idx.push(c);
        }
        for r in 0..n {
            row_ptr[r + 1] += row_ptr[r];
        }
        Ok(SparsityPattern {
            n,
            row_ptr,
            col_idx,
        })
    }

    /// Matrix dimension.
    pub fn n(&self) -> usize {
        self.n
    }

    /// Number of structural nonzeros (slots).
    pub fn nnz(&self) -> usize {
        self.col_idx.len()
    }

    /// The sorted column indices of row `r`.
    ///
    /// # Panics
    ///
    /// Panics if `r >= self.n()`.
    pub fn row(&self, r: usize) -> &[usize] {
        assert!(r < self.n, "row index out of bounds");
        &self.col_idx[self.row_ptr[r]..self.row_ptr[r + 1]]
    }

    /// The slot range of row `r` (indices into the value array that
    /// correspond to [`SparsityPattern::row`]'s column list).
    ///
    /// # Panics
    ///
    /// Panics if `r >= self.n()`.
    pub fn row_slots(&self, r: usize) -> std::ops::Range<usize> {
        assert!(r < self.n, "row index out of bounds");
        self.row_ptr[r]..self.row_ptr[r + 1]
    }

    /// Slot index of position `(r, c)`, or `None` if it is structurally zero.
    pub fn slot(&self, r: usize, c: usize) -> Option<usize> {
        if r >= self.n {
            return None;
        }
        let start = self.row_ptr[r];
        self.row(r)
            .binary_search(&c)
            .ok()
            .map(|offset| start + offset)
    }

    /// Iterates all `(row, col, slot)` triples in CSR order.
    pub fn iter(&self) -> impl Iterator<Item = (usize, usize, usize)> + '_ {
        (0..self.n).flat_map(move |r| {
            (self.row_ptr[r]..self.row_ptr[r + 1]).map(move |s| (r, self.col_idx[s], s))
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dedups_and_sorts_positions() {
        let p =
            SparsityPattern::from_positions(3, &[(2, 0), (0, 1), (0, 0), (0, 1), (1, 2)]).unwrap();
        assert_eq!(p.n(), 3);
        assert_eq!(p.nnz(), 4);
        assert_eq!(p.row(0), &[0, 1]);
        assert_eq!(p.row(1), &[2]);
        assert_eq!(p.row(2), &[0]);
    }

    #[test]
    fn slot_lookup_matches_csr_order() {
        let p = SparsityPattern::from_positions(2, &[(0, 0), (0, 1), (1, 1)]).unwrap();
        assert_eq!(p.slot(0, 0), Some(0));
        assert_eq!(p.slot(0, 1), Some(1));
        assert_eq!(p.slot(1, 1), Some(2));
        assert_eq!(p.slot(1, 0), None);
        assert_eq!(p.slot(5, 0), None);
    }

    #[test]
    fn rejects_bad_inputs() {
        assert!(SparsityPattern::from_positions(0, &[]).is_err());
        assert!(SparsityPattern::from_positions(2, &[(2, 0)]).is_err());
    }

    #[test]
    fn iter_visits_slots_in_csr_order() {
        let p = SparsityPattern::from_positions(2, &[(1, 1), (0, 0)]).unwrap();
        let triples: Vec<_> = p.iter().collect();
        assert_eq!(triples, vec![(0, 0, 0), (1, 1, 1)]);
    }
}
