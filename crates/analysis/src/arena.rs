//! Flat arena storage for the analysis pipeline's retained structures.
//!
//! [`SegmentedTrace`](crate::segments::SegmentedTrace) used to keep its
//! segments and dependence indices as `Vec<Vec<_>>` — one heap block per
//! thread and per lock, built by per-event `push` calls. At fleet trace
//! sizes that is thousands of small allocations whose headers and slack
//! dominate cache behaviour during the critical-path walk. The two types
//! here replace that layout with arena-style storage:
//!
//! * [`SlabArena`] — many variable-length lists packed into one flat
//!   slab, addressed by contiguous spans (one allocation for the values,
//!   one for the span table);
//! * [`CsrIndex`] — the classic compressed-sparse-row construction
//!   (count → prefix-sum → fill) for values grouped by a dense key, built
//!   through [`CsrBuilder`].
//!
//! Both are self-contained (they own their slab), so holding one imposes
//! no lifetime on the surrounding API, and lookups hand out plain
//! `&[T]` slices into the slab.

/// Variable-length lists packed back-to-back in one flat slab.
#[derive(Debug, Clone, Default)]
pub struct SlabArena<T> {
    values: Vec<T>,
    /// `spans[i]..spans[i + 1]` is list `i`; always `num_lists + 1` long.
    spans: Vec<usize>,
}

impl<T> SlabArena<T> {
    /// Pack `lists` into a slab, preserving list order and contents.
    pub fn from_lists(lists: Vec<Vec<T>>) -> Self {
        let mut spans = Vec::with_capacity(lists.len() + 1);
        spans.push(0);
        let total = lists.iter().map(Vec::len).sum();
        let mut values = Vec::with_capacity(total);
        for list in lists {
            values.extend(list);
            spans.push(values.len());
        }
        SlabArena { values, spans }
    }

    /// Number of lists.
    pub fn num_lists(&self) -> usize {
        self.spans.len() - 1
    }

    /// Total values across all lists.
    pub fn total(&self) -> usize {
        self.values.len()
    }

    /// List `i` as a slice; empty for out-of-range `i`.
    pub fn list(&self, i: usize) -> &[T] {
        match self.spans.get(i).zip(self.spans.get(i + 1)) {
            Some((&lo, &hi)) => &self.values[lo..hi],
            None => &[],
        }
    }

    /// Iterate the lists in order.
    pub fn iter_lists(&self) -> impl Iterator<Item = &[T]> + '_ {
        (0..self.num_lists()).map(move |i| self.list(i))
    }
}

/// Values grouped by a dense row key, in compressed-sparse-row layout.
#[derive(Debug, Clone)]
pub struct CsrIndex<T> {
    values: Vec<T>,
    /// `offsets[r]..offsets[r + 1]` is row `r`; always `num_rows + 1` long.
    offsets: Vec<usize>,
}

impl<T> CsrIndex<T> {
    /// Number of rows.
    pub fn num_rows(&self) -> usize {
        self.offsets.len().saturating_sub(1)
    }

    /// Row `r` as a slice; empty for out-of-range `r`.
    pub fn row(&self, r: usize) -> &[T] {
        match self.offsets.get(r).zip(self.offsets.get(r + 1)) {
            Some((&lo, &hi)) => &self.values[lo..hi],
            None => &[],
        }
    }

    /// Row `r` as a mutable slice (e.g. to sort it in place after fill).
    pub fn row_mut(&mut self, r: usize) -> &mut [T] {
        match self.offsets.get(r).zip(self.offsets.get(r + 1)) {
            Some((&lo, &hi)) => &mut self.values[lo..hi],
            None => &mut [],
        }
    }
}

/// Two-phase CSR construction: size the rows up front (`counts`), then
/// [`push`](Self::push) exactly that many values per row in any order;
/// within a row, values land in push order.
#[derive(Debug)]
pub struct CsrBuilder<T> {
    values: Vec<T>,
    offsets: Vec<usize>,
    cursor: Vec<usize>,
}

impl<T: Copy + Default> CsrBuilder<T> {
    /// Start a CSR fill for rows sized by `counts`.
    pub fn new(counts: &[usize]) -> Self {
        let mut offsets = Vec::with_capacity(counts.len() + 1);
        let mut total = 0usize;
        offsets.push(0);
        for &c in counts {
            total += c;
            offsets.push(total);
        }
        let cursor = offsets[..counts.len()].to_vec();
        CsrBuilder { values: vec![T::default(); total], offsets, cursor }
    }

    /// Place `value` in the next slot of `row`.
    ///
    /// # Panics
    /// If `row` is out of range or already received its declared count.
    pub fn push(&mut self, row: usize, value: T) {
        let at = self.cursor[row];
        debug_assert!(at < self.offsets[row + 1], "row {row} overfilled");
        self.values[at] = value;
        self.cursor[row] = at + 1;
    }

    /// Finish the fill.
    ///
    /// Every row must have received exactly its declared count (checked
    /// in debug builds).
    pub fn finish(self) -> CsrIndex<T> {
        debug_assert!(
            self.cursor.iter().zip(&self.offsets[1..]).all(|(c, o)| c == o),
            "CSR rows underfilled"
        );
        CsrIndex { values: self.values, offsets: self.offsets }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn slab_preserves_lists() {
        let arena = SlabArena::from_lists(vec![vec![1, 2], vec![], vec![3]]);
        assert_eq!(arena.num_lists(), 3);
        assert_eq!(arena.total(), 3);
        assert_eq!(arena.list(0), &[1, 2]);
        assert_eq!(arena.list(1), &[] as &[i32]);
        assert_eq!(arena.list(2), &[3]);
        assert_eq!(arena.list(7), &[] as &[i32]);
        let flat: Vec<i32> = arena.iter_lists().flatten().copied().collect();
        assert_eq!(flat, vec![1, 2, 3]);
    }

    #[test]
    fn csr_groups_by_row() {
        let mut b = CsrBuilder::new(&[2, 0, 1]);
        b.push(2, 30);
        b.push(0, 10);
        b.push(0, 11);
        let mut csr = b.finish();
        assert_eq!(csr.num_rows(), 3);
        assert_eq!(csr.row(0), &[10, 11]);
        assert_eq!(csr.row(1), &[] as &[i32]);
        assert_eq!(csr.row(2), &[30]);
        assert_eq!(csr.row(9), &[] as &[i32]);
        csr.row_mut(0).reverse();
        assert_eq!(csr.row(0), &[11, 10]);
    }
}
