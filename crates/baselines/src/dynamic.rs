//! Sarawagi's dynamic bitmaps (§4).
//!
//! "If there are n different values in the attribute domain, they are
//! encoded onto n (log2 n)-bit continuous binary integers." — i.e. an
//! encoded bitmap index whose mapping is the trivial enumeration, with
//! no attention paid to the encoding (the paper's point: "the
//! significance of encoding was not discussed in dynamic bitmaps").
//! Implemented as a thin wrapper so experiments can show exactly what a
//! *well-chosen* encoding adds on top.

use crate::traits::SelectionIndex;
use ebi_core::index::{BuildOptions, EncodedBitmapIndex, QueryResult};
use ebi_core::mapping::Mapping;
use ebi_core::nulls::NullPolicy;
use ebi_storage::Cell;

/// An encoded bitmap index with the continuous-integer encoding.
#[derive(Debug, Clone)]
pub struct DynamicBitmapIndex {
    inner: EncodedBitmapIndex,
}

impl DynamicBitmapIndex {
    /// Builds with values enumerated in ascending order.
    ///
    /// # Panics
    ///
    /// Panics only on mapping-width overflow (> 2^63 distinct values).
    #[must_use]
    pub fn build<I: IntoIterator<Item = Cell>>(cells: I) -> Self {
        let cells: Vec<Cell> = cells.into_iter().collect();
        let mut distinct: Vec<u64> = cells.iter().filter_map(Cell::value).collect();
        distinct.sort_unstable();
        distinct.dedup();
        let mapping = Mapping::from_values(&distinct).expect("distinct values");
        let inner = EncodedBitmapIndex::build_with(
            cells,
            BuildOptions {
                policy: NullPolicy::SeparateVectors,
                mapping: Some(mapping),
            },
        )
        .expect("mapping covers the column");
        Self { inner }
    }

    /// The wrapped encoded bitmap index.
    #[must_use]
    pub fn inner(&self) -> &EncodedBitmapIndex {
        &self.inner
    }
}

impl SelectionIndex for DynamicBitmapIndex {
    fn name(&self) -> &'static str {
        "dynamic-bitmap"
    }

    fn rows(&self) -> usize {
        self.inner.rows()
    }

    fn eq(&self, value: u64) -> QueryResult {
        SelectionIndex::eq(&self.inner, value)
    }

    fn in_list(&self, values: &[u64]) -> QueryResult {
        SelectionIndex::in_list(&self.inner, values)
    }

    fn range(&self, lo: u64, hi: u64) -> QueryResult {
        SelectionIndex::range(&self.inner, lo, hi)
    }

    fn bitmap_vector_count(&self) -> usize {
        self.inner.bitmap_vector_count()
    }

    fn storage_bytes(&self) -> usize {
        self.inner.storage_bytes()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn continuous_enumeration_in_value_order() {
        let idx = DynamicBitmapIndex::build([30u64, 10, 20, 10].map(Cell::Value));
        assert_eq!(idx.inner().mapping().code_of(10), Some(0));
        assert_eq!(idx.inner().mapping().code_of(20), Some(1));
        assert_eq!(idx.inner().mapping().code_of(30), Some(2));
        assert!(idx.inner().mapping().is_total_order_preserving());
    }

    #[test]
    fn answers_match_the_generic_ebi() {
        let cells: Vec<Cell> = (0..500u64).map(|i| Cell::Value(i % 31)).collect();
        let idx = DynamicBitmapIndex::build(cells);
        let r = idx.in_list(&[3, 4, 5, 6]);
        let expect: Vec<usize> = (0..500)
            .filter(|&i| (3..=6).contains(&(i as u64 % 31)))
            .collect();
        assert_eq!(r.bitmap.to_positions(), expect);
        assert_eq!(idx.rows(), 500);
        assert_eq!(idx.bitmap_vector_count(), 5, "31 values -> 5 vectors");
    }

    #[test]
    fn range_uses_value_order() {
        let idx = DynamicBitmapIndex::build([5u64, 100, 60, 5].map(Cell::Value));
        assert_eq!(idx.range(5, 60).bitmap.to_positions(), vec![0, 2, 3]);
    }
}
