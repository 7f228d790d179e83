//! Non-binary-base bit-sliced indexing (§4: "bit-sliced indexing with
//! non-binary base was also introduced in [11]").
//!
//! The value is decomposed in base `b`: `v = Σ d_i · b^i`, and each
//! digit `d_i` gets its own family of `b` *equality-encoded* bitmap
//! vectors (one per digit value). This interpolates between the paper's
//! two poles:
//!
//! * `b = 2` → one vector per digit — the binary bit-sliced index;
//! * `b ≥ m` → a single digit — the simple bitmap index.
//!
//! Equality touches one vector per component (`c = #components`); a
//! range `[lo, hi]` is evaluated digit-wise from the most significant
//! component down (border digits recurse, interior digit values OR).
//! Space is `b · ceil(log_b m)` vectors — minimised around `b ≈ e`,
//! which is why low bases win space while high bases win point-query
//! cost: the classic space/time knob the paper's Figure 10 brackets.

use crate::traits::SelectionIndex;
use ebi_bitvec::BitVec;
use ebi_core::index::QueryResult;
use ebi_obs::CostCounters;
use ebi_storage::Cell;

/// Equality-encoded multi-component (base-`b`) bitmap index.
#[derive(Debug, Clone)]
pub struct MultiComponentIndex {
    base: u64,
    /// `vectors[c][d]` = bitmap of rows whose component `c` digit is `d`
    /// (component 0 = least significant).
    vectors: Vec<Vec<BitVec>>,
    rows: usize,
    max_value: u64,
    b_null: Option<BitVec>,
}

impl MultiComponentIndex {
    /// Builds with base `b >= 2`. The component count covers the largest
    /// observed value.
    ///
    /// # Panics
    ///
    /// Panics if `base < 2`.
    #[must_use]
    pub fn build<I: IntoIterator<Item = Cell>>(cells: I, base: u64) -> Self {
        assert!(base >= 2, "base must be at least 2");
        let cells: Vec<Cell> = cells.into_iter().collect();
        let rows = cells.len();
        let max_value = cells.iter().filter_map(Cell::value).max().unwrap_or(0);
        let mut components = 1usize;
        let mut span = base;
        while span <= max_value {
            components += 1;
            span = span.saturating_mul(base);
        }
        let mut vectors = vec![vec![BitVec::zeros(rows); base as usize]; components];
        let mut b_null: Option<BitVec> = None;
        for (row, cell) in cells.iter().enumerate() {
            match cell.value() {
                Some(mut v) => {
                    for comp in &mut vectors {
                        comp[(v % base) as usize].set(row, true);
                        v /= base;
                    }
                }
                None => {
                    b_null
                        .get_or_insert_with(|| BitVec::zeros(rows))
                        .set(row, true);
                }
            }
        }
        Self {
            base,
            vectors,
            rows,
            max_value,
            b_null,
        }
    }

    /// The base `b`.
    #[must_use]
    pub fn base(&self) -> u64 {
        self.base
    }

    /// Number of components (digits).
    #[must_use]
    pub fn components(&self) -> usize {
        self.vectors.len()
    }

    /// Digits of `v`, least significant first, padded to the component
    /// count.
    fn digits(&self, mut v: u64) -> Vec<u64> {
        (0..self.components())
            .map(|_| {
                let d = v % self.base;
                v /= self.base;
                d
            })
            .collect()
    }

    /// Equality bitmap: AND of one vector per component.
    fn eq_bitmap(&self, v: u64, accessed: &mut usize) -> BitVec {
        if v > self.max_value {
            return BitVec::zeros(self.rows);
        }
        let mut result: Option<BitVec> = None;
        for (comp, &d) in self.vectors.iter().zip(self.digits(v).iter()) {
            *accessed += 1;
            let vec = &comp[d as usize];
            match &mut result {
                None => result = Some(vec.clone()),
                Some(r) => r.and_assign(vec),
            }
        }
        result.unwrap_or_else(|| BitVec::zeros(self.rows))
    }

    /// `value <= hi` on the top `comp+1` components, recursing MSB-first.
    fn le_bitmap(&self, comp: usize, hi: u64, accessed: &mut usize) -> BitVec {
        let comp_digits = self.digits(hi);
        let d = comp_digits[comp] as usize;
        let family = &self.vectors[comp];
        // Digits strictly below d qualify outright.
        let mut below = BitVec::zeros(self.rows);
        for vec in family.iter().take(d) {
            *accessed += 1;
            below.or_assign(vec);
        }
        // Digit == d: qualified by the lower components.
        *accessed += 1;
        let mut at = family[d].clone();
        if comp > 0 {
            let lower = self.le_bitmap(comp - 1, hi, accessed);
            at.and_assign(&lower);
        }
        below.or_assign(&at);
        below
    }

    /// `value >= lo` on the top `comp+1` components.
    fn ge_bitmap(&self, comp: usize, lo: u64, accessed: &mut usize) -> BitVec {
        let comp_digits = self.digits(lo);
        let d = comp_digits[comp] as usize;
        let family = &self.vectors[comp];
        let mut above = BitVec::zeros(self.rows);
        for vec in family.iter().skip(d + 1) {
            *accessed += 1;
            above.or_assign(vec);
        }
        *accessed += 1;
        let mut at = family[d].clone();
        if comp > 0 {
            let lower = self.ge_bitmap(comp - 1, lo, accessed);
            at.and_assign(&lower);
        }
        above.or_assign(&at);
        above
    }
}

impl SelectionIndex for MultiComponentIndex {
    fn name(&self) -> &'static str {
        "multi-component"
    }

    fn rows(&self) -> usize {
        self.rows
    }

    fn eq(&self, value: u64) -> QueryResult {
        let mut accessed = 0usize;
        let bitmap = self.eq_bitmap(value, &mut accessed);
        QueryResult {
            bitmap,
            stats: CostCounters {
                vectors_accessed: accessed as u64,
                literal_ops: accessed.saturating_sub(1) as u64,
                cube_evals: 1,
                ..CostCounters::default()
            },
            expression: format!("base{}-eq({value})", self.base),
        }
    }

    fn in_list(&self, values: &[u64]) -> QueryResult {
        let mut accessed = 0usize;
        let mut result = BitVec::zeros(self.rows);
        let mut sorted = values.to_vec();
        sorted.sort_unstable();
        sorted.dedup();
        for &v in &sorted {
            result.or_assign(&self.eq_bitmap(v, &mut accessed));
        }
        QueryResult {
            bitmap: result,
            stats: CostCounters {
                vectors_accessed: accessed as u64,
                literal_ops: accessed as u64,
                cube_evals: sorted.len() as u64,
                ..CostCounters::default()
            },
            expression: format!("base{}-in({})", self.base, sorted.len()),
        }
    }

    fn range(&self, lo: u64, hi: u64) -> QueryResult {
        let mut accessed = 0usize;
        let bitmap = if lo > hi {
            BitVec::zeros(self.rows)
        } else {
            let top = self.components() - 1;
            let hi_cl = hi.min(self.max_value);
            if lo > hi_cl {
                BitVec::zeros(self.rows)
            } else {
                let mut b = self.le_bitmap(top, hi_cl, &mut accessed);
                b.and_assign(&self.ge_bitmap(top, lo, &mut accessed));
                b
            }
        };
        QueryResult {
            bitmap,
            stats: CostCounters {
                vectors_accessed: accessed as u64,
                literal_ops: accessed as u64,
                cube_evals: 2,
                ..CostCounters::default()
            },
            expression: format!("base{}-range({lo},{hi})", self.base),
        }
    }

    fn bitmap_vector_count(&self) -> usize {
        self.vectors.iter().map(Vec::len).sum::<usize>() + usize::from(self.b_null.is_some())
    }

    fn storage_bytes(&self) -> usize {
        self.vectors
            .iter()
            .flatten()
            .chain(self.b_null.iter())
            .map(BitVec::storage_bytes)
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn column() -> Vec<u64> {
        (0..3000u64).map(|i| (i * 7717) % 900).collect()
    }

    #[test]
    fn component_counts_interpolate_the_extremes() {
        let col: Vec<Cell> = column().into_iter().map(Cell::Value).collect();
        // base 2 over values < 900: 10 components × 2 vectors = 20.
        let b2 = MultiComponentIndex::build(col.iter().copied(), 2);
        assert_eq!(b2.components(), 10);
        assert_eq!(b2.bitmap_vector_count(), 20);
        // base 30: 2 components × 30 = 60 vectors.
        let b30 = MultiComponentIndex::build(col.iter().copied(), 30);
        assert_eq!(b30.components(), 2);
        assert_eq!(b30.bitmap_vector_count(), 60);
        // base 1024 ≥ m: the simple-bitmap pole, eq reads one vector.
        let b1024 = MultiComponentIndex::build(col.iter().copied(), 1024);
        assert_eq!(b1024.components(), 1);
        assert_eq!(SelectionIndex::eq(&b1024, 17).stats.vectors_accessed, 1);
    }

    #[test]
    fn queries_match_scans_across_bases() {
        let raw = column();
        let col: Vec<Cell> = raw.iter().map(|&v| Cell::Value(v)).collect();
        for base in [2u64, 4, 10, 30, 1000] {
            let idx = MultiComponentIndex::build(col.iter().copied(), base);
            // Point query.
            let r = SelectionIndex::eq(&idx, raw[42]);
            let expect: Vec<usize> = raw
                .iter()
                .enumerate()
                .filter(|&(_, &v)| v == raw[42])
                .map(|(i, _)| i)
                .collect();
            assert_eq!(r.bitmap.to_positions(), expect, "base {base} eq");
            // Ranges, incl. degenerate / clipped ones.
            for (lo, hi) in [(0u64, 899u64), (100, 400), (250, 250), (880, 5000), (9, 3)] {
                let r = idx.range(lo, hi);
                let expect: Vec<usize> = raw
                    .iter()
                    .enumerate()
                    .filter(|&(_, &v)| v >= lo && v <= hi)
                    .map(|(i, _)| i)
                    .collect();
                assert_eq!(r.bitmap.to_positions(), expect, "base {base} [{lo},{hi}]");
            }
            // IN-list.
            let r = idx.in_list(&[raw[0], raw[1], 9999]);
            let expect: Vec<usize> = raw
                .iter()
                .enumerate()
                .filter(|&(_, &v)| v == raw[0] || v == raw[1])
                .map(|(i, _)| i)
                .collect();
            assert_eq!(r.bitmap.to_positions(), expect, "base {base} in");
        }
    }

    #[test]
    fn point_cost_is_component_count() {
        let col: Vec<Cell> = column().into_iter().map(Cell::Value).collect();
        for base in [2u64, 10, 30] {
            let idx = MultiComponentIndex::build(col.iter().copied(), base);
            let r = SelectionIndex::eq(&idx, 123);
            assert_eq!(
                r.stats.vectors_accessed,
                idx.components() as u64,
                "base {base}: one vector per component"
            );
        }
    }

    #[test]
    fn space_time_tradeoff_shape() {
        // Higher base ⇒ fewer vectors per point query, more total
        // vectors; exactly the knob between the paper's two poles.
        let col: Vec<Cell> = column().into_iter().map(Cell::Value).collect();
        let b2 = MultiComponentIndex::build(col.iter().copied(), 2);
        let b30 = MultiComponentIndex::build(col.iter().copied(), 30);
        assert!(
            SelectionIndex::eq(&b30, 5).stats.vectors_accessed
                < SelectionIndex::eq(&b2, 5).stats.vectors_accessed
        );
        assert!(SelectionIndex::storage_bytes(&b30) > SelectionIndex::storage_bytes(&b2));
    }

    #[test]
    fn nulls_are_never_selected() {
        let cells = vec![Cell::Value(0), Cell::Null, Cell::Value(5)];
        let idx = MultiComponentIndex::build(cells, 4);
        assert_eq!(SelectionIndex::eq(&idx, 0).bitmap.to_positions(), vec![0]);
        assert_eq!(idx.range(0, 10).bitmap.to_positions(), vec![0, 2]);
        assert_eq!(idx.bitmap_vector_count(), 4 * 2 + 1);
    }
}
