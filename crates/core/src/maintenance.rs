//! Index maintenance: appends, domain expansion, deletion (§2.2).
//!
//! * **Updates without domain expansion** — appending a tuple with a
//!   known value appends one bit to each of the `k` vectors: `O(h)`.
//! * **Updates with domain expansion** — Equation (1): if
//!   `ceil(log2 |A^(m-1)|) = ceil(log2 |A^(m)|)` a free code is assigned
//!   and only the mapping table grows (Figure 2(a)); otherwise a new
//!   bitmap vector `B_k` is added, zero for all existing tuples, and the
//!   retrieval functions implicitly gain a `B_k'` literal (Figure 2(b)).
//! * **Deletion** — under the reserved-code policy the row is recoded to
//!   the void code 0 (Theorem 2.1); under separate-vectors the row is
//!   marked in `B_NotExist`.
//!
//! An update of a row to a known value costs one binary search in the
//! mapping's value-ordered table, then one read-modify-write of the
//! row's word in each of the `k` dense vectors (and in `B_NULL` and
//! `B_NotExist` when they exist). No write branches on the bit it
//! stores, so the cost is the `k` scattered word accesses themselves.

use crate::error::CoreError;
use crate::index::EncodedBitmapIndex;
use crate::nulls::{NullPolicy, VOID_CODE};
use ebi_bitvec::BitVec;
use ebi_storage::Cell;

impl EncodedBitmapIndex {
    /// Appends one cell, expanding the domain if needed. Returns the new
    /// row id and whether a new bitmap vector was added.
    ///
    /// # Errors
    ///
    /// Propagates mapping errors (exhausted 63-bit code space).
    pub fn append(&mut self, cell: Cell) -> Result<AppendOutcome, CoreError> {
        let row = self.rows;
        let (code, added_slice) = self.code_for(&cell)?;
        let is_null = matches!(cell, Cell::Null) && self.policy == NullPolicy::SeparateVectors;
        if is_null {
            // B_NULL exists for the existing rows; it gets this row's bit
            // after the slices do.
            let rows = self.rows;
            let bn = self.b_null.get_or_insert_with(|| BitVec::zeros(rows));
            bn.grow(rows);
        }

        // Compressed containers are immutable: densify before mutating.
        // The slices then stay dense: `set_query_options` repacks only
        // when its policy differs from the current one, and
        // `refresh_summaries` rebuilds summaries, not containers.
        for (i, slice) in self.slices.iter_mut().enumerate() {
            slice.densify().push(code >> i & 1 == 1);
        }
        // Segment summaries are stale once slice bits change; drop them
        // rather than risk pruning live rows. `refresh_summaries`
        // rebuilds after a maintenance batch.
        self.summaries = None;
        if let Some(bn) = &mut self.b_null {
            bn.push(is_null);
        }
        if let Some(ne) = &mut self.b_not_exist {
            ne.push(false);
        }
        self.rows += 1;
        Ok(AppendOutcome { row, added_slice })
    }

    /// Deletes (voids) a row. The slot stays addressable; value queries
    /// no longer match it.
    ///
    /// # Errors
    ///
    /// [`CoreError::RowOutOfRange`] for bad rows.
    pub fn delete(&mut self, row: usize) -> Result<(), CoreError> {
        if row >= self.rows {
            return Err(CoreError::RowOutOfRange {
                row,
                rows: self.rows,
            });
        }
        match self.policy {
            NullPolicy::EncodedReserved => {
                // Recode the row to the void code (0): Theorem 2.1.
                for (i, slice) in self.slices.iter_mut().enumerate() {
                    slice.densify().set(row, VOID_CODE >> i & 1 == 1);
                }
                self.summaries = None;
                // A voided row is also no longer NULL.
                if let Some(bn) = &mut self.b_null {
                    bn.set(row, false);
                }
            }
            NullPolicy::SeparateVectors => {
                let rows = self.rows;
                let ne = self.b_not_exist.get_or_insert_with(|| BitVec::zeros(rows));
                ne.grow(rows);
                ne.set(row, true);
            }
        }
        Ok(())
    }

    /// Updates row `row` in place to `cell` — the UPDATE case the paper
    /// folds into delete + insert; recoding the `k` slice bits directly
    /// is `O(h)` and keeps the row id stable.
    ///
    /// # Errors
    ///
    /// [`CoreError::RowOutOfRange`] for bad rows; domain-expansion
    /// errors if the new value forces a width the mapping cannot grow
    /// to.
    pub fn update(&mut self, row: usize, cell: Cell) -> Result<(), CoreError> {
        if row >= self.rows {
            return Err(CoreError::RowOutOfRange {
                row,
                rows: self.rows,
            });
        }
        let (code, _) = self.code_for(&cell)?;
        for (i, slice) in self.slices.iter_mut().enumerate() {
            slice.densify().set(row, code >> i & 1 == 1);
        }
        self.summaries = None;
        // Maintain companions: the row is (no longer) NULL, and an
        // update resurrects a tombstoned slot.
        let is_null = matches!(cell, Cell::Null) && self.policy == NullPolicy::SeparateVectors;
        if is_null {
            let rows = self.rows;
            let bn = self.b_null.get_or_insert_with(|| BitVec::zeros(rows));
            bn.grow(rows);
            bn.set(row, true);
        } else if let Some(bn) = &mut self.b_null {
            bn.set(row, false);
        }
        if let Some(ne) = &mut self.b_not_exist {
            ne.set(row, false);
        }
        Ok(())
    }

    /// The code `cell` is written with, and whether resolving it added a
    /// bitmap vector: a known value's code (one lookup), a new value's
    /// admitted code, the reserved NULL code, or under separate vectors
    /// the placeholder 0 that `B_NULL` masks. Companions are the
    /// caller's.
    fn code_for(&mut self, cell: &Cell) -> Result<(u64, bool), CoreError> {
        match (*cell, self.policy) {
            (Cell::Value(v), _) => match self.mapping.code_of(v) {
                Some(code) => Ok((code, false)),
                None => {
                    let grew = self.admit_value(v)?;
                    Ok((self.mapping.code_of(v).expect("just admitted"), grew))
                }
            },
            (Cell::Null, NullPolicy::SeparateVectors) => Ok((0, false)),
            (Cell::Null, NullPolicy::EncodedReserved) => match self.null_code {
                Some(code) => Ok((code, false)),
                None => {
                    let grew = self.reserve_null_code()?;
                    Ok((self.null_code.expect("just reserved"), grew))
                }
            },
        }
    }

    /// Admits a new value to the domain, applying Equation (1): returns
    /// `true` if a new bitmap vector had to be added.
    ///
    /// # Errors
    ///
    /// Propagates mapping insertion failures.
    pub fn admit_value(&mut self, value: u64) -> Result<bool, CoreError> {
        if self.mapping.code_of(value).is_some() {
            return Ok(false);
        }
        let grew = self.ensure_free_code()?;
        let code = self
            .free_code()
            .expect("free code exists after ensure_free_code");
        self.mapping.insert(value, code)?;
        // A new assigned code shrinks the don't-care set: cached
        // reductions may now cover a live code.
        self.invalidate_code_space();
        Ok(grew)
    }

    /// Reserves a NULL code under [`NullPolicy::EncodedReserved`],
    /// expanding the width if the code space is full. Returns `true` if a
    /// vector was added.
    fn reserve_null_code(&mut self) -> Result<bool, CoreError> {
        let grew = self.ensure_free_code()?;
        let code = self
            .free_code()
            .expect("free code exists after ensure_free_code");
        self.reserved.push(code);
        self.null_code = Some(code);
        // The NULL code was a don't-care until now.
        self.invalidate_code_space();
        Ok(grew)
    }

    /// The smallest code unassigned and unreserved at the current width:
    /// the start of the first free run, not a probe of `2^k` codes.
    fn free_code(&self) -> Option<u64> {
        self.free_runs().first().map(|&(start, _)| start)
    }

    /// Ensures a free code exists, widening the mapping (and adding a
    /// zeroed bitmap vector — the Figure 2(b) step) when Equation (1)
    /// fails. Returns `true` if the width grew.
    fn ensure_free_code(&mut self) -> Result<bool, CoreError> {
        if self.free_code().is_some() {
            return Ok(false);
        }
        if self.mapping.width() >= 62 {
            return Err(CoreError::DomainFull {
                width: self.mapping.width(),
            });
        }
        self.mapping.widen();
        self.slices.push(BitVec::zeros(self.rows).into());
        self.invalidate_code_space(); // twice the codes, all new ones free
        self.summaries = None; // slice count changed
        Ok(true)
    }
}

/// What [`EncodedBitmapIndex::append`] did.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AppendOutcome {
    /// Physical row id of the appended tuple.
    pub row: usize,
    /// `true` if the append forced a new bitmap vector (Figure 2(b)).
    pub added_slice: bool,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::index::BuildOptions;

    fn base_index() -> EncodedBitmapIndex {
        // Figure 2's starting point: domain {a=0, b=1, c=2}, k=2.
        EncodedBitmapIndex::build([0u64, 1, 2].map(Cell::Value)).unwrap()
    }

    #[test]
    fn slice_mutations_leave_dense_slices_and_no_summaries() {
        use ebi_bitvec::StorageKind;
        // Skewed enough that the adaptive policy compresses some slices.
        let cells = (0..200_000u64).map(|i| Cell::Value(if i % 16 == 0 { i / 16 % 32 } else { 0 }));
        let built = EncodedBitmapIndex::build(cells).unwrap();
        let kinds = |idx: &EncodedBitmapIndex| -> Vec<StorageKind> {
            idx.slices().iter().map(|s| s.kind()).collect()
        };
        assert!(kinds(&built).contains(&StorageKind::Roaring));
        assert!(built.summaries().is_some());

        let appended = {
            let mut idx = built.clone();
            idx.append(Cell::Value(7)).unwrap();
            idx
        };
        let updated = {
            let mut idx = built;
            idx.update(3, Cell::Value(7)).unwrap();
            idx
        };
        for mut idx in [appended, updated] {
            assert!(kinds(&idx).iter().all(|k| *k == StorageKind::Dense));
            assert!(idx.summaries().is_none());
            let before = idx.eq(7).unwrap().bitmap;

            // Summaries come back; containers do not, and re-setting the
            // policy the index already has repacks nothing.
            idx.refresh_summaries();
            idx.set_query_options(idx.query_options());
            assert!(idx.summaries().is_some());
            assert!(kinds(&idx).iter().all(|k| *k == StorageKind::Dense));
            assert_eq!(idx.eq(7).unwrap().bitmap, before);
        }
    }

    #[test]
    fn run_stats_follow_maintenance() {
        let mut idx = EncodedBitmapIndex::build((0..1_000u64).map(|i| Cell::Value(i % 5))).unwrap();
        idx.update(3, Cell::Value(4)).unwrap();
        for i in 0..64u64 {
            idx.append(Cell::Value(i % 7)).unwrap();
        }
        let mut folded = ebi_bitvec::RunStats::default();
        for s in idx.slices() {
            folded.merge(&s.run_stats());
        }
        assert_eq!(idx.run_stats(), folded);
    }

    #[test]
    fn append_known_value_is_o_h() {
        let mut idx = base_index();
        let out = idx.append(Cell::Value(1)).unwrap();
        assert_eq!(out.row, 3);
        assert!(!out.added_slice);
        assert_eq!(idx.rows(), 4);
        assert_eq!(idx.eq(1).unwrap().bitmap.to_positions(), vec![1, 3]);
    }

    #[test]
    fn figure2a_expansion_without_new_vector() {
        // Appending d: |A| goes 3 -> 4, ceil(log2) stays 2 (Equation 1
        // holds), so d gets the free code 11 and no vector is added.
        let mut idx = base_index();
        let out = idx.append(Cell::Value(3)).unwrap();
        assert!(!out.added_slice);
        assert_eq!(idx.width(), 2);
        assert_eq!(idx.mapping().code_of(3), Some(0b11));
        assert_eq!(idx.eq(3).unwrap().bitmap.to_positions(), vec![3]);
    }

    #[test]
    fn figure2b_expansion_with_new_vector() {
        // Appending d then e: |A| goes to 5, ceil(log2 5) = 3 > 2, so B2
        // is added, zero for all existing tuples.
        let mut idx = base_index();
        idx.append(Cell::Value(3)).unwrap();
        let out = idx.append(Cell::Value(4)).unwrap();
        assert!(out.added_slice);
        assert_eq!(idx.width(), 3);
        assert_eq!(idx.slices().len(), 3);
        assert_eq!(idx.mapping().code_of(4), Some(0b100));
        // Existing tuples all have B2 = 0.
        assert_eq!(idx.slices()[2].to_dense().to_positions(), vec![4]);
        // Old values still retrieve correctly: f_a gained the B2' literal.
        let r = idx.eq(0).unwrap();
        assert_eq!(r.bitmap.to_positions(), vec![0]);
        assert_eq!(r.expression, "B2'B1'B0'");
        // And e retrieves with f_e = B2 B1' B0'.
        assert_eq!(idx.eq(4).unwrap().bitmap.to_positions(), vec![4]);
    }

    #[test]
    fn delete_under_separate_vectors_masks_rows() {
        let mut idx = base_index();
        idx.delete(1).unwrap();
        assert_eq!(idx.bitmap_vector_count(), 3, "B_NotExist appeared");
        let r = idx.eq(1).unwrap();
        assert_eq!(r.bitmap.count_ones(), 0);
        assert!(r.expression.contains("B_NotExist'"));
        assert_eq!(idx.decode_row(1), None);
        assert!(idx.delete(10).is_err());
    }

    #[test]
    fn delete_under_encoded_reserved_recodes_to_void() {
        let mut idx = EncodedBitmapIndex::build_with(
            [0u64, 1, 2].map(Cell::Value),
            BuildOptions {
                policy: NullPolicy::EncodedReserved,
                mapping: None,
            },
        )
        .unwrap();
        idx.delete(1).unwrap();
        assert_eq!(idx.bitmap_vector_count(), 2, "no companion vector");
        let r = idx.eq(1).unwrap();
        assert_eq!(r.bitmap.count_ones(), 0, "deleted row gone");
        assert!(!r.expression.contains("NotExist"), "Theorem 2.1");
        assert_eq!(idx.decode_row(1), None);
        // Other rows unaffected.
        assert_eq!(idx.eq(0).unwrap().bitmap.to_positions(), vec![0]);
        assert_eq!(idx.eq(2).unwrap().bitmap.to_positions(), vec![2]);
    }

    #[test]
    fn append_null_lazily_creates_or_reserves() {
        // SeparateVectors: B_NULL appears on first NULL append.
        let mut idx = base_index();
        assert_eq!(idx.bitmap_vector_count(), 2);
        idx.append(Cell::Null).unwrap();
        assert_eq!(idx.bitmap_vector_count(), 3);
        assert_eq!(idx.is_null().bitmap.to_positions(), vec![3]);
        // Value queries exclude the NULL row despite its placeholder code.
        assert_eq!(idx.eq(0).unwrap().bitmap.to_positions(), vec![0]);

        // EncodedReserved: a NULL code is reserved; here the domain
        // {void,a,b,c} is full at k=2 so the width must grow.
        let mut idx2 = EncodedBitmapIndex::build_with(
            [0u64, 1, 2].map(Cell::Value),
            BuildOptions {
                policy: NullPolicy::EncodedReserved,
                mapping: None,
            },
        )
        .unwrap();
        let out = idx2.append(Cell::Null).unwrap();
        assert!(out.added_slice, "code space was full");
        assert_eq!(idx2.width(), 3);
        assert_eq!(idx2.is_null().bitmap.to_positions(), vec![3]);
    }

    #[test]
    fn long_append_sequence_stays_consistent() {
        let mut idx = EncodedBitmapIndex::build(Vec::<Cell>::new()).unwrap();
        let mut expected: Vec<u64> = Vec::new();
        for i in 0..200u64 {
            let v = i % 37;
            idx.append(Cell::Value(v)).unwrap();
            expected.push(v);
        }
        assert_eq!(idx.width(), 6, "37 values -> 6 vectors");
        for v in 0..37u64 {
            let rows: Vec<usize> = expected
                .iter()
                .enumerate()
                .filter(|(_, &x)| x == v)
                .map(|(i, _)| i)
                .collect();
            assert_eq!(idx.eq(v).unwrap().bitmap.to_positions(), rows, "v={v}");
        }
    }

    #[test]
    fn update_in_place_recodes_the_row() {
        let mut idx = base_index();
        idx.update(1, Cell::Value(2)).unwrap();
        assert_eq!(idx.eq(1).unwrap().bitmap.count_ones(), 0);
        assert_eq!(idx.eq(2).unwrap().bitmap.to_positions(), vec![1, 2]);
        // Update to a brand-new value triggers expansion if needed.
        idx.update(0, Cell::Value(9)).unwrap();
        assert_eq!(idx.eq(9).unwrap().bitmap.to_positions(), vec![0]);
        assert!(idx.update(99, Cell::Value(0)).is_err());
    }

    #[test]
    fn update_handles_null_transitions() {
        let mut idx = base_index();
        idx.update(1, Cell::Null).unwrap();
        assert_eq!(idx.is_null().bitmap.to_positions(), vec![1]);
        assert_eq!(idx.eq(1).unwrap().bitmap.count_ones(), 0);
        idx.update(1, Cell::Value(1)).unwrap();
        assert_eq!(idx.is_null().bitmap.count_ones(), 0);
        assert_eq!(idx.eq(1).unwrap().bitmap.to_positions(), vec![1]);
        // Same round trip under the reserved policy.
        let mut res = EncodedBitmapIndex::build_with(
            [0u64, 1, 2].map(Cell::Value),
            BuildOptions {
                policy: NullPolicy::EncodedReserved,
                mapping: None,
            },
        )
        .unwrap();
        res.update(2, Cell::Null).unwrap();
        assert_eq!(res.is_null().bitmap.to_positions(), vec![2]);
        res.update(2, Cell::Value(0)).unwrap();
        assert_eq!(res.eq(0).unwrap().bitmap.to_positions(), vec![0, 2]);
    }

    #[test]
    fn update_resurrects_deleted_rows() {
        let mut idx = base_index();
        idx.delete(0).unwrap();
        assert_eq!(idx.eq(0).unwrap().bitmap.count_ones(), 0);
        idx.update(0, Cell::Value(2)).unwrap();
        assert_eq!(idx.eq(2).unwrap().bitmap.to_positions(), vec![0, 2]);
        assert_eq!(idx.decode_row(0), Some(2));
    }

    #[test]
    fn negation_queries_respect_nulls_and_deletes() {
        let cells = vec![
            Cell::Value(0),
            Cell::Null,
            Cell::Value(1),
            Cell::Value(2),
            Cell::Value(0),
        ];
        let mut idx = EncodedBitmapIndex::build(cells).unwrap();
        idx.delete(4).unwrap();
        let r = idx.neq(0).unwrap();
        assert_eq!(r.bitmap.to_positions(), vec![2, 3], "no NULLs, no deleted");
        let r2 = idx.not_in_list(&[1, 2]).unwrap();
        assert_eq!(r2.bitmap.to_positions(), vec![0]);
        let all = idx.not_in_list(&[]).unwrap();
        assert_eq!(all.bitmap.to_positions(), vec![0, 2, 3]);
    }

    #[test]
    fn admitted_values_keep_or_break_the_code_order_and_reads_stay_exact() {
        let rows_of =
            |idx: &EncodedBitmapIndex, lo, hi| idx.range(lo, hi).unwrap().bitmap.to_positions();
        // Values 10, 20, 30, 40, 50 on codes 0..=4 of k = 3.
        let mut idx = EncodedBitmapIndex::build([10u64, 20, 30, 40, 50].map(Cell::Value)).unwrap();
        // Above the maximum: the next code, and order survives.
        idx.append(Cell::Value(60)).unwrap();
        assert_eq!(idx.mapping().code_of(60), Some(5));
        assert!(idx.mapping().is_total_order_preserving());
        assert_eq!(idx.range(50, 60).unwrap().expression, "B2");
        // Inside the domain: still the smallest free code, so the ranges
        // that span 25 are no code intervals any more. They fall back
        // to Quine–McCluskey and select the same rows.
        idx.append(Cell::Value(25)).unwrap();
        assert_eq!(idx.mapping().code_of(25), Some(6));
        assert!(!idx.mapping().is_total_order_preserving());
        assert_eq!(rows_of(&idx, 20, 30), vec![1, 2, 6]);
        assert_eq!(
            rows_of(&idx, 30, 50),
            vec![2, 3, 4],
            "no admitted value inside"
        );
        assert_eq!(rows_of(&idx, 0, 100), (0..7).collect::<Vec<_>>());
    }

    #[test]
    fn a_range_across_a_null_code_reserved_late_selects_no_null_row() {
        // Built without a NULL: 0 = void, values on 1..=5 of k = 3.
        let mut idx = EncodedBitmapIndex::build_with(
            [10u64, 20, 30, 40, 50].map(Cell::Value),
            BuildOptions {
                policy: NullPolicy::EncodedReserved,
                ..Default::default()
            },
        )
        .unwrap();
        // The first NULL takes code 6, the value admitted after it 7:
        // codes 5..=7 of `50 <= A <= 60` hold the NULL code, which is no
        // don't-care. Covering them as an interval would be B2·(B1 + B0)
        // and select row 5.
        idx.append(Cell::Null).unwrap();
        idx.append(Cell::Value(60)).unwrap();
        assert_eq!(idx.null_code, Some(6));
        assert_eq!(idx.mapping().code_of(60), Some(7));
        assert_eq!(idx.range(50, 60).unwrap().bitmap.to_positions(), vec![4, 6]);
        assert_eq!(
            idx.range(0, 100).unwrap().bitmap.to_positions(),
            vec![0, 1, 2, 3, 4, 6]
        );
        assert_eq!(
            idx.range(10, 50).unwrap().bitmap.to_positions(),
            vec![0, 1, 2, 3, 4]
        );
        assert_eq!(idx.is_null().bitmap.to_positions(), vec![5]);
    }

    #[test]
    fn deleted_rows_stay_dead_after_expansion() {
        let mut idx = EncodedBitmapIndex::build_with(
            [0u64, 1, 2].map(Cell::Value),
            BuildOptions {
                policy: NullPolicy::EncodedReserved,
                mapping: None,
            },
        )
        .unwrap();
        idx.delete(0).unwrap();
        // Force a width expansion.
        idx.append(Cell::Value(3)).unwrap();
        idx.append(Cell::Value(4)).unwrap();
        assert_eq!(idx.width(), 3);
        // Row 0 must still be invisible to every value query.
        for v in 0..5u64 {
            assert!(
                !idx.eq(v).unwrap().bitmap.get(0).unwrap_or(false),
                "deleted row resurfaced for v={v}"
            );
        }
    }
}
