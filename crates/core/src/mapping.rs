//! The mapping table `M^A : A → {<b_{k-1} … b_0>}` of Definition 2.1.
//!
//! The table is held twice, as two flat sorted arrays of pairs: one in
//! value order, one in code order. A lookup either way is one binary
//! search over contiguous memory (13 probes at m = 8 160, no pointer
//! chase), and every ordered read is a slice of one array:
//! `values_between`, `iter`, `is_total_order_preserving` and the
//! serialised image read the value-ordered one, `free_runs` and
//! `assigned_between` the code-ordered one. An insert shifts the tail of
//! both arrays; it shifts nothing when the key lands at the end, which is
//! where value-ordered builders and an admission above the maximum put
//! it. The bulk constructors sort once: `O(m log m)` in any input order.

use crate::error::CoreError;
use ebi_bitvec::serial::ByteReader;
use ebi_storage::Cell;
use std::collections::HashSet;

/// A one-to-one mapping from value ids to `k`-bit codes.
///
/// This is the paper's *mapping table*: the component that turns a simple
/// bitmap index into an encoded one, and the object every encoding
/// strategy (Gray, hierarchy, total-order, range-based, …) produces.
///
/// Values are dictionary ids (`u64`); translating strings/dates to ids is
/// the warehouse layer's job.
///
/// ```
/// use ebi_core::Mapping;
///
/// // Figure 1: {a, b, c} as ids 0..3 on 2-bit codes.
/// let m = Mapping::sequential(3);
/// assert_eq!(m.width(), 2);
/// assert_eq!(m.code_of(1), Some(0b01));
/// // Code 11 is unassigned: the don't-care of footnote 3.
/// assert_eq!(m.unassigned_codes(), vec![0b11]);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Mapping {
    width: u32,
    /// `(value, code)`, ascending by value.
    by_value: Vec<(u64, u64)>,
    /// `(code, value)`, ascending by code.
    by_code: Vec<(u64, u64)>,
}

impl Mapping {
    /// An empty mapping of the given code width.
    ///
    /// # Panics
    ///
    /// Panics if `width > 63`.
    #[must_use]
    pub fn new(width: u32) -> Self {
        assert!(width <= 63, "mapping width {width} exceeds 63 bits");
        Self {
            width,
            by_value: Vec::new(),
            by_code: Vec::new(),
        }
    }

    /// A mapping of the given width from `(value, code)` pairs in any
    /// order: one sort per table, then a check of neighbours for a
    /// repeated value or code.
    ///
    /// # Errors
    ///
    /// [`CoreError::InvalidCode`] on a code that does not fit `width`, or
    /// on duplicate values or codes.
    ///
    /// # Panics
    ///
    /// Panics if `width > 63`.
    pub(crate) fn with_pairs(width: u32, mut by_value: Vec<(u64, u64)>) -> Result<Self, CoreError> {
        let empty = Self::new(width);
        if let Some(&(_, code)) = by_value.iter().find(|&&(_, c)| c >> width != 0) {
            return Err(too_wide(code, width));
        }
        by_value.sort_unstable();
        if let Some(w) = by_value.windows(2).find(|w| w[0].0 == w[1].0) {
            return Err(value_taken(w[0].0));
        }
        let mut by_code: Vec<(u64, u64)> = by_value.iter().map(|&(v, c)| (c, v)).collect();
        by_code.sort_unstable();
        if let Some(w) = by_code.windows(2).find(|w| w[0].0 == w[1].0) {
            return Err(code_taken(w[0].0));
        }
        Ok(Self {
            by_value,
            by_code,
            ..empty
        })
    }

    /// The minimal width for a domain of `m` values: `ceil(log2 m)`,
    /// with a floor of 1.
    #[must_use]
    pub fn width_for(m: usize) -> u32 {
        match m {
            0..=2 => 1,
            _ => (m as u64 - 1).ilog2() + 1,
        }
    }

    /// Sequential mapping `value i ↦ code i` for values `0..m` — the
    /// *dynamic bitmap* encoding of Sarawagi (§4), also the default
    /// build-time encoding.
    #[must_use]
    pub fn sequential(m: usize) -> Self {
        let pairs = (0..m as u64).map(|v| (v, v)).collect();
        Self::with_pairs(Self::width_for(m), pairs).expect("sequential codes are unique and fit")
    }

    /// Sequential mapping over an explicit value list (first value gets
    /// code 0, and so on).
    ///
    /// # Errors
    ///
    /// [`CoreError::InvalidCode`] if `values` contains duplicates.
    pub fn from_values(values: &[u64]) -> Result<Self, CoreError> {
        let pairs = values.iter().zip(0..).map(|(&v, c)| (v, c)).collect();
        Self::with_pairs(Self::width_for(values.len()), pairs)
    }

    /// Builds from explicit `(value, code)` pairs, inferring the width
    /// from the largest code.
    ///
    /// # Errors
    ///
    /// [`CoreError::InvalidCode`] on duplicate values or codes.
    pub fn from_pairs(pairs: &[(u64, u64)]) -> Result<Self, CoreError> {
        let max_code = pairs.iter().map(|&(_, c)| c).max().unwrap_or(0);
        let width = Self::width_for((max_code + 1) as usize).max(1);
        Self::with_pairs(width, pairs.to_vec())
    }

    /// Inserts `value ↦ code`.
    ///
    /// # Errors
    ///
    /// [`CoreError::InvalidCode`] if the value or code is already mapped,
    /// or the code does not fit the width.
    pub fn insert(&mut self, value: u64, code: u64) -> Result<(), CoreError> {
        if code >> self.width != 0 {
            return Err(too_wide(code, self.width));
        }
        let Err(at_value) = seek(&self.by_value, value) else {
            return Err(value_taken(value));
        };
        let Err(at_code) = seek(&self.by_code, code) else {
            return Err(code_taken(code));
        };
        self.by_value.insert(at_value, (value, code));
        self.by_code.insert(at_code, (code, value));
        Ok(())
    }

    /// Code width `k` — the number of bitmap vectors of the index.
    #[must_use]
    pub fn width(&self) -> u32 {
        self.width
    }

    /// Number of mapped values (`m`).
    #[must_use]
    pub fn len(&self) -> usize {
        self.by_value.len()
    }

    /// `true` if no values are mapped.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.by_value.is_empty()
    }

    /// The code of `value`: one binary search.
    #[must_use]
    pub fn code_of(&self, value: u64) -> Option<u64> {
        let at = seek(&self.by_value, value).ok()?;
        Some(self.by_value[at].1)
    }

    /// The value holding `code`: one binary search.
    #[must_use]
    pub fn value_of(&self, code: u64) -> Option<u64> {
        let at = seek(&self.by_code, code).ok()?;
        Some(self.by_code[at].1)
    }

    /// Codes for a set of values; fails on the first unknown one.
    ///
    /// # Errors
    ///
    /// [`CoreError::UnknownValue`] for any unmapped value.
    pub fn codes_of(&self, values: &[u64]) -> Result<Vec<u64>, CoreError> {
        values
            .iter()
            .map(|&v| self.code_of(v).ok_or(CoreError::UnknownValue { value: v }))
            .collect()
    }

    /// `(value, code)` pairs in value order.
    pub fn iter(&self) -> impl Iterator<Item = (u64, u64)> + '_ {
        self.by_value.iter().copied()
    }

    /// The mapped values in `lo..=hi`, ascending: §2.2 rewrites a range
    /// selection over a discrete domain as the IN-list of the values it
    /// covers. Every form of the index rewrites a range through this.
    #[must_use]
    pub fn values_between(&self, lo: u64, hi: u64) -> Vec<u64> {
        let run = &self.by_value[between(&self.by_value, lo, hi)];
        run.iter().map(|&(v, _)| v).collect()
    }

    /// A column's distinct values in first-seen order. The default
    /// build sorts them ([`crate::total_order::dense_order_mapping`]);
    /// [`Mapping::from_values`] over them as they come is the encoding
    /// with no regard to order, the worst-case line of Figure 9.
    #[must_use]
    pub fn first_seen_values(cells: &[Cell]) -> Vec<u64> {
        let mut seen = HashSet::new();
        cells
            .iter()
            .filter_map(Cell::value)
            .filter(|v| seen.insert(*v))
            .collect()
    }

    /// The unassigned codes of `0..2^width` as sorted, disjoint,
    /// inclusive runs: one pass over the assigned codes, `O(m)`, however
    /// wide the code space is. A dense mapping has at most one run,
    /// `[m, 2^width)`.
    #[must_use]
    pub fn free_runs(&self) -> Vec<(u64, u64)> {
        let mut runs = Vec::new();
        let mut next = 0u64;
        for &(code, _) in &self.by_code {
            if code > next {
                runs.push((next, code - 1));
            }
            next = code + 1;
        }
        let end = 1u64 << self.width;
        if next < end {
            runs.push((next, end - 1));
        }
        runs
    }

    /// Codes in `0..2^width` not assigned to any value, one by one — the
    /// don't-care min-terms Quine–McCluskey is fed (footnote 3).
    /// Everything else reads [`Mapping::free_runs`].
    #[must_use]
    pub fn unassigned_codes(&self) -> Vec<u64> {
        let runs = self.free_runs().into_iter();
        runs.flat_map(|(a, b)| a..=b).collect()
    }

    /// How many codes in `lo..=hi` are assigned: two binary searches in
    /// the code-ordered table, however wide the interval.
    #[must_use]
    pub fn assigned_between(&self, lo: u64, hi: u64) -> usize {
        between(&self.by_code, lo, hi).len()
    }

    /// Smallest unassigned code, if any.
    #[must_use]
    pub fn first_free_code(&self) -> Option<u64> {
        self.free_runs().first().map(|&(start, _)| start)
    }

    /// `true` once every code at the current width is taken.
    #[must_use]
    pub fn is_full(&self) -> bool {
        self.by_value.len() as u64 == 1u64 << self.width
    }

    /// Widens the mapping by one bit (existing codes keep their value —
    /// the new MSB is 0 for all of them), as in the Figure 2(b) expansion.
    pub fn widen(&mut self) {
        assert!(self.width < 63, "cannot widen past 63 bits");
        self.width += 1;
    }

    /// `true` if the numeric order of values matches the numeric order of
    /// codes — the *total-order preserving* property of §2.3.
    #[must_use]
    pub fn is_total_order_preserving(&self) -> bool {
        // Pairs ascend by value; their codes must then ascend too.
        self.by_value.windows(2).all(|w| w[0].1 < w[1].1)
    }

    /// Serialises as `(value, code)` pairs — the physical mapping table
    /// (16 bytes per entry).
    #[must_use]
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(self.by_value.len() * 16 + 12);
        out.extend_from_slice(&self.width.to_le_bytes());
        out.extend_from_slice(&(self.by_value.len() as u64).to_le_bytes());
        for &(v, c) in &self.by_value {
            out.extend_from_slice(&v.to_le_bytes());
            out.extend_from_slice(&c.to_le_bytes());
        }
        out
    }

    /// Parses the layout of [`Mapping::to_bytes`].
    ///
    /// # Errors
    ///
    /// [`CoreError::InvalidCode`] on truncated or inconsistent input.
    pub fn from_bytes(raw: &[u8]) -> Result<Self, CoreError> {
        let mut r = ByteReader::new(raw);
        let width = r.u32()?;
        let n = r.length()?;
        if width > 63 {
            return Err(CoreError::InvalidCode {
                detail: format!("mapping width {width} exceeds 63 bits"),
            });
        }
        let pairs = (0..r.counted(n, 16)?)
            .map(|_| Ok((r.u64()?, r.u64()?)))
            .collect::<Result<_, CoreError>>()?;
        r.finish()?;
        Self::with_pairs(width, pairs)
    }
}

/// Where `key` sits in `table`, which ascends by its first field: `Ok`
/// at its index, or `Err` at the index that keeps the order.
fn seek(table: &[(u64, u64)], key: u64) -> Result<usize, usize> {
    table.binary_search_by_key(&key, |&(k, _)| k)
}

/// The entries of `table` whose first field lies in `lo..=hi`.
fn between(table: &[(u64, u64)], lo: u64, hi: u64) -> std::ops::Range<usize> {
    let from = table.partition_point(|&(k, _)| k < lo);
    let to = table.partition_point(|&(k, _)| k <= hi);
    from..to.max(from)
}

fn too_wide(code: u64, width: u32) -> CoreError {
    CoreError::InvalidCode {
        detail: format!("code {code:#b} does not fit width {width}"),
    }
}

fn value_taken(value: u64) -> CoreError {
    CoreError::InvalidCode {
        detail: format!("value {value} already mapped"),
    }
}

fn code_taken(code: u64) -> CoreError {
    CoreError::InvalidCode {
        detail: format!("code {code:#b} already assigned"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn width_for_matches_paper_examples() {
        assert_eq!(Mapping::width_for(3), 2, "domain {{a,b,c}} needs 2 vectors");
        assert_eq!(Mapping::width_for(12000), 14, "12000 products need 14");
        assert_eq!(Mapping::width_for(4), 2);
        assert_eq!(Mapping::width_for(5), 3);
        assert_eq!(Mapping::width_for(1), 1);
        assert_eq!(Mapping::width_for(0), 1);
    }

    #[test]
    fn sequential_mapping_is_identity_on_ids() {
        let m = Mapping::sequential(5);
        assert_eq!(m.width(), 3);
        assert_eq!(m.len(), 5);
        for v in 0..5 {
            assert_eq!(m.code_of(v), Some(v));
            assert_eq!(m.value_of(v), Some(v));
        }
        assert_eq!(m.code_of(5), None);
        assert!(m.is_total_order_preserving());
    }

    #[test]
    fn bijectivity_enforced() {
        let mut m = Mapping::new(2);
        m.insert(10, 0b01).unwrap();
        assert!(m.insert(10, 0b10).is_err(), "duplicate value");
        assert!(m.insert(11, 0b01).is_err(), "duplicate code");
        assert!(m.insert(12, 0b100).is_err(), "code too wide");
        m.insert(11, 0b10).unwrap();
        assert_eq!(m.len(), 2);
    }

    #[test]
    fn unassigned_codes_are_the_dontcares() {
        // Domain {a,b,c} at k=2 leaves code 11 unassigned (footnote 3).
        let m = Mapping::sequential(3);
        assert_eq!(m.unassigned_codes(), vec![0b11]);
        assert_eq!(m.first_free_code(), Some(0b11));
        assert!(!m.is_full());
        let full = Mapping::sequential(4);
        assert!(full.is_full());
        assert_eq!(full.first_free_code(), None);
    }

    #[test]
    fn free_runs_are_the_gaps_between_assigned_codes() {
        assert_eq!(Mapping::sequential(3).free_runs(), vec![(3, 3)]);
        assert!(Mapping::sequential(4).free_runs().is_empty());
        assert_eq!(Mapping::new(3).free_runs(), vec![(0, 7)]);
        let gaps = Mapping::from_pairs(&[(10, 1), (11, 2), (12, 5), (13, 12)]).unwrap();
        assert_eq!(gaps.free_runs(), vec![(0, 0), (3, 4), (6, 11), (13, 15)]);
        assert_eq!(gaps.first_free_code(), Some(0));
        assert_eq!(gaps.unassigned_codes().len(), 12);
        // A walk over the assigned codes, not over the code space: three
        // values at 40 bits leave two runs, not 2^40 codes to visit.
        let wide = crate::total_order::bit_sliced_mapping(&[0, 1, 1 << 39], 40).unwrap();
        assert_eq!(
            wide.free_runs(),
            vec![(2, (1 << 39) - 1), ((1 << 39) + 1, (1 << 40) - 1)]
        );
        assert_eq!(wide.first_free_code(), Some(2));
    }

    #[test]
    fn widen_keeps_codes_and_doubles_space() {
        let mut m = Mapping::sequential(4);
        assert!(m.is_full());
        m.widen();
        assert_eq!(m.width(), 3);
        assert!(!m.is_full());
        assert_eq!(m.code_of(3), Some(3));
        assert_eq!(m.first_free_code(), Some(4));
    }

    #[test]
    fn total_order_detection() {
        // Figure 6: {101..106} mapped to {000,001,010,100,101,110} —
        // order preserving despite skipping 011 and 111.
        let m = Mapping::from_pairs(&[
            (101, 0b000),
            (102, 0b001),
            (103, 0b010),
            (104, 0b100),
            (105, 0b101),
            (106, 0b110),
        ])
        .unwrap();
        assert!(m.is_total_order_preserving());
        // Swap two codes: order broken.
        let broken = Mapping::from_pairs(&[(101, 0b001), (102, 0b000)]).unwrap();
        assert!(!broken.is_total_order_preserving());
    }

    #[test]
    fn codes_of_batch_lookup() {
        let m = Mapping::sequential(4);
        assert_eq!(m.codes_of(&[2, 0]).unwrap(), vec![2, 0]);
        assert!(matches!(
            m.codes_of(&[9]),
            Err(CoreError::UnknownValue { value: 9 })
        ));
    }

    #[test]
    fn serialisation_roundtrip() {
        let m = Mapping::from_pairs(&[(7, 0), (99, 3), (4, 1)]).unwrap();
        let restored = Mapping::from_bytes(&m.to_bytes()).unwrap();
        assert_eq!(restored, m);
        assert!(Mapping::from_bytes(&[1, 2]).is_err());
        let mut raw = m.to_bytes();
        raw.pop();
        assert!(Mapping::from_bytes(&raw).is_err());
        // 12 bytes declaring 2^60 entries: `12 + n * 16` used to overflow.
        let mut raw = 4u32.to_le_bytes().to_vec();
        raw.extend_from_slice(&(1u64 << 60).to_le_bytes());
        let err = Mapping::from_bytes(&raw).unwrap_err();
        assert!(matches!(err, CoreError::InvalidCode { .. }), "{err}");
    }

    #[test]
    fn from_pairs_infers_width() {
        let m = Mapping::from_pairs(&[(1, 0b1110)]).unwrap();
        assert_eq!(m.width(), 4);
        let tiny = Mapping::from_pairs(&[(1, 0)]).unwrap();
        assert_eq!(tiny.width(), 1);
    }

    #[test]
    fn values_between_is_the_inclusive_range_rewrite() {
        let m = Mapping::from_pairs(&[(30, 0), (10, 1), (20, 2), (u64::MAX, 3)]).unwrap();
        assert_eq!(m.values_between(10, 20), vec![10, 20]);
        assert_eq!(m.values_between(11, 29), vec![20]);
        assert_eq!(m.values_between(0, u64::MAX), vec![10, 20, 30, u64::MAX]);
        assert!(m.values_between(31, 40).is_empty());
        assert!(m.values_between(20, 10).is_empty(), "an empty interval");
    }

    #[test]
    fn first_seen_values_keep_column_order() {
        let cells = [5u64, 2, 5, 9, 2].map(Cell::Value);
        let column = [&cells[..2], &[Cell::Null], &cells[2..]].concat();
        assert_eq!(Mapping::first_seen_values(&column), vec![5, 2, 9]);
        assert!(Mapping::first_seen_values(&[Cell::Null]).is_empty());
    }

    #[test]
    fn iter_is_value_ordered() {
        let m = Mapping::from_pairs(&[(30, 0), (10, 1), (20, 2)]).unwrap();
        let values: Vec<u64> = m.iter().map(|(v, _)| v).collect();
        assert_eq!(values, vec![10, 20, 30]);
    }
}
