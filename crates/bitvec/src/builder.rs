//! Streaming construction of bitmap-vector families.
//!
//! Index builders scan a column once and must append one bit per tuple to
//! *each* of `h` bitmap vectors (`h = |A|` for a simple bitmap index,
//! `h = ceil(log2 |A|)` for an encoded one). [`SliceFamilyBuilder`] owns
//! the `h` vectors and spreads a per-tuple code across them, which is the
//! inner loop of every index build in this workspace.

use crate::core::BitVec;

/// Builds a family of `h` equal-length bitmap vectors from per-tuple codes.
///
/// For tuple `j` with code `c`, bit `j` of vector `i` is set iff bit `i`
/// of `c` is set — exactly Definition 2.1's
/// `B_i[j] = 1 iff M(t_j.A)[i] = 1`.
#[derive(Debug, Clone)]
pub struct SliceFamilyBuilder {
    slices: Vec<BitVec>,
    rows: usize,
}

impl SliceFamilyBuilder {
    /// Creates a builder for `h` slices.
    #[must_use]
    pub fn new(h: usize) -> Self {
        Self {
            slices: vec![BitVec::new(); h],
            rows: 0,
        }
    }

    /// Number of slices.
    #[must_use]
    pub fn width(&self) -> usize {
        self.slices.len()
    }

    /// Number of rows appended so far.
    #[must_use]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Appends one tuple's code: bit `i` of `code` lands in slice `i`.
    ///
    /// # Panics
    ///
    /// Panics if `code` has set bits at positions `>= width()`.
    pub fn push_code(&mut self, code: u64) {
        let h = self.slices.len();
        assert!(
            h == 64 || code < (1u64 << h),
            "code {code:#b} does not fit in {h} slices"
        );
        for (i, slice) in self.slices.iter_mut().enumerate() {
            slice.push(code >> i & 1 == 1);
        }
        self.rows += 1;
    }

    /// Finishes, returning slice `0` (LSB) first.
    #[must_use]
    pub fn finish(self) -> Vec<BitVec> {
        self.slices
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn slice_family_spreads_codes() {
        // Codes of the paper's Figure 1: a=00, b=01, c=10 over column
        // [a, b, c, b, a, c] — expect B1 = 001001, B0 = 010100 (LSB-first
        // row order).
        let mut fam = SliceFamilyBuilder::new(2);
        for code in [0b00u64, 0b01, 0b10, 0b01, 0b00, 0b10] {
            fam.push_code(code);
        }
        assert_eq!(fam.rows(), 6);
        let slices = fam.finish();
        assert_eq!(slices[0].to_positions(), vec![1, 3]); // B0 set where b
        assert_eq!(slices[1].to_positions(), vec![2, 5]); // B1 set where c
    }

    #[test]
    fn slice_family_full_width() {
        let mut fam = SliceFamilyBuilder::new(64);
        fam.push_code(u64::MAX);
        fam.push_code(0);
        let slices = fam.finish();
        assert!(slices.iter().all(|s| s.len() == 2 && s.bit(0) && !s.bit(1)));
    }

    #[test]
    #[should_panic(expected = "does not fit")]
    fn slice_family_rejects_oversized_codes() {
        let mut fam = SliceFamilyBuilder::new(2);
        fam.push_code(0b100);
    }
}
