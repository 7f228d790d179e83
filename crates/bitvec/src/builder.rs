//! Streaming construction of bitmap-vector families.
//!
//! Index builders scan a column once and must append one bit per tuple to
//! *each* of `h` bitmap vectors (`h = |A|` for a simple bitmap index,
//! `h = ceil(log2 |A|)` for an encoded one). [`SliceFamilyBuilder`] owns
//! the `h` vectors and spreads a per-tuple code across them, which is the
//! inner loop of every index build in this workspace.
//!
//! It writes words, not bits. The codes of 64 consecutive rows are held
//! back, then transposed as one 64×64 bit matrix, so that row `i` of the
//! result is the next word of slice `i`; each slice word is stored once.
//! The transpose skips the exchanges that would move only zero columns:
//! with `s` the width rounded up to a power of two, a block costs
//! `64 − s` word moves and `(s / 2) · log2 s` word exchanges — 80 steps
//! for 64 rows at `h = 13`, where pushing bits took 832. The rows past
//! the last whole word are padded with code 0, which keeps [`BitVec`]'s
//! zero tail. A builder made with [`SliceFamilyBuilder::with_capacity`] for
//! its row count allocates each slice once. A builder whose width is not
//! known before the column is read ([`SliceFamilyBuilder::widen`]) adds a
//! slice when a code first needs it, zero over the rows before.

use crate::core::{BitVec, WORD_BITS};

/// Builds a family of `h` equal-length bitmap vectors from per-tuple codes.
///
/// For tuple `j` with code `c`, bit `j` of vector `i` is set iff bit `i`
/// of `c` is set — exactly Definition 2.1's
/// `B_i[j] = 1 iff M(t_j.A)[i] = 1`.
#[derive(Debug, Clone)]
pub struct SliceFamilyBuilder {
    /// The whole words of each slice so far.
    words: Vec<Vec<u64>>,
    /// The codes of the rows after the last whole word.
    pending: [u64; WORD_BITS],
    rows: usize,
    /// The code bits no slice holds: set bits at positions `>= h`.
    overflow: u64,
    /// Words a slice is allocated with.
    capacity: usize,
}

impl SliceFamilyBuilder {
    /// Creates a builder for `h` slices.
    ///
    /// # Panics
    ///
    /// Panics if `h > 64`.
    #[must_use]
    pub fn new(h: usize) -> Self {
        Self::with_capacity(h, 0)
    }

    /// Creates a builder for `h` slices with room for `rows` rows: each
    /// slice is allocated once, at its final length, when `rows` is the
    /// row count.
    ///
    /// # Panics
    ///
    /// Panics if `h > 64`.
    #[must_use]
    pub fn with_capacity(h: usize, rows: usize) -> Self {
        let mut fam = Self {
            words: Vec::new(),
            pending: [0; WORD_BITS],
            rows: 0,
            overflow: u64::MAX,
            capacity: rows.div_ceil(WORD_BITS),
        };
        fam.widen(h);
        fam
    }

    /// Grows the family to `h` slices, if it has fewer; a new slice is
    /// zero over the rows already pushed. A build that learns its width
    /// from the column widens before it pushes a code that needs more.
    ///
    /// # Panics
    ///
    /// Panics if `h > 64`.
    pub fn widen(&mut self, h: usize) {
        if h <= self.words.len() {
            return;
        }
        assert!(h <= WORD_BITS, "{h} slices exceed a 64-bit code");
        // The pending block is transposed at the new width when flushed.
        let flushed = self.rows / WORD_BITS;
        while self.words.len() < h {
            let mut slice = Vec::with_capacity(self.capacity.max(flushed));
            slice.resize(flushed, 0);
            self.words.push(slice);
        }
        self.overflow = u64::MAX.checked_shl(self.words.len() as u32).unwrap_or(0);
    }

    /// Number of slices.
    #[must_use]
    pub fn width(&self) -> usize {
        self.words.len()
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
        assert!(
            code & self.overflow == 0,
            "code {code:#b} does not fit in {} slices",
            self.width()
        );
        let at = self.rows % WORD_BITS;
        self.pending[at] = code;
        self.rows += 1;
        if at == WORD_BITS - 1 {
            self.flush();
        }
    }

    /// Finishes, returning slice `0` (LSB) first.
    #[must_use]
    pub fn finish(mut self) -> Vec<BitVec> {
        let ragged = self.rows % WORD_BITS;
        if ragged != 0 {
            self.pending[ragged..].fill(0);
            self.flush();
        }
        let len = self.rows;
        self.words
            .into_iter()
            .map(|words| BitVec { words, len })
            .collect()
    }

    /// Stores the pending block as one more word of every slice.
    fn flush(&mut self) {
        transpose(&mut self.pending, self.words.len());
        for (slice, &word) in self.words.iter_mut().zip(&self.pending) {
            slice.push(word);
        }
    }
}

/// Transposes the 64×64 bit matrix whose row `r` is `m[r]` (column `c`
/// is bit `c`), where no row has a bit set at a column `>= h`: on return
/// bit `r` of `m[c]` is what bit `c` of `m[r]` was, for every `c < h`.
/// Rows `>= h` are left undefined.
///
/// Level `j` (32, 16, …, 1) exchanges the entries whose row index has
/// bit `j` clear and column index bit `j` set with their mirror images
/// (Hacker's Delight, §7-3); the six levels together swap every row
/// index with its column index. While `j` is at least `h` rounded up to
/// a power of two, the columns with bit `j` set are all empty, so the
/// exchange is a move of row `r + j` into the empty upper half of row
/// `r`, and only rows below `j` still hold entries.
fn transpose(m: &mut [u64; WORD_BITS], h: usize) {
    let span = h.next_power_of_two();
    let mut j = WORD_BITS / 2;
    let mut mask = u64::MAX >> j;
    while j != 0 {
        if j >= span {
            for r in 0..j {
                m[r] |= m[r + j] << j;
            }
        } else {
            for base in (0..span).step_by(2 * j) {
                for r in base..base + j {
                    let t = (m[r] >> j ^ m[r + j]) & mask;
                    m[r + j] ^= t;
                    m[r] ^= t << j;
                }
            }
        }
        j /= 2;
        mask ^= mask << j;
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
    fn transpose_moves_every_bit_at_every_width() {
        // Row r holds the bits of r * 0x9E37_79B9_7F4A_7C15 below h: an
        // irregular pattern, so a misplaced bit cannot hide.
        for h in [1, 2, 3, 13, 32, 33, 63, 64] {
            let overflow = u64::MAX.checked_shl(h as u32).unwrap_or(0);
            let rows: [u64; 64] =
                std::array::from_fn(|r| (r as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15) & !overflow);
            let mut m = rows;
            transpose(&mut m, h);
            for (c, word) in m.iter().enumerate().take(h) {
                for (r, row) in rows.iter().enumerate() {
                    assert_eq!(word >> r & 1, row >> c & 1, "h {h}: row {r}, column {c}");
                }
            }
        }
    }

    #[test]
    fn a_ragged_tail_keeps_the_zero_tail() {
        let mut fam = SliceFamilyBuilder::with_capacity(3, 70);
        for row in 0..70u64 {
            fam.push_code(0b111 * (row % 2));
        }
        for s in fam.finish() {
            assert_eq!((s.len(), s.count_ones(), s.words().len()), (70, 35, 2));
            assert_eq!(s.words()[1], 0b10_1010, "rows 64..70, nothing above");
        }
    }

    #[test]
    #[should_panic(expected = "does not fit")]
    fn slice_family_rejects_oversized_codes() {
        let mut fam = SliceFamilyBuilder::new(2);
        fam.push_code(0b100);
    }
}
