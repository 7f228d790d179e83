//! The core word-packed [`BitVec`] type.

use std::fmt;

/// Number of bits per storage word.
pub const WORD_BITS: usize = 64;

/// A growable, word-packed vector of bits.
///
/// `BitVec` is the physical representation of one *bitmap vector*: bit `j`
/// corresponds to tuple `j` of an indexed table. Bits are stored
/// least-significant-bit first within `u64` words.
///
/// The type maintains the invariant that any bits stored beyond `len()` in
/// the final word are zero, which keeps [`BitVec::count_ones`] and
/// equality exact without per-call masking.
#[derive(Clone, PartialEq, Eq, Hash, Default)]
pub struct BitVec {
    pub(crate) words: Vec<u64>,
    pub(crate) len: usize,
}

impl BitVec {
    /// Creates an empty bit vector.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates an empty bit vector with room for `bits` bits.
    #[must_use]
    pub fn with_capacity(bits: usize) -> Self {
        Self {
            words: Vec::with_capacity(bits.div_ceil(WORD_BITS)),
            len: 0,
        }
    }

    /// Creates a bit vector of `len` zero bits.
    #[must_use]
    pub fn zeros(len: usize) -> Self {
        Self {
            words: vec![0u64; len.div_ceil(WORD_BITS)],
            len,
        }
    }

    /// Creates a bit vector of `len` one bits.
    #[must_use]
    pub fn ones(len: usize) -> Self {
        let mut v = Self {
            words: vec![u64::MAX; len.div_ceil(WORD_BITS)],
            len,
        };
        v.mask_tail();
        v
    }

    /// Builds a bit vector from an iterator of booleans.
    #[must_use]
    pub fn from_bools<I: IntoIterator<Item = bool>>(bools: I) -> Self {
        let iter = bools.into_iter();
        let (lo, _) = iter.size_hint();
        let mut v = Self::with_capacity(lo);
        for b in iter {
            v.push(b);
        }
        v
    }

    /// Builds a bit vector of length `len` with ones exactly at `positions`.
    ///
    /// # Panics
    ///
    /// Panics if any position is `>= len`.
    #[must_use]
    pub fn from_positions(len: usize, positions: &[usize]) -> Self {
        let mut v = Self::zeros(len);
        for &p in positions {
            v.set(p, true);
        }
        v
    }

    /// Number of bits in the vector.
    #[must_use]
    pub fn len(&self) -> usize {
        self.len
    }

    /// `true` if the vector holds no bits.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Raw storage words (LSB-first packing).
    #[must_use]
    pub fn words(&self) -> &[u64] {
        &self.words
    }

    /// Size of the heap storage in bytes (the paper's `|T| / 8` cost unit,
    /// rounded up to whole words).
    #[must_use]
    pub fn storage_bytes(&self) -> usize {
        self.words.len() * (WORD_BITS / 8)
    }

    /// Appends one bit. The bit is shifted into its word, not tested: a
    /// column of coin-flip bits costs no mispredicted branch per push.
    pub fn push(&mut self, bit: bool) {
        let (w, b) = (self.len / WORD_BITS, self.len % WORD_BITS);
        if w == self.words.len() {
            self.words.push(0);
        }
        // The tail invariant keeps bit `b` zero until now.
        self.words[w] |= u64::from(bit) << b;
        self.len += 1;
    }

    /// Appends `n` copies of `bit`. Runs in `O(n / 64)`.
    pub fn push_run(&mut self, bit: bool, n: usize) {
        if !bit {
            self.len += n;
            self.words.resize(self.len.div_ceil(WORD_BITS), 0);
            return;
        }
        let mut remaining = n;
        // Fill the current partial word first.
        while remaining > 0 && !self.len.is_multiple_of(WORD_BITS) {
            self.push(true);
            remaining -= 1;
        }
        while remaining >= WORD_BITS {
            self.words.push(u64::MAX);
            self.len += WORD_BITS;
            remaining -= WORD_BITS;
        }
        for _ in 0..remaining {
            self.push(true);
        }
    }

    /// Returns bit `i`, or `None` if out of range.
    #[must_use]
    pub fn get(&self, i: usize) -> Option<bool> {
        if i >= self.len {
            return None;
        }
        Some(self.words[i / WORD_BITS] >> (i % WORD_BITS) & 1 == 1)
    }

    /// Returns bit `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i >= len()`.
    #[must_use]
    pub fn bit(&self, i: usize) -> bool {
        assert!(
            i < self.len,
            "bit index {i} out of range (len {})",
            self.len
        );
        self.words[i / WORD_BITS] >> (i % WORD_BITS) & 1 == 1
    }

    /// Sets bit `i` to `value`: one read-modify-write of its word that
    /// clears the bit and ORs the value in, with no branch on `value`.
    ///
    /// # Panics
    ///
    /// Panics if `i >= len()`.
    pub fn set(&mut self, i: usize, value: bool) {
        assert!(
            i < self.len,
            "bit index {i} out of range (len {})",
            self.len
        );
        let (w, b) = (i / WORD_BITS, i % WORD_BITS);
        let word = &mut self.words[w];
        *word = (*word & !(1u64 << b)) | (u64::from(value) << b);
    }

    /// Number of one bits (the bitmap's *population count*), by the
    /// selected tier's counting pass ([`crate::simd::count_ones`]).
    #[must_use]
    pub fn count_ones(&self) -> usize {
        crate::simd::count_ones(crate::simd::selected_path(), &self.words) as usize
    }

    /// Number of zero bits.
    #[must_use]
    pub fn count_zeros(&self) -> usize {
        self.len - self.count_ones()
    }

    /// Fraction of zero bits — the paper's *sparsity* measure (§2.1: simple
    /// bitmap sparsity averages `(m-1)/m`; encoded bitmap sparsity ≈ 1/2).
    ///
    /// Returns `0.0` for an empty vector.
    #[must_use]
    pub fn sparsity(&self) -> f64 {
        if self.len == 0 {
            return 0.0;
        }
        self.count_zeros() as f64 / self.len as f64
    }

    /// Run statistics of the word-packed layout (see [`RunStats`]).
    ///
    /// [`RunStats`]: crate::runs::RunStats
    #[must_use]
    pub fn run_stats(&self) -> crate::runs::RunStats {
        crate::runs::RunStats::from_words(&self.words, self.len)
    }

    /// `true` if any bit is set.
    #[must_use]
    pub fn any(&self) -> bool {
        self.words.iter().any(|&w| w != 0)
    }

    /// `true` if all bits are set (vacuously true when empty).
    #[must_use]
    pub fn all(&self) -> bool {
        let full = self.len / WORD_BITS;
        if self.words[..full].iter().any(|&w| w != u64::MAX) {
            return false;
        }
        let tail = self.len % WORD_BITS;
        if tail == 0 {
            return true;
        }
        self.words[full] == (1u64 << tail) - 1
    }

    /// Removes all bits, keeping capacity.
    pub fn clear(&mut self) {
        self.words.clear();
        self.len = 0;
    }

    /// Truncates to at most `len` bits.
    pub fn truncate(&mut self, len: usize) {
        if len >= self.len {
            return;
        }
        self.len = len;
        self.words.truncate(len.div_ceil(WORD_BITS));
        self.mask_tail();
    }

    /// Grows the vector to `len` bits, appending zeros. No-op if already
    /// at least `len` long.
    pub fn grow(&mut self, len: usize) {
        if len > self.len {
            self.len = len;
            self.words.resize(len.div_ceil(WORD_BITS), 0);
        }
    }

    /// ORs every bit of `part` into this vector from word `word` on, that
    /// is from bit `word * 64`, leaving all other bits untouched: the
    /// merge of word-aligned parts, such as the morsels of one evaluation.
    ///
    /// # Panics
    ///
    /// Panics if `part` reaches past this vector's length.
    pub fn or_at_word(&mut self, part: &Self, word: usize) {
        let offset = word * WORD_BITS;
        assert!(
            offset + part.len <= self.len,
            "or_at_word out of range: bit {offset} + {} bits > {} bits",
            part.len,
            self.len
        );
        for (dst, &src) in self.words[word..].iter_mut().zip(&part.words) {
            *dst |= src;
        }
    }

    /// Clears every bit `j` of this vector whose bit `word * 64 + j` of
    /// `mask` is set: `self &= !mask[word * 64 ..][.. len]`, the mask of
    /// a table-wide vector applied to a word-aligned part of the table.
    ///
    /// # Panics
    ///
    /// Panics if this vector reaches past `mask`'s length.
    pub fn and_not_at_word(&mut self, mask: &Self, word: usize) {
        let offset = word * WORD_BITS;
        assert!(
            offset + self.len <= mask.len,
            "and_not_at_word out of range: bit {offset} + {} bits > {} bits",
            self.len,
            mask.len
        );
        for (dst, &m) in self.words.iter_mut().zip(&mask.words[word..]) {
            *dst &= !m;
        }
    }

    /// Zeroes any bits beyond `len` in the final word, restoring the tail
    /// invariant after word-level operations.
    pub(crate) fn mask_tail(&mut self) {
        let tail = self.len % WORD_BITS;
        if tail != 0 {
            if let Some(last) = self.words.last_mut() {
                *last &= (1u64 << tail) - 1;
            }
        }
    }

    /// Asserts two vectors have equal length; used by the binary ops.
    pub(crate) fn check_len(&self, other: &Self, op: &str) {
        assert_eq!(
            self.len, other.len,
            "BitVec length mismatch in {op}: {} vs {}",
            self.len, other.len
        );
    }
}

impl fmt::Debug for BitVec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "BitVec[{}; ", self.len)?;
        let shown = self.len.min(128);
        for i in 0..shown {
            write!(f, "{}", u8::from(self.bit(i)))?;
        }
        if shown < self.len {
            write!(f, "…")?;
        }
        write!(f, "]")
    }
}

impl FromIterator<bool> for BitVec {
    fn from_iter<I: IntoIterator<Item = bool>>(iter: I) -> Self {
        Self::from_bools(iter)
    }
}

impl Extend<bool> for BitVec {
    fn extend<I: IntoIterator<Item = bool>>(&mut self, iter: I) {
        for b in iter {
            self.push(b);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_vector_has_no_bits() {
        let v = BitVec::new();
        assert_eq!(v.len(), 0);
        assert!(v.is_empty());
        assert_eq!(v.count_ones(), 0);
        assert!(!v.any());
        assert!(v.all(), "all() is vacuously true for the empty vector");
    }

    #[test]
    fn push_and_get_roundtrip() {
        let mut v = BitVec::new();
        let pattern: Vec<bool> = (0..200).map(|i| i % 3 == 0).collect();
        for &b in &pattern {
            v.push(b);
        }
        assert_eq!(v.len(), 200);
        for (i, &b) in pattern.iter().enumerate() {
            assert_eq!(v.bit(i), b, "bit {i}");
        }
        assert_eq!(v.get(200), None);
    }

    #[test]
    fn zeros_and_ones_constructors() {
        for len in [0usize, 1, 63, 64, 65, 129, 1000] {
            let z = BitVec::zeros(len);
            assert_eq!(z.len(), len);
            assert_eq!(z.count_ones(), 0);
            let o = BitVec::ones(len);
            assert_eq!(o.len(), len);
            assert_eq!(o.count_ones(), len, "ones({len})");
            assert!(o.all());
        }
    }

    #[test]
    fn set_updates_bits_in_both_directions() {
        let mut v = BitVec::zeros(100);
        v.set(0, true);
        v.set(64, true);
        v.set(99, true);
        assert_eq!(v.count_ones(), 3);
        v.set(64, false);
        assert_eq!(v.count_ones(), 2);
        assert!(v.bit(0) && v.bit(99) && !v.bit(64));
    }

    #[test]
    fn a_bit_write_changes_exactly_one_bit() {
        // Two full words and a partial tail word of 37 bits.
        const LEN: usize = 2 * WORD_BITS + 37;
        let patterns = [0u64, u64::MAX, 0x5555_5555_5555_5555];
        let from_word = |pattern: u64, len: usize| {
            let mut v = BitVec {
                words: vec![pattern; len.div_ceil(WORD_BITS)],
                len,
            };
            v.mask_tail();
            let model: Vec<bool> = (0..len)
                .map(|i| pattern >> (i % WORD_BITS) & 1 == 1)
                .collect();
            (v, model)
        };
        let agrees = |v: &BitVec, model: &[bool], what: &str| {
            let bits: Vec<bool> = (0..v.len()).map(|i| v.bit(i)).collect();
            assert_eq!(bits, model, "{what}");
            let ones = model.iter().filter(|&&b| b).count();
            assert_eq!(v.count_ones(), ones, "{what}");
            assert_eq!(v.words.len(), model.len().div_ceil(WORD_BITS), "{what}");
            let tail = model.len() % WORD_BITS;
            if tail != 0 {
                assert_eq!(
                    v.words[v.words.len() - 1] >> tail,
                    0,
                    "{what}: bits past len"
                );
            }
        };
        for pattern in patterns {
            for value in [false, true] {
                for at in [0, 63, 64, LEN - 1] {
                    let (mut v, mut model) = from_word(pattern, LEN);
                    v.set(at, value);
                    model[at] = value;
                    agrees(&v, &model, &format!("set({at}, {value}) on {pattern:#x}"));
                }
                // A push lands at bit `len`: 0, 63, 64 and inside the tail.
                for len in [0, 63, 64, LEN - 1] {
                    let (mut v, mut model) = from_word(pattern, len);
                    v.push(value);
                    model.push(value);
                    agrees(
                        &v,
                        &model,
                        &format!("push({value}) at {len} on {pattern:#x}"),
                    );
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn set_out_of_range_panics() {
        let mut v = BitVec::zeros(10);
        v.set(10, true);
    }

    #[test]
    fn from_positions_places_exactly_those_bits() {
        let v = BitVec::from_positions(70, &[0, 5, 64, 69]);
        assert_eq!(v.count_ones(), 4);
        assert!(v.bit(0) && v.bit(5) && v.bit(64) && v.bit(69));
        assert!(!v.bit(1) && !v.bit(63));
    }

    #[test]
    fn push_run_matches_individual_pushes() {
        let mut a = BitVec::new();
        a.push_run(true, 7);
        a.push_run(false, 100);
        a.push_run(true, 130);
        let mut b = BitVec::new();
        for _ in 0..7 {
            b.push(true);
        }
        for _ in 0..100 {
            b.push(false);
        }
        for _ in 0..130 {
            b.push(true);
        }
        assert_eq!(a, b);
        assert_eq!(a.count_ones(), 137);
    }

    #[test]
    fn truncate_clears_tail_bits() {
        let mut v = BitVec::ones(130);
        v.truncate(65);
        assert_eq!(v.len(), 65);
        assert_eq!(v.count_ones(), 65);
        v.truncate(0);
        assert!(v.is_empty());
    }

    #[test]
    fn grow_appends_zeros() {
        let mut v = BitVec::ones(10);
        v.grow(100);
        assert_eq!(v.len(), 100);
        assert_eq!(v.count_ones(), 10);
        v.grow(5); // no-op
        assert_eq!(v.len(), 100);
    }

    #[test]
    fn sparsity_reflects_zero_fraction() {
        let mut v = BitVec::zeros(100);
        assert!((v.sparsity() - 1.0).abs() < 1e-12);
        for i in 0..50 {
            v.set(i, true);
        }
        assert!((v.sparsity() - 0.5).abs() < 1e-12);
        assert_eq!(BitVec::new().sparsity(), 0.0);
    }

    #[test]
    fn all_handles_word_boundaries() {
        let mut v = BitVec::ones(64);
        assert!(v.all());
        v.set(63, false);
        assert!(!v.all());
        let w = BitVec::ones(65);
        assert!(w.all());
    }

    #[test]
    fn storage_is_word_rounded() {
        assert_eq!(BitVec::zeros(1).storage_bytes(), 8);
        assert_eq!(BitVec::zeros(64).storage_bytes(), 8);
        assert_eq!(BitVec::zeros(65).storage_bytes(), 16);
    }

    #[test]
    fn collect_from_iterator() {
        let v: BitVec = (0..10).map(|i| i % 2 == 0).collect();
        assert_eq!(v.len(), 10);
        assert_eq!(v.count_ones(), 5);
    }

    #[test]
    fn word_aligned_parts_merge_and_mask_at_their_offset() {
        // Parts of a 200-bit vector cut at words 1 and 3, merged out of
        // order; each masked by the same rows of a table-wide mask.
        let full: BitVec = (0..200).map(|i| i % 7 == 0 || i % 11 == 3).collect();
        let mask: BitVec = (0..200).map(|i| i % 5 == 0).collect();
        let mut merged = BitVec::zeros(200);
        for (w0, w1) in [(3, 4), (0, 1), (1, 3)] {
            let rows = w0 * 64..(w1 * 64).min(200);
            let mut p: BitVec = rows.clone().map(|i| full.bit(i)).collect();
            merged.or_at_word(&p, w0);
            p.and_not_at_word(&mask, w0);
            let want = rows.filter(|&i| full.bit(i) && !mask.bit(i));
            assert_eq!(
                p.to_positions(),
                want.map(|i| i - w0 * 64).collect::<Vec<_>>()
            );
        }
        assert_eq!(merged, full);
    }

    #[test]
    #[should_panic(expected = "or_at_word out of range")]
    fn or_at_word_rejects_overflow() {
        let mut global = BitVec::zeros(65);
        global.or_at_word(&BitVec::ones(2), 1);
    }
}
