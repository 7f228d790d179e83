//! Iterators over [`BitVec`] contents.

use crate::core::{BitVec, WORD_BITS};

/// Iterator over every bit of a [`BitVec`], in position order.
#[derive(Debug, Clone)]
pub struct BitIter<'a> {
    vec: &'a BitVec,
    pos: usize,
}

impl Iterator for BitIter<'_> {
    type Item = bool;

    fn next(&mut self) -> Option<bool> {
        let b = self.vec.get(self.pos)?;
        self.pos += 1;
        Some(b)
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let rem = self.vec.len() - self.pos;
        (rem, Some(rem))
    }
}

impl ExactSizeIterator for BitIter<'_> {}

/// Iterator over the positions of set bits, ascending.
///
/// Skips zero words wholesale, so iterating a sparse bitmap costs
/// `O(words + ones)` — this is what makes bitmap-index result decoding
/// cheap even on very sparse vectors.
#[derive(Debug, Clone)]
pub struct OnesIter<'a> {
    words: &'a [u64],
    word_idx: usize,
    current: u64,
}

impl<'a> OnesIter<'a> {
    fn new(vec: &'a BitVec) -> Self {
        let words = vec.words();
        Self {
            words,
            word_idx: 0,
            current: words.first().copied().unwrap_or(0),
        }
    }
}

impl Iterator for OnesIter<'_> {
    type Item = usize;

    fn next(&mut self) -> Option<usize> {
        while self.current == 0 {
            self.word_idx += 1;
            if self.word_idx >= self.words.len() {
                return None;
            }
            self.current = self.words[self.word_idx];
        }
        let tz = self.current.trailing_zeros() as usize;
        self.current &= self.current - 1; // clear lowest set bit
        Some(self.word_idx * WORD_BITS + tz)
    }
}

impl BitVec {
    /// Iterates every bit in position order.
    #[must_use]
    pub fn iter(&self) -> BitIter<'_> {
        BitIter { vec: self, pos: 0 }
    }

    /// Iterates the positions of set bits, ascending. For an index query
    /// result this yields the matching tuple-ids.
    #[must_use]
    pub fn iter_ones(&self) -> OnesIter<'_> {
        OnesIter::new(self)
    }

    /// Collects the positions of set bits into a vector.
    #[must_use]
    pub fn to_positions(&self) -> Vec<usize> {
        let mut out = Vec::with_capacity(self.count_ones());
        out.extend(self.iter_ones());
        out
    }

    /// Index of each block of `block_bits` consecutive positions that
    /// holds a set bit, ascending, where bit `i` of this vector is
    /// position `base + i` (a part of a table whose first row is `base`):
    /// block `b` covers positions `b * block_bits ..`. This is the set
    /// `iter_ones().map(|i| (base + i) / block_bits)` deduplicated, found
    /// in `O(words + blocks)`: each step masks the first word of the next
    /// unvisited block below its start and skips zero words from there,
    /// so neither a block size nor `base` need be a multiple of 64.
    ///
    /// ```
    /// use ebi_bitvec::BitVec;
    ///
    /// let v = BitVec::from_positions(300, &[1, 2, 150, 299]);
    /// assert_eq!(v.occupied_blocks(100, 0).collect::<Vec<_>>(), [0, 1, 2]);
    /// assert_eq!(v.occupied_blocks(7, 0).collect::<Vec<_>>(), [0, 21, 42]);
    /// assert_eq!(v.occupied_blocks(100, 64).collect::<Vec<_>>(), [0, 2, 3]);
    /// ```
    ///
    /// # Panics
    ///
    /// Panics if `block_bits == 0`.
    pub fn occupied_blocks(
        &self,
        block_bits: usize,
        base: usize,
    ) -> impl Iterator<Item = usize> + '_ {
        assert!(block_bits > 0, "a block holds at least one bit");
        let words = self.words();
        // First bit not yet covered by a yielded block.
        let mut from = 0usize;
        std::iter::from_fn(move || {
            let mut w = from / WORD_BITS;
            let mut word = words.get(w)? & (u64::MAX << (from % WORD_BITS));
            while word == 0 {
                w += 1;
                word = *words.get(w)?;
            }
            let block = (base + w * WORD_BITS + word.trailing_zeros() as usize) / block_bits;
            from = (block + 1).saturating_mul(block_bits).saturating_sub(base);
            Some(block)
        })
    }
}

impl<'a> IntoIterator for &'a BitVec {
    type Item = bool;
    type IntoIter = BitIter<'a>;
    fn into_iter(self) -> Self::IntoIter {
        self.iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bit_iter_matches_get() {
        let v: BitVec = (0..130).map(|i| i % 7 == 0).collect();
        let collected: Vec<bool> = v.iter().collect();
        assert_eq!(collected.len(), 130);
        for (i, &b) in collected.iter().enumerate() {
            assert_eq!(b, v.bit(i));
        }
    }

    #[test]
    fn ones_iter_yields_sorted_positions() {
        let positions = vec![0usize, 1, 63, 64, 65, 127, 128, 199];
        let v = BitVec::from_positions(200, &positions);
        assert_eq!(v.to_positions(), positions);
    }

    #[test]
    fn ones_iter_on_empty_and_dense() {
        assert_eq!(BitVec::zeros(500).to_positions(), Vec::<usize>::new());
        assert_eq!(BitVec::new().to_positions(), Vec::<usize>::new());
        let dense = BitVec::ones(100);
        assert_eq!(dense.to_positions(), (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn ones_iter_skips_long_zero_runs() {
        let v = BitVec::from_positions(10_000, &[9_999]);
        assert_eq!(v.to_positions(), vec![9_999]);
    }

    #[test]
    fn occupied_blocks_are_the_deduplicated_ones_over_the_block_size() {
        let mut state = 0x2545_F491_4F6C_DD1Du64;
        let mut patterns: Vec<BitVec> = Vec::new();
        for len in [0usize, 1, 63, 64, 65, 130, 1_000, 4_097] {
            patterns.push(BitVec::zeros(len));
            patterns.push(BitVec::ones(len));
            patterns.push((0..len).map(|i| i % 97 == 5).collect());
            patterns.push((0..len).map(|i| (i / 200) % 3 == 1).collect());
            patterns.push(
                (0..len)
                    .map(|_| {
                        state ^= state << 13;
                        state ^= state >> 7;
                        state ^= state << 17;
                        state.is_multiple_of(11)
                    })
                    .collect(),
            );
        }
        for v in &patterns {
            for b in [1usize, 3, 64, 100, 512, v.len() + 1] {
                for base in [0usize, 64, 32_768, 99] {
                    let mut want: Vec<usize> = v.iter_ones().map(|i| (base + i) / b).collect();
                    want.dedup();
                    // One past the expected count, so a block yielded
                    // twice fails here rather than repeating forever.
                    let got: Vec<usize> = v.occupied_blocks(b, base).take(want.len() + 1).collect();
                    assert_eq!(got, want, "len {} block {b} base {base}", v.len());
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "at least one bit")]
    fn occupied_blocks_refuse_an_empty_block() {
        let _ = BitVec::ones(3).occupied_blocks(0, 0);
    }

    #[test]
    fn exact_size_hint() {
        let v = BitVec::zeros(42);
        let mut it = v.iter();
        assert_eq!(it.len(), 42);
        it.next();
        assert_eq!(it.len(), 41);
    }

    #[test]
    fn into_iterator_for_reference() {
        let v: BitVec = [true, false, true].into_iter().collect();
        let total: usize = (&v).into_iter().filter(|&b| b).count();
        assert_eq!(total, 2);
    }
}
