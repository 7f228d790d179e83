//! Run statistics for bitmap containers.
//!
//! Sorting the fact table before building its index (Lemire/Kaser/
//! Aouiche) pays off exactly when it lengthens the runs of identical
//! bits inside each slice — longer runs mean more Roaring run containers
//! and more uniform evaluation windows the stored kernels can skip from
//! metadata alone. [`RunStats`] is the per-slice measurement of that
//! quantity, so the sorting win is observable per slice rather than only
//! in aggregate storage bytes.
//!
//! Both containers report the same statistics over the same bit
//! sequence, in 64-bit words:
//!
//! * `runs` / `longest_run` — maximal runs of **set** bits, in bits.
//! * `fill_words` / `total_words` — how many words were uniform
//!   (all-zero or all-one over their valid bits).

/// Run statistics of one bitmap: how run-friendly its bit layout is.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RunStats {
    /// Number of maximal runs of set bits.
    pub runs: u64,
    /// Length in bits of the longest run of set bits.
    pub longest_run: u64,
    /// Words that were uniform — all-zero or all-one over their valid
    /// bits.
    pub fill_words: u64,
    /// Total words examined.
    pub total_words: u64,
}

impl RunStats {
    /// Statistics of the word-packed bitmap `words` holding `len_bits`
    /// valid bits (trailing bits of the last word are ignored).
    #[must_use]
    pub fn from_words(words: &[u64], len_bits: usize) -> Self {
        let mut st = Self::default();
        let mut cur = 0u64;
        st.scan_words(&mut cur, words, len_bits);
        st
    }

    /// Folds `other` into `self` for whole-index aggregation. Runs are
    /// summed (slices are independent bitmaps, so no run spans two).
    pub fn merge(&mut self, other: &Self) {
        self.runs += other.runs;
        self.longest_run = self.longest_run.max(other.longest_run);
        self.fill_words += other.fill_words;
        self.total_words += other.total_words;
    }

    /// Scans `len_bits` valid bits of `words`, updating word accounting
    /// and run lengths. `cur` carries the length of the in-progress run
    /// of ones across calls (callers stream one container in order).
    pub(crate) fn scan_words(&mut self, cur: &mut u64, words: &[u64], len_bits: usize) {
        let mut remaining = len_bits;
        for &raw in words {
            if remaining == 0 {
                break;
            }
            let valid = remaining.min(64) as u32;
            let mask = if valid == 64 {
                u64::MAX
            } else {
                (1u64 << valid) - 1
            };
            let w = raw & mask;
            self.total_words += 1;
            if w == 0 || w == mask {
                self.fill_words += 1;
            }
            self.scan_word(cur, w, valid);
            remaining -= valid as usize;
        }
    }

    /// Run accounting for one word of `valid` bits.
    fn scan_word(&mut self, cur: &mut u64, w: u64, valid: u32) {
        let mut bit = 0u32;
        while bit < valid {
            let rest = w >> bit;
            if rest & 1 == 0 {
                *cur = 0;
                bit += rest.trailing_zeros().min(valid - bit);
            } else {
                let ones = (!rest).trailing_zeros().min(valid - bit);
                if *cur == 0 {
                    self.runs += 1;
                }
                *cur += u64::from(ones);
                self.longest_run = self.longest_run.max(*cur);
                bit += ones;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::core::BitVec;
    use crate::roaring::RoaringBitmap;
    use crate::store::{SliceStorage, StoragePolicy};

    #[test]
    fn empty_and_uniform() {
        assert_eq!(RunStats::from_words(&[], 0), RunStats::default());

        let zeros = BitVec::zeros(1000);
        let st = zeros.run_stats();
        assert_eq!(st.runs, 0);
        assert_eq!(st.longest_run, 0);
        assert_eq!(st.total_words, 16);
        assert_eq!(st.fill_words, 16);

        let ones = BitVec::ones(1000);
        let st = ones.run_stats();
        assert_eq!(st.runs, 1);
        assert_eq!(st.longest_run, 1000);
    }

    #[test]
    fn runs_across_word_boundaries() {
        // One run spanning three words, one short run, one lone bit.
        let mut b = BitVec::zeros(300);
        for i in 60..140 {
            b.set(i, true);
        }
        for i in 200..203 {
            b.set(i, true);
        }
        b.set(299, true);
        let st = b.run_stats();
        assert_eq!(st.runs, 3);
        assert_eq!(st.longest_run, 80);
        assert_eq!(st.total_words, 5);
        assert_eq!(st.fill_words, 1, "only word 1 (bits 64..128) is uniform");
    }

    #[test]
    fn tail_word_bits_are_ignored() {
        // 70 bits: last word has 6 valid bits, set them all.
        let mut b = BitVec::zeros(70);
        for i in 64..70 {
            b.set(i, true);
        }
        let st = b.run_stats();
        assert_eq!(st.runs, 1);
        assert_eq!(st.longest_run, 6);
        assert_eq!(st.fill_words, 2, "all-zero word 0 and all-valid-ones tail");
    }

    #[test]
    fn containers_agree_on_run_structure() {
        type Pattern = (usize, Box<dyn Fn(usize) -> bool>);
        let patterns: [Pattern; 4] = [
            (200_000, Box::new(|i| (30_000..90_000).contains(&i))),
            (200_000, Box::new(|i| i % 97 == 0)),
            (150_000, Box::new(|i| i % 1000 < 700)),
            (66_000, Box::new(|i| i / 7 % 3 == 0)),
        ];
        for (len, f) in patterns {
            let bits: BitVec = (0..len).map(&f).collect();
            let dense = bits.run_stats();
            let roar = RoaringBitmap::from_bitvec(&bits).run_stats();
            assert_eq!(roar, dense);
        }
    }

    #[test]
    fn slice_storage_dispatches() {
        let bits: BitVec = (0..150_000).map(|i| i % 1000 < 10).collect();
        let reference = bits.run_stats();
        for policy in [StoragePolicy::Dense, StoragePolicy::Roaring] {
            let st = SliceStorage::from_dense(bits.clone(), policy).run_stats();
            assert_eq!(st.runs, reference.runs, "{policy:?}");
            assert_eq!(st.longest_run, reference.longest_run, "{policy:?}");
        }
    }

    #[test]
    fn merge_aggregates() {
        let a = RunStats {
            runs: 3,
            longest_run: 10,
            fill_words: 4,
            total_words: 8,
        };
        let mut b = RunStats {
            runs: 2,
            longest_run: 40,
            fill_words: 1,
            total_words: 8,
        };
        b.merge(&a);
        assert_eq!(b.runs, 5);
        assert_eq!(b.longest_run, 40);
        assert_eq!(b.fill_words, 5);
        assert_eq!(b.total_words, 16);
    }
}
