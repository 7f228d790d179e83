//! Differential property tests for the compressed slice container.
//!
//! Roaring is an alternate physical layout of the same logical bit
//! vector: everything the container provides — population counts, point
//! probes, window fills, expansion, byte round-trips — must be
//! **bit-identical** to the uncompressed [`BitVec`] it came from, at
//! every density. The strategies sweep densities from ~0.1% (long zero
//! runs, the run/array sweet spot) through 50% (incompressible) to
//! ~99.9% (long one runs), with lengths that straddle the 65 536-bit
//! Roaring chunk boundary.
//!
//! The slice-family builder is checked the same way: the words it
//! writes a 64-row block at a time must equal one bit pushed per row
//! and slice.

use ebi_bitvec::builder::SliceFamilyBuilder;
use ebi_bitvec::roaring::{RoaringBitmap, WindowKind, CHUNK_BITS};
use ebi_bitvec::{
    BitVec, SliceStorage, StorageKind, StoragePolicy, SEGMENT_BITS, SEGMENT_WORDS, WORD_BITS,
};
use proptest::prelude::*;

/// Deterministic xorshift so bit contents derive from one seed.
fn next(state: &mut u64) -> u64 {
    let mut x = *state | 1;
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    *state = x;
    x
}

/// Random bits at `density_ppt` parts-per-thousand ones.
fn random_bits(len: usize, density_ppt: u64, seed: u64) -> BitVec {
    let mut state = seed;
    BitVec::from_bools((0..len).map(|_| next(&mut state) % 1000 < density_ppt))
}

/// Densities covering both compressible extremes and the midpoint.
fn density_ppt() -> impl Strategy<Value = u64> {
    prop::sample::select(vec![1u64, 50, 200, 500, 800, 950, 999])
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn roaring_count_and_roundtrip_match_dense(
        seed in any::<u64>(),
        len in 0usize..200_000,
        density in density_ppt(),
    ) {
        let bits = random_bits(len, density, seed);
        let roaring = RoaringBitmap::from_bitvec(&bits);
        prop_assert_eq!(roaring.count_ones(), bits.count_ones());
        prop_assert_eq!(roaring.to_bitvec(), bits, "lossless round-trip");
    }

    #[test]
    fn point_probes_match_dense(
        seed in any::<u64>(),
        len in 1usize..150_000,
        density in density_ppt(),
        probes in prop::collection::vec(any::<prop::sample::Index>(), 1..16),
    ) {
        let bits = random_bits(len, density, seed);
        let roaring = RoaringBitmap::from_bitvec(&bits);
        for p in probes {
            let i = p.index(len);
            prop_assert_eq!(roaring.bit(i), bits.bit(i), "roaring bit {}", i);
        }
    }

    #[test]
    fn window_fills_reconstruct_the_dense_words(
        seed in any::<u64>(),
        len in 1usize..150_000,
        density in density_ppt(),
    ) {
        let bits = random_bits(len, density, seed);
        let roaring = RoaringBitmap::from_bitvec(&bits);
        let words = bits.words();
        // Odd window width exercises unaligned starts; Roaring's
        // contract keeps each window inside one 1024-word chunk, so
        // clip at chunk edges (64-word segment windows always fit).
        const CHUNK_WORDS: usize = 1024;
        let mut buf_r = [0u64; 17];
        let mut start = 0usize;
        while start < words.len() {
            let take = buf_r
                .len()
                .min(words.len() - start)
                .min(CHUNK_WORDS - start % CHUNK_WORDS);
            let fr = roaring.fill_window(start, &mut buf_r[..take]);
            for (j, &want) in words[start..start + take].iter().enumerate() {
                let got_r = match fr.kind {
                    WindowKind::Zeros => 0,
                    WindowKind::Ones => !0u64,
                    WindowKind::Mixed => buf_r[j],
                };
                // The final word may carry garbage past `len` in the
                // container fills; compare only the valid lanes.
                let tail_bits = len - (start + j) * 64;
                let mask = if tail_bits >= 64 { !0u64 } else { (1u64 << tail_bits) - 1 };
                prop_assert_eq!(got_r & mask, want & mask, "roaring word {}", start + j);
            }
            start += take;
        }
    }

    #[test]
    fn slice_storage_round_trips_bytes_for_every_kind(
        seed in any::<u64>(),
        len in 0usize..150_000,
        density in density_ppt(),
    ) {
        let bits = random_bits(len, density, seed);
        for (policy, kind) in [
            (StoragePolicy::Dense, StorageKind::Dense),
            (StoragePolicy::Roaring, StorageKind::Roaring),
        ] {
            let stored = SliceStorage::from_dense(bits.clone(), policy);
            prop_assert_eq!(stored.kind(), kind);
            prop_assert_eq!(stored.len(), bits.len());
            prop_assert_eq!(stored.count_ones(), bits.count_ones());
            prop_assert_eq!(stored.to_dense(), bits.clone(), "{:?} lossless", kind);
            let reloaded = SliceStorage::from_bytes(&stored.to_bytes()).expect("decode");
            prop_assert_eq!(reloaded.kind(), kind, "byte tag preserves the kind");
            prop_assert_eq!(reloaded.to_dense(), bits.clone(), "{:?} byte round-trip", kind);
        }
        // Adaptive must pick *some* container that stays lossless.
        let adaptive = SliceStorage::from_dense(bits.clone(), StoragePolicy::Adaptive);
        prop_assert_eq!(adaptive.to_dense(), bits);
        let reloaded = SliceStorage::from_bytes(&adaptive.to_bytes()).expect("decode");
        prop_assert_eq!(reloaded.kind(), adaptive.kind());
        prop_assert_eq!(reloaded.to_dense(), bits);
    }

    #[test]
    fn repack_is_lossless_between_any_two_policies(
        seed in any::<u64>(),
        len in 0usize..100_000,
        density in density_ppt(),
    ) {
        let bits = random_bits(len, density, seed);
        let policies = [
            StoragePolicy::Dense,
            StoragePolicy::Roaring,
            StoragePolicy::Adaptive,
        ];
        for from in policies {
            let stored = SliceStorage::from_dense(bits.clone(), from);
            for to in policies {
                prop_assert_eq!(
                    stored.repack(to).to_dense(),
                    bits.clone(),
                    "repack {:?} -> {:?}",
                    from,
                    to
                );
            }
        }
    }

    /// Above its two-chunk floor, Adaptive keeps whichever container is
    /// smaller for the same bits, scattered or sorted into one run.
    #[test]
    fn adaptive_keeps_the_smaller_container_above_its_floor(
        seed in any::<u64>(),
        len in 2 * CHUNK_BITS..300_000,
        density in density_ppt(),
        sorted in any::<bool>(),
    ) {
        let mut bits = random_bits(len, density, seed);
        if sorted {
            let ones = bits.count_ones();
            bits = BitVec::from_bools((0..len).map(|i| i < ones));
        }
        let bytes = |policy| SliceStorage::from_dense(bits.clone(), policy).storage_bytes();
        let smaller = bytes(StoragePolicy::Dense).min(bytes(StoragePolicy::Roaring));
        prop_assert_eq!(bytes(StoragePolicy::Adaptive), smaller);
    }
}

proptest! {
    // Each case builds every width at every row count, two segments and
    // a ragged word the largest.
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn slice_family_words_match_one_bit_per_row(seed in any::<u64>(), build in 0u8..3) {
        // Each row's code is 0, all ones or random bits below the width,
        // so the blocks hold runs as well as noise; width 64 puts bit 63
        // in about half the codes. The builder is sized, or not, or starts
        // one slice wide and widens to each code that needs more.
        for width in [1usize, 2, 13, 63, 64] {
            let mask = u64::MAX >> (WORD_BITS - width);
            for rows in [0usize, 1, 63, 64, 65, 127, 2 * SEGMENT_BITS + 3] {
                let mut state = seed ^ (width * rows) as u64;
                let codes: Vec<u64> = (0..rows)
                    .map(|_| match next(&mut state) % 3 {
                        0 => 0,
                        1 => mask,
                        _ => next(&mut state) & mask,
                    })
                    .collect();
                let mut fam = match build {
                    0 => SliceFamilyBuilder::with_capacity(width, rows),
                    1 => SliceFamilyBuilder::new(width),
                    _ => SliceFamilyBuilder::with_capacity(1, rows),
                };
                for &c in &codes {
                    // A no-op unless the builder started narrower.
                    fam.widen(WORD_BITS - c.leading_zeros() as usize);
                    fam.push_code(c);
                }
                prop_assert_eq!(fam.rows(), rows);
                let built = fam.finish();
                let needed = codes.iter().map(|c| WORD_BITS - c.leading_zeros() as usize);
                let want = if build == 2 { needed.max().unwrap_or(0).max(1) } else { width };
                prop_assert_eq!(built.len(), want);
                for (i, slice) in built.iter().enumerate() {
                    let reference = BitVec::from_bools(codes.iter().map(|c| c >> i & 1 == 1));
                    prop_assert_eq!(slice.len(), rows, "width {} slice {}", width, i);
                    prop_assert_eq!(slice.words(), reference.words(), "width {} slice {}", width, i);
                    prop_assert_eq!(slice.count_ones(), reference.count_ones());
                    let ragged = rows % WORD_BITS;
                    if ragged != 0 {
                        let last = slice.words()[rows / WORD_BITS];
                        prop_assert_eq!(last >> ragged, 0, "width {} slice {}: bits past the end", width, i);
                    }
                }
            }
        }
    }
}

/// `bits` as a Roaring image whose every chunk is an Array container.
/// The writer stores a full tail as one run, so only a persisted image
/// holds a nearly full Array; `from_bytes` accepts it.
fn array_image(bits: &BitVec) -> RoaringBitmap {
    let mut chunks: Vec<(u32, Vec<u16>)> = Vec::new();
    for i in bits.iter_ones() {
        let (key, pos) = ((i / CHUNK_BITS) as u32, (i % CHUNK_BITS) as u16);
        match chunks.last_mut() {
            Some((k, positions)) if *k == key => positions.push(pos),
            _ => chunks.push((key, vec![pos])),
        }
    }
    let mut image = (bits.len() as u64).to_le_bytes().to_vec();
    image.extend((chunks.len() as u32).to_le_bytes());
    for (key, positions) in chunks {
        image.extend(key.to_le_bytes());
        image.push(0);
        image.extend((positions.len() as u32).to_le_bytes());
        positions.iter().for_each(|p| image.extend(p.to_le_bytes()));
    }
    RoaringBitmap::from_bytes(&image).expect("a valid image")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// The last window of a table of `2^16·n + r` rows, from an Array
    /// container that holds none, all, or all but one of its `r` rows:
    /// `fill_window` classifies it as the dense words do and fills the
    /// mixed one with them.
    #[test]
    fn ragged_last_window_of_an_array_matches_the_dense_words(
        seed in any::<u64>(),
        chunks in 0usize..3,
        drawn in 1usize..CHUNK_BITS,
        missing in any::<prop::sample::Index>(),
    ) {
        for r in [1, 63, 64, 4_097, drawn] {
            let len = chunks * CHUNK_BITS + r;
            let head = chunks * CHUNK_BITS;
            let gap = head + missing.index(r);
            for shape in ["empty", "full", "full but one"] {
                let mut bits = random_bits(head, 500, seed);
                bits.grow(len);
                if shape != "empty" {
                    (head..len).filter(|&i| shape == "full" || i != gap)
                        .for_each(|i| bits.set(i, true));
                }
                let roaring = array_image(&bits);
                let words = bits.words();
                let start = (words.len() - 1) / SEGMENT_WORDS * SEGMENT_WORDS;
                let mut out = vec![0xDEAD_BEEF; words.len() - start];
                let fill = roaring.fill_window(start, &mut out);

                let valid = len - start * WORD_BITS;
                let ones = (start * WORD_BITS..len).filter(|&i| bits.bit(i)).count();
                let want = match ones {
                    0 => WindowKind::Zeros,
                    n if n == valid => WindowKind::Ones,
                    _ => WindowKind::Mixed,
                };
                let case = format!("{shape} tail, {len} rows");
                prop_assert_eq!(fill.kind, want, "{}", case);
                if fill.kind == WindowKind::Mixed {
                    prop_assert_eq!(&out[..], &words[start..], "{}", case);
                }
            }
        }
    }
}

#[test]
fn window_fill_reports_uniform_runs_without_touching_the_buffer() {
    // A long all-zero prefix then a dense suffix: the zero windows must
    // classify as `Zeros` (run-skipped), charging no per-word work.
    let mut bits = BitVec::zeros(200_000);
    for i in 190_000..200_000 {
        bits.set(i, i % 2 == 0);
    }
    let roaring = RoaringBitmap::from_bitvec(&bits);
    let mut buf = [0u64; 64];
    let fill = roaring.fill_window(0, &mut buf);
    assert_eq!(fill.kind, WindowKind::Zeros);
}
