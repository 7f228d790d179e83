//! Differential property tests for the compressed slice containers.
//!
//! Roaring and WAH are alternate physical layouts of the same logical
//! bit vector: everything a container provides — population counts,
//! point probes, window fills, expansion, byte round-trips — must be
//! **bit-identical** to the uncompressed [`BitVec`] it came from, at
//! every density. The strategies sweep densities from ~0.1% (long zero
//! runs, the run/array sweet spot) through 50% (incompressible) to
//! ~99.9% (long one runs), with lengths that straddle the 65 536-bit
//! Roaring chunk boundary and WAH's 63-bit groups.

use ebi_bitvec::roaring::{RoaringBitmap, WindowKind};
use ebi_bitvec::wah::{WahBitmap, WahCursor};
use ebi_bitvec::{BitVec, SliceStorage, StorageKind, StoragePolicy};
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
    fn wah_count_and_roundtrip_match_dense(
        seed in any::<u64>(),
        len in 0usize..60_000,
        density in density_ppt(),
    ) {
        let bits = random_bits(len, density, seed);
        let wah = WahBitmap::compress(&bits);
        prop_assert_eq!(wah.count_ones(), bits.count_ones());
        prop_assert_eq!(wah.decompress(), bits, "lossless round-trip");
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
        let wah = WahBitmap::compress(&bits);
        for p in probes {
            let i = p.index(len);
            prop_assert_eq!(roaring.bit(i), bits.bit(i), "roaring bit {}", i);
            prop_assert_eq!(wah.bit(i), bits.bit(i), "wah bit {}", i);
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
        let wah = WahBitmap::compress(&bits);
        let mut cursor = WahCursor::new(&wah);
        let words = bits.words();
        // Odd window width exercises unaligned starts; Roaring's
        // contract keeps each window inside one 1024-word chunk, so
        // clip at chunk edges (64-word segment windows always fit).
        const CHUNK_WORDS: usize = 1024;
        let mut buf_r = [0u64; 17];
        let mut buf_w = [0u64; 17];
        let mut start = 0usize;
        while start < words.len() {
            let take = buf_r
                .len()
                .min(words.len() - start)
                .min(CHUNK_WORDS - start % CHUNK_WORDS);
            let fr = roaring.fill_window(start, &mut buf_r[..take]);
            let fw = cursor.fill_window(start, &mut buf_w[..take]);
            for (j, &want) in words[start..start + take].iter().enumerate() {
                let got_r = match fr.kind {
                    WindowKind::Zeros => 0,
                    WindowKind::Ones => !0u64,
                    WindowKind::Mixed => buf_r[j],
                };
                let got_w = match fw.kind {
                    WindowKind::Zeros => 0,
                    WindowKind::Ones => !0u64,
                    WindowKind::Mixed => buf_w[j],
                };
                // The final word may carry garbage past `len` in the
                // container fills; compare only the valid lanes.
                let tail_bits = len - (start + j) * 64;
                let mask = if tail_bits >= 64 { !0u64 } else { (1u64 << tail_bits) - 1 };
                prop_assert_eq!(got_r & mask, want & mask, "roaring word {}", start + j);
                prop_assert_eq!(got_w & mask, want & mask, "wah word {}", start + j);
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
            (StoragePolicy::Wah, StorageKind::Wah),
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
            StoragePolicy::Wah,
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
    let wah = WahBitmap::compress(&bits);
    let mut cursor = WahCursor::new(&wah);
    let fill = cursor.fill_window(0, &mut buf);
    assert_eq!(fill.kind, WindowKind::Zeros);
}
