//! Differential property test for the WAH codec.
//!
//! Compression must be lossless and the compressed-domain popcount must
//! match the dense vector at every density. The strategies sweep
//! densities from ~0.1% (long zero fills) through 50% (all literals) to
//! ~99.9% (long one fills), with lengths that end on a partial 63-bit
//! group as often as on a whole one, so fill merging, fills that meet a
//! partial tail group and the tail clamps are all exercised.

use ebi_baselines::wah::WahBitmap;
use ebi_bitvec::BitVec;
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
    fn wah_count_and_roundtrip_match_dense(
        seed in any::<u64>(),
        len in 0usize..60_000,
        density in density_ppt(),
    ) {
        let bits = random_bits(len, density, seed);
        let wah = WahBitmap::compress(&bits);
        prop_assert_eq!(wah.len(), bits.len());
        prop_assert_eq!(wah.count_ones(), bits.count_ones());
        prop_assert_eq!(wah.decompress(), bits, "lossless round-trip");
    }
}
