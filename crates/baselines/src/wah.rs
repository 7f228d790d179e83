//! Word-Aligned-Hybrid (WAH) run-length compression of bitmap vectors.
//!
//! The paper notes (§2.1, §4) that the sparsity of simple bitmap vectors —
//! on average `(m-1)/m` of their bits are zero for a cardinality-`m`
//! attribute — is usually attacked with run-length compression. This
//! module is a 64-bit WAH codec, so the sparsity/space experiments can
//! compare:
//!
//! * uncompressed simple bitmaps,
//! * WAH-compressed [`SimpleBitmapIndex`](crate::SimpleBitmapIndex)
//!   vectors, and
//! * encoded bitmaps (which have density ≈ 1/2 and barely compress —
//!   exactly the trade-off the encoded index makes: fewer, denser vectors).
//!
//! It is a codec for that comparison, not a slice container: the encoded
//! index stores its slices dense or as Roaring containers
//! ([`ebi_bitvec::SliceStorage`]).
//!
//! ## Layout
//!
//! Each code word is a `u64`:
//!
//! * **Literal** (`MSB = 0`): 63 payload bits verbatim.
//! * **Fill** (`MSB = 1`): bit 62 is the fill value, bits 0..62 count how
//!   many 63-bit groups the run covers.
//!
//! The final group may be partial; `len` records the exact bit count.

use ebi_bitvec::{BitVec, WORD_BITS};

/// Bits covered by one WAH group.
pub const GROUP_BITS: usize = 63;

const FILL_FLAG: u64 = 1 << 63;
const FILL_VALUE: u64 = 1 << 62;
const COUNT_MASK: u64 = FILL_VALUE - 1;
const PAYLOAD_MASK: u64 = (1 << 63) - 1;

/// A WAH-compressed, immutable bitmap.
///
/// ```
/// use ebi_baselines::wah::WahBitmap;
/// use ebi_bitvec::BitVec;
///
/// let sparse = BitVec::from_positions(100_000, &[5, 70_000]);
/// let wah = WahBitmap::compress(&sparse);
/// assert_eq!(wah.count_ones(), 2);
/// assert!(wah.compression_ratio() < 0.01, "long zero runs collapse");
/// assert_eq!(wah.decompress(), sparse);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WahBitmap {
    code: Vec<u64>,
    len: usize,
}

impl WahBitmap {
    /// Compresses `bits`.
    #[must_use]
    pub fn compress(bits: &BitVec) -> Self {
        let mut code: Vec<u64> = Vec::new();
        let n_groups = bits.len().div_ceil(GROUP_BITS);
        for g in 0..n_groups {
            let start = g * GROUP_BITS;
            let end = (start + GROUP_BITS).min(bits.len());
            let mut payload = 0u64;
            for (off, i) in (start..end).enumerate() {
                if bits.bit(i) {
                    payload |= 1u64 << off;
                }
            }
            let width = end - start;
            let full_ones = width == GROUP_BITS && payload == PAYLOAD_MASK;
            let full_zeros = width == GROUP_BITS && payload == 0;
            if full_ones || full_zeros {
                let value = full_ones;
                if let Some(last) = code.last_mut() {
                    if *last & FILL_FLAG != 0
                        && (*last & FILL_VALUE != 0) == value
                        && (*last & COUNT_MASK) < COUNT_MASK
                    {
                        *last += 1;
                        continue;
                    }
                }
                code.push(FILL_FLAG | if value { FILL_VALUE } else { 0 } | 1);
            } else {
                code.push(payload);
            }
        }
        Self {
            code,
            len: bits.len(),
        }
    }

    /// Decompresses back to a plain [`BitVec`].
    #[must_use]
    pub fn decompress(&self) -> BitVec {
        let mut out = BitVec::with_capacity(self.len);
        let mut remaining = self.len;
        for &w in &self.code {
            if w & FILL_FLAG != 0 {
                let value = w & FILL_VALUE != 0;
                let groups = (w & COUNT_MASK) as usize;
                let bits = (groups * GROUP_BITS).min(remaining);
                out.push_run(value, bits);
                remaining -= bits;
            } else {
                let width = GROUP_BITS.min(remaining);
                for off in 0..width {
                    out.push(w >> off & 1 == 1);
                }
                remaining -= width;
            }
        }
        debug_assert_eq!(remaining, 0);
        out
    }

    /// Number of bits represented.
    #[must_use]
    pub fn len(&self) -> usize {
        self.len
    }

    /// `true` if no bits are represented.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Compressed size in bytes (code words only).
    #[must_use]
    pub fn storage_bytes(&self) -> usize {
        self.code.len() * 8
    }

    /// Compression ratio versus the uncompressed word-packed form
    /// (`< 1.0` means the compressed form is smaller).
    #[must_use]
    pub fn compression_ratio(&self) -> f64 {
        let raw = self.len.div_ceil(WORD_BITS) * 8;
        if raw == 0 {
            return 1.0;
        }
        self.storage_bytes() as f64 / raw as f64
    }

    /// Population count, computed directly on the compressed form.
    #[must_use]
    pub fn count_ones(&self) -> usize {
        let mut total = 0usize;
        let mut covered = 0usize;
        for &w in &self.code {
            if w & FILL_FLAG != 0 {
                let groups = (w & COUNT_MASK) as usize;
                let bits = (groups * GROUP_BITS).min(self.len - covered);
                if w & FILL_VALUE != 0 {
                    total += bits;
                }
                covered += bits;
            } else {
                // Literal payloads beyond `len` are zero by construction.
                total += w.count_ones() as usize;
                covered = (covered + GROUP_BITS).min(self.len);
            }
        }
        total
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn patterned(len: usize, f: impl Fn(usize) -> bool) -> BitVec {
        (0..len).map(f).collect()
    }

    #[test]
    fn roundtrip_various_shapes() {
        for (name, bits) in [
            ("empty", BitVec::new()),
            ("all zero", BitVec::zeros(1000)),
            ("all one", BitVec::ones(1000)),
            ("sparse", BitVec::from_positions(10_000, &[3, 5000, 9999])),
            ("alternating", patterned(500, |i| i % 2 == 0)),
            (
                "partial tail",
                patterned(GROUP_BITS * 3 + 7, |i| i % 5 == 0),
            ),
        ] {
            let wah = WahBitmap::compress(&bits);
            assert_eq!(wah.decompress(), bits, "{name}");
            assert_eq!(wah.count_ones(), bits.count_ones(), "{name} popcount");
            assert_eq!(wah.len(), bits.len(), "{name} len");
        }
    }

    #[test]
    fn sparse_bitmap_compresses_well() {
        let bits = BitVec::from_positions(1_000_000, &[0, 999_999]);
        let wah = WahBitmap::compress(&bits);
        assert!(
            wah.compression_ratio() < 0.01,
            "ratio {}",
            wah.compression_ratio()
        );
    }

    #[test]
    fn dense_random_bitmap_barely_compresses() {
        // Density ≈ 1/2 is the encoded-index regime: RLE gains nothing.
        let bits = patterned(100_000, |i| (i * 2654435761) % 97 < 48);
        let wah = WahBitmap::compress(&bits);
        assert!(
            wah.compression_ratio() > 0.9,
            "ratio {}",
            wah.compression_ratio()
        );
    }

    #[test]
    fn ratio_is_against_whole_words() {
        // 65 bits occupy two words uncompressed and one WAH literal plus
        // one more: 16 bytes against 16.
        let wah = WahBitmap::compress(&patterned(65, |i| i % 3 == 0));
        assert_eq!(wah.storage_bytes(), 16);
        assert!((wah.compression_ratio() - 1.0).abs() < 1e-12);
        assert!((WahBitmap::compress(&BitVec::new()).compression_ratio() - 1.0).abs() < 1e-12);
    }
}
