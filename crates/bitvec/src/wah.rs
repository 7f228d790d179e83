//! Word-Aligned-Hybrid (WAH) run-length-compressed bitmaps.
//!
//! The paper notes (§2.1, §4) that the sparsity of simple bitmap vectors —
//! on average `(m-1)/m` ones are zero for a cardinality-`m` attribute — is
//! usually attacked with run-length compression. This module implements a
//! 64-bit WAH variant so the sparsity/space experiments can compare:
//!
//! * uncompressed simple bitmaps,
//! * WAH-compressed simple bitmaps, and
//! * encoded bitmaps (which have density ≈ 1/2 and barely compress —
//!   exactly the trade-off the encoded index makes: fewer, denser vectors).
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

use crate::core::BitVec;
use crate::error::BitVecError;
use crate::roaring::{WindowFill, WindowKind};
use crate::serial::ByteReader;

/// Bits covered by one WAH group.
pub const GROUP_BITS: usize = 63;

const FILL_FLAG: u64 = 1 << 63;
const FILL_VALUE: u64 = 1 << 62;
const COUNT_MASK: u64 = FILL_VALUE - 1;
const PAYLOAD_MASK: u64 = (1 << 63) - 1;

/// A WAH-compressed, immutable bitmap.
///
/// ```
/// use ebi_bitvec::{wah::WahBitmap, BitVec};
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
        let raw = BitVec::zeros(self.len).storage_bytes();
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

    /// Run statistics computed directly on the compressed form: fill
    /// words contribute whole runs without decoding, literal payloads
    /// are scanned bit-run-wise. Granules are WAH's native 63-bit
    /// groups (a fill counting `n` groups contributes `n`), so compare
    /// `fill_word_fraction()` — not raw word counts — with the dense
    /// and Roaring containers.
    #[must_use]
    pub fn run_stats(&self) -> crate::runs::RunStats {
        let mut st = crate::runs::RunStats::default();
        let mut cur = 0u64;
        let mut remaining = self.len;
        for &w in &self.code {
            if w & FILL_FLAG != 0 {
                let groups = w & COUNT_MASK;
                let bits = ((groups as usize) * GROUP_BITS).min(remaining);
                st.total_words += groups;
                st.fill_words += groups;
                if w & FILL_VALUE != 0 {
                    if cur == 0 {
                        st.runs += 1;
                    }
                    cur += bits as u64;
                    st.longest_run = st.longest_run.max(cur);
                } else {
                    cur = 0;
                }
                remaining -= bits;
            } else {
                let width = GROUP_BITS.min(remaining) as u32;
                let mask = if width as usize == GROUP_BITS {
                    PAYLOAD_MASK
                } else {
                    (1u64 << width) - 1
                };
                let p = w & mask;
                st.total_words += 1;
                if p == 0 || p == mask {
                    st.fill_words += 1;
                }
                st.scan_word(&mut cur, p, width);
                remaining -= width as usize;
            }
        }
        st
    }

    /// Value of bit `i`, by scanning the code sequence.
    ///
    /// `O(code words)` — fine for spot probes (row decoding); bulk reads
    /// should go through [`WahCursor`] or [`WahBitmap::decompress`].
    ///
    /// # Panics
    ///
    /// Panics if `i >= self.len()`.
    #[must_use]
    pub fn bit(&self, i: usize) -> bool {
        assert!(i < self.len, "bit {i} out of range for {} bits", self.len);
        let mut group = i / GROUP_BITS;
        for &w in &self.code {
            if w & FILL_FLAG != 0 {
                let groups = (w & COUNT_MASK) as usize;
                if group < groups {
                    return w & FILL_VALUE != 0;
                }
                group -= groups;
            } else {
                if group == 0 {
                    return w >> (i % GROUP_BITS) & 1 == 1;
                }
                group -= 1;
            }
        }
        unreachable!("code words do not cover bit {i}")
    }

    /// Serialises as `[u64 len][u64 code words...]`, little-endian.
    #[must_use]
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(8 + self.code.len() * 8);
        out.extend_from_slice(&(self.len as u64).to_le_bytes());
        for &w in &self.code {
            out.extend_from_slice(&w.to_le_bytes());
        }
        out
    }

    /// Parses the layout from [`WahBitmap::to_bytes`].
    ///
    /// # Errors
    ///
    /// Returns [`BitVecError::Corrupt`] if the buffer is truncated, the
    /// code words do not cover exactly the declared bit count, a fill
    /// covers no group, the trailing literal has bits beyond the length,
    /// or the length is so close to `usize::MAX` that the bit offset of
    /// its last group's end cannot be computed.
    pub fn from_bytes(raw: &[u8]) -> Result<Self, BitVecError> {
        let corrupt = |detail: String| BitVecError::Corrupt { detail };
        let mut r = ByteReader::new(raw);
        let len = r.length()?;
        if !r.remaining().is_multiple_of(8) {
            return Err(corrupt(format!(
                "WAH code of {} bytes is not word-aligned",
                r.remaining()
            )));
        }
        let code = r.u64s(r.remaining() / 8)?;
        // The last group may be partial, so coverage must reach len and
        // not exceed it by a whole group. The bound is also what the
        // cursor relies on when it multiplies group indices back into
        // bit offsets: none of them exceeds `covered`.
        let limit = len
            .checked_add(GROUP_BITS - 1)
            .ok_or_else(|| corrupt(format!("WAH length {len} too close to usize::MAX")))?;
        let mut covered = 0usize;
        for &w in &code {
            let groups = WahCursor::piece_groups(w);
            // Whole groups that still fit under the limit, which keeps
            // the product below from overflowing.
            let room = ((limit - covered) / GROUP_BITS) as u64;
            if groups == 0 || groups > room {
                return Err(corrupt(format!(
                    "WAH code word {w:#x} covers no group or overruns the declared {len} bits"
                )));
            }
            covered += groups as usize * GROUP_BITS;
        }
        if covered < len {
            return Err(corrupt(format!(
                "WAH code covers {covered} bits but header declares {len}"
            )));
        }
        // `count_ones` trusts the trailing literal to be zero past `len`.
        match code.last() {
            Some(&w) if w & FILL_FLAG == 0 && w >> (GROUP_BITS - (covered - len)) != 0 => {
                Err(corrupt("set bits beyond declared length".into()))
            }
            _ => Ok(Self { code, len }),
        }
    }
}

/// Resumable decoder that materialises word-aligned evaluation windows
/// out of a WAH code sequence without decompressing the whole bitmap.
///
/// The segment-major evaluator asks for windows in ascending row order;
/// the cursor remembers which code piece it sits on, so a full sweep
/// costs `O(code words + windows)` despite the 63-bit groups never
/// aligning with the 64-bit window words. Asking for an earlier window
/// resets and rescans from the front.
#[derive(Debug)]
pub struct WahCursor<'a> {
    wah: &'a WahBitmap,
    /// Index of the code piece the cursor sits on.
    idx: usize,
    /// Absolute index of the first group covered by piece `idx`.
    group: u64,
}

impl<'a> WahCursor<'a> {
    /// Opens a cursor at the start of `wah`.
    #[must_use]
    pub fn new(wah: &'a WahBitmap) -> Self {
        Self {
            wah,
            idx: 0,
            group: 0,
        }
    }

    /// Groups covered by code piece `w`.
    fn piece_groups(w: u64) -> u64 {
        if w & FILL_FLAG != 0 {
            w & COUNT_MASK
        } else {
            1
        }
    }

    /// Materialises the window covering bits
    /// `start_word * 64 .. (start_word + out.len()) * 64` (clipped to
    /// the bitmap length) into `out`, or classifies a window lying
    /// wholly inside one fill as uniform without writing any words.
    ///
    /// # Panics
    ///
    /// Panics if the window starts at or past the end of a non-empty
    /// bitmap.
    pub fn fill_window(&mut self, start_word: usize, out: &mut [u64]) -> WindowFill {
        let ws = start_word * 64;
        let len = self.wah.len;
        assert!(ws < len || len == 0, "window starts past end");
        let valid = (len - ws).min(out.len() * 64);
        let we_valid = ws + valid;
        let mut touched = 0u64;
        if self.group as usize * GROUP_BITS > ws {
            self.idx = 0;
            self.group = 0;
        }
        // Seek: skip pieces that end at or before the window start.
        let code = &self.wah.code;
        while self.idx < code.len() {
            let g = Self::piece_groups(code[self.idx]);
            if (self.group + g) as usize * GROUP_BITS <= ws {
                self.idx += 1;
                self.group += g;
                touched += 8;
            } else {
                break;
            }
        }
        // Uniform fast path: the whole (valid) window inside one fill.
        if self.idx < code.len() {
            let w = code[self.idx];
            if w & FILL_FLAG != 0 {
                let end_bit = (self.group + (w & COUNT_MASK)) as usize * GROUP_BITS;
                if end_bit >= we_valid {
                    return WindowFill {
                        kind: if w & FILL_VALUE != 0 {
                            WindowKind::Ones
                        } else {
                            WindowKind::Zeros
                        },
                        bytes_touched: touched + 8,
                    };
                }
            }
        }
        // Mixed: decode every piece overlapping the window.
        out.fill(0);
        let we = ws + out.len() * 64;
        let (mut i, mut g0) = (self.idx, self.group);
        let mut any = false;
        while i < code.len() && (g0 as usize) * GROUP_BITS < we {
            let w = code[i];
            touched += 8;
            if w & FILL_FLAG != 0 {
                let groups = w & COUNT_MASK;
                if w & FILL_VALUE != 0 {
                    let a = ((g0 as usize) * GROUP_BITS).max(ws);
                    let b = (((g0 + groups) as usize) * GROUP_BITS).min(we_valid);
                    if a < b {
                        set_bit_range(out, a - ws, b - ws);
                        any = true;
                    }
                }
                g0 += groups;
            } else {
                let off = (g0 as usize * GROUP_BITS) as i64 - ws as i64;
                if w & PAYLOAD_MASK != 0 {
                    scatter_group(out, off, w & PAYLOAD_MASK);
                    any = true;
                }
                g0 += 1;
            }
            i += 1;
        }
        WindowFill {
            kind: if any {
                WindowKind::Mixed
            } else {
                WindowKind::Zeros
            },
            bytes_touched: touched,
        }
    }
}

/// Sets bits `start..end` (exclusive) in a packed word buffer.
fn set_bit_range(out: &mut [u64], start: usize, end: usize) {
    debug_assert!(start < end && end <= out.len() * 64);
    let (ws, we) = (start / 64, (end - 1) / 64);
    let lo_mask = !0u64 << (start % 64);
    let hi_mask = !0u64 >> (63 - (end - 1) % 64);
    if ws == we {
        out[ws] |= lo_mask & hi_mask;
    } else {
        out[ws] |= lo_mask;
        for w in &mut out[ws + 1..we] {
            *w = !0;
        }
        out[we] |= hi_mask;
    }
}

/// ORs a 63-bit group payload into `out` at signed bit offset `off`
/// (negative when the group starts before the window; bits outside the
/// window are dropped).
fn scatter_group(out: &mut [u64], off: i64, payload: u64) {
    let (pos, payload) = if off < 0 {
        (0usize, payload >> (-off).min(64) as u32)
    } else {
        (off as usize, payload)
    };
    if payload == 0 || pos >= out.len() * 64 {
        return;
    }
    let (w, b) = (pos / 64, pos % 64);
    out[w] |= payload << b;
    if b > 0 && w + 1 < out.len() {
        out[w + 1] |= payload >> (64 - b);
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
    fn cursor_windows_match_dense_words() {
        let len = 300_000 + 17; // partial tail group and partial tail word
        let bits = patterned(len, |i| {
            (i.wrapping_mul(2654435761)) % 251 < 2 || (50_000..180_000).contains(&i)
        });
        let wah = WahBitmap::compress(&bits);
        let mut cur = WahCursor::new(&wah);
        let words = bits.words();
        let mut buf = [0u64; 64];
        let mut start = 0;
        while start < words.len() {
            let n = 64.min(words.len() - start);
            let w = cur.fill_window(start, &mut buf[..n]);
            let dense = &words[start..start + n];
            match w.kind {
                crate::roaring::WindowKind::Mixed => {
                    assert_eq!(&buf[..n], dense, "window @{start}");
                }
                crate::roaring::WindowKind::Zeros => {
                    assert!(dense.iter().all(|&x| x == 0), "window @{start}");
                }
                crate::roaring::WindowKind::Ones => {
                    let valid = (len - start * 64).min(n * 64);
                    for (j, &x) in dense.iter().enumerate() {
                        let bits_here = (valid - j * 64).min(64);
                        let mask = if bits_here == 64 {
                            !0
                        } else {
                            (1u64 << bits_here) - 1
                        };
                        assert_eq!(x & mask, mask, "window @{start} word {j}");
                    }
                }
            }
            start += n;
        }
    }

    #[test]
    fn cursor_long_fill_windows_stay_uniform_and_cheap() {
        let rows = GROUP_BITS * 64 * 1000;
        let sparse = WahBitmap::compress(&BitVec::from_positions(rows, &[0, rows - 1]));
        let mut cur = WahCursor::new(&sparse);
        let mut buf = [0u64; 64];
        // A window deep inside the long zero fill never decodes groups.
        let w = cur.fill_window(3000, &mut buf);
        assert_eq!(w.kind, crate::roaring::WindowKind::Zeros);
        assert!(w.bytes_touched <= 3 * 8, "{} bytes", w.bytes_touched);
        // Regressing to an earlier window rescans but stays correct.
        let w = cur.fill_window(0, &mut buf);
        assert_eq!(w.kind, crate::roaring::WindowKind::Mixed);
        assert_eq!(buf[0], 1);
    }

    #[test]
    fn serialisation_roundtrip() {
        let bits = patterned(12_345, |i| i % 13 == 0);
        let wah = WahBitmap::compress(&bits);
        let restored = WahBitmap::from_bytes(&wah.to_bytes()).unwrap();
        assert_eq!(restored, wah);
    }

    #[test]
    fn serialisation_rejects_bad_coverage() {
        let wah = WahBitmap::compress(&BitVec::ones(200));
        let mut raw = wah.to_bytes();
        // Corrupt the declared length upward beyond coverage.
        raw[..8].copy_from_slice(&10_000u64.to_le_bytes());
        assert!(WahBitmap::from_bytes(&raw).is_err());
        assert!(WahBitmap::from_bytes(&[1, 2, 3]).is_err());
    }

    #[test]
    fn serialisation_rejects_hostile_headers_without_overflow() {
        let image = |len: u64, words: &[u64]| {
            let mut raw = len.to_le_bytes().to_vec();
            words
                .iter()
                .for_each(|w| raw.extend_from_slice(&w.to_le_bytes()));
            WahBitmap::from_bytes(&raw)
        };
        let max_groups = u64::MAX / GROUP_BITS as u64;
        for (what, got) in [
            // count × 63 used to overflow (debug) or wrap (release).
            ("maximal fill count", image(63, &[FILL_FLAG | COUNT_MASK])),
            // Exactly covered, but `len + 63` and the cursor's
            // group-to-bit products would not fit a usize.
            (
                "len within 63 of usize::MAX",
                image(max_groups * 63 - 5, &[FILL_FLAG | max_groups]),
            ),
            ("fill of no groups", image(63, &[FILL_FLAG, 1])),
            ("tail literal past len", image(4, &[0b10_0001])),
        ] {
            assert!(matches!(got, Err(BitVecError::Corrupt { .. })), "{what}");
        }
        assert_eq!(image(4, &[0b1001]).unwrap().count_ones(), 2);
    }
}
