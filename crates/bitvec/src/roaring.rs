//! Roaring-style chunked compressed bitmaps.
//!
//! The encoded index stores `k = ceil(log2 m)` bit-slices whose density
//! hovers near 1/2 on *uniform* data — the regime where run-length
//! schemes gain nothing. On skewed domains,
//! however, individual slices can be very sparse or very dense, and the
//! hybrid container layout of *Better bitmap performance with Roaring
//! bitmaps* (Chambi, Lemire, Kaser, Godin) adapts per 2^16-row chunk:
//!
//! * **Array**: a sorted `u16` list of set positions — wins when a
//!   chunk holds few ones;
//! * **Bitmap**: 1024 packed words — wins near density 1/2;
//! * **Run**: sorted `(start, end)` intervals — wins when ones cluster.
//!
//! Chunks with no set bits are simply absent. There is no pairwise set
//! algebra here: queries never combine two compressed bitmaps, they read
//! each slice one window at a time. [`RoaringBitmap::fill_window`]
//! materialises one 512-word evaluation window (the kernel's 32 768-row
//! segment, two to a chunk) on demand, classifying all-zero / all-one
//! windows without writing any words so the segment-major evaluator can
//! short-circuit in the compressed domain.

use crate::core::BitVec;
use crate::error::BitVecError;
use crate::kernels::SEGMENT_WORDS;
use crate::serial::ByteReader;
use crate::simd;

/// Rows covered by one chunk.
pub const CHUNK_BITS: usize = 1 << 16;
/// 64-bit words in one fully materialised chunk.
pub const CHUNK_WORDS: usize = CHUNK_BITS / 64;

/// Classification of a materialised evaluation window.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WindowKind {
    /// Every valid bit in the window is zero; the output buffer was not
    /// written.
    Zeros,
    /// Every valid bit in the window is one; the output buffer was not
    /// written.
    Ones,
    /// The window was materialised into the output buffer.
    Mixed,
}

/// Result of materialising an evaluation window from compressed form.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WindowFill {
    /// Whether the window is uniform (buffer untouched) or materialised.
    pub kind: WindowKind,
    /// Compressed bytes examined to produce this window.
    pub bytes_touched: u64,
}

/// One chunk's physical representation.
#[derive(Debug, Clone, PartialEq, Eq)]
enum Container {
    /// Sorted positions of set bits within the chunk.
    Array(Vec<u16>),
    /// Packed words covering the whole chunk.
    Bitmap(Box<[u64; CHUNK_WORDS]>),
    /// Sorted, non-adjacent, inclusive `(start, end)` intervals.
    Run(Vec<(u16, u16)>),
}

impl Container {
    fn cardinality(&self) -> usize {
        match self {
            Self::Array(a) => a.len(),
            Self::Bitmap(w) => w.iter().map(|x| x.count_ones() as usize).sum(),
            Self::Run(r) => r.iter().map(|&(s, e)| e as usize - s as usize + 1).sum(),
        }
    }

    /// Heap bytes of the container payload.
    fn storage_bytes(&self) -> usize {
        match self {
            Self::Array(a) => a.len() * 2,
            Self::Bitmap(_) => CHUNK_WORDS * 8,
            Self::Run(r) => r.len() * 4,
        }
    }

    fn bit(&self, pos: u16) -> bool {
        match self {
            Self::Array(a) => a.binary_search(&pos).is_ok(),
            Self::Bitmap(w) => w[pos as usize / 64] >> (pos % 64) & 1 == 1,
            Self::Run(r) => match r.binary_search_by_key(&pos, |&(s, _)| s) {
                Ok(_) => true,
                Err(0) => false,
                Err(i) => r[i - 1].1 >= pos,
            },
        }
    }

    /// ORs the container's bits into `words`.
    fn materialize_into(&self, words: &mut [u64; CHUNK_WORDS]) {
        match self {
            Self::Array(a) => {
                for &p in a {
                    words[p as usize / 64] |= 1u64 << (p % 64);
                }
            }
            Self::Bitmap(w) => {
                let _ = simd::or_into(simd::selected_path(), &mut words[..], &w[..]);
            }
            Self::Run(r) => {
                for &(s, e) in r {
                    set_word_range(words, s as usize, e as usize);
                }
            }
        }
    }
}

/// Sets bits `start..=end` in a packed word buffer.
fn set_word_range(words: &mut [u64], start: usize, end: usize) {
    let (ws, we) = (start / 64, end / 64);
    if ws == we {
        words[ws] |= ones_mask(start % 64, end % 64);
    } else {
        words[ws] |= !0u64 << (start % 64);
        for w in &mut words[ws + 1..we] {
            *w = !0;
        }
        words[we] |= ones_mask(0, end % 64);
    }
}

/// Mask with bits `lo..=hi` set (`0 <= lo <= hi < 64`).
fn ones_mask(lo: usize, hi: usize) -> u64 {
    debug_assert!(lo <= hi && hi < 64);
    (!0u64 >> (63 - hi)) & (!0u64 << lo)
}

/// A chunk's payload bytes as an array, a run list and a bitmap, after
/// the serialised sizes: `2·ones`, `4·runs` and 8 KiB. A short last
/// chunk costs what its zero-padded form does.
fn container_costs(words: &[u64]) -> (usize, usize, usize) {
    let path = simd::selected_path();
    let ones = simd::count_ones(path, words) as usize;
    let runs = simd::count_runs(path, words) as usize;
    (2 * ones, 4 * runs, CHUNK_WORDS * 8)
}

/// Classifies a materialised chunk into its cheapest container, or
/// `None` when it has no set bits.
fn classify(words: &[u64; CHUNK_WORDS]) -> Option<Container> {
    let (cost_array, cost_run, cost_bitmap) = container_costs(words);
    if cost_array == 0 {
        return None;
    }
    Some(if cost_run < cost_array.min(cost_bitmap) {
        let mut r = Vec::with_capacity(cost_run / 4);
        collect_runs(words, &mut r);
        Container::Run(r)
    } else if cost_array <= cost_bitmap {
        let mut a = Vec::with_capacity(cost_array / 2);
        for (i, &w) in words.iter().enumerate() {
            let mut bits = w;
            while bits != 0 {
                a.push((i * 64 + bits.trailing_zeros() as usize) as u16);
                bits &= bits - 1;
            }
        }
        Container::Array(a)
    } else {
        Container::Bitmap(Box::new(*words))
    })
}

/// Collects maximal runs of set bits as inclusive `(start, end)` pairs.
fn collect_runs(words: &[u64; CHUNK_WORDS], out: &mut Vec<(u16, u16)>) {
    let mut open: Option<usize> = None;
    for (i, &w) in words.iter().enumerate() {
        let base = i * 64;
        let mut bit = 0usize;
        while bit < 64 {
            let rest = w >> bit;
            if rest & 1 == 1 {
                if open.is_none() {
                    open = Some(base + bit);
                }
                bit += (rest.trailing_ones() as usize).min(64 - bit);
                if bit < 64 {
                    let s = open.take().expect("run just opened");
                    out.push((s as u16, (base + bit - 1) as u16));
                }
            } else {
                if let Some(s) = open.take() {
                    out.push((s as u16, (base + bit - 1) as u16));
                }
                bit += (rest.trailing_zeros() as usize).min(64 - bit);
            }
        }
    }
    if let Some(s) = open {
        out.push((s as u16, (CHUNK_BITS - 1) as u16));
    }
}

/// A chunked, adaptively compressed bitmap.
///
/// ```
/// use ebi_bitvec::{roaring::RoaringBitmap, BitVec};
///
/// let sparse = BitVec::from_positions(1_000_000, &[5, 70_000, 999_999]);
/// let r = RoaringBitmap::from_bitvec(&sparse);
/// assert_eq!(r.count_ones(), 3);
/// assert!(r.storage_bytes() < 100, "three array entries, not 125 KB");
/// assert_eq!(r.to_bitvec(), sparse);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RoaringBitmap {
    /// Bit length of the represented vector.
    len: usize,
    /// `(chunk index, container)` pairs, sorted by chunk index; chunks
    /// with no set bits are absent.
    chunks: Vec<(u32, Container)>,
}

impl RoaringBitmap {
    /// Compresses `bits` chunk by chunk, choosing the cheapest container
    /// for each 2^16-row chunk.
    #[must_use]
    pub fn from_bitvec(bits: &BitVec) -> Self {
        let mut chunks = Vec::new();
        let mut scratch = [0u64; CHUNK_WORDS];
        for (key, words) in bits.words().chunks(CHUNK_WORDS).enumerate() {
            scratch[..words.len()].copy_from_slice(words);
            scratch[words.len()..].fill(0);
            if let Some(c) = classify(&scratch) {
                chunks.push((key as u32, c));
            }
        }
        Self {
            len: bits.len(),
            chunks,
        }
    }

    /// The [`RoaringBitmap::storage_bytes`] that
    /// [`RoaringBitmap::from_bitvec`] of `bits` has, from each chunk's
    /// container costs, without building a container.
    pub(crate) fn compressed_bytes(bits: &BitVec) -> usize {
        let costs = bits.words().chunks(CHUNK_WORDS).map(container_costs);
        let stored = costs.filter(|&(array, ..)| array > 0);
        stored
            .map(|(array, run, bitmap)| 4 + array.min(run).min(bitmap))
            .sum()
    }

    /// Decompresses back to a plain [`BitVec`].
    #[must_use]
    pub fn to_bitvec(&self) -> BitVec {
        let mut out = BitVec::zeros(self.len);
        let total_words = out.words().len();
        let mut scratch = [0u64; CHUNK_WORDS];
        for (key, c) in &self.chunks {
            let base = *key as usize * CHUNK_WORDS;
            let n = CHUNK_WORDS.min(total_words - base);
            scratch.fill(0);
            c.materialize_into(&mut scratch);
            out.words[base..base + n].copy_from_slice(&scratch[..n]);
        }
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

    /// Population count, computed on the compressed form.
    #[must_use]
    pub fn count_ones(&self) -> usize {
        self.chunks.iter().map(|(_, c)| c.cardinality()).sum()
    }

    /// Value of bit `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i >= self.len()`.
    #[must_use]
    pub fn bit(&self, i: usize) -> bool {
        assert!(i < self.len, "bit {i} out of range for {} bits", self.len);
        let key = (i / CHUNK_BITS) as u32;
        match self.chunks.binary_search_by_key(&key, |&(k, _)| k) {
            Ok(idx) => self.chunks[idx].1.bit((i % CHUNK_BITS) as u16),
            Err(_) => false,
        }
    }

    /// Compressed heap bytes (containers plus 4-byte chunk keys).
    #[must_use]
    pub fn storage_bytes(&self) -> usize {
        self.chunks.iter().map(|(_, c)| 4 + c.storage_bytes()).sum()
    }

    /// Run statistics, streamed through evaluation windows so
    /// uniform windows (absent chunks, saturated containers) resolve
    /// without materialising any words. Granules are 64-bit words,
    /// directly comparable with [`BitVec::run_stats`].
    #[must_use]
    pub fn run_stats(&self) -> crate::runs::RunStats {
        let mut st = crate::runs::RunStats::default();
        let mut cur = 0u64;
        let mut buf = [0u64; SEGMENT_WORDS];
        let total_words = self.len.div_ceil(64);
        let mut word = 0usize;
        while word < total_words {
            let window_words = (total_words - word).min(SEGMENT_WORDS);
            let valid_bits = (self.len - word * 64).min(window_words * 64);
            let fill = self.fill_window(word, &mut buf[..window_words]);
            match fill.kind {
                WindowKind::Zeros => {
                    st.total_words += window_words as u64;
                    st.fill_words += window_words as u64;
                    cur = 0;
                }
                WindowKind::Ones => {
                    st.total_words += window_words as u64;
                    st.fill_words += window_words as u64;
                    if cur == 0 {
                        st.runs += 1;
                    }
                    cur += valid_bits as u64;
                    st.longest_run = st.longest_run.max(cur);
                }
                WindowKind::Mixed => {
                    st.scan_words(&mut cur, &buf[..window_words], valid_bits);
                }
            }
            word += window_words;
        }
        st
    }

    /// Materialises the evaluation window covering bits
    /// `start_word * 64 .. (start_word + out.len()) * 64` (clipped to
    /// `len`) into `out`, or classifies it as uniform without writing.
    ///
    /// The window must lie within a single chunk, which holds for any
    /// evaluation window because [`SEGMENT_WORDS`] divides
    /// [`CHUNK_WORDS`].
    ///
    /// # Panics
    ///
    /// Panics if the window crosses a chunk boundary or starts past the
    /// end of the bitmap.
    #[must_use]
    pub fn fill_window(&self, start_word: usize, out: &mut [u64]) -> WindowFill {
        let key = (start_word / CHUNK_WORDS) as u32;
        let word_in_chunk = start_word % CHUNK_WORDS;
        assert!(
            word_in_chunk + out.len() <= CHUNK_WORDS,
            "window crosses a chunk boundary"
        );
        let start_bit = start_word * 64;
        assert!(
            start_bit < self.len || self.len == 0,
            "window starts past end"
        );
        // Bits of the window that are inside `len`.
        let valid = (self.len - start_bit).min(out.len() * 64);
        let idx = match self.chunks.binary_search_by_key(&key, |&(k, _)| k) {
            Ok(idx) => idx,
            Err(_) => {
                return WindowFill {
                    kind: WindowKind::Zeros,
                    bytes_touched: 0,
                }
            }
        };
        let lo = (word_in_chunk * 64) as u16;
        let hi_incl = (word_in_chunk * 64 + out.len() * 64 - 1).min(CHUNK_BITS - 1) as u16;
        match &self.chunks[idx].1 {
            Container::Array(a) => {
                let from = a.partition_point(|&p| p < lo);
                let to = a.partition_point(|&p| p <= hi_incl);
                let touched = 2 * (to - from) as u64;
                if from == to {
                    return WindowFill {
                        kind: WindowKind::Zeros,
                        bytes_touched: touched,
                    };
                }
                if to - from == valid {
                    return WindowFill {
                        kind: WindowKind::Ones,
                        bytes_touched: touched,
                    };
                }
                out.fill(0);
                for &p in &a[from..to] {
                    let off = (p - lo) as usize;
                    out[off / 64] |= 1u64 << (off % 64);
                }
                WindowFill {
                    kind: WindowKind::Mixed,
                    bytes_touched: touched,
                }
            }
            Container::Run(r) => {
                let from = r.partition_point(|&(_, e)| e < lo);
                let to = r.partition_point(|&(s, _)| s <= hi_incl);
                let touched = 4 * (to - from) as u64;
                if from == to {
                    return WindowFill {
                        kind: WindowKind::Zeros,
                        bytes_touched: touched,
                    };
                }
                if to - from == 1 {
                    let (s, e) = r[from];
                    let last_valid = lo as usize + valid - 1;
                    if s as usize <= lo as usize && e as usize >= last_valid {
                        return WindowFill {
                            kind: WindowKind::Ones,
                            bytes_touched: touched,
                        };
                    }
                }
                out.fill(0);
                for &(s, e) in &r[from..to] {
                    let cs = s.max(lo) as usize - lo as usize;
                    let ce = e.min(hi_incl) as usize - lo as usize;
                    set_word_range(out, cs, ce);
                }
                WindowFill {
                    kind: WindowKind::Mixed,
                    bytes_touched: touched,
                }
            }
            Container::Bitmap(w) => {
                let src = &w[word_in_chunk..word_in_chunk + out.len()];
                let touched = 8 * out.len() as u64;
                let full_words = valid / 64;
                let rem = valid % 64;
                let all_zero = src[..full_words].iter().all(|&x| x == 0)
                    && (rem == 0 || src[full_words] & ones_mask(0, rem - 1) == 0);
                if all_zero {
                    return WindowFill {
                        kind: WindowKind::Zeros,
                        bytes_touched: touched,
                    };
                }
                let all_one = src[..full_words].iter().all(|&x| x == !0)
                    && (rem == 0
                        || src[full_words] & ones_mask(0, rem - 1) == ones_mask(0, rem - 1));
                if all_one {
                    return WindowFill {
                        kind: WindowKind::Ones,
                        bytes_touched: touched,
                    };
                }
                out.copy_from_slice(src);
                WindowFill {
                    kind: WindowKind::Mixed,
                    bytes_touched: touched,
                }
            }
        }
    }

    /// Serialises as
    /// `[u64 len][u32 chunks]` then per chunk
    /// `[u32 key][u8 kind][u32 count][payload]`, little-endian.
    #[must_use]
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(12 + self.storage_bytes());
        out.extend_from_slice(&(self.len as u64).to_le_bytes());
        out.extend_from_slice(&(self.chunks.len() as u32).to_le_bytes());
        for (key, c) in &self.chunks {
            out.extend_from_slice(&key.to_le_bytes());
            match c {
                Container::Array(a) => {
                    out.push(0);
                    out.extend_from_slice(&(a.len() as u32).to_le_bytes());
                    for &p in a {
                        out.extend_from_slice(&p.to_le_bytes());
                    }
                }
                Container::Bitmap(w) => {
                    out.push(1);
                    out.extend_from_slice(&(CHUNK_WORDS as u32).to_le_bytes());
                    for &x in w.iter() {
                        out.extend_from_slice(&x.to_le_bytes());
                    }
                }
                Container::Run(r) => {
                    out.push(2);
                    out.extend_from_slice(&(r.len() as u32).to_le_bytes());
                    for &(s, e) in r {
                        out.extend_from_slice(&s.to_le_bytes());
                        out.extend_from_slice(&e.to_le_bytes());
                    }
                }
            }
        }
        out
    }

    /// Parses the layout from [`RoaringBitmap::to_bytes`], validating
    /// chunk ordering, container invariants, and the length bound.
    ///
    /// # Errors
    ///
    /// Returns [`BitVecError::Corrupt`] on truncation, unordered or
    /// duplicate chunk keys, unsorted containers, or set bits at or
    /// beyond the declared length (so any chunk at all when it is 0).
    pub fn from_bytes(raw: &[u8]) -> Result<Self, BitVecError> {
        /// `[u32 key][u8 kind][u32 count]`: the least a chunk occupies.
        const CHUNK_HEADER_BYTES: usize = 9;
        let corrupt = |detail: String| BitVecError::Corrupt { detail };
        let mut r = ByteReader::new(raw);
        let len = r.length()?;
        let n_chunks = r.u32()? as usize;
        let (full_chunks, tail_bits) = (len / CHUNK_BITS, len % CHUNK_BITS);
        let mut chunks = Vec::with_capacity(r.counted(n_chunks, CHUNK_HEADER_BYTES)?);
        let mut prev_key: Option<u32> = None;
        for _ in 0..n_chunks {
            let key = r.u32()?;
            if prev_key.is_some_and(|p| key <= p) {
                return Err(corrupt(format!("chunk key {key} out of order")));
            }
            prev_key = Some(key);
            // Last position of this chunk that lies inside the bitmap.
            let chunk_end = match (key as usize).cmp(&full_chunks) {
                core::cmp::Ordering::Less => CHUNK_BITS - 1,
                core::cmp::Ordering::Equal if tail_bits > 0 => tail_bits - 1,
                _ => return Err(corrupt(format!("chunk key {key} beyond {len}-bit bitmap"))),
            } as u16;
            let kind = r.u8()?;
            let count = r.u32()? as usize;
            let c = match kind {
                0 => {
                    if count == 0 || count > CHUNK_BITS {
                        return Err(corrupt(format!("array container of {count} entries")));
                    }
                    let a = (0..r.counted(count, 2)?)
                        .map(|_| r.u16())
                        .collect::<Result<Vec<u16>, _>>()?;
                    if !a.windows(2).all(|w| w[0] < w[1]) {
                        return Err(corrupt("unsorted array container".into()));
                    }
                    if *a.last().expect("non-empty") > chunk_end {
                        return Err(corrupt("array entry beyond bitmap length".into()));
                    }
                    Container::Array(a)
                }
                1 => {
                    if count != CHUNK_WORDS {
                        return Err(corrupt(format!("bitmap container of {count} words")));
                    }
                    let w: Box<[u64; CHUNK_WORDS]> = r
                        .u64s(CHUNK_WORDS)?
                        .into_boxed_slice()
                        .try_into()
                        .expect("CHUNK_WORDS words read");
                    let valid_words = chunk_end as usize / 64;
                    let rem = chunk_end as usize % 64;
                    if w[valid_words] & !ones_mask(0, rem) != 0
                        || w[valid_words + 1..].iter().any(|&x| x != 0)
                    {
                        return Err(corrupt("bitmap bits beyond bitmap length".into()));
                    }
                    Container::Bitmap(w)
                }
                2 => {
                    if count == 0 || count > CHUNK_BITS / 2 {
                        return Err(corrupt(format!("run container of {count} runs")));
                    }
                    let mut runs = Vec::with_capacity(r.counted(count, 4)?);
                    for _ in 0..count {
                        let (s, e) = (r.u16()?, r.u16()?);
                        if e < s {
                            return Err(corrupt(format!("inverted run {s}..{e}")));
                        }
                        runs.push((s, e));
                    }
                    if !runs.windows(2).all(|w| w[1].0 > w[0].1) {
                        return Err(corrupt("overlapping or unsorted runs".into()));
                    }
                    if runs.last().expect("non-empty").1 > chunk_end {
                        return Err(corrupt("run beyond bitmap length".into()));
                    }
                    Container::Run(runs)
                }
                other => return Err(corrupt(format!("unknown container kind {other}"))),
            };
            chunks.push((key, c));
        }
        r.finish()?;
        Ok(Self { len, chunks })
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
            ("all zero", BitVec::zeros(200_000)),
            ("all one", BitVec::ones(200_000)),
            (
                "sparse",
                BitVec::from_positions(300_000, &[3, 65_535, 65_536, 299_999]),
            ),
            ("alternating", patterned(150_000, |i| i % 2 == 0)),
            ("clustered", patterned(150_000, |i| (i / 5000) % 3 == 0)),
            ("partial tail", patterned(CHUNK_BITS + 77, |i| i % 5 == 0)),
        ] {
            let r = RoaringBitmap::from_bitvec(&bits);
            assert_eq!(r.to_bitvec(), bits, "{name}");
            assert_eq!(r.count_ones(), bits.count_ones(), "{name} popcount");
            assert_eq!(r.len(), bits.len(), "{name} len");
        }
    }

    #[test]
    fn container_choice_follows_density() {
        // A handful of ones per chunk: arrays beat everything.
        let sparse = RoaringBitmap::from_bitvec(&BitVec::from_positions(
            CHUNK_BITS * 3,
            &[1, 2, CHUNK_BITS + 5, CHUNK_BITS * 2 + 9],
        ));
        assert!(sparse.storage_bytes() < 64, "{}", sparse.storage_bytes());

        // Density 1/2 random-ish: bitmap containers, ~8 KiB per chunk.
        let dense = RoaringBitmap::from_bitvec(&patterned(CHUNK_BITS, |i| {
            (i.wrapping_mul(2654435761)) % 97 < 48
        }));
        assert_eq!(dense.storage_bytes(), 4 + CHUNK_WORDS * 8);

        // Long runs: a run container collapses the whole chunk.
        let runs = RoaringBitmap::from_bitvec(&patterned(CHUNK_BITS, |i| i < 60_000));
        assert!(runs.storage_bytes() <= 8, "{}", runs.storage_bytes());
    }

    #[test]
    fn bit_probes_every_container_kind() {
        let len = CHUNK_BITS * 3;
        let bits = patterned(len, |i| {
            let c = i / CHUNK_BITS;
            match c {
                0 => i == 17,
                1 => (i % CHUNK_BITS) < 100,
                _ => (i.wrapping_mul(2654435761)) % 97 < 48,
            }
        });
        let r = RoaringBitmap::from_bitvec(&bits);
        for i in [
            0,
            17,
            18,
            CHUNK_BITS,
            CHUNK_BITS + 99,
            CHUNK_BITS + 100,
            len - 1,
        ] {
            assert_eq!(r.bit(i), bits.bit(i), "bit {i}");
        }
    }

    #[test]
    fn window_classification_and_fill() {
        let len = CHUNK_BITS * 2;
        let bits = patterned(len, |i| {
            (CHUNK_BITS / 2..CHUNK_BITS / 2 + 4096).contains(&i) || i == CHUNK_BITS + 70
        });
        let r = RoaringBitmap::from_bitvec(&bits);
        let mut buf = [0u64; 64];

        // Window fully inside the ones run.
        let w = r.fill_window(CHUNK_BITS / 2 / 64, &mut buf);
        assert_eq!(w.kind, WindowKind::Ones);

        // Window in an untouched region of a present chunk.
        let w = r.fill_window(0, &mut buf);
        assert_eq!(w.kind, WindowKind::Zeros);

        // Window holding the single stray bit.
        let w = r.fill_window(CHUNK_BITS / 64, &mut buf);
        assert_eq!(w.kind, WindowKind::Mixed);
        assert_eq!(buf[70 / 64], 1u64 << (70 % 64));
        assert!(w.bytes_touched > 0);

        // Window in an absent chunk region costs nothing.
        let empty = RoaringBitmap::from_bitvec(&BitVec::zeros(len));
        let w = empty.fill_window(5 * 64, &mut buf);
        assert_eq!(w.kind, WindowKind::Zeros);
        assert_eq!(w.bytes_touched, 0);
    }

    #[test]
    fn window_fill_matches_dense_words() {
        let len = CHUNK_BITS + 3000; // partial final chunk
        let bits = patterned(len, |i| (i.wrapping_mul(2654435761)) % 31 < 9);
        let r = RoaringBitmap::from_bitvec(&bits);
        let total_words = bits.words().len();
        let mut buf = [0u64; 64];
        let mut start = 0;
        while start < total_words {
            let n = 64.min(total_words - start);
            let w = r.fill_window(start, &mut buf[..n]);
            match w.kind {
                WindowKind::Mixed => {
                    assert_eq!(
                        &buf[..n],
                        &bits.words()[start..start + n],
                        "window @{start}"
                    );
                }
                WindowKind::Zeros => {
                    assert!(bits.words()[start..start + n].iter().all(|&x| x == 0));
                }
                WindowKind::Ones => {
                    unreachable!("no all-ones window in this pattern");
                }
            }
            start += n;
        }
    }

    #[test]
    fn serialisation_roundtrip_every_kind() {
        let len = CHUNK_BITS * 3 + 500;
        let bits = patterned(len, |i| {
            let c = i / CHUNK_BITS;
            match c {
                0 => i % 997 == 0,
                1 => (i % CHUNK_BITS) < 50_000,
                2 => (i.wrapping_mul(2654435761)) % 97 < 48,
                _ => i % 3 == 0,
            }
        });
        let r = RoaringBitmap::from_bitvec(&bits);
        let restored = RoaringBitmap::from_bytes(&r.to_bytes()).unwrap();
        assert_eq!(restored, r);
    }

    #[test]
    fn serialisation_rejects_corruption() {
        let r = RoaringBitmap::from_bitvec(&BitVec::from_positions(CHUNK_BITS, &[7, 9]));
        let good = r.to_bytes();
        assert!(
            RoaringBitmap::from_bytes(&good[..good.len() - 1]).is_err(),
            "truncated"
        );
        let mut bad_kind = good.clone();
        bad_kind[16] = 9; // container kind byte
        assert!(RoaringBitmap::from_bytes(&bad_kind).is_err(), "bad kind");
        let mut unsorted = good.clone();
        // Swap the two array entries (bytes 21.. hold [7, 9] LE).
        unsorted[21..23].copy_from_slice(&9u16.to_le_bytes());
        unsorted[23..25].copy_from_slice(&7u16.to_le_bytes());
        assert!(RoaringBitmap::from_bytes(&unsorted).is_err(), "unsorted");
        let mut trailing = good;
        trailing.push(0);
        assert!(RoaringBitmap::from_bytes(&trailing).is_err(), "trailing");
    }

    #[test]
    fn serialisation_rejects_bits_beyond_len() {
        // One array chunk holding `pos` in a bitmap declared `len` bits
        // long: position 200 of 100 bits, and any chunk at all of 0 bits
        // (which used to load as an empty bitmap with one bit set).
        for (len, pos) in [(100u64, 200u16), (0, 7)] {
            let mut raw = Vec::new();
            raw.extend_from_slice(&len.to_le_bytes());
            raw.extend_from_slice(&1u32.to_le_bytes());
            raw.extend_from_slice(&0u32.to_le_bytes()); // chunk key 0
            raw.push(0); // array
            raw.extend_from_slice(&1u32.to_le_bytes());
            raw.extend_from_slice(&pos.to_le_bytes());
            let err = RoaringBitmap::from_bytes(&raw).unwrap_err();
            assert!(matches!(err, BitVecError::Corrupt { .. }), "len {len}");
        }
        // A chunk count the image cannot hold is refused up front.
        let mut raw = 100u64.to_le_bytes().to_vec();
        raw.extend_from_slice(&u32::MAX.to_le_bytes());
        assert!(RoaringBitmap::from_bytes(&raw).is_err());
    }
}
