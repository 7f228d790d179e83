//! Byte-level (de)serialisation of bitmaps, and the one checked reader
//! every persisted image in the workspace is decoded through.
//!
//! The storage substrate persists bitmap vectors as page payloads; this
//! module defines the dense on-disk layout:
//!
//! ```text
//! [ u64 little-endian: bit length | u64 × ceil(len/64): payload words ]
//! ```
//!
//! The layout is deliberately trivial — the interesting storage behaviour
//! (page granularity, read counting) lives in `ebi-storage`.
//!
//! A persisted image is input from outside the program, so the compressed
//! containers here and the mapping and metadata decoders of `ebi-core`
//! all read through [`ByteReader`]: a header field is never
//! trusted before the bytes it promises are known to be there.

use crate::core::{BitVec, WORD_BITS};
use crate::error::BitVecError;

/// Checked little-endian reader over a persisted byte image.
///
/// The contract every decoder inherits: a fixed-width read fails with
/// [`BitVecError::Corrupt`] when fewer bytes remain; a count read from
/// the image is honoured only after [`ByteReader::counted`] has
/// multiplied it by the element size, overflow checked, and compared the
/// product with the bytes that remain — *before* anything is sliced,
/// looped over or allocated; and [`ByteReader::finish`] rejects trailing
/// bytes.
#[derive(Debug)]
pub struct ByteReader<'a> {
    raw: &'a [u8],
    pos: usize,
}

impl<'a> ByteReader<'a> {
    /// Opens a reader at the start of `raw`.
    #[must_use]
    pub fn new(raw: &'a [u8]) -> Self {
        Self { raw, pos: 0 }
    }

    /// Bytes not yet consumed.
    #[must_use]
    pub fn remaining(&self) -> usize {
        self.raw.len() - self.pos
    }

    fn corrupt(&self, what: std::fmt::Arguments<'_>) -> BitVecError {
        BitVecError::Corrupt {
            detail: format!("{what} at byte {}, {} left", self.pos, self.remaining()),
        }
    }

    fn take<const N: usize>(&mut self) -> Result<[u8; N], BitVecError> {
        if self.remaining() < N {
            return Err(self.corrupt(format_args!("truncated: {N} bytes wanted")));
        }
        let head = self.raw[self.pos..self.pos + N]
            .try_into()
            .expect("sliced exactly N bytes");
        self.pos += N;
        Ok(head)
    }

    /// Reads one byte.
    ///
    /// # Errors
    ///
    /// [`BitVecError::Corrupt`] at the end of the image.
    pub fn u8(&mut self) -> Result<u8, BitVecError> {
        Ok(self.take::<1>()?[0])
    }

    /// Reads a little-endian `u16`.
    ///
    /// # Errors
    ///
    /// [`BitVecError::Corrupt`] if fewer than 2 bytes remain.
    pub fn u16(&mut self) -> Result<u16, BitVecError> {
        Ok(u16::from_le_bytes(self.take()?))
    }

    /// Reads a little-endian `u32`.
    ///
    /// # Errors
    ///
    /// [`BitVecError::Corrupt`] if fewer than 4 bytes remain.
    pub fn u32(&mut self) -> Result<u32, BitVecError> {
        Ok(u32::from_le_bytes(self.take()?))
    }

    /// Reads a little-endian `u64`.
    ///
    /// # Errors
    ///
    /// [`BitVecError::Corrupt`] if fewer than 8 bytes remain.
    pub fn u64(&mut self) -> Result<u64, BitVecError> {
        Ok(u64::from_le_bytes(self.take()?))
    }

    /// Reads a little-endian `u64` length or count field into `usize`.
    ///
    /// # Errors
    ///
    /// [`BitVecError::Corrupt`] on truncation, [`BitVecError::Overflow`]
    /// if the value does not fit `usize`.
    pub fn length(&mut self) -> Result<usize, BitVecError> {
        usize::try_from(self.u64()?).map_err(|_| BitVecError::Overflow)
    }

    /// Byte span of `count` elements of `elem_bytes` each, if it fits in
    /// the bytes that remain.
    fn span(&self, count: usize, elem_bytes: usize) -> Result<usize, BitVecError> {
        match count.checked_mul(elem_bytes) {
            Some(bytes) if bytes <= self.remaining() => Ok(bytes),
            _ => Err(self.corrupt(format_args!(
                "{count} elements of {elem_bytes} bytes declared"
            ))),
        }
    }

    /// Accepts `count` (usually a header field) only if `count` elements
    /// of `elem_bytes` each fit in the bytes that remain, and hands it
    /// back; the caller may then loop or allocate by it.
    ///
    /// # Errors
    ///
    /// [`BitVecError::Corrupt`] if the product overflows or exceeds the
    /// bytes left.
    pub fn counted(&self, count: usize, elem_bytes: usize) -> Result<usize, BitVecError> {
        self.span(count, elem_bytes).map(|_| count)
    }

    /// Reads `count` little-endian `u64` words — the payload of every
    /// bitmap container — under the same check as
    /// [`ByteReader::counted`].
    ///
    /// # Errors
    ///
    /// [`BitVecError::Corrupt`] if the image cannot hold `count` words.
    pub fn u64s(&mut self, count: usize) -> Result<Vec<u64>, BitVecError> {
        let end = self.pos + self.span(count, 8)?;
        let payload = &self.raw[self.pos..end];
        self.pos = end;
        Ok(payload
            .chunks_exact(8)
            .map(|c| u64::from_le_bytes(c.try_into().expect("chunks_exact yields 8 bytes")))
            .collect())
    }

    /// Ends the read.
    ///
    /// # Errors
    ///
    /// [`BitVecError::Corrupt`] if bytes are left over.
    pub fn finish(self) -> Result<(), BitVecError> {
        match self.remaining() {
            0 => Ok(()),
            _ => Err(self.corrupt(format_args!("trailing bytes"))),
        }
    }
}

impl BitVec {
    /// Serialises to the length-prefixed little-endian word layout.
    #[must_use]
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(8 + self.words().len() * 8);
        out.extend_from_slice(&(self.len() as u64).to_le_bytes());
        for &w in self.words() {
            out.extend_from_slice(&w.to_le_bytes());
        }
        out
    }

    /// Parses the layout produced by [`BitVec::to_bytes`].
    ///
    /// # Errors
    ///
    /// Returns [`BitVecError`] when the buffer is truncated, has a
    /// length/payload mismatch, or carries set bits beyond the declared
    /// length (which would silently corrupt population counts).
    pub fn from_bytes(raw: &[u8]) -> Result<Self, BitVecError> {
        let mut r = ByteReader::new(raw);
        let len = r.length()?;
        let expected_words = len.div_ceil(WORD_BITS);
        if r.remaining() / 8 != expected_words || !r.remaining().is_multiple_of(8) {
            return Err(BitVecError::LengthMismatch {
                declared_bits: len,
                payload_words: r.remaining() / 8,
            });
        }
        let words = r.u64s(expected_words)?;
        // Reject payloads that violate the tail invariant rather than
        // silently masking: a mismatch means the producer was buggy.
        let tail_bits = len % WORD_BITS;
        if tail_bits != 0 && words[expected_words - 1] >> tail_bits != 0 {
            return Err(BitVecError::Corrupt {
                detail: "set bits beyond declared length".into(),
            });
        }
        Ok(BitVec { words, len })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_various_lengths() {
        for len in [0usize, 1, 63, 64, 65, 1000] {
            let v: BitVec = (0..len).map(|i| i % 3 == 0).collect();
            let restored = BitVec::from_bytes(&v.to_bytes()).unwrap();
            assert_eq!(restored, v, "len {len}");
        }
    }

    #[test]
    fn truncated_header_rejected() {
        let err = BitVec::from_bytes(&[1, 2, 3]).unwrap_err();
        assert!(matches!(err, BitVecError::Corrupt { .. }));
    }

    #[test]
    fn payload_length_mismatch_rejected() {
        let v = BitVec::ones(100);
        let mut raw = v.to_bytes();
        raw.truncate(raw.len() - 8); // drop one payload word
        let err = BitVec::from_bytes(&raw).unwrap_err();
        assert!(matches!(err, BitVecError::LengthMismatch { .. }));
        // A declared length whose word count cannot fit any buffer.
        let huge = u64::MAX.to_le_bytes();
        assert!(BitVec::from_bytes(&huge).is_err());
    }

    #[test]
    fn tail_garbage_rejected() {
        // Declare 4 bits but set bit 5 in the payload word.
        let mut raw = 4u64.to_le_bytes().to_vec();
        raw.extend_from_slice(&0b10_0001u64.to_le_bytes());
        let err = BitVec::from_bytes(&raw).unwrap_err();
        assert!(matches!(err, BitVecError::Corrupt { .. }));
    }

    #[test]
    fn empty_bitmap_serialises_to_header_only() {
        let v = BitVec::new();
        let raw = v.to_bytes();
        assert_eq!(raw.len(), 8);
        assert_eq!(BitVec::from_bytes(&raw).unwrap(), v);
    }

    #[test]
    fn reader_checks_counts_against_the_bytes_left() {
        let raw = [7u8; 20];
        let mut r = ByteReader::new(&raw);
        assert_eq!(r.u32().unwrap(), 0x0707_0707);
        // 2 × 8 fits the 16 bytes left; 3 × 8 does not; a count whose
        // product overflows is refused the same way, before any slicing.
        assert!(r.counted(3, 8).is_err());
        assert!(r.u64s(usize::MAX / 4).is_err());
        assert_eq!(r.counted(8, 2), Ok(8));
        assert_eq!(r.u64s(2).unwrap().len(), 2);
        assert!(r.u8().is_err(), "nothing left");
        r.finish().unwrap();
        let mut r = ByteReader::new(&raw);
        r.u64s(2).unwrap();
        assert_eq!(r.u16().unwrap(), 0x0707);
        assert!(r.u64().is_err(), "two bytes left");
        assert!(r.finish().is_err(), "two trailing bytes");
    }
}
