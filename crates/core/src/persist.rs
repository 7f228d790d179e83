//! Persisting encoded bitmap indexes through the page store.
//!
//! The paper's cost unit is disk accesses; this module makes that
//! concrete: an index is laid out as one segment per bitmap vector plus
//! one for the mapping table and one metadata segment, so loading a
//! vector charges exactly `ceil(|T| / 8 / p)` page reads — the quantity
//! `SelectionIndex::query_pages` in `ebi-baselines` predicts.

use crate::error::CoreError;
use crate::index::EncodedBitmapIndex;
use crate::mapping::Mapping;
use crate::nulls::NullPolicy;
use ebi_bitvec::serial::ByteReader;
use ebi_bitvec::{BitVec, SliceStorage};
use ebi_storage::pager::Pager;
use ebi_storage::segment::{read_segment, write_segment, SegmentHandle};
use ebi_storage::StorageError;

/// Locator for a persisted index.
#[derive(Debug, Clone)]
pub struct IndexHandle {
    /// One handle per bitmap vector `B_0 … B_{k-1}`.
    pub slices: Vec<SegmentHandle>,
    /// The mapping table.
    pub mapping: SegmentHandle,
    /// Policy/row-count/companion metadata.
    pub meta: SegmentHandle,
    /// Companion `B_NotExist`, if the index had one.
    pub b_not_exist: Option<SegmentHandle>,
    /// Companion `B_NULL`, if the index had one.
    pub b_null: Option<SegmentHandle>,
}

impl IndexHandle {
    /// Total pages occupied by the persisted index.
    #[must_use]
    pub fn total_pages(&self) -> u64 {
        self.slices
            .iter()
            .chain(std::iter::once(&self.mapping))
            .chain(std::iter::once(&self.meta))
            .chain(self.b_not_exist.iter())
            .chain(self.b_null.iter())
            .map(SegmentHandle::page_span)
            .sum()
    }
}

/// Metadata layout: `rows u64 | policy u8 | has_null_code u8 |
/// null_code u64 | reserved_len u64 | reserved codes…`.
///
/// Images written while an index could keep its own row permutation end
/// in a row-order byte. `0` (an unsorted build) still loads; any other
/// value is refused, because those slices were stored in a sorted row
/// order that nothing now translates back.
fn encode_meta(index: &EncodedBitmapIndex) -> Vec<u8> {
    let mut out = Vec::with_capacity(26 + index.reserved.len() * 8);
    out.extend_from_slice(&(index.rows() as u64).to_le_bytes());
    out.push(match index.policy() {
        NullPolicy::SeparateVectors => 0,
        NullPolicy::EncodedReserved => 1,
    });
    out.push(u8::from(index.null_code.is_some()));
    out.extend_from_slice(&index.null_code.unwrap_or(0).to_le_bytes());
    out.extend_from_slice(&(index.reserved.len() as u64).to_le_bytes());
    for &c in &index.reserved {
        out.extend_from_slice(&c.to_le_bytes());
    }
    out
}

struct Meta {
    rows: usize,
    policy: NullPolicy,
    null_code: Option<u64>,
    reserved: Vec<u64>,
}

fn decode_meta(raw: &[u8]) -> Result<Meta, CoreError> {
    let corrupt = |d: String| CoreError::InvalidCode {
        detail: format!("corrupt index metadata: {d}"),
    };
    let mut r = ByteReader::new(raw);
    let rows = r.length()?;
    let policy = match r.u8()? {
        0 => NullPolicy::SeparateVectors,
        1 => NullPolicy::EncodedReserved,
        other => return Err(corrupt(format!("unknown policy tag {other}"))),
    };
    let has_null = r.u8()? == 1;
    let null_code = r.u64()?;
    let n_reserved = r.length()?;
    let reserved = r.u64s(n_reserved)?;
    if r.remaining() > 0 {
        match r.u8()? {
            0 => {}
            tag => {
                return Err(CoreError::InvalidCode {
                    detail: format!("row-order tag {tag}: slices stored permuted; rebuild"),
                })
            }
        }
    }
    r.finish()?;
    Ok(Meta {
        rows,
        policy,
        null_code: has_null.then_some(null_code),
        reserved,
    })
}

/// Persists `index` into `pager`, returning its handle.
///
/// # Errors
///
/// Propagates [`StorageError`] from the pager.
pub fn save_index(index: &EncodedBitmapIndex, pager: &Pager) -> Result<IndexHandle, StorageError> {
    let slices = index
        .slices()
        .iter()
        .map(|s| write_segment(pager, &s.to_bytes()))
        .collect::<Result<Vec<_>, _>>()?;
    let mapping = write_segment(pager, &index.mapping().to_bytes())?;
    let meta = write_segment(pager, &encode_meta(index))?;
    let b_not_exist = index
        .b_not_exist
        .as_ref()
        .map(|b| write_segment(pager, &b.to_bytes()))
        .transpose()?;
    let b_null = index
        .b_null
        .as_ref()
        .map(|b| write_segment(pager, &b.to_bytes()))
        .transpose()?;
    Ok(IndexHandle {
        slices,
        mapping,
        meta,
        b_not_exist,
        b_null,
    })
}

/// Loads a persisted index, charging page reads against `pager`.
///
/// # Errors
///
/// [`CoreError::InvalidCode`] for corrupt payloads;
/// [`CoreError::Storage`] when the pager cannot read a segment the
/// handle names.
pub fn load_index(pager: &Pager, handle: &IndexHandle) -> Result<EncodedBitmapIndex, CoreError> {
    let slices = handle
        .slices
        .iter()
        .map(|h| Ok(SliceStorage::from_bytes(&read_segment(pager, h)?)?))
        .collect::<Result<Vec<SliceStorage>, CoreError>>()?;
    let mapping = Mapping::from_bytes(&read_segment(pager, &handle.mapping)?)?;
    let meta = decode_meta(&read_segment(pager, &handle.meta)?)?;
    let read_companion = |h: &Option<SegmentHandle>| -> Result<Option<BitVec>, CoreError> {
        h.as_ref()
            .map(|h| Ok(BitVec::from_bytes(&read_segment(pager, h)?)?))
            .transpose()
    };
    let b_not_exist = read_companion(&handle.b_not_exist)?;
    let b_null = read_companion(&handle.b_null)?;

    // Cross-checks: widths and lengths must be mutually consistent.
    if slices.len() != mapping.width() as usize {
        return Err(CoreError::InvalidCode {
            detail: format!(
                "{} slices inconsistent with mapping width {}",
                slices.len(),
                mapping.width()
            ),
        });
    }
    let lengths = slices
        .iter()
        .map(SliceStorage::len)
        .chain(b_not_exist.iter().map(BitVec::len))
        .chain(b_null.iter().map(BitVec::len));
    for len in lengths {
        if len != meta.rows {
            return Err(CoreError::InvalidCode {
                detail: format!("vector of {len} bits vs {} rows", meta.rows),
            });
        }
    }
    // Summaries are derived data: cheaper to rebuild on load than to
    // persist and cross-validate.
    let summaries = Some(ebi_bitvec::summary::summarize_storage(&slices));
    Ok(EncodedBitmapIndex {
        mapping,
        slices,
        rows: meta.rows,
        policy: meta.policy,
        reserved: meta.reserved,
        null_code: meta.null_code,
        b_not_exist,
        b_null,
        expr_cache: std::collections::HashMap::new(),
        free_runs: std::sync::OnceLock::new(),
        dont_cares: std::sync::OnceLock::new(),
        summaries,
        storage_policy: ebi_bitvec::StoragePolicy::default(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::index::BuildOptions;
    use ebi_storage::Cell;

    fn sample_index() -> EncodedBitmapIndex {
        let cells: Vec<Cell> = (0..300u64)
            .map(|i| {
                if i % 31 == 0 {
                    Cell::Null
                } else {
                    Cell::Value(i % 17)
                }
            })
            .collect();
        let mut idx = EncodedBitmapIndex::build(cells).unwrap();
        idx.delete(5).unwrap();
        idx.delete(100).unwrap();
        idx
    }

    #[test]
    fn save_load_roundtrip_preserves_queries() {
        let idx = sample_index();
        let pager = Pager::with_page_size(256);
        let handle = save_index(&idx, &pager).unwrap();
        let loaded = load_index(&pager, &handle).unwrap();
        for v in 0..17u64 {
            assert_eq!(
                loaded.eq(v).unwrap().bitmap,
                idx.eq(v).unwrap().bitmap,
                "value {v}"
            );
        }
        assert_eq!(loaded.is_null().bitmap, idx.is_null().bitmap);
        assert_eq!(loaded.width(), idx.width());
        assert_eq!(loaded.policy(), idx.policy());
    }

    #[test]
    fn reserved_policy_roundtrip() {
        let cells: Vec<Cell> = (0..50u64)
            .map(|i| {
                if i % 9 == 0 {
                    Cell::Null
                } else {
                    Cell::Value(i % 6)
                }
            })
            .collect();
        let mut idx = EncodedBitmapIndex::build_with(
            cells,
            BuildOptions {
                policy: NullPolicy::EncodedReserved,
                mapping: None,
            },
        )
        .unwrap();
        idx.delete(3).unwrap();
        let pager = Pager::new();
        let loaded = load_index(&pager, &save_index(&idx, &pager).unwrap()).unwrap();
        assert_eq!(loaded.policy(), NullPolicy::EncodedReserved);
        for v in 0..6u64 {
            assert_eq!(loaded.eq(v).unwrap().bitmap, idx.eq(v).unwrap().bitmap);
        }
        assert_eq!(loaded.is_null().bitmap, idx.is_null().bitmap);
    }

    #[test]
    fn loading_charges_page_reads() {
        let idx = sample_index();
        let pager = Pager::with_page_size(128);
        let handle = save_index(&idx, &pager).unwrap();
        pager.reset_stats();
        let _ = load_index(&pager, &handle).unwrap();
        let reads = pager.stats().page_reads;
        assert_eq!(reads, handle.total_pages(), "every segment page read once");
        assert!(reads > 0);
    }

    #[test]
    fn corrupt_meta_is_rejected() {
        let idx = sample_index();
        let pager = Pager::new();
        let mut handle = save_index(&idx, &pager).unwrap();
        // Point meta at the mapping segment: garbage for decode_meta.
        handle.meta = handle.mapping;
        assert!(load_index(&pager, &handle).is_err());
        // 2^61 reserved codes declared in 43 bytes: `26 + n * 8` used to
        // overflow, or wrap and size a `collect` by the header.
        let mut raw = encode_meta(&idx);
        raw[18..26].copy_from_slice(&(1u64 << 61).to_le_bytes());
        handle.meta = write_segment(&pager, &raw).unwrap();
        let err = load_index(&pager, &handle).unwrap_err();
        assert!(matches!(err, CoreError::InvalidCode { .. }), "{err}");
    }

    #[test]
    fn inconsistent_slices_rejected() {
        let idx = sample_index();
        let pager = Pager::new();
        let mut handle = save_index(&idx, &pager).unwrap();
        handle.slices.pop();
        let err = load_index(&pager, &handle).unwrap_err();
        assert!(matches!(err, CoreError::InvalidCode { .. }));
    }

    #[test]
    fn loaded_index_can_keep_growing() {
        let idx = sample_index();
        let pager = Pager::new();
        let mut loaded = load_index(&pager, &save_index(&idx, &pager).unwrap()).unwrap();
        loaded.append(Cell::Value(999)).unwrap();
        let r = loaded.eq(999).unwrap();
        assert_eq!(r.bitmap.to_positions(), vec![300]);
    }
}
