//! Parallel index construction.
//!
//! Building an encoded bitmap index is a single column scan writing `k`
//! bit streams — embarrassingly parallel across row ranges. The builder
//! splits the column into word-aligned chunks, encodes each chunk's
//! slice family on its own thread (crossbeam scoped threads), and
//! stitches the chunks with [`ebi_bitvec::BitVec::extend_bits`]'s
//! aligned fast path. The mapping is fixed up front (one cheap serial
//! distinct-scan), so the result is **bit-identical** to the serial
//! build.
//!
//! Evaluation has no counterpart here: a query evaluates serially
//! ([`ebi_bitvec::BoundPlan::eval`]) and the service parallelises across
//! shards on its own pool (DESIGN.md §9).

use crate::error::CoreError;
use crate::index::{BuildOptions, EncodedBitmapIndex};
use crate::mapping::Mapping;
use crate::nulls::NullPolicy;
use ebi_bitvec::builder::SliceFamilyBuilder;
use ebi_bitvec::summary::summarize_slices;
use ebi_bitvec::BitVec;
use ebi_storage::Cell;

/// Minimum rows per chunk; chunks are rounded to multiples of 64 so the
/// stitch uses the aligned word-copy path.
const MIN_CHUNK: usize = 4_096;

/// Cores the host exposes, read once per process: the query is a
/// `sched_getaffinity` call plus cgroup file reads, far too slow for a
/// per-request path. The one sanctioned caller (clippy.toml disallows
/// the std call everywhere else).
#[must_use]
#[allow(clippy::disallowed_methods)]
pub fn host_cores() -> usize {
    static CORES: std::sync::OnceLock<usize> = std::sync::OnceLock::new();
    *CORES.get_or_init(|| std::thread::available_parallelism().map_or(1, std::num::NonZero::get))
}

/// Builds an encoded bitmap index in parallel over `threads` workers.
///
/// Produces exactly the same index as
/// [`EncodedBitmapIndex::build_with`]: a serial pre-scan assigns the
/// codes (in value order unless a mapping is given), then the slice
/// families are built chunk-wise in parallel.
///
/// # Errors
///
/// Same failure modes as the serial build.
///
/// # Panics
///
/// Panics if `threads == 0`.
pub fn build_parallel(
    cells: &[Cell],
    options: BuildOptions,
    threads: usize,
) -> Result<EncodedBitmapIndex, CoreError> {
    assert!(threads > 0, "at least one thread");
    // Small inputs: the serial path is faster than spawning. Reordered
    // builds also go serial — the permutation decides every row's
    // destination, so chunk-local encoding would shuffle across chunk
    // boundaries anyway.
    if threads == 1
        || cells.len() < MIN_CHUNK * 2
        || options.row_order != crate::reorder::RowOrder::Original
        || options.permutation.is_some()
        || crate::reorder::RowOrder::from_env().is_some()
    {
        return EncodedBitmapIndex::build_with(cells.iter().copied(), options);
    }

    // Serial pre-scan fixes the mapping (and NULL policy bookkeeping) so
    // chunks can encode independently. Reuse the serial builder on an
    // empty column to resolve mapping/reserved/null-code exactly as the
    // serial build would, then extend it with the real distinct values.
    let has_nulls = cells.iter().any(Cell::is_null);
    let distinct = Mapping::first_seen_values(cells);
    let (mapping, reserved, null_code) = resolve_layout(&options, &distinct, has_nulls)?;

    // Encode chunk-local slice families in parallel.
    let chunk_rows = cells
        .len()
        .div_ceil(threads)
        .max(MIN_CHUNK)
        .next_multiple_of(64);
    let chunks: Vec<&[Cell]> = cells.chunks(chunk_rows).collect();
    let width = mapping.width() as usize;

    let encode_chunk = |chunk: &[Cell]| -> (Vec<BitVec>, Option<BitVec>) {
        let mut fam = SliceFamilyBuilder::new(width);
        let mut b_null: Option<BitVec> = None;
        for (row, cell) in chunk.iter().enumerate() {
            match cell {
                Cell::Value(v) => {
                    fam.push_code(mapping.code_of(*v).expect("pre-scan covered all values"));
                }
                Cell::Null => match options.policy {
                    NullPolicy::SeparateVectors => {
                        fam.push_code(0);
                        let bn = b_null.get_or_insert_with(|| BitVec::zeros(chunk.len()));
                        bn.set(row, true);
                    }
                    NullPolicy::EncodedReserved => {
                        fam.push_code(null_code.expect("null code reserved in pre-scan"));
                    }
                },
            }
        }
        (fam.finish(), b_null)
    };

    let mut results: Vec<Option<(Vec<BitVec>, Option<BitVec>)>> = Vec::new();
    results.resize_with(chunks.len(), || None);
    crossbeam::thread::scope(|scope| {
        for (slot, chunk) in results.iter_mut().zip(&chunks) {
            scope.spawn(move |_| {
                *slot = Some(encode_chunk(chunk));
            });
        }
    })
    .expect("worker thread panicked");

    // Stitch chunks in order (all but the last are 64-aligned).
    let mut slices: Vec<BitVec> = vec![BitVec::with_capacity(cells.len()); width];
    let mut b_null: Option<BitVec> = None;
    let mut stitched_rows = 0usize;
    for (chunk, result) in chunks.iter().zip(results) {
        let (chunk_slices, chunk_null) = result.expect("every chunk encoded");
        for (dst, src) in slices.iter_mut().zip(&chunk_slices) {
            dst.extend_bits(src);
        }
        match chunk_null {
            Some(cn) => {
                let bn = b_null.get_or_insert_with(|| BitVec::zeros(stitched_rows));
                bn.grow(stitched_rows);
                bn.extend_bits(&cn);
            }
            None => {
                if let Some(bn) = &mut b_null {
                    bn.grow(stitched_rows + chunk.len());
                }
            }
        }
        stitched_rows += chunk.len();
    }
    if let Some(bn) = &mut b_null {
        bn.grow(cells.len());
    }

    let summaries = Some(summarize_slices(&slices));
    let policy = crate::index::QueryOptions::default().storage_policy;
    let slices: Vec<ebi_bitvec::SliceStorage> = slices
        .into_iter()
        .map(|b| ebi_bitvec::SliceStorage::from_dense(b, policy))
        .collect();
    let run_stats = crate::index::aggregate_run_stats(&slices);
    Ok(EncodedBitmapIndex {
        mapping,
        slices,
        rows: cells.len(),
        policy: options.policy,
        reserved,
        null_code,
        b_not_exist: None,
        b_null,
        expr_cache: std::collections::HashMap::new(),
        free_runs: std::sync::OnceLock::new(),
        dont_cares: std::sync::OnceLock::new(),
        summaries,
        query_options: crate::index::QueryOptions::default(),
        permutation: None,
        row_order: crate::reorder::RowOrder::Original,
        run_stats,
    })
}

/// Resolves the mapping / reserved codes / NULL code exactly as the
/// serial `build_with` would.
fn resolve_layout(
    options: &BuildOptions,
    distinct: &[u64],
    has_nulls: bool,
) -> Result<(Mapping, Vec<u64>, Option<u64>), CoreError> {
    // Delegate to the serial builder on a synthetic column that exhibits
    // the same distinct values and NULL presence.
    let synthetic: Vec<Cell> = distinct
        .iter()
        .map(|&v| Cell::Value(v))
        .chain(has_nulls.then_some(Cell::Null))
        .collect();
    let probe = EncodedBitmapIndex::build_with(
        synthetic,
        BuildOptions {
            policy: options.policy,
            mapping: options.mapping.clone(),
            ..Default::default()
        },
    )?;
    Ok((
        probe.mapping().clone(),
        probe.reserved.clone(),
        probe.null_code,
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn column(rows: usize, m: u64, with_nulls: bool) -> Vec<Cell> {
        (0..rows as u64)
            .map(|i| {
                if with_nulls && i % 97 == 0 {
                    Cell::Null
                } else {
                    Cell::Value((i * 31) % m)
                }
            })
            .collect()
    }

    #[test]
    fn parallel_build_is_bit_identical_to_serial() {
        for (rows, with_nulls) in [(20_000usize, false), (20_000, true), (100, false)] {
            let cells = column(rows, 50, with_nulls);
            let serial = EncodedBitmapIndex::build(cells.iter().copied()).unwrap();
            let parallel = build_parallel(&cells, BuildOptions::default(), 4).unwrap();
            assert_eq!(parallel.mapping(), serial.mapping());
            assert_eq!(parallel.slices(), serial.slices(), "rows={rows}");
            assert_eq!(parallel.rows(), serial.rows());
            for v in 0..50u64 {
                assert_eq!(parallel.eq(v).unwrap().bitmap, serial.eq(v).unwrap().bitmap);
            }
            assert_eq!(parallel.is_null().bitmap, serial.is_null().bitmap);
        }
    }

    #[test]
    fn parallel_reserved_policy_matches_serial() {
        let cells = column(15_000, 20, true);
        let options = BuildOptions {
            policy: NullPolicy::EncodedReserved,
            mapping: None,
            ..Default::default()
        };
        let serial =
            EncodedBitmapIndex::build_with(cells.iter().copied(), options.clone()).unwrap();
        let parallel = build_parallel(&cells, options, 3).unwrap();
        assert_eq!(parallel.slices(), serial.slices());
        assert_eq!(parallel.is_null().bitmap, serial.is_null().bitmap);
        assert_eq!(parallel.null_code, serial.null_code);
    }

    #[test]
    fn custom_mappings_flow_through() {
        let cells = column(12_000, 8, false);
        let custom = Mapping::from_pairs(&[
            (0, 7),
            (1, 6),
            (2, 5),
            (3, 4),
            (4, 3),
            (5, 2),
            (6, 1),
            (7, 0),
        ])
        .unwrap();
        let options = BuildOptions {
            policy: NullPolicy::SeparateVectors,
            mapping: Some(custom),
            ..Default::default()
        };
        let parallel = build_parallel(&cells, options, 4).unwrap();
        assert_eq!(parallel.mapping().code_of(0), Some(7));
        let serial = EncodedBitmapIndex::build(cells.iter().copied()).unwrap();
        for v in 0..8u64 {
            assert_eq!(parallel.eq(v).unwrap().bitmap, serial.eq(v).unwrap().bitmap);
        }
    }

    #[test]
    fn small_inputs_take_the_serial_path() {
        let cells = column(100, 5, true);
        let idx = build_parallel(&cells, BuildOptions::default(), 8).unwrap();
        assert_eq!(idx.rows(), 100);
    }

    #[test]
    fn uneven_chunk_boundaries() {
        // Rows not a multiple of chunk size or 64.
        let cells = column(20_001, 13, true);
        let serial = EncodedBitmapIndex::build(cells.iter().copied()).unwrap();
        let parallel = build_parallel(&cells, BuildOptions::default(), 5).unwrap();
        assert_eq!(parallel.slices(), serial.slices());
        assert_eq!(parallel.is_null().bitmap, serial.is_null().bitmap);
    }
}
