//! Seeded mutation sweep over persisted index images.
//!
//! A persisted image is input from outside the program. For one saved
//! index per physical shape, every segment of the image is truncated
//! and bit-flipped — exhaustively near its header, where the length and
//! count fields live, and at seeded positions beyond — and
//! `load_index` must answer each mutant with an `Err` or with an index
//! whose vectors all have `rows()` bits. It must never panic (debug
//! arithmetic checks) and never size an allocation by a corrupted
//! header (release wrap-around), so CI runs this file in both profiles.

use ebi::bitvec::{StorageKind, StoragePolicy};
use ebi::core::index::QueryOptions;
use ebi::core::persist::{load_index, save_index, IndexHandle};
use ebi::prelude::*;
use ebi::storage::pager::Pager;
use ebi::storage::segment::{read_segment, write_segment, SegmentHandle};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::panic::{catch_unwind, AssertUnwindSafe};

/// Mostly value 0, every 50th row one of 39 others, optionally a NULL
/// every 97th: a skewed 6-slice column.
fn skewed(rows: usize, nulls: bool) -> Vec<Cell> {
    (0..rows)
        .map(|i| {
            if nulls && i % 97 == 0 {
                Cell::Null
            } else if i % 50 == 0 {
                Cell::Value((i / 50 % 39 + 1) as u64)
            } else {
                Cell::Value(0)
            }
        })
        .collect()
}

/// Three Roaring chunks of rows whose four slices land, under the
/// adaptive policy, in a dense vector (bit 0 alternates), array
/// containers (bit 1 is rare), run containers (bit 2 is one long
/// stretch) and a bitmap container (bit 3 is half set in the first
/// chunk only, so the slice as a whole is sparse enough to compress).
fn one_container_kind_per_slice() -> EncodedBitmapIndex {
    let rows = 3 << 16;
    let mut state = 0x9E37_79B9_7F4A_7C15u64;
    let cells = (0..rows).map(|i: u64| {
        state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
        let b1 = u64::from(i.is_multiple_of(1000));
        let b2 = u64::from((40_000..150_000).contains(&i));
        let b3 = u64::from(i < 1 << 16 && state >> 63 == 1);
        Cell::Value((i % 2) | (b1 << 1) | (b2 << 2) | (b3 << 3))
    });
    let options = BuildOptions {
        mapping: Some(Mapping::sequential(16)),
        ..Default::default()
    };
    EncodedBitmapIndex::build_with(cells, options).unwrap()
}

fn shapes() -> Vec<(&'static str, EncodedBitmapIndex)> {
    let adaptive = one_container_kind_per_slice();
    let kinds: Vec<_> = adaptive.slices().iter().map(|s| s.kind()).collect();
    assert!(kinds.contains(&StorageKind::Dense), "{kinds:?}");
    assert!(kinds.contains(&StorageKind::Roaring), "{kinds:?}");

    let mut wah = EncodedBitmapIndex::build(skewed(5_000, false)).unwrap();
    wah.set_query_options(QueryOptions {
        storage_policy: StoragePolicy::Wah,
        ..Default::default()
    });

    let mut separate = EncodedBitmapIndex::build(skewed(3_000, true)).unwrap();
    separate.delete(7).unwrap();

    let with = |options| EncodedBitmapIndex::build_with(skewed(3_000, true), options).unwrap();
    let reserved = with(BuildOptions {
        policy: NullPolicy::EncodedReserved,
        ..Default::default()
    });
    let lexicographic = with(BuildOptions {
        row_order: RowOrder::Lexicographic,
        ..Default::default()
    });
    vec![
        ("adaptive", adaptive),
        ("wah", wah),
        ("separate", separate),
        ("reserved", reserved),
        ("lexicographic", lexicographic),
    ]
}

/// Every segment the handle names, in a fixed order, swappable in place.
fn segments(handle: &mut IndexHandle) -> Vec<(String, &mut SegmentHandle)> {
    let slices = handle.slices.iter_mut().enumerate();
    let mut out: Vec<_> = slices.map(|(i, s)| (format!("slice {i}"), s)).collect();
    out.push(("mapping".into(), &mut handle.mapping));
    out.push(("meta".into(), &mut handle.meta));
    out.extend(
        handle
            .b_not_exist
            .as_mut()
            .map(|s| ("b_not_exist".into(), s)),
    );
    out.extend(handle.b_null.as_mut().map(|s| ("b_null".into(), s)));
    out.extend(
        handle
            .permutation
            .as_mut()
            .map(|s| ("permutation".into(), s)),
    );
    out
}

/// The mutants of one blob, each with a description for the report.
fn mutants(blob: &[u8], rng: &mut StdRng) -> Vec<(String, Vec<u8>)> {
    let len = blob.len();
    let mut out = Vec::new();
    let cuts = (0..len.min(64)).chain((0..32).map(|_| rng.random_range(0..len)));
    for keep in cuts.collect::<Vec<_>>() {
        out.push((
            format!("truncated to {keep} of {len} bytes"),
            blob[..keep].to_vec(),
        ));
    }
    let header = (0..len.min(32)).flat_map(|byte| (0..8).map(move |bit| (byte, bit)));
    let seeded = (0..256).map(|_| (rng.random_range(0..len), rng.random_range(0..8)));
    for (byte, bit) in header.chain(seeded).collect::<Vec<_>>() {
        let mut flipped = blob.to_vec();
        flipped[byte] ^= 1 << bit;
        out.push((format!("bit {bit} of byte {byte} flipped"), flipped));
    }
    out
}

#[test]
fn no_mutated_image_panics_or_loads_inconsistent() {
    let mut rng = StdRng::seed_from_u64(1998);
    let mut failures = Vec::new();
    let mut cases = 0usize;
    for (shape, index) in shapes() {
        let mut seen = Vec::new();
        let n_segments = segments(&mut save_index(&index, &Pager::new()).unwrap()).len();
        for n in 0..n_segments {
            // A pager per segment: the mutants pile up in it.
            let pager = Pager::new();
            let mut handle = save_index(&index, &pager).unwrap();
            let (name, original) = segments(&mut handle).swap_remove(n);
            let blob = read_segment(&pager, original).unwrap();
            for (what, mutant) in mutants(&blob, &mut rng) {
                *segments(&mut handle).swap_remove(n).1 = write_segment(&pager, &mutant).unwrap();
                cases += 1;
                let verdict = match catch_unwind(AssertUnwindSafe(|| load_index(&pager, &handle))) {
                    Err(_) => "panicked",
                    Ok(Ok(idx)) if idx.slices().iter().any(|s| s.len() != idx.rows()) => {
                        "loaded with a vector that is not rows() long"
                    }
                    Ok(_) => continue,
                };
                failures.push(format!("{shape} / {name}: {what}: {verdict}"));
            }
            seen.push(name);
        }
        match shape {
            "separate" => assert!(seen.iter().any(|s| s == "b_null"), "{seen:?}"),
            "lexicographic" => assert!(seen.iter().any(|s| s == "permutation"), "{seen:?}"),
            _ => {}
        }
    }
    assert!(cases > 10_000, "only {cases} mutants tried");
    assert!(
        failures.is_empty(),
        "{} of {cases} mutants:\n{}",
        failures.len(),
        failures.join("\n")
    );
}
