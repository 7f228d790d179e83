//! Maintenance walkthrough (§2.2): appends with and without domain
//! expansion (Equation 1, Figure 2), NULLs, deletions under both
//! policies, and Theorem 2.1's no-mask property.
//!
//! ```sh
//! cargo run --example index_maintenance
//! ```

use ebi::prelude::*;

fn show(idx: &EncodedBitmapIndex, label: &str) {
    println!(
        "{label}: {} rows, width k = {}, {} bitmap vectors, mapping {:?}",
        idx.rows(),
        idx.width(),
        idx.bitmap_vector_count(),
        idx.mapping().iter().collect::<Vec<_>>()
    );
}

fn main() {
    // ------------------------------------------------------------------
    // Figure 2: the domain grows from {a, b, c} to {a..e}.
    // ------------------------------------------------------------------
    println!("--- updates with domain expansion (Figure 2) ---");
    let mut idx = EncodedBitmapIndex::build([0u64, 1, 2].map(Cell::Value)).expect("build");
    show(&idx, "initial {a,b,c}");

    let out = idx.append(Cell::Value(3)).expect("append d");
    println!(
        "append d -> code {:02b}, new vector: {} (Equation 1 held: ceil(log2 3) = ceil(log2 4))",
        idx.mapping().code_of(3).unwrap(),
        out.added_slice
    );

    let out = idx.append(Cell::Value(4)).expect("append e");
    println!(
        "append e -> code {:03b}, new vector: {} (ceil(log2 5) = 3 > 2: B2 added, zeroed)",
        idx.mapping().code_of(4).unwrap(),
        out.added_slice
    );
    show(&idx, "after expansion");
    for v in 0..5u64 {
        let r = idx.eq(v).expect("query");
        println!(
            "  f_{v} = {:<12} rows {:?}",
            r.expression,
            r.bitmap.to_positions()
        );
    }

    // ------------------------------------------------------------------
    // Deletion under the two §2.2 policies.
    // ------------------------------------------------------------------
    println!("\n--- deletion: separate vectors vs reserved codes ---");
    let cells = [10u64, 20, 30, 20, 10].map(Cell::Value);

    let mut sep = EncodedBitmapIndex::build(cells.iter().copied()).expect("build");
    sep.delete(1).expect("delete");
    let r = sep.eq(20).expect("query");
    println!(
        "separate-vectors : A=20 -> rows {:?}, expr {}, {} vectors (existence mask read)",
        r.bitmap.to_positions(),
        r.expression,
        r.stats.vectors_accessed
    );

    let mut res = EncodedBitmapIndex::build_with(
        cells.iter().copied(),
        BuildOptions {
            policy: NullPolicy::EncodedReserved,
            mapping: None,
        },
    )
    .expect("build");
    res.delete(1).expect("delete");
    let r = res.eq(20).expect("query");
    println!(
        "reserved-code    : A=20 -> rows {:?}, expr {}, {} vectors (Theorem 2.1: no mask)",
        r.bitmap.to_positions(),
        r.expression,
        r.stats.vectors_accessed
    );

    // ------------------------------------------------------------------
    // NULLs: encoded together with the domain (method 2 of §2.2).
    // ------------------------------------------------------------------
    println!("\n--- NULL handling ---");
    let with_nulls = vec![
        Cell::Value(1),
        Cell::Null,
        Cell::Value(2),
        Cell::Null,
        Cell::Value(1),
    ];
    let idx = EncodedBitmapIndex::build_with(
        with_nulls,
        BuildOptions {
            policy: NullPolicy::EncodedReserved,
            mapping: None,
        },
    )
    .expect("build");
    println!(
        "reserved codes: void=0, NULL and values share the {}-bit space; {} vectors total",
        idx.width(),
        idx.bitmap_vector_count()
    );
    println!("IS NULL rows: {:?}", idx.is_null().bitmap.to_positions());
    let r = idx.eq(1).expect("query");
    println!(
        "A = 1 -> rows {:?} ({} vectors, no NULL mask needed)",
        r.bitmap.to_positions(),
        r.stats.vectors_accessed
    );

    // ------------------------------------------------------------------
    // A long randomized session, verified against a shadow model.
    // ------------------------------------------------------------------
    println!("\n--- randomized session, shadow-checked ---");
    let mut idx = EncodedBitmapIndex::build(Vec::<Cell>::new()).expect("build");
    let mut shadow: Vec<Option<u64>> = Vec::new();
    let mut state = 0x5EEDu64;
    let mut next = move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        state
    };
    for _ in 0..500 {
        match next() % 10 {
            0..=6 => {
                let v = next() % 40;
                idx.append(Cell::Value(v)).expect("append");
                shadow.push(Some(v));
            }
            7 => {
                idx.append(Cell::Null).expect("append null");
                shadow.push(None);
            }
            _ => {
                if !shadow.is_empty() {
                    let row = (next() as usize) % shadow.len();
                    idx.delete(row).expect("delete");
                    shadow[row] = None;
                }
            }
        }
    }
    let mut checked = 0;
    for v in 0..40u64 {
        let got = idx.eq(v).expect("query").bitmap.to_positions();
        let expect: Vec<usize> = shadow
            .iter()
            .enumerate()
            .filter(|(_, &s)| s == Some(v))
            .map(|(i, _)| i)
            .collect();
        assert_eq!(got, expect, "value {v}");
        checked += got.len();
    }
    println!(
        "{} rows, all 40 point queries match the shadow model ({} matching rows checked)",
        idx.rows(),
        checked
    );
}
