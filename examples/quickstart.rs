//! Quickstart: build an encoded bitmap index, inspect the mapping
//! table, and watch retrieval expressions reduce — the paper's
//! Figure 1 / §3.1 Q1–Q2 walk-through, runnable.
//!
//! ```sh
//! cargo run --example quickstart
//! ```

use ebi::prelude::*;

fn main() {
    // The Figure 1 column: attribute A over {a, b, c} (ids 0, 1, 2).
    let mut dict = Dictionary::new();
    let column: Vec<Cell> = ["a", "b", "c", "b", "a", "c"]
        .iter()
        .map(|s| Cell::Value(dict.intern(s)))
        .collect();

    let idx = EncodedBitmapIndex::build(column.iter().copied()).expect("build index");
    println!("encoded bitmap index over {} rows", idx.rows());
    println!(
        "domain size {} -> {} bitmap vectors (simple indexing would need {})",
        idx.mapping().len(),
        idx.width(),
        idx.mapping().len()
    );
    println!("\nmapping table:");
    for (value, code) in idx.mapping().iter() {
        println!(
            "  {:>3} -> {:0width$b}",
            dict.term(value).unwrap(),
            code,
            width = idx.width() as usize
        );
    }

    // Q1: SELECT * FROM T WHERE A = 'a'
    let a = dict.id("a").unwrap();
    let q1 = idx.eq(a).expect("query");
    println!("\nQ1  A = 'a'");
    println!("  retrieval function : {}", q1.expression);
    println!("  vectors accessed   : {}", q1.stats.vectors_accessed);
    println!("  matching rows      : {:?}", q1.bitmap.to_positions());

    // Q2: SELECT * FROM T WHERE A = 'a' OR A = 'b' — reduces to B1'.
    let b = dict.id("b").unwrap();
    let q2 = idx.in_list(&[a, b]).expect("query");
    println!("\nQ2  A IN ('a','b')");
    println!("  retrieval function : {}", q2.expression);
    println!(
        "  vectors accessed   : {} (simple bitmap indexing reads 2 here)",
        q2.stats.vectors_accessed
    );
    println!("  matching rows      : {:?}", q2.bitmap.to_positions());

    // The same selection through a simple bitmap index, for contrast.
    let simple = SimpleBitmapIndex::build(column.iter().copied());
    let s2 = simple.in_list(&[a, b]);
    println!("\nsimple bitmap index, same query:");
    println!("  vectors accessed   : {}", s2.stats.vectors_accessed);
    assert_eq!(q2.bitmap, s2.bitmap, "identical answers");

    // Maintenance: append a tuple with a brand-new value 'd' (the
    // Figure 2(a) expansion), then 'e' (Figure 2(b): a new vector).
    let mut idx = idx;
    let d = dict.intern("d");
    let out = idx.append(Cell::Value(d)).expect("append");
    println!(
        "\nappend 'd': row {}, new vector added: {}",
        out.row, out.added_slice
    );
    let e = dict.intern("e");
    let out = idx.append(Cell::Value(e)).expect("append");
    println!(
        "append 'e': row {}, new vector added: {} (width now {})",
        out.row,
        out.added_slice,
        idx.width()
    );
    let q = idx.eq(a).expect("query");
    println!(
        "A = 'a' after expansion: {} -> rows {:?}",
        q.expression,
        q.bitmap.to_positions()
    );
}
