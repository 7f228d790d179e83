//! Experiment E14 — §3.1 sparsity: simple bitmap vectors average
//! `(m-1)/m` zeros; encoded vectors sit near 1/2 independent of `m`.
//!
//! Also reports WAH compression ratios on both, showing the trade the
//! encoded index makes: its dense vectors barely compress, but there
//! are only `ceil(log2 m)` of them.

use ebi_analysis::report::TextTable;
use ebi_baselines::wah::WahBitmap;
use ebi_baselines::{SelectionIndex, SimpleBitmapIndex};
use ebi_bench::{uniform_cells, write_result};
use ebi_core::EncodedBitmapIndex;

fn main() {
    let rows = 100_000usize;
    let mut table = TextTable::new([
        "m",
        "simple_sparsity(model)",
        "simple_sparsity(measured)",
        "encoded_sparsity(model)",
        "encoded_sparsity(measured)",
        "simple_wah_ratio",
        "encoded_wah_ratio",
        "simple_wah_bytes",
        "encoded_raw_bytes",
    ]);
    for m in [2u64, 8, 32, 100, 500, 1000, 4000] {
        let cells = uniform_cells(m, rows, 0x5BA + m);
        let simple = SimpleBitmapIndex::build(cells.iter().copied());
        let encoded = EncodedBitmapIndex::build(cells.iter().copied()).expect("build EBI");

        // Mean WAH ratio across each family's vectors.
        let simple_vec_count = simple.bitmap_vector_count();
        let simple_wah: Vec<WahBitmap> = simple
            .values()
            .iter()
            .map(|&v| {
                let r = SelectionIndex::eq(&simple, v);
                WahBitmap::compress(&r.bitmap)
            })
            .collect();
        let simple_wah_bytes: usize = simple_wah.iter().map(WahBitmap::storage_bytes).sum();
        let simple_ratio = simple_wah
            .iter()
            .map(WahBitmap::compression_ratio)
            .sum::<f64>()
            / simple_vec_count as f64;
        let encoded_wah: Vec<WahBitmap> = encoded
            .slices()
            .iter()
            .map(|s| WahBitmap::compress(&s.to_dense()))
            .collect();
        let encoded_ratio = encoded_wah
            .iter()
            .map(WahBitmap::compression_ratio)
            .sum::<f64>()
            / encoded_wah.len() as f64;

        table.row([
            m.to_string(),
            format!("{:.4}", (m - 1) as f64 / m as f64),
            format!("{:.4}", simple.mean_sparsity()),
            "0.5000".to_string(),
            format!("{:.4}", encoded.mean_sparsity()),
            format!("{simple_ratio:.3}"),
            format!("{encoded_ratio:.3}"),
            simple_wah_bytes.to_string(),
            encoded
                .slices()
                .iter()
                .map(|s| s.to_dense().storage_bytes())
                .sum::<usize>()
                .to_string(),
        ]);
    }
    println!("== §3.1 sparsity and compressibility ({rows} rows, uniform) ==");
    println!("{}", table.render());
    write_result("sparsity.csv", &table.to_csv());
}
