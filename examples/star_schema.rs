//! OLAP on a star schema with hierarchy encoding — the paper's §2.3
//! SALESPOINT scenario (Figures 4–5): 12 branches grouped into 5
//! companies and 3 alliances (with m:N memberships), roll-up queries
//! answered straight off the encoded bitmap index.
//!
//! ```sh
//! cargo run --example star_schema
//! ```

use ebi::core::hierarchy::{paper_figure5_mapping, paper_salespoint_hierarchy};
use ebi::core::well_defined::{achieved_cost, workload_cost};
use ebi::prelude::*;
use ebi::warehouse::generator::{generate_sales_fact, StarSpec};
use ebi::warehouse::star::Dimension;
use ebi_storage::Table;

fn main() {
    // Generate a SALES fact table; salespoint ids 0..12 map to the
    // paper's branches 1..=12.
    let spec = StarSpec {
        rows: 50_000,
        ..StarSpec::default()
    };
    let fact = generate_sales_fact(&spec);
    let hierarchy = paper_salespoint_hierarchy();
    let mut star = StarSchema::new(fact);
    star.add_dimension(
        Dimension::new("salespoint", Table::new("salespoint_dim", &["id"]))
            .with_hierarchy(hierarchy.clone()),
    )
    .expect("fact has a salespoint column");

    // Branch ids in the fact are 0-based; the paper's hierarchy uses
    // 1..=12. Shift the column on indexing.
    let branch_cells: Vec<Cell> = star
        .fact()
        .scan("salespoint")
        .map(|(_, cell, _)| match cell.value() {
            Some(v) => Cell::Value(v + 1),
            None => Cell::Null,
        })
        .collect();

    // Index the branch column twice: with the paper's hierarchy
    // encoding (Figure 5(b)) and with the naive sequential encoding.
    let hier_idx = EncodedBitmapIndex::build_with(
        branch_cells.iter().copied(),
        BuildOptions {
            policy: NullPolicy::SeparateVectors,
            mapping: Some(paper_figure5_mapping()),
        },
    )
    .expect("build hierarchy-encoded index");
    let naive_idx = EncodedBitmapIndex::build(branch_cells.iter().copied()).expect("build");

    println!(
        "SALES fact: {} rows, 12 branches, hierarchy company->alliance",
        star.fact().row_count()
    );
    println!("\nroll-up selections (OLAP: 'sales of all companies in alliance …'):");
    println!(
        "{:<28} {:>18} {:>18}",
        "selection", "hierarchy-encoded", "naive-encoded"
    );
    for level in hierarchy.levels() {
        for group in level.group_names() {
            let members = star
                .hierarchy_members("salespoint", level.name(), group)
                .expect("group exists");
            let h = hier_idx.in_list(&members).expect("query");
            let n = naive_idx.in_list(&members).expect("query");
            assert_eq!(h.bitmap, n.bitmap, "encodings agree on answers");
            println!(
                "{:<28} {:>10} vectors {:>10} vectors",
                format!("{} = {}", level.name(), group),
                h.stats.vectors_accessed,
                n.stats.vectors_accessed,
            );
        }
    }

    let preds = hierarchy.predicates();
    println!(
        "\ntotal workload cost: hierarchy-encoded {} vs naive {} vectors",
        workload_cost(&paper_figure5_mapping(), &preds),
        workload_cost(naive_idx.mapping(), &preds),
    );

    // The paper's headline: alliance X needs ONE vector.
    let x_members = star
        .hierarchy_members("salespoint", "alliance", "X")
        .expect("alliance X");
    println!(
        "alliance X retrieval function: {} ({} vector)",
        hier_idx.explain_in_list(&x_members),
        achieved_cost(&paper_figure5_mapping(), &x_members)
    );

    // And the measures aggregate straight off the bitmap.
    let quantities: Vec<Option<u64>> = star
        .fact()
        .scan("quantity")
        .map(|(_, c, _)| c.value())
        .collect();
    let x_sales = hier_idx.in_list(&x_members).expect("query");
    let total: u64 = x_sales
        .bitmap
        .iter_ones()
        .filter_map(|row| quantities[row])
        .sum();
    println!(
        "SUM(quantity) over alliance X: {total} across {} rows",
        x_sales.bitmap.count_ones()
    );
}
