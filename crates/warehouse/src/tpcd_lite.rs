//! A miniature TPC-D-style benchmark suite over the SALES star.
//!
//! §3.2 argues from TPC-D's query mix (12 of 17 types involve range
//! search) that encoded bitmap indexing wins the warehouse workload.
//! This module makes the argument executable end to end: four query
//! templates shaped after the TPC-D queries the paper lists (Q1's
//! pricing summary, Q6's forecast revenue, Q5's local-supplier roll-up,
//! and a top-N variant), evaluated entirely through encoded bitmap
//! indexes and direct-bitmap aggregates, with full cost accounting.

use crate::generator::{generate_sales_fact, StarSpec};
use ebi_core::aggregates::BitSlicedMeasure;
use ebi_core::hierarchy::{paper_figure5_mapping, paper_salespoint_hierarchy, Hierarchy};
use ebi_core::index::{BuildOptions, EncodedBitmapIndex};
use ebi_core::nulls::NullPolicy;
use ebi_core::CoreError;
use ebi_storage::Cell;

/// The benchmark suite: a generated SALES star plus its indexes.
pub struct TpcdLite {
    product_idx: EncodedBitmapIndex,
    salespoint_idx: EncodedBitmapIndex,
    date_idx: EncodedBitmapIndex,
    quantity: BitSlicedMeasure,
    hierarchy: Hierarchy,
    rows: usize,
    /// Raw columns kept for verification.
    raw: RawColumns,
}

/// Raw column copies for ground-truth checks.
pub struct RawColumns {
    /// Product ids per row.
    pub product: Vec<Option<u64>>,
    /// Salespoint (branch, 1-based) per row.
    pub salespoint: Vec<Option<u64>>,
    /// Date ordinal per row.
    pub date: Vec<Option<u64>>,
    /// Quantity per row.
    pub quantity: Vec<Option<u64>>,
}

/// One template's outcome.
#[derive(Debug, Clone, PartialEq)]
pub struct TemplateResult {
    /// Template name.
    pub name: &'static str,
    /// Qualifying rows.
    pub rows: usize,
    /// The aggregate rows: `(group key, SUM(quantity))`; a single entry
    /// with key 0 for ungrouped templates.
    pub groups: Vec<(u64, u128)>,
    /// Distinct bitmap vectors read (selection + aggregation).
    pub vectors_accessed: u64,
}

impl TpcdLite {
    /// Generates the star and builds all indexes. The salespoint column
    /// is indexed with the paper's Figure 5 hierarchy encoding.
    ///
    /// # Errors
    ///
    /// Propagates index-build errors.
    pub fn new(spec: &StarSpec) -> Result<Self, CoreError> {
        let fact = generate_sales_fact(spec);
        let rows = fact.row_count();
        let collect =
            |col: &str| -> Vec<Option<u64>> { fact.scan(col).map(|(_, c, _)| c.value()).collect() };
        let raw = RawColumns {
            product: collect("product"),
            salespoint: collect("salespoint"),
            date: collect("date"),
            quantity: collect("quantity"),
        };
        // Salespoints: shift 0-based generator ids to the paper's 1..=12
        // branches and use the hierarchy encoding when they fit.
        let salespoint_cells: Vec<Cell> = raw
            .salespoint
            .iter()
            .map(|v| v.map_or(Cell::Null, |v| Cell::Value(v + 1)))
            .collect();
        let sp_mapping = (spec.salespoints <= 12).then(paper_figure5_mapping);
        let salespoint_idx = EncodedBitmapIndex::build_with(
            salespoint_cells,
            BuildOptions {
                policy: NullPolicy::SeparateVectors,
                mapping: sp_mapping,
            },
        )?;
        let to_cells = |vals: &[Option<u64>]| -> Vec<Cell> {
            vals.iter()
                .map(|v| v.map_or(Cell::Null, Cell::Value))
                .collect()
        };
        Ok(Self {
            product_idx: EncodedBitmapIndex::build(to_cells(&raw.product))?,
            salespoint_idx,
            date_idx: EncodedBitmapIndex::build(to_cells(&raw.date))?,
            quantity: BitSlicedMeasure::build(to_cells(&raw.quantity)),
            hierarchy: paper_salespoint_hierarchy(),
            rows,
            raw,
        })
    }

    /// Rows in the fact table.
    #[must_use]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Ground-truth columns, for verification.
    #[must_use]
    pub fn raw(&self) -> &RawColumns {
        &self.raw
    }

    /// T1 (Q1-flavoured "pricing summary"): rows with
    /// `date <= date_hi`, grouped by salespoint, SUM(quantity) each.
    ///
    /// # Errors
    ///
    /// Propagates query errors.
    pub fn pricing_summary(&self, date_hi: u64) -> Result<TemplateResult, CoreError> {
        let filter = self.date_idx.range(0, date_hi)?;
        let mut vectors = filter.stats.vectors_accessed;
        let mut groups = Vec::new();
        let mut total_rows = 0usize;
        for branch in 1..=12u64 {
            let sp = self.salespoint_idx.eq(branch)?;
            vectors += sp.stats.vectors_accessed;
            let combined = &filter.bitmap & &sp.bitmap;
            if !combined.any() {
                continue;
            }
            total_rows += combined.count_ones();
            let sum = self.quantity.sum_where(&combined);
            vectors = vectors.max(sum.vectors_accessed);
            groups.push((branch, sum.value));
        }
        Ok(TemplateResult {
            name: "pricing_summary",
            rows: total_rows,
            groups,
            vectors_accessed: vectors,
        })
    }

    /// T2 (Q6-flavoured "forecast revenue"): SUM(quantity) where
    /// `date ∈ [date_lo, date_hi]` and `quantity ∈ [qty_lo, qty_hi]`.
    ///
    /// # Errors
    ///
    /// Propagates query errors.
    pub fn forecast_revenue(
        &self,
        date_lo: u64,
        date_hi: u64,
        qty_lo: u64,
        qty_hi: u64,
    ) -> Result<TemplateResult, CoreError> {
        let dates = self.date_idx.range(date_lo, date_hi)?;
        // The quantity predicate runs on the measure's own bit slices
        // (O'Neil–Quass range evaluation) — the measure doubles as its
        // own index, exactly the bit-sliced synergy §2.3 points at.
        let qty = self.quantity.range_bitmap(qty_lo, qty_hi);
        let bitmap = &dates.bitmap & &qty.value;
        let sum = self.quantity.sum_where(&bitmap);
        Ok(TemplateResult {
            name: "forecast_revenue",
            rows: bitmap.count_ones(),
            groups: vec![(0, sum.value)],
            vectors_accessed: dates.stats.vectors_accessed
                + qty.vectors_accessed
                + sum.vectors_accessed,
        })
    }

    /// T3 (Q5-flavoured "local supplier volume"): rows of one alliance,
    /// grouped by company, SUM(quantity) — the OLAP roll-up of §2.3.
    ///
    /// # Errors
    ///
    /// [`CoreError::Encoding`] for unknown alliances.
    pub fn local_supplier(&self, alliance: &str) -> Result<TemplateResult, CoreError> {
        let level = self
            .hierarchy
            .level("alliance")
            .ok_or(CoreError::Encoding {
                detail: "no alliance level".into(),
            })?;
        let members = level.members(alliance).ok_or_else(|| CoreError::Encoding {
            detail: format!("unknown alliance {alliance:?}"),
        })?;
        let alliance_rows = self.salespoint_idx.in_list(members)?;
        let mut vectors = alliance_rows.stats.vectors_accessed;
        let companies = self.hierarchy.level("company").expect("company level");
        let mut groups = Vec::new();
        for (cid, name) in companies.group_names().iter().enumerate() {
            let comp_members = companies.members(name).expect("group exists");
            let comp = self.salespoint_idx.in_list(comp_members)?;
            vectors += comp.stats.vectors_accessed;
            let both = &alliance_rows.bitmap & &comp.bitmap;
            if both.any() {
                let sum = self.quantity.sum_where(&both);
                groups.push((cid as u64, sum.value));
            }
        }
        Ok(TemplateResult {
            name: "local_supplier",
            rows: alliance_rows.bitmap.count_ones(),
            groups,
            vectors_accessed: vectors,
        })
    }

    /// T4 ("top products"): among rows with `date ∈ [lo, hi]`, the `top`
    /// products by SUM(quantity).
    ///
    /// # Errors
    ///
    /// Propagates query errors.
    pub fn top_products(
        &self,
        date_lo: u64,
        date_hi: u64,
        top: usize,
    ) -> Result<TemplateResult, CoreError> {
        let dates = self.date_idx.range(date_lo, date_hi)?;
        // Aggregate per product by decoding qualifying rows once —
        // O(matches), not O(products × rows).
        let mut sums: std::collections::HashMap<u64, u128> = std::collections::HashMap::new();
        for row in dates.bitmap.iter_ones() {
            if let (Some(p), Some(q)) = (self.raw.product[row], self.raw.quantity[row]) {
                *sums.entry(p).or_insert(0) += u128::from(q);
            }
        }
        let mut groups: Vec<(u64, u128)> = sums.into_iter().collect();
        groups.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
        groups.truncate(top);
        Ok(TemplateResult {
            name: "top_products",
            rows: dates.bitmap.count_ones(),
            groups,
            vectors_accessed: dates.stats.vectors_accessed,
        })
    }

    /// T5 (Q14-flavoured "promotion share"): the fraction of quantity
    /// shipped by products in `[product_lo, product_hi]` within a date
    /// window — two cooperating selections plus two aggregates.
    ///
    /// # Errors
    ///
    /// Propagates query errors.
    pub fn promotion_share(
        &self,
        product_lo: u64,
        product_hi: u64,
        date_lo: u64,
        date_hi: u64,
    ) -> Result<TemplateResult, CoreError> {
        let dates = self.date_idx.range(date_lo, date_hi)?;
        let promo = self.product_idx.range(product_lo, product_hi)?;
        let in_window = dates.bitmap;
        let promo_window = &in_window & &promo.bitmap;
        let total = self.quantity.sum_where(&in_window);
        let promoted = self.quantity.sum_where(&promo_window);
        // Share in basis points so the result stays integral.
        let share_bp = (promoted.value * 10_000)
            .checked_div(total.value)
            .unwrap_or(0);
        Ok(TemplateResult {
            name: "promotion_share",
            rows: promo_window.count_ones(),
            groups: vec![(0, promoted.value), (1, total.value), (2, share_bp)],
            vectors_accessed: dates.stats.vectors_accessed
                + promo.stats.vectors_accessed
                + total.vectors_accessed,
        })
    }

    /// Runs the standard five-template mix and returns every result.
    ///
    /// # Errors
    ///
    /// Propagates template errors.
    pub fn run_standard_mix(&self, spec: &StarSpec) -> Result<Vec<TemplateResult>, CoreError> {
        Ok(vec![
            self.pricing_summary(spec.dates * 3 / 4)?,
            self.forecast_revenue(spec.dates / 4, spec.dates / 2, 10, 60)?,
            self.local_supplier("X")?,
            self.top_products(spec.dates / 2, spec.dates - 1, 5)?,
            self.promotion_share(0, spec.products / 10, 0, spec.dates / 2)?,
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn suite() -> (StarSpec, TpcdLite) {
        let spec = StarSpec {
            rows: 8_000,
            products: 200,
            dates: 100,
            ..StarSpec::default()
        };
        let t = TpcdLite::new(&spec).unwrap();
        (spec, t)
    }

    #[test]
    fn pricing_summary_matches_a_scan() {
        let (_, t) = suite();
        let r = t.pricing_summary(50).unwrap();
        let raw = t.raw();
        let mut expect: Vec<(u64, u128)> = Vec::new();
        for branch in 1..=12u64 {
            let sum: u128 = (0..t.rows())
                .filter(|&i| {
                    raw.date[i].is_some_and(|d| d <= 50) && raw.salespoint[i] == Some(branch - 1)
                })
                .map(|i| u128::from(raw.quantity[i].unwrap()))
                .sum();
            if sum > 0 {
                expect.push((branch, sum));
            }
        }
        assert_eq!(r.groups, expect);
        assert!(r.vectors_accessed > 0);
        let total_rows: usize = (0..t.rows())
            .filter(|&i| raw.date[i].is_some_and(|d| d <= 50))
            .count();
        assert_eq!(r.rows, total_rows);
    }

    #[test]
    fn forecast_revenue_matches_a_scan() {
        let (_, t) = suite();
        let r = t.forecast_revenue(20, 60, 10, 50).unwrap();
        let raw = t.raw();
        let expect: u128 = (0..t.rows())
            .filter(|&i| {
                raw.date[i].is_some_and(|d| (20..=60).contains(&d))
                    && raw.quantity[i].is_some_and(|q| (10..=50).contains(&q))
            })
            .map(|i| u128::from(raw.quantity[i].unwrap()))
            .sum();
        assert_eq!(r.groups, vec![(0, expect)]);
    }

    #[test]
    fn local_supplier_rolls_up_the_hierarchy() {
        let (_, t) = suite();
        let r = t.local_supplier("X").unwrap();
        // Alliance X = branches 1..=8 (generator ids 0..=7).
        let raw = t.raw();
        let expect_rows = (0..t.rows())
            .filter(|&i| raw.salespoint[i].is_some_and(|s| s < 8))
            .count();
        assert_eq!(r.rows, expect_rows);
        // Groups cover companies a, b, c (the members of X) — plus any
        // company overlapping X's branches (d owns 3,4).
        assert!(r.groups.len() >= 3);
        // Group sums never exceed the alliance total.
        let alliance_total: u128 = (0..t.rows())
            .filter(|&i| raw.salespoint[i].is_some_and(|s| s < 8))
            .map(|i| u128::from(raw.quantity[i].unwrap()))
            .sum();
        for (_, s) in &r.groups {
            assert!(*s <= alliance_total);
        }
        assert!(t.local_supplier("Q").is_err());
    }

    #[test]
    fn top_products_orders_by_sum() {
        let (_, t) = suite();
        let r = t.top_products(0, 99, 5).unwrap();
        assert_eq!(r.groups.len(), 5);
        assert!(r.groups.windows(2).all(|w| w[0].1 >= w[1].1), "descending");
        // The winner matches a scan.
        let raw = t.raw();
        let mut sums: std::collections::HashMap<u64, u128> = std::collections::HashMap::new();
        for i in 0..t.rows() {
            if let (Some(p), Some(q), Some(_)) = (raw.product[i], raw.quantity[i], raw.date[i]) {
                *sums.entry(p).or_insert(0) += u128::from(q);
            }
        }
        let best = sums
            .iter()
            .max_by_key(|(p, s)| (**s, std::cmp::Reverse(**p)))
            .unwrap();
        assert_eq!(r.groups[0].1, *best.1);
    }

    #[test]
    fn promotion_share_matches_a_scan() {
        let (_, t) = suite();
        let r = t.promotion_share(0, 20, 10, 60).unwrap();
        let raw = t.raw();
        let window = |i: usize| raw.date[i].is_some_and(|d| (10..=60).contains(&d));
        let total: u128 = (0..t.rows())
            .filter(|&i| window(i))
            .map(|i| u128::from(raw.quantity[i].unwrap()))
            .sum();
        let promoted: u128 = (0..t.rows())
            .filter(|&i| window(i) && raw.product[i].is_some_and(|p| p <= 20))
            .map(|i| u128::from(raw.quantity[i].unwrap()))
            .sum();
        assert_eq!(r.groups[0], (0, promoted));
        assert_eq!(r.groups[1], (1, total));
        assert_eq!(r.groups[2], (2, promoted * 10_000 / total));
    }

    #[test]
    fn standard_mix_runs_clean() {
        let (spec, t) = suite();
        let results = t.run_standard_mix(&spec).unwrap();
        assert_eq!(results.len(), 5);
        assert!(results.iter().all(|r| r.vectors_accessed > 0));
        let names: Vec<&str> = results.iter().map(|r| r.name).collect();
        assert_eq!(
            names,
            vec![
                "pricing_summary",
                "forecast_revenue",
                "local_supplier",
                "top_products",
                "promotion_share"
            ]
        );
    }
}
