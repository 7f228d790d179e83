//! Range-based encoded bitmap indexes (§2.3, Figures 7–8).
//!
//! When end users pre-define their range selections, the attribute
//! domain is partitioned into the disjoint intervals induced by the
//! selection endpoints, each *interval* becomes one encoded value, and a
//! well-chosen interval encoding makes every predefined range reduce to
//! a couple of vectors. Unlike Wu & Yu's distribution-balanced ranges
//! (§4), the partitions here follow the predicates, so retrieval
//! functions match the desired tuples exactly.

use crate::error::CoreError;
use crate::index::{BuildOptions, EncodedBitmapIndex, QueryResult};
use crate::mapping::Mapping;
use crate::nulls::NullPolicy;
use ebi_boolean::qm;
use ebi_storage::Cell;

/// A half-open interval `[lo, hi)` over a discrete numeric domain.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub struct Interval {
    /// Inclusive lower bound.
    pub lo: u64,
    /// Exclusive upper bound.
    pub hi: u64,
}

impl Interval {
    /// Creates `[lo, hi)`.
    ///
    /// # Panics
    ///
    /// Panics if `lo >= hi`.
    #[must_use]
    pub fn new(lo: u64, hi: u64) -> Self {
        assert!(lo < hi, "empty interval [{lo}, {hi})");
        Self { lo, hi }
    }

    /// `true` if `v` falls inside.
    #[must_use]
    pub fn contains(&self, v: u64) -> bool {
        (self.lo..self.hi).contains(&v)
    }
}

/// Computes the disjoint partition of `[domain_lo, domain_hi)` induced by
/// the endpoints of `ranges` (Figure 7's construction).
///
/// # Errors
///
/// [`CoreError::BadInterval`] if a range reaches outside the domain.
pub fn partition_domain(
    domain_lo: u64,
    domain_hi: u64,
    ranges: &[Interval],
) -> Result<Vec<Interval>, CoreError> {
    if domain_lo >= domain_hi {
        return Err(CoreError::BadInterval {
            detail: format!("empty domain [{domain_lo}, {domain_hi})"),
        });
    }
    let mut cuts = vec![domain_lo, domain_hi];
    for r in ranges {
        if r.lo < domain_lo || r.hi > domain_hi {
            return Err(CoreError::BadInterval {
                detail: format!(
                    "range [{}, {}) outside domain [{domain_lo}, {domain_hi})",
                    r.lo, r.hi
                ),
            });
        }
        cuts.push(r.lo);
        cuts.push(r.hi);
    }
    cuts.sort_unstable();
    cuts.dedup();
    Ok(cuts.windows(2).map(|w| Interval::new(w[0], w[1])).collect())
}

/// A range-based encoded bitmap index over a numeric column.
#[derive(Debug, Clone)]
pub struct RangeBasedIndex {
    partitions: Vec<Interval>,
    inner: EncodedBitmapIndex,
    domain: Interval,
}

impl RangeBasedIndex {
    /// Builds from a numeric column, the domain bounds, the predefined
    /// ranges, and an optional explicit interval mapping (interval id =
    /// position in the partition list; `None` encodes intervals with
    /// their partition ordinal).
    ///
    /// # Errors
    ///
    /// [`CoreError::BadInterval`] for out-of-domain ranges or values.
    pub fn build(
        column: &[u64],
        domain: Interval,
        predefined: &[Interval],
        interval_mapping: Option<Mapping>,
    ) -> Result<Self, CoreError> {
        let partitions = partition_domain(domain.lo, domain.hi, predefined)?;
        let cells: Vec<Cell> = column
            .iter()
            .map(|&v| {
                let pid = partitions.iter().position(|iv| iv.contains(v)).ok_or(
                    CoreError::BadInterval {
                        detail: format!("value {v} outside domain [{}, {})", domain.lo, domain.hi),
                    },
                )?;
                Ok(Cell::Value(pid as u64))
            })
            .collect::<Result<_, CoreError>>()?;
        let inner = EncodedBitmapIndex::build_with(
            cells,
            BuildOptions {
                policy: NullPolicy::SeparateVectors,
                mapping: interval_mapping,
            },
        )?;
        Ok(Self {
            partitions,
            inner,
            domain,
        })
    }

    /// The induced partition (Figure 7).
    #[must_use]
    pub fn partitions(&self) -> &[Interval] {
        &self.partitions
    }

    /// The underlying encoded bitmap index over interval ids.
    #[must_use]
    pub fn inner(&self) -> &EncodedBitmapIndex {
        &self.inner
    }

    /// Interval ids exactly covering `[lo, hi)`, or an error if the range
    /// is not aligned to partition boundaries.
    ///
    /// # Errors
    ///
    /// [`CoreError::BadInterval`] for unaligned or out-of-domain ranges.
    pub fn covering_intervals(&self, lo: u64, hi: u64) -> Result<Vec<u64>, CoreError> {
        if lo >= hi || lo < self.domain.lo || hi > self.domain.hi {
            return Err(CoreError::BadInterval {
                detail: format!("range [{lo}, {hi}) outside domain"),
            });
        }
        let mut ids = Vec::new();
        for (pid, iv) in self.partitions.iter().enumerate() {
            if iv.lo >= lo && iv.hi <= hi {
                ids.push(pid as u64);
            } else if iv.lo < hi && iv.hi > lo {
                return Err(CoreError::BadInterval {
                    detail: format!(
                        "range [{lo}, {hi}) cuts partition [{}, {}); not predefined",
                        iv.lo, iv.hi
                    ),
                });
            }
        }
        Ok(ids)
    }

    /// Evaluates the predefined-style range selection `lo <= A < hi`.
    ///
    /// # Errors
    ///
    /// [`CoreError::BadInterval`] if the range is not aligned to the
    /// partition (i.e. was not predefined and cannot be answered
    /// exactly).
    pub fn query_range(&self, lo: u64, hi: u64) -> Result<QueryResult, CoreError> {
        let ids = self.covering_intervals(lo, hi)?;
        self.inner.in_list(&ids)
    }

    /// The reduced retrieval function for `lo <= A < hi`, in the paper's
    /// notation (Figure 8(b)).
    ///
    /// # Errors
    ///
    /// Same alignment requirements as [`RangeBasedIndex::query_range`].
    pub fn explain_range(&self, lo: u64, hi: u64) -> Result<String, CoreError> {
        let ids = self.covering_intervals(lo, hi)?;
        let codes: Vec<u64> = ids
            .iter()
            .filter_map(|&id| self.inner.mapping().code_of(id))
            .collect();
        Ok(qm::minimize(&codes, self.inner.dont_care_codes(), self.inner.width()).to_string())
    }
}

/// The paper's Figure 8(a) interval mapping for the domain `6 <= A < 20`
/// with predefined ranges `[6,10) [8,12) [10,13) [16,20)`:
/// intervals `[6,8) [8,10) [10,12) [12,13) [13,16) [16,20)` encoded as
/// `000, 001, 101, 100, 010, 110`.
#[must_use]
pub fn paper_figure8_mapping() -> Mapping {
    Mapping::from_pairs(&[
        (0, 0b000), // [6,8)
        (1, 0b001), // [8,10)
        (2, 0b101), // [10,12)
        (3, 0b100), // [12,13)
        (4, 0b010), // [13,16)
        (5, 0b110), // [16,20)
    ])
    .expect("the paper's mapping is a bijection")
}

/// The paper's predefined ranges of Figure 7.
#[must_use]
pub fn paper_figure7_ranges() -> Vec<Interval> {
    vec![
        Interval::new(6, 10),
        Interval::new(8, 12),
        Interval::new(10, 13),
        Interval::new(16, 20),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn figure7_partition() {
        let parts = partition_domain(6, 20, &paper_figure7_ranges()).unwrap();
        let expect: Vec<Interval> = [(6, 8), (8, 10), (10, 12), (12, 13), (13, 16), (16, 20)]
            .iter()
            .map(|&(a, b)| Interval::new(a, b))
            .collect();
        assert_eq!(parts, expect);
    }

    fn paper_index() -> RangeBasedIndex {
        // One row per domain value 6..20 keeps verification obvious.
        let column: Vec<u64> = (6..20).collect();
        RangeBasedIndex::build(
            &column,
            Interval::new(6, 20),
            &paper_figure7_ranges(),
            Some(paper_figure8_mapping()),
        )
        .unwrap()
    }

    #[test]
    fn figure8_retrieval_functions() {
        let idx = paper_index();
        // The paper's reduced functions (Figure 8(b)) — except [8,12),
        // where exploiting the don't-care codes 011/111 (footnote 3)
        // yields B0 alone, one vector better than the paper's B1'B0.
        assert_eq!(idx.explain_range(6, 10).unwrap(), "B2'B1'");
        assert_eq!(idx.explain_range(8, 12).unwrap(), "B0");
        assert_eq!(idx.explain_range(10, 13).unwrap(), "B2B1'");
        assert_eq!(idx.explain_range(16, 20).unwrap(), "B2B1");
        // Without don't-cares the reduction matches Figure 8(b) exactly.
        let codes = [0b001u64, 0b101]; // [8,10) and [10,12)
        let no_dc = qm::minimize(&codes, &[], 3);
        assert_eq!(no_dc.to_string(), "B1'B0");
    }

    #[test]
    fn predefined_ranges_return_exact_rows() {
        let idx = paper_index();
        // Row i holds value 6 + i.
        let r = idx.query_range(8, 12).unwrap();
        assert_eq!(r.bitmap.to_positions(), vec![2, 3, 4, 5], "values 8..12");
        assert_eq!(
            r.stats.vectors_accessed, 1,
            "B0 alone, thanks to don't-cares"
        );
        let r2 = idx.query_range(16, 20).unwrap();
        assert_eq!(r2.bitmap.to_positions(), vec![10, 11, 12, 13]);
    }

    #[test]
    fn unaligned_ranges_are_rejected() {
        let idx = paper_index();
        let err = idx.query_range(7, 11).unwrap_err();
        assert!(matches!(err, CoreError::BadInterval { .. }));
        assert!(idx.query_range(0, 5).is_err(), "outside domain");
        assert!(idx.query_range(12, 12).is_err(), "empty");
    }

    #[test]
    fn composed_boundary_ranges_work_too() {
        // [8, 13) = [8,10) ∪ [10,12) ∪ [12,13): aligned, so answerable
        // even though not itself predefined.
        let idx = paper_index();
        let r = idx.query_range(8, 13).unwrap();
        assert_eq!(r.bitmap.to_positions(), (2..7).collect::<Vec<_>>());
    }

    #[test]
    fn default_interval_encoding_also_answers() {
        let column: Vec<u64> = (6..20).chain(6..20).collect();
        let idx =
            RangeBasedIndex::build(&column, Interval::new(6, 20), &paper_figure7_ranges(), None)
                .unwrap();
        let r = idx.query_range(6, 10).unwrap();
        let expect: Vec<usize> = (0..28).filter(|&i| (6..10).contains(&column[i])).collect();
        assert_eq!(r.bitmap.to_positions(), expect);
    }

    #[test]
    fn out_of_domain_values_rejected_at_build() {
        let err = RangeBasedIndex::build(&[5], Interval::new(6, 20), &paper_figure7_ranges(), None)
            .unwrap_err();
        assert!(matches!(err, CoreError::BadInterval { .. }));
        // Ranges outside the domain too.
        assert!(partition_domain(6, 20, &[Interval::new(0, 9)]).is_err());
    }

    #[test]
    #[should_panic(expected = "empty interval")]
    fn degenerate_interval_panics() {
        let _ = Interval::new(5, 5);
    }
}
