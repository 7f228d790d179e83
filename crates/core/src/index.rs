//! The encoded bitmap index (Definition 2.1).

use crate::error::CoreError;
use crate::intern::{intern_column, Interner, NULL_SLOT};
use crate::mapping::Mapping;
use crate::nulls::{NullPolicy, VOID_CODE};
use crate::total_order::dense_order_mapping_after;
use ebi_bitvec::builder::SliceFamilyBuilder;
use ebi_bitvec::summary::{summarize_slices, summarize_storage};
use ebi_bitvec::{
    BitVec, DnfPlan, RunStats, SegmentSummary, SliceStorage, StoragePolicy, SEGMENT_BITS,
    SEGMENT_WORDS,
};
use ebi_boolean::{interval, qm, AccessTracker, DnfExpr};
use ebi_obs::CostCounters;
use ebi_storage::Cell;
use std::ops::Range;
use std::sync::OnceLock;

/// Result of one query: the selection bitmap (bit `j` set iff live row
/// `j` matches) plus cost accounting.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct QueryResult {
    /// Matching rows.
    pub bitmap: BitVec,
    /// Cost of producing it, in the units of the paper's analysis.
    pub stats: CostCounters,
    /// The reduced retrieval expression, in the paper's notation
    /// (diagnostic; empty when the caller holds the text itself, and for
    /// non-expression indexes).
    pub expression: String,
}

/// The bitmap vectors one selection evaluates over and masks with: an
/// index's own, or the ones a [`crate::paged::PagedIndex`] fetched for
/// the query. Slices outside the expression's support are never read.
pub(crate) struct Vectors<'a> {
    pub(crate) slices: &'a [SliceStorage],
    pub(crate) summaries: Option<&'a [SegmentSummary]>,
    pub(crate) b_null: Option<&'a BitVec>,
    pub(crate) b_not_exist: Option<&'a BitVec>,
}

/// Options for [`EncodedBitmapIndex::build_with`].
#[derive(Debug, Clone, Default)]
pub struct BuildOptions {
    /// NULL/void representation.
    pub policy: NullPolicy,
    /// Explicit mapping table; `None` assigns codes in value order
    /// ([`crate::total_order::dense_order_mapping`]), so that a value
    /// range is a code interval.
    pub mapping: Option<Mapping>,
}

/// An encoded bitmap index on one attribute.
///
/// Per Definition 2.1 the index is a set of `k = ceil(log2 m)` bitmap
/// vectors, a one-to-one mapping `M^A`, and the retrieval functions
/// (materialised on demand as reduced [`DnfExpr`]s). Companion vectors
/// `B_NotExist` / `B_NULL` exist only under
/// [`NullPolicy::SeparateVectors`] and only once a deletion/NULL occurs.
#[derive(Debug, Clone)]
pub struct EncodedBitmapIndex {
    pub(crate) mapping: Mapping,
    pub(crate) slices: Vec<SliceStorage>,
    pub(crate) rows: usize,
    pub(crate) policy: NullPolicy,
    /// Reserved codes (void, NULL) under `EncodedReserved`.
    pub(crate) reserved: Vec<u64>,
    pub(crate) null_code: Option<u64>,
    pub(crate) b_not_exist: Option<BitVec>,
    pub(crate) b_null: Option<BitVec>,
    /// Precomputed reduced expressions for predefined predicates
    /// (normalised sorted value lists) — §3.2's "the retrieval functions
    /// for all the predefined predicates can also be reduced" offline.
    pub(crate) expr_cache: std::collections::HashMap<Vec<u64>, DnfExpr>,
    /// The don't-care codes as sorted inclusive runs, computed on first
    /// use from the mapping's own ([`Mapping::free_runs`]) less the
    /// reserved codes. Emptied together with `expr_cache` whenever the
    /// code space changes
    /// ([`EncodedBitmapIndex::invalidate_code_space`]).
    pub(crate) free_runs: OnceLock<Vec<(u64, u64)>>,
    /// The same codes one by one, for Quine–McCluskey alone: expanded
    /// from `free_runs` the first time a selection takes that path.
    pub(crate) dont_cares: OnceLock<Vec<u64>>,
    /// Per-slice segment summaries for query-time pruning, built at
    /// construction. `None` after maintenance mutated the slices; call
    /// [`EncodedBitmapIndex::refresh_summaries`] to rebuild.
    pub(crate) summaries: Option<Vec<SegmentSummary>>,
    /// The rule that chose each slice's container
    /// ([`EncodedBitmapIndex::set_storage_policy`]).
    pub(crate) storage_policy: StoragePolicy,
}

impl EncodedBitmapIndex {
    /// Builds with default options: [`NullPolicy::SeparateVectors`] and
    /// codes assigned in value order — the `i`-th smallest value takes
    /// code `i`, the total-order preserving encoding of §2.3.
    ///
    /// # Errors
    ///
    /// Propagates [`CoreError`] from mapping construction.
    pub fn build<I: IntoIterator<Item = Cell>>(cells: I) -> Result<Self, CoreError> {
        Self::build_with(cells, BuildOptions::default())
    }

    /// Builds with explicit options.
    ///
    /// With a mapping given, the build reads the column once and encodes
    /// as it reads: each distinct value's code is looked up once, and
    /// nothing is kept per row beside the slices being written. The
    /// default mapping must see every value before it assigns a code, so
    /// that build holds a `u32` slot per row until the codes are pushed.
    ///
    /// # Errors
    ///
    /// [`CoreError::Encoding`] if a provided mapping misses values of the
    /// column or uses the reserved void code under
    /// [`NullPolicy::EncodedReserved`]; [`CoreError::DomainFull`] if,
    /// under that policy, a column with NULLs leaves no code but void
    /// for them.
    pub fn build_with<I: IntoIterator<Item = Cell>>(
        cells: I,
        options: BuildOptions,
    ) -> Result<Self, CoreError> {
        let policy = options.policy;
        let Some(mapping) = options.mapping else {
            return Self::build_value_ordered(cells, policy);
        };
        if policy == NullPolicy::EncodedReserved && mapping.value_of(VOID_CODE).is_some() {
            return Err(CoreError::Encoding {
                detail: "EncodedReserved requires code 0 to stay free for void tuples".into(),
            });
        }
        // The code a NULL row would take: a reserved one under
        // `EncodedReserved`, if the mapping leaves one but void; else the
        // placeholder 0, masked by `B_NULL`.
        let free_null = match policy {
            NullPolicy::SeparateVectors => Some(0),
            NullPolicy::EncodedReserved => null_code_in(&mapping),
        };
        // One pass that encodes as it reads: a row's code is pushed at
        // once, and only each distinct value's code is looked up in the
        // mapping, the first time the value is seen.
        let cells = cells.into_iter();
        let mut fam =
            SliceFamilyBuilder::with_capacity(mapping.width() as usize, cells.size_hint().0);
        let mut interner = Interner::default();
        let mut slot_code: Vec<u64> = Vec::new();
        let (mut has_nulls, mut b_null) = (false, None::<BitVec>);
        for (row, cell) in cells.enumerate() {
            let code = match cell {
                Cell::Value(v) => {
                    let slot = interner.slot(v) as usize;
                    if slot == slot_code.len() {
                        slot_code.push(mapping.code_of(v).ok_or_else(|| CoreError::Encoding {
                            detail: format!("provided mapping misses value {v}"),
                        })?);
                    }
                    slot_code[slot]
                }
                Cell::Null => {
                    has_nulls = true;
                    if policy == NullPolicy::SeparateVectors {
                        let b = b_null.get_or_insert_with(BitVec::new);
                        b.grow(row + 1);
                        b.set(row, true);
                    }
                    // A column with no code for its NULLs fails once every
                    // value has been checked against the mapping.
                    free_null.unwrap_or(0)
                }
            };
            fam.push_code(code);
        }
        if has_nulls && free_null.is_none() {
            return Err(CoreError::DomainFull {
                width: mapping.width(),
            });
        }
        let rows = fam.rows();
        if let Some(b) = &mut b_null {
            b.grow(rows);
        }
        let null_code = free_null.filter(|_| has_nulls && policy == NullPolicy::EncodedReserved);
        Ok(Self::assemble(
            mapping,
            fam.finish(),
            rows,
            policy,
            null_code,
            b_null,
        ))
    }

    /// The build under the default mapping, which must see every value
    /// before it can assign any code: one pass keeps each row's `u32`
    /// slot among the distinct values, and the codes are pushed once the
    /// mapping is made from them.
    fn build_value_ordered<I: IntoIterator<Item = Cell>>(
        cells: I,
        policy: NullPolicy,
    ) -> Result<Self, CoreError> {
        let (distinct, slots) = intern_column(cells);
        let has_nulls = slots.contains(&NULL_SLOT);
        // Value-ordered under both policies, after the reserved codes: a
        // range then selects a code interval, which `reduce` covers
        // without Quine–McCluskey. Under `EncodedReserved`: 0 = void,
        // 1 = NULL (when present), then the values.
        let reserved = match policy {
            NullPolicy::SeparateVectors => 0,
            NullPolicy::EncodedReserved => 1 + u64::from(has_nulls),
        };
        let mapping = dense_order_mapping_after(&distinct, reserved);
        let slot_code = codes_of(&mapping, &distinct)?;
        let null_code = if policy == NullPolicy::EncodedReserved && has_nulls {
            Some(null_code_in(&mapping).ok_or(CoreError::DomainFull {
                width: mapping.width(),
            })?)
        } else {
            None
        };
        let rows = slots.len();
        let mut fam = SliceFamilyBuilder::with_capacity(mapping.width() as usize, rows);
        for &slot in &slots {
            fam.push_code(
                slot_code
                    .get(slot as usize)
                    .copied()
                    .unwrap_or(null_code.unwrap_or(0)),
            );
        }
        // Without a reserved code a NULL row stores the placeholder 0 and
        // is marked in `B_NULL`.
        let b_null = (has_nulls && null_code.is_none()).then(|| {
            let mut b_null = BitVec::zeros(rows);
            for (row, _) in slots.iter().enumerate().filter(|(_, &s)| s == NULL_SLOT) {
                b_null.set(row, true);
            }
            b_null
        });
        Ok(Self::assemble(
            mapping,
            fam.finish(),
            rows,
            policy,
            null_code,
            b_null,
        ))
    }

    /// The index over built slices: summaries taken, containers chosen.
    fn assemble(
        mapping: Mapping,
        dense: Vec<BitVec>,
        rows: usize,
        policy: NullPolicy,
        null_code: Option<u64>,
        b_null: Option<BitVec>,
    ) -> Self {
        let reserved = match policy {
            NullPolicy::SeparateVectors => Vec::new(),
            NullPolicy::EncodedReserved => std::iter::once(VOID_CODE).chain(null_code).collect(),
        };
        let summaries = Some(summarize_slices(&dense));
        let slices: Vec<SliceStorage> = dense
            .into_iter()
            .map(|b| SliceStorage::from_dense(b, StoragePolicy::default()))
            .collect();
        Self {
            mapping,
            slices,
            rows,
            policy,
            reserved,
            null_code,
            b_not_exist: None,
            b_null,
            expr_cache: std::collections::HashMap::new(),
            free_runs: OnceLock::new(),
            dont_cares: OnceLock::new(),
            summaries,
            storage_policy: StoragePolicy::default(),
        }
    }

    /// Number of rows indexed (including deleted slots).
    #[must_use]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Code width `k` — the number of encoded bitmap vectors.
    #[must_use]
    pub fn width(&self) -> u32 {
        self.mapping.width()
    }

    /// The mapping table.
    #[must_use]
    pub fn mapping(&self) -> &Mapping {
        &self.mapping
    }

    /// The NULL policy chosen at build time.
    #[must_use]
    pub fn policy(&self) -> NullPolicy {
        self.policy
    }

    /// The encoded bitmap vectors, LSB (`B_0`) first, in their current
    /// per-slice container ([`SliceStorage`]).
    #[must_use]
    pub fn slices(&self) -> &[SliceStorage] {
        &self.slices
    }

    /// Per-slice segment summaries, if currently valid. Maintenance that
    /// mutates the slices invalidates them (conservatively — pruning
    /// with stale counts could drop matching rows); rebuild with
    /// [`EncodedBitmapIndex::refresh_summaries`].
    #[must_use]
    pub fn summaries(&self) -> Option<&[SegmentSummary]> {
        self.summaries.as_deref()
    }

    /// Rebuilds the per-slice segment summaries after maintenance.
    /// One popcount pass over the slices: `O(k · rows / 64)`.
    /// The slices stay in whatever containers they are in: those that
    /// maintenance densified are not recompressed.
    pub fn refresh_summaries(&mut self) {
        self.summaries = Some(summarize_storage(&self.slices));
    }

    /// Aggregate run statistics across the encoded slices, computed
    /// from the slices as they are now: one pass over each container.
    #[must_use]
    pub fn run_stats(&self) -> RunStats {
        let mut st = RunStats::default();
        for s in &self.slices {
            st.merge(&s.run_stats());
        }
        st
    }

    /// The slice container policy ([`StoragePolicy::Adaptive`] unless
    /// set).
    #[must_use]
    pub fn storage_policy(&self) -> StoragePolicy {
        self.storage_policy
    }

    /// Chooses the slice containers. Never affects query results or
    /// `vectors_accessed` — only how the selection bitmap is computed. A
    /// policy that *differs* from the current one repacks every slice;
    /// setting the policy the index already has repacks nothing, so it
    /// does not undo the all-dense state maintenance leaves behind
    /// ([`crate::maintenance`]).
    pub fn set_storage_policy(&mut self, policy: StoragePolicy) {
        if policy != self.storage_policy {
            for s in &mut self.slices {
                *s = s.repack(policy);
            }
        }
        self.storage_policy = policy;
    }

    /// Total bitmap vectors held, companions included.
    #[must_use]
    pub fn bitmap_vector_count(&self) -> usize {
        self.slices.len()
            + usize::from(self.b_not_exist.is_some())
            + usize::from(self.b_null.is_some())
    }

    /// Storage footprint: bitmap vectors plus the mapping table.
    #[must_use]
    pub fn storage_bytes(&self) -> usize {
        let vectors: usize = self.slices.iter().map(SliceStorage::storage_bytes).sum();
        let companions: usize = self
            .b_not_exist
            .iter()
            .chain(self.b_null.iter())
            .map(BitVec::storage_bytes)
            .sum();
        vectors + companions + self.mapping.to_bytes().len()
    }

    /// Mean fraction of zero bits across the encoded vectors — compare
    /// with the simple index's `(m-1)/m` (§3.1).
    #[must_use]
    pub fn mean_sparsity(&self) -> f64 {
        if self.slices.is_empty() {
            return 0.0;
        }
        self.slices.iter().map(SliceStorage::sparsity).sum::<f64>() / self.slices.len() as f64
    }

    /// Don't-care codes as sorted, disjoint, inclusive runs: unassigned
    /// and unreserved at the current width. Cached until the code space
    /// next changes.
    #[must_use]
    pub fn free_runs(&self) -> &[(u64, u64)] {
        self.free_runs.get_or_init(|| {
            let mut runs = self.mapping.free_runs();
            for &code in &self.reserved {
                if let Some(at) = runs.iter().position(|&(a, b)| (a..=b).contains(&code)) {
                    let (a, b) = runs.remove(at);
                    if code < b {
                        runs.insert(at, (code + 1, b));
                    }
                    if a < code {
                        runs.insert(at, (a, code - 1));
                    }
                }
            }
            runs
        })
    }

    /// [`EncodedBitmapIndex::free_runs`] code by code, ascending — the
    /// don't-care min-terms of a Quine–McCluskey reduction, and nothing
    /// else reads them. Cached like the runs.
    #[must_use]
    pub fn dont_care_codes(&self) -> &[u64] {
        self.dont_cares.get_or_init(|| {
            let runs = self.free_runs().iter();
            runs.flat_map(|&(a, b)| a..=b).collect()
        })
    }

    /// Forgets everything derived from which codes are assigned or
    /// reserved — the precomputed reductions and the don't-care set.
    /// Every change to the mapping, its width or the reserved codes must
    /// call this.
    pub(crate) fn invalidate_code_space(&mut self) {
        self.expr_cache.clear();
        self.free_runs = OnceLock::new();
        self.dont_cares = OnceLock::new();
    }

    /// Logical reduction of the selection of `codes` (assigned codes of a
    /// value selection, or the NULL code), in any order, repeats allowed.
    ///
    /// Which way it goes is read off the codes alone. When they fill a
    /// code interval — every code from the smallest to the largest is
    /// either selected or free, so no unselected value and no reserved
    /// code lies inside — the cover is written down from the interval's
    /// two ends ([`interval::cover`]): a point, and any range over a
    /// value-ordered mapping. Everything else (a scattered IN-list, a
    /// range over a mapping whose order an admitted value broke, a range
    /// spanning the NULL code) is minimised by Quine–McCluskey over the
    /// don't-care min-terms.
    pub(crate) fn reduce(&self, mut codes: Vec<u64>, stats: &mut qm::ReduceStats) -> DnfExpr {
        codes.sort_unstable();
        codes.dedup();
        let (Some(&lo), Some(&hi)) = (codes.first(), codes.last()) else {
            *stats = qm::ReduceStats::default();
            return DnfExpr::empty(self.width());
        };
        if self.fills_interval(lo, hi, codes.len()) {
            interval::cover(lo, hi, self.free_runs(), self.width(), stats)
        } else {
            qm::minimize_with_stats(&codes, self.dont_care_codes(), self.width(), stats)
        }
    }

    /// `true` if `selected` distinct codes from `lo` to `hi` take every
    /// assigned or reserved code in `lo..=hi`: the rest are free.
    fn fills_interval(&self, lo: u64, hi: u64, selected: usize) -> bool {
        let reserved = self.reserved.iter().filter(|c| (lo..=hi).contains(c));
        self.mapping.assigned_between(lo, hi) + reserved.count() == selected
    }

    /// The reduced retrieval expression for `A IN values` (values missing
    /// from the domain contribute nothing). Served from the precomputed
    /// cache when the predicate was declared via
    /// [`EncodedBitmapIndex::precompute_predicates`]. Every form of the
    /// index reduces through this, or through
    /// [`EncodedBitmapIndex::explain_range`], which asks the same
    /// question of a range without its value list: so through one choice
    /// between the interval cover and Quine–McCluskey (`reduce`).
    #[must_use]
    pub fn explain_in_list(&self, values: &[u64]) -> DnfExpr {
        if !self.expr_cache.is_empty() {
            if let Some(cached) = self.expr_cache.get(&normalise_values(values)) {
                return cached.clone();
            }
        }
        let codes: Vec<u64> = values
            .iter()
            .filter_map(|&v| self.mapping.code_of(v))
            .collect();
        self.reduce(codes, &mut qm::ReduceStats::default())
    }

    /// The reduced retrieval expression for `lo <= A <= hi`: the same
    /// expression as [`EncodedBitmapIndex::explain_in_list`] over
    /// [`Mapping::values_between`], without spelling the values out.
    /// When the values' codes fill a code interval (any range over a
    /// value-ordered mapping) it is covered straight from the mapping's
    /// run ([`Mapping::code_span`]); a range over codes that do not,
    /// or an index with precomputed predicates, takes the value list.
    #[must_use]
    pub fn explain_range(&self, lo: u64, hi: u64) -> DnfExpr {
        if self.expr_cache.is_empty() {
            let Some((min, max, n)) = self.mapping.code_span(lo, hi) else {
                return DnfExpr::empty(self.width());
            };
            if self.fills_interval(min, max, n) {
                let stats = &mut qm::ReduceStats::default();
                return interval::cover(min, max, self.free_runs(), self.width(), stats);
            }
        }
        self.explain_in_list(&self.mapping.values_between(lo, hi))
    }

    /// Reduces and caches the retrieval expressions of predefined
    /// predicates — §3.2: logical reduction is a one-time cost when the
    /// selection predicates are pre-declared. Subsequent `in_list`/
    /// `range` calls matching a cached predicate skip Quine–McCluskey
    /// entirely. Maintenance that changes the code space (domain
    /// expansion, re-encoding) clears the cache.
    pub fn precompute_predicates(&mut self, predicates: &[Vec<u64>]) {
        for pred in predicates {
            let key = normalise_values(pred);
            let expr = self.explain_in_list(&key);
            self.expr_cache.insert(key, expr);
        }
    }

    /// Number of precomputed predicates currently cached.
    #[must_use]
    pub fn cached_predicates(&self) -> usize {
        self.expr_cache.len()
    }

    /// Point selection `A = value` (Q1 of §3.1).
    ///
    /// # Errors
    ///
    /// Currently infallible for unknown values (they match nothing), but
    /// kept fallible for interface stability.
    pub fn eq(&self, value: u64) -> Result<QueryResult, CoreError> {
        self.in_list(&[value])
    }

    /// IN-list selection `A IN values` (the paper's range search).
    ///
    /// # Errors
    ///
    /// See [`EncodedBitmapIndex::eq`].
    pub fn in_list(&self, values: &[u64]) -> Result<QueryResult, CoreError> {
        let expr = self.explain_in_list(values);
        Ok(self.run_dnf(&expr))
    }

    /// Range selection over value ids: `lo <= A <= hi`. For discrete
    /// domains this is the IN-list over the mapped values in the
    /// interval ([`Mapping::values_between`]), exactly as §2.2 rewrites
    /// `j < A < i`; it is reduced without the list
    /// ([`EncodedBitmapIndex::explain_range`]).
    ///
    /// # Errors
    ///
    /// See [`EncodedBitmapIndex::eq`].
    pub fn range(&self, lo: u64, hi: u64) -> Result<QueryResult, CoreError> {
        Ok(self.run_dnf(&self.explain_range(lo, hi)))
    }

    /// Negated selection `A NOT IN values` over live, non-NULL rows.
    ///
    /// Evaluated as the *positive* selection of the complement value
    /// set, so deleted rows and NULLs are excluded by construction —
    /// never by complementing a bitmap (which would resurrect them).
    ///
    /// # Errors
    ///
    /// Currently infallible; fallible for interface stability.
    pub fn not_in_list(&self, values: &[u64]) -> Result<QueryResult, CoreError> {
        let excluded: std::collections::HashSet<u64> = values.iter().copied().collect();
        let complement: Vec<u64> = self
            .mapping
            .iter()
            .map(|(v, _)| v)
            .filter(|v| !excluded.contains(v))
            .collect();
        self.in_list(&complement)
    }

    /// `A <> value` over live, non-NULL rows (SQL semantics: NULL rows
    /// do not match).
    ///
    /// # Errors
    ///
    /// See [`EncodedBitmapIndex::not_in_list`].
    pub fn neq(&self, value: u64) -> Result<QueryResult, CoreError> {
        self.not_in_list(&[value])
    }

    /// Rows whose attribute is NULL (live rows only).
    #[must_use]
    pub fn is_null(&self) -> QueryResult {
        match self.policy {
            NullPolicy::SeparateVectors => {
                let mut tracker = AccessTracker::new();
                let mut bitmap = match &self.b_null {
                    Some(b) => {
                        tracker.touch(self.width());
                        b.clone()
                    }
                    None => BitVec::zeros(self.rows),
                };
                if let Some(ne) = &self.b_not_exist {
                    tracker.touch(self.width() + 1);
                    tracker.cost.literal_ops += 1;
                    bitmap.and_not_assign(ne);
                }
                QueryResult {
                    bitmap,
                    stats: tracker.finish(),
                    expression: "B_NULL".into(),
                }
            }
            NullPolicy::EncodedReserved => {
                let codes = self.null_code.into_iter().collect();
                let expr = self.reduce(codes, &mut qm::ReduceStats::default());
                self.run_dnf(&expr)
            }
        }
    }

    /// This index's own vectors, summaries included while they are valid.
    fn vectors(&self) -> Vectors<'_> {
        Vectors {
            slices: &self.slices,
            summaries: self.summaries.as_deref(),
            b_null: self.b_null.as_ref(),
            b_not_exist: self.b_not_exist.as_ref(),
        }
    }

    /// Evaluates a precompiled, reduced DNF expression against this
    /// index — the evaluate half of compile-once / evaluate-many.
    ///
    /// The expression must have been produced by
    /// [`EncodedBitmapIndex::explain_in_list`] (or an equivalent
    /// reduction) against an index built over the *same* mapping —
    /// evaluating an expression compiled under a different mapping
    /// returns well-formed but meaningless bits.
    #[must_use]
    pub fn run_dnf(&self, expr: &DnfExpr) -> QueryResult {
        let vectors = self.vectors();
        let mut result = self.select(expr, &expr.lower(), &vectors, 0..self.windows());
        result.expression = self.render(expr, &vectors);
        result
    }

    /// Kernel traffic estimate (in 64-bit words) for evaluating a
    /// lowered expression on this index: its unshared literals times the
    /// segments, less what valid summaries prune. Nothing schedules on
    /// it; the repository benchmark's replay times it.
    #[must_use]
    pub fn estimated_work_words(&self, plan: &DnfPlan) -> u64 {
        plan.bind(&self.slices, self.summaries.as_deref(), self.rows)
            .estimated_work_words()
    }

    /// [`EncodedBitmapIndex::run_dnf`] with the expression already
    /// lowered: `plan` must be `expr.lower()`. A caller that runs one
    /// expression many times (the served table, a morsel at a time)
    /// lowers it once. `expression` comes back empty: the caller compiled
    /// the expression and holds its text.
    #[must_use]
    pub fn run_plan(&self, expr: &DnfExpr, plan: &DnfPlan) -> QueryResult {
        self.run_plan_windows(expr, plan, 0..self.windows())
    }

    /// Kernel windows the index's rows span, [`SEGMENT_BITS`] rows each:
    /// the unit a scheduler splits an evaluation into.
    #[must_use]
    pub fn windows(&self) -> usize {
        self.rows.div_ceil(SEGMENT_BITS)
    }

    /// [`EncodedBitmapIndex::run_plan`] over kernel windows `windows`
    /// only: a *morsel*. The bitmap holds their rows (bit `j` is row
    /// `windows.start * SEGMENT_BITS + j`), masked by the same rows of
    /// `B_NULL` and `B_NotExist`. The kernel's counters are the morsel's
    /// own; the expression's (`vectors_accessed` — footnote 4's `c_e`
    /// with the companion vectors — `literal_ops`, `cube_evals`,
    /// `or_ops`) are counted by the morsel that starts at window 0, so
    /// the morsels of any split of `0..windows()` sum to one evaluation
    /// of the whole.
    ///
    /// # Panics
    ///
    /// Panics if `windows` is not a range within `0..windows()`.
    #[must_use]
    pub fn run_plan_windows(
        &self,
        expr: &DnfExpr,
        plan: &DnfPlan,
        windows: Range<usize>,
    ) -> QueryResult {
        self.select(expr, plan, &self.vectors(), windows)
    }

    /// The selection path below reduction, written once for every form
    /// of the index: evaluate `expr` (lowered as `plan`) with the kernel
    /// over whichever containers hold the slices, on kernel windows
    /// `windows` — bit-identical to naive whole-vector evaluation over
    /// dense ones — mask the companions on the same rows and account. The
    /// in-memory index passes its own vectors;
    /// [`crate::paged::PagedIndex`] passes the ones it fetched through
    /// its pool. No text is formatted here: a caller that
    /// reports the expression fills `expression` from
    /// [`EncodedBitmapIndex::render`].
    pub(crate) fn select(
        &self,
        expr: &DnfExpr,
        plan: &DnfPlan,
        vectors: &Vectors<'_>,
        windows: Range<usize>,
    ) -> QueryResult {
        let bound = plan.bind(vectors.slices, vectors.summaries, self.rows);
        let mut tracker = AccessTracker::new();
        // The expression's counters, once per split (see
        // `run_plan_windows`).
        let counted = windows.start == 0;
        if counted {
            ebi_boolean::record_access(expr, &mut tracker);
        }
        let word = windows.start * SEGMENT_WORDS;
        let mut bitmap = bound.eval_windows(windows, &mut tracker.cost);
        if self.masks_companions(expr) {
            let masks = [(vectors.b_null, 0), (vectors.b_not_exist, 1)];
            for (mask, above) in masks {
                let Some(mask) = mask else { continue };
                if counted {
                    tracker.touch(self.width() + above);
                    tracker.cost.literal_ops += 1;
                }
                bitmap.and_not_at_word(mask, word);
            }
        }
        QueryResult {
            bitmap,
            stats: tracker.finish(),
            expression: String::new(),
        }
    }

    /// Method 1 of §2.2: value selections must mask NULL rows (their
    /// slice bits are placeholders) and deleted rows. Under
    /// `EncodedReserved` nothing is masked: Theorem 2.1 (void = 0 sits in
    /// the off-set of every value selection, and the NULL code likewise).
    fn masks_companions(&self, expr: &DnfExpr) -> bool {
        self.policy == NullPolicy::SeparateVectors && !expr.is_false()
    }

    /// The text of what [`EncodedBitmapIndex::select`] evaluates over
    /// `vectors`: the expression and the companion masks it applies.
    pub(crate) fn render(&self, expr: &DnfExpr, vectors: &Vectors<'_>) -> String {
        let mut rendered = expr.to_string();
        if self.masks_companions(expr) {
            if vectors.b_null.is_some() {
                rendered.push_str(" · B_NULL'");
            }
            if vectors.b_not_exist.is_some() {
                rendered.push_str(" · B_NotExist'");
            }
        }
        rendered
    }

    /// Decodes the value of a live row (for verification / projection).
    /// Returns `None` for deleted rows, NULL rows, or rows out of range.
    #[must_use]
    pub fn decode_row(&self, row: usize) -> Option<u64> {
        if row >= self.rows {
            return None;
        }
        if let Some(ne) = &self.b_not_exist {
            if ne.bit(row) {
                return None;
            }
        }
        if let Some(bn) = &self.b_null {
            if bn.bit(row) {
                return None;
            }
        }
        let code = self.row_code(row);
        if self.policy == NullPolicy::EncodedReserved
            && (code == VOID_CODE || Some(code) == self.null_code)
        {
            return None;
        }
        self.mapping.value_of(code)
    }

    /// Raw code stored at row `row`.
    pub(crate) fn row_code(&self, row: usize) -> u64 {
        self.slices
            .iter()
            .enumerate()
            .fold(0u64, |acc, (i, s)| acc | (u64::from(s.bit(row)) << i))
    }
}

/// The code a NULL row takes under `EncodedReserved`: the first code
/// `mapping` leaves free that is not void; `None` if void is the only
/// one.
fn null_code_in(mapping: &Mapping) -> Option<u64> {
    let mut free = mapping.free_runs().into_iter().flat_map(|(a, b)| a..=b);
    free.find(|&c| c != VOID_CODE)
}

/// Sorted, deduplicated predicate key for the expression cache.
fn normalise_values(values: &[u64]) -> Vec<u64> {
    let mut v = values.to_vec();
    v.sort_unstable();
    v.dedup();
    v
}

/// Each value's code under `mapping`.
///
/// # Errors
///
/// [`CoreError::Encoding`] on the first value the mapping misses.
fn codes_of(mapping: &Mapping, values: &[u64]) -> Result<Vec<u64>, CoreError> {
    values
        .iter()
        .map(|&v| {
            mapping.code_of(v).ok_or_else(|| CoreError::Encoding {
                detail: format!("provided mapping misses value {v}"),
            })
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn figure1_cells() -> Vec<Cell> {
        // Column [a, b, c, b, a, c] with ids a=0, b=1, c=2.
        [0u64, 1, 2, 1, 0, 2].map(Cell::Value).to_vec()
    }

    #[test]
    fn figure1_build_shape() {
        let idx = EncodedBitmapIndex::build(figure1_cells()).unwrap();
        assert_eq!(idx.width(), 2, "3 values -> 2 vectors");
        assert_eq!(idx.rows(), 6);
        assert_eq!(idx.bitmap_vector_count(), 2);
        // a=00, b=01, c=10 in value order, matching Figure 1.
        assert_eq!(idx.mapping().code_of(0), Some(0b00));
        assert_eq!(idx.mapping().code_of(1), Some(0b01));
        assert_eq!(idx.mapping().code_of(2), Some(0b10));
        // B0 = 010100, B1 = 001001 (LSB-first rows).
        assert_eq!(idx.slices()[0].to_dense().to_positions(), vec![1, 3]);
        assert_eq!(idx.slices()[1].to_dense().to_positions(), vec![2, 5]);
    }

    #[test]
    fn figure1_queries() {
        let idx = EncodedBitmapIndex::build(figure1_cells()).unwrap();
        // Q1: A = a — min-term, both vectors read.
        let q1 = idx.eq(0).unwrap();
        assert_eq!(q1.bitmap.to_positions(), vec![0, 4]);
        assert_eq!(q1.stats.vectors_accessed, 2);
        assert_eq!(q1.expression, "B1'B0'");
        // Q2: A IN {a, b} — reduces to B1', one vector.
        let q2 = idx.in_list(&[0, 1]).unwrap();
        assert_eq!(q2.bitmap.to_positions(), vec![0, 1, 3, 4]);
        assert_eq!(q2.stats.vectors_accessed, 1);
        assert_eq!(q2.expression, "B1'");
    }

    #[test]
    fn unknown_values_match_nothing() {
        let idx = EncodedBitmapIndex::build(figure1_cells()).unwrap();
        let r = idx.eq(99).unwrap();
        assert_eq!(r.bitmap.count_ones(), 0);
        assert_eq!(r.stats.vectors_accessed, 0);
        let mixed = idx.in_list(&[99, 1]).unwrap();
        assert_eq!(mixed.bitmap.to_positions(), vec![1, 3]);
    }

    #[test]
    fn range_is_inlist_over_value_ids() {
        let idx = EncodedBitmapIndex::build(figure1_cells()).unwrap();
        let r = idx.range(0, 1).unwrap();
        assert_eq!(r.bitmap.to_positions(), vec![0, 1, 3, 4]);
        let all = idx.range(0, 2).unwrap();
        assert_eq!(all.bitmap.count_ones(), 6);
        assert_eq!(all.stats.vectors_accessed, 0, "whole domain is a tautology");
        let none = idx.range(50, 60).unwrap();
        assert_eq!(none.bitmap.count_ones(), 0);
    }

    #[test]
    fn nulls_under_separate_vectors() {
        let cells = vec![
            Cell::Value(0),
            Cell::Null,
            Cell::Value(1),
            Cell::Null,
            Cell::Value(0),
        ];
        let idx = EncodedBitmapIndex::build(cells).unwrap();
        assert_eq!(idx.bitmap_vector_count(), 2, "1 slice + B_NULL");
        // NULL rows carry placeholder code 0 = a's code, but must not
        // match A = a.
        let r = idx.eq(0).unwrap();
        assert_eq!(r.bitmap.to_positions(), vec![0, 4]);
        assert!(r.expression.contains("B_NULL'"));
        // The mask costs one extra vector read.
        assert_eq!(r.stats.vectors_accessed, 2);
        let nulls = idx.is_null();
        assert_eq!(nulls.bitmap.to_positions(), vec![1, 3]);
    }

    #[test]
    fn run_plan_leaves_the_text_to_the_caller_that_compiled_it() {
        let cells = vec![
            Cell::Value(0),
            Cell::Null,
            Cell::Value(1),
            Cell::Value(2),
            Cell::Value(0),
        ];
        let mut idx = EncodedBitmapIndex::build(cells).unwrap();
        idx.delete(4).unwrap();
        let expr = idx.explain_in_list(&[0, 1]);
        let planned = idx.run_plan(&expr, &expr.lower());
        let rendered = idx.run_dnf(&expr);
        assert!(planned.expression.is_empty());
        assert_eq!(rendered.expression, "B1' · B_NULL' · B_NotExist'");
        assert_eq!(
            rendered.expression,
            idx.in_list(&[0, 1]).unwrap().expression
        );
        assert_eq!(planned.bitmap, rendered.bitmap);
        assert_eq!(planned.bitmap.to_positions(), vec![0, 2]);
        assert_eq!(planned.stats, rendered.stats);
    }

    #[test]
    fn nulls_under_encoded_reserved() {
        let cells = vec![
            Cell::Value(10),
            Cell::Null,
            Cell::Value(20),
            Cell::Null,
            Cell::Value(10),
        ];
        let idx = EncodedBitmapIndex::build_with(
            cells,
            BuildOptions {
                policy: NullPolicy::EncodedReserved,
                mapping: None,
            },
        )
        .unwrap();
        // Domain = {void, NULL, 10, 20} -> k = 2, codes 0,1,2,3.
        assert_eq!(idx.width(), 2);
        assert_eq!(idx.bitmap_vector_count(), 2, "no companion vectors");
        let r = idx.eq(10).unwrap();
        assert_eq!(r.bitmap.to_positions(), vec![0, 4]);
        assert!(
            !r.expression.contains("B_NULL"),
            "no masking under Theorem 2.1"
        );
        let nulls = idx.is_null();
        assert_eq!(nulls.bitmap.to_positions(), vec![1, 3]);
    }

    #[test]
    fn encoded_reserved_keeps_code_zero_free() {
        let idx = EncodedBitmapIndex::build_with(
            figure1_cells(),
            BuildOptions {
                policy: NullPolicy::EncodedReserved,
                mapping: None,
            },
        )
        .unwrap();
        assert_eq!(idx.mapping().value_of(VOID_CODE), None);
        // 3 values + void = 4 codes -> still k = 2.
        assert_eq!(idx.width(), 2);
        // A provided mapping that uses code 0 is rejected.
        let bad = Mapping::from_pairs(&[(0, 0), (1, 1), (2, 2)]).unwrap();
        let err = EncodedBitmapIndex::build_with(
            figure1_cells(),
            BuildOptions {
                policy: NullPolicy::EncodedReserved,
                mapping: Some(bad),
            },
        )
        .unwrap_err();
        assert!(matches!(err, CoreError::Encoding { .. }));
    }

    #[test]
    fn a_null_with_no_code_left_but_void_fills_the_domain() {
        // Width 2: void is 0, the values take 1..=3, and nothing is left
        // for the NULL.
        let full = Mapping::from_pairs(&[(0, 1), (1, 2), (2, 3)]).unwrap();
        let mut cells = figure1_cells();
        cells.insert(2, Cell::Null);
        let err = EncodedBitmapIndex::build_with(
            cells,
            BuildOptions {
                policy: NullPolicy::EncodedReserved,
                mapping: Some(full),
            },
        )
        .unwrap_err();
        assert_eq!(err, CoreError::DomainFull { width: 2 });
    }

    #[test]
    fn a_value_only_the_last_row_holds_must_be_mapped() {
        // Value 9 first appears in the last row, after a NULL; the
        // mapping covers every other value.
        let mapping = Mapping::from_pairs(&[(0, 1), (1, 2), (2, 3)]).unwrap();
        let mut cells = figure1_cells();
        cells.extend([Cell::Null, Cell::Value(9)]);
        for policy in [NullPolicy::SeparateVectors, NullPolicy::EncodedReserved] {
            let err = EncodedBitmapIndex::build_with(
                cells.iter().copied(),
                BuildOptions {
                    policy,
                    mapping: Some(mapping.clone()),
                },
            )
            .unwrap_err();
            assert!(
                matches!(&err, CoreError::Encoding { detail } if detail.contains("value 9")),
                "{policy:?}: {err:?}"
            );
        }
    }

    #[test]
    fn custom_mapping_is_honoured() {
        let custom = Mapping::from_pairs(&[(0, 0b10), (1, 0b00), (2, 0b01)]).unwrap();
        let idx = EncodedBitmapIndex::build_with(
            figure1_cells(),
            BuildOptions {
                policy: NullPolicy::SeparateVectors,
                mapping: Some(custom),
            },
        )
        .unwrap();
        let r = idx.eq(1).unwrap();
        assert_eq!(r.expression, "B1'B0'");
        assert_eq!(r.bitmap.to_positions(), vec![1, 3]);
        // Missing values are rejected.
        let incomplete = Mapping::from_pairs(&[(0, 0)]).unwrap();
        assert!(EncodedBitmapIndex::build_with(
            figure1_cells(),
            BuildOptions {
                policy: NullPolicy::SeparateVectors,
                mapping: Some(incomplete),
            },
        )
        .is_err());
    }

    #[test]
    fn decode_row_inverts_the_index() {
        let cells = vec![Cell::Value(5), Cell::Null, Cell::Value(7)];
        let idx = EncodedBitmapIndex::build(cells).unwrap();
        assert_eq!(idx.decode_row(0), Some(5));
        assert_eq!(idx.decode_row(1), None, "NULL row");
        assert_eq!(idx.decode_row(2), Some(7));
        assert_eq!(idx.decode_row(3), None, "out of range");
    }

    #[test]
    fn sparsity_is_about_half_for_dense_domains() {
        // 256 values uniformly: each of the 8 slices is half ones.
        let cells: Vec<Cell> = (0..4096u64).map(|i| Cell::Value(i % 256)).collect();
        let idx = EncodedBitmapIndex::build(cells).unwrap();
        let s = idx.mean_sparsity();
        assert!((s - 0.5).abs() < 0.02, "sparsity {s}");
    }

    #[test]
    fn empty_column_builds() {
        let idx = EncodedBitmapIndex::build(Vec::<Cell>::new()).unwrap();
        assert_eq!(idx.rows(), 0);
        let r = idx.eq(0).unwrap();
        assert_eq!(r.bitmap.len(), 0);
    }

    #[test]
    fn precomputed_predicates_answer_identically() {
        let cells: Vec<Cell> = (0..2000u64).map(|i| Cell::Value(i % 100)).collect();
        let mut idx = EncodedBitmapIndex::build(cells).unwrap();
        let predicates: Vec<Vec<u64>> =
            vec![(0..40).collect(), vec![5, 10, 15], (60..100).collect()];
        let before: Vec<_> = predicates.iter().map(|p| idx.in_list(p).unwrap()).collect();
        idx.precompute_predicates(&predicates);
        assert_eq!(idx.cached_predicates(), 3);
        for (p, expect) in predicates.iter().zip(&before) {
            let got = idx.in_list(p).unwrap();
            assert_eq!(got.bitmap, expect.bitmap);
            assert_eq!(got.stats.vectors_accessed, expect.stats.vectors_accessed);
        }
        // Order/duplicates in the query don't miss the cache.
        let mut shuffled = predicates[1].clone();
        shuffled.reverse();
        shuffled.push(5);
        assert_eq!(
            idx.in_list(&shuffled).unwrap().bitmap,
            before[1].bitmap,
            "normalised key matches"
        );
    }

    #[test]
    fn cache_invalidated_by_domain_growth() {
        let mut idx = EncodedBitmapIndex::build([0u64, 1, 2].map(Cell::Value)).unwrap();
        idx.precompute_predicates(&[vec![0, 1]]);
        assert_eq!(idx.cached_predicates(), 1);
        // Admitting value 3 takes the don't-care code 11: the cached
        // reduction B1' would now wrongly cover it.
        idx.append(Cell::Value(3)).unwrap();
        assert_eq!(idx.cached_predicates(), 0, "stale cache cleared");
        let r = idx.in_list(&[0, 1]).unwrap();
        assert_eq!(r.bitmap.to_positions(), vec![0, 1], "correct after growth");
    }

    #[test]
    fn explain_range_is_the_value_list_reduction_without_the_list() {
        let cells: Vec<Cell> = (0..3000u64).map(|i| Cell::Value(i * 7 % 60 * 3)).collect();
        let ordered = EncodedBitmapIndex::build(cells.iter().copied()).unwrap();
        let first_seen = EncodedBitmapIndex::build_with(
            cells.iter().copied(),
            BuildOptions {
                mapping: Mapping::from_values(&Mapping::first_seen_values(&cells)).ok(),
                ..BuildOptions::default()
            },
        )
        .unwrap();
        let mut cached = ordered.clone();
        cached.precompute_predicates(&[ordered.mapping().values_between(30, 90)]);
        // Value-ordered codes: intervals, read off the mapping. First-seen
        // codes scatter, and a cached predicate wins: the value list.
        for idx in [&ordered, &first_seen, &cached] {
            for (lo, hi) in [(30, 90), (0, 177), (31, 32), (100, 40), (3, 3), (178, 999)] {
                let listed = idx.explain_in_list(&idx.mapping().values_between(lo, hi));
                let ranged = idx.explain_range(lo, hi);
                assert_eq!(ranged, listed, "{lo}..={hi}");
                assert_eq!(ranged.interval(), listed.interval(), "{lo}..={hi}");
            }
        }
        let expr = ordered.explain_range(30, 90);
        assert_eq!(
            expr.interval(),
            Some((10, 30)),
            "values 30..=90 are codes 10..=30"
        );
    }

    #[test]
    fn reduce_takes_the_interval_cover_exactly_where_the_codes_fill_one() {
        let cells: Vec<Cell> = (0..5000u64).map(|i| Cell::Value(i % 50)).collect();
        let idx = EncodedBitmapIndex::build(cells).unwrap();
        let reduced = |values: &[u64]| {
            let codes = values.iter().filter_map(|&v| idx.mapping.code_of(v));
            let mut stats = qm::ReduceStats::default();
            idx.reduce(codes.collect(), &mut stats);
            stats
        };
        // Codes 1, 2, 3, 7 leave 4..=6 out: Quine–McCluskey over them.
        let scattered = reduced(&[1, 2, 3, 7]);
        assert_eq!(scattered.minterms, 4);
        assert_ne!(scattered.cover_method, qm::CoverMethod::Interval);
        // A range and a point are code intervals, covered without a
        // min-term; a point reads all k = 6 vectors.
        let range = reduced(&idx.mapping.values_between(10, 30));
        assert_eq!(
            (range.minterms, range.cover_method),
            (0, qm::CoverMethod::Interval)
        );
        let point = reduced(&[9]);
        assert_eq!(
            (point.minterms, point.cover_method, point.vectors_out),
            (0, qm::CoverMethod::Interval, 6)
        );
    }

    #[test]
    fn default_codes_follow_value_order_after_the_reserved_ones() {
        let column = [30u64, 10, 20, 10].map(Cell::Value);
        let idx = EncodedBitmapIndex::build(column).unwrap();
        let codes = |idx: &EncodedBitmapIndex| [10, 20, 30].map(|v| idx.mapping().code_of(v));
        assert_eq!(codes(&idx), [Some(0), Some(1), Some(2)]);
        assert!(idx.mapping().is_total_order_preserving());
        // 0 = void, 1 = NULL when the column holds one, then the values.
        let reserved = |cells: Vec<Cell>| {
            let options = BuildOptions {
                policy: NullPolicy::EncodedReserved,
                ..Default::default()
            };
            EncodedBitmapIndex::build_with(cells, options).unwrap()
        };
        assert_eq!(
            codes(&reserved(column.to_vec())),
            [Some(1), Some(2), Some(3)]
        );
        let with_null = reserved([&column[..], &[Cell::Null]].concat());
        assert_eq!(codes(&with_null), [Some(2), Some(3), Some(4)]);
        assert_eq!(with_null.null_code, Some(1));
        assert_eq!(with_null.free_runs(), [(5, 7)]);
    }

    #[test]
    fn a_range_reads_fewer_vectors_where_it_is_aligned() {
        // 1 000 values at k = 10 on value-ordered codes: Figure 9's best
        // case, k - j vectors at an aligned width of 2^j.
        let cells: Vec<Cell> = (0..4_000u64).map(|i| Cell::Value(i % 1_000)).collect();
        let idx = EncodedBitmapIndex::build(cells).unwrap();
        for j in 0..=9u32 {
            let expr = idx.explain_in_list(&idx.mapping().values_between(512, 511 + (1 << j)));
            assert_eq!(expr.vectors_accessed(), (10 - j) as usize, "j = {j}");
            assert_eq!(expr.cubes().len(), 1);
        }
        // An interval that ends at the largest value runs on into the
        // free codes: `A >= 768` is B9·B8, for 232 values.
        assert_eq!(
            idx.explain_in_list(&idx.mapping().values_between(768, 999))
                .to_string(),
            "B9B8"
        );
        // Unaligned, it is at most 2(k - 1) cubes, whatever its width.
        let expr = idx.explain_in_list(&idx.mapping().values_between(3, 900));
        assert!(expr.cubes().len() <= 18, "{expr}");
        assert_eq!(idx.range(3, 900).unwrap().bitmap.count_ones(), 4 * 898);
    }

    #[test]
    fn dont_cares_exclude_reserved_codes() {
        let cells = vec![Cell::Value(1), Cell::Null];
        let idx = EncodedBitmapIndex::build_with(
            cells,
            BuildOptions {
                policy: NullPolicy::EncodedReserved,
                mapping: None,
            },
        )
        .unwrap();
        // Domain {void=0, null=1, value@2} at k=2: only code 3 is dc.
        assert_eq!(idx.dont_care_codes(), vec![3]);
    }

    #[test]
    fn cached_dont_cares_follow_the_code_space() {
        let mut idx = EncodedBitmapIndex::build([0u64, 1, 2].map(Cell::Value)).unwrap();
        assert_eq!(idx.dont_care_codes(), [0b11]);
        // An admitted value takes the free code and leaves the set.
        assert!(!idx.admit_value(3).unwrap());
        assert!(idx.dont_care_codes().is_empty());
        assert_eq!(idx.explain_in_list(&[0, 1]).to_string(), "B1'");
        // Widening doubles the code space: the new half is all free
        // but for the code the admitted value took.
        assert!(idx.admit_value(4).unwrap());
        assert_eq!(idx.dont_care_codes(), [0b101, 0b110, 0b111]);

        // A NULL code reserved after the fact leaves the set too.
        let mut idx = EncodedBitmapIndex::build_with(
            [1u64, 2].map(Cell::Value),
            BuildOptions {
                policy: NullPolicy::EncodedReserved,
                ..Default::default()
            },
        )
        .unwrap();
        assert_eq!(idx.dont_care_codes(), [3]);
        idx.append(Cell::Null).unwrap();
        assert!(idx.dont_care_codes().is_empty());
        assert_eq!(idx.is_null().bitmap.to_positions(), vec![2]);
    }
}
