//! Property tests for the observability layer: profiling is a pure
//! observer. Across random DNF selections, random column data and
//! every slice storage policy, the profiled executor must return the
//! exact bitmap and the exact [`CostCounters`] of the untraced path —
//! `vectors_accessed` is the paper's metric and instrumentation may
//! never move it — and the `eval` spans must account for every kernel
//! counter the report carries.

use ebi::core::index::QueryOptions;
use ebi::obs::SpanRecord;
use ebi::prelude::*;
use ebi::warehouse::DnfQuery;
use ebi_bitvec::StoragePolicy;
use proptest::prelude::*;

/// Sum of attribute `attr` over every span named `name`.
fn attr_sum(spans: &[SpanRecord], name: &str, attr: &str) -> u64 {
    spans
        .iter()
        .filter(|s| s.name == name)
        .flat_map(|s| &s.attrs)
        .filter(|(k, _)| *k == attr)
        .map(|(_, v)| v)
        .sum()
}

fn cell_strategy(m: u64) -> impl Strategy<Value = Cell> {
    prop_oneof![
        9 => (0..m).prop_map(Cell::Value),
        1 => Just(Cell::Null),
    ]
}

fn predicate_strategy(m: u64) -> impl Strategy<Value = Predicate> {
    prop_oneof![
        3 => (0..m).prop_map(Predicate::Eq),
        2 => prop::collection::btree_set(0..m, 1..4)
            .prop_map(|s| Predicate::InList(s.into_iter().collect())),
        2 => (0..m, 0..m).prop_map(|(a, b)| Predicate::Range(a.min(b), a.max(b))),
    ]
}

fn dnf_strategy(m: u64) -> impl Strategy<Value = DnfQuery> {
    let clause = predicate_strategy(m).prop_map(|predicate| Query {
        column: "c".into(),
        predicate,
    });
    let conjunction =
        prop::collection::vec(clause, 1..3).prop_map(|clauses| ConjunctiveQuery { clauses });
    prop::collection::vec(conjunction, 1..3).prop_map(|disjuncts| DnfQuery { disjuncts })
}

fn policy_strategy() -> impl Strategy<Value = StoragePolicy> {
    prop::sample::select(vec![
        StoragePolicy::Dense,
        StoragePolicy::Roaring,
        StoragePolicy::Wah,
    ])
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn profiled_execution_preserves_the_paper_cost_metric(
        cells in prop::collection::vec(cell_strategy(16), 1..500),
        query in dnf_strategy(16),
        policy in policy_strategy(),
    ) {
        let rows = cells.len();
        // Legacy side: untraced engine, no observability calls at all.
        let mut plain = EncodedBitmapIndex::build(cells.iter().copied()).unwrap();
        plain.set_query_options(QueryOptions {
            storage_policy: policy,
            ..Default::default()
        });
        // Profiled side: same data, same policy, full instrumentation.
        let mut instrumented = EncodedBitmapIndex::build(cells.iter().copied()).unwrap();
        instrumented.set_query_options(QueryOptions {
            storage_policy: policy,
            profile: true,
        });

        let mut exec_plain = Executor::new(rows);
        exec_plain.register("c", &plain);
        let mut exec_prof = Executor::new(rows);
        exec_prof.register("c", &instrumented);

        let (bitmap, legacy) = exec_plain.run_dnf(&query);
        // The only test in this binary, so the global subscriber is
        // this test's to switch.
        ebi::obs::set_enabled(true);
        let (profiled_bitmap, report) = exec_prof.run_dnf_profiled(&query, "prop");
        ebi::obs::set_enabled(false);

        prop_assert_eq!(profiled_bitmap, bitmap, "profiling changed the result bitmap");
        prop_assert_eq!(
            report.cost,
            legacy.cost,
            "profiling changed the cost record (policy {:?})",
            policy
        );
        let c = &report.cost;
        for (attr, total) in [
            ("words_scanned", c.words_scanned),
            ("bytes_touched", c.bytes_touched),
            ("segments_pruned", c.segments_pruned),
            ("segments_short_circuited", c.segments_short_circuited),
            ("compressed_chunks_skipped", c.compressed_chunks_skipped),
        ] {
            prop_assert_eq!(attr_sum(&report.spans, "eval", attr), total, "eval spans' {}", attr);
        }
        prop_assert_eq!(report.matches, legacy.matches as u64);
        prop_assert_eq!(report.expressions, legacy.expressions);
        prop_assert_eq!(report.rows, rows as u64);
        // The JSON rendering stays schema-tagged whatever the inputs.
        prop_assert!(report
            .to_json_line()
            .starts_with("{\"schema\":\"ebi.query_report.v1\""));
    }
}
