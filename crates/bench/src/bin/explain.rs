//! Observability showcase — runs a TPC-D-lite-ish selection mix
//! through the profiled executor with a real pager + buffer pool and
//! prints the `EXPLAIN ANALYZE` tree per query.
//!
//! Writes `bench_results/obs_queries.jsonl`: one `ebi.query_report.v1`
//! JSON line per query (schema documented in DESIGN.md §8).
//!
//! `--smoke` shrinks the dataset for CI and self-checks the output
//! (schema tags, phase presence, cost parity with the untraced path).

use ebi_bench::{uniform_cells, write_result, zipf_cells};
use ebi_core::index::QueryOptions;
use ebi_core::EncodedBitmapIndex;
use ebi_storage::{BufferPool, Pager};
use ebi_warehouse::workload::{Predicate, Query};
use ebi_warehouse::{ConjunctiveQuery, DnfQuery, Executor, FetchModel};

fn clause(column: &str, predicate: Predicate) -> Query {
    Query {
        column: column.into(),
        predicate,
    }
}

fn conj(clauses: Vec<Query>) -> ConjunctiveQuery {
    ConjunctiveQuery { clauses }
}

const USAGE: &str = "explain — EXPLAIN ANALYZE showcase over the profiled executor

USAGE:
    explain [--smoke]

FLAGS:
    --smoke      small-row CI run with output self-checks
    -h, --help   print this help

Unknown flags are an error.";

fn main() {
    let mut smoke = false;
    for arg in std::env::args().skip(1) {
        match arg.as_str() {
            "--smoke" => smoke = true,
            "-h" | "--help" => {
                println!("{USAGE}");
                return;
            }
            other => {
                eprintln!("error: unknown flag {other:?}\n\n{USAGE}");
                std::process::exit(2);
            }
        }
    }
    let rows = if smoke { 20_000 } else { 100_000 };
    let rows_per_page = 128usize;

    // Two dimension-like columns over the same fact rows.
    let region_cells = uniform_cells(25, rows, 0xE1);
    let brand_cells = zipf_cells(40, 0.6, rows, 0xE2);
    let mut region = EncodedBitmapIndex::build(region_cells).expect("build region");
    let mut brand = EncodedBitmapIndex::build(brand_cells).expect("build brand");
    let profile = QueryOptions {
        profile: true,
        ..Default::default()
    };
    region.set_query_options(profile);
    brand.set_query_options(profile);

    // Fact-table pages the fetch phase reads through a bounded pool.
    let pager = Pager::with_page_size(4096);
    let base_page = pager.allocate(rows.div_ceil(rows_per_page) as u64);
    let pool = BufferPool::new(&pager, 32);

    let mut exec = Executor::new(rows);
    exec.register("region", &region);
    exec.register("brand", &brand);
    exec.attach_storage(
        &pager,
        Some(&pool),
        FetchModel {
            base_page,
            rows_per_page,
        },
    );

    // The query mix: point, in-list, range, conjunction, disjunction —
    // the shapes §3.1 argues over.
    let mix: Vec<(&str, DnfQuery)> = vec![
        (
            "region = 7",
            DnfQuery {
                disjuncts: vec![conj(vec![clause("region", Predicate::Eq(7))])],
            },
        ),
        (
            "brand IN {1,5,9}",
            DnfQuery {
                disjuncts: vec![conj(vec![clause(
                    "brand",
                    Predicate::InList(vec![1, 5, 9]),
                )])],
            },
        ),
        (
            "region BETWEEN 10 AND 18",
            DnfQuery {
                disjuncts: vec![conj(vec![clause("region", Predicate::Range(10, 18))])],
            },
        ),
        (
            "region = 3 AND brand BETWEEN 20 AND 30",
            DnfQuery {
                disjuncts: vec![conj(vec![
                    clause("region", Predicate::Eq(3)),
                    clause("brand", Predicate::Range(20, 30)),
                ])],
            },
        ),
        (
            "(region = 1 AND brand = 2) OR region IN {21,22}",
            DnfQuery {
                disjuncts: vec![
                    conj(vec![
                        clause("region", Predicate::Eq(1)),
                        clause("brand", Predicate::Eq(2)),
                    ]),
                    conj(vec![clause("region", Predicate::InList(vec![21, 22]))]),
                ],
            },
        ),
    ];

    ebi_obs::set_enabled(true);
    let mut jsonl = String::new();
    for (label, query) in &mix {
        let (untraced_bitmap, untraced) = exec.run_dnf(query);
        let (bitmap, report) = exec.run_dnf_profiled(query, label);
        assert_eq!(bitmap, untraced_bitmap, "profiling changed results");
        assert_eq!(report.cost, untraced.cost, "profiling changed the cost");
        println!("{}", report.explain_analyze());
        jsonl.push_str(&report.to_json_line());
        jsonl.push('\n');

        if smoke {
            assert!(report
                .to_json_line()
                .starts_with("{\"schema\":\"ebi.query_report.v1\""));
            let roots: Vec<&str> = report.roots().map(|s| s.name).collect();
            assert_eq!(roots, ["query"], "one root span per query");
            for phase in ["disjunct", "clause", "reduce", "eval", "fetch"] {
                assert!(
                    report.phase_wall_ns(phase).is_some(),
                    "missing phase {phase} in {label}"
                );
            }
            assert!(
                report.storage.buffer_hits + report.storage.buffer_misses > 0,
                "fetch phase read no pages"
            );
            // The reduce span says which path reduced: a range or a point
            // on the default value-ordered codes is a code interval
            // (method 3), the scattered list takes Quine–McCluskey.
            let text = report.explain_analyze();
            let by_interval = text.matches("cover_method=3").count();
            let reduced = text.matches("cover_method=").count();
            match *label {
                "brand IN {1,5,9}" => assert_eq!((by_interval, reduced), (0, 1), "{text}"),
                "region BETWEEN 10 AND 18" => assert_eq!((by_interval, reduced), (1, 1), "{text}"),
                _ => assert!(reduced > 0, "{text}"),
            }
        }
    }
    ebi_obs::set_enabled(false);

    write_result("obs_queries.jsonl", &jsonl);
    if smoke {
        println!("explain --smoke: {} queries ok", mix.len());
    }
}
