//! Property test for trace propagation across the worker-pool
//! hand-off: whatever the shard count, worker count and query, every
//! `eval.worker` span recorded on a pool thread must carry the root
//! span's trace id — both in the span record itself (cross-thread
//! parentage) and in its explicit `trace` attribute (the value the
//! retained-trace JSONL and Chrome export surface).

use ebi_service::{
    eval_shard, parse_dnf, ColumnSpec, FanOut, ShardedTable, TableOptions, WorkerPool,
};
use ebi_storage::{BufferPool, Cell};
use proptest::prelude::*;
use std::sync::Arc;
use std::time::Duration;

fn table_strategy() -> impl Strategy<Value = ShardedTable> {
    (
        1usize..=7,
        proptest::collection::vec((0u64..6, 0u64..9), 64..800),
    )
        .prop_map(|(shards, raw)| {
            let a = raw.iter().map(|(va, _)| Cell::Value(*va)).collect();
            let b = raw.iter().map(|(_, vb)| Cell::Value(*vb)).collect();
            ShardedTable::build(
                vec![ColumnSpec::new("a", a), ColumnSpec::new("b", b)],
                &TableOptions {
                    shards,
                    ..TableOptions::default()
                },
            )
            .expect("table builds")
        })
}

const QUERIES: &[&str] = &["a=1", "a IN 1,3 AND b=2", "b BETWEEN 0 5 OR a=0"];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn trace_ids_survive_the_pool_handoff(
        table in table_strategy(),
        workers in 1usize..=4,
        qsel in 0usize..QUERIES.len(),
    ) {
        ebi_obs::set_enabled(true);
        let compiled = Arc::new(
            table
                .compile(&parse_dnf(QUERIES[qsel]).expect("parses"))
                .expect("compiles"),
        );
        let pools: Vec<BufferPool<'_>> = table
            .shards()
            .iter()
            .map(|s| BufferPool::new(s.pager(), 8))
            .collect();
        let pool = WorkerPool::new(workers);
        let n = table.shards().len();

        let trace = ebi_obs::Trace::begin();
        let root = trace.root_span("query");
        let root_trace = root.handle().trace();
        {
            let fan_span = root.child("fanout");
            let parent = fan_span.handle();
            let fan = Arc::new(FanOut::new(n));
            std::thread::scope(|scope| {
                for w in 0..workers {
                    let p = &pool;
                    scope.spawn(move || p.run_worker(w));
                }
                for shard in table.shards() {
                    let fan = Arc::clone(&fan);
                    let compiled = Arc::clone(&compiled);
                    let i = shard.id();
                    let bp = &pools[i];
                    pool.submit(Box::new(move || {
                        fan.complete(i, Some(eval_shard(shard, bp, &compiled, parent)));
                    }));
                }
                let results = fan.wait(Duration::from_secs(10)).expect("fan-out completes");
                prop_assert_eq!(results.iter().flatten().count(), n);
                pool.close();
                Ok(())
            })?;
        }
        drop(root);
        let records = trace.finish();

        let workers_seen: Vec<_> = records.iter().filter(|r| r.name == "eval.worker").collect();
        prop_assert_eq!(workers_seen.len(), n, "one eval.worker span per shard");
        for rec in workers_seen {
            prop_assert_eq!(
                rec.trace, root_trace,
                "span record left the root trace: {:?}", rec
            );
            let attr = rec
                .attrs
                .iter()
                .find(|(k, _)| *k == "trace")
                .map(|(_, v)| *v);
            prop_assert_eq!(
                attr, Some(root_trace),
                "trace attribute missing or wrong: {:?}", rec
            );
        }
    }
}
