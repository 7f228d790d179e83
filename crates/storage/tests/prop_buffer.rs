//! The O(1) buffer pool serves every read as the reference LRU does:
//! the same `Served` outcome and bytes per read, the same counters,
//! resident set and pager traffic after every step, over random
//! sequences of reads, clears and counter resets, at every capacity
//! from 1 to 8, with some page ids never allocated.

mod lru_model;

use ebi_storage::{BufferPool, BufferStats, PageId, Pager};
use lru_model::LruModel;
use proptest::prelude::*;

const ALLOCATED: u64 = 10;
const PAGE_SIZE: usize = 32;

fn pager() -> Pager {
    let pager = Pager::with_page_size(PAGE_SIZE);
    pager.allocate(ALLOCATED);
    for i in 0..ALLOCATED {
        let bytes: Vec<u8> = (0..PAGE_SIZE).map(|j| (i * 37 + j as u64) as u8).collect();
        pager
            .write_page(PageId(i), &bytes)
            .expect("page is allocated");
    }
    pager
}

#[derive(Debug, Clone, Copy)]
enum Op {
    /// `BufferPool::fetch`: compared by `Served`.
    Fetch(u64),
    /// `BufferPool::read_page`: compared by bytes.
    Read(u64),
    Clear,
    ResetStats,
}

fn op_strategy() -> impl Strategy<Value = Op> {
    // Ids from ALLOCATED on are unallocated: about one read in five.
    (0u32..40, 0u64..ALLOCATED + 3).prop_map(|(kind, page)| match kind {
        0 => Op::Clear,
        1 => Op::ResetStats,
        k if k % 2 == 0 => Op::Fetch(page),
        _ => Op::Read(page),
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn the_pool_serves_every_read_as_the_reference_lru_does(
        capacity in 1usize..9,
        ops in proptest::collection::vec(op_strategy(), 0..300),
    ) {
        let (pool_pager, model_pager) = (pager(), pager());
        let pool = BufferPool::new(&pool_pager, capacity);
        let mut model = LruModel::new(&model_pager, capacity);
        for (step, &op) in ops.iter().enumerate() {
            match op {
                Op::Fetch(p) => {
                    let want = model.read(PageId(p)).map(|(_, served)| served);
                    prop_assert_eq!(pool.fetch(PageId(p)), want, "step {} {:?}", step, op);
                }
                Op::Read(p) => {
                    let want = model.read(PageId(p)).map(|(bytes, _)| bytes);
                    prop_assert_eq!(pool.read_page(PageId(p)), want, "step {} {:?}", step, op);
                }
                Op::Clear => {
                    pool.clear();
                    model.clear();
                }
                Op::ResetStats => {
                    pool.reset_stats();
                    model.stats = BufferStats::default();
                }
            }
            prop_assert_eq!(pool.stats(), model.stats, "step {} {:?}", step, op);
            prop_assert_eq!(pool.resident(), model.resident(), "step {} {:?}", step, op);
            prop_assert_eq!(
                pool_pager.stats().page_reads,
                model_pager.stats().page_reads,
                "step {} {:?}", step, op
            );
        }
    }
}
