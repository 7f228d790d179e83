//! The fetch after a selection, on its own: `read_pages` through a
//! buffer pool, at the shape of the repository benchmark's
//! `serve_range` shard (64-byte heap pages, 64 frames). One iteration
//! is `WALKS` walks, so a reported time divided by `WALKS × pages`
//! is the cost of one page.
//!
//! * `miss_walk`: 489 ascending pages through 64 frames, so every page
//!   misses and, once the pool is full, evicts;
//! * `hit_walk`: 17 pages that stay resident, so every page hits.

#![allow(missing_docs)] // criterion macros generate undocumented items

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use ebi_storage::{read_pages, BufferPool, PageId, Pager};
use std::hint::black_box;

const PAGE_SIZE: usize = 64;
const FRAMES: usize = 64;
const WALKS: u64 = 100;

fn pager(pages: u64) -> Pager {
    let pager = Pager::with_page_size(PAGE_SIZE);
    pager.allocate(pages);
    for i in 0..pages {
        pager.write_page(PageId(i), &[i as u8; PAGE_SIZE]).unwrap();
    }
    pager
}

fn bench_page_walk(c: &mut Criterion) {
    let mut group = c.benchmark_group("page_walk");
    group.sample_size(10);
    for (name, pages) in [("miss_walk", 489u64), ("hit_walk", 17)] {
        let pager = pager(pages);
        let pool = BufferPool::new(&pager, FRAMES);
        // Fill the pool, so a timed walk finds it in its steady state.
        read_pages((0..pages).map(PageId), &pager, Some(&pool));
        group.throughput(Throughput::Elements(WALKS * pages));
        group.bench_function(name, |b| {
            b.iter(|| {
                for _ in 0..WALKS {
                    black_box(read_pages((0..pages).map(PageId), &pager, Some(&pool)));
                }
            });
        });
        let walk = read_pages((0..pages).map(PageId), &pager, Some(&pool));
        let expected = if pages as usize > FRAMES { 0 } else { pages };
        assert_eq!(walk.hits, expected, "{name}");
    }
    group.finish();
}

criterion_group!(benches, bench_page_walk);
criterion_main!(benches);
