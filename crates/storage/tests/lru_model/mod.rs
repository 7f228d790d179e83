//! The reference LRU pool: a map from page to its bytes and last-use
//! tick, where a miss in a full pool evicts the page with the smallest
//! tick by scanning every resident page. `BufferPool` must serve every
//! sequence of reads exactly as this does (`prop_buffer.rs`).

use ebi_storage::{BufferStats, PageId, Pager, Served, StorageError};
use std::collections::HashMap;

/// The reference pool over `pager`, holding at most `capacity` pages.
pub struct LruModel<'a> {
    pager: &'a Pager,
    capacity: usize,
    /// page → (bytes, tick of its last read).
    cached: HashMap<u64, (Vec<u8>, u64)>,
    tick: u64,
    /// Counted as `BufferPool::stats` counts.
    pub stats: BufferStats,
}

impl<'a> LruModel<'a> {
    pub fn new(pager: &'a Pager, capacity: usize) -> Self {
        Self {
            pager,
            capacity,
            cached: HashMap::new(),
            tick: 0,
            stats: BufferStats::default(),
        }
    }

    /// One read: the page's bytes and how it was served.
    pub fn read(&mut self, id: PageId) -> Result<(Vec<u8>, Served), StorageError> {
        self.tick += 1;
        if let Some((data, last)) = self.cached.get_mut(&id.0) {
            *last = self.tick;
            self.stats.hits += 1;
            return Ok((data.clone(), Served::Hit));
        }
        let data = self.pager.read_page(id)?;
        self.stats.misses += 1;
        let evicted = self.cached.len() >= self.capacity;
        if evicted {
            let coldest = self.cached.iter().min_by_key(|(_, (_, last))| *last);
            let (&victim, _) = coldest.expect("a full pool holds a page");
            self.cached.remove(&victim);
            self.stats.evictions += 1;
        }
        self.cached.insert(id.0, (data.clone(), self.tick));
        Ok((data, Served::Miss { evicted }))
    }

    pub fn resident(&self) -> usize {
        self.cached.len()
    }

    pub fn clear(&mut self) {
        self.cached.clear();
    }
}
