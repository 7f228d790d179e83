//! What only `benchmark/`'s replay calls, as inherent methods with the
//! paths of [`crate::shard`]. The fields `TableOptions::shards` and
//! `ServiceConfig::buffer_frames` cannot move here.

use crate::shard::{CompiledQuery, Shard, ShardedTable};
use ebi_bitvec::BitVec;
use ebi_obs::CostCounters;
use ebi_storage::{BufferPool, Pager};

impl ShardedTable {
    /// Always 0: the word this shard's bitmaps start at.
    #[must_use]
    pub fn id(&self) -> usize {
        0
    }

    /// An empty pager.
    #[must_use]
    pub fn pager(&self) -> &Pager {
        &self.pager
    }

    /// [`ShardedTable::eval_local`].
    #[must_use]
    pub fn eval(&self, query: &CompiledQuery) -> (BitVec, CostCounters) {
        self.eval_local(query)
    }

    /// Pages of a bitmap over every row, counted as
    /// [`ShardedTable::pages_spanned`] does; `pool` is unused and nothing
    /// is read.
    #[must_use]
    pub fn fetch_matches(&self, bitmap: &BitVec, _pool: Option<&BufferPool<'_>>) -> u64 {
        self.pages_spanned([(0, bitmap)])
    }

    /// The table as its one [`Shard`].
    #[must_use]
    pub fn shards(&self) -> &[Shard] {
        std::slice::from_ref(self)
    }

    /// Merges word-aligned parts into one table-sized bitmap: each
    /// `(first_word, bitmap)` is OR-written from its first word on, in
    /// any order; missing parts leave zeros. The service never builds a
    /// table-sized bitmap.
    #[must_use]
    pub fn merge<'a>(&self, parts: impl IntoIterator<Item = (usize, &'a BitVec)>) -> BitVec {
        let mut global = BitVec::zeros(self.rows());
        for (word, bitmap) in parts {
            global.or_at_word(bitmap, word);
        }
        global
    }

    /// Post-pruning kernel-work estimate (words) for evaluating `query`
    /// over every row, summed over every clause's bound plan.
    #[must_use]
    pub fn estimated_work_words(&self, query: &CompiledQuery) -> u64 {
        let clauses = query.disjuncts.iter().flatten();
        clauses
            .map(|c| self.column_index(c.column).estimated_work_words(&c.plan))
            .sum()
    }
}
