//! The one value interner: a column's distinct values in first-seen
//! order, and each row's slot among them.
//!
//! The build, [`crate::Mapping::first_seen_values`] and the row-order
//! ranks ([`crate::reorder`]) all read a column through it: one hash
//! probe per row, after which every per-value step (the mapping's check
//! or construction, a code lookup, a sort) runs once per distinct value
//! and a row is only its `u32` slot.

use ebi_storage::Cell;
use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

/// The slot of a NULL row: past every value's.
pub(crate) const NULL_SLOT: u32 = u32::MAX;

/// Fx-style hashing, as the buffer pool's page table: a value is a
/// dictionary id, not an untrusted key, so one multiply by 2^64 / φ
/// replaces SipHash. `finish` rotates the product's well-mixed high
/// bits down to where the table takes its bucket from: the low bits of
/// a product are those of the value alone, equal for every multiple of
/// a power of two.
#[derive(Default)]
struct ValueHasher(u64);

impl Hasher for ValueHasher {
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.write_u64(u64::from(b));
        }
    }

    fn write_u64(&mut self, n: u64) {
        self.0 = (self.0.rotate_left(5) ^ n).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    }

    fn finish(&self) -> u64 {
        self.0.rotate_left(26)
    }
}

/// Distinct values in first-seen order; a value's slot is its place in
/// that order.
#[derive(Default)]
pub(crate) struct Interner {
    slots: HashMap<u64, u32, BuildHasherDefault<ValueHasher>>,
    values: Vec<u64>,
}

impl Interner {
    /// The slot of `value`, which takes the next one if it is new.
    ///
    /// # Panics
    ///
    /// Panics at the `u32::MAX`-th distinct value.
    pub(crate) fn slot(&mut self, value: u64) -> u32 {
        *self.slots.entry(value).or_insert_with(|| {
            let slot = u32::try_from(self.values.len())
                .ok()
                .filter(|&s| s != NULL_SLOT)
                .expect("fewer than 2^32 - 1 distinct values");
            self.values.push(value);
            slot
        })
    }

    /// The distinct values, by slot.
    pub(crate) fn into_values(self) -> Vec<u64> {
        self.values
    }
}

/// Interns a column in one pass: its distinct values in first-seen
/// order, and each row's slot ([`NULL_SLOT`] for a NULL).
pub(crate) fn intern_column<I: IntoIterator<Item = Cell>>(cells: I) -> (Vec<u64>, Vec<u32>) {
    let cells = cells.into_iter();
    let mut slots = Vec::with_capacity(cells.size_hint().0);
    let mut interner = Interner::default();
    slots.extend(cells.map(|cell| match cell {
        Cell::Value(v) => interner.slot(v),
        Cell::Null => NULL_SLOT,
    }));
    (interner.into_values(), slots)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn slots_follow_first_sight_and_nulls_take_none() {
        let column = [7, 3, 7, 1 << 40, 3].map(Cell::Value);
        let (values, slots) = intern_column(column.into_iter().chain([Cell::Null]));
        assert_eq!(values, vec![7, 3, 1 << 40]);
        assert_eq!(slots, vec![0, 1, 0, 2, 1, NULL_SLOT]);
    }

    #[test]
    fn values_that_share_their_low_bits_spread_over_the_buckets() {
        // The table picks a bucket from the hash's low bits. Values
        // equal modulo 2^20 must not all land in a few buckets.
        let buckets: std::collections::HashSet<u64> = (0..4096u64)
            .map(|i| {
                let mut h = ValueHasher::default();
                h.write_u64(i << 20);
                h.finish() & 4095
            })
            .collect();
        assert!(buckets.len() > 2048, "{} of 4096 buckets", buckets.len());
    }
}
