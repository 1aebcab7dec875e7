//! Dirty-shard write barrier: which mark-bitmap shards were mutated since
//! the last GC cycle, and a monotone mutation epoch.
//!
//! Incremental GOLF cycles (see `golf-core`) need two facts the slot table
//! does not otherwise record:
//!
//! * **which shards changed** — so cycle initialization can clear only the
//!   mark bitmaps of shards that saw a mutation, preserving the previous
//!   cycle's marks everywhere else ([`Heap::clear_dirty_marks`]);
//! * **whether *anything* changed** — the [`DirtyMap::epoch`] counter, a
//!   single monotone integer bumped on every mutation, which the collector
//!   compares against a snapshot to prove full heap quiescence before
//!   replaying a cached cycle.
//!
//! The barrier is deliberately coarse (per shard, not per object) so the hot
//! mutation paths pay one branch, one add, and one bitmap write.
//!
//! [`Heap::clear_dirty_marks`]: crate::Heap::clear_dirty_marks

/// Per-shard dirty bits plus a monotone mutation epoch.
///
/// `record(shard)` is called by every mutating entry point of
/// [`Heap`](crate::Heap) (alloc, free, `get_mut`, finalizer changes, size
/// refresh, sweep frees). Clearing the bits ([`DirtyMap::clear`]) does *not*
/// reset the epoch: the epoch counts mutations over the heap's whole
/// lifetime, the bits only since the last clear.
#[derive(Debug, Clone, Default)]
pub struct DirtyMap {
    words: Vec<u64>,
    epoch: u64,
    disabled: bool,
}

impl DirtyMap {
    /// An empty map with the barrier enabled.
    pub fn new() -> Self {
        DirtyMap::default()
    }

    /// Whether the barrier records mutations. Disabled via `--no-barrier`;
    /// collectors must not trust [`DirtyMap::epoch`] while disabled.
    pub fn enabled(&self) -> bool {
        !self.disabled
    }

    /// Turns the barrier on or off.
    pub fn set_enabled(&mut self, enabled: bool) {
        self.disabled = !enabled;
    }

    /// Records a mutation in `shard`: bumps the epoch and sets the shard's
    /// dirty bit. No-op while disabled.
    #[inline]
    pub fn record(&mut self, shard: usize) {
        if self.disabled {
            return;
        }
        self.epoch += 1;
        let word = shard >> 6;
        if word >= self.words.len() {
            self.words.resize(word + 1, 0);
        }
        self.words[word] |= 1u64 << (shard & 63);
    }

    /// The monotone mutation counter. Never reset; equality between two
    /// reads proves no recorded mutation happened in between.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Whether `shard` was mutated since the last [`DirtyMap::clear`].
    pub fn is_dirty(&self, shard: usize) -> bool {
        self.words.get(shard >> 6).is_some_and(|w| w & (1u64 << (shard & 63)) != 0)
    }

    /// Number of dirty shards.
    pub fn dirty_count(&self) -> usize {
        self.words.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// Indices of dirty shards, ascending.
    pub fn dirty_shards(&self) -> Vec<usize> {
        let mut out = Vec::with_capacity(self.dirty_count());
        for (w, &word) in self.words.iter().enumerate() {
            let mut bits = word;
            while bits != 0 {
                let b = bits.trailing_zeros() as usize;
                out.push(w * 64 + b);
                bits &= bits - 1;
            }
        }
        out
    }

    /// Clears every dirty bit (end of a GC cycle). The epoch is untouched.
    pub fn clear(&mut self) {
        self.words.fill(0);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn record_sets_bit_and_bumps_epoch() {
        let mut d = DirtyMap::new();
        assert_eq!(d.epoch(), 0);
        assert!(!d.is_dirty(3));
        d.record(3);
        assert!(d.is_dirty(3));
        assert_eq!(d.epoch(), 1);
        d.record(3);
        assert_eq!(d.epoch(), 2, "epoch counts mutations, not shards");
        assert_eq!(d.dirty_count(), 1);
    }

    #[test]
    fn clear_keeps_epoch() {
        let mut d = DirtyMap::new();
        d.record(0);
        d.record(70);
        assert_eq!(d.dirty_shards(), vec![0, 70]);
        d.clear();
        assert_eq!(d.dirty_count(), 0);
        assert_eq!(d.epoch(), 2, "epoch survives clear");
    }

    #[test]
    fn disabled_barrier_records_nothing() {
        let mut d = DirtyMap::new();
        d.set_enabled(false);
        assert!(!d.enabled());
        d.record(1);
        assert_eq!(d.epoch(), 0);
        assert_eq!(d.dirty_count(), 0);
    }
}
