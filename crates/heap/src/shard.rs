//! Sharded mark bitmaps: the marking state of the heap, held outside the
//! slot table and split into fixed-size shards.
//!
//! Every shard covers [`SHARD_SLOTS`] consecutive slots and owns a dense
//! `u64` bitmap for them. Keeping mark state per shard (rather than as a
//! `bool` inside each slot) buys three things:
//!
//! * `clear_marks` at cycle start becomes a word-wise zeroing pass instead
//!   of a walk over every slot;
//! * the dirty-shard write barrier ([`DirtyMap`](crate::DirtyMap)) records
//!   mutations per shard, so a shard is the unit of "what changed since the
//!   last cycle";
//! * marked-object counts are a popcount, not a slot scan.

/// Shard size exponent: each shard covers `1 << SHARD_BITS` slots.
pub const SHARD_BITS: u32 = 12;

/// Slots per shard (4096, i.e. 64 bitmap words).
pub const SHARD_SLOTS: usize = 1 << SHARD_BITS;

/// A growable, sharded bitmap of mark bits, indexed by slot index.
#[derive(Debug, Clone, Default)]
pub struct MarkBits {
    shards: Vec<Vec<u64>>,
}

impl MarkBits {
    /// An empty bitmap.
    pub fn new() -> Self {
        MarkBits::default()
    }

    /// Number of shards currently allocated.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// The shard owning slot `index`.
    pub fn shard_of(&self, index: usize) -> usize {
        index >> SHARD_BITS
    }

    fn locate(&self, index: usize) -> (usize, usize, u64) {
        let within = index & (SHARD_SLOTS - 1);
        (index >> SHARD_BITS, within >> 6, 1u64 << (within & 63))
    }

    /// Grows the bitmap until it covers at least `slots` slots.
    pub fn ensure(&mut self, slots: usize) {
        while self.shards.len() * SHARD_SLOTS < slots {
            self.shards.push(vec![0u64; SHARD_SLOTS / 64]);
        }
    }

    /// Sets the bit for `index`, returning `true` exactly when it was
    /// previously clear. Grows the bitmap on demand.
    pub fn try_set(&mut self, index: usize) -> bool {
        self.ensure(index + 1);
        let (s, w, b) = self.locate(index);
        let word = &mut self.shards[s][w];
        if *word & b != 0 {
            return false;
        }
        *word |= b;
        true
    }

    /// Clears the bit for `index` (no-op beyond the covered range).
    pub fn clear(&mut self, index: usize) {
        let (s, w, b) = self.locate(index);
        if let Some(shard) = self.shards.get_mut(s) {
            shard[w] &= !b;
        }
    }

    /// Whether the bit for `index` is set (`false` beyond the covered
    /// range).
    pub fn is_set(&self, index: usize) -> bool {
        let (s, w, b) = self.locate(index);
        self.shards.get(s).is_some_and(|shard| shard[w] & b != 0)
    }

    /// Zeroes every bit, shard by shard.
    pub fn clear_all(&mut self) {
        for shard in &mut self.shards {
            shard.fill(0);
        }
    }

    /// Zeroes every bit in shard `s` only (no-op beyond the covered range).
    /// The incremental collector uses this to wipe exactly the shards the
    /// write barrier flagged dirty, preserving clean shards' bitmaps.
    pub fn clear_shard(&mut self, s: usize) {
        if let Some(shard) = self.shards.get_mut(s) {
            shard.fill(0);
        }
    }

    /// Set bits within shard `s` (a single-shard popcount).
    pub fn shard_set_count(&self, s: usize) -> u64 {
        self.shards.get(s).map_or(0, |shard| shard.iter().map(|w| u64::from(w.count_ones())).sum())
    }

    /// Total set bits (a per-shard popcount).
    pub fn set_count(&self) -> u64 {
        self.shards.iter().flatten().map(|w| u64::from(w.count_ones())).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const S: usize = SHARD_SLOTS;

    #[test]
    fn set_clear_roundtrip() {
        let mut m = MarkBits::new();
        assert!(!m.is_set(0));
        assert!(m.try_set(0));
        assert!(!m.try_set(0), "second set reports already-set");
        assert!(m.is_set(0));
        m.clear(0);
        assert!(!m.is_set(0));
    }

    #[test]
    fn grows_on_demand_by_whole_shards() {
        let mut m = MarkBits::new();
        assert_eq!(m.shard_count(), 0);
        assert!(m.try_set(S)); // second shard
        assert_eq!(m.shard_count(), 2);
        assert!(!m.is_set(S - 1), "bits in the grown range start clear");
        assert!(!m.is_set(10 * S), "beyond covered range reads as clear");
    }

    #[test]
    fn shard_of_matches_shard_bits() {
        let m = MarkBits::new();
        assert_eq!(S, 4096);
        assert_eq!(m.shard_of(S - 1), 0);
        assert_eq!(m.shard_of(S), 1);
    }

    #[test]
    fn clear_all_and_popcount() {
        let mut m = MarkBits::new();
        for i in [0usize, 1, 63, 64, S + 2, 5 * S + 700] {
            m.try_set(i);
        }
        assert_eq!(m.set_count(), 6);
        m.clear_all();
        assert_eq!(m.set_count(), 0);
        assert!(!m.is_set(5 * S + 700));
    }

    #[test]
    fn clear_shard_is_local() {
        let mut m = MarkBits::new();
        for i in [0usize, S - 1, S, 2 * S - 1, 2 * S] {
            m.try_set(i);
        }
        assert_eq!(m.shard_set_count(0), 2);
        assert_eq!(m.shard_set_count(1), 2);
        m.clear_shard(1);
        assert!(m.is_set(0) && m.is_set(S - 1), "shard 0 untouched");
        assert!(!m.is_set(S) && !m.is_set(2 * S - 1), "shard 1 wiped");
        assert!(m.is_set(2 * S), "shard 2 untouched");
        assert_eq!(m.set_count(), 3);
        m.clear_shard(99); // beyond covered range: no-op
        assert_eq!(m.shard_set_count(99), 0);
    }
}
