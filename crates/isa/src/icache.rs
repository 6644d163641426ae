//! Per-LWP decoded-instruction cache.
//!
//! Hot loops re-execute the same few instructions; without a cache every
//! step pays an address-space walk plus a fresh [`Insn::decode`]. This
//! direct-mapped cache keeps decoded instructions keyed by program
//! counter and validates each entry against three generation stamps
//! before serving it:
//!
//! * the address-space generation (`as_gen`) — any structural change
//!   (map/unmap/protect/growth/exec/watchpoint add-remove) moves it;
//! * the content epoch of the backing *page* — any write landing in
//!   that page (user stores, `/proc` breakpoint plants, COW
//!   materialisation) moves it, while writes to other pages of the
//!   same mapping leave it alone;
//! * the object store's content generation — shared-object writes from
//!   *other* processes move it.
//!
//! The cache itself is policy-free: it stores whatever the bus
//! implementation inserts and hands back entries whose `pc` matches.
//! Deciding whether the stamps still hold requires the address space, so
//! validation lives with the bus (see the kernel's `ProcBus`).

use crate::insn::Insn;

/// Number of direct-mapped entries (power of two). 256 entries cover a
/// 2 KiB straight-line window — comfortably larger than the hot loops
/// the experiments execute. The table is allocated on first insert or
/// [`InsnCache::reserve`], so an LWP that never runs guest code carries
/// none.
const ICACHE_WAYS: usize = 256;

/// One cache slot: a decoded instruction plus the stamps that were
/// current when it was filled.
#[derive(Clone, Copy, Debug)]
pub struct InsnSlot {
    /// Program counter this slot decodes.
    pub pc: u64,
    /// Address-space generation at fill time (0 = empty slot; address
    /// spaces never use generation 0).
    pub as_gen: u64,
    /// Index of the backing mapping at fill time (meaningful only while
    /// `as_gen` is current).
    pub map_idx: u32,
    /// Content epoch of the instruction's page at fill time.
    pub epoch: u64,
    /// Object-store content generation at fill time.
    pub content_gen: u64,
    /// The decoded instruction.
    pub insn: Insn,
}

/// Hit/miss/invalidation counters; `PIOCXSTATS` reports the per-process
/// sum over all LWPs.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct InsnCacheStats {
    /// Fetches served from a validated slot.
    pub hits: u64,
    /// Fetches that decoded fresh (including fills).
    pub misses: u64,
    /// Probes that found a matching pc whose stamps had moved (the
    /// stale-entry replacement count).
    pub invalidations: u64,
}

/// A per-LWP direct-mapped decoded-instruction cache. `Clone` because
/// LWPs are cloned wholesale in places (recorder snapshots clone every
/// LWP); fork/exec paths construct fresh LWPs, so children start empty.
/// A cold cache owns no table: the first [`InsnCache::insert`] (or a
/// [`InsnCache::reserve`]) allocates it, so cloning an LWP that never
/// ran guest code copies nothing.
#[derive(Clone, Debug)]
pub struct InsnCache {
    /// Empty while cold, else `ICACHE_WAYS` slots.
    slots: Vec<InsnSlot>,
    stats: InsnCacheStats,
}

impl Default for InsnCache {
    fn default() -> InsnCache {
        InsnCache::new()
    }
}

impl InsnCache {
    /// An empty, cold cache: no table until the first insert.
    pub fn new() -> InsnCache {
        InsnCache { slots: Vec::new(), stats: InsnCacheStats::default() }
    }

    /// True while the cache owns no table (nothing inserted or reserved).
    pub fn is_cold(&self) -> bool {
        self.slots.is_empty()
    }

    /// Allocates the table now if the cache is cold; a warm cache keeps
    /// its slots. Contents and counters are unchanged: a reserved cache
    /// still misses every probe until something is inserted.
    pub fn reserve(&mut self) {
        if self.slots.is_empty() {
            self.warm();
        }
    }

    /// Allocates the table of empty slots.
    #[cold]
    fn warm(&mut self) {
        let empty = InsnSlot {
            pc: 0,
            as_gen: 0,
            map_idx: 0,
            epoch: 0,
            content_gen: 0,
            insn: Insn::bare(crate::insn::Opcode::Nop),
        };
        self.slots = vec![empty; ICACHE_WAYS];
    }

    #[inline]
    fn index(pc: u64) -> usize {
        ((pc >> 3) as usize) & (ICACHE_WAYS - 1)
    }

    /// Returns the slot for `pc` if one is filled and keyed by exactly
    /// that pc (a cold cache misses). The caller must still validate the
    /// stamps; call [`InsnCache::note_hit`] or [`InsnCache::note_stale`]
    /// accordingly.
    #[inline]
    pub fn probe(&self, pc: u64) -> Option<&InsnSlot> {
        self.slots.get(Self::index(pc)).filter(|s| s.as_gen != 0 && s.pc == pc)
    }

    /// Installs (or replaces) the slot for `pc`, allocating the table on
    /// the first insert.
    #[inline]
    pub fn insert(&mut self, slot: InsnSlot) {
        if self.slots.is_empty() {
            self.warm();
        }
        self.slots[Self::index(slot.pc)] = slot;
    }

    /// Records a validated hit.
    #[inline]
    pub fn note_hit(&mut self) {
        self.stats.hits += 1;
    }

    /// Records a fetch that had to decode fresh.
    #[inline]
    pub fn note_miss(&mut self) {
        self.stats.misses += 1;
    }

    /// Records a probe that matched on pc but failed stamp validation.
    #[inline]
    pub fn note_stale(&mut self) {
        self.stats.invalidations += 1;
    }

    /// Drops every slot (exec within the same LWP identity). The table,
    /// if any, stays allocated; a cold cache is left cold.
    pub fn clear(&mut self) {
        for s in &mut self.slots {
            s.as_gen = 0;
        }
    }

    /// The hit/miss/invalidation counters.
    pub fn stats(&self) -> InsnCacheStats {
        self.stats
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;
    use crate::insn::Opcode;

    fn slot(pc: u64, as_gen: u64) -> InsnSlot {
        InsnSlot { pc, as_gen, map_idx: 0, epoch: 0, content_gen: 0, insn: Insn::bare(Opcode::Nop) }
    }

    #[test]
    fn probe_misses_empty_and_hits_after_insert() {
        let mut c = InsnCache::new();
        assert!(c.probe(0x1000).is_none());
        c.insert(slot(0x1000, 1));
        assert_eq!(c.probe(0x1000).expect("filled").pc, 0x1000);
        // A different pc mapping to the same way misses on the pc key.
        assert!(c.probe(0x1000 + (ICACHE_WAYS as u64) * 8).is_none());
    }

    #[test]
    fn insert_replaces_conflicting_way() {
        let mut c = InsnCache::new();
        let other = 0x1000 + (ICACHE_WAYS as u64) * 8;
        c.insert(slot(0x1000, 1));
        c.insert(slot(other, 1));
        assert!(c.probe(0x1000).is_none());
        assert!(c.probe(other).is_some());
    }

    #[test]
    fn clear_empties_every_slot() {
        let mut c = InsnCache::new();
        c.insert(slot(0x1000, 5));
        c.clear();
        assert!(c.probe(0x1000).is_none());
    }

    #[test]
    fn new_cache_is_cold_until_the_first_insert() {
        let mut c = InsnCache::new();
        assert!(c.is_cold());
        assert!(c.probe(0x1000).is_none());
        c.clear();
        assert!(c.is_cold(), "clear on a cold cache allocates nothing");
        c.insert(slot(0x1000, 1));
        assert!(!c.is_cold());
        assert_eq!(c.probe(0x1000).expect("filled").pc, 0x1000);
        assert_eq!(c.stats(), InsnCacheStats::default(), "warming counts nothing");
    }

    #[test]
    fn reserve_allocates_without_filling_and_keeps_a_warm_table() {
        let mut c = InsnCache::new();
        c.reserve();
        assert!(!c.is_cold());
        assert!(c.probe(0x1000).is_none(), "a reserved table holds no slot");
        c.insert(slot(0x1000, 1));
        c.reserve();
        assert!(c.probe(0x1000).is_some(), "reserve on a warm cache dropped a slot");
        assert_eq!(c.stats(), InsnCacheStats::default());
    }
}
