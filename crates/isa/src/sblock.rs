//! Per-LWP superblock cache: traced straight-line runs of decoded
//! instructions.
//!
//! This is the one cache of decoded guest text. Without it every
//! instruction pays a bus round trip (an address-space walk) plus a
//! fresh decode. A superblock removes both: a trace of up to
//! [`SBLOCK_CAP`] decoded instructions, pre-validated against one text
//! page, that the CPU executes in a single dispatch. Traces follow
//! statically predictable control flow — fall-through, direct jumps and
//! calls, and backward conditional branches predicted taken (the
//! hot-loop case, which lets a small loop unroll to fill the block) —
//! and end at indirect or trapping instructions, the page boundary, or
//! capacity.
//!
//! Correctness never rests on the prediction: every slot carries its pc,
//! and the CPU compares it against the live pc before executing, side-
//! exiting the block on the first mismatch. Validity rests on three
//! stamps checked before dispatch:
//!
//! * the address-space generation (`as_gen`) — any structural change or
//!   watchpoint add/remove moves it;
//! * the *page* content epoch of the block's text page — a breakpoint
//!   plant or other write into that page moves it (writes to other
//!   pages of the same mapping do not: the dense-breakpoint case);
//! * the object store's content generation — shared-object writes from
//!   other processes move it.
//!
//! The cache is policy-free: the kernel's bus decides what is traceable
//! (see `sblock_slot` in the VM layer) and validates stamps; the cache
//! stores the blocks and lends a trace to each dispatch.

use std::sync::Arc;

use crate::cpu::BlockExit;
use crate::insn::{Insn, Opcode};

/// Number of sets (power of two). Keyed by entry pc; sized to hold the
/// block heads of several pages of straight-line code at once (a full
/// trace covers `SBLOCK_CAP * 8` bytes, so one page holds 16 heads).
const SBLOCK_SETS: usize = 128;

/// Ways per set. Two-way associativity with most-recently-used
/// protection stops the ping-pong eviction a direct-mapped cache
/// suffers when two live heads alias (a quantum-boundary resume pc
/// landing mid-trace of a loop body is the common case).
const SBLOCK_ASSOC: usize = 2;

/// Maximum instructions a single block dispatch executes. Bounds the
/// latency between quantum checks, so block execution can honour the
/// same budget the per-instruction loop does.
pub const SBLOCK_CAP: usize = 32;

/// One traced instruction: the decoded form plus the pc it must execute
/// at. The pc doubles as the side-exit check during dispatch.
#[derive(Clone, Copy, Debug)]
pub struct BlockSlot {
    /// Program counter this instruction executes at.
    pub pc: u64,
    /// The decoded instruction.
    pub insn: Insn,
}

impl Default for BlockSlot {
    fn default() -> BlockSlot {
        BlockSlot { pc: 0, insn: Insn::bare(Opcode::Nop) }
    }
}

/// A validated trace rooted at `start_pc`, wholly inside one text page.
#[derive(Clone, Debug)]
pub struct SuperBlock {
    /// Entry pc (the probe key).
    pub start_pc: u64,
    /// Address-space generation at build time (0 = empty way; address
    /// spaces never use generation 0).
    pub as_gen: u64,
    /// Index of the backing mapping at build time (meaningful only
    /// while `as_gen` is current).
    pub map_idx: u32,
    /// Content epoch of the block's text page at build time.
    pub epoch: u64,
    /// Object-store content generation at build time.
    pub content_gen: u64,
    /// The traced instructions, in predicted execution order (`None` in
    /// an empty way and while the trace is lent to a dispatch). A trace
    /// never changes once built, so clones of the cache share it.
    pub slots: Option<Arc<[BlockSlot]>>,
}

impl SuperBlock {
    /// The traced instructions (empty for an empty way).
    pub fn trace(&self) -> &[BlockSlot] {
        self.slots.as_deref().unwrap_or(&[])
    }
}

/// Superblock counters; `PIOCXSTATS` reports the per-process sum over
/// all LWPs.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SBlockStats {
    /// Blocks traced and installed.
    pub built: u64,
    /// Block dispatches (a fresh build dispatches immediately too).
    pub dispatched: u64,
    /// Instructions retired inside block dispatches.
    pub insns: u64,
    /// Dispatches that ran the whole trace.
    pub exit_end: u64,
    /// Dispatches that side-exited on a pc mismatch (untaken
    /// prediction).
    pub exit_side: u64,
    /// Dispatches ended by a trapping instruction (syscall, breakpoint,
    /// fault).
    pub exit_trap: u64,
    /// Dispatches cut short by the quantum budget.
    pub exit_budget: u64,
    /// Probes that matched on pc but failed stamp validation (the
    /// page-epoch / generation invalidation count).
    pub stale: u64,
}

/// A per-LWP two-way set-associative superblock cache. `Clone` because
/// LWPs are cloned wholesale in places (recorder snapshots clone every
/// LWP); fork/exec paths construct fresh LWPs, so children start empty.
/// A cold cache owns no table: the first [`SBlockCache::insert`] (or a
/// [`SBlockCache::reserve`]) allocates it, so cloning an LWP that never
/// ran guest code copies nothing. Each way's trace is an immutable
/// `Arc<[BlockSlot]>`, so cloning a warm cache allocates only the new
/// table and shares every trace; replacing a way in either copy leaves
/// the other's block intact.
#[derive(Clone, Debug)]
pub struct SBlockCache {
    /// Empty while cold, else `SBLOCK_SETS * SBLOCK_ASSOC` entries,
    /// set-major.
    ways: Vec<SuperBlock>,
    /// Per-set index of the most recently probed (for a lend) or
    /// inserted way (empty while cold).
    mru: Vec<u8>,
    stats: SBlockStats,
}

impl Default for SBlockCache {
    fn default() -> SBlockCache {
        SBlockCache::new()
    }
}

impl SBlockCache {
    /// An empty, cold cache: no table until the first insert.
    pub fn new() -> SBlockCache {
        SBlockCache { ways: Vec::new(), mru: Vec::new(), stats: SBlockStats::default() }
    }

    /// True while the cache owns no table (nothing installed or
    /// reserved).
    pub fn is_cold(&self) -> bool {
        self.ways.is_empty()
    }

    /// Allocates the table now if the cache is cold; a warm cache keeps
    /// its blocks. Contents and counters are unchanged: a reserved cache
    /// still misses every probe until a block is installed.
    pub fn reserve(&mut self) {
        if self.ways.is_empty() {
            self.warm();
        }
    }

    /// Allocates the table of empty ways.
    #[cold]
    fn warm(&mut self) {
        let empty = SuperBlock {
            start_pc: 0,
            as_gen: 0,
            map_idx: 0,
            epoch: 0,
            content_gen: 0,
            slots: None,
        };
        self.ways = vec![empty; SBLOCK_SETS * SBLOCK_ASSOC];
        self.mru = vec![0; SBLOCK_SETS];
    }

    /// Set selector. Straight-line code produces block heads exactly
    /// `SBLOCK_CAP * 8` (= 256) bytes apart; using the instruction index
    /// alone would alias them all onto a handful of sets, so the
    /// block-grain bits (`pc >> 8`) are folded in. The fold is a
    /// bijection over any 128-head run at either stride (8-byte loop
    /// heads or 256-byte trace heads), so sequential code fills the
    /// cache instead of fighting over two sets.
    #[inline]
    fn index(pc: u64) -> usize {
        (((pc >> 3) ^ (pc >> 8)) as usize) & (SBLOCK_SETS - 1)
    }

    /// The table index of the block rooted at exactly `pc`, if one is
    /// installed (a cold cache misses).
    #[inline]
    fn find(&self, pc: u64) -> Option<usize> {
        if self.ways.is_empty() {
            return None;
        }
        let set = Self::index(pc);
        (set * SBLOCK_ASSOC..(set + 1) * SBLOCK_ASSOC).find(|&i| {
            let b = &self.ways[i];
            b.as_gen != 0 && b.start_pc == pc
        })
    }

    /// The block rooted at exactly `pc`, if one is installed.
    #[cfg(test)]
    fn probe(&self, pc: u64) -> Option<&SuperBlock> {
        self.find(pc).map(|i| &self.ways[i])
    }

    /// Probes for the block rooted at `pc` and, when `valid` accepts its
    /// stamps, lends its trace for one dispatch and counts the dispatch.
    /// A block that `valid` rejects counts as stale and stays installed
    /// until a rebuild replaces it. The trace moves out of its way rather
    /// than being copied or shared, so a dispatch costs no refcount
    /// traffic; the way keeps its stamps, and [`SBlockCache::give_back`]
    /// restores the trace when the dispatch ends. Nothing else may touch
    /// the cache while a trace is out.
    #[inline]
    pub fn lend(
        &mut self,
        pc: u64,
        valid: impl FnOnce(&SuperBlock) -> bool,
    ) -> Option<Arc<[BlockSlot]>> {
        let i = self.find(pc)?;
        self.mru[i / SBLOCK_ASSOC] = (i % SBLOCK_ASSOC) as u8;
        if !valid(&self.ways[i]) {
            self.stats.stale += 1;
            return None;
        }
        self.stats.dispatched += 1;
        self.ways[i].slots.take()
    }

    /// Returns a trace lent by [`SBlockCache::lend`] to its way and
    /// records how the dispatch ended and how many instructions it
    /// retired.
    #[inline]
    pub fn give_back(&mut self, trace: Arc<[BlockSlot]>, exit: BlockExit, retired: u64) {
        self.note_exit(exit, retired);
        let Some(i) = trace.first().and_then(|s| self.find(s.pc)) else { return };
        let way = &mut self.ways[i];
        debug_assert!(way.slots.is_none(), "a trace came back to a way that holds one");
        way.slots.get_or_insert(trace);
    }

    /// Installs (or replaces) the block rooted at its `start_pc`. An
    /// existing block with the same head is replaced in place; otherwise
    /// an empty way, then the least-recently-used way, takes it. The
    /// first insert allocates the table.
    pub fn insert(&mut self, block: SuperBlock) {
        self.stats.built += 1;
        if self.ways.is_empty() {
            self.warm();
        }
        let set = Self::index(block.start_pc);
        let slot = |way: usize| set * SBLOCK_ASSOC + way;
        let way = (0..SBLOCK_ASSOC)
            .find(|&w| {
                let b = &self.ways[slot(w)];
                b.as_gen != 0 && b.start_pc == block.start_pc
            })
            .or_else(|| (0..SBLOCK_ASSOC).find(|&w| self.ways[slot(w)].as_gen == 0))
            .unwrap_or_else(|| (self.mru[set] as usize + 1) % SBLOCK_ASSOC);
        self.ways[slot(way)] = block;
        self.mru[set] = way as u8;
    }

    /// Records how a dispatch ended and how many instructions it
    /// retired.
    fn note_exit(&mut self, exit: BlockExit, retired: u64) {
        self.stats.insns += retired;
        match exit {
            BlockExit::End => self.stats.exit_end += 1,
            BlockExit::Side => self.stats.exit_side += 1,
            BlockExit::Trap => self.stats.exit_trap += 1,
            BlockExit::Budget => self.stats.exit_budget += 1,
        }
    }

    /// Drops every block (exec within the same LWP identity). The table,
    /// if any, stays allocated; a cold cache is left cold.
    pub fn clear(&mut self) {
        for b in &mut self.ways {
            b.as_gen = 0;
            b.slots = None;
        }
    }

    /// The superblock counters.
    pub fn stats(&self) -> SBlockStats {
        self.stats
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;

    fn block(pc: u64, as_gen: u64, n: usize) -> SuperBlock {
        let slots = (0..n)
            .map(|i| BlockSlot { pc: pc + 8 * i as u64, insn: Insn::bare(Opcode::Nop) })
            .collect();
        SuperBlock {
            start_pc: pc,
            as_gen,
            map_idx: 0,
            epoch: 0,
            content_gen: 0,
            slots: Some(slots),
        }
    }

    #[test]
    fn probe_misses_empty_and_hits_after_insert() {
        let mut c = SBlockCache::new();
        assert!(c.probe(0x1000).is_none());
        c.insert(block(0x1000, 1, 3));
        assert_eq!(c.probe(0x1000).expect("installed").trace().len(), 3);
        assert_eq!(c.stats().built, 1);
        // A pc that was never inserted misses on the key.
        assert!(c.probe(0x1000 + (SBLOCK_SETS as u64) * 8).is_none());
    }

    #[test]
    fn exit_counters_split_by_reason() {
        let mut c = SBlockCache::new();
        c.note_exit(BlockExit::End, 5);
        c.note_exit(BlockExit::Side, 2);
        c.note_exit(BlockExit::Trap, 1);
        c.note_exit(BlockExit::Budget, 7);
        let st = c.stats();
        assert_eq!(st.insns, 15);
        assert_eq!((st.exit_end, st.exit_side, st.exit_trap, st.exit_budget), (1, 1, 1, 1));
    }

    #[test]
    fn clear_empties_every_way() {
        let mut c = SBlockCache::new();
        c.insert(block(0x2000, 4, 2));
        c.clear();
        assert!(c.probe(0x2000).is_none());
    }

    #[test]
    fn new_cache_is_cold_until_the_first_insert() {
        let mut c = SBlockCache::new();
        assert!(c.is_cold());
        assert!(c.probe(0x2000).is_none());
        c.clear();
        assert!(c.is_cold(), "clear on a cold cache allocates nothing");
        c.insert(block(0x2000, 4, 2));
        assert!(!c.is_cold());
        assert_eq!(c.probe(0x2000).expect("installed").trace().len(), 2);
        assert_eq!(c.stats().built, 1);
    }

    #[test]
    fn reserve_allocates_without_installing_and_keeps_a_warm_table() {
        let mut c = SBlockCache::new();
        c.reserve();
        assert!(!c.is_cold());
        assert!(c.probe(0x2000).is_none(), "a reserved table holds no block");
        c.insert(block(0x2000, 4, 2));
        c.reserve();
        assert!(c.probe(0x2000).is_some(), "reserve on a warm cache dropped a block");
        assert_eq!(c.stats().built, 1);
    }

    #[test]
    fn a_cloned_warm_cache_shares_its_traces() {
        let mut c = SBlockCache::new();
        let pcs = [0x1000, 0x1100, 0x2000];
        for (i, &pc) in pcs.iter().enumerate() {
            c.insert(block(pc, 1, i + 2));
        }
        assert!(c.lend(0x1000, |_| false).is_none(), "a rejected block lent its trace");
        let mut d = c.clone();
        for &pc in &pcs {
            let a = c.probe(pc).and_then(|b| b.slots.clone()).expect("original");
            let b = d.probe(pc).and_then(|b| b.slots.clone()).expect("clone");
            assert!(Arc::ptr_eq(&a, &b), "the clone copied the trace at {pc:#x}");
        }
        assert!(c.probe(0x3000).is_none() && d.probe(0x3000).is_none());
        assert_eq!(c.stats(), d.stats());

        // Replacing a way in the clone leaves the original's block alone.
        d.insert(block(0x1000, 2, 9));
        assert_eq!(d.probe(0x1000).map(|b| (b.as_gen, b.trace().len())), Some((2, 9)));
        assert_eq!(c.probe(0x1000).map(|b| (b.as_gen, b.trace().len())), Some((1, 2)));
        assert_eq!(c.stats().built + 1, d.stats().built);
    }

    #[test]
    fn a_lent_trace_moves_out_and_comes_back_to_its_way() {
        let mut c = SBlockCache::new();
        c.insert(block(0x1000, 3, 5));
        let first = c.probe(0x1000).and_then(|b| b.slots.as_ref().map(Arc::as_ptr));
        let lent = c.lend(0x1000, |b| b.as_gen == 3).expect("valid block");
        assert!(c.probe(0x1000).is_some_and(|b| b.slots.is_none()), "the trace was copied");
        c.give_back(lent, BlockExit::Side, 2);
        let b = c.probe(0x1000).expect("still installed");
        assert_eq!(b.slots.as_ref().map(Arc::as_ptr), first, "another trace came back");
        let st = c.stats();
        assert_eq!((st.built, st.dispatched, st.insns, st.exit_side, st.stale), (1, 1, 2, 1, 0));
        // A rejected block lends nothing, counts stale and stays put.
        assert!(c.lend(0x1000, |b| b.as_gen == 4).is_none());
        assert_eq!(c.stats().stale, 1);
        assert_eq!(c.probe(0x1000).map(|b| b.trace().len()), Some(5));
    }
}
