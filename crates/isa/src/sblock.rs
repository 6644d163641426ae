//! Per-LWP superblock cache: traced straight-line runs of decoded
//! instructions.
//!
//! The decoded-instruction cache ([`crate::icache`]) removes the decode
//! cost but still pays one bus round trip per instruction. A superblock
//! removes the round trip too: a trace of up to [`SBLOCK_CAP`] decoded
//! instructions, pre-validated against one text page, that the CPU
//! executes in a single dispatch. Traces follow statically predictable
//! control flow — fall-through, direct jumps and calls, and backward
//! conditional branches predicted taken (the hot-loop case, which lets a
//! small loop unroll to fill the block) — and end at indirect or
//! trapping instructions, the page boundary, or capacity.
//!
//! Correctness never rests on the prediction: every slot carries its pc,
//! and the CPU compares it against the live pc before executing, side-
//! exiting the block on the first mismatch. Validity rests on three
//! stamps checked before dispatch, exactly the icache discipline:
//!
//! * the address-space generation (`as_gen`) — any structural change or
//!   watchpoint add/remove moves it;
//! * the *page* content epoch of the block's text page — a breakpoint
//!   plant or other write into that page moves it (writes to other
//!   pages of the same mapping do not: the dense-breakpoint case);
//! * the object store's content generation — shared-object writes from
//!   other processes move it.
//!
//! Like the icache, this cache is policy-free: the kernel's bus decides
//! what is traceable (see `sblock_slot` in the VM layer) and validates
//! stamps; the cache stores and serves.

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
    /// The traced instructions, in predicted execution order.
    pub slots: Vec<BlockSlot>,
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
/// ran guest code copies nothing.
#[derive(Clone, Debug)]
pub struct SBlockCache {
    /// Empty while cold, else `SBLOCK_SETS * SBLOCK_ASSOC` entries,
    /// set-major.
    ways: Vec<SuperBlock>,
    /// Per-set index of the most recently probed-or-inserted way (empty
    /// while cold).
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
            slots: Vec::new(),
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

    /// Returns the block rooted at exactly `pc`, if one is installed,
    /// and marks its way most-recently-used (a cold cache misses). The
    /// caller must still validate the stamps; call
    /// [`SBlockCache::note_stale`] when they have moved.
    #[inline]
    pub fn probe(&mut self, pc: u64) -> Option<&SuperBlock> {
        if self.ways.is_empty() {
            return None;
        }
        let set = Self::index(pc);
        for way in 0..SBLOCK_ASSOC {
            let b = &self.ways[set * SBLOCK_ASSOC + way];
            if b.as_gen != 0 && b.start_pc == pc {
                self.mru[set] = way as u8;
                return Some(&self.ways[set * SBLOCK_ASSOC + way]);
            }
        }
        None
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

    /// Records a block dispatch.
    #[inline]
    pub fn note_dispatch(&mut self) {
        self.stats.dispatched += 1;
    }

    /// Records how a dispatch ended and how many instructions it
    /// retired.
    pub fn note_exit(&mut self, exit: BlockExit, retired: u64) {
        self.stats.insns += retired;
        match exit {
            BlockExit::End => self.stats.exit_end += 1,
            BlockExit::Side => self.stats.exit_side += 1,
            BlockExit::Trap => self.stats.exit_trap += 1,
            BlockExit::Budget => self.stats.exit_budget += 1,
        }
    }

    /// Records a probe that matched on pc but failed stamp validation.
    #[inline]
    pub fn note_stale(&mut self) {
        self.stats.stale += 1;
    }

    /// Drops every block (exec within the same LWP identity). The table,
    /// if any, stays allocated; a cold cache is left cold.
    pub fn clear(&mut self) {
        for b in &mut self.ways {
            b.as_gen = 0;
            b.slots.clear();
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
        SuperBlock { start_pc: pc, as_gen, map_idx: 0, epoch: 0, content_gen: 0, slots }
    }

    #[test]
    fn probe_misses_empty_and_hits_after_insert() {
        let mut c = SBlockCache::new();
        assert!(c.probe(0x1000).is_none());
        c.insert(block(0x1000, 1, 3));
        assert_eq!(c.probe(0x1000).expect("installed").slots.len(), 3);
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
        assert_eq!(c.probe(0x2000).expect("installed").slots.len(), 2);
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
}
