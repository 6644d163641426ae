//! The address space (`as`) structure and its operations.
//!
//! "Each process has an associated address space ('as') data structure to
//! which a set of standard operations may be applied. One such operation
//! is `as_fault`, which performs page-fault processing for a specified
//! range of addresses." Inter-process I/O — the heart of `/proc` reads and
//! writes — is exactly [`AddressSpace::kernel_read`] /
//! [`AddressSpace::kernel_write`]: fault the pages in, map them, copy.

use crate::error::AccessDenied;
use crate::map::{MapFlags, Mapping, Prot, SegName};
use crate::object::{ObjectId, ObjectStore};
use crate::page::{page_align_down, page_chunks, PageFrame, PAGE_SIZE};
use crate::watch::WatchArea;
use std::collections::BTreeMap;

/// Errors from mapping-management operations (`mmap`/`munmap`/`mprotect`
/// and kernel segment setup). The kernel translates these to errnos.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum MapError {
    /// Base or length not page-aligned, or length zero.
    BadAlign,
    /// The requested range overlaps an existing mapping.
    Overlap,
    /// Part of the requested range is not mapped.
    NotMapped,
    /// No room in the search region for an anywhere-mapping.
    NoRoom,
    /// The store's memory-pressure source denied the allocation the
    /// operation needed. The kernel surfaces this as `ENOMEM`.
    NoMemory,
}

/// Access mode for permission checks.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Mode {
    /// Data read.
    Read,
    /// Data write.
    Write,
    /// Instruction fetch.
    Exec,
}

/// Number of direct-mapped software-TLB entries (power of two).
const TLB_WAYS: usize = 64;

/// One software-TLB line: a resolved translation for a virtual page,
/// optionally carrying the resolved page frame. The frame is only
/// served while its generation stamps hold: `frame_stamp` must match
/// the space's frame generation (moved by every slow-path write — COW
/// materialisation, `/proc` plants) and `frame_cgen` must match the
/// object store's content generation (moved by every shared/object
/// write). Watched pages are cached too, with `watched` set; a hit on
/// one runs the watch screen first, so no slow-path side effect
/// (recovery counting, one-shot bypass consumption) is ever skipped.
#[derive(Clone, Debug, Default)]
struct TlbEntry {
    /// Virtual page number this line translates.
    vpage: u64,
    /// `as_gen` at fill time; 0 means the line is empty.
    stamp: u64,
    /// Index into `maps` (valid only while `stamp == as_gen`, since any
    /// structural change bumps the generation).
    map_idx: u32,
    /// Protections of the mapping at fill time.
    prot: Prot,
    /// Some watch area intersects this page: hits must run the watch
    /// screen before moving any data.
    watched: bool,
    /// Resolved frame for the page (overlay or object), or `None` when
    /// not yet resolved, or evicted by a write the fast path did not
    /// serve.
    frame: Option<PageFrame>,
    /// Space frame generation at frame-resolve time.
    frame_stamp: u64,
    /// Store content generation at frame-resolve time.
    frame_cgen: u64,
}

/// Hit/miss/invalidation counters for the software TLB; `PIOCXSTATS`
/// reports these per process.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct TlbStats {
    /// Accesses served entirely from a TLB line.
    pub hits: u64,
    /// Read and fetch hits additionally served from a cached frame
    /// pointer (no overlay/object walk at all). Reads and fetches cache
    /// the frame on a hit that finds none; fast stores cache the frame
    /// they just wrote.
    pub frame_hits: u64,
    /// Fast-path-eligible accesses that fell through to the slow path.
    pub misses: u64,
    /// Generation bumps (each one logically flushes the whole TLB).
    pub invalidations: u64,
}

/// A process's virtual address space.
#[derive(Clone, Debug)]
pub struct AddressSpace {
    /// Mappings sorted by base address, pairwise disjoint.
    maps: Vec<Mapping>,
    /// Watched areas (the proposed watchpoint facility).
    pub watchpoints: Vec<WatchArea>,
    /// One-shot bypass: the next access that would fire a watchpoint is
    /// completed instead (used to step over the watched access after a
    /// `FLTWATCH` stop).
    pub watch_bypass_once: bool,
    /// Count of accesses that faulted on a watched *page* but missed every
    /// watched *byte range* and were transparently recovered by the
    /// system (experiment E6 reads this).
    pub watch_recovered: u64,
    /// Lowest address automatic stack growth may reach; 0 disables growth.
    pub stack_limit: u64,
    /// Cached sum of mapping lengths, maintained by every size-changing
    /// operation so [`AddressSpace::total_size`] — the `ls -l /proc`
    /// size — is O(1) instead of a walk over the map list.
    total: u64,
    /// Address-space generation: bumped by every structural change
    /// (map/unmap/protect/growth/clear) and by watchpoint add/remove.
    /// TLB lines and superblocks stamp themselves with this value and
    /// self-invalidate with one compare. Starts at 1 and never revisits
    /// 0 (0 is the empty-line sentinel).
    as_gen: u64,
    /// Execution fast path enabled (TLB fills/hits and superblock
    /// builds). Turning it off forces every access down the slow path —
    /// the differential oracle runs both ways.
    fast_path: bool,
    /// Direct-mapped translation cache, indexed by `vpage % TLB_WAYS`.
    tlb: Vec<TlbEntry>,
    /// Hit/miss/invalidate counters.
    tlb_stats: TlbStats,
    /// Frame generation: moved by every slow-path write (`kernel_write`
    /// — COW materialisation, breakpoint plants, `/proc` I/O). Cached
    /// frame pointers in TLB lines re-resolve when it moves. Starts at 1
    /// and never revisits 0.
    frame_gen: u64,
    /// Count of per-page content-epoch bumps (`PIOCXSTATS` reports it;
    /// the dense-breakpoint bench reads it).
    page_epoch_bumps: u64,
}

impl Default for AddressSpace {
    fn default() -> AddressSpace {
        AddressSpace {
            maps: Vec::new(),
            watchpoints: Vec::new(),
            watch_bypass_once: false,
            watch_recovered: 0,
            stack_limit: 0,
            total: 0,
            as_gen: 1,
            fast_path: true,
            tlb: vec![TlbEntry::default(); TLB_WAYS],
            tlb_stats: TlbStats::default(),
            frame_gen: 1,
            page_epoch_bumps: 0,
        }
    }
}

impl AddressSpace {
    /// Creates an empty address space.
    pub fn new() -> AddressSpace {
        AddressSpace::default()
    }

    /// The mappings, sorted by base address.
    pub fn mappings(&self) -> &[Mapping] {
        &self.maps
    }

    /// Total mapped bytes — the "size" reported for the process file in
    /// `ls -l /proc` (Figure 1). Served from the maintained stamp, so a
    /// `getattr` storm (`ls -l` over a large process table) never walks
    /// the map lists.
    pub fn total_size(&self) -> u64 {
        debug_assert_eq!(self.total, self.maps.iter().map(|m| m.len).sum::<u64>());
        self.total
    }

    /// Approximate resident bytes: privately materialised overlay pages
    /// plus, for shared mappings, materialised object pages in range.
    pub fn resident_bytes(&self, store: &ObjectStore) -> u64 {
        let mut pages = 0u64;
        for m in &self.maps {
            if m.flags.shared {
                let obj = store.get(m.object);
                let first = m.obj_off / PAGE_SIZE;
                let last = (m.obj_off + m.len - 1) / PAGE_SIZE;
                pages += (first..=last).filter(|p| obj.page(*p).is_some()).count() as u64;
            } else {
                pages += m.overlay.len() as u64;
            }
        }
        pages * PAGE_SIZE
    }

    /// Finds the mapping containing `addr`.
    pub fn find(&self, addr: u64) -> Option<&Mapping> {
        let idx = self.maps.partition_point(|m| m.end() <= addr);
        self.maps.get(idx).filter(|m| m.contains(addr))
    }

    fn find_idx(&self, addr: u64) -> Option<usize> {
        let idx = self.maps.partition_point(|m| m.end() <= addr);
        if self.maps.get(idx).is_some_and(|m| m.contains(addr)) {
            Some(idx)
        } else {
            None
        }
    }

    /// The current address-space generation. Caches stamped with an older
    /// value (or with a generation from a different address space — fork
    /// children start over at 1 with an empty TLB) must re-resolve.
    #[inline]
    pub fn generation(&self) -> u64 {
        self.as_gen
    }

    /// Invalidates every cached translation by moving the generation.
    /// Skips 0 on wrap (0 marks an empty TLB line).
    #[inline]
    pub fn bump_gen(&mut self) {
        self.as_gen = self.as_gen.wrapping_add(1);
        if self.as_gen == 0 {
            self.as_gen = 1;
        }
        self.tlb_stats.invalidations += 1;
    }

    /// Whether the execution fast path (TLB + superblocks) is active for
    /// this address space.
    #[inline]
    pub fn fast_path_enabled(&self) -> bool {
        self.fast_path
    }

    /// Enables or disables the execution fast path. Disabling (and
    /// re-enabling) bumps the generation so no stale line survives the
    /// transition.
    pub fn set_fast_path(&mut self, on: bool) {
        if self.fast_path != on {
            self.fast_path = on;
            self.bump_gen();
        }
    }

    /// The TLB hit/miss/invalidate counters.
    pub fn tlb_stats(&self) -> TlbStats {
        self.tlb_stats
    }

    /// Count of per-page content-epoch bumps so far.
    #[inline]
    pub fn page_epoch_bumps(&self) -> u64 {
        self.page_epoch_bumps
    }

    /// The content epoch of the page containing `addr` within mapping
    /// `idx`, if that mapping exists and covers `addr`. Superblocks
    /// validate against this (the index is only meaningful while the
    /// generation that resolved it is current).
    #[inline]
    pub fn page_epoch_at(&self, idx: usize, addr: u64) -> Option<u64> {
        let m = self.maps.get(idx)?;
        if !m.contains(addr) {
            return None;
        }
        Some(m.page_epoch(addr / PAGE_SIZE - m.base / PAGE_SIZE))
    }

    /// Resolves a superblock-eligible slot: returns `(map_idx,
    /// page_epoch)` when `[addr, addr+len)` lies inside one page of one
    /// exec-permitted mapping, no watch area touches that page, and the
    /// text is immune to stores from *inside* a running block — not
    /// user-writable (a store could rewrite instructions the block
    /// pre-validated) and not shared (another mapping of the object could
    /// do the same). `None` means "do not trace". `/proc` writes
    /// (breakpoint plants) remain possible; they move the page epoch
    /// between dispatches, which is enough because host-side writes never
    /// interleave with a running quantum.
    pub fn sblock_slot(&self, addr: u64, len: u64) -> Option<(usize, u64)> {
        let len = len.max(1);
        let last = addr.checked_add(len - 1)?;
        let vpage = addr / PAGE_SIZE;
        if last / PAGE_SIZE != vpage {
            return None;
        }
        let i = self.find_idx(addr)?;
        let m = &self.maps[i];
        if !m.prot.exec || m.prot.write || m.flags.shared || last >= m.end() {
            return None;
        }
        let page_base = vpage * PAGE_SIZE;
        if self.watchpoints.iter().any(|w| w.same_page(page_base, PAGE_SIZE)) {
            return None;
        }
        Some((i, m.page_epoch(vpage - m.base / PAGE_SIZE)))
    }

    /// Lends the current contents of virtual page `vpage` of mapping
    /// `idx` — the private overlay frame if the mapping has one for that
    /// page, else the object page, else the zero page — so a decoder can
    /// read a whole page of text without a [`AddressSpace::kernel_read`]
    /// per instruction. The bytes are exactly what `kernel_read` would
    /// return. `None` when `idx` is stale, the page lies outside the
    /// mapping, or the page must come from the object and `obj_off` is
    /// not page-aligned.
    pub fn text_page<'a>(
        &'a self,
        store: &'a ObjectStore,
        idx: usize,
        vpage: u64,
    ) -> Option<&'a [u8; PAGE_SIZE as usize]> {
        static ZERO_PAGE: [u8; PAGE_SIZE as usize] = [0; PAGE_SIZE as usize];
        let m = self.maps.get(idx)?;
        if !m.contains(vpage.checked_mul(PAGE_SIZE)?) {
            return None;
        }
        let frame = Self::backing_frame(m, store, vpage - m.base / PAGE_SIZE)?;
        Some(frame.map_or(&ZERO_PAGE, PageFrame::bytes))
    }

    /// The frame backing mapping-relative page `rel_page` of `m`: the
    /// private overlay frame if there is one, else the object's page,
    /// `Some(None)` while the object has not materialised it. `None`
    /// when the object page is needed but `obj_off` is not page-aligned,
    /// so no single object page lines up with the virtual page.
    fn backing_frame<'a>(
        m: &'a Mapping,
        store: &'a ObjectStore,
        rel_page: u64,
    ) -> Option<Option<&'a PageFrame>> {
        if !m.flags.shared {
            if let Some(frame) = m.overlay.get(&rel_page) {
                return Some(Some(frame));
            }
        }
        if !m.obj_off.is_multiple_of(PAGE_SIZE) {
            return None;
        }
        Some(store.get(m.object).page(m.obj_off / PAGE_SIZE + rel_page))
    }

    /// TLB probe: a hit returns the mapping index, and whether the page
    /// is watched, for an access wholly inside one page whose cached
    /// protections permit `mode`. On a watched hit the caller must run
    /// [`AddressSpace::watch_screen`] before moving any data.
    #[inline]
    fn tlb_lookup(&self, addr: u64, len: u64, mode: Mode) -> Option<(usize, bool)> {
        let last = addr.checked_add(len - 1)?;
        let vpage = addr / PAGE_SIZE;
        if last / PAGE_SIZE != vpage {
            return None;
        }
        let e = &self.tlb[(vpage as usize) & (TLB_WAYS - 1)];
        if e.stamp != self.as_gen || e.vpage != vpage {
            return None;
        }
        let ok = match mode {
            Mode::Read => e.prot.read,
            Mode::Write => e.prot.write,
            Mode::Exec => e.prot.exec,
        };
        if ok {
            Some((e.map_idx as usize, e.watched))
        } else {
            None
        }
    }

    /// Fills the TLB line for the page containing `addr` after a
    /// successful slow-path access confined to that page. The frame is
    /// resolved lazily by the first hit, not here.
    fn tlb_fill(&mut self, addr: u64, len: u64) {
        if !self.fast_path {
            return;
        }
        let len = len.max(1);
        let Some(last) = addr.checked_add(len - 1) else { return };
        let vpage = addr / PAGE_SIZE;
        if last / PAGE_SIZE != vpage {
            return;
        }
        let Some(map_idx) = self.find_idx(addr) else { return };
        // The access must not straddle into the next mapping either (the
        // cached index serves the whole page on later hits).
        if last >= self.maps[map_idx].end() {
            return;
        }
        let page_base = vpage * PAGE_SIZE;
        let watched = self.watchpoints.iter().any(|w| w.same_page(page_base, PAGE_SIZE));
        self.tlb[(vpage as usize) & (TLB_WAYS - 1)] = TlbEntry {
            vpage,
            stamp: self.as_gen,
            map_idx: map_idx as u32,
            prot: self.maps[map_idx].prot,
            watched,
            frame: None,
            frame_stamp: 0,
            frame_cgen: 0,
        };
    }

    /// Serves a read/fetch hit from the line's cached frame when the
    /// frame stamps still hold. Returns false when no valid frame is
    /// cached; the caller re-resolves and re-caches.
    #[inline]
    fn frame_copy(&mut self, store: &ObjectStore, addr: u64, buf: &mut [u8]) -> bool {
        let vpage = addr / PAGE_SIZE;
        let e = &self.tlb[(vpage as usize) & (TLB_WAYS - 1)];
        if e.frame_stamp != self.frame_gen || e.frame_cgen != store.content_gen {
            return false;
        }
        let Some(frame) = &e.frame else { return false };
        let off = (addr % PAGE_SIZE) as usize;
        buf.copy_from_slice(&frame.bytes()[off..off + buf.len()]);
        self.tlb_stats.frame_hits += 1;
        true
    }

    /// Serves a read/fetch hit whose line holds no valid frame: resolves
    /// the page's current frame with one overlay walk, copies from it and
    /// caches it in the page's TLB line, stamped with the current frame
    /// and content generations. Absent (zero-fill) pages and object pages
    /// behind an unaligned `obj_off` are read through the object and not
    /// cached. Mirrors one `page_chunks` step of
    /// [`AddressSpace::kernel_read`].
    fn copy_and_cache(&mut self, store: &ObjectStore, mi: usize, addr: u64, buf: &mut [u8]) {
        let m = &self.maps[mi];
        let vpage = addr / PAGE_SIZE;
        let Some(Some(frame)) = Self::backing_frame(m, store, vpage - m.base / PAGE_SIZE) else {
            // No overlay frame: the bytes come from the object.
            store.get(m.object).read_at(m.obj_off + (addr - m.base), buf);
            return;
        };
        let off = (addr % PAGE_SIZE) as usize;
        buf.copy_from_slice(&frame.bytes()[off..off + buf.len()]);
        let frame = frame.clone();
        self.set_frame(vpage, frame, store.content_gen);
    }

    /// Caches `frame` in the TLB line of `vpage`, stamped with the
    /// current frame generation and content generation `cgen`. The line
    /// must already translate `vpage` (a hit just found it).
    #[inline]
    fn set_frame(&mut self, vpage: u64, frame: PageFrame, cgen: u64) {
        let frame_stamp = self.frame_gen;
        let e = &mut self.tlb[(vpage as usize) & (TLB_WAYS - 1)];
        debug_assert!(e.stamp == self.as_gen && e.vpage == vpage, "caching into a foreign line");
        e.frame = Some(frame);
        e.frame_stamp = frame_stamp;
        e.frame_cgen = cgen;
    }

    /// Moves the frame generation, invalidating every cached frame
    /// pointer. Skips 0 on wrap (0 marks a never-resolved frame).
    #[inline]
    fn bump_frame_gen(&mut self) {
        self.frame_gen = self.frame_gen.wrapping_add(1);
        if self.frame_gen == 0 {
            self.frame_gen = 1;
        }
    }

    /// Installs a mapping at a fixed address. The caller transfers one
    /// object reference for the new mapping (allocate the object, or
    /// `incref` an existing one, before calling).
    #[allow(clippy::too_many_arguments)]
    pub fn map_fixed(
        &mut self,
        base: u64,
        len: u64,
        prot: Prot,
        flags: MapFlags,
        object: ObjectId,
        obj_off: u64,
        name: SegName,
    ) -> Result<(), MapError> {
        if len == 0 || !base.is_multiple_of(PAGE_SIZE) || !len.is_multiple_of(PAGE_SIZE) {
            return Err(MapError::BadAlign);
        }
        let end = base.checked_add(len).ok_or(MapError::BadAlign)?;
        let idx = self.maps.partition_point(|m| m.end() <= base);
        if self.maps.get(idx).is_some_and(|m| m.base < end) {
            return Err(MapError::Overlap);
        }
        self.maps.insert(
            idx,
            Mapping {
                base,
                len,
                prot,
                flags,
                object,
                obj_off,
                overlay: BTreeMap::new(),
                name,
                page_epochs: BTreeMap::new(),
            },
        );
        self.total += len;
        self.bump_gen();
        Ok(())
    }

    /// Installs a mapping at the lowest free page-aligned slot in
    /// `[lo, hi)`. The caller transfers one object reference as with
    /// [`AddressSpace::map_fixed`]. Returns the chosen base address.
    #[allow(clippy::too_many_arguments)]
    pub fn map_anywhere(
        &mut self,
        lo: u64,
        hi: u64,
        len: u64,
        prot: Prot,
        flags: MapFlags,
        object: ObjectId,
        obj_off: u64,
        name: SegName,
    ) -> Result<u64, MapError> {
        if len == 0 || !len.is_multiple_of(PAGE_SIZE) {
            return Err(MapError::BadAlign);
        }
        let mut candidate = lo;
        for m in &self.maps {
            if m.end() <= candidate {
                continue;
            }
            if m.base >= candidate + len {
                break;
            }
            candidate = m.end();
        }
        if candidate + len > hi {
            return Err(MapError::NoRoom);
        }
        self.map_fixed(candidate, len, prot, flags, object, obj_off, name)?;
        Ok(candidate)
    }

    /// Removes all mappings intersecting `[base, base+len)`, splitting
    /// partial overlaps. Object references held by removed pieces are
    /// dropped.
    pub fn unmap(&mut self, store: &mut ObjectStore, base: u64, len: u64) -> Result<(), MapError> {
        if len == 0 || !base.is_multiple_of(PAGE_SIZE) || !len.is_multiple_of(PAGE_SIZE) {
            return Err(MapError::BadAlign);
        }
        let end = base + len;
        self.split_boundary(store, base);
        self.split_boundary(store, end);
        let mut i = 0;
        while i < self.maps.len() {
            if self.maps[i].base >= base && self.maps[i].end() <= end {
                let dead = self.maps.remove(i);
                self.total -= dead.len;
                store.decref(dead.object);
            } else {
                i += 1;
            }
        }
        self.bump_gen();
        Ok(())
    }

    /// Changes protections on `[base, base+len)`; the entire range must be
    /// mapped.
    pub fn protect(
        &mut self,
        store: &mut ObjectStore,
        base: u64,
        len: u64,
        prot: Prot,
    ) -> Result<(), MapError> {
        if len == 0 || !base.is_multiple_of(PAGE_SIZE) || !len.is_multiple_of(PAGE_SIZE) {
            return Err(MapError::BadAlign);
        }
        // Verify full coverage first so the operation is atomic.
        if self.valid_span(base, len) != len {
            return Err(MapError::NotMapped);
        }
        let end = base + len;
        self.split_boundary(store, base);
        self.split_boundary(store, end);
        for m in &mut self.maps {
            if m.base >= base && m.end() <= end {
                m.prot = prot;
            }
        }
        self.bump_gen();
        Ok(())
    }

    /// Splits the mapping containing `addr` at `addr` (a page boundary),
    /// if one exists and `addr` is strictly inside it. The new piece gains
    /// an object reference.
    fn split_boundary(&mut self, store: &mut ObjectStore, addr: u64) {
        if !addr.is_multiple_of(PAGE_SIZE) {
            return;
        }
        if let Some(i) = self.find_idx(addr) {
            if self.maps[i].base < addr {
                let tail = self.maps[i].split_at(addr);
                store.incref(tail.object);
                self.maps.insert(i + 1, tail);
            }
        }
    }

    /// Number of contiguously mapped bytes starting at `addr`, capped at
    /// `max`. Zero means `addr` itself is unmapped. `/proc` file I/O uses
    /// this for the paper's truncation rule: "I/O operations that extend
    /// into unmapped areas do not fail but are truncated at the boundary."
    pub fn valid_span(&self, addr: u64, max: u64) -> u64 {
        let mut pos = addr;
        // Saturate rather than wrap: a span reaching the top of the
        // address space truncates there, and callers comparing the result
        // against `max` correctly see a short span.
        let end = addr.saturating_add(max);
        while pos < end {
            match self.find(pos) {
                Some(m) => pos = m.end().min(end),
                None => break,
            }
        }
        pos - addr
    }

    /// The paper's `as_fault` for a failed access: attempts transparent
    /// recovery (automatic downward growth of a `grows_down` mapping).
    /// Returns true if the fault was resolved and the access should be
    /// retried.
    pub fn as_fault(&mut self, store: &mut ObjectStore, addr: u64) -> bool {
        if self.find(addr).is_some() {
            return false;
        }
        if self.stack_limit == 0 || addr < self.stack_limit {
            return false;
        }
        // Find the lowest grows-down mapping above the fault address.
        let Some(i) = self.maps.iter().position(|m| m.flags.grows_down && m.base > addr) else {
            return false;
        };
        let new_base = page_align_down(addr);
        // Do not grow into a neighbour below.
        if i > 0 && self.maps[i - 1].end() > new_base {
            return false;
        }
        // Growth needs fresh frames; under injected pressure the fault is
        // simply not resolved and the access fails as an ordinary bounds
        // fault, exactly as when the stack limit is exhausted.
        if !store.mem_ok() {
            return false;
        }
        let m = &mut self.maps[i];
        let delta_pages = (m.base - new_base) / PAGE_SIZE;
        let old_overlay = std::mem::take(&mut m.overlay);
        m.overlay = old_overlay.into_iter().map(|(k, v)| (k + delta_pages, v)).collect();
        let old_epochs = std::mem::take(&mut m.page_epochs);
        m.page_epochs = old_epochs.into_iter().map(|(k, v)| (k + delta_pages, v)).collect();
        let grown = m.base - new_base;
        m.len += grown;
        m.base = new_base;
        self.total += grown;
        self.bump_gen();
        true
    }

    /// Grows (or shrinks) the break mapping so that it ends at `new_end`
    /// (page-rounded up). Supports only growth; shrinking is ignored.
    /// Growth consults the store's pressure source: a denial is the
    /// paper's `brk` failing with `ENOMEM`.
    pub fn grow_break(&mut self, store: &mut ObjectStore, new_end: u64) -> Result<u64, MapError> {
        let Some(i) = self.maps.iter().position(|m| m.flags.is_break) else {
            return Err(MapError::NotMapped);
        };
        let end = crate::page::page_align_up(new_end);
        let cur_end = self.maps[i].end();
        if end <= cur_end {
            return Ok(cur_end);
        }
        // Do not grow into a neighbour above.
        if self.maps.get(i + 1).is_some_and(|n| n.base < end) {
            return Err(MapError::Overlap);
        }
        if !store.mem_ok() {
            return Err(MapError::NoMemory);
        }
        self.total += end - cur_end;
        self.maps[i].len = end - self.maps[i].base;
        self.bump_gen();
        Ok(end)
    }

    /// Checks whether a user-mode access is permitted, applying the
    /// watchpoint screening described in the paper (page-level trigger,
    /// byte-level decision, transparent recovery for unwatched bytes).
    pub fn check_user_access(
        &mut self,
        addr: u64,
        len: u64,
        mode: Mode,
    ) -> Result<(), AccessDenied> {
        let len = len.max(1);
        // Page protections first. An access whose end wraps past the top
        // of the address space cannot be fully mapped (map ends are
        // bounded by u64::MAX), so it is simply unmapped somewhere.
        let Some(end) = addr.checked_add(len) else {
            return Err(AccessDenied::Unmapped { addr });
        };
        let mut pos = addr;
        while pos < end {
            match self.find(pos) {
                None => return Err(AccessDenied::Unmapped { addr: pos }),
                Some(m) => {
                    let ok = match mode {
                        Mode::Read => m.prot.read,
                        Mode::Write => m.prot.write,
                        Mode::Exec => m.prot.exec,
                    };
                    if !ok {
                        return Err(AccessDenied::Protection { addr: pos });
                    }
                    pos = m.end().min(end);
                }
            }
        }
        self.watch_screen(addr, len, mode)
    }

    /// The watchpoint screen on its own: page-level trigger, byte-level
    /// decision, transparent recovery for unwatched bytes. Both the slow
    /// path ([`AddressSpace::check_user_access`]) and watched-page TLB
    /// hits run exactly this, so caching a watched translation never
    /// skips a side effect (recovery counting, one-shot bypass
    /// consumption).
    fn watch_screen(&mut self, addr: u64, len: u64, mode: Mode) -> Result<(), AccessDenied> {
        let (r, w, x) = match mode {
            Mode::Read => (true, false, false),
            Mode::Write => (false, true, false),
            Mode::Exec => (false, false, true),
        };
        let mut recovered = false;
        for area in &self.watchpoints {
            if !area.fires_on(r, w, x) {
                continue;
            }
            if area.overlaps(addr, len) {
                if self.watch_bypass_once {
                    self.watch_bypass_once = false;
                    self.watch_recovered += 1;
                    return Ok(());
                }
                let hit = addr.max(area.base);
                let area = *area;
                return Err(AccessDenied::Watch { addr: hit, area });
            }
            if area.same_page(addr, len) {
                recovered = true;
            }
        }
        if recovered {
            self.watch_recovered += 1;
        }
        Ok(())
    }

    /// Adds a watched area. Overlapping areas coexist; the first
    /// overlapping area (in insertion order) reports the fault.
    pub fn add_watch(&mut self, area: WatchArea) {
        self.watchpoints.push(area);
        // Lines covering the newly watched page must stop hitting (the
        // slow path owns watch screening and its side effects).
        self.bump_gen();
    }

    /// Removes every watched area starting at `base` (the `/proc` rule:
    /// a zero-size `PIOCSWATCH` names an area by its address alone).
    /// Returns how many were removed. Removing one moves the generation,
    /// so lines filled while the area existed stop running the watch
    /// screen.
    pub fn remove_watch(&mut self, base: u64) -> usize {
        let before = self.watchpoints.len();
        self.watchpoints.retain(|w| w.base != base);
        let removed = before - self.watchpoints.len();
        if removed > 0 {
            self.bump_gen();
        }
        removed
    }

    /// Reads bytes with kernel privilege: protections and watchpoints are
    /// bypassed; unmapped addresses fail. This is the read half of `/proc`
    /// address-space I/O.
    pub fn kernel_read(
        &self,
        store: &ObjectStore,
        addr: u64,
        buf: &mut [u8],
    ) -> Result<(), AccessDenied> {
        let mut done = 0usize;
        let mut pos = addr;
        let Some(end) = addr.checked_add(buf.len() as u64) else {
            return Err(AccessDenied::Unmapped { addr });
        };
        while pos < end {
            let m = self.find(pos).ok_or(AccessDenied::Unmapped { addr: pos })?;
            let chunk_end = m.end().min(end);
            for (vpage, off, n) in page_chunks(pos, chunk_end - pos) {
                let rel_page = vpage - m.base / PAGE_SIZE;
                let out = &mut buf[done..done + n];
                if !m.flags.shared {
                    if let Some(frame) = m.overlay.get(&rel_page) {
                        out.copy_from_slice(&frame.bytes()[off..off + n]);
                        done += n;
                        continue;
                    }
                }
                let obj_pos = m.obj_off + (vpage * PAGE_SIZE + off as u64 - m.base);
                store.get(m.object).read_at(obj_pos, out);
                done += n;
            }
            pos = chunk_end;
        }
        Ok(())
    }

    /// Writes bytes with kernel privilege. Protections and watchpoints
    /// are bypassed, but copy-on-write is honoured: writes to a private
    /// mapping land in its overlay (copying the object page on first
    /// touch), so "writing to one process will not corrupt another process
    /// executing the same executable file or shared library". Writes to a
    /// shared mapping go to the object — bona-fide shared memory.
    pub fn kernel_write(
        &mut self,
        store: &mut ObjectStore,
        addr: u64,
        data: &[u8],
    ) -> Result<(), AccessDenied> {
        // Validate the whole range first so the write is atomic.
        if self.valid_span(addr, data.len() as u64) != data.len() as u64 {
            let hole = addr + self.valid_span(addr, data.len() as u64);
            return Err(AccessDenied::Unmapped { addr: hole });
        }
        // Any slow-path write can change frame identity (COW
        // materialisation, object writes): cached frame pointers in TLB
        // lines must re-resolve.
        self.bump_frame_gen();
        let mut done = 0usize;
        let mut pos = addr;
        let end = addr + data.len() as u64;
        while pos < end {
            let Some(i) = self.find_idx(pos) else {
                return Err(AccessDenied::Unmapped { addr: pos });
            };
            let mut bumps = 0u64;
            let m = &mut self.maps[i];
            let chunk_end = m.end().min(end);
            for (vpage, off, n) in page_chunks(pos, chunk_end - pos) {
                let rel_page = vpage - m.base / PAGE_SIZE;
                let src = &data[done..done + n];
                // Evict before writing, as a fast store does: a frame
                // still held by the page's TLB line would make the write
                // below copy the whole page.
                let line = &mut self.tlb[(vpage as usize) & (TLB_WAYS - 1)];
                if line.vpage == vpage {
                    line.frame = None;
                }
                // A write into executable text (a breakpoint plant, a
                // `/proc` patch) moves the content epoch of exactly the
                // touched page, so cached decodes of *other* pages in
                // the same mapping survive. Non-exec pages have no
                // decode consumers and skip the bump.
                if m.prot.exec {
                    m.bump_page_epoch(rel_page);
                    bumps += 1;
                }
                if m.flags.shared {
                    let obj_pos = m.obj_off + (vpage * PAGE_SIZE + off as u64 - m.base);
                    store.get_mut(m.object).write_at(obj_pos, src);
                } else {
                    let frame = match m.overlay.get_mut(&rel_page) {
                        Some(f) => f,
                        None => {
                            // Copy-on-write materialises a private frame;
                            // under injected pressure that allocation can
                            // fail mid-write (the validated prefix stays
                            // written, as with a real partial copyout).
                            if !store.mem_ok() {
                                return Err(AccessDenied::NoMemory {
                                    addr: vpage * PAGE_SIZE + off as u64,
                                });
                            }
                            let obj_page = (m.obj_off / PAGE_SIZE) + rel_page;
                            debug_assert_eq!(m.obj_off % PAGE_SIZE, 0);
                            let fresh = store
                                .get(m.object)
                                .page_cloned(obj_page)
                                .unwrap_or_else(PageFrame::zeroed);
                            m.overlay.entry(rel_page).or_insert(fresh)
                        }
                    };
                    frame.make_mut()[off..off + n].copy_from_slice(src);
                }
                done += n;
            }
            self.page_epoch_bumps += bumps;
            pos = chunk_end;
        }
        Ok(())
    }

    /// User-mode read: permission + watchpoint check, then data movement.
    /// A dTLB hit (single-page access, cached protections permit) skips
    /// the mapping binary search; a hit with valid frame stamps skips
    /// the overlay/object walk too and copies straight from the cached
    /// frame. Watched-page hits run the watch screen first.
    pub fn read_user(
        &mut self,
        store: &ObjectStore,
        addr: u64,
        buf: &mut [u8],
    ) -> Result<(), AccessDenied> {
        let len = (buf.len() as u64).max(1);
        if self.fast_path {
            if let Some((mi, watched)) = self.tlb_lookup(addr, len, Mode::Read) {
                if watched {
                    self.watch_screen(addr, len, Mode::Read)?;
                }
                self.tlb_stats.hits += 1;
                if !self.frame_copy(store, addr, buf) {
                    self.copy_and_cache(store, mi, addr, buf);
                }
                return Ok(());
            }
            self.tlb_stats.misses += 1;
        }
        self.check_user_access(addr, len, Mode::Read)?;
        self.kernel_read(store, addr, buf)?;
        self.tlb_fill(addr, len);
        Ok(())
    }

    /// User-mode write: permission + watchpoint check, then data movement
    /// (copy-on-write for private mappings, write-through for shared).
    /// The fast path serves only writes landing in an already
    /// materialised private overlay page: COW materialisation rolls the
    /// memory-pressure source and shared writes move the store's content
    /// generation, and the slow path must keep owning both side effects
    /// so fast-on and fast-off runs stay transcript-identical. A fast
    /// store evicts the line's cached frame, writes, then caches the
    /// just-written overlay frame again, so the loads that follow hit it.
    pub fn write_user(
        &mut self,
        store: &mut ObjectStore,
        addr: u64,
        data: &[u8],
    ) -> Result<(), AccessDenied> {
        let len = (data.len() as u64).max(1);
        if self.fast_path {
            if let Some((mi, watched)) = self.tlb_lookup(addr, len, Mode::Write) {
                if watched {
                    self.watch_screen(addr, len, Mode::Write)?;
                }
                // Drop any cached frame for the page before storing: a
                // held `Arc` would force `make_mut` to copy, and the
                // copy would go stale the moment the overlay advances.
                let vpage = addr / PAGE_SIZE;
                self.tlb[(vpage as usize) & (TLB_WAYS - 1)].frame = None;
                let m = &mut self.maps[mi];
                if !m.flags.shared && !data.is_empty() {
                    let rel_page = vpage - m.base / PAGE_SIZE;
                    let off = (addr % PAGE_SIZE) as usize;
                    if let Some(frame) = m.overlay.get_mut(&rel_page) {
                        // `make_mut` copies a frame still shared with a
                        // fork relative, so the store lands in a frame
                        // this space alone holds, and that is the frame
                        // cached again below.
                        frame.make_mut()[off..off + data.len()].copy_from_slice(data);
                        let written = frame.clone();
                        if m.prot.exec {
                            // Self-modifying code through a writable
                            // text page moves the page epoch, as every
                            // write into text does.
                            m.bump_page_epoch(rel_page);
                            self.page_epoch_bumps += 1;
                        }
                        self.set_frame(vpage, written, store.content_gen);
                        self.tlb_stats.hits += 1;
                        return Ok(());
                    }
                }
            }
            self.tlb_stats.misses += 1;
        }
        self.check_user_access(addr, len, Mode::Write)?;
        self.kernel_write(store, addr, data)?;
        self.tlb_fill(addr, len);
        Ok(())
    }

    /// Instruction fetch: exec permission + watch check, then read. Hits
    /// the same dTLB lines as data reads (one cache, three probe modes).
    pub fn fetch_user(
        &mut self,
        store: &ObjectStore,
        addr: u64,
        buf: &mut [u8],
    ) -> Result<(), AccessDenied> {
        let len = (buf.len() as u64).max(1);
        if self.fast_path {
            if let Some((mi, watched)) = self.tlb_lookup(addr, len, Mode::Exec) {
                if watched {
                    self.watch_screen(addr, len, Mode::Exec)?;
                }
                self.tlb_stats.hits += 1;
                if !self.frame_copy(store, addr, buf) {
                    self.copy_and_cache(store, mi, addr, buf);
                }
                return Ok(());
            }
            self.tlb_stats.misses += 1;
        }
        self.check_user_access(addr, len, Mode::Exec)?;
        self.kernel_read(store, addr, buf)?;
        self.tlb_fill(addr, len);
        Ok(())
    }

    /// Clones the address space for `fork`: mappings are duplicated,
    /// overlay frames stay shared until written (copy-on-write across the
    /// fork), and every mapping's object gains a reference.
    pub fn fork_clone(&self, store: &mut ObjectStore) -> AddressSpace {
        for m in &self.maps {
            store.incref(m.object);
        }
        AddressSpace {
            maps: self.maps.clone(),
            watchpoints: Vec::new(),
            watch_bypass_once: false,
            watch_recovered: 0,
            stack_limit: self.stack_limit,
            total: self.total,
            // The child starts cold: fresh generation, empty TLB, zeroed
            // counters. Shared frames can't leak stale translations
            // because no line carries over.
            as_gen: 1,
            fast_path: self.fast_path,
            tlb: vec![TlbEntry::default(); TLB_WAYS],
            tlb_stats: TlbStats::default(),
            frame_gen: 1,
            page_epoch_bumps: 0,
        }
    }

    /// Drops every mapping, releasing object references. Used by `exec`
    /// and `exit`.
    pub fn clear(&mut self, store: &mut ObjectStore) {
        for m in self.maps.drain(..) {
            store.decref(m.object);
        }
        self.total = 0;
        self.watchpoints.clear();
        self.watch_bypass_once = false;
        self.stack_limit = 0;
        // exec rebuilds on a clean slate; nothing cached may survive.
        self.bump_gen();
    }

    /// Verifies internal invariants (sortedness, disjointness, alignment);
    /// used by tests.
    pub fn check_invariants(&self) {
        for w in self.maps.windows(2) {
            assert!(w[0].end() <= w[1].base, "mappings overlap or unsorted");
        }
        for m in &self.maps {
            assert_eq!(m.base % PAGE_SIZE, 0, "unaligned base");
            assert_eq!(m.len % PAGE_SIZE, 0, "unaligned len");
            assert!(m.len > 0, "empty mapping");
        }
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;
    use crate::watch::WatchFlags;

    const K: u64 = 1024;

    /// Minimal deterministic xorshift64* generator for randomized tests.
    fn xorshift(state: &mut u64) -> u64 {
        let mut x = *state;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        *state = x;
        x.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }

    fn setup() -> (AddressSpace, ObjectStore) {
        (AddressSpace::new(), ObjectStore::new())
    }

    fn anon_map(
        a: &mut AddressSpace,
        s: &mut ObjectStore,
        base: u64,
        len: u64,
        prot: Prot,
    ) -> ObjectId {
        let obj = s.alloc_anon(len);
        a.map_fixed(base, len, prot, MapFlags::default(), obj, 0, SegName::Anon).expect("map");
        obj
    }

    #[test]
    fn map_read_write_roundtrip() {
        let (mut a, mut s) = setup();
        anon_map(&mut a, &mut s, 0x10000, 16 * K, Prot::RW);
        a.write_user(&mut s, 0x10100, b"hello").expect("write");
        let mut buf = [0u8; 5];
        a.read_user(&s, 0x10100, &mut buf).expect("read");
        assert_eq!(&buf, b"hello");
    }

    #[test]
    fn overlap_rejected() {
        let (mut a, mut s) = setup();
        anon_map(&mut a, &mut s, 0x10000, 16 * K, Prot::RW);
        let obj = s.alloc_anon(4096);
        let err = a
            .map_fixed(0x12000, 4096, Prot::RW, MapFlags::default(), obj, 0, SegName::Anon)
            .expect_err("overlap");
        assert_eq!(err, MapError::Overlap);
    }

    #[test]
    fn unmapped_access_denied() {
        let (mut a, s) = setup();
        let mut buf = [0u8; 4];
        let err = a.read_user(&s, 0x5000, &mut buf).expect_err("unmapped");
        assert_eq!(err, AccessDenied::Unmapped { addr: 0x5000 });
    }

    #[test]
    fn protection_enforced_for_user_not_kernel() {
        let (mut a, mut s) = setup();
        anon_map(&mut a, &mut s, 0x10000, 8 * K, Prot::RX);
        // User write denied.
        let err = a.write_user(&mut s, 0x10000, &[1]).expect_err("prot");
        assert!(matches!(err, AccessDenied::Protection { .. }));
        // Kernel (that is, /proc) write succeeds — breakpoint planting.
        a.kernel_write(&mut s, 0x10000, &[0xCC]).expect("kernel write");
        let mut b = [0u8; 1];
        a.read_user(&s, 0x10000, &mut b).expect("read");
        assert_eq!(b[0], 0xCC);
    }

    #[test]
    fn private_mappings_cow_from_shared_object() {
        let (mut a, mut s) = setup();
        let obj = s.alloc_file(1, 1, "/bin/prog", &[7u8; 8192]);
        s.incref(obj);
        // Two private mappings of the same object, as two processes
        // running one executable would have.
        a.map_fixed(0x10000, 8192, Prot::RX, MapFlags::default(), obj, 0, SegName::Text)
            .expect("map 1");
        a.map_fixed(0x40000, 8192, Prot::RX, MapFlags::default(), obj, 0, SegName::Text)
            .expect("map 2");
        // Plant a "breakpoint" through the first mapping.
        a.kernel_write(&mut s, 0x10000, &[0xCC]).expect("plant");
        let mut b1 = [0u8; 1];
        let mut b2 = [0u8; 1];
        a.kernel_read(&s, 0x10000, &mut b1).expect("read 1");
        a.kernel_read(&s, 0x40000, &mut b2).expect("read 2");
        assert_eq!(b1[0], 0xCC);
        assert_eq!(b2[0], 7, "the second mapping (other process) is unaffected");
        // The object itself (the executable file image) is unchanged.
        let mut ob = [0u8; 1];
        s.get(obj).read_at(0, &mut ob);
        assert_eq!(ob[0], 7);
    }

    #[test]
    fn shared_mapping_writes_through() {
        let (mut a, mut s) = setup();
        let obj = s.alloc_anon(4096);
        s.incref(obj);
        let shared = MapFlags { shared: true, ..Default::default() };
        a.map_fixed(0x10000, 4096, Prot::RW, shared, obj, 0, SegName::Anon).expect("map 1");
        a.map_fixed(0x20000, 4096, Prot::RW, shared, obj, 0, SegName::Anon).expect("map 2");
        a.write_user(&mut s, 0x10010, b"shared!").expect("write");
        let mut buf = [0u8; 7];
        a.read_user(&s, 0x20010, &mut buf).expect("read");
        assert_eq!(&buf, b"shared!");
    }

    #[test]
    fn fork_clone_is_cow() {
        let (mut a, mut s) = setup();
        let obj = anon_map(&mut a, &mut s, 0x10000, 4096, Prot::RW);
        a.write_user(&mut s, 0x10000, b"parent").expect("write");
        let mut child = a.fork_clone(&mut s);
        assert_eq!(s.refcount(obj), 2);
        // Child writes; parent must not see it.
        child.write_user(&mut s, 0x10000, b"child!").expect("child write");
        let mut pb = [0u8; 6];
        a.read_user(&s, 0x10000, &mut pb).expect("parent read");
        assert_eq!(&pb, b"parent");
        let mut cb = [0u8; 6];
        child.read_user(&s, 0x10000, &mut cb).expect("child read");
        assert_eq!(&cb, b"child!");
        child.clear(&mut s);
        assert_eq!(s.refcount(obj), 1);
    }

    #[test]
    fn valid_span_truncates_at_holes() {
        let (mut a, mut s) = setup();
        anon_map(&mut a, &mut s, 0x10000, 8 * K, Prot::RW);
        anon_map(&mut a, &mut s, 0x10000 + 8 * K, 4 * K, Prot::R); // contiguous
        assert_eq!(a.valid_span(0x10000, 100 * K), 12 * K);
        assert_eq!(a.valid_span(0x10000 + 11 * K, 100 * K), K);
        assert_eq!(a.valid_span(0x9000, 10), 0);
        assert_eq!(a.valid_span(0x10500, 100), 100);
    }

    #[test]
    fn unmap_splits_and_releases() {
        let (mut a, mut s) = setup();
        let obj = anon_map(&mut a, &mut s, 0x10000, 16 * K, Prot::RW);
        a.write_user(&mut s, 0x10000, &[1]).expect("w0");
        a.write_user(&mut s, 0x10000 + 12 * K, &[4]).expect("w3");
        // Punch a hole in the middle two pages.
        a.unmap(&mut s, 0x10000 + 4 * K, 8 * K).expect("unmap");
        a.check_invariants();
        assert_eq!(a.mappings().len(), 2);
        assert_eq!(s.refcount(obj), 2, "head and tail each hold a reference");
        assert_eq!(a.valid_span(0x10000, 100 * K), 4 * K);
        // Overlay data survived in the right pieces.
        let mut b = [0u8; 1];
        a.read_user(&s, 0x10000, &mut b).expect("r0");
        assert_eq!(b[0], 1);
        a.read_user(&s, 0x10000 + 12 * K, &mut b).expect("r3");
        assert_eq!(b[0], 4);
        let err = a.read_user(&s, 0x10000 + 5 * K, &mut b).expect_err("hole");
        assert!(matches!(err, AccessDenied::Unmapped { .. }));
    }

    #[test]
    fn protect_splits_and_applies() {
        let (mut a, mut s) = setup();
        anon_map(&mut a, &mut s, 0x10000, 12 * K, Prot::RW);
        a.protect(&mut s, 0x10000 + 4 * K, 4 * K, Prot::R).expect("protect");
        a.check_invariants();
        assert_eq!(a.mappings().len(), 3);
        a.write_user(&mut s, 0x10000, &[1]).expect("head still rw");
        let err = a.write_user(&mut s, 0x10000 + 4 * K, &[1]).expect_err("mid is ro");
        assert!(matches!(err, AccessDenied::Protection { .. }));
        a.write_user(&mut s, 0x10000 + 8 * K, &[1]).expect("tail still rw");
    }

    #[test]
    fn protect_requires_full_coverage() {
        let (mut a, mut s) = setup();
        anon_map(&mut a, &mut s, 0x10000, 4 * K, Prot::RW);
        let err = a.protect(&mut s, 0x10000, 8 * K, Prot::R).expect_err("hole");
        assert_eq!(err, MapError::NotMapped);
        // And nothing changed (atomicity).
        assert_eq!(a.mappings()[0].prot, Prot::RW);
    }

    #[test]
    fn stack_grows_down_transparently() {
        let (mut a, mut s) = setup();
        let obj = s.alloc_anon(16 * K);
        let flags = MapFlags { grows_down: true, ..Default::default() };
        a.map_fixed(0x7F000, 4 * K, Prot::RW, flags, obj, 0, SegName::Stack).expect("map");
        a.stack_limit = 0x70000;
        a.write_user(&mut s, 0x7F100, b"top").expect("in range");
        // Fault below the mapping: as_fault grows it.
        assert!(a.find(0x7E000).is_none());
        assert!(a.as_fault(&mut s, 0x7EFF8));
        a.check_invariants();
        a.write_user(&mut s, 0x7EFF8, b"grown").expect("after growth");
        let mut b = [0u8; 3];
        a.read_user(&s, 0x7F100, &mut b).expect("old data intact");
        assert_eq!(&b, b"top");
        // Below the limit: not grown.
        assert!(!a.as_fault(&mut s, 0x6F000));
    }

    #[test]
    fn break_grows_on_request() {
        let (mut a, mut s) = setup();
        let obj = s.alloc_anon(4 * K);
        let flags = MapFlags { is_break: true, ..Default::default() };
        a.map_fixed(0x30000, 4 * K, Prot::RW, flags, obj, 0, SegName::Break).expect("map");
        let new_end = a.grow_break(&mut s, 0x30000 + 10 * K).expect("grow");
        assert_eq!(new_end, 0x30000 + 12 * K, "page rounded");
        a.write_user(&mut s, 0x30000 + 9 * K, &[5]).expect("grown area usable");
        // Shrinking is a no-op.
        assert_eq!(a.grow_break(&mut s, 0x30000).expect("noop"), 0x30000 + 12 * K);
    }

    #[test]
    fn watchpoint_fires_only_on_watched_bytes() {
        let (mut a, mut s) = setup();
        anon_map(&mut a, &mut s, 0x10000, 8 * K, Prot::RW);
        a.add_watch(WatchArea { base: 0x10100, len: 4, flags: WatchFlags::write_only() });
        // Write to a different byte in the same page: recovered, allowed.
        a.write_user(&mut s, 0x10200, &[1]).expect("recovered");
        assert_eq!(a.watch_recovered, 1);
        // Read of the watched bytes: write-only watch does not fire.
        let mut b = [0u8; 4];
        a.read_user(&s, 0x10100, &mut b).expect("read ok");
        // Write to the watched bytes: fires.
        let err = a.write_user(&mut s, 0x10102, &[9]).expect_err("watch");
        match err {
            AccessDenied::Watch { addr, area } => {
                assert_eq!(addr, 0x10102);
                assert_eq!(area.base, 0x10100);
            }
            other => panic!("wrong denial {other:?}"),
        }
        // Bypass-once lets the access complete (and counts as recovery).
        a.watch_bypass_once = true;
        a.write_user(&mut s, 0x10102, &[9]).expect("bypassed");
        assert!(!a.watch_bypass_once);
        // Other-page access: no recovery, no trigger.
        let before = a.watch_recovered;
        a.write_user(&mut s, 0x11000, &[1]).expect("other page");
        assert_eq!(a.watch_recovered, before, "other-page access costs nothing");
    }

    #[test]
    fn kernel_write_bypasses_watchpoints() {
        let (mut a, mut s) = setup();
        anon_map(&mut a, &mut s, 0x10000, 4 * K, Prot::RW);
        a.add_watch(WatchArea { base: 0x10000, len: 8, flags: WatchFlags::read_write() });
        a.kernel_write(&mut s, 0x10000, &[1, 2, 3]).expect("kernel ignores watches");
        assert_eq!(a.watch_recovered, 0);
    }

    #[test]
    fn remove_watch_by_range() {
        let (mut a, _s) = setup();
        a.add_watch(WatchArea { base: 0x10, len: 4, flags: WatchFlags::write_only() });
        a.add_watch(WatchArea { base: 0x10, len: 8, flags: WatchFlags::read_write() });
        a.add_watch(WatchArea { base: 0x20, len: 4, flags: WatchFlags::write_only() });
        let gen = a.generation();
        assert_eq!(a.remove_watch(0x10), 2, "every area at the address goes");
        assert_eq!(a.watchpoints.len(), 1);
        assert_ne!(a.generation(), gen, "a removal must move the generation");
        let gen = a.generation();
        assert_eq!(a.remove_watch(0x999), 0);
        assert_eq!(a.generation(), gen, "removing nothing moved the generation");
    }

    #[test]
    fn map_anywhere_finds_gaps() {
        let (mut a, mut s) = setup();
        anon_map(&mut a, &mut s, 0x40000, 4 * K, Prot::RW);
        let obj = s.alloc_anon(8 * K);
        let base = a
            .map_anywhere(
                0x40000,
                0x50000,
                8 * K,
                Prot::RW,
                MapFlags::default(),
                obj,
                0,
                SegName::Anon,
            )
            .expect("fits after the existing mapping");
        assert_eq!(base, 0x41000);
        let obj2 = s.alloc_anon(0x10000);
        let err = a
            .map_anywhere(
                0x40000,
                0x44000,
                0x10000,
                Prot::RW,
                MapFlags::default(),
                obj2,
                0,
                SegName::Anon,
            )
            .expect_err("no room");
        assert_eq!(err, MapError::NoRoom);
    }

    #[test]
    fn kernel_write_is_atomic_over_holes() {
        let (mut a, mut s) = setup();
        anon_map(&mut a, &mut s, 0x10000, 4 * K, Prot::RW);
        // Write extending past the end must not partially apply.
        let data = vec![9u8; 8 * K as usize];
        let err = a.kernel_write(&mut s, 0x10000 + 2 * K, &data).expect_err("hole");
        assert!(matches!(err, AccessDenied::Unmapped { .. }));
        let mut b = [0u8; 1];
        a.kernel_read(&s, 0x10000 + 2 * K, &mut b).expect("read");
        assert_eq!(b[0], 0, "no partial write");
    }

    /// Random map/unmap/protect sequences preserve the invariants.
    #[test]
    fn invariants_hold_under_random_ops() {
        let mut rng = 0x0014_17A5_u64;
        for _ in 0..64 {
            let (mut a, mut s) = setup();
            let nops = 1 + (xorshift(&mut rng) % 39) as usize;
            for _ in 0..nops {
                let op = (xorshift(&mut rng) % 3) as u8;
                let page = xorshift(&mut rng) % 64;
                let pages = 1 + xorshift(&mut rng) % 15;
                let base = 0x10000 + page * PAGE_SIZE;
                let len = pages * PAGE_SIZE;
                match op {
                    0 => {
                        let obj = s.alloc_anon(len);
                        if a.map_fixed(
                            base,
                            len,
                            Prot::RW,
                            MapFlags::default(),
                            obj,
                            0,
                            SegName::Anon,
                        )
                        .is_err()
                        {
                            s.decref(obj);
                        }
                    }
                    1 => {
                        let _ = a.unmap(&mut s, base, len);
                    }
                    _ => {
                        let _ = a.protect(&mut s, base, len, Prot::R);
                    }
                }
                a.check_invariants();
            }
            // Total refcounts equal live mappings.
            let live = a.mappings().len();
            let total_refs: u32 = a
                .mappings()
                .iter()
                .map(|m| m.object)
                .collect::<std::collections::BTreeSet<_>>()
                .iter()
                .map(|&o| s.refcount(o))
                .sum();
            assert_eq!(total_refs as usize, live, "every mapping holds one reference");
            // Clearing releases everything.
            a.clear(&mut s);
            assert_eq!(s.live_count(), 0);
        }
    }

    #[test]
    fn access_near_u64_max_does_not_overflow() {
        let (mut a, mut s) = setup();
        anon_map(&mut a, &mut s, 0x10000, 4 * K, Prot::RW);
        // check_user_access: end computation must not wrap to a small
        // value and "succeed".
        let err = a.check_user_access(u64::MAX - 2, 8, Mode::Read).expect_err("wrapping access");
        assert!(matches!(err, AccessDenied::Unmapped { .. }));
        // kernel_read with a wrapping range.
        let mut buf = [0u8; 16];
        let err = a.kernel_read(&s, u64::MAX - 4, &mut buf).expect_err("wrapping read");
        assert!(matches!(err, AccessDenied::Unmapped { .. }));
        // kernel_write validates through valid_span, which saturates.
        let err = a.kernel_write(&mut s, u64::MAX - 4, &[0u8; 16]).expect_err("wrapping write");
        assert!(matches!(err, AccessDenied::Unmapped { .. }));
        // valid_span saturates instead of wrapping: the reported span is
        // shorter than the request, never bogus-full.
        assert!(a.valid_span(u64::MAX - 2, 100) < 100);
        // And the user-mode entry points reject it too.
        let err = a.read_user(&s, u64::MAX - 2, &mut buf).expect_err("user read");
        assert!(matches!(err, AccessDenied::Unmapped { .. }));
        let err = a.write_user(&mut s, u64::MAX - 2, &[0u8; 16]).expect_err("user write");
        assert!(matches!(err, AccessDenied::Unmapped { .. }));
    }

    #[test]
    fn tlb_hits_after_slow_path_and_invalidates_on_change() {
        let (mut a, mut s) = setup();
        anon_map(&mut a, &mut s, 0x10000, 8 * K, Prot::RW);
        let mut b = [0u8; 4];
        a.write_user(&mut s, 0x10100, &[1, 2, 3, 4]).expect("w");
        a.read_user(&s, 0x10100, &mut b).expect("r1");
        let before = a.tlb_stats();
        a.read_user(&s, 0x10100, &mut b).expect("r2");
        assert_eq!(a.tlb_stats().hits, before.hits + 1, "second read hits");
        // A structural change flushes: the next read misses again.
        a.protect(&mut s, 0x10000, 4 * K, Prot::R).expect("protect");
        let mid = a.tlb_stats();
        a.read_user(&s, 0x10100, &mut b).expect("r3");
        assert_eq!(a.tlb_stats().misses, mid.misses + 1, "post-protect read misses");
        assert!(a.tlb_stats().invalidations > before.invalidations);
    }

    #[test]
    fn tlb_respects_new_protections_and_watchpoints() {
        let (mut a, mut s) = setup();
        anon_map(&mut a, &mut s, 0x10000, 4 * K, Prot::RW);
        a.write_user(&mut s, 0x10000, &[7]).expect("warm");
        a.write_user(&mut s, 0x10000, &[8]).expect("hot");
        // Revoke write: the cached RW line must not serve the store.
        a.protect(&mut s, 0x10000, 4 * K, Prot::R).expect("protect");
        let err = a.write_user(&mut s, 0x10000, &[9]).expect_err("now read-only");
        assert!(matches!(err, AccessDenied::Protection { .. }));
        // Watch the page: hot reads must fall back to slow-path
        // screening and fire.
        let (mut a, mut s) = setup();
        anon_map(&mut a, &mut s, 0x10000, 4 * K, Prot::RW);
        a.write_user(&mut s, 0x10010, &[1]).expect("warm");
        a.write_user(&mut s, 0x10010, &[2]).expect("hot");
        a.add_watch(WatchArea { base: 0x10010, len: 4, flags: WatchFlags::write_only() });
        let err = a.write_user(&mut s, 0x10010, &[3]).expect_err("watched");
        assert!(matches!(err, AccessDenied::Watch { .. }));
        // Unwatched byte in the watched page still counts recovery.
        let rec = a.watch_recovered;
        a.write_user(&mut s, 0x10100, &[1]).expect("recovered");
        assert_eq!(a.watch_recovered, rec + 1);
    }

    #[test]
    fn fast_path_off_is_equivalent_and_counts_nothing() {
        let (mut a, mut s) = setup();
        a.set_fast_path(false);
        anon_map(&mut a, &mut s, 0x10000, 4 * K, Prot::RW);
        a.write_user(&mut s, 0x10000, b"abcd").expect("w");
        let mut b = [0u8; 4];
        a.read_user(&s, 0x10000, &mut b).expect("r");
        a.read_user(&s, 0x10000, &mut b).expect("r");
        assert_eq!(&b, b"abcd");
        let st = a.tlb_stats();
        assert_eq!((st.hits, st.misses), (0, 0));
    }

    #[test]
    fn fork_child_tlb_starts_cold() {
        let (mut a, mut s) = setup();
        anon_map(&mut a, &mut s, 0x10000, 4 * K, Prot::RW);
        a.write_user(&mut s, 0x10000, &[1]).expect("warm");
        a.write_user(&mut s, 0x10000, &[2]).expect("hot");
        let child = a.fork_clone(&mut s);
        assert_eq!(child.tlb_stats(), TlbStats::default());
        assert_eq!(child.generation(), 1);
    }

    #[test]
    fn watched_page_caches_with_screen_side_effects() {
        let (mut a, mut s) = setup();
        anon_map(&mut a, &mut s, 0x10000, 4 * K, Prot::RW);
        a.add_watch(WatchArea { base: 0x10010, len: 4, flags: WatchFlags::write_only() });
        // First store to an unwatched byte fills the (watched) line.
        a.write_user(&mut s, 0x10100, &[1]).expect("fill");
        let warm = a.tlb_stats();
        let rec = a.watch_recovered;
        // Second store hits the cached watched line — and still counts
        // the transparent recovery the slow path would have counted.
        a.write_user(&mut s, 0x10100, &[2]).expect("hit");
        assert_eq!(a.tlb_stats().hits, warm.hits + 1, "watched page never cached");
        assert_eq!(a.watch_recovered, rec + 1, "cached hit skipped the screen");
        // A store to the watched bytes fires from the hot line.
        let err = a.write_user(&mut s, 0x10010, &[9]).expect_err("watched");
        assert!(matches!(err, AccessDenied::Watch { .. }));
        // Bypass-once is consumed by a cached hit exactly as by the
        // slow path.
        a.watch_bypass_once = true;
        a.write_user(&mut s, 0x10010, &[9]).expect("bypassed");
        assert!(!a.watch_bypass_once);
    }

    #[test]
    fn frame_hits_serve_repeats_and_die_on_kernel_write() {
        let (mut a, mut s) = setup();
        anon_map(&mut a, &mut s, 0x10000, 4 * K, Prot::RW);
        a.write_user(&mut s, 0x10000, b"aaaa").expect("w");
        let mut b = [0u8; 4];
        a.read_user(&s, 0x10000, &mut b).expect("r1 resolves the frame");
        let before = a.tlb_stats();
        a.read_user(&s, 0x10000, &mut b).expect("r2");
        assert_eq!(a.tlb_stats().frame_hits, before.frame_hits + 1, "no frame hit");
        // A /proc write moves the frame generation: the cached frame
        // must not serve the stale bytes.
        a.kernel_write(&mut s, 0x10000, b"bbbb").expect("plant");
        a.read_user(&s, 0x10000, &mut b).expect("r3");
        assert_eq!(&b, b"bbbb", "cached frame served stale data");
    }

    #[test]
    fn store_evicts_cached_frame_and_keeps_reads_coherent() {
        let (mut a, mut s) = setup();
        anon_map(&mut a, &mut s, 0x10000, 4 * K, Prot::RW);
        a.write_user(&mut s, 0x10000, b"1111").expect("w1");
        let mut b = [0u8; 4];
        a.read_user(&s, 0x10000, &mut b).expect("r1");
        a.read_user(&s, 0x10000, &mut b).expect("r2 frame hit");
        let frame = |a: &AddressSpace| {
            a.mappings()[0].overlay.get(&0).map(|f| f.bytes().as_ptr()).expect("overlay frame")
        };
        let before = frame(&a);
        // In-place fast-path store: evicts the frame, writes the overlay
        // in place (no copy) and caches the written frame again, so the
        // read that follows is a frame hit.
        a.write_user(&mut s, 0x10000, b"2222").expect("w2");
        assert_eq!(frame(&a), before, "the store copied the overlay frame");
        let hits = a.tlb_stats().frame_hits;
        a.read_user(&s, 0x10000, &mut b).expect("r3");
        assert_eq!(&b, b"2222");
        assert_eq!(a.tlb_stats().frame_hits, hits + 1, "the read after a store walked");
        // A `/proc` write evicts the line's frame before writing too, so
        // it also writes in place, and the next read sees its bytes.
        a.kernel_write(&mut s, 0x10000, b"3333").expect("plant");
        assert_eq!(frame(&a), before, "the kernel write copied the overlay frame");
        a.read_user(&s, 0x10000, &mut b).expect("r4");
        assert_eq!(&b, b"3333");
    }

    #[test]
    fn page_epochs_move_per_page_not_per_mapping() {
        let (mut a, mut s) = setup();
        let obj = s.alloc_file(1, 1, "/bin/prog", &[7u8; 2 * PAGE_SIZE as usize]);
        a.map_fixed(0x10000, 2 * PAGE_SIZE, Prot::RX, MapFlags::default(), obj, 0, SegName::Text)
            .expect("map");
        let (i0, e0) = a.sblock_slot(0x10000, 8).expect("slot 0");
        let (i1, e1) = a.sblock_slot(0x10000 + PAGE_SIZE, 8).expect("slot 1");
        assert_eq!((i0, i1), (0, 0));
        // Plant into page 0 only.
        a.kernel_write(&mut s, 0x10010, &[0xCC]).expect("plant");
        assert_ne!(a.page_epoch_at(0, 0x10000), Some(e0), "page 0 epoch must move");
        assert_eq!(a.page_epoch_at(0, 0x10000 + PAGE_SIZE), Some(e1), "page 1 epoch must hold");
        assert_eq!(a.page_epoch_bumps(), 1);
    }

    #[test]
    fn sblock_slot_requires_immutable_private_text() {
        let (mut a, mut s) = setup();
        let obj = s.alloc_file(1, 1, "/bin/prog", &[7u8; PAGE_SIZE as usize]);
        s.incref(obj);
        s.incref(obj);
        a.map_fixed(0x10000, PAGE_SIZE, Prot::RX, MapFlags::default(), obj, 0, SegName::Text)
            .expect("rx");
        a.map_fixed(0x20000, PAGE_SIZE, Prot::RWX, MapFlags::default(), obj, 0, SegName::Text)
            .expect("rwx");
        let shared = MapFlags { shared: true, ..Default::default() };
        a.map_fixed(0x30000, PAGE_SIZE, Prot::RX, shared, obj, 0, SegName::Text).expect("shared");
        assert!(a.sblock_slot(0x10000, 8).is_some(), "plain text refused");
        assert!(a.sblock_slot(0x20000, 8).is_none(), "writable text accepted");
        assert!(a.sblock_slot(0x30000, 8).is_none(), "shared text accepted");
    }

    #[test]
    fn text_page_lends_the_overlay_frame_after_a_plant() {
        let (mut a, mut s) = setup();
        let obj = s.alloc_file(1, 1, "/bin/prog", &[7u8; 2 * PAGE_SIZE as usize]);
        a.map_fixed(0x10000, 2 * PAGE_SIZE, Prot::RX, MapFlags::default(), obj, 0, SegName::Text)
            .expect("map");
        assert_eq!(a.text_page(&s, 0, 0x10).expect("object page")[0x10], 7);
        a.kernel_write(&mut s, 0x10010, &[0xCC]).expect("plant");
        let page = a.text_page(&s, 0, 0x10).expect("overlay page");
        assert_eq!((page[0x0f], page[0x10]), (7, 0xCC), "the overlay frame must win");
        assert_eq!(s.get(obj).page(0).expect("object page").bytes()[0x10], 7);
        let mut word = [0u8; 8];
        a.kernel_read(&s, 0x10010, &mut word).expect("read");
        assert_eq!(&page[0x10..0x18], &word, "lent bytes differ from kernel_read");
        // The untouched second page still comes from the object.
        assert_eq!(a.text_page(&s, 0, 0x11).expect("page 1")[0x10], 7);
    }

    #[test]
    fn text_page_reads_an_unmaterialised_page_as_zero() {
        let (mut a, mut s) = setup();
        let obj = s.alloc_file(1, 1, "/bin/prog", &[7u8; 8]);
        a.map_fixed(0x10000, 2 * PAGE_SIZE, Prot::RX, MapFlags::default(), obj, 0, SegName::Text)
            .expect("map");
        assert!(s.get(obj).page(1).is_none());
        let page = a.text_page(&s, 0, 0x11).expect("absent page");
        assert!(page.iter().all(|&b| b == 0));
    }

    #[test]
    fn text_page_refuses_stale_indices_foreign_pages_and_unaligned_objects() {
        let (mut a, mut s) = setup();
        let obj = s.alloc_file(1, 1, "/bin/prog", &[7u8; 2 * PAGE_SIZE as usize]);
        s.incref(obj);
        a.map_fixed(0x10000, PAGE_SIZE, Prot::RX, MapFlags::default(), obj, 0, SegName::Text)
            .expect("aligned");
        a.map_fixed(0x20000, PAGE_SIZE, Prot::RX, MapFlags::default(), obj, 8, SegName::Text)
            .expect("unaligned");
        assert!(a.text_page(&s, 0, 0x10).is_some());
        assert!(a.text_page(&s, 2, 0x10).is_none(), "out-of-range index");
        assert!(a.text_page(&s, 0, 0x11).is_none(), "page past the mapping's end");
        assert!(a.text_page(&s, 0, 0x0f).is_none(), "page before the mapping's base");
        assert!(a.text_page(&s, 0, u64::MAX).is_none(), "page address overflows");
        assert!(a.text_page(&s, 1, 0x20).is_none(), "non-page-aligned obj_off");
    }

    /// Data written user-mode is read back identically through both
    /// user and kernel paths.
    #[test]
    fn write_read_consistency() {
        let mut rng = 0xC0515_u64;
        for _ in 0..128 {
            let (mut a, mut s) = setup();
            anon_map(&mut a, &mut s, 0x10000, 3 * PAGE_SIZE, Prot::RW);
            let len = 1 + (xorshift(&mut rng) % 255) as usize;
            let off = xorshift(&mut rng) % (3 * PAGE_SIZE - len as u64);
            let data: Vec<u8> = (0..len).map(|_| xorshift(&mut rng) as u8).collect();
            a.write_user(&mut s, 0x10000 + off, &data).expect("write");
            let mut ub = vec![0u8; data.len()];
            a.read_user(&s, 0x10000 + off, &mut ub).expect("user read");
            assert_eq!(&ub, &data);
            let mut kb = vec![0u8; data.len()];
            a.kernel_read(&s, 0x10000 + off, &mut kb).expect("kernel read");
            assert_eq!(&kb, &data);
        }
    }
}
