//! Mappings: contiguous virtual ranges backed by an object.

use crate::object::ObjectId;
use crate::page::{PageFrame, PAGE_SIZE};
use std::collections::BTreeMap;
use std::fmt;

/// Page protections on a mapping (read / write / execute).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub struct Prot {
    /// Readable.
    pub read: bool,
    /// Writable.
    pub write: bool,
    /// Executable.
    pub exec: bool,
}

impl Prot {
    /// `read`-only.
    pub const R: Prot = Prot { read: true, write: false, exec: false };
    /// `read/write`.
    pub const RW: Prot = Prot { read: true, write: true, exec: false };
    /// `read/exec` — a text segment.
    pub const RX: Prot = Prot { read: true, write: false, exec: true };
    /// All three.
    pub const RWX: Prot = Prot { read: true, write: true, exec: true };
    /// No access.
    pub const NONE: Prot = Prot { read: false, write: false, exec: false };

    /// Encodes as bits (1 read, 2 write, 4 exec) for the `/proc` wire
    /// format (`prmap` entries).
    pub fn to_bits(self) -> u32 {
        (self.read as u32) | (self.write as u32) << 1 | (self.exec as u32) << 2
    }

    /// Decodes from the wire format.
    pub fn from_bits(bits: u32) -> Prot {
        Prot { read: bits & 1 != 0, write: bits & 2 != 0, exec: bits & 4 != 0 }
    }
}

impl fmt::Display for Prot {
    /// Renders in the style of the paper's Figure 2: `read/write/exec`
    /// joined by `/`, or `none`.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut parts = Vec::new();
        if self.read {
            parts.push("read");
        }
        if self.write {
            parts.push("write");
        }
        if self.exec {
            parts.push("exec");
        }
        if parts.is_empty() {
            write!(f, "none")
        } else {
            write!(f, "{}", parts.join("/"))
        }
    }
}

/// Mapping attributes beyond protections.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub struct MapFlags {
    /// `MAP_SHARED`: stores go to the object and are visible to every
    /// process mapping it. When false the mapping is `MAP_PRIVATE` with
    /// copy-on-write semantics.
    pub shared: bool,
    /// The mapping grows downward automatically (the initial stack
    /// segment — "the operating system is prepared to grow one mapping
    /// automatically").
    pub grows_down: bool,
    /// The mapping grows upward on explicit `brk` request (the break
    /// segment).
    pub is_break: bool,
}

/// Advisory segment names. The VM model does not distinguish text, data
/// and stack, but tools (and the paper's own `PIOCMAP` footnote about
/// "stack" and "break" mappings) want the labels.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum SegName {
    /// Executable code of the a.out.
    Text,
    /// Initialized data of the a.out.
    Data,
    /// Zero-fill bss.
    Bss,
    /// The initial program stack.
    Stack,
    /// The break (heap) segment.
    Break,
    /// Shared-library text; carries the library name.
    LibText(String),
    /// Shared-library data; carries the library name.
    LibData(String),
    /// An anonymous mmap region.
    Anon,
    /// A file mmap region.
    Mapped,
}

impl fmt::Display for SegName {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SegName::Text => write!(f, "text"),
            SegName::Data => write!(f, "data"),
            SegName::Bss => write!(f, "bss"),
            SegName::Stack => write!(f, "stack"),
            SegName::Break => write!(f, "break"),
            SegName::LibText(n) => write!(f, "lib:{n} text"),
            SegName::LibData(n) => write!(f, "lib:{n} data"),
            SegName::Anon => write!(f, "anon"),
            SegName::Mapped => write!(f, "mapped"),
        }
    }
}

/// A contiguous virtual address range mapped to (part of) an object.
///
/// For private mappings, `overlay` holds the pages that have been written
/// through this mapping (indexed by page offset *within the mapping*);
/// unwritten pages fall through to the object, so multiple private
/// mappings of one object share memory until they write — exactly the
/// copy-on-write story in the paper.
#[derive(Clone, Debug)]
pub struct Mapping {
    /// First virtual address (page-aligned).
    pub base: u64,
    /// Length in bytes (page multiple, never zero).
    pub len: u64,
    /// Protections.
    pub prot: Prot,
    /// Shared/private and growth attributes.
    pub flags: MapFlags,
    /// Backing object.
    pub object: ObjectId,
    /// Byte offset within the object corresponding to `base`.
    pub obj_off: u64,
    /// Private copy-on-write overlay: mapping-relative page index to frame.
    pub overlay: BTreeMap<u64, PageFrame>,
    /// Advisory name for tools.
    pub name: SegName,
    /// Per-page content epochs, keyed by mapping-relative page index;
    /// absent pages are at epoch 0. A write that lands in a page (user
    /// store, `/proc` breakpoint plant, COW materialisation) bumps only
    /// that page's epoch. Superblocks record their page's epoch at build
    /// time and self-invalidate when it moves — so planting a breakpoint
    /// invalidates one page's decodes, not the whole mapping's.
    pub page_epochs: BTreeMap<u64, u64>,
}

impl Mapping {
    /// End address (exclusive).
    #[inline]
    pub fn end(&self) -> u64 {
        self.base + self.len
    }

    /// True if `addr` falls inside the mapping.
    #[inline]
    pub fn contains(&self, addr: u64) -> bool {
        addr >= self.base && addr < self.end()
    }

    /// Object offset corresponding to virtual address `addr`.
    ///
    /// # Panics
    ///
    /// Panics in debug builds if `addr` is outside the mapping.
    #[inline]
    pub fn obj_offset_of(&self, addr: u64) -> u64 {
        debug_assert!(self.contains(addr));
        self.obj_off + (addr - self.base)
    }

    /// The content epoch of mapping-relative page `rel_page`. Pages
    /// never written through this mapping are at epoch 0.
    #[inline]
    pub fn page_epoch(&self, rel_page: u64) -> u64 {
        self.page_epochs.get(&rel_page).copied().unwrap_or(0)
    }

    /// Moves the content epoch of `rel_page`, invalidating cached
    /// decodes of that page.
    #[inline]
    pub fn bump_page_epoch(&mut self, rel_page: u64) {
        *self.page_epochs.entry(rel_page).or_insert(0) += 1;
    }

    /// Splits off the tail of the mapping at `addr` (page-aligned, strictly
    /// inside), leaving `self` as the head and returning the tail. Overlay
    /// pages and page epochs are partitioned; the object gains a reference
    /// (the caller must `incref` — see [`crate::space::AddressSpace`],
    /// which owns the store interaction).
    pub fn split_at(&mut self, addr: u64) -> Mapping {
        debug_assert!(addr > self.base && addr < self.end());
        debug_assert_eq!(addr % PAGE_SIZE, 0);
        let head_pages = (addr - self.base) / PAGE_SIZE;
        let tail_overlay: BTreeMap<u64, PageFrame> = self
            .overlay
            .split_off(&head_pages)
            .into_iter()
            .map(|(k, v)| (k - head_pages, v))
            .collect();
        let tail_epochs: BTreeMap<u64, u64> = self
            .page_epochs
            .split_off(&head_pages)
            .into_iter()
            .map(|(k, v)| (k - head_pages, v))
            .collect();
        let tail = Mapping {
            base: addr,
            len: self.end() - addr,
            prot: self.prot,
            flags: self.flags,
            object: self.object,
            obj_off: self.obj_off + (addr - self.base),
            overlay: tail_overlay,
            name: self.name.clone(),
            page_epochs: tail_epochs,
        };
        self.len = addr - self.base;
        tail
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mk(base: u64, len: u64) -> Mapping {
        Mapping {
            base,
            len,
            prot: Prot::RW,
            flags: MapFlags::default(),
            object: ObjectId(0),
            obj_off: 0,
            overlay: BTreeMap::new(),
            name: SegName::Anon,
            page_epochs: BTreeMap::new(),
        }
    }

    #[test]
    fn prot_display_matches_figure_2_style() {
        assert_eq!(Prot::RX.to_string(), "read/exec");
        assert_eq!(Prot::RW.to_string(), "read/write");
        assert_eq!(Prot::R.to_string(), "read");
        assert_eq!(Prot::NONE.to_string(), "none");
    }

    #[test]
    fn prot_bits_roundtrip() {
        for bits in 0..8 {
            assert_eq!(Prot::from_bits(bits).to_bits(), bits);
        }
    }

    #[test]
    fn split_partitions_overlay() {
        let mut m = mk(0x10000, 4 * PAGE_SIZE);
        m.overlay.insert(0, PageFrame::from_bytes(&[1]));
        m.overlay.insert(3, PageFrame::from_bytes(&[4]));
        let tail = m.split_at(0x10000 + 2 * PAGE_SIZE);
        assert_eq!(m.len, 2 * PAGE_SIZE);
        assert_eq!(tail.base, 0x10000 + 2 * PAGE_SIZE);
        assert_eq!(tail.len, 2 * PAGE_SIZE);
        assert_eq!(tail.obj_off, 2 * PAGE_SIZE);
        assert!(m.overlay.contains_key(&0));
        assert!(!m.overlay.contains_key(&3));
        assert!(tail.overlay.contains_key(&1), "page 3 becomes tail page 1");
        assert_eq!(tail.overlay[&1].bytes()[0], 4);
    }

    #[test]
    fn obj_offset_tracks_addr() {
        let mut m = mk(0x20000, 2 * PAGE_SIZE);
        m.obj_off = 0x5000;
        assert_eq!(m.obj_offset_of(0x20000), 0x5000);
        assert_eq!(m.obj_offset_of(0x20010), 0x5010);
    }
}
