//! Watched areas — the paper's proposed generalized data watchpoint
//! facility.
//!
//! "The interface accepts specification of watched areas of any size, down
//! to a single byte. The traced process stops only when a watchpoint
//! really fires; the system takes care of the details of recovering from
//! machine faults taken due to references to unwatched data that happens
//! to fall in the same page as watched data."
//!
//! The model here mirrors a page-protection implementation: any user
//! access to a *page* containing watched bytes takes a (simulated) machine
//! fault; if the access actually intersects a watched area with a
//! matching mode the process stops on `FLTWATCH`, otherwise the kernel
//! transparently completes the access, at a cost — the recovery counter
//! lets the benchmark harness expose that cost (experiment E6).

use crate::page::PAGE_SIZE;

/// Which access modes a watched area fires on.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub struct WatchFlags {
    /// Fire on data reads.
    pub read: bool,
    /// Fire on data writes.
    pub write: bool,
    /// Fire on instruction fetch.
    pub exec: bool,
}

impl WatchFlags {
    /// Watch writes only — the common case for data watchpoints.
    pub fn write_only() -> WatchFlags {
        WatchFlags { read: false, write: true, exec: false }
    }

    /// Watch reads and writes.
    pub fn read_write() -> WatchFlags {
        WatchFlags { read: true, write: true, exec: false }
    }

    /// Encodes to a bit mask (bit 0 read, bit 1 write, bit 2 exec) for the
    /// `/proc` wire format.
    pub fn to_bits(self) -> u32 {
        (self.read as u32) | (self.write as u32) << 1 | (self.exec as u32) << 2
    }

    /// Decodes from the `/proc` wire format.
    pub fn from_bits(bits: u32) -> WatchFlags {
        WatchFlags { read: bits & 1 != 0, write: bits & 2 != 0, exec: bits & 4 != 0 }
    }
}

/// A watched area of the address space: any size, down to a single byte.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct WatchArea {
    /// First watched byte.
    pub base: u64,
    /// Length in bytes (never zero).
    pub len: u64,
    /// Modes the area fires on.
    pub flags: WatchFlags,
}

impl WatchArea {
    /// True if `[addr, addr+len)` intersects this area.
    pub fn overlaps(&self, addr: u64, len: u64) -> bool {
        addr < self.base + self.len && self.base < addr + len
    }

    /// True if the area shares a page with `[addr, addr+len)`.
    pub fn same_page(&self, addr: u64, len: u64) -> bool {
        let a0 = addr / PAGE_SIZE;
        let a1 = (addr + len.max(1) - 1) / PAGE_SIZE;
        let w0 = self.base / PAGE_SIZE;
        let w1 = (self.base + self.len - 1) / PAGE_SIZE;
        a0 <= w1 && w0 <= a1
    }

    /// True if the area fires for the given access mode.
    pub fn fires_on(&self, read: bool, write: bool, exec: bool) -> bool {
        (read && self.flags.read) || (write && self.flags.write) || (exec && self.flags.exec)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn overlap_and_same_page() {
        let w = WatchArea { base: 0x1000, len: 1, flags: WatchFlags::write_only() };
        assert!(w.overlaps(0x1000, 1));
        assert!(!w.overlaps(0x1001, 4));
        assert!(!w.overlaps(0x0FFF, 1));
        assert!(w.overlaps(0x0FFE, 4));
        // Same 4 KiB page (0x1000..0x2000) but no byte overlap.
        assert!(w.same_page(0x1800, 8));
        assert!(!w.same_page(0x2000, 8));
        assert!(!w.same_page(0x0FF0, 8));
    }

    #[test]
    fn single_byte_watch() {
        let w = WatchArea { base: 100, len: 1, flags: WatchFlags::read_write() };
        assert!(w.overlaps(100, 1));
        assert!(!w.overlaps(99, 1));
        assert!(!w.overlaps(101, 1));
        assert!(w.overlaps(98, 5));
    }

    #[test]
    fn fires_on_respects_modes() {
        let w = WatchArea { base: 0, len: 8, flags: WatchFlags::write_only() };
        assert!(!w.fires_on(true, false, false));
        assert!(w.fires_on(false, true, false));
        let rw = WatchArea { base: 0, len: 8, flags: WatchFlags::read_write() };
        assert!(rw.fires_on(true, false, false));
    }

    #[test]
    fn flags_roundtrip_bits() {
        for bits in 0..8 {
            assert_eq!(WatchFlags::from_bits(bits).to_bits(), bits);
        }
    }

    #[test]
    fn watch_spanning_pages() {
        let w = WatchArea { base: PAGE_SIZE - 4, len: 8, flags: WatchFlags::write_only() };
        assert!(w.same_page(0, 1), "first page is involved");
        assert!(w.same_page(PAGE_SIZE, 1), "second page is involved");
        assert!(!w.same_page(2 * PAGE_SIZE, 1));
    }
}
