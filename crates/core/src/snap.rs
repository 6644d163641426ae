//! Generation-stamped snapshot caching for both `/proc` generations.
//!
//! The hot paths of `ps` and `truss` are dominated by repeated renders
//! of the same wire images: a process that has not run since the last
//! inspection produces byte-identical `psinfo`, `prstatus`, `prmap`,
//! `prcred` and `prusage` snapshots, and a process table that has not
//! changed shape produces an identical directory listing. The kernel
//! stamps every externally visible mutation with a per-process
//! generation counter ([`ksim::proc::Proc::pr_gen`]), every table-shape
//! change with [`ksim::Kernel::table_gen`], and every shared-page write
//! with [`vm::ObjectStore::content_gen`]; this module caches rendered
//! images against those stamps so an unchanged process costs one hash
//! lookup instead of a full capture.
//!
//! One [`SnapCache`] is shared (via [`SnapHandle`]) between the flat
//! [`crate::ProcFs`] and the hierarchical [`crate::HierFs`]: the five
//! pure-read `PIOC*` replies are byte-identical to the corresponding
//! hierarchical file images, so both interfaces hit the same entries.

use crate::ops;
use crate::types::{PrCacheStats, PrCred, PrMap, PrUsage, PsInfo};
use ksim::proc::Proc;
use ksim::{Kernel, Tid};
use std::collections::hash_map::{Entry, HashMap};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};
use vfs::{DirEntry, Errno, Pid, SysResult};

/// Shared handle to a [`SnapCache`]; the two `/proc` file systems
/// mounted by [`crate::mount_standard`] hold clones of one handle.
/// A `Mutex` (uncontended in the single-threaded simulator) rather than
/// a `RefCell` keeps the file systems `Send` for remote-mount tests.
pub type SnapHandle = Arc<Mutex<SnapCache>>;

/// Creates a fresh shared cache handle.
pub fn snap_handle() -> SnapHandle {
    Arc::new(Mutex::new(SnapCache::default()))
}

/// Locks a shared cache. A poisoned lock still guards consistent
/// memoised bytes, so it is taken over rather than propagated.
#[inline]
pub fn lock(cache: &SnapHandle) -> MutexGuard<'_, SnapCache> {
    cache.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Which cached directory listing (the two roots differ in entry names
/// and node encodings).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum DirSlot {
    /// The flat `/proc` root (five-digit names).
    Flat,
    /// The hierarchical `/proc2` root (plain decimal names).
    Hier,
}

/// A cacheable `/proc` image. The five whole-process images are both a
/// pure-read `PIOC*` reply and the byte-identical `/proc2` file; the two
/// LWP images are `/proc2/<pid>/lwp/<tid>/` files.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Image {
    /// `prstatus` (`PIOCSTATUS`, `status`).
    Status,
    /// `psinfo` (`PIOCPSINFO`, `psinfo`).
    PsInfo,
    /// The `prmap` array (`PIOCMAP`, `map`).
    Map,
    /// `prcred` (`PIOCCRED`, `cred`).
    Cred,
    /// `prusage` (`PIOCUSAGE`, `usage`).
    Usage,
    /// One LWP's `prstatus` (`lwp/<tid>/status`).
    LwpStatus,
    /// One LWP's general registers (`lwp/<tid>/gregs`).
    LwpGregs,
}

/// The generation stamps an image is validated against: the process's
/// [`ksim::proc::Proc::pr_gen`], the page cache's
/// [`vm::ObjectStore::content_gen`] and the LWP's own generation (0 for
/// whole-process images).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
struct Stamps {
    pr_gen: u64,
    mem_gen: u64,
    lwp_gen: u64,
}

impl Image {
    /// True if the image depends on address-space contents (resident-set
    /// sizes, map arrays) and must therefore also be validated against
    /// the page-cache content generation. Credentials and register
    /// images depend only on the process's own stamp.
    fn mem_dependent(self) -> bool {
        matches!(self, Image::Status | Image::PsInfo | Image::Map | Image::Usage | Image::LwpStatus)
    }

    /// True if the image is scoped to a single LWP and must therefore
    /// also be validated against that LWP's own generation stamp.
    /// LWP-scoped mutations bump only the per-LWP stamp (plus `pr_gen`
    /// when the LWP is the representative one), so mutating one thread
    /// leaves its siblings' entries — and the whole-process entries —
    /// valid.
    fn lwp_dependent(self) -> bool {
        matches!(self, Image::LwpStatus | Image::LwpGregs)
    }

    /// True if an entry stamped `then` is still valid at `now`.
    fn valid(self, then: Stamps, now: Stamps) -> bool {
        then.pr_gen == now.pr_gen
            && (!self.mem_dependent() || then.mem_gen == now.mem_gen)
            && (!self.lwp_dependent() || then.lwp_gen == now.lwp_gen)
    }

    /// The current stamps of this image of process `pid` (LWP `tid`).
    fn stamps(self, k: &Kernel, pid: Pid, tid: Tid) -> SysResult<Stamps> {
        let proc = k.proc(pid)?;
        let lwp_gen =
            if self.lwp_dependent() { proc.lwp(tid).ok_or(Errno::ESRCH)?.lwp_gen } else { 0 };
        Ok(Stamps { pr_gen: proc.pr_gen, mem_gen: k.objects.content_gen, lwp_gen })
    }

    /// Renders the image from kernel state.
    fn render(self, k: &Kernel, pid: Pid, tid: Tid) -> SysResult<Vec<u8>> {
        match self {
            Image::Status => ops::status_bytes(k, pid, None),
            Image::PsInfo => Ok(PsInfo::capture(k, pid)?.to_bytes()),
            Image::Map => {
                let maps = PrMap::capture_all(k, pid)?;
                let mut out = Vec::with_capacity(maps.len() * PrMap::WIRE_LEN);
                for m in &maps {
                    out.extend_from_slice(&m.to_bytes());
                }
                Ok(out)
            }
            Image::Cred => Ok(PrCred::capture(k, pid)?.to_bytes()),
            Image::Usage => Ok(PrUsage::capture(k, pid)?.to_bytes()),
            Image::LwpStatus => ops::status_bytes(k, pid, Some(tid)),
            Image::LwpGregs => {
                let lwp = k.proc(pid)?.lwp(tid).ok_or(Errno::ENOENT)?;
                Ok(lwp.gregs.to_bytes())
            }
        }
    }
}

#[derive(Debug)]
struct Cached {
    stamps: Stamps,
    bytes: Vec<u8>,
}

/// A cache of rendered `/proc` wire images keyed on
/// `(pid, image, tid)` and validated against generation stamps.
#[derive(Debug, Default)]
pub struct SnapCache {
    entries: HashMap<(u32, Image, u32), Cached>,
    dir_flat: Option<(u64, Vec<DirEntry>)>,
    dir_hier: Option<(u64, Vec<DirEntry>)>,
    hits: u64,
    misses: u64,
    invalidations: u64,
}

impl SnapCache {
    /// Looks up a cached image against the *current* stamps `now`; a
    /// stale entry is counted as an invalidation and removed.
    fn lookup(&mut self, pid: u32, img: Image, tid: u32, now: Stamps) -> Option<&[u8]> {
        match self.entries.entry((pid, img, tid)) {
            Entry::Occupied(e) if img.valid(e.get().stamps, now) => {
                self.hits += 1;
                Some(e.into_mut().bytes.as_slice())
            }
            Entry::Occupied(e) => {
                self.invalidations += 1;
                e.remove();
                None
            }
            Entry::Vacant(_) => {
                self.misses += 1;
                None
            }
        }
    }

    /// Stores a freshly rendered image under the given stamps.
    fn insert(&mut self, pid: u32, img: Image, tid: u32, now: Stamps, bytes: Vec<u8>) {
        self.entries.insert((pid, img, tid), Cached { stamps: now, bytes });
    }

    /// Serves image `img` of process `pid` (LWP `tid`): gathers its
    /// current stamps, runs `f` over the cached bytes on a hit, and on a
    /// miss renders the image, runs `f` over it and stores it.
    #[inline]
    pub fn serve<R>(
        &mut self,
        k: &Kernel,
        pid: Pid,
        img: Image,
        tid: Tid,
        f: impl FnOnce(&[u8]) -> R,
    ) -> SysResult<R> {
        let now = img.stamps(k, pid, tid)?;
        if let Some(bytes) = self.lookup(pid.0, img, tid.0, now) {
            return Ok(f(bytes));
        }
        let bytes = img.render(k, pid, tid)?;
        let r = f(&bytes);
        self.insert(pid.0, img, tid.0, now, bytes);
        Ok(r)
    }

    /// Drops entries whose pid fails the `live` predicate — called when
    /// a directory rebuild observes the new process table.
    fn retain_pids(&mut self, live: impl Fn(u32) -> bool) {
        self.entries.retain(|k, _| live(k.0));
    }

    /// The cached root listing, if still valid for `table_gen`.
    fn dir(&mut self, slot: DirSlot, table_gen: u64) -> Option<Vec<DirEntry>> {
        let cached = match slot {
            DirSlot::Flat => &self.dir_flat,
            DirSlot::Hier => &self.dir_hier,
        };
        match cached {
            Some((gen, list)) if *gen == table_gen => {
                self.hits += 1;
                Some(list.clone())
            }
            Some(_) => {
                self.invalidations += 1;
                None
            }
            None => {
                self.misses += 1;
                None
            }
        }
    }

    /// Stores a rebuilt root listing under `table_gen`.
    fn set_dir(&mut self, slot: DirSlot, table_gen: u64, list: Vec<DirEntry>) {
        match slot {
            DirSlot::Flat => self.dir_flat = Some((table_gen, list)),
            DirSlot::Hier => self.dir_hier = Some((table_gen, list)),
        }
    }

    /// Serves a root listing, one `entry` per process, rebuilding it when
    /// the process table has changed shape since the last build.
    #[inline]
    pub fn listing(
        &mut self,
        slot: DirSlot,
        k: &Kernel,
        entry: impl FnMut(&Proc) -> DirEntry,
    ) -> Vec<DirEntry> {
        if let Some(list) = self.dir(slot, k.table_gen) {
            return list;
        }
        let list: Vec<DirEntry> = k.procs.values().map(entry).collect();
        // Any cached image of a since-departed pid can never validate
        // again (pids are not reused), so drop them here.
        self.retain_pids(|pid| k.procs.contains_key(&pid));
        self.set_dir(slot, k.table_gen, list.clone());
        list
    }

    /// Counter snapshot for the `PIOCCACHESTATS` read path.
    pub fn stats(&self) -> PrCacheStats {
        PrCacheStats {
            hits: self.hits,
            misses: self.misses,
            invalidations: self.invalidations,
            entries: self.entries.len() as u64,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn at(pr_gen: u64, mem_gen: u64, lwp_gen: u64) -> Stamps {
        Stamps { pr_gen, mem_gen, lwp_gen }
    }

    #[test]
    fn hit_miss_invalidate_accounting() {
        let mut c = SnapCache::default();
        assert!(c.lookup(1, Image::PsInfo, 0, at(7, 0, 0)).is_none());
        c.insert(1, Image::PsInfo, 0, at(7, 0, 0), vec![0xAA]);
        assert_eq!(c.lookup(1, Image::PsInfo, 0, at(7, 0, 0)), Some(&[0xAA][..]));
        // A moved pr_gen invalidates.
        assert!(c.lookup(1, Image::PsInfo, 0, at(8, 0, 0)).is_none());
        let s = c.stats();
        assert_eq!((s.hits, s.misses, s.invalidations), (1, 1, 1));
        assert_eq!(s.entries, 0);
    }

    #[test]
    fn mem_gen_only_guards_memory_kinds() {
        let mut c = SnapCache::default();
        // Cred ignores the content generation...
        c.insert(1, Image::Cred, 0, at(1, 10, 0), vec![1]);
        assert!(c.lookup(1, Image::Cred, 0, at(1, 99, 0)).is_some());
        // ...but psinfo does not.
        c.insert(1, Image::PsInfo, 0, at(1, 10, 0), vec![2]);
        assert!(c.lookup(1, Image::PsInfo, 0, at(1, 99, 0)).is_none());
    }

    #[test]
    fn lwp_gen_only_guards_lwp_kinds() {
        let mut c = SnapCache::default();
        // A whole-process image (status) ignores lwp_gen...
        c.insert(1, Image::Status, 0, at(1, 1, 0), vec![1]);
        assert!(c.lookup(1, Image::Status, 0, at(1, 1, 42)).is_some());
        // ...but an LWP gregs image is pinned to its stamp...
        c.insert(1, Image::LwpGregs, 2, at(1, 1, 5), vec![2]);
        assert!(c.lookup(1, Image::LwpGregs, 2, at(1, 1, 5)).is_some());
        assert!(c.lookup(1, Image::LwpGregs, 2, at(1, 1, 6)).is_none());
        // ...and an LWP status image checks all three stamps.
        c.insert(1, Image::LwpStatus, 2, at(1, 1, 5), vec![3]);
        assert!(c.lookup(1, Image::LwpStatus, 2, at(2, 1, 5)).is_none());
        c.insert(1, Image::LwpStatus, 2, at(1, 1, 5), vec![3]);
        assert!(c.lookup(1, Image::LwpStatus, 2, at(1, 1, 6)).is_none());
    }

    #[test]
    fn dir_cache_tracks_table_gen() {
        let mut c = SnapCache::default();
        assert!(c.dir(DirSlot::Flat, 5).is_none());
        c.set_dir(DirSlot::Flat, 5, vec![]);
        assert!(c.dir(DirSlot::Flat, 5).is_some());
        assert!(c.dir(DirSlot::Flat, 6).is_none());
        // The hier slot is independent.
        assert!(c.dir(DirSlot::Hier, 5).is_none());
    }

    #[test]
    fn pid_pruning() {
        let mut c = SnapCache::default();
        c.insert(1, Image::PsInfo, 0, Stamps::default(), vec![]);
        c.insert(2, Image::PsInfo, 0, Stamps::default(), vec![]);
        c.insert(2, Image::Status, 0, Stamps::default(), vec![]);
        c.retain_pids(|p| p == 1);
        assert_eq!(c.stats().entries, 1);
        c.retain_pids(|p| p != 1);
        assert_eq!(c.stats().entries, 0);
    }
}
