//! The process file system — the paper's primary contribution.
//!
//! Two generations of the interface are provided, exactly as the paper
//! describes them:
//!
//! * [`ProcFs`] — the SVR4 flat form: `/proc` is a directory of process
//!   files named by five-digit pid; `read`/`write` at a file offset move
//!   data to and from the process's virtual address space; `ioctl`
//!   carries the [`ioctl`] module's `PIOC*` information and control
//!   operations; security follows the uid/gid matching rules, including
//!   exclusive-use opens (`O_EXCL`), run-on-last-close, and descriptor
//!   invalidation on set-id exec.
//! * [`HierFs`] — the proposed restructuring: a directory per process
//!   containing read-only status files and a write-only control file
//!   taking structured (and batchable) messages, plus `lwp/<tid>/`
//!   subdirectories for the threads of a multi-threaded process. No
//!   ioctl operations at all.
//!
//! Both are implementations of [`vfs::FileSystem`] over the simulated
//! kernel and are mounted with [`ksim::System::mount`]; [`mount_standard`]
//! installs the conventional pair (`/proc`, `/proc2`).

#![forbid(unsafe_code)]
#![warn(missing_docs)]
// The `/proc` layer decodes wire images and controller-supplied ioctl
// arguments — hostile input by construction. Fallible cases surface
// typed results (`Errno`, `WireError`, `Option`), never a panic;
// invariant violations use an explicit `panic!`/`unreachable!` naming
// the broken invariant. Test modules opt back in with a local `allow`.
#![deny(clippy::unwrap_used, clippy::expect_used)]

pub mod fsimpl;
pub mod hier;
pub mod ioctl;
pub mod ops;
pub mod replay;
pub mod snap;
pub mod types;

pub use fsimpl::ProcFs;
pub use hier::{ctl_batch, ctl_record, HierFs};
pub use ioctl::StatsReport;
pub use replay::{build_sim, goto_tick, replay, replay_file, replay_to, LoadError};
pub use snap::{snap_handle, SnapCache, SnapHandle};
pub use types::{
    PrCacheStats, PrCred, PrMap, PrRun, PrStatus, PrUsage, PrWatch, PrWhy, PrXStats, PsInfo,
    PRRUN_CFAULT, PRRUN_CSIG, PRRUN_SABORT, PRRUN_SSTOP, PRRUN_STEP, PRRUN_SVADDR, PRRUN_WBYPASS,
    PR_ASLEEP, PR_DSTOP, PR_FORK, PR_ISSYS, PR_ISTOP, PR_PTRACE, PR_RLC, PR_STOPPED,
};

/// Mounts the flat interface at `/proc` and the hierarchical proposal at
/// `/proc2`. Returns `(flat_fsid, hier_fsid)`.
pub fn mount_standard(sys: &mut ksim::System) -> (u32, u32) {
    let (flat, hier, _) = mount_standard_with_cache(sys);
    (flat, hier)
}

/// Like [`mount_standard`], but also hands back the snapshot cache the
/// two file systems share, so callers can inspect hit/miss counters
/// without going through the `PIOCCACHESTATS` ioctl.
pub fn mount_standard_with_cache(sys: &mut ksim::System) -> (u32, u32, SnapHandle) {
    let cache = snap_handle();
    let flat = sys.mount("/proc", Box::new(ProcFs::with_cache(cache.clone())));
    let hier = sys.mount("/proc2", Box::new(HierFs::with_cache(cache.clone())));
    (flat, hier, cache)
}

/// Boots a system with both `/proc` generations mounted — the usual
/// starting point for examples, tests and benchmarks.
pub fn boot_with_proc() -> ksim::System {
    boot_with_proc_cache().0
}

/// Like [`boot_with_proc`], but also returns the shared snapshot cache.
pub fn boot_with_proc_cache() -> (ksim::System, SnapHandle) {
    let mut sys = ksim::System::boot();
    let (_, _, cache) = mount_standard_with_cache(&mut sys);
    (sys, cache)
}
