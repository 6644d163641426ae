//! The Virtual File System layer.
//!
//! "The implementation of /proc as a set of 'files' is facilitated by the
//! Virtual File System (VFS) architecture of SVR4 ... VFS permits the
//! coexistence on a single system of several disparate file system types
//! (fstypes) by providing a clean separation of file system code into
//! generic (file system-independent) and specific (file system-dependent)
//! pieces with a well-defined but narrow interface between the pieces."
//!
//! This crate is the *generic* piece:
//!
//! * [`Errno`] and shared credential/identity types used across the
//!   system;
//! * [`counters!`] — the one declaration behind every counter family
//!   and its wire image;
//! * the [`FileSystem`] trait — the vnode-operations interface a file
//!   system type implements (`lookup`, `readdir`, `read`, `write`,
//!   `ioctl`, `getattr`, ...). It is generic over a kernel-context type
//!   `K` so that unconventional file systems (such as `/proc`, which is
//!   intimately connected with process control) can reach kernel state
//!   without a dependency cycle;
//! * [`MountTable`] — path-prefix resolution onto mounted file systems;
//! * [`MemFs`] — a conventional in-memory file system holding executables
//!   and data files (standing in for the paper's disk file systems);
//! * [`remote`] — an RFS-like marshalling shim that serialises VFS
//!   operations onto a simulated wire, used to reproduce the paper's
//!   argument that `read`/`write`-style interfaces generalise to networks
//!   more cleanly than `ioctl`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
// The VFS layer sits under every caller in the workspace, including the
// wire server's fault-injection paths: a stray `unwrap` here turns an
// injected fault into a panic instead of a typed errno. Tests opt back
// in per-module.
#![deny(clippy::unwrap_used, clippy::expect_used)]

pub mod counters;
pub mod cred;
pub mod errno;
pub mod fs;
pub mod memfs;
pub mod mount;
pub mod node;
pub mod path;
pub mod remote;

pub use cred::Cred;
pub use errno::{Errno, SysResult};
pub use fs::{FileSystem, IoReply, IoctlReply, OFlags, OpenToken, PollStatus};
pub use memfs::MemFs;
pub use mount::MountTable;
pub use node::{DirEntry, Metadata, NodeId, Pid, VnodeKind};
