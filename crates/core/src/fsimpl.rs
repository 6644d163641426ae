//! The flat SVR4 `/proc` file system type.
//!
//! "The name of each entry is a decimal number corresponding to the
//! process id. The owner and group of the file are the process's real
//! user-id and group-id, but permission to open the file is more
//! restrictive than traditional file system permissions. The reported
//! 'size' is the total virtual memory size of the process."
//!
//! Node encoding: node 0 is the `/proc` directory; node `pid+1` is the
//! process file for `pid`. The open token carries the exec generation at
//! open time; a set-id exec bumps the generation, after which "no further
//! operation on that file descriptor will succeed except close(2)".

use crate::ioctl::{needs_write, prioctl, Ioctl};
use crate::ops::{self, WRITABLE_BIT};
use crate::snap::{self, snap_handle, DirSlot, SnapHandle};
use ksim::Kernel;
use vfs::{
    Cred, DirEntry, Errno, FileSystem, IoReply, IoctlReply, Metadata, NodeId, OFlags, OpenToken,
    Pid, PollStatus, SysResult, VnodeKind,
};

/// The flat `/proc` file system. All tracing and bookkeeping state
/// lives in the kernel, where it belongs (tracing must survive any
/// particular descriptor); the file system itself holds only the
/// snapshot cache, which is pure memoisation of kernel state.
#[derive(Debug)]
pub struct ProcFs {
    cache: SnapHandle,
}

impl Default for ProcFs {
    fn default() -> ProcFs {
        ProcFs::new()
    }
}

impl ProcFs {
    /// Creates the file system with a private snapshot cache (mount it
    /// with `System::mount`).
    pub fn new() -> ProcFs {
        ProcFs { cache: snap_handle() }
    }

    /// Creates the file system around a shared snapshot cache —
    /// [`crate::mount_standard`] passes one handle to both generations
    /// so their byte-identical renders share entries.
    pub fn with_cache(cache: SnapHandle) -> ProcFs {
        ProcFs { cache }
    }

    fn node_pid(node: NodeId) -> SysResult<Pid> {
        if node.0 == 0 {
            return Err(Errno::EISDIR);
        }
        Ok(Pid((node.0 - 1) as u32))
    }
}

impl FileSystem<Kernel> for ProcFs {
    fn type_name(&self) -> &'static str {
        "proc"
    }

    fn root(&self) -> NodeId {
        NodeId(0)
    }

    fn lookup(&mut self, k: &mut Kernel, _cur: Pid, dir: NodeId, name: &str) -> SysResult<NodeId> {
        if dir.0 != 0 {
            return Err(Errno::ENOTDIR);
        }
        if name.is_empty() || name.len() > 10 || !name.bytes().all(|b| b.is_ascii_digit()) {
            return Err(Errno::ENOENT);
        }
        let pid: u32 = name.parse().map_err(|_| Errno::ENOENT)?;
        k.proc(Pid(pid))?;
        Ok(NodeId(pid as u64 + 1))
    }

    fn getattr(&mut self, k: &mut Kernel, node: NodeId) -> SysResult<Metadata> {
        if node.0 == 0 {
            return Ok(ops::root_attr(k));
        }
        let proc = k.proc(Self::node_pid(node)?)?;
        Ok(ops::proc_attr(proc, VnodeKind::Proc, 0o600, proc.aspace.total_size()))
    }

    fn readdir(&mut self, k: &mut Kernel, _cur: Pid, dir: NodeId) -> SysResult<Vec<DirEntry>> {
        if dir.0 != 0 {
            return Err(Errno::ENOTDIR);
        }
        // Five-digit zero-padded names, exactly as in the paper's
        // Figure 1. Digits are emitted by hand into a reused buffer —
        // `format!` per pid dominated the listing profile.
        let mut name = [0u8; 10];
        Ok(snap::lock(&self.cache).listing(DirSlot::Flat, k, |p| {
            let mut v = p.pid.0;
            let mut i = name.len();
            while v > 0 || i > name.len() - 5 {
                i -= 1;
                name[i] = b'0' + (v % 10) as u8;
                v /= 10;
            }
            DirEntry {
                name: String::from_utf8_lossy(&name[i..]).into_owned(),
                node: NodeId(p.pid.0 as u64 + 1),
            }
        }))
    }

    fn open(
        &mut self,
        k: &mut Kernel,
        _cur: Pid,
        node: NodeId,
        flags: OFlags,
        cred: &Cred,
    ) -> SysResult<OpenToken> {
        if node.0 == 0 {
            if flags.write {
                return Err(Errno::EISDIR);
            }
            return Ok(OpenToken(0));
        }
        ops::open(k, Self::node_pid(node)?, flags, cred, true)
    }

    fn close(&mut self, k: &mut Kernel, _cur: Pid, node: NodeId, _token: OpenToken, flags: OFlags) {
        if let Ok(pid) = Self::node_pid(node) {
            ops::close(k, pid, flags);
        }
    }

    fn read(
        &mut self,
        k: &mut Kernel,
        _cur: Pid,
        node: NodeId,
        token: OpenToken,
        off: u64,
        buf: &mut [u8],
    ) -> SysResult<IoReply> {
        let pid = Self::node_pid(node)?;
        ops::check_gen(k, pid, token)?;
        Ok(IoReply::Done(ops::read_as(k, pid, off, buf)?))
    }

    fn write(
        &mut self,
        k: &mut Kernel,
        _cur: Pid,
        node: NodeId,
        token: OpenToken,
        off: u64,
        data: &[u8],
    ) -> SysResult<IoReply> {
        let pid = Self::node_pid(node)?;
        ops::check_gen(k, pid, token)?;
        Ok(IoReply::Done(ops::write_as(k, pid, off, data)?))
    }

    fn ioctl(
        &mut self,
        k: &mut Kernel,
        cur: Pid,
        node: NodeId,
        token: OpenToken,
        req: u32,
        arg: &[u8],
    ) -> SysResult<IoctlReply> {
        let pid = Self::node_pid(node).map_err(|_| Errno::ENOTTY)?;
        ops::check_gen(k, pid, token)?;
        // Write-class requests need a descriptor opened for writing; the
        // System layer passes the open mode in the token's high bit.
        // Unknown requests count as write-class.
        if needs_write(req) && token.0 & WRITABLE_BIT == 0 {
            return Err(Errno::EBADF);
        }
        let ioc = Ioctl::from_req(req).ok_or(Errno::ENOTTY)?;
        let reply = prioctl(k, &self.cache, cur, pid, None, ioc, arg)?;
        if ioc.needs_write() {
            // The control operation may have changed process state the
            // kernel primitives did not stamp (trace sets, hold masks,
            // registers, flags); one bump here covers them all.
            if let Ok(p) = k.proc_mut(pid) {
                p.touch();
            }
        }
        Ok(reply)
    }

    fn poll(&mut self, k: &mut Kernel, node: NodeId, _token: OpenToken) -> SysResult<PollStatus> {
        Ok(ops::poll(k, Self::node_pid(node).ok(), None))
    }
}
