//! The proposed restructuring: a hierarchical `/proc`.
//!
//! "A new structure is under consideration that would change the /proc
//! file system from a flat structure to a hierarchical one containing a
//! number of sub-directories and additional status and control files.
//! The programming interface changes from one in which ioctl(2)
//! operations are applied to open file descriptors ... to one in which
//! process state is interrogated by read(2) operations applied to
//! appropriate read-only status files and process control is effected by
//! structured messages written to write-only control files."
//!
//! Layout (mounted at `/proc2` so both generations coexist):
//!
//! ```text
//! /proc2/<pid>/status    read-only  prstatus image
//! /proc2/<pid>/psinfo    read-only  psinfo image
//! /proc2/<pid>/ctl       write-only structured control messages
//! /proc2/<pid>/as        read-write the address space
//! /proc2/<pid>/map       read-only  prmap array
//! /proc2/<pid>/cred      read-only  prcred image
//! /proc2/<pid>/usage     read-only  prusage image
//! /proc2/<pid>/xstats    read-only  prxstats image (fast-path counters)
//! /proc2/<pid>/lwp/<tid>/{status,ctl,gregs}   per-thread files
//! ```
//!
//! Control messages are records `[u32 op][u32 len][len payload bytes]`;
//! "the use of a control file to which structured messages are written
//! makes it possible to combine several control operations in a single
//! write system call" — experiment E4 measures exactly that. A blocking
//! operation (`PCSTOP`, `PCWSTOP`) suspends the write; consumed records
//! are remembered per open descriptor so the retry resumes after them.

use crate::ioctl::Ioctl;
use crate::ops;
use crate::snap::{snap_handle, DirSlot, SnapHandle};
use crate::types::{PrCred, PrMap, PrUsage, PrXStats, PsInfo};
use ksim::proc::LwpState;
use ksim::{Kernel, Tid, HZ};
use std::collections::HashMap;
use std::sync::PoisonError;
use vfs::{
    Cred, DirEntry, Errno, FileSystem, IoReply, IoctlReply, Metadata, NodeId, OFlags, OpenToken,
    Pid, PollStatus, SysResult, VnodeKind,
};

/// Direct the process (or LWP) to stop and wait for it.
pub const PCSTOP: u32 = 1;
/// Direct a stop without waiting.
pub const PCDSTOP: u32 = 2;
/// Wait for an event-of-interest stop.
pub const PCWSTOP: u32 = 3;
/// Make runnable (payload: `prrun`).
pub const PCRUN: u32 = 4;
/// Set traced signals (payload: sigset).
pub const PCSTRACE: u32 = 5;
/// Set traced faults (payload: fltset).
pub const PCSFAULT: u32 = 6;
/// Set traced syscall entries (payload: sysset).
pub const PCSENTRY: u32 = 7;
/// Set traced syscall exits (payload: sysset).
pub const PCSEXIT: u32 = 8;
/// Post a signal (payload: u32).
pub const PCKILL: u32 = 9;
/// Delete a pending signal (payload: u32).
pub const PCUNKILL: u32 = 10;
/// Set/clear the current signal (payload: u32, 0 clears).
pub const PCSSIG: u32 = 11;
/// Set the held mask (payload: sigset).
pub const PCSHOLD: u32 = 12;
/// Install general registers (payload: gregset).
pub const PCSREG: u32 = 13;
/// Install floating registers (payload: fpregset).
pub const PCSFPREG: u32 = 14;
/// Set inherit-on-fork.
pub const PCSFORK: u32 = 15;
/// Clear inherit-on-fork.
pub const PCRFORK: u32 = 16;
/// Set run-on-last-close.
pub const PCSRLC: u32 = 17;
/// Clear run-on-last-close.
pub const PCRRLC: u32 = 18;
/// Add/remove a watched area (payload: prwatch).
pub const PCWATCH: u32 = 19;
/// Adjust priority (payload: i32).
pub const PCNICE: u32 = 20;

/// Node kinds within the hierarchy.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Kind {
    Root,
    PidDir,
    Status,
    PsInfo,
    Ctl,
    As,
    Map,
    CredFile,
    Usage,
    LwpDir,
    LwpSub,
    LwpStatus,
    LwpCtl,
    LwpGregs,
    XStats,
}

fn pack(pid: Pid, kind: u8, tid: u32) -> NodeId {
    NodeId(((pid.0 as u64) + 1) | ((kind as u64) << 32) | ((tid as u64) << 40))
}

fn unpack(node: NodeId) -> Option<(Pid, Kind, Tid)> {
    if node.0 == 0 {
        return Some((Pid(0), Kind::Root, Tid(0)));
    }
    let pid = Pid(((node.0 & 0xFFFF_FFFF) - 1) as u32);
    let tid = Tid((node.0 >> 40) as u32);
    let kind = match (node.0 >> 32) as u8 {
        1 => Kind::PidDir,
        2 => Kind::Status,
        3 => Kind::PsInfo,
        4 => Kind::Ctl,
        5 => Kind::As,
        6 => Kind::Map,
        7 => Kind::CredFile,
        8 => Kind::Usage,
        9 => Kind::LwpDir,
        10 => Kind::LwpSub,
        11 => Kind::LwpStatus,
        12 => Kind::LwpCtl,
        13 => Kind::LwpGregs,
        14 => Kind::XStats,
        _ => return None,
    };
    Some((pid, kind, tid))
}

fn kind_code(kind: Kind) -> u8 {
    match kind {
        Kind::Root => 0,
        Kind::PidDir => 1,
        Kind::Status => 2,
        Kind::PsInfo => 3,
        Kind::Ctl => 4,
        Kind::As => 5,
        Kind::Map => 6,
        Kind::CredFile => 7,
        Kind::Usage => 8,
        Kind::LwpDir => 9,
        Kind::LwpSub => 10,
        Kind::LwpStatus => 11,
        Kind::LwpCtl => 12,
        Kind::LwpGregs => 13,
        Kind::XStats => 14,
    }
}

/// Token bit marking a writable open (the rest is the exec generation).
const WRITABLE_BIT: u64 = 1 << 63;

/// The hierarchical `/proc`.
#[derive(Debug)]
pub struct HierFs {
    /// Mid-batch progress of blocked control writes, per `(node, token)`.
    ctl_progress: HashMap<(u64, u64), usize>,
    /// Rendered-image cache, shared with the flat interface when
    /// mounted via [`crate::mount_standard`].
    cache: SnapHandle,
}

impl Default for HierFs {
    fn default() -> HierFs {
        HierFs::new()
    }
}

impl HierFs {
    /// Creates the file system with a private snapshot cache (mount it
    /// with `System::mount`, e.g. at `/proc2`).
    pub fn new() -> HierFs {
        HierFs { ctl_progress: HashMap::new(), cache: snap_handle() }
    }

    /// Creates the file system around a shared snapshot cache.
    pub fn with_cache(cache: SnapHandle) -> HierFs {
        HierFs { ctl_progress: HashMap::new(), cache }
    }

    /// Serves the read-only file image for a node through the snapshot
    /// cache: a hit runs `f` over the cached bytes, a miss renders via
    /// [`Self::file_image`] and stores the result under the process's
    /// current generation stamps.
    fn cached_image<R>(
        &self,
        k: &Kernel,
        pid: Pid,
        kind: Kind,
        tid: Tid,
        f: impl FnOnce(&[u8]) -> R,
    ) -> SysResult<R> {
        let proc = k.proc(pid)?;
        let pr_gen = proc.pr_gen;
        // LWP-scoped images are additionally stamped with the LWP's own
        // generation so sibling and whole-process entries survive a
        // single thread's mutation.
        let lwp_gen = match kind {
            Kind::LwpStatus | Kind::LwpGregs => {
                proc.lwp(tid).ok_or(Errno::ESRCH)?.lwp_gen
            }
            _ => 0,
        };
        let mem_gen = k.objects.content_gen;
        let code = kind_code(kind);
        let mut cache = self.cache.lock().unwrap_or_else(PoisonError::into_inner);
        // `f` is FnOnce but threads two mutually exclusive paths (cache
        // hit vs rebuilt image); the Option proves each path runs it at
        // most once.
        let mut f = Some(f);
        if let Some(r) = cache.lookup(pid.0, code, tid.0, pr_gen, mem_gen, lwp_gen, |b| {
            match f.take() {
                Some(g) => g(b),
                None => unreachable!("cache lookup invoked the image closure twice"),
            }
        }) {
            return Ok(r);
        }
        let img = Self::file_image(k, pid, kind, tid)?;
        let r = match f.take() {
            Some(g) => g(&img),
            None => unreachable!("image closure consumed without a cache hit"),
        };
        cache.insert(pid.0, code, tid.0, pr_gen, mem_gen, lwp_gen, img);
        Ok(r)
    }

    /// Renders the read-only file image for a node.
    fn file_image(k: &Kernel, pid: Pid, kind: Kind, tid: Tid) -> SysResult<Vec<u8>> {
        match kind {
            Kind::Status => ops::status_bytes(k, pid, None),
            Kind::PsInfo => Ok(PsInfo::capture(k, pid)?.to_bytes()),
            Kind::Map => {
                let maps = PrMap::capture_all(k, pid)?;
                let mut out = Vec::with_capacity(maps.len() * PrMap::WIRE_LEN);
                for m in &maps {
                    out.extend_from_slice(&m.to_bytes());
                }
                Ok(out)
            }
            Kind::CredFile => Ok(PrCred::capture(k, pid)?.to_bytes()),
            Kind::Usage => Ok(PrUsage::capture(k, pid)?.to_bytes()),
            Kind::LwpStatus => ops::status_bytes(k, pid, Some(tid)),
            Kind::LwpGregs => {
                let proc = k.proc(pid)?;
                let lwp = proc.lwp(tid).ok_or(Errno::ENOENT)?;
                Ok(lwp.gregs.to_bytes())
            }
            _ => Err(Errno::EISDIR),
        }
    }

    /// Executes one control record. Returns false when the record must
    /// block (the caller re-issues the write; consumed records are
    /// remembered).
    fn exec_ctl(
        k: &mut Kernel,
        caller: Pid,
        pid: Pid,
        tid: Option<Tid>,
        op: u32,
        payload: &[u8],
    ) -> SysResult<bool> {
        let _ = caller;
        // PCDSTOP has no flat `PIOC*` twin — a stop directive that does
        // not wait exists only in this write-based interface — so it is
        // handled before the shared request mapping.
        if op == PCDSTOP {
            match tid {
                Some(t) => Self::direct_stop_lwp(k, pid, t)?,
                None => ops::direct_stop(k, pid)?,
            }
            return Ok(true);
        }
        // Every other control op is the write-based spelling of a flat
        // ioctl request; the typed `Ioctl` enum is the single source of
        // the mapping shared with the flat dispatcher and the wire codec.
        let ioc = Ioctl::from_ctl_op(op).ok_or(Errno::EINVAL)?;
        match ioc {
            Ioctl::Stop => {
                match tid {
                    Some(t) => Self::direct_stop_lwp(k, pid, t)?,
                    None => ops::direct_stop(k, pid)?,
                }
                Ok(Self::stopped(k, pid, tid)?)
            }
            Ioctl::WStop => Ok(Self::stopped(k, pid, tid)?),
            Ioctl::Run => {
                ops::run(k, pid, tid, payload)?;
                Ok(true)
            }
            Ioctl::SetSigTrace => {
                ops::set_sig_trace(k, pid, payload)?;
                Ok(true)
            }
            Ioctl::SetFltTrace => {
                ops::set_flt_trace(k, pid, payload)?;
                Ok(true)
            }
            Ioctl::SetEntryTrace => {
                ops::set_entry_trace(k, pid, payload)?;
                Ok(true)
            }
            Ioctl::SetExitTrace => {
                ops::set_exit_trace(k, pid, payload)?;
                Ok(true)
            }
            Ioctl::Kill => {
                ops::kill(k, pid, payload)?;
                Ok(true)
            }
            Ioctl::UnKill => {
                ops::unkill(k, pid, payload)?;
                Ok(true)
            }
            Ioctl::SetSig => {
                ops::set_sig(k, pid, tid, payload)?;
                Ok(true)
            }
            Ioctl::SetHold => {
                ops::set_hold(k, pid, tid, payload)?;
                Ok(true)
            }
            Ioctl::SetRegs => {
                let mut regs = isa::GregSet::from_bytes(payload).ok_or(Errno::EINVAL)?;
                regs.normalize();
                ops::live(k, pid)?;
                let proc = k.proc_mut(pid)?;
                let lwp = match tid {
                    Some(t) => proc.lwp_mut(t).ok_or(Errno::ESRCH)?,
                    None => proc.rep_lwp_mut(),
                };
                if !lwp.is_stopped() {
                    return Err(Errno::EBUSY);
                }
                lwp.gregs = regs;
                Ok(true)
            }
            Ioctl::SetFpRegs => {
                let regs = isa::FpregSet::from_bytes(payload).ok_or(Errno::EINVAL)?;
                ops::live(k, pid)?;
                let proc = k.proc_mut(pid)?;
                let lwp = match tid {
                    Some(t) => proc.lwp_mut(t).ok_or(Errno::ESRCH)?,
                    None => proc.rep_lwp_mut(),
                };
                if !lwp.is_stopped() {
                    return Err(Errno::EBUSY);
                }
                lwp.fpregs = regs;
                Ok(true)
            }
            Ioctl::SetForkInherit | Ioctl::ClearForkInherit => {
                ops::live(k, pid)?;
                k.proc_mut(pid)?.trace.inherit_on_fork = ioc == Ioctl::SetForkInherit;
                Ok(true)
            }
            Ioctl::SetRunOnLastClose | Ioctl::ClearRunOnLastClose => {
                ops::live(k, pid)?;
                k.proc_mut(pid)?.trace.run_on_last_close = ioc == Ioctl::SetRunOnLastClose;
                Ok(true)
            }
            Ioctl::SetWatch => {
                ops::watch(k, pid, payload)?;
                Ok(true)
            }
            Ioctl::Nice => {
                ops::nice(k, pid, payload)?;
                Ok(true)
            }
            _ => Err(Errno::EINVAL),
        }
    }

    fn direct_stop_lwp(k: &mut Kernel, pid: Pid, tid: Tid) -> SysResult<()> {
        ops::live(k, pid)?;
        let proc = k.procs.get_mut(&pid.0).ok_or(Errno::ESRCH)?;
        let lwp = proc.lwp_mut(tid).ok_or(Errno::ESRCH)?;
        match &lwp.state {
            LwpState::Zombie => return Err(Errno::ESRCH),
            LwpState::Stopped(why) if why.is_event_stop() => {}
            LwpState::Stopped(_) => lwp.stop_directive = true,
            LwpState::Sleeping { interruptible: true, .. } => {
                lwp.stop_directive = true;
                Kernel::make_runnable(&mut k.runq, pid, lwp);
                lwp.sleep_interrupted = true;
                lwp.user_return_pending = true;
            }
            _ => {
                lwp.stop_directive = true;
                lwp.user_return_pending = true;
            }
        }
        Ok(())
    }

    fn stopped(k: &Kernel, pid: Pid, tid: Option<Tid>) -> SysResult<bool> {
        let proc = k.proc(pid)?;
        if proc.zombie {
            return Err(Errno::ENOENT);
        }
        Ok(match tid {
            Some(t) => proc.lwp(t).ok_or(Errno::ESRCH)?.is_event_stopped(),
            None => proc.is_event_stopped(),
        })
    }

    /// Validates that `data` frames cleanly as a sequence of
    /// `[op u32][len u32][payload]` control records covering the buffer
    /// exactly. Rejects a truncated final header, a payload length that
    /// overruns the buffer, an absurdly oversized payload, and trailing
    /// bytes that cannot be a record — all with `EINVAL` and before any
    /// record executes.
    fn check_ctl_framing(data: &[u8]) -> SysResult<()> {
        // No legitimate control record carries more than a register-set
        // image; anything larger is garbage even if the length field
        // happens to fit the buffer.
        const MAX_CTL_PAYLOAD: usize = 4096;
        let mut pos = 0;
        while pos < data.len() {
            if pos + 8 > data.len() {
                return Err(Errno::EINVAL);
            }
            let len = ksim::bytes::le_u32(&data[pos + 4..])
                as usize;
            if len > MAX_CTL_PAYLOAD || pos + 8 + len > data.len() {
                return Err(Errno::EINVAL);
            }
            pos += 8 + len;
        }
        Ok(())
    }

    fn check_gen(k: &Kernel, pid: Pid, token: OpenToken) -> SysResult<()> {
        let proc = k.proc(pid)?;
        if proc.exec_gen as u64 != token.0 & !WRITABLE_BIT {
            return Err(Errno::EBADF);
        }
        Ok(())
    }
}

impl FileSystem<Kernel> for HierFs {
    fn type_name(&self) -> &'static str {
        "proc2"
    }

    fn root(&self) -> NodeId {
        NodeId(0)
    }

    fn lookup(&mut self, k: &mut Kernel, _cur: Pid, dir: NodeId, name: &str) -> SysResult<NodeId> {
        let (pid, kind, _tid) = unpack(dir).ok_or(Errno::ENOENT)?;
        match kind {
            Kind::Root => {
                let pid: u32 = name.parse().map_err(|_| Errno::ENOENT)?;
                k.proc(Pid(pid))?;
                Ok(pack(Pid(pid), kind_code(Kind::PidDir), 0))
            }
            Kind::PidDir => {
                k.proc(pid)?;
                let kind = match name {
                    "status" => Kind::Status,
                    "psinfo" => Kind::PsInfo,
                    "ctl" => Kind::Ctl,
                    "as" => Kind::As,
                    "map" => Kind::Map,
                    "cred" => Kind::CredFile,
                    "usage" => Kind::Usage,
                    "xstats" => Kind::XStats,
                    "lwp" => Kind::LwpDir,
                    _ => return Err(Errno::ENOENT),
                };
                Ok(pack(pid, kind_code(kind), 0))
            }
            Kind::LwpDir => {
                let tid: u32 = name.parse().map_err(|_| Errno::ENOENT)?;
                let proc = k.proc(pid)?;
                proc.lwp(Tid(tid)).ok_or(Errno::ENOENT)?;
                Ok(pack(pid, kind_code(Kind::LwpSub), tid))
            }
            Kind::LwpSub => {
                let (_, _, tid) = unpack(dir).ok_or(Errno::ENOENT)?;
                let kind = match name {
                    "status" => Kind::LwpStatus,
                    "ctl" => Kind::LwpCtl,
                    "gregs" => Kind::LwpGregs,
                    _ => return Err(Errno::ENOENT),
                };
                Ok(pack(pid, kind_code(kind), tid.0))
            }
            _ => Err(Errno::ENOTDIR),
        }
    }

    fn getattr(&mut self, k: &mut Kernel, node: NodeId) -> SysResult<Metadata> {
        let (pid, kind, tid) = unpack(node).ok_or(Errno::ENOENT)?;
        if kind == Kind::Root {
            return Ok(Metadata {
                kind: VnodeKind::Directory,
                mode: 0o555,
                uid: 0,
                gid: 0,
                size: k.procs.len() as u64,
                nlink: 2,
                mtime: k.clock / HZ,
            });
        }
        let proc = k.proc(pid)?;
        let (vkind, mode, size) = match kind {
            Kind::PidDir | Kind::LwpDir | Kind::LwpSub => (VnodeKind::Directory, 0o500, 0),
            Kind::Ctl | Kind::LwpCtl => (VnodeKind::Regular, 0o200, 0),
            Kind::As => (VnodeKind::Regular, 0o600, proc.aspace.total_size()),
            // Fixed-size counter image; changes every retired
            // instruction, so it bypasses the snapshot cache.
            Kind::XStats => (VnodeKind::Regular, 0o400, PrXStats::WIRE_LEN as u64),
            _ => {
                let img_len = self
                    .cached_image(k, pid, kind, tid, |b| b.len() as u64)
                    .unwrap_or(0);
                (VnodeKind::Regular, 0o400, img_len)
            }
        };
        Ok(Metadata {
            kind: vkind,
            mode,
            uid: proc.cred.ruid,
            gid: proc.cred.rgid,
            size,
            nlink: 1,
            mtime: proc.start_time / HZ,
        })
    }

    fn readdir(&mut self, k: &mut Kernel, _cur: Pid, dir: NodeId) -> SysResult<Vec<DirEntry>> {
        let (pid, kind, tid) = unpack(dir).ok_or(Errno::ENOENT)?;
        match kind {
            Kind::Root => {
                let mut cache = self.cache.lock().unwrap_or_else(PoisonError::into_inner);
                if let Some(list) = cache.dir(DirSlot::Hier, k.table_gen) {
                    return Ok(list);
                }
                let list: Vec<DirEntry> = k
                    .procs
                    .values()
                    .map(|p| DirEntry {
                        name: p.pid.0.to_string(),
                        node: pack(p.pid, kind_code(Kind::PidDir), 0),
                    })
                    .collect();
                cache.retain_pids(|pid| k.procs.contains_key(&pid));
                cache.set_dir(DirSlot::Hier, k.table_gen, list.clone());
                Ok(list)
            }
            Kind::PidDir => {
                k.proc(pid)?;
                Ok([
                    ("as", Kind::As),
                    ("cred", Kind::CredFile),
                    ("ctl", Kind::Ctl),
                    ("lwp", Kind::LwpDir),
                    ("map", Kind::Map),
                    ("psinfo", Kind::PsInfo),
                    ("status", Kind::Status),
                    ("usage", Kind::Usage),
                    ("xstats", Kind::XStats),
                ]
                .into_iter()
                .map(|(n, kd)| DirEntry { name: n.to_string(), node: pack(pid, kind_code(kd), 0) })
                .collect())
            }
            Kind::LwpDir => {
                let proc = k.proc(pid)?;
                Ok(proc
                    .lwps
                    .iter()
                    .filter(|l| l.state != LwpState::Zombie)
                    .map(|l| DirEntry {
                        name: l.tid.0.to_string(),
                        node: pack(pid, kind_code(Kind::LwpSub), l.tid.0),
                    })
                    .collect())
            }
            Kind::LwpSub => Ok(["status", "ctl", "gregs"]
                .into_iter()
                .map(|n| {
                    let kd = match n {
                        "status" => Kind::LwpStatus,
                        "ctl" => Kind::LwpCtl,
                        _ => Kind::LwpGregs,
                    };
                    DirEntry { name: n.to_string(), node: pack(pid, kind_code(kd), tid.0) }
                })
                .collect()),
            _ => Err(Errno::ENOTDIR),
        }
    }

    fn open(
        &mut self,
        k: &mut Kernel,
        _cur: Pid,
        node: NodeId,
        flags: OFlags,
        cred: &Cred,
    ) -> SysResult<OpenToken> {
        let (pid, kind, _) = unpack(node).ok_or(Errno::ENOENT)?;
        if kind == Kind::Root {
            return Ok(OpenToken(0));
        }
        let proc = k.proc_mut(pid)?;
        if !cred.can_control(&proc.cred) {
            return Err(Errno::EACCES);
        }
        match kind {
            Kind::Ctl | Kind::LwpCtl if !flags.write => return Err(Errno::EACCES),
            Kind::Ctl | Kind::LwpCtl | Kind::As => {}
            _ if flags.write => return Err(Errno::EACCES),
            _ => {}
        }
        if flags.write {
            if proc.trace.excl {
                return Err(Errno::EBUSY);
            }
            if flags.excl {
                if proc.trace.writers > 0 {
                    return Err(Errno::EBUSY);
                }
                proc.trace.excl = true;
            }
            proc.trace.writers += 1;
        }
        let mut token = proc.exec_gen as u64;
        if flags.write {
            token |= WRITABLE_BIT;
        }
        Ok(OpenToken(token))
    }

    fn close(&mut self, k: &mut Kernel, _cur: Pid, node: NodeId, token: OpenToken, flags: OFlags) {
        self.ctl_progress.remove(&(node.0, token.0));
        // A blocked batch whose target exited leaves a progress entry
        // under a different (node, token) key than the one closing now;
        // such entries can never be resumed (pids are not reused), so
        // sweep them whenever any descriptor closes.
        self.ctl_progress
            .retain(|(n, _), _| unpack(NodeId(*n)).is_some_and(|(p, _, _)| k.procs.contains_key(&p.0)));
        let Some((pid, kind, _)) = unpack(node) else { return };
        if kind == Kind::Root || !flags.write {
            return;
        }
        let Ok(proc) = k.proc_mut(pid) else { return };
        proc.trace.writers = proc.trace.writers.saturating_sub(1);
        if flags.excl {
            proc.trace.excl = false;
        }
        if proc.trace.writers == 0 && proc.trace.run_on_last_close {
            proc.trace.clear_tracing();
            let tids: Vec<_> = proc
                .lwps
                .iter()
                .filter(|l| l.is_event_stopped())
                .map(|l| l.tid)
                .collect();
            for l in &mut proc.lwps {
                l.stop_directive = false;
            }
            for t in tids {
                let _ = k.run_lwp(pid, t, ksim::RunOpts::default());
            }
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
        let (pid, kind, tid) = unpack(node).ok_or(Errno::ENOENT)?;
        Self::check_gen(k, pid, token)?;
        match kind {
            Kind::As => {
                let proc = k.proc(pid)?;
                if proc.zombie {
                    return Err(Errno::EIO);
                }
                let span = proc.aspace.valid_span(off, buf.len() as u64) as usize;
                if span == 0 {
                    return Err(Errno::EIO);
                }
                proc.aspace
                    .kernel_read(&k.objects, off, &mut buf[..span])
                    .map_err(|_| Errno::EIO)?;
                Ok(IoReply::Done(span))
            }
            Kind::Ctl | Kind::LwpCtl => Err(Errno::EACCES),
            Kind::Root | Kind::PidDir | Kind::LwpDir | Kind::LwpSub => Err(Errno::EISDIR),
            // Rendered fresh on every read: the fast-path counters
            // advance with every retired instruction, and nothing
            // stamps `pr_gen` for them, so the snapshot cache would
            // serve stale numbers.
            Kind::XStats => {
                let img = PrXStats::capture(k, pid)?.to_bytes();
                let off = off as usize;
                if off >= img.len() {
                    return Ok(IoReply::Done(0));
                }
                let n = buf.len().min(img.len() - off);
                buf[..n].copy_from_slice(&img[off..off + n]);
                Ok(IoReply::Done(n))
            }
            _ => self.cached_image(k, pid, kind, tid, |img| {
                let off = off as usize;
                if off >= img.len() {
                    return IoReply::Done(0);
                }
                let n = buf.len().min(img.len() - off);
                buf[..n].copy_from_slice(&img[off..off + n]);
                IoReply::Done(n)
            }),
        }
    }

    fn write(
        &mut self,
        k: &mut Kernel,
        cur: Pid,
        node: NodeId,
        token: OpenToken,
        off: u64,
        data: &[u8],
    ) -> SysResult<IoReply> {
        let (pid, kind, tid) = unpack(node).ok_or(Errno::ENOENT)?;
        Self::check_gen(k, pid, token)?;
        if token.0 & WRITABLE_BIT == 0 {
            return Err(Errno::EBADF);
        }
        match kind {
            Kind::As => {
                let ksim::Kernel { procs, objects, .. } = k;
                let proc = procs.get_mut(&pid.0).ok_or(Errno::ESRCH)?;
                if proc.zombie {
                    return Err(Errno::EIO);
                }
                let span = proc.aspace.valid_span(off, data.len() as u64) as usize;
                if span == 0 {
                    return Err(Errno::EIO);
                }
                proc.aspace
                    .kernel_write(objects, off, &data[..span])
                    .map_err(|d| match d {
                        // Same ENOMEM discipline as the flat face: a
                        // denied copy-on-write frame is typed, not EIO.
                        vm::AccessDenied::NoMemory { .. } => Errno::ENOMEM,
                        _ => Errno::EIO,
                    })?;
                // Private-overlay writes bypass the shared page cache's
                // generation; stamp the owner explicitly.
                proc.touch();
                Ok(IoReply::Done(span))
            }
            Kind::Ctl | Kind::LwpCtl => {
                let ctl_tid = (kind == Kind::LwpCtl).then_some(tid);
                let key = (node.0, token.0);
                let mut pos = self.ctl_progress.remove(&key).unwrap_or(0);
                // Validate the framing of the *entire* batch before
                // executing anything: a truncated header, a length that
                // overruns the buffer, or trailing garbage that does not
                // frame as a record rejects the whole write with no side
                // effects. (Semantic failures inside a well-framed batch
                // still stop at the offending record, SVR4-style.)
                Self::check_ctl_framing(&data[pos.min(data.len())..])?;
                while pos < data.len() {
                    let op =
                        ksim::bytes::le_u32(&data[pos..]);
                    let len =
                        ksim::bytes::le_u32(&data[pos + 4..])
                            as usize;
                    let payload = &data[pos + 8..pos + 8 + len];
                    match Self::exec_ctl(k, cur, pid, ctl_tid, op, payload) {
                        Ok(true) => {
                            pos += 8 + len;
                            // The record may have changed state the
                            // kernel primitives did not stamp (trace
                            // sets, registers, flags). An LWP-scoped
                            // record stamps only its own LWP, so sibling
                            // and whole-process snapshots stay cached.
                            if let Ok(p) = k.proc_mut(pid) {
                                match ctl_tid {
                                    Some(t) => p.touch_lwp(t),
                                    None => p.touch(),
                                }
                            }
                        }
                        Ok(false) => {
                            // Blocking op not yet satisfied: remember the
                            // records already consumed and suspend.
                            self.ctl_progress.insert(key, pos);
                            return Ok(IoReply::Block);
                        }
                        Err(e) => return Err(e),
                    }
                }
                Ok(IoReply::Done(data.len()))
            }
            _ => Err(Errno::EACCES),
        }
    }

    fn ioctl(
        &mut self,
        _k: &mut Kernel,
        _cur: Pid,
        _node: NodeId,
        _token: OpenToken,
        _req: u32,
        _arg: &[u8],
    ) -> SysResult<IoctlReply> {
        // The whole point of the restructuring: no ioctl operations.
        Err(Errno::ENOTTY)
    }

    fn poll(&mut self, k: &mut Kernel, node: NodeId, _token: OpenToken) -> SysResult<PollStatus> {
        let Some((pid, kind, tid)) = unpack(node) else {
            return Err(Errno::ENOENT);
        };
        if kind == Kind::Root {
            return Ok(PollStatus { readable: true, writable: false, hangup: false });
        }
        match k.proc(pid) {
            Err(_) => Ok(PollStatus { readable: false, writable: false, hangup: true }),
            Ok(p) if p.zombie => Ok(PollStatus { readable: false, writable: false, hangup: true }),
            Ok(p) => {
                let stopped = match kind {
                    Kind::LwpStatus | Kind::LwpCtl | Kind::LwpGregs => {
                        p.lwp(tid).map(|l| l.is_event_stopped()).unwrap_or(false)
                    }
                    _ => p.is_event_stopped(),
                };
                Ok(PollStatus { readable: stopped, writable: true, hangup: false })
            }
        }
    }
}

/// Builds one control record.
pub fn ctl_record(op: u32, payload: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(8 + payload.len());
    out.extend_from_slice(&op.to_le_bytes());
    out.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    out.extend_from_slice(payload);
    out
}

/// Concatenates several control records into one batched write — the
/// restructuring's performance trick.
pub fn ctl_batch(records: &[(u32, Vec<u8>)]) -> Vec<u8> {
    let mut out = Vec::new();
    for (op, payload) in records {
        out.extend_from_slice(&ctl_record(*op, payload));
    }
    out
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;

    #[test]
    fn node_packing_roundtrip() {
        for (pid, kind, tid) in [
            (Pid(0), Kind::PidDir, 0u32),
            (Pid(42), Kind::Status, 0),
            (Pid(9999), Kind::LwpStatus, 7),
            (Pid(1), Kind::Ctl, 0),
        ] {
            let node = pack(pid, kind_code(kind), tid);
            let (p, k2, t) = unpack(node).expect("unpack");
            assert_eq!((p, k2, t.0), (pid, kind, tid));
        }
        assert_eq!(unpack(NodeId(0)).expect("root").1, Kind::Root);
    }

    #[test]
    fn ctl_record_layout() {
        let r = ctl_record(PCKILL, &9u32.to_le_bytes());
        assert_eq!(r.len(), 12);
        assert_eq!(u32::from_le_bytes(r[0..4].try_into().expect("4")), PCKILL);
        assert_eq!(u32::from_le_bytes(r[4..8].try_into().expect("4")), 4);
        let batch = ctl_batch(&[(PCDSTOP, vec![]), (PCKILL, 9u32.to_le_bytes().to_vec())]);
        assert_eq!(batch.len(), 8 + 12);
    }
}
