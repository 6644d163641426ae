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

use crate::ioctl::{prioctl, Ioctl};
use crate::ops::{self, WRITABLE_BIT};
use crate::snap::{self, snap_handle, DirSlot, Image, SnapHandle};
use crate::types::PrXStats;
use ksim::proc::LwpState;
use ksim::{Kernel, Tid};
use std::collections::HashMap;
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

/// What a node is. The directories are `Root`, `PidDir` (`<pid>`),
/// `LwpDir` (`lwp`) and `LwpSub` (`lwp/<tid>`).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Kind {
    Root,
    PidDir,
    LwpDir,
    LwpSub,
    Ctl,
    As,
    XStats,
    Image(Image),
}

/// One name in the namespace: the directory it appears in, its name
/// there (empty for the numbered `<pid>` and `<tid>` directories), what
/// it is and its mode.
#[derive(Debug, PartialEq, Eq)]
struct Row {
    dir: Kind,
    name: &'static str,
    kind: Kind,
    mode: u16,
}

const fn row(dir: Kind, name: &'static str, kind: Kind, mode: u16) -> Row {
    Row { dir, name, kind, mode }
}

/// The root directory.
const ROOT: Row = row(Kind::Root, "", Kind::Root, 0o555);

/// The namespace below the root as one table, in `readdir` order within
/// each directory ("folding a tree into a map"). A node's code in its
/// packed id is its row's index; `lookup`, `readdir`, `getattr` and
/// `open` all read this table.
const ROWS: [Row; 14] = [
    row(Kind::Root, "", Kind::PidDir, 0o500),
    row(Kind::PidDir, "as", Kind::As, 0o600),
    row(Kind::PidDir, "cred", Kind::Image(Image::Cred), 0o400),
    row(Kind::PidDir, "ctl", Kind::Ctl, 0o200),
    row(Kind::PidDir, "lwp", Kind::LwpDir, 0o500),
    row(Kind::PidDir, "map", Kind::Image(Image::Map), 0o400),
    row(Kind::PidDir, "psinfo", Kind::Image(Image::PsInfo), 0o400),
    row(Kind::PidDir, "status", Kind::Image(Image::Status), 0o400),
    row(Kind::PidDir, "usage", Kind::Image(Image::Usage), 0o400),
    // Fixed-size counter image; changes every retired instruction, so
    // it bypasses the snapshot cache.
    row(Kind::PidDir, "xstats", Kind::XStats, 0o400),
    row(Kind::LwpDir, "", Kind::LwpSub, 0o500),
    row(Kind::LwpSub, "status", Kind::Image(Image::LwpStatus), 0o400),
    row(Kind::LwpSub, "ctl", Kind::Ctl, 0o200),
    row(Kind::LwpSub, "gregs", Kind::Image(Image::LwpGregs), 0o400),
];

/// Row index of the `<pid>` directory.
const PID_DIR: usize = 0;
/// Row index of the `lwp/<tid>` directory.
const LWP_SUB: usize = 10;

impl Kind {
    fn is_dir(self) -> bool {
        matches!(self, Kind::Root | Kind::PidDir | Kind::LwpDir | Kind::LwpSub)
    }
}

impl Row {
    /// True for the files inside `lwp/<tid>/`, which address one LWP.
    fn lwp_scoped(&self) -> bool {
        self.dir == Kind::LwpSub
    }
}

fn pack(pid: Pid, code: usize, tid: u32) -> NodeId {
    NodeId(((pid.0 as u64) + 1) | ((code as u64) << 32) | ((tid as u64) << 40))
}

fn unpack(node: NodeId) -> Option<(Pid, &'static Row, Tid)> {
    if node.0 == 0 {
        return Some((Pid(0), &ROOT, Tid(0)));
    }
    let pid = Pid(((node.0 & 0xFFFF_FFFF) - 1) as u32);
    let tid = Tid((node.0 >> 40) as u32);
    let row = ROWS.get(((node.0 >> 32) & 0xFF) as usize)?;
    Some((pid, row, tid))
}

/// The rows of directory `dir`, each with its index.
fn rows_in(dir: Kind) -> impl Iterator<Item = (usize, &'static Row)> {
    ROWS.iter().enumerate().filter(move |(_, r)| r.dir == dir)
}

/// Copies the bytes of `img` at `off` into `buf`.
fn copy_at(img: &[u8], off: u64, buf: &mut [u8]) -> IoReply {
    let off = off as usize;
    if off >= img.len() {
        return IoReply::Done(0);
    }
    let n = buf.len().min(img.len() - off);
    buf[..n].copy_from_slice(&img[off..off + n]);
    IoReply::Done(n)
}

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

    /// Executes one control record. Returns false when the record must
    /// block (the caller re-issues the write; consumed records are
    /// remembered).
    fn exec_ctl(
        &self,
        k: &mut Kernel,
        caller: Pid,
        pid: Pid,
        tid: Option<Tid>,
        op: u32,
        payload: &[u8],
    ) -> SysResult<bool> {
        // PCDSTOP has no flat `PIOC*` twin — a stop directive that does
        // not wait exists only in this write-based interface.
        if op == PCDSTOP {
            ops::direct_stop(k, pid, tid)?;
            return Ok(true);
        }
        // Every other control op is the write-based spelling of a flat
        // request, answered by the one dispatcher — except that a
        // satisfied PCSTOP/PCWSTOP record has no reply to carry, so it
        // skips the `prstatus` image the flat request renders.
        let ioc = Ioctl::from_ctl_op(op).ok_or(Errno::EINVAL)?;
        if matches!(ioc, Ioctl::Stop | Ioctl::WStop) {
            return ops::stop_satisfied(k, pid, tid, ioc == Ioctl::Stop);
        }
        let reply = prioctl(k, &self.cache, caller, pid, tid, ioc, payload)?;
        Ok(matches!(reply, IoctlReply::Done(_)))
    }
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
        let len = ksim::bytes::le_u32(&data[pos + 4..]) as usize;
        if len > MAX_CTL_PAYLOAD || pos + 8 + len > data.len() {
            return Err(Errno::EINVAL);
        }
        pos += 8 + len;
    }
    Ok(())
}

impl FileSystem<Kernel> for HierFs {
    fn type_name(&self) -> &'static str {
        "proc2"
    }

    fn root(&self) -> NodeId {
        NodeId(0)
    }

    fn lookup(&mut self, k: &mut Kernel, _cur: Pid, dir: NodeId, name: &str) -> SysResult<NodeId> {
        let (pid, dir, tid) = unpack(dir).ok_or(Errno::ENOENT)?;
        match dir.kind {
            Kind::Root => {
                let pid: u32 = name.parse().map_err(|_| Errno::ENOENT)?;
                k.proc(Pid(pid))?;
                Ok(pack(Pid(pid), PID_DIR, 0))
            }
            Kind::LwpDir => {
                let tid: u32 = name.parse().map_err(|_| Errno::ENOENT)?;
                k.proc(pid)?.lwp(Tid(tid)).ok_or(Errno::ENOENT)?;
                Ok(pack(pid, LWP_SUB, tid))
            }
            Kind::PidDir | Kind::LwpSub => {
                k.proc(pid)?;
                let (code, _) =
                    rows_in(dir.kind).find(|(_, r)| r.name == name).ok_or(Errno::ENOENT)?;
                Ok(pack(pid, code, tid.0))
            }
            _ => Err(Errno::ENOTDIR),
        }
    }

    fn getattr(&mut self, k: &mut Kernel, node: NodeId) -> SysResult<Metadata> {
        let (pid, row, tid) = unpack(node).ok_or(Errno::ENOENT)?;
        if row.kind == Kind::Root {
            return Ok(ops::root_attr(k));
        }
        let proc = k.proc(pid)?;
        let size = match row.kind {
            Kind::As => proc.aspace.total_size(),
            Kind::XStats => PrXStats::WIRE_LEN as u64,
            Kind::Image(img) => {
                snap::lock(&self.cache).serve(k, pid, img, tid, |b| b.len() as u64).unwrap_or(0)
            }
            _ => 0,
        };
        let vkind = if row.kind.is_dir() { VnodeKind::Directory } else { VnodeKind::Regular };
        Ok(ops::proc_attr(proc, vkind, row.mode, size))
    }

    fn readdir(&mut self, k: &mut Kernel, _cur: Pid, dir: NodeId) -> SysResult<Vec<DirEntry>> {
        let (pid, dir, tid) = unpack(dir).ok_or(Errno::ENOENT)?;
        match dir.kind {
            Kind::Root => Ok(snap::lock(&self.cache).listing(DirSlot::Hier, k, |p| DirEntry {
                name: p.pid.0.to_string(),
                node: pack(p.pid, PID_DIR, 0),
            })),
            Kind::LwpDir => Ok(k
                .proc(pid)?
                .lwps
                .iter()
                .filter(|l| l.state != LwpState::Zombie)
                .map(|l| DirEntry { name: l.tid.0.to_string(), node: pack(pid, LWP_SUB, l.tid.0) })
                .collect()),
            Kind::PidDir | Kind::LwpSub => {
                k.proc(pid)?;
                Ok(rows_in(dir.kind)
                    .map(|(code, r)| DirEntry {
                        name: r.name.to_string(),
                        node: pack(pid, code, tid.0),
                    })
                    .collect())
            }
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
        let (pid, row, _) = unpack(node).ok_or(Errno::ENOENT)?;
        if row.kind.is_dir() && flags.write {
            return Err(Errno::EISDIR);
        }
        if row.kind == Kind::Root {
            return Ok(OpenToken(0));
        }
        // The mode says which opens a node admits: `ctl` is write-only,
        // `as` read-write, everything else read-only. Every requested
        // access must be admitted, so `O_RDWR` on `ctl` fails.
        let mode_ok =
            (!flags.read || row.mode & 0o400 != 0) && (!flags.write || row.mode & 0o200 != 0);
        ops::open(k, pid, flags, cred, mode_ok)
    }

    fn close(&mut self, k: &mut Kernel, _cur: Pid, node: NodeId, token: OpenToken, flags: OFlags) {
        self.ctl_progress.remove(&(node.0, token.0));
        // A blocked batch whose target exited leaves a progress entry
        // under a different (node, token) key than the one closing now;
        // such entries can never be resumed (pids are not reused), so
        // sweep them whenever any descriptor closes.
        self.ctl_progress.retain(|(n, _), _| {
            unpack(NodeId(*n)).is_some_and(|(p, _, _)| k.procs.contains_key(&p.0))
        });
        if let Some((pid, row, _)) = unpack(node) {
            if row.kind != Kind::Root {
                ops::close(k, pid, flags);
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
        let (pid, row, tid) = unpack(node).ok_or(Errno::ENOENT)?;
        ops::check_gen(k, pid, token)?;
        match row.kind {
            Kind::As => Ok(IoReply::Done(ops::read_as(k, pid, off, buf)?)),
            Kind::Ctl => Err(Errno::EACCES),
            Kind::Root | Kind::PidDir | Kind::LwpDir | Kind::LwpSub => Err(Errno::EISDIR),
            // Rendered fresh on every read: the fast-path counters
            // advance with every retired instruction, and nothing
            // stamps `pr_gen` for them, so the snapshot cache would
            // serve stale numbers.
            Kind::XStats => Ok(copy_at(&PrXStats::capture(k, pid)?.to_bytes(), off, buf)),
            Kind::Image(img) => {
                snap::lock(&self.cache).serve(k, pid, img, tid, |b| copy_at(b, off, buf))
            }
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
        let (pid, row, tid) = unpack(node).ok_or(Errno::ENOENT)?;
        ops::check_gen(k, pid, token)?;
        if token.0 & WRITABLE_BIT == 0 {
            return Err(Errno::EBADF);
        }
        match row.kind {
            Kind::As => Ok(IoReply::Done(ops::write_as(k, pid, off, data)?)),
            Kind::Ctl => {
                let ctl_tid = row.lwp_scoped().then_some(tid);
                let key = (node.0, token.0);
                let mut pos = self.ctl_progress.remove(&key).unwrap_or(0);
                // Validate the framing of the *entire* batch before
                // executing anything: a truncated header, a length that
                // overruns the buffer, or trailing garbage that does not
                // frame as a record rejects the whole write with no side
                // effects. (Semantic failures inside a well-framed batch
                // still stop at the offending record, SVR4-style.)
                check_ctl_framing(&data[pos.min(data.len())..])?;
                while pos < data.len() {
                    let op = ksim::bytes::le_u32(&data[pos..]);
                    let len = ksim::bytes::le_u32(&data[pos + 4..]) as usize;
                    let payload = &data[pos + 8..pos + 8 + len];
                    if !self.exec_ctl(k, cur, pid, ctl_tid, op, payload)? {
                        // Blocking op not yet satisfied: remember the
                        // records already consumed and suspend.
                        self.ctl_progress.insert(key, pos);
                        return Ok(IoReply::Block);
                    }
                    pos += 8 + len;
                    // The record may have changed state the kernel
                    // primitives did not stamp (trace sets, registers,
                    // flags). An LWP-scoped record stamps only its own
                    // LWP, so sibling and whole-process snapshots stay
                    // cached.
                    if let Ok(p) = k.proc_mut(pid) {
                        match ctl_tid {
                            Some(t) => p.touch_lwp(t),
                            None => p.touch(),
                        }
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
        let (pid, row, tid) = unpack(node).ok_or(Errno::ENOENT)?;
        let pid = (row.kind != Kind::Root).then_some(pid);
        Ok(ops::poll(k, pid, row.lwp_scoped().then_some(tid)))
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
        let code = |dir, name| rows_in(dir).find(|(_, r)| r.name == name).expect("row").0;
        for (pid, code, kind, tid) in [
            (Pid(0), PID_DIR, Kind::PidDir, 0u32),
            (Pid(42), code(Kind::PidDir, "status"), Kind::Image(Image::Status), 0),
            (Pid(9999), code(Kind::LwpSub, "status"), Kind::Image(Image::LwpStatus), 7),
            (Pid(1), code(Kind::PidDir, "ctl"), Kind::Ctl, 0),
        ] {
            let (p, row, t) = unpack(pack(pid, code, tid)).expect("unpack");
            assert_eq!((p, row.kind, t.0), (pid, kind, tid));
        }
        assert_eq!(unpack(NodeId(0)).expect("root").1.kind, Kind::Root);
        assert_eq!(ROWS[LWP_SUB].kind, Kind::LwpSub);
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
