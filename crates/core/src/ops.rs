//! The process-file core shared by the flat (ioctl) and hierarchical
//! (write-to-ctl-file) interfaces. Both are thin encodings over these
//! functions — which is the restructuring argument in miniature: the
//! *operations* are interface-independent. Besides the control
//! operations this holds the descriptor rules (open, close, the
//! exec-generation check), address-space I/O, poll and the root
//! directory's attributes; [`crate::ioctl::prioctl`] is the one control
//! dispatcher and [`crate::snap::Image`] the one cached-image vocabulary.

use crate::types::{PrRun, PrStatus, PrWatch};
use ksim::fault::FltSet;
use ksim::fd::FileKind;
use ksim::proc::{Lwp, LwpState, Proc};
use ksim::signal::SigSet;
use ksim::sysno::SysSet;
use ksim::{Kernel, Tid, HZ};
use vfs::{Cred, Errno, Metadata, OFlags, OpenToken, Pid, PollStatus, SysResult, VnodeKind};
use vm::{ObjectKind, WatchArea, WatchFlags};

/// Token bit recording that the descriptor was opened writable (the
/// rest of the token is the exec generation at open time).
pub const WRITABLE_BIT: u64 = 1 << 63;

/// Attributes of a `/proc` root directory: one entry per process.
#[inline]
pub fn root_attr(k: &Kernel) -> Metadata {
    Metadata {
        kind: VnodeKind::Directory,
        mode: 0o555,
        uid: 0,
        gid: 0,
        size: k.procs.len() as u64,
        nlink: 2,
        mtime: k.clock / HZ,
    }
}

/// Attributes of a node of process `proc`: "the owner and group of the
/// file are the process's real user-id and group-id".
#[inline]
pub fn proc_attr(proc: &Proc, kind: VnodeKind, mode: u16, size: u64) -> Metadata {
    Metadata {
        kind,
        mode,
        uid: proc.cred.ruid,
        gid: proc.cred.rgid,
        size,
        nlink: 1,
        mtime: proc.start_time / HZ,
    }
}

/// Opens a file of process `pid` and returns its token. `mode_ok` is
/// false when the node refuses this open mode (a write open of a status
/// file, a read-only open of a control file).
#[inline]
pub fn open(
    k: &mut Kernel,
    pid: Pid,
    flags: OFlags,
    cred: &Cred,
    mode_ok: bool,
) -> SysResult<OpenToken> {
    let proc = k.proc_mut(pid)?;
    // "Permission to open a /proc file requires that both the uid and
    // gid of the traced process match those of the controlling
    // process; setuid and setgid processes can be opened only by the
    // super-user."
    if !cred.can_control(&proc.cred) || !mode_ok {
        return Err(Errno::EACCES);
    }
    if flags.write {
        // Exclusive-use arbitration: "a /proc file can be opened for
        // exclusive read/write use ... in this way a controlling
        // process can avoid collisions with other controlling
        // processes. Read-only opens are unaffected."
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

/// Closes a file of process `pid`: releases a writer and, on the last
/// writable close with run-on-last-close set, clears tracing and sets
/// the process running.
#[inline]
pub fn close(k: &mut Kernel, pid: Pid, flags: OFlags) {
    let Ok(proc) = k.proc_mut(pid) else { return };
    if !flags.write {
        return;
    }
    proc.trace.writers = proc.trace.writers.saturating_sub(1);
    if flags.excl {
        proc.trace.excl = false;
    }
    if proc.trace.writers == 0 && proc.trace.run_on_last_close {
        // "When this flag is set and the last writable /proc file
        // descriptor for the process is closed, all of the tracing
        // flags are cleared and, if the process is stopped, it is set
        // running."
        proc.trace.clear_tracing();
        let tids: Vec<_> =
            proc.lwps.iter().filter(|l| l.is_event_stopped()).map(|l| l.tid).collect();
        for l in &mut proc.lwps {
            l.stop_directive = false;
        }
        for tid in tids {
            let _ = k.run_lwp(pid, tid, ksim::RunOpts::default());
        }
    }
}

/// Fails with `EBADF` when the descriptor predates a set-id exec: "no
/// further operation on that file descriptor will succeed except
/// close(2)".
#[inline]
pub fn check_gen(k: &Kernel, pid: Pid, token: OpenToken) -> SysResult<()> {
    if k.proc(pid)?.exec_gen as u64 != token.0 & !WRITABLE_BIT {
        return Err(Errno::EBADF);
    }
    Ok(())
}

/// Reads the address space at `off`. "A process file contains data only
/// at file offsets that match valid virtual addresses ... operations
/// with a file offset in an unmapped area fail. I/O operations that
/// extend into unmapped areas do not fail but are truncated at the
/// boundary."
#[inline]
pub fn read_as(k: &Kernel, pid: Pid, off: u64, buf: &mut [u8]) -> SysResult<usize> {
    let proc = k.proc(pid)?;
    if proc.zombie {
        return Err(Errno::EIO);
    }
    let span = proc.aspace.valid_span(off, buf.len() as u64) as usize;
    if span == 0 {
        return Err(Errno::EIO);
    }
    proc.aspace.kernel_read(&k.objects, off, &mut buf[..span]).map_err(|_| Errno::EIO)?;
    Ok(span)
}

/// Writes the address space at `off`, truncated like [`read_as`].
/// Copy-on-write is performed by the VM layer, so breakpoints planted
/// through here never corrupt other processes or the executable file.
#[inline]
pub fn write_as(k: &mut Kernel, pid: Pid, off: u64, data: &[u8]) -> SysResult<usize> {
    let Kernel { procs, objects, .. } = k;
    let proc = procs.get_mut(&pid.0).ok_or(Errno::ESRCH)?;
    if proc.zombie {
        return Err(Errno::EIO);
    }
    let span = proc.aspace.valid_span(off, data.len() as u64) as usize;
    if span == 0 {
        return Err(Errno::EIO);
    }
    proc.aspace.kernel_write(objects, off, &data[..span]).map_err(|d| match d {
        // Copy-on-write frame materialisation failed under injected
        // pressure: a typed ENOMEM, not a generic EIO.
        vm::AccessDenied::NoMemory { .. } => Errno::ENOMEM,
        _ => Errno::EIO,
    })?;
    // A private-overlay write bypasses the shared page cache's
    // generation, so stamp the owner explicitly.
    proc.touch();
    Ok(span)
}

/// Readiness of a node: "by appropriately defining what it means for a
/// /proc file to be 'ready'" — readable when the process (or LWP `tid`)
/// is stopped on an event of interest, hangup when gone. `pid` is `None`
/// for a root directory, which is always readable.
#[inline]
pub fn poll(k: &Kernel, pid: Option<Pid>, tid: Option<Tid>) -> PollStatus {
    let Some(pid) = pid else {
        return PollStatus { readable: true, writable: false, hangup: false };
    };
    match k.proc(pid) {
        Ok(p) if !p.zombie => {
            let readable = match tid {
                Some(t) => p.lwp(t).is_some_and(Lwp::is_event_stopped),
                None => p.is_event_stopped(),
            };
            PollStatus { readable, writable: true, hangup: false }
        }
        _ => PollStatus { readable: false, writable: false, hangup: true },
    }
}

/// Ensures the target exists and is not a zombie.
pub fn live(k: &Kernel, pid: Pid) -> SysResult<()> {
    let p = k.proc(pid)?;
    if p.zombie {
        return Err(Errno::ENOENT);
    }
    Ok(())
}

/// `PIOCSTRACE`/`PCSTRACE`: define the set of traced signals.
pub fn set_sig_trace(k: &mut Kernel, pid: Pid, bytes: &[u8]) -> SysResult<()> {
    let set = SigSet::from_bytes(bytes).ok_or(Errno::EINVAL)?;
    live(k, pid)?;
    k.proc_mut(pid)?.trace.sig_trace = set;
    Ok(())
}

/// `PIOCSFAULT`/`PCSFAULT`: define the set of traced machine faults.
pub fn set_flt_trace(k: &mut Kernel, pid: Pid, bytes: &[u8]) -> SysResult<()> {
    let set = FltSet::from_bytes(bytes).ok_or(Errno::EINVAL)?;
    live(k, pid)?;
    k.proc_mut(pid)?.trace.flt_trace = set;
    Ok(())
}

/// `PIOCSENTRY`/`PCSENTRY`: define the traced system call entries.
pub fn set_entry_trace(k: &mut Kernel, pid: Pid, bytes: &[u8]) -> SysResult<()> {
    let set = SysSet::from_bytes(bytes).ok_or(Errno::EINVAL)?;
    live(k, pid)?;
    k.proc_mut(pid)?.trace.entry_trace = set;
    Ok(())
}

/// `PIOCSEXIT`/`PCSEXIT`: define the traced system call exits.
pub fn set_exit_trace(k: &mut Kernel, pid: Pid, bytes: &[u8]) -> SysResult<()> {
    let set = SysSet::from_bytes(bytes).ok_or(Errno::EINVAL)?;
    live(k, pid)?;
    k.proc_mut(pid)?.trace.exit_trace = set;
    Ok(())
}

/// LWP `tid` of the process, or its representative LWP when `tid` is
/// `None` (every flat operation, and every hierarchical one addressed
/// to the process rather than to one LWP).
pub fn lwp(k: &Kernel, pid: Pid, tid: Option<Tid>) -> SysResult<&Lwp> {
    let proc = k.proc(pid)?;
    match tid {
        Some(t) => proc.lwp(t).ok_or(Errno::ESRCH),
        None => Ok(proc.rep_lwp()),
    }
}

/// `tid`, or the representative LWP's when it is `None`.
fn tid_or_rep(k: &Kernel, pid: Pid, tid: Option<Tid>) -> SysResult<Tid> {
    match tid {
        Some(t) => Ok(t),
        None => Ok(k.proc(pid)?.rep_lwp().tid),
    }
}

/// The mutable twin of [`lwp`].
fn lwp_mut(k: &mut Kernel, pid: Pid, tid: Option<Tid>) -> SysResult<&mut Lwp> {
    let proc = k.proc_mut(pid)?;
    match tid {
        Some(t) => proc.lwp_mut(t).ok_or(Errno::ESRCH),
        None => Ok(proc.rep_lwp_mut()),
    }
}

/// `PIOCRUN`/`PCRUN`: make a stopped LWP runnable, with options.
pub fn run(k: &mut Kernel, pid: Pid, tid: Option<Tid>, arg: &[u8]) -> SysResult<()> {
    let prrun = PrRun::from_bytes(arg).ok_or(Errno::EINVAL)?;
    live(k, pid)?;
    let tid = tid_or_rep(k, pid, tid)?;
    k.run_lwp(pid, tid, prrun.to_opts())
}

/// `PIOCKILL`/`PCKILL`: post a signal. The open descriptor is the
/// capability; no further permission check is applied.
pub fn kill(k: &mut Kernel, pid: Pid, arg: &[u8]) -> SysResult<()> {
    let sig = read_u32(arg)? as usize;
    live(k, pid)?;
    k.post_signal(pid, sig)
}

/// `PIOCUNKILL`/`PCUNKILL`: delete a pending signal.
pub fn unkill(k: &mut Kernel, pid: Pid, arg: &[u8]) -> SysResult<()> {
    let sig = read_u32(arg)? as usize;
    if sig == 0 || sig >= SigSet::capacity() {
        return Err(Errno::EINVAL);
    }
    live(k, pid)?;
    k.proc_mut(pid)?.pending.del(sig);
    Ok(())
}

/// `PIOCSSIG`/`PCSSIG`: set (or with 0 clear) the current signal.
pub fn set_sig(k: &mut Kernel, pid: Pid, tid: Option<Tid>, arg: &[u8]) -> SysResult<()> {
    let sig = read_u32(arg)? as usize;
    live(k, pid)?;
    let tid = tid_or_rep(k, pid, tid)?;
    if sig >= SigSet::capacity() {
        return Err(Errno::EINVAL);
    }
    k.set_cursig(pid, tid, (sig != 0).then_some(sig))
}

/// `PIOCSHOLD`/`PCSHOLD`: replace the held-signal mask.
pub fn set_hold(k: &mut Kernel, pid: Pid, tid: Option<Tid>, arg: &[u8]) -> SysResult<()> {
    let mut set = SigSet::from_bytes(arg).ok_or(Errno::EINVAL)?;
    set.del(ksim::signal::SIGKILL);
    set.del(ksim::signal::SIGSTOP);
    live(k, pid)?;
    lwp_mut(k, pid, tid)?.held = set;
    Ok(())
}

/// The LWP whose registers `PIOCSREG`/`PIOCSFPREG` replace: it must be
/// stopped.
fn stopped_lwp(k: &mut Kernel, pid: Pid, tid: Option<Tid>) -> SysResult<&mut Lwp> {
    live(k, pid)?;
    let lwp = lwp_mut(k, pid, tid)?;
    if !lwp.is_stopped() {
        return Err(Errno::EBUSY);
    }
    Ok(lwp)
}

/// `PIOCSREG`/`PCSREG`: install general registers in a stopped LWP.
pub fn set_regs(k: &mut Kernel, pid: Pid, tid: Option<Tid>, arg: &[u8]) -> SysResult<()> {
    let mut regs = isa::GregSet::from_bytes(arg).ok_or(Errno::EINVAL)?;
    regs.normalize();
    stopped_lwp(k, pid, tid)?.gregs = regs;
    Ok(())
}

/// `PIOCSFPREG`/`PCSFPREG`: install floating registers in a stopped LWP.
pub fn set_fpregs(k: &mut Kernel, pid: Pid, tid: Option<Tid>, arg: &[u8]) -> SysResult<()> {
    let regs = isa::FpregSet::from_bytes(arg).ok_or(Errno::EINVAL)?;
    stopped_lwp(k, pid, tid)?.fpregs = regs;
    Ok(())
}

/// `PIOCSWATCH`/`PCWATCH`: add a watched area, or remove the areas at
/// `vaddr` when `size` is zero.
pub fn watch(k: &mut Kernel, pid: Pid, arg: &[u8]) -> SysResult<u64> {
    let w = PrWatch::from_bytes(arg).ok_or(Errno::EINVAL)?;
    live(k, pid)?;
    let proc = k.proc_mut(pid)?;
    if w.size == 0 {
        return Ok(proc.aspace.remove_watch(w.vaddr) as u64);
    }
    let flags = WatchFlags::from_bits(w.flags);
    if !flags.read && !flags.write && !flags.exec {
        return Err(Errno::EINVAL);
    }
    proc.aspace.add_watch(WatchArea { base: w.vaddr, len: w.size, flags });
    Ok(1)
}

/// `PIOCNICE`/`PCNICE`: adjust priority.
pub fn nice(k: &mut Kernel, pid: Pid, arg: &[u8]) -> SysResult<()> {
    let incr = read_u32(arg)? as i32 as i8;
    live(k, pid)?;
    let proc = k.proc_mut(pid)?;
    proc.nice = proc.nice.saturating_add(incr).clamp(-20, 19);
    Ok(())
}

/// Direct every LWP of the target, or only LWP `tid`, to stop (the
/// non-waiting half of `PIOCSTOP`; `PCDSTOP`).
pub fn direct_stop(k: &mut Kernel, pid: Pid, tid: Option<Tid>) -> SysResult<()> {
    live(k, pid)?;
    let Some(tid) = tid else { return k.direct_stop(pid) };
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

/// True when the process (its representative LWP) or LWP `tid` is
/// stopped on an event of interest — the condition `PIOCSTOP`/
/// `PIOCWSTOP` wait for.
pub fn event_stopped(k: &Kernel, pid: Pid, tid: Option<Tid>) -> SysResult<bool> {
    let p = k.proc(pid)?;
    if p.zombie {
        return Err(Errno::ENOENT);
    }
    Ok(match tid {
        Some(t) => p.lwp(t).ok_or(Errno::ESRCH)?.is_event_stopped(),
        None => p.is_event_stopped(),
    })
}

/// The `PIOCSTOP`/`PIOCWSTOP` condition, with the stop directed first
/// when `direct` (`PIOCSTOP`): true when the target is event-stopped and
/// the request is satisfied, false when it must block. Renders no reply,
/// so the write-based face, which has nowhere to put one, pays for none.
pub fn stop_satisfied(k: &mut Kernel, pid: Pid, tid: Option<Tid>, direct: bool) -> SysResult<bool> {
    if direct {
        direct_stop(k, pid, tid)?;
    }
    event_stopped(k, pid, tid)
}

/// `PIOCOPENM`/the `object` convention: given a virtual address in the
/// target, opens the underlying mapped object read-only and returns a
/// descriptor *in the caller's table* — "this enables a debugger to find
/// executable file symbol tables ... without having to know pathnames".
pub fn open_mapped(k: &mut Kernel, caller: Pid, pid: Pid, arg: &[u8]) -> SysResult<u64> {
    let vaddr = read_u64(arg)?;
    live(k, pid)?;
    let (fs, node) = {
        let proc = k.proc(pid)?;
        let mapping = proc.aspace.find(vaddr).ok_or(Errno::EFAULT)?;
        match &k.objects.get(mapping.object).kind {
            ObjectKind::File { fs, node, .. } => (*fs, vfs::NodeId(*node)),
            ObjectKind::Anon => return Err(Errno::ENXIO),
        }
    };
    // The kernel grants the descriptor directly; the mapping itself is
    // proof the object is readable by the process being examined.
    let fid =
        k.files.alloc(FileKind::Vnode { fs, node, token: vfs::OpenToken(0) }, OFlags::rdonly());
    let fd = {
        let proc = k.proc_mut(caller)?;
        proc.fds.alloc(fid)
    };
    match fd {
        Some(fd) => Ok(fd as u64),
        None => {
            k.files.decref(fid);
            Err(Errno::EMFILE)
        }
    }
}

/// Builds the status reply for stop-style operations.
pub fn status_bytes(k: &Kernel, pid: Pid, tid: Option<Tid>) -> SysResult<Vec<u8>> {
    Ok(PrStatus::capture(k, pid, tid)?.to_bytes())
}

fn read_u32(arg: &[u8]) -> SysResult<u32> {
    if arg.len() < 4 {
        return Err(Errno::EINVAL);
    }
    Ok(ksim::bytes::le_u32(arg))
}

fn read_u64(arg: &[u8]) -> SysResult<u64> {
    if arg.len() < 8 {
        return Err(Errno::EINVAL);
    }
    Ok(ksim::bytes::le_u64(arg))
}
