//! Control-operation core shared by the flat (ioctl) and hierarchical
//! (write-to-ctl-file) interfaces. Both are thin encodings over these
//! functions — which is the restructuring argument in miniature: the
//! *operations* are interface-independent.

use crate::types::{PrRun, PrStatus, PrWatch};
use ksim::fault::FltSet;
use ksim::fd::FileKind;
use ksim::signal::SigSet;
use ksim::sysno::SysSet;
use ksim::{Kernel, Tid};
use vfs::{Errno, OFlags, Pid, SysResult};
use vm::{ObjectKind, WatchArea, WatchFlags};

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

/// `PIOCRUN`/`PCRUN`: make a stopped LWP runnable, with options.
/// Without an explicit `tid` the representative LWP is resumed.
pub fn run(k: &mut Kernel, pid: Pid, tid: Option<Tid>, arg: &[u8]) -> SysResult<()> {
    let prrun = PrRun::from_bytes(arg).ok_or(Errno::EINVAL)?;
    live(k, pid)?;
    let tid = match tid {
        Some(t) => t,
        None => k.proc(pid)?.rep_lwp().tid,
    };
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
    let tid = match tid {
        Some(t) => t,
        None => k.proc(pid)?.rep_lwp().tid,
    };
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
    let proc = k.proc_mut(pid)?;
    let lwp = match tid {
        Some(t) => proc.lwp_mut(t).ok_or(Errno::ESRCH)?,
        None => proc.rep_lwp_mut(),
    };
    lwp.held = set;
    Ok(())
}

/// `PIOCSWATCH`/`PCWATCH`: add a watched area, or remove the areas at
/// `vaddr` when `size` is zero.
pub fn watch(k: &mut Kernel, pid: Pid, arg: &[u8]) -> SysResult<u64> {
    let w = PrWatch::from_bytes(arg).ok_or(Errno::EINVAL)?;
    live(k, pid)?;
    let proc = k.proc_mut(pid)?;
    if w.size == 0 {
        let before = proc.aspace.watchpoints.len();
        proc.aspace.watchpoints.retain(|a| a.base != w.vaddr);
        return Ok((before - proc.aspace.watchpoints.len()) as u64);
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

/// Direct every LWP of the target to stop (the non-waiting half of
/// `PIOCSTOP`; `PCDSTOP`).
pub fn direct_stop(k: &mut Kernel, pid: Pid) -> SysResult<()> {
    live(k, pid)?;
    k.direct_stop(pid)
}

/// True when the representative LWP is stopped on an event of interest —
/// the condition `PIOCSTOP`/`PIOCWSTOP` wait for.
pub fn event_stopped(k: &Kernel, pid: Pid) -> SysResult<bool> {
    let p = k.proc(pid)?;
    if p.zombie {
        return Err(Errno::ENOENT);
    }
    Ok(p.is_event_stopped())
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
    let fid = k.files.alloc(
        FileKind::Vnode { fs, node, token: vfs::OpenToken(0) },
        OFlags::rdonly(),
    );
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
