//! The system call dispatcher for simulated processes.
//!
//! Arguments arrive in registers (`a0..a5`), pointers point into the
//! calling process's address space. The dispatcher is re-entered on
//! retries after sleeps, so every handler reads its arguments afresh and
//! is idempotent up to its first externally visible effect.

use crate::kernel::{Kernel, HZ};
use crate::proc::{LwpState, Tid, WaitChannel};
use crate::signal::{Handler, SigAction, SigSet, SIGKILL, SIGSTOP};
use crate::sysno::*;
use crate::system::{FlIo, SysOutcome, System};
use vfs::{Errno, IoctlReply, OFlags, Pid, SysResult};
use vm::{MapFlags, Prot, SegName};

/// Limit on single read/write transfers from simulated callers.
const MAX_IO: usize = 1 << 20;
/// Limit on strings copied in from user space.
const MAX_STR: usize = 4096;
/// Limit on exec argv entries.
const MAX_ARGS: usize = 64;

impl System {
    /// Copies bytes in from a simulated process's address space.
    pub fn copyin(&self, pid: Pid, addr: u64, len: usize) -> SysResult<Vec<u8>> {
        let proc = self.kernel.proc(pid)?;
        let mut buf = vec![0u8; len];
        proc.aspace.kernel_read(&self.kernel.objects, addr, &mut buf).map_err(|_| Errno::EFAULT)?;
        Ok(buf)
    }

    /// Copies bytes out to a simulated process's address space.
    pub fn copyout(&mut self, pid: Pid, addr: u64, data: &[u8]) -> SysResult<()> {
        let Kernel { procs, objects, .. } = &mut self.kernel;
        let proc = procs.get_mut(&pid.0).ok_or(Errno::ESRCH)?;
        proc.aspace.kernel_write(objects, addr, data).map_err(|_| Errno::EFAULT)
    }

    /// Copies in a NUL-terminated string.
    pub fn copyin_str(&self, pid: Pid, addr: u64) -> SysResult<String> {
        let proc = self.kernel.proc(pid)?;
        let mut out = Vec::new();
        let mut pos = addr;
        // Read in chunks bounded by the mapped span.
        while out.len() < MAX_STR {
            let mut byte = [0u8; 1];
            proc.aspace
                .kernel_read(&self.kernel.objects, pos, &mut byte)
                .map_err(|_| Errno::EFAULT)?;
            if byte[0] == 0 {
                return Ok(String::from_utf8_lossy(&out).into_owned());
            }
            out.push(byte[0]);
            pos += 1;
        }
        Err(Errno::EINVAL)
    }

    /// The dispatcher. `args` were read from the registers by the caller
    /// (afresh on every retry, so entry-stopped debuggers can rewrite
    /// them).
    pub(crate) fn do_syscall(&mut self, pid: Pid, tid: Tid, nr: u16, args: [u64; 6]) -> SysOutcome {
        let done = SysOutcome::Done;
        match nr {
            SYS_EXIT => {
                self.do_exit(pid, Kernel::status_exited(args[0] as u8));
                SysOutcome::Gone
            }
            SYS_FORK => self.do_fork(pid, tid, false),
            SYS_VFORK => self.do_fork(pid, tid, true),
            SYS_READ => {
                let (fd, buf, len) = (args[0] as usize, args[1], args[2] as usize);
                let len = len.min(MAX_IO);
                let mut tmp = vec![0u8; len];
                match self.read_fd(pid, fd, &mut tmp) {
                    Err(e) => done(Err(e)),
                    Ok(FlIo::Block(chan)) => SysOutcome::Sleep(chan),
                    Ok(FlIo::Done(n)) => match self.copyout(pid, buf, &tmp[..n]) {
                        Ok(()) => done(Ok(n as u64)),
                        Err(e) => done(Err(e)),
                    },
                }
            }
            SYS_WRITE => {
                let (fd, buf, len) = (args[0] as usize, args[1], args[2] as usize);
                let len = len.min(MAX_IO);
                let data = match self.copyin(pid, buf, len) {
                    Ok(d) => d,
                    Err(e) => return done(Err(e)),
                };
                match self.write_fd(pid, fd, &data) {
                    Err(e) => done(Err(e)),
                    Ok(FlIo::Block(chan)) => SysOutcome::Sleep(chan),
                    Ok(FlIo::Done(n)) => done(Ok(n as u64)),
                }
            }
            SYS_OPEN => {
                let path = match self.copyin_str(pid, args[0]) {
                    Ok(p) => p,
                    Err(e) => return done(Err(e)),
                };
                let flags = OFlags::from_bits(args[1]);
                done(self.open_path(pid, &path, flags).map(|fd| fd as u64))
            }
            SYS_CREAT => {
                let path = match self.copyin_str(pid, args[0]) {
                    Ok(p) => p,
                    Err(e) => return done(Err(e)),
                };
                let flags = OFlags { write: true, creat: true, trunc: true, ..Default::default() };
                done(self.open_path(pid, &path, flags).map(|fd| fd as u64))
            }
            SYS_CLOSE => done(self.close_fd(pid, args[0] as usize).map(|()| 0)),
            SYS_WAIT => match self.wait_check(pid) {
                Err(e) => done(Err(e)),
                Ok(Some((child, status))) => {
                    if args[0] != 0 {
                        if let Err(e) = self.copyout(pid, args[0], &(status as u64).to_le_bytes()) {
                            return done(Err(e));
                        }
                    }
                    done(Ok(child.0 as u64))
                }
                Ok(None) => SysOutcome::Sleep(WaitChannel::Child(pid)),
            },
            SYS_LINK => done(Err(Errno::ENOSYS)),
            SYS_UNLINK => {
                let path = match self.copyin_str(pid, args[0]) {
                    Ok(p) => p,
                    Err(e) => return done(Err(e)),
                };
                done(self.unlink_path(pid, &path).map(|()| 0))
            }
            SYS_EXEC => {
                let path = match self.copyin_str(pid, args[0]) {
                    Ok(p) => p,
                    Err(e) => return done(Err(e)),
                };
                let argv = match self.copyin_argv(pid, args[1]) {
                    Ok(v) => v,
                    Err(e) => return done(Err(e)),
                };
                done(self.do_exec(pid, &path, &argv).map(|()| 0))
            }
            SYS_CHDIR => {
                let path = match self.copyin_str(pid, args[0]) {
                    Ok(p) => p,
                    Err(e) => return done(Err(e)),
                };
                done(self.chdir(pid, &path).map(|()| 0))
            }
            SYS_TIME => done(Ok(self.kernel.clock / HZ)),
            SYS_BRK => {
                let Kernel { procs, objects, .. } = &mut self.kernel;
                let Some(proc) = procs.get_mut(&pid.0) else {
                    return done(Err(Errno::ESRCH));
                };
                done(proc.aspace.grow_break(objects, args[0]).map_err(|_| Errno::ENOMEM))
            }
            SYS_STAT => {
                let path = match self.copyin_str(pid, args[0]) {
                    Ok(p) => p,
                    Err(e) => return done(Err(e)),
                };
                match self.stat_path(pid, &path) {
                    Err(e) => done(Err(e)),
                    Ok(meta) => {
                        let img = encode_stat(&meta);
                        done(self.copyout(pid, args[1], &img).map(|()| 0))
                    }
                }
            }
            SYS_LSEEK => done(self.lseek_fd(pid, args[0] as usize, args[1] as i64, args[2] as u32)),
            SYS_GETPID => done(Ok(pid.0 as u64)),
            SYS_GETPPID => done(Ok(self.kernel.proc(pid).map(|p| p.ppid.0 as u64).unwrap_or(0))),
            SYS_GETPGRP => done(Ok(self.kernel.proc(pid).map(|p| p.pgrp.0 as u64).unwrap_or(0))),
            SYS_GETUID => done(Ok(self.kernel.proc(pid).map(|p| p.cred.ruid as u64).unwrap_or(0))),
            SYS_GETGID => done(Ok(self.kernel.proc(pid).map(|p| p.cred.rgid as u64).unwrap_or(0))),
            SYS_SETUID => {
                let uid = args[0] as u32;
                let Ok(proc) = self.kernel.proc_mut(pid) else {
                    return done(Err(Errno::ESRCH));
                };
                if proc.cred.is_superuser() {
                    proc.cred.ruid = uid;
                    proc.cred.euid = uid;
                    proc.cred.suid = uid;
                    done(Ok(0))
                } else if uid == proc.cred.ruid || uid == proc.cred.suid {
                    proc.cred.euid = uid;
                    done(Ok(0))
                } else {
                    done(Err(Errno::EPERM))
                }
            }
            SYS_SETGID => {
                let gid = args[0] as u32;
                let Ok(proc) = self.kernel.proc_mut(pid) else {
                    return done(Err(Errno::ESRCH));
                };
                if proc.cred.is_superuser() {
                    proc.cred.rgid = gid;
                    proc.cred.egid = gid;
                    proc.cred.sgid = gid;
                    done(Ok(0))
                } else if gid == proc.cred.rgid || gid == proc.cred.sgid {
                    proc.cred.egid = gid;
                    done(Ok(0))
                } else {
                    done(Err(Errno::EPERM))
                }
            }
            SYS_PTRACE => done(self.sys_ptrace(pid, tid, args)),
            SYS_ALARM => {
                let Ok(proc) = self.kernel.proc_mut(pid) else {
                    return done(Err(Errno::ESRCH));
                };
                let remaining =
                    proc.alarm_at.map(|at| at.saturating_sub(self.kernel.clock) / HZ).unwrap_or(0);
                let clock = self.kernel.clock;
                let Ok(proc) = self.kernel.proc_mut(pid) else {
                    return done(Err(Errno::ESRCH));
                };
                proc.alarm_at = if args[0] == 0 { None } else { Some(clock + args[0] * HZ) };
                if let Some(at) = proc.alarm_at {
                    self.kernel.deadlines.arm(at, pid.0);
                }
                done(Ok(remaining))
            }
            SYS_PAUSE => SysOutcome::Sleep(WaitChannel::Pause),
            SYS_NICE => {
                let Ok(proc) = self.kernel.proc_mut(pid) else {
                    return done(Err(Errno::ESRCH));
                };
                let incr = args[0] as i64 as i8;
                if incr < 0 && !proc.cred.is_superuser() {
                    return done(Err(Errno::EPERM));
                }
                proc.nice = proc.nice.saturating_add(incr).clamp(-20, 19);
                done(Ok((proc.nice + 20) as u64))
            }
            SYS_KILL => {
                let target = Pid(args[0] as u32);
                done(self.host_kill(pid, target, args[1] as usize).map(|()| 0))
            }
            SYS_DUP => done(self.dup_fd(pid, args[0] as usize).map(|fd| fd as u64)),
            SYS_PIPE => match self.make_pipe(pid) {
                Err(e) => done(Err(e)),
                Ok((r, w)) => {
                    let mut img = Vec::with_capacity(16);
                    img.extend_from_slice(&(r as u64).to_le_bytes());
                    img.extend_from_slice(&(w as u64).to_le_bytes());
                    done(self.copyout(pid, args[0], &img).map(|()| 0))
                }
            },
            SYS_SIGACTION => {
                // args: sig, handler code (0 default, 1 ignore, addr),
                // mask pointer (0 = empty; 16 bytes).
                let sig = args[0] as usize;
                let handler = match args[1] {
                    0 => Handler::Default,
                    1 => Handler::Ignore,
                    addr => Handler::Catch(addr),
                };
                let mask = if args[2] == 0 {
                    SigSet::empty()
                } else {
                    match self.copyin(pid, args[2], SigSet::WIRE_LEN) {
                        Ok(b) => match SigSet::from_bytes(&b) {
                            Some(s) => s,
                            None => return done(Err(Errno::EINVAL)),
                        },
                        Err(e) => return done(Err(e)),
                    }
                };
                let Ok(proc) = self.kernel.proc_mut(pid) else {
                    return done(Err(Errno::ESRCH));
                };
                let old = proc.actions.get(sig);
                if !proc.actions.set(sig, SigAction { handler, mask }) {
                    return done(Err(Errno::EINVAL));
                }
                let old_code = match old.handler {
                    Handler::Default => 0,
                    Handler::Ignore => 1,
                    Handler::Catch(a) => a,
                };
                done(Ok(old_code))
            }
            SYS_SIGPROCMASK => {
                // args: how (0 block, 1 unblock, 2 set), newset ptr (0 =
                // none), oldset ptr (0 = none).
                let how = args[0];
                let newset = if args[1] == 0 {
                    None
                } else {
                    match self.copyin(pid, args[1], SigSet::WIRE_LEN) {
                        Ok(b) => match SigSet::from_bytes(&b) {
                            Some(s) => Some(s),
                            None => return done(Err(Errno::EINVAL)),
                        },
                        Err(e) => return done(Err(e)),
                    }
                };
                let old = {
                    let Ok(proc) = self.kernel.proc_mut(pid) else {
                        return done(Err(Errno::ESRCH));
                    };
                    let Some(lwp) = proc.lwp_mut(tid) else {
                        return done(Err(Errno::ESRCH));
                    };
                    let old = lwp.held;
                    if let Some(mut set) = newset {
                        // SIGKILL and SIGSTOP can never be held.
                        set.del(SIGKILL);
                        set.del(SIGSTOP);
                        match how {
                            0 => lwp.held.union_with(&set),
                            1 => lwp.held.subtract(&set),
                            2 => lwp.held = set,
                            _ => return done(Err(Errno::EINVAL)),
                        }
                    }
                    old
                };
                if args[2] != 0 {
                    if let Err(e) = self.copyout(pid, args[2], &old.to_bytes()) {
                        return done(Err(e));
                    }
                }
                done(Ok(0))
            }
            SYS_SIGSUSPEND => {
                // args: mask ptr. Replace the mask and sleep until a
                // signal; the old mask is restored when the call finishes.
                let mask = match self.copyin(pid, args[0], SigSet::WIRE_LEN) {
                    Ok(b) => match SigSet::from_bytes(&b) {
                        Some(s) => s,
                        None => return done(Err(Errno::EINVAL)),
                    },
                    Err(e) => return done(Err(e)),
                };
                let Ok(proc) = self.kernel.proc_mut(pid) else {
                    return done(Err(Errno::ESRCH));
                };
                let Some(lwp) = proc.lwp_mut(tid) else {
                    return done(Err(Errno::ESRCH));
                };
                if let Some(ctx) = &mut lwp.syscall {
                    if ctx.saved_hold.is_none() {
                        ctx.saved_hold = Some(lwp.held);
                        let mut m = mask;
                        m.del(SIGKILL);
                        m.del(SIGSTOP);
                        lwp.held = m;
                    }
                }
                SysOutcome::Sleep(WaitChannel::Pause)
            }
            SYS_SIGRETURN => done(Err(Errno::EINVAL)),
            SYS_NANOSLEEP => {
                // args: ticks. The absolute deadline persists across
                // retries in the syscall context.
                let deadline = {
                    let clock = self.kernel.clock;
                    let Ok(proc) = self.kernel.proc_mut(pid) else {
                        return done(Err(Errno::ESRCH));
                    };
                    let Some(lwp) = proc.lwp_mut(tid) else {
                        return done(Err(Errno::ESRCH));
                    };
                    let Some(ctx) = &mut lwp.syscall else {
                        return done(Err(Errno::EINVAL));
                    };
                    *ctx.deadline.get_or_insert(clock + args[0])
                };
                if self.kernel.clock >= deadline {
                    done(Ok(0))
                } else {
                    SysOutcome::Sleep(WaitChannel::Ticks(deadline))
                }
            }
            SYS_MMAP => {
                // args: addr (0 = anywhere), len, prot bits, flags bits
                // (1 = shared, 2 = anon), fd, offset.
                done(self.sys_mmap(pid, args))
            }
            SYS_MUNMAP => {
                let Kernel { procs, objects, .. } = &mut self.kernel;
                let Some(proc) = procs.get_mut(&pid.0) else {
                    return done(Err(Errno::ESRCH));
                };
                done(
                    proc.aspace
                        .unmap(objects, args[0], args[1])
                        .map(|()| 0)
                        .map_err(|_| Errno::EINVAL),
                )
            }
            SYS_MPROTECT => {
                let Kernel { procs, objects, .. } = &mut self.kernel;
                let Some(proc) = procs.get_mut(&pid.0) else {
                    return done(Err(Errno::ESRCH));
                };
                done(
                    proc.aspace
                        .protect(objects, args[0], args[1], Prot::from_bits(args[2] as u32))
                        .map(|()| 0)
                        .map_err(|_| Errno::EINVAL),
                )
            }
            SYS_THR_CREATE => {
                // args: start pc, stack pointer, argument.
                let Ok(proc) = self.kernel.proc_mut(pid) else {
                    return done(Err(Errno::ESRCH));
                };
                let tid_new = Tid(proc.next_tid);
                proc.next_tid += 1;
                let mut lwp = crate::proc::Lwp::new(tid_new, args[0], args[1]);
                lwp.gregs.set_arg(0, args[2]);
                proc.lwps.push(lwp);
                self.kernel.runq.insert(pid.0);
                done(Ok(tid_new.0 as u64))
            }
            SYS_THR_EXIT => {
                let Ok(proc) = self.kernel.proc_mut(pid) else {
                    return SysOutcome::Gone;
                };
                if let Some(lwp) = proc.lwp_mut(tid) {
                    lwp.state = LwpState::Zombie;
                    lwp.syscall = None;
                }
                let all_dead = proc.lwps.iter().all(|l| l.state == LwpState::Zombie);
                if all_dead {
                    self.do_exit(pid, Kernel::status_exited(0));
                }
                SysOutcome::Gone
            }
            SYS_YIELD => done(Ok(0)),
            SYS_GETDENTS => {
                // args: fd, buffer, buffer length. Entries are encoded as
                // [u64 node][u16 namelen][name bytes] back to back.
                done(self.sys_getdents(pid, args))
            }
            SYS_MKDIR => {
                let path = match self.copyin_str(pid, args[0]) {
                    Ok(p) => p,
                    Err(e) => return done(Err(e)),
                };
                done(self.mkdir_path(pid, &path, args[1] as u16).map(|_| 0))
            }
            SYS_UMASK => {
                let Ok(proc) = self.kernel.proc_mut(pid) else {
                    return done(Err(Errno::ESRCH));
                };
                let old = proc.umask;
                proc.umask = (args[0] as u16) & 0o777;
                done(Ok(old as u64))
            }
            SYS_POLL => self.sys_poll(pid, args),
            SYS_IOCTL => {
                // args: fd, request, in ptr, in len, out ptr, out len.
                let in_len = (args[3] as usize).min(MAX_IO);
                let arg = if args[2] == 0 || in_len == 0 {
                    Vec::new()
                } else {
                    match self.copyin(pid, args[2], in_len) {
                        Ok(b) => b,
                        Err(e) => return done(Err(e)),
                    }
                };
                match self.ioctl_fd(pid, args[0] as usize, args[1] as u32, &arg) {
                    Err(e) => done(Err(e)),
                    Ok(IoctlReply::Block) => SysOutcome::Sleep(WaitChannel::PollWait),
                    Ok(IoctlReply::Done(out)) => {
                        let n = out.len().min(args[5] as usize);
                        if args[4] != 0 && n > 0 {
                            if let Err(e) = self.copyout(pid, args[4], &out[..n]) {
                                return done(Err(e));
                            }
                        }
                        done(Ok(n as u64))
                    }
                }
            }
            SYS_RETIRED => done(Err(Errno::ENOSYS)),
            _ => done(Err(Errno::ENOSYS)),
        }
    }

    fn copyin_argv(&self, pid: Pid, addr: u64) -> SysResult<Vec<String>> {
        if addr == 0 {
            return Ok(Vec::new());
        }
        let mut argv = Vec::new();
        for i in 0..MAX_ARGS as u64 {
            let p = self.copyin(pid, addr + i * 8, 8)?;
            let ptr = crate::bytes::le_u64(&p);
            if ptr == 0 {
                return Ok(argv);
            }
            argv.push(self.copyin_str(pid, ptr)?);
        }
        Err(Errno::E2BIG)
    }

    fn chdir(&mut self, pid: Pid, path: &str) -> SysResult<()> {
        let meta = self.stat_path(pid, path)?;
        if meta.kind != vfs::VnodeKind::Directory {
            return Err(Errno::ENOTDIR);
        }
        let abs = if path.starts_with('/') {
            path.to_string()
        } else {
            let cwd = self.kernel.proc(pid)?.cwd.clone();
            format!("{}/{}", if cwd == "/" { "" } else { &cwd }, path)
        };
        let parts = vfs::path::components(&abs).ok_or(Errno::EINVAL)?;
        self.kernel.proc_mut(pid)?.cwd = vfs::path::join(&parts);
        Ok(())
    }

    /// Removes a directory entry (used by the unlink syscall and hosted
    /// tools).
    pub fn unlink_path(&mut self, pid: Pid, path: &str) -> SysResult<()> {
        let (fsid, dir, name) = self.resolve_parent(pid, path)?;
        let System { kernel, fss, .. } = self;
        fss[fsid as usize].as_fs().unlink(kernel, pid, dir, &name)
    }

    /// Creates a directory (used by the mkdir syscall and hosted tools).
    pub fn mkdir_path(&mut self, pid: Pid, path: &str, mode: u16) -> SysResult<vfs::NodeId> {
        let cred = self.kernel.proc(pid)?.cred.clone();
        let umask = self.kernel.proc(pid)?.umask;
        let (fsid, dir, name) = self.resolve_parent(pid, path)?;
        let System { kernel, fss, .. } = self;
        fss[fsid as usize].as_fs().mkdir(kernel, pid, dir, &name, mode & !umask, &cred)
    }

    fn sys_mmap(&mut self, pid: Pid, args: [u64; 6]) -> SysResult<u64> {
        let (addr, len, prot_bits, flag_bits, fd, off) =
            (args[0], args[1], args[2] as u32, args[3], args[4] as i64, args[5]);
        if len == 0 {
            return Err(Errno::EINVAL);
        }
        let len = len.div_ceil(vm::PAGE_SIZE) * vm::PAGE_SIZE;
        let prot = Prot::from_bits(prot_bits);
        let shared = flag_bits & 1 != 0;
        let anon = flag_bits & 2 != 0;
        let flags = MapFlags { shared, ..Default::default() };
        let object = if anon {
            self.kernel.objects.alloc_anon(len)
        } else {
            // File mapping: snapshot the file content into a page-cache
            // object (a private object per mmap call; full coherence with
            // the file is out of scope, see DESIGN.md).
            let fid = self.kernel.proc(pid)?.fds.get(fd as usize).ok_or(Errno::EBADF)?;
            let file = self.kernel.files.get(fid).ok_or(Errno::EBADF)?.clone();
            let crate::fd::FileKind::Vnode { fs, node, token } = file.kind else {
                return Err(Errno::ENODEV);
            };
            let System { kernel, fss, .. } = self;
            let size = fss[fs as usize].as_fs().getattr(kernel, node)?.size;
            let mut content = vec![0u8; size.saturating_sub(off).min(len) as usize];
            let mut read = 0usize;
            while read < content.len() {
                match fss[fs as usize].as_fs().read(
                    kernel,
                    pid,
                    node,
                    token,
                    off + read as u64,
                    &mut content[read..],
                )? {
                    vfs::IoReply::Done(0) => break,
                    vfs::IoReply::Done(n) => read += n,
                    vfs::IoReply::Block => return Err(Errno::EIO),
                }
            }
            self.kernel.objects.alloc_file(fs, node.0, "mmap", &content)
        };
        let name = if anon { SegName::Anon } else { SegName::Mapped };
        let Kernel { procs, objects, .. } = &mut self.kernel;
        let proc = procs.get_mut(&pid.0).ok_or(Errno::ESRCH)?;
        let result = if addr != 0 {
            proc.aspace.map_fixed(addr, len, prot, flags, object, 0, name).map(|()| addr)
        } else {
            proc.aspace.map_anywhere(
                crate::aout::MMAP_LO,
                crate::aout::MMAP_HI,
                len,
                prot,
                flags,
                object,
                0,
                name,
            )
        };
        match result {
            Ok(base) => Ok(base),
            Err(_) => {
                objects.decref(object);
                Err(Errno::ENOMEM)
            }
        }
    }

    fn sys_getdents(&mut self, pid: Pid, args: [u64; 6]) -> SysResult<u64> {
        let (fd, buf, len) = (args[0] as usize, args[1], (args[2] as usize).min(MAX_IO));
        let fid = self.kernel.proc(pid)?.fds.get(fd).ok_or(Errno::EBADF)?;
        let file = self.kernel.files.get(fid).ok_or(Errno::EBADF)?.clone();
        let crate::fd::FileKind::Vnode { fs, node, .. } = file.kind else {
            return Err(Errno::ENOTDIR);
        };
        let entries = {
            let System { kernel, fss, .. } = self;
            fss[fs as usize].as_fs().readdir(kernel, pid, node)?
        };
        // Resume where the offset (an entry index) left off.
        let start = file.offset as usize;
        let mut img = Vec::new();
        let mut taken = 0usize;
        for e in entries.iter().skip(start) {
            let rec = 8 + 2 + e.name.len();
            if img.len() + rec > len {
                break;
            }
            img.extend_from_slice(&e.node.0.to_le_bytes());
            img.extend_from_slice(&(e.name.len() as u16).to_le_bytes());
            img.extend_from_slice(e.name.as_bytes());
            taken += 1;
        }
        if taken == 0 && !entries.is_empty() && start < entries.len() {
            return Err(Errno::EINVAL); // Buffer too small for one entry.
        }
        self.copyout(pid, buf, &img)?;
        if let Some(f) = self.kernel.files.get_mut(fid) {
            f.offset += taken as u64;
        }
        Ok(img.len() as u64)
    }

    /// `poll(2)` for simulated callers; array entries are 12 bytes:
    /// `[u64 fd][u16 events][u16 revents]` with event bits 1=readable,
    /// 2=writable, 4=hangup.
    fn sys_poll(&mut self, pid: Pid, args: [u64; 6]) -> SysOutcome {
        let (arr, n) = (args[0], (args[1] as usize).min(256));
        let raw = match self.copyin(pid, arr, n * 12) {
            Ok(b) => b,
            Err(e) => return SysOutcome::Done(Err(e)),
        };
        let mut out = raw.clone();
        let mut ready = 0u64;
        for i in 0..n {
            let fd = crate::bytes::le_u64(&raw[i * 12..i * 12 + 8]) as usize;
            let events = crate::bytes::le_u16(&raw[i * 12 + 8..i * 12 + 10]);
            let st = match self.poll_fd(pid, fd) {
                Ok(s) => s,
                Err(_) => {
                    out[i * 12 + 10..i * 12 + 12].copy_from_slice(&4u16.to_le_bytes());
                    ready += 1;
                    continue;
                }
            };
            let mut revents = 0u16;
            if st.readable && events & 1 != 0 {
                revents |= 1;
            }
            if st.writable && events & 2 != 0 {
                revents |= 2;
            }
            if st.hangup {
                revents |= 4;
            }
            if revents != 0 {
                ready += 1;
            }
            out[i * 12 + 10..i * 12 + 12].copy_from_slice(&revents.to_le_bytes());
        }
        if ready == 0 {
            return SysOutcome::Sleep(WaitChannel::PollWait);
        }
        if let Err(e) = self.copyout(pid, arr, &out) {
            return SysOutcome::Done(Err(e));
        }
        SysOutcome::Done(Ok(ready))
    }
}

/// Serialises [`vfs::Metadata`] for the `stat` syscall: 40 bytes
/// `[u8 kind][u8 pad][u16 mode][u32 uid][u32 gid][u32 nlink][u64 size][u64 mtime][u64 reserved]`.
pub fn encode_stat(meta: &vfs::Metadata) -> [u8; 40] {
    let mut out = [0u8; 40];
    out[0] = match meta.kind {
        vfs::VnodeKind::Regular => 0,
        vfs::VnodeKind::Directory => 1,
        vfs::VnodeKind::Proc => 2,
        vfs::VnodeKind::Fifo => 3,
    };
    out[2..4].copy_from_slice(&meta.mode.to_le_bytes());
    out[4..8].copy_from_slice(&meta.uid.to_le_bytes());
    out[8..12].copy_from_slice(&meta.gid.to_le_bytes());
    out[12..16].copy_from_slice(&meta.nlink.to_le_bytes());
    out[16..24].copy_from_slice(&meta.size.to_le_bytes());
    out[24..32].copy_from_slice(&meta.mtime.to_le_bytes());
    out
}
