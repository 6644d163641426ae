//! A typed client over the flat `/proc` interface.
//!
//! [`ProcHandle`] wraps one open `/proc` descriptor with typed accessors
//! for every `PIOC*` operation and for address-space I/O. It counts the
//! control-interface calls it makes (`calls`), which is the measurement
//! the paper cares about when it claims `/proc` "reduces the number of
//! system calls routinely made by a debugger" (experiment E2).

use isa::{FpregSet, GregSet};
use ksim::fault::FltSet;
use ksim::signal::SigSet;
use ksim::sysno::SysSet;
use ksim::{Pid, SysResult, System};
use procfs::ioctl::*;
use procfs::{PrCred, PrMap, PrRun, PrStatus, PrUsage, PrWatch, PrXStats, PsInfo};
use vfs::{Errno, OFlags, PollStatus};

/// The `/proc` path of a process (five-digit form, as listed).
pub fn proc_path(pid: Pid) -> String {
    proc_path_at("/proc", pid)
}

/// The process file path under an arbitrary mount point (a remote
/// `/proc` is usually mounted elsewhere, e.g. `/rproc`).
pub fn proc_path_at(mount: &str, pid: Pid) -> String {
    format!("{}/{:05}", mount, pid.0)
}

/// How many times a transient fault (`EINTR` from an interrupted wait,
/// `EAGAIN` from a starved fork) is retried before the typed error is
/// surfaced to the caller.
pub const TRANSIENT_RETRIES: u32 = 8;

/// One open `/proc` descriptor, owned by hosted process `ctl`.
#[derive(Debug)]
pub struct ProcHandle {
    /// The target process.
    pub pid: Pid,
    /// The controlling (hosted) process owning the descriptor.
    pub ctl: Pid,
    /// The descriptor number in `ctl`'s table.
    pub fd: usize,
    /// Control-interface calls made through this handle (each host-level
    /// open/close/ioctl/lseek/read/write counts one).
    pub calls: u64,
}

impl ProcHandle {
    /// Opens the target's process file with the given flags.
    pub fn open(sys: &mut System, ctl: Pid, pid: Pid, flags: OFlags) -> SysResult<ProcHandle> {
        let fd = sys.host_open(ctl, &proc_path(pid), flags)?;
        Ok(ProcHandle { pid, ctl, fd, calls: 1 })
    }

    /// Opens read/write (the debugger's usual mode).
    pub fn open_rw(sys: &mut System, ctl: Pid, pid: Pid) -> SysResult<ProcHandle> {
        Self::open(sys, ctl, pid, OFlags::rdwr())
    }

    /// Opens read-only (the `ps` mode: "the opens always succeed and no
    /// interference is created").
    pub fn open_ro(sys: &mut System, ctl: Pid, pid: Pid) -> SysResult<ProcHandle> {
        Self::open(sys, ctl, pid, OFlags::rdonly())
    }

    /// Opens for exclusive control.
    pub fn open_excl(sys: &mut System, ctl: Pid, pid: Pid) -> SysResult<ProcHandle> {
        Self::open(sys, ctl, pid, OFlags::rdwr_excl())
    }

    /// Opens the target's process file under an arbitrary mount point
    /// (for remote `/proc` mounts).
    pub fn open_at(
        sys: &mut System,
        ctl: Pid,
        pid: Pid,
        mount: &str,
        flags: OFlags,
    ) -> SysResult<ProcHandle> {
        let fd = sys.host_open(ctl, &proc_path_at(mount, pid), flags)?;
        Ok(ProcHandle { pid, ctl, fd, calls: 1 })
    }

    /// Closes the descriptor.
    pub fn close(mut self, sys: &mut System) -> SysResult<()> {
        self.calls += 1;
        sys.host_close(self.ctl, self.fd)
    }

    /// Runs `f` with a freshly opened handle and closes it on *every*
    /// exit path — normal return, typed error, or panic. This is the
    /// last-close guard the paper's run-on-last-close semantics need: a
    /// controller that unwinds mid-operation still closes the process
    /// file, so a stopped target with `PIOCSRLC` in effect is set
    /// running again rather than left stopped forever.
    ///
    /// (`ProcHandle` cannot do this from `Drop`: closing needs `&mut`
    /// access to the `System`, which a `Drop` impl cannot borrow.)
    pub fn scoped<T>(
        sys: &mut System,
        ctl: Pid,
        pid: Pid,
        flags: OFlags,
        f: impl FnOnce(&mut System, &mut ProcHandle) -> SysResult<T>,
    ) -> SysResult<T> {
        Self::scoped_at(sys, ctl, pid, "/proc", flags, f)
    }

    /// [`ProcHandle::scoped`] under an arbitrary mount point — the same
    /// unwind-safe last-close guarantee over a remote `/proc`.
    pub fn scoped_at<T>(
        sys: &mut System,
        ctl: Pid,
        pid: Pid,
        mount: &str,
        flags: OFlags,
        f: impl FnOnce(&mut System, &mut ProcHandle) -> SysResult<T>,
    ) -> SysResult<T> {
        let mut h = Self::open_at(sys, ctl, pid, mount, flags)?;
        let (ctl, fd) = (h.ctl, h.fd);
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| f(sys, &mut h)));
        // Close no matter how the body ended. A close failure after a
        // successful body is not surfaced: the target may legitimately
        // have died while we held the descriptor.
        let _ = sys.host_close(ctl, fd);
        match result {
            Ok(r) => r,
            Err(payload) => std::panic::resume_unwind(payload),
        }
    }

    fn ioctl(&mut self, sys: &mut System, req: u32, arg: &[u8]) -> SysResult<Vec<u8>> {
        self.calls += 1;
        sys.host_ioctl(self.ctl, self.fd, req, arg)
    }

    /// Like [`ProcHandle::ioctl`], but retries a bounded number of times
    /// when the kernel interrupts the wait with `EINTR` — the discipline
    /// every blocking `/proc` wait (`PIOCSTOP`, `PIOCWSTOP`) needs under
    /// an installed fault plan. A persistent `EINTR` storm still
    /// surfaces, typed, after [`TRANSIENT_RETRIES`] attempts.
    fn ioctl_retry_intr(&mut self, sys: &mut System, req: u32, arg: &[u8]) -> SysResult<Vec<u8>> {
        let mut attempts = 0;
        loop {
            match self.ioctl(sys, req, arg) {
                Err(Errno::EINTR) if attempts < TRANSIENT_RETRIES => attempts += 1,
                other => return other,
            }
        }
    }

    /// `PIOCSTATUS`: the full status in one operation.
    pub fn status(&mut self, sys: &mut System) -> SysResult<PrStatus> {
        let out = self.ioctl(sys, PIOCSTATUS, &[])?;
        PrStatus::from_bytes(&out).ok_or(Errno::EIO)
    }

    /// `PIOCSTOP`: direct the process to stop and wait for the stop.
    /// Interrupted waits are retried (bounded).
    pub fn stop(&mut self, sys: &mut System) -> SysResult<PrStatus> {
        let out = self.ioctl_retry_intr(sys, PIOCSTOP, &[])?;
        PrStatus::from_bytes(&out).ok_or(Errno::EIO)
    }

    /// `PIOCWSTOP`: wait for the next event-of-interest stop.
    /// Interrupted waits are retried (bounded).
    pub fn wstop(&mut self, sys: &mut System) -> SysResult<PrStatus> {
        let out = self.ioctl_retry_intr(sys, PIOCWSTOP, &[])?;
        PrStatus::from_bytes(&out).ok_or(Errno::EIO)
    }

    /// `PIOCRUN` with options.
    pub fn run(&mut self, sys: &mut System, run: PrRun) -> SysResult<()> {
        self.ioctl(sys, PIOCRUN, &run.to_bytes())?;
        Ok(())
    }

    /// `PIOCRUN` with no options.
    pub fn resume(&mut self, sys: &mut System) -> SysResult<()> {
        self.run(sys, PrRun::default())
    }

    /// `PIOCSTRACE`: set traced signals.
    pub fn set_sig_trace(&mut self, sys: &mut System, set: SigSet) -> SysResult<()> {
        self.ioctl(sys, PIOCSTRACE, &set.to_bytes())?;
        Ok(())
    }

    /// `PIOCGTRACE`: get traced signals.
    pub fn sig_trace(&mut self, sys: &mut System) -> SysResult<SigSet> {
        let out = self.ioctl(sys, PIOCGTRACE, &[])?;
        SigSet::from_bytes(&out).ok_or(Errno::EIO)
    }

    /// `PIOCSFAULT`: set traced faults.
    pub fn set_flt_trace(&mut self, sys: &mut System, set: FltSet) -> SysResult<()> {
        self.ioctl(sys, PIOCSFAULT, &set.to_bytes())?;
        Ok(())
    }

    /// `PIOCSENTRY`: set traced system call entries.
    pub fn set_entry_trace(&mut self, sys: &mut System, set: SysSet) -> SysResult<()> {
        self.ioctl(sys, PIOCSENTRY, &set.to_bytes())?;
        Ok(())
    }

    /// `PIOCSEXIT`: set traced system call exits.
    pub fn set_exit_trace(&mut self, sys: &mut System, set: SysSet) -> SysResult<()> {
        self.ioctl(sys, PIOCSEXIT, &set.to_bytes())?;
        Ok(())
    }

    /// `PIOCGREG`: fetch the general registers.
    pub fn gregs(&mut self, sys: &mut System) -> SysResult<GregSet> {
        let out = self.ioctl(sys, PIOCGREG, &[])?;
        GregSet::from_bytes(&out).ok_or(Errno::EIO)
    }

    /// `PIOCSREG`: install the general registers.
    pub fn set_gregs(&mut self, sys: &mut System, regs: &GregSet) -> SysResult<()> {
        self.ioctl(sys, PIOCSREG, &regs.to_bytes())?;
        Ok(())
    }

    /// `PIOCGFPREG`: fetch the floating registers.
    pub fn fpregs(&mut self, sys: &mut System) -> SysResult<FpregSet> {
        let out = self.ioctl(sys, PIOCGFPREG, &[])?;
        FpregSet::from_bytes(&out).ok_or(Errno::EIO)
    }

    /// `PIOCSFPREG`: install the floating registers.
    pub fn set_fpregs(&mut self, sys: &mut System, regs: &FpregSet) -> SysResult<()> {
        self.ioctl(sys, PIOCSFPREG, &regs.to_bytes())?;
        Ok(())
    }

    /// `PIOCMAP`: the address map.
    pub fn maps(&mut self, sys: &mut System) -> SysResult<Vec<PrMap>> {
        let out = self.ioctl(sys, PIOCMAP, &[])?;
        Ok(PrMap::decode_list(&out))
    }

    /// `PIOCPSINFO`: the `ps` snapshot.
    pub fn psinfo(&mut self, sys: &mut System) -> SysResult<PsInfo> {
        let out = self.ioctl(sys, PIOCPSINFO, &[])?;
        PsInfo::from_bytes(&out).ok_or(Errno::EIO)
    }

    /// `PIOCCRED`: credentials.
    pub fn cred(&mut self, sys: &mut System) -> SysResult<PrCred> {
        let out = self.ioctl(sys, PIOCCRED, &[])?;
        PrCred::from_bytes(&out).ok_or(Errno::EIO)
    }

    /// `PIOCUSAGE`: resource usage.
    pub fn usage(&mut self, sys: &mut System) -> SysResult<PrUsage> {
        let out = self.ioctl(sys, PIOCUSAGE, &[])?;
        PrUsage::from_bytes(&out).ok_or(Errno::EIO)
    }

    /// `PIOCKILL`: post a signal.
    pub fn kill(&mut self, sys: &mut System, sig: usize) -> SysResult<()> {
        self.ioctl(sys, PIOCKILL, &(sig as u32).to_le_bytes())?;
        Ok(())
    }

    /// `PIOCUNKILL`: delete a pending signal.
    pub fn unkill(&mut self, sys: &mut System, sig: usize) -> SysResult<()> {
        self.ioctl(sys, PIOCUNKILL, &(sig as u32).to_le_bytes())?;
        Ok(())
    }

    /// `PIOCSSIG`: set (0 clears) the current signal.
    pub fn set_cursig(&mut self, sys: &mut System, sig: usize) -> SysResult<()> {
        self.ioctl(sys, PIOCSSIG, &(sig as u32).to_le_bytes())?;
        Ok(())
    }

    /// `PIOCSFORK`/`PIOCRFORK`: inherit-on-fork.
    pub fn set_inherit_on_fork(&mut self, sys: &mut System, on: bool) -> SysResult<()> {
        self.ioctl(sys, if on { PIOCSFORK } else { PIOCRFORK }, &[])?;
        Ok(())
    }

    /// `PIOCSRLC`/`PIOCRRLC`: run-on-last-close.
    pub fn set_run_on_last_close(&mut self, sys: &mut System, on: bool) -> SysResult<()> {
        self.ioctl(sys, if on { PIOCSRLC } else { PIOCRRLC }, &[])?;
        Ok(())
    }

    /// `PIOCSWATCH`: add (or with `size == 0` remove) a watched area.
    pub fn set_watch(&mut self, sys: &mut System, w: PrWatch) -> SysResult<()> {
        self.ioctl(sys, PIOCSWATCH, &w.to_bytes())?;
        Ok(())
    }

    /// Any of the six stats ioctls (`PIOCCACHESTATS`,
    /// `PIOCKFAULTSTATS`, `PIOCXSTATS`, `PIOCWIRESTATS`,
    /// `PIOCRECSTATS`, `PIOCMIGSTATS`), decoded through the one typed
    /// [`procfs::StatsReport`] path. The typed accessors below delegate
    /// here; to print any family, walk `StatsReport::counters()` or
    /// call `StatsReport::render()`.
    pub fn stats(&mut self, sys: &mut System, req: u32) -> SysResult<procfs::StatsReport> {
        let out = self.ioctl(sys, req, &[])?;
        match Ioctl::from_req(req).ok_or(Errno::EINVAL)?.decode_reply(&out)? {
            IoctlPayload::Stats(s) => Ok(s),
            _ => Err(Errno::EINVAL),
        }
    }

    /// `PIOCCACHESTATS`: the snapshot-cache counters of the `/proc`
    /// mount serving this descriptor.
    pub fn cache_stats(&mut self, sys: &mut System) -> SysResult<procfs::PrCacheStats> {
        match self.stats(sys, PIOCCACHESTATS)? {
            procfs::StatsReport::Cache(c) => Ok(c),
            _ => Err(Errno::EIO),
        }
    }

    /// `PIOCWIRESTATS`: the wire-layer transport counters, when the
    /// descriptor's `/proc` is mounted behind a [`vfs::remote::RemoteFs`].
    /// Answered by the client stub without crossing the wire, so it works
    /// even when the network is down; over a local mount it fails with
    /// the mount's unknown-ioctl errno.
    pub fn wire_stats(&mut self, sys: &mut System) -> SysResult<vfs::remote::WireStats> {
        match self.stats(sys, vfs::remote::PIOCWIRESTATS)? {
            procfs::StatsReport::Wire(w) => Ok(w),
            _ => Err(Errno::EIO),
        }
    }

    /// `PIOCKFAULTSTATS`: the kernel fault-injection counters. Answered
    /// by the kernel owning the target, so over a remote mount the reply
    /// reports the *server's* fault plan. All zeros when no plan is
    /// installed.
    pub fn kfault_stats(&mut self, sys: &mut System) -> SysResult<ksim::KFaultStats> {
        match self.stats(sys, PIOCKFAULTSTATS)? {
            procfs::StatsReport::KernelFaults(f) => Ok(f),
            _ => Err(Errno::EIO),
        }
    }

    /// `PIOCXSTATS`: the execution fast-path counters (software TLB and
    /// superblocks) for the target. Kernel-resident like
    /// `PIOCKFAULTSTATS`, so over a remote mount the reply crosses the
    /// wire and reports the server's caches.
    pub fn xstats(&mut self, sys: &mut System) -> SysResult<PrXStats> {
        match self.stats(sys, PIOCXSTATS)? {
            procfs::StatsReport::Exec(x) => Ok(x),
            _ => Err(Errno::EIO),
        }
    }

    /// `PIOCRECSTATS`: the record/replay counters of the kernel owning
    /// the target. All zeros when recording is off.
    pub fn rec_stats(&mut self, sys: &mut System) -> SysResult<ksim::RecStats> {
        match self.stats(sys, PIOCRECSTATS)? {
            procfs::StatsReport::Recorder(r) => Ok(r),
            _ => Err(Errno::EIO),
        }
    }

    /// `PIOCMIGRATE`: one migration sub-operation (a raw
    /// [`ksim::migrate`] argument image), with the reply decoded into a
    /// typed [`ksim::MigReply`]. Protocol rejections ride *successful*
    /// ioctls (`MIG_ST_ERR` inside the reply), so a transport error here
    /// always means the wire, never the protocol.
    pub fn migrate_op(&mut self, sys: &mut System, arg: &[u8]) -> SysResult<ksim::MigReply> {
        let out = self.ioctl(sys, PIOCMIGRATE, arg)?;
        ksim::MigReply::from_bytes(&out).ok_or(Errno::EIO)
    }

    /// `PIOCMIGSTATS`: the migration counters of the kernel owning the
    /// target (begins, chunks, duplicate absorptions, commits, aborts,
    /// digest mismatches, resumes).
    pub fn mig_stats(&mut self, sys: &mut System) -> SysResult<ksim::MigStats> {
        match self.stats(sys, PIOCMIGSTATS)? {
            procfs::StatsReport::Migrate(m) => Ok(m),
            _ => Err(Errno::EIO),
        }
    }

    /// `PIOCCKPT`: checkpoint the stopped target into a self-contained
    /// image (identity, registers, signal mask, sparse address space).
    /// Works over local and remote mounts alike — the image crosses the
    /// wire as an ordinary variable-length reply.
    pub fn checkpoint(&mut self, sys: &mut System) -> SysResult<Vec<u8>> {
        let out = self.ioctl(sys, PIOCCKPT, &[])?;
        match Ioctl::Ckpt.decode_reply(&out)? {
            IoctlPayload::Image(img) => Ok(img),
            _ => Err(Errno::EIO),
        }
    }

    /// `PIOCRESTORE`: restore a [`ProcHandle::checkpoint`] image into
    /// the stopped target, replacing its address space, registers and
    /// signal mask. A malformed image fails with `EINVAL` before any
    /// state is touched.
    pub fn restore(&mut self, sys: &mut System, image: &[u8]) -> SysResult<()> {
        self.ioctl(sys, PIOCRESTORE, image)?;
        Ok(())
    }

    /// Non-blocking `poll` readiness of this descriptor — the paper's
    /// proposed extension: the process file is "ready" (readable) when
    /// the target is stopped on an event of interest, and in `hangup`
    /// when it has terminated.
    pub fn poll(&mut self, sys: &mut System) -> SysResult<PollStatus> {
        self.calls += 1;
        sys.poll_fd(self.ctl, self.fd)
    }

    /// `PIOCOPENM`: open the object mapped at `vaddr`, returning a plain
    /// descriptor in the controller's table.
    pub fn open_mapped(&mut self, sys: &mut System, vaddr: u64) -> SysResult<usize> {
        let out = self.ioctl(sys, PIOCOPENM, &vaddr.to_le_bytes())?;
        Ok(u64::from_le_bytes(out.try_into().map_err(|_| Errno::EIO)?) as usize)
    }

    /// Reads target memory at `addr` (lseek + read: two calls).
    pub fn read_mem(&mut self, sys: &mut System, addr: u64, buf: &mut [u8]) -> SysResult<usize> {
        self.calls += 2;
        sys.host_lseek(self.ctl, self.fd, addr as i64, 0)?;
        sys.host_read(self.ctl, self.fd, buf)
    }

    /// Writes target memory at `addr` (lseek + write: two calls).
    pub fn write_mem(&mut self, sys: &mut System, addr: u64, data: &[u8]) -> SysResult<usize> {
        self.calls += 2;
        sys.host_lseek(self.ctl, self.fd, addr as i64, 0)?;
        sys.host_write(self.ctl, self.fd, data)
    }

    /// Reads one 64-bit word of target memory.
    pub fn peek(&mut self, sys: &mut System, addr: u64) -> SysResult<u64> {
        let mut b = [0u8; 8];
        self.read_mem(sys, addr, &mut b)?;
        Ok(u64::from_le_bytes(b))
    }

    /// Writes one 64-bit word of target memory.
    pub fn poke(&mut self, sys: &mut System, addr: u64, value: u64) -> SysResult<()> {
        self.write_mem(sys, addr, &value.to_le_bytes())?;
        Ok(())
    }

    /// Reads the target's executable image via `PIOCOPENM` at the current
    /// program counter and parses it (symbol-table access without
    /// pathnames).
    pub fn read_aout(&mut self, sys: &mut System) -> SysResult<ksim::Aout> {
        let pc = self.status(sys)?.reg.pc;
        let objfd = self.open_mapped(sys, pc)?;
        let mut image = Vec::new();
        let mut buf = [0u8; 4096];
        loop {
            self.calls += 1;
            let n = sys.host_read(self.ctl, objfd, &mut buf)?;
            if n == 0 {
                break;
            }
            image.extend_from_slice(&buf[..n]);
        }
        self.calls += 1;
        sys.host_close(self.ctl, objfd)?;
        ksim::Aout::from_bytes(&image)
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;
    use ksim::Cred;

    #[test]
    fn handle_covers_basic_cycle() {
        let mut sys = procfs::boot_with_proc();
        let ctl = sys.spawn_hosted("ctl", Cred::new(100, 10));
        sys.install_program("/bin/spin", "_start:\nloop: jmp loop");
        let pid = sys.spawn_program(ctl, "/bin/spin", &["spin"]).expect("spawn");
        let mut h = ProcHandle::open_rw(&mut sys, ctl, pid).expect("open");
        let st = h.stop(&mut sys).expect("stop");
        assert_ne!(st.flags & procfs::PR_STOPPED, 0);
        let regs = h.gregs(&mut sys).expect("gregs");
        assert_eq!(regs.pc, st.reg.pc);
        let maps = h.maps(&mut sys).expect("maps");
        assert!(maps.iter().any(|m| m.name == "text"));
        let aout = h.read_aout(&mut sys).expect("aout");
        assert!(aout.sym("loop").is_some());
        h.resume(&mut sys).expect("run");
        let calls = h.calls;
        assert!(calls > 0);
        h.close(&mut sys).expect("close");
    }

    #[test]
    fn wire_stats_on_a_local_mount_is_enotty_in_both_modes() {
        let mut sys = procfs::boot_with_proc();
        let ctl = sys.spawn_hosted("ctl", Cred::new(100, 10));
        sys.install_program("/bin/spin", "_start:\nloop: jmp loop");
        let pid = sys.spawn_program(ctl, "/bin/spin", &["spin"]).expect("spawn");
        for mut h in [
            ProcHandle::open_ro(&mut sys, ctl, pid).expect("open ro"),
            ProcHandle::open_rw(&mut sys, ctl, pid).expect("open rw"),
        ] {
            assert_eq!(h.wire_stats(&mut sys).map(|_| ()), Err(Errno::ENOTTY));
            h.close(&mut sys).expect("close");
        }
    }
}
