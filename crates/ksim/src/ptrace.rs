//! Old-style `ptrace(2)` — the mechanism `/proc` makes obsolete.
//!
//! "ptrace is made obsolete by /proc but is still required by the System
//! V Interface Definition." It is implemented here both as the paper's
//! *competing mechanism* (its interactions with `/proc` stops inside
//! `issig()` are part of the reproduction) and as the performance
//! baseline for experiments E1/E2: the word-at-a-time PEEK/POKE interface
//! is exactly why the paper counts "system calls routinely made by a
//! debugger".
//!
//! Requests follow the classic numbering; GETREGS/SETREGS extensions
//! (present in many ptrace implementations) are included so the baseline
//! debugger is not absurdly handicapped.

use crate::kernel::Kernel;
use crate::proc::{LwpState, StopWhy, Tid};
use crate::system::System;
use isa::GregSet;
use vfs::{Errno, Pid, SysResult};

/// This process requests tracing by its parent.
pub const PT_TRACE_ME: u64 = 0;
/// Read a word of the child's text.
pub const PT_PEEKTEXT: u64 = 1;
/// Read a word of the child's data.
pub const PT_PEEKDATA: u64 = 2;
/// Write a word of the child's text.
pub const PT_POKETEXT: u64 = 4;
/// Write a word of the child's data.
pub const PT_POKEDATA: u64 = 5;
/// Continue the stopped child, optionally delivering a signal.
pub const PT_CONT: u64 = 7;
/// Kill the child.
pub const PT_KILL: u64 = 8;
/// Single-step the child.
pub const PT_STEP: u64 = 9;
/// Read the child's general registers (extension).
pub const PT_GETREGS: u64 = 12;
/// Write the child's general registers (extension).
pub const PT_SETREGS: u64 = 13;

impl System {
    /// The `ptrace` system call for simulated callers. `args` are
    /// `[request, pid, addr, data, regbuf_ptr, _]`.
    pub(crate) fn sys_ptrace(&mut self, caller: Pid, _tid: Tid, args: [u64; 6]) -> SysResult<u64> {
        let req = args[0];
        if req == PT_TRACE_ME {
            let proc = self.kernel.proc_mut(caller)?;
            proc.ptraced = true;
            return Ok(0);
        }
        let target = Pid(args[1] as u32);
        match req {
            PT_PEEKTEXT | PT_PEEKDATA => {
                let mut word = [0u8; 8];
                self.ptrace_target(caller, target)?;
                let proc = self.kernel.proc(target)?;
                proc.aspace
                    .kernel_read(&self.kernel.objects, args[2], &mut word)
                    .map_err(|_| Errno::EIO)?;
                Ok(u64::from_le_bytes(word))
            }
            PT_POKETEXT | PT_POKEDATA => {
                self.ptrace_target(caller, target)?;
                let Kernel { procs, objects, .. } = &mut self.kernel;
                let proc = procs.get_mut(&target.0).ok_or(Errno::ESRCH)?;
                proc.aspace
                    .kernel_write(objects, args[2], &args[3].to_le_bytes())
                    .map_err(|_| Errno::EIO)?;
                proc.touch();
                Ok(0)
            }
            PT_GETREGS => {
                self.ptrace_target(caller, target)?;
                let image = self.kernel.proc(target)?.rep_lwp().gregs.to_bytes();
                // For a simulated caller, addr is the destination buffer.
                self.copyout(caller, args[2], &image)?;
                Ok(0)
            }
            PT_SETREGS => {
                self.ptrace_target(caller, target)?;
                let image = self.copyin(caller, args[2], GregSet::WIRE_LEN)?;
                let regs = GregSet::from_bytes(&image).ok_or(Errno::EINVAL)?;
                let proc = self.kernel.proc_mut(target)?;
                proc.rep_lwp_mut().gregs = regs;
                proc.touch();
                Ok(0)
            }
            PT_CONT | PT_STEP => {
                self.ptrace_target(caller, target)?;
                self.ptrace_cont(target, args[2], args[3] as usize, req == PT_STEP)
            }
            PT_KILL => {
                self.ptrace_target(caller, target)?;
                self.force_kill(target, crate::signal::SIGKILL);
                Ok(0)
            }
            _ => Err(Errno::EIO),
        }
    }

    /// Host-level ptrace for baseline tooling: same semantics as the
    /// simulated call, with host buffers for the register image.
    pub fn host_ptrace(
        &mut self,
        caller: Pid,
        req: u64,
        target: Pid,
        addr: u64,
        data: u64,
    ) -> SysResult<u64> {
        match req {
            PT_PEEKTEXT | PT_PEEKDATA => {
                self.ptrace_target(caller, target)?;
                let mut word = [0u8; 8];
                let proc = self.kernel.proc(target)?;
                proc.aspace
                    .kernel_read(&self.kernel.objects, addr, &mut word)
                    .map_err(|_| Errno::EIO)?;
                Ok(u64::from_le_bytes(word))
            }
            PT_POKETEXT | PT_POKEDATA => {
                self.ptrace_target(caller, target)?;
                let Kernel { procs, objects, .. } = &mut self.kernel;
                let proc = procs.get_mut(&target.0).ok_or(Errno::ESRCH)?;
                proc.aspace
                    .kernel_write(objects, addr, &data.to_le_bytes())
                    .map_err(|_| Errno::EIO)?;
                proc.touch();
                Ok(0)
            }
            PT_CONT | PT_STEP => {
                self.ptrace_target(caller, target)?;
                self.ptrace_cont(target, addr, data as usize, req == PT_STEP)
            }
            PT_KILL => {
                self.ptrace_target(caller, target)?;
                self.force_kill(target, crate::signal::SIGKILL);
                Ok(0)
            }
            _ => Err(Errno::EIO),
        }
    }

    /// Host-level register fetch over ptrace (the GETREGS extension).
    pub fn host_ptrace_getregs(&mut self, caller: Pid, target: Pid) -> SysResult<GregSet> {
        self.ptrace_target(caller, target)?;
        Ok(self.kernel.proc(target)?.rep_lwp().gregs.clone())
    }

    /// Host-level register install over ptrace.
    pub fn host_ptrace_setregs(
        &mut self,
        caller: Pid,
        target: Pid,
        regs: GregSet,
    ) -> SysResult<()> {
        self.ptrace_target(caller, target)?;
        let proc = self.kernel.proc_mut(target)?;
        let mut regs = regs;
        regs.normalize();
        proc.rep_lwp_mut().gregs = regs;
        proc.touch();
        Ok(())
    }

    /// Marks a child as ptrace-traced (the host-level analogue of the
    /// child calling `PT_TRACE_ME` before exec).
    pub fn host_ptrace_traceme(&mut self, child: Pid) -> SysResult<()> {
        let proc = self.kernel.proc_mut(child)?;
        proc.ptraced = true;
        proc.touch();
        Ok(())
    }

    /// Validates the classic access rule: the target must be a
    /// ptrace-traced child of the caller, stopped.
    fn ptrace_target(&self, caller: Pid, target: Pid) -> SysResult<()> {
        let proc = self.kernel.proc(target)?;
        if !proc.ptraced || proc.ppid != caller {
            return Err(Errno::ESRCH);
        }
        if !proc.rep_lwp().is_stopped() {
            return Err(Errno::ESRCH);
        }
        Ok(())
    }

    /// Continues a ptrace-stopped child: optionally rewrites the resume
    /// PC, replaces or clears the current signal, optionally
    /// single-steps.
    fn ptrace_cont(&mut self, target: Pid, addr: u64, sig: usize, step: bool) -> SysResult<u64> {
        let proc = self.kernel.procs.get_mut(&target.0).ok_or(Errno::ESRCH)?;
        proc.touch();
        let lwp = proc.rep_lwp_mut();
        let tid = lwp.tid;
        if !matches!(lwp.state, LwpState::Stopped(StopWhy::Ptrace(_))) {
            // ptrace may also restart a child it sees stopped on
            // job-control (classic overlap); anything else is not
            // ptrace's stop to undo.
            if !matches!(lwp.state, LwpState::Stopped(StopWhy::JobControl(_))) {
                return Err(Errno::ESRCH);
            }
        }
        if addr != 1 {
            lwp.gregs.pc = addr;
        }
        if sig == 0 {
            lwp.cursig = None;
        } else {
            lwp.cursig = Some(sig);
            // The replaced signal proceeds to delivery without
            // re-stopping.
            lwp.sig_stop_taken = true;
            lwp.ptrace_stop_taken = true;
        }
        lwp.single_step = step;
        Kernel::make_runnable(&mut self.kernel.runq, target, lwp);
        lwp.user_return_pending = true;
        self.kernel.log.push(crate::event::Event::Run { pid: target, tid });
        Ok(0)
    }
}

/// Decodes a classic wait-status word (tests and tools).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum WaitStatus {
    /// Normal exit with this code.
    Exited(u8),
    /// Killed by this signal (bool: core dumped).
    Signalled(usize, bool),
    /// Stopped with this signal (ptrace/job control).
    Stopped(usize),
}

/// Parses the status word written by `wait`.
pub fn decode_status(status: u16) -> WaitStatus {
    if status & 0xFF == 0x7F {
        WaitStatus::Stopped((status >> 8) as usize)
    } else if status & 0x7F != 0 {
        WaitStatus::Signalled((status & 0x7F) as usize, status & 0x80 != 0)
    } else {
        WaitStatus::Exited((status >> 8) as u8)
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;

    #[test]
    fn status_decoding() {
        assert_eq!(decode_status(Kernel::status_exited(0)), WaitStatus::Exited(0));
        assert_eq!(decode_status(Kernel::status_exited(3)), WaitStatus::Exited(3));
        assert_eq!(
            decode_status(Kernel::status_signalled(9, false)),
            WaitStatus::Signalled(9, false)
        );
        assert_eq!(
            decode_status(Kernel::status_signalled(11, true)),
            WaitStatus::Signalled(11, true)
        );
        assert_eq!(decode_status(Kernel::status_stopped(5)), WaitStatus::Stopped(5));
    }
}
