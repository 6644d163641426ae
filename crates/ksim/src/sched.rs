//! `issig()` and `psig()` — the paper's Figure 4.
//!
//! "Just before a process returns to user level, it checks for the
//! presence of a signal to be acted upon and then acts on it by
//! executing: `if (issig()) psig();`"
//!
//! `issig()` here is [`Kernel::issig`], evaluated at every return to user
//! level, and [`Kernel::issig_insleep`], evaluated inside interruptible
//! sleeps to decide whether the system call terminates with `EINTR`. The
//! ordering of its gates reproduces the paper's interactions:
//!
//! 1. **signal promotion** — one pending, non-held, non-ignored signal
//!    becomes the *current signal* (ignored-but-traced signals are
//!    promotable: tracing must see them). The current-signal concept
//!    fixes the pre-SVR4 race the paper describes in its footnote.
//! 2. **signalled stop** — if the current signal is traced via `/proc`
//!    and this stop has not been taken yet.
//! 3. **ptrace stop** — if the process is traced with old-style
//!    `ptrace`, it stops on *any* signal; if the signal was also traced
//!    via `/proc`, the `/proc` stop came first and "the process must be
//!    set running through /proc before it can be manipulated by ptrace".
//! 4. **job-control stop** — default action for stop signals, taken
//!    *inside* `issig()`; consumes the current signal; released only by
//!    `SIGCONT`.
//! 5. **requested stop** — the `/proc` stop directive, honoured last:
//!    "/proc gets the last word."
//!
//! A resumed LWP re-enters `issig()`; the `sig_stop_taken` /
//! `ptrace_stop_taken` latches make the gates one-shot per current
//! signal, which is exactly what lets a process "stop twice due to
//! receipt of a job-control stop signal".

use crate::event::Event;
use crate::kernel::Kernel;
use crate::proc::{StopWhy, Tid};
use crate::signal::{
    default_dispo, is_stop_signal, DefaultDispo, Handler, SigSet, SIGKILL, SIGSEGV,
};
use vfs::Pid;

/// Outcome of `issig()` at user return.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Issig {
    /// The LWP stopped; do not run user code.
    Stop,
    /// Deliver this signal via `psig()`.
    Deliver(usize),
    /// Nothing to do; return to user code.
    Run,
}

/// Outcome of `issig()` inside an interruptible sleep.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SleepSig {
    /// The LWP stopped inside the sleep; the system call is undisturbed
    /// and resumes sleeping when the LWP is set running again.
    Stop,
    /// Terminate the system call with `EINTR`.
    Interrupt,
    /// Spurious wakeup; retry the operation (and possibly sleep again) —
    /// "the operation of wakeup runs all the processes sleeping on the
    /// channel, so a newly awakened process has to ask the question
    /// again".
    Retry,
}

/// Outcome of `psig()`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Psig {
    /// A handler frame was pushed; resume user code at the handler.
    Handled,
    /// The default action terminates the process with this wait-status.
    Terminated(u16),
    /// The signal evaporated (ignored, or continue).
    Nothing,
}

/// Byte length of a signal delivery frame on the user stack:
/// `[pc, psr, held[0], held[1], sig]`.
pub const SIGFRAME_LEN: u64 = 40;

impl Kernel {
    /// Promotes a pending signal to current if none is current. Returns
    /// the current signal, if any.
    fn promote(&mut self, pid: Pid, tid: Tid) -> Option<usize> {
        let proc = self.procs.get_mut(&pid.0)?;
        let (cursig, held) = {
            let lwp = proc.lwp(tid)?;
            (lwp.cursig, lwp.held)
        };
        // Every quantum ends here, and almost never with a signal
        // pending, so the promotion mask — ignored signals are not
        // promotable unless traced (tracing must observe them) — is
        // built only when there is something to promote.
        if cursig.is_none() && !proc.pending.is_empty() {
            let mut ignored = proc.actions.ignored_set();
            ignored.subtract(&proc.trace.sig_trace);
            if let Some(sig) = proc.pending.first_not_in(&held, &ignored) {
                proc.pending.del(sig);
                let lwp = proc.lwp_mut(tid)?;
                lwp.cursig = Some(sig);
                lwp.sig_stop_taken = false;
                lwp.ptrace_stop_taken = false;
            }
        }
        proc.lwp(tid)?.cursig
    }

    /// The common gate sequence. `in_sleep` moves the requested-stop
    /// check to the front (a directed stop must not disturb the sleeping
    /// system call) and converts delivery into `Interrupt`.
    fn issig_gates(&mut self, pid: Pid, tid: Tid, in_sleep: bool) -> Issig {
        // Requested stop first when sleeping.
        if in_sleep && self.take_directive(pid, tid) {
            self.stop_lwp(pid, tid, StopWhy::Requested);
            return Issig::Stop;
        }
        while let Some(sig) = self.promote(pid, tid) {
            if sig == SIGKILL {
                // SIGKILL cannot be traced, held or ignored; deliver now.
                return Issig::Deliver(sig);
            }
            let (traced, taken, ptraced, ptaken, handler) = {
                let proc = match self.proc(pid) {
                    Ok(p) => p,
                    Err(_) => return Issig::Run,
                };
                let lwp = match proc.lwp(tid) {
                    Some(l) => l,
                    None => return Issig::Run,
                };
                (
                    proc.trace.sig_trace.has(sig),
                    lwp.sig_stop_taken,
                    proc.ptraced,
                    lwp.ptrace_stop_taken,
                    proc.actions.get(sig).handler,
                )
            };
            // Gate: signalled stop.
            if traced && !taken {
                if let Ok(p) = self.proc_mut(pid) {
                    if let Some(l) = p.lwp_mut(tid) {
                        l.sig_stop_taken = true;
                    }
                }
                self.stop_lwp(pid, tid, StopWhy::Signalled(sig));
                return Issig::Stop;
            }
            // Gate: ptrace stop — "when controlled via ptrace, a process
            // stops on receipt of any signal".
            if ptraced && !ptaken {
                if let Ok(p) = self.proc_mut(pid) {
                    if let Some(l) = p.lwp_mut(tid) {
                        l.ptrace_stop_taken = true;
                    }
                }
                self.stop_lwp(pid, tid, StopWhy::Ptrace(sig));
                return Issig::Stop;
            }
            // Gate: job-control stop, taken within issig().
            if is_stop_signal(sig) && handler == Handler::Default {
                if let Ok(p) = self.proc_mut(pid) {
                    if let Some(l) = p.lwp_mut(tid) {
                        l.cursig = None;
                    }
                }
                self.stop_lwp(pid, tid, StopWhy::JobControl(sig));
                return Issig::Stop;
            }
            // The signal may have become moot: ignored (possibly it was
            // only promotable because traced), or SIGCONT whose continue
            // side effect already happened at post time.
            let moot = match handler {
                Handler::Ignore => true,
                Handler::Default => {
                    matches!(default_dispo(sig), DefaultDispo::Ignore | DefaultDispo::Continue)
                }
                Handler::Catch(_) => false,
            };
            if moot {
                if let Ok(p) = self.proc_mut(pid) {
                    if let Some(l) = p.lwp_mut(tid) {
                        l.cursig = None;
                    }
                }
                continue; // Promote the next one.
            }
            // A real signal to act on.
            return Issig::Deliver(sig);
        }
        // Requested stop last when returning to user: "/proc gets the
        // last word".
        if !in_sleep && self.take_directive(pid, tid) {
            self.stop_lwp(pid, tid, StopWhy::Requested);
            return Issig::Stop;
        }
        Issig::Run
    }

    fn take_directive(&mut self, pid: Pid, tid: Tid) -> bool {
        if let Ok(p) = self.proc_mut(pid) {
            if let Some(l) = p.lwp_mut(tid) {
                if l.stop_directive {
                    l.stop_directive = false;
                    return true;
                }
            }
        }
        false
    }

    /// `issig()` at return to user level.
    pub fn issig(&mut self, pid: Pid, tid: Tid) -> Issig {
        self.issig_gates(pid, tid, false)
    }

    /// `issig()` within an interruptible sleep: decides between stopping
    /// (without disturbing the call), interrupting with `EINTR`, and
    /// retrying.
    pub fn issig_insleep(&mut self, pid: Pid, tid: Tid) -> SleepSig {
        match self.issig_gates(pid, tid, true) {
            Issig::Stop => SleepSig::Stop,
            Issig::Deliver(_) => SleepSig::Interrupt,
            Issig::Run => SleepSig::Retry,
        }
    }

    /// `psig()` — act on the current signal: enter the handler or take
    /// the default action. The caller (the System layer) performs the
    /// actual process teardown on `Terminated`.
    pub fn psig(&mut self, pid: Pid, tid: Tid) -> Psig {
        let Ok(proc) = self.proc_mut(pid) else {
            return Psig::Nothing;
        };
        let Some(lwp) = proc.lwp_mut(tid) else {
            return Psig::Nothing;
        };
        let Some(sig) = lwp.cursig.take() else {
            return Psig::Nothing;
        };
        lwp.sig_stop_taken = false;
        lwp.ptrace_stop_taken = false;
        proc.touch();
        let action = proc.actions.get(sig);
        match action.handler {
            Handler::Catch(handler_pc) if sig != SIGKILL => {
                // Push the delivery frame onto the user stack and redirect
                // to the handler; the return address is the kernel
                // sigreturn trampoline.
                let Kernel { procs, objects, log, .. } = self;
                let Some(proc) = procs.get_mut(&pid.0) else {
                    unreachable!("pid validated at entry")
                };
                let Some(lwp_idx) = proc.lwps.iter().position(|l| l.tid == tid) else {
                    unreachable!("tid validated at entry")
                };
                let (pc, psr, held, sp) = {
                    let l = &proc.lwps[lwp_idx];
                    (l.gregs.pc, l.gregs.psr, l.held, l.gregs.sp())
                };
                let new_sp = sp.wrapping_sub(SIGFRAME_LEN);
                let mut frame = Vec::with_capacity(SIGFRAME_LEN as usize);
                frame.extend_from_slice(&pc.to_le_bytes());
                frame.extend_from_slice(&psr.to_le_bytes());
                frame.extend_from_slice(&held.to_bytes());
                frame.extend_from_slice(&(sig as u64).to_le_bytes());
                if proc.aspace.kernel_write(objects, new_sp, &frame).is_err() {
                    // Unable to build the frame (bad stack): the process
                    // dies as if by SIGSEGV with a core dump.
                    log.push(Event::CoreDump { pid, sig: SIGSEGV });
                    return Psig::Terminated(Kernel::status_signalled(SIGSEGV, true));
                }
                let l = &mut proc.lwps[lwp_idx];
                l.gregs.set_sp(new_sp);
                l.gregs.pc = handler_pc;
                l.gregs.set_arg(0, sig as u64);
                l.gregs.set_r(isa::REG_RA, crate::aout::SIGRETURN_ADDR);
                l.held.union_with(&action.mask);
                l.held.add(sig);
                log.push(Event::SigDeliver { pid, sig, handled: true });
                Psig::Handled
            }
            _ => {
                let dispo = if action.handler == Handler::Ignore {
                    DefaultDispo::Ignore
                } else {
                    default_dispo(sig)
                };
                match dispo {
                    DefaultDispo::Terminate => {
                        self.log.push(Event::SigDeliver { pid, sig, handled: false });
                        Psig::Terminated(Kernel::status_signalled(sig, false))
                    }
                    DefaultDispo::Core => {
                        self.log.push(Event::SigDeliver { pid, sig, handled: false });
                        self.log.push(Event::CoreDump { pid, sig });
                        Psig::Terminated(Kernel::status_signalled(sig, true))
                    }
                    // Stop is taken inside issig(); Ignore/Continue
                    // evaporate.
                    DefaultDispo::Stop | DefaultDispo::Ignore | DefaultDispo::Continue => {
                        Psig::Nothing
                    }
                }
            }
        }
    }

    /// Restores state from a signal frame (`sigreturn`, entered via the
    /// kernel trampoline address). Returns false if the frame is
    /// unreadable (the process should die with SIGSEGV).
    pub fn sigreturn(&mut self, pid: Pid, tid: Tid) -> bool {
        let Kernel { procs, objects, .. } = self;
        let Some(proc) = procs.get_mut(&pid.0) else {
            return false;
        };
        let Some(lwp_idx) = proc.lwps.iter().position(|l| l.tid == tid) else {
            return false;
        };
        let sp = proc.lwps[lwp_idx].gregs.sp();
        let mut frame = [0u8; SIGFRAME_LEN as usize];
        if proc.aspace.kernel_read(objects, sp, &mut frame).is_err() {
            return false;
        }
        let l = &mut proc.lwps[lwp_idx];
        l.gregs.pc = crate::bytes::le_u64(&frame[0..8]);
        l.gregs.psr = crate::bytes::le_u64(&frame[8..16]);
        let Some(held) = SigSet::from_bytes(&frame[16..32]) else {
            return false;
        };
        l.held = held;
        l.gregs.set_sp(sp + SIGFRAME_LEN);
        proc.touch();
        true
    }

    /// Sets the current signal directly (`PIOCSSIG`). A signal of 0 (or
    /// `None`) clears it.
    pub fn set_cursig(&mut self, pid: Pid, tid: Tid, sig: Option<usize>) -> vfs::SysResult<()> {
        let proc = self.proc_mut(pid)?;
        let lwp = proc.lwp_mut(tid).ok_or(vfs::Errno::ESRCH)?;
        lwp.cursig = sig.filter(|&s| s != 0);
        lwp.sig_stop_taken = false;
        lwp.ptrace_stop_taken = false;
        proc.touch();
        Ok(())
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;
    use crate::proc::LwpState;
    use crate::signal::{SigAction, SIGINT, SIGTSTP};
    use vfs::Cred;

    fn boot() -> (Kernel, Pid) {
        let mut k = Kernel::new();
        let p0 = k.new_proc(Pid(0), Pid(0), Pid(0), Cred::superuser(), "sched", true);
        let pid = k.new_proc(p0, p0, p0, Cred::new(100, 10), "t", false);
        (k, pid)
    }

    const T: Tid = Tid(1);

    #[test]
    fn no_signal_no_stop_runs() {
        let (mut k, pid) = boot();
        assert_eq!(k.issig(pid, T), Issig::Run);
    }

    #[test]
    fn untraced_terminating_signal_delivers() {
        let (mut k, pid) = boot();
        k.post_signal(pid, SIGINT).expect("post");
        assert_eq!(k.issig(pid, T), Issig::Deliver(SIGINT));
        // psig default-terminates.
        assert_eq!(k.psig(pid, T), Psig::Terminated(Kernel::status_signalled(SIGINT, false)));
    }

    #[test]
    fn traced_signal_stops_then_delivers_if_not_cleared() {
        let (mut k, pid) = boot();
        k.proc_mut(pid).expect("p").trace.sig_trace.add(SIGINT);
        k.post_signal(pid, SIGINT).expect("post");
        assert_eq!(k.issig(pid, T), Issig::Stop);
        assert_eq!(k.proc(pid).expect("p").rep_lwp().stop_why(), Some(StopWhy::Signalled(SIGINT)));
        // Resume without clearing: the stop is one-shot, so the signal is
        // now delivered.
        k.run_lwp(pid, T, crate::kernel::RunOpts::default()).expect("run");
        assert_eq!(k.issig(pid, T), Issig::Deliver(SIGINT));
    }

    #[test]
    fn traced_signal_cleared_on_resume_runs() {
        let (mut k, pid) = boot();
        k.proc_mut(pid).expect("p").trace.sig_trace.add(SIGINT);
        k.post_signal(pid, SIGINT).expect("post");
        assert_eq!(k.issig(pid, T), Issig::Stop);
        k.run_lwp(pid, T, crate::kernel::RunOpts { clear_sig: true, ..Default::default() })
            .expect("run");
        assert_eq!(k.issig(pid, T), Issig::Run, "cleared signal leaves nothing to do");
    }

    #[test]
    fn held_signal_not_promoted() {
        let (mut k, pid) = boot();
        k.proc_mut(pid).expect("p").lwps[0].held.add(SIGINT);
        k.post_signal(pid, SIGINT).expect("post");
        assert_eq!(k.issig(pid, T), Issig::Run);
        assert!(k.proc(pid).expect("p").pending.has(SIGINT), "stays pending");
    }

    #[test]
    fn ignored_but_traced_signal_stops_then_evaporates() {
        let (mut k, pid) = boot();
        {
            let p = k.proc_mut(pid).expect("p");
            p.trace.sig_trace.add(SIGINT);
            p.actions.set(SIGINT, SigAction { handler: Handler::Ignore, mask: SigSet::empty() });
        }
        k.post_signal(pid, SIGINT).expect("post");
        assert_eq!(k.issig(pid, T), Issig::Stop, "tracing sees ignored signals");
        k.run_lwp(pid, T, crate::kernel::RunOpts::default()).expect("run");
        assert_eq!(k.issig(pid, T), Issig::Run, "ignored signal evaporates after the stop");
        assert_eq!(k.proc(pid).expect("p").rep_lwp().cursig, None);
    }

    #[test]
    fn job_control_double_stop() {
        // "A process may stop twice due to receipt of a job-control stop
        // signal, first on a signalled stop if the signal is being traced
        // and again on a job-control stop if the process is set running
        // without clearing the signal."
        let (mut k, pid) = boot();
        k.proc_mut(pid).expect("p").trace.sig_trace.add(SIGTSTP);
        k.post_signal(pid, SIGTSTP).expect("post");
        assert_eq!(k.issig(pid, T), Issig::Stop);
        assert_eq!(k.proc(pid).expect("p").rep_lwp().stop_why(), Some(StopWhy::Signalled(SIGTSTP)));
        k.run_lwp(pid, T, crate::kernel::RunOpts::default()).expect("run");
        assert_eq!(k.issig(pid, T), Issig::Stop);
        assert_eq!(
            k.proc(pid).expect("p").rep_lwp().stop_why(),
            Some(StopWhy::JobControl(SIGTSTP))
        );
        // Released only by SIGCONT; /proc cannot resume it.
        assert_eq!(k.run_lwp(pid, T, crate::kernel::RunOpts::default()), Err(vfs::Errno::EBUSY));
        k.post_signal(pid, crate::signal::SIGCONT).expect("post");
        assert_eq!(k.proc(pid).expect("p").rep_lwp().state, LwpState::Runnable);
        assert_eq!(k.issig(pid, T), Issig::Run);
    }

    #[test]
    fn proc_gets_the_last_word_after_sigcont() {
        // Directed to stop while job-control stopped: when restarted by
        // SIGCONT it stops again on a requested stop before exiting
        // issig().
        let (mut k, pid) = boot();
        k.post_signal(pid, SIGTSTP).expect("post");
        assert_eq!(k.issig(pid, T), Issig::Stop, "job-control stop");
        k.direct_stop(pid).expect("direct");
        k.post_signal(pid, crate::signal::SIGCONT).expect("cont");
        assert_eq!(k.issig(pid, T), Issig::Stop, "requested stop has the last word");
        assert_eq!(k.proc(pid).expect("p").rep_lwp().stop_why(), Some(StopWhy::Requested));
    }

    #[test]
    fn ptrace_after_proc_ordering() {
        let (mut k, pid) = boot();
        {
            let p = k.proc_mut(pid).expect("p");
            p.ptraced = true;
            p.trace.sig_trace.add(SIGINT);
        }
        k.post_signal(pid, SIGINT).expect("post");
        // /proc signalled stop first.
        assert_eq!(k.issig(pid, T), Issig::Stop);
        assert_eq!(k.proc(pid).expect("p").rep_lwp().stop_why(), Some(StopWhy::Signalled(SIGINT)));
        // Set running through /proc: now ptrace takes control.
        k.run_lwp(pid, T, crate::kernel::RunOpts::default()).expect("run");
        assert_eq!(k.issig(pid, T), Issig::Stop);
        assert_eq!(k.proc(pid).expect("p").rep_lwp().stop_why(), Some(StopWhy::Ptrace(SIGINT)));
        // /proc cannot resume a ptrace stop.
        assert_eq!(k.run_lwp(pid, T, crate::kernel::RunOpts::default()), Err(vfs::Errno::EBUSY));
    }

    #[test]
    fn directive_checked_first_in_sleep() {
        let (mut k, pid) = boot();
        k.proc_mut(pid).expect("p").lwps[0].stop_directive = true;
        assert_eq!(k.issig_insleep(pid, T), SleepSig::Stop);
        // After resume, a retry continues the sleep undisturbed.
        k.run_lwp(pid, T, crate::kernel::RunOpts::default()).expect("run");
        assert_eq!(k.issig_insleep(pid, T), SleepSig::Retry);
    }

    #[test]
    fn real_signal_interrupts_sleep() {
        let (mut k, pid) = boot();
        k.post_signal(pid, SIGINT).expect("post");
        assert_eq!(k.issig_insleep(pid, T), SleepSig::Interrupt);
        // The current signal survives for the at-user-return issig — "a
        // second signal is not promoted".
        assert_eq!(k.proc(pid).expect("p").rep_lwp().cursig, Some(SIGINT));
    }

    #[test]
    fn traced_signal_stops_inside_sleep_then_interrupts_or_resumes() {
        let (mut k, pid) = boot();
        k.proc_mut(pid).expect("p").trace.sig_trace.add(SIGINT);
        k.post_signal(pid, SIGINT).expect("post");
        assert_eq!(k.issig_insleep(pid, T), SleepSig::Stop, "signalled stop in sleep");
        // Debugger clears the signal: the call resumes sleeping.
        k.run_lwp(pid, T, crate::kernel::RunOpts { clear_sig: true, ..Default::default() })
            .expect("run");
        assert_eq!(k.issig_insleep(pid, T), SleepSig::Retry);
        // Second round: not cleared → EINTR.
        k.post_signal(pid, SIGINT).expect("post");
        assert_eq!(k.issig_insleep(pid, T), SleepSig::Stop);
        k.run_lwp(pid, T, crate::kernel::RunOpts::default()).expect("run");
        assert_eq!(k.issig_insleep(pid, T), SleepSig::Interrupt);
    }

    #[test]
    fn sigkill_overrides_everything() {
        let (mut k, pid) = boot();
        k.proc_mut(pid).expect("p").trace.sig_trace.add(SIGKILL); // futile
        k.post_signal(pid, SIGKILL).expect("post");
        assert_eq!(k.issig(pid, T), Issig::Deliver(SIGKILL));
        assert_eq!(k.psig(pid, T), Psig::Terminated(Kernel::status_signalled(SIGKILL, false)));
    }

    #[test]
    fn handler_delivery_builds_frame_and_sigreturn_restores() {
        let (mut k, pid) = boot();
        // Give the process a stack.
        {
            let Kernel { procs, objects, .. } = &mut k;
            let p = procs.get_mut(&pid.0).expect("p");
            let obj = objects.alloc_anon(0x4000);
            p.aspace
                .map_fixed(
                    0x10000,
                    0x4000,
                    vm::Prot::RW,
                    vm::MapFlags::default(),
                    obj,
                    0,
                    vm::SegName::Stack,
                )
                .expect("map");
            p.lwps[0].gregs.set_sp(0x13000);
            p.lwps[0].gregs.pc = 0x999000;
            p.actions.set(
                SIGINT,
                SigAction { handler: Handler::Catch(0x555000), mask: SigSet::empty() },
            );
        }
        k.post_signal(pid, SIGINT).expect("post");
        assert_eq!(k.issig(pid, T), Issig::Deliver(SIGINT));
        assert_eq!(k.psig(pid, T), Psig::Handled);
        {
            let l = &k.proc(pid).expect("p").lwps[0];
            assert_eq!(l.gregs.pc, 0x555000);
            assert_eq!(l.gregs.arg(0), SIGINT as u64);
            assert_eq!(l.gregs.get(isa::REG_RA), crate::aout::SIGRETURN_ADDR);
            assert_eq!(l.gregs.sp(), 0x13000 - SIGFRAME_LEN);
            assert!(l.held.has(SIGINT), "signal held during handler");
        }
        assert!(k.sigreturn(pid, T));
        let l = &k.proc(pid).expect("p").lwps[0];
        assert_eq!(l.gregs.pc, 0x999000, "pc restored");
        assert_eq!(l.gregs.sp(), 0x13000, "sp restored");
        assert!(!l.held.has(SIGINT), "mask restored");
    }

    #[test]
    fn handler_with_bad_stack_terminates_with_core() {
        let (mut k, pid) = boot();
        k.proc_mut(pid)
            .expect("p")
            .actions
            .set(SIGINT, SigAction { handler: Handler::Catch(0x555000), mask: SigSet::empty() });
        // sp is 0: unmapped.
        k.post_signal(pid, SIGINT).expect("post");
        assert_eq!(k.issig(pid, T), Issig::Deliver(SIGINT));
        assert_eq!(k.psig(pid, T), Psig::Terminated(Kernel::status_signalled(SIGSEGV, true)));
    }

    #[test]
    fn set_cursig_resets_latches() {
        let (mut k, pid) = boot();
        {
            let l = &mut k.proc_mut(pid).expect("p").lwps[0];
            l.cursig = Some(SIGINT);
            l.sig_stop_taken = true;
        }
        k.set_cursig(pid, T, Some(SIGTSTP)).expect("set");
        let l = &k.proc(pid).expect("p").lwps[0];
        assert_eq!(l.cursig, Some(SIGTSTP));
        assert!(!l.sig_stop_taken);
        k.set_cursig(pid, T, None).expect("clear");
        assert_eq!(k.proc(pid).expect("p").lwps[0].cursig, None);
    }
}
