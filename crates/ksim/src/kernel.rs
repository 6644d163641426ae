//! The kernel: process table, clock, open-file and pipe tables, page
//! cache, and the low-level process-control primitives (signal posting,
//! stopping, resuming, wakeups).
//!
//! File-system-dependent operations (exec, exit's descriptor teardown,
//! the system-call layer) live one level up in [`crate::system::System`],
//! which owns both the kernel and the mounted file systems.

use crate::aout::Aout;
use crate::event::{Event, EventLog};
use crate::fd::{FileTable, PipeTable};
use crate::proc::{Lwp, LwpState, Proc, StopWhy, Tid, WaitChannel};
use crate::signal::{is_stop_signal, SigSet, SIGCONT, SIGKILL};
use std::collections::BTreeSet;
use vfs::{Cred, Errno, Pid, SysResult};
use vm::ObjectStore;

/// Simulated clock ticks per "second" (used by `alarm`, `time` and the
/// timestamps in `ps` output). One tick is one retired instruction.
pub const HZ: u64 = 10_000;

/// Cached executable image: the parsed a.out plus the shared page-cache
/// objects for its sections, so every process running one program shares
/// text pages (private mappings of a common object).
#[derive(Clone, Debug)]
pub struct CachedImage {
    /// Parsed image.
    pub aout: Aout,
    /// Page-cache object for the text section.
    pub text_obj: vm::ObjectId,
    /// Page-cache object for the data section.
    pub data_obj: vm::ObjectId,
}

/// Run options accepted when resuming a stopped LWP (`PIOCRUN` /
/// `PCRUN`).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct RunOpts {
    /// Clear the current signal (`PRCSIG`).
    pub clear_sig: bool,
    /// Clear the current fault (`PRCFAULT`).
    pub clear_fault: bool,
    /// Abort the system call stopped at entry (`PRSABORT`).
    pub abort_syscall: bool,
    /// Single-step: stop on `FLTTRACE` after one instruction (`PRSTEP`).
    pub step: bool,
    /// Resume, then stop again at the next `issig()` (`PRSTOP`).
    pub stop_again: bool,
    /// Complete the first access that would fire a watchpoint instead of
    /// stopping (used to step over a watched access).
    pub bypass_watch_once: bool,
    /// Resume execution at this address instead of the saved PC.
    pub set_pc: Option<u64>,
}

/// The kernel state.
#[derive(Debug, Default)]
pub struct Kernel {
    /// All processes, keyed by pid for deterministic iteration order.
    pub procs: std::collections::BTreeMap<u32, Proc>,
    next_pid: u32,
    /// The system open-file table.
    pub files: FileTable,
    /// Pipes.
    pub pipes: PipeTable,
    /// The VM page cache / anonymous object store.
    pub objects: ObjectStore,
    /// Simulated clock, in ticks (1 tick = 1 retired instruction).
    pub clock: u64,
    /// The event log.
    pub log: EventLog,
    /// Bumped on every pollable state change; `poll` sleepers retry when
    /// it moves.
    pub poll_gen: u64,
    /// Bumped whenever the process table changes shape (create, exit,
    /// reap). `/proc` directory listings are cached against this value.
    pub table_gen: u64,
    /// Image cache keyed by `(fs, node)`.
    pub images: std::collections::HashMap<(u32, u64), CachedImage>,
    /// Installed kernel fault schedule; `None` (the default) means the
    /// kernel never injects a fault and consumes no generator state.
    pub fault_plan: Option<crate::kfault::KernelFaultPlan>,
    /// Execution fast path (software TLB + superblocks) for newly
    /// created processes. On by default; the differential oracle turns
    /// it off fleet-wide via `System::set_fast_path`.
    pub fast_path: bool,
    /// Attached input recorder; `None` means the run is not recorded.
    /// Boxed: the recorder carries the whole input log plus snapshots,
    /// and most kernels never have one.
    pub recorder: Option<Box<crate::record::Recorder>>,
    /// In-flight inbound migration transfers (`PIOCMIGRATE`), keyed by
    /// transfer id. BTreeMap for deterministic iteration.
    pub migrations: std::collections::BTreeMap<u64, crate::migrate::MigXfer>,
    /// Migration protocol counters (`PIOCMIGSTATS`).
    pub mig_stats: crate::migrate::MigStats,
    /// Pending `alarm`/`sleep` deadlines, lazily validated on pop so the
    /// scheduler's timer check is O(1) when nothing is due.
    pub deadlines: crate::deadline::DeadlineHeap,
    /// Completed scheduler rounds; seeds the per-round commit
    /// permutation and rotates LWP selection, so it must travel with
    /// snapshots to keep `goto_tick` deterministic.
    pub sched_rounds: u64,
    /// The run queue: every pid with a `Runnable` LWP, and possibly
    /// others. Each transition to `Runnable` inserts through
    /// [`Kernel::make_runnable`]; the gang round drops the pids it finds
    /// with nothing to run, so a round never looks at a sleeping
    /// process.
    pub runq: BTreeSet<u32>,
    /// Every pid with an LWP asleep on a channel other than `Ticks`
    /// (those wait in `deadlines`), and possibly others. Inserted at the
    /// sleep site; [`Kernel::wake_channel`] walks only these and drops
    /// the pids left with no such sleeper.
    pub sleepers: BTreeSet<u32>,
    /// Every exited, unreaped pid, and possibly reaped ones. Inserted by
    /// `do_exit`; init's autoreap walks only these.
    pub zombies: BTreeSet<u32>,
}

// A manual impl so `clone()` *is* the copy-on-write snapshot operation:
// page frames are `Arc`-shared (`vm::PageFrame`), so the deep clone of
// the object store and every address space is cheap until either side
// writes. The recorder deliberately does not travel — a snapshot is a
// passive state capture, not a second recording in progress (and cloning
// it would recursively clone every prior snapshot it holds).
impl Clone for Kernel {
    fn clone(&self) -> Kernel {
        Kernel {
            procs: self.procs.clone(),
            next_pid: self.next_pid,
            files: self.files.clone(),
            pipes: self.pipes.clone(),
            objects: self.objects.clone(),
            clock: self.clock,
            log: self.log.clone(),
            poll_gen: self.poll_gen,
            table_gen: self.table_gen,
            images: self.images.clone(),
            fault_plan: self.fault_plan.clone(),
            fast_path: self.fast_path,
            recorder: None,
            migrations: self.migrations.clone(),
            mig_stats: self.mig_stats,
            deadlines: self.deadlines.clone(),
            sched_rounds: self.sched_rounds,
            runq: self.runq.clone(),
            sleepers: self.sleepers.clone(),
            zombies: self.zombies.clone(),
        }
    }
}

impl Kernel {
    /// A kernel with an empty process table; pids start at 0.
    pub fn new() -> Kernel {
        Kernel { next_pid: 0, fast_path: true, ..Default::default() }
    }

    /// Allocates the next pid.
    pub fn alloc_pid(&mut self) -> Pid {
        let pid = Pid(self.next_pid);
        self.next_pid += 1;
        pid
    }

    /// A copy-on-write snapshot of the kernel: a deep clone whose page
    /// frames are shared until written, with no recorder attached.
    pub fn snapshot(&self) -> Box<Kernel> {
        Box::new(self.clone())
    }

    /// The recorder counters (`PIOCRECSTATS` answers with these); all
    /// zero when the run is not recorded.
    pub fn rec_stats(&self) -> crate::record::RecStats {
        self.recorder.as_ref().map(|r| r.stats).unwrap_or_default()
    }

    /// The fault-injection counters, with the object store's pressure
    /// denials merged in. All zero when no plan is installed; this is
    /// what `PIOCKFAULTSTATS` replies with.
    pub fn kfault_stats(&self) -> crate::kfault::KFaultStats {
        let mut st = self.fault_plan.as_ref().map(|p| p.stats).unwrap_or_default();
        st.enomem_vm = self.objects.pressure_denials();
        st
    }

    /// Looks up a live (non-reaped) process.
    pub fn proc(&self, pid: Pid) -> SysResult<&Proc> {
        self.procs.get(&pid.0).ok_or(Errno::ESRCH)
    }

    /// Looks up a process mutably.
    pub fn proc_mut(&mut self, pid: Pid) -> SysResult<&mut Proc> {
        self.procs.get_mut(&pid.0).ok_or(Errno::ESRCH)
    }

    /// Creates a process shell (no address space content, one LWP at
    /// pc 0) and inserts it. Used by boot and by `fork`, which then
    /// replaces the pieces.
    #[allow(clippy::too_many_arguments)]
    pub fn new_proc(
        &mut self,
        ppid: Pid,
        pgrp: Pid,
        sid: Pid,
        cred: Cred,
        fname: &str,
        hosted: bool,
    ) -> Pid {
        let pid = self.alloc_pid();
        let lwp = Lwp::new(Tid(1), 0, 0);
        let mut aspace = vm::AddressSpace::new();
        aspace.set_fast_path(self.fast_path);
        let proc = Proc {
            pid,
            ppid,
            pgrp,
            sid,
            cred,
            aspace,
            fds: crate::fd::FdTable::new(),
            lwps: vec![lwp],
            next_tid: 2,
            pending: SigSet::empty(),
            actions: crate::signal::ActionTable::new(),
            trace: crate::proc::TraceState::default(),
            fname: fname.to_string(),
            psargs: fname.to_string(),
            cwd: "/".to_string(),
            umask: 0o022,
            nice: 0,
            start_time: self.clock,
            cpu_time: 0,
            hosted,
            zombie: false,
            exit_status: 0,
            exec_gen: 0,
            ptraced: false,
            stop_reported: false,
            alarm_at: None,
            vfork_parent: None,
            pr_gen: 0,
        };
        self.procs.insert(pid.0, proc);
        self.runq.insert(pid.0);
        self.table_gen = self.table_gen.wrapping_add(1);
        pid
    }

    /// Makes `lwp` of process `pid` runnable and puts `pid` on the run
    /// queue: the one way an existing LWP becomes `Runnable` (a new LWP
    /// starts runnable, and its creator inserts the pid). It takes the
    /// queue rather than `&mut self` so callers can hold the LWP.
    pub fn make_runnable(runq: &mut BTreeSet<u32>, pid: Pid, lwp: &mut Lwp) {
        lwp.state = LwpState::Runnable;
        runq.insert(pid.0);
    }

    /// True if `sender` may signal `target` (effective or real uid match,
    /// or super-user).
    pub fn kill_permitted(sender: &Cred, target: &Cred) -> bool {
        sender.is_superuser()
            || sender.euid == target.ruid
            || sender.euid == target.euid
            || sender.ruid == target.ruid
    }

    /// Posts signal `sig` to process `pid` — the "generated" half of the
    /// paper's generated/received distinction. The process stops (or
    /// not) only when it *receives* the signal in `issig()`.
    pub fn post_signal(&mut self, pid: Pid, sig: usize) -> SysResult<()> {
        if sig == 0 || sig >= SigSet::capacity() {
            return Err(Errno::EINVAL);
        }
        let proc = self.procs.get_mut(&pid.0).ok_or(Errno::ESRCH)?;
        if proc.zombie {
            return Ok(());
        }
        proc.touch();
        if sig == SIGCONT {
            // SIGCONT discards pending stop signals and releases
            // job-control stops immediately (its "continue" side effect
            // happens at generation time).
            for s in [23usize, 24, 26, 27] {
                proc.pending.del(s);
            }
            for lwp in &mut proc.lwps {
                if matches!(lwp.state, LwpState::Stopped(StopWhy::JobControl(_))) {
                    Kernel::make_runnable(&mut self.runq, pid, lwp);
                    lwp.user_return_pending = true;
                }
            }
        }
        if is_stop_signal(sig) {
            proc.pending.del(SIGCONT);
        }
        let ignored = proc.actions.is_ignored(sig);
        let deliverable_somewhere = sig == SIGKILL || (!ignored || proc.trace.sig_trace.has(sig));
        if sig == SIGKILL || !ignored || proc.trace.sig_trace.has(sig) {
            proc.pending.add(sig);
        }
        // Wake interruptible sleepers so they can act on it; SIGKILL
        // additionally breaks every stop.
        for lwp in &mut proc.lwps {
            match &lwp.state {
                LwpState::Sleeping { interruptible: true, .. } if deliverable_somewhere => {
                    let held = lwp.held.has(sig) && sig != SIGKILL;
                    if !held {
                        Kernel::make_runnable(&mut self.runq, pid, lwp);
                        lwp.sleep_interrupted = true;
                    }
                }
                LwpState::Stopped(_) if sig == SIGKILL => {
                    Kernel::make_runnable(&mut self.runq, pid, lwp);
                    lwp.user_return_pending = true;
                }
                _ => {}
            }
        }
        self.log.push(Event::SigPost { pid, sig });
        self.wake_pollers();
        Ok(())
    }

    /// Stops an LWP with the given reason, logging and waking anything
    /// waiting for the stop.
    pub fn stop_lwp(&mut self, pid: Pid, tid: Tid, why: StopWhy) {
        if let Ok(proc) = self.proc_mut(pid) {
            proc.touch();
            if let Some(lwp) = proc.lwp_mut(tid) {
                lwp.state = LwpState::Stopped(why);
            }
            if matches!(why, StopWhy::Ptrace(_) | StopWhy::JobControl(_)) {
                proc.stop_reported = false;
                // The parent may be in wait().
                let ppid = proc.ppid;
                self.wake_channel(WaitChannel::Child(ppid));
            }
        }
        self.log.push(Event::Stop { pid, tid, why });
        self.wake_channel(WaitChannel::ProcStop(pid));
        self.wake_pollers();
    }

    /// Resumes a stopped LWP (`PIOCRUN`). Fails with `EBUSY` if the LWP
    /// is not stopped, or is stopped for ptrace ("ptrace has control") or
    /// job control (only `SIGCONT` releases those).
    pub fn run_lwp(&mut self, pid: Pid, tid: Tid, opts: RunOpts) -> SysResult<()> {
        let proc = self.procs.get_mut(&pid.0).ok_or(Errno::ESRCH)?;
        // A failed resume leaves state untouched; the spurious bump on
        // the error paths below merely costs one cache refill.
        proc.touch();
        let Some(lwp) = proc.lwp_mut(tid) else {
            return Err(Errno::ESRCH);
        };
        let was = match lwp.state {
            LwpState::Stopped(StopWhy::Ptrace(_)) | LwpState::Stopped(StopWhy::JobControl(_)) => {
                return Err(Errno::EBUSY);
            }
            LwpState::Stopped(why) => why,
            _ => return Err(Errno::EBUSY),
        };
        if opts.clear_sig {
            lwp.cursig = None;
            lwp.sig_stop_taken = false;
            lwp.ptrace_stop_taken = false;
        }
        if opts.clear_fault {
            lwp.last_fault = None;
        }
        if opts.abort_syscall {
            if let Some(ctx) = &mut lwp.syscall {
                ctx.abort = true;
            }
        }
        if opts.step {
            lwp.single_step = true;
        }
        if opts.stop_again {
            lwp.stop_directive = true;
        }
        if let Some(pc) = opts.set_pc {
            lwp.gregs.pc = pc;
        }
        Kernel::make_runnable(&mut self.runq, pid, lwp);
        // Unless the LWP is mid-system-call (entry stop, sleep retry or
        // exit stop — those paths resume inside the call), it must pass
        // issig() before touching user code.
        if lwp.syscall.is_none() {
            lwp.user_return_pending = true;
        }
        if opts.bypass_watch_once {
            proc.aspace.watch_bypass_once = true;
        }
        // Resuming a faulted stop without clearing the fault converts it
        // to its signal (the instruction would otherwise re-execute and
        // re-fault forever); with PRCFAULT the instruction simply
        // re-executes.
        if let StopWhy::Faulted(fault) = was {
            if !opts.clear_fault {
                if let Some(lwp) = proc.lwp_mut(tid) {
                    lwp.last_fault = None;
                }
                let sig = fault.default_signal();
                self.log.push(Event::Run { pid, tid });
                let _ = self.post_signal(pid, sig);
                return Ok(());
            }
        }
        self.log.push(Event::Run { pid, tid });
        Ok(())
    }

    /// Directs every LWP of `pid` to stop (`PIOCSTOP`/`PCDSTOP` without
    /// the wait). Sleeping LWPs are woken so the stop happens promptly
    /// ("a process can be directed to stop while it is sleeping").
    pub fn direct_stop(&mut self, pid: Pid) -> SysResult<()> {
        let proc = self.procs.get_mut(&pid.0).ok_or(Errno::ESRCH)?;
        if proc.zombie {
            return Err(Errno::ESRCH);
        }
        proc.touch();
        for lwp in &mut proc.lwps {
            match &lwp.state {
                LwpState::Zombie => continue,
                // Already stopped on an event of interest: nothing to do.
                LwpState::Stopped(why) if why.is_event_stop() => continue,
                // Stopped by a competing mechanism (job control, ptrace):
                // latch the directive so that when the competing stop is
                // released the LWP "stops again on a requested stop
                // before exiting issig() — /proc gets the last word."
                LwpState::Stopped(_) => {
                    lwp.stop_directive = true;
                    continue;
                }
                LwpState::Sleeping { interruptible: true, .. } => {
                    lwp.stop_directive = true;
                    Kernel::make_runnable(&mut self.runq, pid, lwp);
                    lwp.sleep_interrupted = true;
                }
                _ => {
                    // A runnable LWP takes the stop at its next kernel
                    // entry; the quantum-expiry check guarantees that is
                    // soon.
                    lwp.stop_directive = true;
                }
            }
            lwp.user_return_pending = true;
        }
        Ok(())
    }

    /// Wakes every LWP sleeping on `chan`. Only `sleepers` is walked;
    /// a pid left with no channel sleeper leaves the set.
    pub fn wake_channel(&mut self, chan: WaitChannel) {
        #[cfg(debug_assertions)]
        for proc in self.procs.values() {
            let asleep = proc
                .lwps
                .iter()
                .any(|l| matches!(l.state, LwpState::Sleeping { chan: c, .. } if c == chan));
            assert!(
                !asleep || self.sleepers.contains(&proc.pid.0),
                "pid {} sleeps on {chan:?} but is not in the sleeper set",
                proc.pid.0
            );
        }
        let Kernel { procs, sleepers, runq, .. } = self;
        sleepers.retain(|pid| {
            let Some(proc) = procs.get_mut(pid) else { return false };
            let mut woke = false;
            let mut still_asleep = false;
            for lwp in &mut proc.lwps {
                if let LwpState::Sleeping { chan: c, .. } = lwp.state {
                    if c == chan {
                        Kernel::make_runnable(runq, Pid(*pid), lwp);
                        lwp.sleep_interrupted = false;
                        woke = true;
                    } else {
                        still_asleep |= !matches!(c, WaitChannel::Ticks(_));
                    }
                }
            }
            if woke {
                proc.touch();
            }
            still_asleep
        });
    }

    /// Wakes every `poll` sleeper (after bumping the poll generation).
    pub fn wake_pollers(&mut self) {
        self.poll_gen += 1;
        self.wake_channel(WaitChannel::PollWait);
    }

    /// True if the signal would be delivered (not held, not ignored) or
    /// is already current — the in-sleep `issig()` question.
    pub fn signal_pending_for(&self, pid: Pid, tid: Tid) -> bool {
        let Ok(proc) = self.proc(pid) else {
            return false;
        };
        let Some(lwp) = proc.lwp(tid) else {
            return false;
        };
        if lwp.cursig.is_some() {
            return true;
        }
        // Ignored signals are still promotable when traced.
        let mut ignored = proc.actions.ignored_set();
        ignored.subtract(&proc.trace.sig_trace);
        proc.pending.first_not_in(&lwp.held, &ignored).is_some()
    }

    /// Encodes a wait-status for normal exit.
    pub fn status_exited(code: u8) -> u16 {
        (code as u16) << 8
    }

    /// Encodes a wait-status for death by signal.
    pub fn status_signalled(sig: usize, core: bool) -> u16 {
        (sig as u16 & 0x7F) | if core { 0x80 } else { 0 }
    }

    /// Encodes a wait-status for a stopped (ptrace-visible) child.
    pub fn status_stopped(sig: usize) -> u16 {
        ((sig as u16) << 8) | 0x7F
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;

    fn boot_one() -> (Kernel, Pid) {
        let mut k = Kernel::new();
        let p0 = k.new_proc(Pid(0), Pid(0), Pid(0), Cred::superuser(), "sched", true);
        assert_eq!(p0, Pid(0));
        let pid = k.new_proc(p0, p0, p0, Cred::new(100, 10), "target", false);
        (k, pid)
    }

    #[test]
    fn pids_allocate_sequentially() {
        let (mut k, pid) = boot_one();
        assert_eq!(pid, Pid(1));
        assert_eq!(k.alloc_pid(), Pid(2));
    }

    #[test]
    fn post_signal_makes_pending_and_logs() {
        let (mut k, pid) = boot_one();
        k.post_signal(pid, 15).expect("post");
        assert!(k.proc(pid).expect("proc").pending.has(15));
        assert!(k
            .log
            .events()
            .iter()
            .any(|e| matches!(e, Event::SigPost { pid: p, sig: 15 } if *p == pid)));
    }

    #[test]
    fn ignored_signal_not_pended_unless_traced() {
        let (mut k, pid) = boot_one();
        // SIGCHLD default-ignored.
        k.post_signal(pid, crate::signal::SIGCHLD).expect("post");
        assert!(!k.proc(pid).expect("proc").pending.has(crate::signal::SIGCHLD));
        // Tracing it makes it pend.
        k.proc_mut(pid).expect("proc").trace.sig_trace.add(crate::signal::SIGCHLD);
        k.post_signal(pid, crate::signal::SIGCHLD).expect("post");
        assert!(k.proc(pid).expect("proc").pending.has(crate::signal::SIGCHLD));
    }

    #[test]
    fn sigcont_releases_job_control_stop() {
        let (mut k, pid) = boot_one();
        k.stop_lwp(pid, Tid(1), StopWhy::JobControl(23));
        assert!(k.proc(pid).expect("proc").is_stopped());
        k.post_signal(pid, SIGCONT).expect("post");
        let proc = k.proc(pid).expect("proc");
        assert_eq!(proc.rep_lwp().state, LwpState::Runnable);
        assert!(proc.rep_lwp().user_return_pending);
    }

    #[test]
    fn stop_signal_cancels_pending_cont_and_vice_versa() {
        let (mut k, pid) = boot_one();
        k.post_signal(pid, SIGCONT).expect("post");
        assert!(k.proc(pid).expect("p").pending.has(SIGCONT));
        k.post_signal(pid, 24).expect("post");
        let p = k.proc(pid).expect("p");
        assert!(!p.pending.has(SIGCONT));
        assert!(p.pending.has(24));
        k.post_signal(pid, SIGCONT).expect("post");
        assert!(!k.proc(pid).expect("p").pending.has(24));
    }

    #[test]
    fn sigkill_breaks_event_stops() {
        let (mut k, pid) = boot_one();
        k.stop_lwp(pid, Tid(1), StopWhy::Requested);
        k.post_signal(pid, SIGKILL).expect("post");
        assert_eq!(k.proc(pid).expect("p").rep_lwp().state, LwpState::Runnable);
    }

    #[test]
    fn run_lwp_guards() {
        let (mut k, pid) = boot_one();
        // Not stopped: EBUSY.
        assert_eq!(k.run_lwp(pid, Tid(1), RunOpts::default()), Err(Errno::EBUSY));
        // Ptrace stop: EBUSY — "ptrace has control".
        k.stop_lwp(pid, Tid(1), StopWhy::Ptrace(5));
        assert_eq!(k.run_lwp(pid, Tid(1), RunOpts::default()), Err(Errno::EBUSY));
        // Job-control stop: EBUSY — only SIGCONT restarts it.
        k.proc_mut(pid).expect("p").lwps[0].state = LwpState::Stopped(StopWhy::JobControl(23));
        assert_eq!(k.run_lwp(pid, Tid(1), RunOpts::default()), Err(Errno::EBUSY));
        // Event stop: resumable.
        k.proc_mut(pid).expect("p").lwps[0].state = LwpState::Stopped(StopWhy::Requested);
        k.run_lwp(pid, Tid(1), RunOpts::default()).expect("run");
        assert_eq!(k.proc(pid).expect("p").rep_lwp().state, LwpState::Runnable);
    }

    #[test]
    fn run_opts_apply() {
        let (mut k, pid) = boot_one();
        {
            let p = k.proc_mut(pid).expect("p");
            p.lwps[0].state = LwpState::Stopped(StopWhy::Signalled(2));
            p.lwps[0].cursig = Some(2);
            p.lwps[0].last_fault = Some(crate::fault::Fault::Bpt);
        }
        let opts = RunOpts {
            clear_sig: true,
            clear_fault: true,
            step: true,
            stop_again: true,
            set_pc: Some(0x4242),
            ..Default::default()
        };
        k.run_lwp(pid, Tid(1), opts).expect("run");
        let l = &k.proc(pid).expect("p").lwps[0];
        assert_eq!(l.cursig, None);
        assert_eq!(l.last_fault, None);
        assert!(l.single_step);
        assert!(l.stop_directive);
        assert_eq!(l.gregs.pc, 0x4242);
    }

    #[test]
    fn direct_stop_wakes_sleepers() {
        let (mut k, pid) = boot_one();
        k.proc_mut(pid).expect("p").lwps[0].state =
            LwpState::Sleeping { chan: WaitChannel::Pause, interruptible: true };
        k.direct_stop(pid).expect("stop");
        let l = &k.proc(pid).expect("p").lwps[0];
        assert_eq!(l.state, LwpState::Runnable);
        assert!(l.stop_directive);
        assert!(l.sleep_interrupted);
    }

    #[test]
    fn wait_status_encodings() {
        assert_eq!(Kernel::status_exited(3), 0x0300);
        assert_eq!(Kernel::status_signalled(9, false), 9);
        assert_eq!(Kernel::status_signalled(11, true), 11 | 0x80);
        assert_eq!(Kernel::status_stopped(5), (5 << 8) | 0x7F);
    }

    #[test]
    fn kill_permission() {
        let root = Cred::superuser();
        let a = Cred::new(100, 10);
        let b = Cred::new(200, 10);
        assert!(Kernel::kill_permitted(&root, &a));
        assert!(Kernel::kill_permitted(&a, &a));
        assert!(!Kernel::kill_permitted(&a, &b));
    }
}
