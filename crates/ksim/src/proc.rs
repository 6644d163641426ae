//! The process and LWP (lightweight process / thread) structures.
//!
//! The paper's proposed restructuring is motivated by "a process model
//! incorporating shared address spaces and multiple threads of control";
//! this kernel supports multiple LWPs per process from the start. The
//! flat `/proc` interface deliberately exposes only a representative LWP
//! (the strain the paper describes); the hierarchical interface exposes
//! them all.

use crate::fault::Fault;
use crate::fault::FltSet;
use crate::fd::FdTable;
use crate::signal::{ActionTable, SigSet};
use crate::sysno::SysSet;
use isa::{FpregSet, GregSet};
use vfs::{Cred, Errno, Pid};
use vm::AddressSpace;

/// LWP identifier, unique within its process.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Tid(pub u32);

impl std::fmt::Display for Tid {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.0)
    }
}

/// Why a stopped LWP is stopped — `pr_why`/`pr_what` of `prstatus`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum StopWhy {
    /// Directed to stop by a controlling process (`PIOCSTOP`/`PCSTOP`).
    Requested,
    /// Stopped on receipt of a traced signal.
    Signalled(usize),
    /// Job-control stop (not an event of interest to `/proc`).
    JobControl(usize),
    /// Stopped on a traced machine fault.
    Faulted(Fault),
    /// Stopped on entry to a traced system call.
    SyscallEntry(u16),
    /// Stopped on exit from a traced system call.
    SyscallExit(u16),
    /// Stopped for the competing old-style `ptrace` mechanism.
    Ptrace(usize),
}

impl StopWhy {
    /// True for stops on an event of interest (or a requested stop) — the
    /// stops `PIOCWSTOP` waits for. Job-control and ptrace stops are the
    /// "competing mechanisms" and do not qualify.
    pub fn is_event_stop(&self) -> bool {
        !matches!(self, StopWhy::JobControl(_) | StopWhy::Ptrace(_))
    }
}

/// What a sleeping LWP is waiting for.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum WaitChannel {
    /// A child of this parent pid changing state (`wait`).
    Child(Pid),
    /// Data in pipe `n`.
    PipeR(u32),
    /// Space in pipe `n`.
    PipeW(u32),
    /// Any signal (`pause`, `sigsuspend`).
    Pause,
    /// The clock reaching this tick (`nanosleep`, also `alarm` sleeps).
    Ticks(u64),
    /// The target process entering an event-of-interest stop
    /// (`PIOCWSTOP` issued by a simulated process).
    ProcStop(Pid),
    /// A vforked child (this pid) exec-ing or exiting.
    VforkDone(Pid),
    /// Any pollable state change (`poll`).
    PollWait,
}

/// Progress of an in-flight system call.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum SysPhase {
    /// About to (re)dispatch; possibly stopped at the entry point.
    Entry,
    /// Blocked inside the call.
    Sleeping,
    /// The call finished with this result; return values are already in
    /// the saved registers; possibly stopped at the exit point.
    Exit(Result<u64, Errno>),
}

/// An in-flight system call, kept across entry stops, sleeps and exit
/// stops so the call can be restarted, aborted or resumed.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SyscallCtx {
    /// The call number as trapped (the dispatcher re-reads arguments from
    /// the registers each time, so a debugger stopped at entry can change
    /// them).
    pub nr: u16,
    /// Address of the `SYSCALL` instruction (`pc - 8` at trap time).
    pub insn_pc: u64,
    /// Where the call currently is.
    pub phase: SysPhase,
    /// `PRSABORT` was latched while stopped at entry: the call must be
    /// aborted with `EINTR` without executing.
    pub abort: bool,
    /// The entry stop was already taken (it is one-shot per call).
    pub entry_stop_taken: bool,
    /// Absolute wake tick for `nanosleep` (persisted across retries).
    pub deadline: Option<u64>,
    /// The child created by `fork`/`vfork` (so a vfork retry after the
    /// child releases the parent returns the pid instead of forking
    /// again).
    pub forked_child: Option<Pid>,
    /// Held-signal mask to restore when the call finishes
    /// (`sigsuspend`).
    pub saved_hold: Option<SigSet>,
}

impl SyscallCtx {
    /// A fresh context at the entry phase.
    pub fn new(nr: u16, insn_pc: u64) -> SyscallCtx {
        SyscallCtx {
            nr,
            insn_pc,
            phase: SysPhase::Entry,
            abort: false,
            entry_stop_taken: false,
            deadline: None,
            forked_child: None,
            saved_hold: None,
        }
    }
}

/// Scheduling state of an LWP.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum LwpState {
    /// Eligible to run.
    Runnable,
    /// Blocked on a wait channel.
    Sleeping {
        /// What it waits for.
        chan: WaitChannel,
        /// Whether signals (and stop directives) interrupt the sleep.
        interruptible: bool,
    },
    /// Stopped; see [`StopWhy`].
    Stopped(StopWhy),
    /// Terminated LWP awaiting its process.
    Zombie,
}

/// A single thread of control.
#[derive(Clone, Debug)]
pub struct Lwp {
    /// Identifier within the process.
    pub tid: Tid,
    /// General registers.
    pub gregs: GregSet,
    /// Floating registers.
    pub fpregs: FpregSet,
    /// Scheduling state.
    pub state: LwpState,
    /// Signals held (blocked) by this LWP.
    pub held: SigSet,
    /// The current signal, promoted from pending by `issig()`. "Older
    /// UNIX systems did not use the current signal concept and
    /// consequently suffered a race condition" — this field is that fix.
    pub cursig: Option<usize>,
    /// A directed-stop request is outstanding (`PIOCSTOP`/`PCDSTOP`).
    pub stop_directive: bool,
    /// The signalled stop for `cursig` was already taken (so a resume
    /// without clearing the signal proceeds to the next gate rather than
    /// re-stopping).
    pub sig_stop_taken: bool,
    /// The ptrace stop for `cursig` was already taken.
    pub ptrace_stop_taken: bool,
    /// One-shot single-step request (`PRSTEP`).
    pub single_step: bool,
    /// The most recent machine fault incurred (cleared by `PRCFAULT`).
    pub last_fault: Option<Fault>,
    /// In-flight system call, if any.
    pub syscall: Option<SyscallCtx>,
    /// The LWP must pass through `issig()` before returning to user code.
    pub user_return_pending: bool,
    /// The sleep was interrupted by a signal (vs a normal wakeup).
    pub sleep_interrupted: bool,
    /// Instructions retired by this LWP.
    pub insns: u64,
    /// Per-LWP superblock cache, the one cache of decoded text: traced
    /// straight-line runs the CPU executes in one dispatch. Every LWP
    /// construction path (boot, `fork`, `exec`, `lwp_create`) goes
    /// through [`Lwp::new`], so new threads of control start empty;
    /// blocks validate against the address-space generation, their
    /// text page's content epoch and the object store's content
    /// generation before every dispatch.
    pub sblocks: isa::SBlockCache,
    /// Per-LWP generation stamp, bumped whenever this LWP's externally
    /// visible state changes. LWP-scoped `/proc` images (`lwp/<tid>/
    /// status`, `gregs`) are cached against this stamp instead of the
    /// whole-process `pr_gen`, so mutating one thread does not evict its
    /// siblings' snapshots.
    pub lwp_gen: u64,
}

impl Lwp {
    /// A runnable LWP starting at `pc` with stack pointer `sp`.
    pub fn new(tid: Tid, pc: u64, sp: u64) -> Lwp {
        let mut gregs = GregSet::at(pc);
        gregs.set_sp(sp);
        Lwp {
            tid,
            gregs,
            fpregs: FpregSet::default(),
            state: LwpState::Runnable,
            held: SigSet::empty(),
            cursig: None,
            stop_directive: false,
            sig_stop_taken: false,
            ptrace_stop_taken: false,
            single_step: false,
            last_fault: None,
            syscall: None,
            user_return_pending: false,
            sleep_interrupted: false,
            insns: 0,
            sblocks: isa::SBlockCache::new(),
            lwp_gen: 0,
        }
    }

    /// True if stopped (any reason).
    pub fn is_stopped(&self) -> bool {
        matches!(self.state, LwpState::Stopped(_))
    }

    /// The stop reason, if stopped.
    pub fn stop_why(&self) -> Option<StopWhy> {
        match self.state {
            LwpState::Stopped(why) => Some(why),
            _ => None,
        }
    }

    /// True if stopped on an event of interest (what `PIOCWSTOP` waits
    /// for).
    pub fn is_event_stopped(&self) -> bool {
        self.stop_why().is_some_and(|w| w.is_event_stop())
    }
}

/// Kernel-side tracing state, manipulated through `/proc` but owned by
/// the kernel (tracing must outlive any particular `/proc` descriptor:
/// "tracing flags can remain active for a process when its process file
/// is closed").
#[derive(Clone, Debug, Default)]
pub struct TraceState {
    /// Signals whose receipt stops the process (`PIOCSTRACE`).
    pub sig_trace: SigSet,
    /// Faults that stop the process (`PIOCSFAULT`).
    pub flt_trace: FltSet,
    /// System calls whose entry stops the process (`PIOCSENTRY`).
    pub entry_trace: SysSet,
    /// System calls whose exit stops the process (`PIOCSEXIT`).
    pub exit_trace: SysSet,
    /// Children inherit tracing flags and stop on fork exit
    /// (`PIOCSFORK`).
    pub inherit_on_fork: bool,
    /// Clear flags and set running when the last writable descriptor
    /// closes (`PIOCSRLC`).
    pub run_on_last_close: bool,
    /// Number of writable `/proc` descriptors currently open on this
    /// process (maintained by the `/proc` implementation).
    pub writers: u32,
    /// An exclusive-use writable descriptor is held (`O_EXCL`).
    pub excl: bool,
}

impl TraceState {
    /// True if any event tracing is active.
    pub fn any_tracing(&self) -> bool {
        !self.sig_trace.is_empty()
            || !self.flt_trace.is_empty()
            || !self.entry_trace.is_empty()
            || !self.exit_trace.is_empty()
    }

    /// Clears every tracing flag (run-on-last-close, untrace).
    pub fn clear_tracing(&mut self) {
        self.sig_trace = SigSet::empty();
        self.flt_trace = FltSet::empty();
        self.entry_trace = SysSet::empty();
        self.exit_trace = SysSet::empty();
        self.inherit_on_fork = false;
        self.run_on_last_close = false;
    }

    /// The tracing flags a forked child inherits when inherit-on-fork is
    /// set (descriptor bookkeeping is per-process and starts fresh).
    pub fn inherited(&self) -> TraceState {
        TraceState {
            sig_trace: self.sig_trace,
            flt_trace: self.flt_trace,
            entry_trace: self.entry_trace,
            exit_trace: self.exit_trace,
            inherit_on_fork: self.inherit_on_fork,
            run_on_last_close: self.run_on_last_close,
            writers: 0,
            excl: false,
        }
    }
}

/// A process.
#[derive(Clone, Debug)]
pub struct Proc {
    /// Process id.
    pub pid: Pid,
    /// Parent process id.
    pub ppid: Pid,
    /// Process group.
    pub pgrp: Pid,
    /// Session.
    pub sid: Pid,
    /// Credentials.
    pub cred: Cred,
    /// The address space.
    pub aspace: AddressSpace,
    /// Open file descriptors.
    pub fds: FdTable,
    /// Threads of control. At least one; `lwps[0]` is created first.
    pub lwps: Vec<Lwp>,
    /// Next LWP id.
    pub next_tid: u32,
    /// Process-directed pending signals.
    pub pending: SigSet,
    /// Signal actions.
    pub actions: ActionTable,
    /// `/proc` tracing state.
    pub trace: TraceState,
    /// Command name (`pr_fname`).
    pub fname: String,
    /// Command line (`pr_psargs`).
    pub psargs: String,
    /// Working directory.
    pub cwd: String,
    /// File creation mask (the paper's example of something `/proc` does
    /// *not* provide).
    pub umask: u16,
    /// Nice value.
    pub nice: i8,
    /// Start tick.
    pub start_time: u64,
    /// Instructions retired by all LWPs, live and dead.
    pub cpu_time: u64,
    /// True for hosted processes (controlling programs whose logic is
    /// host code; they are never scheduled on the CPU).
    pub hosted: bool,
    /// The process has exited and awaits `wait`.
    pub zombie: bool,
    /// Wait-status (valid when zombie).
    pub exit_status: u16,
    /// Bumped on every set-id exec; `/proc` descriptors opened under an
    /// older generation are invalid ("no further operation on that file
    /// descriptor will succeed except close(2)").
    pub exec_gen: u32,
    /// Traced with old-style `ptrace` by its parent.
    pub ptraced: bool,
    /// The current ptrace/job-control stop has been reported to `wait`.
    pub stop_reported: bool,
    /// Tick at which `SIGALRM` fires, if scheduled.
    pub alarm_at: Option<u64>,
    /// Set while a vforked child still borrows the parent.
    pub vfork_parent: Option<Pid>,
    /// Generation counter bumped by every externally visible state
    /// mutation (signal post/delivery, stop/run transitions, exec,
    /// register/memory pokes, usage ticks). Snapshot caches key cached
    /// `/proc` renderings on this value; a stale stamp means re-render.
    pub pr_gen: u64,
}

impl Proc {
    /// Marks the process state as changed, invalidating any cached
    /// `/proc` snapshot of it.
    #[inline]
    pub fn touch(&mut self) {
        self.pr_gen = self.pr_gen.wrapping_add(1);
    }

    /// Marks one LWP's state as changed. The process-wide `pr_gen` is
    /// only bumped when the mutated LWP is the representative one, since
    /// that is the only LWP the whole-process images render; a mutation
    /// scoped to any other LWP leaves process-level snapshots valid.
    pub fn touch_lwp(&mut self, tid: Tid) {
        let rep = self.rep_lwp().tid;
        if let Some(l) = self.lwp_mut(tid) {
            l.lwp_gen = l.lwp_gen.wrapping_add(1);
        }
        if tid == rep {
            self.touch();
        }
    }

    /// Finds an LWP by id.
    pub fn lwp(&self, tid: Tid) -> Option<&Lwp> {
        self.lwps.iter().find(|l| l.tid == tid)
    }

    /// Finds an LWP mutably.
    pub fn lwp_mut(&mut self, tid: Tid) -> Option<&mut Lwp> {
        self.lwps.iter_mut().find(|l| l.tid == tid)
    }

    /// The representative LWP shown by the flat `/proc` interface: the
    /// first non-zombie LWP, else the first LWP.
    pub fn rep_lwp(&self) -> &Lwp {
        self.lwps.iter().find(|l| l.state != LwpState::Zombie).unwrap_or(&self.lwps[0])
    }

    /// Mutable access to the representative LWP.
    pub fn rep_lwp_mut(&mut self) -> &mut Lwp {
        let idx = self.lwps.iter().position(|l| l.state != LwpState::Zombie).unwrap_or(0);
        &mut self.lwps[idx]
    }

    /// True if every LWP is stopped or dead and at least one is stopped
    /// (the flat interface treats "the process" as stopped).
    pub fn is_stopped(&self) -> bool {
        let mut saw_stop = false;
        for l in &self.lwps {
            match l.state {
                LwpState::Stopped(_) => saw_stop = true,
                LwpState::Zombie => {}
                _ => return false,
            }
        }
        saw_stop
    }

    /// True if the representative LWP is stopped on an event of interest.
    pub fn is_event_stopped(&self) -> bool {
        !self.zombie && self.rep_lwp().is_event_stopped()
    }

    /// Single-character run state for `ps` (`pr_sname`):
    /// O running/runnable, S sleeping, T stopped, Z zombie.
    pub fn state_char(&self) -> char {
        if self.zombie {
            return 'Z';
        }
        let l = self.rep_lwp();
        match l.state {
            LwpState::Runnable => 'O',
            LwpState::Sleeping { .. } => 'S',
            LwpState::Stopped(_) => 'T',
            LwpState::Zombie => 'Z',
        }
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;

    #[test]
    fn stop_why_event_classification() {
        assert!(StopWhy::Requested.is_event_stop());
        assert!(StopWhy::Signalled(2).is_event_stop());
        assert!(StopWhy::Faulted(Fault::Bpt).is_event_stop());
        assert!(StopWhy::SyscallEntry(5).is_event_stop());
        assert!(!StopWhy::JobControl(23).is_event_stop());
        assert!(!StopWhy::Ptrace(5).is_event_stop());
    }

    #[test]
    fn trace_state_inheritance_resets_descriptor_bookkeeping() {
        let mut t = TraceState::default();
        t.sig_trace.add(2);
        t.inherit_on_fork = true;
        t.writers = 3;
        t.excl = true;
        let c = t.inherited();
        assert!(c.sig_trace.has(2));
        assert!(c.inherit_on_fork);
        assert_eq!(c.writers, 0);
        assert!(!c.excl);
    }

    #[test]
    fn clear_tracing_clears_events_not_bookkeeping() {
        let mut t = TraceState::default();
        t.sig_trace.add(2);
        t.entry_trace.add(5);
        t.writers = 1;
        t.clear_tracing();
        assert!(!t.any_tracing());
        assert_eq!(t.writers, 1);
    }

    #[test]
    fn lwp_stop_helpers() {
        let mut l = Lwp::new(Tid(1), 0x1000, 0x8000);
        assert!(!l.is_stopped());
        l.state = LwpState::Stopped(StopWhy::JobControl(23));
        assert!(l.is_stopped());
        assert!(!l.is_event_stopped());
        l.state = LwpState::Stopped(StopWhy::Requested);
        assert!(l.is_event_stopped());
    }
}
