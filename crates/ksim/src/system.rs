//! The `System`: the kernel plus its mounted file systems, the CPU
//! scheduler, the trap handlers, and the host-level system-call API used
//! by controlling programs.
//!
//! The paper's stop points (Figure 3) all live here:
//!
//! * the system-call handler stops the process on entry to or exit from
//!   traced calls (`syscall_entry`, `finish_syscall`);
//! * the user trap handler stops it on traced machine faults
//!   (`take_fault`);
//! * `issig()` stops it on traced signals, job control, ptrace, and
//!   requested stops (see [`crate::sched`]) on every return to user
//!   level and inside interruptible sleeps.

use crate::aout::{self, Aout};
use crate::config::SimConfig;
use crate::fault::Fault;
use crate::fd::{FileId, FileKind, PIPE_CAP};
use crate::kernel::{CachedImage, Kernel};
use crate::proc::{LwpState, StopWhy, SysPhase, SyscallCtx, Tid, WaitChannel};
use crate::record::{self, Input, Recorder, Recording};
use crate::signal::{SIGCHLD, SIGKILL, SIGPIPE, SIGSEGV};
use crate::sysno::SYS_FORK;
use isa::{Access, Bus, BusFault, BusFaultKind, Cpu, RunExit, StepEvent, PSR_ERR, PSR_TRACE};
use std::sync::Arc;
use vfs::{
    Cred, DirEntry, Errno, FileSystem, IoReply, IoctlReply, Metadata, MountTable, NodeId, OFlags,
    Pid, PollStatus, SysResult,
};
use vm::PAGE_SIZE;

/// Signal number for SIGPIPE — re-exported into this module's scope via
/// `crate::signal`; alias kept for readability at call sites.
const _: () = ();

/// A mounted file system: the root memfs is held concretely (so userland
/// installation can reach it), everything else as a trait object.
pub enum FsSlot {
    /// The concrete root file system.
    Mem(vfs::MemFs<Kernel>),
    /// Any other file system type (`/proc`, remote shims, ...).
    Dyn(Box<dyn FileSystem<Kernel>>),
}

impl FsSlot {
    pub(crate) fn as_fs(&mut self) -> &mut dyn FileSystem<Kernel> {
        match self {
            FsSlot::Mem(m) => m,
            FsSlot::Dyn(d) => d.as_mut(),
        }
    }
}

/// Outcome of one system-call dispatch.
pub enum SysOutcome {
    /// The call completed with this result.
    Done(SysResult<u64>),
    /// The call must sleep on this channel (interruptibly).
    Sleep(WaitChannel),
    /// The calling process or LWP no longer runs (exit, thr_exit).
    Gone,
}

/// Result of a file-layer operation that can block.
pub enum FlIo {
    /// Transferred this many bytes.
    Done(usize),
    /// Would block; sleep on this channel and retry.
    Block(WaitChannel),
}

/// The whole machine.
pub struct System {
    /// Kernel state (processes, files, pipes, objects, clock, log).
    pub kernel: Kernel,
    /// Mounted file systems, indexed by `FsId`.
    pub fss: Vec<FsSlot>,
    /// Path-prefix mount table.
    pub mounts: MountTable,
    cpu: Cpu,
    /// Instructions per scheduling quantum.
    pub quantum: u64,
    /// Idle-step limit for hosted blocking calls before `EDEADLK`.
    pub pump_limit: u64,
    /// Seed for the per-round commit permutation.
    pub interleave_seed: u64,
}

/// What one scheduler step (one gang round) actually did. `System::step`
/// collapses this to a bool (`true` unless `Blocked`), preserving its
/// original contract; budgeted drivers ([`System::run_until`],
/// [`System::run_idle`]) charge a round by the slices it ran, and an
/// idle fast-forward over a long sleep in proportion to the simulated
/// time it skipped, instead of counting either as one step.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum StepOutcome {
    /// A gang round of guest or kernel work ran.
    Ran,
    /// Nothing was runnable; the clock fast-forwarded `jumped` ticks to
    /// the next timer deadline.
    Idle {
        /// Ticks skipped to reach the deadline.
        jumped: u64,
    },
    /// Nothing runnable and no timed sleeper: the machine cannot make
    /// progress without outside input.
    Blocked,
}

impl System {
    /// Boots a system under the default [`SimConfig`]: root memfs
    /// mounted at `/`, process 0 (`sched`) and process 1 (`init`)
    /// created as hosted system processes.
    pub fn boot() -> System {
        System::with_config(SimConfig::new())
    }

    /// Boots a system under `cfg` — the one construction path every
    /// knob goes through. Mount plans in `cfg.mounts` are *not*
    /// interpreted here (the `/proc` faces live a crate up); the
    /// `procfs` crate's `build_sim` consumes them after this returns.
    pub fn with_config(cfg: SimConfig) -> System {
        let mut kernel = Kernel::new();
        kernel.fast_path = cfg.fast_path;
        let mut sys = System {
            kernel,
            fss: vec![FsSlot::Mem(vfs::MemFs::new())],
            mounts: MountTable::new(),
            cpu: Cpu::new(),
            quantum: cfg.quantum,
            pump_limit: cfg.pump_limit,
            interleave_seed: cfg.interleave_seed,
        };
        sys.mounts.add("/", 0);
        let p0 = sys.kernel.new_proc(Pid(0), Pid(0), Pid(0), Cred::superuser(), "sched", true);
        debug_assert_eq!(p0, Pid(0));
        let p1 = sys.kernel.new_proc(p0, Pid(1), Pid(1), Cred::superuser(), "init", true);
        debug_assert_eq!(p1, Pid(1));
        if let Some(f) = cfg.kernel_faults {
            sys.apply_fault_plan(f.seed, f.rates, f.targeted);
        }
        if cfg.record {
            sys.kernel.recorder = Some(Box::new(Recorder::new(cfg)));
        }
        sys
    }

    /// Mounts a file system at `path`, returning its id.
    pub fn mount(&mut self, path: &str, fs: Box<dyn FileSystem<Kernel>>) -> u32 {
        let id = self.fss.len() as u32;
        self.fss.push(FsSlot::Dyn(fs));
        assert!(self.mounts.add(path, id), "mount point {path} already taken");
        id
    }

    /// The root memfs, for installing userland files.
    pub fn memfs_mut(&mut self) -> &mut vfs::MemFs<Kernel> {
        match &mut self.fss[0] {
            FsSlot::Mem(m) => m,
            FsSlot::Dyn(_) => unreachable!("slot 0 is always the root memfs"),
        }
    }

    // ------------------------------------------------------------------
    // Recording
    // ------------------------------------------------------------------

    /// True when a recorder is attached and not suppressed (i.e. this
    /// call is a genuine host-boundary input, not the interior of one).
    fn rec_active(&self) -> bool {
        self.kernel.recorder.as_ref().map(|r| r.suppress == 0).unwrap_or(false)
    }

    fn rec_suppress(&mut self, on: bool) {
        if let Some(r) = self.kernel.recorder.as_mut() {
            if on {
                r.suppress += 1;
            } else {
                r.suppress = r.suppress.saturating_sub(1);
            }
        }
    }

    /// Takes a copy-on-write snapshot (kernel clone + root memfs clone +
    /// per-slot wire-transport state) if the recorder's interval says
    /// the current position needs one. Must run *before* the input it
    /// precedes executes.
    fn rec_snapshot_if_due(&mut self, will_extend: bool) {
        let due = match self.kernel.recorder.as_ref() {
            Some(r) if r.suppress == 0 => r.wants_snapshot(will_extend),
            _ => false,
        };
        if !due {
            return;
        }
        let kernel = self.kernel.snapshot();
        let root = match &self.fss[0] {
            FsSlot::Mem(m) => m.clone(),
            FsSlot::Dyn(_) => return,
        };
        // Mounted `/proc` faces are views over the kernel and rebuild
        // fresh on restore — except the remote mount, whose transport
        // (sessions, dedup window, queues) lives outside the kernel and
        // must travel with the snapshot for `goto` to restore it.
        let wires: Vec<(usize, vfs::remote::WireSnapshot)> = self
            .fss
            .iter()
            .enumerate()
            .filter_map(|(i, slot)| match slot {
                FsSlot::Dyn(fs) => fs.wire_snapshot().map(|w| (i, w)),
                FsSlot::Mem(_) => None,
            })
            .collect();
        if let Some(r) = self.kernel.recorder.as_mut() {
            r.push_snap(kernel, root, wires);
        }
    }

    /// Commits `input` to the recorder, with the result that `result`
    /// encodes into the recorder's scratch buffer.
    fn rec_commit(&mut self, input: Input, result: impl FnOnce(&mut Vec<u8>)) {
        let clock = self.kernel.clock;
        if let Some(r) = self.kernel.recorder.as_mut() {
            r.commit(input, clock, result);
        }
    }

    /// Records one host-boundary call: pre-snapshot if due, run `f` with
    /// recording suppressed (its interior pump steps are not inputs),
    /// then commit the input with the encoded result.
    fn recorded<T>(
        &mut self,
        f: impl FnOnce(&mut System) -> SysResult<T>,
        input: impl FnOnce() -> Input,
        enc: impl FnOnce(&T, &mut Vec<u8>),
    ) -> SysResult<T> {
        if !self.rec_active() {
            return f(self);
        }
        self.rec_snapshot_if_due(false);
        self.rec_suppress(true);
        let r = f(self);
        self.rec_suppress(false);
        self.rec_commit(input(), |out| record::encode_result(&r, enc, out));
        r
    }

    /// The recording so far (config + input log), when recording.
    pub fn recording(&self) -> Option<Recording> {
        self.kernel.recorder.as_ref().map(|r| r.recording())
    }

    /// Serialises the attached recording — config, input log and the
    /// positions of the banked snapshots — to the durable recfile image
    /// ([`crate::recfile`]), bumping the recorder's file counters.
    /// `None` when the run is not recorded.
    pub fn save_recfile(&mut self) -> Option<Vec<u8>> {
        let r = self.kernel.recorder.as_mut()?;
        let marks: Vec<usize> = r.snaps.iter().map(|s| s.pos).collect();
        let bytes = crate::recfile::save(&r.config, r.records.iter(), &marks);
        r.stats.file_saves += 1;
        r.stats.file_bytes += bytes.len() as u64;
        Some(bytes)
    }

    /// Installs raw file content at `path` in the root file system.
    /// Recorded with the bytes inline, so replay re-installs verbatim.
    pub fn install_file(&mut self, path: &str, mode: u16, bytes: &[u8]) {
        self.rec_snapshot_if_due(false);
        self.memfs_mut().install(path, mode, 0, 0, bytes.to_vec());
        if self.rec_active() {
            self.rec_commit(
                Input::InstallFile { path: path.to_string(), mode, bytes: bytes.to_vec() },
                |_| {},
            );
        }
    }

    /// Creates `path` (and any missing parents) as a directory with
    /// `mode` in the root file system.
    pub fn install_dir(&mut self, path: &str, mode: u16) {
        self.rec_snapshot_if_due(false);
        let parts: Vec<&str> = path.split('/').filter(|p| !p.is_empty()).collect();
        let id = self.memfs_mut().mkdir_p(&parts);
        self.memfs_mut().set_mode(id, mode);
        if self.rec_active() {
            self.rec_commit(Input::InstallDir { path: path.to_string(), mode }, |_| {});
        }
    }

    /// Installs an executable image at `path` in the root file system.
    pub fn install_aout(&mut self, path: &str, aout: &Aout, mode: u16) {
        self.install_file(path, mode, &aout.to_bytes());
    }

    /// Assembles `src` and installs it at `path` (mode 0755). The
    /// recording stores the *assembled* image, so replay needs no
    /// assembler.
    pub fn install_program(&mut self, path: &str, src: &str) {
        let aout = match aout::build_aout(src) {
            Ok(a) => a,
            Err(e) => panic!("program {path} does not assemble: {e:?}"),
        };
        self.install_aout(path, &aout, 0o755);
    }

    // ------------------------------------------------------------------
    // Scheduler
    // ------------------------------------------------------------------

    /// Runs one scheduling step — one gang round: fires timers, then
    /// runs one slice of each process that has a runnable LWP. Returns
    /// false when nothing can make progress (no runnable LWPs and no
    /// timed sleepers). When recording, the step (and its progress bit
    /// and post-step clock) coalesces into the trailing `Steps` record.
    pub fn step(&mut self) -> bool {
        !matches!(self.step_outcome(), StepOutcome::Blocked)
    }

    /// Like [`System::step`], but reports *what* the step did — real
    /// work, an idle fast-forward (and how far), or no progress at all.
    pub fn step_outcome(&mut self) -> StepOutcome {
        self.step_charged().0
    }

    /// One recorded step and its budget charge: a round costs one unit
    /// per LWP slice it ran, so a unit means one quantum of one LWP,
    /// however many guests share the round;
    /// an idle fast-forward costs the simulated time it skipped, in
    /// quantum units (minimum one). So `budget` bounds simulated work
    /// whether the machine is busy or sleeping.
    fn step_charged(&mut self) -> (StepOutcome, u64) {
        if !self.rec_active() {
            return self.step_round();
        }
        let will_extend =
            self.kernel.recorder.as_ref().map(|r| r.step_will_extend()).unwrap_or(false);
        self.rec_snapshot_if_due(will_extend);
        self.rec_suppress(true);
        let out = self.step_round();
        self.rec_suppress(false);
        let clock = self.kernel.clock;
        let ran = !matches!(out.0, StepOutcome::Blocked);
        if let Some(r) = self.kernel.recorder.as_mut() {
            r.commit_step(ran, clock);
        }
        out
    }

    /// Idle: fast-forward to the next timed wakeup if one exists. A
    /// deadline at or before the current clock would mean a zero-tick
    /// jump — with nothing runnable that is a guaranteed spin, so it
    /// reports `Blocked` (it cannot happen after `fire_timers`, which
    /// drains everything due).
    fn idle_jump(&mut self) -> (StepOutcome, u64) {
        let Some(t) = self.next_deadline() else {
            return (StepOutcome::Blocked, 0);
        };
        let jumped = t.saturating_sub(self.kernel.clock);
        if jumped == 0 {
            return (StepOutcome::Blocked, 0);
        }
        self.kernel.clock += jumped;
        self.fire_timers();
        (StepOutcome::Idle { jumped }, (jumped / self.quantum.max(1)).max(1))
    }

    /// Runs steps until `cond` holds or the budget is exhausted. Returns
    /// whether the condition was met.
    pub fn run_until(&mut self, budget: u64, mut cond: impl FnMut(&System) -> bool) -> bool {
        let mut spent = 0u64;
        while spent < budget {
            if cond(self) {
                return true;
            }
            match self.step_charged() {
                (StepOutcome::Blocked, _) => return cond(self),
                (_, cost) => spent = spent.saturating_add(cost),
            }
        }
        cond(self)
    }

    /// Steps until the machine is fully idle or the budget is exhausted.
    pub fn run_idle(&mut self, budget: u64) {
        let mut spent = 0u64;
        while spent < budget {
            match self.step_charged() {
                (StepOutcome::Blocked, _) => return,
                (_, cost) => spent = spent.saturating_add(cost),
            }
        }
    }

    fn fire_timers(&mut self) {
        let clock = self.kernel.clock;
        // Lazy-deletion pop: the heap may hold entries for cancelled
        // alarms, rescheduled alarms and interrupted sleeps; collect the
        // distinct pids with *any* entry due and re-validate per process.
        // Pids are visited in ascending order — the same order the old
        // full-table scan produced.
        let mut due: std::collections::BTreeSet<u32> = std::collections::BTreeSet::new();
        while let Some((t, pid)) = self.kernel.deadlines.peek() {
            if t > clock {
                break;
            }
            self.kernel.deadlines.pop();
            due.insert(pid);
        }
        if due.is_empty() {
            return;
        }
        let mut alarms = Vec::new();
        for pid in due {
            let Some(proc) = self.kernel.procs.get_mut(&pid) else { continue };
            if let Some(at) = proc.alarm_at {
                if at <= clock {
                    proc.alarm_at = None;
                    alarms.push(proc.pid);
                }
            }
            let mut woke = false;
            for lwp in &mut proc.lwps {
                if let LwpState::Sleeping { chan: WaitChannel::Ticks(t), .. } = lwp.state {
                    if t <= clock {
                        Kernel::make_runnable(&mut self.kernel.runq, Pid(pid), lwp);
                        lwp.sleep_interrupted = false;
                        woke = true;
                    }
                }
            }
            if woke {
                proc.touch();
            }
        }
        for pid in alarms {
            let _ = self.kernel.post_signal(pid, crate::signal::SIGALRM);
        }
    }

    /// Children of init are reaped automatically (init's only job).
    /// Only `zombies` is walked; a pid leaves it once reaped here or by
    /// `wait`.
    fn autoreap_init_children(&mut self) {
        #[cfg(debug_assertions)]
        for p in self.kernel.procs.values().filter(|p| p.zombie) {
            assert!(
                self.kernel.zombies.contains(&p.pid.0),
                "pid {} is a zombie but not in the zombie set",
                p.pid.0
            );
        }
        let Kernel { procs, zombies, table_gen, .. } = &mut self.kernel;
        zombies.retain(|pid| {
            let Some(p) = procs.get(pid) else { return false };
            if p.ppid != Pid(1) || *pid == 1 {
                return true;
            }
            procs.remove(pid);
            *table_gen = table_gen.wrapping_add(1);
            false
        });
    }

    /// The earliest live timer deadline, in O(stale entries) rather than
    /// a process-table scan: peeks the heap and discards entries whose
    /// process no longer holds a matching alarm or `Ticks` sleep.
    fn next_deadline(&mut self) -> Option<u64> {
        while let Some((t, pid)) = self.kernel.deadlines.peek() {
            let live = self
                .kernel
                .procs
                .get(&pid)
                .map(|p| {
                    p.alarm_at == Some(t)
                        || p.lwps.iter().any(|l| {
                            matches!(
                                l.state,
                                LwpState::Sleeping { chan: WaitChannel::Ticks(d), .. } if d == t
                            )
                        })
                })
                .unwrap_or(false);
            if live {
                return Some(t);
            }
            self.kernel.deadlines.pop();
        }
        None
    }

    /// Runs one LWP for up to a quantum, handling its kernel entries.
    fn run_slice(&mut self, pid: Pid, tid: Tid) {
        // The LWP is about to run: registers, instruction counts and any
        // self-inflicted state all change, so one generation bump here
        // covers every mutation the slice makes to its own process.
        if let Ok(p) = self.kernel.proc_mut(pid) {
            p.touch();
        }
        // Phase A: in-flight system call continuation.
        let has_syscall = self
            .kernel
            .proc(pid)
            .ok()
            .and_then(|p| p.lwp(tid))
            .map(|l| l.syscall.is_some())
            .unwrap_or(false);
        if has_syscall {
            self.continue_syscall(pid, tid);
        }
        let Some(pending) = self
            .kernel
            .proc(pid)
            .ok()
            .and_then(|p| p.lwp(tid))
            .filter(|l| l.state == LwpState::Runnable)
            .map(|l| l.user_return_pending)
        else {
            return;
        };
        // Phase B: the issig()/psig() gate before returning to user code.
        if pending {
            loop {
                match self.kernel.issig(pid, tid) {
                    crate::sched::Issig::Stop => return,
                    crate::sched::Issig::Deliver(_) => match self.kernel.psig(pid, tid) {
                        crate::sched::Psig::Terminated(status) => {
                            self.do_exit(pid, status);
                            return;
                        }
                        _ => continue,
                    },
                    crate::sched::Issig::Run => break,
                }
            }
            if let Ok(p) = self.kernel.proc_mut(pid) {
                if let Some(l) = p.lwp_mut(tid) {
                    l.user_return_pending = false;
                }
            }
        }
        // Phase C/D: run user code.
        self.run_user(pid, tid);
    }

    /// The user phase of [`System::run_slice`]: runs user code for up
    /// to a quantum, then takes the kernel entry that ended it.
    fn run_user(&mut self, pid: Pid, tid: Tid) {
        let System { kernel, cpu, .. } = self;
        let Kernel { procs, objects, .. } = kernel;
        let Some(proc) = procs.get_mut(&pid.0) else { return };
        if proc.zombie {
            return;
        }
        let crate::proc::Proc { aspace, lwps, cpu_time, .. } = proc;
        let Some(lwp) = lwps.iter_mut().find(|l| l.tid == tid) else {
            return;
        };
        if lwp.state != LwpState::Runnable {
            return;
        }
        if lwp.single_step {
            lwp.gregs.psr |= PSR_TRACE;
        }
        let crate::proc::Lwp { gregs, fpregs, sblocks, insns, .. } = lwp;
        let mut bus = ProcBus { asp: aspace, store: objects, sblocks };
        let (n, exit) = cpu.run(gregs, fpregs, &mut bus, self.quantum.max(1));
        *cpu_time += n;
        *insns += n;
        kernel.clock += n.max(1);
        match exit {
            RunExit::Quantum => {
                // A clock interrupt is a kernel entry: honour directives
                // and pending signals before the next user slice.
                if let Some(l) = kernel.proc_mut(pid).ok().and_then(|p| p.lwp_mut(tid)) {
                    l.user_return_pending = true;
                }
            }
            RunExit::Event(ev) => self.handle_trap(pid, tid, ev),
        }
    }

    // ------------------------------------------------------------------
    // Gang-round scheduler
    // ------------------------------------------------------------------

    /// One gang round: the scheduler's only step. Returns the outcome
    /// and its budget charge (the number of slices run, or the idle
    /// jump's cost).
    ///
    /// Selection picks one runnable LWP per non-hosted process (rotated
    /// by round number, so multi-LWP processes interleave). The round
    /// then runs each selected slice through [`System::run_slice`] in an
    /// order drawn from the seeded interleave permutation. Commit order
    /// is execution order: a slice sees every effect of the slices run
    /// before it in the round and none of those after, so kernel state
    /// is a function of the ordered history alone.
    ///
    /// Determinism: the order is a pure function of
    /// `(interleave_seed, round)`, and the round counter lives in the
    /// kernel (so snapshots capture it).
    fn step_round(&mut self) -> (StepOutcome, u64) {
        self.kfault_controller_tick();
        self.fire_timers();
        self.autoreap_init_children();
        let round = self.kernel.sched_rounds;
        self.kernel.sched_rounds = round.wrapping_add(1);

        // One runnable LWP per scheduled process, in ascending pid
        // order; the run queue loses every pid with nothing to run.
        let pick = |proc: &crate::proc::Proc| {
            if proc.hosted || proc.zombie {
                return None;
            }
            let mut runnable = proc.lwps.iter().filter(|l| l.state == LwpState::Runnable);
            let n = runnable.clone().count() as u64;
            let lwp = runnable.nth((round % n.max(1)) as usize)?;
            Some((proc.pid, lwp.tid))
        };
        let mut picked: Vec<(Pid, Tid)> = Vec::new();
        let Kernel { procs, runq, .. } = &mut self.kernel;
        runq.retain(|pid| match procs.get(pid).and_then(pick) {
            Some(sel) => {
                picked.push(sel);
                true
            }
            None => false,
        });
        #[cfg(debug_assertions)]
        {
            let full: Vec<(Pid, Tid)> = procs.values().filter_map(pick).collect();
            assert_eq!(picked, full, "round {round}: run-queue picks differ from a full scan");
        }
        if picked.is_empty() {
            return self.idle_jump();
        }
        for idx in commit_order(picked.len(), self.interleave_seed, round) {
            let (pid, tid) = picked[idx];
            self.run_slice(pid, tid);
        }
        (StepOutcome::Ran, picked.len() as u64)
    }

    /// Controller-death injection in the scheduler: rolled once per
    /// step/round, so a *hosted* controlling process can die between any
    /// two rounds — at a barrier, with its targets possibly stopped.
    /// The exit path closes the controller's `/proc` descriptors, whose
    /// run-on-last-close semantics must set every stopped target running
    /// again (the property `tests/kernel_fault.rs` pins).
    fn kfault_controller_tick(&mut self) {
        let rolled = match self.kernel.fault_plan.as_mut() {
            Some(plan) => plan.roll_controller_death(),
            None => return,
        };
        if rolled {
            self.kfault_kill_controller();
        }
    }

    /// Picks a deterministic hosted victim (never init or sched) and
    /// makes it exit quietly, as a crashed controller would.
    fn kfault_kill_controller(&mut self) {
        let victims: Vec<Pid> = self
            .kernel
            .procs
            .iter()
            .filter(|(id, p)| **id > 1 && p.hosted && !p.zombie)
            .map(|(id, _)| Pid(*id))
            .collect();
        if victims.is_empty() {
            return;
        }
        let Some(plan) = self.kernel.fault_plan.as_mut() else { return };
        let victim = victims[plan.pick(victims.len() as u64) as usize];
        plan.stats.controller_deaths += 1;
        self.do_exit(victim, Kernel::status_exited(0));
    }

    // ------------------------------------------------------------------
    // Trap handling
    // ------------------------------------------------------------------

    fn handle_trap(&mut self, pid: Pid, tid: Tid, ev: StepEvent) {
        match ev {
            StepEvent::Syscall => {
                let Ok(proc) = self.kernel.proc_mut(pid) else { return };
                let Some(lwp) = proc.lwp_mut(tid) else { return };
                let nr = lwp.gregs.rv() as u16;
                let insn_pc = lwp.gregs.pc.wrapping_sub(isa::INSN_LEN);
                lwp.syscall = Some(SyscallCtx::new(nr, insn_pc));
                self.syscall_entry(pid, tid);
            }
            StepEvent::Breakpoint => self.take_fault(pid, tid, Fault::Bpt),
            StepEvent::IllegalInsn => self.take_fault(pid, tid, Fault::Ill),
            StepEvent::PrivInsn => self.take_fault(pid, tid, Fault::Priv),
            StepEvent::DivZero => self.take_fault(pid, tid, Fault::IntZDiv),
            StepEvent::FpErr => self.take_fault(pid, tid, Fault::FpErr),
            StepEvent::TraceTrap => {
                if let Ok(p) = self.kernel.proc_mut(pid) {
                    if let Some(l) = p.lwp_mut(tid) {
                        l.gregs.psr &= !PSR_TRACE;
                        l.single_step = false;
                    }
                }
                self.take_fault(pid, tid, Fault::Trace);
            }
            StepEvent::MemFault(bf) => self.mem_fault(pid, tid, bf),
        }
    }

    fn mem_fault(&mut self, pid: Pid, tid: Tid, bf: BusFault) {
        // The sigreturn trampoline: a fetch at the magic kernel address.
        if bf.access == Access::Exec && bf.addr == aout::SIGRETURN_ADDR {
            if self.kernel.sigreturn(pid, tid) {
                if let Ok(p) = self.kernel.proc_mut(pid) {
                    if let Some(l) = p.lwp_mut(tid) {
                        // The restored mask may unblock pending signals.
                        l.user_return_pending = true;
                    }
                }
            } else {
                self.force_kill(pid, SIGSEGV);
            }
            return;
        }
        let fault = match bf.kind {
            BusFaultKind::Unmapped => Fault::Bounds,
            BusFaultKind::Protection => Fault::Access,
            BusFaultKind::Watch => Fault::Watch,
        };
        self.take_fault(pid, tid, fault);
    }

    /// The user trap handler: stop on a traced fault, otherwise convert
    /// the fault to its signal. If the signal is ignored or held, the
    /// disposition is forced to default termination (a fault must not
    /// silently re-execute forever).
    fn take_fault(&mut self, pid: Pid, tid: Tid, fault: Fault) {
        let Ok(proc) = self.kernel.proc_mut(pid) else { return };
        if let Some(lwp) = proc.lwp_mut(tid) {
            lwp.last_fault = Some(fault);
        }
        if proc.trace.flt_trace.has(fault.number()) {
            self.kernel.stop_lwp(pid, tid, StopWhy::Faulted(fault));
            return;
        }
        let sig = fault.default_signal();
        let Ok(proc) = self.kernel.proc_mut(pid) else { return };
        let ignored = proc.actions.is_ignored(sig);
        let held = proc.lwp(tid).map(|l| l.held.has(sig)).unwrap_or(false);
        if (ignored || held) && !proc.trace.sig_trace.has(sig) {
            self.force_kill(pid, sig);
            return;
        }
        let _ = self.kernel.post_signal(pid, sig);
        if let Ok(p) = self.kernel.proc_mut(pid) {
            if let Some(l) = p.lwp_mut(tid) {
                l.user_return_pending = true;
            }
        }
    }

    /// Unconditionally terminates a process as if by an uncatchable
    /// signal.
    pub fn force_kill(&mut self, pid: Pid, sig: usize) {
        self.do_exit(pid, Kernel::status_signalled(sig, sig != SIGKILL));
    }

    // ------------------------------------------------------------------
    // System call machinery (Figure 3 stop points)
    // ------------------------------------------------------------------

    /// Entry point after the trap: "a stop on system call entry occurs
    /// before the system has fetched the system call arguments", so a
    /// debugger may rewrite the argument registers before dispatch.
    fn syscall_entry(&mut self, pid: Pid, tid: Tid) {
        let Ok(proc) = self.kernel.proc_mut(pid) else { return };
        let entry_trace = proc.trace.entry_trace;
        let Some(lwp) = proc.lwp_mut(tid) else { return };
        let Some(ctx) = &mut lwp.syscall else { return };
        let nr = ctx.nr;
        if entry_trace.has(nr as usize) && !ctx.entry_stop_taken {
            ctx.entry_stop_taken = true;
            self.kernel.stop_lwp(pid, tid, StopWhy::SyscallEntry(nr));
            return;
        }
        self.dispatch_syscall(pid, tid);
    }

    /// Re-entry for an LWP that is runnable with a system call in flight
    /// (resumed from an entry stop, woken from a sleep, or resumed from
    /// an exit stop).
    fn continue_syscall(&mut self, pid: Pid, tid: Tid) {
        let Some(phase) = self
            .kernel
            .proc(pid)
            .ok()
            .and_then(|p| p.lwp(tid))
            .and_then(|l| l.syscall.as_ref().map(|c| c.phase.clone()))
        else {
            return;
        };
        match phase {
            SysPhase::Entry => {
                let abort = self
                    .kernel
                    .proc(pid)
                    .ok()
                    .and_then(|p| p.lwp(tid))
                    .and_then(|l| l.syscall.as_ref())
                    .map(|c| c.abort)
                    .unwrap_or(false);
                if abort {
                    // "A process that is stopped on system call entry can
                    // be directed to abort execution of the system call
                    // and go directly to system call exit."
                    self.finish_syscall(pid, tid, Err(Errno::EINTR));
                } else {
                    self.dispatch_syscall(pid, tid);
                }
            }
            SysPhase::Sleeping => {
                let interrupted = {
                    let Ok(p) = self.kernel.proc_mut(pid) else { return };
                    let Some(l) = p.lwp_mut(tid) else { return };
                    std::mem::take(&mut l.sleep_interrupted)
                };
                if interrupted {
                    match self.kernel.issig_insleep(pid, tid) {
                        crate::sched::SleepSig::Stop => { /* stopped; retry on resume */ }
                        crate::sched::SleepSig::Interrupt => {
                            self.finish_syscall(pid, tid, Err(Errno::EINTR));
                        }
                        crate::sched::SleepSig::Retry => self.dispatch_syscall(pid, tid),
                    }
                } else {
                    self.dispatch_syscall(pid, tid);
                }
            }
            SysPhase::Exit(_) => self.complete_syscall(pid, tid),
        }
    }

    /// Dispatches (or retries) the call, reading the arguments from the
    /// registers afresh.
    fn dispatch_syscall(&mut self, pid: Pid, tid: Tid) {
        let Some((nr, args)) = ({
            self.kernel.proc(pid).ok().and_then(|p| p.lwp(tid)).and_then(|l| {
                l.syscall.as_ref().map(|c| {
                    let mut args = [0u64; 6];
                    for (i, a) in args.iter_mut().enumerate() {
                        *a = l.gregs.arg(i);
                    }
                    (c.nr, args)
                })
            })
        }) else {
            return;
        };
        match self.do_syscall(pid, tid, nr, args) {
            SysOutcome::Done(res) => self.finish_syscall(pid, tid, res),
            SysOutcome::Sleep(chan) => {
                if let WaitChannel::Ticks(t) = chan {
                    self.kernel.deadlines.arm(t, pid.0);
                } else {
                    self.kernel.sleepers.insert(pid.0);
                }
                if let Ok(p) = self.kernel.proc_mut(pid) {
                    if let Some(l) = p.lwp_mut(tid) {
                        l.state = LwpState::Sleeping { chan, interruptible: true };
                        if let Some(c) = &mut l.syscall {
                            c.phase = SysPhase::Sleeping;
                        }
                    }
                }
                // The classic check before committing to the sleep: a
                // signal (or stop directive) that arrived while we were
                // deciding must not be slept through.
                let pending = self.kernel.signal_pending_for(pid, tid)
                    || self
                        .kernel
                        .proc(pid)
                        .ok()
                        .and_then(|p| p.lwp(tid))
                        .map(|l| l.stop_directive)
                        .unwrap_or(false);
                if pending {
                    match self.kernel.issig_insleep(pid, tid) {
                        crate::sched::SleepSig::Stop => {}
                        crate::sched::SleepSig::Interrupt => {
                            if let Some(l) =
                                self.kernel.procs.get_mut(&pid.0).and_then(|p| p.lwp_mut(tid))
                            {
                                Kernel::make_runnable(&mut self.kernel.runq, pid, l);
                            }
                            self.finish_syscall(pid, tid, Err(Errno::EINTR));
                        }
                        crate::sched::SleepSig::Retry => {}
                    }
                }
            }
            SysOutcome::Gone => {}
        }
    }

    /// "A stop on system call exit occurs after the system has stored all
    /// return values in the traced process's ... saved registers" — the
    /// result is installed first, then the exit stop is considered, so a
    /// debugger can manufacture whatever return values it wishes.
    fn finish_syscall(&mut self, pid: Pid, tid: Tid, res: SysResult<u64>) {
        let Ok(proc) = self.kernel.proc_mut(pid) else { return };
        let Some(lwp) = proc.lwp_mut(tid) else { return };
        match res {
            Ok(v) => {
                lwp.gregs.set_rv(v);
                lwp.gregs.psr &= !PSR_ERR;
            }
            Err(e) => {
                lwp.gregs.set_rv((-(e as i64)) as u64);
                lwp.gregs.psr |= PSR_ERR;
            }
        }
        let Some(ctx) = &mut lwp.syscall else { return };
        ctx.phase = SysPhase::Exit(res);
        ctx.deadline = None;
        if let Some(saved) = ctx.saved_hold.take() {
            lwp.held = saved;
        }
        let nr = ctx.nr;
        if proc.trace.exit_trace.has(nr as usize) {
            self.kernel.stop_lwp(pid, tid, StopWhy::SyscallExit(nr));
            return;
        }
        self.complete_syscall(pid, tid);
    }

    fn complete_syscall(&mut self, pid: Pid, tid: Tid) {
        if let Ok(p) = self.kernel.proc_mut(pid) {
            if let Some(l) = p.lwp_mut(tid) {
                l.syscall = None;
                l.user_return_pending = true;
            }
        }
    }

    // ------------------------------------------------------------------
    // Process lifecycle
    // ------------------------------------------------------------------

    /// Creates a hosted process (a controlling program running as Rust
    /// code). It is a child of init unless `parent` says otherwise.
    pub fn spawn_hosted(&mut self, name: &str, cred: Cred) -> Pid {
        self.rec_snapshot_if_due(false);
        let pid = self.kernel.new_proc(Pid(1), Pid(1), Pid(1), cred.clone(), name, true);
        if self.rec_active() {
            self.rec_commit(Input::SpawnHosted { name: name.to_string(), cred }, |out| {
                out.push(1);
                out.extend_from_slice(&pid.0.to_le_bytes());
            });
        }
        pid
    }

    /// Creates a process and execs `path` in it. The child's parent is
    /// `parent` (so hosted controllers can `wait` for their targets),
    /// and it inherits `parent`'s credentials.
    pub fn spawn_program(&mut self, parent: Pid, path: &str, argv: &[&str]) -> SysResult<Pid> {
        self.recorded(
            |s| s.spawn_program_inner(parent, path, argv),
            || Input::SpawnProgram {
                parent: parent.0,
                path: path.to_string(),
                argv: argv.iter().map(|a| a.to_string()).collect(),
            },
            |pid, out| out.extend_from_slice(&pid.0.to_le_bytes()),
        )
    }

    fn spawn_program_inner(&mut self, parent: Pid, path: &str, argv: &[&str]) -> SysResult<Pid> {
        if let Some(plan) = self.kernel.fault_plan.as_mut() {
            if plan.roll_eagain_spawn() {
                return Err(Errno::EAGAIN);
            }
        }
        let (cred, pgrp, sid) = {
            let p = self.kernel.proc(parent)?;
            (p.cred.clone(), p.pgrp, p.sid)
        };
        let pid = self.kernel.new_proc(parent, pgrp, sid, cred, path, false);
        let argv: Vec<String> = argv.iter().map(|s| s.to_string()).collect();
        match self.do_exec(pid, path, &argv) {
            Ok(()) => Ok(pid),
            Err(e) => {
                self.kernel.procs.remove(&pid.0);
                self.kernel.table_gen = self.kernel.table_gen.wrapping_add(1);
                Err(e)
            }
        }
    }

    /// Terminates a process: tears down its descriptors and address
    /// space, zombifies it, reparents its children to init, and notifies
    /// the parent.
    pub fn do_exit(&mut self, pid: Pid, status: u16) {
        let Ok(proc) = self.kernel.proc_mut(pid) else { return };
        if proc.zombie {
            return;
        }
        let ppid = proc.ppid;
        // Death by a core-dumping signal: write the post-mortem image
        // while the address space still exists.
        if status & 0x80 != 0 {
            self.write_core(pid, (status & 0x7F) as usize);
        }
        let Ok(proc) = self.kernel.proc_mut(pid) else { return };
        let vfork_parent = proc.vfork_parent.take();
        // Close descriptors.
        let fds: Vec<(usize, FileId)> = proc.fds.iter().collect();
        for (fd, _) in fds {
            let _ = self.close_fd(pid, fd);
        }
        let Kernel { procs, objects, .. } = &mut self.kernel;
        let Some(proc) = procs.get_mut(&pid.0) else {
            unreachable!("pid {pid:?} validated live above")
        };
        proc.aspace.clear(objects);
        for lwp in &mut proc.lwps {
            lwp.state = LwpState::Zombie;
            lwp.syscall = None;
        }
        proc.zombie = true;
        proc.exit_status = status;
        proc.touch();
        self.kernel.zombies.insert(pid.0);
        // Reparent children to init.
        for other in self.kernel.procs.values_mut() {
            if other.ppid == pid {
                other.ppid = Pid(1);
                other.touch();
            }
        }
        self.kernel.table_gen = self.kernel.table_gen.wrapping_add(1);
        if let Some(vp) = vfork_parent {
            let _ = vp;
            self.kernel.wake_channel(WaitChannel::VforkDone(pid));
        }
        let _ = self.kernel.post_signal(ppid, SIGCHLD);
        self.kernel.wake_channel(WaitChannel::Child(ppid));
        self.kernel.wake_channel(WaitChannel::ProcStop(pid));
        self.kernel.wake_pollers();
        self.kernel.log.push(crate::event::Event::Exit { pid, status });
    }

    /// The fork implementation shared by `fork` and `vfork`.
    pub fn do_fork(&mut self, parent: Pid, tid: Tid, vfork: bool) -> SysOutcome {
        // A vfork retry after the child released us: report the child.
        if let Ok(p) = self.kernel.proc_mut(parent) {
            if let Some(l) = p.lwp_mut(tid) {
                if let Some(ctx) = &mut l.syscall {
                    if let Some(child) = ctx.forked_child.take() {
                        return SysOutcome::Done(Ok(child.0 as u64));
                    }
                }
            }
        }
        if let Some(plan) = self.kernel.fault_plan.as_mut() {
            if plan.roll_eagain_fork() {
                return SysOutcome::Done(Err(Errno::EAGAIN));
            }
        }
        let child_pid = self.kernel.alloc_pid();
        let Kernel { procs, objects, files, clock, .. } = &mut self.kernel;
        let Some(pp) = procs.get_mut(&parent.0) else {
            return SysOutcome::Done(Err(Errno::ESRCH));
        };
        let Some(plwp) = pp.lwps.iter().find(|l| l.tid == tid) else {
            return SysOutcome::Done(Err(Errno::ESRCH));
        };
        let nr = plwp.syscall.as_ref().map(|c| c.nr).unwrap_or(SYS_FORK);
        let insn_pc = plwp.syscall.as_ref().map(|c| c.insn_pc).unwrap_or(0);
        // Child LWP: a copy of the calling LWP's machine state.
        let mut clwp = crate::proc::Lwp::new(Tid(1), plwp.gregs.pc, plwp.gregs.sp());
        clwp.gregs = plwp.gregs.clone();
        clwp.fpregs = plwp.fpregs.clone();
        clwp.held = plwp.held;
        // The child is logically at the exit of fork, returning 0.
        clwp.gregs.set_rv(0);
        clwp.gregs.psr &= !PSR_ERR;
        let mut cctx = SyscallCtx::new(nr, insn_pc);
        cctx.phase = SysPhase::Exit(Ok(0));
        clwp.syscall = Some(cctx);
        // Descriptors: share open files. Pipe end counts track open
        // *file descriptions*, not descriptors — fork shares the
        // description (one `incref`), so the end counts don't move;
        // they drop only when the last reference dies in `close_fd`.
        // Counting per descriptor here would leave `readers`/`writers`
        // permanently above zero after a fork, so a blocked writer
        // would never see the last reader vanish (no `SIGPIPE`) and a
        // reader would never see writer-side EOF.
        let cfds = pp.fds.clone();
        for (_, fid) in cfds.iter() {
            files.incref(fid);
        }
        let trace = if pp.trace.inherit_on_fork {
            pp.trace.inherited()
        } else {
            crate::proc::TraceState::default()
        };
        let child = crate::proc::Proc {
            pid: child_pid,
            ppid: parent,
            pgrp: pp.pgrp,
            sid: pp.sid,
            cred: pp.cred.clone(),
            aspace: pp.aspace.fork_clone(objects),
            fds: cfds,
            lwps: vec![clwp],
            next_tid: 2,
            pending: crate::signal::SigSet::empty(),
            actions: pp.actions.clone(),
            trace,
            fname: pp.fname.clone(),
            psargs: pp.psargs.clone(),
            cwd: pp.cwd.clone(),
            umask: pp.umask,
            nice: pp.nice,
            start_time: *clock,
            cpu_time: 0,
            hosted: pp.hosted,
            zombie: false,
            exit_status: 0,
            exec_gen: 0,
            ptraced: false,
            stop_reported: false,
            alarm_at: None,
            vfork_parent: vfork.then_some(parent),
            pr_gen: 0,
        };
        procs.insert(child_pid.0, child);
        self.kernel.runq.insert(child_pid.0);
        self.kernel.table_gen = self.kernel.table_gen.wrapping_add(1);
        self.kernel.log.push(crate::event::Event::Fork { parent, child: child_pid });
        // The child stops on exit from fork if (and only if) it inherited
        // exit tracing of the call — "both parent and child stop on exit
        // from the fork".
        let child_exit_traced = self
            .kernel
            .proc(child_pid)
            .map(|p| p.trace.exit_trace.has(nr as usize))
            .unwrap_or(false);
        if child_exit_traced {
            self.kernel.stop_lwp(child_pid, Tid(1), StopWhy::SyscallExit(nr));
        } else if let Ok(p) = self.kernel.proc_mut(child_pid) {
            let l = &mut p.lwps[0];
            l.syscall = None;
            l.user_return_pending = true;
        }
        if vfork {
            if let Ok(p) = self.kernel.proc_mut(parent) {
                if let Some(l) = p.lwp_mut(tid) {
                    if let Some(ctx) = &mut l.syscall {
                        ctx.forked_child = Some(child_pid);
                    }
                }
            }
            SysOutcome::Sleep(WaitChannel::VforkDone(child_pid))
        } else {
            SysOutcome::Done(Ok(child_pid.0 as u64))
        }
    }

    /// Checks for a waitable child of `parent`. Returns
    /// `Ok(Some((pid, status)))` when one is ready, `Ok(None)` when the
    /// caller should sleep, `Err(ECHILD)` when there is nothing to wait
    /// for.
    pub fn wait_check(&mut self, parent: Pid) -> SysResult<Option<(Pid, u16)>> {
        let mut have_child = false;
        let mut zombie: Option<(Pid, u16)> = None;
        let mut stopped: Option<(Pid, u16)> = None;
        for proc in self.kernel.procs.values() {
            if proc.ppid != parent || proc.pid == parent {
                continue;
            }
            have_child = true;
            if proc.zombie {
                zombie = Some((proc.pid, proc.exit_status));
                break;
            }
            if proc.ptraced && !proc.stop_reported {
                if let Some(StopWhy::Ptrace(sig)) = proc.rep_lwp().stop_why() {
                    stopped = Some((proc.pid, Kernel::status_stopped(sig)));
                }
                // A traced child stopped on a /proc event is also made
                // visible to the ptrace parent's wait (the mechanisms
                // compete; wait sees stops).
                else if let Some(StopWhy::JobControl(sig)) = proc.rep_lwp().stop_why() {
                    stopped = Some((proc.pid, Kernel::status_stopped(sig)));
                }
            }
        }
        if let Some((pid, status)) = zombie {
            self.kernel.procs.remove(&pid.0);
            self.kernel.table_gen = self.kernel.table_gen.wrapping_add(1);
            return Ok(Some((pid, status)));
        }
        if let Some((pid, status)) = stopped {
            if let Ok(p) = self.kernel.proc_mut(pid) {
                p.stop_reported = true;
            }
            return Ok(Some((pid, status)));
        }
        if !have_child {
            return Err(Errno::ECHILD);
        }
        Ok(None)
    }

    // ------------------------------------------------------------------
    // exec
    // ------------------------------------------------------------------

    /// Loads and parses the executable at `path`, caching section objects
    /// keyed by `(fs, node)` so all processes running one image share its
    /// pages.
    fn load_image(&mut self, cur: Pid, path: &str) -> SysResult<(u32, NodeId, u16, u32, u32)> {
        let (fsid, node) = self.resolve(cur, path)?;
        let System { kernel, fss, .. } = self;
        let meta = fss[fsid as usize].as_fs().getattr(kernel, node)?;
        if meta.kind != vfs::VnodeKind::Regular {
            return Err(Errno::EACCES);
        }
        let cred = kernel.proc(cur)?.cred.clone();
        if !cred.file_access(meta.mode, meta.uid, meta.gid, 1) {
            return Err(Errno::EACCES);
        }
        if !kernel.images.contains_key(&(fsid, node.0)) {
            let mut content = vec![0u8; meta.size as usize];
            let mut off = 0usize;
            while off < content.len() {
                match fss[fsid as usize].as_fs().read(
                    kernel,
                    cur,
                    node,
                    vfs::OpenToken(0),
                    off as u64,
                    &mut content[off..],
                )? {
                    IoReply::Done(0) => break,
                    IoReply::Done(n) => off += n,
                    IoReply::Block => return Err(Errno::EIO),
                }
            }
            let aout = Aout::from_bytes(&content)?;
            let text_obj = kernel.objects.alloc_file(fsid, node.0, path, &aout.text);
            let data_obj = kernel.objects.alloc_file(fsid, node.0, path, &aout.data);
            kernel.images.insert((fsid, node.0), CachedImage { aout, text_obj, data_obj });
        }
        Ok((fsid, node, meta.mode, meta.uid, meta.gid))
    }

    /// Replaces the process image — `exec(2)`.
    pub fn do_exec(&mut self, pid: Pid, path: &str, argv: &[String]) -> SysResult<()> {
        let (fsid, node, mode, file_uid, file_gid) = self.load_image(pid, path)?;
        // Resolve the libraries the image needs (loading them into the
        // cache) before touching the old address space.
        let lib_names = self.kernel.images[&(fsid, node.0)].aout.libs.clone();
        let mut lib_keys = Vec::new();
        for name in &lib_names {
            let lib_path = format!("/lib/{name}");
            let (lfs, lnode, _, _, _) = self.load_image(pid, &lib_path)?;
            lib_keys.push((lfs, lnode.0, name.clone()));
        }
        let Kernel { procs, objects, images, .. } = &mut self.kernel;
        let proc = procs.get_mut(&pid.0).ok_or(Errno::ESRCH)?;
        // The new image needs fresh anonymous memory (bss, break, stack);
        // under injected pressure the exec fails cleanly with ENOMEM
        // while the old image is still intact.
        if !objects.mem_ok() {
            return Err(Errno::ENOMEM);
        }
        // Point of no return: tear down the old image.
        proc.aspace.clear(objects);
        let Some(img) = images.get(&(fsid, node.0)) else {
            unreachable!("exec image cached above")
        };
        let _ = &img.aout;
        let page_up = |v: u64| v.div_ceil(PAGE_SIZE) * PAGE_SIZE;
        let map_image = |aspace: &mut vm::AddressSpace,
                         objects: &mut vm::ObjectStore,
                         img: &CachedImage,
                         text_name: vm::SegName,
                         data_name: vm::SegName|
         -> SysResult<()> {
            let a = &img.aout;
            if !a.text.is_empty() {
                objects.incref(img.text_obj);
                aspace
                    .map_fixed(
                        a.text_base,
                        page_up(a.text.len() as u64),
                        vm::Prot::RX,
                        vm::MapFlags::default(),
                        img.text_obj,
                        0,
                        text_name,
                    )
                    .map_err(|_| Errno::ENOMEM)?;
            }
            if !a.data.is_empty() {
                objects.incref(img.data_obj);
                aspace
                    .map_fixed(
                        a.data_base,
                        page_up(a.data.len() as u64),
                        vm::Prot::RW,
                        vm::MapFlags::default(),
                        img.data_obj,
                        0,
                        data_name,
                    )
                    .map_err(|_| Errno::ENOMEM)?;
            }
            Ok(())
        };
        map_image(&mut proc.aspace, objects, img, vm::SegName::Text, vm::SegName::Data)?;
        // bss + break after data (or text when there is no data).
        let Some(img) = images.get(&(fsid, node.0)) else {
            unreachable!("exec image cached above")
        };
        let aout_entry = img.aout.entry;
        let data_end = if img.aout.data.is_empty() {
            img.aout.text_base + page_up(img.aout.text.len() as u64)
        } else {
            img.aout.data_base + page_up(img.aout.data.len() as u64)
        };
        let bss_len = page_up(img.aout.bss_len.max(PAGE_SIZE));
        let bss_obj = objects.alloc_anon(bss_len);
        proc.aspace
            .map_fixed(
                data_end,
                bss_len,
                vm::Prot::RW,
                vm::MapFlags::default(),
                bss_obj,
                0,
                vm::SegName::Bss,
            )
            .map_err(|_| Errno::ENOMEM)?;
        let brk_base = data_end + bss_len;
        let brk_obj = objects.alloc_anon(PAGE_SIZE);
        proc.aspace
            .map_fixed(
                brk_base,
                PAGE_SIZE,
                vm::Prot::RW,
                vm::MapFlags { is_break: true, ..Default::default() },
                brk_obj,
                0,
                vm::SegName::Break,
            )
            .map_err(|_| Errno::ENOMEM)?;
        // Libraries.
        for (lfs, lnode, name) in &lib_keys {
            let Some(limg) = images.get(&(*lfs, *lnode)) else {
                unreachable!("library image cached above")
            };
            map_image(
                &mut proc.aspace,
                objects,
                limg,
                vm::SegName::LibText(name.clone()),
                vm::SegName::LibData(name.clone()),
            )?;
        }
        // Stack, with the argument vector at the top.
        let stack_obj = objects.alloc_anon(aout::STACK_INIT);
        proc.aspace
            .map_fixed(
                aout::STACK_TOP - aout::STACK_INIT,
                aout::STACK_INIT,
                vm::Prot::RW,
                vm::MapFlags { grows_down: true, ..Default::default() },
                stack_obj,
                0,
                vm::SegName::Stack,
            )
            .map_err(|_| Errno::ENOMEM)?;
        proc.aspace.stack_limit = aout::STACK_LIMIT;
        // Argument image: strings then a pointer array.
        let mut straddr = Vec::with_capacity(argv.len());
        let strings_len: u64 = argv.iter().map(|a| a.len() as u64 + 1).sum();
        let ptrs_len = (argv.len() as u64 + 1) * 8;
        let total = (strings_len + ptrs_len + 15) & !15;
        let sp = aout::STACK_TOP - total;
        let argv_addr = sp;
        let mut cursor = sp + ptrs_len;
        let mut image = Vec::new();
        for a in argv {
            straddr.push(cursor);
            cursor += a.len() as u64 + 1;
        }
        for a in &straddr {
            image.extend_from_slice(&a.to_le_bytes());
        }
        image.extend_from_slice(&0u64.to_le_bytes());
        for a in argv {
            image.extend_from_slice(a.as_bytes());
            image.push(0);
        }
        proc.aspace.kernel_write(objects, sp, &image).map_err(|_| Errno::ENOMEM)?;
        // Reset the (single surviving) LWP.
        let keep_tid = proc.lwps[0].tid;
        let held = proc.lwps[0].held;
        proc.lwps.truncate(1);
        let lwp = &mut proc.lwps[0];
        let old_syscall = lwp.syscall.clone();
        *lwp = crate::proc::Lwp::new(keep_tid, aout_entry, sp);
        // The LWP now holds a guest image, so it will run guest code:
        // take its superblock table here, with the rest of the image,
        // rather than at its first dispatch. A table taken mid-run lands
        // on the allocator's top of heap, which is handed back to the
        // host whenever its process goes and faulted in again later; the
        // number of page faults a run takes then varies from run to run.
        lwp.sblocks.reserve();
        lwp.held = held;
        lwp.syscall = old_syscall;
        lwp.gregs.set_arg(0, argv.len() as u64);
        lwp.gregs.set_arg(1, argv_addr);
        proc.actions.reset_caught();
        proc.fname = path.rsplit('/').next().unwrap_or(path).to_string();
        proc.psargs = argv.join(" ");
        if proc.psargs.is_empty() {
            proc.psargs = proc.fname.clone();
        }
        // Set-id handling.
        let mut setid = false;
        if mode & vfs::node::MODE_SETUID != 0 {
            proc.cred.euid = file_uid;
            proc.cred.suid = file_uid;
            setid = true;
        }
        if mode & vfs::node::MODE_SETGID != 0 {
            proc.cred.egid = file_gid;
            proc.cred.sgid = file_gid;
            setid = true;
        }
        let writers = proc.trace.writers;
        if setid {
            proc.exec_gen += 1;
        }
        let vfork_parent = proc.vfork_parent.take();
        proc.touch();
        self.kernel.runq.insert(pid.0);
        self.kernel.log.push(crate::event::Event::Exec { pid, path: path.to_string(), setid });
        if setid && writers > 0 {
            // "When the set-id exec occurs, the traced process is
            // directed to stop and its run-on-last-close flag is set."
            if let Ok(p) = self.kernel.proc_mut(pid) {
                p.trace.run_on_last_close = true;
            }
            let _ = self.kernel.direct_stop(pid);
        }
        if vfork_parent.is_some() {
            self.kernel.wake_channel(WaitChannel::VforkDone(pid));
        }
        self.kernel.wake_pollers();
        Ok(())
    }

    // ------------------------------------------------------------------
    // The file layer
    // ------------------------------------------------------------------

    /// Resolves an absolute or cwd-relative path for process `cur` to a
    /// `(file system, node)` pair.
    pub fn resolve(&mut self, cur: Pid, path: &str) -> SysResult<(u32, NodeId)> {
        let abs = if path.starts_with('/') {
            path.to_string()
        } else {
            let cwd = self.kernel.proc(cur)?.cwd.clone();
            format!("{}/{}", if cwd == "/" { "" } else { &cwd }, path)
        };
        let (fsid, parts) = self.mounts.resolve(&abs).ok_or(Errno::ENOENT)?;
        let System { kernel, fss, .. } = self;
        let fs = fss[fsid as usize].as_fs();
        let mut node = fs.root();
        for part in &parts {
            node = fs.lookup(kernel, cur, node, part)?;
        }
        Ok((fsid, node))
    }

    /// Splits a path into its parent directory node and final component.
    pub(crate) fn resolve_parent(
        &mut self,
        cur: Pid,
        path: &str,
    ) -> SysResult<(u32, NodeId, String)> {
        let abs = if path.starts_with('/') {
            path.to_string()
        } else {
            let cwd = self.kernel.proc(cur)?.cwd.clone();
            format!("{}/{}", if cwd == "/" { "" } else { &cwd }, path)
        };
        let (fsid, parts) = self.mounts.resolve(&abs).ok_or(Errno::ENOENT)?;
        let Some((name, dirs)) = parts.split_last() else {
            return Err(Errno::EINVAL);
        };
        let System { kernel, fss, .. } = self;
        let fs = fss[fsid as usize].as_fs();
        let mut node = fs.root();
        for part in dirs {
            node = fs.lookup(kernel, cur, node, part)?;
        }
        Ok((fsid, node, name.clone()))
    }

    /// Opens `path` for process `cur`, honouring `creat`/`trunc`.
    pub fn open_path(&mut self, cur: Pid, path: &str, flags: OFlags) -> SysResult<usize> {
        let cred = self.kernel.proc(cur)?.cred.clone();
        let resolved = self.resolve(cur, path);
        let (fsid, node) = match resolved {
            Ok(hit) => hit,
            Err(Errno::ENOENT) if flags.creat => {
                let (fsid, dir, name) = self.resolve_parent(cur, path)?;
                let umask = self.kernel.proc(cur)?.umask;
                let System { kernel, fss, .. } = self;
                let node = fss[fsid as usize].as_fs().create(
                    kernel,
                    cur,
                    dir,
                    &name,
                    0o666 & !umask,
                    &cred,
                )?;
                (fsid, node)
            }
            Err(e) => return Err(e),
        };
        let System { kernel, fss, .. } = self;
        let token = fss[fsid as usize].as_fs().open(kernel, cur, node, flags, &cred)?;
        let fid = kernel.files.alloc(FileKind::Vnode { fs: fsid, node, token }, flags);
        let proc = kernel.proc_mut(cur)?;
        match proc.fds.alloc(fid) {
            Some(fd) => Ok(fd),
            None => {
                // Roll back.
                let dead = kernel.files.decref(fid);
                if let Some(f) = dead {
                    if let FileKind::Vnode { fs, node, token } = f.kind {
                        fss[fs as usize].as_fs().close(kernel, cur, node, token, flags);
                    }
                }
                Err(Errno::EMFILE)
            }
        }
    }

    /// Closes descriptor `fd` of process `cur`.
    pub fn close_fd(&mut self, cur: Pid, fd: usize) -> SysResult<()> {
        let fid = {
            let proc = self.kernel.proc_mut(cur)?;
            proc.fds.remove(fd).ok_or(Errno::EBADF)?
        };
        if let Some(dead) = self.kernel.files.decref(fid) {
            match dead.kind {
                FileKind::Vnode { fs, node, token } => {
                    let System { kernel, fss, .. } = self;
                    fss[fs as usize].as_fs().close(kernel, cur, node, token, dead.flags);
                }
                FileKind::PipeR(p) => {
                    self.kernel.pipes.drop_end(p, false);
                    self.kernel.wake_channel(WaitChannel::PipeW(p));
                    self.kernel.wake_pollers();
                }
                FileKind::PipeW(p) => {
                    self.kernel.pipes.drop_end(p, true);
                    self.kernel.wake_channel(WaitChannel::PipeR(p));
                    self.kernel.wake_pollers();
                }
            }
        }
        Ok(())
    }

    fn file_of(&self, cur: Pid, fd: usize) -> SysResult<FileId> {
        self.kernel.proc(cur)?.fds.get(fd).ok_or(Errno::EBADF)
    }

    /// Reads from a descriptor into a host buffer at the current offset.
    pub fn read_fd(&mut self, cur: Pid, fd: usize, buf: &mut [u8]) -> SysResult<FlIo> {
        let fid = self.file_of(cur, fd)?;
        let file = self.kernel.files.get(fid).ok_or(Errno::EBADF)?.clone();
        match file.kind {
            FileKind::Vnode { fs, node, token } => {
                if !file.flags.read {
                    return Err(Errno::EBADF);
                }
                let System { kernel, fss, .. } = self;
                match fss[fs as usize].as_fs().read(kernel, cur, node, token, file.offset, buf)? {
                    IoReply::Done(n) => {
                        if let Some(f) = self.kernel.files.get_mut(fid) {
                            f.offset += n as u64;
                        }
                        Ok(FlIo::Done(n))
                    }
                    IoReply::Block => Ok(FlIo::Block(WaitChannel::PollWait)),
                }
            }
            FileKind::PipeR(p) => {
                let pipe = self.kernel.pipes.get_mut(p).ok_or(Errno::EBADF)?;
                if pipe.buf.is_empty() {
                    if pipe.writers == 0 {
                        return Ok(FlIo::Done(0));
                    }
                    return Ok(FlIo::Block(WaitChannel::PipeR(p)));
                }
                let n = buf.len().min(pipe.buf.len());
                for b in buf.iter_mut().take(n) {
                    let Some(byte) = pipe.buf.pop_front() else { break };
                    *b = byte;
                }
                self.kernel.wake_channel(WaitChannel::PipeW(p));
                self.kernel.wake_pollers();
                Ok(FlIo::Done(n))
            }
            FileKind::PipeW(_) => Err(Errno::EBADF),
        }
    }

    /// Writes a host buffer to a descriptor at the current offset.
    pub fn write_fd(&mut self, cur: Pid, fd: usize, data: &[u8]) -> SysResult<FlIo> {
        let fid = self.file_of(cur, fd)?;
        let file = self.kernel.files.get(fid).ok_or(Errno::EBADF)?.clone();
        match file.kind {
            FileKind::Vnode { fs, node, token } => {
                if !file.flags.write {
                    return Err(Errno::EBADF);
                }
                let System { kernel, fss, .. } = self;
                match fss[fs as usize].as_fs().write(kernel, cur, node, token, file.offset, data)? {
                    IoReply::Done(n) => {
                        if let Some(f) = self.kernel.files.get_mut(fid) {
                            f.offset += n as u64;
                        }
                        Ok(FlIo::Done(n))
                    }
                    IoReply::Block => Ok(FlIo::Block(WaitChannel::PollWait)),
                }
            }
            FileKind::PipeW(p) => {
                let pipe = self.kernel.pipes.get_mut(p).ok_or(Errno::EBADF)?;
                if pipe.readers == 0 {
                    let _ = self.kernel.post_signal(cur, SIGPIPE);
                    return Err(Errno::EPIPE);
                }
                let space = PIPE_CAP.saturating_sub(pipe.buf.len());
                if space == 0 {
                    return Ok(FlIo::Block(WaitChannel::PipeW(p)));
                }
                let n = data.len().min(space);
                pipe.buf.extend(&data[..n]);
                self.kernel.wake_channel(WaitChannel::PipeR(p));
                self.kernel.wake_pollers();
                Ok(FlIo::Done(n))
            }
            FileKind::PipeR(_) => Err(Errno::EBADF),
        }
    }

    /// Repositions a descriptor's offset; whence 0=set, 1=cur, 2=end.
    pub fn lseek_fd(&mut self, cur: Pid, fd: usize, off: i64, whence: u32) -> SysResult<u64> {
        let fid = self.file_of(cur, fd)?;
        let file = self.kernel.files.get(fid).ok_or(Errno::EBADF)?.clone();
        let FileKind::Vnode { fs, node, .. } = file.kind else {
            return Err(Errno::ESPIPE);
        };
        let base = match whence {
            0 => 0i64,
            1 => file.offset as i64,
            2 => {
                let System { kernel, fss, .. } = self;
                fss[fs as usize].as_fs().getattr(kernel, node)?.size as i64
            }
            _ => return Err(Errno::EINVAL),
        };
        let new = base.checked_add(off).ok_or(Errno::EINVAL)?;
        if new < 0 {
            return Err(Errno::EINVAL);
        }
        if let Some(f) = self.kernel.files.get_mut(fid) {
            f.offset = new as u64;
        }
        Ok(new as u64)
    }

    /// Performs an ioctl on a descriptor.
    pub fn ioctl_fd(&mut self, cur: Pid, fd: usize, req: u32, arg: &[u8]) -> SysResult<IoctlReply> {
        let fid = self.file_of(cur, fd)?;
        let file = self.kernel.files.get(fid).ok_or(Errno::EBADF)?.clone();
        let FileKind::Vnode { fs, node, token } = file.kind else {
            return Err(Errno::ENOTTY);
        };
        let System { kernel, fss, .. } = self;
        fss[fs as usize].as_fs().ioctl(kernel, cur, node, token, req, arg)
    }

    /// Poll status of a descriptor. Instantaneous — never blocks — but
    /// still a recorded input: a `/proc` poll over a remote mount can
    /// advance wire-session state, so replay must re-issue it.
    pub fn poll_fd(&mut self, cur: Pid, fd: usize) -> SysResult<PollStatus> {
        self.recorded(
            |s| s.poll_fd_inner(cur, fd),
            || Input::HostPollFd { pid: cur.0, fd: fd as u32 },
            |st, out| record::poll_bytes(std::slice::from_ref(st), out),
        )
    }

    fn poll_fd_inner(&mut self, cur: Pid, fd: usize) -> SysResult<PollStatus> {
        let fid = self.file_of(cur, fd)?;
        let file = self.kernel.files.get(fid).ok_or(Errno::EBADF)?.clone();
        match file.kind {
            FileKind::Vnode { fs, node, token } => {
                let System { kernel, fss, .. } = self;
                fss[fs as usize].as_fs().poll(kernel, node, token)
            }
            FileKind::PipeR(p) => {
                let pipe = self.kernel.pipes.get(p).ok_or(Errno::EBADF)?;
                Ok(PollStatus {
                    readable: !pipe.buf.is_empty() || pipe.writers == 0,
                    writable: false,
                    hangup: pipe.writers == 0,
                })
            }
            FileKind::PipeW(p) => {
                let pipe = self.kernel.pipes.get(p).ok_or(Errno::EBADF)?;
                Ok(PollStatus {
                    readable: false,
                    writable: pipe.buf.len() < PIPE_CAP && pipe.readers > 0,
                    hangup: pipe.readers == 0,
                })
            }
        }
    }

    /// Duplicates a descriptor. The new descriptor shares the open file
    /// description, so pipe end counts (which track descriptions, not
    /// descriptors) are untouched.
    pub fn dup_fd(&mut self, cur: Pid, fd: usize) -> SysResult<usize> {
        let fid = self.file_of(cur, fd)?;
        if self.kernel.files.get(fid).is_none() {
            return Err(Errno::EBADF);
        }
        self.kernel.files.incref(fid);
        let proc = self.kernel.proc_mut(cur)?;
        match proc.fds.alloc(fid) {
            Some(nfd) => Ok(nfd),
            None => {
                self.kernel.files.decref(fid);
                Err(Errno::EMFILE)
            }
        }
    }

    /// Creates a pipe; returns (read fd, write fd).
    pub fn make_pipe(&mut self, cur: Pid) -> SysResult<(usize, usize)> {
        let p = self.kernel.pipes.alloc();
        let rfid = self.kernel.files.alloc(FileKind::PipeR(p), OFlags::rdonly());
        let wfid = self.kernel.files.alloc(FileKind::PipeW(p), OFlags::wronly());
        let proc = self.kernel.proc_mut(cur)?;
        let rfd = proc.fds.alloc(rfid).ok_or(Errno::EMFILE)?;
        let wfd = match proc.fds.alloc(wfid) {
            Some(fd) => fd,
            None => {
                proc.fds.remove(rfd);
                self.kernel.files.decref(rfid);
                self.kernel.files.decref(wfid);
                self.kernel.pipes.drop_end(p, false);
                self.kernel.pipes.drop_end(p, true);
                return Err(Errno::EMFILE);
            }
        };
        Ok((rfd, wfd))
    }

    /// `stat` by path.
    pub fn stat_path(&mut self, cur: Pid, path: &str) -> SysResult<Metadata> {
        let (fsid, node) = self.resolve(cur, path)?;
        let System { kernel, fss, .. } = self;
        fss[fsid as usize].as_fs().getattr(kernel, node)
    }

    /// Directory entries of `path`.
    pub fn list_dir(&mut self, cur: Pid, path: &str) -> SysResult<Vec<DirEntry>> {
        let (fsid, node) = self.resolve(cur, path)?;
        let System { kernel, fss, .. } = self;
        fss[fsid as usize].as_fs().readdir(kernel, cur, node)
    }

    // ------------------------------------------------------------------
    // Host-level (controlling-program) API
    // ------------------------------------------------------------------

    /// Installs a kernel fault schedule: the plan itself on the kernel
    /// and, derived from the same seed, a [`vm::MemPressure`] source on
    /// the object store so vm allocation sites fail too. Passing
    /// all-zero rates installs a plan that consumes no generator state —
    /// byte-for-byte identical to no plan at all. This is the single
    /// installation site behind [`SimConfig::kernel_faults`].
    fn apply_fault_plan(
        &mut self,
        seed: u64,
        rates: crate::kfault::KernelFaultRates,
        targeted: bool,
    ) {
        self.kernel.objects.set_pressure(seed ^ 0xA5A5_5A5A_C3C3_3C3C, rates.enomem);
        let plan = crate::kfault::KernelFaultPlan::new(seed, rates);
        self.kernel.fault_plan = Some(if targeted { plan.with_targeted_death(true) } else { plan });
    }

    /// The injection counters (`PIOCKFAULTSTATS` answers with these),
    /// with the object store's pressure denials merged in. All zero when
    /// no plan is installed.
    pub fn kfault_stats(&self) -> crate::kfault::KFaultStats {
        let mut st = self.kernel.fault_plan.as_ref().map(|p| p.stats).unwrap_or_default();
        st.enomem_vm = self.kernel.objects.pressure_denials();
        st
    }

    /// Asynchronous-death injection: called at the top of every
    /// host-level controller operation, so a target can vanish *between*
    /// any two controller ops. Picks a deterministic victim among live,
    /// non-hosted, non-init simulated processes and either SIGKILLs it
    /// or makes it exit quietly.
    fn kfault_maybe_kill(&mut self) {
        let (rolled, targeted) = match self.kernel.fault_plan.as_mut() {
            Some(plan) => (plan.roll_death(), plan.targeted_death),
            None => return,
        };
        if rolled {
            self.kfault_kill_one(targeted, false);
        }
    }

    /// Mid-op death injection: called before every scheduler step taken
    /// *inside* a single blocking host op's pump loop, so a target can
    /// vanish between two steps of one `PIOCWSTOP`/`PCWSTOP`/host read —
    /// after the op has latched its target but before it completes. Off
    /// unless the plan's `mid_op` rate is set (a per-step roll compounds
    /// over hundreds of steps, so it is opt-in, not part of `uniform`).
    fn kfault_pump_tick(&mut self) {
        let (rolled, targeted) = match self.kernel.fault_plan.as_mut() {
            Some(plan) => (plan.roll_death_mid_op(), plan.targeted_death),
            None => return,
        };
        if rolled {
            self.kfault_kill_one(targeted, true);
        }
    }

    /// Picks a deterministic victim (shared by the per-op and mid-op
    /// death sites) and kills it — `SIGKILL` or a quiet exit, one
    /// generator bit deciding which.
    fn kfault_kill_one(&mut self, targeted: bool, mid_op: bool) {
        let victims: Vec<Pid> = self
            .kernel
            .procs
            .iter()
            .filter(|(id, p)| {
                **id > 1 && !p.hosted && !p.zombie && (!targeted || p.trace.writers > 0)
            })
            .map(|(id, _)| Pid(*id))
            .collect();
        if victims.is_empty() {
            return;
        }
        let Some(plan) = self.kernel.fault_plan.as_mut() else { return };
        let victim = victims[plan.pick(victims.len() as u64) as usize];
        let hard = plan.next_bit();
        if mid_op {
            plan.stats.deaths_mid_op += 1;
        } else {
            plan.stats.deaths += 1;
        }
        if hard {
            self.force_kill(victim, SIGKILL);
        } else {
            self.do_exit(victim, Kernel::status_exited(0));
        }
    }

    /// Rolls the EINTR site once (used the first time a blocking host
    /// op would actually block).
    fn kfault_roll_eintr(&mut self) -> bool {
        self.kernel.fault_plan.as_mut().map(|p| p.roll_eintr()).unwrap_or(false)
    }

    /// Pumps the scheduler until `f` produces a value, failing with
    /// `EDEADLK` if the simulation goes fully idle (nothing can ever
    /// complete the call) or the pump budget runs out.
    pub fn pump_until<T>(
        &mut self,
        mut f: impl FnMut(&mut System) -> SysResult<Option<T>>,
    ) -> SysResult<T> {
        let mut idle = 0u32;
        for _ in 0..self.pump_limit {
            if let Some(v) = f(self)? {
                return Ok(v);
            }
            self.kfault_pump_tick();
            if self.step() {
                idle = 0;
            } else {
                idle += 1;
                if idle > 2 {
                    return Err(Errno::EDEADLK);
                }
            }
        }
        Err(Errno::EDEADLK)
    }

    /// Host `open(2)`.
    pub fn host_open(&mut self, cur: Pid, path: &str, flags: OFlags) -> SysResult<usize> {
        self.recorded(
            |s| s.open_path(cur, path, flags),
            || Input::HostOpen { pid: cur.0, path: path.to_string(), flags },
            |fd, out| out.extend_from_slice(&(*fd as u64).to_le_bytes()),
        )
    }

    /// Host `close(2)`.
    pub fn host_close(&mut self, cur: Pid, fd: usize) -> SysResult<()> {
        self.recorded(
            |s| s.close_fd(cur, fd),
            || Input::HostClose { pid: cur.0, fd: fd as u32 },
            |(), _| {},
        )
    }

    /// Host `read(2)`: blocks (pumping the scheduler) until data arrives
    /// or the pump budget is exhausted.
    pub fn host_read(&mut self, cur: Pid, fd: usize, buf: &mut [u8]) -> SysResult<usize> {
        if !self.rec_active() {
            return self.host_read_inner(cur, fd, buf);
        }
        self.rec_snapshot_if_due(false);
        self.rec_suppress(true);
        let r = self.host_read_inner(cur, fd, buf);
        self.rec_suppress(false);
        let input = Input::HostRead { pid: cur.0, fd: fd as u32, len: buf.len() as u32 };
        self.rec_commit(input, |out| {
            record::encode_result(
                &r,
                |n, out| {
                    out.extend_from_slice(&(*n as u64).to_le_bytes());
                    out.extend_from_slice(&buf[..*n]);
                },
                out,
            )
        });
        r
    }

    fn host_read_inner(&mut self, cur: Pid, fd: usize, buf: &mut [u8]) -> SysResult<usize> {
        self.kfault_maybe_kill();
        let mut intr_pending = true;
        for _ in 0..self.pump_limit {
            match self.read_fd(cur, fd, buf)? {
                FlIo::Done(n) => return Ok(n),
                FlIo::Block(_) => {
                    // The sleep is interruptible; the fault plan may cut
                    // it short the first time we would actually block.
                    if intr_pending {
                        intr_pending = false;
                        if self.kfault_roll_eintr() {
                            return Err(Errno::EINTR);
                        }
                    }
                    self.kfault_pump_tick();
                    if !self.step() {
                        return Err(Errno::EDEADLK);
                    }
                }
            }
        }
        Err(Errno::EDEADLK)
    }

    /// Host `write(2)`: blocks (pumping) while the file would block, up
    /// to the pump budget.
    pub fn host_write(&mut self, cur: Pid, fd: usize, data: &[u8]) -> SysResult<usize> {
        self.recorded(
            |s| s.host_write_inner(cur, fd, data),
            || Input::HostWrite { pid: cur.0, fd: fd as u32, data: data.to_vec() },
            |n, out| out.extend_from_slice(&(*n as u64).to_le_bytes()),
        )
    }

    fn host_write_inner(&mut self, cur: Pid, fd: usize, data: &[u8]) -> SysResult<usize> {
        self.kfault_maybe_kill();
        let mut written = 0;
        let mut budget = self.pump_limit;
        let mut intr_pending = true;
        while written < data.len() {
            match self.write_fd(cur, fd, &data[written..])? {
                FlIo::Done(0) => break,
                FlIo::Done(n) => written += n,
                FlIo::Block(_) => {
                    // Blocking here covers the hier face's PCWSTOP ctl
                    // batches; per POSIX, EINTR only if nothing has been
                    // written yet, else the partial count is returned.
                    if intr_pending {
                        intr_pending = false;
                        if self.kfault_roll_eintr() {
                            if written == 0 {
                                return Err(Errno::EINTR);
                            }
                            return Ok(written);
                        }
                    }
                    budget = budget.saturating_sub(1);
                    self.kfault_pump_tick();
                    if budget == 0 || !self.step() {
                        return Err(Errno::EDEADLK);
                    }
                }
            }
        }
        Ok(written)
    }

    /// Host `lseek(2)`.
    pub fn host_lseek(&mut self, cur: Pid, fd: usize, off: i64, whence: u32) -> SysResult<u64> {
        self.recorded(
            |s| {
                s.kfault_maybe_kill();
                s.lseek_fd(cur, fd, off, whence)
            },
            || Input::HostLseek { pid: cur.0, fd: fd as u32, off, whence },
            |pos, out| out.extend_from_slice(&pos.to_le_bytes()),
        )
    }

    /// Host `ioctl(2)`: blocks (pumping) while the operation would block
    /// (`PIOCWSTOP`).
    pub fn host_ioctl(&mut self, cur: Pid, fd: usize, req: u32, arg: &[u8]) -> SysResult<Vec<u8>> {
        self.recorded(
            |s| s.host_ioctl_inner(cur, fd, req, arg),
            || Input::HostIoctl { pid: cur.0, fd: fd as u32, req, arg: arg.to_vec() },
            |bytes, out| {
                out.extend_from_slice(&(bytes.len() as u64).to_le_bytes());
                // The recorder's counters count this host's replays and
                // restores, which no replay reproduces.
                if req != record::PIOCRECSTATS {
                    out.extend_from_slice(bytes);
                }
            },
        )
    }

    fn host_ioctl_inner(
        &mut self,
        cur: Pid,
        fd: usize,
        req: u32,
        arg: &[u8],
    ) -> SysResult<Vec<u8>> {
        self.kfault_maybe_kill();
        let arg = arg.to_vec();
        let mut intr_pending = true;
        self.pump_until(move |s| match s.ioctl_fd(cur, fd, req, &arg)? {
            IoctlReply::Done(out) => Ok(Some(out)),
            IoctlReply::Block => {
                // First time the wait (PIOCWSTOP) actually blocks, the
                // fault plan may interrupt the sleep.
                if intr_pending {
                    intr_pending = false;
                    if s.kfault_roll_eintr() {
                        return Err(Errno::EINTR);
                    }
                }
                Ok(None)
            }
        })
    }

    /// Host `kill(2)` with permission checks.
    pub fn host_kill(&mut self, cur: Pid, target: Pid, sig: usize) -> SysResult<()> {
        self.recorded(
            |s| s.host_kill_inner(cur, target, sig),
            || Input::HostKill { pid: cur.0, target: target.0, sig: sig as u32 },
            |(), _| {},
        )
    }

    fn host_kill_inner(&mut self, cur: Pid, target: Pid, sig: usize) -> SysResult<()> {
        let sender = self.kernel.proc(cur)?.cred.clone();
        let tcred = self.kernel.proc(target)?.cred.clone();
        if !Kernel::kill_permitted(&sender, &tcred) {
            return Err(Errno::EPERM);
        }
        if sig == 0 {
            return Ok(());
        }
        self.kernel.post_signal(target, sig)
    }

    /// Host `wait(2)`: blocks until a child changes state.
    pub fn host_wait(&mut self, cur: Pid) -> SysResult<(Pid, u16)> {
        self.recorded(
            |s| s.pump_until(move |s| s.wait_check(cur)),
            || Input::HostWait { pid: cur.0 },
            |(pid, status), out| {
                out.extend_from_slice(&pid.0.to_le_bytes());
                out.extend_from_slice(&status.to_le_bytes());
            },
        )
    }

    /// Host `poll(2)` over descriptors: blocks until at least one is
    /// ready; returns per-descriptor statuses.
    pub fn host_poll(&mut self, cur: Pid, fds: &[usize]) -> SysResult<Vec<PollStatus>> {
        self.recorded(
            |s| s.host_poll_inner(cur, fds),
            || Input::HostPoll { pid: cur.0, fds: fds.iter().map(|&f| f as u32).collect() },
            |sts, out| record::poll_bytes(sts, out),
        )
    }

    fn host_poll_inner(&mut self, cur: Pid, fds: &[usize]) -> SysResult<Vec<PollStatus>> {
        self.poll_until(cur, fds, |st| st.readable || st.writable || st.hangup)
    }

    /// Pumps the scheduler until at least one of `fds` passes `ready`,
    /// then returns every descriptor's status: the wait both host polls
    /// share, differing only in what counts as ready.
    fn poll_until(
        &mut self,
        cur: Pid,
        fds: &[usize],
        ready: fn(PollStatus) -> bool,
    ) -> SysResult<Vec<PollStatus>> {
        self.pump_until(|s| {
            let mut out = Vec::with_capacity(fds.len());
            let mut any = false;
            for &fd in fds {
                let st = s.poll_fd(cur, fd)?;
                any |= ready(st);
                out.push(st);
            }
            Ok(if any { Some(out) } else { None })
        })
    }

    /// Host `poll(2)` waiting for input-readiness only (`POLLIN |
    /// POLLHUP`): blocks until at least one descriptor has an event
    /// available or is dead, ignoring writability. `/proc` files of
    /// live processes are always writable, so this is the mode a
    /// debugger uses to wait on N traced processes with one call.
    pub fn host_poll_in(&mut self, cur: Pid, fds: &[usize]) -> SysResult<Vec<PollStatus>> {
        self.recorded(
            |s| s.host_poll_in_inner(cur, fds),
            || Input::HostPollIn { pid: cur.0, fds: fds.iter().map(|&f| f as u32).collect() },
            |sts, out| record::poll_bytes(sts, out),
        )
    }

    fn host_poll_in_inner(&mut self, cur: Pid, fds: &[usize]) -> SysResult<Vec<PollStatus>> {
        self.kfault_maybe_kill();
        if let Some(plan) = self.kernel.fault_plan.as_mut() {
            if plan.roll_eintr() {
                return Err(Errno::EINTR);
            }
            if plan.roll_spurious_wakeup() {
                // Return the instantaneous statuses without waiting:
                // possibly nothing is ready, as after a signal-restarted
                // poll. Callers must re-poll, not trust the wakeup.
                let mut out = Vec::with_capacity(fds.len());
                for &fd in fds {
                    out.push(self.poll_fd(cur, fd)?);
                }
                return Ok(out);
            }
        }
        self.poll_until(cur, fds, PollStatus::ready)
    }
}

/// The commit permutation for one gang round: a Fisher–Yates shuffle
/// driven by an xorshift64 stream seeded from `(seed, round)`. Slot `i`
/// is the `i`-th selected slice in ascending pid order, and the round
/// runs the slots in the returned order. Pure — the interleaving
/// schedule is a function of the recorded config and the round counter,
/// which is what makes it replayable.
pub fn commit_order(len: usize, seed: u64, round: u64) -> Vec<usize> {
    let mut order: Vec<usize> = (0..len).collect();
    let mut s = seed ^ round.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ 0xD1B5_4A32_D192_ED03;
    if s == 0 {
        s = 0x2545_F491_4F6C_DD1D;
    }
    for i in (1..len).rev() {
        s ^= s << 13;
        s ^= s >> 7;
        s ^= s << 17;
        order.swap(i, (s % (i as u64 + 1)) as usize);
    }
    order
}

/// The CPU's view of a process address space: protections, copy-on-write,
/// transparent stack growth and watchpoint screening all live behind this
/// bus.
struct ProcBus<'a> {
    asp: &'a mut vm::AddressSpace,
    store: &'a mut vm::ObjectStore,
    sblocks: &'a mut isa::SBlockCache,
}

impl ProcBus<'_> {
    fn denied_to_fault(d: vm::AccessDenied, access: Access) -> BusFault {
        let kind = match d {
            vm::AccessDenied::Unmapped { .. } => BusFaultKind::Unmapped,
            vm::AccessDenied::Protection { .. } => BusFaultKind::Protection,
            vm::AccessDenied::Watch { .. } => BusFaultKind::Watch,
            // A user-mode access the kernel cannot back with a frame dies
            // as a bounds fault — the CPU has no out-of-memory fault.
            vm::AccessDenied::NoMemory { .. } => BusFaultKind::Unmapped,
        };
        BusFault { addr: d.addr(), access, kind }
    }

    /// Decodes the instruction at `pc` for the block builder straight
    /// from `text`, the block's root page as
    /// [`vm::AddressSpace::text_page`] lent it. Building must be free of
    /// user-visible side effects — a predicted-but-never-executed pc
    /// must not grow the stack or consume watchpoint state — so this
    /// never goes through `Bus::fetch`. An undecodable word ends the
    /// trace.
    fn decode_for_block(text: &[u8; vm::PAGE_SIZE as usize], pc: u64) -> Option<isa::Insn> {
        let off = (pc % vm::PAGE_SIZE) as usize;
        let raw = text.get(off..off + isa::INSN_LEN as usize)?;
        isa::Insn::decode(raw.try_into().ok()?)
    }

    /// The statically predicted successor of `i` at `pc`, or `None` when
    /// the trace must end (indirect or trapping control flow). Backward
    /// conditional branches are predicted taken — the hot-loop case,
    /// which lets a small loop unroll to fill the block. Predictions are
    /// checked per slot at dispatch, so a wrong one costs a side exit,
    /// never correctness.
    fn static_next(i: isa::Insn, pc: u64) -> Option<u64> {
        use isa::Opcode::*;
        match i.op {
            Syscall | Bpt | Halt | Priv | Jmpr | Callr => None,
            Jmp | Call => Some(pc.wrapping_add(i.imm as i64 as u64)),
            Beq | Bne | Blt | Bge | Bltu | Bgeu => {
                if i.imm < 0 {
                    Some(pc.wrapping_add(i.imm as i64 as u64))
                } else {
                    Some(pc.wrapping_add(isa::INSN_LEN))
                }
            }
            _ => Some(pc.wrapping_add(isa::INSN_LEN)),
        }
    }

    /// Traces and installs a superblock rooted at `start`, then lends
    /// its trace for immediate dispatch. Returns `None` when `start` is
    /// not block-eligible (writable/shared/watched text, unmapped, or an
    /// undecodable first instruction).
    fn build_block(&mut self, start: u64) -> Option<Arc<[isa::BlockSlot]>> {
        let ProcBus { asp, store, sblocks } = self;
        let (map_idx, epoch) = asp.sblock_slot(start, isa::INSN_LEN)?;
        let page = start / vm::PAGE_SIZE;
        let store: &vm::ObjectStore = store;
        // The whole trace stays on the root page: one lent page serves
        // every decode, one epoch stamp covers every slot, and crossing
        // into a page with different eligibility or epoch state would
        // need its own validation.
        let text = asp.text_page(store, map_idx, page)?;
        let mut out = [isa::BlockSlot::default(); isa::SBLOCK_CAP];
        let mut n = 0;
        let mut pc = start;
        while n < isa::SBLOCK_CAP {
            if pc / vm::PAGE_SIZE != page || (pc + (isa::INSN_LEN - 1)) / vm::PAGE_SIZE != page {
                break;
            }
            let Some(insn) = Self::decode_for_block(text, pc) else { break };
            out[n] = isa::BlockSlot { pc, insn };
            n += 1;
            match Self::static_next(insn, pc) {
                Some(next) => pc = next,
                None => break,
            }
        }
        if n == 0 {
            return None;
        }
        sblocks.insert(isa::SuperBlock {
            start_pc: start,
            as_gen: asp.generation(),
            map_idx: map_idx as u32,
            epoch,
            content_gen: store.content_gen,
            slots: Some(out[..n].into()),
        });
        sblocks.lend(start, |_| true)
    }
}

impl Bus for ProcBus<'_> {
    fn fetch_block(&mut self, pc: u64) -> Option<Arc<[isa::BlockSlot]>> {
        if !self.asp.fast_path_enabled() {
            return None;
        }
        let ProcBus { asp, store, sblocks } = self;
        let lent = sblocks.lend(pc, |b| {
            b.as_gen == asp.generation()
                && asp.page_epoch_at(b.map_idx as usize, pc) == Some(b.epoch)
                && store.content_gen == b.content_gen
        });
        lent.or_else(|| self.build_block(pc))
    }

    fn end_block(&mut self, trace: Arc<[isa::BlockSlot]>, exit: isa::BlockExit, retired: u64) {
        self.sblocks.give_back(trace, exit, retired);
    }

    fn fetch(&mut self, addr: u64, buf: &mut [u8; 8]) -> Result<(), BusFault> {
        let d = match self.asp.fetch_user(self.store, addr, buf) {
            Ok(()) => return Ok(()),
            Err(d) => d,
        };
        let grown = matches!(&d, vm::AccessDenied::Unmapped { addr }
            if self.asp.as_fault(self.store, *addr));
        if grown {
            self.asp
                .fetch_user(self.store, addr, buf)
                .map_err(|d| Self::denied_to_fault(d, Access::Exec))
        } else {
            Err(Self::denied_to_fault(d, Access::Exec))
        }
    }

    fn load(&mut self, addr: u64, buf: &mut [u8]) -> Result<(), BusFault> {
        let d = match self.asp.read_user(self.store, addr, buf) {
            Ok(()) => return Ok(()),
            Err(d) => d,
        };
        let grown = matches!(&d, vm::AccessDenied::Unmapped { addr }
            if self.asp.as_fault(self.store, *addr));
        if grown {
            self.asp
                .read_user(self.store, addr, buf)
                .map_err(|d| Self::denied_to_fault(d, Access::Read))
        } else {
            Err(Self::denied_to_fault(d, Access::Read))
        }
    }

    fn store(&mut self, addr: u64, data: &[u8]) -> Result<(), BusFault> {
        let d = match self.asp.write_user(self.store, addr, data) {
            Ok(()) => return Ok(()),
            Err(d) => d,
        };
        let grown = matches!(&d, vm::AccessDenied::Unmapped { addr }
            if self.asp.as_fault(self.store, *addr));
        if grown {
            self.asp
                .write_user(self.store, addr, data)
                .map_err(|d| Self::denied_to_fault(d, Access::Write))
        } else {
            Err(Self::denied_to_fault(d, Access::Write))
        }
    }
}
