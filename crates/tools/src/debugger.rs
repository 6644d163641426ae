//! An `sdb`-like breakpoint debugger built on `/proc`.
//!
//! "The /proc interface does not directly implement the concept of a
//! process breakpoint, but it provides sufficient mechanism for a
//! debugger to do so. Breakpoints can be installed in a process by a
//! debugger using the read and write operations on the process address
//! space to replace the machine instruction at each breakpoint address
//! with an illegal user-level instruction" — here, the approved `BPT`
//! encoding, fielded as a `FLTBPT` stop ("stop-on-fault is the preferred
//! method for fielding breakpoints").
//!
//! Conditional breakpoints re-run the classic dance (lift, single-step,
//! re-plant, continue) when the condition is false; "breakpoints per
//! second is a realistic measure of performance" for exactly this path
//! (experiment E1).

use crate::proc_io::ProcHandle;
use isa::GregSet;
use ksim::fault::{Fault, FltSet};
use ksim::signal::{SigSet, SIGKILL};
use ksim::sysno::SysSet;
use ksim::{Aout, Errno, Pid, SysResult, System};
use procfs::{PrRun, PrStatus, PrWhy, PRRUN_CFAULT, PRRUN_CSIG, PRRUN_SABORT, PRRUN_STEP};
use std::collections::HashMap;

/// A condition evaluated on the stopped registers; the breakpoint
/// reports only when it returns true.
pub type BpCondition = Box<dyn Fn(&GregSet) -> bool>;

struct BreakPoint {
    saved: [u8; 8],
    condition: Option<BpCondition>,
    /// Times the trap fired (whether or not the condition passed).
    hits: u64,
}

/// What `cont`/`step` observed.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum DebugEvent {
    /// A (condition-passing) breakpoint fired at this address.
    Breakpoint {
        /// The breakpoint address (the PC is left exactly here).
        addr: u64,
        /// Cumulative hits at this address, counting condition misses.
        hits: u64,
    },
    /// The target stopped on receipt of this traced signal.
    Signal(usize),
    /// Entry to a traced system call.
    SyscallEntry(u16),
    /// Exit from a traced system call.
    SyscallExit(u16),
    /// A non-breakpoint machine fault.
    Fault(Fault),
    /// A single step completed.
    Stepped,
    /// A watched area was touched at this address.
    Watchpoint,
    /// A requested stop (attach, or PRSTOP).
    Stopped,
    /// The target exited with this wait-status.
    Exited(u16),
}

/// The debugger: one controlled target.
pub struct Debugger {
    /// The `/proc` handle.
    pub h: ProcHandle,
    /// The target's executable image (symbols), read via `PIOCOPENM`.
    pub aout: Aout,
    bps: HashMap<u64, BreakPoint>,
    /// Total control-interface calls, forwarded from the handle (E2).
    pub last_status: Option<PrStatus>,
}

impl Debugger {
    /// Launches `path` under control, stopped before its first
    /// instruction.
    pub fn launch(sys: &mut System, ctl: Pid, path: &str, argv: &[&str]) -> SysResult<Debugger> {
        // A starved kernel may refuse the spawn with EAGAIN; back off
        // (letting the simulation run) and retry a bounded number of
        // times before surfacing the typed error.
        let mut pid = None;
        for attempt in 0..=crate::proc_io::TRANSIENT_RETRIES {
            match sys.spawn_program(ctl, path, argv) {
                Ok(p) => {
                    pid = Some(p);
                    break;
                }
                Err(Errno::EAGAIN) => sys.run_idle(1 << attempt),
                Err(e) => return Err(e),
            }
        }
        let pid = pid.ok_or(Errno::EAGAIN)?;
        // Nothing has run yet; the directed stop lands before user code.
        Self::attach(sys, ctl, pid)
    }

    /// Grabs an existing process ("the ability to grab and debug an
    /// existing process"), stopping it.
    pub fn attach(sys: &mut System, ctl: Pid, pid: Pid) -> SysResult<Debugger> {
        let mut h = ProcHandle::open_rw(sys, ctl, pid)?;
        match Self::attach_ops(sys, &mut h) {
            Ok((st, aout)) => Ok(Debugger { h, aout, bps: HashMap::new(), last_status: Some(st) }),
            Err(e) => {
                // Unwind without leaving a half-grabbed target stopped.
                // A PIOCSTOP aborted by EINTR latches a directed stop
                // that lands at the target's next scheduling point, so
                // let the machine run until the stop surfaces, then
                // release it (all best-effort: the target may be gone).
                for _ in 0..4 {
                    match sys.kernel.proc(pid) {
                        Ok(p) if p.zombie => break,
                        Ok(p) if p.is_stopped() => {
                            let _ = h.resume(sys);
                            break;
                        }
                        Ok(_) => sys.run_idle(50),
                        Err(_) => break,
                    }
                }
                let _ = h.close(sys);
                Err(e)
            }
        }
    }

    /// The fallible middle of [`Debugger::attach`]: everything between
    /// opening the descriptor and constructing the debugger.
    fn attach_ops(sys: &mut System, h: &mut ProcHandle) -> SysResult<(PrStatus, Aout)> {
        let st = h.stop(sys)?;
        // Field breakpoints and single-steps as faults.
        let mut flt = FltSet::empty();
        flt.add(Fault::Bpt.number());
        flt.add(Fault::Trace.number());
        flt.add(Fault::Watch.number());
        h.set_flt_trace(sys, flt)?;
        let aout = h.read_aout(sys)?;
        Ok((st, aout))
    }

    /// The target pid.
    pub fn pid(&self) -> Pid {
        self.h.pid
    }

    /// True if a failed operation means the target is gone rather than
    /// the operation being wrong: the process file vanished
    /// (`ESRCH`/`ENOENT`) or the process is a zombie (address-space and
    /// control operations on a zombie fail, typically with `EIO`).
    fn target_gone(&self, sys: &System, e: Errno) -> bool {
        matches!(e, Errno::ESRCH | Errno::ENOENT)
            || sys.kernel.proc(self.h.pid).map(|p| p.zombie).unwrap_or(true)
    }

    /// The clean degradation for a target that died mid-operation.
    fn exited_event(&mut self, sys: &System) -> DebugEvent {
        let status = sys.kernel.proc(self.h.pid).map(|p| p.exit_status).unwrap_or(0);
        self.last_status = None;
        DebugEvent::Exited(status)
    }

    /// Resolves a symbol to its address.
    pub fn sym(&self, name: &str) -> SysResult<u64> {
        self.aout.sym(name).ok_or(Errno::ENOENT)
    }

    /// Plants an unconditional breakpoint at `addr`.
    pub fn set_breakpoint(&mut self, sys: &mut System, addr: u64) -> SysResult<()> {
        self.set_breakpoint_inner(sys, addr, None)
    }

    /// Plants a breakpoint that reports only when `cond` holds on the
    /// stopped registers.
    pub fn set_conditional_breakpoint(
        &mut self,
        sys: &mut System,
        addr: u64,
        cond: BpCondition,
    ) -> SysResult<()> {
        self.set_breakpoint_inner(sys, addr, Some(cond))
    }

    fn set_breakpoint_inner(
        &mut self,
        sys: &mut System,
        addr: u64,
        condition: Option<BpCondition>,
    ) -> SysResult<()> {
        if self.bps.contains_key(&addr) {
            return Err(Errno::EEXIST);
        }
        let mut saved = [0u8; 8];
        self.h.read_mem(sys, addr, &mut saved)?;
        self.h.write_mem(sys, addr, &isa::insn::breakpoint_bytes())?;
        self.bps.insert(addr, BreakPoint { saved, condition, hits: 0 });
        Ok(())
    }

    /// Removes the breakpoint at `addr`, restoring the original
    /// instruction.
    pub fn clear_breakpoint(&mut self, sys: &mut System, addr: u64) -> SysResult<()> {
        let bp = self.bps.remove(&addr).ok_or(Errno::ENOENT)?;
        self.h.write_mem(sys, addr, &bp.saved)?;
        Ok(())
    }

    /// Lifts every breakpoint (used around fork when children must run
    /// unmolested).
    pub fn lift_all(&mut self, sys: &mut System) -> SysResult<Vec<u64>> {
        let addrs: Vec<u64> = self.bps.keys().copied().collect();
        for &a in &addrs {
            let saved = self.bps[&a].saved;
            self.h.write_mem(sys, a, &saved)?;
        }
        Ok(addrs)
    }

    /// Re-plants previously lifted breakpoints.
    pub fn replant_all(&mut self, sys: &mut System) -> SysResult<()> {
        let addrs: Vec<u64> = self.bps.keys().copied().collect();
        for a in addrs {
            self.h.write_mem(sys, a, &isa::insn::breakpoint_bytes())?;
        }
        Ok(())
    }

    /// Traces entry/exit of the given system calls (empty sets disable).
    pub fn trace_syscalls(
        &mut self,
        sys: &mut System,
        entry: SysSet,
        exit: SysSet,
    ) -> SysResult<()> {
        self.h.set_entry_trace(sys, entry)?;
        self.h.set_exit_trace(sys, exit)
    }

    /// Traces receipt of the given signals.
    pub fn trace_signals(&mut self, sys: &mut System, set: SigSet) -> SysResult<()> {
        self.h.set_sig_trace(sys, set)
    }

    /// Steps one instruction (stepping over a breakpoint at the PC).
    /// A target that dies at any point in the dance degrades to
    /// [`DebugEvent::Exited`] instead of a raw error.
    pub fn step(&mut self, sys: &mut System) -> SysResult<DebugEvent> {
        let st = match self.h.status(sys) {
            Ok(st) => st,
            Err(e) if self.target_gone(sys, e) => return Ok(self.exited_event(sys)),
            Err(e) => return Err(e),
        };
        let pc = st.reg.pc;
        let planted_here = self.bps.contains_key(&pc);
        if planted_here {
            let saved = self.bps[&pc].saved;
            if let Err(e) = self.h.write_mem(sys, pc, &saved) {
                if self.target_gone(sys, e) {
                    return Ok(self.exited_event(sys));
                }
                return Err(e);
            }
        }
        if let Err(e) = self.h.run(sys, PrRun { flags: PRRUN_STEP | PRRUN_CFAULT, vaddr: 0 }) {
            if self.target_gone(sys, e) {
                return Ok(self.exited_event(sys));
            }
            return Err(e);
        }
        let ev = self.wait_event(sys)?;
        if planted_here && self.bps.contains_key(&pc) && !matches!(ev, DebugEvent::Exited(_)) {
            self.h.write_mem(sys, pc, &isa::insn::breakpoint_bytes())?;
        }
        Ok(match ev {
            DebugEvent::Fault(Fault::Trace) => DebugEvent::Stepped,
            other => other,
        })
    }

    /// Continues until an interesting event, transparently stepping over
    /// breakpoints whose condition is false. Works whether the target is
    /// currently stopped (resumes it) or already running (just waits).
    pub fn cont(&mut self, sys: &mut System) -> SysResult<DebugEvent> {
        // Step over a breakpoint at the current PC first.
        if let Ok(st) = self.h.status(sys) {
            if st.flags & procfs::PR_ISTOP != 0 && self.bps.contains_key(&st.reg.pc) {
                match self.step(sys)? {
                    DebugEvent::Stepped => {}
                    other => return Ok(other),
                }
            }
        }
        loop {
            if let Ok(st) = self.h.status(sys) {
                if st.flags & procfs::PR_ISTOP != 0 {
                    if let Err(e) = self.h.run(sys, PrRun { flags: PRRUN_CFAULT, vaddr: 0 }) {
                        if self.target_gone(sys, e) {
                            return Ok(self.exited_event(sys));
                        }
                        return Err(e);
                    }
                }
            }
            let ev = self.wait_event(sys)?;
            match ev {
                DebugEvent::Breakpoint { addr, .. } => {
                    let passes = {
                        // wait_event captured the stop status just above;
                        // a missing one is an EIO-grade protocol break,
                        // not a panic.
                        let st = self.last_status.as_ref().ok_or(Errno::EIO)?;
                        let bp = self.bps.get_mut(&addr).ok_or(Errno::ENOENT)?;
                        bp.hits += 1;
                        bp.condition.as_ref().map(|c| c(&st.reg)).unwrap_or(true)
                    };
                    if passes {
                        let hits = self.bps[&addr].hits;
                        return Ok(DebugEvent::Breakpoint { addr, hits });
                    }
                    // Condition false: step over transparently.
                    match self.step(sys)? {
                        DebugEvent::Stepped => continue,
                        other => return Ok(other),
                    }
                }
                other => return Ok(other),
            }
        }
    }

    /// Waits for the next stop (or exit) and classifies it.
    fn wait_event(&mut self, sys: &mut System) -> SysResult<DebugEvent> {
        let st = match self.h.wstop(sys) {
            Ok(st) => st,
            // ESRCH/ENOENT: the process file vanished. target_gone also
            // catches a target that zombified mid-wait and surfaced some
            // other errno (e.g. an EINTR retry storm against a corpse).
            Err(e) if self.target_gone(sys, e) => {
                return Ok(self.exited_event(sys));
            }
            Err(e) => return Err(e),
        };
        self.last_status = Some(st.clone());
        Ok(match st.why {
            PrWhy::Faulted => match Fault::from_number(st.what as usize) {
                Some(Fault::Bpt) => {
                    let addr = st.reg.pc;
                    if self.bps.contains_key(&addr) {
                        DebugEvent::Breakpoint { addr, hits: 0 }
                    } else {
                        DebugEvent::Fault(Fault::Bpt)
                    }
                }
                Some(Fault::Watch) => DebugEvent::Watchpoint,
                Some(f) => DebugEvent::Fault(f),
                None => DebugEvent::Stopped,
            },
            PrWhy::Signalled => DebugEvent::Signal(st.what as usize),
            PrWhy::SyscallEntry => DebugEvent::SyscallEntry(st.what),
            PrWhy::SyscallExit => DebugEvent::SyscallExit(st.what),
            _ => DebugEvent::Stopped,
        })
    }

    /// Non-blocking event check via `poll`: classifies a pending stop
    /// (or exit) if the target's process file is ready, `None` when
    /// nothing has happened. The paper's proposed extension — "one could
    /// poll for a process to stop" — without committing to a blocking
    /// `PIOCWSTOP` per target.
    pub fn poll_event(&mut self, sys: &mut System) -> SysResult<Option<DebugEvent>> {
        let st = self.h.poll(sys)?;
        if st.ready() {
            Ok(Some(self.wait_event(sys)?))
        } else {
            Ok(None)
        }
    }

    /// The registers at the last stop.
    pub fn regs(&mut self, sys: &mut System) -> SysResult<GregSet> {
        self.h.gregs(sys)
    }

    /// Installs registers.
    pub fn set_regs(&mut self, sys: &mut System, regs: &GregSet) -> SysResult<()> {
        self.h.set_gregs(sys, regs)
    }

    /// Reads target memory.
    pub fn read(&mut self, sys: &mut System, addr: u64, buf: &mut [u8]) -> SysResult<usize> {
        self.h.read_mem(sys, addr, buf)
    }

    /// Writes target memory.
    pub fn write(&mut self, sys: &mut System, addr: u64, data: &[u8]) -> SysResult<usize> {
        self.h.write_mem(sys, addr, data)
    }

    /// Disassembles `n` instructions at `addr`.
    pub fn disassemble(&mut self, sys: &mut System, addr: u64, n: usize) -> SysResult<String> {
        let mut out = String::new();
        for i in 0..n {
            let pc = addr + (i as u64) * 8;
            let mut b = [0u8; 8];
            self.h.read_mem(sys, pc, &mut b)?;
            let label = self.aout.sym_at(pc).map(|s| format!("{s}: ")).unwrap_or_default();
            out.push_str(&format!("{pc:08x}  {label}{}\n", isa::dis::disassemble(&b, pc)));
        }
        Ok(out)
    }

    /// Clears the current signal at a signalled stop.
    pub fn clear_signal(&mut self, sys: &mut System) -> SysResult<()> {
        self.h.set_cursig(sys, 0)
    }

    /// Detaches: lifts breakpoints, clears tracing and releases the
    /// target running. If the target died along the way the detach
    /// still succeeds — there is nothing left to release — and the
    /// descriptor is always closed.
    pub fn detach(mut self, sys: &mut System) -> SysResult<()> {
        let r = self.detach_ops(sys);
        let close = self.h.close(sys);
        match r {
            Ok(()) => close,
            Err(e) => Err(e),
        }
    }

    fn detach_ops(&mut self, sys: &mut System) -> SysResult<()> {
        let ops = |d: &mut Debugger, sys: &mut System| -> SysResult<()> {
            let _ = d.lift_all(sys);
            d.h.set_entry_trace(sys, SysSet::empty())?;
            d.h.set_exit_trace(sys, SysSet::empty())?;
            d.h.set_sig_trace(sys, SigSet::empty())?;
            d.h.set_flt_trace(sys, FltSet::empty())?;
            // Release if stopped.
            let st = d.h.status(sys)?;
            if st.flags & procfs::PR_ISTOP != 0 {
                d.h.run(sys, PrRun { flags: PRRUN_CSIG | PRRUN_CFAULT, vaddr: 0 })?;
            }
            Ok(())
        };
        match ops(self, sys) {
            Err(e) if self.target_gone(sys, e) => Ok(()),
            other => other,
        }
    }

    /// Kills the target outright. A target that already died counts as
    /// success; the descriptor is always closed.
    pub fn kill(mut self, sys: &mut System) -> SysResult<()> {
        let r = match self.h.kill(sys, SIGKILL) {
            Err(e) if self.target_gone(sys, e) => Ok(()),
            other => other,
        };
        // A stopped target must be released for the signal to act.
        if let Ok(st) = self.h.status(sys) {
            if st.flags & procfs::PR_ISTOP != 0 {
                let _ = self.h.run(sys, PrRun::default());
            }
        }
        let close = self.h.close(sys);
        r.and(close)
    }

    /// Runs an encapsulation loop: while the target executes, every entry
    /// to a system call in `calls` is intercepted, aborted in the kernel,
    /// and answered by `emulate` instead — "older system calls or
    /// alternate versions of them can be simulated entirely at user
    /// level". Returns when the target exits.
    pub fn encapsulate(
        &mut self,
        sys: &mut System,
        calls: SysSet,
        mut emulate: impl FnMut(u16, &GregSet) -> Result<u64, Errno>,
    ) -> SysResult<u16> {
        self.h.set_entry_trace(sys, calls)?;
        self.h.set_exit_trace(sys, calls)?;
        loop {
            if let Err(e) = self.h.run(sys, PrRun::default()) {
                if self.target_gone(sys, e) {
                    self.last_status = None;
                    return Ok(sys.kernel.proc(self.h.pid).map(|p| p.exit_status).unwrap_or(0));
                }
                return Err(e);
            }
            match self.wait_event(sys)? {
                DebugEvent::SyscallEntry(_) => {
                    // Abort the kernel's execution of the call: it goes
                    // directly to syscall exit with EINTR, where we
                    // manufacture the emulated return value.
                    self.h.run(sys, PrRun { flags: PRRUN_SABORT, vaddr: 0 })?;
                    match self.wait_event(sys)? {
                        DebugEvent::SyscallExit(nr) => {
                            let st = self.last_status.clone().ok_or(Errno::EIO)?;
                            let mut regs = st.reg;
                            match emulate(nr, &regs) {
                                Ok(v) => {
                                    regs.set_rv(v);
                                    regs.psr &= !isa::PSR_ERR;
                                }
                                Err(e) => {
                                    regs.set_rv((-(e as i64)) as u64);
                                    regs.psr |= isa::PSR_ERR;
                                }
                            }
                            self.h.set_gregs(sys, &regs)?;
                        }
                        DebugEvent::Exited(status) => return Ok(status),
                        _ => {}
                    }
                }
                DebugEvent::SyscallExit(_) => {}
                DebugEvent::Exited(status) => return Ok(status),
                _ => {}
            }
        }
    }
}

/// Waits on N traced processes with one `poll(2)` call instead of N
/// blocking ioctls — the workload the paper's proposed extension exists
/// for. Blocks until at least one target's process file reports ready
/// (stopped on an event of interest) or hung up (terminated), then
/// classifies that target's event. Returns the index of the woken
/// debugger and its event. All debuggers must share one controlling
/// process.
pub fn wait_event_any(sys: &mut System, dbgs: &mut [Debugger]) -> SysResult<(usize, DebugEvent)> {
    let first = dbgs.first().ok_or(Errno::EINVAL)?;
    let ctl = first.h.ctl;
    if dbgs.iter().any(|d| d.h.ctl != ctl) {
        return Err(Errno::EINVAL);
    }
    let fds: Vec<usize> = dbgs.iter().map(|d| d.h.fd).collect();
    // One system call covers the whole set; per-handle accounting, which
    // exists to measure exactly this saving (E2), charges nothing here —
    // the classification below pays its own PIOCWSTOP.
    let mut attempts = 0;
    loop {
        let sts = match sys.host_poll_in(ctl, &fds) {
            Ok(sts) => sts,
            // An interrupted poll is transparently restarted (bounded).
            Err(Errno::EINTR) if attempts < crate::proc_io::TRANSIENT_RETRIES => {
                attempts += 1;
                continue;
            }
            Err(e) => return Err(e),
        };
        // Hangups first: a target that died between POLLHUP readiness
        // and classification must surface as a clean exit. Sending it
        // through wait_event would issue PIOCWSTOP against a corpse —
        // a wait that can never complete.
        for (i, st) in sts.iter().enumerate() {
            if st.hangup {
                let ev = dbgs[i].exited_event(sys);
                return Ok((i, ev));
            }
        }
        for (i, st) in sts.iter().enumerate() {
            if st.ready() {
                let ev = dbgs[i].wait_event(sys)?;
                return Ok((i, ev));
            }
        }
        // Nothing actually ready: a spurious wakeup. Poll again
        // (bounded, so a pathological plan cannot spin forever).
        attempts += 1;
        if attempts > crate::proc_io::TRANSIENT_RETRIES {
            return Err(Errno::EAGAIN);
        }
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;
    use ksim::Cred;

    fn boot() -> (System, Pid) {
        let mut sys = crate::userland::boot_demo();
        let ctl = sys.spawn_hosted("dbg", Cred::new(100, 10));
        (sys, ctl)
    }

    #[test]
    fn breakpoint_hits_at_symbol() {
        let (mut sys, ctl) = boot();
        let mut dbg = Debugger::launch(&mut sys, ctl, "/bin/ticker", &["ticker"]).expect("launch");
        let tick = dbg.sym("tick").expect("symbol");
        dbg.set_breakpoint(&mut sys, tick).expect("bp");
        for expected_a0 in 0..3u64 {
            let ev = dbg.cont(&mut sys).expect("cont");
            assert!(matches!(ev, DebugEvent::Breakpoint { addr, .. } if addr == tick), "{ev:?}");
            let regs = dbg.regs(&mut sys).expect("regs");
            assert_eq!(regs.pc, tick, "PC at the breakpoint");
            assert_eq!(regs.arg(0), expected_a0, "call count visible in a0");
        }
        dbg.kill(&mut sys).expect("kill");
    }

    #[test]
    fn conditional_breakpoint_skips_until_condition() {
        let (mut sys, ctl) = boot();
        let mut dbg = Debugger::launch(&mut sys, ctl, "/bin/ticker", &["ticker"]).expect("launch");
        let tick = dbg.sym("tick").expect("symbol");
        dbg.set_conditional_breakpoint(&mut sys, tick, Box::new(|r| r.arg(0) == 5)).expect("bp");
        let ev = dbg.cont(&mut sys).expect("cont");
        match ev {
            DebugEvent::Breakpoint { addr, hits } => {
                assert_eq!(addr, tick);
                assert_eq!(hits, 6, "five transparent skips plus the reported hit");
            }
            other => panic!("unexpected {other:?}"),
        }
        assert_eq!(dbg.regs(&mut sys).expect("regs").arg(0), 5);
        dbg.kill(&mut sys).expect("kill");
    }

    #[test]
    fn single_step_advances_one_instruction() {
        let (mut sys, ctl) = boot();
        let mut dbg = Debugger::launch(&mut sys, ctl, "/bin/ticker", &["ticker"]).expect("launch");
        let pc0 = dbg.regs(&mut sys).expect("regs").pc;
        assert_eq!(dbg.step(&mut sys).expect("step"), DebugEvent::Stepped);
        let pc1 = dbg.regs(&mut sys).expect("regs").pc;
        assert_eq!(pc1, pc0 + 8, "movi then next insn");
        dbg.kill(&mut sys).expect("kill");
    }

    #[test]
    fn disassembly_around_breakpoint() {
        let (mut sys, ctl) = boot();
        let mut dbg = Debugger::launch(&mut sys, ctl, "/bin/ticker", &["ticker"]).expect("launch");
        let tick = dbg.sym("tick").expect("symbol");
        let listing = dbg.disassemble(&mut sys, tick, 2).expect("dis");
        assert!(listing.contains("tick: "), "{listing}");
        assert!(listing.contains("addi"), "{listing}");
        dbg.kill(&mut sys).expect("kill");
    }

    #[test]
    fn encapsulation_emulates_retired_syscall() {
        // The kernel fails SYS_RETIRED with ENOSYS; the controller makes
        // it "work" entirely at user level — the target exits with the
        // emulated value.
        let (mut sys, ctl) = boot();
        let mut dbg =
            Debugger::launch(&mut sys, ctl, "/bin/retired", &["retired"]).expect("launch");
        let mut calls = SysSet::empty();
        calls.add(ksim::sysno::SYS_RETIRED as usize);
        let status = dbg
            .encapsulate(&mut sys, calls, |nr, regs| {
                assert_eq!(nr, ksim::sysno::SYS_RETIRED);
                Ok(regs.arg(0) * 6) // retired_op(7) => 42
            })
            .expect("encapsulate");
        assert_eq!(ksim::ptrace::decode_status(status), ksim::ptrace::WaitStatus::Exited(42));
    }

    #[test]
    fn detach_leaves_target_running_clean() {
        let (mut sys, ctl) = boot();
        let mut dbg = Debugger::launch(&mut sys, ctl, "/bin/ticker", &["ticker"]).expect("launch");
        let tick = dbg.sym("tick").expect("symbol");
        dbg.set_breakpoint(&mut sys, tick).expect("bp");
        let ev = dbg.cont(&mut sys).expect("cont");
        assert!(matches!(ev, DebugEvent::Breakpoint { .. }));
        let pid = dbg.pid();
        dbg.detach(&mut sys).expect("detach");
        sys.run_idle(200);
        let proc = sys.kernel.proc(pid).expect("alive");
        assert!(!proc.is_stopped(), "released");
        assert!(!proc.trace.any_tracing(), "no tracing left behind");
    }

    #[test]
    fn poll_wakes_exactly_the_stopped_target() {
        // Three traced processes, one poll(2): two spinners that never
        // stop and one ticker with a breakpoint. The single wait must
        // wake on exactly the breakpointed target.
        let (mut sys, ctl) = boot();
        let mut dbgs = Vec::new();
        for _ in 0..2 {
            let pid = sys.spawn_program(ctl, "/bin/spin", &["spin"]).expect("spawn");
            dbgs.push(Debugger::attach(&mut sys, ctl, pid).expect("attach"));
        }
        let mut tick_dbg =
            Debugger::launch(&mut sys, ctl, "/bin/ticker", &["ticker"]).expect("launch");
        let tick = tick_dbg.sym("tick").expect("symbol");
        tick_dbg.set_breakpoint(&mut sys, tick).expect("bp");
        dbgs.push(tick_dbg);
        // Release all three; nothing is ready yet.
        for d in dbgs.iter_mut() {
            d.h.run(&mut sys, PrRun { flags: PRRUN_CFAULT, vaddr: 0 }).expect("run");
            assert_eq!(d.poll_event(&mut sys).expect("poll"), None);
        }
        let (i, ev) = wait_event_any(&mut sys, &mut dbgs).expect("wait any");
        assert_eq!(i, 2, "only the breakpointed target became ready");
        assert!(matches!(ev, DebugEvent::Breakpoint { addr, .. } if addr == tick), "{ev:?}");
        // The spinners are still running: their process files stay
        // unready.
        for d in dbgs.iter_mut().take(2) {
            assert_eq!(d.poll_event(&mut sys).expect("poll"), None);
        }
        for d in dbgs {
            d.kill(&mut sys).expect("kill");
        }
    }

    #[test]
    fn poll_reports_hangup_on_exit() {
        // A target that exits flips its process file to hangup; the
        // poll-driven wait classifies it as Exited without a blocking
        // per-target ioctl.
        let (mut sys, ctl) = boot();
        let mut dbg =
            Debugger::launch(&mut sys, ctl, "/bin/retired", &["retired"]).expect("launch");
        let spin_pid = sys.spawn_program(ctl, "/bin/spin", &["spin"]).expect("spawn");
        let mut spin_dbg = Debugger::attach(&mut sys, ctl, spin_pid).expect("attach");
        spin_dbg.h.run(&mut sys, PrRun { flags: PRRUN_CFAULT, vaddr: 0 }).expect("run spin");
        dbg.h.run(&mut sys, PrRun { flags: PRRUN_CSIG | PRRUN_CFAULT, vaddr: 0 }).expect("run");
        let mut dbgs = vec![spin_dbg, dbg];
        let (i, ev) = wait_event_any(&mut sys, &mut dbgs).expect("wait any");
        assert_eq!(i, 1, "the exiting target wakes the poll");
        assert!(matches!(ev, DebugEvent::Exited(_)), "{ev:?}");
        let spin = dbgs.swap_remove(0);
        spin.kill(&mut sys).expect("kill");
    }

    #[test]
    fn attach_grabs_running_process() {
        let (mut sys, ctl) = boot();
        let pid = sys.spawn_program(ctl, "/bin/spin", &["spin"]).expect("spawn");
        sys.run_idle(50);
        let mut dbg = Debugger::attach(&mut sys, ctl, pid).expect("grab");
        let st = dbg.h.status(&mut sys).expect("status");
        assert_ne!(st.flags & procfs::PR_STOPPED, 0);
        assert!(dbg.aout.sym("loop").is_some(), "symbols found without a pathname");
        dbg.kill(&mut sys).expect("kill");
    }
}
