//! `sdb` — a scripted command-line debugger front-end.
//!
//! "The standard debuggers sdb(1) and dbx(1) have been rewritten in SVR4
//! to use /proc (and, for sdb, to add a few new capabilities, such as the
//! ability to grab and debug an existing process)." This module provides
//! the command loop of such a debugger over [`crate::Debugger`]; commands
//! arrive as strings (a script or an interactive reader) and output is a
//! transcript, which keeps it testable.
//!
//! Commands:
//!
//! ```text
//! break <sym|0xADDR>      plant a breakpoint            (alias: b)
//! delete <sym|0xADDR>     remove a breakpoint           (alias: d)
//! cont                    continue to the next event    (alias: c)
//! step [n]                single-step n instructions    (alias: s)
//! regs                    show the general registers    (alias: r)
//! x <sym|0xADDR> [n]      examine n 64-bit words        (alias: examine)
//! dis <sym|0xADDR> [n]    disassemble n instructions
//! poke <sym|0xADDR> <v>   write one word
//! watch <sym|0xADDR> <len> set a write watchpoint
//! signal <sig>            post a signal to the target
//! clearsig                discard the current signal
//! map                     show the address map
//! where                   symbolise the current PC
//! kill                    kill the target and finish
//! detach                  release the target and finish
//! tick                    show the recording position
//! stats                   show the recorder and target exec counters
//! reverse-step            undo the last step/cont stop  (alias: rs)
//! reverse-cont            undo back past the last cont  (alias: rc)
//! goto-tick <k>           re-materialize the run at tick k
//! save-rec <file>         write the recording as a durable recfile
//! load-rec <file>         re-materialize a run from a saved recfile
//! migrate                 move the target to a fresh system over the wire
//! ```
//!
//! The reverse commands need a *recorded* system (booted from a
//! [`ksim::SimConfig`] with `record(true)`, e.g. via
//! [`crate::userland::boot_demo_cfg`]): each forward stop pushes a mark
//! at the current recording position, and reversing re-materializes the
//! run at an earlier mark through [`procfs::goto_tick`] — the whole
//! `System` is rebuilt, but the debugger's `/proc` descriptor is valid
//! in the replayed state because the replay reproduces the descriptor
//! table along with everything else. On an unrecorded system they print
//! a note and do nothing. Breakpoints planted *after* the mark being
//! reversed to are unplanted in the restored state, exactly as they
//! were at that point in history.

use crate::debugger::{DebugEvent, Debugger};
use crate::proc_io::ProcHandle;
use isa::reg::reg_name;
use ksim::fault::Fault;
use ksim::signal::sig_name;
use ksim::{Errno, Pid, SysResult, System};
use procfs::PrWatch;

/// What [`Sdb::run_script_policy`] does with a target that is still
/// alive when the script runs out of lines.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum EofPolicy {
    /// Kill the survivor (the historical behaviour, and what one-shot
    /// test scripts want).
    Kill,
    /// Detach and let it run — fault harnesses reuse scripts against
    /// targets that must survive the session.
    Detach,
}

/// The scripted debugger session.
pub struct Sdb {
    dbg: Option<Debugger>,
    transcript: String,
    finished: bool,
    /// Reverse-execution marks: `(recording position, command)` for the
    /// session start and every step/cont stop, oldest first. The last
    /// mark is "now"; reversing pops it and lands on the one below.
    marks: Vec<(usize, String)>,
}

/// The recording position of a system, when it records.
fn rec_pos(sys: &System) -> Option<usize> {
    sys.kernel.recorder.as_ref().map(|r| r.records.len())
}

impl Sdb {
    /// Launches `path` under control, stopped at its first instruction.
    pub fn launch(sys: &mut System, ctl: Pid, path: &str, argv: &[&str]) -> SysResult<Sdb> {
        let dbg = Debugger::launch(sys, ctl, path, argv)?;
        let pid = dbg.pid();
        let mut s =
            Sdb { dbg: Some(dbg), transcript: String::new(), finished: false, marks: Vec::new() };
        s.mark(sys, "launch");
        s.say(&format!("sdb: {path} (pid {pid}) stopped before first instruction"));
        Ok(s)
    }

    /// Grabs a running process.
    pub fn attach(sys: &mut System, ctl: Pid, pid: Pid) -> SysResult<Sdb> {
        let dbg = Debugger::attach(sys, ctl, pid)?;
        let mut s =
            Sdb { dbg: Some(dbg), transcript: String::new(), finished: false, marks: Vec::new() };
        s.mark(sys, "attach");
        s.say(&format!("sdb: grabbed pid {pid}"));
        Ok(s)
    }

    fn mark(&mut self, sys: &System, label: &str) {
        if let Some(pos) = rec_pos(sys) {
            self.marks.push((pos, label.to_string()));
        }
    }

    /// Re-materializes `sys` at recording position `k`. A divergence is
    /// reported in the transcript and surfaced as `EIO` — it means the
    /// log no longer reproduces (e.g. it was tampered with), which a
    /// debugger must not paper over.
    fn goto(&mut self, sys: &mut System, k: usize) -> SysResult<()> {
        match procfs::goto_tick(sys, k) {
            Ok(restored) => {
                *sys = restored;
                Ok(())
            }
            Err(d) => {
                self.say(&format!(
                    "sdb: replay diverged at tick {} (expected {:#018x}, got {:#018x})",
                    d.tick, d.expected, d.got
                ));
                Err(Errno::EIO)
            }
        }
    }

    /// True once the target exited or was released.
    pub fn finished(&self) -> bool {
        self.finished
    }

    /// The session transcript so far.
    pub fn transcript(&self) -> &str {
        &self.transcript
    }

    fn say(&mut self, line: &str) {
        self.transcript.push_str(line);
        self.transcript.push('\n');
    }

    fn dbg(&mut self) -> SysResult<&mut Debugger> {
        self.dbg.as_mut().ok_or(Errno::ESRCH)
    }

    fn resolve(&mut self, token: &str) -> SysResult<u64> {
        if let Some(hex) = token.strip_prefix("0x") {
            return u64::from_str_radix(hex, 16).map_err(|_| Errno::EINVAL);
        }
        if let Ok(v) = token.parse::<u64>() {
            return Ok(v);
        }
        self.dbg()?.sym(token)
    }

    fn describe(&mut self, ev: &DebugEvent) -> String {
        match ev {
            DebugEvent::Breakpoint { addr, hits } => {
                let sym = self
                    .dbg
                    .as_ref()
                    .and_then(|d| d.aout.sym_at(*addr))
                    .map(|s| format!(" <{s}>"))
                    .unwrap_or_default();
                format!("breakpoint at {addr:#x}{sym} (hit {hits})")
            }
            DebugEvent::Signal(sig) => format!("received signal {}", sig_name(*sig)),
            DebugEvent::SyscallEntry(nr) => {
                format!("stopped at entry to {}", ksim::sysno::sys_name(*nr))
            }
            DebugEvent::SyscallExit(nr) => {
                format!("stopped at exit from {}", ksim::sysno::sys_name(*nr))
            }
            DebugEvent::Fault(f) => format!("incurred fault {}", f.name()),
            DebugEvent::Stepped => "stepped".to_string(),
            DebugEvent::Watchpoint => "watchpoint fired".to_string(),
            DebugEvent::Stopped => "stopped".to_string(),
            DebugEvent::Exited(status) => {
                format!("process exited, status {:?}", ksim::ptrace::decode_status(*status))
            }
        }
    }

    /// Executes one command line; output goes to the transcript.
    ///
    /// A target that dies mid-command (kill -9 from elsewhere, injected
    /// death) ends the session with a transcript note instead of
    /// surfacing a raw error: the user typed a debugger command, not a
    /// syscall, and "the process is gone" is an answer, not a failure.
    pub fn exec(&mut self, sys: &mut System, line: &str) -> SysResult<()> {
        match self.exec_inner(sys, line) {
            Ok(()) => Ok(()),
            Err(e) => {
                let gone = self
                    .dbg
                    .as_ref()
                    .map(|d| {
                        matches!(e, Errno::ESRCH | Errno::ENOENT)
                            || sys.kernel.proc(d.pid()).map(|p| p.zombie).unwrap_or(true)
                    })
                    .unwrap_or(false);
                if !gone {
                    return Err(e);
                }
                if let Some(dbg) = self.dbg.take() {
                    let _ = dbg.h.close(sys);
                }
                self.finished = true;
                self.say(&format!("sdb: target gone ({}); session finished", e.name()));
                Ok(())
            }
        }
    }

    fn exec_inner(&mut self, sys: &mut System, line: &str) -> SysResult<()> {
        if self.finished {
            self.say("sdb: session finished");
            return Ok(());
        }
        let mut parts = line.split_whitespace();
        let Some(cmd) = parts.next() else { return Ok(()) };
        let args: Vec<&str> = parts.collect();
        match (cmd, args.as_slice()) {
            ("break" | "b", [target]) => {
                let addr = self.resolve(target)?;
                self.dbg()?.set_breakpoint(sys, addr)?;
                self.say(&format!("breakpoint set at {addr:#x}"));
            }
            ("delete" | "d", [target]) => {
                let addr = self.resolve(target)?;
                self.dbg()?.clear_breakpoint(sys, addr)?;
                self.say(&format!("breakpoint removed from {addr:#x}"));
            }
            ("cont" | "c", []) => {
                let ev = self.dbg()?.cont(sys)?;
                if matches!(ev, DebugEvent::Exited(_)) {
                    self.finished = true;
                } else {
                    self.mark(sys, "cont");
                }
                let msg = self.describe(&ev);
                self.say(&msg);
            }
            ("step" | "s", rest) => {
                let n: usize = rest.first().and_then(|t| t.parse().ok()).unwrap_or(1);
                for _ in 0..n {
                    let ev = self.dbg()?.step(sys)?;
                    if !matches!(ev, DebugEvent::Stepped) {
                        if matches!(ev, DebugEvent::Exited(_)) {
                            self.finished = true;
                        } else {
                            self.mark(sys, "step");
                        }
                        let msg = self.describe(&ev);
                        self.say(&msg);
                        return Ok(());
                    }
                }
                self.mark(sys, "step");
                let regs = self.dbg()?.regs(sys)?;
                let line = {
                    let dbg = self.dbg()?;
                    let mut b = [0u8; 8];
                    dbg.read(sys, regs.pc, &mut b)?;
                    isa::dis::disassemble(&b, regs.pc)
                };
                self.say(&format!("stepped to {:#x}: {}", regs.pc, line));
            }
            ("regs" | "r", []) => {
                let regs = self.dbg()?.regs(sys)?;
                self.say(&format!("pc  = {:#018x}  psr = {:#x}", regs.pc, regs.psr));
                for chunk in (0..32).collect::<Vec<_>>().chunks(4) {
                    let line = chunk
                        .iter()
                        .map(|&i| format!("{:<4}= {:#018x}", reg_name(i), regs.get(i)))
                        .collect::<Vec<_>>()
                        .join("  ");
                    self.say(&line);
                }
            }
            ("x" | "examine", [target, rest @ ..]) => {
                let addr = self.resolve(target)?;
                let n: usize = rest.first().and_then(|t| t.parse().ok()).unwrap_or(1);
                for i in 0..n {
                    let a = addr + (i as u64) * 8;
                    let dbg = self.dbg()?;
                    let mut b = [0u8; 8];
                    dbg.read(sys, a, &mut b)?;
                    self.say(&format!("{a:#010x}: {:#018x}", u64::from_le_bytes(b)));
                }
            }
            ("dis", [target, rest @ ..]) => {
                let addr = self.resolve(target)?;
                let n: usize = rest.first().and_then(|t| t.parse().ok()).unwrap_or(4);
                let listing = self.dbg()?.disassemble(sys, addr, n)?;
                self.transcript.push_str(&listing);
            }
            ("poke", [target, value]) => {
                let addr = self.resolve(target)?;
                let v = self.resolve(value)?;
                self.dbg()?.write(sys, addr, &v.to_le_bytes())?;
                self.say(&format!("poked {v:#x} at {addr:#x}"));
            }
            ("watch", [target, len]) => {
                let addr = self.resolve(target)?;
                let len: u64 = len.parse().map_err(|_| Errno::EINVAL)?;
                let dbg = self.dbg()?;
                let mut flt = ksim::FltSet::empty();
                flt.add(Fault::Bpt.number());
                flt.add(Fault::Trace.number());
                flt.add(Fault::Watch.number());
                dbg.h.set_flt_trace(sys, flt)?;
                dbg.h.set_watch(sys, PrWatch { vaddr: addr, size: len, flags: 2 })?;
                self.say(&format!("watching {len} bytes at {addr:#x} for writes"));
            }
            ("signal", [sig]) => {
                let sig: usize = sig.parse().map_err(|_| Errno::EINVAL)?;
                self.dbg()?.h.kill(sys, sig)?;
                self.say(&format!("posted {}", sig_name(sig)));
            }
            ("clearsig", []) => {
                self.dbg()?.clear_signal(sys)?;
                self.say("current signal cleared");
            }
            ("map", []) => {
                let maps = self.dbg()?.h.maps(sys)?;
                self.transcript.push_str(&crate::pmap::render(&maps));
            }
            ("where", []) => {
                let regs = self.dbg()?.regs(sys)?;
                let sym = crate::postmortem::nearest_symbol(&self.dbg()?.aout, regs.pc);
                match sym {
                    Some((name, 0)) => self.say(&format!("pc = {:#x} in {name}", regs.pc)),
                    Some((name, off)) => {
                        self.say(&format!("pc = {:#x} in {name}+{off:#x}", regs.pc))
                    }
                    None => self.say(&format!("pc = {:#x}", regs.pc)),
                }
            }
            ("kill", []) => {
                if let Some(dbg) = self.dbg.take() {
                    dbg.kill(sys)?;
                }
                self.finished = true;
                self.say("killed");
            }
            ("detach", []) => {
                if let Some(dbg) = self.dbg.take() {
                    dbg.detach(sys)?;
                }
                self.finished = true;
                self.say("detached");
            }
            ("stats", []) => {
                let h = &mut self.dbg()?.h;
                let rec = h.stats(sys, procfs::ioctl::PIOCRECSTATS)?;
                let exec = h.stats(sys, procfs::ioctl::PIOCXSTATS)?;
                self.transcript.push_str(&rec.render());
                self.transcript.push_str(&exec.render());
            }
            ("tick", []) => match rec_pos(sys) {
                Some(pos) => self.say(&format!("tick {pos}")),
                None => self.say("sdb: recording is off"),
            },
            ("reverse-step" | "rs", []) => {
                if rec_pos(sys).is_none() {
                    self.say("sdb: recording is off; reverse execution unavailable");
                    return Ok(());
                }
                if self.marks.len() < 2 {
                    self.say("sdb: already at the earliest recorded stop");
                    return Ok(());
                }
                self.marks.pop();
                let target = self.marks.last().map(|m| m.0).unwrap_or(0);
                self.goto(sys, target)?;
                let pc = self.dbg()?.regs(sys)?.pc;
                self.say(&format!("sdb: reversed to tick {target}, pc = {pc:#x}"));
            }
            ("reverse-cont" | "rc", []) => {
                if rec_pos(sys).is_none() {
                    self.say("sdb: recording is off; reverse execution unavailable");
                    return Ok(());
                }
                if self.marks.len() < 2 {
                    self.say("sdb: already at the earliest recorded stop");
                    return Ok(());
                }
                // Pop stops until a `cont` stop has been undone (or the
                // session start is all that remains): the reverse of
                // "run to the next event" is "un-run the last event".
                while self.marks.len() > 1 {
                    let undone = self.marks.pop();
                    if matches!(&undone, Some((_, l)) if l == "cont") {
                        break;
                    }
                }
                let target = self.marks.last().map(|m| m.0).unwrap_or(0);
                self.goto(sys, target)?;
                let pc = self.dbg()?.regs(sys)?.pc;
                self.say(&format!("sdb: reversed to tick {target}, pc = {pc:#x}"));
            }
            ("save-rec", [path]) => match sys.save_recfile() {
                Some(bytes) => {
                    let n = bytes.len();
                    match std::fs::write(path, bytes) {
                        Ok(()) => {
                            self.say(&format!("sdb: recording saved to {path} ({n} bytes)"));
                        }
                        Err(e) => {
                            if let Some(r) = sys.kernel.recorder.as_mut() {
                                r.stats.file_errors += 1;
                            }
                            self.say(&format!("sdb: save-rec failed: {e}"));
                        }
                    }
                }
                None => self.say("sdb: recording is off"),
            },
            ("load-rec", [path]) => {
                let bytes = match std::fs::read(path) {
                    Ok(b) => b,
                    Err(e) => {
                        self.say(&format!("sdb: load-rec failed: {e}"));
                        return Ok(());
                    }
                };
                match procfs::replay_file(&bytes) {
                    Ok(loaded) => {
                        *sys = loaded;
                        let pos = rec_pos(sys).unwrap_or(0);
                        self.marks.retain(|m| m.0 <= pos);
                        if self.marks.is_empty() {
                            self.marks.push((pos, "load".to_string()));
                        }
                        self.say(&format!("sdb: loaded {path}, at tick {pos}"));
                    }
                    Err(e) => {
                        if let Some(r) = sys.kernel.recorder.as_mut() {
                            r.stats.file_errors += 1;
                        }
                        self.say(&format!("sdb: load-rec failed: {e}"));
                    }
                }
            }
            ("migrate", []) => {
                let (ctl, target) = {
                    let dbg = self.dbg()?;
                    (dbg.h.ctl, dbg.pid())
                };
                // A fresh destination system reached through a clean
                // remote mount — the demonstration counterpart of
                // migrating to another machine.
                let cfg = ksim::SimConfig::standard().mount(
                    "/procr",
                    ksim::MountPlan::RemoteProc(vfs::remote::WireConfig::clean()),
                );
                let mut dst = crate::userland::boot_demo_cfg(cfg);
                let dst_ctl = dst.spawn_hosted("sdb-migrate", ksim::Cred::superuser());
                match crate::migrate::migrate(sys, ctl, "/proc", target, &mut dst, dst_ctl, "/procr")
                {
                    Ok(r) => {
                        self.say(&format!(
                            "sdb: migrated pid {target} -> destination pid {} ({} bytes in {} chunks); source retired",
                            r.dst_pid, r.bytes, r.chunks
                        ));
                        self.dbg = None;
                        self.finished = true;
                    }
                    Err(e) => {
                        // The driver's failure path sets the source
                        // running again; re-stop it so the session's
                        // stopped-at-prompt invariant holds.
                        self.say(&format!("sdb: migrate failed: {e}; target kept here"));
                        let _ = self.dbg()?.h.stop(sys);
                    }
                }
            }
            ("goto-tick", [k]) => {
                let Some(pos) = rec_pos(sys) else {
                    self.say("sdb: recording is off; reverse execution unavailable");
                    return Ok(());
                };
                let k: usize = k.parse().map_err(|_| Errno::EINVAL)?;
                let k = k.min(pos);
                self.goto(sys, k)?;
                self.marks.retain(|m| m.0 <= k);
                if self.marks.is_empty() {
                    self.marks.push((k, "goto".to_string()));
                }
                self.say(&format!("sdb: at tick {k}"));
            }
            _ => self.say(&format!("sdb: unknown command `{line}`")),
        }
        Ok(())
    }

    /// Runs a whole script, returning the transcript. A target that
    /// survives the script is killed — see [`Sdb::run_script_policy`]
    /// for the detaching variant.
    pub fn run_script(
        sys: &mut System,
        ctl: Pid,
        path: &str,
        argv: &[&str],
        script: &[&str],
    ) -> SysResult<String> {
        Sdb::run_script_policy(sys, ctl, path, argv, script, EofPolicy::Kill)
    }

    /// Runs a whole script with an explicit end-of-script policy for a
    /// surviving target: [`EofPolicy::Kill`] destroys it,
    /// [`EofPolicy::Detach`] releases it to run free.
    pub fn run_script_policy(
        sys: &mut System,
        ctl: Pid,
        path: &str,
        argv: &[&str],
        script: &[&str],
        eof: EofPolicy,
    ) -> SysResult<String> {
        let mut sdb = Sdb::launch(sys, ctl, path, argv)?;
        for line in script {
            sdb.exec(sys, line)?;
            if sdb.finished {
                break;
            }
        }
        if !sdb.finished {
            if let Some(dbg) = sdb.dbg.take() {
                match eof {
                    EofPolicy::Kill => {
                        let _ = dbg.kill(sys);
                    }
                    EofPolicy::Detach => {
                        let _ = dbg.detach(sys);
                    }
                }
            }
        }
        Ok(sdb.transcript)
    }
}

/// Reads the handle type used in command implementations (doc aid).
pub type SdbHandle = ProcHandle;

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;
    use ksim::Cred;

    fn boot() -> (System, Pid) {
        let mut sys = crate::userland::boot_demo();
        let ctl = sys.spawn_hosted("sdb", Cred::new(100, 10));
        (sys, ctl)
    }

    #[test]
    fn scripted_breakpoint_session() {
        let (mut sys, ctl) = boot();
        let t = Sdb::run_script(
            &mut sys,
            ctl,
            "/bin/ticker",
            &["ticker"],
            &["b tick", "c", "regs", "where", "c", "x tick 2", "dis tick 2", "kill"],
        )
        .expect("script");
        assert!(t.contains("breakpoint set at"), "{t}");
        assert!(t.contains("<tick> (hit 1)"), "{t}");
        assert!(t.contains("pc  ="), "{t}");
        assert!(t.contains("in tick"), "{t}");
        assert!(t.contains("(hit 2)"), "{t}");
        assert!(t.contains("killed"), "{t}");
    }

    #[test]
    fn step_and_poke() {
        let (mut sys, ctl) = boot();
        let t = Sdb::run_script(
            &mut sys,
            ctl,
            "/bin/ticker",
            &["ticker"],
            &["s", "s 2", "map", "poke 0x1001000 66", "x 0x1001000 1", "detach"],
        )
        .expect("script");
        assert!(t.contains("stepped to"), "{t}");
        assert!(t.contains("text"), "{t}");
        assert!(t.contains("0x01001000: 0x0000000000000042"), "{t}");
        assert!(t.contains("detached"), "{t}");
    }

    #[test]
    fn watch_command_stops_on_store() {
        let (mut sys, ctl) = boot();
        let mut sdb = Sdb::launch(&mut sys, ctl, "/bin/watched", &["watched"]).expect("launch");
        sdb.exec(&mut sys, "watch cell 8").expect("watch");
        sdb.exec(&mut sys, "cont").expect("cont");
        assert!(sdb.transcript().contains("watchpoint fired"), "{}", sdb.transcript());
        sdb.exec(&mut sys, "kill").expect("kill");
    }

    #[test]
    fn run_to_exit_reports() {
        let (mut sys, ctl) = boot();
        let t = Sdb::run_script(&mut sys, ctl, "/bin/greeter", &["greeter"], &["c"])
            .expect("script");
        assert!(t.contains("process exited, status Exited(0)"), "{t}");
    }

    #[test]
    fn detach_eof_policy_leaves_target_running() {
        let (mut sys, ctl) = boot();
        let t = Sdb::run_script_policy(
            &mut sys,
            ctl,
            "/bin/ticker",
            &["ticker"],
            &["s", "regs"],
            EofPolicy::Detach,
        )
        .expect("script");
        assert!(t.contains("stepped to"), "{t}");
        // The survivor keeps running after the script: find it and
        // check it is neither gone nor left stopped.
        let pid = sys
            .kernel
            .procs
            .values()
            .find(|p| !p.hosted && p.pid.0 > 1 && !p.zombie)
            .map(|p| p.pid)
            .expect("target survived detach");
        let stopped = sys.kernel.proc(pid).expect("proc").is_event_stopped();
        assert!(!stopped, "detached target must not be left stopped");
    }

    fn boot_recorded() -> (System, Pid) {
        let mut sys =
            crate::userland::boot_demo_cfg(ksim::SimConfig::standard().record(true));
        let ctl = sys.spawn_hosted("sdb", Cred::new(100, 10));
        (sys, ctl)
    }

    #[test]
    fn reverse_step_restores_register_state() {
        let (mut sys, ctl) = boot_recorded();
        let mut sdb = Sdb::launch(&mut sys, ctl, "/bin/ticker", &["ticker"]).expect("launch");
        sdb.exec(&mut sys, "step").expect("step");
        let before = sdb.dbg().expect("dbg").regs(&mut sys).expect("regs");
        sdb.exec(&mut sys, "step 3").expect("step 3");
        let after = sdb.dbg().expect("dbg").regs(&mut sys).expect("regs");
        assert_ne!(before, after, "three steps must move the pc");
        sdb.exec(&mut sys, "reverse-step").expect("reverse-step");
        let reversed = sdb.dbg().expect("dbg").regs(&mut sys).expect("regs");
        assert_eq!(before, reversed, "reverse-step must land on the pre-step registers");
        assert!(sdb.transcript().contains("reversed to tick"), "{}", sdb.transcript());
    }

    #[test]
    fn reverse_cont_undoes_a_breakpoint_hit() {
        let (mut sys, ctl) = boot_recorded();
        let mut sdb = Sdb::launch(&mut sys, ctl, "/bin/ticker", &["ticker"]).expect("launch");
        sdb.exec(&mut sys, "break tick").expect("break");
        sdb.exec(&mut sys, "cont").expect("cont 1");
        let first_hit = sdb.dbg().expect("dbg").regs(&mut sys).expect("regs");
        sdb.exec(&mut sys, "cont").expect("cont 2");
        let second_hit = sdb.dbg().expect("dbg").regs(&mut sys).expect("regs");
        assert_ne!(first_hit, second_hit, "tick call counter must advance between hits");
        sdb.exec(&mut sys, "reverse-cont").expect("reverse-cont");
        let reversed = sdb.dbg().expect("dbg").regs(&mut sys).expect("regs");
        assert_eq!(first_hit, reversed, "reverse-cont must land on the first hit's registers");
        // Forward from the restored state: the next cont re-reaches the
        // second hit with identical registers — history is consistent.
        sdb.exec(&mut sys, "cont").expect("cont again");
        let forward = sdb.dbg().expect("dbg").regs(&mut sys).expect("regs");
        assert_eq!(second_hit, forward, "re-running forward must reproduce the second hit");
    }

    /// `stats` prints the recorder and exec families. The recorded
    /// `PIOCRECSTATS` it issues must not break a reverse-step whose
    /// replayed tail includes it.
    #[test]
    fn stats_reports_the_restore_after_a_reverse_step() {
        let mut sys = crate::userland::boot_demo_cfg(
            ksim::SimConfig::standard().record(true).snapshot_every(10),
        );
        let ctl = sys.spawn_hosted("sdb", Cred::new(100, 10));
        let mut sdb = Sdb::launch(&mut sys, ctl, "/bin/ticker", &["ticker"]).expect("launch");
        for line in ["break tick", "stats", "cont", "cont"] {
            sdb.exec(&mut sys, line).expect(line);
        }
        let t = sdb.transcript().to_string();
        assert!(t.contains("recorder.restores 0\n"), "{t}");
        assert!(t.contains("exec.icache_hits "), "{t}");
        let stats_at = sys
            .kernel
            .recorder
            .as_ref()
            .and_then(|r| {
                r.records.iter().rposition(|x| {
                    matches!(x.input, ksim::Input::HostIoctl { req, .. }
                        if req == procfs::ioctl::PIOCRECSTATS)
                })
            })
            .expect("stats recorded a PIOCRECSTATS");

        sdb.exec(&mut sys, "reverse-step").expect("reverse-step");
        let target: usize = sdb
            .transcript()
            .split("reversed to tick ")
            .nth(1)
            .and_then(|t| t.split(',').next())
            .and_then(|t| t.parse().ok())
            .expect("reversed to a tick");
        let replays = sys.kernel.recorder.as_ref().expect("recorder").stats.replays as usize;
        assert!(target - replays <= stats_at, "the replayed tail missed the PIOCRECSTATS");

        let from = sdb.transcript().len();
        sdb.exec(&mut sys, "stats").expect("stats again");
        let t = &sdb.transcript()[from..];
        assert!(t.contains("recorder.restores 1\n"), "{t}");
        assert!(t.lines().all(|l| l.starts_with("recorder.") || l.starts_with("exec.")), "{t}");
    }

    #[test]
    fn goto_tick_and_tick_report_positions() {
        let (mut sys, ctl) = boot_recorded();
        let mut sdb = Sdb::launch(&mut sys, ctl, "/bin/ticker", &["ticker"]).expect("launch");
        sdb.exec(&mut sys, "step").expect("step");
        sdb.exec(&mut sys, "tick").expect("tick");
        assert!(sdb.transcript().contains("tick "), "{}", sdb.transcript());
        let pos = ksim::System::recording(&sys).expect("recording").len();
        sdb.exec(&mut sys, &format!("goto-tick {pos}")).expect("goto");
        assert!(sdb.transcript().contains(&format!("at tick {pos}")), "{}", sdb.transcript());
    }

    #[test]
    fn reverse_without_recording_is_a_note_not_an_error() {
        let (mut sys, ctl) = boot();
        let mut sdb = Sdb::launch(&mut sys, ctl, "/bin/ticker", &["ticker"]).expect("launch");
        sdb.exec(&mut sys, "reverse-step").expect("reverse-step");
        assert!(sdb.transcript().contains("recording is off"), "{}", sdb.transcript());
        sdb.exec(&mut sys, "kill").expect("kill");
    }

    #[test]
    fn save_rec_and_load_rec_round_trip_through_a_file() {
        let (mut sys, ctl) = boot_recorded();
        let mut sdb = Sdb::launch(&mut sys, ctl, "/bin/ticker", &["ticker"]).expect("launch");
        sdb.exec(&mut sys, "step 4").expect("step");
        let before = sdb.dbg().expect("dbg").regs(&mut sys).expect("regs");

        let path = std::env::temp_dir().join(format!("sdb-recfile-{}.rec", std::process::id()));
        let path_s = path.to_string_lossy().into_owned();
        sdb.exec(&mut sys, &format!("save-rec {path_s}")).expect("save-rec");
        assert!(sdb.transcript().contains("recording saved"), "{}", sdb.transcript());

        sdb.exec(&mut sys, &format!("load-rec {path_s}")).expect("load-rec");
        let _ = std::fs::remove_file(&path);
        assert!(sdb.transcript().contains("loaded"), "{}", sdb.transcript());
        // The re-materialised run reproduces the session state exactly.
        let after = sdb.dbg().expect("dbg").regs(&mut sys).expect("regs");
        assert_eq!(before, after, "load-rec landed on different registers");
        sdb.exec(&mut sys, "kill").expect("kill");
    }

    #[test]
    fn load_rec_of_garbage_is_a_note_not_a_panic() {
        let (mut sys, ctl) = boot_recorded();
        let mut sdb = Sdb::launch(&mut sys, ctl, "/bin/ticker", &["ticker"]).expect("launch");
        let path = std::env::temp_dir().join(format!("sdb-garbage-{}.rec", std::process::id()));
        std::fs::write(&path, b"not a recfile at all").expect("write garbage");
        let path_s = path.to_string_lossy().into_owned();
        sdb.exec(&mut sys, &format!("load-rec {path_s}")).expect("load-rec");
        let _ = std::fs::remove_file(&path);
        assert!(sdb.transcript().contains("load-rec failed"), "{}", sdb.transcript());
        // The session survived: the rejected load is a counted error.
        let stats = sys.kernel.recorder.as_ref().expect("recorder").stats;
        assert_eq!(stats.file_errors, 1, "{stats:?}");
        sdb.exec(&mut sys, "kill").expect("kill");
    }

    #[test]
    fn migrate_command_moves_the_target_out() {
        let (mut sys, ctl) = boot();
        let mut sdb = Sdb::launch(&mut sys, ctl, "/bin/ticker", &["ticker"]).expect("launch");
        sdb.exec(&mut sys, "migrate").expect("migrate");
        let t = sdb.transcript().to_string();
        assert!(t.contains("migrated pid"), "{t}");
        assert!(t.contains("source retired"), "{t}");
        // The session is over; further commands degrade gracefully
        // rather than erroring out.
        let before = sdb.transcript().len();
        let _ = sdb.exec(&mut sys, "regs");
        assert!(
            !sdb.transcript()[before..].contains("pc  ="),
            "a migrated-away target still reported registers: {}",
            sdb.transcript()
        );
    }

    #[test]
    fn unknown_command_is_reported_not_fatal() {
        let (mut sys, ctl) = boot();
        let t = Sdb::run_script(&mut sys, ctl, "/bin/ticker", &["t"], &["frobnicate", "kill"])
            .expect("script");
        assert!(t.contains("unknown command"), "{t}");
        assert!(t.contains("killed"), "{t}");
    }
}
