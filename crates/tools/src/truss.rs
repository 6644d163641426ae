//! `truss(1)` — system call tracing over `/proc`.
//!
//! "The interception of system calls with /proc is at the heart of
//! truss(1), a command that traces the execution of a process, producing
//! a symbolic report of the system calls it executes, the faults it
//! encounters and the signals it receives. truss can be applied to
//! running processes or used to start up commands to be traced, and will
//! optionally follow the execution of child processes as well. ...
//! truss will not alter the behavior of a process other than by slowing
//! it down."

use crate::proc_io::ProcHandle;
use ksim::fault::{Fault, FltSet};
use ksim::signal::{sig_name, SigSet};
use ksim::sysno::{sys_name, SysSet, SYS_EXEC, SYS_FORK, SYS_OPEN, SYS_STAT, SYS_VFORK};
use ksim::{Errno, Pid, SysResult, System};
use procfs::{PrRun, PrStatus, PrWhy};
use std::collections::BTreeMap;

/// Options controlling a trace.
#[derive(Clone, Debug)]
pub struct TrussOptions {
    /// `-f`: follow children created by fork/vfork.
    pub follow: bool,
    /// Include machine faults in the report.
    pub faults: bool,
    /// Stop tracing after this many reported events (safety bound).
    pub max_events: usize,
}

impl Default for TrussOptions {
    fn default() -> Self {
        TrussOptions { follow: true, faults: true, max_events: 20_000 }
    }
}

/// The trace report.
#[derive(Clone, Debug, Default)]
pub struct TrussReport {
    /// Human-readable trace lines, in event order.
    pub lines: Vec<String>,
    /// Exit status of each traced process, in exit order.
    pub exits: Vec<(Pid, u16)>,
    /// Per-call-number completion counts.
    pub counts: BTreeMap<u16, u64>,
}

impl TrussReport {
    /// The whole report as one string.
    pub fn text(&self) -> String {
        self.lines.join("\n")
    }
}

/// In-flight call state per traced process.
struct Traced {
    handle: ProcHandle,
    pending: Option<(u16, String)>,
    gone: bool,
}

/// Starts `path` under trace and follows it to completion.
pub fn truss_command(
    sys: &mut System,
    ctl: Pid,
    path: &str,
    argv: &[&str],
    opts: &TrussOptions,
) -> SysResult<TrussReport> {
    // Process-table pressure (real or injected) surfaces as EAGAIN;
    // retry with backoff like a shell would, bounded so a saturated
    // table still fails cleanly.
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
    // The target has not executed an instruction yet (the scheduler only
    // runs inside host calls), so tracing from the very first call is
    // race-free.
    truss_attach(sys, ctl, pid, opts)
}

/// Attaches to `pid` and traces it (and, with `follow`, its children)
/// until every traced process exits or `max_events` is reached.
///
/// Every descriptor truss opened is closed before it returns, on every
/// path, and each target is armed with run-on-last-close: a target
/// still alive when truss stops following it is released, with its
/// tracing flags cleared, instead of stopping at its next system call
/// with nobody to resume it.
pub fn truss_attach(
    sys: &mut System,
    ctl: Pid,
    pid: Pid,
    opts: &TrussOptions,
) -> SysResult<TrussReport> {
    let mut report = TrussReport::default();
    let mut traced = Vec::new();
    let result = follow(sys, ctl, pid, opts, &mut traced, &mut report);
    for t in traced {
        let _ = t.handle.close(sys);
    }
    result.map(|()| report)
}

/// The body of [`truss_attach`]: arms `pid` and services stops until
/// done, leaving every handle it opened in `traced` for the caller to
/// close.
fn follow(
    sys: &mut System,
    ctl: Pid,
    pid: Pid,
    opts: &TrussOptions,
    traced: &mut Vec<Traced>,
    report: &mut TrussReport,
) -> SysResult<()> {
    // The target can die between the caller naming it and the trace
    // arming — attach to a corpse reports the exit instead of erroring.
    match arm(sys, ctl, pid, opts, traced) {
        Ok(()) => {}
        Err(e) if target_gone(sys, pid, e) => {
            push_exit(sys, pid, report);
            return Ok(());
        }
        Err(e) => return Err(e),
    }
    let mut events = 0usize;
    while events < opts.max_events {
        // Anything left alive?
        if traced.iter().all(|t| t.gone) {
            break;
        }
        let mut progressed = false;
        for i in 0..traced.len() {
            if traced[i].gone {
                continue;
            }
            let st = match peek_stop(sys, &mut traced[i]) {
                Ok(Some(st)) => st,
                Ok(None) => continue,
                // An interrupted poll is not a death sentence; come back
                // to this target on the next sweep.
                Err(Errno::EINTR) => continue,
                Err(_) => {
                    // Process gone (or its descriptor beyond use): release
                    // it best-effort and report its exit.
                    let _ = traced[i].handle.run(sys, PrRun::default());
                    let tpid = traced[i].handle.pid;
                    push_exit(sys, tpid, report);
                    traced[i].gone = true;
                    progressed = true;
                    continue;
                }
            };
            progressed = true;
            events += 1;
            let new_child = service_stop(sys, &mut traced[i], &st, opts, report)?;
            if let Some(child) = new_child {
                if opts.follow {
                    if let Ok(handle) = ProcHandle::open_rw(sys, ctl, child) {
                        traced.push(Traced { handle, pending: None, gone: false });
                    }
                }
            }
        }
        if !progressed {
            // Everything is running: let the machine advance.
            if !sys.step() {
                break;
            }
        }
    }
    Ok(())
}

/// True when an error from a `/proc` operation means the target is gone
/// (exited, killed, or already reaped) rather than a genuine failure.
fn target_gone(sys: &System, pid: Pid, e: Errno) -> bool {
    matches!(e, Errno::ESRCH | Errno::ENOENT)
        || sys.kernel.proc(pid).map(|p| p.zombie).unwrap_or(true)
}

/// Records a target's exit in the report.
fn push_exit(sys: &System, pid: Pid, report: &mut TrussReport) {
    let status = sys.kernel.proc(pid).map(|p| p.exit_status).unwrap_or(0);
    report.exits.push((pid, status));
    report.lines.push(format!("{:>5}: ** process exited, status {status:#06x} **", pid.0));
}

/// Opens and arms a fresh target, pushing its handle onto `traced`
/// even when arming fails so the caller closes it on every path:
/// run-on-last-close first, so a partly armed target is still released
/// by that close, then all syscalls at entry and exit, all signals, and
/// (optionally) all faults. Followed children arrive already stopped
/// (on fork exit) with every one of these flags inherited, so they are
/// only opened.
fn arm(
    sys: &mut System,
    ctl: Pid,
    pid: Pid,
    opts: &TrussOptions,
    traced: &mut Vec<Traced>,
) -> SysResult<()> {
    let mut handle = ProcHandle::open_rw(sys, ctl, pid)?;
    let armed = (|| {
        handle.set_run_on_last_close(sys, true)?;
        handle.set_entry_trace(sys, SysSet::full())?;
        handle.set_exit_trace(sys, SysSet::full())?;
        handle.set_sig_trace(sys, SigSet::full())?;
        if opts.faults {
            handle.set_flt_trace(sys, FltSet::full())?;
        }
        if opts.follow {
            handle.set_inherit_on_fork(sys, true)?;
        }
        Ok(())
    })();
    traced.push(Traced { handle, pending: None, gone: false });
    armed
}

/// Non-blocking stop check: returns the status if the target is stopped
/// on an event of interest. The `poll` readiness bit gates the probe —
/// only a ready process file is worth the full `PIOCSTATUS`, so a
/// spinning target costs one cheap poll per loop instead of a status
/// snapshot.
fn peek_stop(sys: &mut System, t: &mut Traced) -> SysResult<Option<PrStatus>> {
    let ready = t.handle.poll(sys)?;
    if ready.hangup {
        // Terminated: surface the same error path a failed status read
        // used to take, so the caller reports the exit.
        return Err(Errno::ESRCH);
    }
    if !ready.readable {
        return Ok(None);
    }
    let st = t.handle.status(sys)?;
    if st.flags & procfs::PR_ISTOP != 0 {
        Ok(Some(st))
    } else {
        Ok(None)
    }
}

/// Handles one stop; returns a child pid discovered at a fork exit.
fn service_stop(
    sys: &mut System,
    t: &mut Traced,
    st: &PrStatus,
    opts: &TrussOptions,
    report: &mut TrussReport,
) -> SysResult<Option<Pid>> {
    let pid = t.handle.pid;
    let mut child = None;
    match st.why {
        PrWhy::SyscallEntry => {
            let nr = st.what;
            let call = format_call(sys, t, nr, st);
            if nr == ksim::sysno::SYS_EXIT || nr == ksim::sysno::SYS_THR_EXIT {
                // These calls do not return; report them at entry.
                report.lines.push(format!("{:>5}: {}", pid.0, call));
                *report.counts.entry(nr).or_default() += 1;
            } else {
                t.pending = Some((nr, call));
            }
        }
        PrWhy::SyscallExit => {
            let nr = st.what;
            let call = match t.pending.take() {
                Some((pnr, text)) if pnr == nr => text,
                // The entry was not seen (attach mid-call, or fork child).
                _ => format!("{}(...)", sys_name(nr)),
            };
            let rv = st.reg.rv() as i64;
            let result = if rv < 0 {
                match Errno::from_i32((-rv) as i32) {
                    Some(e) => format!("Err#{} {}", -rv, e.name()),
                    None => format!("Err#{}", -rv),
                }
            } else {
                format!("= {rv}")
            };
            report.lines.push(format!("{:>5}: {:<48} {}", pid.0, call, result));
            *report.counts.entry(nr).or_default() += 1;
            if (nr == SYS_FORK || nr == SYS_VFORK) && rv > 0 && opts.follow {
                child = Some(Pid(rv as u32));
            }
        }
        PrWhy::Signalled => {
            report.lines.push(format!(
                "{:>5}:     Received signal {}",
                pid.0,
                sig_name(st.what as usize)
            ));
        }
        PrWhy::Faulted => {
            let name = Fault::from_number(st.what as usize)
                .map(|f| f.name().to_string())
                .unwrap_or_else(|| format!("FLT{}", st.what));
            report.lines.push(format!("{:>5}:     Incurred fault {}", pid.0, name));
        }
        PrWhy::Requested | PrWhy::None | PrWhy::JobControl | PrWhy::Ptrace => {}
    }
    // Resume without clearing anything: "truss will not alter the
    // behavior of a process other than by slowing it down."
    if let Err(e) = t.handle.run(sys, PrRun::default()) {
        if !target_gone(sys, pid, e) {
            return Err(e);
        }
        // Died at the stop (killed while the event was being decoded):
        // report the exit rather than surfacing a raw error.
        push_exit(sys, pid, report);
        t.gone = true;
    }
    Ok(child)
}

/// Renders a call with decoded arguments, reading strings from the
/// target where the call takes a pathname.
fn format_call(sys: &mut System, t: &mut Traced, nr: u16, st: &PrStatus) -> String {
    let a = |i: usize| st.reg.arg(i);
    let path_arg = |sys: &mut System, t: &mut Traced, addr: u64| -> String {
        let mut buf = [0u8; 32];
        match t.handle.read_mem(sys, addr, &mut buf) {
            Ok(n) => {
                let end = buf[..n].iter().position(|&c| c == 0).unwrap_or(n);
                format!("\"{}\"", String::from_utf8_lossy(&buf[..end]))
            }
            Err(_) => format!("{addr:#x}"),
        }
    };
    match nr {
        SYS_OPEN => format!("open({}, {:#x})", path_arg(sys, t, a(0)), a(1)),
        SYS_STAT => format!("stat({}, {:#x})", path_arg(sys, t, a(0)), a(1)),
        SYS_EXEC => format!("exec({}, {:#x})", path_arg(sys, t, a(0)), a(1)),
        ksim::sysno::SYS_CREAT => format!("creat({})", path_arg(sys, t, a(0))),
        ksim::sysno::SYS_UNLINK => format!("unlink({})", path_arg(sys, t, a(0))),
        ksim::sysno::SYS_CHDIR => format!("chdir({})", path_arg(sys, t, a(0))),
        ksim::sysno::SYS_READ => format!("read({}, {:#x}, {})", a(0), a(1), a(2)),
        ksim::sysno::SYS_WRITE => format!("write({}, {:#x}, {})", a(0), a(1), a(2)),
        ksim::sysno::SYS_CLOSE => format!("close({})", a(0)),
        ksim::sysno::SYS_KILL => {
            format!("kill({}, {})", a(0), sig_name(a(1) as usize))
        }
        ksim::sysno::SYS_EXIT => format!("exit({})", a(0)),
        ksim::sysno::SYS_WAIT => format!("wait({:#x})", a(0)),
        ksim::sysno::SYS_GETPID
        | ksim::sysno::SYS_GETPPID
        | ksim::sysno::SYS_GETUID
        | ksim::sysno::SYS_GETGID
        | SYS_FORK
        | SYS_VFORK => format!("{}()", sys_name(nr)),
        _ => format!("{}({:#x}, {:#x}, {:#x})", sys_name(nr), a(0), a(1), a(2)),
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;
    use ksim::Cred;

    fn run_truss(path: &str, opts: &TrussOptions) -> TrussReport {
        let mut sys = crate::userland::boot_demo();
        let ctl = sys.spawn_hosted("truss", Cred::new(100, 10));
        truss_command(&mut sys, ctl, path, &[path.rsplit('/').next().expect("name")], opts)
            .expect("truss")
    }

    #[test]
    fn traces_greeter_syscalls_in_order() {
        let report = run_truss("/bin/greeter", &TrussOptions::default());
        let text = report.text();
        assert!(text.contains("creat(\"/tmp/greeting\")"), "{text}");
        assert!(text.contains("write(0, "), "{text}");
        assert!(text.contains("close(0)"), "{text}");
        assert!(text.contains("exit(0)"), "{text}");
        assert!(text.contains("process exited"), "{text}");
        // creat before write before close.
        let pos = |s: &str| text.find(s).unwrap_or(usize::MAX);
        assert!(pos("creat") < pos("write("));
        assert!(pos("write(") < pos("close"));
        // Counts recorded.
        assert_eq!(report.counts[&ksim::sysno::SYS_CREAT], 1);
        assert_eq!(report.counts[&ksim::sysno::SYS_WRITE], 1);
    }

    #[test]
    fn follows_forked_children() {
        let report = run_truss("/bin/forker", &TrussOptions::default());
        let text = report.text();
        // The parent forks three times; each child's getpid appears under
        // its own pid.
        assert_eq!(report.counts[&SYS_FORK], 3 + 3, "3 parent exits + 3 child exits");
        let child_lines: Vec<&str> = text.lines().filter(|l| l.contains("getpid()")).collect();
        assert!(child_lines.len() >= 3, "{text}");
        assert_eq!(report.exits.len(), 4, "three children and the parent");
    }

    #[test]
    fn without_follow_children_run_unmolested() {
        let opts = TrussOptions { follow: false, ..Default::default() };
        let report = run_truss("/bin/forker", &opts);
        assert_eq!(report.exits.len(), 1, "only the parent is traced");
        // fork exits observed only in the parent (3 of them).
        assert_eq!(report.counts[&SYS_FORK], 3);
    }

    #[test]
    fn reports_faults_and_signals() {
        let report = run_truss("/bin/faulty", &TrussOptions::default());
        let text = report.text();
        assert!(text.contains("Incurred fault FLTIZDIV"), "{text}");
        assert!(text.contains("Received signal SIGFPE"), "{text}");
        assert!(text.contains("process exited"), "{text}");
    }

    #[test]
    fn does_not_alter_behavior() {
        // The piper pipeline completes with the same result under trace.
        let report = run_truss("/bin/piper", &TrussOptions::default());
        let (_, status) = *report.exits.last().expect("parent exit");
        assert_eq!(ksim::ptrace::decode_status(status), ksim::ptrace::WaitStatus::Exited(5));
        let text = report.text();
        assert!(text.contains("pipe("), "{text}");
        assert!(text.contains("read("), "{text}");
    }

    #[test]
    fn attaches_to_a_running_process() {
        let mut sys = crate::userland::boot_demo();
        let ctl = sys.spawn_hosted("truss", Cred::new(100, 10));
        let pid = sys.spawn_program(ctl, "/bin/burst", &["burst"]).expect("spawn");
        sys.run_idle(100); // Let it run a while untraced.
        let opts = TrussOptions { max_events: 200, ..Default::default() };
        let report = truss_attach(&mut sys, ctl, pid, &opts).expect("attach");
        assert!(report.text().contains("getpid()"), "{}", report.text());
    }

    #[test]
    fn event_cutoff_closes_descriptors_and_releases_the_target() {
        let mut sys = crate::userland::boot_demo();
        let getpid_loop = "_start:\n    movi rv, 20\n    syscall\n    jmp _start\n";
        sys.install_program("/bin/getpids", getpid_loop);
        let ctl = sys.spawn_hosted("truss", Cred::new(100, 10));
        let pid = sys.spawn_program(ctl, "/bin/getpids", &["getpids"]).expect("spawn");
        let opts = TrussOptions { max_events: 5, ..Default::default() };
        let report = truss_attach(&mut sys, ctl, pid, &opts).expect("attach");
        assert!(report.text().contains("getpid()"), "{}", report.text());
        assert_eq!(sys.kernel.proc(ctl).expect("ctl").fds.iter().count(), 0);
        let target = sys.kernel.proc(pid).expect("target");
        assert!(!target.trace.any_tracing(), "run-on-last-close cleared the traces");
        let insns = |sys: &System| -> u64 {
            sys.kernel.proc(pid).expect("target").lwps.iter().map(|l| l.insns).sum()
        };
        let before = insns(&sys);
        sys.run_idle(100);
        assert!(insns(&sys) > before, "the released target runs on");
    }
}
