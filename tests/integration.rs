//! Cross-crate integration scenarios: full workflows a user of the
//! library would run, spanning the kernel, both `/proc` generations and
//! the tools.

use procsim::ksim::ptrace::{decode_status, WaitStatus};
use procsim::ksim::signal::{SIGINT, SIGKILL, SIGUSR1};
use procsim::ksim::sysno::{SysSet, SYS_FORK, SYS_OPEN};
use procsim::ksim::{Cred, Pid, SigSet, System};
use procsim::procfs::{PrRun, PrWhy, PRRUN_CSIG};
use procsim::tools::{
    self, truss_command, DebugEvent, Debugger, ProcHandle, TrussOptions, UserTable,
};
use procsim::vfs::{Errno, OFlags};

fn boot() -> (System, Pid) {
    let mut sys = tools::boot_demo();
    let ctl = sys.spawn_hosted("ctl", Cred::new(100, 10));
    (sys, ctl)
}

#[test]
fn debugger_follows_fork_and_controls_child() {
    // The paper's multi-process control recipe: inherit-on-fork + traced
    // fork exit; debugger takes control of the child before it runs any
    // user code.
    let (mut sys, ctl) = boot();
    let mut dbg = Debugger::launch(&mut sys, ctl, "/bin/forker", &["forker"]).expect("launch");
    dbg.h.set_inherit_on_fork(&mut sys, true).expect("inherit");
    let mut exits = SysSet::empty();
    exits.add(SYS_FORK as usize);
    dbg.trace_syscalls(&mut sys, SysSet::empty(), exits).expect("trace");
    let ev = dbg.cont(&mut sys).expect("cont");
    let child = match ev {
        DebugEvent::SyscallExit(nr) => {
            assert_eq!(nr, SYS_FORK);
            Pid(dbg.regs(&mut sys).expect("regs").rv() as u32)
        }
        other => panic!("expected fork exit, got {other:?}"),
    };
    // The child is stopped at its own fork exit; take control.
    let mut ch = ProcHandle::open_rw(&mut sys, ctl, child).expect("open child");
    let st = ch.status(&mut sys).expect("status");
    assert_eq!(st.why, PrWhy::SyscallExit);
    assert_eq!(st.reg.rv(), 0);
    // Let the child run to completion under no further tracing.
    ch.set_exit_trace(&mut sys, SysSet::empty()).expect("untrace child");
    ch.resume(&mut sys).expect("run child");
    ch.close(&mut sys).expect("close");
    // Release the parent entirely.
    dbg.detach(&mut sys).expect("detach");
    let (_, status) = sys.host_wait(ctl).expect("wait");
    assert!(matches!(decode_status(status), WaitStatus::Exited(0)));
}

#[test]
fn lift_breakpoints_around_fork_for_unmolested_children() {
    // The other fork recipe: children must run unmolested, so the
    // debugger lifts breakpoints at fork entry and re-plants at exit.
    let (mut sys, ctl) = boot();
    let mut dbg = Debugger::launch(&mut sys, ctl, "/bin/forker", &["forker"]).expect("launch");
    // A breakpoint the children would otherwise inherit and die on.
    let looppc = dbg.sym("loop").expect("loop");
    dbg.set_breakpoint(&mut sys, looppc).expect("bp");
    let mut both = SysSet::empty();
    both.add(SYS_FORK as usize);
    dbg.trace_syscalls(&mut sys, both, both).expect("trace");
    dbg.h.set_inherit_on_fork(&mut sys, false).expect("no inherit");
    let mut forks_seen = 0;
    loop {
        match dbg.cont(&mut sys).expect("cont") {
            DebugEvent::SyscallEntry(nr) if nr == SYS_FORK => {
                dbg.lift_all(&mut sys).expect("lift");
            }
            DebugEvent::SyscallExit(nr) if nr == SYS_FORK => {
                forks_seen += 1;
                dbg.replant_all(&mut sys).expect("replant");
            }
            DebugEvent::Breakpoint { .. } => {}
            DebugEvent::Exited(status) => {
                assert!(matches!(decode_status(status), WaitStatus::Exited(0)));
                break;
            }
            _ => {}
        }
    }
    assert_eq!(forks_seen, 3, "three forks observed with breakpoints cycled");
}

#[test]
fn two_controllers_one_target() {
    // A read-only observer (ps-like) does not interfere with an
    // exclusive controlling process.
    let (mut sys, ctl) = boot();
    let observer = sys.spawn_hosted("observer", Cred::new(100, 10));
    let pid = sys.spawn_program(ctl, "/bin/spin", &["spin"]).expect("spawn");
    let mut excl = ProcHandle::open_excl(&mut sys, ctl, pid).expect("exclusive");
    excl.stop(&mut sys).expect("stop");
    // Observer reads psinfo read-only while the target is under
    // exclusive control.
    let mut ro = ProcHandle::open_ro(&mut sys, observer, pid).expect("read-only ok");
    let info = ro.psinfo(&mut sys).expect("psinfo");
    assert_eq!(info.pid, pid.0);
    assert_eq!(info.state, b'T');
    // But a second writer is locked out.
    assert_eq!(ProcHandle::open_rw(&mut sys, observer, pid).map(|h| h.fd), Err(Errno::EBUSY));
    ro.close(&mut sys).expect("close");
    excl.resume(&mut sys).expect("run");
    excl.close(&mut sys).expect("close");
}

#[test]
fn truss_and_ps_views_agree() {
    let (mut sys, ctl) = boot();
    let root = sys.spawn_hosted("rootps", Cred::superuser());
    let pid = sys.spawn_program(ctl, "/bin/sigloop", &["sigloop"]).expect("spawn");
    sys.run_idle(2000);
    // sigloop installed its handler and paused.
    let snaps = tools::ps::ps_snapshots(&mut sys, root).expect("snapshots");
    let entry = snaps.iter().find(|p| p.pid == pid.0).expect("listed");
    assert_eq!(entry.state, b'S', "pausing process shows as sleeping");
    assert_eq!(entry.fname, "sigloop");
    // Kick it with SIGUSR1: the handler runs, the counter bumps.
    let mut h = ProcHandle::open_rw(&mut sys, ctl, pid).expect("open");
    let aout = {
        h.stop(&mut sys).expect("stop");
        let a = h.read_aout(&mut sys).expect("aout");
        h.resume(&mut sys).expect("run");
        a
    };
    let counter = aout.sym("counter").expect("counter");
    for _ in 0..3 {
        sys.host_kill(ctl, pid, SIGUSR1).expect("kill");
        sys.run_idle(500);
    }
    assert_eq!(h.peek(&mut sys, counter).expect("peek"), 3);
    h.close(&mut sys).expect("close");
}

#[test]
fn signal_forwarding_through_debugger() {
    // A debugger decides per-signal: forward SIGUSR1 (handler runs),
    // swallow SIGINT (target survives).
    let (mut sys, ctl) = boot();
    let mut dbg = Debugger::launch(&mut sys, ctl, "/bin/sigloop", &["sigloop"]).expect("launch");
    let mut sigs = SigSet::empty();
    sigs.add(SIGUSR1);
    sigs.add(SIGINT);
    dbg.trace_signals(&mut sys, sigs).expect("trace");
    let counter = dbg.sym("counter").expect("counter");
    dbg.h.resume(&mut sys).expect("start");
    sys.run_idle(2000); // reach pause()
                        // SIGINT: swallowed.
    sys.host_kill(ctl, dbg.pid(), SIGINT).expect("kill");
    match dbg.cont(&mut sys) {
        Ok(DebugEvent::Signal(sig)) => assert_eq!(sig, SIGINT),
        other => panic!("expected signal stop, got {other:?}"),
    }
    dbg.clear_signal(&mut sys).expect("swallow");
    // SIGUSR1: forwarded (resume without clearing).
    sys.host_kill(ctl, dbg.pid(), SIGUSR1).expect("kill");
    match dbg.cont(&mut sys) {
        Ok(DebugEvent::Signal(sig)) => assert_eq!(sig, SIGUSR1),
        other => panic!("expected signal stop, got {other:?}"),
    }
    dbg.h.resume(&mut sys).expect("forward");
    sys.run_idle(3000);
    assert_eq!(
        dbg.h.peek(&mut sys, counter).expect("peek"),
        1,
        "handler ran exactly once (SIGINT was swallowed)"
    );
    assert!(!sys.kernel.proc(dbg.pid()).expect("alive").zombie);
    dbg.kill(&mut sys).expect("kill");
}

#[test]
fn hier_and_flat_share_kernel_tracing_state() {
    let (mut sys, ctl) = boot();
    let pid = sys.spawn_program(ctl, "/bin/spin", &["spin"]).expect("spawn");
    // Set tracing through the hierarchy...
    let cfd = sys.host_open(ctl, &format!("/proc2/{}/ctl", pid.0), OFlags::wronly()).expect("ctl");
    let mut sigs = SigSet::empty();
    sigs.add(SIGUSR1);
    let msg = procsim::procfs::ctl_record(procsim::procfs::hier::PCSTRACE, &sigs.to_bytes());
    sys.host_write(ctl, cfd, &msg).expect("write");
    // ...and read it back through the flat ioctl.
    let mut h = ProcHandle::open_ro(&mut sys, ctl, pid).expect("open flat");
    assert!(h.sig_trace(&mut sys).expect("gtrace").has(SIGUSR1));
    h.close(&mut sys).expect("close");
}

#[test]
fn truss_open_paths_are_decoded() {
    let (mut sys, ctl) = boot();
    sys.install_program(
        "/bin/opener",
        r#"
        _start:
            movi rv, 5
            la   a0, path
            movi a1, 0
            syscall
            movi rv, 1
            movi a0, 0
            syscall
        .data
        path: .asciz "/bin/spin"
        "#,
    );
    let report = truss_command(&mut sys, ctl, "/bin/opener", &["opener"], &TrussOptions::default())
        .expect("truss");
    assert!(report.text().contains("open(\"/bin/spin\", 0x0)"), "{}", report.text());
    assert_eq!(report.counts[&SYS_OPEN], 1);
}

#[test]
fn listing_and_ps_after_heavy_churn() {
    // Create and destroy many processes; the /proc directory stays
    // consistent and ps never sees a torn entry.
    let (mut sys, ctl) = boot();
    let root = sys.spawn_hosted("rootps", Cred::superuser());
    for _ in 0..10 {
        let pid = sys.spawn_program(ctl, "/bin/greeter", &["greeter"]).expect("spawn");
        let _ = pid;
        let (_, status) = sys.host_wait(ctl).expect("wait");
        assert!(matches!(decode_status(status), WaitStatus::Exited(0)));
    }
    let live = sys.spawn_program(ctl, "/bin/spin", &["spin"]).expect("spawn");
    let entries = sys.list_dir(root, "/proc").expect("readdir");
    // Reaped processes are gone from the directory.
    assert!(entries.iter().all(|e| {
        let pid: u32 = e.name.parse().expect("digit name");
        sys.kernel.proc(Pid(pid)).is_ok()
    }));
    let users = UserTable::default();
    let listing = tools::lsproc::ls_l_proc(&mut sys, root, &users).expect("ls");
    assert!(listing.contains(&format!("{:05}", live.0)));
    let ps = tools::ps::ps(&mut sys, root, &tools::ps::PsOptions { all: true, full: true }, &users)
        .expect("ps");
    assert!(ps.contains("spin"));
}

#[test]
fn run_on_last_close_insurance_pattern() {
    // "This can be used by a controlling process to ensure that its
    // controlled processes are released even if it itself is killed with
    // SIGKILL" — simulate the controller dying by just closing its fd.
    let (mut sys, ctl) = boot();
    let pid = sys.spawn_program(ctl, "/bin/spin", &["spin"]).expect("spawn");
    let mut h = ProcHandle::open_rw(&mut sys, ctl, pid).expect("open");
    h.set_run_on_last_close(&mut sys, true).expect("rlc");
    let mut sigs = SigSet::empty();
    sigs.add(SIGINT);
    h.set_sig_trace(&mut sys, sigs).expect("trace");
    let st = h.stop(&mut sys).expect("stop");
    assert_ne!(st.flags & procsim::procfs::PR_STOPPED, 0);
    // The controller "dies": its descriptor goes away.
    h.close(&mut sys).expect("close");
    sys.run_idle(10);
    let proc = sys.kernel.proc(pid).expect("alive");
    assert!(!proc.is_stopped(), "released");
    assert!(!proc.trace.any_tracing(), "tracing cleared");
    // The released target is killable normally afterwards.
    sys.host_kill(ctl, pid, SIGKILL).expect("kill");
    let (_, status) = sys.host_wait(ctl).expect("wait");
    assert_eq!(decode_status(status), WaitStatus::Signalled(SIGKILL, false));
}

#[test]
fn manufactured_syscall_results_via_flat_interface() {
    // Encapsulation driven bare-handed through PIOC operations: change
    // the *arguments* at entry this time (redirect an open to another
    // file).
    let (mut sys, ctl) = boot();
    sys.memfs_mut().install("/etc/real", 0o644, 0, 0, b"REAL".to_vec());
    sys.memfs_mut().install("/etc/fake", 0o644, 0, 0, b"FAKE".to_vec());
    sys.install_program(
        "/bin/reader",
        r#"
        _start:
            movi rv, 5          ; open("/etc/real")
            la   a0, path
            movi a1, 0
            syscall
            mov  a0, rv
            movi rv, 3          ; read(fd, buf, 4)
            la   a1, buf
            movi a2, 4
            syscall
            la   a1, buf
            ldb  a0, [a1]       ; first byte
            movi rv, 1
            syscall
        .data
        path: .asciz "/etc/real"
        .align 8
        buf: .space 8
        "#,
    );
    let pid = sys.spawn_program(ctl, "/bin/reader", &["reader"]).expect("spawn");
    let mut h = ProcHandle::open_rw(&mut sys, ctl, pid).expect("open");
    let mut entry = SysSet::empty();
    entry.add(SYS_OPEN as usize);
    h.set_entry_trace(&mut sys, entry).expect("entry");
    let st = h.wstop(&mut sys).expect("entry stop");
    assert_eq!(st.why, PrWhy::SyscallEntry);
    // Rewrite the path the kernel has not yet fetched: overwrite the
    // string in the target's data.
    let path_addr = st.reg.arg(0);
    h.write_mem(&mut sys, path_addr, b"/etc/fake\0").expect("rewrite path");
    h.run(&mut sys, PrRun { flags: PRRUN_CSIG, vaddr: 0 }).expect("run");
    let (_, status) = sys.host_wait(ctl).expect("wait");
    assert_eq!(
        decode_status(status),
        WaitStatus::Exited(b'F'),
        "the target read the file the debugger chose"
    );
}

#[test]
fn remote_mounted_proc_controls_a_process() {
    // The RFS story end-to-end: the flat /proc mounted *behind the
    // marshalling shim*, a controller stopping and resuming a target
    // through it.
    let mut sys = procsim::ksim::System::boot();
    tools::install_userland(&mut sys);
    let remote = procsim::vfs::remote::RemoteFs::new(Box::new(procsim::procfs::ProcFs::new()))
        .with_ioctl_table(procsim::procfs::ioctl::wire_table());
    sys.mount("/proc", Box::new(remote));
    let ctl = sys.spawn_hosted("remote-dbg", Cred::new(100, 10));
    let pid = sys.spawn_program(ctl, "/bin/spin", &["spin"]).expect("spawn");
    let mut h = ProcHandle::open_rw(&mut sys, ctl, pid).expect("open across the wire");
    let st = h.stop(&mut sys).expect("PIOCSTOP across the wire");
    assert_ne!(st.flags & procsim::procfs::PR_STOPPED, 0);
    // Memory reads work remotely too (plain read(2) marshals generically).
    let mut buf = [0u8; 8];
    h.read_mem(&mut sys, st.reg.pc, &mut buf).expect("remote read");
    assert!(isa::Insn::decode(&buf).is_some());
    h.resume(&mut sys).expect("PIOCRUN across the wire");
    sys.run_idle(10);
    assert!(!sys.kernel.proc(pid).expect("alive").is_stopped());
    h.close(&mut sys).expect("close");
}

#[test]
fn exec_exit_stop_lets_debugger_observe_new_image() {
    // "stop on exit from exec" — used by debuggers to re-read symbol
    // tables after the image changes.
    let (mut sys, ctl) = boot();
    sys.install_program(
        "/bin/execer",
        r#"
        _start:
            movi rv, 11
            la   a0, path
            movi a1, 0
            syscall
        hang:
            jmp hang
        .data
        path: .asciz "/bin/ticker"
        "#,
    );
    let pid = sys.spawn_program(ctl, "/bin/execer", &["execer"]).expect("spawn");
    let mut h = ProcHandle::open_rw(&mut sys, ctl, pid).expect("open");
    let mut exits = SysSet::empty();
    exits.add(procsim::ksim::sysno::SYS_EXEC as usize);
    h.set_exit_trace(&mut sys, exits).expect("trace");
    let st = h.wstop(&mut sys).expect("exec exit stop");
    assert_eq!(st.why, PrWhy::SyscallExit);
    assert_eq!(st.what, procsim::ksim::sysno::SYS_EXEC);
    // The new image's symbols are reachable through PIOCOPENM.
    let aout = h.read_aout(&mut sys).expect("aout");
    assert!(aout.sym("tick").is_some(), "symbols of the NEW image");
    assert_eq!(sys.kernel.proc(pid).expect("p").fname, "ticker");
    h.resume(&mut sys).expect("run");
    h.close(&mut sys).expect("close");
}

#[test]
fn vfork_under_trace_releases_parent_on_child_exec() {
    // vfork blocks the parent until the child execs; a debugger watching
    // the parent sees it sleep through the child's life.
    let (mut sys, ctl) = boot();
    sys.install_program(
        "/bin/vforker",
        r#"
        _start:
            movi rv, 62         ; vfork
            syscall
            beq  rv, zero, child
            movi rv, 7          ; wait(0)
            movi a0, 0
            syscall
            movi rv, 1
            movi a0, 0
            syscall
        child:
            movi rv, 11         ; exec("/bin/greeter")
            la   a0, path
            movi a1, 0
            syscall
        .data
        path: .asciz "/bin/greeter"
        "#,
    );
    sys.spawn_program(ctl, "/bin/vforker", &["vforker"]).expect("spawn");
    let (_, status) = sys.host_wait(ctl).expect("wait");
    assert_eq!(decode_status(status), WaitStatus::Exited(0));
    // The exec'd child wrote the greeting.
    let meta = sys.stat_path(ctl, "/tmp/greeting").expect("file exists");
    assert!(meta.size > 0);
}
