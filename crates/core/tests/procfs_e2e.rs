//! End-to-end tests of the flat `/proc` interface: a hosted controlling
//! process manipulating simulated targets exactly as a debugger would.

use isa::GregSet;
use ksim::signal::{SIGINT, SIGUSR1};
use ksim::sysno::{SYS_GETPID, SYS_NANOSLEEP};
use ksim::{Cred, Pid, SigSet, SysSet, System};
use procfs::ioctl::*;
use procfs::{boot_with_proc, PrMap, PrRun, PrStatus, PrWhy, PsInfo, PRRUN_CSIG};
use vfs::{Errno, OFlags};

/// Boots with /proc mounted, a uid-100 controller, and a spinning target.
fn setup(src: &str) -> (System, Pid, Pid) {
    let mut sys = boot_with_proc();
    let ctl = sys.spawn_hosted("ctl", Cred::new(100, 10));
    sys.install_program("/bin/target", src);
    let target = sys.spawn_program(ctl, "/bin/target", &["target"]).expect("spawn");
    (sys, ctl, target)
}

const SPIN: &str = "_start:\nloop: jmp loop";

fn proc_path(pid: Pid) -> String {
    format!("/proc/{:05}", pid.0)
}

fn open_ctl(sys: &mut System, ctl: Pid, target: Pid) -> usize {
    sys.host_open(ctl, &proc_path(target), OFlags::rdwr()).expect("open /proc file")
}

fn status_of(sys: &mut System, ctl: Pid, fd: usize) -> PrStatus {
    let out = sys.host_ioctl(ctl, fd, PIOCSTATUS, &[]).expect("PIOCSTATUS");
    PrStatus::from_bytes(&out).expect("prstatus decodes")
}

#[test]
fn readdir_lists_processes_with_padded_names() {
    let (mut sys, ctl, target) = setup(SPIN);
    let entries = sys.list_dir(ctl, "/proc").expect("readdir");
    let names: Vec<&str> = entries.iter().map(|e| e.name.as_str()).collect();
    assert!(names.contains(&"00000"), "system process 0: {names:?}");
    assert!(names.contains(&"00001"), "init");
    assert!(names.contains(&format!("{:05}", target.0).as_str()));
    // Figure 1: sizes are the total virtual memory; system processes
    // report zero.
    let meta0 = sys.stat_path(ctl, "/proc/00000").expect("stat 0");
    assert_eq!(meta0.size, 0, "system process has no user-level address space");
    let metat = sys.stat_path(ctl, &proc_path(target)).expect("stat target");
    assert!(metat.size > 0);
    assert_eq!(metat.uid, 100, "owner is the real uid");
    assert_eq!(metat.gid, 10);
    assert_eq!(metat.ls_mode(), "-rw-------");
}

#[test]
fn open_permissions_follow_the_paper() {
    let (mut sys, _ctl, target) = setup(SPIN);
    let other = sys.spawn_hosted("other", Cred::new(200, 20));
    let root = sys.spawn_hosted("rootctl", Cred::superuser());
    // Same uid/gid: the spawner's cred was inherited by the target, so
    // `other` must be refused, root admitted.
    assert_eq!(sys.host_open(other, &proc_path(target), OFlags::rdonly()), Err(Errno::EACCES));
    let fd = sys.host_open(root, &proc_path(target), OFlags::rdwr()).expect("root opens");
    sys.host_close(root, fd).expect("close");
}

#[test]
fn setid_process_is_superuser_only() {
    let (mut sys, ctl, _) = setup(SPIN);
    // Make a set-uid target by marking the executable.
    let aout = ksim::aout::build_aout(SPIN).expect("asm");
    sys.memfs_mut().install("/bin/su-target", 0o4755, 0, 0, aout.to_bytes());
    let suid = sys.spawn_program(ctl, "/bin/su-target", &["su"]).expect("spawn");
    // The uid-100 controller cannot open it even read-only (euid now 0).
    assert_eq!(sys.host_open(ctl, &proc_path(suid), OFlags::rdonly()), Err(Errno::EACCES));
    let root = sys.spawn_hosted("rootctl", Cred::superuser());
    let fd = sys.host_open(root, &proc_path(suid), OFlags::rdonly()).expect("root ok");
    sys.host_close(root, fd).expect("close");
}

#[test]
fn exclusive_open_blocks_other_writers_not_readers() {
    let (mut sys, ctl, target) = setup(SPIN);
    let fd = sys.host_open(ctl, &proc_path(target), OFlags::rdwr_excl()).expect("exclusive open");
    assert_eq!(
        sys.host_open(ctl, &proc_path(target), OFlags::rdwr()),
        Err(Errno::EBUSY),
        "second writer refused"
    );
    let rfd = sys
        .host_open(ctl, &proc_path(target), OFlags::rdonly())
        .expect("read-only opens are unaffected");
    sys.host_close(ctl, rfd).expect("close");
    sys.host_close(ctl, fd).expect("close");
    // After release, writers may open again.
    let fd2 = sys.host_open(ctl, &proc_path(target), OFlags::rdwr()).expect("open again");
    sys.host_close(ctl, fd2).expect("close");
}

#[test]
fn excl_requested_after_existing_writer_fails() {
    let (mut sys, ctl, target) = setup(SPIN);
    let fd = sys.host_open(ctl, &proc_path(target), OFlags::rdwr()).expect("writer");
    assert_eq!(sys.host_open(ctl, &proc_path(target), OFlags::rdwr_excl()), Err(Errno::EBUSY));
    sys.host_close(ctl, fd).expect("close");
}

#[test]
fn address_space_io_with_truncation_semantics() {
    let (mut sys, ctl, target) = setup(
        r#"
        _start:
        loop: jmp loop
        .data
        cell: .asciz "ABCD"
        "#,
    );
    let aout = {
        // Find the data address from the symbol table via the image.
        let bytes = sys.memfs_mut().install("/bin/na", 0, 0, 0, vec![]); // placeholder
        let _ = bytes;
        ksim::aout::build_aout("_start:\nloop: jmp loop\n.data\ncell: .asciz \"ABCD\"")
            .expect("asm")
    };
    let cell = aout.sym("cell").expect("cell symbol");
    let fd = open_ctl(&mut sys, ctl, target);
    // lseek to the data address and read.
    sys.host_lseek(ctl, fd, cell as i64, 0).expect("lseek");
    let mut buf = [0u8; 4];
    assert_eq!(sys.host_read(ctl, fd, &mut buf).expect("read"), 4);
    assert_eq!(&buf, b"ABCD");
    // Write through /proc; the process sees the change.
    sys.host_lseek(ctl, fd, cell as i64, 0).expect("lseek");
    assert_eq!(sys.host_write(ctl, fd, b"xy").expect("write"), 2);
    sys.host_lseek(ctl, fd, cell as i64, 0).expect("lseek");
    sys.host_read(ctl, fd, &mut buf).expect("read back");
    assert_eq!(&buf, b"xyCD");
    // Unmapped offset: fails outright.
    sys.host_lseek(ctl, fd, 0x10, 0).expect("lseek");
    assert_eq!(sys.host_read(ctl, fd, &mut buf), Err(Errno::EIO));
    // A read extending past the end of a mapping truncates at the
    // boundary rather than failing.
    let maps = {
        let out = sys.host_ioctl(ctl, fd, PIOCMAP, &[]).expect("PIOCMAP");
        PrMap::decode_list(&out)
    };
    let text = maps.iter().find(|m| m.name == "text").expect("text mapping");
    let tail = text.vaddr + text.size - 8;
    // There is a gap between text and data mappings large enough only if
    // data does not start immediately; compute actual next mapping.
    let next_base = maps.iter().map(|m| m.vaddr).filter(|&v| v > tail).min().unwrap_or(u64::MAX);
    if next_base > text.vaddr + text.size {
        sys.host_lseek(ctl, fd, tail as i64, 0).expect("lseek");
        let mut big = [0u8; 64];
        let n = sys.host_read(ctl, fd, &mut big).expect("truncated read");
        assert_eq!(n, 8, "truncated at the mapping boundary");
    }
    sys.host_close(ctl, fd).expect("close");
}

#[test]
fn stop_and_run_cycle() {
    let (mut sys, ctl, target) = setup(SPIN);
    let fd = open_ctl(&mut sys, ctl, target);
    // Initially running.
    let st = status_of(&mut sys, ctl, fd);
    assert_eq!(st.flags & procfs::PR_STOPPED, 0);
    assert_eq!(st.why, PrWhy::None);
    // PIOCSTOP: directed stop, waits, returns status.
    let out = sys.host_ioctl(ctl, fd, PIOCSTOP, &[]).expect("PIOCSTOP");
    let st = PrStatus::from_bytes(&out).expect("status");
    assert_ne!(st.flags & procfs::PR_STOPPED, 0);
    assert_ne!(st.flags & procfs::PR_ISTOP, 0);
    assert_eq!(st.why, PrWhy::Requested);
    assert_eq!(st.pid, target.0);
    // Registers are readable and the PC lies in text.
    let regs = {
        let out = sys.host_ioctl(ctl, fd, PIOCGREG, &[]).expect("PIOCGREG");
        GregSet::from_bytes(&out).expect("gregset")
    };
    assert!(regs.pc >= 0x0100_0000);
    // Resume; status shows running again.
    sys.host_ioctl(ctl, fd, PIOCRUN, &PrRun::default().to_bytes()).expect("PIOCRUN");
    sys.run_idle(5);
    let st = status_of(&mut sys, ctl, fd);
    assert_eq!(st.flags & procfs::PR_STOPPED, 0);
    sys.host_close(ctl, fd).expect("close");
}

#[test]
fn traced_signal_stops_target() {
    let (mut sys, ctl, target) = setup(SPIN);
    let fd = open_ctl(&mut sys, ctl, target);
    let mut set = SigSet::empty();
    set.add(SIGUSR1);
    sys.host_ioctl(ctl, fd, PIOCSTRACE, &set.to_bytes()).expect("PIOCSTRACE");
    // Read back.
    let got = sys.host_ioctl(ctl, fd, PIOCGTRACE, &[]).expect("PIOCGTRACE");
    assert_eq!(SigSet::from_bytes(&got).expect("sigset"), set);
    sys.host_kill(ctl, target, SIGUSR1).expect("kill");
    let out = sys.host_ioctl(ctl, fd, PIOCWSTOP, &[]).expect("PIOCWSTOP");
    let st = PrStatus::from_bytes(&out).expect("status");
    assert_eq!(st.why, PrWhy::Signalled);
    assert_eq!(st.what as usize, SIGUSR1);
    assert_eq!(st.cursig as usize, SIGUSR1);
    // Clear the signal on resume: the process survives (default action
    // for SIGUSR1 would have killed it).
    sys.host_ioctl(ctl, fd, PIOCRUN, &PrRun { flags: PRRUN_CSIG, vaddr: 0 }.to_bytes())
        .expect("PIOCRUN");
    sys.run_idle(20);
    assert!(!sys.kernel.proc(target).expect("alive").zombie);
    sys.host_close(ctl, fd).expect("close");
}

#[test]
fn syscall_entry_exit_stops_and_argument_control() {
    // Target calls getpid then exits with the returned value's low byte.
    let (mut sys, ctl, target) = setup(
        r#"
        _start:
            movi rv, 20     ; getpid
            syscall
            mov  a0, rv
            movi rv, 1      ; exit(pid)
            syscall
        "#,
    );
    let fd = open_ctl(&mut sys, ctl, target);
    let mut entry = SysSet::empty();
    entry.add(SYS_GETPID as usize);
    let mut exit = SysSet::empty();
    exit.add(SYS_GETPID as usize);
    sys.host_ioctl(ctl, fd, PIOCSENTRY, &entry.to_bytes()).expect("PIOCSENTRY");
    sys.host_ioctl(ctl, fd, PIOCSEXIT, &exit.to_bytes()).expect("PIOCSEXIT");
    // Entry stop.
    let st = PrStatus::from_bytes(&sys.host_ioctl(ctl, fd, PIOCWSTOP, &[]).expect("wstop"))
        .expect("status");
    assert_eq!(st.why, PrWhy::SyscallEntry);
    assert_eq!(st.what, SYS_GETPID);
    sys.host_ioctl(ctl, fd, PIOCRUN, &[]).expect("run");
    // Exit stop: return value already in rv.
    let st = PrStatus::from_bytes(&sys.host_ioctl(ctl, fd, PIOCWSTOP, &[]).expect("wstop"))
        .expect("status");
    assert_eq!(st.why, PrWhy::SyscallExit);
    assert_eq!(st.reg.rv(), target.0 as u64, "return value visible at exit stop");
    // Manufacture a different return value — "complete encapsulation".
    let mut regs = st.reg.clone();
    regs.set_rv(77);
    sys.host_ioctl(ctl, fd, PIOCSREG, &regs.to_bytes()).expect("PIOCSREG");
    sys.host_ioctl(ctl, fd, PIOCRUN, &[]).expect("run");
    let (_, status) = sys.host_wait(ctl).expect("wait");
    assert_eq!(ksim::ptrace::decode_status(status), ksim::ptrace::WaitStatus::Exited(77));
}

#[test]
fn syscall_abort_goes_directly_to_exit() {
    // Target tries nanosleep(huge); controller aborts it at entry; the
    // call fails with EINTR and the target exits with the errno.
    let (mut sys, ctl, target) = setup(
        r#"
        _start:
            movi rv, 69         ; nanosleep(1<<30 ticks)
            movi a0, 0x40000000
            syscall
            mov  a0, rv         ; -EINTR
            movi a1, 0
            sub  a0, a1, a0     ; errno
            movi rv, 1
            syscall
        "#,
    );
    let fd = open_ctl(&mut sys, ctl, target);
    let mut entry = SysSet::empty();
    entry.add(SYS_NANOSLEEP as usize);
    sys.host_ioctl(ctl, fd, PIOCSENTRY, &entry.to_bytes()).expect("entry");
    let st = PrStatus::from_bytes(&sys.host_ioctl(ctl, fd, PIOCWSTOP, &[]).expect("wstop"))
        .expect("status");
    assert_eq!(st.why, PrWhy::SyscallEntry);
    sys.host_ioctl(
        ctl,
        fd,
        PIOCRUN,
        &PrRun { flags: procfs::types::PRRUN_SABORT, vaddr: 0 }.to_bytes(),
    )
    .expect("abort");
    let (_, status) = sys.host_wait(ctl).expect("wait");
    assert_eq!(
        ksim::ptrace::decode_status(status),
        ksim::ptrace::WaitStatus::Exited(Errno::EINTR as i32 as u8)
    );
}

#[test]
fn breakpoint_via_fault_tracing() {
    // Plant a breakpoint at the `hit` symbol by writing the BPT encoding
    // through /proc; trace FLTBPT; the process stops with the PC at the
    // breakpoint address.
    let src = r#"
        _start:
            movi a0, 0
        loop:
            addi a0, a0, 1
            call hit
            jmp  loop
        hit:
            ret
    "#;
    let (mut sys, ctl, target) = setup(src);
    let aout = ksim::aout::build_aout(src).expect("asm");
    let hit = aout.sym("hit").expect("hit symbol");
    let fd = open_ctl(&mut sys, ctl, target);
    // Stop it first so planting is race-free, then plant.
    sys.host_ioctl(ctl, fd, PIOCSTOP, &[]).expect("stop");
    let mut flt = ksim::FltSet::empty();
    flt.add(ksim::Fault::Bpt.number());
    sys.host_ioctl(ctl, fd, PIOCSFAULT, &flt.to_bytes()).expect("sfault");
    sys.host_lseek(ctl, fd, hit as i64, 0).expect("lseek");
    let saved = {
        let mut b = [0u8; 8];
        sys.host_read(ctl, fd, &mut b).expect("read insn");
        b
    };
    sys.host_lseek(ctl, fd, hit as i64, 0).expect("lseek");
    sys.host_write(ctl, fd, &isa::insn::breakpoint_bytes()).expect("plant");
    sys.host_ioctl(ctl, fd, PIOCRUN, &[]).expect("run");
    // Stops on the fault, PC at the breakpoint address.
    let st = PrStatus::from_bytes(&sys.host_ioctl(ctl, fd, PIOCWSTOP, &[]).expect("wstop"))
        .expect("status");
    assert_eq!(st.why, PrWhy::Faulted);
    assert_eq!(st.what as usize, ksim::Fault::Bpt.number());
    assert_eq!(st.reg.pc, hit, "PC left at the breakpoint address");
    // Lift the breakpoint, clear the fault, resume; target survives.
    sys.host_lseek(ctl, fd, hit as i64, 0).expect("lseek");
    sys.host_write(ctl, fd, &saved).expect("restore");
    sys.host_ioctl(
        ctl,
        fd,
        PIOCRUN,
        &PrRun { flags: procfs::types::PRRUN_CFAULT, vaddr: 0 }.to_bytes(),
    )
    .expect("run");
    sys.run_idle(50);
    assert!(!sys.kernel.proc(target).expect("alive").zombie);
}

#[test]
fn single_step_stops_on_flttrace() {
    let (mut sys, ctl, target) = setup(SPIN);
    let fd = open_ctl(&mut sys, ctl, target);
    sys.host_ioctl(ctl, fd, PIOCSTOP, &[]).expect("stop");
    let mut flt = ksim::FltSet::empty();
    flt.add(ksim::Fault::Trace.number());
    sys.host_ioctl(ctl, fd, PIOCSFAULT, &flt.to_bytes()).expect("sfault");
    let pc0 = status_of(&mut sys, ctl, fd).reg.pc;
    sys.host_ioctl(
        ctl,
        fd,
        PIOCRUN,
        &PrRun { flags: procfs::types::PRRUN_STEP, vaddr: 0 }.to_bytes(),
    )
    .expect("step");
    let st = PrStatus::from_bytes(&sys.host_ioctl(ctl, fd, PIOCWSTOP, &[]).expect("wstop"))
        .expect("status");
    assert_eq!(st.why, PrWhy::Faulted);
    assert_eq!(st.what as usize, ksim::Fault::Trace.number());
    // The spin loop is `jmp loop`: one step lands back at the same PC.
    assert_eq!(st.reg.pc, pc0);
}

#[test]
fn inherit_on_fork_stops_both_parent_and_child() {
    let src = r#"
        _start:
            movi rv, 2      ; fork
            syscall
            beq  rv, zero, child
        parent:
            jmp parent
        child:
            jmp child
    "#;
    let (mut sys, ctl, target) = setup(src);
    let fd = open_ctl(&mut sys, ctl, target);
    sys.host_ioctl(ctl, fd, PIOCSTOP, &[]).expect("stop early");
    let mut exit = SysSet::empty();
    exit.add(ksim::sysno::SYS_FORK as usize);
    sys.host_ioctl(ctl, fd, PIOCSEXIT, &exit.to_bytes()).expect("sexit");
    sys.host_ioctl(ctl, fd, PIOCSFORK, &[]).expect("inherit-on-fork");
    sys.host_ioctl(ctl, fd, PIOCRUN, &[]).expect("run");
    // Parent stops on exit from fork; the return value names the child.
    let st = PrStatus::from_bytes(&sys.host_ioctl(ctl, fd, PIOCWSTOP, &[]).expect("wstop"))
        .expect("status");
    assert_eq!(st.why, PrWhy::SyscallExit);
    assert_eq!(st.what, ksim::sysno::SYS_FORK);
    let child = Pid(st.reg.rv() as u32);
    assert_ne!(child, target);
    // "Because the child stopped before executing any user-level code,
    // the debugger can maintain complete control."
    let cfd = sys.host_open(ctl, &proc_path(child), OFlags::rdwr()).expect("open child");
    let cst = status_of(&mut sys, ctl, cfd);
    assert_ne!(cst.flags & procfs::PR_ISTOP, 0, "child stopped on fork exit");
    assert_eq!(cst.why, PrWhy::SyscallExit);
    assert_eq!(cst.reg.rv(), 0, "child's fork returns 0");
    // The child inherited the tracing flags.
    let cset = sys.host_ioctl(ctl, cfd, PIOCGEXIT, &[]).expect("child gexit");
    assert!(SysSet::from_bytes(&cset).expect("sysset").has(ksim::sysno::SYS_FORK as usize));
}

#[test]
fn run_on_last_close_releases_target() {
    let (mut sys, ctl, target) = setup(SPIN);
    let fd = open_ctl(&mut sys, ctl, target);
    sys.host_ioctl(ctl, fd, PIOCSTOP, &[]).expect("stop");
    let mut set = SigSet::empty();
    set.add(SIGINT);
    sys.host_ioctl(ctl, fd, PIOCSTRACE, &set.to_bytes()).expect("strace");
    sys.host_ioctl(ctl, fd, PIOCSRLC, &[]).expect("set rlc");
    sys.host_close(ctl, fd).expect("close last writable fd");
    // Tracing flags cleared, process set running.
    sys.run_idle(5);
    let proc = sys.kernel.proc(target).expect("alive");
    assert!(!proc.is_stopped(), "set running on last close");
    assert!(proc.trace.sig_trace.is_empty(), "tracing flags cleared");
}

#[test]
fn tracing_survives_close_without_rlc() {
    let (mut sys, ctl, target) = setup(SPIN);
    let fd = open_ctl(&mut sys, ctl, target);
    let mut set = SigSet::empty();
    set.add(SIGINT);
    sys.host_ioctl(ctl, fd, PIOCSTRACE, &set.to_bytes()).expect("strace");
    sys.host_close(ctl, fd).expect("close");
    // "Tracing flags can remain active for a process when its process
    // file is closed, allowing a process to be left hanging and later
    // reattached."
    assert!(sys.kernel.proc(target).expect("alive").trace.sig_trace.has(SIGINT));
    // Reattach and find the state intact.
    let fd = open_ctl(&mut sys, ctl, target);
    let got = sys.host_ioctl(ctl, fd, PIOCGTRACE, &[]).expect("gtrace");
    assert!(SigSet::from_bytes(&got).expect("sigset").has(SIGINT));
}

#[test]
fn setid_exec_invalidates_descriptor() {
    let src = r#"
        _start:
            movi rv, 11     ; exec("/bin/su", 0)
            la   a0, path
            movi a1, 0
            syscall
        hang:
            jmp hang
        .data
        path: .asciz "/bin/su"
    "#;
    let (mut sys, _ctl, target) = setup(src);
    // A root-setuid executable.
    let aout = ksim::aout::build_aout(SPIN).expect("asm");
    sys.memfs_mut().install("/bin/su", 0o4755, 0, 0, aout.to_bytes());
    let root = sys.spawn_hosted("rootctl", Cred::superuser());
    let fd = sys.host_open(root, &proc_path(target), OFlags::rdwr()).expect("open");
    // Let the target exec the set-id program.
    sys.run_idle(2000);
    let proc = sys.kernel.proc(target).expect("alive");
    assert_eq!(proc.cred.euid, 0, "set-id honoured");
    assert!(proc.is_stopped(), "directed to stop on set-id exec under trace");
    assert!(proc.trace.run_on_last_close, "run-on-last-close set");
    // The old descriptor is dead except for close.
    assert_eq!(sys.host_ioctl(root, fd, PIOCSTATUS, &[]), Err(Errno::EBADF));
    let mut b = [0u8; 4];
    sys.host_lseek(root, fd, 0x0100_0000, 0).expect("lseek");
    assert_eq!(sys.host_read(root, fd, &mut b), Err(Errno::EBADF));
    // A privileged controller can reopen to retain control.
    let fd2 = sys.host_open(root, &proc_path(target), OFlags::rdwr()).expect("reopen");
    let st = status_of(&mut sys, root, fd2);
    assert_ne!(st.flags & procfs::PR_STOPPED, 0);
    sys.host_close(root, fd2).expect("close");
    // Closing the stale descriptor (now the last writable one) releases
    // the process.
    sys.host_close(root, fd).expect("close stale");
    sys.run_idle(5);
    assert!(!sys.kernel.proc(target).expect("alive").is_stopped());
}

#[test]
fn piocopenm_reaches_the_executable() {
    let (mut sys, ctl, target) = setup(SPIN);
    let fd = open_ctl(&mut sys, ctl, target);
    let st = {
        sys.host_ioctl(ctl, fd, PIOCSTOP, &[]).expect("stop");
        status_of(&mut sys, ctl, fd)
    };
    // Open the object mapped at the PC (the a.out text).
    let out = sys.host_ioctl(ctl, fd, PIOCOPENM, &st.reg.pc.to_le_bytes()).expect("PIOCOPENM");
    let objfd = u64::from_le_bytes(out.try_into().expect("8 bytes")) as usize;
    // Read the a.out header and parse the symbol table from it — "this
    // enables a debugger to find executable file symbol tables ...
    // without having to know pathnames."
    let mut image = vec![0u8; 65536];
    let mut off = 0;
    loop {
        let n = sys.host_read(ctl, objfd, &mut image[off..]).expect("read aout");
        if n == 0 {
            break;
        }
        off += n;
    }
    image.truncate(off);
    let aout = ksim::Aout::from_bytes(&image).expect("parses as a.out");
    assert!(aout.sym("_start").is_some());
}

#[test]
fn psinfo_snapshot_matches_ps_needs() {
    let (mut sys, ctl, target) = setup(SPIN);
    let fd = sys.host_open(ctl, &proc_path(target), OFlags::rdonly()).expect("open ro");
    let out = sys.host_ioctl(ctl, fd, PIOCPSINFO, &[]).expect("PIOCPSINFO");
    let info = PsInfo::from_bytes(&out).expect("psinfo");
    assert_eq!(info.pid, target.0);
    assert_eq!(info.uid, 100);
    assert_eq!(info.fname, "target");
    assert_eq!(info.psargs, "target");
    assert!(info.size > 0);
    assert_eq!(info.nlwp, 1);
}

#[test]
fn write_class_ops_require_writable_descriptor() {
    let (mut sys, ctl, target) = setup(SPIN);
    let fd = sys.host_open(ctl, &proc_path(target), OFlags::rdonly()).expect("open ro");
    // Read-only ops fine.
    sys.host_ioctl(ctl, fd, PIOCSTATUS, &[]).expect("status ok");
    sys.host_ioctl(ctl, fd, PIOCCRED, &[]).expect("cred ok");
    // Control ops refused.
    let mut set = SigSet::empty();
    set.add(SIGINT);
    assert_eq!(sys.host_ioctl(ctl, fd, PIOCSTRACE, &set.to_bytes()), Err(Errno::EBADF));
    assert_eq!(sys.host_ioctl(ctl, fd, PIOCKILL, &9u32.to_le_bytes()), Err(Errno::EBADF));
}

#[test]
fn watchpoint_stops_on_watched_store() {
    let src = r#"
        _start:
            la   a0, cell
            movi a1, 0
        loop:
            addi a1, a1, 1
            st   a1, [a0+128]    ; unwatched, same page
            st   a1, [a0]        ; watched
            jmp  loop
        .data
        .align 8
        cell: .space 256
    "#;
    let (mut sys, ctl, target) = setup(src);
    let aout = ksim::aout::build_aout(src).expect("asm");
    let cell = aout.sym("cell").expect("cell");
    let fd = open_ctl(&mut sys, ctl, target);
    sys.host_ioctl(ctl, fd, PIOCSTOP, &[]).expect("stop");
    let mut flt = ksim::FltSet::empty();
    flt.add(ksim::Fault::Watch.number());
    sys.host_ioctl(ctl, fd, PIOCSFAULT, &flt.to_bytes()).expect("sfault");
    let w = procfs::PrWatch { vaddr: cell, size: 8, flags: 2 /* write */ };
    sys.host_ioctl(ctl, fd, PIOCSWATCH, &w.to_bytes()).expect("swatch");
    sys.host_ioctl(ctl, fd, PIOCRUN, &[]).expect("run");
    let st = PrStatus::from_bytes(&sys.host_ioctl(ctl, fd, PIOCWSTOP, &[]).expect("wstop"))
        .expect("status");
    assert_eq!(st.why, PrWhy::Faulted);
    assert_eq!(st.what as usize, ksim::Fault::Watch.number());
    // The same-page unwatched store was recovered transparently.
    let usage =
        procfs::PrUsage::from_bytes(&sys.host_ioctl(ctl, fd, PIOCUSAGE, &[]).expect("usage"))
            .expect("prusage");
    assert!(usage.watch_recoveries >= 1, "same-page store was recovered");
    // Step over the watched store with the one-shot bypass and continue.
    sys.host_ioctl(
        ctl,
        fd,
        PIOCRUN,
        &PrRun { flags: procfs::types::PRRUN_CFAULT | procfs::types::PRRUN_WBYPASS, vaddr: 0 }
            .to_bytes(),
    )
    .expect("run");
    // It fires again on the next iteration.
    let st = PrStatus::from_bytes(&sys.host_ioctl(ctl, fd, PIOCWSTOP, &[]).expect("wstop"))
        .expect("status");
    assert_eq!(st.what as usize, ksim::Fault::Watch.number());
    // Remove the watchpoint; the target runs free.
    let rm = procfs::PrWatch { vaddr: cell, size: 0, flags: 0 };
    sys.host_ioctl(ctl, fd, PIOCSWATCH, &rm.to_bytes()).expect("remove");
    sys.host_ioctl(
        ctl,
        fd,
        PIOCRUN,
        &PrRun { flags: procfs::types::PRRUN_CFAULT, vaddr: 0 }.to_bytes(),
    )
    .expect("run");
    sys.run_idle(50);
    assert!(!sys.kernel.proc(target).expect("alive").is_stopped());
}

#[test]
fn poll_on_proc_descriptor_sees_stop_and_exit() {
    let (mut sys, ctl, target) = setup(SPIN);
    let fd = open_ctl(&mut sys, ctl, target);
    let st = sys.poll_fd(ctl, fd).expect("poll");
    assert!(!st.readable, "running process is not 'ready'");
    sys.host_ioctl(ctl, fd, PIOCSTOP, &[]).expect("stop");
    let st = sys.poll_fd(ctl, fd).expect("poll");
    assert!(st.readable, "stopped on event of interest");
    sys.host_ioctl(ctl, fd, PIOCRUN, &[]).expect("run");
    sys.host_kill(ctl, target, ksim::signal::SIGKILL).expect("kill");
    sys.run_idle(20);
    let st = sys.poll_fd(ctl, fd).expect("poll");
    assert!(st.hangup, "dead target reports hangup");
}

#[test]
fn deprecated_getpr_reveals_implementation() {
    let (mut sys, ctl, target) = setup(SPIN);
    let fd = sys.host_open(ctl, &proc_path(target), OFlags::rdonly()).expect("open");
    let dump = sys.host_ioctl(ctl, fd, PIOCGETPR, &[]).expect("getpr");
    let text = String::from_utf8_lossy(&dump);
    assert!(text.contains("Proc"), "a raw structure dump: {text:.60}");
    let dump = sys.host_ioctl(ctl, fd, PIOCGETU, &[]).expect("getu");
    assert!(String::from_utf8_lossy(&dump).contains("uarea"));
}

#[test]
fn kill_and_unkill_via_proc() {
    let (mut sys, ctl, target) = setup(SPIN);
    let fd = open_ctl(&mut sys, ctl, target);
    // Stop it so the posted signal stays pending.
    sys.host_ioctl(ctl, fd, PIOCSTOP, &[]).expect("stop");
    sys.host_ioctl(ctl, fd, PIOCKILL, &(SIGUSR1 as u32).to_le_bytes()).expect("kill");
    let st = status_of(&mut sys, ctl, fd);
    assert!(st.sigpend.has(SIGUSR1));
    sys.host_ioctl(ctl, fd, PIOCUNKILL, &(SIGUSR1 as u32).to_le_bytes()).expect("unkill");
    let st = status_of(&mut sys, ctl, fd);
    assert!(!st.sigpend.has(SIGUSR1));
    // The target survives resumption (the signal is gone).
    sys.host_ioctl(ctl, fd, PIOCRUN, &[]).expect("run");
    sys.run_idle(20);
    assert!(!sys.kernel.proc(target).expect("alive").zombie);
}

#[test]
fn directed_stop_in_sleep_does_not_disturb_syscall() {
    // Target reads from an empty pipe (sleeping); a directed stop and
    // resume leave the read pending; data then completes it normally.
    let src = r#"
        _start:
            movi rv, 42        ; pipe(&fds)
            la   a0, fds
            syscall
            la   a0, fds
            ld   a0, [a0]      ; rfd
            movi rv, 3         ; read(rfd, buf, 8) — blocks forever
            la   a1, buf
            movi a2, 8
            syscall
            mov  a0, rv        ; bytes read
            movi rv, 1
            syscall
        .data
        .align 8
        fds: .space 16
        buf: .space 8
    "#;
    let (mut sys, ctl, target) = setup(src);
    let fd = open_ctl(&mut sys, ctl, target);
    // Let it reach the blocking read.
    sys.run_until(10_000, |s| {
        s.kernel
            .proc(target)
            .map(|p| matches!(p.rep_lwp().state, ksim::LwpState::Sleeping { .. }))
            .unwrap_or(false)
    });
    let st = status_of(&mut sys, ctl, fd);
    assert_ne!(st.flags & procfs::PR_ASLEEP, 0, "asleep in read");
    // Direct a stop; it stops without EINTR.
    let out = sys.host_ioctl(ctl, fd, PIOCSTOP, &[]).expect("stop");
    let st = PrStatus::from_bytes(&out).expect("status");
    assert_eq!(st.why, PrWhy::Requested);
    // Resume: it goes back to sleep, the call undisturbed.
    sys.host_ioctl(ctl, fd, PIOCRUN, &[]).expect("run");
    sys.run_until(10_000, |s| {
        s.kernel
            .proc(target)
            .map(|p| matches!(p.rep_lwp().state, ksim::LwpState::Sleeping { .. }))
            .unwrap_or(false)
    });
    // Feed the pipe from inside the target's own fd table: write through
    // a second hosted descriptor is not possible (the pipe belongs to the
    // target), so kill it to check it is still waiting, proving the read
    // survived the stop/run cycle.
    let proc = sys.kernel.proc(target).expect("alive");
    assert!(
        matches!(proc.rep_lwp().state, ksim::LwpState::Sleeping { .. }),
        "the system call is still pending, undisturbed"
    );
}

#[test]
fn piocnmap_counts_mappings() {
    let (mut sys, ctl, target) = setup(SPIN);
    let fd = open_ctl(&mut sys, ctl, target);
    let n = {
        let out = sys.host_ioctl(ctl, fd, PIOCNMAP, &[]).expect("PIOCNMAP");
        u64::from_le_bytes(out.try_into().expect("8 bytes"))
    };
    let maps = {
        let out = sys.host_ioctl(ctl, fd, PIOCMAP, &[]).expect("PIOCMAP");
        PrMap::decode_list(&out)
    };
    assert_eq!(n as usize, maps.len());
    assert!(n >= 4, "text, bss, break, stack");
}

#[test]
fn pioccred_and_groups() {
    let mut sys = boot_with_proc();
    let mut cred = Cred::new(100, 10);
    cred.groups = vec![7, 8, 9];
    let ctl = sys.spawn_hosted("ctl", cred);
    sys.install_program("/bin/t", SPIN);
    let target = sys.spawn_program(ctl, "/bin/t", &["t"]).expect("spawn");
    let fd = sys.host_open(ctl, &proc_path(target), OFlags::rdonly()).expect("open");
    let out = sys.host_ioctl(ctl, fd, PIOCCRED, &[]).expect("PIOCCRED");
    let cred = procfs::PrCred::from_bytes(&out).expect("cred");
    assert_eq!(cred.ruid, 100);
    assert_eq!(cred.ngroups, 3);
    let out = sys.host_ioctl(ctl, fd, PIOCGROUPS, &[]).expect("PIOCGROUPS");
    let groups: Vec<u32> =
        out.chunks_exact(4).map(|c| u32::from_le_bytes(c.try_into().expect("4 bytes"))).collect();
    assert_eq!(groups, vec![7, 8, 9]);
}

#[test]
fn piocnice_adjusts_priority() {
    let (mut sys, ctl, target) = setup(SPIN);
    let fd = open_ctl(&mut sys, ctl, target);
    sys.host_ioctl(ctl, fd, PIOCNICE, &5u32.to_le_bytes()).expect("PIOCNICE");
    assert_eq!(sys.kernel.proc(target).expect("p").nice, 5);
    let info = PsInfo::from_bytes(&sys.host_ioctl(ctl, fd, PIOCPSINFO, &[]).expect("info"))
        .expect("psinfo");
    assert_eq!(info.nice, 5);
}

#[test]
fn piocshold_blocks_delivery() {
    let (mut sys, ctl, target) = setup(SPIN);
    let fd = open_ctl(&mut sys, ctl, target);
    // Hold SIGUSR1, then post it: it stays pending and the target lives.
    let mut hold = SigSet::empty();
    hold.add(SIGUSR1);
    sys.host_ioctl(ctl, fd, PIOCSHOLD, &hold.to_bytes()).expect("PIOCSHOLD");
    let got = sys.host_ioctl(ctl, fd, PIOCGHOLD, &[]).expect("PIOCGHOLD");
    assert!(SigSet::from_bytes(&got).expect("sigset").has(SIGUSR1));
    sys.host_kill(ctl, target, SIGUSR1).expect("kill");
    sys.run_idle(50);
    let proc = sys.kernel.proc(target).expect("alive");
    assert!(!proc.zombie, "held signal not delivered");
    assert!(proc.pending.has(SIGUSR1), "still pending");
    // Unhold: the default action (terminate) fires.
    sys.host_ioctl(ctl, fd, PIOCSHOLD, &SigSet::empty().to_bytes()).expect("unhold");
    sys.run_idle(50);
    assert!(sys.kernel.proc(target).expect("gone").zombie);
}

#[test]
fn piocgwatch_lists_areas() {
    let (mut sys, ctl, target) = setup(SPIN);
    let fd = open_ctl(&mut sys, ctl, target);
    let w1 = procfs::PrWatch { vaddr: 0x0100_2000, size: 8, flags: 2 };
    let w2 = procfs::PrWatch { vaddr: 0x0100_3000, size: 1, flags: 3 };
    sys.host_ioctl(ctl, fd, PIOCSWATCH, &w1.to_bytes()).expect("w1");
    sys.host_ioctl(ctl, fd, PIOCSWATCH, &w2.to_bytes()).expect("w2");
    let out = sys.host_ioctl(ctl, fd, PIOCGWATCH, &[]).expect("PIOCGWATCH");
    let list: Vec<procfs::PrWatch> = out
        .chunks_exact(procfs::PrWatch::WIRE_LEN)
        .filter_map(procfs::PrWatch::from_bytes)
        .collect();
    assert_eq!(list, vec![w1, w2]);
    // Remove one.
    let rm = procfs::PrWatch { vaddr: 0x0100_2000, size: 0, flags: 0 };
    sys.host_ioctl(ctl, fd, PIOCSWATCH, &rm.to_bytes()).expect("rm");
    let out = sys.host_ioctl(ctl, fd, PIOCGWATCH, &[]).expect("PIOCGWATCH");
    assert_eq!(out.len(), procfs::PrWatch::WIRE_LEN);
}

#[test]
fn read_watch_fires_on_load() {
    let src = r#"
        _start:
            la   a0, cell
        loop:
            ld   a1, [a0]       ; read the watched cell
            jmp  loop
        .data
        .align 8
        cell: .word 55
    "#;
    let (mut sys, ctl, target) = setup(src);
    let aout = ksim::aout::build_aout(src).expect("asm");
    let cell = aout.sym("cell").expect("cell");
    let fd = open_ctl(&mut sys, ctl, target);
    sys.host_ioctl(ctl, fd, PIOCSTOP, &[]).expect("stop");
    let mut flt = ksim::FltSet::empty();
    flt.add(ksim::Fault::Watch.number());
    sys.host_ioctl(ctl, fd, PIOCSFAULT, &flt.to_bytes()).expect("sfault");
    let w = procfs::PrWatch { vaddr: cell, size: 8, flags: 1 /* read */ };
    sys.host_ioctl(ctl, fd, PIOCSWATCH, &w.to_bytes()).expect("watch");
    sys.host_ioctl(ctl, fd, PIOCRUN, &[]).expect("run");
    let st = PrStatus::from_bytes(&sys.host_ioctl(ctl, fd, PIOCWSTOP, &[]).expect("wstop"))
        .expect("status");
    assert_eq!(st.what as usize, ksim::Fault::Watch.number());
}

#[test]
fn zombie_process_file_reports_psinfo_but_not_control() {
    let (mut sys, ctl, target) = setup("_start:\nmovi rv, 1\nmovi a0, 3\nsyscall");
    // Let it exit; do NOT reap it (no wait) so it stays a zombie.
    sys.run_idle(1000);
    assert!(sys.kernel.proc(target).expect("zombie").zombie);
    let fd = sys.host_open(ctl, &proc_path(target), OFlags::rdwr()).expect("open zombie");
    // psinfo works (ps lists zombies).
    let info = PsInfo::from_bytes(&sys.host_ioctl(ctl, fd, PIOCPSINFO, &[]).expect("psinfo"))
        .expect("decode");
    assert_eq!(info.state, b'Z');
    assert_eq!(info.size, 0);
    // Control and address-space I/O fail cleanly.
    assert_eq!(sys.host_ioctl(ctl, fd, PIOCSTATUS, &[]), Err(Errno::ENOENT));
    assert_eq!(sys.host_ioctl(ctl, fd, PIOCSTOP, &[]), Err(Errno::ENOENT));
    let mut b = [0u8; 4];
    sys.host_lseek(ctl, fd, 0x0100_0000, 0).expect("lseek");
    assert_eq!(sys.host_read(ctl, fd, &mut b), Err(Errno::EIO));
}

#[test]
fn prstatus_reports_instruction_at_pc() {
    let (mut sys, ctl, target) = setup(SPIN);
    let fd = open_ctl(&mut sys, ctl, target);
    let out = sys.host_ioctl(ctl, fd, PIOCSTOP, &[]).expect("stop");
    let st = PrStatus::from_bytes(&out).expect("status");
    // pr_instr holds the instruction bytes at the PC; it must decode.
    let insn = isa::Insn::decode(&st.instr.to_le_bytes()).expect("decodes");
    assert_eq!(insn.op, isa::Opcode::Jmp, "the spin loop's jmp");
}
