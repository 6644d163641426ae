//! End-to-end kernel tests: simulated programs executing real system
//! calls on the virtual CPU, exercising the process model the paper's
//! `/proc` interface controls.

use ksim::ptrace::{decode_status, WaitStatus};
use ksim::signal::{SIGINT, SIGKILL, SIGPIPE, SIGSEGV};
use ksim::{Cred, Pid, System};
use vfs::OFlags;

/// Boots a system with a hosted controller owned by uid 100.
fn boot() -> (System, Pid) {
    let mut sys = System::boot();
    let ctl = sys.spawn_hosted("ctl", Cred::new(100, 10));
    (sys, ctl)
}

fn run_and_wait(sys: &mut System, ctl: Pid, src: &str) -> (Pid, u16) {
    sys.install_program("/bin/prog", src);
    let pid = sys.spawn_program(ctl, "/bin/prog", &["prog"]).expect("spawn");
    let (wpid, status) = sys.host_wait(ctl).expect("wait");
    assert_eq!(wpid, pid);
    (pid, status)
}

#[test]
fn exit_status_propagates() {
    let (mut sys, ctl) = boot();
    let (_, status) = run_and_wait(
        &mut sys,
        ctl,
        r#"
        _start:
            movi rv, 1      ; exit
            movi a0, 7
            syscall
        "#,
    );
    assert_eq!(decode_status(status), WaitStatus::Exited(7));
}

#[test]
fn getpid_and_write_to_file() {
    let (mut sys, ctl) = boot();
    sys.memfs_mut().install("/tmp/out", 0o666, 100, 10, vec![]);
    let (pid, status) = run_and_wait(
        &mut sys,
        ctl,
        r#"
        _start:
            movi rv, 20             ; getpid
            syscall
            la   a0, pidcell
            st   rv, [a0]
            movi rv, 5              ; open("/tmp/out", O_WRONLY)
            la   a0, path
            movi a1, 1
            syscall
            mov  a0, rv             ; fd
            movi rv, 4              ; write(fd, pidcell, 8)
            la   a1, pidcell
            movi a2, 8
            syscall
            movi rv, 1              ; exit(0)
            movi a0, 0
            syscall
        .data
        path:    .asciz "/tmp/out"
        .align 8
        pidcell: .word 0
        "#,
    );
    assert_eq!(decode_status(status), WaitStatus::Exited(0));
    // The file now holds the child's pid, written by the child itself.
    let fd = sys.host_open(ctl, "/tmp/out", OFlags::rdonly()).expect("open");
    let mut buf = [0u8; 8];
    assert_eq!(sys.host_read(ctl, fd, &mut buf).expect("read"), 8);
    assert_eq!(u64::from_le_bytes(buf), pid.0 as u64);
}

#[test]
fn fork_parent_and_child_disambiguate() {
    let (mut sys, ctl) = boot();
    sys.memfs_mut().install("/tmp/f", 0o666, 100, 10, vec![]);
    let (_, status) = run_and_wait(
        &mut sys,
        ctl,
        r#"
        _start:
            movi rv, 2          ; fork
            syscall
            beq  rv, zero, child
            ; parent: wait for the child, exit with 0
            movi rv, 7          ; wait(0)
            movi a0, 0
            syscall
            movi rv, 1
            movi a0, 0
            syscall
        child:
            movi rv, 1          ; exit(5)
            movi a0, 5
            syscall
        "#,
    );
    assert_eq!(decode_status(status), WaitStatus::Exited(0));
}

#[test]
fn pipe_between_parent_and_child() {
    let (mut sys, ctl) = boot();
    let (_, status) = run_and_wait(
        &mut sys,
        ctl,
        r#"
        ; parent writes "ok" into a pipe; child reads it and exits with
        ; the byte count; parent exits with the child's code via wait.
        _start:
            movi rv, 42         ; pipe(&fds)
            la   a0, fds
            syscall
            movi rv, 2          ; fork
            syscall
            beq  rv, zero, child
            ; parent: write to fds[1]
            la   a0, fds
            ld   a0, [a0+8]
            movi rv, 4          ; write(wfd, msg, 2)
            la   a1, msg
            movi a2, 2
            syscall
            movi rv, 7          ; wait(&st)
            la   a0, st
            syscall
            la   a0, st
            ld   a0, [a0]
            shri a0, a0, 8      ; exit code of child
            movi rv, 1
            syscall
        child:
            la   a0, fds
            ld   a0, [a0]       ; rfd
            movi rv, 3          ; read(rfd, buf, 16) — sleeps until data
            la   a1, buf
            movi a2, 16
            syscall
            mov  a0, rv
            movi rv, 1          ; exit(n)
            syscall
        .data
        .align 8
        fds: .space 16
        st:  .word 0
        msg: .asciz "ok"
        buf: .space 16
        "#,
    );
    assert_eq!(decode_status(status), WaitStatus::Exited(2));
}

#[test]
fn signal_handler_runs_and_sigreturn_restores() {
    let (mut sys, ctl) = boot();
    let (_, status) = run_and_wait(
        &mut sys,
        ctl,
        r#"
        ; Install a SIGUSR1 handler, kill ourselves, verify the handler
        ; ran (it sets a flag), then exit with flag value.
        _start:
            movi rv, 48         ; sigaction(SIGUSR1, handler, 0)
            movi a0, 16
            la   a1, handler
            movi a2, 0
            syscall
            movi rv, 20         ; getpid
            syscall
            mov  a0, rv
            movi rv, 37         ; kill(self, SIGUSR1)
            movi a1, 16
            syscall
            ; after handler returns:
            la   a0, flag
            ld   a0, [a0]
            movi rv, 1          ; exit(flag)
            syscall
        handler:
            la   a1, flag
            movi a2, 1
            st   a2, [a1]
            ret                 ; returns via the kernel sigreturn trampoline
        .data
        .align 8
        flag: .word 0
        "#,
    );
    assert_eq!(decode_status(status), WaitStatus::Exited(1));
}

#[test]
fn uncaught_signal_kills_with_core() {
    let (mut sys, ctl) = boot();
    sys.install_program(
        "/bin/spin",
        r#"
        _start:
        loop:
            jmp loop
        "#,
    );
    let pid = sys.spawn_program(ctl, "/bin/spin", &["spin"]).expect("spawn");
    sys.run_idle(50);
    sys.host_kill(ctl, pid, SIGSEGV).expect("kill");
    let (wpid, status) = sys.host_wait(ctl).expect("wait");
    assert_eq!(wpid, pid);
    assert_eq!(decode_status(status), WaitStatus::Signalled(SIGSEGV, true));
}

#[test]
fn sigkill_terminates_spinner() {
    let (mut sys, ctl) = boot();
    sys.install_program("/bin/spin", "_start:\nloop: jmp loop");
    let pid = sys.spawn_program(ctl, "/bin/spin", &["spin"]).expect("spawn");
    sys.run_idle(10);
    sys.host_kill(ctl, pid, SIGKILL).expect("kill");
    let (_, status) = sys.host_wait(ctl).expect("wait");
    assert_eq!(decode_status(status), WaitStatus::Signalled(SIGKILL, false));
}

#[test]
fn divide_by_zero_faults_to_sigfpe() {
    let (mut sys, ctl) = boot();
    let (_, status) = run_and_wait(
        &mut sys,
        ctl,
        r#"
        _start:
            movi a0, 7
            movi a1, 0
            div  a2, a0, a1
            movi rv, 1
            movi a0, 0
            syscall
        "#,
    );
    assert_eq!(decode_status(status), WaitStatus::Signalled(ksim::signal::SIGFPE, true));
}

#[test]
fn unmapped_access_faults_to_sigsegv() {
    let (mut sys, ctl) = boot();
    let (_, status) = run_and_wait(
        &mut sys,
        ctl,
        r#"
        _start:
            movi a0, 0x10
            ld   a1, [a0]
        "#,
    );
    assert_eq!(decode_status(status), WaitStatus::Signalled(SIGSEGV, true));
}

#[test]
fn write_to_text_faults() {
    let (mut sys, ctl) = boot();
    let (_, status) = run_and_wait(
        &mut sys,
        ctl,
        r#"
        _start:
            la   a0, _start
            st   a0, [a0]       ; text is read/exec: protection fault
        "#,
    );
    // FLTACCESS delivers SIGBUS.
    assert_eq!(decode_status(status), WaitStatus::Signalled(ksim::signal::SIGBUS, true));
}

#[test]
fn stack_grows_transparently() {
    let (mut sys, ctl) = boot();
    let (_, status) = run_and_wait(
        &mut sys,
        ctl,
        r#"
        ; Touch memory well below the initial stack: the grows-down
        ; mapping extends silently.
        _start:
            movi a0, 100000
            sub  a1, sp, a0
            movi a2, 123
            st   a2, [a1]
            ld   a3, [a1]
            movi rv, 1
            mov  a0, a3
            syscall
        "#,
    );
    assert_eq!(decode_status(status), WaitStatus::Exited(123));
}

#[test]
fn brk_extends_heap() {
    let (mut sys, ctl) = boot();
    let (_, status) = run_and_wait(
        &mut sys,
        ctl,
        r#"
        _start:
            movi rv, 17          ; brk(0) — returns current end
            movi a0, 0
            syscall
            mov  a3, rv          ; old end
            addi a0, a3, 65536
            movi rv, 17          ; brk(old + 64K)
            syscall
            st   a3, [a3]        ; store at the old end (now mapped)
            ld   a4, [a3]
            movi rv, 1
            movi a0, 9
            syscall
        "#,
    );
    assert_eq!(decode_status(status), WaitStatus::Exited(9));
}

#[test]
fn alarm_delivers_sigalrm() {
    let (mut sys, ctl) = boot();
    let (_, status) = run_and_wait(
        &mut sys,
        ctl,
        r#"
        ; alarm(1) then pause(): SIGALRM terminates the process.
        _start:
            movi rv, 27         ; alarm(1)
            movi a0, 1
            syscall
            movi rv, 29         ; pause
            syscall
        "#,
    );
    assert_eq!(decode_status(status), WaitStatus::Signalled(ksim::signal::SIGALRM, false));
}

#[test]
fn exec_replaces_image() {
    let (mut sys, ctl) = boot();
    sys.install_program(
        "/bin/second",
        r#"
        _start:
            movi rv, 1
            movi a0, 33
            syscall
        "#,
    );
    let (_, status) = run_and_wait(
        &mut sys,
        ctl,
        r#"
        _start:
            movi rv, 11         ; exec("/bin/second", 0)
            la   a0, path
            movi a1, 0
            syscall
            ; not reached
            movi rv, 1
            movi a0, 1
            syscall
        .data
        path: .asciz "/bin/second"
        "#,
    );
    assert_eq!(decode_status(status), WaitStatus::Exited(33));
}

#[test]
fn argv_reaches_program() {
    let (mut sys, ctl) = boot();
    sys.install_program(
        "/bin/argc",
        r#"
        ; exit(argc + first byte of argv[1])
        _start:
            ld   a2, [a1+8]     ; argv[1]
            ldb  a3, [a2]
            add  a0, a0, a3
            movi rv, 1
            syscall
        "#,
    );
    let pid = sys.spawn_program(ctl, "/bin/argc", &["argc", "A"]).expect("spawn");
    let _ = pid;
    let (_, status) = sys.host_wait(ctl).expect("wait");
    assert_eq!(decode_status(status), WaitStatus::Exited(2 + b'A'));
}

#[test]
fn sigpipe_on_write_to_closed_pipe() {
    let (mut sys, ctl) = boot();
    let (_, status) = run_and_wait(
        &mut sys,
        ctl,
        r#"
        _start:
            movi rv, 42         ; pipe
            la   a0, fds
            syscall
            la   a0, fds
            ld   a0, [a0]       ; rfd
            movi rv, 6          ; close(rfd)
            syscall
            la   a0, fds
            ld   a0, [a0+8]     ; wfd
            movi rv, 4          ; write(wfd, msg, 1)
            la   a1, msg
            movi a2, 1
            syscall
        hang:
            jmp hang
        .data
        .align 8
        fds: .space 16
        msg: .asciz "x"
        "#,
    );
    assert_eq!(decode_status(status), WaitStatus::Signalled(SIGPIPE, false));
}

#[test]
fn nanosleep_wakes_on_deadline() {
    let (mut sys, ctl) = boot();
    let (_, status) = run_and_wait(
        &mut sys,
        ctl,
        r#"
        _start:
            movi rv, 69          ; nanosleep(5000 ticks)
            movi a0, 5000
            syscall
            movi rv, 1
            movi a0, 0
            syscall
        "#,
    );
    assert_eq!(decode_status(status), WaitStatus::Exited(0));
}

#[test]
fn threads_share_memory() {
    let (mut sys, ctl) = boot();
    let (_, status) = run_and_wait(
        &mut sys,
        ctl,
        r#"
        ; Create a second LWP that stores 11 to a cell; main LWP spins
        ; until it sees the store, then exits with the value.
        _start:
            movi rv, 73          ; thr_create(pc, sp, arg)
            la   a0, side
            addi a1, sp, -4096   ; carve a second stack below ours
            movi a2, 11
            syscall
        waitloop:
            la   a3, cell
            ld   a4, [a3]
            beq  a4, zero, waitloop
            movi rv, 1
            mov  a0, a4
            syscall
        side:
            la   a1, cell
            st   a0, [a1]
            movi rv, 74          ; thr_exit
            syscall
        .data
        .align 8
        cell: .word 0
        "#,
    );
    assert_eq!(decode_status(status), WaitStatus::Exited(11));
}

#[test]
fn ptrace_traced_child_stops_on_signal() {
    let (mut sys, ctl) = boot();
    sys.install_program("/bin/spin", "_start:\nloop: jmp loop");
    let pid = sys.spawn_program(ctl, "/bin/spin", &["spin"]).expect("spawn");
    sys.host_ptrace_traceme(pid).expect("traceme");
    sys.run_idle(10);
    sys.host_kill(ctl, pid, SIGINT).expect("kill");
    // The child stops rather than dying; the parent sees it via wait.
    let (wpid, status) = sys.host_wait(ctl).expect("wait");
    assert_eq!(wpid, pid);
    assert_eq!(decode_status(status), WaitStatus::Stopped(SIGINT));
    // Continue clearing the signal; then kill for real with SIGKILL.
    sys.host_ptrace(ctl, ksim::ptrace::PT_CONT, pid, 1, 0).expect("cont");
    sys.run_idle(10);
    sys.host_kill(ctl, pid, SIGKILL).expect("kill");
    let (_, status) = sys.host_wait(ctl).expect("wait");
    assert_eq!(decode_status(status), WaitStatus::Signalled(SIGKILL, false));
}

#[test]
fn vfork_blocks_parent_until_child_exits() {
    let (mut sys, ctl) = boot();
    let (_, status) = run_and_wait(
        &mut sys,
        ctl,
        r#"
        _start:
            movi rv, 62         ; vfork
            syscall
            beq  rv, zero, child
            movi rv, 7          ; wait(0) — reap the child
            movi a0, 0
            syscall
            movi rv, 1
            movi a0, 21
            syscall
        child:
            movi rv, 1
            movi a0, 4
            syscall
        "#,
    );
    assert_eq!(decode_status(status), WaitStatus::Exited(21));
}

#[test]
fn shared_mmap_between_processes() {
    let (mut sys, ctl) = boot();
    let (_, status) = run_and_wait(
        &mut sys,
        ctl,
        r#"
        ; Map a shared anonymous region, fork; the child writes 17 into
        ; it, the parent reads it back after wait.
        _start:
            movi rv, 70         ; mmap(0, 4096, RW(3), SHARED|ANON(3), -1, 0)
            movi a0, 0
            movi a1, 4096
            movi a2, 3
            movi a3, 3
            movi a4, -1
            movi a5, 0
            syscall
            mov  a3, rv         ; base — preserved across fork in child too
            movi rv, 2          ; fork
            syscall
            beq  rv, zero, child
            movi rv, 7          ; wait(0)
            movi a0, 0
            syscall
            ld   a0, [a3]
            movi rv, 1          ; exit(*base)
            syscall
        child:
            movi a4, 17
            st   a4, [a3]
            movi rv, 1
            movi a0, 0
            syscall
        "#,
    );
    assert_eq!(decode_status(status), WaitStatus::Exited(17));
}

#[test]
fn time_and_getdents_work() {
    let (mut sys, ctl) = boot();
    sys.memfs_mut().install("/docs/a", 0o644, 0, 0, vec![]);
    sys.memfs_mut().install("/docs/b", 0o644, 0, 0, vec![]);
    let entries = sys.list_dir(ctl, "/docs").expect("list");
    assert_eq!(entries.len(), 2);
    let (_, status) = run_and_wait(
        &mut sys,
        ctl,
        r#"
        ; getdents on /docs, exit with the returned byte count
        _start:
            movi rv, 5          ; open("/docs", O_RDONLY)
            la   a0, path
            movi a1, 0
            syscall
            mov  a0, rv
            movi rv, 63         ; getdents(fd, buf, 256)
            la   a1, buf
            movi a2, 256
            syscall
            mov  a0, rv
            movi rv, 1
            syscall
        .data
        path: .asciz "/docs"
        .align 8
        buf: .space 256
        "#,
    );
    // Two entries, each 8+2+1 bytes.
    assert_eq!(decode_status(status), WaitStatus::Exited(22));
}

#[test]
fn hosted_deadlock_detected() {
    let (mut sys, ctl) = boot();
    // Reading from an empty pipe we hold both ends of... close the write
    // end first so it is a clean EOF; instead wait with no children.
    let err = sys.host_wait(ctl).expect_err("no children");
    assert_eq!(err, ksim::Errno::ECHILD);
}

#[test]
fn core_dump_written_on_fatal_signal() {
    let (mut sys, ctl) = boot();
    // A writable /tmp is required for cores, as in the classic system.
    let tmp = sys.memfs_mut().mkdir_p(&["tmp"]);
    sys.memfs_mut().set_mode(tmp, 0o777);
    let (pid, status) = run_and_wait(
        &mut sys,
        ctl,
        r#"
        _start:
            movi a0, 1
            movi a1, 0
            div  a2, a0, a1     ; FLTIZDIV -> SIGFPE -> core
        "#,
    );
    assert_eq!(decode_status(status), WaitStatus::Signalled(ksim::signal::SIGFPE, true));
    // The core file exists and parses.
    let path = format!("/tmp/core.{}", pid.0);
    let meta = sys.stat_path(ctl, &path).expect("core exists");
    assert!(meta.size > 0);
    let fd = sys.host_open(ctl, &path, OFlags::rdonly()).expect("open core");
    let mut image = vec![0u8; meta.size as usize];
    let mut off = 0;
    while off < image.len() {
        let n = sys.host_read(ctl, fd, &mut image[off..]).expect("read");
        if n == 0 {
            break;
        }
        off += n;
    }
    let core = ksim::corefile::Core::from_bytes(&image).expect("parses");
    assert_eq!(core.pid, pid.0);
    assert_eq!(core.sig as usize, ksim::signal::SIGFPE);
    // The PC points at the faulting divide (third instruction).
    assert_eq!(core.gregs.pc, ksim::aout::TEXT_BASE + 2 * 8);
    assert!(core.maps.iter().any(|m| m.name == "stack"));
    assert!(!core.stack.is_empty(), "stack snapshot captured");
}

#[test]
fn no_core_without_writable_tmp() {
    let (mut sys, ctl) = boot();
    // No /tmp at all: death by signal still works, silently coreless.
    let (pid, status) =
        run_and_wait(&mut sys, ctl, "_start:\nmovi a0, 1\nmovi a1, 0\ndiv a2, a0, a1");
    assert_eq!(decode_status(status), WaitStatus::Signalled(ksim::signal::SIGFPE, true));
    assert!(sys.stat_path(ctl, &format!("/tmp/core.{}", pid.0)).is_err());
}

#[test]
fn sigsuspend_swaps_mask_and_restores() {
    let (mut sys, ctl) = boot();
    let (_, status) = run_and_wait(
        &mut sys,
        ctl,
        r#"
        ; Block SIGUSR1, then sigsuspend with an empty mask: a pending
        ; SIGUSR1 must be delivered during the suspend, and the handler's
        ; count proves it ran exactly once.
        _start:
            movi rv, 48         ; sigaction(SIGUSR1, handler, 0)
            movi a0, 16
            la   a1, handler
            movi a2, 0
            syscall
            movi rv, 66         ; sigprocmask(BLOCK, &usr1, 0)
            movi a0, 0
            la   a1, usr1set
            movi a2, 0
            syscall
            movi rv, 20         ; getpid
            syscall
            mov  a0, rv
            movi rv, 37         ; kill(self, SIGUSR1) — stays pending
            movi a1, 16
            syscall
            la   a0, count
            ld   a3, [a0]
            bne  a3, zero, fail ; must NOT have run yet (blocked)
            movi rv, 67         ; sigsuspend(&empty) — unblocks + waits
            la   a0, emptyset
            syscall
            la   a0, count
            ld   a3, [a0]
            movi a4, 1
            bne  a3, a4, fail
            ; after sigsuspend returns, the old mask (USR1 blocked) is
            ; back: a second kill stays pending again.
            movi rv, 20
            syscall
            mov  a0, rv
            movi rv, 37
            movi a1, 16
            syscall
            la   a0, count
            ld   a3, [a0]
            movi a4, 1
            bne  a3, a4, fail
            movi rv, 1
            movi a0, 0
            syscall
        fail:
            movi rv, 1
            movi a0, 1
            syscall
        handler:
            la   a1, count
            ld   a2, [a1]
            addi a2, a2, 1
            st   a2, [a1]
            ret
        .data
        .align 8
        usr1set:  .word 0x10000     ; bit 16
        .word 0
        emptyset: .word 0
        .word 0
        count:    .word 0
        "#,
    );
    assert_eq!(decode_status(status), WaitStatus::Exited(0));
}

#[test]
fn dup_shares_file_offset() {
    let (mut sys, ctl) = boot();
    sys.memfs_mut().install("/data", 0o644, 0, 0, b"abcdef".to_vec());
    let (_, status) = run_and_wait(
        &mut sys,
        ctl,
        r#"
        _start:
            movi rv, 5          ; open("/data", RDONLY)
            la   a0, path
            movi a1, 0
            syscall
            mov  a3, rv
            movi rv, 41         ; dup(fd)
            mov  a0, a3
            syscall
            mov  a4, rv
            ; read 2 bytes via fd, then 1 byte via the dup: offsets share.
            movi rv, 3
            mov  a0, a3
            la   a1, buf
            movi a2, 2
            syscall
            movi rv, 3
            mov  a0, a4
            la   a1, buf
            movi a2, 1
            syscall
            la   a1, buf
            ldb  a0, [a1]       ; must be 'c'
            movi rv, 1
            syscall
        .data
        path: .asciz "/data"
        .align 8
        buf:  .space 8
        "#,
    );
    assert_eq!(decode_status(status), WaitStatus::Exited(b'c'));
}

#[test]
fn alarm_cancel_returns_remaining_and_stops_signal() {
    let (mut sys, ctl) = boot();
    let (_, status) = run_and_wait(
        &mut sys,
        ctl,
        r#"
        _start:
            movi rv, 27         ; alarm(5)
            movi a0, 5
            syscall
            movi rv, 27         ; alarm(0) — cancel; returns remaining >0
            movi a0, 0
            syscall
            beq  rv, zero, fail
            movi rv, 69         ; sleep past where the alarm would fire
            movi a0, 80000
            syscall
            movi rv, 1          ; survived: no SIGALRM
            movi a0, 0
            syscall
        fail:
            movi rv, 1
            movi a0, 1
            syscall
        "#,
    );
    assert_eq!(decode_status(status), WaitStatus::Exited(0));
}

#[test]
fn getdents_paginates_with_small_buffer() {
    let (mut sys, ctl) = boot();
    for name in ["alpha", "beta", "gamma", "delta"] {
        sys.memfs_mut().install(&format!("/d/{name}"), 0o644, 0, 0, vec![]);
    }
    let (_, status) = run_and_wait(
        &mut sys,
        ctl,
        r#"
        ; Read /d with a buffer sized for ~2 entries at a time; count
        ; total entries seen across calls; exit with the count.
        _start:
            movi rv, 5          ; open("/d", RDONLY)
            la   a0, path
            movi a1, 0
            syscall
            mov  a3, rv         ; fd
            movi a5, 0          ; entries seen
        again:
            movi rv, 63         ; getdents(fd, buf, 32)
            mov  a0, a3
            la   a1, buf
            movi a2, 32
            syscall
            beq  rv, zero, done
            ; each record is 8 + 2 + namelen; count records in rv bytes
            mov  a4, rv         ; bytes
            la   a1, buf
        scan:
            beq  a4, zero, again
            addi a5, a5, 1
            ldb  a2, [a1+8]     ; namelen low byte
            addi a2, a2, 10     ; record length
            add  a1, a1, a2
            sub  a4, a4, a2
            jmp  scan
        done:
            mov  a0, a5
            movi rv, 1
            syscall
        .data
        path: .asciz "/d"
        .align 8
        buf:  .space 64
        "#,
    );
    assert_eq!(decode_status(status), WaitStatus::Exited(4));
}
