//! End-to-end tests of the proposed hierarchical `/proc` (`/proc2`):
//! status by `read(2)`, control by structured messages written to `ctl`,
//! batching, per-LWP subdirectories — and equivalence with the flat
//! interface.

use ksim::signal::SIGUSR1;
use ksim::{Cred, Pid, SigSet, System};
use procfs::hier::*;
use procfs::{boot_with_proc, PrRun, PrStatus, PrWhy, PsInfo, PRRUN_CSIG};
use vfs::{Errno, OFlags};

fn setup(src: &str) -> (System, Pid, Pid) {
    let mut sys = boot_with_proc();
    let ctl = sys.spawn_hosted("ctl", Cred::new(100, 10));
    sys.install_program("/bin/target", src);
    let target = sys.spawn_program(ctl, "/bin/target", &["target"]).expect("spawn");
    (sys, ctl, target)
}

const SPIN: &str = "_start:\nloop: jmp loop";

fn read_file(sys: &mut System, ctl: Pid, path: &str) -> Vec<u8> {
    let fd = sys.host_open(ctl, path, OFlags::rdonly()).expect("open");
    let mut out = Vec::new();
    let mut buf = [0u8; 256];
    loop {
        let n = sys.host_read(ctl, fd, &mut buf).expect("read");
        if n == 0 {
            break;
        }
        out.extend_from_slice(&buf[..n]);
    }
    sys.host_close(ctl, fd).expect("close");
    out
}

#[test]
fn hierarchy_layout() {
    let (mut sys, ctl, target) = setup(SPIN);
    let roots = sys.list_dir(ctl, "/proc2").expect("list /proc2");
    let names: Vec<&str> = roots.iter().map(|e| e.name.as_str()).collect();
    assert!(names.contains(&target.0.to_string().as_str()), "{names:?}");
    let dir = format!("/proc2/{}", target.0);
    let files = sys.list_dir(ctl, &dir).expect("list pid dir");
    let names: Vec<&str> = files.iter().map(|e| e.name.as_str()).collect();
    for want in ["status", "psinfo", "ctl", "as", "map", "cred", "usage", "lwp"] {
        assert!(names.contains(&want), "missing {want}: {names:?}");
    }
    let lwps = sys.list_dir(ctl, &format!("{dir}/lwp")).expect("list lwp");
    assert_eq!(lwps.len(), 1);
    assert_eq!(lwps[0].name, "1");
    let lfiles = sys.list_dir(ctl, &format!("{dir}/lwp/1")).expect("list lwp/1");
    let names: Vec<&str> = lfiles.iter().map(|e| e.name.as_str()).collect();
    assert_eq!(names, ["status", "ctl", "gregs"]);
}

#[test]
fn status_read_matches_flat_ioctl() {
    let (mut sys, ctl, target) = setup(SPIN);
    // Flat ioctl status.
    let flat_fd =
        sys.host_open(ctl, &format!("/proc/{:05}", target.0), OFlags::rdonly()).expect("flat open");
    let flat = sys.host_ioctl(ctl, flat_fd, procfs::ioctl::PIOCSTATUS, &[]).expect("PIOCSTATUS");
    // Hierarchical read.
    let hier = read_file(&mut sys, ctl, &format!("/proc2/{}/status", target.0));
    assert_eq!(flat, hier, "identical byte images through both interfaces");
    let st = PrStatus::from_bytes(&hier).expect("decodes");
    assert_eq!(st.pid, target.0);
}

#[test]
fn psinfo_and_cred_readable() {
    let (mut sys, ctl, target) = setup(SPIN);
    let info =
        PsInfo::from_bytes(&read_file(&mut sys, ctl, &format!("/proc2/{}/psinfo", target.0)))
            .expect("psinfo");
    assert_eq!(info.pid, target.0);
    assert_eq!(info.fname, "target");
    let cred =
        procfs::PrCred::from_bytes(&read_file(&mut sys, ctl, &format!("/proc2/{}/cred", target.0)))
            .expect("cred");
    assert_eq!(cred.ruid, 100);
    assert_eq!(cred.rgid, 10);
}

#[test]
fn ctl_stop_and_run() {
    let (mut sys, ctl, target) = setup(SPIN);
    let cfd = sys
        .host_open(ctl, &format!("/proc2/{}/ctl", target.0), OFlags::wronly())
        .expect("open ctl");
    // PCSTOP blocks until stopped.
    let msg = ctl_record(PCSTOP, &[]);
    assert_eq!(sys.host_write(ctl, cfd, &msg).expect("write PCSTOP"), msg.len());
    let st =
        PrStatus::from_bytes(&read_file(&mut sys, ctl, &format!("/proc2/{}/status", target.0)))
            .expect("status");
    assert_ne!(st.flags & procfs::PR_STOPPED, 0);
    assert_eq!(st.why, PrWhy::Requested);
    // PCRUN resumes.
    let msg = ctl_record(PCRUN, &PrRun::default().to_bytes());
    sys.host_write(ctl, cfd, &msg).expect("write PCRUN");
    sys.run_idle(5);
    let st =
        PrStatus::from_bytes(&read_file(&mut sys, ctl, &format!("/proc2/{}/status", target.0)))
            .expect("status");
    assert_eq!(st.flags & procfs::PR_STOPPED, 0);
}

#[test]
fn batched_control_operations_in_one_write() {
    // "The use of a control file ... makes it possible to combine
    // several control operations in a single write system call."
    let (mut sys, ctl, target) = setup(SPIN);
    let cfd = sys
        .host_open(ctl, &format!("/proc2/{}/ctl", target.0), OFlags::wronly())
        .expect("open ctl");
    let mut sigs = SigSet::empty();
    sigs.add(SIGUSR1);
    let batch = ctl_batch(&[
        (PCSTRACE, sigs.to_bytes()),
        (PCSFORK, vec![]),
        (PCKILL, (SIGUSR1 as u32).to_le_bytes().to_vec()),
        (PCWSTOP, vec![]),
    ]);
    // One write: set tracing, set inherit-on-fork, post the signal, wait
    // for the resulting stop.
    assert_eq!(sys.host_write(ctl, cfd, &batch).expect("batched write"), batch.len());
    let st =
        PrStatus::from_bytes(&read_file(&mut sys, ctl, &format!("/proc2/{}/status", target.0)))
            .expect("status");
    assert_eq!(st.why, PrWhy::Signalled);
    assert_eq!(st.what as usize, SIGUSR1);
    assert_ne!(st.flags & procfs::PR_FORK, 0, "inherit-on-fork applied in the same write");
    // Resume, clearing the signal, again in one write.
    let batch = ctl_batch(&[(PCRUN, PrRun { flags: PRRUN_CSIG, vaddr: 0 }.to_bytes())]);
    sys.host_write(ctl, cfd, &batch).expect("resume");
    sys.run_idle(20);
    assert!(!sys.kernel.proc(target).expect("alive").zombie);
}

#[test]
fn as_file_reads_and_writes_address_space() {
    let src = r#"
        _start:
        loop: jmp loop
        .data
        cell: .asciz "WXYZ"
    "#;
    let (mut sys, ctl, target) = setup(src);
    let aout = ksim::aout::build_aout(src).expect("asm");
    let cell = aout.sym("cell").expect("cell");
    let fd =
        sys.host_open(ctl, &format!("/proc2/{}/as", target.0), OFlags::rdwr()).expect("open as");
    sys.host_lseek(ctl, fd, cell as i64, 0).expect("lseek");
    let mut buf = [0u8; 4];
    assert_eq!(sys.host_read(ctl, fd, &mut buf).expect("read"), 4);
    assert_eq!(&buf, b"WXYZ");
    sys.host_lseek(ctl, fd, cell as i64, 0).expect("lseek");
    sys.host_write(ctl, fd, b"ab").expect("write");
    sys.host_lseek(ctl, fd, cell as i64, 0).expect("lseek");
    sys.host_read(ctl, fd, &mut buf).expect("read");
    assert_eq!(&buf, b"abYZ");
    // Unmapped offsets fail as in the flat interface.
    sys.host_lseek(ctl, fd, 0x10, 0).expect("lseek");
    assert_eq!(sys.host_read(ctl, fd, &mut buf), Err(Errno::EIO));
}

#[test]
fn ctl_file_is_write_only_and_no_ioctl_anywhere() {
    let (mut sys, ctl, target) = setup(SPIN);
    // Opening ctl read-only is refused.
    assert_eq!(
        sys.host_open(ctl, &format!("/proc2/{}/ctl", target.0), OFlags::rdonly()),
        Err(Errno::EACCES)
    );
    // So is opening it read-write: every read on such a descriptor
    // would fail, so the open itself must.
    for path in [format!("/proc2/{}/ctl", target.0), format!("/proc2/{}/lwp/1/ctl", target.0)] {
        assert_eq!(sys.host_open(ctl, &path, OFlags::rdwr()), Err(Errno::EACCES), "{path}");
    }
    // Status files cannot be opened for writing.
    assert_eq!(
        sys.host_open(ctl, &format!("/proc2/{}/status", target.0), OFlags::rdwr()),
        Err(Errno::EACCES)
    );
    // ioctl is gone entirely — the point of the restructuring.
    let fd =
        sys.host_open(ctl, &format!("/proc2/{}/status", target.0), OFlags::rdonly()).expect("open");
    assert_eq!(sys.host_ioctl(ctl, fd, procfs::ioctl::PIOCSTATUS, &[]), Err(Errno::ENOTTY));
}

#[test]
fn directories_refuse_write_opens_with_eisdir() {
    let (mut sys, ctl, target) = setup(SPIN);
    let dir = format!("/proc2/{}", target.0);
    // Every /proc2 directory answers like the flat root does.
    for path in ["/proc2", dir.as_str(), &format!("{dir}/lwp"), &format!("{dir}/lwp/1"), "/proc"] {
        for flags in [OFlags::rdwr(), OFlags::wronly()] {
            assert_eq!(sys.host_open(ctl, path, flags), Err(Errno::EISDIR), "{path}");
        }
        let fd = sys.host_open(ctl, path, OFlags::rdonly()).expect("read-only open");
        sys.host_close(ctl, fd).expect("close");
    }
}

#[test]
fn lwp_subdirectories_expose_threads() {
    // A target that creates a second LWP spinning separately.
    let src = r#"
        _start:
            movi rv, 73          ; thr_create
            la   a0, side
            addi a1, sp, -8192
            movi a2, 0
            syscall
        mainloop:
            jmp mainloop
        side:
            jmp side
    "#;
    let (mut sys, ctl, target) = setup(src);
    sys.run_until(10_000, |s| s.kernel.proc(target).map(|p| p.lwps.len() == 2).unwrap_or(false));
    sys.run_idle(10);
    let lwps = sys.list_dir(ctl, &format!("/proc2/{}/lwp", target.0)).expect("lwp dir");
    let names: Vec<&str> = lwps.iter().map(|e| e.name.as_str()).collect();
    assert_eq!(names, ["1", "2"]);
    // Stop only LWP 2 via its private ctl file.
    let cfd = sys
        .host_open(ctl, &format!("/proc2/{}/lwp/2/ctl", target.0), OFlags::wronly())
        .expect("open lwp ctl");
    let msg = ctl_record(PCSTOP, &[]);
    sys.host_write(ctl, cfd, &msg).expect("stop lwp 2");
    let st2 = PrStatus::from_bytes(&read_file(
        &mut sys,
        ctl,
        &format!("/proc2/{}/lwp/2/status", target.0),
    ))
    .expect("lwp2 status");
    assert_ne!(st2.flags & procfs::PR_STOPPED, 0);
    assert_eq!(st2.who, 2);
    let st1 = PrStatus::from_bytes(&read_file(
        &mut sys,
        ctl,
        &format!("/proc2/{}/lwp/1/status", target.0),
    ))
    .expect("lwp1 status");
    assert_eq!(st1.flags & procfs::PR_STOPPED, 0, "LWP 1 keeps running");
    assert_eq!(st1.who, 1);
    // Each LWP's registers are separately readable.
    let g2 = isa::GregSet::from_bytes(&read_file(
        &mut sys,
        ctl,
        &format!("/proc2/{}/lwp/2/gregs", target.0),
    ))
    .expect("gregs");
    let g1 = isa::GregSet::from_bytes(&read_file(
        &mut sys,
        ctl,
        &format!("/proc2/{}/lwp/1/gregs", target.0),
    ))
    .expect("gregs");
    assert_ne!(g1.pc, g2.pc, "distinct threads of control");
    // Resume LWP 2.
    let msg = ctl_record(PCRUN, &[]);
    sys.host_write(ctl, cfd, &msg).expect("run lwp 2");
}

#[test]
fn security_rules_match_flat_interface() {
    let (mut sys, _ctl, target) = setup(SPIN);
    let other = sys.spawn_hosted("other", Cred::new(200, 20));
    assert_eq!(
        sys.host_open(other, &format!("/proc2/{}/status", target.0), OFlags::rdonly()),
        Err(Errno::EACCES)
    );
    let root = sys.spawn_hosted("rootctl", Cred::superuser());
    let fd = sys
        .host_open(root, &format!("/proc2/{}/status", target.0), OFlags::rdonly())
        .expect("root can");
    sys.host_close(root, fd).expect("close");
}

#[test]
fn map_file_lists_mappings() {
    let (mut sys, ctl, target) = setup(SPIN);
    let bytes = read_file(&mut sys, ctl, &format!("/proc2/{}/map", target.0));
    let maps = procfs::PrMap::decode_list(&bytes);
    assert!(maps.len() >= 4, "text,bss,break,stack at least: {maps:?}");
    assert!(maps.iter().any(|m| m.name == "text"));
    assert!(maps.iter().any(|m| m.name == "stack"));
}

#[test]
fn usage_file_reports_cpu_time() {
    let (mut sys, ctl, target) = setup(SPIN);
    sys.run_idle(50);
    let usage = procfs::PrUsage::from_bytes(&read_file(
        &mut sys,
        ctl,
        &format!("/proc2/{}/usage", target.0),
    ))
    .expect("usage");
    assert!(usage.cpu_ticks > 0, "the spinner consumed CPU");
    assert_eq!(usage.nlwp, 1);
}

#[test]
fn both_generations_coexist() {
    // The same process is controllable through either interface at once
    // (they are views of the same kernel state).
    let (mut sys, ctl, target) = setup(SPIN);
    let flat_fd =
        sys.host_open(ctl, &format!("/proc/{:05}", target.0), OFlags::rdwr()).expect("flat");
    // Stop via flat ioctl, observe via hierarchical read.
    sys.host_ioctl(ctl, flat_fd, procfs::ioctl::PIOCSTOP, &[]).expect("stop");
    let st =
        PrStatus::from_bytes(&read_file(&mut sys, ctl, &format!("/proc2/{}/status", target.0)))
            .expect("status");
    assert_ne!(st.flags & procfs::PR_STOPPED, 0);
    // Resume via hierarchical ctl, observe via flat ioctl.
    let cfd =
        sys.host_open(ctl, &format!("/proc2/{}/ctl", target.0), OFlags::wronly()).expect("ctl");
    sys.host_write(ctl, cfd, &ctl_record(PCRUN, &[])).expect("run");
    sys.run_idle(5);
    let st = PrStatus::from_bytes(
        &sys.host_ioctl(ctl, flat_fd, procfs::ioctl::PIOCSTATUS, &[]).expect("status"),
    )
    .expect("decode");
    assert_eq!(st.flags & procfs::PR_STOPPED, 0);
}

#[test]
fn lwp_registers_settable_through_lwp_ctl() {
    // Stop LWP 2, rewrite one of its registers through its own ctl file
    // (PCSREG), resume it, and watch the thread act on the new value.
    let src = r#"
        _start:
            movi rv, 73          ; thr_create(side, sp-8192, 0)
            la   a0, side
            addi a1, sp, -8192
            movi a2, 0
            syscall
        mainloop:
            jmp mainloop
        side:
            ; spins until a5 becomes 1, then writes a flag and spins on.
        sideloop:
            movi a4, 1
            bne  a5, a4, sideloop
            la   a3, flag
            st   a4, [a3]
        after:
            jmp after
        .data
        .align 8
        flag: .word 0
    "#;
    let (mut sys, ctl, target) = setup(src);
    sys.run_until(10_000, |s| s.kernel.proc(target).map(|p| p.lwps.len() == 2).unwrap_or(false));
    sys.run_idle(20);
    let aout = ksim::aout::build_aout(src).expect("asm");
    let flag = aout.sym("flag").expect("flag");
    // Stop only LWP 2.
    let cfd = sys
        .host_open(ctl, &format!("/proc2/{}/lwp/2/ctl", target.0), OFlags::wronly())
        .expect("open lwp ctl");
    sys.host_write(ctl, cfd, &ctl_record(PCSTOP, &[])).expect("stop lwp 2");
    // Rewrite its a5 so the spin condition passes.
    let mut gregs = isa::GregSet::from_bytes(&read_file(
        &mut sys,
        ctl,
        &format!("/proc2/{}/lwp/2/gregs", target.0),
    ))
    .expect("gregs");
    gregs.set_r(7, 1); // a5 = r7
    sys.host_write(ctl, cfd, &ctl_record(PCSREG, &gregs.to_bytes())).expect("set regs");
    sys.host_write(ctl, cfd, &ctl_record(PCRUN, &[])).expect("run lwp 2");
    // The thread sees the injected register and sets the flag.
    sys.run_until(10_000, |s| {
        let mut b = [0u8; 8];
        s.kernel
            .proc(target)
            .ok()
            .map(|p| {
                p.aspace.kernel_read(&s.kernel.objects, flag, &mut b).is_ok()
                    && u64::from_le_bytes(b) == 1
            })
            .unwrap_or(false)
    });
    let mut b = [0u8; 8];
    sys.kernel
        .proc(target)
        .expect("p")
        .aspace
        .kernel_read(&sys.kernel.objects, flag, &mut b)
        .expect("read");
    assert_eq!(u64::from_le_bytes(b), 1, "LWP 2 acted on the injected register");
    // LWP 1 never stopped.
    let st1 = PrStatus::from_bytes(&read_file(
        &mut sys,
        ctl,
        &format!("/proc2/{}/lwp/1/status", target.0),
    ))
    .expect("status");
    assert_eq!(st1.flags & procfs::PR_STOPPED, 0);
}

#[test]
fn ctl_progress_survives_partial_blocking_batch() {
    // A batch whose middle record blocks (PCWSTOP): the earlier records
    // must apply exactly once even though the write retries.
    let (mut sys, ctl, target) = setup(SPIN);
    let cfd = sys
        .host_open(ctl, &format!("/proc2/{}/ctl", target.0), OFlags::wronly())
        .expect("open ctl");
    // PCNICE(+3), PCDSTOP, PCWSTOP, PCNICE(+3): if the prefix re-ran on
    // retry, nice would overshoot.
    let batch = ctl_batch(&[
        (procfs::hier::PCNICE, 3u32.to_le_bytes().to_vec()),
        (procfs::hier::PCDSTOP, vec![]),
        (PCWSTOP, vec![]),
        (procfs::hier::PCNICE, 3u32.to_le_bytes().to_vec()),
    ]);
    sys.host_write(ctl, cfd, &batch).expect("batched write");
    assert_eq!(sys.kernel.proc(target).expect("p").nice, 6, "each PCNICE applied once");
    assert!(sys.kernel.proc(target).expect("p").is_stopped());
}
