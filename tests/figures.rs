//! The paper's figures and claims E1–E10 as golden transcripts.
//!
//! Each module below boots the simulated kernel, drives one scenario
//! end to end, and writes what it observed into a transcript. The test
//! prints the transcript and checks it byte for byte against
//! `tests/figures/<module>.txt`. Every scenario is seeded and runs on
//! the virtual clock, so the transcripts are the same in every build
//! profile and on every host. Regenerate them all with
//! `cargo test -q --test figures -- --nocapture`; to change a figure on
//! purpose, edit its golden file in the same commit.

use bench_support::boot_with_ctl;
use ksim::{Cred, Pid, System};
use std::fmt::{self, Write};

/// Runs `demo` into a fresh transcript, prints it, and checks it
/// against its golden file.
fn check(demo: fn(&mut String) -> fmt::Result, golden: &str) {
    let mut out = String::new();
    demo(&mut out).expect("writing to a String cannot fail");
    print!("{out}");
    assert_eq!(out, golden, "transcript differs from its golden file under tests/figures/");
}

/// Writes the standard banner naming the regenerated artifact.
fn banner(out: &mut String, id: &str, title: &str) -> fmt::Result {
    writeln!(out, "================================================================")?;
    writeln!(out, "{id}: {title}")?;
    writeln!(out, "================================================================")
}

/// Boots with a super-user controller (`ps`/`ls` style tools).
fn boot_with_root() -> (System, Pid) {
    let mut sys = procfs::boot_with_proc();
    tools::install_userland(&mut sys);
    let ctl = sys.spawn_hosted("bench-root", Cred::superuser());
    (sys, ctl)
}

mod fig1_ls_proc {
    //! FIG1 — the paper's Figure 1, `ls -l /proc`: a directory of
    //! process files named by pid, owned by the real uid/gid, sized by
    //! total virtual memory, with system processes at size zero.

    use super::*;
    use tools::lsproc::ls_l_proc;
    use tools::UserTable;

    #[test]
    fn transcript() {
        check(figure, include_str!("figures/fig1_ls_proc.txt"));
    }

    fn figure(out: &mut String) -> fmt::Result {
        banner(out, "FIG1", "ls -l /proc (paper Figure 1)")?;
        let (mut sys, root) = boot_with_root();
        // Recreate the figure's population: system processes (0, 1, 2 — our
        // pid 2 is the hosted root controller standing in for pageout) plus
        // user processes owned by different users, as in the paper.
        let rrg = sys.spawn_hosted("rrg-shell", Cred::new(101, 10));
        let weath = sys.spawn_hosted("weath-shell", Cred::new(102, 10));
        let raf = sys.spawn_hosted("raf-shell", Cred::new(103, 10));
        sys.spawn_program(rrg, "/bin/spin", &["spin"]).expect("spawn");
        sys.spawn_program(weath, "/bin/sleeper", &["sleeper"]).expect("spawn");
        sys.spawn_program(raf, "/bin/ticker", &["ticker"]).expect("spawn");
        sys.run_idle(100);
        let mut users = UserTable::default();
        users.add_user(101, "rrg").add_user(102, "weath").add_user(103, "raf");
        write!(out, "{}", ls_l_proc(&mut sys, root, &users).expect("ls"))?;
        writeln!(out)
    }
}

mod fig2_memory_map {
    //! FIG2 — the paper's Figure 2: the memory map returned by
    //! `PIOCMAP` for a process running an a.out linked against a shared
    //! library — private read/exec code mappings and read/write data
    //! mappings for both, plus the named stack and break segments.

    use super::*;
    use tools::pmap::pmap;

    #[test]
    fn transcript() {
        check(figure, include_str!("figures/fig2_memory_map.txt"));
    }

    fn figure(out: &mut String) -> fmt::Result {
        banner(out, "FIG2", "PIOCMAP memory map of a library-linked process (paper Figure 2)")?;
        let (mut sys, ctl) = boot_with_ctl();
        let pid = sys.spawn_program(ctl, "/bin/libuser", &["libuser"]).expect("spawn");
        write!(out, "{}", pmap(&mut sys, ctl, pid).expect("pmap"))?;
        writeln!(
            out,
            "\n(all mappings are MAP_PRIVATE; a controlling process can still\n\
             write the read/exec text through /proc, with copy-on-write)\n"
        )
    }
}

mod fig3_stop_points {
    //! FIG3 — the paper's Figure 3: the points in the kernel at which a
    //! traced process may stop. One target is driven through every stop
    //! point — system call entry, system call exit, machine fault,
    //! signalled stop, requested stop, job-control stop — and the
    //! observed trace is written out.

    use super::*;
    use ksim::fault::FltSet;
    use ksim::signal::{SigSet, SIGCONT, SIGTSTP, SIGUSR1};
    use ksim::sysno::{SysSet, SYS_GETPID};
    use procfs::{PrRun, PrWhy, PRRUN_CFAULT, PRRUN_CSIG};
    use tools::ProcHandle;

    const TARGET: &str = r#"
_start:
loop:
    movi rv, 20        ; getpid — entry and exit stop points
    syscall
    jmp  loop
"#;

    #[test]
    fn transcript() {
        check(figure, include_str!("figures/fig3_stop_points.txt"));
    }

    fn why_name(w: PrWhy) -> &'static str {
        match w {
            PrWhy::Requested => "PR_REQUESTED (stop directive)",
            PrWhy::Signalled => "PR_SIGNALLED (traced signal received)",
            PrWhy::SyscallEntry => "PR_SYSENTRY (system call entry)",
            PrWhy::SyscallExit => "PR_SYSEXIT  (system call exit)",
            PrWhy::Faulted => "PR_FAULTED  (traced machine fault)",
            PrWhy::JobControl => "PR_JOBCONTROL (stop signal default action)",
            PrWhy::Ptrace => "PR_PTRACE   (old-style ptrace)",
            PrWhy::None => "running",
        }
    }

    fn figure(out: &mut String) -> fmt::Result {
        banner(out, "FIG3", "stop points in the kernel (paper Figure 3)")?;
        let (mut sys, ctl) = boot_with_ctl();
        sys.install_program("/bin/fig3", TARGET);
        let pid = sys.spawn_program(ctl, "/bin/fig3", &["fig3"]).expect("spawn");
        let mut h = ProcHandle::open_rw(&mut sys, ctl, pid).expect("open");
        let mut seen = Vec::new();

        // 1. Requested stop.
        let st = h.stop(&mut sys).expect("stop");
        seen.push((st.why, st.what));
        // 2/3. Syscall entry and exit.
        let mut set = SysSet::empty();
        set.add(SYS_GETPID as usize);
        h.set_entry_trace(&mut sys, set).expect("entry");
        h.set_exit_trace(&mut sys, set).expect("exit");
        h.resume(&mut sys).expect("run");
        let st = h.wstop(&mut sys).expect("wstop");
        seen.push((st.why, st.what));
        h.resume(&mut sys).expect("run");
        let st = h.wstop(&mut sys).expect("wstop");
        seen.push((st.why, st.what));
        h.set_entry_trace(&mut sys, SysSet::empty()).expect("entry off");
        h.set_exit_trace(&mut sys, SysSet::empty()).expect("exit off");
        // 4. Machine fault: plant a breakpoint over the loop.
        let aout = h.read_aout(&mut sys).expect("aout");
        let looppc = aout.sym("loop").expect("loop");
        let mut saved = [0u8; 8];
        h.read_mem(&mut sys, looppc, &mut saved).expect("read");
        h.write_mem(&mut sys, looppc, &isa::insn::breakpoint_bytes()).expect("plant");
        let mut flt = FltSet::empty();
        flt.add(ksim::Fault::Bpt.number());
        h.set_flt_trace(&mut sys, flt).expect("fault trace");
        h.resume(&mut sys).expect("run");
        let st = h.wstop(&mut sys).expect("wstop");
        seen.push((st.why, st.what));
        h.write_mem(&mut sys, looppc, &saved).expect("restore");
        // 5. Signalled stop.
        let mut sigs = SigSet::empty();
        sigs.add(SIGUSR1);
        sigs.add(SIGTSTP);
        h.set_sig_trace(&mut sys, sigs).expect("sig trace");
        h.kill(&mut sys, SIGUSR1).expect("kill");
        h.run(&mut sys, PrRun { flags: PRRUN_CFAULT, vaddr: 0 }).expect("run");
        let st = h.wstop(&mut sys).expect("wstop");
        seen.push((st.why, st.what));
        // 6. Job-control stop: run on with SIGTSTP uncleared ("stops twice").
        h.kill(&mut sys, SIGTSTP).expect("tstp");
        h.run(&mut sys, PrRun { flags: PRRUN_CSIG, vaddr: 0 }).expect("run");
        let st = h.wstop(&mut sys).expect("signalled for TSTP");
        seen.push((st.why, st.what));
        h.resume(&mut sys).expect("run without clearing");
        sys.run_idle(10);
        let st = h.status(&mut sys).expect("status");
        seen.push((st.why, st.what));
        let _ = sys.host_kill(ctl, pid, SIGCONT);

        writeln!(out, "observed stop sequence for one process:")?;
        for (i, (why, what)) in seen.iter().enumerate() {
            writeln!(out, "  {}. {:<44} what={}", i + 1, why_name(*why), what)?;
        }
        writeln!(out)
    }
}

mod fig4_issig_logic {
    //! FIG4 — the paper's Figure 4: the complete control logic of
    //! `issig()`. Every branch is driven by a scripted scenario directly
    //! against the kernel, and the decision trace is written out.

    use super::*;
    use ksim::signal::{Handler, SigAction, SigSet, SIGCONT, SIGINT, SIGTSTP};
    use ksim::{Kernel, RunOpts, Tid};

    const T: Tid = Tid(1);

    #[test]
    fn transcript() {
        check(figure, include_str!("figures/fig4_issig_logic.txt"));
    }

    fn fresh() -> (Kernel, Pid) {
        let mut k = Kernel::new();
        let p0 = k.new_proc(Pid(0), Pid(0), Pid(0), Cred::superuser(), "sched", true);
        let pid = k.new_proc(p0, p0, p0, Cred::new(100, 10), "t", false);
        (k, pid)
    }

    fn scenario(
        out: &mut String,
        name: &str,
        steps: impl FnOnce(&mut Kernel, Pid) -> Vec<String>,
    ) -> fmt::Result {
        let (mut k, pid) = fresh();
        writeln!(out, "scenario: {name}")?;
        for line in steps(&mut k, pid) {
            writeln!(out, "    {line}")?;
        }
        Ok(())
    }

    fn figure(out: &mut String) -> fmt::Result {
        banner(out, "FIG4", "issig() control logic branch coverage (paper Figure 4)")?;

        scenario(out, "untraced terminating signal", |k, pid| {
            k.post_signal(pid, SIGINT).expect("post");
            vec![format!("issig -> {:?} (promote, deliver via psig)", k.issig(pid, T))]
        })?;

        scenario(out, "traced signal: signalled stop, then delivery if not cleared", |k, pid| {
            k.proc_mut(pid).expect("p").trace.sig_trace.add(SIGINT);
            k.post_signal(pid, SIGINT).expect("post");
            let mut out = vec![format!("issig -> {:?} (signalled stop)", k.issig(pid, T))];
            k.run_lwp(pid, T, RunOpts::default()).expect("run");
            out.push(format!("resume uncleared; issig -> {:?}", k.issig(pid, T)));
            out
        })?;

        scenario(out, "traced signal cleared by debugger: nothing to do", |k, pid| {
            k.proc_mut(pid).expect("p").trace.sig_trace.add(SIGINT);
            k.post_signal(pid, SIGINT).expect("post");
            let mut out = vec![format!("issig -> {:?}", k.issig(pid, T))];
            k.run_lwp(pid, T, RunOpts { clear_sig: true, ..Default::default() }).expect("run");
            out.push(format!("resume cleared;   issig -> {:?}", k.issig(pid, T)));
            out
        })?;

        scenario(out, "job-control double stop (traced SIGTSTP)", |k, pid| {
            k.proc_mut(pid).expect("p").trace.sig_trace.add(SIGTSTP);
            k.post_signal(pid, SIGTSTP).expect("post");
            let mut out = vec![format!("issig -> {:?} (signalled stop)", k.issig(pid, T))];
            k.run_lwp(pid, T, RunOpts::default()).expect("run");
            out.push(format!(
                "resume uncleared; issig -> {:?} (job-control stop, within issig)",
                k.issig(pid, T)
            ));
            out.push(format!(
                "PIOCRUN on job-control stop -> {:?} (only SIGCONT releases it)",
                k.run_lwp(pid, T, RunOpts::default())
            ));
            k.post_signal(pid, SIGCONT).expect("cont");
            out.push(format!("SIGCONT; issig -> {:?}", k.issig(pid, T)));
            out
        })?;

        scenario(out, "/proc gets the last word after SIGCONT", |k, pid| {
            k.post_signal(pid, SIGTSTP).expect("post");
            let mut out = vec![format!("issig -> {:?} (job-control stop)", k.issig(pid, T))];
            k.direct_stop(pid).expect("dstop");
            k.post_signal(pid, SIGCONT).expect("cont");
            out.push(format!(
                "directive latched; SIGCONT; issig -> {:?} (requested stop before exiting issig)",
                k.issig(pid, T)
            ));
            out
        })?;

        scenario(out, "ptrace competes: /proc first, then ptrace has control", |k, pid| {
            {
                let p = k.proc_mut(pid).expect("p");
                p.ptraced = true;
                p.trace.sig_trace.add(SIGINT);
            }
            k.post_signal(pid, SIGINT).expect("post");
            let mut out = vec![format!("issig -> {:?} (signalled stop first)", k.issig(pid, T))];
            k.run_lwp(pid, T, RunOpts::default()).expect("run via /proc");
            out.push(format!("issig -> {:?} (ptrace stop)", k.issig(pid, T)));
            out.push(format!(
                "PIOCRUN now -> {:?} (\"ptrace has control\")",
                k.run_lwp(pid, T, RunOpts::default())
            ));
            out
        })?;

        scenario(out, "ignored-but-traced signal stops, then evaporates", |k, pid| {
            {
                let p = k.proc_mut(pid).expect("p");
                p.trace.sig_trace.add(SIGINT);
                p.actions
                    .set(SIGINT, SigAction { handler: Handler::Ignore, mask: SigSet::empty() });
            }
            k.post_signal(pid, SIGINT).expect("post");
            let mut out =
                vec![format!("issig -> {:?} (tracing sees ignored signals)", k.issig(pid, T))];
            k.run_lwp(pid, T, RunOpts::default()).expect("run");
            out.push(format!("issig -> {:?} (nothing delivered)", k.issig(pid, T)));
            out
        })?;

        scenario(out, "inside an interruptible sleep", |k, pid| {
            let mut out = Vec::new();
            k.proc_mut(pid).expect("p").lwps[0].stop_directive = true;
            out.push(format!(
                "directive while sleeping: issig_insleep -> {:?} (call undisturbed)",
                k.issig_insleep(pid, T)
            ));
            k.run_lwp(pid, T, RunOpts::default()).expect("run");
            out.push(format!("resumed: issig_insleep -> {:?}", k.issig_insleep(pid, T)));
            k.post_signal(pid, SIGINT).expect("post");
            out.push(format!(
                "real signal: issig_insleep -> {:?} (EINTR)",
                k.issig_insleep(pid, T)
            ));
            out
        })?;
        writeln!(out)
    }
}

mod e1_breakpoints_per_sec {
    //! E1 — "the goal of debugger efficiency ... becomes important in
    //! the implementation of features such as conditional breakpoints,
    //! for which 'breakpoints per second' is a realistic measure of
    //! performance."
    //!
    //! A `/proc` debugger (stop-on-FLTBPT, PIOCWSTOP status with
    //! registers included, single PIOCRUN resume) and a kernel `ptrace`
    //! debugger (SIGTRAP stop via wait, GETREGS, the classic
    //! restore/step/replant dance) field the same breakpoint on the same
    //! tight loop, and the control-interface calls each needs are
    //! counted. Expected shape: /proc fewest, classic ptrace most.

    use super::*;
    use ksim::ptrace::WaitStatus;
    use tools::{Debugger, PtraceDebugger};

    #[test]
    fn transcript() {
        check(counts, include_str!("figures/e1_breakpoints_per_sec.txt"));
    }

    /// One /proc breakpoint round trip: wait for the FLTBPT stop, read
    /// the registers (already in the status), step over and re-arm.
    fn proc_roundtrip(sys: &mut System, dbg: &mut Debugger, tick: u64) {
        match dbg.cont(sys).expect("cont") {
            tools::DebugEvent::Breakpoint { addr, .. } => assert_eq!(addr, tick),
            other => panic!("unexpected {other:?}"),
        }
    }

    /// One kernel-ptrace round trip: continue, wait for SIGTRAP, fetch
    /// regs, restore/step/replant.
    fn ptrace_roundtrip(sys: &mut System, dbg: &mut PtraceDebugger, tick: u64) {
        let st = dbg.step_over_and_cont(sys, tick).expect("dance");
        assert_eq!(st, WaitStatus::Stopped(ksim::signal::SIGTRAP));
        let regs = dbg.regs(sys).expect("regs");
        assert_eq!(regs.pc, tick);
    }

    fn counts(out: &mut String) -> fmt::Result {
        banner(out, "E1", "breakpoints per second: /proc vs ptrace (paper footnote 3)")?;
        // Count the control-interface calls needed to field 100 breakpoints.
        let (mut sys, ctl) = boot_with_ctl();
        let mut dbg = Debugger::launch(&mut sys, ctl, "/bin/ticker", &["ticker"]).expect("launch");
        let tick = dbg.sym("tick").expect("symbol");
        dbg.set_breakpoint(&mut sys, tick).expect("bp");
        let before = dbg.h.calls;
        for _ in 0..100 {
            proc_roundtrip(&mut sys, &mut dbg, tick);
        }
        let proc_calls = dbg.h.calls - before;
        dbg.kill(&mut sys).expect("kill");

        let (mut sys, ctl) = boot_with_ctl();
        let mut pdbg =
            PtraceDebugger::launch(&mut sys, ctl, "/bin/ticker", &["ticker"]).expect("launch");
        let aout = ksim::aout::build_aout(tools::userland::TICKER).expect("asm");
        let tick = aout.sym("tick").expect("symbol");
        pdbg.set_breakpoint(&mut sys, tick).expect("bp");
        let st = pdbg.cont_wait(&mut sys).expect("first hit");
        assert_eq!(st, WaitStatus::Stopped(ksim::signal::SIGTRAP));
        let before = pdbg.calls;
        for _ in 0..100 {
            ptrace_roundtrip(&mut sys, &mut pdbg, tick);
        }
        let ptrace_calls = pdbg.calls - before;
        pdbg.kill(&mut sys).expect("kill");

        writeln!(out, "control-interface calls to field 100 breakpoints")?;
        writeln!(out, "(each fielding inspects the registers, as a conditional breakpoint must):")?;
        writeln!(
            out,
            "  /proc debugger            : {proc_calls:>6}  ({:.1}/bp; registers arrive inside the PIOCWSTOP status)",
            proc_calls as f64 / 100.0
        )?;
        writeln!(
            out,
            "  ptrace + GETREGS extension: {ptrace_calls:>6}  ({:.1}/bp)",
            ptrace_calls as f64 / 100.0
        )?;
        // Classic ptrace had no GETREGS: every register is a PEEKUSER call.
        let classic = ptrace_calls + 100 * (isa::reg::NGREG as u64 + 1);
        writeln!(
            out,
            "  classic ptrace (PEEKUSER) : {classic:>6}  ({:.1}/bp; one call per register)",
            classic as f64 / 100.0
        )?;
        writeln!(out)
    }
}

mod e2_syscall_counts {
    //! E2 — "a primary goal was to remove these dependencies from the
    //! interface; secondary goals were to ease debugger development,
    //! improve portability of applications, and reduce the number of
    //! system calls routinely made by a debugger."
    //!
    //! A canonical debugger step is performed by both interfaces and
    //! the control-interface calls are counted:
    //!
    //!   stop the target, read its full status, read its registers,
    //!   read W words of memory, resume.
    //!
    //! `/proc` answers the status *and* registers in one `PIOCWSTOP`
    //! reply and reads memory in one lseek+read pair; `ptrace` pays one
    //! call per word. Expected shape: `/proc` strictly fewer calls, with
    //! the gap growing linearly in W.

    use super::*;
    use ksim::ptrace::WaitStatus;
    use tools::{ProcHandle, PtraceDebugger};

    #[test]
    fn transcript() {
        check(table, include_str!("figures/e2_syscall_counts.txt"));
    }

    /// The /proc debug step; returns calls used.
    fn proc_step(sys: &mut System, h: &mut ProcHandle, addr: u64, words: usize) -> u64 {
        let before = h.calls;
        let st = h.stop(sys).expect("stop");
        // Status and registers arrive together in the prstatus.
        let _regs = &st.reg;
        let mut buf = vec![0u8; words * 8];
        h.read_mem(sys, addr, &mut buf).expect("read");
        h.resume(sys).expect("run");
        h.calls - before
    }

    /// The ptrace debug step; returns calls used.
    fn ptrace_step(sys: &mut System, dbg: &mut PtraceDebugger, addr: u64, words: usize) -> u64 {
        let before = dbg.calls;
        // Stop via signal + wait.
        dbg.calls += 1;
        sys.host_kill(dbg.ctl, dbg.pid, ksim::signal::SIGINT).expect("kill");
        let st = dbg.wait_stop(sys).expect("wait");
        assert!(matches!(st, WaitStatus::Stopped(_)));
        let _regs = dbg.regs(sys).expect("regs");
        let mut buf = vec![0u8; words * 8];
        dbg.read_mem(sys, addr, &mut buf).expect("read");
        // Resume, discarding the signal.
        dbg.calls += 1;
        sys.host_ptrace(dbg.ctl, ksim::ptrace::PT_CONT, dbg.pid, 1, 0).expect("cont");
        dbg.calls - before
    }

    fn table(out: &mut String) -> fmt::Result {
        banner(out, "E2", "control-interface calls per canonical debug step")?;
        writeln!(out, "step = stop + status + registers + read W words + resume")?;
        writeln!(out)?;
        writeln!(
            out,
            "{:>8} {:>12} {:>12} {:>8}",
            "W words", "/proc calls", "ptrace calls", "ratio"
        )?;
        for words in [1usize, 4, 16, 64, 256] {
            let (mut sys, ctl) = boot_with_ctl();
            let pid = sys.spawn_program(ctl, "/bin/spin", &["spin"]).expect("spawn");
            let mut h = ProcHandle::open_rw(&mut sys, ctl, pid).expect("open");
            let text = ksim::aout::TEXT_BASE;
            let pcalls = proc_step(&mut sys, &mut h, text, words);

            let (mut sys, ctl) = boot_with_ctl();
            let mut dbg =
                PtraceDebugger::launch(&mut sys, ctl, "/bin/spin", &["spin"]).expect("launch");
            // Release the initial trap first.
            sys.host_ptrace(ctl, ksim::ptrace::PT_CONT, dbg.pid, 1, 0).expect("cont");
            sys.run_idle(5);
            let tcalls = ptrace_step(&mut sys, &mut dbg, text, words);
            writeln!(
                out,
                "{:>8} {:>12} {:>12} {:>7.1}x",
                words,
                pcalls,
                tcalls,
                tcalls as f64 / pcalls as f64
            )?;
        }
        writeln!(out)
    }
}

mod e3_ps_snapshot {
    //! E3 — "Because all the information for a process is obtained in a
    //! single operation, each line of ps output is a true snapshot of
    //! the process."
    //!
    //! A full `ps` pass takes one `PIOCPSINFO` per process; a
    //! field-at-a-time gather with the world advancing between the
    //! fields demonstrates the torn-snapshot hazard the single
    //! operation eliminates.

    use super::*;
    use tools::ProcHandle;

    #[test]
    fn transcript() {
        check(demo, include_str!("figures/e3_ps_snapshot.txt"));
    }

    fn demo(out: &mut String) -> fmt::Result {
        banner(out, "E3", "PIOCPSINFO single-operation snapshots")?;
        let (mut sys, root) = boot_with_root();
        let user = sys.spawn_hosted("u", Cred::new(100, 10));
        for _ in 0..5 {
            sys.spawn_program(user, "/bin/spin", &["spin"]).expect("spawn");
        }
        sys.run_idle(100);
        let snaps = tools::ps::ps_snapshots(&mut sys, root).expect("snapshots");
        writeln!(out, "{} processes, one PIOCPSINFO each; fields per line:", snaps.len())?;
        writeln!(out, "  pid ppid uid size rss state time nlwp fname psargs")?;
        // Torn-gather demonstration: a multi-op gather interleaved with the
        // target execing sees fields from two different images; PIOCPSINFO
        // cannot (it is atomic with respect to the target).
        let target = sys.spawn_program(user, "/bin/spin", &["spin"]).expect("spawn");
        let mut h = ProcHandle::open_ro(&mut sys, root, target).expect("open");
        let info_before = h.psinfo(&mut sys).expect("psinfo");
        // Multi-op gather with the world advancing between ops.
        let fname_1 = h.psinfo(&mut sys).expect("a").fname;
        sys.run_idle(50); // the world moves between the "fields"
        let size_2 = h.psinfo(&mut sys).expect("b").size;
        writeln!(
            out,
            "\natomic snapshot: fname={} size={}; torn gather pieces: fname={fname_1} size={size_2}",
            info_before.fname, info_before.size
        )?;
        writeln!(out, "(each PIOCPSINFO reply is internally consistent — the torn gather's")?;
        writeln!(out, " pieces can straddle an exec or exit and disagree)\n")
    }
}

mod e4_ctl_batching {
    //! E4 — "the use of a control file to which structured messages are
    //! written makes it possible to combine several control operations
    //! in a single write system call; this can improve the performance
    //! of some applications for which the number of system calls is a
    //! bottleneck."
    //!
    //! The same debugger resume sequence (set traced signals, set
    //! traced faults, clear the current signal, run) costs four flat
    //! ioctls or one batched hierarchical write;
    //! `batched_control_operations_in_one_write` in
    //! `crates/core/tests/hier_e2e.rs` drives such a batch.

    use super::*;

    #[test]
    fn transcript() {
        check(comparison, include_str!("figures/e4_ctl_batching.txt"));
    }

    fn comparison(out: &mut String) -> fmt::Result {
        banner(out, "E4", "batched control writes vs one ioctl per operation")?;
        writeln!(out, "resume sequence = set sig trace, set fault trace, clear cursig, run")?;
        writeln!(out, "flat interface : 4 ioctl(2) calls")?;
        writeln!(out, "hierarchical   : 1 write(2) call carrying 4 records\n")
    }
}

mod e5_remote_marshalling {
    //! E5 — "Removing the dependence on ioctl simplifies the
    //! implementation of /proc in a network environment. The
    //! unstructured nature of ioctl operations and the variability of
    //! operand sizes and I/O directions make it difficult to cleanly
    //! separate the client/server interactions; read and write don't
    //! share these problems."
    //!
    //! Both `/proc` generations are mounted *behind the RFS-like remote
    //! shim*. The flat interface only works because a per-request wire
    //! table (one shared table, built from the typed `Ioctl` enum)
    //! teaches the shim every `PIOC*` operand shape — and operations
    //! outside the table (the deprecated variable-size dumps) cannot
    //! cross at all. The hierarchical interface crosses generically.
    //! E5b sweeps the loss rate; E5c shows many clients' tagged ops in
    //! flight at once beating one-at-a-time calls on the same lossy
    //! wire; E5d scales the readiness-loop server to 1000 sessions.

    use super::*;
    use procfs::{HierFs, PrStatus, ProcFs};
    use tools::proc_io::ProcHandle;
    use vfs::remote::{FaultRates, RemoteFs, WireConfig};
    use vfs::OFlags;

    #[test]
    fn transcript() {
        check(demo, include_str!("figures/e5_remote_marshalling.txt"));
    }

    fn demo(out: &mut String) -> fmt::Result {
        comparison(out)?;
        fault_sweep(out)?;
        multi_client_sweep(out)?;
        client_count_sweep(out)
    }

    /// Boots a system whose /proc generations are mounted across the wire.
    fn boot_remote() -> (System, Pid) {
        let mut sys = System::boot();
        tools::install_userland(&mut sys);
        // Flat /proc: needs the full ioctl wire table — the one the typed
        // request enum exports, not a hand-rolled copy.
        let flat =
            RemoteFs::new(Box::new(ProcFs::new())).with_ioctl_table(procfs::ioctl::wire_table());
        sys.mount("/proc", Box::new(flat));
        // Hierarchical /proc: crosses with no table at all.
        let hier = RemoteFs::new(Box::new(HierFs::new()));
        sys.mount("/proc2", Box::new(hier));
        let ctl = sys.spawn_hosted("remote-ctl", Cred::new(100, 10));
        (sys, ctl)
    }

    fn comparison(out: &mut String) -> fmt::Result {
        banner(out, "E5", "marshalling /proc across an RFS-like wire")?;
        // Both generations are mounted; the tools' one transport path (the
        // same ProcHandle the debugger uses) drives them, and the shim's
        // locally-answered PIOCWIRESTATS exposes the traffic counters.
        let (mut sys, ctl) = boot_remote();
        let pid = sys.spawn_program(ctl, "/bin/spin", &["spin"]).expect("spawn");

        // Flat: open + PIOCSTATUS through the wire.
        let mut h = ProcHandle::open_rw(&mut sys, ctl, pid).expect("open");
        let st = h.status(&mut sys).expect("status");
        assert_ne!(st.pid, 0);
        let w = h.wire_stats(&mut sys).expect("wire stats");
        writeln!(
            out,
            "flat PIOCSTATUS over the wire: OK — {} ops, {}B sent, {}B received",
            w.ops, w.bytes_sent, w.bytes_received
        )?;
        // The deprecated variable-size dump cannot cross.
        let err = sys.host_ioctl(ctl, h.fd, procfs::ioctl::PIOCGETPR, &[]);
        let w = h.wire_stats(&mut sys).expect("wire stats");
        writeln!(
            out,
            "flat PIOCGETPR over the wire : {err:?} ({} refusal(s) — no wire shape exists)",
            w.unsupported_ioctls
        )?;
        h.close(&mut sys).expect("close");

        // Hierarchical: pure lookup + read, no table anywhere.
        let path = format!("/proc2/{}/status", pid.0);
        let sfd = sys.host_open(ctl, &path, OFlags::rdonly()).expect("open status");
        let mut buf = vec![0u8; PrStatus::WIRE_LEN];
        let n = sys.host_read(ctl, sfd, &mut buf).expect("read");
        assert_eq!(n, PrStatus::WIRE_LEN);
        let w = vfs::remote::WireStats::from_bytes(
            &sys.host_ioctl(ctl, sfd, vfs::remote::PIOCWIRESTATS, &[]).expect("wire stats"),
        )
        .expect("decode");
        sys.host_close(ctl, sfd).expect("close");
        writeln!(
            out,
            "hier status by read(2)       : OK — {} ops, {}B sent, {}B received, 0 refusals",
            w.ops, w.bytes_sent, w.bytes_received
        )?;
        writeln!(out)?;
        writeln!(out, "wire table size for the flat interface: {} PIOC requests", count_table())?;
        writeln!(out, "wire table size for the hierarchy     : 0\n")
    }

    fn count_table() -> usize {
        procfs::ioctl::Ioctl::ALL.iter().filter(|i| i.wire_spec().is_some()).count()
    }

    /// Like [`boot_remote`] but only the hierarchical generation is
    /// mounted, and its wire injects faults at `permille` per class
    /// (drop/truncate/bitflip/duplicate/delay).
    fn boot_remote_faulted(permille: u16) -> (System, Pid) {
        let mut sys = System::boot();
        tools::install_userland(&mut sys);
        let hier = RemoteFs::new(Box::new(HierFs::new()))
            .with_config(&WireConfig::faulty(0xE5_FA_17, FaultRates::uniform(permille)));
        sys.mount("/proc2", Box::new(hier));
        let ctl = sys.spawn_hosted("remote-ctl", Cred::new(100, 10));
        (sys, ctl)
    }

    /// The fault-rate sweep: the same status-read workload at increasing
    /// loss rates, reporting the recovery machinery's counters. The headline
    /// claim is the *correctness* column — every outcome is either the right
    /// bytes or a clean timeout, at any loss rate.
    fn fault_sweep(out: &mut String) -> fmt::Result {
        banner(out, "E5b", "remote /proc under an increasingly lossy wire")?;
        writeln!(
            out,
            "{:>9} {:>8} {:>8} {:>8} {:>8} {:>9} {:>9}",
            "rate(\u{2030})", "reads", "ok", "timeout", "retries", "dedup", "faults"
        )?;
        for permille in [0u16, 10, 50, 100, 200, 400] {
            let (mut sys, ctl) = boot_remote_faulted(permille);
            let pid = sys.spawn_program(ctl, "/bin/spin", &["spin"]).expect("spawn");
            let path = format!("/proc2/{}/status", pid.0);
            let (mut ok, mut timeout) = (0u64, 0u64);
            let mut stats = Default::default();
            for _ in 0..200 {
                let fd = match sys.host_open(ctl, &path, OFlags::rdonly()) {
                    Ok(fd) => fd,
                    Err(_) => {
                        timeout += 1;
                        continue;
                    }
                };
                let mut buf = vec![0u8; PrStatus::WIRE_LEN];
                match sys.host_read(ctl, fd, &mut buf) {
                    Ok(n) => {
                        assert!(PrStatus::from_bytes(&buf[..n]).is_some(), "damaged bytes escaped");
                        ok += 1;
                    }
                    Err(_) => timeout += 1,
                }
                let _ = sys.host_close(ctl, fd);
            }
            // Final counter snapshot: the introspection ioctl is answered
            // client-side, but the open feeding it still crosses the lossy
            // wire — keep asking until one lands.
            for _ in 0..256 {
                let Ok(fd) = sys.host_open(ctl, &path, OFlags::rdonly()) else { continue };
                if let Ok(b) = sys.host_ioctl(ctl, fd, vfs::remote::PIOCWIRESTATS, &[]) {
                    if let Some(s) = vfs::remote::WireStats::from_bytes(&b) {
                        stats = s;
                    }
                }
                let _ = sys.host_close(ctl, fd);
                break;
            }
            writeln!(
                out,
                "{permille:>9} {:>8} {ok:>8} {timeout:>8} {:>8} {:>9} {:>9}",
                ok + timeout,
                stats.retries,
                stats.dedup_hits,
                stats.faults_injected(),
            )?;
        }
        writeln!(out)
    }

    /// The wire v2 payoff: N client handles, ops tagged and in flight
    /// together, completions demultiplexed out of order — against the same
    /// workload issued one blocking op at a time over an identical fault
    /// schedule. Time is virtual ticks of the session clock (deterministic).
    fn multi_client_sweep(out: &mut String) -> fmt::Result {
        banner(out, "E5c", "pipelined multi-client sessions vs. serial ops")?;
        writeln!(
            out,
            "{:>9} {:>6} {:>10} {:>10} {:>11} {:>11} {:>8}",
            "rate(\u{2030})",
            "ops",
            "serial-ok",
            "piped-ok",
            "serial-tick",
            "piped-tick",
            "speedup"
        )?;
        for p in bench_support::multi_client_wire_sweep(&[0, 50, 150, 300], 4, 24, 0xE5C0) {
            writeln!(
                out,
                "{:>9} {:>6} {:>10} {:>10} {:>11} {:>11} {:>7.1}x",
                p.permille,
                p.ops,
                p.serial_ok,
                p.pipelined_ok,
                p.serial_ticks,
                p.pipelined_ticks,
                p.serial_ticks as f64 / p.pipelined_ticks.max(1) as f64,
            )?;
        }
        writeln!(out)
    }

    /// E5d: the readiness-loop server under a rising client count, on a
    /// clean wire and under the full adversarial-client mix (slow readers,
    /// half-open sessions, frame floods, mid-frame cuts, stale-tag
    /// replays). Throughput is successful ops per 1000 virtual ticks; p99
    /// is the submit-to-completion latency of the 99th-percentile
    /// successful op. `tests/bench_smoke.rs` pins the same sweep.
    fn client_count_sweep(out: &mut String) -> fmt::Result {
        banner(out, "E5d", "wire server client-count sweep, clean vs. adversarial")?;
        writeln!(
            out,
            "{:>8} {:>5} {:>6} {:>5} {:>9} {:>7} {:>9} {:>7} {:>6} {:>6}",
            "clients", "mix", "ops", "ok", "ticks", "p99", "ok/ktick", "in-hwm", "evict", "shed"
        )?;
        for adversarial in [false, true] {
            for p in
                bench_support::client_count_sweep(&[1, 8, 64, 256, 1000], 4, adversarial, 0xE5D0)
            {
                writeln!(
                    out,
                    "{:>8} {:>5} {:>6} {:>5} {:>9} {:>7} {:>9.2} {:>7} {:>6} {:>6}",
                    p.clients,
                    if p.adversarial { "adv" } else { "clean" },
                    p.ops,
                    p.ok,
                    p.ticks,
                    p.p99_ticks,
                    p.ok_per_kilotick,
                    p.in_queue_hwm,
                    p.sessions_evicted,
                    p.frames_shed,
                )?;
            }
        }
        writeln!(out)
    }
}

mod e6_watchpoints {
    //! E6 — the proposed watchpoint facility: "The traced process stops
    //! only when a watchpoint really fires; the system takes care of the
    //! details of recovering from machine faults taken due to references
    //! to unwatched data that happens to fall in the same page as
    //! watched data."
    //!
    //! Target progress (instructions retired over a fixed step budget)
    //! with (a) no watchpoint, (b) a watchpoint in a page the loop never
    //! touches, (c) a watchpoint sharing a page with unwatched data the
    //! loop stores to. Expected shape: (c) takes the recovery path on
    //! every same-page store, but the process never stops.

    use super::*;
    use procfs::PrWatch;
    use tools::ProcHandle;

    /// A loop that stores only to `quiet` (offset +512 from `cell`, same
    /// page) — never to the watched bytes themselves.
    const SAME_PAGE_LOOP: &str = r#"
_start:
    la   a0, cell
loop:
    addi a1, a1, 1
    st   a1, [a0+512]
    jmp  loop
.data
.align 8
cell: .space 1024
"#;

    #[test]
    fn transcript() {
        check(table, include_str!("figures/e6_watchpoints.txt"));
    }

    fn progress_with(watch: Option<PrWatch>) -> (u64, u64) {
        let (mut sys, ctl) = boot_with_ctl();
        sys.install_program("/bin/samepage", SAME_PAGE_LOOP);
        let pid = sys.spawn_program(ctl, "/bin/samepage", &["samepage"]).expect("spawn");
        let mut h = ProcHandle::open_rw(&mut sys, ctl, pid).expect("open");
        if let Some(w) = watch {
            h.stop(&mut sys).expect("stop");
            h.set_watch(&mut sys, w).expect("watch");
            h.resume(&mut sys).expect("run");
        }
        sys.run_idle(500);
        let usage = h.usage(&mut sys).expect("usage");
        (usage.cpu_ticks, usage.watch_recoveries)
    }

    fn table(out: &mut String) -> fmt::Result {
        banner(out, "E6", "watchpoint overhead: fires only on watched bytes")?;
        let cell = {
            let aout = ksim::aout::build_aout(SAME_PAGE_LOOP).expect("asm");
            aout.sym("cell").expect("cell")
        };
        let (base, _) = progress_with(None);
        let (other, rec_other) =
            progress_with(Some(PrWatch { vaddr: cell + 8192, size: 8, flags: 2 }));
        let (same, rec_same) = progress_with(Some(PrWatch { vaddr: cell, size: 8, flags: 2 }));
        writeln!(out, "target progress over a fixed 500-step budget:")?;
        writeln!(out, "  no watchpoint            : {base:>8} insns, 0 recoveries")?;
        writeln!(out, "  watch in another page    : {other:>8} insns, {rec_other} recoveries")?;
        writeln!(out, "  watch sharing the page   : {same:>8} insns, {rec_same} recoveries")?;
        writeln!(out, "  (the process never stopped: no store touched the watched bytes)\n")
    }
}

mod e7_encapsulation {
    //! E7 — "This combination of facilities enables complete
    //! encapsulation of the system call execution environment of a
    //! process so that, for example, older system calls or alternate
    //! versions of them can be simulated entirely at user level."
    //!
    //! A retired call is emulated by a controller (entry stop, kernel
    //! abort, manufactured exit values); the *program* is byte-for-byte
    //! unmodified and cannot tell.

    use super::*;
    use ksim::ptrace::{decode_status, WaitStatus};
    use ksim::sysno::{SysSet, SYS_RETIRED};
    use tools::Debugger;

    /// Calls retired_op N times; exits with the last result's low byte.
    const RETIRED_LOOP: &str = r#"
_start:
    movi a4, 50
    movi a3, 0
loop:
    beq  a3, a4, done
    movi rv, 79         ; retired_op(a3)
    mov  a0, a3
    syscall
    addi a3, a3, 1
    jmp  loop
done:
    mov  a0, rv
    movi rv, 1
    syscall
"#;

    #[test]
    fn transcript() {
        check(demo, include_str!("figures/e7_encapsulation.txt"));
    }

    fn demo(out: &mut String) -> fmt::Result {
        banner(out, "E7", "syscall encapsulation: retired calls simulated at user level")?;
        let (mut sys, ctl) = boot_with_ctl();
        sys.install_program("/bin/retloop", RETIRED_LOOP);
        let mut dbg =
            Debugger::launch(&mut sys, ctl, "/bin/retloop", &["retloop"]).expect("launch");
        let mut calls = SysSet::empty();
        calls.add(SYS_RETIRED as usize);
        let mut emulated = 0u64;
        let status = dbg
            .encapsulate(&mut sys, calls, |_nr, regs| {
                emulated += 1;
                Ok(regs.arg(0) + 1)
            })
            .expect("encapsulate");
        writeln!(out, "50 retired calls emulated ({emulated} interceptions),")?;
        writeln!(
            out,
            "target exited {:?} — it saw every manufactured return value",
            decode_status(status)
        )?;
        assert_eq!(decode_status(status), WaitStatus::Exited(50));
        writeln!(out)
    }
}

mod e8_truss_overhead {
    //! E8 — "truss will not alter the behavior of a process other than
    //! by slowing it down."
    //!
    //! A syscall-heavy program runs traced and untraced: the observable
    //! behaviour (exit status, file side effects) is identical.

    use super::*;
    use ksim::ptrace::decode_status;
    use tools::{truss_command, TrussOptions};

    #[test]
    fn transcript() {
        check(demo, include_str!("figures/e8_truss_overhead.txt"));
    }

    fn demo(out: &mut String) -> fmt::Result {
        banner(out, "E8", "truss overhead: identical behaviour, slower execution")?;
        // Untraced run.
        let (mut sys, ctl) = boot_with_ctl();
        sys.spawn_program(ctl, "/bin/greeter", &["greeter"]).expect("spawn");
        let (_, status) = sys.host_wait(ctl).expect("wait");
        let untraced = decode_status(status);
        let untraced_file = read_greeting(&mut sys, ctl);
        // Traced run.
        let (mut sys, ctl) = boot_with_ctl();
        let report =
            truss_command(&mut sys, ctl, "/bin/greeter", &["greeter"], &TrussOptions::default())
                .expect("truss");
        let traced = decode_status(report.exits[0].1);
        let traced_file = read_greeting(&mut sys, ctl);
        writeln!(out, "untraced: exit {untraced:?}, file content {untraced_file:?}")?;
        writeln!(out, "traced  : exit {traced:?}, file content {traced_file:?}")?;
        assert_eq!(untraced, traced);
        assert_eq!(untraced_file, traced_file);
        writeln!(out, "behaviour identical; {} trace lines produced\n", report.lines.len())
    }

    fn read_greeting(sys: &mut System, ctl: Pid) -> String {
        let fd = sys.host_open(ctl, "/tmp/greeting", vfs::OFlags::rdonly()).expect("open");
        let mut buf = [0u8; 64];
        let n = sys.host_read(ctl, fd, &mut buf).expect("read");
        sys.host_close(ctl, fd).expect("close");
        String::from_utf8_lossy(&buf[..n]).into_owned()
    }
}

mod e9_cow_isolation {
    //! E9 — "Copy-on-write is performed by the system excepting only
    //! bona-fide shared memory; writing to one process will not corrupt
    //! another process executing the same executable file or shared
    //! library."
    //!
    //! Two processes run the same a.out; a breakpoint planted in one is
    //! invisible to the other and to the executable file.

    use super::*;
    use tools::ProcHandle;

    #[test]
    fn transcript() {
        check(demo, include_str!("figures/e9_cow_isolation.txt"));
    }

    fn demo(out: &mut String) -> fmt::Result {
        banner(out, "E9", "copy-on-write isolation of /proc writes")?;
        let (mut sys, ctl) = boot_with_ctl();
        let a = sys.spawn_program(ctl, "/bin/ticker", &["ticker"]).expect("spawn a");
        let b = sys.spawn_program(ctl, "/bin/ticker", &["ticker"]).expect("spawn b");
        let tick =
            ksim::aout::build_aout(tools::userland::TICKER).expect("asm").sym("tick").expect("sym");
        let mut ha = ProcHandle::open_rw(&mut sys, ctl, a).expect("open a");
        let mut hb = ProcHandle::open_rw(&mut sys, ctl, b).expect("open b");
        ha.write_mem(&mut sys, tick, &isa::insn::breakpoint_bytes()).expect("plant in a");
        let mut wa = [0u8; 8];
        let mut wb = [0u8; 8];
        ha.read_mem(&mut sys, tick, &mut wa).expect("read a");
        hb.read_mem(&mut sys, tick, &mut wb).expect("read b");
        writeln!(out, "breakpoint planted in process {}:", a.0)?;
        writeln!(out, "  process {} sees {:02x?}", a.0, &wa[..2])?;
        writeln!(out, "  process {} sees {:02x?}  (unchanged)", b.0, &wb[..2])?;
        assert_ne!(wa, wb);
        // The executable file itself is untouched.
        let meta = sys.stat_path(ctl, "/bin/ticker").expect("stat");
        let fd = sys.host_open(ctl, "/bin/ticker", vfs::OFlags::rdonly()).expect("open file");
        let mut image = vec![0u8; meta.size as usize];
        let mut off = 0;
        while off < image.len() {
            let n = sys.host_read(ctl, fd, &mut image[off..]).expect("read");
            if n == 0 {
                break;
            }
            off += n;
        }
        let aout = ksim::Aout::from_bytes(&image).expect("parse");
        let text_off = (tick - aout.text_base) as usize;
        writeln!(
            out,
            "  the a.out file still holds  {:02x?}  at that offset",
            &aout.text[text_off..text_off + 2]
        )?;
        assert_ne!(&aout.text[text_off..text_off + 8], &wa);
        // And process b still runs correctly.
        sys.run_idle(100);
        assert!(!sys.kernel.proc(b).expect("alive").zombie);
        writeln!(out, "  process {} continues running the shared text unharmed\n", b.0)
    }
}

mod e10_poll_many {
    //! E10 — the poll extension: "it would be possible to permit /proc
    //! file descriptors to be used with the poll(2) system call. This
    //! would make it much easier for a debugger to wait for any one of a
    //! set of controlled processes to stop ... more flexibility for
    //! multiprocess debugger implementations than the current method of
    //! waiting for only a single process to stop."
    //!
    //! N targets stop at staggered times; a poll-based controller
    //! collects every stop as it happens, in arrival order, where a
    //! PIOCWSTOP-per-process controller would be stuck in pid order.

    use super::*;
    use ksim::signal::SIGUSR1;
    use ksim::SigSet;
    use tools::ProcHandle;

    #[test]
    fn transcript() {
        check(demo, include_str!("figures/e10_poll_many.txt"));
    }

    /// Spawns N signal-traced spinners; returns their handles.
    fn spawn_targets(sys: &mut System, ctl: Pid, n: usize) -> Vec<ProcHandle> {
        (0..n)
            .map(|_| {
                let pid = sys.spawn_program(ctl, "/bin/spin", &["spin"]).expect("spawn");
                let mut h = ProcHandle::open_rw(sys, ctl, pid).expect("open");
                let mut set = SigSet::empty();
                set.add(SIGUSR1);
                h.set_sig_trace(sys, set).expect("trace");
                h
            })
            .collect()
    }

    /// Signals one target every two gang rounds, in reverse pid order, so
    /// the stops arrive in separate rounds and pid-ordered waiting is
    /// maximally head-of-line blocked; polls after each pair of rounds
    /// and collects every stop as it arrives.
    fn poll_collect(sys: &mut System, ctl: Pid, handles: &mut [ProcHandle]) -> Vec<u32> {
        let fds: Vec<usize> = handles.iter().map(|h| h.fd).collect();
        let mut order = Vec::new();
        let mut done = vec![false; handles.len()];
        let mut unsignalled = handles.len();
        while order.len() < handles.len() {
            if unsignalled > 0 {
                unsignalled -= 1;
                handles[unsignalled].kill(sys, SIGUSR1).expect("kill");
            }
            sys.step();
            sys.step();
            let statuses = sys.host_poll(ctl, &fds).expect("poll");
            for (i, st) in statuses.iter().enumerate() {
                if st.readable && !done[i] {
                    done[i] = true;
                    order.push(handles[i].pid.0);
                }
            }
        }
        order
    }

    fn demo(out: &mut String) -> fmt::Result {
        banner(out, "E10", "poll(2) over /proc descriptors: wait for any of N targets")?;
        let (mut sys, ctl) = boot_with_ctl();
        let mut handles = spawn_targets(&mut sys, ctl, 5);
        let order = poll_collect(&mut sys, ctl, &mut handles);
        writeln!(
            out,
            "5 targets signalled two gang rounds apart in reverse pid order; \
             poll collected stops as: {order:?}"
        )?;
        writeln!(
            out,
            "(a single-process PIOCWSTOP loop would have waited on the lowest pid first)\n"
        )?;
        for h in handles {
            let _ = h.close(&mut sys);
        }
        Ok(())
    }
}
