//! Superblock edge cases: events that land *inside* a traced block must
//! surface exactly as they do on the stepped path.
//!
//! A superblock dispatch retires up to 32 instructions without
//! returning to the kernel loop. Signals, injected kernel faults and
//! quantum expiry all arrive while a block is mid-flight; the engine
//! must surface them only at block exits and without moving a single
//! observable — instruction counts, register state, memory, exit
//! status. These tests drive the same seeded schedule with the fast
//! path on and off and require byte-identical transcripts, then cover
//! the two structural hazards: a forked child must start with a cold
//! block cache, and a breakpoint planted into a page with a live
//! superblock must kill exactly that page's blocks.

use ksim::{Cred, KernelFaultRates, Pid, System};
use procfs::{PrRun, PrXStats};
use tools::proc_io::ProcHandle;
use tools::{DebugEvent, Debugger};

/// A compute loop with a signal handler: the hot loop runs inside
/// superblocks while SIGUSR1 deliveries divert control mid-trace.
const SIGNALLED_CRUNCHER: &str = r#"
_start:
    movi rv, 48         ; sigaction(SIGUSR1, handler, 0)
    movi a0, 16
    la   a1, handler
    movi a2, 0
    syscall
loop:
    addi a3, a3, 1
    addi a4, a4, 7
    jmp  loop
handler:
    la   a1, counter
    ld   a2, [a1]
    addi a2, a2, 1
    st   a2, [a1]
    ret
.data
.align 8
counter: .word 0
"#;

fn boot(fast: bool) -> (System, Pid) {
    let mut sys = tools::boot_demo_cfg(ksim::SimConfig::standard().fast_path(fast));
    let ctl = sys.spawn_hosted("sblock-test", Cred::superuser());
    (sys, ctl)
}

/// One transcript line per observation point: everything a controller
/// could see about the target.
fn observe(sys: &System, pid: Pid, counter: u64, step: usize) -> String {
    match sys.kernel.proc(pid) {
        Ok(p) => {
            let lwp = &p.lwps[0];
            let mut cbuf = [0u8; 8];
            let cval = p
                .aspace
                .kernel_read(&sys.kernel.objects, counter, &mut cbuf)
                .map(|()| u64::from_le_bytes(cbuf))
                .unwrap_or(u64::MAX);
            format!(
                "{step}: insns={} pc={:#x} a3={} a4={} counter={} zombie={} status={}",
                lwp.insns,
                lwp.gregs.pc,
                lwp.gregs.get(isa::REG_A0 + 3),
                lwp.gregs.get(isa::REG_A0 + 4),
                cval,
                p.zombie,
                p.exit_status,
            )
        }
        Err(e) => format!("{step}: gone {e:?}"),
    }
}

/// Drives the signal-delivery schedule and returns the transcript.
fn signal_transcript(fast: bool) -> String {
    let (mut sys, ctl) = boot(fast);
    sys.install_program("/bin/sigcrunch", SIGNALLED_CRUNCHER);
    let aout = ksim::aout::build_aout(SIGNALLED_CRUNCHER).expect("assembles");
    let counter = aout.sym("counter").expect("counter symbol");
    let pid = sys.spawn_program(ctl, "/bin/sigcrunch", &["sigcrunch"]).expect("spawn");
    let mut t = String::new();
    for step in 0..24 {
        // Odd slice counts so delivery points wander across block
        // boundaries instead of hitting the same trace offset each time.
        sys.run_idle(37 + (step % 5) as u64);
        if step % 3 == 0 {
            let _ = sys.kernel.post_signal(pid, 16);
        }
        t.push_str(&observe(&sys, pid, counter, step));
        t.push('\n');
    }
    t
}

/// Signal delivery mid-block: the handler's effects, the interrupted
/// loop's registers and the retirement counts must be identical with
/// superblocks on and off.
#[test]
fn signal_delivery_transcript_identical_fast_on_and_off() {
    let fast = signal_transcript(true);
    let slow = signal_transcript(false);
    assert_eq!(fast, slow, "superblocks changed the signal schedule");
    assert!(fast.contains("counter="), "transcript never observed the handler");
    // The handler actually ran (a transcript of zeros would also match).
    let last = fast.lines().last().expect("nonempty transcript");
    assert!(!last.contains("counter=0 "), "no signal ever delivered: {last}");
}

/// Drives a seeded kernel-fault schedule (ENOMEM at vm sites, EAGAIN at
/// fork) under fork + COW traffic and returns the transcript.
fn kfault_transcript(fast: bool, seed: u64) -> String {
    // The plan is installed at construction (`SimConfig::kernel_faults`,
    // the only installation site since the mid-run shims were retired),
    // so the seeded schedule covers the setup spawns too: they may draw
    // EAGAIN/ENOMEM themselves and retry. The draws consumed during
    // setup are identical across the fast/slow legs — the host-call
    // sequence does not depend on the execution engine.
    let mut sys = tools::boot_demo_cfg(
        ksim::SimConfig::standard()
            .fast_path(fast)
            .kernel_faults(seed, KernelFaultRates::uniform(60)),
    );
    let ctl = sys.spawn_hosted("sblock-test", Cred::superuser());
    let spawn = |sys: &mut ksim::System, path: &str, name: &str| {
        for _ in 0..200 {
            if let Ok(pid) = sys.spawn_program(ctl, path, &[name]) {
                return pid;
            }
        }
        panic!("{path} failed to spawn 200 straight times under the fault plan");
    };
    let forker = spawn(&mut sys, "/bin/forker", "forker");
    let watched = spawn(&mut sys, "/bin/watched", "watched");
    let mut t = String::new();
    for step in 0..16 {
        sys.run_idle(53);
        for (tag, pid) in [("forker", forker), ("watched", watched)] {
            match sys.kernel.proc(pid) {
                Ok(p) => {
                    let insns: u64 = p.lwps.iter().map(|l| l.insns).sum();
                    t.push_str(&format!(
                        "{step} {tag}: insns={insns} zombie={} status={}\n",
                        p.zombie, p.exit_status
                    ));
                }
                Err(e) => t.push_str(&format!("{step} {tag}: gone {e:?}\n")),
            }
        }
    }
    t
}

/// Kernel-fault injection mid-block: the same seeded fault schedule
/// must produce the same observable history whether the target executes
/// stepped or block-dispatched.
#[test]
fn kernel_fault_transcript_identical_fast_on_and_off() {
    for seed in [0x5B10_C001u64, 0x5B10_C017, 0x5B10_C02F] {
        let fast = kfault_transcript(true, seed);
        let slow = kfault_transcript(false, seed);
        assert_eq!(fast, slow, "seed {seed:#x}: superblocks changed the fault schedule");
    }
}

/// A forked child starts with a cold superblock cache: at first
/// sighting it has built and dispatched nothing of its own even though
/// its parent's engine is hot, and it then warms up independently.
#[test]
fn fork_child_starts_cold_and_warms_independently() {
    let (mut sys, ctl) = boot(true);
    let parent = sys.spawn_program(ctl, "/bin/forker", &["forker"]).expect("spawn");
    // Creep forward a tick at a time so the child is seen the moment it
    // exists — before it has ever been scheduled.
    let child = loop {
        let fresh =
            sys.kernel.procs.iter().find(|(_, p)| p.ppid == parent).map(|(raw, _)| Pid(*raw));
        if let Some(c) = fresh {
            break c;
        }
        sys.run_idle(1);
    };
    let parent_st = PrXStats::capture(&sys.kernel, parent).expect("parent xstats");
    let child_st = PrXStats::capture(&sys.kernel, child).expect("child xstats");
    assert!(parent_st.sblock_dispatched > 0, "parent never used blocks: {parent_st:?}");
    assert_eq!(
        child_st.sblock_built + child_st.sblock_dispatched,
        0,
        "fork child inherited a warm superblock cache: {child_st:?}"
    );
    // Run on: the child builds its own blocks and the pair still
    // completes correctly (forker exits 0 only if the child ran first).
    sys.run_idle(4000);
    let done = sys.kernel.proc(parent).map(|p| (p.zombie, p.exit_status)).expect("parent");
    assert_eq!(
        ksim::ptrace::decode_status(done.1),
        ksim::ptrace::WaitStatus::Exited(0),
        "forker failed under superblocks: {done:?}"
    );
}

/// Planting a breakpoint into a page with a live superblock kills that
/// block (the per-page epoch moved) and the breakpoint fires on the
/// very next pass — while blocks for *other* pages stay valid.
#[test]
fn breakpoint_planted_into_live_superblock_page_fires() {
    let (mut sys, ctl) = boot(true);
    let mut dbg = Debugger::launch(&mut sys, ctl, "/bin/ticker", &["ticker"]).expect("launch");
    let pid = dbg.pid();
    // Free-run so the tick loop is traced into superblocks (stepping
    // sets the trace bit, which bypasses block dispatch).
    dbg.h.run(&mut sys, PrRun { flags: 0, vaddr: 0 }).expect("resume");
    sys.run_idle(500);
    dbg.h.stop(&mut sys).expect("stop");
    let hot = PrXStats::capture(&sys.kernel, pid).expect("xstats");
    assert!(hot.sblock_dispatched > 0, "loop never dispatched a block: {hot:?}");
    assert!(hot.sblock_insns > 0, "{hot:?}");

    let tick = dbg.sym("tick").expect("tick symbol");
    dbg.set_breakpoint(&mut sys, tick).expect("set breakpoint");
    let planted = PrXStats::capture(&sys.kernel, pid).expect("xstats");
    assert!(
        planted.page_epoch_bumps > hot.page_epoch_bumps,
        "plant did not move the page epoch: {hot:?} -> {planted:?}"
    );
    match dbg.cont(&mut sys).expect("cont") {
        DebugEvent::Breakpoint { addr, .. } => assert_eq!(addr, tick),
        other => panic!("live superblock swallowed the planted breakpoint: {other:?}"),
    }
    let after = PrXStats::capture(&sys.kernel, pid).expect("xstats");
    assert!(
        after.sblock_stale > hot.sblock_stale,
        "no block was invalidated by the plant: {hot:?} -> {after:?}"
    );
    // Clearing the breakpoint restores the loop: blocks rebuild and the
    // target runs cleanly through re-traced text (the pending FLTBPT is
    // cleared on resume).
    dbg.clear_breakpoint(&mut sys, tick).expect("clear");
    dbg.h.run(&mut sys, PrRun { flags: procfs::PRRUN_CFAULT, vaddr: 0 }).expect("resume");
    sys.run_idle(200);
    dbg.h.stop(&mut sys).expect("stop");
    let rebuilt = PrXStats::capture(&sys.kernel, pid).expect("xstats");
    assert!(
        rebuilt.sblock_built > after.sblock_built,
        "loop never re-traced after the clear: {after:?} -> {rebuilt:?}"
    );
    dbg.kill(&mut sys).expect("kill");
}

/// Raw-handle variant of the plant: a `/proc` memory write into a hot
/// text page from a handle (no debugger bookkeeping) is still an
/// invalidation event for exactly that page.
#[test]
fn proc_write_into_hot_page_invalidates_blocks() {
    let (mut sys, ctl) = boot(true);
    let pid = sys.spawn_program(ctl, "/bin/ticker", &["ticker"]).expect("spawn");
    sys.run_idle(500);
    let hot = PrXStats::capture(&sys.kernel, pid).expect("xstats");
    assert!(hot.sblock_dispatched > 0, "{hot:?}");
    let aout = ksim::aout::build_aout(tools::userland::TICKER).expect("assembles");
    let tick = aout.sym("tick").expect("tick symbol");
    let mut h = ProcHandle::open_rw(&mut sys, ctl, pid).expect("open");
    h.stop(&mut sys).expect("stop");
    // Overwrite tick's first instruction with itself: content-neutral,
    // but a write into an exec page must still move the page epoch.
    let mut word = [0u8; 8];
    h.read_mem(&mut sys, tick, &mut word).expect("read");
    h.write_mem(&mut sys, tick, &word).expect("write");
    h.resume(&mut sys).expect("resume");
    h.close(&mut sys).expect("close");
    sys.run_idle(200);
    let after = PrXStats::capture(&sys.kernel, pid).expect("xstats");
    assert!(
        after.page_epoch_bumps > hot.page_epoch_bumps,
        "write did not bump the page epoch: {hot:?} -> {after:?}"
    );
    assert!(
        after.sblock_stale > hot.sblock_stale,
        "write did not invalidate the hot block: {hot:?} -> {after:?}"
    );
}
