//! The execution fast path's correctness suite: the software TLB and
//! the superblock engine must never change what the paper's debugging
//! machinery observes.
//!
//! The dangerous moment is *after the caches are hot*: a breakpoint
//! planted through a `/proc` write patches text a superblock has
//! already decoded, and a watchpoint added through `PIOCSWATCH` makes a
//! page the dTLB has already translated require slow-path side effects.
//! If either cache survives its invalidation event, the target sails
//! through the trap — precisely the bug class the generation stamps
//! exist to prevent. The counters themselves are checked through all
//! three faces (flat ioctl, hierarchical file, remote mount).

use ksim::{Cred, Pid, System};
use procfs::{PrUsage, PrWatch, PrXStats};
use tools::proc_io::ProcHandle;
use tools::{DebugEvent, Debugger};
use vfs::remote::RemoteFs;
use vfs::OFlags;

const REMOTE_MOUNT: &str = "/procr";

fn boot() -> (System, Pid) {
    let mut sys = tools::boot_demo();
    sys.mount(
        REMOTE_MOUNT,
        Box::new(
            RemoteFs::new(Box::new(procfs::ProcFs::new()))
                .with_ioctl_table(procfs::ioctl::wire_table()),
        ),
    );
    let ctl = sys.spawn_hosted("fastpath", Cred::superuser());
    (sys, ctl)
}

/// Steps the target `n` times, asserting each step lands.
fn heat(sys: &mut System, dbg: &mut Debugger, n: usize) {
    for i in 0..n {
        let ev = dbg.step(sys).expect("step");
        assert!(matches!(ev, DebugEvent::Stepped), "heat step {i}: {ev:?}");
    }
}

/// Lets the stopped target run free for `rounds` gang rounds, so its
/// loop runs from superblocks, then stops it again.
fn run_hot(sys: &mut System, dbg: &mut Debugger, rounds: u64) {
    dbg.h.resume(sys).expect("resume");
    sys.run_idle(rounds);
    dbg.h.stop(sys).expect("stop");
}

/// A breakpoint planted via `/proc` *after* the text is hot in the
/// superblock cache must still fire: the write bumps the page's epoch,
/// so the stale block fails validation and the freshly planted trap
/// instruction is decoded.
#[test]
fn breakpoint_fires_after_hot_text_is_patched() {
    let (mut sys, ctl) = boot();
    let mut dbg = Debugger::launch(&mut sys, ctl, "/bin/ticker", &["ticker"]).expect("launch");
    let pid = dbg.pid();
    // Run the tick loop long enough that it runs from validated blocks.
    run_hot(&mut sys, &mut dbg, 64);
    let hot = PrXStats::capture(&sys.kernel, pid).expect("xstats");
    assert!(hot.sblock_insns > 0, "loop never ran from a superblock: {hot:?}");
    // Plant the breakpoint in the now-cached text and continue.
    let tick = dbg.sym("tick").expect("tick symbol");
    dbg.set_breakpoint(&mut sys, tick).expect("set breakpoint");
    let ev = dbg.cont(&mut sys).expect("cont");
    match ev {
        DebugEvent::Breakpoint { addr, .. } => assert_eq!(addr, tick),
        other => panic!("hot text swallowed the planted breakpoint: {other:?}"),
    }
    // The invalidation was observable, not a lucky miss: the probe that
    // found a block at the pc but failed its stamps was counted.
    let after = PrXStats::capture(&sys.kernel, pid).expect("xstats");
    assert!(
        after.sblock_stale > hot.sblock_stale,
        "breakpoint plant did not invalidate any superblock: {after:?}"
    );
    dbg.kill(&mut sys).expect("kill");
}

/// With no decoded copy of text left outside the superblocks, a single
/// step decodes the word it executes: text patched through `/proc`
/// between two steps is what the second step runs, even where the loop
/// ran hot from blocks before.
#[test]
fn proc_write_between_single_steps_is_executed() {
    let (mut sys, ctl) = boot();
    let mut dbg = Debugger::launch(&mut sys, ctl, "/bin/ticker", &["ticker"]).expect("launch");
    run_hot(&mut sys, &mut dbg, 64);
    let tick = dbg.sym("tick").expect("tick symbol");
    // Step up to `tick` (`addi a0, a0, 1`), then step it once as built.
    while dbg.regs(&mut sys).expect("regs").pc != tick {
        heat(&mut sys, &mut dbg, 1);
    }
    let calls = dbg.regs(&mut sys).expect("regs").get(isa::REG_A0);
    heat(&mut sys, &mut dbg, 1);
    assert_eq!(dbg.regs(&mut sys).expect("regs").get(isa::REG_A0), calls + 1);
    // Back at `tick` by stepping, patch it to add 100 and step again.
    while dbg.regs(&mut sys).expect("regs").pc != tick {
        heat(&mut sys, &mut dbg, 1);
    }
    let patched = isa::Insn::iform(isa::Opcode::Addi, isa::REG_A0, isa::REG_A0, 100);
    dbg.write(&mut sys, tick, &patched.encode()).expect("patch");
    heat(&mut sys, &mut dbg, 1);
    let regs = dbg.regs(&mut sys).expect("regs");
    assert_eq!(regs.get(isa::REG_A0), calls + 101, "the step ran the text before the write");
    assert_eq!(regs.pc, tick + isa::INSN_LEN);
    dbg.kill(&mut sys).expect("kill");
}

/// Removing the breakpoint restores the original word and the loop runs
/// on — through re-validated cache entries, not stale ones.
#[test]
fn cleared_breakpoint_lets_hot_loop_continue() {
    let (mut sys, ctl) = boot();
    let mut dbg = Debugger::launch(&mut sys, ctl, "/bin/ticker", &["ticker"]).expect("launch");
    heat(&mut sys, &mut dbg, 24);
    let tick = dbg.sym("tick").expect("tick symbol");
    dbg.set_breakpoint(&mut sys, tick).expect("set breakpoint");
    let ev = dbg.cont(&mut sys).expect("cont");
    assert!(matches!(ev, DebugEvent::Breakpoint { .. }), "{ev:?}");
    dbg.clear_breakpoint(&mut sys, tick).expect("clear breakpoint");
    // With the trap gone the loop must step cleanly again — if the trap
    // byte lingered in a cached decode, this would re-trap instead.
    heat(&mut sys, &mut dbg, 24);
    dbg.kill(&mut sys).expect("kill");
}

/// A watchpoint added *after* the watched page is hot in the dTLB must
/// still fire on the next store: `PIOCSWATCH` bumps the address-space
/// generation, flushing every translation for the page, and the
/// watched-page screen keeps it out of the caches from then on.
#[test]
fn watchpoint_fires_after_hot_dtlb() {
    let (mut sys, ctl) = boot();
    let mut dbg = Debugger::launch(&mut sys, ctl, "/bin/watched", &["watched"]).expect("launch");
    let pid = dbg.pid();
    // The loop stores twice per iteration into cell's page: make those
    // translations hot.
    heat(&mut sys, &mut dbg, 40);
    let hot = PrXStats::capture(&sys.kernel, pid).expect("xstats");
    assert!(hot.tlb_hits > 0, "store loop never hit the TLB: {hot:?}");
    let cell = dbg.sym("cell").expect("cell symbol");
    let mut flt = ksim::FltSet::empty();
    flt.add(ksim::fault::Fault::Bpt.number());
    flt.add(ksim::fault::Fault::Trace.number());
    flt.add(ksim::fault::Fault::Watch.number());
    dbg.h.set_flt_trace(&mut sys, flt).expect("flt trace");
    dbg.h.set_watch(&mut sys, PrWatch { vaddr: cell, size: 8, flags: 2 }).expect("set watch");
    let ev = dbg.cont(&mut sys).expect("cont");
    assert!(matches!(ev, DebugEvent::Watchpoint), "hot dTLB swallowed the new watchpoint: {ev:?}");
    dbg.kill(&mut sys).expect("kill");
}

/// A page carrying a watchpoint stays *cacheable*: stores landing on
/// the watched page but outside the watched bytes keep hitting the dTLB
/// (the entry carries the watched bit and every hit re-runs the watch
/// screen), and the screen's side effects — transparent-recovery
/// counting — accrue exactly as on the slow path.
#[test]
fn watched_adjacent_stores_stay_cached_with_side_effects() {
    let (mut sys, ctl) = boot();
    let mut dbg = Debugger::launch(&mut sys, ctl, "/bin/watched", &["watched"]).expect("launch");
    let pid = dbg.pid();
    heat(&mut sys, &mut dbg, 16);
    // Watch 8 bytes in the middle of cell's page; the loop's stores (to
    // cell and cell+512) share the page but never overlap the range, so
    // every store is a same-page recovery, not a fault.
    let cell = dbg.sym("cell").expect("cell symbol");
    dbg.h.set_watch(&mut sys, PrWatch { vaddr: cell + 256, size: 8, flags: 2 }).expect("set watch");
    let before = PrXStats::capture(&sys.kernel, pid).expect("xstats");
    let before_u = PrUsage::capture(&sys.kernel, pid).expect("usage");
    heat(&mut sys, &mut dbg, 40);
    let after = PrXStats::capture(&sys.kernel, pid).expect("xstats");
    let after_u = PrUsage::capture(&sys.kernel, pid).expect("usage");
    assert!(
        after.tlb_hits > before.tlb_hits,
        "watched page fell out of the dTLB: before {before:?} after {after:?}"
    );
    assert!(
        after_u.watch_recoveries > before_u.watch_recoveries,
        "cached watched page skipped recovery counting: before {before_u:?} after {after_u:?}"
    );
    dbg.kill(&mut sys).expect("kill");
}

/// Loads and stores one word, all on the page of `cell`, which a
/// controller may watch elsewhere on the same page.
const STORE_LOAD: &str = r#"
_start:
    la   a0, cell
    movi a1, 0
loop:
    addi a1, a1, 1
    st   a1, [a0+512]
    ld   a2, [a0+512]
    jmp  loop
.data
.align 8
cell: .space 1024
"#;

/// Removing a watchpoint through `PIOCSWATCH` (size 0) flushes the dTLB
/// lines filled while it existed: the generation moves once, and from
/// then on the page's accesses run no watch screen, and each load after
/// a store is served from the frame that store cached.
#[test]
fn watch_removal_flushes_watched_dtlb_lines() {
    let (mut sys, ctl) = boot();
    sys.install_program("/bin/storeload", STORE_LOAD);
    let mut dbg =
        Debugger::launch(&mut sys, ctl, "/bin/storeload", &["storeload"]).expect("launch");
    let pid = dbg.pid();
    // Watch 8 bytes the loop never touches, on the page it stores to, so
    // every access there is a same-page recovery on a watched line.
    let cell = dbg.sym("cell").expect("cell symbol");
    let watch = PrWatch { vaddr: cell, size: 8, flags: 2 };
    dbg.h.set_watch(&mut sys, watch).expect("set watch");
    run_hot(&mut sys, &mut dbg, 64);
    let watched = PrUsage::capture(&sys.kernel, pid).expect("usage");
    assert!(watched.watch_recoveries > 0, "the loop never touched the watched page");

    let before = PrXStats::capture(&sys.kernel, pid).expect("xstats");
    dbg.h.set_watch(&mut sys, PrWatch { size: 0, ..watch }).expect("drop watch");
    let after = PrXStats::capture(&sys.kernel, pid).expect("xstats");
    assert_eq!(
        after.tlb_invalidations,
        before.tlb_invalidations + 1,
        "the removal left the watched lines valid: {after:?}"
    );
    assert!(sys.kernel.proc(pid).expect("target").aspace.watchpoints.is_empty());

    run_hot(&mut sys, &mut dbg, 64);
    let ran = PrXStats::capture(&sys.kernel, pid).expect("xstats");
    let unwatched = PrUsage::capture(&sys.kernel, pid).expect("usage");
    assert_eq!(unwatched.watch_recoveries, watched.watch_recoveries, "a screen ran after removal");
    let iters = (ran.insns - after.insns) / 4;
    assert!(
        (ran.tlb_frame_hits - after.tlb_frame_hits) * 2 > iters,
        "loads after stores missed the cached frame over {iters} iterations: {ran:?}"
    );
    dbg.kill(&mut sys).expect("kill");
}

/// `PIOCXSTATS` answers coherently through all three faces: the flat
/// local ioctl, the hierarchical `xstats` file and the remote mount.
#[test]
fn xstats_readable_through_all_three_faces() {
    let (mut sys, ctl) = boot();
    let pid = sys.spawn_program(ctl, "/bin/spin", &["spin"]).expect("spawn");
    sys.run_idle(2000);

    // Face 1: flat ioctl.
    let mut h = ProcHandle::open_ro(&mut sys, ctl, pid).expect("open flat");
    let flat = h.xstats(&mut sys).expect("flat xstats");
    h.close(&mut sys).expect("close");
    assert_eq!(flat.enabled, 1, "{flat:?}");
    assert!(flat.insns > 0, "{flat:?}");
    // spin is a store-free jump loop: it runs inside superblock
    // dispatches (a dispatch skips `fetch_user` entirely), so the dTLB
    // sees at most the one slow-path fill — the blocks are what must be
    // hot, and their counters travel the wire with the rest. The
    // retired instruction-cache counters read 0.
    assert_eq!((flat.icache_hits, flat.icache_misses, flat.icache_invalidations), (0, 0, 0));
    assert!(flat.sblock_dispatched > 0, "spin loop never dispatched a block: {flat:?}");
    assert!(flat.sblock_insns > 0, "blocks retired nothing: {flat:?}");

    // Face 2: the hierarchical read-only file.
    let fd = sys
        .host_open(ctl, &format!("/proc2/{}/xstats", pid.0), OFlags::rdonly())
        .expect("open hier");
    let mut buf = [0u8; PrXStats::WIRE_LEN];
    let n = sys.host_read(ctl, fd, &mut buf).expect("read hier");
    sys.host_close(ctl, fd).expect("close hier");
    assert_eq!(n, PrXStats::WIRE_LEN);
    let hier = PrXStats::from_bytes(&buf).expect("decode hier");
    assert_eq!(hier.enabled, 1);
    // Counters are monotone and the target kept running between reads.
    assert!(hier.insns >= flat.insns, "hier {hier:?} < flat {flat:?}");

    // Face 3: the same ioctl across the remote mount.
    let mut rh = ProcHandle::open_at(&mut sys, ctl, pid, REMOTE_MOUNT, OFlags::rdonly())
        .expect("open remote");
    let remote = rh.xstats(&mut sys).expect("remote xstats");
    rh.close(&mut sys).expect("close remote");
    assert_eq!(remote.enabled, 1);
    assert!(remote.insns >= hier.insns, "remote {remote:?} < hier {hier:?}");
}

/// `SimConfig::fast_path(false)` reaches every process the system will
/// ever run: counters stay frozen, work runs entirely down the slow
/// path, and the flag is visible in the reply. The second leg boots the
/// same workload with the fast path on and sees the caches warm — the
/// two construction-time configurations that replaced the retired
/// mid-flight toggle.
#[test]
fn disabled_fast_path_reports_and_counts_nothing() {
    let mut sys = tools::boot_demo_cfg(ksim::SimConfig::standard().fast_path(false));
    let ctl = sys.spawn_hosted("fastpath", Cred::superuser());
    let pid = sys.spawn_program(ctl, "/bin/spin", &["spin"]).expect("spawn");
    sys.run_idle(1000);
    let st = PrXStats::capture(&sys.kernel, pid).expect("xstats");
    assert_eq!(st.enabled, 0, "{st:?}");
    assert_eq!((st.tlb_hits, st.tlb_misses), (0, 0), "disabled TLB still counting: {st:?}");
    assert_eq!(
        (st.sblock_built, st.sblock_dispatched, st.sblock_insns),
        (0, 0, 0),
        "disabled superblocks still counting: {st:?}"
    );
    assert!(st.insns > 0, "target did not run: {st:?}");

    // The enabled leg: the identical workload under the fast path
    // counts and warms.
    let mut sys = tools::boot_demo_cfg(ksim::SimConfig::standard().fast_path(true));
    let ctl = sys.spawn_hosted("fastpath", Cred::superuser());
    let pid = sys.spawn_program(ctl, "/bin/spin", &["spin"]).expect("spawn");
    sys.run_idle(1000);
    let st = PrXStats::capture(&sys.kernel, pid).expect("xstats");
    assert_eq!(st.enabled, 1);
    assert!(st.sblock_insns * 2 > st.insns, "fast path never warmed: {st:?}");
}

/// A forked child starts with cold caches and its own generation
/// lineage: running both parent and child after the fork keeps their
/// counter streams separate and the child's text executes correctly
/// (fork + COW is an invalidation event, not a shared cache).
#[test]
fn fork_child_runs_correctly_with_cold_caches() {
    let (mut sys, ctl) = boot();
    let pid = sys.spawn_program(ctl, "/bin/forker", &["forker"]).expect("spawn");
    sys.run_idle(4000);
    // The forker parent exits 0 only if the child ran and exited first;
    // reaching a zombie parent with exit status 0 proves both executed.
    let st = sys.kernel.proc(pid).map(|p| (p.zombie, p.exit_status));
    match st {
        Ok((true, status)) => {
            assert_eq!(
                ksim::ptrace::decode_status(status),
                ksim::ptrace::WaitStatus::Exited(0),
                "forker failed under the fast path"
            );
        }
        other => panic!("forker did not finish: {other:?}"),
    }
}

/// A seeded store-then-load loop over eight private anonymous pages
/// that forks early, so parent and child keep storing into frames the
/// fork left shared (copy-on-write in both directions). Every load reads
/// the word its iteration just stored, so the loop is the pattern a fast
/// store that re-caches its frame exists for.
fn store_fork_source(seed: u64) -> String {
    format!(
        r#"
_start:
    movi rv, 70         ; mmap(0, 32 KiB, rw, private, -1, 0)
    movi a0, 0
    li   a1, 32768
    movi a2, 3
    movi a3, 2
    movi a4, -1
    movi a5, 0
    syscall
    mov  r18, rv
    li   r17, 32768
    movi r10, 0
    movi r11, 0
    li   r20, {seed}
    movi r22, -1
head:
    muli r20, r20, 1103515245
    addi r20, r20, 12345
    shri r16, r20, 11
    rem  r16, r16, r17
    andi r16, r16, -8
    add  r16, r16, r18
    add  r19, r10, r20
    st   r19, [r16]
    ld   r21, [r16]
    add  r11, r11, r21
    addi r10, r10, 1
    movi r14, 100
    bne  r10, r14, nofork
    movi rv, 2          ; fork at iteration 100
    syscall
    mov  r22, rv
nofork:
    movi r14, 4000
    blt  r10, r14, head
    beq  r22, zero, out
    movi rv, 7          ; the parent reaps the child
    movi a0, 0
    syscall
out:
    andi a0, r11, 127
    movi rv, 1
    syscall
"#
    )
}

/// One line per process of the store-fork family: its loop registers,
/// retirement count, exit state and an FNV digest of its 32 KiB region
/// read with kernel privilege (so a store that landed in a stale frame
/// shows even when the guest's own load agrees with it).
fn observe_store_fork(sys: &System, pid: Pid, base: u64) -> String {
    let mut out = String::new();
    let family = sys.kernel.procs.iter().filter(|(raw, p)| **raw == pid.0 || p.ppid == pid);
    for (raw, p) in family {
        let mut region = vec![0u8; 32768];
        let digest = match p.aspace.kernel_read(&sys.kernel.objects, base, &mut region) {
            Ok(()) => region.iter().fold(0xcbf2_9ce4_8422_2325u64, |h, &b| {
                (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
            }),
            Err(_) => 0,
        };
        let insns: u64 = p.lwps.iter().map(|l| l.insns).sum();
        let g = p.lwps.first().map(|l| l.gregs.clone()).unwrap_or_default();
        out.push_str(&format!(
            "  pid {raw}: insns={insns} pc={:#x} r10={} r11={:#x} zombie={} status={} region={digest:#x}\n",
            g.pc,
            g.get(10),
            g.get(11),
            p.zombie,
            p.exit_status,
        ));
    }
    out
}

/// Runs the store-fork family under one controller script and returns
/// the transcript plus the parent's `PrXStats` and iteration count at
/// the watchpoint stop. The script: let the family run past the fork,
/// grab the parent, poke a word of a page it stores to through `/proc`,
/// watch 256 bytes of another such page, continue to the watchpoint,
/// drop the watch and continue to the end.
fn store_fork_transcript(fast: bool, seed: u64) -> (String, PrXStats, u64) {
    let mut sys = tools::boot_demo_cfg(ksim::SimConfig::standard().fast_path(fast));
    let ctl = sys.spawn_hosted("fastpath", Cred::superuser());
    sys.install_program("/bin/storefork", &store_fork_source(seed));
    let pid = sys.spawn_program(ctl, "/bin/storefork", &["storefork"]).expect("spawn");
    sys.run_idle(30);
    let mut dbg = Debugger::attach(&mut sys, ctl, pid).expect("attach");
    let base = dbg.regs(&mut sys).expect("regs").get(18);
    let mut t = format!("attached:\n{}", observe_store_fork(&sys, pid, base));

    dbg.write(&mut sys, base + 8, &0x5EED_F00D_u64.to_le_bytes()).expect("poke");
    let watch = PrWatch { vaddr: base + 3 * 4096 + 512, size: 256, flags: 2 };
    dbg.h.set_watch(&mut sys, watch).expect("set watch");
    let ev = dbg.cont(&mut sys).expect("cont to the watchpoint");
    let regs = dbg.regs(&mut sys).expect("regs");
    t.push_str(&format!("{ev:?} at r16={:#x}:\n", regs.get(16)));
    t.push_str(&observe_store_fork(&sys, pid, base));
    let at_watch = PrXStats::capture(&sys.kernel, pid).expect("xstats");

    dbg.h.set_watch(&mut sys, PrWatch { size: 0, ..watch }).expect("drop watch");
    let ev = dbg.cont(&mut sys).expect("cont to the end");
    t.push_str(&format!("{ev:?}:\n{}", observe_store_fork(&sys, pid, base)));
    (t, at_watch, regs.get(10))
}

/// The store path's differential oracle: fork copy-on-write in both
/// directions, a `/proc` write into a page the loop stores to and a
/// watchpoint gained mid-loop must read the same with the fast path on
/// and off, and with it on, the load after each store is served from
/// the frame the store cached again.
#[test]
fn store_then_load_transcript_identical_fast_on_and_off() {
    for seed in [0x51_0AD5u64, 0xC0_FFEE, 0x7E57_F00D] {
        let (fast, st, iters) = store_fork_transcript(true, seed);
        let (slow, _, _) = store_fork_transcript(false, seed);
        assert_eq!(fast, slow, "seed {seed:#x}: the fast path changed the store-fork run");
        assert!(fast.contains("Watchpoint"), "seed {seed:#x}: the watch never fired:\n{fast}");
        assert!(fast.contains("Exited"), "seed {seed:#x}: the family never finished:\n{fast}");
        // Each iteration loads the word it just stored: with the frame
        // cached again by the store, nearly every such load is a frame
        // hit (a store that evicts and leaves the line empty makes none).
        assert!(
            st.tlb_frame_hits * 2 > iters,
            "seed {seed:#x}: {} frame hits over {iters} iterations: {st:?}",
            st.tlb_frame_hits
        );
    }
}
