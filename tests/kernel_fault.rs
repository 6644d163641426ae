//! The kernel fault-schedule oracle: every `/proc` controller must
//! survive a dying, starved, racing target.
//!
//! A seeded [`ksim::KernelFaultPlan`] injects `ENOMEM` at vm allocation
//! sites, `EAGAIN` at fork/spawn, `EINTR` and spurious wakeups on
//! blocking `/proc` waits, and asynchronous target death between any two
//! controller operations. Under 32 pinned seeds of that schedule, the
//! controllers (`truss`, the debugger, raw `ProcHandle` traffic) driven
//! through all three faces — flat ioctl, hierarchical ctl, remote
//! mount — must:
//!
//! * never panic — every failure is a typed [`Errno`];
//! * never leave a process event-stopped after the controller unwinds;
//! * never leave an orphaned breakpoint byte in a live target;
//! * replay the same seed to the same transcript, and run a zero-rate
//!   plan byte-for-byte identically to no plan at all.

use ksim::{Cred, Errno, KernelFaultRates, MountPlan, Pid, SimConfig, System};
use procfs::hier::{PCRUN, PCSTOP};
use procfs::{ctl_record, PrRun};
use tools::proc_io::ProcHandle;
use tools::{truss_command, DebugEvent, Debugger, TrussOptions};
use vfs::remote::WireConfig;
use vfs::OFlags;

/// Third face: the flat interface re-exported across the wire shim.
const REMOTE_MOUNT: &str = "/procr";

/// The 32 pinned oracle seeds.
fn seeds() -> impl Iterator<Item = u64> {
    (0..32u64).map(|i| 0xFA_017_000 + i)
}

/// Fault intensity for a seed: 2%–17.5% per site, swept across seeds.
fn rates_for(i: u64) -> KernelFaultRates {
    KernelFaultRates::uniform(20 + (i % 32) as u16 * 5)
}

/// The standard mounts plus the remote face, as a declarative config;
/// fault schedules are added per test and consumed at construction.
fn config() -> SimConfig {
    SimConfig::standard().mount(REMOTE_MOUNT, MountPlan::RemoteProc(WireConfig::clean()))
}

/// Boots the demo system under `cfg`.
fn boot_cfg(cfg: SimConfig) -> (System, Pid) {
    let mut sys = tools::boot_demo_cfg(cfg);
    let ctl = sys.spawn_hosted("kfault-oracle", Cred::superuser());
    (sys, ctl)
}

/// Boots the fault-free demo system.
fn boot() -> (System, Pid) {
    boot_cfg(config())
}

/// The failure modes a controller is allowed to surface under injection:
/// a typed errno from the injected fault itself, the target vanishing,
/// retry exhaustion, or the wait machinery giving up on a corpse.
fn clean_errno(e: Errno) -> bool {
    matches!(
        e,
        Errno::EAGAIN
            | Errno::EINTR
            | Errno::ENOMEM
            | Errno::ESRCH
            | Errno::ENOENT
            | Errno::EIO
            | Errno::EBUSY
            | Errno::EBADF
            | Errno::EDEADLK
    )
}

/// Spawns with the same bounded EAGAIN backoff the tools use.
fn spawn_retry(sys: &mut System, ctl: Pid, path: &str) -> Result<Pid, Errno> {
    let name = path.rsplit('/').next().unwrap_or(path);
    for attempt in 0..=tools::proc_io::TRANSIENT_RETRIES {
        match sys.spawn_program(ctl, path, &[name]) {
            Ok(p) => return Ok(p),
            Err(Errno::EAGAIN) => sys.run_idle(1 << attempt),
            Err(e) => return Err(e),
        }
    }
    Err(Errno::EAGAIN)
}

/// Best-effort release of a target the *test itself* stopped: wait for
/// any pending directed stop to land, then run it. (The tools' own
/// unwind paths are under test; this is only for raw-handle traffic.)
fn release(sys: &mut System, ctl: Pid, pid: Pid) {
    for _ in 0..16 {
        let Ok(p) = sys.kernel.proc(pid) else { return };
        if p.zombie {
            return;
        }
        if p.is_stopped() {
            if let Ok(mut h) = ProcHandle::open_rw(sys, ctl, pid) {
                let _ = h.resume(sys);
                let _ = h.close(sys);
            }
        }
        sys.run_idle(50);
    }
}

/// Face 1a: a complete `truss` run over the flat local mount.
fn truss_session(sys: &mut System, ctl: Pid) -> String {
    match truss_command(sys, ctl, "/bin/greeter", &["greeter"], &TrussOptions::default()) {
        Ok(r) => format!("truss ok lines={} exits={}", r.lines.len(), r.exits.len()),
        Err(e) => {
            assert!(clean_errno(e), "truss failed dirty: {e}");
            format!("truss err {}", e.name())
        }
    }
}

/// Face 1b: a breakpoint debugging session over the flat local mount.
/// Returns the transcript line; panics on any non-clean failure or an
/// orphaned breakpoint byte.
fn debugger_session(sys: &mut System, ctl: Pid) -> String {
    let mut dbg = match Debugger::launch(sys, ctl, "/bin/ticker", &["ticker"]) {
        Ok(d) => d,
        Err(e) => {
            assert!(clean_errno(e), "launch failed dirty: {e}");
            return format!("dbg launch-err {}", e.name());
        }
    };
    let pid = dbg.pid();
    let mut line = format!("dbg pid={}", pid.0);
    let tick = dbg.sym("tick").unwrap_or(0);
    // Remember the pristine text word so an orphaned trap byte is
    // detectable after the session unwinds.
    let mut pristine = [0u8; 8];
    let have_pristine = tick != 0 && dbg.read(sys, tick, &mut pristine).is_ok();
    if tick != 0 {
        match dbg.set_breakpoint(sys, tick) {
            Ok(()) => {
                for _ in 0..2 {
                    match dbg.cont(sys) {
                        Ok(DebugEvent::Exited(st)) => {
                            line.push_str(&format!(" exited={st:#x}"));
                            return line;
                        }
                        Ok(ev) => line.push_str(&format!(" ev={}", event_tag(&ev))),
                        Err(e) => {
                            assert!(clean_errno(e), "cont failed dirty: {e}");
                            line.push_str(&format!(" cont-err={}", e.name()));
                            break;
                        }
                    }
                }
            }
            Err(e) => {
                assert!(clean_errno(e), "set_breakpoint failed dirty: {e}");
                line.push_str(&format!(" bp-err={}", e.name()));
            }
        }
    }
    match dbg.detach(sys) {
        Ok(()) => line.push_str(" detached"),
        Err(e) => {
            assert!(clean_errno(e), "detach failed dirty: {e}");
            line.push_str(&format!(" detach-err={}", e.name()));
        }
    }
    // No orphaned breakpoints: if the target survived the session, its
    // text must hold the pristine word again.
    if have_pristine {
        if let Ok(p) = sys.kernel.proc(pid) {
            if !p.zombie {
                if let Ok(mut h) = ProcHandle::open_ro(sys, ctl, pid) {
                    let mut now = [0u8; 8];
                    if h.read_mem(sys, tick, &mut now) == Ok(8) {
                        assert_eq!(
                            now, pristine,
                            "pid {pid}: orphaned breakpoint byte after detach"
                        );
                    }
                    let _ = h.close(sys);
                }
            }
        }
    }
    line
}

fn event_tag(ev: &DebugEvent) -> &'static str {
    match ev {
        DebugEvent::Breakpoint { .. } => "bp",
        DebugEvent::Signal(_) => "sig",
        DebugEvent::SyscallEntry(_) => "entry",
        DebugEvent::SyscallExit(_) => "exit",
        DebugEvent::Fault(_) => "fault",
        DebugEvent::Stepped => "step",
        DebugEvent::Watchpoint => "watch",
        DebugEvent::Stopped => "stop",
        DebugEvent::Exited(_) => "exited",
    }
}

/// Face 2: hierarchical ctl-file traffic (status read, PCSTOP/PCRUN).
fn hier_session(sys: &mut System, ctl: Pid) -> String {
    let pid = match spawn_retry(sys, ctl, "/bin/spin") {
        Ok(p) => p,
        Err(e) => {
            assert!(clean_errno(e), "spawn failed dirty: {e}");
            return format!("hier spawn-err {}", e.name());
        }
    };
    let mut line = format!("hier pid={}", pid.0);
    match sys.host_open(ctl, &format!("/proc2/{}/status", pid.0), OFlags::rdonly()) {
        Ok(fd) => {
            let mut buf = [0u8; 4096];
            match sys.host_read(ctl, fd, &mut buf) {
                Ok(n) => line.push_str(&format!(" status={n}")),
                Err(e) => {
                    assert!(clean_errno(e), "status read failed dirty: {e}");
                    line.push_str(&format!(" status-err={}", e.name()));
                }
            }
            let _ = sys.host_close(ctl, fd);
        }
        Err(e) => {
            assert!(clean_errno(e), "status open failed dirty: {e}");
            line.push_str(&format!(" open-err={}", e.name()));
        }
    }
    match sys.host_open(ctl, &format!("/proc2/{}/ctl", pid.0), OFlags::wronly()) {
        Ok(cfd) => {
            for (tag, rec) in [
                ("stop", ctl_record(PCSTOP, &[])),
                ("run", ctl_record(PCRUN, &PrRun::default().to_bytes())),
            ] {
                match sys.host_write(ctl, cfd, &rec) {
                    Ok(_) => line.push_str(&format!(" {tag}-ok")),
                    Err(e) => {
                        assert!(clean_errno(e), "{tag} failed dirty: {e}");
                        line.push_str(&format!(" {tag}-err={}", e.name()));
                    }
                }
            }
            let _ = sys.host_close(ctl, cfd);
        }
        Err(e) => {
            assert!(clean_errno(e), "ctl open failed dirty: {e}");
            line.push_str(&format!(" ctl-err={}", e.name()));
        }
    }
    release(sys, ctl, pid);
    line
}

/// Face 3: raw handle traffic over the remote mount (stop, status,
/// resume, fault counters) — the same kernel injection reaches the wire
/// client because `EINTR`, death and `ENOMEM` live below the shim.
fn remote_session(sys: &mut System, ctl: Pid) -> String {
    let pid = match spawn_retry(sys, ctl, "/bin/spin") {
        Ok(p) => p,
        Err(e) => {
            assert!(clean_errno(e), "spawn failed dirty: {e}");
            return format!("remote spawn-err {}", e.name());
        }
    };
    let mut line = format!("remote pid={}", pid.0);
    match ProcHandle::open_at(sys, ctl, pid, REMOTE_MOUNT, OFlags::rdwr()) {
        Ok(mut h) => {
            match h.stop(sys) {
                Ok(st) => line.push_str(&format!(" stop-why={:?}", st.why)),
                Err(e) => {
                    assert!(clean_errno(e), "remote stop failed dirty: {e}");
                    line.push_str(&format!(" stop-err={}", e.name()));
                }
            }
            match h.status(sys) {
                Ok(st) => line.push_str(&format!(" flags={:#x}", st.flags)),
                Err(e) => {
                    assert!(clean_errno(e), "remote status failed dirty: {e}");
                    line.push_str(&format!(" status-err={}", e.name()));
                }
            }
            match h.kfault_stats(sys) {
                Ok(st) => line.push_str(&format!(" deaths={}", st.deaths)),
                Err(e) => {
                    assert!(clean_errno(e), "remote kfaultstats failed dirty: {e}");
                    line.push_str(&format!(" kstats-err={}", e.name()));
                }
            }
            if let Err(e) = h.resume(sys) {
                assert!(clean_errno(e), "remote resume failed dirty: {e}");
                line.push_str(&format!(" resume-err={}", e.name()));
            }
            let _ = h.close(sys);
        }
        Err(e) => {
            assert!(clean_errno(e), "remote open failed dirty: {e}");
            line.push_str(&format!(" open-err={}", e.name()));
        }
    }
    release(sys, ctl, pid);
    line
}

/// One seed's worth of controller traffic through all three faces.
fn drive(sys: &mut System, ctl: Pid) -> Vec<String> {
    vec![
        truss_session(sys, ctl),
        debugger_session(sys, ctl),
        hier_session(sys, ctl),
        remote_session(sys, ctl),
    ]
}

/// After the controllers have unwound, no live simulated process may be
/// left event-stopped (hosted controllers and zombies excepted).
fn assert_all_released(sys: &mut System, seed: u64) {
    // Let any pending directed stop land first, so a latched-but-not-yet
    // -stopped target cannot slip past the assertion.
    sys.run_idle(300);
    let stuck: Vec<u32> = sys
        .kernel
        .procs
        .iter()
        .filter(|(_, p)| !p.hosted && !p.zombie && p.is_stopped())
        .map(|(id, _)| *id)
        .collect();
    assert!(stuck.is_empty(), "seed {seed:#x}: pids {stuck:?} left stopped after unwind");
}

/// The tentpole gate: 32 pinned seeds of mixed kernel faults, every
/// controller failure typed, every target released, no orphaned
/// breakpoints — and at least one seed must actually inject something
/// (the schedule is not vacuous).
#[test]
fn fault_matrix_holds_for_32_seeds() {
    let mut total_injected = 0u64;
    for (i, seed) in seeds().enumerate() {
        let (mut sys, ctl) = boot_cfg(config().kernel_faults(seed, rates_for(i as u64)));
        drive(&mut sys, ctl);
        assert_all_released(&mut sys, seed);
        let st = sys.kfault_stats();
        total_injected += st.enomem_vm
            + st.eagain_fork
            + st.eagain_spawn
            + st.eintr_wait
            + st.spurious_wakeups
            + st.deaths;
    }
    assert!(total_injected > 0, "32 seeds injected nothing — the plan is not wired in");
}

/// Replaying a seed reproduces the same transcript and the same
/// injection counters, bit for bit.
#[test]
fn same_seed_replays_identically() {
    for seed in [0xFA_017_003u64, 0xFA_017_01C] {
        let run = |seed: u64| {
            let (mut sys, ctl) =
                boot_cfg(config().kernel_faults(seed, KernelFaultRates::uniform(120)));
            let t = drive(&mut sys, ctl);
            (t, sys.kfault_stats())
        };
        let a = run(seed);
        let b = run(seed);
        assert_eq!(a.0, b.0, "seed {seed:#x}: transcripts diverged");
        assert_eq!(a.1, b.1, "seed {seed:#x}: injection counters diverged");
    }
}

/// The determinism contract: a plan whose rates are all zero consumes no
/// generator state, so it reproduces the no-plan run byte for byte; its
/// counters stay zero.
#[test]
fn empty_plan_reproduces_clean_run() {
    let clean = {
        let (mut sys, ctl) = boot();
        drive(&mut sys, ctl)
    };
    let zeroed = {
        let (mut sys, ctl) =
            boot_cfg(config().kernel_faults(0xDEAD_BEEF, KernelFaultRates::default()));
        let t = drive(&mut sys, ctl);
        assert_eq!(
            sys.kfault_stats(),
            ksim::KFaultStats::default(),
            "a zero-rate plan must inject nothing"
        );
        t
    };
    assert_eq!(clean, zeroed, "zero-rate plan diverged from the clean run");
}

/// A certain-death schedule: every controller op kills some target, yet
/// every tool still unwinds to a typed result.
#[test]
fn certain_death_degrades_cleanly() {
    let (mut sys, ctl) =
        boot_cfg(config().kernel_faults(7, KernelFaultRates { death: 1000, ..Default::default() }));
    drive(&mut sys, ctl);
    assert_all_released(&mut sys, 7);
    assert!(sys.kfault_stats().deaths > 0, "nothing died under a certain-death plan");
}

/// Satellite 3 (local): `ProcHandle::scoped` must release its descriptor
/// when the body panics. With run-on-last-close set and the target
/// stopped, the last close must set the target running again — the
/// paper's `PIOCSRLC` promise — even though the unwind is a panic, not a
/// return.
#[test]
fn run_on_last_close_survives_panic_unwind_locally() {
    run_on_last_close_under_panic("/proc");
}

/// Satellite 3 (remote): the same promise across the wire shim, where
/// the close travels as a session op rather than a direct host call.
#[test]
fn run_on_last_close_survives_panic_unwind_remotely() {
    run_on_last_close_under_panic(REMOTE_MOUNT);
}

fn run_on_last_close_under_panic(mount: &str) {
    let (mut sys, ctl) = boot();
    let pid = spawn_retry(&mut sys, ctl, "/bin/spin").expect("spawn");
    sys.run_idle(50);
    let unwound = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        let _: Result<(), Errno> =
            ProcHandle::scoped_at(&mut sys, ctl, pid, mount, OFlags::rdwr(), |sys, h| {
                h.set_run_on_last_close(sys, true)?;
                h.stop(sys)?;
                assert!(
                    sys.kernel.proc(pid).map(|p| p.is_stopped()).unwrap_or(false),
                    "target must be stopped inside the scope"
                );
                panic!("controller crashed while its target was stopped");
            });
    }));
    assert!(unwound.is_err(), "the panic must propagate out of the scope");
    // The guard closed the descriptor during the unwind; run-on-last-
    // close must have released the target.
    sys.run_idle(100);
    let p = sys.kernel.proc(pid).expect("target survives its controller");
    assert!(!p.is_stopped(), "{mount}: target left stopped after panic unwind");
}

/// Satellite 1: a target that dies between POLLHUP readiness and
/// classification must surface from `wait_event_any` as a clean
/// `DebugEvent::Exited`, not a raw error from waiting on a corpse.
#[test]
fn wait_event_any_reports_death_as_exited() {
    let (mut sys, ctl) = boot();
    let a = Debugger::launch(&mut sys, ctl, "/bin/ticker", &["ticker"]).expect("launch a");
    let b = Debugger::launch(&mut sys, ctl, "/bin/spin", &["spin"]).expect("launch b");
    let victim = b.pid();
    let mut dbgs = vec![a, b];
    for d in &mut dbgs {
        d.h.resume(&mut sys).expect("resume");
    }
    // Kill target b out from under its debugger: the next poll sees
    // POLLHUP on a zombie, and classification must not try PIOCWSTOP.
    sys.force_kill(victim, ksim::signal::SIGKILL);
    sys.run_idle(100);
    let (i, ev) = tools::debugger::wait_event_any(&mut sys, &mut dbgs)
        .expect("multi-target wait survives one target vanishing");
    assert_eq!(i, 1, "the dead target is the one reported");
    assert!(matches!(ev, DebugEvent::Exited(_)), "got {ev:?}, wanted Exited");
}

/// The spurious-wakeup site: with wakeups certain and everything else
/// off, `host_poll_in` returns with nothing ready and the poll loops
/// must simply go around again — bounded, counted, and ultimately
/// successful once a real event lands.
#[test]
fn spurious_wakeups_are_absorbed() {
    let (mut sys, ctl) = boot_cfg(
        config().kernel_faults(11, KernelFaultRates { wakeup: 1000, ..Default::default() }),
    );
    let a = Debugger::launch(&mut sys, ctl, "/bin/spin", &["spin"]).expect("launch");
    let victim = a.pid();
    let mut dbgs = vec![a];
    dbgs[0].h.resume(&mut sys).expect("resume");
    sys.force_kill(victim, ksim::signal::SIGKILL);
    sys.run_idle(100);
    let (i, ev) = tools::debugger::wait_event_any(&mut sys, &mut dbgs)
        .expect("wait survives spurious wakeups");
    assert_eq!((i, matches!(ev, DebugEvent::Exited(_))), (0, true));
    assert!(
        sys.kfault_stats().spurious_wakeups > 0,
        "a certain wakeup rate injected nothing across the wait"
    );
}

/// The E12 matrix: sweeps fault intensity against each tool and
/// classifies every session as full recovery (no typed error surfaced)
/// or graceful degradation (a typed error surfaced, session still
/// unwound cleanly), then checks the matrix against its golden file.
/// Print it with `cargo test -q --test kernel_fault -- --nocapture e12`.
#[test]
fn e12_fault_matrix_sweep() {
    use std::fmt::Write;
    const TOOLS: [&str; 4] = ["truss", "debugger", "hier", "remote"];
    let mut out = String::new();
    writeln!(
        out,
        "rate   {:>18} {:>18} {:>18} {:>18}   (recovered/degraded of 8 seeds)",
        TOOLS[0], TOOLS[1], TOOLS[2], TOOLS[3]
    )
    .expect("write to a String");
    for permille in [0u16, 50, 150, 300, 600] {
        let mut counts = [[0u32; 2]; 4];
        for s in 0..8u64 {
            let seed = 0xE12_000 + s;
            let mut cfg = config();
            if permille > 0 {
                cfg = cfg.kernel_faults(seed, KernelFaultRates::uniform(permille));
            }
            let (mut sys, ctl) = boot_cfg(cfg);
            for (t, line) in drive(&mut sys, ctl).iter().enumerate() {
                counts[t][usize::from(line.contains("err"))] += 1;
            }
            assert_all_released(&mut sys, seed);
        }
        let cell = |t: usize| format!("{:>9}/{}", counts[t][0], counts[t][1]);
        writeln!(
            out,
            "{permille:>4}\u{2030} {:>18} {:>18} {:>18} {:>18}",
            cell(0),
            cell(1),
            cell(2),
            cell(3)
        )
        .expect("write to a String");
    }
    print!("{out}");
    assert_eq!(out, include_str!("figures/e12_fault_matrix.txt"), "E12 matrix changed");
}

/// The execution fast path's differential oracle, fault-suite half:
/// with the software TLB and superblocks forced off,
/// every seed of the kernel fault schedule must reproduce the
/// fast-path-enabled transcript and injection counters byte for byte.
/// The caches may only change *when* work happens, never *what*
/// happens — including which RNG rolls the memory-pressure and fault
/// plans consume.
#[test]
fn fast_path_off_is_transcript_identical_for_32_seeds() {
    for (i, seed) in seeds().enumerate() {
        let run = |fast: bool| {
            let (mut sys, ctl) =
                boot_cfg(config().fast_path(fast).kernel_faults(seed, rates_for(i as u64)));
            let t = drive(&mut sys, ctl);
            (t, sys.kfault_stats())
        };
        let on = run(true);
        let off = run(false);
        assert_eq!(on.0, off.0, "seed {seed:#x}: fast path changed the transcript");
        assert_eq!(on.1, off.1, "seed {seed:#x}: fast path changed the injection counters");
    }
}

/// Satellite 2: a targeted-death plan only kills processes a controller
/// currently holds a writable `/proc` descriptor on. With death certain
/// on every op, the held target dies and the bystander survives the
/// whole session.
#[test]
fn targeted_death_spares_bystanders() {
    let (mut sys, ctl) = boot_cfg(
        config().targeted_kernel_faults(99, KernelFaultRates { death: 1000, ..Default::default() }),
    );
    let held = spawn_retry(&mut sys, ctl, "/bin/spin").expect("spawn held");
    let bystander = spawn_retry(&mut sys, ctl, "/bin/spin").expect("spawn bystander");
    sys.run_idle(50);
    // No writable descriptor is open yet: certain-death rolls are spent
    // with no victim, and both targets live.
    let _ = sys.host_poll_in(ctl, &[]);
    assert!(!sys.kernel.proc(held).map(|p| p.zombie).unwrap_or(true), "held died early");
    match ProcHandle::open_rw(&mut sys, ctl, held) {
        Ok(mut h) => {
            // Every subsequent op rolls certain death against the set
            // of held targets — which is exactly {held}.
            for _ in 0..4 {
                match h.status(&mut sys) {
                    Ok(_) => {}
                    Err(e) => assert!(clean_errno(e), "status failed dirty: {e}"),
                }
            }
            let _ = h.close(&mut sys);
        }
        Err(e) => assert!(clean_errno(e), "open failed dirty: {e}"),
    }
    sys.run_idle(100);
    let held_gone = sys.kernel.proc(held).map(|p| p.zombie).unwrap_or(true);
    let bystander_alive = sys.kernel.proc(bystander).map(|p| !p.zombie).unwrap_or(false);
    assert!(held_gone, "certain targeted death never killed the held target");
    assert!(bystander_alive, "targeted death killed a bystander");
    assert!(sys.kfault_stats().deaths > 0, "no deaths counted");
    release(&mut sys, ctl, bystander);
}

/// Satellite (PR 7): the mid-op death site fires *inside* a single
/// blocking op's pump loop — after `PIOCWSTOP` has latched its target
/// but before the wait completes, which the per-op site (rolled only at
/// op entry) can never reach. A targeted certain-mid-op plan kills the
/// held target between two scheduler steps of one stop; the controller
/// surfaces a typed result, and the mid-op counter — not the per-op
/// one — records the death.
#[test]
fn target_death_mid_wstop_is_typed_and_counted() {
    let (mut sys, ctl) = boot_cfg(config().targeted_kernel_faults(
        0x3D0_7EA,
        KernelFaultRates { mid_op: 1000, ..Default::default() },
    ));
    let pid = spawn_retry(&mut sys, ctl, "/bin/spin").expect("spawn");
    sys.run_idle(50);
    let mut h = ProcHandle::open_rw(&mut sys, ctl, pid).expect("open");
    // The wait either reports a stop that raced ahead of the kill or
    // degrades to a typed error — never a panic, never a hang.
    match h.stop(&mut sys) {
        Ok(_) => {}
        Err(e) => assert!(clean_errno(e), "mid-op death surfaced dirty: {e}"),
    }
    let _ = h.close(&mut sys);
    sys.run_idle(100);
    let st = sys.kfault_stats();
    assert!(st.deaths_mid_op > 0, "the in-pump hook never fired");
    assert_eq!(st.deaths, 0, "the per-op site must not have fired (its rate is zero)");
    assert!(
        sys.kernel.proc(pid).map(|p| p.zombie).unwrap_or(true),
        "certain mid-op death left the held target alive"
    );
    assert_all_released(&mut sys, 0x3D0_7EA);
}

/// The 32-seed fault matrix under a seeded gang-round commit order, run
/// twice per seed. Kernel fault injection consumes generator state per
/// *site visit*, and the round order is a pure function of the
/// interleave seed, so the controller transcripts, the injection
/// counters and the final clock must be byte-identical between runs.
#[test]
fn fault_matrix_transcripts_identical_across_shard_counts() {
    for (i, seed) in seeds().enumerate() {
        let run = || {
            let (mut sys, ctl) =
                boot_cfg(config().interleave_seed(seed).kernel_faults(seed, rates_for(i as u64)));
            let t = drive(&mut sys, ctl);
            assert_all_released(&mut sys, seed);
            (t, sys.kfault_stats(), sys.kernel.clock)
        };
        let base = run();
        let got = run();
        assert_eq!(base.0, got.0, "seed {seed:#x}: transcripts diverged between two runs");
        assert_eq!(base.1, got.1, "seed {seed:#x}: injection counters diverged between two runs");
        assert_eq!(base.2, got.2, "seed {seed:#x}: clock diverged between two runs");
    }
}

/// PR 10 satellite: `controller_death` fires *inside the scheduler* — a
/// hosted controller that holds a target stopped (with run-on-last-close
/// latched) dies between two gang rounds. Its exit closes its `/proc`
/// descriptors, which must clear the stop directive and set the target
/// running: no fault seed may deadlock or leak a stopped process, and
/// the simulation keeps making progress after its controller is gone.
#[test]
fn controller_death_in_scheduler_releases_targets_at_every_shard_count() {
    for k in [1u64, 2, 4] {
        let (mut sys, ctl) = boot_cfg(config().interleave_seed(0xC0DE).kernel_faults(
            0x0C01_70DE + k,
            KernelFaultRates { controller_death: 1000, ..Default::default() },
        ));
        let pid = sys.spawn_program(ctl, "/bin/spin", &["spin"]).expect("spawn");
        // Host-API setup does not step the machine, so the certain-death
        // roll cannot have fired yet: open a writable handle, latch
        // run-on-last-close, then ask for a blocking stop.
        let mut h = ProcHandle::open_rw(&mut sys, ctl, pid).expect("open handle");
        h.set_run_on_last_close(&mut sys, true).expect("PIOCSRLC");
        // The blocking stop pumps the scheduler, and the first round
        // kills the controller out from under its own wait: either the
        // stop latched ahead of the death or the wait surfaces a typed
        // error from the corpse — never a hang.
        match h.stop(&mut sys) {
            Ok(_) => {}
            Err(e) => assert!(clean_errno(e), "run {k}: stop died dirty: {e}"),
        }
        let _ = h.close(&mut sys);
        sys.run_idle(200);
        let st = sys.kfault_stats();
        assert!(st.controller_deaths >= 1, "run {k}: the scheduler site never fired");
        assert!(
            sys.kernel.proc(ctl).map(|p| p.zombie).unwrap_or(true),
            "run {k}: certain controller death left the controller alive"
        );
        assert!(
            sys.kernel.proc(pid).map(|p| !p.zombie).unwrap_or(false),
            "run {k}: the target must survive its controller"
        );
        assert_all_released(&mut sys, k);
        // Progress after the controller died: the released target keeps
        // retiring instructions.
        let before = sys.kernel.proc(pid).map(|p| p.cpu_time).unwrap_or(0);
        sys.run_idle(20);
        let after = sys.kernel.proc(pid).map(|p| p.cpu_time).unwrap_or(0);
        assert!(after > before, "run {k}: no progress after controller death");
    }
}

/// Fault-free runs through `scoped` also release on the way out (the
/// non-panic half of the guard).
#[test]
fn scoped_releases_on_ordinary_return() {
    let (mut sys, ctl) = boot();
    let pid = spawn_retry(&mut sys, ctl, "/bin/spin").expect("spawn");
    sys.run_idle(50);
    let why = ProcHandle::scoped(&mut sys, ctl, pid, OFlags::rdwr(), |sys, h| {
        h.set_run_on_last_close(sys, true)?;
        Ok(h.stop(sys)?.why)
    })
    .expect("scoped session");
    assert_eq!(format!("{why:?}"), "Requested");
    sys.run_idle(100);
    let p = sys.kernel.proc(pid).expect("alive");
    assert!(!p.is_stopped(), "target left stopped after scoped return");
}
