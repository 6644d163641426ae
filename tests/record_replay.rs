//! The PR 8 determinism gate: a run *is* its input history.
//!
//! Every nondeterministic input to a simulation — construction config,
//! installs, spawns, host system calls, step batches — lands in the
//! [`ksim::Recording`] with a digest folding the input, its result and
//! the post-call clock. Replaying the log through the public host API
//! must therefore reproduce the run byte-for-byte, *including* under
//! active kernel-fault and wire-fault plans: the fault draws are
//! functions of recorded seeds and recorded call order, nothing else.
//!
//! Three gates:
//!  * a 32-seed record-then-replay oracle with kernel faults and an
//!    adversarial remote `/proc` mount both live — replayed logs must
//!    equal the originals record-for-record;
//!  * a corruption detector — flip one digest bit mid-log and replay
//!    must report a typed divergence at exactly that tick;
//!  * a `PIOCCKPT`/`PIOCRESTORE` round-trip over the faulted remote
//!    mount — restore rewinds the guest's register file to the
//!    checkpointed state even though every wire frame in between was
//!    subject to the fault plan.

use ksim::{Cred, KernelFaultRates, MountPlan, Pid, SimConfig, SysResult, System};
use tools::proc_io::ProcHandle;
use vfs::remote::{AdversaryRates, FaultRates, WireConfig};
use vfs::OFlags;

const REMOTE_MOUNT: &str = "/procr";

/// The standard mounts plus an adversarial remote `/proc`, kernel
/// faults, and the recorder — everything the oracle wants live at once.
fn faulted_recorded_config(seed: u64) -> SimConfig {
    let wire = WireConfig::faulty(seed ^ 0x51DE, FaultRates::uniform(25))
        .adversarial(AdversaryRates::uniform(40));
    SimConfig::standard()
        .mount(REMOTE_MOUNT, MountPlan::RemoteProc(wire))
        .kernel_faults(seed, KernelFaultRates::uniform(20))
        .record(true)
        .snapshot_every(8)
}

/// Drives a modest but varied workload across every surface the
/// recorder covers: spawns, local and remote `/proc` traffic, stepping,
/// signals and reaping. Individual calls are allowed to fail — under
/// the fault plans many will — but each failure is itself a recorded,
/// reproducible result.
fn drive(sys: &mut System, ctl: Pid) {
    let ticker = sys.spawn_program(ctl, "/bin/ticker", &["ticker"]);
    let forker = sys.spawn_program(ctl, "/bin/forker", &["forker"]);
    sys.run_idle(60);

    if let Ok(pid) = ticker {
        // Local flat mount: status read.
        if let Ok(fd) = sys.host_open(ctl, &format!("/proc/{:05}", pid.0), OFlags::rdonly()) {
            let mut buf = [0u8; 128];
            let _ = sys.host_read(ctl, fd, &mut buf);
            let _ = sys.host_close(ctl, fd);
        }
        // Hierarchical mount: psinfo read.
        if let Ok(fd) =
            sys.host_open(ctl, &format!("/proc2/{}/psinfo", pid.0), OFlags::rdonly())
        {
            let mut buf = [0u8; 128];
            let _ = sys.host_read(ctl, fd, &mut buf);
            let _ = sys.host_close(ctl, fd);
        }
        // Remote mount: a handle's stop/gregs/resume cycle plus stats,
        // every frame subject to the wire fault plan.
        if let Ok(mut h) = ProcHandle::open_at(sys, ctl, pid, REMOTE_MOUNT, OFlags::rdwr()) {
            let _ = h.stop(sys);
            let _ = h.gregs(sys);
            let _ = h.wire_stats(sys);
            let _ = h.resume(sys);
            let _ = h.close(sys);
        }
        let _ = sys.host_kill(ctl, pid, 9);
    }
    sys.run_idle(80);
    if let Ok(pid) = forker {
        let _ = sys.host_kill(ctl, pid, 9);
    }
    sys.run_idle(40);
    let _ = sys.host_wait(ctl);
}

fn recorded_run(seed: u64) -> System {
    let mut sys = tools::boot_demo_cfg(faulted_recorded_config(seed));
    let ctl = sys.spawn_hosted("rr-oracle", Cred::superuser());
    drive(&mut sys, ctl);
    sys
}

/// The tentpole acceptance gate: 32 seeds, kernel faults and an
/// adversarial wire both active, replay byte-identical every time.
#[test]
fn replay_matrix_32_seeds_byte_identical() {
    let mut total = 0usize;
    for i in 0..32u64 {
        let seed = 0x00DE_7EC7 + i * 0x9E37;
        let sys = recorded_run(seed);
        let rec = sys.recording().expect("recording on");
        // Fault draws legitimately shrink a seed's log (a failed spawn
        // skips its whole branch), but the fault-free boot prefix alone
        // guarantees a floor, and across seeds the workload must be
        // substantial.
        assert!(rec.len() > 15, "seed {seed:#x}: workload too small ({} records)", rec.len());
        total += rec.len();
        let replayed = match procfs::replay(&rec) {
            Ok(s) => s,
            Err(d) => panic!(
                "seed {seed:#x}: replay diverged at tick {} (expected {:#018x}, got {:#018x})",
                d.tick, d.expected, d.got
            ),
        };
        let rlog = replayed.recording().expect("recording on after replay");
        assert_eq!(
            rlog.records, rec.records,
            "seed {seed:#x}: replay produced a different log"
        );
    }
    assert!(total > 32 * 20, "matrix workload too small ({total} records across seeds)");
}

/// The replay matrix with a seeded gang-round commit order. Every seed
/// records twice with the kernel fault plan and the adversarial wire
/// both live; the two logs must be record-for-record identical, and
/// the second must replay byte-identically (the recorded config carries
/// the interleave seed, so the replay runs the same round order).
#[test]
fn replay_matrix_holds_at_every_shard_count() {
    for i in 0..32u64 {
        let seed = 0x5AD0_C0DE + i * 0x9E37;
        let at = || {
            let mut sys =
                tools::boot_demo_cfg(faulted_recorded_config(seed).interleave_seed(seed ^ 0x1EAF));
            let ctl = sys.spawn_hosted("rr-oracle", Cred::superuser());
            drive(&mut sys, ctl);
            sys
        };
        let base = at().recording().expect("recording on");
        assert!(base.len() > 15, "seed {seed:#x}: workload too small ({} records)", base.len());
        let got = at().recording().expect("recording on");
        assert_eq!(base.records, got.records, "seed {seed:#x}: log diverged between two runs");
        let replayed = match procfs::replay(&got) {
            Ok(s) => s,
            Err(d) => panic!(
                "seed {seed:#x}: replay diverged at tick {} (expected {:#018x}, got {:#018x})",
                d.tick, d.expected, d.got
            ),
        };
        assert_eq!(
            replayed.recording().expect("recording on after replay").records,
            got.records,
            "seed {seed:#x}: replay produced a different log"
        );
    }
}

/// Corrupt one recorded digest and the replay must fail *typed* and
/// *located*: a `ReplayDivergence` whose tick is exactly the corrupted
/// index, not a later cascade or a panic.
#[test]
fn corrupted_frame_reports_divergence_at_exact_tick() {
    let sys = recorded_run(0xBADF_00D1);
    let mut rec = sys.recording().expect("recording on");
    let tick = rec.len() / 3;
    rec.records[tick].digest ^= 0x80;
    match procfs::replay(&rec) {
        Ok(_) => panic!("replay accepted a corrupted log"),
        Err(d) => {
            assert_eq!(d.tick, tick, "divergence reported at the wrong tick");
            assert_ne!(d.expected, d.got);
        }
    }
}

/// Retries an operation under the fault plan: any individual frame may
/// draw a fault, but the plans here are sub-certain, so a bounded retry
/// always lands.
fn eventually<T>(what: &str, mut f: impl FnMut() -> SysResult<T>) -> T {
    let mut last = None;
    for _ in 0..400 {
        match f() {
            Ok(v) => return v,
            Err(e) => last = Some(e),
        }
    }
    panic!("{what} failed 400 straight times under the fault plan: {last:?}");
}

/// `PIOCCKPT`/`PIOCRESTORE` over the adversarial remote mount: capture
/// a stopped guest's image, let it run on, then rewind it — the
/// register file must come back exactly, with every frame of the
/// checkpoint and restore subject to wire faults.
#[test]
fn checkpoint_restore_round_trips_over_faulted_remote_mount() {
    let mut sys = tools::boot_demo_cfg(faulted_recorded_config(0x00C4_9701));
    let ctl = sys.spawn_hosted("rr-ckpt", Cred::superuser());
    let pid = sys.spawn_program(ctl, "/bin/ticker", &["ticker"]).expect("spawn ticker");
    sys.run_idle(120);

    let mut h = eventually("open", || {
        ProcHandle::open_at(&mut sys, ctl, pid, REMOTE_MOUNT, OFlags::rdwr())
    });
    eventually("stop", || h.stop(&mut sys));
    let at_ckpt = eventually("gregs", || h.gregs(&mut sys));
    let image = eventually("checkpoint", || h.checkpoint(&mut sys));
    assert!(!image.is_empty(), "checkpoint produced an empty image");

    // Run on so the register file provably moves.
    eventually("resume", || h.resume(&mut sys));
    sys.run_idle(150);
    eventually("stop again", || h.stop(&mut sys));
    let moved = eventually("gregs after run", || h.gregs(&mut sys));
    assert_ne!(at_ckpt, moved, "target never advanced between checkpoint and restore");

    // Restore is idempotent, so it is safe to retry wholesale.
    eventually("restore", || h.restore(&mut sys, &image));
    let back = eventually("gregs after restore", || h.gregs(&mut sys));
    assert_eq!(at_ckpt, back, "restore did not rewind the register file");
    let _ = h.close(&mut sys);

    // The whole dance — faults included — replays byte-identically.
    let rec = sys.recording().expect("recording on");
    let replayed = procfs::replay(&rec).expect("ckpt/restore run must replay cleanly");
    assert_eq!(replayed.recording().expect("recording").records, rec.records);
}

/// PR 9: a remote-mount configuration no longer forces `goto_tick` down
/// the full-rebuild path. Wire-session state is banked into each `Snap`
/// alongside the kernel, so navigation lands on the nearest snapshot
/// (`restores == 1`) and re-applies only the tail of the log
/// (`replays < k`) — and the restored system is still byte-faithful to
/// the recording.
#[test]
fn goto_tick_over_remote_mount_takes_the_snapshot_fast_path() {
    let sys = recorded_run(0x0FA5_7F00);
    let len = sys.recording().expect("recording on").len();
    assert!(len > 24, "workload too small to exercise navigation ({len} records)");
    let k = len * 3 / 4;
    let restored = procfs::goto_tick(&sys, k).expect("goto_tick over the remote mount");
    let stats = restored.kernel.recorder.as_ref().expect("recorder survives").stats;
    assert_eq!(
        stats.restores, 1,
        "remote-mount navigation fell back to a full rebuild: {stats:?}"
    );
    assert!(
        (stats.replays as usize) < k,
        "snapshot fast path replayed the whole log: {} >= {k}",
        stats.replays
    );
    assert_eq!(
        restored.recording().expect("recording on").records[..],
        sys.recording().expect("recording on").records[..k],
        "fast-path navigation diverged from the log prefix"
    );
}

/// Every LWP's identity, retired-instruction count and register file:
/// the state a `Steps` digest cannot see, since it folds only the
/// progress bit and the clock, and spinning guests advance the clock
/// identically whichever of them runs.
fn lwp_states(sys: &System) -> Vec<(u32, u64, isa::GregSet)> {
    sys.kernel
        .procs
        .values()
        .flat_map(|p| p.lwps.iter().map(move |l| (p.pid.0, l.insns, l.gregs.clone())))
        .collect()
}

/// A snapshot must capture every piece of scheduler state, or `goto_tick`
/// resumes a schedule that replay never produced. Three spinners under a
/// dense snapshot cadence, with `/proc` opens and closes between steps
/// so the log interleaves snapshots and `Steps` records: at every
/// position past the first snapshot, navigation must take the snapshot
/// path and land on exactly the per-LWP state a full replay of the same
/// prefix produces.
#[test]
fn goto_tick_through_a_snapshot_matches_full_replay_per_lwp() {
    let mut sys = tools::boot_demo_cfg(SimConfig::standard().record(true).snapshot_every(4));
    let ctl = sys.spawn_hosted("rr-snap", Cred::superuser());
    let spinners: Vec<Pid> = (0..3)
        .map(|_| sys.spawn_program(ctl, "/bin/spin", &["spin"]).expect("spawn spin"))
        .collect();
    for i in 0..40usize {
        for _ in 0..=i % 3 {
            sys.step();
        }
        let path = format!("/proc/{:05}", spinners[i % 3].0);
        let fd = sys.host_open(ctl, &path, OFlags::rdonly()).expect("open /proc entry");
        sys.host_close(ctl, fd).expect("close /proc entry");
    }
    let rec = sys.recording().expect("recording on");
    let first_snap = sys
        .kernel
        .recorder
        .as_ref()
        .and_then(|r| r.snaps.iter().map(|s| s.pos).find(|&p| p > 0))
        .expect("the run banked a snapshot");
    assert!(rec.len() > 100, "workload too small ({} records)", rec.len());
    for k in first_snap..=rec.len() {
        let nav = procfs::goto_tick(&sys, k).expect("goto_tick");
        let restores = nav.kernel.recorder.as_ref().expect("recorder survives").stats.restores;
        assert_eq!(restores, 1, "position {k} did not resume from a snapshot");
        let full = procfs::replay_to(&rec, k).expect("replay_to");
        assert_eq!(
            lwp_states(&nav),
            lwp_states(&full),
            "position {k}: snapshot navigation and full replay disagree"
        );
    }
}

/// A spinner read through `/proc` twelve times under a snapshot every 8
/// records: 51 records, snapshot marks at 0, 8, …, 48.
fn spinner_reads(every: usize) -> System {
    let mut sys = procfs::build_sim(&SimConfig::standard().record(true).snapshot_every(every));
    sys.install_program("/bin/spin", tools::userland::SPIN);
    let ctl = sys.spawn_hosted("rr-bank", Cred::superuser());
    let spin = sys.spawn_program(ctl, "/bin/spin", &["spin"]).expect("spawn spin");
    for _ in 0..12 {
        sys.step();
        let fd = sys.host_open(ctl, &format!("/proc/{:05}", spin.0), OFlags::rdonly()).expect("open");
        let mut buf = [0u8; 64];
        let _ = sys.host_read(ctl, fd, &mut buf);
        sys.host_close(ctl, fd).expect("close");
    }
    sys
}

fn snap_marks(sys: &System) -> Vec<usize> {
    sys.kernel.recorder.as_ref().expect("recorder").snaps.iter().map(|s| s.pos).collect()
}

/// The snapshot bank survives navigation: the system `goto_tick`
/// returns carries every snapshot up to the one it resumed from, so a
/// second, earlier goto on it resumes from a snapshot instead of
/// rebuilding from tick zero, and its recfile lists the same marks.
#[test]
fn goto_tick_carries_the_snapshot_bank() {
    let sys = spinner_reads(8);
    let n = sys.recording().expect("recording on").len();
    assert_eq!(n, 51);
    let marks: Vec<usize> = (0..=48).step_by(8).collect();
    assert_eq!(snap_marks(&sys), marks);

    let mut back = procfs::goto_tick(&sys, n - 2).expect("goto n-2");
    assert_eq!(back.kernel.recorder.as_ref().expect("recorder").stats.restores, 1);
    assert_eq!(snap_marks(&back), marks, "the restored bank lost the original marks");
    let file = ksim::recfile::load(&back.save_recfile().expect("recording on")).expect("load");
    assert_eq!(file.snap_marks, marks);

    let again = procfs::goto_tick(&back, 20).expect("goto 20");
    let stats = again.kernel.recorder.as_ref().expect("recorder").stats;
    assert_eq!(stats.restores, 1, "the second goto rebuilt from tick zero: {stats:?}");
    assert!(stats.replays <= 8, "the second goto replayed {} records", stats.replays);
    assert_eq!(
        again.recording().expect("recording on").records[..],
        sys.recording().expect("recording on").records[..20]
    );
}

/// `PIOCRECSTATS` reports the host's own replay machinery (replays,
/// restores, file counters), which no replay reproduces, so the digest
/// folds only its status and length: a recorded run that reads it
/// replays, and navigation through it resumes from a snapshot.
#[test]
fn recorded_rec_stats_calls_replay_and_resume() {
    let mut sys = procfs::build_sim(&SimConfig::standard().record(true).snapshot_every(4));
    sys.install_program("/bin/spin", tools::userland::SPIN);
    let ctl = sys.spawn_hosted("rr-stats", Cred::superuser());
    let spin = sys.spawn_program(ctl, "/bin/spin", &["spin"]).expect("spawn spin");
    let mut h = ProcHandle::open_ro(&mut sys, ctl, spin).expect("open");
    for _ in 0..3 {
        sys.step();
        h.rec_stats(&mut sys).expect("rec_stats");
        sys.step();
    }
    h.close(&mut sys).expect("close");
    let rec = sys.recording().expect("recording on");
    let replayed = procfs::replay(&rec).expect("a recorded PIOCRECSTATS must replay");
    assert_eq!(replayed.recording().expect("recording on").records, rec.records);
    for k in 4..=rec.len() {
        let back = procfs::goto_tick(&sys, k).expect("goto_tick");
        let restores = back.kernel.recorder.as_ref().expect("recorder").stats.restores;
        assert_eq!(restores, 1, "position {k} did not resume from a snapshot");
    }
}

/// A snapshot clones every LWP, so caches must cost nothing until used:
/// after a recorded `sdb` session the hosted processes' LWPs, live and
/// in every banked snapshot, still own no cache table, while the
/// target's, which ran guest code, do.
#[test]
fn hosted_lwp_caches_stay_cold_through_a_recorded_session() {
    let mut sys = tools::boot_demo_cfg(SimConfig::standard().record(true).snapshot_every(8));
    let ctl = sys.spawn_hosted("rr-sdb", Cred::superuser());
    let mut sdb = tools::Sdb::launch(&mut sys, ctl, "/bin/ticker", &["ticker"]).expect("launch");
    for line in ["break tick", "cont", "cont", "reverse-step", "cont", "step 3"] {
        sdb.exec(&mut sys, line).expect(line);
    }
    let check = |k: &ksim::Kernel, live: bool| {
        assert!(k.procs.values().filter(|p| p.hosted).count() >= 2);
        for p in k.procs.values() {
            for l in &p.lwps {
                if p.hosted {
                    assert!(l.icache.is_cold() && l.sblocks.is_cold(), "hosted pid {} warmed", p.pid);
                } else if live && p.fname == "ticker" {
                    assert!(!l.icache.is_cold() && !l.sblocks.is_cold(), "the target stayed cold");
                }
            }
        }
    };
    check(&sys.kernel, true);
    let r = sys.kernel.recorder.as_ref().expect("recorder");
    assert!(r.snaps.len() > 1, "the session banked no snapshot past the start");
    for s in &r.snaps {
        check(&s.kernel, false);
    }
}

/// `exec` reserves the decode tables of the LWP it loads a guest image
/// into, before that LWP has fetched anything, so a guest's tables are
/// not taken mid-run; the reserved tables hold nothing and count
/// nothing. The hosted parent, which never execs, still owns none.
#[test]
fn exec_reserves_guest_tables_and_hosted_ones_stay_cold() {
    let mut sys = tools::boot_demo();
    let ctl = sys.spawn_hosted("rr-exec", Cred::superuser());
    let pid = sys.spawn_program(ctl, "/bin/ticker", &["ticker"]).expect("spawn");
    let guest = &sys.kernel.procs[&pid.0].lwps[0];
    assert_eq!(guest.insns, 0, "the guest ran before the check");
    assert!(!guest.icache.is_cold() && !guest.sblocks.is_cold(), "exec left the guest cold");
    assert_eq!(guest.icache.stats(), isa::InsnCacheStats::default());
    assert_eq!(guest.sblocks.stats(), isa::SBlockStats::default());
    for l in &sys.kernel.procs[&ctl.0].lwps {
        assert!(l.icache.is_cold() && l.sblocks.is_cold(), "the hosted parent warmed");
    }
}
