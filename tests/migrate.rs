//! The PR 9 migration gate: `PIOCMIGRATE` is exactly-once over the
//! adversarial wire.
//!
//! * a 32-seed oracle — each seed migrates a live guest from a source
//!   system into a destination reached through a faulted + adversarial
//!   remote `/proc` mount, with kernel faults live on both sides. Every
//!   migration must *complete exactly once*: the destination guest is
//!   transcript-identical (register file) to a local `PIOCRESTORE` of
//!   the same image, and the source copy is retired;
//! * an abort leg — a dead wire must surface the typed
//!   [`MigrateError::Transport`] with the source still running and the
//!   destination holding nothing;
//! * an end-to-end digest leg — a transfer whose declared digest does
//!   not match the received bytes is refused (`EIO`, computed digest in
//!   the reply) *before* anything is materialised;
//! * a durability leg — a recording written by one system loads and
//!   replays byte-identically in another, with nothing but the recfile
//!   bytes crossing between them.

use ksim::{Cred, KernelFaultRates, MigrateError, MountPlan, Pid, SimConfig, SysResult, System};
use tools::proc_io::ProcHandle;
use vfs::remote::{AdversaryRates, FaultRates, RetryPolicy, WireConfig};

const DST_MOUNT: &str = "/procr";

/// Retries an operation under the fault plans: sub-certain rates mean a
/// bounded retry always lands.
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

/// Transient-only kernel faults: ENOMEM/EAGAIN/EINTR/wakeup injection
/// live on both sides, but no death injection — a fault plan that kills
/// the guest at will makes "exactly-once" unfalsifiable (a dead guest
/// is indistinguishable from a never-materialised one). Placeholder
/// death resilience is exercised separately below.
fn transient_kfaults(permille: u16) -> KernelFaultRates {
    KernelFaultRates {
        enomem: permille,
        eagain: permille,
        eintr: permille,
        wakeup: permille,
        death: 0,
        mid_op: 0,
        controller_death: 0,
    }
}

/// A source system with kernel faults live and one running guest.
fn src_system(seed: u64) -> (System, Pid, Pid) {
    let mut sys =
        tools::boot_demo_cfg(SimConfig::standard().kernel_faults(seed, transient_kfaults(10)));
    let ctl = sys.spawn_hosted("mig-src", Cred::superuser());
    let target = eventually("spawn ticker", || sys.spawn_program(ctl, "/bin/ticker", &["ticker"]));
    sys.run_idle(120);
    (sys, ctl, target)
}

/// A destination system whose `/proc` is also reachable through a
/// faulted, adversarial remote mount — the wire the image crosses.
fn dst_system(seed: u64) -> (System, Pid) {
    let wire = WireConfig::faulty(seed ^ 0x51DE, FaultRates::uniform(25))
        .adversarial(AdversaryRates::uniform(40));
    let mut sys = tools::boot_demo_cfg(
        SimConfig::standard()
            .mount(DST_MOUNT, MountPlan::RemoteProc(wire))
            .kernel_faults(seed ^ 0x0D57, transient_kfaults(10)),
    );
    let ctl = sys.spawn_hosted("mig-dst", Cred::superuser());
    (sys, ctl)
}

/// Restores `image` into a placeholder on a clean local system and
/// returns the restored register file — the reference transcript a
/// migrated guest must match.
fn local_restore_gregs(image: &[u8]) -> isa::GregSet {
    let mut sys = tools::boot_demo_cfg(SimConfig::standard());
    let ctl = sys.spawn_hosted("mig-local", Cred::superuser());
    let pid = sys.spawn_program(ctl, "/bin/spin", &["migrated"]).expect("spawn placeholder");
    sys.run_idle(30);
    let mut h = ProcHandle::open_rw(&mut sys, ctl, pid).expect("open placeholder");
    h.stop(&mut sys).expect("stop placeholder");
    h.restore(&mut sys, image).expect("local restore");
    let regs = h.gregs(&mut sys).expect("gregs after restore");
    let _ = h.close(&mut sys);
    regs
}

/// The 32-seed exactly-once oracle.
#[test]
fn migration_is_exactly_once_across_32_seeds() {
    for i in 0..32u64 {
        let seed = 0x3160_0001 + i * 0x9E37;
        let (mut src, sctl, target) = src_system(seed);

        // The reference image: stop the guest and checkpoint it through
        // the test's own handle. The driver will stop (idempotent) and
        // checkpoint the *same* state, so the destination must land
        // exactly where a local restore of this image lands.
        let mut h = ProcHandle::open_rw(&mut src, sctl, target).expect("open source target");
        eventually("stop", || h.stop(&mut src));
        let reference = eventually("reference checkpoint", || h.checkpoint(&mut src));
        let _ = h.close(&mut src);

        let (mut dst, dctl) = dst_system(seed);
        let report = match tools::migrate::migrate(
            &mut src, sctl, "/proc", target, &mut dst, dctl, DST_MOUNT,
        ) {
            Ok(r) => r,
            Err(e) => panic!("seed {seed:#x}: migrate failed: {e}"),
        };
        assert_eq!(report.bytes, reference.len(), "seed {seed:#x}: image size drifted");

        // Destination transcript-identical to the local restore.
        let want = local_restore_gregs(&reference);
        let mut dh =
            ProcHandle::open_rw(&mut dst, dctl, report.dst_pid).expect("open migrated guest");
        let got = eventually("migrated gregs", || dh.gregs(&mut dst));
        assert_eq!(got, want, "seed {seed:#x}: migrated registers diverge from local restore");

        // Exactly once, destination half: the guest is real and runs on.
        eventually("resume migrated guest", || dh.resume(&mut dst));
        dst.run_idle(200);
        eventually("re-stop migrated guest", || dh.stop(&mut dst));
        let moved = eventually("gregs after run", || dh.gregs(&mut dst));
        assert_ne!(moved, got, "seed {seed:#x}: migrated guest never executed");
        let _ = dh.close(&mut dst);
        assert!(dst.kernel.mig_stats.commits >= 1, "seed {seed:#x}: no committed transfer");
        assert!(
            dst.kernel.mig_stats.bytes >= reference.len() as u64,
            "seed {seed:#x}: fewer bytes accepted than the image holds"
        );

        // Exactly once, source half: the source copy is retired.
        src.run_idle(120);
        // (A source proc that is already gone entirely is equally retired.)
        if let Ok(p) = src.kernel.proc(target) {
            assert!(p.zombie, "seed {seed:#x}: source copy still live after commit");
        }
    }
}

/// Destination death injection kills the only non-hosted process on the
/// destination — the placeholder — at seeded moments mid-transfer. The
/// driver must burn through fresh placeholders, resuming the *same*
/// kernel-side transfer, and every seed must still end exactly-once:
/// committed once, or typed-aborted with nothing materialised and the
/// source still alive. (Deterministic per seed: same seed, same story.)
#[test]
fn placeholder_death_is_survived_or_aborted_cleanly() {
    let mut completed = 0;
    for i in 0..8u64 {
        let seed = 0xDEAD_0001 + i * 0x9E37;
        let (mut src, sctl, target) = src_system(seed);
        let wire = WireConfig::faulty(seed ^ 0x51DE, FaultRates::uniform(15));
        let deadly = KernelFaultRates {
            enomem: 0,
            eagain: 0,
            eintr: 0,
            wakeup: 10,
            death: 30,
            mid_op: 0,
            controller_death: 0,
        };
        let mut dst = tools::boot_demo_cfg(
            SimConfig::standard()
                .mount(DST_MOUNT, MountPlan::RemoteProc(wire))
                .kernel_faults(seed ^ 0x0D57, deadly),
        );
        let dctl = dst.spawn_hosted("mig-dst", Cred::superuser());
        match tools::migrate::migrate(&mut src, sctl, "/proc", target, &mut dst, dctl, DST_MOUNT) {
            Ok(r) => {
                completed += 1;
                assert!(dst.kernel.mig_stats.commits >= 1, "seed {seed:#x}: {r:?}");
                assert!(dst.kernel.proc(r.dst_pid).is_ok(), "seed {seed:#x}: committed to no one");
            }
            Err(e) => {
                src.run_idle(60);
                let p = src
                    .kernel
                    .proc(target)
                    .unwrap_or_else(|_| panic!("seed {seed:#x}: abort ({e}) retired the source"));
                assert!(!p.zombie, "seed {seed:#x}: abort ({e}) retired the source");
                assert_eq!(dst.kernel.mig_stats.commits, 0, "seed {seed:#x}: half-committed");
            }
        }
    }
    assert!(completed >= 6, "death injection defeated the driver too often: {completed}/8");
}

/// A wire that drops every frame (and a stingy retry policy, so the
/// driver's patience runs out quickly) must produce the typed transport
/// abort: source untouched and running, destination empty.
#[test]
fn dead_wire_aborts_typed_with_source_running_and_destination_empty() {
    let seed = 0xAB07_0001u64;
    let (mut src, sctl, target) = src_system(seed);
    let dead = FaultRates { drop: 1000, truncate: 0, bitflip: 0, duplicate: 0, delay: 0 };
    let wire = WireConfig::faulty(seed, dead).retry(RetryPolicy {
        max_attempts: 2,
        backoff_cap: 1,
        budget: 4,
    });
    let mut dst =
        tools::boot_demo_cfg(SimConfig::standard().mount(DST_MOUNT, MountPlan::RemoteProc(wire)));
    let dctl = dst.spawn_hosted("mig-dst", Cred::superuser());

    let err = tools::migrate::migrate(&mut src, sctl, "/proc", target, &mut dst, dctl, DST_MOUNT)
        .expect_err("a dead wire cannot complete a migration");
    assert!(matches!(err, MigrateError::Transport(_)), "wrong abort class: {err:?}");

    // Source untouched: the target still exists and still executes.
    src.run_idle(120);
    let p = src.kernel.proc(target).expect("source target must survive an aborted migration");
    assert!(!p.zombie, "aborted migration retired the source copy");

    // Destination empty: no transfer state, nothing committed.
    assert!(dst.kernel.migrations.is_empty(), "aborted transfer left state behind");
    assert_eq!(dst.kernel.mig_stats.commits, 0, "aborted migration still committed");
}

/// The end-to-end digest check refuses to materialise a transfer whose
/// bytes do not hash to the declared digest — and reports the digest it
/// computed, so the driver can say precisely what went wrong.
#[test]
fn digest_mismatch_is_refused_before_materialising() {
    use ksim::migrate::{arg_begin, arg_chunk, arg_commit, MIG_ST_ERR, MIG_ST_OK};

    let (mut dst, dctl) = dst_system(0xD16E_57A1);
    let pid =
        eventually("spawn placeholder", || dst.spawn_program(dctl, "/bin/spin", &["migrated"]));
    dst.run_idle(30);
    let mut h = eventually("open placeholder", || {
        ProcHandle::open_at(&mut dst, dctl, pid, DST_MOUNT, vfs::OFlags::rdwr())
    });
    eventually("stop placeholder", || h.stop(&mut dst));

    // Junk payload, deliberately mis-declared digest.
    let image = vec![0xA5u8; 600];
    let lie = ksim::record::fnv(&image) ^ 1;
    let xfer = 0x000F_F5E7_u64;
    let begin = eventually("begin", || h.migrate_op(&mut dst, &arg_begin(xfer, 600, lie)));
    assert_eq!(begin.status, MIG_ST_OK, "{begin:?}");
    let mut off = begin.next_off;
    while off < 600 {
        let end = (off as usize + 512).min(600);
        let r = eventually("chunk", || {
            h.migrate_op(&mut dst, &arg_chunk(xfer, off, &image[off as usize..end]))
        });
        assert_eq!(r.status, MIG_ST_OK, "{r:?}");
        off = r.next_off;
    }
    let commit = eventually("commit", || h.migrate_op(&mut dst, &arg_commit(xfer, lie)));
    assert_eq!(commit.status, MIG_ST_ERR, "a lying digest was accepted: {commit:?}");
    assert_eq!(commit.errno, vfs::Errno::EIO as i32, "{commit:?}");
    assert_eq!(commit.detail, ksim::record::fnv(&image), "computed digest not reported");
    let _ = h.close(&mut dst);

    // Nothing materialised: the transfer is gone, the mismatch counted,
    // and the placeholder is still the placeholder.
    assert!(dst.kernel.migrations.is_empty(), "refused transfer left state behind");
    assert_eq!(dst.kernel.mig_stats.digest_mismatches, 1);
    assert_eq!(dst.kernel.mig_stats.commits, 0);
    assert!(dst.kernel.proc(pid).is_ok(), "refusal destroyed the placeholder");
}

/// Durable recordings cross a process boundary: one system records a
/// faulted, adversarial run and serialises it; a second system is
/// rebuilt from nothing but those bytes and must replay the log
/// record-for-record — and re-serialise to the *identical* bytes.
#[test]
fn recordings_round_trip_across_the_process_boundary() {
    for i in 0..8u64 {
        let seed = 0x00DE_7EC7 + i * 0x9E37;
        let wire = WireConfig::faulty(seed ^ 0x51DE, FaultRates::uniform(25))
            .adversarial(AdversaryRates::uniform(40));
        let mut sys = tools::boot_demo_cfg(
            SimConfig::standard()
                .mount(DST_MOUNT, MountPlan::RemoteProc(wire))
                .kernel_faults(seed, KernelFaultRates::uniform(20))
                .record(true)
                .snapshot_every(8),
        );
        let ctl = sys.spawn_hosted("recfile", Cred::superuser());
        let ticker = sys.spawn_program(ctl, "/bin/ticker", &["ticker"]);
        sys.run_idle(90);
        if let Ok(pid) = ticker {
            if let Ok(mut h) =
                ProcHandle::open_at(&mut sys, ctl, pid, DST_MOUNT, vfs::OFlags::rdwr())
            {
                let _ = h.status(&mut sys);
                let _ = h.close(&mut sys);
            }
        }
        sys.run_idle(60);

        let bytes = sys.save_recfile().expect("recording is on");
        // "The other process": only `bytes` crosses.
        let loaded = procfs::replay_file(&bytes)
            .unwrap_or_else(|e| panic!("seed {seed:#x}: load+replay failed: {e}"));
        assert_eq!(
            loaded.recording().expect("replayed recorder").records,
            sys.recording().expect("source recorder").records,
            "seed {seed:#x}: replayed log diverges from the original"
        );
        let mut loaded = loaded;
        let again = loaded.save_recfile().expect("recording survives the load");
        assert_eq!(again, bytes, "seed {seed:#x}: re-serialisation is not byte-identical");

        // The counters tell the story on both ends.
        assert_eq!(sys.kernel.recorder.as_ref().expect("rec").stats.file_saves, 1);
        assert_eq!(loaded.kernel.recorder.as_ref().expect("rec").stats.file_loads, 1);
    }
}
