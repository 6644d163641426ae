//! Robustness and determinism: the simulation must never panic or hang
//! on adversarial programs, and identical runs must produce identical
//! event logs.

use bench_support::XorShift;
use procsim::ksim::{Cred, Event, Pid, System};
use procsim::tools;

/// Runs a scripted scenario and returns the full event log.
fn scenario_log() -> Vec<Event> {
    let mut sys = tools::boot_demo();
    let ctl = sys.spawn_hosted("ctl", Cred::new(100, 10));
    sys.spawn_program(ctl, "/bin/forker", &["forker"]).expect("spawn");
    sys.spawn_program(ctl, "/bin/piper", &["piper"]).expect("spawn");
    let victim = sys.spawn_program(ctl, "/bin/spin", &["spin"]).expect("spawn");
    sys.run_idle(2_000);
    sys.host_kill(ctl, victim, procsim::ksim::signal::SIGKILL).expect("kill");
    sys.run_idle(10_000);
    sys.kernel.log.take()
}

#[test]
fn identical_runs_produce_identical_event_logs() {
    let a = scenario_log();
    let b = scenario_log();
    assert!(!a.is_empty());
    assert_eq!(a, b, "the simulation is deterministic");
}

/// Builds a program that issues `count` system calls with arbitrary
/// numbers and arguments, then exits.
fn fuzz_program(calls: &[(u16, u64, u64, u64)]) -> String {
    let mut src = String::from("_start:\n");
    for (nr, a0, a1, a2) in calls {
        // Clamp immediates into i32 range for movi; use li for larger.
        src.push_str(&format!(
            "    li rv, {nr}\n    li a0, {a0}\n    li a1, {a1}\n    li a2, {a2}\n    syscall\n"
        ));
    }
    src.push_str("    movi rv, 1\n    movi a0, 0\n    syscall\n");
    src
}

/// Arbitrary syscall numbers and arguments never panic or wedge the
/// kernel; the process always terminates (normally or by signal).
#[test]
fn random_syscalls_cannot_break_the_kernel() {
    let mut rng = XorShift::new(0x5ca1ab1e);
    for _ in 0..8 {
        // exit/fork-family calls are fine too, but avoid unbounded
        // vfork/pause hangs dominating the budget: they are included,
        // the run budget simply bounds them.
        let calls: Vec<(u16, u64, u64, u64)> = (0..1 + rng.below(5))
            .map(|_| {
                (rng.below(120) as u16, rng.below(1 << 32), rng.below(1 << 32), rng.below(1 << 33))
            })
            .collect();
        let src = fuzz_program(&calls);
        let mut sys: System = tools::boot_demo();
        sys.pump_limit = 10_000;
        let ctl = sys.spawn_hosted("fuzz", Cred::new(100, 10));
        sys.install_program("/bin/fuzz", &src);
        let pid = sys.spawn_program(ctl, "/bin/fuzz", &["fuzz"]).expect("spawn");
        // Bounded run: no panic, and the kernel stays consistent.
        sys.run_idle(4_000);
        // Whatever happened, the process table must still be sane.
        for proc in sys.kernel.procs.values() {
            assert!(proc.lwps.iter().all(|l| l.tid.0 >= 1));
        }
        // Force-kill anything left and drain.
        let _ = sys.host_kill(ctl, pid, procsim::ksim::signal::SIGKILL);
        sys.run_idle(4_000);
    }
}

/// Arbitrary bytes fed to the hierarchical ctl file are rejected
/// cleanly (never panic, never corrupt the target).
#[test]
fn random_ctl_writes_are_safe() {
    let mut rng = XorShift::new(0xc71f00d);
    for _ in 0..8 {
        let len = rng.below(96) as usize;
        let data = rng.bytes(len);
        let mut sys: System = tools::boot_demo();
        sys.pump_limit = 10_000;
        let ctl = sys.spawn_hosted("fuzz", Cred::new(100, 10));
        let pid = sys.spawn_program(ctl, "/bin/spin", &["spin"]).expect("spawn");
        let cfd = sys
            .host_open(ctl, &format!("/proc2/{}/ctl", pid.0), vfs::OFlags::wronly())
            .expect("open ctl");
        let _ = sys.host_write(ctl, cfd, &data);
        // The target is still there and still controllable.
        let mut h = tools::ProcHandle::open_rw(&mut sys, ctl, pid).expect("open");
        let st = h.stop(&mut sys).expect("stop");
        assert_ne!(st.flags & procsim::procfs::PR_STOPPED, 0);
        h.resume(&mut sys).expect("run");
        h.close(&mut sys).expect("close");
    }
}

/// Arbitrary ioctl requests with arbitrary operands on a /proc fd
/// fail cleanly or succeed; never panic.
#[test]
fn random_ioctls_are_safe() {
    let mut rng = XorShift::new(0x10c71);
    for _ in 0..8 {
        let req = 0x5000 + rng.below(0x30) as u32;
        let arg_len = rng.below(48) as usize;
        let arg = rng.bytes(arg_len);
        let mut sys: System = tools::boot_demo();
        let ctl = sys.spawn_hosted("fuzz", Cred::new(100, 10));
        let pid = sys.spawn_program(ctl, "/bin/spin", &["spin"]).expect("spawn");
        let fd =
            sys.host_open(ctl, &format!("/proc/{:05}", pid.0), vfs::OFlags::rdwr()).expect("open");
        let _ = sys.host_ioctl(ctl, fd, req, &arg);
        // Target still alive (unless the fuzz legitimately killed it via
        // PIOCKILL with a valid signal — allow both, but no panic).
        let _ = sys.kernel.proc(pid);
    }
}

/// Random /proc file offsets read or fail with EIO, never panic; the
/// truncation rule holds: a successful read never returns more bytes
/// than the valid span.
#[test]
fn random_offset_proc_reads() {
    let mut rng = XorShift::new(0x0ff5e7);
    for _ in 0..8 {
        let off = rng.below(1 << 32);
        let mut sys: System = tools::boot_demo();
        let ctl = sys.spawn_hosted("fuzz", Cred::new(100, 10));
        let pid = sys.spawn_program(ctl, "/bin/spin", &["spin"]).expect("spawn");
        let fd = sys
            .host_open(ctl, &format!("/proc/{:05}", pid.0), vfs::OFlags::rdonly())
            .expect("open");
        sys.host_lseek(ctl, fd, off as i64, 0).expect("lseek");
        let mut buf = [0u8; 256];
        match sys.host_read(ctl, fd, &mut buf) {
            Ok(n) => {
                let span = sys.kernel.proc(pid).expect("p").aspace.valid_span(off, 256);
                assert!(n as u64 <= span.max(1));
            }
            Err(e) => assert_eq!(e, procsim::ksim::Errno::EIO),
        }
    }
}

/// A control batch whose framing is damaged — truncated header, length
/// overrunning the buffer, oversized payload, or trailing garbage that
/// cannot be a record — is rejected with `EINVAL` before *any* record
/// executes: a valid `PCKILL` at the front of a malformed batch must
/// not fire.
#[test]
fn malformed_ctl_batches_have_no_side_effects() {
    use procsim::procfs::ctl_record;
    use procsim::procfs::hier::PCKILL;

    let kill = ctl_record(PCKILL, &(procsim::ksim::signal::SIGKILL as u32).to_le_bytes());

    // Positive control: the same record alone really does kill.
    {
        let mut sys = tools::boot_demo();
        let ctl = sys.spawn_hosted("ctl", Cred::new(100, 10));
        let pid = sys.spawn_program(ctl, "/bin/spin", &["spin"]).expect("spawn");
        let cfd = sys
            .host_open(ctl, &format!("/proc2/{}/ctl", pid.0), vfs::OFlags::wronly())
            .expect("open ctl");
        sys.host_write(ctl, cfd, &kill).expect("kill applies");
        sys.run_idle(2_000);
        assert!(sys.kernel.proc(pid).map(|p| p.zombie).unwrap_or(true), "control case died");
    }

    // Each malformed tail must suppress the kill entirely.
    let oversized = {
        // Well-formed header whose length field (8 KiB) exceeds any
        // legitimate control payload, with the payload actually present.
        let mut r = ctl_record(PCKILL, &vec![0u8; 8192]);
        r.truncate(8 + 8192);
        r
    };
    let cases: Vec<(&str, Vec<u8>)> = vec![
        ("truncated header", vec![0x01, 0x00, 0x00]),
        ("length overrun", {
            let mut r = Vec::new();
            r.extend_from_slice(&procsim::procfs::hier::PCSTRACE.to_le_bytes());
            r.extend_from_slice(&1_000_000u32.to_le_bytes());
            r
        }),
        ("oversized payload", oversized),
        ("trailing garbage", vec![0xDE, 0xAD, 0xBE, 0xEF, 0x99]),
    ];
    for (what, tail) in cases {
        let mut sys = tools::boot_demo();
        let ctl = sys.spawn_hosted("ctl", Cred::new(100, 10));
        let pid = sys.spawn_program(ctl, "/bin/spin", &["spin"]).expect("spawn");
        let cfd = sys
            .host_open(ctl, &format!("/proc2/{}/ctl", pid.0), vfs::OFlags::wronly())
            .expect("open ctl");
        let mut batch = kill.clone();
        batch.extend_from_slice(&tail);
        let err = sys.host_write(ctl, cfd, &batch).expect_err(what);
        assert_eq!(err, procsim::ksim::Errno::EINVAL, "{what}");
        sys.run_idle(2_000);
        let proc = sys.kernel.proc(pid).expect("target survives");
        assert!(!proc.zombie, "{what}: the leading kill record must not have fired");
    }
}

/// Fuzz the framing validator: a valid `PCKILL` prefix plus a random
/// tail that cannot frame as a record (short fragment, or a header whose
/// length overruns the buffer) is always rejected whole — the leading
/// kill never fires, across many random shapes.
#[test]
fn fuzzed_ctl_tails_never_apply_partially() {
    use procsim::procfs::ctl_record;
    use procsim::procfs::hier::PCKILL;
    let mut rng = XorShift::new(0xbad_f2a9);
    let kill = ctl_record(PCKILL, &(procsim::ksim::signal::SIGKILL as u32).to_le_bytes());
    let mut sys = tools::boot_demo();
    let ctl = sys.spawn_hosted("ctl", Cred::new(100, 10));
    for round in 0..24 {
        let pid = sys.spawn_program(ctl, "/bin/spin", &["spin"]).expect("spawn");
        let cfd = sys
            .host_open(ctl, &format!("/proc2/{}/ctl", pid.0), vfs::OFlags::wronly())
            .expect("open ctl");
        let mut batch = kill.clone();
        if round % 2 == 0 {
            // A fragment too short to hold a record header.
            let n = 1 + rng.below(7) as usize;
            batch.extend_from_slice(&rng.bytes(n));
        } else {
            // A full header whose length field overruns the buffer.
            batch.extend_from_slice(&(rng.below(1 << 32) as u32).to_le_bytes());
            batch.extend_from_slice(&(9_000_000 + rng.below(1 << 20) as u32).to_le_bytes());
            let n = rng.below(16) as usize;
            batch.extend_from_slice(&rng.bytes(n));
        }
        let err = sys.host_write(ctl, cfd, &batch).expect_err("malformed batch");
        assert_eq!(err, procsim::ksim::Errno::EINVAL, "round {round}");
        sys.run_idle(1_000);
        assert!(!sys.kernel.proc(pid).expect("alive").zombie, "round {round}: kill leaked");
        sys.host_kill(ctl, pid, procsim::ksim::signal::SIGKILL).expect("cleanup");
        sys.run_idle(1_000);
    }
}

#[test]
fn fork_bomb_is_contained_by_run_budget() {
    // A self-replicating program: every instance forks forever. The
    // simulation must stay responsive and the process table bounded by
    // what actually ran.
    let mut sys = tools::boot_demo();
    let ctl = sys.spawn_hosted("ctl", Cred::new(100, 10));
    sys.install_program(
        "/bin/bomb",
        r#"
        _start:
        loop:
            movi rv, 2
            syscall
            jmp loop
        "#,
    );
    sys.spawn_program(ctl, "/bin/bomb", &["bomb"]).expect("spawn");
    // A couple thousand steps breed plenty of processes; the scheduler
    // scan is O(n) per step, so keep n civilised.
    sys.run_idle(1_500);
    let n = sys.kernel.procs.len();
    assert!(n > 3, "the bomb forked");
    // Kill them all; children forked mid-drain need further rounds.
    for _ in 0..50 {
        let pids: Vec<Pid> =
            sys.kernel.procs.values().filter(|p| !p.hosted && !p.zombie).map(|p| p.pid).collect();
        if pids.is_empty() {
            break;
        }
        for pid in pids {
            let _ = sys.host_kill(ctl, pid, procsim::ksim::signal::SIGKILL);
        }
        sys.run_idle(2_000);
    }
    assert!(sys.kernel.procs.values().all(|p| p.hosted || p.zombie), "every bomb process is dead");
}

#[test]
fn many_processes_under_observation() {
    // 50 concurrent spinners, all being watched by ps while running.
    let mut sys = tools::boot_demo();
    let root = sys.spawn_hosted("root", Cred::superuser());
    let user = sys.spawn_hosted("user", Cred::new(100, 10));
    for _ in 0..50 {
        sys.spawn_program(user, "/bin/spin", &["spin"]).expect("spawn");
    }
    sys.run_idle(1000);
    let snaps = tools::ps::ps_snapshots(&mut sys, root).expect("ps");
    assert!(snaps.len() >= 52);
    let spinners = snaps.iter().filter(|p| p.fname == "spin").count();
    assert_eq!(spinners, 50);
    // Every spinner consumed CPU time (round-robin fairness).
    sys.run_idle(5000);
    let snaps = tools::ps::ps_snapshots(&mut sys, root).expect("ps");
    let starved = snaps.iter().filter(|p| p.fname == "spin" && p.time == 0).count();
    assert_eq!(starved, 0, "no spinner starved");
}

/// Forges a sequenced `PCKILL` write frame against a target's hier ctl
/// node, exactly as a hostile client would put it on the wire.
fn forge_kill_frame(
    sys: &mut System,
    fs: &mut vfs::remote::RemoteFs<procsim::ksim::Kernel>,
    ctl: Pid,
    pid: Pid,
    tag: u64,
) -> (Vec<u8>, vfs::NodeId, vfs::OpenToken) {
    use procsim::procfs::{ctl_record, hier::PCKILL};
    use vfs::FileSystem;
    let cred = Cred::superuser();
    let k = &mut sys.kernel;
    let dir = fs.lookup(k, ctl, vfs::NodeId(0), &pid.0.to_string()).expect("pid dir");
    let node = fs.lookup(k, ctl, dir, "ctl").expect("ctl node");
    let tok = fs.open(k, ctl, node, vfs::OFlags::wronly(), &cred).expect("open ctl");
    let rec = ctl_record(PCKILL, &(procsim::ksim::signal::SIGUSR1 as u32).to_le_bytes());
    let body = vfs::remote::marshal_write(ctl, node, tok, 0, &rec);
    (vfs::remote::encode_frame(tag, &body), node, tok)
}

/// Adversarial frame kind: mid-frame truncation at *every* byte offset.
/// Each strict prefix of a forged control-write frame, injected raw
/// into its own server session, must have zero side effects — then the
/// intact frame applies exactly once, and replaying its bytes with the
/// same (stale) tag is absorbed by the dedup window, not re-executed.
#[test]
fn truncated_frames_at_every_offset_have_no_side_effects() {
    use procsim::procfs::HierFs;
    use vfs::remote::RemoteFs;
    let mut sys = tools::boot_demo();
    let ctl = sys.spawn_hosted("forger", Cred::superuser());
    let pid = sys.spawn_program(ctl, "/bin/spin", &["spin"]).expect("spawn");
    sys.run_idle(50);
    let mut fs = RemoteFs::new(Box::new(HierFs::new()));
    let (frame, _, _) = forge_kill_frame(&mut sys, &mut fs, ctl, pid, 42);

    // Every strict prefix: its own session, no effect, no panic.
    for cut in 0..frame.len() {
        let c = fs.client();
        c.inject_inbound(&mut sys.kernel, &frame[..cut]);
        while c.pump(&mut sys.kernel) {}
    }
    sys.run_idle(200);
    assert_eq!(
        sys.kernel.log.sig_posts_of(pid, procsim::ksim::signal::SIGUSR1),
        0,
        "a truncated forged frame had a side effect"
    );

    // The intact frame applies — exactly once.
    let c = fs.client();
    c.inject_inbound(&mut sys.kernel, &frame);
    while c.pump(&mut sys.kernel) {}
    sys.run_idle(200);
    assert_eq!(sys.kernel.log.sig_posts_of(pid, procsim::ksim::signal::SIGUSR1), 1);

    // Stale-tag replay behind a mid-frame cut: a truncated copy whose
    // body never finishes, then the same stale bytes twice — the
    // stream resyncs past the corpse and the server-wide dedup window
    // answers the replays from its cache.
    let c2 = fs.client();
    let mut cut_then_replay = frame[..frame.len() / 2].to_vec();
    cut_then_replay.extend_from_slice(&frame);
    c2.inject_inbound(&mut sys.kernel, &cut_then_replay);
    c2.inject_inbound(&mut sys.kernel, &frame);
    while c2.pump(&mut sys.kernel) {}
    sys.run_idle(200);
    assert_eq!(
        sys.kernel.log.sig_posts_of(pid, procsim::ksim::signal::SIGUSR1),
        1,
        "a stale-tag replay re-executed a sequenced op"
    );
    assert!(fs.stats().dedup_hits >= 2, "the replays were not answered from the window");
    assert!(fs.stats().resync_bytes > 0, "truncated junk was never resynced past");
}

/// Adversarial frame kind: a flood burst of one forged control frame
/// against a session with a small inbound cap. The burst is shed at
/// the cap (high-water mark proves it never overflowed), the flooding
/// session is evicted, and the control message still applies exactly
/// once — flooding buys the adversary nothing.
#[test]
fn flood_bursts_are_shed_capped_and_exactly_once() {
    use procsim::procfs::HierFs;
    use vfs::remote::RemoteFs;
    const CAP: usize = 512;
    let mut sys = tools::boot_demo();
    let ctl = sys.spawn_hosted("flooder", Cred::superuser());
    let pid = sys.spawn_program(ctl, "/bin/spin", &["spin"]).expect("spawn");
    sys.run_idle(50);
    let mut fs = RemoteFs::new(Box::new(HierFs::new()))
        .with_config(&vfs::remote::WireConfig::clean().queue_caps(CAP, CAP));
    let (frame, _, _) = forge_kill_frame(&mut sys, &mut fs, ctl, pid, 7);

    let c = fs.client();
    for _ in 0..64 {
        c.inject_inbound(&mut sys.kernel, &frame);
    }
    while c.pump(&mut sys.kernel) {}
    sys.run_idle(200);
    assert_eq!(
        sys.kernel.log.sig_posts_of(pid, procsim::ksim::signal::SIGUSR1),
        1,
        "a flood burst must apply its op exactly once"
    );
    let st = fs.stats();
    assert!(st.in_queue_hwm <= CAP as u64, "the inbound cap was exceeded");
    assert!(st.frames_shed > 0, "nothing was shed under a 64-frame burst");
    assert!(st.dedup_hits >= 1, "delivered duplicates were not absorbed");
    assert_eq!(st.sessions_evicted, 1, "the flooding session was not evicted");
    // The blocking face still works: the flood starved nobody else.
    use vfs::FileSystem;
    let dir = fs
        .lookup(&mut sys.kernel, ctl, vfs::NodeId(0), &pid.0.to_string())
        .expect("blocking face survives the flood");
    assert!(dir.0 > 0);
}

// ---------------------------------------------------------------------
// On-disk recfile loader fuzz (PR 9): hostile bytes by construction.
// ---------------------------------------------------------------------

use procsim::ksim::recfile::{self, RecfileError};

/// A small real recording with several committed segments and banked
/// snapshot marks — the honest input the corruptions below start from.
fn small_recfile() -> (Vec<u8>, procsim::ksim::Recording) {
    let cfg = procsim::ksim::SimConfig::standard().record(true).snapshot_every(4);
    let mut sys = tools::boot_demo_cfg(cfg);
    let ctl = sys.spawn_hosted("recfuzz", Cred::superuser());
    let _ = sys.spawn_program(ctl, "/bin/spin", &["spin"]).expect("spawn");
    sys.run_idle(400);
    let bytes = sys.save_recfile().expect("recording is on");
    let rec = sys.recording().expect("recording is on");
    (bytes, rec)
}

/// Truncate the file at *every* byte offset: each cut must come back
/// typed — a strict-load error, or (only at an exact segment boundary)
/// a shorter but valid file — and `load_committed` must always surface
/// the committed prefix intact. No cut may panic.
#[test]
fn recfile_truncated_at_every_offset_loads_typed() {
    let (bytes, full) = small_recfile();
    assert!(bytes.len() > 64, "recording too small to fuzz meaningfully");
    let full_loaded = recfile::load(&bytes).expect("the untruncated file loads");
    assert_eq!(full_loaded.recording.records, full.records);

    for cut in 0..bytes.len() {
        let b = &bytes[..cut];
        match recfile::load(b) {
            // An exact segment boundary: a valid, strictly shorter file.
            Ok(f) => {
                assert!(
                    f.recording.records.len() < full.records.len() || cut == bytes.len(),
                    "cut {cut}: truncation loaded the full log"
                );
                assert_eq!(
                    f.recording.records[..],
                    full.records[..f.recording.records.len()],
                    "cut {cut}: committed prefix diverges"
                );
            }
            Err(e) => {
                // Typed is the requirement; the Display impl must hold
                // up too (it is what an operator sees).
                assert!(!e.to_string().is_empty(), "cut {cut}: silent error");
            }
        }
        // The crash-consistency promise: whatever was committed before
        // the torn tail is still there.
        if let Ok((prefix, _tail)) = recfile::load_committed(b) {
            assert_eq!(
                prefix.recording.records[..],
                full.records[..prefix.recording.records.len()],
                "cut {cut}: load_committed returned a non-prefix"
            );
        }
    }
}

/// Flip bits through the header and the first segments, and one bit in
/// every byte of the whole file: every flip must be *detected* (magic,
/// version, checksum, commit or malformed — all typed), because CRC32
/// catches all single-bit errors and the header fields are validated
/// field by field. No flip may panic or load silently.
#[test]
fn recfile_single_bit_flips_are_always_detected() {
    let (bytes, _) = small_recfile();

    // Exhaustive over the header + first segment region.
    let dense = bytes.len().min(160);
    for pos in 0..dense {
        for bit in 0..8u8 {
            let mut b = bytes.clone();
            b[pos] ^= 1 << bit;
            assert!(recfile::load(&b).is_err(), "flip at byte {pos} bit {bit} went undetected");
        }
    }
    // One bit per byte across the rest of the file.
    for pos in dense..bytes.len() {
        let mut b = bytes.clone();
        b[pos] ^= 1 << (pos % 8);
        assert!(recfile::load(&b).is_err(), "flip at byte {pos} went undetected");
    }
}

/// Structured header damage gets the precise error, not a generic one:
/// wrong magic is `BadMagic`, an unknown version is `BadVersion`, and a
/// corrupted config region is the header checksum failing (segment 0).
#[test]
fn recfile_header_damage_is_precisely_typed() {
    let (bytes, _) = small_recfile();

    let mut magic = bytes.clone();
    magic[0] ^= 0xFF;
    assert!(matches!(recfile::load(&magic), Err(RecfileError::BadMagic)));

    // The version u32 lives right after the 8-byte magic: an unknown
    // version and a version-3 log (made by the speculative gang round)
    // are both refused before the config is read.
    for v in [0xEE, 3u32] {
        let mut version = bytes.clone();
        version[8..12].copy_from_slice(&v.to_le_bytes());
        assert!(matches!(recfile::load(&version), Err(RecfileError::BadVersion(got)) if got == v));
    }

    let mut config = bytes.clone();
    config[17] ^= 0x10; // inside the encoded SimConfig
    assert!(matches!(
        recfile::load(&config),
        Err(RecfileError::BadChecksum { segment: 0 } | RecfileError::Malformed { segment: 0, .. })
    ));

    assert!(matches!(recfile::load(&[]), Err(RecfileError::Truncated)));
    assert!(matches!(recfile::load(b"PSRECF"), Err(RecfileError::Truncated)));
}

/// The committed prefix of a torn file does not just parse — it
/// *replays*: sampled truncation points must yield prefixes the replay
/// engine reproduces without divergence.
#[test]
fn recfile_committed_prefixes_still_replay() {
    let (bytes, full) = small_recfile();
    let header_end =
        16 + u32::from_le_bytes([bytes[12], bytes[13], bytes[14], bytes[15]]) as usize + 4;
    let mut replayed_any = false;
    for i in 1..8 {
        let cut = header_end + (bytes.len() - header_end) * i / 8;
        let Ok((prefix, tail)) = recfile::load_committed(&bytes[..cut]) else {
            continue; // cut inside the header region: typed, nothing committed
        };
        assert!(
            prefix.recording.records.len() <= full.records.len(),
            "cut {cut}: prefix longer than the original"
        );
        if cut < bytes.len() {
            assert!(
                tail.is_some() || prefix.recording.records.len() < full.records.len(),
                "cut {cut}: a torn tail went unreported"
            );
        }
        if prefix.recording.records.is_empty() {
            continue;
        }
        let mut rec = prefix.recording.clone();
        rec.config.record = true;
        let sys = procsim::procfs::replay(&rec)
            .unwrap_or_else(|d| panic!("cut {cut}: committed prefix diverged: {d:?}"));
        assert_eq!(
            sys.recording().expect("replayed recorder").records,
            prefix.recording.records,
            "cut {cut}: replayed prefix diverges"
        );
        replayed_any = true;
    }
    assert!(replayed_any, "no sampled cut produced a replayable prefix");
}
