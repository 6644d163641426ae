//! The lossy-wire oracle: remote `/proc` must survive a faulty network.
//!
//! Two copies of the hierarchical interface are mounted over the same
//! kernel — one across a perfect wire, one across a wire that drops,
//! truncates, bit-flips, duplicates and delays frames under a seeded,
//! replayable `FaultPlan`. For every seed, every operation through the
//! faulted mount must return exactly the bytes the clean mount returns,
//! or fail with a clean errno (`EIO`/`ETIMEDOUT`) — never a panic,
//! never a silently wrong reply. Retried control messages must take
//! effect exactly once (checked against the kernel event log), and the
//! whole fault schedule must replay deterministically per seed.

use bench_support::XorShift;
use ksim::{signal, Cred, Errno, Pid, SysResult, System};
use procfs::hier::PCKILL;
use procfs::{ctl_record, HierFs, ProcFs};
use vfs::remote::{
    FaultRates, OpFuture, RemoteClient, RemoteFs, RemoteRead, WireConfig, WireStats, PIOCWIRESTATS,
};
use vfs::{NodeId, OFlags};

/// Boots a system with the hierarchical interface mounted twice: clean
/// at `/proc2`, faulted (under `seed`/`rates`) at `/proc2f`.
fn boot_pair(seed: u64, rates: FaultRates) -> (System, Pid, Vec<Pid>) {
    boot_pair_fast(seed, rates, true)
}

/// [`boot_pair`] with the execution fast path chosen at construction.
fn boot_pair_fast(seed: u64, rates: FaultRates, fast: bool) -> (System, Pid, Vec<Pid>) {
    let mut sys = System::with_config(ksim::SimConfig::new().fast_path(fast));
    tools::install_userland(&mut sys);
    sys.mount("/proc2", Box::new(RemoteFs::new(Box::new(HierFs::new()))));
    sys.mount(
        "/proc2f",
        Box::new(
            RemoteFs::new(Box::new(HierFs::new())).with_config(&WireConfig::faulty(seed, rates)),
        ),
    );
    let ctl = sys.spawn_hosted("oracle", Cred::superuser());
    let targets: Vec<Pid> =
        (0..3).map(|_| sys.spawn_program(ctl, "/bin/spin", &["spin"]).expect("spawn")).collect();
    sys.run_idle(100);
    (sys, ctl, targets)
}

/// Boots a system with the *flat* interface mounted behind a faulted
/// wire at `/proc` (the full ioctl wire table supplied), for the
/// security-semantics tests.
fn boot_flat_faulted(seed: u64, rates: FaultRates) -> (System, Pid) {
    let mut sys = System::boot();
    tools::install_userland(&mut sys);
    let fs = RemoteFs::new(Box::new(ProcFs::new()))
        .with_ioctl_table(procfs::ioctl::wire_table())
        .with_config(&WireConfig::faulty(seed, rates));
    sys.mount("/proc", Box::new(fs));
    let ctl = sys.spawn_hosted("remote-ctl", Cred::new(100, 10));
    (sys, ctl)
}

fn read_all(sys: &mut System, ctl: Pid, path: &str) -> SysResult<Vec<u8>> {
    let fd = sys.host_open(ctl, path, OFlags::rdonly())?;
    let mut out = Vec::new();
    let mut buf = [0u8; 4096];
    loop {
        let n = sys.host_read(ctl, fd, &mut buf)?;
        if n == 0 {
            break;
        }
        out.extend_from_slice(&buf[..n]);
    }
    let _ = sys.host_close(ctl, fd);
    Ok(out)
}

/// Reads the faulted mount's wire counters through the introspection
/// ioctl (answered client-side, so it works however lossy the wire is).
fn wire_stats(sys: &mut System, ctl: Pid, path: &str) -> WireStats {
    // The open itself crosses the (lossy) wire; at high fault rates it
    // may time out — keep asking, each attempt draws fresh faults.
    let fd = (0..64)
        .find_map(|_| sys.host_open(ctl, path, OFlags::rdonly()).ok())
        .expect("open for stats");
    let bytes = sys.host_ioctl(ctl, fd, PIOCWIRESTATS, &[]).expect("wirestats");
    let _ = sys.host_close(ctl, fd);
    WireStats::from_bytes(&bytes).expect("decode")
}

/// The acceptable failure modes of a faulted operation whose clean twin
/// succeeded: a clean degradation errno, nothing else.
fn clean_failure(e: Errno) -> bool {
    matches!(e, Errno::EIO | Errno::ETIMEDOUT)
}

/// One seed's worth of ps/truss/debugger-shaped traffic through both
/// mounts. Returns a transcript of outcomes (used for replay checks)
/// and the number of control-message writes that succeeded / timed out.
fn drive_workload(
    sys: &mut System,
    ctl: Pid,
    targets: &[Pid],
    seed: u64,
    steps: u32,
) -> (Vec<String>, usize, usize) {
    let mut rng = XorShift::new(seed ^ 0x5eed_0f0f);
    let files = ["status", "psinfo", "map", "cred", "usage"];
    let mut transcript = Vec::new();
    let mut kills_ok = 0usize;
    let mut kills_timed_out = 0usize;
    for step in 0..steps {
        let pid = targets[rng.below(targets.len() as u64) as usize];
        match rng.below(6) {
            // ps/truss shape: the same file through both wires.
            0..=2 => {
                let file = files[rng.below(files.len() as u64) as usize];
                let clean = read_all(sys, ctl, &format!("/proc2/{}/{}", pid.0, file));
                let faulted = read_all(sys, ctl, &format!("/proc2f/{}/{}", pid.0, file));
                match (&clean, &faulted) {
                    (Ok(a), Ok(b)) => {
                        assert_eq!(a, b, "seed {seed:#x} step {step} {file}: bytes diverged")
                    }
                    (Err(a), Err(b)) => assert!(
                        a == b || clean_failure(*b),
                        "seed {seed:#x} step {step} {file}: {a} vs {b}"
                    ),
                    (Ok(_), Err(e)) => assert!(
                        clean_failure(*e),
                        "seed {seed:#x} step {step} {file}: dirty failure {e}"
                    ),
                    (Err(a), Ok(_)) => {
                        panic!("seed {seed:#x} step {step} {file}: clean failed {a}, faulted ok")
                    }
                }
                transcript.push(format!("{step} read {file} {:?}", faulted.map(|b| b.len())));
            }
            // Error paths must cross as errnos, not as damage.
            3 => {
                let r = sys.host_open(ctl, "/proc2f/99999/status", OFlags::rdonly());
                let e = r.expect_err("no such pid");
                assert!(
                    matches!(e, Errno::ENOENT | Errno::ESRCH) || clean_failure(e),
                    "seed {seed:#x} step {step}: lookup failure was {e}"
                );
                transcript.push(format!("{step} enoent {e}"));
            }
            // Debugger shape: a control message through the faulted wire.
            4 => match sys.host_open(ctl, &format!("/proc2f/{}/ctl", pid.0), OFlags::wronly()) {
                Ok(cfd) => {
                    let msg = ctl_record(PCKILL, &(signal::SIGUSR1 as u32).to_le_bytes());
                    match sys.host_write(ctl, cfd, &msg) {
                        Ok(_) => kills_ok += 1,
                        Err(Errno::ETIMEDOUT) => kills_timed_out += 1,
                        Err(e) => assert!(
                            clean_failure(e) || matches!(e, Errno::ENOENT | Errno::ESRCH),
                            "seed {seed:#x} step {step}: ctl write failed dirty: {e}"
                        ),
                    }
                    let _ = sys.host_close(ctl, cfd);
                    transcript.push(format!("{step} kill"));
                }
                Err(e) => {
                    assert!(
                        clean_failure(e) || matches!(e, Errno::ENOENT | Errno::ESRCH),
                        "seed {seed:#x} step {step}: ctl open failed dirty: {e}"
                    );
                    transcript.push(format!("{step} kill-open {e}"));
                }
            },
            // Let the kernel run; both mounts watch the same machine.
            _ => {
                let n = 1 + rng.below(40);
                sys.run_idle(n);
                transcript.push(format!("{step} run {n}"));
            }
        }
    }
    (transcript, kills_ok, kills_timed_out)
}

/// The tentpole acceptance gate: 32 seeds, each driving mixed fault
/// rates, every faulted result byte-identical to the clean mount or a
/// clean errno, and every successful control message applied exactly
/// once (kernel event log as ground truth).
#[test]
fn fault_oracle_holds_for_32_seeds() {
    for i in 0..32u64 {
        let seed = 0xA11C_E000 + i;
        // Sweep the fault intensity across seeds: 2%..17.5% per class.
        let rates = FaultRates::uniform(20 + (i as u16) * 5);
        let (mut sys, ctl, targets) = boot_pair(seed, rates);
        let (_t, kills_ok, kills_timed_out) = drive_workload(&mut sys, ctl, &targets, seed, 20);
        // Exactly-once: every acknowledged PCKILL posted its signal
        // exactly once; a timed-out one may have executed zero or one
        // times, never more.
        let posts: usize =
            targets.iter().map(|p| sys.kernel.log.sig_posts_of(*p, signal::SIGUSR1)).sum();
        assert!(
            posts >= kills_ok && posts <= kills_ok + kills_timed_out,
            "seed {seed:#x}: {kills_ok} acks + {kills_timed_out} timeouts but {posts} posts"
        );
        let stats = wire_stats(&mut sys, ctl, &format!("/proc2f/{}/status", targets[0].0));
        assert!(stats.faults_injected() > 0, "seed {seed:#x}: no faults were injected");
    }
}

/// The execution fast path's differential oracle, wire-suite half:
/// forcing the software TLB and superblocks off must
/// reproduce every seed's transcript, ack/timeout counts and wire
/// counters bit for bit — the caches must not change what any guest
/// instruction or wire frame does, only how fast it happens.
#[test]
fn fast_path_off_is_transcript_identical_for_32_seeds() {
    for i in 0..32u64 {
        let seed = 0xA11C_E000 + i;
        let rates = FaultRates::uniform(20 + (i as u16) * 5);
        let run = |fast: bool| {
            let (mut sys, ctl, targets) = boot_pair_fast(seed, rates, fast);
            let (transcript, ok, to) = drive_workload(&mut sys, ctl, &targets, seed, 20);
            let stats = wire_stats(&mut sys, ctl, &format!("/proc2f/{}/status", targets[0].0));
            (transcript, ok, to, stats)
        };
        let on = run(true);
        let off = run(false);
        assert_eq!(on.0, off.0, "seed {seed:#x}: fast path changed the transcript");
        assert_eq!(
            (on.1, on.2),
            (off.1, off.2),
            "seed {seed:#x}: fast path changed ack/timeout counts"
        );
        assert_eq!(on.3, off.3, "seed {seed:#x}: fast path changed the wire counters");
    }
}

/// Replaying the same seed reproduces the same per-operation outcomes
/// *and* the same wire counters, bit for bit.
#[test]
fn same_seed_replays_identically() {
    for seed in [0x0B50_1E7E_u64, 0xFEED_F00D] {
        let run = |seed: u64| {
            let rates = FaultRates::uniform(120);
            let (mut sys, ctl, targets) = boot_pair(seed, rates);
            let (transcript, ok, to) = drive_workload(&mut sys, ctl, &targets, seed, 16);
            let stats = wire_stats(&mut sys, ctl, &format!("/proc2f/{}/status", targets[0].0));
            (transcript, ok, to, stats)
        };
        let a = run(seed);
        let b = run(seed);
        assert_eq!(a.0, b.0, "seed {seed:#x}: transcripts diverged");
        assert_eq!((a.1, a.2), (b.1, b.2), "seed {seed:#x}: ack/timeout counts diverged");
        assert_eq!(a.3, b.3, "seed {seed:#x}: wire counters diverged");
    }
}

/// Every frame duplicated: the server-side dedup window must absorb the
/// clones so each control message still takes effect exactly once — and
/// the dedup counter is observable through `PIOCWIRESTATS`.
#[test]
fn duplicated_control_messages_apply_exactly_once() {
    let rates = FaultRates { duplicate: 1000, ..FaultRates::default() };
    let (mut sys, ctl, targets) = boot_pair(7, rates);
    let mut acked = 0usize;
    for pid in &targets {
        let cfd = sys
            .host_open(ctl, &format!("/proc2f/{}/ctl", pid.0), OFlags::wronly())
            .expect("open ctl");
        let msg = ctl_record(PCKILL, &(signal::SIGUSR1 as u32).to_le_bytes());
        sys.host_write(ctl, cfd, &msg).expect("kill crosses");
        acked += 1;
        let _ = sys.host_close(ctl, cfd);
    }
    let posts: usize =
        targets.iter().map(|p| sys.kernel.log.sig_posts_of(*p, signal::SIGUSR1)).sum();
    assert_eq!(posts, acked, "a duplicated control message was applied more than once");
    let stats = wire_stats(&mut sys, ctl, &format!("/proc2f/{}/status", targets[0].0));
    assert!(stats.duplicates > 0, "duplication was exercised");
    assert!(stats.dedup_hits > 0, "the dedup window absorbed the clones");
    assert_eq!(stats.timeouts, 0);
}

/// O_EXCL exclusive control must survive the wire: exactly one writer,
/// readers unaffected, and — because opens and closes are sequenced with
/// server-side dedup — writer accounting stays exact even though the
/// lossy wire forces retries.
#[test]
fn exclusive_control_survives_the_wire() {
    let rates = FaultRates { delay: 200, duplicate: 250, ..FaultRates::default() };
    let (mut sys, ctl) = boot_flat_faulted(0xE8C1, rates);
    let pid = sys.spawn_program(ctl, "/bin/spin", &["spin"]).expect("spawn");
    let path = tools::proc_io::proc_path(pid);

    let fd = sys.host_open(ctl, &path, OFlags::rdwr_excl()).expect("exclusive open");
    assert_eq!(
        sys.host_open(ctl, &path, OFlags::rdwr()),
        Err(Errno::EBUSY),
        "second writer must be refused across the wire"
    );
    let rfd = sys.host_open(ctl, &path, OFlags::rdonly()).expect("readers unaffected");
    sys.host_close(ctl, rfd).expect("close reader");
    sys.host_close(ctl, fd).expect("close excl");
    // If a duplicated or retried open had been executed twice, a stale
    // writer count would still hold the exclusive lock here.
    let fd2 = sys.host_open(ctl, &path, OFlags::rdwr_excl()).expect("lock released exactly once");
    sys.host_close(ctl, fd2).expect("close");

    let sfd = sys.host_open(ctl, &path, OFlags::rdonly()).expect("open for stats");
    let bytes = sys.host_ioctl(ctl, sfd, PIOCWIRESTATS, &[]).expect("stats");
    let stats = WireStats::from_bytes(&bytes).expect("decode");
    assert!(stats.retries > 0, "the wire was not actually lossy");
    assert!(stats.dedup_hits > 0, "no sequenced op was ever re-asked");
}

/// Set-id exec invalidation must survive the wire: after the target
/// execs a set-uid program, the pre-exec descriptor answers `EBADF` —
/// the real errno, not wire damage — even across retries.
#[test]
fn setid_exec_invalidation_survives_the_wire() {
    let rates = FaultRates { delay: 200, duplicate: 250, ..FaultRates::default() };
    let (mut sys, ctl) = boot_flat_faulted(0x5E71D, rates);
    let root = sys.spawn_hosted("rootctl", Cred::superuser());
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
    sys.install_program("/bin/execer", src);
    let spin = ksim::aout::build_aout("_start:\nloop: jmp loop").expect("asm");
    sys.memfs_mut().install("/bin/su", 0o4755, 0, 0, spin.to_bytes());
    // Spawned unprivileged so the exec genuinely raises euid.
    let target = sys.spawn_program(ctl, "/bin/execer", &["execer"]).expect("spawn");

    let fd = sys.host_open(root, &tools::proc_io::proc_path(target), OFlags::rdwr()).expect("open");
    sys.run_idle(2000);
    let proc = sys.kernel.proc(target).expect("alive");
    assert_eq!(proc.cred.euid, 0, "set-id honoured");
    // The stale descriptor is refused with the genuine errno, repeatedly
    // and consistently, however many retries each request needed.
    for _ in 0..8 {
        assert_eq!(
            sys.host_ioctl(root, fd, procfs::ioctl::PIOCSTATUS, &[]),
            Err(Errno::EBADF),
            "pre-exec descriptor must die across the wire"
        );
    }
    // A fresh privileged open regains control.
    let fd2 =
        sys.host_open(root, &tools::proc_io::proc_path(target), OFlags::rdwr()).expect("reopen");
    assert!(sys.host_ioctl(root, fd2, procfs::ioctl::PIOCSTATUS, &[]).is_ok());
    sys.host_close(root, fd2).expect("close");
    sys.host_close(root, fd).expect("close stale");

    let sfd =
        sys.host_open(root, &tools::proc_io::proc_path(target), OFlags::rdonly()).expect("open");
    let bytes = sys.host_ioctl(root, sfd, PIOCWIRESTATS, &[]).expect("stats");
    let stats = WireStats::from_bytes(&bytes).expect("decode");
    assert!(stats.retries > 0, "the wire was not actually lossy");
}

/// A dead wire (every frame dropped) degrades every operation to
/// `ETIMEDOUT` — and never wedges, panics, or half-applies anything.
#[test]
fn dead_wire_degrades_cleanly() {
    let rates = FaultRates { drop: 1000, ..FaultRates::default() };
    let (mut sys, ctl, targets) = boot_pair(3, rates);
    let pid = targets[0];
    assert_eq!(
        sys.host_open(ctl, &format!("/proc2f/{}/status", pid.0), OFlags::rdonly()),
        Err(Errno::ETIMEDOUT)
    );
    // The clean mount is entirely unaffected.
    let st = read_all(&mut sys, ctl, &format!("/proc2/{}/status", pid.0)).expect("clean side");
    assert!(!st.is_empty());
}

/// Resubmits an op until it crosses a lossy wire. Each attempt draws a
/// fresh slice of the fault schedule, so the whole thing stays
/// deterministic per seed.
fn wait_retry<T>(
    c: &RemoteClient<ksim::Kernel>,
    k: &mut ksim::Kernel,
    mut submit: impl FnMut(&RemoteClient<ksim::Kernel>) -> OpFuture<T>,
) -> T {
    for _ in 0..512 {
        if let Ok(v) = c.wait(k, submit(c)) {
            return v;
        }
    }
    panic!("operation never crossed the lossy wire");
}

/// Runs both handles' scripted read streams through one session,
/// pipelined and interleaved: every read from both handles is in flight
/// before any completes, and completions demultiplex out of order.
/// Returns each handle's per-op outcomes, in script order.
fn run_two_handle_streams(
    k: &mut ksim::Kernel,
    fs: &RemoteFs<ksim::Kernel>,
    ctl: Pid,
    scripts: &[Vec<(Pid, &'static str)>; 2],
) -> [Vec<Result<Vec<u8>, Errno>>; 2] {
    let handles = [fs.client(), fs.client()];
    let cred = Cred::superuser();
    // Resolve every script entry to an open read descriptor first; on
    // the faulted session these setup ops retry through the same lossy
    // wire the oracle is judging.
    let mut opened: [Vec<(NodeId, vfs::OpenToken)>; 2] = [Vec::new(), Vec::new()];
    for (h, script) in scripts.iter().enumerate() {
        for (pid, file) in script {
            let c = &handles[h];
            let dir = wait_retry(c, k, |c| c.submit_lookup(ctl, NodeId(0), &pid.0.to_string()));
            let node = wait_retry(c, k, |c| c.submit_lookup(ctl, dir, file));
            let tok = wait_retry(c, k, |c| c.submit_open(ctl, node, OFlags::rdonly(), &cred));
            opened[h].push((node, tok));
        }
    }
    // Interleave submission round-robin across the handles: op j of
    // handle 0, op j of handle 1, then j+1 — all tagged into one
    // session window before anything is waited on.
    let mut futs: Vec<(usize, usize, OpFuture<RemoteRead>)> = Vec::new();
    for j in 0..scripts[0].len().max(scripts[1].len()) {
        for h in 0..2 {
            if let Some((node, tok)) = opened[h].get(j) {
                futs.push((h, j, handles[h].submit_read(ctl, *node, *tok, 0, 4096)));
            }
        }
    }
    let mut out: [Vec<Result<Vec<u8>, Errno>>; 2] =
        [vec![Err(Errno::EIO); scripts[0].len()], vec![Err(Errno::EIO); scripts[1].len()]];
    // Poll-demux until every future resolves (success or clean errno).
    while !futs.is_empty() {
        let advanced = handles[0].pump(k);
        futs.retain_mut(|(h, j, fut)| match handles[*h].try_complete(fut) {
            Some(Ok(RemoteRead::Data(b))) => {
                out[*h][*j] = Ok(b);
                false
            }
            Some(Ok(RemoteRead::Block)) => panic!("status read blocked"),
            Some(Err(e)) => {
                out[*h][*j] = Err(e);
                false
            }
            None => true,
        });
        assert!(advanced || futs.is_empty(), "session wedged with ops in flight");
    }
    assert_eq!(handles[0].in_flight(), 0);
    out
}

/// The multi-client oracle: two handles' interleaved op streams through
/// one faulted session must agree with the clean session per handle,
/// byte for byte (or fail with a clean errno) — for 32 seeds.
#[test]
fn multi_client_streams_agree_per_handle_for_32_seeds() {
    let files = ["status", "psinfo", "cred"];
    for i in 0..32u64 {
        let seed = 0xC11E_7000 + i;
        let rates = FaultRates::uniform(20 + (i as u16) * 5);
        let mut sys = System::boot();
        tools::install_userland(&mut sys);
        let ctl = sys.spawn_hosted("oracle", Cred::superuser());
        let targets: Vec<Pid> = (0..3)
            .map(|_| sys.spawn_program(ctl, "/bin/spin", &["spin"]).expect("spawn"))
            .collect();
        sys.run_idle(100);

        // Each handle runs its own deterministic stream of (pid, file)
        // reads, derived from the seed but distinct per handle.
        let script = |h: u64| -> Vec<(Pid, &'static str)> {
            let mut rng = XorShift::new(seed ^ h.wrapping_mul(0x9E37_79B9));
            (0..8)
                .map(|_| {
                    (
                        targets[rng.below(targets.len() as u64) as usize],
                        files[rng.below(files.len() as u64) as usize],
                    )
                })
                .collect()
        };
        let scripts = [script(1), script(2)];

        let clean_fs = RemoteFs::new(Box::new(HierFs::new()));
        let clean = run_two_handle_streams(&mut sys.kernel, &clean_fs, ctl, &scripts);
        let faulted_fs =
            RemoteFs::new(Box::new(HierFs::new())).with_config(&WireConfig::faulty(seed, rates));
        let faulted = run_two_handle_streams(&mut sys.kernel, &faulted_fs, ctl, &scripts);

        for h in 0..2 {
            for (j, (c, f)) in clean[h].iter().zip(faulted[h].iter()).enumerate() {
                let want = c.as_ref().unwrap_or_else(|e| {
                    panic!("seed {seed:#x} handle {h} op {j}: clean wire failed: {e}")
                });
                match f {
                    Ok(b) => assert_eq!(
                        b, want,
                        "seed {seed:#x} handle {h} op {j}: bytes diverged across handles"
                    ),
                    Err(e) => assert!(
                        clean_failure(*e),
                        "seed {seed:#x} handle {h} op {j}: dirty failure {e}"
                    ),
                }
            }
        }
        assert!(
            faulted_fs.client().stats().faults_injected() > 0,
            "seed {seed:#x}: no faults were injected"
        );
    }
}

/// Exactly-once for sequenced ops under cross-handle reordering: every
/// frame duplicated and a third delayed, so clones of the two handles'
/// control writes arrive interleaved and out of order — yet each
/// acknowledged write posts its signal exactly once, per handle.
#[test]
fn sequenced_ops_apply_exactly_once_across_handles_for_32_seeds() {
    for i in 0..32u64 {
        let seed = 0xD05E_ED00 + i;
        let rates = FaultRates { duplicate: 1000, delay: 330, ..FaultRates::default() };
        let mut sys = System::boot();
        tools::install_userland(&mut sys);
        let ctl = sys.spawn_hosted("oracle", Cred::superuser());
        let targets: Vec<Pid> = (0..2)
            .map(|_| sys.spawn_program(ctl, "/bin/spin", &["spin"]).expect("spawn"))
            .collect();
        sys.run_idle(100);
        let fs =
            RemoteFs::new(Box::new(HierFs::new())).with_config(&WireConfig::faulty(seed, rates));
        let handles = [fs.client(), fs.client()];
        let cred = Cred::superuser();
        let k = &mut sys.kernel;

        // Handle h controls target h exclusively, so the kernel event
        // log gives per-handle ground truth.
        let mut opened = Vec::new();
        for (h, pid) in targets.iter().enumerate() {
            let c = &handles[h];
            let dir = wait_retry(c, k, |c| c.submit_lookup(ctl, NodeId(0), &pid.0.to_string()));
            let node = wait_retry(c, k, |c| c.submit_lookup(ctl, dir, "ctl"));
            let tok = wait_retry(c, k, |c| c.submit_open(ctl, node, OFlags::wronly(), &cred));
            opened.push((node, tok));
        }
        let msg = ctl_record(PCKILL, &(signal::SIGUSR1 as u32).to_le_bytes());
        // Eight sequenced writes (four per handle) all in flight at
        // once, interleaved across the handles.
        let mut futs = Vec::new();
        for _ in 0..4 {
            for h in 0..2 {
                let (node, tok) = opened[h];
                futs.push((h, handles[h].submit_write(ctl, node, tok, 0, &msg)));
            }
        }
        let (mut acked, mut timed_out) = ([0usize; 2], [0usize; 2]);
        while !futs.is_empty() {
            let advanced = handles[0].pump(k);
            futs.retain_mut(|(h, fut)| match handles[*h].try_complete(fut) {
                Some(Ok(_)) => {
                    acked[*h] += 1;
                    false
                }
                Some(Err(Errno::ETIMEDOUT)) => {
                    timed_out[*h] += 1;
                    false
                }
                Some(Err(e)) => panic!("seed {seed:#x}: ctl write failed dirty: {e}"),
                None => true,
            });
            assert!(advanced || futs.is_empty(), "session wedged with ops in flight");
        }
        for h in 0..2 {
            let posts = sys.kernel.log.sig_posts_of(targets[h], signal::SIGUSR1);
            assert!(
                posts >= acked[h] && posts <= acked[h] + timed_out[h],
                "seed {seed:#x} handle {h}: {} acks + {} timeouts but {posts} posts",
                acked[h],
                timed_out[h]
            );
        }
        let stats = handles[0].stats();
        assert!(stats.duplicates > 0, "seed {seed:#x}: duplication was exercised");
        assert!(stats.dedup_hits > 0, "seed {seed:#x}: the dedup window absorbed the clones");
    }
}
