//! Coherence and hit-rate checks for the generation-stamped snapshot
//! cache shared by the two `/proc` interfaces.
//!
//! The oracle: after every randomized kernel mutation, every cached read
//! (flat `PIOC*` ioctl replies, hierarchical file images, both root
//! listings) must be byte-identical to a freshly rendered image. Read
//! twice so both the fill path and the hot hit path are compared.

use bench_support::XorShift;
use procsim::ksim::{Cred, Kernel, Pid, SysResult, System};
use procsim::procfs::ioctl::{
    PIOCCACHESTATS, PIOCCRED, PIOCMAP, PIOCPSINFO, PIOCSTATUS, PIOCUSAGE,
};
use procsim::procfs::{ops, PrCacheStats, PrCred, PrMap, PrUsage, PsInfo};
use procsim::tools;

/// The five pure-read requests whose replies are cached, with the
/// hierarchical file each is byte-identical to.
const CACHED: [(u32, &str); 5] = [
    (PIOCSTATUS, "status"),
    (PIOCPSINFO, "psinfo"),
    (PIOCMAP, "map"),
    (PIOCCRED, "cred"),
    (PIOCUSAGE, "usage"),
];

/// Renders the wire image directly from kernel state, bypassing both
/// file systems and therefore the cache.
fn fresh(k: &Kernel, pid: Pid, req: u32) -> SysResult<Vec<u8>> {
    match req {
        PIOCSTATUS => ops::status_bytes(k, pid, None),
        PIOCPSINFO => PsInfo::capture(k, pid).map(|p| p.to_bytes()),
        PIOCMAP => PrMap::capture_all(k, pid).map(|maps| {
            let mut out = Vec::new();
            for m in &maps {
                out.extend_from_slice(&m.to_bytes());
            }
            out
        }),
        PIOCCRED => PrCred::capture(k, pid).map(|c| c.to_bytes()),
        PIOCUSAGE => PrUsage::capture(k, pid).map(|u| u.to_bytes()),
        _ => unreachable!("not a cached request"),
    }
}

/// Reads a whole hierarchical status file.
fn read_all(sys: &mut System, ctl: Pid, path: &str) -> SysResult<Vec<u8>> {
    let fd = sys.host_open(ctl, path, vfs::OFlags::rdonly())?;
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

/// Compares every cached read path for one pid against fresh renders.
fn check_pid(sys: &mut System, ctl: Pid, pid: Pid) {
    if let Ok(fd) = sys.host_open(ctl, &format!("/proc/{:05}", pid.0), vfs::OFlags::rdonly()) {
        for (req, _) in CACHED {
            let expect = fresh(&sys.kernel, pid, req);
            for pass in 0..2 {
                let got = sys.host_ioctl(ctl, fd, req, &[]);
                assert_eq!(
                    got.is_ok(),
                    expect.is_ok(),
                    "flat {req:#x} pass {pass} pid {}: {got:?} vs {expect:?}",
                    pid.0
                );
                if let (Ok(g), Ok(e)) = (&got, &expect) {
                    assert_eq!(g, e, "flat {req:#x} pass {pass} pid {} diverged", pid.0);
                }
            }
        }
        let _ = sys.host_close(ctl, fd);
    }
    for (req, file) in CACHED {
        let expect = fresh(&sys.kernel, pid, req);
        for pass in 0..2 {
            let got = read_all(sys, ctl, &format!("/proc2/{}/{}", pid.0, file));
            assert_eq!(
                got.is_ok(),
                expect.is_ok(),
                "hier {file} pass {pass} pid {}: {got:?} vs {expect:?}",
                pid.0
            );
            if let (Ok(g), Ok(e)) = (&got, &expect) {
                assert_eq!(g, e, "hier {file} pass {pass} pid {} diverged", pid.0);
            }
        }
    }
    check_lwps(sys, ctl, pid);
}

/// Compares the per-LWP cached images (`lwp/<tid>/status`, `gregs`) —
/// stamped with the per-LWP generation — against fresh renders.
fn check_lwps(sys: &mut System, ctl: Pid, pid: Pid) {
    let tids: Vec<u32> = match sys.kernel.proc(pid) {
        Ok(p) if !p.zombie => p.lwps.iter().map(|l| l.tid.0).collect(),
        _ => return,
    };
    for tid in tids {
        let expect_status = ops::status_bytes(&sys.kernel, pid, Some(procsim::ksim::Tid(tid)));
        let expect_gregs = sys
            .kernel
            .proc(pid)
            .ok()
            .and_then(|p| p.lwp(procsim::ksim::Tid(tid)))
            .map(|l| l.gregs.to_bytes());
        for pass in 0..2 {
            let st = read_all(sys, ctl, &format!("/proc2/{}/lwp/{}/status", pid.0, tid));
            assert_eq!(
                st.ok(),
                expect_status.clone().ok(),
                "lwp {tid} status pass {pass} pid {} diverged",
                pid.0
            );
            let gr = read_all(sys, ctl, &format!("/proc2/{}/lwp/{}/gregs", pid.0, tid));
            assert_eq!(
                gr.ok(),
                expect_gregs.clone(),
                "lwp {tid} gregs pass {pass} pid {} diverged",
                pid.0
            );
        }
    }
}

/// Compares both cached root listings against the process table.
fn check_dirs(sys: &mut System, ctl: Pid) {
    let mut expect: Vec<u32> = sys.kernel.procs.keys().copied().collect();
    expect.sort_unstable();
    for (path, width) in [("/proc", 5usize), ("/proc2", 0)] {
        let once = sys.list_dir(ctl, path).expect("list");
        let again = sys.list_dir(ctl, path).expect("list");
        assert_eq!(once, again, "{path} cached listing diverged");
        let mut got: Vec<u32> = once.iter().filter_map(|e| e.name.parse().ok()).collect();
        got.sort_unstable();
        assert_eq!(got, expect, "{path} listing does not match the table");
        if width > 0 {
            assert!(once.iter().all(|e| e.name.len() >= width));
        }
    }
}

/// Writes a few bytes into the target's address space through the flat
/// process file (one of the mutations the cache must observe).
fn poke_memory(sys: &mut System, ctl: Pid, pid: Pid, rng: &mut XorShift) {
    let Ok(maps) = PrMap::capture_all(&sys.kernel, pid) else { return };
    let Ok(fd) = sys.host_open(ctl, &format!("/proc/{:05}", pid.0), vfs::OFlags::rdwr()) else {
        return;
    };
    for m in &maps {
        // Prefer a writable page; fall back on trying them all.
        if m.prot & 2 == 0 {
            continue;
        }
        let off = m.vaddr + rng.below(m.size.clamp(1, 64));
        let n = 1 + rng.below(4) as usize;
        let data = rng.bytes(n);
        if sys.host_lseek(ctl, fd, off as i64, 0).is_ok() && sys.host_write(ctl, fd, &data).is_ok()
        {
            break;
        }
    }
    let _ = sys.host_close(ctl, fd);
}

/// Randomized interleaving of signals, stops, resumes, forks, execs,
/// exits and memory writes; the cache must stay coherent after each.
#[test]
fn cache_coherence_oracle() {
    for seed in [0x0dd5eedu64, 0xf00dfeed] {
        let mut rng = XorShift::new(seed);
        let mut sys = tools::boot_demo();
        let ctl = sys.spawn_hosted("oracle", Cred::superuser());
        let mut victims: Vec<Pid> = (0..4)
            .map(|_| sys.spawn_program(ctl, "/bin/spin", &["spin"]).expect("spawn"))
            .collect();
        sys.run_idle(100);
        for _step in 0..40 {
            let pick = victims[rng.below(victims.len() as u64) as usize];
            let alive = sys.kernel.proc(pick).map(|p| !p.zombie).unwrap_or(false);
            match rng.below(6) {
                // Let the scheduler run: slices, faults, timer wakeups.
                0 => sys.run_idle(1 + rng.below(60)),
                // Event-stop and resume through the control interface.
                1 if alive => {
                    if let Ok(mut h) = tools::ProcHandle::open_rw(&mut sys, ctl, pick) {
                        let _ = h.stop(&mut sys);
                        if rng.below(2) == 0 {
                            let _ = h.resume(&mut sys);
                        }
                        let _ = h.close(&mut sys);
                    }
                }
                // Asynchronous signal delivery.
                2 if alive => {
                    let sig = [
                        procsim::ksim::signal::SIGINT,
                        procsim::ksim::signal::SIGTERM,
                        procsim::ksim::signal::SIGKILL,
                    ][rng.below(3) as usize];
                    let _ = sys.host_kill(ctl, pick, sig);
                    sys.run_idle(1 + rng.below(20));
                }
                // Fork/exec: a fresh process enters the table.
                3 => {
                    if let Ok(pid) = sys.spawn_program(ctl, "/bin/spin", &["spin"]) {
                        victims.push(pid);
                    }
                    sys.run_idle(1 + rng.below(20));
                }
                // Direct virtual-memory write through the process file.
                4 if alive => poke_memory(&mut sys, ctl, pick, &mut rng),
                _ => sys.run_idle(1 + rng.below(10)),
            }
            check_dirs(&mut sys, ctl);
            // Spot-check a few pids, always including the one poked.
            check_pid(&mut sys, ctl, pick);
            for _ in 0..2 {
                let p = victims[rng.below(victims.len() as u64) as usize];
                check_pid(&mut sys, ctl, p);
            }
        }
    }
}

/// Reads the shared cache's counters through the flat interface.
fn cache_stats(sys: &mut System, ctl: Pid, fd: usize) -> PrCacheStats {
    let bytes = sys.host_ioctl(ctl, fd, PIOCCACHESTATS, &[]).expect("stats");
    PrCacheStats::from_bytes(&bytes).expect("decode")
}

/// The `ps` hot path: repeated `PIOCPSINFO` over an idle process must be
/// served from cache (>99% hits) and stay byte-identical throughout.
#[test]
fn repeated_psinfo_reads_hit_cache() {
    let mut sys = tools::boot_demo();
    let ctl = sys.spawn_hosted("ps", Cred::superuser());
    let pid = sys.spawn_program(ctl, "/bin/spin", &["spin"]).expect("spawn");
    sys.run_idle(50);
    let fd =
        sys.host_open(ctl, &format!("/proc/{:05}", pid.0), vfs::OFlags::rdonly()).expect("open");
    let before = cache_stats(&mut sys, ctl, fd);
    let first = sys.host_ioctl(ctl, fd, PIOCPSINFO, &[]).expect("psinfo");
    for _ in 1..1000 {
        let again = sys.host_ioctl(ctl, fd, PIOCPSINFO, &[]).expect("psinfo");
        assert_eq!(again, first, "idle process produced a new image");
    }
    let after = cache_stats(&mut sys, ctl, fd);
    let hits = after.hits - before.hits;
    let not_hits = (after.misses - before.misses) + (after.invalidations - before.invalidations);
    assert!(
        hits >= 990 && not_hits <= 10,
        "cache hit rate below 99%: {hits} hits, {not_hits} misses/invalidations"
    );
    assert!(after.entries >= 1);
}

/// The per-LWP generation stamp at work: a mutation scoped to a
/// non-representative LWP (`PCSREG` through its own ctl file) must leave
/// the whole-process and sibling-LWP cache entries valid — only the
/// mutated LWP's own images re-render, and they re-render correctly.
#[test]
fn lwp_mutation_preserves_process_and_sibling_entries() {
    use procsim::procfs::ctl_record;
    use procsim::procfs::hier::{PCSREG, PCSTOP};

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
            jmp side
    "#;
    let mut sys = tools::boot_demo();
    let ctl = sys.spawn_hosted("lwp", Cred::superuser());
    sys.install_program("/bin/threads", src);
    let pid = sys.spawn_program(ctl, "/bin/threads", &["threads"]).expect("spawn");
    sys.run_until(10_000, |s| s.kernel.proc(pid).map(|p| p.lwps.len() == 2).unwrap_or(false));
    sys.run_idle(20);

    // Stop only LWP 2, then warm every cache entry we care about.
    let cfd = sys
        .host_open(ctl, &format!("/proc2/{}/lwp/2/ctl", pid.0), vfs::OFlags::wronly())
        .expect("open lwp ctl");
    sys.host_write(ctl, cfd, &ctl_record(PCSTOP, &[])).expect("stop lwp 2");
    let status_path = format!("/proc2/{}/status", pid.0);
    let l1_status_path = format!("/proc2/{}/lwp/1/status", pid.0);
    let l2_gregs_path = format!("/proc2/{}/lwp/2/gregs", pid.0);
    for path in [&status_path, &l1_status_path, &l2_gregs_path] {
        read_all(&mut sys, ctl, path).expect("warm");
    }
    let flat_fd = sys
        .host_open(ctl, &format!("/proc/{:05}", pid.0), vfs::OFlags::rdonly())
        .expect("open flat");

    // Rewrite LWP 2's registers through its own ctl file.
    let mut gregs =
        procsim::isa::GregSet::from_bytes(&read_all(&mut sys, ctl, &l2_gregs_path).expect("gregs"))
            .expect("decode gregs");
    gregs.set_r(7, 0xDEAD_0001);
    let s1 = cache_stats(&mut sys, ctl, flat_fd);
    sys.host_write(ctl, cfd, &ctl_record(PCSREG, &gregs.to_bytes())).expect("set regs");

    // Process-level and sibling-LWP images still hit the cache.
    read_all(&mut sys, ctl, &status_path).expect("status");
    read_all(&mut sys, ctl, &l1_status_path).expect("lwp1 status");
    let s2 = cache_stats(&mut sys, ctl, flat_fd);
    assert_eq!(
        s2.invalidations, s1.invalidations,
        "an LWP-scoped mutation evicted process/sibling entries"
    );
    assert_eq!(s2.misses, s1.misses, "an LWP-scoped mutation forced a re-render");
    assert!(s2.hits > s1.hits, "the surviving entries were not actually used");

    // The mutated LWP's own image re-renders — with the new contents.
    let after = read_all(&mut sys, ctl, &l2_gregs_path).expect("gregs after");
    let decoded = procsim::isa::GregSet::from_bytes(&after).expect("decode");
    assert_eq!(decoded.r[7], 0xDEAD_0001, "the cached gregs image went stale");
    let s3 = cache_stats(&mut sys, ctl, flat_fd);
    assert_eq!(
        s3.invalidations,
        s2.invalidations + 1,
        "exactly the mutated LWP's entry is invalidated"
    );
}

/// The tentpole's sharing claim: an image rendered for the hierarchical
/// interface is served to the flat one without re-rendering.
#[test]
fn flat_and_hier_share_cached_images() {
    let mut sys = tools::boot_demo();
    let ctl = sys.spawn_hosted("share", Cred::superuser());
    let pid = sys.spawn_program(ctl, "/bin/spin", &["spin"]).expect("spawn");
    sys.run_idle(50);
    // Warm the entry through /proc2.
    let via_hier = read_all(&mut sys, ctl, &format!("/proc2/{}/psinfo", pid.0)).expect("read");
    let fd =
        sys.host_open(ctl, &format!("/proc/{:05}", pid.0), vfs::OFlags::rdonly()).expect("open");
    let before = cache_stats(&mut sys, ctl, fd);
    let via_flat = sys.host_ioctl(ctl, fd, PIOCPSINFO, &[]).expect("psinfo");
    let after = cache_stats(&mut sys, ctl, fd);
    assert_eq!(via_flat, via_hier, "the two interfaces render differently");
    assert_eq!(after.hits, before.hits + 1, "flat read did not hit the shared entry");
    assert_eq!(after.misses, before.misses);
}
