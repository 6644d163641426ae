//! E5 — "Removing the dependence on ioctl simplifies the implementation
//! of /proc in a network environment. The unstructured nature of ioctl
//! operations and the variability of operand sizes and I/O directions
//! make it difficult to cleanly separate the client/server interactions;
//! read and write don't share these problems."
//!
//! Both `/proc` generations are mounted *behind the RFS-like remote
//! shim*. The flat interface only works because a per-request wire table
//! (one shared table, built from the typed `Ioctl` enum) teaches the
//! shim every `PIOC*` operand shape — and operations outside the table
//! (the deprecated variable-size dumps) cannot cross at all. The
//! hierarchical interface crosses generically. E5c adds the wire v2
//! payoff: many clients' tagged ops in flight at once complete out of
//! order, beating one-at-a-time calls on the same lossy wire.

// Bench drivers are throwaway executables: a failed step should abort
// the run loudly, so the harness-wide panic-free gate is waived here.
#![allow(clippy::unwrap_used, clippy::expect_used)]


use bench_support::banner;
use bench_support::{criterion_group, Criterion};
use ksim::{Cred, System};
use procfs::{HierFs, ProcFs, PrStatus};
use tools::proc_io::ProcHandle;
use vfs::remote::{FaultRates, RemoteFs, WireConfig};
use vfs::OFlags;

/// Boots a system whose /proc generations are mounted across the wire.
fn boot_remote() -> (System, ksim::Pid) {
    let mut sys = System::boot();
    tools::install_userland(&mut sys);
    // Flat /proc: needs the full ioctl wire table — the one the typed
    // request enum exports, not a hand-rolled copy.
    let flat = RemoteFs::new(Box::new(ProcFs::new()))
        .with_ioctl_table(procfs::ioctl::wire_table());
    sys.mount("/proc", Box::new(flat));
    // Hierarchical /proc: crosses with no table at all.
    let hier = RemoteFs::new(Box::new(HierFs::new()));
    sys.mount("/proc2", Box::new(hier));
    let ctl = sys.spawn_hosted("remote-ctl", Cred::new(100, 10));
    (sys, ctl)
}

fn print_comparison() {
    banner("E5", "marshalling /proc across an RFS-like wire");
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
    println!(
        "flat PIOCSTATUS over the wire: OK — {} ops, {}B sent, {}B received",
        w.ops, w.bytes_sent, w.bytes_received
    );
    // The deprecated variable-size dump cannot cross.
    let err = sys.host_ioctl(ctl, h.fd, procfs::ioctl::PIOCGETPR, &[]);
    let w = h.wire_stats(&mut sys).expect("wire stats");
    println!(
        "flat PIOCGETPR over the wire : {err:?} ({} refusal(s) — no wire shape exists)",
        w.unsupported_ioctls
    );
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
    println!(
        "hier status by read(2)       : OK — {} ops, {}B sent, {}B received, 0 refusals",
        w.ops, w.bytes_sent, w.bytes_received
    );
    println!();
    println!("wire table size for the flat interface: {} PIOC requests", count_table());
    println!("wire table size for the hierarchy     : 0\n");
}

fn count_table() -> usize {
    procfs::ioctl::Ioctl::ALL.iter().filter(|i| i.wire_spec().is_some()).count()
}

/// Like [`boot_remote`] but the hierarchical mount's wire injects faults
/// at `permille` per class (drop/truncate/bitflip/duplicate/delay).
fn boot_remote_faulted(permille: u16) -> (System, ksim::Pid) {
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
fn print_fault_sweep() {
    banner("E5b", "remote /proc under an increasingly lossy wire");
    println!(
        "{:>9} {:>8} {:>8} {:>8} {:>8} {:>9} {:>9}",
        "rate(\u{2030})", "reads", "ok", "timeout", "retries", "dedup", "faults"
    );
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
        println!(
            "{permille:>9} {:>8} {ok:>8} {timeout:>8} {:>8} {:>9} {:>9}",
            ok + timeout,
            stats.retries,
            stats.dedup_hits,
            stats.faults_injected(),
        );
    }
    println!();
}

/// The wire v2 payoff: N client handles, ops tagged and in flight
/// together, completions demultiplexed out of order — against the same
/// workload issued one blocking op at a time over an identical fault
/// schedule. Time is virtual ticks of the session clock (deterministic).
fn print_multi_client_sweep() {
    banner("E5c", "pipelined multi-client sessions vs. serial ops");
    println!(
        "{:>9} {:>6} {:>10} {:>10} {:>11} {:>11} {:>8}",
        "rate(\u{2030})", "ops", "serial-ok", "piped-ok", "serial-tick", "piped-tick", "speedup"
    );
    for p in bench_support::multi_client_wire_sweep(&[0, 50, 150, 300], 4, 24, 0xE5C0) {
        println!(
            "{:>9} {:>6} {:>10} {:>10} {:>11} {:>11} {:>7.1}x",
            p.permille,
            p.ops,
            p.serial_ok,
            p.pipelined_ok,
            p.serial_ticks,
            p.pipelined_ticks,
            p.serial_ticks as f64 / p.pipelined_ticks.max(1) as f64,
        );
    }
    println!();
}

/// E5d: the readiness-loop server under a rising client count, on a
/// clean wire and under the full adversarial-client mix (slow readers,
/// half-open sessions, frame floods, mid-frame cuts, stale-tag
/// replays). Throughput is successful ops per 1000 virtual ticks; p99
/// is the submit-to-completion latency of the 99th-percentile
/// successful op. Deterministic: same seed, same table.
fn print_client_count_sweep() {
    banner("E5d", "wire server client-count sweep, clean vs. adversarial");
    println!(
        "{:>8} {:>5} {:>6} {:>5} {:>9} {:>7} {:>9} {:>7} {:>6} {:>6}",
        "clients", "mix", "ops", "ok", "ticks", "p99", "ok/ktick", "in-hwm", "evict", "shed"
    );
    for adversarial in [false, true] {
        for p in
            bench_support::client_count_sweep(&[1, 8, 64, 256, 1000], 4, adversarial, 0xE5D0)
        {
            println!(
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
            );
        }
    }
    println!();
}

fn bench(c: &mut Criterion) {
    let mut group = c.benchmark_group("e5_remote");
    group.bench_function("flat_remote_piocstatus", |b| {
        let (mut sys, ctl) = boot_remote();
        let pid = sys.spawn_program(ctl, "/bin/spin", &["spin"]).expect("spawn");
        let fd = sys
            .host_open(ctl, &format!("/proc/{:05}", pid.0), OFlags::rdonly())
            .expect("open");
        b.iter(|| sys.host_ioctl(ctl, fd, procfs::ioctl::PIOCSTATUS, &[]).expect("status"));
    });
    group.bench_function("hier_remote_status_read", |b| {
        let (mut sys, ctl) = boot_remote();
        let pid = sys.spawn_program(ctl, "/bin/spin", &["spin"]).expect("spawn");
        let sfd = sys
            .host_open(ctl, &format!("/proc2/{}/status", pid.0), OFlags::rdonly())
            .expect("open");
        let mut buf = vec![0u8; PrStatus::WIRE_LEN];
        b.iter(|| {
            sys.host_lseek(ctl, sfd, 0, 0).expect("rewind");
            sys.host_read(ctl, sfd, &mut buf).expect("read")
        });
    });
    group.bench_function("hier_remote_status_read_faulted_5pct", |b| {
        let (mut sys, ctl) = boot_remote_faulted(50);
        let pid = sys.spawn_program(ctl, "/bin/spin", &["spin"]).expect("spawn");
        let path = format!("/proc2/{}/status", pid.0);
        let mut buf = vec![0u8; PrStatus::WIRE_LEN];
        b.iter(|| {
            // Opens can time out on a lossy wire; keep the workload's
            // shape honest by paying for the reopen when they do.
            let fd = loop {
                if let Ok(fd) = sys.host_open(ctl, &path, OFlags::rdonly()) {
                    break fd;
                }
            };
            let r = sys.host_read(ctl, fd, &mut buf);
            let _ = sys.host_close(ctl, fd);
            r
        });
    });
    group.bench_function("local_piocstatus_baseline", |b| {
        let (mut sys, ctl) = bench_support::boot_with_ctl();
        let pid = sys.spawn_program(ctl, "/bin/spin", &["spin"]).expect("spawn");
        let fd = sys
            .host_open(ctl, &format!("/proc/{:05}", pid.0), OFlags::rdonly())
            .expect("open");
        b.iter(|| sys.host_ioctl(ctl, fd, procfs::ioctl::PIOCSTATUS, &[]).expect("status"));
    });
    group.finish();
}

criterion_group!(benches, bench);

fn main() {
    print_comparison();
    print_fault_sweep();
    print_multi_client_sweep();
    print_client_count_sweep();
    benches();
    Criterion.configure_from_args().final_summary();
}
