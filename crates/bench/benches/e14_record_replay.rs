//! E14 — the cost of time travel: deterministic record/replay.
//!
//! PR 8's recorder logs every nondeterministic input at the host
//! boundary (construction config, installs, spawns, host system calls,
//! coalesced step batches) and banks a copy-on-write kernel snapshot
//! every N records. Two questions decide whether the feature can stay
//! on during ordinary work:
//!
//!  * what does recording *cost* while the simulation runs? — the
//!    overhead table compares the same workload with the recorder off
//!    and on across snapshot cadences; the log itself is digests over
//!    bytes already in hand, so the recorded leg should stay within a
//!    small factor of the bare one;
//!  * what does going *back* cost? — `goto_tick` restores the nearest
//!    snapshot and replays only the tail, against the always-correct
//!    full rebuild that replays the entire prefix. The replayed-record
//!    counts make the asymmetry exact, the wall times make it felt.
//!
//! Expected shape: identical guest instruction counts on both overhead
//! legs (the recorder must not perturb the run); snapshot-path goto
//! replaying ≤ cadence records vs the full log for the rebuild, with
//! wall time to match. `tests/bench_smoke.rs` gates exactly that and
//! writes `BENCH_E14.json` under the cargo target directory.

// Bench drivers are throwaway executables: a failed step should abort
// the run loudly, so the harness-wide panic-free gate is waived here.
#![allow(clippy::unwrap_used, clippy::expect_used)]

use bench_support::{banner, goto_latency_point, record_overhead_point};
use bench_support::{criterion_group, Criterion};

const TICKS: u64 = 2048;

fn print_tables() {
    banner("E14", "record/replay: logging overhead and time-travel latency");

    println!("recording overhead ({TICKS} ticks of /bin/spin + /proc reads):");
    let off = record_overhead_point(false, 64, TICKS);
    println!(
        "  {:16} {:>10.2} ms   {:>12} insns",
        "recorder off",
        off.wall_ns as f64 / 1e6,
        off.insns
    );
    for snap_every in [256, 64, 16] {
        let on = record_overhead_point(true, snap_every, TICKS);
        println!(
            "  snap every {:>4} {:>10.2} ms   {:>12} insns   {:>5} records  {:>8} bytes  {:>3} snaps  ({:.2}x)",
            snap_every,
            on.wall_ns as f64 / 1e6,
            on.insns,
            on.records,
            on.bytes_logged,
            on.snapshots,
            on.wall_ns as f64 / off.wall_ns as f64,
        );
    }

    println!("goto-tick to the end of the log, snapshot resume vs full rebuild:");
    for snap_every in [256, 64, 16] {
        let p = goto_latency_point(snap_every, TICKS, 3);
        println!(
            "  snap every {:>4} ({:>3} snaps, {:>4} records): goto {:>9.3} ms replaying {:>4}   rebuild {:>9.3} ms replaying {:>4}   ({:.1}x)",
            p.snapshot_every,
            p.snapshots,
            p.len,
            p.goto_ns as f64 / 1e6,
            p.goto_replayed,
            p.rebuild_ns as f64 / 1e6,
            p.rebuild_replayed,
            p.rebuild_ns as f64 / p.goto_ns as f64,
        );
    }
}

/// Times the two navigation paths at a fixed cadence; the tables above
/// give the cross-cadence shape, this pins the per-call latency.
fn bench(c: &mut Criterion) {
    let mut group = c.benchmark_group("e14_record_replay");
    group.sample_size(10);

    let (mut sys, ctl) = bench_support::boot_with_ctl_cfg(
        ksim::SimConfig::standard().record(true).snapshot_every(64),
    );
    let pid = sys.spawn_program(ctl, "/bin/spin", &["spin"]).expect("spawn");
    // Slice the run with `/proc` reads so the log carries enough
    // records for snapshots to land between them (a single `run_idle`
    // coalesces into a handful of `Steps` batches and the snapshot
    // path would degenerate to the full rebuild).
    for _ in 0..32 {
        sys.run_idle(TICKS / 32);
        if let Ok(fd) =
            sys.host_open(ctl, &format!("/proc/{:05}", pid.0), vfs::OFlags::rdonly())
        {
            let mut buf = [0u8; 64];
            let _ = sys.host_read(ctl, fd, &mut buf);
            let _ = sys.host_close(ctl, fd);
        }
    }
    let rec = sys.recording().expect("recording on");
    let k = rec.len();
    group.bench_function("goto_snapshot_path", |b| {
        b.iter(|| procfs::goto_tick(&sys, k).expect("goto"));
    });
    group.bench_function("full_rebuild", |b| {
        b.iter(|| procfs::replay_to(&rec, k).expect("replay"));
    });
    group.finish();
}

criterion_group!(benches, bench);

fn main() {
    print_tables();
    benches();
    Criterion.configure_from_args().final_summary();
}
