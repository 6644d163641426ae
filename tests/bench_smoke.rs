//! Smoke-sized runs of the headline performance claims, gated inside
//! `cargo test` (alias: `cargo bench-smoke`):
//!
//! * E5c — pipelined multi-client wire sessions must finish in strictly
//!   fewer virtual ticks than one-op-at-a-time calls, clean and lossy
//!   alike;
//! * E5d — the readiness-loop wire server must scale 1 → 1000 sessions,
//!   keep every queue under its cap under the adversarial-client mix,
//!   and replay deterministically (`BENCH_E5D.json`);
//! * E13 — the execution fast path (software TLB + decoded-instruction
//!   cache + superblock engine) must retire hot-loop instructions at
//!   ≥ 2× the slow-path rate (`BENCH_E13.json`, with a dense-breakpoint
//!   row for the per-page text epochs);
//! * E14 — record/replay must be near-free while recording and
//!   snapshot-cheap while travelling (`BENCH_E14.json`);
//! * E15 — live migration over the adversarial wire must cost only
//!   bounded re-sends on top of the loss-free chunk floor, and the
//!   durable recfile round trip must parse strictly cheaper than the
//!   full cross-process rebuild (`BENCH_E15.json`);
//! * E16 — the gang-round scheduler gives identical guest results at
//!   every shard count (`BENCH_E16.json`).
//!
//! Each gate writes its figures as JSON into the cargo target's
//! scratch directory (`CARGO_TARGET_TMPDIR`, e.g. `target/tmp/`), never
//! into tracked files.

use bench_support::FastPathPoint;
use std::fmt::Write as _;

/// Writes one experiment's JSON figures under the cargo target's
/// scratch directory.
fn write_figures(name: &str, json: &str) {
    let out = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join(name);
    std::fs::write(&out, json).unwrap_or_else(|e| panic!("write {}: {e}", out.display()));
}

#[test]
fn pipelining_beats_serial_at_smoke_scale() {
    let points = bench_support::multi_client_wire_sweep(&[0, 80], 3, 8, 0x53_40_CE);
    for p in &points {
        assert_eq!(p.ops, 24, "rate {}: wrong workload size", p.permille);
        assert!(
            p.pipelined_ticks < p.serial_ticks,
            "rate {}: pipelined ({} ticks) must beat serial ({} ticks)",
            p.permille,
            p.pipelined_ticks,
            p.serial_ticks
        );
    }
    // On the clean wire every op lands on both legs.
    assert_eq!(points[0].serial_ok, points[0].ops);
    assert_eq!(points[0].pipelined_ok, points[0].ops);
}

/// Renders one E5d point as a JSON object.
fn client_count_json(p: &bench_support::ClientCountPoint) -> String {
    let mut s = String::new();
    write!(
        s,
        "    {{\"clients\": {}, \"mix\": \"{}\", \"ops\": {}, \"ok\": {}, \"ticks\": {}, \
         \"p99_ticks\": {}, \"ok_per_kilotick\": {:.3}, \"in_queue_hwm\": {}, \
         \"out_queue_hwm\": {}, \"sessions_evicted\": {}, \"frames_shed\": {}}}",
        p.clients,
        if p.adversarial { "adversarial" } else { "clean" },
        p.ops,
        p.ok,
        p.ticks,
        p.p99_ticks,
        p.ok_per_kilotick,
        p.in_queue_hwm,
        p.out_queue_hwm,
        p.sessions_evicted,
        p.frames_shed,
    )
    .expect("write to string");
    s
}

/// E5d smoke gate: the readiness-loop wire server must scale from one
/// to a thousand concurrent sessions. On the clean mix every op lands;
/// under the adversarial-client mix the server keeps making progress,
/// never lets a queue past its cap, and replays byte-identically from
/// the same seed. Emits `BENCH_E5D.json` as a side effect.
#[test]
fn wire_server_scales_to_a_thousand_sessions() {
    const COUNTS: [usize; 5] = [1, 8, 64, 256, 1000];
    const OPS_PER_CLIENT: usize = 4;
    const SEED: u64 = 0xE5D0;
    const QUEUE_CAP: u64 = 4096;

    let clean = bench_support::client_count_sweep(&COUNTS, OPS_PER_CLIENT, false, SEED);
    let adv = bench_support::client_count_sweep(&COUNTS, OPS_PER_CLIENT, true, SEED);

    for p in &clean {
        // Up to 256 sessions the server drains the whole offered load.
        // At 1000 the fixed per-tick service budget is oversubscribed by
        // design: the tail resolves to typed timeouts instead of
        // hanging, so the gate asks for progress, not completeness.
        if p.clients <= 256 {
            assert_eq!(p.ok, p.ops, "clean wire dropped ops at {} clients: {p:?}", p.clients);
        } else {
            assert!(p.ok > p.ops / 4, "clean wire collapsed at {} clients: {p:?}", p.clients);
        }
        assert_eq!(p.sessions_evicted, 0, "clean wire evicted a session: {p:?}");
    }
    for p in &adv {
        assert!(p.ok > 0, "adversarial mix starved all clients at {} clients: {p:?}", p.clients);
        assert!(
            p.in_queue_hwm <= QUEUE_CAP && p.out_queue_hwm <= QUEUE_CAP,
            "queue cap exceeded at {} clients: {p:?}",
            p.clients
        );
    }
    // Throughput must grow with concurrency on the clean wire: 1000
    // pipelined sessions land far more ops per tick than one.
    assert!(
        clean.last().expect("points").ok_per_kilotick > clean[0].ok_per_kilotick,
        "no concurrency win: {clean:?}"
    );
    // Determinism at full scale: the same seed replays identically.
    let replay = bench_support::client_count_point(1000, OPS_PER_CLIENT, true, SEED);
    assert_eq!(replay, adv[4], "adversarial 1000-client run did not replay");

    let mut rows: Vec<String> = Vec::new();
    for p in clean.iter().chain(adv.iter()) {
        rows.push(client_count_json(p));
    }
    let json = format!(
        "{{\n  \"experiment\": \"E5d\",\n  \"title\": \"wire server client-count sweep, clean vs. adversarial\",\n  \"ops_per_client\": {OPS_PER_CLIENT},\n  \"seed\": {SEED},\n  \"queue_cap\": {QUEUE_CAP},\n  \"points\": [\n{}\n  ]\n}}\n",
        rows.join(",\n"),
    );
    write_figures("BENCH_E5D.json", &json);
}

/// Renders one E13 point as a JSON object (hand-rolled: the workspace
/// takes no external dependencies, and a dozen scalar fields do not
/// justify one).
fn point_json(program: &str, p: &FastPathPoint) -> String {
    let mut s = String::new();
    write!(
        s,
        "    {{\"program\": \"{}\", \"fast\": {}, \"insns\": {}, \"wall_ns\": {}, \
         \"insns_per_sec\": {:.1}, \"tlb_hits\": {}, \"tlb_misses\": {}, \
         \"tlb_hit_rate\": {:.6}, \"icache_hits\": {}, \"icache_misses\": {}, \
         \"icache_hit_rate\": {:.6}, \"sblock_built\": {}, \"sblock_dispatched\": {}, \
         \"sblock_insns\": {}, \"sblock_stale\": {}, \"sblock_coverage\": {:.6}}}",
        program,
        p.fast,
        p.insns,
        p.wall_ns,
        p.insns_per_sec,
        p.tlb_hits,
        p.tlb_misses,
        p.tlb_hit_rate(),
        p.icache_hits,
        p.icache_misses,
        p.icache_hit_rate(),
        p.sblock_built,
        p.sblock_dispatched,
        p.sblock_insns,
        p.sblock_stale,
        p.sblock_coverage(),
    )
    .expect("write to string");
    s
}

/// Renders one dense-breakpoint point as a JSON object.
fn dense_json(p: &bench_support::DenseBpPoint) -> String {
    let mut s = String::new();
    write!(
        s,
        "    {{\"hits_per_sec\": {:.1}, \"sblock_built\": {}, \"sblock_stale\": {}, \
         \"page_epoch_bumps\": {}}}",
        p.hits_per_sec, p.sblock_built, p.sblock_stale, p.page_epoch_bumps,
    )
    .expect("write to string");
    s
}

/// E13 smoke point: the per-LWP fast path must be a real accelerator,
/// not a wash. Both legs execute the identical instruction stream (the
/// 32-seed differential oracles in `kernel_fault`/`remote_fault` prove
/// behavioral equivalence); here only the wall-clock rate and the cache
/// hit rates differ. Emits `BENCH_E13.json` as a side effect.
#[test]
fn fast_path_doubles_hot_loop_throughput() {
    const TICKS: u64 = 4000;
    const REPS: usize = 3;
    // spin: store-free jump loop, pure icache. watched: two stores per
    // iteration, exercises the dTLB too.
    let (spin_off, spin_on) = bench_support::fast_path_pair("/bin/spin", TICKS, REPS);
    let (watched_off, watched_on) = bench_support::fast_path_pair("/bin/watched", TICKS, REPS);

    // Same tick budget, same deterministic machine: both legs must have
    // retired the same number of instructions.
    assert_eq!(spin_off.insns, spin_on.insns, "fast path changed the spin schedule");
    assert_eq!(watched_off.insns, watched_on.insns, "fast path changed the watched schedule");
    assert!(spin_on.insns > 100_000, "spin barely ran: {spin_on:?}");

    // The disabled leg reports dark caches; the enabled leg is hot.
    // Almost all hot-loop instructions must retire inside superblock
    // dispatches (block execution bypasses per-instruction fetch, so
    // superblock coverage is the hot-path gate the icache hit rate used
    // to be).
    assert_eq!((spin_off.tlb_hits, spin_off.sblock_insns), (0, 0), "{spin_off:?}");
    assert!(spin_on.sblock_coverage() > 0.99, "spin superblocks cold: {spin_on:?}");
    assert!(watched_on.sblock_coverage() > 0.99, "watched superblocks cold: {watched_on:?}");
    assert!(watched_on.tlb_hit_rate() > 0.99, "watched dTLB cold: {watched_on:?}");

    // The E1 metric, before/after: breakpoints/sec on the compute-loop
    // workload (one hit per ~770 retired instructions).
    let (bp_slow, bp_fast) = bench_support::breakpoint_rate_pair(40, REPS);

    // The dense-breakpoint row: breakpoint traffic writing into one
    // page of a multi-page text (the per-page property itself is pinned
    // by `vm`'s `page_epochs_move_per_page_not_per_mapping` and by
    // `tests/sblock.rs`).
    let dense = bench_support::dense_breakpoint_best(24, REPS);

    let spin_speedup = spin_on.insns_per_sec / spin_off.insns_per_sec;
    let watched_speedup = watched_on.insns_per_sec / watched_off.insns_per_sec;
    let json = format!(
        "{{\n  \"experiment\": \"E13\",\n  \"title\": \"execution fast path: software TLB + decoded-instruction cache + superblocks\",\n  \"ticks\": {TICKS},\n  \"reps\": {REPS},\n  \"points\": [\n{},\n{},\n{},\n{}\n  ],\n  \"spin_speedup\": {spin_speedup:.3},\n  \"watched_speedup\": {watched_speedup:.3},\n  \"e1_breakpoints_per_sec_slow_path\": {bp_slow:.1},\n  \"e1_breakpoints_per_sec_fast_path\": {bp_fast:.1},\n  \"e1_speedup\": {:.3},\n  \"dense_breakpoints\": [\n{}\n  ]\n}}\n",
        point_json("/bin/spin", &spin_off),
        point_json("/bin/spin", &spin_on),
        point_json("/bin/watched", &watched_off),
        point_json("/bin/watched", &watched_on),
        bp_fast / bp_slow,
        dense_json(&dense),
    );
    write_figures("BENCH_E13.json", &json);

    // The acceptance bar: ≥ 2× insns/sec on the hot loop. The margin is
    // wide — the fast path skips both the mapping binary search and the
    // decoder — so this holds under debug and release profiles alike.
    assert!(
        spin_speedup >= 2.0,
        "fast path only {spin_speedup:.2}x on spin:\noff {spin_off:?}\non  {spin_on:?}"
    );
    assert!(
        watched_speedup >= 2.0,
        "fast path only {watched_speedup:.2}x on watched:\noff {watched_off:?}\non  {watched_on:?}"
    );
    // Breakpoints/sec must improve measurably (release runs show ~3×;
    // 1.5× leaves room for a loaded machine and the debug profile).
    assert!(
        bp_fast >= bp_slow * 1.5,
        "fast path moved breakpoints/sec only {:.0} -> {:.0}",
        bp_slow,
        bp_fast
    );
}

/// Renders one E14 goto point as a JSON object.
fn goto_json(p: &bench_support::GotoPoint) -> String {
    let mut s = String::new();
    write!(
        s,
        "    {{\"snapshot_every\": {}, \"records\": {}, \"snapshots\": {}, \
         \"goto_ns\": {}, \"goto_replayed\": {}, \"rebuild_ns\": {}, \
         \"rebuild_replayed\": {}, \"speedup\": {:.3}}}",
        p.snapshot_every,
        p.len,
        p.snapshots,
        p.goto_ns,
        p.goto_replayed,
        p.rebuild_ns,
        p.rebuild_replayed,
        p.rebuild_ns as f64 / p.goto_ns as f64,
    )
    .expect("write to string");
    s
}

/// E14 smoke gate: time travel must be cheap in both directions. The
/// recorder must not perturb the run (identical guest instruction
/// counts with it off and on), the log and snapshots must actually
/// accumulate, and `goto_tick` via the nearest snapshot must re-apply
/// only the tail of the log where the full rebuild re-applies all of
/// it — with wall-clock to match at the densest cadence. Emits
/// `BENCH_E14.json` as a side effect.
#[test]
fn record_replay_time_travel_is_cheap() {
    const TICKS: u64 = 2048;

    let off = bench_support::record_overhead_point(false, 64, TICKS);
    let on = bench_support::record_overhead_point(true, 64, TICKS);
    assert_eq!(off.insns, on.insns, "recording perturbed the run:\noff {off:?}\non  {on:?}");
    assert!(on.records > 50, "log barely grew: {on:?}");
    assert!(on.bytes_logged > 1000, "digests folded almost nothing: {on:?}");
    assert!(on.snapshots > 0, "no snapshot landed: {on:?}");
    assert_eq!(off.records, 0, "recorder ran while off: {off:?}");

    let points: Vec<bench_support::GotoPoint> =
        [256, 64, 16].iter().map(|&n| bench_support::goto_latency_point(n, TICKS, 3)).collect();
    for p in &points {
        // The exactness claim, independent of wall clock: the snapshot
        // path re-applies at most one cadence worth of records (plus
        // the odd record while a snapshot was pending), the rebuild
        // re-applies every one.
        assert_eq!(p.rebuild_replayed as usize, p.len, "rebuild skipped records: {p:?}");
        if p.snapshots > 1 {
            assert!(
                p.goto_replayed <= 2 * p.snapshot_every as u64,
                "snapshot resume replayed too much: {p:?}"
            );
        }
    }
    // The felt claim, at the densest cadence only (widest margin):
    // resuming from the last snapshot must beat replaying the world.
    let dense = &points[2];
    assert!(dense.snapshots > 1, "densest cadence banked no snapshots: {dense:?}");
    assert!(
        dense.goto_ns < dense.rebuild_ns,
        "snapshot resume not faster than full rebuild: {dense:?}"
    );

    let overhead = on.wall_ns as f64 / off.wall_ns as f64;
    let json = format!(
        "{{\n  \"experiment\": \"E14\",\n  \"title\": \"record/replay: logging overhead and time-travel latency\",\n  \"ticks\": {TICKS},\n  \"record_overhead\": {{\"off_wall_ns\": {}, \"on_wall_ns\": {}, \"ratio\": {overhead:.3}, \"records\": {}, \"bytes_logged\": {}, \"snapshots\": {}}},\n  \"goto_points\": [\n{}\n  ]\n}}\n",
        off.wall_ns,
        on.wall_ns,
        on.records,
        on.bytes_logged,
        on.snapshots,
        points.iter().map(goto_json).collect::<Vec<_>>().join(",\n"),
    );
    write_figures("BENCH_E14.json", &json);
}

/// Renders one E15 migration point as a JSON object.
fn migrate_json(p: &bench_support::MigratePoint) -> String {
    let mut s = String::new();
    write!(
        s,
        "    {{\"fault_permille\": {}, \"adversary_permille\": {}, \
         \"wall_ns\": {}, \"bytes\": {}, \"chunks\": {}, \"min_chunks\": {}, \
         \"retries\": {}, \"dup_chunks\": {}, \"resumes\": {}}}",
        p.fault_permille,
        p.adversary_permille,
        p.wall_ns,
        p.bytes,
        p.chunks,
        p.min_chunks,
        p.retries,
        p.dup_chunks,
        p.resumes,
    )
    .expect("write to string");
    s
}

/// E15 smoke gate: live migration over the wire and recording
/// durability must be cheap and exactly-once. A clean wire moves the
/// image in exactly the loss-free chunk floor with zero re-sends;
/// faulted and adversarial wires still commit, paying only bounded
/// retries whose duplicate deliveries the destination kernel absorbs
/// as `dup_chunks` rather than double-applying. The recfile round
/// trip must parse-and-verify strictly cheaper than the full
/// cross-process rebuild it feeds. Emits `BENCH_E15.json` as a side
/// effect.
#[test]
fn migration_and_recfile_durability_are_cheap() {
    let sweep: [(u16, u16); 3] = [(0, 0), (80, 0), (120, 150)];
    let points: Vec<bench_support::MigratePoint> = sweep
        .iter()
        .enumerate()
        .map(|(i, &(f, a))| {
            bench_support::migrate_point(0xE150_0001 + i as u64 * 0x9E37, f, a)
        })
        .collect();

    // Clean wire: the floor exactly — no re-sends, no duplicates, no
    // resumed transfers.
    let clean = &points[0];
    assert_eq!(clean.retries, 0, "clean wire needed retries: {clean:?}");
    assert_eq!(clean.chunks, clean.min_chunks, "clean wire off the chunk floor: {clean:?}");
    assert_eq!(clean.dup_chunks, 0, "clean wire duplicated chunks: {clean:?}");
    assert_eq!(clean.resumes, 0, "clean wire resumed a transfer: {clean:?}");
    for p in &points {
        // Every leg committed (migrate_point panics otherwise) and no
        // leg beats the loss-free floor — re-sends only ever add work.
        assert!(p.bytes > 0, "empty checkpoint image: {p:?}");
        assert!(p.chunks >= p.min_chunks, "fewer chunks than the floor: {p:?}");
    }

    let rf = bench_support::recfile_point(64, 2048, 3);
    assert!(rf.records > 50, "recfile workload barely logged: {rf:?}");
    assert!(rf.bytes > 0, "empty recfile image: {rf:?}");
    assert!(
        rf.load_ns < rf.replay_ns,
        "parse+verify not cheaper than the full rebuild: {rf:?}"
    );

    let json = format!(
        "{{\n  \"experiment\": \"E15\",\n  \"title\": \"live migration over the adversarial wire and recfile durability\",\n  \"migrate_points\": [\n{}\n  ],\n  \"recfile\": {{\"records\": {}, \"bytes\": {}, \"save_ns\": {}, \"load_ns\": {}, \"replay_ns\": {}}}\n}}\n",
        points.iter().map(migrate_json).collect::<Vec<_>>().join(",\n"),
        rf.records,
        rf.bytes,
        rf.save_ns,
        rf.load_ns,
        rf.replay_ns,
    );
    write_figures("BENCH_E15.json", &json);
}

/// Renders one E16 point as a JSON object.
fn shard_json(workload: &str, p: &bench_support::ShardPoint) -> String {
    let mut s = String::new();
    write!(
        s,
        "    {{\"workload\": \"{}\", \"shards\": {}, \"guests\": {}, \"insns\": {}, \
         \"clock\": {}, \"wall_ns\": {}, \"insns_per_sec\": {:.1}}}",
        workload, p.shards, p.guests, p.insns, p.clock, p.wall_ns, p.insns_per_sec,
    )
    .expect("write to string");
    s
}

/// E16 smoke gate: the sharded gang-round engine. Guest-visible results
/// (total retired instructions and the final clock) must be identical
/// at every shard count — on the embarrassingly parallel spin farm and
/// on the serial-commit-heavy pipe farm alike — because the shard count
/// only chooses host parallelism, never the interleaving. On hosts with
/// at least 4 cores, the spin farm at `shards=4` must also retire
/// instructions at ≥ 2× the `shards=1` wall-clock rate; single-core
/// containers skip the scaling bar (there is nothing to scale onto) but
/// still enforce determinism and emit `BENCH_E16.json`.
#[test]
fn sharded_engine_is_deterministic_and_scales() {
    const TICKS: u64 = 400;
    const GUESTS: usize = 8;
    const PAIRS: usize = 6;

    let spin: Vec<bench_support::ShardPoint> =
        [1u32, 2, 4].iter().map(|&s| bench_support::shard_sweep_point(s, GUESTS, TICKS)).collect();
    for p in &spin[1..] {
        assert_eq!(
            (p.insns, p.clock),
            (spin[0].insns, spin[0].clock),
            "spin farm diverged between shards=1 and shards={}",
            p.shards
        );
    }
    assert!(spin[0].insns > 100_000, "spin farm barely ran: {:?}", spin[0]);

    let pipe: Vec<bench_support::ShardPoint> =
        [1u32, 4].iter().map(|&s| bench_support::pipe_farm_point(s, PAIRS, TICKS)).collect();
    assert_eq!(
        (pipe[0].insns, pipe[0].clock),
        (pipe[1].insns, pipe[1].clock),
        "pipe farm diverged between shards=1 and shards=4"
    );

    let spin_speedup = spin[2].insns_per_sec / spin[0].insns_per_sec;
    let cores = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1);
    let json = format!(
        "{{\n  \"experiment\": \"E16\",\n  \"title\": \"sharded process table and deterministic parallel LWP execution\",\n  \"ticks\": {TICKS},\n  \"host_cores\": {cores},\n  \"points\": [\n{},\n{}\n  ],\n  \"spin_shards4_vs_shards1\": {spin_speedup:.3}\n}}\n",
        spin.iter().map(|p| shard_json("spin-farm", p)).collect::<Vec<_>>().join(",\n"),
        pipe.iter().map(|p| shard_json("pipe-farm", p)).collect::<Vec<_>>().join(",\n"),
    );
    write_figures("BENCH_E16.json", &json);

    // The scaling bar only means something when the host has cores to
    // scale onto; the shipped CI container is single-core, so the gate
    // arms itself on real multi-core hosts.
    if cores >= 4 {
        assert!(
            spin_speedup >= 2.0,
            "shards=4 only {spin_speedup:.2}x over shards=1 on {cores} cores:\n1 {:?}\n4 {:?}",
            spin[0],
            spin[2]
        );
    }
}
