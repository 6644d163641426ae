//! E13 — the execution fast path: a direct-mapped software TLB in
//! front of the address-space mapping search, a per-LWP
//! decoded-instruction cache in front of fetch + decode, and a
//! superblock engine that retires straight-line traces in a single
//! dispatch from the scheduler loop.
//!
//! The paper's premise is that `/proc` makes debugging cheap because
//! the kernel already holds everything a debugger needs; this harness
//! extends that premise to the simulated CPU itself — the dominant cost
//! of every experiment above is retiring guest instructions, so E13
//! tracks how fast the hot loop runs with the engine on vs. off, what
//! the hit rates are, and how much of the stream retires inside
//! superblocks. The dense-breakpoint row at the bottom isolates the
//! per-page text epochs: a debugger hammering clear-step-replant
//! cycles into one page must not invalidate blocks on the other pages
//! of the mapping (EXPERIMENTS.md E13 records the comparison against
//! whole-mapping invalidation).
//!
//! Expected shape: ≥ 2× insns/sec on the hot loop (the smoke gate in
//! `tests/bench_smoke.rs` enforces exactly that and writes
//! `BENCH_E13.json` under the cargo target directory); hit rates and
//! superblock coverage within a whisker of 1.0 once the loop is warm;
//! the dense-breakpoint row rebuilding a few blocks per fielding, not
//! the whole body.

// Bench drivers are throwaway executables: a failed step should abort
// the run loudly, so the harness-wide panic-free gate is waived here.
#![allow(clippy::unwrap_used, clippy::expect_used)]


use bench_support::{banner, dense_breakpoint_best, fast_path_pair};
use bench_support::{criterion_group, Criterion};

fn print_rates() {
    banner(
        "E13",
        "execution fast path: software TLB + decoded-instruction cache + superblocks",
    );
    const TICKS: u64 = 4000;
    for program in ["/bin/spin", "/bin/watched"] {
        let (off, on) = fast_path_pair(program, TICKS, 3);
        println!(
            "{program:<14} slow path: {:>12.0} insns/s   fast path: {:>12.0} insns/s   ({:.2}x)",
            off.insns_per_sec,
            on.insns_per_sec,
            on.insns_per_sec / off.insns_per_sec,
        );
        println!(
            "{:14} dTLB {}/{} ({:.4} hit)   icache {}/{} ({:.4} hit)",
            "",
            on.tlb_hits,
            on.tlb_hits + on.tlb_misses,
            on.tlb_hit_rate(),
            on.icache_hits,
            on.icache_hits + on.icache_misses,
            on.icache_hit_rate(),
        );
        println!(
            "{:14} sblocks built {}  dispatched {}  stale {}  coverage {:.4}",
            "",
            on.sblock_built,
            on.sblock_dispatched,
            on.sblock_stale,
            on.sblock_coverage(),
        );
    }
    let p = dense_breakpoint_best(24, 3);
    println!("dense breakpoints (4-page loop, plant/replant into one page):");
    println!(
        "  {:18} {:>8.1} hits/s   built {:>5}  stale {:>5}  epoch bumps {:>4}",
        "per-page epochs", p.hits_per_sec, p.sblock_built, p.sblock_stale, p.page_epoch_bumps,
    );
}

/// Times one scheduler slice of each workload under both legs; the
/// comparison the table above prints in insns/sec appears here as
/// per-slice latency.
fn bench(c: &mut Criterion) {
    let mut group = c.benchmark_group("e13_exec_fastpath");
    group.sample_size(20);
    for (leg, fast) in [("slow_path", false), ("fast_path", true)] {
        for program in ["/bin/spin", "/bin/watched"] {
            let name = program.rsplit('/').next().expect("name");
            let (mut sys, ctl) =
                bench_support::boot_with_ctl_cfg(ksim::SimConfig::standard().fast_path(fast));
            sys.spawn_program(ctl, program, &[name]).expect("spawn");
            // Warm the caches (a no-op on the slow leg) so the timer
            // sees steady state, not the compulsory misses.
            sys.run_idle(64);
            group.bench_function(format!("{leg}/{name}_slice"), |b| {
                b.iter(|| sys.run_idle(1));
            });
        }
    }
    group.finish();
}

criterion_group!(benches, bench);

fn main() {
    print_rates();
    benches();
    Criterion.configure_from_args().final_summary();
}
