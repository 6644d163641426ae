//! Gates on the gang round, the scheduler's only step: one runnable
//! LWP per process, run serially in an order drawn from the seeded
//! interleave permutation. The order is a pure function of the seed and
//! the round counter, so a run is byte-identical to itself. These gates
//! pin that:
//!
//!  * a 32-seed oracle running a mixed workload twice per seed —
//!    recorder transcripts, kernel event logs and final clocks must
//!    match record-for-record;
//!  * pipe-connected parent/child pairs deliver EOF-ordered data and
//!    `SIGPIPE` identically on every run;
//!  * a recording replays byte-identically, and `goto_tick` navigation
//!    works over it (the round counter and timer heap travel with
//!    kernel snapshots);
//!  * a stop posted by a slice that runs earlier in a round holds its
//!    target at the target's own `issig()` gate in that same round;
//!  * the idle fast-forward fix: a long sleep consumes driver budget in
//!    proportion to the simulated time it skips, so a small budget can
//!    no longer be spent spinning a frozen frontier;
//!  * the busy-budget rule: a round costs one unit per slice it ran;
//!  * the run queue and sleeper set: with many processes blocked in
//!    `pause`, a round selects from the spinner alone, and a signal puts
//!    one pauser into the very next round.

use ksim::proc::{LwpState, WaitChannel};
use ksim::{Cred, Pid, SimConfig, StepOutcome, System};
use std::collections::BTreeSet;

/// A recorded config for the gang round. The interleave seed is
/// deliberately derived from the workload seed so every seed exercises a
/// different commit schedule.
fn round_config(seed: u64) -> SimConfig {
    SimConfig::standard().interleave_seed(seed ^ 0x5EED_1EAF).record(true).snapshot_every(8)
}

/// A parent that closes its read end and writes until `SIGPIPE` kills
/// it; the child drains one read, closes, and exits — so the fatal
/// signal is raised by a *cross-process* wakeup (the reader vanishing
/// under a blocked writer).
const PIPEKILL: &str = r#"
_start:
    movi rv, 42         ; pipe(fds)
    la   a0, fds
    syscall
    movi rv, 2          ; fork
    syscall
    beq  rv, zero, child
    la   a0, fds
    ld   a0, [a0]
    movi rv, 6          ; close(rfd) in the parent
    syscall
pwrite:
    la   a0, fds
    ld   a0, [a0+8]
    movi rv, 4          ; write(wfd, msg, 4) forever
    la   a1, msg
    movi a2, 4
    syscall
    jmp  pwrite
child:
    la   a0, fds
    ld   a0, [a0+8]
    movi rv, 6          ; close(wfd) in the child
    syscall
    la   a0, fds
    ld   a0, [a0]
    movi rv, 3          ; read(rfd, buf, 16) once
    la   a1, buf
    movi a2, 16
    syscall
    la   a0, fds
    ld   a0, [a0]
    movi rv, 6          ; close(rfd): no readers remain
    syscall
    movi rv, 1          ; exit(0)
    movi a0, 0
    syscall
.data
.align 8
fds: .space 16
msg: .asciz "abc"
buf: .space 16
"#;

/// A parent that forks a spinning child and sends it `SIGSTOP`, then
/// spins itself.
const STOPPER: &str = r#"
_start:
    movi rv, 2          ; fork
    syscall
    beq  rv, zero, child
    mov  a0, rv         ; kill(child, SIGSTOP)
    movi a1, 23
    movi rv, 37
    syscall
park:
    jmp  park
child:
    jmp  child
"#;

fn boot_round(seed: u64) -> (System, Pid) {
    let mut sys = tools::boot_demo_cfg(round_config(seed));
    sys.install_program("/bin/pipekill", PIPEKILL);
    let ctl = sys.spawn_hosted("round-oracle", Cred::superuser());
    (sys, ctl)
}

/// A mixed workload: compute-bound spinners, a forker and two pipe
/// pairs that talk across processes, a timed sleeper for the deadline
/// heap, and host-API kills and reaps.
fn drive(sys: &mut System, ctl: Pid) {
    let spin = sys.spawn_program(ctl, "/bin/spin", &["spin"]);
    let ticker = sys.spawn_program(ctl, "/bin/ticker", &["ticker"]);
    let piper = sys.spawn_program(ctl, "/bin/piper", &["piper"]);
    let pipekill = sys.spawn_program(ctl, "/bin/pipekill", &["pipekill"]);
    let forker = sys.spawn_program(ctl, "/bin/forker", &["forker"]);
    let sleeper = sys.spawn_program(ctl, "/bin/sleeper", &["sleeper"]);
    sys.run_idle(250);
    for p in [spin, ticker, sleeper, forker].into_iter().flatten() {
        let _ = sys.host_kill(ctl, p, 9);
    }
    sys.run_idle(120);
    let _ = piper;
    let _ = pipekill;
    while sys.host_wait(ctl).is_ok() {}
    sys.run_idle(40);
}

/// Everything the oracle compares across runs: the recorder transcript,
/// the kernel event log, the clock and per-process totals.
type Fingerprint = (Vec<ksim::Record>, Vec<ksim::Event>, u64, Vec<(u32, u64, u16)>);

fn fingerprint(sys: &System) -> Fingerprint {
    let rec = sys.recording().expect("recording on").records;
    let log = sys.kernel.log.events().to_vec();
    let procs = sys.kernel.procs.iter().map(|(id, p)| (*id, p.cpu_time, p.exit_status)).collect();
    (rec, log, sys.kernel.clock, procs)
}

fn run_at(seed: u64) -> (System, Pid) {
    let (mut sys, ctl) = boot_round(seed);
    drive(&mut sys, ctl);
    (sys, ctl)
}

/// The tentpole gate: 32 seeds, each run twice, byte-identical
/// transcripts, event logs, clocks and per-process counters.
#[test]
fn round_transcripts_byte_identical_32_seeds() {
    for i in 0..32u64 {
        let seed = 0x5AAD_0001 + i * 0x9E37;
        let (base_sys, _) = run_at(seed);
        let base = fingerprint(&base_sys);
        assert!(base.0.len() > 15, "seed {seed:#x}: workload too small ({} records)", base.0.len());
        let (sys, _) = run_at(seed);
        let got = fingerprint(&sys);
        assert_eq!(base.2, got.2, "seed {seed:#x}: clock diverged between two runs");
        assert_eq!(base.1, got.1, "seed {seed:#x}: event log diverged between two runs");
        assert_eq!(base.0, got.0, "seed {seed:#x}: transcript diverged between two runs");
        assert_eq!(base.3, got.3, "seed {seed:#x}: process table diverged between two runs");
    }
}

/// Pipe pairs: a parent/child pair connected by a pipe must deliver the
/// data, the EOF-side interactions and the blocked-writer `SIGPIPE` in
/// exactly the same order on every run.
#[test]
fn pipe_pair_runs_identically() {
    let run = || {
        let (mut sys, ctl) = boot_round(0x1212);
        let pk = sys.spawn_program(ctl, "/bin/pipekill", &["pipekill"]).expect("spawn pipekill");
        let pp = sys.spawn_program(ctl, "/bin/piper", &["piper"]).expect("spawn piper");
        sys.run_idle(400);
        while sys.host_wait(ctl).is_ok() {}
        sys.run_idle(50);
        let events = sys.kernel.log.events().to_vec();
        let sigpipe_exit = events.iter().any(|e| {
            matches!(e, ksim::Event::Exit { pid, status }
                if *pid == pk && *status == ksim::Kernel::status_signalled(ksim::signal::SIGPIPE, false))
        });
        assert!(sigpipe_exit, "pipekill parent {pk:?} did not die of SIGPIPE: {events:?}");
        let piper_exited =
            events.iter().any(|e| matches!(e, ksim::Event::Exit { pid, .. } if *pid == pp));
        assert!(piper_exited, "piper never exited");
        events
    };
    assert_eq!(run(), run(), "event order diverged between two runs");
}

/// A recording replays byte-identically — the replayed system boots
/// from the recorded config, so the whole log re-executes through the
/// same seeded rounds.
#[test]
fn round_recording_replays_byte_identically() {
    let (sys, _) = run_at(0x4EC0_4D11);
    let rec = sys.recording().expect("recording on");
    assert!(rec.len() > 15, "workload too small ({} records)", rec.len());
    let replayed = match procfs::replay(&rec) {
        Ok(s) => s,
        Err(d) => panic!(
            "replay diverged at tick {} (expected {:#018x}, got {:#018x})",
            d.tick, d.expected, d.got
        ),
    };
    assert_eq!(
        replayed.recording().expect("recording on").records,
        rec.records,
        "replay produced a different log"
    );
}

/// `goto_tick` over a recording: the gang-round counter and the timer
/// deadline heap live in the kernel, so snapshot navigation must
/// restore them and the re-applied tail must land on the log prefix.
#[test]
fn goto_tick_navigates_round_recording() {
    let (sys, _) = run_at(0x6070_71CC);
    let len = sys.recording().expect("recording on").len();
    assert!(len > 24, "workload too small to navigate ({len} records)");
    let k = len * 2 / 3;
    let restored = procfs::goto_tick(&sys, k).expect("goto_tick over a recording");
    assert_eq!(
        restored.recording().expect("recording on").records[..],
        sys.recording().expect("recording on").records[..k],
        "navigation diverged from the log prefix"
    );
}

/// Commit order is execution order. A guest parent sends `SIGSTOP` to
/// its spinning child; stepping one round at a time under a searched
/// interleave seed, take the round in which the signal is posted with
/// the parent ordered before the child. The child reaches its `issig()`
/// gate after the post, so it must stop without retiring one more
/// instruction.
#[test]
fn stop_posted_earlier_in_a_round_holds_the_target() {
    let mut checked = false;
    for seed in 0..32u64 {
        let mut sys = tools::boot_demo_cfg(SimConfig::standard().interleave_seed(seed));
        sys.install_program("/bin/stopper", STOPPER);
        let ctl = sys.spawn_hosted("stop-test", Cred::superuser());
        let parent = sys.spawn_program(ctl, "/bin/stopper", &["stopper"]).expect("spawn stopper");
        for _ in 0..16 {
            let child = sys.kernel.procs.values().find(|p| p.ppid == parent).map(|p| p.pid);
            let round = sys.kernel.sched_rounds;
            let before = child.and_then(|c| sys.kernel.proc(c).ok()).map(|p| p.cpu_time);
            sys.step();
            let Some(child) = child else { continue };
            if sys.kernel.log.sig_posts_of(child, ksim::signal::SIGSTOP) == 0 {
                continue;
            }
            // The parent has the lower pid, so it is slot 0 of the two.
            if ksim::system::commit_order(2, seed, round) == [0, 1] {
                let target = sys.kernel.proc(child).expect("child alive");
                assert_eq!(
                    Some(target.cpu_time),
                    before,
                    "seed {seed}: the child ran on after a stop posted earlier in its round"
                );
                assert!(target.is_stopped(), "seed {seed}: the child did not stop in the round");
                checked = true;
            }
            break;
        }
        if checked {
            break;
        }
    }
    assert!(checked, "no seed ordered the sender before its target in the post round");
}

/// The idle-budget fix (satellite 6): an idle fast-forward reports how
/// far it jumped and charges the driver loop proportionally. A sleeper
/// parked 2000 ticks out used to cost `run_idle` one unit of budget per
/// *jump*; now the jump itself consumes `jumped/quantum` units, so a
/// small budget ends at the frontier instead of silently running the
/// woken guest.
#[test]
fn idle_fast_forward_charges_budget_proportionally() {
    let mut sys = tools::boot_demo_cfg(SimConfig::standard());
    let ctl = sys.spawn_hosted("idle-test", Cred::superuser());
    let pid = sys.spawn_program(ctl, "/bin/sleeper", &["sleeper"]).expect("spawn sleeper");
    // Run until the sleeper is parked in its timed sleep and the
    // machine is otherwise idle.
    let asleep = |s: &System| {
        s.kernel
            .proc(pid)
            .ok()
            .map(|p| {
                p.lwps.iter().any(|l| {
                    matches!(l.state, LwpState::Sleeping { chan: WaitChannel::Ticks(_), .. })
                })
            })
            .unwrap_or(false)
    };
    assert!(sys.run_until(10_000, asleep), "sleeper never reached its timed sleep");
    let insns_before = sys.kernel.proc(pid).expect("sleeper alive").cpu_time;
    let clock_before = sys.kernel.clock;

    // Budget 2 is far below the jump's proportional cost (2000 ticks at
    // quantum 256 ≈ 7 units), so run_idle must stop at the woken
    // frontier without granting the guest another slice.
    sys.run_idle(2);
    let insns_after = sys.kernel.proc(pid).expect("sleeper alive").cpu_time;
    assert!(
        sys.kernel.clock > clock_before,
        "run_idle made no progress over the sleeping frontier"
    );
    assert_eq!(
        insns_before, insns_after,
        "a 2-unit budget ran the guest after paying for a multi-quantum idle jump"
    );
}

/// The busy-budget rule: a gang round charges the driver one unit per
/// LWP slice it ran, not one per round, so a unit of `run_idle` budget
/// still means one quantum of one LWP however many guests share the
/// round. With four spinners, `run_idle(N)` may overshoot by at most the
/// round that crossed the budget.
#[test]
fn busy_rounds_charge_budget_per_slice() {
    const SPINNERS: u64 = 4;
    const BUDGET: u64 = 40;
    let mut sys = tools::boot_demo_cfg(SimConfig::standard());
    let ctl = sys.spawn_hosted("busy-test", Cred::superuser());
    let pids: Vec<Pid> = (0..SPINNERS)
        .map(|_| sys.spawn_program(ctl, "/bin/spin", &["spin"]).expect("spawn spin"))
        .collect();
    let retired = |sys: &System| -> u64 {
        pids.iter().map(|&p| sys.kernel.proc(p).expect("spinner alive").cpu_time).sum()
    };
    let before = retired(&sys);
    sys.run_idle(BUDGET);
    let ran = retired(&sys) - before;
    let quantum = sys.quantum;
    assert!(
        ran <= (BUDGET + SPINNERS) * quantum,
        "run_idle({BUDGET}) retired {ran} insns, more than {BUDGET} quanta plus one round"
    );
    assert!(ran >= BUDGET * quantum, "run_idle({BUDGET}) retired only {ran} insns");
}

/// The scheduler's pid sets: after warm-up, every round's run queue
/// holds only the spinner, the sleeper set holds exactly the pausers,
/// and a signal to one pauser puts it on the queue so the next round
/// runs it (its default action ends it there). In debug builds every
/// round also checks its picks against a full process-table scan.
#[test]
fn pausers_stay_off_the_run_queue_until_signalled() {
    const PAUSERS: usize = 32;
    let mut sys = tools::boot_demo_cfg(SimConfig::standard());
    sys.install_program("/bin/pauser", "_start:\n    movi rv, 29\n    syscall\n    jmp _start");
    let ctl = sys.spawn_hosted("runq-test", Cred::superuser());
    let pausers: BTreeSet<u32> = (0..PAUSERS)
        .map(|_| sys.spawn_program(ctl, "/bin/pauser", &["pauser"]).expect("spawn pauser").0)
        .collect();
    let spinner = sys.spawn_program(ctl, "/bin/spin", &["spin"]).expect("spawn spin");
    let all_paused = |s: &System| {
        pausers.iter().all(|&p| {
            s.kernel
                .proc(Pid(p))
                .expect("pauser alive")
                .lwps
                .iter()
                .all(|l| matches!(l.state, LwpState::Sleeping { chan: WaitChannel::Pause, .. }))
        })
    };
    assert!(sys.run_until(10_000, all_paused), "the pausers never all reached pause");
    sys.step();
    for round in 0..16 {
        sys.step();
        assert_eq!(
            sys.kernel.runq,
            BTreeSet::from([spinner.0]),
            "round {round}: the run queue holds more than the spinner"
        );
        assert_eq!(sys.kernel.sleepers, pausers, "round {round}: the sleeper set moved");
    }

    let woken = Pid(*pausers.iter().nth(PAUSERS / 2).expect("a middle pauser"));
    sys.host_kill(ctl, woken, ksim::signal::SIGTERM).expect("kill");
    assert_eq!(sys.kernel.runq, BTreeSet::from([spinner.0, woken.0]));
    let before = sys.kernel.proc(spinner).expect("spinner alive").cpu_time;
    sys.step();
    let target = sys.kernel.proc(woken).expect("zombie until reaped");
    assert!(target.zombie, "the signalled pauser did not run in the next round");
    assert_eq!(target.exit_status, ksim::Kernel::status_signalled(ksim::signal::SIGTERM, false));
    assert!(sys.kernel.proc(spinner).expect("spinner alive").cpu_time > before);
    assert!(sys.kernel.zombies.contains(&woken.0));
    sys.step();
    assert_eq!(sys.kernel.runq, BTreeSet::from([spinner.0]));
}

/// `step_outcome` distinguishes the three cases: real work, a timed
/// idle jump (with the distance), and a fully blocked machine.
#[test]
fn step_outcome_reports_ran_idle_and_blocked() {
    let mut sys = tools::boot_demo_cfg(SimConfig::standard());
    let ctl = sys.spawn_hosted("outcome-test", Cred::superuser());
    // Hosted processes never run on the simulated CPU: blocked.
    assert_eq!(sys.step_outcome(), StepOutcome::Blocked);
    assert!(!sys.step(), "step() must report no progress when blocked");

    let pid = sys.spawn_program(ctl, "/bin/sleeper", &["sleeper"]).expect("spawn sleeper");
    assert_eq!(sys.step_outcome(), StepOutcome::Ran);
    let asleep = |s: &System| {
        s.kernel
            .proc(pid)
            .ok()
            .map(|p| {
                p.lwps.iter().any(|l| {
                    matches!(l.state, LwpState::Sleeping { chan: WaitChannel::Ticks(_), .. })
                })
            })
            .unwrap_or(false)
    };
    assert!(sys.run_until(10_000, asleep), "sleeper never reached its timed sleep");
    match sys.step_outcome() {
        StepOutcome::Idle { jumped } => {
            assert!(jumped > 0, "idle jump must cover a positive distance")
        }
        other => panic!("expected an idle fast-forward, got {other:?}"),
    }

    let _ = sys.host_kill(ctl, pid, 9);
    sys.run_idle(50);
    let _ = sys.host_wait(ctl);
    assert_eq!(sys.step_outcome(), StepOutcome::Blocked, "dead machine must block");
}
