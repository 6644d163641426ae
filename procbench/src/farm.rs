//! guest-farm: eight seeded guests run to a fixed virtual-clock horizon
//! with no controller attached, so `isa`, `vm` and the `ksim` scheduler
//! do the work and `/proc` is never touched while the clock runs.
//!
//! Each repetition boots a fresh farm (timed as set-up), runs it to the
//! horizon (timed), and checks it through `/proc`: a `ps` pass must
//! list exactly the farm, a debugger stops every guest at its loop head
//! a few times and reads its count and checksum, and `truss` follows the
//! syscall guest for a bounded number of events.

use crate::gen::{self, Body, Guest, Predictor, Rng};
use crate::sdb::{assemble, ps_pass, ReverseProbe};
use crate::{secs, trace, Args, Outcome};
use ksim::aout::Aout;
use ksim::{Cred, Pid, SimConfig, StepOutcome, System};
use procfs::PrXStats;
use std::collections::BTreeSet;
use std::time::Instant;
use tools::{DebugEvent, Debugger};

/// Steps until the virtual clock reaches `horizon`, counting what each
/// step did. The loop is `System::run_until`'s, with the counts kept.
fn run_to(sys: &mut System, horizon: u64) -> (u64, u64) {
    let (mut ran, mut idle) = (0, 0);
    while sys.kernel.clock < horizon {
        match sys.step_outcome() {
            StepOutcome::Ran => ran += 1,
            StepOutcome::Idle { .. } => idle += 1,
            StepOutcome::Blocked => break,
        }
    }
    (ran, idle)
}

/// Boots a farm: mounts, installs, spawns, and a warm-up run of
/// `warmup` ticks so every guest is past its start-up and its caches
/// are filled before anything is timed.
fn build(aouts: &[(String, Aout)], warmup: u64) -> (System, Pid, Vec<Pid>) {
    let mut sys = procfs::build_sim(&SimConfig::standard());
    for (name, aout) in aouts {
        sys.install_aout(&format!("/bin/{name}"), aout, 0o755);
    }
    let ctl = sys.spawn_hosted("farm", Cred::superuser());
    let pids = aouts
        .iter()
        .map(|(name, _)| {
            sys.spawn_program(ctl, &format!("/bin/{name}"), &[name])
                .unwrap_or_else(|e| panic!("spawn {name}: {e:?}"))
        })
        .collect();
    let end = sys.kernel.clock + warmup;
    run_to(&mut sys, end);
    (sys, ctl, pids)
}

pub fn run(a: &Args) -> Outcome {
    let mut rng = Rng::new(a.seed);
    let mut guests = gen::farm(&mut rng);
    let aouts: Vec<(String, Aout)> = guests
        .iter()
        .map(|g| (g.name.clone(), assemble(&g.source())))
        .collect();
    let horizon = if a.smoke { 400_000 } else { 6_000_000 };
    let warmup = if a.smoke { 20_000 } else { 300_000 };
    let stops = if a.smoke { 2 } else { 3 };
    let mut o = Outcome::default();
    let deadline = Instant::now() + std::time::Duration::from_secs_f64(a.seconds);
    let mut unit = 0usize;
    while unit < 2 || Instant::now() < deadline {
        let t = Instant::now();
        let (mut sys, ctl, pids) = build(&aouts, warmup);
        o.setup_s.push(secs(t));
        let u = Instant::now();
        for (g, pid) in guests.iter_mut().zip(&pids) {
            if let Body::Syscalls { pid: p, .. } = &mut g.body {
                *p = u64::from(pid.0);
            }
        }
        let traced = a.trace && unit % 2 == 1;
        let xs = |sys: &System| -> Vec<PrXStats> {
            pids.iter()
                .map(|&p| PrXStats::capture(&sys.kernel, p).unwrap_or_default())
                .collect()
        };
        let x0 = xs(&sys);
        let end = sys.kernel.clock + horizon;
        trace::enable(traced);
        let t = Instant::now();
        let (ran, idle) = trace::span("ksim", "run", || run_to(&mut sys, end));
        let dt = secs(t);
        trace::enable(false);
        let x1 = xs(&sys);
        o.s.guest
            .add(x0.iter().zip(&x1).map(|(b, a)| a.insns - b.insns).sum(), dt);
        if traced {
            x0.iter().zip(&x1).for_each(|(b, a)| o.layers.add_x(b, a));
            o.layers.steps_ran += ran;
            o.layers.idle_jumps += idle;
        }
        o.check(sys.kernel.clock >= end, || {
            format!("farm stalled at {}", sys.kernel.clock)
        });
        verify(
            &mut o,
            &mut sys,
            ctl,
            &guests,
            &pids,
            stops,
            if a.smoke { 40 } else { 200 },
        );
        // A fresh probe per unit, so every unit does the same work and
        // the probe's recording does not grow over the run.
        let probe = ReverseProbe::new(&mut o, &aouts[0].1, "head", SimConfig::standard());
        if let Some(mut p) = probe {
            p.run(&mut o, if a.smoke { 2 } else { 24 });
        }
        o.end_unit(secs(u), traced);
        unit += 1;
    }
    o
}

/// Checks one farm through `/proc` after its timed phase.
fn verify(
    o: &mut Outcome,
    sys: &mut System,
    ctl: Pid,
    guests: &[Guest],
    pids: &[Pid],
    stops: usize,
    truss_events: usize,
) {
    let mut want: BTreeSet<u32> = [0, 1, ctl.0].into_iter().collect();
    want.extend(pids.iter().map(|p| p.0));
    ps_pass(o, sys, ctl, &want);
    for (g, &pid) in guests.iter().zip(pids) {
        let Some(mut dbg) = o.ok(Debugger::attach(sys, ctl, pid), "attach") else {
            continue;
        };
        let head = dbg.sym("head").unwrap_or(0);
        o.ok(dbg.set_breakpoint(sys, head), "break head");
        let mut pred = Predictor::default();
        for _ in 0..stops {
            let t = Instant::now();
            let ev = dbg.cont(sys);
            o.s.bp.add(1, secs(t));
            let hit = matches!(ev, Ok(DebugEvent::Breakpoint { addr, .. }) if addr == head);
            o.check(hit, || format!("{}: cont gave {ev:?}", g.name));
            // Inspect the stop the way sdb's read commands do: the
            // registers, a disassembly at the pc, and the status. None
            // of these scale with a guest's resident pages, so every
            // guest's inspection costs about the same.
            let t = Instant::now();
            let regs = dbg.regs(sys);
            let dis = dbg.disassemble(sys, head, 16);
            let status = dbg.h.status(sys);
            o.s.inspect_us.push(secs(t) * 1e6);
            let looked = dis.is_ok() && status.is_ok();
            o.check(looked, || format!("{}: inspection failed", g.name));
            let Some(regs) = o.ok(regs, "regs") else {
                continue;
            };
            let (n, acc) = (regs.get(10), regs.get(11));
            let want = pred.advance(g, n);
            o.check(acc == want, || {
                format!("{}: checksum {acc:#x} after {n}, want {want:#x}", g.name)
            });
        }
        o.ok(dbg.detach(sys), "detach");
    }
    // The syscall guest makes only the calls its generator gave it.
    let Some(i) = guests
        .iter()
        .position(|g| matches!(g.body, Body::Syscalls { .. }))
    else {
        return;
    };
    let opts = tools::TrussOptions {
        follow: false,
        faults: false,
        max_events: truss_events,
    };
    let t = Instant::now();
    let r = tools::truss_attach(sys, ctl, pids[i], &opts);
    let dt = secs(t);
    if let Some(report) = o.ok(r, "truss") {
        o.s.truss.add(report.lines.len() as u64, dt);
        use ksim::sysno::{SYS_GETPID, SYS_NANOSLEEP, SYS_READ, SYS_WRITE};
        let known = report
            .counts
            .keys()
            .all(|nr| [SYS_GETPID, SYS_NANOSLEEP, SYS_READ, SYS_WRITE].contains(nr));
        let traced = !report.counts.is_empty();
        o.check(known && traced, || {
            format!("truss of syscall guest: {:?}", report.counts)
        });
    }
}
