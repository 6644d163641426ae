//! remote-console: `/proc` mounted over the clean simulated wire above a
//! seeded fleet of about a thousand sleepers and tickers. Each cycle
//! runs one `ps` pass over the fleet, one `truss -f` of a seeded
//! syscall-mix command, and a batch of `Debugger` breakpoint round
//! trips, each followed by an inspection of the stopped target. There is
//! no recorder.

use crate::gen::{self, Rng, SyscallMix};
use crate::sdb::{assemble, install_common, ps_pass, set_slot, truss_mix, ReverseProbe};
use crate::trace::{self, Timed};
use crate::{secs, Args, Outcome};
use ksim::aout::Aout;
use ksim::{Cred, MountPlan, Pid, SimConfig, System};
use procfs::PrXStats;
use std::collections::BTreeSet;
use std::time::Instant;
use tools::{DebugEvent, Debugger};
use vfs::remote::{RemoteClient, RemoteFs, WireConfig};

/// The standard layout with the flat `/proc` served across the wire.
fn config() -> SimConfig {
    let mut cfg = SimConfig::standard();
    cfg.mounts[0].1 = MountPlan::RemoteProc(WireConfig::clean());
    cfg
}

struct World {
    sys: System,
    ctl: Pid,
    dbg: Debugger,
    target: Pid,
    fleet: BTreeSet<u32>,
    /// A client of the traced remote mount, for its transport counters.
    wire: Option<RemoteClient<ksim::Kernel>>,
    cache: Option<procfs::SnapHandle>,
}

struct Inputs {
    variants: Vec<Aout>,
    picks: Vec<usize>,
    mix_src: SyscallMix,
    mix: Aout,
    target: Aout,
}

/// Scheduler steps run after spawning the fleet, so every member has
/// started and gone to sleep before anything is measured.
const WARMUP_STEPS: u64 = 400;

/// Boots the world: mounts, installs, the debugger attached to its
/// target with a breakpoint on `tick`, the fleet, and a warm-up until
/// every member has started and gone to sleep. With `traced`, the remote
/// mount is rebuilt the way `procfs::build_sim` builds it, with timing
/// decorators around the wire and around the `ProcFs` behind it.
fn build(inp: &Inputs, traced: bool) -> World {
    let cfg = config();
    let mut sys = procfs::build_sim(&cfg);
    let (mut wire, mut cache) = (None, None);
    if traced {
        let c = procfs::snap_handle();
        let MountPlan::RemoteProc(w) = &cfg.mounts[0].1 else {
            unreachable!("remote /proc")
        };
        let inner = Timed::new("procfs", Box::new(procfs::ProcFs::with_cache(c.clone())));
        let remote = RemoteFs::new(Box::new(inner))
            .with_ioctl_table(procfs::ioctl::wire_table())
            .with_config(w);
        wire = Some(remote.client());
        set_slot(&mut sys, "/proc", Timed::new("wire", Box::new(remote)));
        set_slot(
            &mut sys,
            "/proc2",
            Timed::new("procfs", Box::new(procfs::HierFs::with_cache(c.clone()))),
        );
        cache = Some(c);
    }
    install_common(&mut sys, &inp.mix);
    for (i, v) in inp.variants.iter().enumerate() {
        sys.install_aout(&format!("/bin/member{i}"), v, 0o755);
    }
    sys.install_aout("/bin/target", &inp.target, 0o755);
    let ctl = sys.spawn_hosted("console", Cred::superuser());
    // The target is launched before the fleet exists: launching it after
    // would wait for its turn in the fleet's schedule, a wait that
    // changes with the seed.
    let mut dbg = Debugger::launch(&mut sys, ctl, "/bin/target", &["target"])
        .unwrap_or_else(|e| panic!("launch target: {e:?}"));
    let tick = dbg.sym("tick").unwrap_or(0);
    dbg.set_breakpoint(&mut sys, tick)
        .unwrap_or_else(|e| panic!("break tick: {e:?}"));
    let mut fleet = BTreeSet::new();
    for &k in &inp.picks {
        let pid = sys
            .spawn_program(ctl, &format!("/bin/member{k}"), &["member"])
            .unwrap_or_else(|e| panic!("spawn fleet member: {e:?}"));
        fleet.insert(pid.0);
    }
    sys.run_idle(WARMUP_STEPS);
    let target = dbg.pid();
    World {
        sys,
        ctl,
        dbg,
        target,
        fleet,
        wire,
        cache,
    }
}

/// Instructions retired by every live guest.
fn guest_insns(sys: &System) -> u64 {
    sys.kernel
        .procs
        .values()
        .filter(|p| !p.hosted)
        .map(|p| p.cpu_time)
        .sum()
}

pub fn run(a: &Args) -> Outcome {
    let mut rng = Rng::new(a.seed);
    let size = if a.smoke {
        60
    } else {
        990 + rng.range(0, 20) as usize
    };
    let (members, picks) = gen::fleet(&mut rng, size);
    let variants = members.iter().map(|m| assemble(&m.source())).collect();
    let mix_src = SyscallMix::random(&mut rng, if a.smoke { 1 } else { 2 });
    let mix = assemble(&mix_src.source());
    let target = assemble(&gen::crunch_target(&mut rng));
    let inp = Inputs {
        variants,
        picks,
        mix_src,
        mix,
        target,
    };
    let batch = if a.smoke { 4 } else { 24 };
    let mut o = Outcome::default();

    // Set-up is timed as whole world builds: one before the measured
    // world (discarded when the figure is reported, as it pays for cold
    // allocator state), the measured world, and a build-and-drop every
    // few cycles so the samples spread over the run.
    let timed_build = |o: &mut Outcome| {
        let t = Instant::now();
        let w = build(&inp, a.trace);
        o.setup_s.push(secs(t));
        w
    };
    drop(timed_build(&mut o));
    let mut w = timed_build(&mut o);
    let tick = w.dbg.sym("tick").unwrap_or(0);
    let counter = w.dbg.sym("counter").unwrap_or(0);
    let mut want: BTreeSet<u32> = [0, 1, w.ctl.0, w.target.0].into_iter().collect();
    want.extend(&w.fleet);

    let deadline = Instant::now() + std::time::Duration::from_secs_f64(a.seconds);
    let mut unit = 0usize;
    while unit < 2 || Instant::now() < deadline {
        let traced = a.trace && unit % 2 == 1;
        let wire = w.wire.as_ref().filter(|_| traced);
        if let Some(c) = wire {
            c.reset_stats();
        }
        trace::enable(traced);
        let t = Instant::now();
        let insns = guest_insns(&w.sys);
        ps_pass(&mut o, &mut w.sys, w.ctl, &want);
        truss_mix(&mut o, &mut w.sys, w.ctl, &inp.mix_src);
        for _ in 0..batch {
            let x0 = PrXStats::capture(&w.sys.kernel, w.target).unwrap_or_default();
            let tc = Instant::now();
            let ev = trace::span("tools", "cont", || w.dbg.cont(&mut w.sys));
            o.s.bp.add(1, secs(tc));
            if traced {
                let x1 = PrXStats::capture(&w.sys.kernel, w.target).unwrap_or_default();
                o.layers.add_x(&x0, &x1);
            }
            let hit = matches!(ev, Ok(DebugEvent::Breakpoint { addr, .. }) if addr == tick);
            o.check(hit, || format!("cont gave {ev:?}"));
            // Inspect the stop: registers, and the count `tick` stored,
            // which at the breakpoint equals the register it came from.
            let ti = Instant::now();
            let (regs, mem) = trace::span("tools", "inspect", || {
                let mut b = [0u8; 8];
                let regs = w.dbg.regs(&mut w.sys);
                (regs, w.dbg.read(&mut w.sys, counter, &mut b).map(|_| b))
            });
            o.s.inspect_us.push(secs(ti) * 1e6);
            if let (Some(r), Some(b)) = (o.ok(regs, "regs"), o.ok(mem, "read")) {
                let stored = u64::from_le_bytes(b);
                o.check(stored == r.get(10), || {
                    format!("counter {stored} vs r10 {}", r.get(10))
                });
            }
        }
        let dt = secs(t);
        trace::enable(false);
        if let Some(c) = wire {
            o.layers.add_wire(&c.stats());
        }
        o.s.guest.add(guest_insns(&w.sys).saturating_sub(insns), dt);
        // A fresh probe per cycle, so every cycle does the same work and
        // the probe's recording does not grow over the run.
        let t = Instant::now();
        if let Some(mut p) = ReverseProbe::new(&mut o, &inp.target, "tick", config()) {
            p.run(&mut o, if a.smoke { 2 } else { 4 });
        }
        o.end_unit(dt + secs(t), traced);
        if unit % 5 == 4 {
            drop(timed_build(&mut o));
        }
        unit += 1;
    }

    // A clean wire retries nothing.
    let stats = tools::ProcHandle::open_ro(&mut w.sys, w.ctl, Pid(1)).and_then(|mut h| {
        let s = h.wire_stats(&mut w.sys);
        let _ = h.close(&mut w.sys);
        s
    });
    if let Some(s) = o.ok(stats, "wire stats") {
        o.check(s.retries == 0, || {
            format!("clean wire retried {} times", s.retries)
        });
    }
    if let Some(c) = &w.cache {
        o.layers
            .add_snap(&c.lock().map(|c| c.stats()).unwrap_or_default());
    }
    o
}
