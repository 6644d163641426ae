//! sdb-session: one user drives `tools::Sdb::exec` over local `/proc`
//! on a recorded system, the way `sdb`'s script mode boots. Each session
//! boots a fresh recorded system (timed as set-up), runs `ps` to find the target, runs a
//! seeded command script against a cruncher-shaped target, kills it, and
//! `truss`es a seeded syscall-mix command. Sessions repeat until the
//! time is up, so the recorder's log (and memory) stays bounded by one
//! session's length.

use crate::gen::{self, Rng, SyscallMix};
use crate::trace::{self, Timed};
use crate::{secs, Args, Outcome};
use ksim::aout::{build_aout, Aout};
use ksim::{Cred, Pid, SimConfig, System};
use std::collections::BTreeSet;
use std::time::Instant;
use tools::Sdb;

/// One line of a generated script, by how the benchmark times it.
#[derive(Clone, Debug)]
enum Item {
    Cont,
    Step(u64),
    /// Read commands run at one stop; the first is always `regs`.
    Inspect(Vec<String>),
    Break(&'static str),
    Delete(&'static str),
    Poke(u64),
    Watch,
    Reverse,
}

/// A seeded script of about `len` items. Every `cont`/`step` is followed
/// by an inspection, so the registers of every mark are on record. A
/// `reverse-step` is only generated when no breakpoint changed since the
/// mark it lands on, so the debugger's breakpoint table still matches
/// the restored text.
fn script(rng: &mut Rng, len: usize) -> Vec<Item> {
    let inspect = |rng: &mut Rng| {
        let mut cmds = vec!["regs".to_string()];
        for _ in 0..rng.range(1, 3) {
            cmds.push(
                match rng.range(0, 3) {
                    0 => "x counter 2",
                    1 => "dis tick 4",
                    2 => "where",
                    _ => "x spare 1",
                }
                .to_string(),
            );
        }
        Item::Inspect(cmds)
    };
    let mut items = vec![inspect(rng), Item::Break("tick"), Item::Watch];
    let (mut marks, mut last_change, mut tock) = (1u64, 1u64, false);
    while items.len() < len {
        let r = rng.range(0, 99);
        if r < 12 {
            items.push(if tock {
                Item::Delete("tock")
            } else {
                Item::Break("tock")
            });
            tock = !tock;
            last_change = marks;
        } else if r < 18 {
            items.push(Item::Poke(rng.range(1, 1 << 40)));
        } else if r < 34 && marks >= 2 && last_change + 2 <= marks {
            items.push(Item::Reverse);
            marks -= 1;
            items.push(inspect(rng));
        } else {
            items.push(if r < 46 {
                Item::Step(rng.range(1, 4))
            } else {
                Item::Cont
            });
            marks += 1;
            items.push(inspect(rng));
        }
    }
    items
}

/// Replaces the flat and hierarchical `/proc` of `sys` with timed ones
/// over a fresh shared snapshot cache, which is returned.
pub fn wrap_local(sys: &mut System) -> procfs::SnapHandle {
    let cache = procfs::snap_handle();
    set_slot(
        sys,
        "/proc",
        Timed::new(
            "procfs",
            Box::new(procfs::ProcFs::with_cache(cache.clone())),
        ),
    );
    set_slot(
        sys,
        "/proc2",
        Timed::new(
            "procfs",
            Box::new(procfs::HierFs::with_cache(cache.clone())),
        ),
    );
    cache
}

/// Swaps the file system mounted at `path` for `fs`.
pub fn set_slot(sys: &mut System, path: &str, fs: Timed) {
    let id = sys.mounts.resolve(path).map(|(id, _)| id as usize);
    if let Some(slot) = id.and_then(|id| sys.fss.get_mut(id)) {
        *slot = ksim::FsSlot::Dyn(Box::new(fs));
    }
}

/// Assembles a generated program.
pub fn assemble(src: &str) -> Aout {
    match build_aout(src) {
        Ok(a) => a,
        Err(e) => panic!("generated program does not assemble: {e:?}\n{src}"),
    }
}

/// The new transcript text since `from`.
fn since(sdb: &Sdb, from: usize) -> String {
    sdb.transcript()[from..].to_string()
}

/// Runs one `Sdb` command, counting a typed error or an ended session
/// as a failure; returns the transcript text it produced.
fn exec(o: &mut Outcome, sys: &mut System, sdb: &mut Sdb, line: &str) -> String {
    let from = sdb.transcript().len();
    let r = sdb.exec(sys, line);
    let text = since(sdb, from);
    let note = text.starts_with("sdb:") && !text.starts_with("sdb: reversed to tick");
    let ok = r.is_ok() && !note && (line == "kill" || !sdb.finished());
    o.check(ok, || format!("sdb `{line}`: {r:?} {text}"));
    text
}

/// The pids `ps` lists, which must be exactly `want`.
pub fn ps_pass(o: &mut Outcome, sys: &mut System, ctl: Pid, want: &BTreeSet<u32>) {
    let t = Instant::now();
    let r = trace::span("tools", "ps_pass", || tools::ps::ps_snapshots(sys, ctl));
    o.s.ps_ms.push(secs(t) * 1e3);
    if let Some(list) = o.ok(r, "ps") {
        let got: BTreeSet<u32> = list.iter().map(|p| p.pid).collect();
        o.check(&got == want, || {
            format!("ps listed {} pids, want {}", got.len(), want.len())
        });
    }
}

/// `truss -f` of the syscall-mix program; every per-call count must
/// equal the generator's.
pub fn truss_mix(o: &mut Outcome, sys: &mut System, ctl: Pid, mix: &SyscallMix) {
    use ksim::sysno::*;
    let opts = tools::TrussOptions {
        follow: true,
        faults: false,
        max_events: 1_000_000,
    };
    let fds = open_fds(sys, ctl);
    let t = Instant::now();
    let r = trace::span("tools", "truss", || {
        tools::truss_command(sys, ctl, "/bin/mix", &["mix"], &opts)
    });
    let dt = secs(t);
    let Some(report) = o.ok(r, "truss") else {
        return;
    };
    o.s.truss.add(report.lines.len() as u64, dt);
    let (r, f) = (mix.rounds, mix.forks);
    let want: std::collections::BTreeMap<u16, u64> = [
        (SYS_GETPID, (mix.getpids + f) * r),
        (SYS_OPEN, mix.opens * r),
        (SYS_READ, mix.opens * r),
        (SYS_CLOSE, mix.opens * r),
        (SYS_STAT, mix.stats * r),
        (SYS_FORK, 2 * f * r),
        (SYS_WAIT, f * r),
        (SYS_EXIT, f * r + 1),
    ]
    .into_iter()
    .collect();
    o.check(report.counts == want, || {
        format!("truss counts {:?}, want {want:?}", report.counts)
    });
    // Reap the traced command so the process table is back to the model.
    let reaped = sys.host_wait(ctl);
    o.check(reaped.is_ok(), || format!("reaping mix: {reaped:?}"));
    // truss returns with its process files still open; close them, as
    // the exit of a real truss process would, so a long-lived
    // controller does not run out of descriptors.
    for fd in open_fds(sys, ctl).difference(&fds) {
        let _ = sys.host_close(ctl, *fd);
    }
}

/// The descriptors `pid` has open.
fn open_fds(sys: &System, pid: Pid) -> BTreeSet<usize> {
    sys.kernel
        .proc(pid)
        .map(|p| p.fds.iter().map(|(fd, _)| fd).collect())
        .unwrap_or_default()
}

/// Installs the files every session needs.
pub fn install_common(sys: &mut System, mix: &Aout) {
    sys.install_dir("/etc", 0o755);
    sys.install_file("/etc/motd", 0o644, b"procbench: a file for truss to open\n");
    sys.install_aout("/bin/mix", mix, 0o755);
}

struct Inputs {
    target: Aout,
    mix_src: SyscallMix,
    mix: Aout,
    tick: u64,
    tock: u64,
}

pub fn run(a: &Args) -> Outcome {
    let mut rng = Rng::new(a.seed);
    let src = gen::crunch_target(&mut rng);
    let target = assemble(&src);
    let mix_src = SyscallMix::random(&mut rng, if a.smoke { 1 } else { 3 });
    let mix = assemble(&mix_src.source());
    let sym = |s: &str| {
        target
            .sym(s)
            .unwrap_or_else(|| panic!("target has no `{s}`"))
    };
    let (tick, tock) = (sym("tick"), sym("tock"));
    let inp = Inputs {
        tick,
        tock,
        target,
        mix_src,
        mix,
    };
    let len = if a.smoke { 40 } else { 240 };
    // Sessions cycle through a pool of scripts, so a run covers many
    // scripts' mixes of commands and its peak memory is the largest of
    // many sessions.
    let pool: Vec<Vec<Item>> = (0..POOL)
        .map(|_| loop {
            let s = script(&mut rng, len);
            if a.smoke || shape(&s) == (REVERSES, CONTS) {
                break s;
            }
        })
        .collect();
    let mut o = Outcome::default();
    let deadline = Instant::now() + std::time::Duration::from_secs_f64(a.seconds);
    let mut unit = 0usize;
    while unit < 2 || Instant::now() < deadline {
        let traced = a.trace && unit % 2 == 1;
        let dt = session(&mut o, &inp, &pool[unit % POOL], traced);
        o.end_unit(dt, traced);
        unit += 1;
    }
    o
}

/// Scripts in a run's pool.
const POOL: usize = 64;

/// The `reverse-step`s and `cont`s of every full-size script: the
/// generator's commonest counts at 240 items. Scripts of another shape
/// are drawn again, so the seed changes what a session does but not
/// how many of its costliest commands it runs.
const REVERSES: usize = 15;
const CONTS: usize = 71;

/// A script's `reverse-step` and `cont` counts.
fn shape(items: &[Item]) -> (usize, usize) {
    let count = |f: fn(&Item) -> bool| items.iter().filter(|i| f(i)).count();
    (
        count(|i| matches!(i, Item::Reverse)),
        count(|i| matches!(i, Item::Cont)),
    )
}

/// A session's initial state: a recorded system with the target
/// launched under `sdb`, stopped before its first instruction.
fn boot(o: &mut Outcome, inp: &Inputs) -> Option<(System, Pid, Sdb)> {
    let mut sys = procfs::build_sim(&SimConfig::standard().record(true));
    install_common(&mut sys, &inp.mix);
    sys.install_aout("/bin/target", &inp.target, 0o755);
    let ctl = sys.spawn_hosted("sdb", Cred::superuser());
    let sdb = o.ok(
        Sdb::launch(&mut sys, ctl, "/bin/target", &["target"]),
        "launch",
    )?;
    Some((sys, ctl, sdb))
}

/// Runs one session; returns the host seconds it took after set-up.
fn session(o: &mut Outcome, inp: &Inputs, items: &[Item], traced: bool) -> f64 {
    let t = Instant::now();
    let Some((mut sys, ctl, mut sdb)) = boot(o, inp) else {
        return 0.0;
    };
    o.setup_s.push(secs(t));
    let pid = sys
        .kernel
        .procs
        .values()
        .find(|p| !p.hosted)
        .map_or(Pid(0), |p| p.pid);
    let mut cache = traced.then(|| wrap_local(&mut sys));
    trace::enable(traced);
    let unit = Instant::now();

    let want: BTreeSet<u32> = [0, 1, ctl.0, pid.0].into_iter().collect();
    ps_pass(o, &mut sys, ctl, &want);

    let mut planted: BTreeSet<u64> = BTreeSet::new();
    let mut marks: Vec<String> = Vec::new();
    let (mut mark_due, mut check_due) = (true, false);
    let xstats = |sys: &System| procfs::PrXStats::capture(&sys.kernel, pid).unwrap_or_default();
    for item in items {
        let x0 = xstats(&sys);
        let t = Instant::now();
        match item {
            Item::Cont => {
                let text = trace::span("tools", "cont", || exec(o, &mut sys, &mut sdb, "cont"));
                let dt = secs(t);
                let x1 = xstats(&sys);
                o.s.bp.add(1, dt);
                o.s.guest.add(x1.insns.saturating_sub(x0.insns), dt);
                if traced {
                    o.layers.add_x(&x0, &x1);
                }
                let at = planted
                    .iter()
                    .any(|a| text.starts_with(&format!("breakpoint at {a:#x}")));
                o.check(at, || format!("cont stopped off the planted set: {text}"));
                mark_due = true;
            }
            Item::Step(n) => {
                let text = trace::span("tools", "step", || {
                    exec(o, &mut sys, &mut sdb, &format!("step {n}"))
                });
                if traced {
                    o.layers.add_x(&x0, &xstats(&sys));
                }
                o.check(text.starts_with("stepped to"), || format!("step: {text}"));
                mark_due = true;
            }
            Item::Inspect(cmds) => {
                let regs = trace::span("tools", "inspect", || {
                    let regs = exec(o, &mut sys, &mut sdb, &cmds[0]);
                    for c in &cmds[1..] {
                        exec(o, &mut sys, &mut sdb, c);
                    }
                    regs
                });
                o.s.inspect_us.push(secs(t) * 1e6);
                if mark_due {
                    marks.push(regs);
                } else if check_due {
                    let same = marks.last() == Some(&regs);
                    o.check(same, || format!("reverse-step registers differ:\n{regs}"));
                }
                (mark_due, check_due) = (false, false);
            }
            Item::Break(s) | Item::Delete(s) => {
                let add = matches!(item, Item::Break(_));
                let line = format!("{} {s}", if add { "break" } else { "delete" });
                let text = trace::span("tools", "control", || exec(o, &mut sys, &mut sdb, &line));
                let addr = if *s == "tick" { inp.tick } else { inp.tock };
                if add {
                    planted.insert(addr);
                } else {
                    planted.remove(&addr);
                }
                o.check(text.contains(&format!("{addr:#x}")), || {
                    format!("{line}: {text}")
                });
            }
            Item::Poke(v) => {
                let line = format!("poke spare2 {v}");
                let text = trace::span("tools", "control", || exec(o, &mut sys, &mut sdb, &line));
                o.check(text.starts_with("poked"), || format!("{line}: {text}"));
            }
            Item::Watch => {
                let text = trace::span("tools", "control", || {
                    exec(o, &mut sys, &mut sdb, "watch spare 8")
                });
                o.check(text.starts_with("watching"), || format!("watch: {text}"));
            }
            Item::Reverse => {
                let from = sdb.transcript().len();
                let r = trace::span("tools", "reverse_step", || {
                    sdb.exec(&mut sys, "reverse-step")
                });
                o.s.reverse_ms.push(secs(t) * 1e3);
                let text = since(&sdb, from);
                let ok = r.is_ok() && text.contains("reversed to tick");
                o.check(ok, || format!("reverse-step: {r:?} {text}"));
                marks.pop();
                check_due = true;
                if let Some(c) = cache.as_mut() {
                    // goto_tick rebuilt the System and its mounts.
                    o.layers
                        .add_snap(&c.lock().map(|c| c.stats()).unwrap_or_default());
                    *c = wrap_local(&mut sys);
                    let r = sys.kernel.recorder.as_ref().map_or(0, |r| r.stats.replays);
                    o.layers.replayed += r;
                    o.layers.reverses += 1;
                }
            }
        }
    }
    if traced {
        if let Some(r) = sys.kernel.recorder.as_ref() {
            o.layers.records += r.records.len() as u64;
            o.layers.snapshots += r.stats.snapshots;
            o.layers.rec_bytes += r.stats.bytes_logged;
        }
    }
    exec(o, &mut sys, &mut sdb, "kill");
    truss_mix(o, &mut sys, ctl, &inp.mix_src);
    let dt = secs(unit);
    trace::enable(false);
    if let Some(c) = cache {
        o.layers
            .add_snap(&c.lock().map(|c| c.stats()).unwrap_or_default());
    }
    dt
}

/// A recorded `sdb` session kept beside a workload that does not
/// record, for its `reverse_step_mean_ms`: each [`ReverseProbe::run`]
/// continues to the breakpoint at `sym`, reverse-steps back to the
/// previous stop, and checks that the registers equal those recorded
/// there. Workloads build one per unit and run it a few times, so the
/// samples spread over the whole run and its log stays short. It boots
/// the workload's own `cfg` with recording on.
pub struct ReverseProbe {
    sys: System,
    sdb: Sdb,
    first: String,
}

impl ReverseProbe {
    pub fn new(o: &mut Outcome, program: &Aout, sym: &str, cfg: SimConfig) -> Option<ReverseProbe> {
        let mut sys = procfs::build_sim(&cfg.record(true));
        sys.install_aout("/bin/probe", program, 0o755);
        let ctl = sys.spawn_hosted("sdb-probe", Cred::superuser());
        let mut sdb = o.ok(
            Sdb::launch(&mut sys, ctl, "/bin/probe", &["probe"]),
            "launch",
        )?;
        exec(o, &mut sys, &mut sdb, &format!("break {sym}"));
        exec(o, &mut sys, &mut sdb, "cont");
        let first = exec(o, &mut sys, &mut sdb, "regs");
        Some(ReverseProbe { sys, sdb, first })
    }

    pub fn run(&mut self, o: &mut Outcome, n: usize) {
        let (sys, sdb) = (&mut self.sys, &mut self.sdb);
        for _ in 0..n {
            exec(o, sys, sdb, "cont");
            let t = Instant::now();
            let text = exec(o, sys, sdb, "reverse-step");
            o.s.reverse_ms.push(secs(t) * 1e3);
            let regs = exec(o, sys, sdb, "regs");
            o.check(regs == self.first, || {
                format!("reverse-step landed elsewhere: {text}")
            });
        }
    }
}
