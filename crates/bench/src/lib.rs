//! Shared measurement scaffolding for the smoke gates in
//! `tests/bench_smoke.rs` and the golden figures in `tests/figures.rs`.
//!
//! Each function here boots the simulated kernel, runs one seeded
//! workload of a performance claim (E5c, E5d, E13, E14, E15) and
//! returns what it measured; the gates decide what the numbers must
//! show. EXPERIMENTS.md records the expected shape of each result.
//! [`XorShift`] seeds the randomized workloads here. It is one of
//! several xorshift64 streams in the workspace, not a shared source:
//! the kernel and wire fault plans, memory pressure, the wire's service
//! jitter, the round order and several test modules each step their
//! own copy.

#![forbid(unsafe_code)]
// Harness code fields controller-visible errors like any other tool
// layer: fallible steps go through [`setup`]/[`setup_some`] so a failed
// boot or spawn aborts the run naming the step, never via a bare
// `unwrap`.
#![deny(clippy::unwrap_used, clippy::expect_used)]

use ksim::{Cred, Pid, System};
use std::time::Instant;

/// Unwraps a bench-setup step. The harness has no caller to propagate
/// errors to, so a failed boot, spawn or launch aborts the run with the
/// step name — the panic-free gate's sanctioned invariant form.
#[track_caller]
fn setup<T, E: std::fmt::Debug>(r: Result<T, E>, what: &str) -> T {
    match r {
        Ok(v) => v,
        Err(e) => panic!("bench setup: {what} failed: {e:?}"),
    }
}

/// [`setup`] for `Option`-shaped lookups (symbols, first reps).
#[track_caller]
fn setup_some<T>(o: Option<T>, what: &str) -> T {
    match o {
        Some(v) => v,
        None => panic!("bench setup: {what} missing"),
    }
}

/// Boots a demo system (both `/proc` generations + userland) with a
/// uid-100 controller.
pub fn boot_with_ctl() -> (System, Pid) {
    boot_with_ctl_cfg(ksim::SimConfig::standard())
}

/// [`boot_with_ctl`] under an explicit construction config — how the
/// E13/E14/E15 points choose fast-path and recorder legs.
fn boot_with_ctl_cfg(cfg: ksim::SimConfig) -> (System, Pid) {
    let mut sys = tools::boot_demo_cfg(cfg);
    let ctl = sys.spawn_hosted("bench-ctl", Cred::new(100, 10));
    (sys, ctl)
}

/// Deterministic xorshift64* pseudo-random generator, so every
/// randomized harness run replays identically from its seed.
#[derive(Clone, Debug)]
pub struct XorShift {
    state: u64,
}

impl XorShift {
    /// A generator from a non-zero seed (zero is mapped to a fixed
    /// constant: xorshift has an all-zero fixed point).
    pub fn new(seed: u64) -> XorShift {
        XorShift { state: if seed == 0 { 0x9E37_79B9_7F4A_7C15 } else { seed } }
    }

    /// Next 64 pseudo-random bits.
    pub fn next_u64(&mut self) -> u64 {
        let mut x = self.state;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.state = x;
        x.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }

    /// Uniform draw from `[0, bound)`; `bound` must be non-zero.
    pub fn below(&mut self, bound: u64) -> u64 {
        self.next_u64() % bound
    }

    /// Uniform byte string of length `len`.
    pub fn bytes(&mut self, len: usize) -> Vec<u8> {
        (0..len).map(|_| self.next_u64() as u8).collect()
    }
}

/// One measured point of the E5c multi-client wire sweep: the same
/// status workload run serially (one blocking op at a time) and
/// pipelined (every client's ops in flight at once) over wires with an
/// identical seeded fault schedule. Time is the wire session's virtual
/// clock, so the comparison is deterministic — no wall-clock noise.
#[derive(Clone, Copy, Debug)]
pub struct WireSweepPoint {
    /// Per-class fault rate, in permille.
    pub permille: u16,
    /// Operations issued per leg.
    pub ops: u64,
    /// Operations that returned a well-formed status, serial leg.
    pub serial_ok: u64,
    /// Operations that returned a well-formed status, pipelined leg.
    pub pipelined_ok: u64,
    /// Virtual ticks consumed by the serial leg.
    pub serial_ticks: u64,
    /// Virtual ticks consumed by the pipelined leg.
    pub pipelined_ticks: u64,
}

/// A flat `/proc` behind the wire shim with the shared ioctl table and a
/// seeded fault plan (rate 0 still installs the plan so the two legs'
/// jitter schedules stay comparable across rates).
fn faulted_remote_proc(permille: u16, seed: u64) -> vfs::remote::RemoteFs<ksim::Kernel> {
    vfs::remote::RemoteFs::new(Box::new(procfs::ProcFs::new()))
        .with_ioctl_table(procfs::ioctl::wire_table())
        .with_config(&vfs::remote::WireConfig::faulty(
            seed,
            vfs::remote::FaultRates::uniform(permille),
        ))
}

/// Pipelined ioctls awaiting completion, each with the wire tick it was
/// submitted at. Futures resolved at submit (no tag) complete at the
/// first drain; the rest complete as their tags come out of
/// [`vfs::remote::RemoteClient::take_completed`], so a drain costs
/// O(ops resolved), not O(ops pending).
#[derive(Default)]
struct PendingOps {
    by_tag: std::collections::HashMap<u64, (vfs::remote::OpFuture<vfs::IoctlReply>, u64)>,
    untagged: Vec<(vfs::remote::OpFuture<vfs::IoctlReply>, u64)>,
}

impl PendingOps {
    fn add(&mut self, fut: vfs::remote::OpFuture<vfs::IoctlReply>, born: u64) {
        match fut.tag() {
            Some(tag) => {
                self.by_tag.insert(tag, (fut, born));
            }
            None => self.untagged.push((fut, born)),
        }
    }

    fn is_empty(&self) -> bool {
        self.by_tag.is_empty() && self.untagged.is_empty()
    }

    /// Completes every future resolved since the last drain, with its
    /// submit tick.
    fn drain_completed<K>(
        &mut self,
        client: &vfs::remote::RemoteClient<K>,
    ) -> Vec<(vfs::SysResult<vfs::IoctlReply>, u64)> {
        let mut out = Vec::new();
        let taken = client.take_completed().into_iter().filter_map(|t| self.by_tag.remove(&t));
        for (mut fut, born) in self.untagged.drain(..).chain(taken) {
            if let Some(reply) = client.try_complete(&mut fut) {
                out.push((reply, born));
            }
        }
        out
    }
}

/// True if a `PIOCSTATUS` reply carries a well-formed status image.
fn status_ok(reply: vfs::SysResult<vfs::IoctlReply>) -> bool {
    matches!(reply, Ok(vfs::IoctlReply::Done(b)) if procfs::PrStatus::from_bytes(&b).is_some())
}

/// Retries an idempotent wire call until the recovery machinery lands
/// it; panics if the wire never delivers (bounded, deterministic).
fn until_ok<T>(mut f: impl FnMut() -> vfs::SysResult<T>) -> T {
    for _ in 0..256 {
        if let Ok(v) = f() {
            return v;
        }
    }
    panic!("wire never recovered within 256 attempts");
}

/// Measures one fault rate of the multi-client sweep:
/// `clients * ops_per_client` `PIOCSTATUS` calls, serial vs. pipelined.
fn multi_client_wire_point(
    permille: u16,
    clients: usize,
    ops_per_client: usize,
    seed: u64,
) -> WireSweepPoint {
    use vfs::FileSystem;
    let ops = (clients * ops_per_client) as u64;
    let (mut sys, ctl) = boot_with_ctl();
    let target = setup(sys.spawn_program(ctl, "/bin/spin", &["spin"]), "spawn /bin/spin");
    let cred = Cred::new(100, 10);
    let name = format!("{:05}", target.0);

    // Serial leg: the blocking FileSystem face, one op at a time.
    let mut serial = faulted_remote_proc(permille, seed);
    let root = serial.root();
    let node = until_ok(|| serial.lookup(&mut sys.kernel, ctl, root, &name));
    let tok = until_ok(|| serial.open(&mut sys.kernel, ctl, node, vfs::OFlags::rdonly(), &cred));
    let mut serial_ok = 0u64;
    for _ in 0..ops {
        if let Ok(vfs::IoctlReply::Done(b)) =
            serial.ioctl(&mut sys.kernel, ctl, node, tok, procfs::ioctl::PIOCSTATUS, &[])
        {
            if procfs::PrStatus::from_bytes(&b).is_some() {
                serial_ok += 1;
            }
        }
    }
    let serial_ticks = serial.ticks();

    // Pipelined leg: same seed, same workload, but every client handle's
    // ops are submitted up front and demultiplexed as they complete.
    let mut piped = faulted_remote_proc(permille, seed);
    let root = piped.root();
    let node = until_ok(|| piped.lookup(&mut sys.kernel, ctl, root, &name));
    let tok = until_ok(|| piped.open(&mut sys.kernel, ctl, node, vfs::OFlags::rdonly(), &cred));
    let handles: Vec<_> = (0..clients).map(|_| piped.client()).collect();
    let mut futs = PendingOps::default();
    for _ in 0..ops_per_client {
        for h in &handles {
            futs.add(h.submit_ioctl(ctl, node, tok, procfs::ioctl::PIOCSTATUS, &[]), 0);
        }
    }
    let pump = piped.client();
    let mut pipelined_ok = 0u64;
    while !futs.is_empty() {
        let advanced = pump.pump(&mut sys.kernel);
        for (reply, _) in futs.drain_completed(&pump) {
            if status_ok(reply) {
                pipelined_ok += 1;
            }
        }
        if !advanced && !futs.is_empty() {
            // An idle wire with pending futures cannot make progress;
            // every remaining op has already timed out.
            break;
        }
    }
    let pipelined_ticks = piped.ticks();

    WireSweepPoint { permille, ops, serial_ok, pipelined_ok, serial_ticks, pipelined_ticks }
}

/// The full sweep across fault rates.
pub fn multi_client_wire_sweep(
    rates: &[u16],
    clients: usize,
    ops_per_client: usize,
    seed: u64,
) -> Vec<WireSweepPoint> {
    rates
        .iter()
        .map(|&permille| multi_client_wire_point(permille, clients, ops_per_client, seed))
        .collect()
}

/// One measured point of the E5d client-count sweep: `clients` wire
/// sessions each pipelining `ops_per_client` status calls against the
/// readiness-loop server, on a clean wire or one with the full
/// adversarial-client mix enabled. Time is the wire's virtual clock, so
/// every number here replays identically from the seed.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct ClientCountPoint {
    /// Concurrent client sessions driven through the server.
    pub clients: usize,
    /// Whether the adversarial-client fault dimension was armed.
    pub adversarial: bool,
    /// Operations issued across all sessions.
    pub ops: u64,
    /// Operations that returned a well-formed status image.
    pub ok: u64,
    /// Virtual ticks consumed by the whole run.
    pub ticks: u64,
    /// 99th-percentile submit-to-completion latency (virtual ticks)
    /// over the successful operations; zero when none succeeded.
    pub p99_ticks: u64,
    /// Successful operations per 1000 virtual ticks.
    pub ok_per_kilotick: f64,
    /// Inbound queue high-water mark across all sessions (bytes).
    pub in_queue_hwm: u64,
    /// Outbound queue high-water mark across all sessions (bytes).
    pub out_queue_hwm: u64,
    /// Sessions the server evicted for persistent misbehaviour.
    pub sessions_evicted: u64,
    /// Frames the server shed at a full queue.
    pub frames_shed: u64,
}

/// Queue cap used by the E5d sweep: small enough that floods and slow
/// readers actually hit the bound, large enough that a clean status
/// round-trip never does.
const E5D_QUEUE_CAP: usize = 4096;

/// Measures one client count of the E5d sweep. The adversarial leg arms
/// both the classic wire faults (drop/duplicate/corrupt/delay at 15‰)
/// and the adversarial-client personas; the clean leg installs a
/// zero-rate plan so the jitter schedule stays comparable.
pub fn client_count_point(
    clients: usize,
    ops_per_client: usize,
    adversarial: bool,
    seed: u64,
) -> ClientCountPoint {
    use vfs::FileSystem;
    let ops = (clients * ops_per_client) as u64;
    let (mut sys, ctl) = boot_with_ctl();
    let target = setup(sys.spawn_program(ctl, "/bin/spin", &["spin"]), "spawn /bin/spin");
    let cred = Cred::new(100, 10);
    let name = format!("{:05}", target.0);

    let rates = if adversarial { 15 } else { 0 };
    let mut wire = vfs::remote::WireConfig::faulty(seed, vfs::remote::FaultRates::uniform(rates))
        .queue_caps(E5D_QUEUE_CAP, E5D_QUEUE_CAP);
    if adversarial {
        wire = wire.adversarial(vfs::remote::AdversaryRates {
            slow_reader: 120,
            half_open: 60,
            flood: 40,
            mid_frame: 40,
            stale_replay: 150,
        });
    }
    let mut fs = vfs::remote::RemoteFs::new(Box::new(procfs::ProcFs::new()))
        .with_ioctl_table(procfs::ioctl::wire_table())
        .with_config(&wire);

    // The target's status node is resolved and opened once on the
    // blocking mount face (session 0, always clean); the backing-fs
    // token is then valid on every minted session.
    let root = fs.root();
    let node = until_ok(|| fs.lookup(&mut sys.kernel, ctl, root, &name));
    let tok = until_ok(|| fs.open(&mut sys.kernel, ctl, node, vfs::OFlags::rdonly(), &cred));

    let handles: Vec<_> = (0..clients).map(|_| fs.client()).collect();
    let mut futs = PendingOps::default();
    for _ in 0..ops_per_client {
        for h in &handles {
            let born = fs.ticks();
            futs.add(h.submit_ioctl(ctl, node, tok, procfs::ioctl::PIOCSTATUS, &[]), born);
        }
    }

    let pump = fs.client();
    let mut ok = 0u64;
    let mut latencies: Vec<u64> = Vec::with_capacity(ops as usize);
    while !futs.is_empty() {
        let advanced = pump.pump(&mut sys.kernel);
        let now = fs.ticks();
        for (reply, born) in futs.drain_completed(&pump) {
            if status_ok(reply) {
                ok += 1;
                latencies.push(now.saturating_sub(born));
            }
        }
        if !advanced && !futs.is_empty() {
            // Idle wire with pending futures: everything left has
            // already resolved to a typed failure.
            break;
        }
    }

    let ticks = fs.ticks();
    let stats = fs.stats();
    latencies.sort_unstable();
    let p99_ticks = if latencies.is_empty() { 0 } else { latencies[(latencies.len() * 99) / 100] };
    let ok_per_kilotick = if ticks == 0 { 0.0 } else { ok as f64 * 1000.0 / ticks as f64 };
    ClientCountPoint {
        clients,
        adversarial,
        ops,
        ok,
        ticks,
        p99_ticks,
        ok_per_kilotick,
        in_queue_hwm: stats.in_queue_hwm,
        out_queue_hwm: stats.out_queue_hwm,
        sessions_evicted: stats.sessions_evicted,
        frames_shed: stats.frames_shed,
    }
}

/// The full E5d sweep over client counts, one leg per fault mix.
pub fn client_count_sweep(
    counts: &[usize],
    ops_per_client: usize,
    adversarial: bool,
    seed: u64,
) -> Vec<ClientCountPoint> {
    counts
        .iter()
        .map(|&clients| client_count_point(clients, ops_per_client, adversarial, seed))
        .collect()
}

/// One leg of the E13 execution fast-path measurement: a hot guest
/// loop driven for a fixed virtual-tick budget with the per-LWP caches
/// on or off, timed on the wall clock around `run_idle` only (boot and
/// spawn are excluded). The instruction stream is identical across
/// legs — the fast path is an accelerator, not a scheduler — so
/// insns/sec is directly comparable.
#[derive(Clone, Copy, Debug)]
pub struct FastPathPoint {
    /// Whether the software TLB + superblocks were live.
    pub fast: bool,
    /// Guest instructions retired by the target during the run.
    pub insns: u64,
    /// Wall-clock nanoseconds spent inside `run_idle`.
    pub wall_ns: u128,
    /// Retired guest instructions per wall-clock second.
    pub insns_per_sec: f64,
    /// Data-TLB probe outcomes (zero on the disabled leg).
    pub tlb_hits: u64,
    /// Data-TLB slow-path fills.
    pub tlb_misses: u64,
    /// Superblocks traced and installed.
    pub sblock_built: u64,
    /// Superblock dispatches.
    pub sblock_dispatched: u64,
    /// Instructions retired inside superblock dispatches.
    pub sblock_insns: u64,
    /// Superblock probes that failed stamp validation.
    pub sblock_stale: u64,
}

impl FastPathPoint {
    /// dTLB hit rate in `[0, 1]`; zero when no probes happened.
    pub fn tlb_hit_rate(&self) -> f64 {
        rate(self.tlb_hits, self.tlb_misses)
    }

    /// Fraction of retired instructions executed inside superblock
    /// dispatches, in `[0, 1]`; zero when nothing retired.
    pub fn sblock_coverage(&self) -> f64 {
        if self.insns == 0 {
            0.0
        } else {
            self.sblock_insns as f64 / self.insns as f64
        }
    }
}

fn rate(hits: u64, misses: u64) -> f64 {
    let total = hits + misses;
    if total == 0 {
        0.0
    } else {
        hits as f64 / total as f64
    }
}

/// Measures one E13 leg: boots a fresh machine, flips the fast path,
/// spawns `program` and drives it for `ticks` scheduler slices under a
/// wall-clock timer. `/bin/spin` is the decode-bound workload (a
/// store-free jump loop whose fetches never reach the dTLB once its
/// superblocks are built); `/bin/watched` adds two stores per iteration
/// and exercises the dTLB as well.
fn fast_path_point(program: &str, fast: bool, ticks: u64) -> FastPathPoint {
    let (mut sys, ctl) = boot_with_ctl_cfg(ksim::SimConfig::standard().fast_path(fast));
    let name = program.rsplit('/').next().unwrap_or(program);
    let pid = setup(sys.spawn_program(ctl, program, &[name]), "spawn workload");
    let start = Instant::now();
    sys.run_idle(ticks);
    let wall = start.elapsed();
    let st = setup(procfs::PrXStats::capture(&sys.kernel, pid), "xstats");
    let wall_ns = wall.as_nanos().max(1);
    FastPathPoint {
        fast,
        insns: st.insns,
        wall_ns,
        insns_per_sec: st.insns as f64 * 1e9 / wall_ns as f64,
        tlb_hits: st.tlb_hits,
        tlb_misses: st.tlb_misses,
        sblock_built: st.sblock_built,
        sblock_dispatched: st.sblock_dispatched,
        sblock_insns: st.sblock_insns,
        sblock_stale: st.sblock_stale,
    }
}

/// Both legs of the E13 comparison for one workload, best-of-`reps`
/// wall time per leg (each rep is a fresh boot, so a scheduling hiccup
/// in one rep cannot poison the point).
pub fn fast_path_pair(program: &str, ticks: u64, reps: usize) -> (FastPathPoint, FastPathPoint) {
    let best = |fast: bool| {
        (0..reps.max(1))
            .map(|_| fast_path_point(program, fast, ticks))
            .min_by(|a, b| a.wall_ns.cmp(&b.wall_ns))
            .unwrap_or_else(|| unreachable!("reps.max(1) yields at least one rep"))
    };
    (best(false), best(true))
}

/// The E1-metric leg of E13: wall-clock breakpoints/sec fielding a
/// `/proc` breakpoint on `/bin/cruncher`'s `tick` (one hit per ~770
/// retired instructions — the paper's footnote-3 conditional-breakpoint
/// shape, where execution speed rather than controller overhead bounds
/// the rate). Returns fielded breakpoints per second.
fn breakpoint_rate_point(fast: bool, hits: u64) -> f64 {
    let (mut sys, ctl) = boot_with_ctl_cfg(ksim::SimConfig::standard().fast_path(fast));
    let mut dbg =
        setup(tools::Debugger::launch(&mut sys, ctl, "/bin/cruncher", &["cruncher"]), "launch");
    let tick = setup(dbg.sym("tick"), "tick symbol");
    setup(dbg.set_breakpoint(&mut sys, tick), "set breakpoint");
    let field = |sys: &mut System, dbg: &mut tools::Debugger| match setup(dbg.cont(sys), "cont") {
        tools::DebugEvent::Breakpoint { addr, .. } => assert_eq!(addr, tick),
        other => panic!("unexpected {other:?}"),
    };
    // One fielding outside the timer absorbs the compulsory stop.
    field(&mut sys, &mut dbg);
    let start = Instant::now();
    for _ in 0..hits {
        field(&mut sys, &mut dbg);
    }
    let wall_ns = start.elapsed().as_nanos().max(1);
    hits as f64 * 1e9 / wall_ns as f64
}

/// Both legs of the breakpoints/sec comparison, best-of-`reps` each.
pub fn breakpoint_rate_pair(hits: u64, reps: usize) -> (f64, f64) {
    let best = |fast: bool| {
        (0..reps.max(1)).map(|_| breakpoint_rate_point(fast, hits)).fold(0.0f64, f64::max)
    };
    (best(false), best(true))
}

/// Instructions per page of text (fixed 8-byte encoding).
const INSNS_PER_PAGE: usize = 4096 / 8;

/// Source of the dense-breakpoint workload: `/bin/cruncher`'s shape
/// (hot compute, `call tick`, repeat) stretched so the compute body is
/// several pages of straight-line code and `tick` sits alone on its own
/// page. Every breakpoint fielding writes into `tick`'s page twice
/// (clear + replant); with per-page text epochs the body's superblocks
/// survive those writes.
fn dense_workload_src(body_insns: usize) -> String {
    let mut src = String::from("_start:\n    movi a0, 0\nouter:\n");
    for _ in 0..body_insns {
        src.push_str("    addi a0, a0, 1\n");
    }
    src.push_str("    call tick\n    jmp  outer\n");
    // Pad so `tick` starts exactly on the next page boundary. Insns so
    // far: movi + body + call + jmp.
    let used = 1 + body_insns + 2;
    let pad = (INSNS_PER_PAGE - used % INSNS_PER_PAGE) % INSNS_PER_PAGE;
    for _ in 0..pad {
        src.push_str("    nop\n");
    }
    src.push_str("tick:\n    addi a1, a1, 1\n    ret\n");
    src
}

/// The dense-breakpoint measurement (E1's metric under E13's engine):
/// wall-clock breakpoints/sec on the multi-page workload under per-page
/// text epochs, with the superblock and epoch counters that show the
/// body's blocks surviving the plant/replant traffic.
#[derive(Clone, Copy, Debug)]
pub struct DenseBpPoint {
    /// Fielded breakpoints per wall-clock second.
    pub hits_per_sec: f64,
    /// Superblocks rebuilt during the timed fieldings.
    pub sblock_built: u64,
    /// Superblock probes killed by stamp validation.
    pub sblock_stale: u64,
    /// Per-page text-epoch bumps observed.
    pub page_epoch_bumps: u64,
}

/// Measures one dense-breakpoint run: `hits` fieldings of a breakpoint
/// on `tick`, fast path on. The compute body is ~4 pages of
/// straight-line code that the clear/replant writes into `tick`'s page
/// must leave warm.
fn dense_breakpoint_point(hits: u64) -> DenseBpPoint {
    let (mut sys, ctl) = boot_with_ctl_cfg(ksim::SimConfig::standard().fast_path(true));
    sys.install_program("/bin/dense", &dense_workload_src(4 * INSNS_PER_PAGE));
    let mut dbg = setup(tools::Debugger::launch(&mut sys, ctl, "/bin/dense", &["dense"]), "launch");
    let tick = setup(dbg.sym("tick"), "tick symbol");
    setup(dbg.set_breakpoint(&mut sys, tick), "set breakpoint");
    let pid = dbg.pid();
    let field = |sys: &mut System, dbg: &mut tools::Debugger| match setup(dbg.cont(sys), "cont") {
        tools::DebugEvent::Breakpoint { addr, .. } => assert_eq!(addr, tick),
        other => panic!("unexpected {other:?}"),
    };
    field(&mut sys, &mut dbg);
    let before = setup(procfs::PrXStats::capture(&sys.kernel, pid), "xstats");
    let start = Instant::now();
    for _ in 0..hits {
        field(&mut sys, &mut dbg);
    }
    let wall_ns = start.elapsed().as_nanos().max(1);
    let after = setup(procfs::PrXStats::capture(&sys.kernel, pid), "xstats");
    DenseBpPoint {
        hits_per_sec: hits as f64 * 1e9 / wall_ns as f64,
        sblock_built: after.sblock_built - before.sblock_built,
        sblock_stale: after.sblock_stale - before.sblock_stale,
        page_epoch_bumps: after.page_epoch_bumps - before.page_epoch_bumps,
    }
}

/// The dense-breakpoint measurement, best-of-`reps` wall rate; counters
/// come from the best rep.
pub fn dense_breakpoint_best(hits: u64, reps: usize) -> DenseBpPoint {
    (0..reps.max(1))
        .map(|_| dense_breakpoint_point(hits))
        .max_by(|a, b| a.hits_per_sec.total_cmp(&b.hits_per_sec))
        .unwrap_or_else(|| unreachable!("reps.max(1) yields at least one rep"))
}

/// One leg of the E14 record-overhead comparison: the same workload
/// with the recorder off or on, plus what the recorder banked.
#[derive(Clone, Debug)]
pub struct RecordPoint {
    /// Whether the recorder was on for this leg.
    pub recorded: bool,
    /// Wall-clock nanoseconds for the measured run.
    pub wall_ns: u128,
    /// Guest instructions retired (same on both legs — the recorder
    /// must not perturb the simulation).
    pub insns: u64,
    /// Records in the log at the end of the run.
    pub records: usize,
    /// Bytes folded into digests over the run.
    pub bytes_logged: u64,
    /// Copy-on-write snapshots taken.
    pub snapshots: u64,
}

/// Runs the E14 workload — a hot loop interleaved with `/proc` status
/// reads, so the log carries both `Steps` batches and host-call records
/// — with the recorder off or on.
pub fn record_overhead_point(record: bool, snapshot_every: usize, ticks: u64) -> RecordPoint {
    let cfg = if record {
        ksim::SimConfig::standard().record(true).snapshot_every(snapshot_every)
    } else {
        ksim::SimConfig::standard()
    };
    let (mut sys, ctl) = boot_with_ctl_cfg(cfg);
    let pid = setup(sys.spawn_program(ctl, "/bin/spin", &["spin"]), "spawn /bin/spin");
    const SLICES: u64 = 32;
    let start = Instant::now();
    for _ in 0..SLICES {
        sys.run_idle(ticks / SLICES);
        if let Ok(fd) = sys.host_open(ctl, &format!("/proc/{:05}", pid.0), vfs::OFlags::rdonly()) {
            let mut buf = [0u8; 64];
            let _ = sys.host_read(ctl, fd, &mut buf);
            let _ = sys.host_close(ctl, fd);
        }
    }
    let wall_ns = start.elapsed().as_nanos().max(1);
    let st = setup(procfs::PrXStats::capture(&sys.kernel, pid), "xstats");
    let (records, bytes_logged, snapshots) = match sys.kernel.recorder.as_ref() {
        Some(r) => (r.records.len(), r.stats.bytes_logged, r.stats.snapshots),
        None => (0, 0, 0),
    };
    RecordPoint { recorded: record, wall_ns, insns: st.insns, records, bytes_logged, snapshots }
}

/// One E14 time-travel point: latency of `goto_tick` to the end of a
/// recorded log via the nearest snapshot, against the full-rebuild
/// path replaying the whole prefix.
#[derive(Clone, Debug)]
pub struct GotoPoint {
    /// Snapshot cadence (records between snapshots) of the recorded run.
    pub snapshot_every: usize,
    /// Log length the run produced.
    pub len: usize,
    /// Snapshots the recorder banked.
    pub snapshots: u64,
    /// Nanoseconds for `goto_tick` (snapshot resume + tail replay).
    pub goto_ns: u128,
    /// Records the snapshot path actually re-applied live.
    pub goto_replayed: u64,
    /// Nanoseconds for the full rebuild (`replay_to` from tick zero).
    pub rebuild_ns: u128,
    /// Records the full rebuild re-applied (the whole prefix).
    pub rebuild_replayed: u64,
}

/// Records the E14 workload at the given snapshot cadence, then times
/// landing on the final tick both ways. Best-of-`reps` wall time per
/// leg; the replayed-record counts are deterministic.
pub fn goto_latency_point(snapshot_every: usize, ticks: u64, reps: usize) -> GotoPoint {
    let (mut sys, ctl) =
        boot_with_ctl_cfg(ksim::SimConfig::standard().record(true).snapshot_every(snapshot_every));
    let pid = setup(sys.spawn_program(ctl, "/bin/spin", &["spin"]), "spawn /bin/spin");
    const SLICES: u64 = 32;
    for _ in 0..SLICES {
        sys.run_idle(ticks / SLICES);
        if let Ok(fd) = sys.host_open(ctl, &format!("/proc/{:05}", pid.0), vfs::OFlags::rdonly()) {
            let mut buf = [0u8; 64];
            let _ = sys.host_read(ctl, fd, &mut buf);
            let _ = sys.host_close(ctl, fd);
        }
    }
    let rec = setup_some(sys.recording(), "recording on");
    let snapshots = sys.kernel.recorder.as_ref().map_or(0, |r| r.stats.snapshots);
    let k = rec.len();
    let replays_of = |s: &System| s.kernel.recorder.as_ref().map_or(0, |r| r.stats.replays);
    let mut goto_ns = u128::MAX;
    let mut goto_replayed = 0;
    let mut rebuild_ns = u128::MAX;
    let mut rebuild_replayed = 0;
    for _ in 0..reps.max(1) {
        let start = Instant::now();
        let restored = setup(procfs::goto_tick(&sys, k), "goto_tick");
        goto_ns = goto_ns.min(start.elapsed().as_nanos().max(1));
        goto_replayed = replays_of(&restored);
        let start = Instant::now();
        let rebuilt = setup(procfs::replay_to(&rec, k), "replay_to");
        rebuild_ns = rebuild_ns.min(start.elapsed().as_nanos().max(1));
        rebuild_replayed = replays_of(&rebuilt);
    }
    GotoPoint {
        snapshot_every,
        len: k,
        snapshots,
        goto_ns,
        goto_replayed,
        rebuild_ns,
        rebuild_replayed,
    }
}

/// One E15 migration point: a full live migration of a guest from a
/// clean source into a destination reached through a remote `/proc`
/// mount at the given wire fault rate.
#[derive(Clone, Debug)]
pub struct MigratePoint {
    /// Per-op wire fault rate (permille) on the destination mount.
    pub fault_permille: u16,
    /// Per-op adversary persona rate (permille) on the same mount.
    pub adversary_permille: u16,
    /// Wall-clock nanoseconds for the end-to-end migration.
    pub wall_ns: u128,
    /// Checkpoint image size streamed across.
    pub bytes: usize,
    /// Chunk ops the driver issued (first sends plus refills).
    pub chunks: u32,
    /// Wire-level re-sends the driver needed on top of that.
    pub retries: u32,
    /// Chunks the destination kernel discarded as already-applied —
    /// the idempotency discipline absorbing duplicate delivery.
    pub dup_chunks: u64,
    /// Transfers the destination kernel resumed mid-stream after a
    /// driver or placeholder restart.
    pub resumes: u64,
    /// The floor: chunks a loss-free wire would need for this image.
    pub min_chunks: u32,
}

/// Runs one E15 migration leg: boots a source with a live guest and a
/// destination whose `/proc` is also mounted remotely at the given
/// fault/adversary rates, then drives [`tools::migrate::migrate`]
/// across that wire. Panics (via [`setup`]) if the migration does not
/// commit — every swept rate is sub-certain, so the bounded-retry
/// driver must land.
pub fn migrate_point(seed: u64, fault_permille: u16, adversary_permille: u16) -> MigratePoint {
    let mut src = tools::boot_demo();
    let src_ctl = src.spawn_hosted("bench-mig-src", Cred::superuser());
    let target = setup(src.spawn_program(src_ctl, "/bin/ticker", &["ticker"]), "spawn /bin/ticker");
    src.run_idle(120);

    let mut wire =
        vfs::remote::WireConfig::faulty(seed, vfs::remote::FaultRates::uniform(fault_permille));
    if adversary_permille > 0 {
        wire = wire.adversarial(vfs::remote::AdversaryRates::uniform(adversary_permille));
    }
    let mut dst = tools::boot_demo_cfg(
        ksim::SimConfig::standard().mount("/procr", ksim::MountPlan::RemoteProc(wire)),
    );
    let dst_ctl = dst.spawn_hosted("bench-mig-dst", Cred::superuser());

    let start = Instant::now();
    let report = setup(
        tools::migrate::migrate(&mut src, src_ctl, "/proc", target, &mut dst, dst_ctl, "/procr"),
        "migrate",
    );
    let wall_ns = start.elapsed().as_nanos().max(1);
    let min_chunks = report.bytes.div_ceil(ksim::migrate::MIG_CHUNK_MAX) as u32;
    MigratePoint {
        fault_permille,
        adversary_permille,
        wall_ns,
        bytes: report.bytes,
        chunks: report.chunks,
        retries: report.retries,
        dup_chunks: dst.kernel.mig_stats.dup_chunks,
        resumes: dst.kernel.mig_stats.resumes,
        min_chunks,
    }
}

/// One E15 durability point: cost of taking a recording through the
/// on-disk format and back, against replaying it directly in memory.
#[derive(Clone, Debug)]
pub struct RecfilePoint {
    /// Records in the log the workload produced.
    pub records: usize,
    /// Size of the serialised recfile image.
    pub bytes: usize,
    /// Nanoseconds to serialise ([`ksim::System::save_recfile`]).
    pub save_ns: u128,
    /// Nanoseconds to parse and checksum-verify the image
    /// ([`ksim::recfile::load`]) without rebuilding the system.
    pub load_ns: u128,
    /// Nanoseconds for the full [`procfs::replay_file`] rebuild — the
    /// cross-process resume a consumer actually pays for.
    pub replay_ns: u128,
}

/// Records the E14 workload, then times the recfile round trip:
/// serialise, parse-and-verify, and full replay-from-bytes.
/// Best-of-`reps` wall time per leg.
pub fn recfile_point(snapshot_every: usize, ticks: u64, reps: usize) -> RecfilePoint {
    let (mut sys, ctl) =
        boot_with_ctl_cfg(ksim::SimConfig::standard().record(true).snapshot_every(snapshot_every));
    let pid = setup(sys.spawn_program(ctl, "/bin/spin", &["spin"]), "spawn /bin/spin");
    const SLICES: u64 = 32;
    for _ in 0..SLICES {
        sys.run_idle(ticks / SLICES);
        if let Ok(fd) = sys.host_open(ctl, &format!("/proc/{:05}", pid.0), vfs::OFlags::rdonly()) {
            let mut buf = [0u8; 64];
            let _ = sys.host_read(ctl, fd, &mut buf);
            let _ = sys.host_close(ctl, fd);
        }
    }
    let records = setup_some(sys.recording(), "recording on").len();
    let mut save_ns = u128::MAX;
    let mut load_ns = u128::MAX;
    let mut replay_ns = u128::MAX;
    let mut bytes = Vec::new();
    for _ in 0..reps.max(1) {
        let start = Instant::now();
        bytes = setup_some(sys.save_recfile(), "save_recfile");
        save_ns = save_ns.min(start.elapsed().as_nanos().max(1));
        let start = Instant::now();
        let parsed = setup(ksim::recfile::load(&bytes), "recfile::load");
        load_ns = load_ns.min(start.elapsed().as_nanos().max(1));
        assert_eq!(parsed.recording.len(), records, "recfile dropped records");
        let start = Instant::now();
        let _rebuilt = setup(procfs::replay_file(&bytes), "replay_file");
        replay_ns = replay_ns.min(start.elapsed().as_nanos().max(1));
    }
    RecfilePoint { records, bytes: bytes.len(), save_ns, load_ns, replay_ns }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn xorshift_is_deterministic_and_nonzero() {
        let mut a = XorShift::new(42);
        let mut b = XorShift::new(42);
        let xs: Vec<u64> = (0..64).map(|_| a.next_u64()).collect();
        let ys: Vec<u64> = (0..64).map(|_| b.next_u64()).collect();
        assert_eq!(xs, ys);
        assert!(xs.iter().any(|&x| x != 0));
        // Zero seed is remapped, not a fixed point.
        let mut z = XorShift::new(0);
        assert_ne!(z.next_u64(), 0);
    }

    #[test]
    fn xorshift_below_bounds() {
        let mut r = XorShift::new(7);
        for _ in 0..1000 {
            assert!(r.below(13) < 13);
        }
        assert_eq!(r.bytes(9).len(), 9);
    }
}
