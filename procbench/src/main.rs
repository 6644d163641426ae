//! procbench — the end-to-end and per-layer benchmark of procsim.
//!
//! ```text
//! procbench --workload <guest-farm|sdb-session|remote-console>
//!           --seed <n> --seconds <s> --trace <0|1> [--smoke]
//! ```
//!
//! One run builds its inputs from the seed, measures for `--seconds`,
//! checks every output, and prints as its last stdout line one JSON
//! object: `correct`, `attempted`, `failed` and `metrics`. With
//! `--trace 0` the metrics are the end-to-end ones, measured with
//! tracing off; with `--trace 1` they are the per-layer ones from a
//! traced run (see README.md). `--smoke` shrinks every size for a quick
//! functional run.

mod console;
mod farm;
mod gen;
mod layers;
mod sdb;
mod trace;

use std::fmt::Write as _;
use std::time::Instant;

/// Parsed command line.
#[derive(Clone, Debug)]
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub smoke: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut it = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace, mut smoke) = (None, 1, 10.0, false, false);
    while let Some(flag) = it.next() {
        if flag == "--smoke" {
            smoke = true;
            continue;
        }
        let val = it.next().ok_or(format!("{flag} needs a value"))?;
        let bad = || format!("bad value for {flag}: {val}");
        match flag.as_str() {
            "--workload" => workload = Some(val.clone()),
            "--seed" => seed = val.parse().map_err(|_| bad())?,
            "--seconds" => seconds = val.parse().map_err(|_| bad())?,
            "--trace" => trace = val.parse::<u8>().map_err(|_| bad())? != 0,
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
        smoke,
    })
}

/// The timed samples of a block of units. Latency vectors hold one
/// sample per operation; rates are work over host time.
#[derive(Default)]
pub struct Samples {
    pub guest: Tally,
    pub bp: Tally,
    pub inspect_us: Vec<f64>,
    pub reverse_ms: Vec<f64>,
    pub ps_ms: Vec<f64>,
    pub truss: Tally,
}

/// The end-to-end metrics taken per block: name, unit, whether higher is
/// better, and the figure of one block's samples.
type PerBlock = (&'static str, &'static str, bool, fn(&Samples) -> f64);

const PER_BLOCK: [PerBlock; 8] = [
    ("guest_insns_per_s", "1/s", true, |s| s.guest.rate()),
    ("bp_per_s", "1/s", true, |s| s.bp.rate()),
    ("inspect_mean_us", "us", false, |s| trimmed_mean(&s.inspect_us)),
    ("inspect_p90_us", "us", false, |s| quantile(&s.inspect_us, 0.9)),
    ("reverse_step_mean_ms", "ms", false, |s| trimmed_mean(&s.reverse_ms)),
    ("ps_pass_mean_ms", "ms", false, |s| trimmed_mean(&s.ps_ms)),
    ("ps_pass_p90_ms", "ms", false, |s| quantile(&s.ps_ms, 0.9)),
    ("truss_events_per_s", "1/s", true, |s| s.truss.rate()),
];

/// A run repeats its unit of work until the time is up. Consecutive
/// units are grouped into blocks of at least this many host seconds,
/// and each block gives one figure per metric.
const BLOCK_S: f64 = 0.5;

/// The quantile, on the slow side, of the block figures a run reports.
///
/// On a shared host the same unit can take from one to two times its
/// usual time, in spells of seconds to minutes, as other tenants' load
/// comes and goes. How much of a run the fast spells cover changes from
/// run to run; it moves any figure pooled over the whole run, and the
/// median block with it. The slow-side decile sits in the host's usual
/// state: it is the rate nine blocks in ten reach, or the latency nine
/// blocks in ten stay within.
const SLOW_SIDE: f64 = 0.9;

/// What one workload run measured.
#[derive(Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    pub setup_s: Vec<f64>,
    /// Samples of the block in progress.
    pub s: Samples,
    /// Host seconds of the units in the block in progress.
    block_s: f64,
    /// The figures of each finished block, in `PER_BLOCK` order. Only
    /// the figures are kept, so memory does not grow with the run.
    blocks: Vec<[f64; PER_BLOCK.len()]>,
    pub layers: layers::Layers,
    /// Host seconds of each unit, untraced and traced, for the
    /// tracing-overhead figure of a traced run.
    pub unit_s: [Vec<f64>; 2],
}

impl Outcome {
    /// Counts one attempted operation, and a failure when `ok` is false.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            if self.failed <= 20 {
                eprintln!("procbench: check failed: {}", what());
            }
        }
    }

    /// Closes the unit in progress, which took `secs` of host time.
    pub fn end_unit(&mut self, secs: f64, traced: bool) {
        self.unit_s[usize::from(traced)].push(secs);
        self.block_s += secs;
        if self.block_s >= BLOCK_S {
            let s = std::mem::take(&mut self.s);
            self.blocks.push(PER_BLOCK.map(|(.., figure)| figure(&s)));
            self.block_s = 0.0;
        }
    }

    /// Counts an operation that returned a typed error as failed.
    pub fn ok<T, E: std::fmt::Debug>(&mut self, r: Result<T, E>, what: &str) -> Option<T> {
        match r {
            Ok(v) => {
                self.attempted += 1;
                Some(v)
            }
            Err(e) => {
                self.check(false, || format!("{what}: {e:?}"));
                None
            }
        }
    }
}

/// Work done and the host time it took, for a rate.
#[derive(Clone, Copy, Default)]
pub struct Tally {
    work: f64,
    secs: f64,
}

impl Tally {
    pub fn add(&mut self, work: u64, secs: f64) {
        self.work += work as f64;
        self.secs += secs;
    }

    /// Work per host second; 0 when no time was measured.
    pub fn rate(&self) -> f64 {
        if self.secs > 0.0 {
            self.work / self.secs
        } else {
            0.0
        }
    }
}

/// Seconds since `t`.
pub fn secs(t: Instant) -> f64 {
    t.elapsed().as_secs_f64()
}

/// Nearest-rank quantile of unsorted samples; 0 when there are none.
pub fn quantile(samples: &[f64], q: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = ((q * v.len() as f64).ceil() as usize).clamp(1, v.len());
    v[rank - 1]
}

/// Mean of the samples left after dropping the lowest and highest
/// tenth, so a stray slow operation does not move it; 0 when there are
/// none.
pub fn trimmed_mean(samples: &[f64]) -> f64 {
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    let cut = v.len() / 10;
    let kept = &v[cut..v.len() - cut];
    if kept.is_empty() {
        0.0
    } else {
        kept.iter().sum::<f64>() / kept.len() as f64
    }
}

/// Peak resident set of this process in MiB (`VmHWM`).
fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

fn end_to_end(o: &Outcome) -> Vec<(&'static str, &'static str, f64)> {
    // The first set-up is discarded: it pays for cold allocator state
    // that later builds do not.
    let setups = if o.setup_s.len() > 1 {
        &o.setup_s[1..]
    } else {
        &o.setup_s[..]
    };
    let mut m = vec![
        ("setup_s", "s", quantile(setups, SLOW_SIDE)),
        ("peak_rss_mb", "MiB", peak_rss_mb()),
    ];
    // A run too short to close a block reports its open one.
    let open = [PER_BLOCK.map(|(.., figure)| figure(&o.s))];
    let blocks = if o.blocks.is_empty() {
        &open[..]
    } else {
        &o.blocks[..]
    };
    for (i, (name, unit, higher, _)) in PER_BLOCK.into_iter().enumerate() {
        // A block that did no such operation has no figure for it.
        let v: Vec<f64> = blocks.iter().map(|b| b[i]).filter(|v| *v > 0.0).collect();
        let q = if higher { 1.0 - SLOW_SIDE } else { SLOW_SIDE };
        m.push((name, unit, quantile(&v, q)));
    }
    m
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("procbench: {e}");
            std::process::exit(2);
        }
    };
    trace::enable(false);
    let mut o = match args.workload.as_str() {
        "guest-farm" => farm::run(&args),
        "sdb-session" => sdb::run(&args),
        "remote-console" => console::run(&args),
        w => {
            eprintln!("procbench: unknown workload {w}");
            std::process::exit(2);
        }
    };
    trace::enable(false);
    let metrics = if args.trace {
        let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("out")
            .join(format!("trace-{}-{}.json", args.workload, args.seed));
        let written = std::fs::create_dir_all(path.parent().unwrap_or(&path))
            .and_then(|()| trace::write_chrome(&path));
        match written {
            Ok(()) => eprintln!("procbench: spans written to {}", path.display()),
            Err(e) => eprintln!("procbench: could not write spans: {e}"),
        }
        o.layers.metrics(&trace::report(), &o.unit_s)
    } else {
        end_to_end(&o)
    };
    // Every reported metric must be a real number; an end-to-end metric
    // that measured nothing means the workload did not do its work.
    for (name, _, v) in &metrics {
        let bad = !v.is_finite() || (!args.trace && *v <= 0.0);
        o.check(!bad, || format!("metric {name} = {v}"));
    }
    let mut json = format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
        o.failed == 0,
        o.attempted,
        o.failed
    );
    for (i, (name, unit, v)) in metrics.iter().enumerate() {
        let v = if v.is_finite() { *v } else { 0.0 };
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(
            json,
            "{sep}\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}"
        );
        eprintln!("procbench: {:<28} {v:>16.6} {unit}", name);
    }
    json.push_str("}}");
    println!("{json}");
}
