//! Per-layer figures of a traced run: the counters each layer already
//! exports (`PrXStats`, the recorder's `RecStats`, the snapshot cache,
//! `WireStats`), plus self times folded from the spans in [`crate::trace`].

use crate::trace::Agg;
use procfs::PrXStats;
use std::collections::BTreeMap;

/// `/proc` vnode operations reported per layer.
const VOPS: [&str; 7] = [
    "open", "close", "read", "write", "ioctl", "readdir", "lookup",
];

/// `tools` operations reported with their self time.
const TOOL_OPS: [&str; 5] = ["cont", "inspect", "ps_pass", "truss", "reverse_step"];

/// Counters summed over the traced units of a run.
#[derive(Clone, Debug, Default)]
pub struct Layers {
    pub x: PrXStats,
    pub steps_ran: u64,
    pub idle_jumps: u64,
    pub records: u64,
    pub snapshots: u64,
    pub rec_bytes: u64,
    pub replayed: u64,
    pub reverses: u64,
    pub snap_hits: u64,
    pub snap_lookups: u64,
    pub wire_frames: u64,
    pub wire_bytes: u64,
    pub wire_retries: u64,
    pub wire_queue_hwm: u64,
}

impl Layers {
    /// Adds the fast-path counters one process gained between two
    /// captures. A capture that went backwards (the run was rewound by a
    /// reverse-step) adds nothing.
    pub fn add_x(&mut self, before: &PrXStats, after: &PrXStats) {
        let d = |a: u64, b: u64| b.saturating_sub(a);
        let x = &mut self.x;
        x.insns += d(before.insns, after.insns);
        x.icache_hits += d(before.icache_hits, after.icache_hits);
        x.icache_misses += d(before.icache_misses, after.icache_misses);
        x.tlb_hits += d(before.tlb_hits, after.tlb_hits);
        x.tlb_misses += d(before.tlb_misses, after.tlb_misses);
        x.tlb_frame_hits += d(before.tlb_frame_hits, after.tlb_frame_hits);
        x.page_epoch_bumps += d(before.page_epoch_bumps, after.page_epoch_bumps);
        x.sblock_built += d(before.sblock_built, after.sblock_built);
        x.sblock_insns += d(before.sblock_insns, after.sblock_insns);
        x.sblock_stale += d(before.sblock_stale, after.sblock_stale);
    }

    /// Adds the snapshot-cache counters of one shared cache.
    pub fn add_snap(&mut self, c: &procfs::PrCacheStats) {
        self.snap_hits += c.hits;
        self.snap_lookups += c.hits + c.misses + c.invalidations;
    }

    /// Adds the transport counters of one remote mount.
    pub fn add_wire(&mut self, w: &vfs::remote::WireStats) {
        self.wire_frames += w.frames_sent;
        self.wire_bytes += w.bytes_sent + w.bytes_received;
        self.wire_retries += w.retries;
        self.wire_queue_hwm = self.wire_queue_hwm.max(w.in_queue_hwm.max(w.out_queue_hwm));
    }

    /// Every per-layer metric, named `<layer>.<metric>`.
    pub fn metrics(
        &self,
        agg: &BTreeMap<(&'static str, &'static str), Agg>,
        unit_s: &[Vec<f64>; 2],
    ) -> Vec<(&'static str, &'static str, f64)> {
        let get = |layer: &'static str, name: &'static str| {
            agg.get(&(layer, name)).copied().unwrap_or_default()
        };
        let per = |n: u64, d: u64| if d == 0 { 0.0 } else { n as f64 / d as f64 };
        let layer_sum = |layer: &str, f: fn(&Agg) -> u64| {
            agg.iter()
                .filter(|((l, _), _)| *l == layer)
                .map(|(_, a)| f(a))
                .sum::<u64>()
        };
        // Totals are reported per traced unit of work (a farm repetition,
        // an sdb session, a console cycle), so they do not grow with how
        // many units fit in the run.
        let units = unit_s[1].len().max(1) as f64;
        let pu = |v: u64| v as f64 / units;
        let run_ns = get("ksim", "run").total_ns;
        let pump_ns = layer_sum("tools", |a| a.self_ns);
        let x = &self.x;
        let mut m: Vec<(&'static str, &'static str, f64)> = vec![
            ("isa.ns_per_insn", "ns", per(run_ns + pump_ns, x.insns)),
            (
                "isa.icache_hit_ratio",
                "ratio",
                per(x.icache_hits, x.icache_hits + x.icache_misses),
            ),
            ("isa.sblock_coverage", "ratio", per(x.sblock_insns, x.insns)),
            ("isa.sblock_built", "count", pu(x.sblock_built)),
            ("isa.sblock_stale", "count", pu(x.sblock_stale)),
            (
                "vm.tlb_hit_ratio",
                "ratio",
                per(x.tlb_hits, x.tlb_hits + x.tlb_misses),
            ),
            ("vm.frame_hits", "count", pu(x.tlb_frame_hits)),
            ("vm.page_epoch_bumps", "count", pu(x.page_epoch_bumps)),
            ("ksim.run_s", "s", pu(run_ns) / 1e9),
            ("ksim.steps_ran", "count", pu(self.steps_ran)),
            ("ksim.idle_jumps", "count", pu(self.idle_jumps)),
            ("ksim.pump_s", "s", pu(pump_ns) / 1e9),
            ("record.records", "count", pu(self.records)),
            ("record.snapshots", "count", pu(self.snapshots)),
            ("record.bytes", "B", pu(self.rec_bytes)),
            (
                "record.replayed_per_reverse",
                "count",
                per(self.replayed, self.reverses),
            ),
            (
                "record.reverse_s",
                "s",
                pu(get("tools", "reverse_step").total_ns) / 1e9,
            ),
        ];
        for (layer, names) in [("procfs", VOPS_SELF_PROCFS), ("wire", VOPS_SELF_WIRE)] {
            for (vop, name) in VOPS.iter().zip(names) {
                let a = get(layer, vop);
                m.push((name, "us", per(a.self_ns, a.calls) / 1e3));
            }
        }
        for (vop, name) in VOPS.iter().zip(VOPS_CALLS_PROCFS) {
            m.push((name, "count", pu(get("procfs", vop).calls)));
        }
        m.push((
            "procfs.snap_hit_ratio",
            "ratio",
            per(self.snap_hits, self.snap_lookups),
        ));
        m.push(("wire.frames", "count", pu(self.wire_frames)));
        m.push(("wire.bytes", "B", pu(self.wire_bytes)));
        m.push(("wire.retries", "count", pu(self.wire_retries)));
        m.push(("wire.queue_hwm", "B", self.wire_queue_hwm as f64));
        for (op, name) in TOOL_OPS.iter().zip(TOOLS_SELF) {
            let a = get("tools", op);
            m.push((name, "us", per(a.self_ns, a.calls) / 1e3));
        }
        // A tool's /proc calls are the outermost file-system spans under
        // it: wire spans on a remote mount, procfs spans on a local one.
        let tool_calls: u64 = agg
            .iter()
            .filter(|((l, _), _)| *l == "wire" || *l == "procfs")
            .map(|(_, a)| a.under_tools)
            .sum();
        let tool_ops = layer_sum("tools", |a| a.calls);
        m.push((
            "tools.proc_calls_per_op",
            "count",
            per(tool_calls, tool_ops),
        ));
        let untraced = crate::quantile(&unit_s[0], 0.5);
        let traced = crate::quantile(&unit_s[1], 0.5);
        let overhead = if untraced > 0.0 {
            (traced - untraced) / untraced * 100.0
        } else {
            0.0
        };
        m.push(("trace.overhead_pct", "%", overhead));
        m
    }
}

const VOPS_SELF_PROCFS: [&str; 7] = [
    "procfs.open_self_us",
    "procfs.close_self_us",
    "procfs.read_self_us",
    "procfs.write_self_us",
    "procfs.ioctl_self_us",
    "procfs.readdir_self_us",
    "procfs.lookup_self_us",
];

const VOPS_CALLS_PROCFS: [&str; 7] = [
    "procfs.open_calls",
    "procfs.close_calls",
    "procfs.read_calls",
    "procfs.write_calls",
    "procfs.ioctl_calls",
    "procfs.readdir_calls",
    "procfs.lookup_calls",
];

const VOPS_SELF_WIRE: [&str; 7] = [
    "wire.open_self_us",
    "wire.close_self_us",
    "wire.read_self_us",
    "wire.write_self_us",
    "wire.ioctl_self_us",
    "wire.readdir_self_us",
    "wire.lookup_self_us",
];

const TOOLS_SELF: [&str; 5] = [
    "tools.cont_self_us",
    "tools.inspect_self_us",
    "tools.ps_pass_self_us",
    "tools.truss_self_us",
    "tools.reverse_step_self_us",
];
