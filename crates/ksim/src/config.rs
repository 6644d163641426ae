//! Unified construction-time configuration for a simulated system.
//!
//! PRs 2–7 accreted one-off `System` knobs — `set_fast_path`, the
//! kernel and wire `FaultPlan` installers, the wire's queue caps — each set
//! imperatively at a different point in a test's setup. [`SimConfig`]
//! collapses them into one declarative value consumed once at
//! construction ([`crate::System::with_config`]), which is also exactly
//! what the record/replay subsystem needs: the config is
//! recorded verbatim at the head of a [`crate::record::Recording`], so
//! replaying a run starts from a byte-identical machine.

use crate::kfault::KernelFaultRates;
use vfs::remote::{WireConfig, WireError, WireReader};

/// A kernel fault schedule: seed + per-site rates, and whether death
/// injection targets only processes a controller holds a writable
/// `/proc` descriptor on.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct KernelFaultSpec {
    /// Generator seed; one seed fixes the whole schedule.
    pub seed: u64,
    /// Per-site injection rates in permille.
    pub rates: KernelFaultRates,
    /// Concentrate death injection on controller-held targets.
    pub targeted: bool,
}

/// What to mount at a path: interpreted by the `procfs` crate's
/// `build_sim` (ksim itself only records the plan — mounting needs the
/// `/proc` implementations, which live a layer up).
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum MountPlan {
    /// The flat, ioctl-driven `/proc` of the paper's shipped design.
    ProcFlat,
    /// The hierarchical, file-per-datum `/proc` of the paper's proposal.
    ProcHier,
    /// A flat `/proc` served across the simulated wire under this
    /// configuration.
    RemoteProc(WireConfig),
}

impl MountPlan {
    fn tag(&self) -> u8 {
        match self {
            MountPlan::ProcFlat => 0,
            MountPlan::ProcHier => 1,
            MountPlan::RemoteProc(_) => 2,
        }
    }
}

/// Construction-time configuration of a [`crate::System`]: scheduler
/// parameters, execution-engine switches, the kernel fault plan, the
/// mount plan, and whether the run is recorded.
#[derive(Clone, Debug, PartialEq)]
pub struct SimConfig {
    /// Instructions per scheduling quantum.
    pub quantum: u64,
    /// Idle-step limit for hosted blocking calls before `EDEADLK`.
    pub pump_limit: u64,
    /// Execution fast path (software TLB + superblocks) for every
    /// process.
    pub fast_path: bool,
    /// Kernel fault schedule; `None` consumes no generator state.
    pub kernel_faults: Option<KernelFaultSpec>,
    /// Record every nondeterministic input for replay.
    pub record: bool,
    /// Take a copy-on-write snapshot every this many recorded inputs
    /// (only meaningful with `record`; 0 means never snapshot).
    pub snapshot_every: usize,
    /// Mounts to establish at construction, in order.
    pub mounts: Vec<(String, MountPlan)>,
    /// Seed for the gang round's commit-order permutation, which is
    /// also the order its slices run in. Part of the recorded config,
    /// so a replay runs the same interleaving.
    pub interleave_seed: u64,
}

impl Default for SimConfig {
    fn default() -> SimConfig {
        SimConfig {
            quantum: 256,
            pump_limit: 1_000_000,
            fast_path: true,
            kernel_faults: None,
            record: false,
            snapshot_every: 64,
            mounts: Vec::new(),
            interleave_seed: 0,
        }
    }
}

impl SimConfig {
    /// The default configuration: no mounts, no faults, no recording.
    pub fn new() -> SimConfig {
        SimConfig::default()
    }

    /// The standard two-face layout: flat `/proc` plus hierarchical
    /// `/proc2`, sharing one snapshot cache.
    pub fn standard() -> SimConfig {
        SimConfig::new().mount("/proc", MountPlan::ProcFlat).mount("/proc2", MountPlan::ProcHier)
    }

    /// Adds a mount.
    pub fn mount(mut self, path: &str, plan: MountPlan) -> SimConfig {
        self.mounts.push((path.to_string(), plan));
        self
    }

    /// Sets the scheduling quantum.
    pub fn quantum(mut self, quantum: u64) -> SimConfig {
        self.quantum = quantum;
        self
    }

    /// Sets the pump budget for blocking host calls.
    pub fn pump_limit(mut self, limit: u64) -> SimConfig {
        self.pump_limit = limit;
        self
    }

    /// Turns the execution fast path on or off.
    pub fn fast_path(mut self, on: bool) -> SimConfig {
        self.fast_path = on;
        self
    }

    /// Installs a kernel fault schedule.
    pub fn kernel_faults(mut self, seed: u64, rates: KernelFaultRates) -> SimConfig {
        self.kernel_faults = Some(KernelFaultSpec { seed, rates, targeted: false });
        self
    }

    /// Installs a kernel fault schedule whose death injection only
    /// considers controller-held targets.
    pub fn targeted_kernel_faults(mut self, seed: u64, rates: KernelFaultRates) -> SimConfig {
        self.kernel_faults = Some(KernelFaultSpec { seed, rates, targeted: true });
        self
    }

    /// Turns input recording on.
    pub fn record(mut self, on: bool) -> SimConfig {
        self.record = on;
        self
    }

    /// Sets the snapshot interval, in recorded inputs.
    pub fn snapshot_every(mut self, every: usize) -> SimConfig {
        self.snapshot_every = every;
        self
    }

    /// Seeds the gang round's deterministic commit-order permutation.
    pub fn interleave_seed(mut self, seed: u64) -> SimConfig {
        self.interleave_seed = seed;
        self
    }

    /// Folds every field into a stable little-endian byte encoding; the
    /// recording digests cover this, so replaying under a different
    /// construction config is detected as a divergence at tick 0.
    pub fn encode(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(&self.quantum.to_le_bytes());
        out.extend_from_slice(&self.pump_limit.to_le_bytes());
        out.push(self.fast_path as u8);
        match &self.kernel_faults {
            None => out.push(0),
            Some(f) => {
                out.push(1);
                out.extend_from_slice(&f.seed.to_le_bytes());
                let r = f.rates;
                for v in
                    [r.enomem, r.eagain, r.eintr, r.wakeup, r.death, r.mid_op, r.controller_death]
                {
                    out.extend_from_slice(&v.to_le_bytes());
                }
                out.push(f.targeted as u8);
            }
        }
        out.extend_from_slice(&(self.snapshot_every as u64).to_le_bytes());
        out.extend_from_slice(&(self.mounts.len() as u64).to_le_bytes());
        for (path, plan) in &self.mounts {
            out.extend_from_slice(&(path.len() as u64).to_le_bytes());
            out.extend_from_slice(path.as_bytes());
            out.push(plan.tag());
            if let MountPlan::RemoteProc(w) = plan {
                w.encode(out);
            }
        }
        out.extend_from_slice(&self.interleave_seed.to_le_bytes());
    }

    /// Parses the [`SimConfig::encode`] byte layout back into a config,
    /// advancing `r` past it. The `record` flag is not encoded (a loaded
    /// recording is always replayed with recording on), so it comes back
    /// `false`; callers turn it on themselves. Any truncation or
    /// malformed tag is a typed [`WireError`], never a panic.
    pub fn decode(r: &mut WireReader<'_>) -> Result<SimConfig, WireError> {
        let quantum = r.u64()?;
        let pump_limit = r.u64()?;
        let flag = |r: &mut WireReader<'_>| -> Result<bool, WireError> {
            match r.u8()? {
                0 => Ok(false),
                1 => Ok(true),
                _ => Err(WireError::Malformed),
            }
        };
        let fast_path = flag(r)?;
        let kernel_faults = if flag(r)? {
            let seed = r.u64()?;
            let rates = KernelFaultRates {
                enomem: r.u16()?,
                eagain: r.u16()?,
                eintr: r.u16()?,
                wakeup: r.u16()?,
                death: r.u16()?,
                mid_op: r.u16()?,
                controller_death: r.u16()?,
            };
            let targeted = flag(r)?;
            Some(KernelFaultSpec { seed, rates, targeted })
        } else {
            None
        };
        let snapshot_every = r.u64()? as usize;
        let nmounts = r.u64()?;
        if nmounts > 64 {
            return Err(WireError::Malformed);
        }
        let mut mounts = Vec::with_capacity(nmounts as usize);
        for _ in 0..nmounts {
            let plen = r.u64()? as usize;
            let path = String::from_utf8_lossy(r.take(plen)?).into_owned();
            let plan = match r.u8()? {
                0 => MountPlan::ProcFlat,
                1 => MountPlan::ProcHier,
                2 => MountPlan::RemoteProc(WireConfig::decode(r)?),
                _ => return Err(WireError::Malformed),
            };
            mounts.push((path, plan));
        }
        let interleave_seed = r.u64()?;
        Ok(SimConfig {
            quantum,
            pump_limit,
            fast_path,
            kernel_faults,
            record: false,
            snapshot_every,
            mounts,
            interleave_seed,
        })
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;

    #[test]
    fn builder_chains() {
        let cfg = SimConfig::standard()
            .quantum(128)
            .fast_path(false)
            .kernel_faults(7, KernelFaultRates::uniform(5))
            .record(true)
            .snapshot_every(16);
        assert_eq!(cfg.quantum, 128);
        assert!(!cfg.fast_path);
        assert_eq!(cfg.mounts.len(), 2);
        assert!(cfg.record);
        assert_eq!(cfg.kernel_faults.unwrap().seed, 7);
    }

    #[test]
    fn encode_decode_roundtrip() {
        let cfg = SimConfig::standard()
            .quantum(96)
            .pump_limit(4096)
            .fast_path(false)
            .targeted_kernel_faults(0xDEAD, KernelFaultRates::uniform(9))
            .snapshot_every(24)
            .mount("/procr", MountPlan::RemoteProc(WireConfig::faulty(7, Default::default())))
            .interleave_seed(0xBEEF);
        let mut bytes = Vec::new();
        cfg.encode(&mut bytes);
        let mut r = WireReader::new(&bytes);
        let back = SimConfig::decode(&mut r).expect("decodes");
        assert_eq!(r.remaining(), 0, "decode consumed exactly the encoding");
        // `record` is deliberately not carried.
        assert_eq!(back, SimConfig { record: false, ..cfg });
        // Every truncation point is a typed error, never a panic.
        for keep in 0..bytes.len() {
            let mut r = WireReader::new(&bytes[..keep]);
            assert!(SimConfig::decode(&mut r).is_err(), "cut at {keep} parsed");
        }
    }

    #[test]
    fn encoding_distinguishes_configs() {
        let mut a = Vec::new();
        let mut b = Vec::new();
        SimConfig::standard().encode(&mut a);
        SimConfig::standard().quantum(128).encode(&mut b);
        assert_ne!(a, b);
        let mut c = Vec::new();
        SimConfig::standard().encode(&mut c);
        assert_eq!(a, c);
        let mut d = Vec::new();
        SimConfig::standard().interleave_seed(5).encode(&mut d);
        assert_ne!(a, d, "the interleave seed is part of the recorded config");
    }
}
