//! The flat interface's control operations: the `PIOC*` ioctl family.
//!
//! "Information and control operations are provided through ioctl." The
//! interface distinguishes read-only operations (status inspection) from
//! read/write operations (anything that modifies process state or
//! behaviour); the latter require the descriptor to be open for writing.
//!
//! Requests have one typed face, [`Ioctl`], shared by the three places
//! that used to hand-roll their own knowledge of the family: the local
//! dispatcher ([`prioctl`]), the hierarchical interface's control batch
//! parser ([`Ioctl::from_ctl_op`]) and the remote wire codec
//! ([`wire_table`]). One encode/decode, not three. Replies decode into
//! a typed [`IoctlPayload`] via [`Ioctl::decode_reply`]. Each request's
//! number, name and read-only flag are one row of the `PIOC*` table
//! below.

use crate::ops;
use crate::snap::{self, Image, SnapHandle};
use crate::types::{PrCacheStats, PrCred, PrMap, PrStatus, PrUsage, PrWatch, PrXStats, PsInfo};
use isa::{FpregSet, GregSet};
use ksim::fault::FltSet;
use ksim::signal::SigSet;
use ksim::sysno::SysSet;
use ksim::{Kernel, Tid};
use vfs::remote::WireStats;
use vfs::{Errno, IoctlReply, Pid, SysResult};

/// Declares the `PIOC*` family from one table. Each row gives a
/// request's doc, its [`Ioctl`] variant, its `PIOC*` constant and
/// number, and whether it is `read`-only or needs `write` permission;
/// the constants, the enum, [`Ioctl::ALL`] and the number, name and
/// permission lookups are all generated from it.
macro_rules! pioc_table {
    (@needs_write read) => { false };
    (@needs_write write) => { true };
    ($($(#[$doc:meta])* $variant:ident: $name:ident = $num:expr, $access:ident;)*) => {
        $($(#[$doc])* pub const $name: u32 = $num;)*

        /// One `PIOC*` request, typed. The single source of truth for a
        /// request's number, name, write requirement, wire shape,
        /// hierarchical control-op twin and reply decoding.
        #[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
        pub enum Ioctl {
            $(#[doc = concat!("`", stringify!($name), "`")] $variant,)*
        }

        impl Ioctl {
            /// Every request, in table order.
            pub const ALL: &'static [Ioctl] = &[$(Ioctl::$variant),*];

            /// Resolves a raw request number.
            pub fn from_req(req: u32) -> Option<Ioctl> {
                match req {
                    $($name => Some(Ioctl::$variant),)*
                    _ => None,
                }
            }

            /// The raw `PIOC*` request number.
            pub fn req(self) -> u32 {
                match self {
                    $(Ioctl::$variant => $name,)*
                }
            }

            /// Symbolic name (diagnostics and `truss` decoding).
            pub fn name(self) -> &'static str {
                match self {
                    $(Ioctl::$variant => stringify!($name),)*
                }
            }

            /// True if the request modifies process state or behaviour
            /// and therefore requires a descriptor open for writing.
            /// "The former are regarded as 'read/write' operations and
            /// the latter as 'read-only.'"
            pub fn needs_write(self) -> bool {
                match self {
                    $(Ioctl::$variant => pioc_table!(@needs_write $access),)*
                }
            }
        }
    };
}

pioc_table! {
    /// Get process status (`prstatus`).
    Status: PIOCSTATUS = 0x5001, read;
    /// Direct the process to stop and wait for it; returns `prstatus`.
    Stop: PIOCSTOP = 0x5002, write;
    /// Wait for the process to stop on an event of interest; returns
    /// `prstatus`.
    WStop: PIOCWSTOP = 0x5003, read;
    /// Make the stopped process runnable (operand: `prrun`).
    Run: PIOCRUN = 0x5004, write;
    /// Define the set of traced signals (operand: `sigset`).
    SetSigTrace: PIOCSTRACE = 0x5005, write;
    /// Get the set of traced signals.
    GetSigTrace: PIOCGTRACE = 0x5006, read;
    /// Define the set of traced machine faults (operand: `fltset`).
    SetFltTrace: PIOCSFAULT = 0x5007, write;
    /// Get the set of traced machine faults.
    GetFltTrace: PIOCGFAULT = 0x5008, read;
    /// Define the set of traced system call entries (operand: `sysset`).
    SetEntryTrace: PIOCSENTRY = 0x5009, write;
    /// Get the traced entry set.
    GetEntryTrace: PIOCGENTRY = 0x500A, read;
    /// Define the set of traced system call exits (operand: `sysset`).
    SetExitTrace: PIOCSEXIT = 0x500B, write;
    /// Get the traced exit set.
    GetExitTrace: PIOCGEXIT = 0x500C, read;
    /// Get the general registers.
    GetRegs: PIOCGREG = 0x500D, read;
    /// Set the general registers (process must be stopped).
    SetRegs: PIOCSREG = 0x500E, write;
    /// Get the floating-point registers.
    GetFpRegs: PIOCGFPREG = 0x500F, read;
    /// Set the floating-point registers (process must be stopped).
    SetFpRegs: PIOCSFPREG = 0x5010, write;
    /// Number of mappings in the address space.
    NMap: PIOCNMAP = 0x5011, read;
    /// Get the address map (array of `prmap`).
    Map: PIOCMAP = 0x5012, read;
    /// Open the object mapped at a virtual address (operand: `u64` vaddr;
    /// returns a descriptor number).
    OpenMapped: PIOCOPENM = 0x5013, read;
    /// Get credentials (`prcred`).
    GetCred: PIOCCRED = 0x5014, read;
    /// Get supplementary groups (array of `u32`).
    Groups: PIOCGROUPS = 0x5015, read;
    /// Get the kernel `proc` structure (deprecated; implementation-revealing
    /// by design — "their very existence reveals details of system
    /// implementation").
    GetProc: PIOCGETPR = 0x5016, read;
    /// Get the user area (deprecated, as above).
    GetUArea: PIOCGETU = 0x5017, read;
    /// Get the `ps` snapshot (`psinfo`).
    GetPsInfo: PIOCPSINFO = 0x5018, read;
    /// Post a signal (operand: `u32`).
    Kill: PIOCKILL = 0x5019, write;
    /// Delete a pending signal (operand: `u32`).
    UnKill: PIOCUNKILL = 0x501A, write;
    /// Set or clear the current signal (operand: `u32`, 0 clears).
    SetSig: PIOCSSIG = 0x501B, write;
    /// Set the held-signal mask (operand: `sigset`).
    SetHold: PIOCSHOLD = 0x501C, write;
    /// Get the held-signal mask.
    GetHold: PIOCGHOLD = 0x501D, read;
    /// Set inherit-on-fork.
    SetForkInherit: PIOCSFORK = 0x501E, write;
    /// Clear inherit-on-fork.
    ClearForkInherit: PIOCRFORK = 0x501F, write;
    /// Set run-on-last-close.
    SetRunOnLastClose: PIOCSRLC = 0x5020, write;
    /// Clear run-on-last-close.
    ClearRunOnLastClose: PIOCRRLC = 0x5021, write;
    /// Add (or, with size 0, remove) a watched area (operand: `prwatch`).
    SetWatch: PIOCSWATCH = 0x5022, write;
    /// Get the watched areas (array of `prwatch`).
    GetWatch: PIOCGWATCH = 0x5023, read;
    /// Get resource usage (`prusage`) — proposed extension.
    Usage: PIOCUSAGE = 0x5024, read;
    /// Adjust priority (operand: `i32`).
    Nice: PIOCNICE = 0x5025, write;
    /// Get snapshot-cache counters (`prcachestats`). Answered by the file
    /// system layer, not `prioctl`: the cache lives above the kernel.
    CacheStats: PIOCCACHESTATS = 0x5026, read;
    /// Get kernel fault-injection counters (`KFaultStats`). Answered by
    /// `prioctl` — the fault plan lives on the kernel — so the reply crosses
    /// the remote wire like any other status request.
    KFaultStats: PIOCKFAULTSTATS = 0x5027, read;
    /// Get execution fast-path counters (`prxstats`): software-TLB
    /// hits/misses/invalidations, superblock counts and retired
    /// instructions. Answered by `prioctl` — the caches live on the
    /// address space and LWPs — so the reply crosses the remote wire.
    XStats: PIOCXSTATS = 0x5028, read;
    /// Get remote-wire traffic/fault/recovery counters (`WireStats`).
    /// Answered locally by the [`vfs::remote::RemoteFs`] client shim — the
    /// counters live on the near side of the wire, so the request never
    /// crosses it. The number belongs to [`vfs::remote`]; it is named
    /// here so flat tooling can issue it alongside the other requests.
    WireCounters: PIOCWIRESTATS = vfs::remote::PIOCWIRESTATS, read;
    /// Get record/replay counters (`RecStats`): inputs logged, snapshots
    /// taken, bytes digested, replays applied, divergences detected.
    /// Answered by `prioctl` — the recorder lives on the kernel. The
    /// number belongs to [`ksim::record`], whose digest folds only the
    /// reply's status and length.
    RecStats: PIOCRECSTATS = ksim::record::PIOCRECSTATS, read;
    /// Checkpoint the stopped target into a self-describing image
    /// (registers, identity, held mask, sparse address-space content).
    /// Read-only: it inspects, never modifies. The reply is the image.
    Ckpt: PIOCCKPT = 0x502A, read;
    /// Restore a checkpoint image (the operand) into the stopped target,
    /// replacing its registers, identity and entire address space —
    /// migration when the image came from another mount.
    Restore: PIOCRESTORE = 0x502B, write;
    /// Live-migration sub-operation (BEGIN/CHUNK/COMMIT/ABORT multiplexed
    /// by the operand's first byte): stream a checkpoint image into the
    /// destination kernel chunk by chunk and materialise it into the target
    /// at COMMIT after an end-to-end digest check. Issued against the
    /// *destination's* placeholder process, usually over the remote mount.
    Migrate: PIOCMIGRATE = 0x502C, write;
    /// Get migration protocol counters (`MigStats`): transfers begun,
    /// chunks/bytes accepted, duplicates absorbed, commits, aborts, digest
    /// mismatches, resumes. Answered by `prioctl` on the destination.
    MigStats: PIOCMIGSTATS = 0x502D, read;
}

/// One decoded counter family. Every stats-style `PIOC*` reply decodes
/// into this single type, so tools render any family uniformly. Each
/// family is declared once with [`vfs::counters!`], which supplies its
/// wire codec and the names and values [`StatsReport::counters`] zips.
#[derive(Clone, Debug, PartialEq)]
pub enum StatsReport {
    /// Snapshot-cache counters (`PIOCCACHESTATS`).
    Cache(PrCacheStats),
    /// Kernel fault-injection counters (`PIOCKFAULTSTATS`).
    KernelFaults(ksim::kfault::KFaultStats),
    /// Execution fast-path counters (`PIOCXSTATS`).
    Exec(PrXStats),
    /// Remote-wire counters (`PIOCWIRESTATS`).
    Wire(WireStats),
    /// Record/replay counters (`PIOCRECSTATS`).
    Recorder(ksim::RecStats),
    /// Migration protocol counters (`PIOCMIGSTATS`).
    Migrate(ksim::MigStats),
}

impl StatsReport {
    /// Short family name, for uniform display.
    pub fn family(&self) -> &'static str {
        match self {
            StatsReport::Cache(_) => "cache",
            StatsReport::KernelFaults(_) => "kfault",
            StatsReport::Exec(_) => "exec",
            StatsReport::Wire(_) => "wire",
            StatsReport::Recorder(_) => "recorder",
            StatsReport::Migrate(_) => "migrate",
        }
    }

    /// Every counter as a `(name, value)` pair, in wire order — the one
    /// flattening tools print from, whatever the family.
    pub fn counters(&self) -> Vec<(&'static str, u64)> {
        fn zip(names: &[&'static str], values: &[u64]) -> Vec<(&'static str, u64)> {
            names.iter().copied().zip(values.iter().copied()).collect()
        }
        match self {
            StatsReport::Cache(c) => zip(PrCacheStats::NAMES, &c.values()),
            StatsReport::KernelFaults(f) => zip(ksim::kfault::KFaultStats::NAMES, &f.values()),
            StatsReport::Exec(x) => zip(PrXStats::NAMES, &x.values()),
            StatsReport::Wire(w) => zip(WireStats::NAMES, &w.values()),
            StatsReport::Recorder(r) => zip(ksim::RecStats::NAMES, &r.values()),
            StatsReport::Migrate(m) => zip(ksim::MigStats::NAMES, &m.values()),
        }
    }

    /// Uniform one-line-per-counter rendering: `family.name value`.
    pub fn render(&self) -> String {
        let fam = self.family();
        let mut out = String::new();
        for (name, value) in self.counters() {
            out.push_str(fam);
            out.push('.');
            out.push_str(name);
            out.push(' ');
            out.push_str(&value.to_string());
            out.push('\n');
        }
        out
    }
}

/// A decoded `PIOC*` reply: what the raw bytes mean for each request.
#[derive(Clone, Debug, PartialEq)]
pub enum IoctlPayload {
    /// No payload (set-style requests acknowledge with empty bytes).
    Unit,
    /// A `prstatus` image.
    Status(PrStatus),
    /// A signal set.
    SigSet(SigSet),
    /// A fault set.
    FltSet(FltSet),
    /// A system-call set.
    SysSet(SysSet),
    /// General registers.
    Gregs(GregSet),
    /// Floating-point registers.
    Fpregs(FpregSet),
    /// A bare count (`PIOCNMAP`, `PIOCSWATCH`).
    Count(u64),
    /// A descriptor number (`PIOCOPENM`).
    Fd(u64),
    /// The address map.
    Maps(Vec<PrMap>),
    /// Credentials.
    Cred(PrCred),
    /// Supplementary groups.
    Groups(Vec<u32>),
    /// The `ps` snapshot.
    PsInfo(PsInfo),
    /// Watched areas.
    Watches(Vec<PrWatch>),
    /// Resource usage.
    Usage(PrUsage),
    /// A counter family — all six stats requests decode through this
    /// one arm.
    Stats(StatsReport),
    /// A checkpoint image (`PIOCCKPT`).
    Image(Vec<u8>),
    /// An implementation dump (`PIOCGETPR`/`PIOCGETU`, deprecated).
    Text(String),
}

impl Ioctl {
    /// Wire sizes of the request's operand, for the remote (RFS) shim —
    /// exactly the per-request knowledge the paper complains `ioctl`
    /// needs. Returns `(in_len, max_out_len)`; `None` for requests that
    /// cannot cross a wire.
    pub fn wire_spec(self) -> Option<(usize, usize)> {
        Some(match self {
            Ioctl::Status | Ioctl::Stop | Ioctl::WStop => (0, PrStatus::WIRE_LEN),
            Ioctl::Run => (crate::types::PrRun::WIRE_LEN, 0),
            Ioctl::SetSigTrace | Ioctl::SetHold => (SigSet::WIRE_LEN, 0),
            Ioctl::GetSigTrace | Ioctl::GetHold => (0, SigSet::WIRE_LEN),
            Ioctl::SetFltTrace => (SigSet::WIRE_LEN, 0),
            Ioctl::GetFltTrace => (0, SigSet::WIRE_LEN),
            Ioctl::SetEntryTrace | Ioctl::SetExitTrace => (SysSet::WIRE_LEN, 0),
            Ioctl::GetEntryTrace | Ioctl::GetExitTrace => (0, SysSet::WIRE_LEN),
            Ioctl::GetRegs => (0, GregSet::WIRE_LEN),
            Ioctl::SetRegs => (GregSet::WIRE_LEN, 0),
            Ioctl::GetFpRegs => (0, FpregSet::WIRE_LEN),
            Ioctl::SetFpRegs => (FpregSet::WIRE_LEN, 0),
            Ioctl::NMap => (0, 8),
            Ioctl::Map => (0, 256 * PrMap::WIRE_LEN),
            Ioctl::OpenMapped => (8, 8),
            Ioctl::GetCred => (0, PrCred::WIRE_LEN),
            Ioctl::Groups => (0, 64 * 4),
            Ioctl::GetPsInfo => (0, PsInfo::WIRE_LEN),
            Ioctl::Kill | Ioctl::UnKill | Ioctl::SetSig | Ioctl::Nice => (4, 0),
            Ioctl::SetForkInherit
            | Ioctl::ClearForkInherit
            | Ioctl::SetRunOnLastClose
            | Ioctl::ClearRunOnLastClose => (0, 0),
            Ioctl::SetWatch => (PrWatch::WIRE_LEN, 8),
            Ioctl::GetWatch => (0, 64 * PrWatch::WIRE_LEN),
            Ioctl::Usage => (0, PrUsage::WIRE_LEN),
            Ioctl::CacheStats => (0, PrCacheStats::WIRE_LEN),
            Ioctl::KFaultStats => (0, ksim::kfault::KFaultStats::WIRE_LEN),
            Ioctl::XStats => (0, PrXStats::WIRE_LEN),
            Ioctl::RecStats => (0, ksim::RecStats::WIRE_LEN),
            // Checkpoint images are variable-sized: the spec's lengths
            // are maxima (the wire gate rejects anything beyond them),
            // bounded so the frames fit under the default queue caps.
            Ioctl::Ckpt => (0, ksim::ckpt::CKPT_MAX),
            Ioctl::Restore => (ksim::ckpt::CKPT_MAX, 0),
            // Migration sub-ops carry at most one chunk plus a fixed
            // header; the reply is a fixed status/offset record.
            Ioctl::Migrate => (ksim::migrate::MIG_CHUNK_MAX + 32, ksim::migrate::MIG_REPLY_LEN),
            Ioctl::MigStats => (0, ksim::MigStats::WIRE_LEN),
            // PIOCGETPR / PIOCGETU are variable-sized implementation
            // dumps — precisely the kind of operation that cannot cross
            // a wire. PIOCWIRESTATS never crosses either: it is
            // answered by the near side.
            Ioctl::GetProc | Ioctl::GetUArea | Ioctl::WireCounters => return None,
        })
    }

    /// Resolves the hierarchical interface's `PC*` control-op twin, for
    /// the ctl batch parser. `PCDSTOP` has no flat twin (stop without
    /// waiting exists only in the write-based interface) and is handled
    /// by the hier layer itself.
    pub fn from_ctl_op(op: u32) -> Option<Ioctl> {
        use crate::hier;
        Some(match op {
            hier::PCSTOP => Ioctl::Stop,
            hier::PCWSTOP => Ioctl::WStop,
            hier::PCRUN => Ioctl::Run,
            hier::PCSTRACE => Ioctl::SetSigTrace,
            hier::PCSFAULT => Ioctl::SetFltTrace,
            hier::PCSENTRY => Ioctl::SetEntryTrace,
            hier::PCSEXIT => Ioctl::SetExitTrace,
            hier::PCKILL => Ioctl::Kill,
            hier::PCUNKILL => Ioctl::UnKill,
            hier::PCSSIG => Ioctl::SetSig,
            hier::PCSHOLD => Ioctl::SetHold,
            hier::PCSREG => Ioctl::SetRegs,
            hier::PCSFPREG => Ioctl::SetFpRegs,
            hier::PCSFORK => Ioctl::SetForkInherit,
            hier::PCRFORK => Ioctl::ClearForkInherit,
            hier::PCSRLC => Ioctl::SetRunOnLastClose,
            hier::PCRRLC => Ioctl::ClearRunOnLastClose,
            hier::PCWATCH => Ioctl::SetWatch,
            hier::PCNICE => Ioctl::Nice,
            _ => return None,
        })
    }

    /// Decodes a raw reply into its typed payload. Damaged or
    /// short images are rejected with `EIO` — the same discipline as
    /// the wire layer, never a misparse.
    pub fn decode_reply(self, bytes: &[u8]) -> SysResult<IoctlPayload> {
        let bad = Errno::EIO;
        Ok(match self {
            Ioctl::Status | Ioctl::Stop | Ioctl::WStop => {
                IoctlPayload::Status(PrStatus::from_bytes(bytes).ok_or(bad)?)
            }
            Ioctl::GetSigTrace | Ioctl::SetHold | Ioctl::GetHold => {
                IoctlPayload::SigSet(SigSet::from_bytes(bytes).ok_or(bad)?)
            }
            Ioctl::GetFltTrace => IoctlPayload::FltSet(FltSet::from_bytes(bytes).ok_or(bad)?),
            Ioctl::GetEntryTrace | Ioctl::GetExitTrace => {
                IoctlPayload::SysSet(SysSet::from_bytes(bytes).ok_or(bad)?)
            }
            Ioctl::GetRegs => IoctlPayload::Gregs(GregSet::from_bytes(bytes).ok_or(bad)?),
            Ioctl::GetFpRegs => IoctlPayload::Fpregs(FpregSet::from_bytes(bytes).ok_or(bad)?),
            Ioctl::NMap | Ioctl::SetWatch => {
                let arr: [u8; 8] = bytes.get(..8).and_then(|s| s.try_into().ok()).ok_or(bad)?;
                IoctlPayload::Count(u64::from_le_bytes(arr))
            }
            Ioctl::OpenMapped => {
                let arr: [u8; 8] = bytes.get(..8).and_then(|s| s.try_into().ok()).ok_or(bad)?;
                IoctlPayload::Fd(u64::from_le_bytes(arr))
            }
            Ioctl::Map => {
                let mut maps = Vec::with_capacity(bytes.len() / PrMap::WIRE_LEN);
                for chunk in bytes.chunks_exact(PrMap::WIRE_LEN) {
                    maps.push(PrMap::from_bytes(chunk).ok_or(bad)?);
                }
                IoctlPayload::Maps(maps)
            }
            Ioctl::GetCred => IoctlPayload::Cred(PrCred::from_bytes(bytes).ok_or(bad)?),
            Ioctl::Groups => {
                let mut groups = Vec::with_capacity(bytes.len() / 4);
                for chunk in bytes.chunks_exact(4) {
                    let arr: [u8; 4] = chunk.try_into().map_err(|_| bad)?;
                    groups.push(u32::from_le_bytes(arr));
                }
                IoctlPayload::Groups(groups)
            }
            Ioctl::GetPsInfo => IoctlPayload::PsInfo(PsInfo::from_bytes(bytes).ok_or(bad)?),
            Ioctl::GetWatch => {
                let mut ws = Vec::with_capacity(bytes.len() / PrWatch::WIRE_LEN);
                for chunk in bytes.chunks_exact(PrWatch::WIRE_LEN) {
                    ws.push(PrWatch::from_bytes(chunk).ok_or(bad)?);
                }
                IoctlPayload::Watches(ws)
            }
            Ioctl::Usage => IoctlPayload::Usage(PrUsage::from_bytes(bytes).ok_or(bad)?),
            Ioctl::CacheStats => {
                IoctlPayload::Stats(StatsReport::Cache(PrCacheStats::from_bytes(bytes).ok_or(bad)?))
            }
            Ioctl::KFaultStats => IoctlPayload::Stats(StatsReport::KernelFaults(
                ksim::kfault::KFaultStats::from_bytes(bytes).ok_or(bad)?,
            )),
            Ioctl::XStats => {
                IoctlPayload::Stats(StatsReport::Exec(PrXStats::from_bytes(bytes).ok_or(bad)?))
            }
            Ioctl::WireCounters => {
                IoctlPayload::Stats(StatsReport::Wire(WireStats::from_bytes(bytes).ok_or(bad)?))
            }
            Ioctl::RecStats => IoctlPayload::Stats(StatsReport::Recorder(
                ksim::RecStats::from_bytes(bytes).ok_or(bad)?,
            )),
            Ioctl::MigStats => IoctlPayload::Stats(StatsReport::Migrate(
                ksim::MigStats::from_bytes(bytes).ok_or(bad)?,
            )),
            Ioctl::Ckpt => IoctlPayload::Image(bytes.to_vec()),
            Ioctl::GetProc | Ioctl::GetUArea => {
                IoctlPayload::Text(String::from_utf8_lossy(bytes).into_owned())
            }
            _ => IoctlPayload::Unit,
        })
    }
}

/// True if the request modifies process state (see
/// [`Ioctl::needs_write`]); unknown requests conservatively require
/// write permission.
pub fn needs_write(req: u32) -> bool {
    Ioctl::from_req(req).is_none_or(Ioctl::needs_write)
}

/// Wire sizes of each request's operand (see [`Ioctl::wire_spec`]).
pub fn wire_spec(req: u32) -> Option<(usize, usize)> {
    Ioctl::from_req(req).and_then(Ioctl::wire_spec)
}

/// The shared ioctl wire table for remote mounts: one closure built from
/// the typed enum, replacing the per-call-site copies that used to be
/// hand-rolled wherever a `RemoteFs` was constructed.
pub fn wire_table() -> vfs::remote::IoctlTable {
    Box::new(|req| {
        wire_spec(req).map(|(i, o)| vfs::remote::IoctlWireSpec { in_len: i, out_len: o })
    })
}

/// Symbolic name of a request (diagnostics and `truss` decoding).
pub fn req_name(req: u32) -> &'static str {
    Ioctl::from_req(req).map_or("PIOC???", Ioctl::name)
}

/// The one control dispatcher: answers request `ioc` against the target
/// process, or against its LWP `tid` when one is given (the flat face
/// always passes `None`; a `/proc2/<pid>/lwp/<tid>/ctl` record passes
/// the LWP). `caller` is the process issuing the request (its
/// descriptor table receives `PIOCOPENM` results); the five cacheable
/// images are served through `cache`.
pub fn prioctl(
    k: &mut Kernel,
    cache: &SnapHandle,
    caller: Pid,
    target: Pid,
    tid: Option<Tid>,
    ioc: Ioctl,
    arg: &[u8],
) -> SysResult<IoctlReply> {
    let done = |bytes: Vec<u8>| Ok(IoctlReply::Done(bytes));
    let unit = |r: SysResult<()>| r.map(|()| IoctlReply::Done(Vec::new()));
    let cached = |k: &Kernel, img: Image| {
        snap::lock(cache).serve(k, target, img, Tid(0), |b| IoctlReply::Done(b.to_vec()))
    };
    match ioc {
        Ioctl::Status => cached(k, Image::Status),
        Ioctl::GetPsInfo => cached(k, Image::PsInfo),
        Ioctl::Map => cached(k, Image::Map),
        Ioctl::GetCred => cached(k, Image::Cred),
        Ioctl::Usage => cached(k, Image::Usage),
        Ioctl::Stop | Ioctl::WStop => {
            if ops::stop_satisfied(k, target, tid, ioc == Ioctl::Stop)? {
                done(ops::status_bytes(k, target, tid)?)
            } else {
                Ok(IoctlReply::Block)
            }
        }
        Ioctl::Run => unit(ops::run(k, target, tid, arg)),
        Ioctl::SetSigTrace => unit(ops::set_sig_trace(k, target, arg)),
        Ioctl::GetSigTrace => done(k.proc(target)?.trace.sig_trace.to_bytes()),
        Ioctl::SetFltTrace => unit(ops::set_flt_trace(k, target, arg)),
        Ioctl::GetFltTrace => done(k.proc(target)?.trace.flt_trace.to_bytes()),
        Ioctl::SetEntryTrace => unit(ops::set_entry_trace(k, target, arg)),
        Ioctl::GetEntryTrace => done(k.proc(target)?.trace.entry_trace.to_bytes()),
        Ioctl::SetExitTrace => unit(ops::set_exit_trace(k, target, arg)),
        Ioctl::GetExitTrace => done(k.proc(target)?.trace.exit_trace.to_bytes()),
        Ioctl::GetRegs => {
            ops::live(k, target)?;
            done(ops::lwp(k, target, tid)?.gregs.to_bytes())
        }
        Ioctl::SetRegs => unit(ops::set_regs(k, target, tid, arg)),
        Ioctl::GetFpRegs => {
            ops::live(k, target)?;
            done(ops::lwp(k, target, tid)?.fpregs.to_bytes())
        }
        Ioctl::SetFpRegs => unit(ops::set_fpregs(k, target, tid, arg)),
        Ioctl::NMap => {
            let n = PrMap::capture_all(k, target)?.len() as u64;
            done(n.to_le_bytes().to_vec())
        }
        Ioctl::OpenMapped => {
            let fd = ops::open_mapped(k, caller, target, arg)?;
            done(fd.to_le_bytes().to_vec())
        }
        Ioctl::Groups => {
            let groups = &k.proc(target)?.cred.groups;
            done(groups.iter().flat_map(|g| g.to_le_bytes()).collect())
        }
        Ioctl::GetProc => {
            // Deprecated on purpose: a raw dump of the internal process
            // structure, tied to this very implementation.
            let dump = format!("{:?}", k.proc(target)?);
            done(dump.into_bytes())
        }
        Ioctl::GetUArea => {
            let proc = k.proc(target)?;
            let dump = format!(
                "uarea {{ fds: {}, cwd: {:?}, umask: {:#o}, lwps: {:?} }}",
                proc.fds.count(),
                proc.cwd,
                proc.umask,
                proc.lwps.iter().map(|l| l.tid.0).collect::<Vec<_>>(),
            );
            done(dump.into_bytes())
        }
        Ioctl::Kill => unit(ops::kill(k, target, arg)),
        Ioctl::UnKill => unit(ops::unkill(k, target, arg)),
        Ioctl::SetSig => unit(ops::set_sig(k, target, tid, arg)),
        Ioctl::SetHold => unit(ops::set_hold(k, target, tid, arg)),
        Ioctl::GetHold => {
            ops::live(k, target)?;
            done(ops::lwp(k, target, tid)?.held.to_bytes())
        }
        Ioctl::SetForkInherit | Ioctl::ClearForkInherit => {
            ops::live(k, target)?;
            k.proc_mut(target)?.trace.inherit_on_fork = ioc == Ioctl::SetForkInherit;
            done(Vec::new())
        }
        Ioctl::SetRunOnLastClose | Ioctl::ClearRunOnLastClose => {
            ops::live(k, target)?;
            k.proc_mut(target)?.trace.run_on_last_close = ioc == Ioctl::SetRunOnLastClose;
            done(Vec::new())
        }
        Ioctl::SetWatch => {
            let n = ops::watch(k, target, arg)?;
            done(n.to_le_bytes().to_vec())
        }
        Ioctl::GetWatch => {
            ops::live(k, target)?;
            let proc = k.proc(target)?;
            let mut out = Vec::new();
            for w in &proc.aspace.watchpoints {
                out.extend_from_slice(
                    &PrWatch { vaddr: w.base, size: w.len, flags: w.flags.to_bits() }.to_bytes(),
                );
            }
            done(out)
        }
        Ioctl::Nice => unit(ops::nice(k, target, arg)),
        // The cache lives above the kernel, in the file-system layer.
        Ioctl::CacheStats => done(snap::lock(cache).stats().to_bytes()),
        // The fault plan lives on the kernel, so this one crosses the
        // remote wire to reach the server's kernel.
        Ioctl::KFaultStats => done(k.kfault_stats().to_bytes()),
        // Likewise kernel-resident: the TLB lives on the target's
        // address space and the superblocks on its LWPs.
        Ioctl::XStats => done(PrXStats::capture(k, target)?.to_bytes()),
        // Kernel-resident too: the recorder hangs off the kernel, so a
        // remote mount reads the *server's* recording counters.
        Ioctl::RecStats => done(k.rec_stats().to_bytes()),
        Ioctl::Ckpt => done(ksim::ckpt::checkpoint(k, target)?),
        Ioctl::Restore => unit(ksim::ckpt::restore(k, target, arg)),
        // The destination half of a migration: sub-op multiplexed by the
        // operand, materialising into `target` at COMMIT.
        Ioctl::Migrate => done(ksim::migrate::handle(k, target, arg)?),
        Ioctl::MigStats => done(k.mig_stats.to_bytes()),
        // Answered on the client side of the wire.
        Ioctl::WireCounters => Err(Errno::ENOTTY),
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;
    use ksim::kfault::KFaultStats;
    use ksim::{MigStats, RecStats};

    /// Pins one family's wire layout and rendering against its field
    /// list, written out as literals in wire order: the k-th field is the
    /// little-endian word at offset 8k, only an exact-length image
    /// decodes, and `StatsReport::counters` lists every field in order.
    macro_rules! pin_family {
        ($variant:ident($ty:ident), $wire_len:expr, [$($field:ident),* $(,)?]) => {{
            let names: &[&str] = &[$(stringify!($field)),*];
            assert_eq!($ty::NAMES, names);
            assert_eq!($ty::WIRE_LEN, $wire_len);
            let mut k = 0;
            let value = $ty { $($field: { k += 1; k },)* };
            let bytes = value.to_bytes();
            assert_eq!(bytes.len(), $wire_len);
            for (i, word) in bytes.chunks_exact(8).enumerate() {
                assert_eq!(u64::from_le_bytes(word.try_into().unwrap()), i as u64 + 1);
            }
            assert_eq!($ty::from_bytes(&bytes), Some(value));
            assert_eq!($ty::from_bytes(&bytes[1..]), None);
            let mut long = bytes.clone();
            long.push(0);
            assert_eq!($ty::from_bytes(&long), None);
            let counters = StatsReport::$variant(value).counters();
            assert_eq!(counters.len() * 8, $ty::WIRE_LEN, "{} drops a counter", stringify!($ty));
            let expected: Vec<(&str, u64)> = names.iter().copied().zip(1..).collect();
            assert_eq!(counters, expected);
        }};
    }

    #[test]
    fn counter_families_are_pinned() {
        pin_family!(Cache(PrCacheStats), 32, [hits, misses, invalidations, entries]);
        pin_family!(
            Exec(PrXStats),
            144,
            [
                enabled,
                tlb_hits,
                tlb_misses,
                tlb_invalidations,
                icache_hits,
                icache_misses,
                icache_invalidations,
                insns,
                tlb_frame_hits,
                page_epoch_bumps,
                sblock_built,
                sblock_dispatched,
                sblock_insns,
                sblock_exit_end,
                sblock_exit_side,
                sblock_exit_trap,
                sblock_exit_budget,
                sblock_stale,
            ]
        );
        pin_family!(
            KernelFaults(KFaultStats),
            64,
            [
                enomem_vm,
                eagain_fork,
                eagain_spawn,
                eintr_wait,
                spurious_wakeups,
                deaths,
                deaths_mid_op,
                controller_deaths,
            ]
        );
        pin_family!(
            Wire(WireStats),
            192,
            [
                ops,
                bytes_sent,
                bytes_received,
                unsupported_ioctls,
                frames_sent,
                drops,
                truncations,
                bitflips,
                duplicates,
                delays,
                checksum_rejects,
                retries,
                dedup_hits,
                timeouts,
                sessions_opened,
                sessions_evicted,
                frames_shed,
                in_queue_hwm,
                out_queue_hwm,
                churn_events,
                resync_bytes,
                stale_replays,
                eagain_rejected,
                floods,
            ]
        );
        pin_family!(
            Recorder(RecStats),
            96,
            [
                inputs,
                steps,
                bytes_logged,
                snapshots,
                replays,
                divergences,
                restores,
                ckpts,
                file_saves,
                file_loads,
                file_bytes,
                file_errors,
            ]
        );
        pin_family!(
            Migrate(MigStats),
            64,
            [begins, chunks, bytes, dup_chunks, commits, aborts, digest_mismatches, resumes]
        );
    }

    #[test]
    fn request_table_is_pinned() {
        assert_eq!(Ioctl::ALL.len(), 46);
        let mut names = std::collections::HashSet::new();
        for &ioc in Ioctl::ALL {
            assert_eq!(Ioctl::from_req(ioc.req()), Some(ioc));
            assert!(names.insert(ioc.name()), "{} named twice", ioc.name());
            assert_eq!(req_name(ioc.req()), ioc.name());
        }
        // The requests a read-only descriptor may issue: the permission
        // gate of the flat file system.
        let read_only = [
            Ioctl::Status,
            Ioctl::WStop,
            Ioctl::GetSigTrace,
            Ioctl::GetFltTrace,
            Ioctl::GetEntryTrace,
            Ioctl::GetExitTrace,
            Ioctl::GetRegs,
            Ioctl::GetFpRegs,
            Ioctl::NMap,
            Ioctl::Map,
            Ioctl::OpenMapped,
            Ioctl::GetCred,
            Ioctl::Groups,
            Ioctl::GetProc,
            Ioctl::GetUArea,
            Ioctl::GetPsInfo,
            Ioctl::GetHold,
            Ioctl::GetWatch,
            Ioctl::Usage,
            Ioctl::CacheStats,
            Ioctl::KFaultStats,
            Ioctl::XStats,
            Ioctl::WireCounters,
            Ioctl::RecStats,
            Ioctl::Ckpt,
            Ioctl::MigStats,
        ];
        let gated: Vec<Ioctl> = Ioctl::ALL.iter().copied().filter(|i| !i.needs_write()).collect();
        assert_eq!(gated, read_only);
        assert!(needs_write(0x5FFF), "unknown requests need write");
    }
}
