//! Deterministic record/replay: the input log that makes a run.
//!
//! The whole simulation is deterministic — same seed, same operation
//! sequence, same transcript (the 32-seed oracles of PRs 2–7 are built
//! on exactly that). So a run *is* its input history: the construction
//! [`SimConfig`] plus every nondeterministic input crossing the host
//! boundary (file installs, spawns, host-level system calls, public
//! scheduler steps). [`Recorder`] captures that history as it happens;
//! replaying it through the same public API re-materializes the run at
//! any position.
//!
//! ## Recording format
//!
//! A [`Recording`] is the construction config plus a vector of
//! [`Record`]s. Each record is one [`Input`] — one host-boundary call —
//! plus a 64-bit FNV-1a digest folded over three things:
//!
//! 1. the input's stable little-endian encoding ([`Input::encode`]),
//! 2. the encoded *result* the call returned (bytes read, fd numbers,
//!    errnos, poll bits — everything the caller observed), and
//! 3. the kernel clock after the call.
//!
//! Consecutive public [`crate::System::step`] calls coalesce into one
//! `Steps` record (up to [`STEPS_COALESCE_MAX`]), folding each step's
//! progress bit and post-step clock into the running digest, so pure
//! execution is logged in O(1) space per scheduling burst.
//!
//! Replay re-executes each input through the public API with a fresh
//! recorder attached; the re-computed digest must equal the recorded
//! one, record by record. The first mismatch is a typed
//! [`ReplayDivergence`] naming the exact virtual tick (= record index),
//! so a corrupted log or a non-reproduced schedule is caught at the
//! point of divergence, never silently drifted past.
//!
//! ## Snapshot policy
//!
//! Every [`SimConfig::snapshot_every`] records, the recorder stores a
//! copy-on-write snapshot: a deep [`Kernel`] clone (page frames are
//! `Arc`-shared [`vm::PageFrame`]s — PR 5–6's COW machinery makes the
//! clone cheap and lazily materialized) plus a clone of the root memfs.
//! Per-LWP decode caches are derived state and cost nothing until used:
//! an LWP that never took a guest image (every hosted controller) owns
//! no cache table, so its clone copies none. A snapshot at position `p` is
//! the machine state after applying the first `p` records;
//! `goto`-style navigation restores the nearest snapshot at or below
//! the target and replays the remainder.
//!
//! Snapshots are immutable once taken and banked as `Arc<Snap>`: a
//! system re-materialized from the snapshot at `p` shares the bank up
//! to and including `p` with the system it came from, since both have
//! the same history that far. Navigating again from it resumes from a
//! banked state rather than recomputing one.
//!
//! `PIOCRECSTATS` replies with these counters, which describe the host's
//! own replay machinery (`replays`, `restores`, the `file_*` counters)
//! and so cannot be reproduced by any replay: the digest of a recorded
//! `PIOCRECSTATS` folds only the reply's status and length.

use std::sync::Arc;

use crate::config::SimConfig;
use crate::kernel::Kernel;
use vfs::{Cred, OFlags, PollStatus, SysResult};

/// The `/proc` request that reads the recorder's counters ([`RecStats`]).
/// It belongs to the recorder because the digest treats its reply
/// specially (see the module docs); the flat interface's `PIOC*` table
/// names it.
pub const PIOCRECSTATS: u32 = 0x5029;

/// Maximum public `step()` calls coalesced into one `Steps` record.
/// Bounds how far apart snapshot opportunities can drift during long
/// free-running bursts while keeping the log compact.
pub const STEPS_COALESCE_MAX: u64 = 1024;

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x1_0000_01b3;

/// Folds `bytes` into an FNV-1a digest.
fn fnv_fold(mut h: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(FNV_PRIME);
    }
    h
}

/// FNV-1a digest of `bytes` from the standard offset basis — the same
/// fold the recording digests use. Exposed so the migration protocol and
/// the on-disk recording format can stamp payloads with a digest the
/// receiving side recomputes identically.
pub fn fnv(bytes: &[u8]) -> u64 {
    fnv_fold(FNV_OFFSET, bytes)
}

/// One nondeterministic input to a run: a host-boundary call with
/// everything needed to re-issue it.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Input {
    /// `System::install_aout` / `install_program` (stored post-assembly,
    /// so replay needs no assembler).
    InstallFile {
        /// Absolute path in the root file system.
        path: String,
        /// File mode bits.
        mode: u16,
        /// Serialized a.out image (or raw file content).
        bytes: Vec<u8>,
    },
    /// `System::install_dir`.
    InstallDir {
        /// Absolute path.
        path: String,
        /// Directory mode bits.
        mode: u16,
    },
    /// `System::spawn_hosted`.
    SpawnHosted {
        /// Process name.
        name: String,
        /// Credentials.
        cred: Cred,
    },
    /// `System::spawn_program`.
    SpawnProgram {
        /// Parent pid.
        parent: u32,
        /// Executable path.
        path: String,
        /// Argument vector.
        argv: Vec<String>,
    },
    /// A burst of public `System::step` calls.
    Steps {
        /// Number of coalesced steps.
        n: u64,
    },
    /// `System::host_open`.
    HostOpen {
        /// Calling pid.
        pid: u32,
        /// Path opened.
        path: String,
        /// Open flags.
        flags: OFlags,
    },
    /// `System::host_close`.
    HostClose {
        /// Calling pid.
        pid: u32,
        /// Descriptor.
        fd: u32,
    },
    /// `System::host_read`.
    HostRead {
        /// Calling pid.
        pid: u32,
        /// Descriptor.
        fd: u32,
        /// Buffer length requested.
        len: u32,
    },
    /// `System::host_write`.
    HostWrite {
        /// Calling pid.
        pid: u32,
        /// Descriptor.
        fd: u32,
        /// Bytes written.
        data: Vec<u8>,
    },
    /// `System::host_lseek`.
    HostLseek {
        /// Calling pid.
        pid: u32,
        /// Descriptor.
        fd: u32,
        /// Offset.
        off: i64,
        /// Whence.
        whence: u32,
    },
    /// `System::host_ioctl`.
    HostIoctl {
        /// Calling pid.
        pid: u32,
        /// Descriptor.
        fd: u32,
        /// Request number.
        req: u32,
        /// Argument bytes.
        arg: Vec<u8>,
    },
    /// `System::host_kill`.
    HostKill {
        /// Calling pid.
        pid: u32,
        /// Target pid.
        target: u32,
        /// Signal number.
        sig: u32,
    },
    /// `System::host_wait`.
    HostWait {
        /// Calling pid.
        pid: u32,
    },
    /// `System::host_poll`.
    HostPoll {
        /// Calling pid.
        pid: u32,
        /// Descriptors polled.
        fds: Vec<u32>,
    },
    /// `System::host_poll_in`.
    HostPollIn {
        /// Calling pid.
        pid: u32,
        /// Descriptors polled.
        fds: Vec<u32>,
    },
    /// `System::poll_fd` — the instantaneous single-descriptor poll.
    HostPollFd {
        /// Calling pid.
        pid: u32,
        /// Descriptor polled.
        fd: u32,
    },
}

fn enc_str(s: &str, out: &mut Vec<u8>) {
    out.extend_from_slice(&(s.len() as u64).to_le_bytes());
    out.extend_from_slice(s.as_bytes());
}

fn enc_bytes(b: &[u8], out: &mut Vec<u8>) {
    out.extend_from_slice(&(b.len() as u64).to_le_bytes());
    out.extend_from_slice(b);
}

fn enc_cred(c: &Cred, out: &mut Vec<u8>) {
    for v in [c.ruid, c.euid, c.suid, c.rgid, c.egid, c.sgid] {
        out.extend_from_slice(&v.to_le_bytes());
    }
    out.extend_from_slice(&(c.groups.len() as u64).to_le_bytes());
    for g in &c.groups {
        out.extend_from_slice(&g.to_le_bytes());
    }
}

fn oflags_bits(f: OFlags) -> u8 {
    (f.read as u8)
        | (f.write as u8) << 1
        | (f.excl as u8) << 2
        | (f.creat as u8) << 3
        | (f.trunc as u8) << 4
}

impl Input {
    /// Short operation name, for transcripts and `sdb` displays.
    pub fn name(&self) -> &'static str {
        match self {
            Input::InstallFile { .. } => "install-file",
            Input::InstallDir { .. } => "install-dir",
            Input::SpawnHosted { .. } => "spawn-hosted",
            Input::SpawnProgram { .. } => "spawn-program",
            Input::Steps { .. } => "steps",
            Input::HostOpen { .. } => "open",
            Input::HostClose { .. } => "close",
            Input::HostRead { .. } => "read",
            Input::HostWrite { .. } => "write",
            Input::HostLseek { .. } => "lseek",
            Input::HostIoctl { .. } => "ioctl",
            Input::HostKill { .. } => "kill",
            Input::HostWait { .. } => "wait",
            Input::HostPoll { .. } => "poll",
            Input::HostPollIn { .. } => "poll-in",
            Input::HostPollFd { .. } => "poll-fd",
        }
    }

    /// Stable little-endian encoding: a tag byte plus the fields. The
    /// digest covers this, so any difference in what was asked — not
    /// just in what came back — diverges.
    pub fn encode(&self, out: &mut Vec<u8>) {
        match self {
            Input::InstallFile { path, mode, bytes } => {
                out.push(0);
                enc_str(path, out);
                out.extend_from_slice(&mode.to_le_bytes());
                enc_bytes(bytes, out);
            }
            Input::InstallDir { path, mode } => {
                out.push(1);
                enc_str(path, out);
                out.extend_from_slice(&mode.to_le_bytes());
            }
            Input::SpawnHosted { name, cred } => {
                out.push(2);
                enc_str(name, out);
                enc_cred(cred, out);
            }
            Input::SpawnProgram { parent, path, argv } => {
                out.push(3);
                out.extend_from_slice(&parent.to_le_bytes());
                enc_str(path, out);
                out.extend_from_slice(&(argv.len() as u64).to_le_bytes());
                for a in argv {
                    enc_str(a, out);
                }
            }
            Input::Steps { .. } => {
                // The count is deliberately excluded: it grows as steps
                // coalesce, and each step already folds its own progress
                // bit and clock into the digest.
                out.push(4);
            }
            Input::HostOpen { pid, path, flags } => {
                out.push(5);
                out.extend_from_slice(&pid.to_le_bytes());
                enc_str(path, out);
                out.push(oflags_bits(*flags));
            }
            Input::HostClose { pid, fd } => {
                out.push(6);
                out.extend_from_slice(&pid.to_le_bytes());
                out.extend_from_slice(&fd.to_le_bytes());
            }
            Input::HostRead { pid, fd, len } => {
                out.push(7);
                out.extend_from_slice(&pid.to_le_bytes());
                out.extend_from_slice(&fd.to_le_bytes());
                out.extend_from_slice(&len.to_le_bytes());
            }
            Input::HostWrite { pid, fd, data } => {
                out.push(8);
                out.extend_from_slice(&pid.to_le_bytes());
                out.extend_from_slice(&fd.to_le_bytes());
                enc_bytes(data, out);
            }
            Input::HostLseek { pid, fd, off, whence } => {
                out.push(9);
                out.extend_from_slice(&pid.to_le_bytes());
                out.extend_from_slice(&fd.to_le_bytes());
                out.extend_from_slice(&off.to_le_bytes());
                out.extend_from_slice(&whence.to_le_bytes());
            }
            Input::HostIoctl { pid, fd, req, arg } => {
                out.push(10);
                out.extend_from_slice(&pid.to_le_bytes());
                out.extend_from_slice(&fd.to_le_bytes());
                out.extend_from_slice(&req.to_le_bytes());
                enc_bytes(arg, out);
            }
            Input::HostKill { pid, target, sig } => {
                out.push(11);
                out.extend_from_slice(&pid.to_le_bytes());
                out.extend_from_slice(&target.to_le_bytes());
                out.extend_from_slice(&sig.to_le_bytes());
            }
            Input::HostWait { pid } => {
                out.push(12);
                out.extend_from_slice(&pid.to_le_bytes());
            }
            Input::HostPoll { pid, fds } => {
                out.push(13);
                out.extend_from_slice(&pid.to_le_bytes());
                out.extend_from_slice(&(fds.len() as u64).to_le_bytes());
                for fd in fds {
                    out.extend_from_slice(&fd.to_le_bytes());
                }
            }
            Input::HostPollIn { pid, fds } => {
                out.push(14);
                out.extend_from_slice(&pid.to_le_bytes());
                out.extend_from_slice(&(fds.len() as u64).to_le_bytes());
                for fd in fds {
                    out.extend_from_slice(&fd.to_le_bytes());
                }
            }
            Input::HostPollFd { pid, fd } => {
                out.push(15);
                out.extend_from_slice(&pid.to_le_bytes());
                out.extend_from_slice(&fd.to_le_bytes());
            }
        }
    }
}

/// Encodes a `SysResult<T>` for the digest: an ok/err tag, the errno on
/// failure, and the caller-visible payload (via `ok`) on success.
pub fn result_bytes<T>(r: &SysResult<T>, ok: impl FnOnce(&T, &mut Vec<u8>)) -> Vec<u8> {
    let mut out = Vec::new();
    match r {
        Ok(v) => {
            out.push(1);
            ok(v, &mut out);
        }
        Err(e) => {
            out.push(0);
            out.extend_from_slice(&(*e as i32).to_le_bytes());
        }
    }
    out
}

/// Encodes a poll-status vector (3 bits per descriptor).
pub fn poll_bytes(sts: &[PollStatus], out: &mut Vec<u8>) {
    out.extend_from_slice(&(sts.len() as u64).to_le_bytes());
    for st in sts {
        out.push((st.readable as u8) | (st.writable as u8) << 1 | (st.hangup as u8) << 2);
    }
}

/// One recorded input plus the digest of (input, result, clock).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Record {
    /// The host-boundary call.
    pub input: Input,
    /// FNV-1a over the input encoding, the result encoding and the
    /// post-call kernel clock.
    pub digest: u64,
}

/// A complete recorded run: the construction config plus the input log.
#[derive(Clone, Debug, PartialEq)]
pub struct Recording {
    /// Construction-time configuration, recorded verbatim.
    pub config: SimConfig,
    /// The input log; index = virtual tick.
    pub records: Vec<Record>,
}

impl Recording {
    /// Number of recorded inputs (the run's length in virtual ticks).
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// True when nothing was recorded.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }
}

/// The first point where a replay stopped matching its recording.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ReplayDivergence {
    /// Record index (virtual tick) of the mismatch.
    pub tick: usize,
    /// Digest the recording expected.
    pub expected: u64,
    /// Digest the replay produced.
    pub got: u64,
}

impl std::fmt::Display for ReplayDivergence {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "replay diverged at tick {}: expected digest {:#018x}, got {:#018x}",
            self.tick, self.expected, self.got
        )
    }
}

impl std::error::Error for ReplayDivergence {}

vfs::counters! {
    /// Recorder counters, marshalled little-endian for `PIOCRECSTATS`.
    pub struct RecStats {
        /// Inputs recorded (records in the log).
        inputs,
        /// Public scheduler steps folded into `Steps` records.
        steps,
        /// Bytes of input + result encoding folded into digests.
        bytes_logged,
        /// Copy-on-write snapshots taken.
        snapshots,
        /// Inputs re-applied by replay/navigation on this kernel.
        replays,
        /// Replay divergences detected.
        divergences,
        /// Snapshot restores performed.
        restores,
        /// Single-process checkpoint images built (`PIOCCKPT`) or applied
        /// (`PIOCRESTORE`).
        ckpts,
        /// Recordings serialised to the on-disk recfile format.
        file_saves,
        /// Recfile images parsed back into recordings.
        file_loads,
        /// Bytes written to or parsed from recfile images.
        file_bytes,
        /// Recfile loads rejected with a typed error.
        file_errors,
    }
}

/// A copy-on-write snapshot: the machine state after applying the first
/// `pos` records. The kernel clone shares page frames (`Arc`) with the
/// live run; the root memfs travels with it so installed files and
/// guest-written data restore too. Mounted `/proc` faces are *views*
/// over the kernel and are reconstructed fresh on restore.
#[derive(Debug)]
pub struct Snap {
    /// Record index this snapshot corresponds to.
    pub pos: usize,
    /// Deep kernel clone (recorder detached).
    pub kernel: Box<Kernel>,
    /// Root file-system clone.
    pub root: vfs::MemFs<Kernel>,
    /// Wire-transport state per mounted slot (slot index → snapshot) for
    /// remote mounts; the transport queues/sessions live outside the
    /// kernel, so `goto`-style restores replant them here instead of
    /// falling back to a full rebuild.
    pub wires: Vec<(usize, vfs::remote::WireSnapshot)>,
}

/// The live recording state attached to a [`Kernel`].
#[derive(Debug)]
pub struct Recorder {
    /// Construction config, stored verbatim for the recording head.
    pub config: SimConfig,
    /// The input log so far.
    pub records: Vec<Record>,
    /// When non-zero, host-boundary calls are internal (replay or the
    /// pump loops of an outer recorded call) and must not record.
    pub suppress: u32,
    /// Snapshot interval in records; 0 disables snapshots.
    pub snap_every: usize,
    /// Snapshots, ascending by position. Shared with the systems that
    /// navigation re-materializes from them.
    pub snaps: Vec<Arc<Snap>>,
    /// Counters behind `PIOCRECSTATS`.
    pub stats: RecStats,
}

impl Recorder {
    /// A recorder for a run constructed under `config`.
    pub fn new(config: SimConfig) -> Recorder {
        let snap_every = config.snapshot_every;
        Recorder {
            config,
            records: Vec::new(),
            suppress: 0,
            snap_every,
            snaps: Vec::new(),
            stats: RecStats::default(),
        }
    }

    /// Commits one non-step input with its encoded result.
    pub fn commit(&mut self, input: Input, result: &[u8], clock: u64) {
        let mut enc = Vec::new();
        input.encode(&mut enc);
        let mut h = fnv_fold(FNV_OFFSET, &enc);
        h = fnv_fold(h, result);
        h = fnv_fold(h, &clock.to_le_bytes());
        self.stats.inputs += 1;
        self.stats.bytes_logged += (enc.len() + result.len()) as u64;
        self.records.push(Record { input, digest: h });
    }

    /// True when the next public `step()` will extend the current
    /// `Steps` record instead of starting a new one.
    pub fn step_will_extend(&self) -> bool {
        matches!(
            self.records.last(),
            Some(Record { input: Input::Steps { n }, .. }) if *n < STEPS_COALESCE_MAX
        )
    }

    /// Commits one public scheduler step, coalescing into the trailing
    /// `Steps` record where possible.
    pub fn commit_step(&mut self, ran: bool, clock: u64) {
        self.stats.steps += 1;
        let mut fold = [0u8; 9];
        fold[0] = ran as u8;
        fold[1..9].copy_from_slice(&clock.to_le_bytes());
        if self.step_will_extend() {
            if let Some(Record { input: Input::Steps { n }, digest }) = self.records.last_mut() {
                *n += 1;
                *digest = fnv_fold(*digest, &fold);
                self.stats.bytes_logged += fold.len() as u64;
                return;
            }
        }
        let input = Input::Steps { n: 1 };
        let mut enc = Vec::new();
        input.encode(&mut enc);
        let mut h = fnv_fold(FNV_OFFSET, &enc);
        h = fnv_fold(h, &fold);
        self.stats.inputs += 1;
        self.stats.bytes_logged += (enc.len() + fold.len()) as u64;
        self.records.push(Record { input, digest: h });
    }

    /// True when the recorder wants a snapshot before the next record is
    /// created (the current position is a multiple of the interval and
    /// has no snapshot yet).
    pub fn wants_snapshot(&self, will_extend: bool) -> bool {
        if self.snap_every == 0 || will_extend {
            return false;
        }
        let pos = self.records.len();
        pos.is_multiple_of(self.snap_every) && self.snaps.last().map(|s| s.pos) != Some(pos)
    }

    /// Stores a snapshot at the current position.
    pub fn push_snap(
        &mut self,
        kernel: Box<Kernel>,
        root: vfs::MemFs<Kernel>,
        wires: Vec<(usize, vfs::remote::WireSnapshot)>,
    ) {
        self.stats.snapshots += 1;
        self.snaps.push(Arc::new(Snap { pos: self.records.len(), kernel, root, wires }));
    }

    /// The nearest snapshot at or below `pos`, if any.
    pub fn nearest_snap(&self, pos: usize) -> Option<&Snap> {
        self.snaps.iter().rev().find(|s| s.pos <= pos).map(|s| s.as_ref())
    }

    /// Extracts the recording (config + log) for storage or replay.
    pub fn recording(&self) -> Recording {
        Recording { config: self.config.clone(), records: self.records.clone() }
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;

    #[test]
    fn digest_covers_input_result_and_clock() {
        let mk = |data: &[u8], res: &[u8], clock: u64| {
            let mut r = Recorder::new(SimConfig::new());
            r.commit(
                Input::HostWrite { pid: 2, fd: 3, data: data.to_vec() },
                res,
                clock,
            );
            r.records[0].digest
        };
        let base = mk(b"abc", b"ok", 7);
        assert_eq!(base, mk(b"abc", b"ok", 7));
        assert_ne!(base, mk(b"abd", b"ok", 7));
        assert_ne!(base, mk(b"abc", b"no", 7));
        assert_ne!(base, mk(b"abc", b"ok", 8));
    }

    #[test]
    fn steps_coalesce_up_to_cap() {
        let mut r = Recorder::new(SimConfig::new());
        for i in 0..(STEPS_COALESCE_MAX + 2) {
            r.commit_step(true, i);
        }
        assert_eq!(r.records.len(), 2);
        assert_eq!(
            r.records[0].input,
            Input::Steps { n: STEPS_COALESCE_MAX }
        );
        assert_eq!(r.records[1].input, Input::Steps { n: 2 });
        assert_eq!(r.stats.steps, STEPS_COALESCE_MAX + 2);
    }

    #[test]
    fn snapshot_positions_follow_interval() {
        let mut r = Recorder::new(SimConfig::new().snapshot_every(2));
        assert!(r.wants_snapshot(false));
        r.push_snap(Box::new(Kernel::new()), vfs::MemFs::new(), Vec::new());
        assert!(!r.wants_snapshot(false));
        r.commit(Input::HostWait { pid: 1 }, b"", 0);
        assert!(!r.wants_snapshot(false));
        r.commit(Input::HostWait { pid: 1 }, b"", 1);
        assert!(r.wants_snapshot(false));
        assert!(!r.wants_snapshot(true));
        assert_eq!(r.nearest_snap(1).map(|s| s.pos), Some(0));
    }

    #[test]
    fn rec_stats_roundtrip() {
        let st = RecStats {
            inputs: 1,
            steps: 2,
            bytes_logged: 3,
            snapshots: 4,
            replays: 5,
            divergences: 6,
            restores: 7,
            ckpts: 8,
            file_saves: 9,
            file_loads: 10,
            file_bytes: 11,
            file_errors: 12,
        };
        assert_eq!(RecStats::from_bytes(&st.to_bytes()), Some(st));
        assert!(RecStats::from_bytes(&[0u8; 7]).is_none());
    }
}
