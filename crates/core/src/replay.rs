//! Replay: re-materializing a recorded run at any virtual tick.
//!
//! The `ksim` layer records a run as its construction [`SimConfig`] plus
//! the log of host-boundary inputs ([`ksim::Recording`]); this module
//! closes the loop a layer up, where the `/proc` faces live:
//!
//! * [`build_sim`] is the one construction path that interprets a
//!   config's mount plans — flat, hierarchical, or remote-over-the-wire
//!   `/proc` — so a replayed run gets byte-identical mounts.
//! * [`replay`] re-executes a recording through the same public host
//!   API **with recording on**: the fresh recorder re-computes every
//!   digest, and the first mismatch against the original log is a typed
//!   [`ReplayDivergence`] naming the exact tick. A clean replay leaves
//!   the new system's log equal to the applied prefix, so navigation
//!   can keep recording seamlessly from wherever it landed.
//! * [`goto_tick`] re-materializes a *live* recorded system at an
//!   earlier position: restore the nearest copy-on-write snapshot at or
//!   below the target and replay the remainder. It reads the live log in
//!   place, and the restored system shares the snapshot bank up to the
//!   snapshot it resumed from, so navigating again from there resumes
//!   from a banked state too. Remote mounts take the
//!   fast path too — their wire-session state (sequence numbers,
//!   fault-generator position, queues) travels in the snapshot's
//!   [`Snap::wires`] bank and is replanted into the freshly built
//!   [`RemoteFs`]. The full rebuild remains the fallback when the
//!   resumed run diverges (file-system-layer state such as cache
//!   counters is not snapshotted — a divergence there is honest, and
//!   the full rebuild is always exact).
//! * [`replay_file`] closes the durability loop: a recfile image saved
//!   by one process ([`ksim::recfile`]) parses, replays byte-identically
//!   and re-banks its snapshots in a fresh one.

use ksim::record::Snap;
use ksim::{
    FsSlot, Input, MountPlan, Pid, Record, Recorder, Recording, ReplayDivergence, SimConfig,
    System,
};
use vfs::remote::RemoteFs;

use crate::snap::snap_handle;
use crate::{HierFs, ProcFs};

/// Builds a [`System`] from a config: kernel-level knobs via
/// [`System::with_config`], then every mount plan interpreted here —
/// the `/proc` faces share one snapshot cache, and remote plans wrap
/// the flat face in a [`RemoteFs`] with the full ioctl wire table.
pub fn build_sim(cfg: &SimConfig) -> System {
    let mut sys = System::with_config(cfg.clone());
    let cache = snap_handle();
    for (path, plan) in &cfg.mounts {
        match plan {
            MountPlan::ProcFlat => {
                sys.mount(path, Box::new(ProcFs::with_cache(cache.clone())));
            }
            MountPlan::ProcHier => {
                sys.mount(path, Box::new(HierFs::with_cache(cache.clone())));
            }
            MountPlan::RemoteProc(w) => {
                let fs = RemoteFs::new(Box::new(ProcFs::with_cache(cache.clone())))
                    .with_ioctl_table(crate::ioctl::wire_table())
                    .with_config(w);
                sys.mount(path, Box::new(fs));
            }
        }
    }
    sys
}

/// Re-issues one recorded input through the public host API. Results
/// are discarded — the recording wrapper inside each call re-computes
/// the digest that is then compared against the log.
fn apply(sys: &mut System, input: &Input) {
    match input {
        Input::InstallFile { path, mode, bytes } => sys.install_file(path, *mode, bytes),
        Input::InstallDir { path, mode } => sys.install_dir(path, *mode),
        Input::SpawnHosted { name, cred } => {
            sys.spawn_hosted(name, cred.clone());
        }
        Input::SpawnProgram { parent, path, argv } => {
            let argv: Vec<&str> = argv.iter().map(String::as_str).collect();
            let _ = sys.spawn_program(Pid(*parent), path, &argv);
        }
        Input::Steps { n } => {
            for _ in 0..*n {
                sys.step();
            }
        }
        Input::HostOpen { pid, path, flags } => {
            let _ = sys.host_open(Pid(*pid), path, *flags);
        }
        Input::HostClose { pid, fd } => {
            let _ = sys.host_close(Pid(*pid), *fd as usize);
        }
        Input::HostRead { pid, fd, len } => {
            let mut buf = vec![0u8; *len as usize];
            let _ = sys.host_read(Pid(*pid), *fd as usize, &mut buf);
        }
        Input::HostWrite { pid, fd, data } => {
            let _ = sys.host_write(Pid(*pid), *fd as usize, data);
        }
        Input::HostLseek { pid, fd, off, whence } => {
            let _ = sys.host_lseek(Pid(*pid), *fd as usize, *off, *whence);
        }
        Input::HostIoctl { pid, fd, req, arg } => {
            let _ = sys.host_ioctl(Pid(*pid), *fd as usize, *req, arg);
        }
        Input::HostKill { pid, target, sig } => {
            let _ = sys.host_kill(Pid(*pid), Pid(*target), *sig as usize);
        }
        Input::HostWait { pid } => {
            let _ = sys.host_wait(Pid(*pid));
        }
        Input::HostPoll { pid, fds } => {
            let fds: Vec<usize> = fds.iter().map(|&f| f as usize).collect();
            let _ = sys.host_poll(Pid(*pid), &fds);
        }
        Input::HostPollIn { pid, fds } => {
            let fds: Vec<usize> = fds.iter().map(|&f| f as usize).collect();
            let _ = sys.host_poll_in(Pid(*pid), &fds);
        }
        Input::HostPollFd { pid, fd } => {
            let _ = sys.poll_fd(Pid(*pid), *fd as usize);
        }
    }
}

/// Applies records `from..to` of `records` to `sys` (which must hold
/// the first `from` records in its own log), comparing each re-computed
/// digest against the original. The first mismatch is returned as a
/// typed divergence at its exact tick and counted on the recorder.
fn apply_range(
    sys: &mut System,
    records: &[Record],
    from: usize,
    to: usize,
) -> Result<(), ReplayDivergence> {
    for (i, record) in (from..).zip(&records[from..to]) {
        apply(sys, &record.input);
        let got = sys
            .kernel
            .recorder
            .as_ref()
            .and_then(|r| r.records.get(i))
            .map(|r| r.digest);
        let expected = record.digest;
        if let Some(r) = sys.kernel.recorder.as_mut() {
            r.stats.replays += 1;
        }
        if got != Some(expected) {
            if let Some(r) = sys.kernel.recorder.as_mut() {
                r.stats.divergences += 1;
            }
            return Err(ReplayDivergence { tick: i, expected, got: got.unwrap_or(0) });
        }
    }
    Ok(())
}

/// Replays the first `k` records of `rec` into a freshly built system.
/// On success the returned system's own log equals the applied prefix,
/// and recording continues from there.
pub fn replay_to(rec: &Recording, k: usize) -> Result<System, ReplayDivergence> {
    replay_log(&rec.config, &rec.records, k)
}

/// [`replay_to`] over a borrowed config and log.
fn replay_log(cfg: &SimConfig, records: &[Record], k: usize) -> Result<System, ReplayDivergence> {
    let mut sys = build_sim(cfg);
    apply_range(&mut sys, records, 0, k.min(records.len()))?;
    Ok(sys)
}

/// Replays `rec` in full. Byte-identical reproduction or a typed
/// divergence at the exact tick — never silent drift.
pub fn replay(rec: &Recording) -> Result<System, ReplayDivergence> {
    replay_to(rec, rec.len())
}

/// Resumes from a copy-on-write snapshot: fresh mounts from
/// [`build_sim`], the snapshot's kernel and root file system
/// transplanted in, the banked wire-transport state replanted into the
/// remote mounts, a recorder pre-loaded with the applied prefix and
/// `rec`'s snapshot bank up to and including `snap`, then records
/// `snap.pos..k` replayed on top. `None` when the snapshot cannot be
/// applied to this config's mounts (the full rebuild is the caller's
/// fallback).
fn resume_from_snap(rec: &Recorder, snap: &Snap, k: usize) -> Option<System> {
    let mut sys = build_sim(&rec.config);
    sys.kernel = (*snap.kernel).clone();
    sys.fss[0] = FsSlot::Mem(snap.root.clone());
    // Every wire-carrying slot must have banked state in the snapshot
    // and accept it back; anything else means the mount shape changed
    // under the recording and resume would be dishonest.
    for (i, slot) in sys.fss.iter_mut().enumerate() {
        let FsSlot::Dyn(fs) = slot else { continue };
        if fs.wire_snapshot().is_none() {
            continue; // not a wire-carrying mount; rebuilt fresh is exact
        }
        let banked = snap.wires.iter().find(|(s, _)| *s == i).map(|(_, w)| w)?;
        if !fs.wire_restore(banked) {
            return None;
        }
    }
    let mut r = Recorder::new(rec.config.clone());
    r.records = rec.records[..snap.pos].to_vec();
    r.snaps = rec.snaps.iter().take_while(|s| s.pos <= snap.pos).cloned().collect();
    r.stats.restores = 1;
    sys.kernel.recorder = Some(Box::new(r));
    apply_range(&mut sys, &rec.records, snap.pos, k).ok()?;
    Some(sys)
}

/// Re-materializes the run recorded by `sys` at position `k` (clamped
/// to the log length): nearest snapshot plus replay of the remainder
/// when possible — including over remote mounts, whose transport state
/// rides in the snapshot — full rebuild otherwise. The returned system
/// is *live*: it records, so stepping it forward extends its log from
/// tick `k`.
pub fn goto_tick(sys: &System, k: usize) -> Result<System, ReplayDivergence> {
    let Some(rec) = sys.kernel.recorder.as_ref() else {
        return Ok(build_sim(&SimConfig::new().record(true)));
    };
    let k = k.min(rec.records.len());
    if let Some(snap) = rec.nearest_snap(k) {
        if snap.pos > 0 {
            // A failed resume (divergence from non-snapshotted
            // file-system-layer state, or a mount-shape mismatch) falls
            // through to the full rebuild, which is always exact.
            if let Some(restored) = resume_from_snap(rec, snap, k) {
                return Ok(restored);
            }
        }
    }
    replay_log(&rec.config, &rec.records, k)
}

/// Why a recfile image failed to become a live system.
#[derive(Clone, Debug, PartialEq)]
pub enum LoadError {
    /// The image failed structural validation.
    File(ksim::RecfileError),
    /// The image parsed but its recording did not reproduce.
    Replay(ReplayDivergence),
}

impl std::fmt::Display for LoadError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            LoadError::File(e) => write!(f, "{e}"),
            LoadError::Replay(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for LoadError {}

/// Loads a recfile image saved by [`ksim::System::save_recfile`] —
/// possibly in another process — and replays it in full. Recording is
/// re-enabled (the file's config deliberately carries `record = false`),
/// so the returned system re-banks its snapshots at the same positions
/// the original run did and keeps recording from the end of the log.
/// The recorder's file counters are stamped on success.
pub fn replay_file(bytes: &[u8]) -> Result<System, LoadError> {
    let file = ksim::recfile::load(bytes).map_err(LoadError::File)?;
    let mut rec = file.recording;
    rec.config.record = true;
    let mut sys = replay(&rec).map_err(LoadError::Replay)?;
    if let Some(r) = sys.kernel.recorder.as_mut() {
        r.stats.file_loads += 1;
        r.stats.file_bytes += bytes.len() as u64;
    }
    Ok(sys)
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;

    fn recorded_run() -> System {
        let mut sys = build_sim(&SimConfig::standard().record(true).snapshot_every(4));
        sys.install_dir("/tmp", 0o777);
        let ctl = sys.spawn_hosted("ctl", ksim::Cred::superuser());
        let fd = sys
            .host_open(ctl, &format!("/proc/{:05}", ctl.0), vfs::OFlags::rdonly())
            .expect("open self");
        let mut buf = [0u8; 64];
        let _ = sys.host_read(ctl, fd, &mut buf);
        sys.host_close(ctl, fd).expect("close");
        sys.run_idle(50);
        sys
    }

    #[test]
    fn clean_replay_is_byte_identical() {
        let sys = recorded_run();
        let rec = sys.recording().expect("recording on");
        let replayed = replay(&rec).expect("replay");
        assert_eq!(replayed.recording().expect("recording").records, rec.records);
    }

    #[test]
    fn corrupt_record_diverges_at_exact_tick() {
        let sys = recorded_run();
        let mut rec = sys.recording().expect("recording on");
        let tick = rec.len() / 2;
        rec.records[tick].digest ^= 1;
        let err = match replay(&rec) {
            Err(e) => e,
            Ok(_) => panic!("must diverge"),
        };
        assert_eq!(err.tick, tick);
    }

    #[test]
    fn goto_lands_on_prefix() {
        let sys = recorded_run();
        let rec = sys.recording().expect("recording on");
        let k = rec.len() - 1;
        let back = goto_tick(&sys, k).expect("goto");
        let log = back.recording().expect("recording on");
        assert_eq!(log.records[..], rec.records[..k]);
    }
}
