//! The `/proc` data structures and their byte images.
//!
//! Everything a controlling process exchanges with `/proc` is a byte
//! image: `ioctl` operands in the flat interface, file contents in the
//! hierarchical one. Each structure here has a fixed-layout little-endian
//! encoding (`to_bytes`/`from_bytes`) and is shared by both interfaces —
//! one reason the restructuring is cheap.
//!
//! `prstatus` "is designed to contain the information most frequently
//! needed by a controlling process such as a debugger"; `psinfo` carries
//! "everything that ps might want to display about a process" so that
//! "each line of ps output is a true snapshot of the process".

use isa::GregSet;
use ksim::proc::{LwpState, StopWhy};
use ksim::signal::SigSet;
use ksim::{Kernel, Tid};
use vfs::{Errno, Pid, SysResult};
use vm::Prot;

/// `pr_flags`: the process (representative LWP) is stopped.
pub const PR_STOPPED: u32 = 1 << 0;
/// `pr_flags`: stopped on an event of interest (what `PIOCWSTOP` waits
/// for).
pub const PR_ISTOP: u32 = 1 << 1;
/// `pr_flags`: a stop directive is in effect.
pub const PR_DSTOP: u32 = 1 << 2;
/// `pr_flags`: asleep in an interruptible system call.
pub const PR_ASLEEP: u32 = 1 << 3;
/// `pr_flags`: a system process (no user-level address space).
pub const PR_ISSYS: u32 = 1 << 4;
/// `pr_flags`: inherit-on-fork is set.
pub const PR_FORK: u32 = 1 << 5;
/// `pr_flags`: run-on-last-close is set.
pub const PR_RLC: u32 = 1 << 6;
/// `pr_flags`: the process is ptrace-traced (competing mechanism).
pub const PR_PTRACE: u32 = 1 << 7;

/// `pr_why` codes.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
#[repr(u16)]
pub enum PrWhy {
    /// Not stopped.
    None = 0,
    /// Requested stop.
    Requested = 1,
    /// Stopped on a traced signal.
    Signalled = 2,
    /// Stopped on entry to a traced system call.
    SyscallEntry = 3,
    /// Stopped on exit from a traced system call.
    SyscallExit = 4,
    /// Stopped on a traced machine fault.
    Faulted = 5,
    /// Job-control stop.
    JobControl = 6,
    /// Old-style ptrace stop.
    Ptrace = 7,
}

impl PrWhy {
    /// Decodes a `pr_why` value.
    pub fn from_u16(v: u16) -> PrWhy {
        match v {
            1 => PrWhy::Requested,
            2 => PrWhy::Signalled,
            3 => PrWhy::SyscallEntry,
            4 => PrWhy::SyscallExit,
            5 => PrWhy::Faulted,
            6 => PrWhy::JobControl,
            7 => PrWhy::Ptrace,
            _ => PrWhy::None,
        }
    }
}

/// The process status structure (`prstatus_t`).
#[derive(Clone, Debug, PartialEq)]
pub struct PrStatus {
    /// Status flags (`PR_*`).
    pub flags: u32,
    /// Why the process is stopped.
    pub why: PrWhy,
    /// Detail for `why` (signal, fault or system call number).
    pub what: u16,
    /// The current signal, or 0.
    pub cursig: u32,
    /// Pending (process-directed) signals.
    pub sigpend: SigSet,
    /// Held signals of the representative LWP.
    pub sighold: SigSet,
    /// Process id.
    pub pid: u32,
    /// Parent process id.
    pub ppid: u32,
    /// Process group.
    pub pgrp: u32,
    /// Session.
    pub sid: u32,
    /// User CPU time, ticks (all LWPs).
    pub utime: u64,
    /// System CPU time, ticks (accounted to kernel entries; informative).
    pub stime: u64,
    /// Number of LWPs.
    pub nlwp: u32,
    /// The LWP this status describes.
    pub who: u32,
    /// The instruction at the program counter.
    pub instr: u64,
    /// General registers of the described LWP.
    pub reg: GregSet,
}

impl PrStatus {
    /// Encoded length in bytes.
    pub const WIRE_LEN: usize = 96 + GregSet::WIRE_LEN;

    /// Serialises to the wire image.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut b = Vec::with_capacity(Self::WIRE_LEN);
        b.extend_from_slice(&self.flags.to_le_bytes());
        b.extend_from_slice(&(self.why as u16).to_le_bytes());
        b.extend_from_slice(&self.what.to_le_bytes());
        b.extend_from_slice(&self.cursig.to_le_bytes());
        b.extend_from_slice(&0u32.to_le_bytes());
        b.extend_from_slice(&self.sigpend.to_bytes());
        b.extend_from_slice(&self.sighold.to_bytes());
        b.extend_from_slice(&self.pid.to_le_bytes());
        b.extend_from_slice(&self.ppid.to_le_bytes());
        b.extend_from_slice(&self.pgrp.to_le_bytes());
        b.extend_from_slice(&self.sid.to_le_bytes());
        b.extend_from_slice(&self.utime.to_le_bytes());
        b.extend_from_slice(&self.stime.to_le_bytes());
        b.extend_from_slice(&self.nlwp.to_le_bytes());
        b.extend_from_slice(&self.who.to_le_bytes());
        b.extend_from_slice(&self.instr.to_le_bytes());
        b.extend_from_slice(&self.reg.to_bytes());
        debug_assert_eq!(b.len(), Self::WIRE_LEN);
        b
    }

    /// Deserialises from the wire image.
    pub fn from_bytes(b: &[u8]) -> Option<PrStatus> {
        if b.len() < Self::WIRE_LEN {
            return None;
        }
        let u32_at = |o: usize| ksim::bytes::le_u32(&b[o..]);
        let u16_at = |o: usize| ksim::bytes::le_u16(&b[o..]);
        let u64_at = |o: usize| ksim::bytes::le_u64(&b[o..]);
        Some(PrStatus {
            flags: u32_at(0),
            why: PrWhy::from_u16(u16_at(4)),
            what: u16_at(6),
            cursig: u32_at(8),
            sigpend: SigSet::from_bytes(&b[16..32])?,
            sighold: SigSet::from_bytes(&b[32..48])?,
            pid: u32_at(48),
            ppid: u32_at(52),
            pgrp: u32_at(56),
            sid: u32_at(60),
            utime: u64_at(64),
            stime: u64_at(72),
            nlwp: u32_at(80),
            who: u32_at(84),
            instr: u64_at(88),
            reg: GregSet::from_bytes(&b[96..96 + GregSet::WIRE_LEN])?,
        })
    }

    /// Builds the status of `pid` (describing LWP `tid`, or the
    /// representative LWP when `None`).
    pub fn capture(k: &Kernel, pid: Pid, tid: Option<Tid>) -> SysResult<PrStatus> {
        let proc = k.proc(pid)?;
        if proc.zombie {
            return Err(Errno::ENOENT);
        }
        let lwp = match tid {
            Some(t) => proc.lwp(t).ok_or(Errno::ESRCH)?,
            None => proc.rep_lwp(),
        };
        let mut flags = 0u32;
        let (why, what) = match lwp.stop_why() {
            Some(w) => {
                flags |= PR_STOPPED;
                if w.is_event_stop() {
                    flags |= PR_ISTOP;
                }
                match w {
                    StopWhy::Requested => (PrWhy::Requested, 0u16),
                    StopWhy::Signalled(s) => (PrWhy::Signalled, s as u16),
                    StopWhy::JobControl(s) => (PrWhy::JobControl, s as u16),
                    StopWhy::Faulted(f) => (PrWhy::Faulted, f.number() as u16),
                    StopWhy::SyscallEntry(n) => (PrWhy::SyscallEntry, n),
                    StopWhy::SyscallExit(n) => (PrWhy::SyscallExit, n),
                    StopWhy::Ptrace(s) => (PrWhy::Ptrace, s as u16),
                }
            }
            None => (PrWhy::None, 0),
        };
        if lwp.stop_directive {
            flags |= PR_DSTOP;
        }
        if matches!(lwp.state, LwpState::Sleeping { interruptible: true, .. }) {
            flags |= PR_ASLEEP;
        }
        if proc.hosted {
            flags |= PR_ISSYS;
        }
        if proc.trace.inherit_on_fork {
            flags |= PR_FORK;
        }
        if proc.trace.run_on_last_close {
            flags |= PR_RLC;
        }
        if proc.ptraced {
            flags |= PR_PTRACE;
        }
        let mut instr = [0u8; 8];
        let _ = proc.aspace.kernel_read(&k.objects, lwp.gregs.pc, &mut instr);
        Ok(PrStatus {
            flags,
            why,
            what,
            cursig: lwp.cursig.unwrap_or(0) as u32,
            sigpend: proc.pending,
            sighold: lwp.held,
            pid: proc.pid.0,
            ppid: proc.ppid.0,
            pgrp: proc.pgrp.0,
            sid: proc.sid.0,
            utime: proc.cpu_time,
            stime: 0,
            nlwp: proc.lwps.iter().filter(|l| l.state != LwpState::Zombie).count() as u32,
            who: lwp.tid.0,
            instr: u64::from_le_bytes(instr),
            reg: lwp.gregs.clone(),
        })
    }
}

/// Fixed-width name fields in `psinfo`.
pub const FNAME_LEN: usize = 16;
/// Width of the argument string in `psinfo`.
pub const PSARGS_LEN: usize = 80;

/// The `ps` information structure (`prpsinfo_t`).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct PsInfo {
    /// Process id.
    pub pid: u32,
    /// Parent pid.
    pub ppid: u32,
    /// Process group.
    pub pgrp: u32,
    /// Session.
    pub sid: u32,
    /// Real uid.
    pub uid: u32,
    /// Real gid.
    pub gid: u32,
    /// Total virtual memory, bytes.
    pub size: u64,
    /// Resident memory, bytes.
    pub rss: u64,
    /// Start time, ticks since boot.
    pub start: u64,
    /// CPU time, ticks.
    pub time: u64,
    /// Run-state character (O/S/T/Z).
    pub state: u8,
    /// Nice value (biased by 20 in the image).
    pub nice: i8,
    /// Live LWP count.
    pub nlwp: u32,
    /// Command name.
    pub fname: String,
    /// Command line.
    pub psargs: String,
}

impl PsInfo {
    /// Encoded length in bytes.
    pub const WIRE_LEN: usize = 64 + FNAME_LEN + PSARGS_LEN;

    /// Serialises to the wire image.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut b = Vec::with_capacity(Self::WIRE_LEN);
        for v in [self.pid, self.ppid, self.pgrp, self.sid, self.uid, self.gid] {
            b.extend_from_slice(&v.to_le_bytes());
        }
        for v in [self.size, self.rss, self.start, self.time] {
            b.extend_from_slice(&v.to_le_bytes());
        }
        b.push(self.state);
        b.push((self.nice as i16 + 20) as u8);
        b.extend_from_slice(&[0u8; 2]);
        b.extend_from_slice(&self.nlwp.to_le_bytes());
        let mut fname = [0u8; FNAME_LEN];
        let n = self.fname.len().min(FNAME_LEN - 1);
        fname[..n].copy_from_slice(&self.fname.as_bytes()[..n]);
        b.extend_from_slice(&fname);
        let mut psargs = [0u8; PSARGS_LEN];
        let n = self.psargs.len().min(PSARGS_LEN - 1);
        psargs[..n].copy_from_slice(&self.psargs.as_bytes()[..n]);
        b.extend_from_slice(&psargs);
        debug_assert_eq!(b.len(), Self::WIRE_LEN);
        b
    }

    /// Deserialises from the wire image.
    pub fn from_bytes(b: &[u8]) -> Option<PsInfo> {
        if b.len() < Self::WIRE_LEN {
            return None;
        }
        let u32_at = |o: usize| ksim::bytes::le_u32(&b[o..]);
        let u64_at = |o: usize| ksim::bytes::le_u64(&b[o..]);
        let cstr = |range: &[u8]| {
            let end = range.iter().position(|&c| c == 0).unwrap_or(range.len());
            String::from_utf8_lossy(&range[..end]).into_owned()
        };
        Some(PsInfo {
            pid: u32_at(0),
            ppid: u32_at(4),
            pgrp: u32_at(8),
            sid: u32_at(12),
            uid: u32_at(16),
            gid: u32_at(20),
            size: u64_at(24),
            rss: u64_at(32),
            start: u64_at(40),
            time: u64_at(48),
            state: b[56],
            nice: (b[57] as i16 - 20) as i8,
            nlwp: u32_at(60),
            fname: cstr(&b[64..64 + FNAME_LEN]),
            psargs: cstr(&b[64 + FNAME_LEN..64 + FNAME_LEN + PSARGS_LEN]),
        })
    }

    /// Builds the `ps` snapshot of `pid` — "all the information for a
    /// process is obtained in a single operation".
    pub fn capture(k: &Kernel, pid: Pid) -> SysResult<PsInfo> {
        let proc = k.proc(pid)?;
        Ok(PsInfo {
            pid: proc.pid.0,
            ppid: proc.ppid.0,
            pgrp: proc.pgrp.0,
            sid: proc.sid.0,
            uid: proc.cred.ruid,
            gid: proc.cred.rgid,
            size: proc.aspace.total_size(),
            rss: proc.aspace.resident_bytes(&k.objects),
            start: proc.start_time,
            time: proc.cpu_time,
            state: proc.state_char() as u8,
            nice: proc.nice,
            nlwp: proc.lwps.iter().filter(|l| l.state != LwpState::Zombie).count() as u32,
            fname: proc.fname.clone(),
            psargs: proc.psargs.clone(),
        })
    }
}

/// Width of the name field in a map entry.
pub const MAPNAME_LEN: usize = 32;

/// One address-space mapping (`prmap_t`), as returned by `PIOCMAP`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct PrMap {
    /// First virtual address.
    pub vaddr: u64,
    /// Size in bytes.
    pub size: u64,
    /// Offset within the backing object.
    pub offset: u64,
    /// Protection bits (1 read, 2 write, 4 exec).
    pub prot: u32,
    /// Attribute bits (1 shared, 2 grows down, 4 break segment).
    pub flags: u32,
    /// Advisory segment name.
    pub name: String,
}

/// `PrMap.flags`: MAP_SHARED mapping.
pub const PRMAP_SHARED: u32 = 1;
/// `PrMap.flags`: automatic downward growth (stack).
pub const PRMAP_GROWSDOWN: u32 = 2;
/// `PrMap.flags`: the break segment.
pub const PRMAP_BREAK: u32 = 4;

impl PrMap {
    /// Encoded length of one entry.
    pub const WIRE_LEN: usize = 32 + MAPNAME_LEN;

    /// Serialises one entry.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut b = Vec::with_capacity(Self::WIRE_LEN);
        b.extend_from_slice(&self.vaddr.to_le_bytes());
        b.extend_from_slice(&self.size.to_le_bytes());
        b.extend_from_slice(&self.offset.to_le_bytes());
        b.extend_from_slice(&self.prot.to_le_bytes());
        b.extend_from_slice(&self.flags.to_le_bytes());
        let mut name = [0u8; MAPNAME_LEN];
        let n = self.name.len().min(MAPNAME_LEN - 1);
        name[..n].copy_from_slice(&self.name.as_bytes()[..n]);
        b.extend_from_slice(&name);
        b
    }

    /// Deserialises one entry.
    pub fn from_bytes(b: &[u8]) -> Option<PrMap> {
        if b.len() < Self::WIRE_LEN {
            return None;
        }
        let u64_at = |o: usize| ksim::bytes::le_u64(&b[o..]);
        let u32_at = |o: usize| ksim::bytes::le_u32(&b[o..]);
        let end = b[32..32 + MAPNAME_LEN].iter().position(|&c| c == 0).unwrap_or(MAPNAME_LEN);
        Some(PrMap {
            vaddr: u64_at(0),
            size: u64_at(8),
            offset: u64_at(16),
            prot: u32_at(24),
            flags: u32_at(28),
            name: String::from_utf8_lossy(&b[32..32 + end]).into_owned(),
        })
    }

    /// Captures the full memory map of `pid` (Figure 2's data).
    pub fn capture_all(k: &Kernel, pid: Pid) -> SysResult<Vec<PrMap>> {
        let proc = k.proc(pid)?;
        Ok(proc
            .aspace
            .mappings()
            .iter()
            .map(|m| PrMap {
                vaddr: m.base,
                size: m.len,
                offset: m.obj_off,
                prot: m.prot.to_bits(),
                flags: (m.flags.shared as u32) * PRMAP_SHARED
                    + (m.flags.grows_down as u32) * PRMAP_GROWSDOWN
                    + (m.flags.is_break as u32) * PRMAP_BREAK,
                name: m.name.to_string(),
            })
            .collect())
    }

    /// Decodes a buffer of concatenated entries.
    pub fn decode_list(b: &[u8]) -> Vec<PrMap> {
        b.chunks_exact(Self::WIRE_LEN).filter_map(PrMap::from_bytes).collect()
    }

    /// Pretty protection in the style of Figure 2.
    pub fn prot_string(&self) -> String {
        Prot::from_bits(self.prot).to_string()
    }
}

/// Credentials (`prcred_t`).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct PrCred {
    /// Real user id.
    pub ruid: u32,
    /// Effective user id.
    pub euid: u32,
    /// Saved user id.
    pub suid: u32,
    /// Real group id.
    pub rgid: u32,
    /// Effective group id.
    pub egid: u32,
    /// Saved group id.
    pub sgid: u32,
    /// Number of supplementary groups (fetch them with `PIOCGROUPS`).
    pub ngroups: u32,
}

impl PrCred {
    /// Encoded length.
    pub const WIRE_LEN: usize = 28;

    /// Serialises.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut b = Vec::with_capacity(Self::WIRE_LEN);
        for v in [self.ruid, self.euid, self.suid, self.rgid, self.egid, self.sgid, self.ngroups] {
            b.extend_from_slice(&v.to_le_bytes());
        }
        b
    }

    /// Deserialises.
    pub fn from_bytes(b: &[u8]) -> Option<PrCred> {
        if b.len() < Self::WIRE_LEN {
            return None;
        }
        let u32_at = |o: usize| ksim::bytes::le_u32(&b[o..]);
        Some(PrCred {
            ruid: u32_at(0),
            euid: u32_at(4),
            suid: u32_at(8),
            rgid: u32_at(12),
            egid: u32_at(16),
            sgid: u32_at(20),
            ngroups: u32_at(24),
        })
    }

    /// Captures the credentials of `pid`.
    pub fn capture(k: &Kernel, pid: Pid) -> SysResult<PrCred> {
        let c = &k.proc(pid)?.cred;
        Ok(PrCred {
            ruid: c.ruid,
            euid: c.euid,
            suid: c.suid,
            rgid: c.rgid,
            egid: c.egid,
            sgid: c.sgid,
            ngroups: c.groups.len() as u32,
        })
    }
}

/// Run options (`prrun_t`) for `PIOCRUN`/`PCRUN`.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PrRun {
    /// Option bits (`PRRUN_*`).
    pub flags: u32,
    /// Resume address when `PRRUN_SVADDR` is set.
    pub vaddr: u64,
}

/// Clear the current signal.
pub const PRRUN_CSIG: u32 = 1 << 0;
/// Clear the current fault.
pub const PRRUN_CFAULT: u32 = 1 << 1;
/// Abort the system call stopped at entry.
pub const PRRUN_SABORT: u32 = 1 << 2;
/// Single-step.
pub const PRRUN_STEP: u32 = 1 << 3;
/// Stop again at the next `issig()`.
pub const PRRUN_SSTOP: u32 = 1 << 4;
/// Resume at `vaddr`.
pub const PRRUN_SVADDR: u32 = 1 << 5;
/// Complete one access that would fire a watchpoint.
pub const PRRUN_WBYPASS: u32 = 1 << 6;

impl PrRun {
    /// Encoded length.
    pub const WIRE_LEN: usize = 16;

    /// Serialises.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut b = Vec::with_capacity(Self::WIRE_LEN);
        b.extend_from_slice(&self.flags.to_le_bytes());
        b.extend_from_slice(&0u32.to_le_bytes());
        b.extend_from_slice(&self.vaddr.to_le_bytes());
        b
    }

    /// Deserialises (an empty buffer is an all-defaults run).
    pub fn from_bytes(b: &[u8]) -> Option<PrRun> {
        if b.is_empty() {
            return Some(PrRun::default());
        }
        if b.len() < Self::WIRE_LEN {
            return None;
        }
        Some(PrRun { flags: ksim::bytes::le_u32(b), vaddr: ksim::bytes::le_u64(&b[8..]) })
    }

    /// Converts to kernel run options.
    pub fn to_opts(self) -> ksim::RunOpts {
        ksim::RunOpts {
            clear_sig: self.flags & PRRUN_CSIG != 0,
            clear_fault: self.flags & PRRUN_CFAULT != 0,
            abort_syscall: self.flags & PRRUN_SABORT != 0,
            step: self.flags & PRRUN_STEP != 0,
            stop_again: self.flags & PRRUN_SSTOP != 0,
            bypass_watch_once: self.flags & PRRUN_WBYPASS != 0,
            set_pc: (self.flags & PRRUN_SVADDR != 0).then_some(self.vaddr),
        }
    }
}

/// A watched area (`prwatch_t`) for the proposed watchpoint facility.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct PrWatch {
    /// First watched byte.
    pub vaddr: u64,
    /// Length in bytes; zero removes watchpoints at `vaddr`.
    pub size: u64,
    /// Mode bits (1 read, 2 write, 4 exec).
    pub flags: u32,
}

impl PrWatch {
    /// Encoded length.
    pub const WIRE_LEN: usize = 24;

    /// Serialises.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut b = Vec::with_capacity(Self::WIRE_LEN);
        b.extend_from_slice(&self.vaddr.to_le_bytes());
        b.extend_from_slice(&self.size.to_le_bytes());
        b.extend_from_slice(&self.flags.to_le_bytes());
        b.extend_from_slice(&0u32.to_le_bytes());
        b
    }

    /// Deserialises.
    pub fn from_bytes(b: &[u8]) -> Option<PrWatch> {
        if b.len() < Self::WIRE_LEN {
            return None;
        }
        Some(PrWatch {
            vaddr: ksim::bytes::le_u64(b),
            size: ksim::bytes::le_u64(&b[8..]),
            flags: ksim::bytes::le_u32(&b[16..]),
        })
    }
}

/// Resource usage (`prusage_t`) — the proposed performance extension.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PrUsage {
    /// Instructions retired (CPU time in ticks).
    pub cpu_ticks: u64,
    /// LWPs ever created.
    pub nlwp: u64,
    /// Watchpoint recoveries performed by the system for this process.
    pub watch_recoveries: u64,
    /// Start tick.
    pub start: u64,
    /// Virtual size, bytes.
    pub size: u64,
    /// Resident bytes.
    pub rss: u64,
}

impl PrUsage {
    /// Encoded length.
    pub const WIRE_LEN: usize = 48;

    /// Serialises.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut b = Vec::with_capacity(Self::WIRE_LEN);
        for v in [self.cpu_ticks, self.nlwp, self.watch_recoveries, self.start, self.size, self.rss]
        {
            b.extend_from_slice(&v.to_le_bytes());
        }
        b
    }

    /// Deserialises.
    pub fn from_bytes(b: &[u8]) -> Option<PrUsage> {
        if b.len() < Self::WIRE_LEN {
            return None;
        }
        let u64_at = |o: usize| ksim::bytes::le_u64(&b[o..]);
        Some(PrUsage {
            cpu_ticks: u64_at(0),
            nlwp: u64_at(8),
            watch_recoveries: u64_at(16),
            start: u64_at(24),
            size: u64_at(32),
            rss: u64_at(40),
        })
    }

    /// Captures usage for `pid`.
    pub fn capture(k: &Kernel, pid: Pid) -> SysResult<PrUsage> {
        let proc = k.proc(pid)?;
        Ok(PrUsage {
            cpu_ticks: proc.cpu_time,
            nlwp: (proc.next_tid - 1) as u64,
            watch_recoveries: proc.aspace.watch_recovered,
            start: proc.start_time,
            size: proc.aspace.total_size(),
            rss: proc.aspace.resident_bytes(&k.objects),
        })
    }
}

vfs::counters! {
    /// Snapshot-cache counters (`prcachestats`) — read through
    /// `PIOCCACHESTATS` or [`crate::mount_standard_with_cache`]; the
    /// observability half of the generation-stamped caching layer.
    pub struct PrCacheStats {
        /// Renders served from cache.
        hits,
        /// Lookups that found no entry.
        misses,
        /// Lookups that found a stale entry (a generation stamp moved).
        invalidations,
        /// Entries currently cached.
        entries,
    }
}

vfs::counters! {
    /// Execution fast-path counters (`prxstats`) — read through `PIOCXSTATS`
    /// or the hierarchical `xstats` file; the observability half of the
    /// software TLB and the per-LWP superblock engine. Superblock counters
    /// are summed over the process's current LWPs.
    pub struct PrXStats {
        /// 1 if the fast path is enabled for this address space, else 0.
        enabled,
        /// Software-TLB lookups served from a validated entry.
        tlb_hits,
        /// Software-TLB lookups that fell to the slow path.
        tlb_misses,
        /// Address-space generation bumps (structural invalidations).
        tlb_invalidations,
        /// Retired, always 0: superblocks are the one cache of decoded
        /// text. Kept so the reply's layout does not move.
        icache_hits,
        /// Retired, always 0 (see `icache_hits`).
        icache_misses,
        /// Retired, always 0 (see `icache_hits`).
        icache_invalidations,
        /// Instructions retired by this process (all LWPs).
        insns,
        /// TLB hits served straight from a cached resolved frame. A read
        /// or fetch caches the page's frame on a hit that finds none, and
        /// a store that takes the fast path caches the frame it just
        /// wrote, so the load that follows a store counts here.
        tlb_frame_hits,
        /// Per-page text-epoch bumps (each invalidates one page's
        /// superblocks, not the whole mapping's).
        page_epoch_bumps,
        /// Superblocks traced and installed.
        sblock_built,
        /// Superblock dispatches.
        sblock_dispatched,
        /// Instructions retired inside superblock dispatches.
        sblock_insns,
        /// Dispatches that ran the whole trace.
        sblock_exit_end,
        /// Dispatches that side-exited on an untaken prediction.
        sblock_exit_side,
        /// Dispatches ended by a trapping instruction.
        sblock_exit_trap,
        /// Dispatches cut short by the quantum budget.
        sblock_exit_budget,
        /// Superblock probes that failed stamp validation.
        sblock_stale,
    }
}

impl PrXStats {
    /// Captures the fast-path counters for `pid`.
    pub fn capture(k: &Kernel, pid: Pid) -> SysResult<PrXStats> {
        let proc = k.proc(pid)?;
        let tlb = proc.aspace.tlb_stats();
        let mut st = PrXStats {
            enabled: u64::from(proc.aspace.fast_path_enabled()),
            tlb_hits: tlb.hits,
            tlb_misses: tlb.misses,
            tlb_invalidations: tlb.invalidations,
            tlb_frame_hits: tlb.frame_hits,
            page_epoch_bumps: proc.aspace.page_epoch_bumps(),
            ..PrXStats::default()
        };
        for lwp in &proc.lwps {
            st.insns += lwp.insns;
            let sb = lwp.sblocks.stats();
            st.sblock_built += sb.built;
            st.sblock_dispatched += sb.dispatched;
            st.sblock_insns += sb.insns;
            st.sblock_exit_end += sb.exit_end;
            st.sblock_exit_side += sb.exit_side;
            st.sblock_exit_trap += sb.exit_trap;
            st.sblock_exit_budget += sb.exit_budget;
            st.sblock_stale += sb.stale;
        }
        Ok(st)
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;

    #[test]
    fn prstatus_roundtrip() {
        let mut reg = GregSet::at(0x0100_0040);
        reg.set_sp(0x7FFF_0000);
        let st = PrStatus {
            flags: PR_STOPPED | PR_ISTOP,
            why: PrWhy::Faulted,
            what: 3,
            cursig: 0,
            sigpend: {
                let mut s = SigSet::empty();
                s.add(2);
                s
            },
            sighold: SigSet::empty(),
            pid: 42,
            ppid: 1,
            pgrp: 42,
            sid: 42,
            utime: 1000,
            stime: 0,
            nlwp: 2,
            who: 1,
            instr: 0x0000_0000_0000_0004,
            reg,
        };
        let b = st.to_bytes();
        assert_eq!(b.len(), PrStatus::WIRE_LEN);
        assert_eq!(PrStatus::from_bytes(&b).expect("roundtrip"), st);
    }

    #[test]
    fn psinfo_roundtrip_and_truncation() {
        let info = PsInfo {
            pid: 1,
            ppid: 0,
            pgrp: 1,
            sid: 1,
            uid: 100,
            gid: 10,
            size: 208896,
            rss: 4096,
            start: 0,
            time: 12345,
            state: b'S',
            nice: -5,
            nlwp: 1,
            fname: "a-very-long-command-name-that-will-truncate".to_string(),
            psargs: "x".repeat(200),
        };
        let b = info.to_bytes();
        assert_eq!(b.len(), PsInfo::WIRE_LEN);
        let back = PsInfo::from_bytes(&b).expect("roundtrip");
        assert_eq!(back.pid, 1);
        assert_eq!(back.nice, -5);
        assert_eq!(back.fname.len(), FNAME_LEN - 1);
        assert_eq!(back.psargs.len(), PSARGS_LEN - 1);
        assert_eq!(back.size, 208896);
    }

    #[test]
    fn prmap_roundtrip() {
        let m = PrMap {
            vaddr: 0x0100_0000,
            size: 26 * 1024,
            offset: 0,
            prot: 5,
            flags: PRMAP_GROWSDOWN,
            name: "text".to_string(),
        };
        let b = m.to_bytes();
        assert_eq!(b.len(), PrMap::WIRE_LEN);
        assert_eq!(PrMap::from_bytes(&b).expect("roundtrip"), m);
        assert_eq!(m.prot_string(), "read/exec");
        let list: Vec<u8> = [m.to_bytes(), m.to_bytes()].concat();
        assert_eq!(PrMap::decode_list(&list).len(), 2);
    }

    #[test]
    fn prcred_roundtrip() {
        let c = PrCred { ruid: 1, euid: 2, suid: 3, rgid: 4, egid: 5, sgid: 6, ngroups: 2 };
        assert_eq!(PrCred::from_bytes(&c.to_bytes()).expect("roundtrip"), c);
    }

    #[test]
    fn prrun_roundtrip_and_opts() {
        let r = PrRun { flags: PRRUN_CSIG | PRRUN_STEP | PRRUN_SVADDR, vaddr: 0x4000 };
        let back = PrRun::from_bytes(&r.to_bytes()).expect("roundtrip");
        assert_eq!(back, r);
        let opts = back.to_opts();
        assert!(opts.clear_sig);
        assert!(opts.step);
        assert_eq!(opts.set_pc, Some(0x4000));
        assert!(!opts.abort_syscall);
        // Empty buffer = default run.
        assert_eq!(PrRun::from_bytes(&[]).expect("empty"), PrRun::default());
    }

    #[test]
    fn prwatch_and_prusage_roundtrip() {
        let w = PrWatch { vaddr: 0x2000, size: 1, flags: 2 };
        assert_eq!(PrWatch::from_bytes(&w.to_bytes()).expect("roundtrip"), w);
        let u =
            PrUsage { cpu_ticks: 7, nlwp: 2, watch_recoveries: 3, start: 1, size: 8192, rss: 4096 };
        assert_eq!(PrUsage::from_bytes(&u.to_bytes()).expect("roundtrip"), u);
    }

    #[test]
    fn short_buffers_rejected() {
        assert!(PrStatus::from_bytes(&[0; 8]).is_none());
        assert!(PsInfo::from_bytes(&[0; 8]).is_none());
        assert!(PrMap::from_bytes(&[0; 8]).is_none());
        assert!(PrCred::from_bytes(&[0; 8]).is_none());
        assert!(PrRun::from_bytes(&[0; 8]).is_none());
        assert!(PrWatch::from_bytes(&[0; 8]).is_none());
        assert!(PrUsage::from_bytes(&[0; 8]).is_none());
    }
}
