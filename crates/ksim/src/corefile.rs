//! Core dump files.
//!
//! "If the action for the signal is SIG_DFL, psig() terminates the
//! process, possibly with a core dump." When a process dies by a
//! core-dumping signal, the kernel writes `/tmp/core.<pid>` (if `/tmp`
//! exists and is writable): a compact post-mortem image holding the
//! fatal signal, the machine state of the representative LWP, the memory
//! map, and the contents of the stack segment — enough for a post-mortem
//! debugger to produce a backtrace-grade diagnosis.

use isa::GregSet;
use vfs::{Errno, SysResult};

const MAGIC: &[u8; 8] = b"PSCORE\x01\0";

/// One mapping descriptor recorded in a core file.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CoreMap {
    /// Base virtual address.
    pub base: u64,
    /// Length in bytes.
    pub len: u64,
    /// Protection bits.
    pub prot: u32,
    /// Advisory name.
    pub name: String,
}

/// A parsed core image.
#[derive(Clone, Debug, PartialEq)]
pub struct Core {
    /// The dumped process.
    pub pid: u32,
    /// The fatal signal.
    pub sig: u32,
    /// Registers of the representative LWP at death.
    pub gregs: GregSet,
    /// The memory map at death.
    pub maps: Vec<CoreMap>,
    /// Base address of the dumped stack snapshot.
    pub stack_base: u64,
    /// The stack bytes (from the stack pointer's page to the top of the
    /// stack mapping, bounded).
    pub stack: Vec<u8>,
}

/// Upper bound on the stack snapshot stored in a core file.
pub const MAX_STACK_DUMP: usize = 64 * 1024;

impl Core {
    /// Serialises the image.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::new();
        out.extend_from_slice(MAGIC);
        out.extend_from_slice(&self.pid.to_le_bytes());
        out.extend_from_slice(&self.sig.to_le_bytes());
        out.extend_from_slice(&self.gregs.to_bytes());
        out.extend_from_slice(&(self.maps.len() as u32).to_le_bytes());
        for m in &self.maps {
            out.extend_from_slice(&m.base.to_le_bytes());
            out.extend_from_slice(&m.len.to_le_bytes());
            out.extend_from_slice(&m.prot.to_le_bytes());
            out.extend_from_slice(&(m.name.len() as u32).to_le_bytes());
            out.extend_from_slice(m.name.as_bytes());
        }
        out.extend_from_slice(&self.stack_base.to_le_bytes());
        out.extend_from_slice(&(self.stack.len() as u64).to_le_bytes());
        out.extend_from_slice(&self.stack);
        out
    }

    /// Parses a core image.
    pub fn from_bytes(b: &[u8]) -> SysResult<Core> {
        let mut pos = 0usize;
        let take = |pos: &mut usize, n: usize| -> SysResult<&[u8]> {
            if *pos + n > b.len() {
                return Err(Errno::EINVAL);
            }
            let s = &b[*pos..*pos + n];
            *pos += n;
            Ok(s)
        };
        if take(&mut pos, 8)? != MAGIC {
            return Err(Errno::EINVAL);
        }
        let u32_at =
            |pos: &mut usize| -> SysResult<u32> { Ok(crate::bytes::le_u32(take(pos, 4)?)) };
        let u64_at =
            |pos: &mut usize| -> SysResult<u64> { Ok(crate::bytes::le_u64(take(pos, 8)?)) };
        let pid = u32_at(&mut pos)?;
        let sig = u32_at(&mut pos)?;
        let gregs = GregSet::from_bytes(take(&mut pos, GregSet::WIRE_LEN)?).ok_or(Errno::EINVAL)?;
        let nmaps = u32_at(&mut pos)? as usize;
        if nmaps > 4096 {
            return Err(Errno::EINVAL);
        }
        let mut maps = Vec::with_capacity(nmaps);
        for _ in 0..nmaps {
            let base = u64_at(&mut pos)?;
            let len = u64_at(&mut pos)?;
            let prot = u32_at(&mut pos)?;
            let nlen = u32_at(&mut pos)? as usize;
            let name = String::from_utf8_lossy(take(&mut pos, nlen)?).into_owned();
            maps.push(CoreMap { base, len, prot, name });
        }
        let stack_base = u64_at(&mut pos)?;
        let stack_len = u64_at(&mut pos)? as usize;
        if stack_len > MAX_STACK_DUMP {
            return Err(Errno::EINVAL);
        }
        let stack = take(&mut pos, stack_len)?.to_vec();
        Ok(Core { pid, sig, gregs, maps, stack_base, stack })
    }

    /// Reads a 64-bit word from the dumped stack, if covered.
    pub fn stack_word(&self, addr: u64) -> Option<u64> {
        let off = addr.checked_sub(self.stack_base)? as usize;
        let bytes = self.stack.get(off..off + 8)?;
        Some(crate::bytes::le_u64(bytes))
    }
}

impl crate::system::System {
    /// Builds the core image of a dying process (before its address
    /// space is torn down). Returns `None` for hosted processes or when
    /// nothing useful can be captured.
    pub(crate) fn capture_core(&self, pid: vfs::Pid, sig: usize) -> Option<Core> {
        let proc = self.kernel.proc(pid).ok()?;
        if proc.hosted || proc.aspace.mappings().is_empty() {
            return None;
        }
        let lwp = proc.rep_lwp();
        let maps: Vec<CoreMap> = proc
            .aspace
            .mappings()
            .iter()
            .map(|m| CoreMap {
                base: m.base,
                len: m.len,
                prot: m.prot.to_bits(),
                name: m.name.to_string(),
            })
            .collect();
        // Stack snapshot: from the page under the stack pointer to the
        // end of its mapping, bounded.
        let sp = lwp.gregs.sp();
        let (stack_base, stack) = match proc.aspace.find(sp) {
            Some(m) => {
                let base = sp & !(vm::PAGE_SIZE - 1);
                let len = ((m.base + m.len - base) as usize).min(MAX_STACK_DUMP);
                let mut buf = vec![0u8; len];
                if proc.aspace.kernel_read(&self.kernel.objects, base, &mut buf).is_err() {
                    buf.clear();
                }
                (base, buf)
            }
            None => (0, Vec::new()),
        };
        Some(Core {
            pid: pid.0,
            sig: sig as u32,
            gregs: lwp.gregs.clone(),
            maps,
            stack_base,
            stack,
        })
    }

    /// Writes the core image to `/tmp/core.<pid>`, silently doing nothing
    /// when `/tmp` is missing or unwritable by the dying process (the
    /// classic behaviour).
    pub(crate) fn write_core(&mut self, pid: vfs::Pid, sig: usize) {
        let Some(core) = self.capture_core(pid, sig) else { return };
        let cred = match self.kernel.proc(pid) {
            Ok(p) => p.cred.clone(),
            Err(_) => return,
        };
        let path = format!("/tmp/core.{}", pid.0);
        let Ok((fsid, dir, _)) = self.resolve_parent(pid, &path) else {
            return;
        };
        if fsid != 0 {
            return;
        }
        let crate::system::System { kernel, fss, .. } = self;
        let crate::system::FsSlot::Mem(memfs) = &mut fss[0] else { return };
        let Ok(meta) = vfs::FileSystem::getattr(memfs, kernel, dir) else {
            return;
        };
        if !cred.file_access(meta.mode, meta.uid, meta.gid, 2) {
            return;
        }
        memfs.install(&path, 0o600, cred.ruid, cred.rgid, core.to_bytes());
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;

    #[test]
    fn core_roundtrip() {
        let mut g = GregSet::at(0x100_0040);
        g.set_sp(0x7FFF_0000);
        let core = Core {
            pid: 42,
            sig: 11,
            gregs: g,
            maps: vec![CoreMap { base: 0x100_0000, len: 8192, prot: 5, name: "text".into() }],
            stack_base: 0x7FFE_F000,
            stack: vec![1, 2, 3, 4, 5, 6, 7, 8, 9, 10],
        };
        let parsed = Core::from_bytes(&core.to_bytes()).expect("roundtrip");
        assert_eq!(parsed, core);
        assert_eq!(
            parsed.stack_word(0x7FFE_F000),
            Some(u64::from_le_bytes([1, 2, 3, 4, 5, 6, 7, 8]))
        );
        assert_eq!(parsed.stack_word(0x7FFE_F003), None, "past the snapshot");
    }

    #[test]
    fn bad_core_rejected() {
        assert_eq!(Core::from_bytes(b"nope"), Err(Errno::EINVAL));
        assert_eq!(Core::from_bytes(&[]), Err(Errno::EINVAL));
    }
}
