//! Single-process checkpoint/restore: the paper's network-transparency
//! claim taken to its logical end.
//!
//! `PIOCCKPT` serialises a stopped process — registers, identity,
//! held-signal mask and the full address-space image — into one byte
//! vector; `PIOCRESTORE` applies such an image to another stopped
//! process, replacing its state wholesale. Both travel through the
//! ordinary `/proc` ioctl path, so a process can be checkpointed on one
//! mount and restored through a remote mount on "another machine" —
//! migration over the wire.
//!
//! The image is self-describing and sparse: every mapping records its
//! geometry (base, length, protections, flags, segment name) plus only
//! its non-zero pages, so a small guest images in a few kilobytes even
//! with a large stack reservation. Restored mappings are always backed
//! by fresh anonymous objects — a restored process shares no pages with
//! its source (a migrated process cannot, and the checkpoint captures
//! content, not identity).

use crate::bytes::le_u64;
use crate::kernel::Kernel;
use crate::proc::LwpState;
use crate::signal::SigSet;
use vfs::{Errno, Pid, SysResult};
use vm::{MapFlags, Prot, SegName, PAGE_SIZE};

/// Magic + version header of a checkpoint image.
pub const CKPT_MAGIC: &[u8; 8] = b"PSCKPT01";

/// Upper bound on a checkpoint image (and therefore on the
/// `PIOCCKPT`/`PIOCRESTORE` wire argument). Images beyond this fail
/// with `EFBIG` rather than overrunning the wire queue caps.
pub const CKPT_MAX: usize = 128 * 1024;

fn enc_str(s: &str, out: &mut Vec<u8>) {
    out.extend_from_slice(&(s.len() as u64).to_le_bytes());
    out.extend_from_slice(s.as_bytes());
}

fn seg_tag(name: &SegName) -> (u8, Option<&str>) {
    match name {
        SegName::Text => (0, None),
        SegName::Data => (1, None),
        SegName::Bss => (2, None),
        SegName::Stack => (3, None),
        SegName::Break => (4, None),
        SegName::LibText(n) => (5, Some(n)),
        SegName::LibData(n) => (6, Some(n)),
        SegName::Anon => (7, None),
        SegName::Mapped => (8, None),
    }
}

fn seg_untag(tag: u8, name: String) -> SysResult<SegName> {
    Ok(match tag {
        0 => SegName::Text,
        1 => SegName::Data,
        2 => SegName::Bss,
        3 => SegName::Stack,
        4 => SegName::Break,
        5 => SegName::LibText(name),
        6 => SegName::LibData(name),
        7 => SegName::Anon,
        8 => SegName::Mapped,
        _ => return Err(Errno::EINVAL),
    })
}

/// Validates that `pid` is a live, single-LWP process stopped on an
/// event — the only state a checkpoint or restore is coherent in.
fn check_target(k: &Kernel, pid: Pid) -> SysResult<()> {
    let proc = k.proc(pid)?;
    if proc.zombie {
        return Err(Errno::ESRCH);
    }
    if proc.lwps.len() != 1 {
        return Err(Errno::EINVAL);
    }
    if !matches!(proc.lwps[0].state, LwpState::Stopped(_)) {
        return Err(Errno::EBUSY);
    }
    Ok(())
}

/// Serialises the stopped process `pid` into a checkpoint image.
pub fn checkpoint(k: &mut Kernel, pid: Pid) -> SysResult<Vec<u8>> {
    check_target(k, pid)?;
    let proc = k.proc(pid)?;
    let lwp = &proc.lwps[0];
    let mut out = Vec::new();
    out.extend_from_slice(CKPT_MAGIC);
    enc_str(&proc.fname, &mut out);
    enc_str(&proc.psargs, &mut out);
    out.extend_from_slice(&lwp.gregs.to_bytes());
    out.extend_from_slice(&lwp.fpregs.to_bytes());
    out.extend_from_slice(&lwp.held.to_bytes());
    out.extend_from_slice(&proc.aspace.stack_limit.to_le_bytes());
    let maps = proc.aspace.mappings();
    out.extend_from_slice(&(maps.len() as u64).to_le_bytes());
    for m in maps {
        out.extend_from_slice(&m.base.to_le_bytes());
        out.extend_from_slice(&m.len.to_le_bytes());
        out.push((m.prot.read as u8) | (m.prot.write as u8) << 1 | (m.prot.exec as u8) << 2);
        out.push(
            (m.flags.shared as u8)
                | (m.flags.grows_down as u8) << 1
                | (m.flags.is_break as u8) << 2,
        );
        let (tag, name) = seg_tag(&m.name);
        out.push(tag);
        enc_str(name.unwrap_or(""), &mut out);
        // Sparse content: only pages with any non-zero byte.
        let npages = m.len / PAGE_SIZE;
        let mut pages: Vec<(u64, Vec<u8>)> = Vec::new();
        let mut buf = vec![0u8; PAGE_SIZE as usize];
        for p in 0..npages {
            if proc.aspace.kernel_read(&k.objects, m.base + p * PAGE_SIZE, &mut buf).is_err() {
                continue;
            }
            if buf.iter().any(|&b| b != 0) {
                pages.push((p, buf.clone()));
            }
        }
        out.extend_from_slice(&(pages.len() as u64).to_le_bytes());
        for (p, bytes) in pages {
            out.extend_from_slice(&p.to_le_bytes());
            out.extend_from_slice(&bytes);
        }
    }
    if out.len() > CKPT_MAX {
        return Err(Errno::EFBIG);
    }
    if let Some(r) = k.recorder.as_mut() {
        r.stats.ckpts += 1;
    }
    Ok(out)
}

/// A bounds-checked little-endian cursor over a checkpoint image.
struct Cur<'a> {
    b: &'a [u8],
    pos: usize,
}

impl<'a> Cur<'a> {
    fn take(&mut self, n: usize) -> SysResult<&'a [u8]> {
        let end = self.pos.checked_add(n).ok_or(Errno::EINVAL)?;
        if end > self.b.len() {
            return Err(Errno::EINVAL);
        }
        let s = &self.b[self.pos..end];
        self.pos = end;
        Ok(s)
    }

    fn u64(&mut self) -> SysResult<u64> {
        Ok(le_u64(self.take(8)?))
    }

    fn u8(&mut self) -> SysResult<u8> {
        Ok(self.take(1)?[0])
    }

    fn str(&mut self) -> SysResult<String> {
        let n = self.u64()? as usize;
        if n > CKPT_MAX {
            return Err(Errno::EINVAL);
        }
        String::from_utf8(self.take(n)?.to_vec()).map_err(|_| Errno::EINVAL)
    }
}

/// Applies a checkpoint image to the stopped process `pid`, replacing
/// its registers, identity and entire address space. The process stays
/// stopped; resume it with `PIOCRUN` as usual.
pub fn restore(k: &mut Kernel, pid: Pid, image: &[u8]) -> SysResult<()> {
    check_target(k, pid)?;
    if image.len() > CKPT_MAX {
        return Err(Errno::EFBIG);
    }
    let mut c = Cur { b: image, pos: 0 };
    if c.take(CKPT_MAGIC.len())? != CKPT_MAGIC {
        return Err(Errno::EINVAL);
    }
    let fname = c.str()?;
    let psargs = c.str()?;
    let gregs = isa::GregSet::from_bytes(c.take(isa::GregSet::WIRE_LEN)?).ok_or(Errno::EINVAL)?;
    let fpregs =
        isa::FpregSet::from_bytes(c.take(isa::FpregSet::WIRE_LEN)?).ok_or(Errno::EINVAL)?;
    let held = SigSet::from_bytes(c.take(SigSet::WIRE_LEN)?).ok_or(Errno::EINVAL)?;
    let stack_limit = c.u64()?;
    let nmaps = c.u64()? as usize;
    if nmaps > 1024 {
        return Err(Errno::EINVAL);
    }
    // Parse every mapping fully before mutating the target, so a
    // malformed image has zero side effects.
    struct Seg {
        base: u64,
        len: u64,
        prot: Prot,
        flags: MapFlags,
        name: SegName,
        pages: Vec<(u64, Vec<u8>)>,
    }
    let mut segs = Vec::with_capacity(nmaps);
    for _ in 0..nmaps {
        let base = c.u64()?;
        let len = c.u64()?;
        let pb = c.u8()?;
        let fb = c.u8()?;
        let tag = c.u8()?;
        let name = c.str()?;
        let npages = c.u64()? as usize;
        if len == 0 || npages > (CKPT_MAX / PAGE_SIZE as usize) + 1 {
            return Err(Errno::EINVAL);
        }
        let mut pages = Vec::with_capacity(npages);
        for _ in 0..npages {
            let p = c.u64()?;
            if p >= len / PAGE_SIZE {
                return Err(Errno::EINVAL);
            }
            pages.push((p, c.take(PAGE_SIZE as usize)?.to_vec()));
        }
        segs.push(Seg {
            base,
            len,
            prot: Prot { read: pb & 1 != 0, write: pb & 2 != 0, exec: pb & 4 != 0 },
            flags: MapFlags { shared: fb & 1 != 0, grows_down: fb & 2 != 0, is_break: fb & 4 != 0 },
            name: seg_untag(tag, name)?,
            pages,
        });
    }
    let Kernel { procs, objects, .. } = k;
    let Some(proc) = procs.get_mut(&pid.0) else {
        return Err(Errno::ESRCH);
    };
    proc.aspace.clear(objects);
    for seg in &segs {
        let obj = objects.alloc_anon(seg.len);
        proc.aspace
            .map_fixed(seg.base, seg.len, seg.prot, seg.flags, obj, 0, seg.name.clone())
            .map_err(|_| Errno::EINVAL)?;
    }
    for seg in &segs {
        for (p, bytes) in &seg.pages {
            proc.aspace
                .kernel_write(objects, seg.base + p * PAGE_SIZE, bytes)
                .map_err(|_| Errno::EINVAL)?;
        }
    }
    proc.aspace.stack_limit = stack_limit;
    proc.fname = fname;
    proc.psargs = psargs;
    let lwp = &mut proc.lwps[0];
    lwp.gregs = gregs;
    lwp.gregs.normalize();
    lwp.fpregs = fpregs;
    lwp.held = held;
    lwp.cursig = None;
    lwp.last_fault = None;
    lwp.single_step = false;
    lwp.syscall = None;
    proc.touch();
    if let Some(r) = k.recorder.as_mut() {
        r.stats.ckpts += 1;
    }
    Ok(())
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;

    #[test]
    fn checkpoint_requires_stopped_single_lwp() {
        let mut k = Kernel::new();
        let pid = k.new_proc(Pid(0), Pid(0), Pid(0), vfs::Cred::new(1, 1), "t", false);
        // Runnable: EBUSY.
        assert_eq!(checkpoint(&mut k, pid).unwrap_err(), Errno::EBUSY);
        // Missing: ESRCH.
        assert_eq!(checkpoint(&mut k, Pid(99)).unwrap_err(), Errno::ESRCH);
    }

    #[test]
    fn malformed_image_rejected_without_side_effects() {
        let mut k = Kernel::new();
        let pid = k.new_proc(Pid(0), Pid(0), Pid(0), vfs::Cred::new(1, 1), "t", false);
        k.procs.get_mut(&pid.0).unwrap().lwps[0].state =
            LwpState::Stopped(crate::proc::StopWhy::Requested);
        let before = k.proc(pid).unwrap().fname.clone();
        assert_eq!(restore(&mut k, pid, b"not a checkpoint"), Err(Errno::EINVAL));
        assert_eq!(k.proc(pid).unwrap().fname, before);
    }
}
