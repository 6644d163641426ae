//! Live guest migration: the destination half of `PIOCMIGRATE`.
//!
//! A migration moves a `PIOCCKPT` image of one stopped guest from a
//! source [`crate::System`] into a destination `System`, typically over
//! the fault-injected remote `/proc` wire. The image travels as
//! chunked, resumable, idempotency-classed sub-operations multiplexed
//! through one ioctl request — `PIOCMIGRATE` on the *destination's*
//! placeholder process:
//!
//! ```text
//! BEGIN  {xfer, total, digest}   create / resume a transfer
//! CHUNK  {xfer, offset, data}    append image bytes at offset
//! COMMIT {xfer, digest}          verify digest, restore into target
//! ABORT  {xfer}                  drop the transfer
//! ```
//!
//! Every reply carries `next_off`, the byte offset the destination
//! expects next, so a driver that lost a reply (wire `ETIMEDOUT`)
//! resynchronises by re-reading it instead of restarting. The ops are
//! idempotent at the protocol level — a re-sent `BEGIN` with identical
//! parameters resumes, a `CHUNK` below `next_off` is a counted
//! duplicate, a repeated `COMMIT` of a completed transfer succeeds
//! without restoring twice — which combines with the wire layer's
//! sequenced-op dedup to make the whole transfer exactly-once under
//! retry storms.
//!
//! The destination materialises nothing until `COMMIT`: the end-to-end
//! FNV-1a digest (see [`crate::record::fnv`]) over the complete image
//! must match both the `BEGIN` and the `COMMIT` stamp, and the restore
//! itself parses the image fully before mutating the target. Any
//! failure leaves the destination guest untouched and the transfer
//! either resumable or dropped; the source is never involved past
//! checkpoint time, so it is trivially left running on abort.

use crate::kernel::Kernel;
use crate::record::fnv;
use vfs::remote::WireReader;
use vfs::{Errno, Pid, SysResult};

/// Sub-operation: create or resume a transfer.
pub const MIG_OP_BEGIN: u8 = 0;
/// Sub-operation: append image bytes.
pub const MIG_OP_CHUNK: u8 = 1;
/// Sub-operation: verify and materialise.
pub const MIG_OP_COMMIT: u8 = 2;
/// Sub-operation: drop the transfer.
pub const MIG_OP_ABORT: u8 = 3;

/// Largest chunk a driver should send (fits comfortably inside the wire
/// layer's frame and queue limits even with duplication floods).
pub const MIG_CHUNK_MAX: usize = 4096;

/// Reply status byte: the sub-operation succeeded.
pub const MIG_ST_OK: u8 = 0;
/// Reply status byte: the sub-operation was rejected; the reply errno
/// says why and `next_off` says where to resume (when resumable).
pub const MIG_ST_ERR: u8 = 1;

/// Fixed reply length: status u8 | errno i32 | next_off u64 | detail u64.
pub const MIG_REPLY_LEN: usize = 1 + 4 + 8 + 8;

/// Bound on concurrently open inbound transfers; BEGIN beyond it sheds
/// with `EAGAIN`.
pub const MIG_XFERS_MAX: usize = 8;

/// One inbound transfer on the destination kernel.
#[derive(Clone, Debug)]
pub struct MigXfer {
    /// Total image length promised by `BEGIN`.
    pub total: u64,
    /// End-to-end digest promised by `BEGIN`.
    pub digest: u64,
    /// Image bytes received so far (always a prefix: chunks append in
    /// order, out-of-order offsets are bounced with `next_off`).
    pub buf: Vec<u8>,
    /// Pid the image was restored into, once `COMMIT` succeeded. Kept so
    /// a retried `COMMIT` is idempotent instead of restoring twice.
    pub done: Option<u32>,
}

vfs::counters! {
    /// Migration protocol counters, marshalled little-endian for
    /// `PIOCMIGSTATS`.
    pub struct MigStats {
        /// Transfers opened by `BEGIN`.
        begins,
        /// Chunks accepted in sequence.
        chunks,
        /// Image bytes accepted.
        bytes,
        /// Duplicate or out-of-order chunks absorbed idempotently.
        dup_chunks,
        /// Transfers committed (guest materialised).
        commits,
        /// Transfers dropped by `ABORT`.
        aborts,
        /// Commits rejected because the received image's digest did not
        /// match the promised one.
        digest_mismatches,
        /// `BEGIN`s that resumed an existing transfer after a lost reply.
        resumes,
    }
}

/// A typed migration failure as the *driver* sees it. Protocol-level
/// rejections arrive as `MIG_ST_ERR` replies and are rebuilt into this;
/// transport-level failures (the wire gave up) map to `Transport`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum MigrateError {
    /// The wire itself failed (retry budget exhausted, queues shed, the
    /// mount refused the descriptor).
    Transport(Errno),
    /// The destination rejected a sub-operation.
    Rejected {
        /// Which sub-operation ("begin", "chunk", "commit", "abort").
        op: &'static str,
        /// The destination's errno.
        errno: Errno,
    },
    /// The destination's end-to-end digest check failed.
    DigestMismatch {
        /// Digest the source promised.
        expected: u64,
        /// Digest the destination computed.
        got: u64,
    },
    /// The checkpoint image exceeds the transferable bound.
    TooLarge(usize),
    /// The destination's replies stopped making protocol sense.
    Protocol(&'static str),
}

impl std::fmt::Display for MigrateError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            MigrateError::Transport(e) => write!(f, "migrate: transport failed: {e:?}"),
            MigrateError::Rejected { op, errno } => {
                write!(f, "migrate: destination rejected {op}: {errno:?}")
            }
            MigrateError::DigestMismatch { expected, got } => write!(
                f,
                "migrate: image digest mismatch: expected {expected:#018x}, got {got:#018x}"
            ),
            MigrateError::TooLarge(n) => write!(f, "migrate: image too large ({n} bytes)"),
            MigrateError::Protocol(what) => write!(f, "migrate: protocol error: {what}"),
        }
    }
}

impl std::error::Error for MigrateError {}

/// One decoded `PIOCMIGRATE` reply.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct MigReply {
    /// [`MIG_ST_OK`] or [`MIG_ST_ERR`].
    pub status: u8,
    /// Errno explaining a rejection (0 on success).
    pub errno: i32,
    /// Byte offset the destination expects next.
    pub next_off: u64,
    /// Op-specific detail: the materialised pid on a committed transfer,
    /// the computed digest on a digest mismatch, else 0.
    pub detail: u64,
}

impl MigReply {
    fn ok(next_off: u64, detail: u64) -> MigReply {
        MigReply { status: MIG_ST_OK, errno: 0, next_off, detail }
    }

    fn err(errno: Errno, next_off: u64, detail: u64) -> MigReply {
        MigReply { status: MIG_ST_ERR, errno: errno as i32, next_off, detail }
    }

    /// Serialises to the fixed [`MIG_REPLY_LEN`] reply image.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(MIG_REPLY_LEN);
        out.push(self.status);
        out.extend_from_slice(&self.errno.to_le_bytes());
        out.extend_from_slice(&self.next_off.to_le_bytes());
        out.extend_from_slice(&self.detail.to_le_bytes());
        out
    }

    /// Deserialises a reply image; `None` if too short.
    pub fn from_bytes(b: &[u8]) -> Option<MigReply> {
        if b.len() < MIG_REPLY_LEN {
            return None;
        }
        let errno = i32::from_le_bytes([b[1], b[2], b[3], b[4]]);
        let u = |i: usize| crate::bytes::le_u64(&b[i..]);
        Some(MigReply { status: b[0], errno, next_off: u(5), detail: u(13) })
    }
}

/// Builds a `BEGIN` argument.
pub fn arg_begin(xfer: u64, total: u64, digest: u64) -> Vec<u8> {
    let mut out = vec![MIG_OP_BEGIN];
    out.extend_from_slice(&xfer.to_le_bytes());
    out.extend_from_slice(&total.to_le_bytes());
    out.extend_from_slice(&digest.to_le_bytes());
    out
}

/// Builds a `CHUNK` argument.
pub fn arg_chunk(xfer: u64, offset: u64, data: &[u8]) -> Vec<u8> {
    let mut out = vec![MIG_OP_CHUNK];
    out.extend_from_slice(&xfer.to_le_bytes());
    out.extend_from_slice(&offset.to_le_bytes());
    out.extend_from_slice(&(data.len() as u32).to_le_bytes());
    out.extend_from_slice(data);
    out
}

/// Builds a `COMMIT` argument.
pub fn arg_commit(xfer: u64, digest: u64) -> Vec<u8> {
    let mut out = vec![MIG_OP_COMMIT];
    out.extend_from_slice(&xfer.to_le_bytes());
    out.extend_from_slice(&digest.to_le_bytes());
    out
}

/// Builds an `ABORT` argument.
pub fn arg_abort(xfer: u64) -> Vec<u8> {
    let mut out = vec![MIG_OP_ABORT];
    out.extend_from_slice(&xfer.to_le_bytes());
    out
}

/// Handles one `PIOCMIGRATE` ioctl on the destination kernel. `target`
/// is the process the descriptor names — the placeholder the image will
/// be restored into at `COMMIT`. Malformed arguments are `EINVAL` at
/// the ioctl layer; protocol rejections ride an ok ioctl reply with
/// `MIG_ST_ERR` inside so the wire's retry machinery never re-runs a
/// rejected mutation.
pub fn handle(k: &mut Kernel, target: Pid, arg: &[u8]) -> SysResult<Vec<u8>> {
    let mut r = WireReader::new(arg);
    let op = r.u8().map_err(|_| Errno::EINVAL)?;
    let xfer = r.u64().map_err(|_| Errno::EINVAL)?;
    let reply = match op {
        MIG_OP_BEGIN => {
            let total = r.u64().map_err(|_| Errno::EINVAL)?;
            let digest = r.u64().map_err(|_| Errno::EINVAL)?;
            begin(k, xfer, total, digest)
        }
        MIG_OP_CHUNK => {
            let offset = r.u64().map_err(|_| Errno::EINVAL)?;
            let data = dec_chunk(&mut r)?;
            chunk(k, xfer, offset, data)
        }
        MIG_OP_COMMIT => {
            let digest = r.u64().map_err(|_| Errno::EINVAL)?;
            commit(k, target, xfer, digest)
        }
        MIG_OP_ABORT => {
            k.mig_stats.aborts += 1;
            k.migrations.remove(&xfer);
            MigReply::ok(0, 0)
        }
        _ => return Err(Errno::EINVAL),
    };
    Ok(reply.to_bytes())
}

fn dec_chunk<'a>(r: &mut WireReader<'a>) -> SysResult<&'a [u8]> {
    let n = r.u32().map_err(|_| Errno::EINVAL)? as usize;
    if n > MIG_CHUNK_MAX {
        return Err(Errno::EINVAL);
    }
    r.take(n).map_err(|_| Errno::EINVAL)
}

fn begin(k: &mut Kernel, xfer: u64, total: u64, digest: u64) -> MigReply {
    if total > crate::ckpt::CKPT_MAX as u64 {
        return MigReply::err(Errno::EFBIG, 0, 0);
    }
    if let Some(x) = k.migrations.get(&xfer) {
        if x.total == total && x.digest == digest {
            // Lost-reply retry: resume where the bytes stopped.
            k.mig_stats.resumes += 1;
            return MigReply::ok(x.buf.len() as u64, 0);
        }
        return MigReply::err(Errno::EBUSY, x.buf.len() as u64, 0);
    }
    if k.migrations.len() >= MIG_XFERS_MAX {
        return MigReply::err(Errno::EAGAIN, 0, 0);
    }
    k.mig_stats.begins += 1;
    k.migrations.insert(xfer, MigXfer { total, digest, buf: Vec::new(), done: None });
    MigReply::ok(0, 0)
}

fn chunk(k: &mut Kernel, xfer: u64, offset: u64, data: &[u8]) -> MigReply {
    let Some(x) = k.migrations.get_mut(&xfer) else {
        return MigReply::err(Errno::ENOENT, 0, 0);
    };
    let next = x.buf.len() as u64;
    if x.done.is_some() || offset < next {
        // Duplicate delivery (wire-level duplication or driver re-send
        // after a lost reply): already applied, absorb idempotently.
        k.mig_stats.dup_chunks += 1;
        return MigReply::ok(next, 0);
    }
    if offset > next {
        // A gap: an earlier chunk died on the wire. Not an error — the
        // reply's next_off tells the driver where to rewind.
        return MigReply::ok(next, 0);
    }
    if next + data.len() as u64 > x.total {
        return MigReply::err(Errno::EFBIG, next, 0);
    }
    x.buf.extend_from_slice(data);
    k.mig_stats.chunks += 1;
    k.mig_stats.bytes += data.len() as u64;
    MigReply::ok(x.buf.len() as u64, 0)
}

fn commit(k: &mut Kernel, target: Pid, xfer: u64, digest: u64) -> MigReply {
    let Some(x) = k.migrations.get(&xfer) else {
        return MigReply::err(Errno::ENOENT, 0, 0);
    };
    if let Some(pid) = x.done {
        // Retried COMMIT after a lost reply: already materialised.
        return MigReply::ok(x.total, pid as u64);
    }
    let next = x.buf.len() as u64;
    if next != x.total {
        return MigReply::err(Errno::EINVAL, next, 0);
    }
    let got = fnv(&x.buf);
    if got != digest || got != x.digest {
        // The image that arrived is not the image that was promised.
        // Nothing materialises; the transfer is dropped so a fresh
        // attempt starts clean.
        k.mig_stats.digest_mismatches += 1;
        k.migrations.remove(&xfer);
        return MigReply::err(Errno::EIO, 0, got);
    }
    let image = x.buf.clone();
    match crate::ckpt::restore(k, target, &image) {
        Ok(()) => {
            k.mig_stats.commits += 1;
            if let Some(x) = k.migrations.get_mut(&xfer) {
                x.done = Some(target.0);
                x.buf.clear(); // image applied; keep only the receipt
            }
            MigReply::ok(image.len() as u64, target.0 as u64)
        }
        // restore() parses before mutating, so the target is untouched;
        // the transfer stays resumable (the driver may retry COMMIT once
        // the placeholder is stopped, or ABORT).
        Err(e) => MigReply::err(e, next, 0),
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;

    #[test]
    fn reply_roundtrip() {
        let r = MigReply { status: MIG_ST_ERR, errno: Errno::EIO as i32, next_off: 7, detail: 9 };
        assert_eq!(MigReply::from_bytes(&r.to_bytes()), Some(r));
        assert_eq!(MigReply::from_bytes(&[0u8; MIG_REPLY_LEN - 1]), None);
    }

    #[test]
    fn mig_stats_roundtrip() {
        let st = MigStats {
            begins: 1,
            chunks: 2,
            bytes: 3,
            dup_chunks: 4,
            commits: 5,
            aborts: 6,
            digest_mismatches: 7,
            resumes: 8,
        };
        assert_eq!(MigStats::from_bytes(&st.to_bytes()), Some(st));
        assert!(MigStats::from_bytes(&[0u8; 8]).is_none());
    }

    #[test]
    fn begin_chunk_sequencing_is_idempotent() {
        let mut k = Kernel::new();
        let img = vec![7u8; 100];
        let digest = fnv(&img);
        let ok = |b: &[u8]| MigReply::from_bytes(b).unwrap();
        let r = ok(&handle(&mut k, Pid(1), &arg_begin(42, 100, digest)).unwrap());
        assert_eq!((r.status, r.next_off), (MIG_ST_OK, 0));
        // Duplicate BEGIN resumes.
        let r = ok(&handle(&mut k, Pid(1), &arg_begin(42, 100, digest)).unwrap());
        assert_eq!((r.status, r.next_off), (MIG_ST_OK, 0));
        assert_eq!(k.mig_stats.resumes, 1);
        // Conflicting BEGIN is rejected.
        let r = ok(&handle(&mut k, Pid(1), &arg_begin(42, 50, 1)).unwrap());
        assert_eq!(r.status, MIG_ST_ERR);
        // In-order chunk advances; replaying it is absorbed.
        let r = ok(&handle(&mut k, Pid(1), &arg_chunk(42, 0, &img[..60])).unwrap());
        assert_eq!(r.next_off, 60);
        let r = ok(&handle(&mut k, Pid(1), &arg_chunk(42, 0, &img[..60])).unwrap());
        assert_eq!((r.status, r.next_off), (MIG_ST_OK, 60));
        assert_eq!(k.mig_stats.dup_chunks, 1);
        // A gap bounces with the resume offset, applying nothing.
        let r = ok(&handle(&mut k, Pid(1), &arg_chunk(42, 90, &img[90..])).unwrap());
        assert_eq!((r.status, r.next_off), (MIG_ST_OK, 60));
        assert_eq!(k.migrations.get(&42).unwrap().buf.len(), 60);
    }

    #[test]
    fn commit_checks_digest_before_touching_anything() {
        let mut k = Kernel::new();
        let img = vec![9u8; 16];
        let bad_digest = fnv(&img) ^ 1;
        let ok = |b: &[u8]| MigReply::from_bytes(b).unwrap();
        handle(&mut k, Pid(1), &arg_begin(1, 16, bad_digest)).unwrap();
        handle(&mut k, Pid(1), &arg_chunk(1, 0, &img)).unwrap();
        let r = ok(&handle(&mut k, Pid(1), &arg_commit(1, bad_digest)).unwrap());
        assert_eq!((r.status, r.errno), (MIG_ST_ERR, Errno::EIO as i32));
        assert_eq!(r.detail, fnv(&img));
        assert_eq!(k.mig_stats.digest_mismatches, 1);
        assert!(k.migrations.is_empty(), "mismatched transfer dropped");
        assert!(k.procs.is_empty(), "nothing materialised");
    }

    #[test]
    fn malformed_args_are_einval() {
        let mut k = Kernel::new();
        assert_eq!(handle(&mut k, Pid(1), &[]), Err(Errno::EINVAL));
        assert_eq!(handle(&mut k, Pid(1), &[MIG_OP_BEGIN, 1, 2]), Err(Errno::EINVAL));
        assert_eq!(handle(&mut k, Pid(1), &[99, 0, 0, 0, 0, 0, 0, 0, 0]), Err(Errno::EINVAL));
        let mut trunc = arg_chunk(5, 0, &[1, 2, 3]);
        trunc.pop();
        assert_eq!(handle(&mut k, Pid(1), &trunc), Err(Errno::EINVAL));
    }
}
