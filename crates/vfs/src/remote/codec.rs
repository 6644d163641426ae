//! The codec layer: every image is framed with a magic, a tag, a length
//! and a CRC-32, and a damaged frame is rejected with a distinct
//! [`WireError`], never misparsed. Each operation's request is
//! marshalled once here, paired with the parser for its reply, and both
//! faces submit it unchanged; [`serve`] is the other half, executing a
//! request body against the served file system.

use super::WireStats;
use crate::cred::Cred;
use crate::errno::{Errno, SysResult};
use crate::fs::{FileSystem, IoReply, IoctlReply, OFlags, OpenToken, PollStatus};
use crate::node::{DirEntry, Metadata, NodeId, Pid, VnodeKind};

/// How a frame failed validation. Distinct from an [`Errno`] so tests
/// can tell "the wire rejected a damaged image" apart from "the server
/// refused the operation"; at the system-call boundary every wire error
/// degrades to `EIO`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum WireError {
    /// The frame is shorter than its header claims.
    Truncated,
    /// The magic or CRC does not match (bit damage).
    Corrupt,
    /// The frame validated but its contents don't parse.
    Malformed,
}

impl From<WireError> for Errno {
    fn from(_: WireError) -> Errno {
        Errno::EIO
    }
}

/// Frame magic ("/proc wire", v2: tagged concurrent sessions).
const FRAME_MAGIC: u32 = 0x70F5_57E2;
/// Frame header: magic + tag + body length + CRC-32.
pub const FRAME_HEADER: usize = 4 + 8 + 4 + 4;
/// Largest believable frame body while resynchronising a byte stream;
/// a corrupted length field beyond this is junk, not a frame to wait
/// for.
pub const MAX_BODY: usize = 1 << 20;
/// Largest data run one remote `read` or `write` moves. A longer request
/// completes short (`IoReply::Done(n)` with `n == MAX_IO`), as `read(2)`
/// and `write(2)` may, so its frame always fits [`MAX_BODY`] and the
/// default queue caps instead of being shed and retried to `ETIMEDOUT`.
pub const MAX_IO: usize = 64 * 1024;

/// Slicing-by-8 tables for [`crc32`], built at compile time: row 0 is
/// the byte-at-a-time table, row `k` advances a byte's remainder through
/// `k` further zero bytes.
const CRC_TABLES: [[u32; 256]; 8] = crc_tables();

const fn crc_tables() -> [[u32; 256]; 8] {
    let mut t = [[0u32; 256]; 8];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut bit = 0;
        while bit < 8 {
            c = if c & 1 != 0 { (c >> 1) ^ 0xEDB8_8320 } else { c >> 1 };
            bit += 1;
        }
        t[0][i] = c;
        i += 1;
    }
    let mut k = 1;
    while k < 8 {
        let mut i = 0;
        while i < 256 {
            let prev = t[k - 1][i];
            t[k][i] = (prev >> 8) ^ t[0][(prev & 0xFF) as usize];
            i += 1;
        }
        k += 1;
    }
    t
}

/// CRC-32 (IEEE 802.3 polynomial, reflected): guarantees detection of
/// any single-bit flip and any burst up to 32 bits. `seed` chains runs:
/// `crc32(crc32(0, a), b) == crc32(0, a ++ b)`. Eight bytes per step
/// through [`CRC_TABLES`]. Public so the on-disk recording format can
/// checksum its segments with the same discipline the wire uses for
/// frames.
pub fn crc32(seed: u32, data: &[u8]) -> u32 {
    let t = &CRC_TABLES;
    let mut crc = !seed;
    let mut words = data.chunks_exact(8);
    for w in &mut words {
        let lo = (crc ^ u32::from_le_bytes([w[0], w[1], w[2], w[3]])).to_le_bytes();
        crc = t[7][usize::from(lo[0])]
            ^ t[6][usize::from(lo[1])]
            ^ t[5][usize::from(lo[2])]
            ^ t[4][usize::from(lo[3])]
            ^ t[3][usize::from(w[4])]
            ^ t[2][usize::from(w[5])]
            ^ t[1][usize::from(w[6])]
            ^ t[0][usize::from(w[7])];
    }
    for &b in words.remainder() {
        crc = (crc >> 8) ^ t[0][usize::from(crc as u8 ^ b)];
    }
    !crc
}

fn frame_crc(tag: u64, body: &[u8]) -> u32 {
    let crc = crc32(0, &tag.to_le_bytes());
    let crc = crc32(crc, &(body.len() as u32).to_le_bytes());
    crc32(crc, body)
}

/// Frames a message body: `[magic][tag][len][crc][body]`. Public so
/// robustness tests can forge raw frames to throw at the server.
pub fn encode_frame(tag: u64, body: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(FRAME_HEADER + body.len());
    out.extend_from_slice(&FRAME_MAGIC.to_le_bytes());
    out.extend_from_slice(&tag.to_le_bytes());
    out.extend_from_slice(&(body.len() as u32).to_le_bytes());
    out.extend_from_slice(&frame_crc(tag, body).to_le_bytes());
    out.extend_from_slice(body);
    out
}

/// Validates and unframes a delivered image, borrowing its body. Any
/// damage is reported as a [`WireError`]; nothing is ever parsed out of
/// a damaged frame.
pub fn decode_frame(data: &[u8]) -> Result<(u64, &[u8]), WireError> {
    let mut r = WireReader::new(data);
    let magic = r.u32().map_err(|_| WireError::Truncated)?;
    if magic != FRAME_MAGIC {
        return Err(WireError::Corrupt);
    }
    let tag = r.u64().map_err(|_| WireError::Truncated)?;
    let len = r.u32().map_err(|_| WireError::Truncated)? as usize;
    let crc = r.u32().map_err(|_| WireError::Truncated)?;
    if data.len() != FRAME_HEADER + len {
        return Err(WireError::Truncated);
    }
    let body = &data[FRAME_HEADER..];
    if frame_crc(tag, body) != crc {
        return Err(WireError::Corrupt);
    }
    Ok((tag, body))
}

/// Position of the first frame-magic occurrence in `buf`, if any.
fn find_magic(buf: &[u8]) -> Option<usize> {
    let magic = FRAME_MAGIC.to_le_bytes();
    buf.windows(4).position(|w| w == magic)
}

/// Finds the next whole, checksummed frame at the front of a
/// byte-stream buffer, resynchronising past damage. Junk before a magic
/// is dropped; a plausible-looking header whose body bytes can never
/// arrive (another magic already follows it in the buffer) is skipped
/// one byte at a time rather than waited on forever — a truncated frame
/// must never wedge the session behind it. Returns the frame's tag and
/// length: the frame is `buf[..len]`, its body `buf[FRAME_HEADER..len]`,
/// and the caller drains it once the body is consumed. Returns `None`
/// when no complete frame is available yet (the tail stays buffered for
/// the next arrival).
pub fn next_frame(buf: &mut Vec<u8>, stats: &mut WireStats) -> Option<(u64, usize)> {
    loop {
        // Resynchronise to the next magic, keeping a possible prefix of
        // one at the very tail.
        match find_magic(buf) {
            Some(0) => {}
            Some(idx) => {
                stats.resync_bytes += idx as u64;
                buf.drain(..idx);
            }
            None => {
                let keep = buf.len().min(3);
                let junk = buf.len() - keep;
                if junk > 0 {
                    stats.resync_bytes += junk as u64;
                    buf.drain(..junk);
                }
                return None;
            }
        }
        if buf.len() < FRAME_HEADER {
            return None; // header still arriving
        }
        let len = buf
            .get(12..16)
            .and_then(|s| s.try_into().ok())
            .map(u32::from_le_bytes)
            .unwrap_or(u32::MAX) as usize;
        if len > MAX_BODY {
            // A corrupted length field: this was never a real header.
            stats.resync_bytes += 1;
            buf.drain(..1);
            continue;
        }
        let total = FRAME_HEADER + len;
        if buf.len() < total {
            // Not enough bytes yet. If another magic already follows,
            // the missing tail will never arrive (the frame was cut);
            // skip forward instead of waiting forever.
            if find_magic(&buf[4..]).is_some() {
                stats.resync_bytes += 1;
                buf.drain(..1);
                continue;
            }
            return None;
        }
        match decode_frame(&buf[..total]) {
            Ok((tag, _)) => return Some((tag, total)),
            Err(_) => {
                stats.checksum_rejects += 1;
                stats.resync_bytes += 1;
                buf.drain(..1);
            }
        }
    }
}

/// Wire shape of one ioctl request: how many bytes go in and (at most)
/// how many come back. Exactly the knowledge a remote file system must be
/// taught per request — the paper's complaint.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct IoctlWireSpec {
    /// Operand bytes carried with the request.
    pub in_len: usize,
    /// Maximum operand bytes returned.
    pub out_len: usize,
}

/// Table resolving an ioctl request number to its wire shape.
pub type IoctlTable = Box<dyn Fn(u32) -> Option<IoctlWireSpec> + Send>;

/// A marshalled message body: just bytes, with cursor-based read-back.
pub struct Wire(pub Vec<u8>);

/// Fallible cursor over a received message. Every accessor reports
/// [`WireError::Truncated`] instead of panicking: recovery paths must
/// not hide panics. Public so other binary decoders (the on-disk
/// recording format, [`super::WireConfig::decode`]) parse with the same
/// discipline.
pub struct WireReader<'a> {
    buf: &'a [u8],
    pos: usize,
}

/// Result alias for wire parsing.
pub type WireResult<T> = Result<T, WireError>;

/// Initial capacity of a message body. Every request and reply without
/// a name or data payload fits: the largest, an `open` request whose
/// credential lists three supplementary groups, is 61 bytes. So a body
/// grows only to carry a name, a longer group list or data.
const WIRE_BODY_CAP: usize = 64;

impl Wire {
    pub fn new(op: u8) -> Wire {
        let mut body = Vec::with_capacity(WIRE_BODY_CAP);
        body.push(op);
        Wire(body)
    }
    /// A success reply: status byte 0, then the operation's result.
    pub fn ok() -> Wire {
        Wire::new(0)
    }
    pub fn u8(mut self, v: u8) -> Wire {
        self.0.push(v);
        self
    }
    pub fn u32(mut self, v: u32) -> Wire {
        self.0.extend_from_slice(&v.to_le_bytes());
        self
    }
    pub fn u64(mut self, v: u64) -> Wire {
        self.0.extend_from_slice(&v.to_le_bytes());
        self
    }
    pub fn str(self, s: &str) -> Wire {
        self.bytes(s.as_bytes())
    }
    pub fn bytes(mut self, b: &[u8]) -> Wire {
        self.0.extend_from_slice(&(b.len() as u32).to_le_bytes());
        self.0.extend_from_slice(b);
        self
    }
}

impl<'a> WireReader<'a> {
    /// A cursor at the start of `buf`.
    pub fn new(buf: &'a [u8]) -> WireReader<'a> {
        WireReader { buf, pos: 0 }
    }
    /// Consumes the next `n` bytes, or reports truncation.
    pub fn take(&mut self, n: usize) -> WireResult<&'a [u8]> {
        let end = self.pos.checked_add(n).ok_or(WireError::Truncated)?;
        let s = self.buf.get(self.pos..end).ok_or(WireError::Truncated)?;
        self.pos = end;
        Ok(s)
    }
    /// Bytes consumed so far.
    pub fn position(&self) -> usize {
        self.pos
    }
    /// Bytes remaining after the cursor.
    pub fn remaining(&self) -> usize {
        self.buf.len().saturating_sub(self.pos)
    }
    /// Next byte.
    pub fn u8(&mut self) -> WireResult<u8> {
        Ok(self.take(1)?[0])
    }
    /// Next little-endian `u16`.
    pub fn u16(&mut self) -> WireResult<u16> {
        let s = self.take(2)?;
        s.try_into().map(u16::from_le_bytes).map_err(|_| WireError::Truncated)
    }
    /// Next little-endian `u32`.
    pub fn u32(&mut self) -> WireResult<u32> {
        let s = self.take(4)?;
        s.try_into().map(u32::from_le_bytes).map_err(|_| WireError::Truncated)
    }
    /// Next little-endian `u64`.
    pub fn u64(&mut self) -> WireResult<u64> {
        let s = self.take(8)?;
        s.try_into().map(u64::from_le_bytes).map_err(|_| WireError::Truncated)
    }
    /// Next `u32`-length-prefixed UTF-8 string (lossy).
    pub fn str(&mut self) -> WireResult<String> {
        let n = self.u32()? as usize;
        Ok(String::from_utf8_lossy(self.take(n)?).into_owned())
    }
    /// Next `u32`-length-prefixed byte run.
    pub fn bytes(&mut self) -> WireResult<Vec<u8>> {
        self.run().map(<[u8]>::to_vec)
    }
    /// Next `u32`-length-prefixed byte run, borrowed from the buffer.
    pub(super) fn run(&mut self) -> WireResult<&'a [u8]> {
        let n = self.u32()? as usize;
        self.take(n)
    }
}

fn cred_wire(w: Wire, c: &Cred) -> Wire {
    let mut w = w.u32(c.ruid).u32(c.euid).u32(c.suid).u32(c.rgid).u32(c.egid).u32(c.sgid);
    w = w.u32(c.groups.len() as u32);
    for g in &c.groups {
        w = w.u32(*g);
    }
    w
}

pub fn cred_unwire(r: &mut WireReader<'_>) -> WireResult<Cred> {
    let (ruid, euid, suid, rgid, egid, sgid) =
        (r.u32()?, r.u32()?, r.u32()?, r.u32()?, r.u32()?, r.u32()?);
    let n = r.u32()?;
    let mut groups = Vec::with_capacity(n.min(64) as usize);
    for _ in 0..n {
        groups.push(r.u32()?);
    }
    Ok(Cred { ruid, euid, suid, rgid, egid, sgid, groups })
}

pub const OP_LOOKUP: u8 = 1;
pub const OP_GETATTR: u8 = 2;
pub const OP_READDIR: u8 = 3;
pub const OP_OPEN: u8 = 4;
pub const OP_CLOSE: u8 = 5;
pub const OP_READ: u8 = 6;
pub const OP_WRITE: u8 = 7;
pub const OP_IOCTL: u8 = 8;
pub const OP_POLL: u8 = 9;

/// Whether an op is sequenced: it carries side effects (open, close,
/// write, ioctl), so its tag enters the server's dedup window and a
/// retried request is executed exactly once and re-answered from the
/// cached response. Every other op (lookup, getattr, readdir, read,
/// poll) is idempotent: safe to execute any number of times.
pub fn is_sequenced(op: u8) -> bool {
    matches!(op, OP_OPEN | OP_CLOSE | OP_WRITE | OP_IOCTL)
}

/// The one-byte wire code of a vnode kind.
pub fn kind_code(kind: VnodeKind) -> u8 {
    match kind {
        VnodeKind::Regular => 0,
        VnodeKind::Directory => 1,
        VnodeKind::Proc => 2,
        VnodeKind::Fifo => 3,
    }
}

/// Marshals an `OP_WRITE` request body. Public so robustness tests can
/// forge byte-exact frames (truncated at chosen offsets, replayed with
/// stale tags) without reimplementing the marshaller.
pub fn marshal_write(cur: Pid, node: NodeId, token: OpenToken, off: u64, data: &[u8]) -> Vec<u8> {
    Wire::new(OP_WRITE).u32(cur.0).u64(node.0).u64(token.0).u64(off).bytes(data).0
}

/// One operation's marshalled request and the parser for its reply,
/// built once by the functions below and submitted unchanged by either
/// face.
pub struct Op<T> {
    pub body: Vec<u8>,
    pub parse: fn(&[u8]) -> SysResult<T>,
}

pub fn lookup(cur: Pid, dir: NodeId, name: &str) -> Op<NodeId> {
    let body = Wire::new(OP_LOOKUP).u32(cur.0).u64(dir.0).str(name).0;
    Op { body, parse: |b| Ok(NodeId(WireReader::new(b).u64()?)) }
}

pub fn getattr(node: NodeId) -> Op<Metadata> {
    Op { body: Wire::new(OP_GETATTR).u64(node.0).0, parse: parse_metadata }
}

pub fn readdir(cur: Pid, dir: NodeId) -> Op<Vec<DirEntry>> {
    Op { body: Wire::new(OP_READDIR).u32(cur.0).u64(dir.0).0, parse: parse_dirents }
}

pub fn open(cur: Pid, node: NodeId, flags: OFlags, cred: &Cred) -> Op<OpenToken> {
    let body = cred_wire(Wire::new(OP_OPEN).u32(cur.0).u64(node.0).u64(flags.to_bits()), cred).0;
    Op { body, parse: |b| Ok(OpenToken(WireReader::new(b).u64()?)) }
}

pub fn close(cur: Pid, node: NodeId, token: OpenToken, flags: OFlags) -> Op<()> {
    let body = Wire::new(OP_CLOSE).u32(cur.0).u64(node.0).u64(token.0).u64(flags.to_bits()).0;
    Op { body, parse: |_| Ok(()) }
}

/// A read marshals generically: the request is (node, off, len) and the
/// response is the data — sizes and direction are manifest. The server
/// returns at most [`MAX_IO`] bytes: a short count.
pub fn read(cur: Pid, node: NodeId, token: OpenToken, off: u64, len: usize) -> Op<RemoteRead> {
    let body = Wire::new(OP_READ).u32(cur.0).u64(node.0).u64(token.0).u64(off).u64(len as u64).0;
    let parse =
        |b: &[u8]| Ok(read_reply(b)?.map_or(RemoteRead::Block, |d| RemoteRead::Data(d.to_vec())));
    Op { body, parse }
}

/// At most [`MAX_IO`] bytes of `data` cross, so the request fits one
/// frame; the reply counts what was written.
pub fn write(cur: Pid, node: NodeId, token: OpenToken, off: u64, data: &[u8]) -> Op<IoReply> {
    let data = &data[..data.len().min(MAX_IO)];
    let parse = |b: &[u8]| {
        let mut rr = WireReader::new(b);
        Ok(if rr.u8()? == 0 { IoReply::Done(rr.u64()? as usize) } else { IoReply::Block })
    };
    Op { body: marshal_write(cur, node, token, off, data), parse }
}

pub fn ioctl(cur: Pid, node: NodeId, token: OpenToken, req: u32, arg: &[u8]) -> Op<IoctlReply> {
    let body = Wire::new(OP_IOCTL).u32(cur.0).u64(node.0).u64(token.0).u32(req).bytes(arg).0;
    let parse = |b: &[u8]| {
        let mut rr = WireReader::new(b);
        Ok(if rr.u8()? == 0 { IoctlReply::Done(rr.bytes()?) } else { IoctlReply::Block })
    };
    Op { body, parse }
}

pub fn poll(node: NodeId, token: OpenToken) -> Op<PollStatus> {
    let parse = |b: &[u8]| {
        let bits = WireReader::new(b).u8()?;
        Ok(PollStatus { readable: bits & 1 != 0, writable: bits & 2 != 0, hangup: bits & 4 != 0 })
    };
    Op { body: Wire::new(OP_POLL).u64(node.0).u64(token.0).0, parse }
}

/// A remote read completion: either the data bytes or a block verdict.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum RemoteRead {
    /// The server returned these bytes.
    Data(Vec<u8>),
    /// The server said the read would block.
    Block,
}

fn parse_metadata(b: &[u8]) -> SysResult<Metadata> {
    let mut rr = WireReader::new(b);
    let code = rr.u8()?;
    let kinds = [VnodeKind::Regular, VnodeKind::Directory, VnodeKind::Proc, VnodeKind::Fifo];
    let kind = kinds.into_iter().find(|k| kind_code(*k) == code).ok_or(Errno::EIO)?;
    Ok(Metadata {
        kind,
        mode: rr.u32()? as u16,
        uid: rr.u32()?,
        gid: rr.u32()?,
        size: rr.u64()?,
        nlink: rr.u32()?,
        mtime: rr.u64()?,
    })
}

fn parse_dirents(b: &[u8]) -> SysResult<Vec<DirEntry>> {
    let mut rr = WireReader::new(b);
    let n = rr.u32()?;
    let mut out = Vec::with_capacity(n.min(4096) as usize);
    for _ in 0..n {
        out.push(DirEntry { name: rr.str()?, node: NodeId(rr.u64()?) });
    }
    Ok(out)
}

/// A read reply's data, borrowed (`None`: the read would block).
pub fn read_reply(b: &[u8]) -> SysResult<Option<&[u8]>> {
    let mut rr = WireReader::new(b);
    match rr.u8()? {
        0 => Ok(Some(rr.run()?)),
        _ => Ok(None),
    }
}

/// The single server-side dispatcher: validates the op byte, unmarshals
/// the operands, executes against the inner file system and marshals the
/// success reply, status byte 0 first (the caller marshals an error as
/// status 1 and the errno). One decode path for every operation, shared
/// by every client.
pub fn serve<K>(
    inner: &mut (dyn FileSystem<K> + Send),
    table: &Option<IoctlTable>,
    k: &mut K,
    body: &[u8],
) -> SysResult<Wire> {
    let mut r = WireReader::new(body);
    let op = r.u8().map_err(Errno::from)?;
    match op {
        OP_LOOKUP => {
            let (cur, dir, name) = (Pid(r.u32()?), NodeId(r.u64()?), r.str()?);
            inner.lookup(k, cur, dir, &name).map(|n| Wire::ok().u64(n.0))
        }
        OP_GETATTR => {
            let node = NodeId(r.u64()?);
            inner.getattr(k, node).map(|m| {
                Wire::ok()
                    .u8(kind_code(m.kind))
                    .u32(u32::from(m.mode))
                    .u32(m.uid)
                    .u32(m.gid)
                    .u64(m.size)
                    .u32(m.nlink)
                    .u64(m.mtime)
            })
        }
        OP_READDIR => {
            let (cur, dir) = (Pid(r.u32()?), NodeId(r.u64()?));
            inner.readdir(k, cur, dir).map(|entries| {
                let mut w = Wire::ok().u32(entries.len() as u32);
                for e in &entries {
                    w = w.str(&e.name).u64(e.node.0);
                }
                w
            })
        }
        OP_OPEN => {
            let (cur, node, bits) = (Pid(r.u32()?), NodeId(r.u64()?), r.u64()?);
            let cred = cred_unwire(&mut r)?;
            inner.open(k, cur, node, OFlags::from_bits(bits), &cred).map(|t| Wire::ok().u64(t.0))
        }
        OP_CLOSE => {
            let (cur, node, token, bits) =
                (Pid(r.u32()?), NodeId(r.u64()?), OpenToken(r.u64()?), r.u64()?);
            inner.close(k, cur, node, token, OFlags::from_bits(bits));
            Ok(Wire::ok())
        }
        OP_READ => {
            let (cur, node, token, off, len) =
                (Pid(r.u32()?), NodeId(r.u64()?), OpenToken(r.u64()?), r.u64()?, r.u64()?);
            // The reply must fit one frame: longer reads complete short.
            let mut server_buf = vec![0u8; len.min(MAX_IO as u64) as usize];
            inner.read(k, cur, node, token, off, &mut server_buf).map(|reply| match reply {
                IoReply::Done(n) => Wire::ok().u8(0).bytes(server_buf.get(..n).unwrap_or(&[])),
                IoReply::Block => Wire::ok().u8(1),
            })
        }
        OP_WRITE => {
            let (cur, node, token, off) =
                (Pid(r.u32()?), NodeId(r.u64()?), OpenToken(r.u64()?), r.u64()?);
            let payload = r.run()?;
            inner.write(k, cur, node, token, off, payload).map(|reply| match reply {
                IoReply::Done(n) => Wire::ok().u8(0).u64(n as u64),
                IoReply::Block => Wire::ok().u8(1),
            })
        }
        OP_IOCTL => {
            let (cur, node, token, req_no) =
                (Pid(r.u32()?), NodeId(r.u64()?), OpenToken(r.u64()?), r.u32()?);
            let payload = r.run()?;
            // The server can only return what the spec promised.
            let out_cap =
                table.as_ref().and_then(|t| t(req_no)).map(|s| s.out_len).unwrap_or(usize::MAX);
            inner.ioctl(k, cur, node, token, req_no, payload).map(|reply| match reply {
                IoctlReply::Done(out) => {
                    let n = out.len().min(out_cap);
                    Wire::ok().u8(0).bytes(out.get(..n).unwrap_or(&[]))
                }
                IoctlReply::Block => Wire::ok().u8(1),
            })
        }
        OP_POLL => {
            let (node, token) = (NodeId(r.u64()?), OpenToken(r.u64()?));
            inner.poll(k, node, token).map(|p| {
                Wire::ok()
                    .u8(u8::from(p.readable) | u8::from(p.writable) << 1 | u8::from(p.hangup) << 2)
            })
        }
        _ => Err(Errno::EIO),
    }
}

/// A successful reply frame, kept whole as it came off the receive
/// buffer so completion moves it instead of copying its body out.
#[derive(Clone, Debug)]
pub struct Reply(pub Vec<u8>);

impl Reply {
    /// The reply body after the frame header and the success byte.
    pub fn body(&self) -> &[u8] {
        self.0.get(FRAME_HEADER + 1..).unwrap_or(&[])
    }

    /// A whole reply frame as its op resolves: the frame itself on a
    /// success status, the errno it carries on a failure status, `EIO`
    /// on anything else.
    pub fn status(self) -> SysResult<Reply> {
        match self.0.get(FRAME_HEADER) {
            Some(0) => Ok(self),
            Some(1) => Err(WireReader::new(self.body()).u32().map_or(Errno::EIO, Errno::from_wire)),
            _ => Err(Errno::EIO),
        }
    }
}
