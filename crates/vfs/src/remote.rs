//! An RFS-like remote-access shim: concurrent tagged sessions over a
//! lossy, recoverable wire, served by a bounded-queue readiness loop.
//!
//! "The SVR4 implementation of /proc works correctly with Remote File
//! Sharing (RFS). With appropriate permission it is possible to inspect,
//! modify and control processes running on any machine in an RFS
//! network." And, motivating the proposed restructuring: "Removing the
//! dependence on ioctl simplifies the implementation of /proc in a
//! network environment. The unstructured nature of ioctl operations and
//! the variability of operand sizes and I/O directions make it difficult
//! to cleanly separate the client/server interactions; read and write
//! don't share these problems."
//!
//! # Wire protocol v2: tagged, pipelined, out of order
//!
//! A [`WireSession`] owns one server ([`FileSystem`]) end and one shared
//! wire. Every request frame carries an **op tag** (a session-unique
//! monotone counter, travelling in the frame's sequence field); many
//! operations — from many [`RemoteClient`] handles — may be in flight at
//! once. The server completes them **out of order** (a seeded service
//! jitter reorders replies) and the client side demultiplexes each
//! completion into its per-op [`OpFuture`], a poll-based state machine:
//! no async runtime, just `submit_*` → [`RemoteClient::pump`] →
//! [`RemoteClient::try_complete`]. [`RemoteFs`] keeps the blocking
//! [`FileSystem`] face by submitting and waiting on one future at a
//! time, so a remote mount drops into [`crate::mount::MountTable`]
//! unchanged while pipelined clients share its wire.
//!
//! # The server: a readiness loop over bounded per-session queues
//!
//! The server half is structured the way a real `poll(2)`-driven daemon
//! is. Each connection is a session with a **bounded inbound and
//! outbound byte queue** (set by [`WireConfig::queue_caps`]).
//! Frames arrive as raw bytes appended to the inbound queue; a FIFO
//! ready-set records which sessions hold servable bytes, and the
//! service loop pops ready sessions and extracts **at most
//! [`SERVER_OPS_PER_TICK`] frames per virtual tick** — fairness is
//! round-robin, so one chatty client cannot starve another, and load
//! beyond the budget rolls to the next tick via a self-armed service
//! event. Frame extraction is resynchronising: damaged or truncated
//! bytes in the stream are skipped (counted in
//! [`WireStats::resync_bytes`]) until the next frame magic, so one
//! mangled frame never wedges a session.
//!
//! When a queue would overflow its cap the frame is **shed**, not
//! buffered ([`WireStats::frames_shed`]); a session that keeps shedding
//! is **evicted** — its queues are dropped, its pending operations
//! resolve to a typed `EAGAIN` (never a hung future), and any
//! `OpenToken`s the server granted it are closed on its behalf, so
//! run-on-last-close semantics survive abrupt client death. The
//! degradation ladder is typed end to end: `EAGAIN` for shed/evicted/
//! over-committed work, `ETIMEDOUT` for an exhausted retry budget —
//! never a panic, never unbounded memory.
//!
//! # Adversarial clients
//!
//! Real servers die at the hands of misbehaving peers, so the seeded
//! [`FaultPlan`] grows an adversarial-client dimension
//! ([`AdversaryRates`], builder [`FaultPlan::with_adversary`]):
//!
//! * **slow readers** drain their reply queue one byte per tick;
//! * **half-open sessions** stop reading entirely but keep writing
//!   (their reply queue fills until eviction);
//! * **frame floods** deliver [`FLOOD_COPIES`] extra copies of a
//!   request in one burst (the dedup window keeps effects
//!   exactly-once; the queue cap sheds the excess);
//! * **mid-frame disconnects** cut a request partway through and drop
//!   the link, which heals [`RECONNECT_TICKS`] later;
//! * **stale-tag replay** re-injects the session's last sequenced
//!   frame after a reconnect, which must be answered from the dedup
//!   window, not re-executed.
//!
//! All of it rides the same xorshift64* stream, so one seed still
//! fixes the entire schedule — faults, personas, churn and
//! reorderings — and same-seed replays are byte-identical.
//!
//! Time is **virtual**: a deterministic event scheduler orders request
//! arrivals, service completions, queue drains, reconnects and retry
//! timers on a tick clock ([`WireSession::ticks`]). No wall clock is
//! ever read, so every interleaving — including multi-client races —
//! replays exactly from the seeds.
//!
//! Real process-control traffic must survive a network that corrupts,
//! loses, duplicates and delays messages, so the wire layer is built
//! from explicit state rather than hope:
//!
//! * every image is framed with a magic, a tag, a length and a CRC-32
//!   ([`encode_frame`]/[`decode_frame`]); damaged frames are rejected
//!   with a distinct [`WireError`], never misparsed;
//! * a seeded, replayable [`FaultPlan`] injects drops, truncations,
//!   bit-flips, duplications and delays at configured per-mille rates —
//!   the same seed always yields the same fault schedule;
//! * a per-op retry timer resends until a usable reply arrives, with
//!   capped exponential backoff and a bounded tick budget; an exhausted
//!   budget degrades to [`Errno::ETIMEDOUT`], never a panic or a
//!   silently wrong reply;
//! * operations are classified by idempotency ([`OpClass`]): pure reads
//!   retry freely, while mutating operations (`open`, `close`, `write`,
//!   `ioctl`) carry their tag into a server-side dedup window so a
//!   retried, duplicated or replayed request is applied exactly once —
//!   even when retransmissions from different sessions interleave.
//!
//! The crucial asymmetry from the paper survives intact: `read`,
//! `write`, `lookup` and friends marshal *generically* — their operand
//! sizes and directions are manifest in the call. `ioctl` cannot be
//! marshalled without a per-request table of operand sizes and
//! directions ([`IoctlWireSpec`]); any request missing from the table is
//! refused with `ENOTSUP` and counted.

use crate::cred::Cred;
use crate::errno::{Errno, SysResult};
use crate::fs::{FileSystem, IoReply, IoctlReply, OFlags, OpenToken, PollStatus};
use crate::node::{DirEntry, Metadata, NodeId, Pid, VnodeKind};
use std::cmp::Ordering;
use std::collections::{BTreeMap, BinaryHeap, VecDeque};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

/// Introspection ioctl answered by [`RemoteFs`] itself (never crossing
/// the wire): returns the [`WireStats`] image. Numbered after the
/// `PIOC*` family so the flat tooling can issue it on any remote-mounted
/// descriptor, mirroring `PIOCCACHESTATS`.
pub const PIOCWIRESTATS: u32 = 0x5030;

crate::counters! {
    /// Traffic, fault, recovery and server-side load counters for the
    /// simulated wire. The first fourteen fields are the client's
    /// traffic and recovery counters; the rest are the server counters
    /// (sessions, shedding, queue high-water marks, churn) grown for the
    /// readiness-loop server.
    pub struct WireStats {
        /// Remote operations performed.
        ops,
        /// Request bytes sent client to server (framed, including retries).
        bytes_sent,
        /// Response bytes sent server to client (framed).
        bytes_received,
        /// ioctl requests refused because no wire specification exists.
        unsupported_ioctls,
        /// Request frames transmitted (one per attempt).
        frames_sent,
        /// Frames the network dropped.
        drops,
        /// Frames the network truncated.
        truncations,
        /// Frames the network bit-flipped.
        bitflips,
        /// Frames the network duplicated.
        duplicates,
        /// Frames the network delayed by [`LATE_TICKS`].
        delays,
        /// Damaged frames rejected by the length/CRC check (either side).
        checksum_rejects,
        /// Attempts beyond the first (client resends).
        retries,
        /// Re-executed sequenced requests answered from the dedup window.
        dedup_hits,
        /// Operations that exhausted their retry budget (`ETIMEDOUT`).
        timeouts,
        /// Client sessions opened (the blocking mount face is not counted).
        sessions_opened,
        /// Sessions evicted by the shedding policy.
        sessions_evicted,
        /// Frames shed at a full queue or a dead link.
        frames_shed,
        /// High-water mark across all inbound queues, in bytes.
        in_queue_hwm,
        /// High-water mark across all outbound queues, in bytes.
        out_queue_hwm,
        /// Connection-churn events (disconnects, reconnects, hangups).
        churn_events,
        /// Junk bytes skipped while resynchronising to a frame magic.
        resync_bytes,
        /// Stale sequenced frames replayed after a reconnect.
        stale_replays,
        /// Submissions rejected with `EAGAIN` (session gone or
        /// [`INFLIGHT_CAP`] reached).
        eagain_rejected,
        /// Adversarial frame-flood bursts injected.
        floods,
    }
}

impl WireStats {
    /// Total frames the fault plan perturbed in any way.
    pub fn faults_injected(&self) -> u64 {
        self.drops + self.truncations + self.bitflips + self.duplicates + self.delays
    }
}

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

/// Per-mille probabilities for each network fault class.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct FaultRates {
    /// Frame silently discarded.
    pub drop: u16,
    /// Frame cut short at a random point.
    pub truncate: u16,
    /// One random bit inverted.
    pub bitflip: u16,
    /// Frame delivered twice.
    pub duplicate: u16,
    /// Frame delivered [`LATE_TICKS`] late.
    pub delay: u16,
}

impl FaultRates {
    /// The same per-mille rate for every fault class.
    pub fn uniform(permille: u16) -> FaultRates {
        FaultRates {
            drop: permille,
            truncate: permille,
            bitflip: permille,
            duplicate: permille,
            delay: permille,
        }
    }
}

/// Per-mille probabilities for each adversarial-client behaviour. The
/// first two are rolled once per session at creation (they pick the
/// session's persona); the rest are rolled per arriving request frame
/// or per reconnect. The blocking mount face (session 0) is exempt —
/// adversaries are clients, not the local mount.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct AdversaryRates {
    /// Session persona: drains its reply queue one byte per tick.
    pub slow_reader: u16,
    /// Session persona: stops reading entirely but keeps writing.
    pub half_open: u16,
    /// Request arrives as a burst of [`FLOOD_COPIES`] extra copies.
    pub flood: u16,
    /// Request is cut mid-frame and the link drops, healing after
    /// [`RECONNECT_TICKS`].
    pub mid_frame: u16,
    /// On reconnect, the session's last sequenced frame is replayed
    /// with its (now stale) tag.
    pub stale_replay: u16,
}

impl AdversaryRates {
    /// The same per-mille rate for every adversarial behaviour.
    pub fn uniform(permille: u16) -> AdversaryRates {
        AdversaryRates {
            slow_reader: permille,
            half_open: permille,
            flood: permille,
            mid_frame: permille,
            stale_replay: permille,
        }
    }
}

/// A deterministic, replayable fault schedule: an xorshift64* stream
/// seeded once, consumed in a fixed order per frame. Re-running the same
/// operation sequence under the same seed reproduces every fault,
/// persona and churn event.
#[derive(Clone, Debug)]
pub struct FaultPlan {
    state: u64,
    rates: FaultRates,
    adv: AdversaryRates,
}

/// One frame as the network delivered it.
struct Delivery {
    bytes: Vec<u8>,
    /// Delivered [`LATE_TICKS`] after the rest (the effect of a delay
    /// fault: the bytes arrive long after the client's patience window,
    /// so the retry path and the dedup window must absorb them).
    late: bool,
}

impl FaultPlan {
    /// A plan from a seed and per-fault rates (zero seed is remapped:
    /// xorshift has an all-zero fixed point). Adversarial-client rates
    /// start at zero; see [`FaultPlan::with_adversary`].
    pub fn new(seed: u64, rates: FaultRates) -> FaultPlan {
        FaultPlan {
            state: if seed == 0 { 0x9E37_79B9_7F4A_7C15 } else { seed },
            rates,
            adv: AdversaryRates::default(),
        }
    }

    /// Builder: adds an adversarial-client dimension to the schedule.
    /// Zero rates roll nothing and consume no generator state, so a
    /// plan without adversaries replays exactly as before.
    pub fn with_adversary(mut self, adv: AdversaryRates) -> FaultPlan {
        self.adv = adv;
        self
    }

    fn next(&mut self) -> u64 {
        let mut x = self.state;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.state = x;
        x.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }

    fn roll(&mut self, permille: u16) -> bool {
        permille > 0 && self.next() % 1000 < u64::from(permille)
    }

    fn roll_slow_reader(&mut self) -> bool {
        self.roll(self.adv.slow_reader)
    }

    fn roll_half_open(&mut self) -> bool {
        self.roll(self.adv.half_open)
    }

    fn roll_flood(&mut self) -> bool {
        self.roll(self.adv.flood)
    }

    fn roll_mid_frame(&mut self) -> bool {
        self.roll(self.adv.mid_frame)
    }

    fn roll_stale_replay(&mut self) -> bool {
        self.roll(self.adv.stale_replay)
    }

    /// Deterministic cut point in `0..len` for mid-frame truncation.
    /// `len` must be nonzero.
    fn cut_point(&mut self, len: usize) -> usize {
        (self.next() as usize) % len
    }

    /// Applies the schedule to one outbound frame, returning what the
    /// network actually delivers (possibly nothing, possibly twice).
    fn perturb(&mut self, frame: Vec<u8>, stats: &mut WireStats) -> [Option<Delivery>; 2] {
        if self.roll(self.rates.drop) {
            stats.drops += 1;
            return [None, None];
        }
        let copy = self.roll(self.rates.duplicate).then(|| {
            stats.duplicates += 1;
            frame.clone()
        });
        let first = self.damage(frame, stats);
        [Some(first), copy.map(|c| self.damage(c, stats))]
    }

    /// Rolls truncation, bit damage and delay for one delivered copy.
    fn damage(&mut self, mut bytes: Vec<u8>, stats: &mut WireStats) -> Delivery {
        if self.roll(self.rates.truncate) && !bytes.is_empty() {
            stats.truncations += 1;
            let keep = (self.next() as usize) % bytes.len();
            bytes.truncate(keep);
        }
        if self.roll(self.rates.bitflip) && !bytes.is_empty() {
            stats.bitflips += 1;
            let bit = (self.next() as usize) % (bytes.len() * 8);
            if let Some(byte) = bytes.get_mut(bit / 8) {
                *byte ^= 1 << (bit % 8);
            }
        }
        let late = self.roll(self.rates.delay);
        if late {
            stats.delays += 1;
        }
        Delivery { bytes, late }
    }
}

/// Client retry discipline: how often and for how long to resend before
/// degrading to `ETIMEDOUT`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Attempts before giving up (first send included).
    pub max_attempts: u32,
    /// Upper bound on the per-attempt backoff, in abstract ticks.
    pub backoff_cap: u64,
    /// Total backoff ticks the operation may consume.
    pub budget: u64,
}

impl Default for RetryPolicy {
    fn default() -> RetryPolicy {
        RetryPolicy { max_attempts: 8, backoff_cap: 64, budget: 256 }
    }
}

/// Idempotency class of one wire operation.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum OpClass {
    /// Safe to execute any number of times (lookup, getattr, readdir,
    /// read, poll): the client retries freely.
    Idempotent,
    /// Carries side effects (open, close, write, ioctl): the op tag
    /// enters the server's dedup window so a retried request is
    /// executed exactly once and re-answered from the cached response.
    Sequenced,
}

/// Responses remembered per op tag for exactly-once execution.
const DEDUP_WINDOW: usize = 128;

/// Frame magic ("/proc wire", v2: tagged concurrent sessions).
const FRAME_MAGIC: u32 = 0x70F5_57E2;
/// Frame header: magic + tag + body length + CRC-32.
const FRAME_HEADER: usize = 4 + 8 + 4 + 4;

/// Ticks a frame spends crossing the wire in either direction.
const TRANSIT_TICKS: u64 = 1;
/// Server service-time jitter, exclusive upper bound: replies complete
/// `0..SERVICE_JITTER` ticks after service, reordering completions.
const SERVICE_JITTER: u64 = 3;
/// Client patience per attempt before the retry timer fires. Must
/// exceed a round trip plus the worst service jitter or clean wires
/// would retransmit.
const RETRY_RTT: u64 = 6;
/// Extra transit ticks a delay fault adds: long past the per-attempt
/// patience window, so the retry path (and the dedup window) must
/// absorb the late arrival.
const LATE_TICKS: u64 = 24;
/// Ticks a mid-frame disconnect keeps the link down before it heals.
const RECONNECT_TICKS: u64 = 8;
/// Largest believable frame body while resynchronising a byte stream;
/// a corrupted length field beyond this is junk, not a frame to wait
/// for.
const MAX_BODY: usize = 1 << 20;

/// Request frames the server extracts per virtual tick, across all
/// sessions. Load beyond the budget rolls to the next tick (this is
/// what makes p99 latency grow with client count instead of everything
/// completing in one magic instant).
pub const SERVER_OPS_PER_TICK: u32 = 8;
/// Operations one session may have in flight before `submit` rejects
/// with `EAGAIN`.
pub const INFLIGHT_CAP: u32 = 64;
/// Sheds a session survives before it is evicted.
pub const EVICT_SHED_LIMIT: u32 = 8;
/// Extra request copies an adversarial frame flood delivers.
pub const FLOOD_COPIES: usize = 8;
/// Default per-direction queue cap, in bytes.
pub const DEFAULT_QUEUE_CAP: usize = 256 * 1024;
/// Largest data run one remote `read` or `write` moves. A longer request
/// completes short (`IoReply::Done(n)` with `n == MAX_IO`), as `read(2)`
/// and `write(2)` may, so its frame always fits [`MAX_BODY`] and the
/// default queue caps instead of being shed and retried to `ETIMEDOUT`.
pub const MAX_IO: usize = 64 * 1024;
// A read reply or write request carries under 64 bytes besides its run.
const _: () = assert!(FRAME_HEADER + 64 + MAX_IO <= DEFAULT_QUEUE_CAP);
const _: () = assert!(DEFAULT_QUEUE_CAP <= MAX_BODY);

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

/// Appends `bytes` to a byte queue, adopting the buffer outright when
/// the queue is empty.
fn enqueue(queue: &mut Vec<u8>, bytes: Vec<u8>) {
    if queue.is_empty() {
        *queue = bytes;
    } else {
        queue.extend_from_slice(&bytes);
    }
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
fn next_frame(buf: &mut Vec<u8>, stats: &mut WireStats) -> Option<(u64, usize)> {
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
struct Wire(Vec<u8>);

/// Fallible cursor over a received message. Every accessor reports
/// [`WireError::Truncated`] instead of panicking: recovery paths must
/// not hide panics. Public so other binary decoders (the on-disk
/// recording format, [`WireConfig::decode`]) parse with the same
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
    fn new(op: u8) -> Wire {
        let mut body = Vec::with_capacity(WIRE_BODY_CAP);
        body.push(op);
        Wire(body)
    }
    /// A success reply: status byte 0, then the operation's result.
    fn ok() -> Wire {
        Wire::new(0)
    }
    fn u8(mut self, v: u8) -> Wire {
        self.0.push(v);
        self
    }
    fn u32(mut self, v: u32) -> Wire {
        self.0.extend_from_slice(&v.to_le_bytes());
        self
    }
    fn u64(mut self, v: u64) -> Wire {
        self.0.extend_from_slice(&v.to_le_bytes());
        self
    }
    fn str(mut self, s: &str) -> Wire {
        self.0.extend_from_slice(&(s.len() as u32).to_le_bytes());
        self.0.extend_from_slice(s.as_bytes());
        self
    }
    fn bytes(mut self, b: &[u8]) -> Wire {
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
    fn run(&mut self) -> WireResult<&'a [u8]> {
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

fn cred_unwire(r: &mut WireReader<'_>) -> WireResult<Cred> {
    let (ruid, euid, suid, rgid, egid, sgid) =
        (r.u32()?, r.u32()?, r.u32()?, r.u32()?, r.u32()?, r.u32()?);
    let n = r.u32()?;
    let mut groups = Vec::with_capacity(n.min(64) as usize);
    for _ in 0..n {
        groups.push(r.u32()?);
    }
    Ok(Cred { ruid, euid, suid, rgid, egid, sgid, groups })
}

const OP_LOOKUP: u8 = 1;
const OP_GETATTR: u8 = 2;
const OP_READDIR: u8 = 3;
const OP_OPEN: u8 = 4;
const OP_CLOSE: u8 = 5;
const OP_READ: u8 = 6;
const OP_WRITE: u8 = 7;
const OP_IOCTL: u8 = 8;
const OP_POLL: u8 = 9;

fn op_class(op: u8) -> OpClass {
    match op {
        OP_OPEN | OP_CLOSE | OP_WRITE | OP_IOCTL => OpClass::Sequenced,
        _ => OpClass::Idempotent,
    }
}

/// Marshals an `OP_WRITE` request body. Public so robustness tests can
/// forge byte-exact frames (truncated at chosen offsets, replayed with
/// stale tags) without reimplementing the marshaller.
pub fn marshal_write(cur: Pid, node: NodeId, token: OpenToken, off: u64, data: &[u8]) -> Vec<u8> {
    Wire::new(OP_WRITE).u32(cur.0).u64(node.0).u64(token.0).u64(off).bytes(data).0
}

/// The single server-side dispatcher: validates the op byte, unmarshals
/// the operands, executes against the inner file system and marshals the
/// reply body, success status byte first. One decode path for every
/// operation, shared by every client.
fn serve<K>(
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
                    .u8(match m.kind {
                        VnodeKind::Regular => 0,
                        VnodeKind::Directory => 1,
                        VnodeKind::Proc => 2,
                        VnodeKind::Fifo => 3,
                    })
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

// ---- client-side reply parsers (one per op, shared by the blocking ----
// ---- FileSystem face and the pipelined RemoteClient futures)       ----

/// A remote read completion: either the data bytes or a block verdict.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum RemoteRead {
    /// The server returned these bytes.
    Data(Vec<u8>),
    /// The server said the read would block.
    Block,
}

fn parse_node(b: &[u8]) -> SysResult<NodeId> {
    let mut r = WireReader::new(b);
    Ok(NodeId(r.u64().map_err(Errno::from)?))
}

fn parse_token(b: &[u8]) -> SysResult<OpenToken> {
    let mut r = WireReader::new(b);
    Ok(OpenToken(r.u64().map_err(Errno::from)?))
}

fn parse_unit(_: &[u8]) -> SysResult<()> {
    Ok(())
}

fn parse_metadata(b: &[u8]) -> SysResult<Metadata> {
    let mut rr = WireReader::new(b);
    let parse = |rr: &mut WireReader<'_>| -> WireResult<Metadata> {
        let kind = match rr.u8()? {
            0 => VnodeKind::Regular,
            1 => VnodeKind::Directory,
            2 => VnodeKind::Proc,
            3 => VnodeKind::Fifo,
            _ => return Err(WireError::Malformed),
        };
        Ok(Metadata {
            kind,
            mode: rr.u32()? as u16,
            uid: rr.u32()?,
            gid: rr.u32()?,
            size: rr.u64()?,
            nlink: rr.u32()?,
            mtime: rr.u64()?,
        })
    };
    parse(&mut rr).map_err(Errno::from)
}

fn parse_dirents(b: &[u8]) -> SysResult<Vec<DirEntry>> {
    let mut rr = WireReader::new(b);
    let parse = |rr: &mut WireReader<'_>| -> WireResult<Vec<DirEntry>> {
        let n = rr.u32()?;
        let mut out = Vec::with_capacity(n.min(4096) as usize);
        for _ in 0..n {
            out.push(DirEntry { name: rr.str()?, node: NodeId(rr.u64()?) });
        }
        Ok(out)
    };
    parse(&mut rr).map_err(Errno::from)
}

/// A read reply's data, borrowed (`None`: the read would block).
fn read_reply(b: &[u8]) -> SysResult<Option<&[u8]>> {
    let mut rr = WireReader::new(b);
    match rr.u8().map_err(Errno::from)? {
        0 => Ok(Some(rr.run().map_err(Errno::from)?)),
        _ => Ok(None),
    }
}

fn parse_read(b: &[u8]) -> SysResult<RemoteRead> {
    Ok(read_reply(b)?.map_or(RemoteRead::Block, |d| RemoteRead::Data(d.to_vec())))
}

fn parse_write(b: &[u8]) -> SysResult<IoReply> {
    let mut rr = WireReader::new(b);
    match rr.u8().map_err(Errno::from)? {
        0 => Ok(IoReply::Done(rr.u64().map_err(Errno::from)? as usize)),
        _ => Ok(IoReply::Block),
    }
}

fn parse_ioctl(b: &[u8]) -> SysResult<IoctlReply> {
    let mut rr = WireReader::new(b);
    match rr.u8().map_err(Errno::from)? {
        0 => Ok(IoctlReply::Done(rr.bytes().map_err(Errno::from)?)),
        _ => Ok(IoctlReply::Block),
    }
}

fn parse_poll(b: &[u8]) -> SysResult<PollStatus> {
    let mut rr = WireReader::new(b);
    let bits = rr.u8().map_err(Errno::from)?;
    Ok(PollStatus { readable: bits & 1 != 0, writable: bits & 2 != 0, hangup: bits & 4 != 0 })
}

fn parse_never<T>(_: &[u8]) -> SysResult<T> {
    Err(Errno::EIO)
}

// ---- the deterministic event scheduler ----

/// What the wire delivers or a timer fires. `Clone` so a wire
/// snapshot can carry the whole event queue.
#[derive(Clone)]
enum NetEvent {
    /// A request frame's bytes reach the server side of a session.
    Request { sid: u32, bytes: Vec<u8> },
    /// A reply frame's bytes reach a session's outbound queue.
    ReplyEnqueue { sid: u32, bytes: Vec<u8> },
    /// The client end of a session drains its outbound queue.
    Drain { sid: u32 },
    /// The per-op retry timer expires.
    Retry { tag: u64 },
    /// A dropped link heals.
    Reconnect { sid: u32 },
    /// The service budget rolled over; ready sessions get a new tick.
    Service,
}

/// An event on the virtual clock. Ordered by `(due, id)` — `id` is a
/// monotone tie-breaker so equal-time events replay in schedule order.
#[derive(Clone)]
struct Scheduled {
    due: u64,
    id: u64,
    ev: NetEvent,
}

impl PartialEq for Scheduled {
    fn eq(&self, other: &Scheduled) -> bool {
        self.due == other.due && self.id == other.id
    }
}
impl Eq for Scheduled {}
impl PartialOrd for Scheduled {
    fn partial_cmp(&self, other: &Scheduled) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Scheduled {
    fn cmp(&self, other: &Scheduled) -> Ordering {
        // Reversed: the binary heap pops the earliest (due, id) first.
        other.due.cmp(&self.due).then(other.id.cmp(&self.id))
    }
}

/// One submitted operation awaiting completion. The idempotency class
/// lives server-side (derived from the op byte): the client retries
/// every op the same way and the dedup window keeps sequenced ones
/// exactly-once.
#[derive(Clone)]
struct InFlight {
    /// The session this op was submitted on (its eviction resolves us).
    sid: u32,
    body: Vec<u8>,
    attempts: u32,
    backoff: u64,
    budget: u64,
    done: Option<SysResult<Reply>>,
}

/// A successful reply frame, kept whole as it came off the receive
/// buffer so completion moves it instead of copying its body out.
#[derive(Clone)]
struct Reply(Vec<u8>);

impl Reply {
    /// The reply body after the frame header and the success byte.
    fn body(&self) -> &[u8] {
        self.0.get(FRAME_HEADER + 1..).unwrap_or(&[])
    }
}

/// How a session's client end behaves, fixed at session creation by the
/// adversary rates. The blocking mount face (session 0) is always
/// `Clean`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Persona {
    /// Reads replies promptly (drains everything each drain tick).
    Clean,
    /// Drains one reply byte per tick.
    SlowReader,
    /// Never reads replies; its outbound queue fills until eviction.
    HalfOpen,
}

impl Persona {
    /// Outbound bytes the client end consumes per drain tick.
    fn drain_rate(self) -> usize {
        match self {
            Persona::Clean => usize::MAX,
            Persona::SlowReader => 1,
            Persona::HalfOpen => 0,
        }
    }
}

/// Link state of one session.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum LinkState {
    /// Connected; frames flow both ways.
    Live,
    /// Dropped mid-stream; arrivals shed until the link heals.
    Down,
    /// Evicted or hung up; terminal.
    Gone,
}

/// Server-side state of one client session: bounded byte queues, link
/// state, persona, shed accounting and the `OpenToken`s granted to this
/// client (closed on its behalf if it dies).
#[derive(Clone)]
struct SessionState {
    link: LinkState,
    persona: Persona,
    /// Bytes received from the client, awaiting frame extraction.
    inbound: Vec<u8>,
    /// Reply bytes awaiting the client's reads.
    outbound: Vec<u8>,
    /// Bytes the client end has drained, awaiting frame extraction.
    rx: Vec<u8>,
    /// A drain event is scheduled.
    drain_armed: bool,
    /// Frames shed at this session's full queues (eviction trigger).
    sheds: u32,
    /// Ops submitted and not yet completed ([`INFLIGHT_CAP`]).
    pending: u32,
    /// Tokens the server granted this session: `(pid, node, token,
    /// open-flag bits)`, auto-closed on eviction or hangup.
    open_tokens: Vec<(Pid, NodeId, OpenToken, u64)>,
    /// Raw bytes of the last sequenced request frame this session
    /// delivered (fuel for the stale-replay adversary; kept only when
    /// the plan can roll a stale replay).
    last_seq_frame: Option<Vec<u8>>,
    /// Queued in the ready FIFO (holds servable inbound bytes).
    ready: bool,
}

impl SessionState {
    fn new(persona: Persona) -> SessionState {
        SessionState {
            link: LinkState::Live,
            persona,
            inbound: Vec::new(),
            outbound: Vec::new(),
            rx: Vec::new(),
            drain_armed: false,
            sheds: 0,
            pending: 0,
            open_tokens: Vec::new(),
            last_seq_frame: None,
            ready: false,
        }
    }
}

/// One server and its client sessions: the in-flight op table, the
/// event queue, the fault plan, the per-session bounded queues and the
/// readiness loop. Shared (behind a mutex) by every [`RemoteClient`]
/// handle and the mounted [`RemoteFs`].
pub struct WireSession<K> {
    inner: Box<dyn FileSystem<K> + Send>,
    ioctl_table: Option<IoctlTable>,
    fault: Option<FaultPlan>,
    retry: RetryPolicy,
    /// Virtual wire clock, in ticks.
    clock: u64,
    /// Next op tag (server-unique, travels in the frame header).
    next_tag: u64,
    /// Monotone event id: ties on the clock break deterministically.
    next_event_id: u64,
    events: BinaryHeap<Scheduled>,
    inflight: BTreeMap<u64, InFlight>,
    /// Tags of ops resolved (by reply, timeout or eviction) and not yet
    /// drained by [`RemoteClient::take_completed`]. Host-side only:
    /// restore re-derives it from `inflight`. Pruned to the tags still
    /// in `inflight` once it outgrows twice that table.
    resolved: Vec<u64>,
    /// Server-side dedup window: `(tag, cached response body)`.
    dedup: VecDeque<(u64, Vec<u8>)>,
    /// At least every tag in `dedup`, so a request with a newer tag (every
    /// fresh sequenced op) skips the window scan. Host-side only: restore
    /// re-derives it from the window.
    dedup_newest: u64,
    /// Seeded service-jitter stream: reorders reply completions.
    jitter: u64,
    stats: WireStats,
    // -- the server half --
    /// Every session ever opened, indexed by session id (ids are dense
    /// and a session is never removed, only marked `Gone`).
    sessions: Vec<SessionState>,
    /// FIFO ready-set: sessions holding servable inbound bytes (each
    /// queued at most once, see [`SessionState::ready`]).
    ready_q: VecDeque<u32>,
    /// Inbound queue cap, bytes.
    in_cap: usize,
    /// Outbound queue cap, bytes.
    out_cap: usize,
    /// Tick the service budget below applies to.
    served_tick: u64,
    /// Frames served at `served_tick` (bounded by
    /// [`SERVER_OPS_PER_TICK`]).
    served_count: u32,
    /// A `Service` rollover event is scheduled.
    service_armed: bool,
}

impl<K> WireSession<K> {
    fn new(inner: Box<dyn FileSystem<K> + Send>) -> WireSession<K> {
        let mut s = WireSession {
            inner,
            ioctl_table: None,
            fault: None,
            retry: RetryPolicy::default(),
            clock: 0,
            next_tag: 1,
            next_event_id: 0,
            events: BinaryHeap::new(),
            inflight: BTreeMap::new(),
            resolved: Vec::new(),
            dedup: VecDeque::new(),
            dedup_newest: 0,
            jitter: 0x5EED_0F0F_CAFE_F00D,
            stats: WireStats::default(),
            sessions: Vec::new(),
            ready_q: VecDeque::new(),
            in_cap: DEFAULT_QUEUE_CAP,
            out_cap: DEFAULT_QUEUE_CAP,
            served_tick: 0,
            served_count: 0,
            service_armed: false,
        };
        // Session 0: the blocking mount face. Always clean, always
        // live — the local mount is not an adversary.
        let _ = s.create_session();
        s
    }

    /// Creates a session, rolling its persona from the adversary rates
    /// (session 0 and plans without adversaries roll nothing).
    fn create_session(&mut self) -> u32 {
        let sid = self.sessions.len() as u32;
        let persona = if sid == 0 {
            Persona::Clean
        } else if self.fault.as_mut().is_some_and(FaultPlan::roll_slow_reader) {
            Persona::SlowReader
        } else if self.fault.as_mut().is_some_and(FaultPlan::roll_half_open) {
            Persona::HalfOpen
        } else {
            Persona::Clean
        };
        if sid != 0 {
            self.stats.sessions_opened += 1;
        }
        self.sessions.push(SessionState::new(persona));
        sid
    }

    fn schedule(&mut self, delay: u64, ev: NetEvent) {
        let id = self.next_event_id;
        self.next_event_id += 1;
        self.events.push(Scheduled { due: self.clock + delay, id, ev });
    }

    fn service_jitter(&mut self) -> u64 {
        let mut x = self.jitter;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.jitter = x;
        x.wrapping_mul(0x2545_F491_4F6C_DD1D) % SERVICE_JITTER
    }

    /// Runs one frame through the fault plan (or delivers it intact).
    fn network(&mut self, frame: Vec<u8>) -> [Option<Delivery>; 2] {
        match self.fault.as_mut() {
            Some(plan) => plan.perturb(frame, &mut self.stats),
            None => [Some(Delivery { bytes: frame, late: false }), None],
        }
    }

    /// Marks a session's inbound queue servable (idempotent; FIFO).
    fn mark_ready(&mut self, sid: u32) {
        if let Some(s) = self.sessions.get_mut(sid as usize) {
            if !s.ready {
                s.ready = true;
                self.ready_q.push_back(sid);
            }
        }
    }

    /// Submits one marshalled request on a session; returns its op tag.
    /// Rejects with `EAGAIN` — before any traffic, and without counting
    /// an op — when the session is gone or over its in-flight cap. The
    /// request frame and the first retry timer enter the event queue;
    /// nothing blocks.
    fn submit(&mut self, sid: u32, body: Vec<u8>) -> SysResult<u64> {
        let ok = self
            .sessions
            .get(sid as usize)
            .is_some_and(|s| s.link != LinkState::Gone && s.pending < INFLIGHT_CAP);
        if !ok {
            self.stats.eagain_rejected += 1;
            return Err(Errno::EAGAIN);
        }
        self.stats.ops += 1;
        let tag = self.next_tag;
        self.next_tag = self.next_tag.wrapping_add(1);
        self.inflight.insert(
            tag,
            InFlight { sid, body, attempts: 0, backoff: 1, budget: self.retry.budget, done: None },
        );
        if let Some(s) = self.sessions.get_mut(sid as usize) {
            s.pending += 1;
        }
        self.send_attempt(tag);
        Ok(tag)
    }

    /// Frames and transmits one attempt for `tag`, arming its retry
    /// timer. A down or gone link transmits nothing (the bytes are
    /// lost with the link), but the retry timer still arms so the op
    /// degrades to `ETIMEDOUT` instead of hanging.
    fn send_attempt(&mut self, tag: u64) {
        let Some(op) = self.inflight.get_mut(&tag) else {
            return;
        };
        op.attempts += 1;
        let (attempt, backoff, sid) = (op.attempts, op.backoff, op.sid);
        let live = self.sessions.get(sid as usize).is_some_and(|s| s.link == LinkState::Live);
        if live {
            if attempt > 1 {
                self.stats.retries += 1;
            }
            let frame = encode_frame(tag, &op.body);
            self.stats.frames_sent += 1;
            self.stats.bytes_sent += frame.len() as u64;
            for d in self.network(frame).into_iter().flatten() {
                let delay = TRANSIT_TICKS + if d.late { LATE_TICKS } else { 0 };
                self.schedule(delay, NetEvent::Request { sid, bytes: d.bytes });
            }
        }
        self.schedule(RETRY_RTT + backoff, NetEvent::Retry { tag });
    }

    /// Processes the next scheduled event, advancing the virtual clock,
    /// then serves any ready sessions within this tick's budget.
    /// Returns false when the queue is empty (the wire is idle).
    fn pump_one(&mut self, k: &mut K) -> bool {
        let Some(s) = self.events.pop() else {
            return false;
        };
        self.clock = self.clock.max(s.due);
        match s.ev {
            NetEvent::Request { sid, bytes } => self.on_request_arrive(k, sid, bytes),
            NetEvent::ReplyEnqueue { sid, bytes } => self.on_reply_enqueue(k, sid, bytes),
            NetEvent::Drain { sid } => self.on_drain(sid),
            NetEvent::Retry { tag } => self.on_retry(tag),
            NetEvent::Reconnect { sid } => self.do_reconnect(k, sid),
            NetEvent::Service => self.service_armed = false,
        }
        self.service_ready(k);
        true
    }

    /// Request bytes reach the server: adversary rolls (mid-frame cut,
    /// flood burst), then a cap-checked append to the session's inbound
    /// queue. Session 0 — the local mount — is exempt from adversarial
    /// client behaviour.
    fn on_request_arrive(&mut self, k: &mut K, sid: u32, mut bytes: Vec<u8>) {
        if self.sessions.get(sid as usize).map(|s| s.link) != Some(LinkState::Live) {
            self.stats.frames_shed += 1;
            return;
        }
        if sid != 0 {
            let mid = self.fault.as_mut().is_some_and(FaultPlan::roll_mid_frame);
            if mid {
                if !bytes.is_empty() {
                    let keep = self.fault.as_mut().map(|p| p.cut_point(bytes.len())).unwrap_or(0);
                    bytes.truncate(keep);
                }
                self.stats.churn_events += 1;
                if let Some(sess) = self.sessions.get_mut(sid as usize) {
                    sess.link = LinkState::Down;
                    sess.drain_armed = false;
                }
                self.schedule(RECONNECT_TICKS, NetEvent::Reconnect { sid });
                if !bytes.is_empty() {
                    self.append_inbound(k, sid, bytes);
                }
                return;
            }
            let flood = self.fault.as_mut().is_some_and(FaultPlan::roll_flood);
            if flood {
                self.stats.floods += 1;
                for _ in 0..FLOOD_COPIES {
                    self.append_inbound(k, sid, bytes.clone());
                }
            }
        }
        self.append_inbound(k, sid, bytes);
    }

    /// Cap-checked append to a session's inbound queue; sheds on
    /// overflow and evicts a session that keeps shedding.
    fn append_inbound(&mut self, k: &mut K, sid: u32, bytes: Vec<u8>) {
        // Only a reconnect's stale-replay roll reads `last_seq_frame`, so
        // a plan that can never roll one skips classifying the frame.
        let keep_seq = self.fault.as_ref().is_some_and(|p| p.adv.stale_replay > 0);
        let Some(sess) = self.sessions.get_mut(sid as usize) else {
            return;
        };
        if sess.link == LinkState::Gone {
            self.stats.frames_shed += 1;
            return;
        }
        if sess.inbound.len() + bytes.len() > self.in_cap {
            self.stats.frames_shed += 1;
            sess.sheds += 1;
            let evict = sess.sheds > EVICT_SHED_LIMIT && sid != 0;
            if evict {
                self.teardown(k, sid, false);
            }
            return;
        }
        if keep_seq {
            if let Ok((_, body)) = decode_frame(&bytes) {
                if op_class(body.first().copied().unwrap_or(0)) == OpClass::Sequenced {
                    sess.last_seq_frame = Some(bytes.clone());
                }
            }
        }
        enqueue(&mut sess.inbound, bytes);
        let hw = sess.inbound.len() as u64;
        self.stats.in_queue_hwm = self.stats.in_queue_hwm.max(hw);
        self.mark_ready(sid);
    }

    /// The readiness loop: pops ready sessions FIFO and serves at most
    /// [`SERVER_OPS_PER_TICK`] frames this tick; leftover readiness
    /// arms a `Service` rollover event for the next tick.
    fn service_ready(&mut self, k: &mut K) {
        if self.clock != self.served_tick {
            self.served_tick = self.clock;
            self.served_count = 0;
        }
        while self.served_count < SERVER_OPS_PER_TICK {
            let Some(sid) = self.ready_q.pop_front() else {
                break;
            };
            let Some(sess) = self.sessions.get_mut(sid as usize) else {
                continue;
            };
            sess.ready = false;
            if sess.link != LinkState::Live {
                continue;
            }
            let Some((tag, len)) = next_frame(&mut sess.inbound, &mut self.stats) else {
                continue;
            };
            // Serve the body in place, then drop the frame from the queue.
            let mut inbound = std::mem::take(&mut sess.inbound);
            self.served_count += 1;
            if inbound.len() > len {
                self.mark_ready(sid);
            }
            self.handle_request(k, sid, tag, &inbound[FRAME_HEADER..len]);
            inbound.drain(..len);
            if let Some(sess) = self.sessions.get_mut(sid as usize) {
                sess.inbound = inbound;
            }
        }
        if !self.ready_q.is_empty() && !self.service_armed {
            self.service_armed = true;
            self.schedule(1, NetEvent::Service);
        }
    }

    /// Serves one extracted request frame: dedup, execute, track
    /// granted tokens, enqueue the (possibly perturbed) reply with
    /// service jitter.
    fn handle_request(&mut self, k: &mut K, sid: u32, tag: u64, body: &[u8]) {
        let op = body.first().copied().unwrap_or(0);
        let class = op_class(op);
        let cached = (class == OpClass::Sequenced && tag <= self.dedup_newest)
            .then(|| self.dedup.iter().find(|(t, _)| *t == tag).map(|(_, b)| encode_frame(tag, b)))
            .flatten();
        let frame = match cached {
            Some(frame) => {
                self.stats.dedup_hits += 1;
                frame
            }
            None => {
                let resp = match serve(&mut *self.inner, &self.ioctl_table, k, body) {
                    Ok(w) => w.0,
                    Err(e) => Wire::new(1).u32(e.to_wire()).0,
                };
                self.track_tokens(sid, op, body, &resp);
                let frame = encode_frame(tag, &resp);
                if class == OpClass::Sequenced {
                    self.dedup_newest = self.dedup_newest.max(tag);
                    self.dedup.push_back((tag, resp));
                    if self.dedup.len() > DEDUP_WINDOW {
                        self.dedup.pop_front();
                    }
                }
                frame
            }
        };
        self.stats.bytes_received += frame.len() as u64;
        let jitter = self.service_jitter();
        for d in self.network(frame).into_iter().flatten() {
            let delay = TRANSIT_TICKS + jitter + if d.late { LATE_TICKS } else { 0 };
            self.schedule(delay, NetEvent::ReplyEnqueue { sid, bytes: d.bytes });
        }
    }

    /// Records tokens the server granted (successful opens) and drops
    /// them again on successful closes, so eviction can release what
    /// the dead client held.
    fn track_tokens(&mut self, sid: u32, op: u8, req: &[u8], resp: &[u8]) {
        let Some(sess) = self.sessions.get_mut(sid as usize) else {
            return;
        };
        match op {
            OP_OPEN => {
                let mut r = WireReader::new(req);
                let parsed = (|| -> WireResult<(Pid, NodeId, u64)> {
                    let _ = r.u8()?;
                    Ok((Pid(r.u32()?), NodeId(r.u64()?), r.u64()?))
                })();
                if let (Ok((cur, node, bits)), Some((0, rest))) = (parsed, resp.split_first()) {
                    let mut rr = WireReader::new(rest);
                    if let Ok(tok) = rr.u64() {
                        sess.open_tokens.push((cur, node, OpenToken(tok), bits));
                    }
                }
            }
            OP_CLOSE => {
                let mut r = WireReader::new(req);
                let parsed = (|| -> WireResult<(NodeId, OpenToken)> {
                    let _ = r.u8()?;
                    let _ = r.u32()?;
                    Ok((NodeId(r.u64()?), OpenToken(r.u64()?)))
                })();
                if let Ok((node, tok)) = parsed {
                    sess.open_tokens.retain(|(_, n, t, _)| !(*n == node && *t == tok));
                }
            }
            _ => {}
        }
    }

    /// Reply bytes reach a session's outbound queue (cap-checked; a
    /// dead link or a full queue sheds them) and the client end's drain
    /// is armed.
    fn on_reply_enqueue(&mut self, k: &mut K, sid: u32, bytes: Vec<u8>) {
        let Some(sess) = self.sessions.get_mut(sid as usize) else {
            return;
        };
        if sess.link != LinkState::Live {
            self.stats.frames_shed += 1;
            return;
        }
        if sess.outbound.len() + bytes.len() > self.out_cap {
            self.stats.frames_shed += 1;
            sess.sheds += 1;
            let evict = sess.sheds > EVICT_SHED_LIMIT && sid != 0;
            if evict {
                self.teardown(k, sid, false);
            }
            return;
        }
        enqueue(&mut sess.outbound, bytes);
        let hw = sess.outbound.len() as u64;
        self.stats.out_queue_hwm = self.stats.out_queue_hwm.max(hw);
        let arm = sess.persona.drain_rate() > 0 && !sess.drain_armed;
        if arm {
            sess.drain_armed = true;
            self.schedule(TRANSIT_TICKS, NetEvent::Drain { sid });
        }
    }

    /// The client end reads: moves up to the persona's drain rate from
    /// the outbound queue into the receive buffer and completes any
    /// whole frames found there.
    fn on_drain(&mut self, sid: u32) {
        let Some(sess) = self.sessions.get_mut(sid as usize) else {
            return;
        };
        if sess.link != LinkState::Live {
            sess.drain_armed = false;
            return;
        }
        let rate = sess.persona.drain_rate();
        if rate >= sess.outbound.len() {
            let all = std::mem::take(&mut sess.outbound);
            enqueue(&mut sess.rx, all);
        } else {
            sess.rx.extend(sess.outbound.drain(..rate));
        }
        let rearm = !sess.outbound.is_empty() && rate > 0;
        sess.drain_armed = rearm;
        // Each whole frame leaves the buffer as its own allocation.
        let mut rx = std::mem::take(&mut sess.rx);
        while let Some((tag, len)) = next_frame(&mut rx, &mut self.stats) {
            let rest = rx.split_off(len);
            self.complete_op(tag, Reply(std::mem::replace(&mut rx, rest)));
        }
        if let Some(sess) = self.sessions.get_mut(sid as usize) {
            sess.rx = rx;
        }
        if rearm {
            self.schedule(1, NetEvent::Drain { sid });
        }
    }

    /// Client side: demultiplex a completion (one whole reply frame)
    /// into its in-flight slot.
    fn complete_op(&mut self, tag: u64, frame: Reply) {
        let Some(op) = self.inflight.get_mut(&tag) else {
            return; // stale tag: the op already completed and was taken
        };
        if op.done.is_some() {
            return; // duplicate reply: first one won
        }
        op.done = Some(match frame.0.get(FRAME_HEADER) {
            Some(0) => Ok(frame),
            Some(1) => {
                let mut r = WireReader::new(frame.body());
                match r.u32() {
                    Ok(code) => Err(Errno::from_wire(code)),
                    Err(_) => Err(Errno::EIO),
                }
            }
            _ => Err(Errno::EIO),
        });
        let sid = op.sid;
        if let Some(s) = self.sessions.get_mut(sid as usize) {
            s.pending = s.pending.saturating_sub(1);
        }
        self.note_resolved(tag);
    }

    /// Records that `tag` resolved, first pruning tags already taken
    /// once the list outgrows twice the in-flight table (amortised
    /// O(1): a prune halves the list at least).
    fn note_resolved(&mut self, tag: u64) {
        if self.resolved.len() >= 2 * self.inflight.len() + 16 {
            let inflight = &self.inflight;
            self.resolved.retain(|t| inflight.contains_key(t));
        }
        self.resolved.push(tag);
    }

    /// Retry timer: resend with doubled (capped) backoff, or degrade the
    /// op to a clean `ETIMEDOUT` once attempts or budget run out.
    fn on_retry(&mut self, tag: u64) {
        let (attempts, backoff, budget) = match self.inflight.get(&tag) {
            Some(op) if op.done.is_none() => (op.attempts, op.backoff, op.budget),
            _ => return,
        };
        if attempts >= self.retry.max_attempts.max(1) || budget < backoff {
            if let Some(op) = self.inflight.get_mut(&tag) {
                op.done = Some(Err(Errno::ETIMEDOUT));
                let sid = op.sid;
                if let Some(s) = self.sessions.get_mut(sid as usize) {
                    s.pending = s.pending.saturating_sub(1);
                }
                self.note_resolved(tag);
            }
            self.stats.timeouts += 1;
            return;
        }
        if let Some(op) = self.inflight.get_mut(&tag) {
            op.budget -= op.backoff;
            op.backoff = (op.backoff * 2).min(self.retry.backoff_cap.max(1));
        }
        self.send_attempt(tag);
    }

    /// Drops a session's link mid-stream (client-driven churn): queues
    /// clear, in-flight ops ride their retry timers.
    fn do_disconnect(&mut self, sid: u32) {
        let Some(sess) = self.sessions.get_mut(sid as usize) else {
            return;
        };
        if sess.link != LinkState::Live {
            return;
        }
        sess.link = LinkState::Down;
        sess.inbound.clear();
        sess.outbound.clear();
        sess.rx.clear();
        sess.drain_armed = false;
        self.stats.churn_events += 1;
    }

    /// Heals a down link; may replay the session's last sequenced frame
    /// with its stale tag (the dedup window must answer it, not
    /// re-execute it).
    fn do_reconnect(&mut self, k: &mut K, sid: u32) {
        let Some(sess) = self.sessions.get_mut(sid as usize) else {
            return;
        };
        if sess.link != LinkState::Down {
            return;
        }
        sess.link = LinkState::Live;
        let arm = !sess.outbound.is_empty() && sess.persona.drain_rate() > 0 && !sess.drain_armed;
        if arm {
            sess.drain_armed = true;
        }
        self.stats.churn_events += 1;
        if arm {
            self.schedule(TRANSIT_TICKS, NetEvent::Drain { sid });
        }
        let stale = self.fault.as_mut().is_some_and(FaultPlan::roll_stale_replay);
        if stale {
            let replay = self.sessions.get(sid as usize).and_then(|s| s.last_seq_frame.clone());
            if let Some(frame) = replay {
                self.stats.stale_replays += 1;
                self.append_inbound(k, sid, frame);
            }
        }
    }

    /// Terminal teardown (eviction or hangup): the link goes `Gone`,
    /// queues drop, every pending op on the session resolves to a typed
    /// `EAGAIN` (no future ever hangs), and the tokens the server
    /// granted this client are closed on its behalf — run-on-last-close
    /// fires exactly as if the client had closed cleanly.
    fn teardown(&mut self, k: &mut K, sid: u32, churn: bool) {
        let Some(sess) = self.sessions.get_mut(sid as usize) else {
            return;
        };
        if sess.link == LinkState::Gone {
            return;
        }
        sess.link = LinkState::Gone;
        sess.inbound.clear();
        sess.outbound.clear();
        sess.rx.clear();
        sess.drain_armed = false;
        sess.pending = 0;
        let tokens = std::mem::take(&mut sess.open_tokens);
        let mut evicted = Vec::new();
        for (tag, op) in self.inflight.iter_mut() {
            if op.sid == sid && op.done.is_none() {
                op.done = Some(Err(Errno::EAGAIN));
                evicted.push(*tag);
            }
        }
        for tag in evicted {
            self.note_resolved(tag);
        }
        if churn {
            self.stats.churn_events += 1;
        } else {
            self.stats.sessions_evicted += 1;
        }
        for (cur, node, tok, bits) in tokens {
            self.inner.close(k, cur, node, tok, OFlags::from_bits(bits));
        }
    }

    /// Removes and returns the completion for `tag` if it has arrived.
    fn try_take(&mut self, tag: u64) -> Option<SysResult<Reply>> {
        if self.inflight.get(&tag)?.done.is_some() {
            return self.inflight.remove(&tag).and_then(|op| op.done);
        }
        None
    }

    /// Pumps events until `tag` completes; the blocking face of the
    /// session. Other in-flight ops make progress underneath — their
    /// completions land in their own slots while we wait for ours.
    fn wait_raw(&mut self, k: &mut K, tag: u64) -> SysResult<Reply> {
        loop {
            if let Some(done) = self.try_take(tag) {
                return done;
            }
            if !self.inflight.contains_key(&tag) {
                return Err(Errno::EIO); // taken twice: caller bug
            }
            if !self.pump_one(k) {
                return Err(Errno::EIO); // queue dry with op pending: impossible
            }
        }
    }

    /// The ioctl gate shared by the blocking and pipelined faces:
    /// wire-stats introspection is answered locally, unknown or
    /// oversized requests are refused before any traffic.
    fn ioctl_gate(&mut self, req_no: u32, arg_len: usize) -> Result<IoctlWireSpec, IoctlGate> {
        if req_no == PIOCWIRESTATS {
            return Err(IoctlGate::Local(IoctlReply::Done(self.stats.to_bytes())));
        }
        let spec = match self.ioctl_table.as_ref().and_then(|t| t(req_no)) {
            Some(s) => s,
            None => {
                self.stats.unsupported_ioctls += 1;
                return Err(IoctlGate::Refused(Errno::ENOTSUP));
            }
        };
        if arg_len > spec.in_len {
            self.stats.unsupported_ioctls += 1;
            return Err(IoctlGate::Refused(Errno::ENOTSUP));
        }
        Ok(spec)
    }

    /// Deep-copies every piece of wire state *except* the served file
    /// system and the ioctl table (both are reconstructed from the
    /// `SimConfig` at restore time) into a [`WireSnapshot`].
    fn capture_state(&self) -> WireSnapshot {
        WireSnapshot {
            fault: self.fault.clone(),
            retry: self.retry,
            clock: self.clock,
            next_tag: self.next_tag,
            next_event_id: self.next_event_id,
            events: self.events.iter().cloned().collect(),
            inflight: self.inflight.clone(),
            dedup: self.dedup.iter().cloned().collect(),
            jitter: self.jitter,
            stats: self.stats,
            sessions: self.sessions.clone(),
            ready_q: self.ready_q.iter().copied().collect(),
            in_cap: self.in_cap,
            out_cap: self.out_cap,
            served_tick: self.served_tick,
            served_count: self.served_count,
            service_armed: self.service_armed,
        }
    }

    /// Overwrites every captured field from a [`WireSnapshot`], leaving
    /// the served file system and the ioctl table as constructed.
    fn restore_state(&mut self, snap: &WireSnapshot) {
        self.fault = snap.fault.clone();
        self.retry = snap.retry;
        self.clock = snap.clock;
        self.next_tag = snap.next_tag;
        self.next_event_id = snap.next_event_id;
        self.events = snap.events.iter().cloned().collect();
        self.inflight = snap.inflight.clone();
        self.resolved =
            self.inflight.iter().filter(|(_, op)| op.done.is_some()).map(|(t, _)| *t).collect();
        self.dedup = snap.dedup.iter().cloned().collect();
        self.dedup_newest = snap.dedup.iter().map(|(t, _)| *t).max().unwrap_or(0);
        self.jitter = snap.jitter;
        self.stats = snap.stats;
        self.sessions = snap.sessions.clone();
        self.ready_q = snap.ready_q.iter().copied().collect();
        self.in_cap = snap.in_cap;
        self.out_cap = snap.out_cap;
        self.served_tick = snap.served_tick;
        self.served_count = snap.served_count;
        self.service_armed = snap.service_armed;
    }
}

/// A deep copy of one [`WireSession`]'s state — clock, tags, event
/// queue, in-flight ops, dedup window, per-session queues and personas,
/// fault-plan RNG position, counters — *without* the served file system
/// or the ioctl table (those are rebuilt from the `SimConfig`). Banked
/// into a recording `Snap` so remote-mount configs resume from a
/// snapshot instead of rebuilding from tick zero.
#[derive(Clone)]
pub struct WireSnapshot {
    fault: Option<FaultPlan>,
    retry: RetryPolicy,
    clock: u64,
    next_tag: u64,
    next_event_id: u64,
    events: Vec<Scheduled>,
    inflight: BTreeMap<u64, InFlight>,
    dedup: Vec<(u64, Vec<u8>)>,
    jitter: u64,
    stats: WireStats,
    sessions: Vec<SessionState>,
    ready_q: Vec<u32>,
    in_cap: usize,
    out_cap: usize,
    served_tick: u64,
    served_count: u32,
    service_armed: bool,
}

impl std::fmt::Debug for WireSnapshot {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("WireSnapshot")
            .field("clock", &self.clock)
            .field("next_tag", &self.next_tag)
            .field("events", &self.events.len())
            .field("inflight", &self.inflight.len())
            .field("sessions", &self.sessions.len())
            .finish_non_exhaustive()
    }
}

/// Outcome of the client-side ioctl gate when no wire op is needed.
enum IoctlGate {
    Local(IoctlReply),
    Refused(Errno),
}

fn lock<K>(session: &Arc<Mutex<WireSession<K>>>) -> MutexGuard<'_, WireSession<K>> {
    session.lock().unwrap_or_else(PoisonError::into_inner)
}

/// A pending remote operation: a poll-based state machine resolved by
/// [`RemoteClient::try_complete`] or [`RemoteClient::wait`]. No async
/// runtime — completion is driven by pumping the session's event queue.
/// A future whose session is evicted or hung up mid-flight resolves to
/// `EAGAIN`; it never hangs.
pub struct OpFuture<T> {
    tag: Option<u64>,
    ready: Option<SysResult<T>>,
    parse: fn(&[u8]) -> SysResult<T>,
}

impl<T> OpFuture<T> {
    fn pending(tag: u64, parse: fn(&[u8]) -> SysResult<T>) -> OpFuture<T> {
        OpFuture { tag: Some(tag), ready: None, parse }
    }

    /// An operation resolved without touching the wire (local ioctl
    /// answers, client-side refusals, over-cap submissions).
    fn resolved(r: SysResult<T>) -> OpFuture<T> {
        OpFuture { tag: None, ready: Some(r), parse: parse_never }
    }

    /// The op tag this future is waiting on (`None` once resolved
    /// locally).
    pub fn tag(&self) -> Option<u64> {
        self.tag
    }
}

/// One client handle onto a shared [`WireSession`], bound to one
/// session. `clone` shares the session (tags stay server-unique);
/// [`RemoteFs::client`] mints a handle with a *new* session — its own
/// bounded queues, persona and link state. Ops submitted through any
/// handle share the server's in-flight table, fault plan and dedup
/// window, so concurrent handles' traffic interleaves on the wire
/// exactly as concurrent processes' would.
pub struct RemoteClient<K> {
    session: Arc<Mutex<WireSession<K>>>,
    sid: u32,
}

impl<K> Clone for RemoteClient<K> {
    fn clone(&self) -> RemoteClient<K> {
        RemoteClient { session: Arc::clone(&self.session), sid: self.sid }
    }
}

impl<K> RemoteClient<K> {
    fn start<T>(&self, req: Wire, parse: fn(&[u8]) -> SysResult<T>) -> OpFuture<T> {
        match lock(&self.session).submit(self.sid, req.0) {
            Ok(tag) => OpFuture::pending(tag, parse),
            Err(e) => OpFuture::resolved(Err(e)),
        }
    }

    /// Pipelined lookup.
    pub fn submit_lookup(&self, cur: Pid, dir: NodeId, name: &str) -> OpFuture<NodeId> {
        self.start(Wire::new(OP_LOOKUP).u32(cur.0).u64(dir.0).str(name), parse_node)
    }

    /// Pipelined open (sequenced: exactly-once under retransmission).
    pub fn submit_open(
        &self,
        cur: Pid,
        node: NodeId,
        flags: OFlags,
        cred: &Cred,
    ) -> OpFuture<OpenToken> {
        let req = cred_wire(Wire::new(OP_OPEN).u32(cur.0).u64(node.0).u64(flags.to_bits()), cred);
        self.start(req, parse_token)
    }

    /// Pipelined close (sequenced).
    pub fn submit_close(
        &self,
        cur: Pid,
        node: NodeId,
        token: OpenToken,
        flags: OFlags,
    ) -> OpFuture<()> {
        let req = Wire::new(OP_CLOSE).u32(cur.0).u64(node.0).u64(token.0).u64(flags.to_bits());
        self.start(req, parse_unit)
    }

    /// Pipelined read.
    pub fn submit_read(
        &self,
        cur: Pid,
        node: NodeId,
        token: OpenToken,
        off: u64,
        len: usize,
    ) -> OpFuture<RemoteRead> {
        let req = Wire::new(OP_READ).u32(cur.0).u64(node.0).u64(token.0).u64(off).u64(len as u64);
        self.start(req, parse_read)
    }

    /// Pipelined write (sequenced). At most [`MAX_IO`] bytes of `data`
    /// cross; the reply counts what was written.
    pub fn submit_write(
        &self,
        cur: Pid,
        node: NodeId,
        token: OpenToken,
        off: u64,
        data: &[u8],
    ) -> OpFuture<IoReply> {
        let data = &data[..data.len().min(MAX_IO)];
        let req = Wire::new(OP_WRITE).u32(cur.0).u64(node.0).u64(token.0).u64(off).bytes(data);
        self.start(req, parse_write)
    }

    /// Pipelined ioctl (sequenced). Wire-stats introspection and
    /// table-refused requests resolve immediately without traffic.
    pub fn submit_ioctl(
        &self,
        cur: Pid,
        node: NodeId,
        token: OpenToken,
        req_no: u32,
        arg: &[u8],
    ) -> OpFuture<IoctlReply> {
        let mut s = lock(&self.session);
        match s.ioctl_gate(req_no, arg.len()) {
            Ok(_) => {
                let req =
                    Wire::new(OP_IOCTL).u32(cur.0).u64(node.0).u64(token.0).u32(req_no).bytes(arg);
                match s.submit(self.sid, req.0) {
                    Ok(tag) => OpFuture::pending(tag, parse_ioctl),
                    Err(e) => OpFuture::resolved(Err(e)),
                }
            }
            Err(IoctlGate::Local(reply)) => OpFuture::resolved(Ok(reply)),
            Err(IoctlGate::Refused(e)) => OpFuture::resolved(Err(e)),
        }
    }

    /// Processes one scheduled wire event; false when the wire is idle.
    pub fn pump(&self, k: &mut K) -> bool {
        lock(&self.session).pump_one(k)
    }

    /// Polls a future without blocking: `Some` exactly once, when the
    /// completion has been demultiplexed into its slot.
    pub fn try_complete<T>(&self, fut: &mut OpFuture<T>) -> Option<SysResult<T>> {
        if let Some(r) = fut.ready.take() {
            fut.tag = None;
            return Some(r);
        }
        let tag = fut.tag?;
        let raw = lock(&self.session).try_take(tag)?;
        fut.tag = None;
        Some(raw.and_then(|r| (fut.parse)(r.body())))
    }

    /// Blocks (pumping the wire) until the future completes. Other
    /// handles' in-flight ops progress underneath. An evicted session's
    /// futures resolve to `EAGAIN` — this never hangs.
    pub fn wait<T>(&self, k: &mut K, mut fut: OpFuture<T>) -> SysResult<T> {
        if let Some(r) = fut.ready.take() {
            return r;
        }
        let tag = match fut.tag {
            Some(t) => t,
            None => return Err(Errno::EIO),
        };
        let raw = lock(&self.session).wait_raw(k, tag)?;
        (fut.parse)(raw.body())
    }

    /// Drains the tags of ops resolved (by reply, timeout or eviction)
    /// since the last drain, across all sessions, in resolution order.
    /// A poller over many futures completes just these (see
    /// [`OpFuture::tag`]) instead of polling every pending one; a tag
    /// another poller has already taken may appear and is skipped.
    /// Undrained, the list stays within about twice the in-flight table.
    pub fn take_completed(&self) -> Vec<u64> {
        std::mem::take(&mut lock(&self.session).resolved)
    }

    /// Ops submitted but not yet completed, across all sessions.
    pub fn in_flight(&self) -> usize {
        let s = lock(&self.session);
        s.inflight.values().filter(|op| op.done.is_none()).count()
    }

    /// The session's virtual clock, in ticks.
    pub fn ticks(&self) -> u64 {
        lock(&self.session).clock
    }

    /// A snapshot of the session's traffic counters.
    pub fn stats(&self) -> WireStats {
        lock(&self.session).stats
    }

    /// Resets the session's traffic counters.
    pub fn reset_stats(&self) {
        lock(&self.session).stats = WireStats::default();
    }

    /// Readiness of this handle's session, in `poll(2)` terms:
    /// readable when a completed op is waiting to be taken, writable
    /// when the link is live and under its in-flight cap, hangup once
    /// the session is evicted or hung up.
    pub fn poll_session(&self) -> PollStatus {
        let s = lock(&self.session);
        let sess = s.sessions.get(self.sid as usize);
        let hangup = sess.is_none_or(|x| x.link == LinkState::Gone);
        let writable = sess.is_some_and(|x| x.link == LinkState::Live && x.pending < INFLIGHT_CAP);
        let readable = s.inflight.values().any(|op| op.sid == self.sid && op.done.is_some());
        PollStatus { readable, writable, hangup }
    }

    /// Drops this session's link mid-stream (connection churn): queued
    /// bytes are lost, in-flight ops ride their retry timers, and the
    /// link stays down until [`RemoteClient::reconnect`].
    pub fn disconnect(&self) {
        lock(&self.session).do_disconnect(self.sid);
    }

    /// Heals a dropped link. Under an adversarial plan the reconnect
    /// may replay the session's last sequenced frame with a stale tag —
    /// the dedup window answers it without re-executing.
    pub fn reconnect(&self, k: &mut K) {
        lock(&self.session).do_reconnect(k, self.sid);
    }

    /// Hangs the session up for good: pending ops resolve to `EAGAIN`,
    /// server-side tokens it held are closed on its behalf, and further
    /// submissions are rejected.
    pub fn hangup(&self, k: &mut K) {
        lock(&self.session).teardown(k, self.sid, true);
    }

    /// Injects raw bytes into this session's inbound queue, as a
    /// misbehaving peer would, then lets the readiness loop serve them.
    /// Robustness tests use this to deliver forged, truncated and
    /// replayed frames.
    pub fn inject_inbound(&self, k: &mut K, bytes: &[u8]) {
        let mut s = lock(&self.session);
        s.append_inbound(k, self.sid, bytes.to_vec());
        s.service_ready(k);
    }
}

/// Declarative wire configuration: faults, retry discipline and queue
/// caps as one plain value. A `SimConfig` mount plan carries one of
/// these so a recorded run can reconstruct its wire byte-for-byte;
/// apply it with [`RemoteFs::with_config`].
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct WireConfig {
    /// Seed for the fault plan (unused when `faults` is `None`).
    pub fault_seed: u64,
    /// Network-fault rates; `None` means a perfect wire.
    pub faults: Option<FaultRates>,
    /// Adversarial-client persona rates (only meaningful with `faults`).
    pub adversary: Option<AdversaryRates>,
    /// Client retry discipline override.
    pub retry: Option<RetryPolicy>,
    /// Per-session queue caps `(in, out)` in bytes.
    pub queue_caps: Option<(usize, usize)>,
}

impl WireConfig {
    /// A perfect wire: no faults, default retry and caps.
    pub fn clean() -> WireConfig {
        WireConfig::default()
    }

    /// A lossy wire under `rates`, scheduled from `seed`.
    pub fn faulty(seed: u64, rates: FaultRates) -> WireConfig {
        WireConfig { fault_seed: seed, faults: Some(rates), ..WireConfig::default() }
    }

    /// Adds adversarial-client personas to a faulty wire.
    pub fn adversarial(mut self, adv: AdversaryRates) -> WireConfig {
        self.adversary = Some(adv);
        self
    }

    /// Overrides the retry policy.
    pub fn retry(mut self, policy: RetryPolicy) -> WireConfig {
        self.retry = Some(policy);
        self
    }

    /// Overrides the per-session queue caps (bytes per direction).
    pub fn queue_caps(mut self, in_cap: usize, out_cap: usize) -> WireConfig {
        self.queue_caps = Some((in_cap, out_cap));
        self
    }

    /// Folds every field into a stable little-endian byte encoding (the
    /// recording digest covers the construction config).
    pub fn encode(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(&self.fault_seed.to_le_bytes());
        match self.faults {
            None => out.push(0),
            Some(r) => {
                out.push(1);
                for v in [r.drop, r.truncate, r.bitflip, r.duplicate, r.delay] {
                    out.extend_from_slice(&v.to_le_bytes());
                }
            }
        }
        match self.adversary {
            None => out.push(0),
            Some(a) => {
                out.push(1);
                for v in [a.slow_reader, a.half_open, a.flood, a.mid_frame, a.stale_replay] {
                    out.extend_from_slice(&v.to_le_bytes());
                }
            }
        }
        match self.retry {
            None => out.push(0),
            Some(p) => {
                out.push(1);
                out.extend_from_slice(&p.max_attempts.to_le_bytes());
                out.extend_from_slice(&p.backoff_cap.to_le_bytes());
                out.extend_from_slice(&p.budget.to_le_bytes());
            }
        }
        match self.queue_caps {
            None => out.push(0),
            Some((i, o)) => {
                out.push(1);
                out.extend_from_slice(&(i as u64).to_le_bytes());
                out.extend_from_slice(&(o as u64).to_le_bytes());
            }
        }
    }

    /// Parses the [`WireConfig::encode`] byte layout back into a config,
    /// advancing `r` past it. The inverse the on-disk recording loader
    /// needs; any truncation or malformed presence byte is a
    /// [`WireError`], never a panic or a half-parsed config.
    pub fn decode(r: &mut WireReader<'_>) -> Result<WireConfig, WireError> {
        let fault_seed = r.u64()?;
        let presence = |r: &mut WireReader<'_>| -> Result<bool, WireError> {
            match r.u8()? {
                0 => Ok(false),
                1 => Ok(true),
                _ => Err(WireError::Malformed),
            }
        };
        let faults = if presence(r)? {
            Some(FaultRates {
                drop: r.u16()?,
                truncate: r.u16()?,
                bitflip: r.u16()?,
                duplicate: r.u16()?,
                delay: r.u16()?,
            })
        } else {
            None
        };
        let adversary = if presence(r)? {
            Some(AdversaryRates {
                slow_reader: r.u16()?,
                half_open: r.u16()?,
                flood: r.u16()?,
                mid_frame: r.u16()?,
                stale_replay: r.u16()?,
            })
        } else {
            None
        };
        let retry = if presence(r)? {
            Some(RetryPolicy { max_attempts: r.u32()?, backoff_cap: r.u64()?, budget: r.u64()? })
        } else {
            None
        };
        let queue_caps =
            if presence(r)? { Some((r.u64()? as usize, r.u64()? as usize)) } else { None };
        Ok(WireConfig { fault_seed, faults, adversary, retry, queue_caps })
    }
}

/// A file system accessed across a simulated (and possibly lossy) wire:
/// the blocking [`FileSystem`] face of a [`WireSession`] (always
/// session 0). Mint pipelined handles with [`RemoteFs::client`] before
/// (or after) mounting — each gets its own session on this server.
pub struct RemoteFs<K> {
    session: Arc<Mutex<WireSession<K>>>,
}

impl<K> RemoteFs<K> {
    /// Wraps `inner` over a perfect wire. Without an ioctl table, every
    /// ioctl is refused.
    pub fn new(inner: Box<dyn FileSystem<K> + Send>) -> RemoteFs<K> {
        RemoteFs { session: Arc::new(Mutex::new(WireSession::new(inner))) }
    }

    /// Supplies the per-request ioctl wire table.
    pub fn with_ioctl_table(self, table: IoctlTable) -> RemoteFs<K> {
        lock(&self.session).ioctl_table = Some(table);
        self
    }

    /// Applies a declarative [`WireConfig`]: a fault plan (the
    /// service-jitter stream reseeds from it, so one seed fixes the whole
    /// schedule — faults, personas and reorderings), a retry policy and
    /// per-session queue caps (smaller caps shed sooner; see
    /// [`DEFAULT_QUEUE_CAP`]). Unset fields keep the perfect-wire
    /// defaults.
    pub fn with_config(self, cfg: &WireConfig) -> RemoteFs<K> {
        {
            let mut s = lock(&self.session);
            if let Some(rates) = cfg.faults {
                let mut plan = FaultPlan::new(cfg.fault_seed, rates);
                if let Some(adv) = cfg.adversary {
                    plan = plan.with_adversary(adv);
                }
                s.jitter = plan.state ^ 0xA5A5_5A5A_0DDC_0DE5;
                s.fault = Some(plan);
            }
            if let Some(policy) = cfg.retry {
                s.retry = policy;
            }
            if let Some((in_cap, out_cap)) = cfg.queue_caps {
                s.in_cap = in_cap.max(1);
                s.out_cap = out_cap.max(1);
            }
        }
        self
    }

    /// Mints a pipelined client handle with its own session (bounded
    /// queues, persona, link state) on this server.
    pub fn client(&self) -> RemoteClient<K> {
        let sid = lock(&self.session).create_session();
        RemoteClient { session: Arc::clone(&self.session), sid }
    }

    /// A snapshot of the traffic counters.
    pub fn stats(&self) -> WireStats {
        lock(&self.session).stats
    }

    /// Resets the traffic counters.
    pub fn reset_stats(&mut self) {
        lock(&self.session).stats = WireStats::default();
    }

    /// The session's virtual clock, in ticks.
    pub fn ticks(&self) -> u64 {
        lock(&self.session).clock
    }

    /// Captures the wire state (see [`WireSnapshot`]).
    pub fn snapshot_wire(&self) -> WireSnapshot {
        lock(&self.session).capture_state()
    }

    /// Restores previously captured wire state over this session's
    /// served file system and ioctl table.
    pub fn restore_wire(&self, snap: &WireSnapshot) {
        lock(&self.session).restore_state(snap);
    }

    /// Blocking submit-and-wait: one op end to end through the shared
    /// session (always session 0, the mount face).
    fn call<T>(
        &self,
        k: &mut K,
        req: Wire,
        parse: impl FnOnce(&[u8]) -> SysResult<T>,
    ) -> SysResult<T> {
        let mut s = lock(&self.session);
        let tag = s.submit(0, req.0)?;
        let raw = s.wait_raw(k, tag)?;
        parse(raw.body())
    }
}

impl<K> FileSystem<K> for RemoteFs<K> {
    fn type_name(&self) -> &'static str {
        "remote"
    }

    fn wire_snapshot(&self) -> Option<WireSnapshot> {
        Some(self.snapshot_wire())
    }

    fn wire_restore(&mut self, snap: &WireSnapshot) -> bool {
        self.restore_wire(snap);
        true
    }

    fn root(&self) -> NodeId {
        lock(&self.session).inner.root()
    }

    fn lookup(&mut self, k: &mut K, cur: Pid, dir: NodeId, name: &str) -> SysResult<NodeId> {
        let req = Wire::new(OP_LOOKUP).u32(cur.0).u64(dir.0).str(name);
        self.call(k, req, parse_node)
    }

    fn getattr(&mut self, k: &mut K, node: NodeId) -> SysResult<Metadata> {
        let req = Wire::new(OP_GETATTR).u64(node.0);
        self.call(k, req, parse_metadata)
    }

    fn readdir(&mut self, k: &mut K, cur: Pid, dir: NodeId) -> SysResult<Vec<DirEntry>> {
        let req = Wire::new(OP_READDIR).u32(cur.0).u64(dir.0);
        self.call(k, req, parse_dirents)
    }

    fn open(
        &mut self,
        k: &mut K,
        cur: Pid,
        node: NodeId,
        flags: OFlags,
        cred: &Cred,
    ) -> SysResult<OpenToken> {
        let req = cred_wire(Wire::new(OP_OPEN).u32(cur.0).u64(node.0).u64(flags.to_bits()), cred);
        self.call(k, req, parse_token)
    }

    fn close(&mut self, k: &mut K, cur: Pid, node: NodeId, token: OpenToken, flags: OFlags) {
        // `close` has no error path to surface, but it still mutates
        // server state (writer accounting, exclusive-use release), so it
        // crosses as a sequenced op; a lost close is recorded in
        // `stats.timeouts`.
        let req = Wire::new(OP_CLOSE).u32(cur.0).u64(node.0).u64(token.0).u64(flags.to_bits());
        let _ = self.call(k, req, parse_unit);
    }

    fn read(
        &mut self,
        k: &mut K,
        cur: Pid,
        node: NodeId,
        token: OpenToken,
        off: u64,
        buf: &mut [u8],
    ) -> SysResult<IoReply> {
        // A read marshals generically: the request is (node, off, len) and
        // the response is the data — sizes and direction are manifest.
        // The server returns at most `MAX_IO` bytes: a short count.
        let req =
            Wire::new(OP_READ).u32(cur.0).u64(node.0).u64(token.0).u64(off).u64(buf.len() as u64);
        self.call(k, req, |b| match read_reply(b)? {
            Some(data) => {
                let n = data.len().min(buf.len());
                buf[..n].copy_from_slice(&data[..n]);
                Ok(IoReply::Done(n))
            }
            None => Ok(IoReply::Block),
        })
    }

    fn write(
        &mut self,
        k: &mut K,
        cur: Pid,
        node: NodeId,
        token: OpenToken,
        off: u64,
        data: &[u8],
    ) -> SysResult<IoReply> {
        // At most `MAX_IO` bytes cross, so the request fits one frame.
        let data = &data[..data.len().min(MAX_IO)];
        let req = Wire::new(OP_WRITE).u32(cur.0).u64(node.0).u64(token.0).u64(off).bytes(data);
        self.call(k, req, parse_write)
    }

    fn ioctl(
        &mut self,
        k: &mut K,
        cur: Pid,
        node: NodeId,
        token: OpenToken,
        req_no: u32,
        arg: &[u8],
    ) -> SysResult<IoctlReply> {
        // Wire introspection is answered locally — the counters being
        // asked about live on this side of the wire. An ioctl can only
        // cross if someone taught the shim this request's operand sizes
        // and directions.
        let mut s = lock(&self.session);
        match s.ioctl_gate(req_no, arg.len()) {
            Ok(_) => {
                let req =
                    Wire::new(OP_IOCTL).u32(cur.0).u64(node.0).u64(token.0).u32(req_no).bytes(arg);
                let tag = s.submit(0, req.0)?;
                let raw = s.wait_raw(k, tag)?;
                parse_ioctl(raw.body())
            }
            Err(IoctlGate::Local(reply)) => Ok(reply),
            Err(IoctlGate::Refused(e)) => Err(e),
        }
    }

    fn poll(&mut self, k: &mut K, node: NodeId, token: OpenToken) -> SysResult<PollStatus> {
        let req = Wire::new(OP_POLL).u64(node.0).u64(token.0);
        self.call(k, req, parse_poll)
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;
    use crate::memfs::MemFs;

    const P: Pid = Pid(1);

    fn remote_memfs() -> RemoteFs<()> {
        let mut fs = MemFs::<()>::new();
        fs.install("/bin/tool", 0o755, 0, 0, b"payload-bytes".to_vec());
        RemoteFs::new(Box::new(fs))
    }

    fn faulty_memfs(seed: u64, rates: FaultRates) -> RemoteFs<()> {
        let mut fs = MemFs::<()>::new();
        fs.install("/bin/tool", 0o755, 0, 0, b"payload-bytes".to_vec());
        RemoteFs::new(Box::new(fs)).with_config(&WireConfig::faulty(seed, rates))
    }

    /// Forces a persona on a client's session (tests drive personas
    /// directly instead of fishing for the right seed).
    fn force_persona(c: &RemoteClient<()>, p: Persona) {
        let mut s = lock(&c.session);
        s.sessions.get_mut(c.sid as usize).expect("session").persona = p;
    }

    #[test]
    fn lookup_and_read_work_across_the_wire() {
        let mut r = remote_memfs();
        let cred = Cred::superuser();
        let bin = r.lookup(&mut (), P, NodeId(0), "bin").expect("bin");
        let tool = r.lookup(&mut (), P, bin, "tool").expect("tool");
        let tok = r.open(&mut (), P, tool, OFlags::rdonly(), &cred).expect("open");
        let mut buf = [0u8; 7];
        let reply = r.read(&mut (), P, tool, tok, 0, &mut buf).expect("read");
        assert_eq!(reply, IoReply::Done(7));
        assert_eq!(&buf, b"payload");
        assert!(r.stats().ops >= 4);
        assert!(r.stats().bytes_sent > 0);
        assert!(r.stats().bytes_received > 0);
        assert!(r.ticks() > 0, "virtual time advanced");
    }

    #[test]
    fn errors_cross_the_wire() {
        let mut r = remote_memfs();
        assert_eq!(r.lookup(&mut (), P, NodeId(0), "missing"), Err(Errno::ENOENT));
    }

    #[test]
    fn ioctl_without_table_is_refused() {
        let mut r = remote_memfs();
        let err = r.ioctl(&mut (), P, NodeId(0), OpenToken(0), 0x1234, &[]).expect_err("no table");
        assert_eq!(err, Errno::ENOTSUP);
        assert_eq!(r.stats().unsupported_ioctls, 1);
        assert_eq!(r.stats().ops, 0, "the request never even reaches the wire");
    }

    #[test]
    fn ioctl_with_table_crosses_but_is_bounded() {
        // memfs rejects ioctl with ENOTTY; we verify the round trip
        // carries the error back, which demands a wire spec.
        let table: IoctlTable =
            Box::new(|req| (req == 7).then_some(IoctlWireSpec { in_len: 8, out_len: 16 }));
        let mut r = RemoteFs::new(Box::new(MemFs::<()>::new())).with_ioctl_table(table);
        let err = r.ioctl(&mut (), P, NodeId(0), OpenToken(0), 7, &[0; 8]).expect_err("enotty");
        assert_eq!(err, Errno::ENOTTY);
        assert_eq!(r.stats().ops, 1);
        // Oversized operand refused client-side.
        let err = r.ioctl(&mut (), P, NodeId(0), OpenToken(0), 7, &[0; 64]).expect_err("too big");
        assert_eq!(err, Errno::ENOTSUP);
        // Unknown request refused.
        let err = r.ioctl(&mut (), P, NodeId(0), OpenToken(0), 8, &[]).expect_err("unknown");
        assert_eq!(err, Errno::ENOTSUP);
    }

    #[test]
    fn write_marshals_payload() {
        let mut r = remote_memfs();
        let cred = Cred::superuser();
        let f = {
            let bin = r.lookup(&mut (), P, NodeId(0), "bin").expect("bin");
            r.lookup(&mut (), P, bin, "tool").expect("tool")
        };
        let tok = r.open(&mut (), P, f, OFlags::rdwr(), &cred).expect("open");
        r.reset_stats();
        let reply = r.write(&mut (), P, f, tok, 0, b"NEW").expect("write");
        assert_eq!(reply, IoReply::Done(3));
        assert!(r.stats().bytes_sent as usize >= 3 + 1 + 4, "payload travelled");
        let mut buf = [0u8; 3];
        r.read(&mut (), P, f, tok, 0, &mut buf).expect("read");
        assert_eq!(&buf, b"NEW");
    }

    #[test]
    fn readdir_marshals_entries() {
        let mut r = remote_memfs();
        let entries = r.readdir(&mut (), P, NodeId(0)).expect("readdir");
        assert_eq!(entries.len(), 1);
        assert_eq!(entries[0].name, "bin");
    }

    #[test]
    fn getattr_roundtrip() {
        let mut r = remote_memfs();
        let bin = r.lookup(&mut (), P, NodeId(0), "bin").expect("bin");
        let tool = r.lookup(&mut (), P, bin, "tool").expect("tool");
        let meta = r.getattr(&mut (), tool).expect("attr");
        assert_eq!(meta.mode, 0o755);
        assert_eq!(meta.size, 13);
        assert_eq!(meta.kind, VnodeKind::Regular);
    }

    #[test]
    fn frames_reject_damage_without_misparsing() {
        let frame = encode_frame(42, b"important bytes");
        assert_eq!(decode_frame(&frame), Ok((42, &b"important bytes"[..])));
        // Any single bit flip is caught by the CRC (or the magic/length
        // checks before it).
        for bit in 0..frame.len() * 8 {
            let mut dam = frame.clone();
            dam[bit / 8] ^= 1 << (bit % 8);
            assert!(decode_frame(&dam).is_err(), "bit {bit} slipped through");
        }
        // Every truncation point is caught.
        for keep in 0..frame.len() {
            assert!(decode_frame(&frame[..keep]).is_err(), "cut at {keep} slipped through");
        }
    }

    /// The bitwise CRC-32 the table-driven one must equal.
    fn crc32_bitwise(seed: u32, data: &[u8]) -> u32 {
        let mut crc = !seed;
        for &b in data {
            crc ^= u32::from(b);
            for _ in 0..8 {
                crc = if crc & 1 != 0 { (crc >> 1) ^ 0xEDB8_8320 } else { crc >> 1 };
            }
        }
        !crc
    }

    #[test]
    fn crc32_matches_known_answers_and_the_bitwise_reference() {
        assert_eq!(crc32(0, b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(0, b""), 0);
        let mut x = 0x2545_F491_4F6C_DD1Du64;
        let mut buf = vec![0u8; 4096 + 13];
        for b in buf.iter_mut() {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            *b = (x >> 32) as u8;
        }
        // Every length around the 8-byte stride, then long random runs
        // at every alignment, from zero and non-zero seeds.
        for len in 0..=64 {
            for seed in [0, 0xFFFF_FFFF, 0x1234_5678] {
                let data = &buf[..len];
                let want = crc32_bitwise(seed, data);
                assert_eq!(crc32(seed, data), want, "len {len} seed {seed:#x}");
            }
        }
        for start in 0..8 {
            let data = &buf[start..];
            assert_eq!(crc32(7, data), crc32_bitwise(7, data), "offset {start}");
        }
        // Chaining: a run split anywhere checksums as the whole run.
        let whole = crc32(0, &buf[..200]);
        for cut in 0..=200 {
            assert_eq!(crc32(crc32(0, &buf[..cut]), &buf[cut..200]), whole, "cut at {cut}");
        }
    }

    #[test]
    fn oversized_reads_and_writes_complete_short_without_retries() {
        let big: Vec<u8> = (0..3usize << 20).map(|i| (i % 251) as u8).collect();
        let mut fs = MemFs::<()>::new();
        fs.install("/big", 0o644, 0, 0, big.clone());
        let mut r = RemoteFs::new(Box::new(fs));
        let cred = Cred::superuser();
        let node = r.lookup(&mut (), P, NodeId(0), "big").expect("big");
        let tok = r.open(&mut (), P, node, OFlags::rdwr(), &cred).expect("open");
        let mut buf = vec![0u8; 2 << 20];
        let got = r.read(&mut (), P, node, tok, 5, &mut buf).expect("2 MiB read");
        assert_eq!(got, IoReply::Done(MAX_IO), "a short count, not a timeout");
        assert_eq!(&buf[..MAX_IO], &big[5..5 + MAX_IO]);
        let data: Vec<u8> = (0..2usize << 20).map(|i| (i % 13) as u8).collect();
        let put = r.write(&mut (), P, node, tok, 7, &data).expect("2 MiB write");
        assert_eq!(put, IoReply::Done(MAX_IO), "a short count, not a timeout");
        let got = r.read(&mut (), P, node, tok, 0, &mut buf).expect("read back");
        assert_eq!(got, IoReply::Done(MAX_IO));
        assert_eq!(&buf[..7], &big[..7]);
        assert_eq!(&buf[7..MAX_IO], &data[..MAX_IO - 7], "the written prefix landed");
        let st = r.stats();
        assert_eq!((st.retries, st.timeouts, st.frames_shed), (0, 0, 0));
        // The pipelined face caps the same way.
        let c = r.client();
        let fut = c.submit_read(P, node, tok, 0, 2 << 20);
        match c.wait(&mut (), fut).expect("pipelined read") {
            RemoteRead::Data(d) => assert_eq!(d.len(), MAX_IO),
            RemoteRead::Block => panic!("memfs never blocks"),
        }
        let fut = c.submit_write(P, node, tok, 0, &data);
        assert_eq!(c.wait(&mut (), fut), Ok(IoReply::Done(MAX_IO)));
        assert_eq!((c.stats().retries, c.stats().timeouts), (0, 0));
    }

    #[test]
    fn wirestats_roundtrip() {
        let s = WireStats {
            ops: 7,
            drops: 3,
            dedup_hits: 11,
            timeouts: 1,
            sessions_evicted: 2,
            frames_shed: 5,
            stale_replays: 4,
            ..Default::default()
        };
        let b = s.to_bytes();
        assert_eq!(b.len(), WireStats::WIRE_LEN);
        assert_eq!(WireStats::from_bytes(&b), Some(s));
        assert_eq!(WireStats::from_bytes(&b[..10]), None);
    }

    #[test]
    fn faulted_reads_recover_and_stay_correct() {
        // 10% of frames suffer each fault class; every operation must
        // still produce the exact fault-free answer (retries are free for
        // idempotent ops) or a clean timeout.
        let mut r = faulty_memfs(0xFEED, FaultRates::uniform(100));
        let cred = Cred::superuser();
        let bin = r.lookup(&mut (), P, NodeId(0), "bin").expect("bin");
        let tool = r.lookup(&mut (), P, bin, "tool").expect("tool");
        let tok = r.open(&mut (), P, tool, OFlags::rdonly(), &cred).expect("open");
        for _ in 0..200 {
            let mut buf = [0u8; 13];
            match r.read(&mut (), P, tool, tok, 0, &mut buf) {
                Ok(IoReply::Done(13)) => assert_eq!(&buf, b"payload-bytes"),
                Ok(other) => panic!("unexpected reply {other:?}"),
                Err(e) => assert_eq!(e, Errno::ETIMEDOUT, "only clean timeouts allowed"),
            }
        }
        assert!(r.stats().faults_injected() > 0, "faults were actually exercised");
        assert!(r.stats().retries > 0, "recovery actually retried");
    }

    #[test]
    fn dead_wire_degrades_to_etimedout() {
        let rates = FaultRates { drop: 1000, ..FaultRates::default() };
        let mut r = faulty_memfs(1, rates);
        let err = r.lookup(&mut (), P, NodeId(0), "bin").expect_err("nothing arrives");
        assert_eq!(err, Errno::ETIMEDOUT);
        assert_eq!(r.stats().timeouts, 1);
        assert!(r.stats().retries > 0);
        assert_eq!(r.stats().drops as u32, r.stats().frames_sent as u32);
    }

    #[test]
    fn duplicated_writes_apply_exactly_once() {
        // Every frame is duplicated; the dedup window must keep the
        // second execution from happening.
        let rates = FaultRates { duplicate: 1000, ..FaultRates::default() };
        let mut fs = MemFs::<()>::new();
        fs.install("/log", 0o644, 0, 0, Vec::new());
        let mut r = RemoteFs::new(Box::new(fs)).with_config(&WireConfig::faulty(9, rates));
        let cred = Cred::superuser();
        let log = r.lookup(&mut (), P, NodeId(0), "log").expect("log");
        let tok = r.open(&mut (), P, log, OFlags::rdwr(), &cred).expect("open");
        r.write(&mut (), P, log, tok, 0, b"once").expect("write");
        assert!(r.stats().dedup_hits > 0, "the duplicate hit the window");
        let mut buf = [0u8; 8];
        let n = match r.read(&mut (), P, log, tok, 0, &mut buf).expect("read") {
            IoReply::Done(n) => n,
            IoReply::Block => panic!("memfs never blocks"),
        };
        assert_eq!(&buf[..n], b"once", "the write applied exactly once");
    }

    #[test]
    fn same_seed_same_schedule() {
        let run = || {
            let mut r = faulty_memfs(0xD15EA5E, FaultRates::uniform(120));
            let mut outcomes = Vec::new();
            for i in 0..50 {
                let name = if i % 2 == 0 { "bin" } else { "missing" };
                outcomes.push(r.lookup(&mut (), P, NodeId(0), name));
            }
            (outcomes, r.stats(), r.ticks())
        };
        let (a, sa, ta) = run();
        let (b, sb, tb) = run();
        assert_eq!(a, b, "per-op outcomes replay exactly");
        assert_eq!(sa, sb, "fault and retry counters replay exactly");
        assert_eq!(ta, tb, "the virtual clock replays exactly");
        assert!(sa.faults_injected() > 0);
    }

    #[test]
    fn wirestats_ioctl_is_answered_locally() {
        let mut r = remote_memfs();
        let _ = r.lookup(&mut (), P, NodeId(0), "bin").expect("bin");
        let ops_before = r.stats().ops;
        let reply =
            r.ioctl(&mut (), P, NodeId(0), OpenToken(0), PIOCWIRESTATS, &[]).expect("wirestats");
        let bytes = match reply {
            IoctlReply::Done(b) => b,
            IoctlReply::Block => panic!("never blocks"),
        };
        let stats = WireStats::from_bytes(&bytes).expect("decode");
        assert_eq!(stats.ops, ops_before, "answered without another wire op");
        assert_eq!(r.stats().ops, ops_before, "no traffic was generated");
        assert_eq!(r.stats().unsupported_ioctls, 0, "not counted as a refusal");
    }

    #[test]
    fn pipelined_ops_demux_out_of_order() {
        // Submit a burst of reads before waiting on any of them: every
        // future must resolve to its own op's answer even though the
        // service jitter completes them out of submission order.
        let r = remote_memfs();
        let c = r.client();
        let bin = c.wait(&mut (), c.submit_lookup(P, NodeId(0), "bin")).expect("bin");
        let tool = c.wait(&mut (), c.submit_lookup(P, bin, "tool")).expect("tool");
        let cred = Cred::superuser();
        let tok = c.wait(&mut (), c.submit_open(P, tool, OFlags::rdonly(), &cred)).expect("open");
        let mut futs: Vec<(u64, OpFuture<RemoteRead>)> =
            (0..8u64).map(|off| (off, c.submit_read(P, tool, tok, off, 4))).collect();
        assert_eq!(c.in_flight(), 8, "all eight reads are on the wire at once");
        // Poll-based completion: pump until every future resolves.
        let mut got = 0;
        while got < futs.len() {
            c.pump(&mut ());
            for (off, fut) in futs.iter_mut() {
                if let Some(done) = c.try_complete(fut) {
                    let want: Vec<u8> =
                        b"payload-bytes"[*off as usize..].iter().copied().take(4).collect();
                    assert_eq!(done.expect("read"), RemoteRead::Data(want), "offset {off}");
                    got += 1;
                }
            }
        }
        assert_eq!(c.in_flight(), 0);
    }

    #[test]
    fn two_handles_share_one_wire() {
        // Two client handles interleave sequenced writes on one session;
        // both complete, and the server saw one dedup window and one tag
        // space (no cross-handle collisions).
        let mut fs = MemFs::<()>::new();
        fs.install("/a", 0o644, 0, 0, Vec::new());
        fs.install("/b", 0o644, 0, 0, Vec::new());
        let r = RemoteFs::new(Box::new(fs));
        let c1 = r.client();
        let c2 = c1.clone();
        let cred = Cred::superuser();
        let a = c1.wait(&mut (), c1.submit_lookup(P, NodeId(0), "a")).expect("a");
        let b = c2.wait(&mut (), c2.submit_lookup(P, NodeId(0), "b")).expect("b");
        let ta = c1.wait(&mut (), c1.submit_open(P, a, OFlags::rdwr(), &cred)).expect("open a");
        let tb = c2.wait(&mut (), c2.submit_open(P, b, OFlags::rdwr(), &cred)).expect("open b");
        // Interleave: both writes in flight before either completes.
        let mut wa = c1.submit_write(P, a, ta, 0, b"from-one");
        let mut wb = c2.submit_write(P, b, tb, 0, b"from-two");
        assert!(wa.tag() != wb.tag(), "tags are session-unique across handles");
        let (mut ra, mut rb) = (None, None);
        while ra.is_none() || rb.is_none() {
            c1.pump(&mut ());
            if ra.is_none() {
                ra = c1.try_complete(&mut wa);
            }
            if rb.is_none() {
                rb = c2.try_complete(&mut wb);
            }
        }
        assert_eq!(ra.unwrap().expect("write a"), IoReply::Done(8));
        assert_eq!(rb.unwrap().expect("write b"), IoReply::Done(8));
        let mut buf = [0u8; 8];
        let mut rfs = r;
        rfs.read(&mut (), P, a, ta, 0, &mut buf).expect("read a");
        assert_eq!(&buf, b"from-one");
        rfs.read(&mut (), P, b, tb, 0, &mut buf).expect("read b");
        assert_eq!(&buf, b"from-two");
    }

    #[test]
    fn pipelining_beats_serial_on_a_lossy_wire() {
        // Same seed, same fault rates, same 24 reads: issuing them all
        // before waiting must finish in strictly fewer virtual ticks
        // than submit-wait-submit-wait, because retransmission backoffs
        // overlap instead of summing.
        let rates = FaultRates::uniform(80);
        let run = |pipelined: bool| -> u64 {
            let mut r = faulty_memfs(0xBEEF, rates);
            let cred = Cred::superuser();
            let c = r.client();
            let bin = r.lookup(&mut (), P, NodeId(0), "bin").expect("bin");
            let tool = r.lookup(&mut (), P, bin, "tool").expect("tool");
            let tok = r.open(&mut (), P, tool, OFlags::rdonly(), &cred).expect("open");
            if pipelined {
                let futs: Vec<OpFuture<RemoteRead>> =
                    (0..24).map(|_| c.submit_read(P, tool, tok, 0, 13)).collect();
                for fut in futs {
                    let _ = c.wait(&mut (), fut);
                }
            } else {
                for _ in 0..24 {
                    let fut = c.submit_read(P, tool, tok, 0, 13);
                    let _ = c.wait(&mut (), fut);
                }
            }
            c.ticks()
        };
        let serial = run(false);
        let pipelined = run(true);
        assert!(
            pipelined < serial,
            "pipelined ({pipelined} ticks) must beat serial ({serial} ticks)"
        );
    }

    // ---- the readiness-loop server and the adversarial clients ----

    /// Takes the next whole frame off `buf` as `(tag, body)`.
    fn extract_frame(buf: &mut Vec<u8>, stats: &mut WireStats) -> Option<(u64, Vec<u8>)> {
        let (tag, len) = next_frame(buf, stats)?;
        let body = buf[FRAME_HEADER..len].to_vec();
        buf.drain(..len);
        Some((tag, body))
    }

    #[test]
    fn truncated_stream_resyncs_to_next_frame() {
        // A frame cut mid-body followed by an intact frame: extraction
        // must skip the corpse and return the good frame, not wait
        // forever for bytes that never come.
        let mut stats = WireStats::default();
        let cut = encode_frame(7, b"this frame was cut off");
        let good = encode_frame(8, b"good");
        let mut buf = Vec::new();
        buf.extend_from_slice(&cut[..FRAME_HEADER + 5]);
        buf.extend_from_slice(&good);
        let got = extract_frame(&mut buf, &mut stats).expect("resync finds the good frame");
        assert_eq!(got, (8, b"good".to_vec()));
        assert!(stats.resync_bytes > 0, "junk was skipped, not kept");
        assert!(extract_frame(&mut buf, &mut stats).is_none());
        // Pure junk drains without yielding anything.
        let mut junk: Vec<u8> = (0u8..200).map(|b| b ^ 0x5A).collect();
        assert!(extract_frame(&mut junk, &mut stats).is_none());
        assert!(junk.len() <= 3, "junk does not accumulate");
    }

    #[test]
    fn split_delivery_waits_for_the_tail() {
        // A frame arriving in two chunks is not junk: the head waits
        // buffered until the tail arrives.
        let mut stats = WireStats::default();
        let frame = encode_frame(9, b"split across arrivals");
        let mut buf = frame[..10].to_vec();
        assert!(extract_frame(&mut buf, &mut stats).is_none());
        buf.extend_from_slice(&frame[10..]);
        let got = extract_frame(&mut buf, &mut stats).expect("whole now");
        assert_eq!(got, (9, b"split across arrivals".to_vec()));
        assert_eq!(stats.checksum_rejects, 0);
    }

    #[test]
    fn inflight_cap_rejects_with_eagain() {
        let r = remote_memfs();
        let c = r.client();
        let mut futs: Vec<OpFuture<NodeId>> =
            (0..INFLIGHT_CAP).map(|_| c.submit_lookup(P, NodeId(0), "bin")).collect();
        let mut over = c.submit_lookup(P, NodeId(0), "bin");
        assert_eq!(
            c.try_complete(&mut over),
            Some(Err(Errno::EAGAIN)),
            "the over-cap submit is rejected before any traffic"
        );
        assert_eq!(c.stats().eagain_rejected, 1);
        assert_eq!(c.stats().ops, u64::from(INFLIGHT_CAP), "rejected ops are not counted");
        for fut in futs.drain(..) {
            assert!(c.wait(&mut (), fut).is_ok(), "capped ops all complete");
        }
        // Capacity is back.
        let again = c.submit_lookup(P, NodeId(0), "bin");
        assert!(c.wait(&mut (), again).is_ok());
    }

    #[test]
    fn half_open_session_is_evicted_and_futures_resolve_eagain() {
        // A half-open client (writes, never reads) behind a tiny reply
        // queue: every reply is shed, the shed counter passes the
        // eviction limit, and the pending futures resolve to EAGAIN
        // instead of hanging wait() forever.
        let r = remote_memfs().with_config(&WireConfig::clean().queue_caps(4096, 8));
        let c = r.client();
        force_persona(&c, Persona::HalfOpen);
        let f1 = c.submit_lookup(P, NodeId(0), "bin");
        let f2 = c.submit_lookup(P, NodeId(0), "bin");
        assert_eq!(c.wait(&mut (), f1), Err(Errno::EAGAIN), "no hang, typed error");
        assert_eq!(c.wait(&mut (), f2), Err(Errno::EAGAIN));
        let st = c.stats();
        assert_eq!(st.sessions_evicted, 1, "the session was evicted");
        assert!(st.frames_shed > u64::from(EVICT_SHED_LIMIT));
        assert!(st.out_queue_hwm <= 8, "the cap held");
        // The session is gone for good: submits bounce immediately.
        let mut f3 = c.submit_lookup(P, NodeId(0), "bin");
        assert_eq!(c.try_complete(&mut f3), Some(Err(Errno::EAGAIN)));
        let p = c.poll_session();
        assert!(p.hangup && !p.writable);
        // Session 0 (the blocking mount face) is never evicted: its
        // replies shed under the same tiny cap, but it degrades to a
        // clean timeout instead of an eviction.
        let mut rfs = r;
        assert_eq!(rfs.lookup(&mut (), P, NodeId(0), "bin"), Err(Errno::ETIMEDOUT));
        assert_eq!(rfs.stats().sessions_evicted, 1, "still just the one eviction");
    }

    #[test]
    fn hangup_resolves_pending_futures_and_rejects_submits() {
        let r = remote_memfs();
        let c = r.client();
        let fut = c.submit_lookup(P, NodeId(0), "bin");
        c.hangup(&mut ());
        assert_eq!(c.wait(&mut (), fut), Err(Errno::EAGAIN), "teardown resolved it");
        let mut after = c.submit_lookup(P, NodeId(0), "bin");
        assert_eq!(c.try_complete(&mut after), Some(Err(Errno::EAGAIN)));
        assert!(c.poll_session().hangup);
        assert!(c.stats().churn_events > 0);
        // Other sessions are untouched.
        let c2 = r.client();
        assert!(c2.wait(&mut (), c2.submit_lookup(P, NodeId(0), "bin")).is_ok());
    }

    #[test]
    fn slow_reader_completes_but_pays_in_ticks() {
        let run = |persona: Persona| -> u64 {
            let r = remote_memfs();
            let c = r.client();
            force_persona(&c, persona);
            let fut = c.submit_lookup(P, NodeId(0), "bin");
            assert!(c.wait(&mut (), fut).is_ok());
            c.ticks()
        };
        let clean = run(Persona::Clean);
        let slow = run(Persona::SlowReader);
        assert!(
            slow > clean,
            "one byte per tick ({slow}) must be slower than a clean drain ({clean})"
        );
    }

    #[test]
    fn disconnect_and_reconnect_churn_recovers() {
        let r = remote_memfs();
        let c = r.client();
        let fut = c.submit_lookup(P, NodeId(0), "bin");
        c.disconnect();
        assert!(!c.poll_session().writable, "down links are not writable");
        // Pump a few events while down: retries transmit nothing.
        for _ in 0..4 {
            c.pump(&mut ());
        }
        c.reconnect(&mut ());
        let got = c.wait(&mut (), fut).expect("retry after reconnect completes the op");
        assert!(got.0 > 0);
        assert!(c.stats().churn_events >= 2, "both transitions counted");
    }

    #[test]
    fn mid_frame_cuts_recover_exactly_once_with_stale_replays() {
        // Heavy mid-frame disconnects plus guaranteed stale replays on
        // a sequenced write stream: the write must land exactly once no
        // matter how many cut/reconnect/replay rounds it takes.
        let adv = AdversaryRates { mid_frame: 400, stale_replay: 1000, ..Default::default() };
        let mut fs = MemFs::<()>::new();
        fs.install("/log", 0o644, 0, 0, Vec::new());
        let r = RemoteFs::new(Box::new(fs))
            .with_config(&WireConfig::faulty(0xC0FFEE, FaultRates::default()).adversarial(adv));
        let c = r.client();
        let cred = Cred::superuser();
        let log = c.wait(&mut (), c.submit_lookup(P, NodeId(0), "log")).expect("log");
        let tok = c.wait(&mut (), c.submit_open(P, log, OFlags::rdwr(), &cred)).expect("open");
        for i in 0..8u64 {
            let fut = c.submit_write(P, log, tok, i, &[b'a' + i as u8]);
            match c.wait(&mut (), fut) {
                Ok(IoReply::Done(1)) | Err(Errno::ETIMEDOUT) => {}
                other => panic!("unexpected outcome {other:?}"),
            }
        }
        let st = c.stats();
        assert!(st.churn_events > 0, "mid-frame cuts actually happened");
        // Replays only fire when a reconnect rolls one and a sequenced
        // frame was delivered before the cut; with these rates some
        // must have fired, and every one must hit the dedup window.
        assert!(st.stale_replays > 0, "stale replays actually happened");
        assert!(st.dedup_hits >= st.stale_replays, "replays answered from the window");
        // Exactly-once: each offset holds its byte or was never written
        // (timed out); never a doubled effect.
        let mut rfs = r;
        let mut buf = [0u8; 8];
        if let Ok(IoReply::Done(n)) = rfs.read(&mut (), P, log, tok, 0, &mut buf) {
            for (i, got) in buf[..n].iter().enumerate() {
                assert!(
                    *got == 0 || *got == b'a' + i as u8,
                    "offset {i} holds {got}: a write landed twice or corrupted"
                );
            }
        }
    }

    #[test]
    fn frame_floods_are_absorbed_by_dedup_and_caps() {
        let adv = AdversaryRates { flood: 1000, ..Default::default() };
        let mut fs = MemFs::<()>::new();
        fs.install("/log", 0o644, 0, 0, Vec::new());
        let r = RemoteFs::new(Box::new(fs))
            .with_config(&WireConfig::faulty(0xF100D, FaultRates::default()).adversarial(adv));
        let c = r.client();
        let cred = Cred::superuser();
        let log = c.wait(&mut (), c.submit_lookup(P, NodeId(0), "log")).expect("log");
        let tok = c.wait(&mut (), c.submit_open(P, log, OFlags::rdwr(), &cred)).expect("open");
        let fut = c.submit_write(P, log, tok, 0, b"once");
        assert_eq!(c.wait(&mut (), fut), Ok(IoReply::Done(4)));
        let st = c.stats();
        assert!(st.floods > 0, "floods actually fired");
        assert!(st.dedup_hits > 0, "extra copies answered from the window");
        assert!(st.in_queue_hwm <= DEFAULT_QUEUE_CAP as u64, "caps never exceeded");
        let mut rfs = r;
        let mut buf = [0u8; 8];
        let n = match rfs.read(&mut (), P, log, tok, 0, &mut buf).expect("read") {
            IoReply::Done(n) => n,
            IoReply::Block => panic!("memfs never blocks"),
        };
        assert_eq!(&buf[..n], b"once", "the flood applied exactly once");
    }

    #[test]
    fn adversarial_schedules_replay_identically() {
        let run = || {
            let cfg = WireConfig::faulty(0x00AD_5EED, FaultRates::uniform(60))
                .adversarial(AdversaryRates::uniform(120))
                .queue_caps(2048, 2048);
            let r = remote_memfs().with_config(&cfg);
            let mut outcomes = Vec::new();
            for round in 0..6 {
                let c = r.client();
                for i in 0..4 {
                    let name = if (round + i) % 3 == 0 { "missing" } else { "bin" };
                    let fut = c.submit_lookup(P, NodeId(0), name);
                    outcomes.push(c.wait(&mut (), fut));
                }
            }
            (outcomes, r.stats(), r.ticks())
        };
        let (a, sa, ta) = run();
        let (b, sb, tb) = run();
        assert_eq!(a, b, "per-op outcomes replay exactly");
        assert_eq!(sa, sb, "server and adversary counters replay exactly");
        assert_eq!(ta, tb, "the virtual clock replays exactly");
        assert_eq!(sa.sessions_opened, 6);
    }

    #[test]
    fn no_session_starves_another_under_load() {
        // One chatty client floods its own session with work; a second
        // client's single op must still complete within the round-robin
        // budget, not behind the entire backlog.
        let r = remote_memfs();
        let chatty = r.client();
        let quiet = r.client();
        let futs: Vec<OpFuture<NodeId>> = (0..u64::from(INFLIGHT_CAP))
            .map(|_| chatty.submit_lookup(P, NodeId(0), "bin"))
            .collect();
        let q = quiet.submit_lookup(P, NodeId(0), "bin");
        let quiet_done = {
            let mut fut = q;
            loop {
                if let Some(res) = quiet.try_complete(&mut fut) {
                    break res;
                }
                quiet.pump(&mut ());
            }
        };
        assert!(quiet_done.is_ok(), "the quiet session completed");
        let quiet_ticks = quiet.ticks();
        for fut in futs {
            assert!(chatty.wait(&mut (), fut).is_ok());
        }
        let all_ticks = chatty.ticks();
        assert!(
            quiet_ticks < all_ticks,
            "quiet op ({quiet_ticks}) finished before the backlog drained ({all_ticks})"
        );
    }

    #[test]
    fn injected_junk_has_no_side_effects() {
        let mut fs = MemFs::<()>::new();
        fs.install("/log", 0o644, 0, 0, b"untouched".to_vec());
        let r = RemoteFs::new(Box::new(fs));
        let c = r.client();
        // Raw garbage, a truncated forged write, a bad-CRC frame.
        c.inject_inbound(&mut (), b"not a frame at all");
        let forged = encode_frame(999, &marshal_write(P, NodeId(1), OpenToken(0), 0, b"EVIL"));
        c.inject_inbound(&mut (), &forged[..forged.len() - 3]);
        let mut bad = encode_frame(1000, &marshal_write(P, NodeId(1), OpenToken(0), 0, b"EVIL"));
        let last = bad.len() - 1;
        bad[last] ^= 0xFF;
        c.inject_inbound(&mut (), &bad);
        while c.pump(&mut ()) {}
        let mut rfs = r;
        let log = rfs.lookup(&mut (), P, NodeId(0), "log").expect("log");
        let cred = Cred::superuser();
        let tok = rfs.open(&mut (), P, log, OFlags::rdonly(), &cred).expect("open");
        let mut buf = [0u8; 9];
        rfs.read(&mut (), P, log, tok, 0, &mut buf).expect("read");
        assert_eq!(&buf, b"untouched", "no forged write ever applied");
    }

    #[test]
    fn a_restored_dedup_window_answers_a_replayed_write() {
        let tag = 1 << 40;
        let fresh = || {
            let mut fs = MemFs::<()>::new();
            fs.install("/log", 0o644, 0, 0, Vec::new());
            let r = RemoteFs::new(Box::new(fs));
            let c = r.client();
            (r, c)
        };
        let (mut r, c) = fresh();
        let log = r.lookup(&mut (), P, NodeId(0), "log").expect("log");
        let frame = encode_frame(tag, &marshal_write(P, log, OpenToken(0), 0, b"once"));
        c.inject_inbound(&mut (), &frame);
        while c.pump(&mut ()) {}
        let snap = r.snapshot_wire();

        // The snapshot restores over a file system that never saw the
        // write: a replay of the tag must come from the restored window,
        // not run again.
        let (mut r2, c2) = fresh();
        r2.restore_wire(&snap);
        let hits = r2.stats().dedup_hits;
        c2.inject_inbound(&mut (), &frame);
        while c2.pump(&mut ()) {}
        assert_eq!(r2.stats().dedup_hits, hits + 1, "the replay missed the restored window");
        let cred = Cred::superuser();
        let tok = r2.open(&mut (), P, log, OFlags::rdonly(), &cred).expect("open");
        let mut buf = [0u8; 4];
        let got = r2.read(&mut (), P, log, tok, 0, &mut buf).expect("read");
        assert_eq!(got, IoReply::Done(0), "the replayed write ran again");
    }
}
