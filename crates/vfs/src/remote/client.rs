//! The client layer: a per-op retry timer resends with capped
//! exponential backoff until a usable reply arrives, and an exhausted
//! budget degrades to `ETIMEDOUT`. Every op ends in one
//! [`Client::resolve`] — by reply, timeout or eviction. Pure reads retry
//! freely; mutating ops carry their tag into the server's dedup window,
//! so a retried, duplicated or replayed request applies exactly once.

use super::codec::{self, encode_frame, Op, RemoteRead, Reply};
use super::net::{Net, NetEvent};
use super::server::{LinkState, Server};
use super::{lock, WireSession, WireStats, PIOCWIRESTATS};
use crate::cred::Cred;
use crate::errno::{Errno, SysResult};
use crate::fs::{IoReply, IoctlReply, OFlags, OpenToken, PollStatus};
use crate::node::{NodeId, Pid};
use std::collections::BTreeMap;
use std::sync::{Arc, Mutex};

/// Operations one session may have in flight before `submit` rejects
/// with `EAGAIN`.
pub const INFLIGHT_CAP: u32 = 64;
/// Client patience per attempt before the retry timer fires. Must
/// exceed a round trip plus the worst service jitter or clean wires
/// would retransmit.
const RETRY_RTT: u64 = 6;

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

/// One submitted operation awaiting completion. The idempotency class
/// lives server-side (derived from the op byte): the client retries
/// every op the same way and the dedup window keeps sequenced ones
/// exactly-once.
#[derive(Clone, Debug)]
struct InFlight {
    /// The session this op was submitted on (its eviction resolves us).
    sid: u32,
    /// The marshalled request, resent as is on every attempt.
    req: Vec<u8>,
    attempts: u32,
    backoff: u64,
    budget: u64,
    done: Option<SysResult<Reply>>,
}

/// The client's state: tags, the in-flight table and the per-session
/// in-flight counts.
#[derive(Clone, Debug)]
pub struct Client {
    pub retry: RetryPolicy,
    /// Next op tag (server-unique, travels in the frame header).
    next_tag: u64,
    inflight: BTreeMap<u64, InFlight>,
    /// Tags of ops resolved (by reply, timeout or eviction) and not yet
    /// drained by [`RemoteClient::take_completed`]. Host-side only:
    /// restore re-derives it from `inflight`. Pruned to the tags still
    /// in `inflight` once it outgrows twice that table.
    pub resolved: Vec<u64>,
    /// Unresolved ops per session id ([`INFLIGHT_CAP`]).
    pending: Vec<u32>,
}

impl Client {
    pub fn new() -> Client {
        Client {
            retry: RetryPolicy::default(),
            next_tag: 1,
            inflight: BTreeMap::new(),
            resolved: Vec::new(),
            pending: Vec::new(),
        }
    }

    fn pending(&self, sid: u32) -> u32 {
        self.pending.get(sid as usize).copied().unwrap_or(0)
    }

    /// Re-derives the host-side completion list after a restore.
    pub fn rederive_resolved(&mut self) {
        self.resolved =
            self.inflight.iter().filter(|(_, op)| op.done.is_some()).map(|(t, _)| *t).collect();
    }

    /// Submits one marshalled request on a session; returns its op tag.
    /// Rejects with `EAGAIN` — before any traffic, and without counting
    /// an op — when the session is gone or over its in-flight cap. The
    /// request frame and the first retry timer enter the event queue;
    /// nothing blocks.
    fn submit(&mut self, server: &Server, net: &mut Net, sid: u32, req: Vec<u8>) -> SysResult<u64> {
        let open = server.link(sid).is_some_and(|l| l != LinkState::Gone);
        if !open || self.pending(sid) >= INFLIGHT_CAP {
            net.stats.eagain_rejected += 1;
            return Err(Errno::EAGAIN);
        }
        net.stats.ops += 1;
        let tag = self.next_tag;
        self.next_tag = self.next_tag.wrapping_add(1);
        self.inflight.insert(
            tag,
            InFlight { sid, req, attempts: 0, backoff: 1, budget: self.retry.budget, done: None },
        );
        if self.pending.len() <= sid as usize {
            self.pending.resize(sid as usize + 1, 0);
        }
        if let Some(p) = self.pending.get_mut(sid as usize) {
            *p += 1;
        }
        self.send_attempt(server, net, tag);
        Ok(tag)
    }

    /// Frames and transmits one attempt for `tag`, arming its retry
    /// timer. A down or gone link transmits nothing (the bytes are
    /// lost with the link), but the retry timer still arms so the op
    /// degrades to `ETIMEDOUT` instead of hanging.
    fn send_attempt(&mut self, server: &Server, net: &mut Net, tag: u64) {
        let Some(op) = self.inflight.get_mut(&tag) else {
            return;
        };
        op.attempts += 1;
        if server.link(op.sid) == Some(LinkState::Live) {
            if op.attempts > 1 {
                net.stats.retries += 1;
            }
            let frame = encode_frame(tag, &op.req);
            net.stats.frames_sent += 1;
            net.stats.bytes_sent += frame.len() as u64;
            let sid = op.sid;
            net.send(frame, 0, |bytes| NetEvent::Request { sid, bytes });
        }
        net.schedule(RETRY_RTT + op.backoff, NetEvent::Retry { tag });
    }

    /// Retry timer: resend with doubled (capped) backoff, or degrade the
    /// op to a clean `ETIMEDOUT` once attempts or budget run out.
    pub fn on_retry(&mut self, server: &Server, net: &mut Net, tag: u64) {
        let Some(op) = self.inflight.get_mut(&tag).filter(|op| op.done.is_none()) else {
            return;
        };
        if op.attempts >= self.retry.max_attempts.max(1) || op.budget < op.backoff {
            net.stats.timeouts += 1;
            self.resolve(tag, Err(Errno::ETIMEDOUT));
            return;
        }
        op.budget -= op.backoff;
        op.backoff = (op.backoff * 2).min(self.retry.backoff_cap.max(1));
        self.send_attempt(server, net, tag);
    }

    /// Every unresolved op on session `sid` resolves to `EAGAIN`: the
    /// session was torn down, and no future may hang on it.
    pub fn evict(&mut self, sid: u32) {
        let tags: Vec<u64> = self
            .inflight
            .iter()
            .filter(|(_, op)| op.sid == sid && op.done.is_none())
            .map(|(t, _)| *t)
            .collect();
        for tag in tags {
            self.resolve(tag, Err(Errno::EAGAIN));
        }
    }

    /// The one way an op resolves — by reply, timeout or eviction. The
    /// first resolution wins: a stale tag (already taken) or a duplicate
    /// reply changes nothing. The session's in-flight count drops and
    /// the tag joins the completion list, first pruned of tags already
    /// taken once it outgrows twice the in-flight table (amortised O(1):
    /// a prune halves the list at least).
    pub fn resolve(&mut self, tag: u64, result: SysResult<Reply>) {
        let Some(op) = self.inflight.get_mut(&tag) else {
            return;
        };
        if op.done.is_some() {
            return;
        }
        op.done = Some(result);
        if let Some(p) = self.pending.get_mut(op.sid as usize) {
            *p = p.saturating_sub(1);
        }
        if self.resolved.len() >= 2 * self.inflight.len() + 16 {
            let inflight = &self.inflight;
            self.resolved.retain(|t| inflight.contains_key(t));
        }
        self.resolved.push(tag);
    }

    /// Removes and returns the completion for `tag` if it has arrived.
    fn try_take(&mut self, tag: u64) -> Option<SysResult<Reply>> {
        self.inflight.get(&tag)?.done.as_ref()?;
        self.inflight.remove(&tag)?.done
    }
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
    /// An operation resolved without touching the wire (local ioctl
    /// answers, client-side refusals, over-cap submissions).
    fn resolved(r: SysResult<T>) -> OpFuture<T> {
        OpFuture { tag: None, ready: Some(r), parse: |_| Err(Errno::EIO) }
    }

    /// The op tag this future is waiting on (`None` once resolved
    /// locally).
    pub fn tag(&self) -> Option<u64> {
        self.tag
    }
}

impl<K> WireSession<K> {
    /// Submits a request body on session `sid`; its op tag.
    pub(super) fn submit(&mut self, sid: u32, body: Vec<u8>) -> SysResult<u64> {
        let s = &mut self.state;
        s.client.submit(&s.server, &mut s.net, sid, body)
    }

    /// Starts `op` on session `sid`.
    pub(super) fn start<T>(&mut self, sid: u32, op: Op<T>) -> OpFuture<T> {
        match self.submit(sid, op.body) {
            Ok(tag) => OpFuture { tag: Some(tag), ready: None, parse: op.parse },
            Err(e) => OpFuture::resolved(Err(e)),
        }
    }

    /// Starts an ioctl on session `sid` behind the near-side gate. Wire
    /// introspection ([`PIOCWIRESTATS`]) is answered locally — the
    /// counters being asked about live on this side of the wire. Any
    /// other request crosses only if the ioctl table taught the shim its
    /// operand sizes and the argument fits them; otherwise it is refused
    /// with `ENOTSUP`, and counted, before any traffic.
    pub(super) fn start_ioctl(
        &mut self,
        sid: u32,
        cur: Pid,
        node: NodeId,
        token: OpenToken,
        req_no: u32,
        arg: &[u8],
    ) -> OpFuture<IoctlReply> {
        if req_no == PIOCWIRESTATS {
            return OpFuture::resolved(Ok(IoctlReply::Done(self.state.net.stats.to_bytes())));
        }
        let spec = self.ioctl_table.as_ref().and_then(|t| t(req_no));
        if spec.is_none_or(|s| arg.len() > s.in_len) {
            self.state.net.stats.unsupported_ioctls += 1;
            return OpFuture::resolved(Err(Errno::ENOTSUP));
        }
        self.start(sid, codec::ioctl(cur, node, token, req_no, arg))
    }

    /// Blocks (pumping the wire) until `fut` completes.
    pub(super) fn wait<T>(&mut self, k: &mut K, fut: OpFuture<T>) -> SysResult<T> {
        if let Some(r) = fut.ready {
            return r;
        }
        let Some(tag) = fut.tag else {
            return Err(Errno::EIO);
        };
        let raw = self.wait_raw(k, tag)?;
        (fut.parse)(raw.body())
    }

    /// Pumps events until `tag` completes. Other in-flight ops make
    /// progress underneath — their completions land in their own slots
    /// while we wait for ours.
    pub(super) fn wait_raw(&mut self, k: &mut K, tag: u64) -> SysResult<Reply> {
        loop {
            if let Some(done) = self.state.client.try_take(tag) {
                return done;
            }
            if !self.state.client.inflight.contains_key(&tag) {
                return Err(Errno::EIO); // taken twice: caller bug
            }
            if !self.pump_one(k) {
                return Err(Errno::EIO); // queue dry with op pending: impossible
            }
        }
    }
}

/// One client handle onto a shared [`WireSession`], bound to one
/// session. `clone` shares the session (tags stay server-unique);
/// [`super::RemoteFs::client`] mints a handle with a *new* session — its
/// own bounded queues, persona and link state. Ops submitted through any
/// handle share the server's in-flight table, fault plan and dedup
/// window, so concurrent handles' traffic interleaves on the wire
/// exactly as concurrent processes' would.
pub struct RemoteClient<K> {
    pub(super) session: Arc<Mutex<WireSession<K>>>,
    pub(super) sid: u32,
}

impl<K> Clone for RemoteClient<K> {
    fn clone(&self) -> RemoteClient<K> {
        RemoteClient { session: Arc::clone(&self.session), sid: self.sid }
    }
}

impl<K> RemoteClient<K> {
    /// Pipelined lookup.
    pub fn submit_lookup(&self, cur: Pid, dir: NodeId, name: &str) -> OpFuture<NodeId> {
        lock(&self.session).start(self.sid, codec::lookup(cur, dir, name))
    }

    /// Pipelined open (sequenced: exactly-once under retransmission).
    pub fn submit_open(
        &self,
        cur: Pid,
        node: NodeId,
        flags: OFlags,
        cred: &Cred,
    ) -> OpFuture<OpenToken> {
        lock(&self.session).start(self.sid, codec::open(cur, node, flags, cred))
    }

    /// Pipelined close (sequenced).
    pub fn submit_close(
        &self,
        cur: Pid,
        node: NodeId,
        token: OpenToken,
        flags: OFlags,
    ) -> OpFuture<()> {
        lock(&self.session).start(self.sid, codec::close(cur, node, token, flags))
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
        lock(&self.session).start(self.sid, codec::read(cur, node, token, off, len))
    }

    /// Pipelined write (sequenced). At most [`super::MAX_IO`] bytes of
    /// `data` cross; the reply counts what was written.
    pub fn submit_write(
        &self,
        cur: Pid,
        node: NodeId,
        token: OpenToken,
        off: u64,
        data: &[u8],
    ) -> OpFuture<IoReply> {
        lock(&self.session).start(self.sid, codec::write(cur, node, token, off, data))
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
        lock(&self.session).start_ioctl(self.sid, cur, node, token, req_no, arg)
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
        let raw = lock(&self.session).state.client.try_take(tag)?;
        fut.tag = None;
        Some(raw.and_then(|r| (fut.parse)(r.body())))
    }

    /// Blocks (pumping the wire) until the future completes. Other
    /// handles' in-flight ops progress underneath. An evicted session's
    /// futures resolve to `EAGAIN` — this never hangs.
    pub fn wait<T>(&self, k: &mut K, fut: OpFuture<T>) -> SysResult<T> {
        lock(&self.session).wait(k, fut)
    }

    /// Drains the tags of ops resolved (by reply, timeout or eviction)
    /// since the last drain, across all sessions, in resolution order.
    /// A poller over many futures completes just these (see
    /// [`OpFuture::tag`]) instead of polling every pending one; a tag
    /// another poller has already taken may appear and is skipped.
    /// Undrained, the list stays within about twice the in-flight table.
    pub fn take_completed(&self) -> Vec<u64> {
        std::mem::take(&mut lock(&self.session).state.client.resolved)
    }

    /// Ops submitted but not yet completed, across all sessions.
    pub fn in_flight(&self) -> usize {
        let s = lock(&self.session);
        s.state.client.inflight.values().filter(|op| op.done.is_none()).count()
    }

    /// The session's virtual clock, in ticks.
    pub fn ticks(&self) -> u64 {
        lock(&self.session).state.net.clock
    }

    /// A snapshot of the session's traffic counters.
    pub fn stats(&self) -> WireStats {
        lock(&self.session).state.net.stats
    }

    /// Resets the session's traffic counters.
    pub fn reset_stats(&self) {
        lock(&self.session).state.net.stats = WireStats::default();
    }

    /// Readiness of this handle's session, in `poll(2)` terms:
    /// readable when a completed op is waiting to be taken, writable
    /// when the link is live and under its in-flight cap, hangup once
    /// the session is evicted or hung up.
    pub fn poll_session(&self) -> PollStatus {
        let s = lock(&self.session);
        let c = &s.state.client;
        let link = s.state.server.link(self.sid);
        PollStatus {
            readable: c.inflight.values().any(|op| op.sid == self.sid && op.done.is_some()),
            writable: link == Some(LinkState::Live) && c.pending(self.sid) < INFLIGHT_CAP,
            hangup: link.is_none_or(|l| l == LinkState::Gone),
        }
    }

    /// Drops this session's link mid-stream (connection churn): queued
    /// bytes are lost, in-flight ops ride their retry timers, and the
    /// link stays down until [`RemoteClient::reconnect`].
    pub fn disconnect(&self) {
        let s = &mut lock(&self.session).state;
        s.server.disconnect(&mut s.net, self.sid);
    }

    /// Heals a dropped link. Under an adversarial plan the reconnect
    /// may replay the session's last sequenced frame with a stale tag —
    /// the dedup window answers it without re-executing.
    pub fn reconnect(&self, k: &mut K) {
        lock(&self.session).step(k, |s, n| s.reconnect(n, self.sid));
    }

    /// Hangs the session up for good: pending ops resolve to `EAGAIN`,
    /// server-side tokens it held are closed on its behalf, and further
    /// submissions are rejected.
    pub fn hangup(&self, k: &mut K) {
        lock(&self.session).step(k, |s, n| s.teardown(n, self.sid, true));
    }

    /// Injects raw bytes into this session's inbound queue, as a
    /// misbehaving peer would, then lets the readiness loop serve them.
    /// Robustness tests use this to deliver forged, truncated and
    /// replayed frames.
    pub fn inject_inbound(&self, k: &mut K, bytes: &[u8]) {
        let mut s = lock(&self.session);
        s.step(k, |srv, n| srv.append_inbound(n, self.sid, bytes.to_vec()));
        s.service_ready(k);
    }
}
