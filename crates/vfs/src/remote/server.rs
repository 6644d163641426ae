//! The server layer, structured the way a real `poll(2)`-driven daemon
//! is. Each connection is a session with bounded inbound and outbound
//! byte queues ([`super::WireConfig::queue_caps`]). Arriving bytes join
//! the inbound queue; a FIFO ready-set records which sessions hold
//! servable bytes, and the loop serves at most [`SERVER_OPS_PER_TICK`]
//! frames per virtual tick, round-robin, so one chatty client cannot
//! starve another. Frame extraction resynchronises past damaged bytes.
//!
//! A frame that would overflow a queue is shed; a session that keeps
//! shedding is evicted: its queues drop, its pending ops resolve to
//! `EAGAIN` and the `OpenToken`s it was granted are closed on its
//! behalf, so run-on-last-close survives abrupt client death. A
//! sequenced request whose tag was served before is answered from the
//! dedup window. The served file system is reached only through the
//! `serve` callback the readiness loop is handed.

use super::codec::{
    decode_frame, encode_frame, is_sequenced, next_frame, Reply, WireReader, FRAME_HEADER,
    MAX_BODY, MAX_IO, OP_CLOSE, OP_OPEN,
};
use super::net::{Net, NetEvent, TRANSIT_TICKS};
use crate::fs::OpenToken;
use crate::node::{NodeId, Pid};
use std::collections::VecDeque;

/// Request frames the server extracts per virtual tick, across all
/// sessions. Load beyond the budget rolls to the next tick (this is
/// what makes p99 latency grow with client count instead of everything
/// completing in one magic instant).
pub const SERVER_OPS_PER_TICK: u32 = 8;
/// Sheds a session survives before it is evicted.
pub const EVICT_SHED_LIMIT: u32 = 8;
/// Extra request copies an adversarial frame flood delivers.
pub const FLOOD_COPIES: usize = 8;
/// Default per-direction queue cap, in bytes.
pub const DEFAULT_QUEUE_CAP: usize = 256 * 1024;
// A read reply or write request carries under 64 bytes besides its run.
const _: () = assert!(FRAME_HEADER + 64 + MAX_IO <= DEFAULT_QUEUE_CAP);
const _: () = assert!(DEFAULT_QUEUE_CAP <= MAX_BODY);
/// Responses remembered per op tag for exactly-once execution.
const DEDUP_WINDOW: usize = 128;
/// Ticks a mid-frame disconnect keeps the link down before it heals.
pub const RECONNECT_TICKS: u64 = 8;

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
pub enum LinkState {
    /// Connected; frames flow both ways.
    Live,
    /// Dropped mid-stream; arrivals shed until the link heals.
    Down,
    /// Evicted or hung up; terminal.
    Gone,
}

/// A granted `OpenToken`: `(pid, node, token, open-flag bits)`.
type Grant = (Pid, NodeId, OpenToken, u64);

/// Server-side state of one client session: bounded byte queues, link
/// state, persona, shed accounting and the `OpenToken`s granted to this
/// client (closed on its behalf if it dies).
#[derive(Clone, Debug)]
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
    /// Tokens the server granted this session, auto-closed on eviction
    /// or hangup.
    open_tokens: Vec<Grant>,
    /// Raw bytes of the last sequenced request frame this session
    /// delivered (fuel for the stale-replay adversary; kept only when
    /// the plan can roll a stale replay).
    last_seq_frame: Option<Vec<u8>>,
    /// Queued in the ready FIFO (holds servable inbound bytes).
    ready: bool,
}

impl SessionState {
    /// Moves the link to `to`, losing every queued byte with it.
    fn drop_link(&mut self, to: LinkState) {
        self.link = to;
        self.inbound.clear();
        self.outbound.clear();
        self.rx.clear();
        self.drain_armed = false;
    }

    /// Schedules the client end's next drain, unless one is scheduled
    /// or the persona never reads.
    fn arm_drain(&mut self, net: &mut Net, sid: u32) {
        if self.persona.drain_rate() > 0 && !self.drain_armed {
            self.drain_armed = true;
            net.schedule(TRANSIT_TICKS, NetEvent::Drain { sid });
        }
    }
}

/// A session the server has torn down, for the other layers to finish:
/// its pending ops resolve and its granted tokens are closed.
pub struct Teardown {
    pub sid: u32,
    pub tokens: Vec<Grant>,
}

/// The server's state: every session ever opened, the ready FIFO, the
/// queue caps, the per-tick service budget and the dedup window.
#[derive(Clone, Debug)]
pub struct Server {
    /// Every session ever opened, indexed by session id (ids are dense
    /// and a session is never removed, only marked `Gone`).
    sessions: Vec<SessionState>,
    /// FIFO ready-set: sessions holding servable inbound bytes (each
    /// queued at most once, see [`SessionState::ready`]).
    ready_q: VecDeque<u32>,
    /// Inbound queue cap, bytes.
    pub in_cap: usize,
    /// Outbound queue cap, bytes.
    pub out_cap: usize,
    /// Tick the service budget below applies to.
    served_tick: u64,
    /// Frames served at `served_tick` (bounded by
    /// [`SERVER_OPS_PER_TICK`]).
    served_count: u32,
    /// A `Service` rollover event is scheduled.
    pub service_armed: bool,
    /// Dedup window: `(tag, cached response body)`.
    dedup: VecDeque<(u64, Vec<u8>)>,
    /// At least every tag in `dedup`, so a request with a newer tag (every
    /// fresh sequenced op) skips the window scan. Host-side only: restore
    /// re-derives it from the window.
    dedup_newest: u64,
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

impl Server {
    pub fn new() -> Server {
        Server {
            sessions: Vec::new(),
            ready_q: VecDeque::new(),
            in_cap: DEFAULT_QUEUE_CAP,
            out_cap: DEFAULT_QUEUE_CAP,
            served_tick: 0,
            served_count: 0,
            service_armed: false,
            dedup: VecDeque::new(),
            dedup_newest: 0,
        }
    }

    /// Creates a session, rolling its persona from the adversary rates
    /// (session 0 and plans without adversaries roll nothing).
    pub fn create_session(&mut self, net: &mut Net) -> u32 {
        let sid = self.sessions.len() as u32;
        let persona = if sid == 0 {
            Persona::Clean
        } else if net.roll(|a| a.slow_reader) {
            Persona::SlowReader
        } else if net.roll(|a| a.half_open) {
            Persona::HalfOpen
        } else {
            Persona::Clean
        };
        if sid != 0 {
            net.stats.sessions_opened += 1;
        }
        self.sessions.push(SessionState {
            link: LinkState::Live,
            persona,
            inbound: Vec::new(),
            outbound: Vec::new(),
            rx: Vec::new(),
            drain_armed: false,
            sheds: 0,
            open_tokens: Vec::new(),
            last_seq_frame: None,
            ready: false,
        });
        sid
    }

    /// The link state of session `sid` (`None`: no such session).
    pub fn link(&self, sid: u32) -> Option<LinkState> {
        self.sessions.get(sid as usize).map(|s| s.link)
    }

    /// Re-derives the host-side scan bound after a restore.
    pub fn rederive_dedup_newest(&mut self) {
        self.dedup_newest = self.dedup.iter().map(|(t, _)| *t).max().unwrap_or(0);
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

    /// Request bytes reach the server: adversary rolls (mid-frame cut,
    /// flood burst), then a cap-checked append to the session's inbound
    /// queue. Session 0 — the local mount — is exempt from adversarial
    /// client behaviour.
    pub fn on_request(&mut self, net: &mut Net, sid: u32, mut bytes: Vec<u8>) -> Option<Teardown> {
        if self.link(sid) != Some(LinkState::Live) {
            net.stats.frames_shed += 1;
            return None;
        }
        if sid != 0 {
            if net.roll(|a| a.mid_frame) {
                if !bytes.is_empty() {
                    let keep = net.plan.as_mut().map_or(0, |p| p.cut_point(bytes.len()));
                    bytes.truncate(keep);
                }
                net.stats.churn_events += 1;
                if let Some(sess) = self.sessions.get_mut(sid as usize) {
                    sess.link = LinkState::Down;
                    sess.drain_armed = false;
                }
                net.schedule(RECONNECT_TICKS, NetEvent::Reconnect { sid });
                if bytes.is_empty() {
                    return None;
                }
                return self.append_inbound(net, sid, bytes);
            }
            if net.roll(|a| a.flood) {
                net.stats.floods += 1;
                // Every copy arrives; once the session is torn down the
                // rest shed against its dead link.
                let mut torn = None;
                for _ in 0..FLOOD_COPIES {
                    torn = torn.or(self.append_inbound(net, sid, bytes.clone()));
                }
                return torn.or(self.append_inbound(net, sid, bytes));
            }
        }
        self.append_inbound(net, sid, bytes)
    }

    /// Cap-checked append to a session's inbound queue.
    pub fn append_inbound(&mut self, net: &mut Net, sid: u32, bytes: Vec<u8>) -> Option<Teardown> {
        // Only a reconnect's stale-replay roll reads `last_seq_frame`, so
        // a plan that can never roll one skips classifying the frame.
        let keep_seq = net.plan.as_ref().is_some_and(|p| p.adv.stale_replay > 0);
        let sess = self.sessions.get_mut(sid as usize)?;
        if sess.link == LinkState::Gone {
            net.stats.frames_shed += 1;
            return None;
        }
        if sess.inbound.len() + bytes.len() > self.in_cap {
            return self.shed(net, sid);
        }
        if keep_seq {
            if let Ok((_, body)) = decode_frame(&bytes) {
                if is_sequenced(body.first().copied().unwrap_or(0)) {
                    sess.last_seq_frame = Some(bytes.clone());
                }
            }
        }
        enqueue(&mut sess.inbound, bytes);
        net.stats.in_queue_hwm = net.stats.in_queue_hwm.max(sess.inbound.len() as u64);
        self.mark_ready(sid);
        None
    }

    /// Sheds one frame at a full queue of session `sid`. A session that
    /// keeps shedding is evicted — except session 0, the mount, which
    /// degrades to clean timeouts instead.
    fn shed(&mut self, net: &mut Net, sid: u32) -> Option<Teardown> {
        net.stats.frames_shed += 1;
        let sess = self.sessions.get_mut(sid as usize)?;
        sess.sheds += 1;
        if sess.sheds > EVICT_SHED_LIMIT && sid != 0 {
            return self.teardown(net, sid, false);
        }
        None
    }

    /// The readiness loop: pops ready sessions FIFO and serves at most
    /// [`SERVER_OPS_PER_TICK`] frames this tick, each through `serve`
    /// (request body in, reply body out), and sends each reply with
    /// service jitter. Leftover readiness arms a `Service` rollover
    /// event for the next tick.
    pub fn service_ready(&mut self, net: &mut Net, mut serve: impl FnMut(&[u8]) -> Vec<u8>) {
        if net.clock != self.served_tick {
            self.served_tick = net.clock;
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
            let Some((tag, len)) = next_frame(&mut sess.inbound, &mut net.stats) else {
                continue;
            };
            // Serve the body in place, then drop the frame from the queue.
            let mut inbound = std::mem::take(&mut sess.inbound);
            self.served_count += 1;
            if inbound.len() > len {
                self.mark_ready(sid);
            }
            // A sequenced tag served before is answered from the dedup
            // window; anything else is executed.
            let body = &inbound[FRAME_HEADER..len];
            let op = body.first().copied().unwrap_or(0);
            let cached = (is_sequenced(op) && tag <= self.dedup_newest)
                .then(|| self.dedup.iter().find(|(t, _)| *t == tag))
                .flatten();
            let frame = match cached {
                Some((_, resp)) => {
                    net.stats.dedup_hits += 1;
                    encode_frame(tag, resp)
                }
                None => {
                    let resp = serve(body);
                    self.track_tokens(sid, op, body, &resp);
                    let frame = encode_frame(tag, &resp);
                    if is_sequenced(op) {
                        self.dedup_newest = self.dedup_newest.max(tag);
                        self.dedup.push_back((tag, resp));
                        if self.dedup.len() > DEDUP_WINDOW {
                            self.dedup.pop_front();
                        }
                    }
                    frame
                }
            };
            net.stats.bytes_received += frame.len() as u64;
            let jitter = net.service_jitter();
            net.send(frame, jitter, |bytes| NetEvent::ReplyEnqueue { sid, bytes });
            inbound.drain(..len);
            if let Some(sess) = self.sessions.get_mut(sid as usize) {
                sess.inbound = inbound;
            }
        }
        if !self.ready_q.is_empty() && !self.service_armed {
            self.service_armed = true;
            net.schedule(1, NetEvent::Service);
        }
    }

    /// Records tokens the server granted (successful opens) and drops
    /// them again on successful closes, so eviction can release what
    /// the dead client held.
    fn track_tokens(&mut self, sid: u32, op: u8, req: &[u8], resp: &[u8]) {
        let Some(sess) = self.sessions.get_mut(sid as usize) else {
            return;
        };
        if op != OP_OPEN && op != OP_CLOSE {
            return;
        }
        // Both requests open with (op, pid, node), then the open's flag
        // bits or the close's token.
        let mut r = WireReader::new(req);
        let (Ok(_), Ok(cur), Ok(node), Ok(word)) = (r.u8(), r.u32(), r.u64(), r.u64()) else {
            return;
        };
        let (cur, node) = (Pid(cur), NodeId(node));
        match (op, resp.split_first()) {
            (OP_OPEN, Some((0, rest))) => {
                if let Ok(tok) = WireReader::new(rest).u64() {
                    sess.open_tokens.push((cur, node, OpenToken(tok), word));
                }
            }
            (OP_CLOSE, _) => sess.open_tokens.retain(|(_, n, t, _)| !(*n == node && t.0 == word)),
            _ => {}
        }
    }

    /// Reply bytes reach a session's outbound queue (cap-checked; a
    /// dead link or a full queue sheds them) and the client end's drain
    /// is armed.
    pub fn on_reply(&mut self, net: &mut Net, sid: u32, bytes: Vec<u8>) -> Option<Teardown> {
        let sess = self.sessions.get_mut(sid as usize)?;
        if sess.link != LinkState::Live {
            net.stats.frames_shed += 1;
            return None;
        }
        if sess.outbound.len() + bytes.len() > self.out_cap {
            return self.shed(net, sid);
        }
        enqueue(&mut sess.outbound, bytes);
        net.stats.out_queue_hwm = net.stats.out_queue_hwm.max(sess.outbound.len() as u64);
        sess.arm_drain(net, sid);
        None
    }

    /// The client end reads: moves up to the persona's drain rate from
    /// the outbound queue into the receive buffer and hands each whole
    /// reply frame found there to `complete`, as its own allocation.
    pub fn on_drain(&mut self, net: &mut Net, sid: u32, mut complete: impl FnMut(u64, Reply)) {
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
        while let Some((tag, len)) = next_frame(&mut sess.rx, &mut net.stats) {
            let rest = sess.rx.split_off(len);
            complete(tag, Reply(std::mem::replace(&mut sess.rx, rest)));
        }
        if rearm {
            net.schedule(1, NetEvent::Drain { sid });
        }
    }

    /// Drops a session's link mid-stream (client-driven churn): queues
    /// clear, in-flight ops ride their retry timers.
    pub fn disconnect(&mut self, net: &mut Net, sid: u32) {
        let Some(sess) = self.sessions.get_mut(sid as usize) else {
            return;
        };
        if sess.link == LinkState::Live {
            sess.drop_link(LinkState::Down);
            net.stats.churn_events += 1;
        }
    }

    /// Heals a down link; may replay the session's last sequenced frame
    /// with its stale tag (the dedup window must answer it, not
    /// re-execute it).
    pub fn reconnect(&mut self, net: &mut Net, sid: u32) -> Option<Teardown> {
        let sess = self.sessions.get_mut(sid as usize)?;
        if sess.link != LinkState::Down {
            return None;
        }
        sess.link = LinkState::Live;
        net.stats.churn_events += 1;
        if !sess.outbound.is_empty() {
            sess.arm_drain(net, sid);
        }
        if net.roll(|a| a.stale_replay) {
            let replay = self.sessions.get(sid as usize).and_then(|s| s.last_seq_frame.clone());
            if let Some(frame) = replay {
                net.stats.stale_replays += 1;
                return self.append_inbound(net, sid, frame);
            }
        }
        None
    }

    /// Terminal teardown (eviction or hangup): the link goes `Gone` and
    /// the queues drop. The session's pending ops and granted tokens are
    /// returned for the client and the served file system to finish.
    pub fn teardown(&mut self, net: &mut Net, sid: u32, churn: bool) -> Option<Teardown> {
        let sess = self.sessions.get_mut(sid as usize)?;
        if sess.link == LinkState::Gone {
            return None;
        }
        sess.drop_link(LinkState::Gone);
        let tokens = std::mem::take(&mut sess.open_tokens);
        if churn {
            net.stats.churn_events += 1;
        } else {
            net.stats.sessions_evicted += 1;
        }
        Some(Teardown { sid, tokens })
    }
}
