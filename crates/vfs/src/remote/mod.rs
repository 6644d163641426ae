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
//! The crucial asymmetry from the paper survives intact: `read`,
//! `write`, `lookup` and friends marshal *generically* — their operand
//! sizes and directions are manifest in the call. `ioctl` cannot be
//! marshalled without a per-request table of operand sizes and
//! directions ([`IoctlWireSpec`]); any request missing from the table is
//! refused with `ENOTSUP` and counted.
//!
//! # Layers
//!
//! `codec`, `fault`, `net`, `server`, `client` and `fs` each own one
//! layer's state and reach the next through one narrow call. A
//! [`WireSession`] holds the served file system and one state field per
//! layer; a [`WireSnapshot`] is a clone of those fields.

mod client;
mod codec;
mod fault;
mod fs;
mod net;
mod server;
#[cfg(test)]
mod tests;

pub use client::{OpFuture, RemoteClient, RetryPolicy, INFLIGHT_CAP};
pub use codec::{
    crc32, decode_frame, encode_frame, marshal_write, IoctlTable, IoctlWireSpec, RemoteRead,
    WireError, WireReader, WireResult, MAX_IO,
};
pub use fault::{AdversaryRates, FaultPlan, FaultRates};
pub use fs::{RemoteFs, WireConfig};
pub use server::{DEFAULT_QUEUE_CAP, EVICT_SHED_LIMIT, FLOOD_COPIES, SERVER_OPS_PER_TICK};

use crate::fs::{FileSystem, OFlags};
use client::Client;
use codec::Wire;
use net::{Net, NetEvent};
use server::{Server, Teardown};
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
        /// Frames the network delayed by [`LATE_TICKS`](net::LATE_TICKS).
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

/// Every layer's state, apart from the served file system: a
/// [`WireSnapshot`] is a clone of it.
#[derive(Clone, Debug)]
struct WireState {
    net: Net,
    server: Server,
    client: Client,
}

/// One server and its client sessions: the served file system and its
/// ioctl table, and the state of every layer above them. Shared (behind
/// a mutex) by every [`RemoteClient`] handle and the mounted
/// [`RemoteFs`].
pub struct WireSession<K> {
    inner: Box<dyn FileSystem<K> + Send>,
    ioctl_table: Option<IoctlTable>,
    state: WireState,
}

impl<K> WireSession<K> {
    fn new(inner: Box<dyn FileSystem<K> + Send>) -> WireSession<K> {
        let state = WireState { net: Net::new(), server: Server::new(), client: Client::new() };
        let mut s = WireSession { inner, ioctl_table: None, state };
        // Session 0: the blocking mount face. Always clean, always
        // live — the local mount is not an adversary.
        let _ = s.state.server.create_session(&mut s.state.net);
        s
    }

    /// Processes the next scheduled event, advancing the virtual clock,
    /// then serves any ready sessions within this tick's budget.
    /// Returns false when the queue is empty (the wire is idle).
    fn pump_one(&mut self, k: &mut K) -> bool {
        let Some(ev) = self.state.net.next_event() else {
            return false;
        };
        match ev {
            NetEvent::Request { sid, bytes } => self.step(k, |s, n| s.on_request(n, sid, bytes)),
            NetEvent::ReplyEnqueue { sid, bytes } => {
                self.step(k, |s, n| s.on_reply(n, sid, bytes));
            }
            NetEvent::Reconnect { sid } => self.step(k, |s, n| s.reconnect(n, sid)),
            NetEvent::Drain { sid } => {
                let WireState { net, server, client } = &mut self.state;
                server.on_drain(net, sid, |tag, reply| client.resolve(tag, reply.status()));
            }
            NetEvent::Retry { tag } => {
                let s = &mut self.state;
                s.client.on_retry(&s.server, &mut s.net, tag);
            }
            NetEvent::Service => self.state.server.service_armed = false,
        }
        self.service_ready(k);
        true
    }

    /// Serves ready sessions within this tick's budget, each request
    /// against the served file system.
    fn service_ready(&mut self, k: &mut K) {
        let WireSession { inner, ioctl_table, state } = self;
        state.server.service_ready(&mut state.net, |body| {
            let reply = codec::serve(&mut **inner, ioctl_table, k, body);
            reply.unwrap_or_else(|e| Wire::new(1).u32(e.to_wire())).0
        });
    }

    /// Runs one server step, then finishes any session it tore down:
    /// every pending op on the session resolves to a typed `EAGAIN` (no
    /// future ever hangs), and the tokens the server granted it are
    /// closed on its behalf — run-on-last-close fires exactly as if the
    /// client had closed cleanly.
    fn step(&mut self, k: &mut K, f: impl FnOnce(&mut Server, &mut Net) -> Option<Teardown>) {
        let s = &mut self.state;
        let Some(t) = f(&mut s.server, &mut s.net) else {
            return;
        };
        s.client.evict(t.sid);
        for (cur, node, tok, bits) in t.tokens {
            self.inner.close(k, cur, node, tok, OFlags::from_bits(bits));
        }
    }

    /// Overwrites every layer's state from a snapshot, leaving the
    /// served file system and the ioctl table as constructed, and
    /// re-derives the two host-side fields.
    fn restore(&mut self, snap: &WireSnapshot) {
        self.state = snap.0.clone();
        self.state.client.rederive_resolved();
        self.state.server.rederive_dedup_newest();
    }
}

/// A deep copy of one [`WireSession`]'s state — clock, tags, event
/// queue, in-flight ops, dedup window, per-session queues and personas,
/// fault-plan RNG position, counters — *without* the served file system
/// or the ioctl table (those are rebuilt from the `SimConfig`). Banked
/// into a recording `Snap` so remote-mount configs resume from a
/// snapshot instead of rebuilding from tick zero.
#[derive(Clone, Debug)]
pub struct WireSnapshot(WireState);

fn lock<K>(session: &Arc<Mutex<WireSession<K>>>) -> MutexGuard<'_, WireSession<K>> {
    session.lock().unwrap_or_else(PoisonError::into_inner)
}
