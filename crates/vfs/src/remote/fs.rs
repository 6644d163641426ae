//! The mount face: [`RemoteFs`], the blocking [`FileSystem`] view of a
//! [`WireSession`] (always session 0), and [`WireConfig`], the
//! declarative wire a mount plan carries.

use super::codec::{self, read_reply, Op};
use super::fault::FaultPlan;
use super::{
    lock, AdversaryRates, FaultRates, IoctlTable, RemoteClient, RetryPolicy, WireError, WireReader,
    WireSession, WireSnapshot, WireStats,
};
use crate::cred::Cred;
use crate::errno::SysResult;
use crate::fs::{FileSystem, IoReply, IoctlReply, OFlags, OpenToken, PollStatus};
use crate::node::{DirEntry, Metadata, NodeId, Pid};
use std::sync::{Arc, Mutex};

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
    /// [`super::DEFAULT_QUEUE_CAP`]). Unset fields keep the perfect-wire
    /// defaults.
    pub fn with_config(self, cfg: &WireConfig) -> RemoteFs<K> {
        {
            let s = &mut lock(&self.session).state;
            if let Some(rates) = cfg.faults {
                let mut plan = FaultPlan::new(cfg.fault_seed, rates);
                if let Some(adv) = cfg.adversary {
                    plan = plan.with_adversary(adv);
                }
                s.net.jitter = plan.state ^ 0xA5A5_5A5A_0DDC_0DE5;
                s.net.plan = Some(plan);
            }
            if let Some(policy) = cfg.retry {
                s.client.retry = policy;
            }
            if let Some((in_cap, out_cap)) = cfg.queue_caps {
                s.server.in_cap = in_cap.max(1);
                s.server.out_cap = out_cap.max(1);
            }
        }
        self
    }

    /// Mints a pipelined client handle with its own session (bounded
    /// queues, persona, link state) on this server.
    pub fn client(&self) -> RemoteClient<K> {
        let sid = {
            let s = &mut lock(&self.session).state;
            s.server.create_session(&mut s.net)
        };
        RemoteClient { session: Arc::clone(&self.session), sid }
    }

    /// A snapshot of the traffic counters.
    pub fn stats(&self) -> WireStats {
        lock(&self.session).state.net.stats
    }

    /// The session's virtual clock, in ticks.
    pub fn ticks(&self) -> u64 {
        lock(&self.session).state.net.clock
    }

    /// Blocking submit-and-wait: one op end to end through the shared
    /// session, under one lock.
    fn call<T>(&self, k: &mut K, op: Op<T>) -> SysResult<T> {
        let mut s = lock(&self.session);
        let fut = s.start(0, op);
        s.wait(k, fut)
    }
}

impl<K> FileSystem<K> for RemoteFs<K> {
    fn type_name(&self) -> &'static str {
        "remote"
    }

    fn wire_snapshot(&self) -> Option<WireSnapshot> {
        Some(WireSnapshot(lock(&self.session).state.clone()))
    }

    fn wire_restore(&mut self, snap: &WireSnapshot) -> bool {
        lock(&self.session).restore(snap);
        true
    }

    fn root(&self) -> NodeId {
        lock(&self.session).inner.root()
    }

    fn lookup(&mut self, k: &mut K, cur: Pid, dir: NodeId, name: &str) -> SysResult<NodeId> {
        self.call(k, codec::lookup(cur, dir, name))
    }

    fn getattr(&mut self, k: &mut K, node: NodeId) -> SysResult<Metadata> {
        self.call(k, codec::getattr(node))
    }

    fn readdir(&mut self, k: &mut K, cur: Pid, dir: NodeId) -> SysResult<Vec<DirEntry>> {
        self.call(k, codec::readdir(cur, dir))
    }

    fn open(
        &mut self,
        k: &mut K,
        cur: Pid,
        node: NodeId,
        flags: OFlags,
        cred: &Cred,
    ) -> SysResult<OpenToken> {
        self.call(k, codec::open(cur, node, flags, cred))
    }

    fn close(&mut self, k: &mut K, cur: Pid, node: NodeId, token: OpenToken, flags: OFlags) {
        // `close` has no error path to surface, but it still mutates
        // server state (writer accounting, exclusive-use release), so it
        // crosses as a sequenced op; a lost close is recorded in
        // `stats.timeouts`.
        let _ = self.call(k, codec::close(cur, node, token, flags));
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
        // The reply's data is copied straight into `buf`, not through
        // the pipelined face's owned `RemoteRead`.
        let op = codec::read(cur, node, token, off, buf.len());
        let mut s = lock(&self.session);
        let tag = s.submit(0, op.body)?;
        let raw = s.wait_raw(k, tag)?;
        match read_reply(raw.body())? {
            Some(data) => {
                let n = data.len().min(buf.len());
                buf[..n].copy_from_slice(&data[..n]);
                Ok(IoReply::Done(n))
            }
            None => Ok(IoReply::Block),
        }
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
        self.call(k, codec::write(cur, node, token, off, data))
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
        let mut s = lock(&self.session);
        let fut = s.start_ioctl(0, cur, node, token, req_no, arg);
        s.wait(k, fut)
    }

    fn poll(&mut self, k: &mut K, node: NodeId, token: OpenToken) -> SysResult<PollStatus> {
        self.call(k, codec::poll(node, token))
    }
}
