//! Spans recorded from outside the program: around the benchmark's own
//! calls into each layer, and inside a timing [`FileSystem`] decorator
//! wrapped around every mounted `/proc` (and, on the remote mount,
//! around both the wire and the `ProcFs` behind it).
//!
//! Spans live in memory while the benchmark runs. [`report`] folds them
//! into per-(layer, name) call counts, total and self times; a span's
//! self time is its duration minus the time its child spans cover.
//! [`write_chrome`] writes the raw spans as Chrome trace-event JSON.

use ksim::Kernel;
use std::cell::{Cell, RefCell};
use std::collections::BTreeMap;
use std::time::Instant;
use vfs::{
    Cred, DirEntry, FileSystem, IoReply, IoctlReply, Metadata, NodeId, OFlags, OpenToken, Pid,
    PollStatus, SysResult,
};

/// Raw spans kept for the trace file; aggregates keep counting past it.
const SPAN_CAP: usize = 200_000;

#[derive(Clone, Copy, Debug)]
struct Span {
    layer: &'static str,
    name: &'static str,
    start_ns: u64,
    dur_ns: u64,
    parent: Option<u32>,
    op: u64,
}

struct Frame {
    start: Instant,
    child_ns: u64,
    raw: Option<u32>,
    layer: &'static str,
}

/// Per-(layer, name) totals.
#[derive(Clone, Copy, Debug, Default)]
pub struct Agg {
    pub calls: u64,
    pub total_ns: u64,
    pub self_ns: u64,
    /// Calls whose parent span is a `tools` span (the /proc calls a tool
    /// made, one per `ProcHandle` call).
    pub under_tools: u64,
}

struct Tracer {
    epoch: Instant,
    stack: Vec<Frame>,
    spans: Vec<Span>,
    agg: BTreeMap<(&'static str, &'static str), Agg>,
    op: u64,
}

thread_local! {
    static ON: Cell<bool> = const { Cell::new(false) };
    static TRACER: RefCell<Tracer> = RefCell::new(Tracer {
        epoch: Instant::now(),
        stack: Vec::new(),
        spans: Vec::new(),
        agg: BTreeMap::new(),
        op: 0,
    });
}

/// Turns span recording on or off. Off, [`span`] is one flag test.
pub fn enable(on: bool) {
    ON.with(|c| c.set(on));
}

/// Runs `f` inside a span of `layer`/`name` when tracing is on.
pub fn span<T>(layer: &'static str, name: &'static str, f: impl FnOnce() -> T) -> T {
    if !ON.with(Cell::get) {
        return f();
    }
    TRACER.with(|t| {
        let mut t = t.borrow_mut();
        if t.stack.is_empty() {
            t.op += 1;
        }
        let raw = (t.spans.len() < SPAN_CAP).then(|| {
            let parent = t.stack.last().and_then(|fr| fr.raw);
            let (op, start_ns) = (t.op, t.epoch.elapsed().as_nanos() as u64);
            t.spans.push(Span {
                layer,
                name,
                start_ns,
                dur_ns: 0,
                parent,
                op,
            });
            (t.spans.len() - 1) as u32
        });
        t.stack.push(Frame {
            start: Instant::now(),
            child_ns: 0,
            raw,
            layer,
        });
    });
    let out = f();
    TRACER.with(|t| {
        let mut t = t.borrow_mut();
        let Some(fr) = t.stack.pop() else { return };
        let dur = fr.start.elapsed().as_nanos() as u64;
        let parent_layer = t.stack.last().map(|p| p.layer);
        if let Some(p) = t.stack.last_mut() {
            p.child_ns += dur;
        }
        if let Some(i) = fr.raw {
            t.spans[i as usize].dur_ns = dur;
        }
        let a = t.agg.entry((layer, name)).or_default();
        a.calls += 1;
        a.total_ns += dur;
        a.self_ns += dur.saturating_sub(fr.child_ns);
        if parent_layer == Some("tools") {
            a.under_tools += 1;
        }
    });
    out
}

/// Totals per (layer, name) so far.
pub fn report() -> BTreeMap<(&'static str, &'static str), Agg> {
    TRACER.with(|t| t.borrow().agg.clone())
}

/// Writes the kept spans as Chrome trace-event JSON (`ph: "X"`, times in
/// microseconds), each with its request id and parent span index.
pub fn write_chrome(path: &std::path::Path) -> std::io::Result<()> {
    use std::io::Write;
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    out.write_all(b"{\"traceEvents\":[\n")?;
    TRACER.with(|t| -> std::io::Result<()> {
        let t = t.borrow();
        for (i, s) in t.spans.iter().enumerate() {
            let sep = if i + 1 == t.spans.len() { "" } else { "," };
            let parent = s.parent.map_or(-1, i64::from);
            writeln!(
                out,
                "{{\"name\":\"{}\",\"cat\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":{:.3},\"dur\":{:.3},\"args\":{{\"op\":{},\"id\":{i},\"parent\":{parent}}}}}{sep}",
                s.name,
                s.layer,
                s.start_ns as f64 / 1e3,
                s.dur_ns as f64 / 1e3,
                s.op,
            )?;
        }
        Ok(())
    })?;
    out.write_all(b"]}\n")?;
    out.flush()
}

/// A file system that times every vnode operation of the one it wraps
/// as a span of `layer`. Wire-state capture and restore pass straight
/// through, so recorded snapshots of a wrapped remote mount still work.
pub struct Timed {
    layer: &'static str,
    inner: Box<dyn FileSystem<Kernel> + Send>,
}

impl Timed {
    pub fn new(layer: &'static str, inner: Box<dyn FileSystem<Kernel> + Send>) -> Timed {
        Timed { layer, inner }
    }
}

impl FileSystem<Kernel> for Timed {
    fn type_name(&self) -> &'static str {
        self.inner.type_name()
    }
    fn root(&self) -> NodeId {
        self.inner.root()
    }
    fn lookup(&mut self, k: &mut Kernel, cur: Pid, dir: NodeId, name: &str) -> SysResult<NodeId> {
        span(self.layer, "lookup", || {
            self.inner.lookup(k, cur, dir, name)
        })
    }
    fn getattr(&mut self, k: &mut Kernel, node: NodeId) -> SysResult<Metadata> {
        span(self.layer, "getattr", || self.inner.getattr(k, node))
    }
    fn readdir(&mut self, k: &mut Kernel, cur: Pid, dir: NodeId) -> SysResult<Vec<DirEntry>> {
        span(self.layer, "readdir", || self.inner.readdir(k, cur, dir))
    }
    fn open(
        &mut self,
        k: &mut Kernel,
        cur: Pid,
        node: NodeId,
        flags: OFlags,
        cred: &Cred,
    ) -> SysResult<OpenToken> {
        span(self.layer, "open", || {
            self.inner.open(k, cur, node, flags, cred)
        })
    }
    fn close(&mut self, k: &mut Kernel, cur: Pid, node: NodeId, token: OpenToken, flags: OFlags) {
        span(self.layer, "close", || {
            self.inner.close(k, cur, node, token, flags)
        })
    }
    fn read(
        &mut self,
        k: &mut Kernel,
        cur: Pid,
        node: NodeId,
        token: OpenToken,
        off: u64,
        buf: &mut [u8],
    ) -> SysResult<IoReply> {
        span(self.layer, "read", || {
            self.inner.read(k, cur, node, token, off, buf)
        })
    }
    fn write(
        &mut self,
        k: &mut Kernel,
        cur: Pid,
        node: NodeId,
        token: OpenToken,
        off: u64,
        data: &[u8],
    ) -> SysResult<IoReply> {
        span(self.layer, "write", || {
            self.inner.write(k, cur, node, token, off, data)
        })
    }
    fn ioctl(
        &mut self,
        k: &mut Kernel,
        cur: Pid,
        node: NodeId,
        token: OpenToken,
        req: u32,
        arg: &[u8],
    ) -> SysResult<IoctlReply> {
        span(self.layer, "ioctl", || {
            self.inner.ioctl(k, cur, node, token, req, arg)
        })
    }
    fn poll(&mut self, k: &mut Kernel, node: NodeId, token: OpenToken) -> SysResult<PollStatus> {
        span(self.layer, "poll", || self.inner.poll(k, node, token))
    }
    fn wire_snapshot(&self) -> Option<vfs::remote::WireSnapshot> {
        self.inner.wire_snapshot()
    }
    fn wire_restore(&mut self, snap: &vfs::remote::WireSnapshot) -> bool {
        self.inner.wire_restore(snap)
    }
}
