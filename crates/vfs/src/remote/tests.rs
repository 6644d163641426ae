//! The wire's unit tests: codec, dedup, persona, eviction and
//! snapshot behaviour, driven through both faces over a `MemFs`.

#![allow(clippy::unwrap_used, clippy::expect_used)]

use super::codec::{next_frame, FRAME_HEADER};
use super::*;
use crate::cred::Cred;
use crate::errno::Errno;
use crate::fs::{IoReply, IoctlReply, OFlags, OpenToken};
use crate::memfs::MemFs;
use crate::node::{NodeId, Pid, VnodeKind};

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

/// A wire whose client sessions all roll the personas `adv` makes
/// certain (a per-mille rate of 1000), with no network faults.
fn persona_memfs(adv: AdversaryRates) -> RemoteFs<()> {
    remote_memfs().with_config(&WireConfig::faulty(1, FaultRates::default()).adversarial(adv))
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
    let sent = r.stats().bytes_sent;
    let reply = r.write(&mut (), P, f, tok, 0, b"NEW").expect("write");
    assert_eq!(reply, IoReply::Done(3));
    assert!((r.stats().bytes_sent - sent) as usize >= 3 + 1 + 4, "payload travelled");
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
    assert!(pipelined < serial, "pipelined ({pipelined} ticks) must beat serial ({serial} ticks)");
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
    let half_open = AdversaryRates { half_open: 1000, ..AdversaryRates::default() };
    let r = persona_memfs(half_open).with_config(&WireConfig::clean().queue_caps(4096, 8));
    let c = r.client();
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
    let run = |slow_reader: u16| -> u64 {
        let r = persona_memfs(AdversaryRates { slow_reader, ..AdversaryRates::default() });
        let c = r.client();
        let fut = c.submit_lookup(P, NodeId(0), "bin");
        assert!(c.wait(&mut (), fut).is_ok());
        c.ticks()
    };
    let clean = run(0);
    let slow = run(1000);
    assert!(slow > clean, "one byte per tick ({slow}) must be slower than a clean drain ({clean})");
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
    let futs: Vec<OpFuture<NodeId>> =
        (0..u64::from(INFLIGHT_CAP)).map(|_| chatty.submit_lookup(P, NodeId(0), "bin")).collect();
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
    let snap = r.wire_snapshot().expect("a remote mount snapshots its wire");

    // The snapshot restores over a file system that never saw the
    // write: a replay of the tag must come from the restored window,
    // not run again.
    let (mut r2, c2) = fresh();
    assert!(r2.wire_restore(&snap));
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
