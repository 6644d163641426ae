//! Durable on-disk format for a [`Recording`]: versioned, segmented,
//! checksummed, append-only.
//!
//! PR 8's recordings live and die with their process. This module makes
//! a run survive it: a recfile image is the construction [`SimConfig`]
//! plus the input log, written so that a crash mid-write can lose at
//! most the *open* segment and never corrupt a committed one.
//!
//! ## Layout
//!
//! ```text
//! header:   magic "PSRECF01" | version u32 | config_len u32
//!           | SimConfig::encode bytes | crc32(version..config)
//! segment:  kind u8 | payload_len u32 | payload
//!           | crc32(kind+len+payload) | commit footer u32
//! ```
//!
//! Everything after the header is a sequence of segments. Segment kinds:
//!
//! - `0` — a batch of at most [`RECORDS_PER_SEGMENT`] records, each the
//!   input's full-fidelity encoding (unlike the digest encoding,
//!   `Steps` stores its count) followed by the recorded digest.
//! - `1` — a snapshot mark: the record position at which the live run
//!   banked a copy-on-write [`crate::record::Snap`]. Snapshots
//!   themselves hold live kernel clones and cannot be serialised; the
//!   loader re-banks them deterministically by replaying to each mark.
//!
//! ## Crash consistency
//!
//! Segments are written append-only and are self-validating: the CRC32
//! covers the kind, the length and the payload, and a fixed commit
//! footer follows the CRC. A torn write — truncation anywhere inside
//! the open segment, or a segment whose footer never made it out —
//! fails that segment's checks without touching any earlier one, so
//! [`load_committed`] recovers exactly the committed prefix. Committed
//! segments are never rewritten, so no failure mode can corrupt one.
//!
//! Every malformation is a typed [`RecfileError`]; no input bytes panic
//! the loader (fuzzed over truncation at every offset and single-bit
//! flips in `tests/robustness.rs`).

use crate::config::SimConfig;
use crate::record::{Input, Record, Recording};
use vfs::remote::{crc32, WireError, WireReader};
use vfs::{Cred, OFlags};

/// First eight bytes of every recfile image.
pub const RECFILE_MAGIC: &[u8; 8] = b"PSRECF01";

/// Current format version. Version 2 added the `interleave_seed` and
/// the `controller_death` fault rate to the embedded `SimConfig`
/// encoding; version 3 dropped the whole-mapping-invalidation flag
/// byte. Version 4 drops the speculation worker count and batch
/// length from the config: the gang round now runs its slices serially
/// in commit order, while a version-3 log was made by the round that
/// speculated slices against a frozen store first, so it need not
/// replay the same. Older images are rejected with a typed
/// [`RecfileError::BadVersion`].
pub const RECFILE_VERSION: u32 = 4;

/// Records per batch segment; bounds how much one torn segment can lose.
pub const RECORDS_PER_SEGMENT: usize = 256;

/// Commit footer written after each segment checksum. A segment without
/// it was never committed.
const COMMIT_FOOTER: u32 = 0x5EC7_C0D3;

/// Segment kind: a batch of records.
const SEG_RECORDS: u8 = 0;
/// Segment kind: a snapshot-position mark.
const SEG_SNAP_MARK: u8 = 1;

/// Upper bound on one segment's payload (defense against hostile length
/// fields; honest batches are far smaller).
const MAX_SEGMENT: u32 = 1 << 24;

/// Upper bound on any single length-prefixed field inside a payload.
const MAX_FIELD: usize = 1 << 20;

/// A typed recfile load failure. Every malformed input maps here; the
/// loader never panics.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum RecfileError {
    /// The image does not begin with [`RECFILE_MAGIC`].
    BadMagic,
    /// Unsupported format version.
    BadVersion(u32),
    /// The image ends before a fixed-size field it promised.
    Truncated,
    /// A CRC32 mismatch; segment 0 is the header.
    BadChecksum {
        /// Failing segment index (0 = header).
        segment: usize,
    },
    /// A segment's commit footer is absent or wrong: the segment was
    /// torn mid-write and never committed.
    BadCommit {
        /// Failing segment index.
        segment: usize,
    },
    /// A checksummed payload fails structural validation.
    Malformed {
        /// Failing segment index (0 = header).
        segment: usize,
        /// What failed.
        what: &'static str,
    },
}

impl std::fmt::Display for RecfileError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RecfileError::BadMagic => write!(f, "recfile: bad magic"),
            RecfileError::BadVersion(v) => write!(f, "recfile: unsupported version {v}"),
            RecfileError::Truncated => write!(f, "recfile: truncated"),
            RecfileError::BadChecksum { segment } => {
                write!(f, "recfile: checksum mismatch in segment {segment}")
            }
            RecfileError::BadCommit { segment } => {
                write!(f, "recfile: segment {segment} missing commit footer (torn write)")
            }
            RecfileError::Malformed { segment, what } => {
                write!(f, "recfile: malformed segment {segment}: {what}")
            }
        }
    }
}

impl std::error::Error for RecfileError {}

/// A loaded recfile: the recording plus the snapshot marks to re-bank
/// during replay.
#[derive(Clone, Debug, PartialEq)]
pub struct RecFile {
    /// The recording (config comes back with `record = false`; loaders
    /// replay with recording re-enabled).
    pub recording: Recording,
    /// Record positions at which the original run banked snapshots,
    /// ascending.
    pub snap_marks: Vec<usize>,
}

fn enc_input_full(input: &Input, out: &mut Vec<u8>) {
    input.encode(out);
    // The digest encoding deliberately omits the coalesced step count;
    // the file must keep it to re-issue the burst.
    if let Input::Steps { n } = input {
        out.extend_from_slice(&n.to_le_bytes());
    }
}

fn push_segment(out: &mut Vec<u8>, kind: u8, payload: &[u8]) {
    out.push(kind);
    out.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    out.extend_from_slice(payload);
    let mut crc = crc32(0, &[kind]);
    crc = crc32(crc, &(payload.len() as u32).to_le_bytes());
    crc = crc32(crc, payload);
    out.extend_from_slice(&crc.to_le_bytes());
    out.extend_from_slice(&COMMIT_FOOTER.to_le_bytes());
}

/// Serialises a recording — its construction config and input log,
/// plus its snapshot positions — to the recfile image. Reads the log in
/// place (a flat slice or a live recorder's segmented
/// [`crate::record::Log`]), so a live recorder saves without copying it.
/// Snap marks beyond the log's end are ignored.
pub fn save<'a, I>(config: &SimConfig, records: I, snap_marks: &[usize]) -> Vec<u8>
where
    I: IntoIterator<Item = &'a Record>,
    I::IntoIter: ExactSizeIterator,
{
    let mut records = records.into_iter();
    let len = records.len();
    let mut out = Vec::new();
    out.extend_from_slice(RECFILE_MAGIC);
    let mut cfg = Vec::new();
    config.encode(&mut cfg);
    out.extend_from_slice(&RECFILE_VERSION.to_le_bytes());
    out.extend_from_slice(&(cfg.len() as u32).to_le_bytes());
    out.extend_from_slice(&cfg);
    let crc = crc32(0, &out[8..]);
    out.extend_from_slice(&crc.to_le_bytes());

    let mut marks: Vec<usize> = snap_marks.iter().copied().filter(|&p| p <= len).collect();
    marks.sort_unstable();
    marks.dedup();
    let mut next_mark = 0usize;
    let mut i = 0usize;
    // Emit marks at their positions between batches, append-only order.
    loop {
        while next_mark < marks.len() && marks[next_mark] <= i {
            push_segment(&mut out, SEG_SNAP_MARK, &(marks[next_mark] as u64).to_le_bytes());
            next_mark += 1;
        }
        if i == len {
            break;
        }
        let mut end = (i + RECORDS_PER_SEGMENT).min(len);
        if next_mark < marks.len() {
            end = end.min(marks[next_mark]);
        }
        let mut payload = Vec::new();
        payload.extend_from_slice(&((end - i) as u32).to_le_bytes());
        for r in records.by_ref().take(end - i) {
            enc_input_full(&r.input, &mut payload);
            payload.extend_from_slice(&r.digest.to_le_bytes());
        }
        push_segment(&mut out, SEG_RECORDS, &payload);
        i = end;
    }
    out
}

fn dec_str(r: &mut WireReader<'_>) -> Result<String, WireError> {
    let n = r.u64()? as usize;
    if n > MAX_FIELD {
        return Err(WireError::Malformed);
    }
    String::from_utf8(r.take(n)?.to_vec()).map_err(|_| WireError::Malformed)
}

fn dec_blob(r: &mut WireReader<'_>) -> Result<Vec<u8>, WireError> {
    let n = r.u64()? as usize;
    if n > MAX_FIELD {
        return Err(WireError::Malformed);
    }
    Ok(r.take(n)?.to_vec())
}

fn dec_cred(r: &mut WireReader<'_>) -> Result<Cred, WireError> {
    let ruid = r.u32()?;
    let euid = r.u32()?;
    let suid = r.u32()?;
    let rgid = r.u32()?;
    let egid = r.u32()?;
    let sgid = r.u32()?;
    let n = r.u64()? as usize;
    if n > 256 {
        return Err(WireError::Malformed);
    }
    let mut groups = Vec::with_capacity(n);
    for _ in 0..n {
        groups.push(r.u32()?);
    }
    Ok(Cred { ruid, euid, suid, rgid, egid, sgid, groups })
}

fn dec_oflags(b: u8) -> Result<OFlags, WireError> {
    if b >= 0x20 {
        return Err(WireError::Malformed);
    }
    Ok(OFlags {
        read: b & 1 != 0,
        write: b & 2 != 0,
        excl: b & 4 != 0,
        creat: b & 8 != 0,
        trunc: b & 16 != 0,
    })
}

fn dec_fds(r: &mut WireReader<'_>) -> Result<Vec<u32>, WireError> {
    let n = r.u64()? as usize;
    if n > MAX_FIELD / 4 {
        return Err(WireError::Malformed);
    }
    let mut fds = Vec::with_capacity(n);
    for _ in 0..n {
        fds.push(r.u32()?);
    }
    Ok(fds)
}

/// Inverts [`enc_input_full`]: the tag byte selects the variant, fields
/// follow in [`Input::encode`] order (with `Steps` carrying its count).
fn dec_input(r: &mut WireReader<'_>) -> Result<Input, WireError> {
    Ok(match r.u8()? {
        0 => {
            let path = dec_str(r)?;
            let mode = r.u16()?;
            let bytes = dec_blob(r)?;
            Input::InstallFile { path, mode, bytes }
        }
        1 => Input::InstallDir { path: dec_str(r)?, mode: r.u16()? },
        2 => Input::SpawnHosted { name: dec_str(r)?, cred: dec_cred(r)? },
        3 => {
            let parent = r.u32()?;
            let path = dec_str(r)?;
            let n = r.u64()? as usize;
            if n > 4096 {
                return Err(WireError::Malformed);
            }
            let mut argv = Vec::with_capacity(n);
            for _ in 0..n {
                argv.push(dec_str(r)?);
            }
            Input::SpawnProgram { parent, path, argv }
        }
        4 => Input::Steps { n: r.u64()? },
        5 => {
            let pid = r.u32()?;
            let path = dec_str(r)?;
            let flags = dec_oflags(r.u8()?)?;
            Input::HostOpen { pid, path, flags }
        }
        6 => Input::HostClose { pid: r.u32()?, fd: r.u32()? },
        7 => Input::HostRead { pid: r.u32()?, fd: r.u32()?, len: r.u32()? },
        8 => Input::HostWrite { pid: r.u32()?, fd: r.u32()?, data: dec_blob(r)? },
        9 => {
            Input::HostLseek { pid: r.u32()?, fd: r.u32()?, off: r.u64()? as i64, whence: r.u32()? }
        }
        10 => {
            let pid = r.u32()?;
            let fd = r.u32()?;
            let req = r.u32()?;
            let arg = dec_blob(r)?;
            Input::HostIoctl { pid, fd, req, arg }
        }
        11 => Input::HostKill { pid: r.u32()?, target: r.u32()?, sig: r.u32()? },
        12 => Input::HostWait { pid: r.u32()? },
        13 => Input::HostPoll { pid: r.u32()?, fds: dec_fds(r)? },
        14 => Input::HostPollIn { pid: r.u32()?, fds: dec_fds(r)? },
        15 => Input::HostPollFd { pid: r.u32()?, fd: r.u32()? },
        _ => return Err(WireError::Malformed),
    })
}

fn payload_what(e: WireError) -> &'static str {
    match e {
        WireError::Truncated => "payload truncated",
        _ => "payload malformed",
    }
}

/// Parses the header, returning the config and the offset of the first
/// segment.
fn parse_header(bytes: &[u8]) -> Result<(SimConfig, usize), RecfileError> {
    if bytes.len() < RECFILE_MAGIC.len() {
        return Err(RecfileError::Truncated);
    }
    if &bytes[..8] != RECFILE_MAGIC {
        return Err(RecfileError::BadMagic);
    }
    let mut r = WireReader::new(&bytes[8..]);
    let version = r.u32().map_err(|_| RecfileError::Truncated)?;
    if version != RECFILE_VERSION {
        return Err(RecfileError::BadVersion(version));
    }
    let clen = r.u32().map_err(|_| RecfileError::Truncated)? as usize;
    if clen > MAX_SEGMENT as usize {
        return Err(RecfileError::Malformed { segment: 0, what: "config length" });
    }
    let cfg_bytes = r.take(clen).map_err(|_| RecfileError::Truncated)?.to_vec();
    let stored = r.u32().map_err(|_| RecfileError::Truncated)?;
    if crc32(0, &bytes[8..16 + clen]) != stored {
        return Err(RecfileError::BadChecksum { segment: 0 });
    }
    let mut cr = WireReader::new(&cfg_bytes);
    let config = SimConfig::decode(&mut cr)
        .map_err(|_| RecfileError::Malformed { segment: 0, what: "config" })?;
    if cr.remaining() != 0 {
        return Err(RecfileError::Malformed { segment: 0, what: "config trailing bytes" });
    }
    Ok((config, 8 + r.position()))
}

/// Parses one committed segment at `off`; returns the payload range and
/// the offset past the segment.
fn parse_segment(
    bytes: &[u8],
    off: usize,
    segment: usize,
) -> Result<(u8, std::ops::Range<usize>, usize), RecfileError> {
    let mut r = WireReader::new(&bytes[off..]);
    let kind = r.u8().map_err(|_| RecfileError::Truncated)?;
    let plen = r.u32().map_err(|_| RecfileError::Truncated)? as usize;
    if kind > SEG_SNAP_MARK {
        return Err(RecfileError::Malformed { segment, what: "segment kind" });
    }
    if plen > MAX_SEGMENT as usize {
        return Err(RecfileError::Malformed { segment, what: "segment length" });
    }
    r.take(plen).map_err(|_| RecfileError::Truncated)?;
    let stored = r.u32().map_err(|_| RecfileError::Truncated)?;
    if crc32(0, &bytes[off..off + 5 + plen]) != stored {
        return Err(RecfileError::BadChecksum { segment });
    }
    let footer = r.u32().map_err(|_| RecfileError::BadCommit { segment })?;
    if footer != COMMIT_FOOTER {
        return Err(RecfileError::BadCommit { segment });
    }
    Ok((kind, off + 5..off + 5 + plen, off + r.position()))
}

fn parse_records(
    payload: &[u8],
    segment: usize,
    records: &mut Vec<Record>,
) -> Result<(), RecfileError> {
    let mut r = WireReader::new(payload);
    let count = r.u32().map_err(|_| RecfileError::Malformed { segment, what: "record count" })?;
    if count as usize > RECORDS_PER_SEGMENT {
        return Err(RecfileError::Malformed { segment, what: "record count" });
    }
    for _ in 0..count {
        let input = dec_input(&mut r)
            .map_err(|e| RecfileError::Malformed { segment, what: payload_what(e) })?;
        let digest =
            r.u64().map_err(|_| RecfileError::Malformed { segment, what: "record digest" })?;
        records.push(Record { input, digest });
    }
    if r.remaining() != 0 {
        return Err(RecfileError::Malformed { segment, what: "trailing payload bytes" });
    }
    Ok(())
}

/// Strict load: the whole image must be well-formed. Any torn, corrupt
/// or trailing byte is a typed error.
pub fn load(bytes: &[u8]) -> Result<RecFile, RecfileError> {
    match load_committed(bytes)? {
        (file, None) => Ok(file),
        (_, Some(e)) => Err(e),
    }
}

/// Crash-recovery load: parses the committed prefix and reports the
/// first failure (if any) alongside it. The header must be intact —
/// without a config there is nothing to replay into. A clean image
/// returns `(file, None)`.
pub fn load_committed(bytes: &[u8]) -> Result<(RecFile, Option<RecfileError>), RecfileError> {
    let (config, mut off) = parse_header(bytes)?;
    let mut records = Vec::new();
    let mut snap_marks = Vec::new();
    let mut segment = 1usize;
    let mut tail_err = None;
    while off < bytes.len() {
        let (kind, range, next) = match parse_segment(bytes, off, segment) {
            Ok(v) => v,
            Err(e) => {
                tail_err = Some(e);
                break;
            }
        };
        let res = match kind {
            SEG_RECORDS => parse_records(&bytes[range], segment, &mut records),
            _ => {
                let mut r = WireReader::new(&bytes[range]);
                match (r.u64(), r.remaining()) {
                    (Ok(pos), 0) if (pos as usize) <= records.len() => {
                        snap_marks.push(pos as usize);
                        Ok(())
                    }
                    _ => Err(RecfileError::Malformed { segment, what: "snap mark" }),
                }
            }
        };
        if let Err(e) = res {
            tail_err = Some(e);
            break;
        }
        off = next;
        segment += 1;
    }
    Ok((RecFile { recording: Recording { config, records }, snap_marks }, tail_err))
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;
    use crate::config::MountPlan;
    use vfs::remote::WireConfig;

    fn sample_recording() -> (Recording, Vec<usize>) {
        let config = SimConfig::standard()
            .quantum(128)
            .mount("/procr", MountPlan::RemoteProc(WireConfig::clean()))
            .snapshot_every(2);
        let records = vec![
            Record {
                input: Input::InstallFile { path: "/bin/x".into(), mode: 0o755, bytes: vec![1, 2] },
                digest: 0x1111,
            },
            Record {
                input: Input::SpawnHosted { name: "ctl".into(), cred: Cred::new(7, 7) },
                digest: 0x2222,
            },
            Record { input: Input::Steps { n: 37 }, digest: 0x3333 },
            Record {
                input: Input::HostOpen {
                    pid: 2,
                    path: "/procr/00002".into(),
                    flags: OFlags::rdwr_excl(),
                },
                digest: 0x4444,
            },
            Record {
                input: Input::HostIoctl { pid: 2, fd: 3, req: 0x5001, arg: vec![9, 9] },
                digest: 0x5555,
            },
        ];
        (Recording { config, records }, vec![0, 2, 4])
    }

    #[test]
    fn save_load_roundtrip() {
        let (rec, marks) = sample_recording();
        let bytes = save(&rec.config, &rec.records, &marks);
        let file = load(&bytes).expect("loads");
        assert_eq!(file.recording.records, rec.records);
        assert_eq!(file.snap_marks, marks);
        // `record` is not carried in the config encoding.
        assert_eq!(file.recording.config, SimConfig { record: false, ..rec.config.clone() });
        // Byte-identical re-save: load then save reproduces the image.
        assert_eq!(save(&file.recording.config, &file.recording.records, &file.snap_marks), bytes);
    }

    #[test]
    fn empty_recording_roundtrips() {
        let rec = Recording { config: SimConfig::new(), records: Vec::new() };
        let bytes = save(&rec.config, &rec.records, &[]);
        let file = load(&bytes).expect("loads");
        assert!(file.recording.records.is_empty());
        assert!(file.snap_marks.is_empty());
    }

    #[test]
    fn batches_split_at_segment_cap() {
        let records: Vec<Record> = (0..(RECORDS_PER_SEGMENT as u64 + 10))
            .map(|i| Record { input: Input::Steps { n: i + 1 }, digest: i })
            .collect();
        let rec = Recording { config: SimConfig::new(), records };
        let bytes = save(&rec.config, &rec.records, &[]);
        let file = load(&bytes).expect("loads");
        assert_eq!(file.recording.records, rec.records);
    }

    #[test]
    fn torn_tail_segment_keeps_committed_prefix() {
        let (rec, marks) = sample_recording();
        let bytes = save(&rec.config, &rec.records, &marks);
        // Cut inside the last segment: strict load fails typed, committed
        // load keeps everything before it.
        let cut = bytes.len() - 3;
        assert!(load(&bytes[..cut]).is_err());
        let (file, err) = load_committed(&bytes[..cut]).expect("header intact");
        assert!(err.is_some());
        assert!(file.recording.records.len() < rec.records.len());
        assert_eq!(file.recording.records[..], rec.records[..file.recording.records.len()]);
    }

    #[test]
    fn bad_magic_and_version_are_typed() {
        let (rec, _) = sample_recording();
        let mut bytes = save(&rec.config, &rec.records, &[]);
        let mut wrong = bytes.clone();
        wrong[0] ^= 0xFF;
        assert_eq!(load(&wrong), Err(RecfileError::BadMagic));
        bytes[8] = 0xEE; // version field
        match load(&bytes) {
            Err(RecfileError::BadVersion(_)) | Err(RecfileError::BadChecksum { .. }) => {}
            other => panic!("unexpected: {other:?}"),
        }
    }

    #[test]
    fn flipped_segment_byte_fails_checksum() {
        let (rec, marks) = sample_recording();
        let mut bytes = save(&rec.config, &rec.records, &marks);
        let tail = bytes.len() - 12; // inside the last segment's payload
        bytes[tail] ^= 0x01;
        match load(&bytes) {
            Err(
                RecfileError::BadChecksum { .. }
                | RecfileError::BadCommit { .. }
                | RecfileError::Malformed { .. }
                | RecfileError::Truncated,
            ) => {}
            other => panic!("unexpected: {other:?}"),
        }
    }
}
