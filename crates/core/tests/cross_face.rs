//! Cross-face control oracle: the flat `PIOC*` ioctls and the
//! hierarchical `/proc2/<pid>/ctl` records are two spellings of one set
//! of operations, so the same operation sequence must have the same
//! outcome through either.
//!
//! Twin systems boot identically. A seeded sequence of control
//! operations, some with malformed operands, is applied to one twin as
//! ioctls on `/proc/<pid>` and to the other as ctl records. After every
//! operation both twins must answer the same `Ok`/errno, and the first
//! twin's `PIOCSTATUS` must equal the second twin's `status` image.

use ksim::signal::{SIGCHLD, SIGCONT, SIGHUP};
use ksim::sysno::{SYS_EXIT, SYS_GETPID, SYS_NANOSLEEP};
use ksim::{Cred, Fault, FltSet, Pid, SigSet, SysSet, System};
use procfs::hier::*;
use procfs::ioctl::*;
use procfs::{boot_with_proc, PrRun, PrWatch, PRRUN_CFAULT, PRRUN_CSIG, PRRUN_SABORT, PRRUN_SSTOP};
use vfs::{Errno, OFlags};

/// A target that loops on `getpid`, so entry/exit tracing has stops to
/// report and a directed stop always lands within a round.
const LOOP: &str = "_start:\nloop:\nmovi rv, 20\nsyscall\njmp loop";

/// A target that exits at once and stays a zombie (nobody waits).
const EXIT: &str = "_start:\nmovi rv, 1\nmovi a0, 3\nsyscall";

/// One twin: the system, its controller, the target and the open
/// control descriptor (`/proc/<pid>` read-write on the flat twin,
/// `/proc2/<pid>/ctl` write-only on the hierarchical one).
struct Twin {
    sys: System,
    ctl: Pid,
    target: Pid,
    fd: usize,
}

impl Twin {
    fn boot(src: &str, flat: bool) -> Twin {
        let mut sys = boot_with_proc();
        let ctl = sys.spawn_hosted("ctl", Cred::new(100, 10));
        sys.install_program("/bin/target", src);
        let target = sys.spawn_program(ctl, "/bin/target", &["target"]).expect("spawn");
        sys.run_idle(100);
        let fd = if flat {
            sys.host_open(ctl, &format!("/proc/{:05}", target.0), OFlags::rdwr())
        } else {
            sys.host_open(ctl, &format!("/proc2/{}/ctl", target.0), OFlags::wronly())
        }
        .expect("open control file");
        Twin { sys, ctl, target, fd }
    }

    fn status_file(&mut self) -> Result<Vec<u8>, Errno> {
        let path = format!("/proc2/{}/status", self.target.0);
        let fd = self.sys.host_open(self.ctl, &path, OFlags::rdonly())?;
        let mut buf = vec![0u8; 4096];
        let n = self.sys.host_read(self.ctl, fd, &mut buf);
        self.sys.host_close(self.ctl, fd)?;
        buf.truncate(n?);
        Ok(buf)
    }
}

/// Every control operation with a `PC*` twin: `(PIOC request, PC op)`.
const OPS: [(u32, u32); 19] = [
    (PIOCSTOP, PCSTOP),
    (PIOCWSTOP, PCWSTOP),
    (PIOCRUN, PCRUN),
    (PIOCSTRACE, PCSTRACE),
    (PIOCSFAULT, PCSFAULT),
    (PIOCSENTRY, PCSENTRY),
    (PIOCSEXIT, PCSEXIT),
    (PIOCKILL, PCKILL),
    (PIOCUNKILL, PCUNKILL),
    (PIOCSSIG, PCSSIG),
    (PIOCSHOLD, PCSHOLD),
    (PIOCSREG, PCSREG),
    (PIOCSFPREG, PCSFPREG),
    (PIOCSFORK, PCSFORK),
    (PIOCRFORK, PCRFORK),
    (PIOCSRLC, PCSRLC),
    (PIOCRRLC, PCRRLC),
    (PIOCSWATCH, PCWATCH),
    (PIOCNICE, PCNICE),
];

struct Rng(u64);

impl Rng {
    fn below(&mut self, n: u64) -> u64 {
        self.0 ^= self.0 << 13;
        self.0 ^= self.0 >> 7;
        self.0 ^= self.0 << 17;
        self.0 % n
    }
}

/// A well-formed operand for `req`. Signals are ones whose default
/// action neither kills nor job-control-stops the target, and run flags
/// leave out single-step and a new resume address, so the target stays
/// alive through a sequence.
fn operand(rng: &mut Rng, twin: &Twin, req: u32) -> Vec<u8> {
    fn members<const W: usize>(rng: &mut Rng, pool: [usize; 3]) -> Vec<u8> {
        let mut set = ksim::bitset::BitSet::<W>::empty();
        for _ in 0..rng.below(3) {
            set.add(pool[rng.below(3) as usize]);
        }
        set.to_bytes()
    }
    let sig = [0, SIGCHLD, SIGCONT][rng.below(3) as usize] as u32;
    let lwp = twin.sys.kernel.proc(twin.target).expect("target").rep_lwp();
    match req {
        PIOCRUN => {
            let flags =
                [0, PRRUN_CSIG, PRRUN_CFAULT, PRRUN_SABORT, PRRUN_SSTOP][rng.below(5) as usize];
            PrRun { flags, vaddr: 0 }.to_bytes()
        }
        PIOCSTRACE | PIOCSHOLD => members::<2>(rng, [SIGCHLD, SIGCONT, SIGHUP]),
        PIOCSFAULT => {
            members::<2>(rng, [Fault::Bpt, Fault::Trace, Fault::Access].map(|f| f as usize))
        }
        PIOCSENTRY | PIOCSEXIT => {
            members::<8>(rng, [SYS_GETPID, SYS_EXIT, SYS_NANOSLEEP].map(usize::from))
        }
        PIOCKILL | PIOCUNKILL | PIOCSSIG => sig.to_le_bytes().to_vec(),
        PIOCSREG => lwp.gregs.to_bytes(),
        PIOCSFPREG => lwp.fpregs.to_bytes(),
        PIOCSWATCH => {
            let size = [0, 8][rng.below(2) as usize];
            PrWatch { vaddr: 0x0100_0000, size, flags: rng.below(3) as u32 }.to_bytes()
        }
        PIOCNICE => (rng.below(41) as i32 - 20).to_le_bytes().to_vec(),
        _ => Vec::new(),
    }
}

/// Applies one operation to both twins and checks the oracle.
fn apply(flat: &mut Twin, hier: &mut Twin, req: u32, op: u32, arg: &[u8], ctx: &str) {
    let a = flat.sys.host_ioctl(flat.ctl, flat.fd, req, arg).map(drop);
    let b = hier.sys.host_write(hier.ctl, hier.fd, &ctl_record(op, arg)).map(drop);
    assert_eq!(a, b, "{ctx}: {} ({} operand bytes)", req_name(req), arg.len());
    let flat_status = flat.sys.host_ioctl(flat.ctl, flat.fd, PIOCSTATUS, &[]);
    assert_eq!(flat_status, hier.status_file(), "{ctx}: status after {}", req_name(req));
}

#[test]
fn both_faces_agree_on_seeded_control_sequences_for_32_seeds() {
    for seed in 0..32u64 {
        let mut rng = Rng(0x9E37_79B9_7F4A_7C15 ^ seed.wrapping_mul(0x2545_F491_4F6C_DD1D));
        let mut flat = Twin::boot(LOOP, true);
        let mut hier = Twin::boot(LOOP, false);
        for step in 0..40 {
            let (req, op) = OPS[rng.below(OPS.len() as u64) as usize];
            // A wait on a target that is not stopped would pump to the
            // deadlock limit on both faces; issue it only when it returns.
            if req == PIOCWSTOP && !flat.sys.kernel.proc(flat.target).expect("t").is_event_stopped()
            {
                continue;
            }
            let mut arg = operand(&mut rng, &flat, req);
            if rng.below(5) == 0 {
                // Malformed: cut short (or, for operand-less requests,
                // padded with a stray byte, which both faces ignore).
                let len = rng.below(arg.len() as u64 + 1) as usize;
                arg.truncate(len.saturating_sub(1));
                if arg.is_empty() && rng.below(2) == 0 {
                    arg.push(0xA5);
                }
            }
            let ctx = format!("seed {seed} step {step}");
            apply(&mut flat, &mut hier, req, op, &arg, &ctx);
            for _ in 0..rng.below(3) {
                flat.sys.step();
                hier.sys.step();
            }
        }
        let alive = !flat.sys.kernel.proc(flat.target).expect("target").zombie;
        assert!(alive, "seed {seed}: the sequence must keep the target alive");
    }
}

/// Every operation against a zombie target, with a well-formed and with
/// a short operand: both faces must refuse each the same way.
#[test]
fn both_faces_agree_on_a_zombie_target() {
    let mut flat = Twin::boot(EXIT, true);
    let mut hier = Twin::boot(EXIT, false);
    assert!(flat.sys.kernel.proc(flat.target).expect("zombie").zombie);
    for (req, op) in OPS {
        let arg = match req {
            PIOCSREG => isa::GregSet::default().to_bytes(),
            PIOCSFPREG => isa::FpregSet::default().to_bytes(),
            PIOCRUN => PrRun::default().to_bytes(),
            PIOCSTRACE | PIOCSHOLD => SigSet::empty().to_bytes(),
            PIOCSFAULT => FltSet::empty().to_bytes(),
            PIOCSENTRY | PIOCSEXIT => SysSet::empty().to_bytes(),
            PIOCSWATCH => PrWatch { vaddr: 0, size: 0, flags: 0 }.to_bytes(),
            PIOCKILL | PIOCUNKILL | PIOCSSIG | PIOCNICE => 0u32.to_le_bytes().to_vec(),
            _ => Vec::new(),
        };
        apply(&mut flat, &mut hier, req, op, &arg, "zombie");
        let short = &arg[..arg.len().saturating_sub(1)];
        apply(&mut flat, &mut hier, req, op, short, "zombie, short operand");
    }
}
