//! The simulated SVR4 kernel.
//!
//! This crate is the substrate the paper's `/proc` sits on: a complete,
//! deterministic, single-threaded simulation of the UNIX System V
//! process model —
//!
//! * processes with one or more LWPs (threads of control), credentials,
//!   address spaces ([`vm`]), descriptor tables and signal state;
//! * the [`sched`] module's faithful `issig()`/`psig()` (the paper's
//!   Figure 4), including signalled stops, job-control stops, ptrace
//!   stops and requested stops, and their precedence interactions;
//! * a system-call layer (entry/exit stop points — Figure 3), pipes with
//!   real interruptible sleeps, fork/vfork/exec/exit/wait, mmap/brk,
//!   signals, LWP creation;
//! * old-style [`ptrace`] as the competing control mechanism and
//!   baseline;
//! * the [`system::System`] orchestrator that owns the kernel plus the
//!   mounted file systems (memfs, `/proc`) and runs the scheduler.
//!
//! Simulated programs execute on the [`isa`] virtual CPU; *hosted*
//! processes (controlling programs such as a debugger, `ps` or `truss`)
//! occupy a pid, credentials and a descriptor table inside the simulation
//! but run their logic as Rust code against [`system::System`]'s
//! host-level system-call API.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
// The kernel runs under every guest instruction — the scheduler loop,
// the syscall layer and the execution engine's bus all sit below the
// fast path. Fallible cases surface typed results (`Errno`,
// `AccessDenied`, `Option`), never a panic; invariant violations use an
// explicit `panic!`/`unreachable!` with a message naming the broken
// invariant. Test modules opt back in with a local `allow`.
#![deny(clippy::unwrap_used, clippy::expect_used)]

pub mod aout;
pub mod bitset;
pub mod bytes;
pub mod ckpt;
pub mod config;
pub mod corefile;
pub mod deadline;
pub mod event;
pub mod fault;
pub mod fd;
pub mod kernel;
pub mod kfault;
pub mod migrate;
pub mod proc;
pub mod ptrace;
pub mod recfile;
pub mod record;
pub mod sched;
pub mod signal;
pub mod syscall;
pub mod sysno;
pub mod system;

pub use aout::Aout;
pub use config::{KernelFaultSpec, MountPlan, SimConfig};
pub use event::{Event, EventLog};
pub use fault::{Fault, FltSet};
pub use kernel::{Kernel, RunOpts, HZ};
pub use kfault::{KFaultStats, KernelFaultPlan, KernelFaultRates};
pub use migrate::{MigReply, MigStats, MigrateError};
pub use proc::{Lwp, LwpState, Proc, StopWhy, SysPhase, SyscallCtx, Tid, TraceState, WaitChannel};
pub use recfile::{RecFile, RecfileError};
pub use record::{Input, RecStats, Record, Recorder, Recording, ReplayDivergence};
pub use sched::{Issig, Psig, SleepSig};
pub use signal::{SigAction, SigSet};
pub use sysno::SysSet;
pub use system::{FsSlot, StepOutcome, System};
pub use vfs::{Cred, Errno, Pid, SysResult};
