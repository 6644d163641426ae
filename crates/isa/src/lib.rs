//! Virtual CPU for the procsim simulated SVR4 kernel.
//!
//! The paper's `/proc` interface is machine-independent, but exercising it —
//! planting breakpoints, fielding FLTBPT vs SIGTRAP, single-stepping,
//! stopping on system-call entry and exit — requires *a* machine with the
//! corresponding trap semantics. This crate provides one: a small RISC-like
//! CPU with
//!
//! * 32 64-bit general registers (`r0` hardwired to zero) plus `pc` and a
//!   processor status register with a single-step trace bit,
//! * 16 64-bit floating point registers (so the paper's
//!   `PIOCGFPREG`/`PIOCSFPREG` pair has real state to transfer),
//! * fixed-width 8-byte instructions (the paper's discussion of
//!   variable-length instruction sets is documented in DESIGN.md but not
//!   modelled),
//! * an approved breakpoint instruction (`BPT`) that leaves the program
//!   counter *at* the breakpoint address — the convention the paper calls
//!   preferable,
//! * a trap model distinguishing system calls, breakpoints, illegal and
//!   privileged instructions, integer and floating-point arithmetic faults,
//!   memory faults (reported with the failed address and access mode so the
//!   kernel can classify them as FLTBOUNDS / FLTACCESS / FLTWATCH or grow
//!   the stack), and trace traps.
//!
//! The CPU is generic over a [`Bus`], implemented by the kernel as a view
//! of the current process's address space; the CPU itself holds no memory.
//!
//! A two-pass [`asm`] assembler and a [`dis`] disassembler round out the
//! crate so that tests, examples and the simulated userland can be written
//! as readable assembly rather than hand-encoded bytes.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
// The fetch/decode path runs under every guest instruction: fallible
// cases surface typed results (`BusFault`, `Option`), never a panic.
// Test modules opt back in with a local `allow`.
#![deny(clippy::unwrap_used, clippy::expect_used)]

pub mod asm;
pub mod cpu;
pub mod dis;
pub mod insn;
pub mod reg;
pub mod sblock;

pub use asm::{assemble, AsmError, Assembly};
pub use cpu::{Access, BlockExit, Bus, BusFault, BusFaultKind, Cpu, RunExit, StepEvent};
pub use insn::{Insn, Opcode, INSN_LEN};
pub use reg::{FpregSet, GregSet, PSR_ERR, PSR_TRACE, REG_A0, REG_RA, REG_RV, REG_SP};
pub use sblock::{BlockSlot, SBlockCache, SBlockStats, SuperBlock, SBLOCK_CAP};
