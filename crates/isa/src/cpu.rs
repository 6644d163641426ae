//! The execution engine: fetch/decode/execute with the SVR4 trap model.
//!
//! The CPU owns no memory; it is driven against a [`Bus`] implemented by
//! the kernel as a view of the current process's address space. Every
//! memory reference (including instruction fetch) goes through the bus,
//! which is where page protections, copy-on-write, stack growth and
//! watchpoint areas are enforced — the CPU only sees success or a
//! [`BusFault`].
//!
//! Trap conventions, chosen to match the paper's preferences:
//!
//! * `SYSCALL` reports with the program counter already advanced past the
//!   instruction, so the kernel may rewind by one instruction to restart
//!   the call.
//! * `BPT` (and every other faulting instruction) reports with the program
//!   counter *at* the faulting instruction — "the execution of the
//!   breakpoint instruction should leave the program counter with a known
//!   value relative to the breakpoint address in all cases, preferably the
//!   breakpoint address itself".
//! * When the [`PSR_TRACE`] bit is set, a trace trap is reported after one
//!   instruction completes (with the program counter after it), unless the
//!   instruction itself trapped.

use crate::insn::{Insn, Opcode, INSN_LEN};
use crate::reg::{FpregSet, GregSet, PSR_TRACE, REG_RA};
use crate::sblock::BlockSlot;
use std::sync::Arc;

/// The kind of memory access being attempted, carried in fault reports so
/// the kernel can classify the machine fault.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Access {
    /// Data read.
    Read,
    /// Data write.
    Write,
    /// Instruction fetch.
    Exec,
}

/// Why a bus access failed; determined by the kernel's address-space view
/// and reported back through the CPU unchanged.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum BusFaultKind {
    /// No mapping covers the address.
    Unmapped,
    /// A mapping covers the address but forbids this access.
    Protection,
    /// The access hit a watched area (the paper's proposed watchpoint
    /// facility); the kernel turns this into `FLTWATCH`.
    Watch,
}

/// A failed bus access.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct BusFault {
    /// The faulting virtual address.
    pub addr: u64,
    /// The attempted access mode.
    pub access: Access,
    /// Classification from the address-space view.
    pub kind: BusFaultKind,
}

/// Memory system interface supplied by the kernel.
///
/// Implementations are expected to perform copy-on-write, transparent
/// stack growth, and watchpoint screening internally, failing with a
/// [`BusFault`] only when the access cannot (or, for watchpoints, must
/// not) be transparently satisfied.
pub trait Bus {
    /// Fetches one instruction's bytes at `addr`.
    fn fetch(&mut self, addr: u64, buf: &mut [u8; INSN_LEN as usize]) -> Result<(), BusFault>;
    /// Loads `buf.len()` bytes from `addr`.
    fn load(&mut self, addr: u64, buf: &mut [u8]) -> Result<(), BusFault>;
    /// Stores `data` at `addr`.
    fn store(&mut self, addr: u64, data: &[u8]) -> Result<(), BusFault>;
    /// Lends the validated superblock trace rooted at `pc` for one
    /// dispatch, or `None` ("no block"), in which case the CPU fetches
    /// and decodes one instruction through [`Bus::fetch`]. The trace moves
    /// out of the bus's cache rather than being copied, so the CPU runs
    /// it in place while it still borrows the bus for loads and stores;
    /// the CPU hands it back through [`Bus::end_block`] at the block's
    /// exit. The default implementation never produces a block; bus
    /// implementations with a superblock cache override this.
    fn fetch_block(&mut self, _pc: u64) -> Option<Arc<[BlockSlot]>> {
        None
    }
    /// Hands back a trace lent by [`Bus::fetch_block`], with the exit
    /// reason and how many of its instructions retired.
    fn end_block(&mut self, _trace: Arc<[BlockSlot]>, _exit: BlockExit, _retired: u64) {}
}

/// Why a superblock dispatch stopped; reported through
/// [`Bus::end_block`] for the per-LWP statistics.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum BlockExit {
    /// Every instruction in the block executed.
    End,
    /// Control flow left the traced path (pc mismatch before a slot).
    Side,
    /// An instruction trapped (syscall, breakpoint, fault, ...).
    Trap,
    /// The quantum budget ran out mid-block.
    Budget,
}

/// What stopped the CPU. Variants map one-to-one onto kernel entry
/// reasons: the system-call handler, the user trap handler (machine
/// faults), or the single-step machinery.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum StepEvent {
    /// `SYSCALL` executed; the program counter is past the instruction.
    Syscall,
    /// `BPT` executed; the program counter is at the instruction.
    Breakpoint,
    /// Undecodable instruction; the program counter is at it.
    IllegalInsn,
    /// Privileged instruction from user mode; the program counter is at it.
    PrivInsn,
    /// Integer divide by zero; the program counter is at the instruction.
    DivZero,
    /// Floating-point exception; the program counter is at the instruction.
    FpErr,
    /// A data access or instruction fetch failed.
    MemFault(BusFault),
    /// One instruction completed with the trace bit set; the program
    /// counter is after it.
    TraceTrap,
}

/// Outcome of [`Cpu::run`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RunExit {
    /// The instruction budget was exhausted without a trap.
    Quantum,
    /// A trap occurred.
    Event(StepEvent),
}

/// The execution engine. Stateless apart from statistics; all machine
/// state lives in the register sets and the bus.
#[derive(Default, Debug)]
pub struct Cpu {
    /// Total instructions retired through this engine (including the
    /// instruction that raised a trace trap, excluding faulted ones).
    pub retired: u64,
}

impl Cpu {
    /// Creates an engine.
    pub fn new() -> Cpu {
        Cpu::default()
    }

    /// Executes instructions until a trap or until `budget` instructions
    /// have retired. Returns the number retired in this call and the exit
    /// condition.
    ///
    /// When the bus serves superblocks ([`Bus::fetch_block`]), whole
    /// validated traces execute in place, with the instruction semantics
    /// inlined into the block loop and no per-instruction fetch. The
    /// retirement stream is identical to the stepped path: every slot's
    /// pc is checked against the live pc before executing (a mismatch
    /// side-exits and re-dispatches), the budget is enforced per
    /// instruction, and the trapping-instruction accounting (syscalls
    /// retire, faults do not) matches [`Cpu::step`]. Single-stepping
    /// (trace bit) bypasses blocks entirely so the one-instruction trap
    /// contract holds.
    pub fn run(
        &mut self,
        g: &mut GregSet,
        f: &mut FpregSet,
        bus: &mut impl Bus,
        budget: u64,
    ) -> (u64, RunExit) {
        let mut done = 0;
        let exit = loop {
            if done >= budget {
                break RunExit::Quantum;
            }
            if g.psr & PSR_TRACE == 0 {
                if let Some(trace) = bus.fetch_block(g.pc) {
                    let mut in_block = 0u64;
                    let mut trap = None;
                    let mut end = BlockExit::End;
                    for slot in trace.iter() {
                        if done >= budget {
                            end = BlockExit::Budget;
                            break;
                        }
                        if slot.pc != g.pc {
                            // The trace predicted a branch the machine
                            // did not take.
                            end = BlockExit::Side;
                            break;
                        }
                        if let Some(ev) = Self::exec(slot.insn, slot.pc, g, f, bus) {
                            // A syscall retires; a fault does not.
                            if matches!(ev, StepEvent::Syscall) {
                                done += 1;
                                in_block += 1;
                            }
                            end = BlockExit::Trap;
                            trap = Some(ev);
                            break;
                        }
                        done += 1;
                        in_block += 1;
                    }
                    bus.end_block(trace, end, in_block);
                    match trap {
                        Some(ev) => break RunExit::Event(ev),
                        None => continue,
                    }
                }
            }
            if let Some(ev) = self.step(g, f, bus) {
                // The trapping instruction retired for Syscall and
                // TraceTrap; faults leave the PC at the instruction and
                // do not count it.
                if matches!(ev, StepEvent::Syscall | StepEvent::TraceTrap) {
                    done += 1;
                }
                break RunExit::Event(ev);
            }
            done += 1;
        };
        self.retired += done;
        (done, exit)
    }

    /// Executes a single instruction. Returns `None` if execution should
    /// continue, or the trap that ended it.
    pub fn step(
        &mut self,
        g: &mut GregSet,
        f: &mut FpregSet,
        bus: &mut impl Bus,
    ) -> Option<StepEvent> {
        let trace = g.psr & PSR_TRACE != 0;
        let pc = g.pc;
        let mut raw = [0u8; INSN_LEN as usize];
        if let Err(fault) = bus.fetch(pc, &mut raw) {
            return Some(StepEvent::MemFault(fault));
        }
        let Some(insn) = Insn::decode(&raw) else { return Some(StepEvent::IllegalInsn) };
        Self::exec(insn, pc, g, f, bus).or(trace.then_some(StepEvent::TraceTrap))
    }

    /// Executes one decoded instruction at `pc`: `None` when execution
    /// continues, else the trap it raised. Always inlined, so the block loop
    /// in [`Cpu::run`] carries its own copy of the instruction semantics
    /// rather than calling out per slot.
    #[inline(always)]
    fn exec(
        i: Insn,
        pc: u64,
        g: &mut GregSet,
        f: &mut FpregSet,
        bus: &mut impl Bus,
    ) -> Option<StepEvent> {
        use Opcode::*;
        let rd = i.rd as usize;
        let rs1 = i.rs1 as usize;
        let rs2 = i.rs2 as usize;
        let imm = i.imm as i64;
        let next = pc.wrapping_add(INSN_LEN);
        // Helper closures for the common "advance and continue" pattern.
        macro_rules! alu {
            ($v:expr) => {{
                g.set_r(rd, $v);
                g.pc = next;
                None
            }};
        }
        match i.op {
            Nop => {
                g.pc = next;
                None
            }
            Halt | Priv => Some(StepEvent::PrivInsn),
            Syscall => {
                g.pc = next;
                Some(StepEvent::Syscall)
            }
            Bpt => Some(StepEvent::Breakpoint),

            Add => alu!(g.get(rs1).wrapping_add(g.get(rs2))),
            Sub => alu!(g.get(rs1).wrapping_sub(g.get(rs2))),
            Mul => alu!(g.get(rs1).wrapping_mul(g.get(rs2))),
            Div => {
                let d = g.get(rs2) as i64;
                if d == 0 {
                    return Some(StepEvent::DivZero);
                }
                alu!((g.get(rs1) as i64).wrapping_div(d) as u64)
            }
            Rem => {
                let d = g.get(rs2) as i64;
                if d == 0 {
                    return Some(StepEvent::DivZero);
                }
                alu!((g.get(rs1) as i64).wrapping_rem(d) as u64)
            }
            And => alu!(g.get(rs1) & g.get(rs2)),
            Or => alu!(g.get(rs1) | g.get(rs2)),
            Xor => alu!(g.get(rs1) ^ g.get(rs2)),
            Shl => alu!(g.get(rs1) << (g.get(rs2) & 63)),
            Shr => alu!(g.get(rs1) >> (g.get(rs2) & 63)),
            Sar => alu!(((g.get(rs1) as i64) >> (g.get(rs2) & 63)) as u64),
            Slt => alu!(((g.get(rs1) as i64) < (g.get(rs2) as i64)) as u64),
            Sltu => alu!((g.get(rs1) < g.get(rs2)) as u64),

            Addi => alu!(g.get(rs1).wrapping_add(imm as u64)),
            Muli => alu!(g.get(rs1).wrapping_mul(imm as u64)),
            Andi => alu!(g.get(rs1) & imm as u64),
            Ori => alu!(g.get(rs1) | imm as u64),
            Xori => alu!(g.get(rs1) ^ imm as u64),
            Shli => alu!(g.get(rs1) << (imm as u64 & 63)),
            Shri => alu!(g.get(rs1) >> (imm as u64 & 63)),
            Slti => alu!(((g.get(rs1) as i64) < imm) as u64),
            Movi => alu!(imm as u64),
            Moviu => alu!((g.get(rd) & 0xFFFF_FFFF) | ((i.imm as u32 as u64) << 32)),

            Ld => {
                let addr = g.get(rs1).wrapping_add(imm as u64);
                let mut b = [0u8; 8];
                if let Err(fault) = bus.load(addr, &mut b) {
                    return Some(StepEvent::MemFault(fault));
                }
                alu!(u64::from_le_bytes(b))
            }
            Ldw => {
                let addr = g.get(rs1).wrapping_add(imm as u64);
                let mut b = [0u8; 4];
                if let Err(fault) = bus.load(addr, &mut b) {
                    return Some(StepEvent::MemFault(fault));
                }
                alu!(u32::from_le_bytes(b) as u64)
            }
            Ldb => {
                let addr = g.get(rs1).wrapping_add(imm as u64);
                let mut b = [0u8; 1];
                if let Err(fault) = bus.load(addr, &mut b) {
                    return Some(StepEvent::MemFault(fault));
                }
                alu!(b[0] as u64)
            }
            St => {
                let addr = g.get(rs1).wrapping_add(imm as u64);
                if let Err(fault) = bus.store(addr, &g.get(rd).to_le_bytes()) {
                    return Some(StepEvent::MemFault(fault));
                }
                g.pc = next;
                None
            }
            Stw => {
                let addr = g.get(rs1).wrapping_add(imm as u64);
                if let Err(fault) = bus.store(addr, &(g.get(rd) as u32).to_le_bytes()) {
                    return Some(StepEvent::MemFault(fault));
                }
                g.pc = next;
                None
            }
            Stb => {
                let addr = g.get(rs1).wrapping_add(imm as u64);
                if let Err(fault) = bus.store(addr, &[g.get(rd) as u8]) {
                    return Some(StepEvent::MemFault(fault));
                }
                g.pc = next;
                None
            }

            Jmp => {
                g.pc = pc.wrapping_add(imm as u64);
                None
            }
            Jmpr => {
                g.pc = g.get(rs1);
                None
            }
            Beq | Bne | Blt | Bge | Bltu | Bgeu => {
                let (a, b) = (g.get(rs1), g.get(rs2));
                let taken = match i.op {
                    Beq => a == b,
                    Bne => a != b,
                    Blt => (a as i64) < (b as i64),
                    Bge => (a as i64) >= (b as i64),
                    Bltu => a < b,
                    Bgeu => a >= b,
                    _ => unreachable!(),
                };
                g.pc = if taken { pc.wrapping_add(imm as u64) } else { next };
                None
            }
            Call => {
                g.set_r(REG_RA, next);
                g.pc = pc.wrapping_add(imm as u64);
                None
            }
            Callr => {
                let target = g.get(rs1);
                g.set_r(REG_RA, next);
                g.pc = target;
                None
            }

            Fadd => {
                f.f[rd] = f.f[rs1] + f.f[rs2];
                g.pc = next;
                None
            }
            Fsub => {
                f.f[rd] = f.f[rs1] - f.f[rs2];
                g.pc = next;
                None
            }
            Fmul => {
                f.f[rd] = f.f[rs1] * f.f[rs2];
                g.pc = next;
                None
            }
            Fdiv => {
                if f.f[rs2] == 0.0 {
                    f.fsr |= 1; // Sticky divide-by-zero flag.
                    return Some(StepEvent::FpErr);
                }
                f.f[rd] = f.f[rs1] / f.f[rs2];
                g.pc = next;
                None
            }
            Fld => {
                let addr = g.get(rs1).wrapping_add(imm as u64);
                let mut b = [0u8; 8];
                if let Err(fault) = bus.load(addr, &mut b) {
                    return Some(StepEvent::MemFault(fault));
                }
                f.f[rd] = f64::from_bits(u64::from_le_bytes(b));
                g.pc = next;
                None
            }
            Fst => {
                let addr = g.get(rs1).wrapping_add(imm as u64);
                if let Err(fault) = bus.store(addr, &f.f[rd].to_bits().to_le_bytes()) {
                    return Some(StepEvent::MemFault(fault));
                }
                g.pc = next;
                None
            }
            CvtIF => {
                f.f[rd] = g.get(rs1) as i64 as f64;
                g.pc = next;
                None
            }
            CvtFI => {
                g.set_r(rd, f.f[rs1] as i64 as u64);
                g.pc = next;
                None
            }
            Fmovi => {
                f.f[rd] = i.imm as f64;
                g.pc = next;
                None
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::insn::Insn;
    use crate::reg::PSR_TRACE;
    use crate::sblock::SBLOCK_CAP;
    use std::collections::HashMap;

    /// A flat test memory: every address is mapped and writable.
    #[derive(Default)]
    struct FlatMem {
        bytes: HashMap<u64, u8>,
    }

    impl FlatMem {
        fn install(&mut self, base: u64, insns: &[Insn]) {
            let mut addr = base;
            for i in insns {
                for b in i.encode() {
                    self.bytes.insert(addr, b);
                    addr += 1;
                }
            }
        }
    }

    impl Bus for FlatMem {
        fn fetch(&mut self, addr: u64, buf: &mut [u8; 8]) -> Result<(), BusFault> {
            self.load(addr, buf)
        }
        fn load(&mut self, addr: u64, buf: &mut [u8]) -> Result<(), BusFault> {
            for (i, out) in buf.iter_mut().enumerate() {
                *out = *self.bytes.get(&(addr + i as u64)).unwrap_or(&0);
            }
            // 0 bytes decode as illegal, which is what we want for holes.
            Ok(())
        }
        fn store(&mut self, addr: u64, data: &[u8]) -> Result<(), BusFault> {
            for (i, b) in data.iter().enumerate() {
                self.bytes.insert(addr + i as u64, *b);
            }
            Ok(())
        }
    }

    fn run_insns(insns: &[Insn]) -> (GregSet, FpregSet, StepEvent) {
        let mut mem = FlatMem::default();
        mem.install(0x1000, insns);
        let mut g = GregSet::at(0x1000);
        let mut f = FpregSet::default();
        let mut cpu = Cpu::new();
        let (_, exit) = cpu.run(&mut g, &mut f, &mut mem, 10_000);
        match exit {
            RunExit::Event(ev) => (g, f, ev),
            RunExit::Quantum => panic!("program did not trap"),
        }
    }

    #[test]
    fn arithmetic_and_syscall() {
        use Opcode::*;
        let (g, _, ev) = run_insns(&[
            Insn::iform(Movi, 2, 0, 20),
            Insn::iform(Movi, 3, 0, 22),
            Insn::rform(Add, 4, 2, 3),
            Insn::bare(Syscall),
        ]);
        assert_eq!(ev, StepEvent::Syscall);
        assert_eq!(g.get(4), 42);
        // PC is past the SYSCALL instruction.
        assert_eq!(g.pc, 0x1000 + 4 * 8);
    }

    #[test]
    fn breakpoint_leaves_pc_at_bpt() {
        use Opcode::*;
        let (g, _, ev) = run_insns(&[Insn::bare(Nop), Insn::bare(Bpt)]);
        assert_eq!(ev, StepEvent::Breakpoint);
        assert_eq!(g.pc, 0x1000 + 8, "PC must be left at the breakpoint address");
    }

    #[test]
    fn divide_by_zero_faults_at_insn() {
        use Opcode::*;
        let (g, _, ev) = run_insns(&[
            Insn::iform(Movi, 2, 0, 7),
            Insn::rform(Div, 3, 2, 0), // r0 == 0
        ]);
        assert_eq!(ev, StepEvent::DivZero);
        assert_eq!(g.pc, 0x1000 + 8);
    }

    #[test]
    fn privileged_instruction_faults() {
        let (_, _, ev) = run_insns(&[Insn::bare(Opcode::Halt)]);
        assert_eq!(ev, StepEvent::PrivInsn);
        let (_, _, ev) = run_insns(&[Insn::bare(Opcode::Priv)]);
        assert_eq!(ev, StepEvent::PrivInsn);
    }

    #[test]
    fn illegal_instruction_faults() {
        // Zero-filled memory does not decode.
        let (g, _, ev) = run_insns(&[Insn::bare(Opcode::Nop)]);
        assert_eq!(ev, StepEvent::IllegalInsn);
        assert_eq!(g.pc, 0x1000 + 8);
    }

    #[test]
    fn trace_bit_traps_after_one_insn() {
        use Opcode::*;
        let mut mem = FlatMem::default();
        mem.install(0x1000, &[Insn::iform(Movi, 2, 0, 5), Insn::iform(Movi, 3, 0, 6)]);
        let mut g = GregSet::at(0x1000);
        g.psr |= PSR_TRACE;
        let mut f = FpregSet::default();
        let mut cpu = Cpu::new();
        let ev = cpu.step(&mut g, &mut f, &mut mem);
        assert_eq!(ev, Some(StepEvent::TraceTrap));
        assert_eq!(g.get(2), 5, "traced instruction must have executed");
        assert_eq!(g.pc, 0x1008, "PC is after the traced instruction");
        assert_eq!(g.get(3), 0, "only one instruction may execute");
    }

    #[test]
    fn trace_bit_does_not_mask_other_traps() {
        use Opcode::*;
        let mut mem = FlatMem::default();
        mem.install(0x1000, &[Insn::bare(Bpt)]);
        let mut g = GregSet::at(0x1000);
        g.psr |= PSR_TRACE;
        let mut f = FpregSet::default();
        let ev = Cpu::new().step(&mut g, &mut f, &mut mem);
        assert_eq!(ev, Some(StepEvent::Breakpoint));
    }

    #[test]
    fn loop_with_branches() {
        use Opcode::*;
        // Sum 1..=10 then SYSCALL.
        let insns = [
            Insn::iform(Movi, 2, 0, 0),  // acc
            Insn::iform(Movi, 3, 0, 1),  // i
            Insn::iform(Movi, 4, 0, 10), // limit
            // loop:
            Insn::rform(Add, 2, 2, 3),
            Insn::iform(Addi, 3, 3, 1),
            Insn { op: Bge, rd: 0, rs1: 4, rs2: 3, imm: -16 }, // while limit >= i
            Insn::bare(Syscall),
        ];
        let (g, _, ev) = run_insns(&insns);
        assert_eq!(ev, StepEvent::Syscall);
        assert_eq!(g.get(2), 55);
    }

    #[test]
    fn call_and_return() {
        use Opcode::*;
        let insns = [
            Insn::iform(Call, 0, 0, 24), // call +24 (3 insns ahead)
            Insn::bare(Syscall),         // return target
            Insn::bare(Nop),
            // func:
            Insn::iform(Movi, 5, 0, 99),
            Insn::rform(Jmpr, 0, REG_RA, 0), // ret
        ];
        let (g, _, ev) = run_insns(&insns);
        assert_eq!(ev, StepEvent::Syscall);
        assert_eq!(g.get(5), 99);
    }

    #[test]
    fn memory_ops_roundtrip() {
        use Opcode::*;
        let insns = [
            Insn::iform(Movi, 2, 0, 0x5000), // base
            Insn::iform(Movi, 3, 0, -2),     // value
            Insn::iform(St, 3, 2, 8),        // [base+8] = r3
            Insn::iform(Ld, 4, 2, 8),        // r4 = [base+8]
            Insn::iform(Stb, 3, 2, 32),      // [base+32] = 0xFE
            Insn::iform(Ldb, 5, 2, 32),      // r5 = 0xFE (zero-extended)
            Insn::iform(Stw, 3, 2, 40),      // [base+40] = 0xFFFFFFFE
            Insn::iform(Ldw, 6, 2, 40),      // r6 = 0xFFFFFFFE
            Insn::bare(Syscall),
        ];
        let (g, _, ev) = run_insns(&insns);
        assert_eq!(ev, StepEvent::Syscall);
        assert_eq!(g.get(4) as i64, -2);
        assert_eq!(g.get(5), 0xFE);
        assert_eq!(g.get(6), 0xFFFF_FFFE);
    }

    #[test]
    fn float_ops() {
        use Opcode::*;
        let insns = [
            Insn::iform(Fmovi, 0, 0, 3), // f0 = 3.0
            Insn::iform(Fmovi, 1, 0, 4), // f1 = 4.0
            Insn::rform(Fmul, 2, 0, 1),  // f2 = 12.0
            Insn::rform(CvtFI, 7, 2, 0), // r7 = 12
            Insn::bare(Syscall),
        ];
        let (g, f, ev) = run_insns(&insns);
        assert_eq!(ev, StepEvent::Syscall);
        assert_eq!(f.f[2], 12.0);
        assert_eq!(g.get(7), 12);
    }

    #[test]
    fn float_divide_by_zero_faults() {
        use Opcode::*;
        let insns = [
            Insn::iform(Fmovi, 0, 0, 3),
            Insn::rform(Fdiv, 2, 0, 1), // f1 == 0.0
        ];
        let (_, f, ev) = run_insns(&insns);
        assert_eq!(ev, StepEvent::FpErr);
        assert_eq!(f.fsr & 1, 1, "sticky flag set");
    }

    #[test]
    fn quantum_exhaustion() {
        use Opcode::*;
        let mut mem = FlatMem::default();
        // Infinite loop: jmp .
        mem.install(0x1000, &[Insn::iform(Jmp, 0, 0, 0)]);
        let mut g = GregSet::at(0x1000);
        let mut f = FpregSet::default();
        let mut cpu = Cpu::new();
        let (n, exit) = cpu.run(&mut g, &mut f, &mut mem, 100);
        assert_eq!(exit, RunExit::Quantum);
        assert_eq!(n, 100);
        assert_eq!(cpu.retired, 100);
    }

    /// A `FlatMem` that also serves one superblock, lent at its head pc,
    /// and logs how each dispatch ended.
    struct BlockMem {
        mem: FlatMem,
        trace: Option<Arc<[BlockSlot]>>,
        exits: Vec<(BlockExit, u64)>,
    }

    impl Bus for BlockMem {
        fn fetch(&mut self, addr: u64, buf: &mut [u8; 8]) -> Result<(), BusFault> {
            self.mem.fetch(addr, buf)
        }
        fn load(&mut self, addr: u64, buf: &mut [u8]) -> Result<(), BusFault> {
            self.mem.load(addr, buf)
        }
        fn store(&mut self, addr: u64, data: &[u8]) -> Result<(), BusFault> {
            self.mem.store(addr, data)
        }
        fn fetch_block(&mut self, pc: u64) -> Option<Arc<[BlockSlot]>> {
            if self.trace.as_ref()?.first()?.pc == pc {
                self.trace.take()
            } else {
                None
            }
        }
        fn end_block(&mut self, trace: Arc<[BlockSlot]>, exit: BlockExit, retired: u64) {
            self.exits.push((exit, retired));
            self.trace = Some(trace);
        }
    }

    const BASE: u64 = 0x1000;

    /// `n` dependent ALU instructions: each one changes architectural
    /// state, so a retirement off by one shows in the registers.
    fn alu_code(n: usize) -> Vec<Insn> {
        use Opcode::*;
        (0..n as i32)
            .map(|i| match i % 3 {
                0 => Insn::iform(Addi, 2, 2, i + 1),
                1 => Insn::iform(Muli, 3, 2, 3),
                _ => Insn::rform(Xor, 2, 2, 3),
            })
            .collect()
    }

    /// The straight-line trace of `code`'s first `SBLOCK_CAP` slots, as a
    /// builder that predicts every branch falls through would make it.
    fn straight_trace(code: &[Insn]) -> Vec<BlockSlot> {
        code.iter()
            .take(SBLOCK_CAP)
            .enumerate()
            .map(|(i, &insn)| BlockSlot { pc: BASE + 8 * i as u64, insn })
            .collect()
    }

    /// Registers after `Cpu::step` ran `n` instructions of `code`.
    fn stepped(code: &[Insn], n: u64) -> GregSet {
        let mut mem = FlatMem::default();
        mem.install(BASE, code);
        let (mut g, mut f, mut cpu) = (GregSet::at(BASE), FpregSet::default(), Cpu::new());
        for i in 0..n {
            assert_eq!(cpu.step(&mut g, &mut f, &mut mem), None, "step {i}");
        }
        g
    }

    /// `Cpu::run` over `code` with `trace` served as the block at `BASE`:
    /// the registers, the retired count, the exit and each dispatch's
    /// exit.
    fn dispatched(
        code: &[Insn],
        trace: Vec<BlockSlot>,
        budget: u64,
    ) -> (GregSet, u64, RunExit, Vec<(BlockExit, u64)>) {
        let mut bus =
            BlockMem { mem: FlatMem::default(), trace: Some(trace.into()), exits: vec![] };
        bus.mem.install(BASE, code);
        let (mut g, mut f, mut cpu) = (GregSet::at(BASE), FpregSet::default(), Cpu::new());
        let (n, exit) = cpu.run(&mut g, &mut f, &mut bus, budget);
        assert_eq!(cpu.retired, n);
        (g, n, exit, bus.exits)
    }

    /// A budget that expires at any slot of a full block retires exactly
    /// the instructions `Cpu::step` would, and counts them as the block's.
    #[test]
    fn budget_expiring_at_each_slot_retires_like_step() {
        let code = alu_code(SBLOCK_CAP);
        for budget in 0..=SBLOCK_CAP as u64 {
            let (g, n, exit, exits) = dispatched(&code, straight_trace(&code), budget);
            assert_eq!((n, exit), (budget, RunExit::Quantum));
            assert_eq!(g, stepped(&code, budget), "budget {budget}");
            let want = match budget {
                0 => vec![],
                b if b == SBLOCK_CAP as u64 => vec![(BlockExit::End, b)],
                b => vec![(BlockExit::Budget, b)],
            };
            assert_eq!(exits, want, "budget {budget}");
        }
    }

    /// A branch the trace predicted wrongly side-exits at the next slot,
    /// whichever slot that is; the stepped instructions that follow
    /// leave the same registers and pc as stepping all the way.
    #[test]
    fn side_exit_at_each_slot_retires_like_step() {
        for k in 1..SBLOCK_CAP {
            // Slot k-1 always branches over slot k; the trace predicted
            // it falls through, so slot k's pc is wrong.
            let mut code = alu_code(SBLOCK_CAP + 16);
            code[k - 1] = Insn { op: Opcode::Beq, rd: 0, rs1: 0, rs2: 0, imm: 16 };
            let budget = SBLOCK_CAP as u64 + 8;
            let (g, n, exit, exits) = dispatched(&code, straight_trace(&code), budget);
            assert_eq!((n, exit), (budget, RunExit::Quantum));
            assert_eq!(g, stepped(&code, budget), "side exit at slot {k}");
            assert_eq!(exits, vec![(BlockExit::Side, k as u64)], "side exit at slot {k}");
        }
    }

    /// A trap at any slot ends the dispatch there with `Cpu::step`'s
    /// accounting: a syscall retires and leaves the pc past it, a fault
    /// does not retire and leaves the pc at it.
    #[test]
    fn trap_at_each_slot_retires_like_step() {
        use Opcode::*;
        for k in 0..SBLOCK_CAP {
            for (trap, ev, retires) in [
                (Insn::bare(Syscall), StepEvent::Syscall, 1),
                (Insn::rform(Div, 4, 2, 0), StepEvent::DivZero, 0),
            ] {
                let mut code = alu_code(SBLOCK_CAP);
                code[k] = trap;
                let (g, n, exit, exits) = dispatched(&code, straight_trace(&code), 64);
                let mut want = stepped(&code, k as u64);
                if retires == 1 {
                    want.pc += INSN_LEN;
                }
                let n_want = k as u64 + retires;
                assert_eq!((n, exit), (n_want, RunExit::Event(ev)), "{ev:?} at slot {k}");
                assert_eq!(g, want, "{ev:?} at slot {k}");
                assert_eq!(exits, vec![(BlockExit::Trap, n_want)], "{ev:?} at slot {k}");
            }
        }
    }
}

#[cfg(test)]
mod prop_tests {
    use super::*;
    use crate::insn::{Insn, Opcode};

    /// Minimal deterministic xorshift64* generator for randomized tests.
    fn xorshift(state: &mut u64) -> u64 {
        let mut x = *state;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        *state = x;
        x.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }

    /// Reference semantics for the register-form ALU group.
    fn alu_ref(op: Opcode, a: u64, b: u64) -> Option<u64> {
        use Opcode::*;
        Some(match op {
            Add => a.wrapping_add(b),
            Sub => a.wrapping_sub(b),
            Mul => a.wrapping_mul(b),
            Div => {
                if b == 0 {
                    return None;
                }
                (a as i64).wrapping_div(b as i64) as u64
            }
            Rem => {
                if b == 0 {
                    return None;
                }
                (a as i64).wrapping_rem(b as i64) as u64
            }
            And => a & b,
            Or => a | b,
            Xor => a ^ b,
            Shl => a << (b & 63),
            Shr => a >> (b & 63),
            Sar => ((a as i64) >> (b & 63)) as u64,
            Slt => ((a as i64) < (b as i64)) as u64,
            Sltu => (a < b) as u64,
            _ => unreachable!(),
        })
    }

    /// A trivially mapped bus for single-instruction execution.
    struct OnePage([u8; 4096]);
    impl Bus for OnePage {
        fn fetch(&mut self, addr: u64, buf: &mut [u8; 8]) -> Result<(), BusFault> {
            buf.copy_from_slice(&self.0[addr as usize..addr as usize + 8]);
            Ok(())
        }
        fn load(&mut self, _a: u64, _b: &mut [u8]) -> Result<(), BusFault> {
            unreachable!("ALU ops touch no memory")
        }
        fn store(&mut self, _a: u64, _d: &[u8]) -> Result<(), BusFault> {
            unreachable!("ALU ops touch no memory")
        }
    }

    /// Every register-form ALU instruction matches the reference
    /// semantics, including the zero-register rules and divide traps.
    #[test]
    fn alu_differential() {
        use Opcode::*;
        let ops = [Add, Sub, Mul, Div, Rem, And, Or, Xor, Shl, Shr, Sar, Slt, Sltu];
        let mut rng = 0xA1C0_u64;
        for case in 0..2048 {
            let op = ops[case % ops.len()];
            let a = xorshift(&mut rng);
            // Mix in small operands so divide-by-zero and equal-operand
            // paths are exercised, not just full-range values.
            let b = if case % 5 == 0 { xorshift(&mut rng) % 3 } else { xorshift(&mut rng) };
            let rd = (xorshift(&mut rng) % 8) as usize;
            let mut mem = OnePage([0; 4096]);
            mem.0[0..8].copy_from_slice(&Insn::rform(op, rd, 1, 2).encode());
            let mut g = GregSet::at(0);
            g.set_r(1, a);
            g.set_r(2, b);
            let mut f = FpregSet::default();
            let ev = Cpu::new().step(&mut g, &mut f, &mut mem);
            match alu_ref(op, a, b) {
                None => assert_eq!(ev, Some(StepEvent::DivZero)),
                Some(expect) => {
                    assert_eq!(ev, None);
                    if rd == 0 {
                        assert_eq!(g.get(0), 0, "zero register stays zero");
                    } else {
                        assert_eq!(g.get(rd), expect);
                    }
                    assert_eq!(g.pc, 8);
                }
            }
        }
    }

    /// Branch instructions take or fall through exactly per the
    /// comparison semantics.
    #[test]
    fn branch_differential() {
        use Opcode::*;
        let ops = [Beq, Bne, Blt, Bge, Bltu, Bgeu];
        let mut rng = 0xB4A7C4_u64;
        for case in 0..2048 {
            let op = ops[case % ops.len()];
            let a = xorshift(&mut rng);
            let b = if case % 4 == 0 { a } else { xorshift(&mut rng) };
            let disp = ((xorshift(&mut rng) % 1024) as i32 - 512) & !7; // keep PC sane
            let taken = match op {
                Beq => a == b,
                Bne => a != b,
                Blt => (a as i64) < (b as i64),
                Bge => (a as i64) >= (b as i64),
                Bltu => a < b,
                Bgeu => a >= b,
                _ => unreachable!(),
            };
            let mut mem = OnePage([0; 4096]);
            let pc0 = 1024u64;
            mem.0[pc0 as usize..pc0 as usize + 8]
                .copy_from_slice(&Insn { op, rd: 0, rs1: 1, rs2: 2, imm: disp }.encode());
            let mut g = GregSet::at(pc0);
            g.set_r(1, a);
            g.set_r(2, b);
            let mut f = FpregSet::default();
            let ev = Cpu::new().step(&mut g, &mut f, &mut mem);
            assert_eq!(ev, None);
            let expect = if taken { pc0.wrapping_add(disp as i64 as u64) } else { pc0 + 8 };
            assert_eq!(g.pc, expect);
        }
    }
}
