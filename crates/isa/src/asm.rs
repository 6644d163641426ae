//! A two-pass assembler for the procsim machine.
//!
//! The simulated userland (the programs that `ps`, `truss` and the
//! debugger operate on) is written in this assembly dialect rather than as
//! hand-encoded byte arrays. The dialect is deliberately small:
//!
//! ```text
//! ; comment        # comment
//! .text                    ; switch to the text section (default)
//! .data                    ; switch to the data section
//! .word  <imm|label>       ; emit 8 bytes
//! .byte  <imm>             ; emit 1 byte
//! .asciz "string"          ; emit bytes + NUL
//! .space <n>               ; emit n zero bytes
//! .align <n>               ; pad to an n-byte boundary
//!
//! _start:                  ; entry point if present
//!     movi  a0, 42
//!     la    a1, msg        ; pseudo: address of a label
//!     li    a2, 0x12345678 ; pseudo: load a (possibly 64-bit) constant
//!     mov   a3, a0         ; pseudo: add a3, a0, zero
//!     push  a0             ; pseudo: addi sp, sp, -8; st a0, [sp]
//!     pop   a0             ; pseudo: ld a0, [sp]; addi sp, sp, 8
//!     ld    a0, [sp+16]
//!     st    a0, [a1]
//!     beq   a0, zero, done
//!     jmp   loop
//!     call  func
//!     ret                  ; pseudo: jmpr ra
//!     syscall
//! ```
//!
//! Text is placed at a configurable base (default [`DEFAULT_TEXT_BASE`]);
//! the data section follows at the next page boundary. Branch, `jmp` and
//! `call` label operands become displacements relative to the instruction.

use crate::insn::{Insn, Opcode, INSN_LEN};
use crate::reg::{parse_freg, parse_reg, REG_RA, REG_SP};
use std::collections::BTreeMap;
use std::fmt;

/// Default base virtual address of the text section of an ordinary a.out.
pub const DEFAULT_TEXT_BASE: u64 = 0x0100_0000;

/// Page granularity used when placing the data section after the text.
const SECTION_ALIGN: u64 = 4096;

/// Assembler output: raw sections plus the symbol table.
#[derive(Clone, Debug, Default)]
pub struct Assembly {
    /// Encoded text (instruction) section.
    pub text: Vec<u8>,
    /// Base virtual address of the text section.
    pub text_base: u64,
    /// Raw data section.
    pub data: Vec<u8>,
    /// Base virtual address of the data section.
    pub data_base: u64,
    /// Label name to virtual address.
    pub symbols: BTreeMap<String, u64>,
    /// Entry point: address of `_start` if defined, else `text_base`.
    pub entry: u64,
}

/// An assembly error with its 1-based source line.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct AsmError {
    /// 1-based line number in the source text.
    pub line: usize,
    /// Human-readable description.
    pub msg: String,
}

impl fmt::Display for AsmError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "line {}: {}", self.line, self.msg)
    }
}

impl std::error::Error for AsmError {}

/// Assembles `src` with the default text base. See the module docs for the
/// dialect.
pub fn assemble(src: &str) -> Result<Assembly, AsmError> {
    assemble_at(src, DEFAULT_TEXT_BASE)
}

/// Assembles `src` with an explicit text base (shared libraries are
/// assembled at their link base).
pub fn assemble_at(src: &str, text_base: u64) -> Result<Assembly, AsmError> {
    let items = parse(src)?;

    // Pass 1: size sections, then place labels.
    let mut text_len = 0u64;
    let mut data_len = 0u64;
    for item in &items {
        let len = item.kind.size(item.line)?;
        match item.section {
            Section::Text => text_len += len,
            Section::Data => data_len += len,
        }
    }
    let _ = data_len;
    let data_base = align_up(text_base + text_len, SECTION_ALIGN).max(text_base + SECTION_ALIGN);

    let mut symbols = BTreeMap::new();
    let mut tpos = text_base;
    let mut dpos = data_base;
    for item in &items {
        let pos = match item.section {
            Section::Text => &mut tpos,
            Section::Data => &mut dpos,
        };
        if let ItemKind::Label(name) = &item.kind {
            if symbols.insert(name.clone(), *pos).is_some() {
                return Err(err(item.line, format!("duplicate label `{name}`")));
            }
        }
        // `.align` padding depends on the current position, so re-derive
        // sizes here identically to the sizing pass.
        *pos += item.kind.size_at(*pos, item.line)?;
    }

    // Pass 2: encode.
    let mut asmout = Assembly { text_base, data_base, symbols, entry: 0, ..Default::default() };
    let mut tpos = text_base;
    let mut dpos = data_base;
    for item in &items {
        let (pos, out) = match item.section {
            Section::Text => (&mut tpos, &mut asmout.text),
            Section::Data => (&mut dpos, &mut asmout.data),
        };
        let here = *pos;
        *pos += item.kind.size_at(here, item.line)?;
        item.kind.emit(here, &asmout.symbols, out, item.line)?;
    }
    asmout.entry = *asmout.symbols.get("_start").unwrap_or(&text_base);
    Ok(asmout)
}

fn align_up(v: u64, a: u64) -> u64 {
    v.div_ceil(a) * a
}

fn err(line: usize, msg: impl Into<String>) -> AsmError {
    AsmError { line, msg: msg.into() }
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Section {
    Text,
    Data,
}

#[derive(Clone, Debug)]
struct Item {
    line: usize,
    section: Section,
    kind: ItemKind,
}

/// Operand for an immediate slot: literal or label reference.
#[derive(Clone, Debug)]
enum ImmRef {
    Lit(i64),
    Label(String),
}

impl ImmRef {
    /// Resolves to an absolute value.
    fn resolve(&self, symbols: &BTreeMap<String, u64>, line: usize) -> Result<i64, AsmError> {
        match self {
            ImmRef::Lit(v) => Ok(*v),
            ImmRef::Label(name) => symbols
                .get(name)
                .map(|&a| a as i64)
                .ok_or_else(|| err(line, format!("undefined label `{name}`"))),
        }
    }

    /// Resolves for a branch slot: labels become displacements from `pc`,
    /// literals are used verbatim.
    fn resolve_rel(
        &self,
        pc: u64,
        symbols: &BTreeMap<String, u64>,
        line: usize,
    ) -> Result<i64, AsmError> {
        match self {
            ImmRef::Lit(v) => Ok(*v),
            ImmRef::Label(_) => Ok(self.resolve(symbols, line)? - pc as i64),
        }
    }
}

#[derive(Clone, Debug)]
enum ItemKind {
    Label(String),
    /// One machine instruction; the `bool` marks branch-relative immediate
    /// resolution.
    Insn {
        op: Opcode,
        rd: u8,
        rs1: u8,
        rs2: u8,
        imm: ImmRef,
        rel: bool,
    },
    /// `li rd, imm` — expands to `movi` or `movi`+`moviu`.
    Li {
        rd: u8,
        value: i64,
    },
    /// `push rs`
    Push {
        rs: u8,
    },
    /// `pop rd`
    Pop {
        rd: u8,
    },
    Word(ImmRef),
    Byte(i64),
    Asciz(String),
    Space(u64),
    Align(u64),
}

impl ItemKind {
    /// Size, independent of position (errors on impossible directives).
    fn size(&self, line: usize) -> Result<u64, AsmError> {
        Ok(match self {
            ItemKind::Label(_) => 0,
            ItemKind::Insn { .. } => INSN_LEN,
            ItemKind::Li { value, .. } => {
                if li_needs_upper(*value) {
                    2 * INSN_LEN
                } else {
                    INSN_LEN
                }
            }
            ItemKind::Push { .. } | ItemKind::Pop { .. } => 2 * INSN_LEN,
            ItemKind::Word(_) => 8,
            ItemKind::Byte(_) => 1,
            ItemKind::Asciz(s) => s.len() as u64 + 1,
            ItemKind::Space(n) => *n,
            ItemKind::Align(n) => {
                if !n.is_power_of_two() {
                    return Err(err(line, ".align requires a power of two"));
                }
                // Worst case; position-dependent size handled in size_at.
                0
            }
        })
    }

    /// Size given the current position (needed for `.align`).
    fn size_at(&self, pos: u64, line: usize) -> Result<u64, AsmError> {
        match self {
            ItemKind::Align(n) => {
                if !n.is_power_of_two() {
                    return Err(err(line, ".align requires a power of two"));
                }
                Ok(align_up(pos, *n) - pos)
            }
            _ => self.size(line),
        }
    }

    fn emit(
        &self,
        here: u64,
        symbols: &BTreeMap<String, u64>,
        out: &mut Vec<u8>,
        line: usize,
    ) -> Result<(), AsmError> {
        match self {
            ItemKind::Label(_) => {}
            ItemKind::Insn { op, rd, rs1, rs2, imm, rel } => {
                let v = if *rel {
                    imm.resolve_rel(here, symbols, line)?
                } else {
                    imm.resolve(symbols, line)?
                };
                let imm32 = i32::try_from(v)
                    .map_err(|_| err(line, format!("immediate {v} does not fit in 32 bits")))?;
                out.extend_from_slice(
                    &Insn { op: *op, rd: *rd, rs1: *rs1, rs2: *rs2, imm: imm32 }.encode(),
                );
            }
            ItemKind::Li { rd, value } => {
                let lo = *value as u32 as i32;
                out.extend_from_slice(
                    &Insn { op: Opcode::Movi, rd: *rd, rs1: 0, rs2: 0, imm: lo }.encode(),
                );
                if li_needs_upper(*value) {
                    let hi = (*value as u64 >> 32) as u32 as i32;
                    out.extend_from_slice(
                        &Insn { op: Opcode::Moviu, rd: *rd, rs1: 0, rs2: 0, imm: hi }.encode(),
                    );
                }
            }
            ItemKind::Push { rs } => {
                out.extend_from_slice(&Insn::iform(Opcode::Addi, REG_SP, REG_SP, -8).encode());
                out.extend_from_slice(
                    &Insn { op: Opcode::St, rd: *rs, rs1: REG_SP as u8, rs2: 0, imm: 0 }.encode(),
                );
            }
            ItemKind::Pop { rd } => {
                out.extend_from_slice(
                    &Insn { op: Opcode::Ld, rd: *rd, rs1: REG_SP as u8, rs2: 0, imm: 0 }.encode(),
                );
                out.extend_from_slice(&Insn::iform(Opcode::Addi, REG_SP, REG_SP, 8).encode());
            }
            ItemKind::Word(imm) => {
                let v = imm.resolve(symbols, line)?;
                out.extend_from_slice(&(v as u64).to_le_bytes());
            }
            ItemKind::Byte(v) => out.push(*v as u8),
            ItemKind::Asciz(s) => {
                out.extend_from_slice(s.as_bytes());
                out.push(0);
            }
            ItemKind::Space(n) => out.extend(std::iter::repeat_n(0u8, *n as usize)),
            ItemKind::Align(n) => {
                let pad = align_up(here, *n) - here;
                out.extend(std::iter::repeat_n(0u8, pad as usize));
            }
        }
        Ok(())
    }
}

/// `li` needs a `moviu` when the sign-extended low half does not already
/// reproduce the full value.
fn li_needs_upper(v: i64) -> bool {
    (v as u32 as i32 as i64) != v
}

fn parse(src: &str) -> Result<Vec<Item>, AsmError> {
    let mut items = Vec::new();
    let mut section = Section::Text;
    for (idx, raw) in src.lines().enumerate() {
        let line = idx + 1;
        let code = strip_comment(raw);
        let mut rest = code.trim();
        // Leading labels (allow several on one line).
        while let Some(colon) = find_label(rest) {
            let (name, tail) = rest.split_at(colon);
            let name = name.trim();
            if !is_ident(name) {
                return Err(err(line, format!("bad label `{name}`")));
            }
            items.push(Item { line, section, kind: ItemKind::Label(name.to_string()) });
            rest = tail[1..].trim();
        }
        if rest.is_empty() {
            continue;
        }
        if let Some(dir) = rest.strip_prefix('.') {
            let (name, args) = split_word(dir);
            match name {
                "text" => section = Section::Text,
                "data" => section = Section::Data,
                "word" => {
                    let arg = args.trim();
                    let imm = parse_immref(arg, line)?;
                    items.push(Item { line, section, kind: ItemKind::Word(imm) });
                }
                "byte" => {
                    let v = parse_int(args.trim(), line)?;
                    items.push(Item { line, section, kind: ItemKind::Byte(v) });
                }
                "asciz" => {
                    let s = parse_string(args.trim(), line)?;
                    items.push(Item { line, section, kind: ItemKind::Asciz(s) });
                }
                "space" => {
                    let v = parse_int(args.trim(), line)?;
                    if v < 0 {
                        return Err(err(line, ".space requires a non-negative size"));
                    }
                    items.push(Item { line, section, kind: ItemKind::Space(v as u64) });
                }
                "align" => {
                    let v = parse_int(args.trim(), line)?;
                    if v <= 0 {
                        return Err(err(line, ".align requires a positive power of two"));
                    }
                    items.push(Item { line, section, kind: ItemKind::Align(v as u64) });
                }
                other => return Err(err(line, format!("unknown directive .{other}"))),
            }
            continue;
        }
        items.push(parse_insn(rest, line, section)?);
    }
    Ok(items)
}

/// Finds the colon ending a leading label, ignoring colons inside quotes
/// (none can occur before an instruction anyway) and requiring the label
/// text to be a plain identifier.
fn find_label(s: &str) -> Option<usize> {
    let colon = s.find(':')?;
    if is_ident(s[..colon].trim()) {
        Some(colon)
    } else {
        None
    }
}

fn is_ident(s: &str) -> bool {
    !s.is_empty()
        && s.chars().next().is_some_and(|c| c.is_ascii_alphabetic() || c == '_')
        && s.chars().all(|c| c.is_ascii_alphanumeric() || c == '_')
}

fn strip_comment(s: &str) -> &str {
    let mut in_str = false;
    for (i, c) in s.char_indices() {
        match c {
            '"' => in_str = !in_str,
            ';' | '#' if !in_str => return &s[..i],
            _ => {}
        }
    }
    s
}

fn split_word(s: &str) -> (&str, &str) {
    let s = s.trim();
    match s.find(char::is_whitespace) {
        Some(i) => (&s[..i], &s[i..]),
        None => (s, ""),
    }
}

fn parse_int(s: &str, line: usize) -> Result<i64, AsmError> {
    let s = s.trim();
    if let Some(ch) = s.strip_prefix('\'') {
        let mut chars = ch.chars();
        if let (Some(c), Some('\'')) = (chars.next(), chars.next()) {
            return Ok(c as i64);
        }
        return Err(err(line, format!("bad character literal {s}")));
    }
    let cleaned: String = s.chars().filter(|&c| c != '_').collect();
    let s = cleaned.as_str();
    let (neg, body) = match s.strip_prefix('-') {
        Some(rest) => (true, rest),
        None => (false, s),
    };
    let v = if let Some(hex) = body.strip_prefix("0x").or_else(|| body.strip_prefix("0X")) {
        i64::from_str_radix(hex, 16)
            .or_else(|_| u64::from_str_radix(hex, 16).map(|v| v as i64))
            .map_err(|_| err(line, format!("bad integer `{s}`")))?
    } else {
        body.parse::<i64>().map_err(|_| err(line, format!("bad integer `{s}`")))?
    };
    Ok(if neg { -v } else { v })
}

fn parse_immref(s: &str, line: usize) -> Result<ImmRef, AsmError> {
    let s = s.trim();
    if is_ident(s) && parse_reg(s).is_none() {
        Ok(ImmRef::Label(s.to_string()))
    } else {
        Ok(ImmRef::Lit(parse_int(s, line)?))
    }
}

fn parse_string(s: &str, line: usize) -> Result<String, AsmError> {
    let s = s.trim();
    let inner = s
        .strip_prefix('"')
        .and_then(|t| t.strip_suffix('"'))
        .ok_or_else(|| err(line, "expected quoted string"))?;
    // Minimal escapes.
    let mut out = String::new();
    let mut chars = inner.chars();
    while let Some(c) = chars.next() {
        if c == '\\' {
            match chars.next() {
                Some('n') => out.push('\n'),
                Some('t') => out.push('\t'),
                Some('0') => out.push('\0'),
                Some('\\') => out.push('\\'),
                Some('"') => out.push('"'),
                other => return Err(err(line, format!("bad escape \\{other:?}"))),
            }
        } else {
            out.push(c);
        }
    }
    Ok(out)
}

/// Parses a `[reg]`, `[reg+imm]` or `[reg-imm]` memory operand.
fn parse_memop(s: &str, line: usize) -> Result<(u8, i64), AsmError> {
    let inner = s
        .trim()
        .strip_prefix('[')
        .and_then(|t| t.strip_suffix(']'))
        .ok_or_else(|| err(line, format!("expected memory operand `[reg+imm]`, got `{s}`")))?
        .trim();
    let (reg_s, off) = if let Some(plus) = inner.find('+') {
        (&inner[..plus], parse_int(&inner[plus + 1..], line)?)
    } else if let Some(minus) = inner[1..].find('-') {
        let minus = minus + 1;
        (&inner[..minus], -parse_int(&inner[minus + 1..], line)?)
    } else {
        (inner, 0)
    };
    let r = parse_reg(reg_s.trim())
        .ok_or_else(|| err(line, format!("bad base register `{}`", reg_s.trim())))?;
    Ok((r as u8, off))
}

fn operands(s: &str) -> Vec<&str> {
    s.split(',').map(str::trim).filter(|t| !t.is_empty()).collect()
}

fn want_reg(s: &str, line: usize) -> Result<u8, AsmError> {
    parse_reg(s).map(|r| r as u8).ok_or_else(|| err(line, format!("expected register, got `{s}`")))
}

fn want_freg(s: &str, line: usize) -> Result<u8, AsmError> {
    parse_freg(s)
        .map(|r| r as u8)
        .ok_or_else(|| err(line, format!("expected floating register, got `{s}`")))
}

fn parse_insn(s: &str, line: usize, section: Section) -> Result<Item, AsmError> {
    use Opcode::*;
    let (mn, rest) = split_word(s);
    let ops = operands(rest);
    let mk = |op, rd, rs1, rs2, imm, rel| Item {
        line,
        section,
        kind: ItemKind::Insn { op, rd, rs1, rs2, imm, rel },
    };
    let lit0 = ImmRef::Lit(0);

    let item = match mn {
        "nop" | "halt" | "syscall" | "bpt" | "priv" => {
            let op = match mn {
                "nop" => Nop,
                "halt" => Halt,
                "syscall" => Syscall,
                "bpt" => Bpt,
                _ => Priv,
            };
            if !ops.is_empty() {
                return Err(err(line, format!("{mn} takes no operands")));
            }
            mk(op, 0, 0, 0, lit0, false)
        }
        "add" | "sub" | "mul" | "div" | "rem" | "and" | "or" | "xor" | "shl" | "shr" | "sar"
        | "slt" | "sltu" => {
            let op = match mn {
                "add" => Add,
                "sub" => Sub,
                "mul" => Mul,
                "div" => Div,
                "rem" => Rem,
                "and" => And,
                "or" => Or,
                "xor" => Xor,
                "shl" => Shl,
                "shr" => Shr,
                "sar" => Sar,
                "slt" => Slt,
                _ => Sltu,
            };
            if ops.len() != 3 {
                return Err(err(line, format!("{mn} rd, rs1, rs2")));
            }
            mk(
                op,
                want_reg(ops[0], line)?,
                want_reg(ops[1], line)?,
                want_reg(ops[2], line)?,
                lit0,
                false,
            )
        }
        "addi" | "muli" | "andi" | "ori" | "xori" | "shli" | "shri" | "slti" => {
            let op = match mn {
                "addi" => Addi,
                "muli" => Muli,
                "andi" => Andi,
                "ori" => Ori,
                "xori" => Xori,
                "shli" => Shli,
                "shri" => Shri,
                _ => Slti,
            };
            if ops.len() != 3 {
                return Err(err(line, format!("{mn} rd, rs1, imm")));
            }
            mk(
                op,
                want_reg(ops[0], line)?,
                want_reg(ops[1], line)?,
                0,
                ImmRef::Lit(parse_int(ops[2], line)?),
                false,
            )
        }
        "movi" | "la" => {
            if ops.len() != 2 {
                return Err(err(line, format!("{mn} rd, imm|label")));
            }
            mk(Movi, want_reg(ops[0], line)?, 0, 0, parse_immref(ops[1], line)?, false)
        }
        "moviu" => {
            if ops.len() != 2 {
                return Err(err(line, "moviu rd, imm".to_string()));
            }
            mk(Moviu, want_reg(ops[0], line)?, 0, 0, ImmRef::Lit(parse_int(ops[1], line)?), false)
        }
        "li" => {
            if ops.len() != 2 {
                return Err(err(line, "li rd, imm".to_string()));
            }
            Item {
                line,
                section,
                kind: ItemKind::Li { rd: want_reg(ops[0], line)?, value: parse_int(ops[1], line)? },
            }
        }
        "mov" => {
            if ops.len() != 2 {
                return Err(err(line, "mov rd, rs".to_string()));
            }
            mk(Add, want_reg(ops[0], line)?, want_reg(ops[1], line)?, 0, lit0, false)
        }
        "push" => {
            if ops.len() != 1 {
                return Err(err(line, "push rs".to_string()));
            }
            Item { line, section, kind: ItemKind::Push { rs: want_reg(ops[0], line)? } }
        }
        "pop" => {
            if ops.len() != 1 {
                return Err(err(line, "pop rd".to_string()));
            }
            Item { line, section, kind: ItemKind::Pop { rd: want_reg(ops[0], line)? } }
        }
        "ld" | "ldb" | "ldw" | "st" | "stb" | "stw" => {
            let op = match mn {
                "ld" => Ld,
                "ldb" => Ldb,
                "ldw" => Ldw,
                "st" => St,
                "stb" => Stb,
                _ => Stw,
            };
            if ops.len() != 2 {
                return Err(err(line, format!("{mn} r, [base+imm]")));
            }
            let (base, off) = parse_memop(ops[1], line)?;
            let offi = i32::try_from(off).map_err(|_| err(line, "offset too large"))?;
            mk(op, want_reg(ops[0], line)?, base, 0, ImmRef::Lit(offi as i64), false)
        }
        "fld" | "fst" => {
            let op = if mn == "fld" { Fld } else { Fst };
            if ops.len() != 2 {
                return Err(err(line, format!("{mn} f, [base+imm]")));
            }
            let (base, off) = parse_memop(ops[1], line)?;
            mk(op, want_freg(ops[0], line)?, base, 0, ImmRef::Lit(off), false)
        }
        "fadd" | "fsub" | "fmul" | "fdiv" => {
            let op = match mn {
                "fadd" => Fadd,
                "fsub" => Fsub,
                "fmul" => Fmul,
                _ => Fdiv,
            };
            if ops.len() != 3 {
                return Err(err(line, format!("{mn} fd, fs1, fs2")));
            }
            mk(
                op,
                want_freg(ops[0], line)?,
                want_freg(ops[1], line)?,
                want_freg(ops[2], line)?,
                lit0,
                false,
            )
        }
        "fmovi" => {
            if ops.len() != 2 {
                return Err(err(line, "fmovi fd, imm".to_string()));
            }
            mk(Fmovi, want_freg(ops[0], line)?, 0, 0, ImmRef::Lit(parse_int(ops[1], line)?), false)
        }
        "cvtif" => {
            if ops.len() != 2 {
                return Err(err(line, "cvtif fd, rs".to_string()));
            }
            mk(CvtIF, want_freg(ops[0], line)?, want_reg(ops[1], line)?, 0, lit0, false)
        }
        "cvtfi" => {
            if ops.len() != 2 {
                return Err(err(line, "cvtfi rd, fs".to_string()));
            }
            mk(CvtFI, want_reg(ops[0], line)?, want_freg(ops[1], line)?, 0, lit0, false)
        }
        "jmp" => {
            if ops.len() != 1 {
                return Err(err(line, "jmp label|imm".to_string()));
            }
            mk(Jmp, 0, 0, 0, parse_immref(ops[0], line)?, true)
        }
        "jmpr" => {
            if ops.len() != 1 {
                return Err(err(line, "jmpr rs".to_string()));
            }
            mk(Jmpr, 0, want_reg(ops[0], line)?, 0, lit0, false)
        }
        "call" => {
            if ops.len() != 1 {
                return Err(err(line, "call label|imm".to_string()));
            }
            mk(Call, 0, 0, 0, parse_immref(ops[0], line)?, true)
        }
        "callr" => {
            if ops.len() != 1 {
                return Err(err(line, "callr rs".to_string()));
            }
            mk(Callr, 0, want_reg(ops[0], line)?, 0, lit0, false)
        }
        "ret" => {
            if !ops.is_empty() {
                return Err(err(line, "ret takes no operands".to_string()));
            }
            mk(Jmpr, 0, REG_RA as u8, 0, lit0, false)
        }
        "beq" | "bne" | "blt" | "bge" | "bltu" | "bgeu" => {
            let op = match mn {
                "beq" => Beq,
                "bne" => Bne,
                "blt" => Blt,
                "bge" => Bge,
                "bltu" => Bltu,
                _ => Bgeu,
            };
            if ops.len() != 3 {
                return Err(err(line, format!("{mn} rs1, rs2, label|imm")));
            }
            mk(
                op,
                0,
                want_reg(ops[0], line)?,
                want_reg(ops[1], line)?,
                parse_immref(ops[2], line)?,
                true,
            )
        }
        other => return Err(err(line, format!("unknown mnemonic `{other}`"))),
    };
    Ok(item)
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;
    use crate::cpu::{Bus, BusFault, Cpu, RunExit, StepEvent};
    use crate::reg::{FpregSet, GregSet};
    use std::collections::HashMap;

    struct Flat(HashMap<u64, u8>);

    impl Flat {
        fn from_assembly(a: &Assembly) -> Flat {
            let mut m = HashMap::new();
            for (i, b) in a.text.iter().enumerate() {
                m.insert(a.text_base + i as u64, *b);
            }
            for (i, b) in a.data.iter().enumerate() {
                m.insert(a.data_base + i as u64, *b);
            }
            Flat(m)
        }
    }

    impl Bus for Flat {
        fn fetch(&mut self, addr: u64, buf: &mut [u8; 8]) -> Result<(), BusFault> {
            self.load(addr, buf)
        }
        fn load(&mut self, addr: u64, buf: &mut [u8]) -> Result<(), BusFault> {
            for (i, out) in buf.iter_mut().enumerate() {
                *out = *self.0.get(&(addr + i as u64)).unwrap_or(&0);
            }
            Ok(())
        }
        fn store(&mut self, addr: u64, data: &[u8]) -> Result<(), BusFault> {
            for (i, b) in data.iter().enumerate() {
                self.0.insert(addr + i as u64, *b);
            }
            Ok(())
        }
    }

    fn run(src: &str) -> (GregSet, StepEvent) {
        let a = assemble(src).expect("assembles");
        let mut mem = Flat::from_assembly(&a);
        let mut g = GregSet::at(a.entry);
        g.set_sp(0x0090_0000);
        let mut f = FpregSet::default();
        match Cpu::new().run(&mut g, &mut f, &mut mem, 1_000_000) {
            (_, RunExit::Event(ev)) => (g, ev),
            (_, RunExit::Quantum) => panic!("did not trap"),
        }
    }

    #[test]
    fn factorial_program() {
        let (g, ev) = run(r#"
            ; compute 6! in a0
            _start:
                movi a0, 1
                movi a1, 6
            loop:
                beq  a1, zero, done
                mul  a0, a0, a1
                addi a1, a1, -1
                jmp  loop
            done:
                syscall
        "#);
        assert_eq!(ev, StepEvent::Syscall);
        assert_eq!(g.arg(0), 720);
    }

    #[test]
    fn data_section_and_la() {
        let (g, ev) = run(r#"
            _start:
                la   a0, msg
                ldb  a1, [a0]       ; 'h'
                ldb  a2, [a0+1]     ; 'i'
                la   a3, val
                ld   a4, [a3]
                syscall
            .data
            msg: .asciz "hi"
            .align 8
            val: .word 4242
        "#);
        assert_eq!(ev, StepEvent::Syscall);
        assert_eq!(g.arg(1), 'h' as u64);
        assert_eq!(g.arg(2), 'i' as u64);
        assert_eq!(g.arg(4), 4242);
    }

    #[test]
    fn word_of_label_stores_address() {
        let a = assemble(".data\nptr: .word target\ntarget: .word 1").expect("assembles");
        let ptr = a.symbols["ptr"];
        let target = a.symbols["target"];
        let off = (ptr - a.data_base) as usize;
        let stored = u64::from_le_bytes(a.data[off..off + 8].try_into().expect("8 bytes"));
        assert_eq!(stored, target);
    }

    #[test]
    fn push_pop_li_mov() {
        let (g, ev) = run(r#"
            _start:
                li   a0, 0x1_0000_0001  ; needs moviu
                mov  a1, a0
                push a1
                movi a1, 0
                pop  a2
                syscall
        "#);
        assert_eq!(ev, StepEvent::Syscall);
        assert_eq!(g.arg(0), 0x1_0000_0001);
        assert_eq!(g.arg(2), 0x1_0000_0001);
        assert_eq!(g.sp(), 0x0090_0000, "stack is balanced");
    }

    #[test]
    fn call_ret() {
        let (g, ev) = run(r#"
            _start:
                movi a0, 5
                call double
                syscall
            double:
                add  a0, a0, a0
                ret
        "#);
        assert_eq!(ev, StepEvent::Syscall);
        assert_eq!(g.arg(0), 10);
    }

    #[test]
    fn negative_memop_offset() {
        let (g, ev) = run(r#"
            _start:
                movi a0, 77
                st   a0, [sp-8]
                ld   a1, [sp-8]
                syscall
        "#);
        assert_eq!(ev, StepEvent::Syscall);
        assert_eq!(g.arg(1), 77);
    }

    #[test]
    fn entry_defaults_to_text_base() {
        let a = assemble("nop\nsyscall").expect("assembles");
        assert_eq!(a.entry, a.text_base);
    }

    #[test]
    fn duplicate_label_rejected() {
        let e = assemble("x:\nx:\n").expect_err("duplicate");
        assert!(e.msg.contains("duplicate"), "{e}");
    }

    #[test]
    fn undefined_label_rejected() {
        let e = assemble("jmp nowhere").expect_err("undefined");
        assert!(e.msg.contains("undefined"), "{e}");
    }

    #[test]
    fn unknown_mnemonic_rejected() {
        let e = assemble("frobnicate a0").expect_err("unknown");
        assert!(e.msg.contains("unknown mnemonic"), "{e}");
    }

    #[test]
    fn comments_and_blank_lines() {
        let a = assemble("# leading\n  ; also\n nop ; trailing\n\n").expect("assembles");
        assert_eq!(a.text.len(), 8);
    }

    #[test]
    fn hex_char_and_negative_ints() {
        let (g, ev) = run("_start: movi a0, 0x10\nmovi a1, 'A'\nmovi a2, -3\nsyscall");
        assert_eq!(ev, StepEvent::Syscall);
        assert_eq!(g.arg(0), 16);
        assert_eq!(g.arg(1), 65);
        assert_eq!(g.arg(2) as i64, -3);
    }

    #[test]
    fn custom_text_base() {
        let a = assemble_at("_start: jmp _start", 0x4000_0000).expect("assembles");
        assert_eq!(a.text_base, 0x4000_0000);
        assert_eq!(a.entry, 0x4000_0000);
        assert!(a.data_base > a.text_base);
    }

    #[test]
    fn branch_numeric_offset_is_relative_verbatim() {
        // jmp 0 is a self-loop; run for a bounded quantum.
        let a = assemble("_start: jmp 0").expect("assembles");
        let mut mem = Flat::from_assembly(&a);
        let mut g = GregSet::at(a.entry);
        let mut f = FpregSet::default();
        let (n, exit) = Cpu::new().run(&mut g, &mut f, &mut mem, 10);
        assert_eq!(exit, RunExit::Quantum);
        assert_eq!(n, 10);
        assert_eq!(g.pc, a.entry);
    }
}
