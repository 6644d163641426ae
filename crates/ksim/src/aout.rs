//! The simulated a.out executable format and address-space layout.
//!
//! An a.out carries text, initialized data, a bss size, an entry point, a
//! list of needed shared libraries, and a symbol table (so debuggers can
//! resolve names after finding the file via `PIOCOPENM`). "Within this
//! model a 'text' segment is nothing more than a private executable
//! mapping to the code portion of an executable file ... Shared libraries
//! are implemented by mapping the code and data of a shared library
//! executable file into the address space of a process."

use vfs::{Errno, SysResult};

/// Default text base of an ordinary a.out.
pub const TEXT_BASE: u64 = isa::asm::DEFAULT_TEXT_BASE;

/// Top of the initial stack mapping (exclusive).
pub const STACK_TOP: u64 = 0x7FFF_F000;

/// Initial stack size in bytes (grows down automatically).
pub const STACK_INIT: u64 = 4 * vm::PAGE_SIZE;

/// Lowest address automatic stack growth may reach.
pub const STACK_LIMIT: u64 = 0x7000_0000;

/// Base address of shared library slot `i` (chosen at library assembly
/// time; the loader maps each library at its link base).
pub fn lib_base(i: usize) -> u64 {
    0x4000_0000 + (i as u64) * 0x0100_0000
}

/// Region searched by `mmap` when the caller does not fix an address.
pub const MMAP_LO: u64 = 0x2000_0000;
/// Upper bound of the `mmap` search region.
pub const MMAP_HI: u64 = 0x3000_0000;

/// The magic kernel return address installed in `ra` when a signal
/// handler is entered. Fetching from it traps to the kernel, which
/// performs `sigreturn`.
pub const SIGRETURN_ADDR: u64 = 0xFFFF_F000;

/// Default bss length granted to every image (also the initial heap seed;
/// the break segment follows it).
pub const DEFAULT_BSS: u64 = 4 * vm::PAGE_SIZE;

const MAGIC: &[u8; 8] = b"PSAOUT\x01\0";

/// A parsed (or to-be-serialised) executable image.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Aout {
    /// Initial program counter.
    pub entry: u64,
    /// Base virtual address of the text.
    pub text_base: u64,
    /// Text bytes.
    pub text: Vec<u8>,
    /// Base virtual address of the data.
    pub data_base: u64,
    /// Initialized data bytes.
    pub data: Vec<u8>,
    /// Zero-fill bytes mapped after the data.
    pub bss_len: u64,
    /// Names of needed shared libraries (installed as `/lib/<name>`).
    pub libs: Vec<String>,
    /// Symbol table: name to virtual address.
    pub symbols: Vec<(String, u64)>,
}

impl Aout {
    /// Builds an image from assembler output.
    pub fn from_assembly(asm: &isa::Assembly) -> Aout {
        Aout {
            entry: asm.entry,
            text_base: asm.text_base,
            text: asm.text.clone(),
            data_base: asm.data_base,
            data: asm.data.clone(),
            bss_len: DEFAULT_BSS,
            libs: Vec::new(),
            symbols: asm.symbols.iter().map(|(k, v)| (k.clone(), *v)).collect(),
        }
    }

    /// Adds needed shared libraries.
    pub fn with_libs(mut self, libs: &[&str]) -> Aout {
        self.libs = libs.iter().map(|s| s.to_string()).collect();
        self
    }

    /// Looks up a symbol's address.
    pub fn sym(&self, name: &str) -> Option<u64> {
        self.symbols.iter().find(|(n, _)| n == name).map(|(_, a)| *a)
    }

    /// The symbol at exactly `addr`, if any.
    pub fn sym_at(&self, addr: u64) -> Option<&str> {
        self.symbols.iter().find(|(_, a)| *a == addr).map(|(n, _)| n.as_str())
    }

    /// Serialises the image to bytes (the file content stored in memfs).
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::new();
        out.extend_from_slice(MAGIC);
        let put_u64 = |out: &mut Vec<u8>, v: u64| out.extend_from_slice(&v.to_le_bytes());
        let put_str = |out: &mut Vec<u8>, s: &str| {
            put_u64(out, s.len() as u64);
            out.extend_from_slice(s.as_bytes());
        };
        put_u64(&mut out, self.entry);
        put_u64(&mut out, self.text_base);
        put_u64(&mut out, self.text.len() as u64);
        put_u64(&mut out, self.data_base);
        put_u64(&mut out, self.data.len() as u64);
        put_u64(&mut out, self.bss_len);
        put_u64(&mut out, self.libs.len() as u64);
        for l in &self.libs {
            put_str(&mut out, l);
        }
        put_u64(&mut out, self.symbols.len() as u64);
        for (name, addr) in &self.symbols {
            put_str(&mut out, name);
            put_u64(&mut out, *addr);
        }
        out.extend_from_slice(&self.text);
        out.extend_from_slice(&self.data);
        out
    }

    /// Parses an image; `ENOEXEC` on any malformation.
    pub fn from_bytes(b: &[u8]) -> SysResult<Aout> {
        let mut pos = 0usize;
        let take = |pos: &mut usize, n: usize| -> SysResult<&[u8]> {
            if *pos + n > b.len() {
                return Err(Errno::ENOEXEC);
            }
            let s = &b[*pos..*pos + n];
            *pos += n;
            Ok(s)
        };
        if take(&mut pos, 8)? != MAGIC {
            return Err(Errno::ENOEXEC);
        }
        let get_u64 =
            |pos: &mut usize| -> SysResult<u64> { Ok(crate::bytes::le_u64(take(pos, 8)?)) };
        let entry = get_u64(&mut pos)?;
        let text_base = get_u64(&mut pos)?;
        let text_len = get_u64(&mut pos)? as usize;
        let data_base = get_u64(&mut pos)?;
        let data_len = get_u64(&mut pos)? as usize;
        let bss_len = get_u64(&mut pos)?;
        if text_len > b.len() || data_len > b.len() {
            return Err(Errno::ENOEXEC);
        }
        let nlibs = get_u64(&mut pos)? as usize;
        if nlibs > 64 {
            return Err(Errno::ENOEXEC);
        }
        let mut libs = Vec::with_capacity(nlibs);
        for _ in 0..nlibs {
            let n = get_u64(&mut pos)? as usize;
            let raw = take(&mut pos, n)?;
            libs.push(String::from_utf8_lossy(raw).into_owned());
        }
        let nsyms = get_u64(&mut pos)? as usize;
        if nsyms > 1 << 20 {
            return Err(Errno::ENOEXEC);
        }
        let mut symbols = Vec::with_capacity(nsyms);
        for _ in 0..nsyms {
            let n = get_u64(&mut pos)? as usize;
            let raw = take(&mut pos, n)?.to_vec();
            let addr = get_u64(&mut pos)?;
            symbols.push((String::from_utf8_lossy(&raw).into_owned(), addr));
        }
        let text = take(&mut pos, text_len)?.to_vec();
        let data = take(&mut pos, data_len)?.to_vec();
        Ok(Aout { entry, text_base, text, data_base, data, bss_len, libs, symbols })
    }
}

/// Assembles `src` and packages it as an a.out.
pub fn build_aout(src: &str) -> Result<Aout, isa::AsmError> {
    Ok(Aout::from_assembly(&isa::assemble(src)?))
}

/// Assembles a shared library at library slot `i`.
pub fn build_lib(src: &str, slot: usize) -> Result<Aout, isa::AsmError> {
    Ok(Aout::from_assembly(&isa::asm::assemble_at(src, lib_base(slot))?))
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip() {
        let a = build_aout("_start: movi a0, 1\nsyscall\n.data\nmsg: .asciz \"hi\"")
            .expect("assembles")
            .with_libs(&["libdemo"]);
        let b = a.to_bytes();
        let back = Aout::from_bytes(&b).expect("parses");
        assert_eq!(back, a);
        assert!(back.sym("_start").is_some());
        assert!(back.sym("msg").is_some());
        assert_eq!(back.libs, vec!["libdemo"]);
    }

    #[test]
    fn bad_magic_rejected() {
        assert_eq!(Aout::from_bytes(b"garbage"), Err(Errno::ENOEXEC));
        assert_eq!(Aout::from_bytes(&[]), Err(Errno::ENOEXEC));
    }

    #[test]
    fn truncated_rejected() {
        let a = build_aout("_start: syscall").expect("assembles");
        let b = a.to_bytes();
        for cut in [9, 20, b.len() - 1] {
            assert_eq!(Aout::from_bytes(&b[..cut]), Err(Errno::ENOEXEC), "cut at {cut}");
        }
    }

    #[test]
    fn sym_lookup() {
        let a = build_aout("_start: nop\nfoo: syscall").expect("assembles");
        let foo = a.sym("foo").expect("foo");
        assert_eq!(foo, a.sym("_start").expect("_start") + 8);
        assert_eq!(a.sym_at(foo), Some("foo"));
        assert_eq!(a.sym("bar"), None);
    }

    #[test]
    fn lib_bases_are_distinct() {
        assert_ne!(lib_base(0), lib_base(1));
        assert!(lib_base(0) > TEXT_BASE);
        assert!(lib_base(8) < STACK_LIMIT);
    }
}
