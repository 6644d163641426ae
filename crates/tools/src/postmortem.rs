//! Post-mortem analysis of core dump files.
//!
//! The paper's kernel "terminates the process, possibly with a core
//! dump"; a debugger's other half is making sense of the result. This
//! module reads `/tmp/core.<pid>`, symbolises the program counter
//! against the executable's symbol table, and renders a death report.

use ksim::corefile::Core;
use ksim::{Aout, Pid, SysResult, System};
use vfs::OFlags;

/// A parsed post-mortem: the core image plus symbol resolution.
#[derive(Debug)]
pub struct PostMortem {
    /// The core image.
    pub core: Core,
    /// The faulting symbol (nearest symbol at or below the PC), if the
    /// executable was available.
    pub symbol: Option<(String, u64)>,
}

/// Reads a whole file through the hosted API.
pub fn read_file(sys: &mut System, ctl: Pid, path: &str) -> SysResult<Vec<u8>> {
    let meta = sys.stat_path(ctl, path)?;
    let fd = sys.host_open(ctl, path, OFlags::rdonly())?;
    let mut out = vec![0u8; meta.size as usize];
    let mut off = 0;
    while off < out.len() {
        let n = sys.host_read(ctl, fd, &mut out[off..])?;
        if n == 0 {
            break;
        }
        off += n;
    }
    sys.host_close(ctl, fd)?;
    out.truncate(off);
    Ok(out)
}

/// Finds the nearest symbol at or below `addr`.
pub fn nearest_symbol(aout: &Aout, addr: u64) -> Option<(String, u64)> {
    aout.symbols
        .iter()
        .filter(|(_, a)| *a <= addr)
        .max_by_key(|(_, a)| *a)
        .map(|(n, a)| (n.clone(), addr - a))
}

/// Loads `/tmp/core.<pid>` and symbolises it against the executable at
/// `exe_path` (when given).
pub fn load(sys: &mut System, ctl: Pid, pid: Pid, exe_path: Option<&str>) -> SysResult<PostMortem> {
    let image = read_file(sys, ctl, &format!("/tmp/core.{}", pid.0))?;
    let core = Core::from_bytes(&image)?;
    let symbol = match exe_path {
        Some(path) => {
            let bytes = read_file(sys, ctl, path)?;
            let aout = Aout::from_bytes(&bytes)?;
            nearest_symbol(&aout, core.gregs.pc)
        }
        None => None,
    };
    Ok(PostMortem { core, symbol })
}

impl PostMortem {
    /// Renders the death report.
    pub fn report(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "process {} died on {} at pc={:#x}",
            self.core.pid,
            ksim::signal::sig_name(self.core.sig as usize),
            self.core.gregs.pc,
        ));
        if let Some((sym, off)) = &self.symbol {
            if *off == 0 {
                out.push_str(&format!(" ({sym})"));
            } else {
                out.push_str(&format!(" ({sym}+{off:#x})"));
            }
        }
        out.push('\n');
        out.push_str(&format!(
            "sp={:#x}  stack snapshot: {} bytes from {:#x}\n",
            self.core.gregs.sp(),
            self.core.stack.len(),
            self.core.stack_base,
        ));
        out.push_str("memory map at death:\n");
        for m in &self.core.maps {
            out.push_str(&format!(
                "  {:08x} {:>6}K {:<12} {}\n",
                m.base,
                m.len / 1024,
                vm::Prot::from_bits(m.prot).to_string(),
                m.name,
            ));
        }
        out
    }

    /// Walks saved return addresses visible in the stack snapshot that
    /// land in a text mapping — a heuristic backtrace.
    pub fn backtrace_candidates(&self) -> Vec<u64> {
        let text: Vec<(u64, u64)> = self
            .core
            .maps
            .iter()
            .filter(|m| m.prot & 4 != 0)
            .map(|m| (m.base, m.base + m.len))
            .collect();
        let mut out = Vec::new();
        let mut addr = self.core.gregs.sp();
        while let Some(word) = self.core.stack_word(addr) {
            if text.iter().any(|(lo, hi)| word >= *lo && word < *hi) {
                out.push(word);
            }
            addr += 8;
        }
        out
    }
}

/// Convenience: returns an error when no core exists for `pid`.
pub fn core_exists(sys: &mut System, ctl: Pid, pid: Pid) -> bool {
    sys.stat_path(ctl, &format!("/tmp/core.{}", pid.0)).is_ok()
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;
    use ksim::Cred;

    #[test]
    fn postmortem_of_a_faulting_program() {
        let mut sys = crate::userland::boot_demo();
        let ctl = sys.spawn_hosted("pm", Cred::new(100, 10));
        // faulty divides by zero inside _start.
        let pid = sys.spawn_program(ctl, "/bin/faulty", &["faulty"]).expect("spawn");
        let (_, status) = sys.host_wait(ctl).expect("wait");
        assert!(status & 0x80 != 0, "core dumped");
        assert!(core_exists(&mut sys, ctl, pid));
        let pm = load(&mut sys, ctl, pid, Some("/bin/faulty")).expect("load");
        assert_eq!(pm.core.sig as usize, ksim::signal::SIGFPE);
        let report = pm.report();
        assert!(report.contains("SIGFPE"), "{report}");
        assert!(report.contains("_start+"), "{report}");
        assert!(report.contains("stack"), "{report}");
    }

    #[test]
    fn backtrace_sees_a_call_frame() {
        // A program that calls into a function and faults there: the
        // return address must appear among the backtrace candidates.
        let mut sys = crate::userland::boot_demo();
        let ctl = sys.spawn_hosted("pm", Cred::new(100, 10));
        let src = r#"
            _start:
                call deep
                nop
            after_call:
                jmp after_call
            deep:
                push ra
                movi a0, 1
                movi a1, 0
                div  a2, a0, a1
                ret
        "#;
        sys.install_program("/bin/deep", src);
        let pid = sys.spawn_program(ctl, "/bin/deep", &["deep"]).expect("spawn");
        sys.host_wait(ctl).expect("wait");
        let pm = load(&mut sys, ctl, pid, Some("/bin/deep")).expect("load");
        assert_eq!(pm.symbol.as_ref().map(|(s, _)| s.as_str()), Some("deep"));
        let aout = ksim::aout::build_aout(src).expect("asm");
        let ret_addr = aout.sym("_start").expect("start") + 8; // after the call
        assert!(
            pm.backtrace_candidates().contains(&ret_addr),
            "return address {ret_addr:#x} visible in {:x?}",
            pm.backtrace_candidates()
        );
    }

    #[test]
    fn missing_core_is_an_error() {
        let mut sys = crate::userland::boot_demo();
        let ctl = sys.spawn_hosted("pm", Cred::new(100, 10));
        assert!(!core_exists(&mut sys, ctl, Pid(9999)));
        assert_eq!(load(&mut sys, ctl, Pid(9999), None).err(), Some(ksim::Errno::ENOENT));
    }
}
