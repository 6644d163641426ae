//! Post-mortem debugging: a program dies on a fault, the kernel writes
//! `/tmp/core.<pid>`, and the analysis tool produces a symbolised death
//! report — "psig() terminates the process, possibly with a core dump."
//!
//! Run with: `cargo run --example postmortem`

use procsim::ksim::Cred;
use procsim::tools::{self, postmortem};

fn main() {
    let mut sys = tools::boot_demo();
    let ctl = sys.spawn_hosted("coroner", Cred::new(100, 10));

    // A program that calls into a helper and divides by zero there.
    let src = r#"
        _start:
            movi a0, 21
            call halve_badly
            movi rv, 1
            syscall
        halve_badly:
            push ra
            movi a1, 0
            div  a0, a0, a1      ; boom
            pop  ra
            ret
    "#;
    sys.install_program("/bin/crashy", src);
    let pid = sys.spawn_program(ctl, "/bin/crashy", &["crashy"]).expect("spawn");
    let (_, status) = sys.host_wait(ctl).expect("wait");
    println!("the program died: {:?}\n", procsim::ksim::ptrace::decode_status(status));

    let pm = postmortem::load(&mut sys, ctl, pid, Some("/bin/crashy")).expect("core");
    print!("{}", pm.report());

    println!("\nreturn addresses visible in the stack snapshot:");
    for addr in pm.backtrace_candidates() {
        println!("  {addr:#x}");
    }
}
