//! The proposed watchpoint facility: watched areas "of any size, down to
//! a single byte"; the process stops only when a watchpoint really
//! fires, while references to unwatched data in the same page are
//! recovered transparently by the system.
//!
//! Run with: `cargo run --example watchpoints`

use procsim::ksim::{Cred, Fault};
use procsim::procfs::{PrRun, PrWatch, PRRUN_CFAULT, PRRUN_WBYPASS};
use procsim::tools::{self, ProcHandle};

fn main() {
    let mut sys = tools::boot_demo();
    let ctl = sys.spawn_hosted("watcher", Cred::new(100, 10));
    let pid = sys.spawn_program(ctl, "/bin/watched", &["watched"]).expect("spawn");

    let mut h = ProcHandle::open_rw(&mut sys, ctl, pid).expect("open /proc file");
    h.stop(&mut sys).expect("stop");
    // Find the watched cell from the symbol table (via PIOCOPENM).
    let aout = h.read_aout(&mut sys).expect("read a.out");
    let cell = aout.sym("cell").expect("cell symbol");
    println!("watching 8 bytes at {cell:#x} for writes");

    let mut flt = procsim::ksim::FltSet::empty();
    flt.add(Fault::Watch.number());
    h.set_flt_trace(&mut sys, flt).expect("trace FLTWATCH");
    h.set_watch(&mut sys, PrWatch { vaddr: cell, size: 8, flags: 2 }).expect("set watch");
    h.resume(&mut sys).expect("run");

    for i in 1..=3 {
        let st = h.wstop(&mut sys).expect("wait for stop");
        let usage = h.usage(&mut sys).expect("usage");
        println!(
            "hit {i}: stopped on {} at pc={:#x}; transparent same-page recoveries so far: {}",
            Fault::from_number(st.what as usize).map(|f| f.name()).unwrap_or("?"),
            st.reg.pc,
            usage.watch_recoveries,
        );
        // Step over the watched access (one-shot bypass) and continue.
        h.run(&mut sys, PrRun { flags: PRRUN_CFAULT | PRRUN_WBYPASS, vaddr: 0 }).expect("run");
    }

    // Remove the watchpoint: the target runs free.
    h.set_watch(&mut sys, PrWatch { vaddr: cell, size: 0, flags: 0 }).expect("remove");
    sys.run_idle(100);
    let st = h.status(&mut sys).expect("status");
    println!(
        "watch removed; target running again (stopped={})",
        st.flags & procsim::procfs::PR_STOPPED != 0
    );
}
