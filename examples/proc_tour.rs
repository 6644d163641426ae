//! A tour of both `/proc` generations on one process: the flat SVR4
//! interface (Figures 1 and 2) and the proposed hierarchical
//! restructuring, including batched control messages and per-LWP files.
//!
//! Run with: `cargo run --example proc_tour`

use procsim::ksim::Cred;
use procsim::procfs::hier::{ctl_batch, ctl_record, PCDSTOP, PCRUN, PCWSTOP};
use procsim::procfs::{PrStatus, PsInfo};
use procsim::tools::{self, pmap};
use procsim::vfs::OFlags;

fn main() {
    let mut sys = tools::boot_demo();
    let ctl = sys.spawn_hosted("tour", Cred::new(100, 10));
    // A multi-threaded target linked against a shared library would be
    // ideal; use the library client for the map and the threaded program
    // for the LWP tree.
    let libuser = sys.spawn_program(ctl, "/bin/libuser", &["libuser"]).expect("spawn");
    let threaded = sys.spawn_program(ctl, "/bin/threaded", &["threaded"]).expect("spawn");

    // Take the library client's map before it runs to completion.
    println!("== Figure 2: the memory map of /bin/libuser (PIOCMAP) ==");
    print!("{}", pmap::pmap(&mut sys, ctl, libuser).expect("pmap"));
    sys.run_idle(300);

    println!("\n== The same process through the hierarchy ==");
    let dir = format!("/proc2/{}", threaded.0);
    for e in sys.list_dir(ctl, &dir).expect("list") {
        println!("  {dir}/{}", e.name);
    }
    for e in sys.list_dir(ctl, &format!("{dir}/lwp")).expect("list lwp") {
        println!("  {dir}/lwp/{}/{{status,ctl,gregs}}", e.name);
    }

    // Read psinfo as a plain file.
    let fd = sys.host_open(ctl, &format!("{dir}/psinfo"), OFlags::rdonly()).expect("open");
    let mut buf = vec![0u8; PsInfo::WIRE_LEN];
    sys.host_read(ctl, fd, &mut buf).expect("read");
    let info = PsInfo::from_bytes(&buf).expect("decode");
    println!(
        "\npsinfo by read(2): pid={} cmd={} lwps={} size={}K",
        info.pid,
        info.fname,
        info.nlwp,
        info.size / 1024
    );

    // Batched control: direct a stop and wait for it in ONE write.
    let cfd = sys.host_open(ctl, &format!("{dir}/ctl"), OFlags::wronly()).expect("open ctl");
    let batch = ctl_batch(&[(PCDSTOP, vec![]), (PCWSTOP, vec![])]);
    sys.host_write(ctl, cfd, &batch).expect("batched stop+wait");
    let sfd = sys.host_open(ctl, &format!("{dir}/status"), OFlags::rdonly()).expect("open");
    let mut sbuf = vec![0u8; PrStatus::WIRE_LEN];
    sys.host_read(ctl, sfd, &mut sbuf).expect("read");
    let st = PrStatus::from_bytes(&sbuf).expect("decode");
    println!("one write stopped the process: why={:?}, {} LWPs", st.why, st.nlwp);

    // Per-LWP registers.
    for tid in 1..=2u32 {
        let gfd = sys
            .host_open(ctl, &format!("{dir}/lwp/{tid}/gregs"), OFlags::rdonly())
            .expect("open gregs");
        let mut gbuf = vec![0u8; procsim::isa::GregSet::WIRE_LEN];
        sys.host_read(ctl, gfd, &mut gbuf).expect("read");
        let regs = procsim::isa::GregSet::from_bytes(&gbuf).expect("decode");
        println!("LWP {tid}: pc = {:#x}", regs.pc);
    }

    // Release it.
    sys.host_write(ctl, cfd, &ctl_record(PCRUN, &[])).expect("run");
    println!("released");
}
