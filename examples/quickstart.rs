//! Quickstart: boot the simulated system, look at `/proc`, and trace a
//! program with `truss`.
//!
//! Run with: `cargo run --example quickstart`

use procsim::ksim::Cred;
use procsim::tools::{self, truss_command, TrussOptions, UserTable};

fn main() {
    // Boot a system with both /proc generations mounted and the demo
    // userland installed in the root file system.
    let mut sys = tools::boot_demo();

    // Controlling programs are *hosted processes*: they occupy a pid and
    // credentials inside the simulation, but their logic is Rust code.
    let root = sys.spawn_hosted("demo", Cred::superuser());
    let user = sys.spawn_hosted("user-shell", Cred::new(100, 10));

    // Start a couple of background processes so the listing is lively.
    sys.spawn_program(user, "/bin/spin", &["spin"]).expect("spawn spin");
    sys.spawn_program(user, "/bin/sleeper", &["sleeper"]).expect("spawn sleeper");
    sys.run_idle(500);

    // Figure 1: every process is a file.
    let mut users = UserTable::default();
    users.add_user(100, "raf");
    println!("$ ls -l /proc");
    print!("{}", tools::lsproc::ls_l_proc(&mut sys, root, &users).expect("ls"));

    // ps: one PIOCPSINFO per process, each line a true snapshot.
    println!("\n$ ps -ef");
    let opts = tools::ps::PsOptions { all: true, full: true };
    print!("{}", tools::ps::ps(&mut sys, root, &opts, &users).expect("ps"));

    // truss: intercept every system call of a command.
    println!("\n$ truss /bin/greeter");
    let report =
        truss_command(&mut sys, user, "/bin/greeter", &["greeter"], &TrussOptions::default())
            .expect("truss");
    println!("{}", report.text());
}
