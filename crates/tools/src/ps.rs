//! `ps(1)` over `/proc`.
//!
//! "The logic of ps is to read the /proc directory, open each process
//! file in turn, issue the PIOCPSINFO request, close the file, and print
//! the result if appropriate according to the ps options. Because ps runs
//! with super-user privilege and the process files are opened read-only,
//! the opens always succeed and no interference is created for
//! controlling and controlled processes. Because all the information for
//! a process is obtained in a single operation, each line of ps output is
//! a true snapshot of the process, even though the complete listing is
//! not a true snapshot of the whole system."

use crate::names::UserTable;
use crate::proc_io::ProcHandle;
use ksim::{Pid, SysResult, System, HZ};
use procfs::PsInfo;

/// Options for [`ps`].
#[derive(Clone, Debug, Default)]
pub struct PsOptions {
    /// `-e`: every process (otherwise only those with the caller's uid).
    pub all: bool,
    /// `-f`: full listing (adds PPID and UID columns).
    pub full: bool,
}

/// Gathers `PIOCPSINFO` snapshots for all visible processes, exactly per
/// the paper's recipe. Processes whose open fails (e.g. they exited
/// between `readdir` and `open`) are skipped silently, as real `ps` does.
pub fn ps_snapshots(sys: &mut System, ctl: Pid) -> SysResult<Vec<PsInfo>> {
    let entries = sys.list_dir(ctl, "/proc")?;
    let mut out = Vec::with_capacity(entries.len());
    for e in entries {
        let Ok(pid) = e.name.parse::<u32>() else { continue };
        let Ok(mut h) = ProcHandle::open_ro(sys, ctl, Pid(pid)) else {
            continue;
        };
        if let Ok(info) = h.psinfo(sys) {
            out.push(info);
        }
        let _ = h.close(sys);
    }
    Ok(out)
}

/// Renders one `ps` invocation.
pub fn ps(sys: &mut System, ctl: Pid, opts: &PsOptions, users: &UserTable) -> SysResult<String> {
    let caller_uid = sys.kernel.proc(ctl)?.cred.ruid;
    let mut snapshots = ps_snapshots(sys, ctl)?;
    if !opts.all {
        snapshots.retain(|p| p.uid == caller_uid);
    }
    let mut out = String::new();
    if opts.full {
        out.push_str("     UID   PID  PPID S      SZ     TIME CMD\n");
    } else {
        out.push_str("   PID S      SZ     TIME CMD\n");
    }
    for p in &snapshots {
        let time = format_time(p.time);
        if opts.full {
            out.push_str(&format!(
                "{:>8} {:>5} {:>5} {} {:>7} {:>8} {}\n",
                users.name(p.uid),
                p.pid,
                p.ppid,
                p.state as char,
                p.size / 1024,
                time,
                p.psargs,
            ));
        } else {
            out.push_str(&format!(
                "{:>6} {} {:>7} {:>8} {}\n",
                p.pid,
                p.state as char,
                p.size / 1024,
                time,
                p.fname,
            ));
        }
    }
    Ok(out)
}

/// Renders CPU time as `M:SS`.
fn format_time(ticks: u64) -> String {
    let secs = ticks / HZ;
    format!("{}:{:02}", secs / 60, secs % 60)
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;
    use ksim::Cred;

    #[test]
    fn ps_lists_the_expected_mix() {
        let mut sys = crate::userland::boot_demo();
        let user_ctl = sys.spawn_hosted("userctl", Cred::new(100, 10));
        let root = sys.spawn_hosted("rootps", Cred::superuser());
        let a = sys.spawn_program(user_ctl, "/bin/spin", &["spin"]).expect("spawn");
        let b = sys.spawn_program(user_ctl, "/bin/sleeper", &["sleeper"]).expect("spawn");
        sys.run_idle(200);
        // Root sees everything in one-snapshot-per-line fashion.
        let users = UserTable::default();
        let all = ps(&mut sys, root, &PsOptions { all: true, full: true }, &users).expect("ps -ef");
        assert!(all.contains("sched"), "{all}");
        assert!(all.contains("init"), "{all}");
        assert!(all.contains("spin"), "{all}");
        assert!(all.contains("sleeper"), "{all}");
        assert!(all.contains("root"), "{all}");
        // The plain view of uid 100 shows only its own processes.
        let mine = ps(&mut sys, user_ctl, &PsOptions::default(), &users).expect("ps");
        assert!(mine.contains("spin"));
        assert!(!mine.contains("sched"));
        let _ = (a, b);
    }

    #[test]
    fn snapshots_skip_races_gracefully() {
        let mut sys = crate::userland::boot_demo();
        let root = sys.spawn_hosted("rootps", Cred::superuser());
        let list = ps_snapshots(&mut sys, root).expect("snapshots");
        assert!(list.iter().any(|p| p.fname == "init"));
    }

    #[test]
    fn time_formatting() {
        assert_eq!(format_time(0), "0:00");
        assert_eq!(format_time(61 * HZ), "1:01");
    }
}
