//! Signals: numbering, names, default dispositions and actions.
//!
//! Numbering follows SVR4. The set type provides for up to 128 signals
//! per the paper; signals 1..=27 are defined.

use crate::bitset::BitSet;

/// Signal set type (`sigset_t`), capacity 128 per the paper.
pub type SigSet = BitSet<2>;

/// Hangup.
pub const SIGHUP: usize = 1;
/// Interrupt (usually from the terminal).
pub const SIGINT: usize = 2;
/// Quit; default action dumps core.
pub const SIGQUIT: usize = 3;
/// Illegal instruction.
pub const SIGILL: usize = 4;
/// Trace/breakpoint trap.
pub const SIGTRAP: usize = 5;
/// Abort.
pub const SIGABRT: usize = 6;
/// Emulation trap.
pub const SIGEMT: usize = 7;
/// Arithmetic exception.
pub const SIGFPE: usize = 8;
/// Kill (cannot be caught, blocked or ignored).
pub const SIGKILL: usize = 9;
/// Bus error.
pub const SIGBUS: usize = 10;
/// Segmentation violation.
pub const SIGSEGV: usize = 11;
/// Bad system call.
pub const SIGSYS: usize = 12;
/// Broken pipe.
pub const SIGPIPE: usize = 13;
/// Alarm clock.
pub const SIGALRM: usize = 14;
/// Termination request.
pub const SIGTERM: usize = 15;
/// User signal 1.
pub const SIGUSR1: usize = 16;
/// User signal 2.
pub const SIGUSR2: usize = 17;
/// Child status changed; default ignored.
pub const SIGCHLD: usize = 18;
/// Power failure; default ignored.
pub const SIGPWR: usize = 19;
/// Window size change; default ignored.
pub const SIGWINCH: usize = 20;
/// Urgent socket condition; default ignored.
pub const SIGURG: usize = 21;
/// Pollable event.
pub const SIGPOLL: usize = 22;
/// Stop (job control; cannot be caught, blocked or ignored).
pub const SIGSTOP: usize = 23;
/// Terminal stop (job control).
pub const SIGTSTP: usize = 24;
/// Continue stopped process.
pub const SIGCONT: usize = 25;
/// Background read from control terminal (job control stop).
pub const SIGTTIN: usize = 26;
/// Background write to control terminal (job control stop).
pub const SIGTTOU: usize = 27;

/// Highest defined signal number.
pub const NSIG_DEFINED: usize = 27;

/// What the system does with an undisposed signal.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum DefaultDispo {
    /// Terminate the process.
    Terminate,
    /// Terminate with a core dump.
    Core,
    /// Job-control stop (handled inside `issig()`, the paper notes).
    Stop,
    /// Continue if stopped; otherwise ignore.
    Continue,
    /// Discard.
    Ignore,
}

/// The default disposition of `sig`.
pub fn default_dispo(sig: usize) -> DefaultDispo {
    use DefaultDispo::*;
    match sig {
        SIGQUIT | SIGILL | SIGTRAP | SIGABRT | SIGEMT | SIGFPE | SIGBUS | SIGSEGV | SIGSYS => Core,
        SIGCHLD | SIGPWR | SIGWINCH | SIGURG => Ignore,
        SIGSTOP | SIGTSTP | SIGTTIN | SIGTTOU => Stop,
        SIGCONT => Continue,
        _ => Terminate,
    }
}

/// True for the job-control stop signals.
pub fn is_stop_signal(sig: usize) -> bool {
    matches!(sig, SIGSTOP | SIGTSTP | SIGTTIN | SIGTTOU)
}

/// Symbolic name of `sig` (e.g. `SIGINT`), or `SIG<n>` for undefined
/// numbers.
pub fn sig_name(sig: usize) -> String {
    let known = [
        "", "SIGHUP", "SIGINT", "SIGQUIT", "SIGILL", "SIGTRAP", "SIGABRT", "SIGEMT", "SIGFPE",
        "SIGKILL", "SIGBUS", "SIGSEGV", "SIGSYS", "SIGPIPE", "SIGALRM", "SIGTERM", "SIGUSR1",
        "SIGUSR2", "SIGCHLD", "SIGPWR", "SIGWINCH", "SIGURG", "SIGPOLL", "SIGSTOP", "SIGTSTP",
        "SIGCONT", "SIGTTIN", "SIGTTOU",
    ];
    match known.get(sig) {
        Some(&n) if !n.is_empty() => n.to_string(),
        _ => format!("SIG{sig}"),
    }
}

/// How a signal is disposed by the process.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum Handler {
    /// `SIG_DFL`.
    #[default]
    Default,
    /// `SIG_IGN`.
    Ignore,
    /// Catch at this user-code address.
    Catch(u64),
}

/// A signal action (`sigaction`): the handler plus the mask to hold while
/// it runs.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SigAction {
    /// Disposition.
    pub handler: Handler,
    /// Signals additionally held during the handler.
    pub mask: SigSet,
}

/// Per-process signal action table, indexed by signal number.
#[derive(Clone, Debug)]
pub struct ActionTable {
    actions: Vec<SigAction>,
}

impl Default for ActionTable {
    fn default() -> Self {
        ActionTable { actions: vec![SigAction::default(); SigSet::capacity()] }
    }
}

impl ActionTable {
    /// All-default actions.
    pub fn new() -> ActionTable {
        ActionTable::default()
    }

    /// The action for `sig`.
    pub fn get(&self, sig: usize) -> SigAction {
        self.actions.get(sig).copied().unwrap_or_default()
    }

    /// Installs an action. SIGKILL and SIGSTOP cannot be caught or
    /// ignored; attempts are reported as `false` and ignored.
    pub fn set(&mut self, sig: usize, act: SigAction) -> bool {
        if sig == 0 || sig >= SigSet::capacity() {
            return false;
        }
        if (sig == SIGKILL || sig == SIGSTOP) && act.handler != Handler::Default {
            return false;
        }
        self.actions[sig] = act;
        true
    }

    /// True if `sig` is currently ignored (explicitly, or by default
    /// disposition when the handler is `Default`).
    pub fn is_ignored(&self, sig: usize) -> bool {
        match self.get(sig).handler {
            Handler::Ignore => true,
            Handler::Default => default_dispo(sig) == DefaultDispo::Ignore,
            Handler::Catch(_) => false,
        }
    }

    /// The set of signals currently ignored — used by signal promotion.
    pub fn ignored_set(&self) -> SigSet {
        let mut s = SigSet::empty();
        for sig in 1..SigSet::capacity() {
            // Job-control stop signals are never "ignored" for promotion
            // purposes when their action is Default: issig must see them
            // to perform the job-control stop.
            if self.is_ignored(sig) {
                s.add(sig);
            }
        }
        s
    }

    /// Resets caught signals to default (performed by `exec`).
    pub fn reset_caught(&mut self) {
        for act in &mut self.actions {
            if matches!(act.handler, Handler::Catch(_)) {
                *act = SigAction::default();
            }
        }
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;

    #[test]
    fn dispositions() {
        assert_eq!(default_dispo(SIGTERM), DefaultDispo::Terminate);
        assert_eq!(default_dispo(SIGSEGV), DefaultDispo::Core);
        assert_eq!(default_dispo(SIGTSTP), DefaultDispo::Stop);
        assert_eq!(default_dispo(SIGCHLD), DefaultDispo::Ignore);
        assert_eq!(default_dispo(SIGCONT), DefaultDispo::Continue);
        assert!(is_stop_signal(SIGSTOP));
        assert!(!is_stop_signal(SIGCONT));
    }

    #[test]
    fn names() {
        assert_eq!(sig_name(SIGINT), "SIGINT");
        assert_eq!(sig_name(SIGTTOU), "SIGTTOU");
        assert_eq!(sig_name(99), "SIG99");
    }

    #[test]
    fn kill_and_stop_uncatchable() {
        let mut t = ActionTable::new();
        assert!(!t.set(SIGKILL, SigAction { handler: Handler::Ignore, mask: SigSet::empty() }));
        assert!(
            !t.set(SIGSTOP, SigAction { handler: Handler::Catch(0x1000), mask: SigSet::empty() })
        );
        assert!(t.set(SIGINT, SigAction { handler: Handler::Catch(0x1000), mask: SigSet::empty() }));
        assert_eq!(t.get(SIGKILL).handler, Handler::Default);
    }

    #[test]
    fn ignored_set_reflects_defaults_and_actions() {
        let mut t = ActionTable::new();
        assert!(t.is_ignored(SIGCHLD), "default-ignored");
        assert!(!t.is_ignored(SIGINT));
        t.set(SIGINT, SigAction { handler: Handler::Ignore, mask: SigSet::empty() });
        assert!(t.is_ignored(SIGINT));
        t.set(SIGCHLD, SigAction { handler: Handler::Catch(0x1000), mask: SigSet::empty() });
        assert!(!t.is_ignored(SIGCHLD));
        let s = t.ignored_set();
        assert!(s.has(SIGWINCH));
        assert!(s.has(SIGINT));
        assert!(!s.has(SIGCHLD));
        // Stop signals are not in the ignored set: issig must see them.
        assert!(!s.has(SIGTSTP));
    }

    #[test]
    fn exec_resets_caught_only() {
        let mut t = ActionTable::new();
        t.set(SIGINT, SigAction { handler: Handler::Catch(0x1000), mask: SigSet::empty() });
        t.set(SIGQUIT, SigAction { handler: Handler::Ignore, mask: SigSet::empty() });
        t.reset_caught();
        assert_eq!(t.get(SIGINT).handler, Handler::Default);
        assert_eq!(t.get(SIGQUIT).handler, Handler::Ignore, "ignored survives exec");
    }
}
