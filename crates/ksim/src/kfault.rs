//! The kernel fault-injection plane.
//!
//! PR 2 taught the *wire* to fail (`vfs::remote::FaultPlan`); this module
//! teaches the *kernel* to fail. A [`KernelFaultPlan`] is installed on the
//! [`crate::Kernel`] (via [`crate::System::install_fault_plan`]) and rolls
//! a seeded xorshift64* generator at a fixed set of chokepoints:
//!
//! * `EAGAIN` at `fork`/`spawn_program` entry — the process table is
//!   "full" for one attempt;
//! * `EINTR` on blocking /proc waits — the first time `PIOCWSTOP` (flat
//!   ioctl or hier `PCWSTOP` batch) or a host-level read/write would
//!   block, the sleep is interrupted instead;
//! * spurious wakeups on `host_poll_in` — the poll returns with nothing
//!   ready, as a signal-interrupted `poll(2)` restarted by a library
//!   would;
//! * asynchronous target death — before any host-level controller
//!   operation, some live simulated process may be killed (`SIGKILL`) or
//!   made to exit, modelling a target vanishing *between* two controller
//!   operations;
//! * `ENOMEM` at vm allocation sites — these rolls live in
//!   [`vm::MemPressure`], attached to the object store by
//!   `install_fault_plan` with a seed derived from the plan's, and fire
//!   on copy-on-write frame materialisation, `grow_break`, `as_fault`
//!   stack growth and exec image construction.
//!
//! Determinism contract: with no plan installed the kernel consumes no
//! generator state and behaves byte-for-byte as before; with a plan whose
//! rates are all zero every roll short-circuits before touching the
//! generator, so a zero-rate plan is *also* byte-for-byte identical to a
//! clean run. A given `(seed, rates)` pair replays the exact same fault
//! schedule, which is what lets `tests/kernel_fault.rs` pin 32 seeds.
//!
//! Observability: every injection bumps a [`KFaultStats`] counter; the
//! flat face answers `PIOCKFAULTSTATS` with the marshalled counters
//! (vm pressure denials merged in), and the reply crosses the remote
//! wire like any other ioctl.

/// Per-site injection rates, in permille (0 = never, 1000 = always).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct KernelFaultRates {
    /// `ENOMEM` rate for vm allocation sites (applied to the object
    /// store's [`vm::MemPressure`] by `install_fault_plan`).
    pub enomem: u16,
    /// `EAGAIN` rate at `fork`/`spawn` entry.
    pub eagain: u16,
    /// `EINTR` rate on blocking /proc waits.
    pub eintr: u16,
    /// Spurious-wakeup rate on `host_poll_in`.
    pub wakeup: u16,
    /// Asynchronous target-death rate per host-level controller op.
    pub death: u16,
    /// Target-death rate *inside* a single blocking host op's pump loop
    /// (rolled once per scheduler step while e.g. a `PIOCWSTOP` sleeps),
    /// so a target can vanish between two scheduler steps of one op.
    /// Deliberately excluded from [`KernelFaultRates::uniform`]: a
    /// per-step rate compounds over hundreds of steps, so uniform sweeps
    /// would be dominated by mid-op deaths. Opt in per plan.
    pub mid_op: u16,
    /// *Controller*-death rate, rolled once per scheduler step (one
    /// gang round) inside `System::step`: a hosted controlling program
    /// itself can vanish between two scheduler steps, exercising
    /// run-on-last-close release and stopped-target cleanup. Per-step
    /// like `mid_op`, and excluded from [`KernelFaultRates::uniform`]
    /// for the same compounding reason.
    pub controller_death: u16,
}

impl KernelFaultRates {
    /// The same rate at every *per-op* site. `mid_op` stays zero: it is
    /// rolled per scheduler step and would swamp a uniform sweep.
    pub fn uniform(permille: u16) -> KernelFaultRates {
        KernelFaultRates {
            enomem: permille,
            eagain: permille,
            eintr: permille,
            wakeup: permille,
            death: permille,
            mid_op: 0,
            controller_death: 0,
        }
    }
}

vfs::counters! {
    /// Injection counters, marshalled little-endian for `PIOCKFAULTSTATS`.
    pub struct KFaultStats {
        /// vm allocations denied (`ENOMEM`); merged from the object store's
        /// pressure source at reply time.
        enomem_vm,
        /// `fork` attempts failed with `EAGAIN`.
        eagain_fork,
        /// `spawn_program` attempts failed with `EAGAIN`.
        eagain_spawn,
        /// Blocking /proc waits interrupted with `EINTR`.
        eintr_wait,
        /// `host_poll_in` calls returned spuriously with nothing ready.
        spurious_wakeups,
        /// Targets killed or exited asynchronously.
        deaths,
        /// Targets killed or exited *mid-op*, between two scheduler steps of
        /// a single blocking host operation.
        deaths_mid_op,
        /// Hosted *controllers* killed inside `System::step` (the
        /// `controller_death` per-step site).
        controller_deaths,
    }
}

/// A seeded, deterministic kernel fault schedule (sibling of the wire
/// `FaultPlan`). One generator drives every site, so the interleaving of
/// faults across sites is itself part of the replayable schedule.
#[derive(Clone, Debug)]
pub struct KernelFaultPlan {
    state: u64,
    /// The per-site rates this plan was built with.
    pub rates: KernelFaultRates,
    /// Counters for `PIOCKFAULTSTATS`.
    pub stats: KFaultStats,
    /// Targeted-death mode: death injection only considers processes a
    /// controller currently holds a writable `/proc` descriptor on
    /// (`trace.writers > 0`), concentrating the schedule on controller
    /// races instead of bystanders. When no such process exists the roll
    /// is spent but nobody dies — exactly as when the victim list is
    /// empty in untargeted mode.
    pub targeted_death: bool,
}

impl KernelFaultPlan {
    /// Creates a plan; a zero seed is remapped so xorshift never sticks.
    /// Death injection starts untargeted; see
    /// [`KernelFaultPlan::with_targeted_death`].
    pub fn new(seed: u64, rates: KernelFaultRates) -> KernelFaultPlan {
        let state = if seed == 0 { 0x9E37_79B9_7F4A_7C15 } else { seed };
        KernelFaultPlan { state, rates, stats: KFaultStats::default(), targeted_death: false }
    }

    /// Builder: restricts death injection to controller-held targets.
    pub fn with_targeted_death(mut self, on: bool) -> KernelFaultPlan {
        self.targeted_death = on;
        self
    }

    fn next(&mut self) -> u64 {
        let mut x = self.state;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.state = x;
        x.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }

    /// Rolls at `permille`; a zero rate consumes no generator state.
    fn roll(&mut self, permille: u16) -> bool {
        permille > 0 && self.next() % 1000 < u64::from(permille)
    }

    /// Should this `fork` fail with `EAGAIN`?
    pub fn roll_eagain_fork(&mut self) -> bool {
        let hit = self.roll(self.rates.eagain);
        if hit {
            self.stats.eagain_fork += 1;
        }
        hit
    }

    /// Should this `spawn_program` fail with `EAGAIN`?
    pub fn roll_eagain_spawn(&mut self) -> bool {
        let hit = self.roll(self.rates.eagain);
        if hit {
            self.stats.eagain_spawn += 1;
        }
        hit
    }

    /// Should this blocking wait be interrupted with `EINTR`?
    pub fn roll_eintr(&mut self) -> bool {
        let hit = self.roll(self.rates.eintr);
        if hit {
            self.stats.eintr_wait += 1;
        }
        hit
    }

    /// Should this poll return spuriously with nothing ready?
    pub fn roll_spurious_wakeup(&mut self) -> bool {
        let hit = self.roll(self.rates.wakeup);
        if hit {
            self.stats.spurious_wakeups += 1;
        }
        hit
    }

    /// Should a target die before this controller operation? (The caller
    /// picks the victim and bumps [`KFaultStats::deaths`] once it has.)
    pub fn roll_death(&mut self) -> bool {
        self.roll(self.rates.death)
    }

    /// Should a target die *between two scheduler steps* of the blocking
    /// host op currently pumping? Rolled once per step while an op
    /// sleeps. (The caller picks the victim and bumps
    /// [`KFaultStats::deaths_mid_op`] once it has.)
    pub fn roll_death_mid_op(&mut self) -> bool {
        self.roll(self.rates.mid_op)
    }

    /// Should a hosted *controller* die at this scheduler step? Rolled
    /// once per `System::step`, before the round selects. (The caller picks the
    /// victim and bumps [`KFaultStats::controller_deaths`] once it has.)
    pub fn roll_controller_death(&mut self) -> bool {
        self.roll(self.rates.controller_death)
    }

    /// Uniform pick in `0..n` for victim selection. `n` must be nonzero.
    pub fn pick(&mut self, n: u64) -> u64 {
        self.next() % n
    }

    /// One deterministic bit: hard kill (`SIGKILL`) vs. quiet exit.
    pub fn next_bit(&mut self) -> bool {
        self.next() & 1 == 1
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_schedule() {
        let mut a = KernelFaultPlan::new(42, KernelFaultRates::uniform(500));
        let mut b = KernelFaultPlan::new(42, KernelFaultRates::uniform(500));
        for _ in 0..200 {
            assert_eq!(a.roll_eintr(), b.roll_eintr());
            assert_eq!(a.roll_death(), b.roll_death());
        }
        assert_eq!(a.stats, b.stats);
    }

    #[test]
    fn zero_rate_consumes_no_state() {
        let mut plan = KernelFaultPlan::new(7, KernelFaultRates::default());
        let before = plan.state;
        assert!(!plan.roll_eagain_fork());
        assert!(!plan.roll_eintr());
        assert!(!plan.roll_spurious_wakeup());
        assert!(!plan.roll_death());
        assert!(!plan.roll_death_mid_op());
        assert!(!plan.roll_controller_death());
        assert_eq!(plan.state, before, "zero rates must short-circuit");
        assert_eq!(plan.stats, KFaultStats::default());
    }

    #[test]
    fn targeted_death_flag_defaults_off_and_builds_on() {
        let plan = KernelFaultPlan::new(1, KernelFaultRates::uniform(10));
        assert!(!plan.targeted_death);
        let before = plan.state;
        let plan = plan.with_targeted_death(true);
        assert!(plan.targeted_death);
        assert_eq!(plan.state, before, "targeting never touches the generator");
    }

    #[test]
    fn mid_op_rate_is_opt_in() {
        assert_eq!(
            KernelFaultRates::uniform(300).mid_op,
            0,
            "uniform sweeps exclude the per-step site"
        );
        let rates = KernelFaultRates { mid_op: 1000, ..Default::default() };
        let mut plan = KernelFaultPlan::new(3, rates);
        assert!(plan.roll_death_mid_op(), "rate 1000 always fires");
    }

    #[test]
    fn zero_seed_is_remapped() {
        let mut plan = KernelFaultPlan::new(0, KernelFaultRates::uniform(1000));
        assert!(plan.roll_eintr(), "rate 1000 always fires");
        assert_ne!(plan.state, 0);
    }

    #[test]
    fn stats_round_trip() {
        let st = KFaultStats {
            enomem_vm: 1,
            eagain_fork: 2,
            eagain_spawn: 3,
            eintr_wait: 4,
            spurious_wakeups: 5,
            deaths: 6,
            deaths_mid_op: 7,
            controller_deaths: 8,
        };
        let bytes = st.to_bytes();
        assert_eq!(bytes.len(), KFaultStats::WIRE_LEN);
        assert_eq!(KFaultStats::from_bytes(&bytes), Some(st));
        assert_eq!(KFaultStats::from_bytes(&bytes[1..]), None);
    }
}
