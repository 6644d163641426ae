//! The network layer: a deterministic event scheduler orders request
//! arrivals, service completions, queue drains, reconnects and retry
//! timers on a virtual tick clock. No wall clock is ever read, so every
//! interleaving replays exactly from the seeds.

use super::fault::{xorshift64star, AdversaryRates, Delivery, FaultPlan};
use super::WireStats;
use std::cmp::{Ordering, Reverse};
use std::collections::BinaryHeap;

/// Ticks a frame spends crossing the wire in either direction.
pub const TRANSIT_TICKS: u64 = 1;
/// Server service-time jitter, exclusive upper bound: replies complete
/// `0..SERVICE_JITTER` ticks after service, reordering completions.
const SERVICE_JITTER: u64 = 3;
/// Extra transit ticks a delay fault adds: long past the per-attempt
/// patience window, so the retry path (and the dedup window) must
/// absorb the late arrival.
pub const LATE_TICKS: u64 = 24;

/// What the wire delivers or a timer fires.
#[derive(Clone, Debug)]
pub enum NetEvent {
    /// A request frame's bytes reach the server side of a session.
    Request { sid: u32, bytes: Vec<u8> },
    /// A reply frame's bytes reach a session's outbound queue.
    ReplyEnqueue { sid: u32, bytes: Vec<u8> },
    /// The client end of a session drains its outbound queue.
    Drain { sid: u32 },
    /// The per-op retry timer expires.
    Retry { tag: u64 },
    /// A dropped link heals.
    Reconnect { sid: u32 },
    /// The service budget rolled over; ready sessions get a new tick.
    Service,
}

/// An event on the virtual clock, ordered by its key alone:
/// `Reverse((due, id))`, so the heap pops the earliest first and the
/// monotone `id` fires equal-time events in schedule order.
#[derive(Clone, Debug)]
struct Scheduled {
    key: Reverse<(u64, u64)>,
    ev: NetEvent,
}

impl PartialEq for Scheduled {
    fn eq(&self, other: &Scheduled) -> bool {
        self.key == other.key
    }
}
impl Eq for Scheduled {}
impl PartialOrd for Scheduled {
    fn partial_cmp(&self, other: &Scheduled) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Scheduled {
    fn cmp(&self, other: &Scheduled) -> Ordering {
        self.key.cmp(&other.key)
    }
}

/// The network's state: clock, pending events, the jitter stream, the
/// fault plan (whose stream also rolls the adversarial personas) and
/// the wire's counters, which every layer adds to as its traffic
/// crosses.
#[derive(Clone, Debug)]
pub struct Net {
    /// Virtual wire clock, in ticks.
    pub clock: u64,
    /// Monotone event id: ties on the clock break deterministically.
    next_event_id: u64,
    events: BinaryHeap<Scheduled>,
    /// Seeded service-jitter stream: reorders reply completions.
    pub jitter: u64,
    pub plan: Option<FaultPlan>,
    pub stats: WireStats,
}

impl Net {
    pub fn new() -> Net {
        Net {
            clock: 0,
            next_event_id: 0,
            events: BinaryHeap::new(),
            jitter: 0x5EED_0F0F_CAFE_F00D,
            plan: None,
            stats: WireStats::default(),
        }
    }

    /// Rolls the adversarial behaviour `pick` selects (never without a
    /// plan).
    pub fn roll(&mut self, pick: fn(&AdversaryRates) -> u16) -> bool {
        self.plan.as_mut().is_some_and(|p| p.roll(pick(&p.adv)))
    }

    pub fn schedule(&mut self, delay: u64, ev: NetEvent) {
        let id = self.next_event_id;
        self.next_event_id += 1;
        self.events.push(Scheduled { key: Reverse((self.clock + delay, id)), ev });
    }

    /// Pops the next event, advancing the clock to it; `None` when the
    /// wire is idle.
    pub fn next_event(&mut self) -> Option<NetEvent> {
        let Scheduled { key: Reverse((due, _)), ev } = self.events.pop()?;
        self.clock = self.clock.max(due);
        Some(ev)
    }

    /// Ticks a reply waits after service, `0..SERVICE_JITTER`.
    pub fn service_jitter(&mut self) -> u64 {
        xorshift64star(&mut self.jitter) % SERVICE_JITTER
    }

    /// Carries one frame across: the fault plan decides what arrives
    /// (nothing, one copy or two, possibly damaged or late) and each
    /// copy becomes the event `arrive` builds, due `TRANSIT_TICKS +
    /// extra` ticks from now (plus [`LATE_TICKS`] when delayed).
    pub fn send(&mut self, frame: Vec<u8>, extra: u64, arrive: impl Fn(Vec<u8>) -> NetEvent) {
        let copies = match self.plan.as_mut() {
            Some(plan) => plan.perturb(frame, &mut self.stats),
            None => [Some(Delivery { bytes: frame, late: false }), None],
        };
        for d in copies.into_iter().flatten() {
            let delay = TRANSIT_TICKS + extra + if d.late { LATE_TICKS } else { 0 };
            self.schedule(delay, arrive(d.bytes));
        }
    }
}
