//! The fault layer: a seeded, replayable [`FaultPlan`] injects drops,
//! truncations, bit-flips, duplications and delays at per-mille rates,
//! plus an adversarial-client dimension ([`AdversaryRates`]): slow
//! readers, half-open sessions, frame floods, mid-frame disconnects and
//! stale-tag replays. One xorshift64* stream fixes the whole schedule,
//! so same-seed runs replay byte-identically; the network's
//! service-jitter stream steps the same generator, [`xorshift64star`].

use super::WireStats;

/// One xorshift64* step: advances `state` and returns the scrambled
/// output. `state` must be nonzero (zero is a fixed point).
pub fn xorshift64star(state: &mut u64) -> u64 {
    let mut x = *state;
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    *state = x;
    x.wrapping_mul(0x2545_F491_4F6C_DD1D)
}

/// Per-mille probabilities for each network fault class.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct FaultRates {
    /// Frame silently discarded.
    pub drop: u16,
    /// Frame cut short at a random point.
    pub truncate: u16,
    /// One random bit inverted.
    pub bitflip: u16,
    /// Frame delivered twice.
    pub duplicate: u16,
    /// Frame delivered [`LATE_TICKS`](super::net::LATE_TICKS) late.
    pub delay: u16,
}

impl FaultRates {
    /// The same per-mille rate for every fault class.
    pub fn uniform(permille: u16) -> FaultRates {
        FaultRates {
            drop: permille,
            truncate: permille,
            bitflip: permille,
            duplicate: permille,
            delay: permille,
        }
    }
}

/// Per-mille probabilities for each adversarial-client behaviour. The
/// first two are rolled once per session at creation (they pick the
/// session's persona); the rest are rolled per arriving request frame
/// or per reconnect. The blocking mount face (session 0) is exempt —
/// adversaries are clients, not the local mount.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct AdversaryRates {
    /// Session persona: drains its reply queue one byte per tick.
    pub slow_reader: u16,
    /// Session persona: stops reading entirely but keeps writing.
    pub half_open: u16,
    /// Request arrives as a burst of [`FLOOD_COPIES`](super::FLOOD_COPIES)
    /// extra copies.
    pub flood: u16,
    /// Request is cut mid-frame and the link drops, healing after
    /// [`RECONNECT_TICKS`](super::server::RECONNECT_TICKS).
    pub mid_frame: u16,
    /// On reconnect, the session's last sequenced frame is replayed
    /// with its (now stale) tag.
    pub stale_replay: u16,
}

impl AdversaryRates {
    /// The same per-mille rate for every adversarial behaviour.
    pub fn uniform(permille: u16) -> AdversaryRates {
        AdversaryRates {
            slow_reader: permille,
            half_open: permille,
            flood: permille,
            mid_frame: permille,
            stale_replay: permille,
        }
    }
}

/// A deterministic, replayable fault schedule: an xorshift64* stream
/// seeded once, consumed in a fixed order per frame. Re-running the same
/// operation sequence under the same seed reproduces every fault,
/// persona and churn event.
#[derive(Clone, Debug)]
pub struct FaultPlan {
    pub(super) state: u64,
    rates: FaultRates,
    pub(super) adv: AdversaryRates,
}

/// One frame as the network delivered it.
pub struct Delivery {
    pub bytes: Vec<u8>,
    /// Delivered [`LATE_TICKS`](super::net::LATE_TICKS) after the rest:
    /// a delay fault.
    pub late: bool,
}

impl FaultPlan {
    /// A plan from a seed and per-fault rates (zero seed is remapped:
    /// xorshift has an all-zero fixed point). Adversarial-client rates
    /// start at zero; see [`FaultPlan::with_adversary`].
    pub fn new(seed: u64, rates: FaultRates) -> FaultPlan {
        FaultPlan {
            state: if seed == 0 { 0x9E37_79B9_7F4A_7C15 } else { seed },
            rates,
            adv: AdversaryRates::default(),
        }
    }

    /// Builder: adds an adversarial-client dimension to the schedule.
    /// Zero rates roll nothing and consume no generator state, so a
    /// plan without adversaries replays exactly as before.
    pub fn with_adversary(mut self, adv: AdversaryRates) -> FaultPlan {
        self.adv = adv;
        self
    }

    /// One Bernoulli roll at `permille`; a zero rate consumes no
    /// generator state.
    pub(super) fn roll(&mut self, permille: u16) -> bool {
        permille > 0 && xorshift64star(&mut self.state) % 1000 < u64::from(permille)
    }

    /// Deterministic cut point in `0..len` for mid-frame truncation.
    /// `len` must be nonzero.
    pub(super) fn cut_point(&mut self, len: usize) -> usize {
        (xorshift64star(&mut self.state) as usize) % len
    }

    /// Applies the schedule to one outbound frame, returning what the
    /// network actually delivers (possibly nothing, possibly twice).
    pub(super) fn perturb(
        &mut self,
        frame: Vec<u8>,
        stats: &mut WireStats,
    ) -> [Option<Delivery>; 2] {
        if self.roll(self.rates.drop) {
            stats.drops += 1;
            return [None, None];
        }
        let copy = self.roll(self.rates.duplicate).then(|| {
            stats.duplicates += 1;
            frame.clone()
        });
        let first = self.damage(frame, stats);
        [Some(first), copy.map(|c| self.damage(c, stats))]
    }

    /// Rolls truncation, bit damage and delay for one delivered copy.
    fn damage(&mut self, mut bytes: Vec<u8>, stats: &mut WireStats) -> Delivery {
        if self.roll(self.rates.truncate) && !bytes.is_empty() {
            stats.truncations += 1;
            let keep = self.cut_point(bytes.len());
            bytes.truncate(keep);
        }
        if self.roll(self.rates.bitflip) && !bytes.is_empty() {
            stats.bitflips += 1;
            let bit = self.cut_point(bytes.len() * 8);
            if let Some(byte) = bytes.get_mut(bit / 8) {
                *byte ^= 1 << (bit % 8);
            }
        }
        let late = self.roll(self.rates.delay);
        if late {
            stats.delays += 1;
        }
        Delivery { bytes, late }
    }
}
