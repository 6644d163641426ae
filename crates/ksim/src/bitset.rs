//! Fixed-width bit sets for events of interest.
//!
//! "Events of interest are specified through the /proc interface using
//! sets of flags. Signals are specified using the POSIX signal set type,
//! sigset_t. Machine faults and system calls are specified using
//! analogous set types fltset_t and sysset_t. Like signals, faults and
//! system calls are enumerated from 1; there is no fault number 0 or
//! system call number 0. The SVR4 implementation provides for up to 128
//! signals, 128 faults and 512 system calls."

/// A set of small integers in `1..=W*64`, stored as `W` 64-bit words.
/// Member 0 does not exist; inserting it is ignored and querying it is
/// always false.
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
pub struct BitSet<const W: usize> {
    words: [u64; W],
}

impl<const W: usize> Default for BitSet<W> {
    fn default() -> Self {
        BitSet { words: [0; W] }
    }
}

impl<const W: usize> BitSet<W> {
    /// The empty set.
    pub fn empty() -> Self {
        Self::default()
    }

    /// The full set (`1..=capacity`).
    pub fn full() -> Self {
        let mut s = Self { words: [!0u64; W] };
        s.words[0] &= !1; // Member 0 does not exist.
        s
    }

    /// Number of representable members.
    pub const fn capacity() -> usize {
        W * 64
    }

    /// True if `n` is in the set.
    #[inline]
    pub fn has(&self, n: usize) -> bool {
        if n == 0 || n >= Self::capacity() {
            return false;
        }
        self.words[n / 64] & (1 << (n % 64)) != 0
    }

    /// Inserts `n`; out-of-range members are ignored.
    #[inline]
    pub fn add(&mut self, n: usize) {
        if n != 0 && n < Self::capacity() {
            self.words[n / 64] |= 1 << (n % 64);
        }
    }

    /// Removes `n`.
    #[inline]
    pub fn del(&mut self, n: usize) {
        if n != 0 && n < Self::capacity() {
            self.words[n / 64] &= !(1 << (n % 64));
        }
    }

    /// True if no members are present.
    pub fn is_empty(&self) -> bool {
        self.words.iter().all(|&w| w == 0)
    }

    /// Union in place.
    pub fn union_with(&mut self, other: &Self) {
        for (a, b) in self.words.iter_mut().zip(other.words.iter()) {
            *a |= b;
        }
    }

    /// Difference in place (removes `other`'s members).
    pub fn subtract(&mut self, other: &Self) {
        for (a, b) in self.words.iter_mut().zip(other.words.iter()) {
            *a &= !b;
        }
    }

    /// Iterates members in ascending order.
    pub fn iter(&self) -> impl Iterator<Item = usize> + '_ {
        (1..Self::capacity()).filter(move |&n| self.has(n))
    }

    /// The lowest member, if any.
    pub fn first(&self) -> Option<usize> {
        self.iter().next()
    }

    /// The lowest member also absent from `mask` and `mask2` (promotion
    /// helper: pending & !held & !ignored).
    pub fn first_not_in(&self, mask: &Self, mask2: &Self) -> Option<usize> {
        (1..Self::capacity()).find(|&n| self.has(n) && !mask.has(n) && !mask2.has(n))
    }

    /// Serialises to `W*8` little-endian bytes — the `/proc` wire image.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(W * 8);
        for w in &self.words {
            out.extend_from_slice(&w.to_le_bytes());
        }
        out
    }

    /// Byte length of the wire image.
    pub const WIRE_LEN: usize = W * 8;

    /// Deserialises from the wire image; `None` if too short. Bit 0 is
    /// cleared (member 0 does not exist).
    pub fn from_bytes(b: &[u8]) -> Option<Self> {
        if b.len() < W * 8 {
            return None;
        }
        let mut s = Self::default();
        for (i, chunk) in b.chunks_exact(8).take(W).enumerate() {
            s.words[i] = crate::bytes::le_u64(chunk);
        }
        s.words[0] &= !1;
        Some(s)
    }
}

impl<const W: usize> std::fmt::Debug for BitSet<W> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{{")?;
        let mut first = true;
        for n in self.iter() {
            if !first {
                write!(f, ",")?;
            }
            write!(f, "{n}")?;
            first = false;
        }
        write!(f, "}}")
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;

    type S2 = BitSet<2>;
    type S8 = BitSet<8>;

    #[test]
    fn basic_membership() {
        let mut s = S2::empty();
        assert!(s.is_empty());
        s.add(1);
        s.add(64);
        s.add(127);
        assert!(s.has(1) && s.has(64) && s.has(127));
        assert!(!s.has(2));
        s.del(64);
        assert!(!s.has(64));
        assert_eq!(s.iter().collect::<Vec<_>>(), vec![1, 127]);
    }

    #[test]
    fn member_zero_does_not_exist() {
        let mut s = S2::empty();
        s.add(0);
        assert!(!s.has(0));
        assert!(s.is_empty());
        assert!(!S2::full().has(0));
    }

    #[test]
    fn out_of_range_ignored() {
        let mut s = S2::empty();
        s.add(128);
        s.add(100_000);
        assert!(s.is_empty());
        assert!(!s.has(128));
    }

    #[test]
    fn full_has_all_members() {
        let s = S8::full();
        assert!(s.has(1));
        assert!(s.has(511));
        assert!(!s.has(512));
        assert_eq!(s.iter().count(), 511);
    }

    #[test]
    fn promotion_helper() {
        let mut pending = S2::empty();
        pending.add(2);
        pending.add(9);
        let mut held = S2::empty();
        held.add(2);
        let ignored = S2::empty();
        assert_eq!(pending.first_not_in(&held, &ignored), Some(9));
        held.add(9);
        assert_eq!(pending.first_not_in(&held, &ignored), None);
    }

    #[test]
    fn set_algebra() {
        let mut a = S2::empty();
        a.add(1);
        a.add(2);
        let mut b = S2::empty();
        b.add(2);
        b.add(3);
        let mut u = a;
        u.union_with(&b);
        assert_eq!(u.iter().collect::<Vec<_>>(), vec![1, 2, 3]);
        let mut d = u;
        d.subtract(&a);
        assert_eq!(d.iter().collect::<Vec<_>>(), vec![3]);
    }

    #[test]
    fn roundtrip_bytes() {
        // Deterministic xorshift64* driving random member sets.
        let mut rng = 0xB175E7_u64;
        let mut next = move || {
            rng ^= rng << 13;
            rng ^= rng >> 7;
            rng ^= rng << 17;
            rng.wrapping_mul(0x2545_F491_4F6C_DD1D)
        };
        for _ in 0..256 {
            let count = (next() % 64) as usize;
            let members: std::collections::BTreeSet<usize> =
                (0..count).map(|_| 1 + (next() as usize % 511)).collect();
            let mut s = S8::empty();
            for &m in &members {
                s.add(m);
            }
            let decoded = S8::from_bytes(&s.to_bytes()).expect("roundtrip");
            assert_eq!(decoded, s);
            assert_eq!(decoded.iter().collect::<Vec<_>>(), members.into_iter().collect::<Vec<_>>());
        }
    }
}
