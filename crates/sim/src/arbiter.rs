//! Round-robin arbitration.

/// A work-conserving round-robin arbiter over a fixed set of requesters.
///
/// Each memory bank in the interleaved crossbar (Fig. 2a of the paper) grants
/// at most one request per cycle; ties between simultaneously requesting
/// channels are broken fairly with a rotating priority pointer so that no
/// channel can be starved.
///
/// # Examples
///
/// ```
/// use dm_sim::RoundRobinArbiter;
///
/// let mut arb = RoundRobinArbiter::new(4);
/// // Requesters 1 and 3 are asking; requester 1 wins first …
/// assert_eq!(arb.grant(&[false, true, false, true]), Some(1));
/// // … and the pointer moves past it, so requester 3 wins next.
/// assert_eq!(arb.grant(&[false, true, false, true]), Some(3));
/// assert_eq!(arb.grant(&[false, true, false, true]), Some(1));
/// assert_eq!(arb.grant(&[false, false, false, false]), None);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RoundRobinArbiter {
    ports: usize,
    next: usize,
}

impl RoundRobinArbiter {
    /// Creates an arbiter for `ports` requesters.
    ///
    /// # Panics
    ///
    /// Panics if `ports` is zero.
    #[must_use]
    pub fn new(ports: usize) -> Self {
        assert!(ports > 0, "arbiter needs at least one port");
        RoundRobinArbiter { ports, next: 0 }
    }

    /// Number of requester ports.
    #[inline]
    #[must_use]
    pub fn ports(&self) -> usize {
        self.ports
    }

    /// Grants one of the asserted requests, if any, and advances the
    /// priority pointer past the winner.
    ///
    /// # Panics
    ///
    /// Panics if `requests.len()` differs from the configured port count.
    pub fn grant(&mut self, requests: &[bool]) -> Option<usize> {
        assert_eq!(requests.len(), self.ports, "request vector width mismatch");
        for offset in 0..self.ports {
            let idx = (self.next + offset) % self.ports;
            if requests[idx] {
                self.next = (idx + 1) % self.ports;
                return Some(idx);
            }
        }
        None
    }

    /// Grants the port of `mask` (bit `p % 64` of word `p / 64` stands for
    /// port `p`) that [`grant`](Self::grant) would pick from the same
    /// requests, and advances the priority pointer past it: the lowest set
    /// bit at or above the pointer, else the lowest set bit overall.
    #[inline]
    pub fn grant_mask(&mut self, mask: &[u64]) -> Option<usize> {
        let port = match *mask {
            // Up to 64 ports: the pointer is a bit of the one word.
            [bits] if bits != 0 => {
                let above = bits & (u64::MAX << (self.next & 63));
                (if above != 0 { above } else { bits }).trailing_zeros() as usize
            }
            _ => first_set_from(mask, self.next).or_else(|| first_set_from(mask, 0))?,
        };
        self.commit(port);
        Some(port)
    }

    /// Records a grant to `port`: the priority pointer moves past it.
    #[inline]
    pub fn commit(&mut self, port: usize) {
        debug_assert!(port < self.ports, "requester index out of range");
        self.next = if port + 1 == self.ports { 0 } else { port + 1 };
    }

    /// The priority pointer: the port that wins a tie among all ports.
    #[inline]
    #[must_use]
    pub fn pointer(&self) -> usize {
        self.next
    }

    /// Resets the priority pointer.
    pub fn reset(&mut self) {
        self.next = 0;
    }
}

/// The lowest set bit of `mask` at or above bit `from`.
#[inline]
fn first_set_from(mask: &[u64], from: usize) -> Option<usize> {
    let mut word = from >> 6;
    let mut bits = *mask.get(word)? & (u64::MAX << (from & 63));
    while bits == 0 {
        word += 1;
        bits = *mask.get(word)?;
    }
    Some((word << 6) | bits.trailing_zeros() as usize)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_requester_always_wins() {
        let mut arb = RoundRobinArbiter::new(3);
        for _ in 0..5 {
            assert_eq!(arb.grant(&[false, false, true]), Some(2));
        }
    }

    #[test]
    fn rotation_is_fair() {
        let mut arb = RoundRobinArbiter::new(3);
        let all = [true, true, true];
        let winners: Vec<_> = (0..6).map(|_| arb.grant(&all).unwrap()).collect();
        assert_eq!(winners, vec![0, 1, 2, 0, 1, 2]);
    }

    #[test]
    fn no_request_no_grant() {
        let mut arb = RoundRobinArbiter::new(2);
        assert_eq!(arb.grant(&[false, false]), None);
    }

    #[test]
    fn reset_restores_priority() {
        let mut arb = RoundRobinArbiter::new(2);
        assert_eq!(arb.grant(&[true, true]), Some(0));
        arb.reset();
        assert_eq!(arb.grant(&[true, true]), Some(0));
    }

    /// Under persistent contention every requester is granted within
    /// `ports` consecutive cycles (no starvation).
    #[test]
    fn no_starvation() {
        for ports in 1usize..16 {
            let mut arb = RoundRobinArbiter::new(ports);
            let all = vec![true; ports];
            let mut seen = vec![false; ports];
            for _ in 0..ports {
                let w = arb.grant(&all).unwrap();
                assert!(!seen[w], "requester granted twice in one round");
                seen[w] = true;
            }
            assert!(seen.iter().all(|&s| s));
        }
    }

    /// The mask grant picks the dense winner and leaves the pointer where
    /// the dense grant leaves it, for port counts on both sides of a mask
    /// word boundary.
    #[test]
    fn mask_grant_matches_dense_grant() {
        let mut rng = crate::SplitMix64::new(0xa4b);
        for ports in [1usize, 2, 7, 8, 16, 32, 63, 64, 65, 88, 128, 130] {
            let mut dense = RoundRobinArbiter::new(ports);
            let mut masked = RoundRobinArbiter::new(ports);
            let mut mask = vec![0u64; ports.div_ceil(64)];
            for _ in 0..500 {
                // Sparse, dense and single-request rounds.
                let odds = [2, 3, 16][rng.below(3) as usize];
                let requests: Vec<bool> = (0..ports).map(|_| rng.below(odds) == 0).collect();
                mask.fill(0);
                for p in (0..ports).filter(|&p| requests[p]) {
                    mask[p >> 6] |= 1 << (p & 63);
                }
                assert_eq!(masked.grant_mask(&mask), dense.grant(&requests));
                assert_eq!(dense.next, masked.next);
            }
        }
    }
}
