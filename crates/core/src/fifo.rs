//! The channel data FIFOs (§III-C, Fig. 2b): what a [`Channel`] holds
//! between the crossbar and the accelerator port, and which request it
//! offers the crossbar.
//!
//! * A read channel's FIFO ([`Landing`]) is kept by its Outstanding Request
//!   Manager (ORM). Responses arrive in issue order, so the FIFO is the ring
//!   of reserved word addresses plus a count of those that have landed.
//! * A write channel's FIFO is a queue of the destinations of the words
//!   waiting to drain, oldest first.
//!
//! Neither FIFO knows its depth: the owning [`Channel`] bounds
//! [`ChannelFifo::level`].
//!
//! [`Channel`]: crate::channel::Channel

use std::collections::VecDeque;

use dm_mem::{BankLocation, MemOp};
use dm_sim::{MetricsRegistry, Periodic, StableHasher};

/// The direction-specific half of a channel: what its data FIFO holds and
/// which request it offers the crossbar.
pub trait ChannelFifo: Default + Clone + PartialEq + std::fmt::Debug {
    /// The operation of the channel's requests.
    const OP: MemOp;

    /// Committed FIFO slots: the level the channel depth bounds, and the
    /// one sampled for occupancy and the high watermark.
    fn level(&self) -> usize;

    /// Takes in the queued address `addr`, which maps to `loc`.
    fn admit(&mut self, addr: u64, loc: BankLocation);

    /// The request awaiting a crossbar grant: its location and tag.
    fn request(&self) -> Option<(BankLocation, u64)>;

    /// Retires the granted [`request`](Self::request).
    fn retire(&mut self);

    /// Folds direction-specific state into `hasher`.
    fn hash_state(&self, _hasher: &mut StableHasher) {}

    /// Appends the direction-specific state that steers future cycles, in
    /// a form that does not grow with the stream position.
    fn lock_key(&self, _key: &mut Vec<u64>) {}

    /// Replaces the words behind the committed slots, oldest first, keeping
    /// which of them have landed and whether the newest is still pending.
    fn rebase(&mut self, words: impl Iterator<Item = (u64, BankLocation)>);

    /// Advances the request tags by `k` more repeats of their change since
    /// `earlier` (see [`dm_sim::Periodic`]).
    fn repeat_since(&mut self, _earlier: &Self, _k: u64) {}

    /// Registers direction-specific per-channel metrics.
    fn register_metrics(&self, _registry: &mut MetricsRegistry) {}
}

/// A read channel's data FIFO, as its Outstanding Request Manager sees it.
///
/// A reservation ([`admit`](ChannelFifo::admit)) pushes the word's byte
/// address, a response lands the oldest unfilled reservation and a pop
/// takes the front, so the k-th address reserved is the k-th word popped.
#[derive(Debug, Default, PartialEq, Eq)]
pub struct Landing {
    /// Byte address of the word behind every reserved slot, in reservation
    /// order.
    addrs: VecDeque<u64>,
    /// Reserved slots whose response has landed: the front of `addrs`.
    filled: usize,
    /// Request admitted by the RSC but not yet granted. Its slot, like
    /// those of the in-flight requests, is reserved and unfilled.
    pending: Option<(BankLocation, u64)>,
    /// Tag of the next request.
    next_tag: u64,
    /// Tag the next response must echo; also the responses received.
    expected_tag: u64,
}

dm_sim::clone_fields!(Landing {
    addrs,
    filled,
    pending,
    next_tag,
    expected_tag
});

impl Landing {
    /// Reserved slots whose response has not landed.
    #[inline]
    pub(crate) fn outstanding(&self) -> usize {
        self.addrs.len() - self.filled
    }

    /// `true` if a landed word is at the head.
    #[inline]
    pub(crate) fn has_data(&self) -> bool {
        self.filled > 0
    }

    /// The bank the pending (not-yet-granted) request targets, if any.
    #[inline]
    pub(crate) fn pending_bank(&self) -> Option<usize> {
        self.pending.map(|(loc, _)| loc.bank)
    }

    /// Lands the response echoing `tag` in the oldest unfilled reservation.
    ///
    /// # Panics
    ///
    /// Panics if no reservation is unfilled, or if `tag` is not that of
    /// the oldest outstanding request — simulator bugs given the in-order
    /// memory model.
    #[inline]
    pub(crate) fn land(&mut self, tag: u64) {
        assert!(
            self.filled < self.addrs.len(),
            "fill without outstanding reservation"
        );
        assert_eq!(tag, self.expected_tag, "read response out of order");
        self.expected_tag += 1;
        self.filled += 1;
    }

    /// Pops the landed word at the head, returning its byte address.
    #[inline]
    pub(crate) fn pop(&mut self) -> Option<u64> {
        if !self.has_data() {
            return None;
        }
        self.filled -= 1;
        self.addrs.pop_front()
    }
}

impl ChannelFifo for Landing {
    const OP: MemOp = MemOp::Read;

    #[inline]
    fn level(&self) -> usize {
        self.addrs.len()
    }

    #[inline]
    fn admit(&mut self, addr: u64, loc: BankLocation) {
        self.addrs.push_back(addr);
        self.pending = Some((loc, self.next_tag));
        self.next_tag += 1;
    }

    #[inline]
    fn request(&self) -> Option<(BankLocation, u64)> {
        self.pending
    }

    #[inline]
    fn retire(&mut self) {
        self.pending = None;
    }

    fn hash_state(&self, hasher: &mut StableHasher) {
        hasher.write_usize(self.filled);
        hasher.write_bool(self.pending.is_some());
        hasher.write_u64(self.next_tag);
        hasher.write_u64(self.expected_tag);
    }

    fn lock_key(&self, key: &mut Vec<u64>) {
        key.extend([self.filled as u64, u64::from(self.pending.is_some())]);
    }

    fn rebase(&mut self, words: impl Iterator<Item = (u64, BankLocation)>) {
        self.addrs.clear();
        let mut newest = None;
        for (addr, loc) in words {
            self.addrs.push_back(addr);
            newest = Some(loc);
        }
        // Only the newest slot can be pending: the RSC admits a request
        // only once the previous one was granted.
        if self.pending.is_some() {
            let loc = newest.expect("a pending request holds a slot");
            self.pending = Some((loc, self.next_tag - 1));
        }
    }

    fn repeat_since(&mut self, earlier: &Self, k: u64) {
        self.next_tag.repeat_since(&earlier.next_tag, k);
        self.expected_tag.repeat_since(&earlier.expected_tag, k);
    }

    fn register_metrics(&self, registry: &mut MetricsRegistry) {
        registry.set_counter("responses", self.expected_tag);
    }
}

/// A write channel's data FIFO: the destinations of the words waiting to
/// drain, oldest first. The head word is the request.
impl ChannelFifo for VecDeque<BankLocation> {
    const OP: MemOp = MemOp::Write;

    #[inline]
    fn level(&self) -> usize {
        self.len()
    }

    #[inline]
    fn admit(&mut self, _addr: u64, loc: BankLocation) {
        self.push_back(loc);
    }

    #[inline]
    fn request(&self) -> Option<(BankLocation, u64)> {
        self.front().map(|&loc| (loc, 0))
    }

    #[inline]
    fn retire(&mut self) {
        self.pop_front();
    }

    fn rebase(&mut self, words: impl Iterator<Item = (u64, BankLocation)>) {
        self.clear();
        self.extend(words.map(|(_, loc)| loc));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::channel::{ReadChannel, WriteChannel};
    use dm_mem::{MemConfig, MemorySubsystem};
    use dm_sim::SplitMix64;

    fn loc(row: usize) -> BankLocation {
        BankLocation { bank: 0, row }
    }

    /// Reserves a slot for `addr` and grants its request at once.
    fn reserve(fifo: &mut Landing, addr: u64) {
        fifo.admit(addr, loc(0));
        fifo.retire();
    }

    fn mem_with_one() -> (MemorySubsystem, dm_mem::RequesterId) {
        let mut mem = MemorySubsystem::new(MemConfig::new(4, 8, 64).unwrap());
        let id = mem.register_requester("ch0");
        (mem, id)
    }

    /// Reserves a slot through `ch` and grants its read request.
    fn read_one(ch: &mut ReadChannel, mem: &mut MemorySubsystem, id: dm_mem::RequesterId) {
        assert!(ch.issue(mem, true, |a| BankLocation {
            bank: (a / 8 % 4) as usize,
            row: 0
        }));
        assert!(ch.handle_grant(mem.arbitrate()[id.index()]));
    }

    #[test]
    fn push_pop_roundtrip() {
        let mut fifo: VecDeque<BankLocation> = VecDeque::default();
        fifo.admit(0, loc(1));
        fifo.admit(8, loc(2));
        assert_eq!(fifo.level(), 2);
        assert_eq!(fifo.request(), Some((loc(1), 0)));
        fifo.retire();
        assert_eq!(fifo.request(), Some((loc(2), 0)));
        fifo.retire();
        assert_eq!(fifo.request(), None);
        assert_eq!(fifo.level(), 0);
    }

    #[test]
    fn push_fails_when_full() {
        let (mut mem, id) = mem_with_one();
        let mut ch = WriteChannel::new(id, 1, 2);
        ch.push_addr(0);
        ch.push_addr(8);
        ch.accept(|_| loc(0));
        assert!(!ch.can_accept(), "a depth-1 write fifo is full");
        ch.submit(&mut mem);
        assert!(ch.handle_grant(mem.arbitrate()[id.index()]));
        assert!(ch.can_accept(), "the grant retired the head");
        assert_eq!(ch.accept(|_| loc(0)), 8);
    }

    #[test]
    fn reservation_consumes_capacity() {
        let (mut mem, id) = mem_with_one();
        let mut ch = ReadChannel::new(id, 2, 4);
        for i in 0..3 {
            ch.push_addr(8 * i);
        }
        read_one(&mut ch, &mut mem, id);
        read_one(&mut ch, &mut mem, id);
        assert!(
            !ch.can_start_request(),
            "two unfilled reservations fill a depth-2 fifo"
        );
        assert_eq!(ch.outstanding(), 2);
        assert!(!ch.has_data());
    }

    #[test]
    fn fill_order_is_reservation_order() {
        let mut fifo = Landing::default();
        reserve(&mut fifo, 10);
        reserve(&mut fifo, 20);
        fifo.land(0);
        fifo.land(1);
        assert_eq!(fifo.pop(), Some(10));
        assert_eq!(fifo.pop(), Some(20));
        assert_eq!(fifo.pop(), None);
    }

    #[test]
    #[should_panic(expected = "without outstanding reservation")]
    fn fill_without_reservation_panics() {
        let mut fifo = Landing::default();
        reserve(&mut fifo, 10);
        fifo.land(0);
        fifo.land(1);
    }

    #[test]
    fn watermark_tracks_peak_commitment() {
        let (mut mem, id) = mem_with_one();
        let mut ch = ReadChannel::new(id, 4, 4);
        for i in 0..3 {
            ch.push_addr(8 * i);
            read_one(&mut ch, &mut mem, id);
        }
        assert_eq!(ch.fifo_high_watermark(), 3);
        mem.drain_responses(|resp| ch.handle_response(resp));
        for i in 0..3 {
            assert_eq!(ch.pop(), 8 * i);
        }
        assert!(ch.is_drained());
        assert_eq!(ch.fifo_high_watermark(), 3);
    }

    /// However reservations, responses and pops interleave, pop order is
    /// reservation order and every slot is either landed or outstanding.
    #[test]
    fn ordering_invariant() {
        let mut rng = SplitMix64::new(0xf1f0);
        for case in 0..256 {
            let mut fifo = Landing::default();
            let (mut next_addr, mut next_tag) = (0u64, 0u64);
            let mut popped = Vec::new();
            for _ in 0..1 + rng.below(127) {
                match rng.below(3) {
                    0 if fifo.level() < 8 => {
                        reserve(&mut fifo, next_addr);
                        next_addr += 1;
                    }
                    1 if fifo.outstanding() > 0 => {
                        fifo.land(next_tag);
                        next_tag += 1;
                    }
                    _ => popped.extend(fifo.pop()),
                }
                assert!(fifo.level() <= 8, "case {case}");
                assert_eq!(fifo.level(), fifo.filled + fifo.outstanding());
            }
            while fifo.outstanding() > 0 {
                fifo.land(next_tag);
                next_tag += 1;
            }
            while let Some(addr) = fifo.pop() {
                popped.push(addr);
            }
            assert_eq!(fifo.level(), 0, "case {case}");
            assert_eq!(popped, (0..next_addr).collect::<Vec<_>>(), "case {case}");
        }
    }

    /// A linear model of the ORM ring: one `(address, landed)` slot per
    /// reservation, `outstanding` by scan-count and each response landing
    /// the first unlanded slot found by a linear search.
    #[derive(Default)]
    struct Reference {
        slots: VecDeque<(u64, bool)>,
    }

    impl Reference {
        fn outstanding(&self) -> usize {
            self.slots.iter().filter(|slot| !slot.1).count()
        }
        fn land(&mut self) {
            let slot = self.slots.iter_mut().find(|slot| !slot.1).unwrap();
            slot.1 = true;
        }
        fn pop(&mut self) -> Option<u64> {
            match self.slots.front() {
                Some(&(addr, true)) => {
                    self.slots.pop_front();
                    Some(addr)
                }
                _ => None,
            }
        }
    }

    /// The O(1) `outstanding()` / `filled` count behaves identically to the
    /// linear model under many interleavings of reserve / grant / land /
    /// pop: same level, outstanding count, head readiness and popped words.
    #[test]
    fn constant_time_paths_match_linear_reference() {
        for seed in 1u64..=64 {
            let mut rng = SplitMix64::new(seed);
            let mut fifo = Landing::default();
            let mut reference = Reference::default();
            let (mut next_addr, mut next_tag) = (0u64, 0u64);
            for _ in 0..256 {
                match rng.below(4) {
                    0 if fifo.level() < 6 && fifo.request().is_none() => {
                        fifo.admit(next_addr, loc(0));
                        reference.slots.push_back((next_addr, false));
                        next_addr += 1;
                    }
                    1 => fifo.retire(),
                    2 if fifo.outstanding() > usize::from(fifo.request().is_some()) => {
                        fifo.land(next_tag);
                        reference.land();
                        next_tag += 1;
                    }
                    _ => assert_eq!(fifo.pop(), reference.pop(), "seed {seed}"),
                }
                assert_eq!(fifo.level(), reference.slots.len(), "seed {seed}");
                assert_eq!(fifo.outstanding(), reference.outstanding(), "seed {seed}");
                assert_eq!(
                    fifo.has_data(),
                    reference.slots.front().is_some_and(|slot| slot.1),
                    "seed {seed}"
                );
            }
        }
    }
}
