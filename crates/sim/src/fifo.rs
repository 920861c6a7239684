//! Bounded FIFO with slot reservation.
//!
//! The data FIFOs inside a DataMaestro channel are not ordinary queues: the
//! Outstanding Request Manager (ORM, Fig. 2b of the paper) *reserves* a slot
//! for every in-flight memory request before the Request Side Controller is
//! allowed to issue it. A response therefore always has a landing slot and a
//! channel can never back-pressure the memory banks. [`Fifo`] models exactly
//! that: capacity is shared between occupied slots and reservations, and
//! reservations are filled strictly in the order they were made (memory
//! responses per channel arrive in order because requests issue in order and
//! the banks have a fixed latency). A fill always lands in the oldest
//! pending reservation, so the FIFO itself is the record of reservation
//! order; callers keep no slot tokens.

use std::fmt;

/// A bounded FIFO queue with slot reservation.
///
/// # Examples
///
/// ```
/// use dm_sim::Fifo;
///
/// let mut fifo: Fifo<&str> = Fifo::new(2);
/// assert!(fifo.has_free_slot());
/// assert!(fifo.try_reserve(), "space available");
/// // One slot left: it can still be used by a direct push.
/// fifo.push("direct").expect("one slot remains");
/// assert!(!fifo.has_free_slot());
/// // The reserved slot is filled later (e.g. by a memory response) and the
/// // element lands *in front of* later pushes, preserving request order.
/// fifo.fill_reserved("response");
/// assert_eq!(fifo.pop(), Some("response"));
/// assert_eq!(fifo.pop(), Some("direct"));
/// ```
#[derive(Clone)]
pub struct Fifo<T> {
    /// One slot per unit of capacity, used as a ring. The `committed`
    /// slots starting at `head` hold, in commit order, first the `ready`
    /// poppable elements and then the *tail*: `None` for a still-pending
    /// reservation and `Some(value)` for an element pushed or filled behind
    /// one, which becomes poppable once every earlier reservation is
    /// filled.
    ///
    /// Invariant: the tail, when non-empty, starts with a pending
    /// reservation — direct pushes extend the poppable run while no
    /// reservation is outstanding, and every fill advances `ready` past the
    /// filled prefix. The oldest pending reservation is therefore always at
    /// `head + ready`, which is what makes
    /// [`fill_reserved`](Self::fill_reserved) O(1).
    slots: Box<[Option<T>]>,
    head: usize,
    ready: usize,
    committed: usize,
    next_reserve_seq: u64,
    next_fill_seq: u64,
    high_watermark: usize,
}

impl<T> Fifo<T> {
    /// Creates a FIFO with the given capacity.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero: a zero-depth FIFO cannot decouple
    /// anything and always indicates a configuration bug.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "fifo capacity must be non-zero");
        Fifo {
            slots: (0..capacity).map(|_| None).collect(),
            head: 0,
            ready: 0,
            committed: 0,
            next_reserve_seq: 0,
            next_fill_seq: 0,
            high_watermark: 0,
        }
    }

    /// Total capacity.
    #[inline]
    pub fn capacity(&self) -> usize {
        self.slots.len()
    }

    /// Number of poppable elements.
    #[inline]
    pub fn len(&self) -> usize {
        self.ready
    }

    /// Returns `true` when no element is poppable.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.ready == 0
    }

    /// Number of slots that are either occupied or reserved.
    #[inline]
    pub fn committed(&self) -> usize {
        self.committed
    }

    /// Number of slots still available for reservation or direct push.
    #[inline]
    pub fn free_slots(&self) -> usize {
        self.capacity() - self.committed
    }

    /// Returns `true` if at least one slot can be reserved or pushed.
    #[inline]
    pub fn has_free_slot(&self) -> bool {
        self.committed < self.capacity()
    }

    /// Number of outstanding (reserved but unfilled) slots.
    ///
    /// O(1): every reservation increments `next_reserve_seq` and every fill
    /// increments `next_fill_seq`, so the difference is exactly the number
    /// of pending slots in the tail. Occupancy sampling calls this once
    /// per channel per cycle, so it must not scan.
    pub fn outstanding(&self) -> usize {
        debug_assert_eq!(
            (self.next_reserve_seq - self.next_fill_seq) as usize,
            (self.ready..self.committed)
                .filter(|&i| self.slots[self.index(i)].is_none())
                .count(),
            "sequence counters must track pending reservations exactly"
        );
        (self.next_reserve_seq - self.next_fill_seq) as usize
    }

    /// Highest number of committed slots observed; useful for sizing sweeps.
    #[inline]
    pub fn high_watermark(&self) -> usize {
        self.high_watermark
    }

    /// Attempts to reserve a slot for a future fill.
    ///
    /// Returns `false` when the FIFO (including reservations) is full — the
    /// modelled ORM then throttles the request side.
    #[inline]
    #[must_use = "a failed reservation must throttle the caller"]
    pub fn try_reserve(&mut self) -> bool {
        if !self.has_free_slot() {
            return false;
        }
        self.next_reserve_seq += 1;
        self.committed += 1;
        self.note_watermark();
        true
    }

    /// Fills the oldest pending reservation.
    ///
    /// # Panics
    ///
    /// Panics if no reservation is pending.
    #[inline]
    pub fn fill_reserved(&mut self, value: T) {
        assert!(
            self.ready < self.committed,
            "fill without outstanding reservation"
        );
        self.next_fill_seq += 1;
        // The oldest pending reservation is always the first tail slot (see
        // the `slots` invariant), so no scan is needed.
        let index = self.index(self.ready);
        debug_assert!(
            self.slots[index].is_none(),
            "tail front must be the oldest pending reservation"
        );
        self.slots[index] = Some(value);
        self.ready += 1;
        // Elements pushed behind the filled reservation become poppable up
        // to the next pending one.
        while self.ready < self.committed && self.slots[self.index(self.ready)].is_some() {
            self.ready += 1;
        }
    }

    /// Pushes a value directly (no reservation), e.g. on the write path where
    /// the producer is the accelerator rather than a memory response.
    ///
    /// # Errors
    ///
    /// Returns the value back if the FIFO (including reservations) is full.
    #[inline]
    pub fn push(&mut self, value: T) -> Result<(), T> {
        if !self.has_free_slot() {
            return Err(value);
        }
        let index = self.index(self.committed);
        self.slots[index] = Some(value);
        // Behind an outstanding reservation the value must wait in the tail
        // to preserve order; otherwise it is poppable at once.
        if self.ready == self.committed {
            self.ready += 1;
        }
        self.committed += 1;
        self.note_watermark();
        Ok(())
    }

    /// Pops the oldest poppable element.
    #[inline]
    pub fn pop(&mut self) -> Option<T> {
        if self.ready == 0 {
            return None;
        }
        let value = self.slots[self.head].take();
        self.head = self.index(1);
        self.ready -= 1;
        self.committed -= 1;
        value
    }

    /// Peeks at the oldest poppable element.
    #[inline]
    pub fn peek(&self) -> Option<&T> {
        if self.ready == 0 {
            return None;
        }
        self.slots[self.head].as_ref()
    }

    /// Removes every element and reservation, resetting sequence tracking
    /// and the high-water mark: a cleared FIFO starts a fresh phase and
    /// must not report the previous phase's peak into metrics.
    pub fn clear(&mut self) {
        self.slots.iter_mut().for_each(|slot| *slot = None);
        self.head = 0;
        self.ready = 0;
        self.committed = 0;
        self.next_fill_seq = 0;
        self.next_reserve_seq = 0;
        self.high_watermark = 0;
    }

    /// Ring index of the slot `offset` places after `head`
    /// (`offset <= capacity`).
    #[inline]
    fn index(&self, offset: usize) -> usize {
        let index = self.head + offset;
        if index >= self.slots.len() {
            index - self.slots.len()
        } else {
            index
        }
    }

    #[inline]
    fn note_watermark(&mut self) {
        self.high_watermark = self.high_watermark.max(self.committed);
    }
}

impl<T> fmt::Debug for Fifo<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Fifo")
            .field("capacity", &self.capacity())
            .field("len", &self.ready)
            .field("outstanding", &self.outstanding())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::SplitMix64;

    #[test]
    #[should_panic(expected = "capacity must be non-zero")]
    fn zero_capacity_panics() {
        let _ = Fifo::<u8>::new(0);
    }

    #[test]
    fn push_pop_roundtrip() {
        let mut fifo = Fifo::new(3);
        fifo.push(1).unwrap();
        fifo.push(2).unwrap();
        assert_eq!(fifo.len(), 2);
        assert_eq!(fifo.pop(), Some(1));
        assert_eq!(fifo.pop(), Some(2));
        assert_eq!(fifo.pop(), None);
    }

    #[test]
    fn push_fails_when_full() {
        let mut fifo = Fifo::new(1);
        fifo.push(1).unwrap();
        assert_eq!(fifo.push(2), Err(2));
    }

    #[test]
    fn reservation_consumes_capacity() {
        let mut fifo: Fifo<u8> = Fifo::new(2);
        assert!(fifo.try_reserve());
        assert!(fifo.try_reserve());
        assert!(!fifo.try_reserve());
        assert_eq!(fifo.push(9), Err(9));
        assert_eq!(fifo.outstanding(), 2);
    }

    #[test]
    fn fill_order_is_reservation_order() {
        let mut fifo = Fifo::new(4);
        assert!(fifo.try_reserve());
        assert!(fifo.try_reserve());
        fifo.fill_reserved(10);
        fifo.fill_reserved(20);
        assert_eq!(fifo.pop(), Some(10));
        assert_eq!(fifo.pop(), Some(20));
    }

    #[test]
    #[should_panic(expected = "without outstanding reservation")]
    fn fill_without_reservation_panics() {
        let mut fifo = Fifo::new(4);
        assert!(fifo.try_reserve());
        fifo.fill_reserved(10);
        fifo.fill_reserved(20);
    }

    #[test]
    fn direct_push_stays_behind_reservations() {
        let mut fifo = Fifo::new(4);
        assert!(fifo.try_reserve());
        fifo.push(99).unwrap();
        assert_eq!(fifo.pop(), None, "reservation blocks later pushes");
        fifo.fill_reserved(1);
        assert_eq!(fifo.pop(), Some(1));
        assert_eq!(fifo.pop(), Some(99));
    }

    #[test]
    fn watermark_tracks_peak_commitment() {
        let mut fifo = Fifo::new(4);
        assert!(fifo.try_reserve());
        fifo.push(1).unwrap();
        fifo.push(2).unwrap();
        assert_eq!(fifo.high_watermark(), 3);
        fifo.fill_reserved(0);
        fifo.pop();
        fifo.pop();
        fifo.pop();
        assert_eq!(fifo.high_watermark(), 3);
    }

    #[test]
    fn clear_resets_everything() {
        let mut fifo = Fifo::new(2);
        assert!(fifo.try_reserve());
        fifo.clear();
        assert_eq!(fifo.len(), 0);
        assert_eq!(fifo.outstanding(), 0);
        assert!(fifo.try_reserve());
        assert!(fifo.try_reserve(), "a cleared fifo has its full capacity");
        fifo.fill_reserved(5);
        assert_eq!(fifo.pop(), Some(5));
    }

    #[test]
    fn clear_resets_high_watermark() {
        let mut fifo = Fifo::new(4);
        fifo.push(1).unwrap();
        fifo.push(2).unwrap();
        fifo.push(3).unwrap();
        assert_eq!(fifo.high_watermark(), 3);
        fifo.clear();
        assert_eq!(
            fifo.high_watermark(),
            0,
            "a cleared fifo must not report the previous phase's peak"
        );
        fifo.push(7).unwrap();
        assert_eq!(fifo.high_watermark(), 1);
    }

    /// Regardless of how pushes, reserves and fills interleave, pop order
    /// equals commit order (reservation time for reserved slots, push time
    /// for direct pushes) and capacity is never exceeded.
    #[test]
    fn ordering_invariant() {
        let mut rng = SplitMix64::new(0xf1f0);
        for case in 0..256 {
            let mut fifo: Fifo<u32> = Fifo::new(8);
            // Sequence numbers of the pending reservations, oldest first.
            let mut pending: std::collections::VecDeque<u32> = std::collections::VecDeque::new();
            let mut next_reserve = 0u32;
            let mut next_push = 1_000_000u32;
            // Shadow model: values in the order they committed a slot.
            // Reserved slots carry their sequence number; direct pushes carry
            // values >= 1_000_000 so the two are distinguishable.
            let mut commit_order: Vec<u32> = Vec::new();
            let mut popped: Vec<u32> = Vec::new();
            for _ in 0..1 + rng.below(127) {
                match rng.below(3) {
                    0 => {
                        if fifo.try_reserve() {
                            commit_order.push(next_reserve);
                            pending.push_back(next_reserve);
                            next_reserve += 1;
                        }
                    }
                    1 => {
                        if let Some(seq) = pending.pop_front() {
                            fifo.fill_reserved(seq);
                        }
                    }
                    _ => {
                        if fifo.push(next_push).is_ok() {
                            commit_order.push(next_push);
                            next_push += 1;
                        }
                    }
                }
                assert!(fifo.committed() <= fifo.capacity(), "case {case}");
                while let Some(v) = fifo.pop() {
                    popped.push(v);
                }
            }
            // Fill every remaining reservation and drain.
            while let Some(seq) = pending.pop_front() {
                fifo.fill_reserved(seq);
            }
            while let Some(v) = fifo.pop() {
                popped.push(v);
            }
            assert_eq!(fifo.committed(), 0, "case {case}");
            assert_eq!(popped, commit_order, "case {case}");
        }
    }

    /// The pre-optimization implementation, kept verbatim as a reference
    /// model: scan-count for `outstanding`, linear `find` for the fill
    /// target. `clear` without a watermark reset was the bug this PR fixes,
    /// so the reference models `clear` *with* the reset.
    struct Reference {
        capacity: usize,
        items: std::collections::VecDeque<u32>,
        tail: std::collections::VecDeque<Option<u32>>,
        next_reserve_seq: u64,
        next_fill_seq: u64,
        high_watermark: usize,
    }

    impl Reference {
        fn new(capacity: usize) -> Self {
            Reference {
                capacity,
                items: std::collections::VecDeque::new(),
                tail: std::collections::VecDeque::new(),
                next_reserve_seq: 0,
                next_fill_seq: 0,
                high_watermark: 0,
            }
        }
        fn committed(&self) -> usize {
            self.items.len() + self.tail.len()
        }
        fn outstanding(&self) -> usize {
            self.tail.iter().filter(|slot| slot.is_none()).count()
        }
        fn note_watermark(&mut self) {
            self.high_watermark = self.high_watermark.max(self.committed());
        }
        fn try_reserve(&mut self) -> Option<u64> {
            if self.committed() >= self.capacity {
                return None;
            }
            let seq = self.next_reserve_seq;
            self.next_reserve_seq += 1;
            self.tail.push_back(None);
            self.note_watermark();
            Some(seq)
        }
        fn fill_reserved(&mut self, seq: u64, value: u32) {
            assert_eq!(seq, self.next_fill_seq);
            self.next_fill_seq += 1;
            let pending = self
                .tail
                .iter_mut()
                .find(|entry| entry.is_none())
                .expect("fill without outstanding reservation");
            *pending = Some(value);
            while let Some(front) = self.tail.front() {
                if front.is_some() {
                    let value = self.tail.pop_front().flatten().unwrap();
                    self.items.push_back(value);
                } else {
                    break;
                }
            }
        }
        fn push(&mut self, value: u32) -> bool {
            if self.committed() >= self.capacity {
                return false;
            }
            if self.tail.is_empty() {
                self.items.push_back(value);
            } else {
                self.tail.push_back(Some(value));
            }
            self.note_watermark();
            true
        }
        fn clear(&mut self) {
            self.items.clear();
            self.tail.clear();
            self.next_fill_seq = 0;
            self.next_reserve_seq = 0;
            self.high_watermark = 0;
        }
    }

    /// The O(1) `outstanding()` / front-fill implementation behaves
    /// identically to the original O(n) scans, under many interleavings of
    /// reserve / fill / push / pop / clear: same observable state and the
    /// same slot chosen for every fill.
    #[test]
    fn constant_time_paths_match_linear_reference() {
        for seed in 1u64..=64 {
            let mut rng = SplitMix64::new(seed);
            let mut fifo: Fifo<u32> = Fifo::new(6);
            let mut reference = Reference::new(6);
            // Sequence numbers of the pending reservations, oldest first.
            let mut pending: std::collections::VecDeque<u64> = std::collections::VecDeque::new();
            let mut next_value = 0u32;
            for _ in 0..256 {
                match rng.below(5) {
                    0 => {
                        let reserved = fifo.try_reserve();
                        let ref_seq = reference.try_reserve();
                        assert_eq!(reserved, ref_seq.is_some());
                        pending.extend(ref_seq);
                    }
                    1 => {
                        if let Some(seq) = pending.pop_front() {
                            next_value += 1;
                            fifo.fill_reserved(next_value);
                            reference.fill_reserved(seq, next_value);
                        }
                    }
                    2 => {
                        next_value += 1;
                        assert_eq!(fifo.push(next_value).is_ok(), reference.push(next_value));
                    }
                    3 => {
                        assert_eq!(fifo.pop(), reference.items.pop_front());
                    }
                    _ => {
                        fifo.clear();
                        reference.clear();
                        pending.clear();
                    }
                }
                assert_eq!(fifo.len(), reference.items.len(), "seed {seed}");
                assert_eq!(fifo.outstanding(), reference.outstanding(), "seed {seed}");
                assert_eq!(fifo.committed(), reference.committed(), "seed {seed}");
                assert_eq!(
                    fifo.high_watermark(),
                    reference.high_watermark,
                    "seed {seed}"
                );
            }
        }
    }
}
