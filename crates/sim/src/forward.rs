//! Deterministic fast-forward: the debug-build checks behind idle-cycle
//! elision and steady-state period replay.
//!
//! A decoupled-access-execute system spends many simulated cycles in states
//! where *nothing can change*: every streamer is waiting on in-flight bank
//! latency, the PE handshake stalls, and the only future event is a memory
//! response due k cycles out. The system loop skips those spans in O(1) and
//! replays their aggregate side effects (occupancy samples, one stall
//! charge, the clock advance), so every simulated result is bit-identical
//! to the lockstep run. It asks two direct questions: does any streamer act
//! this cycle (a `bool` on each streamer), and when is the oldest in-flight
//! read due (the memory subsystem's `next_due`)?
//!
//! [`SpanCheck`] is the safety net: component digests captured before a
//! skip must match after it, so a component that would have acted inside
//! the span is caught immediately instead of silently corrupting the run.
//!
//! A busy machine is often periodic instead: the loop state relative to
//! the clock repeats from one tile boundary to a later one. Every
//! accumulator and every absolute stamp then grows by the same amount in
//! each period, so `k` further periods are `x + k · (x − x_earlier)` per
//! field. [`Periodic`] is that rule.
//!
//! Such a period starts at a snapshot of the whole machine (an anchor).
//! [`clone_fields!`](crate::clone_fields) gives the component types a
//! `clone_from` that refills an old snapshot in place instead of
//! allocating a new one.

use crate::cycle::Cycle;
use crate::histogram::LatencyHistogram;
use crate::stats::Counter;

/// State that one period of a periodic steady state advances by the same
/// amount every time: counters, histograms and absolute stamps.
///
/// `repeat_since(earlier, k)` turns `self`, the state one period after
/// `earlier`, into the state `k` periods later. Fields that are equal in
/// both (the state relative to the clock) stay as they are.
pub trait Periodic {
    /// Advances `self` by `k` more repeats of the change since `earlier`.
    ///
    /// # Panics
    ///
    /// May panic if `earlier` is not an earlier state of `self` (a field
    /// shrank, or the two differ in shape).
    fn repeat_since(&mut self, earlier: &Self, k: u64);
}

impl Periodic for u64 {
    #[inline]
    fn repeat_since(&mut self, earlier: &Self, k: u64) {
        *self += k * (*self - earlier);
    }
}

impl Periodic for Counter {
    fn repeat_since(&mut self, earlier: &Self, k: u64) {
        self.add(k * (self.get() - earlier.get()));
    }
}

impl Periodic for Cycle {
    fn repeat_since(&mut self, earlier: &Self, k: u64) {
        *self += k * (*self - *earlier).get();
    }
}

impl Periodic for LatencyHistogram {
    /// The samples since `earlier`, `k` more times. Their values are all
    /// in `self` already, so its min and max stay.
    fn repeat_since(&mut self, earlier: &Self, k: u64) {
        let later = self.clone();
        self.add_repeats(&later, earlier, k);
    }
}

impl<T: Periodic> Periodic for Option<T> {
    fn repeat_since(&mut self, earlier: &Self, k: u64) {
        match (self, earlier) {
            (Some(now), Some(then)) => now.repeat_since(then, k),
            (None, None) => {}
            _ => panic!("a periodic field appeared or vanished within the period"),
        }
    }
}

impl<T: Periodic> Periodic for [T] {
    fn repeat_since(&mut self, earlier: &Self, k: u64) {
        assert_eq!(self.len(), earlier.len(), "periodic state changed shape");
        for (now, then) in self.iter_mut().zip(earlier) {
            now.repeat_since(then, k);
        }
    }
}

impl<T: Periodic> Periodic for Vec<T> {
    fn repeat_since(&mut self, earlier: &Self, k: u64) {
        self.as_mut_slice().repeat_since(earlier, k);
    }
}

impl<T: Periodic, const N: usize> Periodic for [T; N] {
    fn repeat_since(&mut self, earlier: &Self, k: u64) {
        self.as_mut_slice().repeat_since(earlier, k);
    }
}

/// Implements [`Clone`] field by field, with a `clone_from` that clones
/// every field into the existing one. `#[derive(Clone)]` keeps the default
/// `clone_from`, which builds a whole new value; this one lets a `Vec` or
/// `VecDeque` field keep its allocation, so refilling a snapshot of a
/// machine allocates nothing once its shape is settled. A field left out
/// or named twice does not compile.
///
/// Generic types put their parameters in brackets after `impl`.
///
/// # Examples
///
/// ```
/// struct Fifo<T> {
///     depth: usize,
///     words: Vec<T>,
/// }
/// dm_sim::clone_fields!(impl[T: Clone] Fifo<T> { depth, words });
///
/// let full = Fifo { depth: 4, words: vec![1u64, 2, 3] };
/// let mut old = Fifo { depth: 4, words: Vec::with_capacity(8) };
/// let storage = old.words.as_ptr();
/// old.clone_from(&full);
/// assert_eq!(old.words, [1, 2, 3]);
/// assert_eq!(old.words.as_ptr(), storage, "the old allocation is reused");
/// ```
#[macro_export]
macro_rules! clone_fields {
    (impl[$($generics:tt)*] $ty:ty { $($field:ident),+ $(,)? }) => {
        impl<$($generics)*> ::core::clone::Clone for $ty {
            fn clone(&self) -> Self {
                Self {
                    $($field: ::core::clone::Clone::clone(&self.$field)),+
                }
            }

            fn clone_from(&mut self, source: &Self) {
                let Self { $($field),+ } = self;
                $(::core::clone::Clone::clone_from($field, &source.$field);)+
            }
        }
    };
    ($ty:ty { $($field:ident),+ $(,)? }) => {
        $crate::clone_fields!(impl[] $ty { $($field),+ });
    };
}

/// Digest snapshot taken before a skipped span, verified after it.
///
/// The fast-forward replay must only touch the clock, occupancy samples and
/// stall tallies; every component's activity digest must be bit-identical
/// before and after the skip. A mismatch means the component would have
/// acted inside the span, and the skip silently diverged from lockstep.
#[derive(Debug, Default, Clone)]
pub struct SpanCheck {
    entries: Vec<(&'static str, u64)>,
}

impl SpanCheck {
    /// Captures `(component name, digest)` pairs before a skip.
    #[must_use]
    pub fn capture(components: impl IntoIterator<Item = (&'static str, u64)>) -> Self {
        SpanCheck {
            entries: components.into_iter().collect(),
        }
    }

    /// Asserts every digest is unchanged, in capture order.
    ///
    /// # Panics
    ///
    /// Panics naming the offending component if any digest moved (it would
    /// have acted inside the span) or if the component list differs from the
    /// captured one.
    pub fn assert_unchanged(&self, components: impl IntoIterator<Item = (&'static str, u64)>) {
        let mut seen = 0usize;
        for (i, (name, digest)) in components.into_iter().enumerate() {
            let (captured_name, captured_digest) = self.entries[i];
            assert_eq!(
                captured_name, name,
                "span check re-evaluated with a different component list"
            );
            assert!(
                captured_digest == digest,
                "component `{name}` changed state during a fast-forwarded span \
                 (digest {captured_digest:#018x} -> {digest:#018x}): \
                 it would have acted inside the span"
            );
            seen += 1;
        }
        assert_eq!(
            seen,
            self.entries.len(),
            "span check re-evaluated with a different component list"
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cycle::Cycle;

    /// A component whose true first activity is at `wake_at` but which
    /// claims to stay idle until `claimed` — set one later than the truth to
    /// model the classic off-by-one conservatism bug.
    struct MockStreamer {
        counter: u64,
        wake_at: u64,
        claimed: u64,
    }

    impl MockStreamer {
        fn tick(&mut self, now: Cycle) {
            if now.get() >= self.wake_at {
                self.counter += 1;
            }
        }
    }

    /// Drives the mock through the span its own claim allows, then
    /// verifies the digest.
    fn skip_and_verify(mock: &mut MockStreamer) {
        let now = Cycle::ZERO;
        let check = SpanCheck::capture([("mock", mock.counter)]);
        // What lockstep would have done during the skipped cycles.
        for c in 0..mock.claimed {
            mock.tick(now + c);
        }
        check.assert_unchanged([("mock", mock.counter)]);
    }

    #[test]
    fn exact_horizon_passes_the_span_check() {
        let mut mock = MockStreamer {
            counter: 0,
            wake_at: 5,
            claimed: 5,
        };
        skip_and_verify(&mut mock);
        assert_eq!(mock.counter, 0, "activity at the horizon is not skipped");
    }

    #[test]
    #[should_panic(expected = "changed state during a fast-forwarded span")]
    fn optimistic_off_by_one_horizon_is_caught() {
        // Claims cycle 6 but actually acts at cycle 5: the span covers the
        // activity and the digest check must fire.
        let mut mock = MockStreamer {
            counter: 0,
            wake_at: 5,
            claimed: 6,
        };
        skip_and_verify(&mut mock);
    }

    #[test]
    fn periodic_fields_repeat_their_per_period_change() {
        let (mut counter, earlier) = (Counter::new(), Counter::new());
        counter.add(3);
        counter.repeat_since(&earlier, 4);
        assert_eq!(counter.get(), 15);
        let mut stamps = vec![Some(Cycle::new(12)), None];
        stamps.repeat_since(&vec![Some(Cycle::new(10)), None], 3);
        assert_eq!(stamps, vec![Some(Cycle::new(18)), None]);
        let mut hist = LatencyHistogram::new();
        hist.record(5);
        let before = hist.clone();
        hist.record_n(2, 3);
        hist.repeat_since(&before, 2);
        let mut expected = LatencyHistogram::new();
        expected.record(5);
        expected.record_n(2, 9);
        assert_eq!(hist, expected);
    }

    #[test]
    #[should_panic(expected = "appeared or vanished")]
    fn periodic_option_must_keep_its_shape() {
        Some(1u64).repeat_since(&None, 1);
    }

    #[test]
    #[should_panic(expected = "different component list")]
    fn component_list_mismatch_is_caught() {
        let check = SpanCheck::capture([("a", 1u64), ("b", 2u64)]);
        check.assert_unchanged([("a", 1u64)]);
    }
}
