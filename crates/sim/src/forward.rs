//! Deterministic fast-forward: idle-cycle elision for the tick kernel.
//!
//! A decoupled-access-execute system spends many simulated cycles in states
//! where *nothing can change*: every streamer is waiting on in-flight bank
//! latency, the PE handshake stalls, and the only future event is a memory
//! response due k cycles out. A lockstep simulator burns host time walking
//! those cycles one by one; classic event-driven simulators (gem5-style
//! event queues) skip them entirely. This module provides the deterministic
//! variant of that trick:
//!
//! * every ticked component reports a conservative [`NextActivity`] horizon
//!   — the earliest cycle at which its observable state *can* change on its
//!   own (`None` = idle until externally poked, e.g. by a memory response or
//!   a PE pop);
//! * [`FastForward::span`] takes the minimum across all horizons; the caller
//!   skips that many cycles in O(1), replaying the aggregate side effects
//!   (occupancy samples, stall tallies, clock advance) so the run's metrics
//!   are **bit-identical** to the lockstep result;
//! * [`SpanCheck`] is the debug-build safety net: digests captured before a
//!   skip must match after it, so an optimistic horizon (a component that
//!   would have acted inside the span) is caught immediately instead of
//!   silently corrupting the run.
//!
//! Conservatism is the whole contract: a horizon may be *later* than
//! reported only at the cost of performance, never of correctness, because
//! the caller re-evaluates every horizon after each skip. A horizon
//! *earlier* than the true one merely shortens the skip. The only fatal bug
//! is a horizon later than the true first activity — exactly what
//! [`SpanCheck`] exists to catch.

use crate::cycle::Cycle;

/// A conservative activity horizon for one ticked component.
///
/// Implemented by everything the system loop ticks: the read/write
/// streamers and the memory subsystem. The loop carries timing tokens only,
/// so no datapath state can change inside a skipped span.
pub trait NextActivity {
    /// Earliest cycle at which this component's observable state can change
    /// *without external input*.
    ///
    /// * `Some(at)` with `at <= now` — the component can act this very
    ///   cycle; nothing may be skipped.
    /// * `Some(at)` with `at > now` — the component is provably inert until
    ///   `at` (e.g. an in-flight read response due then).
    /// * `None` — the component is idle until externally poked (a response
    ///   delivery, a PE pop/push); some *other* component's horizon or the
    ///   caller's own handshake logic bounds the skip.
    ///
    /// The estimate must be conservative: the component must not change any
    /// observable state (counters, FIFO contents, histogram samples beyond
    /// the caller-replayed occupancy samples) strictly before the reported
    /// cycle.
    fn next_activity(&self, now: Cycle) -> Option<Cycle>;

    /// A cheap digest of the state that must stay frozen across a skipped
    /// span. Used by debug assertions ([`SpanCheck`]) to catch optimistic
    /// horizons; deliberately excludes state the fast-forward replay adjusts
    /// on purpose (the clock itself, occupancy histograms).
    fn activity_digest(&self) -> u64;
}

/// The fast-forward scheduler: folds component horizons into a skippable
/// span length.
#[derive(Debug, Clone, Copy, Default)]
pub struct FastForward;

impl FastForward {
    /// Number of whole cycles starting at `now` that are provably inert,
    /// bounded by `cap`.
    ///
    /// Components reporting `None` do not constrain the span (they are idle
    /// until poked); components reporting `Some(at)` constrain it to
    /// `at - now` (zero when `at <= now`). With every horizon `None` the
    /// span is `cap` — the caller's deadlock budget, so a genuinely wedged
    /// system fast-forwards straight to the same diagnostic the lockstep
    /// path would produce.
    ///
    /// Returns 0 as soon as any component can act now; callers apply their
    /// own profitability threshold (the system loop skips only when the
    /// span exceeds one cycle).
    #[must_use]
    pub fn span(now: Cycle, horizons: impl IntoIterator<Item = Option<Cycle>>, cap: u64) -> u64 {
        let mut span = cap;
        for at in horizons.into_iter().flatten() {
            span = span.min(at.saturating_sub(now).get());
            if span == 0 {
                return 0;
            }
        }
        span
    }
}

/// Digest snapshot taken before a skipped span, verified after it.
///
/// The fast-forward replay must only touch the clock, occupancy samples and
/// stall tallies; every component's [`NextActivity::activity_digest`] must
/// be bit-identical before and after the skip. A mismatch means a horizon
/// was optimistic — the component would have acted inside the span — and
/// the skip silently diverged from lockstep.
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
    /// Panics naming the offending component if any digest moved (its
    /// `next_activity` horizon was optimistic) or if the component list
    /// differs from the captured one.
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
                 its next_activity horizon was optimistic"
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

    #[test]
    fn span_is_the_min_over_constraining_horizons() {
        let now = Cycle::new(10);
        let horizons = [Some(Cycle::new(14)), None, Some(Cycle::new(20))];
        assert_eq!(FastForward::span(now, horizons, 100), 4);
    }

    #[test]
    fn span_with_all_idle_components_is_the_cap() {
        let horizons: [Option<Cycle>; 3] = [None, None, None];
        assert_eq!(FastForward::span(Cycle::new(5), horizons, 42), 42);
        assert_eq!(FastForward::span(Cycle::ZERO, [], 7), 7);
    }

    #[test]
    fn span_is_zero_when_any_component_can_act_now() {
        let now = Cycle::new(10);
        assert_eq!(
            FastForward::span(now, [Some(Cycle::new(30)), Some(now)], 100),
            0
        );
        // A stale horizon in the past clamps to zero rather than wrapping.
        assert_eq!(FastForward::span(now, [Some(Cycle::new(3))], 100), 0);
    }

    #[test]
    fn span_respects_the_cap() {
        let now = Cycle::new(0);
        assert_eq!(FastForward::span(now, [Some(Cycle::new(1000))], 16), 16);
    }

    /// A component whose true first activity is at `wake_at` but whose
    /// reported horizon is `claimed` — set one later than the truth to model
    /// the classic off-by-one conservatism bug.
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

    impl NextActivity for MockStreamer {
        fn next_activity(&self, _now: Cycle) -> Option<Cycle> {
            Some(Cycle::new(self.claimed))
        }

        fn activity_digest(&self) -> u64 {
            self.counter
        }
    }

    /// Drives the mock through the span the scheduler computed from its own
    /// claimed horizon, then verifies the digest.
    fn skip_and_verify(mock: &mut MockStreamer) {
        let now = Cycle::ZERO;
        let span = FastForward::span(now, [mock.next_activity(now)], 1_000);
        let check = SpanCheck::capture([("mock", mock.activity_digest())]);
        // What lockstep would have done during the skipped cycles.
        for c in 0..span {
            mock.tick(now + c);
        }
        check.assert_unchanged([("mock", mock.activity_digest())]);
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
    #[should_panic(expected = "different component list")]
    fn component_list_mismatch_is_caught() {
        let check = SpanCheck::capture([("a", 1u64), ("b", 2u64)]);
        check.assert_unchanged([("a", 1u64)]);
    }
}
