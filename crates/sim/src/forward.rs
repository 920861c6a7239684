//! Deterministic fast-forward: the debug-build check behind idle-cycle
//! elision.
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
    #[should_panic(expected = "different component list")]
    fn component_list_mismatch_is_caught() {
        let check = SpanCheck::capture([("a", 1u64), ("b", 2u64)]);
        check.assert_unchanged([("a", 1u64)]);
    }
}
