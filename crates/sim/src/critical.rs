//! Critical-path extraction over the token-level causal dependency graph.
//!
//! The blame profiler ([`crate::blame`]) answers *where cycles were lost*;
//! this module answers *which dependency chain bounds end-to-end latency*
//! and *how much a resource improvement would actually buy*. The full
//! causal DAG — AGU issue → bank grant → response delivery → channel FIFO
//! entry → PE fire → writeback flush, plus back-pressure edges — would need
//! per-token storage to materialize. We never build it. The accelerator is
//! single-issue and in-order: on every compute cycle exactly one edge of
//! that DAG is *binding* (the last writer into the blocked PE handshake),
//! and every compute cycle lies on the critical path. So the path reduces
//! to O(1) state: classify each cycle's binding edge into a [`CritClass`]
//! and count. The blame-chain walk already resolves the last
//! writer (which component instance the stall is waiting on), which is why
//! [`CritClass::for_stall`] is a pure function of `(StallCause, BlameLeaf)`
//! — the sparse last-writer state is exactly the O(ports + banks) state the
//! walk maintains, and no per-token allocation ever happens.
//!
//! The composition is a view of the [`CausalLedger`](crate::CausalLedger)
//! ([`CausalLedger::critical`](crate::CausalLedger::critical)): fires on
//! [`CritClass::PeIssue`], every charged `(cause, leaf)` on its
//! [`CritClass::for_stall`]. So it refines the stall attribution class by
//! class and sums to the compute cycle count by construction, and elided
//! fast-forward spans, one ledger charge each, need no replay of their own.
//!
//! [`CriticalProfile::what_ifs`] turns the composition into projections:
//! predicted total-cycle deltas for "read latency → 1", "conflicts free"
//! and "FIFO depth 2×". The conflict and FIFO projections remove exactly
//! the cycles their resource contributes to the path, assuming no
//! second-order rebinding. The latency projection additionally models the
//! first-order rebinding that re-simulation shows always happens: when the
//! exposed round trip collapses, the request stream compresses `L`-fold and
//! serialization the latency used to hide re-surfaces (as bank conflicts).
//! That re-exposure is bracketed between zero (perfect overlap) and one
//! cycle per `L` of formerly exposed latency (no overlap), and the
//! projection commits the midpoint of the bracket. In every case the sign
//! is conservative: a positive delta never predicts a saving that making
//! the change would contradict. Projections flagged [`WhatIf::simulable`]
//! map to a concrete configuration change and are validated against actual
//! re-simulation in the system tests — the latency projection within 10 %
//! of the truly-simulated latency-1 run on latency-bound workloads.

use std::fmt;

use crate::blame::BlameLeaf;
use crate::json::JsonValue;
use crate::stall::StallCause;

/// The resource whose dependency edge binds one on-path cycle.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum CritClass {
    /// The PE array fired: the cycle advanced useful work.
    PeIssue,
    /// An operand response was still in flight: exposed bank read latency.
    MemLatency,
    /// The operand's request lost bank arbitration: scratchpad contention.
    BankConflict,
    /// The AGU (or the coarse-grained sync gate) had not yet produced or
    /// released the address the blocked channel needed: issue cadence.
    AguThroughput,
    /// The writeback FIFO could not accept the produced tile: capacity.
    FifoCapacity,
    /// The tail-end writeback flush after the last compute step.
    WritebackFlush,
}

impl CritClass {
    /// Every class, in reporting order.
    pub const ALL: [CritClass; 6] = [
        CritClass::PeIssue,
        CritClass::MemLatency,
        CritClass::BankConflict,
        CritClass::AguThroughput,
        CritClass::FifoCapacity,
        CritClass::WritebackFlush,
    ];

    /// Stable human/machine label, e.g. `"memory-latency"`.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            CritClass::PeIssue => "pe-issue",
            CritClass::MemLatency => "memory-latency",
            CritClass::BankConflict => "bank-conflict",
            CritClass::AguThroughput => "agu-throughput",
            CritClass::FifoCapacity => "fifo-capacity",
            CritClass::WritebackFlush => "writeback-flush",
        }
    }

    /// Dense index, unique per class ([`CritClass::ALL`] order).
    #[must_use]
    pub fn index(self) -> usize {
        match self {
            CritClass::PeIssue => 0,
            CritClass::MemLatency => 1,
            CritClass::BankConflict => 2,
            CritClass::AguThroughput => 3,
            CritClass::FifoCapacity => 4,
            CritClass::WritebackFlush => 5,
        }
    }

    /// Classifies the binding edge of one stalled cycle from its stall
    /// cause and resolved blame leaf. Total over both types; the fallback
    /// for an [`BlameLeaf::Unattributed`] walk charges the class the cause
    /// itself names, so conservation never leaks a cycle.
    #[must_use]
    pub fn for_stall(cause: StallCause, leaf: BlameLeaf) -> CritClass {
        match cause {
            StallCause::NoOperand(_) => match leaf {
                // The missing word is in flight from a bank: the binding
                // edge is the response-delivery edge (exposed latency).
                BlameLeaf::Bank(_) | BlameLeaf::Unattributed => CritClass::MemLatency,
                // The request was never issued: address generation (or the
                // sync gate holding it) is the binding producer.
                BlameLeaf::Agu | BlameLeaf::Gate => CritClass::AguThroughput,
                BlameLeaf::Flush => CritClass::WritebackFlush,
            },
            StallCause::BankConflict(_) => CritClass::BankConflict,
            StallCause::WritebackBackpressure => CritClass::FifoCapacity,
            StallCause::Drain => CritClass::WritebackFlush,
        }
    }
}

impl fmt::Display for CritClass {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// One what-if projection: the predicted total-cycle saving if a single
/// resource constraint were relaxed, with everything else held fixed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WhatIf {
    /// Stable projection name, e.g. `"read-latency->1"`.
    pub name: &'static str,
    /// Predicted cycles saved (path shortening; an upper bound).
    pub delta: u64,
    /// Projected path length after the change: `path - delta`.
    pub projected: u64,
    /// Whether the projection maps to a concrete configuration change that
    /// a test can re-simulate (`read_latency = 1`, doubled FIFO depths).
    /// "Conflicts free" has no configuration knob, so it is sign-checked
    /// against the composition only.
    pub simulable: bool,
}

impl WhatIf {
    /// Serializes one projection row with fixed key order.
    #[must_use]
    pub fn to_json(&self) -> JsonValue {
        JsonValue::object([
            ("name".to_owned(), JsonValue::from(self.name)),
            ("delta".to_owned(), JsonValue::from(self.delta)),
            ("projected".to_owned(), JsonValue::from(self.projected)),
            ("simulable".to_owned(), JsonValue::from(self.simulable)),
        ])
    }
}

/// The critical-path composition of one run: every compute cycle charged to
/// the [`CritClass`] whose dependency edge bound it. Built by
/// [`CausalLedger::critical`](crate::CausalLedger::critical).
///
/// # Examples
///
/// ```
/// use dm_sim::{BlameLeaf, BlamePhase, CausalLedger, CritClass, OperandPort, StallCause};
///
/// let mut ledger = CausalLedger::new(4);
/// ledger.fire(0);
/// let cause = StallCause::NoOperand(OperandPort::A);
/// ledger.charge(BlamePhase::Steady, cause, BlameLeaf::Bank(2), 1);
/// let crit = ledger.critical(4);
/// assert_eq!(crit.path_length(), 2);
/// assert_eq!(crit.on_path(CritClass::MemLatency), 1);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CriticalProfile {
    read_latency: u64,
    pub(crate) counts: [u64; CritClass::ALL.len()],
}

impl CriticalProfile {
    /// An empty profile for a system with the given bank read latency (the
    /// latency is what the `"read-latency->1"` projection rescales by); the
    /// identity of [`merge`](Self::merge).
    ///
    /// # Panics
    /// If `read_latency` is zero (combinational reads are not modelled).
    #[must_use]
    pub fn new(read_latency: u64) -> Self {
        assert!(read_latency >= 1, "read latency must be at least one cycle");
        CriticalProfile {
            read_latency,
            counts: [0; CritClass::ALL.len()],
        }
    }

    /// The bank read latency this profile was recorded under.
    #[must_use]
    pub fn read_latency(&self) -> u64 {
        self.read_latency
    }

    /// On-path cycles bound by `class`.
    #[must_use]
    pub fn on_path(&self, class: CritClass) -> u64 {
        self.counts[class.index()]
    }

    /// The critical path length. Single-issue in-order execution puts every
    /// compute cycle on the path, so this equals the compute cycle count —
    /// which is what makes the composition exhaustive rather than sampled.
    #[must_use]
    pub fn path_length(&self) -> u64 {
        self.counts.iter().sum()
    }

    /// `(class, cycles)` for every class with a nonzero count, reporting
    /// order.
    #[must_use]
    pub fn breakdown(&self) -> Vec<(CritClass, u64)> {
        CritClass::ALL
            .iter()
            .map(|&c| (c, self.on_path(c)))
            .filter(|&(_, n)| n > 0)
            .collect()
    }

    /// Merges another profile (suite-level aggregation).
    ///
    /// # Panics
    /// If the profiles were recorded under different read latencies — their
    /// `"read-latency->1"` projections would not compose.
    pub fn merge(&mut self, other: &CriticalProfile) {
        assert_eq!(
            self.read_latency, other.read_latency,
            "read latency mismatch in merge"
        );
        for (mine, theirs) in self.counts.iter_mut().zip(&other.counts) {
            *mine += theirs;
        }
    }

    /// The committed what-if projections, in reporting order.
    ///
    /// * `"read-latency->1"` — at latency 1 the round trip hides entirely
    ///   (a latency-1 run exposes zero memory-latency cycles), so the
    ///   projection starts from removing all `mem` on-path cycles. But the
    ///   `L`-fold compressed request stream re-exposes serialization that
    ///   the latency used to hide, bracketed between `0` (perfect overlap)
    ///   and `mem/L` (one cycle per formerly exposed wait); the committed
    ///   delta is the bracket midpoint `mem − ⌊mem/2L⌋`. Simulable
    ///   (`read_latency = 1`); validated within 10 % of re-simulation.
    /// * `"conflicts-free"` — an ideal crossbar removes every on-path
    ///   bank-conflict cycle. No configuration knob; sign-checked only.
    /// * `"fifo-depth-2x"` — doubling buffer depths removes (at least the
    ///   projected) writeback capacity stalls; deeper operand FIFOs can
    ///   additionally lengthen prefetch distance, so the realized saving
    ///   may exceed this delta. Simulable (doubled `BufferDepths`).
    #[must_use]
    pub fn what_ifs(&self) -> Vec<WhatIf> {
        let path = self.path_length();
        let mem = self.on_path(CritClass::MemLatency);
        let latency_delta = if self.read_latency <= 1 {
            0
        } else {
            mem - mem / (2 * self.read_latency)
        };
        let row = |name, delta: u64, simulable| WhatIf {
            name,
            delta,
            projected: path - delta,
            simulable,
        };
        vec![
            row("read-latency->1", latency_delta, true),
            row(
                "conflicts-free",
                self.on_path(CritClass::BankConflict),
                false,
            ),
            row("fifo-depth-2x", self.on_path(CritClass::FifoCapacity), true),
        ]
    }

    /// The profile as canonical JSON: path length, read latency, the full
    /// six-class composition (every class, fixed order, zeros included so
    /// diffs never chase missing keys) and the projection table. Equal
    /// profiles serialize byte-identically.
    #[must_use]
    pub fn to_json(&self) -> JsonValue {
        JsonValue::object([
            ("path".to_owned(), JsonValue::from(self.path_length())),
            (
                "read_latency".to_owned(),
                JsonValue::from(self.read_latency),
            ),
            (
                "composition".to_owned(),
                JsonValue::object(
                    CritClass::ALL
                        .iter()
                        .map(|&c| (c.label().to_owned(), JsonValue::from(self.on_path(c)))),
                ),
            ),
            (
                "what_ifs".to_owned(),
                JsonValue::Array(self.what_ifs().iter().map(WhatIf::to_json).collect()),
            ),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::blame::BlamePhase;
    use crate::ledger::CausalLedger;
    use crate::stall::OperandPort;

    /// A profile under `read_latency` with `fired` fires and the given
    /// `(cause, leaf, cycles)` stalls.
    fn profile(
        read_latency: u64,
        fired: u64,
        stalls: &[(StallCause, BlameLeaf, u64)],
    ) -> CriticalProfile {
        let mut ledger = CausalLedger::new(4);
        for now in 0..fired {
            ledger.fire(now);
        }
        for &(cause, leaf, n) in stalls {
            ledger.charge(BlamePhase::Steady, cause, leaf, n);
        }
        ledger.critical(read_latency)
    }

    const NO_B: StallCause = StallCause::NoOperand(OperandPort::B);
    const BC_A: StallCause = StallCause::BankConflict(OperandPort::A);

    #[test]
    fn classification_is_total_and_stable() {
        assert_eq!(
            CritClass::for_stall(NO_B, BlameLeaf::Bank(3)),
            CritClass::MemLatency
        );
        assert_eq!(
            CritClass::for_stall(NO_B, BlameLeaf::Unattributed),
            CritClass::MemLatency
        );
        assert_eq!(
            CritClass::for_stall(NO_B, BlameLeaf::Agu),
            CritClass::AguThroughput
        );
        assert_eq!(
            CritClass::for_stall(NO_B, BlameLeaf::Gate),
            CritClass::AguThroughput
        );
        assert_eq!(
            CritClass::for_stall(BC_A, BlameLeaf::Bank(0)),
            CritClass::BankConflict
        );
        assert_eq!(
            CritClass::for_stall(StallCause::WritebackBackpressure, BlameLeaf::Unattributed),
            CritClass::FifoCapacity
        );
        assert_eq!(
            CritClass::for_stall(StallCause::Drain, BlameLeaf::Flush),
            CritClass::WritebackFlush
        );
        // ALL is exhaustive and index() maps it onto 0..len in order.
        for (i, class) in CritClass::ALL.iter().enumerate() {
            assert_eq!(class.index(), i, "{} out of reporting order", class.label());
        }
        let labels: std::collections::HashSet<_> =
            CritClass::ALL.iter().map(|c| c.label()).collect();
        assert_eq!(labels.len(), CritClass::ALL.len());
    }

    #[test]
    fn merge_requires_matching_latency_and_accumulates() {
        let mut a = profile(4, 1, &[]);
        a.merge(&profile(4, 0, &[(NO_B, BlameLeaf::Bank(0), 1)]));
        assert_eq!(a.path_length(), 2);
        assert_eq!(a.on_path(CritClass::MemLatency), 1);
    }

    #[test]
    #[should_panic(expected = "read latency mismatch")]
    fn merge_rejects_cross_latency_profiles() {
        let mut a = CriticalProfile::new(4);
        a.merge(&CriticalProfile::new(16));
    }

    #[test]
    fn what_ifs_project_from_the_composition() {
        let crit = profile(
            16,
            100,
            &[
                (NO_B, BlameLeaf::Bank(0), 160),
                (BC_A, BlameLeaf::Bank(1), 7),
                (
                    StallCause::WritebackBackpressure,
                    BlameLeaf::Unattributed,
                    5,
                ),
            ],
        );
        let what_ifs = crit.what_ifs();
        let by_name = |name: &str| {
            *what_ifs
                .iter()
                .find(|w| w.name == name)
                .unwrap_or_else(|| panic!("missing what-if {name}"))
        };
        // 160 memory-latency cycles at L=16: dropping to L=1 removes all of
        // them but re-exposes the bracket midpoint 160/(2·16) = 5 cycles of
        // previously hidden serialization.
        let latency = by_name("read-latency->1");
        assert_eq!(latency.delta, 155);
        assert_eq!(latency.projected, crit.path_length() - 155);
        assert!(latency.simulable);
        let conflicts = by_name("conflicts-free");
        assert_eq!(conflicts.delta, 7);
        assert!(!conflicts.simulable);
        let fifo = by_name("fifo-depth-2x");
        assert_eq!(fifo.delta, 5);
        assert!(fifo.simulable);
        // Every projection shortens the path, never below zero.
        for w in &what_ifs {
            assert_eq!(w.projected + w.delta, crit.path_length());
        }
    }

    #[test]
    fn latency_one_projection_is_a_noop() {
        let crit = profile(1, 0, &[(NO_B, BlameLeaf::Bank(0), 40)]);
        let latency = crit.what_ifs()[0];
        assert_eq!(latency.name, "read-latency->1");
        assert_eq!(latency.delta, 0);
        assert_eq!(latency.projected, crit.path_length());
    }

    #[test]
    fn json_is_deterministic_and_carries_all_classes() {
        let crit = profile(4, 1, &[(NO_B, BlameLeaf::Bank(1), 1)]);
        let json = crit.to_json();
        assert_eq!(json.to_json(), crit.clone().to_json().to_json());
        assert_eq!(json.get("path").unwrap().as_u64(), Some(2));
        assert_eq!(json.get("read_latency").unwrap().as_u64(), Some(4));
        let comp = json.get("composition").unwrap();
        for class in CritClass::ALL {
            assert!(
                comp.get(class.label()).is_some(),
                "composition must carry {} even when zero",
                class.label()
            );
        }
        assert_eq!(comp.get("memory-latency").unwrap().as_u64(), Some(1));
        let what_ifs = json.get("what_ifs").unwrap().as_array().unwrap();
        assert_eq!(what_ifs.len(), 3);
        assert_eq!(
            what_ifs[0].get("name").unwrap().as_str(),
            Some("read-latency->1")
        );
    }
}
