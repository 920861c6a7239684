//! Per-cycle stall attribution.
//!
//! The ablation story of the paper (Fig. 7 ①→⑥) is entirely a story about
//! *why* the PE array does not fire: operands missing because the memory
//! round-trip is exposed, requests losing bank arbitration, the writeback
//! path pushing back, or the tail-end drain after the last compute step.
//! [`StallAttribution`] classifies every non-firing cycle into that taxonomy
//! so a run can report `fired + Σ stalls == total cycles` exactly. It is the
//! per-cause view of the [`CausalLedger`](crate::CausalLedger).

use std::fmt;

use crate::json::JsonValue;

/// An accelerator port involved in a stall.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Port {
    /// The A operand stream.
    A,
    /// The B operand stream.
    B,
    /// The C (accumulator) operand stream.
    C,
    /// The output writeback stream.
    Out,
}

impl Port {
    /// Every port, in reporting order.
    pub const ALL: [Port; 4] = [Port::A, Port::B, Port::C, Port::Out];

    /// The read operand port this is, or `None` for the writeback port.
    #[must_use]
    pub fn operand(self) -> Option<OperandPort> {
        match self {
            Port::A => Some(OperandPort::A),
            Port::B => Some(OperandPort::B),
            Port::C => Some(OperandPort::C),
            Port::Out => None,
        }
    }

    /// Short label (`"A"`, `"B"`, `"C"`, `"OUT"`).
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            Port::A => "A",
            Port::B => "B",
            Port::C => "C",
            Port::Out => "OUT",
        }
    }

    /// The fire rule of every accelerator built from DataMaestros: whether
    /// this port moves one wide word on the fire at `k_step` of a tile's
    /// `k_steps`. A and B move on every fire, C on a tile's first k-step
    /// (the accumulator preload) and OUT on its last (the finished tile).
    ///
    /// # Examples
    ///
    /// ```
    /// use dm_sim::Port;
    ///
    /// assert!(Port::A.moves_on(1, 4) && Port::B.moves_on(3, 4));
    /// assert!(Port::C.moves_on(0, 4) && !Port::C.moves_on(1, 4));
    /// assert!(Port::Out.moves_on(3, 4) && !Port::Out.moves_on(0, 4));
    /// assert_eq!(Port::C.words_per_tile(4), 1);
    /// ```
    #[must_use]
    #[inline]
    pub fn moves_on(self, k_step: u64, k_steps: u64) -> bool {
        match self {
            Port::A | Port::B => true,
            Port::C => k_step == 0,
            Port::Out => k_step + 1 == k_steps,
        }
    }

    /// Wide words this port moves per output tile of `k_steps` fires, by
    /// [`Port::moves_on`].
    #[must_use]
    pub fn words_per_tile(self, k_steps: u64) -> u64 {
        (0..k_steps).filter(|&k| self.moves_on(k, k_steps)).count() as u64
    }
}

/// A *read* operand port — the only ports a `NoOperand`/`BankConflict`
/// stall can name. The writeback stream (`Port::Out`) can never be the
/// missing operand, so the impossible variants are unrepresentable rather
/// than silently aliased into another bucket.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum OperandPort {
    /// The A operand stream.
    A,
    /// The B operand stream.
    B,
    /// The C (accumulator) operand stream.
    C,
}

impl OperandPort {
    /// Every operand port, in reporting order.
    pub const ALL: [OperandPort; 3] = [OperandPort::A, OperandPort::B, OperandPort::C];

    /// Short label (`"A"`, `"B"`, `"C"`).
    #[must_use]
    pub fn label(self) -> &'static str {
        self.port().label()
    }

    /// Dense index in [`OperandPort::ALL`] order, for port-indexed arrays.
    #[must_use]
    pub fn index(self) -> usize {
        self as usize
    }

    /// The corresponding general [`Port`].
    #[must_use]
    pub fn port(self) -> Port {
        match self {
            OperandPort::A => Port::A,
            OperandPort::B => Port::B,
            OperandPort::C => Port::C,
        }
    }
}

/// Why the PE array could not fire on one cycle.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum StallCause {
    /// An operand FIFO was empty and its streamer was *not* losing
    /// arbitration on the previous cycle: the stall is exposed memory
    /// latency or AGU cadence, not contention.
    NoOperand(OperandPort),
    /// An operand FIFO was empty while its streamer lost bank arbitration
    /// on the previous cycle: contention on the scratchpad banks.
    BankConflict(OperandPort),
    /// All operands were ready but the writeback streamer could not accept
    /// the produced tile.
    WritebackBackpressure,
    /// All compute steps have issued; the run is waiting for the writeback
    /// path to drain.
    Drain,
}

impl StallCause {
    /// Every cause, in reporting order.
    pub const ALL: [StallCause; 8] = [
        StallCause::NoOperand(OperandPort::A),
        StallCause::NoOperand(OperandPort::B),
        StallCause::NoOperand(OperandPort::C),
        StallCause::BankConflict(OperandPort::A),
        StallCause::BankConflict(OperandPort::B),
        StallCause::BankConflict(OperandPort::C),
        StallCause::WritebackBackpressure,
        StallCause::Drain,
    ];

    /// Stable human/machine label, e.g. `"bank-conflict(B)"`.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            StallCause::NoOperand(OperandPort::A) => "no-operand(A)",
            StallCause::NoOperand(OperandPort::B) => "no-operand(B)",
            StallCause::NoOperand(OperandPort::C) => "no-operand(C)",
            StallCause::BankConflict(OperandPort::A) => "bank-conflict(A)",
            StallCause::BankConflict(OperandPort::B) => "bank-conflict(B)",
            StallCause::BankConflict(OperandPort::C) => "bank-conflict(C)",
            StallCause::WritebackBackpressure => "writeback-backpressure",
            StallCause::Drain => "drain",
        }
    }

    /// The port a stall charges its cycle to: the missing operand's port
    /// for operand stalls, `Port::Out` for writeback and drain stalls.
    #[must_use]
    pub fn port(self) -> Port {
        match self {
            StallCause::NoOperand(p) | StallCause::BankConflict(p) => p.port(),
            StallCause::WritebackBackpressure | StallCause::Drain => Port::Out,
        }
    }

    /// Dense bucket index, unique per constructible cause (see
    /// [`StallCause::ALL`] for the order). Total over the type: every
    /// variant that can be built has its own bucket.
    #[must_use]
    pub fn index(self) -> usize {
        match self {
            StallCause::NoOperand(OperandPort::A) => 0,
            StallCause::NoOperand(OperandPort::B) => 1,
            StallCause::NoOperand(OperandPort::C) => 2,
            StallCause::BankConflict(OperandPort::A) => 3,
            StallCause::BankConflict(OperandPort::B) => 4,
            StallCause::BankConflict(OperandPort::C) => 5,
            StallCause::WritebackBackpressure => 6,
            StallCause::Drain => 7,
        }
    }
}

impl fmt::Display for StallCause {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// Classification of every cycle of a compute phase: fired, or stalled for
/// exactly one [`StallCause`]. Built by
/// [`CausalLedger::attribution`](crate::CausalLedger::attribution).
///
/// # Examples
///
/// ```
/// use dm_sim::{BlameLeaf, BlamePhase, CausalLedger, OperandPort, StallCause};
///
/// let mut ledger = CausalLedger::new(4);
/// ledger.fire(0);
/// ledger.charge(BlamePhase::Steady, StallCause::NoOperand(OperandPort::A), BlameLeaf::Agu, 1);
/// ledger.charge(BlamePhase::Drain, StallCause::Drain, BlameLeaf::Flush, 1);
/// let att = ledger.attribution();
/// assert_eq!(att.total_cycles(), 3);
/// assert_eq!(att.stalled(), 2);
/// assert_eq!(att.count(StallCause::Drain), 1);
/// ```
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct StallAttribution {
    pub(crate) fired: u64,
    pub(crate) counts: [u64; StallCause::ALL.len()],
}

impl StallAttribution {
    /// Creates an empty attribution (the identity of [`merge`](Self::merge)).
    #[must_use]
    pub fn new() -> Self {
        StallAttribution::default()
    }

    /// Cycles the PE array fired.
    #[must_use]
    pub fn fired(&self) -> u64 {
        self.fired
    }

    /// Cycles attributed to `cause`.
    #[must_use]
    pub fn count(&self, cause: StallCause) -> u64 {
        self.counts[cause.index()]
    }

    /// Total stalled cycles across all causes.
    #[must_use]
    pub fn stalled(&self) -> u64 {
        self.counts.iter().sum()
    }

    /// Total classified cycles: `fired + stalled`. The system asserts this
    /// equals the compute-phase cycle count on every run.
    #[must_use]
    pub fn total_cycles(&self) -> u64 {
        self.fired + self.stalled()
    }

    /// Fraction of classified cycles the array fired (0 for an empty
    /// attribution).
    #[must_use]
    pub fn utilization(&self) -> f64 {
        let total = self.total_cycles();
        if total == 0 {
            0.0
        } else {
            self.fired as f64 / total as f64
        }
    }

    /// `(cause, cycles)` for every cause with a nonzero count, reporting
    /// order.
    #[must_use]
    pub fn breakdown(&self) -> Vec<(StallCause, u64)> {
        StallCause::ALL
            .iter()
            .map(|&c| (c, self.count(c)))
            .filter(|&(_, n)| n > 0)
            .collect()
    }

    /// Merges another attribution into this one (suite-level aggregation).
    pub fn merge(&mut self, other: &StallAttribution) {
        self.fired += other.fired;
        for (mine, theirs) in self.counts.iter_mut().zip(&other.counts) {
            *mine += theirs;
        }
    }

    /// The attribution as a JSON object keyed by cause label.
    #[must_use]
    pub fn to_json(&self) -> JsonValue {
        let mut pairs = vec![("fired".to_owned(), JsonValue::from(self.fired))];
        for &cause in &StallCause::ALL {
            pairs.push((cause.label().to_owned(), JsonValue::from(self.count(cause))));
        }
        JsonValue::Object(pairs)
    }
}

impl fmt::Display for StallAttribution {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let total = self.total_cycles();
        writeln!(
            f,
            "cycles {total} | fired {} ({:.1}%)",
            self.fired,
            self.utilization() * 100.0
        )?;
        for (cause, n) in self.breakdown() {
            writeln!(
                f,
                "  {:<24} {:>10}  ({:.1}%)",
                cause.label(),
                n,
                if total == 0 {
                    0.0
                } else {
                    n as f64 / total as f64 * 100.0
                }
            )?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::blame::{BlameLeaf, BlamePhase};
    use crate::ledger::CausalLedger;

    /// An attribution with `fired` fires and the given per-cause stalls.
    fn attribution(fired: u64, stalls: &[(StallCause, u64)]) -> StallAttribution {
        let mut ledger = CausalLedger::new(1);
        for now in 0..fired {
            ledger.fire(now);
        }
        for &(cause, n) in stalls {
            ledger.charge(BlamePhase::Steady, cause, BlameLeaf::Unattributed, n);
        }
        ledger.attribution()
    }

    #[test]
    fn accounting_is_exact() {
        let att = attribution(
            10,
            &[
                (StallCause::BankConflict(OperandPort::B), 2),
                (StallCause::WritebackBackpressure, 1),
            ],
        );
        assert_eq!(att.fired(), 10);
        assert_eq!(att.stalled(), 3);
        assert_eq!(att.total_cycles(), 13);
        assert_eq!(att.count(StallCause::BankConflict(OperandPort::B)), 2);
        assert_eq!(att.count(StallCause::Drain), 0);
        assert!((att.utilization() - 10.0 / 13.0).abs() < 1e-12);
    }

    #[test]
    fn breakdown_lists_nonzero_causes_in_order() {
        let att = attribution(
            0,
            &[
                (StallCause::Drain, 1),
                (StallCause::NoOperand(OperandPort::A), 1),
            ],
        );
        let causes: Vec<_> = att.breakdown().into_iter().map(|(c, _)| c).collect();
        assert_eq!(
            causes,
            vec![StallCause::NoOperand(OperandPort::A), StallCause::Drain]
        );
    }

    #[test]
    fn merge_accumulates() {
        let mut a = attribution(1, &[(StallCause::Drain, 1)]);
        a.merge(&attribution(0, &[(StallCause::Drain, 1)]));
        assert_eq!(a.count(StallCause::Drain), 2);
        assert_eq!(a.total_cycles(), 3);
    }

    #[test]
    fn labels_are_unique() {
        let labels: std::collections::HashSet<_> =
            StallCause::ALL.iter().map(|c| c.label()).collect();
        assert_eq!(labels.len(), StallCause::ALL.len());
    }

    #[test]
    fn label_and_index_are_injective_over_all() {
        // Every constructible cause gets its own bucket *and* its own
        // label; no variant silently aliases into another's slot.
        let indices: std::collections::HashSet<_> =
            StallCause::ALL.iter().map(|c| c.index()).collect();
        assert_eq!(indices.len(), StallCause::ALL.len());
        assert!(StallCause::ALL
            .iter()
            .all(|c| c.index() < StallCause::ALL.len()));
        // ALL is itself exhaustive: index() maps it onto 0..len in order.
        for (i, cause) in StallCause::ALL.iter().enumerate() {
            assert_eq!(cause.index(), i, "{} out of reporting order", cause.label());
        }
        let labels: std::collections::HashSet<_> =
            StallCause::ALL.iter().map(|c| c.label()).collect();
        assert_eq!(labels.len(), StallCause::ALL.len());
    }

    #[test]
    fn ports_round_trip_through_operand_ports() {
        for (i, p) in OperandPort::ALL.iter().enumerate() {
            assert_eq!(p.index(), i);
            assert_eq!(p.port().operand(), Some(*p));
        }
        assert_eq!(Port::Out.operand(), None);
    }

    #[test]
    fn json_reports_all_causes() {
        let json = attribution(1, &[(StallCause::Drain, 1)]).to_json();
        assert_eq!(json.get("fired").unwrap().as_u64(), Some(1));
        assert_eq!(json.get("drain").unwrap().as_u64(), Some(1));
        assert_eq!(json.get("no-operand(A)").unwrap().as_u64(), Some(0));
    }

    #[test]
    fn display_mentions_every_nonzero_cause() {
        let text = attribution(1, &[(StallCause::BankConflict(OperandPort::A), 1)]).to_string();
        assert!(text.contains("bank-conflict(A)"));
        assert!(!text.contains("drain"));
    }
}
