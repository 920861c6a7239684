//! Causal blame-chain taxonomy.
//!
//! [`StallAttribution`](crate::StallAttribution) classifies every
//! non-firing PE cycle at the PE boundary: *which* operand was missing, or
//! whether writeback pushed back. The blame walk goes one level deeper: for
//! every stalled cycle the system walks the dependency chain backwards —
//! empty operand FIFO → which streamer stage was blocked → AGU cadence vs.
//! lost arbitration vs. in-flight memory latency vs. the coarse-grained sync
//! gate — and names a single *component instance* leaf ([`BlameLeaf`]),
//! e.g. `bank[3]` or `streamer.B.agu`, nested under the cause bucket.
//!
//! Runs are segmented into fill / steady / drain phases ([`BlamePhase`]):
//! fill is every cycle before the first PE fire, drain is every cycle after
//! the last compute step issued, steady is the rest.
//!
//! The system charges each stalled cycle once, as `(phase, cause, leaf)`, to
//! the [`CausalLedger`](crate::CausalLedger); the per-phase blame tree is
//! one of the ledger's views.

use std::fmt;

use crate::stall::StallCause;

/// Which part of a run a cycle belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum BlamePhase {
    /// Before the first PE fire: the pipeline is filling.
    Fill,
    /// Between the first fire and the last issued compute step.
    Steady,
    /// After the last compute step issued: waiting for writeback to drain.
    Drain,
}

impl BlamePhase {
    /// Every phase, in run order.
    pub const ALL: [BlamePhase; 3] = [BlamePhase::Fill, BlamePhase::Steady, BlamePhase::Drain];

    /// Stable lowercase label.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            BlamePhase::Fill => "fill",
            BlamePhase::Steady => "steady",
            BlamePhase::Drain => "drain",
        }
    }

    pub(crate) fn index(self) -> usize {
        match self {
            BlamePhase::Fill => 0,
            BlamePhase::Steady => 1,
            BlamePhase::Drain => 2,
        }
    }
}

impl fmt::Display for BlamePhase {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// The component instance a stalled cycle is ultimately charged to.
///
/// The leaf is interpreted relative to the [`StallCause`] it nests under
/// (which names the port): `Agu` under `NoOperand(B)` renders as
/// `streamer.B.agu`, `Bank(3)` renders as `bank[3]` regardless of port.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum BlameLeaf {
    /// The streamer's address-generation cadence: the AGU had not yet
    /// produced the address the blocked channel needed.
    Agu,
    /// The coarse-grained sync gate: addresses were queued but the gate
    /// kept the channel from issuing its next request.
    Gate,
    /// A scratchpad bank: the request lost arbitration there, or the
    /// response from that bank was still in flight.
    Bank(usize),
    /// The writeback path itself during drain: data written, tail flushing.
    Flush,
    /// The walk found no blocked stage (backstop; conservation still holds).
    Unattributed,
}

impl BlameLeaf {
    /// Renders the leaf relative to the cause it nests under, e.g.
    /// `streamer.B.agu`, `bank[3]`, `streamer.OUT.flush`.
    #[must_use]
    pub fn label(self, cause: StallCause) -> String {
        let port = cause.port().label();
        match self {
            BlameLeaf::Agu => format!("streamer.{port}.agu"),
            BlameLeaf::Gate => format!("streamer.{port}.gate"),
            BlameLeaf::Bank(i) => format!("bank[{i}]"),
            BlameLeaf::Flush => format!("streamer.{port}.flush"),
            BlameLeaf::Unattributed => "unattributed".to_owned(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stall::OperandPort;

    const NO_B: StallCause = StallCause::NoOperand(OperandPort::B);
    const BC_A: StallCause = StallCause::BankConflict(OperandPort::A);

    #[test]
    fn leaf_labels_render_relative_to_cause() {
        assert_eq!(BlameLeaf::Agu.label(NO_B), "streamer.B.agu");
        assert_eq!(BlameLeaf::Gate.label(BC_A), "streamer.A.gate");
        assert_eq!(BlameLeaf::Bank(3).label(BC_A), "bank[3]");
        assert_eq!(
            BlameLeaf::Flush.label(StallCause::Drain),
            "streamer.OUT.flush"
        );
        assert_eq!(
            BlameLeaf::Agu.label(StallCause::WritebackBackpressure),
            "streamer.OUT.agu"
        );
        assert_eq!(BlameLeaf::Unattributed.label(NO_B), "unattributed");
    }
}
