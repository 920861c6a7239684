//! The causal ledger: the one per-cycle record of why the PE array did or
//! did not fire.
//!
//! Every compute cycle is written to the ledger exactly once: a fire
//! ([`CausalLedger::fire`]), or a stall charged to one component leaf under
//! its cause and run phase ([`CausalLedger::charge`]). Fast-forward spans,
//! which the span check proves stall identically on every cycle, are one
//! `charge(.., span)`. Everything the reports show about lost cycles is a
//! view computed from this table after the run:
//!
//! * [`CausalLedger::attribution`] — the per-cause marginal
//!   ([`StallAttribution`]);
//! * [`CausalLedger::port_stalls`] — the per-port marginal, through
//!   [`StallCause::port`], so drain cycles land on `OUT` by construction;
//! * [`CausalLedger::critical`] — the critical-path composition
//!   ([`CriticalProfile`]), each leaf classified by [`CritClass::for_stall`];
//! * [`CausalLedger::to_json`] — the phase-segmented blame tree.
//!
//! Because the views are marginals of one table, they agree with each other
//! by construction; the only contract left to check is the ledger against
//! the loop's own counters (fires against active cycles, the total against
//! compute cycles).

use crate::blame::{BlameLeaf, BlamePhase};
use crate::critical::{CritClass, CriticalProfile};
use crate::forward::Periodic;
use crate::json::JsonValue;
use crate::stall::{Port, StallAttribution, StallCause};

/// Number of non-bank leaf slots per cause row.
const FIXED_LEAVES: usize = 4;

/// Fires plus stall counts keyed by phase × cause × leaf.
///
/// Storage is one flat `phases × causes × (4 + banks)` table, so a charge is
/// one add: cheap enough for the per-cycle hot loop and O(1) for a
/// fast-forward span.
///
/// # Examples
///
/// ```
/// use dm_sim::{BlameLeaf, BlamePhase, CausalLedger, CritClass, OperandPort, StallCause};
///
/// let mut ledger = CausalLedger::new(4);
/// ledger.charge(BlamePhase::Fill, StallCause::NoOperand(OperandPort::A), BlameLeaf::Bank(2), 3);
/// ledger.fire(3);
/// assert_eq!(ledger.total(), 4);
/// assert_eq!(ledger.attribution().stalled(), 3);
/// assert_eq!(ledger.critical(1).on_path(CritClass::MemLatency), 3);
/// ```
#[derive(Debug, PartialEq, Eq)]
pub struct CausalLedger {
    banks: usize,
    fired: u64,
    first_fire: Option<u64>,
    last_fire: Option<u64>,
    stalls: Vec<u64>,
}

crate::clone_fields!(CausalLedger {
    banks,
    fired,
    first_fire,
    last_fire,
    stalls
});

impl CausalLedger {
    /// An empty ledger for a machine with `banks` scratchpad banks.
    #[must_use]
    pub fn new(banks: usize) -> Self {
        CausalLedger {
            banks,
            fired: 0,
            first_fire: None,
            last_fire: None,
            stalls: vec![0; BlamePhase::ALL.len() * StallCause::ALL.len() * (FIXED_LEAVES + banks)],
        }
    }

    /// Records a firing cycle at cycle `now`. A fire is steady by
    /// definition: the first fire ends the fill phase, and no fire happens
    /// once drain begins.
    #[inline]
    pub fn fire(&mut self, now: u64) {
        self.fired += 1;
        self.first_fire.get_or_insert(now);
        self.last_fire = Some(now);
    }

    /// Charges `n` stalled cycles in `phase` to `leaf` under `cause`: one
    /// lockstep cycle (`n = 1`) or a whole fast-forward span in O(1).
    ///
    /// # Panics
    /// If `leaf` names a bank this ledger was not built for.
    #[inline]
    pub fn charge(&mut self, phase: BlamePhase, cause: StallCause, leaf: BlameLeaf, n: u64) {
        let slot = self.slot(phase, cause, leaf);
        self.stalls[slot] += n;
    }

    fn row(&self) -> usize {
        FIXED_LEAVES + self.banks
    }

    #[inline]
    fn slot(&self, phase: BlamePhase, cause: StallCause, leaf: BlameLeaf) -> usize {
        let leaf_slot = match leaf {
            BlameLeaf::Agu => 0,
            BlameLeaf::Gate => 1,
            BlameLeaf::Flush => 2,
            BlameLeaf::Unattributed => 3,
            BlameLeaf::Bank(i) => {
                assert!(
                    i < self.banks,
                    "bank {i} out of range ({} banks)",
                    self.banks
                );
                FIXED_LEAVES + i
            }
        };
        (phase.index() * StallCause::ALL.len() + cause.index()) * self.row() + leaf_slot
    }

    /// Leaves in reporting order: the four fixed leaves, then every bank.
    fn leaf_order(&self) -> impl Iterator<Item = BlameLeaf> {
        [
            BlameLeaf::Agu,
            BlameLeaf::Gate,
            BlameLeaf::Flush,
            BlameLeaf::Unattributed,
        ]
        .into_iter()
        .chain((0..self.banks).map(BlameLeaf::Bank))
    }

    /// Cycles charged to `leaf` under `cause` in `phase`.
    fn count(&self, phase: BlamePhase, cause: StallCause, leaf: BlameLeaf) -> u64 {
        self.stalls[self.slot(phase, cause, leaf)]
    }

    /// Cycles charged to `leaf` under `cause`, all phases.
    fn leaf_total(&self, cause: StallCause, leaf: BlameLeaf) -> u64 {
        BlamePhase::ALL
            .iter()
            .map(|&p| self.count(p, cause, leaf))
            .sum()
    }

    /// Cycles charged under `cause`, all phases and leaves.
    #[must_use]
    pub fn cause_total(&self, cause: StallCause) -> u64 {
        self.leaf_order()
            .map(|leaf| self.leaf_total(cause, leaf))
            .sum()
    }

    /// Cycles the PE fired.
    #[must_use]
    pub fn fired(&self) -> u64 {
        self.fired
    }

    /// Cycles the PE fired during `phase` (every fire is steady).
    #[must_use]
    pub fn fired_in(&self, phase: BlamePhase) -> u64 {
        if phase == BlamePhase::Steady {
            self.fired
        } else {
            0
        }
    }

    /// Stalled cycles charged during `phase`.
    #[must_use]
    pub fn stalled_in(&self, phase: BlamePhase) -> u64 {
        let len = StallCause::ALL.len() * self.row();
        let start = phase.index() * len;
        self.stalls[start..start + len].iter().sum()
    }

    /// Stalled cycles charged, all phases.
    #[must_use]
    pub fn stalled(&self) -> u64 {
        self.stalls.iter().sum()
    }

    /// Every recorded cycle: `fired + stalled`.
    #[must_use]
    pub fn total(&self) -> u64 {
        self.fired + self.stalled()
    }

    /// Cycle of the first PE fire, if any.
    #[must_use]
    pub fn first_fire(&self) -> Option<u64> {
        self.first_fire
    }

    /// Cycle of the last PE fire, if any.
    #[must_use]
    pub fn last_fire(&self) -> Option<u64> {
        self.last_fire
    }

    /// `(cause, leaf, cycles)` for every nonzero leaf summed over phases, in
    /// reporting order.
    #[must_use]
    pub fn leaves(&self) -> Vec<(StallCause, BlameLeaf, u64)> {
        StallCause::ALL
            .iter()
            .flat_map(|&cause| {
                self.leaf_order()
                    .map(move |leaf| (cause, leaf, self.leaf_total(cause, leaf)))
            })
            .filter(|&(_, _, n)| n > 0)
            .collect()
    }

    /// The per-cause view: fires plus each cause's stalled cycles.
    #[must_use]
    pub fn attribution(&self) -> StallAttribution {
        let mut att = StallAttribution::new();
        att.fired = self.fired;
        for (count, &cause) in att.counts.iter_mut().zip(&StallCause::ALL) {
            *count = self.cause_total(cause);
        }
        att
    }

    /// The per-port view: stalled cycles by the port each cause charges
    /// ([`StallCause::port`]), in [`Port::ALL`] order. Drain and writeback
    /// stalls land on `OUT`.
    #[must_use]
    pub fn port_stalls(&self) -> [(Port, u64); 4] {
        let att = self.attribution();
        Port::ALL.map(|port| {
            let n = StallCause::ALL
                .iter()
                .filter(|cause| cause.port() == port)
                .map(|&cause| att.count(cause))
                .sum();
            (port, n)
        })
    }

    /// The critical-path view under bank read latency `read_latency`: fires
    /// on [`CritClass::PeIssue`], every leaf on [`CritClass::for_stall`].
    ///
    /// # Panics
    /// If `read_latency` is zero.
    #[must_use]
    pub fn critical(&self, read_latency: u64) -> CriticalProfile {
        let mut crit = CriticalProfile::new(read_latency);
        crit.counts[CritClass::PeIssue.index()] = self.fired;
        for (cause, leaf, n) in self.leaves() {
            crit.counts[CritClass::for_stall(cause, leaf).index()] += n;
        }
        crit
    }

    /// Merges another ledger (suite-level aggregation). Fire bounds keep the
    /// earliest first fire and the latest last fire.
    ///
    /// # Panics
    /// If the ledgers were built for different bank counts.
    pub fn merge(&mut self, other: &CausalLedger) {
        assert_eq!(self.banks, other.banks, "bank count mismatch in merge");
        for (mine, theirs) in self.stalls.iter_mut().zip(&other.stalls) {
            *mine += theirs;
        }
        self.fired += other.fired;
        self.first_fire = match (self.first_fire, other.first_fire) {
            (Some(a), Some(b)) => Some(a.min(b)),
            (a, b) => a.or(b),
        };
        self.last_fire = match (self.last_fire, other.last_fire) {
            (Some(a), Some(b)) => Some(a.max(b)),
            (a, b) => a.or(b),
        };
    }

    /// A cause → leaf tree as nested JSON (`{cause: {leaf: cycles}}`),
    /// nonzero entries only, reporting order.
    fn tree_json(&self, count: impl Fn(StallCause, BlameLeaf) -> u64) -> JsonValue {
        let mut causes = Vec::new();
        for &cause in &StallCause::ALL {
            let leaves: Vec<(String, JsonValue)> = self
                .leaf_order()
                .filter_map(|leaf| {
                    let n = count(cause, leaf);
                    (n > 0).then(|| (leaf.label(cause), JsonValue::from(n)))
                })
                .collect();
            if !leaves.is_empty() {
                causes.push((cause.label().to_owned(), JsonValue::Object(leaves)));
            }
        }
        JsonValue::Object(causes)
    }

    /// The blame view as canonical JSON: fire bounds, per-phase cycle counts
    /// and cause → leaf trees, plus the all-phase tree. Key order is fixed
    /// (phases in run order, causes and leaves in reporting order) so equal
    /// ledgers serialize byte-identically.
    #[must_use]
    pub fn to_json(&self) -> JsonValue {
        let phase_json = |phase: BlamePhase| {
            let stalled = self.stalled_in(phase);
            JsonValue::object([
                (
                    "cycles".to_owned(),
                    JsonValue::from(self.fired_in(phase) + stalled),
                ),
                ("fired".to_owned(), JsonValue::from(self.fired_in(phase))),
                ("stalled".to_owned(), JsonValue::from(stalled)),
                (
                    "causes".to_owned(),
                    self.tree_json(|cause, leaf| self.count(phase, cause, leaf)),
                ),
            ])
        };
        let bound = |cycle: Option<u64>| match cycle {
            Some(c) => JsonValue::from(c),
            None => JsonValue::Null,
        };
        JsonValue::object([
            ("first_fire".to_owned(), bound(self.first_fire)),
            ("last_fire".to_owned(), bound(self.last_fire)),
            (
                "phases".to_owned(),
                JsonValue::object(
                    BlamePhase::ALL
                        .iter()
                        .map(|&p| (p.label().to_owned(), phase_json(p))),
                ),
            ),
            (
                "total".to_owned(),
                self.tree_json(|cause, leaf| self.leaf_total(cause, leaf)),
            ),
        ])
    }
}

impl Periodic for CausalLedger {
    /// `k` more periods of fires and stalls. The first fire stays; the
    /// last moves on by `k` periods.
    fn repeat_since(&mut self, earlier: &Self, k: u64) {
        self.fired.repeat_since(&earlier.fired, k);
        self.last_fire.repeat_since(&earlier.last_fire, k);
        self.stalls.repeat_since(&earlier.stalls, k);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::SplitMix64;
    use crate::stall::OperandPort;

    const NO_B: StallCause = StallCause::NoOperand(OperandPort::B);
    const BC_A: StallCause = StallCause::BankConflict(OperandPort::A);
    const BANKS: usize = 32;

    fn random_leaf(rng: &mut SplitMix64) -> BlameLeaf {
        match rng.below(5) {
            0 => BlameLeaf::Agu,
            1 => BlameLeaf::Gate,
            2 => BlameLeaf::Flush,
            3 => BlameLeaf::Unattributed,
            _ => BlameLeaf::Bank(rng.below(BANKS as u64) as usize),
        }
    }

    /// A random sequence of fires and charges, recorded twice: once with
    /// each charge as one `charge(.., k)`, once as `k` unit charges.
    fn random_ledgers(rng: &mut SplitMix64) -> (CausalLedger, CausalLedger) {
        let mut bulk = CausalLedger::new(BANKS);
        let mut unit = CausalLedger::new(BANKS);
        let mut now = 0u64;
        for _ in 0..rng.below(41) {
            if rng.below(3) == 0 {
                bulk.fire(now);
                unit.fire(now);
                now += 1;
                continue;
            }
            let phase = BlamePhase::ALL[rng.below(3) as usize];
            let cause = StallCause::ALL[rng.below(StallCause::ALL.len() as u64) as usize];
            let leaf = random_leaf(rng);
            let k = rng.below(21);
            bulk.charge(phase, cause, leaf, k);
            for _ in 0..k {
                unit.charge(phase, cause, leaf, 1);
            }
            now += k;
        }
        (bulk, unit)
    }

    fn port_sum(ledger: &CausalLedger) -> u64 {
        ledger.port_stalls().iter().map(|&(_, n)| n).sum()
    }

    /// Seeded property test over 256 random charge/fire sequences: bulk
    /// charges equal unit charges, every view sums to the ledger, the
    /// critical view classifies leaf by leaf, and the views of a merge equal
    /// the merged views.
    #[test]
    fn views_are_marginals_of_the_ledger() {
        let mut rng = SplitMix64::new(0x1ed9e5);
        for case in 0..256 {
            let (x, unit) = random_ledgers(&mut rng);
            assert_eq!(x, unit, "case {case}: charge(.., k) != k unit charges");

            let att = x.attribution();
            assert_eq!(att.fired(), x.fired(), "case {case}");
            assert_eq!(att.stalled(), x.stalled(), "case {case}");
            assert_eq!(att.total_cycles(), x.total(), "case {case}");
            assert_eq!(port_sum(&x), x.stalled(), "case {case}");
            let phases: u64 = BlamePhase::ALL
                .iter()
                .map(|&p| x.fired_in(p) + x.stalled_in(p))
                .sum();
            assert_eq!(phases, x.total(), "case {case}");

            let crit = x.critical(16);
            assert_eq!(crit.path_length(), x.total(), "case {case}");
            assert_eq!(crit.on_path(CritClass::PeIssue), x.fired(), "case {case}");
            let mut by_leaf = [0u64; CritClass::ALL.len()];
            by_leaf[CritClass::PeIssue.index()] = x.fired();
            for &cause in &StallCause::ALL {
                for leaf in x.leaf_order() {
                    by_leaf[CritClass::for_stall(cause, leaf).index()] += x.leaf_total(cause, leaf);
                }
            }
            for class in CritClass::ALL {
                assert_eq!(crit.on_path(class), by_leaf[class.index()], "case {case}");
            }

            let (y, _) = random_ledgers(&mut rng);
            let mut merged = x.clone();
            merged.merge(&y);
            let mut att_merged = x.attribution();
            att_merged.merge(&y.attribution());
            assert_eq!(merged.attribution(), att_merged, "case {case}");
            let mut crit_merged = x.critical(16);
            crit_merged.merge(&y.critical(16));
            assert_eq!(merged.critical(16), crit_merged, "case {case}");
            for ((port, n), ((_, nx), (_, ny))) in merged
                .port_stalls()
                .into_iter()
                .zip(x.port_stalls().into_iter().zip(y.port_stalls()))
            {
                assert_eq!(n, nx + ny, "case {case}: port {}", port.label());
            }
            assert_eq!(merged.total(), x.total() + y.total(), "case {case}");
        }
    }

    #[test]
    fn leaves_report_nonzero_slots_in_order() {
        let mut ledger = CausalLedger::new(2);
        ledger.charge(BlamePhase::Steady, NO_B, BlameLeaf::Bank(1), 1);
        ledger.charge(BlamePhase::Fill, NO_B, BlameLeaf::Agu, 1);
        ledger.charge(BlamePhase::Drain, StallCause::Drain, BlameLeaf::Flush, 1);
        assert_eq!(
            ledger.leaves(),
            vec![
                (NO_B, BlameLeaf::Agu, 1),
                (NO_B, BlameLeaf::Bank(1), 1),
                (StallCause::Drain, BlameLeaf::Flush, 1),
            ]
        );
    }

    #[test]
    fn drain_lands_on_the_write_port() {
        let mut ledger = CausalLedger::new(2);
        ledger.charge(BlamePhase::Drain, StallCause::Drain, BlameLeaf::Flush, 5);
        ledger.charge(BlamePhase::Steady, BC_A, BlameLeaf::Bank(0), 2);
        assert_eq!(
            ledger.port_stalls(),
            [(Port::A, 2), (Port::B, 0), (Port::C, 0), (Port::Out, 5)]
        );
    }

    #[test]
    fn merge_widens_fire_bounds() {
        let mut a = CausalLedger::new(4);
        a.fire(10);
        a.charge(BlamePhase::Steady, NO_B, BlameLeaf::Agu, 1);
        let mut b = CausalLedger::new(4);
        b.fire(3);
        b.fire(20);
        a.merge(&b);
        assert_eq!(a.fired(), 3);
        assert_eq!(a.first_fire(), Some(3));
        assert_eq!(a.last_fire(), Some(20));
        assert_eq!(a.stalled(), 1);
    }

    #[test]
    fn json_is_deterministic_and_nests_causes() {
        let mut ledger = CausalLedger::new(4);
        ledger.fire(2);
        ledger.charge(BlamePhase::Steady, BC_A, BlameLeaf::Bank(1), 1);
        ledger.charge(BlamePhase::Drain, StallCause::Drain, BlameLeaf::Flush, 1);
        let json = ledger.to_json();
        assert_eq!(json.to_json(), ledger.clone().to_json().to_json());
        let steady = json.get("phases").unwrap().get("steady").unwrap();
        assert_eq!(steady.get("cycles").unwrap().as_u64(), Some(2));
        assert_eq!(
            steady
                .get("causes")
                .unwrap()
                .get("bank-conflict(A)")
                .unwrap()
                .get("bank[1]")
                .unwrap()
                .as_u64(),
            Some(1)
        );
        let total = json.get("total").unwrap();
        assert_eq!(
            total
                .get("drain")
                .unwrap()
                .get("streamer.OUT.flush")
                .unwrap()
                .as_u64(),
            Some(1)
        );
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_bank_panics() {
        let mut ledger = CausalLedger::new(2);
        ledger.charge(BlamePhase::Steady, BC_A, BlameLeaf::Bank(2), 1);
    }
}
