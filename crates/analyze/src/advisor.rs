//! Mode-mismatch advisor: ranks legal addressing modes by *predicted
//! utilization* for one stream's access pattern.
//!
//! The primary score of a mode is its roofline term: the hottest-bank
//! request count over a (capped) walk of the stream's temporal nest — a
//! bank grants one request per cycle, so this is a sound cycle lower
//! bound and the quantity the static performance prover ([`crate::roofline`])
//! minimizes. The per-burst candidate-pair count of [`crate::conflict`]
//! (delta ≡ 0 mod g and |delta| < group span) breaks ties. A mode is only
//! *placement-compatible* when reinterpreting the stream's existing
//! footprint hull under it does not spill the stream onto banks owned by
//! concurrently active streams — a mode switch rewires the bit
//! permutation, it does not move the data.

use std::convert::Infallible;
use std::ops::ControlFlow;

use dm_mem::{AddressingMode, MemConfig};

use crate::conflict::candidate_pairs;
use crate::pattern::{BankSet, StreamSummary};
use crate::walk::{Signatures, Space};

/// Walk budget for the predicted-cycles score. Smaller than the conflict
/// analyzer's cap (the advisor scores every legal mode of every stream);
/// all modes of one stream walk the same step count, so the ranking stays
/// an apples-to-apples comparison even when capped.
pub(crate) const SCORE_WALK_CAP: u64 = 1 << 16;

/// One ranked addressing mode.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ModeScore {
    /// The candidate mode.
    pub mode: AddressingMode,
    /// Hottest-bank request count over the walked nest prefix — a sound
    /// cycle lower bound for serving the stream under this mode.
    pub predicted_cycles: u64,
    /// Temporal steps the prediction covers (`min(steps, cap)`).
    pub walked_steps: u64,
    /// Channel pairs that could collide per burst under this mode.
    pub candidate_pairs: usize,
    /// Banks the stream's footprint hull would occupy under this mode.
    pub banks: BankSet,
}

/// Every mode legal for the geometry: NIMA, GIMA for each power-of-two
/// divisor, FIMA (deduplicated — FIMA ≡ GIMA(num_banks), NIMA ≡ GIMA(1)).
#[must_use]
pub fn legal_modes(num_banks: usize) -> Vec<AddressingMode> {
    let mut modes = vec![AddressingMode::NonInterleaved];
    let mut g = 2;
    while g < num_banks {
        modes.push(AddressingMode::GroupedInterleaved { group_banks: g });
        g *= 2;
    }
    if num_banks > 1 {
        modes.push(AddressingMode::FullyInterleaved);
    }
    modes
}

/// Scores one mode for a stream: the predicted cycle lower bound
/// (hottest-bank load over the walked nest), the per-burst candidate
/// collision pairs, and the bank set its footprint hull would occupy.
#[must_use]
pub fn score_mode(s: &StreamSummary, mode: AddressingMode, mem: &MemConfig) -> ModeScore {
    let g = mode.group_banks(mem.num_banks()) as i64;
    let span = g * mem.rows_per_bank() as i64;
    let candidate_pairs = candidate_pairs(&s.offsets_words, g, span).len();
    let (predicted_cycles, walked_steps) = predicted_cycles(s, g as u64, mem, SCORE_WALK_CAP);
    let (lo, hi) = s.word_hull;
    let banks = crate::pattern::hull_bank_set(lo, hi, g as u64, mem);
    ModeScore {
        mode,
        predicted_cycles,
        walked_steps,
        candidate_pairs,
        banks,
    }
}

/// The roofline bank term of the stream's nest reinterpreted under
/// GIMA(g): the hottest bank's request count over the first
/// `min(steps, cap)` steps, folded from the walk's proven period.
pub(crate) fn predicted_cycles(s: &StreamSummary, g: u64, mem: &MemConfig, cap: u64) -> (u64, u64) {
    let walked = s.steps.min(cap);
    let space = Space::new(1, s.capacity_words, g, g * mem.rows_per_bank() as u64);
    let mut sigs = Signatures::new(space, &s.offsets_words);
    let ControlFlow::Continue(walk) =
        sigs.walk::<Infallible>(&s.nest(), walked, |_, _, _| ControlFlow::Continue(()));
    let per_bank = sigs.per_bank(&walk, walked, mem.num_banks());
    (per_bank.into_iter().max().unwrap_or(0), walked)
}

/// Ranks all legal modes for a stream, best (lowest predicted cycle bound)
/// first; equal bounds fall back to fewest candidate pairs, then larger
/// groups (more interleaving ⇒ more burst parallelism), with the stream's
/// current mode winning exact ties.
///
/// `occupied_by_others` is the union of the bank sets of the concurrently
/// active streams; modes whose reinterpreted footprint intersects it are
/// excluded as placement-incompatible. Pass an empty set for a stream
/// analyzed in isolation.
#[must_use]
pub fn rank_modes(
    s: &StreamSummary,
    mem: &MemConfig,
    occupied_by_others: &BankSet,
) -> Vec<ModeScore> {
    let mut scores: Vec<ModeScore> = legal_modes(mem.num_banks())
        .into_iter()
        .map(|mode| score_mode(s, mode, mem))
        .filter(|score| score.mode == s.mode || !score.banks.intersects(occupied_by_others))
        .collect();
    scores.sort_by_key(|score| {
        (
            score.predicted_cycles,
            score.candidate_pairs,
            std::cmp::Reverse(score.mode.group_banks(mem.num_banks())),
            score.mode != s.mode,
        )
    });
    scores
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pattern::summarize;
    use datamaestro::{DesignConfig, RuntimeConfig, StreamerMode};

    fn mem() -> MemConfig {
        MemConfig::new(32, 8, 1024).unwrap()
    }

    fn summary(mode: AddressingMode) -> StreamSummary {
        let design = DesignConfig::builder("A", StreamerMode::Read)
            .spatial_bounds([8])
            .build()
            .unwrap();
        let rt = RuntimeConfig::builder()
            .temporal([8], [64])
            .spatial_strides([8])
            .addressing_mode(mode)
            .build();
        summarize(&design, &rt, &mem()).unwrap()
    }

    #[test]
    fn legal_modes_cover_all_divisors() {
        let modes = legal_modes(32);
        assert_eq!(modes.len(), 6, "NIMA, GIMA(2,4,8,16), FIMA");
        assert_eq!(modes[0], AddressingMode::NonInterleaved);
        assert_eq!(modes[5], AddressingMode::FullyInterleaved);
    }

    #[test]
    fn fima_beats_nima_for_consecutive_bursts() {
        let s = summary(AddressingMode::NonInterleaved);
        let ranked = rank_modes(&s, &mem(), &BankSet::empty(32));
        assert_eq!(ranked[0].mode, AddressingMode::FullyInterleaved);
        assert_eq!(ranked[0].candidate_pairs, 0);
        // 64 distinct words spread over 32 banks: 2 requests per bank.
        assert_eq!(ranked[0].predicted_cycles, 2);
        assert_eq!(ranked[0].walked_steps, 8);
        let nima = ranked
            .iter()
            .find(|m| m.mode == AddressingMode::NonInterleaved)
            .unwrap();
        assert_eq!(nima.candidate_pairs, 28);
        // All 64 words land in one bank under NIMA: bank-serial.
        assert_eq!(nima.predicted_cycles, 64);
        // Predicted cycles are monotone in interleaving for this pattern.
        for pair in ranked.windows(2) {
            assert!(pair[0].predicted_cycles <= pair[1].predicted_cycles);
        }
    }

    #[test]
    fn placement_incompatible_modes_are_excluded() {
        let s = summary(AddressingMode::GroupedInterleaved { group_banks: 8 });
        // Other streams own banks 8..32: wider interleavings would spill.
        let mut occupied = BankSet::empty(32);
        for b in 8..32 {
            occupied.insert(b);
        }
        let ranked = rank_modes(&s, &mem(), &occupied);
        assert!(ranked
            .iter()
            .all(|m| m.mode == s.mode || !m.banks.intersects(&occupied)));
        assert!(!ranked
            .iter()
            .any(|m| m.mode == AddressingMode::FullyInterleaved));
        assert_eq!(ranked[0].mode, s.mode, "GIMA(8) already optimal");
    }

    #[test]
    fn current_mode_is_always_listed() {
        let s = summary(AddressingMode::NonInterleaved);
        let mut occupied = BankSet::empty(32);
        for b in 0..32 {
            occupied.insert(b);
        }
        let ranked = rank_modes(&s, &mem(), &occupied);
        assert!(ranked.iter().any(|m| m.mode == s.mode));
    }
}
