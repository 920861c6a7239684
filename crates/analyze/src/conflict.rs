//! Bank-conflict prediction from the loop nest and the bit permutation.
//!
//! Under GIMA(g) the bank of word `w` is `(w / (g·rows))·g + (w mod g)`
//! (see [`crate::pattern::bank_of_word`]). Two channels of one burst with
//! word-offset delta `d` can therefore collide only when
//!
//! 1. `d ≡ 0 (mod g)` — same bank *within* a group (independent of the
//!    temporal address, because the delta is constant), **and**
//! 2. `|d| < g·rows` — the two words can fall into the *same* group (a
//!    delta of a whole group span or more always lands in a later group).
//!
//! Channel pairs failing either condition are **proven** conflict-free for
//! every temporal step — this is the paper's Fig 7a ⑥ argument made
//! checkable: the compiler's GIMA placement gives each operand spatial
//! offsets that are distinct mod `g`, so no pair ever satisfies (1).
//!
//! For candidate pairs the analyzer walks the temporal nest (dual-counter
//! walk, capped, period-first) to find the first burst where a candidate
//! pair actually shares a bank. If the whole nest is covered without a
//! collision — enumerated, or its first period enumerated and the period
//! proven — the stream is conflict-free; if the cap is hit the verdict
//! degrades to "possible" (sound for the conflict-free direction: we never
//! claim freedom we cannot prove).

use std::ops::ControlFlow;

use crate::pattern::StreamSummary;
use crate::walk::{Signatures, Space};

/// Enumeration budget for confirming candidate collisions. Large enough
/// for every fig7/table3 nest (≤ ~1 M steps); beyond it the verdict is
/// conservative.
pub(crate) const STEP_CAP: u64 = 1 << 22;

/// A channel pair that *can* collide on a bank (necessary conditions (1)
/// and (2) hold).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CandidatePair {
    /// The two channel indices.
    pub channels: (usize, usize),
    /// Their constant word-offset delta.
    pub delta_words: i64,
}

/// Verdict of the intra-burst analysis of one stream.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum BurstVerdict {
    /// No burst of this stream can ever have two channels on one bank.
    ConflictFree,
    /// Collisions are possible; if `first_step` is `Some`, the burst at
    /// that temporal step provably collides and (while the stream is still
    /// in lock-step) costs `events_at_first` lost arbitrations.
    Conflicting {
        /// Channel pairs satisfying the necessary collision conditions.
        pairs: Vec<CandidatePair>,
        /// First temporal step whose burst provably collides, if found
        /// within the enumeration budget.
        first_step: Option<u64>,
        /// `Σ (k−1)` over banks with `k > 1` contenders at `first_step`.
        events_at_first: u64,
    },
}

impl BurstVerdict {
    /// `true` for the proven conflict-free verdict.
    #[must_use]
    pub fn is_conflict_free(&self) -> bool {
        matches!(self, BurstVerdict::ConflictFree)
    }
}

/// The channel pairs of a burst with word offsets `offsets` that meet both
/// necessary collision conditions under GIMA(`g`) with a group span of
/// `span` words, in `(i, j)` order.
pub(crate) fn candidate_pairs(offsets: &[i64], g: i64, span: i64) -> Vec<CandidatePair> {
    let mut pairs = Vec::new();
    for i in 0..offsets.len() {
        for j in i + 1..offsets.len() {
            let d = offsets[j] - offsets[i];
            if d.rem_euclid(g) == 0 && d.abs() < span {
                pairs.push(CandidatePair {
                    channels: (i, j),
                    delta_words: d,
                });
            }
        }
    }
    pairs
}

/// Analyzes one stream's bursts for intra-stream bank collisions.
#[must_use]
pub fn intra_burst(s: &StreamSummary) -> BurstVerdict {
    let pairs = candidate_pairs(&s.offsets_words, s.group as i64, s.group_words as i64);
    if pairs.is_empty() {
        return BurstVerdict::ConflictFree;
    }

    // Candidates exist: walk the nest to find the first burst that really
    // collides (candidates with `d ≠ 0` still need the two words to land
    // in the same group, which depends on the temporal address). Two
    // channels share a bank only as a candidate pair, so a burst collides
    // exactly when its signature repeats a bank; that test runs once per
    // distinct signature. The walk is period-first: every step after the
    // first period repeats a signature of it, so a collision, if any,
    // first shows there, and a proven period whose first period is
    // collision-free clears every covered step without visiting it.
    let space = Space::new(1, s.capacity_words, s.group, s.group_words);
    let mut sigs = Signatures::new(space, &s.offsets_words);
    let mut events: Vec<u64> = Vec::new();
    let first = sigs.walk(&s.nest(), s.steps.min(STEP_CAP), |step, id, banks| {
        if id as usize == events.len() {
            events.push(conflict_events(banks));
        }
        match events[id as usize] {
            0 => ControlFlow::Continue(()),
            n => ControlFlow::Break((step, n)),
        }
    });
    match first {
        ControlFlow::Break((step, events_at_first)) => BurstVerdict::Conflicting {
            pairs,
            first_step: Some(step),
            events_at_first,
        },
        // The whole nest covered: the candidates never share a group.
        ControlFlow::Continue(_) if s.steps <= STEP_CAP => BurstVerdict::ConflictFree,
        ControlFlow::Continue(_) => BurstVerdict::Conflicting {
            pairs,
            first_step: None,
            events_at_first: 0,
        },
    }
}

/// `Σ (k−1)` over banks contended by `k > 1` channels of a burst with
/// these banks — the arbitration losses of one lock-step issue of it.
fn conflict_events(banks: &[usize]) -> u64 {
    let mut distinct = banks.to_vec();
    distinct.sort_unstable();
    distinct.dedup();
    (banks.len() - distinct.len()) as u64
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::oracle::{bank_of_word, temporal_offsets};
    use crate::pattern::summarize;
    use datamaestro::{DesignConfig, RuntimeConfig, StreamerMode};
    use dm_mem::{AddressingMode, MemConfig};

    fn mem() -> MemConfig {
        MemConfig::new(32, 8, 1024).unwrap()
    }

    fn summary(mode: AddressingMode, spatial_strides: [i64; 1]) -> StreamSummary {
        let design = DesignConfig::builder("A", StreamerMode::Read)
            .spatial_bounds([8])
            .temporal_dims(3)
            .build()
            .unwrap();
        let rt = RuntimeConfig::builder()
            .base(0)
            .temporal([8, 4], [64, 512])
            .spatial_strides(spatial_strides)
            .addressing_mode(mode)
            .build();
        summarize(&design, &rt, &mem()).unwrap()
    }

    #[test]
    fn consecutive_words_are_conflict_free_under_fima_and_gima() {
        for mode in [
            AddressingMode::FullyInterleaved,
            AddressingMode::GroupedInterleaved { group_banks: 8 },
        ] {
            let v = intra_burst(&summary(mode, [8]));
            assert!(v.is_conflict_free(), "{mode}: {v:?}");
        }
    }

    #[test]
    fn nima_burst_collides_on_first_step() {
        // All 8 channels in one bank: 7 lost arbitrations at step 0.
        let v = intra_burst(&summary(AddressingMode::NonInterleaved, [8]));
        let BurstVerdict::Conflicting {
            pairs,
            first_step,
            events_at_first,
        } = v
        else {
            panic!("expected conflicts");
        };
        assert_eq!(pairs.len(), 28, "all channel pairs are candidates");
        assert_eq!(first_step, Some(0));
        assert_eq!(events_at_first, 7);
    }

    #[test]
    fn group_span_delta_never_collides() {
        // Spatial stride of a whole group span: every channel lands in its
        // own group under GIMA(1) — deltas are multiples of the span, so
        // condition (2) rules every pair out.
        let design = DesignConfig::builder("A", StreamerMode::Read)
            .spatial_bounds([4])
            .build()
            .unwrap();
        let rt = RuntimeConfig::builder()
            .temporal([4], [64])
            .spatial_strides([8 * 1024])
            .addressing_mode(AddressingMode::NonInterleaved)
            .build();
        let s = summarize(&design, &rt, &mem()).unwrap();
        assert!(intra_burst(&s).is_conflict_free());
    }

    #[test]
    fn strided_offsets_collide_under_small_group() {
        // Offsets {0, 2, 4, …, 14} words under GIMA(8): pair deltas of 8
        // words collide whenever both words share a group (here: always).
        let v = intra_burst(&summary(
            AddressingMode::GroupedInterleaved { group_banks: 8 },
            [16],
        ));
        let BurstVerdict::Conflicting {
            pairs,
            first_step,
            events_at_first,
        } = v
        else {
            panic!("expected conflicts");
        };
        assert_eq!(pairs.len(), 4, "pairs (0,4),(1,5),(2,6),(3,7)");
        assert_eq!(first_step, Some(0));
        assert_eq!(events_at_first, 4);
    }

    #[test]
    fn verdict_matches_brute_force_bank_multisets() {
        // Ground truth: enumerate every burst's bank multiset directly.
        for (mode, strides) in [
            (AddressingMode::FullyInterleaved, [8i64]),
            (AddressingMode::FullyInterleaved, [24]),
            (AddressingMode::GroupedInterleaved { group_banks: 4 }, [8]),
            (AddressingMode::GroupedInterleaved { group_banks: 8 }, [40]),
            (AddressingMode::NonInterleaved, [8]),
        ] {
            let s = summary(mode, strides);
            let mut any_collision = false;
            for t in temporal_offsets(&s.temporal_bounds, &s.temporal_strides_words, s.steps) {
                let q = s.base_word as i128 + t;
                let mut banks: Vec<u64> = s
                    .offsets_words
                    .iter()
                    .map(|&o| bank_of_word((q + i128::from(o)) as u64, s.group, s.group_words))
                    .collect();
                banks.sort_unstable();
                any_collision |= banks.windows(2).any(|w| w[0] == w[1]);
            }
            assert_eq!(
                !intra_burst(&s).is_conflict_free(),
                any_collision,
                "mode {mode} strides {strides:?}"
            );
        }
    }
}
