//! The per-step reference implementations the bank-signature walk
//! replaced, kept as the differential oracle: the period prover with its
//! `i128` addresses and per-offset memo, the advisor's per-step bank
//! count, and the burst verdict's per-step candidate-pair test, all on the
//! div/mod bank formula and a nest enumerated from mixed-radix indices.
//! A seeded random sweep checks the walk against them.

use std::collections::HashMap;

use datamaestro::{DesignConfig, RuntimeConfig};
use dm_mem::MemConfig;
use dm_sim::minimal_period;

use crate::conflict::{candidate_pairs, BurstVerdict, STEP_CAP};
use crate::diagnostic::{Diagnostic, LintCode};
use crate::pattern::StreamSummary;
use crate::period::{PortPeriodProof, WALK_CAP};

/// The bank and row of word `word` under GIMA(`g`) with `group_words`
/// words per group, by division (DESIGN §7): `(w / (g·rows))·g + w mod g`
/// and `(w mod g·rows) / g`. The workspace's one bank-map oracle.
pub(crate) fn location_of_word(word: u64, g: u64, group_words: u64) -> (u64, u64) {
    (
        (word / group_words) * g + word % g,
        (word % group_words) / g,
    )
}

/// The bank of word `word`: [`location_of_word`]'s bank.
pub(crate) fn bank_of_word(word: u64, g: u64, group_words: u64) -> u64 {
    location_of_word(word, g, group_words).0
}

/// The temporal offsets of the first `steps` steps of a nest, each summed
/// from its mixed-radix loop indices (a missing stride reads as 0).
pub(crate) fn temporal_offsets(bounds: &[u64], strides: &[i64], steps: u64) -> Vec<i128> {
    (0..steps)
        .map(|t| {
            let mut rem = t;
            let mut offset = 0i128;
            for (d, &bound) in bounds.iter().enumerate() {
                let index = rem % bound;
                rem /= bound;
                offset += i128::from(index) * i128::from(strides.get(d).copied().unwrap_or(0));
            }
            offset
        })
        .collect()
}

/// [`crate::period::prove_port`], one signature per step.
pub(crate) fn prove_port(
    design: &DesignConfig,
    runtime: &RuntimeConfig,
    mem: &MemConfig,
) -> Result<PortPeriodProof, Diagnostic> {
    let name = design.name().to_owned();
    let Some(group) = runtime.addressing_mode.checked_group_banks(mem.num_banks()) else {
        return Err(Diagnostic::error(
            LintCode::Config,
            name,
            format!(
                "addressing mode {} is illegal for {} banks",
                runtime.addressing_mode,
                mem.num_banks()
            ),
        ));
    };
    let Some(steps) = runtime.checked_total_temporal_steps() else {
        return Err(Diagnostic::error(
            LintCode::Config,
            name,
            "temporal bound product overflows u64 (pattern too large)".to_owned(),
        ));
    };

    let g = group as u64;
    let group_words = g * mem.rows_per_bank() as u64;
    let word = mem.bank_width_bytes() as u64;
    let capacity_words = i128::from(mem.capacity_bytes() / word);
    let bounds = design.spatial_bounds();
    let channels: usize = bounds.iter().product();
    let offsets: Vec<i128> = (0..channels)
        .map(|c| {
            let mut rem = c;
            let mut offset = 0i128;
            for (d, &bound) in bounds.iter().enumerate() {
                let digit = (rem % bound) as i128;
                rem /= bound;
                offset += digit * i128::from(runtime.spatial_strides.get(d).copied().unwrap_or(0));
            }
            offset
        })
        .collect();

    let mut per_bank_walked = vec![0u64; mem.num_banks()];
    let mut per_bank_per_period = vec![0u64; mem.num_banks()];
    if steps == 0 || channels == 0 {
        return Ok(PortPeriodProof {
            name,
            steps,
            period: 1,
            exhaustive: true,
            walked: steps.min(WALK_CAP),
            channels: channels as u64,
            per_bank_walked,
            per_bank_per_period,
        });
    }

    let walked = steps.min(WALK_CAP);
    let mut sig_of_offset: HashMap<i128, u32> = HashMap::new();
    let mut intern: HashMap<Vec<u64>, u32> = HashMap::new();
    let mut sig_banks: Vec<Vec<u64>> = Vec::new();
    let mut ids: Vec<u32> = Vec::new();
    let base = i128::from(runtime.base);
    for t in temporal_offsets(&runtime.temporal_bounds, &runtime.temporal_strides, walked) {
        let q = base + t;
        let id = *sig_of_offset.entry(q).or_insert_with(|| {
            let sig: Vec<u64> = offsets
                .iter()
                .map(|&o| {
                    let w = (q + o)
                        .div_euclid(i128::from(word))
                        .rem_euclid(capacity_words);
                    bank_of_word(w as u64, g, group_words)
                })
                .collect();
            *intern.entry(sig.clone()).or_insert_with(|| {
                sig_banks.push(sig);
                (sig_banks.len() - 1) as u32
            })
        });
        ids.push(id);
    }

    let period = minimal_period(&ids);
    for (i, &id) in ids.iter().enumerate() {
        for &b in &sig_banks[id as usize] {
            per_bank_walked[b as usize] += 1;
            if (i as u64) < period {
                per_bank_per_period[b as usize] += 1;
            }
        }
    }
    Ok(PortPeriodProof {
        name,
        steps,
        period,
        exhaustive: walked == steps,
        walked,
        channels: channels as u64,
        per_bank_walked,
        per_bank_per_period,
    })
}

/// The advisor's hottest-bank load under GIMA(`g`) over the first `cap`
/// steps, one bank count per step and channel.
pub(crate) fn predicted_cycles(s: &StreamSummary, g: u64, mem: &MemConfig, cap: u64) -> (u64, u64) {
    let group_words = g * mem.rows_per_bank() as u64;
    let mut per_bank = vec![0u64; mem.num_banks()];
    let walked = s.steps.min(cap);
    for t in temporal_offsets(&s.temporal_bounds, &s.temporal_strides_words, walked) {
        let q = s.base_word as i128 + t;
        for &o in &s.offsets_words {
            let bank = bank_of_word((q + i128::from(o)) as u64, g, group_words) as usize;
            per_bank[bank % mem.num_banks()] += 1;
        }
    }
    (per_bank.into_iter().max().unwrap_or(0), walked)
}

/// [`crate::conflict::intra_burst`], testing every candidate pair on every
/// step.
pub(crate) fn intra_burst(s: &StreamSummary) -> BurstVerdict {
    let pairs = candidate_pairs(&s.offsets_words, s.group as i64, s.group_words as i64);
    if pairs.is_empty() {
        return BurstVerdict::ConflictFree;
    }
    let bank = |w: i128| bank_of_word(w as u64, s.group, s.group_words);
    let steps = s.steps.min(STEP_CAP);
    let offsets = temporal_offsets(&s.temporal_bounds, &s.temporal_strides_words, steps);
    for (step, t) in offsets.into_iter().enumerate() {
        let q = s.base_word as i128 + t;
        let collides = pairs.iter().any(|p| {
            let (i, j) = p.channels;
            bank(q + i128::from(s.offsets_words[i])) == bank(q + i128::from(s.offsets_words[j]))
        });
        if collides {
            let mut banks: Vec<u64> = s
                .offsets_words
                .iter()
                .map(|&o| bank(q + i128::from(o)))
                .collect();
            banks.sort_unstable();
            let mut events = 0;
            let mut run = 1;
            for w in banks.windows(2) {
                if w[0] == w[1] {
                    run += 1;
                } else {
                    events += run - 1;
                    run = 1;
                }
            }
            return BurstVerdict::Conflicting {
                pairs,
                first_step: Some(step as u64),
                events_at_first: events + run - 1,
            };
        }
    }
    if s.steps <= STEP_CAP {
        BurstVerdict::ConflictFree
    } else {
        BurstVerdict::Conflicting {
            pairs,
            first_step: None,
            events_at_first: 0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::ops::ControlFlow;

    use crate::advisor::{self, legal_modes, score_mode, ModeScore, SCORE_WALK_CAP};
    use crate::conflict;
    use crate::pattern::{hull_bank_set, summarize};
    use crate::period;
    use crate::walk::Signatures;
    use datamaestro::StreamerMode;
    use dm_mem::BankMap;
    use dm_sim::SplitMix64;

    fn pick<T: Copy>(rng: &mut SplitMix64, items: &[T]) -> T {
        items[rng.below(items.len() as u64) as usize]
    }

    /// A random stream on `mem`: one or two spatial dimensions of at most
    /// 16 channels, up to three temporal dimensions of at most 4096 steps
    /// (zero and one-trip bounds included), strides that are zero,
    /// negative, sub-word or a whole group span, and bases that are
    /// unaligned, sit just below a group boundary or wrap past capacity.
    fn random_stream(rng: &mut SplitMix64, mem: &MemConfig) -> (DesignConfig, RuntimeConfig) {
        let word = mem.bank_width_bytes() as i64;
        let rows = mem.rows_per_bank() as i64;
        let capacity = mem.capacity_bytes() as i64;
        let span = |rng: &mut SplitMix64| {
            let g = 1i64 << rng.below(u64::from(mem.num_banks().trailing_zeros()) + 1);
            g * rows * word
        };

        let mut spatial = vec![pick(rng, &[1usize, 2, 3, 4, 8])];
        if rng.below(3) == 0 {
            spatial.push(pick(rng, &[1usize, 2, 4]));
        }
        let spatial_strides: Vec<i64> = spatial
            .iter()
            .map(|_| match rng.below(8) {
                0 => 0,
                1 => -word,
                2 => span(rng),
                3 => span(rng) - word,
                4 => pick(rng, &[3, 4, -5, 12]),
                _ => word * pick(rng, &[1, 1, 2, 3, 8, 16]),
            })
            .collect();

        let dims = 1 + rng.below(3) as usize;
        let mut temporal_bounds = Vec::new();
        let mut steps = 1u64;
        for _ in 0..dims {
            let bound = match rng.below(12) {
                0 => 0,
                1 => 1,
                _ => pick(rng, &[2u64, 3, 4, 7, 8, 16, 33, 64]).min(4096 / steps.max(1)),
            };
            steps = steps.saturating_mul(bound.max(1));
            temporal_bounds.push(bound);
        }
        let temporal_strides: Vec<i64> = (0..dims)
            .map(|_| match rng.below(10) {
                0 => 0,
                1 => -word * (1 + rng.below(8) as i64),
                2 => span(rng),
                3 => pick(rng, &[5, -12, 60]),
                4 => capacity + word,
                _ => word * (1 + rng.below(64) as i64),
            })
            .collect();

        let base = match rng.below(6) {
            0 => 0,
            1 => rng.below(capacity as u64) | 1,
            2 => (capacity - word * rng.below(8) as i64) as u64,
            3 => (span(rng) - word * rng.below(4) as i64) as u64,
            4 => 3 * capacity as u64 + word as u64 * rng.below(64),
            _ => rng.below((capacity / word) as u64) * word as u64,
        };

        let design = DesignConfig::builder("S", StreamerMode::Read)
            .spatial_bounds(spatial)
            .temporal_dims(3)
            .build()
            .unwrap();
        let runtime = RuntimeConfig {
            base,
            temporal_bounds,
            temporal_strides,
            spatial_strides,
            ..RuntimeConfig::builder().build()
        };
        (design, runtime)
    }

    #[test]
    fn the_signature_walk_matches_the_per_step_oracle_on_random_nests() {
        let mut rng = SplitMix64::new(0x5167_7a1c);
        let (mut summaries, mut conflicting, mut free) = (0, 0, 0);
        for mem in [
            MemConfig::new(32, 8, 4096).unwrap(),
            MemConfig::new(8, 8, 64).unwrap(),
        ] {
            let modes = legal_modes(mem.num_banks());
            for case in 0..150 {
                // Every other case is redrawn until it summarizes, so the
                // advisor and the burst verdict see as many nests as the
                // total prover does.
                let (design, mut runtime) = loop {
                    let stream = random_stream(&mut rng, &mem);
                    if case % 2 == 0 || summarize(&stream.0, &stream.1, &mem).is_ok() {
                        break stream;
                    }
                };
                for &mode in &modes {
                    runtime.addressing_mode = mode;
                    let context = format!("case {case} {mode} {runtime:?} {design:?}");
                    assert_eq!(
                        period::prove_port(&design, &runtime, &mem),
                        prove_port(&design, &runtime, &mem),
                        "{context}"
                    );
                    let Ok(s) = summarize(&design, &runtime, &mem) else {
                        continue;
                    };
                    summaries += 1;
                    let verdict = conflict::intra_burst(&s);
                    assert_eq!(verdict, intra_burst(&s), "{context}");
                    if verdict.is_conflict_free() {
                        free += 1;
                    } else {
                        conflicting += 1;
                    }
                    for &other in &modes {
                        let g = other.group_banks(mem.num_banks()) as i64;
                        let span = g * mem.rows_per_bank() as i64;
                        let (predicted_cycles, walked_steps) =
                            predicted_cycles(&s, g as u64, &mem, SCORE_WALK_CAP);
                        let expected = ModeScore {
                            mode: other,
                            predicted_cycles,
                            walked_steps,
                            candidate_pairs: candidate_pairs(&s.offsets_words, g, span).len(),
                            banks: hull_bank_set(s.word_hull.0, s.word_hull.1, g as u64, &mem),
                        };
                        assert_eq!(
                            score_mode(&s, other, &mem),
                            expected,
                            "{context} as {other}"
                        );
                    }
                }
            }
        }
        // The sweep must reach every verdict, not just the prover.
        assert!(summaries >= 500, "only {summaries} summarizable streams");
        assert!(
            conflicting >= 100 && free >= 100,
            "{conflicting} conflicting, {free} free"
        );
    }

    /// Nests whose bank period the period-first walk has to prove or refute.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    enum Family {
        /// A short period under a walk many times longer.
        Long,
        /// A short prefix period that the outer dimension's stride breaks.
        LateStrideBreak,
        /// A short prefix period that ends where the footprint crosses into
        /// the next group of some interleave.
        LateStraddle,
        /// A short prefix period that ends where the footprint wraps past
        /// capacity.
        LateWrap,
    }

    /// A three-deep nest of `family` on `mem`: a short inner loop, a
    /// middle loop advancing whole interleave rounds of every mode, and an
    /// outer loop; up to 8192 steps. The late families place the base so
    /// that only the last steps' footprint crosses a group boundary or
    /// capacity.
    fn family_stream(
        rng: &mut SplitMix64,
        mem: &MemConfig,
        family: Family,
    ) -> (DesignConfig, RuntimeConfig) {
        let word = mem.bank_width_bytes() as i64;
        let round = mem.num_banks() as i64 * word;
        let capacity = mem.capacity_bytes() as i64;
        let channels = pick(rng, &[1usize, 2, 4, 8]);
        let spatial_stride = word * pick(rng, &[1, 1, 2, 3]);
        let bounds = [
            pick(rng, &[2u64, 3, 4, 8, 16]),
            pick(rng, &[16u64, 33, 64, 128]),
            pick(rng, &[2u64, 3, 4]),
        ];
        let inner_stride = word * pick(rng, &[1, 1, 2, 3, 5]);
        let middle_stride = round * pick(rng, &[1, 1, 2]);
        let outer_stride = match family {
            Family::Long => round * pick(rng, &[0, 1, 4]),
            Family::LateStrideBreak => pick(rng, &[word, 3 * word, -word, round + word]),
            Family::LateStraddle | Family::LateWrap => round * pick(rng, &[0, 1]),
        };
        let strides = [inner_stride, middle_stride, outer_stride];
        let footprint = bounds
            .iter()
            .zip(strides)
            .map(|(&b, s)| (b as i64 - 1) * s.max(0))
            .sum::<i64>()
            + (channels as i64 - 1) * spatial_stride
            + word;
        let boundary = match family {
            Family::Long | Family::LateStrideBreak => 0,
            Family::LateStraddle => {
                let g = 1i64 << rng.below(u64::from(mem.num_banks().trailing_zeros()));
                g * mem.rows_per_bank() as i64 * word * (1 + rng.below(2) as i64)
            }
            Family::LateWrap => capacity * (1 + rng.below(2) as i64),
        };
        let base = if boundary == 0 {
            rng.below((capacity / word) as u64 / 4) * word as u64
        } else {
            // Only the last few words of the footprint cross the boundary.
            (boundary - footprint + word * (1 + rng.below(4) as i64)).rem_euclid(4 * capacity)
                as u64
        };
        let design = DesignConfig::builder("F", StreamerMode::Read)
            .spatial_bounds([channels])
            .temporal_dims(3)
            .build()
            .unwrap();
        let runtime = RuntimeConfig {
            base,
            temporal_bounds: bounds.to_vec(),
            temporal_strides: strides.to_vec(),
            spatial_strides: vec![spatial_stride],
            ..RuntimeConfig::builder().build()
        };
        (design, runtime)
    }

    /// The steps the period-first walk enumerates over a summary's whole
    /// nest under GIMA(`g`), with its period and the minimal period of its
    /// first 16 enumerated steps.
    fn enumeration(s: &StreamSummary, g: u64, mem: &MemConfig) -> (u64, u64, u64) {
        let mut sigs = Signatures::new(BankMap::words(mem, g), &s.offsets_words);
        let mut ids = Vec::new();
        let ControlFlow::Continue(walk) = sigs.walk::<()>(&s.nest(), s.steps, |_, id, _| {
            ids.push(id);
            ControlFlow::Continue(())
        }) else {
            unreachable!("the visit never breaks")
        };
        let prefix = minimal_period(&ids[..ids.len().min(16)]);
        (ids.len() as u64, walk.period, prefix)
    }

    #[test]
    fn the_period_first_fold_matches_the_oracle_on_long_and_late_breaking_nests() {
        let mut rng = SplitMix64::new(0x9e71_0d5a);
        let (mut proven_short, mut refuted) = (0, 0);
        for mem in [
            MemConfig::new(32, 8, 4096).unwrap(),
            MemConfig::new(8, 8, 64).unwrap(),
        ] {
            let modes = legal_modes(mem.num_banks());
            for family in [
                Family::Long,
                Family::LateStrideBreak,
                Family::LateStraddle,
                Family::LateWrap,
            ] {
                for case in 0..16 {
                    let (design, mut runtime) = family_stream(&mut rng, &mem, family);
                    let mut scored = false;
                    for &mode in &modes {
                        runtime.addressing_mode = mode;
                        let context = format!("{family:?} case {case} {mode} {runtime:?}");
                        assert_eq!(
                            period::prove_port(&design, &runtime, &mem),
                            prove_port(&design, &runtime, &mem),
                            "{context}"
                        );
                        let Ok(s) = summarize(&design, &runtime, &mem) else {
                            continue;
                        };
                        assert_eq!(conflict::intra_burst(&s), intra_burst(&s), "{context}");
                        let (enumerated, period, prefix) = enumeration(&s, s.group, &mem);
                        proven_short += u64::from(enumerated * 4 <= s.steps);
                        refuted += u64::from(prefix < period && 16 < enumerated);
                        if scored {
                            continue;
                        }
                        // Scores do not depend on the stream's own mode:
                        // one summary checks every mode, at the advisor's
                        // cap and at caps that cut a period short.
                        scored = true;
                        for &other in &modes {
                            let g = other.group_banks(mem.num_banks()) as u64;
                            let span = g as i64 * mem.rows_per_bank() as i64;
                            let (predicted_cycles, walked_steps) =
                                predicted_cycles(&s, g, &mem, SCORE_WALK_CAP);
                            let expected = ModeScore {
                                mode: other,
                                predicted_cycles,
                                walked_steps,
                                candidate_pairs: candidate_pairs(&s.offsets_words, g as i64, span)
                                    .len(),
                                banks: hull_bank_set(s.word_hull.0, s.word_hull.1, g, &mem),
                            };
                            assert_eq!(
                                score_mode(&s, other, &mem),
                                expected,
                                "{context} as {other}"
                            );
                            for cap in [37, s.steps / 3 + 1] {
                                assert_eq!(
                                    advisor::predicted_cycles(&s, g, &mem, cap),
                                    super::predicted_cycles(&s, g, &mem, cap),
                                    "{context} as {other} capped at {cap}"
                                );
                            }
                        }
                    }
                }
            }
        }
        // Both directions of the proof must be exercised: short periods
        // proven over long walks, and prefix periods the walk refutes.
        assert!(proven_short >= 100, "only {proven_short} short proofs");
        assert!(refuted >= 50, "only {refuted} refuted prefix periods");
    }
}
