//! Whole-system analysis: ties the per-stream analyses together for a
//! compiled workload and renders the verdict + diagnostics.

use dm_compiler::CompiledWorkload;
use dm_mem::MemConfig;
use dm_sim::Port;

use crate::advisor;
use crate::conflict::{intra_burst, BurstVerdict};
use crate::diagnostic::{Diagnostic, LintCode, Report};
use crate::graph::system_graph;
use crate::pattern::{summarize, BankSet, StreamSummary};

/// Result of analyzing one stream.
#[derive(Debug, Clone)]
pub struct StreamAnalysis {
    /// The summarized pattern (absent when summarization itself errored).
    pub summary: Option<StreamSummary>,
    /// Intra-burst conflict verdict (absent when summarization errored).
    pub verdict: Option<BurstVerdict>,
}

/// Result of analyzing a full system configuration.
#[derive(Debug, Clone)]
pub struct Analysis {
    /// All findings.
    pub report: Report,
    /// Per-stream results, in `streams` order.
    pub streams: Vec<StreamAnalysis>,
    /// `true` when the analyzer *proves* no bank conflict can ever occur.
    pub conflict_free: bool,
    /// At least this many conflict events must occur (0 when none are
    /// guaranteed — which does not imply freedom).
    pub guaranteed_min_conflicts: u64,
    /// No more than this many conflict events can occur, from arbitration
    /// fairness (each request loses at most `requesters − 1` rounds).
    /// `None` when a count overflowed.
    pub worst_case_max_conflicts: Option<u64>,
}

/// One stream of a system under analysis.
pub struct StreamInput<'a> {
    /// The stream's design-time configuration.
    pub design: &'a datamaestro::DesignConfig,
    /// The stream's runtime configuration.
    pub runtime: &'a datamaestro::RuntimeConfig,
}

/// Analyzes a set of concurrently active streams against a memory
/// geometry. `prepasses` is the number of copy-engine pre-passes that will
/// run (their traffic shares the banks; a nonzero count forfeits the
/// conflict-freedom proof).
#[must_use]
pub fn analyze_streams(streams: &[StreamInput<'_>], mem: &MemConfig, prepasses: usize) -> Analysis {
    let mut report = Report::new();
    let mut analyses = Vec::new();

    for stream in streams {
        match summarize(stream.design, stream.runtime, mem) {
            Ok(summary) => {
                let verdict = intra_burst(&summary);
                analyses.push(StreamAnalysis {
                    summary: Some(summary),
                    verdict: Some(verdict),
                });
            }
            Err(diags) => {
                report.extend(diags);
                analyses.push(StreamAnalysis {
                    summary: None,
                    verdict: None,
                });
            }
        }
    }

    // Inter-stream bank sharing: conflict-freedom requires pairwise
    // disjoint bank sets (a shared bank can always be hit by two decoupled
    // streams in the same cycle).
    let mut disjoint = true;
    for i in 0..analyses.len() {
        for j in i + 1..analyses.len() {
            let (Some(a), Some(b)) = (&analyses[i].summary, &analyses[j].summary) else {
                continue;
            };
            if a.banks.intersects(&b.banks) {
                disjoint = false;
                report.push(Diagnostic::warning(
                    LintCode::BankConflict,
                    format!("{}+{}", a.name, b.name),
                    format!(
                        "streams '{}' ({}, banks {}) and '{}' ({}, banks {}) \
                         share banks: inter-stream conflicts are possible; \
                         disjoint GIMA bank groups (addressing-mode \
                         switching) would eliminate them",
                        a.name, a.mode, a.banks, b.name, b.mode, b.banks
                    ),
                ));
            }
        }
    }

    // Read-vs-write footprint hazards. Same-mode streams compare exact
    // linear hulls; cross-mode comparisons fall back to physical bank +
    // row hulls (conservative, hence a warning).
    for i in 0..analyses.len() {
        for j in 0..analyses.len() {
            if i == j {
                continue;
            }
            let (Some(r), Some(w)) = (&analyses[i].summary, &analyses[j].summary) else {
                continue;
            };
            let reads = streams[i].design.mode() == datamaestro::StreamerMode::Read;
            let writes = streams[j].design.mode() == datamaestro::StreamerMode::Write;
            if !(reads && writes) {
                continue;
            }
            let overlap = if r.mode == w.mode {
                r.word_hull.0 <= w.word_hull.1 && w.word_hull.0 <= r.word_hull.1
            } else {
                r.banks.intersects(&w.banks)
                    && r.row_hull.0 <= w.row_hull.1
                    && w.row_hull.0 <= r.row_hull.1
            };
            if overlap {
                report.push(Diagnostic::warning(
                    LintCode::RawHazard,
                    format!("{}+{}", r.name, w.name),
                    format!(
                        "read stream '{}' footprint overlaps write stream \
                         '{}': the streams are decoupled, so reads may \
                         observe partially written data (RAW/WAR hazard)",
                        r.name, w.name
                    ),
                ));
            }
        }
    }

    // Intra-burst conflicts + mode advisor.
    for (idx, analysis) in analyses.iter().enumerate() {
        let (Some(summary), Some(verdict)) = (&analysis.summary, &analysis.verdict) else {
            continue;
        };
        let BurstVerdict::Conflicting {
            pairs, first_step, ..
        } = verdict
        else {
            continue;
        };
        let mut occupied = BankSet::empty(mem.num_banks());
        for (other_idx, other) in analyses.iter().enumerate() {
            if other_idx == idx {
                continue;
            }
            if let Some(other_summary) = &other.summary {
                for bank in other_summary.banks.iter_banks() {
                    occupied.insert(bank);
                }
            }
        }
        let ranked = advisor::rank_modes(summary, mem, &occupied);
        let best = &ranked[0];
        let current = ranked
            .iter()
            .find(|m| m.mode == summary.mode)
            .expect("current mode is always listed");
        let certainty = if first_step.is_some() {
            "collide"
        } else {
            "may collide"
        };
        if best.mode != summary.mode && best.predicted_cycles < current.predicted_cycles {
            report.push(Diagnostic::warning(
                LintCode::BankConflict,
                &summary.name,
                format!(
                    "{} channel pairs {certainty} on a bank every burst \
                     under {} (e.g. channels {:?} at word delta {})",
                    pairs.len(),
                    summary.mode,
                    pairs[0].channels,
                    pairs[0].delta_words,
                ),
            ));
            report.push(Diagnostic::warning(
                LintCode::ModeMismatch,
                &summary.name,
                format!(
                    "addressing mode {} is predicted to need {} cycles on \
                     its hottest bank over {} steps; {} would need {} \
                     (placement compatible, predicted utilization {:.2}x)",
                    summary.mode,
                    current.predicted_cycles,
                    current.walked_steps,
                    best.mode,
                    best.predicted_cycles,
                    current.predicted_cycles as f64 / best.predicted_cycles.max(1) as f64,
                ),
            ));
        } else {
            let tried: Vec<String> = ranked.iter().map(|m| m.mode.to_string()).collect();
            report.push(Diagnostic::info(
                LintCode::BankConflict,
                &summary.name,
                format!(
                    "{} channel pairs {certainty} on a bank per burst under \
                     {} (e.g. channels {:?} at word delta {}, a multiple of \
                     the group size {}); no placement-compatible addressing \
                     mode tried over the compiled layout ({}) predicts a \
                     lower cycle bound, and other layouts were not searched",
                    pairs.len(),
                    summary.mode,
                    pairs[0].channels,
                    pairs[0].delta_words,
                    summary.group,
                    tried.join(", "),
                ),
            ));
        }
    }

    if prepasses > 0 {
        report.push(Diagnostic::info(
            LintCode::BankConflict,
            "system",
            format!(
                "{prepasses} copy-engine pre-pass(es) share the banks with \
                 their own traffic; conflict-freedom is not claimed for \
                 pre-pass phases"
            ),
        ));
    }

    // Verdict + bounds.
    let all_streams_free = analyses.iter().all(|a| {
        a.verdict
            .as_ref()
            .is_some_and(BurstVerdict::is_conflict_free)
    });
    let analyzable = analyses.iter().all(|a| a.summary.is_some());
    let conflict_free = analyzable && all_streams_free && disjoint && prepasses == 0;

    let mut guaranteed = 0u64;
    let mut any_first = false;
    for analysis in &analyses {
        if let Some(BurstVerdict::Conflicting {
            first_step: Some(_),
            events_at_first,
            ..
        }) = &analysis.verdict
        {
            any_first = true;
            guaranteed += events_at_first;
        }
    }
    // The per-stream lock-step argument only composes when streams cannot
    // perturb each other (disjoint banks); otherwise a single event is
    // still guaranteed: before any first conflict everything is lock-step,
    // so the earliest predicted collision must materialize.
    let guaranteed_min_conflicts = if conflict_free {
        0
    } else if disjoint {
        guaranteed
    } else {
        u64::from(any_first)
    };

    // Fairness bound: per round-robin arbitration a pending request loses
    // at most (total requester channels − 1) grants before winning.
    let total_channels: u64 = streams.iter().map(|s| s.design.num_channels() as u64).sum();
    let mut worst: Option<u64> = Some(0);
    if conflict_free {
        // No request can ever lose.
    } else {
        for analysis in &analyses {
            let Some(summary) = &analysis.summary else {
                worst = None;
                break;
            };
            let requests = summary
                .steps
                .checked_mul(summary.offsets_words.len() as u64);
            worst = worst.zip(requests).and_then(|(acc, reqs)| {
                reqs.checked_mul(total_channels.saturating_sub(1))
                    .and_then(|w| acc.checked_add(w))
            });
        }
    }

    Analysis {
        report,
        streams: analyses,
        conflict_free,
        guaranteed_min_conflicts,
        worst_case_max_conflicts: worst,
    }
}

/// Analyzes a compiled workload: its compute streams (the operand readers,
/// then OUT), the channel-graph deadlock checks, and the pre-pass
/// accounting.
#[must_use]
pub fn analyze_program(program: &CompiledWorkload, mem: &MemConfig) -> Analysis {
    let streams: Vec<_> = program
        .ports()
        .map(|(_, plan)| StreamInput {
            design: &plan.design,
            runtime: &plan.runtime,
        })
        .collect();
    let mut analysis = analyze_streams(&streams, mem, program.prepasses.len());

    // Channel-graph deadlock checks: FIFO capacities from the designs,
    // token supply from the runtime nests, demand from the PE's schedule
    // (each port's words per tile by the fire rule, over every tile).
    let (streams, demands): (Vec<_>, Vec<_>) = program
        .ports()
        .map(|(port, plan)| {
            let words = port.words_per_tile(program.k_steps) * program.total_output_tiles;
            (
                stream_tuple(plan, port != Port::Out),
                (port.label().to_owned(), words),
            )
        })
        .unzip();
    analysis
        .report
        .extend(system_graph(&streams, &demands).analyze());
    analysis
}

fn stream_tuple(plan: &dm_compiler::StreamPlan, is_read: bool) -> (&str, bool, u64, u64, u64) {
    (
        plan.design.name(),
        is_read,
        plan.design.addr_buffer_depth() as u64,
        plan.design.data_buffer_depth() as u64,
        plan.runtime
            .checked_total_temporal_steps()
            .unwrap_or(u64::MAX),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use dm_compiler::{compile, BufferDepths, FeatureSet};
    use dm_workloads::{ConvSpec, GemmSpec, WorkloadData};

    fn mem() -> MemConfig {
        MemConfig::new(32, 8, 4096).unwrap()
    }

    #[test]
    fn full_feature_gemm_is_proven_conflict_free() {
        let mem = mem();
        let data = WorkloadData::generate(GemmSpec::new(32, 32, 32).into(), 3);
        let program = compile(
            &data,
            &FeatureSet::full(),
            &mem,
            true,
            BufferDepths::default(),
        )
        .unwrap();
        let analysis = analyze_program(&program, &mem);
        assert!(analysis.conflict_free, "{:?}", analysis.report);
        assert_eq!(analysis.guaranteed_min_conflicts, 0);
        assert!(!analysis.report.has_errors());
        assert!(analysis.report.passes(true), "{:?}", analysis.report);
    }

    #[test]
    fn shared_fima_placement_is_not_proven_free() {
        let mem = mem();
        let data = WorkloadData::generate(GemmSpec::new(32, 32, 32).into(), 3);
        // Ablation step 5: everything but addressing-mode switching — all
        // four operands share one FIMA space.
        let program = compile(
            &data,
            &FeatureSet::ablation_step(5),
            &mem,
            true,
            BufferDepths::default(),
        )
        .unwrap();
        let analysis = analyze_program(&program, &mem);
        assert!(!analysis.conflict_free);
        assert!(analysis.report.has_code(LintCode::BankConflict));
        assert!(!analysis.report.has_errors(), "{:?}", analysis.report);
    }

    #[test]
    fn strided_conv_conflicts_are_unavoidable_info_not_warning() {
        let mem = mem();
        let data = WorkloadData::generate(ConvSpec::new(18, 18, 8, 8, 3, 3, 2).into(), 3);
        let program = compile(
            &data,
            &FeatureSet::full(),
            &mem,
            true,
            BufferDepths::default(),
        )
        .unwrap();
        let analysis = analyze_program(&program, &mem);
        if !analysis.conflict_free {
            // Strided convolutions collide unavoidably: the committed
            // configs must still pass --deny-warnings.
            assert!(analysis.report.passes(true), "{:?}", analysis.report);
            assert!(analysis.guaranteed_min_conflicts > 0);
        }
    }

    #[test]
    fn supply_demand_mismatch_is_deadlock() {
        let mem = mem();
        let data = WorkloadData::generate(GemmSpec::new(32, 32, 32).into(), 3);
        let mut program = compile(
            &data,
            &FeatureSet::full(),
            &mem,
            true,
            BufferDepths::default(),
        )
        .unwrap();
        // Starve the A port: halve its outermost bound.
        let a = &mut program.readers[0].runtime;
        let last = a.temporal_bounds.len() - 1;
        a.temporal_bounds[last] /= 2;
        let analysis = analyze_program(&program, &mem);
        assert!(analysis.report.has_code(LintCode::Deadlock));
        assert!(analysis.report.has_errors());
    }
}
