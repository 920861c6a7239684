//! Fig. 7 (`dm fig7`): the ablation study over the 260-workload synthetic
//! suite.
//!
//! * Fig. 7(a): GeMM-core utilization distribution (box-plot statistics and
//!   mean) per kernel group, for configurations ① (baseline) through ⑥
//!   (fully featured);
//! * Fig. 7(b): data access counts per configuration, normalized to the
//!   baseline ①, per kernel group.
//!
//! `--quick` runs every 5th workload for a fast smoke pass, and the Perfetto
//! trace (`--trace-out`) captures the first workload's fully-featured
//! (step ⑥) run.

use std::collections::BTreeMap;

use dm_compiler::FeatureSet;
use dm_sim::{Distribution, OperandPort, StallAttribution, StallCause};
use dm_workloads::WorkloadGroup;

use crate::cli::{fig7_slice, Capture, RunFlags};

/// Simulates every workload through the six ablation steps and prints
/// Fig. 7.
///
/// # Errors
///
/// Returns the first failed run, a failed `--lint` pre-flight or a capture
/// I/O error.
pub fn run(flags: &RunFlags, capture: &mut Capture) -> Result<(), String> {
    let suite: Vec<_> = fig7_slice(flags.full).into_iter().map(|(_, w)| w).collect();
    println!(
        "Fig. 7 ablation over {} synthetic workloads{}",
        suite.len(),
        if flags.full { "" } else { " (--quick subset)" }
    );
    if flags.lint {
        // Pre-flight every (workload, step) configuration the ablation will
        // simulate; a configuration the analyzer rejects would waste the
        // whole sweep.
        let items: Vec<_> = suite
            .iter()
            .flat_map(|w| {
                (1..=6).map(move |step| {
                    (
                        format!("{w}|step{step}"),
                        FeatureSet::ablation_step(step),
                        *w,
                    )
                })
            })
            .collect();
        crate::lint_gate("fig7", &items)?;
    }

    let groups = [
        WorkloadGroup::Gemm,
        WorkloadGroup::TransposedGemm,
        WorkloadGroup::Conv,
    ];
    // utilization distributions per (group, step) and access ratios.
    let mut utils: BTreeMap<(WorkloadGroup, usize), Distribution> = BTreeMap::new();
    let mut access_ratio: BTreeMap<(WorkloadGroup, usize), Distribution> = BTreeMap::new();
    let mut attribution: BTreeMap<usize, StallAttribution> = BTreeMap::new();

    // One work item = one workload through all six ablation steps; the
    // simulation runs fan out over `--jobs` threads while capture and the
    // statistics accumulation below stay on this thread, committed in
    // suite order. Each workload's reports are dropped once committed.
    // The traced run's config is fixed before the first commit writes the
    // trace.
    let traced = capture.config(flags.config(), true);
    crate::for_each_ordered(
        &suite,
        flags.jobs,
        |idx, workload| {
            (1..=6)
                .map(|step| {
                    let base = if idx == 0 && step == 6 {
                        traced
                    } else {
                        flags.config()
                    };
                    let cfg = base.with_features(FeatureSet::ablation_step(step));
                    crate::measure(&cfg, *workload, idx as u64)
                        .map_err(|e| format!("step {step} on {workload}: {e}"))
                })
                .collect::<Result<Vec<_>, _>>()
        },
        |idx, step_reports| {
            let (workload, step_reports) = (suite[idx], step_reports?);
            let baseline_accesses = step_reports[0].accesses();
            for (report, step) in step_reports.iter().zip(1..=6) {
                capture.record(&format!("{workload}|step{step}"), report)?;
                utils
                    .entry((workload.group(), step))
                    .or_default()
                    .record(report.utilization());
                access_ratio
                    .entry((workload.group(), step))
                    .or_default()
                    .record(report.accesses() as f64 / baseline_accesses as f64);
                attribution
                    .entry(step)
                    .or_default()
                    .merge(&report.ledger.attribution());
            }
            if (idx + 1) % 20 == 0 {
                eprintln!("  …{}/{} workloads", idx + 1, suite.len());
            }
            Ok::<(), String>(())
        },
    )?;

    println!("\nFig. 7(a): utilization distribution per group and configuration");
    println!("(1=baseline 2=+prefetch 3=+transposer 4=+broadcaster 5=+im2col 6=+mode-switching)");
    for group in groups {
        println!("\n  {group}:");
        println!(
            "  {:<6} {:>8} {:>8} {:>8} {:>8} {:>8} {:>8}",
            "step", "min", "q1", "median", "q3", "max", "mean"
        );
        for step in 1..=6 {
            let s = utils[&(group, step)].summary();
            println!(
                "  {:<6} {:>7.1}% {:>7.1}% {:>7.1}% {:>7.1}% {:>7.1}% {:>7.1}%",
                step,
                100.0 * s.min,
                100.0 * s.q1,
                100.0 * s.median,
                100.0 * s.q3,
                100.0 * s.max,
                100.0 * s.mean
            );
        }
    }

    println!("\nFig. 7(b): data access counts normalized to baseline (mean per group)");
    println!(
        "  {:<18} {:>6} {:>6} {:>6} {:>6} {:>6} {:>6}",
        "group", "1", "2", "3", "4", "5", "6"
    );
    for group in groups {
        print!("  {:<18}", group.to_string());
        for step in 1..=6 {
            let mean = access_ratio[&(group, step)].summary().mean;
            print!(" {mean:>6.3}");
        }
        println!();
    }

    println!("\nStall attribution per configuration (share of compute cycles, all groups)");
    println!(
        "  {:<6} {:>7} {:>11} {:>14} {:>10} {:>7}",
        "step", "fired", "no-operand", "bank-conflict", "writeback", "drain"
    );
    for step in 1..=6 {
        let at = &attribution[&step];
        let total = at.total_cycles() as f64;
        let sum_for = |f: &dyn Fn(OperandPort) -> StallCause| -> u64 {
            OperandPort::ALL.iter().map(|&p| at.count(f(p))).sum()
        };
        let share = |n: u64| 100.0 * n as f64 / total;
        println!(
            "  {:<6} {:>6.1}% {:>10.1}% {:>13.1}% {:>9.1}% {:>6.1}%",
            step,
            share(at.fired()),
            share(sum_for(&StallCause::NoOperand)),
            share(sum_for(&StallCause::BankConflict)),
            share(at.count(StallCause::WritebackBackpressure)),
            share(at.count(StallCause::Drain)),
        );
    }

    // Headline numbers the paper reports for the same figure.
    let speedup_max: f64 = groups
        .iter()
        .flat_map(|g| {
            let base = utils[&(*g, 1)].samples().to_vec();
            let full = utils[&(*g, 6)].samples().to_vec();
            base.into_iter()
                .zip(full)
                .map(|(b, f)| f / b)
                .collect::<Vec<_>>()
        })
        .fold(0.0, f64::max);
    let access_min: f64 = groups
        .iter()
        .map(|g| {
            access_ratio[&(*g, 6)]
                .samples()
                .iter()
                .copied()
                .fold(f64::MAX, f64::min)
        })
        .fold(f64::MAX, f64::min);
    println!("\nheadline: max speedup 6 vs 1 = {speedup_max:.2}x (paper: up to 2.89x)");
    println!(
        "headline: max access reduction = {:.2}% (paper: up to 21.15%)",
        100.0 * (1.0 - access_min)
    );
    Ok(())
}
