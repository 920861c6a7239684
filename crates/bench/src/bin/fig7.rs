//! Regenerates Fig. 7: the ablation study over the 260-workload synthetic
//! suite.
//!
//! * Fig. 7(a): GeMM-core utilization distribution (box-plot statistics and
//!   mean) per kernel group, for configurations ① (baseline) through ⑥
//!   (fully featured);
//! * Fig. 7(b): data access counts per configuration, normalized to the
//!   baseline ①, per kernel group.
//!
//! Pass `--quick` to run on every 5th workload for a fast smoke pass,
//! `--jobs <n>` to fan the independent runs out over `n` threads (output is
//! byte-identical to `--jobs 1`), `--metrics-out <path>` to dump one JSONL
//! metrics snapshot per run, and `--trace-out <path>` to capture a Perfetto
//! trace of the first workload's fully-featured (step ⑥) run.

use std::collections::BTreeMap;

use dm_compiler::FeatureSet;
use dm_sim::{Distribution, OperandPort, StallAttribution, StallCause, TraceMode};
use dm_system::SystemConfig;
use dm_workloads::{synthetic_suite, WorkloadGroup};

fn main() {
    let args = dm_bench::parse_args();
    let quick = args.quick;
    let mut metrics_log = dm_bench::MetricsLog::create(args.metrics_out.as_deref())
        .unwrap_or_else(|e| panic!("opening metrics log: {e}"));
    let mut trace_pending = args.trace_out.as_deref();
    let suite: Vec<_> = synthetic_suite()
        .into_iter()
        .enumerate()
        .filter(|(i, _)| !quick || i % 5 == 0)
        .map(|(_, w)| w)
        .collect();
    println!(
        "Fig. 7 ablation over {} synthetic workloads{}",
        suite.len(),
        if quick { " (--quick subset)" } else { "" }
    );
    if args.lint {
        // Pre-flight every (workload, step) configuration the ablation will
        // simulate; a configuration the analyzer rejects would waste the
        // whole sweep.
        let cfg = SystemConfig::default();
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
        dm_bench::lint_gate("fig7", &items, &cfg.mem, cfg.depths);
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
    // simulation runs fan out over `--jobs` threads while trace capture,
    // metrics logging and the statistics accumulation below stay on this
    // thread, committed in suite order.
    let reports = dm_bench::run_ordered(&suite, args.jobs, |idx, workload| {
        (1..=6)
            .map(|step| {
                let mut cfg = args
                    .system_config()
                    .with_features(FeatureSet::ablation_step(step));
                // Capture the requested Perfetto trace on the first
                // workload's fully-featured run (tracing never changes the
                // measurement, and pinning the choice to item 0 keeps it
                // independent of thread scheduling).
                if args.trace_out.is_some() && idx == 0 && step == 6 {
                    cfg.trace = TraceMode::Full;
                }
                dm_bench::measure(&cfg, *workload, idx as u64)
                    .unwrap_or_else(|e| panic!("step {step} on {workload}: {e}"))
            })
            .collect::<Vec<_>>()
    });
    for (idx, (workload, step_reports)) in suite.iter().zip(&reports).enumerate() {
        let mut baseline_accesses = 0u64;
        for (report, step) in step_reports.iter().zip(1..=6) {
            if step == 1 {
                baseline_accesses = report.accesses();
            }
            if let Some(path) = trace_pending.filter(|_| idx == 0 && step == 6) {
                dm_bench::write_trace(path, &report.traces)
                    .unwrap_or_else(|e| panic!("writing trace to {path}: {e}"));
                eprintln!("  wrote Perfetto trace of '{workload}' (step 6) to {path}");
                trace_pending = None;
            }
            metrics_log
                .record(&format!("{workload}|step{step}"), report)
                .unwrap_or_else(|e| panic!("writing metrics line: {e}"));
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
    }
    metrics_log
        .finish()
        .unwrap_or_else(|e| panic!("flushing metrics log: {e}"));

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
}
