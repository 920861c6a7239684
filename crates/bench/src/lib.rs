//! The DataMaestro evaluation harness behind the one `dm` binary.
//!
//! One subcommand per table or figure of the paper's evaluation section,
//! each printing it to stdout from its own module:
//!
//! | subcommand  | reproduces |
//! |-------------|------------|
//! | `dm table1` | Table I — feature matrix vs SotA ([`table1`]) |
//! | `dm table2` | Table II — design-time / runtime parameters ([`table2`]) |
//! | `dm fig7`   | Fig. 7 — ablation utilization box plots + access counts ([`fig7`]) |
//! | `dm fig8`   | Fig. 8 — FPGA resource utilization ([`fig8`]) |
//! | `dm fig9`   | Fig. 9 — area and power breakdowns ([`fig9`]) |
//! | `dm table3` | Table III — real-network GeMM-core utilization ([`table3`]) |
//! | `dm fig10`  | Fig. 10 — normalized throughput + data-movement cost vs SotA ([`fig10`]) |
//! | `dm sweeps` | design-choice sweeps of DESIGN.md §5 ([`sweeps`]) |
//!
//! and one per analysis tool:
//!
//! | subcommand    | tool |
//! |---------------|------|
//! | `dm profile`  | causal bottleneck profiler ([`profile`]) |
//! | `dm critical` | critical-path analyzer ([`critical`]) |
//! | `dm predict`  | static performance prover ([`predict`]) |
//! | `dm lint`     | static configuration linter ([`lint`]) |
//! | `dm regress`  | benchmark regression gate ([`regress`]) |
//!
//! Run it with `cargo run -p dm-bench --release --bin dm -- <subcommand>`.
//! The shared options, the metrics/trace capture, the document header and
//! the diff driver live in [`cli`].

use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::{mpsc, Mutex};

use dm_cost::EnergyEvents;
use dm_system::{run_workload, RunReport, SystemConfig, SystemError};
use dm_workloads::{Workload, WorkloadData};

pub mod cli;
pub mod critical;
pub mod fig10;
pub mod fig7;
pub mod fig8;
pub mod fig9;
pub mod lint;
pub mod predict;
pub mod profile;
pub mod regress;
pub mod sweeps;
pub mod table1;
pub mod table2;
pub mod table3;

/// Representative DNN kernels used by the Fig. 10 throughput comparison.
///
/// The mix mirrors the paper's framing: Transformer projection and
/// attention GeMMs, CNN body and stem convolutions, and the strided
/// downsampling layers every system struggles with.
#[must_use]
pub fn representative_kernels() -> Vec<(&'static str, Workload)> {
    use dm_workloads::{ConvSpec, GemmSpec};
    vec![
        ("GeMM-64", GemmSpec::new(64, 64, 64).into()),
        ("GeMM 128x768x768", GemmSpec::new(128, 768, 768).into()),
        ("Attention 128x128x64", GemmSpec::new(128, 128, 64).into()),
        ("tGeMM-64", GemmSpec::transposed(64, 64, 64).into()),
        (
            "Conv3x3 56x56x64",
            ConvSpec::new(58, 58, 64, 64, 3, 3, 1).into(),
        ),
        (
            "Conv3x3/2 down",
            ConvSpec::new(58, 58, 64, 128, 3, 3, 2).into(),
        ),
        (
            "Conv1x1/2 shortcut",
            ConvSpec::new(56, 56, 64, 128, 1, 1, 2).into(),
        ),
        (
            "Conv3x3 stem (cin 8)",
            ConvSpec::new(58, 58, 8, 64, 3, 3, 1).into(),
        ),
    ]
}

/// Runs one workload on the given system without golden checking (the
/// harness runs many large workloads; functional correctness is covered by
/// the test suite on the same code paths).
///
/// # Errors
///
/// Propagates any [`SystemError`] from the simulation.
pub fn measure(
    config: &SystemConfig,
    workload: Workload,
    seed: u64,
) -> Result<RunReport, SystemError> {
    let data = WorkloadData::generate(workload, seed);
    let cfg = SystemConfig {
        check_output: false,
        ..*config
    };
    run_workload(&cfg, &data)
}

/// Static pre-flight for `--lint`: compiles every `(features, workload)`
/// pair onto the evaluation geometry and runs the `dm-analyze` checks
/// before any simulation. Warnings and notes are summarized on stderr.
///
/// # Errors
///
/// Returns a one-line message when any configuration has an
/// error-severity finding (each is listed on stderr first).
pub fn lint_gate(
    label: &str,
    items: &[(String, dm_compiler::FeatureSet, Workload)],
) -> Result<(), String> {
    use dm_analyze::Severity;
    let SystemConfig { mem, depths, .. } = SystemConfig::default();
    let (mut errors, mut warnings, mut free) = (0usize, 0usize, 0usize);
    for (name, features, workload) in items {
        let data = WorkloadData::generate(*workload, 0);
        match dm_compiler::compile(&data, features, &mem, true, depths) {
            Ok(program) => {
                let analysis = dm_analyze::analyze_program(&program, &mem);
                free += usize::from(analysis.conflict_free);
                for diag in &analysis.report.diagnostics {
                    match diag.severity {
                        Severity::Error => {
                            errors += 1;
                            eprintln!("  lint: {name}: {diag}");
                        }
                        Severity::Warning => warnings += 1,
                        Severity::Info => {}
                    }
                }
            }
            Err(e) => {
                errors += 1;
                eprintln!("  lint: {name}: error[DM-CONFIG] does not compile: {e}");
            }
        }
    }
    eprintln!(
        "lint({label}): {} configuration(s), {free} proven conflict-free, \
         {warnings} warning(s), {errors} error(s)",
        items.len()
    );
    if errors > 0 {
        return Err(format!("lint({label}): aborting before simulation"));
    }
    Ok(())
}

/// Maps `work` over `items` on up to `jobs` worker threads, returning the
/// results **in input order** (see [`for_each_ordered`]).
///
/// # Panics
///
/// Re-raises a panic from any worker.
pub fn run_ordered<I, T, F>(items: &[I], jobs: usize, work: F) -> Vec<T>
where
    I: Sync,
    T: Send,
    F: Fn(usize, &I) -> T + Sync,
{
    let mut results = Vec::with_capacity(items.len());
    let committed = for_each_ordered(items, jobs, work, |_, result| {
        results.push(result);
        Ok::<(), std::convert::Infallible>(())
    });
    let Ok(()) = committed;
    results
}

/// Maps `work` over `items` on up to `jobs` worker threads and hands each
/// result to `commit` **in input order**, as soon as it and every earlier
/// result are done.
///
/// Workers claim items in order, so scheduling is dynamic, but each result
/// is tagged with its input index and committed in that order — the
/// commits are identical to `jobs: 1` regardless of thread interleaving
/// (every simulated run owns its whole `MemorySubsystem`, so runs are
/// independent by construction). A worker claims item `i` only while `i <
/// committed + jobs`, so at most `jobs` results are ever held, however slow
/// an earlier item is.
///
/// # Errors
///
/// The first error `commit` returns; no later result is committed, and
/// workers claim no further item.
///
/// # Panics
///
/// Re-raises a panic from `work` when its item's turn to commit comes.
pub fn for_each_ordered<I, T, E, F, C>(
    items: &[I],
    jobs: usize,
    work: F,
    mut commit: C,
) -> Result<(), E>
where
    I: Sync,
    T: Send,
    F: Fn(usize, &I) -> T + Sync,
    C: FnMut(usize, T) -> Result<(), E>,
{
    let jobs = jobs.clamp(1, items.len().max(1));
    if jobs == 1 {
        return items
            .iter()
            .enumerate()
            .try_for_each(|(i, item)| commit(i, work(i, item)));
    }
    // Item `i` is handed out only once item `i − jobs` is committed.
    let (ticket, tickets) = mpsc::channel();
    (0..jobs).for_each(|i| ticket.send(i).expect("the tickets are open"));
    let tickets = Mutex::new(tickets);
    std::thread::scope(|scope| {
        // Dropped on every exit, which stops the workers.
        let ticket = ticket;
        let (done, finished) = mpsc::channel();
        for _ in 0..jobs {
            let done = done.clone();
            let (tickets, work) = (&tickets, &work);
            scope.spawn(move || loop {
                let claim = tickets.lock().expect("no panic holds the lock").recv();
                let Ok(i) = claim else {
                    return;
                };
                let result = catch_unwind(AssertUnwindSafe(|| work(i, &items[i])));
                if done.send((i, result)).is_err() {
                    return;
                }
            });
        }
        drop(done);
        let mut ahead = std::collections::BTreeMap::new();
        for next in 0..items.len() {
            let result = loop {
                if let Some(result) = ahead.remove(&next) {
                    break result;
                }
                let (i, result) = finished.recv().expect("a worker holds each ticket");
                ahead.insert(i, result);
            };
            commit(next, result.unwrap_or_else(|panic| resume_unwind(panic)))?;
            if next + jobs < items.len() {
                ticket.send(next + jobs).expect("the workers are alive");
            }
        }
        Ok(())
    })
}

/// The activity counts of a GeMM-64 run that the `dm-cost` power model
/// multiplies by its per-event energies (Fig. 9(c), Fig. 10 right).
#[must_use]
pub fn gemm64_energy_events(report: &RunReport) -> EnergyEvents {
    EnergyEvents {
        sram_reads: report.mem_reads,
        sram_writes: report.mem_writes,
        macs: report.active_cycles * 512,
        rescales: 64 * 64,
        fifo_words: report.mem_reads + report.mem_writes,
        agu_steps: report
            .streamer_stats
            .iter()
            .map(|s| s.temporal_addresses.get())
            .sum(),
        cycles: report.total_cycles(),
    }
}

/// Formats a ratio as a percentage with two decimals.
#[must_use]
pub fn pct(x: f64) -> String {
    format!("{:.2}%", 100.0 * x)
}

/// Prints a horizontal rule sized for the standard table width.
pub fn rule(width: usize) {
    println!("{}", "-".repeat(width));
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kernels_cover_all_groups() {
        use dm_workloads::WorkloadGroup;
        let kernels = representative_kernels();
        assert!(kernels.len() >= 6);
        for group in [
            WorkloadGroup::Gemm,
            WorkloadGroup::TransposedGemm,
            WorkloadGroup::Conv,
        ] {
            assert!(
                kernels.iter().any(|(_, w)| w.group() == group),
                "missing {group}"
            );
        }
    }

    #[test]
    fn measure_runs_without_check() {
        use dm_workloads::GemmSpec;
        let report = measure(
            &SystemConfig::default(),
            GemmSpec::new(16, 16, 16).into(),
            1,
        )
        .unwrap();
        assert!(!report.checked);
        assert!(report.utilization() > 0.5);
    }

    #[test]
    fn pct_formats() {
        assert_eq!(pct(0.12345), "12.35%");
        assert_eq!(pct(1.0), "100.00%");
    }

    #[test]
    fn run_ordered_commits_results_in_input_order() {
        let items: Vec<usize> = (0..100).collect();
        let square = |i: usize, &x: &usize| {
            assert_eq!(i, x);
            x * x
        };
        let sequential = run_ordered(&items, 1, square);
        for jobs in [2, 3, 8, 200] {
            assert_eq!(run_ordered(&items, jobs, square), sequential, "jobs={jobs}");
        }
        assert!(run_ordered(&[] as &[usize], 4, square).is_empty());
    }

    /// Commits come in order, stop at the first error, and no worker
    /// claims an item `jobs` or more past the commit point, however slow
    /// an earlier item is.
    #[test]
    fn for_each_ordered_commits_in_order_and_stops_at_an_error() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        let items: Vec<usize> = (0..50).collect();
        for jobs in [1, 2, 4] {
            let (mut seen, committed) = (Vec::new(), AtomicUsize::new(0));
            let result = for_each_ordered(
                &items,
                jobs,
                |i, &x| {
                    assert!(i < committed.load(Ordering::SeqCst) + jobs, "item {i}");
                    if i % 10 == 0 {
                        std::thread::sleep(std::time::Duration::from_millis(5));
                    }
                    x * 2
                },
                |i, doubled| {
                    if i == 30 {
                        return Err(format!("item {i}"));
                    }
                    seen.push(doubled);
                    committed.store(i + 1, Ordering::SeqCst);
                    Ok(())
                },
            );
            assert_eq!(result, Err("item 30".to_owned()), "jobs={jobs}");
            assert_eq!(seen, (0..30).map(|x| x * 2).collect::<Vec<_>>());
        }
    }

    #[test]
    #[should_panic(expected = "worker failed")]
    fn for_each_ordered_re_raises_a_worker_panic_instead_of_waiting() {
        let items: Vec<usize> = (0..20).collect();
        let _ = for_each_ordered(
            &items,
            2,
            |i, _| assert!(i != 0, "worker failed"),
            |_, ()| Ok::<(), ()>(()),
        );
    }

    #[test]
    fn run_ordered_simulated_runs_are_byte_identical_across_jobs() {
        use dm_workloads::GemmSpec;
        let specs = [
            GemmSpec::new(16, 16, 16),
            GemmSpec::new(16, 32, 16),
            GemmSpec::new(32, 16, 16),
        ];
        let entries = |jobs: usize| -> Vec<String> {
            run_ordered(&specs, jobs, |i, &spec| {
                let report = measure(&SystemConfig::default(), spec.into(), i as u64).unwrap();
                regress::entry_json(&format!("g{i}"), &report).to_json()
            })
        };
        assert_eq!(entries(1), entries(3));
    }
}
