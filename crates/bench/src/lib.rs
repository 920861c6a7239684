//! Shared plumbing for the table/figure regeneration binaries.
//!
//! Each binary under `src/bin/` reproduces one table or figure of the
//! paper's evaluation section:
//!
//! | binary  | reproduces |
//! |---------|------------|
//! | `table1` | Table I — feature matrix vs SotA |
//! | `table2` | Table II — design-time / runtime parameters |
//! | `fig7`   | Fig. 7 — ablation utilization box plots + access counts |
//! | `fig8`   | Fig. 8 — FPGA resource utilization |
//! | `fig9`   | Fig. 9 — area and power breakdowns |
//! | `table3` | Table III — real-network GeMM-core utilization |
//! | `fig10`  | Fig. 10 — normalized throughput + data-movement cost vs SotA |
//!
//! Run them with `cargo run -p dm-bench --release --bin <name>`. The one
//! harness binary `dm` rides along, with one subcommand per tool:
//!
//! | subcommand    | tool |
//! |---------------|------|
//! | `dm profile`  | causal bottleneck profiler ([`profile`]) |
//! | `dm critical` | critical-path analyzer ([`critical`]) |
//! | `dm predict`  | static performance prover ([`predict`]) |
//! | `dm lint`     | static configuration linter ([`lint`]) |
//! | `dm regress`  | benchmark regression gate ([`regress`]) |
//!
//! Their shared options, document header and diff driver live in [`cli`].

use std::fs::File;
use std::io::{self, BufWriter, Write};

use dm_sim::{perfetto, JsonValue, Trace};
use dm_system::{run_workload, RunReport, SystemConfig, SystemError};
use dm_workloads::{Workload, WorkloadData};

pub mod cli;
pub mod critical;
pub mod lint;
pub mod predict;
pub mod profile;
pub mod regress;

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

/// Command-line options shared by the figure/table binaries.
#[derive(Debug)]
pub struct BenchArgs {
    /// Run a reduced workload subset for a fast smoke pass.
    pub quick: bool,
    /// Worker threads for independent simulated runs (1 = sequential).
    pub jobs: usize,
    /// Append one JSONL metrics snapshot per simulated run to this path.
    pub metrics_out: Option<String>,
    /// Write a Chrome/Perfetto `trace_event` JSON dump of one traced run.
    pub trace_out: Option<String>,
    /// Stamp token-level causal flow events (AGU issue → bank grant →
    /// response delivery) into the `--trace-out` export. Off by default:
    /// flows add one event triple per unique memory request, which large
    /// workloads notice in file size.
    pub flow_events: bool,
    /// Statically lint every configuration before simulating (abort on
    /// error-severity findings).
    pub lint: bool,
    /// Disable idle-cycle elision and run every simulation in lockstep
    /// (results are bit-identical either way; this is the escape hatch and
    /// the baseline side of the perf-smoke comparison).
    pub no_fast_forward: bool,
}

impl Default for BenchArgs {
    fn default() -> Self {
        BenchArgs {
            quick: false,
            jobs: 1,
            metrics_out: None,
            trace_out: None,
            flow_events: false,
            lint: false,
            no_fast_forward: false,
        }
    }
}

impl BenchArgs {
    /// The default system with the CLI's fast-forward choice applied —
    /// simulating binaries start from this instead of
    /// `SystemConfig::default()` so `--no-fast-forward` reaches every run.
    #[must_use]
    pub fn system_config(&self) -> SystemConfig {
        SystemConfig {
            fast_forward: !self.no_fast_forward,
            flow_events: self.flow_events,
            ..SystemConfig::default()
        }
    }
}

/// Parses the standard bench flags: `--quick`, `--jobs <n>`,
/// `--metrics-out <path>`, `--trace-out <path>`, `--flow-events`,
/// `--lint` and `--no-fast-forward`. Exits with status 2 on anything
/// else.
#[must_use]
pub fn parse_args() -> BenchArgs {
    let mut parsed = BenchArgs::default();
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--quick" => parsed.quick = true,
            "--lint" => parsed.lint = true,
            "--no-fast-forward" => parsed.no_fast_forward = true,
            "--flow-events" => parsed.flow_events = true,
            "--jobs" => {
                parsed.jobs = args
                    .next()
                    .and_then(|n| n.parse().ok())
                    .filter(|&n| n >= 1)
                    .unwrap_or_else(|| usage_error("--jobs requires a positive integer"));
            }
            "--metrics-out" => {
                parsed.metrics_out = Some(
                    args.next()
                        .unwrap_or_else(|| usage_error("--metrics-out requires a path argument")),
                );
            }
            "--trace-out" => {
                parsed.trace_out = Some(
                    args.next()
                        .unwrap_or_else(|| usage_error("--trace-out requires a path argument")),
                );
            }
            other => usage_error(&format!("unknown option: {other}")),
        }
    }
    parsed
}

fn usage_error(msg: &str) -> ! {
    eprintln!("{msg}");
    eprintln!(
        "supported options: --quick, --jobs <n>, --metrics-out <path>, \
         --trace-out <path>, --flow-events, --lint, --no-fast-forward"
    );
    std::process::exit(2);
}

/// Static pre-flight for `--lint`: compiles every `(features, workload)`
/// pair onto the geometry and runs the `dm-analyze` checks before any
/// simulation. Error-severity findings abort the binary (exit 1); warnings
/// and notes are summarized on stderr.
pub fn lint_gate(
    label: &str,
    items: &[(String, dm_compiler::FeatureSet, Workload)],
    mem: &dm_mem::MemConfig,
    depths: dm_compiler::BufferDepths,
) {
    use dm_analyze::Severity;
    let (mut errors, mut warnings, mut free) = (0usize, 0usize, 0usize);
    for (name, features, workload) in items {
        let data = WorkloadData::generate(*workload, 0);
        match dm_compiler::compile(&data, features, mem, true, depths) {
            Ok(program) => {
                let analysis = dm_analyze::analyze_program(&program, mem);
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
        eprintln!("lint({label}): aborting before simulation");
        std::process::exit(1);
    }
}

/// Maps `work` over `items` on up to `jobs` worker threads, returning the
/// results **in input order**.
///
/// Workers claim items through a shared atomic cursor, so scheduling is
/// dynamic, but each result is tagged with its input index and the final
/// vector is committed in that order — the output is identical to `jobs: 1`
/// regardless of thread interleaving (every simulated run owns its whole
/// `MemorySubsystem`, so runs are independent by construction).
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
    let jobs = jobs.clamp(1, items.len().max(1));
    if jobs == 1 {
        return items
            .iter()
            .enumerate()
            .map(|(i, item)| work(i, item))
            .collect();
    }
    let cursor = std::sync::atomic::AtomicUsize::new(0);
    let mut tagged: Vec<(usize, T)> = Vec::with_capacity(items.len());
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..jobs)
            .map(|_| {
                scope.spawn(|| {
                    let mut local = Vec::new();
                    loop {
                        let i = cursor.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                        let Some(item) = items.get(i) else {
                            return local;
                        };
                        local.push((i, work(i, item)));
                    }
                })
            })
            .collect();
        for handle in handles {
            tagged.extend(handle.join().expect("bench worker panicked"));
        }
    });
    tagged.sort_unstable_by_key(|&(i, _)| i);
    tagged.into_iter().map(|(_, result)| result).collect()
}

/// Honours the shared CLI contract in analytic-only binaries (no simulated
/// runs): `--metrics-out` still produces a (necessarily empty) JSONL file
/// so downstream tooling sees a uniform interface, and `--trace-out` warns
/// that there is nothing to trace.
pub fn note_analytic_only(args: &BenchArgs) {
    if let Some(path) = args.metrics_out.as_deref() {
        MetricsLog::create(Some(path))
            .and_then(MetricsLog::finish)
            .unwrap_or_else(|e| panic!("opening metrics log: {e}"));
        eprintln!("note: no simulated runs in this binary; wrote empty metrics log to {path}");
    }
    if args.trace_out.is_some() {
        eprintln!("note: --trace-out ignored: no simulated runs in this binary");
    }
}

/// Streaming JSONL sink for per-run metric snapshots.
///
/// Each [`record`](Self::record) call appends one line of the form
/// `{"label": "...", "metrics": {"system.compute_cycles": ..., ...}}` with
/// the registry flattened to dotted component paths. When constructed
/// without a path every call is a no-op, so binaries can log
/// unconditionally.
pub struct MetricsLog {
    out: Option<BufWriter<File>>,
}

impl MetricsLog {
    /// Opens the sink, truncating any existing file; `None` disables it.
    ///
    /// # Errors
    ///
    /// Propagates the I/O error if the file cannot be created.
    pub fn create(path: Option<&str>) -> io::Result<Self> {
        let out = match path {
            Some(p) => Some(BufWriter::new(File::create(p)?)),
            None => None,
        };
        Ok(Self { out })
    }

    /// Appends the report's metric snapshot as one JSONL line.
    ///
    /// # Errors
    ///
    /// Propagates the I/O error from the underlying writer.
    pub fn record(&mut self, label: &str, report: &RunReport) -> io::Result<()> {
        let Some(out) = &mut self.out else {
            return Ok(());
        };
        let line = JsonValue::object([
            ("label".to_owned(), JsonValue::from(label)),
            ("metrics".to_owned(), report.metrics.to_json()),
        ]);
        writeln!(out, "{}", line.to_json())
    }

    /// Flushes and closes the sink.
    ///
    /// # Errors
    ///
    /// Propagates the I/O error from the final flush.
    pub fn finish(mut self) -> io::Result<()> {
        if let Some(out) = &mut self.out {
            out.flush()?;
        }
        Ok(())
    }
}

/// Writes captured component traces as a Chrome/Perfetto `trace_event`
/// JSON file (load it at `ui.perfetto.dev` or `chrome://tracing`).
///
/// # Errors
///
/// Propagates the I/O error if the file cannot be written.
pub fn write_trace(path: &str, traces: &[(String, Trace)]) -> io::Result<()> {
    std::fs::write(path, perfetto::chrome_trace_json(traces))
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
