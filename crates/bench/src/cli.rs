//! The shared harness surface behind the `dm` binary.
//!
//! `dm profile`, `dm critical`, `dm predict`, `dm lint` and `dm regress`
//! speak one `run`/`diff` dialect, and the figure subcommands ([`FIGURES`])
//! parse the same options. This module holds the one copy of what they
//! share: the run options ([`RunFlags`]) and their parser, the figures'
//! metrics/trace [`Capture`], the harness error type, the Fig. 7 item
//! selection, the document header, document loading and emission, and the
//! diff prologue ([`DocKind::pair`]) that refuses cross-schema and
//! cross-latency comparisons. Parsers, loaders and figures return
//! `Err(message)` instead of exiting, so the binary owns every exit code
//! and the pieces stay unit-testable.

use std::fmt::{self, Write as _};
use std::fs::File;
use std::io::{BufWriter, Write as _};

use dm_compiler::FeatureSet;
use dm_sim::{perfetto, JsonValue, TraceMode};
use dm_system::{RunReport, SystemConfig, SystemError};
use dm_workloads::{synthetic_suite, Workload};

/// `run` flags of the simulating tools (`profile`, `critical`), as a
/// space-separated list (see [`RunFlags::parse`]).
pub const SIM_FLAGS: &str = "--step --full --quick --jobs --latency --no-fast-forward --json --out";

/// `predict run` flags: the simulating set minus `--no-fast-forward`.
pub const PREDICT_FLAGS: &str = "--step --full --quick --jobs --latency --json --out";

/// `lint` flags: suite selection and the gate, plus the output flags.
pub const LINT_FLAGS: &str = "--suite --quick --json --out --deny-warnings --demo";

/// `regress run` flags.
pub const REGRESS_FLAGS: &str = "--out --full --quick --no-host --no-fast-forward --lint --jobs";

/// Flags of the figures that simulate suites (`fig7`, `table3`, `sweeps`).
pub const FIGURE_FLAGS: &str =
    "--quick --jobs --metrics-out --trace-out --flow-events --lint --no-fast-forward";

fn accepts(accepted: &str, flag: &str) -> bool {
    accepted.split(' ').any(|f| f == flag)
}

/// One analysis run: `(label, workload, seed)`.
pub type Item = (String, Workload, u64);

/// The options of every `dm <tool> run`. Each tool accepts the subset of
/// flags it lists (see [`RunFlags::parse`]); the rest keep their defaults.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RunFlags {
    /// Ablation step (1 = baseline … 6 = fully featured).
    pub step: usize,
    /// Run the complete suite instead of the every-5th Fig. 7 slice.
    pub full: bool,
    /// Worker threads (documents are byte-identical for any value).
    pub jobs: usize,
    /// Scratchpad bank read latency in cycles.
    pub read_latency: u64,
    /// Idle-cycle elision (`--no-fast-forward` disables it; documents are
    /// byte-identical either way).
    pub fast_forward: bool,
    /// Emit the canonical JSON document instead of the human table.
    pub json: bool,
    /// Write the JSON document to this path (implies `json`).
    pub out: Option<String>,
    /// `regress run`: add the wall-clock `host` section (`--no-host`
    /// clears it).
    pub host: bool,
    /// `regress run`: lint every configuration before simulating.
    pub lint: bool,
    /// `lint`: the suite to analyze (`fig7`, `table3`, `kernels`, `all`).
    pub suite: String,
    /// `lint`: analyze a known-bad fixture instead of a suite.
    pub demo: Option<String>,
    /// `lint`: warnings fail the gate too.
    pub deny_warnings: bool,
    /// Figures: append one JSONL metrics snapshot per simulated run here.
    pub metrics_out: Option<String>,
    /// Figures: write a Perfetto `trace_event` dump of the figure's pinned
    /// run here (see [`Capture::config`]).
    pub trace_out: Option<String>,
    /// Figures: stamp token-level causal flow events (AGU issue → bank
    /// grant → response delivery) into the `--trace-out` export. Off by
    /// default: flows add one event triple per unique memory request.
    pub flow_events: bool,
}

impl Default for RunFlags {
    fn default() -> Self {
        RunFlags {
            step: 6,
            full: false,
            jobs: 1,
            read_latency: SystemConfig::default().read_latency,
            fast_forward: true,
            json: false,
            out: None,
            host: true,
            lint: false,
            suite: "all".to_owned(),
            demo: None,
            deny_warnings: false,
            metrics_out: None,
            trace_out: None,
            flow_events: false,
        }
    }
}

fn positive<T: std::str::FromStr + PartialOrd + From<u8>>(value: Option<&String>) -> Option<T> {
    value
        .and_then(|v| v.parse().ok())
        .filter(|n| *n >= T::from(1))
}

impl RunFlags {
    /// Applies `args` on top of `self`, accepting only the flags listed in
    /// `accepted` ([`SIM_FLAGS`], [`PREDICT_FLAGS`], [`LINT_FLAGS`],
    /// [`REGRESS_FLAGS`] or a [`Figure`]'s).
    ///
    /// # Errors
    ///
    /// Returns a one-line message naming the offending flag.
    pub fn parse(mut self, args: &[String], accepted: &str) -> Result<Self, String> {
        let mut it = args.iter();
        while let Some(arg) = it.next() {
            if !accepts(accepted, arg) {
                return Err(format!("unknown option: {arg}"));
            }
            match arg.as_str() {
                "--step" => {
                    self.step = positive(it.next())
                        .filter(|&n| n <= 6)
                        .ok_or("--step requires an integer in 1..=6")?;
                }
                "--full" => self.full = true,
                "--quick" => self.full = false,
                "--jobs" => {
                    self.jobs = positive(it.next()).ok_or("--jobs requires a positive integer")?;
                }
                "--latency" => {
                    self.read_latency =
                        positive(it.next()).ok_or("--latency requires a positive integer")?;
                }
                "--no-fast-forward" => self.fast_forward = false,
                "--json" => self.json = true,
                "--out" => {
                    self.out = Some(it.next().cloned().ok_or("--out requires a path argument")?);
                    self.json = true;
                }
                "--no-host" => self.host = false,
                "--lint" => self.lint = true,
                "--suite" => self.suite = it.next().cloned().ok_or("--suite requires a name")?,
                "--demo" => self.demo = Some(it.next().cloned().ok_or("--demo requires a name")?),
                "--deny-warnings" => self.deny_warnings = true,
                "--metrics-out" => {
                    let path = it.next().ok_or("--metrics-out requires a path argument")?;
                    self.metrics_out = Some(path.clone());
                }
                "--trace-out" => {
                    let path = it.next().ok_or("--trace-out requires a path argument")?;
                    self.trace_out = Some(path.clone());
                }
                "--flow-events" => self.flow_events = true,
                other => unreachable!("accepted flag {other} has no parser"),
            }
        }
        Ok(self)
    }

    /// The system configuration of one run: the ablation step's features,
    /// the read latency, the fast-forward choice and the flow events.
    #[must_use]
    pub fn config(&self) -> SystemConfig {
        SystemConfig {
            fast_forward: self.fast_forward,
            read_latency: self.read_latency,
            flow_events: self.flow_events,
            ..SystemConfig::default().with_features(FeatureSet::ablation_step(self.step))
        }
    }

    /// The `(label, workload, seed)` items of the Fig. 7 ablation slice at
    /// this step. Labels and seeds match `regress run`, so every document
    /// relates directly to the benchmark baselines.
    #[must_use]
    pub fn items(&self) -> Vec<Item> {
        fig7_slice(self.full)
            .into_iter()
            .map(|(i, w)| (format!("{w}|step{}", self.step), w, i as u64))
            .collect()
    }

    /// The header every analysis document starts with: `schema`, `step`,
    /// `mode`, `read_latency` and `workloads`. Callers append their fields.
    #[must_use]
    pub fn header(&self, schema: &str, workloads: usize) -> Vec<(String, JsonValue)> {
        vec![
            ("schema".to_owned(), JsonValue::from(schema)),
            ("step".to_owned(), JsonValue::from(self.step)),
            (
                "mode".to_owned(),
                JsonValue::from(if self.full { "full" } else { "quick" }),
            ),
            (
                "read_latency".to_owned(),
                JsonValue::from(self.read_latency),
            ),
            ("workloads".to_owned(), JsonValue::from(workloads)),
        ]
    }
}

/// One figure subcommand: `dm <name>` prints a table or figure of the
/// paper's evaluation to stdout.
#[derive(Debug, Clone, Copy)]
pub struct Figure {
    /// Subcommand name, e.g. `fig7`.
    pub name: &'static str,
    /// The space-separated flags it accepts; empty for the analytic
    /// figures, which simulate nothing.
    pub flags: &'static str,
    /// Prints the figure, recording each simulated run into the capture.
    pub run: fn(&RunFlags, &mut Capture) -> Result<(), String>,
}

/// Every figure subcommand, in the paper's order.
pub const FIGURES: [Figure; 8] = [
    Figure {
        name: "table1",
        flags: "",
        run: |_, _| {
            crate::table1::print();
            Ok(())
        },
    },
    Figure {
        name: "table2",
        flags: "",
        run: |_, _| {
            crate::table2::print();
            Ok(())
        },
    },
    Figure {
        name: "fig7",
        flags: FIGURE_FLAGS,
        run: crate::fig7::run,
    },
    Figure {
        name: "fig8",
        flags: "",
        run: |_, _| {
            crate::fig8::print();
            Ok(())
        },
    },
    Figure {
        name: "fig9",
        flags: "--metrics-out --trace-out --flow-events --no-fast-forward",
        run: crate::fig9::run,
    },
    Figure {
        name: "table3",
        flags: FIGURE_FLAGS,
        run: crate::table3::run,
    },
    Figure {
        name: "fig10",
        flags: "--quick --metrics-out --trace-out --flow-events --no-fast-forward",
        run: crate::fig10::run,
    },
    Figure {
        name: "sweeps",
        flags: FIGURE_FLAGS,
        run: crate::sweeps::run,
    },
];

impl Figure {
    /// The figure subcommand called `name`, if any.
    #[must_use]
    pub fn find(name: &str) -> Option<&'static Figure> {
        FIGURES.iter().find(|figure| figure.name == name)
    }

    /// Parses this figure's flags. Figures default to their full suite;
    /// `--quick` selects the subset.
    ///
    /// # Errors
    ///
    /// Returns a one-line message naming the offending flag.
    pub fn parse(&self, args: &[String]) -> Result<RunFlags, String> {
        let full = RunFlags {
            full: true,
            ..RunFlags::default()
        };
        full.parse(args, self.flags)
    }
}

/// The `--metrics-out`/`--trace-out` sink of one figure: one JSONL line
/// per recorded run, `{"label": ..., "metrics": {...}}` with the registry
/// flattened to dotted component paths, and a Perfetto trace of the one
/// run the figure pins, written once.
#[derive(Debug)]
pub struct Capture {
    metrics: Option<(String, BufWriter<File>)>,
    trace: Option<String>,
}

impl Capture {
    /// Opens (truncates) the metrics log of `flags`, if any.
    ///
    /// # Errors
    ///
    /// Returns a one-line message when the log cannot be created.
    pub fn open(flags: &RunFlags) -> Result<Self, String> {
        let metrics = match &flags.metrics_out {
            Some(path) => {
                let file = File::create(path).map_err(|e| format!("creating {path}: {e}"))?;
                Some((path.clone(), BufWriter::new(file)))
            }
            None => None,
        };
        Ok(Capture {
            metrics,
            trace: flags.trace_out.clone(),
        })
    }

    /// `cfg`, fully traced when `pinned` marks the run to trace and no
    /// trace was written yet. Tracing never changes a measurement, and
    /// pinning by item index keeps the choice independent of `--jobs`.
    #[must_use]
    pub fn config(&self, mut cfg: SystemConfig, pinned: bool) -> SystemConfig {
        if pinned && self.trace.is_some() {
            cfg.trace = TraceMode::Full;
        }
        cfg
    }

    /// Appends the run's metrics line and, for the traced run, writes the
    /// Perfetto file.
    ///
    /// # Errors
    ///
    /// Returns a one-line message when either file cannot be written.
    pub fn record(&mut self, label: &str, report: &RunReport) -> Result<(), String> {
        if let Some((path, out)) = &mut self.metrics {
            let line = JsonValue::object([
                ("label".to_owned(), JsonValue::from(label)),
                ("metrics".to_owned(), report.metrics.to_json()),
            ]);
            writeln!(out, "{}", line.to_json()).map_err(|e| format!("writing {path}: {e}"))?;
        }
        if report.traces.is_empty() {
            return Ok(());
        }
        if let Some(path) = self.trace.take() {
            std::fs::write(&path, perfetto::chrome_trace_json(&report.traces))
                .map_err(|e| format!("writing {path}: {e}"))?;
            eprintln!("  wrote Perfetto trace of '{label}' to {path}");
        }
        Ok(())
    }

    /// Flushes the metrics log.
    ///
    /// # Errors
    ///
    /// Returns a one-line message when the final flush fails.
    pub fn finish(self) -> Result<(), String> {
        if let Some((path, mut out)) = self.metrics {
            out.flush().map_err(|e| format!("writing {path}: {e}"))?;
        }
        Ok(())
    }
}

/// The Fig. 7 workloads a run covers — every 5th (quick) or all (`full`) —
/// with their index in the unfiltered suite, which is also their seed, so
/// quick and full runs agree on shared entries.
#[must_use]
pub fn fig7_slice(full: bool) -> Vec<(usize, Workload)> {
    synthetic_suite()
        .into_iter()
        .enumerate()
        .filter(|(i, _)| full || i % 5 == 0)
        .collect()
}

/// Simulates `items` under `flags.config()` on `flags.jobs` workers and
/// re-checks every report against the tool's contract (`check`). Returns
/// the reports in item order plus the summed `prepass`/`compute`/`ideal`
/// cycle fields every simulated document carries.
///
/// # Errors
///
/// Propagates the first (in item order) [`SystemError`], then the first
/// contract violation.
#[allow(clippy::type_complexity)]
pub fn simulate(
    flags: &RunFlags,
    items: &[Item],
    check: fn(&str, &RunReport) -> Result<(), HarnessError>,
) -> Result<(Vec<RunReport>, Vec<(String, JsonValue)>), HarnessError> {
    let cfg = flags.config();
    let reports = crate::run_ordered(items, flags.jobs, |_, (_, workload, seed)| {
        crate::measure(&cfg, *workload, *seed)
    })
    .into_iter()
    .collect::<Result<Vec<_>, _>>()
    .map_err(HarnessError::Sim)?;
    for ((label, _, _), report) in items.iter().zip(&reports) {
        check(label, report)?;
    }
    let total = |cycles: fn(&RunReport) -> u64| reports.iter().map(cycles).sum::<u64>().into();
    let cycles = vec![
        ("prepass".to_owned(), total(|r| r.prepass_cycles)),
        ("compute".to_owned(), total(|r| r.compute_cycles)),
        ("ideal".to_owned(), total(|r| r.ideal_cycles)),
    ];
    Ok((reports, cycles))
}

/// What went wrong while building a harness document.
#[derive(Debug)]
pub enum HarnessError {
    /// A simulated run failed outright.
    Sim(SystemError),
    /// A run broke a tool's contract (a simulator or analyzer bug) or a
    /// proof failed; the message names the run and what broke.
    Contract(String),
}

impl fmt::Display for HarnessError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            HarnessError::Sim(e) => write!(f, "simulation failed: {e}"),
            HarnessError::Contract(msg) => f.write_str(msg),
        }
    }
}

impl std::error::Error for HarnessError {}

/// The flags of a `diff` (or `regress guard`) invocation.
#[derive(Debug, Clone, PartialEq)]
pub struct DiffFlags {
    /// Compare documents recorded under different read latencies.
    pub allow_mismatch: bool,
    /// `regress diff --threshold` / `regress guard --min-ratio`.
    pub limit: Option<f64>,
    /// Path of the old (baseline) document.
    pub old: String,
    /// Path of the new document.
    pub new: String,
}

/// Parses `<old> <new>` plus the space-separated flags in `accepted`
/// (`--allow-mismatch`, `--threshold <f>`, `--min-ratio <r>`), in any
/// order.
///
/// # Errors
///
/// Returns a one-line message when the two paths are missing, a value is
/// malformed, or a flag is not accepted.
pub fn parse_diff_flags(args: &[String], accepted: &str) -> Result<DiffFlags, String> {
    let (mut allow_mismatch, mut limit) = (false, None);
    let mut paths: Vec<&String> = Vec::new();
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        if !arg.starts_with("--") {
            paths.push(arg);
            continue;
        }
        if !accepts(accepted, arg) {
            return Err(format!("unknown option: {arg}"));
        }
        if arg == "--allow-mismatch" {
            allow_mismatch = true;
        } else {
            let value = it.next().and_then(|v| v.parse().ok());
            limit = Some(value.ok_or(format!("{arg} requires a number"))?);
        }
    }
    let [old, new] = paths[..] else {
        return Err("diff requires exactly two document paths".to_owned());
    };
    Ok(DiffFlags {
        allow_mismatch,
        limit,
        old: old.clone(),
        new: new.clone(),
    })
}

/// Loads and parses a JSON document.
///
/// # Errors
///
/// Returns a one-line message naming the path on I/O or parse failure.
pub fn load_json(path: &str) -> Result<JsonValue, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("reading {path}: {e}"))?;
    JsonValue::parse(&text).map_err(|e| format!("{path}: malformed JSON: {}", e.message))
}

/// Emits a document per the shared output contract: human rendering by
/// default, canonical JSON with `--json`, written to `--out` when given.
///
/// # Errors
///
/// Returns a one-line message when `--out` cannot be written.
pub fn emit_document(
    flags: &RunFlags,
    what: &str,
    doc: &JsonValue,
    render: impl FnOnce(&JsonValue) -> String,
) -> Result<(), String> {
    match (flags.json, flags.out.as_deref()) {
        (true, Some(path)) => {
            std::fs::write(path, doc.to_json()).map_err(|e| format!("writing {path}: {e}"))?;
            println!("wrote {what} to {path}");
        }
        (true, None) => println!("{}", doc.to_json()),
        (false, _) => print!("{}", render(doc)),
    }
    Ok(())
}

/// One document kind: its schema and how its diffs are introduced.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DocKind {
    /// Tool name heading every rendered diff, e.g. `dm-profile`.
    pub tool: &'static str,
    /// Document format identifier; a diff refuses any other schema.
    pub schema: &'static str,
    /// What the kind's deltas are called in the read-latency refusal and
    /// banner (`deltas`, `bound deltas`); `None` for kinds without a read
    /// latency, which skip that check.
    pub deltas: Option<&'static str>,
}

/// Two documents that passed the diff prologue.
#[derive(Debug, Clone)]
pub struct Pair {
    /// The old (baseline) document.
    pub old: JsonValue,
    /// The new document.
    pub new: JsonValue,
    /// Read latency of the old and the new document (`(0, 0)` for kinds
    /// without one).
    pub latencies: (u64, u64),
}

impl DocKind {
    /// The diff prologue every tool shares. Refuses documents whose schema
    /// is not exactly this kind's — never relaxed, since a format mismatch
    /// is never a physics question — and, unless `allow_mismatch`,
    /// documents recorded under different read latencies: a latency change
    /// moves every delta for physical reasons and would masquerade as a
    /// configuration insight. Latency sweeps (the Fig. 7(a) axis) are
    /// sometimes exactly the question, so `--allow-mismatch` proceeds and
    /// [`diff_header`](Self::diff_header) prints a warning banner.
    ///
    /// # Errors
    ///
    /// Returns the one-line refusal.
    pub fn pair(
        &self,
        old: JsonValue,
        new: JsonValue,
        allow_mismatch: bool,
    ) -> Result<Pair, String> {
        let schema = |doc: &JsonValue| {
            doc.get("schema")
                .and_then(JsonValue::as_str)
                .unwrap_or("<missing>")
                .to_owned()
        };
        let (old_schema, new_schema) = (schema(&old), schema(&new));
        if old_schema != self.schema || new_schema != self.schema {
            return Err(format!(
                "schema mismatch: old '{old_schema}', new '{new_schema}', expected '{}'; \
                 regenerate both documents with this build",
                self.schema
            ));
        }
        let mut latencies = (0, 0);
        if let Some(deltas) = self.deltas {
            latencies = (old.u64_at(&["read_latency"]), new.u64_at(&["read_latency"]));
            if latencies.0 != latencies.1 && !allow_mismatch {
                return Err(format!(
                    "read latency differs ({} vs {}); {deltas} across latencies conflate \
                     physics with configuration (pass --allow-mismatch to compare anyway)",
                    latencies.0, latencies.1
                ));
            }
        }
        Ok(Pair {
            old,
            new,
            latencies,
        })
    }

    /// The diff driver: loads both documents of `flags` and runs the
    /// prologue ([`pair`](Self::pair)).
    ///
    /// # Errors
    ///
    /// Returns a one-line message on a missing or malformed document or a
    /// refused comparison.
    pub fn load(&self, flags: &DiffFlags) -> Result<Pair, String> {
        self.pair(
            load_json(&flags.old)?,
            load_json(&flags.new)?,
            flags.allow_mismatch,
        )
    }

    /// The first lines of every rendered diff: the tool heading, then —
    /// when `--allow-mismatch` let a cross-latency comparison through — a
    /// loud warning banner.
    #[must_use]
    pub fn diff_header(&self, old_label: &str, new_label: &str, latencies: (u64, u64)) -> String {
        let mut out = format!("{} diff: {old_label} -> {new_label}\n", self.tool);
        if latencies.0 != latencies.1 {
            let rule = "=".repeat(68);
            let _ = writeln!(
                out,
                "  {rule}\n  WARNING: read latency differs ({} vs {}) — the {} below\n\
                 \x20 conflate memory physics with configuration changes; proceeding\n\
                 \x20 because --allow-mismatch was given\n  {rule}",
                latencies.0,
                latencies.1,
                self.deltas.unwrap_or("deltas")
            );
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{critical, lint, predict, profile, regress};
    use dm_workloads::GemmSpec;

    fn args(s: &str) -> Vec<String> {
        s.split_whitespace().map(str::to_owned).collect()
    }

    #[test]
    fn run_flags_parse_the_full_dialect() {
        let line = "--step 3 --full --jobs 4 --latency 16 --no-fast-forward --out x.json";
        let flags = RunFlags::default().parse(&args(line), SIM_FLAGS).unwrap();
        assert_eq!(flags.step, 3);
        assert!(flags.full);
        assert_eq!(flags.jobs, 4);
        assert_eq!(flags.read_latency, 16);
        assert!(!flags.fast_forward);
        assert!(flags.json, "--out implies --json");
        assert_eq!(flags.out.as_deref(), Some("x.json"));
        let regress = RunFlags::default().parse(&args("--no-host --lint"), REGRESS_FLAGS);
        assert!(regress.is_ok_and(|r| !r.host && r.lint));
        let lint = RunFlags::default().parse(&args("--suite fig7 --demo oob"), LINT_FLAGS);
        let lint = lint.unwrap();
        assert_eq!(
            (lint.suite.as_str(), lint.demo.as_deref()),
            ("fig7", Some("oob"))
        );
    }

    #[test]
    fn defaults_match_the_simulator() {
        let flags = RunFlags::default().parse(&[], SIM_FLAGS).unwrap();
        assert_eq!(flags, RunFlags::default());
        assert_eq!(
            flags.read_latency,
            SystemConfig::default().read_latency,
            "latency default tracks the simulator's"
        );
    }

    #[test]
    fn static_tools_reject_fast_forward() {
        let parse = |line, accepted| RunFlags::default().parse(&args(line), accepted);
        let err = parse("--no-fast-forward", PREDICT_FLAGS).unwrap_err();
        assert!(err.contains("--no-fast-forward"), "{err}");
        assert!(parse("--no-fast-forward", SIM_FLAGS).is_ok());
        // Each tool keeps exactly its own flags.
        assert!(parse("--no-fast-forward", LINT_FLAGS).is_err());
        assert!(parse("--step 1", REGRESS_FLAGS).is_err());
    }

    #[test]
    fn bad_values_are_one_line_errors() {
        for bad in [
            "--step 7",
            "--step 0",
            "--jobs 0",
            "--latency x",
            "--latency 0",
            "--bogus 1",
        ] {
            let err = RunFlags::default().parse(&args(bad), SIM_FLAGS);
            assert!(err.is_err_and(|e| !e.contains('\n')), "{bad}");
        }
    }

    /// Every flag a figure could take, with a value where it needs one.
    const FIGURE_UNIVERSE: [&str; 9] = [
        "--quick",
        "--jobs 2",
        "--metrics-out m.jsonl",
        "--trace-out t.json",
        "--flow-events",
        "--lint",
        "--no-fast-forward",
        "--step 3",
        "--json",
    ];

    #[test]
    fn figures_accept_exactly_their_flag_sets() {
        let expected = [
            ("table1", ""),
            ("table2", ""),
            ("fig7", FIGURE_FLAGS),
            ("fig8", ""),
            (
                "fig9",
                "--metrics-out --trace-out --flow-events --no-fast-forward",
            ),
            ("table3", FIGURE_FLAGS),
            (
                "fig10",
                "--quick --metrics-out --trace-out --flow-events --no-fast-forward",
            ),
            ("sweeps", FIGURE_FLAGS),
        ];
        assert_eq!(FIGURES.map(|f| f.name), expected.map(|(name, _)| name));
        for (name, accepted) in expected {
            let figure = Figure::find(name).unwrap();
            for line in FIGURE_UNIVERSE {
                let flag = line.split(' ').next().unwrap();
                let parsed = figure.parse(&args(line));
                assert_eq!(parsed.is_ok(), accepts(accepted, flag), "{name} {line}");
            }
        }
        let all = args(FIGURE_UNIVERSE[..7].join(" ").as_str());
        let flags = Figure::find("fig7").unwrap().parse(&all).unwrap();
        assert_eq!(flags.jobs, 2);
        assert_eq!(flags.metrics_out.as_deref(), Some("m.jsonl"));
        assert_eq!(flags.trace_out.as_deref(), Some("t.json"));
        assert!(flags.flow_events && flags.lint && !flags.fast_forward);
        assert!(flags.config().flow_events && !flags.config().fast_forward);
        assert!(Figure::find("fig11").is_none());
    }

    #[test]
    fn analytic_figures_reject_every_flag() {
        for name in ["table1", "table2", "fig8"] {
            let figure = Figure::find(name).unwrap();
            assert!(figure.parse(&[]).is_ok());
            for line in FIGURE_UNIVERSE {
                let err = figure.parse(&args(line)).unwrap_err();
                assert!(err.starts_with("unknown option: --"), "{name}: {err}");
            }
        }
    }

    #[test]
    fn quick_flips_the_full_figure_default() {
        for figure in &FIGURES {
            assert!(figure.parse(&[]).unwrap().full, "{}", figure.name);
            if accepts(figure.flags, "--quick") {
                assert!(!figure.parse(&args("--quick")).unwrap().full);
            }
        }
    }

    #[test]
    fn capture_logs_every_run_and_traces_the_pinned_one_once() {
        let dir = std::env::temp_dir().join(format!("dm-capture-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let (log, trace) = (dir.join("m.jsonl"), dir.join("t.json"));
        let flags = RunFlags {
            metrics_out: Some(log.display().to_string()),
            trace_out: Some(trace.display().to_string()),
            ..RunFlags::default()
        };
        let mut capture = Capture::open(&flags).unwrap();
        let cfg = flags.config();
        assert_eq!(capture.config(cfg, false).trace, TraceMode::Off);
        let traced = capture.config(cfg, true);
        assert_eq!(traced.trace, TraceMode::Full);
        let gemm = GemmSpec::new(16, 16, 16).into();
        for (label, cfg) in [("a", traced), ("b", cfg)] {
            let report = crate::measure(&cfg, gemm, 1).unwrap();
            capture.record(label, &report).unwrap();
        }
        // Written once: a later pinned run is not traced again.
        assert_eq!(capture.config(cfg, true).trace, TraceMode::Off);
        capture.finish().unwrap();
        let lines = std::fs::read_to_string(&log).unwrap();
        let labels: Vec<String> = lines
            .lines()
            .map(|l| JsonValue::parse(l).unwrap().str_at(&["label"]).to_owned())
            .collect();
        assert_eq!(labels, ["a", "b"]);
        assert!(std::fs::read_to_string(&trace)
            .unwrap()
            .contains("traceEvents"));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn unwritable_capture_paths_are_errors_not_panics() {
        let missing = std::env::temp_dir()
            .join(format!("dm-missing-{}", std::process::id()))
            .join("out");
        let path = missing.display().to_string();
        for figure in FIGURES.iter().filter(|f| accepts(f.flags, "--metrics-out")) {
            let flags = figure
                .parse(&args(&format!("--metrics-out {path}")))
                .unwrap();
            let err = Capture::open(&flags).unwrap_err();
            assert!(err.starts_with(&format!("creating {path}: ")), "{err}");
        }
        let flags = RunFlags {
            trace_out: Some(path.clone()),
            ..RunFlags::default()
        };
        let mut capture = Capture::open(&flags).unwrap();
        let cfg = capture.config(flags.config(), true);
        let report = crate::measure(&cfg, GemmSpec::new(16, 16, 16).into(), 1).unwrap();
        let err = capture.record("gemm", &report).unwrap_err();
        assert!(err.starts_with(&format!("writing {path}: ")), "{err}");
    }

    #[test]
    fn diff_flags_require_two_paths() {
        let flags = parse_diff_flags(&args("--allow-mismatch a.json b.json"), "--allow-mismatch");
        let flags = flags.unwrap();
        assert!(flags.allow_mismatch);
        assert_eq!(
            (flags.old.as_str(), flags.new.as_str()),
            ("a.json", "b.json")
        );
        let guard = parse_diff_flags(&args("a --min-ratio 0.9 b"), "--min-ratio");
        assert_eq!(guard.unwrap().limit, Some(0.9));
        for (bad, accepted) in [
            ("a.json", "--allow-mismatch"),
            ("a b c", "--allow-mismatch"),
            ("--frobnicate a b", "--allow-mismatch"),
            ("--allow-mismatch a b", ""),
            ("--threshold x a b", "--threshold"),
        ] {
            assert!(parse_diff_flags(&args(bad), accepted).is_err(), "{bad}");
        }
    }

    #[test]
    fn diff_driver_returns_err_for_missing_and_malformed_documents() {
        let dir = std::env::temp_dir().join(format!("dm-cli-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let malformed = dir.join("malformed.json");
        std::fs::write(&malformed, "{\"schema\": ").unwrap();
        let missing = dir.join("missing.json");
        let flags = |old: &std::path::Path| DiffFlags {
            allow_mismatch: false,
            limit: None,
            old: old.display().to_string(),
            new: old.display().to_string(),
        };
        let err = profile::KIND.load(&flags(&missing)).unwrap_err();
        assert!(err.starts_with("reading "), "{err}");
        let err = profile::KIND.load(&flags(&malformed)).unwrap_err();
        assert!(err.contains("malformed JSON"), "{err}");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// One row of the shared-prologue table: a document kind and a builder
    /// for a small real document of that kind. Each kind's own module
    /// checks its rendered diff and its `--jobs` byte identity.
    struct Row {
        kind: DocKind,
        build: fn(&RunFlags) -> JsonValue,
    }

    fn gemm_items() -> Vec<Item> {
        (0..3)
            .map(|i| (format!("g{i}"), GemmSpec::new(32, 32, 32).into(), i))
            .collect()
    }

    fn table() -> [Row; 5] {
        [
            Row {
                kind: profile::KIND,
                build: |f| profile::document_for_workloads(f, &gemm_items()).unwrap(),
            },
            Row {
                kind: critical::KIND,
                build: |f| critical::document_for_workloads(f, &gemm_items()).unwrap(),
            },
            Row {
                kind: predict::KIND,
                build: |f| predict::document_for_workloads(f, &gemm_items()).unwrap(),
            },
            Row {
                kind: lint::KIND,
                build: |_| {
                    let items = [("gemm-32".to_owned(), GemmSpec::new(32, 32, 32).into())];
                    lint::document_for_workloads(&items, false)
                },
            },
            Row {
                kind: regress::KIND,
                // The prologue reads only the header.
                build: |_| {
                    let schema = JsonValue::from(regress::KIND.schema);
                    JsonValue::object([("schema".to_owned(), schema)])
                },
            },
        ]
    }

    #[test]
    fn shared_prologue_refuses_cross_kind_and_cross_latency_pairs() {
        let rows = table();
        let step5 = RunFlags {
            step: 5,
            ..RunFlags::default()
        };
        let docs: Vec<JsonValue> = rows.iter().map(|row| (row.build)(&step5)).collect();
        for (row, doc) in rows.iter().zip(&docs) {
            let (kind, tool) = (row.kind, row.kind.tool);
            let same = kind.pair(doc.clone(), doc.clone(), false).unwrap();
            assert!(!kind
                .diff_header("a", "b", same.latencies)
                .contains("WARNING"));
            // Cross-schema: every other kind's document is refused, either
            // side, and --allow-mismatch never relaxes that.
            for other in docs.iter().filter(|&other| other != doc) {
                for (a, b, allow) in [(doc, other, false), (other, doc, true)] {
                    let err = kind.pair(a.clone(), b.clone(), allow).unwrap_err();
                    assert!(err.contains("schema mismatch"), "{tool}: {err}");
                }
            }
            if kind.deltas.is_none() {
                continue;
            }
            // Cross-latency: refused unless --allow-mismatch, which puts
            // the warning banner under the tool heading.
            let slow = (row.build)(&RunFlags {
                read_latency: 4,
                ..step5.clone()
            });
            let err = kind.pair(doc.clone(), slow.clone(), false).unwrap_err();
            assert!(err.contains("read latency differs (1 vs 4)"), "{err}");
            let pair = kind.pair(doc.clone(), slow, true).unwrap();
            assert_eq!(pair.latencies, (1, 4));
            let header = kind.diff_header("a", "b", pair.latencies);
            assert!(header.starts_with(&format!("{tool} diff: a -> b\n")));
            assert!(header.contains("WARNING: read latency differs (1 vs 4)"));
        }
    }
}
