//! `dm` — the one harness binary: the paper's tables and figures, the
//! causal and static analysis documents and the benchmark regression gate.
//! Run it without arguments for the synopsis.
//!
//! * `dm table1|table2|fig7|fig8|fig9|table3|fig10|sweeps` prints one table
//!   or figure of the paper's evaluation (see the `dm_bench` crate docs).
//!   The simulating figures run their full suite by default (`--quick`
//!   selects a subset), fan independent runs out over `--jobs` threads
//!   with byte-identical output, write one JSONL metrics line per run to
//!   `--metrics-out` and a Perfetto trace of one pinned run to
//!   `--trace-out` (`--flow-events` adds causal flows to it), lint every
//!   configuration first with `--lint`, and run lockstep with
//!   `--no-fast-forward`. Each figure accepts only the flags it uses;
//!   `table1`, `table2` and `fig8` simulate nothing and take none.
//! * `dm profile run` simulates the Fig. 7 ablation slice at one feature
//!   step (default ⑥) and prints where the stalled cycles went: which
//!   banks, AGUs, sync gates or the writeback flush each cycle waited on,
//!   by fill/steady/drain phase. Every run's ledger is re-checked against
//!   its cycle counters. `dm profile diff` names the dominant blame shift,
//!   e.g. the bank-conflict collapse from FIMA placement (⑤) to bank-aware
//!   remapping (⑥).
//! * `dm critical run` decomposes the end-to-end critical path across
//!   resource classes and ranks the what-if projections; every run is
//!   re-checked against the path contract. `dm critical diff` names the
//!   dominant path shift, e.g. on-path memory latency collapsing from the
//!   coupled baseline (①) to full decoupling (⑥) at read latency 16.
//! * `dm predict run` proves, without simulating, each workload's
//!   steady-state port periods and a sound utilization roofline, with the
//!   predicted bottleneck in the same taxonomy; `dm predict diff` shows how
//!   the roofline moves between steps.
//! * `dm lint` compiles the committed suites onto the evaluation geometry
//!   and runs the full static analysis (bank conflicts, footprints,
//!   hazards, deadlock, `DM-PERF-*` proofs); `dm lint diff` compares two
//!   documents by lint-code counts. `run` is optional for `lint`.
//! * `dm regress run` executes the benchmark suites and writes one
//!   canonical `BENCH_*.json` document (fully deterministic with
//!   `--no-host`). `dm regress diff` fails when utilization drops or p99
//!   latency inflates beyond the tolerance, when the suite composition
//!   drifted, or when provenance fingerprints disagree. `dm regress guard`
//!   requires a fast-forward document to be bit-identical to a lockstep
//!   one and at least `--min-ratio` times as fast.
//!
//! `--json` emits a tool's canonical document (to stdout, or to
//! `--out <path>`); it is byte-identical for any `--jobs` count and with
//! fast-forward on or off. Every `diff` refuses documents of another
//! schema, and the profile, critical and predict diffs refuse documents of
//! another read latency unless `--allow-mismatch` is given, in which case a
//! warning banner precedes the deltas.
//!
//! Exit status: 0 = success, 1 = a failed gate, a refused comparison or an
//! unreadable document, 2 = usage error.

use dm_bench::cli::{
    self, Capture, DiffFlags, DocKind, Figure, HarnessError, Item, Pair, RunFlags,
};
use dm_bench::{critical, lint, predict, profile, regress};
use dm_sim::JsonValue;

const USAGE: &str = "\
usage:
  dm table1|table2|fig8
  dm fig7|table3|sweeps [--quick] [--jobs <n>] [--lint] [--no-fast-forward]
                        [--metrics-out <path>] [--trace-out <path>] [--flow-events]
  dm fig10              [--quick] [--no-fast-forward]
                        [--metrics-out <path>] [--trace-out <path>] [--flow-events]
  dm fig9               [--no-fast-forward]
                        [--metrics-out <path>] [--trace-out <path>] [--flow-events]
  dm profile|critical run [--step <1..6>] [--full|--quick] [--jobs <n>]
                          [--latency <cycles>] [--no-fast-forward] [--json] [--out <path>]
  dm predict run          [--step <1..6>] [--full|--quick] [--jobs <n>]
                          [--latency <cycles>] [--json] [--out <path>]
  dm profile|critical|predict diff [--allow-mismatch] <old.json> <new.json>
  dm lint [run] [--suite fig7|table3|kernels|all] [--quick] [--json] [--out <path>]
                [--deny-warnings] [--demo oob|zero-fifo|nima-clash]
  dm lint diff <old.json> <new.json>
  dm regress run   [--out <path>] [--full|--quick] [--no-host] [--jobs <n>]
                   [--no-fast-forward] [--lint]
  dm regress diff  <baseline.json> <new.json> [--threshold <fraction>]
  dm regress guard <fastforward.json> <lockstep.json> [--min-ratio <r>]
";

/// Why a command stopped early.
enum Failure {
    /// Malformed invocation: exit 2 with the synopsis.
    Usage(String),
    /// A failed run, a refused comparison or an unreadable document: exit 1.
    Fatal(String),
}

type Outcome = Result<i32, Failure>;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let words: Vec<&str> = args.iter().take(2).map(String::as_str).collect();
    let rest = args.get(2..).unwrap_or_default();
    let outcome = match words[..] {
        ["profile", "run"] => analyze(
            (rest, cli::SIM_FLAGS),
            ("profiling", "profile"),
            profile::document_for_workloads,
            profile::render,
        ),
        ["critical", "run"] => analyze(
            (rest, cli::SIM_FLAGS),
            ("tracing", "critical-path document"),
            critical::document_for_workloads,
            critical::render,
        ),
        ["predict", "run"] => analyze(
            (rest, cli::PREDICT_FLAGS),
            ("proving", "prediction"),
            predict::document_for_workloads,
            predict::render,
        ),
        ["profile", "diff"] => compare(rest, &profile::KIND, |p, a, b| {
            profile::render_diff(&profile::diff(p), a, b)
        }),
        ["critical", "diff"] => compare(rest, &critical::KIND, |p, a, b| {
            critical::render_diff(&critical::diff(p), a, b)
        }),
        ["predict", "diff"] => compare(rest, &predict::KIND, |p, a, b| {
            predict::render_diff(&predict::diff(p), a, b)
        }),
        ["lint", "diff"] => compare(rest, &lint::KIND, |p, a, b| {
            lint::render_diff(&lint::diff(p), a, b)
        }),
        ["lint", "run"] => lint_run(rest),
        ["lint", ..] => lint_run(&args[1..]),
        ["regress", "run"] => regress_run(rest),
        ["regress", "diff"] => regress_diff(rest),
        ["regress", "guard"] => regress_guard(rest),
        _ => match args.first().and_then(|name| Figure::find(name)) {
            Some(figure) => run_figure(figure, &args[1..]),
            None => Err(Failure::Usage(String::new())),
        },
    };
    match outcome {
        Ok(code) => std::process::exit(code),
        Err(Failure::Usage(msg)) => {
            if !msg.is_empty() {
                eprintln!("{msg}");
            }
            eprint!("{USAGE}");
            std::process::exit(2);
        }
        Err(Failure::Fatal(msg)) => {
            let command = words.iter().take_while(|w| !w.starts_with("--"));
            eprintln!(
                "dm {}: {msg}",
                command.copied().collect::<Vec<_>>().join(" ")
            );
            std::process::exit(1);
        }
    }
}

/// `dm <figure>`: parse its flags, open the capture, print the figure.
fn run_figure(figure: &Figure, args: &[String]) -> Outcome {
    let flags = figure.parse(args).map_err(Failure::Usage)?;
    let mut capture = Capture::open(&flags).map_err(Failure::Fatal)?;
    (figure.run)(&flags, &mut capture).map_err(Failure::Fatal)?;
    capture.finish().map_err(Failure::Fatal)?;
    Ok(0)
}

/// `profile|critical|predict run`: the Fig. 7 slice at one step.
/// `(verb, what)` name the work in the progress line and the document in
/// the `--out` confirmation.
fn analyze(
    (args, accepted): (&[String], &str),
    (verb, what): (&str, &str),
    build: fn(&RunFlags, &[Item]) -> Result<JsonValue, HarnessError>,
    render: fn(&JsonValue) -> String,
) -> Outcome {
    let flags = RunFlags::default()
        .parse(args, accepted)
        .map_err(Failure::Usage)?;
    let items = flags.items();
    eprintln!(
        "  {verb} {} workloads at ablation step {} ({} jobs)",
        items.len(),
        flags.step,
        flags.jobs
    );
    let doc = build(&flags, &items).map_err(|e| Failure::Fatal(e.to_string()))?;
    cli::emit_document(&flags, what, &doc, render).map_err(Failure::Fatal)?;
    Ok(0)
}

/// Parses `diff` arguments and runs the shared driver (load, schema and
/// latency refusal) for `kind`.
fn load(args: &[String], kind: &DocKind, accepted: &str) -> Result<(DiffFlags, Pair), Failure> {
    let flags = cli::parse_diff_flags(args, accepted).map_err(Failure::Usage)?;
    let pair = kind.load(&flags).map_err(Failure::Fatal)?;
    Ok((flags, pair))
}

/// `<tool> diff`: the shared driver, then the tool's rendered deltas.
fn compare(args: &[String], kind: &DocKind, render: fn(&Pair, &str, &str) -> String) -> Outcome {
    let accepted = if kind.deltas.is_some() {
        "--allow-mismatch"
    } else {
        ""
    };
    let (flags, pair) = load(args, kind, accepted)?;
    print!("{}", render(&pair, &flags.old, &flags.new));
    Ok(0)
}

fn lint_run(args: &[String]) -> Outcome {
    // The historical default is the full suite; --quick opts into the
    // every-5th Fig. 7 slice.
    let flags = RunFlags {
        full: true,
        ..RunFlags::default()
    }
    .parse(args, cli::LINT_FLAGS)
    .map_err(Failure::Usage)?;
    let doc = if let Some(demo) = &flags.demo {
        // Demo fixtures are known-bad by construction, so they always gate
        // at warning level — otherwise the warning-only `nima-clash` would
        // "pass".
        let report = lint::demo_report(demo)
            .ok_or_else(|| Failure::Usage(format!("unknown demo fixture: {demo}")))?;
        lint::document_for_report(&report, 1, 0, true)
    } else {
        let workloads = lint::suite_workloads(&flags.suite, !flags.full).ok_or_else(|| {
            Failure::Usage("--suite must be fig7, table3, kernels or all".to_owned())
        })?;
        lint::document_for_workloads(&workloads, flags.deny_warnings)
    };
    let passed = matches!(doc.get("passed"), Some(JsonValue::Bool(true)));
    cli::emit_document(&flags, "lint report", &doc, lint::render).map_err(Failure::Fatal)?;
    Ok(i32::from(!passed))
}

fn regress_run(args: &[String]) -> Outcome {
    let flags = RunFlags::default()
        .parse(args, cli::REGRESS_FLAGS)
        .map_err(Failure::Usage)?;
    if flags.lint {
        dm_bench::lint_gate("regress", &regress::lint_items(flags.full)).map_err(Failure::Fatal)?;
    }
    let doc = regress::bench_document(&flags, |msg| eprintln!("  {msg}"))
        .map_err(|e| Failure::Fatal(format!("benchmark run failed: {e}")))?;
    let out = flags.out.as_deref().unwrap_or("BENCH_current.json");
    std::fs::write(out, doc.to_json())
        .map_err(|e| Failure::Fatal(format!("writing {out}: {e}")))?;
    let entries: usize = doc
        .get("suites")
        .and_then(JsonValue::as_object)
        .map_or(0, |suites| {
            suites
                .iter()
                .filter_map(|(_, v)| v.as_array())
                .map(<[_]>::len)
                .sum()
        });
    println!("wrote {entries} suite entries to {out}");
    Ok(0)
}

fn regress_diff(args: &[String]) -> Outcome {
    let (flags, pair) = load(args, &regress::KIND, "--threshold")?;
    let threshold = flags.limit.unwrap_or(regress::DEFAULT_THRESHOLD);
    let outcome = regress::diff(&pair, threshold);
    if outcome.passed() {
        println!(
            "OK: {} entries within {:.2}% of {}",
            outcome.compared,
            100.0 * threshold,
            flags.old
        );
        return Ok(0);
    }
    eprintln!(
        "REGRESSION: {} failure(s) against {} (threshold {:.2}%):",
        outcome.failures.len(),
        flags.old,
        100.0 * threshold
    );
    for failure in &outcome.failures {
        eprintln!("  {failure}");
    }
    Ok(1)
}

fn regress_guard(args: &[String]) -> Outcome {
    let (flags, pair) = load(args, &regress::KIND, "--min-ratio")?;
    let min_ratio = flags.limit.unwrap_or(regress::DEFAULT_GUARD_RATIO);
    let outcome = regress::guard(&pair, min_ratio);
    for (suite, ratio) in &outcome.ratios {
        println!("  {suite}: fast-forward throughput {ratio:.2}x lockstep");
    }
    if outcome.passed() {
        println!("OK: fast-forward is bit-identical to lockstep and >= {min_ratio:.2}x its speed");
        return Ok(0);
    }
    eprintln!("GUARD FAILED: {} violation(s):", outcome.failures.len());
    for failure in &outcome.failures {
        eprintln!("  {failure}");
    }
    Ok(1)
}
