//! The static-lint document behind `dm lint`.
//!
//! `dm lint` compiles the committed workload suites onto the paper's
//! evaluation geometry and runs the full static analysis — bank conflicts,
//! footprint bounds, hazards, deadlock, and the performance proofs
//! (`DM-PERF-*`, see [`dm_analyze::roofline`]) — on each program,
//! **without simulating**. This module builds the canonical document
//! (schema-versioned, like the profiler/critical-path documents), renders
//! it for humans, and diffs two documents by lint-code counts, refusing
//! cross-schema comparisons.

use dm_analyze::{analyze_program, analyze_streams, fixtures, Report, Severity, StreamInput};
use dm_mem::MemConfig;
use dm_sim::JsonValue;
use dm_system::SystemConfig;
use dm_workloads::{table3_models, Workload, WorkloadData};

use crate::cli::{DocKind, Pair};

/// The lint document kind; `diff` refuses to compare across schemas (there
/// is no `--allow-mismatch`: a format mismatch is never a lint insight).
pub const KIND: DocKind = DocKind {
    tool: "dm-lint",
    schema: "datamaestro-lint-v1",
    deltas: None,
};

/// The committed workloads of one suite, labelled. Returns `None` for an
/// unknown suite name.
#[must_use]
pub fn suite_workloads(suite: &str, quick: bool) -> Option<Vec<(String, Workload)>> {
    if !["fig7", "table3", "kernels", "all"].contains(&suite) {
        return None;
    }
    let mut out = Vec::new();
    if suite == "fig7" || suite == "all" {
        for (i, w) in crate::cli::fig7_slice(!quick) {
            out.push((format!("fig7[{i}] {w}"), w));
        }
    }
    if suite == "table3" || suite == "all" {
        for model in table3_models() {
            for layer in &model.layers {
                out.push((format!("{}/{}", model.name, layer.name), layer.workload));
            }
        }
    }
    if suite == "kernels" || suite == "all" {
        for (name, w) in crate::representative_kernels() {
            out.push((format!("kernel/{name}"), w));
        }
    }
    Some(out)
}

/// Lints explicit `(label, workload)` items on the evaluation geometry:
/// compiles each with the full feature set, runs the static analysis plus
/// the performance proofs, and returns the canonical document. Workloads
/// that do not compile become `DM-CONFIG` errors rather than aborting the
/// document.
#[must_use]
pub fn document_for_workloads(workloads: &[(String, Workload)], deny_warnings: bool) -> JsonValue {
    let mem = MemConfig::default();
    let read_latency = SystemConfig::default().read_latency;
    let mut report = Report::new();
    let mut proven_free = 0usize;
    for (label, workload) in workloads {
        let data = WorkloadData::generate(*workload, 0);
        match dm_compiler::compile(
            &data,
            &dm_compiler::FeatureSet::full(),
            &mem,
            true,
            dm_compiler::BufferDepths::default(),
        ) {
            Ok(program) => {
                let analysis = analyze_program(&program, &mem);
                proven_free += usize::from(analysis.conflict_free);
                let perf = match dm_analyze::predict(&program, &mem, read_latency) {
                    Ok(prediction) => dm_analyze::perf_diagnostics(&prediction),
                    Err(diags) => diags,
                };
                for mut diag in analysis.report.diagnostics.into_iter().chain(perf) {
                    diag.component = format!("{label}: {}", diag.component);
                    report.push(diag);
                }
            }
            Err(e) => {
                report.push(dm_analyze::Diagnostic::error(
                    dm_analyze::LintCode::Config,
                    label.clone(),
                    format!("does not compile onto the evaluation system: {e}"),
                ));
            }
        }
    }
    document_for_report(&report, workloads.len(), proven_free, deny_warnings)
}

/// Wraps an already-built [`Report`] (e.g. a demo fixture's) in the
/// canonical document.
#[must_use]
pub fn document_for_report(
    report: &Report,
    analyzed: usize,
    proven_free: usize,
    deny_warnings: bool,
) -> JsonValue {
    let passed = report.passes(deny_warnings);
    JsonValue::object([
        ("schema".to_owned(), JsonValue::from(KIND.schema)),
        ("analyzed".to_owned(), JsonValue::from(analyzed as u64)),
        (
            "proven_conflict_free".to_owned(),
            JsonValue::from(proven_free as u64),
        ),
        ("passed".to_owned(), JsonValue::Bool(passed)),
        (
            "counts".to_owned(),
            JsonValue::object([
                (
                    "error".to_owned(),
                    JsonValue::from(report.count(Severity::Error) as u64),
                ),
                (
                    "warning".to_owned(),
                    JsonValue::from(report.count(Severity::Warning) as u64),
                ),
                (
                    "info".to_owned(),
                    JsonValue::from(report.count(Severity::Info) as u64),
                ),
            ]),
        ),
        ("diagnostics".to_owned(), report.to_json()),
    ])
}

fn diagnostics(doc: &JsonValue) -> Vec<String> {
    let Some(JsonValue::Array(items)) = doc.get("diagnostics") else {
        return Vec::new();
    };
    items
        .iter()
        .map(|d| {
            let field = |k: &str| d.str_at(&[k]);
            format!(
                "{}[{}] {}: {}",
                field("severity"),
                field("code"),
                field("component"),
                field("message")
            )
        })
        .collect()
}

fn code_counts(doc: &JsonValue) -> Vec<(String, u64)> {
    let mut counts: Vec<(String, u64)> = Vec::new();
    let Some(JsonValue::Array(items)) = doc.get("diagnostics") else {
        return counts;
    };
    for d in items {
        let code = d
            .get("code")
            .and_then(JsonValue::as_str)
            .unwrap_or("<missing>")
            .to_owned();
        match counts.iter_mut().find(|(c, _)| *c == code) {
            Some((_, n)) => *n += 1,
            None => counts.push((code, 1)),
        }
    }
    counts.sort_by(|a, b| a.0.cmp(&b.0));
    counts
}

/// Renders the document: one compiler-style line per diagnostic and the
/// summary/gate line.
#[must_use]
pub fn render(doc: &JsonValue) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    for line in diagnostics(doc) {
        let _ = writeln!(out, "{line}");
    }
    let passed = matches!(doc.get("passed"), Some(JsonValue::Bool(true)));
    let _ = writeln!(
        out,
        "dm-lint: {} configuration(s) analyzed, {} proven conflict-free; \
         {} error(s), {} warning(s), {} note(s) — {}",
        doc.u64_at(&["analyzed"]),
        doc.u64_at(&["proven_conflict_free"]),
        doc.u64_at(&["counts", "error"]),
        doc.u64_at(&["counts", "warning"]),
        doc.u64_at(&["counts", "info"]),
        if passed { "PASS" } else { "FAIL" }
    );
    out
}

/// The outcome of comparing two lint documents.
#[derive(Debug, Default)]
pub struct LintDiff {
    /// Per-lint-code `(code, old count, new count)` rows, sorted by code.
    pub code_rows: Vec<(String, u64, u64)>,
    /// Diagnostics present only in the new document (rendered form).
    pub added: Vec<String>,
    /// Diagnostics present only in the old document (rendered form).
    pub removed: Vec<String>,
    /// Gate outcome on each side.
    pub old_passed: bool,
    /// Gate outcome of the new document.
    pub new_passed: bool,
}

/// Compares two lint documents that passed the diff prologue
/// ([`DocKind::pair`]) by code counts and diagnostic set.
#[must_use]
pub fn diff(pair: &Pair) -> LintDiff {
    let (old, new) = (&pair.old, &pair.new);
    let mut codes: Vec<String> = Vec::new();
    for (code, _) in code_counts(old).into_iter().chain(code_counts(new)) {
        if !codes.contains(&code) {
            codes.push(code);
        }
    }
    codes.sort();
    let count_of = |doc: &JsonValue, code: &str| {
        code_counts(doc)
            .into_iter()
            .find(|(c, _)| c == code)
            .map_or(0, |(_, n)| n)
    };
    let code_rows = codes
        .into_iter()
        .map(|code| {
            let (old_n, new_n) = (count_of(old, &code), count_of(new, &code));
            (code, old_n, new_n)
        })
        .collect();

    let (old_lines, new_lines) = (diagnostics(old), diagnostics(new));
    let added = new_lines
        .iter()
        .filter(|l| !old_lines.contains(l))
        .cloned()
        .collect();
    let removed = old_lines
        .iter()
        .filter(|l| !new_lines.contains(l))
        .cloned()
        .collect();

    LintDiff {
        code_rows,
        added,
        removed,
        old_passed: matches!(old.get("passed"), Some(JsonValue::Bool(true))),
        new_passed: matches!(new.get("passed"), Some(JsonValue::Bool(true))),
    }
}

/// Renders a diff: gate movement, per-code count deltas, and the added and
/// removed diagnostics.
#[must_use]
pub fn render_diff(d: &LintDiff, old_label: &str, new_label: &str) -> String {
    use std::fmt::Write as _;
    let gate = |passed: bool| if passed { "PASS" } else { "FAIL" };
    let mut out = KIND.diff_header(old_label, new_label, (0, 0));
    let _ = writeln!(
        out,
        "  gate: {} -> {}",
        gate(d.old_passed),
        gate(d.new_passed)
    );
    let changed: Vec<_> = d.code_rows.iter().filter(|(_, o, n)| o != n).collect();
    if changed.is_empty() && d.added.is_empty() && d.removed.is_empty() {
        let _ = writeln!(out, "  no findings changed");
        return out;
    }
    for (code, old_n, new_n) in changed {
        let _ = writeln!(
            out,
            "    {code:<20} {old_n:>5} -> {new_n:<5} ({:+})",
            *new_n as i64 - *old_n as i64
        );
    }
    for line in &d.added {
        let _ = writeln!(out, "  + {line}");
    }
    for line in &d.removed {
        let _ = writeln!(out, "  - {line}");
    }
    out
}

/// The report of one known-bad demo fixture (`oob`, `zero-fifo`,
/// `nima-clash`), or `None` for an unknown name.
#[must_use]
pub fn demo_report(name: &str) -> Option<Report> {
    let (design, runtime, mem) = match name {
        "oob" => fixtures::oob_pattern(),
        // The clash is a property of the evaluation geometry.
        "nima-clash" => {
            let (design, runtime, _) = fixtures::nima_gemm_clash();
            (design, runtime, MemConfig::default())
        }
        "zero-fifo" => {
            let mut report = Report::new();
            report.extend(fixtures::zero_capacity_fifo().analyze());
            return Some(report);
        }
        _ => return None,
    };
    let input = StreamInput {
        design: &design,
        runtime: &runtime,
    };
    Some(analyze_streams(&[input], &mem, 0).report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use dm_analyze::{Diagnostic, LintCode};
    use dm_workloads::{ConvSpec, GemmSpec};

    /// Small fixed workload pair the golden file pins: a clean GeMM and a
    /// strided conv that emits unavoidable-conflict and `DM-PERF-*` notes.
    fn golden_workloads() -> Vec<(String, Workload)> {
        vec![
            ("gemm-32".to_owned(), GemmSpec::new(32, 32, 32).into()),
            (
                "conv3x3-s2".to_owned(),
                ConvSpec::new(18, 18, 8, 16, 3, 3, 2).into(),
            ),
        ]
    }

    const GOLDEN: &str = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/tests/golden/lint_document.json"
    );

    #[test]
    fn json_shape_matches_the_golden_file() {
        let doc = document_for_workloads(&golden_workloads(), false);
        let rendered = doc.to_json();
        if std::env::var_os("DM_BLESS_GOLDEN").is_some() {
            std::fs::write(GOLDEN, &rendered).unwrap();
            return;
        }
        let golden = std::fs::read_to_string(GOLDEN)
            .expect("golden file missing; run with DM_BLESS_GOLDEN=1 to create it");
        assert_eq!(
            rendered, golden,
            "dm-lint --json shape drifted; if intentional, bump SCHEMA and \
             regenerate with DM_BLESS_GOLDEN=1"
        );
    }

    #[test]
    fn document_carries_schema_and_counts() {
        let doc = document_for_workloads(&golden_workloads(), false);
        assert_eq!(doc.str_at(&["schema"]), KIND.schema);
        assert_eq!(doc.u64_at(&["analyzed"]), 2);
        let total = doc.u64_at(&["counts", "error"])
            + doc.u64_at(&["counts", "warning"])
            + doc.u64_at(&["counts", "info"]);
        assert_eq!(total, diagnostics(&doc).len() as u64);
        assert!(matches!(doc.get("passed"), Some(JsonValue::Bool(true))));
    }

    #[test]
    fn diff_refuses_cross_schema_documents() {
        let doc = document_for_workloads(&golden_workloads(), false);
        // A pre-schema document (the old dm-lint --json shape).
        let legacy = JsonValue::object([
            ("analyzed".to_owned(), JsonValue::from(1u64)),
            ("passed".to_owned(), JsonValue::Bool(true)),
        ]);
        let err = KIND.pair(legacy, doc.clone(), false).unwrap_err();
        assert!(err.contains("schema mismatch"), "{err}");
        assert!(err.contains("<missing>"), "{err}");
        assert!(KIND.pair(doc.clone(), doc, false).is_ok());
    }

    #[test]
    fn diff_names_added_and_removed_findings() {
        let mut clean = Report::new();
        clean.push(Diagnostic::info(LintCode::BankConflict, "A", "note"));
        let mut dirty = clean.clone();
        dirty.push(Diagnostic::warning(LintCode::ModeMismatch, "B", "slow"));
        let old = document_for_report(&clean, 1, 1, true);
        let new = document_for_report(&dirty, 1, 1, true);
        let d = diff(&KIND.pair(old, new, false).unwrap());
        assert!(d.old_passed && !d.new_passed);
        assert_eq!(d.added.len(), 1);
        assert!(d.added[0].contains("DM-MODE-MISMATCH"));
        assert!(d.removed.is_empty());
        assert!(d
            .code_rows
            .iter()
            .any(|(c, o, n)| c == "DM-MODE-MISMATCH" && *o == 0 && *n == 1));
        let rendered = render_diff(&d, "clean", "dirty");
        assert!(rendered.contains("gate: PASS -> FAIL"));
        assert!(rendered.contains("+ warning[DM-MODE-MISMATCH]"));
    }

    #[test]
    fn unknown_suite_is_rejected_known_suites_are_not_empty() {
        assert!(suite_workloads("bogus", false).is_none());
        for suite in ["fig7", "table3", "kernels", "all"] {
            assert!(!suite_workloads(suite, true).unwrap().is_empty());
        }
    }
}
