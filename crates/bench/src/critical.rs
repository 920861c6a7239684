//! The critical-path analyzer behind the `dm-critical` binary.
//!
//! `critical run` simulates the Fig. 7 ablation slice at one feature step,
//! merges every run's [`CriticalProfile`] and emits one canonical document:
//! how the end-to-end critical path decomposes across resource classes
//! (memory latency, bank conflicts, FIFO capacity, AGU throughput, PE
//! issue, writeback flush), plus the ranked what-if projections — the
//! predicted total-cycle saving if one resource constraint were relaxed.
//! `critical diff` compares two documents and names the dominant path
//! shift, e.g. the collapse of on-path memory-latency cycles when going
//! from the coupled baseline (step ①) to full decoupling (step ⑥) at read
//! latency 16 — which *is* the Fig. 7(a) explanation.
//!
//! Every run is re-checked against the critical-path contract in release
//! builds: the path length must equal the compute cycle count and fit in
//! the run's total cycles. A violation is a hard error (non-zero exit from
//! the CLI), not a warning — an analyzer that loses path cycles is lying.
//!
//! The document deliberately excludes anything host- or scheduling-
//! dependent: the same step analyzed with any `--jobs` count and with
//! fast-forward on or off is byte-identical, which CI exploits as a
//! determinism gate.

use std::fmt;

use dm_compiler::FeatureSet;
use dm_sim::{CritClass, CriticalProfile, JsonValue};
use dm_system::{RunReport, SystemConfig, SystemError};
use dm_workloads::{synthetic_suite, Workload};

/// Document format identifier; `diff` refuses to compare across schemas.
pub const SCHEMA: &str = "datamaestro-critical-v1";

/// What went wrong while building a critical-path document.
#[derive(Debug)]
pub enum CriticalError {
    /// A simulated run failed outright.
    Sim(SystemError),
    /// A run violated the critical-path contract (an analyzer bug; the
    /// message names the run and the first broken invariant).
    Contract(String),
}

impl fmt::Display for CriticalError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CriticalError::Sim(e) => write!(f, "simulation failed: {e}"),
            CriticalError::Contract(msg) => write!(f, "critical-path contract violated: {msg}"),
        }
    }
}

impl std::error::Error for CriticalError {}

impl From<SystemError> for CriticalError {
    fn from(e: SystemError) -> Self {
        CriticalError::Sim(e)
    }
}

/// Options of one `critical run`.
#[derive(Debug, Clone, Copy)]
pub struct CriticalOptions {
    /// Ablation step (1 = baseline … 6 = fully featured).
    pub step: usize,
    /// Run the complete Fig. 7 suite instead of the every-5th slice.
    pub full: bool,
    /// Worker threads for the independent runs (output is byte-identical
    /// for any value).
    pub jobs: usize,
    /// Idle-cycle elision (output is byte-identical either way).
    pub fast_forward: bool,
    /// Scratchpad bank read latency in cycles.
    pub read_latency: u64,
}

impl Default for CriticalOptions {
    fn default() -> Self {
        CriticalOptions {
            step: 6,
            full: false,
            jobs: 1,
            fast_forward: true,
            read_latency: SystemConfig::default().read_latency,
        }
    }
}

impl CriticalOptions {
    fn config(&self) -> SystemConfig {
        SystemConfig {
            fast_forward: self.fast_forward,
            read_latency: self.read_latency,
            ..SystemConfig::default().with_features(FeatureSet::ablation_step(self.step))
        }
    }
}

/// Release-build re-check of the critical-path contract on one run against
/// the run's own counters: the path length equals the compute cycle count
/// (single-issue in-order execution puts every compute cycle on the path),
/// and the path never exceeds the run's total cycle count.
///
/// # Errors
///
/// Returns [`CriticalError::Contract`] naming `label` and the first broken
/// invariant.
pub fn check_path(label: &str, report: &RunReport) -> Result<(), CriticalError> {
    let crit = &report.critical;
    if crit.path_length() != report.compute_cycles {
        return Err(CriticalError::Contract(format!(
            "{label}: path length is {} but the run had {} compute cycles",
            crit.path_length(),
            report.compute_cycles
        )));
    }
    let total = report.prepass_cycles + report.compute_cycles;
    if crit.path_length() > total {
        return Err(CriticalError::Contract(format!(
            "{label}: path length {} exceeds the total cycle count {total}",
            crit.path_length()
        )));
    }
    Ok(())
}

/// Builds a critical-path document from explicit `(label, workload, seed)`
/// runs.
///
/// This is the core `critical_document` delegates to; tests and callers
/// with their own workload selection use it directly.
///
/// # Errors
///
/// Propagates the first [`SystemError`], or a [`CriticalError::Contract`]
/// if any run breaks the contract.
pub fn document_for_workloads(
    opts: &CriticalOptions,
    items: &[(String, Workload, u64)],
) -> Result<JsonValue, CriticalError> {
    let cfg = opts.config();
    let reports = crate::run_ordered(items, opts.jobs, |_, (_, workload, seed)| {
        crate::measure(&cfg, *workload, *seed)
    })
    .into_iter()
    .collect::<Result<Vec<_>, _>>()?;

    let mut critical = CriticalProfile::new(cfg.read_latency.max(1));
    let (mut prepass, mut compute, mut ideal) = (0u64, 0u64, 0u64);
    for ((label, _, _), report) in items.iter().zip(&reports) {
        check_path(label, report)?;
        critical.merge(&report.critical);
        prepass += report.prepass_cycles;
        compute += report.compute_cycles;
        ideal += report.ideal_cycles;
    }
    Ok(JsonValue::object([
        ("schema".to_owned(), JsonValue::from(SCHEMA)),
        ("step".to_owned(), JsonValue::from(opts.step as u64)),
        (
            "mode".to_owned(),
            JsonValue::from(if opts.full { "full" } else { "quick" }),
        ),
        (
            "read_latency".to_owned(),
            JsonValue::from(opts.read_latency),
        ),
        ("workloads".to_owned(), JsonValue::from(items.len() as u64)),
        (
            "cycles".to_owned(),
            JsonValue::object([
                ("prepass".to_owned(), JsonValue::from(prepass)),
                ("compute".to_owned(), JsonValue::from(compute)),
                ("ideal".to_owned(), JsonValue::from(ideal)),
            ]),
        ),
        ("critical".to_owned(), critical.to_json()),
    ]))
}

/// Analyzes the Fig. 7 ablation slice at `opts.step` and returns the
/// canonical document. Workload labels and seeds match `regress run` and
/// `dm-profile`, so a critical-path document is directly relatable to the
/// benchmark baselines and blame profiles.
///
/// # Errors
///
/// Propagates the first [`SystemError`], or a [`CriticalError::Contract`]
/// if any run breaks the contract.
pub fn critical_document(
    opts: &CriticalOptions,
    mut progress: impl FnMut(&str),
) -> Result<JsonValue, CriticalError> {
    let suite = synthetic_suite();
    let items: Vec<(String, Workload, u64)> = suite
        .iter()
        .enumerate()
        .filter(|(i, _)| opts.full || i % 5 == 0)
        .map(|(i, w)| (format!("{w}|step{}", opts.step), *w, i as u64))
        .collect();
    progress(&format!(
        "tracing {} workloads at ablation step {} ({} jobs)",
        items.len(),
        opts.step,
        opts.jobs
    ));
    document_for_workloads(opts, &items)
}

fn doc_u64(doc: &JsonValue, path: &[&str]) -> u64 {
    let mut value = doc;
    for key in path {
        match value.get(key) {
            Some(v) => value = v,
            None => return 0,
        }
    }
    value.as_u64().unwrap_or(0)
}

/// The six-class path composition of a document, in reporting order.
#[must_use]
pub fn composition(doc: &JsonValue) -> Vec<(&'static str, u64)> {
    CritClass::ALL
        .iter()
        .map(|&c| {
            (
                c.label(),
                doc_u64(doc, &["critical", "composition", c.label()]),
            )
        })
        .collect()
}

/// Renders the human-readable analysis: headline cycle counts, the path
/// composition table, and the what-if projection table ranked by predicted
/// saving.
#[must_use]
pub fn render(doc: &JsonValue) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    let step = doc_u64(doc, &["step"]);
    let mode = doc
        .get("mode")
        .and_then(JsonValue::as_str)
        .unwrap_or("quick");
    let latency = doc_u64(doc, &["read_latency"]);
    let workloads = doc_u64(doc, &["workloads"]);
    let compute = doc_u64(doc, &["cycles", "compute"]);
    let ideal = doc_u64(doc, &["cycles", "ideal"]);
    let path = doc_u64(doc, &["critical", "path"]);
    let _ = writeln!(
        out,
        "dm-critical: ablation step {step} ({mode}, read latency {latency}) — \
         {workloads} workload(s)"
    );
    let _ = writeln!(
        out,
        "  critical path: {path} cycle(s) over {compute} compute cycle(s) \
         (ideal {ideal})"
    );
    let _ = writeln!(out, "  composition (cycles bound by each resource):");
    for (label, cycles) in composition(doc) {
        let share = if path == 0 {
            0.0
        } else {
            100.0 * cycles as f64 / path as f64
        };
        let _ = writeln!(out, "    {label:<18} {cycles:>12} {share:>6.1}%");
    }
    let Some(JsonValue::Array(what_ifs)) = doc.get("critical").and_then(|c| c.get("what_ifs"))
    else {
        return out;
    };
    let mut ranked: Vec<(&str, u64, u64, bool)> = what_ifs
        .iter()
        .map(|w| {
            (
                w.get("name").and_then(JsonValue::as_str).unwrap_or("?"),
                w.get("delta").and_then(JsonValue::as_u64).unwrap_or(0),
                w.get("projected").and_then(JsonValue::as_u64).unwrap_or(0),
                matches!(w.get("simulable"), Some(JsonValue::Bool(true))),
            )
        })
        .collect();
    ranked.sort_by(|a, b| b.1.cmp(&a.1).then_with(|| a.0.cmp(b.0)));
    let _ = writeln!(
        out,
        "  what-if projections (* = validated by re-simulation in tests):"
    );
    for (name, delta, projected, simulable) in ranked {
        let mark = if simulable { " *" } else { "" };
        let _ = writeln!(
            out,
            "    {name:<18} saves {delta:>12} cycle(s) -> path {projected}{mark}"
        );
    }
    out
}

/// One per-class delta between two critical-path documents.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ClassDelta {
    /// Resource class label, e.g. `memory-latency`.
    pub class: &'static str,
    /// On-path cycles in the old document.
    pub old: u64,
    /// On-path cycles in the new document.
    pub new: u64,
}

impl ClassDelta {
    /// Signed change in on-path cycles (new − old).
    #[must_use]
    pub fn delta(&self) -> i64 {
        self.new as i64 - self.old as i64
    }
}

/// The outcome of comparing two critical-path documents.
#[derive(Debug)]
pub struct CriticalDiff {
    /// Per-class deltas, largest absolute change first.
    pub rows: Vec<ClassDelta>,
    /// Critical path length on the old side.
    pub old_path: u64,
    /// Critical path length on the new side.
    pub new_path: u64,
    /// Read latency of the old document.
    pub old_latency: u64,
    /// Read latency of the new document.
    pub new_latency: u64,
}

impl CriticalDiff {
    /// The dominant path shift: the resource class whose on-path cycle
    /// count changed the most (in absolute cycles). `None` when nothing
    /// changed.
    #[must_use]
    pub fn dominant(&self) -> Option<(&'static str, i64)> {
        self.rows
            .first()
            .filter(|row| row.delta() != 0)
            .map(|row| (row.class, row.delta()))
    }
}

/// Compares two critical-path documents.
///
/// # Errors
///
/// Refuses (with a descriptive message) to compare documents whose schema
/// is not exactly [`SCHEMA`], or — unless `allow_mismatch` — that were
/// recorded under different read latencies. A cross-latency comparison is
/// sometimes exactly the question (the Fig. 7(a) axis), so
/// `--allow-mismatch` proceeds, and [`render_diff`] prints a loud warning
/// banner in that case.
pub fn diff(
    old: &JsonValue,
    new: &JsonValue,
    allow_mismatch: bool,
) -> Result<CriticalDiff, String> {
    let schema = |doc: &JsonValue| {
        doc.get("schema")
            .and_then(JsonValue::as_str)
            .unwrap_or("<missing>")
            .to_owned()
    };
    let (old_schema, new_schema) = (schema(old), schema(new));
    if old_schema != SCHEMA || new_schema != SCHEMA {
        return Err(format!(
            "schema mismatch: old '{old_schema}', new '{new_schema}', expected '{SCHEMA}'; \
             regenerate both documents with this dm-critical"
        ));
    }
    let (old_latency, new_latency) = (
        doc_u64(old, &["read_latency"]),
        doc_u64(new, &["read_latency"]),
    );
    if old_latency != new_latency && !allow_mismatch {
        return Err(format!(
            "read latency differs ({old_latency} vs {new_latency}); path deltas across \
             latencies conflate physics with configuration (pass --allow-mismatch to \
             compare anyway)"
        ));
    }
    let (old_comp, new_comp) = (composition(old), composition(new));
    let mut rows: Vec<ClassDelta> = old_comp
        .iter()
        .zip(&new_comp)
        .map(|(&(class, old), &(_, new))| ClassDelta { class, old, new })
        .collect();
    rows.sort_by(|a, b| {
        b.delta()
            .abs()
            .cmp(&a.delta().abs())
            .then_with(|| a.class.cmp(b.class))
    });
    Ok(CriticalDiff {
        rows,
        old_path: doc_u64(old, &["critical", "path"]),
        new_path: doc_u64(new, &["critical", "path"]),
        old_latency,
        new_latency,
    })
}

/// Renders a diff: path-length movement, per-class deltas and the dominant
/// path shift. A cross-latency comparison gets a loud warning banner first.
#[must_use]
pub fn render_diff(d: &CriticalDiff, old_label: &str, new_label: &str) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    let _ = writeln!(out, "dm-critical diff: {old_label} -> {new_label}");
    if d.old_latency != d.new_latency {
        let _ = writeln!(out, "  {}", "=".repeat(68));
        let _ = writeln!(
            out,
            "  WARNING: read latency differs ({} vs {}) — the deltas below\n\
             \x20 conflate memory physics with configuration changes; proceeding\n\
             \x20 because --allow-mismatch was given",
            d.old_latency, d.new_latency
        );
        let _ = writeln!(out, "  {}", "=".repeat(68));
    }
    let path_delta = d.new_path as i64 - d.old_path as i64;
    let _ = writeln!(
        out,
        "  critical path: {} -> {} ({path_delta:+})",
        d.old_path, d.new_path
    );
    if d.rows.iter().all(|row| row.delta() == 0) {
        let _ = writeln!(out, "  no path cycles moved between the two documents");
        return out;
    }
    let _ = writeln!(out, "  by resource class:");
    for row in &d.rows {
        if row.delta() != 0 {
            let _ = writeln!(
                out,
                "    {:<18} {:>12} -> {:<12} ({:+})",
                row.class,
                row.old,
                row.new,
                row.delta()
            );
        }
    }
    if let Some((class, delta)) = d.dominant() {
        let verb = if delta < 0 { "collapsed" } else { "grew" };
        let _ = writeln!(
            out,
            "  dominant path shift: {class} {verb} by {} cycles",
            delta.unsigned_abs()
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use dm_workloads::GemmSpec;

    fn doc_for(step: usize, read_latency: u64) -> JsonValue {
        let opts = CriticalOptions {
            step,
            read_latency,
            ..CriticalOptions::default()
        };
        let items = vec![(
            format!("GeMM-64|step{step}"),
            Workload::from(GemmSpec::new(64, 64, 64)),
            1,
        )];
        document_for_workloads(&opts, &items).unwrap()
    }

    #[test]
    fn document_is_deterministic_across_jobs_and_fast_forward() {
        let items: Vec<(String, Workload, u64)> = (0..3)
            .map(|i| {
                (
                    format!("g{i}"),
                    Workload::from(GemmSpec::new(32, 32, 32)),
                    i,
                )
            })
            .collect();
        let doc = |jobs: usize, fast_forward: bool| {
            let opts = CriticalOptions {
                step: 5,
                jobs,
                fast_forward,
                read_latency: 4,
                ..CriticalOptions::default()
            };
            document_for_workloads(&opts, &items).unwrap().to_json()
        };
        let canonical = doc(1, true);
        assert_eq!(canonical, doc(4, true), "jobs must not change the bytes");
        assert_eq!(
            canonical,
            doc(1, false),
            "fast-forward must not change the bytes"
        );
    }

    #[test]
    fn composition_sums_to_the_path_and_path_matches_compute() {
        let doc = doc_for(1, 16);
        let path = doc_u64(&doc, &["critical", "path"]);
        let compute = doc_u64(&doc, &["cycles", "compute"]);
        assert_eq!(path, compute, "every compute cycle lies on the path");
        let total: u64 = composition(&doc).iter().map(|&(_, n)| n).sum();
        assert_eq!(total, path, "composition must sum to the path length");
    }

    #[test]
    fn step1_to_step6_diff_at_latency_16_names_memory_latency() {
        // The Fig. 7(a) story: the coupled baseline (step 1) pays the full
        // read round trip on the critical path; full decoupling (step 6)
        // hides it behind prefetch. The analyzer must name memory latency
        // as the dominant path shift.
        let old = doc_for(1, 16);
        let new = doc_for(6, 16);
        let d = diff(&old, &new, false).unwrap();
        let (class, delta) = d.dominant().expect("the path must have moved");
        assert_eq!(class, "memory-latency", "rows: {:?}", d.rows);
        assert!(
            delta < 0,
            "on-path memory latency must collapse, got {delta:+}"
        );
        let rendered = render_diff(&d, "step1", "step6");
        assert!(rendered.contains("dominant path shift: memory-latency collapsed"));
        assert!(!rendered.contains("WARNING"), "same latency, no banner");
    }

    #[test]
    fn diff_refuses_mismatches_unless_allowed() {
        let doc = doc_for(6, 4);
        let bogus = JsonValue::object([(
            "schema".to_owned(),
            JsonValue::from("datamaestro-critical-v0"),
        )]);
        let err = diff(&bogus, &doc, false).unwrap_err();
        assert!(err.contains("schema mismatch"), "{err}");

        let slow = doc_for(6, 16);
        let err = diff(&doc, &slow, false).unwrap_err();
        assert!(err.contains("read latency differs"), "{err}");

        // --allow-mismatch proceeds, and the rendering carries the banner.
        let d = diff(&doc, &slow, true).unwrap();
        assert_eq!((d.old_latency, d.new_latency), (4, 16));
        let rendered = render_diff(&d, "fast", "slow");
        assert!(rendered.contains("WARNING: read latency differs (4 vs 16)"));
    }

    #[test]
    fn contract_check_accepts_real_runs_and_rejects_forgeries() {
        let opts = CriticalOptions {
            step: 5,
            ..CriticalOptions::default()
        };
        let mut report =
            crate::measure(&opts.config(), GemmSpec::new(32, 32, 32).into(), 1).unwrap();
        check_path("g32", &report).unwrap();
        // Forge one extra compute cycle: the path-length cross-check fires.
        report.compute_cycles += 1;
        let err = check_path("g32", &report).unwrap_err();
        assert!(matches!(err, CriticalError::Contract(_)), "{err}");
    }

    #[test]
    fn render_names_the_composition_and_ranks_what_ifs() {
        let doc = doc_for(1, 16);
        let rendered = render(&doc);
        assert!(rendered.contains("ablation step 1"));
        for class in CritClass::ALL {
            assert!(
                rendered.contains(class.label()),
                "composition must show {}",
                class.label()
            );
        }
        assert!(rendered.contains("what-if projections"));
        assert!(rendered.contains("read-latency->1"));
        // At latency 16 on the coupled baseline the latency projection must
        // rank first (largest predicted saving).
        let latency_pos = rendered.find("read-latency->1").unwrap();
        let conflict_pos = rendered.find("conflicts-free").unwrap();
        assert!(latency_pos < conflict_pos, "{rendered}");
    }
}
