//! The critical-path analyzer behind `dm critical`.
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

use dm_sim::{CritClass, CriticalProfile, JsonValue};
use dm_system::RunReport;

use crate::cli::{DocKind, HarnessError, Item, Pair, RunFlags};

/// The critical-path document kind; `diff` refuses to compare across
/// schemas.
pub const KIND: DocKind = DocKind {
    tool: "dm-critical",
    schema: "datamaestro-critical-v1",
    deltas: Some("deltas"),
};

/// Release-build re-check of the critical-path contract on one run against
/// the run's own counters: the path length equals the compute cycle count
/// (single-issue in-order execution puts every compute cycle on the path),
/// and the path never exceeds the run's total cycle count.
///
/// # Errors
///
/// Returns [`HarnessError::Contract`] naming `label` and the first broken
/// invariant.
pub fn check_path(label: &str, report: &RunReport) -> Result<(), HarnessError> {
    let crit = &report.critical;
    if crit.path_length() != report.compute_cycles {
        return Err(HarnessError::Contract(format!(
            "critical-path contract violated: {label}: path length is {} but the run had {} \
             compute cycles",
            crit.path_length(),
            report.compute_cycles
        )));
    }
    let total = report.prepass_cycles + report.compute_cycles;
    if crit.path_length() > total {
        return Err(HarnessError::Contract(format!(
            "critical-path contract violated: {label}: path length {} exceeds the total cycle \
             count {total}",
            crit.path_length()
        )));
    }
    Ok(())
}

/// Builds a critical-path document from explicit `(label, workload, seed)`
/// runs (`dm critical run` passes [`RunFlags::items`]).
///
/// # Errors
///
/// Propagates the first [`HarnessError::Sim`], or a
/// [`HarnessError::Contract`] if any run breaks the contract.
pub fn document_for_workloads(flags: &RunFlags, items: &[Item]) -> Result<JsonValue, HarnessError> {
    let (reports, cycles) = crate::cli::simulate(flags, items, check_path)?;
    let mut critical = CriticalProfile::new(flags.read_latency);
    for report in &reports {
        critical.merge(&report.critical);
    }
    let mut fields = flags.header(KIND.schema, items.len());
    fields.push(("cycles".to_owned(), JsonValue::Object(cycles)));
    fields.push(("critical".to_owned(), critical.to_json()));
    Ok(JsonValue::Object(fields))
}

/// The six-class path composition of a document, in reporting order.
#[must_use]
pub fn composition(doc: &JsonValue) -> Vec<(&'static str, u64)> {
    CritClass::ALL
        .iter()
        .map(|&c| {
            (
                c.label(),
                doc.u64_at(&["critical", "composition", c.label()]),
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
    let step = doc.u64_at(&["step"]);
    let mode = doc.str_at(&["mode"]);
    let latency = doc.u64_at(&["read_latency"]);
    let workloads = doc.u64_at(&["workloads"]);
    let compute = doc.u64_at(&["cycles", "compute"]);
    let ideal = doc.u64_at(&["cycles", "ideal"]);
    let path = doc.u64_at(&["critical", "path"]);
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
    let Some(JsonValue::Array(what_ifs)) = doc.at(&["critical", "what_ifs"]) else {
        return out;
    };
    let mut ranked: Vec<(&str, u64, u64, bool)> = what_ifs
        .iter()
        .map(|w| {
            (
                w.at(&["name"]).and_then(JsonValue::as_str).unwrap_or("?"),
                w.u64_at(&["delta"]),
                w.u64_at(&["projected"]),
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
    /// Read latency of the old and the new document.
    pub latencies: (u64, u64),
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

/// Compares two critical-path documents that passed the diff prologue
/// ([`DocKind::pair`]): per-class on-path cycle deltas.
#[must_use]
pub fn diff(pair: &Pair) -> CriticalDiff {
    let (old, new) = (&pair.old, &pair.new);
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
    CriticalDiff {
        rows,
        old_path: old.u64_at(&["critical", "path"]),
        new_path: new.u64_at(&["critical", "path"]),
        latencies: pair.latencies,
    }
}

/// Renders a diff: path-length movement, per-class deltas and the dominant
/// path shift. A cross-latency comparison gets a loud warning banner first.
#[must_use]
pub fn render_diff(d: &CriticalDiff, old_label: &str, new_label: &str) -> String {
    use std::fmt::Write as _;
    let mut out = KIND.diff_header(old_label, new_label, d.latencies);
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
    use dm_workloads::{GemmSpec, Workload};

    fn doc_for(step: usize, read_latency: u64) -> JsonValue {
        let flags = RunFlags {
            step,
            read_latency,
            ..RunFlags::default()
        };
        let items = vec![(
            format!("GeMM-64|step{step}"),
            Workload::from(GemmSpec::new(64, 64, 64)),
            1,
        )];
        document_for_workloads(&flags, &items).unwrap()
    }

    #[test]
    fn composition_sums_to_the_path_and_path_matches_compute() {
        let doc = doc_for(1, 16);
        let path = doc.u64_at(&["critical", "path"]);
        let compute = doc.u64_at(&["cycles", "compute"]);
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
        let d = diff(&KIND.pair(doc_for(1, 16), doc_for(6, 16), false).unwrap());
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
    fn document_is_deterministic_across_jobs_and_fast_forward() {
        let items: Vec<Item> = (0..3)
            .map(|i| (format!("g{i}"), GemmSpec::new(32, 32, 32).into(), i))
            .collect();
        let doc = |jobs: usize, fast_forward: bool| {
            let flags = RunFlags {
                step: 5,
                jobs,
                fast_forward,
                read_latency: 4,
                ..RunFlags::default()
            };
            document_for_workloads(&flags, &items).unwrap().to_json()
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
    fn diff_refuses_mismatches_unless_allowed() {
        let doc = doc_for(6, 4);
        let bogus = JsonValue::object([(
            "schema".to_owned(),
            JsonValue::from("datamaestro-critical-v0"),
        )]);
        let err = KIND.pair(bogus.clone(), doc.clone(), false).unwrap_err();
        assert!(err.contains("schema mismatch"), "{err}");

        let slow = doc_for(6, 16);
        let err = KIND.pair(doc.clone(), slow.clone(), false).unwrap_err();
        assert!(err.contains("read latency differs"), "{err}");

        // --allow-mismatch proceeds, and the rendering carries the banner.
        let d = diff(&KIND.pair(doc.clone(), slow, true).unwrap());
        assert_eq!(d.latencies, (4, 16));
        let rendered = render_diff(&d, "fast", "slow");
        assert!(rendered.contains("WARNING: read latency differs (4 vs 16)"));
        // The schema refusal is never relaxed.
        let err = KIND.pair(bogus, doc, true).unwrap_err();
        assert!(err.contains("schema mismatch"), "{err}");
    }

    #[test]
    fn contract_check_accepts_real_runs_and_rejects_forgeries() {
        let cfg = RunFlags {
            step: 5,
            ..RunFlags::default()
        }
        .config();
        let mut report = crate::measure(&cfg, GemmSpec::new(32, 32, 32).into(), 1).unwrap();
        check_path("g32", &report).unwrap();
        // Forge one extra compute cycle: the path-length cross-check fires.
        report.compute_cycles += 1;
        let err = check_path("g32", &report).unwrap_err();
        assert!(matches!(err, HarnessError::Contract(_)), "{err}");
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
