//! The causal bottleneck profiler behind `dm profile`.
//!
//! `profile run` simulates the Fig. 7 ablation slice at one feature step,
//! merges every run's [`CausalLedger`] and emits one canonical profile
//! document: which *component instances* (banks, AGUs, sync gates, the
//! writeback flush) the machine spent its stalled cycles waiting on, split
//! by fill/steady/drain phase. `profile diff` compares two documents —
//! typically adjacent ablation steps — and names the dominant shift, e.g.
//! the collapse of bank-conflict blame when going from FIMA placement
//! (step ⑤) to bank-aware remapping (step ⑥).
//!
//! Every run's ledger is re-checked in release builds against the run's
//! own counters: its fires must match `active_cycles` and its fires plus
//! stalls must match `compute_cycles`. A violation is a hard error
//! (non-zero exit from the CLI), not a warning — a profiler that loses
//! cycles is lying.
//!
//! The document deliberately excludes anything host- or scheduling-
//! dependent: the same step profiled with any `--jobs` count and with
//! fast-forward on or off is byte-identical.

use dm_sim::{BlamePhase, CausalLedger, JsonValue};
use dm_system::RunReport;

use crate::cli::{DocKind, HarnessError, Item, Pair, RunFlags};

/// The profile document kind; `diff` refuses to compare across schemas.
pub const KIND: DocKind = DocKind {
    tool: "dm-profile",
    schema: "datamaestro-profile-v1",
    deltas: Some("deltas"),
};

/// How many component rows the rendered table and diff show.
pub const TOP_ROWS: usize = 12;

/// Release-build re-check of one run's ledger against the run's own
/// counters: the ledger's fires equal `active_cycles` and its fires plus
/// stalls equal `compute_cycles`. The views the document prints are
/// marginals of the ledger, so they agree with each other by construction.
///
/// # Errors
///
/// Returns [`HarnessError::Contract`] naming `label` and the first broken
/// invariant.
pub fn check_conservation(label: &str, report: &RunReport) -> Result<(), HarnessError> {
    let ledger = &report.ledger;
    if ledger.fired() != report.active_cycles {
        return Err(HarnessError::Contract(format!(
            "conservation violated: {label}: the ledger counted {} fires but the run had {} \
             active cycles",
            ledger.fired(),
            report.active_cycles
        )));
    }
    if ledger.total() != report.compute_cycles {
        return Err(HarnessError::Contract(format!(
            "conservation violated: {label}: the ledger covers {} cycles but the run had {} \
             compute cycles",
            ledger.total(),
            report.compute_cycles
        )));
    }
    Ok(())
}

/// Builds a profile document from explicit `(label, workload, seed)` runs
/// (`dm profile run` passes [`RunFlags::items`]).
///
/// # Errors
///
/// Propagates the first [`HarnessError::Sim`], or a
/// [`HarnessError::Contract`] if any run breaks conservation.
pub fn document_for_workloads(flags: &RunFlags, items: &[Item]) -> Result<JsonValue, HarnessError> {
    let (reports, mut cycles) = crate::cli::simulate(flags, items, check_conservation)?;
    let mut ledger = CausalLedger::new(flags.config().mem.num_banks());
    for report in &reports {
        ledger.merge(&report.ledger);
    }
    cycles.push(("fired".to_owned(), JsonValue::from(ledger.fired())));
    cycles.push(("stalled".to_owned(), JsonValue::from(ledger.stalled())));
    let mut fields = flags.header(KIND.schema, items.len());
    fields.push(("cycles".to_owned(), JsonValue::Object(cycles)));
    fields.push(("blame".to_owned(), ledger.to_json()));
    Ok(JsonValue::Object(fields))
}

/// One row of the top-bottlenecks table: a component instance, the cause it
/// stalls under, and its share of all stalled cycles.
#[derive(Debug, Clone, PartialEq)]
pub struct Row {
    /// Component instance label, e.g. `bank[3]` or `streamer.B.agu`.
    pub component: String,
    /// Cause bucket label, e.g. `bank-conflict(A)`.
    pub cause: String,
    /// Stalled cycles charged to this (cause, component) pair.
    pub cycles: u64,
    /// Fraction of all stalled cycles in the document.
    pub share: f64,
}

/// Flattens `doc.blame.total` into `(cause label, component label, cycles)`
/// triples in the document's (deterministic) order.
fn flatten_total(doc: &JsonValue) -> Vec<(String, String, u64)> {
    let mut out = Vec::new();
    let Some(JsonValue::Object(causes)) = doc.at(&["blame", "total"]) else {
        return out;
    };
    for (cause, leaves) in causes {
        if let JsonValue::Object(leaves) = leaves {
            for (leaf, n) in leaves {
                out.push((cause.clone(), leaf.clone(), n.as_u64().unwrap_or(0)));
            }
        }
    }
    out
}

/// The top `limit` bottleneck rows of a document, sorted by stalled cycles
/// (ties broken by label for determinism).
#[must_use]
pub fn top_rows(doc: &JsonValue, limit: usize) -> Vec<Row> {
    let flat = flatten_total(doc);
    let stalled: u64 = flat.iter().map(|(_, _, n)| n).sum();
    let mut rows: Vec<Row> = flat
        .into_iter()
        .map(|(cause, component, cycles)| Row {
            share: if stalled == 0 {
                0.0
            } else {
                cycles as f64 / stalled as f64
            },
            component,
            cause,
            cycles,
        })
        .collect();
    rows.sort_by(|a, b| {
        b.cycles
            .cmp(&a.cycles)
            .then_with(|| a.component.cmp(&b.component))
            .then_with(|| a.cause.cmp(&b.cause))
    });
    rows.truncate(limit);
    rows
}

/// Renders the human-readable profile: headline cycle counts, the
/// copy-engine prepass occupancy, the phase segmentation, and the
/// top-bottlenecks table.
#[must_use]
pub fn render(doc: &JsonValue) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    let step = doc.u64_at(&["step"]);
    let mode = doc.str_at(&["mode"]);
    let latency = doc.u64_at(&["read_latency"]);
    let workloads = doc.u64_at(&["workloads"]);
    let prepass = doc.u64_at(&["cycles", "prepass"]);
    let compute = doc.u64_at(&["cycles", "compute"]);
    let fired = doc.u64_at(&["cycles", "fired"]);
    let stalled = doc.u64_at(&["cycles", "stalled"]);
    let fired_pct = if compute == 0 {
        0.0
    } else {
        100.0 * fired as f64 / compute as f64
    };
    let _ = writeln!(
        out,
        "dm-profile: ablation step {step} ({mode}, read latency {latency}) — \
         {workloads} workload(s)"
    );
    let _ = writeln!(
        out,
        "  cycles: compute {compute} (fired {fired} = {fired_pct:.1}%, stalled {stalled})"
    );
    let _ = writeln!(
        out,
        "  copy-engine prepass occupancy: {prepass} cycle(s) ahead of compute"
    );
    let _ = writeln!(out, "  phases:");
    for phase in BlamePhase::ALL {
        let at = |field| doc.u64_at(&["blame", "phases", phase.label(), field]);
        let (cycles, fired, stalled) = (at("cycles"), at("fired"), at("stalled"));
        let _ = writeln!(
            out,
            "    {:<6} {cycles:>10} cycles  (fired {fired}, stalled {stalled})",
            phase.label()
        );
    }
    let rows = top_rows(doc, TOP_ROWS);
    if rows.is_empty() {
        let _ = writeln!(out, "  no stalled cycles — nothing to blame");
        return out;
    }
    let _ = writeln!(out, "  top bottlenecks (stalled cycles by component):");
    let _ = writeln!(
        out,
        "    {:<20} {:<26} {:>10} {:>7}",
        "component", "cause", "cycles", "share"
    );
    for row in rows {
        let _ = writeln!(
            out,
            "    {:<20} {:<26} {:>10} {:>6.1}%",
            row.component,
            row.cause,
            row.cycles,
            100.0 * row.share
        );
    }
    out
}

/// Strips the port qualifier from a cause label: `bank-conflict(A)` →
/// `bank-conflict`. Used to aggregate per-port causes into families for
/// the diff headline.
#[must_use]
pub fn cause_family(label: &str) -> &str {
    label.split('(').next().unwrap_or(label)
}

/// One `(cause, component)` delta between two profile documents.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DiffRow {
    /// Cause bucket label.
    pub cause: String,
    /// Component instance label.
    pub component: String,
    /// Stalled cycles in the old document.
    pub old: u64,
    /// Stalled cycles in the new document.
    pub new: u64,
}

impl DiffRow {
    /// Signed change in stalled cycles (new − old).
    #[must_use]
    pub fn delta(&self) -> i64 {
        self.new as i64 - self.old as i64
    }
}

/// The outcome of comparing two profile documents.
#[derive(Debug, Default)]
pub struct ProfileDiff {
    /// Per-(cause, component) deltas, largest absolute change first.
    pub rows: Vec<DiffRow>,
    /// Per cause-family deltas (`bank-conflict`, `no-operand`, …), largest
    /// absolute change first.
    pub family_deltas: Vec<(String, i64)>,
    /// Total stalled cycles on each side.
    pub old_stalled: u64,
    /// Total stalled cycles on the new side.
    pub new_stalled: u64,
    /// Read latency of the old and the new document.
    pub latencies: (u64, u64),
}

impl ProfileDiff {
    /// The dominant shift: the cause family whose stalled-cycle total
    /// changed the most (in absolute cycles). `None` when nothing changed.
    #[must_use]
    pub fn dominant(&self) -> Option<(&str, i64)> {
        self.family_deltas
            .first()
            .filter(|(_, d)| *d != 0)
            .map(|(family, delta)| (family.as_str(), *delta))
    }
}

/// Compares two profile documents that passed the diff prologue
/// ([`DocKind::pair`]): per-(cause, component) and per-cause-family deltas.
#[must_use]
pub fn diff(pair: &Pair) -> ProfileDiff {
    let (old, new) = (&pair.old, &pair.new);
    let mut keys: Vec<(String, String)> = Vec::new();
    let mut side = |doc: &JsonValue| {
        let mut map = std::collections::BTreeMap::new();
        for (cause, component, n) in flatten_total(doc) {
            let key = (cause, component);
            if !keys.contains(&key) {
                keys.push(key.clone());
            }
            map.insert(key, n);
        }
        map
    };
    let old_map = side(old);
    let new_map = side(new);
    let mut rows: Vec<DiffRow> = keys
        .into_iter()
        .map(|key| DiffRow {
            old: old_map.get(&key).copied().unwrap_or(0),
            new: new_map.get(&key).copied().unwrap_or(0),
            cause: key.0,
            component: key.1,
        })
        .collect();
    rows.sort_by(|a, b| {
        b.delta()
            .abs()
            .cmp(&a.delta().abs())
            .then_with(|| a.component.cmp(&b.component))
            .then_with(|| a.cause.cmp(&b.cause))
    });

    let mut families: Vec<(String, i64)> = Vec::new();
    for row in &rows {
        let family = cause_family(&row.cause).to_owned();
        match families.iter_mut().find(|(f, _)| *f == family) {
            Some((_, delta)) => *delta += row.delta(),
            None => families.push((family, row.delta())),
        }
    }
    families.sort_by(|a, b| b.1.abs().cmp(&a.1.abs()).then_with(|| a.0.cmp(&b.0)));

    ProfileDiff {
        rows,
        family_deltas: families,
        old_stalled: old.u64_at(&["cycles", "stalled"]),
        new_stalled: new.u64_at(&["cycles", "stalled"]),
        latencies: pair.latencies,
    }
}

/// Renders a diff: stalled-cycle movement, cause-family deltas, the
/// dominant shift, and the top component-level changes. A cross-latency
/// comparison (possible only via `--allow-mismatch`) gets a loud warning
/// banner first.
#[must_use]
pub fn render_diff(d: &ProfileDiff, old_label: &str, new_label: &str) -> String {
    use std::fmt::Write as _;
    let mut out = KIND.diff_header(old_label, new_label, d.latencies);
    let total_delta = d.new_stalled as i64 - d.old_stalled as i64;
    let _ = writeln!(
        out,
        "  stalled cycles: {} -> {} ({total_delta:+})",
        d.old_stalled, d.new_stalled
    );
    if d.family_deltas.iter().all(|(_, delta)| *delta == 0) {
        let _ = writeln!(out, "  no blame moved between the two profiles");
        return out;
    }
    let _ = writeln!(out, "  by cause family:");
    for (family, delta) in &d.family_deltas {
        if *delta != 0 {
            let _ = writeln!(out, "    {family:<24} {delta:+10} cycles");
        }
    }
    if let Some((family, delta)) = d.dominant() {
        let verb = if delta < 0 { "collapsed" } else { "grew" };
        let _ = writeln!(
            out,
            "  dominant shift: {family} blame {verb} by {} cycles",
            delta.unsigned_abs()
        );
    }
    let _ = writeln!(out, "  top component deltas:");
    for row in d.rows.iter().filter(|r| r.delta() != 0).take(TOP_ROWS) {
        let _ = writeln!(
            out,
            "    {:<20} {:<26} {:>10} -> {:<10} ({:+})",
            row.component,
            row.cause,
            row.old,
            row.new,
            row.delta()
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use dm_sim::{Port, StallCause};
    use dm_workloads::{ConvSpec, GemmSpec, Workload};

    fn step(step: usize) -> RunFlags {
        RunFlags {
            step,
            ..RunFlags::default()
        }
    }

    fn doc_for_step(s: usize) -> JsonValue {
        let items = vec![(
            format!("GeMM-64|step{s}"),
            Workload::from(GemmSpec::new(64, 64, 64)),
            1,
        )];
        document_for_workloads(&step(s), &items).unwrap()
    }

    #[test]
    fn step5_to_step6_diff_names_bank_conflict_collapse() {
        // The Fig. 7(a) story: FIMA placement (step 5) drowns in bank
        // conflicts; bank-aware remapping (step 6) makes them vanish. The
        // profiler must name that as the dominant shift.
        let pair = KIND.pair(doc_for_step(5), doc_for_step(6), false).unwrap();
        let d = diff(&pair);
        let (family, delta) = d.dominant().expect("blame must have moved");
        assert_eq!(family, "bank-conflict", "rows: {:?}", d.family_deltas);
        assert!(
            delta < 0,
            "bank-conflict blame must collapse, got {delta:+}"
        );
        let rendered = render_diff(&d, "step5", "step6");
        assert!(rendered.contains("dominant shift: bank-conflict blame collapsed"));
    }

    #[test]
    fn top_rows_are_sorted_and_share_sums_to_one() {
        let doc = doc_for_step(5);
        let rows = top_rows(&doc, usize::MAX);
        assert!(!rows.is_empty());
        for pair in rows.windows(2) {
            assert!(pair[0].cycles >= pair[1].cycles);
        }
        let share: f64 = rows.iter().map(|r| r.share).sum();
        assert!((share - 1.0).abs() < 1e-9, "shares sum to {share}");
        let rendered = render(&doc);
        assert!(rendered.contains("top bottlenecks"));
        assert!(rendered.contains("ablation step 5"));
    }

    #[test]
    fn document_is_deterministic_across_jobs_and_fast_forward() {
        let items: Vec<Item> = (0..3)
            .map(|i| (format!("g{i}"), GemmSpec::new(32, 32, 32).into(), i))
            .collect();
        let doc = |jobs: usize, fast_forward: bool| {
            let flags = RunFlags {
                jobs,
                fast_forward,
                ..step(5)
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
    fn diff_refuses_schema_and_latency_mismatches() {
        let doc = doc_for_step(6);
        let bogus = JsonValue::object([(
            "schema".to_owned(),
            JsonValue::from("datamaestro-profile-v0"),
        )]);
        let err = KIND.pair(bogus.clone(), doc.clone(), false).unwrap_err();
        assert!(err.contains("schema mismatch"), "{err}");

        let slow = {
            let flags = RunFlags {
                read_latency: 4,
                ..step(6)
            };
            let items = vec![("g".to_owned(), Workload::from(GemmSpec::new(32, 32, 32)), 1)];
            document_for_workloads(&flags, &items).unwrap()
        };
        let err = KIND.pair(doc.clone(), slow.clone(), false).unwrap_err();
        assert!(err.contains("read latency differs"), "{err}");

        // --allow-mismatch proceeds (the Fig. 7(a) axis), and the rendered
        // diff leads with the warning banner. The schema refusal is not
        // relaxed — a format mismatch is never a physics question.
        let d = diff(&KIND.pair(doc.clone(), slow, true).unwrap());
        assert_eq!(d.latencies, (1, 4));
        let rendered = render_diff(&d, "fast", "slow");
        assert!(rendered.contains("WARNING: read latency differs (1 vs 4)"));
        let err = KIND.pair(bogus, doc, true).unwrap_err();
        assert!(err.contains("schema mismatch"), "{err}");
    }

    #[test]
    fn conservation_check_accepts_real_runs_and_rejects_forgeries() {
        let cfg = step(5).config();
        let mut report = crate::measure(&cfg, GemmSpec::new(32, 32, 32).into(), 1).unwrap();
        check_conservation("g32", &report).unwrap();
        // Forge one extra active cycle: the fire-count cross-check fires.
        report.active_cycles += 1;
        let err = check_conservation("g32", &report).unwrap_err();
        assert!(matches!(err, HarnessError::Contract(_)), "{err}");
        assert!(
            err.to_string().starts_with("conservation violated: g32"),
            "{err}"
        );
    }

    /// A run that flushes the write path after its last fire: the drain
    /// cycles sit on the OUT port in the per-port view.
    #[test]
    fn drain_cycles_conserve_on_the_write_port() {
        let conv = ConvSpec::new(24, 24, 8, 16, 1, 1, 1);
        let report = crate::measure(&step(5).config(), conv.into(), 1).unwrap();
        let drain = report.ledger.cause_total(StallCause::Drain);
        assert!(drain > 0, "the shape must drain");
        let (port, out) = report.ledger.port_stalls()[3];
        assert_eq!(port, Port::Out);
        assert!(out >= drain);
        check_conservation("conv24", &report).unwrap();
    }

    #[test]
    fn cause_family_strips_port_qualifiers() {
        assert_eq!(cause_family("bank-conflict(A)"), "bank-conflict");
        assert_eq!(cause_family("no-operand(C)"), "no-operand");
        assert_eq!(cause_family("drain"), "drain");
    }
}
