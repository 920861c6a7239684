//! The causal bottleneck profiler behind the `dm-profile` binary.
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

use std::fmt;

use dm_compiler::FeatureSet;
use dm_sim::{BlamePhase, CausalLedger, JsonValue};
use dm_system::{RunReport, SystemConfig, SystemError};
use dm_workloads::{synthetic_suite, Workload};

/// Document format identifier; `diff` refuses to compare across schemas.
pub const SCHEMA: &str = "datamaestro-profile-v1";

/// How many component rows the rendered table and diff show.
pub const TOP_ROWS: usize = 12;

/// What went wrong while building a profile.
#[derive(Debug)]
pub enum ProfileError {
    /// A simulated run failed outright.
    Sim(SystemError),
    /// A run's ledger disagrees with its cycle counters (a simulator bug;
    /// the message names the run and the first broken invariant).
    Conservation(String),
}

impl fmt::Display for ProfileError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ProfileError::Sim(e) => write!(f, "simulation failed: {e}"),
            ProfileError::Conservation(msg) => write!(f, "conservation violated: {msg}"),
        }
    }
}

impl std::error::Error for ProfileError {}

impl From<SystemError> for ProfileError {
    fn from(e: SystemError) -> Self {
        ProfileError::Sim(e)
    }
}

/// Options of one `profile run`.
#[derive(Debug, Clone, Copy)]
pub struct ProfileOptions {
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

impl Default for ProfileOptions {
    fn default() -> Self {
        ProfileOptions {
            step: 6,
            full: false,
            jobs: 1,
            fast_forward: true,
            read_latency: SystemConfig::default().read_latency,
        }
    }
}

impl ProfileOptions {
    fn config(&self) -> SystemConfig {
        SystemConfig {
            fast_forward: self.fast_forward,
            read_latency: self.read_latency,
            ..SystemConfig::default().with_features(FeatureSet::ablation_step(self.step))
        }
    }
}

/// Release-build re-check of one run's ledger against the run's own
/// counters: the ledger's fires equal `active_cycles` and its fires plus
/// stalls equal `compute_cycles`. The views the document prints are
/// marginals of the ledger, so they agree with each other by construction.
///
/// # Errors
///
/// Returns [`ProfileError::Conservation`] naming `label` and the first
/// broken invariant.
pub fn check_conservation(label: &str, report: &RunReport) -> Result<(), ProfileError> {
    let ledger = &report.ledger;
    if ledger.fired() != report.active_cycles {
        return Err(ProfileError::Conservation(format!(
            "{label}: the ledger counted {} fires but the run had {} active cycles",
            ledger.fired(),
            report.active_cycles
        )));
    }
    if ledger.total() != report.compute_cycles {
        return Err(ProfileError::Conservation(format!(
            "{label}: the ledger covers {} cycles but the run had {} compute cycles",
            ledger.total(),
            report.compute_cycles
        )));
    }
    Ok(())
}

/// Builds a profile document from explicit `(label, workload, seed)` runs.
///
/// This is the core `profile_document` delegates to; tests and callers
/// with their own workload selection use it directly.
///
/// # Errors
///
/// Propagates the first [`SystemError`], or a
/// [`ProfileError::Conservation`] if any run breaks the contract.
pub fn document_for_workloads(
    opts: &ProfileOptions,
    items: &[(String, Workload, u64)],
) -> Result<JsonValue, ProfileError> {
    let cfg = opts.config();
    let reports = crate::run_ordered(items, opts.jobs, |_, (_, workload, seed)| {
        crate::measure(&cfg, *workload, *seed)
    })
    .into_iter()
    .collect::<Result<Vec<_>, _>>()?;

    let mut ledger = CausalLedger::new(cfg.mem.num_banks());
    let (mut prepass, mut compute, mut ideal) = (0u64, 0u64, 0u64);
    for ((label, _, _), report) in items.iter().zip(&reports) {
        check_conservation(label, report)?;
        ledger.merge(&report.ledger);
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
                ("fired".to_owned(), JsonValue::from(ledger.fired())),
                ("stalled".to_owned(), JsonValue::from(ledger.stalled())),
            ]),
        ),
        ("blame".to_owned(), ledger.to_json()),
    ]))
}

/// Profiles the Fig. 7 ablation slice at `opts.step` and returns the
/// canonical document. Workload labels and seeds match `regress run`, so a
/// profile is directly relatable to the benchmark baselines.
///
/// # Errors
///
/// Propagates the first [`SystemError`], or a
/// [`ProfileError::Conservation`] if any run breaks the contract.
pub fn profile_document(
    opts: &ProfileOptions,
    mut progress: impl FnMut(&str),
) -> Result<JsonValue, ProfileError> {
    let suite = synthetic_suite();
    let items: Vec<(String, Workload, u64)> = suite
        .iter()
        .enumerate()
        .filter(|(i, _)| opts.full || i % 5 == 0)
        .map(|(i, w)| (format!("{w}|step{}", opts.step), *w, i as u64))
        .collect();
    progress(&format!(
        "profiling {} workloads at ablation step {} ({} jobs)",
        items.len(),
        opts.step,
        opts.jobs
    ));
    document_for_workloads(opts, &items)
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
    let Some(JsonValue::Object(causes)) = doc.get("blame").and_then(|b| b.get("total")) else {
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

/// Renders the human-readable profile: headline cycle counts, the
/// copy-engine prepass occupancy, the phase segmentation, and the
/// top-bottlenecks table.
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
    let prepass = doc_u64(doc, &["cycles", "prepass"]);
    let compute = doc_u64(doc, &["cycles", "compute"]);
    let fired = doc_u64(doc, &["cycles", "fired"]);
    let stalled = doc_u64(doc, &["cycles", "stalled"]);
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
        let base = ["blame", "phases", phase.label()];
        let cycles = doc_u64(doc, &[base[0], base[1], base[2], "cycles"]);
        let fired = doc_u64(doc, &[base[0], base[1], base[2], "fired"]);
        let stalled = doc_u64(doc, &[base[0], base[1], base[2], "stalled"]);
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
    /// Read latency of the old document.
    pub old_latency: u64,
    /// Read latency of the new document.
    pub new_latency: u64,
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

/// Compares two profile documents.
///
/// # Errors
///
/// Refuses (with a descriptive message) to compare documents whose schema
/// is not exactly [`SCHEMA`], or — unless `allow_mismatch` — that profiled
/// different read latencies: a latency change moves blame for physical
/// reasons and would masquerade as a configuration insight. Latency-sweep
/// comparisons (the Fig. 7(a) axis) are sometimes exactly the question,
/// so `--allow-mismatch` proceeds, and [`render_diff`] prints a loud
/// warning banner in that case.
pub fn diff(old: &JsonValue, new: &JsonValue, allow_mismatch: bool) -> Result<ProfileDiff, String> {
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
             regenerate both documents with this dm-profile"
        ));
    }
    let (old_lat, new_lat) = (
        doc_u64(old, &["read_latency"]),
        doc_u64(new, &["read_latency"]),
    );
    if old_lat != new_lat && !allow_mismatch {
        return Err(format!(
            "read latency differs ({old_lat} vs {new_lat}); profile deltas across \
             latencies conflate physics with configuration (pass --allow-mismatch \
             to compare anyway)"
        ));
    }

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

    Ok(ProfileDiff {
        rows,
        family_deltas: families,
        old_stalled: doc_u64(old, &["cycles", "stalled"]),
        new_stalled: doc_u64(new, &["cycles", "stalled"]),
        old_latency: old_lat,
        new_latency: new_lat,
    })
}

/// Renders a diff: stalled-cycle movement, cause-family deltas, the
/// dominant shift, and the top component-level changes. A cross-latency
/// comparison (possible only via `--allow-mismatch`) gets a loud warning
/// banner first.
#[must_use]
pub fn render_diff(d: &ProfileDiff, old_label: &str, new_label: &str) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    let total_delta = d.new_stalled as i64 - d.old_stalled as i64;
    let _ = writeln!(out, "dm-profile diff: {old_label} -> {new_label}");
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
    use dm_workloads::{ConvSpec, GemmSpec};

    fn doc_for_step(step: usize) -> JsonValue {
        let opts = ProfileOptions {
            step,
            ..ProfileOptions::default()
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
            let opts = ProfileOptions {
                step: 5,
                jobs,
                fast_forward,
                ..ProfileOptions::default()
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
    fn step5_to_step6_diff_names_bank_conflict_collapse() {
        // The Fig. 7(a) story: FIMA placement (step 5) drowns in bank
        // conflicts; bank-aware remapping (step 6) makes them vanish. The
        // profiler must name that as the dominant shift.
        let old = doc_for_step(5);
        let new = doc_for_step(6);
        let d = diff(&old, &new, false).unwrap();
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
    fn diff_refuses_schema_and_latency_mismatches() {
        let doc = doc_for_step(6);
        let bogus = JsonValue::object([(
            "schema".to_owned(),
            JsonValue::from("datamaestro-profile-v0"),
        )]);
        let err = diff(&bogus, &doc, false).unwrap_err();
        assert!(err.contains("schema mismatch"), "{err}");

        let slow = {
            let opts = ProfileOptions {
                step: 6,
                read_latency: 4,
                ..ProfileOptions::default()
            };
            let items = vec![("g".to_owned(), Workload::from(GemmSpec::new(32, 32, 32)), 1)];
            document_for_workloads(&opts, &items).unwrap()
        };
        let err = diff(&doc, &slow, false).unwrap_err();
        assert!(err.contains("read latency differs"), "{err}");

        // --allow-mismatch proceeds (the Fig. 7(a) axis), and the rendered
        // diff leads with the warning banner. The schema refusal is not
        // relaxed — a format mismatch is never a physics question.
        let d = diff(&doc, &slow, true).unwrap();
        assert_eq!((d.old_latency, d.new_latency), (1, 4));
        let rendered = render_diff(&d, "fast", "slow");
        assert!(rendered.contains("WARNING: read latency differs (1 vs 4)"));
        let err = diff(&bogus, &doc, true).unwrap_err();
        assert!(err.contains("schema mismatch"), "{err}");
    }

    #[test]
    fn conservation_check_accepts_real_runs_and_rejects_forgeries() {
        let opts = ProfileOptions {
            step: 5,
            ..ProfileOptions::default()
        };
        let mut report =
            crate::measure(&opts.config(), GemmSpec::new(32, 32, 32).into(), 1).unwrap();
        check_conservation("g32", &report).unwrap();
        // Forge one extra active cycle: the fire-count cross-check fires.
        report.active_cycles += 1;
        let err = check_conservation("g32", &report).unwrap_err();
        assert!(matches!(err, ProfileError::Conservation(_)), "{err}");
    }

    /// A run that flushes the write path after its last fire: the drain
    /// cycles sit on the OUT port in the per-port view.
    #[test]
    fn drain_cycles_conserve_on_the_write_port() {
        let opts = ProfileOptions {
            step: 5,
            ..ProfileOptions::default()
        };
        let conv = ConvSpec::new(24, 24, 8, 16, 1, 1, 1);
        let report = crate::measure(&opts.config(), conv.into(), 1).unwrap();
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
