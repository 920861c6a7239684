//! The static performance prover behind `dm predict`.
//!
//! `predict run` compiles the Fig. 7 ablation slice at one feature step —
//! exactly as the simulator would — and, **without simulating**, proves
//! for each workload a steady-state period for every port's request stream
//! and a sound utilization roofline ([`dm_analyze::predict`]): an upper
//! bound the observed PE utilization can never exceed, plus the predicted
//! dominant bottleneck in the same taxonomy the blame/critical profilers
//! use. `predict diff` compares two documents — typically adjacent
//! ablation steps — so the static prediction is directly diffable against
//! the dynamic measurement.
//!
//! The document is a pure function of the configuration: any `--jobs`
//! count produces byte-identical output (there is no simulation to
//! schedule, only independent proofs run in a deterministic order).

use dm_sim::{CritClass, JsonValue};
use dm_system::SystemConfig;
use dm_workloads::{Workload, WorkloadData};

use crate::cli::{DocKind, HarnessError, Item, Pair, RunFlags};

/// The prediction document kind; `diff` refuses to compare across schemas.
pub const KIND: DocKind = DocKind {
    tool: "dm-predict",
    schema: "datamaestro-predict-v1",
    deltas: Some("bound deltas"),
};

/// How many workload rows the rendered diff shows.
pub const TOP_ROWS: usize = 12;

/// Proves one workload under the given system configuration: compiles it
/// exactly as the simulator would, then derives the period proof and
/// utilization roofline.
///
/// # Errors
///
/// Returns a one-line message when the workload does not compile onto the
/// configuration or the period prover rejects the lowered program.
pub fn prove_workload(
    cfg: &SystemConfig,
    workload: Workload,
    seed: u64,
) -> Result<dm_analyze::Prediction, String> {
    let data = WorkloadData::generate(workload, seed);
    let program = dm_compiler::compile(&data, &cfg.features, &cfg.mem, cfg.quantized, cfg.depths)
        .map_err(|e| format!("does not compile: {e}"))?;
    dm_analyze::predict(&program, &cfg.mem, cfg.read_latency).map_err(|diags| {
        diags
            .iter()
            .map(ToString::to_string)
            .collect::<Vec<_>>()
            .join("; ")
    })
}

fn port_json(port: &dm_analyze::PortPeriodProof) -> JsonValue {
    JsonValue::object([
        ("name".to_owned(), JsonValue::from(&*port.name)),
        ("steps".to_owned(), JsonValue::from(port.steps)),
        ("period".to_owned(), JsonValue::from(port.period)),
        (
            "requests_per_period".to_owned(),
            JsonValue::from(port.requests_per_period()),
        ),
        (
            "per_bank_per_period".to_owned(),
            JsonValue::Array(
                port.per_bank_per_period
                    .iter()
                    .map(|&n| JsonValue::from(n))
                    .collect(),
            ),
        ),
        ("exhaustive".to_owned(), JsonValue::Bool(port.exhaustive)),
    ])
}

fn entry_json(label: &str, p: &dm_analyze::Prediction) -> JsonValue {
    JsonValue::object([
        ("label".to_owned(), JsonValue::from(label)),
        ("ideal".to_owned(), JsonValue::from(p.ideal)),
        ("prepass_lb".to_owned(), JsonValue::from(p.prepass_lb)),
        ("compute_lb".to_owned(), JsonValue::from(p.compute_lb)),
        ("bank_term".to_owned(), JsonValue::from(p.bank_term)),
        ("bound".to_owned(), JsonValue::from(p.bound)),
        (
            "bottleneck".to_owned(),
            JsonValue::from(p.bottleneck.label()),
        ),
        (
            "fire_period".to_owned(),
            JsonValue::from(p.period.fire_period),
        ),
        (
            "exhaustive".to_owned(),
            JsonValue::Bool(p.period.exhaustive),
        ),
        (
            "ports".to_owned(),
            JsonValue::Array(p.period.ports.iter().map(port_json).collect()),
        ),
    ])
}

/// Builds a prediction document from explicit `(label, workload, seed)`
/// items (`dm predict run` passes [`RunFlags::items`]). The system
/// configuration is [`RunFlags::config`] — the same lowering
/// `run_workload` performs, so predicted and observed numbers describe the
/// identical program.
///
/// # Errors
///
/// Returns the first proof failure as a [`HarnessError::Contract`],
/// prefixed with its workload label.
pub fn document_for_workloads(flags: &RunFlags, items: &[Item]) -> Result<JsonValue, HarnessError> {
    let cfg = flags.config();
    let predictions = crate::run_ordered(items, flags.jobs, |_, (label, workload, seed)| {
        prove_workload(&cfg, *workload, *seed)
            .map_err(|e| HarnessError::Contract(format!("{label}: {e}")))
    })
    .into_iter()
    .collect::<Result<Vec<_>, _>>()?;

    let (mut ideal, mut cycles_lb) = (0u64, 0u64);
    let mut per_class = vec![0u64; CritClass::ALL.len()];
    for p in &predictions {
        ideal += p.ideal;
        cycles_lb += p.prepass_lb + p.compute_lb;
        let slot = CritClass::ALL
            .iter()
            .position(|c| *c == p.bottleneck)
            .unwrap_or(0);
        per_class[slot] += 1;
    }
    let bound = if cycles_lb == 0 {
        1.0
    } else {
        ideal as f64 / cycles_lb as f64
    };
    // Dominant class: most entries, ties toward the front of the taxonomy
    // (pe-issue first) — the same resolution the per-program roofline uses.
    let dominant = per_class
        .iter()
        .enumerate()
        .max_by_key(|(i, n)| (**n, std::cmp::Reverse(*i)))
        .map_or(CritClass::PeIssue, |(i, _)| CritClass::ALL[i]);

    let entries: Vec<JsonValue> = items
        .iter()
        .zip(&predictions)
        .map(|((label, _, _), p)| entry_json(label, p))
        .collect();
    let mut fields = flags.header(KIND.schema, items.len());
    fields.push((
        "aggregate".to_owned(),
        JsonValue::object([
            ("ideal".to_owned(), JsonValue::from(ideal)),
            ("cycles_lb".to_owned(), JsonValue::from(cycles_lb)),
            ("bound".to_owned(), JsonValue::from(bound)),
            ("bottleneck".to_owned(), JsonValue::from(dominant.label())),
        ]),
    ));
    fields.push(("entries".to_owned(), JsonValue::Array(entries)));
    Ok(JsonValue::Object(fields))
}

fn entries(doc: &JsonValue) -> &[JsonValue] {
    match doc.get("entries") {
        Some(JsonValue::Array(items)) => items,
        _ => &[],
    }
}

/// Renders the human-readable prediction: the aggregate roofline and one
/// row per workload with its proven bound, predicted bottleneck and fire
/// period.
#[must_use]
pub fn render(doc: &JsonValue) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    let _ = writeln!(
        out,
        "dm-predict: ablation step {} ({}, read latency {}) — {} workload(s)",
        doc.u64_at(&["step"]),
        doc.str_at(&["mode"]),
        doc.u64_at(&["read_latency"]),
        doc.u64_at(&["workloads"])
    );
    let _ = writeln!(
        out,
        "  proven utilization ≤ {:.3} (ideal {} / ≥{} cycles; predicted bottleneck: {})",
        doc.f64_at(&["aggregate", "bound"]),
        doc.u64_at(&["aggregate", "ideal"]),
        doc.u64_at(&["aggregate", "cycles_lb"]),
        doc.str_at(&["aggregate", "bottleneck"])
    );
    let _ = writeln!(
        out,
        "  {:<34} {:>8} {:>9} {:>7}  {:<16} {:>10}",
        "workload", "ideal", "cycles≥", "bound", "bottleneck", "period"
    );
    for e in entries(doc) {
        let lb = e.u64_at(&["prepass_lb"]) + e.u64_at(&["compute_lb"]);
        let exhaustive = matches!(e.get("exhaustive"), Some(JsonValue::Bool(true)));
        let _ = writeln!(
            out,
            "  {:<34} {:>8} {:>9} {:>7.3}  {:<16} {:>9}{}",
            e.str_at(&["label"]),
            e.u64_at(&["ideal"]),
            lb,
            e.f64_at(&["bound"]),
            e.str_at(&["bottleneck"]),
            e.u64_at(&["fire_period"]),
            if exhaustive { "" } else { "*" }
        );
    }
    if entries(doc)
        .iter()
        .any(|e| !matches!(e.get("exhaustive"), Some(JsonValue::Bool(true))))
    {
        let _ = writeln!(out, "  * period proven for the walked prefix only");
    }
    out
}

/// One per-workload delta between two prediction documents.
#[derive(Debug, Clone, PartialEq)]
pub struct DiffRow {
    /// Workload label, with any `|step<k>` suffix stripped so the same
    /// workload pairs with itself across ablation steps.
    pub label: String,
    /// Proven bound in the old document (`None` when the row is new).
    pub old_bound: Option<f64>,
    /// Proven bound in the new document (`None` when the row vanished).
    pub new_bound: Option<f64>,
    /// Predicted bottleneck on each side.
    pub old_bottleneck: String,
    /// Predicted bottleneck in the new document.
    pub new_bottleneck: String,
}

impl DiffRow {
    /// Signed change in the proven bound (new − old), 0 for one-sided rows.
    #[must_use]
    pub fn delta(&self) -> f64 {
        match (self.old_bound, self.new_bound) {
            (Some(old), Some(new)) => new - old,
            _ => 0.0,
        }
    }
}

/// The outcome of comparing two prediction documents.
#[derive(Debug, Default)]
pub struct PredictDiff {
    /// Per-workload rows, largest absolute bound change first.
    pub rows: Vec<DiffRow>,
    /// Aggregate proven bound on each side.
    pub old_bound: f64,
    /// Aggregate proven bound on the new side.
    pub new_bound: f64,
    /// Aggregate predicted bottleneck on each side.
    pub old_bottleneck: String,
    /// Aggregate predicted bottleneck on the new side.
    pub new_bottleneck: String,
    /// Read latency of the old and the new document.
    pub latencies: (u64, u64),
}

/// Compares two prediction documents that passed the diff prologue
/// ([`DocKind::pair`]): per-workload bound and bottleneck changes.
#[must_use]
pub fn diff(pair: &Pair) -> PredictDiff {
    let (old, new) = (&pair.old, &pair.new);
    // Workload labels embed the ablation step (`…|step5`); pair rows on
    // the step-stripped base so a cross-step diff compares each workload
    // against itself instead of producing one-sided rows.
    let base_label = |label: &str| -> String {
        match label.rsplit_once("|step") {
            Some((base, step)) if !step.is_empty() && step.bytes().all(|b| b.is_ascii_digit()) => {
                base.to_owned()
            }
            _ => label.to_owned(),
        }
    };
    let mut labels: Vec<String> = Vec::new();
    let mut side = |doc: &JsonValue| {
        let mut map = std::collections::BTreeMap::new();
        for e in entries(doc) {
            let label = base_label(e.str_at(&["label"]));
            if !labels.contains(&label) {
                labels.push(label.clone());
            }
            map.insert(
                label,
                (e.f64_at(&["bound"]), e.str_at(&["bottleneck"]).to_owned()),
            );
        }
        map
    };
    let old_map = side(old);
    let new_map = side(new);
    let mut rows: Vec<DiffRow> = labels
        .into_iter()
        .map(|label| {
            let old_entry = old_map.get(&label);
            let new_entry = new_map.get(&label);
            DiffRow {
                old_bound: old_entry.map(|(b, _)| *b),
                new_bound: new_entry.map(|(b, _)| *b),
                old_bottleneck: old_entry.map(|(_, c)| c.clone()).unwrap_or_default(),
                new_bottleneck: new_entry.map(|(_, c)| c.clone()).unwrap_or_default(),
                label,
            }
        })
        .collect();
    rows.sort_by(|a, b| {
        b.delta()
            .abs()
            .partial_cmp(&a.delta().abs())
            .unwrap_or(std::cmp::Ordering::Equal)
            .then_with(|| a.label.cmp(&b.label))
    });

    PredictDiff {
        rows,
        old_bound: old.f64_at(&["aggregate", "bound"]),
        new_bound: new.f64_at(&["aggregate", "bound"]),
        old_bottleneck: old.str_at(&["aggregate", "bottleneck"]).to_owned(),
        new_bottleneck: new.str_at(&["aggregate", "bottleneck"]).to_owned(),
        latencies: pair.latencies,
    }
}

/// Renders a diff: aggregate bound movement, the predicted-bottleneck
/// handoff, and the top per-workload bound changes. A cross-latency
/// comparison (possible only via `--allow-mismatch`) gets a loud warning
/// banner first.
#[must_use]
pub fn render_diff(d: &PredictDiff, old_label: &str, new_label: &str) -> String {
    use std::fmt::Write as _;
    let mut out = KIND.diff_header(old_label, new_label, d.latencies);
    let _ = writeln!(
        out,
        "  proven utilization bound: {:.3} -> {:.3} ({:+.3})",
        d.old_bound,
        d.new_bound,
        d.new_bound - d.old_bound
    );
    if d.old_bottleneck == d.new_bottleneck {
        let _ = writeln!(
            out,
            "  predicted bottleneck: {} (unchanged)",
            d.new_bottleneck
        );
    } else {
        let _ = writeln!(
            out,
            "  predicted bottleneck: {} -> {}",
            d.old_bottleneck, d.new_bottleneck
        );
    }
    let moved: Vec<&DiffRow> = d
        .rows
        .iter()
        .filter(|r| r.delta() != 0.0 || r.old_bound.is_none() || r.new_bound.is_none())
        .collect();
    if moved.is_empty() {
        let _ = writeln!(out, "  no per-workload bound moved");
        return out;
    }
    let _ = writeln!(out, "  top workload deltas:");
    for row in moved.iter().take(TOP_ROWS) {
        let fmt_bound = |b: Option<f64>| match b {
            Some(b) => format!("{b:.3}"),
            None => "—".to_owned(),
        };
        let handoff = if row.old_bottleneck == row.new_bottleneck {
            String::new()
        } else {
            format!("  [{} -> {}]", row.old_bottleneck, row.new_bottleneck)
        };
        let _ = writeln!(
            out,
            "    {:<34} {:>7} -> {:<7} ({:+.3}){handoff}",
            row.label,
            fmt_bound(row.old_bound),
            fmt_bound(row.new_bound),
            row.delta()
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use dm_workloads::GemmSpec;

    fn doc_for_step(step: usize) -> JsonValue {
        let flags = RunFlags {
            step,
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
    fn full_features_are_predicted_near_peak() {
        let doc = doc_for_step(6);
        assert!(doc.f64_at(&["aggregate", "bound"]) >= 0.99);
        assert_eq!(doc.str_at(&["aggregate", "bottleneck"]), "pe-issue");
        let e = &entries(&doc)[0];
        assert_eq!(e.u64_at(&["prepass_lb"]), 0, "no pre-passes at step 6");
        assert!(
            matches!(e.get("exhaustive"), Some(JsonValue::Bool(true))),
            "GeMM-64 nests are small enough to walk exhaustively"
        );
        let rendered = render(&doc);
        assert!(rendered.contains("dm-predict: ablation step 6"));
        assert!(rendered.contains("pe-issue"));
    }

    #[test]
    fn step5_to_step6_diff_reports_the_bound_recovery() {
        // The Fig. 7(a) ⑤→⑥ story, statically: FIMA placement (step 5) is
        // provably capped below peak; bank-aware remapping (step 6) lifts
        // the roofline back to near-peak.
        let old = doc_for_step(5);
        let new = doc_for_step(6);
        let b5 = old.f64_at(&["aggregate", "bound"]);
        let b6 = new.f64_at(&["aggregate", "bound"]);
        assert!(b6 >= b5, "step 6 must not be predicted worse: {b5} vs {b6}");
        let d = diff(&KIND.pair(old, new, false).unwrap());
        assert_eq!(d.new_bottleneck, "pe-issue");
        // Step-suffixed labels must pair across steps: every row carries
        // both sides, none is one-sided.
        assert!(!d.rows.is_empty());
        for row in &d.rows {
            assert!(
                row.old_bound.is_some() && row.new_bound.is_some(),
                "one-sided cross-step row for {}",
                row.label
            );
        }
        let rendered = render_diff(&d, "step5", "step6");
        assert!(rendered.contains("proven utilization bound"));
    }

    #[test]
    fn document_is_byte_identical_across_jobs() {
        let items: Vec<Item> = (0..3)
            .map(|i| (format!("g{i}"), GemmSpec::new(32, 32, 32).into(), i))
            .collect();
        let doc = |jobs: usize| {
            let flags = RunFlags {
                step: 5,
                jobs,
                ..RunFlags::default()
            };
            document_for_workloads(&flags, &items).unwrap().to_json()
        };
        assert_eq!(doc(1), doc(4), "jobs must not change the bytes");
    }

    #[test]
    fn diff_refuses_schema_and_latency_mismatches() {
        let doc = doc_for_step(6);
        let bogus = JsonValue::object([(
            "schema".to_owned(),
            JsonValue::from("datamaestro-predict-v0"),
        )]);
        let err = KIND.pair(bogus.clone(), doc.clone(), false).unwrap_err();
        assert!(err.contains("schema mismatch"), "{err}");

        let slow = {
            let flags = RunFlags {
                step: 6,
                read_latency: 4,
                ..RunFlags::default()
            };
            let items = vec![(
                "GeMM-64|step6".to_owned(),
                Workload::from(GemmSpec::new(64, 64, 64)),
                1,
            )];
            document_for_workloads(&flags, &items).unwrap()
        };
        let err = KIND.pair(doc.clone(), slow.clone(), false).unwrap_err();
        assert!(err.contains("read latency differs"), "{err}");
        let d = diff(&KIND.pair(doc.clone(), slow, true).unwrap());
        assert_eq!(d.latencies, (1, 4));
        let rendered = render_diff(&d, "fast", "slow");
        assert!(rendered.contains("WARNING: read latency differs (1 vs 4)"));
        // The schema refusal is never relaxed.
        let err = KIND.pair(bogus, doc, true).unwrap_err();
        assert!(err.contains("schema mismatch"), "{err}");
    }

    #[test]
    fn ports_carry_per_bank_period_counts() {
        let doc = doc_for_step(6);
        let e = &entries(&doc)[0];
        let Some(JsonValue::Array(ports)) = e.get("ports") else {
            panic!("entry has no ports array");
        };
        assert_eq!(ports.len(), 4, "A, B, C, OUT");
        for port in ports {
            let period = port.u64_at(&["period"]);
            assert!(period >= 1);
            let Some(JsonValue::Array(per_bank)) = port.get("per_bank_per_period") else {
                panic!("port has no per_bank_per_period");
            };
            let total: u64 = per_bank.iter().map(|v| v.as_u64().unwrap_or(0)).sum();
            assert_eq!(
                total,
                port.u64_at(&["requests_per_period"]),
                "per-bank counts must sum to the per-period request count"
            );
        }
    }
}
