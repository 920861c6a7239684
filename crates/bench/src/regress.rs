//! The benchmark regression harness behind `dm regress`.
//!
//! `dm regress run` executes a fixed suite of simulated workloads (a subset of
//! the Fig. 7 ablation plus the Table III ResNet-18 layers by default) and
//! emits one canonical `BENCH_<name>.json` document. The `suites` subtree
//! is fully deterministic — identical code and configuration produce a
//! byte-identical subtree — while the `host` section carries wall-clock
//! throughput of the simulator itself and is ignored by comparisons.
//!
//! `dm regress diff old.json new.json` compares two documents entry by entry
//! and exits non-zero when utilization drops or tail latency inflates
//! beyond the tolerance, making it suitable as a CI gate against a
//! committed baseline (`BENCH_seed.json`).

use dm_compiler::FeatureSet;
use dm_sim::{JsonValue, MetricValue};
use dm_system::{RunReport, SystemConfig, SystemError};
use dm_workloads::{table3_models, Workload};

use crate::cli::{fig7_slice, DocKind, Pair, RunFlags};

/// The benchmark document kind; the schema is bumped when the layout
/// changes incompatibly, and `diff`/`guard` refuse to compare documents
/// across schemas.
///
/// History: `v1` carried label/fingerprint/utilization/cycles/conflicts/
/// accesses/latency/fifo_high_water per entry; `v2` added the causal
/// `blame` subtree (per-phase, per-cause, per-component stall charges);
/// `v3` added the `critical` subtree (critical-path composition and
/// what-if projections).
pub const KIND: DocKind = DocKind {
    tool: "regress",
    schema: "datamaestro-bench-v3",
    deltas: None,
};

/// Relative tolerance used by `diff` when none is given: 1 %.
pub const DEFAULT_THRESHOLD: f64 = 0.01;

/// Throughput floor used by `guard` when none is given: the fast-forward
/// run must reach at least 0.9x the lockstep run's cycles/sec per suite.
pub const DEFAULT_GUARD_RATIO: f64 = 0.9;

/// Absolute slack (cycles) added on top of the relative latency
/// tolerance, so 2-cycle p99s don't fail on a 1-cycle wobble.
const LATENCY_SLACK_CYCLES: u64 = 2;

fn counter(report: &RunReport, path: &str) -> u64 {
    match report.metrics.get(path) {
        Some(MetricValue::Counter(n)) => n,
        Some(MetricValue::Gauge(g)) => g as u64,
        None => 0,
    }
}

/// The `{p50,p90,p99,max}` object for one end-to-end latency component.
fn latency_json(report: &RunReport, component: &str) -> JsonValue {
    JsonValue::object(["p50", "p90", "p99", "max"].into_iter().map(|p| {
        (
            p.to_owned(),
            JsonValue::from(counter(report, &format!("mem.latency.{component}.{p}"))),
        )
    }))
}

/// Highest per-cycle FIFO occupancy seen by any streamer during the run.
fn fifo_high_water(report: &RunReport) -> u64 {
    ["A", "B", "C", "OUT"]
        .into_iter()
        .map(|s| counter(report, &format!("streamer.{s}.fifo_occupancy.max")))
        .max()
        .unwrap_or(0)
}

/// One suite entry: the headline numbers of a single simulated run, plus
/// the provenance fingerprint that makes cross-commit comparison sound.
#[must_use]
pub fn entry_json(label: &str, report: &RunReport) -> JsonValue {
    JsonValue::object([
        ("label".to_owned(), JsonValue::from(label)),
        (
            "fingerprint".to_owned(),
            JsonValue::from(report.provenance.fingerprint.as_str()),
        ),
        (
            "utilization".to_owned(),
            JsonValue::from(report.utilization()),
        ),
        ("cycles".to_owned(), JsonValue::from(report.total_cycles())),
        ("conflicts".to_owned(), JsonValue::from(report.conflicts)),
        ("accesses".to_owned(), JsonValue::from(report.accesses())),
        (
            "latency".to_owned(),
            JsonValue::object([
                ("queueing".to_owned(), latency_json(report, "queueing")),
                ("service".to_owned(), latency_json(report, "service")),
                ("end_to_end".to_owned(), latency_json(report, "end_to_end")),
            ]),
        ),
        (
            "fifo_high_water".to_owned(),
            JsonValue::from(fifo_high_water(report)),
        ),
        ("blame".to_owned(), report.ledger.to_json()),
        ("critical".to_owned(), report.critical.to_json()),
    ])
}

/// Wall-clock throughput of one benchmark suite: how many simulated cycles
/// the host retired per second while producing the suite's entries. Lives
/// in the non-compared `host` section; `guard` uses it to verify that the
/// fast-forward engine actually pays for itself.
#[derive(Debug, Clone)]
pub struct SuiteHost {
    /// Suite name (`fig7`, `table3`).
    pub suite: String,
    /// Total simulated cycles across the suite's entries.
    pub cycles: u64,
    /// Host wall-clock spent producing the suite, in nanoseconds.
    pub wall_ns: u64,
}

impl SuiteHost {
    /// Simulated cycles retired per host second.
    #[must_use]
    pub fn cycles_per_sec(&self) -> f64 {
        if self.wall_ns == 0 {
            0.0
        } else {
            self.cycles as f64 * 1e9 / self.wall_ns as f64
        }
    }

    /// Serializes to the `host.suites[]` entry format.
    #[must_use]
    pub fn to_json(&self) -> JsonValue {
        JsonValue::object([
            ("suite".to_owned(), JsonValue::from(self.suite.as_str())),
            ("cycles".to_owned(), JsonValue::from(self.cycles)),
            ("wall_ns".to_owned(), JsonValue::from(self.wall_ns)),
            (
                "cycles_per_sec".to_owned(),
                JsonValue::from(self.cycles_per_sec()),
            ),
        ])
    }
}

fn suite_cycles(entries: &[JsonValue]) -> u64 {
    entries
        .iter()
        .filter_map(|e| e.get("cycles").and_then(JsonValue::as_u64))
        .sum()
}

/// One simulated benchmark run: entry label, system, workload and seed.
type Run = (String, SystemConfig, Workload, u64);

/// The suites `regress run` simulates, in document order. The default
/// (quick) selection keeps a CI pass under a minute: the every-5th Fig. 7
/// slice through all six ablation steps, plus the ResNet-18 layers on the
/// fully featured system. `flags.full` runs the complete Fig. 7 suite and
/// all Table III models.
fn suite_plan(flags: &RunFlags) -> [(&'static str, Vec<Run>); 2] {
    let system = |step| SystemConfig {
        fast_forward: flags.fast_forward,
        ..SystemConfig::default().with_features(FeatureSet::ablation_step(step))
    };
    let mut fig7 = Vec::new();
    for (i, workload) in fig7_slice(flags.full) {
        for step in 1..=6 {
            fig7.push((
                format!("{workload}|step{step}"),
                system(step),
                workload,
                i as u64,
            ));
        }
    }
    let mut table3 = Vec::new();
    for model in table3_models() {
        if flags.full || model.name == "ResNet-18" {
            for (i, layer) in model.layers.iter().enumerate() {
                let label = format!("{}/{}", model.name, layer.name);
                table3.push((label, system(6), layer.workload, i as u64));
            }
        }
    }
    [("fig7", fig7), ("table3", table3)]
}

/// Runs the benchmark suites and returns `(suite name, entries)` pairs plus
/// per-suite host throughput figures.
///
/// `flags.jobs` spreads the independent runs over that many worker
/// threads; the suite entries are committed in input order, so the
/// resulting document is byte-identical regardless of the thread count.
/// `flags.fast_forward` toggles idle-cycle elision; by construction it
/// cannot change any entry, only the host throughput.
///
/// # Errors
///
/// Propagates the first (in suite order) [`SystemError`] from any run.
#[allow(clippy::type_complexity)]
pub fn run_suites(
    flags: &RunFlags,
    mut progress: impl FnMut(&str),
) -> Result<(Vec<(String, Vec<JsonValue>)>, Vec<SuiteHost>), SystemError> {
    let (mut suites, mut host) = (Vec::new(), Vec::new());
    for (name, runs) in suite_plan(flags) {
        progress(&format!(
            "{name}: {} runs ({} jobs)",
            runs.len(),
            flags.jobs
        ));
        let start = std::time::Instant::now();
        let entries = crate::run_ordered(&runs, flags.jobs, |_, (label, cfg, workload, seed)| {
            crate::measure(cfg, *workload, *seed).map(|report| entry_json(label, &report))
        })
        .into_iter()
        .collect::<Result<Vec<_>, _>>()?;
        host.push(SuiteHost {
            suite: name.to_owned(),
            cycles: suite_cycles(&entries),
            wall_ns: u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX),
        });
        suites.push((name.to_owned(), entries));
    }
    Ok((suites, host))
}

/// The `(label, features, workload)` configurations `regress run` will
/// simulate, for the `--lint` pre-flight.
#[must_use]
pub fn lint_items(full: bool) -> Vec<(String, FeatureSet, Workload)> {
    let flags = RunFlags {
        full,
        ..RunFlags::default()
    };
    let plan = suite_plan(&flags).into_iter().flat_map(|(_, runs)| runs);
    plan.map(|(label, cfg, workload, _)| (label, cfg.features, workload))
        .collect()
}

/// Deep-dive telemetry of one representative run (fully featured GeMM-64):
/// every per-bank / per-requester latency percentile and per-channel FIFO
/// occupancy metric, as a flat path-keyed object.
///
/// # Errors
///
/// Propagates the [`SystemError`] from the run.
pub fn detail_json(fast_forward: bool) -> Result<JsonValue, SystemError> {
    let report = crate::measure(
        &SystemConfig {
            fast_forward,
            ..SystemConfig::default()
        },
        dm_workloads::GemmSpec::new(64, 64, 64).into(),
        0,
    )?;
    let metrics = JsonValue::Object(
        report
            .metrics
            .iter()
            .filter(|(path, _)| path.contains(".latency.") || path.contains("fifo_occupancy"))
            .map(|(path, v)| {
                let value = match v {
                    MetricValue::Counter(n) => JsonValue::from(n),
                    MetricValue::Gauge(g) => JsonValue::from(g),
                };
                (path.to_owned(), value)
            })
            .collect(),
    );
    Ok(JsonValue::object([
        ("label".to_owned(), JsonValue::from("GeMM-64|step6")),
        (
            "fingerprint".to_owned(),
            JsonValue::from(report.provenance.fingerprint.as_str()),
        ),
        ("metrics".to_owned(), metrics),
    ]))
}

/// Host-throughput section: wall-clock phase timings of a fully featured
/// GeMM-64 run. Non-deterministic by nature; `diff` ignores it.
///
/// # Errors
///
/// Propagates the [`SystemError`] from the run.
pub fn host_json(fast_forward: bool, suites: &[SuiteHost]) -> Result<JsonValue, SystemError> {
    let cfg = SystemConfig {
        time_phases: true,
        fast_forward,
        ..SystemConfig::default()
    };
    let report = crate::measure(&cfg, dm_workloads::GemmSpec::new(64, 64, 64).into(), 0)?;
    let host = report.host.expect("time_phases was set");
    Ok(JsonValue::object([
        ("workload".to_owned(), JsonValue::from("GeMM-64|step6")),
        ("fast_forward".to_owned(), JsonValue::from(fast_forward)),
        (
            "streamers_ns".to_owned(),
            JsonValue::from(host.streamers_ns),
        ),
        ("memory_ns".to_owned(), JsonValue::from(host.memory_ns)),
        ("pe_ns".to_owned(), JsonValue::from(host.pe_ns)),
        (
            "fastforward_ns".to_owned(),
            JsonValue::from(host.fastforward_ns),
        ),
        (
            "compute_loop_ns".to_owned(),
            JsonValue::from(host.compute_loop_ns),
        ),
        ("cycles".to_owned(), JsonValue::from(host.cycles)),
        (
            "cycles_per_sec".to_owned(),
            JsonValue::from(host.cycles_per_sec()),
        ),
        (
            "suites".to_owned(),
            JsonValue::Array(suites.iter().map(SuiteHost::to_json).collect()),
        ),
    ]))
}

/// Builds the complete benchmark document.
///
/// Without `flags.host` (`--no-host`) the whole document is deterministic
/// and byte-for-byte reproducible — for any `jobs` count — which is how
/// `BENCH_seed.json` baselines are generated.
///
/// # Errors
///
/// Propagates the first [`SystemError`] from any run.
pub fn bench_document(
    flags: &RunFlags,
    progress: impl FnMut(&str),
) -> Result<JsonValue, SystemError> {
    let (full, fast_forward) = (flags.full, flags.fast_forward);
    let (suites, suite_host) = run_suites(flags, progress)?;
    let mut fields = vec![
        ("schema".to_owned(), JsonValue::from(KIND.schema)),
        (
            "crate_version".to_owned(),
            JsonValue::from(env!("CARGO_PKG_VERSION")),
        ),
        (
            "mode".to_owned(),
            JsonValue::from(if full { "full" } else { "quick" }),
        ),
        (
            "suites".to_owned(),
            JsonValue::object(
                suites
                    .into_iter()
                    .map(|(name, entries)| (name, JsonValue::Array(entries))),
            ),
        ),
        ("detail".to_owned(), detail_json(fast_forward)?),
    ];
    if flags.host {
        fields.push(("host".to_owned(), host_json(fast_forward, &suite_host)?));
    }
    Ok(JsonValue::object(fields))
}

/// The outcome of a benchmark gate (`diff` or `guard`).
#[derive(Debug, Default)]
pub struct GateOutcome {
    /// `diff`: entries compared across both documents.
    pub compared: usize,
    /// `guard`: per-suite throughput ratio (fast-forward / lockstep).
    pub ratios: Vec<(String, f64)>,
    /// Human-readable violations; empty means the gate passed.
    pub failures: Vec<String>,
}

impl GateOutcome {
    /// `true` when no violation was found.
    #[must_use]
    pub fn passed(&self) -> bool {
        self.failures.is_empty()
    }
}

fn entry_label(entry: &JsonValue) -> &str {
    entry
        .get("label")
        .and_then(JsonValue::as_str)
        .unwrap_or("<unlabelled>")
}

fn entry_p99(entry: &JsonValue, component: &str) -> u64 {
    entry.u64_at(&["latency", component, "p99"])
}

/// Compares the new document of `pair` against its old baseline, both past
/// the diff prologue ([`DocKind::pair`]), with a relative `threshold`
/// (fraction, e.g. `0.01` for 1 %).
///
/// Checks, per suite entry matched by label:
///
/// * provenance fingerprints agree (otherwise the configurations differ
///   and the comparison would be meaningless);
/// * utilization has not dropped by more than `threshold` relative;
/// * queueing and end-to-end p99 latency have not inflated by more than
///   `threshold` relative plus a small absolute slack.
///
/// Entries present on only one side fail the diff (suite drift requires a
/// baseline refresh). The `host` section is never compared.
#[must_use]
pub fn diff(pair: &Pair, threshold: f64) -> GateOutcome {
    let (old, new) = (&pair.old, &pair.new);
    let mut out = GateOutcome::default();
    let old_suites = old.at(&["suites"]).and_then(JsonValue::as_object);
    let new_suites = new.at(&["suites"]).and_then(JsonValue::as_object);
    let (old_suites, new_suites) = (old_suites.unwrap_or(&[]), new_suites.unwrap_or(&[]));
    for (suite, old_entries) in old_suites {
        let Some(new_entries) = new_suites
            .iter()
            .find(|(name, _)| name == suite)
            .and_then(|(_, v)| v.as_array())
        else {
            out.failures
                .push(format!("suite '{suite}' missing from new document"));
            continue;
        };
        let old_entries = old_entries.as_array().unwrap_or(&[]);
        for old_entry in old_entries {
            let label = entry_label(old_entry);
            let Some(new_entry) = new_entries.iter().find(|e| entry_label(e) == label) else {
                out.failures
                    .push(format!("{suite}/{label}: missing from new document"));
                continue;
            };
            out.compared += 1;
            compare_entry(suite, label, old_entry, new_entry, threshold, &mut out);
        }
        // Entries only the new side has mean the suite definition changed;
        // the baseline must be refreshed deliberately, not silently.
        for new_entry in new_entries {
            let label = entry_label(new_entry);
            if !old_entries.iter().any(|e| entry_label(e) == label) {
                out.failures
                    .push(format!("{suite}/{label}: not present in baseline"));
            }
        }
    }
    out
}

fn compare_entry(
    suite: &str,
    label: &str,
    old: &JsonValue,
    new: &JsonValue,
    threshold: f64,
    out: &mut GateOutcome,
) {
    let old_fp = old.get("fingerprint").and_then(JsonValue::as_str);
    let new_fp = new.get("fingerprint").and_then(JsonValue::as_str);
    if old_fp != new_fp {
        out.failures.push(format!(
            "{suite}/{label}: provenance fingerprint changed ({} -> {}); \
             the configurations are not comparable",
            old_fp.unwrap_or("?"),
            new_fp.unwrap_or("?")
        ));
        return;
    }
    let old_util = old.f64_at(&["utilization"]);
    let new_util = new.f64_at(&["utilization"]);
    if new_util < old_util * (1.0 - threshold) {
        out.failures.push(format!(
            "{suite}/{label}: utilization dropped {:.4} -> {:.4} ({:.2}% > {:.2}% tolerance)",
            old_util,
            new_util,
            100.0 * (old_util - new_util) / old_util,
            100.0 * threshold
        ));
    }
    for component in ["queueing", "end_to_end"] {
        let old_p99 = entry_p99(old, component);
        let new_p99 = entry_p99(new, component);
        let limit = (old_p99 as f64 * (1.0 + threshold)) as u64 + LATENCY_SLACK_CYCLES;
        if new_p99 > limit {
            out.failures.push(format!(
                "{suite}/{label}: {component} p99 inflated {old_p99} -> {new_p99} cycles \
                 (limit {limit})"
            ));
        }
    }
}

fn host_suites(doc: &JsonValue) -> Vec<(String, f64)> {
    doc.at(&["host", "suites"])
        .and_then(JsonValue::as_array)
        .map(|arr| {
            arr.iter()
                .filter_map(|e| {
                    Some((
                        e.get("suite")?.as_str()?.to_owned(),
                        e.get("cycles_per_sec")?.as_f64()?,
                    ))
                })
                .collect()
        })
        .unwrap_or_default()
}

/// Compares a fast-forward benchmark document (`pair.old`) against a
/// lockstep one (`pair.new`), both past the diff prologue.
///
/// Two gates:
///
/// * every deterministic subtree (`suites`, `detail`) must be
///   byte-identical — idle-cycle elision is only legal if it changes no
///   simulated observable;
/// * per suite, the fast-forward run's `host.suites[].cycles_per_sec` must
///   be at least `min_ratio` times the lockstep run's (the engine must not
///   cost more than it saves, even on workloads with nothing to elide).
#[must_use]
pub fn guard(pair: &Pair, min_ratio: f64) -> GateOutcome {
    let (ff, lockstep) = (&pair.old, &pair.new);
    let mut out = GateOutcome::default();
    for key in ["suites", "detail"] {
        let a = ff.get(key).map(JsonValue::to_json);
        let b = lockstep.get(key).map(JsonValue::to_json);
        if a != b {
            out.failures.push(format!(
                "'{key}' subtree differs between the fast-forward and lockstep runs; \
                 idle-cycle elision changed a simulated result"
            ));
        }
    }
    let ff_host = host_suites(ff);
    let ls_host = host_suites(lockstep);
    if ff_host.is_empty() {
        out.failures.push(
            "fast-forward document has no host.suites timing (was it run with --no-host?)"
                .to_owned(),
        );
    }
    for (suite, ff_cps) in &ff_host {
        let Some((_, ls_cps)) = ls_host.iter().find(|(s, _)| s == suite) else {
            out.failures
                .push(format!("suite '{suite}' missing from lockstep host timing"));
            continue;
        };
        let ratio = if *ls_cps > 0.0 { ff_cps / ls_cps } else { 0.0 };
        out.ratios.push((suite.clone(), ratio));
        if ratio < min_ratio {
            out.failures.push(format!(
                "suite '{suite}': fast-forward retires {ff_cps:.0} cycles/s, only {ratio:.2}x \
                 the lockstep {ls_cps:.0} cycles/s (floor {min_ratio:.2}x)"
            ));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use dm_workloads::GemmSpec;

    fn doc_with(entries: Vec<JsonValue>) -> JsonValue {
        JsonValue::object([
            ("schema".to_owned(), JsonValue::from(KIND.schema)),
            (
                "suites".to_owned(),
                JsonValue::object([("s".to_owned(), JsonValue::Array(entries))]),
            ),
        ])
    }

    fn compare(old: JsonValue, new: JsonValue) -> GateOutcome {
        diff(&KIND.pair(old, new, false).unwrap(), DEFAULT_THRESHOLD)
    }

    fn guarded(ff: JsonValue, lockstep: JsonValue) -> GateOutcome {
        guard(
            &KIND.pair(ff, lockstep, false).unwrap(),
            DEFAULT_GUARD_RATIO,
        )
    }

    fn measured(step: usize) -> RunReport {
        let cfg = SystemConfig::default().with_features(FeatureSet::ablation_step(step));
        crate::measure(&cfg, GemmSpec::new(64, 64, 64).into(), 1).unwrap()
    }

    #[test]
    fn entry_captures_headline_numbers_and_provenance() {
        let report = measured(6);
        let entry = entry_json("g64", &report);
        assert_eq!(entry.str_at(&["label"]), "g64");
        assert_eq!(
            entry.str_at(&["fingerprint"]),
            report.provenance.fingerprint
        );
        assert!(entry.f64_at(&["utilization"]) > 0.9);
        assert!(entry.u64_at(&["fifo_high_water"]) > 0);
        let blame = entry.get("blame").expect("v2 entries carry blame");
        assert!(blame.get("phases").is_some());
        assert!(blame.get("total").is_some());
        let critical = entry.get("critical").expect("v3 entries carry critical");
        assert!(critical.get("composition").is_some());
        assert!(critical.get("what_ifs").is_some());
        let p99 = entry.u64_at(&["latency", "end_to_end", "p99"]);
        assert!(p99 >= 1, "reads take at least one cycle, got {p99}");
    }

    #[test]
    fn first_fig7_point_matches_committed_seed_baseline() {
        // Re-simulate the first fig7 suite point exactly as `regress run`
        // does and require the resulting entry — fingerprint and every
        // metric — to be byte-identical to the committed baseline. This
        // pins the cycle kernel's behaviour to the seed: performance
        // rewrites must not change what is simulated.
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_seed.json");
        let text = std::fs::read_to_string(path).expect("committed baseline");
        let baseline = JsonValue::parse(&text).expect("valid JSON");
        let expected = baseline
            .at(&["suites", "fig7"])
            .and_then(JsonValue::as_array)
            .and_then(<[_]>::first)
            .expect("fig7 suite has entries");

        let workload = dm_workloads::synthetic_suite()[0];
        let cfg = SystemConfig::default().with_features(FeatureSet::ablation_step(1));
        let report = crate::measure(&cfg, workload, 0).unwrap();
        let entry = entry_json(&format!("{workload}|step1"), &report);
        assert_eq!(entry.to_json(), expected.to_json());
    }

    #[test]
    fn every_unique_submission_retires_exactly_once() {
        // Telemetry invariant behind the submissions/resubmissions split:
        // after a drained run, the unique-request counter must equal the
        // number of operations the banks actually performed.
        let report = measured(6);
        let counter = |path: &str| super::counter(&report, path);
        let submissions = counter("mem.submissions");
        assert!(submissions > 0);
        assert_eq!(submissions, counter("mem.reads") + counter("mem.writes"));
        // Retries are tracked separately and never leak into the unique
        // count; FIMA placement (step 5) is conflict-heavy enough that the
        // distinction is exercised, not vacuous.
        let conflicted = measured(5);
        let c = |path: &str| super::counter(&conflicted, path);
        assert!(c("mem.resubmissions") > 0, "step 5 must see retries");
        assert_eq!(c("mem.submissions"), c("mem.reads") + c("mem.writes"));
    }

    #[test]
    fn identical_runs_diff_clean_and_byte_identical() {
        let a = entry_json("g64", &measured(6));
        let b = entry_json("g64", &measured(6));
        assert_eq!(a.to_json(), b.to_json(), "suite entries are deterministic");
        let outcome = compare(doc_with(vec![a]), doc_with(vec![b]));
        assert!(outcome.passed(), "{:?}", outcome.failures);
        assert_eq!(outcome.compared, 1);
    }

    /// Replaces one top-level field of an entry object.
    fn with_field(entry: &JsonValue, key: &str, value: JsonValue) -> JsonValue {
        let JsonValue::Object(mut pairs) = entry.clone() else {
            panic!("entries are objects")
        };
        pairs.iter_mut().find(|(k, _)| k == key).unwrap().1 = value;
        JsonValue::Object(pairs)
    }

    #[test]
    fn degraded_config_fails_the_diff() {
        // FIMA placement (step 5) on GeMM-64 is the canonical conflict-heavy
        // degradation: utilization collapses. The fingerprints differ (it IS
        // a different config), which is itself a failure — and with the
        // fingerprint forged equal, the utilization gate fires.
        let good = entry_json("g64", &measured(6));
        let bad = entry_json("g64", &measured(5));
        let outcome = compare(doc_with(vec![good.clone()]), doc_with(vec![bad.clone()]));
        assert!(!outcome.passed());
        assert!(outcome.failures[0].contains("fingerprint"));

        let fp = good.get("fingerprint").unwrap().clone();
        let forged = with_field(&bad, "fingerprint", fp);
        let outcome = compare(doc_with(vec![good]), doc_with(vec![forged]));
        assert!(!outcome.passed());
        assert!(
            outcome.failures.iter().any(|f| f.contains("utilization")),
            "{:?}",
            outcome.failures
        );
    }

    #[test]
    fn latency_inflation_fails_the_diff() {
        // Same config, same utilization, but the tail latency blew up — the
        // p99 gate must catch it even when utilization stays flat.
        let good = entry_json("g64", &measured(6));
        let inflated = JsonValue::object(["queueing", "service", "end_to_end"].map(|c| {
            (
                c.to_owned(),
                JsonValue::object(["p50", "p90", "p99", "max"].map(|p| {
                    let old = good.at(&["latency", c, p]).and_then(JsonValue::as_u64);
                    let old = old.unwrap();
                    (p.to_owned(), JsonValue::from(old * 10 + 100))
                })),
            )
        }));
        let bad = with_field(&good, "latency", inflated);
        let outcome = compare(doc_with(vec![good]), doc_with(vec![bad]));
        assert!(!outcome.passed());
        assert!(
            outcome.failures.iter().any(|f| f.contains("p99")),
            "{:?}",
            outcome.failures
        );
    }

    #[test]
    fn label_drift_fails_both_directions() {
        let entry = entry_json("g64", &measured(6));
        let renamed = entry_json("other", &measured(6));
        let outcome = compare(doc_with(vec![entry]), doc_with(vec![renamed]));
        assert_eq!(outcome.failures.len(), 2, "{:?}", outcome.failures);
        assert!(outcome.failures[0].contains("missing from new document"));
        assert!(outcome.failures[1].contains("not present in baseline"));
    }

    fn guard_doc(util: f64, cps: f64) -> JsonValue {
        let entry = JsonValue::object([
            ("label".to_owned(), JsonValue::from("w")),
            ("utilization".to_owned(), JsonValue::from(util)),
        ]);
        let host_entry = SuiteHost {
            suite: "s".to_owned(),
            cycles: 1_000_000,
            wall_ns: (1e9 * 1_000_000.0 / cps) as u64,
        };
        JsonValue::object([
            ("schema".to_owned(), JsonValue::from(KIND.schema)),
            (
                "suites".to_owned(),
                JsonValue::object([("s".to_owned(), JsonValue::Array(vec![entry]))]),
            ),
            (
                "host".to_owned(),
                JsonValue::object([(
                    "suites".to_owned(),
                    JsonValue::Array(vec![host_entry.to_json()]),
                )]),
            ),
        ])
    }

    #[test]
    fn guard_accepts_identical_results_at_equal_speed() {
        let outcome = guarded(guard_doc(0.9, 4e6), guard_doc(0.9, 4e6));
        assert!(outcome.passed(), "{:?}", outcome.failures);
        assert_eq!(outcome.ratios, vec![("s".to_owned(), 1.0)]);
    }

    #[test]
    fn guard_rejects_simulated_drift() {
        // A fast-forward run that changes any simulated number is a
        // correctness bug regardless of how fast it is.
        let outcome = guarded(guard_doc(0.8, 8e6), guard_doc(0.9, 4e6));
        assert!(!outcome.passed());
        assert!(outcome.failures[0].contains("'suites' subtree differs"));
    }

    #[test]
    fn guard_rejects_a_slowdown_below_the_floor() {
        let outcome = guarded(guard_doc(0.9, 2e6), guard_doc(0.9, 4e6));
        assert!(!outcome.passed());
        assert!(
            outcome.failures.iter().any(|f| f.contains("floor")),
            "{:?}",
            outcome.failures
        );
        assert!((outcome.ratios[0].1 - 0.5).abs() < 0.05);
    }

    #[test]
    fn guard_requires_host_timing() {
        let mut no_host = guard_doc(0.9, 4e6);
        if let JsonValue::Object(fields) = &mut no_host {
            fields.retain(|(k, _)| k != "host");
        }
        let outcome = guarded(no_host, guard_doc(0.9, 4e6));
        assert!(!outcome.passed());
        assert!(outcome.failures[0].contains("host.suites"));
    }

    #[test]
    fn schema_mismatch_refuses_comparison() {
        let doc = doc_with(vec![]);
        let bogus = JsonValue::object([("schema".to_owned(), JsonValue::from("v0"))]);
        for allow_mismatch in [false, true] {
            let err = KIND.pair(bogus.clone(), doc.clone(), allow_mismatch);
            assert!(err.is_err_and(|e| e.contains("schema mismatch")));
        }
    }
}
