//! Cross-crate tests of the instrumentation layer: stall attribution,
//! metric snapshots, trace capture and the Perfetto/JSONL exporters.

use std::collections::BTreeMap;

use datamaestro_repro::compiler::FeatureSet;
use datamaestro_repro::sim::{perfetto, JsonValue, MetricsRegistry, TraceMode};
use datamaestro_repro::system::{run_workload, RunReport, SystemConfig};
use datamaestro_repro::workloads::{ConvSpec, GemmSpec, Workload, WorkloadData};

fn workload_zoo() -> Vec<Workload> {
    vec![
        GemmSpec::new(16, 16, 16).into(),
        GemmSpec::new(24, 8, 32).into(),
        GemmSpec::transposed(16, 16, 16).into(),
        ConvSpec::new(10, 10, 8, 8, 3, 3, 1).into(),
        ConvSpec::new(16, 16, 8, 8, 1, 1, 2).into(),
    ]
}

fn run(cfg: &SystemConfig, workload: Workload, seed: u64) -> RunReport {
    let data = WorkloadData::generate(workload, seed);
    run_workload(cfg, &data).unwrap_or_else(|e| panic!("{workload}: {e}"))
}

/// The acceptance invariant: fired cycles plus attributed stall cycles
/// account for every compute cycle, on every workload and feature step,
/// and the per-port split covers the same stalls as the cause taxonomy.
#[test]
fn attribution_covers_every_cycle_across_zoo_and_features() {
    for step in 1..=6 {
        let cfg = SystemConfig::default().with_features(FeatureSet::ablation_step(step));
        for (i, workload) in workload_zoo().into_iter().enumerate() {
            let report = run(&cfg, workload, 400 + i as u64);
            let at = report.ledger.attribution();
            assert_eq!(
                at.total_cycles(),
                report.compute_cycles,
                "step {step}, {workload}"
            );
            assert_eq!(at.fired(), report.active_cycles, "step {step}, {workload}");
            let per_port: u64 = report.ledger.port_stalls().iter().map(|&(_, n)| n).sum();
            assert_eq!(at.stalled(), per_port, "step {step}, {workload}");
        }
    }
}

#[test]
fn metrics_snapshot_round_trips_through_json() {
    let report = run(
        &SystemConfig::default(),
        GemmSpec::new(16, 24, 16).into(),
        7,
    );
    assert!(!report.metrics.is_empty());
    let text = report.metrics.to_json().to_json();
    JsonValue::parse(&text).expect("metrics JSON must parse");
    let restored = MetricsRegistry::from_json(&text).expect("metrics JSON must convert");
    // Kinds are recovered heuristically (integral number → counter), so an
    // integral-valued gauge may come back as a counter; keys and numeric
    // values round-trip exactly.
    assert_eq!(restored.len(), report.metrics.len());
    for ((key, value), (restored_key, restored_value)) in report.metrics.iter().zip(restored.iter())
    {
        assert_eq!(key, restored_key);
        assert_eq!(
            value.as_f64(),
            restored_value.as_f64(),
            "value mismatch for {key}"
        );
    }
}

#[test]
fn metrics_cover_all_component_scopes() {
    let report = run(
        &SystemConfig::default(),
        GemmSpec::new(16, 16, 16).into(),
        8,
    );
    for key in [
        "system.compute_cycles",
        "system.stall.fired",
        "mem.reads",
        "streamer.A.granted",
        "streamer.OUT.granted",
    ] {
        assert!(report.metrics.get(key).is_some(), "missing metric {key}");
    }
    let fired = report.metrics.get("system.stall.fired").unwrap().as_f64();
    assert!((fired - report.active_cycles as f64).abs() < 0.5);
}

/// The Perfetto export of a small traced GeMM run obeys the
/// `trace_event` schema: known phases only, per-track monotonic and
/// globally sorted timestamps, balanced B/E span nesting, and
/// non-decreasing cumulative blame counters.
#[test]
fn perfetto_export_is_valid_trace_event_schema() {
    let cfg = SystemConfig {
        trace: TraceMode::Full,
        ..SystemConfig::default()
    };
    let report = run(&cfg, GemmSpec::new(16, 16, 16).into(), 9);
    assert!(!report.traces.is_empty());
    let doc = perfetto::chrome_trace(&report.traces);
    let events = doc
        .get("traceEvents")
        .and_then(JsonValue::as_array)
        .expect("traceEvents array");
    assert!(!events.is_empty());
    let mut last_ts = 0.0f64;
    let mut open_spans: BTreeMap<u64, u64> = BTreeMap::new();
    let mut counters: BTreeMap<String, u64> = BTreeMap::new();
    for event in events {
        let ph = event
            .get("ph")
            .and_then(JsonValue::as_str)
            .expect("every event has a phase");
        assert!(
            ["M", "X", "B", "E", "C"].contains(&ph),
            "unexpected phase {ph}"
        );
        let ts = event
            .get("ts")
            .and_then(JsonValue::as_f64)
            .expect("every event has a timestamp");
        assert!(
            ts >= last_ts,
            "timestamps must be sorted ({ts} < {last_ts})"
        );
        last_ts = ts;
        let tid = event
            .get("tid")
            .and_then(JsonValue::as_u64)
            .expect("every event has a track");
        match ph {
            "B" => *open_spans.entry(tid).or_insert(0) += 1,
            "E" => {
                let open = open_spans.entry(tid).or_insert(0);
                assert!(*open > 0, "span end without begin on track {tid}");
                *open -= 1;
            }
            "X" => {
                let dur = event
                    .get("dur")
                    .and_then(JsonValue::as_u64)
                    .expect("complete events have a duration");
                assert!(dur >= 1);
            }
            "C" => {
                let name = event
                    .get("name")
                    .and_then(JsonValue::as_str)
                    .expect("counter events have a name");
                assert!(name.starts_with("blame: "), "unexpected counter {name}");
                let cycles = event
                    .get("args")
                    .and_then(|args| args.get("cycles"))
                    .and_then(JsonValue::as_u64)
                    .expect("blame counters carry a cycle count");
                let prev = counters.entry(name.to_string()).or_insert(0);
                assert!(
                    cycles >= *prev,
                    "cumulative counter {name} went backwards ({cycles} < {prev})"
                );
                *prev = cycles;
            }
            _ => {}
        }
    }
    assert!(
        !counters.is_empty(),
        "a stalling run must emit blame counters"
    );
    assert!(
        open_spans.values().all(|&open| open == 0),
        "every span must be closed"
    );
    // Round-trip: the serialized document is valid JSON.
    let text = perfetto::chrome_trace_json(&report.traces);
    JsonValue::parse(&text).expect("exported trace must parse");
}

/// Instrumentation is purely observational: tracing on/off and repeated
/// runs produce identical measurements, and metric snapshots are
/// deterministic.
#[test]
fn instrumentation_is_deterministic_and_nonperturbing() {
    let workload: Workload = ConvSpec::new(10, 10, 8, 8, 3, 3, 1).into();
    let plain = SystemConfig::default();
    let traced = SystemConfig {
        trace: TraceMode::Full,
        ..plain
    };
    let r1 = run(&traced, workload, 11);
    let r2 = run(&traced, workload, 11);
    assert_eq!(r1.metrics, r2.metrics);
    assert_eq!(r1.ledger, r2.ledger);
    let off = run(&plain, workload, 11);
    assert_eq!(off.compute_cycles, r1.compute_cycles);
    assert_eq!(off.ledger, r1.ledger);
    assert_eq!(off.metrics, r1.metrics);
    // The registry is built on its first read, and that read is a pure one:
    // a second read, a clone taken before or after it, and the report
    // after it moved to another thread all see one registry.
    let unread = run(&plain, workload, 11);
    let early = unread.clone();
    let first: MetricsRegistry = (*unread.metrics).clone();
    assert_eq!(*unread.metrics, first);
    let late = unread.clone();
    let moved = std::thread::spawn(move || unread).join().unwrap();
    for registry in [&*early.metrics, &*late.metrics, &*moved.metrics] {
        assert_eq!(*registry, first);
    }
    assert_eq!(first, *off.metrics);
    assert!(off.traces.is_empty());
    assert!(r1.traces.iter().any(|(_, t)| !t.is_empty()));
}

/// Ring-buffer capture bounds every track while leaving measurements
/// untouched, and records how much it dropped.
#[test]
fn ring_mode_bounds_trace_memory() {
    let workload: Workload = GemmSpec::new(64, 64, 64).into();
    let full = run(
        &SystemConfig {
            trace: TraceMode::Full,
            ..SystemConfig::default()
        },
        workload,
        12,
    );
    let ring = run(
        &SystemConfig {
            trace: TraceMode::Ring(32),
            ..SystemConfig::default()
        },
        workload,
        12,
    );
    assert_eq!(full.compute_cycles, ring.compute_cycles);
    assert_eq!(full.metrics, ring.metrics);
    let mut dropped_somewhere = false;
    for ((name, full_trace), (_, ring_trace)) in full.traces.iter().zip(&ring.traces) {
        assert!(ring_trace.len() <= 32, "{name} exceeds ring capacity");
        if full_trace.len() > 32 {
            dropped_somewhere = true;
            assert!(ring_trace.dropped() > 0, "{name} must report drops");
            // The ring keeps the newest events: its first retained event
            // must not precede the equally-truncated tail of the full
            // capture.
            let full_tail_start = full_trace.iter().nth(full_trace.len() - 32).unwrap();
            assert!(ring_trace.iter().next().unwrap().cycle >= full_tail_start.cycle);
        }
    }
    assert!(dropped_somewhere, "workload too small to exercise the ring");
}

/// The latency observatory's core invariant, system-wide on a
/// conflict-heavy run: every request's queueing plus service time equals
/// its end-to-end time, so the histogram sums agree exactly.
#[test]
fn latency_observatory_invariant_holds_system_wide() {
    // FIMA placement (step 5) keeps all streamers in one shared address
    // space: bank conflicts, retries, and real queueing delay.
    let cfg = SystemConfig::default().with_features(FeatureSet::ablation_step(5));
    let report = run(&cfg, GemmSpec::new(64, 64, 64).into(), 13);
    assert!(report.conflicts > 0, "expected a conflict-heavy run");
    let counter = |path: &str| {
        report
            .metrics
            .get(path)
            .unwrap_or_else(|| panic!("missing metric {path}"))
            .as_f64() as u64
    };
    let count = counter("mem.latency.end_to_end.count");
    assert_eq!(counter("mem.latency.queueing.count"), count);
    assert_eq!(counter("mem.latency.service.count"), count);
    assert_eq!(
        counter("mem.latency.queueing.sum") + counter("mem.latency.service.sum"),
        counter("mem.latency.end_to_end.sum"),
        "queueing + service must equal end-to-end, request by request"
    );
    // Percentiles are monotone and bounded by the exact extremes.
    for component in ["queueing", "service", "end_to_end"] {
        let p50 = counter(&format!("mem.latency.{component}.p50"));
        let p90 = counter(&format!("mem.latency.{component}.p90"));
        let p99 = counter(&format!("mem.latency.{component}.p99"));
        let max = counter(&format!("mem.latency.{component}.max"));
        assert!(p50 <= p90 && p90 <= p99 && p99 <= max, "{component}");
    }
    assert!(
        counter("mem.latency.queueing.max") >= 1,
        "conflicts imply at least one request queued for a cycle"
    );
}

/// Per-bank and per-requester latency scopes and per-channel FIFO
/// occupancy telemetry all surface in the run's metric snapshot.
#[test]
fn occupancy_and_scoped_latency_metrics_are_published() {
    let report = run(
        &SystemConfig::default(),
        GemmSpec::new(32, 32, 32).into(),
        14,
    );
    for key in [
        "mem.latency.end_to_end.p99",
        "mem.requester.A.ch0.latency.queueing.count",
        "streamer.A.fifo_occupancy.max",
        "streamer.A.ch0.fifo_occupancy.count",
        "streamer.OUT.fifo_occupancy.max",
    ] {
        assert!(report.metrics.get(key).is_some(), "missing metric {key}");
    }
    assert!(
        report
            .metrics
            .iter()
            .any(|(path, _)| path.starts_with("mem.bank") && path.contains(".latency.")),
        "at least one trafficked bank publishes a latency scope"
    );
    // Occupancy was sampled once per streamer-active cycle, so the A
    // streamer saw at least as many samples as compute cycles.
    let samples = report
        .metrics
        .get("streamer.A.fifo_occupancy.count")
        .unwrap()
        .as_f64() as u64;
    assert!(
        samples >= report.compute_cycles,
        "samples {samples} < compute cycles {}",
        report.compute_cycles
    );
}

/// Provenance stamps every report; host phase timings appear only when
/// requested and never perturb the simulated measurement.
#[test]
fn provenance_and_host_timings_ride_the_report() {
    let workload: Workload = GemmSpec::new(16, 16, 16).into();
    let plain = run(&SystemConfig::default(), workload, 15);
    assert!(plain.host.is_none());
    assert_eq!(plain.provenance.fingerprint.len(), 16);
    assert!(plain
        .provenance
        .fingerprint
        .chars()
        .all(|c| c.is_ascii_hexdigit()));
    assert_eq!(plain.provenance.workload, workload.to_string());

    let timed = run(
        &SystemConfig {
            time_phases: true,
            ..SystemConfig::default()
        },
        workload,
        15,
    );
    let host = timed.host.expect("time_phases captures host timings");
    assert_eq!(host.cycles, timed.compute_cycles);
    assert!(host.compute_loop_ns > 0);
    assert!(
        host.streamers_ns + host.memory_ns + host.pe_ns <= host.compute_loop_ns,
        "phase laps cannot exceed the whole loop"
    );
    // Same fingerprint (timing is a diagnostic) and identical measurement.
    assert_eq!(timed.provenance, plain.provenance);
    assert_eq!(timed.metrics, plain.metrics);
    assert_eq!(timed.compute_cycles, plain.compute_cycles);
}
