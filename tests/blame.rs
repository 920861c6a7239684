//! Cross-crate tests of the causal ledger and its blame view: conservation
//! against the run's own cycle counters across workload groups, ablation
//! steps and read latencies; phase segmentation consistency; byte-identical
//! ledgers with fast-forward on and off; and bank-conflict blame naming
//! banks.

use datamaestro_repro::compiler::FeatureSet;
use datamaestro_repro::sim::{BlamePhase, OperandPort, StallCause};
use datamaestro_repro::system::{run_workload, RunReport, SystemConfig};
use datamaestro_repro::workloads::{ConvSpec, GemmSpec, Workload, WorkloadData};

/// One workload per group: plain GeMM, transposed GeMM, convolution.
fn workload_zoo() -> Vec<Workload> {
    vec![
        GemmSpec::new(24, 16, 32).into(),
        GemmSpec::transposed(16, 16, 16).into(),
        ConvSpec::new(10, 10, 8, 8, 3, 3, 1).into(),
    ]
}

fn run(cfg: &SystemConfig, workload: Workload, seed: u64) -> RunReport {
    let data = WorkloadData::generate(workload, seed);
    run_workload(cfg, &data).unwrap_or_else(|e| panic!("{workload}: {e}"))
}

/// The acceptance invariant, exhaustively: for every workload group ×
/// ablation step × read latency, the ledger counts exactly the fires and
/// charges exactly the stalled compute cycles, its per-cause and per-port
/// views cover the same stalls, and fast-forward on and off produce
/// byte-identical ledgers.
#[test]
fn blame_conserves_across_zoo_steps_and_latencies() {
    for step in 1..=6 {
        for latency in [1u64, 4, 16] {
            for (i, workload) in workload_zoo().into_iter().enumerate() {
                let config = |fast_forward| SystemConfig {
                    read_latency: latency,
                    fast_forward,
                    ..SystemConfig::default().with_features(FeatureSet::ablation_step(step))
                };
                let seed = 500 + i as u64;
                let ff = run(&config(true), workload, seed);
                let ls = run(&config(false), workload, seed);
                let label = format!("step {step}, latency {latency}, {workload}");
                for report in [&ff, &ls] {
                    let ledger = &report.ledger;
                    assert_eq!(ledger.fired(), report.active_cycles, "{label}: fires");
                    assert_eq!(
                        ledger.stalled(),
                        report.compute_cycles - report.active_cycles,
                        "{label}: stalls"
                    );
                    let per_port: u64 = ledger.port_stalls().iter().map(|&(_, n)| n).sum();
                    assert_eq!(per_port, ledger.stalled(), "{label}: per-port view");
                    assert_eq!(
                        ledger.attribution().stalled(),
                        ledger.stalled(),
                        "{label}: per-cause view"
                    );
                }
                assert_eq!(ff.ledger, ls.ledger, "{label}: ledgers");
                assert_eq!(
                    ff.ledger.to_json().to_json(),
                    ls.ledger.to_json().to_json(),
                    "{label}: ledger JSON bytes"
                );
            }
        }
    }
}

/// Phase segmentation is internally consistent: fill carries no fires (it
/// ends at the first fire, which is steady by definition), drain carries no
/// fires, phase cycle counts sum to the compute cycles, and the fire
/// bounds sit inside the run.
#[test]
fn phase_segmentation_is_consistent() {
    for step in [1, 5, 6] {
        let cfg = SystemConfig::default().with_features(FeatureSet::ablation_step(step));
        let report = run(&cfg, GemmSpec::new(32, 32, 32).into(), 600);
        let blame = &report.ledger;
        assert_eq!(
            blame.fired_in(BlamePhase::Fill),
            0,
            "step {step}: fill fires"
        );
        assert_eq!(
            blame.fired_in(BlamePhase::Drain),
            0,
            "step {step}: drain fires"
        );
        assert_eq!(
            blame.fired_in(BlamePhase::Steady),
            report.active_cycles,
            "step {step}: steady fires"
        );
        let phase_cycles: u64 = BlamePhase::ALL
            .iter()
            .map(|&p| blame.fired_in(p) + blame.stalled_in(p))
            .sum();
        assert_eq!(
            phase_cycles, report.compute_cycles,
            "step {step}: phases partition the compute window"
        );
        let first = blame.first_fire().expect("the PE fired");
        let last = blame.last_fire().expect("the PE fired");
        assert!(first <= last, "step {step}: fire bounds ordered");
        // Fill stalled at least one cycle (operands take >= 1 cycle to
        // arrive) and everything the fill phase charged is a stall.
        assert!(
            blame.stalled_in(BlamePhase::Fill) >= 1,
            "step {step}: fill is nonempty"
        );
    }
}

/// FIMA placement (step 5) is the conflict-heavy configuration: its blame
/// profile must put bank-conflict cycles on *named banks*, and bank-aware
/// remapping (step 6) must eliminate them — the Fig. 7a story at the
/// component level.
#[test]
fn bank_conflict_blame_names_banks_and_collapses_at_step_6() {
    let workload: Workload = GemmSpec::new(64, 64, 64).into();
    let fima = run(
        &SystemConfig::default().with_features(FeatureSet::ablation_step(5)),
        workload,
        601,
    );
    let conflict_blame: u64 = OperandPort::ALL
        .iter()
        .map(|&p| fima.ledger.cause_total(StallCause::BankConflict(p)))
        .sum();
    assert!(conflict_blame > 0, "step 5 must see bank-conflict stalls");
    // Every bank-conflict cycle is charged to a concrete bank instance.
    let named: u64 = fima
        .ledger
        .leaves()
        .iter()
        .filter(|(cause, leaf, _)| {
            matches!(cause, StallCause::BankConflict(_))
                && matches!(leaf, datamaestro_repro::sim::BlameLeaf::Bank(_))
        })
        .map(|&(_, _, n)| n)
        .sum();
    assert_eq!(
        named, conflict_blame,
        "bank-conflict blame must name bank instances"
    );

    let remapped = run(
        &SystemConfig::default().with_features(FeatureSet::ablation_step(6)),
        workload,
        601,
    );
    let after: u64 = OperandPort::ALL
        .iter()
        .map(|&p| remapped.ledger.cause_total(StallCause::BankConflict(p)))
        .sum();
    assert!(
        after < conflict_blame / 10,
        "bank-aware remapping must collapse bank-conflict blame \
         ({conflict_blame} -> {after})"
    );
}

/// Blame rides the RunReport JSON surface consumed by the harnesses: the
/// regress entry carries the subtree and its totals agree with the report's
/// cycle counters.
#[test]
fn blame_json_totals_agree_with_report() {
    let report = run(
        &SystemConfig::default().with_features(FeatureSet::ablation_step(5)),
        GemmSpec::new(32, 32, 32).into(),
        602,
    );
    let json = report.ledger.to_json();
    let stalled_cycles = report.compute_cycles - report.active_cycles;
    let stalled: u64 = BlamePhase::ALL
        .iter()
        .map(|&p| {
            json.get("phases")
                .and_then(|phases| phases.get(p.label()))
                .and_then(|phase| phase.get("stalled"))
                .and_then(datamaestro_repro::sim::JsonValue::as_u64)
                .unwrap_or(0)
        })
        .sum();
    assert_eq!(stalled, stalled_cycles);
    let total = json.get("total").expect("total subtree");
    let mut total_cycles = 0u64;
    if let datamaestro_repro::sim::JsonValue::Object(causes) = total {
        for (_, leaves) in causes {
            if let datamaestro_repro::sim::JsonValue::Object(leaves) = leaves {
                for (_, n) in leaves {
                    total_cycles += n.as_u64().unwrap_or(0);
                }
            }
        }
    }
    assert_eq!(total_cycles, stalled_cycles);
}
