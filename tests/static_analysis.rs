//! Differential validation of the static analyzer against the simulator.
//!
//! The `dm-analyze` conflict-freedom verdict is supposed to be *sound*:
//! whenever the analyzer proves a compiled workload conflict-free, the
//! cycle-level simulator must observe exactly zero bank conflicts, and the
//! analyzer's event-count bounds must bracket the observed count whenever
//! conflicts are predicted. These tests check both directions on real
//! configurations from the paper's evaluation suites.

use datamaestro_repro::analyze::{analyze_program, LintCode};
use datamaestro_repro::compiler::{compile, BufferDepths, FeatureSet};
use datamaestro_repro::sim::{OperandPort, StallCause};
use datamaestro_repro::system::{run_workload, RunReport, SystemConfig};
use datamaestro_repro::workloads::{
    synthetic_suite, table3_models, GemmSpec, Workload, WorkloadData,
};

/// Runs one workload under one feature set, returning the static analysis
/// and the full simulation report.
fn analyze_and_run(
    workload: Workload,
    features: FeatureSet,
    seed: u64,
) -> (datamaestro_repro::analyze::Analysis, RunReport) {
    let cfg = SystemConfig {
        check_output: false,
        ..SystemConfig::default()
    }
    .with_features(features);
    let data = WorkloadData::generate(workload, seed);
    let program = compile(&data, &features, &cfg.mem, cfg.quantized, cfg.depths)
        .unwrap_or_else(|e| panic!("{workload} does not compile: {e}"));
    let analysis = analyze_program(&program, &cfg.mem);
    let report = run_workload(&cfg, &data).unwrap_or_else(|e| panic!("{workload}: {e}"));
    (analysis, report)
}

/// Stall cycles the blame profiler charged to bank conflicts, all ports.
fn bank_conflict_blame(report: &RunReport) -> u64 {
    OperandPort::ALL
        .iter()
        .map(|&p| report.ledger.cause_total(StallCause::BankConflict(p)))
        .sum()
}

#[test]
fn conflict_free_verdict_is_sound_across_the_ablation() {
    // A slice of the Fig. 7 suite through all six ablation steps: whenever
    // the analyzer proves conflict-freedom, the simulator must agree.
    let suite = synthetic_suite();
    let sampled: Vec<Workload> = suite.iter().step_by(25).copied().collect();
    let mut proven = 0;
    let mut conflicting = 0;
    for (i, &workload) in sampled.iter().enumerate() {
        for step in 1..=6 {
            let features = FeatureSet::ablation_step(step);
            let (analysis, report) = analyze_and_run(workload, features, i as u64);
            let observed = report.conflicts;
            if analysis.conflict_free {
                proven += 1;
                assert_eq!(
                    observed, 0,
                    "{workload} step {step}: proven conflict-free but the \
                     simulator observed {observed} conflicts"
                );
                // The cross-layer theorem: a statically proven placement
                // must also leave the causal profiler with nothing to
                // charge to any bank under a conflict cause.
                assert_eq!(
                    bank_conflict_blame(&report),
                    0,
                    "{workload} step {step}: proven conflict-free but the \
                     blame profile charges bank-conflict cycles"
                );
            } else {
                conflicting += 1;
                // Predicted-conflict direction: the bounds must bracket the
                // observation.
                assert!(
                    analysis.guaranteed_min_conflicts <= observed,
                    "{workload} step {step}: guaranteed {} > observed {observed}",
                    analysis.guaranteed_min_conflicts
                );
                if let Some(max) = analysis.worst_case_max_conflicts {
                    assert!(
                        observed <= max,
                        "{workload} step {step}: observed {observed} > bound {max}"
                    );
                }
            }
        }
    }
    assert!(proven > 0, "sample proved nothing — sampling is broken");
    assert!(conflicting > 0, "sample never predicted conflicts");
}

#[test]
fn full_feature_placements_are_proven_free_and_observe_zero() {
    // The Fig. 7a ⑤→⑥ claim as a theorem: the full-feature (step 6) GIMA
    // placements of the Table III ResNet-18 layers and a GeMM mix are
    // either *proven* conflict-free — and then observe zero — or carry
    // only unavoidable-conflict notes that still pass `--deny-warnings`.
    let resnet = &table3_models()[0];
    assert_eq!(resnet.name, "ResNet-18");
    let mut workloads: Vec<Workload> = resnet.layers.iter().map(|l| l.workload).collect();
    workloads.push(GemmSpec::new(64, 64, 64).into());
    workloads.push(GemmSpec::transposed(32, 32, 32).into());
    for (i, workload) in workloads.into_iter().enumerate() {
        let (analysis, report) = analyze_and_run(workload, FeatureSet::full(), i as u64);
        let observed = report.conflicts;
        assert!(
            analysis.report.passes(true),
            "{workload}: committed config fails --deny-warnings: {:?}",
            analysis.report
        );
        if analysis.conflict_free {
            assert_eq!(
                observed, 0,
                "{workload}: proven free but observed {observed}"
            );
            assert_eq!(
                bank_conflict_blame(&report),
                0,
                "{workload}: proven free but bank-conflict blame is nonzero"
            );
        } else {
            assert!(
                analysis.guaranteed_min_conflicts <= observed,
                "{workload}: guaranteed {} > observed {observed}",
                analysis.guaranteed_min_conflicts
            );
        }
    }
}

#[test]
fn shared_fima_gemm_bounds_bracket_the_observation() {
    // The deliberately mismatched configuration of the addressing-mode
    // sweep: GeMM-64 at ablation step 5 places all four operands in one
    // shared FIMA space. The analyzer must refuse to prove freedom and its
    // bounds must bracket the (heavy) observed conflict count.
    let (analysis, report) = analyze_and_run(
        GemmSpec::new(64, 64, 64).into(),
        FeatureSet::ablation_step(5),
        1,
    );
    let observed = report.conflicts;
    assert!(!analysis.conflict_free);
    assert!(analysis.report.has_code(LintCode::BankConflict));
    assert!(observed > 0, "step-5 FIMA GeMM-64 is known conflict-heavy");
    assert!(
        bank_conflict_blame(&report) > 0,
        "a conflict-heavy run must charge bank-conflict blame"
    );
    assert!(analysis.guaranteed_min_conflicts <= observed);
    let max = analysis
        .worst_case_max_conflicts
        .expect("bounded nest must give a bound");
    assert!(observed <= max, "observed {observed} > worst case {max}");
}

#[test]
fn step_six_eliminates_the_conflicts_step_five_predicts() {
    // The lint-before-simulate story of EXPERIMENTS.md: on the same GeMM,
    // step 5 must draw conflict warnings with a mode-switch advisory,
    // step 6 must be proven free — predicting Fig. 7a's ⑤→⑥ jump without
    // running either simulation.
    let workload: Workload = GemmSpec::new(64, 64, 64).into();
    let mem = SystemConfig::default().mem;
    let data = WorkloadData::generate(workload, 1);
    let five = compile(
        &data,
        &FeatureSet::ablation_step(5),
        &mem,
        true,
        BufferDepths::default(),
    )
    .unwrap();
    let six = compile(
        &data,
        &FeatureSet::ablation_step(6),
        &mem,
        true,
        BufferDepths::default(),
    )
    .unwrap();
    let five = analyze_program(&five, &mem);
    let six = analyze_program(&six, &mem);
    assert!(!five.conflict_free);
    assert!(five.report.has_code(LintCode::BankConflict));
    assert!(six.conflict_free, "{:?}", six.report);
    assert!(six.report.passes(true), "{:?}", six.report);
}
