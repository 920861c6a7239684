//! Cross-crate integration tests: full evaluation-system runs with golden
//! verification across workload groups, feature sets and system
//! configurations.

use datamaestro_repro::compiler::FeatureSet;
use datamaestro_repro::mem::MemConfig;
use datamaestro_repro::system::{run_workload, SystemConfig, SystemError};
use datamaestro_repro::workloads::{ConvSpec, GemmSpec, Workload, WorkloadData};

fn workload_zoo() -> Vec<Workload> {
    vec![
        GemmSpec::new(8, 8, 8).into(),
        GemmSpec::new(16, 32, 8).into(),
        GemmSpec::new(40, 16, 24).into(),
        GemmSpec::transposed(16, 16, 32).into(),
        GemmSpec::transposed(24, 8, 8).into(),
        ConvSpec::new(10, 10, 8, 8, 3, 3, 1).into(),
        ConvSpec::new(10, 10, 16, 8, 3, 3, 1).into(),
        ConvSpec::new(8, 8, 8, 16, 1, 1, 1).into(),
        ConvSpec::new(18, 18, 8, 8, 3, 3, 2).into(),
        ConvSpec::new(16, 16, 8, 8, 1, 1, 2).into(),
        ConvSpec::new(12, 12, 8, 8, 5, 5, 1).into(),
        ConvSpec::new(22, 22, 8, 8, 7, 7, 1).into(),
    ]
}

#[test]
fn zoo_verifies_on_the_full_system() {
    let cfg = SystemConfig::default();
    for (i, workload) in workload_zoo().into_iter().enumerate() {
        let data = WorkloadData::generate(workload, 100 + i as u64);
        let report = run_workload(&cfg, &data).unwrap_or_else(|e| panic!("{workload}: {e}"));
        assert!(report.checked, "{workload}");
        assert!(report.utilization() > 0.3, "{workload}");
    }
}

#[test]
fn zoo_verifies_on_every_ablation_step() {
    for step in 1..=6 {
        let cfg = SystemConfig::default().with_features(FeatureSet::ablation_step(step));
        for (i, workload) in workload_zoo().into_iter().enumerate() {
            let data = WorkloadData::generate(workload, 200 + i as u64);
            let report = run_workload(&cfg, &data)
                .unwrap_or_else(|e| panic!("step {step}, {workload}: {e}"));
            assert!(report.checked, "step {step}, {workload}");
        }
    }
}

#[test]
fn zoo_verifies_without_quantization() {
    let cfg = SystemConfig {
        quantized: false,
        ..SystemConfig::default()
    };
    for (i, workload) in workload_zoo().into_iter().enumerate() {
        let data = WorkloadData::generate(workload, 300 + i as u64);
        let report = run_workload(&cfg, &data).unwrap_or_else(|e| panic!("{workload}: {e}"));
        assert!(report.checked, "{workload}");
    }
}

#[test]
fn zoo_verifies_on_smaller_memories() {
    // 16 banks and 8 banks still verify (placement adapts its group sizes).
    for banks in [16usize, 8] {
        let cfg = SystemConfig {
            mem: MemConfig::new(banks, 8, 65_536).expect("geometry"),
            ..SystemConfig::default()
        };
        for (i, workload) in workload_zoo().into_iter().enumerate() {
            let data = WorkloadData::generate(workload, 400 + i as u64);
            let report = run_workload(&cfg, &data)
                .unwrap_or_else(|e| panic!("{banks} banks, {workload}: {e}"));
            assert!(report.checked, "{banks} banks, {workload}");
        }
    }
}

#[test]
fn deeper_memory_latency_still_verifies_and_prefetch_hides_it() {
    // The ORM reserves a slot per in-flight request, so multi-cycle bank
    // latency must neither deadlock nor corrupt data; with fine-grained
    // prefetch the extra latency is hidden almost entirely.
    let data = WorkloadData::generate(GemmSpec::new(32, 32, 32).into(), 7);
    for latency in [1u64, 2, 4] {
        let cfg = SystemConfig {
            read_latency: latency,
            ..SystemConfig::default()
        };
        let report = run_workload(&cfg, &data).expect("runs");
        assert!(report.checked, "latency {latency}");
        assert!(
            report.utilization() > 0.9,
            "latency {latency}: {:.3}",
            report.utilization()
        );
    }
    // The coarse baseline cannot hide it: utilization degrades with latency.
    let coarse = SystemConfig {
        read_latency: 4,
        ..SystemConfig::default()
    }
    .with_features(datamaestro_repro::compiler::FeatureSet::ablation_step(1));
    let report = run_workload(&coarse, &data).expect("runs");
    assert!(report.checked);
    assert!(report.utilization() < 0.4, "{:.3}", report.utilization());
}

#[test]
fn determinism_same_seed_same_report() {
    let cfg = SystemConfig::default();
    let data = WorkloadData::generate(GemmSpec::new(24, 24, 24).into(), 5);
    let a = run_workload(&cfg, &data).expect("runs");
    let b = run_workload(&cfg, &data).expect("runs");
    assert_eq!(a.total_cycles(), b.total_cycles());
    assert_eq!(a.conflicts, b.conflicts);
    assert_eq!(a.mem_reads, b.mem_reads);
    assert_eq!(a.mem_writes, b.mem_writes);
    assert_eq!(a.ledger, b.ledger);
}

#[test]
fn golden_checker_detects_wrong_outputs() {
    // Negative test of the checker itself: a program whose A image is laid
    // out as Aᵀ while its streams read plain A computes a wrong product —
    // the byte comparison must fail with OutputMismatch, proving the pass
    // results are not vacuous.
    use datamaestro_repro::compiler::{compile, BufferDepths, ImageLayout};
    use datamaestro_repro::system::run_compiled;

    let cfg = SystemConfig::default();
    let data = WorkloadData::generate(GemmSpec::new(8, 8, 8).into(), 9);
    let other = WorkloadData::generate(GemmSpec::new(8, 8, 8).into(), 10);
    let compile = |data: &WorkloadData| {
        compile(
            data,
            &cfg.features,
            &cfg.mem,
            cfg.quantized,
            BufferDepths::default(),
        )
        .expect("compiles")
    };
    let program = compile(&data);
    // Programs hold no operand values: any seed of the workload verifies.
    assert_eq!(compile(&other), program);
    assert!(run_compiled(&cfg, &other, &program).expect("runs").checked);
    let mut wrong = program.clone();
    wrong.images[0].layout = ImageLayout::GemmATransposed { m: 8, k: 8 };
    assert!(matches!(
        run_compiled(&cfg, &data, &wrong),
        Err(SystemError::OutputMismatch { .. })
    ));
    // …while the matching layout verifies.
    assert!(run_compiled(&cfg, &data, &program).expect("runs").checked);
}

#[test]
fn deadlock_budget_is_generous_enough_for_pathological_contention() {
    // All operands forced into one bank group's worth of linear space by a
    // tiny memory: heavy conflicts, but it must still complete.
    let cfg = SystemConfig {
        mem: MemConfig::new(4, 8, 16_384).expect("geometry"),
        ..SystemConfig::default()
    };
    let data = WorkloadData::generate(GemmSpec::new(16, 16, 16).into(), 11);
    match run_workload(&cfg, &data) {
        Ok(report) => assert!(report.checked),
        Err(SystemError::Compile(_)) => { /* placement may refuse: fine */ }
        Err(e) => panic!("unexpected error: {e}"),
    }
}
