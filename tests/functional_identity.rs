//! The timing/data split, end to end.
//!
//! The cycle loop carries header tokens only; with `check_output` set, the
//! functional executor walks the compiled program in program order and
//! produces the output image the golden check reads. Every run below has
//! the check on, so it passes only if
//!
//! * lowering, AGUs, remapping, extensions and the datapath produce the
//!   golden image, and
//! * the loop popped and pushed, fire by fire, exactly the word addresses
//!   the executor read and wrote (the per-fire digest check inside
//!   `run_compiled`).
//!
//! The tier-1 slice covers every 5th Fig. 7 item × ablation steps ①–⑥ ×
//! read latency 1 and 16, unquantized output, private-bank (NIMA) slices,
//! pooling and a chained network. The full sweep is `#[ignore]`d:
//!
//! ```text
//! cargo test --release --test functional_identity -- --include-ignored
//! ```

use datamaestro_repro::compiler::{
    compile, compile_gemm_private_banks, BufferDepths, CompileError, FeatureSet,
};
use datamaestro_repro::mem::{
    BankLocation, MemConfig, MemOp, MemRequest, MemResponse, MemorySubsystem,
};
use datamaestro_repro::sim::SplitMix64;
use datamaestro_repro::system::{run_compiled, run_workload, SystemConfig, SystemError};
use datamaestro_repro::workloads::{
    synthetic_suite, table3_models, ConvSpec, GemmSpec, PoolSpec, Workload, WorkloadData,
};

/// Runs `workload` (seeded as the Fig. 7 harness seeds it) with the golden
/// check on and asserts the check ran and passed.
fn verify(cfg: &SystemConfig, workload: Workload, seed: u64) {
    let data = WorkloadData::generate(workload, seed);
    let report = run_workload(cfg, &data).unwrap_or_else(|e| {
        panic!(
            "{workload} ({}, latency {}): {e}",
            cfg.features.label(),
            cfg.read_latency
        )
    });
    assert!(report.checked, "{workload}");
}

/// Fig. 7 items (every `stride`-th) × steps ①–⑥ × `latencies`.
fn fig7_sweep(stride: usize, latencies: &[u64]) {
    for (seed, workload) in synthetic_suite().into_iter().enumerate() {
        if seed % stride != 0 {
            continue;
        }
        for step in 1..=6 {
            for &read_latency in latencies {
                let cfg = SystemConfig {
                    read_latency,
                    ..SystemConfig::default().with_features(FeatureSet::ablation_step(step))
                };
                verify(&cfg, workload, seed as u64);
            }
        }
    }
}

#[test]
fn fig7_every_5th_item_at_latency_1() {
    fig7_sweep(5, &[1]);
}

#[test]
fn fig7_every_5th_item_at_latency_16() {
    fig7_sweep(5, &[16]);
}

#[test]
fn unquantized_output_verifies() {
    let cfg = SystemConfig {
        quantized: false,
        ..SystemConfig::default()
    };
    for (seed, workload) in [
        GemmSpec::new(24, 16, 32).into(),
        GemmSpec::transposed(16, 16, 16).into(),
        ConvSpec::new(10, 10, 8, 8, 3, 3, 1).into(),
    ]
    .into_iter()
    .enumerate()
    {
        for step in [1, 6] {
            let cfg = cfg.with_features(FeatureSet::ablation_step(step));
            verify(&cfg, workload, seed as u64);
        }
    }
}

#[test]
fn private_bank_slices_verify() {
    for read_latency in [1, 16] {
        let cfg = SystemConfig {
            read_latency,
            ..SystemConfig::default()
        };
        let data = WorkloadData::generate(GemmSpec::new(32, 32, 32).into(), 30);
        let program =
            compile_gemm_private_banks(&data, &cfg.features, &cfg.mem, BufferDepths::default())
                .unwrap();
        assert!(!program.output_slices.is_empty());
        let report = run_compiled(&cfg, &data, &program).unwrap();
        assert!(report.checked, "latency {read_latency}");
    }
}

fn random_input(len: usize, rng: &mut SplitMix64) -> Vec<i8> {
    (0..len).map(|_| rng.between(-128, 127) as i8).collect()
}

/// A pooling workload over `input`.
fn pool_data(spec: PoolSpec, input: Vec<i8>) -> WorkloadData {
    let mut data = WorkloadData::generate(spec.into(), 0);
    data.a = input;
    data
}

/// The pooling system on `mem` with `features`.
fn pool_system(mem: MemConfig, features: FeatureSet) -> SystemConfig {
    SystemConfig {
        mem,
        features,
        ..SystemConfig::default()
    }
}

#[test]
fn pooling_verifies() {
    let mut rng = SplitMix64::new(17);
    let mem = MemConfig::new(32, 8, 4096).unwrap();
    for spec in [
        PoolSpec::new(16, 16, 16, 2, 2),
        PoolSpec::new(10, 10, 8, 3, 1),
    ] {
        let data = pool_data(spec, random_input(spec.h * spec.w * spec.c, &mut rng));
        for features in [FeatureSet::full(), FeatureSet::baseline()] {
            let report = run_workload(&pool_system(mem, features), &data).unwrap();
            assert!(report.checked);
        }
    }
}

/// A timing-only pooling run (`check_output` off) times exactly what the
/// checked run times.
#[test]
fn pooling_timing_does_not_depend_on_the_check() {
    let mut rng = SplitMix64::new(18);
    let spec = PoolSpec::new(17, 17, 16, 3, 2);
    let data = pool_data(spec, random_input(spec.h * spec.w * spec.c, &mut rng));
    let run = |check_output| {
        let cfg = SystemConfig {
            check_output,
            ..SystemConfig::default()
        };
        let report = run_workload(&cfg, &data).unwrap();
        assert_eq!(report.checked, check_output);
        (report.total_cycles(), report.accesses(), report.conflicts)
    };
    assert_eq!(run(false), run(true));
}

/// Pool satellites: a bank width that splits the 64-byte pooling tile is a
/// typed rejection, not a wrong image.
#[test]
fn pooling_rejects_bank_widths_that_split_the_tile() {
    let spec = PoolSpec::new(16, 16, 8, 2, 2);
    let data = pool_data(spec, vec![0; 16 * 16 * 8]);
    for mem in [
        MemConfig::new(32, 4, 4096).unwrap(),
        MemConfig::new(32, 2, 8192).unwrap(),
    ] {
        match run_workload(&pool_system(mem, FeatureSet::full()), &data) {
            Err(SystemError::Unsupported { field: "mem", .. }) => {}
            other => panic!("{}-byte banks: {other:?}", mem.bank_width_bytes()),
        }
    }
}

/// Pool satellites: the max unit has no int32 path, so an unquantized
/// pooling build is a typed compile error.
#[test]
fn pooling_rejects_int32_output() {
    let spec = PoolSpec::new(16, 16, 8, 2, 2);
    let data = pool_data(spec, vec![0; 16 * 16 * 8]);
    let cfg = SystemConfig::default();
    match compile(&data, &cfg.features, &cfg.mem, false, cfg.depths) {
        Err(CompileError::Unsupported { .. }) => {}
        other => panic!("expected an unsupported-output rejection, got {other:?}"),
    }
    let cfg = SystemConfig {
        quantized: false,
        ..cfg
    };
    assert!(matches!(
        run_workload(&cfg, &data),
        Err(SystemError::Compile(CompileError::Unsupported { .. }))
    ));
}

/// Pool satellites: an input of the wrong length is a typed compile error,
/// not a panic.
#[test]
fn pooling_rejects_a_short_input() {
    let spec = PoolSpec::new(16, 16, 8, 2, 2);
    let mem = MemConfig::new(32, 8, 4096).unwrap();
    let data = pool_data(spec, vec![0; 100]);
    let err = run_workload(&pool_system(mem, FeatureSet::full()), &data).unwrap_err();
    assert_eq!(
        err,
        SystemError::Compile(CompileError::InputLength {
            expected: 16 * 16 * 8,
            got: 100,
        })
    );
}

/// A chain of layers, each one's golden-checked output image feeding the
/// next layer's input.
#[test]
fn network_chain_verifies() {
    let cfg = SystemConfig::default();
    let mut rng = SplitMix64::new(99);
    let mut acts = random_input(18 * 18 * 8, &mut rng);
    for (spec, seed) in [
        (ConvSpec::new(18, 18, 8, 16, 3, 3, 1), 1),
        (ConvSpec::new(16, 16, 16, 8, 1, 1, 2), 2),
    ] {
        let mut data = WorkloadData::generate(spec.into(), seed);
        data.a = acts;
        let report = run_workload(&cfg, &data).unwrap();
        assert!(report.checked);
        acts = data.expected_e();
    }
    let report = run_workload(&cfg, &pool_data(PoolSpec::new(8, 8, 8, 2, 2), acts)).unwrap();
    assert!(report.checked);
}

/// A program whose output stream writes over its A operand reads and writes
/// the same words: the executor rejects it before timing it.
#[test]
fn overlapping_footprints_are_rejected() {
    let cfg = SystemConfig::default();
    let data = WorkloadData::generate(GemmSpec::new(16, 16, 16).into(), 3);
    let mut program = compile(&data, &cfg.features, &cfg.mem, true, cfg.depths).unwrap();
    program.out.runtime.base = program.readers[0].runtime.base;
    program.out.runtime.addressing_mode = program.readers[0].runtime.addressing_mode;
    match run_compiled(&cfg, &data, &program) {
        Err(SystemError::FootprintOverlap { phase, .. }) => assert_eq!(phase, "compute"),
        other => panic!("expected a footprint rejection, got {other:?}"),
    }
    // Timing alone is data-independent, so the same program still times.
    let timing_only = SystemConfig {
        check_output: false,
        ..cfg
    };
    assert!(run_compiled(&timing_only, &data, &program).is_ok());
}

/// The same rule holds per prepass: a copy plan that writes a word it reads
/// is rejected.
#[test]
fn overlapping_prepass_footprints_are_rejected() {
    let cfg = SystemConfig::default().with_features(FeatureSet::ablation_step(1));
    let data = WorkloadData::generate(GemmSpec::transposed(16, 16, 16).into(), 4);
    let mut program = compile(&data, &cfg.features, &cfg.mem, true, cfg.depths).unwrap();
    let plan = program
        .prepasses
        .first_mut()
        .expect("step 1 transposes explicitly");
    plan.write_mode = plan.read_mode;
    plan.write_base = plan.reads[0];
    let name = format!("prepass:{}", plan.name);
    match run_compiled(&cfg, &data, &program) {
        Err(SystemError::FootprintOverlap { phase, .. }) => assert_eq!(phase, name),
        other => panic!("expected a footprint rejection, got {other:?}"),
    }
}

/// The crossbar hands out headers: a response is exactly the requester and
/// the echoed tag.
#[test]
fn take_responses_is_header_only() {
    let mut mem = MemorySubsystem::new(MemConfig::new(4, 8, 16).unwrap());
    let r = mem.register_requester("r");
    let w = mem.register_requester("w");
    let loc = BankLocation { bank: 1, row: 3 };
    mem.submit(MemRequest {
        requester: r,
        loc,
        tag: 7,
        op: MemOp::Read,
    })
    .unwrap();
    mem.submit(MemRequest {
        requester: w,
        loc: BankLocation { bank: 2, row: 3 },
        tag: 0,
        op: MemOp::Write,
    })
    .unwrap();
    assert_eq!(mem.arbitrate(), &[true, true]);
    assert_eq!(
        mem.take_responses(),
        vec![MemResponse {
            requester: r,
            tag: 7
        }],
        "one read response, none for the write"
    );
    assert!(mem.take_responses().is_empty());
}

/// Every Fig. 7 item × steps ①–⑥ × read latency 1, 4 and 16.
#[test]
#[ignore = "full sweep; run with --include-ignored in release"]
fn fig7_full_sweep() {
    fig7_sweep(1, &[1, 4, 16]);
}

/// Every Table III layer on the fully featured system, seeded as the
/// `table3` binary seeds it.
#[test]
#[ignore = "full sweep; run with --include-ignored in release"]
fn table3_full_sweep() {
    let cfg = SystemConfig::default();
    for model in table3_models() {
        for (seed, layer) in model.layers.iter().enumerate() {
            verify(&cfg, layer.workload, seed as u64);
        }
    }
}
