//! # The DataMaestro evaluation system
//!
//! This crate wires everything together into the system of Fig. 6 of the
//! paper: a multi-banked scratchpad ([`dm_mem`]), five DataMaestro
//! streamers ([`datamaestro`]), the Tensor-Core-like GeMM accelerator and
//! quantization accelerator ([`dm_accel`]), plus a DMA-style
//! [`CopyEngine`] for the explicit pre-passes that stand in for missing
//! on-the-fly features during the ablation study. The same streamers also
//! build a max-pooling system — one operand reader and one writer around
//! an elementwise-max unit — the paper's reusable-design claim, executed.
//!
//! The main entry point is [`run_workload`]: compile a [`WorkloadData`]
//! onto the configured system, time it cycle by cycle, verify the output
//! against the golden reference and return a [`RunReport`] with the
//! utilization, stall and memory-access statistics the paper's figures are
//! built from. GeMM, convolution and pooling share that one program type
//! ([`dm_compiler::CompiledWorkload`]), one run and one report. The cycle
//! loop carries header tokens only; with [`SystemConfig::check_output`]
//! set, a functional executor walks the program in program order to
//! produce the output image the golden check reads.
//!
//! # Examples
//!
//! ```
//! use dm_system::{run_workload, SystemConfig};
//! use dm_workloads::{GemmSpec, WorkloadData};
//!
//! // A 32×32×32 GeMM on the fully featured system.
//! let data = WorkloadData::generate(GemmSpec::new(32, 32, 32).into(), 0);
//! let report = run_workload(&SystemConfig::default(), &data)?;
//! // The full feature set sustains near-perfect utilization on GeMM.
//! assert!(report.utilization() > 0.9);
//! assert_eq!(report.ideal_cycles, 64);
//! # Ok::<(), dm_system::SystemError>(())
//! ```
//!
//! [`WorkloadData`]: dm_workloads::WorkloadData

mod compute;
pub mod copy_engine;
pub mod error;
mod executor;
pub mod provenance;
pub mod system;

pub use copy_engine::{CopyEngine, CopyStats};
pub use error::SystemError;
pub use provenance::Provenance;
pub use system::{run_compiled, run_workload, HostTimings, RunMetrics, RunReport, SystemConfig};

#[cfg(test)]
mod tests {
    use super::*;
    use dm_compiler::FeatureSet;
    use dm_workloads::{ConvSpec, GemmSpec, WorkloadData};

    fn small_system() -> SystemConfig {
        SystemConfig::default()
    }

    #[test]
    fn gemm_runs_and_verifies() {
        let data = WorkloadData::generate(GemmSpec::new(16, 16, 16).into(), 1);
        let report = run_workload(&small_system(), &data).unwrap();
        assert!(report.checked);
        assert_eq!(report.active_cycles, 8);
        assert_eq!(report.prepass_cycles, 0);
    }

    /// A pre-pass read that no write depends on must land inside the
    /// pass: a response still in flight when compute starts would reach
    /// the compute loop, which routes responses to the operand readers
    /// only.
    #[test]
    fn prepass_reads_no_write_needs_land_before_compute() {
        use dm_compiler::{CopyPlan, WriteSource};
        use dm_mem::AddressingMode;
        let cfg = SystemConfig {
            read_latency: 16,
            check_output: false,
            ..small_system()
        };
        let data = WorkloadData::generate(GemmSpec::new(16, 16, 16).into(), 1);
        let mut program =
            dm_compiler::compile(&data, &cfg.features, &cfg.mem, cfg.quantized, cfg.depths)
                .unwrap();
        // Eight reads 256 B apart all hit one bank, so the last one is
        // granted late and is still in flight when the one write (fed by
        // read 0) retires.
        let base = 12 << 20;
        program.prepasses.push(CopyPlan {
            name: "stray-reads".into(),
            read_mode: AddressingMode::FullyInterleaved,
            write_mode: AddressingMode::FullyInterleaved,
            reads: (0..8).map(|i| base + 256 * i).collect(),
            write_base: base + 8,
            writes: vec![WriteSource::Word(0)],
            gathers: Vec::new(),
        });
        let report = run_compiled(&cfg, &data, &program).unwrap();
        // The eighth grant comes at cycle 7 and lands 16 cycles later.
        assert!(report.prepass_cycles >= 7 + 16, "{}", report.prepass_cycles);
    }

    #[test]
    fn transposed_gemm_runs_and_verifies() {
        let data = WorkloadData::generate(GemmSpec::transposed(16, 24, 16).into(), 2);
        let report = run_workload(&small_system(), &data).unwrap();
        assert!(report.checked);
    }

    #[test]
    fn conv_runs_and_verifies() {
        let data = WorkloadData::generate(ConvSpec::new(10, 10, 8, 16, 3, 3, 1).into(), 3);
        let report = run_workload(&small_system(), &data).unwrap();
        assert!(report.checked);
        assert_eq!(report.ideal_cycles, 8 * 2 * 9);
    }

    #[test]
    fn strided_conv_runs_and_verifies() {
        let data = WorkloadData::generate(ConvSpec::new(17, 17, 8, 8, 3, 3, 2).into(), 4);
        let report = run_workload(&small_system(), &data).unwrap();
        assert!(report.checked);
    }

    #[test]
    fn unquantized_output_is_int32() {
        let cfg = SystemConfig {
            quantized: false,
            ..small_system()
        };
        let data = WorkloadData::generate(GemmSpec::new(16, 16, 8).into(), 5);
        let report = run_workload(&cfg, &data).unwrap();
        assert!(report.checked);
    }

    #[test]
    fn every_ablation_step_verifies_on_all_groups() {
        // Functional correctness must hold regardless of the feature set —
        // features change *when*, never *what*.
        let workloads: Vec<WorkloadData> = vec![
            WorkloadData::generate(GemmSpec::new(16, 16, 16).into(), 10),
            WorkloadData::generate(GemmSpec::transposed(16, 16, 16).into(), 11),
            WorkloadData::generate(ConvSpec::new(10, 10, 8, 8, 3, 3, 1).into(), 12),
        ];
        for step in 1..=6 {
            let cfg = small_system().with_features(FeatureSet::ablation_step(step));
            for data in &workloads {
                let report = run_workload(&cfg, data)
                    .unwrap_or_else(|e| panic!("step {step}, {}: {e}", data.workload));
                assert!(report.checked, "step {step}");
            }
        }
    }

    #[test]
    fn features_improve_utilization_monotonically_enough() {
        let data = WorkloadData::generate(GemmSpec::new(64, 64, 64).into(), 20);
        let baseline = run_workload(
            &small_system().with_features(FeatureSet::ablation_step(1)),
            &data,
        )
        .unwrap();
        let prefetch = run_workload(
            &small_system().with_features(FeatureSet::ablation_step(2)),
            &data,
        )
        .unwrap();
        let full = run_workload(&small_system(), &data).unwrap();
        assert!(
            prefetch.utilization() > baseline.utilization() * 1.4,
            "prefetch {:.3} vs baseline {:.3}",
            prefetch.utilization(),
            baseline.utilization()
        );
        assert!(
            full.utilization() > 0.95,
            "full system reached only {:.3}",
            full.utilization()
        );
    }

    #[test]
    fn prepasses_cost_cycles_and_accesses() {
        let data = WorkloadData::generate(GemmSpec::transposed(32, 32, 32).into(), 21);
        let with_ext = run_workload(&small_system(), &data).unwrap();
        let without_ext = run_workload(
            &small_system().with_features(FeatureSet {
                transposer: false,
                ..FeatureSet::full()
            }),
            &data,
        )
        .unwrap();
        assert_eq!(with_ext.prepass_cycles, 0);
        assert!(without_ext.prepass_cycles > 0);
        assert!(without_ext.accesses() > with_ext.accesses());
        assert!(without_ext.utilization() < with_ext.utilization());
    }

    #[test]
    fn private_bank_nima_placement_runs_conflict_free() {
        use dm_compiler::compile_gemm_private_banks;
        use dm_compiler::BufferDepths;

        let cfg = small_system();
        let data = WorkloadData::generate(GemmSpec::new(32, 32, 32).into(), 30);
        let program =
            compile_gemm_private_banks(&data, &cfg.features, &cfg.mem, BufferDepths::default())
                .unwrap();
        let report = run_compiled(&cfg, &data, &program).unwrap();
        assert!(report.checked, "sliced output verified");
        assert_eq!(report.conflicts, 0, "private banks never conflict");
        assert!(report.utilization() > 0.95, "{:.3}", report.utilization());
    }

    #[test]
    fn report_accounting_is_consistent() {
        let data = WorkloadData::generate(GemmSpec::new(24, 16, 24).into(), 22);
        let report = run_workload(&small_system(), &data).unwrap();
        assert_eq!(
            report.compute_cycles,
            report.active_cycles + report.ledger.stalled()
        );
        assert_eq!(
            report.total_cycles(),
            report.prepass_cycles + report.compute_cycles
        );
        assert!(report.utilization() <= 1.0 + 1e-9);
        assert!(report.accesses() > 0);
    }

    fn rejected_field(cfg: &SystemConfig) -> &'static str {
        let data = WorkloadData::generate(GemmSpec::new(16, 16, 16).into(), 1);
        match run_workload(cfg, &data) {
            Err(SystemError::Unsupported { field, .. }) => field,
            other => panic!("expected a typed rejection, got {other:?}"),
        }
    }

    #[test]
    fn banks_narrower_than_the_tile_geometry_are_rejected_not_panicked() {
        let cfg = SystemConfig {
            mem: dm_mem::MemConfig::new(32, 4, 4096).unwrap(),
            ..small_system()
        };
        assert_eq!(rejected_field(&cfg), "mem");
    }

    #[test]
    fn zero_read_latency_is_rejected_not_clamped() {
        let cfg = SystemConfig {
            read_latency: 0,
            ..small_system()
        };
        assert_eq!(rejected_field(&cfg), "read_latency");
    }
}

/// Max pooling on the streamer-built pooling system, through the same
/// [`run_workload`] as GeMM and convolution.
#[cfg(test)]
mod pool {
    mod tests {
        use crate::{run_workload, RunReport, SystemConfig};
        use dm_compiler::FeatureSet;
        use dm_mem::MemConfig;
        use dm_sim::SplitMix64;
        use dm_workloads::{PoolSpec, WorkloadData};

        fn random_input(len: usize, seed: u64) -> Vec<i8> {
            let mut rng = SplitMix64::new(seed);
            (0..len)
                .map(|_| rng.between(i8::MIN.into(), i8::MAX.into()) as i8)
                .collect()
        }

        fn mem() -> MemConfig {
            MemConfig::new(32, 8, 4096).unwrap()
        }

        /// Pools a random input of `spec`'s shape, drawn from `seed`, on
        /// the pooling system with `features`.
        fn run(features: FeatureSet, spec: PoolSpec, seed: u64) -> RunReport {
            let config = SystemConfig {
                mem: mem(),
                features,
                ..SystemConfig::default()
            };
            let mut data = WorkloadData::generate(spec.into(), seed);
            data.a = random_input(spec.h * spec.w * spec.c, seed);
            run_workload(&config, &data).unwrap()
        }

        #[test]
        fn pool_2x2_stride2_verifies() {
            let r = run(FeatureSet::full(), PoolSpec::new(16, 16, 16, 2, 2), 1);
            assert!(r.checked);
            assert!(r.utilization() > 0.9, "{:.3}", r.utilization());
        }

        #[test]
        fn pool_3x3_stride1_verifies() {
            let r = run(FeatureSet::full(), PoolSpec::new(10, 10, 8, 3, 1), 2);
            assert!(r.checked);
        }

        #[test]
        fn pool_without_mode_switching_still_verifies() {
            let r = run(FeatureSet::baseline(), PoolSpec::new(16, 16, 8, 2, 2), 3);
            assert!(r.checked);
        }

        #[test]
        fn pool_counts_window_reads() {
            // Non-overlapping 2×2 pooling reads each input word exactly once.
            let r = run(FeatureSet::full(), PoolSpec::new(16, 16, 8, 2, 2), 4);
            let input_words = (16 * 16 * 8 / 8) as u64;
            let output_words = (8 * 8 * 8 / 8) as u64;
            assert_eq!(r.accesses(), input_words + output_words);
        }
    }
}
