//! # The DataMaestro evaluation system
//!
//! This crate wires everything together into the system of Fig. 6 of the
//! paper: a multi-banked scratchpad ([`dm_mem`]), five DataMaestro
//! streamers ([`datamaestro`]), the Tensor-Core-like GeMM accelerator and
//! quantization accelerator ([`dm_accel`]), plus a DMA-style
//! [`CopyEngine`] for the explicit pre-passes that stand in for missing
//! on-the-fly features during the ablation study.
//!
//! The main entry point is [`run_workload`]: compile a [`WorkloadData`]
//! onto the configured system, execute it cycle by cycle, verify the output
//! against the golden reference and return a [`RunReport`] with the
//! utilization, stall and memory-access statistics the paper's figures are
//! built from.
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

pub mod copy_engine;
pub mod error;
pub mod pool;
pub mod provenance;
pub mod system;

pub use copy_engine::{CopyEngine, CopyStats};
pub use error::SystemError;
pub use pool::{run_pool, PoolReport};
pub use provenance::Provenance;
pub use system::{run_compiled, run_workload, HostTimings, RunReport, SystemConfig};

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
    fn non_paper_arrays_are_rejected_not_panicked() {
        for (m, n, k) in [(4, 8, 8), (16, 16, 16), (0, 8, 8)] {
            let cfg = SystemConfig {
                array: dm_accel::GemmArrayConfig {
                    m_unroll: m,
                    n_unroll: n,
                    k_unroll: k,
                },
                ..small_system()
            };
            assert_eq!(rejected_field(&cfg), "array", "{m}x{n}x{k}");
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
