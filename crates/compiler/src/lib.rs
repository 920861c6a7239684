//! The DataMaestro workload compiler (the "customized compiler" of §IV-A).
//!
//! Given a workload, the built system's [`FeatureSet`] and the memory
//! geometry, [`compile`] produces a [`CompiledWorkload`]: design-time and
//! runtime configurations for the operand readers (A/B/C for GeMM and
//! convolution, A alone for max pooling) and the output DataMaestro, operand
//! placement (disjoint bank groups under addressing-mode switching),
//! pre-pass plans for features the system lacks (explicit transpose,
//! explicit im2col), and the golden output image for verification.
//!
//! A program describes shapes, not values. Its operand images are layout
//! recipes that a functional run packs from the [`WorkloadData`]
//! ([`ImageLayout::pack`]); compiling reads only the workload, the
//! operand lengths and the rescale parameter.
//!
//! # Examples
//!
//! ```
//! use dm_compiler::{compile, BufferDepths, FeatureSet};
//! use dm_mem::MemConfig;
//! use dm_workloads::{GemmSpec, WorkloadData};
//!
//! let mem = MemConfig::new(32, 8, 4096)?;
//! let data = WorkloadData::generate(GemmSpec::new(16, 16, 16).into(), 7);
//! let program = compile(
//!     &data,
//!     &FeatureSet::full(),
//!     &mem,
//!     true,
//!     BufferDepths::default(),
//! )?;
//! assert_eq!(program.k_steps, 2);
//! assert_eq!(program.total_output_tiles, 4);
//! assert!(program.prepasses.is_empty(), "full feature set needs no pre-pass");
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

pub mod designs;
pub mod error;
pub mod features;
pub mod lower;
pub mod nima;
pub mod placement;
pub mod pool;
pub mod program;

use dm_mem::MemConfig;
use dm_workloads::{Workload, WorkloadData};

pub use designs::{
    design_a, design_b, design_c, design_d, design_e, pixel_spatial_strides, BufferDepths,
};
pub use error::CompileError;
pub use features::FeatureSet;
pub use nima::compile_gemm_private_banks;
pub use placement::{BankWindow, Region};
pub use program::{CompiledWorkload, CopyPlan, ImageLayout, OperandImage, StreamPlan, WriteSource};

/// Lowers a workload onto the evaluation system.
///
/// `quantized` selects the output path: `true` routes the GeMM result
/// through the quantization accelerator onto the E stream (int8), `false`
/// writes raw int32 accumulators through the D stream. Max pooling runs on
/// the pooling system, whose max unit yields int8 tiles only.
///
/// # Errors
///
/// Returns [`CompileError`] when an operand does not hold the values its
/// shape needs ([`CompileError::InputLength`]) or does not fit its
/// bank-group region, the workload shape cannot be mapped onto the array,
/// or a pooling workload asks for int32 output.
pub fn compile(
    data: &WorkloadData,
    features: &FeatureSet,
    mem: &MemConfig,
    quantized: bool,
    depths: BufferDepths,
) -> Result<CompiledWorkload, CompileError> {
    check_operands(data.workload, data)?;
    match data.workload {
        Workload::Gemm(g) => lower::compile_gemm(g, data, features, mem, quantized, depths),
        Workload::Conv(c) => lower::compile_conv(c, data, features, mem, quantized, depths),
        Workload::Pool(p) => pool::compile_pool(p, features, mem, quantized, depths),
    }
}

/// Checks that `data`'s A, B and bias operands hold the values
/// `workload`'s shape needs, so that every [`OperandImage`] of a program
/// compiled for `workload` packs from `data`.
///
/// # Errors
///
/// [`CompileError::InputLength`] for the first operand that does not.
pub fn check_operands(workload: Workload, data: &WorkloadData) -> Result<(), CompileError> {
    let (a, b, bias) = match workload {
        Workload::Gemm(g) => (g.m * g.k, g.k * g.n, g.n),
        Workload::Conv(c) => (c.h * c.w * c.c_in, c.c_out * c.kh * c.kw * c.c_in, c.c_out),
        Workload::Pool(p) => (p.h * p.w * p.c, 0, 0),
    };
    for (expected, got) in [
        (a, data.a.len()),
        (b, data.b.len()),
        (bias, data.bias.len()),
    ] {
        if got != expected {
            return Err(CompileError::InputLength { expected, got });
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use dm_mem::{AddressRemapper, AddressingMode};
    use dm_workloads::{ConvSpec, GemmSpec};

    fn mem() -> MemConfig {
        MemConfig::new(32, 8, 4096).unwrap()
    }

    fn gemm_data(m: usize, n: usize, k: usize) -> WorkloadData {
        WorkloadData::generate(GemmSpec::new(m, n, k).into(), 11)
    }

    #[test]
    fn full_feature_gemm_compiles_clean() {
        let p = compile(
            &gemm_data(32, 16, 24),
            &FeatureSet::full(),
            &mem(),
            true,
            BufferDepths::default(),
        )
        .unwrap();
        assert!(p.prepasses.is_empty());
        assert_eq!(p.k_steps, 3);
        assert_eq!(p.total_output_tiles, 4 * 2);
        assert_eq!(p.total_steps(), 24);
        assert_eq!(p.images.len(), 3);
        // Runtime configurations are consistent with their designs.
        for (_, plan) in p.ports() {
            plan.runtime.validate(&plan.design).unwrap();
        }
    }

    #[test]
    fn mode_switching_places_operands_in_disjoint_banks() {
        let mem = mem();
        let p = compile(
            &gemm_data(16, 16, 16),
            &FeatureSet::full(),
            &mem,
            true,
            BufferDepths::default(),
        )
        .unwrap();
        // Collect the physical banks each operand's image touches.
        let mut bank_sets: Vec<std::collections::HashSet<usize>> = Vec::new();
        for img in &p.images {
            let remap = AddressRemapper::new(&mem, img.region.mode).unwrap();
            let banks = (0..img.region.len / 8)
                .map(|w| remap.map_word((img.region.base + w * 8) / 8).bank)
                .collect();
            bank_sets.push(banks);
        }
        for i in 0..bank_sets.len() {
            for j in i + 1..bank_sets.len() {
                assert!(
                    bank_sets[i].is_disjoint(&bank_sets[j]),
                    "operands {i} and {j} share banks"
                );
            }
        }
    }

    #[test]
    fn no_switching_uses_fima_everywhere() {
        let features = FeatureSet {
            addr_mode_switching: false,
            ..FeatureSet::full()
        };
        let p = compile(
            &gemm_data(16, 16, 16),
            &features,
            &mem(),
            true,
            BufferDepths::default(),
        )
        .unwrap();
        for img in &p.images {
            assert_eq!(img.region.mode, AddressingMode::FullyInterleaved);
        }
        assert_eq!(p.output_region.mode, AddressingMode::FullyInterleaved);
    }

    #[test]
    fn transposed_gemm_without_transposer_gets_prepass() {
        let data = WorkloadData::generate(GemmSpec::transposed(16, 16, 16).into(), 3);
        let features = FeatureSet::ablation_step(2); // prefetch only
        let p = compile(&data, &features, &mem(), true, BufferDepths::default()).unwrap();
        assert_eq!(p.prepasses.len(), 1);
        assert_eq!(p.prepasses[0].name, "explicit-transpose");
        // The pass moves the whole A matrix twice (word reads + writes).
        assert_eq!(p.prepasses[0].words_moved(), 2 * 16 * 16 / 8);
    }

    #[test]
    fn transposed_gemm_with_transposer_activates_extension() {
        let data = WorkloadData::generate(GemmSpec::transposed(16, 16, 16).into(), 3);
        let p = compile(
            &data,
            &FeatureSet::full(),
            &mem(),
            true,
            BufferDepths::default(),
        )
        .unwrap();
        assert!(p.prepasses.is_empty());
        assert_eq!(p.readers[0].runtime.extension_bypass, vec![false]);
    }

    #[test]
    fn plain_gemm_bypasses_transposer() {
        let p = compile(
            &gemm_data(16, 16, 16),
            &FeatureSet::full(),
            &mem(),
            true,
            BufferDepths::default(),
        )
        .unwrap();
        assert_eq!(p.readers[0].runtime.extension_bypass, vec![true]);
    }

    #[test]
    fn no_broadcaster_materializes_bias() {
        let features = FeatureSet {
            broadcaster: false,
            ..FeatureSet::full()
        };
        let data = gemm_data(16, 16, 16);
        let p = compile(&data, &features, &mem(), true, BufferDepths::default()).unwrap();
        // Bias is a static weight: the host preloads the full M×N image
        // (no runtime pass), and the wide C streamer reads all of it.
        let cfull = p
            .images
            .iter()
            .find(|img| img.name == "C-materialized")
            .expect("materialized bias image");
        assert_eq!(cfull.region.len, 16 * 16 * 4);
        assert_eq!(cfull.layout.pack(&data).len(), 16 * 16 * 4);
        assert!(p.prepasses.is_empty());
        assert_eq!(p.readers[2].design.num_channels(), 32);
    }

    #[test]
    fn conv_without_im2col_gets_prepass() {
        let data = WorkloadData::generate(ConvSpec::new(10, 10, 8, 8, 3, 3, 1).into(), 5);
        let features = FeatureSet::ablation_step(4); // im2col off
        let p = compile(&data, &features, &mem(), true, BufferDepths::default()).unwrap();
        assert!(p.prepasses.iter().any(|pp| pp.name == "explicit-im2col"));
        // 4-D temporal pattern over the materialized matrix.
        assert_eq!(p.readers[0].runtime.temporal_bounds.len(), 4);
    }

    #[test]
    fn conv_with_im2col_uses_6d_agu() {
        let data = WorkloadData::generate(ConvSpec::new(10, 10, 8, 8, 3, 3, 1).into(), 5);
        let p = compile(
            &data,
            &FeatureSet::full(),
            &mem(),
            true,
            BufferDepths::default(),
        )
        .unwrap();
        assert!(p.prepasses.is_empty());
        assert_eq!(p.readers[0].runtime.temporal_bounds.len(), 6);
        assert_eq!(p.k_steps, 9);
        assert_eq!(p.total_output_tiles, 8 * 8 / 8);
    }

    #[test]
    fn conv_placement_uses_quarter_groups() {
        // Strided or not, operands live in quarter-size bank groups — the
        // remapper's design-time N_BG list does not include wider
        // permutations (see make_windows), which is why strided access
        // patterns can still conflict inside A's group.
        let mem = mem();
        for spec in [
            ConvSpec::new(18, 18, 8, 8, 3, 3, 2),
            ConvSpec::new(10, 10, 8, 8, 3, 3, 1),
        ] {
            let data = WorkloadData::generate(spec.into(), 5);
            let p = compile(
                &data,
                &FeatureSet::full(),
                &mem,
                true,
                BufferDepths::default(),
            )
            .unwrap();
            let input = &p.images[0];
            assert_eq!(
                input.region.mode,
                AddressingMode::GroupedInterleaved { group_banks: 8 }
            );
        }
    }

    #[test]
    fn operands_of_the_wrong_length_are_typed_errors() {
        use dm_workloads::PoolSpec;
        let workloads: [Workload; 3] = [
            GemmSpec::new(16, 24, 8).into(),
            ConvSpec::new(10, 10, 8, 16, 3, 3, 1).into(),
            PoolSpec::new(10, 10, 8, 3, 1).into(),
        ];
        for workload in workloads {
            let data = WorkloadData::generate(workload, 1);
            let (a, b, bias) = (data.a.len(), data.b.len(), data.bias.len());
            let mut short_a = data.clone();
            short_a.a.pop();
            let mut long_b = data.clone();
            long_b.b.push(0);
            let mut long_bias = data.clone();
            long_bias.bias.push(0);
            for (expected, got, bad) in [
                (a, a - 1, short_a),
                (b, b + 1, long_b),
                (bias, bias + 1, long_bias),
            ] {
                let err = compile(
                    &bad,
                    &FeatureSet::full(),
                    &mem(),
                    true,
                    BufferDepths::default(),
                )
                .unwrap_err();
                assert_eq!(
                    err,
                    CompileError::InputLength { expected, got },
                    "{workload}"
                );
            }
        }
    }

    #[test]
    fn oversized_workload_fails_placement() {
        let tiny = MemConfig::new(8, 8, 64).unwrap();
        let err = compile(
            &gemm_data(64, 64, 64),
            &FeatureSet::full(),
            &tiny,
            true,
            BufferDepths::default(),
        )
        .unwrap_err();
        assert!(matches!(err, CompileError::Placement { .. }));
    }

    #[test]
    fn expected_output_image_matches_region_length() {
        let data = gemm_data(16, 24, 8);
        for quantized in [true, false] {
            let p = compile(
                &data,
                &FeatureSet::full(),
                &mem(),
                quantized,
                BufferDepths::default(),
            )
            .unwrap();
            let img = p.expected_output_image(&data);
            assert_eq!(img.len() as u64, p.output_region.len);
        }
    }

    #[test]
    fn total_steps_equals_ideal_cycles() {
        for (workload, seed) in [
            (GemmSpec::new(24, 16, 32).into(), 1u64),
            (ConvSpec::new(10, 10, 16, 8, 3, 3, 1).into(), 2),
        ] {
            let data = WorkloadData::generate(workload, seed);
            let p = compile(
                &data,
                &FeatureSet::full(),
                &mem(),
                true,
                BufferDepths::default(),
            )
            .unwrap();
            assert_eq!(p.total_steps(), data.workload.ideal_cycles());
        }
    }
}
