//! NIMA (non-interleaved) private-bank placement for GeMM.
//!
//! §III-D of the paper: contemporary dataflow accelerators often favor
//! NIMA — each operand lane gets a *private bank*, like dedicated input /
//! weight / output buffers. This module implements that layout for GeMM:
//! channel `c` of each stream owns one bank, and the operand is sliced
//! row-wise across banks so every access is conflict-free *by
//! construction*.
//!
//! The cost is exactly what the paper says: "the compiler needs to
//! carefully allocate data for maximal performance and it constrains the
//! tilings of the workload to meet the smallest memory requirement" — each
//! slice must fit one bank, so the maximum workload shrinks by the bank
//! count, and the host must scatter operands into per-bank slice images.
//! The `sweeps` benchmark binary contrasts all three modes.

use datamaestro::RuntimeConfig;
use dm_mem::MemConfig;
use dm_workloads::{GemmSpec, Workload, WorkloadData};

use crate::designs::{design_a, design_b, design_c, design_e, BufferDepths};
use crate::error::CompileError;
use crate::features::FeatureSet;
use crate::placement::{BankWindow, Region};
use crate::program::{CompiledWorkload, ImageLayout, OperandImage, StreamPlan};

const T: usize = 8;

/// Allocates one single-bank NIMA window per channel, starting at
/// `first_bank`, each holding one `slice_len`-byte image.
fn slice_regions(
    mem: &MemConfig,
    first_bank: usize,
    channels: usize,
    slice_len: u64,
    name: &str,
) -> Result<Vec<Region>, CompileError> {
    (0..channels)
        .map(|c| {
            let mut window = BankWindow::grouped(mem, first_bank + c, 1)?;
            window.alloc(&format!("{name}[{c}]"), slice_len)
        })
        .collect()
}

/// Lowers a plain GeMM with NIMA private-bank placement (quantized output).
///
/// # Errors
///
/// Returns [`CompileError::Unsupported`] for transposed GeMM (the slice
/// transform composes poorly with the Transposer demo) or when the memory
/// has fewer than 28 banks; [`CompileError::Placement`] when a slice
/// exceeds its private bank — the NIMA tiling constraint;
/// [`CompileError::InputLength`] when an operand does not match the shape.
pub fn compile_gemm_private_banks(
    data: &WorkloadData,
    features: &FeatureSet,
    mem: &MemConfig,
    depths: BufferDepths,
) -> Result<CompiledWorkload, CompileError> {
    let Workload::Gemm(spec) = data.workload else {
        return Err(CompileError::Unsupported {
            reason: "private-bank placement is implemented for GeMM".into(),
        });
    };
    crate::check_operands(data.workload, data)?;
    if spec.transposed_a {
        return Err(CompileError::Unsupported {
            reason: "private-bank placement does not support transposed A".into(),
        });
    }
    if mem.num_banks() < 28 {
        return Err(CompileError::Unsupported {
            reason: format!(
                "private-bank GeMM needs 28 banks (8 A + 8 B + 4 C + 8 E), \
                 memory has {}",
                mem.num_banks()
            ),
        });
    }
    let (mt, nt, kt) = spec.tiles();
    let (m, n, k) = (spec.m, spec.n, spec.k);
    let bank_bytes = (mem.rows_per_bank() * mem.bank_width_bytes()) as i64;
    let mut images = Vec::new();

    // --- A: bank r holds tile-row r of every tile, ordered (mt, kt) -----
    let a_regions = slice_regions(mem, 0, T, (m * k / T) as u64, "A")?;
    for (r, region) in a_regions.iter().enumerate() {
        images.push(OperandImage {
            name: format!("A[{r}]"),
            region: *region,
            layout: ImageLayout::ATileRow { r, m, k },
        });
    }
    let a_design = design_a(features, depths)?;
    let a_bypass: Vec<bool> = if features.transposer {
        vec![true]
    } else {
        Vec::new()
    };
    let a_runtime = RuntimeConfig::builder()
        .base(a_regions[0].base)
        .temporal([kt as u64, nt as u64, mt as u64], [8, 0, kt as i64 * 8])
        .spatial_strides([bank_bytes, 2 * bank_bytes, 4 * bank_bytes])
        .addressing_mode(a_regions[0].mode)
        .extension_bypass(a_bypass)
        .build();

    // --- B: bank 8+r holds B's tile-row r, ordered (kt, nt) -------------
    let b_regions = slice_regions(mem, 8, T, (k * n / T) as u64, "B")?;
    for (r, region) in b_regions.iter().enumerate() {
        images.push(OperandImage {
            name: format!("B[{r}]"),
            region: *region,
            layout: ImageLayout::BTileRow { r, k, n },
        });
    }
    let b_design = design_b(features, depths)?;
    let b_runtime = RuntimeConfig::builder()
        .base(b_regions[0].base)
        .temporal([kt as u64, nt as u64, mt as u64], [nt as i64 * 8, 8, 0])
        .spatial_strides([bank_bytes, 2 * bank_bytes, 4 * bank_bytes])
        .addressing_mode(b_regions[0].mode)
        .build();

    // --- C: four bias lanes (word j of each n-tile) on banks 16..20 ------
    if !features.broadcaster {
        return Err(CompileError::Unsupported {
            reason: "private-bank placement requires the Broadcaster C port".into(),
        });
    }
    let c_regions = slice_regions(mem, 16, 4, (nt * T) as u64, "bias")?;
    for (j, region) in c_regions.iter().enumerate() {
        images.push(OperandImage {
            name: format!("bias[{j}]"),
            region: *region,
            layout: ImageLayout::BiasLane { j, n },
        });
    }
    let c_design = design_c(features, depths)?;
    let c_runtime = RuntimeConfig::builder()
        .base(c_regions[0].base)
        .temporal([nt as u64, mt as u64], [8, 0])
        .spatial_strides([bank_bytes, 2 * bank_bytes])
        .addressing_mode(c_regions[0].mode)
        .extension_bypass([false])
        .build();

    // --- E: bank 20+r receives output tile-row r, ordered (mt, nt) -------
    let e_regions = slice_regions(mem, 20, T, (m * n / T) as u64, "E")?;
    let out_design = design_e(features, depths)?;
    let out_runtime = RuntimeConfig::builder()
        .base(e_regions[0].base)
        .temporal([nt as u64, mt as u64], [8, nt as i64 * 8])
        .spatial_strides([bank_bytes, 2 * bank_bytes, 4 * bank_bytes])
        .addressing_mode(e_regions[0].mode)
        .build();

    Ok(CompiledWorkload {
        workload: data.workload,
        features: *features,
        quantized: true,
        readers: vec![
            StreamPlan::new(a_design, a_runtime),
            StreamPlan::new(b_design, b_runtime),
            StreamPlan::new(c_design, c_runtime),
        ],
        out: StreamPlan::new(out_design, out_runtime),
        images,
        prepasses: Vec::new(),
        k_steps: kt as u64,
        total_output_tiles: (mt * nt) as u64,
        rescale: data.rescale,
        output_region: e_regions[0],
        output_slices: e_regions,
    })
}

/// The golden per-bank output slices for a private-bank GeMM: slice `r`
/// holds E's tile-row `r` in (mt, nt) order.
#[must_use]
pub fn expected_output_slices(spec: GemmSpec, expected_e: &[i8]) -> Vec<Vec<u8>> {
    let (mt, nt, _) = spec.tiles();
    (0..T)
        .map(|r| {
            let mut bytes = Vec::with_capacity(spec.m * spec.n / T);
            for mt_i in 0..mt {
                for nt_i in 0..nt {
                    for col in 0..T {
                        bytes.push(expected_e[(mt_i * T + r) * spec.n + nt_i * T + col] as u8);
                    }
                }
            }
            bytes
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use dm_mem::AddressingMode;

    fn mem() -> MemConfig {
        MemConfig::new(32, 8, 4096).unwrap()
    }

    #[test]
    fn private_banks_compile_for_plain_gemm() {
        let data = WorkloadData::generate(GemmSpec::new(32, 32, 32).into(), 1);
        let p =
            compile_gemm_private_banks(&data, &FeatureSet::full(), &mem(), BufferDepths::default())
                .unwrap();
        assert_eq!(p.images.len(), 8 + 8 + 4);
        assert_eq!(p.output_slices.len(), 8);
        for img in &p.images {
            assert_eq!(
                img.region.mode,
                AddressingMode::GroupedInterleaved { group_banks: 1 }
            );
        }
        for (_, plan) in p.ports() {
            plan.runtime.validate(&plan.design).unwrap();
        }
    }

    #[test]
    fn slices_are_bank_private() {
        use dm_mem::AddressRemapper;
        let m = mem();
        let data = WorkloadData::generate(GemmSpec::new(16, 16, 16).into(), 2);
        let p = compile_gemm_private_banks(&data, &FeatureSet::full(), &m, BufferDepths::default())
            .unwrap();
        for (i, img) in p.images.iter().enumerate() {
            let remap = AddressRemapper::new(&m, img.region.mode).unwrap();
            let banks: std::collections::HashSet<usize> = (0..img.region.len / 8)
                .map(|w| remap.map_word((img.region.base + w * 8) / 8).bank)
                .collect();
            assert_eq!(banks.len(), 1, "image {i} spans multiple banks");
        }
    }

    #[test]
    fn tiling_constraint_is_enforced() {
        // A slice of m·k/8 bytes must fit one bank (4096 rows × 8 B = 32 KiB
        // here): a 1024×512 GeMM needs 64 KiB per slice and must fail.
        let data = WorkloadData::generate(GemmSpec::new(1024, 32, 512).into(), 3);
        let err =
            compile_gemm_private_banks(&data, &FeatureSet::full(), &mem(), BufferDepths::default())
                .unwrap_err();
        assert!(matches!(err, CompileError::Placement { .. }));
    }

    #[test]
    fn unsupported_cases_are_rejected() {
        let t = WorkloadData::generate(GemmSpec::transposed(16, 16, 16).into(), 4);
        assert!(matches!(
            compile_gemm_private_banks(&t, &FeatureSet::full(), &mem(), BufferDepths::default()),
            Err(CompileError::Unsupported { .. })
        ));
        let small = MemConfig::new(16, 8, 4096).unwrap();
        let g = WorkloadData::generate(GemmSpec::new(16, 16, 16).into(), 5);
        assert!(matches!(
            compile_gemm_private_banks(&g, &FeatureSet::full(), &small, BufferDepths::default()),
            Err(CompileError::Unsupported { .. })
        ));
    }

    #[test]
    fn expected_slices_cover_all_outputs() {
        let spec = GemmSpec::new(16, 16, 16);
        let data = WorkloadData::generate(spec.into(), 6);
        let slices = expected_output_slices(spec, &data.expected_e());
        assert_eq!(slices.len(), 8);
        let total: usize = slices.iter().map(Vec::len).sum();
        assert_eq!(total, 16 * 16);
    }
}
