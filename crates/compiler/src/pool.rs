//! Lowering of max-pooling workloads onto a streamer-built pooling system.
//!
//! This demonstrates the paper's *reusable design* claim with code: the
//! pooling accelerator is assembled from exactly the same [`ReadStreamer`]
//! / [`WriteStreamer`] building blocks as the GeMM system — one 8-channel
//! reader walking the pooling windows with the N-D AGU (the same kind of
//! 5-D pattern the convolution A stream uses), one 8-channel writer, and a
//! trivial elementwise-max unit in between. The result is the same
//! [`CompiledWorkload`] the GeMM lowerings produce, with A as its only
//! operand reader; only this compiler function and the functional
//! executor's elementwise max are pooling-specific.
//!
//! [`ReadStreamer`]: datamaestro::ReadStreamer
//! [`WriteStreamer`]: datamaestro::WriteStreamer

use datamaestro::{DesignConfig, RuntimeConfig, StreamerMode};
use dm_accel::RescaleParams;
use dm_mem::MemConfig;
use dm_workloads::{PoolSpec, Workload};

use crate::designs::{pixel_spatial_strides, BufferDepths};
use crate::error::CompileError;
use crate::features::FeatureSet;
use crate::lower::choose_pixel_tiling;
use crate::placement::BankWindow;
use crate::program::{CompiledWorkload, ImageLayout, OperandImage, StreamPlan};

/// Lowers a pooling workload over its channels-last input tensor: one
/// operand reader (A) and the writer, `k²` window steps per output tile.
///
/// # Errors
///
/// [`CompileError::Unsupported`] for an int32 output (`quantized` off):
/// the max unit has no int32 path, and [`CompileError`] on placement
/// failure or unmappable geometry.
pub(crate) fn compile_pool(
    spec: PoolSpec,
    features: &FeatureSet,
    mem: &MemConfig,
    quantized: bool,
    depths: BufferDepths,
) -> Result<CompiledWorkload, CompileError> {
    if !quantized {
        return Err(CompileError::Unsupported {
            reason: "max pooling yields int8 tiles; the max unit has no int32 output path"
                .to_owned(),
        });
    }
    let group_banks = if features.addr_mode_switching {
        (mem.num_banks() / 4).max(1)
    } else {
        mem.num_banks()
    };
    let conv_view = spec.as_conv();
    let (sx, sy) =
        choose_pixel_tiling(&conv_view, group_banks).ok_or_else(|| CompileError::Unsupported {
            reason: format!(
                "output plane {}x{} has no 8-pixel tiling",
                spec.oh(),
                spec.ow()
            ),
        })?;
    let (oh, ow) = (spec.oh(), spec.ow());
    let (h, w, s, k) = (spec.h, spec.w, spec.stride, spec.k);
    let cb = spec.c / 8;
    let (ox_t, oy_t) = (ow / sx, oh / sy);

    // Placement: input in the first bank group, output in the second (or
    // both in one linear space without mode switching).
    let in_len = (h * w * spec.c) as u64;
    let (rin, rout) = if features.addr_mode_switching {
        let quarter = (mem.num_banks() / 4).max(1);
        let mut win_a = BankWindow::grouped(mem, 0, quarter)?;
        let mut win_out = BankWindow::grouped(mem, quarter, quarter)?;
        (
            win_a.alloc("pool-input", in_len)?,
            win_out.alloc("pool-output", (oh * ow * spec.c) as u64)?,
        )
    } else {
        let mut linear = BankWindow::linear(mem);
        (
            linear.alloc("pool-input", in_len)?,
            linear.alloc("pool-output", (oh * ow * spec.c) as u64)?,
        )
    };
    let images = vec![OperandImage {
        name: "pool-input".into(),
        region: rin,
        layout: ImageLayout::ConvInput { h, w, c: spec.c },
    }];

    let a_design = DesignConfig::builder("pool-in", StreamerMode::Read)
        .spatial_bounds([2, 2, 2])
        .temporal_dims(5)
        .data_buffer_depth(depths.data)
        .addr_buffer_depth(depths.addr)
        .fine_grained_prefetch(features.fine_grained_prefetch)
        .build()?;
    let a_runtime = RuntimeConfig::builder()
        .base(rin.base)
        .temporal(
            [k as u64, k as u64, ox_t as u64, oy_t as u64, cb as u64],
            [
                8,
                w as i64 * 8,
                (sx * s) as i64 * 8,
                (sy * s * w) as i64 * 8,
                (h * w) as i64 * 8,
            ],
        )
        .spatial_strides(pixel_spatial_strides(sx, s as i64 * 8, (s * w) as i64 * 8))
        .addressing_mode(rin.mode)
        .build();

    let out_design = DesignConfig::builder("pool-out", StreamerMode::Write)
        .spatial_bounds([2, 2, 2])
        .temporal_dims(5)
        .data_buffer_depth(depths.write_data)
        .addr_buffer_depth(depths.addr)
        .fine_grained_prefetch(features.fine_grained_prefetch)
        .build()?;
    let out_runtime = RuntimeConfig::builder()
        .base(rout.base)
        .temporal(
            [ox_t as u64, oy_t as u64, cb as u64],
            [sx as i64 * 8, (sy * ow) as i64 * 8, (oh * ow) as i64 * 8],
        )
        .spatial_strides(pixel_spatial_strides(sx, 8, ow as i64 * 8))
        .addressing_mode(rout.mode)
        .build();

    Ok(CompiledWorkload {
        workload: Workload::Pool(spec),
        features: *features,
        quantized,
        readers: vec![StreamPlan::new(a_design, a_runtime)],
        out: StreamPlan::new(out_design, out_runtime),
        images,
        prepasses: Vec::new(),
        k_steps: (k * k) as u64,
        total_output_tiles: (cb * ox_t * oy_t) as u64,
        rescale: RescaleParams::IDENTITY,
        output_region: rout,
        output_slices: Vec::new(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn compile(spec: PoolSpec) -> CompiledWorkload {
        let mem = MemConfig::new(32, 8, 4096).unwrap();
        let features = FeatureSet::full();
        compile_pool(spec, &features, &mem, true, BufferDepths::default()).unwrap()
    }

    #[test]
    fn pool_lowering_shapes() {
        let spec = PoolSpec::new(16, 16, 16, 2, 2);
        let p = compile(spec);
        assert_eq!(p.k_steps, 4);
        assert_eq!(p.total_output_tiles, (2 * 8)); // cb=2, ox_t·oy_t = 8
        assert_eq!(p.readers.len(), 1, "A is the only operand reader");
        for (_, plan) in p.ports() {
            plan.runtime.validate(&plan.design).unwrap();
        }
        assert_eq!(p.images.len(), 1);
        assert_eq!(p.output_region.len, 8 * 8 * 16);
    }

    #[test]
    fn pool_uses_disjoint_groups_with_switching() {
        let p = compile(PoolSpec::new(10, 10, 8, 3, 1));
        assert_ne!(
            p.images[0].region.mode,
            dm_mem::AddressingMode::FullyInterleaved
        );
    }
}
