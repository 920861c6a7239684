//! Lowering of GeMM and convolution workloads onto the evaluation system.
//!
//! This module is the "customized compiler" of §IV-A: given a workload, the
//! feature set of the built system and the memory geometry, it produces the
//! runtime configurations for all streamers, the operand placement (bank
//! groups under mode switching), and the explicit pre-passes required when
//! an on-the-fly feature is absent.

use datamaestro::RuntimeConfig;
use dm_mem::MemConfig;
use dm_workloads::{ConvSpec, GemmSpec, Workload, WorkloadData};

use crate::designs::{
    design_a, design_b, design_c, design_d, design_e, pixel_spatial_strides, BufferDepths,
};
use crate::error::CompileError;
use crate::features::FeatureSet;
use crate::placement::{BankWindow, Region};
use crate::program::{
    plan_index, CompiledWorkload, CopyPlan, ImageLayout, OperandImage, StreamPlan, WriteSource,
};

/// Tile edge (the array's unrolling in every dimension).
const T: usize = 8;
/// Bytes per int8 tile.
const TILE_I8: u64 = 64;
/// Bytes per int32 tile.
const TILE_I32: u64 = 256;

/// Operand-to-window assignment produced by [`make_windows`].
struct Windows {
    windows: Vec<BankWindow>,
    a: usize,
    b: usize,
    out: usize,
    c: usize,
}

impl Windows {
    fn window(&mut self, idx: usize) -> &mut BankWindow {
        &mut self.windows[idx]
    }
}

/// Chooses the operand placement policy.
///
/// * mode switching off → one linear FIMA space shared by everything (the
///   conventional layout);
/// * mode switching on → disjoint bank groups per operand: A, B, OUT and C
///   each get a quarter of the banks under GIMA.
///
/// The hardware remapper only instantiates the bank-group permutations
/// listed in its design-time `N_BG` parameter; as in the paper's
/// evaluation system that list stops at the quarter-size grouping, so the
/// compiler cannot widen A's group for strided convolutions — their
/// non-contiguous spatial fan-out then collides inside the group, which is
/// exactly the "unavoidable bank conflicts" the paper reports for strided
/// layers.
fn make_windows(mem: &MemConfig, features: &FeatureSet) -> Result<Windows, CompileError> {
    if !features.addr_mode_switching {
        return Ok(Windows {
            windows: vec![BankWindow::linear(mem)],
            a: 0,
            b: 0,
            out: 0,
            c: 0,
        });
    }
    let quarter = (mem.num_banks() / 4).max(1);
    Ok(Windows {
        windows: vec![
            BankWindow::grouped(mem, 0, quarter)?,
            BankWindow::grouped(mem, quarter, quarter)?,
            BankWindow::grouped(mem, 2 * quarter, quarter)?,
            BankWindow::grouped(mem, 3 * quarter, quarter)?,
        ],
        a: 0,
        b: 1,
        out: 2,
        c: 3,
    })
}

/// Chooses the `sx × sy` factorization of the 8-pixel output tile for a
/// convolution.
///
/// This is the data-layout/dataflow co-optimization the paper's compiler
/// performs: among the factorizations that divide the output plane, pick
/// the one whose eight spatial addresses spread over the most *distinct*
/// banks of the operand's group (ties prefer the widest `sx`, i.e. the
/// most contiguous accesses). For stride-1 convolutions a conflict-free
/// tiling almost always exists; strided ones often have none — the
/// "unavoidable" conflicts of the paper's §IV-B.
pub(crate) fn choose_pixel_tiling(spec: &ConvSpec, group_banks: usize) -> Option<(usize, usize)> {
    use datamaestro::agu::SpatialAgu;
    let (oh, ow) = (spec.oh(), spec.ow());
    let mut best: Option<(usize, usize, usize)> = None; // (distinct, sx, sy)
    for (sx, sy) in [(8, 1), (4, 2), (2, 4), (1, 8)] {
        if ow % sx != 0 || oh % sy != 0 {
            continue;
        }
        let strides = pixel_spatial_strides(
            sx,
            (spec.stride * T) as i64,
            (spec.stride * spec.w * T) as i64,
        );
        let agu = SpatialAgu::new(&[2, 2, 2], &strides);
        let distinct = agu
            .offsets()
            .iter()
            .map(|o| (o / T as i64).rem_euclid(group_banks as i64))
            .collect::<std::collections::HashSet<_>>()
            .len();
        match best {
            Some((d, x, _)) if (d, x) >= (distinct, sx) => {}
            _ => best = Some((distinct, sx, sy)),
        }
    }
    best.map(|(_, sx, sy)| (sx, sy))
}

/// Lowers a GeMM workload.
pub(crate) fn compile_gemm(
    spec: GemmSpec,
    data: &WorkloadData,
    features: &FeatureSet,
    mem: &MemConfig,
    quantized: bool,
    depths: BufferDepths,
) -> Result<CompiledWorkload, CompileError> {
    let (mt, nt, kt) = spec.tiles();
    let (m, n, k) = (spec.m, spec.n, spec.k);
    let mut w = make_windows(mem, features)?;
    let mut images = Vec::new();
    let mut prepasses = Vec::new();

    // --- A operand -------------------------------------------------------
    let ra = w.window(w.a).alloc("A", (m * k) as u64)?;
    images.push(OperandImage {
        name: "A".into(),
        region: ra,
        layout: if spec.transposed_a {
            ImageLayout::GemmATransposed { m, k }
        } else {
            ImageLayout::GemmA { m, k }
        },
    });
    let a_design = design_a(features, depths)?;
    let a_bypass: Vec<bool> = if features.transposer {
        vec![!spec.transposed_a]
    } else {
        Vec::new()
    };
    let a_runtime = if spec.transposed_a {
        if features.transposer {
            // Read Aᵀ tiles directly; the Transposer flips them on the fly.
            // Tile (kt, mt) lives at (kt·Mt + mt)·64.
            RuntimeConfig::builder()
                .base(ra.base)
                .temporal([kt as u64, nt as u64, mt as u64], [mt as i64 * 64, 0, 64])
                .spatial_strides([8, 16, 32])
                .addressing_mode(ra.mode)
                .extension_bypass(a_bypass.clone())
                .build()
        } else {
            // Explicit transpose pre-pass into a scratch A image.
            let ra2 = w
                .window(w.a)
                .alloc("A-transposed-scratch", (m * k) as u64)?;
            prepasses.push(transpose_plan(ra, ra2, m, k)?);
            plain_a_runtime(ra2.base, ra2.mode, mt, nt, kt, &a_bypass)
        }
    } else {
        plain_a_runtime(ra.base, ra.mode, mt, nt, kt, &a_bypass)
    };

    // --- B operand -------------------------------------------------------
    let rb = w.window(w.b).alloc("B", (k * n) as u64)?;
    images.push(OperandImage {
        name: "B".into(),
        region: rb,
        layout: ImageLayout::GemmB { k, n },
    });
    let b_design = design_b(features, depths)?;
    let b_runtime = RuntimeConfig::builder()
        .base(rb.base)
        .temporal([kt as u64, nt as u64, mt as u64], [nt as i64 * 64, 64, 0])
        .spatial_strides([8, 16, 32])
        .addressing_mode(rb.mode)
        .build();

    // --- C operand (bias) ------------------------------------------------
    let rbias = w.window(w.c).alloc("bias", (n * 4) as u64)?;
    images.push(OperandImage {
        name: "bias".into(),
        region: rbias,
        layout: ImageLayout::Bias,
    });
    let c_design = design_c(features, depths)?;
    let c_runtime = if features.broadcaster {
        RuntimeConfig::builder()
            .base(rbias.base)
            .temporal([nt as u64, mt as u64], [32, 0])
            .spatial_strides([8, 16])
            .addressing_mode(rbias.mode)
            .extension_bypass([false])
            .build()
    } else {
        // Without the Broadcaster the bias must live as a fully
        // materialized M×N int32 matrix. Bias is a static weight, so the
        // host replicates it at load time (no runtime pass) — the cost is
        // the 8× memory footprint and the 8× read traffic during compute.
        let rcfull = w.window(w.c).alloc("C-materialized", (m * n * 4) as u64)?;
        images.push(OperandImage {
            name: "C-materialized".into(),
            region: rcfull,
            layout: ImageLayout::GemmBiasRows { m, n },
        });
        RuntimeConfig::builder()
            .base(rcfull.base)
            .temporal(
                [nt as u64, mt as u64],
                [TILE_I32 as i64, nt as i64 * TILE_I32 as i64],
            )
            .spatial_strides([8, 16, 32, 64, 128])
            .addressing_mode(rcfull.mode)
            .build()
    };

    // --- Output ----------------------------------------------------------
    let out_len = if quantized { m * n } else { m * n * 4 };
    let rout = w.window(w.out).alloc("out", out_len as u64)?;
    let (out_design, out_runtime) = if quantized {
        (
            design_e(features, depths)?,
            RuntimeConfig::builder()
                .base(rout.base)
                .temporal(
                    [nt as u64, mt as u64],
                    [TILE_I8 as i64, nt as i64 * TILE_I8 as i64],
                )
                .spatial_strides([8, 16, 32])
                .addressing_mode(rout.mode)
                .build(),
        )
    } else {
        (
            design_d(features, depths)?,
            RuntimeConfig::builder()
                .base(rout.base)
                .temporal(
                    [nt as u64, mt as u64],
                    [TILE_I32 as i64, nt as i64 * TILE_I32 as i64],
                )
                .spatial_strides([8, 16, 32, 64, 128])
                .addressing_mode(rout.mode)
                .build(),
        )
    };

    Ok(CompiledWorkload {
        workload: Workload::Gemm(spec),
        features: *features,
        quantized,
        readers: vec![
            StreamPlan::new(a_design, a_runtime),
            StreamPlan::new(b_design, b_runtime),
            StreamPlan::new(c_design, c_runtime),
        ],
        out: StreamPlan::new(out_design, out_runtime),
        images,
        prepasses,
        k_steps: kt as u64,
        total_output_tiles: (mt * nt) as u64,
        rescale: data.rescale,
        output_region: rout,
        output_slices: Vec::new(),
    })
}

fn plain_a_runtime(
    base: u64,
    mode: dm_mem::AddressingMode,
    mt: usize,
    nt: usize,
    kt: usize,
    bypass: &[bool],
) -> RuntimeConfig {
    RuntimeConfig::builder()
        .base(base)
        .temporal([kt as u64, nt as u64, mt as u64], [64, 0, kt as i64 * 64])
        .spatial_strides([8, 16, 32])
        .addressing_mode(mode)
        .extension_bypass(bypass.to_vec())
        .build()
}

/// Builds the explicit-transpose pre-pass: reads the blocked Aᵀ image and
/// writes the blocked A image (byte-level tile transposition).
///
/// Destination row `r` of A tile `(mt, kt)` is the next sequential write;
/// its byte `c` is Aᵀ image byte `(kt·Mtiles + mt)·64 + c·8 + r`.
fn transpose_plan(src: Region, dst: Region, m: usize, k: usize) -> Result<CopyPlan, CompileError> {
    let words = m * k / T;
    let (mtiles, ktiles) = (m / T, k / T);
    let mut writes = Vec::with_capacity(words);
    let mut gathers = Vec::with_capacity(words * T);
    for mt_i in 0..mtiles {
        for kt_i in 0..ktiles {
            for r in 0..T {
                writes.push(WriteSource::Gather(plan_index(gathers.len())?));
                let row = (kt_i * mtiles + mt_i) * T * T + r;
                for c in 0..T {
                    gathers.push(plan_index(row + c * T)?);
                }
            }
        }
    }
    Ok(CopyPlan {
        name: "explicit-transpose".into(),
        read_mode: src.mode,
        write_mode: dst.mode,
        reads: (0..words as u64).map(|i| src.base + i * 8).collect(),
        write_base: dst.base,
        writes,
        gathers,
    })
}

/// Lowers a convolution workload.
pub(crate) fn compile_conv(
    spec: ConvSpec,
    data: &WorkloadData,
    features: &FeatureSet,
    mem: &MemConfig,
    quantized: bool,
    depths: BufferDepths,
) -> Result<CompiledWorkload, CompileError> {
    let group_banks = if features.addr_mode_switching {
        (mem.num_banks() / 4).max(1)
    } else {
        mem.num_banks()
    };
    let (sx, sy) =
        choose_pixel_tiling(&spec, group_banks).ok_or_else(|| CompileError::Unsupported {
            reason: format!(
                "output plane {}x{} has no 8-pixel tiling",
                spec.oh(),
                spec.ow()
            ),
        })?;
    let (oh, ow) = (spec.oh(), spec.ow());
    let (h, w_in, s) = (spec.h, spec.w, spec.stride);
    let (cin_t, cout_t) = (spec.c_in / T, spec.c_out / T);
    let (ox_t, oy_t) = (ow / sx, oh / sy);
    let (kh, kw) = (spec.kh, spec.kw);
    let k_steps = (cin_t * kh * kw) as u64;
    let total_tiles = (cout_t * ox_t * oy_t) as u64;

    let mut w = make_windows(mem, features)?;
    let mut images = Vec::new();
    let mut prepasses = Vec::new();

    // --- A operand (input activations) -----------------------------------
    let rin = w
        .window(w.a)
        .alloc("input", (h * w_in * spec.c_in) as u64)?;
    images.push(OperandImage {
        name: "input".into(),
        region: rin,
        layout: ImageLayout::ConvInput {
            h,
            w: w_in,
            c: spec.c_in,
        },
    });
    let a_design = design_a(features, depths)?;
    let a_bypass: Vec<bool> = if features.transposer {
        vec![true]
    } else {
        Vec::new()
    };
    let a_runtime = if features.implicit_im2col {
        // 6-D implicit im2col walk (innermost first):
        // kx, ky, cin_t, cout_t (reuse), ox_t, oy_t.
        RuntimeConfig::builder()
            .base(rin.base)
            .temporal(
                [
                    kw as u64,
                    kh as u64,
                    cin_t as u64,
                    cout_t as u64,
                    ox_t as u64,
                    oy_t as u64,
                ],
                [
                    8,
                    w_in as i64 * 8,
                    (h * w_in) as i64 * 8,
                    0,
                    (sx * s) as i64 * 8,
                    (sy * s * w_in) as i64 * 8,
                ],
            )
            .spatial_strides(pixel_spatial_strides(
                sx,
                s as i64 * 8,
                (s * w_in) as i64 * 8,
            ))
            .addressing_mode(rin.mode)
            .extension_bypass(a_bypass.clone())
            .build()
    } else {
        // Explicit im2col pre-pass into a stream-ordered tile image.
        let im2col_len = (oh * ow * spec.c_in * kh * kw) as u64;
        let rim = w.window(w.a).alloc("im2col-scratch", im2col_len)?;
        prepasses.push(im2col_plan(&spec, rin, rim, sx, sy)?);
        let kappa_t = k_steps;
        RuntimeConfig::builder()
            .base(rim.base)
            .temporal(
                [kappa_t, cout_t as u64, ox_t as u64, oy_t as u64],
                [
                    64,
                    0,
                    kappa_t as i64 * 64,
                    ox_t as i64 * kappa_t as i64 * 64,
                ],
            )
            .spatial_strides([8, 16, 32])
            .addressing_mode(rim.mode)
            .extension_bypass(a_bypass.clone())
            .build()
    };

    // --- B operand (weights) ----------------------------------------------
    let rb = w
        .window(w.b)
        .alloc("weights", (spec.c_out * kh * kw * spec.c_in) as u64)?;
    images.push(OperandImage {
        name: "weights".into(),
        region: rb,
        layout: ImageLayout::ConvWeights {
            c_out: spec.c_out,
            kh,
            kw,
            c_in: spec.c_in,
        },
    });
    let b_design = design_b(features, depths)?;
    let b_runtime = RuntimeConfig::builder()
        .base(rb.base)
        .temporal(
            [
                kw as u64,
                kh as u64,
                cin_t as u64,
                cout_t as u64,
                ox_t as u64,
                oy_t as u64,
            ],
            [
                64,
                kw as i64 * 64,
                (kh * kw) as i64 * 64,
                (cin_t * kh * kw) as i64 * 64,
                0,
                0,
            ],
        )
        .spatial_strides([8, 16, 32])
        .addressing_mode(rb.mode)
        .build();

    // --- C operand (bias) --------------------------------------------------
    let rbias = w.window(w.c).alloc("bias", (spec.c_out * 4) as u64)?;
    images.push(OperandImage {
        name: "bias".into(),
        region: rbias,
        layout: ImageLayout::Bias,
    });
    let c_design = design_c(features, depths)?;
    let c_runtime = if features.broadcaster {
        RuntimeConfig::builder()
            .base(rbias.base)
            .temporal([cout_t as u64, ox_t as u64, oy_t as u64], [32, 0, 0])
            .spatial_strides([8, 16])
            .addressing_mode(rbias.mode)
            .extension_bypass([false])
            .build()
    } else {
        // Host-materialized bias image in the output-shaped blocked layout
        // (static weight; see the GeMM path for rationale).
        let rcfull = w
            .window(w.c)
            .alloc("C-materialized", (oh * ow * spec.c_out * 4) as u64)?;
        images.push(OperandImage {
            name: "C-materialized".into(),
            region: rcfull,
            layout: ImageLayout::ConvBiasPixels {
                oh,
                ow,
                c_out: spec.c_out,
            },
        });
        let mut spatial = vec![8, 16];
        spatial.extend(pixel_spatial_strides(sx, 32, ow as i64 * 32));
        RuntimeConfig::builder()
            .base(rcfull.base)
            .temporal(
                [cout_t as u64, ox_t as u64, oy_t as u64],
                [(oh * ow) as i64 * 32, sx as i64 * 32, (sy * ow) as i64 * 32],
            )
            .spatial_strides(spatial)
            .addressing_mode(rcfull.mode)
            .build()
    };

    // --- Output -------------------------------------------------------------
    let elem = if quantized { 1usize } else { 4 };
    let rout = w
        .window(w.out)
        .alloc("out", (oh * ow * spec.c_out * elem) as u64)?;
    let pixel_bytes = (T * elem) as i64;
    let out_temporal_bounds = [cout_t as u64, ox_t as u64, oy_t as u64];
    let out_temporal_strides = [
        (oh * ow) as i64 * pixel_bytes,
        sx as i64 * pixel_bytes,
        (sy * ow) as i64 * pixel_bytes,
    ];
    let (out_design, out_runtime) = if quantized {
        (
            design_e(features, depths)?,
            RuntimeConfig::builder()
                .base(rout.base)
                .temporal(out_temporal_bounds, out_temporal_strides)
                .spatial_strides(pixel_spatial_strides(sx, 8, ow as i64 * 8))
                .addressing_mode(rout.mode)
                .build(),
        )
    } else {
        let mut spatial = vec![8, 16];
        spatial.extend(pixel_spatial_strides(sx, 32, ow as i64 * 32));
        (
            design_d(features, depths)?,
            RuntimeConfig::builder()
                .base(rout.base)
                .temporal(out_temporal_bounds, out_temporal_strides)
                .spatial_strides(spatial)
                .addressing_mode(rout.mode)
                .build(),
        )
    };

    Ok(CompiledWorkload {
        workload: Workload::Conv(spec),
        features: *features,
        quantized,
        readers: vec![
            StreamPlan::new(a_design, a_runtime),
            StreamPlan::new(b_design, b_runtime),
            StreamPlan::new(c_design, c_runtime),
        ],
        out: StreamPlan::new(out_design, out_runtime),
        images,
        prepasses,
        k_steps,
        total_output_tiles: total_tiles,
        rescale: data.rescale,
        output_region: rout,
        output_slices: Vec::new(),
    })
}

/// The DMA's reuse window: the last [`ReuseWindow::WORDS`] words it read,
/// with their read numbers, evicted first in first out.
struct ReuseWindow {
    /// `(address, read number)` slots; `u64::MAX` marks an empty slot (no
    /// word address reaches it).
    slots: [(u64, u32); ReuseWindow::WORDS],
    /// The slot the next read replaces: the oldest once the window is full.
    next: usize,
}

impl ReuseWindow {
    /// A line buffer, not a cache: it captures the heavy kx-overlap
    /// between adjacent kernel columns but none of the ky / channel-block
    /// reuse, so explicit im2col still pays most of its kh-fold read
    /// amplification.
    const WORDS: usize = 16;

    fn new() -> Self {
        ReuseWindow {
            slots: [(u64::MAX, 0); Self::WORDS],
            next: 0,
        }
    }

    /// The read number of `addr` if the window holds it.
    fn find(&self, addr: u64) -> Option<u32> {
        self.slots
            .iter()
            .find(|&&(slot, _)| slot == addr)
            .map(|&(_, idx)| idx)
    }

    /// Records read `idx` of `addr`, evicting the oldest word when full.
    fn push(&mut self, addr: u64, idx: u32) {
        self.slots[self.next] = (addr, idx);
        self.next = (self.next + 1) % Self::WORDS;
    }
}

/// Builds the explicit-im2col pre-pass: gathers input pixel blocks into a
/// stream-ordered tile image (tile `(oy_t, ox_t, κ)` at
/// `((oy_t·oxT + ox_t)·κT + κ)·64`, κ = kx + kw·(ky + kh·cin_t)), one
/// sequential write per pixel block.
fn im2col_plan(
    spec: &ConvSpec,
    input: Region,
    dst: Region,
    sx: usize,
    sy: usize,
) -> Result<CopyPlan, CompileError> {
    let (oh, ow) = (spec.oh(), spec.ow());
    let (ox_tiles, oy_tiles) = (ow / sx, oh / sy);
    let (cin_t, kh, kw, s, h, w) = (spec.c_in / T, spec.kh, spec.kw, spec.stride, spec.h, spec.w);
    let kappa_total = cin_t * kh * kw;
    let mut window = ReuseWindow::new();
    let mut reads = Vec::with_capacity(oy_tiles * ox_tiles * kappa_total * T);
    let mut writes = Vec::with_capacity(oy_tiles * ox_tiles * kappa_total * T);
    for oy_i in 0..oy_tiles {
        for ox_i in 0..ox_tiles {
            for ci in 0..cin_t {
                for ky in 0..kh {
                    for kx in 0..kw {
                        for p in 0..T {
                            let dx = p % sx;
                            let dy = p / sx;
                            let iy = (oy_i * sy + dy) * s + ky;
                            let ix = (ox_i * sx + dx) * s + kx;
                            let src = input.base + (((ci * h + iy) * w + ix) * T) as u64;
                            let idx = match window.find(src) {
                                Some(idx) => idx,
                                None => {
                                    let idx = plan_index(reads.len())?;
                                    reads.push(src);
                                    window.push(src, idx);
                                    idx
                                }
                            };
                            writes.push(WriteSource::Word(idx));
                        }
                    }
                }
            }
        }
    }
    // The window leaves fewer reads than writes: keep only what is used.
    reads.shrink_to_fit();
    Ok(CopyPlan {
        name: "explicit-im2col".into(),
        read_mode: input.mode,
        write_mode: dst.mode,
        reads,
        write_base: dst.base,
        writes,
        gathers: Vec::new(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compile;
    use dm_mem::AddressingMode;
    use dm_sim::SplitMix64;
    use dm_workloads::synthetic_suite;
    use std::collections::VecDeque;

    /// A pre-pass as one word list: per write, its address and the offset
    /// into the concatenated read words of each of its bytes.
    type WordList = (Vec<u64>, Vec<(u64, Vec<usize>)>);

    /// The word list a compact plan stands for.
    fn expand(plan: &CopyPlan) -> WordList {
        let writes = (0..)
            .zip(&plan.writes)
            .map(|(i, &source)| {
                (
                    plan.write_addr(i, T),
                    plan.source_bytes(source, T).collect(),
                )
            })
            .collect();
        (plan.reads.clone(), writes)
    }

    /// Reference explicit transpose: every write listed with its address
    /// and its own gather vector.
    fn transpose_oracle(src: Region, dst: Region, m: usize, k: usize) -> WordList {
        let words = (m * k / T) as u64;
        let reads: Vec<u64> = (0..words).map(|i| src.base + i * 8).collect();
        let (mtiles, ktiles) = (m / T, k / T);
        let mut writes = Vec::new();
        for mt_i in 0..mtiles {
            for kt_i in 0..ktiles {
                for r in 0..T {
                    let dst_addr = dst.base + ((mt_i * ktiles + kt_i) * T * T + r * T) as u64;
                    let gather: Vec<usize> = (0..T)
                        .map(|c| (kt_i * mtiles + mt_i) * T * T + c * T + r)
                        .collect();
                    writes.push((dst_addr, gather));
                }
            }
        }
        (reads, writes)
    }

    /// Reference explicit im2col: the 16-word reuse window as a
    /// `VecDeque` scanned front to back, every write listed with its
    /// address.
    fn im2col_oracle(
        spec: &ConvSpec,
        input: Region,
        dst: Region,
        sx: usize,
        sy: usize,
    ) -> WordList {
        let (oh, ow) = (spec.oh(), spec.ow());
        let (ox_tiles, oy_tiles) = (ow / sx, oh / sy);
        let (cin_t, kh, kw, s, h, w) =
            (spec.c_in / T, spec.kh, spec.kw, spec.stride, spec.h, spec.w);
        let kappa_total = cin_t * kh * kw;
        let mut window: VecDeque<(u64, usize)> = VecDeque::with_capacity(16);
        let mut reads = Vec::new();
        let mut writes = Vec::new();
        for oy_i in 0..oy_tiles {
            for ox_i in 0..ox_tiles {
                for ci in 0..cin_t {
                    for ky in 0..kh {
                        for kx in 0..kw {
                            let kappa = kx + kw * (ky + kh * ci);
                            let tile = (oy_i * ox_tiles + ox_i) * kappa_total + kappa;
                            for p in 0..T {
                                let iy = (oy_i * sy + p / sx) * s + ky;
                                let ix = (ox_i * sx + p % sx) * s + kx;
                                let src = input.base + (((ci * h + iy) * w + ix) * T) as u64;
                                let idx = match window.iter().find(|(a, _)| *a == src) {
                                    Some(&(_, idx)) => idx,
                                    None => {
                                        let idx = reads.len();
                                        reads.push(src);
                                        if window.len() == 16 {
                                            window.pop_front();
                                        }
                                        window.push_back((src, idx));
                                        idx
                                    }
                                };
                                let addr = dst.base + (tile * T * T + p * T) as u64;
                                writes.push((addr, (idx * T..(idx + 1) * T).collect()));
                            }
                        }
                    }
                }
            }
        }
        (reads, writes)
    }

    /// The destination region a compiled plan writes.
    fn destination(plan: &CopyPlan) -> Region {
        Region {
            base: plan.write_base,
            len: (plan.writes.len() * T) as u64,
            mode: plan.write_mode,
        }
    }

    #[test]
    fn compact_plans_expand_to_the_fig7_word_lists() {
        let mem = MemConfig::default();
        let mut checked = [0usize; 2];
        for (seed, workload) in synthetic_suite().into_iter().enumerate().step_by(5) {
            let data = WorkloadData::generate(workload, seed as u64);
            for step in 1..=4 {
                let features = FeatureSet::ablation_step(step);
                let program = compile(&data, &features, &mem, true, BufferDepths::default())
                    .expect("the fig7 slice compiles");
                let src = program.images[0].region;
                for plan in &program.prepasses {
                    let oracle = match workload {
                        Workload::Gemm(g) => {
                            checked[0] += 1;
                            transpose_oracle(src, destination(plan), g.m, g.k)
                        }
                        Workload::Conv(c) => {
                            checked[1] += 1;
                            // Steps ①–④ lack mode switching: one linear space.
                            let (sx, sy) = choose_pixel_tiling(&c, mem.num_banks())
                                .expect("compiled, so tiled");
                            im2col_oracle(&c, src, destination(plan), sx, sy)
                        }
                        Workload::Pool(_) => unreachable!("pooling needs no pre-pass"),
                    };
                    assert!(
                        expand(plan) == oracle,
                        "{workload} step {step}: {}",
                        plan.name
                    );
                }
            }
        }
        assert!(
            checked.iter().all(|&n| n > 0),
            "both passes covered: {checked:?}"
        );
    }

    #[test]
    fn compact_plans_expand_to_seeded_word_lists() {
        let mut rng = SplitMix64::new(0x1a2c);
        let mut draw = |lo: i64, hi: i64| rng.between(lo, hi) as usize;
        let region = |base: usize, mode| Region {
            base: base as u64 * 8,
            len: 0,
            mode,
        };
        let grouped = AddressingMode::GroupedInterleaved { group_banks: 8 };
        for case in 0..48 {
            let (m, k) = (8 * draw(1, 8), 8 * draw(1, 8));
            let (src, dst) = (region(draw(0, 64), grouped), region(draw(64, 128), grouped));
            let plan = transpose_plan(src, dst, m, k).unwrap();
            assert!(
                expand(&plan) == transpose_oracle(src, dst, m, k),
                "case {case}: transpose {m}x{k}"
            );

            let (sx, s, kh, kw) = (1 << draw(0, 3), draw(1, 2), draw(1, 5), draw(1, 5));
            let sy = T / sx;
            let (oh, ow) = (sy * draw(1, 3), sx * draw(1, 3));
            let spec = ConvSpec::new(
                (oh - 1) * s + kh,
                (ow - 1) * s + kw,
                8 * draw(1, 3),
                8 * draw(1, 2),
                kh,
                kw,
                s,
            );
            let (input, dst) = (
                region(draw(0, 64), grouped),
                region(draw(4096, 8192), grouped),
            );
            let plan = im2col_plan(&spec, input, dst, sx, sy).unwrap();
            assert!(
                expand(&plan) == im2col_oracle(&spec, input, dst, sx, sy),
                "case {case}: im2col {spec} at {sx}x{sy}"
            );
        }
    }

    #[test]
    fn writes_are_plain_data() {
        assert!(std::mem::size_of::<WriteSource>() <= 8);
        // A `Copy` type owns no heap allocation, so no write allocates.
        fn plain<S: Copy>() {}
        plain::<WriteSource>();
    }

    #[test]
    fn plan_indices_beyond_32_bits_are_a_typed_error() {
        let max = usize::try_from(u32::MAX).expect("a 64-bit host");
        assert_eq!(plan_index(max), Ok(u32::MAX));
        let index = max + 1;
        assert_eq!(plan_index(index), Err(CompileError::PlanIndex { index }));
    }
}
