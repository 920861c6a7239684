//! The compiler's output: a fully lowered workload program.

use datamaestro::{DesignConfig, RuntimeConfig};
use dm_accel::{GemmArrayConfig, RescaleParams};
use dm_mem::AddressingMode;
use dm_sim::{OperandPort, Port};
use dm_workloads::{layout, Workload, WorkloadData};

use crate::error::CompileError;
use crate::features::FeatureSet;
use crate::placement::Region;

/// Tile edge (the array's unrolling in every dimension).
const TILE: usize = 8;

/// An operand image to preload into the scratchpad before the run.
///
/// A program describes shapes, not values: the image names the operand,
/// where it lives and how its bytes are laid out, and
/// [`ImageLayout::pack`] produces the bytes from a [`WorkloadData`] when
/// a functional run needs them.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct OperandImage {
    /// Operand name (for traces and reports).
    pub name: String,
    /// Where (and under which view) the image lives.
    pub region: Region,
    /// How the image's bytes derive from the workload's operands.
    pub layout: ImageLayout,
}

/// The recipe of an [`OperandImage`]: which operand of a [`WorkloadData`]
/// it holds, in which [`layout`] packing, at which shape.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ImageLayout {
    /// The `m×k` A matrix, block-row-major ([`layout::pack_gemm_a`]).
    GemmA {
        /// Rows.
        m: usize,
        /// Columns.
        k: usize,
    },
    /// Aᵀ of the `m×k` A matrix, block-row-major
    /// ([`layout::pack_gemm_a_transposed`]).
    GemmATransposed {
        /// Rows of A.
        m: usize,
        /// Columns of A.
        k: usize,
    },
    /// The `k×n` B matrix, block-row-major ([`layout::pack_gemm_b`]).
    GemmB {
        /// Rows.
        k: usize,
        /// Columns.
        n: usize,
    },
    /// The bias vector ([`layout::pack_bias`]).
    Bias,
    /// The bias replicated over the `m` rows of an `m×n` int32 matrix
    /// ([`layout::pack_gemm_cd`]).
    GemmBiasRows {
        /// Rows.
        m: usize,
        /// Columns (bias values).
        n: usize,
    },
    /// The `h×w×c` channels-last input of a convolution or pooling
    /// ([`layout::pack_conv_input`]).
    ConvInput {
        /// Height.
        h: usize,
        /// Width.
        w: usize,
        /// Channels.
        c: usize,
    },
    /// Convolution weights ([`layout::pack_conv_weights`]).
    ConvWeights {
        /// Output channels.
        c_out: usize,
        /// Kernel height.
        kh: usize,
        /// Kernel width.
        kw: usize,
        /// Input channels.
        c_in: usize,
    },
    /// The bias replicated over every pixel of an `oh×ow×c_out` int32
    /// output ([`layout::pack_conv_out_i32`]).
    ConvBiasPixels {
        /// Output height.
        oh: usize,
        /// Output width.
        ow: usize,
        /// Output channels (bias values).
        c_out: usize,
    },
    /// Private-bank slice `r` of the `m×k` A matrix: row `r` of every
    /// 8×8 tile, tiles in row-major tile order.
    ATileRow {
        /// Tile row.
        r: usize,
        /// Rows.
        m: usize,
        /// Columns.
        k: usize,
    },
    /// Private-bank slice `r` of the `k×n` B matrix, as for
    /// [`ImageLayout::ATileRow`].
    BTileRow {
        /// Tile row.
        r: usize,
        /// Rows.
        k: usize,
        /// Columns.
        n: usize,
    },
    /// Private-bank bias lane `j` of `n` bias values: of every 8-value
    /// group, values `2j` and `2j + 1`, little-endian int32.
    BiasLane {
        /// Lane.
        j: usize,
        /// Bias values.
        n: usize,
    },
}

impl ImageLayout {
    /// The image's bytes for `data`'s operands.
    ///
    /// # Panics
    ///
    /// Panics if an operand of `data` does not hold the values the layout's
    /// shape needs, which [`check_operands`](crate::check_operands)
    /// rejects.
    #[must_use]
    pub fn pack(self, data: &WorkloadData) -> Vec<u8> {
        match self {
            ImageLayout::GemmA { m, k } => layout::pack_gemm_a(&data.a, m, k),
            ImageLayout::GemmATransposed { m, k } => layout::pack_gemm_a_transposed(&data.a, m, k),
            ImageLayout::GemmB { k, n } => layout::pack_gemm_b(&data.b, k, n),
            ImageLayout::Bias => layout::pack_bias(&data.bias),
            ImageLayout::GemmBiasRows { m, n } => {
                let full: Vec<i32> = (0..m * n).map(|i| data.bias[i % n]).collect();
                layout::pack_gemm_cd(&full, m, n)
            }
            ImageLayout::ConvInput { h, w, c } => layout::pack_conv_input(&data.a, h, w, c),
            ImageLayout::ConvWeights {
                c_out,
                kh,
                kw,
                c_in,
            } => layout::pack_conv_weights(&data.b, c_out, kh, kw, c_in),
            ImageLayout::ConvBiasPixels { oh, ow, c_out } => {
                let full: Vec<i32> = (0..oh * ow * c_out).map(|i| data.bias[i % c_out]).collect();
                layout::pack_conv_out_i32(&full, oh, ow, c_out)
            }
            ImageLayout::ATileRow { r, m, k } => tile_row(&data.a, m, k, r),
            ImageLayout::BTileRow { r, k, n } => tile_row(&data.b, k, n, r),
            ImageLayout::BiasLane { j, n } => {
                assert_eq!(data.bias.len(), n, "bias length");
                data.bias
                    .chunks_exact(TILE)
                    .flat_map(|group| group[2 * j..2 * j + 2].iter())
                    .flat_map(|v| v.to_le_bytes())
                    .collect()
            }
        }
    }
}

/// Row `r` of every 8×8 tile of a `rows×cols` row-major int8 matrix, tiles
/// in row-major tile order.
fn tile_row(matrix: &[i8], rows: usize, cols: usize, r: usize) -> Vec<u8> {
    assert_eq!(matrix.len(), rows * cols, "matrix length");
    (r..rows)
        .step_by(TILE)
        .flat_map(|row| matrix[row * cols..][..cols].iter().map(|&v| v as u8))
        .collect()
}

/// Where a copied word's bytes come from in a [`CopyPlan`]. Plain data,
/// at most 8 bytes: a write owns no allocation of its own.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WriteSource {
    /// The destination word is a verbatim copy of read number `i`.
    Word(u32),
    /// Byte `b` of the destination word is byte `gathers[start + b]` of
    /// the concatenation of all read words (byte-level shuffles, e.g.
    /// transposition); the entry holds `start`.
    Gather(u32),
}

/// A memory-to-memory transformation pass executed by the system's copy
/// engine when an on-the-fly feature is unavailable (explicit transpose,
/// explicit im2col).
///
/// The plan is word-granular: `reads[i]` is the byte address of the `i`-th
/// word to fetch. Write `i` stores the destination word at
/// `write_base + i·w`, `w` the bank width in bytes (see
/// [`CopyPlan::write_addr`]), with the content `writes[i]` names. Cycle
/// cost and access counts come from replaying the plan through the
/// simulated memory subsystem.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CopyPlan {
    /// Pass name (e.g. `"explicit-transpose"`).
    pub name: String,
    /// View for the read addresses.
    pub read_mode: AddressingMode,
    /// View for the write addresses.
    pub write_mode: AddressingMode,
    /// Word-aligned byte addresses to read, in issue order.
    pub reads: Vec<u64>,
    /// Byte address of the first destination word; the writes store
    /// consecutive words from here.
    pub write_base: u64,
    /// The content of each destination word, in issue order.
    pub writes: Vec<WriteSource>,
    /// The byte offsets every [`WriteSource::Gather`] indexes, one word
    /// width per gather.
    pub gathers: Vec<u32>,
}

impl CopyPlan {
    /// Total words moved (reads + writes) — the pass's memory access count.
    #[must_use]
    pub fn words_moved(&self) -> u64 {
        (self.reads.len() + self.writes.len()) as u64
    }

    /// Byte address of destination word `i` on `word`-byte banks.
    #[must_use]
    pub fn write_addr(&self, i: usize, word: usize) -> u64 {
        self.write_base + (i * word) as u64
    }

    /// The offsets into the concatenated read words of each byte of a
    /// `word`-byte destination word built by `source`.
    pub fn source_bytes(
        &self,
        source: WriteSource,
        word: usize,
    ) -> impl Iterator<Item = usize> + '_ {
        let (word_bytes, gathered) = match source {
            WriteSource::Word(i) => (i as usize * word..(i as usize + 1) * word, &[][..]),
            WriteSource::Gather(start) => (0..0, &self.gathers[start as usize..][..word]),
        };
        word_bytes.chain(gathered.iter().map(|&off| off as usize))
    }
}

/// A read or gather index of a [`CopyPlan`].
///
/// # Errors
///
/// [`CompileError::PlanIndex`] if `index` does not fit the plan's 32-bit
/// index tables.
pub(crate) fn plan_index(index: usize) -> Result<u32, CompileError> {
    u32::try_from(index).map_err(|_| CompileError::PlanIndex { index })
}

/// One stream port's lowered configuration.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StreamPlan {
    /// Design-time instantiation.
    pub design: DesignConfig,
    /// Per-workload runtime configuration.
    pub runtime: RuntimeConfig,
}

impl StreamPlan {
    /// A stream port from its two configurations.
    #[must_use]
    pub fn new(design: DesignConfig, runtime: RuntimeConfig) -> Self {
        StreamPlan { design, runtime }
    }
}

/// A fully lowered workload, ready for the evaluation system to execute.
///
/// An accelerator is described by its ports: operand readers in
/// [`OperandPort`] order and one writer. Each moves words by the one fire
/// rule, [`Port::moves_on`]; `k_steps` and `total_output_tiles` complete
/// the schedule. A program holds no operand values: compiling two
/// [`WorkloadData`] of one workload gives equal programs.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CompiledWorkload {
    /// The source workload.
    pub workload: Workload,
    /// Features the system was built with.
    pub features: FeatureSet,
    /// Whether the output is quantized through the E stream (int8) or
    /// written raw through the D stream (int32).
    pub quantized: bool,
    /// The operand read streams in [`OperandPort`] order: A (activations /
    /// left matrix), B (weights / right matrix) and C (bias) for GeMM and
    /// convolution; A (the pooling input) alone for pooling.
    pub readers: Vec<StreamPlan>,
    /// Output stream (E when quantized, D otherwise).
    pub out: StreamPlan,
    /// Operand images to preload, as layout recipes.
    pub images: Vec<OperandImage>,
    /// Pre-passes to run before the compute phase.
    pub prepasses: Vec<CopyPlan>,
    /// Temporal K steps (pooling window steps) per output tile.
    pub k_steps: u64,
    /// Total output tiles produced.
    pub total_output_tiles: u64,
    /// Quantization parameter (host CSR write).
    pub rescale: RescaleParams,
    /// Where the result lands.
    pub output_region: Region,
    /// For private-bank (NIMA) placements: one output region per channel
    /// slice. Empty for the standard contiguous layouts.
    pub output_slices: Vec<Region>,
}

impl CompiledWorkload {
    /// Total temporal compute steps (tiles × k-steps) — equals the ideal
    /// cycle count of the workload.
    #[must_use]
    pub fn total_steps(&self) -> u64 {
        self.total_output_tiles * self.k_steps
    }

    /// Every stream with its port: the operand readers, then OUT.
    pub fn ports(&self) -> impl Iterator<Item = (Port, &StreamPlan)> {
        OperandPort::ALL
            .into_iter()
            .map(OperandPort::port)
            .zip(&self.readers)
            .chain([(Port::Out, &self.out)])
    }

    /// Bytes of the tile the accelerator exchanges on `port`: the GeMM
    /// array's A, B and C/D tiles, and an E tile out when quantized. The
    /// max unit takes and yields 8-pixel × 8-channel int8 tiles, which are
    /// the A and E tile sizes.
    #[must_use]
    pub fn tile_bytes(&self, port: Port) -> usize {
        let array = GemmArrayConfig::paper();
        match port {
            Port::A => array.a_tile_bytes(),
            Port::B => array.b_tile_bytes(),
            Port::Out if self.quantized => array.e_tile_bytes(),
            Port::C | Port::Out => array.cd_tile_bytes(),
        }
    }

    /// For private-bank placements: the golden bytes of each output slice.
    ///
    /// # Panics
    ///
    /// Panics if this program has no output slices or is not a quantized
    /// GeMM (the only workload private-bank placement supports).
    #[must_use]
    pub fn expected_output_slice_images(&self, data: &WorkloadData) -> Vec<Vec<u8>> {
        assert!(!self.output_slices.is_empty(), "not a sliced placement");
        let Workload::Gemm(spec) = self.workload else {
            panic!("sliced placement is GeMM-only");
        };
        crate::nima::expected_output_slices(spec, &data.expected_e())
    }

    /// The golden byte image the output region must hold after a correct
    /// run.
    #[must_use]
    pub fn expected_output_image(&self, data: &WorkloadData) -> Vec<u8> {
        match (self.workload, self.quantized) {
            (Workload::Gemm(g), true) => layout::pack_gemm_e(&data.expected_e(), g.m, g.n),
            (Workload::Gemm(g), false) => layout::pack_gemm_cd(&data.expected_d(), g.m, g.n),
            (Workload::Conv(c), true) => {
                layout::pack_conv_out_i8(&data.expected_e(), c.oh(), c.ow(), c.c_out)
            }
            (Workload::Conv(c), false) => {
                layout::pack_conv_out_i32(&data.expected_d(), c.oh(), c.ow(), c.c_out)
            }
            (Workload::Pool(p), _) => {
                layout::pack_conv_out_i8(&data.expected_e(), p.oh(), p.ow(), p.c)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn copy_plan_dependency_tracking() {
        let plan = CopyPlan {
            name: "t".into(),
            read_mode: AddressingMode::FullyInterleaved,
            write_mode: AddressingMode::FullyInterleaved,
            reads: vec![0, 8, 16],
            write_base: 104,
            writes: vec![WriteSource::Word(2), WriteSource::Gather(0)],
            gathers: vec![0, 1, 2, 3, 8, 9, 10, 11],
        };
        assert_eq!(plan.words_moved(), 5);
    }
}
