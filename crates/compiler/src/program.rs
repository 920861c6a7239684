//! The compiler's output: a fully lowered workload program.

use datamaestro::{DesignConfig, RuntimeConfig};
use dm_accel::{GemmArrayConfig, RescaleParams};
use dm_mem::AddressingMode;
use dm_sim::{OperandPort, Port};
use dm_workloads::{layout, Workload, WorkloadData};

use crate::features::FeatureSet;
use crate::placement::Region;

/// An operand image to preload into the scratchpad before the run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct OperandImage {
    /// Operand name (for traces and reports).
    pub name: String,
    /// Where (and under which view) the image lives.
    pub region: Region,
    /// The raw bytes.
    pub bytes: Vec<u8>,
}

/// Where a copied word's bytes come from in a [`CopyPlan`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WriteSource {
    /// The destination word is a verbatim copy of read number `i`.
    Word(usize),
    /// Each destination byte is gathered from a byte offset into the
    /// concatenation of all read words (byte-level shuffles, e.g.
    /// transposition).
    Gather(Vec<usize>),
}

/// A memory-to-memory transformation pass executed by the system's copy
/// engine when an on-the-fly feature is unavailable (explicit transpose,
/// explicit im2col, bias materialization).
///
/// The plan is word-granular: `reads[i]` is the byte address of the `i`-th
/// word to fetch; each `(addr, source)` in `writes` stores one word whose
/// content derives from completed reads. Cycle cost and access counts come
/// from replaying the plan through the simulated memory subsystem.
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
    /// Destination words.
    pub writes: Vec<(u64, WriteSource)>,
}

impl CopyPlan {
    /// Total words moved (reads + writes) — the pass's memory access count.
    #[must_use]
    pub fn words_moved(&self) -> u64 {
        (self.reads.len() + self.writes.len()) as u64
    }
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
/// the schedule.
#[derive(Debug, Clone)]
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
    /// Operand images to preload.
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
            writes: vec![
                (100, WriteSource::Word(2)),
                (108, WriteSource::Gather(vec![0, 1, 2, 3, 8, 9, 10, 11])),
            ],
        };
        assert_eq!(plan.words_moved(), 5);
    }
}
