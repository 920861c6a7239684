//! The functional executor: the data half of a run.
//!
//! Simulated timing never depends on data. The AGUs produce the addresses,
//! arbitration depends only on those addresses, and no operand value steers
//! control — the paper's decoupled access/execute split. So the cycle loop
//! carries header tokens only, and this module produces the bytes: it walks
//! the compiled program in program order over a [`Scratchpad`]. It packs
//! the operand images from the run's [`WorkloadData`] and preloads them,
//! applies the prepass [`CopyPlan`]s, then for every PE
//! fire reads the operand words and writes the result words through each
//! [`StreamPlan`]'s own [`bind_pattern`] binding — its AGUs, its
//! [`AddressRemapper`] and its extension cascade — around
//! [`GemmDatapath::step`] and the [`Quantizer`] (or the pooling system's
//! max unit).
//!
//! Program order is the loop's order: every stream is a FIFO, so the k-th
//! word the loop pops from a port is the k-th address its pattern
//! generates. Reading a word at any time instead of at its grant is sound
//! when no phase writes a word it also reads, so the executor rejects a
//! program whose exact read and write word footprints overlap
//! ([`SystemError::FootprintOverlap`]). It also digests, fire by fire, the
//! word addresses consumed from the operand ports and produced to OUT,
//! folded into one digest per output tile so that the record is as small
//! as the output.
//! The cycle loop folds the same digest from the addresses its channels pop
//! and push and checks it tile by tile ([`SystemError::StreamMismatch`]).

use datamaestro::{bind_pattern, ExtensionScratch, StreamBinding};
use dm_accel::{GemmArrayConfig, GemmDatapath, Quantizer};
use dm_compiler::{check_operands, CompiledWorkload, CopyPlan, Region, StreamPlan};
use dm_mem::{Addr, AddressRemapper, BankLocation, MemConfig, Scratchpad};
use dm_sim::{OperandPort, Port};
use dm_workloads::{Workload, WorkloadData};

use crate::error::SystemError;

/// Order-sensitive digest of the word addresses the fires of one output
/// tile consume and produce: fire by fire, each in port order (the operand
/// readers, then OUT).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct TileDigest(u64);

impl TileDigest {
    pub(crate) const EMPTY: TileDigest = TileDigest(0xcbf2_9ce4_8422_2325);

    /// Folds the next word address in.
    #[inline]
    pub(crate) fn fold(&mut self, addr: u64) {
        self.0 = (self.0.rotate_left(5) ^ addr).wrapping_mul(0x9e37_79b9_7f4a_7c15);
    }
}

/// Checks the loop's digest of output tile `tile` against the executor's.
///
/// # Errors
///
/// [`SystemError::StreamMismatch`] if they differ.
#[inline]
pub(crate) fn check_tile(expected: &[u64], tile: u64, got: TileDigest) -> Result<(), SystemError> {
    if expected.get(tile as usize) == Some(&got.0) {
        Ok(())
    } else {
        Err(SystemError::StreamMismatch { tile })
    }
}

/// Checks the bytes of `region` in `pad` against the golden `expected`.
///
/// # Errors
///
/// [`SystemError::OutputMismatch`] at the first differing byte; memory
/// errors as the read reports them.
pub(crate) fn check_output(
    pad: &Scratchpad,
    region: &Region,
    expected: &[u8],
) -> Result<(), SystemError> {
    let remap = AddressRemapper::new(pad.config(), region.mode)?;
    let got = pad.host_read(&remap, Addr::new(region.base), region.len as usize)?;
    match got.iter().zip(expected).position(|(g, e)| g != e) {
        None => Ok(()),
        Some(first_diff) => Err(SystemError::OutputMismatch {
            first_diff,
            expected: expected[first_diff],
            got: got[first_diff],
        }),
    }
}

/// The words one phase reads and writes, as bitsets over the physical word
/// slots (bank-major).
struct Footprint {
    rows: usize,
    reads: Vec<u64>,
    writes: Vec<u64>,
}

impl Footprint {
    fn new(mem: &MemConfig) -> Self {
        let words = (mem.num_banks() * mem.rows_per_bank()).div_ceil(64);
        Footprint {
            rows: mem.rows_per_bank(),
            reads: vec![0; words],
            writes: vec![0; words],
        }
    }

    #[inline]
    fn read(&mut self, loc: BankLocation) {
        let slot = loc.bank * self.rows + loc.row;
        self.reads[slot / 64] |= 1 << (slot % 64);
    }

    #[inline]
    fn write(&mut self, loc: BankLocation) {
        let slot = loc.bank * self.rows + loc.row;
        self.writes[slot / 64] |= 1 << (slot % 64);
    }

    /// Rejects the phase if any word is both read and written.
    fn check(&self, phase: &str) -> Result<(), SystemError> {
        let Some((i, both)) = self
            .reads
            .iter()
            .zip(&self.writes)
            .map(|(r, w)| r & w)
            .enumerate()
            .find(|&(_, both)| both != 0)
        else {
            return Ok(());
        };
        let slot = i * 64 + both.trailing_zeros() as usize;
        Err(SystemError::FootprintOverlap {
            phase: phase.to_owned(),
            bank: slot / self.rows,
            row: slot % self.rows,
        })
    }
}

/// One stream of the program, walked in program order.
struct Stream {
    binding: StreamBinding,
    /// The channel words of the current wide word, in channel order.
    word: Vec<u8>,
    scratch: ExtensionScratch,
}

impl Stream {
    fn new(plan: &StreamPlan, mem: &MemConfig) -> Result<Self, SystemError> {
        Ok(Stream {
            binding: bind_pattern(&plan.design, &plan.runtime, mem)?,
            word: Vec::new(),
            scratch: ExtensionScratch::default(),
        })
    }

    /// The temporal address of the next wide word.
    fn next_temporal(&mut self) -> u64 {
        self.binding
            .temporal
            .next_address()
            .expect("the program moves no more words than its pattern generates")
    }

    /// Gathers the next wide word from the channels and runs it through the
    /// extension cascade.
    fn read(&mut self, pad: &Scratchpad, fp: &mut Footprint, digest: &mut TileDigest) -> &[u8] {
        let ta = self.next_temporal();
        let StreamBinding {
            remapper,
            spatial,
            chain,
            ..
        } = &self.binding;
        self.word.clear();
        for c in 0..spatial.num_channels() {
            let addr = spatial.channel_address(ta, c);
            digest.fold(addr);
            let loc = map(remapper, addr);
            fp.read(loc);
            self.word.extend_from_slice(pad.read_row(loc));
        }
        chain.process_into(&self.word, &mut self.scratch)
    }

    /// Runs `tile` through the extension cascade and scatters it across the
    /// channels to the next wide word's addresses.
    fn write(
        &mut self,
        pad: &mut Scratchpad,
        tile: &[u8],
        fp: &mut Footprint,
        digest: &mut TileDigest,
    ) {
        let ta = self.next_temporal();
        let width = pad.config().bank_width_bytes();
        let StreamBinding {
            remapper,
            spatial,
            chain,
            ..
        } = &self.binding;
        let word = chain.process_into(tile, &mut self.scratch);
        for (c, chunk) in word.chunks_exact(width).enumerate() {
            let addr = spatial.channel_address(ta, c);
            digest.fold(addr);
            let loc = map(remapper, addr);
            fp.write(loc);
            pad.write_row_full(loc, chunk);
        }
    }
}

/// Maps a pattern address, which [`bind_pattern`] proved aligned and in
/// bounds.
fn map(remapper: &AddressRemapper, addr: u64) -> BankLocation {
    remapper
        .map_byte(Addr::new(addr))
        .expect("pattern addresses are validated at binding")
}

/// What a functional run produced.
pub(crate) struct Execution {
    /// The scratchpad after the run.
    pub(crate) pad: Scratchpad,
    /// The digest of every output tile's fires, in tile order.
    pub(crate) tiles: Vec<u64>,
}

/// A scratchpad holding `program`'s operand images, packed from `data`
/// and host-preloaded.
fn preloaded(
    mem: &MemConfig,
    program: &CompiledWorkload,
    data: &WorkloadData,
) -> Result<Scratchpad, SystemError> {
    check_operands(program.workload, data)?;
    let mut pad = Scratchpad::new(*mem);
    for image in &program.images {
        let remap = AddressRemapper::new(mem, image.region.mode)?;
        pad.host_write(
            &remap,
            Addr::new(image.region.base),
            &image.layout.pack(data),
        )?;
    }
    Ok(pad)
}

/// Applies one prepass: every read word, then every write word built from
/// them.
pub(crate) fn apply_copy(pad: &mut Scratchpad, plan: &CopyPlan) -> Result<(), SystemError> {
    let mem = *pad.config();
    let read_remap = AddressRemapper::new(&mem, plan.read_mode)?;
    let write_remap = AddressRemapper::new(&mem, plan.write_mode)?;
    let width = mem.bank_width_bytes();
    let mut fp = Footprint::new(&mem);
    let mut words = Vec::with_capacity(plan.reads.len() * width);
    for &addr in &plan.reads {
        let loc = read_remap.map_byte(Addr::new(addr))?;
        fp.read(loc);
        words.extend_from_slice(pad.read_row(loc));
    }
    let mut word = vec![0; width];
    for (i, &source) in plan.writes.iter().enumerate() {
        for (byte, off) in word.iter_mut().zip(plan.source_bytes(source, width)) {
            *byte = words[off];
        }
        let loc = write_remap.map_byte(Addr::new(plan.write_addr(i, width)))?;
        fp.write(loc);
        pad.write_row_full(loc, &word);
    }
    fp.check(&format!("prepass:{}", plan.name))
}

/// The compute unit between a fire's operand reads and its output write.
enum Unit {
    /// The GeMM array, then the quantizer when the output is int8.
    Gemm {
        datapath: GemmDatapath,
        quant: Option<Quantizer>,
    },
    /// The pooling system's elementwise max over a tile's window tiles.
    Max { acc: Vec<u8> },
}

impl Unit {
    fn new(program: &CompiledWorkload) -> Self {
        if let Workload::Pool(_) = program.workload {
            return Unit::Max { acc: Vec::new() };
        }
        let array = GemmArrayConfig::paper();
        Unit::Gemm {
            datapath: GemmDatapath::new(array, program.k_steps),
            quant: program
                .quantized
                .then(|| Quantizer::uniform(array.m_unroll, array.n_unroll, program.rescale)),
        }
    }

    /// One fire on the operand tiles read this fire, in [`OperandPort`]
    /// order; the finished output tile on a tile's last k-step.
    fn fire(&mut self, operands: [Option<&[u8]>; 3], first: bool, last: bool) -> Option<&[u8]> {
        match self {
            Unit::Gemm { datapath, quant } => {
                let [a, b, c] = operands;
                let both = "A and B move on every fire";
                let d_tile = datapath.step(a.expect(both), b.expect(both), c)?;
                Some(match quant {
                    Some(quant) => quant.process(d_tile),
                    None => d_tile,
                })
            }
            Unit::Max { acc } => {
                let tile = operands[0].expect("A moves on every fire");
                if first {
                    acc.clear();
                    acc.resize(tile.len(), i8::MIN as u8);
                }
                for (acc, &b) in acc.iter_mut().zip(tile) {
                    *acc = (*acc as i8).max(b as i8) as u8;
                }
                last.then_some(acc.as_slice())
            }
        }
    }
}

/// Runs a compiled program functionally: every fire reads the operand
/// words its ports move, runs the compute unit and, on a tile's last
/// k-step, writes the output tile.
///
/// # Errors
///
/// [`SystemError::FootprintOverlap`] if a prepass or the compute phase
/// writes a word it also reads; [`SystemError::Compile`] if an operand of
/// `data` does not match the program's shape; configuration and memory
/// errors as [`run_compiled`](crate::run_compiled) reports them.
pub(crate) fn execute(
    mem: &MemConfig,
    program: &CompiledWorkload,
    data: &WorkloadData,
) -> Result<Execution, SystemError> {
    let mut pad = preloaded(mem, program, data)?;
    for plan in &program.prepasses {
        apply_copy(&mut pad, plan)?;
    }
    let mut readers = program
        .readers
        .iter()
        .map(|plan| Stream::new(plan, mem))
        .collect::<Result<Vec<_>, _>>()?;
    let mut out = Stream::new(&program.out, mem)?;
    let mut unit = Unit::new(program);
    let mut fp = Footprint::new(mem);
    let k = program.k_steps;
    let mut tiles = Vec::with_capacity(program.total_output_tiles as usize);
    let mut digest = TileDigest::EMPTY;
    for fire in 0..program.total_steps() {
        let k_step = fire % k;
        if k_step == 0 {
            digest = TileDigest::EMPTY;
        }
        let mut operands = [None; 3];
        for ((port, stream), operand) in
            OperandPort::ALL.iter().zip(&mut readers).zip(&mut operands)
        {
            if port.port().moves_on(k_step, k) {
                *operand = Some(stream.read(&pad, &mut fp, &mut digest));
            }
        }
        if let Some(tile) = unit.fire(operands, k_step == 0, Port::Out.moves_on(k_step, k)) {
            out.write(&mut pad, tile, &mut fp, &mut digest);
            tiles.push(digest.0);
        }
    }
    fp.check("compute")?;
    Ok(Execution { pad, tiles })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::system::SystemConfig;
    use dm_compiler::{compile, CompileError};
    use dm_workloads::GemmSpec;

    /// The word addresses of every wide word `plan` moves, in order.
    fn words(plan: &StreamPlan, mem: &MemConfig) -> Vec<Vec<u64>> {
        let mut binding = bind_pattern(&plan.design, &plan.runtime, mem).unwrap();
        let mut words = Vec::new();
        while let Some(ta) = binding.temporal.next_address() {
            let channels = binding.spatial.num_channels();
            words.push(
                (0..channels)
                    .map(|c| binding.spatial.channel_address(ta, c))
                    .collect(),
            );
        }
        words
    }

    /// The loop's side of the check, replayed from the streams' patterns:
    /// per fire, the A and B words popped, the C word on a tile's first k
    /// step and the OUT word pushed on its last — with the A pops of fires
    /// `swap.0` and `swap.1` exchanged. One digest per output tile.
    fn loop_digests(
        program: &CompiledWorkload,
        mem: &MemConfig,
        swap: (u64, u64),
    ) -> Vec<TileDigest> {
        let [a, b, c, out] = [
            &program.readers[0],
            &program.readers[1],
            &program.readers[2],
            &program.out,
        ]
        .map(|p| words(p, mem));
        let k = program.k_steps;
        let mut tiles = Vec::new();
        let mut digest = TileDigest::EMPTY;
        for fire in 0..program.total_steps() {
            let a_fire = match fire {
                f if f == swap.0 => swap.1,
                f if f == swap.1 => swap.0,
                f => f,
            };
            if fire % k == 0 {
                digest = TileDigest::EMPTY;
            }
            let mut fold = |word: &[u64]| word.iter().for_each(|&addr| digest.fold(addr));
            fold(&a[a_fire as usize]);
            fold(&b[fire as usize]);
            if fire % k == 0 {
                fold(&c[(fire / k) as usize]);
            }
            if fire % k == k - 1 {
                fold(&out[(fire / k) as usize]);
                tiles.push(digest);
            }
        }
        tiles
    }

    /// The first tile whose loop digest the executor's digests reject.
    fn first_rejected(expected: &[u64], got: &[TileDigest]) -> Option<SystemError> {
        (0u64..)
            .zip(got)
            .find_map(|(tile, &digest)| check_tile(expected, tile, digest).err())
    }

    #[test]
    fn a_swapped_pop_fails_the_stream_digest_check() {
        let config = SystemConfig::default();
        let data = WorkloadData::generate(GemmSpec::new(16, 16, 32).into(), 5);
        let program = compile(&data, &config.features, &config.mem, true, config.depths).unwrap();
        assert_eq!(program.k_steps, 4);
        let execution = execute(&config.mem, &program, &data).unwrap();
        assert_eq!(execution.tiles.len() as u64, program.total_output_tiles);
        let in_order = loop_digests(&program, &config.mem, (0, 0));
        assert_eq!(first_rejected(&execution.tiles, &in_order), None);
        // Two A pops swapped inside the second tile, then across its end.
        for (swap, tile) in [((5, 6), 1), ((7, 8), 1)] {
            let swapped = loop_digests(&program, &config.mem, swap);
            assert_eq!(
                first_rejected(&execution.tiles, &swapped),
                Some(SystemError::StreamMismatch { tile }),
                "swap {swap:?}"
            );
        }
    }

    /// The bytes the `dm_workloads::layout` packers give the operand image
    /// `name` of a program compiled for `data`.
    fn packed(name: &str, data: &WorkloadData) -> Vec<u8> {
        use dm_workloads::layout;
        let tile_rows = |bytes: Vec<u8>, r: usize| -> Vec<u8> {
            bytes
                .chunks_exact(64)
                .flat_map(|t| t[r * 8..][..8].to_vec())
                .collect()
        };
        let lane = |j: usize| -> Vec<u8> {
            let bias = layout::pack_bias(&data.bias);
            bias.chunks_exact(32)
                .flat_map(|g| g[j * 8..][..8].to_vec())
                .collect()
        };
        match (data.workload, name) {
            (Workload::Gemm(g), "A") if g.transposed_a => {
                layout::pack_gemm_a_transposed(&data.a, g.m, g.k)
            }
            (Workload::Gemm(g), "A") => layout::pack_gemm_a(&data.a, g.m, g.k),
            (Workload::Gemm(g), "B") => layout::pack_gemm_b(&data.b, g.k, g.n),
            (Workload::Gemm(g), "C-materialized") => {
                let rows: Vec<i32> = (0..g.m).flat_map(|_| data.bias.clone()).collect();
                layout::pack_gemm_cd(&rows, g.m, g.n)
            }
            (Workload::Conv(c), "input") => layout::pack_conv_input(&data.a, c.h, c.w, c.c_in),
            (Workload::Conv(c), "weights") => {
                layout::pack_conv_weights(&data.b, c.c_out, c.kh, c.kw, c.c_in)
            }
            (Workload::Conv(c), "C-materialized") => {
                let pixels = c.oh() * c.ow();
                let full: Vec<i32> = (0..pixels).flat_map(|_| data.bias.clone()).collect();
                layout::pack_conv_out_i32(&full, c.oh(), c.ow(), c.c_out)
            }
            (Workload::Pool(p), "pool-input") => layout::pack_conv_input(&data.a, p.h, p.w, p.c),
            (_, "bias") => layout::pack_bias(&data.bias),
            (Workload::Gemm(g), slice) => {
                let (operand, index) = slice.trim_end_matches(']').split_once('[').unwrap();
                let index: usize = index.parse().unwrap();
                match operand {
                    "A" => tile_rows(layout::pack_gemm_a(&data.a, g.m, g.k), index),
                    "B" => tile_rows(layout::pack_gemm_b(&data.b, g.k, g.n), index),
                    "bias" => lane(index),
                    other => panic!("no operand {other}"),
                }
            }
            other => panic!("no packer for {other:?}"),
        }
    }

    /// Programs describe shapes: two seeds of one workload compile to
    /// equal programs at every ablation step, and the images the executor
    /// preloads are the layout packers' bytes of the run's own operands.
    #[test]
    fn programs_are_value_free_and_pack_at_execution() {
        use dm_compiler::{compile_gemm_private_banks, FeatureSet};
        use dm_workloads::{ConvSpec, PoolSpec};
        let mem = SystemConfig::default().mem;
        let workloads: [Workload; 5] = [
            GemmSpec::new(16, 24, 32).into(),
            GemmSpec::transposed(24, 16, 16).into(),
            ConvSpec::new(10, 10, 16, 8, 3, 3, 1).into(),
            ConvSpec::new(9, 9, 8, 16, 3, 3, 2).into(),
            PoolSpec::new(10, 10, 8, 3, 1).into(),
        ];
        for step in 1..=6 {
            let features = FeatureSet::ablation_step(step);
            let depths = SystemConfig::default().depths;
            let nima =
                |data: &WorkloadData| compile_gemm_private_banks(data, &features, &mem, depths);
            let compiled = |data: &WorkloadData| compile(data, &features, &mem, true, depths);
            type Compiler<'a> = &'a dyn Fn(&WorkloadData) -> Result<CompiledWorkload, CompileError>;
            let cases = workloads
                .iter()
                .map(|&w| (w, &compiled as Compiler<'_>))
                // The NIMA placement needs the Broadcaster C port.
                .chain(
                    features
                        .broadcaster
                        .then_some((workloads[0], &nima as Compiler<'_>)),
                );
            for (workload, compiler) in cases {
                let [data, other] = [1, 2].map(|seed| WorkloadData::generate(workload, seed));
                let program = compiler(&data).unwrap();
                assert_eq!(compiler(&other).unwrap(), program, "{workload} step {step}");
                let pad = preloaded(&mem, &program, &data).unwrap();
                for image in &program.images {
                    let remap = AddressRemapper::new(&mem, image.region.mode).unwrap();
                    let len = image.region.len as usize;
                    let got = pad.host_read(&remap, Addr::new(image.region.base), len);
                    assert_eq!(
                        got.unwrap(),
                        packed(&image.name, &data),
                        "{workload} step {step}: {}",
                        image.name
                    );
                }
            }
        }
    }

    /// The run's operands must match the program's shape.
    #[test]
    fn operands_of_another_shape_are_rejected() {
        let config = SystemConfig::default();
        let data = WorkloadData::generate(GemmSpec::new(16, 16, 16).into(), 1);
        let program = compile(&data, &config.features, &config.mem, true, config.depths).unwrap();
        let other = WorkloadData::generate(GemmSpec::new(16, 16, 8).into(), 1);
        assert!(matches!(
            execute(&config.mem, &program, &other),
            Err(SystemError::Compile(CompileError::InputLength { .. }))
        ));
    }

    #[test]
    fn a_tile_beyond_the_program_is_a_mismatch() {
        assert_eq!(
            check_tile(&[], 0, TileDigest::EMPTY),
            Err(SystemError::StreamMismatch { tile: 0 })
        );
    }
}
