//! The functional executor: the data half of a run.
//!
//! Simulated timing never depends on data. The AGUs produce the addresses,
//! arbitration depends only on those addresses, and no operand value steers
//! control — the paper's decoupled access/execute split. So the cycle loop
//! carries header tokens only, and this module produces the bytes: it walks
//! the compiled program in program order over a [`Scratchpad`]. It preloads
//! the operand images, applies the prepass [`CopyPlan`]s, then for every PE
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
use dm_compiler::{CompiledWorkload, CopyPlan, OperandImage, Region, StreamPlan, WriteSource};
use dm_mem::{Addr, AddressRemapper, BankLocation, MemConfig, Scratchpad};
use dm_sim::{OperandPort, Port};
use dm_workloads::Workload;

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

/// A scratchpad holding the host-preloaded operand images.
fn preloaded(mem: &MemConfig, images: &[OperandImage]) -> Result<Scratchpad, SystemError> {
    let mut pad = Scratchpad::new(*mem);
    for image in images {
        let remap = AddressRemapper::new(mem, image.region.mode)?;
        pad.host_write(&remap, Addr::new(image.region.base), &image.bytes)?;
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
    for (addr, source) in &plan.writes {
        match source {
            WriteSource::Word(i) => word.copy_from_slice(&words[i * width..][..width]),
            WriteSource::Gather(offsets) => {
                for (byte, &off) in word.iter_mut().zip(offsets) {
                    *byte = words[off];
                }
            }
        }
        let loc = write_remap.map_byte(Addr::new(*addr))?;
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
/// writes a word it also reads; configuration and memory errors as
/// [`run_compiled`](crate::run_compiled) reports them.
pub(crate) fn execute(
    mem: &MemConfig,
    program: &CompiledWorkload,
) -> Result<Execution, SystemError> {
    let mut pad = preloaded(mem, &program.images)?;
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
    use dm_compiler::compile;
    use dm_workloads::{GemmSpec, WorkloadData};

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
        let execution = execute(&config.mem, &program).unwrap();
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

    #[test]
    fn a_tile_beyond_the_program_is_a_mismatch() {
        assert_eq!(
            check_tile(&[], 0, TileDigest::EMPTY),
            Err(SystemError::StreamMismatch { tile: 0 })
        );
    }
}
