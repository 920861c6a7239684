//! The DMA-style copy engine used for explicit pre-passes.
//!
//! When the built system lacks an on-the-fly feature (Transposer,
//! Broadcaster, implicit im2col), the compiler emits a [`CopyPlan`] — a
//! memory-to-memory transformation the host must run *before* compute,
//! exactly like the standalone data-manipulation units the paper's
//! introduction criticizes. The engine replays the plan cycle by cycle
//! through the same banked memory and crossbar as the streamers, so its
//! cycles and accesses (and the bank conflicts it suffers) are accounted
//! honestly.
//!
//! The engine has `channels` read and `channels` write ports. Reads issue
//! in plan order; a write may issue once every read it depends on has
//! landed (a scoreboard, not a full barrier, so reads and writes overlap).
//!
//! Like the rest of the cycle loop, the engine models timing only. The
//! words a plan moves are computed by the functional executor, which
//! applies the plan in program order.

use dm_compiler::{CopyPlan, WriteSource};
use dm_mem::{Addr, AddressRemapper, BankLocation, MemOp, MemorySubsystem, RequesterId};

use crate::error::SystemError;

/// Outcome of one copy-plan execution.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct CopyStats {
    /// Cycles the pass took.
    pub cycles: u64,
    /// Words read.
    pub words_read: u64,
    /// Words written.
    pub words_written: u64,
}

/// The copy engine. Its crossbar requesters are registered at system build
/// time (design-time port count, like everything else on the crossbar).
#[derive(Debug)]
pub struct CopyEngine {
    channels: usize,
    /// The first of `channels` contiguous read requesters.
    read_port: RequesterId,
    /// The first of `channels` contiguous write requesters.
    write_port: RequesterId,
    /// Fold memory-round-trip idle cycles into one `advance_idle` jump
    /// (bit-identical stats; see the fast-forward engine in `dm-sim`).
    fast_forward: bool,
}

impl CopyEngine {
    /// Registers `channels` read and `channels` write requesters.
    ///
    /// # Panics
    ///
    /// Panics if `channels` is zero.
    #[must_use]
    pub fn new(mem: &mut MemorySubsystem, channels: usize) -> Self {
        assert!(channels > 0, "copy engine needs at least one channel");
        let mut register = |kind: &str| {
            let ports: Vec<_> = (0..channels)
                .map(|i| mem.register_requester(format!("copy/{kind}{i}")))
                .collect();
            ports[0]
        };
        CopyEngine {
            channels,
            read_port: register("rd"),
            write_port: register("wr"),
            fast_forward: true,
        }
    }

    /// Enables or disables idle-cycle elision (on by default).
    pub fn set_fast_forward(&mut self, enabled: bool) {
        self.fast_forward = enabled;
    }

    /// Number of read (= write) channels.
    #[must_use]
    pub fn channels(&self) -> usize {
        self.channels
    }

    /// Executes one plan to completion.
    ///
    /// # Errors
    ///
    /// Returns [`SystemError::Deadlock`] if the pass exceeds its cycle
    /// budget (a modelling bug) and [`SystemError::Mem`] on address
    /// translation failures.
    pub fn run(
        &mut self,
        mem: &mut MemorySubsystem,
        plan: &CopyPlan,
    ) -> Result<CopyStats, SystemError> {
        let mem_cfg = *mem.config();
        let read_remap = AddressRemapper::new(&mem_cfg, plan.read_mode)?;
        let write_remap = AddressRemapper::new(&mem_cfg, plan.write_mode)?;
        let word = mem_cfg.bank_width_bytes();

        // Which reads have delivered their response, and how many.
        let mut landed = vec![false; plan.reads.len()];
        let mut reads_landed = 0usize;
        // Per-channel pending request awaiting a grant: its location and
        // tag (the read's index; writes echo nothing).
        let mut read_pending: Vec<Option<(BankLocation, u64)>> = vec![None; self.channels];
        let mut write_pending: Vec<Option<(BankLocation, u64)>> = vec![None; self.channels];
        let mut next_read = 0usize;
        let mut next_write = 0usize;
        let mut writes_done = 0usize;
        let mut cycles = 0u64;
        let budget = (plan.reads.len() + plan.writes.len()) as u64 * 20 + 1_000;

        loop {
            // Land responses. The pass ends once every write retired and
            // every read landed: a read no write depends on must not leave
            // a response in flight for the compute loop to receive.
            mem.drain_responses(|resp| {
                landed[resp.tag as usize] = true;
                reads_landed += 1;
            });
            if writes_done == plan.writes.len() && reads_landed == plan.reads.len() {
                break;
            }
            // Issue reads in order.
            for slot in &mut read_pending {
                if slot.is_none() && next_read < plan.reads.len() {
                    let loc = read_remap.map_byte(Addr::new(plan.reads[next_read]))?;
                    *slot = Some((loc, next_read as u64));
                    next_read += 1;
                }
            }
            // Issue writes whose dependencies have landed.
            for slot in &mut write_pending {
                if slot.is_none() && next_write < plan.writes.len() {
                    let source = plan.writes[next_write];
                    if sources_landed(plan, source, &landed, word) {
                        let addr = plan.write_addr(next_write, word);
                        *slot = Some((write_remap.map_byte(Addr::new(addr))?, 0));
                        next_write += 1;
                    }
                }
            }
            let submitted_any = read_pending
                .iter()
                .chain(&write_pending)
                .any(Option::is_some);
            mem.submit_batch(self.read_port, MemOp::Read, read_pending.iter().copied())?;
            mem.submit_batch(self.write_port, MemOp::Write, write_pending.iter().copied())?;
            if self.fast_forward && !submitted_any {
                // Nothing to arbitrate: the engine is waiting for the next
                // in-flight response (or, with nothing in flight, would spin
                // to its deadlock budget). Lockstep would burn one empty
                // `arbitrate` per cycle until that response's due cycle, so
                // jumping straight there is bit-identical — capped so a
                // stuck pass reports the same deadlock cycle count.
                let now = mem.cycle();
                let span = mem
                    .next_due()
                    .map_or(u64::MAX, |due| due.saturating_sub(now).get())
                    .min(budget + 1 - cycles);
                if span >= 1 {
                    mem.advance_idle(span);
                    cycles += span;
                    if cycles > budget {
                        return Err(SystemError::Deadlock {
                            phase: "copy-engine",
                            cycles,
                        });
                    }
                    continue;
                }
            }
            // A grant retires the request it was for: only a pending
            // request was submitted.
            let grants = mem.arbitrate();
            let granted = |port: RequesterId| &grants[port.index()..][..self.channels];
            for (slot, &granted) in read_pending.iter_mut().zip(granted(self.read_port)) {
                if granted {
                    *slot = None;
                }
            }
            for (slot, &granted) in write_pending.iter_mut().zip(granted(self.write_port)) {
                if granted {
                    *slot = None;
                    writes_done += 1;
                }
            }
            cycles += 1;
            if cycles > budget {
                return Err(SystemError::Deadlock {
                    phase: "copy-engine",
                    cycles,
                });
            }
        }
        Ok(CopyStats {
            cycles,
            words_read: plan.reads.len() as u64,
            words_written: plan.writes.len() as u64,
        })
    }
}

/// `true` once every read a write word is built from has landed.
fn sources_landed(plan: &CopyPlan, source: WriteSource, landed: &[bool], word: usize) -> bool {
    match source {
        WriteSource::Word(i) => landed[i as usize],
        WriteSource::Gather(_) => plan
            .source_bytes(source, word)
            .all(|off| landed[off / word]),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::executor::apply_copy;
    use dm_mem::{AddressingMode, MemConfig, Scratchpad};

    fn setup() -> (MemorySubsystem, CopyEngine, Scratchpad) {
        let cfg = MemConfig::new(8, 8, 128).unwrap();
        let mut mem = MemorySubsystem::new(cfg);
        let engine = CopyEngine::new(&mut mem, 4);
        (mem, engine, Scratchpad::new(cfg))
    }

    /// Times `plan` on the engine and applies it functionally to `pad`.
    fn run(
        mem: &mut MemorySubsystem,
        engine: &mut CopyEngine,
        pad: &mut Scratchpad,
        plan: &CopyPlan,
    ) -> CopyStats {
        let stats = engine.run(mem, plan).unwrap();
        apply_copy(pad, plan).unwrap();
        stats
    }

    fn fima() -> AddressingMode {
        AddressingMode::FullyInterleaved
    }

    #[test]
    fn word_copy_moves_data() {
        let (mut mem, mut engine, mut pad) = setup();
        let remap = AddressRemapper::new(mem.config(), fima()).unwrap();
        let src: Vec<u8> = (0..32).collect();
        pad.host_write(&remap, Addr::ZERO, &src).unwrap();
        let plan = CopyPlan {
            name: "copy".into(),
            read_mode: fima(),
            write_mode: fima(),
            reads: vec![0, 8, 16, 24],
            write_base: 1024,
            writes: (0..4).map(WriteSource::Word).collect(),
            gathers: Vec::new(),
        };
        let stats = run(&mut mem, &mut engine, &mut pad, &plan);
        assert_eq!(stats.words_read, 4);
        assert_eq!(stats.words_written, 4);
        assert!(stats.cycles >= 2, "read → write takes at least two cycles");
        let out = pad.host_read(&remap, Addr::new(1024), 32).unwrap();
        assert_eq!(out, src);
    }

    #[test]
    fn gather_shuffles_bytes() {
        let (mut mem, mut engine, mut pad) = setup();
        let remap = AddressRemapper::new(mem.config(), fima()).unwrap();
        pad.host_write(
            &remap,
            Addr::ZERO,
            &[0, 1, 2, 3, 4, 5, 6, 7, 10, 11, 12, 13, 14, 15, 16, 17],
        )
        .unwrap();
        // Interleave bytes of the two source words.
        let plan = CopyPlan {
            name: "shuffle".into(),
            read_mode: fima(),
            write_mode: fima(),
            reads: vec![0, 8],
            write_base: 512,
            writes: vec![WriteSource::Gather(0)],
            gathers: vec![0, 8, 1, 9, 2, 10, 3, 11],
        };
        run(&mut mem, &mut engine, &mut pad, &plan);
        let out = pad.host_read(&remap, Addr::new(512), 8).unwrap();
        assert_eq!(out, vec![0, 10, 1, 11, 2, 12, 3, 13]);
    }

    #[test]
    fn replication_reads_once_writes_many() {
        let (mut mem, mut engine, mut pad) = setup();
        let remap = AddressRemapper::new(mem.config(), fima()).unwrap();
        pad.host_write(&remap, Addr::ZERO, &[9; 8]).unwrap();
        let plan = CopyPlan {
            name: "replicate".into(),
            read_mode: fima(),
            write_mode: fima(),
            reads: vec![0],
            write_base: 256,
            writes: vec![WriteSource::Word(0); 16],
            gathers: Vec::new(),
        };
        let stats = run(&mut mem, &mut engine, &mut pad, &plan);
        assert_eq!(stats.words_read, 1);
        assert_eq!(stats.words_written, 16);
        let out = pad.host_read(&remap, Addr::new(256), 128).unwrap();
        assert_eq!(out, vec![9; 128]);
    }

    #[test]
    fn cross_view_copy_translates_addresses() {
        let (mut mem, mut engine, mut pad) = setup();
        let nima = AddressingMode::NonInterleaved;
        let remap_fima = AddressRemapper::new(mem.config(), fima()).unwrap();
        let remap_nima = AddressRemapper::new(mem.config(), nima).unwrap();
        pad.host_write(&remap_fima, Addr::ZERO, &[5; 8]).unwrap();
        let plan = CopyPlan {
            name: "cross".into(),
            read_mode: fima(),
            write_mode: nima,
            reads: vec![0],
            write_base: 2048,
            writes: vec![WriteSource::Word(0)],
            gathers: Vec::new(),
        };
        run(&mut mem, &mut engine, &mut pad, &plan);
        let out = pad.host_read(&remap_nima, Addr::new(2048), 8).unwrap();
        assert_eq!(out, vec![5; 8]);
    }

    #[test]
    fn empty_plan_is_free() {
        let (mut mem, mut engine, _) = setup();
        let plan = CopyPlan {
            name: "noop".into(),
            read_mode: fima(),
            write_mode: fima(),
            reads: vec![],
            write_base: 0,
            writes: vec![],
            gathers: Vec::new(),
        };
        let stats = engine.run(&mut mem, &plan).unwrap();
        assert_eq!(stats.cycles, 0);
    }

    #[test]
    fn fast_forward_matches_lockstep_exactly() {
        // High-latency memory exposes long idle spans between the read
        // issue and the dependent writes; elision must not move a single
        // counter.
        let run = |fast_forward: bool| {
            let mut mem = MemorySubsystem::new(MemConfig::new(8, 8, 128).unwrap());
            mem.set_read_latency(16);
            let mut engine = CopyEngine::new(&mut mem, 4);
            engine.set_fast_forward(fast_forward);
            let plan = CopyPlan {
                name: "rt".into(),
                read_mode: fima(),
                write_mode: fima(),
                reads: vec![0, 8, 16, 24],
                write_base: 1024,
                writes: (0..4).map(WriteSource::Word).collect(),
                gathers: Vec::new(),
            };
            let stats = engine.run(&mut mem, &plan).unwrap();
            (stats, mem.cycle(), *mem.stats())
        };
        let (ff_stats, ff_cycle, ff_mem) = run(true);
        let (ls_stats, ls_cycle, ls_mem) = run(false);
        assert_eq!(ff_stats, ls_stats);
        assert_eq!(ff_cycle, ls_cycle);
        assert_eq!(ff_mem, ls_mem);
        assert!(ff_stats.cycles > 16, "latency actually exposed");
    }

    #[test]
    fn conflicting_plan_still_completes() {
        let (mut mem, mut engine, _) = setup();
        // All reads and writes hammer bank 0 (NIMA view, one bank's rows).
        let nima = AddressingMode::NonInterleaved;
        let plan = CopyPlan {
            name: "conflict".into(),
            read_mode: nima,
            write_mode: nima,
            reads: (0..8u64).map(|i| i * 8).collect(),
            write_base: 256,
            writes: (0..8).map(WriteSource::Word).collect(),
            gathers: Vec::new(),
        };
        let stats = engine.run(&mut mem, &plan).unwrap();
        // 16 single-bank operations need at least 16 cycles.
        assert!(stats.cycles >= 16, "took {} cycles", stats.cycles);
        assert!(mem.stats().conflicts.get() > 0);
    }
}
