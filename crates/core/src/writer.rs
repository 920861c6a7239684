//! The write-mode DataMaestro streamer (right half of Fig. 2a).
//!
//! A [`WriteStreamer`] is the mirror image of the read path: the accelerator
//! pushes wide words; the extension cascade (if any) transforms them; the
//! word is split across the per-channel FIFOs, each paired with a
//! destination address from the AGU; the channel MICs drain the FIFOs
//! through the crossbar, retrying on bank conflicts.
//!
//! The AGU fan-out and the grant tally are the shared [`Streamer`] front
//! end; this module adds the write side: accept, submit and retire, the
//! coarse quiescence rule and the write blame walk. Like the read side, the
//! streamer models timing only: a pushed wide word is its destination
//! addresses, and the bytes are written by the system's functional
//! executor.

use std::collections::VecDeque;

use dm_mem::{BankLocation, MemError, MemOp, MemorySubsystem};
use dm_sim::{BlameLeaf, Cycle, TraceEventKind};

use crate::channel::WriteChannel;
use crate::config::StreamerMode;
use crate::streamer::{map_checked, Side, StreamBinding, Streamer};

/// The write side's streamer state.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WriteSide {
    /// Width of the wide word the accelerator pushes (before extensions).
    input_width: usize,
}

impl Side for WriteSide {
    const MODE: StreamerMode = StreamerMode::Write;
    type Fifo = VecDeque<BankLocation>;

    fn new(binding: &StreamBinding, _channels: usize) -> Self {
        WriteSide {
            input_width: binding.chain.input_width(),
        }
    }
}

/// A write-mode DataMaestro.
///
/// The extension cascade (rarely used on the write side) is applied to the
/// accelerator's pushed word *before* the channel split, so the cascade's
/// output width must equal `N_C × W_B`.
pub type WriteStreamer = Streamer<WriteSide>;

impl WriteStreamer {
    /// Width in bytes of the wide word the accelerator pushes.
    #[must_use]
    pub fn input_width(&self) -> usize {
        self.side.input_width
    }

    /// Phase 4: run the AGU and drain channel FIFOs into the crossbar.
    ///
    /// Runs exactly once per simulated cycle, so it doubles as the sampling
    /// point for per-channel FIFO occupancy (the write side has no
    /// `begin_cycle` phase).
    ///
    /// # Errors
    ///
    /// [`MemError`] if `mem` is not the crossbar the streamer registered its
    /// channels on, or they already submitted this cycle.
    pub fn generate_and_issue(&mut self, mem: &mut MemorySubsystem) -> Result<(), MemError> {
        self.sample_occupancy_span(1);
        self.generate(mem.cycle());
        let Some(first) = self.channels.first().map(WriteChannel::requester) else {
            return Ok(());
        };
        let requests = self.channels.iter().map(WriteChannel::request);
        mem.submit_batch(first, MemOp::Write, requests)
    }

    /// `true` when the accelerator may push one wide word this cycle.
    ///
    /// In coarse (non-fine-grained) mode a push additionally requires every
    /// channel FIFO to be empty — the plain data-movement unit holds exactly
    /// one wide word at a time.
    #[must_use]
    pub fn can_push_wide(&self) -> bool {
        self.channels.iter().all(WriteChannel::can_accept)
            && (self.fine_grained || self.is_quiescent())
    }

    /// Walks the dependency chain backwards from a blocked push and names
    /// the component instance responsible, mirroring
    /// [`ReadStreamer::blame_leaf`](crate::ReadStreamer::blame_leaf):
    ///
    /// 1. lost bank arbitration → the bank the head word is draining to;
    /// 2. otherwise the first channel that cannot accept: a full FIFO →
    ///    the bank its head word targets; an empty address queue → the
    ///    AGU's cadence;
    /// 3. coarse mode blocked on quiescence (all channels individually
    ///    ready) → the bank still draining the previous wide word.
    ///
    /// Pure read; called on stalled cycles only.
    #[must_use]
    pub fn blame_leaf(&self) -> BlameLeaf {
        if self.lost_arbitration {
            if let Some(bank) = self.channels.iter().find_map(WriteChannel::head_bank) {
                return BlameLeaf::Bank(bank);
            }
        }
        if let Some(laggard) = self.channels.iter().find(|ch| !ch.can_accept()) {
            return match laggard.head_bank() {
                Some(bank) => BlameLeaf::Bank(bank),
                None => BlameLeaf::Agu,
            };
        }
        // Coarse-mode quiescence gate: every channel could accept, but the
        // previous wide word has not fully drained yet.
        if let Some(bank) = self.channels.iter().find_map(WriteChannel::head_bank) {
            return BlameLeaf::Bank(bank);
        }
        BlameLeaf::Unattributed
    }

    /// Records (into this streamer's trace) that the producer found the
    /// stream blocked this cycle; the first channel unable to accept a word
    /// is the laggard (coarse-grained mode may also block on quiescence,
    /// in which case no single channel is at fault and nothing is emitted).
    pub fn note_producer_blocked(&mut self, cycle: Cycle) {
        self.note_blocked(cycle, WriteChannel::can_accept, |channel| {
            TraceEventKind::FifoFull { channel }
        });
    }

    /// Accepts one wide word from the accelerator: every channel pairs one
    /// word with its next queued address, handed to `produced` in channel
    /// order.
    ///
    /// # Panics
    ///
    /// Panics if [`can_push_wide`](Self::can_push_wide) is false.
    #[inline]
    pub fn push_wide(&mut self, mut produced: impl FnMut(u64)) {
        assert!(self.can_push_wide(), "wide push without space");
        let remapper = &self.remapper;
        for channel in &mut self.channels {
            produced(channel.accept(|addr| map_checked(remapper, addr)));
        }
        self.stats.wide_words.inc();
    }

    /// `true` if the streamer acts this cycle. Like the read side, a write
    /// streamer is either active now or inert until the accelerator pushes
    /// a word: with no backlog there is nothing to submit, and with full
    /// address buffers (or an exhausted pattern) the AGU has nothing to do.
    #[must_use]
    pub fn acts_this_cycle(&self) -> bool {
        self.busy()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{DesignConfig, RuntimeConfig};
    use dm_mem::{AddressingMode, MemConfig};

    fn mem() -> MemorySubsystem {
        MemorySubsystem::new(MemConfig::new(8, 8, 64).unwrap())
    }

    fn design() -> DesignConfig {
        DesignConfig::builder("D", StreamerMode::Write)
            .spatial_bounds([4])
            .temporal_dims(2)
            .build()
            .unwrap()
    }

    fn runtime() -> RuntimeConfig {
        RuntimeConfig::builder()
            .base(0)
            .temporal([4], [32])
            .spatial_strides([8])
            .addressing_mode(AddressingMode::FullyInterleaved)
            .build()
    }

    fn tick(s: &mut WriteStreamer, mem: &mut MemorySubsystem) {
        s.generate_and_issue(mem).unwrap();
        let grants = mem.arbitrate().to_vec();
        s.handle_grants(&grants);
    }

    #[test]
    fn writes_land_at_patterned_addresses() {
        let mut mem = mem();
        let mut s = WriteStreamer::new(&design(), &runtime(), &mut mem).unwrap();
        assert_eq!(s.input_width(), 32);
        let mut pushed = 0;
        let mut addrs = Vec::new();
        let mut cycles = 0;
        while !s.is_done() && cycles < 100 {
            // Generate addresses first so can_push_wide sees them.
            if pushed < 4 && s.can_push_wide() {
                s.push_wide(|addr| addrs.push(addr));
                pushed += 1;
            }
            tick(&mut s, &mut mem);
            cycles += 1;
        }
        assert!(s.is_done(), "writer drained");
        // The four wide words cover words 0..16 in order; under FIMA over
        // eight banks each bank takes two of them.
        assert_eq!(addrs, (0..16).map(|w| 8 * w).collect::<Vec<u64>>());
        assert_eq!(mem.per_bank_accesses(), &[2; 8]);
        assert_eq!(s.stats().granted.get(), 16);
        assert_eq!(s.stats().wide_words.get(), 4);
    }

    #[test]
    fn cannot_push_before_addresses_generated() {
        let mut mem = mem();
        let s = WriteStreamer::new(&design(), &runtime(), &mut mem).unwrap();
        assert!(!s.can_push_wide(), "no addresses queued yet");
    }

    #[test]
    fn coarse_mode_holds_one_word() {
        let mut mem = mem();
        let d = DesignConfig::builder("D", StreamerMode::Write)
            .spatial_bounds([4])
            .temporal_dims(2)
            .fine_grained_prefetch(false)
            .build()
            .unwrap();
        let mut s = WriteStreamer::new(&d, &runtime(), &mut mem).unwrap();
        // Prime the address queues.
        tick(&mut s, &mut mem);
        assert!(s.can_push_wide());
        s.push_wide(|_| {});
        // Before draining, a second push is refused in coarse mode.
        assert!(!s.can_push_wide());
        tick(&mut s, &mut mem);
        assert!(s.can_push_wide(), "drained; next word may enter");
    }

    #[test]
    fn rejects_wrong_mode() {
        let mut mem = mem();
        let d = DesignConfig::builder("A", StreamerMode::Read)
            .build()
            .unwrap();
        assert!(WriteStreamer::new(&d, &runtime(), &mut mem).is_err());
    }

    #[test]
    fn write_conflicts_retry_until_drained() {
        let mut mem = mem();
        // All four channels write to the same bank: spatial stride equals
        // the full-rotation stride under FIMA (8 banks × 8 B).
        let rt = RuntimeConfig::builder()
            .base(0)
            .temporal([2], [8])
            .spatial_strides([64])
            .build();
        let mut s = WriteStreamer::new(&design(), &rt, &mut mem).unwrap();
        let mut cycles = 0;
        while !s.is_done() && cycles < 50 {
            if s.can_push_wide() {
                s.push_wide(|_| {});
            }
            tick(&mut s, &mut mem);
            cycles += 1;
        }
        assert!(s.is_done());
        assert!(s.stats().retries.get() > 0, "conflicts occurred");
        assert_eq!(s.stats().granted.get(), 8);
        // Each temporal step's four words serialize through one bank, so the
        // busiest bank needs four grant cycles.
        assert!(cycles >= 5, "took only {cycles} cycles");
    }
}
