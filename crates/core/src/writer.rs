//! The write-mode DataMaestro streamer (right half of Fig. 2a).
//!
//! A [`WriteStreamer`] is the mirror image of the read path: the accelerator
//! pushes wide words; the extension cascade (if any) transforms them; the
//! word is split across the per-channel FIFOs, each paired with a
//! destination address from the AGU; the channel MICs drain the FIFOs
//! through the crossbar, retrying on bank conflicts.
//!
//! Like the read side, the streamer models timing only: a pushed wide word
//! is its destination addresses, and the bytes are written by the system's
//! functional executor.

use dm_mem::{MemorySubsystem, RequesterId};
use dm_sim::{
    BlameLeaf, Cycle, Instrumented, MetricsRegistry, NextActivity, StableHasher, Trace,
    TraceEventKind, TraceMode,
};

use crate::agu::{SpatialAgu, TemporalAgu};
use crate::channel::WriteChannel;
use crate::config::{DesignConfig, RuntimeConfig, StreamerMode};
use crate::error::ConfigError;
use crate::reader::{bind_pattern, map_checked, StreamerStats};
use dm_mem::AddressRemapper;

/// A write-mode DataMaestro.
pub struct WriteStreamer {
    name: String,
    remapper: AddressRemapper,
    tagu: TemporalAgu,
    sagu: SpatialAgu,
    channels: Vec<WriteChannel>,
    /// Width of the wide word the accelerator pushes (before extensions).
    input_width: usize,
    fine_grained: bool,
    stats: StreamerStats,
    trace: Trace,
    /// Whether any channel lost crossbar arbitration in the most recent
    /// grant phase (see [`ReadStreamer::lost_arbitration`]).
    ///
    /// [`ReadStreamer::lost_arbitration`]: crate::ReadStreamer::lost_arbitration
    lost_arbitration: bool,
}

impl WriteStreamer {
    /// Builds a write streamer, registering one crossbar requester per
    /// channel.
    ///
    /// The extension cascade (rarely used on the write side) is applied to
    /// the accelerator's pushed word *before* the channel split, so the
    /// cascade's output width must equal `N_C × W_B`.
    ///
    /// # Errors
    ///
    /// Returns [`ConfigError`] under the same conditions as
    /// [`ReadStreamer::new`](crate::ReadStreamer::new), plus a width
    /// mismatch between the cascade output and the channel array.
    pub fn new(
        design: &DesignConfig,
        runtime: &RuntimeConfig,
        mem: &mut MemorySubsystem,
    ) -> Result<Self, ConfigError> {
        if design.mode() != StreamerMode::Write {
            return Err(ConfigError::InvalidParameter {
                parameter: "mode",
                reason: "WriteStreamer requires a write-mode design".into(),
            });
        }
        let binding = bind_pattern(design, runtime, mem.config())?;
        let channels = (0..design.num_channels())
            .map(|c| {
                let id = mem.register_requester(format!("{}/ch{c}", design.name()));
                WriteChannel::new(id, design.data_buffer_depth(), design.addr_buffer_depth())
            })
            .collect();
        Ok(WriteStreamer {
            name: design.name().to_owned(),
            remapper: binding.remapper,
            tagu: binding.temporal,
            sagu: binding.spatial,
            channels,
            input_width: binding.chain.input_width(),
            fine_grained: design.fine_grained_prefetch(),
            stats: StreamerStats::default(),
            trace: Trace::new(),
            lost_arbitration: false,
        })
    }

    /// Configures event tracing (disabled by default).
    pub fn set_trace_mode(&mut self, mode: TraceMode) {
        self.trace = mode.build();
    }

    /// Takes the captured event trace, leaving a disabled one behind.
    pub fn take_trace(&mut self) -> Trace {
        std::mem::take(&mut self.trace)
    }

    /// `true` if any channel lost crossbar arbitration in the most recent
    /// grant phase.
    #[must_use]
    pub fn lost_arbitration(&self) -> bool {
        self.lost_arbitration
    }

    /// Streamer name.
    #[must_use]
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Width in bytes of the wide word the accelerator pushes.
    #[must_use]
    pub fn input_width(&self) -> usize {
        self.input_width
    }

    /// Requester ids of this streamer's channels, in channel order.
    #[must_use]
    pub fn channel_requesters(&self) -> Vec<RequesterId> {
        self.channels.iter().map(|c| c.requester()).collect()
    }

    /// Phase 4: run the AGU and drain channel FIFOs into the crossbar.
    ///
    /// Runs exactly once per simulated cycle, so it doubles as the sampling
    /// point for per-channel FIFO occupancy (the write side has no
    /// `begin_cycle` phase).
    pub fn generate_and_issue(&mut self, mem: &mut MemorySubsystem) {
        for channel in &mut self.channels {
            channel.sample_occupancy();
        }
        if !self.tagu.is_done() {
            if self.channels.iter().all(WriteChannel::has_addr_space) {
                if let Some(ta) = self.tagu.next_address() {
                    self.stats.temporal_addresses.inc();
                    for (c, channel) in self.channels.iter_mut().enumerate() {
                        channel.push_addr(self.sagu.channel_address(ta, c));
                    }
                    if let Some(dim) = self.tagu.last_wrap() {
                        self.trace
                            .emit(mem.cycle(), &self.name, TraceEventKind::AguWrap { dim });
                    }
                }
            } else if self.trace.is_enabled() {
                let blocked = self
                    .channels
                    .iter()
                    .position(|c| !c.has_addr_space())
                    .expect("some channel lacks address space");
                self.trace.emit(
                    mem.cycle(),
                    &self.name,
                    TraceEventKind::FifoFull { channel: blocked },
                );
            }
        }
        for channel in &mut self.channels {
            channel.submit(mem);
        }
    }

    /// Phase 5: consume grant flags; granted writes retire.
    pub fn handle_grants(&mut self, grants: &[bool]) {
        self.lost_arbitration = false;
        for channel in &mut self.channels {
            let had_backlog = channel.backlog() > 0;
            let flag = grants[channel.requester().index()];
            channel.handle_grant(flag);
            if had_backlog {
                if flag {
                    self.stats.granted.inc();
                } else {
                    self.stats.retries.inc();
                    self.lost_arbitration = true;
                }
            }
        }
    }

    /// `true` when the accelerator may push one wide word this cycle.
    ///
    /// In coarse (non-fine-grained) mode a push additionally requires every
    /// channel FIFO to be empty — the plain data-movement unit holds exactly
    /// one wide word at a time.
    #[must_use]
    pub fn can_push_wide(&self) -> bool {
        let ready = self.channels.iter().all(WriteChannel::can_accept);
        if self.fine_grained {
            ready
        } else {
            ready && self.channels.iter().all(WriteChannel::is_quiescent)
        }
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
        if !self.trace.is_enabled() {
            return;
        }
        if let Some(channel) = self.channels.iter().position(|ch| !ch.can_accept()) {
            self.trace
                .emit(cycle, &self.name, TraceEventKind::FifoFull { channel });
        }
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

    /// `true` once the pattern is exhausted and every word has drained to
    /// memory.
    #[must_use]
    pub fn is_done(&self) -> bool {
        self.tagu.is_done() && self.channels.iter().all(WriteChannel::is_drained)
    }

    /// `true` when all accepted data has drained (pattern may be unfinished).
    #[must_use]
    pub fn is_quiescent(&self) -> bool {
        self.channels.iter().all(WriteChannel::is_quiescent)
    }

    /// Total wide words this pattern absorbs.
    #[must_use]
    pub fn total_wide_words(&self) -> u64 {
        self.tagu.total()
    }

    /// Aggregated statistics.
    #[must_use]
    pub fn stats(&self) -> &StreamerStats {
        &self.stats
    }

    /// Peak per-channel FIFO occupancy observed.
    #[must_use]
    pub fn fifo_high_watermark(&self) -> usize {
        self.channels
            .iter()
            .map(WriteChannel::fifo_high_watermark)
            .max()
            .unwrap_or(0)
    }

    /// Records `span` per-channel backlog samples at once — the fast-forward
    /// replay of the sampling [`generate_and_issue`](Self::generate_and_issue)
    /// would have done over a span in which every FIFO is provably frozen.
    pub fn sample_occupancy_span(&mut self, span: u64) {
        for channel in &mut self.channels {
            channel.sample_occupancy_span(span);
        }
    }
}

impl NextActivity for WriteStreamer {
    /// Like the read side, a write streamer is either active *now* or inert
    /// until the accelerator pushes a word: with no backlog there is nothing
    /// to submit, and with full address buffers (or an exhausted pattern)
    /// the AGU has nothing to do.
    fn next_activity(&self, now: Cycle) -> Option<Cycle> {
        if !self.tagu.is_done() && self.channels.iter().all(WriteChannel::has_addr_space) {
            return Some(now);
        }
        if self.channels.iter().any(|c| c.backlog() > 0) {
            return Some(now);
        }
        None
    }

    fn activity_digest(&self) -> u64 {
        let mut h = StableHasher::new();
        h.write_u64(self.stats.granted.get());
        h.write_u64(self.stats.retries.get());
        h.write_u64(self.stats.wide_words.get());
        h.write_u64(self.stats.temporal_addresses.get());
        h.write_bool(self.lost_arbitration);
        h.write_bool(self.tagu.is_done());
        h.write_u64(self.tagu.wraps());
        for channel in &self.channels {
            channel.hash_state(&mut h);
        }
        h.finish()
    }
}

impl Instrumented for WriteStreamer {
    fn register_metrics(&self, registry: &mut MetricsRegistry) {
        registry.set_counter("granted", self.stats.granted.get());
        registry.set_counter("retries", self.stats.retries.get());
        registry.set_counter("wide_words", self.stats.wide_words.get());
        registry.set_counter("temporal_addresses", self.stats.temporal_addresses.get());
        registry.set_counter("agu_wraps", self.tagu.wraps());
        registry.set_counter("fifo_high_watermark", self.fifo_high_watermark() as u64);
        let occupancy: Vec<_> = self
            .channels
            .iter()
            .map(WriteChannel::fifo_occupancy)
            .collect();
        registry.set_histogram(
            "fifo_occupancy",
            &dm_sim::LatencyHistogram::merged(&occupancy),
        );
        for (c, (channel, occupancy)) in self.channels.iter().zip(&occupancy).enumerate() {
            registry.with_scope(&format!("ch{c}"), |r| {
                let stats = channel.stats();
                r.set_counter("granted", stats.granted.get());
                r.set_counter("retries", stats.retries.get());
                r.set_counter("fifo_high_watermark", channel.fifo_high_watermark() as u64);
                r.set_histogram("fifo_occupancy", occupancy);
            });
        }
    }
}

impl std::fmt::Debug for WriteStreamer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("WriteStreamer")
            .field("name", &self.name)
            .field("channels", &self.channels.len())
            .field("fine_grained", &self.fine_grained)
            .field("stats", &self.stats)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
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
        s.generate_and_issue(mem);
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
