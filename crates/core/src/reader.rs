//! The read-mode DataMaestro streamer (left half of Fig. 2a).
//!
//! A [`ReadStreamer`] turns scattered memory words into the continuous wide
//! data stream an accelerator port consumes:
//!
//! 1. the temporal AGU emits one temporal address per cycle into per-channel
//!    address buffers (fanned out by the spatial AGU);
//! 2. each channel's MIC issues fine-grained requests independently,
//!    throttled only by its ORM slot reservations;
//! 3. responses land in the per-channel data FIFOs;
//! 4. when *every* channel has its head word, the words are gathered into
//!    one wide word, pushed through the datapath-extension cascade and
//!    handed to the accelerator.
//!
//! The streamer models the timing of these steps: its FIFOs hold the byte
//! address of each word, not the word. The bytes of a stream come from the
//! same [`StreamBinding`] walked in program order by the system's
//! functional executor.
//!
//! With fine-grained prefetch disabled the streamer degrades into a plain
//! data-movement unit: one wide request at a time and no overlap between the
//! memory round-trip and consumption (the ablation baseline ①).

use dm_mem::{
    Addr, AddressRemapper, BankLocation, MemConfig, MemResponse, MemorySubsystem, RequesterId,
};
use dm_sim::{
    BlameLeaf, Counter, Cycle, Instrumented, MetricsRegistry, NextActivity, StableHasher, Trace,
    TraceEventKind, TraceMode,
};

use crate::agu::{SpatialAgu, TemporalAgu};
use crate::channel::ReadChannel;
use crate::config::{DesignConfig, RuntimeConfig, StreamerMode};
use crate::error::ConfigError;
use crate::extension::ExtensionChain;

/// Aggregated statistics for one streamer.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct StreamerStats {
    /// Memory requests granted across all channels.
    pub granted: Counter,
    /// Request cycles lost to arbitration (bank conflicts).
    pub retries: Counter,
    /// Wide words delivered to (read) or accepted from (write) the
    /// accelerator.
    pub wide_words: Counter,
    /// Temporal addresses generated.
    pub temporal_addresses: Counter,
}

/// A stream pattern bound to a memory geometry: the remapper, the temporal
/// and spatial AGUs and the extension cascade that serve it. The timing
/// streamers and the system's functional executor are both built from one.
#[derive(Debug, Clone)]
pub struct StreamBinding {
    /// Byte address → physical location under the stream's addressing mode.
    pub remapper: AddressRemapper,
    /// The temporal loop nest.
    pub temporal: TemporalAgu,
    /// The per-channel fan-out.
    pub spatial: SpatialAgu,
    /// The extension cascade: applied after the channel gather on a read
    /// stream, before the channel split on a write stream.
    pub chain: ExtensionChain,
}

/// Validates a runtime pattern against its design and the memory geometry
/// — word-aligned, in bounds, with an extension cascade whose widths fit
/// the channel array — and binds it.
///
/// # Errors
///
/// Returns [`ConfigError`] if the runtime configuration is inconsistent
/// with the design, the pattern is unaligned or out of bounds, or an
/// extension's geometry mismatches the wide word.
pub fn bind_pattern(
    design: &DesignConfig,
    runtime: &RuntimeConfig,
    mem: &MemConfig,
) -> Result<StreamBinding, ConfigError> {
    runtime.validate(design)?;
    let remapper = AddressRemapper::new(mem, runtime.addressing_mode)?;
    let word = mem.bank_width_bytes() as u64;
    // All strides and the base must be word multiples so every generated
    // address is word aligned.
    let aligned = runtime.base.is_multiple_of(word)
        && runtime
            .temporal_strides
            .iter()
            .chain(runtime.spatial_strides.iter())
            .all(|s| s.unsigned_abs() % word == 0);
    if !aligned {
        return Err(ConfigError::UnalignedPattern {
            addr: runtime.base,
            alignment: word,
        });
    }
    let tagu = TemporalAgu::new(
        runtime.base,
        &runtime.temporal_bounds,
        &runtime.temporal_strides,
    );
    let sagu = SpatialAgu::new(design.spatial_bounds(), &runtime.spatial_strides);
    let (t_min, t_max) = tagu.address_range();
    let (s_min, s_max) = sagu.offset_range();
    let min = t_min as i64 + s_min;
    let max = t_max as i64 + s_max + word as i64 - 1;
    let capacity = mem.capacity_bytes();
    if min < 0 || max as u64 >= capacity {
        return Err(ConfigError::PatternOutOfBounds {
            min_addr: min.max(0) as u64,
            max_addr: max as u64,
            capacity,
        });
    }
    let split_width = design.num_channels() * mem.bank_width_bytes();
    let chain = match design.mode() {
        StreamerMode::Read => {
            ExtensionChain::new(design.extensions(), &runtime.extension_bypass, split_width)?
        }
        StreamerMode::Write => {
            // The accelerator-facing width is whatever the chain maps onto
            // the split width: invert the width transform stage by stage
            // (exact division is validated by the chain).
            let mut input_width = split_width;
            for kind in design.extensions().iter().rev() {
                input_width /= kind.output_width(1);
            }
            let chain =
                ExtensionChain::new(design.extensions(), &runtime.extension_bypass, input_width)?;
            if chain.output_width() != split_width {
                return Err(ConfigError::InvalidParameter {
                    parameter: "extensions",
                    reason: format!(
                        "write cascade produces {}B, channel array needs {split_width}B",
                        chain.output_width()
                    ),
                });
            }
            chain
        }
    };
    Ok(StreamBinding {
        remapper,
        temporal: tagu,
        spatial: sagu,
        chain,
    })
}

/// A read-mode DataMaestro.
pub struct ReadStreamer {
    name: String,
    remapper: AddressRemapper,
    tagu: TemporalAgu,
    sagu: SpatialAgu,
    channels: Vec<ReadChannel>,
    /// Width of the accelerator-facing wide word (after extensions).
    output_width: usize,
    /// Requester index of channel 0; channels register contiguously, so a
    /// response's channel is `requester.index() - requester_base` (a direct
    /// route-table lookup instead of a linear scan).
    requester_base: usize,
    fine_grained: bool,
    /// Coarse mode: gate is open while the current wide request may issue.
    coarse_open: bool,
    coarse_started: Vec<bool>,
    stats: StreamerStats,
    trace: Trace,
    /// Whether any channel lost crossbar arbitration in the most recent
    /// grant phase; the system uses this to attribute operand stalls to bank
    /// conflicts rather than plain latency.
    lost_arbitration: bool,
}

impl ReadStreamer {
    /// Builds a read streamer, registering one crossbar requester per
    /// channel.
    ///
    /// # Errors
    ///
    /// Returns [`ConfigError`] if the design is not read-mode, the runtime
    /// configuration is inconsistent with the design, the pattern is
    /// unaligned or out of bounds, or an extension's geometry mismatches the
    /// wide word.
    pub fn new(
        design: &DesignConfig,
        runtime: &RuntimeConfig,
        mem: &mut MemorySubsystem,
    ) -> Result<Self, ConfigError> {
        if design.mode() != StreamerMode::Read {
            return Err(ConfigError::InvalidParameter {
                parameter: "mode",
                reason: "ReadStreamer requires a read-mode design".into(),
            });
        }
        let binding = bind_pattern(design, runtime, mem.config())?;
        let channels = (0..design.num_channels())
            .map(|c| {
                let id = mem.register_requester(format!("{}/ch{c}", design.name()));
                ReadChannel::new(id, design.data_buffer_depth(), design.addr_buffer_depth())
            })
            .collect::<Vec<_>>();
        let n = channels.len();
        let requester_base = channels
            .first()
            .map_or(0, |c: &ReadChannel| c.requester().index());
        Ok(ReadStreamer {
            name: design.name().to_owned(),
            remapper: binding.remapper,
            tagu: binding.temporal,
            sagu: binding.spatial,
            channels,
            output_width: binding.chain.output_width(),
            requester_base,
            fine_grained: design.fine_grained_prefetch(),
            coarse_open: false,
            coarse_started: vec![false; n],
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

    /// Width in bytes of the wide word delivered to the accelerator (after
    /// extensions).
    #[must_use]
    pub fn output_width(&self) -> usize {
        self.output_width
    }

    /// Requester ids of this streamer's channels, in channel order.
    #[must_use]
    pub fn channel_requesters(&self) -> Vec<RequesterId> {
        self.channels.iter().map(|c| c.requester()).collect()
    }

    /// Phase 1: sample per-channel FIFO occupancy and coarse-mode gating
    /// state (must run before responses are delivered and before the
    /// accelerator pops, so every cycle contributes exactly one occupancy
    /// sample per channel).
    pub fn begin_cycle(&mut self) {
        for channel in &mut self.channels {
            channel.sample_occupancy();
        }
        if self.fine_grained {
            return;
        }
        if !self.coarse_open && self.channels.iter().all(ReadChannel::is_quiescent) {
            self.coarse_open = true;
            self.coarse_started.fill(false);
        }
    }

    /// Phase 2: deliver a memory response belonging to one of this
    /// streamer's channels.
    ///
    /// # Panics
    ///
    /// Panics if the response belongs to no channel of this streamer.
    #[inline]
    pub fn accept_response(&mut self, response: MemResponse) {
        let channel = response
            .requester
            .index()
            .checked_sub(self.requester_base)
            .and_then(|c| self.channels.get_mut(c))
            .expect("response routed to wrong streamer");
        channel.handle_response(response);
    }

    /// Phase 4: run the AGU (one temporal address per cycle) and start
    /// channel requests.
    pub fn generate_and_issue(&mut self, mem: &mut MemorySubsystem) {
        // AGU: emit the next temporal address if every channel buffer has
        // room (channels consume the same temporal cadence).
        if !self.tagu.is_done() {
            if self.channels.iter().all(ReadChannel::has_addr_space) {
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
        // RSC: start new requests where allowed, then submit pending ones.
        let remapper = &self.remapper;
        for (c, channel) in self.channels.iter_mut().enumerate() {
            let may_start = self.fine_grained || (self.coarse_open && !self.coarse_started[c]);
            let started = channel.issue(mem, may_start, |addr| map_checked(remapper, addr));
            if started && !self.fine_grained {
                self.coarse_started[c] = true;
            }
        }
        if !self.fine_grained && self.coarse_open && self.coarse_started.iter().all(|&s| s) {
            self.coarse_open = false;
        }
    }

    /// Phase 5: consume the grant flags after crossbar arbitration.
    pub fn handle_grants(&mut self, grants: &[bool]) {
        self.lost_arbitration = false;
        for channel in &mut self.channels {
            let flag = grants[channel.requester().index()];
            let had_pending = channel.has_pending();
            channel.handle_grant(flag);
            if had_pending {
                if flag {
                    self.stats.granted.inc();
                } else {
                    self.stats.retries.inc();
                    self.lost_arbitration = true;
                }
            }
        }
    }

    /// `true` when a full wide word is ready for the accelerator.
    #[must_use]
    pub fn can_pop_wide(&self) -> bool {
        self.channels.iter().all(ReadChannel::has_data)
    }

    /// Walks the dependency chain backwards from a blocked pop and names
    /// the component instance ultimately responsible, for the system's
    /// causal blame profile:
    ///
    /// 1. the streamer lost bank arbitration last grant round → the bank
    ///    the denied request targets;
    /// 2. otherwise the *laggard* (first channel without buffered data,
    ///    matching [`note_consumer_blocked`](Self::note_consumer_blocked))
    ///    is examined: a still-pending request → its target bank; a
    ///    granted in-flight read → the bank serving it (exposed memory
    ///    latency); queued addresses withheld by the coarse-grained sync
    ///    gate → the gate; nothing queued → the AGU's cadence.
    ///
    /// Pure read; called on stalled cycles only (and once per elided span),
    /// so it is off the firing hot path.
    #[must_use]
    pub fn blame_leaf(&self, mem: &MemorySubsystem) -> BlameLeaf {
        if self.lost_arbitration {
            if let Some(bank) = self.channels.iter().find_map(ReadChannel::pending_bank) {
                return BlameLeaf::Bank(bank);
            }
        }
        let Some(idx) = self.channels.iter().position(|ch| !ch.has_data()) else {
            return BlameLeaf::Unattributed;
        };
        let laggard = &self.channels[idx];
        if let Some(bank) = laggard.pending_bank() {
            return BlameLeaf::Bank(bank);
        }
        if laggard.outstanding() > 0 {
            return match mem.oldest_inflight_bank(laggard.requester()) {
                Some(bank) => BlameLeaf::Bank(bank),
                None => BlameLeaf::Unattributed,
            };
        }
        let gated = !self.fine_grained && (!self.coarse_open || self.coarse_started[idx]);
        if laggard.addr_backlog() > 0 && gated {
            return BlameLeaf::Gate;
        }
        BlameLeaf::Agu
    }

    /// Records (into this streamer's trace) that the consumer found the
    /// stream blocked this cycle; the first channel without buffered data
    /// is the laggard holding back the wide word.
    pub fn note_consumer_blocked(&mut self, cycle: Cycle) {
        if !self.trace.is_enabled() {
            return;
        }
        if let Some(channel) = self.channels.iter().position(|ch| !ch.has_data()) {
            self.trace
                .emit(cycle, &self.name, TraceEventKind::FifoEmpty { channel });
        }
    }

    /// Pops one word from every channel — the wide word the accelerator
    /// consumes — handing each word's byte address to `consumed`, in
    /// channel order.
    ///
    /// # Panics
    ///
    /// Panics if [`can_pop_wide`](Self::can_pop_wide) is false.
    #[inline]
    pub fn pop_wide(&mut self, mut consumed: impl FnMut(u64)) {
        assert!(self.can_pop_wide(), "wide pop without data in all channels");
        for channel in &mut self.channels {
            consumed(channel.pop());
        }
        self.stats.wide_words.inc();
    }

    /// `true` once the pattern is exhausted and all data has been consumed.
    #[must_use]
    pub fn is_done(&self) -> bool {
        self.tagu.is_done() && self.channels.iter().all(ReadChannel::is_drained)
    }

    /// Total wide words this pattern produces.
    #[must_use]
    pub fn total_wide_words(&self) -> u64 {
        self.tagu.total()
    }

    /// Aggregated statistics.
    #[must_use]
    pub fn stats(&self) -> &StreamerStats {
        &self.stats
    }

    /// Peak per-channel FIFO occupancy across channels.
    #[must_use]
    pub fn fifo_high_watermark(&self) -> usize {
        self.channels
            .iter()
            .map(ReadChannel::fifo_high_watermark)
            .max()
            .unwrap_or(0)
    }

    /// Records `span` per-channel occupancy samples at once — the
    /// fast-forward replay of the sampling [`begin_cycle`](Self::begin_cycle)
    /// would have done over a span in which every FIFO is provably frozen.
    pub fn sample_occupancy_span(&mut self, span: u64) {
        for channel in &mut self.channels {
            channel.sample_occupancy_span(span);
        }
    }
}

impl NextActivity for ReadStreamer {
    /// A read streamer can act *this* cycle or not at all: every internal
    /// transition is triggered either by its own queued work (AGU emission,
    /// request start, pending resubmission, coarse-gate movement) or by an
    /// external event — a memory response or an accelerator pop — that the
    /// system accounts for separately. So the horizon is `Some(now)` if any
    /// phase of the streamer's cycle would do more than sample occupancy,
    /// and `None` otherwise.
    fn next_activity(&self, now: Cycle) -> Option<Cycle> {
        // Phase 4: the AGU emits whenever every address buffer has room.
        if !self.tagu.is_done() && self.channels.iter().all(ReadChannel::has_addr_space) {
            return Some(now);
        }
        // Phase 4/5: a pending request resubmits every cycle until granted.
        if self.channels.iter().any(ReadChannel::has_pending) {
            return Some(now);
        }
        // Phase 4: a channel may convert a queued address into a request.
        for (c, channel) in self.channels.iter().enumerate() {
            let may_start = self.fine_grained || (self.coarse_open && !self.coarse_started[c]);
            if may_start && channel.can_start_request() {
                return Some(now);
            }
        }
        // Phase 1: the coarse gate would open (all channels quiescent) or —
        // conservatively — close. Either transition mutates gating state, so
        // the cycle is not skippable.
        if !self.fine_grained {
            if !self.coarse_open && self.channels.iter().all(ReadChannel::is_quiescent) {
                return Some(now);
            }
            if self.coarse_open && self.coarse_started.iter().all(|&s| s) {
                return Some(now);
            }
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
        h.write_bool(self.coarse_open);
        for &started in &self.coarse_started {
            h.write_bool(started);
        }
        for channel in &self.channels {
            channel.hash_state(&mut h);
        }
        h.finish()
    }
}

impl Instrumented for ReadStreamer {
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
            .map(ReadChannel::fifo_occupancy)
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
                r.set_counter("responses", stats.responses.get());
                r.set_counter("fifo_high_watermark", channel.fifo_high_watermark() as u64);
                r.set_histogram("fifo_occupancy", occupancy);
            });
        }
    }
}

impl std::fmt::Debug for ReadStreamer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ReadStreamer")
            .field("name", &self.name)
            .field("channels", &self.channels.len())
            .field("fine_grained", &self.fine_grained)
            .field("stats", &self.stats)
            .finish()
    }
}

/// Maps a validated byte address to its physical location.
///
/// Bounds and alignment were proven at configuration time, so failures here
/// are simulator bugs and panic.
pub(crate) fn map_checked(remapper: &AddressRemapper, addr: u64) -> BankLocation {
    remapper
        .map_byte(Addr::new(addr))
        .expect("pattern address validated at configuration time")
}

#[cfg(test)]
mod tests {
    use super::*;
    use dm_mem::AddressingMode;

    fn mem() -> MemorySubsystem {
        MemorySubsystem::new(MemConfig::new(8, 8, 64).unwrap())
    }

    fn design() -> DesignConfig {
        DesignConfig::builder("A", StreamerMode::Read)
            .spatial_bounds([4])
            .temporal_dims(2)
            .build()
            .unwrap()
    }

    fn runtime(base: u64) -> RuntimeConfig {
        RuntimeConfig::builder()
            .base(base)
            .temporal([4], [32])
            .spatial_strides([8])
            .addressing_mode(AddressingMode::FullyInterleaved)
            .build()
    }

    /// Drives the streamer alone for one cycle against the memory.
    fn tick(streamer: &mut ReadStreamer, mem: &mut MemorySubsystem) {
        streamer.begin_cycle();
        mem.drain_responses(|resp| streamer.accept_response(resp));
        streamer.generate_and_issue(mem);
        let grants = mem.arbitrate().to_vec();
        streamer.handle_grants(&grants);
    }

    #[test]
    fn streams_the_configured_pattern() {
        let mut mem = mem();
        let mut s = ReadStreamer::new(&design(), &runtime(0), &mut mem).unwrap();
        assert_eq!(s.output_width(), 32);
        let mut words = Vec::new();
        for _ in 0..40 {
            tick(&mut s, &mut mem);
            if s.can_pop_wide() {
                let mut word = Vec::new();
                s.pop_wide(|addr| word.push(addr));
                words.push(word);
            }
            if s.is_done() {
                break;
            }
        }
        assert!(s.is_done());
        assert_eq!(words.len(), 4);
        // Temporal step t starts at word 4t; channels read words 4t..4t+4.
        for (t, word) in words.iter().enumerate() {
            let expected: Vec<u64> = (0..4).map(|c| 8 * (4 * t + c) as u64).collect();
            assert_eq!(word, &expected, "wide word {t}");
        }
        assert_eq!(s.stats().granted.get(), 16);
        assert_eq!(s.stats().wide_words.get(), 4);
    }

    #[test]
    fn fine_grained_reaches_one_word_per_cycle() {
        let mut mem = mem();
        let d = design();
        // Conflict-free pattern: 4 channels on 4 distinct banks each step.
        let mut s = ReadStreamer::new(&d, &runtime(0), &mut mem).unwrap();
        let mut pops = 0;
        let mut cycles = 0;
        while !s.is_done() && cycles < 100 {
            tick(&mut s, &mut mem);
            cycles += 1;
            if s.can_pop_wide() {
                s.pop_wide(|_| {});
                pops += 1;
            }
        }
        assert_eq!(pops, 4);
        // Pipeline fill is ~2 cycles; steady state is 1 word/cycle.
        assert!(cycles <= 8, "took {cycles} cycles for 4 words");
    }

    #[test]
    fn coarse_mode_serializes_round_trips() {
        let mut mem = mem();
        let d = DesignConfig::builder("A", StreamerMode::Read)
            .spatial_bounds([4])
            .temporal_dims(2)
            .fine_grained_prefetch(false)
            .build()
            .unwrap();
        let mut s = ReadStreamer::new(&d, &runtime(0), &mut mem).unwrap();
        let mut pops = 0;
        let mut cycles = 0;
        while !s.is_done() && cycles < 100 {
            tick(&mut s, &mut mem);
            cycles += 1;
            if s.can_pop_wide() {
                s.pop_wide(|_| {});
                pops += 1;
            }
        }
        assert_eq!(pops, 4);
        // Coarse mode needs ~2 cycles per word (issue, respond+consume).
        assert!(
            (7..=12).contains(&cycles),
            "coarse mode took {cycles} cycles for 4 words"
        );
    }

    #[test]
    fn rejects_wrong_mode() {
        let mut mem = mem();
        let d = DesignConfig::builder("W", StreamerMode::Write)
            .build()
            .unwrap();
        let err = ReadStreamer::new(&d, &runtime(0), &mut mem).unwrap_err();
        assert!(matches!(err, ConfigError::InvalidParameter { .. }));
    }

    #[test]
    fn rejects_unaligned_pattern() {
        let mut mem = mem();
        let rt = RuntimeConfig::builder()
            .base(4)
            .temporal([4], [32])
            .spatial_strides([8])
            .build();
        let err = ReadStreamer::new(&design(), &rt, &mut mem).unwrap_err();
        assert!(matches!(err, ConfigError::UnalignedPattern { .. }));
    }

    #[test]
    fn rejects_out_of_bounds_pattern() {
        let mut mem = mem();
        let capacity = mem.config().capacity_bytes();
        let err = ReadStreamer::new(&design(), &runtime(capacity - 32), &mut mem).unwrap_err();
        assert!(matches!(err, ConfigError::PatternOutOfBounds { .. }));
    }

    #[test]
    fn trace_and_metrics_capture_streaming() {
        use dm_sim::{TraceEventKind, TraceMode};

        let mut mem = mem();
        let mut s = ReadStreamer::new(&design(), &runtime(0), &mut mem).unwrap();
        s.set_trace_mode(TraceMode::Full);
        let mut cycles = 0;
        while !s.is_done() && cycles < 100 {
            tick(&mut s, &mut mem);
            cycles += 1;
            if s.can_pop_wide() {
                s.pop_wide(|_| {});
            }
        }
        assert!(s.is_done());
        let mut reg = dm_sim::MetricsRegistry::new();
        s.register_metrics(&mut reg);
        assert_eq!(reg.get("granted").unwrap().as_f64(), 16.0);
        assert_eq!(reg.get("temporal_addresses").unwrap().as_f64(), 4.0);
        assert!(reg.get("ch3.responses").is_some());
        // The single-dim pattern wraps exactly once, at exhaustion.
        assert_eq!(reg.get("agu_wraps").unwrap().as_f64(), 1.0);
        let trace = s.take_trace();
        assert!(trace
            .iter()
            .any(|e| e.kind == TraceEventKind::AguWrap { dim: 0 }));
    }

    #[test]
    fn horizon_goes_idle_only_when_blocked_on_the_consumer() {
        let mut mem = mem();
        // Shallow FIFOs: the ORM throttles after two in-flight words, so the
        // streamer goes fully inert while blocked on the consumer.
        let d = DesignConfig::builder("A", StreamerMode::Read)
            .spatial_bounds([4])
            .temporal_dims(2)
            .data_buffer_depth(2)
            .build()
            .unwrap();
        let mut s = ReadStreamer::new(&d, &runtime(0), &mut mem).unwrap();
        assert!(
            s.next_activity(mem.cycle()).is_some(),
            "fresh streamer: AGU can emit"
        );
        for _ in 0..50 {
            tick(&mut s, &mut mem);
        }
        // AGU exhausted and FIFOs full: inert until the accelerator pops.
        assert_eq!(s.next_activity(mem.cycle()), None);
        let digest = s.activity_digest();
        tick(&mut s, &mut mem);
        assert_eq!(
            s.activity_digest(),
            digest,
            "an idle-horizon tick must not move observable state"
        );
        s.pop_wide(|_| {});
        assert!(
            s.next_activity(mem.cycle()).is_some(),
            "a pop frees an ORM slot; the channel can start a request again"
        );
    }

    #[test]
    fn done_only_after_all_data_consumed() {
        let mut mem = mem();
        let mut s = ReadStreamer::new(&design(), &runtime(0), &mut mem).unwrap();
        for _ in 0..50 {
            tick(&mut s, &mut mem);
        }
        // AGU exhausted but FIFOs full: not done until the accelerator pops.
        assert!(!s.is_done());
        while s.can_pop_wide() {
            s.pop_wide(|_| {});
            tick(&mut s, &mut mem);
        }
        for _ in 0..10 {
            tick(&mut s, &mut mem);
            while s.can_pop_wide() {
                s.pop_wide(|_| {});
            }
        }
        assert!(s.is_done());
    }
}
