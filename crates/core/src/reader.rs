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
//! Steps 1 and the grant tally are the shared [`Streamer`] front end; this
//! module adds the read side: ORM issue, response and pop, the coarse sync
//! gate and the read blame walk. The streamer models the timing of these
//! steps: its FIFOs hold the byte address of each word, not the word. The
//! bytes of a stream come from the same [`StreamBinding`] walked in
//! program order by the system's functional executor.
//!
//! With fine-grained prefetch disabled the streamer degrades into a plain
//! data-movement unit: one wide request at a time and no overlap between the
//! memory round-trip and consumption (the ablation baseline ①).

use dm_mem::{MemResponse, MemorySubsystem};
use dm_sim::{BlameLeaf, Cycle, StableHasher, TraceEventKind};

use crate::channel::{Landing, ReadChannel};
use crate::config::StreamerMode;
use crate::streamer::{map_checked, Side, StreamBinding, Streamer};

/// The read side's streamer state.
#[derive(Debug, PartialEq, Eq)]
pub struct ReadSide {
    /// Width of the accelerator-facing wide word (after extensions).
    output_width: usize,
    /// Coarse mode: the gate is open while the current wide request may
    /// issue.
    coarse_open: bool,
    /// Coarse mode: the channels that started their request since the gate
    /// opened.
    coarse_started: Vec<bool>,
}

dm_sim::clone_fields!(ReadSide {
    output_width,
    coarse_open,
    coarse_started
});

impl ReadSide {
    /// `true` if channel `c` may start a request: always with fine-grained
    /// prefetch, once per open gate without.
    fn may_start(&self, fine_grained: bool, c: usize) -> bool {
        fine_grained || (self.coarse_open && !self.coarse_started[c])
    }
}

impl Side for ReadSide {
    const MODE: StreamerMode = StreamerMode::Read;
    type Fifo = Landing;

    fn new(binding: &StreamBinding, channels: usize) -> Self {
        ReadSide {
            output_width: binding.chain.output_width(),
            coarse_open: false,
            coarse_started: vec![false; channels],
        }
    }

    fn hash_state(&self, hasher: &mut StableHasher) {
        hasher.write_bool(self.coarse_open);
        for &started in &self.coarse_started {
            hasher.write_bool(started);
        }
    }

    fn lock_key(&self, key: &mut Vec<u64>) {
        key.push(u64::from(self.coarse_open));
        key.extend(self.coarse_started.iter().map(|&s| u64::from(s)));
    }
}

/// A read-mode DataMaestro.
pub type ReadStreamer = Streamer<ReadSide>;

impl ReadStreamer {
    /// Width in bytes of the wide word delivered to the accelerator (after
    /// extensions).
    #[must_use]
    pub fn output_width(&self) -> usize {
        self.side.output_width
    }

    /// Phase 1: sample per-channel FIFO occupancy and coarse-mode gating
    /// state (must run before responses are delivered and before the
    /// accelerator pops, so every cycle contributes exactly one occupancy
    /// sample per channel).
    pub fn begin_cycle(&mut self) {
        self.sample_occupancy_span(1);
        if !self.fine_grained && !self.side.coarse_open && self.is_quiescent() {
            self.side.coarse_open = true;
            self.side.coarse_started.fill(false);
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
        // Channels register contiguously, so a response's channel is its
        // requester index less channel 0's.
        let base = self.channels.first().map_or(0, |c| c.requester().index());
        let channel = response
            .requester
            .index()
            .checked_sub(base)
            .and_then(|c| self.channels.get_mut(c))
            .expect("response routed to wrong streamer");
        channel.handle_response(response);
    }

    /// Phase 4: run the AGU (one temporal address per cycle), start channel
    /// requests where the gate allows, and submit pending ones.
    pub fn generate_and_issue(&mut self, mem: &mut MemorySubsystem) {
        self.generate(mem.cycle());
        let (remapper, side) = (&self.remapper, &mut self.side);
        for (c, channel) in self.channels.iter_mut().enumerate() {
            let may_start = side.may_start(self.fine_grained, c);
            let started = channel.issue(mem, may_start, |addr| map_checked(remapper, addr));
            if started && !self.fine_grained {
                side.coarse_started[c] = true;
            }
        }
        if !self.fine_grained && side.coarse_open && side.coarse_started.iter().all(|&s| s) {
            side.coarse_open = false;
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
        if laggard.addr_backlog() > 0 && !self.side.may_start(self.fine_grained, idx) {
            return BlameLeaf::Gate;
        }
        BlameLeaf::Agu
    }

    /// Records (into this streamer's trace) that the consumer found the
    /// stream blocked this cycle; the first channel without buffered data
    /// is the laggard holding back the wide word.
    pub fn note_consumer_blocked(&mut self, cycle: Cycle) {
        self.note_blocked(cycle, ReadChannel::has_data, |channel| {
            TraceEventKind::FifoEmpty { channel }
        });
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

    /// `true` if any phase of this cycle would do more than sample
    /// occupancy: the AGU emits, a request starts or resubmits, or the
    /// coarse gate moves. Every other transition waits on an external
    /// event — a memory response or an accelerator pop — so a streamer
    /// that does not act this cycle stays frozen until one arrives.
    #[must_use]
    pub fn acts_this_cycle(&self) -> bool {
        // Phase 4/5: the AGU emits, or a pending request resubmits.
        if self.busy() {
            return true;
        }
        // Phase 4: a channel may convert a queued address into a request.
        for (c, channel) in self.channels.iter().enumerate() {
            if self.side.may_start(self.fine_grained, c) && channel.can_start_request() {
                return true;
            }
        }
        // Phase 1: the coarse gate would open (all channels quiescent) or —
        // conservatively — close. Either transition mutates gating state.
        let side = &self.side;
        let opens = !side.coarse_open && self.is_quiescent();
        let closes = side.coarse_open && side.coarse_started.iter().all(|&s| s);
        !self.fine_grained && (opens || closes)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{ConfigError, DesignConfig, RuntimeConfig};
    use dm_mem::{AddressingMode, MemConfig};
    use dm_sim::Instrumented;

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

    /// A reach below address 0 or past `i64` is refused, not a panic.
    #[test]
    fn rejects_negative_and_overflowing_reaches_as_out_of_bounds() {
        for (stride, (min, max)) in [(-8, (0, 31)), (1 << 62, (0, (1 << 63) + 31))] {
            let rt = RuntimeConfig::builder()
                .temporal([3], [stride])
                .spatial_strides([8])
                .build();
            let err = ReadStreamer::new(&design(), &rt, &mut mem()).unwrap_err();
            assert!(
                matches!(err, ConfigError::PatternOutOfBounds { min_addr, max_addr, .. }
                    if (min_addr, max_addr) == (min, max)),
                "{err}"
            );
        }
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
        assert!(s.acts_this_cycle(), "fresh streamer: AGU can emit");
        for _ in 0..50 {
            tick(&mut s, &mut mem);
        }
        // AGU exhausted and FIFOs full: inert until the accelerator pops.
        assert!(!s.acts_this_cycle());
        let digest = s.activity_digest();
        tick(&mut s, &mut mem);
        assert_eq!(
            s.activity_digest(),
            digest,
            "an idle tick must not move observable state"
        );
        s.pop_wide(|_| {});
        assert!(
            s.acts_this_cycle(),
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
