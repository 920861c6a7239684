//! The front end both DataMaestro directions share (Fig. 2a).
//!
//! A read and a write DataMaestro are one block structure used in two
//! directions: an N-D AGU fans addresses out to per-channel MICs. A
//! [`Streamer`] is that structure — the bound pattern, the AGU fan-out
//! into the channel address queues, the grant tally, tracing, the
//! activity digest and the metrics — and its [`Side`] supplies what the
//! direction adds. [`ReadStreamer`](crate::ReadStreamer) and
//! [`WriteStreamer`](crate::WriteStreamer) are its two instances; their
//! direction-specific halves live in [`reader`](crate::reader) and
//! [`writer`](crate::writer). Nothing here branches on the direction.

use std::sync::Arc;

use dm_mem::{Addr, AddressRemapper, BankLocation, MemConfig, MemorySubsystem, RequesterId};
use dm_sim::{
    Counter, Cycle, Instrumented, LagRun, LatencyHistogram, MetricsRegistry, Periodic,
    StableHasher, Trace, TraceEventKind, TraceMode,
};

use crate::agu::{footprint, SpatialAgu, TemporalAgu};
use crate::channel::{Channel, ChannelFifo};
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

impl Periodic for StreamerStats {
    fn repeat_since(&mut self, earlier: &Self, k: u64) {
        self.granted.repeat_since(&earlier.granted, k);
        self.retries.repeat_since(&earlier.retries, k);
        self.wide_words.repeat_since(&earlier.wide_words, k);
        self.temporal_addresses
            .repeat_since(&earlier.temporal_addresses, k);
    }
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
    let capacity = mem.capacity_bytes();
    match footprint(&tagu, &sagu, word) {
        Some((min, max)) if min >= 0 && max < i128::from(capacity) => {}
        hull => {
            let (min, max) = hull.unwrap_or((0, i128::MAX));
            let clamp = |v: i128| v.clamp(0, u64::MAX.into()) as u64;
            return Err(ConfigError::PatternOutOfBounds {
                min_addr: clamp(min),
                max_addr: clamp(max),
                capacity,
            });
        }
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

/// What one direction adds to the shared front end.
pub trait Side: Sized + Clone + PartialEq {
    /// The mode a design must declare to build this side.
    const MODE: StreamerMode;
    /// The channels' data FIFO.
    type Fifo: ChannelFifo;
    /// The side's state for `channels` channels serving `binding`.
    fn new(binding: &StreamBinding, channels: usize) -> Self;
    /// Folds the side's state into the activity digest.
    fn hash_state(&self, _hasher: &mut StableHasher) {}
    /// Appends the side's state to a [`Streamer::lock_key`].
    fn lock_key(&self, _key: &mut Vec<u64>) {}
}

/// One DataMaestro: the shared front end over the channels of side `S`.
#[derive(PartialEq)]
pub struct Streamer<S: Side> {
    /// Fixed at construction and shared by clones.
    name: Arc<str>,
    pub(crate) remapper: AddressRemapper,
    tagu: TemporalAgu,
    sagu: SpatialAgu,
    pub(crate) channels: Vec<Channel<S::Fifo>>,
    pub(crate) fine_grained: bool,
    pub(crate) stats: StreamerStats,
    trace: Trace,
    /// Whether any channel lost crossbar arbitration in the most recent
    /// grant phase; the system uses this to attribute stalls to bank
    /// conflicts rather than plain latency.
    pub(crate) lost_arbitration: bool,
    pub(crate) side: S,
}

// A period anchor refills an earlier anchor's streamer in place.
dm_sim::clone_fields!(impl[S: Side] Streamer<S> {
    name,
    remapper,
    tagu,
    sagu,
    channels,
    fine_grained,
    stats,
    trace,
    lost_arbitration,
    side
});

impl<S: Side> Streamer<S> {
    /// Builds a streamer, registering one crossbar requester per channel:
    /// contiguous requesters, in channel order.
    ///
    /// # Errors
    ///
    /// Returns [`ConfigError`] if the design is not of this side's mode, or
    /// [`bind_pattern`] refuses the pattern.
    pub fn new(
        design: &DesignConfig,
        runtime: &RuntimeConfig,
        mem: &mut MemorySubsystem,
    ) -> Result<Self, ConfigError> {
        if design.mode() != S::MODE {
            return Err(ConfigError::InvalidParameter {
                parameter: "mode",
                reason: format!("a {} streamer requires a {0}-mode design", S::MODE),
            });
        }
        let binding = bind_pattern(design, runtime, mem.config())?;
        let channels: Vec<_> = (0..design.num_channels())
            .map(|c| {
                let id = mem.register_requester(format!("{}/ch{c}", design.name()));
                Channel::new(id, design.data_buffer_depth(), design.addr_buffer_depth())
            })
            .collect();
        Ok(Streamer {
            name: design.name().into(),
            side: S::new(&binding, channels.len()),
            remapper: binding.remapper,
            tagu: binding.temporal,
            sagu: binding.spatial,
            channels,
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

    /// Records in the trace that a stage found the stream blocked at
    /// `cycle`: `event` names the first channel that is not `ready`.
    pub(crate) fn note_blocked(
        &mut self,
        cycle: Cycle,
        ready: impl Fn(&Channel<S::Fifo>) -> bool,
        event: impl FnOnce(usize) -> TraceEventKind,
    ) {
        if !self.trace.is_enabled() {
            return;
        }
        if let Some(channel) = self.channels.iter().position(|ch| !ready(ch)) {
            self.trace.emit(cycle, &self.name, event(channel));
        }
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

    /// Requester ids of this streamer's channels, in channel order.
    #[must_use]
    pub fn channel_requesters(&self) -> Vec<RequesterId> {
        self.channels.iter().map(Channel::requester).collect()
    }

    /// `true` when the AGU emits this cycle: the pattern is unfinished and
    /// every channel's address buffer has room (channels consume the same
    /// temporal cadence).
    fn can_generate(&self) -> bool {
        !self.tagu.is_done() && self.channels.iter().all(Channel::has_addr_space)
    }

    /// `true` when the AGU can emit or some channel has a request waiting
    /// for a grant — either way the streamer acts this cycle.
    pub(crate) fn busy(&self) -> bool {
        self.can_generate() || self.channels.iter().any(Channel::has_pending)
    }

    /// The AGU step: emits the next temporal address, fanned out to every
    /// channel's address queue, if [`can_generate`](Self::can_generate).
    pub(crate) fn generate(&mut self, cycle: Cycle) {
        if self.can_generate() {
            if let Some(ta) = self.tagu.next_address() {
                self.stats.temporal_addresses.inc();
                for (c, channel) in self.channels.iter_mut().enumerate() {
                    channel.push_addr(self.sagu.channel_address(ta, c));
                }
                if let Some(dim) = self.tagu.last_wrap() {
                    self.trace
                        .emit(cycle, &self.name, TraceEventKind::AguWrap { dim });
                }
            }
        } else if !self.tagu.is_done() {
            self.note_blocked(cycle, Channel::has_addr_space, |channel| {
                TraceEventKind::FifoFull { channel }
            });
        }
    }

    /// Phase 5: consume the grant flags after crossbar arbitration.
    ///
    /// # Panics
    ///
    /// Panics if `grants` does not cover this streamer's requesters: pass
    /// the flags of the crossbar it was built against.
    pub fn handle_grants(&mut self, grants: &[bool]) {
        let first = self.channels.first().map_or(0, |c| c.requester().index());
        let flags = &grants[first..first + self.channels.len()];
        let (mut granted, mut retries) = (0, 0);
        for (channel, &flag) in self.channels.iter_mut().zip(flags) {
            if channel.handle_grant(flag) {
                if flag {
                    granted += 1;
                } else {
                    retries += 1;
                }
            }
        }
        self.stats.granted.add(granted);
        self.stats.retries.add(retries);
        self.lost_arbitration = retries > 0;
    }

    /// `true` once the pattern is exhausted and every channel has drained.
    #[must_use]
    pub fn is_done(&self) -> bool {
        self.tagu.is_done() && self.channels.iter().all(Channel::is_drained)
    }

    /// `true` when every channel FIFO is empty (the pattern may be
    /// unfinished).
    #[must_use]
    pub fn is_quiescent(&self) -> bool {
        self.channels.iter().all(Channel::is_quiescent)
    }

    /// Total wide words this pattern moves.
    #[must_use]
    pub fn total_wide_words(&self) -> u64 {
        self.tagu.total()
    }

    /// Aggregated statistics.
    #[must_use]
    pub fn stats(&self) -> &StreamerStats {
        &self.stats
    }

    /// Peak per-channel FIFO level across channels.
    #[must_use]
    pub fn fifo_high_watermark(&self) -> usize {
        self.channels
            .iter()
            .map(Channel::fifo_high_watermark)
            .max()
            .unwrap_or(0)
    }

    /// Records `span` per-channel occupancy samples at once: the side's
    /// once-per-cycle sample, or the fast-forward replay of a span in which
    /// every FIFO is provably frozen.
    pub fn sample_occupancy_span(&mut self, span: u64) {
        for channel in &mut self.channels {
            channel.sample_occupancy_span(span);
        }
    }

    /// Digest of every piece of state a fast-forwarded span must leave
    /// frozen, for the debug-build [`dm_sim::SpanCheck`]. Excludes the
    /// occupancy histograms, which the span replay samples on purpose.
    #[must_use]
    pub fn activity_digest(&self) -> u64 {
        let mut h = StableHasher::new();
        h.write_u64(self.stats.granted.get());
        h.write_u64(self.stats.retries.get());
        h.write_u64(self.stats.wide_words.get());
        h.write_u64(self.stats.temporal_addresses.get());
        h.write_bool(self.lost_arbitration);
        h.write_bool(self.tagu.is_done());
        h.write_u64(self.tagu.wraps());
        self.side.hash_state(&mut h);
        for channel in &self.channels {
            channel.hash_state(&mut h);
        }
        h.finish()
    }
}

/// Period replay: the lock key, the bank horizon and the replay of
/// whole periods (DESIGN §8).
impl<S: Side> Streamer<S> {
    /// Appends the streamer state that steers its future cycles and does
    /// not grow with the stream position: the last grant round's outcome,
    /// whether the pattern is exhausted, the side's gate and every
    /// channel's FIFO and backlog levels. Two tile boundaries with equal
    /// keys (and equal memory keys) evolve alike as long as the words the
    /// AGU feeds in map to the same banks.
    pub fn lock_key(&self, key: &mut Vec<u64>) {
        key.extend([
            u64::from(self.lost_arbitration),
            u64::from(self.tagu.is_done()),
        ]);
        self.side.lock_key(key);
        for channel in &self.channels {
            channel.lock_key(key);
        }
    }

    /// Stream positions the channels still hold: the most live words of
    /// any channel.
    fn live_window(&self) -> u64 {
        self.channels
            .iter()
            .map(Channel::live_words)
            .max()
            .unwrap_or(0) as u64
    }

    /// How many more periods like the one since `earlier` the stream keeps
    /// its bank pattern for, at most `cap`: every word a channel takes into
    /// its FIFO in a further period must map to the bank of the word one
    /// period before. Queued addresses steer nothing until they are taken
    /// in, but the words already in the FIFOs do: they are checked too,
    /// against the period that ends with them. The count is capped so
    /// that every channel can take in every period in full: a channel
    /// takes in from its address queue, so the replay may run past the
    /// AGU's last address by up to the shortest backlog.
    #[must_use]
    pub fn repeatable_periods(&self, earlier: &Self, cap: u64) -> u64 {
        let queued = self
            .channels
            .iter()
            .map(Channel::addr_backlog)
            .min()
            .unwrap_or(0) as u64;
        let horizon = BankHorizon {
            remapper: &self.remapper,
            tagu: &self.tagu,
            sagu: &self.sagu,
            delta: self.tagu.produced() - earlier.tagu.produced(),
        };
        horizon.periods(self.live_window(), queued, cap)
    }

    /// Replays `k` more periods like the one since `earlier`: the counters,
    /// occupancy samples and tags advance by `k` times their change, the
    /// AGU by `k` times its addresses, and every channel's live words
    /// become the addresses at the AGU's new position. Nothing else about
    /// the streamer moves within a period, except where the AGU runs out
    /// first: it stops at its last address, and every channel's queue
    /// holds as many fewer addresses as the AGU fell short.
    pub fn repeat_since(&mut self, earlier: &Self, k: u64) {
        self.stats.repeat_since(&earlier.stats, k);
        let produced = self.tagu.produced();
        let target = produced + k * (produced - earlier.tagu.produced());
        let land = target.min(self.tagu.total());
        let short = target - land;
        // The AGU counts the addresses it produced: up to its last.
        self.stats.temporal_addresses.reset();
        self.stats.temporal_addresses.add(land);
        let window = self.live_window() - short;
        self.tagu.reset();
        self.tagu.skip(land - window);
        let temporal: Vec<u64> = (0..window)
            .map(|_| self.tagu.next_address().expect("replay within the pattern"))
            .collect();
        let (remapper, sagu) = (&self.remapper, &self.sagu);
        for (c, (channel, then)) in self.channels.iter_mut().zip(&earlier.channels).enumerate() {
            let live = temporal[temporal.len() - (channel.live_words() - short as usize)..].iter();
            channel.repeat_since(
                then,
                k,
                live.map(|&ta| sagu.channel_address(ta, c)),
                |addr| map_checked(remapper, addr),
            );
        }
    }

    /// The channel addresses of the stream's wide words from `position`
    /// on: what the channels would hand out, word by word.
    #[must_use]
    pub fn words_from(&self, position: u64) -> WordCursor<'_> {
        let mut tagu = self.tagu.clone();
        tagu.reset();
        tagu.skip(position);
        WordCursor {
            tagu,
            sagu: &self.sagu,
        }
    }
}

/// How far a stream keeps the bank pattern of its last `delta` positions
/// (DESIGN §8.2): position `x` keeps it when every channel word of `x`
/// maps to the bank of the same channel's word at `x − delta`.
///
/// Over a [`LagRun`] of the AGU's nest each word lies one fixed `shift`
/// from its counterpart, so a whole run is settled at once by the one
/// bank-keeping predicate, [`BankMap::keeps_banks`](dm_mem::BankMap::keeps_banks),
/// over the hull of the run's words and their counterparts. A run it does
/// not keep is split in two, down to single positions, where the predicate
/// is the bank comparison itself.
struct BankHorizon<'a> {
    remapper: &'a AddressRemapper,
    tagu: &'a TemporalAgu,
    sagu: &'a SpatialAgu,
    delta: u64,
}

impl BankHorizon<'_> {
    /// The periods of `delta` positions, at most `cap`, that follow the
    /// last position the channels took in (`queued` short of the AGU's)
    /// and keep the bank pattern, provided the `window` positions before
    /// the AGU's keep it too. The channels take in at most the positions
    /// the AGU has left plus the `queued` ones.
    fn periods(&self, window: u64, queued: u64, cap: u64) -> u64 {
        let (produced, delta) = (self.tagu.produced(), self.delta);
        if delta == 0 {
            return cap;
        }
        let (from, start) = (produced - window, produced - queued);
        let cap = cap.min((self.tagu.total() - start) / delta);
        if cap == 0 || from < delta {
            return 0;
        }
        let to = start + cap * delta;
        match self
            .tagu
            .nest()
            .lag_runs(delta, from, to)
            .find_map(|run| self.break_in(run))
        {
            Some(x) => x.saturating_sub(start) / delta,
            None => cap,
        }
    }

    /// The first position of `run` whose words leave their banks.
    fn break_in(&self, run: LagRun) -> Option<u64> {
        let LagRun { start, end, shift } = run;
        let map = self.remapper.map();
        let in_group = || {
            let moved = |(lo, hi): (i128, i128)| {
                (
                    lo.min(lo - i128::from(shift)),
                    hi.max(hi - i128::from(shift)),
                )
            };
            map.in_one_group(
                self.tagu.nest().hull(start, end).map(moved),
                self.sagu.offsets(),
            )
        };
        if map.keeps_banks(shift, in_group) {
            None
        } else if end - start == 1 {
            Some(start)
        } else {
            let mid = start + (end - start) / 2;
            self.break_in(LagRun { end: mid, ..run })
                .or_else(|| self.break_in(LagRun { start: mid, ..run }))
        }
    }
}

/// A walk over a stream's wide words, from [`Streamer::words_from`].
#[derive(Debug)]
pub struct WordCursor<'a> {
    tagu: TemporalAgu,
    sagu: &'a SpatialAgu,
}

impl WordCursor<'_> {
    /// Hands the next wide word's channel addresses to `word`, in channel
    /// order.
    ///
    /// # Panics
    ///
    /// Panics past the end of the pattern.
    pub fn next_word(&mut self, mut word: impl FnMut(u64)) {
        let ta = self.tagu.next_address().expect("word within the pattern");
        for c in 0..self.sagu.num_channels() {
            word(self.sagu.channel_address(ta, c));
        }
    }
}

impl<S: Side> Instrumented for Streamer<S> {
    fn register_metrics(&self, registry: &mut MetricsRegistry) {
        registry.set_counter("granted", self.stats.granted.get());
        registry.set_counter("retries", self.stats.retries.get());
        registry.set_counter("wide_words", self.stats.wide_words.get());
        registry.set_counter("temporal_addresses", self.stats.temporal_addresses.get());
        registry.set_counter("agu_wraps", self.tagu.wraps());
        registry.set_counter("fifo_high_watermark", self.fifo_high_watermark() as u64);
        let occupancy: Vec<_> = self.channels.iter().map(Channel::fifo_occupancy).collect();
        registry.set_histogram("fifo_occupancy", &LatencyHistogram::merged(&occupancy));
        for (c, (channel, occupancy)) in self.channels.iter().zip(&occupancy).enumerate() {
            registry.with_scope(&format!("ch{c}"), |r| {
                channel.register_metrics(r, occupancy)
            });
        }
    }
}

impl<S: Side> std::fmt::Debug for Streamer<S> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Streamer")
            .field("mode", &S::MODE)
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
    use dm_sim::SplitMix64;

    /// The word-by-word bank walk the horizon replaced, kept as its oracle:
    /// the words already taken in are checked against the words `delta`
    /// positions earlier, then period after period every word against the
    /// word one period earlier, channel by channel, until a word leaves its
    /// bank, `cap` periods pass or the channels cannot take in another
    /// whole period: they take in the `queued` words and the AGU's rest.
    fn walked_periods(h: &BankHorizon<'_>, window: u64, queued: u64, cap: u64) -> u64 {
        let produced = h.tagu.produced();
        let at = |position: u64| {
            let mut agu = h.tagu.clone();
            agu.reset();
            agu.skip(position);
            agu
        };
        let (mut lead, mut lag) = (at(produced - window), at(produced - window - h.delta));
        let mut keeps = || {
            let now = lead.next_address().expect("capped by the pattern");
            let then = lag.next_address().expect("behind the lead");
            (0..h.sagu.num_channels()).all(|c| {
                let bank = |ta| h.remapper.map().bank_of(h.sagu.channel_address(ta, c));
                bank(now) == bank(then)
            })
        };
        if !(queued..window).all(|_| keeps()) {
            return 0;
        }
        let periods = (h.tagu.total() - (produced - queued))
            .checked_div(h.delta)
            .unwrap_or(u64::MAX);
        let mut k = 0;
        while k < cap.min(periods) && (0..h.delta).all(|_| keeps()) {
            k += 1;
        }
        k
    }

    /// A stride of a random number of words: zero, small, or whole
    /// interleave rounds of any of the tested modes, of either sign.
    fn stride(rng: &mut SplitMix64, round: i64) -> i64 {
        let words = match rng.below(4) {
            0 => 0,
            1 => rng.between(-6, 6),
            _ => rng.between(-3, 3) * round,
        };
        words * 8
    }

    /// The horizon's `k` equals the word walk's on random nests: caps of
    /// zero and one period and beyond the nest, replays that run past the
    /// AGU's end into the queued positions, one-trip dimensions, zero
    /// and negative strides, lags that are and are not a product of inner
    /// bounds (and zero), footprints that straddle interleave groups, under
    /// FIMA, GIMA(8) and GIMA(1).
    #[test]
    fn the_horizon_matches_the_word_walk_on_random_nests() {
        let mem = MemConfig::new(32, 8, 16).unwrap();
        let modes = [
            AddressingMode::FullyInterleaved,
            AddressingMode::GroupedInterleaved { group_banks: 8 },
            AddressingMode::GroupedInterleaved { group_banks: 1 },
        ];
        let capacity = mem.capacity_bytes() as i64;
        let mut rng = SplitMix64::new(0xb0a2d);
        let (mut cases, mut kept, mut broken, mut straddled, mut outlast) = (0, 0, 0, 0, 0);
        while cases < 10_000 {
            let mode = modes[rng.below(3) as usize];
            let remapper = AddressRemapper::new(&mem, mode).unwrap();
            let round = [32, 8, 1][rng.below(3) as usize];
            let dims = 1 + rng.below(5) as usize;
            let bounds: Vec<u64> = (0..dims).map(|_| 1 + rng.below(6)).collect();
            let strides: Vec<i64> = (0..dims).map(|_| stride(&mut rng, round)).collect();
            let channels = [vec![1], vec![4], vec![2, 2]][rng.below(3) as usize].clone();
            let spatial: Vec<i64> = channels.iter().map(|_| stride(&mut rng, round)).collect();
            let sagu = SpatialAgu::new(&channels, &spatial);
            let probe = TemporalAgu::new(0, &bounds, &strides);
            let (t_lo, t_hi) = probe.nest().hull(0, probe.total()).unwrap();
            let (s_lo, s_hi) = sagu.offset_range();
            let (lo, hi) = (t_lo as i64 + s_lo, t_hi as i64 + s_hi);
            if hi - lo >= capacity {
                continue;
            }
            let base = (-lo + 8 * rng.between(0, (capacity - 8 - (hi - lo)) / 8)) as u64;
            let mut tagu = TemporalAgu::new(base, &bounds, &strides);
            let total = tagu.total();
            let window = rng.below(6);
            let queued = rng.below(window + 1);
            let inner: u64 = bounds[..rng.below(dims as u64 + 1) as usize]
                .iter()
                .product();
            let delta = match rng.below(6) {
                0 => 0,
                1 | 2 => inner * (1 + rng.below(3)),
                3 => 1 + rng.below(8),
                _ => 1 + rng.below(total),
            };
            if delta + window > total {
                continue;
            }
            let produced = delta + window + rng.below(total - delta - window + 1);
            tagu.skip(produced);
            let cap = match rng.below(4) {
                0 => rng.below(2),
                1 if delta > 0 => u64::MAX,
                _ => rng.below(40),
            };
            let horizon = BankHorizon {
                remapper: &remapper,
                tagu: &tagu,
                sagu: &sagu,
                delta,
            };
            let k = horizon.periods(window, queued, cap);
            let label = format!(
                "{mode} base {base} bounds {bounds:?} strides {strides:?} spatial \
                 {channels:?}/{spatial:?} at {produced}, delta {delta}, window \
                 {window}, queued {queued}, cap {cap}"
            );
            assert_eq!(k, walked_periods(&horizon, window, queued, cap), "{label}");
            cases += 1;
            let supply = total - (produced - queued);
            let reach = cap.min(supply.checked_div(delta).unwrap_or(cap));
            kept += u64::from(k > 0);
            broken += u64::from(0 < k && k < reach);
            outlast += u64::from(produced + k * delta > total);
            let group = |addr: i64| remapper.map().bank_of(addr as u64) / mode.group_banks(32);
            let straddles = group(base as i64 + lo) != group(base as i64 + hi);
            straddled += u64::from(k > 0 && straddles);
        }
        assert!(kept > 2000, "{kept} cases keep their banks for a period");
        assert!(broken > 200, "{broken} cases break after a period");
        assert!(straddled > 400, "{straddled} kept cases straddle a group");
        assert!(outlast >= 200, "{outlast} cases reach past the AGU's end");
    }
}
