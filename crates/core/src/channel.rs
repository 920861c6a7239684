//! Per-channel Memory Interface Controllers (§III-C, Fig. 2b).
//!
//! A DataMaestro splits one wide accelerator word across `N_C` independent
//! channels. Each channel queues the addresses the spatial AGU fans out to
//! it, keeps a data FIFO and offers the crossbar at most one request per
//! cycle. That much is one [`Channel`] for both directions; its
//! [`ChannelFifo`] ([`fifo`](crate::fifo)) says what the FIFO holds and
//! which request it offers:
//!
//! * a read channel's FIFO ([`Landing`]) is kept by its Outstanding Request
//!   Manager (ORM), which reserves a slot before the Request Side Controller
//!   (RSC) may issue, guaranteeing every in-flight response a landing slot;
//! * a write channel's FIFO is a queue, bounded by the channel depth, of
//!   the destinations of the words waiting to drain.
//!
//! Channels run ahead of each other freely; this *fine-grained prefetch* is
//! what hides bank-conflict and latency stalls from the accelerator.
//!
//! Channels are timing models: they carry request headers and the byte
//! address of every word in flight, never the word itself. The bytes are
//! produced by the system's functional executor, which walks the same
//! patterns in program order.

use std::collections::VecDeque;

use dm_mem::{BankLocation, MemResponse, RequesterId};
use dm_sim::{Counter, LatencyHistogram, MetricsRegistry, Periodic, StableHasher};

pub use crate::fifo::{ChannelFifo, Landing};

/// Per-channel event counters.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct ChannelStats {
    /// Requests granted by the crossbar.
    pub granted: Counter,
    /// Cycles a request was submitted but lost arbitration (bank conflict).
    pub retries: Counter,
}

impl Periodic for ChannelStats {
    fn repeat_since(&mut self, earlier: &Self, k: u64) {
        self.granted.repeat_since(&earlier.granted, k);
        self.retries.repeat_since(&earlier.retries, k);
    }
}

/// Once-per-cycle FIFO occupancy samples, run-length encoded: consecutive
/// samples at the same level accumulate in one open `(level, run)` pair,
/// which is folded into the histogram when the level changes. A histogram
/// is a commutative sum of samples, so this is bit-identical to recording
/// every sample on its own.
#[derive(Debug, Default, PartialEq, Eq)]
struct OccupancySampler {
    closed: LatencyHistogram,
    level: u64,
    run: u64,
}

dm_sim::clone_fields!(OccupancySampler { closed, level, run });

impl OccupancySampler {
    #[inline]
    fn sample_n(&mut self, level: u64, n: u64) {
        if level != self.level {
            self.closed.record_n(self.level, self.run);
            self.level = level;
            self.run = 0;
        }
        self.run += n;
    }

    fn histogram(&self) -> LatencyHistogram {
        let mut all = self.closed.clone();
        all.record_n(self.level, self.run);
        all
    }
}

impl Periodic for OccupancySampler {
    /// `k` more periods of the samples since `earlier`. If the open run
    /// covers the whole period, every sample of the period is at its level
    /// and the run just grows; otherwise the level changes within each
    /// period, so each period closes its samples and ends in the open run
    /// it ends in now.
    fn repeat_since(&mut self, earlier: &Self, k: u64) {
        let period = self.closed.count() + self.run - earlier.closed.count() - earlier.run;
        if self.run >= period {
            self.run += k * period;
        } else {
            let later = self.histogram();
            self.closed.add_repeats(&later, &earlier.histogram(), k);
        }
    }
}

/// One channel's MIC: the address queue the spatial AGU fills, the data
/// FIFO `F`, and the request it offers the crossbar.
#[derive(Debug, PartialEq, Eq)]
pub struct Channel<F> {
    requester: RequesterId,
    addr_queue: VecDeque<u64>,
    addr_capacity: usize,
    /// FIFO depth in words: the bound on [`ChannelFifo::level`].
    depth: usize,
    fifo: F,
    high_watermark: usize,
    stats: ChannelStats,
    /// Once-per-cycle samples of the FIFO level (in words).
    occupancy: OccupancySampler,
}

dm_sim::clone_fields!(impl[F: Clone] Channel<F> {
    requester,
    addr_queue,
    addr_capacity,
    depth,
    fifo,
    high_watermark,
    stats,
    occupancy
});

/// A read channel: MIC with Outstanding Request Manager.
pub type ReadChannel = Channel<Landing>;

/// A write channel: address/data pairing FIFO plus the write-side MIC.
pub type WriteChannel = Channel<VecDeque<BankLocation>>;

impl<F: ChannelFifo> Channel<F> {
    /// Creates a channel with the given FIFO depth and address-buffer
    /// depth, bound to a registered crossbar requester.
    ///
    /// # Panics
    ///
    /// Panics if `fifo_depth` is zero: a zero-depth FIFO cannot decouple
    /// anything and always indicates a configuration bug.
    #[must_use]
    pub fn new(requester: RequesterId, fifo_depth: usize, addr_depth: usize) -> Self {
        assert!(fifo_depth > 0, "fifo capacity must be non-zero");
        Channel {
            requester,
            addr_queue: VecDeque::with_capacity(addr_depth),
            addr_capacity: addr_depth,
            depth: fifo_depth,
            fifo: F::default(),
            high_watermark: 0,
            stats: ChannelStats::default(),
            occupancy: OccupancySampler::default(),
        }
    }

    /// The channel's crossbar requester id.
    #[must_use]
    pub fn requester(&self) -> RequesterId {
        self.requester
    }

    /// `true` if the address buffer can take another address.
    #[must_use]
    pub fn has_addr_space(&self) -> bool {
        self.addr_queue.len() < self.addr_capacity
    }

    /// Enqueues a channel address produced by the spatial AGU.
    ///
    /// # Panics
    ///
    /// Panics if the address buffer is full; callers gate on
    /// [`has_addr_space`](Self::has_addr_space).
    pub fn push_addr(&mut self, addr: u64) {
        assert!(self.has_addr_space(), "address buffer overflow");
        self.addr_queue.push_back(addr);
    }

    /// Addresses queued but not yet taken into the FIFO.
    #[must_use]
    pub fn addr_backlog(&self) -> usize {
        self.addr_queue.len()
    }

    /// `true` if the FIFO has a slot to reserve or fill.
    #[inline]
    fn has_free_slot(&self) -> bool {
        self.fifo.level() < self.depth
    }

    /// Takes the next queued address into the FIFO and returns it.
    #[inline]
    fn admit(&mut self, map: impl FnOnce(u64) -> BankLocation) -> u64 {
        let addr = self
            .addr_queue
            .pop_front()
            .expect("admit without a queued address");
        self.fifo.admit(addr, map(addr));
        self.high_watermark = self.high_watermark.max(self.fifo.level());
        addr
    }

    /// `true` if the channel holds no data, no reservations and no queued
    /// addresses.
    #[must_use]
    pub fn is_drained(&self) -> bool {
        self.is_quiescent() && self.addr_queue.is_empty()
    }

    /// `true` if the FIFO is empty: no data and no requests in flight (the
    /// address queue may still hold future work).
    #[must_use]
    pub fn is_quiescent(&self) -> bool {
        self.fifo.level() == 0
    }

    /// `true` while a request is waiting for a grant.
    #[must_use]
    pub fn has_pending(&self) -> bool {
        self.fifo.request().is_some()
    }

    /// The request awaiting a grant, if any: its location and tag. The
    /// owning streamer submits every channel's in one
    /// [`MemorySubsystem::submit_batch`](dm_mem::MemorySubsystem::submit_batch) call.
    #[inline]
    #[must_use]
    pub fn request(&self) -> Option<(BankLocation, u64)> {
        self.fifo.request()
    }

    /// Consumes the grant flag for this channel after arbitration: a
    /// granted request retires. Returns whether a request was waiting.
    #[inline]
    pub fn handle_grant(&mut self, granted: bool) -> bool {
        if !self.has_pending() {
            return false;
        }
        if granted {
            self.fifo.retire();
            self.stats.granted.inc();
        } else {
            self.stats.retries.inc();
        }
        true
    }

    /// Channel statistics.
    #[must_use]
    pub fn stats(&self) -> &ChannelStats {
        &self.stats
    }

    /// Peak FIFO level observed.
    #[must_use]
    pub fn fifo_high_watermark(&self) -> usize {
        self.high_watermark
    }

    /// Records `span` occupancy samples of the FIFO level. The owning
    /// streamer samples once per simulated cycle, giving a time-weighted
    /// occupancy distribution; the fast-forward engine replays a skipped
    /// span, across which it proves the FIFO frozen, in one call.
    #[inline]
    pub fn sample_occupancy_span(&mut self, span: u64) {
        self.occupancy.sample_n(self.fifo.level() as u64, span);
    }

    /// The sampled occupancy distribution.
    #[must_use]
    pub fn fifo_occupancy(&self) -> LatencyHistogram {
        self.occupancy.histogram()
    }

    /// Folds every piece of channel state the fast-forward engine promises
    /// not to disturb into `hasher` (occupancy samples are excluded: they
    /// are deliberately replayed across a skipped span).
    pub fn hash_state(&self, hasher: &mut StableHasher) {
        hasher.write_usize(self.fifo.level());
        hasher.write_usize(self.addr_queue.len());
        hasher.write_u64(self.stats.granted.get());
        hasher.write_u64(self.stats.retries.get());
        self.fifo.hash_state(hasher);
    }

    /// Appends the channel state that steers future cycles and does not
    /// grow with the stream position: FIFO level, address backlog and the
    /// FIFO's own (landed, pending) state.
    pub(crate) fn lock_key(&self, key: &mut Vec<u64>) {
        key.extend([self.fifo.level() as u64, self.addr_queue.len() as u64]);
        self.fifo.lock_key(key);
    }

    /// Stream words the channel holds: committed FIFO slots plus queued
    /// addresses, the newest words the AGU has fanned out to it.
    pub(crate) fn live_words(&self) -> usize {
        self.fifo.level() + self.addr_queue.len()
    }

    /// `k` more repeats of the period since `earlier`: counters, occupancy
    /// samples and tags advance, and the live words become `words`, the
    /// channel addresses of the [`live_words`](Self::live_words) newest
    /// stream positions after the repeats, oldest first.
    pub(crate) fn repeat_since(
        &mut self,
        earlier: &Self,
        k: u64,
        words: impl Iterator<Item = u64>,
        map: impl Fn(u64) -> BankLocation,
    ) {
        self.stats.repeat_since(&earlier.stats, k);
        self.occupancy.repeat_since(&earlier.occupancy, k);
        self.fifo.repeat_since(&earlier.fifo, k);
        let level = self.fifo.level();
        let mut words = words.fuse();
        self.fifo
            .rebase(words.by_ref().take(level).map(|addr| (addr, map(addr))));
        self.addr_queue.clear();
        self.addr_queue.extend(words);
    }

    /// Registers the channel's counters, high watermark and `occupancy`
    /// histogram.
    pub(crate) fn register_metrics(
        &self,
        registry: &mut MetricsRegistry,
        occupancy: &LatencyHistogram,
    ) {
        registry.set_counter("granted", self.stats.granted.get());
        registry.set_counter("retries", self.stats.retries.get());
        registry.set_counter("fifo_high_watermark", self.high_watermark as u64);
        registry.set_histogram("fifo_occupancy", occupancy);
        self.fifo.register_metrics(registry);
    }
}

impl ReadChannel {
    /// Reserved slots whose response has not landed: requests granted and
    /// in flight, plus the pending request if any.
    #[must_use]
    pub fn outstanding(&self) -> usize {
        self.fifo.outstanding()
    }

    /// The bank the pending (not-yet-granted) request targets, if any —
    /// the component the blame walk charges a lost arbitration round to.
    #[must_use]
    pub fn pending_bank(&self) -> Option<usize> {
        self.fifo.pending_bank()
    }

    /// `true` when [`start`](Self::start) may start a request: no request
    /// pending, an address queued and an ORM landing slot reservable.
    /// Read-only mirror of that gate, used by
    /// [`ReadStreamer::acts_this_cycle`](crate::ReadStreamer::acts_this_cycle)
    /// to prove a channel inert.
    #[must_use]
    pub fn can_start_request(&self) -> bool {
        !self.has_pending() && !self.addr_queue.is_empty() && self.has_free_slot()
    }

    /// RSC step: if `may_start` and
    /// [`can_start_request`](Self::can_start_request), convert the next
    /// queued address into a pending request, reserving a FIFO slot through
    /// the ORM. The pending [`request`](Self::request), new or retried, is
    /// then the channel's submission. Returns `true` if a new request was
    /// started.
    #[inline]
    pub fn start(&mut self, may_start: bool, map: impl FnOnce(u64) -> BankLocation) -> bool {
        let started = may_start && self.can_start_request();
        if started {
            self.admit(map);
        }
        started
    }

    /// Lands a memory response in the oldest unfilled reservation. The
    /// response must echo the tag of the oldest outstanding request.
    ///
    /// # Panics
    ///
    /// Panics if responses arrive out of order or without an outstanding
    /// request — simulator bugs given the in-order memory model.
    #[inline]
    pub fn handle_response(&mut self, response: MemResponse) {
        assert_eq!(response.requester, self.requester, "misrouted response");
        self.land(response.tag);
    }

    /// Lands the response echoing `tag`, routed here by its requester.
    ///
    /// # Panics
    ///
    /// As [`handle_response`](Self::handle_response), on a response out of
    /// order or without an outstanding request.
    #[inline]
    pub fn land(&mut self, tag: u64) {
        self.fifo.land(tag);
    }

    /// `true` if a word is ready at the FIFO head.
    #[must_use]
    pub fn has_data(&self) -> bool {
        self.fifo.has_data()
    }

    /// Pops the word at the FIFO head, returning its byte address.
    ///
    /// # Panics
    ///
    /// Panics if no word is ready ([`has_data`](Self::has_data) is false).
    #[inline]
    pub fn pop(&mut self) -> u64 {
        self.fifo.pop().expect("channel has data")
    }
}

impl WriteChannel {
    /// `true` if the channel can accept one more data word (needs both a
    /// FIFO slot and a queued destination address).
    #[must_use]
    pub fn can_accept(&self) -> bool {
        self.has_free_slot() && !self.addr_queue.is_empty()
    }

    /// Accepts one data word, pairing it with the next queued address,
    /// which it returns.
    ///
    /// # Panics
    ///
    /// Panics if [`can_accept`](Self::can_accept) is false.
    pub fn accept(&mut self, map: impl FnOnce(u64) -> BankLocation) -> u64 {
        assert!(self.has_free_slot(), "write fifo overflow");
        self.admit(map)
    }

    /// Number of words waiting to drain.
    #[must_use]
    pub fn backlog(&self) -> usize {
        self.fifo.len()
    }

    /// The bank the head (next-to-drain) word targets, if any — the
    /// component the blame walk charges a blocked writeback to.
    #[must_use]
    pub fn head_bank(&self) -> Option<usize> {
        self.fifo.front().map(|loc| loc.bank)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dm_mem::{MemConfig, MemorySubsystem};
    use dm_sim::SplitMix64;

    impl<F: ChannelFifo> Channel<F> {
        /// Submits the pending request on its own: a one-channel batch.
        pub(crate) fn submit(&self, mem: &mut MemorySubsystem) {
            mem.submit_batch(self.requester, F::OP, std::iter::once(self.request()))
                .unwrap();
        }
    }

    impl ReadChannel {
        /// [`Channel::start`], then [`Channel::submit`].
        pub(crate) fn issue(
            &mut self,
            mem: &mut MemorySubsystem,
            may_start: bool,
            map: impl FnOnce(u64) -> BankLocation,
        ) -> bool {
            let started = self.start(may_start, map);
            self.submit(mem);
            started
        }
    }

    fn mem_with(n: usize) -> (MemorySubsystem, Vec<RequesterId>) {
        let mut mem = MemorySubsystem::new(MemConfig::new(4, 8, 64).unwrap());
        let ids = (0..n)
            .map(|i| mem.register_requester(format!("ch{i}")))
            .collect();
        (mem, ids)
    }

    #[test]
    fn read_channel_full_request_lifecycle() {
        let (mut mem, ids) = mem_with(1);
        let mut ch = ReadChannel::new(ids[0], 4, 4);
        ch.push_addr(8); // word 1 → bank 1 under FIMA
        assert!(ch.issue(&mut mem, true, |a| BankLocation {
            bank: (a / 8 % 4) as usize,
            row: (a / 8 / 4) as usize
        }));
        assert!(ch.has_pending());
        let grants = mem.arbitrate().to_vec();
        ch.handle_grant(grants[ids[0].index()]);
        assert!(!ch.has_pending());
        assert_eq!(ch.outstanding(), 1);
        mem.drain_responses(|resp| ch.handle_response(resp));
        assert!(ch.has_data());
        assert_eq!(ch.pop(), 8, "the popped word is the one requested");
        assert_eq!(ch.stats().granted.get(), 1);
        let mut reg = MetricsRegistry::new();
        ch.register_metrics(&mut reg, &ch.fifo_occupancy());
        assert_eq!(reg.get("responses").unwrap().as_f64(), 1.0);
        assert!(ch.is_drained());
    }

    /// Words keep their order through many wraps of a depth-2 data FIFO,
    /// with fills running ahead of pops.
    #[test]
    fn read_channel_words_wrap_the_ring_in_order() {
        let (mut mem, ids) = mem_with(1);
        let mut ch = ReadChannel::new(ids[0], 2, 8);
        for i in 0..7 {
            ch.push_addr(i);
        }
        let map = |a: u64| BankLocation {
            bank: 0,
            row: a as usize,
        };
        let mut popped = Vec::new();
        for cycle in 0..40 {
            mem.drain_responses(|resp| ch.handle_response(resp));
            if cycle % 3 == 0 && ch.has_data() {
                popped.push(ch.pop());
            }
            ch.issue(&mut mem, true, map);
            ch.handle_grant(mem.arbitrate()[ids[0].index()]);
        }
        assert_eq!(popped, (0..7).collect::<Vec<u64>>());
        assert!(ch.is_drained());
    }

    #[test]
    fn orm_throttles_when_fifo_reserved_out() {
        let (mut mem, ids) = mem_with(1);
        let mut ch = ReadChannel::new(ids[0], 2, 8);
        for i in 0..4 {
            ch.push_addr(i * 8);
        }
        let map = |a: u64| BankLocation {
            bank: (a / 8 % 4) as usize,
            row: 0,
        };
        assert!(ch.issue(&mut mem, true, map));
        // Pending occupies one reservation; channel can't start another
        // while one is pending…
        assert!(!ch.can_start_request());
        // …after the grant a second can start (second slot)…
        ch.handle_grant(mem.arbitrate()[ids[0].index()]);
        assert!(ch.issue(&mut mem, true, map));
        ch.handle_grant(mem.arbitrate()[ids[0].index()]);
        // …but the third is throttled by the ORM: both slots reserved.
        assert!(!ch.can_start_request());
        assert!(!ch.issue(&mut mem, true, map));
        assert_eq!(ch.outstanding(), 2);
    }

    #[test]
    fn retry_counts_conflicts() {
        let (mut mem, ids) = mem_with(2);
        let mut a = ReadChannel::new(ids[0], 4, 4);
        let mut b = ReadChannel::new(ids[1], 4, 4);
        let map = |_| BankLocation { bank: 0, row: 0 };
        a.push_addr(0);
        b.push_addr(0);
        a.issue(&mut mem, true, map);
        b.issue(&mut mem, true, map);
        let grants = mem.arbitrate().to_vec();
        a.handle_grant(grants[ids[0].index()]);
        b.handle_grant(grants[ids[1].index()]);
        let retries = a.stats().retries.get() + b.stats().retries.get();
        let granted = a.stats().granted.get() + b.stats().granted.get();
        assert_eq!(retries, 1);
        assert_eq!(granted, 1);
    }

    #[test]
    #[should_panic(expected = "fifo capacity must be non-zero")]
    fn zero_depth_panics() {
        let (_, ids) = mem_with(1);
        let _ = ReadChannel::new(ids[0], 0, 1);
    }

    #[test]
    #[should_panic(expected = "address buffer overflow")]
    fn addr_overflow_panics() {
        let (_, ids) = mem_with(1);
        let mut ch = ReadChannel::new(ids[0], 2, 1);
        ch.push_addr(0);
        ch.push_addr(8);
    }

    #[test]
    fn write_channel_drains_on_grant() {
        let (mut mem, ids) = mem_with(1);
        let mut ch = WriteChannel::new(ids[0], 2, 2);
        ch.push_addr(16);
        assert!(ch.can_accept());
        let addr = ch.accept(|a| BankLocation {
            bank: (a / 8 % 4) as usize,
            row: (a / 8 / 4) as usize,
        });
        assert_eq!(addr, 16);
        assert_eq!(ch.backlog(), 1);
        assert_eq!(ch.head_bank(), Some(2));
        ch.submit(&mut mem);
        let grants = mem.arbitrate().to_vec();
        ch.handle_grant(grants[ids[0].index()]);
        assert!(ch.is_drained());
        assert_eq!(mem.per_bank_accesses(), &[0, 0, 1, 0]);
        assert_eq!(mem.stats().writes.get(), 1);
    }

    #[test]
    fn write_channel_needs_addr_and_space() {
        let (_, ids) = mem_with(1);
        let mut ch = WriteChannel::new(ids[0], 1, 2);
        assert!(!ch.can_accept(), "no address queued yet");
        ch.push_addr(0);
        ch.push_addr(8);
        assert!(ch.can_accept());
        ch.accept(|_| BankLocation { bank: 0, row: 0 });
        assert!(!ch.can_accept(), "fifo full at depth 1");
    }

    #[test]
    fn occupancy_sampling_tracks_fifo_fill() {
        let (mut mem, ids) = mem_with(1);
        let mut ch = ReadChannel::new(ids[0], 4, 4);
        ch.sample_occupancy_span(1); // empty
        ch.push_addr(0);
        let map = |_| BankLocation { bank: 0, row: 0 };
        ch.issue(&mut mem, true, map);
        let grants = mem.arbitrate().to_vec();
        ch.handle_grant(grants[ids[0].index()]);
        mem.drain_responses(|resp| ch.handle_response(resp));
        ch.sample_occupancy_span(1); // one committed word
        let occ = ch.fifo_occupancy();
        assert_eq!(occ.count(), 2);
        assert_eq!(occ.min(), 0);
        assert_eq!(occ.max(), 1);

        let mut wch = WriteChannel::new(ids[0], 2, 2);
        wch.sample_occupancy_span(1);
        wch.push_addr(0);
        wch.accept(map);
        wch.sample_occupancy_span(1);
        assert_eq!(wch.fifo_occupancy().max(), 1);
    }

    #[test]
    fn write_retry_keeps_head() {
        let (mut mem, ids) = mem_with(2);
        let mut a = WriteChannel::new(ids[0], 2, 2);
        let mut b = WriteChannel::new(ids[1], 2, 2);
        for ch in [&mut a, &mut b] {
            ch.push_addr(0);
            ch.accept(|_| BankLocation { bank: 3, row: 1 });
        }
        a.submit(&mut mem);
        b.submit(&mut mem);
        let grants = mem.arbitrate().to_vec();
        a.handle_grant(grants[ids[0].index()]);
        b.handle_grant(grants[ids[1].index()]);
        assert_eq!(a.backlog() + b.backlog(), 1, "exactly one retired");
    }

    /// Random reserve / grant-or-retry / response / pop traffic against a
    /// naive model of the read FIFO: a `Vec` of `(address, landed)` slots in
    /// reservation order. The crossbar only absorbs submissions here; the
    /// test decides every grant and delivers every response itself.
    #[test]
    fn read_channel_matches_a_naive_reference() {
        let mut rng = SplitMix64::new(0x0e11);
        for case in 0..64 {
            let (mut mem, ids) = mem_with(1);
            let depth = 1 + rng.below(4) as usize;
            let addr_depth = 1 + rng.below(4) as usize;
            let mut ch = ReadChannel::new(ids[0], depth, addr_depth);
            let map = |a: u64| BankLocation {
                bank: (a / 8 % 4) as usize,
                row: 0,
            };
            let mut queued = Vec::new();
            let mut slots: Vec<(u64, bool)> = Vec::new();
            let mut pending = false;
            let (mut next_addr, mut next_response) = (0u64, 0u64);
            let (mut high, mut popped, mut expected_pops) = (0, Vec::new(), Vec::new());
            let mut samples = LatencyHistogram::new();
            for step in 0..400 {
                let ctx = format!("case {case} step {step}");
                if rng.below(2) == 0 && queued.len() < addr_depth {
                    ch.push_addr(8 * next_addr);
                    queued.push(8 * next_addr);
                    next_addr += 1;
                }
                let may_start = rng.below(4) != 0;
                let can_start = !pending && !queued.is_empty() && slots.len() < depth;
                assert_eq!(ch.can_start_request(), can_start, "{ctx}");
                assert_eq!(ch.issue(&mut mem, may_start, map), may_start && can_start);
                if may_start && can_start {
                    slots.push((queued.remove(0), false));
                    pending = true;
                    high = high.max(slots.len());
                }
                mem.arbitrate();
                mem.drain_responses(|_| {});
                let granted = rng.below(3) != 0;
                assert_eq!(ch.handle_grant(granted), pending, "{ctx}");
                pending &= !granted;
                let in_flight = slots.iter().filter(|s| !s.1).count() - usize::from(pending);
                if in_flight > 0 && rng.below(2) == 0 {
                    ch.handle_response(MemResponse {
                        requester: ids[0],
                        tag: next_response,
                    });
                    next_response += 1;
                    slots.iter_mut().find(|s| !s.1).unwrap().1 = true;
                }
                let landed = slots.first().is_some_and(|s| s.1);
                assert_eq!(ch.has_data(), landed, "{ctx}");
                if landed && rng.below(2) == 0 {
                    popped.push(ch.pop());
                    expected_pops.push(slots.remove(0).0);
                }
                ch.sample_occupancy_span(1);
                samples.record(slots.len() as u64);
                let unfilled = slots.iter().filter(|s| !s.1).count();
                assert_eq!(ch.outstanding(), unfilled, "{ctx}");
                assert_eq!(ch.has_pending(), pending, "{ctx}");
                assert_eq!(ch.is_quiescent(), slots.is_empty(), "{ctx}");
            }
            assert_eq!(popped, expected_pops, "case {case}");
            assert!(popped.len() > 20, "case {case}: traffic too thin");
            assert_eq!(ch.fifo_high_watermark(), high, "case {case}");
            assert_eq!(ch.fifo_occupancy(), samples, "case {case}");
        }
    }

    /// A write channel drains its backlog oldest first whatever the grant
    /// pattern, and never holds more than its depth.
    #[test]
    fn write_channel_drains_in_acceptance_order() {
        let mut rng = SplitMix64::new(0x3d7a);
        let (mut mem, ids) = mem_with(1);
        let mut ch = WriteChannel::new(ids[0], 3, 2);
        let map = |a: u64| BankLocation {
            bank: (a / 8 % 4) as usize,
            row: 0,
        };
        let (mut next_addr, mut accepted, mut retired) = (0u64, Vec::new(), Vec::new());
        for _ in 0..500 {
            if ch.has_addr_space() && rng.below(2) == 0 {
                ch.push_addr(8 * next_addr);
                next_addr += 1;
            }
            if ch.can_accept() && rng.below(2) == 0 {
                accepted.push(map(ch.accept(map)).bank);
            }
            assert!(ch.backlog() <= 3);
            ch.submit(&mut mem);
            mem.arbitrate();
            let (head, granted) = (ch.head_bank(), rng.below(2) == 0);
            if ch.handle_grant(granted) && granted {
                retired.push(head.unwrap());
            }
        }
        assert!(retired.len() > 100);
        assert_eq!(retired, accepted[..retired.len()]);
        assert_eq!(ch.fifo_high_watermark(), 3);
    }
}
