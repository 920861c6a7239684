//! Per-channel Memory Interface Controllers (§III-C, Fig. 2b).
//!
//! A DataMaestro splits one wide accelerator word across `N_C` independent
//! channels. Each read channel owns a MIC — an Outstanding Request Manager
//! (ORM) that reserves a data-FIFO slot before the Request Side Controller
//! (RSC) may issue, guaranteeing every in-flight response a landing slot —
//! plus the data FIFO itself. Channels run ahead of each other freely; this
//! *fine-grained prefetch* is what hides bank-conflict and latency stalls
//! from the accelerator.
//!
//! Channels are timing models: they carry request headers and the byte
//! address of every word in flight, never the word itself. The bytes are
//! produced by the system's functional executor, which walks the same
//! patterns in program order.

use std::collections::VecDeque;

use dm_mem::{BankLocation, MemOp, MemRequest, MemResponse, MemorySubsystem, RequesterId};
use dm_sim::{Counter, Fifo, LatencyHistogram, StableHasher};

/// Per-channel event counters.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct ChannelStats {
    /// Requests granted by the crossbar.
    pub granted: Counter,
    /// Cycles a request was submitted but lost arbitration (bank conflict).
    pub retries: Counter,
    /// Responses received (read channels only).
    pub responses: Counter,
}

/// Once-per-cycle FIFO occupancy samples, run-length encoded: consecutive
/// samples at the same level accumulate in one open `(level, run)` pair,
/// which is folded into the histogram when the level changes. A histogram
/// is a commutative sum of samples, so this is bit-identical to recording
/// every sample on its own.
#[derive(Debug, Default)]
struct OccupancySampler {
    closed: LatencyHistogram,
    level: u64,
    run: u64,
}

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

/// A read channel: MIC + data FIFO.
#[derive(Debug)]
pub struct ReadChannel {
    requester: RequesterId,
    /// The ORM's view of the data FIFO: capacity, reservations and their
    /// fill order.
    fifo: Fifo<()>,
    /// Byte address of the word behind every reserved or filled FIFO slot,
    /// in reservation order. A read channel fills its reservations in order
    /// and never pushes directly, so the k-th address reserved is the k-th
    /// word popped.
    landing: VecDeque<u64>,
    addr_queue: VecDeque<u64>,
    addr_capacity: usize,
    /// Request accepted by the RSC but not yet granted by the crossbar. Its
    /// landing slot, like those of the in-flight requests, is a pending
    /// reservation of `fifo`, filled in issue order.
    pending: Option<(BankLocation, u64)>,
    next_tag: u64,
    expected_tag: u64,
    stats: ChannelStats,
    /// Once-per-cycle samples of committed FIFO occupancy (in words).
    occupancy: OccupancySampler,
}

impl ReadChannel {
    /// Creates a read channel with the given FIFO depth and address-buffer
    /// depth, bound to a registered crossbar requester.
    #[must_use]
    pub fn new(requester: RequesterId, fifo_depth: usize, addr_depth: usize) -> Self {
        ReadChannel {
            requester,
            fifo: Fifo::new(fifo_depth),
            landing: VecDeque::with_capacity(fifo_depth),
            addr_queue: VecDeque::with_capacity(addr_depth),
            addr_capacity: addr_depth,
            pending: None,
            next_tag: 0,
            expected_tag: 0,
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

    /// `true` while a request is waiting for a grant.
    #[must_use]
    pub fn has_pending(&self) -> bool {
        self.pending.is_some()
    }

    /// Requests granted but whose responses are still in flight, plus the
    /// pending request if any.
    #[must_use]
    pub fn outstanding(&self) -> usize {
        self.fifo.outstanding()
    }

    /// The bank the pending (not-yet-granted) request targets, if any —
    /// the component the blame walk charges a lost arbitration round to.
    #[must_use]
    pub fn pending_bank(&self) -> Option<usize> {
        self.pending.map(|(loc, _)| loc.bank)
    }

    /// Addresses queued but not yet turned into requests — nonzero while
    /// the coarse-grained sync gate (not the AGU) withholds the channel.
    #[must_use]
    pub fn addr_backlog(&self) -> usize {
        self.addr_queue.len()
    }

    /// `true` if the channel holds no data, no reservations and no pending
    /// or queued work.
    #[must_use]
    pub fn is_drained(&self) -> bool {
        self.fifo.committed() == 0 && self.pending.is_none() && self.addr_queue.is_empty()
    }

    /// `true` if the channel holds no data and no in-flight requests (its
    /// address queue may still hold future work).
    #[must_use]
    pub fn is_quiescent(&self) -> bool {
        self.fifo.committed() == 0 && self.pending.is_none()
    }

    /// `true` when [`issue`](Self::issue) may start a request: no request
    /// pending, an address queued and an ORM landing slot reservable.
    /// Read-only mirror of that gate, used by the fast-forward horizon to
    /// prove a channel inert.
    #[must_use]
    pub fn can_start_request(&self) -> bool {
        self.pending.is_none() && !self.addr_queue.is_empty() && self.fifo.has_free_slot()
    }

    /// RSC step: if `may_start` and
    /// [`can_start_request`](Self::can_start_request), convert the next
    /// queued address into a pending request, reserving a FIFO slot through
    /// the ORM; then submit the pending request (new or retried) to the
    /// crossbar. Returns `true` if a new request was started.
    ///
    /// # Panics
    ///
    /// Panics on subsystem protocol violations (unknown requester, double
    /// submission), which indicate simulator bugs.
    #[inline]
    pub fn issue(
        &mut self,
        mem: &mut MemorySubsystem,
        may_start: bool,
        map: impl FnOnce(u64) -> BankLocation,
    ) -> bool {
        let started = if may_start { self.start(map) } else { None };
        // A new request is submitted from the values just computed rather
        // than re-read from `pending`.
        if let Some((loc, tag)) = started.or(self.pending) {
            mem.submit(MemRequest {
                requester: self.requester,
                loc,
                tag,
                op: MemOp::Read,
            })
            .expect("read channel submission accepted");
        }
        started.is_some()
    }

    /// Starts a request if the gate allows, returning it.
    #[inline]
    fn start(&mut self, map: impl FnOnce(u64) -> BankLocation) -> Option<(BankLocation, u64)> {
        if self.pending.is_some() {
            return None;
        }
        let &addr = self.addr_queue.front()?;
        if !self.fifo.try_reserve() {
            return None; // ORM throttles: no landing slot available.
        }
        self.addr_queue.pop_front();
        self.landing.push_back(addr);
        let tag = self.next_tag;
        self.next_tag += 1;
        let request = (map(addr), tag);
        self.pending = Some(request);
        Some(request)
    }

    /// Consumes the grant flag for this channel after arbitration.
    #[inline]
    pub fn handle_grant(&mut self, granted: bool) {
        if self.pending.is_none() {
            return;
        }
        if granted {
            self.pending = None;
            self.stats.granted.inc();
        } else {
            self.stats.retries.inc();
        }
    }

    /// Lands a memory response into the oldest reserved FIFO slot. The
    /// response must echo the tag of the oldest outstanding request.
    ///
    /// # Panics
    ///
    /// Panics if responses arrive out of order or without a reservation —
    /// both would be simulator bugs given the in-order memory model.
    #[inline]
    pub fn handle_response(&mut self, response: MemResponse) {
        assert_eq!(response.requester, self.requester, "misrouted response");
        assert_eq!(
            response.tag, self.expected_tag,
            "read response out of order"
        );
        self.expected_tag += 1;
        self.fifo.fill_reserved(());
        self.stats.responses.inc();
    }

    /// `true` if a word is ready at the FIFO head.
    #[must_use]
    pub fn has_data(&self) -> bool {
        !self.fifo.is_empty()
    }

    /// Pops the word at the FIFO head, returning its byte address.
    ///
    /// # Panics
    ///
    /// Panics if no word is ready ([`has_data`](Self::has_data) is false).
    #[inline]
    pub fn pop(&mut self) -> u64 {
        assert!(self.fifo.pop().is_some(), "channel has data");
        self.landing
            .pop_front()
            .expect("a popped word was reserved")
    }

    /// Channel statistics.
    #[must_use]
    pub fn stats(&self) -> &ChannelStats {
        &self.stats
    }

    /// Peak FIFO occupancy observed.
    #[must_use]
    pub fn fifo_high_watermark(&self) -> usize {
        self.fifo.high_watermark()
    }

    /// Records one occupancy sample (committed data words, including
    /// filled-but-blocked slots). The owning streamer calls this once per
    /// simulated cycle, giving a time-weighted occupancy distribution.
    #[inline]
    pub fn sample_occupancy(&mut self) {
        self.sample_occupancy_span(1);
    }

    /// Records `span` occupancy samples at once. The fast-forward engine
    /// proves the FIFO is frozen across a skipped span, so the replay is
    /// bit-identical to `span` calls to
    /// [`sample_occupancy`](Self::sample_occupancy).
    #[inline]
    pub fn sample_occupancy_span(&mut self, span: u64) {
        self.occupancy.sample_n(self.fifo.committed() as u64, span);
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
        hasher.write_usize(self.fifo.committed());
        hasher.write_usize(self.fifo.len());
        hasher.write_usize(self.addr_queue.len());
        hasher.write_bool(self.pending.is_some());
        hasher.write_usize(self.fifo.outstanding());
        hasher.write_u64(self.next_tag);
        hasher.write_u64(self.expected_tag);
        hasher.write_u64(self.stats.granted.get());
        hasher.write_u64(self.stats.retries.get());
        hasher.write_u64(self.stats.responses.get());
    }
}

/// A write channel: address/data pairing FIFO plus the write-side MIC.
#[derive(Debug)]
pub struct WriteChannel {
    requester: RequesterId,
    /// Destinations of the words waiting to drain.
    fifo: Fifo<BankLocation>,
    addr_queue: VecDeque<u64>,
    addr_capacity: usize,
    stats: ChannelStats,
    /// Once-per-cycle samples of FIFO backlog (in words).
    occupancy: OccupancySampler,
}

impl WriteChannel {
    /// Creates a write channel.
    #[must_use]
    pub fn new(requester: RequesterId, fifo_depth: usize, addr_depth: usize) -> Self {
        WriteChannel {
            requester,
            fifo: Fifo::new(fifo_depth),
            addr_queue: VecDeque::with_capacity(addr_depth),
            addr_capacity: addr_depth,
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

    /// Enqueues a destination address produced by the AGU.
    ///
    /// # Panics
    ///
    /// Panics if the address buffer is full.
    pub fn push_addr(&mut self, addr: u64) {
        assert!(self.has_addr_space(), "address buffer overflow");
        self.addr_queue.push_back(addr);
    }

    /// `true` if the channel can accept one more data word (needs both a
    /// FIFO slot and a queued destination address).
    #[must_use]
    pub fn can_accept(&self) -> bool {
        self.fifo.has_free_slot() && !self.addr_queue.is_empty()
    }

    /// Accepts one data word, pairing it with the next queued address,
    /// which it returns.
    ///
    /// # Panics
    ///
    /// Panics if [`can_accept`](Self::can_accept) is false.
    pub fn accept(&mut self, map: impl FnOnce(u64) -> BankLocation) -> u64 {
        let addr = self
            .addr_queue
            .pop_front()
            .expect("write accept without queued address");
        self.fifo
            .push(map(addr))
            .unwrap_or_else(|_| panic!("write fifo overflow"));
        addr
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
        self.fifo.peek().map(|loc| loc.bank)
    }

    /// `true` if the channel holds no data and no queued addresses.
    #[must_use]
    pub fn is_drained(&self) -> bool {
        self.fifo.is_empty() && self.addr_queue.is_empty()
    }

    /// `true` if the channel holds no data (addresses may remain queued).
    #[must_use]
    pub fn is_quiescent(&self) -> bool {
        self.fifo.is_empty()
    }

    /// Submits the head word as a write request, if any.
    ///
    /// # Panics
    ///
    /// Panics on subsystem protocol violations (simulator bugs).
    #[inline]
    pub fn submit(&mut self, mem: &mut MemorySubsystem) {
        if let Some(loc) = self.fifo.peek() {
            mem.submit(MemRequest {
                requester: self.requester,
                loc: *loc,
                tag: 0,
                op: MemOp::Write,
            })
            .expect("write channel submission accepted");
        }
    }

    /// Consumes the grant flag: a granted write retires the head word.
    #[inline]
    pub fn handle_grant(&mut self, granted: bool) {
        if self.fifo.is_empty() {
            return;
        }
        if granted {
            let _ = self.fifo.pop();
            self.stats.granted.inc();
        } else {
            self.stats.retries.inc();
        }
    }

    /// Channel statistics.
    #[must_use]
    pub fn stats(&self) -> &ChannelStats {
        &self.stats
    }

    /// Peak FIFO occupancy observed.
    #[must_use]
    pub fn fifo_high_watermark(&self) -> usize {
        self.fifo.high_watermark()
    }

    /// Records one occupancy sample (backlog words waiting to drain). The
    /// owning streamer calls this once per simulated cycle.
    #[inline]
    pub fn sample_occupancy(&mut self) {
        self.sample_occupancy_span(1);
    }

    /// Records `span` backlog samples at once (fast-forward replay; the
    /// backlog is provably frozen across the span).
    #[inline]
    pub fn sample_occupancy_span(&mut self, span: u64) {
        self.occupancy.sample_n(self.fifo.len() as u64, span);
    }

    /// The sampled occupancy distribution.
    #[must_use]
    pub fn fifo_occupancy(&self) -> LatencyHistogram {
        self.occupancy.histogram()
    }

    /// Folds every piece of channel state the fast-forward engine promises
    /// not to disturb into `hasher` (occupancy samples excluded; see
    /// [`ReadChannel::hash_state`]).
    pub fn hash_state(&self, hasher: &mut StableHasher) {
        hasher.write_usize(self.fifo.len());
        hasher.write_usize(self.addr_queue.len());
        hasher.write_u64(self.stats.granted.get());
        hasher.write_u64(self.stats.retries.get());
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dm_mem::MemConfig;

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
        assert_eq!(ch.stats().responses.get(), 1);
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
        ch.sample_occupancy(); // empty
        ch.push_addr(0);
        let map = |_| BankLocation { bank: 0, row: 0 };
        ch.issue(&mut mem, true, map);
        let grants = mem.arbitrate().to_vec();
        ch.handle_grant(grants[ids[0].index()]);
        mem.drain_responses(|resp| ch.handle_response(resp));
        ch.sample_occupancy(); // one committed word
        let occ = ch.fifo_occupancy();
        assert_eq!(occ.count(), 2);
        assert_eq!(occ.min(), 0);
        assert_eq!(occ.max(), 1);

        let mut wch = WriteChannel::new(ids[0], 2, 2);
        wch.sample_occupancy();
        wch.push_addr(0);
        wch.accept(map);
        wch.sample_occupancy();
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
}
