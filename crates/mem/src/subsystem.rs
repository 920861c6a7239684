//! The interleaved crossbar: per-bank arbitration, grants and responses.
//!
//! Every DataMaestro channel (and the DMA engine used for explicit
//! pre-passes) registers as a *requester*. Each simulated cycle proceeds as:
//!
//! 1. [`MemorySubsystem::drain_responses`] — deliver the read responses whose
//!    latency elapsed (fixed single-cycle bank latency by default);
//! 2. requesters [`submit`](MemorySubsystem::submit) at most one request
//!    each;
//! 3. [`MemorySubsystem::arbitrate`] — per bank, a round-robin arbiter
//!    grants exactly one request; granted writes retire immediately, granted
//!    reads schedule a response. Losing requests are simply
//!    dropped — the requester observes the missing grant and retries, which
//!    is precisely how bank conflicts turn into stall cycles.
//!
//! The crossbar is a timing model: requests, in-flight reads and responses
//! are header-only records, and no bank word moves through it. Simulated
//! timing never depends on data, so the bytes are produced separately, by
//! the system's program-order functional executor over a [`Scratchpad`].
//!
//! [`Scratchpad`]: crate::Scratchpad
//!
//! The subsystem counts granted reads/writes (the paper's "data access
//! counts"), submissions and conflict events, and stamps every request's
//! lifetime — issue, arbitration grant, response delivery — into per-bank
//! and per-requester [`LatencyTelemetry`] histograms. Queueing latency
//! (issue → grant) measures arbitration pressure; service latency (grant →
//! delivery) the bank pipeline; their sum is the end-to-end latency the
//! streamer FIFOs must hide for the PE array to run stall-free.
//!
//! The lifetimes are folded, not recorded sample by sample. A read drained
//! on its due cycle has service equal to the read latency, and a write has
//! service zero, so either lifetime is fixed by its queueing delay alone:
//! it costs one counter bump per bank and per requester, keyed by that
//! delay. Late deliveries and delays of at least
//! [`LatencyHistogram::EXACT_LIMIT`] take the per-sample path. The
//! histograms are built from both when they are read, and equal the
//! per-sample ones exactly.

use std::collections::VecDeque;
use std::fmt;
use std::ops::Range;
use std::sync::Arc;

use dm_sim::{
    Counter, Cycle, Distribution, Instrumented, LatencyHistogram, MetricsRegistry, Periodic,
    RoundRobinArbiter, StableHasher, Trace, TraceEventKind, TraceMode,
};

use crate::addr::BankLocation;
use crate::error::MemError;
use crate::scratchpad::MemConfig;

/// Identifier of a registered requester (one per streamer channel).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct RequesterId(usize);

impl RequesterId {
    /// Raw index, usable to address per-requester tables.
    #[must_use]
    pub fn index(self) -> usize {
        self.0
    }
}

impl fmt::Display for RequesterId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "requester {}", self.0)
    }
}

/// A memory operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MemOp {
    /// Read one full word.
    Read,
    /// Write one full word.
    Write,
}

impl MemOp {
    /// Returns `true` for reads.
    #[must_use]
    pub fn is_read(&self) -> bool {
        matches!(self, MemOp::Read)
    }
}

/// One request submitted to the crossbar.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MemRequest {
    /// Who is asking.
    pub requester: RequesterId,
    /// Physical target location (already remapped by the streamer).
    pub loc: BankLocation,
    /// Opaque tag echoed in the response; channels use it to sanity-check
    /// response ordering.
    pub tag: u64,
    /// The operation.
    pub op: MemOp,
}

/// A read response delivered after the bank latency: a header naming the
/// requester and echoing the request's tag.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MemResponse {
    /// The requester the response belongs to.
    pub requester: RequesterId,
    /// Tag of the originating request.
    pub tag: u64,
}

/// Access statistics maintained by the subsystem.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct MemStats {
    /// Granted read word accesses.
    pub reads: Counter,
    /// Granted write word accesses.
    pub writes: Counter,
    /// Unique requests submitted. A request retried after a lost
    /// arbitration is *not* counted again, so at drain
    /// `submissions == reads + writes` exactly (Fig. 7 access accounting).
    pub submissions: Counter,
    /// Retry submissions of an already-issued request after a lost
    /// arbitration. `submissions + resubmissions` is the total crossbar
    /// port pressure.
    pub resubmissions: Counter,
    /// Conflict events: for each bank and cycle with `k > 1` requests,
    /// `k - 1` conflicts are recorded.
    pub conflicts: Counter,
}

impl Periodic for MemStats {
    fn repeat_since(&mut self, earlier: &Self, k: u64) {
        self.reads.repeat_since(&earlier.reads, k);
        self.writes.repeat_since(&earlier.writes, k);
        self.submissions.repeat_since(&earlier.submissions, k);
        self.resubmissions.repeat_since(&earlier.resubmissions, k);
        self.conflicts.repeat_since(&earlier.conflicts, k);
    }
}

impl MemStats {
    /// Total granted accesses (the paper's "data access count").
    #[must_use]
    pub fn total_accesses(&self) -> u64 {
        self.reads.get() + self.writes.get()
    }
}

/// Request-lifetime histograms for one bank or one requester.
///
/// Per request, `queueing + service == end_to_end` exactly: all three are
/// stamped from the same cycle counter, and the histograms' `sum`/`count`
/// fields are exact even though individual samples are log-bucketed.
#[derive(Debug, Default, PartialEq, Eq)]
pub struct LatencyTelemetry {
    /// Issue (first submit) → arbitration grant. Retries after a lost
    /// arbitration do not re-stamp the issue cycle.
    pub queueing: LatencyHistogram,
    /// Grant → response delivery. Writes commit at the grant, so their
    /// service latency is zero by definition.
    pub service: LatencyHistogram,
    /// Issue → delivery (grant, for writes).
    pub end_to_end: LatencyHistogram,
}

dm_sim::clone_fields!(LatencyTelemetry {
    queueing,
    service,
    end_to_end
});

impl LatencyTelemetry {
    /// Merges another telemetry block into this one.
    pub fn merge(&mut self, other: &LatencyTelemetry) {
        self.queueing.merge(&other.queueing);
        self.service.merge(&other.service);
        self.end_to_end.merge(&other.end_to_end);
    }

    /// `true` when no request completed against this bank/requester.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.end_to_end.is_empty()
    }

    /// Records one request lifetime.
    fn record(&mut self, queueing: u64, service: u64) {
        self.queueing.record(queueing);
        self.service.record(service);
        self.end_to_end.record(queueing + service);
    }
}

impl Instrumented for LatencyTelemetry {
    fn register_metrics(&self, registry: &mut MetricsRegistry) {
        registry.set_histogram("queueing", &self.queueing);
        registry.set_histogram("service", &self.service);
        registry.set_histogram("end_to_end", &self.end_to_end);
    }
}

/// Queueing delays below this are folded into counters.
const FOLDED: usize = LatencyHistogram::EXACT_LIMIT as usize;

/// One bank's or one requester's lifetimes completed on the fast path,
/// by queueing delay `q`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
struct FoldCounts {
    /// Reads drained on their due cycle: each one is the lifetime
    /// `(q, read latency)`.
    on_time_reads: [u64; FOLDED],
    /// Writes: each one is the lifetime `(q, 0)`.
    writes: [u64; FOLDED],
}

impl FoldCounts {
    fn completed(&self) -> u64 {
        self.on_time_reads.iter().chain(&self.writes).sum()
    }
}

impl Periodic for FoldCounts {
    fn repeat_since(&mut self, earlier: &Self, k: u64) {
        self.on_time_reads.repeat_since(&earlier.on_time_reads, k);
        self.writes.repeat_since(&earlier.writes, k);
    }
}

/// Every bank's and every requester's request lifetimes, folded (see the
/// module docs): one row per bank, then one per requester. The fast-path
/// counts are one flat table, which a snapshot copies in one go; the
/// rarely used per-sample histograms sit in a side table.
#[derive(Debug, PartialEq, Eq)]
struct Lifetimes {
    banks: usize,
    counts: Vec<FoldCounts>,
    /// Every other completed lifetime, recorded sample by sample: the rows
    /// that have any, in row order.
    slow: Vec<(usize, LatencyTelemetry)>,
}

dm_sim::clone_fields!(Lifetimes {
    banks,
    counts,
    slow
});

impl Lifetimes {
    fn new(banks: usize) -> Self {
        Lifetimes {
            banks,
            counts: vec![FoldCounts::default(); banks],
            slow: Vec::new(),
        }
    }

    /// Adds a row for each of `requesters`.
    fn add_requesters(&mut self, requesters: usize) {
        self.counts
            .resize(self.banks + requesters, FoldCounts::default());
    }

    /// The requesters' rows.
    fn requester_rows(&self) -> Range<usize> {
        self.banks..self.counts.len()
    }

    /// The rows of `bank` and `requester`.
    fn rows(&self, bank: usize, requester: RequesterId) -> [usize; 2] {
        [bank, self.banks + requester.0]
    }

    /// Folds a read drained on its due cycle after `queueing < FOLDED`
    /// cycles in arbitration.
    #[inline]
    fn on_time_read(&mut self, bank: usize, requester: RequesterId, queueing: usize) {
        for row in self.rows(bank, requester) {
            self.counts[row].on_time_reads[queueing] += 1;
        }
    }

    /// Folds a write granted after `queueing` cycles.
    #[inline]
    fn write(&mut self, bank: usize, requester: RequesterId, queueing: u64) {
        for row in self.rows(bank, requester) {
            match self.counts[row].writes.get_mut(queueing as usize) {
                Some(n) => *n += 1,
                None => self.slow_row(row).record(queueing, 0),
            }
        }
    }

    /// Records a lifetime sample by sample.
    #[cold]
    fn record_slow(&mut self, bank: usize, requester: RequesterId, queueing: u64, service: u64) {
        for row in self.rows(bank, requester) {
            self.slow_row(row).record(queueing, service);
        }
    }

    fn slow_row(&mut self, row: usize) -> &mut LatencyTelemetry {
        let at = match self.slow.binary_search_by_key(&row, |&(r, _)| r) {
            Ok(at) => at,
            Err(at) => {
                self.slow.insert(at, (row, LatencyTelemetry::default()));
                at
            }
        };
        &mut self.slow[at].1
    }

    /// The per-sample histograms of `row`, if it has any.
    fn slow_of(&self, row: usize) -> Option<&LatencyTelemetry> {
        let at = self.slow.binary_search_by_key(&row, |&(r, _)| r).ok()?;
        Some(&self.slow[at].1)
    }

    /// Lifetimes `row` completed so far.
    fn completed(&self, row: usize) -> u64 {
        self.counts[row].completed() + self.slow_of(row).map_or(0, |tel| tel.end_to_end.count())
    }

    /// The histograms of rows `rows`.
    fn telemetry(&self, rows: Range<usize>, read_latency: u64) -> Vec<LatencyTelemetry> {
        rows.map(|row| {
            let mut tel = self.slow_of(row).cloned().unwrap_or_default();
            let fold = &self.counts[row];
            for (q, (&reads, &writes)) in (0u64..).zip(fold.on_time_reads.iter().zip(&fold.writes))
            {
                tel.queueing.record_n(q, reads + writes);
                tel.service.record_n(read_latency, reads);
                tel.service.record_n(0, writes);
                tel.end_to_end.record_n(q + read_latency, reads);
                tel.end_to_end.record_n(q, writes);
            }
            tel
        })
        .collect()
    }
}

impl Periodic for Lifetimes {
    /// `k` more periods of the lifetimes completed since `earlier`.
    fn repeat_since(&mut self, earlier: &Self, k: u64) {
        self.counts.repeat_since(&earlier.counts, k);
        let none = LatencyTelemetry::default();
        for (row, tel) in &mut self.slow {
            let then = earlier.slow_of(*row).unwrap_or(&none);
            tel.queueing.repeat_since(&then.queueing, k);
            tel.service.repeat_since(&then.service, k);
            tel.end_to_end.repeat_since(&then.end_to_end, k);
        }
    }
}

/// The crossbar's per-cycle arbitration scratch. It is empty between
/// cycles, where every snapshot of a crossbar is taken, so a clone starts
/// it afresh and crossbars compare equal whatever it holds.
///
/// Requester sets are bitmasks of `words` 64-bit words each: bit `r % 64`
/// of word `r / 64` stands for requester `r`.
#[derive(Debug)]
struct Arbitration {
    banks: usize,
    /// Mask words per requester set.
    words: usize,
    /// Per bank, the requesters submitting to it this cycle: `words` words
    /// for each bank. Arbitration clears the banks it grants.
    contenders: Vec<u64>,
    /// Bitset of banks with at least one submission this cycle; walked in
    /// ascending bank order by arbitration, which also clears it.
    touched_banks: Vec<u64>,
    /// The requesters that submitted this cycle.
    submitted: Vec<u64>,
    /// Per requester, its submission of this cycle, valid where
    /// `submitted` is set.
    slots: Vec<Slot>,
    /// Grant flags from the last arbitration, indexed by requester.
    grants: Vec<bool>,
}

/// A requester's submission of the current cycle: the target bank is its
/// bit in that bank's contender set.
#[derive(Debug, Clone, Copy, Default)]
struct Slot {
    tag: u64,
    write: bool,
}

impl Arbitration {
    fn new(banks: usize, requesters: usize) -> Self {
        let words = requesters.div_ceil(64);
        Arbitration {
            banks,
            words,
            contenders: vec![0; banks * words],
            touched_banks: vec![0; banks.div_ceil(64)],
            submitted: vec![0; words],
            slots: vec![Slot::default(); requesters],
            grants: vec![false; requesters],
        }
    }

    /// Requests submitted this cycle.
    fn pending(&self) -> usize {
        self.submitted.iter().map(|w| w.count_ones() as usize).sum()
    }
}

impl Clone for Arbitration {
    fn clone(&self) -> Self {
        debug_assert!(self.pending() == 0, "a crossbar is copied between cycles");
        Arbitration::new(self.banks, self.grants.len())
    }

    fn clone_from(&mut self, source: &Self) {
        let shape = |a: &Self| (a.banks, a.grants.len());
        if shape(self) != shape(source) {
            *self = source.clone();
        }
    }
}

impl PartialEq for Arbitration {
    fn eq(&self, _: &Self) -> bool {
        true
    }
}

/// A granted read awaiting delivery. Every read granted in one cycle is
/// due in the same later one, so the due cycle is kept once per grant
/// cycle, in [`InFlight::due`].
#[derive(Debug, Clone, PartialEq, Eq)]
struct InFlightRead {
    tag: u64,
    /// Causal flow token id stamped at the request's first submit.
    flow: u64,
    /// Issue → grant delay.
    queueing: u64,
    requester: RequesterId,
    bank: usize,
}

/// The granted reads in flight, in grant order: a ring of compact reads
/// and, per grant cycle that granted any, its due cycle and read count.
/// Grants happen in cycle order with one fixed latency, so both rings are
/// due-ordered.
#[derive(Debug, Default, PartialEq, Eq)]
struct InFlight {
    reads: VecDeque<InFlightRead>,
    due: VecDeque<(Cycle, usize)>,
}

dm_sim::clone_fields!(InFlight { reads, due });

impl InFlight {
    /// Every read with its due cycle, oldest first.
    fn iter(&self) -> impl Iterator<Item = (Cycle, &InFlightRead)> {
        self.due
            .iter()
            .flat_map(|&(due, n)| std::iter::repeat_n(due, n))
            .zip(&self.reads)
    }

    /// Adds the reads granted this cycle since `before` reads were in
    /// flight, due at `due`, and returns how many there are.
    fn close_cycle(&mut self, before: usize, due: Cycle) -> u64 {
        let granted = self.reads.len() - before;
        if granted > 0 {
            self.due.push_back((due, granted));
        }
        granted as u64
    }
}

/// The banked scratchpad behind an interleaved crossbar.
#[derive(PartialEq)]
pub struct MemorySubsystem {
    config: MemConfig,
    read_latency: u64,
    arbiters: Vec<RoundRobinArbiter>,
    /// Fixed once traffic starts, so clones share it.
    requester_names: Arc<Vec<String>>,
    arbitration: Arbitration,
    /// Read responses in flight, stamped for latency attribution.
    in_flight: InFlight,
    per_bank_accesses: Vec<u64>,
    /// Issue cycle of each requester's currently pending request. Set on
    /// the first submit, cleared at the grant; retries keep the original
    /// stamp. Sound because a requester has at most one request in the
    /// submit/retry phase at a time (enforced by `DuplicateRequest`).
    issue_cycle: Vec<Option<Cycle>>,
    /// Flow token id of each requester's currently pending request, valid
    /// while the matching `issue_cycle` slot is `Some`. Fixed per-requester
    /// storage (sized with `issue_cycle`): token ids ride existing lifetime
    /// stamps, never a per-token allocation.
    pending_flow: Vec<u64>,
    /// Next flow token id; ids are assigned in submit order, so they are
    /// deterministic and unique within a run.
    next_flow_id: u64,
    /// Emit `FlowIssue`/`FlowGrant`/`FlowDeliver` trace stamps (opt-in on
    /// top of tracing: flow events inflate traces).
    flow_events: bool,
    lifetimes: Lifetimes,
    stats: MemStats,
    cycle: Cycle,
    traffic_started: bool,
    trace: Trace,
}

// A period anchor refills an earlier anchor's tables in place.
dm_sim::clone_fields!(MemorySubsystem {
    config,
    read_latency,
    arbiters,
    requester_names,
    arbitration,
    in_flight,
    per_bank_accesses,
    issue_cycle,
    pending_flow,
    next_flow_id,
    flow_events,
    lifetimes,
    stats,
    cycle,
    traffic_started,
    trace
});

impl MemorySubsystem {
    /// Default single-cycle bank read latency.
    pub const DEFAULT_READ_LATENCY: u64 = 1;

    /// Creates the crossbar of a scratchpad with the given geometry.
    #[must_use]
    pub fn new(config: MemConfig) -> Self {
        let banks = config.num_banks();
        MemorySubsystem {
            config,
            read_latency: Self::DEFAULT_READ_LATENCY,
            arbiters: vec![RoundRobinArbiter::new(1); banks],
            requester_names: Arc::default(),
            arbitration: Arbitration::new(banks, 0),
            in_flight: InFlight::default(),
            per_bank_accesses: vec![0; banks],
            issue_cycle: Vec::new(),
            pending_flow: Vec::new(),
            next_flow_id: 0,
            flow_events: false,
            lifetimes: Lifetimes::new(banks),
            stats: MemStats::default(),
            cycle: Cycle::ZERO,
            traffic_started: false,
            trace: Trace::new(),
        }
    }

    /// Configures event tracing (disabled by default; costs one branch per
    /// conflict when off).
    pub fn set_trace_mode(&mut self, mode: TraceMode) {
        self.trace = mode.build();
    }

    /// The captured event trace.
    #[must_use]
    pub fn trace(&self) -> &Trace {
        &self.trace
    }

    /// Takes the captured event trace, leaving a disabled one behind.
    pub fn take_trace(&mut self) -> Trace {
        std::mem::take(&mut self.trace)
    }

    /// Opts into causal flow stamps ([`TraceEventKind::FlowIssue`] /
    /// [`TraceEventKind::FlowGrant`] / [`TraceEventKind::FlowDeliver`]) on
    /// the event trace. Off by default — every request emits three events,
    /// which inflates traces — and a no-op unless tracing is enabled.
    /// Never affects simulated behaviour.
    pub fn set_flow_events(&mut self, on: bool) {
        self.flow_events = on;
    }

    /// Registers a requester (e.g. `"streamer-A/ch0"`).
    ///
    /// # Panics
    ///
    /// Panics if called after traffic has started; the hardware crossbar's
    /// port count is fixed at design time.
    pub fn register_requester(&mut self, name: impl Into<String>) -> RequesterId {
        assert!(
            !self.traffic_started,
            "requesters must be registered before any traffic"
        );
        let id = RequesterId(self.requester_names.len());
        Arc::make_mut(&mut self.requester_names).push(name.into());
        id
    }

    /// Number of registered requesters.
    #[must_use]
    pub fn num_requesters(&self) -> usize {
        self.requester_names.len()
    }

    /// Sets the bank read latency in cycles (≥ 1).
    ///
    /// # Panics
    ///
    /// Panics if `latency` is zero (combinational reads are not modelled) or
    /// if traffic already started.
    pub fn set_read_latency(&mut self, latency: u64) {
        assert!(latency >= 1, "read latency must be at least one cycle");
        assert!(!self.traffic_started, "latency is a design-time parameter");
        self.read_latency = latency;
    }

    /// The scratchpad geometry behind the crossbar.
    #[must_use]
    pub fn config(&self) -> &MemConfig {
        &self.config
    }

    /// Current simulated cycle (advances once per [`arbitrate`]).
    ///
    /// [`arbitrate`]: Self::arbitrate
    #[must_use]
    pub fn cycle(&self) -> Cycle {
        self.cycle
    }

    /// Statistics so far.
    #[must_use]
    pub fn stats(&self) -> &MemStats {
        &self.stats
    }

    /// Granted word accesses per bank (for load-balance inspection).
    #[must_use]
    pub fn per_bank_accesses(&self) -> &[u64] {
        &self.per_bank_accesses
    }

    /// Request-lifetime histograms per bank (indexed by bank number).
    /// Reads still in flight count in `queueing` only, as they were
    /// stamped at the grant.
    #[must_use]
    pub fn latency_by_bank(&self) -> Vec<LatencyTelemetry> {
        self.build_telemetry(0..self.lifetimes.banks, |read| read.bank)
    }

    /// Request-lifetime histograms per requester (indexed by
    /// [`RequesterId::index`]). Empty until traffic starts.
    #[must_use]
    pub fn latency_by_requester(&self) -> Vec<LatencyTelemetry> {
        self.build_telemetry(self.lifetimes.requester_rows(), |read| {
            read.requester.index()
        })
    }

    /// Request-lifetime histograms merged over all banks.
    #[must_use]
    pub fn latency_totals(&self) -> LatencyTelemetry {
        merged(&self.latency_by_bank())
    }

    /// Builds the histograms of the lifetime rows `rows`, adding the
    /// queueing delay of every read still in flight to the table `key`
    /// picks.
    fn build_telemetry(
        &self,
        rows: Range<usize>,
        key: impl Fn(&InFlightRead) -> usize,
    ) -> Vec<LatencyTelemetry> {
        let mut tables = self.lifetimes.telemetry(rows, self.read_latency);
        for (_, read) in self.in_flight.iter() {
            tables[key(read)].queueing.record(read.queueing);
        }
        tables
    }

    /// Issue cycle of a read in flight due at `due`.
    fn issued(&self, due: Cycle, read: &InFlightRead) -> Cycle {
        Cycle::new(due.get() - self.read_latency - read.queueing)
    }

    /// Step 1 of a cycle: deliver read responses whose latency has elapsed,
    /// in issue order, to `deliver` — the allocation-free drain used by the
    /// tick kernel.
    pub fn drain_responses(&mut self, mut deliver: impl FnMut(MemResponse)) {
        let now = self.cycle;
        while let Some(&(due, n)) = self.in_flight.due.front() {
            if due > now {
                break;
            }
            self.in_flight.due.pop_front();
            let granted = Cycle::new(due.get() - self.read_latency);
            let (on_time, flow_events) = (due == now, self.flow_events);
            for _ in 0..n {
                let Some(read) = self.in_flight.reads.pop_front() else {
                    break;
                };
                // Delivery stamp: the response leaves the subsystem now.
                let q = read.queueing as usize;
                if on_time && q < FOLDED {
                    self.lifetimes.on_time_read(read.bank, read.requester, q);
                } else {
                    self.lifetimes.record_slow(
                        read.bank,
                        read.requester,
                        read.queueing,
                        (now - granted).get(),
                    );
                }
                if flow_events {
                    self.trace
                        .emit(now, "xbar", TraceEventKind::FlowDeliver { id: read.flow });
                }
                deliver(MemResponse {
                    requester: read.requester,
                    tag: read.tag,
                });
            }
        }
    }

    /// Step 1 of a cycle: collect the read responses whose latency has
    /// elapsed. Convenience wrapper over
    /// [`drain_responses`](Self::drain_responses) for tests and one-shot
    /// tools; the tick kernel drains in place.
    pub fn take_responses(&mut self) -> Vec<MemResponse> {
        let mut out = Vec::new();
        self.drain_responses(|response| out.push(response));
        out
    }

    /// Step 2 of a cycle: submit one request for a requester — the
    /// one-request case of [`submit_batch`](Self::submit_batch).
    ///
    /// # Errors
    ///
    /// [`MemError::UnknownRequester`] for an unregistered id,
    /// [`MemError::DuplicateRequest`] if this requester already submitted in
    /// the current cycle.
    #[inline]
    pub fn submit(&mut self, request: MemRequest) -> Result<(), MemError> {
        self.submit_batch(
            request.requester,
            request.op,
            std::iter::once(Some((request.loc, request.tag))),
        )
    }

    /// Step 2 of a cycle: submit the requests of the contiguous requesters
    /// from `first` on, one entry each — `None` for a requester with
    /// nothing to submit, else its target location and tag. Every request
    /// is an `op`. A streamer submits all its channels in one call.
    ///
    /// # Errors
    ///
    /// [`MemError::UnknownRequester`] if the range reaches past the
    /// registered requesters (nothing is submitted),
    /// [`MemError::DuplicateRequest`] for a requester that already
    /// submitted in the current cycle (the requests before it stay
    /// submitted).
    #[inline]
    pub fn submit_batch(
        &mut self,
        first: RequesterId,
        op: MemOp,
        requests: impl ExactSizeIterator<Item = Option<(BankLocation, u64)>>,
    ) -> Result<(), MemError> {
        let registered = self.requester_names.len();
        if first.0 + requests.len() > registered {
            return Err(unknown_requester(first.0.max(registered)));
        }
        self.ensure_traffic_started();
        let write = !op.is_read();
        let (mut unique, mut retries) = (0, 0);
        let mut duplicate = None;
        for (idx, request) in (first.0..).zip(requests) {
            let Some((loc, tag)) = request else {
                continue;
            };
            let arbitration = &mut self.arbitration;
            let (word, bit) = (idx >> 6, 1u64 << (idx & 63));
            if arbitration.submitted[word] & bit != 0 {
                duplicate = Some(idx);
                break;
            }
            debug_assert!(
                loc.bank < self.config.num_banks() && loc.row < self.config.rows_per_bank(),
                "request target outside memory geometry"
            );
            arbitration.submitted[word] |= bit;
            arbitration.slots[idx] = Slot { tag, write };
            arbitration.contenders[loc.bank * arbitration.words + word] |= bit;
            arbitration.touched_banks[loc.bank >> 6] |= 1 << (loc.bank & 63);
            // Issue stamp: only the first submit of a request counts; a
            // retry after a lost arbitration resubmits the same request and
            // keeps accruing queueing latency against the original issue
            // cycle. The same distinction drives the stats split:
            // `submissions` counts unique requests, `resubmissions` the
            // retries.
            if self.issue_cycle[idx].is_none() {
                self.issue_cycle[idx] = Some(self.cycle);
                // Flow token birth: one id per unique request, assigned in
                // submit order. Retries keep the stamp, like the issue cycle.
                self.pending_flow[idx] = self.next_flow_id + unique;
                unique += 1;
                if self.flow_events {
                    self.emit_flow_issue(idx, loc.bank);
                }
            } else {
                retries += 1;
            }
        }
        self.next_flow_id += unique;
        self.stats.submissions.add(unique);
        self.stats.resubmissions.add(retries);
        duplicate.map_or(Ok(()), |idx| Err(duplicate_request(idx)))
    }

    #[cold]
    fn emit_flow_issue(&mut self, idx: usize, bank: usize) {
        self.trace.emit(
            self.cycle,
            "xbar",
            TraceEventKind::FlowIssue {
                id: self.pending_flow[idx],
                bank,
            },
        );
    }

    /// Step 3 of a cycle: arbitrate all submissions, perform granted
    /// operations and advance the clock.
    ///
    /// Returns the grant flags indexed by requester; requesters that
    /// submitted and find their flag `false` lost arbitration and should
    /// retry next cycle.
    pub fn arbitrate(&mut self) -> &[bool] {
        self.ensure_traffic_started();
        self.arbitration.grants.fill(false);
        let before = self.in_flight.reads.len();
        // Ascending bank order, matching the hardware's fixed port scan and
        // keeping response issue order (and traces) deterministic. Each
        // bank's contender set is already complete: submission built it.
        for word in 0..self.arbitration.touched_banks.len() {
            let mut bits = std::mem::take(&mut self.arbitration.touched_banks[word]);
            while bits != 0 {
                let bank = (word << 6) | bits.trailing_zeros() as usize;
                bits &= bits - 1;
                self.grant_winner(bank);
            }
        }
        self.arbitration.submitted.fill(0);
        let reads = self
            .in_flight
            .close_cycle(before, self.cycle + self.read_latency);
        self.stats.reads.add(reads);
        self.cycle.advance();
        &self.arbitration.grants
    }

    /// Grants `bank`'s round-robin winner among its contenders, performs
    /// its operation and clears the bank's contender set.
    #[inline]
    fn grant_winner(&mut self, bank: usize) {
        let words = self.arbitration.words;
        let set = &mut self.arbitration.contenders[bank * words..][..words];
        let Some(winner) = self.arbiters[bank].grant_mask(set) else {
            return;
        };
        // Whoever else is in the set lost to the winner.
        let losers = take_losers(set, winner);
        if losers > 0 {
            self.stats.conflicts.add(losers);
            self.trace.emit(
                self.cycle,
                "xbar",
                TraceEventKind::BankConflict {
                    bank,
                    contenders: losers + 1,
                },
            );
        }
        let Slot { tag, write } = self.arbitration.slots[winner];
        self.arbitration.grants[winner] = true;
        self.per_bank_accesses[bank] += 1;
        // Grant stamp: the pending request leaves the arbitration phase.
        // Only a submission sets a contender bit, and every submission
        // stamps its requester's issue cycle, so the stamp is there.
        let issued = self.issue_cycle[winner]
            .take()
            .expect("granted request was submitted, so it was stamped");
        let queueing = self.cycle.saturating_sub(issued).get();
        let requester = RequesterId(winner);
        let flow = self.pending_flow[winner];
        if self.flow_events {
            self.trace.emit(
                self.cycle,
                "xbar",
                TraceEventKind::FlowGrant { id: flow, bank },
            );
        }
        if write {
            self.stats.writes.inc();
            // A write's token retires at its grant: the commit *is* the
            // delivery, so the flow closes here.
            if self.flow_events {
                self.trace
                    .emit(self.cycle, "xbar", TraceEventKind::FlowDeliver { id: flow });
            }
            // Writes commit at the grant: service is zero and the request's
            // whole lifetime is its queueing delay.
            self.lifetimes.write(bank, requester, queueing);
        } else {
            // Counted with the cycle's other reads; the lifetime is
            // recorded at the delivery.
            self.in_flight.reads.push_back(InFlightRead {
                tag,
                flow,
                queueing,
                requester,
                bank,
            });
        }
    }

    /// Returns `true` when no read response is still in flight.
    #[must_use]
    pub fn is_idle(&self) -> bool {
        self.in_flight.reads.is_empty() && self.arbitration.pending() == 0
    }

    /// The bank serving `requester`'s oldest in-flight (granted,
    /// undelivered) read, if any. The blame-chain walk uses this to charge
    /// a latency-bound stall to the bank the missing word is coming from;
    /// the `in_flight` queue is due-ordered, so the first match is the
    /// response the requester is waiting on.
    #[must_use]
    pub fn oldest_inflight_bank(&self, requester: RequesterId) -> Option<usize> {
        self.in_flight
            .reads
            .iter()
            .find(|read| read.requester == requester)
            .map(|read| read.bank)
    }

    /// Due cycle of the oldest in-flight read: the next cycle at which the
    /// crossbar acts on its own. `None` with nothing in flight, when it is
    /// idle until a requester submits. The `in_flight` queue is due-ordered
    /// (grants happen in cycle order with a fixed latency), so the front is
    /// the minimum.
    #[must_use]
    pub fn next_due(&self) -> Option<Cycle> {
        self.in_flight.due.front().map(|&(due, _)| due)
    }

    /// Digest over the state a skipped span must leave untouched: access
    /// statistics and queue depths. Deliberately excludes the clock (the
    /// replay advances it) and the latency histograms (recorded only at
    /// grants/deliveries, which a skippable span cannot contain).
    #[must_use]
    pub fn activity_digest(&self) -> u64 {
        let mut h = StableHasher::new();
        h.write_u64(self.stats.reads.get());
        h.write_u64(self.stats.writes.get());
        h.write_u64(self.stats.submissions.get());
        h.write_u64(self.stats.resubmissions.get());
        h.write_u64(self.stats.conflicts.get());
        h.write_usize(self.arbitration.pending());
        h.write_usize(self.in_flight.reads.len());
        h.finish()
    }

    /// Appends the crossbar state that steers future cycles, relative to
    /// the clock: every bank's round-robin pointer, each in-flight read as
    /// `(due − now, now − issue, requester, bank)` and each pending
    /// request's age. Two states with equal keys deliver, grant and stamp
    /// alike, given the same submissions.
    pub fn lock_key(&self, key: &mut Vec<u64>) {
        let now = self.cycle;
        key.extend(self.arbiters.iter().map(|a| a.pointer() as u64));
        key.extend([
            self.arbitration.pending() as u64,
            self.in_flight.reads.len() as u64,
        ]);
        for (due, read) in self.in_flight.iter() {
            key.extend([
                (due - now).get(),
                (now - self.issued(due, read)).get(),
                read.requester.0 as u64,
                read.bank as u64,
            ]);
        }
        key.extend(
            self.issue_cycle
                .iter()
                .map(|issued| issued.map_or(u64::MAX, |c| (now - c).get())),
        );
    }

    /// `true` if every pending and in-flight request was issued at or after
    /// `since`: a period replay from a state at `since` may then advance
    /// their tags and flow ids by whole periods.
    #[must_use]
    pub fn issued_since(&self, since: Cycle) -> bool {
        self.in_flight
            .iter()
            .all(|(due, read)| self.issued(due, read) >= since)
            && self.issue_cycle.iter().flatten().all(|&c| c >= since)
    }

    /// Fast-forward support: advances the clock across `span` cycles in
    /// which the subsystem provably does nothing — no submissions pending
    /// and no in-flight response due before `cycle + span`.
    ///
    /// Equivalent to `span` consecutive [`arbitrate`](Self::arbitrate) calls
    /// with zero submissions: those only clear already-empty scratch and
    /// advance the clock, so skipping them is invisible to every statistic
    /// and histogram.
    pub fn advance_idle(&mut self, span: u64) {
        debug_assert!(
            self.arbitration.pending() == 0,
            "advance_idle with submissions pending would drop arbitration"
        );
        debug_assert!(
            self.next_due().is_none_or(|due| due >= self.cycle + span),
            "advance_idle span crosses an in-flight response delivery"
        );
        self.cycle += span;
    }

    #[inline]
    fn ensure_traffic_started(&mut self) {
        if !self.traffic_started {
            self.start_traffic();
        }
    }

    /// Freezes the requester set and sizes the per-requester tables.
    #[cold]
    fn start_traffic(&mut self) {
        self.traffic_started = true;
        let n = self.requester_names.len().max(1);
        self.arbiters = vec![RoundRobinArbiter::new(n); self.config.num_banks()];
        let requesters = self.requester_names.len();
        self.arbitration = Arbitration::new(self.config.num_banks(), requesters);
        self.issue_cycle = vec![None; requesters];
        self.pending_flow = vec![0; requesters];
        self.lifetimes.add_requesters(requesters);
    }
}

impl fmt::Debug for MemorySubsystem {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("MemorySubsystem")
            .field("config", &self.config)
            .field("requesters", &self.requester_names.len())
            .field("cycle", &self.cycle)
            .field("stats", &self.stats)
            .finish()
    }
}

impl Instrumented for MemorySubsystem {
    fn register_metrics(&self, registry: &mut MetricsRegistry) {
        registry.set_counter("reads", self.stats.reads.get());
        registry.set_counter("writes", self.stats.writes.get());
        registry.set_counter("submissions", self.stats.submissions.get());
        registry.set_counter("resubmissions", self.stats.resubmissions.get());
        registry.set_counter("conflicts", self.stats.conflicts.get());
        registry.set_counter("cycles", self.cycle.get());
        // Conflict rate is per submission *attempt* (unique + retries), the
        // crossbar port pressure — matching the pre-split semantics.
        let attempts = self.stats.submissions.get() + self.stats.resubmissions.get();
        if attempts > 0 {
            registry.set_gauge(
                "conflict_rate",
                self.stats.conflicts.get() as f64 / attempts as f64,
            );
        }
        if self.per_bank_accesses.iter().any(|&n| n > 0) {
            let d: Distribution = self.per_bank_accesses.iter().map(|&n| n as f64).collect();
            registry.set_summary("bank_accesses", &d.summary());
        }
        let by_bank = self.latency_by_bank();
        registry.with_scope("latency", |r| merged(&by_bank).register_metrics(r));
        for (bank, tel) in by_bank.iter().enumerate() {
            if !tel.is_empty() || !tel.queueing.is_empty() {
                registry.with_scope(&format!("bank{bank}"), |r| {
                    r.with_scope("latency", |r| tel.register_metrics(r));
                });
            }
        }
        for (idx, tel) in self.latency_by_requester().iter().enumerate() {
            if tel.is_empty() && tel.queueing.is_empty() {
                continue;
            }
            // Requester names look like "A/ch0"; fold the separator into the
            // dotted metric path: mem.requester.A.ch0.latency.queueing.p99.
            let name = self.requester_names[idx].replace('/', ".");
            registry.with_scope("requester", |r| {
                r.with_scope(&name, |r| {
                    r.with_scope("latency", |r| tel.register_metrics(r));
                });
            });
        }
    }
}

impl Periodic for MemorySubsystem {
    /// `k` more periods like the one since `earlier`, two states with equal
    /// [`lock_key`](MemorySubsystem::lock_key)s whose pending and in-flight
    /// requests were all issued since `earlier`
    /// ([`issued_since`](MemorySubsystem::issued_since)): statistics,
    /// per-bank accesses and lifetime tables grow by `k` times their
    /// change, and so do the clock and every request's stamps. A request's
    /// tag and flow id advance by `k` times the tags its requester and the
    /// flow ids the crossbar handed out in the period.
    fn repeat_since(&mut self, earlier: &Self, k: u64) {
        self.stats.repeat_since(&earlier.stats, k);
        self.per_bank_accesses
            .repeat_since(&earlier.per_bank_accesses, k);
        // A requester's reads completed in the period are the tags it used:
        // its pending and in-flight requests are the same at both ends.
        let tags: Vec<u64> = self
            .lifetimes
            .requester_rows()
            .map(|row| self.lifetimes.completed(row) - earlier.lifetimes.completed(row))
            .collect();
        self.lifetimes.repeat_since(&earlier.lifetimes, k);
        let flows = self.next_flow_id - earlier.next_flow_id;
        // Equal lock keys give both ends the same reads in flight, due
        // and queued alike, so a read's stamps advance with its due cycle.
        assert_eq!(
            (self.in_flight.reads.len(), self.in_flight.due.len()),
            (earlier.in_flight.reads.len(), earlier.in_flight.due.len()),
            "in-flight reads changed"
        );
        for ((due, _), (then, _)) in self.in_flight.due.iter_mut().zip(&earlier.in_flight.due) {
            due.repeat_since(then, k);
        }
        for read in &mut self.in_flight.reads {
            read.tag += k * tags[read.requester.0];
            read.flow += k * flows;
        }
        self.issue_cycle.repeat_since(&earlier.issue_cycle, k);
        // A requester's last flow id moves only if it issued in the period.
        for flow in &mut self.pending_flow {
            if *flow >= earlier.next_flow_id {
                *flow += k * flows;
            }
        }
        self.next_flow_id.repeat_since(&earlier.next_flow_id, k);
        self.cycle.repeat_since(&earlier.cycle, k);
    }
}

/// Empties the requester set `set` and counts its members other than
/// `winner`.
#[inline]
fn take_losers(set: &mut [u64], winner: usize) -> u64 {
    let ones = |bits: u64| u64::from(bits.count_ones());
    if let [bits] = set {
        let rest = std::mem::take(bits) & !(1 << winner);
        return if rest == 0 { 0 } else { ones(rest) };
    }
    set[winner >> 6] ^= 1 << (winner & 63);
    if set.iter().all(|&bits| bits == 0) {
        return 0;
    }
    let losers = set.iter().map(|&bits| ones(bits)).sum();
    set.fill(0);
    losers
}

#[cold]
fn unknown_requester(requester: usize) -> MemError {
    MemError::UnknownRequester { requester }
}

#[cold]
fn duplicate_request(requester: usize) -> MemError {
    MemError::DuplicateRequest { requester }
}

/// `tables` merged into one.
fn merged(tables: &[LatencyTelemetry]) -> LatencyTelemetry {
    let mut total = LatencyTelemetry::default();
    for tel in tables {
        total.merge(tel);
    }
    total
}

#[cfg(test)]
mod tests {
    use super::*;

    fn subsystem() -> MemorySubsystem {
        MemorySubsystem::new(MemConfig::new(4, 8, 16).unwrap())
    }

    fn read(requester: RequesterId, bank: usize, row: usize, tag: u64) -> MemRequest {
        MemRequest {
            requester,
            loc: BankLocation { bank, row },
            tag,
            op: MemOp::Read,
        }
    }

    fn write(requester: RequesterId, bank: usize, row: usize) -> MemRequest {
        MemRequest {
            requester,
            loc: BankLocation { bank, row },
            tag: 0,
            op: MemOp::Write,
        }
    }

    #[test]
    fn read_after_write_roundtrip() {
        let mut mem = subsystem();
        let r = mem.register_requester("t");
        mem.submit(write(r, 1, 2)).unwrap();
        let grants = mem.arbitrate();
        assert!(grants[r.index()]);
        assert!(mem.take_responses().is_empty(), "writes deliver nothing");
        mem.submit(read(r, 1, 2, 1)).unwrap();
        mem.arbitrate();
        let responses = mem.take_responses();
        assert_eq!(
            responses,
            vec![MemResponse {
                requester: r,
                tag: 1
            }]
        );
        assert_eq!(mem.stats().reads.get(), 1);
        assert_eq!(mem.stats().writes.get(), 1);
    }

    #[test]
    fn read_latency_is_respected() {
        let mut mem = subsystem();
        let r = mem.register_requester("t");
        mem.submit(read(r, 0, 0, 7)).unwrap();
        mem.arbitrate();
        // Latency 1: response is available at the *next* cycle boundary,
        // i.e. after this arbitrate the cycle has advanced and the response
        // is due.
        let responses = mem.take_responses();
        assert_eq!(responses.len(), 1);
    }

    #[test]
    fn longer_latency_delays_response() {
        let mut mem = subsystem();
        mem.set_read_latency(3);
        let r = mem.register_requester("t");
        mem.submit(read(r, 0, 0, 0)).unwrap();
        mem.arbitrate(); // cycle 0 -> 1, due at cycle 3
        assert!(mem.take_responses().is_empty());
        mem.arbitrate(); // -> 2
        assert!(mem.take_responses().is_empty());
        mem.arbitrate(); // -> 3
        assert_eq!(mem.take_responses().len(), 1);
    }

    #[test]
    fn bank_conflict_grants_exactly_one() {
        let mut mem = subsystem();
        let a = mem.register_requester("a");
        let b = mem.register_requester("b");
        mem.submit(read(a, 2, 0, 0)).unwrap();
        mem.submit(read(b, 2, 1, 0)).unwrap();
        let grants = mem.arbitrate().to_vec();
        assert_eq!(grants.iter().filter(|&&g| g).count(), 1);
        assert_eq!(mem.stats().conflicts.get(), 1);
        assert_eq!(mem.stats().reads.get(), 1);
    }

    #[test]
    fn conflict_arbitration_is_fair_over_time() {
        let mut mem = subsystem();
        let a = mem.register_requester("a");
        let b = mem.register_requester("b");
        let mut wins = [0u32; 2];
        for _ in 0..10 {
            mem.submit(read(a, 0, 0, 0)).unwrap();
            mem.submit(read(b, 0, 0, 0)).unwrap();
            let grants = mem.arbitrate().to_vec();
            if grants[a.index()] {
                wins[0] += 1;
            }
            if grants[b.index()] {
                wins[1] += 1;
            }
            mem.take_responses();
        }
        assert_eq!(wins, [5, 5]);
    }

    #[test]
    fn requests_to_distinct_banks_all_granted() {
        let mut mem = subsystem();
        let ids: Vec<_> = (0..4)
            .map(|i| mem.register_requester(format!("r{i}")))
            .collect();
        for (i, &id) in ids.iter().enumerate() {
            mem.submit(read(id, i, 0, 0)).unwrap();
        }
        let grants = mem.arbitrate();
        assert!(grants.iter().all(|&g| g));
        assert_eq!(mem.stats().conflicts.get(), 0);
    }

    #[test]
    fn duplicate_submission_rejected() {
        let mut mem = subsystem();
        let r = mem.register_requester("t");
        mem.submit(read(r, 0, 0, 0)).unwrap();
        assert!(matches!(
            mem.submit(read(r, 1, 0, 1)),
            Err(MemError::DuplicateRequest { .. })
        ));
    }

    #[test]
    fn unknown_requester_rejected() {
        let mut mem = subsystem();
        let _ = mem.register_requester("t");
        let bogus = RequesterId(5);
        assert!(matches!(
            mem.submit(read(bogus, 0, 0, 0)),
            Err(MemError::UnknownRequester { .. })
        ));
    }

    #[test]
    #[should_panic(expected = "before any traffic")]
    fn registration_after_traffic_panics() {
        let mut mem = subsystem();
        let r = mem.register_requester("t");
        mem.submit(read(r, 0, 0, 0)).unwrap();
        mem.arbitrate();
        let _ = mem.register_requester("late");
    }

    #[test]
    fn per_bank_accounting() {
        let mut mem = subsystem();
        let r = mem.register_requester("t");
        for i in 0..3 {
            mem.submit(read(r, 1, i, 0)).unwrap();
            mem.arbitrate();
            mem.take_responses();
        }
        assert_eq!(mem.per_bank_accesses(), &[0, 3, 0, 0]);
    }

    #[test]
    fn responses_preserve_issue_order_per_requester() {
        let mut mem = subsystem();
        let r = mem.register_requester("t");
        // Two reads to different banks in consecutive cycles.
        mem.submit(read(r, 0, 0, 100)).unwrap();
        mem.arbitrate();
        mem.submit(read(r, 1, 0, 101)).unwrap();
        mem.arbitrate();
        let mut tags = Vec::new();
        tags.extend(mem.take_responses().into_iter().map(|r| r.tag));
        mem.arbitrate();
        tags.extend(mem.take_responses().into_iter().map(|r| r.tag));
        assert_eq!(tags, vec![100, 101]);
    }

    #[test]
    fn is_idle_reflects_in_flight_state() {
        let mut mem = subsystem();
        let r = mem.register_requester("t");
        assert!(mem.is_idle());
        mem.submit(read(r, 0, 0, 0)).unwrap();
        mem.arbitrate();
        assert!(!mem.is_idle());
        mem.take_responses();
        assert!(mem.is_idle());
    }

    #[test]
    fn next_activity_tracks_in_flight_due_and_advance_idle_skips_to_it() {
        let mut mem = subsystem();
        mem.set_read_latency(4);
        let r = mem.register_requester("t");
        assert_eq!(mem.next_due(), None, "empty crossbar idles");
        mem.submit(read(r, 0, 0, 0)).unwrap();
        mem.arbitrate(); // cycle 0 -> 1, response due at cycle 4
        assert_eq!(mem.next_due(), Some(Cycle::new(4)));
        let digest = mem.activity_digest();
        mem.advance_idle(3); // 1 -> 4, exactly up to the delivery
        assert_eq!(mem.cycle(), Cycle::new(4));
        assert_eq!(mem.activity_digest(), digest, "idle skip changes nothing");
        assert_eq!(mem.take_responses().len(), 1);
        assert_eq!(mem.next_due(), None);
    }

    #[test]
    fn conflicts_emit_trace_events() {
        let mut mem = subsystem();
        let a = mem.register_requester("a");
        let b = mem.register_requester("b");
        mem.set_trace_mode(TraceMode::Full);
        mem.submit(read(a, 2, 0, 0)).unwrap();
        mem.submit(read(b, 2, 1, 0)).unwrap();
        mem.arbitrate();
        let trace = mem.take_trace();
        let event = trace.iter().next().expect("conflict traced");
        assert_eq!(event.source, "xbar");
        assert_eq!(
            event.kind,
            TraceEventKind::BankConflict {
                bank: 2,
                contenders: 2
            }
        );
        assert!(!mem.trace().is_enabled(), "take_trace leaves tracing off");
    }

    #[test]
    fn flow_stamps_cover_a_read_token_lifecycle() {
        let mut mem = subsystem();
        mem.set_read_latency(2);
        let r = mem.register_requester("t");
        mem.set_trace_mode(TraceMode::Full);
        mem.set_flow_events(true);
        mem.submit(read(r, 1, 0, 0)).unwrap(); // issued at cycle 0
        mem.arbitrate(); // granted at cycle 0, due at cycle 2
        mem.arbitrate(); // -> cycle 2
        assert_eq!(mem.take_responses().len(), 1);
        let trace = mem.take_trace();
        let flows: Vec<_> = trace
            .iter()
            .filter(|e| {
                matches!(
                    e.kind,
                    TraceEventKind::FlowIssue { .. }
                        | TraceEventKind::FlowGrant { .. }
                        | TraceEventKind::FlowDeliver { .. }
                )
            })
            .collect();
        assert_eq!(flows.len(), 3, "issue, grant, delivery");
        assert_eq!(flows[0].kind, TraceEventKind::FlowIssue { id: 0, bank: 1 });
        assert_eq!(flows[0].cycle, Cycle::new(0));
        assert_eq!(flows[1].kind, TraceEventKind::FlowGrant { id: 0, bank: 1 });
        assert_eq!(flows[2].kind, TraceEventKind::FlowDeliver { id: 0 });
        assert_eq!(flows[2].cycle, Cycle::new(2));
    }

    #[test]
    fn flow_stamps_retire_writes_at_the_grant() {
        let mut mem = subsystem();
        let r = mem.register_requester("t");
        mem.set_trace_mode(TraceMode::Full);
        mem.set_flow_events(true);
        mem.submit(write(r, 0, 0)).unwrap();
        mem.arbitrate();
        let kinds: Vec<_> = mem.take_trace().iter().map(|e| e.kind.clone()).collect();
        assert_eq!(
            kinds,
            vec![
                TraceEventKind::FlowIssue { id: 0, bank: 0 },
                TraceEventKind::FlowGrant { id: 0, bank: 0 },
                TraceEventKind::FlowDeliver { id: 0 },
            ]
        );
    }

    #[test]
    fn flow_stamps_are_opt_in_and_ids_survive_retries() {
        let mut mem = subsystem();
        let a = mem.register_requester("a");
        let b = mem.register_requester("b");
        mem.set_trace_mode(TraceMode::Full);
        // Without the opt-in, tracing alone emits no flow stamps.
        mem.submit(read(a, 0, 0, 0)).unwrap();
        mem.arbitrate();
        assert!(!mem
            .take_trace()
            .iter()
            .any(|e| matches!(e.kind, TraceEventKind::FlowIssue { .. })));
        mem.set_trace_mode(TraceMode::Full);
        mem.set_flow_events(true);
        // Conflict: the loser's retry keeps its original token id.
        mem.submit(read(a, 2, 0, 0)).unwrap();
        mem.submit(read(b, 2, 1, 0)).unwrap();
        let grants = mem.arbitrate().to_vec();
        let loser = if grants[a.index()] { b } else { a };
        let loser_bank = 2;
        mem.submit(read(loser, loser_bank, 0, 0)).unwrap();
        mem.arbitrate();
        let trace = mem.take_trace();
        let issues: Vec<u64> = trace
            .iter()
            .filter_map(|e| match e.kind {
                TraceEventKind::FlowIssue { id, .. } => Some(id),
                _ => None,
            })
            .collect();
        // Two unique requests this round (ids continue from the pre-opt-in
        // request, which consumed id 0); the retry stamps no new issue.
        assert_eq!(issues, vec![1, 2]);
        let grants_traced: Vec<u64> = trace
            .iter()
            .filter_map(|e| match e.kind {
                TraceEventKind::FlowGrant { id, .. } => Some(id),
                _ => None,
            })
            .collect();
        assert_eq!(grants_traced.len(), 2, "winner then retried loser");
        assert!(grants_traced.contains(&1) && grants_traced.contains(&2));
    }

    #[test]
    fn metrics_snapshot_covers_stats() {
        let mut mem = subsystem();
        let a = mem.register_requester("a");
        let b = mem.register_requester("b");
        mem.submit(read(a, 2, 0, 0)).unwrap();
        mem.submit(read(b, 2, 1, 0)).unwrap();
        mem.arbitrate();
        let mut reg = MetricsRegistry::new();
        mem.register_metrics(&mut reg);
        assert_eq!(reg.get("reads").unwrap().as_f64(), 1.0);
        assert_eq!(reg.get("conflicts").unwrap().as_f64(), 1.0);
        assert_eq!(reg.get("submissions").unwrap().as_f64(), 2.0);
        assert_eq!(reg.get("resubmissions").unwrap().as_f64(), 0.0);
        assert!(reg.get("conflict_rate").is_some());
        assert!(reg.get("bank_accesses.max").is_some());
    }

    #[test]
    fn uncontended_read_lifetime_is_stamped() {
        let mut mem = subsystem();
        let r = mem.register_requester("t");
        mem.submit(read(r, 0, 0, 0)).unwrap();
        mem.arbitrate();
        assert_eq!(mem.take_responses().len(), 1);
        let tel = &mem.latency_by_requester()[r.index()].clone();
        // Granted in the issue cycle, delivered after the 1-cycle latency.
        assert_eq!(tel.queueing.max(), 0);
        assert_eq!(tel.service.max(), MemorySubsystem::DEFAULT_READ_LATENCY);
        assert_eq!(tel.end_to_end.max(), MemorySubsystem::DEFAULT_READ_LATENCY);
        assert_eq!(mem.latency_by_bank()[0].end_to_end.count(), 1);
    }

    #[test]
    fn conflict_retries_accrue_queueing_latency() {
        let mut mem = subsystem();
        let a = mem.register_requester("a");
        let b = mem.register_requester("b");
        // Both hit bank 0; the loser retries and wins one cycle later.
        mem.submit(read(a, 0, 0, 0)).unwrap();
        mem.submit(read(b, 0, 1, 0)).unwrap();
        let grants = mem.arbitrate().to_vec();
        let loser = if grants[a.index()] { b } else { a };
        mem.take_responses();
        mem.submit(read(loser, 0, if loser == a { 0 } else { 1 }, 0))
            .unwrap();
        assert!(mem.arbitrate()[loser.index()]);
        mem.take_responses();
        let tel = &mem.latency_by_requester()[loser.index()].clone();
        assert_eq!(tel.queueing.max(), 1, "one lost arbitration = one cycle");
        assert_eq!(
            tel.end_to_end.max(),
            1 + MemorySubsystem::DEFAULT_READ_LATENCY
        );
        // The winner paid no queueing delay.
        let winner = if loser == a { b } else { a };
        assert_eq!(mem.latency_by_requester()[winner.index()].queueing.max(), 0);
    }

    #[test]
    fn write_lifetime_has_zero_service() {
        let mut mem = subsystem();
        let r = mem.register_requester("t");
        mem.submit(write(r, 3, 0)).unwrap();
        mem.arbitrate();
        let tel = &mem.latency_by_bank()[3].clone();
        assert_eq!(tel.service.max(), 0);
        assert_eq!(tel.queueing.count(), 1);
        assert_eq!(tel.end_to_end.count(), 1);
    }

    #[test]
    fn lifetime_invariant_queueing_plus_service_is_end_to_end() {
        let mut mem = subsystem();
        let ids: Vec<_> = (0..3)
            .map(|i| mem.register_requester(format!("r{i}")))
            .collect();
        // Conflict-heavy: everyone hammers bank 0, interleaved with writes.
        let mut pending: Vec<Option<MemRequest>> = ids
            .iter()
            .map(|&id| Some(read(id, 0, id.index(), 0)))
            .collect();
        let mut issued = [0u32; 3];
        for cycle in 0..40 {
            mem.take_responses();
            for (i, slot) in pending.iter_mut().enumerate() {
                if slot.is_none() && issued[i] < 5 {
                    issued[i] += 1;
                    *slot = Some(if (cycle + i) % 3 == 0 {
                        write(ids[i], 0, i)
                    } else {
                        read(ids[i], 0, i, 0)
                    });
                }
                if let Some(req) = *slot {
                    mem.submit(req).unwrap();
                }
            }
            let grants = mem.arbitrate().to_vec();
            for (i, slot) in pending.iter_mut().enumerate() {
                if grants[ids[i].index()] {
                    *slot = None;
                }
            }
        }
        // Drain.
        for _ in 0..4 {
            mem.take_responses();
            mem.arbitrate();
        }
        mem.take_responses();
        let total = mem.latency_totals();
        assert!(total.queueing.max() > 0, "workload must actually conflict");
        assert_eq!(total.queueing.count(), total.end_to_end.count());
        assert_eq!(total.service.count(), total.end_to_end.count());
        assert_eq!(
            total.queueing.sum() + total.service.sum(),
            total.end_to_end.sum(),
            "per-request lifetimes must decompose exactly"
        );
        // Per-requester telemetry merges to the same totals.
        let merged =
            mem.latency_by_requester()
                .iter()
                .fold(LatencyTelemetry::default(), |mut acc, tel| {
                    acc.merge(tel);
                    acc
                });
        assert_eq!(merged, total);
    }

    #[test]
    fn latency_metrics_appear_under_scoped_paths() {
        let mut mem = subsystem();
        let r = mem.register_requester("A/ch0");
        mem.submit(read(r, 1, 0, 0)).unwrap();
        mem.arbitrate();
        mem.take_responses();
        let mut reg = MetricsRegistry::new();
        mem.register_metrics(&mut reg);
        for path in [
            "latency.queueing.p50",
            "latency.service.p99",
            "latency.end_to_end.max",
            "bank1.latency.end_to_end.count",
            "requester.A.ch0.latency.queueing.count",
        ] {
            assert!(reg.get(path).is_some(), "missing {path}");
        }
        // Banks that saw no traffic publish nothing.
        assert!(reg.get("bank0.latency.end_to_end.count").is_none());
    }

    /// A write is a header like a read: it needs no payload, retires at
    /// its grant and delivers no response.
    #[test]
    fn writes_are_header_only_requests() {
        let mut mem = subsystem();
        let r = mem.register_requester("t");
        mem.submit(write(r, 0, 0)).unwrap();
        assert!(mem.arbitrate()[r.index()]);
        mem.submit(write(r, 0, 1)).unwrap();
        assert!(mem.arbitrate()[r.index()]);
        assert!(mem.take_responses().is_empty());
        assert!(mem.is_idle());
        assert_eq!(mem.stats().writes.get(), 2);
        assert_eq!(mem.per_bank_accesses(), &[2, 0, 0, 0]);
    }

    /// The request-lifetime telemetry before the fold, kept as the
    /// reference: six histogram records per request. Queueing is recorded
    /// per bank and per requester at the grant; service and end-to-end per
    /// bank and per requester at the delivery (at the grant, for writes).
    struct SixRecordTelemetry {
        by_bank: Vec<LatencyTelemetry>,
        by_requester: Vec<LatencyTelemetry>,
    }

    impl SixRecordTelemetry {
        fn new(banks: usize, requesters: usize) -> Self {
            SixRecordTelemetry {
                by_bank: vec![LatencyTelemetry::default(); banks],
                by_requester: vec![LatencyTelemetry::default(); requesters],
            }
        }

        fn grant(&mut self, bank: usize, requester: usize, queueing: u64) {
            self.by_bank[bank].queueing.record(queueing);
            self.by_requester[requester].queueing.record(queueing);
        }

        fn complete(&mut self, bank: usize, requester: usize, service: u64, end_to_end: u64) {
            for tel in [&mut self.by_bank[bank], &mut self.by_requester[requester]] {
                tel.service.record(service);
                tel.end_to_end.record(end_to_end);
            }
        }

        /// The latency metrics `MemorySubsystem::register_metrics`
        /// publishes, from this reference.
        fn registry(&self, names: &[String]) -> MetricsRegistry {
            let mut registry = MetricsRegistry::new();
            registry.with_scope("latency", |r| merged(&self.by_bank).register_metrics(r));
            for (bank, tel) in self.by_bank.iter().enumerate() {
                if !tel.queueing.is_empty() {
                    registry.with_scope(&format!("bank{bank}"), |r| {
                        r.with_scope("latency", |r| tel.register_metrics(r));
                    });
                }
            }
            for (tel, name) in self.by_requester.iter().zip(names) {
                if !tel.queueing.is_empty() {
                    registry.with_scope("requester", |r| {
                        r.with_scope(name, |r| {
                            r.with_scope("latency", |r| tel.register_metrics(r));
                        });
                    });
                }
            }
            registry
        }
    }

    /// A request a test requester has issued and not yet seen complete.
    #[derive(Clone, Copy)]
    struct Issued {
        request: MemRequest,
        issued: u64,
    }

    fn assert_telemetry_matches(
        mem: &MemorySubsystem,
        reference: &SixRecordTelemetry,
        names: &[String],
        label: &str,
    ) {
        assert_eq!(mem.latency_by_bank(), reference.by_bank, "{label}: by bank");
        assert_eq!(
            mem.latency_by_requester(),
            reference.by_requester,
            "{label}: by requester"
        );
        assert_eq!(
            mem.latency_totals(),
            merged(&reference.by_bank),
            "{label}: totals"
        );
        let mut registry = MetricsRegistry::new();
        mem.register_metrics(&mut registry);
        let latency: Vec<_> = registry
            .iter()
            .filter(|(path, _)| path.contains("latency"))
            .collect();
        let expected = reference.registry(names);
        assert_eq!(
            latency,
            expected.iter().collect::<Vec<_>>(),
            "{label}: registry"
        );
    }

    /// The folded lifetime telemetry equals the six-record reference under
    /// seeded traffic: read latencies 1, 2, 4 and 16; conflict-heavy
    /// retries; mixed reads and writes; drains skipped for a few cycles, so
    /// responses arrive after their due cycle; queueing delays of at least
    /// `EXACT_LIMIT`; and snapshots taken while reads are in flight.
    #[test]
    fn lifetime_fold_matches_six_record_reference() {
        const BANKS: usize = 8;
        const REQUESTERS: usize = 24;
        for latency in [1u64, 2, 4, 16] {
            let mut rng = dm_sim::SplitMix64::new(0xf01d ^ latency);
            let mut mem = MemorySubsystem::new(MemConfig::new(BANKS, 8, 16).unwrap());
            mem.set_read_latency(latency);
            let names: Vec<String> = (0..REQUESTERS).map(|i| format!("port{i}/ch0")).collect();
            let ids: Vec<RequesterId> = names
                .iter()
                .map(|name| mem.register_requester(name.as_str()))
                .collect();
            let metric_names: Vec<String> = names.iter().map(|n| n.replace('/', ".")).collect();
            let mut reference = SixRecordTelemetry::new(BANKS, REQUESTERS);
            let mut pending: Vec<Option<Issued>> = vec![None; REQUESTERS];
            // Granted reads per requester, oldest first: (bank, issued, granted).
            let mut in_flight: Vec<VecDeque<(usize, u64, u64)>> = vec![VecDeque::new(); REQUESTERS];
            let (mut skip, mut max_queueing, mut late, mut snapshots_in_flight) = (0, 0, 0, 0);
            for cycle in 0..3_000u64 {
                let label = format!("latency {latency}, cycle {cycle}");
                if skip > 0 {
                    skip -= 1;
                } else {
                    if rng.below(16) == 0 {
                        skip = rng.between(1, 4);
                    }
                    let now = mem.cycle().get();
                    for response in mem.take_responses() {
                        let r = response.requester.index();
                        let (bank, issued, granted) = in_flight[r]
                            .pop_front()
                            .expect("response for a granted read");
                        late += u64::from(now > granted + latency);
                        reference.complete(bank, r, now - granted, now - issued);
                    }
                }
                // Every 256 cycles, a burst on one bank builds queueing
                // delays past EXACT_LIMIT; otherwise half the traffic
                // crowds two hot banks.
                let burst = cycle % 256 < 24;
                for (r, &id) in ids.iter().enumerate() {
                    if pending[r].is_none() && rng.below(3) > 0 {
                        let bank = match (burst, rng.below(2)) {
                            (true, _) => 0,
                            (false, 0) => rng.below(2) as usize,
                            (false, _) => rng.below(BANKS as u64) as usize,
                        };
                        let row = rng.below(16) as usize;
                        let request = if rng.below(4) == 0 {
                            write(id, bank, row)
                        } else {
                            read(id, bank, row, 0)
                        };
                        pending[r] = Some(Issued {
                            request,
                            issued: mem.cycle().get(),
                        });
                    }
                    if let Some(issued) = pending[r] {
                        mem.submit(issued.request).unwrap();
                    }
                }
                let now = mem.cycle().get();
                let grants = mem.arbitrate().to_vec();
                for (r, slot) in pending.iter_mut().enumerate() {
                    let Some(Issued { request, issued }) = *slot else {
                        continue;
                    };
                    if !grants[r] {
                        continue;
                    }
                    *slot = None;
                    let queueing = now - issued;
                    max_queueing = max_queueing.max(queueing);
                    reference.grant(request.loc.bank, r, queueing);
                    match request.op {
                        MemOp::Read => in_flight[r].push_back((request.loc.bank, issued, now)),
                        MemOp::Write => reference.complete(request.loc.bank, r, 0, queueing),
                    }
                }
                if rng.below(64) == 0 {
                    snapshots_in_flight += u64::from(!mem.is_idle());
                    assert_telemetry_matches(&mem, &reference, &metric_names, &label);
                }
            }
            for _ in 0..latency + 4 {
                mem.arbitrate();
            }
            let now = mem.cycle().get();
            for response in mem.take_responses() {
                let r = response.requester.index();
                let (bank, issued, granted) = in_flight[r].pop_front().unwrap();
                reference.complete(bank, r, now - granted, now - issued);
            }
            assert!(in_flight.iter().all(VecDeque::is_empty));
            assert_telemetry_matches(&mem, &reference, &metric_names, "drained");
            assert!(mem.stats().conflicts.get() > 1_000, "traffic must conflict");
            assert!(mem.stats().writes.get() > 100, "traffic must mix in writes");
            assert!(
                max_queueing >= LatencyHistogram::EXACT_LIMIT,
                "latency {latency}: queueing must reach the per-sample path"
            );
            assert!(late > 0, "latency {latency}: some deliveries must be late");
            assert!(
                snapshots_in_flight > 0,
                "snapshots must see reads in flight"
            );
        }
    }

    /// Drives one subsystem with a conflict-heavy workload and returns the
    /// response stream a given drain strategy delivers.
    fn run_scripted(drain: impl Fn(&mut MemorySubsystem) -> Vec<MemResponse>) -> Vec<MemResponse> {
        let mut mem = subsystem();
        let ids: Vec<_> = (0..3)
            .map(|i| mem.register_requester(format!("r{i}")))
            .collect();
        let mut delivered = Vec::new();
        let mut pending: Vec<Option<MemRequest>> = ids
            .iter()
            .enumerate()
            .map(|(i, &id)| Some(read(id, i % 2, 0, i as u64)))
            .collect();
        let mut issued = [1u64; 3];
        for _ in 0..30 {
            delivered.extend(drain(&mut mem));
            for (i, slot) in pending.iter_mut().enumerate() {
                if slot.is_none() && issued[i] < 6 {
                    issued[i] += 1;
                    *slot = Some(read(ids[i], i % 2, 0, 10 * i as u64 + issued[i]));
                }
                if let Some(req) = *slot {
                    mem.submit(req).unwrap();
                }
            }
            let grants = mem.arbitrate().to_vec();
            for (i, slot) in pending.iter_mut().enumerate() {
                if grants[ids[i].index()] {
                    *slot = None;
                }
            }
        }
        delivered.extend(drain(&mut mem));
        delivered
    }

    #[test]
    fn drain_callback_matches_take_responses_order() {
        let via_take = run_scripted(MemorySubsystem::take_responses);
        let via_drain = run_scripted(|mem| {
            let mut out = Vec::new();
            mem.drain_responses(|response| out.push(response));
            out
        });
        assert!(!via_take.is_empty(), "workload must deliver responses");
        assert_eq!(via_take, via_drain);
    }

    #[test]
    fn submissions_count_unique_requests_and_resubmissions_count_retries() {
        let mut mem = subsystem();
        let a = mem.register_requester("a");
        let b = mem.register_requester("b");
        // Both hit bank 0; the loser retries once.
        mem.submit(read(a, 0, 0, 0)).unwrap();
        mem.submit(read(b, 0, 1, 0)).unwrap();
        let grants = mem.arbitrate().to_vec();
        let loser = if grants[a.index()] { b } else { a };
        mem.take_responses();
        mem.submit(read(loser, 0, if loser == a { 0 } else { 1 }, 0))
            .unwrap();
        mem.arbitrate();
        mem.take_responses();
        assert_eq!(mem.stats().submissions.get(), 2, "two unique requests");
        assert_eq!(mem.stats().resubmissions.get(), 1, "one retry");
        assert_eq!(
            mem.stats().submissions.get(),
            mem.stats().reads.get() + mem.stats().writes.get(),
            "at drain, unique submissions equal granted accesses"
        );
    }

    #[test]
    fn arbitration_scratch_reuse_is_invisible_across_cycles() {
        // Alternate which banks are touched so the touched-bank bitset and
        // the per-bank slots must be reset correctly between cycles.
        let mut mem = subsystem();
        let a = mem.register_requester("a");
        let b = mem.register_requester("b");
        for cycle in 0..8u64 {
            let bank = (cycle % 3) as usize;
            mem.submit(read(a, bank, 0, cycle)).unwrap();
            mem.submit(read(b, (bank + 1) % 4, 0, cycle)).unwrap();
            let grants = mem.arbitrate().to_vec();
            assert!(grants[a.index()] && grants[b.index()], "no conflicts here");
            assert_eq!(mem.take_responses().len(), 2);
        }
        assert_eq!(mem.stats().conflicts.get(), 0);
        assert_eq!(mem.stats().reads.get(), 16);
    }

    /// Mask arbitration against the dense round-robin oracle (one
    /// [`RoundRobinArbiter::grant`] per bank over the full request vector)
    /// on random traffic: 16 to 130 requesters (one to three mask words)
    /// over 32 to 128 banks, submitted in contiguous batches of eight as
    /// streamers submit, every third batch writing, and every loser
    /// retrying its request. Same winners, conflict count, read responses
    /// in ascending bank order, unique and retried submissions and
    /// per-bank accesses.
    #[test]
    fn one_pass_arbitration_matches_dense_oracle() {
        // Miri runs a cycle thousands of times slower.
        const CYCLES: u64 = if cfg!(miri) { 4 } else { 400 };
        const BATCH: usize = 8;
        for (requesters, banks) in [
            (16usize, 32usize),
            (32, 32),
            (65, 64),
            (88, 64),
            (88, 128),
            (130, 128),
        ] {
            let mut rng = dm_sim::SplitMix64::new((requesters * banks) as u64);
            let mut mem = MemorySubsystem::new(MemConfig::new(banks, 8, 16).unwrap());
            let ids: Vec<RequesterId> = (0..requesters)
                .map(|i| mem.register_requester(format!("r{i}")))
                .collect();
            let op = |r: usize| match (r / BATCH) % 3 {
                2 => MemOp::Write,
                _ => MemOp::Read,
            };
            let mut oracle = vec![RoundRobinArbiter::new(requesters); banks];
            let mut pending: Vec<Option<(BankLocation, u64)>> = vec![None; requesters];
            let (mut conflicts, mut unique, mut retries) = (0, 0, 0);
            let mut accesses = vec![0u64; banks];
            for cycle in 0..CYCLES {
                // Most idle requesters issue; half of them crowd four hot
                // banks.
                for (r, slot) in pending.iter_mut().enumerate() {
                    if slot.is_some() {
                        retries += 1;
                    } else if rng.below(4) != 0 {
                        let span = if rng.below(2) == 0 { 4 } else { banks as u64 };
                        let loc = BankLocation {
                            bank: rng.below(span) as usize,
                            row: r % 8,
                        };
                        *slot = Some((loc, cycle));
                        unique += 1;
                    }
                }
                for (first, batch) in (0..).step_by(BATCH).zip(pending.chunks(BATCH)) {
                    mem.submit_batch(ids[first], op(first), batch.iter().copied())
                        .unwrap();
                }
                let grants = mem.arbitrate().to_vec();
                let mut expected_grants = vec![false; requesters];
                let mut expected_order = Vec::new();
                for (bank, arbiter) in oracle.iter_mut().enumerate() {
                    let requests: Vec<bool> = pending
                        .iter()
                        .map(|p| p.is_some_and(|(loc, _)| loc.bank == bank))
                        .collect();
                    let contenders = requests.iter().filter(|&&r| r).count() as u64;
                    conflicts += contenders.saturating_sub(1);
                    if let Some(winner) = arbiter.grant(&requests) {
                        expected_grants[winner] = true;
                        accesses[bank] += 1;
                        if op(winner).is_read() {
                            expected_order.push(winner);
                        }
                    }
                }
                let label = format!("{requesters} requesters, {banks} banks, cycle {cycle}");
                assert_eq!(grants, expected_grants, "{label}: winners");
                assert_eq!(mem.stats().conflicts.get(), conflicts, "{label}: conflicts");
                let order: Vec<usize> = mem
                    .take_responses()
                    .iter()
                    .map(|resp| resp.requester.index())
                    .collect();
                assert_eq!(order, expected_order, "{label}: response order");
                assert_eq!(
                    mem.stats().submissions.get(),
                    unique,
                    "{label}: submissions"
                );
                assert_eq!(
                    mem.stats().resubmissions.get(),
                    retries,
                    "{label}: resubmissions"
                );
                assert_eq!(mem.per_bank_accesses(), accesses, "{label}: accesses");
                for (slot, &granted) in pending.iter_mut().zip(&grants) {
                    if granted {
                        *slot = None;
                    }
                }
            }
            assert!(
                cfg!(miri) || conflicts > 1_000,
                "{requesters} requesters: traffic must conflict"
            );
        }
    }

    /// A batch reaching past the registered requesters submits nothing and
    /// names the first unregistered one; a requester submitting twice in a
    /// cycle is refused, whether alone or in a batch.
    #[test]
    fn batch_submission_errors_are_typed() {
        let mut mem = subsystem();
        let ids: Vec<_> = (0..3)
            .map(|i| mem.register_requester(format!("r{i}")))
            .collect();
        let at = |bank| Some((BankLocation { bank, row: 0 }, 0));
        assert_eq!(
            mem.submit_batch(ids[1], MemOp::Read, [at(0), at(1), at(2)].into_iter()),
            Err(MemError::UnknownRequester { requester: 3 })
        );
        assert!(mem.is_idle(), "a refused batch submits nothing");
        mem.submit_batch(ids[0], MemOp::Read, [at(0), None].into_iter())
            .unwrap();
        mem.submit_batch(ids[1], MemOp::Write, [at(1), at(2)].into_iter())
            .unwrap();
        assert_eq!(
            mem.submit_batch(ids[0], MemOp::Read, [None, at(3)].into_iter()),
            Err(MemError::DuplicateRequest { requester: 1 })
        );
        assert_eq!(
            mem.submit(read(ids[2], 3, 0, 0)),
            Err(MemError::DuplicateRequest { requester: 2 })
        );
        assert!(mem.arbitrate().iter().all(|&g| g));
        assert_eq!(
            (mem.stats().submissions.get(), mem.stats().reads.get()),
            (3, 1)
        );
    }
}
