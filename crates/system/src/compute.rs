//! The one cycle loop of every accelerator built from DataMaestros, and
//! the fast-forward engine that skips spans of it (DESIGN §8).
//!
//! The loop runs lockstep cycles. With [`SystemConfig::fast_forward`] set
//! and tracing off, two span sources replace stretches of lockstep cycles
//! with one replay each, and every simulated result stays bit-identical:
//!
//! * an **idle span**: after a stalled cycle, nothing acts until the next
//!   memory response is due, so the span is one stall charge and a clock
//!   advance;
//! * a **period span**: the loop state relative to the clock at a tile
//!   boundary equals the state at an earlier boundary (the *anchor*), and
//!   the AGUs feed words that map to the same banks period after period,
//!   so `k` further periods are `k` times the anchor's change
//!   ([`Periodic`]).
//!
//! Debug builds check every idle span with [`dm_sim::SpanCheck`] and every
//! period span against a lockstep shadow run of the same cycles.

use datamaestro::{ReadStreamer, WriteStreamer};
use dm_mem::MemorySubsystem;
use dm_sim::{
    BlameLeaf, BlamePhase, CausalLedger, OperandPort, Periodic, Port, StallCause, Trace,
    TraceEventKind, TraceMode,
};
use std::time::Instant;

use crate::error::SystemError;
use crate::executor::{self, TileDigest};
use crate::system::{HostTimings, SystemConfig};

/// Accumulates wall-clock laps into per-phase buckets; a no-op when the
/// run was configured without host timing.
struct HostPhaseClock {
    last: Option<Instant>,
    timings: HostTimings,
}

enum Phase {
    Streamers,
    Memory,
    Pe,
    Fastforward,
}

impl HostPhaseClock {
    fn new(enabled: bool) -> Self {
        HostPhaseClock {
            last: enabled.then(Instant::now),
            timings: HostTimings::default(),
        }
    }

    /// Restarts the lap timer without attributing the elapsed interval.
    fn start(&mut self) {
        if self.last.is_some() {
            self.last = Some(Instant::now());
        }
    }

    /// Attributes the time since the previous mark to `phase`.
    fn lap(&mut self, phase: Phase) {
        if let Some(last) = self.last {
            let now = Instant::now();
            let ns = now.duration_since(last).as_nanos() as u64;
            match phase {
                Phase::Streamers => self.timings.streamers_ns += ns,
                Phase::Memory => self.timings.memory_ns += ns,
                Phase::Pe => self.timings.pe_ns += ns,
                Phase::Fastforward => self.timings.fastforward_ns += ns,
            }
            self.last = Some(now);
        }
    }

    fn finish(
        self,
        loop_start: Option<Instant>,
        cycles: u64,
        replayed: u64,
    ) -> Option<HostTimings> {
        let start = loop_start?;
        let mut timings = self.timings;
        timings.compute_loop_ns = start.elapsed().as_nanos() as u64;
        timings.cycles = cycles;
        timings.replayed_cycles = replayed;
        Some(timings)
    }
}

/// Where a fire falls in its tile: the position [`Port::moves_on`] reads.
#[derive(Clone, Copy)]
struct Position {
    k_step: u64,
    k_steps: u64,
}

impl Position {
    /// Whether `port` moves a word on this fire.
    fn moves(self, port: Port) -> bool {
        port.moves_on(self.k_step, self.k_steps)
    }
}

/// The accelerator handshake: the port that blocks this cycle and the stall
/// cause it records, or `None` if the accelerator fires. It fires when
/// every operand reader that [`Port::moves_on`] this fire is valid and, on
/// tile-completing steps, the output port is ready. The lockstep iteration
/// and the idle-span proof both ask this one function.
fn handshake(
    readers: &[ReadStreamer],
    out: &WriteStreamer,
    at: Position,
    drained: bool,
) -> Option<(Port, StallCause)> {
    let blocked = OperandPort::ALL
        .into_iter()
        .zip(readers)
        .find(|(port, reader)| at.moves(port.port()) && !reader.can_pop_wide());
    let (port, cause) = match blocked {
        Some((p, reader)) if reader.lost_arbitration() => (p.port(), StallCause::BankConflict(p)),
        Some((p, _)) => (p.port(), StallCause::NoOperand(p)),
        None if at.moves(Port::Out) && !out.can_push_wide() => {
            (Port::Out, StallCause::WritebackBackpressure)
        }
        None => return None,
    };
    Some((port, if drained { StallCause::Drain } else { cause }))
}

/// Resolves the component-instance blame leaf for one stalled cycle by
/// dispatching the blame-chain walk to the streamer named by `cause`.
///
/// Drain stalls are special: the input FIFOs are legitimately empty, so
/// whichever port the handshake blocked on, the cycle belongs to the write
/// path — a specific bank if one is still draining or arbitrating, the
/// tail flush otherwise.
fn blame_leaf_for(
    cause: StallCause,
    readers: &[ReadStreamer],
    out: &WriteStreamer,
    mem: &MemorySubsystem,
) -> BlameLeaf {
    match cause {
        StallCause::NoOperand(p) | StallCause::BankConflict(p) => {
            readers[p.index()].blame_leaf(mem)
        }
        StallCause::WritebackBackpressure => out.blame_leaf(),
        StallCause::Drain if out.can_push_wide() => BlameLeaf::Flush,
        StallCause::Drain => match out.blame_leaf() {
            BlameLeaf::Unattributed => BlameLeaf::Flush,
            leaf => leaf,
        },
    }
}

/// Perfetto track names of the operand readers, in [`OperandPort`] order.
pub(crate) const READER_TRACKS: [&str; 3] = ["streamer-A", "streamer-B", "streamer-C"];

/// The fire schedule of one compute phase.
pub(crate) struct Schedule<'a> {
    /// Fires per output tile, over which each port moves words by
    /// [`Port::moves_on`].
    pub(crate) k_steps: u64,
    /// Output tiles the phase produces.
    pub(crate) tiles: u64,
    /// The functional executor's per-tile stream digests, checked as each
    /// tile is produced; `None` for a timing-only run.
    pub(crate) expected: Option<&'a [u64]>,
}

/// What one compute phase measured.
pub(crate) struct ComputeRun {
    /// Compute cycles, pipeline fill and drain included.
    pub(crate) cycles: u64,
    /// Cycles the accelerator fired.
    pub(crate) fires: u64,
    /// Every cycle's fire or `(phase, cause, leaf)` stall.
    pub(crate) ledger: CausalLedger,
    /// Host phase timings, when [`SystemConfig::time_phases`] is set.
    pub(crate) host: Option<HostTimings>,
}

/// The timing components one compute loop drives: the operand readers in
/// [`OperandPort`] order, the writer and the crossbar.
struct Machine<'m> {
    mem: &'m mut MemorySubsystem,
    readers: &'m mut [ReadStreamer],
    out: &'m mut WriteStreamer,
}

impl Machine<'_> {
    fn is_done(&self) -> bool {
        self.readers.iter().all(ReadStreamer::is_done) && self.out.is_done()
    }

    /// The loop state relative to the clock that steers future cycles:
    /// every streamer's and the crossbar's lock keys.
    fn lock_key(&self, key: &mut Vec<u64>) {
        for reader in self.readers.iter() {
            reader.lock_key(key);
        }
        self.out.lock_key(key);
        self.mem.lock_key(key);
    }

    /// Activity digests of every component an idle span must leave
    /// frozen, for the debug-build [`dm_sim::SpanCheck`].
    #[cfg(debug_assertions)]
    fn activity_digests(&self) -> Vec<(&'static str, u64)> {
        READER_TRACKS
            .into_iter()
            .zip(self.readers.iter().map(ReadStreamer::activity_digest))
            .chain([
                ("streamer-OUT", self.out.activity_digest()),
                ("mem", self.mem.activity_digest()),
            ])
            .collect()
    }
}

/// What the loop has done so far, besides the components' own state.
struct Progress {
    cycles: u64,
    fires: u64,
    ledger: CausalLedger,
    /// The stream digest of the tile in progress.
    digest: TileDigest,
}

dm_sim::clone_fields!(Progress {
    cycles,
    fires,
    ledger,
    digest
});

/// An owned copy of a machine and the loop's progress: a period anchor,
/// or in debug builds the lockstep shadow of a replayed span.
#[derive(Clone)]
struct Snapshot {
    mem: MemorySubsystem,
    readers: Vec<ReadStreamer>,
    out: WriteStreamer,
    progress: Progress,
}

impl Snapshot {
    fn capture(m: &Machine<'_>, progress: &Progress) -> Self {
        Snapshot {
            mem: m.mem.clone(),
            readers: m.readers.to_vec(),
            out: m.out.clone(),
            progress: progress.clone(),
        }
    }

    /// [`Snapshot::capture`] into this snapshot's storage: an earlier
    /// snapshot of the same run has every table and queue at about the
    /// size the new one needs, so refilling it allocates next to nothing.
    fn recapture(&mut self, m: &Machine<'_>, progress: &Progress) {
        self.mem.clone_from(m.mem);
        m.readers.clone_into(&mut self.readers);
        self.out.clone_from(m.out);
        self.progress.clone_from(progress);
    }

    #[cfg(debug_assertions)]
    fn machine(&mut self) -> (Machine<'_>, &mut Progress) {
        let machine = Machine {
            mem: &mut self.mem,
            readers: &mut self.readers,
            out: &mut self.out,
        };
        (machine, &mut self.progress)
    }
}

/// What one lockstep cycle did.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Cycled {
    /// The accelerator fired without completing a tile.
    Fired,
    /// The accelerator fired and pushed a finished tile: the next cycle
    /// starts at a tile boundary.
    Produced,
    /// The handshake stalled.
    Stalled,
}

/// A span the loop replays instead of running it cycle by cycle.
enum Span<'a> {
    /// `cycles` stalled cycles in which nothing acts.
    Idle { cause: StallCause, cycles: u64 },
    /// `k` more periods like the one since `anchor`.
    Periods { k: u64, anchor: &'a Snapshot },
}

/// Longest candidate period, in cycles: an anchor older than this is
/// dropped. It spans a conv row and the longest bank cycle of the
/// ResNet-18 layers: four output rows of `layer4 3x3x512` (147 456
/// cycles), over which A's row stride adds up to whole interleave rounds.
const MAX_PERIOD: u64 = 1 << 18;

/// Anchors the detector keeps at once: enough for the boundaries of a few
/// bank cycles of different lengths. A snapshot is tens of kilobytes.
const ANCHORS: usize = 8;

/// The anchor of a candidate period: the machine at a tile boundary and
/// its lock key.
struct Anchor {
    key: Vec<u64>,
    state: Box<Snapshot>,
}

/// Finds periods at tile boundaries. Every boundary that replays nothing
/// takes a snapshot (an anchor); a later boundary whose key equals an
/// anchor's ends a candidate period, and the span replays if the AGUs keep
/// feeding the same banks. A period thus replays one period after the
/// machine settles into it.
#[derive(Default)]
struct Detector {
    /// Anchors, oldest first.
    anchors: Vec<Anchor>,
    /// Dropped anchors, whose storage the next anchors take over.
    spare: Vec<Anchor>,
    /// The current boundary's key.
    key: Vec<u64>,
}

impl Detector {
    /// Called at every tile boundary; returns the span to replay from
    /// here, if any. Every anchor with this boundary's key is tried and the
    /// one whose periods cover the most cycles wins. Anchors outlive the
    /// replays: a replay is exact, so each stays a true earlier state.
    fn at_boundary(
        &mut self,
        run: &Compute<'_>,
        m: &Machine<'_>,
        p: &Progress,
    ) -> Option<Span<'_>> {
        if p.fires == run.steps {
            return None;
        }
        self.key.clear();
        m.lock_key(&mut self.key);
        // Anchors are oldest first, so the expired ones are a prefix.
        let expired = self
            .anchors
            .partition_point(|a| p.cycles - a.state.progress.cycles > MAX_PERIOD);
        self.spare.extend(self.anchors.drain(..expired));
        let best = self
            .anchors
            .iter()
            .enumerate()
            .filter(|(_, a)| a.key == self.key)
            .map(|(i, a)| {
                let k = run.repeatable_periods(&a.state, m, p);
                (k * (p.cycles - a.state.progress.cycles), k, i)
            })
            .max_by_key(|&(cycles, ..)| cycles);
        if let Some((cycles, k, i)) = best {
            if cycles > 0 {
                let anchor = &self.anchors[i].state;
                return Some(Span::Periods { k, anchor });
            }
        }
        // The boundary takes an anchor, also where anchors with its key
        // just failed: the fresh one closes other periods than theirs.
        if self.anchors.len() == ANCHORS {
            self.evict();
        }
        let anchor = match self.spare.pop() {
            Some(mut anchor) => {
                anchor.key.clone_from(&self.key);
                anchor.state.recapture(m, p);
                anchor
            }
            None => Anchor {
                key: self.key.clone(),
                state: Box::new(Snapshot::capture(m, p)),
            },
        };
        self.anchors.push(anchor);
        None
    }

    /// Makes room for an anchor by dropping the one taken closest after
    /// the anchor before it: crowded anchors thin out and the rest keep
    /// their spread of ages. The oldest and the newest stay.
    fn evict(&mut self) {
        let taken = |i: usize| self.anchors[i].state.progress.cycles;
        let crowded = (1..self.anchors.len() - 1)
            .min_by_key(|&i| taken(i) - taken(i - 1))
            .unwrap_or(0);
        let evicted = self.anchors.remove(crowded);
        self.spare.push(evicted);
    }
}

/// One compute phase's fixed context.
#[derive(Clone)]
struct Compute<'a> {
    /// Response routing table: requester index → the consuming reader and
    /// its channel.
    routes: Vec<Option<(usize, usize)>>,
    k_steps: u64,
    steps: u64,
    /// Cycles after which the run is declared deadlocked.
    budget: u64,
    expected: Option<&'a [u64]>,
}

impl<'a> Compute<'a> {
    fn new(mem: &MemorySubsystem, readers: &[ReadStreamer], schedule: &Schedule<'a>) -> Self {
        let mut routes = vec![None; mem.num_requesters()];
        for (index, reader) in readers.iter().enumerate() {
            for (channel, id) in reader.channel_requesters().into_iter().enumerate() {
                routes[id.index()] = Some((index, channel));
            }
        }
        let steps = schedule.k_steps * schedule.tiles;
        Compute {
            routes,
            k_steps: schedule.k_steps,
            steps,
            budget: steps * 64 + 100_000,
            expected: schedule.expected,
        }
    }

    /// Where the next fire after `fires` falls in its tile, and whether
    /// every fire has happened.
    fn position(&self, fires: u64) -> (Position, bool) {
        let at = Position {
            k_step: fires % self.k_steps,
            k_steps: self.k_steps,
        };
        (at, fires == self.steps)
    }

    /// Phase segmentation: fill until the first fire, drain once every
    /// compute step has issued, steady in between. Derived from loop state
    /// only, so fast-forwarded and lockstep runs agree exactly.
    fn phase(&self, p: &Progress) -> BlamePhase {
        if p.ledger.fired() == 0 {
            BlamePhase::Fill
        } else if p.fires == self.steps {
            BlamePhase::Drain
        } else {
            BlamePhase::Steady
        }
    }

    /// One lockstep cycle.
    fn step(
        &self,
        m: &mut Machine<'_>,
        p: &mut Progress,
        trace: &mut Trace,
        clock: &mut HostPhaseClock,
    ) -> Result<Cycled, SystemError> {
        // Once every compute step has fired, remaining cycles only flush the
        // write path: the input FIFOs are legitimately empty, not starved.
        let (at, drained) = self.position(p.fires);
        let phase = self.phase(p);
        for reader in m.readers.iter_mut() {
            reader.begin_cycle();
        }
        clock.lap(Phase::Streamers);
        let readers = &mut *m.readers;
        m.mem
            .drain_responses(|resp| match self.routes[resp.requester.index()] {
                Some((reader, channel)) => readers[reader].land(channel, resp.tag),
                // Only granted reads respond. The writer submits writes, and
                // the copy engine returns only once every read it issued has
                // landed, so every read in flight here is an operand
                // reader's.
                None => unreachable!("response for a write/copy port"),
            });
        clock.lap(Phase::Memory);
        let now = m.mem.cycle();
        let cycled = match handshake(m.readers, m.out, at, drained) {
            None => {
                p.ledger.fire(now.get());
                trace.emit(now, "pe", TraceEventKind::PeFire);
                // A timing-only run has no digests to check, so it folds none.
                let checked = self.expected.is_some();
                if at.k_step == 0 {
                    p.digest = TileDigest::EMPTY;
                }
                let digest = &mut p.digest;
                let mut fold = |addr| {
                    if checked {
                        digest.fold(addr);
                    }
                };
                for (port, reader) in OperandPort::ALL.into_iter().zip(m.readers.iter_mut()) {
                    if at.moves(port.port()) {
                        reader.pop_wide(&mut fold);
                    }
                }
                let produces = at.moves(Port::Out);
                if produces {
                    m.out.push_wide(&mut fold);
                    if let Some(expected) = self.expected {
                        executor::check_tile(expected, p.fires / self.k_steps, p.digest)?;
                    }
                }
                p.fires += 1;
                if produces {
                    Cycled::Produced
                } else {
                    Cycled::Fired
                }
            }
            Some((port, cause)) => {
                match port.operand() {
                    Some(op) => m.readers[op.index()].note_consumer_blocked(now),
                    None => m.out.note_producer_blocked(now),
                }
                let leaf = blame_leaf_for(cause, m.readers, m.out, m.mem);
                p.ledger.charge(phase, cause, leaf, 1);
                trace.emit(now, "pe", TraceEventKind::PeStall { cause });
                Cycled::Stalled
            }
        };
        clock.lap(Phase::Pe);
        for reader in m.readers.iter_mut() {
            reader.generate_and_issue(m.mem)?;
        }
        m.out.generate_and_issue(m.mem)?;
        clock.lap(Phase::Streamers);
        let grants = m.mem.arbitrate();
        clock.lap(Phase::Memory);
        for reader in m.readers.iter_mut() {
            reader.handle_grants(grants);
        }
        m.out.handle_grants(grants);
        clock.lap(Phase::Streamers);
        p.cycles += 1;
        Ok(cycled)
    }

    /// The idle span starting this cycle, if any. A cycle is skippable iff
    /// no streamer acts, the handshake stalls, and no memory response lands
    /// this cycle. In that state the whole iteration reduces to occupancy
    /// sampling plus one ledger charge, up to the oldest in-flight read's
    /// due cycle, capped so a wedged system fast-forwards to the exact
    /// deadlock diagnostic lockstep would produce. A span of one saves
    /// nothing over a lockstep iteration.
    fn idle_span(&self, m: &Machine<'_>, p: &Progress) -> Option<Span<'static>> {
        if m.readers.iter().any(ReadStreamer::acts_this_cycle) || m.out.acts_this_cycle() {
            return None;
        }
        let (at, drained) = self.position(p.fires);
        let (_, cause) = handshake(m.readers, m.out, at, drained)?;
        let (cap, now) = (self.budget + 1 - p.cycles, m.mem.cycle());
        let cycles = m
            .mem
            .next_due()
            .map_or(cap, |due| due.saturating_sub(now).get())
            .min(cap);
        (cycles >= 2).then_some(Span::Idle { cause, cycles })
    }

    /// How many more periods like the one since `anchor` the machine
    /// repeats exactly: the lock keys are equal, so it is as many as every
    /// streamer keeps its bank pattern for, capped so that no AGU runs out,
    /// no more than the remaining fires fire and the deadlock budget holds.
    /// Each streamer's horizon is sought only as far as the ones before it
    /// reach.
    fn repeatable_periods(&self, anchor: &Snapshot, m: &Machine<'_>, p: &Progress) -> u64 {
        if !m.mem.issued_since(anchor.mem.cycle()) {
            return 0;
        }
        let then = &anchor.progress;
        let period = p.cycles - then.cycles;
        let fires = p.fires - then.fires;
        let max = ((self.budget - p.cycles) / period).min((self.steps - p.fires) / fires);
        let k = m
            .readers
            .iter()
            .zip(&anchor.readers)
            .fold(max, |cap, (reader, earlier)| {
                reader.repeatable_periods(earlier, cap)
            });
        m.out.repeatable_periods(&anchor.out, k)
    }

    /// Replays `span` and returns the cycles it covered.
    fn replay(
        &self,
        span: Span<'_>,
        m: &mut Machine<'_>,
        p: &mut Progress,
    ) -> Result<u64, SystemError> {
        match span {
            Span::Idle { cause, cycles } => {
                #[cfg(debug_assertions)]
                let check = dm_sim::SpanCheck::capture(m.activity_digests());
                for reader in m.readers.iter_mut() {
                    reader.sample_occupancy_span(cycles);
                }
                m.out.sample_occupancy_span(cycles);
                // The blame walk reads only state the span check proves
                // frozen (and the due-ordered in-flight queue, untouched
                // until after the span), so the leaf is constant across the
                // span: one charge is bit-identical to per-cycle charging.
                let leaf = blame_leaf_for(cause, m.readers, m.out, m.mem);
                p.ledger.charge(self.phase(p), cause, leaf, cycles);
                m.mem.advance_idle(cycles);
                p.cycles += cycles;
                #[cfg(debug_assertions)]
                check.assert_unchanged(m.activity_digests());
                Ok(cycles)
            }
            Span::Periods { k, anchor } => {
                let start = p.cycles;
                self.check_replayed_tiles(m, p.fires, k * (p.fires - anchor.progress.fires))?;
                #[cfg(debug_assertions)]
                let shadow = Snapshot::capture(m, p);
                for (reader, earlier) in m.readers.iter_mut().zip(&anchor.readers) {
                    reader.repeat_since(earlier, k);
                }
                m.out.repeat_since(&anchor.out, k);
                m.mem.repeat_since(&anchor.mem, k);
                let then = &anchor.progress;
                p.ledger.repeat_since(&then.ledger, k);
                p.fires.repeat_since(&then.fires, k);
                p.cycles.repeat_since(&then.cycles, k);
                #[cfg(debug_assertions)]
                self.assert_replayed(shadow, m, p);
                Ok(p.cycles - start)
            }
        }
    }

    /// Folds and checks the stream digest of every tile the `fires` fires
    /// from `from` on complete, from the words the AGUs generate: replayed
    /// fires pop no words, but the k-th word a port pops is the k-th its
    /// pattern generates.
    fn check_replayed_tiles(
        &self,
        m: &Machine<'_>,
        from: u64,
        fires: u64,
    ) -> Result<(), SystemError> {
        let Some(expected) = self.expected else {
            return Ok(());
        };
        let mut inputs: Vec<_> = m
            .readers
            .iter()
            .map(|r| r.words_from(r.stats().wide_words.get()))
            .collect();
        let mut output = m.out.words_from(m.out.stats().wide_words.get());
        let mut digest = TileDigest::EMPTY;
        for fire in from..from + fires {
            let (at, _) = self.position(fire);
            if at.k_step == 0 {
                digest = TileDigest::EMPTY;
            }
            for (port, words) in OperandPort::ALL.into_iter().zip(&mut inputs) {
                if at.moves(port.port()) {
                    words.next_word(|addr| digest.fold(addr));
                }
            }
            if at.moves(Port::Out) {
                output.next_word(|addr| digest.fold(addr));
                executor::check_tile(expected, fire / self.k_steps, digest)?;
            }
        }
        Ok(())
    }

    /// Runs `shadow`, the machine before a period replay, cycle by cycle
    /// to where the replay left `m` and `p`, and asserts that both agree
    /// on every component's whole state.
    ///
    /// # Panics
    ///
    /// Naming the first component whose replayed state differs.
    #[cfg(debug_assertions)]
    fn assert_replayed(&self, mut shadow: Snapshot, m: &Machine<'_>, p: &Progress) {
        let lockstep = Compute {
            expected: None,
            ..self.clone()
        };
        let span = p.cycles.saturating_sub(shadow.progress.cycles);
        let (mut machine, progress) = shadow.machine();
        let (mut trace, mut clock) = (Trace::new(), HostPhaseClock::new(false));
        for _ in 0..span {
            lockstep
                .step(&mut machine, progress, &mut trace, &mut clock)
                .expect("the lockstep shadow of a replayed span runs");
        }
        let diverged =
            |component: &str| panic!("period replay diverged from lockstep in `{component}`");
        for ((name, reader), replayed) in READER_TRACKS.iter().zip(&shadow.readers).zip(&*m.readers)
        {
            if reader != replayed {
                diverged(name);
            }
        }
        if shadow.out != *m.out {
            diverged("streamer-OUT");
        }
        if shadow.mem != *m.mem {
            diverged("mem");
        }
        let lockstep = &shadow.progress;
        if (lockstep.cycles, lockstep.fires) != (p.cycles, p.fires) {
            diverged("loop clock");
        }
        if lockstep.ledger != p.ledger {
            diverged("ledger");
        }
    }
}

/// The one cycle loop of every accelerator built from DataMaestros.
///
/// `readers` are the operand readers in [`OperandPort`] order (A, B, C for
/// the GeMM array, only A for pooling); `out` drains the result tiles. The
/// accelerator fires once every reader that [`Port::moves_on`] this fire is
/// valid — A and B on every fire, C on the first k-step of a tile — and, on
/// the tile's last k-step, the writer is ready. Idle and periodic spans are
/// replayed in one step each when [`SystemConfig::fast_forward`] is set and
/// the run is untraced.
///
/// # Errors
///
/// [`SystemError::Deadlock`] past `steps × 64 + 100 000` cycles,
/// [`SystemError::StreamMismatch`] if a tile's consumed and produced word
/// addresses differ from the functional executor's, and memory errors.
pub(crate) fn run_compute(
    config: &SystemConfig,
    mem: &mut MemorySubsystem,
    readers: &mut [ReadStreamer],
    out: &mut WriteStreamer,
    schedule: &Schedule<'_>,
    trace: &mut Trace,
) -> Result<ComputeRun, SystemError> {
    let run = Compute::new(mem, readers, schedule);
    let mut m = Machine { mem, readers, out };
    let mut p = Progress {
        cycles: 0,
        fires: 0,
        ledger: CausalLedger::new(m.mem.config().num_banks()),
        digest: TileDigest::EMPTY,
    };
    let mut detector = Detector::default();
    let mut replayed = 0u64;

    trace.emit_with(m.mem.cycle(), "system", || TraceEventKind::SpanBegin {
        name: "compute".to_owned(),
    });
    let mut clock = HostPhaseClock::new(config.time_phases);
    let loop_start = config.time_phases.then(Instant::now);
    // Tracing needs every per-cycle timestamp, so traced runs stay lockstep.
    let ff_active = config.fast_forward && config.trace == TraceMode::Off;
    // The first cycle starts neither after a stall nor at a tile boundary.
    let mut last = Cycled::Fired;
    while !m.is_done() {
        clock.start();
        // The two span sources: an idle span can only start after a
        // stalled cycle, a period span only at a tile boundary.
        let span = if ff_active {
            let span = match last {
                Cycled::Stalled => run.idle_span(&m, &p),
                Cycled::Produced => detector.at_boundary(&run, &m, &p),
                Cycled::Fired => None,
            };
            clock.lap(Phase::Fastforward);
            span
        } else {
            None
        };
        match span {
            Some(span) => {
                // A period span ends at a tile boundary again; an idle span
                // ends where the next response lands.
                let next = match span {
                    Span::Periods { .. } => Cycled::Produced,
                    Span::Idle { .. } => Cycled::Stalled,
                };
                replayed += run.replay(span, &mut m, &mut p)?;
                last = next;
                clock.lap(Phase::Fastforward);
            }
            None => last = run.step(&mut m, &mut p, trace, &mut clock)?,
        }
        if p.cycles > run.budget {
            return Err(SystemError::Deadlock {
                phase: "compute",
                cycles: p.cycles,
            });
        }
    }
    trace.emit_with(m.mem.cycle(), "system", || TraceEventKind::SpanEnd {
        name: "compute".to_owned(),
    });
    debug_assert_eq!(p.fires, run.steps);
    assert_eq!(
        p.ledger.fired(),
        p.fires,
        "ledger fires must match active cycles"
    );
    assert_eq!(
        p.ledger.total(),
        p.cycles,
        "fires plus charged stalls must cover every compute cycle"
    );
    Ok(ComputeRun {
        cycles: p.cycles,
        fires: p.fires,
        ledger: p.ledger,
        host: clock.finish(loop_start, p.cycles, replayed),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use dm_compiler::compile;
    use dm_workloads::{GemmSpec, WorkloadData};

    /// A GeMM's timing components, built as `run_compiled` builds them, and
    /// the functional executor's tile digests.
    struct Bench {
        mem: MemorySubsystem,
        readers: Vec<ReadStreamer>,
        out: WriteStreamer,
        k_steps: u64,
        tiles: u64,
        expected: Vec<u64>,
    }

    fn gemm_bench() -> Bench {
        let config = SystemConfig::default();
        let data = WorkloadData::generate(GemmSpec::new(64, 64, 128).into(), 7);
        let program = compile(
            &data,
            &config.features,
            &config.mem,
            config.quantized,
            config.depths,
        )
        .unwrap();
        assert!(program.prepasses.is_empty(), "the bench skips pre-passes");
        let mut mem = MemorySubsystem::new(config.mem);
        let readers = program
            .readers
            .iter()
            .map(|plan| ReadStreamer::new(&plan.design, &plan.runtime, &mut mem).unwrap())
            .collect();
        let out = WriteStreamer::new(&program.out.design, &program.out.runtime, &mut mem).unwrap();
        Bench {
            mem,
            readers,
            out,
            k_steps: program.k_steps,
            tiles: program.total_output_tiles,
            expected: executor::execute(&config.mem, &program, &data)
                .unwrap()
                .tiles,
        }
    }

    /// Steps `bench` in lockstep, without tile checks, to the first tile
    /// boundary at which the detector finds a period span.
    fn first_period(bench: &mut Bench) -> (Progress, u64, Snapshot) {
        let schedule = Schedule {
            k_steps: bench.k_steps,
            tiles: bench.tiles,
            expected: None,
        };
        let run = Compute::new(&bench.mem, &bench.readers, &schedule);
        let mut m = Machine {
            mem: &mut bench.mem,
            readers: &mut bench.readers,
            out: &mut bench.out,
        };
        let mut p = Progress {
            cycles: 0,
            fires: 0,
            ledger: CausalLedger::new(m.mem.config().num_banks()),
            digest: TileDigest::EMPTY,
        };
        let mut detector = Detector::default();
        let (mut trace, mut clock) = (Trace::new(), HostPhaseClock::new(false));
        while !m.is_done() {
            if run.step(&mut m, &mut p, &mut trace, &mut clock).unwrap() == Cycled::Produced {
                if let Some(Span::Periods { k, anchor }) = detector.at_boundary(&run, &m, &p) {
                    return (p, k, anchor.clone());
                }
            }
        }
        panic!("the GeMM never settled into a period");
    }

    /// Replays `k` periods since `anchor` on `bench`, checking tiles
    /// against `expected`.
    fn replay(
        bench: &mut Bench,
        mut p: Progress,
        k: u64,
        anchor: Snapshot,
        expected: &[u64],
    ) -> Result<u64, SystemError> {
        let schedule = Schedule {
            k_steps: bench.k_steps,
            tiles: bench.tiles,
            expected: Some(expected),
        };
        let run = Compute::new(&bench.mem, &bench.readers, &schedule);
        let mut m = Machine {
            mem: &mut bench.mem,
            readers: &mut bench.readers,
            out: &mut bench.out,
        };
        run.replay(Span::Periods { k, anchor: &anchor }, &mut m, &mut p)
    }

    #[test]
    fn a_replayed_span_checks_every_tile_it_skips() {
        let mut bench = gemm_bench();
        let (p, k, anchor) = first_period(&mut bench);
        let first = p.fires / bench.k_steps;
        let tiles = k * (p.fires - anchor.progress.fires) / bench.k_steps;
        assert!(tiles >= 2, "the span covers {tiles} tiles");
        let mut forged = bench.expected.clone();
        let tile = first + tiles / 2;
        forged[tile as usize] ^= 1;
        match replay(&mut bench, p, k, anchor, &forged) {
            Err(SystemError::StreamMismatch { tile: at }) => assert_eq!(at, tile),
            other => panic!("expected a stream mismatch at tile {tile}, got {other:?}"),
        }
    }

    #[test]
    fn a_replayed_span_matches_its_tiles() {
        let mut bench = gemm_bench();
        let (p, k, anchor) = first_period(&mut bench);
        let expected = bench.expected.clone();
        let period = p.cycles - anchor.progress.cycles;
        assert_eq!(
            replay(&mut bench, p, k, anchor, &expected).unwrap(),
            k * period
        );
    }

    /// The mutation check of the debug replay check: a period recorded one
    /// cycle longer than the machine's own makes the replay advance the
    /// loop clock past the components, which the lockstep shadow catches.
    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "period replay diverged from lockstep")]
    fn a_period_off_by_one_cycle_is_caught() {
        let mut bench = gemm_bench();
        let (p, k, mut anchor) = first_period(&mut bench);
        anchor.progress.cycles -= 1;
        let expected = bench.expected.clone();
        let _ = replay(&mut bench, p, k, anchor, &expected);
    }
}
