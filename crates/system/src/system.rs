//! The full evaluation system (Fig. 6): five DataMaestros, the GeMM and
//! quantization accelerators, and the banked scratchpad, ticked cycle by
//! cycle.
//!
//! The cycle loop is a timing model: streamers, crossbar and copy engine
//! move header tokens, and a PE fire only pops and pushes word addresses.
//! The data comes from the functional executor, which runs when
//! [`SystemConfig::check_output`] is set.

use datamaestro::{ReadStreamer, StreamerStats, WriteStreamer};
use dm_accel::GemmArrayConfig;
use dm_compiler::{compile, BufferDepths, CompiledWorkload, FeatureSet};
use dm_mem::{MemConfig, MemorySubsystem};
use dm_sim::{
    BlameLeaf, BlamePhase, CausalLedger, CriticalProfile, Instrumented, MetricsRegistry,
    OperandPort, Port, StallCause, Trace, TraceEventKind, TraceMode,
};
use dm_workloads::{Workload, WorkloadData};
use std::time::Instant;

use crate::copy_engine::CopyEngine;
use crate::error::SystemError;
use crate::executor::{self, TileDigest};
use crate::provenance::Provenance;

/// Configuration of the evaluation system build.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SystemConfig {
    /// Scratchpad geometry.
    pub mem: MemConfig,
    /// Which DataMaestro features are built in.
    pub features: FeatureSet,
    /// Streamer buffer depths.
    pub depths: BufferDepths,
    /// Route results through the quantization accelerator (E stream, int8)
    /// instead of the raw D stream (int32).
    pub quantized: bool,
    /// Produce the output image with the functional executor and verify it
    /// against the golden reference after the run. The cycle loop itself
    /// moves no data, so with this off the run is timing only.
    pub check_output: bool,
    /// Scratchpad bank read latency in cycles (≥ 1). The DAE architecture's
    /// whole point is tolerating this; see the latency sweep bench.
    pub read_latency: u64,
    /// Event-trace capture for this run ([`TraceMode::Off`] by default;
    /// tracing never affects simulated behaviour, only the report).
    pub trace: TraceMode,
    /// Stamp causal flow events (request issue → bank grant → response
    /// delivery) onto the captured trace. Off by default — every memory
    /// request adds three events, which inflates traces — and a no-op
    /// unless [`SystemConfig::trace`] is enabled. Like tracing itself,
    /// never affects simulated behaviour.
    pub flow_events: bool,
    /// Measure host wall-clock time per tick phase (streamers / memory /
    /// PE array) during the compute loop. Off by default; the timings live
    /// in [`RunReport::host`], never in the metrics registry, so simulated
    /// results stay bit-identical with timing on or off.
    pub time_phases: bool,
    /// Elide provably idle spans of the compute loop in O(1) (on by
    /// default). Every simulated result — cycles, conflicts, utilization,
    /// latency percentiles, FIFO watermarks, stall attribution — is
    /// bit-identical with this on or off; only host wall-clock changes.
    /// Traced runs ([`SystemConfig::trace`] ≠ [`TraceMode::Off`]) fall back
    /// to lockstep so per-cycle trace timestamps are trivially preserved.
    pub fast_forward: bool,
}

impl Default for SystemConfig {
    /// The paper's evaluation system: 32 banks × 64 bit, 8×8×8 array, all
    /// features, quantized output, with golden checking enabled.
    fn default() -> Self {
        SystemConfig {
            mem: MemConfig::default(),
            features: FeatureSet::full(),
            depths: BufferDepths::default(),
            quantized: true,
            check_output: true,
            read_latency: 1,
            trace: TraceMode::Off,
            flow_events: false,
            time_phases: false,
            fast_forward: true,
        }
    }
}

impl SystemConfig {
    /// Same system with a different feature set (ablation helper).
    #[must_use]
    pub fn with_features(mut self, features: FeatureSet) -> Self {
        self.features = features;
        self
    }
}

/// Host wall-clock time spent per tick phase during the compute loop.
///
/// Collected only when [`SystemConfig::time_phases`] is set. These numbers
/// describe the *simulator host*, not the simulated machine: they answer
/// "where does the simulator spend its time" and feed the regression
/// harness's throughput figure. They are intentionally kept out of the
/// metrics registry so metric snapshots stay deterministic.
///
/// Invariant: `streamers_ns + memory_ns + pe_ns + fastforward_ns ≤
/// compute_loop_ns`. Fast-forward work is its own bucket — folding skipped
/// spans into `compute_loop_ns` slack (or into a simulated phase) would make
/// phase shares incomparable between elided and lockstep runs.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct HostTimings {
    /// Nanoseconds in streamer phases (`begin_cycle`, address generation
    /// and issue, grant handling) across all four streamers.
    pub streamers_ns: u64,
    /// Nanoseconds in the memory subsystem (response routing, arbitration).
    pub memory_ns: u64,
    /// Nanoseconds in the PE handshake: the fire-or-stall decision, the
    /// operand pops and result push of a fire, and the stall charge. The
    /// datapath itself runs in the functional executor, outside the loop.
    pub pe_ns: u64,
    /// Nanoseconds in the fast-forward engine: the idleness test (whether
    /// or not a skip happened) and the O(1) replay of skipped spans.
    pub fastforward_ns: u64,
    /// Nanoseconds for the whole compute loop, including bookkeeping not
    /// attributed to a phase.
    pub compute_loop_ns: u64,
    /// Simulated compute cycles the loop executed.
    pub cycles: u64,
}

impl HostTimings {
    /// Host throughput: simulated cycles per wall-clock second.
    #[must_use]
    pub fn cycles_per_sec(&self) -> f64 {
        if self.compute_loop_ns == 0 {
            return 0.0;
        }
        self.cycles as f64 / (self.compute_loop_ns as f64 / 1e9)
    }
}

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

    fn finish(self, loop_start: Option<Instant>, cycles: u64) -> Option<HostTimings> {
        let start = loop_start?;
        let mut timings = self.timings;
        timings.compute_loop_ns = start.elapsed().as_nanos() as u64;
        timings.cycles = cycles;
        Some(timings)
    }
}

/// The outcome of one workload execution.
#[derive(Debug, Clone)]
pub struct RunReport {
    /// The workload that ran.
    pub workload: Workload,
    /// Feature set of the system that ran it.
    pub features: FeatureSet,
    /// Stall-free cycle count (the utilization denominator's numerator).
    pub ideal_cycles: u64,
    /// Cycles spent in explicit pre-passes.
    pub prepass_cycles: u64,
    /// Cycles of the compute phase (including pipeline fill and drain).
    pub compute_cycles: u64,
    /// Cycles the PE array actually fired.
    pub active_cycles: u64,
    /// Granted word reads.
    pub mem_reads: u64,
    /// Granted word writes.
    pub mem_writes: u64,
    /// Bank-conflict events.
    pub conflicts: u64,
    /// Per-streamer statistics: A, B, C, OUT.
    pub streamer_stats: [StreamerStats; 4],
    /// Granted word accesses per physical bank (load-balance heatmap).
    pub per_bank_accesses: Vec<u64>,
    /// Whether the output was verified against the golden reference.
    pub checked: bool,
    /// Why the PE array did or did not fire on each compute cycle: fires,
    /// plus every stalled cycle charged to one component instance (bank,
    /// AGU, sync gate, flush) under its [`StallCause`] and fill/steady/drain
    /// phase (`fired + stalled == compute_cycles`). The per-cause
    /// ([`CausalLedger::attribution`]) and per-port
    /// ([`CausalLedger::port_stalls`]) splits and the blame tree
    /// ([`CausalLedger::to_json`]) are views of it.
    pub ledger: CausalLedger,
    /// Critical-path composition: every compute cycle charged to the
    /// resource whose dependency edge bound it, plus what-if projections.
    /// Derived once from [`Self::ledger`] at the end of the run
    /// ([`CausalLedger::critical`]); its path length equals
    /// [`Self::compute_cycles`].
    pub critical: CriticalProfile,
    /// Snapshot of every instrumented component's metrics, keyed by dotted
    /// component path (`mem.conflicts`, `streamer.A.ch0.granted`, …).
    pub metrics: MetricsRegistry,
    /// Captured event traces, one per component track, in Perfetto track
    /// order. Empty when [`SystemConfig::trace`] is [`TraceMode::Off`].
    pub traces: Vec<(String, Trace)>,
    /// Deterministic identity of this run: fingerprint of the
    /// behaviour-relevant configuration, workload and crate version.
    pub provenance: Provenance,
    /// Host wall-clock phase timings; `None` unless
    /// [`SystemConfig::time_phases`] was set.
    pub host: Option<HostTimings>,
}

impl RunReport {
    /// Total cycles: pre-passes plus compute.
    #[must_use]
    pub fn total_cycles(&self) -> u64 {
        self.prepass_cycles + self.compute_cycles
    }

    /// The paper's utilization metric: theoretical stall-free computation
    /// cycles over the active cycles of the run.
    #[must_use]
    pub fn utilization(&self) -> f64 {
        self.ideal_cycles as f64 / self.total_cycles() as f64
    }

    /// Total memory word accesses (the paper's data access count).
    #[must_use]
    pub fn accesses(&self) -> u64 {
        self.mem_reads + self.mem_writes
    }
}

/// Perfetto track names of the operand readers, in [`OperandPort`] order.
const READER_TRACKS: [&str; 3] = ["streamer-A", "streamer-B", "streamer-C"];

/// The per-port fire rule: A and B feed every fire, C only the first k-step
/// of a tile.
fn needed(port: OperandPort, first_step: bool) -> bool {
    port != OperandPort::C || first_step
}

/// The accelerator handshake: the port that blocks this cycle and the stall
/// cause it records, or `None` if the accelerator fires. It fires when
/// every operand reader it [`needed`] is valid and, on tile-completing
/// steps, the output port is ready. The lockstep iteration and the
/// fast-forward span proof both ask this one function.
fn handshake(
    readers: &[ReadStreamer],
    out: &WriteStreamer,
    first_step: bool,
    produces: bool,
    drained: bool,
) -> Option<(Port, StallCause)> {
    let blocked = OperandPort::ALL
        .into_iter()
        .zip(readers)
        .find(|(port, reader)| needed(*port, first_step) && !reader.can_pop_wide());
    let (port, cause) = match blocked {
        Some((p, reader)) if reader.lost_arbitration() => (p.port(), StallCause::BankConflict(p)),
        Some((p, _)) => (p.port(), StallCause::NoOperand(p)),
        None if produces && !out.can_push_wide() => (Port::Out, StallCause::WritebackBackpressure),
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

/// Activity digests of every component a fast-forward span must leave
/// frozen, for the debug-build [`dm_sim::SpanCheck`].
#[cfg(debug_assertions)]
fn activity_digests(
    readers: &[ReadStreamer],
    out: &WriteStreamer,
    mem: &MemorySubsystem,
) -> Vec<(&'static str, u64)> {
    READER_TRACKS
        .into_iter()
        .zip(readers.iter().map(ReadStreamer::activity_digest))
        .chain([
            ("streamer-OUT", out.activity_digest()),
            ("mem", mem.activity_digest()),
        ])
        .collect()
}

/// The fire schedule of one compute phase.
pub(crate) struct Schedule<'a> {
    /// Fires per output tile: the first reads C, the last produces the
    /// tile.
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

/// The one cycle loop of every accelerator built from DataMaestros.
///
/// `readers` are the operand readers in [`OperandPort`] order (A, B, C for
/// the GeMM array, only A for pooling); `out` drains the result tiles. The
/// accelerator fires once every reader it needs is valid — A and B on every
/// fire, C on the first k-step of a tile — and, on the tile's last k-step,
/// the writer is ready. Provably idle spans are elided in O(1) when
/// [`SystemConfig::fast_forward`] is set and the run is untraced.
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
    // Response routing table: requester index → consuming reader.
    let mut routes: Vec<Option<usize>> = vec![None; mem.num_requesters()];
    for (index, reader) in readers.iter().enumerate() {
        for id in reader.channel_requesters() {
            routes[id.index()] = Some(index);
        }
    }
    let k_steps = schedule.k_steps;
    let steps = k_steps * schedule.tiles;
    let budget = steps * 64 + 100_000;
    let mut digest = TileDigest::EMPTY;
    let mut ledger = CausalLedger::new(mem.config().num_banks());
    let mut cycles = 0u64;
    let mut fires = 0u64;

    trace.emit_with(mem.cycle(), "system", || TraceEventKind::SpanBegin {
        name: "compute".to_owned(),
    });
    let mut clock = HostPhaseClock::new(config.time_phases);
    let loop_start = config.time_phases.then(Instant::now);
    // Tracing needs every per-cycle timestamp, so traced runs stay lockstep.
    let ff_active = config.fast_forward && config.trace == TraceMode::Off;
    while !(readers.iter().all(ReadStreamer::is_done) && out.is_done()) {
        clock.start();
        // Once every compute step has fired, remaining cycles only flush the
        // write path: the input FIFOs are legitimately empty, not starved.
        let drained = fires == steps;
        let k_step = fires % k_steps;
        let (first, produces) = (k_step == 0, k_step == k_steps - 1);
        // Phase segmentation: fill until the first fire, drain once every
        // compute step has issued, steady in between. Derived from loop
        // state only, so fast-forwarded and lockstep runs agree exactly.
        let phase = if ledger.fired() == 0 {
            BlamePhase::Fill
        } else if drained {
            BlamePhase::Drain
        } else {
            BlamePhase::Steady
        };
        // A cycle is skippable iff no streamer acts, the handshake stalls,
        // and no memory response lands this cycle. In that state the whole
        // iteration reduces to occupancy sampling plus one ledger charge —
        // replayable in O(1) for the entire span up to the oldest in-flight
        // read's due cycle, capped so a wedged system fast-forwards to the
        // exact deadlock diagnostic lockstep would produce. A span of one
        // saves nothing over a lockstep iteration.
        let skip = (ff_active
            && !readers.iter().any(ReadStreamer::acts_this_cycle)
            && !out.acts_this_cycle())
        .then(|| handshake(readers, out, first, produces, drained))
        .flatten()
        .map(|(_, cause)| {
            let (cap, now) = (budget + 1 - cycles, mem.cycle());
            let span = mem
                .next_due()
                .map_or(cap, |due| due.saturating_sub(now).get());
            (cause, span.min(cap))
        })
        .filter(|&(_, span)| span >= 2);
        if ff_active {
            clock.lap(Phase::Fastforward);
        }
        if let Some((cause, span)) = skip {
            #[cfg(debug_assertions)]
            let check = dm_sim::SpanCheck::capture(activity_digests(readers, out, mem));
            for reader in readers.iter_mut() {
                reader.sample_occupancy_span(span);
            }
            out.sample_occupancy_span(span);
            // The blame walk reads only state the span check proves frozen
            // (and the due-ordered in-flight queue, untouched until after
            // the span), so the leaf is constant across the span: one charge
            // is bit-identical to per-cycle charging.
            let leaf = blame_leaf_for(cause, readers, out, mem);
            ledger.charge(phase, cause, leaf, span);
            mem.advance_idle(span);
            cycles += span;
            #[cfg(debug_assertions)]
            check.assert_unchanged(activity_digests(readers, out, mem));
            clock.lap(Phase::Fastforward);
        } else {
            for reader in readers.iter_mut() {
                reader.begin_cycle();
            }
            clock.lap(Phase::Streamers);
            mem.drain_responses(|resp| match routes[resp.requester.index()] {
                Some(index) => readers[index].accept_response(resp),
                None => unreachable!("response for a write/copy port"),
            });
            clock.lap(Phase::Memory);
            let now = mem.cycle();
            match handshake(readers, out, first, produces, drained) {
                None => {
                    ledger.fire(now.get());
                    trace.emit(now, "pe", TraceEventKind::PeFire);
                    if first {
                        digest = TileDigest::EMPTY;
                    }
                    for (port, reader) in OperandPort::ALL.into_iter().zip(readers.iter_mut()) {
                        if needed(port, first) {
                            reader.pop_wide(|addr| digest.fold(addr));
                        }
                    }
                    if produces {
                        out.push_wide(|addr| digest.fold(addr));
                        if let Some(expected) = schedule.expected {
                            executor::check_tile(expected, fires / k_steps, digest)?;
                        }
                    }
                    fires += 1;
                }
                Some((port, cause)) => {
                    match port.operand() {
                        Some(p) => readers[p.index()].note_consumer_blocked(now),
                        None => out.note_producer_blocked(now),
                    }
                    let leaf = blame_leaf_for(cause, readers, out, mem);
                    ledger.charge(phase, cause, leaf, 1);
                    trace.emit(now, "pe", TraceEventKind::PeStall { cause });
                }
            }
            clock.lap(Phase::Pe);
            for reader in readers.iter_mut() {
                reader.generate_and_issue(mem);
            }
            out.generate_and_issue(mem);
            clock.lap(Phase::Streamers);
            let grants = mem.arbitrate();
            clock.lap(Phase::Memory);
            for reader in readers.iter_mut() {
                reader.handle_grants(grants);
            }
            out.handle_grants(grants);
            clock.lap(Phase::Streamers);
            cycles += 1;
        }
        if cycles > budget {
            return Err(SystemError::Deadlock {
                phase: "compute",
                cycles,
            });
        }
    }
    trace.emit_with(mem.cycle(), "system", || TraceEventKind::SpanEnd {
        name: "compute".to_owned(),
    });
    debug_assert_eq!(fires, steps);
    assert_eq!(
        ledger.fired(),
        fires,
        "ledger fires must match active cycles"
    );
    assert_eq!(
        ledger.total(),
        cycles,
        "fires plus charged stalls must cover every compute cycle"
    );
    Ok(ComputeRun {
        cycles,
        fires,
        ledger,
        host: clock.finish(loop_start, cycles),
    })
}

/// Refuses a bank geometry under which a port's wide word is not the tile
/// the accelerator exchanges: `ports` lists `(port, streamer width, tile
/// width)`.
pub(crate) fn check_tile_widths(
    mem: &MemConfig,
    ports: impl IntoIterator<Item = (&'static str, usize, usize)>,
) -> Result<(), SystemError> {
    match ports.into_iter().find(|(_, width, tile)| width != tile) {
        None => Ok(()),
        Some((port, width, tile)) => Err(SystemError::Unsupported {
            field: "mem",
            reason: format!(
                "{}-byte banks give the {port} streamer {width}-byte words, \
                 but the array exchanges {tile}-byte tiles",
                mem.bank_width_bytes()
            ),
        }),
    }
}

/// Compiles and runs one workload on the configured system.
///
/// # Errors
///
/// Returns [`SystemError`] on compilation failure, configuration rejection,
/// simulation deadlock (a bug) or golden-output mismatch.
///
/// # Examples
///
/// ```
/// use dm_system::{run_workload, SystemConfig};
/// use dm_workloads::{GemmSpec, WorkloadData};
///
/// let data = WorkloadData::generate(GemmSpec::new(16, 16, 16).into(), 1);
/// let report = run_workload(&SystemConfig::default(), &data)?;
/// assert!(report.checked);
/// assert!(report.utilization() > 0.5);
/// # Ok::<(), dm_system::SystemError>(())
/// ```
pub fn run_workload(config: &SystemConfig, data: &WorkloadData) -> Result<RunReport, SystemError> {
    let program = compile(
        data,
        &config.features,
        &config.mem,
        config.quantized,
        config.depths,
    )?;
    run_compiled(config, data, &program)
}

/// Runs an already compiled workload.
///
/// # Errors
///
/// See [`run_workload`].
pub fn run_compiled(
    config: &SystemConfig,
    data: &WorkloadData,
    program: &CompiledWorkload,
) -> Result<RunReport, SystemError> {
    if config.read_latency == 0 {
        return Err(SystemError::Unsupported {
            field: "read_latency",
            reason: "a bank read takes at least one cycle".to_owned(),
        });
    }
    let mut mem = MemorySubsystem::new(config.mem);
    mem.set_read_latency(config.read_latency);
    let mut copier = CopyEngine::new(&mut mem, 4);
    copier.set_fast_forward(config.fast_forward);
    // The operand readers, indexed by `OperandPort`, plus the one writer.
    let [plan_a, plan_b, plan_c] = [&program.a, &program.b, &program.c]
        .map(|plan| ReadStreamer::new(&plan.design, &plan.runtime, &mut mem));
    let mut readers = [plan_a?, plan_b?, plan_c?];
    let mut out = WriteStreamer::new(&program.out.design, &program.out.runtime, &mut mem)?;
    // The compiled streamers gather `channels × bank width` bytes per wide
    // word; a bank geometry that breaks the array's tile widths is refused
    // here rather than in the datapath.
    let array = GemmArrayConfig::paper();
    let out_tile = if config.quantized {
        array.e_tile_bytes()
    } else {
        array.cd_tile_bytes()
    };
    check_tile_widths(
        &config.mem,
        [
            ("A", readers[0].output_width(), array.a_tile_bytes()),
            ("B", readers[1].output_width(), array.b_tile_bytes()),
            ("C", readers[2].output_width(), array.cd_tile_bytes()),
            ("OUT", out.input_width(), out_tile),
        ],
    )?;
    // The data half of the run, in program order. It rejects a program
    // whose read and write footprints overlap before any cycle is timed.
    let execution = if config.check_output {
        Some(executor::execute(config, program)?)
    } else {
        None
    };
    let mut sys_trace = config.trace.build();
    if config.trace != TraceMode::Off {
        mem.set_trace_mode(config.trace);
        mem.set_flow_events(config.flow_events);
        for reader in &mut readers {
            reader.set_trace_mode(config.trace);
        }
        out.set_trace_mode(config.trace);
    }

    // Explicit pre-passes. The operand images are host-preloaded, which
    // costs no simulated cycles: the paper's utilization metric covers
    // DataMaestro-active cycles only.
    let mut prepass_cycles = 0u64;
    for plan in &program.prepasses {
        sys_trace.emit_with(mem.cycle(), "system", || TraceEventKind::SpanBegin {
            name: format!("prepass:{}", plan.name),
        });
        if plan.read_mode != plan.write_mode {
            sys_trace.emit_with(mem.cycle(), "system", || TraceEventKind::RemapModeSwitch {
                from: plan.read_mode.name().to_owned(),
                to: plan.write_mode.name().to_owned(),
            });
        }
        let stats = copier.run(&mut mem, plan)?;
        prepass_cycles += stats.cycles;
        sys_trace.emit_with(mem.cycle(), "system", || TraceEventKind::SpanEnd {
            name: format!("prepass:{}", plan.name),
        });
    }

    let schedule = Schedule {
        k_steps: program.k_steps,
        tiles: program.total_output_tiles,
        expected: execution.as_ref().map(|e| e.tiles.as_slice()),
    };
    let ComputeRun {
        cycles: compute_cycles,
        fires: active_cycles,
        ledger,
        host,
    } = run_compute(
        config,
        &mut mem,
        &mut readers,
        &mut out,
        &schedule,
        &mut sys_trace,
    )?;
    let critical = ledger.critical(config.read_latency);
    assert_eq!(
        critical.path_length(),
        compute_cycles,
        "every compute cycle lies on the critical path"
    );

    // Golden verification of the executor's output image: the whole
    // region, or each per-channel slice under private-bank placement.
    let checked = execution.is_some();
    if let Some(execution) = &execution {
        if program.output_slices.is_empty() {
            let expected = program.expected_output_image(data);
            executor::check_output(&execution.pad, &program.output_region, &expected)?;
        } else {
            let expected_slices = program.expected_output_slice_images(data);
            for (region, expected) in program.output_slices.iter().zip(&expected_slices) {
                executor::check_output(&execution.pad, region, expected)?;
            }
        }
    }

    let total_cycles = prepass_cycles + compute_cycles;
    let collect = |registry: &mut MetricsRegistry| {
        registry.with_scope("system", |r| {
            r.set_counter("ideal_cycles", program.total_steps());
            r.set_counter("prepass_cycles", prepass_cycles);
            r.set_counter("compute_cycles", compute_cycles);
            r.set_counter("active_cycles", active_cycles);
            r.set_counter("tiles", active_cycles / program.k_steps);
            if total_cycles > 0 {
                r.set_gauge(
                    "utilization",
                    program.total_steps() as f64 / total_cycles as f64,
                );
            }
            r.with_scope("stall", |r| {
                let attribution = ledger.attribution();
                r.set_counter("fired", attribution.fired());
                for cause in StallCause::ALL {
                    r.set_counter(cause.label(), attribution.count(cause));
                }
            });
        });
        registry.with_scope("mem", |r| mem.register_metrics(r));
        registry.with_scope("streamer", |r| {
            for port in OperandPort::ALL {
                r.with_scope(port.label(), |r| readers[port.index()].register_metrics(r));
            }
            r.with_scope("OUT", |r| out.register_metrics(r));
        });
    };
    let mut metrics = MetricsRegistry::new();
    collect(&mut metrics);
    #[cfg(debug_assertions)]
    {
        // Collecting a snapshot must be a pure read: a second pass over the
        // same quiesced system yields an identical registry.
        let mut second = MetricsRegistry::new();
        collect(&mut second);
        assert_eq!(
            metrics, second,
            "metric snapshots must be deterministic and side-effect free"
        );
    }

    let traces = if config.trace == TraceMode::Off {
        Vec::new()
    } else {
        let mut traces = vec![
            ("system".to_owned(), sys_trace),
            ("mem".to_owned(), mem.take_trace()),
        ];
        for (name, reader) in READER_TRACKS.into_iter().zip(&mut readers) {
            traces.push((name.to_owned(), reader.take_trace()));
        }
        traces.push(("streamer-OUT".to_owned(), out.take_trace()));
        traces
    };

    let stats = mem.stats();
    debug_assert_eq!(
        stats.submissions.get(),
        stats.reads.get() + stats.writes.get(),
        "every unique submission must retire exactly once by drain"
    );
    let [stats_a, stats_b, stats_c] = readers.each_ref().map(|r| *r.stats());
    Ok(RunReport {
        workload: program.workload,
        features: program.features,
        ideal_cycles: program.total_steps(),
        prepass_cycles,
        compute_cycles,
        active_cycles,
        ledger,
        critical,
        mem_reads: stats.reads.get(),
        mem_writes: stats.writes.get(),
        conflicts: stats.conflicts.get(),
        streamer_stats: [stats_a, stats_b, stats_c, *out.stats()],
        per_bank_accesses: mem.per_bank_accesses().to_vec(),
        metrics,
        traces,
        provenance: Provenance::stamp(config, program.workload),
        host,
        checked,
    })
}
