//! The full evaluation system (Fig. 6): five DataMaestros, the GeMM and
//! quantization accelerators, and the banked scratchpad, ticked cycle by
//! cycle.

use datamaestro::{ReadStreamer, StreamerStats, WriteStreamer};
use dm_accel::{GemmArrayConfig, GemmDatapath, Quantizer};
use dm_compiler::{compile, BufferDepths, CompiledWorkload, FeatureSet};
use dm_mem::{Addr, AddressRemapper, MemConfig, MemorySubsystem};
use dm_sim::{
    BlameLeaf, BlamePhase, CausalLedger, CriticalProfile, FastForward, Instrumented,
    MetricsRegistry, NextActivity, OperandPort, Port, StallCause, Trace, TraceEventKind, TraceMode,
};
use dm_workloads::{Workload, WorkloadData};
use std::time::Instant;

use crate::copy_engine::CopyEngine;
use crate::error::SystemError;
use crate::provenance::Provenance;

/// Configuration of the evaluation system build.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SystemConfig {
    /// Scratchpad geometry.
    pub mem: MemConfig,
    /// GeMM array unrolling (the compiler targets 8×8×8).
    pub array: GemmArrayConfig,
    /// Which DataMaestro features are built in.
    pub features: FeatureSet,
    /// Streamer buffer depths.
    pub depths: BufferDepths,
    /// Route results through the quantization accelerator (E stream, int8)
    /// instead of the raw D stream (int32).
    pub quantized: bool,
    /// Verify the output region against the golden reference after the run.
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
    /// Record the absolute cycle of every PE fire into
    /// [`RunReport::fire_cycles`] (off by default). This is the digest-
    /// period probe of the static performance prover: the fire-gap sequence
    /// is what the prover's steady-state period proof predicts. Fires only
    /// happen in lockstep iterations (fast-forward spans are stall-only),
    /// so the recording is exact with elision on or off, and — like
    /// tracing — it never affects simulated behaviour or the provenance
    /// fingerprint.
    pub record_fire_cycles: bool,
}

impl Default for SystemConfig {
    /// The paper's evaluation system: 32 banks × 64 bit, 8×8×8 array, all
    /// features, quantized output, with golden checking enabled.
    fn default() -> Self {
        SystemConfig {
            mem: MemConfig::default(),
            array: GemmArrayConfig::paper(),
            features: FeatureSet::full(),
            depths: BufferDepths::default(),
            quantized: true,
            check_output: true,
            read_latency: 1,
            trace: TraceMode::Off,
            flow_events: false,
            time_phases: false,
            fast_forward: true,
            record_fire_cycles: false,
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
    /// Nanoseconds in the PE array (handshake decision, datapath step,
    /// quantization).
    pub pe_ns: u64,
    /// Nanoseconds in the fast-forward engine: horizon evaluation (whether
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
    /// Absolute cycle of every PE fire, in order. Empty unless
    /// [`SystemConfig::record_fire_cycles`] was set. The consecutive-gap
    /// sequence of this digest is what the static prover's steady-state
    /// period proof describes.
    pub fire_cycles: Vec<u64>,
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

/// The PE handshake: the port that blocks this cycle and the stall cause it
/// records, or `None` if the array fires. The array fires when every
/// operand port it needs is valid and, on tile-completing steps, the output
/// port is ready. The lockstep iteration and the fast-forward span proof
/// both ask this one function.
fn handshake(
    readers: &[ReadStreamer; 3],
    out: &WriteStreamer,
    needs_c: bool,
    produces: bool,
    drained: bool,
) -> Option<(Port, StallCause)> {
    let blocked = OperandPort::ALL
        .into_iter()
        .filter(|&port| port != OperandPort::C || needs_c)
        .find(|&port| !readers[port.index()].can_pop_wide());
    let (port, cause) = match blocked {
        Some(p) if readers[p.index()].lost_arbitration() => (p.port(), StallCause::BankConflict(p)),
        Some(p) => (p.port(), StallCause::NoOperand(p)),
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
    readers: &[ReadStreamer; 3],
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
    readers: &[ReadStreamer; 3],
    out: &WriteStreamer,
    mem: &MemorySubsystem,
    datapath: &GemmDatapath,
    quant: &Quantizer,
) -> Vec<(&'static str, u64)> {
    READER_TRACKS
        .into_iter()
        .zip(readers.iter().map(NextActivity::activity_digest))
        .chain([
            ("streamer-OUT", out.activity_digest()),
            ("mem", mem.activity_digest()),
            ("datapath", datapath.activity_digest()),
            ("quantizer", quant.activity_digest()),
        ])
        .collect()
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
    let array = config.array;
    if (array.m_unroll, array.n_unroll, array.k_unroll) != (8, 8, 8) {
        return Err(SystemError::Unsupported {
            field: "array",
            reason: format!(
                "the compiler targets the paper's 8x8x8 array, not {}x{}x{}",
                array.m_unroll, array.n_unroll, array.k_unroll
            ),
        });
    }
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
    let out_tile = if config.quantized {
        array.e_tile_bytes()
    } else {
        array.cd_tile_bytes()
    };
    let widths = [
        ("A", readers[0].output_width(), array.a_tile_bytes()),
        ("B", readers[1].output_width(), array.b_tile_bytes()),
        ("C", readers[2].output_width(), array.cd_tile_bytes()),
        ("OUT", out.input_width(), out_tile),
    ];
    if let Some((port, width, tile)) = widths.into_iter().find(|(_, w, t)| w != t) {
        return Err(SystemError::Unsupported {
            field: "mem",
            reason: format!(
                "{}-byte banks give the {port} streamer {width}-byte words, \
                 but the array exchanges {tile}-byte tiles",
                config.mem.bank_width_bytes()
            ),
        });
    }
    let mut sys_trace = config.trace.build();
    if config.trace != TraceMode::Off {
        mem.set_trace_mode(config.trace);
        mem.set_flow_events(config.flow_events);
        for reader in &mut readers {
            reader.set_trace_mode(config.trace);
        }
        out.set_trace_mode(config.trace);
    }

    // Response routing table: requester index → consuming reader.
    let mut routes: Vec<Option<OperandPort>> = vec![None; mem.num_requesters()];
    for port in OperandPort::ALL {
        for id in readers[port.index()].channel_requesters() {
            routes[id.index()] = Some(port);
        }
    }

    // Host preload (not simulated; the paper's utilization metric covers
    // DataMaestro-active cycles only).
    for image in &program.images {
        let remap = AddressRemapper::new(&config.mem, image.region.mode)?;
        mem.scratchpad_mut()
            .host_write(&remap, Addr::new(image.region.base), &image.bytes)?;
    }

    // Explicit pre-passes.
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

    // Compute phase.
    let mut datapath = GemmDatapath::new(config.array, program.k_steps);
    let mut quant = Quantizer::uniform(
        config.array.m_unroll,
        config.array.n_unroll,
        program.rescale,
    );
    let mut ledger = CausalLedger::new(config.mem.num_banks());
    let mut compute_cycles = 0u64;
    let mut active_cycles = 0u64;
    let mut fire_cycles = Vec::new();
    let mut tiles_done = 0u64;
    let budget = program.total_steps() * 64 + 100_000;

    sys_trace.emit_with(mem.cycle(), "system", || TraceEventKind::SpanBegin {
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
        let drained = active_cycles == program.total_steps();
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
        if ff_active {
            let now = mem.cycle();
            // A cycle is skippable iff no streamer can act on its own, the
            // PE handshake would stall, and no memory response lands this
            // cycle. In that state the whole iteration reduces to occupancy
            // sampling plus one ledger charge — replayable in O(1) for the
            // entire span up to the next response's due cycle.
            let all_idle = readers.iter().all(|r| r.next_activity(now).is_none())
                && out.next_activity(now).is_none();
            if all_idle {
                if let Some((_, cause)) = handshake(
                    &readers,
                    &out,
                    datapath.needs_c(),
                    datapath.produces_d(),
                    drained,
                ) {
                    // Cap so a wedged system fast-forwards to the exact
                    // deadlock diagnostic lockstep would produce.
                    let cap = budget + 1 - compute_cycles;
                    let span = FastForward::span(now, [mem.next_activity(now)], cap);
                    // A span of one saves nothing over a lockstep iteration.
                    if span >= 2 {
                        #[cfg(debug_assertions)]
                        let check = dm_sim::SpanCheck::capture(activity_digests(
                            &readers, &out, &mem, &datapath, &quant,
                        ));
                        for reader in &mut readers {
                            reader.sample_occupancy_span(span);
                        }
                        out.sample_occupancy_span(span);
                        // The blame walk reads only state the span check
                        // proves frozen (and the due-ordered in-flight
                        // queue, untouched until after the span), so the
                        // leaf is constant across the span: one charge is
                        // bit-identical to per-cycle charging.
                        let leaf = blame_leaf_for(cause, &readers, &out, &mem);
                        ledger.charge(phase, cause, leaf, span);
                        mem.advance_idle(span);
                        compute_cycles += span;
                        #[cfg(debug_assertions)]
                        check.assert_unchanged(activity_digests(
                            &readers, &out, &mem, &datapath, &quant,
                        ));
                        clock.lap(Phase::Fastforward);
                        if compute_cycles > budget {
                            return Err(SystemError::Deadlock {
                                phase: "compute",
                                cycles: compute_cycles,
                            });
                        }
                        continue;
                    }
                }
            }
            // Horizon evaluation cost on the non-skip path is fast-forward
            // overhead, not streamer/memory/PE work.
            clock.lap(Phase::Fastforward);
        }
        for reader in &mut readers {
            reader.begin_cycle();
        }
        clock.lap(Phase::Streamers);
        mem.drain_responses(|resp| match routes[resp.requester.index()] {
            Some(port) => readers[port.index()].accept_response(resp),
            None => unreachable!("response for a write/copy port"),
        });
        clock.lap(Phase::Memory);
        let needs_c = datapath.needs_c();
        let now = mem.cycle();
        match handshake(&readers, &out, needs_c, datapath.produces_d(), drained) {
            None => {
                ledger.fire(now.get());
                if config.record_fire_cycles {
                    fire_cycles.push(now.get());
                }
                sys_trace.emit(now, "pe", TraceEventKind::PeFire);
                let [op_a, op_b, op_c] = &mut readers;
                let (a_word, b_word) = (op_a.pop_wide(), op_b.pop_wide());
                let c_word = needs_c.then(|| op_c.pop_wide());
                if let Some(d_tile) = datapath.step(a_word, b_word, c_word) {
                    let out_word = if config.quantized {
                        quant.process(d_tile)
                    } else {
                        d_tile
                    };
                    out.push_wide(out_word);
                    tiles_done += 1;
                }
                active_cycles += 1;
            }
            Some((port, cause)) => {
                match port.operand() {
                    Some(p) => readers[p.index()].note_consumer_blocked(now),
                    None => out.note_producer_blocked(now),
                }
                let leaf = blame_leaf_for(cause, &readers, &out, &mem);
                ledger.charge(phase, cause, leaf, 1);
                sys_trace.emit(now, "pe", TraceEventKind::PeStall { cause });
            }
        }
        clock.lap(Phase::Pe);
        for reader in &mut readers {
            reader.generate_and_issue(&mut mem);
        }
        out.generate_and_issue(&mut mem);
        clock.lap(Phase::Streamers);
        let grants = mem.arbitrate();
        clock.lap(Phase::Memory);
        for reader in &mut readers {
            reader.handle_grants(grants);
        }
        out.handle_grants(grants);
        clock.lap(Phase::Streamers);
        compute_cycles += 1;
        if compute_cycles > budget {
            return Err(SystemError::Deadlock {
                phase: "compute",
                cycles: compute_cycles,
            });
        }
    }
    sys_trace.emit_with(mem.cycle(), "system", || TraceEventKind::SpanEnd {
        name: "compute".to_owned(),
    });
    let host = clock.finish(loop_start, compute_cycles);
    debug_assert_eq!(tiles_done, program.total_output_tiles);
    debug_assert_eq!(active_cycles, program.total_steps());
    assert_eq!(
        ledger.fired(),
        active_cycles,
        "ledger fires must match active cycles"
    );
    assert_eq!(
        ledger.total(),
        compute_cycles,
        "fires plus charged stalls must cover every compute cycle"
    );
    let critical = ledger.critical(config.read_latency);
    assert_eq!(
        critical.path_length(),
        compute_cycles,
        "every compute cycle lies on the critical path"
    );

    // Golden verification.
    let mut checked = false;
    if config.check_output {
        if program.output_slices.is_empty() {
            let remap = AddressRemapper::new(&config.mem, program.output_region.mode)?;
            let got = mem.scratchpad().host_read(
                &remap,
                Addr::new(program.output_region.base),
                program.output_region.len as usize,
            )?;
            let expected = program.expected_output_image(data);
            if let Some(first_diff) = got.iter().zip(&expected).position(|(g, e)| g != e) {
                return Err(SystemError::OutputMismatch {
                    first_diff,
                    expected: expected[first_diff],
                    got: got[first_diff],
                });
            }
        } else {
            // Private-bank placement: verify each per-channel slice.
            let expected_slices = program.expected_output_slice_images(data);
            for (region, expected) in program.output_slices.iter().zip(&expected_slices) {
                let remap = AddressRemapper::new(&config.mem, region.mode)?;
                let got = mem.scratchpad().host_read(
                    &remap,
                    Addr::new(region.base),
                    region.len as usize,
                )?;
                if let Some(first_diff) = got.iter().zip(expected).position(|(g, e)| g != e) {
                    return Err(SystemError::OutputMismatch {
                        first_diff,
                        expected: expected[first_diff],
                        got: got[first_diff],
                    });
                }
            }
        }
        checked = true;
    }

    let total_cycles = prepass_cycles + compute_cycles;
    let collect = |registry: &mut MetricsRegistry| {
        registry.with_scope("system", |r| {
            r.set_counter("ideal_cycles", program.total_steps());
            r.set_counter("prepass_cycles", prepass_cycles);
            r.set_counter("compute_cycles", compute_cycles);
            r.set_counter("active_cycles", active_cycles);
            r.set_counter("tiles", tiles_done);
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
        fire_cycles,
        provenance: Provenance::stamp(config, program.workload),
        host,
        checked,
    })
}
