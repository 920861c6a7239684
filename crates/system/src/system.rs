//! The full evaluation system (Fig. 6): five DataMaestros, the GeMM and
//! quantization accelerators, and the banked scratchpad, ticked cycle by
//! cycle — or, for max pooling, the same streamers as one operand reader
//! and one writer around a max unit.
//!
//! The cycle loop is a timing model: streamers, crossbar and copy engine
//! move header tokens, and a PE fire only pops and pushes word addresses.
//! The data comes from the functional executor, which runs when
//! [`SystemConfig::check_output`] is set.

use datamaestro::{ReadStreamer, StreamerStats, WriteStreamer};
use dm_compiler::{compile, BufferDepths, CompiledWorkload, FeatureSet};
use dm_mem::{MemConfig, MemorySubsystem};
use dm_sim::{
    CausalLedger, CriticalProfile, Instrumented, MetricsRegistry, OperandPort, Port,
    StallAttribution, StallCause, Trace, TraceEventKind, TraceMode,
};
use dm_workloads::{Workload, WorkloadData};
use std::fmt;
use std::ops::Deref;
use std::sync::{Arc, Mutex, OnceLock, PoisonError};

use crate::compute::{run_compute, ComputeRun, Schedule, READER_TRACKS};
use crate::copy_engine::CopyEngine;
use crate::error::SystemError;
use crate::executor;
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
    /// Replay spans of the compute loop instead of stepping them cycle by
    /// cycle (on by default): idle spans, in which nothing acts until the
    /// next memory response, and steady-state periods, in which the loop
    /// state relative to the clock recurs at a tile boundary and the AGUs
    /// keep feeding the same banks (DESIGN §8). Every simulated result —
    /// cycles, conflicts, utilization, latency percentiles, FIFO
    /// watermarks, stall attribution, the stream check of every tile — is
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
    /// and issue, grant handling) across every streamer of the run.
    pub streamers_ns: u64,
    /// Nanoseconds in the memory subsystem (response routing, arbitration).
    pub memory_ns: u64,
    /// Nanoseconds in the PE handshake: the fire-or-stall decision, the
    /// operand pops and result push of a fire, and the stall charge. The
    /// datapath itself runs in the functional executor, outside the loop.
    pub pe_ns: u64,
    /// Nanoseconds in the fast-forward engine: the idleness test after a
    /// stalled cycle, the period detector at tile boundaries (whether or
    /// not a span followed) and the replay of idle and period spans.
    pub fastforward_ns: u64,
    /// Nanoseconds for the whole compute loop, including bookkeeping not
    /// attributed to a phase.
    pub compute_loop_ns: u64,
    /// Simulated compute cycles the loop executed.
    pub cycles: u64,
    /// Of [`Self::cycles`], those replayed in idle or period spans rather
    /// than stepped one by one.
    pub replayed_cycles: u64,
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
    /// Per-streamer statistics in port order: the operand readers (A, B,
    /// C, or A alone for pooling), then OUT.
    pub streamer_stats: Vec<StreamerStats>,
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
    /// component path (`mem.conflicts`, `streamer.A.ch0.granted`, …). It
    /// derefs to a [`MetricsRegistry`] that is built on first read from the
    /// run's quiesced components, so a run whose metrics nobody reads never
    /// pays for them; every read, on the report or on a clone, sees the
    /// same registry.
    pub metrics: RunMetrics,
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

/// The metrics of a finished run: the quiesced memory system, operand
/// readers and writer, from which the [`MetricsRegistry`] is built on first
/// read. The build frees the components; clones share the one build.
#[derive(Clone)]
pub struct RunMetrics(Arc<LazyRegistry>);

struct LazyRegistry {
    registry: OnceLock<MetricsRegistry>,
    /// What the registry is built from, until it is built.
    source: Mutex<Option<Quiesced>>,
}

/// A run's components after their last cycle, and the loop totals the
/// `system` scope reports.
struct Quiesced {
    mem: MemorySubsystem,
    readers: Vec<ReadStreamer>,
    out: WriteStreamer,
    ideal_cycles: u64,
    prepass_cycles: u64,
    compute_cycles: u64,
    active_cycles: u64,
    k_steps: u64,
    attribution: StallAttribution,
}

impl Quiesced {
    fn collect(&self, registry: &mut MetricsRegistry) {
        let total_cycles = self.prepass_cycles + self.compute_cycles;
        registry.with_scope("system", |r| {
            r.set_counter("ideal_cycles", self.ideal_cycles);
            r.set_counter("prepass_cycles", self.prepass_cycles);
            r.set_counter("compute_cycles", self.compute_cycles);
            r.set_counter("active_cycles", self.active_cycles);
            r.set_counter("tiles", self.active_cycles / self.k_steps);
            if total_cycles > 0 {
                r.set_gauge(
                    "utilization",
                    self.ideal_cycles as f64 / total_cycles as f64,
                );
            }
            r.with_scope("stall", |r| {
                r.set_counter("fired", self.attribution.fired());
                for cause in StallCause::ALL {
                    r.set_counter(cause.label(), self.attribution.count(cause));
                }
            });
        });
        registry.with_scope("mem", |r| self.mem.register_metrics(r));
        registry.with_scope("streamer", |r| {
            for (port, reader) in OperandPort::ALL.into_iter().zip(&self.readers) {
                r.with_scope(port.label(), |r| reader.register_metrics(r));
            }
            r.with_scope(Port::Out.label(), |r| self.out.register_metrics(r));
        });
    }

    fn into_registry(self) -> MetricsRegistry {
        let mut metrics = MetricsRegistry::new();
        self.collect(&mut metrics);
        #[cfg(debug_assertions)]
        {
            // Collecting a snapshot must be a pure read: a second pass over
            // the same quiesced system yields an identical registry.
            let mut second = MetricsRegistry::new();
            self.collect(&mut second);
            assert_eq!(
                metrics, second,
                "metric snapshots must be deterministic and side-effect free"
            );
        }
        metrics
    }
}

impl Deref for RunMetrics {
    type Target = MetricsRegistry;

    fn deref(&self) -> &MetricsRegistry {
        let lazy = &*self.0;
        lazy.registry.get_or_init(|| {
            // Taking the source cannot panic, so a poisoned lock still
            // holds a valid `Option`.
            let source = lazy
                .source
                .lock()
                .unwrap_or_else(PoisonError::into_inner)
                .take();
            source
                .expect("a metrics registry whose build panicked is not built again")
                .into_registry()
        })
    }
}

impl PartialEq for RunMetrics {
    fn eq(&self, other: &Self) -> bool {
        **self == **other
    }
}

impl fmt::Debug for RunMetrics {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(&**self, f)
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
    let mut readers = program
        .readers
        .iter()
        .map(|plan| ReadStreamer::new(&plan.design, &plan.runtime, &mut mem))
        .collect::<Result<Vec<_>, _>>()?;
    let mut out = WriteStreamer::new(&program.out.design, &program.out.runtime, &mut mem)?;
    // The compiled streamers gather `channels × bank width` bytes per wide
    // word; a bank geometry that breaks the accelerator's tile widths is
    // refused here rather than in the datapath.
    let widths = readers.iter().map(ReadStreamer::output_width);
    for ((port, _), width) in program.ports().zip(widths.chain([out.input_width()])) {
        let tile = program.tile_bytes(port);
        if width != tile {
            return Err(SystemError::Unsupported {
                field: "mem",
                reason: format!(
                    "{}-byte banks give the {} streamer {width}-byte words, \
                     but the array exchanges {tile}-byte tiles",
                    config.mem.bank_width_bytes(),
                    port.label(),
                ),
            });
        }
    }
    // The data half of the run, in program order. It rejects a program
    // whose read and write footprints overlap before any cycle is timed.
    let execution = if config.check_output {
        Some(executor::execute(&config.mem, program, data)?)
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
    Ok(RunReport {
        workload: program.workload,
        features: program.features,
        ideal_cycles: program.total_steps(),
        prepass_cycles,
        compute_cycles,
        active_cycles,
        critical,
        mem_reads: stats.reads.get(),
        mem_writes: stats.writes.get(),
        conflicts: stats.conflicts.get(),
        streamer_stats: readers
            .iter()
            .map(|r| *r.stats())
            .chain([*out.stats()])
            .collect(),
        per_bank_accesses: mem.per_bank_accesses().to_vec(),
        metrics: RunMetrics(Arc::new(LazyRegistry {
            registry: OnceLock::new(),
            source: Mutex::new(Some(Quiesced {
                attribution: ledger.attribution(),
                mem,
                readers,
                out,
                ideal_cycles: program.total_steps(),
                prepass_cycles,
                compute_cycles,
                active_cycles,
                k_steps: program.k_steps,
            })),
        })),
        ledger,
        traces,
        provenance: Provenance::stamp(config, program.workload),
        host,
        checked,
    })
}
