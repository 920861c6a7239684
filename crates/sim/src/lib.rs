//! Simulation substrate for the DataMaestro reproduction.
//!
//! This crate provides the low-level, hardware-flavoured building blocks that
//! the rest of the workspace composes into a cycle-level simulator of the
//! DataMaestro evaluation system (DAC 2025):
//!
//! * [`Cycle`] — a strongly typed clock-cycle count;
//! * [`RoundRobinArbiter`] — fair single-grant arbitration, used per memory
//!   bank by the interleaved crossbar;
//! * [`stats`] — simple saturating counters and distribution summaries
//!   (min / quartiles / max / mean) used to reproduce the paper's box plots;
//! * [`histogram`] — log-bucketed, mergeable latency/occupancy histograms
//!   (p50/p90/p99/max with bounded relative error) for request lifetimes;
//! * [`hash`] — a stable FNV-1a hasher for provenance fingerprints;
//! * [`rng`] — a SplitMix64 generator for seeded tests and workload data;
//! * [`trace`] — an optional, cheap typed event trace for pipelines;
//! * [`stall`] — the per-cycle stall-cause taxonomy and attribution used to
//!   explain the paper's ablation deltas;
//! * [`blame`] — the blame-chain taxonomy nested under it: run phases and
//!   the component-instance leaves a stalled cycle is charged to;
//! * [`ledger`] — the [`CausalLedger`], the one per-cycle record of fires
//!   and `(phase, cause, leaf)` stalls, and the views derived from it
//!   (per-cause [`StallAttribution`], per-port split, blame tree, critical
//!   path);
//! * [`critical`] — critical-path extraction over the token-level causal
//!   DAG, folded into a per-resource on-path composition with validated
//!   what-if projections;
//! * [`forward`] — the debug-build [`SpanCheck`] that proves every
//!   fast-forwarded span left each component's activity digest unchanged;
//! * [`metrics`] — the hierarchical, path-keyed metrics registry every
//!   instrumented component snapshots into;
//! * [`json`] / [`perfetto`] — dependency-free JSON plumbing and the
//!   Chrome/Perfetto `trace_event` exporter for captured traces.
//!
//! Everything here is deterministic: no wall-clock time, no randomness.
//!
//! # Examples
//!
//! ```
//! use dm_sim::{Counter, Cycle};
//!
//! let mut granted = Counter::new();
//! granted.inc();
//! assert_eq!(granted.get(), 1);
//! assert_eq!(Cycle::ZERO + 3, Cycle::new(3));
//! ```

// The cycle kernel lives here: performance lints are errors, not hints.

pub mod arbiter;
pub mod blame;
pub mod critical;
pub mod cycle;
pub mod forward;
pub mod hash;
pub mod histogram;
pub mod json;
pub mod ledger;
pub mod metrics;
pub mod perfetto;
pub mod period;
pub mod rng;
pub mod stall;
pub mod stats;
pub mod trace;

pub use arbiter::RoundRobinArbiter;
pub use blame::{BlameLeaf, BlamePhase};
pub use critical::{CritClass, CriticalProfile, WhatIf};
pub use cycle::Cycle;
pub use forward::{Periodic, SpanCheck};
pub use hash::StableHasher;
pub use histogram::LatencyHistogram;
pub use json::{JsonError, JsonValue};
pub use ledger::CausalLedger;
pub use metrics::{Instrumented, MetricValue, MetricsRegistry};
pub use period::{is_periodic_with, minimal_period, Borders};
pub use rng::SplitMix64;
pub use stall::{OperandPort, Port, StallAttribution, StallCause};
pub use stats::{Counter, Distribution, Summary};
pub use trace::{Trace, TraceEvent, TraceEventKind, TraceMode};
