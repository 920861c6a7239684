//! # dm-analyze — static configuration analysis for DataMaestro systems
//!
//! Proves properties of a streamer/memory configuration *before* any
//! simulation runs:
//!
//! * **bank-conflict freedom** ([`conflict`]) — from the GIMA bit
//!   permutation alone: channel pairs whose word delta is not a multiple
//!   of the group size, or spans at least a whole bank group, can never
//!   collide. The full-feature compiler placements satisfy this for every
//!   operand, which is the paper's Fig. 7a ⑤→⑥ conflict elimination as a
//!   checkable theorem instead of an empirical observation;
//! * **footprint safety** ([`pattern`]) — exact min/max address intervals
//!   per stream via interval arithmetic over the affine nest (checked,
//!   overflow-aware), giving out-of-bounds and read/write-overlap hazards;
//! * **deadlock freedom** ([`graph`]) — zero-capacity FIFOs, finite credit
//!   cycles, and token supply/demand imbalances in the channel graph;
//! * **mode advice** ([`advisor`]) — ranks the legal addressing modes of
//!   the geometry by predicted utilization (hottest-bank load over the
//!   walked nest), restricted to modes that are placement-compatible with
//!   the concurrently active streams;
//! * **performance proofs** ([`period`], [`roofline`]) — proves each
//!   port's request stream periodic with its exact period and per-bank
//!   per-period request counts, then derives a sound FIFO-depth- and
//!   conflict-adjusted roofline whose min over ports is a proven upper
//!   bound on PE utilization, classified in the critical-path taxonomy
//!   (`dm predict`, validated by the differential soundness suite).
//!
//! The [`system`] module ties these together for a [`dm_compiler`]
//! program; `dm lint` exposes them on the command line with
//! JSON output and a `--deny-warnings` CI gate.
//!
//! ## Soundness
//!
//! The conflict-freedom verdict is *sound*: when the analyzer reports
//! [`BurstVerdict::ConflictFree`] for all streams, pairwise-disjoint bank
//! sets, and no pre-passes, the simulator observes exactly zero conflicts
//! (streams stay in lock-step: by induction, no request ever loses an
//! arbitration round, so bursts never smear across cycles). Conversely
//! "conflicting" is conservative — candidates that survive the capped nest
//! walk may still be innocent, so the analyzer separately reports
//! `guaranteed_min`/`worst_case_max` bounds on the event count.

pub mod advisor;
pub mod conflict;
pub mod diagnostic;
pub mod fixtures;
pub mod graph;
pub mod pattern;
pub mod period;
pub mod roofline;
pub mod system;

pub use advisor::{legal_modes, rank_modes, score_mode, ModeScore};
pub use conflict::{intra_burst, BurstVerdict, CandidatePair};
pub use diagnostic::{Diagnostic, LintCode, Report, Severity};
pub use graph::{system_graph, ChannelGraph};
pub use pattern::{summarize, BankSet, StreamSummary};
pub use period::{prove_port, prove_program, PortPeriodProof, ProgramPeriodProof};
pub use roofline::{perf_diagnostics, predict, prepass_lower_bound, LatencyTerm, Prediction};
pub use system::{analyze_program, analyze_streams, Analysis, StreamAnalysis, StreamInput};
