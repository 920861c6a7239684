//! Sound utilization rooflines from the period proofs.
//!
//! From a lowered program and memory geometry — no simulation — this
//! module derives a proven *upper bound* on the PE utilization the
//! simulator can observe, together with the predicted dominant bottleneck
//! expressed in the critical-path taxonomy ([`dm_sim::CritClass`]) so the
//! static prediction is directly diffable against the dynamic blame and
//! critical-path profilers.
//!
//! ## Soundness argument
//!
//! Observed utilization is `ideal / (prepass + compute)` with
//! `ideal = total_steps`. Every term below *under-approximates* the
//! corresponding real cycle count, so
//! `bound = ideal / (prepass_lb + compute_lb) ≥ observed` always:
//!
//! * **pe-issue**: the datapath fires at most once per cycle, so
//!   `compute ≥ total_steps`.
//! * **bank-conflict**: a bank grants at most one request per cycle, so
//!   `compute ≥ max_b Σ_ports requests_to_bank_b` (counts from the period
//!   proofs; a capped walk under-counts, which only weakens the term).
//! * **memory-latency / agu-throughput** (per read port): with
//!   fine-grained prefetch a port holds at most `D` bursts in flight or
//!   buffered (`D` = data-FIFO depth), so burst `i` cannot deliver before
//!   burst `i−D` popped plus the read latency:
//!   `compute ≥ ⌊(steps−1)/D⌋·L`. Without fine-grained prefetch the
//!   coarse sync gate reopens only on the cycle after the previous burst
//!   popped, so consecutive pops are at least `L+1` apart:
//!   `compute ≥ (steps−1)·(L+1)`. The coupled term is classified
//!   `memory-latency` when `L > 1` (the stalled cycles have a request in
//!   flight) and `agu-throughput` at `L == 1` (the single lost cycle per
//!   step is the gate's round trip, observed as a gate/AGU leaf).
//! * **prepass**: the copy engine has 4 read and 4 write ports and one
//!   grant per bank per cycle, so each plan costs at least
//!   `max(⌈R/4⌉, ⌈W/4⌉, max_b reads_b, max_b writes_b)` cycles.
//!
//! The predicted bottleneck is the class of the largest compute term,
//! with ties resolved toward `pe-issue`, then `bank-conflict` — matching
//! how the dynamic profilers fold overlapping causes.

use dm_compiler::{CompiledWorkload, CopyPlan};
use dm_mem::MemConfig;
use dm_sim::CritClass;

use crate::diagnostic::{Diagnostic, LintCode};
use crate::period::{prove_program, ProgramPeriodProof};
use crate::walk::Space;

/// Proven-utilization threshold below which `DM-PERF-BOUND` is emitted.
const NEAR_PEAK: f64 = 0.99;

/// One per-port latency-chain term of the roofline.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LatencyTerm {
    /// Port name (from the design).
    pub port: String,
    /// Cycle lower bound contributed by the port's latency chain.
    pub cycles: u64,
    /// Taxonomy class this term predicts when dominant.
    pub class: CritClass,
}

/// A proven performance prediction for one lowered program.
#[derive(Debug, Clone, PartialEq)]
pub struct Prediction {
    /// Ideal (stall-free) compute cycles: `total_steps`.
    pub ideal: u64,
    /// Lower bound on the pre-pass cycles.
    pub prepass_lb: u64,
    /// Lower bound on the compute-phase cycles (max over roofline terms).
    pub compute_lb: u64,
    /// Hottest-bank request count (the bank-conflict term).
    pub bank_term: u64,
    /// Per-read-port latency-chain terms.
    pub latency_terms: Vec<LatencyTerm>,
    /// Proven upper bound on observed PE utilization.
    pub bound: f64,
    /// Predicted dominant bottleneck (compute-phase taxonomy).
    pub bottleneck: CritClass,
    /// The underlying periodicity proof.
    pub period: ProgramPeriodProof,
}

/// Derives the sound utilization roofline for a lowered program at the
/// given read latency.
///
/// # Errors
///
/// Propagates the period prover's `DM-CONFIG` diagnostics (illegal
/// addressing mode, overflowing nest).
pub fn predict(
    program: &CompiledWorkload,
    mem: &MemConfig,
    read_latency: u64,
) -> Result<Prediction, Vec<Diagnostic>> {
    let period = prove_program(program, mem)?;
    let ideal = program.total_steps();
    let latency = read_latency.max(1);

    // Bank-conflict term: total requests per bank, every port summed.
    let mut per_bank = vec![0u64; mem.num_banks()];
    for port in &period.ports {
        for (b, &count) in port.per_bank_walked.iter().enumerate() {
            per_bank[b] += count;
        }
    }
    let bank_term = per_bank.iter().copied().max().unwrap_or(0);

    // Latency chains for the read ports (A, B advance per fire; C per
    // tile — either way `steps` is the port's own pop count).
    let mut latency_terms = Vec::new();
    for (plan, proof) in program.readers.iter().zip(&period.ports) {
        let steps = proof.steps;
        let (cycles, class) = if plan.design.fine_grained_prefetch() {
            let depth = plan.design.data_buffer_depth().max(1) as u64;
            (
                steps.saturating_sub(1) / depth * latency,
                CritClass::MemLatency,
            )
        } else {
            let class = if latency > 1 {
                CritClass::MemLatency
            } else {
                CritClass::AguThroughput
            };
            (steps.saturating_sub(1).saturating_mul(latency + 1), class)
        };
        latency_terms.push(LatencyTerm {
            port: proof.name.clone(),
            cycles,
            class,
        });
    }

    // compute_lb = max over terms; bottleneck = class of the first term
    // attaining it, in priority order pe-issue, bank-conflict, latency.
    let mut compute_lb = ideal;
    let mut bottleneck = CritClass::PeIssue;
    if bank_term > compute_lb {
        compute_lb = bank_term;
        bottleneck = CritClass::BankConflict;
    }
    for term in &latency_terms {
        if term.cycles > compute_lb {
            compute_lb = term.cycles;
            bottleneck = term.class;
        }
    }

    let prepass_lb = program
        .prepasses
        .iter()
        .map(|plan| prepass_lower_bound(plan, mem))
        .sum();

    let denom = prepass_lb + compute_lb;
    let bound = if denom == 0 {
        1.0
    } else {
        ideal as f64 / denom as f64
    };

    Ok(Prediction {
        ideal,
        prepass_lb,
        compute_lb,
        bank_term,
        latency_terms,
        bound,
        bottleneck,
        period,
    })
}

/// Sound cycle lower bound for one copy-engine pre-pass (see the module
/// doc for the argument).
#[must_use]
pub fn prepass_lower_bound(plan: &CopyPlan, mem: &MemConfig) -> u64 {
    let load = |addrs: &mut dyn Iterator<Item = u64>, g: u64| -> u64 {
        let space = Space::bytes(mem, g);
        let mut per_bank = vec![0u64; mem.num_banks()];
        for addr in addrs {
            per_bank[space.bank_of(addr)] += 1;
        }
        per_bank.into_iter().max().unwrap_or(0)
    };
    let g_read = plan
        .read_mode
        .checked_group_banks(mem.num_banks())
        .unwrap_or(1) as u64;
    let g_write = plan
        .write_mode
        .checked_group_banks(mem.num_banks())
        .unwrap_or(1) as u64;
    let reads = plan.reads.len() as u64;
    let writes = plan.writes.len() as u64;
    let read_bank = load(&mut plan.reads.iter().copied(), g_read);
    let word = mem.bank_width_bytes();
    let write_bank = load(
        &mut (0..plan.writes.len()).map(|i| plan.write_addr(i, word)),
        g_write,
    );
    reads
        .div_ceil(4)
        .max(writes.div_ceil(4))
        .max(read_bank)
        .max(write_bank)
}

/// Renders the prediction as `DM-PERF-*` diagnostics for `dm lint`:
/// an info when the proven roofline is below near-peak (the configuration
/// *cannot* reach full utilization, with the predicted bottleneck), and an
/// info when the period proof had to cap its walk.
#[must_use]
pub fn perf_diagnostics(prediction: &Prediction) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    if prediction.bound < NEAR_PEAK {
        out.push(Diagnostic::info(
            LintCode::PerfBound,
            "system",
            format!(
                "proven utilization roofline {:.3} is below near-peak \
                 (predicted bottleneck: {})",
                prediction.bound,
                prediction.bottleneck.label()
            ),
        ));
    }
    if !prediction.period.exhaustive {
        out.push(Diagnostic::info(
            LintCode::PerfPeriod,
            "system",
            format!(
                "steady-state period proof is non-exhaustive (walk capped; \
                 fire period {} proven for the walked prefix only)",
                prediction.period.fire_period
            ),
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use dm_compiler::{compile, BufferDepths, FeatureSet};
    use dm_workloads::{ConvSpec, GemmSpec, WorkloadData};

    fn mem() -> MemConfig {
        MemConfig::new(32, 8, 4096).unwrap()
    }

    fn gemm(step: usize) -> Prediction {
        let data = WorkloadData::generate(GemmSpec::new(32, 16, 24).into(), 11);
        let features = FeatureSet::ablation_step(step);
        let program = compile(&data, &features, &mem(), true, BufferDepths::default()).unwrap();
        predict(&program, &mem(), 1).unwrap()
    }

    #[test]
    fn full_feature_gemm_is_predicted_near_peak() {
        let p = gemm(6);
        assert_eq!(p.ideal, 24);
        assert_eq!(p.prepass_lb, 0, "no pre-passes at step 6");
        assert!(
            p.bound >= NEAR_PEAK,
            "full features must be predicted near-peak, got {}",
            p.bound
        );
        assert_eq!(p.bottleneck, CritClass::PeIssue);
        assert!(perf_diagnostics(&p).is_empty());
    }

    #[test]
    fn early_steps_are_bounded_below_peak() {
        // Step 1 lacks on-the-fly transform features: pre-passes and/or a
        // coupled access-execute pipe cap the utilization strictly.
        let p = gemm(1);
        assert!(p.bound < 1.0, "step 1 bound {}", p.bound);
        let diags = perf_diagnostics(&p);
        assert!(diags.iter().any(|d| d.code == LintCode::PerfBound));
    }

    #[test]
    fn bound_is_monotone_in_latency() {
        let data = WorkloadData::generate(GemmSpec::new(32, 16, 24).into(), 11);
        let program = compile(
            &data,
            &FeatureSet::ablation_step(2),
            &mem(),
            true,
            BufferDepths::default(),
        )
        .unwrap();
        let b1 = predict(&program, &mem(), 1).unwrap().bound;
        let b4 = predict(&program, &mem(), 4).unwrap().bound;
        let b16 = predict(&program, &mem(), 16).unwrap().bound;
        assert!(b1 >= b4 && b4 >= b16, "{b1} {b4} {b16}");
    }

    #[test]
    fn conv_predictions_are_finite_and_positive() {
        let data = WorkloadData::generate(ConvSpec::new(14, 14, 8, 8, 3, 3, 1).into(), 7);
        for step in 1..=6 {
            let features = FeatureSet::ablation_step(step);
            let program = compile(&data, &features, &mem(), true, BufferDepths::default()).unwrap();
            let p = predict(&program, &mem(), 4).unwrap();
            assert!(p.bound > 0.0 && p.bound <= 1.0, "step {step}: {}", p.bound);
            assert!(p.compute_lb >= p.ideal);
        }
    }

    #[test]
    fn prepass_bound_counts_the_hottest_bank() {
        use dm_compiler::WriteSource;
        use dm_mem::AddressingMode;
        let plan = CopyPlan {
            name: "t".into(),
            read_mode: AddressingMode::NonInterleaved,
            write_mode: AddressingMode::FullyInterleaved,
            // 8 reads, all in bank 0 under NIMA (first rows of bank 0).
            reads: (0..8u64).map(|i| i * 8).collect(),
            write_base: 4096,
            writes: (0..4).map(WriteSource::Word).collect(),
            gathers: Vec::new(),
        };
        let lb = prepass_lower_bound(&plan, &mem());
        assert_eq!(lb, 8, "bank-serial reads dominate ⌈8/4⌉ and ⌈4/4⌉");
    }
}
