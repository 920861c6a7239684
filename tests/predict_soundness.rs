//! Differential soundness suite for the static performance prover
//! (`dm_analyze::predict`): across the workload zoo × all six ablation
//! steps × read latencies {1, 4, 16},
//!
//! 1. the proven utilization roofline is an *upper bound* on the observed
//!    utilization — never a single violation;
//! 2. wherever the bound is tight (within 2 points of observed), the
//!    predicted bottleneck class agrees with the dominant blame family
//!    the causal profiler measured;
//! 3. the predicted per-step ranking tracks the observed ranking
//!    (Spearman ≥ 0.9 per latency, average ranks for ties);
//! 4. on the full-featured design point the proven steady-state period is
//!    a weak period of the observed fire-gap digest wherever the machine
//!    settles into steady state inside the run.

use datamaestro_repro::analyze::{self, Prediction};
use datamaestro_repro::compiler::{compile, FeatureSet};
use datamaestro_repro::sim::{
    is_periodic_with, minimal_period, CritClass, OperandPort, StallCause, TraceEventKind, TraceMode,
};
use datamaestro_repro::system::{run_workload, RunReport, SystemConfig};
use datamaestro_repro::workloads::{
    synthetic_suite, ConvSpec, GemmSpec, PoolSpec, Workload, WorkloadData,
};

/// Plain GeMM, a larger GeMM, transposed GeMM, two convolutions (stride 1
/// and stride 2) and a strided max pool — one representative per workload
/// family, sized large enough for a steady state to exist.
fn zoo() -> Vec<Workload> {
    vec![
        GemmSpec::new(24, 16, 32).into(),
        GemmSpec::new(32, 32, 64).into(),
        GemmSpec::transposed(32, 32, 32).into(),
        ConvSpec::new(26, 26, 8, 8, 3, 3, 1).into(),
        ConvSpec::new(18, 18, 8, 16, 3, 3, 2).into(),
        PoolSpec::new(17, 17, 16, 3, 2).into(),
    ]
}

fn config(step: usize, latency: u64) -> SystemConfig {
    SystemConfig {
        read_latency: latency,
        check_output: false,
        ..SystemConfig::default().with_features(FeatureSet::ablation_step(step))
    }
}

/// Lower the workload exactly as `run_workload` does and prove it.
fn prove(cfg: &SystemConfig, data: &WorkloadData) -> Prediction {
    let program = compile(data, &cfg.features, &cfg.mem, cfg.quantized, cfg.depths)
        .unwrap_or_else(|d| panic!("compile failed: {d:?}"));
    analyze::predict(&program, &cfg.mem, cfg.read_latency)
        .unwrap_or_else(|d| panic!("predict failed: {d:?}"))
}

/// Spearman rank correlation with average ranks for ties.
fn spearman(xs: &[f64], ys: &[f64]) -> f64 {
    fn ranks(values: &[f64]) -> Vec<f64> {
        let mut order: Vec<usize> = (0..values.len()).collect();
        order.sort_by(|&a, &b| values[a].partial_cmp(&values[b]).unwrap());
        let mut out = vec![0.0; values.len()];
        let mut lo = 0;
        while lo < order.len() {
            let mut hi = lo;
            while hi + 1 < order.len() && values[order[hi + 1]] == values[order[lo]] {
                hi += 1;
            }
            let avg = (lo + hi) as f64 / 2.0 + 1.0;
            for &idx in &order[lo..=hi] {
                out[idx] = avg;
            }
            lo = hi + 1;
        }
        out
    }
    let (rx, ry) = (ranks(xs), ranks(ys));
    let mean = (xs.len() as f64 + 1.0) / 2.0;
    let (mut num, mut dx, mut dy) = (0.0, 0.0, 0.0);
    for i in 0..xs.len() {
        num += (rx[i] - mean) * (ry[i] - mean);
        dx += (rx[i] - mean).powi(2);
        dy += (ry[i] - mean).powi(2);
    }
    num / (dx * dy).sqrt()
}

/// Stall cycles charged to the exposed-latency family (empty FIFO while
/// the streamer was not losing arbitration).
fn no_operand_total(report: &RunReport) -> u64 {
    [OperandPort::A, OperandPort::B, OperandPort::C]
        .into_iter()
        .map(|p| report.ledger.cause_total(StallCause::NoOperand(p)))
        .sum()
}

/// Stall cycles charged to scratchpad bank contention.
fn bank_conflict_total(report: &RunReport) -> u64 {
    [OperandPort::A, OperandPort::B, OperandPort::C]
        .into_iter()
        .map(|p| report.ledger.cause_total(StallCause::BankConflict(p)))
        .sum()
}

/// The acceptance invariant for the roofline, exhaustively: for every
/// zoo workload × ablation step × read latency the proven bound never
/// under-states the observed utilization; where it is tight the predicted
/// bottleneck matches the measured dominant blame family; and per
/// latency, ranking the six steps by predicted bound reproduces the
/// observed ranking to Spearman ≥ 0.9.
#[test]
fn roofline_is_sound_tight_and_rank_faithful() {
    let mut tight_matches = 0usize;
    for latency in [1u64, 4, 16] {
        let (mut predicted, mut observed) = (Vec::new(), Vec::new());
        for step in 1..=6usize {
            let cfg = config(step, latency);
            let (mut ideal, mut total, mut lower) = (0u64, 0u64, 0u64);
            for (i, workload) in zoo().into_iter().enumerate() {
                let data = WorkloadData::generate(workload, i as u64);
                let report =
                    run_workload(&cfg, &data).unwrap_or_else(|e| panic!("{workload}: {e}"));
                let p = prove(&cfg, &data);
                let util = report.utilization();
                let label = format!("step {step}, latency {latency}, {workload}");

                // (1) Soundness: the proof is an upper bound, always.
                assert!(
                    p.bound + 1e-12 >= util,
                    "{label}: proven bound {} under-states observed utilization {}",
                    p.bound,
                    util
                );

                // (2) Tightness ⇒ the predicted bottleneck class names the
                // blame family the causal profiler actually measured as
                // dominant. A loose bound proves nothing about causes, so
                // only tight configs are held to this.
                if p.bound - util <= 0.02 {
                    let no_op = no_operand_total(&report);
                    let bank = bank_conflict_total(&report);
                    match p.bottleneck {
                        CritClass::PeIssue => assert!(
                            report.ledger.fired() >= report.ledger.stalled(),
                            "{label}: predicted pe-issue but the run stalled \
                             more than it fired"
                        ),
                        CritClass::MemLatency | CritClass::AguThroughput => assert!(
                            no_op >= bank,
                            "{label}: predicted {} but bank-conflict blame \
                             {bank} exceeds exposed-latency blame {no_op}",
                            p.bottleneck.label()
                        ),
                        CritClass::BankConflict => assert!(
                            bank >= no_op,
                            "{label}: predicted bank-conflict but exposed-latency \
                             blame {no_op} exceeds bank-conflict blame {bank}"
                        ),
                        other => panic!(
                            "{label}: tight bound with unexpected class {}",
                            other.label()
                        ),
                    }
                    tight_matches += 1;
                }

                ideal += report.ideal_cycles;
                total += report.total_cycles();
                lower += p.prepass_lb + p.compute_lb;
            }
            predicted.push(ideal as f64 / lower as f64);
            observed.push(ideal as f64 / total as f64);
        }

        // (3) Rank fidelity across the ablation ladder.
        let rho = spearman(&predicted, &observed);
        assert!(
            rho >= 0.9,
            "latency {latency}: Spearman {rho:.4} < 0.9 \
             (predicted {predicted:?}, observed {observed:?})"
        );
    }
    // The tightness check must not be vacuous: the full-featured step is
    // near-peak and the latency-starved step-1 points are latency-exact.
    assert!(
        tight_matches >= 6,
        "only {tight_matches} tight configs — tightness check is vacuous"
    );
}

/// On the full-featured design point (ablation step 6) the proven
/// fire period divides the observed steady-state fire-gap digest: take
/// the gap sequence between consecutive PE fires, trim the fill quarter
/// and the drain eighth, and wherever the remaining window has settled
/// into a periodic steady state (its minimal weak period fits twice),
/// some small multiple of the proven period must be a weak period of it.
///
/// At read latency 16 the two convolutions spend most of these bounded
/// runs still converging — their windows are provably unsettled and are
/// skipped — so the test also pins a floor on how many configurations
/// *do* settle, keeping the divisibility check non-vacuous.
#[test]
fn steady_state_period_divides_the_fire_digest() {
    let mut settled_configs = 0usize;
    for latency in [1u64, 4, 16] {
        // Traced runs are lockstep, and fires happen only in lockstep
        // iterations, so the PeFire events record every fire cycle.
        let cfg = SystemConfig {
            trace: TraceMode::Full,
            ..config(6, latency)
        };
        for (i, workload) in zoo().into_iter().enumerate() {
            let data = WorkloadData::generate(workload, i as u64);
            let report = run_workload(&cfg, &data).unwrap_or_else(|e| panic!("{workload}: {e}"));
            let p = prove(&cfg, &data);
            let period = p.period.fire_period as usize;
            assert!(period > 0, "{workload}: degenerate proven period");

            let fires: Vec<u64> = report
                .traces
                .iter()
                .find(|(track, _)| track == "system")
                .expect("a traced run has a system track")
                .1
                .iter()
                .filter(|e| e.kind == TraceEventKind::PeFire)
                .map(|e| e.cycle.get())
                .collect();
            assert_eq!(fires.len() as u64, report.active_cycles, "{workload}");
            let gaps: Vec<u64> = fires.windows(2).map(|w| w[1] - w[0]).collect();
            // Trim the fill transient (first quarter) and the drain ramp
            // (last eighth); what remains is the candidate steady window.
            let window = &gaps[gaps.len() / 4..gaps.len() - gaps.len() / 8];
            let settled = 2 * minimal_period(window) as usize <= window.len();
            if !settled {
                continue;
            }
            settled_configs += 1;

            // At low latency the digest is periodic with the proven period
            // itself (m = 1, many periods of support). At high latency the
            // FIFO-refill cadence overlays a depth-periodic fine structure
            // and the joint period is a small multiple of the proven one
            // (e.g. lcm(8, 108) = 2·108); m stays capped so a wrong proof
            // cannot hide behind ever-larger multiples.
            let divides = (1..=4usize).any(|m| {
                m * period < window.len() && is_periodic_with(window, (m * period) as u64)
            });
            assert!(
                divides,
                "latency {latency}, {workload}: settled fire digest \
                 (minimal period {}) is not periodic with any small multiple \
                 of the proven period {period}",
                minimal_period(window)
            );
        }
    }
    assert!(
        settled_configs >= 12,
        "only {settled_configs} settled configurations — divisibility \
         check is vacuous"
    );
}

/// Release-mode sweep over the committed fig. 7 suite slice: the same
/// soundness invariant as the zoo sweep, over every fifth synthetic suite
/// workload. Too slow for debug tier-1; CI runs it in release via
/// `cargo test --release --test predict_soundness -- --include-ignored`.
#[test]
#[ignore = "slow: run in release (CI predict-soundness step)"]
fn roofline_is_sound_across_the_suite_slice() {
    for latency in [1u64, 4, 16] {
        for step in 1..=6usize {
            let cfg = config(step, latency);
            for (i, workload) in synthetic_suite().into_iter().enumerate() {
                if i % 5 != 0 {
                    continue;
                }
                let data = WorkloadData::generate(workload, i as u64);
                let report =
                    run_workload(&cfg, &data).unwrap_or_else(|e| panic!("{workload}: {e}"));
                let p = prove(&cfg, &data);
                assert!(
                    p.bound + 1e-12 >= report.utilization(),
                    "step {step}, latency {latency}, {workload}: bound {} \
                     under-states utilization {}",
                    p.bound,
                    report.utilization()
                );
            }
        }
    }
}
