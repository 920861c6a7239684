//! Validation of the critical-path layer against actual re-simulation.
//!
//! Two halves. First, structural invariants over the full ablation ×
//! latency × workload-group grid — these hold in release builds here, not
//! just behind `debug_assert!` in the run loop. Second, the what-if
//! projections: every simulable projection maps to a real configuration
//! change, so we *make* that change, re-simulate, and check the
//! projection's claim — the latency projection lands within 10 % of the
//! actually-simulated latency-1 run where exposed latency dominates, and
//! no committed projection ever predicts a saving that re-simulation
//! contradicts in sign.

use dm_compiler::{BufferDepths, FeatureSet};
use dm_sim::CritClass;
use dm_system::{run_workload, RunReport, SystemConfig};
use dm_workloads::{ConvSpec, GemmSpec, Workload, WorkloadData};

fn groups() -> Vec<WorkloadData> {
    vec![
        WorkloadData::generate(GemmSpec::new(16, 16, 16).into(), 50),
        WorkloadData::generate(GemmSpec::transposed(16, 16, 16).into(), 51),
        WorkloadData::generate(ConvSpec::new(10, 10, 8, 8, 3, 3, 1).into(), 52),
    ]
}

fn config(step: usize, latency: u64) -> SystemConfig {
    SystemConfig {
        read_latency: latency,
        ..SystemConfig::default().with_features(FeatureSet::ablation_step(step))
    }
}

fn run(cfg: &SystemConfig, data: &WorkloadData, label: &str) -> RunReport {
    run_workload(cfg, data).unwrap_or_else(|e| panic!("{label}: {e}"))
}

#[test]
fn path_invariants_hold_across_groups_steps_and_latencies() {
    for step in 1..=6 {
        for latency in [1u64, 4, 16] {
            for data in &groups() {
                let label = format!("step {step}, latency {latency}, {}", data.workload);
                let report = run(&config(step, latency), data, &label);
                let crit = &report.critical;
                let path = crit.path_length();
                let total = report.prepass_cycles + report.compute_cycles;

                // Single-issue in-order: every compute cycle is on the
                // path, no more and no less.
                assert_eq!(path, report.compute_cycles, "{label}: path != compute");
                assert!(path <= total, "{label}: path {path} exceeds total {total}");
                // The path is bounded below by the non-idle work: at least
                // every fired cycle is on it.
                assert!(path >= report.active_cycles, "{label}: path < fires");

                // The per-class composition is exhaustive, and exactly the
                // fired cycles are PE issue.
                let sum: u64 = CritClass::ALL.iter().map(|&c| crit.on_path(c)).sum();
                assert_eq!(sum, path, "{label}: composition does not sum to path");
                assert_eq!(
                    crit.on_path(CritClass::PeIssue),
                    report.active_cycles,
                    "{label}: PE issue != fires"
                );
                assert_eq!(crit.read_latency(), latency, "{label}: recorded latency");

                // Projections never overshoot the path and always carry
                // consistent arithmetic.
                for what_if in crit.what_ifs() {
                    assert_eq!(
                        what_if.projected + what_if.delta,
                        path,
                        "{label}: {} arithmetic",
                        what_if.name
                    );
                }
            }
        }
    }
}

#[test]
fn latency_projection_validates_against_actual_resimulation() {
    // The headline what-if: a coupled (step 1) GeMM at read latency 16 is
    // memory-latency bound, and the "read-latency->1" projection must land
    // within 10 % of the compute cycles an actual latency-1 simulation
    // takes. This is the acceptance bar for the projection math — not just
    // sign, magnitude.
    let data = WorkloadData::generate(GemmSpec::new(48, 192, 24).into(), 60);
    let base = run(&config(1, 16), &data, "coupled L16");
    let crit = &base.critical;
    let mem_share = crit.on_path(CritClass::MemLatency) as f64 / crit.path_length().max(1) as f64;
    assert!(
        mem_share > 0.5,
        "precondition: a coupled L16 run must be latency-bound, got {mem_share:.2}"
    );

    let what_if = crit
        .what_ifs()
        .into_iter()
        .find(|w| w.name == "read-latency->1")
        .expect("latency projection is committed");
    assert!(what_if.simulable);

    let actual = run(&config(1, 1), &data, "coupled L1");
    let projected = what_if.projected as f64;
    let observed = actual.compute_cycles as f64;
    let rel_err = (projected - observed).abs() / observed;
    assert!(
        rel_err <= 0.10,
        "latency projection {projected} vs simulated {observed} compute cycles \
         ({:.1}% off, bound 10%)",
        100.0 * rel_err
    );
}

/// Re-simulates the configuration change a simulable what-if names and
/// returns the observed compute cycles.
fn resimulate(name: &str, cfg: &SystemConfig, data: &WorkloadData, label: &str) -> u64 {
    let changed = match name {
        "read-latency->1" => SystemConfig {
            read_latency: 1,
            ..*cfg
        },
        "fifo-depth-2x" => SystemConfig {
            depths: BufferDepths {
                data: cfg.depths.data * 2,
                write_data: cfg.depths.write_data * 2,
                addr: cfg.depths.addr * 2,
            },
            ..*cfg
        },
        other => panic!("no configuration knob for what-if '{other}'"),
    };
    run(&changed, data, label).compute_cycles
}

#[test]
fn simulable_what_ifs_never_predict_a_saving_resimulation_contradicts() {
    // Sign validity: whenever a simulable projection predicts a nonzero
    // saving, actually making the change must not lengthen the run. (The
    // delta itself is an upper bound by design; the sign is the committed
    // contract.)
    let mut exercised = 0u32;
    for step in [1usize, 5, 6] {
        for latency in [1u64, 16] {
            for data in &groups() {
                let label = format!("step {step}, latency {latency}, {}", data.workload);
                let cfg = config(step, latency);
                let base = run(&cfg, data, &label);
                for what_if in base.critical.what_ifs() {
                    if !what_if.simulable || what_if.delta == 0 {
                        continue;
                    }
                    exercised += 1;
                    let observed = resimulate(
                        what_if.name,
                        &cfg,
                        data,
                        &format!("{label} [{}]", what_if.name),
                    );
                    assert!(
                        observed <= base.compute_cycles,
                        "{label}: '{}' predicted a {}-cycle saving but the run \
                         grew from {} to {observed} compute cycles",
                        what_if.name,
                        what_if.delta,
                        base.compute_cycles
                    );
                }
            }
        }
    }
    assert!(
        exercised >= 3,
        "the grid must exercise nonzero simulable projections, got {exercised}"
    );
}

#[test]
fn projections_follow_the_composition_across_the_grid() {
    // Cross-checks the projection table against the composition it is
    // derived from, on every grid point: the latency projection scales
    // exactly with the memory-latency class and the latency itself, and
    // the conflict/fifo projections equal their classes.
    for step in [1usize, 6] {
        for latency in [1u64, 4, 16] {
            let data = WorkloadData::generate(Workload::from(GemmSpec::new(16, 16, 16)), 70);
            let label = format!("step {step}, latency {latency}");
            let report = run(&config(step, latency), &data, &label);
            let crit = &report.critical;
            let mem = crit.on_path(CritClass::MemLatency);
            let by_name = |name: &str| {
                crit.what_ifs()
                    .into_iter()
                    .find(|w| w.name == name)
                    .unwrap_or_else(|| panic!("{label}: missing {name}"))
            };
            let expected = if latency <= 1 {
                0
            } else {
                mem - mem / (2 * latency)
            };
            assert_eq!(
                by_name("read-latency->1").delta,
                expected,
                "{label}: latency delta formula"
            );
            assert_eq!(
                by_name("conflicts-free").delta,
                crit.on_path(CritClass::BankConflict),
                "{label}: conflict delta"
            );
            assert_eq!(
                by_name("fifo-depth-2x").delta,
                crit.on_path(CritClass::FifoCapacity),
                "{label}: fifo delta"
            );
        }
    }
}
