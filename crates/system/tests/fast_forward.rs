//! Differential test for the fast-forward engine: every simulated result
//! must be bit-identical with idle-cycle elision on or off, across the
//! fig.-7 ablation axis and the read-latency sweep where long idle spans
//! actually occur.

use dm_compiler::FeatureSet;
use dm_mem::MemConfig;
use dm_sim::SplitMix64;
use dm_system::{run_workload, RunReport, SystemConfig};
use dm_workloads::{models, ConvSpec, GemmSpec, PoolSpec, WorkloadData};

/// Compares the full observable surface of two reports: cycle counts,
/// stall taxonomy, memory traffic, per-bank heatmap, and the complete
/// metrics registry (which carries the occupancy/latency histograms and
/// FIFO high-water marks).
fn assert_identical(ff: &RunReport, ls: &RunReport, label: &str) {
    assert_eq!(ff.prepass_cycles, ls.prepass_cycles, "{label}: prepass");
    assert_eq!(ff.compute_cycles, ls.compute_cycles, "{label}: compute");
    assert_eq!(ff.active_cycles, ls.active_cycles, "{label}: active");
    assert_eq!(ff.ledger, ls.ledger, "{label}: causal ledger");
    assert_eq!(ff.critical, ls.critical, "{label}: critical path");
    assert_eq!(
        ff.critical.to_json().to_json(),
        ls.critical.to_json().to_json(),
        "{label}: critical JSON bytes"
    );
    assert_eq!(
        ff.ledger.to_json().to_json(),
        ls.ledger.to_json().to_json(),
        "{label}: ledger JSON bytes"
    );
    assert_eq!(ff.mem_reads, ls.mem_reads, "{label}: reads");
    assert_eq!(ff.mem_writes, ls.mem_writes, "{label}: writes");
    assert_eq!(ff.conflicts, ls.conflicts, "{label}: conflicts");
    assert_eq!(ff.streamer_stats, ls.streamer_stats, "{label}: streamers");
    assert_eq!(
        ff.per_bank_accesses, ls.per_bank_accesses,
        "{label}: per-bank heatmap"
    );
    assert_eq!(ff.metrics, ls.metrics, "{label}: metric registry");
    assert_eq!(ff.provenance, ls.provenance, "{label}: provenance");
    assert_eq!(ff.checked, ls.checked, "{label}: golden check");
}

#[test]
fn fast_forward_is_bit_identical_across_ablation_and_latency() {
    let workloads = [
        WorkloadData::generate(GemmSpec::new(16, 16, 16).into(), 40),
        WorkloadData::generate(GemmSpec::transposed(16, 16, 16).into(), 41),
        WorkloadData::generate(ConvSpec::new(10, 10, 8, 8, 3, 3, 1).into(), 42),
    ];
    for step in 1..=6 {
        for latency in [1u64, 4, 16] {
            for data in &workloads {
                let config = |fast_forward| SystemConfig {
                    read_latency: latency,
                    fast_forward,
                    ..SystemConfig::default().with_features(FeatureSet::ablation_step(step))
                };
                let label = format!("step {step}, latency {latency}, {}", data.workload);
                let ff = run_workload(&config(true), data)
                    .unwrap_or_else(|e| panic!("{label} (fast-forward): {e}"));
                let ls = run_workload(&config(false), data)
                    .unwrap_or_else(|e| panic!("{label} (lockstep): {e}"));
                assert_identical(&ff, &ls, &label);
            }
        }
    }
}

#[test]
fn traced_runs_match_untraced_fast_forwarded_runs() {
    // Tracing forces lockstep; a traced run and an untraced fast-forwarded
    // run of the same experiment must still agree on everything that is not
    // the trace itself — including every event timestamp being consistent
    // with the elided cycle count (the trace exists only in the traced run,
    // but its final timestamps bound the same compute_cycles).
    let data = WorkloadData::generate(GemmSpec::new(16, 16, 16).into(), 43);
    let base = SystemConfig {
        read_latency: 16,
        ..SystemConfig::default().with_features(FeatureSet::ablation_step(1))
    };
    let ff = run_workload(&base, &data).unwrap();
    let traced = run_workload(
        &SystemConfig {
            trace: dm_sim::TraceMode::Full,
            ..base
        },
        &data,
    )
    .unwrap();
    assert_eq!(ff.compute_cycles, traced.compute_cycles);
    assert_eq!(ff.ledger, traced.ledger);
    assert!(ff.traces.is_empty());
    assert!(!traced.traces.is_empty());
}

/// Runs `data` with fast-forward on and in lockstep at `read_latency`,
/// asserts the two reports identical and that replay covered some of the
/// run, and returns the fast-forwarded run's report.
fn replays_exactly(data: &WorkloadData, read_latency: u64) -> RunReport {
    let config = |fast_forward| SystemConfig {
        read_latency,
        fast_forward,
        time_phases: fast_forward,
        ..SystemConfig::default()
    };
    let label = format!("{} at read latency {read_latency}", data.workload);
    let ff = run_workload(&config(true), data).unwrap_or_else(|e| panic!("{label}: {e}"));
    let ls = run_workload(&config(false), data).unwrap_or_else(|e| panic!("{label}: {e}"));
    assert_identical(&ff, &ls, &label);
    let host = ff.host.as_ref().expect("time_phases reports host timings");
    assert!(host.replayed_cycles > 0, "{label}: nothing was replayed");
    ff
}

/// The compute cycles of a [`replays_exactly`] run that were stepped in
/// lockstep rather than replayed.
fn lockstep_cycles(report: &RunReport) -> u64 {
    let host = report
        .host
        .as_ref()
        .expect("time_phases reports host timings");
    report.compute_cycles - host.replayed_cycles
}

/// Like [`replays_exactly`], returning the share of compute cycles
/// replayed.
fn assert_replays_exactly(data: &WorkloadData, read_latency: u64) -> f64 {
    let report = replays_exactly(data, read_latency);
    1.0 - lockstep_cycles(&report) as f64 / report.compute_cycles as f64
}

#[test]
fn period_replay_is_bit_identical_on_steady_state_kernels() {
    let workloads = [
        WorkloadData::generate(ConvSpec::new(18, 18, 32, 32, 3, 3, 1).into(), 50),
        WorkloadData::generate(ConvSpec::new(34, 34, 32, 32, 3, 3, 2).into(), 51),
        WorkloadData::generate(GemmSpec::new(64, 64, 128).into(), 52),
        WorkloadData::generate(GemmSpec::transposed(64, 64, 128).into(), 53),
    ];
    for latency in [1, 16] {
        for data in &workloads {
            assert_replays_exactly(data, latency);
        }
    }
}

/// A conv whose pixel step rotates banks inside their interleave group:
/// the `layer2 3x3x128` geometry (28-pixel output rows, an x-step of 16 B =
/// 2 words under GIMA(8), 16 output-channel blocks per pixel step) with 8
/// input channels. A's banks repeat only every 4 pixel steps and the lock
/// key every 8, so the replays it needs outlive other replays and span
/// many tiles. The first two output rows carry no long enough period yet;
/// the same conv on 44 rows spreads them thinner.
#[test]
fn period_replay_covers_a_pixel_step_that_rotates_banks() {
    for (h, floor) in [(30, 0.80), (46, 0.85)] {
        let data = WorkloadData::generate(ConvSpec::new(h, 30, 8, 128, 3, 3, 1).into(), 54);
        let replayed = assert_replays_exactly(&data, 1);
        assert!(
            replayed >= floor,
            "{}: {:.1} % replayed",
            data.workload,
            replayed * 100.0
        );
    }
}

/// The bias reader C moves one word a tile and runs 16 words ahead of the
/// array (8 queued addresses and 8 FIFO words), so its AGU runs out 16
/// tiles before the end of a GeMM. A replay keeps taking C's queued words
/// in past that point: only the tiles in which C's FIFO drains stay in
/// lockstep (the last 8, and one more where the two-tile period does not
/// fit), with the three tiles before the first replay. C's last 16 tiles
/// alone used to be stepped. Debug builds check the replay against its
/// lockstep shadow.
#[test]
fn period_replay_outlasts_the_bias_readers_agu() {
    let (m, n, k) = (64, 64, 128);
    let data = WorkloadData::generate(GemmSpec::new(m, n, k).into(), 55);
    let report = replays_exactly(&data, 1);
    let (tile, tiles) = (k as u64 / 8, (m * n) as u64 / 64);
    assert_eq!(
        report.compute_cycles,
        tiles * tile + 1,
        "one stall, at the start"
    );
    let lockstep = lockstep_cycles(&report);
    assert!(
        lockstep <= 12 * tile + 1,
        "{lockstep} of {} cycles stepped in lockstep",
        report.compute_cycles
    );
}

/// A max-pooling workload of `spec` over a full-range random input drawn
/// from `seed`.
fn pool_data(spec: PoolSpec, seed: u64) -> WorkloadData {
    let mut rng = SplitMix64::new(seed);
    let mut data = WorkloadData::generate(spec.into(), seed);
    data.a = (0..spec.h * spec.w * spec.c)
        .map(|_| rng.between(i8::MIN.into(), i8::MAX.into()) as i8)
        .collect();
    data
}

/// The 3×3/2 ResNet-stem pooling shape, the one pooling shape that
/// stalls, replays exactly too.
#[test]
fn period_replay_is_bit_identical_on_the_stem_pool() {
    let data = pool_data(PoolSpec::new(113, 113, 64, 3, 2), 113 * 113 * 64);
    let config = |fast_forward| SystemConfig {
        mem: MemConfig::new(32, 8, 65_536).unwrap(),
        fast_forward,
        time_phases: fast_forward,
        ..SystemConfig::default()
    };
    let ff = run_workload(&config(true), &data).unwrap();
    let ls = run_workload(&config(false), &data).unwrap();
    assert!(ff.checked, "golden check");
    assert_identical(&ff, &ls, "stem pool");
    assert!(
        ff.host.expect("timed").replayed_cycles > 0,
        "nothing was replayed"
    );
}

/// A strided pool at read latency 16, where idle spans are long, with and
/// without addressing-mode switching.
#[test]
fn fast_forward_matches_lockstep_at_long_read_latency() {
    let data = pool_data(PoolSpec::new(17, 17, 16, 3, 2), 5);
    for features in [FeatureSet::full(), FeatureSet::baseline()] {
        let run = |fast_forward| {
            let config = SystemConfig {
                mem: MemConfig::new(32, 8, 4096).unwrap(),
                features,
                read_latency: 16,
                fast_forward,
                ..SystemConfig::default()
            };
            let r = run_workload(&config, &data).unwrap();
            assert!(r.checked);
            r
        };
        assert_identical(&run(true), &run(false), &format!("{features:?}"));
    }
}

/// All 12 ResNet-18 layers of Table III; a release-build run in CI. The
/// lockstep cycles left over all layers are pinned at what the detector
/// reaches: anchors at every tile boundary and replays that outlast the
/// AGUs.
#[test]
#[ignore = "minutes in a debug build; CI runs it in release"]
fn period_replay_is_bit_identical_on_every_resnet18_layer() {
    let lockstep: u64 = models::resnet18()
        .layers
        .iter()
        .enumerate()
        .map(|(i, layer)| {
            let data = WorkloadData::generate(layer.workload, 60 + i as u64);
            lockstep_cycles(&replays_exactly(&data, 1))
        })
        .sum();
    assert!(
        lockstep <= 85_510,
        "{lockstep} ResNet-18 cycles stepped in lockstep"
    );
}
