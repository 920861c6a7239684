//! Byte-identity pin for the cycle kernel.
//!
//! Performance work on the per-cycle paths (PE step, FIFO occupancy
//! sampling, bank arbitration) must not change a single simulated number.
//! This test folds every simulated surface of a run — the metrics registry,
//! the blame profile, the critical-path profile, the per-streamer counters
//! and the total cycle count — into one FNV-1a digest per configuration and
//! compares it against constants recorded before those kernels were
//! rewritten.
//!
//! The constants were generated on the commit preceding the kernel rewrite
//! with
//!
//! ```text
//! cargo test --release --test kernel_identity -- --nocapture
//! ```
//!
//! which prints the digest table in the form of [`EXPECTED`]. A legitimate
//! change to simulated behaviour regenerates the table the same way.
//!
//! [`POOL_EXPECTED`] pins the pooling system's cycles, accesses and bank
//! conflicts the same way; the same command prints its rows.

use datamaestro_repro::analyze::{analyze_program, LintCode};
use datamaestro_repro::compiler::{compile, FeatureSet};
use datamaestro_repro::mem::MemConfig;
use datamaestro_repro::sim::{SplitMix64, StableHasher};
use datamaestro_repro::system::{run_workload, RunReport, SystemConfig};
use datamaestro_repro::workloads::{ConvSpec, GemmSpec, PoolSpec, Workload, WorkloadData};

/// Plain GeMM, transposed GeMM and convolution.
fn shapes() -> [Workload; 3] {
    [
        GemmSpec::new(24, 16, 32).into(),
        GemmSpec::transposed(16, 16, 16).into(),
        ConvSpec::new(10, 10, 8, 8, 3, 3, 1).into(),
    ]
}

const STEPS: [usize; 3] = [1, 5, 6];
const LATENCIES: [u64; 2] = [1, 16];

/// `(shape index, ablation step, read latency, digest)`, valid with
/// fast-forward both on and off.
const EXPECTED: [(usize, usize, u64, u64); 18] = [
    (0, 1, 1, 0x7540_04a5_95eb_c203),
    (0, 1, 16, 0xdca0_3cb7_e2c7_98a4),
    (0, 5, 1, 0xc3fb_ac30_ff58_fab1),
    (0, 5, 16, 0x0d72_3a3d_ca29_f50c),
    (0, 6, 1, 0xddf4_48a4_33b3_f5c0),
    (0, 6, 16, 0x0a37_65e3_e75f_8a1a),
    (1, 1, 1, 0x09a6_89f4_75bc_7dd6),
    (1, 1, 16, 0xdc5a_f118_4f34_cc9e),
    (1, 5, 1, 0x57cb_209e_c91d_70c8),
    (1, 5, 16, 0x66c6_1fef_945e_2a3f),
    (1, 6, 1, 0x4896_0306_5e47_9283),
    (1, 6, 16, 0xb7ee_00c3_c60d_63c7),
    (2, 1, 1, 0x7cff_53d3_f8a1_a273),
    (2, 1, 16, 0x5bd6_2fcb_d17d_c2c7),
    (2, 5, 1, 0xb78b_74f9_e32c_8cdc),
    (2, 5, 16, 0x9cb1_3ddb_e382_7ee3),
    (2, 6, 1, 0x6fa7_fdd5_84f0_bdda),
    (2, 6, 16, 0xe886_08c9_3ee5_ffd3),
];

/// FNV-1a over every simulated surface of `report`.
fn digest(report: &RunReport) -> u64 {
    let mut h = StableHasher::new();
    h.write_str(&report.metrics.to_json().to_json());
    h.write_str(&report.ledger.to_json().to_json());
    h.write_str(&report.critical.to_json().to_json());
    for stats in &report.streamer_stats {
        h.write_u64(stats.granted.get());
        h.write_u64(stats.retries.get());
        h.write_u64(stats.wide_words.get());
        h.write_u64(stats.temporal_addresses.get());
    }
    h.write_u64(report.total_cycles());
    h.finish()
}

#[test]
fn simulated_results_match_recorded_digests() {
    let mut observed = Vec::new();
    for (shape, workload) in shapes().into_iter().enumerate() {
        let data = WorkloadData::generate(workload, 700 + shape as u64);
        for step in STEPS {
            for latency in LATENCIES {
                let run = |fast_forward| {
                    let config = SystemConfig {
                        read_latency: latency,
                        fast_forward,
                        ..SystemConfig::default().with_features(FeatureSet::ablation_step(step))
                    };
                    let report = run_workload(&config, &data)
                        .unwrap_or_else(|e| panic!("{workload} step {step}: {e}"));
                    assert!(report.checked, "{workload} step {step}: golden check");
                    digest(&report)
                };
                let (ff, lockstep) = (run(true), run(false));
                assert_eq!(
                    ff, lockstep,
                    "{workload}, step {step}, latency {latency}: fast-forward != lockstep"
                );
                observed.push((shape, step, latency, ff));
            }
        }
    }
    for (shape, step, latency, d) in &observed {
        println!(
            "    ({shape}, {step}, {latency}, 0x{:04x}_{:04x}_{:04x}_{:04x}),",
            d >> 48,
            (d >> 32) & 0xffff,
            (d >> 16) & 0xffff,
            d & 0xffff
        );
    }
    for (got, want) in observed.iter().zip(EXPECTED.iter()) {
        assert_eq!(got, want, "digest drifted (shape, step, latency, digest)");
    }
    assert_eq!(observed.len(), EXPECTED.len());
}

/// A pooling shape: `(h, w, c, window, stride)`.
type PoolShape = (usize, usize, usize, usize, usize);

/// `(shape, full features, [cycles, accesses, conflicts])` of the pooling
/// system. The last row is the 3×3/2 ResNet-stem shape of
/// `examples/pooling.rs`, the one shape that stalls.
const POOL_EXPECTED: [(PoolShape, bool, [u64; 3]); 7] = [
    ((16, 16, 16, 2, 2), true, [66, 640, 4]),
    ((16, 16, 16, 2, 2), false, [128, 640, 0]),
    ((10, 10, 8, 3, 1), true, [73, 640, 0]),
    ((10, 10, 8, 3, 1), false, [144, 640, 0]),
    ((16, 16, 8, 2, 2), true, [34, 320, 4]),
    ((16, 16, 8, 2, 2), false, [64, 320, 0]),
    ((113, 113, 64, 3, 2), true, [43961, 250880, 90740]),
];

/// A pooling workload of `shape` over its pinned random input.
fn pool_data(shape: PoolShape) -> WorkloadData {
    let (h, w, c, k, s) = shape;
    let mut rng = SplitMix64::new((h * w * c) as u64);
    let mut data = WorkloadData::generate(PoolSpec::new(h, w, c, k, s).into(), 0);
    data.a = (0..h * w * c)
        .map(|_| rng.between(i8::MIN.into(), i8::MAX.into()) as i8)
        .collect();
    data
}

/// The analyzer on the full-featured pooling pins: every stride-2 shape
/// collides inside the input stream's bank group (`DM-BANK-CONFLICT` on
/// `pool-in`), and the stride-1 shape, which observes no conflict, is
/// proven conflict-free.
#[test]
fn pooling_conflicts_are_explained_by_the_analyzer() {
    let mem = MemConfig::new(32, 8, 65_536).unwrap();
    let cfg = SystemConfig::default();
    for &(shape, _, [_, _, conflicts]) in POOL_EXPECTED.iter().filter(|(_, full, _)| *full) {
        let program = compile(&pool_data(shape), &cfg.features, &mem, true, cfg.depths).unwrap();
        let analysis = analyze_program(&program, &mem);
        let on_input = analysis
            .report
            .diagnostics
            .iter()
            .any(|d| d.code == LintCode::BankConflict && d.component == "pool-in");
        let stride = shape.4;
        assert_eq!(on_input, stride == 2, "{shape:?}: {:?}", analysis.report);
        assert_eq!(analysis.conflict_free, stride == 1, "{shape:?}");
        if analysis.conflict_free {
            assert_eq!(conflicts, 0, "{shape:?}: proven free, pinned {conflicts}");
        }
    }
}

#[test]
fn pooling_results_match_recorded_counts() {
    let mem = MemConfig::new(32, 8, 65_536).unwrap();
    let mut observed = Vec::new();
    for &(shape, full, _) in &POOL_EXPECTED {
        let data = pool_data(shape);
        let spec = data.workload;
        let features = if full {
            FeatureSet::full()
        } else {
            FeatureSet::baseline()
        };
        let config = SystemConfig {
            mem,
            features,
            ..SystemConfig::default()
        };
        let report = run_workload(&config, &data).unwrap_or_else(|e| panic!("{spec:?}: {e}"));
        assert!(report.checked, "{spec:?}: golden check");
        let row = (
            shape,
            full,
            [report.total_cycles(), report.accesses(), report.conflicts],
        );
        println!("    {row:?},");
        observed.push(row);
    }
    assert_eq!(observed, POOL_EXPECTED, "pooling counts drifted");
}
