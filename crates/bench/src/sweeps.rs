//! Design-choice ablation sweeps (`dm sweeps`, DESIGN.md §5): prints the
//! simulated utilization of each design choice.
//!
//! * per-channel data FIFO depth (`D_DBf`) under FIMA pressure;
//! * addressing-mode selection (FIMA / GIMA group sizes / NIMA-style) on a
//!   fixed GeMM;
//! * bank-count scaling of the scratchpad.
//!
//! `--quick` runs a reduced set of sweep points, and the Perfetto trace
//! (`--trace-out`) captures the first (depth-1 FIMA) run.

use dm_compiler::{compile_gemm_private_banks, BufferDepths, FeatureSet};
use dm_mem::MemConfig;
use dm_system::{run_compiled, RunReport, SystemConfig};
use dm_workloads::{GemmSpec, WorkloadData};

use crate::cli::{Capture, RunFlags};

/// Runs every sweep on GeMM-64 and prints its table.
///
/// # Errors
///
/// Returns the first failed run, a failed `--lint` pre-flight or a capture
/// I/O error.
pub fn run(flags: &RunFlags, capture: &mut Capture) -> Result<(), String> {
    let quick = !flags.full;
    let workload = GemmSpec::new(64, 64, 64).into();
    let measure = |cfg: &SystemConfig| -> Result<RunReport, String> {
        crate::measure(cfg, workload, 1).map_err(|e| e.to_string())
    };

    if flags.lint {
        // Pre-flight the two placements the sweeps compare: the step-5
        // shared-FIMA placement is expected to carry conflict warnings (that
        // is the point of the sweep), step 6 must analyze clean.
        let items = vec![
            (
                "gemm-64|step5-fima".to_owned(),
                FeatureSet::ablation_step(5),
                workload,
            ),
            (
                "gemm-64|step6-gima".to_owned(),
                FeatureSet::ablation_step(6),
                workload,
            ),
        ];
        crate::lint_gate("sweeps", &items)?;
    }

    println!("FIFO depth sweep (GeMM-64, FIMA placement — conflicts must be absorbed):");
    println!(
        "{:<8} {:>12} {:>12} {:>10}",
        "D_DBf", "utilization", "conflicts", "cycles"
    );
    crate::rule(46);
    let depths: &[usize] = if quick {
        &[1, 4, 16]
    } else {
        &[1, 2, 4, 8, 16, 32]
    };
    // Every sweep below fans its independent points out over `--jobs`
    // threads; printing and capture commit in point order, so the output
    // is byte-identical to a sequential run.
    let reports = crate::run_ordered(depths, flags.jobs, |i, &depth| {
        let cfg = SystemConfig {
            depths: BufferDepths {
                data: depth,
                ..BufferDepths::default()
            },
            features: FeatureSet::ablation_step(5),
            ..flags.config()
        };
        measure(&capture.config(cfg, i == 0))
    })
    .into_iter()
    .collect::<Result<Vec<_>, _>>()?;
    for (&depth, r) in depths.iter().zip(&reports) {
        capture.record(&format!("fifo-depth|{depth}"), r)?;
        println!(
            "{:<8} {:>11.2}% {:>12} {:>10}",
            depth,
            100.0 * r.utilization(),
            r.conflicts,
            r.total_cycles()
        );
    }

    println!("\naddressing-mode effect (GeMM-64) — the Fig. 5(d) trade-off:");
    println!(
        "{:<26} {:>12} {:>12}",
        "placement", "utilization", "conflicts"
    );
    crate::rule(52);
    let placements = [("FIMA (shared space)", 5usize), ("GIMA (bank groups)", 6)];
    let reports = crate::run_ordered(&placements, flags.jobs, |_, &(_, step)| {
        measure(
            &flags
                .config()
                .with_features(FeatureSet::ablation_step(step)),
        )
    })
    .into_iter()
    .collect::<Result<Vec<_>, _>>()?;
    for (&(name, _), r) in placements.iter().zip(&reports) {
        capture.record(&format!("placement|{name}"), r)?;
        println!(
            "{:<26} {:>11.2}% {:>12}",
            name,
            100.0 * r.utilization(),
            r.conflicts
        );
    }
    {
        let cfg = SystemConfig {
            check_output: false,
            ..flags.config()
        };
        let data = WorkloadData::generate(workload, 1);
        let program =
            compile_gemm_private_banks(&data, &cfg.features, &cfg.mem, BufferDepths::default())
                .map_err(|e| e.to_string())?;
        let r = run_compiled(&cfg, &data, &program).map_err(|e| e.to_string())?;
        println!(
            "{:<26} {:>11.2}% {:>12}",
            "NIMA (private banks)",
            100.0 * r.utilization(),
            r.conflicts
        );
        // …and its tiling constraint: the same placement refuses a GeMM
        // whose per-bank slice exceeds one bank.
        let big = WorkloadData::generate(GemmSpec::new(4096, 32, 4096).into(), 1);
        let refused =
            compile_gemm_private_banks(&big, &cfg.features, &cfg.mem, BufferDepths::default());
        println!(
            "{:<26} {}",
            "NIMA on 4096x32x4096",
            match refused {
                Err(e) => format!("refused: {e}"),
                Ok(_) => "unexpectedly accepted".to_string(),
            }
        );
    }

    println!("\nmemory-latency tolerance (GeMM-64): fine-grained prefetch vs coarse");
    println!(
        "{:<10} {:>16} {:>16}",
        "latency", "prefetch util", "coarse util"
    );
    crate::rule(44);
    let latencies: &[u64] = if quick { &[1, 4] } else { &[1, 2, 4, 8, 16] };
    let reports = crate::run_ordered(latencies, flags.jobs, |_, &latency| {
        [6usize, 1]
            .map(|step| {
                let cfg = SystemConfig {
                    read_latency: latency,
                    ..flags.config()
                };
                measure(&cfg.with_features(FeatureSet::ablation_step(step)))
            })
            .into_iter()
            .collect::<Result<Vec<_>, _>>()
    })
    .into_iter()
    .collect::<Result<Vec<_>, _>>()?;
    for (&latency, pair) in latencies.iter().zip(&reports) {
        for (step, r) in [6usize, 1].iter().zip(pair) {
            capture.record(&format!("latency|{latency}|step{step}"), r)?;
        }
        println!(
            "{:<10} {:>15.2}% {:>15.2}%",
            latency,
            100.0 * pair[0].utilization(),
            100.0 * pair[1].utilization()
        );
    }

    println!("\nbank-count scaling (GeMM-64, fully featured):");
    println!("{:<8} {:>12} {:>12}", "banks", "utilization", "conflicts");
    crate::rule(34);
    let bank_counts: &[usize] = if quick { &[16, 32] } else { &[8, 16, 32, 64] };
    let reports = crate::run_ordered(bank_counts, flags.jobs, |_, &banks| {
        let rows = 16 * 1024 * 1024 / (banks * 8);
        let mem = MemConfig::new(banks, 8, rows.next_power_of_two()).map_err(|e| e.to_string())?;
        measure(&SystemConfig {
            mem,
            ..flags.config()
        })
    })
    .into_iter()
    .collect::<Result<Vec<_>, _>>()?;
    for (&banks, r) in bank_counts.iter().zip(&reports) {
        capture.record(&format!("banks|{banks}"), r)?;
        println!(
            "{:<8} {:>11.2}% {:>12}",
            banks,
            100.0 * r.utilization(),
            r.conflicts
        );
    }
    Ok(())
}
