//! Fig. 10 (`dm fig10`): normalized throughput against SotA DNN
//! accelerators (left) and the data-movement area/power cost comparison
//! (right).
//!
//! DataMaestro's utilization is *measured* by the cycle simulator on each
//! representative kernel; the baselines use the mechanism-based analytic
//! models of `dm-baselines` (see that crate's documentation). All systems
//! are normalized to 512 PEs at 1 GHz, as in the paper.
//!
//! `--quick` simulates every other kernel only, and the Perfetto trace
//! (`--trace-out`) captures the first kernel.

use dm_baselines::{data_movement_costs, normalized_throughput_tops, utilization, Baseline};
use dm_cost::area::system_area;
use dm_cost::energy::power_breakdown;
use dm_cost::{EnergyModel, EvaluationSystemSpec, UnitAreas};
use dm_workloads::GemmSpec;

use crate::cli::{Capture, RunFlags};

/// Simulates each representative kernel and prints Fig. 10.
///
/// # Errors
///
/// Returns the first failed run or a capture I/O error.
pub fn run(flags: &RunFlags, capture: &mut Capture) -> Result<(), String> {
    let kernels: Vec<_> = crate::representative_kernels()
        .into_iter()
        .enumerate()
        .filter(|(i, _)| flags.full || i % 2 == 0)
        .map(|(_, k)| k)
        .collect();
    let cfg = flags.config();

    println!("Fig. 10 (left): normalized throughput in TOPS (512 PEs @ 1 GHz)");
    println!(
        "{:<22} {:>9} {:>11} {:>11} {:>9} {:>9} {:>11}",
        "kernel", "ours", "Gemmini-OS", "Gemmini-WS", "FEATHER", "BitWave", "gain range"
    );
    crate::rule(90);
    let mut min_gain = f64::MAX;
    let mut max_gain = 0.0f64;
    for (i, (name, workload)) in kernels.iter().enumerate() {
        let report = crate::measure(&capture.config(cfg, i == 0), *workload, i as u64)
            .map_err(|e| format!("{name}: {e}"))?;
        capture.record(name, &report)?;
        let ours = normalized_throughput_tops(report.utilization());
        let mut row = format!("{name:<22} {ours:>9.3}");
        let mut kernel_min = f64::MAX;
        let mut kernel_max = 0.0f64;
        for baseline in Baseline::ALL {
            let modelled = utilization(baseline, workload)
                .ok_or_else(|| format!("{name}: {baseline} has no model for {workload}"))?;
            let theirs = normalized_throughput_tops(modelled);
            let gain = ours / theirs;
            kernel_min = kernel_min.min(gain);
            kernel_max = kernel_max.max(gain);
            let width = match baseline {
                Baseline::GemminiOs | Baseline::GemminiWs => 11,
                _ => 9,
            };
            row.push_str(&format!(" {theirs:>width$.3}"));
        }
        min_gain = min_gain.min(kernel_min);
        max_gain = max_gain.max(kernel_max);
        println!("{row} {:>4.2}-{:.2}x", kernel_min, kernel_max);
    }
    println!(
        "\nheadline: DataMaestro gains {min_gain:.2}x - {max_gain:.2}x over SotA \
         (paper: 1.05x - 21.39x)"
    );

    // --- Fig. 10 (right): data-movement hardware cost --------------------
    println!("\nFig. 10 (right): data-movement area/power inside the whole system");
    println!("{:<14} {:>8} {:>8}", "system", "area", "power");
    crate::rule(32);
    for row in data_movement_costs() {
        println!(
            "{:<14} {:>7.2}% {:>8}",
            row.system,
            row.area_pct,
            row.power_pct
                .map_or("n/a".to_string(), |p| format!("{p:.2}%"))
        );
    }
    // DataMaestro's own numbers come from the cost model, not the paper.
    let spec = EvaluationSystemSpec::paper();
    let areas = system_area(&spec, &UnitAreas::default());
    let report = crate::measure(&cfg, GemmSpec::new(64, 64, 64).into(), 0)
        .map_err(|e| format!("GeMM-64: {e}"))?;
    capture.record("GeMM-64|cost-model", &report)?;
    let events = crate::gemm64_energy_events(&report);
    let power = power_breakdown(&events, &EnergyModel::default(), 1e9);
    println!(
        "{:<14} {:>7.2}% {:>7.2}%   (paper: 6.43% / 15.06%)",
        "DataMaestro",
        areas.share_pct(areas.datamaestro_total()),
        power.share_pct(power.datamaestros_mw)
    );
    Ok(())
}
