//! Fig. 9 (`dm fig9`): system cell-area breakdown (a), the area
//! composition of DataMaestro A (b), and the power breakdown while
//! executing GeMM-64 at 1 GHz (c).
//!
//! Areas come from the structural model in `dm-cost`; the power breakdown
//! multiplies per-event energies by activity counts measured by the cycle
//! simulator on the actual GeMM-64 run, which `--metrics-out` and
//! `--trace-out` capture.

use dm_cost::area::system_area;
use dm_cost::energy::power_breakdown;
use dm_cost::{EnergyModel, EvaluationSystemSpec, UnitAreas};
use dm_workloads::GemmSpec;

use crate::cli::{Capture, RunFlags};

/// Prints Fig. 9, simulating GeMM-64 for the power breakdown.
///
/// # Errors
///
/// Returns a failed run or a capture I/O error.
pub fn run(flags: &RunFlags, capture: &mut Capture) -> Result<(), String> {
    let spec = EvaluationSystemSpec::paper();
    let areas = system_area(&spec, &UnitAreas::default());

    println!("Fig. 9(a): system cell-area breakdown (GF22FDX-like structural model)");
    println!("total: {:.3} mm^2   (paper: 0.61 mm^2)", areas.total_mm2());
    println!();
    println!("{:<26} {:>12} {:>8}", "component", "area (um^2)", "share");
    crate::rule(48);
    let dm_total = areas.datamaestro_total();
    for (name, a) in [
        ("GeMM accelerator", areas.gemm),
        ("Quantization accelerator", areas.quant),
        ("Five DataMaestros", dm_total),
        ("Scratchpad SRAM", areas.scratchpad),
        ("Crossbar", areas.crossbar),
        ("RISC-V host", areas.host),
    ] {
        println!("{:<26} {:>12.0} {:>7.2}%", name, a, areas.share_pct(a));
    }
    println!(
        "\nDataMaestro share: {:.2}% (paper: 6.43%); per-instance shares:",
        areas.share_pct(dm_total)
    );
    for (name, dm) in ["A", "B", "C", "D", "E"].iter().zip(&areas.datamaestros) {
        println!(
            "  DataMaestro {:<2} {:>6.2}%",
            name,
            areas.share_pct(dm.total())
        );
    }

    println!("\nFig. 9(b): area composition of DataMaestro A");
    let a = &areas.datamaestros[0];
    for (name, v, paper) in [
        ("data FIFOs", a.fifos, "87.76%"),
        ("AGU (6-D temporal + spatial)", a.agu, "10.00%"),
        ("MICs", a.mics, "1.04%"),
        ("Transposer", a.extensions, "1.75%"),
        ("address remapper", a.remapper, "0.49%"),
    ] {
        println!(
            "  {:<30} {:>6.2}%   (paper: {})",
            name,
            100.0 * v / a.total(),
            paper
        );
    }

    // --- Fig. 9(c): power while executing GeMM-64 at 1 GHz --------------
    let report = crate::measure(
        &capture.config(flags.config(), true),
        GemmSpec::new(64, 64, 64).into(),
        9,
    )
    .map_err(|e| format!("GeMM-64: {e}"))?;
    capture.record("GeMM-64", &report)?;
    let events = crate::gemm64_energy_events(&report);
    let power = power_breakdown(&events, &EnergyModel::default(), 1e9);
    println!("\nFig. 9(c): power breakdown executing GeMM-64 at 1 GHz");
    println!(
        "total: {:.1} mW   (paper: 329.4 mW); utilization of the run: {}",
        power.total_mw(),
        crate::pct(report.utilization())
    );
    for (name, p) in [
        ("GeMM accelerator", power.gemm_mw),
        ("Quantization accelerator", power.quant_mw),
        ("Five DataMaestros", power.datamaestros_mw),
        ("Scratchpad + crossbar", power.memory_mw),
        ("RISC-V host", power.host_mw),
        ("clock tree / leakage", power.static_mw),
    ] {
        println!("  {:<26} {:>8.1} mW {:>7.2}%", name, p, power.share_pct(p));
    }
    println!(
        "\nDataMaestro power share: {:.2}% (paper: 15.06%)",
        power.share_pct(power.datamaestros_mw)
    );
    println!(
        "system efficiency: {:.2} TOPS/W (paper: 2.57 TOPS/W)",
        power.tops_per_watt(events.macs, events.cycles, 1e9)
    );
    Ok(())
}
