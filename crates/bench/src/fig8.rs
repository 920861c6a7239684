//! Fig. 8 (`dm fig8`): FPGA resource utilization of the evaluation system
//! (structural LUT/FF estimate standing in for the VPK180 implementation;
//! see DESIGN.md §3 for the substitution rationale).

use dm_cost::{fpga::fpga_report, EvaluationSystemSpec};

/// Prints Fig. 8 to stdout.
pub fn print() {
    let spec = EvaluationSystemSpec::paper();
    let report = fpga_report(&spec);
    let total = report.total();

    println!("Fig. 8: FPGA resource estimate of the DataMaestro evaluation system");
    println!("(paper measured on AMD Versal VPK180 at 125 MHz)");
    println!();
    println!("{:<28} {:>10} {:>10}", "component", "LUTs", "Regs");
    crate::rule(50);
    let rows = [
        ("GeMM accelerator (8x8x8)", report.gemm),
        ("Quantization accelerator", report.quant),
        ("Five DataMaestros", report.datamaestros),
        ("Crossbar + mem control", report.interconnect),
        ("RISC-V host + platform", report.host),
    ];
    for (name, r) in rows {
        println!("{:<28} {:>10} {:>10}", name, r.luts, r.regs);
    }
    crate::rule(50);
    println!("{:<28} {:>10} {:>10}", "total", total.luts, total.regs);
    println!();
    println!(
        "GeMM LUT share        : {:>6.2}%   (paper: 46.79%)",
        report.lut_share_pct(report.gemm)
    );
    println!(
        "GeMM reg share        : {:>6.2}%   (paper: 13.56%)",
        report.reg_share_pct(report.gemm)
    );
    println!(
        "DataMaestro LUT share : {:>6.2}%   (paper:  5.28%)",
        report.lut_share_pct(report.datamaestros)
    );
    println!(
        "DataMaestro reg share : {:>6.2}%   (paper:  7.46%)",
        report.reg_share_pct(report.datamaestros)
    );
    println!("totals (paper)        : 265k LUTs, 59k regs");
}
