//! Quickstart: run one GeMM workload through the fully featured
//! DataMaestro evaluation system and print its report.
//!
//! ```text
//! cargo run --release --example quickstart
//! ```

use datamaestro_repro::system::{run_workload, SystemConfig};
use datamaestro_repro::workloads::{GemmSpec, WorkloadData};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // A 64×64×64 int8 GeMM with per-column bias and int8 quantized output —
    // the paper's GeMM-64 reference workload.
    let workload = GemmSpec::new(64, 64, 64);
    let data = WorkloadData::generate(workload.into(), 42);

    // The default system is the paper's evaluation platform: 32-bank
    // scratchpad, five DataMaestros, an 8×8×8 GeMM array and the
    // quantization accelerator, all features enabled.
    let config = SystemConfig::default();
    let report = run_workload(&config, &data)?;

    println!("workload            : {}", report.workload);
    println!("ideal cycles        : {}", report.ideal_cycles);
    println!("simulated cycles    : {}", report.total_cycles());
    println!(
        "utilization         : {:.2} %",
        100.0 * report.utilization()
    );
    println!("memory reads        : {} words", report.mem_reads);
    println!("memory writes       : {} words", report.mem_writes);
    println!("bank conflicts      : {}", report.conflicts);
    let [a, b, c, out] = report.ledger.port_stalls().map(|(_, n)| n);
    println!("stalls (A/B/C/out)  : {a}/{b}/{c}/{out}");
    println!(
        "output verified against the scalar golden model: {}",
        report.checked
    );
    Ok(())
}
