//! Feature ablation on a handful of representative workloads: reproduces
//! the mechanism of Fig. 7 at a glance (the full 260-workload sweep lives
//! in `cargo run -p dm-bench --release --bin dm -- fig7`).
//!
//! ```text
//! cargo run --release --example ablation
//! ```

use datamaestro_repro::compiler::FeatureSet;
use datamaestro_repro::system::{run_workload, SystemConfig};
use datamaestro_repro::workloads::{ConvSpec, GemmSpec, Workload, WorkloadData};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let workloads: Vec<(&str, Workload)> = vec![
        ("GeMM 64^3", GemmSpec::new(64, 64, 64).into()),
        ("GeMM 128x64x96", GemmSpec::new(128, 64, 96).into()),
        ("tGeMM 64^3", GemmSpec::transposed(64, 64, 64).into()),
        ("conv 3x3 s1", ConvSpec::new(34, 34, 32, 32, 3, 3, 1).into()),
        ("conv 3x3 s2", ConvSpec::new(33, 33, 32, 32, 3, 3, 2).into()),
    ];

    println!(
        "{:<16} {:>10} {:>10} {:>10} {:>10} {:>10} {:>10}",
        "workload", "1:base", "2:pref", "3:transp", "4:bcast", "5:im2col", "6:modes"
    );
    for (name, workload) in &workloads {
        let data = WorkloadData::generate(*workload, 7);
        print!("{name:<16}");
        for step in 1..=6 {
            let cfg = SystemConfig::default().with_features(FeatureSet::ablation_step(step));
            let report = run_workload(&cfg, &data)?;
            print!(" {:>9.1}%", 100.0 * report.utilization());
        }
        println!();
    }

    println!("\naccess counts (words), same sweep:");
    for (name, workload) in &workloads {
        let data = WorkloadData::generate(*workload, 7);
        print!("{name:<16}");
        for step in 1..=6 {
            let cfg = SystemConfig::default().with_features(FeatureSet::ablation_step(step));
            let report = run_workload(&cfg, &data)?;
            print!(" {:>10}", report.accesses());
        }
        println!();
    }
    Ok(())
}
