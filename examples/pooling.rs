//! Reusability scenario 2: a complete max-pooling accelerator assembled
//! from the same DataMaestro streamers as the GeMM system — nothing inside
//! the streaming engine changes, only the elementwise-max unit and a small
//! compiler function are pooling-specific. A pooling layer is one more
//! `Workload`: it compiles to the same program type and runs through the
//! same `run_workload` as GeMM and convolution.
//!
//! ```text
//! cargo run --release --example pooling
//! ```

use datamaestro_repro::compiler::FeatureSet;
use datamaestro_repro::mem::MemConfig;
use datamaestro_repro::sim::SplitMix64;
use datamaestro_repro::system::{run_workload, SystemConfig};
use datamaestro_repro::workloads::{PoolSpec, WorkloadData};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let config = SystemConfig {
        mem: MemConfig::new(32, 8, 65_536)?,
        features: FeatureSet::full(),
        ..SystemConfig::default()
    };
    let mut rng = SplitMix64::new(7);
    let pools = [
        ("2x2/2 (VGG-style)", PoolSpec::new(56, 56, 64, 2, 2)),
        ("3x3/1", PoolSpec::new(30, 30, 32, 3, 1)),
        ("3x3/2 (ResNet stem)", PoolSpec::new(113, 113, 64, 3, 2)),
    ];
    println!(
        "{:<22} {:>8} {:>10} {:>10} {:>10}",
        "pooling layer", "util", "cycles", "ideal", "accesses"
    );
    for (name, spec) in pools {
        let mut data = WorkloadData::generate(spec.into(), 0);
        data.a = (0..spec.h * spec.w * spec.c)
            .map(|_| rng.between(i8::MIN.into(), i8::MAX.into()) as i8)
            .collect();
        let report = run_workload(&config, &data)?;
        println!(
            "{:<22} {:>7.1}% {:>10} {:>10} {:>10}",
            name,
            100.0 * report.utilization(),
            report.total_cycles(),
            report.ideal_cycles,
            report.accesses()
        );
        assert!(report.checked);
    }
    println!("\nall outputs verified against the scalar max-pooling reference");
    Ok(())
}
