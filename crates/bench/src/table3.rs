//! Table III (`dm table3`): GeMM-core utilization of the
//! DataMaestro-boosted accelerator under real-world DNN workloads.
//!
//! Each network's layers run one by one on the fully featured system;
//! utilization follows the paper's footnote — theoretical computation
//! cycles without memory stalls over the active cycles, aggregated over the
//! whole network (layers weighted by their repeat counts).
//!
//! `--quick` simulates ResNet-18 only, and the Perfetto trace
//! (`--trace-out`) captures the first simulated layer.

use dm_sim::StallAttribution;
use dm_workloads::table3_models;

use crate::cli::{Capture, RunFlags};

/// Simulates every layer of each network and prints Table III.
///
/// # Errors
///
/// Returns the first failed run, a failed `--lint` pre-flight or a capture
/// I/O error.
pub fn run(flags: &RunFlags, capture: &mut Capture) -> Result<(), String> {
    let paper = [
        ("ResNet-18", "CNN", 95.45),
        ("VGG-16", "CNN", 100.00),
        ("ViT-B-16", "Transformer", 99.98),
        ("BERT-Base", "Transformer", 97.85),
    ];
    let models: Vec<_> = table3_models()
        .into_iter()
        .zip(paper)
        .filter(|(model, _)| flags.full || model.name == "ResNet-18")
        .collect();
    println!("Table III: GeMM core utilization under real-world DNN workloads");
    println!(
        "{:<12} {:<12} {:>14} {:>12}",
        "network", "type", "measured util", "paper util"
    );
    crate::rule(54);
    let cfg = flags.config();
    if flags.lint {
        let items: Vec<_> = models
            .iter()
            .flat_map(|(m, _)| {
                m.layers.iter().map(|layer| {
                    (
                        format!("{}/{}", m.name, layer.name),
                        cfg.features,
                        layer.workload,
                    )
                })
            })
            .collect();
        crate::lint_gate("table3", &items)?;
    }
    for (model, (_, _, paper_util)) in &models {
        let mut ideal = 0u64;
        let mut total = 0u64;
        let mut attribution = StallAttribution::new();
        // Layers fan out over `--jobs` threads; the trace is pinned to the
        // first layer of the first simulated model, and the reporting below
        // commits in layer order.
        let reports = crate::run_ordered(&model.layers, flags.jobs, |i, layer| {
            crate::measure(&capture.config(cfg, i == 0), layer.workload, i as u64)
                .map_err(|e| format!("{} / {}: {e}", model.name, layer.name))
        })
        .into_iter()
        .collect::<Result<Vec<_>, _>>()?;
        for (layer, report) in model.layers.iter().zip(&reports) {
            capture.record(&format!("{}/{}", model.name, layer.name), report)?;
            ideal += report.ideal_cycles * u64::from(layer.repeat);
            total += report.total_cycles() * u64::from(layer.repeat);
            attribution.merge(&report.ledger.attribution());
            eprintln!(
                "  {:<12} {:<28} {:>8.2}%  ({} runs)",
                model.name,
                layer.name,
                100.0 * report.utilization(),
                layer.repeat
            );
        }
        let util = 100.0 * ideal as f64 / total as f64;
        println!(
            "{:<12} {:<12} {:>13.2}% {:>11.2}%",
            model.name, model.family, util, paper_util
        );
        let stalled = attribution.stalled();
        if stalled > 0 {
            let causes: Vec<String> = attribution
                .breakdown()
                .into_iter()
                .map(|(cause, n)| {
                    format!(
                        "{} {:.1}%",
                        cause.label(),
                        100.0 * n as f64 / stalled as f64
                    )
                })
                .collect();
            eprintln!(
                "  stall causes (unweighted layer sum): {}",
                causes.join(", ")
            );
        }
    }
    Ok(())
}
