//! Regenerates Table III: GeMM-core utilization of the DataMaestro-boosted
//! accelerator under real-world DNN workloads.
//!
//! Each network's layers run one by one on the fully featured system;
//! utilization follows the paper's footnote — theoretical computation
//! cycles without memory stalls over the active cycles, aggregated over the
//! whole network (layers weighted by their repeat counts).
//!
//! Pass `--quick` to simulate ResNet-18 only, `--jobs <n>` to fan the layer
//! runs out over `n` threads (output is byte-identical to `--jobs 1`),
//! `--metrics-out <path>` to dump one JSONL metrics snapshot per layer, and
//! `--trace-out <path>` to capture a Perfetto trace of the first simulated
//! layer.

use dm_sim::{StallAttribution, TraceMode};
use dm_workloads::table3_models;

fn main() {
    let args = dm_bench::parse_args();
    let quick = args.quick;
    let mut metrics_log = dm_bench::MetricsLog::create(args.metrics_out.as_deref())
        .unwrap_or_else(|e| panic!("opening metrics log: {e}"));
    let mut trace_pending = args.trace_out.as_deref();
    let paper = [
        ("ResNet-18", "CNN", 95.45),
        ("VGG-16", "CNN", 100.00),
        ("ViT-B-16", "Transformer", 99.98),
        ("BERT-Base", "Transformer", 97.85),
    ];
    println!("Table III: GeMM core utilization under real-world DNN workloads");
    println!(
        "{:<12} {:<12} {:>14} {:>12}",
        "network", "type", "measured util", "paper util"
    );
    dm_bench::rule(54);
    let cfg = args.system_config();
    if args.lint {
        let items: Vec<_> = table3_models()
            .iter()
            .filter(|m| !quick || m.name == "ResNet-18")
            .flat_map(|m| {
                m.layers.iter().map(|layer| {
                    (
                        format!("{}/{}", m.name, layer.name),
                        cfg.features,
                        layer.workload,
                    )
                })
            })
            .collect();
        dm_bench::lint_gate("table3", &items, &cfg.mem, cfg.depths);
    }
    for (model, (_, _, paper_util)) in table3_models().iter().zip(paper) {
        if quick && model.name != "ResNet-18" {
            continue;
        }
        let mut ideal = 0u64;
        let mut total = 0u64;
        let mut attribution = StallAttribution::new();
        // Layers fan out over `--jobs` threads; trace capture is pinned to
        // the first layer of the first simulated model so it stays
        // independent of thread scheduling, and the reporting below commits
        // in layer order.
        let trace_first = trace_pending.is_some();
        let reports = dm_bench::run_ordered(&model.layers, args.jobs, |i, layer| {
            let mut layer_cfg = cfg;
            if trace_first && i == 0 {
                layer_cfg.trace = TraceMode::Full;
            }
            dm_bench::measure(&layer_cfg, layer.workload, i as u64)
                .unwrap_or_else(|e| panic!("{} / {}: {e}", model.name, layer.name))
        });
        for (i, (layer, report)) in model.layers.iter().zip(&reports).enumerate() {
            if let Some(path) = trace_pending.filter(|_| i == 0) {
                dm_bench::write_trace(path, &report.traces)
                    .unwrap_or_else(|e| panic!("writing trace to {path}: {e}"));
                eprintln!(
                    "  wrote Perfetto trace of {}/{} to {path}",
                    model.name, layer.name
                );
                trace_pending = None;
            }
            metrics_log
                .record(&format!("{}/{}", model.name, layer.name), report)
                .unwrap_or_else(|e| panic!("writing metrics line: {e}"));
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
    metrics_log
        .finish()
        .unwrap_or_else(|e| panic!("flushing metrics log: {e}"));
}
