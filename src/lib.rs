//! # DataMaestro reproduction — umbrella crate
//!
//! A Rust reproduction of *DataMaestro: A Versatile and Efficient Data
//! Streaming Engine Bringing Decoupled Memory Access To Dataflow
//! Accelerators* (DAC 2025), built as a cycle-level simulator of the
//! paper's full evaluation system.
//!
//! This crate simply re-exports the workspace members so examples and
//! downstream users can depend on one name:
//!
//! * [`sim`] — simulation substrate (cycles, FIFOs, arbiters, statistics);
//! * [`mem`] — multi-banked scratchpad, crossbar and address remapper;
//! * [`streamer`] — the DataMaestro core: AGUs, MICs, read/write streamers
//!   and datapath extensions;
//! * [`accel`] — the GeMM and quantization accelerator datapaths;
//! * [`workloads`] — workload specs, layouts, the 260-workload suite and
//!   the four Table III networks;
//! * [`compiler`] — workload lowering (configs, placement, pre-passes);
//! * [`analyze`] — static configuration analysis (`dm lint`): bank-conflict
//!   proofs, footprint/hazard checks, deadlock detection, mode advice;
//! * [`system`] — the assembled evaluation system and its cycle loop;
//! * [`baselines`] — analytic models of the SotA comparison points;
//! * [`cost`] — area, power and FPGA-resource models.
//!
//! # Examples
//!
//! ```
//! use datamaestro_repro::system::{run_workload, SystemConfig};
//! use datamaestro_repro::workloads::{GemmSpec, WorkloadData};
//!
//! let data = WorkloadData::generate(GemmSpec::new(32, 32, 32).into(), 0);
//! let report = run_workload(&SystemConfig::default(), &data)?;
//! assert!(report.utilization() > 0.9);
//! # Ok::<(), datamaestro_repro::system::SystemError>(())
//! ```

pub use datamaestro as streamer;
pub use dm_accel as accel;
pub use dm_analyze as analyze;
pub use dm_baselines as baselines;
pub use dm_compiler as compiler;
pub use dm_cost as cost;
pub use dm_mem as mem;
pub use dm_sim as sim;
pub use dm_system as system;
pub use dm_workloads as workloads;
