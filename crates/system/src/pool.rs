//! A max-pooling accelerator assembled from the same DataMaestro streamers
//! as the GeMM system — the paper's *reusable design* claim, executed.
//!
//! One read streamer walks the pooling windows with the N-D AGU (the same
//! pattern family the convolution A stream uses), an elementwise-max unit
//! reduces `k²` window tiles, and one write streamer scatters the pooled
//! tiles back. Nothing inside the streamers changes, and the cycle loop is
//! the GeMM system's with A as the only operand reader;
//! only the elementwise max of the functional executor and the pool
//! lowering in `dm-compiler` are new.

use datamaestro::{ReadStreamer, WriteStreamer};
use dm_accel::GemmArrayConfig;
use dm_compiler::{compile_pool, BufferDepths, FeatureSet};
use dm_mem::{MemConfig, MemorySubsystem};
use dm_sim::{CausalLedger, Trace};
use dm_workloads::PoolSpec;

use crate::compute::{run_compute, Schedule};
use crate::error::SystemError;
use crate::executor;
use crate::system::{check_tile_widths, HostTimings, SystemConfig};

/// Outcome of a pooling run.
#[derive(Debug, Clone)]
pub struct PoolReport {
    /// The workload.
    pub spec: PoolSpec,
    /// Stall-free cycles.
    pub ideal_cycles: u64,
    /// Simulated cycles.
    pub cycles: u64,
    /// Memory word accesses.
    pub accesses: u64,
    /// Bank conflicts.
    pub conflicts: u64,
    /// Whether the output matched the golden max-pool reference.
    pub checked: bool,
    /// Every cycle's fire or stall, as [`RunReport::ledger`] records it.
    ///
    /// [`RunReport::ledger`]: crate::RunReport::ledger
    pub ledger: CausalLedger,
    /// Host wall-clock phase timings; `None` unless
    /// [`SystemConfig::time_phases`] was set.
    pub host: Option<HostTimings>,
}

impl PoolReport {
    /// Utilization of the pooling unit.
    #[must_use]
    pub fn utilization(&self) -> f64 {
        self.ideal_cycles as f64 / self.cycles as f64
    }
}

/// Runs a max-pooling workload on the streamer-built pooling system.
///
/// The max unit reduces 8-pixel × 8-channel int8 tiles, so the streamers
/// must move 64-byte wide words.
///
/// # Errors
///
/// Returns [`SystemError`] on lowering failure (including an `input` that
/// is not `h·w·c` values), a bank width that breaks the 64-byte tile
/// ([`SystemError::Unsupported`]), deadlock or output mismatch.
///
/// # Examples
///
/// ```
/// use dm_mem::MemConfig;
/// use dm_system::pool::run_pool;
/// use dm_workloads::PoolSpec;
///
/// let spec = PoolSpec::new(16, 16, 8, 2, 2);
/// let input: Vec<i8> = (0..16 * 16 * 8).map(|i| (i % 251) as i8).collect();
/// let report = run_pool(
///     &MemConfig::new(32, 8, 4096)?,
///     &dm_compiler::FeatureSet::full(),
///     spec,
///     &input,
/// )?;
/// assert!(report.checked);
/// assert!(report.utilization() > 0.9);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
pub fn run_pool(
    mem_cfg: &MemConfig,
    features: &FeatureSet,
    spec: PoolSpec,
    input: &[i8],
) -> Result<PoolReport, SystemError> {
    let config = SystemConfig {
        mem: *mem_cfg,
        features: *features,
        ..SystemConfig::default()
    };
    run_pool_on(&config, spec, input)
}

/// [`run_pool`] on a system build: its bank geometry, features, read
/// latency, fast-forward switch and host timing.
///
/// # Errors
///
/// As [`run_pool`].
pub fn run_pool_on(
    config: &SystemConfig,
    spec: PoolSpec,
    input: &[i8],
) -> Result<PoolReport, SystemError> {
    let mem_cfg = &config.mem;
    let program = compile_pool(
        spec,
        input,
        &config.features,
        mem_cfg,
        BufferDepths::default(),
    )?;
    let mut mem = MemorySubsystem::new(*mem_cfg);
    mem.set_read_latency(config.read_latency);
    let mut a = ReadStreamer::new(&program.a.design, &program.a.runtime, &mut mem)?;
    let mut out = WriteStreamer::new(&program.out.design, &program.out.runtime, &mut mem)?;
    let tile = GemmArrayConfig::paper().e_tile_bytes();
    check_tile_widths(
        mem_cfg,
        [
            ("A", a.output_width(), tile),
            ("OUT", out.input_width(), tile),
        ],
    )?;
    let execution = executor::execute_pool(mem_cfg, &program)?;
    let schedule = Schedule {
        k_steps: program.k_steps,
        tiles: program.total_output_tiles,
        expected: Some(&execution.tiles),
    };
    let compute = run_compute(
        config,
        &mut mem,
        std::slice::from_mut(&mut a),
        &mut out,
        &schedule,
        &mut Trace::new(),
    )?;

    let expected = program.expected_output_image(input);
    executor::check_output(&execution.pad, &program.output_region, &expected)?;
    let stats = mem.stats();
    Ok(PoolReport {
        spec,
        ideal_cycles: program.k_steps * program.total_output_tiles,
        cycles: compute.cycles,
        accesses: stats.total_accesses(),
        conflicts: stats.conflicts.get(),
        checked: true,
        ledger: compute.ledger,
        host: compute.host,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use dm_sim::SplitMix64;

    fn random_input(len: usize, seed: u64) -> Vec<i8> {
        let mut rng = SplitMix64::new(seed);
        (0..len)
            .map(|_| rng.between(i8::MIN.into(), i8::MAX.into()) as i8)
            .collect()
    }

    fn mem() -> MemConfig {
        MemConfig::new(32, 8, 4096).unwrap()
    }

    #[test]
    fn pool_2x2_stride2_verifies() {
        let spec = PoolSpec::new(16, 16, 16, 2, 2);
        let input = random_input(16 * 16 * 16, 1);
        let r = run_pool(&mem(), &FeatureSet::full(), spec, &input).unwrap();
        assert!(r.checked);
        assert!(r.utilization() > 0.9, "{:.3}", r.utilization());
    }

    #[test]
    fn pool_3x3_stride1_verifies() {
        let spec = PoolSpec::new(10, 10, 8, 3, 1);
        let input = random_input(10 * 10 * 8, 2);
        let r = run_pool(&mem(), &FeatureSet::full(), spec, &input).unwrap();
        assert!(r.checked);
    }

    #[test]
    fn pool_without_mode_switching_still_verifies() {
        let spec = PoolSpec::new(16, 16, 8, 2, 2);
        let input = random_input(16 * 16 * 8, 3);
        let r = run_pool(&mem(), &FeatureSet::baseline(), spec, &input).unwrap();
        assert!(r.checked);
    }

    #[test]
    fn fast_forward_matches_lockstep_at_long_read_latency() {
        let spec = PoolSpec::new(17, 17, 16, 3, 2);
        let input = random_input(17 * 17 * 16, 5);
        for features in [FeatureSet::full(), FeatureSet::baseline()] {
            let run = |fast_forward| {
                let config = SystemConfig {
                    mem: mem(),
                    features,
                    read_latency: 16,
                    fast_forward,
                    ..SystemConfig::default()
                };
                let r = run_pool_on(&config, spec, &input).unwrap();
                assert!(r.checked);
                (r.cycles, r.accesses, r.conflicts)
            };
            assert_eq!(run(true), run(false), "{features:?}");
        }
    }

    #[test]
    fn pool_counts_window_reads() {
        // Non-overlapping 2×2 pooling reads each input word exactly once.
        let spec = PoolSpec::new(16, 16, 8, 2, 2);
        let input = random_input(16 * 16 * 8, 4);
        let r = run_pool(&mem(), &FeatureSet::full(), spec, &input).unwrap();
        let input_words = (16 * 16 * 8 / 8) as u64;
        let output_words = (8 * 8 * 8 / 8) as u64;
        assert_eq!(r.accesses, input_words + output_words);
    }
}
