//! Provenance stamps for run reports.
//!
//! The regression observatory compares `BENCH_*.json` baselines produced at
//! different commits, possibly months apart. A comparison is only meaningful
//! when both runs measured *the same experiment*; [`Provenance`] makes that
//! checkable by construction: every [`RunReport`](crate::RunReport) carries
//! a deterministic fingerprint of the behaviour-relevant system
//! configuration, the workload identity and the crate version. Two reports
//! with equal fingerprints measured the same simulated system on the same
//! workload; `dm regress diff` refuses to compare entries whose fingerprints
//! were produced by different configurations.
//!
//! The fingerprint deliberately EXCLUDES settings that cannot change
//! simulated behaviour — output checking, trace capture, host phase timing,
//! fast-forward elision, fire-cycle recording — so turning diagnostics on
//! or off does not invalidate a baseline.

use dm_sim::{JsonValue, StableHasher};
use dm_workloads::Workload;

use crate::system::SystemConfig;

/// Deterministic identity of one measured run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Provenance {
    /// 16-hex-digit FNV-1a fingerprint of config × workload × version.
    pub fingerprint: String,
    /// The workspace crate version that produced the report.
    pub crate_version: String,
    /// Workload identity string (its `Display` form, e.g. `gemm 64x64x64`).
    pub workload: String,
}

impl Provenance {
    /// Stamps a run: hashes every behaviour-relevant configuration field,
    /// the workload id and the crate version into one stable fingerprint.
    #[must_use]
    pub fn stamp(config: &SystemConfig, workload: Workload) -> Self {
        let crate_version = env!("CARGO_PKG_VERSION").to_owned();
        let workload = workload.to_string();
        let mut h = StableHasher::new();
        // Memory geometry.
        h.write_usize(config.mem.num_banks());
        h.write_usize(config.mem.bank_width_bytes());
        h.write_usize(config.mem.rows_per_bank());
        // PE array shape.
        h.write_usize(config.array.m_unroll);
        h.write_usize(config.array.n_unroll);
        h.write_usize(config.array.k_unroll);
        // DataMaestro feature set (the fig7 ablation axis).
        h.write_bool(config.features.fine_grained_prefetch);
        h.write_bool(config.features.transposer);
        h.write_bool(config.features.broadcaster);
        h.write_bool(config.features.implicit_im2col);
        h.write_bool(config.features.addr_mode_switching);
        // Buffer depths and datapath options.
        h.write_usize(config.depths.data);
        h.write_usize(config.depths.write_data);
        h.write_usize(config.depths.addr);
        h.write_bool(config.quantized);
        h.write_u64(config.read_latency);
        // Identity of the experiment, not of the hardware.
        h.write_str(&workload);
        h.write_str(&crate_version);
        Provenance {
            fingerprint: h.finish_hex(),
            crate_version,
            workload,
        }
    }

    /// Serializes to a JSON object for `BENCH_*.json` embedding.
    #[must_use]
    pub fn to_json(&self) -> JsonValue {
        JsonValue::object([
            (
                "fingerprint".to_owned(),
                JsonValue::from(self.fingerprint.as_str()),
            ),
            (
                "crate_version".to_owned(),
                JsonValue::from(self.crate_version.as_str()),
            ),
            (
                "workload".to_owned(),
                JsonValue::from(self.workload.as_str()),
            ),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dm_compiler::FeatureSet;
    use dm_sim::TraceMode;
    use dm_workloads::GemmSpec;

    fn workload() -> Workload {
        GemmSpec::new(16, 16, 16).into()
    }

    #[test]
    fn identical_runs_fingerprint_identically() {
        let a = Provenance::stamp(&SystemConfig::default(), workload());
        let b = Provenance::stamp(&SystemConfig::default(), workload());
        assert_eq!(a, b);
        assert_eq!(a.fingerprint.len(), 16);
    }

    #[test]
    fn behavioural_changes_move_the_fingerprint() {
        let base = Provenance::stamp(&SystemConfig::default(), workload());
        let features = Provenance::stamp(
            &SystemConfig::default().with_features(FeatureSet::baseline()),
            workload(),
        );
        assert_ne!(base.fingerprint, features.fingerprint);
        let latency = Provenance::stamp(
            &SystemConfig {
                read_latency: 4,
                ..SystemConfig::default()
            },
            workload(),
        );
        assert_ne!(base.fingerprint, latency.fingerprint);
        let other_workload =
            Provenance::stamp(&SystemConfig::default(), GemmSpec::new(32, 16, 16).into());
        assert_ne!(base.fingerprint, other_workload.fingerprint);
    }

    #[test]
    fn diagnostics_do_not_move_the_fingerprint() {
        let base = Provenance::stamp(&SystemConfig::default(), workload());
        let diagnosed = Provenance::stamp(
            &SystemConfig {
                check_output: false,
                trace: TraceMode::Full,
                flow_events: true,
                time_phases: true,
                fast_forward: false,
                record_fire_cycles: true,
                ..SystemConfig::default()
            },
            workload(),
        );
        assert_eq!(base.fingerprint, diagnosed.fingerprint);
    }

    #[test]
    fn json_embeds_all_fields() {
        let p = Provenance::stamp(&SystemConfig::default(), workload());
        let v = p.to_json();
        assert_eq!(
            v.get("fingerprint").unwrap().as_str().unwrap(),
            p.fingerprint
        );
        assert_eq!(
            v.get("workload").unwrap().as_str().unwrap(),
            "gemm 16x16x16"
        );
        assert!(v.get("crate_version").unwrap().as_str().is_some());
    }
}
