//! Known-bad configurations for exercising the analyzer.
//!
//! Each fixture is a deliberately broken system that the linter must
//! reject with a specific code; they double as `dm lint --demo` subjects
//! and as regression anchors for the differential tests.

use datamaestro::{DesignConfig, RuntimeConfig, StreamerMode};
use dm_mem::{AddressingMode, MemConfig};

use crate::graph::ChannelGraph;

/// A stream whose access pattern walks past the end of the scratchpad —
/// must be rejected with `DM-OOB`.
#[must_use]
pub fn oob_pattern() -> (DesignConfig, RuntimeConfig, MemConfig) {
    let mem = MemConfig::new(32, 8, 64).expect("geometry"); // 16 KiB
    let design = DesignConfig::builder("oob", StreamerMode::Read)
        .spatial_bounds([8])
        .build()
        .expect("design");
    let runtime = RuntimeConfig::builder()
        .base(8192)
        // 64 steps of 256 bytes starting half-way: tops out at 24 KiB.
        .temporal([64], [256])
        .spatial_strides([8])
        .addressing_mode(AddressingMode::FullyInterleaved)
        .build();
    (design, runtime, mem)
}

/// A channel graph whose data FIFO has zero capacity — must be rejected
/// with `DM-DEADLOCK`. (The `DesignConfig` builder refuses zero depths, so
/// this models a hand-built topology going through the graph directly.)
#[must_use]
pub fn zero_capacity_fifo() -> ChannelGraph {
    let mut g = ChannelGraph::new();
    let mem = g.node("mem");
    let pe = g.node("pe");
    let a = g.node("A");
    g.edge(mem, a, Some(8), "A.addr_queue");
    g.edge(a, pe, Some(0), "A.data_fifo");
    g
}

/// A GeMM operand placed under NIMA with an 8-word burst: all channels
/// land in bank 0 every cycle — must be flagged `DM-BANK-CONFLICT` with a
/// `DM-MODE-MISMATCH` advisory pointing at FIMA.
#[must_use]
pub fn nima_gemm_clash() -> (DesignConfig, RuntimeConfig, MemConfig) {
    let mem = MemConfig::new(32, 8, 1024).expect("geometry");
    let design = DesignConfig::builder("a", StreamerMode::Read)
        .spatial_bounds([8])
        .temporal_dims(3)
        .build()
        .expect("design");
    let runtime = RuntimeConfig::builder()
        .temporal([8, 8, 8], [64, 512, 4096])
        .spatial_strides([8])
        .addressing_mode(AddressingMode::NonInterleaved)
        .build();
    (design, runtime, mem)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::diagnostic::{LintCode, Severity};
    use crate::system::{analyze_streams, StreamInput};

    #[test]
    fn oob_fixture_is_rejected_with_dm_oob() {
        let (design, runtime, mem) = oob_pattern();
        let analysis = analyze_streams(
            &[StreamInput {
                design: &design,
                runtime: &runtime,
            }],
            &mem,
            0,
        );
        assert!(
            analysis.report.has_code(LintCode::Oob),
            "{:?}",
            analysis.report
        );
        assert!(analysis.report.has_errors());
        assert!(!analysis.conflict_free);
    }

    #[test]
    fn zero_capacity_fixture_is_rejected_with_dm_deadlock() {
        let diags = zero_capacity_fifo().analyze();
        assert!(diags
            .iter()
            .any(|d| d.code == LintCode::Deadlock && d.severity == Severity::Error));
    }

    #[test]
    fn nima_clash_fixture_warns_conflict_and_mode_mismatch() {
        let (design, runtime, mem) = nima_gemm_clash();
        let analysis = analyze_streams(
            &[StreamInput {
                design: &design,
                runtime: &runtime,
            }],
            &mem,
            0,
        );
        assert!(analysis.report.has_code(LintCode::BankConflict));
        assert!(analysis.report.has_code(LintCode::ModeMismatch));
        assert!(!analysis.conflict_free);
        assert!(analysis.guaranteed_min_conflicts >= 7, "8 channels, 1 bank");
        assert!(!analysis.report.passes(true), "--deny-warnings must fail");
        assert!(!analysis.report.has_errors(), "warnings, not errors");
    }
}
