//! Per-kernel utilization models for the Fig. 10 throughput comparison.
//!
//! Fig. 10 (left) normalizes every accelerator to 512 PEs at 1 GHz, so the
//! comparison reduces to each system's *PE-array utilization* on each
//! kernel. The models below are mechanism-based approximations:
//!
//! * **Gemmini (OS)** — 16×16 systolic array, output stationary. Operand
//!   loads (`mvin`) and result stores (`mvout`) share a scratchpad with no
//!   bank-conflict management, serializing against compute; the array also
//!   pays a fill+drain bubble per output tile. The DAC'21 paper and the
//!   DataMaestro paper both report utilizations collapsing to ~10 % on
//!   unfavourable shapes.
//! * **Gemmini (WS)** — weight stationary: a 16-deep weight reload bubble
//!   per `16×16×16` block, amortized over the M dimension; small-M kernels
//!   (attention heads, FC layers) suffer most.
//! * **FEATHER** — reconfigurable array with in-network reordering
//!   (BIRRD); sustains high utilization across dataflows, limited mainly by
//!   per-tile pipeline refill on small shapes (ISCA'24 reports ~90 %).
//! * **BitWave** — bit-column-serial design heavily specialized for
//!   convolutions; the DataMaestro paper's own motivation notes it "falls
//!   short in general matrix-matrix multiplication".
//!
//! Constants are calibrated to the published utilization figures of each
//! system, not fitted to DataMaestro's results.

use dm_workloads::{Workload, WorkloadGroup};

/// The comparison systems of Fig. 10 (left).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Baseline {
    /// Gemmini, output-stationary mode.
    GemminiOs,
    /// Gemmini, weight-stationary mode.
    GemminiWs,
    /// FEATHER (ISCA 2024).
    Feather,
    /// BitWave (HPCA 2024).
    BitWave,
}

impl Baseline {
    /// All four baselines in the paper's plotting order.
    pub const ALL: [Baseline; 4] = [
        Baseline::GemminiOs,
        Baseline::GemminiWs,
        Baseline::Feather,
        Baseline::BitWave,
    ];

    /// Display name used in figures.
    #[must_use]
    pub fn name(&self) -> &'static str {
        match self {
            Baseline::GemminiOs => "Gemmini-OS",
            Baseline::GemminiWs => "Gemmini-WS",
            Baseline::Feather => "FEATHER",
            Baseline::BitWave => "BitWave",
        }
    }
}

impl std::fmt::Display for Baseline {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// Effective GeMM dimensions of a workload (convolutions via im2col);
/// `None` for pooling, which no baseline models.
fn gemm_dims(workload: &Workload) -> Option<(f64, f64, f64)> {
    match workload {
        Workload::Gemm(g) => Some((g.m as f64, g.n as f64, g.k as f64)),
        Workload::Conv(c) => {
            let (m, n, k) = c.as_im2col_gemm();
            Some((m as f64, n as f64, k as f64))
        }
        Workload::Pool(_) => None,
    }
}

/// PE-array utilization of a baseline on a workload (0..=1), or `None` for
/// a kernel the baselines' published figures do not cover (pooling).
#[must_use]
pub fn utilization(baseline: Baseline, workload: &Workload) -> Option<f64> {
    let (m, n, k) = gemm_dims(workload)?;
    let group = workload.group();
    let strided = matches!(workload, Workload::Conv(c) if c.stride > 1);
    match baseline {
        Baseline::GemminiOs => {
            // Per 16×16 output tile: K compute cycles; mvin of *both*
            // operands (2×2K cycles, serialized through the shared
            // single-port scratchpad with no bank-conflict management) and
            // a 32-cycle mvout + fill/drain bubble.
            let compute = k;
            let moves = 4.0 * k + 32.0;
            let bubbles = 32.0;
            let mut util = compute / (compute + moves + bubbles);
            // Convolutions funnel through CPU/DMA-staged im2col, starving
            // the array (the mechanism behind Gemmini's reported ~10 %
            // conv utilizations).
            if group == WorkloadGroup::Conv {
                util *= 0.3;
            }
            if strided {
                util *= 0.5;
            }
            // Transposed operands need a staging pass.
            if group == WorkloadGroup::TransposedGemm {
                util *= 0.7;
            }
            // Partial edge tiles when M or N is not a multiple of 16.
            Some(util * edge_factor(m, 16.0) * edge_factor(n, 16.0))
        }
        Baseline::GemminiWs => {
            // Per 16×16×16 block: 16-cycle weight reload, then M rows of
            // streaming; double buffering hides part of the reload.
            let reload = 10.0;
            let mut util = m / (m + reload + 16.0);
            if group == WorkloadGroup::Conv {
                util *= 0.75;
            }
            // Strided windows break the row-streaming pattern WS relies on.
            if strided {
                util *= 0.45;
            }
            if group == WorkloadGroup::TransposedGemm {
                util *= 0.8;
            }
            Some(util * edge_factor(m, 16.0) * edge_factor(n, 16.0))
        }
        Baseline::Feather => {
            // Near-ideal dataflow switching; the BIRRD reordering network
            // costs a short refill bubble per output tile, amortized over
            // the K accumulation.
            let k_tiles = k / 8.0;
            let mut util = 0.97 * k_tiles / (k_tiles + 1.5);
            // Strided gathers defeat BIRRD's in-network reordering and
            // fall back to serialized fetches.
            if strided {
                util *= 0.55;
            }
            Some(util)
        }
        Baseline::BitWave => {
            // Strong on convolutions (bit-column sparsity exploits weight
            // structure); weak on dense GeMM where the bit-serial datapath
            // and its rigid fetch patterns underutilize.
            let base = match group {
                WorkloadGroup::Conv => 0.82,
                WorkloadGroup::Gemm => 0.38,
                WorkloadGroup::TransposedGemm => 0.30,
                WorkloadGroup::Pool => return None,
            };
            let k_tiles = k / 8.0;
            let mut util = base * k_tiles / (k_tiles + 2.0);
            if strided {
                util *= 0.5;
            }
            Some(util)
        }
    }
}

/// Penalty for ragged edges when a dimension is not a multiple of the
/// array tiling.
fn edge_factor(dim: f64, tile: f64) -> f64 {
    let tiles = (dim / tile).ceil();
    dim / (tiles * tile)
}

/// Normalized throughput in TOPS at 512 PEs × 1 GHz (2 ops per MAC), as
/// plotted in Fig. 10 (left).
#[must_use]
pub fn normalized_throughput_tops(utilization: f64) -> f64 {
    2.0 * 512.0 * 1e9 * utilization / 1e12
}

/// One row of Fig. 10 (right): data-movement hardware overhead inside the
/// full accelerator system, as published by each cited paper.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DataMovementCost {
    /// System name.
    pub system: &'static str,
    /// Area share of the data-movement hardware (percent of system).
    pub area_pct: f64,
    /// Power share (percent of system), if published.
    pub power_pct: Option<f64>,
}

/// The published area/power overheads quoted in Fig. 10 (right), excluding
/// DataMaestro itself (whose numbers come from the `dm-cost` model).
#[must_use]
pub fn data_movement_costs() -> Vec<DataMovementCost> {
    vec![
        DataMovementCost {
            system: "Buffet",
            area_pct: 2.0,
            power_pct: Some(14.0),
        },
        DataMovementCost {
            system: "Softbrain",
            area_pct: 4.3,
            power_pct: Some(15.3),
        },
        DataMovementCost {
            system: "BitWave",
            area_pct: 11.9,
            power_pct: Some(25.5),
        },
        DataMovementCost {
            system: "FEATHER",
            area_pct: 8.9,
            power_pct: None,
        },
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use dm_workloads::{ConvSpec, GemmSpec, PoolSpec};

    fn gemm64() -> Workload {
        GemmSpec::new(64, 64, 64).into()
    }

    fn util(baseline: Baseline, workload: &Workload) -> f64 {
        utilization(baseline, workload).expect("GeMM and convolution are modelled")
    }

    #[test]
    fn no_baseline_models_pooling() {
        let pool: Workload = PoolSpec::new(16, 16, 8, 2, 2).into();
        for b in Baseline::ALL {
            assert_eq!(utilization(b, &pool), None, "{b}");
        }
    }

    #[test]
    fn utilizations_are_probabilities() {
        let workloads: Vec<Workload> = vec![
            gemm64(),
            GemmSpec::new(8, 8, 8).into(),
            GemmSpec::transposed(64, 64, 64).into(),
            ConvSpec::new(58, 58, 64, 64, 3, 3, 1).into(),
            ConvSpec::new(58, 58, 64, 64, 3, 3, 2).into(),
        ];
        for b in Baseline::ALL {
            for w in &workloads {
                let u = util(b, w);
                assert!((0.0..=1.0).contains(&u), "{b} on {w}: {u}");
            }
        }
    }

    #[test]
    fn gemmini_os_collapses_on_gemm() {
        let u = util(Baseline::GemminiOs, &gemm64());
        assert!(u < 0.35, "OS should be low, got {u}");
    }

    #[test]
    fn gemmini_ws_beats_os_on_large_m() {
        let w: Workload = GemmSpec::new(192, 64, 64).into();
        assert!(util(Baseline::GemminiWs, &w) > util(Baseline::GemminiOs, &w));
    }

    #[test]
    fn feather_is_the_strongest_baseline_on_gemm() {
        let w = gemm64();
        let feather = util(Baseline::Feather, &w);
        for b in [Baseline::GemminiOs, Baseline::GemminiWs, Baseline::BitWave] {
            assert!(feather > util(b, &w), "{b} beat FEATHER");
        }
        assert!(feather > 0.8);
    }

    #[test]
    fn bitwave_prefers_conv_over_gemm() {
        let conv: Workload = ConvSpec::new(58, 58, 64, 64, 3, 3, 1).into();
        let u_conv = util(Baseline::BitWave, &conv);
        let u_gemm = util(Baseline::BitWave, &gemm64());
        assert!(u_conv > 1.5 * u_gemm, "conv {u_conv} vs gemm {u_gemm}");
    }

    #[test]
    fn strided_conv_hurts_everyone() {
        let s1: Workload = ConvSpec::new(58, 58, 64, 64, 3, 3, 1).into();
        let s2: Workload = ConvSpec::new(58, 58, 64, 64, 3, 3, 2).into();
        for b in Baseline::ALL {
            assert!(util(b, &s2) < util(b, &s1), "{b}");
        }
    }

    #[test]
    fn throughput_normalization() {
        // Full utilization at 512 PEs × 1 GHz = 1.024 TOPS.
        assert!((normalized_throughput_tops(1.0) - 1.024).abs() < 1e-9);
        assert_eq!(normalized_throughput_tops(0.0), 0.0);
    }

    #[test]
    fn cost_table_matches_published_numbers() {
        let costs = data_movement_costs();
        assert_eq!(costs.len(), 4);
        let buffet = costs.iter().find(|c| c.system == "Buffet").unwrap();
        assert_eq!(buffet.area_pct, 2.0);
        assert_eq!(buffet.power_pct, Some(14.0));
        let feather = costs.iter().find(|c| c.system == "FEATHER").unwrap();
        assert_eq!(feather.power_pct, None);
    }
}
