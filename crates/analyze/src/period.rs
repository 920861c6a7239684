//! Steady-state period proofs for dual-counter AGU request streams.
//!
//! A dual-counter affine AGU is a finite loop nest over constant strides:
//! the burst it issues at temporal step `t` is a pure function of the
//! nest's counter vector at `t`, and the counter vector itself cycles with
//! the nest. The *bank signature* of a step — the per-channel vector of
//! physical banks its words map to under the stream's addressing mode —
//! therefore traces out an eventually-exactly-periodic sequence. This
//! module covers the nest (capped, like [`crate::conflict`]) with the
//! crate's one bank-signature walk, which interns each step's signature as
//! an id. The walk is period-first: it takes the minimal weak period of a
//! short prefix of the id stream ([`dm_sim::Borders`]) as the candidate,
//! proves it a period of every covered step from the nest's strides, and
//! folds the per-bank counts from that one period; what it cannot prove
//! it enumerates. When the whole nest fits under the cap the period is
//! exact for the whole nest; otherwise the proof is marked non-exhaustive
//! and all per-bank counts under-approximate the full nest (which keeps
//! every downstream bound sound — see [`crate::roofline`]).
//!
//! Unlike [`crate::pattern::summarize`], the prover is *total*: zero-trip
//! nests, stride-0 dimensions, sub-word strides and out-of-range addresses
//! all yield a (trivially) periodic proof instead of a refusal — addresses
//! wrap into the scratchpad modulo its power-of-two capacity, mirroring
//! how a hardware remapper would treat the high address bits.

use std::convert::Infallible;
use std::ops::ControlFlow;

use datamaestro::{DesignConfig, RuntimeConfig};
use dm_compiler::CompiledWorkload;
use dm_mem::MemConfig;

use crate::diagnostic::{Diagnostic, LintCode};
use crate::walk::{Nest, Signatures, Space};

/// Enumeration budget for the signature walk; matches the conflict
/// analyzer's cap so both analyses degrade together on huge nests.
pub(crate) const WALK_CAP: u64 = 1 << 22;

/// Proof that one port's request stream is periodic, with its exact
/// per-period accounting.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PortPeriodProof {
    /// Stream name (from the design).
    pub name: String,
    /// Total temporal steps of the nest (may exceed `walked`).
    pub steps: u64,
    /// Minimal weak period of the bank-signature stream, in temporal
    /// steps. Exact for the covered prefix; exact for the whole nest when
    /// `exhaustive`.
    pub period: u64,
    /// `true` when the proof covers the whole nest (`walked == steps`).
    pub exhaustive: bool,
    /// Temporal steps the proof covers (`min(steps, WALK_CAP)`). Only a
    /// prefix of them is enumerated when the period is proven from the
    /// nest's strides; the rest repeat the first period.
    pub walked: u64,
    /// Words requested per temporal step (the channel count).
    pub channels: u64,
    /// Requests per bank over the covered prefix (length = bank count).
    pub per_bank_walked: Vec<u64>,
    /// Requests per bank within the first period (length = bank count).
    pub per_bank_per_period: Vec<u64>,
}

impl PortPeriodProof {
    /// Total requests issued within one period (`channels × period` for a
    /// fully walked period).
    #[must_use]
    pub fn requests_per_period(&self) -> u64 {
        self.per_bank_per_period.iter().sum()
    }
}

/// Periodicity proof for every port of a compiled program, with the
/// joint fire period.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ProgramPeriodProof {
    /// Per-port proofs in port order: the operand readers (`[A, B, C]`, or
    /// `[A]` for pooling), then OUT.
    pub ports: Vec<PortPeriodProof>,
    /// PE fires per output-tile step (C/OUT advance once per `k_steps`).
    pub k_steps: u64,
    /// Joint period of the request streams, in PE fires: the lcm of each
    /// port's period stretched by its fires per word — `lcm(P_A, P_B,
    /// k·P_C, k·P_OUT)` for GeMM (saturating at `u64::MAX`).
    pub fire_period: u64,
    /// `true` when every port proof is exhaustive.
    pub exhaustive: bool,
}

/// Proves the request stream of one port periodic.
///
/// Total over all runtime configurations: degenerate nests (zero-trip
/// bounds, stride 0, single-iteration loops) produce a trivially periodic
/// proof. Dimension-count mismatches are tolerated by treating missing
/// strides as `0`.
///
/// # Errors
///
/// Returns `DM-CONFIG` only when the addressing mode is illegal for the
/// memory geometry or the temporal bound product overflows `u64`.
pub fn prove_port(
    design: &DesignConfig,
    runtime: &RuntimeConfig,
    mem: &MemConfig,
) -> Result<PortPeriodProof, Diagnostic> {
    let name = design.name().to_owned();
    let Some(group) = runtime.addressing_mode.checked_group_banks(mem.num_banks()) else {
        return Err(Diagnostic::error(
            LintCode::Config,
            name,
            format!(
                "addressing mode {} is illegal for {} banks",
                runtime.addressing_mode,
                mem.num_banks()
            ),
        ));
    };
    let Some(steps) = runtime.checked_total_temporal_steps() else {
        return Err(Diagnostic::error(
            LintCode::Config,
            name,
            "temporal bound product overflows u64 (pattern too large)".to_owned(),
        ));
    };

    let g = group as u64;
    // Per-channel byte offsets: the spatial mixed-radix enumeration of
    // `SpatialAgu`, made total (missing strides read as 0, zero bounds
    // yield zero channels). Addresses wrap into the scratchpad, so the
    // offsets may wrap too.
    let bounds = design.spatial_bounds();
    let channels: usize = bounds.iter().product();
    let offsets: Vec<i64> = (0..channels)
        .map(|c| {
            let mut rem = c;
            let mut offset = 0i64;
            for (d, &bound) in bounds.iter().enumerate() {
                let digit = (rem % bound) as i64;
                rem /= bound;
                let stride = runtime.spatial_strides.get(d).copied().unwrap_or(0);
                offset = offset.wrapping_add(digit.wrapping_mul(stride));
            }
            offset
        })
        .collect();

    if steps == 0 || channels == 0 {
        // Zero-trip nest: the empty stream is trivially 1-periodic.
        return Ok(PortPeriodProof {
            name,
            steps,
            period: 1,
            exhaustive: true,
            walked: steps.min(WALK_CAP),
            channels: channels as u64,
            per_bank_walked: vec![0; mem.num_banks()],
            per_bank_per_period: vec![0; mem.num_banks()],
        });
    }

    // Walk the nest as bank-signature ids, period-first; the period of the
    // id sequence is the period of the signatures, and the per-bank counts
    // fold the histogram of ids over its first period (and the remainder).
    let walked = steps.min(WALK_CAP);
    let nest = Nest {
        base: runtime.base,
        bounds: &runtime.temporal_bounds,
        strides: &runtime.temporal_strides,
    };
    let mut sigs = Signatures::new(Space::bytes(mem, g), &offsets);
    let ControlFlow::Continue(walk) =
        sigs.walk::<Infallible>(&nest, walked, |_, _, _| ControlFlow::Continue(()));
    let per_bank_walked = sigs.per_bank(&walk, walked, mem.num_banks());
    let per_bank_per_period = sigs.per_bank(&walk, walk.period, mem.num_banks());

    Ok(PortPeriodProof {
        name,
        steps,
        period: walk.period,
        exhaustive: walked == steps,
        walked,
        channels: channels as u64,
        per_bank_walked,
        per_bank_per_period,
    })
}

/// Proves every port stream of a compiled program periodic and combines
/// them into the joint fire period.
///
/// # Errors
///
/// Collects the per-port `DM-CONFIG` diagnostics of every port that
/// cannot be proven (see [`prove_port`]).
pub fn prove_program(
    program: &CompiledWorkload,
    mem: &MemConfig,
) -> Result<ProgramPeriodProof, Vec<Diagnostic>> {
    let mut diags = Vec::new();
    let mut ports = Vec::new();
    // A port that moves `w` words per tile of `k` fires advances one
    // temporal step every `k / w` fires, which stretches its period: A and
    // B not at all, C and OUT by `k`.
    let k = program.k_steps.max(1);
    let mut joint = 1u128;
    for (port, plan) in program.ports() {
        match prove_port(&plan.design, &plan.runtime, mem) {
            Ok(proof) => {
                let stretch = k / port.words_per_tile(k).max(1);
                joint = lcm_u128(joint, u128::from(stretch) * u128::from(proof.period));
                ports.push(proof);
            }
            Err(d) => diags.push(d),
        }
    }
    if !diags.is_empty() {
        return Err(diags);
    }
    let fire_period = u64::try_from(joint).unwrap_or(u64::MAX);
    let exhaustive = ports.iter().all(|p| p.exhaustive);
    Ok(ProgramPeriodProof {
        ports,
        k_steps: program.k_steps,
        fire_period,
        exhaustive,
    })
}

fn lcm_u128(a: u128, b: u128) -> u128 {
    if a == 0 || b == 0 {
        return a.max(b).max(1);
    }
    (a / gcd_u128(a, b)).saturating_mul(b)
}

fn gcd_u128(mut a: u128, mut b: u128) -> u128 {
    while b != 0 {
        (a, b) = (b, a % b);
    }
    a
}

#[cfg(test)]
mod tests {
    use super::*;
    use datamaestro::StreamerMode;
    use dm_mem::AddressingMode;

    fn mem() -> MemConfig {
        MemConfig::new(8, 8, 64).unwrap()
    }

    fn design(spatial: &[usize]) -> DesignConfig {
        DesignConfig::builder("A", StreamerMode::Read)
            .spatial_bounds(spatial.iter().copied())
            .temporal_dims(3)
            .build()
            .unwrap()
    }

    fn prove(rt: &RuntimeConfig) -> PortPeriodProof {
        prove_port(&design(&[8]), rt, &mem()).unwrap()
    }

    #[test]
    fn unit_stride_stream_has_the_bank_cycle_period() {
        // Burst of 8 consecutive words advancing 64 bytes (8 words) per
        // step under FIMA(8): channel `c` always lands on bank `c`, so
        // every step carries the same signature — period 1.
        let rt = RuntimeConfig::builder()
            .base(0)
            .temporal([512], [64])
            .spatial_strides([8])
            .build();
        let p = prove(&rt);
        assert_eq!(p.steps, 512);
        assert!(p.exhaustive);
        assert_eq!(p.channels, 8);
        // Every step touches each bank exactly once.
        assert_eq!(p.period, 1);
        assert_eq!(p.per_bank_per_period, vec![1; 8]);
        assert_eq!(p.per_bank_walked, vec![512; 8]);
    }

    #[test]
    fn strided_stream_rotates_through_banks_periodically() {
        // One channel advancing one word per step under FIMA(8): the bank
        // rotates 0,1,…,7 within a row then repeats → period 8.
        let rt = RuntimeConfig::builder()
            .base(0)
            .temporal([256], [8])
            .spatial_strides([0])
            .build();
        let design = DesignConfig::builder("A", StreamerMode::Read)
            .spatial_bounds([1])
            .temporal_dims(3)
            .build()
            .unwrap();
        let p = prove_port(&design, &rt, &mem()).unwrap();
        assert_eq!(p.period, 8);
        assert_eq!(p.requests_per_period(), 8);
        assert_eq!(p.per_bank_per_period, vec![1; 8]);
    }

    #[test]
    fn zero_trip_nest_is_trivially_periodic() {
        let rt = RuntimeConfig {
            temporal_bounds: vec![0, 4],
            temporal_strides: vec![64, 512],
            ..RuntimeConfig::builder().spatial_strides([8]).build()
        };
        let p = prove(&rt);
        assert_eq!(p.steps, 0);
        assert_eq!(p.period, 1);
        assert!(p.exhaustive);
        assert_eq!(p.requests_per_period(), 0);
        assert!(p.per_bank_walked.iter().all(|&c| c == 0));
    }

    #[test]
    fn stride_zero_nest_repeats_one_signature() {
        // Stride 0: every step re-reads the same burst → period 1.
        let rt = RuntimeConfig::builder()
            .base(128)
            .temporal([64], [0])
            .spatial_strides([8])
            .build();
        let p = prove(&rt);
        assert_eq!(p.period, 1);
        assert_eq!(p.per_bank_walked.iter().sum::<u64>(), 64 * 8);
    }

    #[test]
    fn single_iteration_outer_loop_is_inner_period() {
        // Outer bound 1 adds nothing: period equals the inner loop's.
        let inner = RuntimeConfig::builder()
            .base(0)
            .temporal([64], [8])
            .spatial_strides([0])
            .build();
        let outer = RuntimeConfig::builder()
            .base(0)
            .temporal([64, 1], [8, 0])
            .spatial_strides([0])
            .build();
        let d = DesignConfig::builder("A", StreamerMode::Read)
            .spatial_bounds([1])
            .temporal_dims(3)
            .build()
            .unwrap();
        let pi = prove_port(&d, &inner, &mem()).unwrap();
        let po = prove_port(&d, &outer, &mem()).unwrap();
        assert_eq!(pi.period, po.period);
        assert_eq!(pi.per_bank_per_period, po.per_bank_per_period);
    }

    #[test]
    fn mismatched_stride_dims_are_padded_not_rejected() {
        // Fewer strides than bounds / spatial dims: missing strides are 0.
        let rt = RuntimeConfig {
            temporal_bounds: vec![4, 4],
            temporal_strides: vec![8],
            spatial_strides: vec![],
            ..RuntimeConfig::builder().build()
        };
        let p = prove(&rt);
        assert_eq!(p.steps, 16);
        assert_eq!(p.period, 4, "outer dim (stride 0) contributes nothing");
    }

    #[test]
    fn out_of_range_addresses_wrap_instead_of_refusing() {
        let rt = RuntimeConfig::builder()
            .base(0)
            .temporal([1 << 16], [64])
            .spatial_strides([8])
            .build();
        // Footprint far exceeds the 4 KiB scratchpad; the prover wraps.
        let p = prove(&rt);
        assert!(p.exhaustive);
        assert_eq!(p.per_bank_walked.iter().sum::<u64>(), (1 << 16) * 8);
    }

    #[test]
    fn illegal_mode_is_a_config_diagnostic() {
        let rt = RuntimeConfig::builder()
            .temporal([4], [64])
            .spatial_strides([8])
            .addressing_mode(AddressingMode::GroupedInterleaved { group_banks: 3 })
            .build();
        let err = prove_port(&design(&[8]), &rt, &mem()).unwrap_err();
        assert_eq!(err.code, LintCode::Config);
    }

    #[test]
    fn period_divides_counts_consistently() {
        // The per-period counts replicated over the walk never exceed the
        // walked totals (weak-period prefix property).
        let rt = RuntimeConfig::builder()
            .base(0)
            .temporal([48, 3], [8, 1024])
            .spatial_strides([0])
            .build();
        let d = DesignConfig::builder("A", StreamerMode::Read)
            .spatial_bounds([1])
            .temporal_dims(3)
            .build()
            .unwrap();
        let p = prove_port(&d, &rt, &mem()).unwrap();
        assert!(p.period <= p.walked);
        let reps = p.walked / p.period;
        for (b, &per) in p.per_bank_per_period.iter().enumerate() {
            assert!(per * reps <= p.per_bank_walked[b] + p.requests_per_period());
        }
    }
}
