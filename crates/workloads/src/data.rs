//! Deterministic operand generation and golden outputs per workload.

use dm_accel::reference::{conv2d_ref, gemm_bias_ref, maxpool2d_ref, quantize_ref};
use dm_accel::RescaleParams;
use dm_sim::SplitMix64;

use crate::spec::Workload;

/// Concrete operand data for one workload, generated deterministically from
/// a seed, plus golden expected outputs.
///
/// For GeMM workloads `a` is the `m×k` row-major A matrix and `b` the `k×n`
/// B matrix; for convolutions `a` is the `h×w×c_in` channels-last input and
/// `b` the `c_out×kh×kw×c_in` weights. `bias` has one int32 per output
/// column / channel, and `rescale` is the uniform quantization parameter.
/// Max pooling has only its `h×w×c` channels-last input in `a`: no
/// weights, no bias and the identity rescale, which its max unit never
/// applies.
///
/// # Examples
///
/// ```
/// use dm_workloads::{GemmSpec, WorkloadData};
///
/// let data = WorkloadData::generate(GemmSpec::new(8, 8, 8).into(), 42);
/// assert_eq!(data.a.len(), 64);
/// assert_eq!(data.expected_d().len(), 64);
/// let again = WorkloadData::generate(GemmSpec::new(8, 8, 8).into(), 42);
/// assert_eq!(data.a, again.a, "generation is deterministic");
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WorkloadData {
    /// The workload these operands belong to.
    pub workload: Workload,
    /// A operand (GeMM A matrix, convolution or pooling input).
    pub a: Vec<i8>,
    /// B operand (GeMM B matrix or convolution weights).
    pub b: Vec<i8>,
    /// Per-output-column (GeMM) or per-output-channel (conv) bias.
    pub bias: Vec<i32>,
    /// Uniform quantization rescale parameter.
    pub rescale: RescaleParams,
}

impl WorkloadData {
    /// Generates operands for a workload from a seed.
    #[must_use]
    pub fn generate(workload: Workload, seed: u64) -> Self {
        let mut rng = SplitMix64::new(seed);
        let (a_len, b_len, bias_len, k_depth) = match workload {
            Workload::Gemm(g) => (g.m * g.k, g.k * g.n, g.n, g.k),
            Workload::Conv(c) => (
                c.h * c.w * c.c_in,
                c.c_out * c.kh * c.kw * c.c_in,
                c.c_out,
                c.c_in * c.kh * c.kw,
            ),
            Workload::Pool(p) => (p.h * p.w * p.c, 0, 0, 0),
        };
        let a: Vec<i8> = (0..a_len).map(|_| rng.between(-16, 16) as i8).collect();
        let b: Vec<i8> = (0..b_len).map(|_| rng.between(-16, 16) as i8).collect();
        let bias: Vec<i32> = (0..bias_len)
            .map(|_| rng.between(-100, 100) as i32)
            .collect();
        // Shift sized so typical accumulators land inside int8 without
        // saturating everything: |acc| ~ k_depth · 16²/3.
        let rescale = match k_depth {
            0 => RescaleParams::IDENTITY,
            _ => RescaleParams {
                multiplier: 1,
                shift: (64 - (k_depth as u64).leading_zeros()) + 3,
            },
        };
        WorkloadData {
            workload,
            a,
            b,
            bias,
            rescale,
        }
    }

    /// Golden int32 output: `m×n` row-major for GeMM, `oh×ow×c_out`
    /// channels-last for convolutions, and for pooling the
    /// [`expected_e`](Self::expected_e) maxima widened.
    #[must_use]
    pub fn expected_d(&self) -> Vec<i32> {
        match self.workload {
            Workload::Gemm(g) => gemm_bias_ref(&self.a, &self.b, &self.bias, g.m, g.n, g.k),
            Workload::Conv(c) => conv2d_ref(
                &self.a, &self.b, &self.bias, c.h, c.w, c.c_in, c.c_out, c.kh, c.kw, c.stride,
            ),
            Workload::Pool(_) => self.expected_e().into_iter().map(i32::from).collect(),
        }
    }

    /// Golden quantized int8 output (same shape conventions as
    /// [`expected_d`](Self::expected_d)); for pooling, the `oh×ow×c`
    /// channels-last window maxima.
    #[must_use]
    pub fn expected_e(&self) -> Vec<i8> {
        match self.workload {
            Workload::Gemm(g) => {
                quantize_ref(&self.expected_d(), &vec![self.rescale; g.n], g.m, g.n)
            }
            Workload::Conv(c) => quantize_ref(
                &self.expected_d(),
                &vec![self.rescale; c.c_out],
                c.oh() * c.ow(),
                c.c_out,
            ),
            Workload::Pool(p) => maxpool2d_ref(&self.a, p.h, p.w, p.c, p.k, p.stride),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::{ConvSpec, GemmSpec, PoolSpec};

    #[test]
    fn generation_is_deterministic_and_seed_sensitive() {
        let w: Workload = GemmSpec::new(16, 16, 16).into();
        let d1 = WorkloadData::generate(w, 1);
        let d2 = WorkloadData::generate(w, 1);
        let d3 = WorkloadData::generate(w, 2);
        assert_eq!(d1, d2);
        assert_ne!(d1.a, d3.a);
    }

    /// Prefixes of the operand stream, recorded from the previous
    /// `rand`-based generator built against a SplitMix64 `StdRng`
    /// stand-in: the benchmark's operand traffic depends on them.
    #[test]
    fn operand_stream_is_pinned() {
        let g = WorkloadData::generate(GemmSpec::new(8, 8, 8).into(), 42);
        assert_eq!(
            g.a[..16],
            [8, -11, -7, -5, -15, 12, -9, 10, -5, 4, -10, 0, 0, 1, 5, -10]
        );
        assert_eq!(
            g.b[..16],
            [-6, 4, 16, -6, 13, 14, 13, 6, -11, 11, 10, 10, -13, 10, -6, 0]
        );
        assert_eq!(g.bias, [-92, 2, 53, -11, 95, -64, 90, 17]);
        assert_eq!(g.rescale.shift, 7);
        let c = WorkloadData::generate(ConvSpec::new(10, 10, 8, 8, 3, 3, 1).into(), 7);
        assert_eq!(
            c.a[..16],
            [-4, -16, 13, 3, -2, -8, -1, -6, -12, -3, -13, 15, 14, 12, 12, 2]
        );
        assert_eq!(
            c.b[..16],
            [-11, -14, 15, -14, -1, -1, 1, 14, 8, -12, 14, 15, 7, -4, -7, 15]
        );
        assert_eq!(c.bias, [-32, 30, -78, -90, 17, 22, -24, 86]);
        assert_eq!(c.rescale.shift, 10);
    }

    #[test]
    fn gemm_shapes() {
        let d = WorkloadData::generate(GemmSpec::new(16, 24, 8).into(), 0);
        assert_eq!(d.a.len(), 16 * 8);
        assert_eq!(d.b.len(), 8 * 24);
        assert_eq!(d.bias.len(), 24);
        assert_eq!(d.expected_d().len(), 16 * 24);
        assert_eq!(d.expected_e().len(), 16 * 24);
    }

    #[test]
    fn conv_shapes() {
        let c = ConvSpec::new(10, 10, 8, 16, 3, 3, 1);
        let d = WorkloadData::generate(c.into(), 7);
        assert_eq!(d.a.len(), 10 * 10 * 8);
        assert_eq!(d.b.len(), 16 * 9 * 8);
        assert_eq!(d.bias.len(), 16);
        assert_eq!(d.expected_d().len(), 8 * 8 * 16);
    }

    #[test]
    fn pool_shapes() {
        let p = PoolSpec::new(10, 10, 8, 3, 1);
        let d = WorkloadData::generate(p.into(), 7);
        assert_eq!(d.a.len(), 10 * 10 * 8);
        assert!(d.b.is_empty() && d.bias.is_empty());
        assert_eq!(d.rescale, RescaleParams::IDENTITY);
        let e = d.expected_e();
        assert_eq!(e.len(), 8 * 8 * 8);
        assert_eq!(
            d.expected_d(),
            e.iter().map(|&v| i32::from(v)).collect::<Vec<_>>()
        );
    }

    #[test]
    fn rescale_keeps_outputs_unsaturated_typically() {
        let d = WorkloadData::generate(GemmSpec::new(16, 16, 64).into(), 3);
        let e = d.expected_e();
        let saturated = e.iter().filter(|&&v| v == i8::MIN || v == i8::MAX).count();
        assert!(
            saturated < e.len() / 4,
            "{saturated}/{} outputs saturated",
            e.len()
        );
        // …and not all zero either (the shift is not absurdly large).
        assert!(e.iter().any(|&v| v != 0));
    }
}
