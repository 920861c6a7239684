//! The N-dimensional affine Address Generation Unit (§III-B, Figs. 2d and 4).
//!
//! Address generation follows the nested-loop form of Fig. 4(a):
//!
//! ```text
//! for t_{Dt-1} in 0..B_t[Dt-1]:
//!   ...
//!     for t_0 in 0..B_t[0]:
//!       TA = Addr_B + Σ_d t_d · S_t[d]            // temporal address
//!       for each channel (s_0, …, s_{Ds-1}):
//!         SA = TA + Σ_j s_j · S_s[j]              // spatial addresses
//! ```
//!
//! A naive implementation would divide/modulo a flat counter into loop
//! indices and multiply them by strides every cycle. The hardware instead
//! uses the paper's *dual-counter* structure per dimension: a bound counter
//! holding the loop index and a stride counter accumulating the running
//! offset (incremented by `S_t[d]` on step, cleared on wrap). The software
//! model keeps the bound counters and folds the stride counters into one
//! running sum — producing the next temporal address is O(1) amortized,
//! one add per step and one multiply-subtract per wrap, which is also what
//! makes the simulator fast. A naive divide/multiply reference is kept in this module's tests
//! as the dual counter's differential oracle; the host benchmark's
//! `agu_ns_per_addr` times [`TemporalAgu`] alone.
//!
//! Both halves are callers of the one nest module, [`dm_sim::nest`]: the
//! temporal AGU walks an [`AffineNest`] with its [`DualCounter`] (whose
//! hull, lag runs and skip the period replay reads through
//! [`TemporalAgu::nest`]), and the spatial offsets are the addresses of a
//! base-0 nest ([`AffineNest::spatial_offsets`]).

use std::sync::Arc;

use dm_sim::{AffineNest, DualCounter};

/// The temporal half of the AGU: walks the runtime loop nest and emits one
/// temporal address (byte address) per step.
///
/// # Examples
///
/// ```
/// use datamaestro::agu::TemporalAgu;
///
/// // Fig. 4(b): GeMM A-operand pattern, innermost k (stride 64), then n
/// // (reuse: stride 0), then m (stride 128).
/// let mut agu = TemporalAgu::new(0x0, &[2, 2, 2], &[64, 0, 128]);
/// let addrs: Vec<u64> = std::iter::from_fn(|| agu.next_address()).collect();
/// assert_eq!(addrs, vec![0, 64, 0, 64, 128, 192, 128, 192]);
/// ```
#[derive(Debug, PartialEq, Eq)]
pub struct TemporalAgu {
    /// The loop nest's dual counter; the nest's bounds and strides are
    /// shared by clones.
    counter: DualCounter,
    produced: u64,
    total: u64,
    /// Outermost dimension wrapped by the most recent
    /// [`next_address`](Self::next_address) call, if any.
    last_wrap: Option<usize>,
    /// Total dimension wraps since construction or reset.
    wraps: u64,
}

dm_sim::clone_fields!(TemporalAgu {
    counter,
    produced,
    total,
    last_wrap,
    wraps
});

impl TemporalAgu {
    /// Creates a temporal AGU over the given loop nest (innermost first).
    ///
    /// # Panics
    ///
    /// Panics if `bounds` and `strides` differ in length, any bound is
    /// zero, or the bound product overflows `u64` (a silent wrap would
    /// corrupt `total` and the `is_done` check); configurations are
    /// validated upstream by
    /// [`RuntimeConfig::validate`](crate::RuntimeConfig::validate), which
    /// reports these as [`ConfigError`](crate::ConfigError) instead.
    #[must_use]
    pub fn new(base: u64, bounds: &[u64], strides: &[i64]) -> Self {
        assert_eq!(bounds.len(), strides.len(), "bounds/strides mismatch");
        assert!(!bounds.contains(&0), "zero temporal bound");
        let nest = AffineNest::new(base, bounds, strides);
        let total = nest
            .checked_len()
            .expect("temporal bound product overflows u64");
        TemporalAgu {
            counter: DualCounter::new(nest),
            produced: 0,
            total,
            last_wrap: None,
            wraps: 0,
        }
    }

    /// The loop nest this AGU walks.
    #[must_use]
    pub fn nest(&self) -> &AffineNest {
        self.counter.nest()
    }

    /// Emits the next temporal address, or `None` when the loop nest is
    /// exhausted.
    pub fn next_address(&mut self) -> Option<u64> {
        if self.produced == self.total {
            return None;
        }
        let addr = self.counter.address();
        debug_assert!(addr as i64 >= 0, "negative temporal address generated");
        self.produced += 1;
        let wrapped = self.counter.step();
        self.last_wrap = wrapped.checked_sub(1);
        self.wraps += wrapped as u64;
        Some(addr)
    }

    /// Advances the nest by `n` addresses in O(dims), exactly as `n`
    /// [`next_address`](Self::next_address) calls would (fewer if the nest
    /// runs out first): the loop indices, the wrap count and the last wrap
    /// all land where the calls would leave them.
    pub fn skip(&mut self, n: u64) {
        let from = self.produced;
        let to = from + n.min(self.total - from);
        if to == from {
            return;
        }
        let (wraps, wrapped) = self.counter.skip(from, to);
        self.wraps += wraps;
        self.last_wrap = wrapped.checked_sub(1);
        self.produced = to;
    }

    /// The outermost dimension the most recent [`next_address`](Self::next_address) call
    /// wrapped (carried past its bound), or `None` if it only stepped.
    #[must_use]
    pub fn last_wrap(&self) -> Option<usize> {
        self.last_wrap
    }

    /// Total dimension wraps observed since construction or
    /// [`reset`](Self::reset).
    #[must_use]
    pub fn wraps(&self) -> u64 {
        self.wraps
    }

    /// Addresses produced so far.
    #[must_use]
    pub fn produced(&self) -> u64 {
        self.produced
    }

    /// Total addresses this nest will produce.
    #[must_use]
    pub fn total(&self) -> u64 {
        self.total
    }

    /// `true` once every address has been emitted.
    #[must_use]
    pub fn is_done(&self) -> bool {
        self.produced == self.total
    }

    /// Restarts the loop nest from the beginning.
    pub fn reset(&mut self) {
        self.counter.reset();
        self.produced = 0;
        self.last_wrap = None;
        self.wraps = 0;
    }
}

/// The inclusive byte footprint `[min, max]` of a pattern, exact in `i128`
/// (`None` if it overflows): the temporal nest's hull widened by the
/// spatial offsets and by the bytes of the last word.
#[must_use]
pub fn footprint(
    temporal: &TemporalAgu,
    spatial: &SpatialAgu,
    word_bytes: u64,
) -> Option<(i128, i128)> {
    let (lo, hi) = temporal.nest().hull(0, temporal.total())?;
    let (s_lo, s_hi) = spatial.offset_range();
    Some((
        lo.checked_add(s_lo.into())?,
        hi.checked_add(i128::from(s_hi) + i128::from(word_bytes) - 1)?,
    ))
}

/// The spatial half of the AGU: a fixed set of per-channel offsets derived
/// from the design-time spatial bounds and the runtime spatial strides.
///
/// Channel `c`'s mixed-radix digits over the spatial bounds select its
/// offset: `offset(c) = Σ_j digit_j(c) · S_s[j]`.
///
/// # Examples
///
/// ```
/// use datamaestro::agu::SpatialAgu;
///
/// // 2×2 spatial unrolling with strides 8 (inner) and 256 (outer).
/// let agu = SpatialAgu::new(&[2, 2], &[8, 256]);
/// assert_eq!(agu.offsets(), &[0, 8, 256, 264]);
/// assert_eq!(agu.channel_address(100, 3), 364);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpatialAgu {
    /// Fixed at construction and shared by clones.
    offsets: Arc<[i64]>,
}

impl SpatialAgu {
    /// Creates a spatial AGU.
    ///
    /// # Panics
    ///
    /// Panics if `bounds` and `strides` differ in length or a bound is zero.
    #[must_use]
    pub fn new(bounds: &[usize], strides: &[i64]) -> Self {
        assert_eq!(bounds.len(), strides.len(), "bounds/strides mismatch");
        assert!(!bounds.contains(&0), "zero spatial bound");
        SpatialAgu {
            offsets: AffineNest::spatial_offsets(bounds, strides).into(),
        }
    }

    /// Number of channels (product of the spatial bounds).
    #[must_use]
    pub fn num_channels(&self) -> usize {
        self.offsets.len()
    }

    /// The per-channel byte offsets.
    #[must_use]
    pub fn offsets(&self) -> &[i64] {
        &self.offsets
    }

    /// The address channel `c` accesses for a given temporal address.
    ///
    /// # Panics
    ///
    /// Panics if the result would be negative or `channel` is out of range.
    #[must_use]
    pub fn channel_address(&self, temporal: u64, channel: usize) -> u64 {
        let addr = temporal as i64 + self.offsets[channel];
        assert!(addr >= 0, "negative spatial address");
        addr as u64
    }

    /// The smallest and largest offsets across channels.
    #[must_use]
    pub fn offset_range(&self) -> (i64, i64) {
        let min = self.offsets.iter().copied().min().unwrap_or(0);
        let max = self.offsets.iter().copied().max().unwrap_or(0);
        (min, max)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dm_sim::SplitMix64;

    /// Reference implementation: materializes the full temporal address sequence
    /// with explicit index arithmetic (divide/multiply), as a naive AGU would.
    ///
    /// The differential oracle of [`TemporalAgu`].
    fn naive_temporal_addresses(base: u64, bounds: &[u64], strides: &[i64]) -> Vec<u64> {
        let total = bounds
            .iter()
            .try_fold(1u64, |acc, &bound| acc.checked_mul(bound))
            .expect("temporal bound product overflows u64");
        let mut out = Vec::with_capacity(total as usize);
        for flat in 0..total {
            let mut rem = flat;
            let mut addr = base as i64;
            for (bound, stride) in bounds.iter().zip(strides) {
                let idx = rem % bound;
                rem /= bound;
                addr += idx as i64 * stride;
            }
            out.push(addr as u64);
        }
        out
    }

    /// A random loop nest of 1..=`max_dims` dimensions with bounds in
    /// 1..=`max_bound` and strides in `lo..=hi`.
    fn nest(
        rng: &mut SplitMix64,
        max_dims: u64,
        max_bound: u64,
        (lo, hi): (i64, i64),
    ) -> (Vec<u64>, Vec<i64>) {
        (0..1 + rng.below(max_dims))
            .map(|_| (1 + rng.below(max_bound), rng.between(lo, hi)))
            .unzip()
    }

    /// The inclusive range of the addresses the AGU will emit.
    fn range(agu: &TemporalAgu) -> (u64, u64) {
        let (min, max) = agu.nest().hull(0, agu.total()).unwrap();
        (min as u64, max as u64)
    }

    #[test]
    fn fig4_example_sequence() {
        // The paper's Fig. 4(c): M=N=K=4 GeMM on a 2×2×2 PE array.
        // A-operand temporal addresses, tile = 2×2 int8 = 4 bytes.
        // Loops (inner→outer): k (bound 2, stride 4), n (bound 2, stride 0),
        // m (bound 2, stride 8).
        let mut agu = TemporalAgu::new(0, &[2, 2, 2], &[4, 0, 8]);
        let seq: Vec<u64> = std::iter::from_fn(|| agu.next_address()).collect();
        assert_eq!(seq, vec![0, 4, 0, 4, 8, 12, 8, 12]);
        assert!(agu.is_done());
        assert_eq!(agu.next_address(), None);
    }

    #[test]
    fn single_dimension_walk() {
        let mut agu = TemporalAgu::new(100, &[4], &[8]);
        let seq: Vec<u64> = std::iter::from_fn(|| agu.next_address()).collect();
        assert_eq!(seq, vec![100, 108, 116, 124]);
    }

    #[test]
    fn negative_strides_walk_backwards() {
        let mut agu = TemporalAgu::new(24, &[4], &[-8]);
        let seq: Vec<u64> = std::iter::from_fn(|| agu.next_address()).collect();
        assert_eq!(seq, vec![24, 16, 8, 0]);
        assert_eq!(range(&agu), (0, 24));
    }

    #[test]
    fn reset_replays_sequence() {
        let mut agu = TemporalAgu::new(0, &[3, 2], &[1, 10]);
        let first: Vec<u64> = std::iter::from_fn(|| agu.next_address()).collect();
        agu.reset();
        let second: Vec<u64> = std::iter::from_fn(|| agu.next_address()).collect();
        assert_eq!(first, second);
        assert_eq!(first, vec![0, 1, 2, 10, 11, 12]);
    }

    #[test]
    fn progress_accounting() {
        let mut agu = TemporalAgu::new(0, &[2, 2], &[1, 2]);
        assert_eq!(agu.total(), 4);
        assert_eq!(agu.produced(), 0);
        agu.next_address();
        assert_eq!(agu.produced(), 1);
        assert!(!agu.is_done());
    }

    #[test]
    fn wrap_tracking_reports_carries() {
        // 2×2 nest: the inner dim wraps on every second step.
        let mut agu = TemporalAgu::new(0, &[2, 2], &[4, 16]);
        assert_eq!(agu.last_wrap(), None);
        agu.next_address();
        assert_eq!(agu.last_wrap(), None, "first step only increments");
        agu.next_address();
        assert_eq!(agu.last_wrap(), Some(0), "inner bound reached: carry");
        agu.next_address();
        assert_eq!(agu.last_wrap(), None);
        agu.next_address();
        assert_eq!(agu.last_wrap(), Some(1), "both dims wrap at exhaustion");
        // Wrap count: dim0 wrapped twice, dim1 once.
        assert_eq!(agu.wraps(), 3);
        agu.reset();
        assert_eq!(agu.wraps(), 0);
        assert_eq!(agu.last_wrap(), None);
    }

    #[test]
    fn address_range_mixed_signs() {
        let agu = TemporalAgu::new(1000, &[4, 3], &[-8, 100]);
        // min = 1000 - 8*3 = 976; max = 1000 + 100*2 = 1200.
        assert_eq!(range(&agu), (976, 1200));
    }

    #[test]
    fn spatial_single_dim() {
        let agu = SpatialAgu::new(&[8], &[8]);
        assert_eq!(agu.num_channels(), 8);
        assert_eq!(agu.offsets(), &[0, 8, 16, 24, 32, 40, 48, 56]);
        assert_eq!(agu.channel_address(64, 2), 80);
    }

    #[test]
    fn spatial_mixed_radix() {
        let agu = SpatialAgu::new(&[2, 3], &[1, 10]);
        assert_eq!(agu.offsets(), &[0, 1, 10, 11, 20, 21]);
        assert_eq!(agu.offset_range(), (0, 21));
    }

    #[test]
    fn spatial_negative_stride() {
        let agu = SpatialAgu::new(&[4], &[-8]);
        assert_eq!(agu.offset_range(), (-24, 0));
        assert_eq!(agu.channel_address(100, 3), 76);
    }

    #[test]
    #[should_panic(expected = "negative spatial address")]
    fn negative_spatial_address_panics() {
        let agu = SpatialAgu::new(&[4], &[-8]);
        let _ = agu.channel_address(0, 1);
    }

    #[test]
    #[should_panic(expected = "overflows u64")]
    fn overflowing_bound_product_panics_instead_of_wrapping() {
        // 2^32 · 2^32 · 2 wraps to zero under unchecked multiplication; a
        // wrapped `total` of zero would make the AGU claim completion
        // immediately.
        let _ = TemporalAgu::new(0, &[1 << 32, 1 << 32, 2], &[1, 1, 1]);
    }

    /// The dual-counter AGU exactly matches the naive divide/multiply
    /// reference over random loop nests — the paper's microarchitectural
    /// optimization changes the implementation, not the function.
    #[test]
    fn dual_counter_matches_naive() {
        let mut rng = SplitMix64::new(0xa9e);
        for case in 0..256 {
            let (bounds, strides) = nest(&mut rng, 4, 4, (-64, 63));
            // Keep every address non-negative: shift the base past the
            // deepest negative reach.
            let worst: i64 = bounds
                .iter()
                .zip(&strides)
                .map(|(b, s)| (*s * (*b as i64 - 1)).min(0))
                .sum();
            let base = rng.below(1000) + (-worst) as u64;
            let mut agu = TemporalAgu::new(base, &bounds, &strides);
            let fast: Vec<u64> = std::iter::from_fn(|| agu.next_address()).collect();
            let naive = naive_temporal_addresses(base, &bounds, &strides);
            assert_eq!(fast, naive, "case {case}");
        }
    }

    /// Every emitted address falls inside the nest's hull, and the extremes
    /// are actually achieved.
    #[test]
    fn range_is_tight() {
        let mut rng = SplitMix64::new(0x7a6);
        for case in 0..256 {
            let (bounds, strides) = nest(&mut rng, 3, 4, (0, 31));
            let mut agu = TemporalAgu::new(rng.below(100), &bounds, &strides);
            let (min, max) = range(&agu);
            let seq: Vec<u64> = std::iter::from_fn(|| agu.next_address()).collect();
            assert!(seq.iter().all(|&a| a >= min && a <= max), "case {case}");
            assert_eq!(*seq.iter().min().unwrap(), min, "case {case}");
            assert_eq!(*seq.iter().max().unwrap(), max, "case {case}");
        }
    }

    /// The spatial AGU enumerates exactly the mixed-radix offset lattice.
    #[test]
    fn spatial_lattice() {
        let mut rng = SplitMix64::new(0x5a1);
        for case in 0..256 {
            let (bounds, strides) = nest(&mut rng, 3, 3, (0, 15));
            let bounds: Vec<usize> = bounds.iter().map(|&b| b as usize).collect();
            let agu = SpatialAgu::new(&bounds, &strides);
            assert_eq!(agu.num_channels(), bounds.iter().product::<usize>());
            // Reference: nested loops, innermost dimension fastest.
            let mut expected = vec![0i64];
            for (bound, stride) in bounds.iter().zip(&strides).rev() {
                let mut next = Vec::new();
                for i in 0..*bound as i64 {
                    for e in &expected {
                        next.push(e + i * stride);
                    }
                }
                expected = next;
            }
            // The reverse construction enumerates outer digits slowest; sort
            // both sides to compare as multisets (offsets may repeat when a
            // stride is zero).
            let mut got = agu.offsets().to_vec();
            got.sort_unstable();
            expected.sort_unstable();
            assert_eq!(got, expected, "case {case}");
        }
    }
}
