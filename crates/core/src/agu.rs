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
//! model mirrors this — producing the next temporal address is O(1)
//! amortized with only additions, which is also what makes the simulator
//! fast. A naive reference ([`naive_temporal_addresses`]) is retained for
//! differential testing and the ablation bench.

use std::sync::Arc;

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
    base: i64,
    /// The loop nest, fixed at construction and shared by clones.
    bounds: Arc<[u64]>,
    strides: Arc<[i64]>,
    /// Bound counters (loop indices), innermost first.
    indices: Vec<u64>,
    /// Stride counters (running offsets), innermost first.
    offsets: Vec<i64>,
    produced: u64,
    total: u64,
    /// Outermost dimension wrapped by the most recent
    /// [`next_address`](Self::next_address) call, if any.
    last_wrap: Option<usize>,
    /// Total dimension wraps since construction or reset.
    wraps: u64,
}

dm_sim::clone_fields!(TemporalAgu {
    base,
    bounds,
    strides,
    indices,
    offsets,
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
        let total = bounds
            .iter()
            .try_fold(1u64, |acc, &bound| acc.checked_mul(bound))
            .expect("temporal bound product overflows u64");
        TemporalAgu {
            base: base as i64,
            bounds: bounds.into(),
            strides: strides.into(),
            indices: vec![0; bounds.len()],
            offsets: vec![0; bounds.len()],
            produced: 0,
            total,
            last_wrap: None,
            wraps: 0,
        }
    }

    /// Emits the next temporal address, or `None` when the loop nest is
    /// exhausted.
    pub fn next_address(&mut self) -> Option<u64> {
        if self.produced == self.total {
            return None;
        }
        let addr = self.base + self.offsets.iter().sum::<i64>();
        debug_assert!(addr >= 0, "negative temporal address generated");
        self.produced += 1;
        // Dual-counter increment with carry, innermost dimension first.
        self.last_wrap = None;
        for d in 0..self.bounds.len() {
            self.indices[d] += 1;
            if self.indices[d] < self.bounds[d] {
                self.offsets[d] += self.strides[d];
                break;
            }
            self.indices[d] = 0;
            self.offsets[d] = 0;
            self.last_wrap = Some(d);
            self.wraps += 1;
        }
        Some(addr as u64)
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
        // Dimension d carries once every `span` steps, the product of the
        // bounds up to and including d; its index is the flat position's
        // mixed-radix digit (all zero once the nest is exhausted).
        let mut span = 1u64;
        self.last_wrap = None;
        for d in 0..self.bounds.len() {
            let inner = span;
            span *= self.bounds[d];
            self.wraps += to / span - from / span;
            if to.is_multiple_of(span) {
                self.last_wrap = Some(d);
            }
            self.indices[d] = to / inner % self.bounds[d];
            self.offsets[d] = self.indices[d] as i64 * self.strides[d];
        }
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
        self.indices.fill(0);
        self.offsets.fill(0);
        self.produced = 0;
        self.last_wrap = None;
        self.wraps = 0;
    }

    /// The smallest and largest byte addresses this pattern will emit,
    /// computed without iterating (per-dimension extremes are independent
    /// for affine patterns).
    #[must_use]
    pub fn address_range(&self) -> (u64, u64) {
        let (min, max) = self.address_hull(0, self.total);
        assert!(min >= 0, "pattern reaches a negative address");
        (min as u64, max as u64)
    }

    /// The address at flat position `x` of the nest, in O(dims).
    fn address_at(&self, mut x: u64) -> i64 {
        let mut addr = self.base;
        for (&bound, &stride) in self.bounds.iter().zip(self.strides.iter()) {
            addr += (x % bound) as i64 * stride;
            x /= bound;
        }
        addr
    }

    /// Bounds on the addresses of positions `[start, end)` (`start < end`),
    /// in O(dims): the extremes over the smallest box of the nest's digits
    /// that holds both ends. They are the range's own extremes when the
    /// range is such a box.
    #[must_use]
    pub(crate) fn address_hull(&self, start: u64, end: u64) -> (i64, i64) {
        debug_assert!(start < end && end <= self.total);
        // The dimensions below the highest one in which the ends' digits
        // differ sweep their whole bound; from that one up, the digits
        // sweep between the ends' (the same digit above it).
        let (mut swept, mut span) = (1u64, 1u64);
        let (mut first, mut last) = (start, end - 1);
        for &bound in self.bounds.iter() {
            if first == last {
                break;
            }
            (swept, span) = (span, span * bound);
            (first, last) = (first / bound, last / bound);
        }
        let (mut first, mut last) = (start / swept * swept, (end - 1) / swept * swept + swept - 1);
        let (mut min, mut max) = (self.base, self.base);
        for (&bound, &stride) in self.bounds.iter().zip(self.strides.iter()) {
            let (a, b) = (
                (first % bound) as i64 * stride,
                (last % bound) as i64 * stride,
            );
            min += a.min(b);
            max += a.max(b);
            (first, last) = (first / bound, last / bound);
        }
        (min, max)
    }

    /// Splits positions `[from, to)` into runs over which every address
    /// lies one fixed distance from the address `delta` positions earlier
    /// (`from ≥ delta`). The address steps from `x` to `x + 1` and from
    /// `x − delta` to `x + 1 − delta` agree unless one of them carries into
    /// the lowest dimension whose block `delta` does not fill a whole
    /// number of times, so runs break only at two positions per such
    /// block: each run costs O(dims).
    pub(crate) fn lag_runs(
        &self,
        delta: u64,
        from: u64,
        to: u64,
    ) -> impl Iterator<Item = LagRun> + '_ {
        debug_assert!(from >= delta || from >= to);
        // `block` is the span of the lowest dimension whose span `delta` is
        // not a multiple of; a nest whose every span divides `delta` (so
        // `delta == 0`) has one run.
        let mut block = 1u64;
        for &bound in self.bounds.iter() {
            block *= bound;
            if !delta.is_multiple_of(block) {
                break;
            }
        }
        let phase = delta % block;
        let mut start = from;
        std::iter::from_fn(move || {
            if start >= to {
                return None;
            }
            let origin = start - start % block;
            let end = match origin + phase {
                split if split > start => split,
                _ => origin + block,
            };
            let run = LagRun {
                start,
                end: end.min(to),
                shift: self.address_at(start) - self.address_at(start - delta),
            };
            start = run.end;
            Some(run)
        })
    }
}

/// Positions `[start, end)` of a nest over which every address lies
/// `shift` bytes from the address a fixed number of positions earlier
/// ([`TemporalAgu::lag_runs`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct LagRun {
    /// The first position.
    pub(crate) start: u64,
    /// One past the last position.
    pub(crate) end: u64,
    /// The distance in bytes.
    pub(crate) shift: i64,
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
        let channels: usize = bounds.iter().product();
        let offsets = (0..channels)
            .map(|c| {
                let mut rem = c;
                let mut offset = 0i64;
                for (bound, stride) in bounds.iter().zip(strides) {
                    let digit = (rem % bound) as i64;
                    rem /= bound;
                    offset += digit * stride;
                }
                offset
            })
            .collect();
        SpatialAgu { offsets }
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

/// Reference implementation: materializes the full temporal address sequence
/// with explicit index arithmetic (divide/multiply), as a naive AGU would.
///
/// Used for differential testing of [`TemporalAgu`] and as the baseline in
/// the AGU micro-benchmark (the paper's argument for the dual-counter
/// structure).
#[must_use]
pub fn naive_temporal_addresses(base: u64, bounds: &[u64], strides: &[i64]) -> Vec<u64> {
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

#[cfg(test)]
mod tests {
    use super::*;
    use dm_sim::SplitMix64;

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
        assert_eq!(agu.address_range(), (0, 24));
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
        assert_eq!(agu.address_range(), (976, 1200));
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

    /// Every emitted address falls inside `address_range`, and the extremes
    /// are actually achieved.
    #[test]
    fn range_is_tight() {
        let mut rng = SplitMix64::new(0x7a6);
        for case in 0..256 {
            let (bounds, strides) = nest(&mut rng, 3, 4, (0, 31));
            let mut agu = TemporalAgu::new(rng.below(100), &bounds, &strides);
            let (min, max) = agu.address_range();
            let seq: Vec<u64> = std::iter::from_fn(|| agu.next_address()).collect();
            assert!(seq.iter().all(|&a| a >= min && a <= max), "case {case}");
            assert_eq!(*seq.iter().min().unwrap(), min, "case {case}");
            assert_eq!(*seq.iter().max().unwrap(), max, "case {case}");
        }
    }

    /// `skip(n)` leaves the nest exactly where `n` `next_address` calls
    /// would, from any position, including runs past the end.
    #[test]
    fn skip_matches_repeated_next_address() {
        let mut rng = SplitMix64::new(0x5c1b);
        for case in 0..256 {
            let (bounds, strides) = nest(&mut rng, 4, 4, (0, 31));
            let mut stepped = TemporalAgu::new(rng.below(100), &bounds, &strides);
            let total = stepped.total();
            for _ in 0..rng.below(total + 1) {
                stepped.next_address();
            }
            let mut skipped = stepped.clone();
            let n = rng.below(total + 2);
            for _ in 0..n {
                stepped.next_address();
            }
            skipped.skip(n);
            assert_eq!(skipped, stepped, "case {case}");
            assert_eq!(
                skipped.next_address(),
                stepped.next_address(),
                "case {case}"
            );
        }
    }

    /// `lag_runs` tiles its range with runs whose every position lies the
    /// run's shift from the position `delta` before it, and
    /// `address_hull` bounds every run, exactly on the nest's digit boxes.
    #[test]
    fn lag_runs_and_hulls_match_the_addresses() {
        let mut rng = SplitMix64::new(0x1a6);
        for case in 0..512 {
            let (bounds, strides) = nest(&mut rng, 5, 4, (-32, 32));
            let base = 1 << 20;
            let agu = TemporalAgu::new(base, &bounds, &strides);
            let addrs: Vec<i64> = naive_temporal_addresses(base, &bounds, &strides)
                .into_iter()
                .map(|a| a as i64)
                .collect();
            let total = agu.total();
            let delta = rng.below(total);
            let from = delta + rng.below(total - delta);
            let to = from + rng.below(total - from + 1);
            let mut next = from;
            for run in agu.lag_runs(delta, from, to) {
                assert!(run.start == next && run.start < run.end, "case {case}");
                let span = &addrs[run.start as usize..run.end as usize];
                let (lo, hi) = agu.address_hull(run.start, run.end);
                for (x, &a) in (run.start..).zip(span) {
                    assert_eq!(a - addrs[(x - delta) as usize], run.shift, "case {case}");
                    assert!(lo <= a && a <= hi, "case {case}");
                }
                next = run.end;
            }
            assert_eq!(next, to, "case {case}");
            let inner: u64 = bounds[..rng.below(bounds.len() as u64 + 1) as usize]
                .iter()
                .product();
            let start = rng.below(total / inner) * inner;
            let boxed = &addrs[start as usize..(start + inner) as usize];
            let extremes = (*boxed.iter().min().unwrap(), *boxed.iter().max().unwrap());
            assert_eq!(
                agu.address_hull(start, start + inner),
                extremes,
                "case {case}"
            );
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
