//! The affine loop nest of the AGU (§III-B, Figs. 2d and 4) and the
//! algebra the simulator and the static prover both read from it.
//!
//! Position `x` of an [`AffineNest`] (`ptr`, `loopBounds` and
//! `temporalStrides` of the hardware CSRs) addresses `a(x) = base + Σ_d
//! digit_d(x) · stride_d`, over the mixed-radix digits of `x`. The temporal
//! AGU walks it with a [`DualCounter`]; spatial channel offsets are the
//! addresses of a base-0 nest. Addresses are kept modulo 2^64, so a caller
//! wrapping them into a power-of-two space reads the exact residue; only
//! the [`hull`](AffineNest::hull) is exact, in checked `i128`. The lag
//! relations carry the bank proofs of the period replay (DESIGN §8.2,
//! [`lag_runs`](AffineNest::lag_runs)) and of the period prover (DESIGN
//! §11, [`every_lag_shift`](AffineNest::every_lag_shift)).

use std::sync::Arc;

/// An affine loop nest: a base address plus per-dimension bounds and
/// strides, innermost first, fixed at construction and shared by clones.
///
/// # Examples
///
/// ```
/// use dm_sim::AffineNest;
///
/// // Fig. 4(b): k (stride 64), then n (reuse: stride 0), then m (128).
/// let nest = AffineNest::new(0, &[2, 2, 2], &[64, 0, 128]);
/// assert_eq!(nest.address_at(5), 192);
/// assert_eq!(nest.hull(0, 8), Some((0, 192)));
/// assert_eq!(AffineNest::spatial_offsets(&[2, 2], &[8, 256]), [0, 8, 256, 264]);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AffineNest {
    base: u64,
    bounds: Arc<[u64]>,
    strides: Arc<[i64]>,
}

impl AffineNest {
    /// The nest at `base` over `bounds` and `strides`; a stride missing
    /// from `strides` reads as 0, and strides past the bounds are ignored.
    #[must_use]
    pub fn new(base: u64, bounds: &[u64], strides: &[i64]) -> Self {
        AffineNest {
            base,
            bounds: bounds.into(),
            strides: (0..bounds.len())
                .map(|d| strides.get(d).copied().unwrap_or(0))
                .collect(),
        }
    }

    /// The channel offsets of a spatial unrolling: channel `c` sits at the
    /// address of position `c` of the base-0 nest over `bounds` and
    /// `strides`, read as signed. A zero bound leaves no channel.
    ///
    /// # Panics
    ///
    /// Panics if the bound product overflows `u64`.
    #[must_use]
    pub fn spatial_offsets(bounds: &[usize], strides: &[i64]) -> Vec<i64> {
        let bounds: Vec<u64> = bounds.iter().map(|&b| b as u64).collect();
        let nest = AffineNest::new(0, &bounds, strides);
        let channels = nest
            .checked_len()
            .expect("spatial bound product overflows u64");
        (0..channels).map(|c| nest.address_at(c) as i64).collect()
    }

    /// Positions in the nest, or `None` when the bound product overflows
    /// `u64`.
    #[must_use]
    pub fn checked_len(&self) -> Option<u64> {
        self.bounds
            .iter()
            .try_fold(1u64, |acc, &b| acc.checked_mul(b))
    }

    /// The address of position `x`, modulo 2^64, in O(dims).
    #[must_use]
    pub fn address_at(&self, mut x: u64) -> u64 {
        let mut addr = self.base;
        for (&bound, &stride) in self.bounds.iter().zip(self.strides.iter()) {
            addr = addr.wrapping_add((x % bound).wrapping_mul(stride as u64));
            x /= bound;
        }
        addr
    }

    /// Bounds on the addresses of positions `[start, end)` (`start < end ≤
    /// checked_len`), exact in `i128`, or `None` if they overflow it: the extremes
    /// over the smallest box of the nest's digits that holds both ends,
    /// found in O(dims). They are the range's own extremes when the range
    /// is such a box, as the whole nest is.
    #[must_use]
    pub fn hull(&self, start: u64, end: u64) -> Option<(i128, i128)> {
        debug_assert!(start < end, "an empty range has no hull");
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
        let (mut min, mut max) = (i128::from(self.base), i128::from(self.base));
        for (&bound, &stride) in self.bounds.iter().zip(self.strides.iter()) {
            let (a, b) = (
                i128::from(first % bound) * i128::from(stride),
                i128::from(last % bound) * i128::from(stride),
            );
            min = min.checked_add(a.min(b))?;
            max = max.checked_add(a.max(b))?;
            (first, last) = (first / bound, last / bound);
        }
        Some((min, max))
    }

    /// Splits positions `[from, to)` into runs over which every address
    /// lies one fixed distance from the address `delta` positions earlier
    /// (`from ≥ delta`). The address steps from `x` to `x + 1` and from
    /// `x − delta` to `x + 1 − delta` agree unless one of them carries into
    /// the lowest dimension whose block `delta` does not fill a whole
    /// number of times, so runs break only at two positions per such
    /// block: each run costs O(dims).
    pub fn lag_runs(&self, delta: u64, from: u64, to: u64) -> impl Iterator<Item = LagRun> + '_ {
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
                shift: self
                    .address_at(start)
                    .wrapping_sub(self.address_at(start - delta)) as i64,
            };
            start = run.end;
            Some(run)
        })
    }

    /// Whether `keep` holds for every shift `a(x) − a(x − p)` (modulo
    /// 2^64) of the positions `x ∈ [p, n)`, stopping at the first it
    /// refuses. The shift is `Σ_d (p_d + b_in,d − b_out,d · bound_d) ·
    /// stride_d`, one value per borrow pattern of the mixed-radix
    /// subtraction `x − p`; a pattern is tried only if some such `x`
    /// allows it (index `d` borrows only below `p_d + b_in,d` and keeps it
    /// only up to the largest index it reaches in `[0, n)`; nothing borrows
    /// past the top), which is O(dims) calls in practice.
    pub fn every_lag_shift(&self, p: u64, n: u64, mut keep: impl FnMut(i64) -> bool) -> bool {
        if p >= n {
            return true;
        }
        // Below the highest non-zero digit of `n − 1` every index runs its
        // whole bound, that digit reaches its own value, and the dimensions
        // above stay at 0.
        let dims = self.bounds.len();
        let (mut digits, mut reach) = (Vec::with_capacity(dims), Vec::with_capacity(dims));
        let (mut rem_p, mut rem_n) = (p, n - 1);
        for &bound in self.bounds.iter() {
            digits.push(rem_p % bound);
            reach.push(rem_n.min(bound - 1));
            (rem_p, rem_n) = (rem_p / bound, rem_n / bound);
        }
        self.shifts_from(&digits, &reach, 0, 0, 0, &mut keep)
    }

    /// Whether `keep` holds for every shift of the borrow patterns that
    /// agree with the choices below dimension `d` (carrying `borrow` into
    /// it, with the partial shift `shift`).
    fn shifts_from<F: FnMut(i64) -> bool>(
        &self,
        digits: &[u64],
        reach: &[u64],
        d: usize,
        borrow: u64,
        shift: u64,
        keep: &mut F,
    ) -> bool {
        let Some(&bound) = self.bounds.get(d) else {
            // `x ≥ p`: a pattern borrowing past the top never occurs.
            return borrow == 1 || keep(shift as i64);
        };
        // Index `x_d` lowers by `t` unless it is below `t`, which borrows
        // and raises it by `bound − t` instead.
        let t = digits[d] + borrow;
        let moved = |t: u64| shift.wrapping_add(t.wrapping_mul(self.strides[d] as u64));
        (t > reach[d] || self.shifts_from(digits, reach, d + 1, 0, moved(t), keep))
            && (t == 0
                || self.shifts_from(digits, reach, d + 1, 1, moved(t.wrapping_sub(bound)), keep))
    }
}

/// Positions `[start, end)` of a nest over which every address lies
/// `shift` units from the address a fixed number of positions earlier
/// ([`AffineNest::lag_runs`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LagRun {
    /// The first position.
    pub start: u64,
    /// One past the last position.
    pub end: u64,
    /// The distance, modulo 2^64.
    pub shift: i64,
}

/// The hardware walk of an [`AffineNest`] (Fig. 4): per dimension a bound
/// counter (the loop index), plus the running address, so a step costs one
/// add and each wrapped dimension one multiply-subtract. The address is
/// kept modulo 2^64; a zero-trip bound simply never steps.
#[derive(Debug, PartialEq, Eq)]
pub struct DualCounter {
    nest: AffineNest,
    /// Loop indices, innermost first.
    indices: Vec<u64>,
    /// `base + Σ_d indices[d] · stride_d`.
    address: u64,
}

crate::clone_fields!(DualCounter {
    nest,
    indices,
    address
});

impl DualCounter {
    /// A counter at the first position of `nest`.
    #[must_use]
    pub fn new(nest: AffineNest) -> Self {
        DualCounter {
            address: nest.base,
            indices: vec![0; nest.bounds.len()],
            nest,
        }
    }

    /// The nest it walks.
    #[must_use]
    pub fn nest(&self) -> &AffineNest {
        &self.nest
    }

    /// The address of the current position.
    #[must_use]
    #[inline]
    pub fn address(&self) -> u64 {
        self.address
    }

    /// Steps to the next position and returns how many dimensions wrapped
    /// (carried past their bound): all of them at the end of the nest,
    /// where the counter starts over.
    #[inline]
    pub fn step(&mut self) -> usize {
        for d in 0..self.indices.len() {
            let stride = self.nest.strides[d] as u64;
            self.indices[d] += 1;
            if self.indices[d] < self.nest.bounds[d] {
                self.address = self.address.wrapping_add(stride);
                return d;
            }
            // The index ran up to `bound − 1`: take its offset back.
            let offset = (self.indices[d] - 1).wrapping_mul(stride);
            self.address = self.address.wrapping_sub(offset);
            self.indices[d] = 0;
        }
        self.indices.len()
    }

    /// Moves the counter from position `from` to position `to` (`from ≤ to
    /// ≤ len`) in O(dims), exactly as `to − from` steps would, and returns
    /// the wraps on the way and the dimensions the last step wrapped.
    pub fn skip(&mut self, from: u64, to: u64) -> (u64, usize) {
        // Dimension d carries once every `span` steps, the product of the
        // bounds up to and including d; its index is the flat position's
        // mixed-radix digit (all zero once the nest is exhausted).
        let (mut span, mut wraps, mut last) = (1u64, 0, 0);
        for (d, &bound) in self.nest.bounds.iter().enumerate() {
            self.indices[d] = to / span % bound;
            span *= bound;
            wraps += to / span - from / span;
            if to.is_multiple_of(span) {
                last = d + 1;
            }
        }
        self.address = self.nest.address_at(to);
        (wraps, last)
    }

    /// Returns to the first position.
    pub fn reset(&mut self) {
        self.indices.fill(0);
        self.address = self.nest.base;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::SplitMix64;

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

    /// Every address of a nest, read as signed, by the div/mod formula.
    fn addresses(nest: &AffineNest) -> Vec<i64> {
        (0..nest.checked_len().unwrap())
            .map(|x| nest.address_at(x) as i64)
            .collect()
    }

    #[test]
    fn dual_counter_tracks_the_summed_offset() {
        let nest = AffineNest::new(100, &[3, 2, 2], &[8, -40]);
        let mut counter = DualCounter::new(nest);
        for t in 0..12u64 {
            let (i, j) = (t % 3, t / 3 % 2);
            let expected = 100 + 8 * i as i64 - 40 * j as i64;
            assert_eq!(counter.address() as i64, expected, "step {t}");
            counter.step();
        }
        assert_eq!(counter.address(), 100, "the nest returns to its base");
    }

    /// `skip(from, to)` leaves the counter exactly where `to − from` steps
    /// would, from any position, with the same wraps and last wrap.
    #[test]
    fn skip_matches_repeated_steps() {
        let mut rng = SplitMix64::new(0x5c1b);
        for case in 0..256 {
            let (bounds, strides) = nest(&mut rng, 4, 4, (0, 31));
            let nest = AffineNest::new(rng.below(100), &bounds, &strides);
            let total = nest.checked_len().unwrap();
            let mut stepped = DualCounter::new(nest);
            let from = rng.below(total + 1);
            for _ in 0..from {
                stepped.step();
            }
            let mut skipped = stepped.clone();
            let to = (from + rng.below(total + 2)).min(total);
            let (mut wraps, mut last) = (0, 0);
            for _ in from..to {
                last = stepped.step();
                wraps += last as u64;
            }
            let skip = skipped.skip(from, to);
            assert_eq!(skipped, stepped, "case {case}");
            if to > from {
                assert_eq!(skip, (wraps, last), "case {case}");
            }
        }
    }

    /// `lag_runs` tiles its range with runs whose every position lies the
    /// run's shift from the position `delta` before it, and `hull` bounds
    /// every run, exactly on the nest's digit boxes.
    #[test]
    fn lag_runs_and_hulls_match_the_addresses() {
        let mut rng = SplitMix64::new(0x1a6);
        for case in 0..512 {
            let (bounds, strides) = nest(&mut rng, 5, 4, (-32, 32));
            let nest = AffineNest::new(1 << 20, &bounds, &strides);
            let addrs = addresses(&nest);
            let total = nest.checked_len().unwrap();
            let delta = rng.below(total);
            let from = delta + rng.below(total - delta);
            let to = from + rng.below(total - from + 1);
            let mut next = from;
            for run in nest.lag_runs(delta, from, to) {
                assert!(run.start == next && run.start < run.end, "case {case}");
                let span = &addrs[run.start as usize..run.end as usize];
                let (lo, hi) = nest.hull(run.start, run.end).unwrap();
                for (x, &a) in (run.start..).zip(span) {
                    assert_eq!(a - addrs[(x - delta) as usize], run.shift, "case {case}");
                    assert!(lo <= i128::from(a) && i128::from(a) <= hi, "case {case}");
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
                nest.hull(start, start + inner),
                Some((i128::from(extremes.0), i128::from(extremes.1))),
                "case {case}"
            );
        }
    }

    /// Every shift `a(x) − a(x − p)` a covered position realises is one of
    /// the enumerated borrow-pattern shifts, and a refused one is `false`.
    #[test]
    fn every_realised_lag_shift_is_enumerated() {
        let mut rng = SplitMix64::new(0xb0220);
        let mut borrowed = 0;
        for case in 0..512 {
            let (bounds, strides) = nest(&mut rng, 5, 4, (-32, 32));
            let nest = AffineNest::new(1 << 20, &bounds, &strides);
            let addrs = addresses(&nest);
            let total = nest.checked_len().unwrap();
            let n = 1 + rng.below(total);
            let p = rng.below(n + 1);
            let mut shifts = Vec::new();
            assert!(
                nest.every_lag_shift(p, n, |s| {
                    shifts.push(s);
                    true
                }),
                "case {case}"
            );
            assert!(shifts.len() <= 1 << bounds.len(), "case {case}");
            // Inside the innermost dimension `x − p` never borrows.
            if p < n && n <= bounds[0] {
                assert_eq!(shifts, [p as i64 * strides[0]], "case {case}");
            }
            for x in p..n {
                let realised = addrs[x as usize] - addrs[(x - p) as usize];
                assert!(shifts.contains(&realised), "case {case}: x {x}");
            }
            borrowed += u64::from(shifts.len() > 1);
            if let Some(&refused) = shifts.last() {
                assert!(!nest.every_lag_shift(p, n, |s| s != refused), "case {case}");
            }
        }
        assert!(borrowed > 100, "{borrowed} cases enumerate a borrow");
    }
}
