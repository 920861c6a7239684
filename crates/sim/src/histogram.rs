//! Log-bucketed latency/occupancy histograms.
//!
//! The paper's decoupling argument (§III-C, Fig. 7a) is about *tails*: a
//! streamer that hides the p99 memory round-trip is what lets the PE array
//! run near the stall-free bound. Averages can't show that, so the
//! simulator records request lifetimes and FIFO occupancies into
//! [`LatencyHistogram`] — an HDR-style histogram with logarithmic buckets
//! and a fixed relative error, cheap enough to stay always-on in the
//! crossbar's grant path.
//!
//! Design points:
//!
//! * values up to [`LatencyHistogram::EXACT_LIMIT`] land in exact unit
//!   buckets (small latencies and FIFO occupancies lose no precision);
//! * larger values use [`SUB_BUCKETS`](LatencyHistogram::SUB_BUCKETS)
//!   sub-buckets per power of two, bounding relative error to
//!   `1 / SUB_BUCKETS` (6.25%);
//! * `count`, `sum`, `min` and `max` are tracked exactly, so sums of merged
//!   histograms are exact even though individual samples are bucketed;
//! * histograms [`merge`](LatencyHistogram::merge) losslessly (bucket
//!   boundaries are global constants) and serialize through the dependency
//!   free [`crate::json`] layer for `BENCH_*.json` artifacts.
//!
//! # Examples
//!
//! ```
//! use dm_sim::LatencyHistogram;
//!
//! let mut h = LatencyHistogram::new();
//! for v in [1, 1, 2, 3, 100] {
//!     h.record(v);
//! }
//! assert_eq!(h.count(), 5);
//! assert_eq!(h.min(), 1);
//! assert_eq!(h.max(), 100);
//! assert_eq!(h.percentile(0.5), 2);
//! assert_eq!(h.to_json().get("count").and_then(|v| v.as_u64()), Some(5));
//! ```

use std::fmt;

use crate::json::JsonValue;

/// A mergeable, JSON-serializable histogram of `u64` samples with
/// logarithmic buckets (see the module docs for the bucketing rule).
#[derive(Debug, Default, PartialEq, Eq)]
pub struct LatencyHistogram {
    /// Bucket counts, grown lazily to the highest occupied index.
    buckets: Vec<u64>,
    count: u64,
    sum: u64,
    min: u64,
    max: u64,
}

crate::clone_fields!(LatencyHistogram {
    buckets,
    count,
    sum,
    min,
    max
});

impl LatencyHistogram {
    /// log2 of [`SUB_BUCKETS`](Self::SUB_BUCKETS).
    const SUB_BITS: u32 = 4;

    /// Sub-buckets per power of two above the exact range.
    pub const SUB_BUCKETS: u64 = 1 << Self::SUB_BITS;

    /// Values strictly below this are recorded exactly (one bucket each).
    pub const EXACT_LIMIT: u64 = Self::SUB_BUCKETS;

    /// Creates an empty histogram.
    #[must_use]
    pub fn new() -> Self {
        LatencyHistogram::default()
    }

    /// Bucket index for a value.
    ///
    /// Values `< EXACT_LIMIT` map to their own bucket; above that, each
    /// power-of-two range `[2^e, 2^(e+1))` splits into `SUB_BUCKETS` equal
    /// sub-buckets.
    #[must_use]
    #[inline]
    pub fn bucket_index(value: u64) -> usize {
        if value < Self::EXACT_LIMIT {
            return value as usize;
        }
        let exp = 63 - u64::from(value.leading_zeros()); // floor(log2), >= SUB_BITS
        let shift = exp - u64::from(Self::SUB_BITS);
        let block = exp - u64::from(Self::SUB_BITS) + 1;
        (block * Self::SUB_BUCKETS + ((value >> shift) - Self::SUB_BUCKETS)) as usize
    }

    /// Smallest value that lands in bucket `index` (the bucket's
    /// representative value for percentile queries).
    #[must_use]
    pub fn bucket_lower_bound(index: usize) -> u64 {
        let index = index as u64;
        if index < Self::EXACT_LIMIT {
            return index;
        }
        let block = index / Self::SUB_BUCKETS;
        let within = index % Self::SUB_BUCKETS;
        (Self::SUB_BUCKETS + within) << (block - 1)
    }

    /// Records one sample.
    #[inline]
    pub fn record(&mut self, value: u64) {
        self.record_n(value, 1);
    }

    /// Records `n` identical samples.
    #[inline]
    pub fn record_n(&mut self, value: u64, n: u64) {
        if n == 0 {
            return;
        }
        let idx = Self::bucket_index(value);
        if idx >= self.buckets.len() {
            self.buckets.resize(idx + 1, 0);
        }
        self.buckets[idx] += n;
        if self.count == 0 {
            self.min = value;
            self.max = value;
        } else {
            self.min = self.min.min(value);
            self.max = self.max.max(value);
        }
        self.count += n;
        self.sum += value * n;
    }

    /// Number of recorded samples.
    #[must_use]
    pub fn count(&self) -> u64 {
        self.count
    }

    /// `true` when nothing has been recorded.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// Exact sum of all recorded samples (not subject to bucketing).
    #[must_use]
    pub fn sum(&self) -> u64 {
        self.sum
    }

    /// Smallest recorded sample (exact). Zero when empty.
    #[must_use]
    pub fn min(&self) -> u64 {
        self.min
    }

    /// Largest recorded sample (exact). Zero when empty.
    #[must_use]
    pub fn max(&self) -> u64 {
        self.max
    }

    /// Exact arithmetic mean. Zero when empty.
    #[must_use]
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// The `q`-quantile (`0.0..=1.0`) of the recorded samples.
    ///
    /// Returns the lower bound of the bucket containing the rank
    /// `ceil(q * count)` sample (clamped to the exact `min`/`max`), so the
    /// result under-reports by at most the bucket's relative error and is
    /// exact for values `< EXACT_LIMIT`. `q = 0` returns `min`, `q = 1`
    /// returns `max`, both exact. Zero when empty.
    ///
    /// # Panics
    ///
    /// Panics if `q` is outside `[0, 1]`.
    #[must_use]
    pub fn percentile(&self, q: f64) -> u64 {
        assert!((0.0..=1.0).contains(&q), "quantile {q} outside [0, 1]");
        if self.count == 0 {
            return 0;
        }
        if q <= 0.0 {
            return self.min;
        }
        if q >= 1.0 {
            return self.max;
        }
        // Rank of the target sample, 1-based.
        let rank = (q * self.count as f64).ceil().max(1.0) as u64;
        let mut seen = 0u64;
        for (idx, &n) in self.buckets.iter().enumerate() {
            seen += n;
            if seen >= rank {
                return Self::bucket_lower_bound(idx).clamp(self.min, self.max);
            }
        }
        self.max
    }

    /// Convenience accessor for the standard reporting tuple
    /// `(p50, p90, p99, max)`.
    #[must_use]
    pub fn summary_percentiles(&self) -> (u64, u64, u64, u64) {
        (
            self.percentile(0.50),
            self.percentile(0.90),
            self.percentile(0.99),
            self.max,
        )
    }

    /// Folds another histogram into this one. Bucket boundaries are global
    /// constants, so merging is lossless and associative.
    pub fn merge(&mut self, other: &LatencyHistogram) {
        if other.count == 0 {
            return;
        }
        if other.buckets.len() > self.buckets.len() {
            self.buckets.resize(other.buckets.len(), 0);
        }
        for (mine, theirs) in self.buckets.iter_mut().zip(&other.buckets) {
            *mine += *theirs;
        }
        if self.count == 0 {
            self.min = other.min;
            self.max = other.max;
        } else {
            self.min = self.min.min(other.min);
            self.max = self.max.max(other.max);
        }
        self.count += other.count;
        self.sum += other.sum;
    }

    /// Adds `k` copies of the samples `later` holds beyond `earlier`, an
    /// earlier state of the same histogram. The values of those samples
    /// lie within `later`'s min and max, which are merged in.
    ///
    /// # Panics
    ///
    /// Panics if `earlier` holds a sample `later` lacks.
    pub fn add_repeats(&mut self, later: &LatencyHistogram, earlier: &LatencyHistogram, k: u64) {
        let count = later.count - earlier.count;
        if count == 0 || k == 0 {
            return;
        }
        if later.buckets.len() > self.buckets.len() {
            self.buckets.resize(later.buckets.len(), 0);
        }
        for (i, (mine, n)) in self.buckets.iter_mut().zip(&later.buckets).enumerate() {
            *mine += k * (n - earlier.buckets.get(i).copied().unwrap_or(0));
        }
        if self.count == 0 {
            (self.min, self.max) = (later.min, later.max);
        } else {
            self.min = self.min.min(later.min);
            self.max = self.max.max(later.max);
        }
        self.count += k * count;
        self.sum += k * (later.sum - earlier.sum);
    }

    /// Merged copy of an iterator of histograms.
    #[must_use]
    pub fn merged<'a>(parts: impl IntoIterator<Item = &'a LatencyHistogram>) -> Self {
        let mut out = LatencyHistogram::new();
        for part in parts {
            out.merge(part);
        }
        out
    }

    /// Serializes to a JSON object with exact scalars and a sparse
    /// `[index, count]` bucket list.
    #[must_use]
    pub fn to_json(&self) -> JsonValue {
        let buckets: Vec<JsonValue> = self
            .buckets
            .iter()
            .enumerate()
            .filter(|(_, &n)| n > 0)
            .map(|(i, &n)| JsonValue::Array(vec![JsonValue::from(i), JsonValue::from(n)]))
            .collect();
        JsonValue::object([
            ("count".to_owned(), JsonValue::from(self.count)),
            ("sum".to_owned(), JsonValue::from(self.sum)),
            ("min".to_owned(), JsonValue::from(self.min)),
            ("max".to_owned(), JsonValue::from(self.max)),
            ("buckets".to_owned(), JsonValue::Array(buckets)),
        ])
    }
}

impl fmt::Display for LatencyHistogram {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let (p50, p90, p99, max) = self.summary_percentiles();
        write!(
            f,
            "p50 {p50} | p90 {p90} | p99 {p99} | max {max} | mean {:.2} (n={})",
            self.mean(),
            self.count
        )
    }
}

impl Extend<u64> for LatencyHistogram {
    fn extend<I: IntoIterator<Item = u64>>(&mut self, iter: I) {
        for v in iter {
            self.record(v);
        }
    }
}

impl FromIterator<u64> for LatencyHistogram {
    fn from_iter<I: IntoIterator<Item = u64>>(iter: I) -> Self {
        let mut h = LatencyHistogram::new();
        h.extend(iter);
        h
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::SplitMix64;

    /// `len` latencies drawn uniformly from `0..1_000_000`.
    fn latencies(rng: &mut SplitMix64, len: u64) -> Vec<u64> {
        (0..len).map(|_| rng.below(1_000_000)).collect()
    }

    /// Run-length recording (one `record_n` per run of equal samples, in
    /// any run order) builds exactly the histogram that per-sample
    /// `record` calls build — the contract FIFO occupancy sampling relies
    /// on — including the lazily grown bucket vector.
    #[test]
    fn run_length_record_n_equals_per_sample_record() {
        let mut rng = SplitMix64::new(0x0cc);
        for case in 0..200 {
            let runs: Vec<(u64, u64)> = (0..1 + rng.below(12))
                .map(|_| {
                    let level = match rng.below(3) {
                        0 => rng.below(LatencyHistogram::EXACT_LIMIT),
                        1 => rng.below(1 << 12),
                        _ => rng.next_u64() >> 24,
                    };
                    (level, rng.below(40))
                })
                .collect();
            let mut per_sample = LatencyHistogram::new();
            for &(level, run) in &runs {
                for _ in 0..run {
                    per_sample.record(level);
                }
            }
            let mut run_length = LatencyHistogram::new();
            for &(level, run) in runs.iter().rev() {
                run_length.record_n(level, run);
            }
            assert_eq!(
                run_length.buckets.len(),
                per_sample.buckets.len(),
                "case {case}"
            );
            assert_eq!(run_length, per_sample, "case {case}");
            assert_eq!(
                run_length.to_json().to_json(),
                per_sample.to_json().to_json(),
                "case {case}"
            );
        }
    }

    #[test]
    fn small_values_are_exact() {
        // Every value below EXACT_LIMIT owns its bucket.
        for v in 0..LatencyHistogram::EXACT_LIMIT {
            assert_eq!(LatencyHistogram::bucket_index(v), v as usize);
            assert_eq!(LatencyHistogram::bucket_lower_bound(v as usize), v);
        }
        let h: LatencyHistogram = (0..LatencyHistogram::EXACT_LIMIT).collect();
        for (i, q) in [(0u64, 0.01), (7, 0.5), (15, 1.0)] {
            assert_eq!(h.percentile(q), i, "q={q}");
        }
    }

    #[test]
    fn bucket_boundaries_are_exact_powers() {
        // The first value of each power-of-two range starts a fresh bucket
        // and is its own lower bound.
        for exp in LatencyHistogram::SUB_BITS..63 {
            let v = 1u64 << exp;
            let idx = LatencyHistogram::bucket_index(v);
            assert_eq!(LatencyHistogram::bucket_lower_bound(idx), v, "2^{exp}");
            assert_ne!(idx, LatencyHistogram::bucket_index(v - 1), "2^{exp} - 1");
        }
    }

    #[test]
    fn bucket_indices_are_contiguous_and_monotonic() {
        let mut last = 0usize;
        for v in 1..10_000u64 {
            let idx = LatencyHistogram::bucket_index(v);
            assert!(idx == last || idx == last + 1, "gap at {v}");
            last = idx;
        }
    }

    #[test]
    fn lower_bound_round_trips_through_index() {
        for idx in 0..600 {
            let lb = LatencyHistogram::bucket_lower_bound(idx);
            assert_eq!(LatencyHistogram::bucket_index(lb), idx, "index {idx}");
        }
    }

    #[test]
    fn percentiles_clamp_to_exact_extremes() {
        let h: LatencyHistogram = [100, 1000, 100_000].into_iter().collect();
        assert_eq!(h.percentile(0.0), 100);
        assert_eq!(h.percentile(1.0), 100_000);
        assert_eq!(h.max(), 100_000);
        // p99 of three samples is the last one, reported at its bucket's
        // lower bound but clamped to the exact max.
        assert!(h.percentile(0.99) <= 100_000);
    }

    #[test]
    fn relative_error_is_bounded() {
        for v in [17u64, 100, 999, 12_345, 1 << 30, u64::MAX / 2] {
            let lb = LatencyHistogram::bucket_lower_bound(LatencyHistogram::bucket_index(v));
            assert!(lb <= v);
            let err = (v - lb) as f64 / v as f64;
            assert!(
                err < 1.0 / LatencyHistogram::SUB_BUCKETS as f64,
                "{v}: {err}"
            );
        }
    }

    #[test]
    fn empty_histogram_is_all_zeros() {
        let h = LatencyHistogram::new();
        assert!(h.is_empty());
        assert_eq!(h.percentile(0.5), 0);
        assert_eq!(h.mean(), 0.0);
        assert_eq!(h.summary_percentiles(), (0, 0, 0, 0));
    }

    #[test]
    #[should_panic(expected = "outside [0, 1]")]
    fn percentile_rejects_bad_quantile() {
        let _ = LatencyHistogram::new().percentile(1.5);
    }

    #[test]
    fn merge_is_associative_and_lossless() {
        let a: LatencyHistogram = [1u64, 5, 100].into_iter().collect();
        let b: LatencyHistogram = [2u64, 1 << 20].into_iter().collect();
        let c: LatencyHistogram = [0u64, 0, 77].into_iter().collect();
        let mut ab_c = a.clone();
        ab_c.merge(&b);
        ab_c.merge(&c);
        let mut bc = b.clone();
        bc.merge(&c);
        let mut a_bc = a.clone();
        a_bc.merge(&bc);
        assert_eq!(ab_c, a_bc);
        let all: LatencyHistogram = [1u64, 5, 100, 2, 1 << 20, 0, 0, 77].into_iter().collect();
        assert_eq!(ab_c, all, "merge equals recording everything directly");
        assert_eq!(LatencyHistogram::merged([&a, &b, &c]), all);
    }

    #[test]
    fn merge_into_empty_preserves_extremes() {
        let a: LatencyHistogram = [3u64, 9].into_iter().collect();
        let mut empty = LatencyHistogram::new();
        empty.merge(&a);
        assert_eq!(empty, a);
        let mut a2 = a.clone();
        a2.merge(&LatencyHistogram::new());
        assert_eq!(a2, a);
    }

    #[test]
    fn json_round_trip_is_exact() {
        // The JSON layer stores numbers as f64, which is exact for
        // integers up to 2^53 — far beyond any simulated latency.
        let h: LatencyHistogram = [0u64, 1, 1, 15, 16, 17, 1000, 1 << 40]
            .into_iter()
            .collect();
        let json = h.to_json();
        assert_eq!(JsonValue::parse(&json.to_json()).unwrap(), json);
        assert_eq!(json.get("max").and_then(JsonValue::as_u64), Some(1 << 40));
        assert_eq!(json.get("sum").and_then(JsonValue::as_u64), Some(h.sum()));
    }

    #[test]
    fn record_n_matches_repeated_record() {
        let mut a = LatencyHistogram::new();
        a.record_n(7, 3);
        a.record_n(9, 0);
        let b: LatencyHistogram = [7u64, 7, 7].into_iter().collect();
        assert_eq!(a, b);
    }

    #[test]
    fn display_is_nonempty() {
        let h: LatencyHistogram = [1u64, 2].into_iter().collect();
        assert!(h.to_string().contains("p99"));
    }

    /// Percentiles are monotone in q, bounded by [min, max], and the exact
    /// scalars match the samples.
    #[test]
    fn percentile_monotonicity() {
        let mut rng = SplitMix64::new(0x9c7);
        for case in 0..256 {
            let len = 1 + rng.below(299);
            let samples = latencies(&mut rng, len);
            let h: LatencyHistogram = samples.iter().copied().collect();
            assert_eq!(h.count(), samples.len() as u64, "case {case}");
            assert_eq!(h.sum(), samples.iter().sum::<u64>(), "case {case}");
            assert_eq!(h.min(), *samples.iter().min().unwrap(), "case {case}");
            assert_eq!(h.max(), *samples.iter().max().unwrap(), "case {case}");
            let mut last = h.percentile(0.0);
            for q in [0.1, 0.25, 0.5, 0.75, 0.9, 0.99, 0.999, 1.0] {
                let p = h.percentile(q);
                assert!(p >= last, "case {case}: p({q}) = {p} < {last}");
                assert!(p >= h.min() && p <= h.max(), "case {case}");
                last = p;
            }
        }
    }

    /// Merging a random split of the samples equals recording them all into
    /// one histogram.
    #[test]
    fn merge_equals_union() {
        let mut rng = SplitMix64::new(0x3e6);
        for case in 0..256 {
            let (left_len, right_len) = (rng.below(100), rng.below(100));
            let left = latencies(&mut rng, left_len);
            let right = latencies(&mut rng, right_len);
            let mut merged: LatencyHistogram = left.iter().copied().collect();
            merged.merge(&right.iter().copied().collect());
            let direct: LatencyHistogram = left.iter().chain(right.iter()).copied().collect();
            assert_eq!(merged, direct, "case {case}");
        }
    }
}
