//! The Quantization accelerator: `E8 = rescale(D32)`.
//!
//! Rescaling uses the standard integer-only fixed-point scheme: each int32
//! accumulator is multiplied by a per-output-channel int32 multiplier,
//! arithmetic-shifted right (with round-half-up) and saturated to int8 —
//! the same family of operations TFLite-style integer inference uses and
//! what the paper's `Rescale` denotes.

/// Fixed-point rescale parameters for one output channel.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct RescaleParams {
    /// Fixed-point multiplier.
    pub multiplier: i32,
    /// Right-shift amount (0..=62).
    pub shift: u32,
}

impl RescaleParams {
    /// Identity rescale (multiplier 1, shift 0) — saturation only.
    pub const IDENTITY: RescaleParams = RescaleParams {
        multiplier: 1,
        shift: 0,
    };

    /// Applies the rescale to one accumulator value.
    ///
    /// # Examples
    ///
    /// ```
    /// use dm_accel::RescaleParams;
    ///
    /// let p = RescaleParams { multiplier: 1, shift: 4 };
    /// assert_eq!(p.apply(160), 10);
    /// assert_eq!(p.apply(-160), -10);
    /// assert_eq!(RescaleParams::IDENTITY.apply(1000), 127); // saturates
    /// ```
    #[must_use]
    pub fn apply(&self, value: i32) -> i8 {
        let product = i64::from(value) * i64::from(self.multiplier);
        let rounding = 1i64 << self.shift >> 1; // half, 0 when shift == 0
        let shifted = (product + rounding) >> self.shift;
        shifted.clamp(i64::from(i8::MIN), i64::from(i8::MAX)) as i8
    }
}

impl Default for RescaleParams {
    fn default() -> Self {
        RescaleParams::IDENTITY
    }
}

/// The quantization accelerator: rescales `Mu × Nu` int32 tiles to int8
/// tiles using per-column (per-output-channel) parameters.
///
/// # Examples
///
/// ```
/// use dm_accel::{Quantizer, RescaleParams};
/// use dm_accel::word::encode_i32;
///
/// let q = Quantizer::new(2, 2, vec![RescaleParams { multiplier: 1, shift: 1 }; 2]);
/// let d = encode_i32(&[2, 4, 6, 8]);
/// assert_eq!(q.rescale_tile(&d), vec![1, 2, 3, 4]);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Quantizer {
    rows: usize,
    cols: usize,
    params: Vec<RescaleParams>,
    tiles_processed: u64,
    /// The last E tile [`process`](Self::process) produced.
    e_tile: Vec<u8>,
}

impl Quantizer {
    /// Creates a quantizer for `rows × cols` tiles with per-column
    /// parameters.
    ///
    /// # Panics
    ///
    /// Panics if `params.len() != cols`.
    #[must_use]
    pub fn new(rows: usize, cols: usize, params: Vec<RescaleParams>) -> Self {
        assert_eq!(params.len(), cols, "one rescale parameter per column");
        Quantizer {
            rows,
            cols,
            params,
            tiles_processed: 0,
            e_tile: vec![0; rows * cols],
        }
    }

    /// Creates a quantizer with a single shared parameter for all columns.
    #[must_use]
    pub fn uniform(rows: usize, cols: usize, params: RescaleParams) -> Self {
        Quantizer::new(rows, cols, vec![params; cols])
    }

    /// Tile geometry `(rows, cols)`.
    #[must_use]
    pub fn shape(&self) -> (usize, usize) {
        (self.rows, self.cols)
    }

    /// Per-column parameters.
    #[must_use]
    pub fn params(&self) -> &[RescaleParams] {
        &self.params
    }

    /// Rescales one D tile (row-major int32 bytes) into an E tile
    /// (row-major int8 bytes).
    ///
    /// # Panics
    ///
    /// Panics if the input width mismatches the tile geometry.
    #[must_use]
    pub fn rescale_tile(&self, d_tile: &[u8]) -> Vec<u8> {
        assert_eq!(d_tile.len(), self.rows * self.cols * 4, "D tile width");
        let mut e_tile = vec![0; self.rows * self.cols];
        rescale_into(&self.params, d_tile, &mut e_tile);
        e_tile
    }

    /// Rescales and counts the tile (the stateful system-facing entry).
    ///
    /// The returned E tile borrows an internal buffer that the next call
    /// overwrites; nothing is allocated.
    #[must_use]
    pub fn process(&mut self, d_tile: &[u8]) -> &[u8] {
        assert_eq!(d_tile.len(), self.rows * self.cols * 4, "D tile width");
        self.tiles_processed += 1;
        rescale_into(&self.params, d_tile, &mut self.e_tile);
        &self.e_tile
    }

    /// Tiles processed via [`process`](Self::process).
    #[must_use]
    pub fn tiles_processed(&self) -> u64 {
        self.tiles_processed
    }
}

/// Rescales the row-major int32 tile `d_tile` into the int8 tile `e_tile`,
/// one parameter per column.
fn rescale_into(params: &[RescaleParams], d_tile: &[u8], e_tile: &mut [u8]) {
    let cols = params.len();
    for (d_row, e_row) in d_tile
        .chunks_exact(4 * cols)
        .zip(e_tile.chunks_exact_mut(cols))
    {
        for ((d, e), p) in d_row.chunks_exact(4).zip(e_row).zip(params) {
            *e = p.apply(i32::from_le_bytes([d[0], d[1], d[2], d[3]])) as u8;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::word::encode_i32;
    use dm_sim::SplitMix64;

    #[test]
    fn identity_saturates_only() {
        let p = RescaleParams::IDENTITY;
        assert_eq!(p.apply(5), 5);
        assert_eq!(p.apply(-5), -5);
        assert_eq!(p.apply(300), 127);
        assert_eq!(p.apply(-300), -128);
        assert_eq!(RescaleParams::default(), p);
    }

    #[test]
    fn rounding_is_half_up() {
        let p = RescaleParams {
            multiplier: 1,
            shift: 1,
        };
        assert_eq!(p.apply(3), 2); // 1.5 → 2
        assert_eq!(p.apply(1), 1); // 0.5 → 1
        assert_eq!(p.apply(-1), 0); // -0.5 → 0 (half-up toward +∞)
    }

    #[test]
    fn per_column_params_apply_columnwise() {
        let q = Quantizer::new(
            2,
            2,
            vec![
                RescaleParams {
                    multiplier: 1,
                    shift: 0,
                },
                RescaleParams {
                    multiplier: 2,
                    shift: 0,
                },
            ],
        );
        let d = encode_i32(&[1, 1, 2, 2]);
        assert_eq!(q.rescale_tile(&d), vec![1, 2, 2, 4]);
    }

    #[test]
    fn process_counts_tiles() {
        let mut q = Quantizer::uniform(1, 1, RescaleParams::IDENTITY);
        let _ = q.process(&encode_i32(&[1]));
        let _ = q.process(&encode_i32(&[2]));
        assert_eq!(q.tiles_processed(), 2);
    }

    #[test]
    #[should_panic(expected = "one rescale parameter per column")]
    fn wrong_param_count_panics() {
        let _ = Quantizer::new(2, 4, vec![RescaleParams::IDENTITY; 2]);
    }

    /// Output never exceeds int8 range and is monotone in the input for
    /// positive multipliers.
    #[test]
    fn saturation_and_monotonicity() {
        let mut rng = SplitMix64::new(0x9a47);
        for _ in 0..4096 {
            let (v1, v2) = (rng.next_u64() as i32, rng.next_u64() as i32);
            let (v1, v2) = (v1.min(v2), v1.max(v2));
            let p = RescaleParams {
                multiplier: 1 + rng.below((1 << 20) - 1) as i32,
                shift: rng.below(31) as u32,
            };
            let (e1, e2) = (p.apply(v1), p.apply(v2));
            assert!(e1 <= e2, "monotone: {v1}→{e1}, {v2}→{e2} under {p:?}");
        }
    }

    /// Identity parameters on in-range values are exact.
    #[test]
    fn identity_is_exact_in_range() {
        for v in -128i32..=127 {
            assert_eq!(RescaleParams::IDENTITY.apply(v), v as i8);
        }
    }

    /// The buffered system entry and the allocating helper agree tile for
    /// tile, including after the buffer has been reused.
    #[test]
    fn process_matches_rescale_tile() {
        let mut rng = SplitMix64::new(0x0e8);
        let params: Vec<RescaleParams> = (0..8)
            .map(|_| RescaleParams {
                multiplier: 1 + rng.below(1 << 16) as i32,
                shift: rng.below(24) as u32,
            })
            .collect();
        let mut q = Quantizer::new(8, 8, params);
        for _ in 0..32 {
            let d: Vec<i32> = (0..64).map(|_| rng.next_u64() as i32).collect();
            let d = encode_i32(&d);
            let expected = q.rescale_tile(&d);
            assert_eq!(q.process(&d), expected.as_slice());
        }
        assert_eq!(q.tiles_processed(), 32);
    }
}
