//! The Tensor-Core-like GeMM accelerator datapath.

/// Output columns per MAC-kernel lane group.
const LANES: usize = 8;

/// Spatial unrolling of the 3-D PE array (`Mu × Nu × Ku` MACs per cycle).
///
/// The evaluation system uses 8×8×8 = 512 PEs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct GemmArrayConfig {
    /// Output rows computed in parallel.
    pub m_unroll: usize,
    /// Output columns computed in parallel.
    pub n_unroll: usize,
    /// Reduction elements consumed in parallel.
    pub k_unroll: usize,
}

impl GemmArrayConfig {
    /// The paper's 8×8×8 array.
    #[must_use]
    pub const fn paper() -> Self {
        GemmArrayConfig {
            m_unroll: 8,
            n_unroll: 8,
            k_unroll: 8,
        }
    }

    /// Total processing elements.
    #[must_use]
    pub fn num_pes(&self) -> usize {
        self.m_unroll * self.n_unroll * self.k_unroll
    }

    /// Bytes of one A tile (`Mu × Ku` int8).
    #[must_use]
    pub fn a_tile_bytes(&self) -> usize {
        self.m_unroll * self.k_unroll
    }

    /// Bytes of one B tile (`Ku × Nu` int8).
    #[must_use]
    pub fn b_tile_bytes(&self) -> usize {
        self.k_unroll * self.n_unroll
    }

    /// Bytes of one C/D tile (`Mu × Nu` int32).
    #[must_use]
    pub fn cd_tile_bytes(&self) -> usize {
        self.m_unroll * self.n_unroll * 4
    }

    /// Bytes of one E tile (`Mu × Nu` int8).
    #[must_use]
    pub fn e_tile_bytes(&self) -> usize {
        self.m_unroll * self.n_unroll
    }
}

impl Default for GemmArrayConfig {
    fn default() -> Self {
        GemmArrayConfig::paper()
    }
}

/// The GeMM datapath: accumulates `k_steps` tile MACs into an output tile.
///
/// Each call to [`step`](Self::step) performs one cycle's worth of work:
/// `acc += A_tile × B_tile`, seeding the accumulator with the C tile on the
/// first step of each output tile and releasing `D = acc` on the last.
///
/// # Examples
///
/// ```
/// use dm_accel::{GemmArrayConfig, GemmDatapath};
/// use dm_accel::word::{encode_i32, decode_i32};
///
/// let cfg = GemmArrayConfig { m_unroll: 2, n_unroll: 2, k_unroll: 2 };
/// let mut dp = GemmDatapath::new(cfg, 1);
/// // A = [[1,2],[3,4]], B = [[5,6],[7,8]], C = 0.
/// let a = [1i8, 2, 3, 4].map(|v| v as u8);
/// let b = [5i8, 6, 7, 8].map(|v| v as u8);
/// let c = encode_i32(&[0; 4]);
/// let d = dp.step(&a, &b, Some(&c)).expect("k_steps = 1 completes a tile");
/// assert_eq!(decode_i32(d), vec![19, 22, 43, 50]);
/// ```
#[derive(Debug, Clone)]
pub struct GemmDatapath {
    config: GemmArrayConfig,
    k_steps: u64,
    k_counter: u64,
    acc: Vec<i32>,
    /// Little-endian bytes of the last finished D tile.
    d_tile: Vec<u8>,
    tiles_completed: u64,
    macs: u64,
}

impl GemmDatapath {
    /// Creates a datapath that accumulates `k_steps` tile products per
    /// output tile (the temporal K loop length).
    ///
    /// # Panics
    ///
    /// Panics if `k_steps` is zero.
    #[must_use]
    pub fn new(config: GemmArrayConfig, k_steps: u64) -> Self {
        assert!(k_steps > 0, "k_steps must be non-zero");
        GemmDatapath {
            config,
            k_steps,
            k_counter: 0,
            acc: vec![0; config.m_unroll * config.n_unroll],
            d_tile: vec![0; config.cd_tile_bytes()],
            tiles_completed: 0,
            macs: 0,
        }
    }

    /// The array configuration.
    #[must_use]
    pub fn config(&self) -> &GemmArrayConfig {
        &self.config
    }

    /// `true` when the next [`step`](Self::step) starts a fresh output tile
    /// (and therefore needs the C operand).
    #[must_use]
    pub fn needs_c(&self) -> bool {
        self.k_counter == 0
    }

    /// `true` when the next [`step`](Self::step) completes an output tile
    /// (and therefore produces D).
    #[must_use]
    pub fn produces_d(&self) -> bool {
        self.k_counter == self.k_steps - 1
    }

    /// Executes one cycle: `acc += A×B`, seeded by `c` when
    /// [`needs_c`](Self::needs_c); returns the finished D tile when
    /// [`produces_d`](Self::produces_d).
    ///
    /// One kernel serves every array shape: k in pairs, output columns in
    /// fixed-width lane groups of 16-bit products widened into `i32` adds
    /// (see `mac_tile` in the source). Wrapping `i32` addition is
    /// associative, so the result is bit-equal to summing each dot product
    /// first. The returned D tile borrows an internal
    /// buffer that the next tile overwrites; nothing is allocated.
    ///
    /// # Panics
    ///
    /// Panics if the tile widths mismatch the configuration or `c` is
    /// missing on the first step of a tile.
    pub fn step(&mut self, a_tile: &[u8], b_tile: &[u8], c_tile: Option<&[u8]>) -> Option<&[u8]> {
        assert_eq!(a_tile.len(), self.config.a_tile_bytes(), "A tile width");
        assert_eq!(b_tile.len(), self.config.b_tile_bytes(), "B tile width");
        if self.needs_c() {
            let c_tile = c_tile.expect("C tile required on first k step");
            assert_eq!(c_tile.len(), self.config.cd_tile_bytes(), "C tile width");
            for (acc, c) in self.acc.iter_mut().zip(c_tile.chunks_exact(4)) {
                *acc = i32::from_le_bytes([c[0], c[1], c[2], c[3]]);
            }
        }
        mac_tile(&mut self.acc, a_tile, b_tile, self.config);
        self.macs += self.config.num_pes() as u64;
        self.k_counter += 1;
        if self.k_counter == self.k_steps {
            self.k_counter = 0;
            self.tiles_completed += 1;
            for (d, acc) in self.d_tile.chunks_exact_mut(4).zip(&self.acc) {
                d.copy_from_slice(&acc.to_le_bytes());
            }
            Some(&self.d_tile)
        } else {
            None
        }
    }

    /// Output tiles completed so far.
    #[must_use]
    pub fn tiles_completed(&self) -> u64 {
        self.tiles_completed
    }

    /// Total multiply-accumulates performed.
    #[must_use]
    pub fn macs(&self) -> u64 {
        self.macs
    }
}

/// `acc += A×B` for one tile: `acc[m][n] += Σ_k a[m][k]·b[k][n]`, reading
/// the int8 tiles in place.
///
/// k advances in pairs. For each pair and each group of [`LANES`] output
/// columns, the two B rows are widened to `i16` once, then every output row
/// adds `a[m][k]·b[k][n] + a[m][k+1]·b[k+1][n]` to its lane group. An int8
/// product is exact in `i16` and the pair sum in `i32`, so a group is
/// fixed-width 16-bit multiplies widened into `i32` adds, which baseline
/// x86-64 vectorizes (SSE2 `pmullw`, `paddd`). The last `n_unroll % LANES`
/// columns take the same sums one at a time. For odd `k_unroll` the last pair is
/// row `k` with itself under a zero factor. Rows are addressed by
/// multiplication, never by a runtime division.
#[inline]
fn mac_tile(acc: &mut [i32], a_tile: &[u8], b_tile: &[u8], config: GemmArrayConfig) {
    let GemmArrayConfig {
        m_unroll: mu,
        n_unroll: nu,
        k_unroll: ku,
    } = config;
    let groups = nu / LANES;
    let wide = |b: u8| i16::from(b as i8);
    for k0 in (0..ku).step_by(2) {
        let k1 = (k0 + 1).min(ku - 1);
        let has_k1 = i16::from(k0 + 1 < ku);
        let a_pair = |m: usize| {
            (
                wide(a_tile[m * ku + k0]),
                wide(a_tile[m * ku + k1]) * has_k1,
            )
        };
        for g in 0..groups {
            let lanes = |k: usize| -> [i16; LANES] {
                let row: &[u8; LANES] = b_tile[k * nu + g * LANES..][..LANES]
                    .try_into()
                    .expect("a whole lane group");
                row.map(wide)
            };
            let (b0, b1) = (lanes(k0), lanes(k1));
            for m in 0..mu {
                let (a0, a1) = a_pair(m);
                let acc: &mut [i32; LANES] = (&mut acc[m * nu + g * LANES..][..LANES])
                    .try_into()
                    .expect("a whole lane group");
                for lane in 0..LANES {
                    acc[lane] = acc[lane].wrapping_add(mac_pair(a0, a1, b0[lane], b1[lane]));
                }
            }
        }
        for n in groups * LANES..nu {
            let (b0, b1) = (wide(b_tile[k0 * nu + n]), wide(b_tile[k1 * nu + n]));
            for m in 0..mu {
                let (a0, a1) = a_pair(m);
                let acc = &mut acc[m * nu + n];
                *acc = acc.wrapping_add(mac_pair(a0, a1, b0, b1));
            }
        }
    }
}

/// `a0·b0 + a1·b1` for int8-range factors: each product is exact in
/// `i16`, their sum in `i32`.
#[inline(always)]
fn mac_pair(a0: i16, a1: i16, b0: i16, b1: i16) -> i32 {
    i32::from(a0 * b0) + i32::from(a1 * b1)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reference::gemm_ref;
    use crate::word::{decode_i32, encode_i32, encode_i8};
    use dm_sim::SplitMix64;

    fn tiny() -> GemmArrayConfig {
        GemmArrayConfig {
            m_unroll: 2,
            n_unroll: 2,
            k_unroll: 2,
        }
    }

    #[test]
    fn paper_config_is_512_pes() {
        let cfg = GemmArrayConfig::paper();
        assert_eq!(cfg.num_pes(), 512);
        assert_eq!(cfg.a_tile_bytes(), 64);
        assert_eq!(cfg.b_tile_bytes(), 64);
        assert_eq!(cfg.cd_tile_bytes(), 256);
        assert_eq!(cfg.e_tile_bytes(), 64);
        assert_eq!(GemmArrayConfig::default(), cfg);
    }

    #[test]
    fn single_step_with_bias() {
        let mut dp = GemmDatapath::new(tiny(), 1);
        let a = encode_i8(&[1, 0, 0, 1]); // identity
        let b = encode_i8(&[9, 8, 7, 6]);
        let c = encode_i32(&[100, 100, 100, 100]);
        let d = dp.step(&a, &b, Some(&c)).unwrap();
        assert_eq!(decode_i32(d), vec![109, 108, 107, 106]);
        assert_eq!(dp.tiles_completed(), 1);
        assert_eq!(dp.macs(), 8);
    }

    #[test]
    fn multi_step_accumulates_over_k() {
        let mut dp = GemmDatapath::new(tiny(), 2);
        let a = encode_i8(&[1, 1, 1, 1]);
        let b = encode_i8(&[1, 1, 1, 1]);
        let c = encode_i32(&[0; 4]);
        assert!(dp.needs_c());
        assert!(!dp.produces_d());
        assert!(dp.step(&a, &b, Some(&c)).is_none());
        assert!(!dp.needs_c());
        assert!(dp.produces_d());
        let d = dp.step(&a, &b, None).unwrap();
        // Two k-steps of ones: each output = 2 (per step) * 2 steps = 4.
        assert_eq!(decode_i32(d), vec![4; 4]);
    }

    #[test]
    fn negative_values_and_saturation_free_wraparound() {
        let mut dp = GemmDatapath::new(tiny(), 1);
        let a = encode_i8(&[-128, -128, -128, -128]);
        let b = encode_i8(&[-128, -128, -128, -128]);
        let c = encode_i32(&[0; 4]);
        let d = dp.step(&a, &b, Some(&c)).unwrap();
        assert_eq!(decode_i32(d), vec![32768; 4]);
    }

    #[test]
    #[should_panic(expected = "C tile required")]
    fn missing_c_panics() {
        let mut dp = GemmDatapath::new(tiny(), 1);
        let _ = dp.step(&[0; 4], &[0; 4], None);
    }

    /// Splits a row-major `m × k_total` A and `k_total × n` B into the
    /// per-step tiles of `cfg` and feeds them through a fresh datapath,
    /// returning the finished D tile.
    fn run_tiled(cfg: GemmArrayConfig, a: &[i8], b: &[i8], c: &[i32], k_steps: u64) -> Vec<i32> {
        let (mu, nu, ku) = (cfg.m_unroll, cfg.n_unroll, cfg.k_unroll);
        let k_total = ku * k_steps as usize;
        let mut dp = GemmDatapath::new(cfg, k_steps);
        let c_bytes = encode_i32(c);
        let mut d_out = None;
        for ks in 0..k_steps as usize {
            let a_tile: Vec<i8> = (0..mu)
                .flat_map(|r| (0..ku).map(move |kk| a[r * k_total + ks * ku + kk]))
                .collect();
            let b_tile: Vec<i8> = (0..ku)
                .flat_map(|kk| (0..nu).map(move |col| b[(ks * ku + kk) * nu + col]))
                .collect();
            let c_arg: Option<&[u8]> = (ks == 0).then_some(&c_bytes);
            d_out = dp
                .step(&encode_i8(&a_tile), &encode_i8(&b_tile), c_arg)
                .map(<[u8]>::to_vec);
            assert_eq!(d_out.is_some(), ks + 1 == k_steps as usize);
        }
        assert_eq!(dp.tiles_completed(), 1);
        decode_i32(&d_out.expect("final step produces the tile"))
    }

    /// Feeding the datapath tile by tile reproduces the scalar golden GeMM
    /// for random small problems.
    #[test]
    fn matches_reference() {
        let mut rng = SplitMix64::new(0x6e4d);
        for case in 0..256 {
            let k_steps = 1 + rng.below(3);
            let k_total = 2 * k_steps as usize;
            let a: Vec<i8> = (0..2 * k_total).map(|_| rng.next_u64() as i8).collect();
            let b: Vec<i8> = (0..k_total * 2).map(|_| rng.next_u64() as i8).collect();
            let c: Vec<i32> = (0..4).map(|_| rng.below(2000) as i32 - 1000).collect();
            let golden = gemm_ref(&a, &b, &c, 2, 2, k_total);
            assert_eq!(
                run_tiled(tiny(), &a, &b, &c, k_steps),
                golden,
                "case {case}"
            );
        }
    }

    /// The paper's 8×8×8 array against the golden GeMM, with operands at
    /// the int8 extremes and seeds near `i32::MAX` so accumulation wraps.
    #[test]
    fn paper_array_matches_reference_including_wraparound() {
        let cfg = GemmArrayConfig::paper();
        let mut rng = SplitMix64::new(0x888);
        for k_steps in [1u64, 3, 9] {
            let k_total = 8 * k_steps as usize;
            let extreme = |rng: &mut SplitMix64| match rng.below(4) {
                0 => i8::MIN,
                1 => i8::MAX,
                _ => rng.next_u64() as i8,
            };
            let a: Vec<i8> = (0..8 * k_total).map(|_| extreme(&mut rng)).collect();
            let b: Vec<i8> = (0..k_total * 8).map(|_| extreme(&mut rng)).collect();
            let c: Vec<i32> = (0..64)
                .map(|i| match i % 3 {
                    0 => i32::MAX - rng.below(1000) as i32,
                    1 => i32::MIN + rng.below(1000) as i32,
                    _ => rng.next_u64() as i32,
                })
                .collect();
            let golden = gemm_ref(&a, &b, &c, 8, 8, k_total);
            assert_eq!(
                run_tiled(cfg, &a, &b, &c, k_steps),
                golden,
                "k_steps {k_steps}"
            );
        }
        // All-extreme operands: every product is ±16384 and the seed sits
        // at the wrap boundary.
        for (av, bv) in [(i8::MIN, i8::MIN), (i8::MIN, i8::MAX), (i8::MAX, i8::MAX)] {
            let a = vec![av; 8 * 72];
            let b = vec![bv; 72 * 8];
            let c = vec![i32::MAX; 64];
            let golden = gemm_ref(&a, &b, &c, 8, 8, 72);
            assert_eq!(run_tiled(cfg, &a, &b, &c, 9), golden, "{av} x {bv}");
        }
    }
}
