//! Workload specifications.

use std::fmt;

/// Tile edge of the evaluation system's 8×8×8 GeMM array; operand
/// dimensions must be multiples of this.
pub const TILE: usize = 8;

/// A general matrix-matrix multiplication `D[M×N] = A[M×K]·B[K×N] + bias`.
///
/// With `transposed_a` set, the A operand is *stored* transposed (K×M) —
/// the workload the paper's Transposer extension targets.
///
/// # Examples
///
/// ```
/// use dm_workloads::GemmSpec;
///
/// let g = GemmSpec::new(64, 64, 64);
/// assert_eq!(g.macs(), 64 * 64 * 64);
/// assert_eq!(g.ideal_cycles(), 64 * 64 * 64 / 512);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct GemmSpec {
    /// Output rows.
    pub m: usize,
    /// Output columns.
    pub n: usize,
    /// Reduction depth.
    pub k: usize,
    /// A operand stored transposed (K-major).
    pub transposed_a: bool,
}

impl GemmSpec {
    /// Creates a plain GeMM spec.
    ///
    /// # Panics
    ///
    /// Panics if any dimension is zero or not a multiple of [`TILE`]; the
    /// suite and model tables only produce padded, tile-aligned shapes.
    #[must_use]
    pub fn new(m: usize, n: usize, k: usize) -> Self {
        for (name, v) in [("m", m), ("n", n), ("k", k)] {
            assert!(
                v > 0 && v % TILE == 0,
                "{name}={v} must be a positive multiple of {TILE}"
            );
        }
        GemmSpec {
            m,
            n,
            k,
            transposed_a: false,
        }
    }

    /// Creates a transposed-A GeMM spec.
    #[must_use]
    pub fn transposed(m: usize, n: usize, k: usize) -> Self {
        GemmSpec {
            transposed_a: true,
            ..GemmSpec::new(m, n, k)
        }
    }

    /// Creates a spec with every dimension rounded up to the tile size
    /// (used by the model tables for shapes like 197 or 1000).
    #[must_use]
    pub fn padded(m: usize, n: usize, k: usize) -> Self {
        GemmSpec::new(round_up(m), round_up(n), round_up(k))
    }

    /// Multiply-accumulate operations.
    #[must_use]
    pub fn macs(&self) -> u64 {
        (self.m * self.n * self.k) as u64
    }

    /// Stall-free cycles on the 8×8×8 array: one `8×8×8` tile MAC per
    /// cycle.
    #[must_use]
    pub fn ideal_cycles(&self) -> u64 {
        ((self.m / TILE) * (self.n / TILE) * (self.k / TILE)) as u64
    }

    /// Tile counts `(m_tiles, n_tiles, k_tiles)`.
    #[must_use]
    pub fn tiles(&self) -> (usize, usize, usize) {
        (self.m / TILE, self.n / TILE, self.k / TILE)
    }
}

impl fmt::Display for GemmSpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.transposed_a {
            write!(f, "gemm-t {}x{}x{}", self.m, self.n, self.k)
        } else {
            write!(f, "gemm {}x{}x{}", self.m, self.n, self.k)
        }
    }
}

/// A 2-D convolution over a pre-padded input.
///
/// `h`/`w` are the input dimensions *including* any zero padding (padding
/// is materialized by the host when staging the input, the standard
/// practice for scratchpad accelerators); `oh = (h-kh)/stride + 1` with
/// flooring division.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ConvSpec {
    /// Input height (padded).
    pub h: usize,
    /// Input width (padded).
    pub w: usize,
    /// Input channels (multiple of [`TILE`]).
    pub c_in: usize,
    /// Output channels (multiple of [`TILE`]).
    pub c_out: usize,
    /// Kernel height.
    pub kh: usize,
    /// Kernel width.
    pub kw: usize,
    /// Stride (both dimensions).
    pub stride: usize,
}

impl ConvSpec {
    /// Creates a convolution spec.
    ///
    /// # Panics
    ///
    /// Panics if channels are not tile multiples, the kernel exceeds the
    /// input, the stride is zero, or the `oh × ow` output plane cannot be
    /// covered by any `8 = sx × sy` spatial pixel tiling (the factorizations
    /// tried are 8×1, 4×2, 2×4 and 1×8).
    #[must_use]
    pub fn new(
        h: usize,
        w: usize,
        c_in: usize,
        c_out: usize,
        kh: usize,
        kw: usize,
        stride: usize,
    ) -> Self {
        assert!(
            c_in > 0 && c_in.is_multiple_of(TILE),
            "c_in must be a multiple of {TILE}"
        );
        assert!(
            c_out > 0 && c_out.is_multiple_of(TILE),
            "c_out must be a multiple of {TILE}"
        );
        assert!(stride > 0, "stride must be non-zero");
        assert!(kh > 0 && kw > 0, "kernel must be non-empty");
        assert!(h >= kh && w >= kw, "kernel larger than input");
        let spec = ConvSpec {
            h,
            w,
            c_in,
            c_out,
            kh,
            kw,
            stride,
        };
        assert!(
            spec.pixel_tiling().is_some(),
            "output plane {}x{} not coverable by an 8-pixel tile",
            spec.oh(),
            spec.ow()
        );
        spec
    }

    /// Output height.
    #[must_use]
    pub fn oh(&self) -> usize {
        (self.h - self.kh) / self.stride + 1
    }

    /// Output width.
    #[must_use]
    pub fn ow(&self) -> usize {
        (self.w - self.kw) / self.stride + 1
    }

    /// The `(ow_tile, oh_tile)` factorization of the 8-pixel output tile,
    /// preferring the widest `ow` split (contiguous accesses), or `None`
    /// if the plane is not coverable.
    #[must_use]
    pub fn pixel_tiling(&self) -> Option<(usize, usize)> {
        let (oh, ow) = (self.oh(), self.ow());
        [(8, 1), (4, 2), (2, 4), (1, 8)]
            .into_iter()
            .find(|&(sx, sy)| ow % sx == 0 && oh % sy == 0)
    }

    /// Multiply-accumulate operations.
    #[must_use]
    pub fn macs(&self) -> u64 {
        (self.oh() * self.ow() * self.c_out * self.c_in * self.kh * self.kw) as u64
    }

    /// Stall-free cycles on the 8×8×8 array (implicit-im2col mapping:
    /// M = 8 output pixels, N = 8 output channels, K = 8 input channels).
    #[must_use]
    pub fn ideal_cycles(&self) -> u64 {
        (self.oh() * self.ow() / TILE
            * (self.c_out / TILE)
            * (self.c_in / TILE)
            * self.kh
            * self.kw) as u64
    }

    /// The GeMM this convolution lowers to under (implicit) im2col:
    /// `M = oh·ow`, `N = c_out`, `K = c_in·kh·kw`.
    #[must_use]
    pub fn as_im2col_gemm(&self) -> (usize, usize, usize) {
        (
            self.oh() * self.ow(),
            self.c_out,
            self.c_in * self.kh * self.kw,
        )
    }
}

impl fmt::Display for ConvSpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "conv {}x{}x{}->{} k{}x{} s{}",
            self.h, self.w, self.c_in, self.c_out, self.kh, self.kw, self.stride
        )
    }
}

/// A 2-D max-pooling workload (runs on the streamer-built pooling system,
/// whose max unit replaces the GeMM core — see [`Workload::Pool`]).
///
/// Same geometry conventions as [`ConvSpec`]: `h`/`w` include padding,
/// channels are tile multiples, output uses flooring division.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct PoolSpec {
    /// Input height.
    pub h: usize,
    /// Input width.
    pub w: usize,
    /// Channels (multiple of [`TILE`]).
    pub c: usize,
    /// Square window edge.
    pub k: usize,
    /// Stride (both dimensions).
    pub stride: usize,
}

impl PoolSpec {
    /// Creates a pooling spec.
    ///
    /// # Panics
    ///
    /// Panics under the same geometry conditions as [`ConvSpec::new`].
    #[must_use]
    pub fn new(h: usize, w: usize, c: usize, k: usize, stride: usize) -> Self {
        // Pooling maps onto the same pixel-tile machinery as convolution;
        // reuse its validation via an equivalent conv geometry.
        let _ = ConvSpec::new(h, w, c.max(TILE), c.max(TILE), k, k, stride);
        assert!(
            c > 0 && c.is_multiple_of(TILE),
            "channels must be a multiple of {TILE}"
        );
        PoolSpec { h, w, c, k, stride }
    }

    /// Output height.
    #[must_use]
    pub fn oh(&self) -> usize {
        (self.h - self.k) / self.stride + 1
    }

    /// Output width.
    #[must_use]
    pub fn ow(&self) -> usize {
        (self.w - self.k) / self.stride + 1
    }

    /// The convolution geometry this pooling shares its access pattern
    /// with (used for pixel-tiling selection).
    #[must_use]
    pub fn as_conv(&self) -> ConvSpec {
        ConvSpec::new(self.h, self.w, self.c, self.c, self.k, self.k, self.stride)
    }

    /// Stall-free cycles on the 8-lane pooling unit: one 8-pixel × 8-channel
    /// tile comparison per cycle, `k²` window steps per output tile.
    #[must_use]
    pub fn ideal_cycles(&self) -> u64 {
        (self.oh() * self.ow() / TILE * (self.c / TILE) * self.k * self.k) as u64
    }
}

impl fmt::Display for PoolSpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "maxpool {}x{}x{} k{} s{}",
            self.h, self.w, self.c, self.k, self.stride
        )
    }
}

/// A workload for the evaluation system.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Workload {
    /// GeMM (plain or transposed-A).
    Gemm(GemmSpec),
    /// 2-D convolution.
    Conv(ConvSpec),
    /// 2-D max pooling, on the pooling system: one operand reader (A) and
    /// the writer around an elementwise-max unit.
    Pool(PoolSpec),
}

/// The three kernel groups of the paper's ablation study (Fig. 7), and
/// pooling, which the study does not cover.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum WorkloadGroup {
    /// Plain GeMM.
    Gemm,
    /// Transposed-A GeMM.
    TransposedGemm,
    /// Convolution.
    Conv,
    /// Max pooling.
    Pool,
}

impl fmt::Display for WorkloadGroup {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WorkloadGroup::Gemm => write!(f, "GeMM"),
            WorkloadGroup::TransposedGemm => write!(f, "Transposed GeMM"),
            WorkloadGroup::Conv => write!(f, "Convolution"),
            WorkloadGroup::Pool => write!(f, "Pooling"),
        }
    }
}

impl Workload {
    /// The ablation group this workload belongs to.
    #[must_use]
    pub fn group(&self) -> WorkloadGroup {
        match self {
            Workload::Gemm(g) if g.transposed_a => WorkloadGroup::TransposedGemm,
            Workload::Gemm(_) => WorkloadGroup::Gemm,
            Workload::Conv(_) => WorkloadGroup::Conv,
            Workload::Pool(_) => WorkloadGroup::Pool,
        }
    }

    /// Multiply-accumulate operations; none for pooling, which compares.
    #[must_use]
    pub fn macs(&self) -> u64 {
        match self {
            Workload::Gemm(g) => g.macs(),
            Workload::Conv(c) => c.macs(),
            Workload::Pool(_) => 0,
        }
    }

    /// Stall-free cycles on the 8×8×8 array (on the pooling unit for
    /// pooling).
    #[must_use]
    pub fn ideal_cycles(&self) -> u64 {
        match self {
            Workload::Gemm(g) => g.ideal_cycles(),
            Workload::Conv(c) => c.ideal_cycles(),
            Workload::Pool(p) => p.ideal_cycles(),
        }
    }
}

impl fmt::Display for Workload {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Workload::Gemm(g) => g.fmt(f),
            Workload::Conv(c) => c.fmt(f),
            Workload::Pool(p) => p.fmt(f),
        }
    }
}

impl From<GemmSpec> for Workload {
    fn from(g: GemmSpec) -> Self {
        Workload::Gemm(g)
    }
}

impl From<ConvSpec> for Workload {
    fn from(c: ConvSpec) -> Self {
        Workload::Conv(c)
    }
}

impl From<PoolSpec> for Workload {
    fn from(p: PoolSpec) -> Self {
        Workload::Pool(p)
    }
}

/// Rounds `v` up to the next multiple of [`TILE`].
#[must_use]
pub fn round_up(v: usize) -> usize {
    v.div_ceil(TILE) * TILE
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gemm_counts() {
        let g = GemmSpec::new(16, 24, 32);
        assert_eq!(g.macs(), 16 * 24 * 32);
        assert_eq!(g.ideal_cycles(), 2 * 3 * 4);
        assert_eq!(g.tiles(), (2, 3, 4));
        assert_eq!(g.to_string(), "gemm 16x24x32");
    }

    #[test]
    fn transposed_flag_and_group() {
        let g = GemmSpec::transposed(8, 8, 8);
        assert!(g.transposed_a);
        assert_eq!(Workload::from(g).group(), WorkloadGroup::TransposedGemm);
        assert_eq!(g.to_string(), "gemm-t 8x8x8");
        assert_eq!(
            Workload::from(GemmSpec::new(8, 8, 8)).group(),
            WorkloadGroup::Gemm
        );
    }

    #[test]
    fn padding_rounds_up() {
        let g = GemmSpec::padded(197, 1000, 768);
        assert_eq!((g.m, g.n, g.k), (200, 1000, 768));
        assert_eq!(round_up(8), 8);
        assert_eq!(round_up(9), 16);
    }

    #[test]
    #[should_panic(expected = "multiple of 8")]
    fn unaligned_gemm_panics() {
        let _ = GemmSpec::new(10, 8, 8);
    }

    #[test]
    fn conv_output_geometry() {
        // 3×3 stride 1 on a padded 58×58 input → 56×56.
        let c = ConvSpec::new(58, 58, 64, 64, 3, 3, 1);
        assert_eq!((c.oh(), c.ow()), (56, 56));
        assert_eq!(c.pixel_tiling(), Some((8, 1)));
        assert_eq!(c.macs(), 56 * 56 * 64 * 64 * 9);
        assert_eq!(c.ideal_cycles(), 56 * 56 / 8 * 8 * 8 * 9);
    }

    #[test]
    fn conv_strided_geometry_with_floor() {
        // 7×7 stride 2 on a 230×230 padded input → floor(223/2)+1 = 112.
        let c = ConvSpec::new(230, 230, 8, 64, 7, 7, 2);
        assert_eq!((c.oh(), c.ow()), (112, 112));
    }

    #[test]
    fn conv_pixel_tiling_fallbacks() {
        // 28×28 output: ow 28 % 8 != 0 → 4×2 tiling.
        let c = ConvSpec::new(30, 30, 8, 8, 3, 3, 1);
        assert_eq!((c.oh(), c.ow()), (28, 28));
        assert_eq!(c.pixel_tiling(), Some((4, 2)));
    }

    #[test]
    #[should_panic(expected = "not coverable")]
    fn uncoverable_output_plane_panics() {
        // 7×7 output: no 8-pixel factorization fits.
        let _ = ConvSpec::new(9, 9, 8, 8, 3, 3, 1);
    }

    #[test]
    fn im2col_lowering_matches_macs() {
        let c = ConvSpec::new(10, 10, 16, 8, 3, 3, 1);
        let (m, n, k) = c.as_im2col_gemm();
        assert_eq!(m * n * k, c.macs() as usize);
    }

    #[test]
    fn workload_display_and_dispatch() {
        let w: Workload = ConvSpec::new(10, 10, 8, 8, 3, 3, 1).into();
        assert_eq!(w.group(), WorkloadGroup::Conv);
        assert!(w.to_string().starts_with("conv"));
        assert!(w.macs() > 0);
        assert!(w.ideal_cycles() > 0);
        assert_eq!(WorkloadGroup::Conv.to_string(), "Convolution");
    }
}
