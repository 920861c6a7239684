//! Pattern summarization: checked footprints and physical bank sets.
//!
//! Everything downstream (conflict prediction, hazard detection, the mode
//! advisor) works on a [`StreamSummary`]: the stream's loop nest reduced to
//! word-granular quantities plus its *exact* byte footprint hull and the
//! exact set of banks the hull can touch under the stream's addressing
//! mode. The footprint is the dynamic binder's own
//! ([`datamaestro::agu::footprint`], the nest's checked `i128` hull), built
//! only after the runtime validation that keeps the AGUs from asserting,
//! so a pathological stride reports instead of panicking.

use datamaestro::agu::{footprint, SpatialAgu, TemporalAgu};
use datamaestro::{DesignConfig, RuntimeConfig};
use dm_mem::{AddressingMode, BankMap, MemConfig};
use dm_sim::AffineNest;

use crate::diagnostic::{Diagnostic, LintCode};

/// A set of physical banks, stored as a bitset.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BankSet {
    bits: Vec<u64>,
    num_banks: usize,
}

impl BankSet {
    /// An empty set over `num_banks` banks.
    #[must_use]
    pub fn empty(num_banks: usize) -> Self {
        BankSet {
            bits: vec![0; num_banks.div_ceil(64)],
            num_banks,
        }
    }

    /// Inserts one bank.
    pub fn insert(&mut self, bank: usize) {
        assert!(bank < self.num_banks, "bank {bank} out of range");
        self.bits[bank / 64] |= 1 << (bank % 64);
    }

    /// Membership test.
    #[must_use]
    pub fn contains(&self, bank: usize) -> bool {
        bank < self.num_banks && self.bits[bank / 64] & (1 << (bank % 64)) != 0
    }

    /// Number of banks in the set.
    #[must_use]
    pub fn len(&self) -> usize {
        self.bits.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// `true` when no bank is in the set.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.bits.iter().all(|&w| w == 0)
    }

    /// `true` when the two sets share at least one bank.
    #[must_use]
    pub fn intersects(&self, other: &BankSet) -> bool {
        self.bits.iter().zip(&other.bits).any(|(&a, &b)| a & b != 0)
    }

    /// The banks in ascending order (for messages).
    #[must_use]
    pub fn iter_banks(&self) -> Vec<usize> {
        (0..self.num_banks).filter(|&b| self.contains(b)).collect()
    }
}

impl std::fmt::Display for BankSet {
    /// Compact range display, e.g. `{0-7, 24}`.
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let banks = self.iter_banks();
        write!(f, "{{")?;
        let mut i = 0;
        let mut first = true;
        while i < banks.len() {
            let start = banks[i];
            let mut end = start;
            while i + 1 < banks.len() && banks[i + 1] == end + 1 {
                i += 1;
                end = banks[i];
            }
            if !first {
                write!(f, ", ")?;
            }
            first = false;
            if end > start {
                write!(f, "{start}-{end}")?;
            } else {
                write!(f, "{start}")?;
            }
            i += 1;
        }
        write!(f, "}}")
    }
}

/// A stream's loop nest reduced to word-granular quantities plus exact
/// footprint information. Produced by [`summarize`].
#[derive(Debug, Clone)]
pub struct StreamSummary {
    /// Stream name (from the design).
    pub name: String,
    /// Addressing mode the stream runs under.
    pub mode: AddressingMode,
    /// Effective banks per group under `mode` (`N_BG`).
    pub group: u64,
    /// Words per group (`group × rows_per_bank`) — the span after which the
    /// bit permutation advances to the next bank group.
    pub group_words: u64,
    /// Per-channel spatial offsets, in words.
    pub offsets_words: Vec<i64>,
    /// Temporal bounds, innermost first.
    pub temporal_bounds: Vec<u64>,
    /// Temporal strides in words, innermost first.
    pub temporal_strides_words: Vec<i64>,
    /// Base address, in words.
    pub base_word: u64,
    /// Scratchpad capacity, in words.
    pub capacity_words: u64,
    /// Total temporal steps (bursts) of the nest.
    pub steps: u64,
    /// Inclusive word-index hull `[min, max]` the pattern can touch.
    pub word_hull: (u64, u64),
    /// Exact set of banks any address inside the hull maps to.
    pub banks: BankSet,
    /// Inclusive physical row hull `[min, max]` over all touched banks.
    pub row_hull: (u64, u64),
}

impl StreamSummary {
    /// The temporal nest in words, for the bank-signature walk.
    pub(crate) fn nest(&self) -> AffineNest {
        AffineNest::new(
            self.base_word,
            &self.temporal_bounds,
            &self.temporal_strides_words,
        )
    }
}

/// Summarizes one stream, performing the checked structural / alignment /
/// bounds validation. On failure returns the diagnostics explaining why;
/// the stream is then excluded from the deeper analyses.
///
/// # Errors
///
/// Returns `DM-CONFIG` for structural mismatches and overflowing nests,
/// `DM-UNALIGNED` for sub-word bases/strides/offsets, `DM-OOB` when the
/// footprint hull leaves the scratchpad address space, and `DM-CONFIG` if
/// the addressing mode is illegal for the geometry.
pub fn summarize(
    design: &DesignConfig,
    runtime: &RuntimeConfig,
    mem: &MemConfig,
) -> Result<StreamSummary, Vec<Diagnostic>> {
    let name = design.name().to_owned();
    if let Err(e) = runtime.validate(design) {
        return Err(vec![Diagnostic::error(
            LintCode::Config,
            name,
            format!("runtime configuration rejected: {e}"),
        )]);
    }
    let word = mem.bank_width_bytes() as u64;
    let Some(group) = runtime.addressing_mode.checked_group_banks(mem.num_banks()) else {
        return Err(vec![Diagnostic::error(
            LintCode::Config,
            name,
            format!(
                "addressing mode {} is illegal for {} banks (group must be a \
                 power of two dividing the bank count)",
                runtime.addressing_mode,
                mem.num_banks()
            ),
        )]);
    };

    let mut diags = Vec::new();
    let misaligned = |v: i64| v.rem_euclid(word as i64) != 0;
    if !runtime.base.is_multiple_of(word) {
        diags.push(Diagnostic::error(
            LintCode::Unaligned,
            &name,
            format!(
                "base address {:#x} is not {word}-byte word-aligned",
                runtime.base
            ),
        ));
    }
    if runtime.temporal_strides.iter().copied().any(misaligned) {
        diags.push(Diagnostic::error(
            LintCode::Unaligned,
            &name,
            format!(
                "temporal strides {:?} contain a sub-word stride",
                runtime.temporal_strides
            ),
        ));
    }
    let spatial = SpatialAgu::new(design.spatial_bounds(), &runtime.spatial_strides);
    if spatial.offsets().iter().copied().any(misaligned) {
        diags.push(Diagnostic::error(
            LintCode::Unaligned,
            &name,
            format!(
                "spatial strides {:?} produce a sub-word channel offset",
                runtime.spatial_strides
            ),
        ));
    }
    if !diags.is_empty() {
        return Err(diags);
    }

    // Validated above: the AGUs cannot assert.
    let temporal = TemporalAgu::new(
        runtime.base,
        &runtime.temporal_bounds,
        &runtime.temporal_strides,
    );
    let capacity = i128::from(mem.capacity_bytes());
    let (min, max) = match footprint(&temporal, &spatial, word) {
        Some((min, max)) if min >= 0 && max < capacity => (min, max),
        hull => {
            let (min, max) = hull.unwrap_or((i128::MIN, i128::MAX));
            return Err(vec![Diagnostic::error(
                LintCode::Oob,
                name,
                format!(
                    "pattern footprint [{min}, {max}] leaves the scratchpad \
                     address space [0, {capacity})"
                ),
            )]);
        }
    };

    let min_word = (min as u64) / word;
    let max_word = (max as u64) / word;
    let group_words = group as u64 * mem.rows_per_bank() as u64;
    let (banks, row_hull) = hull_banks_and_rows(min_word, max_word, group as u64, mem);

    Ok(StreamSummary {
        name,
        mode: runtime.addressing_mode,
        group: group as u64,
        group_words,
        offsets_words: spatial.offsets().iter().map(|&o| o / word as i64).collect(),
        temporal_bounds: runtime.temporal_bounds.clone(),
        temporal_strides_words: runtime
            .temporal_strides
            .iter()
            .map(|&s| s / word as i64)
            .collect(),
        base_word: runtime.base / word,
        capacity_words: mem.capacity_bytes() / word,
        steps: temporal.total(),
        word_hull: (min_word, max_word),
        banks,
        row_hull,
    })
}

/// The exact bank set of an inclusive word-index interval under GIMA(g).
#[must_use]
pub fn hull_bank_set(min_word: u64, max_word: u64, g: u64, mem: &MemConfig) -> BankSet {
    hull_banks_and_rows(min_word, max_word, g, mem).0
}

/// The exact bank set and row hull of a word-index interval under GIMA(g).
///
/// Inside one group, consecutive words round-robin over the group's `g`
/// banks, so the first `g` words of the interval's piece in a group cover
/// every bank the piece touches.
fn hull_banks_and_rows(
    min_word: u64,
    max_word: u64,
    g: u64,
    mem: &MemConfig,
) -> (BankSet, (u64, u64)) {
    let map = BankMap::words(mem, g);
    let mut banks = BankSet::empty(mem.num_banks());
    let (mut rows, mut first) = ((u64::MAX, 0), min_word);
    while first <= max_word {
        let last = (first | (map.group_words() - 1)).min(max_word);
        for w in first..=last.min(first + g - 1) {
            banks.insert(map.bank(w) as usize);
        }
        rows = (rows.0.min(map.row(first)), rows.1.max(map.row(last)));
        first = last + 1;
    }
    (banks, rows)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::oracle::{bank_of_word, location_of_word};
    use datamaestro::StreamerMode;
    use dm_mem::AddressRemapper;

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

    /// The remapper and the shared bank map both follow the division
    /// formula of [`location_of_word`] (DESIGN §7): every word of every
    /// mode — NIMA, FIMA and GIMA(g) for every power of two `g` up to the
    /// bank count — on every geometry of 1 to 16 banks at 4 and 64 rows,
    /// and on 32 banks at 64 rows.
    #[test]
    fn bank_model_matches_remapper_for_every_mode() {
        let geometries = [1usize, 2, 4, 8, 16]
            .into_iter()
            .flat_map(|banks| [(banks, 4), (banks, 64)])
            .chain([(32, 64)]);
        for (banks, rows) in geometries {
            let mem = MemConfig::new(banks, 8, rows).unwrap();
            let groups = std::iter::successors(Some(1), |g| Some(g * 2))
                .take_while(|&g| g <= banks)
                .map(|group_banks| AddressingMode::GroupedInterleaved { group_banks });
            let modes = [
                AddressingMode::NonInterleaved,
                AddressingMode::FullyInterleaved,
            ];
            for mode in modes.into_iter().chain(groups) {
                let remapper = AddressRemapper::new(&mem, mode).unwrap();
                let g = mode.group_banks(banks) as u64;
                let map = BankMap::words(&mem, g);
                for w in 0..remapper.capacity_words() {
                    let (bank, row) = location_of_word(w, g, g * rows as u64);
                    let label = format!("{banks} banks, {rows} rows, mode {mode}, word {w}");
                    assert_eq!((map.bank(w), map.row(w)), (bank, row), "{label}");
                    let loc = remapper.map_word(w);
                    assert_eq!((loc.bank as u64, loc.row as u64), (bank, row), "{label}");
                }
            }
        }
    }

    #[test]
    fn footprint_hull_is_exact() {
        let rt = RuntimeConfig::builder()
            .base(64)
            .temporal([4, 2], [64, -32])
            .spatial_strides([8])
            .build();
        let s = summarize(&design(&[8]), &rt, &mem()).unwrap();
        // min = 64 - 32 = 32; max = 64 + 3*64 + 7*8 + 7 = 319.
        assert_eq!(s.word_hull, (4, 39));
        assert_eq!(s.steps, 8);
        assert_eq!(s.offsets_words, vec![0, 1, 2, 3, 4, 5, 6, 7]);
    }

    #[test]
    fn oob_pattern_rejected_with_dm_oob() {
        let rt = RuntimeConfig::builder()
            .base(0)
            .temporal([1024, 1024], [64, 64])
            .spatial_strides([8])
            .build();
        let diags = summarize(&design(&[8]), &rt, &mem()).unwrap_err();
        assert!(diags.iter().any(|d| d.code == LintCode::Oob), "{diags:?}");
    }

    #[test]
    fn negative_reach_rejected() {
        let rt = RuntimeConfig::builder()
            .base(64)
            .temporal([64], [-64])
            .spatial_strides([8])
            .build();
        let diags = summarize(&design(&[8]), &rt, &mem()).unwrap_err();
        assert!(diags.iter().any(|d| d.code == LintCode::Oob));
    }

    #[test]
    fn misalignment_rejected() {
        let rt = RuntimeConfig::builder()
            .base(4)
            .temporal([2], [64])
            .spatial_strides([8])
            .build();
        let diags = summarize(&design(&[8]), &rt, &mem()).unwrap_err();
        assert!(diags.iter().all(|d| d.code == LintCode::Unaligned));

        let rt = RuntimeConfig::builder()
            .temporal([2], [64])
            .spatial_strides([4])
            .build();
        let diags = summarize(&design(&[8]), &rt, &mem()).unwrap_err();
        assert!(diags.iter().any(|d| d.code == LintCode::Unaligned));
    }

    #[test]
    fn bank_set_matches_brute_force() {
        let mem = mem();
        for (lo, hi, g) in [(0u64, 3u64, 2u64), (60, 200, 4), (100, 101, 8), (5, 511, 1)] {
            let (banks, rows) = hull_banks_and_rows(lo, hi, g, &mem);
            let mut expected = BankSet::empty(8);
            let mut rmin = u64::MAX;
            let mut rmax = 0;
            for w in lo..=hi {
                expected.insert(bank_of_word(w, g, g * 64) as usize);
                let r = (w % (g * 64)) / g;
                rmin = rmin.min(r);
                rmax = rmax.max(r);
            }
            assert_eq!(banks, expected, "lo={lo} hi={hi} g={g}");
            assert_eq!(rows, (rmin, rmax), "lo={lo} hi={hi} g={g}");
        }
    }

    #[test]
    fn bank_set_display_and_ops() {
        let mut s = BankSet::empty(32);
        assert!(s.is_empty());
        for b in [0, 1, 2, 3, 24] {
            s.insert(b);
        }
        assert_eq!(s.to_string(), "{0-3, 24}");
        assert_eq!(s.len(), 5);
        let mut t = BankSet::empty(32);
        t.insert(5);
        assert!(!s.intersects(&t));
        t.insert(24);
        assert!(s.intersects(&t));
    }
}
