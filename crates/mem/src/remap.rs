//! Addressing modes and the address remapper (§III-D, Fig. 5 of the paper).
//!
//! Two addressing modes are common for multi-banked memories: fully
//! interleaved (FIMA — consecutive words in consecutive banks) and
//! non-interleaved (NIMA — consecutive words in the same bank). The paper
//! introduces the intermediate *grouped-interleaved* mode (GIMA): banks are
//! partitioned into groups of `N_BG`; addresses interleave across the banks
//! *inside* a group and are contiguous *across* groups. FIMA and NIMA are
//! the two extremes of GIMA (`N_BG = N_BF` and `N_BG = 1` respectively).
//!
//! When every size is a power of two, the mapping is a pure bit permutation
//! of the word address — which is why the hardware remapper of the paper
//! costs only a multiplexer of permuted wires. [`BankMap`] implements the
//! same permutation with shifts and masks, together with the one predicate
//! by which the period replay and the period prover decide that a shifted
//! footprint keeps its banks; [`AddressRemapper`] verifies the power-of-two
//! preconditions at construction time.

use crate::addr::{Addr, BankLocation};
use crate::error::MemError;
use crate::scratchpad::MemConfig;

/// Runtime-selectable addressing mode (the `R_S` configuration of Table II).
///
/// # Examples
///
/// ```
/// use dm_mem::AddressingMode;
///
/// let gima = AddressingMode::GroupedInterleaved { group_banks: 8 };
/// assert_eq!(gima.group_banks(32), 8);
/// assert_eq!(AddressingMode::FullyInterleaved.group_banks(32), 32);
/// assert_eq!(AddressingMode::NonInterleaved.group_banks(32), 1);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AddressingMode {
    /// FIMA: word addresses interleave across all banks.
    FullyInterleaved,
    /// GIMA: interleaved within a group of `group_banks` banks, contiguous
    /// across groups.
    GroupedInterleaved {
        /// Banks per group (`N_BG`); must be a power of two dividing the
        /// total bank count.
        group_banks: usize,
    },
    /// NIMA: consecutive word addresses stay within one bank.
    NonInterleaved,
}

impl AddressingMode {
    /// The effective group size for a memory with `num_banks` banks.
    ///
    /// # Contract
    ///
    /// The result is only meaningful when it is a power of two that
    /// divides `num_banks` — exactly the groupings for which the hardware
    /// bit permutation exists. `FullyInterleaved` and `NonInterleaved`
    /// satisfy this for any power-of-two bank count, but
    /// `GroupedInterleaved` carries an arbitrary user value: callers that
    /// have not validated it must use [`checked_group_banks`] instead.
    ///
    /// # Panics
    ///
    /// Debug builds assert the contract; a violation means a configuration
    /// escaped validation ([`AddressRemapper::new`] is the checked path).
    ///
    /// [`checked_group_banks`]: AddressingMode::checked_group_banks
    #[must_use]
    pub fn group_banks(self, num_banks: usize) -> usize {
        let g = self.raw_group_banks(num_banks);
        debug_assert!(
            g > 0 && g.is_power_of_two() && g <= num_banks && num_banks.is_multiple_of(g),
            "group size {g} is not a power-of-two divisor of {num_banks} banks"
        );
        g
    }

    /// The effective group size, or `None` when it is not a power of two
    /// dividing `num_banks` (no bit permutation exists for such groupings).
    #[must_use]
    pub fn checked_group_banks(self, num_banks: usize) -> Option<usize> {
        let g = self.raw_group_banks(num_banks);
        (g > 0 && g.is_power_of_two() && g <= num_banks && num_banks.is_multiple_of(g)).then_some(g)
    }

    /// The configured group size with no validity checking.
    fn raw_group_banks(self, num_banks: usize) -> usize {
        match self {
            AddressingMode::FullyInterleaved => num_banks,
            AddressingMode::GroupedInterleaved { group_banks } => group_banks,
            AddressingMode::NonInterleaved => 1,
        }
    }

    /// Short human-readable name matching the paper's terminology.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            AddressingMode::FullyInterleaved => "FIMA",
            AddressingMode::GroupedInterleaved { .. } => "GIMA",
            AddressingMode::NonInterleaved => "NIMA",
        }
    }
}

impl Default for AddressingMode {
    /// FIMA is the conventional default of general-purpose systems.
    fn default() -> Self {
        AddressingMode::FullyInterleaved
    }
}

impl std::fmt::Display for AddressingMode {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            AddressingMode::GroupedInterleaved { group_banks } => {
                write!(f, "GIMA({group_banks})")
            }
            other => write!(f, "{}", other.name()),
        }
    }
}

/// GIMA(g) on a power-of-two geometry, as the bit permutation of the word
/// index the hardware remapper wires up (a mux of permuted address bits):
///
/// ```text
/// word = [ group | row-within-group | bank-in-group ]
/// bank = [ group | bank-in-group ]
/// row  = [ row-within-group ]
/// ```
///
/// The map covers an address space of `capacity_words` words of
/// `word_units` units each (bytes for the remapper and the period prover,
/// 1 for word-granular summaries), into which addresses wrap. It is the
/// workspace's one bank formula, and [`keeps_banks`](Self::keeps_banks) is
/// its one argument that a footprint keeps its banks under a shift.
///
/// # Examples
///
/// ```
/// // 8 banks of 64 rows under GIMA(4): groups of 256 words.
/// let map = dm_mem::BankMap::words(&dm_mem::MemConfig::new(8, 8, 64)?, 4);
/// assert_eq!((map.bank(5), map.bank(256)), (1, 4));
/// // Two rounds of 4 words keep every bank inside a group, not across one.
/// assert!(map.keeps_banks(8, || map.in_one_group(Some((0, 15)), &[0])));
/// assert!(!map.keeps_banks(8, || map.in_one_group(Some((250, 265)), &[0])));
/// # Ok::<(), dm_mem::MemError>(())
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BankMap {
    /// `log2` of units per word.
    word_shift: u32,
    /// `log2` of banks per group (`g`).
    group_shift: u32,
    /// `log2` of words per group.
    span_shift: u32,
    /// Units of the space minus one.
    addr_mask: u64,
    /// Banks of the space.
    banks: u64,
}

impl BankMap {
    /// The map of a space of `capacity_words` words of `word_units` units
    /// each under GIMA(`g`) with `group_words` words per group. Every
    /// argument is a power of two, `g ≤ group_words ≤ capacity_words`.
    #[must_use]
    pub fn new(word_units: u64, capacity_words: u64, g: u64, group_words: u64) -> Self {
        debug_assert!(
            [word_units, capacity_words, g, group_words]
                .iter()
                .all(|v| v.is_power_of_two())
                && g <= group_words
                && group_words <= capacity_words,
            "GIMA({g}) over {group_words}-word groups is not a bit permutation"
        );
        BankMap {
            word_shift: word_units.trailing_zeros(),
            group_shift: g.trailing_zeros(),
            span_shift: group_words.trailing_zeros(),
            addr_mask: (capacity_words * word_units).wrapping_sub(1),
            banks: capacity_words / group_words * g,
        }
    }

    /// The byte addresses of `mem` under GIMA(`g`).
    #[must_use]
    pub fn bytes(mem: &MemConfig, g: u64) -> Self {
        let word = mem.bank_width_bytes() as u64;
        let group_words = g * mem.rows_per_bank() as u64;
        BankMap::new(word, mem.capacity_bytes() / word, g, group_words)
    }

    /// The word indices of `mem` under GIMA(`g`).
    #[must_use]
    pub fn words(mem: &MemConfig, g: u64) -> Self {
        let bytes = BankMap::bytes(mem, g);
        BankMap {
            word_shift: 0,
            addr_mask: bytes.addr_mask >> bytes.word_shift,
            ..bytes
        }
    }

    /// `log2` of the units per word.
    #[must_use]
    pub fn word_shift(self) -> u32 {
        self.word_shift
    }

    /// Words per interleave group.
    #[must_use]
    pub fn group_words(self) -> u64 {
        1 << self.span_shift
    }

    /// Units of the space minus one: addresses wrap by this mask.
    #[must_use]
    pub fn addr_mask(self) -> u64 {
        self.addr_mask
    }

    /// Banks of the space.
    #[must_use]
    pub fn banks(self) -> u64 {
        self.banks
    }

    /// The bank of word index `word`.
    #[must_use]
    #[inline]
    pub fn bank(self, word: u64) -> u64 {
        ((word >> self.span_shift) << self.group_shift) | (word & ((1 << self.group_shift) - 1))
    }

    /// The row of word index `word` inside its bank.
    #[must_use]
    #[inline]
    pub fn row(self, word: u64) -> u64 {
        (word & (self.group_words() - 1)) >> self.group_shift
    }

    /// The bank of an address, wrapped into the space.
    #[must_use]
    #[inline]
    pub fn bank_of(self, addr: u64) -> usize {
        self.bank((addr & self.addr_mask) >> self.word_shift) as usize
    }

    /// Whether no channel's footprint straddles an interleave group: for
    /// every channel offset `o`, the addresses `[lo + o, hi + o]` of `hull`
    /// lie in one group window (a group-sized, group-aligned span of the
    /// unwrapped addresses, so one group once wrapped). An overflowing
    /// hull (`None`) straddles.
    #[must_use]
    pub fn in_one_group(self, hull: Option<(i128, i128)>, offsets: &[i64]) -> bool {
        let shift = self.span_shift + self.word_shift;
        hull.is_some_and(|(lo, hi)| {
            offsets.iter().all(|&o| {
                let window = |a: i128| a.checked_add(i128::from(o)).map(|a| a >> shift);
                window(lo).is_some() && window(lo) == window(hi)
            })
        })
    }

    /// The bank-keeping predicate: every address `a` of a footprint maps to
    /// the bank of `a − shift` (addresses wrapping into the space) when
    /// `shift` is a whole number of capacities, or a whole number of
    /// interleave rounds (`g` words) while the footprint, the moved
    /// addresses included, lies in one group (`in_group`, evaluated only
    /// then; see [`in_one_group`](Self::in_one_group)). For one word and
    /// its counterpart inside the space that is exactly the bank
    /// comparison; for a wider footprint it is sufficient only.
    #[must_use]
    #[inline]
    pub fn keeps_banks(self, shift: i64, in_group: impl FnOnce() -> bool) -> bool {
        let shift = shift as u64;
        let round_mask = (1 << (self.group_shift + self.word_shift)) - 1;
        shift & self.addr_mask == 0 || (shift & round_mask == 0 && in_group())
    }
}

/// Maps linear word addresses to physical `(bank, row)` locations under a
/// given [`AddressingMode`].
///
/// One remapper is instantiated per DataMaestro; its mode is part of the
/// streamer's runtime configuration.
///
/// # Examples
///
/// ```
/// use dm_mem::{AddressRemapper, AddressingMode, MemConfig};
///
/// let cfg = MemConfig::new(4, 8, 16)?;
/// let nima = AddressRemapper::new(&cfg, AddressingMode::NonInterleaved)?;
/// // Under NIMA the first 16 words all live in bank 0.
/// assert!((0..16).all(|w| nima.map_word(w).bank == 0));
/// assert_eq!(nima.map_word(16).bank, 1);
/// # Ok::<(), dm_mem::MemError>(())
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AddressRemapper {
    mode: AddressingMode,
    num_banks: usize,
    rows_per_bank: usize,
    word_bytes: u64,
    /// The byte space's [`BankMap`], built once at construction: shifts
    /// and masks keep per-access division off the hottest address path.
    /// The original div/mod arithmetic survives under `#[cfg(test)]` as
    /// the equivalence oracle.
    map: BankMap,
}

impl AddressRemapper {
    /// Creates a remapper for the given memory geometry and mode.
    ///
    /// # Errors
    ///
    /// Returns [`MemError::NotPowerOfTwo`] if the group size is not a power
    /// of two, or [`MemError::GroupTooLarge`] if it exceeds or does not
    /// divide the bank count — the hardware bit permutation only exists for
    /// power-of-two groupings.
    pub fn new(config: &MemConfig, mode: AddressingMode) -> Result<Self, MemError> {
        // Deliberately the unchecked accessor: this constructor *is* the
        // validation path, and reports which precondition failed.
        let group_banks = mode.raw_group_banks(config.num_banks());
        if !group_banks.is_power_of_two() {
            return Err(MemError::NotPowerOfTwo {
                parameter: "group_banks",
                value: group_banks,
            });
        }
        if group_banks > config.num_banks() || !config.num_banks().is_multiple_of(group_banks) {
            return Err(MemError::GroupTooLarge {
                group: group_banks,
                banks: config.num_banks(),
            });
        }
        Ok(AddressRemapper {
            mode,
            num_banks: config.num_banks(),
            rows_per_bank: config.rows_per_bank(),
            word_bytes: config.bank_width_bytes() as u64,
            map: BankMap::bytes(config, group_banks as u64),
        })
    }

    /// The addressing mode this remapper implements.
    #[must_use]
    pub fn mode(&self) -> AddressingMode {
        self.mode
    }

    /// The bank map of the byte space.
    #[must_use]
    pub fn map(&self) -> BankMap {
        self.map
    }

    /// Word size in bytes.
    #[must_use]
    pub fn word_bytes(&self) -> u64 {
        self.word_bytes
    }

    /// Total capacity in words.
    #[must_use]
    #[inline]
    pub fn capacity_words(&self) -> u64 {
        (self.num_banks * self.rows_per_bank) as u64
    }

    /// Maps a linear *word* index to its physical location.
    ///
    /// # Panics
    ///
    /// Panics if the word index exceeds the scratchpad capacity; simulated
    /// components validate bounds before issuing, so an out-of-range word
    /// here is a compiler/AGU bug worth failing loudly on.
    #[must_use]
    #[inline]
    pub fn map_word(&self, word: u64) -> BankLocation {
        assert!(
            word < self.capacity_words(),
            "word index {word} beyond scratchpad capacity {}",
            self.capacity_words()
        );
        BankLocation {
            bank: self.map.bank(word) as usize,
            row: self.map.row(word) as usize,
        }
    }

    /// Maps a word-aligned *byte* address to its physical location.
    ///
    /// # Errors
    ///
    /// Returns [`MemError::Misaligned`] for a non-word-aligned address and
    /// [`MemError::OutOfBounds`] for an address beyond capacity.
    #[inline]
    pub fn map_byte(&self, addr: Addr) -> Result<BankLocation, MemError> {
        if addr.get() & (self.word_bytes - 1) != 0 {
            return Err(MemError::Misaligned {
                addr: addr.get(),
                alignment: self.word_bytes,
            });
        }
        let word = addr.get() >> self.map.word_shift();
        if word >= self.capacity_words() {
            return Err(MemError::OutOfBounds {
                addr: addr.get(),
                capacity: self.capacity_words() * self.word_bytes,
            });
        }
        Ok(self.map_word(word))
    }
}

/// The pre-table per-access arithmetic, kept only as the test oracle: the
/// div/mod bit gathering the precomputed shift/mask path replaced. Dead on
/// the hot path by construction — the equivalence test below proves the
/// table path reproduces it exhaustively.
#[cfg(test)]
impl AddressRemapper {
    fn map_word_arith(&self, word: u64) -> BankLocation {
        assert!(word < self.capacity_words());
        let g = self.mode.group_banks(self.num_banks) as u64;
        let rows = self.rows_per_bank as u64;
        let group_capacity = g * rows;
        let group = word / group_capacity;
        let local = word % group_capacity;
        let bank_in_group = local % g;
        let row = local / g;
        BankLocation {
            bank: (group * g + bank_in_group) as usize,
            row: row as usize,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg() -> MemConfig {
        MemConfig::new(8, 8, 64).expect("valid test geometry")
    }

    /// All modes legal for `num_banks`: NIMA, every power-of-two GIMA group
    /// up to the bank count, and FIMA.
    fn all_legal_modes(num_banks: usize) -> Vec<AddressingMode> {
        let mut modes = vec![
            AddressingMode::NonInterleaved,
            AddressingMode::FullyInterleaved,
        ];
        let mut g = 1;
        while g <= num_banks {
            modes.push(AddressingMode::GroupedInterleaved { group_banks: g });
            g *= 2;
        }
        modes
    }

    #[test]
    fn fima_interleaves_all_banks() {
        let r = AddressRemapper::new(&cfg(), AddressingMode::FullyInterleaved).unwrap();
        for w in 0..16 {
            let loc = r.map_word(w);
            assert_eq!(loc.bank as u64, w % 8);
            assert_eq!(loc.row as u64, w / 8);
        }
    }

    #[test]
    fn nima_fills_banks_sequentially() {
        let r = AddressRemapper::new(&cfg(), AddressingMode::NonInterleaved).unwrap();
        assert_eq!(r.map_word(0), BankLocation { bank: 0, row: 0 });
        assert_eq!(r.map_word(63), BankLocation { bank: 0, row: 63 });
        assert_eq!(r.map_word(64), BankLocation { bank: 1, row: 0 });
    }

    #[test]
    fn gima_interleaves_within_group() {
        let mode = AddressingMode::GroupedInterleaved { group_banks: 4 };
        let r = AddressRemapper::new(&cfg(), mode).unwrap();
        // First group: banks 0..4 interleaved.
        assert_eq!(r.map_word(0).bank, 0);
        assert_eq!(r.map_word(1).bank, 1);
        assert_eq!(r.map_word(3).bank, 3);
        assert_eq!(r.map_word(4), BankLocation { bank: 0, row: 1 });
        // Second group starts after the first group's full capacity.
        let group_capacity = 4 * 64;
        assert_eq!(r.map_word(group_capacity as u64).bank, 4);
    }

    #[test]
    fn extremes_match_special_modes() {
        let fima = AddressRemapper::new(&cfg(), AddressingMode::FullyInterleaved).unwrap();
        let gima8 = AddressRemapper::new(
            &cfg(),
            AddressingMode::GroupedInterleaved { group_banks: 8 },
        )
        .unwrap();
        let nima = AddressRemapper::new(&cfg(), AddressingMode::NonInterleaved).unwrap();
        let gima1 = AddressRemapper::new(
            &cfg(),
            AddressingMode::GroupedInterleaved { group_banks: 1 },
        )
        .unwrap();
        for w in 0..fima.capacity_words() {
            assert_eq!(fima.map_word(w), gima8.map_word(w));
            assert_eq!(nima.map_word(w), gima1.map_word(w));
        }
    }

    #[test]
    fn invalid_group_rejected() {
        let err = AddressRemapper::new(
            &cfg(),
            AddressingMode::GroupedInterleaved { group_banks: 3 },
        )
        .unwrap_err();
        assert!(matches!(err, MemError::NotPowerOfTwo { .. }));
        let err = AddressRemapper::new(
            &cfg(),
            AddressingMode::GroupedInterleaved { group_banks: 16 },
        )
        .unwrap_err();
        assert!(matches!(err, MemError::GroupTooLarge { .. }));
    }

    #[test]
    fn map_byte_validates() {
        let r = AddressRemapper::new(&cfg(), AddressingMode::FullyInterleaved).unwrap();
        assert!(matches!(
            r.map_byte(Addr::new(3)),
            Err(MemError::Misaligned { .. })
        ));
        let capacity = r.capacity_words() * r.word_bytes();
        assert!(matches!(
            r.map_byte(Addr::new(capacity)),
            Err(MemError::OutOfBounds { .. })
        ));
        assert_eq!(
            r.map_byte(Addr::new(8)).unwrap(),
            BankLocation { bank: 1, row: 0 }
        );
    }

    #[test]
    fn mode_display_and_default() {
        assert_eq!(AddressingMode::default(), AddressingMode::FullyInterleaved);
        assert_eq!(AddressingMode::FullyInterleaved.to_string(), "FIMA");
        assert_eq!(
            AddressingMode::GroupedInterleaved { group_banks: 4 }.to_string(),
            "GIMA(4)"
        );
        assert_eq!(AddressingMode::NonInterleaved.to_string(), "NIMA");
    }

    /// Reference implementation of §III-D's insight: for power-of-two
    /// geometry, the (bank, row) mapping is a pure permutation of the word
    /// address bits. GIMA(g) with `b` bank bits and group bits `gb =
    /// log2(g)`: the row is formed from the address bits *above* the group
    /// bits with the inter-group bits moved below the intra-group row bits:
    ///
    /// ```text
    /// word = [ group | row-within-group | bank-in-group ]
    /// bank = [ group | bank-in-group ]
    /// row  = [ row-within-group ]
    /// ```
    fn bit_permuted(word: u64, num_banks: u64, group: u64, rows: u64) -> BankLocation {
        let gb = group.trailing_zeros();
        let rb = rows.trailing_zeros();
        let bank_in_group = word & (group - 1);
        let row = (word >> gb) & (rows - 1);
        let group_idx = (word >> (gb + rb)) & (num_banks / group - 1);
        BankLocation {
            bank: ((group_idx << gb) | bank_in_group) as usize,
            row: row as usize,
        }
    }

    /// Small power-of-two geometries exercised exhaustively below: every
    /// bank count from 1 to 16 with a couple of row depths each.
    fn small_geometries() -> Vec<MemConfig> {
        let mut cfgs = Vec::new();
        for banks in [1usize, 2, 4, 8, 16] {
            for rows in [4usize, 64] {
                cfgs.push(MemConfig::new(banks, 8, rows).expect("valid geometry"));
            }
        }
        cfgs
    }

    #[test]
    fn remapper_is_a_bit_permutation_for_every_legal_mode() {
        // The arithmetic remapper equals the explicit bit permutation for
        // every legal grouping of every small geometry — the property that
        // makes the hardware remapper a mux of rewired address bits.
        for cfg in small_geometries() {
            let (banks, rows) = (cfg.num_banks() as u64, cfg.rows_per_bank() as u64);
            for mode in all_legal_modes(cfg.num_banks()) {
                let r = AddressRemapper::new(&cfg, mode).unwrap();
                let g = mode.group_banks(cfg.num_banks()) as u64;
                for w in 0..r.capacity_words() {
                    assert_eq!(
                        r.map_word(w),
                        bit_permuted(w, banks, g, rows),
                        "banks={banks} rows={rows} mode={mode} word={w}"
                    );
                }
            }
        }
    }

    #[test]
    fn table_path_matches_the_arithmetic_oracle_for_every_legal_mode() {
        // The shift/mask bank map reproduces the original div/mod bit
        // gathering exhaustively: every word of every legal mode on every
        // small power-of-two geometry.
        for cfg in small_geometries() {
            for mode in all_legal_modes(cfg.num_banks()) {
                let r = AddressRemapper::new(&cfg, mode).unwrap();
                for w in 0..r.capacity_words() {
                    assert_eq!(
                        r.map_word(w),
                        r.map_word_arith(w),
                        "map_word diverges from oracle: {mode} word {w}"
                    );
                }
            }
        }
    }

    #[test]
    fn mapping_is_bijective_for_every_legal_mode() {
        // Every mode is a bijection word ↔ (bank, row): the mapped
        // locations are distinct and fill the geometry.
        for cfg in small_geometries() {
            for mode in all_legal_modes(cfg.num_banks()) {
                let r = AddressRemapper::new(&cfg, mode).unwrap();
                let mut seen = std::collections::HashSet::new();
                for w in 0..r.capacity_words() {
                    let loc = r.map_word(w);
                    assert!(loc.bank < cfg.num_banks() && loc.row < cfg.rows_per_bank());
                    assert!(
                        seen.insert(loc),
                        "duplicate location for word {w} under {mode}"
                    );
                }
                assert_eq!(seen.len() as u64, r.capacity_words());
            }
        }
    }

    #[test]
    fn consecutive_words_spread_across_group() {
        // A burst of `group_banks` consecutive words never collides on a
        // bank — the property the compiler relies on when laying out an
        // operand inside one bank group.
        for cfg in small_geometries() {
            for mode in all_legal_modes(cfg.num_banks()) {
                let r = AddressRemapper::new(&cfg, mode).unwrap();
                let g = mode.group_banks(cfg.num_banks()) as u64;
                for start in 0..r.capacity_words() - (g - 1) {
                    let banks: std::collections::HashSet<usize> =
                        (start..start + g).map(|w| r.map_word(w).bank).collect();
                    assert_eq!(banks.len() as u64, g, "start={start} mode={mode}");
                }
            }
        }
    }

    /// `keeps_banks` on one address whose counterpart lies in the space is
    /// the bank comparison itself, and on a span it holds only where every
    /// address keeps its bank, counterparts wrapping into the space.
    #[test]
    fn keeps_banks_is_the_bank_comparison_and_sound_on_spans() {
        for cfg in small_geometries() {
            if cfg.num_banks() * cfg.rows_per_bank() > 256 {
                continue;
            }
            for mode in all_legal_modes(cfg.num_banks()) {
                let r = AddressRemapper::new(&cfg, mode).unwrap();
                let map = r.map();
                let bytes = (r.capacity_words() * r.word_bytes()) as i64;
                let word = r.word_bytes() as i64;
                // The footprint `[lo, hi]` together with its counterpart.
                let keeps = |lo: i64, hi: i64, shift: i64| {
                    let hull = (lo.min(lo - shift).into(), hi.max(hi - shift).into());
                    map.keeps_banks(shift, || map.in_one_group(Some(hull), &[0]))
                };
                let bank = |a: i64| map.bank_of(a.rem_euclid(bytes) as u64);
                for shift in (-bytes..=bytes).step_by(word as usize) {
                    for lo in (0..bytes).step_by(word as usize) {
                        if (0..bytes).contains(&(lo - shift)) {
                            let same = bank(lo) == bank(lo - shift);
                            assert_eq!(keeps(lo, lo, shift), same, "{mode} {lo} {shift}");
                        }
                        let hi = (lo + 5 * word).min(bytes - word);
                        if keeps(lo, hi, shift) {
                            assert!((lo..=hi)
                                .step_by(word as usize)
                                .all(|a| bank(a) == bank(a - shift)));
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn checked_group_banks_accepts_exactly_the_legal_groupings() {
        for (num_banks, group, expect) in [
            (8usize, 1usize, Some(1usize)),
            (8, 2, Some(2)),
            (8, 8, Some(8)),
            (8, 3, None),  // not a power of two
            (8, 16, None), // exceeds the bank count
            (16, 16, Some(16)),
        ] {
            let mode = AddressingMode::GroupedInterleaved { group_banks: group };
            assert_eq!(mode.checked_group_banks(num_banks), expect);
        }
        assert_eq!(
            AddressingMode::FullyInterleaved.checked_group_banks(32),
            Some(32)
        );
        assert_eq!(
            AddressingMode::NonInterleaved.checked_group_banks(32),
            Some(1)
        );
    }

    /// A GIMA group that does not divide the bank count violates the
    /// documented contract; debug builds catch it at the accessor. (Release
    /// builds return the raw value, so the test only exists under debug
    /// assertions.)
    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "power-of-two divisor")]
    fn group_banks_asserts_its_contract_on_non_dividing_groups() {
        let _ = AddressingMode::GroupedInterleaved { group_banks: 3 }.group_banks(8);
    }
}
