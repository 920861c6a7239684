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
//! costs only a multiplexer of permuted wires. This module implements the
//! same permutation arithmetically and verifies the power-of-two
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
    group_banks: usize,
    /// Precomputed bit-permutation table, built once at construction. Every
    /// geometry parameter is a validated power of two, so the mapping
    ///
    /// ```text
    /// word = [ group | row-within-group | bank-in-group ]
    /// bank = [ group | bank-in-group ]
    /// row  = [ row-within-group ]
    /// ```
    ///
    /// reduces to shifts and masks — the software equivalent of the paper's
    /// mux-of-rewired-wires remapper. This keeps per-access division off the
    /// hottest address path; the original div/mod arithmetic survives under
    /// `#[cfg(test)]` as the equivalence oracle.
    group_shift: u32,
    row_shift: u32,
    group_mask: u64,
    row_mask: u64,
    /// `log2(word_bytes)`: byte addresses become word indices by a shift.
    word_shift: u32,
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
            group_banks,
            group_shift: group_banks.trailing_zeros(),
            row_shift: config.rows_per_bank().trailing_zeros(),
            group_mask: group_banks as u64 - 1,
            row_mask: config.rows_per_bank() as u64 - 1,
            word_shift: config.bank_width_bytes().trailing_zeros(),
        })
    }

    /// The addressing mode this remapper implements.
    #[must_use]
    pub fn mode(&self) -> AddressingMode {
        self.mode
    }

    /// Word size in bytes.
    #[must_use]
    pub fn word_bytes(&self) -> u64 {
        self.word_bytes
    }

    /// Bytes of one interleave round: `N_BG` consecutive words, one per
    /// bank of a group.
    #[must_use]
    pub fn interleave_bytes(&self) -> u64 {
        self.group_banks as u64 * self.word_bytes
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
        // Pure bit permutation via the precomputed shift/mask table; the
        // group index needs no mask because the bounds assert above caps it.
        let bank_in_group = word & self.group_mask;
        let row = (word >> self.group_shift) & self.row_mask;
        let group_idx = word >> (self.group_shift + self.row_shift);
        BankLocation {
            bank: ((group_idx << self.group_shift) | bank_in_group) as usize,
            row: row as usize,
        }
    }

    /// The bank of a byte address already known to be aligned and in
    /// bounds: [`map_byte`](Self::map_byte)`(addr).bank` without the
    /// checks, for walks that compare only banks.
    #[must_use]
    #[inline]
    pub fn bank_of(&self, addr: u64) -> usize {
        let word = addr >> self.word_shift;
        debug_assert!(word < self.capacity_words() && addr & (self.word_bytes - 1) == 0);
        ((self.group_of(word) << self.group_shift) | (word & self.group_mask)) as usize
    }

    /// Whether every word-aligned byte address `a` in `[lo, hi]` maps to
    /// the bank of `a − shift`. It does when `shift` is a whole number of
    /// interleave rounds (`N_BG` words) and the addresses and their moved
    /// counterparts all lie in one interleave group; for `lo == hi` that is
    /// exactly `bank_of(lo) == bank_of(lo − shift)`, for a wider span it is
    /// sufficient only.
    #[must_use]
    #[inline]
    pub fn keeps_banks(&self, lo: i64, hi: i64, shift: i64) -> bool {
        let word = |addr: i64| addr >> self.word_shift;
        let (first, last) = (word(lo.min(lo - shift)), word(hi.max(hi - shift)));
        word(shift) as u64 & self.group_mask == 0
            && first >= 0
            && self.group_of(first as u64) == self.group_of(last as u64)
    }

    /// The interleave group of a word.
    #[inline]
    fn group_of(&self, word: u64) -> u64 {
        word >> (self.group_shift + self.row_shift)
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
        let word = addr.get() >> self.word_shift;
        if word >= self.capacity_words() {
            return Err(MemError::OutOfBounds {
                addr: addr.get(),
                capacity: self.capacity_words() * self.word_bytes,
            });
        }
        Ok(self.map_word(word))
    }

    /// Inverse mapping: physical location back to the linear word index.
    ///
    /// # Panics
    ///
    /// Panics if the location is outside the memory geometry.
    #[must_use]
    #[inline]
    pub fn unmap(&self, loc: BankLocation) -> u64 {
        assert!(loc.bank < self.num_banks && loc.row < self.rows_per_bank);
        let bank = loc.bank as u64;
        let group_idx = bank >> self.group_shift;
        let bank_in_group = bank & self.group_mask;
        (group_idx << (self.group_shift + self.row_shift))
            | ((loc.row as u64) << self.group_shift)
            | bank_in_group
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
        let g = self.group_banks as u64;
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

    fn unmap_arith(&self, loc: BankLocation) -> u64 {
        assert!(loc.bank < self.num_banks && loc.row < self.rows_per_bank);
        let g = self.group_banks as u64;
        let rows = self.rows_per_bank as u64;
        let group = loc.bank as u64 / g;
        let bank_in_group = loc.bank as u64 % g;
        group * g * rows + loc.row as u64 * g + bank_in_group
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
        // The precomputed shift/mask tables reproduce the original div/mod
        // bit gathering exhaustively: every word of every legal mode on
        // every small power-of-two geometry, in both directions.
        for cfg in small_geometries() {
            for mode in all_legal_modes(cfg.num_banks()) {
                let r = AddressRemapper::new(&cfg, mode).unwrap();
                for w in 0..r.capacity_words() {
                    let loc = r.map_word(w);
                    assert_eq!(
                        loc,
                        r.map_word_arith(w),
                        "map_word diverges from oracle: {mode} word {w}"
                    );
                    assert_eq!(
                        r.unmap(loc),
                        r.unmap_arith(loc),
                        "unmap diverges from oracle: {mode} loc {loc:?}"
                    );
                }
            }
        }
    }

    #[test]
    fn mapping_is_bijective_for_every_legal_mode() {
        // Every mode is a bijection word ↔ (bank, row): unmap(map(w)) == w
        // and all mapped locations are distinct.
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
                    assert_eq!(r.unmap(loc), w, "round trip of word {w} under {mode}");
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

    /// `keeps_banks` on one address is the bank comparison itself, and on
    /// a span it holds only where every address of the span keeps its bank.
    #[test]
    fn keeps_banks_is_the_bank_comparison_and_sound_on_spans() {
        for cfg in small_geometries() {
            if cfg.num_banks() * cfg.rows_per_bank() > 256 {
                continue;
            }
            for mode in all_legal_modes(cfg.num_banks()) {
                let r = AddressRemapper::new(&cfg, mode).unwrap();
                let bytes = (r.capacity_words() * r.word_bytes()) as i64;
                let word = r.word_bytes() as i64;
                for shift in (-bytes..=bytes).step_by(word as usize) {
                    for lo in (0..bytes).step_by(word as usize) {
                        let moved = lo - shift;
                        let same = (0..bytes).contains(&moved)
                            && r.bank_of(lo as u64) == r.bank_of(moved as u64);
                        assert_eq!(r.keeps_banks(lo, lo, shift), same, "{mode} {lo} {shift}");
                        let hi = (lo + 5 * word).min(bytes - word);
                        if r.keeps_banks(lo, hi, shift) {
                            assert!((lo..=hi)
                                .step_by(word as usize)
                                .all(|a| { r.bank_of(a as u64) == r.bank_of((a - shift) as u64) }));
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
