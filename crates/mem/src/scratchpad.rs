//! Scratchpad geometry and backing store.

use crate::addr::{Addr, BankLocation};
use crate::error::MemError;
use crate::remap::AddressRemapper;

/// Geometry of the multi-banked scratchpad: `N_BF` banks of
/// `W_B`-byte-wide words, `rows_per_bank` wordlines each.
///
/// # Examples
///
/// ```
/// use dm_mem::MemConfig;
///
/// let cfg = MemConfig::new(32, 8, 4096)?;
/// assert_eq!(cfg.capacity_bytes(), 32 * 8 * 4096);
/// assert_eq!(cfg.bandwidth_bytes_per_cycle(), 256);
/// # Ok::<(), dm_mem::MemError>(())
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct MemConfig {
    num_banks: usize,
    bank_width_bytes: usize,
    rows_per_bank: usize,
}

impl MemConfig {
    /// Creates a memory geometry.
    ///
    /// # Errors
    ///
    /// Returns [`MemError::NotPowerOfTwo`] if any dimension is not a
    /// non-zero power of two (the address remapper's bit permutation
    /// requires power-of-two geometry).
    pub fn new(
        num_banks: usize,
        bank_width_bytes: usize,
        rows_per_bank: usize,
    ) -> Result<Self, MemError> {
        for (name, value) in [
            ("num_banks", num_banks),
            ("bank_width_bytes", bank_width_bytes),
            ("rows_per_bank", rows_per_bank),
        ] {
            if !value.is_power_of_two() {
                return Err(MemError::NotPowerOfTwo {
                    parameter: name,
                    value,
                });
            }
        }
        Ok(MemConfig {
            num_banks,
            bank_width_bytes,
            rows_per_bank,
        })
    }

    /// Number of banks (`N_BF`).
    #[must_use]
    pub fn num_banks(&self) -> usize {
        self.num_banks
    }

    /// Word width of one bank in bytes (`W_B`).
    #[must_use]
    pub fn bank_width_bytes(&self) -> usize {
        self.bank_width_bytes
    }

    /// Wordlines per bank.
    #[must_use]
    pub fn rows_per_bank(&self) -> usize {
        self.rows_per_bank
    }

    /// Total capacity in bytes.
    #[must_use]
    pub fn capacity_bytes(&self) -> u64 {
        (self.num_banks * self.bank_width_bytes * self.rows_per_bank) as u64
    }

    /// Peak bandwidth: one word per bank per cycle.
    #[must_use]
    pub fn bandwidth_bytes_per_cycle(&self) -> u64 {
        (self.num_banks * self.bank_width_bytes) as u64
    }
}

impl Default for MemConfig {
    /// The evaluation-system default: 32 banks × 64-bit, sized at 16 MiB so
    /// whole DNN layers fit without modelling a DRAM back side (the paper
    /// measures utilization over DataMaestro-active cycles only, excluding
    /// off-chip refill; see DESIGN.md §3).
    fn default() -> Self {
        MemConfig::new(32, 8, 65_536).expect("default geometry is valid")
    }
}

/// The scratchpad backing store: `num_banks` banks of raw bytes.
///
/// The scratchpad itself is address-space agnostic — it only understands
/// physical `(bank, row)` locations. Linear views are provided by pairing it
/// with an [`AddressRemapper`], which is how the simulated host preloads
/// operands and reads back results.
///
/// A bank is stored in pages of [`Scratchpad::PAGE_BYTES`] (or one row,
/// if wider), each allocated at its first write; a page never written
/// reads as zeros. A run writes its operand and output regions only, a
/// small part of the default 16 MiB, so that is all it allocates and
/// touches.
#[derive(Debug, Clone)]
pub struct Scratchpad {
    config: MemConfig,
    /// `log2` of the rows per page.
    page_shift: u32,
    /// `log2` of the pages per bank.
    bank_shift: u32,
    /// Every bank's pages, bank by bank; `None` until written.
    pages: Vec<Option<Box<[u8]>>>,
    /// One row of zeros: what a row of an unwritten page reads as.
    zeros: Box<[u8]>,
}

impl Scratchpad {
    /// Bytes per page of a bank, unless a row is wider.
    pub const PAGE_BYTES: usize = 4096;

    /// Creates a zero-initialized scratchpad.
    #[must_use]
    pub fn new(config: MemConfig) -> Self {
        // Widths and row counts are powers of two, so pages split banks
        // exactly.
        let width = config.bank_width_bytes;
        let page_rows = (Self::PAGE_BYTES / width).clamp(1, config.rows_per_bank);
        let pages_per_bank = config.rows_per_bank / page_rows;
        Scratchpad {
            config,
            page_shift: page_rows.trailing_zeros(),
            bank_shift: pages_per_bank.trailing_zeros(),
            pages: vec![None; config.num_banks * pages_per_bank],
            zeros: vec![0; width].into_boxed_slice(),
        }
    }

    /// The page holding `loc` and the byte offset of its row in it.
    ///
    /// # Panics
    ///
    /// Panics on an out-of-geometry location (simulator-internal bug).
    #[inline]
    fn page_of(&self, loc: BankLocation) -> (usize, usize) {
        assert!(
            loc.bank < self.config.num_banks && loc.row < self.config.rows_per_bank,
            "location outside the scratchpad geometry"
        );
        let page = (loc.bank << self.bank_shift) | (loc.row >> self.page_shift);
        let row_in_page = loc.row & ((1 << self.page_shift) - 1);
        (page, row_in_page * self.config.bank_width_bytes)
    }

    /// The row at `loc`, for writing: its page is allocated on the first
    /// write to it.
    fn row_mut(&mut self, loc: BankLocation) -> &mut [u8] {
        let (page, offset) = self.page_of(loc);
        let width = self.config.bank_width_bytes;
        let page_bytes = width << self.page_shift;
        let data = self.pages[page].get_or_insert_with(|| vec![0; page_bytes].into_boxed_slice());
        &mut data[offset..offset + width]
    }

    /// The geometry.
    #[must_use]
    pub fn config(&self) -> &MemConfig {
        &self.config
    }

    /// Reads the full word at a physical location.
    ///
    /// # Panics
    ///
    /// Panics on an out-of-geometry location (simulator-internal bug).
    #[must_use]
    pub fn read_row(&self, loc: BankLocation) -> &[u8] {
        let (page, offset) = self.page_of(loc);
        match &self.pages[page] {
            Some(data) => &data[offset..offset + self.config.bank_width_bytes],
            None => &self.zeros,
        }
    }

    /// Writes a full word (all bytes) at a physical location.
    pub fn write_row_full(&mut self, loc: BankLocation, data: &[u8]) {
        assert_eq!(
            data.len(),
            self.config.bank_width_bytes,
            "write data must be one full word"
        );
        self.row_mut(loc).copy_from_slice(data);
    }

    /// Host-side (non-simulated) linear write through a remapper view.
    ///
    /// Used to preload operands before a run; does not consume simulated
    /// cycles or count as memory accesses.
    ///
    /// # Errors
    ///
    /// Returns [`MemError::OutOfBounds`] if the span exceeds capacity.
    pub fn host_write(
        &mut self,
        remapper: &AddressRemapper,
        addr: Addr,
        bytes: &[u8],
    ) -> Result<(), MemError> {
        let w = self.config.bank_width_bytes as u64;
        let end = addr
            .checked_add(bytes.len() as u64)
            .ok_or(MemError::OutOfBounds {
                addr: addr.get(),
                capacity: self.config.capacity_bytes(),
            })?;
        if end.get() > self.config.capacity_bytes() {
            return Err(MemError::OutOfBounds {
                addr: addr.get(),
                capacity: self.config.capacity_bytes(),
            });
        }
        for (i, &byte) in bytes.iter().enumerate() {
            let byte_addr = addr + i as u64;
            let loc = remapper.map_word(byte_addr.word_index(w));
            let offset = byte_addr.word_offset(w) as usize;
            self.row_mut(loc)[offset] = byte;
        }
        Ok(())
    }

    /// Host-side (non-simulated) linear read through a remapper view.
    ///
    /// # Errors
    ///
    /// Returns [`MemError::OutOfBounds`] if the span exceeds capacity.
    pub fn host_read(
        &self,
        remapper: &AddressRemapper,
        addr: Addr,
        len: usize,
    ) -> Result<Vec<u8>, MemError> {
        let w = self.config.bank_width_bytes as u64;
        let end = addr.checked_add(len as u64).ok_or(MemError::OutOfBounds {
            addr: addr.get(),
            capacity: self.config.capacity_bytes(),
        })?;
        if end.get() > self.config.capacity_bytes() {
            return Err(MemError::OutOfBounds {
                addr: addr.get(),
                capacity: self.config.capacity_bytes(),
            });
        }
        let mut out = Vec::with_capacity(len);
        for i in 0..len {
            let byte_addr = addr + i as u64;
            let loc = remapper.map_word(byte_addr.word_index(w));
            let offset = byte_addr.word_offset(w) as usize;
            out.push(self.read_row(loc)[offset]);
        }
        Ok(out)
    }

    /// Zeroes the whole scratchpad.
    pub fn clear(&mut self) {
        self.pages.fill(None);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::remap::AddressingMode;
    use dm_sim::SplitMix64;

    fn bytes(rng: &mut SplitMix64, len: u64) -> Vec<u8> {
        (0..len).map(|_| rng.next_u64() as u8).collect()
    }

    fn small() -> MemConfig {
        MemConfig::new(4, 8, 16).unwrap()
    }

    #[test]
    fn config_rejects_non_power_of_two() {
        assert!(matches!(
            MemConfig::new(3, 8, 16),
            Err(MemError::NotPowerOfTwo { .. })
        ));
        assert!(matches!(
            MemConfig::new(4, 6, 16),
            Err(MemError::NotPowerOfTwo { .. })
        ));
        assert!(matches!(
            MemConfig::new(4, 8, 0),
            Err(MemError::NotPowerOfTwo { .. })
        ));
    }

    /// The crossbar moves headers only, so no inline word capacity caps the
    /// bank width: any power of two is a valid geometry.
    #[test]
    fn config_accepts_wide_power_of_two_banks() {
        let cfg = MemConfig::new(4, 128, 16).unwrap();
        let mut sp = Scratchpad::new(cfg);
        let loc = BankLocation { bank: 3, row: 15 };
        sp.write_row_full(loc, &[9; 128]);
        assert_eq!(sp.read_row(loc), &[9; 128]);
    }

    #[test]
    fn capacity_and_bandwidth() {
        let cfg = small();
        assert_eq!(cfg.capacity_bytes(), 4 * 8 * 16);
        assert_eq!(cfg.bandwidth_bytes_per_cycle(), 32);
    }

    #[test]
    fn row_write_read_roundtrip() {
        let mut sp = Scratchpad::new(small());
        let loc = BankLocation { bank: 2, row: 5 };
        sp.write_row_full(loc, &[1, 2, 3, 4, 5, 6, 7, 8]);
        assert_eq!(sp.read_row(loc), &[1, 2, 3, 4, 5, 6, 7, 8]);
    }

    #[test]
    fn host_rw_roundtrip_unaligned_span() {
        let cfg = small();
        let mut sp = Scratchpad::new(cfg);
        let remap = AddressRemapper::new(&cfg, AddressingMode::FullyInterleaved).unwrap();
        let data: Vec<u8> = (0..40).collect();
        sp.host_write(&remap, Addr::new(13), &data).unwrap();
        assert_eq!(sp.host_read(&remap, Addr::new(13), 40).unwrap(), data);
    }

    #[test]
    fn host_access_bounds_checked() {
        let cfg = small();
        let mut sp = Scratchpad::new(cfg);
        let remap = AddressRemapper::new(&cfg, AddressingMode::FullyInterleaved).unwrap();
        let capacity = cfg.capacity_bytes();
        assert!(sp
            .host_write(&remap, Addr::new(capacity - 1), &[0, 0])
            .is_err());
        assert!(sp.host_read(&remap, Addr::new(capacity), 1).is_err());
    }

    /// A page is allocated at its first write; every other row reads as
    /// zeros without one.
    #[test]
    fn pages_are_allocated_on_first_write() {
        let cfg = MemConfig::new(4, 8, 2048).unwrap();
        let mut sp = Scratchpad::new(cfg);
        let pages = |sp: &Scratchpad| sp.pages.iter().filter(|p| p.is_some()).count();
        assert_eq!(sp.pages.len(), 4 * 4, "512 rows of 8 bytes a page");
        assert_eq!(pages(&sp), 0);
        sp.write_row_full(BankLocation { bank: 2, row: 700 }, &[5; 8]);
        sp.write_row_full(BankLocation { bank: 2, row: 1000 }, &[6; 8]);
        assert_eq!(pages(&sp), 1, "rows 512..1024 share a page");
        assert_eq!(sp.read_row(BankLocation { bank: 2, row: 700 }), &[5; 8]);
        assert_eq!(sp.read_row(BankLocation { bank: 2, row: 701 }), &[0; 8]);
        assert_eq!(sp.read_row(BankLocation { bank: 3, row: 700 }), &[0; 8]);
        sp.write_row_full(BankLocation { bank: 3, row: 2047 }, &[7; 8]);
        assert_eq!(pages(&sp), 2);
        assert_eq!(sp.read_row(BankLocation { bank: 3, row: 2047 }), &[7; 8]);
    }

    #[test]
    fn clear_zeroes() {
        let mut sp = Scratchpad::new(small());
        sp.write_row_full(BankLocation { bank: 1, row: 1 }, &[7; 8]);
        sp.clear();
        assert_eq!(sp.read_row(BankLocation { bank: 1, row: 1 }), &[0; 8]);
    }

    /// Data written linearly under one addressing mode reads back
    /// identically under the same mode, for any mode and offset — the
    /// scratchpad plus remapper is a faithful linear memory.
    #[test]
    fn linear_view_roundtrip() {
        let cfg = small();
        let mut rng = SplitMix64::new(0x5c7);
        for case in 0..256 {
            let group_banks = 1 << rng.below(3);
            let remap =
                AddressRemapper::new(&cfg, AddressingMode::GroupedInterleaved { group_banks })
                    .unwrap();
            let mut sp = Scratchpad::new(cfg);
            let len = 1 + rng.below(99);
            let data = bytes(&mut rng, len);
            let offset = rng.below(64).min(cfg.capacity_bytes() - len);
            sp.host_write(&remap, Addr::new(offset), &data).unwrap();
            assert_eq!(
                sp.host_read(&remap, Addr::new(offset), data.len()).unwrap(),
                data,
                "case {case}"
            );
        }
    }

    /// Writes through two *different* views do not alias as long as the
    /// linear ranges are bank-group disjoint regions of the same mode —
    /// sanity for mixed-mode operand placement.
    #[test]
    fn different_rows_do_not_alias() {
        let cfg = small();
        let remap = AddressRemapper::new(&cfg, AddressingMode::NonInterleaved).unwrap();
        let mut rng = SplitMix64::new(0xa11);
        for case in 0..256 {
            let (data_a, data_b) = (bytes(&mut rng, 8), bytes(&mut rng, 8));
            let mut sp = Scratchpad::new(cfg);
            sp.host_write(&remap, Addr::new(0), &data_a).unwrap();
            sp.host_write(&remap, Addr::new(256), &data_b).unwrap();
            assert_eq!(
                sp.host_read(&remap, Addr::new(0), 8).unwrap(),
                data_a,
                "case {case}"
            );
            assert_eq!(
                sp.host_read(&remap, Addr::new(256), 8).unwrap(),
                data_b,
                "case {case}"
            );
        }
    }
}
