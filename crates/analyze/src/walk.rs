//! The one bank-signature walk over an affine nest, shared by the period
//! prover ([`crate::period`]), the mode advisor ([`crate::advisor`]) and
//! the burst verdict ([`crate::conflict`]).
//!
//! A step of a dual-counter nest issues one burst: the temporal address
//! `q` plus each channel's constant spatial offset. Its *bank signature*
//! is the per-channel vector of banks those words map to. Under GIMA(g)
//! on a power-of-two geometry the bank of a word is a bit permutation
//! ([`BankMap`]): `[group | bank-in-group]` taken from
//! `[group | row-within-group | bank-in-group]`. Inside one interleave
//! group the map is therefore a translation: when every channel's word
//! stays in the group of `q`'s word `W`, channel `c` lands on
//! `group(W)·g + ((W + δ_c) mod g)`, where `δ_c` depends only on the
//! sub-word part `r = q mod word` and the channel's offset. The signature
//! is then a function of `(r, bank(W))` alone, and a dense table indexed by
//! that pair interns each signature once. Only a step whose burst straddles
//! a group boundary (or whose temporal word sits outside the group of its
//! channels' words) computes its full signature, which the same interner
//! maps to the same id. This is the argument of the simulator's
//! `AddressRemapper::keeps_banks`, made static.
//!
//! Ids are interned by value, so two steps share an id exactly when their
//! signatures are equal: the id sequence has the same minimal period as
//! the signature sequence, and per-bank counts follow from a histogram
//! over ids, one fold per distinct signature instead of one per step.
//!
//! Addresses wrap into the scratchpad modulo its (power-of-two) capacity.
//! The nest's running offset is kept modulo 2^64, which the capacity
//! divides, so the wrapped address equals the exact one's residue.
//!
//! The walk is *period-first*: it enumerates a short prefix, doubling it
//! while extending one online KMP failure function ([`Borders`]), and
//! takes the prefix's minimal weak period `p` as the candidate. A
//! prefix's minimal period never exceeds the whole stream's, so once `p`
//! is proven a period of every covered step it is the stream's minimal
//! period, and the per-bank counts of `n` steps fold from one period:
//! `⌊n/p⌋·per_bank(period) + per_bank(first n mod p steps)`. The proof
//! ([`Lemma`]) never enumerates: the shift `a(x) − a(x − p)` takes one
//! value per borrow pattern of the mixed-radix subtraction `x − p`, and a
//! step keeps its signature when that shift is a whole number of
//! capacities, or a whole number of interleave rounds while every
//! channel's covered address hull stays inside one group. What the lemma
//! cannot decide walks on, up to every covered step, which is exact by
//! enumeration.

use std::collections::HashMap;
use std::ops::ControlFlow;

use dm_mem::MemConfig;
use dm_sim::Borders;

use crate::pattern::BankMap;

/// Marks a dense-table cell not yet visited.
const UNSEEN: u32 = u32::MAX;

/// Steps of the first prefix a walk enumerates before it tries to prove
/// the prefix's period; each failed try doubles the prefix.
const FIRST_PREFIX: u64 = 16;

/// Where a walk's addresses live: units per word (bytes for the prover, 1
/// for word-granular summaries), the power-of-two address space they wrap
/// into, and the addressing mode's bank map.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Space {
    /// `log2` of units per word.
    word_shift: u32,
    /// Address space size minus one, in units.
    addr_mask: u64,
    /// Words per interleave group minus one.
    local_mask: u64,
    /// `log2` of the banks per interleave group (`g`).
    group_shift: u32,
    /// Banks of the whole space.
    banks: u64,
    map: BankMap,
}

impl Space {
    /// A space of `capacity_words` words of `word_units` units each under
    /// GIMA(`g`) with `group_words` words per group. Every argument is a
    /// power of two (the validated `MemConfig` geometry).
    pub(crate) fn new(word_units: u64, capacity_words: u64, g: u64, group_words: u64) -> Self {
        debug_assert!(
            [word_units, capacity_words, g, group_words]
                .iter()
                .all(|v| v.is_power_of_two())
                && g <= group_words
                && group_words <= capacity_words,
            "walk space needs a power-of-two geometry"
        );
        Space {
            word_shift: word_units.trailing_zeros(),
            addr_mask: (capacity_words * word_units).wrapping_sub(1),
            local_mask: group_words - 1,
            group_shift: g.trailing_zeros(),
            banks: capacity_words / group_words * g,
            map: BankMap::new(g, group_words),
        }
    }

    /// Byte addresses of `mem` under GIMA(`g`).
    pub(crate) fn bytes(mem: &MemConfig, g: u64) -> Self {
        let word = mem.bank_width_bytes() as u64;
        Space::new(
            word,
            mem.capacity_bytes() / word,
            g,
            g * mem.rows_per_bank() as u64,
        )
    }

    /// The bank of an address, wrapped into the space.
    #[inline]
    pub(crate) fn bank_of(&self, addr: u64) -> usize {
        self.map.bank((addr & self.addr_mask) >> self.word_shift) as usize
    }
}

/// A temporal loop nest: base address and per-dimension bounds and
/// strides, innermost first, in the space's units. A stride missing from
/// `strides` reads as 0.
pub(crate) struct Nest<'a> {
    pub(crate) base: u64,
    pub(crate) bounds: &'a [u64],
    pub(crate) strides: &'a [i64],
}

/// The interned bank signatures of one burst shape (channel offsets) in one
/// [`Space`], with the dense `(r, bank)` table that serves in-group steps.
pub(crate) struct Signatures {
    space: Space,
    /// Channel offsets, two's complement (addresses wrap, see module doc).
    offsets: Vec<u64>,
    /// Per sub-word offset `r`: the steps whose word sits at a position
    /// `lo..hi` inside its group keep every channel in that group.
    window: Vec<(u64, u64)>,
    /// `(r, bank(W))` → signature id, [`UNSEEN`] until first visited.
    dense: Vec<u32>,
    /// Banks of each signature in id order, one per channel.
    banks: Vec<usize>,
    intern: HashMap<Vec<usize>, u32>,
    scratch: Vec<usize>,
}

impl Signatures {
    /// The signature table of a burst whose channels sit at `offsets`
    /// (units, wrapping) from the step's temporal address.
    pub(crate) fn new(space: Space, offsets: &[i64]) -> Self {
        let units = 1u64 << space.word_shift;
        let group_words = i128::from(space.local_mask) + 1;
        let space_units = i128::from(space.addr_mask) + 1;
        let window = (0..units)
            .map(|r| {
                if offsets.is_empty() {
                    return (0, u64::MAX);
                }
                // Word deltas of the channels from the step's word, with
                // each offset's wrapped residue read as its nearest signed
                // value. The window is conservative: a step outside it may
                // still be in-group, it only pays the full signature.
                let deltas = offsets.iter().map(|&o| {
                    let o = i128::from(o as u64) & (space_units - 1);
                    let o = if o >= space_units / 2 {
                        o - space_units
                    } else {
                        o
                    };
                    (i128::from(r) + o) >> space.word_shift
                });
                let (lo, hi) =
                    deltas.fold((i128::MAX, i128::MIN), |(lo, hi), d| (lo.min(d), hi.max(d)));
                let clamp = |v: i128| v.clamp(0, group_words) as u64;
                (clamp(-lo), clamp(group_words - hi))
            })
            .collect();
        Signatures {
            space,
            offsets: offsets.iter().map(|&o| o as u64).collect(),
            window,
            dense: vec![UNSEEN; (units * space.banks) as usize],
            banks: Vec::new(),
            intern: HashMap::new(),
            scratch: Vec::with_capacity(offsets.len()),
        }
    }

    /// The banks of signature `id`, one per channel.
    pub(crate) fn banks(&self, id: u32) -> &[usize] {
        let n = self.offsets.len();
        &self.banks[id as usize * n..(id as usize + 1) * n]
    }

    /// Walks the first `steps` steps of `nest` period-first (module doc),
    /// calling `visit(step, id, banks)` on every step it enumerates, in
    /// order; stops at the first `Break`. The steps a proven period covers
    /// are never visited: each repeats a signature of the first period.
    pub(crate) fn walk<B>(
        &mut self,
        nest: &Nest<'_>,
        steps: u64,
        mut visit: impl FnMut(u64, u32, &[usize]) -> ControlFlow<B>,
    ) -> ControlFlow<B, Walk> {
        let lemma = Lemma::new(&self.space, &self.offsets, nest, steps);
        let mut counter = DualCounter::new(nest);
        let mut ids: Vec<u32> = Vec::new();
        let mut borders = Borders::default();
        let mut refuted = None;
        let mut len = steps.min(FIRST_PREFIX);
        loop {
            for step in ids.len() as u64..len {
                let id = self.id_at(counter.offset());
                visit(step, id, self.banks(id))?;
                ids.push(id);
                counter.step();
            }
            borders.extend(&ids);
            let period = borders.period();
            if len == steps || (refuted != Some(period) && lemma.proves(period)) {
                return ControlFlow::Continue(Walk { ids, steps, period });
            }
            refuted = Some(period);
            len = len.saturating_mul(2).min(steps);
        }
    }

    /// Requests per bank over the first `n ≤ walk.steps` steps of `walk`,
    /// folded from its period: whole periods from the first period's id
    /// histogram, the rest from its first `n mod p` steps, each folded into
    /// banks once per distinct signature.
    pub(crate) fn per_bank(&self, walk: &Walk, n: u64, num_banks: usize) -> Vec<u64> {
        debug_assert!(n <= walk.steps, "a fold covers only walked steps");
        let (reps, rest) = (n / walk.period, (n % walk.period) as usize);
        let mut counts = vec![0u64; self.intern.len()];
        let period = &walk.ids[..walk.period.min(n) as usize];
        for (i, &id) in period.iter().enumerate() {
            counts[id as usize] += reps + u64::from(i < rest);
        }
        let mut per_bank = vec![0u64; num_banks];
        for (id, &count) in counts.iter().enumerate() {
            for &b in self.banks(id as u32) {
                per_bank[b] += count;
            }
        }
        per_bank
    }

    /// The signature id of the step at temporal address `addr`.
    #[inline]
    fn id_at(&mut self, addr: u64) -> u32 {
        let a = addr & self.space.addr_mask;
        let r = a & ((1 << self.space.word_shift) - 1);
        let word = a >> self.space.word_shift;
        let local = word & self.space.local_mask;
        let (lo, hi) = self.window[r as usize];
        if local < lo || local >= hi {
            return self.intern_at(a);
        }
        let cell = (r * self.space.banks + self.space.map.bank(word)) as usize;
        if self.dense[cell] == UNSEEN {
            self.dense[cell] = self.intern_at(a);
        }
        self.dense[cell]
    }

    /// Computes the full signature at temporal address `a` and interns it.
    fn intern_at(&mut self, a: u64) -> u32 {
        self.scratch.clear();
        for &o in &self.offsets {
            self.scratch.push(self.space.bank_of(a.wrapping_add(o)));
        }
        if let Some(&id) = self.intern.get(self.scratch.as_slice()) {
            return id;
        }
        let id = self.intern.len() as u32;
        self.banks.extend_from_slice(&self.scratch);
        self.intern.insert(self.scratch.clone(), id);
        id
    }
}

/// What a walk established about the first `steps` steps of a nest.
pub(crate) struct Walk {
    /// Signature ids of the enumerated prefix: at least one period.
    ids: Vec<u32>,
    /// Steps the walk covers, enumerated or proven.
    steps: u64,
    /// Minimal weak period of the signatures of the covered steps.
    pub(crate) period: u64,
}

/// The period lemma over the first `steps` steps of a nest (module doc):
/// a candidate `p` is a weak period when every shift `a(x) − a(x − p)`,
/// one per feasible borrow pattern of `x − p`, is a whole number of
/// capacities, or of interleave rounds while every channel's covered
/// address hull lies inside one group window (no straddle, no wrap).
struct Lemma {
    steps: u64,
    bounds: Vec<u64>,
    /// Strides, two's complement: only shifts modulo powers of two matter.
    strides: Vec<u64>,
    /// Per dimension, the largest index a covered step reaches.
    reach: Vec<u64>,
    /// Every channel's covered hull stays inside one group window.
    in_group: bool,
    /// Units per capacity and per interleave round, minus one.
    capacity_mask: u64,
    round_mask: u64,
}

impl Lemma {
    fn new(space: &Space, offsets: &[u64], nest: &Nest<'_>, steps: u64) -> Self {
        let dims = nest.bounds.len();
        let strides: Vec<u64> = (0..dims)
            .map(|d| nest.strides.get(d).copied().unwrap_or(0) as u64)
            .collect();
        // The covered steps are `0..steps`: below the highest non-zero
        // digit of `steps − 1` every index runs its whole bound, that digit
        // reaches its own value, and the dimensions above stay at 0.
        let mut reach = vec![0; dims];
        let mut rem = steps.saturating_sub(1);
        for (d, &bound) in nest.bounds.iter().enumerate() {
            if rem == 0 {
                break;
            }
            reach[d] = if rem >= bound { bound - 1 } else { rem };
            rem /= bound;
        }
        // The hull of the temporal address, exact in i128; an overflowing
        // nest decides nothing by hull.
        let hull = reach.iter().zip(&strides).try_fold(
            (i128::from(nest.base), i128::from(nest.base)),
            |(lo, hi), (&r, &s)| {
                let v = i128::from(r).checked_mul(i128::from(s as i64))?;
                Some((lo.checked_add(v.min(0))?, hi.checked_add(v.max(0))?))
            },
        );
        let group_units = i128::from(space.local_mask + 1) << space.word_shift;
        let in_group = hull.is_some_and(|(lo, hi)| {
            offsets.iter().all(|&o| {
                let o = i128::from(o as i64);
                let window = |a: i128| a.checked_add(o).map(|a| a.div_euclid(group_units));
                window(lo).is_some() && window(lo) == window(hi)
            })
        });
        Lemma {
            steps,
            bounds: nest.bounds.to_vec(),
            strides,
            reach,
            in_group,
            capacity_mask: space.addr_mask,
            round_mask: (1u64 << (space.group_shift + space.word_shift)) - 1,
        }
    }

    /// `true` when `p` is provably a weak period of the covered steps'
    /// signatures.
    fn proves(&self, p: u64) -> bool {
        if p >= self.steps {
            return true;
        }
        let mut digits = Vec::with_capacity(self.bounds.len());
        let mut rem = p;
        for &bound in &self.bounds {
            digits.push(rem % bound);
            rem /= bound;
        }
        self.shifts_keep_banks(&digits, 0, 0, 0)
    }

    /// Whether every shift of the borrow patterns that agree with the
    /// choices below dimension `d` (carrying `borrow` into it, with the
    /// partial shift `shift`) keeps every channel's bank.
    fn shifts_keep_banks(&self, digits: &[u64], d: usize, borrow: u64, shift: u64) -> bool {
        let Some(&bound) = self.bounds.get(d) else {
            // `x ≥ p`: a pattern borrowing past the top never occurs.
            return borrow == 1
                || shift & self.capacity_mask == 0
                || (self.in_group && shift & self.round_mask == 0);
        };
        // Index `x_d` lowers by `t` unless it is below `t`, which borrows
        // and raises it by `bound − t` instead.
        let t = digits[d] + borrow;
        let stride = self.strides[d];
        (t > self.reach[d]
            || self.shifts_keep_banks(digits, d + 1, 0, shift.wrapping_add(t.wrapping_mul(stride))))
            && (t == 0
                || self.shifts_keep_banks(
                    digits,
                    d + 1,
                    1,
                    shift.wrapping_add(t.wrapping_sub(bound).wrapping_mul(stride)),
                ))
    }
}

/// Dual-counter walk over a temporal nest, tracking only the running
/// address (what [`datamaestro::agu::TemporalAgu`] does, minus the
/// emission): one add per step, one subtract per wrapped dimension. The
/// address is kept modulo 2^64; a zero-trip bound simply never steps.
struct DualCounter {
    bounds: Vec<u64>,
    strides: Vec<u64>,
    indices: Vec<u64>,
    /// Per dimension, the offset its index currently contributes.
    reach: Vec<u64>,
    offset: u64,
}

impl DualCounter {
    fn new(nest: &Nest<'_>) -> Self {
        let dims = nest.bounds.len();
        DualCounter {
            bounds: nest.bounds.to_vec(),
            strides: (0..dims)
                .map(|d| nest.strides.get(d).copied().unwrap_or(0) as u64)
                .collect(),
            indices: vec![0; dims],
            reach: vec![0; dims],
            offset: nest.base,
        }
    }

    #[inline]
    fn offset(&self) -> u64 {
        self.offset
    }

    #[inline]
    fn step(&mut self) {
        for d in 0..self.bounds.len() {
            self.indices[d] += 1;
            if self.indices[d] < self.bounds[d] {
                self.reach[d] = self.reach[d].wrapping_add(self.strides[d]);
                self.offset = self.offset.wrapping_add(self.strides[d]);
                return;
            }
            self.indices[d] = 0;
            self.offset = self.offset.wrapping_sub(self.reach[d]);
            self.reach[d] = 0;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dual_counter_tracks_the_summed_offset() {
        let nest = Nest {
            base: 100,
            bounds: &[3, 2, 2],
            strides: &[8, -40],
        };
        let mut counter = DualCounter::new(&nest);
        for t in 0..12u64 {
            let (i, j) = (t % 3, t / 3 % 2);
            let expected = 100 + 8 * i as i64 - 40 * j as i64;
            assert_eq!(counter.offset() as i64, expected, "step {t}");
            counter.step();
        }
        assert_eq!(counter.offset(), 100, "the nest returns to its base");
    }

    #[test]
    fn straddling_steps_share_ids_with_equal_in_group_signatures() {
        // 4 banks, GIMA(2), 4 rows: groups of 8 words. A two-channel burst
        // one word apart straddles the group boundary at word 7.
        let space = Space::new(1, 16, 2, 8);
        let mut sigs = Signatures::new(space, &[0, 1]);
        let nest = Nest {
            base: 0,
            bounds: &[16],
            strides: &[1],
        };
        let mut seen = Vec::new();
        let ControlFlow::Continue(walk) = sigs.walk::<()>(&nest, 16, |_, id, banks| {
            seen.push((id, banks.to_vec()));
            ControlFlow::Continue(())
        }) else {
            unreachable!("the visit never breaks")
        };
        // The burst straddles a group, so no shorter period is provable.
        assert_eq!(seen.len(), 16);
        for (w, (_, banks)) in seen.iter().enumerate() {
            let w = w as u64;
            let expected: Vec<usize> = [w, (w + 1) % 16]
                .iter()
                .map(|&x| space.map.bank(x) as usize)
                .collect();
            assert_eq!(banks, &expected, "word {w}");
        }
        for a in &seen {
            for b in &seen {
                assert_eq!(a.0 == b.0, a.1 == b.1, "ids are equal iff signatures are");
            }
        }
        assert_eq!(sigs.per_bank(&walk, 16, 4).iter().sum::<u64>(), 32);
    }
}
