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
//! maps to the same id.
//!
//! Ids are interned by value, so two steps share an id exactly when their
//! signatures are equal: the id sequence has the same minimal period as
//! the signature sequence, and per-bank counts follow from a histogram
//! over ids, one fold per distinct signature instead of one per step.
//!
//! Addresses wrap into the scratchpad modulo its (power-of-two) capacity.
//! The nest's [`DualCounter`] keeps its running address modulo 2^64,
//! which the capacity divides, so the wrapped address equals the exact
//! one's residue.
//!
//! The walk is *period-first*: it enumerates a short prefix, doubling it
//! while extending one online KMP failure function ([`Borders`]), and
//! takes the prefix's minimal weak period `p` as the candidate. A
//! prefix's minimal period never exceeds the whole stream's, so once `p`
//! is proven a period of every covered step it is the stream's minimal
//! period, and the per-bank counts of `n` steps fold from one period:
//! `⌊n/p⌋·per_bank(period) + per_bank(first n mod p steps)`. The proof
//! never enumerates, and it is the simulator's period-replay argument
//! made static, from the same two pieces: the nest module
//! ([`dm_sim::nest`]) enumerates the shifts `a(x) − a(x − p)`, one per
//! borrow pattern of the mixed-radix subtraction `x − p`
//! ([`AffineNest::every_lag_shift`]), and gives the covered steps' hull;
//! the one bank-keeping predicate ([`BankMap::keeps_banks`]) keeps a
//! step's signature when its shift is a whole number of capacities, or a
//! whole number of interleave rounds while every channel's covered hull
//! stays inside one group. What the lemma cannot decide walks on, up to
//! every covered step, which is exact by enumeration.

use std::collections::HashMap;
use std::ops::ControlFlow;

use dm_mem::BankMap;
use dm_sim::{AffineNest, Borders, DualCounter};

/// Marks a dense-table cell not yet visited.
const UNSEEN: u32 = u32::MAX;

/// Steps of the first prefix a walk enumerates before it tries to prove
/// the prefix's period; each failed try doubles the prefix.
const FIRST_PREFIX: u64 = 16;

/// The interned bank signatures of one burst shape (channel offsets) in one
/// address space ([`BankMap`]), with the dense `(r, bank)` table that serves
/// in-group steps.
pub(crate) struct Signatures {
    map: BankMap,
    /// Channel offsets, read modulo 2^64 (addresses wrap, see module doc).
    offsets: Vec<i64>,
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
    pub(crate) fn new(map: BankMap, offsets: &[i64]) -> Self {
        let units = 1u64 << map.word_shift();
        let group_words = i128::from(map.group_words());
        let space_units = i128::from(map.addr_mask()) + 1;
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
                    (i128::from(r) + o) >> map.word_shift()
                });
                let (lo, hi) =
                    deltas.fold((i128::MAX, i128::MIN), |(lo, hi), d| (lo.min(d), hi.max(d)));
                let clamp = |v: i128| v.clamp(0, group_words) as u64;
                (clamp(-lo), clamp(group_words - hi))
            })
            .collect();
        Signatures {
            map,
            offsets: offsets.to_vec(),
            window,
            dense: vec![UNSEEN; (units * map.banks()) as usize],
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
        nest: &AffineNest,
        steps: u64,
        mut visit: impl FnMut(u64, u32, &[usize]) -> ControlFlow<B>,
    ) -> ControlFlow<B, Walk> {
        // The lemma (module doc): every channel's hull over the covered
        // steps is decided once, each candidate's shifts per borrow pattern.
        let map = self.map;
        let in_group = steps > 0 && map.in_one_group(nest.hull(0, steps), &self.offsets);
        let proves =
            |p: u64| nest.every_lag_shift(p, steps, |shift| map.keeps_banks(shift, || in_group));
        let mut counter = DualCounter::new(nest.clone());
        let mut ids: Vec<u32> = Vec::new();
        let mut borders = Borders::default();
        let mut refuted = None;
        let mut len = steps.min(FIRST_PREFIX);
        loop {
            for step in ids.len() as u64..len {
                let id = self.id_at(counter.address());
                visit(step, id, self.banks(id))?;
                ids.push(id);
                counter.step();
            }
            borders.extend(&ids);
            let period = borders.period();
            if len == steps || (refuted != Some(period) && proves(period)) {
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
        let map = self.map;
        let a = addr & map.addr_mask();
        let r = a & ((1 << map.word_shift()) - 1);
        let word = a >> map.word_shift();
        let local = word & (map.group_words() - 1);
        let (lo, hi) = self.window[r as usize];
        if local < lo || local >= hi {
            return self.intern_at(a);
        }
        let cell = (r * map.banks() + map.bank(word)) as usize;
        if self.dense[cell] == UNSEEN {
            self.dense[cell] = self.intern_at(a);
        }
        self.dense[cell]
    }

    /// Computes the full signature at temporal address `a` and interns it.
    fn intern_at(&mut self, a: u64) -> u32 {
        self.scratch.clear();
        for &o in &self.offsets {
            self.scratch
                .push(self.map.bank_of(a.wrapping_add(o as u64)));
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

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn straddling_steps_share_ids_with_equal_in_group_signatures() {
        // 4 banks, GIMA(2), 4 rows: groups of 8 words. A two-channel burst
        // one word apart straddles the group boundary at word 7.
        let map = BankMap::new(1, 16, 2, 8);
        let mut sigs = Signatures::new(map, &[0, 1]);
        let nest = AffineNest::new(0, &[16], &[1]);
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
                .map(|&x| map.bank(x) as usize)
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
