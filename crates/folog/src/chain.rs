//! Hash-to-chain tables: the flat hash structure behind the term arena,
//! relation dedup and pattern indices.
//!
//! Entries are dense ids `0..n`, appended in order. Each table keeps one
//! bucket head per slot and one `next` link plus a 32-bit hash per entry,
//! so an entry costs 8 bytes and no heap allocation of its own. The key
//! itself is never stored: callers compare a candidate entry against
//! their probe through whatever the id refers to (a term node, a row of
//! the tuple arena). The table doubles when entries outnumber buckets
//! and re-links every entry from its stored hash.

use std::hash::Hasher;

/// "No entry": the end of a chain, an empty bucket.
pub(crate) const NIL: u32 = u32::MAX;

/// A fast multiplicative hasher for the small integer keys the stores
/// hash (term handles, symbol ids). Not DoS-resistant; nothing here
/// hashes untrusted bytes into a table an attacker can aim at.
#[derive(Default)]
pub(crate) struct FxHasher(u64);

const SEED: u64 = 0x51_7c_c1_b7_27_22_0a_95;

impl FxHasher {
    #[inline]
    fn add(&mut self, x: u64) {
        self.0 = (self.0.rotate_left(5) ^ x).wrapping_mul(SEED);
    }
}

impl Hasher for FxHasher {
    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut buf = [0u8; 8];
            buf[..chunk.len()].copy_from_slice(chunk);
            self.add(u64::from_le_bytes(buf));
        }
    }

    #[inline]
    fn write_u32(&mut self, i: u32) {
        self.add(u64::from(i));
    }

    #[inline]
    fn write_u64(&mut self, i: u64) {
        self.add(i);
    }

    #[inline]
    fn write_usize(&mut self, i: usize) {
        self.add(i as u64);
    }

    #[inline]
    fn finish(&self) -> u64 {
        self.0
    }
}

/// Hashes any `Hash` value with [`FxHasher`].
#[inline]
pub(crate) fn fx_hash<T: std::hash::Hash + ?Sized>(value: &T) -> u64 {
    let mut h = FxHasher::default();
    value.hash(&mut h);
    h.finish()
}

/// Chains of entry ids by hash. See the module docs.
#[derive(Clone, Debug, Default)]
pub(crate) struct Chains {
    /// Bucket → most recently pushed entry, or [`NIL`]. Empty or a power
    /// of two long.
    heads: Vec<u32>,
    /// Entry → the previous entry of its bucket, or [`NIL`].
    next: Vec<u32>,
    /// Entry → the high 32 bits of its hash.
    hashes: Vec<u32>,
}

/// The stored part of a hash: its high half, whose top bits pick the
/// bucket (multiplicative hashing spreads best into the high bits).
#[inline]
fn short(hash: u64) -> u32 {
    (hash >> 32) as u32
}

impl Chains {
    #[inline]
    fn bucket(&self, h: u32) -> usize {
        let bits = self.heads.len().trailing_zeros();
        if bits == 0 {
            0
        } else {
            (h >> (32 - bits)) as usize
        }
    }

    /// Appends the next entry id under `hash`; returns the id.
    pub(crate) fn push(&mut self, hash: u64) -> u32 {
        let id = self.next.len() as u32;
        let h = short(hash);
        if self.next.len() >= self.heads.len() {
            self.grow();
        }
        let b = self.bucket(h);
        self.next.push(self.heads[b]);
        self.hashes.push(h);
        self.heads[b] = id;
        id
    }

    /// Doubles the bucket array and re-links every entry, oldest first,
    /// so each chain still runs newest to oldest.
    fn grow(&mut self) {
        let size = (self.heads.len() * 2).max(8);
        self.heads.clear();
        self.heads.resize(size, NIL);
        for id in 0..self.next.len() {
            let b = self.bucket(self.hashes[id]);
            self.next[id] = self.heads[b];
            self.heads[b] = id as u32;
        }
    }

    /// The hash entry `id` was pushed under, as far as the table keeps
    /// it: pushing it again files the entry in the same chain.
    pub(crate) fn hash(&self, id: u32) -> u64 {
        u64::from(self.hashes[id as usize]) << 32
    }

    /// The entries pushed under a hash equal to `hash` in its stored
    /// bits, newest first. Callers confirm each against their key.
    #[inline]
    pub(crate) fn candidates(&self, hash: u64) -> Candidates<'_> {
        let h = short(hash);
        let first = if self.heads.is_empty() {
            NIL
        } else {
            self.heads[self.bucket(h)]
        };
        Candidates {
            chains: self,
            h,
            at: first,
        }
    }
}

/// Iterator over one bucket's entries with a matching stored hash.
pub(crate) struct Candidates<'a> {
    chains: &'a Chains,
    h: u32,
    at: u32,
}

impl Iterator for Candidates<'_> {
    type Item = u32;

    #[inline]
    fn next(&mut self) -> Option<u32> {
        while self.at != NIL {
            let id = self.at;
            self.at = self.chains.next[id as usize];
            if self.chains.hashes[id as usize] == self.h {
                return Some(id);
            }
        }
        None
    }
}

/// Rows grouped by a key, each group's rows chained in ascending order:
/// the flat form of a `HashMap<Key, Vec<row>>`. Groups (one per distinct
/// key) live in a [`Chains`]; rows cost one `next` link each, and rows
/// that carry no key (a sub-term index skips rows of another functor)
/// cost the same link, set to [`NIL`].
#[derive(Clone, Debug, Default)]
pub(crate) struct RowGroups {
    /// Rows `< covered` have been filed.
    pub(crate) covered: u32,
    groups: Chains,
    /// Group → its first and last row.
    first: Vec<u32>,
    last: Vec<u32>,
    /// Row → the next row of its group, or [`NIL`].
    next: Vec<u32>,
}

impl RowGroups {
    /// The group whose key `eq` accepts (it is handed the group's first
    /// row), among those filed under `hash`.
    #[inline]
    fn group(&self, hash: u64, eq: impl Fn(u32) -> bool) -> Option<u32> {
        self.groups
            .candidates(hash)
            .find(|&g| eq(self.first[g as usize]))
    }

    /// Files the next row. `key` is the row's key hash, or `None` when
    /// the row carries no key; `same(a, b)` tells whether rows `a` and
    /// `b` have equal keys.
    pub(crate) fn file(&mut self, key: Option<u64>, same: impl Fn(u32, u32) -> bool) {
        let row = self.covered;
        self.covered += 1;
        self.next.push(NIL);
        let Some(hash) = key else {
            return;
        };
        match self.group(hash, |first| same(first, row)) {
            Some(g) => {
                let last = self.last[g as usize];
                self.next[last as usize] = row;
                self.last[g as usize] = row;
            }
            None => {
                self.groups.push(hash);
                self.first.push(row);
                self.last.push(row);
            }
        }
    }

    /// The same grouping over renumbered rows: `renumber[r]` is row
    /// `r`'s new number, or [`NIL`] to drop it. New numbers must rise
    /// with the old ones, so each group's chain stays ascending; groups
    /// left empty are dropped. No key is hashed or compared again.
    pub(crate) fn renumbered(&self, renumber: &[u32]) -> RowGroups {
        let covered = self.next.len();
        let kept = renumber[..covered].iter().filter(|&&r| r != NIL).count();
        let mut out = RowGroups {
            covered: kept as u32,
            next: vec![NIL; kept],
            ..RowGroups::default()
        };
        for (g, &first) in self.first.iter().enumerate() {
            let mut last = NIL;
            let mut row = first;
            while row != NIL {
                let new = renumber[row as usize];
                if new != NIL {
                    if last == NIL {
                        out.groups.push(self.groups.hash(g as u32));
                        out.first.push(new);
                    } else {
                        out.next[last as usize] = new;
                    }
                    last = new;
                }
                row = self.next[row as usize];
            }
            if last != NIL {
                out.last.push(last);
            }
        }
        out
    }

    /// Appends to `out` the rows of the group `eq` accepts that fall in
    /// `range`, each plus `offset`, in ascending order.
    pub(crate) fn rows_into(
        &self,
        hash: u64,
        eq: impl Fn(u32) -> bool,
        range: std::ops::Range<u32>,
        offset: u32,
        out: &mut Vec<u32>,
    ) {
        let Some(g) = self.group(hash, eq) else {
            return;
        };
        let mut row = self.first[g as usize];
        while row != NIL && row < range.end {
            if row >= range.start {
                out.push(row + offset);
            }
            row = self.next[row as usize];
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn chains_find_every_entry_across_growth() {
        let mut c = Chains::default();
        let keys: Vec<u64> = (0..1000u64).map(|k| fx_hash(&(k % 300))).collect();
        for &h in &keys {
            c.push(h);
        }
        for (id, &h) in keys.iter().enumerate() {
            assert!(c.candidates(h).any(|e| e == id as u32));
        }
        // newest first within a key
        let h = fx_hash(&7u64);
        let same: Vec<u32> = c.candidates(h).filter(|&e| keys[e as usize] == h).collect();
        assert_eq!(same, vec![907, 607, 307, 7]);
    }

    #[test]
    fn row_groups_chain_rows_in_ascending_order() {
        // rows 0..10 keyed by row % 3; row 4 carries no key
        let key = |r: u32| (r != 4).then(|| fx_hash(&(r % 3)));
        let mut g = RowGroups::default();
        for _ in 0..10 {
            g.file(key(g.covered), |a, b| a % 3 == b % 3);
        }
        let mut out = Vec::new();
        g.rows_into(fx_hash(&1u32), |first| first % 3 == 1, 0..10, 0, &mut out);
        assert_eq!(out, vec![1, 7]);
        out.clear();
        g.rows_into(fx_hash(&0u32), |first| first % 3 == 0, 3..9, 100, &mut out);
        assert_eq!(out, vec![103, 106]);
        out.clear();
        g.rows_into(fx_hash(&5u32), |_| false, 0..10, 0, &mut out);
        assert!(out.is_empty());

        // Drop rows 0, 1 and 3: rows 2, 4..10 become 0, 1..7; group 1
        // keeps 7 (now 4), group 0 keeps 6 and 9 (now 3 and 6).
        let renumber = [NIL, NIL, 0, NIL, 1, 2, 3, 4, 5, 6];
        let r = g.renumbered(&renumber);
        assert_eq!(r.covered, 7);
        out.clear();
        r.rows_into(fx_hash(&1u32), |first| first == 4, 0..7, 0, &mut out);
        assert_eq!(out, vec![4]);
        out.clear();
        r.rows_into(fx_hash(&0u32), |first| first == 3, 0..7, 0, &mut out);
        assert_eq!(out, vec![3, 6]);
        out.clear();
        r.rows_into(fx_hash(&2u32), |first| first == 0, 0..7, 0, &mut out);
        assert_eq!(out, vec![0, 2, 5]);
    }
}
