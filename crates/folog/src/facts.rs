//! The extensional store of derived ground facts — interned columnar
//! tuple storage plus lazy argument-pattern indices — and matching of
//! rule patterns against stored tuples.
//!
//! Bottom-up evaluation is join processing: a rule body is evaluated
//! left-to-right, each atom matched against the relation of its
//! predicate under the bindings accumulated so far. Relations keep
//! insertion order (so semi-naive deltas are contiguous ranges) in a
//! flat row-major arena of interned [`TermId`]s, and build hash indices
//! *lazily*, keyed on the bound-position projection a body literal
//! actually asks for:
//!
//! - an **exact** index per bitmask of bound positions, grouping rows
//!   by their projection onto those positions;
//! - a **sub** index per `(position, functor)` pair, grouping rows by a
//!   compound's first argument — the shape of skolem identities like
//!   `id(Z, Y)` with `Z` bound, ubiquitous in translated C-logic.
//!
//! Every table is a flat hash-to-row-chain table (the `chain` module): a
//! row costs one link per table, never a heap allocation of its own.
//!
//! **Base and tail.** A relation is a frozen *base* segment behind an
//! [`Arc`] plus a small owned *tail* that receives inserts. Row ids run
//! through the base and on into the tail. Cloning a relation — the
//! snapshot copy-on-write path — copies the tail and shares the base,
//! so a write that clones the saturated model pays for its delta, not
//! for the model. Indices are built lazily per segment and cover its
//! rows up to a watermark: an index built on a base is built once and
//! serves the writer and every snapshot that shares the base, and a
//! tail index is extended in place as rows are appended, never rebuilt.
//!
//! **Dead rows.** Retraction ([`Relation::remove_rows`], reached through
//! [`FactStore::remove_all`]) marks rows dead in a small owned list
//! instead of moving anything: row ids never move, so no index goes
//! stale, and every probe skips dead rows. Inserting a tuple whose only
//! copies are dead appends it as a new row.
//!
//! **Folds.** [`FactStore::fold`] moves the tails into the bases and
//! drops dead rows; the owner calls it once tails and dead rows pass
//! [`FOLD_BOUND`], at the end of an evaluation, when no semi-naive
//! frontier holds row ids. A fold appends in place when no clone shares
//! the base and copies the base otherwise; dropping dead base rows
//! renumbers the rows, and that fold renumbers the base's indices too,
//! so no probe rebuilds them.

use crate::chain::{Chains, FxHasher, RowGroups, NIL};
use crate::ground::{GroundTerm, TermId, TermStore};
use crate::rterm::{RTerm, VarId};
use clogic_core::symbol::Symbol;
use std::collections::HashMap;
use std::hash::{Hash, Hasher};
use std::ops::Range;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, PoisonError, RwLock};

/// How many tail rows, dead rows and tail terms an evaluation carries
/// before it folds them into its bases. A clone of a store copies at
/// most this much; a fold copies a shared base once per this many rows
/// of churn.
pub const FOLD_BOUND: usize = 1024;

/// An index key derived from a partially bound pattern position.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum IndexKey {
    /// The position's full value is known.
    Exact(u32, TermId),
    /// The position holds a compound with this principal functor whose
    /// first argument is known — the shape of skolem identities like
    /// `id(Z, Y)` with `Z` bound, ubiquitous in translated C-logic.
    Sub(u32, Symbol, TermId),
}

/// Whether stores answer `candidate_rows` from pattern indices or by
/// scanning. `Scan` exists for baseline benchmarking and for the
/// indexed-≡-scan equivalence tests; it is never faster.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum IndexMode {
    /// Build and probe lazy pattern indices (the default).
    #[default]
    Indexed,
    /// Ignore indices; every probe enumerates its whole row range.
    Scan,
}

/// A point-in-time reading of the index counters, for metrics deltas.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct IndexStats {
    /// Segment pattern indices constructed for the first time.
    pub builds: u64,
    /// Existing segment pattern indices caught up with rows appended
    /// since their last probe (the delta-iteration reuse path).
    pub extends: u64,
    /// Probes answered from an index.
    pub hits: u64,
    /// Probes with no derivable key that fell back to a range scan.
    pub misses: u64,
}

/// Shared index counters: atomics so concurrent snapshot readers can
/// account probes through `&self`.
#[derive(Debug, Default)]
struct IndexCounters {
    builds: AtomicU64,
    extends: AtomicU64,
    hits: AtomicU64,
    misses: AtomicU64,
}

impl IndexCounters {
    fn snapshot(&self) -> IndexStats {
        IndexStats {
            builds: self.builds.load(Ordering::Relaxed),
            extends: self.extends.load(Ordering::Relaxed),
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
        }
    }

    fn bump(counter: &AtomicU64) {
        counter.fetch_add(1, Ordering::Relaxed);
    }
}

impl Clone for IndexCounters {
    fn clone(&self) -> IndexCounters {
        let s = self.snapshot();
        IndexCounters {
            builds: AtomicU64::new(s.builds),
            extends: AtomicU64::new(s.extends),
            hits: AtomicU64::new(s.hits),
            misses: AtomicU64::new(s.misses),
        }
    }
}

/// The hash every table here files a tuple or projection under.
#[inline]
fn hash_ids(ids: impl Iterator<Item = TermId>) -> u64 {
    let mut h = FxHasher::default();
    for id in ids {
        id.hash(&mut h);
    }
    h.finish()
}

/// The first argument of `id` when it is a compound with functor `f`.
#[inline]
fn sub_key(store: &TermStore, id: TermId, f: Symbol) -> Option<TermId> {
    match store.get(id) {
        GroundTerm::App(g, args) if g == f => args.first().copied(),
        _ => None,
    }
}

/// Lazily built pattern indices of one segment, keyed by what they
/// index. Behind a lock so that readers sharing the segment build them
/// through `&self`.
type Indices<K> = RwLock<HashMap<K, RowGroups>>;

/// A run of consecutive rows of one relation: rows `offset..offset +
/// len` of the relation, where `offset` is 0 for the base and the
/// base's length for the tail. Row ids inside a segment are local.
#[derive(Debug, Default)]
struct Segment {
    arity: usize,
    /// Number of rows. Kept explicitly so zero-arity relations (the
    /// magic-set seed `m__q__()` is one) still count rows.
    len: u32,
    /// Row-major tuple arena: row `r` is `flat[r·arity .. (r+1)·arity]`.
    flat: Vec<TermId>,
    /// Dedup table over rows, filed by tuple hash.
    dedup: Chains,
    /// Exact indices, keyed by the bitmask of projected positions.
    exact: Indices<u64>,
    /// Sub-term indices, keyed by `(position, functor)`.
    sub: Indices<(u32, Symbol)>,
}

impl Clone for Segment {
    /// Cloning (the fold of a shared base) carries built indices along.
    fn clone(&self) -> Segment {
        let exact = self.exact.read().unwrap_or_else(PoisonError::into_inner);
        let sub = self.sub.read().unwrap_or_else(PoisonError::into_inner);
        Segment {
            arity: self.arity,
            len: self.len,
            flat: self.flat.clone(),
            dedup: self.dedup.clone(),
            exact: RwLock::new(exact.clone()),
            sub: RwLock::new(sub.clone()),
        }
    }
}

impl Segment {
    fn new(arity: usize) -> Segment {
        Segment {
            arity,
            ..Segment::default()
        }
    }

    #[inline]
    fn tuple(&self, local: u32) -> &[TermId] {
        let start = local as usize * self.arity;
        &self.flat[start..start + self.arity]
    }

    /// Appends a row filed under `hash`, its tuple's hash (the caller
    /// has ruled out a live duplicate).
    fn push(&mut self, tuple: &[TermId], hash: u64) {
        self.dedup.push(hash);
        self.flat.extend_from_slice(tuple);
        self.len += 1;
    }

    /// The local rows holding `tuple`, newest first (dead copies
    /// included: the relation filters them).
    fn find<'a>(&'a self, tuple: &'a [TermId], hash: u64) -> impl Iterator<Item = u32> + 'a {
        self.dedup
            .candidates(hash)
            .filter(move |&r| self.tuple(r) == tuple)
    }

    /// Probes one lazily built index: builds it on first use, files rows
    /// appended since its last probe, then appends the rows of the group
    /// `read` selects.
    fn probe<K: Copy + Eq + Hash>(
        &self,
        indices: &Indices<K>,
        key: K,
        counters: &IndexCounters,
        mut file: impl FnMut(&mut RowGroups),
        read: impl FnOnce(&RowGroups),
    ) {
        {
            let guard = indices.read().unwrap_or_else(PoisonError::into_inner);
            if let Some(idx) = guard.get(&key) {
                if idx.covered == self.len {
                    read(idx);
                    return;
                }
            }
        }
        let mut guard = indices.write().unwrap_or_else(PoisonError::into_inner);
        let idx = guard.entry(key).or_insert_with(|| {
            IndexCounters::bump(&counters.builds);
            RowGroups::default()
        });
        if idx.covered < self.len {
            if idx.covered > 0 {
                IndexCounters::bump(&counters.extends);
            }
            while idx.covered < self.len {
                file(idx);
            }
        }
        read(idx);
    }

    /// Rows in `range` (local) whose projection onto `positions` (the
    /// set bits of `mask`) equals `proj`, appended to `out` plus
    /// `offset`.
    #[allow(clippy::too_many_arguments)]
    fn probe_exact(
        &self,
        mask: u64,
        positions: &[usize],
        proj: &[TermId],
        range: Range<u32>,
        offset: u32,
        counters: &IndexCounters,
        out: &mut Vec<u32>,
    ) {
        let project = |r: u32| {
            let t = self.tuple(r);
            positions.iter().map(move |&p| t[p])
        };
        let hash = hash_ids(proj.iter().copied());
        self.probe(
            &self.exact,
            mask,
            counters,
            |idx| {
                let row = idx.covered;
                idx.file(Some(hash_ids(project(row))), |a, b| {
                    project(a).eq(project(b))
                })
            },
            |idx| {
                idx.rows_into(
                    hash,
                    |first| project(first).eq(proj.iter().copied()),
                    range.clone(),
                    offset,
                    out,
                )
            },
        );
    }

    /// Rows in `range` (local) whose value at `pos` is `f(first, …)`,
    /// appended to `out` plus `offset`.
    fn probe_sub(
        &self,
        (pos, f, first): (usize, Symbol, TermId),
        store: &TermStore,
        range: Range<u32>,
        offset: u32,
        counters: &IndexCounters,
        out: &mut Vec<u32>,
    ) {
        let key_of = |r: u32| sub_key(store, self.tuple(r)[pos], f);
        let hash = hash_ids(std::iter::once(first));
        self.probe(
            &self.sub,
            (pos as u32, f),
            counters,
            |idx| {
                let key = key_of(idx.covered);
                idx.file(key.map(|k| hash_ids(std::iter::once(k))), |a, b| {
                    key_of(a) == key_of(b)
                })
            },
            |idx| {
                idx.rows_into(
                    hash,
                    |r| key_of(r) == Some(first),
                    range.clone(),
                    offset,
                    out,
                )
            },
        );
    }
}

/// Restricts `range` to one segment's rows `offset..offset + len`, in
/// local ids.
fn local(range: &Range<u32>, offset: u32, len: u32) -> Range<u32> {
    let start = range.start.saturating_sub(offset).min(len);
    let end = range.end.saturating_sub(offset).min(len);
    start..end
}

/// A relation: the tuple set of one predicate, stored columnar-style as
/// a flat row-major arena of interned term handles — a shared base
/// segment plus an owned tail (see the module docs).
#[derive(Clone, Debug)]
pub struct Relation {
    base: Arc<Segment>,
    tail: Segment,
    /// Dead rows, ascending. Bounded by the fold, so small.
    dead: Vec<u32>,
    /// Live rows.
    live: u32,
    /// Probe accounting, surfaced as `folog.index.*` metrics.
    counters: IndexCounters,
    /// Epoch (set by the owning [`FactStore`]) at which this relation
    /// last grew or lost rows.
    stamp: u64,
}

impl Default for Relation {
    fn default() -> Relation {
        Relation::with_arity(0)
    }
}

impl Relation {
    fn with_arity(arity: usize) -> Relation {
        Relation {
            base: Arc::new(Segment::new(arity)),
            tail: Segment::new(arity),
            dead: Vec::new(),
            live: 0,
            counters: IndexCounters::default(),
            stamp: 0,
        }
    }

    /// Number of live tuples.
    pub fn len(&self) -> usize {
        self.live as usize
    }

    /// True iff no tuple is live.
    pub fn is_empty(&self) -> bool {
        self.live == 0
    }

    /// One past the highest row id: dead rows keep their ids, so row
    /// ranges (semi-naive frontiers) run up to this, not to
    /// [`Relation::len`].
    pub fn row_end(&self) -> u32 {
        self.base.len + self.tail.len
    }

    /// Tail rows plus dead rows: what a clone of this relation copies.
    pub fn tail_rows(&self) -> usize {
        self.tail.len as usize + self.dead.len()
    }

    /// The epoch at which this relation last changed (0 until touched
    /// inside an epoch-stamped store).
    pub fn stamp(&self) -> u64 {
        self.stamp
    }

    /// Inserts a tuple; returns true when it was new. A tuple whose
    /// only copies are dead is appended as a new row. Insertion is
    /// index-free: pattern indices are built on first probe and caught
    /// up lazily, so bulk loads pay only the arena append and a hash
    /// chain check. The store parameter is kept for call-site
    /// stability; dedup does not consult it.
    pub fn insert(&mut self, tuple: Vec<TermId>, _store: &TermStore) -> bool {
        if self.row_end() == 0 && tuple.len() != self.base.arity {
            let counters = std::mem::take(&mut self.counters);
            *self = Relation {
                counters,
                stamp: self.stamp,
                ..Relation::with_arity(tuple.len())
            };
        }
        debug_assert_eq!(tuple.len(), self.base.arity, "arity fixed per relation");
        let hash = hash_ids(tuple.iter().copied());
        if self.live_row(&tuple, hash).is_some() {
            return false;
        }
        self.tail.push(&tuple, hash);
        self.live += 1;
        true
    }

    /// Membership test (live rows only).
    pub fn contains(&self, tuple: &[TermId]) -> bool {
        self.row_of(tuple).is_some()
    }

    /// The row id of `tuple`'s live copy, if any.
    pub fn row_of(&self, tuple: &[TermId]) -> Option<u32> {
        if tuple.len() != self.base.arity {
            return None;
        }
        self.live_row(tuple, hash_ids(tuple.iter().copied()))
    }

    fn live_row(&self, tuple: &[TermId], hash: u64) -> Option<u32> {
        let b = self.base.len;
        self.base
            .find(tuple, hash)
            .chain(self.tail.find(tuple, hash).map(|l| l + b))
            .find(|&r| !self.is_dead(r))
    }

    #[inline]
    fn is_dead(&self, row: u32) -> bool {
        !self.dead.is_empty() && self.dead.binary_search(&row).is_ok()
    }

    /// Marks the given rows dead (any order; duplicates, dead rows and
    /// out-of-range ids ignored). Nothing moves: row ids stay put and
    /// every index stays valid, while probes, scans and membership
    /// tests skip the rows from now on. Returns how many rows died.
    pub fn remove_rows(&mut self, rows: &[u32]) -> usize {
        let end = self.row_end();
        let mut doomed: Vec<u32> = rows
            .iter()
            .copied()
            .filter(|&r| r < end && !self.is_dead(r))
            .collect();
        doomed.sort_unstable();
        doomed.dedup();
        if !doomed.is_empty() {
            self.dead.extend_from_slice(&doomed);
            self.dead.sort_unstable();
            self.live -= doomed.len() as u32;
        }
        doomed.len()
    }

    /// The tuple at `row` (live or dead).
    #[inline]
    pub fn tuple(&self, row: u32) -> &[TermId] {
        let b = self.base.len;
        if row < b {
            self.base.tuple(row)
        } else {
            self.tail.tuple(row - b)
        }
    }

    /// The live rows in `range`, ascending.
    fn live_rows(&self, range: Range<u32>) -> impl Iterator<Item = u32> + '_ {
        let mut d = self.dead.partition_point(|&r| r < range.start);
        range.filter(move |&r| {
            while d < self.dead.len() && self.dead[d] < r {
                d += 1;
            }
            self.dead.get(d) != Some(&r)
        })
    }

    /// All live tuples, in insertion order.
    pub fn tuples(&self) -> impl Iterator<Item = &[TermId]> {
        self.live_rows(0..self.row_end()).map(|r| self.tuple(r))
    }

    /// A point-in-time reading of this relation's index counters.
    pub fn index_stats(&self) -> IndexStats {
        self.counters.snapshot()
    }

    /// Rows whose `pos`-th component equals `v` (index-probing; builds
    /// the single-position index on first use).
    pub fn rows_with(&self, pos: u32, v: TermId, store: &TermStore) -> Vec<u32> {
        self.candidate_rows(
            &[IndexKey::Exact(pos, v)],
            0..self.row_end(),
            store,
            IndexMode::Indexed,
        )
    }

    /// Rows matching an index key (index-probing).
    pub fn rows_for(&self, key: IndexKey, store: &TermStore) -> Vec<u32> {
        self.candidate_rows(&[key], 0..self.row_end(), store, IndexMode::Indexed)
    }

    /// Live candidate rows within `range` for a partially bound pattern,
    /// ascending.
    ///
    /// All `Exact` keys are combined into one multi-position projection
    /// probe (maximal selectivity among the hash indices); with no
    /// exact key the first `Sub` key is probed; with no keys at all —
    /// or in [`IndexMode::Scan`] — the whole range is enumerated.
    /// Candidates are a superset filter: callers still unify the
    /// pattern against each returned row, so sub-key probes (which
    /// pin only functor and first argument) stay sound.
    pub fn candidate_rows(
        &self,
        keys: &[IndexKey],
        range: Range<u32>,
        store: &TermStore,
        mode: IndexMode,
    ) -> Vec<u32> {
        let range = range.start..range.end.min(self.row_end());
        if mode == IndexMode::Scan {
            return self.live_rows(range).collect();
        }
        // Positions past 63 don't fit the bitmask; such arities don't
        // occur in practice, and dropping the key is merely less
        // selective, never wrong.
        let mut exact: Vec<(u32, TermId)> = keys
            .iter()
            .filter_map(|k| match *k {
                IndexKey::Exact(pos, v) if pos < 64 => Some((pos, v)),
                _ => None,
            })
            .collect();
        let sub = keys.iter().find_map(|k| match *k {
            IndexKey::Sub(pos, f, first) => Some((pos as usize, f, first)),
            IndexKey::Exact(..) => None,
        });
        if exact.is_empty() && sub.is_none() {
            IndexCounters::bump(&self.counters.misses);
            return self.live_rows(range).collect();
        }
        exact.sort_unstable_by_key(|&(pos, _)| pos);
        let mask = exact.iter().fold(0u64, |m, &(pos, _)| m | (1 << pos));
        let positions: Vec<usize> = exact.iter().map(|&(pos, _)| pos as usize).collect();
        let proj: Vec<TermId> = exact.iter().map(|&(_, v)| v).collect();
        let mut out = Vec::new();
        for (seg, offset) in [(&*self.base, 0), (&self.tail, self.base.len)] {
            let range = local(&range, offset, seg.len);
            if range.is_empty() {
                continue;
            }
            match sub {
                Some(key) if exact.is_empty() => {
                    seg.probe_sub(key, store, range, offset, &self.counters, &mut out)
                }
                _ => seg.probe_exact(
                    mask,
                    &positions,
                    &proj,
                    range,
                    offset,
                    &self.counters,
                    &mut out,
                ),
            }
        }
        IndexCounters::bump(&self.counters.hits);
        if !self.dead.is_empty() {
            // A binary search per candidate: a probe returns few rows,
            // and walking the dead list up to them would cost O(dead).
            out.retain(|&r| !self.is_dead(r));
        }
        out
    }

    /// Moves the tail into the base and drops dead rows. With no dead
    /// base row the tail's live rows are appended to the base — in
    /// place when no clone shares it, else onto a copy — and the base's
    /// indices stay valid; otherwise the live rows are copied into a
    /// fresh base, which takes the old base's indices renumbered.
    pub fn fold(&mut self) {
        let arity = self.base.arity;
        let b = self.base.len;
        let tail = std::mem::replace(&mut self.tail, Segment::new(arity));
        let dead = std::mem::take(&mut self.dead);
        if b == 0 && dead.is_empty() {
            self.base = Arc::new(tail);
            return;
        }
        let live = |r: u32| dead.binary_search(&r).is_err();
        if dead.first().is_none_or(|&r| r >= b) {
            let base = Arc::make_mut(&mut self.base);
            for l in (0..tail.len).filter(|&l| live(b + l)) {
                base.push(tail.tuple(l), tail.dedup.hash(l));
            }
        } else {
            let mut seg = Segment::new(arity);
            // Old base row → its row in the new base, or NIL if dead.
            let mut renumber = Vec::with_capacity(b as usize);
            for r in 0..b {
                if live(r) {
                    renumber.push(seg.len);
                    seg.push(self.base.tuple(r), self.base.dedup.hash(r));
                } else {
                    renumber.push(NIL);
                }
            }
            for l in (0..tail.len).filter(|&l| live(b + l)) {
                seg.push(tail.tuple(l), tail.dedup.hash(l));
            }
            // The old base's indices carry over renumbered, so no probe
            // rebuilds them; rows past their watermark are filed lazily.
            let old = &self.base;
            seg.exact = RwLock::new(renumbered(&old.exact, &renumber));
            seg.sub = RwLock::new(renumbered(&old.sub, &renumber));
            self.base = Arc::new(seg);
        }
    }
}

/// A segment's indices with every row renumbered through `renumber`
/// (see [`RowGroups::renumbered`]).
fn renumbered<K: Copy + Eq + Hash>(indices: &Indices<K>, renumber: &[u32]) -> HashMap<K, RowGroups> {
    let guard = indices.read().unwrap_or_else(PoisonError::into_inner);
    guard
        .iter()
        .map(|(&k, idx)| (k, idx.renumbered(renumber)))
        .collect()
}

/// The fact store: one relation per `(predicate, arity)`.
#[derive(Clone, Debug, Default)]
pub struct FactStore {
    relations: HashMap<(Symbol, usize), Relation>,
    /// Total number of stored (live) tuples.
    pub total: usize,
    /// Current epoch; every insert stamps its relation with this value.
    epoch: u64,
    /// How `candidate_rows` answers: indexed (default) or scanning.
    index_mode: IndexMode,
}

impl FactStore {
    /// An empty store.
    pub fn new() -> FactStore {
        FactStore::default()
    }

    /// The store's current epoch.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Advances the store to `epoch`. Relations changed from now on
    /// carry this stamp; existing tuples and index watermarks are
    /// untouched, so a resumed fixpoint extends them in place instead
    /// of rebuilding.
    pub fn set_epoch(&mut self, epoch: u64) {
        self.epoch = epoch;
    }

    /// The active [`IndexMode`].
    pub fn index_mode(&self) -> IndexMode {
        self.index_mode
    }

    /// Switches between indexed probing and the scan baseline.
    pub fn set_index_mode(&mut self, mode: IndexMode) {
        self.index_mode = mode;
    }

    /// Index counters summed over every relation.
    pub fn index_stats(&self) -> IndexStats {
        let mut out = IndexStats::default();
        for rel in self.relations.values() {
            let s = rel.index_stats();
            out.builds += s.builds;
            out.extends += s.extends;
            out.hits += s.hits;
            out.misses += s.misses;
        }
        out
    }

    /// Every relation's [`Relation::row_end`], used to seed a resumed
    /// semi-naive run: rows appended after the snapshot form the delta
    /// frontier.
    pub fn lens(&self) -> HashMap<(Symbol, usize), u32> {
        self.relations
            .iter()
            .map(|(&k, r)| (k, r.row_end()))
            .collect()
    }

    /// Tail rows plus dead rows over every relation: what a clone of
    /// this store copies.
    pub fn tail_rows(&self) -> usize {
        self.relations.values().map(Relation::tail_rows).sum()
    }

    /// Folds every relation's tail and dead rows into its base (see
    /// [`Relation::fold`]). Row ids change, so no frontier may be live.
    pub fn fold(&mut self) {
        for rel in self.relations.values_mut() {
            if rel.tail_rows() > 0 {
                rel.fold();
            }
        }
    }

    /// Inserts a fact; returns true when new.
    pub fn insert(&mut self, pred: Symbol, tuple: Vec<TermId>, store: &TermStore) -> bool {
        let arity = tuple.len();
        let epoch = self.epoch;
        let rel = self
            .relations
            .entry((pred, arity))
            .or_insert_with(|| Relation::with_arity(arity));
        let fresh = rel.insert(tuple, store);
        if fresh {
            rel.stamp = epoch;
            self.total += 1;
        }
        fresh
    }

    /// Removes one fact; returns true when it was present.
    pub fn remove(&mut self, pred: Symbol, tuple: &[TermId]) -> bool {
        self.remove_all(&[(pred, tuple.to_vec())]) == 1
    }

    /// Batch removal: marks each stored fact's row dead (see
    /// [`Relation::remove_rows`]). Facts not present are ignored;
    /// returns how many were removed. Relations left without a live row
    /// are dropped from the store so `predicates()` keeps meaning
    /// "pairs with tuples".
    pub fn remove_all(&mut self, facts: &[(Symbol, Vec<TermId>)]) -> usize {
        let mut doomed: HashMap<(Symbol, usize), Vec<u32>> = HashMap::new();
        for (pred, tuple) in facts {
            let key = (*pred, tuple.len());
            if let Some(row) = self.relations.get(&key).and_then(|r| r.row_of(tuple)) {
                doomed.entry(key).or_default().push(row);
            }
        }
        let epoch = self.epoch;
        let mut removed = 0;
        for (key, rows) in doomed {
            let rel = self
                .relations
                .get_mut(&key)
                .expect("relation looked up above");
            let k = rel.remove_rows(&rows);
            rel.stamp = epoch;
            removed += k;
            self.total -= k;
            if rel.is_empty() {
                self.relations.remove(&key);
            }
        }
        removed
    }

    /// The relation of a predicate, if any tuples exist.
    pub fn relation(&self, pred: Symbol, arity: usize) -> Option<&Relation> {
        self.relations.get(&(pred, arity))
    }

    /// Membership test.
    pub fn contains(&self, pred: Symbol, tuple: &[TermId]) -> bool {
        self.relations
            .get(&(pred, tuple.len()))
            .is_some_and(|r| r.contains(tuple))
    }

    /// All `(predicate, arity)` pairs with tuples.
    pub fn predicates(&self) -> Vec<(Symbol, usize)> {
        let mut out: Vec<(Symbol, usize)> = self.relations.keys().copied().collect();
        out.sort();
        out
    }

    /// Renders the whole store, sorted, for golden tests.
    pub fn display(&self, store: &TermStore) -> Vec<String> {
        let mut out = Vec::with_capacity(self.total);
        for (&(pred, _), rel) in &self.relations {
            for t in rel.tuples() {
                let args: Vec<String> = t.iter().map(|&a| store.display(a)).collect();
                out.push(format!("{}({})", pred, args.join(", ")));
            }
        }
        out.sort();
        out
    }
}

/// A pattern environment: rule-local variable bindings to ground terms.
pub type Env = Vec<Option<TermId>>;

/// Matches a pattern term against a ground term, extending `env`.
/// Returns false (with `env` possibly partially extended — callers
/// snapshot/restore via the trail mark and [`trail_undo`]) on mismatch.
pub fn match_term(
    pat: &RTerm,
    data: TermId,
    store: &TermStore,
    env: &mut Env,
    trail: &mut Vec<VarId>,
) -> bool {
    match pat {
        RTerm::Var(v) => {
            let slot = *v as usize;
            if slot >= env.len() {
                env.resize(slot + 1, None);
            }
            match env[slot] {
                Some(bound) => bound == data,
                None => {
                    env[slot] = Some(data);
                    trail.push(*v);
                    true
                }
            }
        }
        RTerm::Const(c) => store.get(data) == GroundTerm::Const(*c),
        RTerm::App(f, args) => match store.get(data) {
            GroundTerm::App(g, data_args) if g == *f && data_args.len() == args.len() => args
                .iter()
                .zip(data_args)
                .all(|(p, &d)| match_term(p, d, store, env, trail)),
            _ => false,
        },
    }
}

/// Undoes all env bindings recorded on the trail past `mark`.
pub fn trail_undo(env: &mut Env, trail: &mut Vec<VarId>, mark: usize) {
    while trail.len() > mark {
        let v = trail.pop().expect("non-empty");
        env[v as usize] = None;
    }
}

/// Instantiates a pattern under an env, interning any new ground
/// structure. Returns `None` if an unbound variable remains.
pub fn instantiate(pat: &RTerm, env: &Env, store: &mut TermStore) -> Option<TermId> {
    match pat {
        RTerm::Var(v) => env.get(*v as usize).copied().flatten(),
        RTerm::Const(c) => Some(store.intern_const(*c)),
        RTerm::App(f, args) => {
            let ids = ground_args(args, |a| instantiate(a, env, store))?;
            Some(store.intern_app(*f, &ids))
        }
    }
}

/// A compound's argument ids, `None` as soon as one is missing.
fn ground_args(
    args: &[RTerm],
    mut ground: impl FnMut(&RTerm) -> Option<TermId>,
) -> Option<Vec<TermId>> {
    let mut ids = Vec::with_capacity(args.len());
    for a in args {
        ids.push(ground(a)?);
    }
    Some(ids)
}

/// The index keys derivable from a pattern atom under an env: exact keys
/// for fully instantiable positions, sub-keys for compound patterns whose
/// first argument is instantiable (e.g. `id(Z, Y)` with `Z` bound).
pub fn bound_positions(args: &[RTerm], env: &Env, store: &TermStore) -> Vec<IndexKey> {
    let mut out = Vec::new();
    for (i, a) in args.iter().enumerate() {
        if let Some(id) = peek_ground(a, env, store) {
            out.push(IndexKey::Exact(i as u32, id));
        } else if let RTerm::App(f, sub) = a {
            if let Some(first) = sub.first().and_then(|x| peek_ground(x, env, store)) {
                out.push(IndexKey::Sub(i as u32, *f, first));
            }
        }
    }
    out
}

/// Like [`instantiate`] but read-only: succeeds only when every piece of
/// the pattern is already interned.
fn peek_ground(pat: &RTerm, env: &Env, store: &TermStore) -> Option<TermId> {
    match pat {
        RTerm::Var(v) => env.get(*v as usize).copied().flatten(),
        RTerm::Const(c) => store.lookup(GroundTerm::Const(*c)),
        RTerm::App(f, args) => {
            let ids = ground_args(args, |a| peek_ground(a, env, store))?;
            store.lookup(GroundTerm::App(*f, &ids))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use clogic_core::symbol::sym;
    use clogic_core::term::Const;

    fn setup() -> (TermStore, TermId, TermId, TermId) {
        let mut st = TermStore::new();
        let a = st.intern_const(Const::Sym(sym("a")));
        let b = st.intern_const(Const::Sym(sym("b")));
        let c = st.intern_const(Const::Sym(sym("c")));
        (st, a, b, c)
    }

    #[test]
    fn relation_insert_dedup_and_index() {
        let (st, a, b, c) = setup();
        let mut r = Relation::default();
        assert!(r.insert(vec![a, b], &st));
        assert!(!r.insert(vec![a, b], &st));
        assert!(r.insert(vec![a, c], &st));
        assert_eq!(r.len(), 2);
        assert!(r.contains(&[a, b]));
        assert!(!r.contains(&[b, a]));
        assert_eq!(r.rows_with(0, a, &st), vec![0, 1]);
        assert_eq!(r.rows_with(1, c, &st), vec![1]);
        assert_eq!(r.rows_with(1, a, &st), Vec::<u32>::new());
    }

    #[test]
    fn zero_arity_relation_counts_rows() {
        let (st, _, _, _) = setup();
        let mut r = Relation::default();
        assert!(r.insert(vec![], &st));
        assert!(!r.insert(vec![], &st));
        assert_eq!(r.len(), 1);
        assert!(r.contains(&[]));
        assert_eq!(r.tuples().count(), 1);
        assert_eq!(
            r.candidate_rows(&[], 0..1, &st, IndexMode::Indexed),
            vec![0]
        );
    }

    #[test]
    fn candidate_rows_combine_exact_keys() {
        let (st, a, b, c) = setup();
        let mut r = Relation::default();
        r.insert(vec![a, b], &st);
        r.insert(vec![a, c], &st);
        r.insert(vec![b, c], &st);
        // both bound: the multi-position projection pins the exact row
        let both = r.candidate_rows(
            &[IndexKey::Exact(0, a), IndexKey::Exact(1, c)],
            0..3,
            &st,
            IndexMode::Indexed,
        );
        assert_eq!(both, vec![1]);
        // no bound positions: whole range
        assert_eq!(
            r.candidate_rows(&[], 1..3, &st, IndexMode::Indexed),
            vec![1, 2]
        );
        // range filters delta scans
        assert_eq!(
            r.candidate_rows(&[IndexKey::Exact(0, a)], 1..3, &st, IndexMode::Indexed),
            vec![1]
        );
        // scan mode ignores keys entirely
        assert_eq!(
            r.candidate_rows(&[IndexKey::Exact(0, a)], 0..3, &st, IndexMode::Scan),
            vec![0, 1, 2]
        );
    }

    #[test]
    fn lazy_index_builds_once_then_extends() {
        let (st, a, b, c) = setup();
        let mut r = Relation::default();
        r.insert(vec![a, b], &st);
        r.insert(vec![a, c], &st);
        assert_eq!(r.index_stats(), IndexStats::default());
        // first probe builds
        assert_eq!(r.rows_with(0, a, &st), vec![0, 1]);
        let s1 = r.index_stats();
        assert_eq!((s1.builds, s1.extends, s1.hits), (1, 0, 1));
        // second probe with the same shape is a pure hit
        assert_eq!(r.rows_with(0, b, &st), Vec::<u32>::new());
        assert_eq!(r.index_stats().builds, 1);
        assert_eq!(r.index_stats().hits, 2);
        // appending rows leaves the index behind; the next probe
        // extends it in place rather than rebuilding
        r.insert(vec![b, c], &st);
        assert_eq!(r.rows_with(0, b, &st), vec![2]);
        let s2 = r.index_stats();
        assert_eq!((s2.builds, s2.extends), (1, 1));
        // keyless probes count as misses
        r.candidate_rows(&[], 0..3, &st, IndexMode::Indexed);
        assert_eq!(r.index_stats().misses, 1);
    }

    #[test]
    fn remove_rows_marks_dead_and_keeps_row_ids() {
        let (st, a, b, c) = setup();
        let mut r = Relation::default();
        r.insert(vec![a, b], &st);
        r.insert(vec![b, c], &st);
        r.insert(vec![a, c], &st);
        // Build an index, then kill the middle row.
        assert_eq!(r.rows_with(0, a, &st), vec![0, 2]);
        assert_eq!(r.remove_rows(&[1]), 1);
        assert_eq!((r.len(), r.row_end()), (2, 3));
        // Nothing moved: (a, c) is still row 2, and the index built
        // before the removal keeps serving without a rebuild.
        assert!(r.contains(&[a, c]));
        assert!(!r.contains(&[b, c]));
        assert_eq!(r.row_of(&[a, c]), Some(2));
        assert_eq!(r.rows_with(0, a, &st), vec![0, 2]);
        assert_eq!(r.index_stats().builds, 1);
        // Duplicates, dead rows and out-of-range row ids are ignored.
        assert_eq!(r.remove_rows(&[1, 7, 7, 9]), 0);
        assert_eq!(r.len(), 2);
    }

    #[test]
    fn dead_rows_never_come_back_from_probes() {
        let mut st = TermStore::new();
        let a = st.intern_const(Const::Sym(sym("a")));
        let b = st.intern_const(Const::Sym(sym("b")));
        let id_ab = st.intern_app(sym("id"), &[a, b]);
        let id_ba = st.intern_app(sym("id"), &[b, a]);
        let mut r = Relation::default();
        for t in [[a, id_ab], [a, id_ba], [b, id_ab], [b, id_ba]] {
            r.insert(t.to_vec(), &st);
        }
        r.fold(); // rows 0..4 in the base
        r.insert(vec![a, a], &st); // row 4 in the tail
        r.remove_rows(&[0, 3, 4]);
        let exact = [IndexKey::Exact(0, a)];
        let sub = [IndexKey::Sub(1, sym("id"), b)];
        for mode in [IndexMode::Indexed, IndexMode::Scan] {
            for keys in [&exact[..], &sub[..], &[]] {
                let rows = r.candidate_rows(keys, 0..5, &st, mode);
                assert!(
                    rows.iter().all(|row| ![0, 3, 4].contains(row)),
                    "{mode:?} {rows:?}"
                );
            }
        }
        assert_eq!(
            r.candidate_rows(&exact, 0..5, &st, IndexMode::Indexed),
            vec![1]
        );
        assert_eq!(
            r.candidate_rows(&sub, 0..5, &st, IndexMode::Indexed),
            vec![1]
        );
        assert_eq!(
            r.candidate_rows(&[], 0..5, &st, IndexMode::Scan),
            vec![1, 2]
        );
        let live: Vec<Vec<TermId>> = r.tuples().map(<[TermId]>::to_vec).collect();
        assert_eq!(live, vec![vec![a, id_ba], vec![b, id_ab]]);
    }

    #[test]
    fn reinserting_a_dead_tuple_appends_it() {
        let (st, a, b, c) = setup();
        let mut r = Relation::default();
        r.insert(vec![a, b], &st);
        r.insert(vec![b, c], &st);
        r.remove_rows(&[0]);
        assert!(!r.contains(&[a, b]));
        // DRed's rederive path: the tuple comes back as a new row, past
        // any frontier taken after the removal.
        assert!(r.insert(vec![a, b], &st));
        assert!(!r.insert(vec![a, b], &st));
        assert_eq!(r.row_of(&[a, b]), Some(2));
        assert_eq!((r.len(), r.row_end()), (2, 3));
        assert_eq!(r.rows_with(0, a, &st), vec![2]);
        // A fold drops the dead row and renumbers the rest in order.
        r.fold();
        assert_eq!((r.len(), r.row_end(), r.tail_rows()), (2, 2, 0));
        assert_eq!(r.row_of(&[b, c]), Some(0));
        assert_eq!(r.row_of(&[a, b]), Some(1));
        assert_eq!(r.rows_with(0, a, &st), vec![1]);
    }

    /// The store contract under copy-on-write: a clone keeps its rows
    /// and its answers while the original inserts, marks rows dead and
    /// folds; the clone copies only the tail and the dead list.
    #[test]
    fn clone_keeps_its_rows_while_the_original_changes() {
        let (st, a, b, c) = setup();
        let mut fs = FactStore::new();
        for t in [[a, b], [b, c], [c, a]] {
            fs.insert(sym("edge"), t.to_vec(), &st);
        }
        fs.fold();
        fs.insert(sym("edge"), vec![a, c], &st);
        fs.remove(sym("edge"), &[b, c]);
        assert_eq!(fs.tail_rows(), 2, "one tail row, one dead row");
        let edge = |fs: &FactStore| -> Vec<u32> {
            let r = fs.relation(sym("edge"), 2).unwrap();
            r.candidate_rows(
                &[IndexKey::Exact(0, a)],
                0..r.row_end(),
                &st,
                fs.index_mode(),
            )
        };
        assert_eq!(edge(&fs), vec![0, 3]);
        let pinned = fs.clone();
        let builds = |fs: &FactStore| fs.relation(sym("edge"), 2).unwrap().index_stats().builds;
        let built = builds(&fs);

        fs.remove(sym("edge"), &[a, b]);
        fs.insert(sym("edge"), vec![b, b], &st);
        fs.fold(); // drops dead base rows: a fresh, renumbered base
        fs.insert(sym("edge"), vec![a, a], &st);
        assert_eq!(fs.total, 4);
        assert!(!fs.contains(sym("edge"), &[a, b]));
        assert_eq!(edge(&fs), vec![1, 3]);
        assert_eq!(builds(&fs), built + 1, "only the new tail's index is built");

        assert_eq!(pinned.total, 3);
        assert!(pinned.contains(sym("edge"), &[a, b]));
        assert!(!pinned.contains(sym("edge"), &[b, c]));
        assert!(!pinned.contains(sym("edge"), &[a, a]));
        assert_eq!(edge(&pinned), vec![0, 3]);
        assert_eq!(
            pinned.display(&st),
            vec!["edge(a, b)", "edge(a, c)", "edge(c, a)"]
        );
    }

    #[test]
    fn fact_store_remove_drops_empty_relations() {
        let (st, a, b, _) = setup();
        let mut fs = FactStore::new();
        fs.insert(sym("edge"), vec![a, b], &st);
        fs.insert(sym("node"), vec![a], &st);
        fs.insert(sym("node"), vec![b], &st);
        assert!(!fs.remove(sym("edge"), &[b, a]));
        assert!(fs.remove(sym("edge"), &[a, b]));
        assert_eq!(fs.total, 2);
        assert!(fs.relation(sym("edge"), 2).is_none());
        assert_eq!(fs.predicates(), vec![(sym("node"), 1)]);
        assert_eq!(
            fs.remove_all(&[
                (sym("node"), vec![a]),
                (sym("node"), vec![a]), // duplicate request, one row
                (sym("missing"), vec![b]),
            ]),
            1
        );
        assert_eq!(fs.total, 1);
        assert!(fs.contains(sym("node"), &[b]));
    }

    #[test]
    fn clone_preserves_built_indices() {
        let (st, a, b, c) = setup();
        let mut r = Relation::default();
        r.insert(vec![a, b], &st);
        r.insert(vec![a, c], &st);
        r.rows_with(0, a, &st);
        let clone = r.clone();
        assert_eq!(clone.rows_with(0, a, &st), vec![0, 1]);
        // the clone served from the carried-over index: no new build
        assert_eq!(clone.index_stats().builds, 1);
        assert_eq!(clone.index_stats().hits, 2);
    }

    #[test]
    fn sub_index_finds_compounds_by_first_argument() {
        let mut st = TermStore::new();
        let a = st.intern_const(Const::Sym(sym("a")));
        let b = st.intern_const(Const::Sym(sym("b")));
        let id_ab = st.intern_app(sym("id"), &[a, b]);
        let id_ba = st.intern_app(sym("id"), &[b, a]);
        let mut r = Relation::default();
        r.insert(vec![id_ab], &st);
        r.insert(vec![id_ba], &st);
        assert_eq!(r.rows_for(IndexKey::Sub(0, sym("id"), a), &st), vec![0]);
        assert_eq!(r.rows_for(IndexKey::Sub(0, sym("id"), b), &st), vec![1]);
        assert!(r.rows_for(IndexKey::Sub(0, sym("mk"), a), &st).is_empty());
        // bound_positions derives the sub key from a partial pattern
        let env: Env = vec![Some(a)];
        let pat = vec![RTerm::App(sym("id"), vec![RTerm::Var(0), RTerm::Var(1)])];
        let keys = bound_positions(&pat, &env, &st);
        assert_eq!(keys, vec![IndexKey::Sub(0, sym("id"), a)]);
    }

    #[test]
    fn fact_store_roundtrip() {
        let (st, a, b, _) = setup();
        let mut fs = FactStore::new();
        assert!(fs.insert(sym("edge"), vec![a, b], &st));
        assert!(!fs.insert(sym("edge"), vec![a, b], &st));
        assert!(fs.insert(sym("node"), vec![a], &st));
        assert_eq!(fs.total, 2);
        assert!(fs.contains(sym("edge"), &[a, b]));
        assert_eq!(fs.predicates(), vec![(sym("edge"), 2), (sym("node"), 1)]);
        assert_eq!(fs.display(&st), vec!["edge(a, b)", "node(a)"]);
    }

    #[test]
    fn fact_store_aggregates_index_stats() {
        let (st, a, b, _) = setup();
        let mut fs = FactStore::new();
        fs.insert(sym("edge"), vec![a, b], &st);
        fs.insert(sym("node"), vec![a], &st);
        assert_eq!(fs.index_mode(), IndexMode::Indexed);
        let e = fs.relation(sym("edge"), 2).unwrap();
        e.candidate_rows(&[IndexKey::Exact(0, a)], 0..1, &st, fs.index_mode());
        let n = fs.relation(sym("node"), 1).unwrap();
        n.candidate_rows(&[IndexKey::Exact(0, a)], 0..1, &st, fs.index_mode());
        let s = fs.index_stats();
        assert_eq!((s.builds, s.hits), (2, 2));
    }

    #[test]
    fn same_predicate_different_arities_are_distinct() {
        let (st, a, b, _) = setup();
        let mut fs = FactStore::new();
        fs.insert(sym("p"), vec![a], &st);
        fs.insert(sym("p"), vec![a, b], &st);
        assert_eq!(fs.relation(sym("p"), 1).unwrap().len(), 1);
        assert_eq!(fs.relation(sym("p"), 2).unwrap().len(), 1);
    }

    #[test]
    fn match_var_binds_and_checks() {
        let (st, a, b, _) = setup();
        let mut env: Env = Vec::new();
        let mut trail = Vec::new();
        assert!(match_term(&RTerm::Var(0), a, &st, &mut env, &mut trail));
        assert_eq!(env[0], Some(a));
        // bound variable must agree
        assert!(!match_term(&RTerm::Var(0), b, &st, &mut env, &mut trail));
        assert!(match_term(&RTerm::Var(0), a, &st, &mut env, &mut trail));
    }

    #[test]
    fn match_compound_and_trail_undo() {
        let mut st = TermStore::new();
        let a = st.intern_const(Const::Sym(sym("a")));
        let b = st.intern_const(Const::Sym(sym("b")));
        let fab = st.intern_app(sym("f"), &[a, b]);
        let mut env: Env = Vec::new();
        let mut trail = Vec::new();
        let mark = trail.len();
        let pat = RTerm::App(sym("f"), vec![RTerm::Var(0), RTerm::Var(1)]);
        assert!(match_term(&pat, fab, &st, &mut env, &mut trail));
        assert_eq!(env[0], Some(a));
        assert_eq!(env[1], Some(b));
        trail_undo(&mut env, &mut trail, mark);
        assert_eq!(env[0], None);
        assert_eq!(env[1], None);
        // functor mismatch
        let gpat = RTerm::App(sym("g"), vec![RTerm::Var(0), RTerm::Var(1)]);
        assert!(!match_term(&gpat, fab, &st, &mut env, &mut trail));
        // constant pattern against compound
        assert!(!match_term(
            &RTerm::Const(Const::Sym(sym("a"))),
            fab,
            &st,
            &mut env,
            &mut trail
        ));
    }

    #[test]
    fn instantiate_interns_new_structure() {
        let mut st = TermStore::new();
        let a = st.intern_const(Const::Sym(sym("a")));
        let env: Env = vec![Some(a)];
        let pat = RTerm::App(sym("id"), vec![RTerm::Var(0), RTerm::Const(Const::Int(1))]);
        let id = instantiate(&pat, &env, &mut st).unwrap();
        assert_eq!(st.display(id), "id(a, 1)");
        // unbound variable fails
        let pat2 = RTerm::Var(3);
        assert!(instantiate(&pat2, &env, &mut st).is_none());
    }

    #[test]
    fn bound_positions_sees_existing_terms_only() {
        let mut st = TermStore::new();
        let a = st.intern_const(Const::Sym(sym("a")));
        let env: Env = vec![Some(a)];
        let args = vec![
            RTerm::Var(0),                        // bound via env
            RTerm::Const(Const::Sym(sym("a"))),   // interned
            RTerm::Const(Const::Sym(sym("zzz"))), // never interned: can't match anything…
            RTerm::Var(9),                        // unbound
        ];
        let bp = bound_positions(&args, &env, &st);
        assert_eq!(bp, vec![IndexKey::Exact(0, a), IndexKey::Exact(1, a)]);
    }
}
