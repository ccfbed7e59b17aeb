//! The clustered object store: extensional complex-object facts merged
//! per identity.
//!
//! "For extensional databases, we may merge all information about an
//! object together" (§4): the store keeps, per ground object identity,
//! the set of asserted types and a multi-valued label map — the paper's
//! `path: p[src ⇒ {a, c}, dest ⇒ {b, d}]` form. Queries over the store
//! are description-ordering checks plus index lookups; the clustering the
//! user wrote down is preserved instead of being flattened into binary
//! relations.
//!
//! Identities are hash-consed in a `folog` [`TermStore`], so term graphs
//! share structure and identity comparison is integer equality.

use clogic_core::hierarchy::{object_type, TypeHierarchy};
use clogic_core::symbol::Symbol;
use folog::{TermId, TermStore};
use std::collections::{BTreeSet, HashMap};

/// The per-object record: asserted types plus multi-valued labels.
///
/// Labels are stored columnar-style (CSR layout): one flat interned
/// value arena grouped by label, with `starts` marking each label's run.
/// Records are small (a handful of labels), so the occasional mid-arena
/// insert is cheap, while `values` stays a contiguous slice per label —
/// no per-label allocation, no hash map per object.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct ObjectRecord {
    /// Types this object has been asserted (or derived) to have.
    pub types: BTreeSet<Symbol>,
    /// Distinct labels, sorted; parallel to `starts`.
    label_keys: Vec<Symbol>,
    /// CSR offsets: `label_keys[i]`'s values occupy
    /// `values[starts[i] as usize..starts[i + 1] as usize]`.
    starts: Vec<u32>,
    /// All label values, grouped by label, insertion-ordered within.
    values: Vec<TermId>,
}

impl ObjectRecord {
    /// Whether the record has a value `v` under `label`.
    pub fn has_label_value(&self, label: Symbol, v: TermId) -> bool {
        self.values(label).contains(&v)
    }

    /// The values under a label (insertion-ordered, deduplicated).
    pub fn values(&self, label: Symbol) -> &[TermId] {
        match self.label_keys.binary_search(&label) {
            Ok(i) => &self.values[self.starts[i] as usize..self.starts[i + 1] as usize],
            Err(_) => &[],
        }
    }

    /// Total number of label pairs.
    pub fn pair_count(&self) -> usize {
        self.values.len()
    }

    /// Labels with their value runs, in sorted label order.
    pub fn labels(&self) -> impl Iterator<Item = (Symbol, &[TermId])> {
        self.label_keys.iter().enumerate().map(|(i, &l)| {
            (
                l,
                &self.values[self.starts[i] as usize..self.starts[i + 1] as usize],
            )
        })
    }

    /// Adds a `(label, value)` pair. Returns `(new, first_for_label)`:
    /// whether the pair was new, and whether it is the first pair stored
    /// under `label` for this record.
    fn add_pair(&mut self, label: Symbol, value: TermId) -> (bool, bool) {
        if self.starts.is_empty() {
            self.starts.push(0);
        }
        match self.label_keys.binary_search(&label) {
            Ok(i) => {
                let (lo, hi) = (self.starts[i] as usize, self.starts[i + 1] as usize);
                if self.values[lo..hi].contains(&value) {
                    return (false, false);
                }
                self.values.insert(hi, value);
                for s in &mut self.starts[i + 1..] {
                    *s += 1;
                }
                (true, false)
            }
            Err(j) => {
                let off = self.starts[j];
                self.label_keys.insert(j, label);
                self.values.insert(off as usize, value);
                self.starts.insert(j + 1, off + 1);
                for s in &mut self.starts[j + 2..] {
                    *s += 1;
                }
                (true, true)
            }
        }
    }
}

/// The clustered store of ground complex objects.
#[derive(Clone, Debug, Default)]
pub struct ObjectStore {
    records: HashMap<TermId, ObjectRecord>,
    /// Insertion order of identities, for deterministic enumeration.
    order: Vec<TermId>,
    /// type → identities asserted with exactly that type symbol.
    by_type: HashMap<Symbol, Vec<TermId>>,
    /// (label, value) → identities carrying that pair.
    by_label_value: HashMap<(Symbol, TermId), Vec<TermId>>,
    /// label → identities carrying any pair with that label.
    by_label: HashMap<Symbol, Vec<TermId>>,
    /// Total label pairs stored.
    pub pair_count: usize,
    /// The load epoch currently being merged (see [`ObjectStore::set_epoch`]).
    epoch: u64,
    /// Epoch of the most recent successful insertion.
    last_growth: u64,
}

impl ObjectStore {
    /// An empty store.
    pub fn new() -> ObjectStore {
        ObjectStore::default()
    }

    /// Number of distinct objects.
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// True iff no objects.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// The record of an identity, if known.
    pub fn record(&self, id: TermId) -> Option<&ObjectRecord> {
        self.records.get(&id)
    }

    /// Sets the load epoch stamped onto subsequent insertions. Deltas are
    /// merged into the clustered store in place (indexes are appended to,
    /// not rebuilt); the stamp lets cumulative-loading callers tell which
    /// epoch last actually grew the store.
    pub fn set_epoch(&mut self, epoch: u64) {
        self.epoch = epoch;
    }

    /// The current load epoch.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// The epoch of the most recent insertion that added new information.
    pub fn last_growth(&self) -> u64 {
        self.last_growth
    }

    /// All identities, in insertion order.
    pub fn identities(&self) -> &[TermId] {
        &self.order
    }

    fn entry(&mut self, id: TermId) -> &mut ObjectRecord {
        if !self.records.contains_key(&id) {
            self.order.push(id);
        }
        self.records.entry(id).or_default()
    }

    /// Asserts `ty : id` (dynamic type membership). Returns true if new.
    pub fn add_type(&mut self, id: TermId, ty: Symbol) -> bool {
        let rec = self.entry(id);
        if rec.types.insert(ty) {
            self.by_type.entry(ty).or_default().push(id);
            self.last_growth = self.epoch;
            true
        } else {
            false
        }
    }

    /// Asserts `id[label ⇒ value]`. Returns true if new.
    pub fn add_label(&mut self, id: TermId, label: Symbol, value: TermId) -> bool {
        let rec = self.entry(id);
        let (new, first_for_label) = rec.add_pair(label, value);
        if !new {
            return false;
        }
        self.pair_count += 1;
        self.last_growth = self.epoch;
        self.by_label_value
            .entry((label, value))
            .or_default()
            .push(id);
        if first_for_label {
            self.by_label.entry(label).or_default().push(id);
        }
        true
    }

    /// Identities asserted with a type `τ' ≤ ty` (order-sorted lookup);
    /// for `object` this is every identity.
    pub fn with_type(&self, ty: Symbol, h: &TypeHierarchy) -> Vec<TermId> {
        if ty == object_type() {
            return self.order.clone();
        }
        let mut out: Vec<TermId> = Vec::new();
        for sub in h.subtypes(ty) {
            if let Some(ids) = self.by_type.get(&sub) {
                out.extend(ids.iter().copied());
            }
        }
        out.sort();
        out.dedup();
        out
    }

    /// Identities carrying the pair `(label, value)`.
    pub fn with_label_value(&self, label: Symbol, value: TermId) -> &[TermId] {
        self.by_label_value
            .get(&(label, value))
            .map(Vec::as_slice)
            .unwrap_or(&[])
    }

    /// Identities carrying any pair with `label`.
    pub fn with_label(&self, label: Symbol) -> &[TermId] {
        self.by_label.get(&label).map(Vec::as_slice).unwrap_or(&[])
    }

    /// Whether `id` has (dynamically) a type `τ' ≤ ty`.
    pub fn has_type(&self, id: TermId, ty: Symbol, h: &TypeHierarchy) -> bool {
        if ty == object_type() {
            return self.records.contains_key(&id);
        }
        self.records
            .get(&id)
            .is_some_and(|r| r.types.iter().any(|&t| h.is_subtype(t, ty)))
    }

    /// Renders the store in the paper's merged form, sorted by identity
    /// display (golden tests).
    pub fn display(&self, terms: &TermStore) -> Vec<String> {
        let mut out: Vec<String> = self
            .order
            .iter()
            .map(|&id| {
                let rec = &self.records[&id];
                let tys: Vec<&str> = rec.types.iter().map(|t| t.as_str()).collect();
                let mut labels: Vec<(String, Vec<String>)> = rec
                    .labels()
                    .map(|(l, vs)| {
                        let mut shown: Vec<String> = vs.iter().map(|&v| terms.display(v)).collect();
                        shown.sort();
                        (l.to_string(), shown)
                    })
                    .collect();
                labels.sort();
                let specs: Vec<String> = labels
                    .into_iter()
                    .map(|(l, vs)| {
                        if vs.len() == 1 {
                            format!("{l} => {}", vs[0])
                        } else {
                            format!("{l} => {{{}}}", vs.join(", "))
                        }
                    })
                    .collect();
                format!(
                    "{}: {}[{}]",
                    tys.join("&"),
                    terms.display(id),
                    specs.join(", ")
                )
            })
            .collect();
        out.sort();
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use clogic_core::symbol::sym;
    use clogic_core::term::Const;

    fn setup() -> (TermStore, ObjectStore) {
        (TermStore::new(), ObjectStore::new())
    }

    #[test]
    fn merge_accumulates_per_object() {
        // §4: path: p[src=>a, dest=>b]. path: p[src=>c, dest=>d].
        let (mut ts, mut os) = setup();
        let p = ts.intern_const(Const::Sym(sym("p")));
        let a = ts.intern_const(Const::Sym(sym("a")));
        let b = ts.intern_const(Const::Sym(sym("b")));
        let c = ts.intern_const(Const::Sym(sym("c")));
        let d = ts.intern_const(Const::Sym(sym("d")));
        os.add_type(p, sym("path"));
        assert!(os.add_label(p, sym("src"), a));
        assert!(os.add_label(p, sym("dest"), b));
        assert!(os.add_label(p, sym("src"), c));
        assert!(os.add_label(p, sym("dest"), d));
        assert!(!os.add_label(p, sym("src"), a)); // dedup
        assert_eq!(os.len(), 1);
        assert_eq!(os.pair_count, 4);
        let rec = os.record(p).unwrap();
        assert_eq!(rec.values(sym("src")), &[a, c]);
        assert!(rec.has_label_value(sym("dest"), d));
        assert!(!rec.has_label_value(sym("dest"), a));
        assert_eq!(rec.pair_count(), 4);
        assert_eq!(
            os.display(&ts),
            vec!["path: p[dest => {b, d}, src => {a, c}]"]
        );
    }

    #[test]
    fn type_indexes_and_hierarchy() {
        let (mut ts, mut os) = setup();
        let mut h = TypeHierarchy::new();
        h.declare(sym("student"), sym("person"));
        let ann = ts.intern_const(Const::Sym(sym("ann")));
        let bob = ts.intern_const(Const::Sym(sym("bob")));
        os.add_type(ann, sym("student"));
        os.add_type(bob, sym("person"));
        // order-sorted: students are persons
        assert_eq!(os.with_type(sym("person"), &h), {
            let mut v = vec![ann, bob];
            v.sort();
            v
        });
        assert_eq!(os.with_type(sym("student"), &h), vec![ann]);
        assert!(os.has_type(ann, sym("person"), &h));
        assert!(os.has_type(ann, sym("student"), &h));
        assert!(!os.has_type(bob, sym("student"), &h));
        // object type covers everything
        assert!(os.has_type(ann, object_type(), &h));
        assert_eq!(os.with_type(object_type(), &h).len(), 2);
    }

    #[test]
    fn label_value_index() {
        let (mut ts, mut os) = setup();
        let john = ts.intern_const(Const::Sym(sym("john")));
        let sue = ts.intern_const(Const::Sym(sym("sue")));
        let bob = ts.intern_const(Const::Sym(sym("bob")));
        os.add_label(john, sym("children"), bob);
        os.add_label(sue, sym("children"), bob);
        assert_eq!(os.with_label_value(sym("children"), bob), &[john, sue]);
        assert_eq!(os.with_label(sym("children")), &[john, sue]);
        assert!(os.with_label_value(sym("children"), john).is_empty());
        assert!(os.with_label(sym("spouse")).is_empty());
    }

    #[test]
    fn interleaved_labels_keep_contiguous_runs() {
        // CSR layout: values for a label stay a contiguous slice even when
        // pairs for different labels arrive interleaved.
        let (mut ts, mut os) = setup();
        let p = ts.intern_const(Const::Sym(sym("p")));
        let ids: Vec<TermId> = (0..6)
            .map(|i| ts.intern_const(Const::Sym(sym(&format!("v{i}")))))
            .collect();
        for (i, &v) in ids.iter().enumerate() {
            let label = if i % 2 == 0 { sym("even") } else { sym("odd") };
            assert!(os.add_label(p, label, v));
        }
        let rec = os.record(p).unwrap();
        assert_eq!(rec.values(sym("even")), &[ids[0], ids[2], ids[4]]);
        assert_eq!(rec.values(sym("odd")), &[ids[1], ids[3], ids[5]]);
        assert_eq!(rec.pair_count(), 6);
        assert_eq!(rec.labels().count(), 2);
        // by_label records the object once per label, not once per pair.
        assert_eq!(os.with_label(sym("even")), &[p]);
        assert_eq!(os.with_label(sym("odd")), &[p]);
    }

    #[test]
    fn unknown_identity() {
        let (mut ts, os) = setup();
        let h = TypeHierarchy::new();
        let x = ts.intern_const(Const::Sym(sym("x")));
        assert!(os.record(x).is_none());
        assert!(!os.has_type(x, object_type(), &h));
        assert!(os.is_empty());
    }

    #[test]
    fn epoch_stamps_growth() {
        let (mut ts, mut os) = setup();
        let p = ts.intern_const(Const::Sym(sym("p")));
        let a = ts.intern_const(Const::Sym(sym("a")));
        os.set_epoch(3);
        assert_eq!(os.epoch(), 3);
        os.add_type(p, sym("path"));
        assert_eq!(os.last_growth(), 3);
        os.set_epoch(4);
        // A duplicate insertion does not count as growth…
        os.add_type(p, sym("path"));
        assert_eq!(os.last_growth(), 3);
        // …but new information does.
        os.add_label(p, sym("src"), a);
        assert_eq!(os.last_growth(), 4);
    }

    #[test]
    fn compound_identities() {
        let (mut ts, mut os) = setup();
        let a = ts.intern_const(Const::Sym(sym("a")));
        let b = ts.intern_const(Const::Sym(sym("b")));
        let id_ab = ts.intern_app(sym("id"), &[a, b]);
        os.add_type(id_ab, sym("path"));
        os.add_label(id_ab, sym("src"), a);
        assert_eq!(os.display(&ts), vec!["path: id(a, b)[src => a]"]);
    }
}
