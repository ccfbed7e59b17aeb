//! Global string interning.
//!
//! Every non-logical symbol of a language of objects — function symbols,
//! predicate symbols, labels, type symbols — as well as every variable
//! name is interned into a process-wide table. A [`Symbol`] is a 4-byte
//! handle; equality and hashing are integer operations, which matters
//! because unification and fact indexing compare symbols constantly.
//!
//! The interner is append-only: symbols are never freed. This is the usual
//! trade-off for logic engines, where the set of distinct symbols is small
//! and stable relative to the number of terms built over them.
//!
//! Resolving a handle takes no lock. The strings live in a fixed array of
//! lazily allocated segments of doubling size, one write-once slot per
//! handle; a slot is filled under the interning lock before its handle is
//! returned, so every handle a thread can hold resolves. Only interning a
//! string takes the lock: a read lock to find it, the write lock to add it.

use std::collections::HashMap;
use std::fmt;
use std::sync::{OnceLock, RwLock};

/// An interned string. Cheap to copy, compare and hash.
///
/// Two `Symbol`s are equal iff the strings they intern are equal, process
/// wide. Use [`Symbol::new`] to intern and [`Symbol::as_str`] to resolve.
/// Ordering is lexicographic on the interned string, so sorted collections
/// of symbols read naturally and canonical forms are stable across runs.
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
pub struct Symbol(u32);

impl Ord for Symbol {
    fn cmp(&self, other: &Symbol) -> std::cmp::Ordering {
        if self.0 == other.0 {
            return std::cmp::Ordering::Equal;
        }
        self.as_str().cmp(other.as_str())
    }
}

impl PartialOrd for Symbol {
    fn partial_cmp(&self, other: &Symbol) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

/// Slots in the first segment, as a power of two; segment `k` holds
/// `FIRST << k` slots.
const FIRST_BITS: u32 = 5;
/// Enough segments for every `u32` handle.
const SEGMENTS: usize = 33 - FIRST_BITS as usize;

type Slot = OnceLock<&'static str>;

/// Handle → string, readable without a lock.
static STRINGS: [OnceLock<Box<[Slot]>>; SEGMENTS] = [const { OnceLock::new() }; SEGMENTS];

/// The segment and offset of handle `id`: handles `(FIRST << k) - FIRST ..
/// (FIRST << (k + 1)) - FIRST` live in segment `k`.
fn slot_of(id: u32) -> (usize, usize) {
    let n = u64::from(id) + (1 << FIRST_BITS);
    let msb = 63 - n.leading_zeros();
    ((msb - FIRST_BITS) as usize, (n - (1 << msb)) as usize)
}

/// String → handle; its lock orders interning, never resolution.
fn handles() -> &'static RwLock<HashMap<&'static str, u32>> {
    static HANDLES: OnceLock<RwLock<HashMap<&'static str, u32>>> = OnceLock::new();
    HANDLES.get_or_init(|| RwLock::new(HashMap::new()))
}

impl Symbol {
    /// Intern `s`, returning its handle. Idempotent.
    pub fn new(s: &str) -> Symbol {
        if let Some(&id) = handles().read().expect("interner lock poisoned").get(s) {
            return Symbol(id);
        }
        let mut map = handles().write().expect("interner lock poisoned");
        if let Some(&id) = map.get(s) {
            return Symbol(id);
        }
        let id = u32::try_from(map.len()).expect("interner full");
        // Interned strings live for the process lifetime by design.
        let leaked: &'static str = Box::leak(s.into());
        let (seg, off) = slot_of(id);
        let segment = STRINGS[seg].get_or_init(|| {
            (0..1usize << (seg as u32 + FIRST_BITS))
                .map(|_| OnceLock::new())
                .collect()
        });
        segment[off]
            .set(leaked)
            .expect("each slot is written once, under the write lock");
        map.insert(leaked, id);
        Symbol(id)
    }

    /// Resolve the handle back to the interned string. Takes no lock.
    pub fn as_str(self) -> &'static str {
        let (seg, off) = slot_of(self.0);
        STRINGS[seg]
            .get()
            .and_then(|segment| segment[off].get())
            .expect("a handle is returned only after its slot is written")
    }

    /// The raw index of this symbol in the intern table. Stable for the
    /// process lifetime; useful as a dense array key.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Debug for Symbol {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Symbol({:?})", self.as_str())
    }
}

impl fmt::Display for Symbol {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

impl From<&str> for Symbol {
    fn from(s: &str) -> Symbol {
        Symbol::new(s)
    }
}

impl From<String> for Symbol {
    fn from(s: String) -> Symbol {
        Symbol::new(&s)
    }
}

/// Interns `s` — shorthand for [`Symbol::new`] used pervasively in tests
/// and examples.
pub fn sym(s: &str) -> Symbol {
    Symbol::new(s)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::thread;

    #[test]
    fn interning_is_idempotent() {
        let a = Symbol::new("john");
        let b = Symbol::new("john");
        assert_eq!(a, b);
        assert_eq!(a.as_str(), "john");
    }

    #[test]
    fn distinct_strings_distinct_symbols() {
        assert_ne!(Symbol::new("src"), Symbol::new("dest"));
    }

    #[test]
    fn empty_string_interns() {
        let e = Symbol::new("");
        assert_eq!(e.as_str(), "");
        assert_eq!(e, Symbol::new(""));
    }

    #[test]
    fn display_and_debug() {
        let s = sym("path");
        assert_eq!(format!("{s}"), "path");
        assert_eq!(format!("{s:?}"), "Symbol(\"path\")");
    }

    #[test]
    fn from_impls() {
        let a: Symbol = "node".into();
        let b: Symbol = String::from("node").into();
        assert_eq!(a, b);
    }

    #[test]
    fn ordering_is_lexicographic() {
        // Intern in reverse order to prove ordering ignores intern ids.
        let b = sym("zz-order-test");
        let a = sym("aa-order-test");
        assert!(a < b);
        assert_eq!(a.cmp(&a), std::cmp::Ordering::Equal);
    }

    #[test]
    fn concurrent_interning_agrees() {
        let handles: Vec<_> = (0..8)
            .map(|_| thread::spawn(|| Symbol::new("concurrent-symbol")))
            .collect();
        let ids: Vec<Symbol> = handles.into_iter().map(|h| h.join().unwrap()).collect();
        assert!(ids.windows(2).all(|w| w[0] == w[1]));
    }

    #[test]
    fn slots_tile_the_handle_space() {
        assert_eq!(slot_of(0), (0, 0));
        assert_eq!(slot_of(31), (0, 31));
        assert_eq!(slot_of(32), (1, 0));
        assert_eq!(slot_of(95), (1, 63));
        assert_eq!(slot_of(96), (2, 0));
        assert_eq!(slot_of(u32::MAX).0, SEGMENTS - 1);
    }

    #[test]
    fn resolving_while_other_threads_intern() {
        let known: Vec<Symbol> = (0..200).map(|i| sym(&format!("known-{i}"))).collect();
        let writers: Vec<_> = (0..2)
            .map(|w| {
                thread::spawn(move || {
                    (0..2_000)
                        .map(|i| {
                            let name = format!("fresh-{w}-{i}");
                            let s = Symbol::new(&name);
                            assert_eq!(s.as_str(), name);
                            s
                        })
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        let readers: Vec<_> = (0..2)
            .map(|_| {
                let known = known.clone();
                thread::spawn(move || {
                    for _ in 0..50 {
                        for (i, s) in known.iter().enumerate() {
                            assert_eq!(s.as_str(), format!("known-{i}"));
                        }
                    }
                })
            })
            .collect();
        for r in readers {
            r.join().unwrap();
        }
        for (w, h) in writers.into_iter().enumerate() {
            for (i, s) in h.join().unwrap().into_iter().enumerate() {
                assert_eq!(s, sym(&format!("fresh-{w}-{i}")));
                assert_eq!(s.as_str(), format!("fresh-{w}-{i}"));
            }
        }
    }

    #[test]
    fn unicode_symbols() {
        let s = sym("père");
        assert_eq!(s.as_str(), "père");
    }
}
