//! Interned string symbols.
//!
//! The analytics identify "similar jobs" by job (script) name, which in
//! the obvious implementation threads `String` keys through the registry,
//! the estimator tables and the per-completion RPC path — one heap clone
//! and one `BTreeMap<String, _>` walk per touch. A [`SymbolTable`] interns
//! each distinct name once and hands out a dense [`Sym`] (`u32`) that the
//! rest of the control plane uses for indexing: estimator tables become
//! flat vectors and the scheduler's hot path never clones a name.
//!
//! Symbols are only meaningful relative to the table that produced them;
//! the workspace keeps one table per simulation (owned by the analytics
//! service) so registry and estimator agree on the mapping.

use std::collections::BTreeMap;
use std::fmt;

/// Interned name handle: an index into the owning [`SymbolTable`].
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct Sym(pub u32);

impl Sym {
    /// Sentinel for "no name interned" (e.g. a `SchedJob` built by code
    /// that does not participate in analytics). Resolves to nothing.
    pub const NONE: Sym = Sym(u32::MAX);

    /// True unless this is the [`Sym::NONE`] sentinel.
    pub fn is_some(self) -> bool {
        self != Sym::NONE
    }
}

impl Default for Sym {
    fn default() -> Self {
        Sym::NONE
    }
}

impl fmt::Display for Sym {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_some() {
            write!(f, "sym{}", self.0)
        } else {
            write!(f, "sym-none")
        }
    }
}

/// Bidirectional name ↔ [`Sym`] mapping. Interning is idempotent; symbols
/// are handed out densely from zero, so `Vec`s indexed by `Sym(0)..` stay
/// compact.
#[derive(Clone, Debug, Default)]
pub struct SymbolTable {
    names: Vec<String>,
    index: BTreeMap<String, u32>,
}

impl SymbolTable {
    /// Empty table.
    pub fn new() -> Self {
        Self::default()
    }

    /// Intern `name`, allocating only on first sight.
    pub fn intern(&mut self, name: &str) -> Sym {
        if let Some(&i) = self.index.get(name) {
            return Sym(i);
        }
        let i = u32::try_from(self.names.len()).expect("symbol table overflow");
        self.names.push(name.to_string());
        self.index.insert(name.to_string(), i);
        Sym(i)
    }

    /// Look up an already-interned name without allocating.
    pub fn get(&self, name: &str) -> Option<Sym> {
        self.index.get(name).map(|&i| Sym(i))
    }

    /// The string behind a symbol. `None` for [`Sym::NONE`] or foreign
    /// symbols.
    pub fn resolve(&self, sym: Sym) -> Option<&str> {
        self.names.get(sym.0 as usize).map(String::as_str)
    }

    /// Number of distinct interned names.
    pub fn len(&self) -> usize {
        self.names.len()
    }

    /// True when nothing has been interned.
    pub fn is_empty(&self) -> bool {
        self.names.is_empty()
    }

    /// Iterate `(sym, name)` in interning order.
    pub fn iter(&self) -> impl Iterator<Item = (Sym, &str)> {
        self.names
            .iter()
            .enumerate()
            .map(|(i, n)| (Sym(i as u32), n.as_str()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn interning_is_idempotent_and_dense() {
        let mut t = SymbolTable::new();
        let a = t.intern("ior");
        let b = t.intern("hacc");
        let a2 = t.intern("ior");
        assert_eq!(a, a2);
        assert_ne!(a, b);
        assert_eq!(a, Sym(0));
        assert_eq!(b, Sym(1));
        assert_eq!(t.len(), 2);
        assert_eq!(t.resolve(a), Some("ior"));
        assert_eq!(t.resolve(b), Some("hacc"));
        assert_eq!(t.get("ior"), Some(a));
        assert_eq!(t.get("absent"), None);
    }

    #[test]
    fn none_sentinel_resolves_to_nothing() {
        let t = SymbolTable::new();
        assert!(!Sym::NONE.is_some());
        assert_eq!(t.resolve(Sym::NONE), None);
        assert_eq!(Sym::default(), Sym::NONE);
    }

    #[test]
    fn iteration_follows_interning_order() {
        let mut t = SymbolTable::new();
        t.intern("b");
        t.intern("a");
        let pairs: Vec<(Sym, &str)> = t.iter().collect();
        assert_eq!(pairs, vec![(Sym(0), "b"), (Sym(1), "a")]);
    }
}
