//! Labels and alphabets.
//!
//! A *label* is an output symbol of a locally checkable problem (the paper's
//! set `O`, restricted to the finite usable subset `f(Δ)`). Labels are
//! interned into an [`Alphabet`] and referred to by dense indices, which
//! keeps configurations and the bitset machinery in
//! [`crate::labelset::LabelSet`] cheap.

use crate::error::{Error, Result};
use std::collections::HashMap;
use std::fmt;

/// A dense index into an [`Alphabet`].
///
/// `Label` is deliberately a thin newtype ([C-NEWTYPE]): it prevents mixing
/// raw indices with labels while costing nothing at runtime.
///
/// ```
/// use roundelim_core::label::{Alphabet, Label};
/// let mut a = Alphabet::new();
/// let x: Label = a.intern("X").unwrap();
/// assert_eq!(a.name(x), "X");
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Label(pub(crate) u16);

impl Label {
    /// Creates a label from a raw index.
    ///
    /// Callers are responsible for the index being valid for the alphabet the
    /// label will be used with; [`Alphabet::name`] panics on stale indices.
    #[inline]
    pub fn from_index(ix: usize) -> Label {
        Label(ix as u16)
    }

    /// The dense index of this label in its alphabet.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for Label {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "#{}", self.0)
    }
}

/// An interned set of label names.
///
/// Alphabets own the mapping between human-readable label names and the
/// dense [`Label`] indices used everywhere else. Two alphabets are equal iff
/// they contain the same names in the same order.
///
/// ```
/// use roundelim_core::label::Alphabet;
/// let a = Alphabet::from_names(["A", "B", "C"]).unwrap();
/// assert_eq!(a.len(), 3);
/// assert_eq!(a.name(a.lookup("B").unwrap()), "B");
/// ```
#[derive(Debug, Clone, Default)]
pub struct Alphabet {
    names: Vec<String>,
    /// Name → label lookup, built lazily on first use: the speedup
    /// transform constructs many short-lived alphabets that are never
    /// queried by name, so eager index building (one hash + one `String`
    /// clone per label) would dominate their construction cost.
    index: std::sync::OnceLock<HashMap<String, Label>>,
}

impl PartialEq for Alphabet {
    fn eq(&self, other: &Alphabet) -> bool {
        self.names == other.names
    }
}

impl Eq for Alphabet {}

impl std::hash::Hash for Alphabet {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        self.names.hash(state);
    }
}

impl Alphabet {
    /// Creates an empty alphabet.
    pub fn new() -> Alphabet {
        Alphabet::default()
    }

    /// Builds an alphabet from an iterator of names.
    ///
    /// # Errors
    ///
    /// Returns [`Error::DuplicateLabel`] on repeated names and
    /// [`Error::AlphabetOverflow`] past [`crate::labelset::MAX_LABELS`].
    pub fn from_names<I, S>(names: I) -> Result<Alphabet>
    where
        I: IntoIterator<Item = S>,
        S: Into<String>,
    {
        let mut a = Alphabet::new();
        for n in names {
            a.intern(n)?;
        }
        Ok(a)
    }

    /// Interns a name, returning its label.
    ///
    /// # Errors
    ///
    /// Returns [`Error::DuplicateLabel`] if the name is already present and
    /// [`Error::AlphabetOverflow`] if the alphabet is full.
    pub fn intern<S: Into<String>>(&mut self, name: S) -> Result<Label> {
        let name = name.into();
        if self.lookup(&name).is_some() {
            return Err(Error::DuplicateLabel { name });
        }
        if self.names.len() >= crate::labelset::MAX_LABELS {
            return Err(Error::AlphabetOverflow { requested: self.names.len() + 1 });
        }
        let l = Label(self.names.len() as u16);
        if let Some(index) = self.index.get_mut() {
            index.insert(name.clone(), l);
        }
        self.names.push(name);
        Ok(l)
    }

    /// Builds an alphabet from names the caller guarantees to be distinct
    /// (debug-asserted), skipping per-name duplicate probes; the lookup
    /// index stays unbuilt until first queried.
    pub(crate) fn from_unique_names_unchecked(names: Vec<String>) -> Alphabet {
        debug_assert!(names.len() <= crate::labelset::MAX_LABELS);
        debug_assert!(
            (1..names.len()).all(|i| !names[..i].contains(&names[i])),
            "from_unique_names_unchecked requires distinct names"
        );
        Alphabet { names, index: std::sync::OnceLock::new() }
    }

    /// Interns a name if new, otherwise returns the existing label.
    pub fn intern_or_get<S: Into<String> + AsRef<str>>(&mut self, name: S) -> Result<Label> {
        if let Some(l) = self.lookup(name.as_ref()) {
            return Ok(l);
        }
        self.intern(name)
    }

    /// Looks a name up.
    pub fn lookup(&self, name: &str) -> Option<Label> {
        let index = self.index.get_or_init(|| {
            self.names.iter().enumerate().map(|(i, n)| (n.clone(), Label(i as u16))).collect()
        });
        index.get(name).copied()
    }

    /// Looks a name up, erroring on absence.
    ///
    /// # Errors
    ///
    /// Returns [`Error::UnknownLabel`] if the name is not interned.
    pub fn require(&self, name: &str) -> Result<Label> {
        self.lookup(name).ok_or_else(|| Error::UnknownLabel { name: name.to_owned() })
    }

    /// The name of a label.
    ///
    /// # Panics
    ///
    /// Panics if `l` does not belong to this alphabet (an internal logic
    /// error, never triggerable from validated input).
    pub fn name(&self, l: Label) -> &str {
        &self.names[l.index()]
    }

    /// Number of labels.
    pub fn len(&self) -> usize {
        self.names.len()
    }

    /// Whether the alphabet is empty.
    pub fn is_empty(&self) -> bool {
        self.names.is_empty()
    }

    /// Iterates over all labels in index order.
    pub fn labels(&self) -> impl Iterator<Item = Label> + '_ {
        (0..self.names.len()).map(|i| Label(i as u16))
    }

    /// Iterates over `(label, name)` pairs in index order.
    pub fn iter(&self) -> impl Iterator<Item = (Label, &str)> + '_ {
        self.names.iter().enumerate().map(|(i, n)| (Label(i as u16), n.as_str()))
    }

    /// All names, in index order.
    pub fn names(&self) -> &[String] {
        &self.names
    }

    /// Consumes the alphabet, returning its names in index order.
    pub fn into_names(self) -> Vec<String> {
        self.names
    }
}

/// Generates fresh, readable names for derived labels.
///
/// The speedup transform creates labels that denote *sets* of old labels;
/// this helper renders them as `⟨A B⟩` while guaranteeing uniqueness within
/// the new alphabet (collisions get a numeric suffix).
#[derive(Debug, Default)]
pub struct NameGen {
    used: HashMap<String, usize>,
}

impl NameGen {
    /// Creates a fresh generator.
    pub fn new() -> NameGen {
        NameGen::default()
    }

    /// Returns `base` if unused, otherwise `base.k` for the smallest free k.
    pub fn fresh(&mut self, base: &str) -> String {
        match self.used.get_mut(base) {
            None => {
                self.used.insert(base.to_owned(), 0);
                base.to_owned()
            }
            Some(k) => {
                *k += 1;
                let name = format!("{base}.{k}");
                // Recurse in case the suffixed form is itself taken.
                if self.used.contains_key(&name) {
                    self.fresh(&name)
                } else {
                    self.used.insert(name.clone(), 0);
                    name
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn intern_and_lookup_round_trip() {
        let mut a = Alphabet::new();
        let x = a.intern("X").unwrap();
        let y = a.intern("Y").unwrap();
        assert_ne!(x, y);
        assert_eq!(a.lookup("X"), Some(x));
        assert_eq!(a.lookup("Z"), None);
        assert_eq!(a.name(y), "Y");
        assert_eq!(a.len(), 2);
    }

    #[test]
    fn duplicate_label_rejected() {
        let mut a = Alphabet::new();
        a.intern("X").unwrap();
        assert_eq!(a.intern("X"), Err(Error::DuplicateLabel { name: "X".into() }));
        // intern_or_get tolerates duplicates.
        assert_eq!(a.intern_or_get("X").unwrap(), a.lookup("X").unwrap());
    }

    #[test]
    fn overflow_detected() {
        let mut a = Alphabet::new();
        for i in 0..crate::labelset::MAX_LABELS {
            a.intern(format!("L{i}")).unwrap();
        }
        assert!(matches!(a.intern("one-too-many"), Err(Error::AlphabetOverflow { .. })));
    }

    #[test]
    fn labels_iterate_in_order() {
        let a = Alphabet::from_names(["p", "q", "r"]).unwrap();
        let ls: Vec<_> = a.labels().collect();
        assert_eq!(ls, vec![Label(0), Label(1), Label(2)]);
        let names: Vec<_> = a.iter().map(|(_, n)| n).collect();
        assert_eq!(names, vec!["p", "q", "r"]);
    }

    #[test]
    fn namegen_produces_unique_names() {
        let mut g = NameGen::new();
        let a = g.fresh("X");
        let b = g.fresh("X");
        let c = g.fresh("X");
        assert_eq!(a, "X");
        assert_ne!(b, a);
        assert_ne!(c, b);
        assert_ne!(c, a);
    }

    #[test]
    fn require_reports_unknown() {
        let a = Alphabet::from_names(["A"]).unwrap();
        assert!(matches!(a.require("B"), Err(Error::UnknownLabel { .. })));
    }
}
