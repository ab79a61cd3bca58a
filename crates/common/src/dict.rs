//! Shared string dictionaries backing dictionary-encoded `Utf8` vectors.
//!
//! A [`Utf8Dict`] maps dense `u32` codes to distinct strings. Entries are
//! kept **sorted**, so code order equals lexicographic value order: per-block
//! zone maps over codes are meaningful, and fixed-width group keys packed
//! from codes finalize in the same order as their decoded strings.

use crate::hash::hash_bytes;
use std::sync::{Arc, OnceLock};

/// Maximum number of bits a dictionary code occupies when packed into a
/// fixed-width group key (see `DataType::fixed_key_bits`).
pub const DICT_KEY_BITS: u32 = 32;

/// An immutable sorted dictionary of distinct strings.
#[derive(Debug, Clone)]
pub struct Utf8Dict {
    values: Vec<String>,
    /// `hash_bytes(value)` per code, built the first time a key hash over
    /// this dictionary is asked for (see [`Utf8Dict::hashes`]).
    hashes: OnceLock<Vec<u64>>,
}

/// Equality is over the entries; whether the hash table has been built yet
/// is not part of a dictionary's value.
impl PartialEq for Utf8Dict {
    fn eq(&self, other: &Utf8Dict) -> bool {
        self.values == other.values
    }
}

impl Eq for Utf8Dict {}

impl Utf8Dict {
    /// Build from a sorted, deduplicated list of values.
    pub fn from_sorted(values: Vec<String>) -> Arc<Utf8Dict> {
        debug_assert!(values.windows(2).all(|w| w[0] < w[1]), "dict not sorted");
        Arc::new(Utf8Dict {
            values,
            hashes: OnceLock::new(),
        })
    }

    /// Build from arbitrary values: sorts and deduplicates.
    pub fn from_values<S: Into<String>>(values: impl IntoIterator<Item = S>) -> Arc<Utf8Dict> {
        let mut v: Vec<String> = values.into_iter().map(Into::into).collect();
        v.sort_unstable();
        v.dedup();
        Utf8Dict::from_sorted(v)
    }

    pub fn len(&self) -> usize {
        self.values.len()
    }

    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    /// The string for `code`. Panics on out-of-range codes (codes are
    /// produced by [`Utf8Dict::code_of`] against the same dictionary).
    pub fn value(&self, code: usize) -> &str {
        &self.values[code]
    }

    /// The code for `s`, if present (binary search over the sorted entries).
    pub fn code_of(&self, s: &str) -> Option<u32> {
        self.values
            .binary_search_by(|v| v.as_str().cmp(s))
            .ok()
            .map(|i| i as u32)
    }

    pub fn values(&self) -> &[String] {
        &self.values
    }

    /// The key hash of every entry, indexed by code: exactly
    /// [`hash_bytes`] of the entry, so a dictionary-backed vector hashes
    /// like its decoded strings at the cost of one load per row. Built on
    /// first use and kept for the dictionary's lifetime (a table column's
    /// dictionary is shared by every scan of it).
    pub fn hashes(&self) -> &[u64] {
        self.hashes.get_or_init(|| {
            self.values
                .iter()
                .map(|v| hash_bytes(v.as_bytes()))
                .collect()
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sorted_codes_follow_lex_order() {
        let d = Utf8Dict::from_values(vec!["pear", "apple", "fig", "apple"]);
        assert_eq!(d.len(), 3);
        assert_eq!(d.value(0), "apple");
        assert_eq!(d.value(2), "pear");
        assert_eq!(d.code_of("fig"), Some(1));
        assert_eq!(d.code_of("grape"), None);
        // code order == lexicographic order
        assert!(d.value(0) < d.value(1) && d.value(1) < d.value(2));
    }

    #[test]
    fn per_code_hashes_equal_hash_bytes() {
        let d = Utf8Dict::from_values(vec!["pear", "", "apple", "fig"]);
        let expected: Vec<u64> = d
            .values()
            .iter()
            .map(|v| hash_bytes(v.as_bytes()))
            .collect();
        assert_eq!(d.hashes(), expected);
        // Building the table does not change what the dictionary equals.
        assert_eq!(*d, *Utf8Dict::from_values(vec!["", "apple", "fig", "pear"]));
    }

    #[test]
    fn empty_dict() {
        let d = Utf8Dict::from_values(Vec::<String>::new());
        assert!(d.is_empty());
        assert_eq!(d.code_of("x"), None);
    }
}
