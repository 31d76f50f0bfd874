//! Coverage sets: the dense bitmap and the sparse corpus key.
//!
//! Basic-block ids are small dense integers by construction — handler
//! `i` owns the stratum `[(i+1)·4096, (i+2)·4096)` — so a word-array
//! bitmap beats a `BTreeSet<u64>` on every hot operation: insert is
//! one or-and-test, union is a word-wise `|` over `O(words)`, and the
//! distinct-block count is maintained incrementally instead of being
//! recomputed. The set view ([`CoverageMap::to_btree_set`]) is kept
//! for reports and serialization compatibility; iteration is lazy and
//! ascending, so existing `BTreeSet`-shaped consumers keep working
//! through [`Extend`]/[`FromIterator`].
//!
//! A bitmap is as wide as its highest block, so it only pays off where
//! the set is dense or short-lived: the per-exec [`CoverageMap`] and
//! the per-shard and hub unions. The *keys* a corpus entry or hub seed
//! keeps — the blocks it contributed — are a handful of blocks that
//! may sit millions of ids up (census handlers reach past block
//! 3,000,000, about 47k words). They are [`SparseCoverage`]: only the
//! nonzero words, as strictly increasing `(word index, word)` pairs.
//! Both types expose their nonzero words through [`CoverageWords`], so
//! [`CoverageMap::new_blocks_in`], [`CoverageMap::diff_in`] and
//! [`CoverageMap::merge_diff`] take either with one loop.
//!
//! A key's checkpoint and wire encoding ([`SparseCoverage::encode_into`])
//! is a `u32` pair count followed by `(u32 index, u64 word)` pairs.
//! The decoder is total and canonical: it rejects a count larger than
//! the remaining input before reserving anything, indices that are not
//! strictly increasing or exceed [`MAX_KEY_WORD_INDEX`], and zero
//! words, each with a named [`KeyDecodeError`], so every key has
//! exactly one encoding.

use serde::{Deserialize, Serialize};
use std::collections::BTreeSet;
use std::fmt;

/// A set of covered basic-block ids, stored as a dense bitmap.
#[derive(Clone, Default, Serialize, Deserialize)]
pub struct CoverageMap {
    /// Bit `b` of `words[w]` set ⇔ block `w * 64 + b` covered.
    words: Vec<u64>,
    /// Number of set bits, maintained incrementally.
    count: usize,
}

impl CoverageMap {
    /// Empty map.
    #[must_use]
    pub fn new() -> CoverageMap {
        CoverageMap::default()
    }

    /// Empty map with room for block ids below `max_block` without
    /// reallocation.
    #[must_use]
    pub fn with_capacity(max_block: u64) -> CoverageMap {
        CoverageMap {
            words: Vec::with_capacity((max_block / 64 + 1) as usize),
            count: 0,
        }
    }

    /// Insert a block id. Returns `true` if it was newly covered.
    pub fn insert(&mut self, block: u64) -> bool {
        let (w, bit) = (block as usize / 64, 1u64 << (block % 64));
        if w >= self.words.len() {
            self.words.resize(w + 1, 0);
        }
        let newly = self.words[w] & bit == 0;
        self.words[w] |= bit;
        self.count += usize::from(newly);
        newly
    }

    /// Whether a block is covered.
    #[must_use]
    pub fn contains(&self, block: u64) -> bool {
        self.words
            .get(block as usize / 64)
            .is_some_and(|w| w & (1 << (block % 64)) != 0)
    }

    /// Number of distinct covered blocks. O(1).
    #[must_use]
    pub fn len(&self) -> usize {
        self.count
    }

    /// Whether no block is covered.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// Remove every block, retaining the allocation (hot-loop reuse).
    pub fn clear(&mut self) {
        self.words.clear();
        self.count = 0;
    }

    /// Union `other` into `self`, word-wise. Returns the number of
    /// newly covered blocks. Commutative in effect: merge order never
    /// changes the resulting set.
    pub fn merge(&mut self, other: &CoverageMap) -> usize {
        if other.words.len() > self.words.len() {
            self.words.resize(other.words.len(), 0);
        }
        let mut newly = 0usize;
        for (dst, src) in self.words.iter_mut().zip(&other.words) {
            let add = *src & !*dst;
            newly += add.count_ones() as usize;
            *dst |= add;
        }
        self.count += newly;
        newly
    }

    /// Word `i` of the bitmap (zero past the end).
    fn word(&self, i: usize) -> u64 {
        self.words.get(i).copied().unwrap_or(0)
    }

    /// Number of blocks in `other` not covered by `self`, without
    /// modifying either (the coverage-guided "is this input
    /// interesting" test).
    #[must_use]
    pub fn new_blocks_in(&self, other: &impl CoverageWords) -> usize {
        other
            .nonzero_words()
            .map(|(i, src)| (src & !self.word(i)).count_ones() as usize)
            .sum()
    }

    /// The blocks of `other` not covered by `self`, as a sparse key —
    /// the per-entry "coverage contributed" of a corpus seed.
    #[must_use]
    pub fn diff_in(&self, other: &impl CoverageWords) -> SparseCoverage {
        let mut key = SparseCoverage::new();
        for (i, src) in other.nonzero_words() {
            key.push(i, src & !self.word(i));
        }
        key
    }

    /// Union `other` into `self` and return the contributed delta as
    /// a sparse key, in one pass over `other`'s nonzero words.
    /// Equivalent to [`CoverageMap::diff_in`] followed by a union; an
    /// `other` that adds nothing leaves `self` untouched and allocates
    /// nothing.
    pub fn merge_diff(&mut self, other: &impl CoverageWords) -> SparseCoverage {
        let mut key = SparseCoverage::new();
        for (i, src) in other.nonzero_words() {
            let add = src & !self.word(i);
            if add == 0 {
                continue;
            }
            if i >= self.words.len() {
                self.words.resize(i + 1, 0);
            }
            self.words[i] |= add;
            self.count += add.count_ones() as usize;
            key.push(i, add);
        }
        key
    }

    /// Whether the two maps share no block.
    #[must_use]
    pub fn is_disjoint(&self, other: &CoverageMap) -> bool {
        self.words.iter().zip(&other.words).all(|(a, b)| a & b == 0)
    }

    /// Lazy ascending iteration over covered block ids.
    pub fn iter(&self) -> Iter<'_> {
        Iter {
            words: &self.words,
            word_idx: 0,
            current: self.words.first().copied().unwrap_or(0),
        }
    }

    /// Sorted-set view, for reports and serialized artifacts that
    /// predate the bitmap representation.
    #[must_use]
    pub fn to_btree_set(&self) -> BTreeSet<u64> {
        self.iter().collect()
    }

    /// The bitmap words up to the last nonzero one (bit `b` of word
    /// `w` set ⇔ block `w * 64 + b` covered) — the checkpoint
    /// serialization view. Trailing zero words are representation
    /// noise and are never part of it, so equal maps have equal views.
    #[must_use]
    pub fn words(&self) -> &[u64] {
        let len = self
            .words
            .iter()
            .rposition(|&w| w != 0)
            .map_or(0, |i| i + 1);
        &self.words[..len]
    }

    /// Rebuild a map from raw bitmap words previously obtained via
    /// [`CoverageMap::words`]. The distinct-block count is recomputed
    /// from the words, so a writer that trimmed (or kept) trailing
    /// zero words restores to a map equal to the original.
    #[must_use]
    pub fn from_words(words: Vec<u64>) -> CoverageMap {
        let count = words.iter().map(|w| w.count_ones() as usize).sum();
        CoverageMap { words, count }
    }

    /// Word-level diff of `self` against `base`: the instructions that
    /// turn `base` into a map equal to `self`. Changed words are
    /// collected into runs of consecutive indices (the run-length fast
    /// path — fresh coverage clusters inside a handler's block
    /// stratum); when the sparse form would serialize larger than the
    /// full bitmap, the diff falls back to [`CoverageWordDiff::Dense`].
    #[must_use]
    pub fn diff_words_since(&self, base: &CoverageMap) -> CoverageWordDiff {
        let len = self.words.len().max(base.words.len());
        let mut runs: Vec<(u32, Vec<u64>)> = Vec::new();
        for i in 0..len {
            let new = self.words.get(i).copied().unwrap_or(0);
            let old = base.words.get(i).copied().unwrap_or(0);
            if new == old {
                continue;
            }
            match runs.last_mut() {
                Some((start, words)) if *start as usize + words.len() == i => words.push(new),
                _ => runs.push((u32::try_from(i).unwrap_or(u32::MAX), vec![new])),
            }
        }
        let sparse = CoverageWordDiff::Sparse(runs);
        if sparse.encoded_bytes() < CoverageWordDiff::dense_bytes(self.words.len()) {
            sparse
        } else {
            CoverageWordDiff::Dense(self.words.clone())
        }
    }

    /// Apply a diff produced by [`CoverageMap::diff_words_since`] to
    /// `self` (the base the diff was taken against) and return the
    /// reconstructed map. Inverse property:
    /// `base.apply_word_diff(&new.diff_words_since(&base)) == new`.
    #[must_use]
    pub fn apply_word_diff(&self, diff: &CoverageWordDiff) -> CoverageMap {
        match diff {
            CoverageWordDiff::Dense(words) => CoverageMap::from_words(words.clone()),
            CoverageWordDiff::Sparse(runs) => {
                let mut words = self.words.clone();
                for (start, run) in runs {
                    let start = *start as usize;
                    if start + run.len() > words.len() {
                        words.resize(start + run.len(), 0);
                    }
                    words[start..start + run.len()].copy_from_slice(run);
                }
                CoverageMap::from_words(words)
            }
        }
    }
}

/// A word-granular coverage diff: how to rebuild a newer
/// [`CoverageMap`] from an agreed base. Produced by
/// [`CoverageMap::diff_words_since`], consumed by
/// [`CoverageMap::apply_word_diff`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CoverageWordDiff {
    /// Runs of consecutive changed words: `(first word index,
    /// replacement words)`. An empty run list means the maps are
    /// equal (up to trailing-zero representation noise).
    Sparse(Vec<(u32, Vec<u64>)>),
    /// The newer map's full bitmap — chosen when the sparse form
    /// would serialize larger than simply resending every word.
    Dense(Vec<u64>),
}

impl CoverageWordDiff {
    /// Whether applying this diff is a no-op (the maps were equal).
    #[must_use]
    pub fn is_empty(&self) -> bool {
        match self {
            CoverageWordDiff::Sparse(runs) => runs.is_empty(),
            CoverageWordDiff::Dense(_) => false,
        }
    }

    /// Serialized size of this diff in the checkpoint codec: a u32
    /// count plus, per sparse run, a u32 start + u32 length header
    /// and 8 bytes per word (dense pays the header once). The
    /// dense-fallback decision in [`CoverageMap::diff_words_since`]
    /// compares exactly these numbers.
    #[must_use]
    pub fn encoded_bytes(&self) -> usize {
        match self {
            CoverageWordDiff::Sparse(runs) => {
                4 + runs.iter().map(|(_, w)| 8 + 8 * w.len()).sum::<usize>()
            }
            CoverageWordDiff::Dense(words) => CoverageWordDiff::dense_bytes(words.len()),
        }
    }

    /// Serialized size of a dense diff over `words` bitmap words.
    #[must_use]
    pub fn dense_bytes(words: usize) -> usize {
        4 + 8 * words
    }
}

impl PartialEq for CoverageMap {
    fn eq(&self, other: &CoverageMap) -> bool {
        if self.count != other.count {
            return false;
        }
        // Trailing zero words are representation noise, not content.
        let common = self.words.len().min(other.words.len());
        self.words[..common] == other.words[..common]
            && self.words[common..].iter().all(|w| *w == 0)
            && other.words[common..].iter().all(|w| *w == 0)
    }
}

impl Eq for CoverageMap {}

impl fmt::Debug for CoverageMap {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_set().entries(self.iter()).finish()
    }
}

/// Lazy iterator over set bits, ascending.
pub struct Iter<'a> {
    words: &'a [u64],
    word_idx: usize,
    current: u64,
}

impl Iterator for Iter<'_> {
    type Item = u64;

    fn next(&mut self) -> Option<u64> {
        while self.current == 0 {
            self.word_idx += 1;
            self.current = *self.words.get(self.word_idx)?;
        }
        let bit = self.current.trailing_zeros();
        self.current &= self.current - 1;
        Some(self.word_idx as u64 * 64 + u64::from(bit))
    }
}

impl<'a> IntoIterator for &'a CoverageMap {
    type Item = u64;
    type IntoIter = Iter<'a>;

    fn into_iter(self) -> Iter<'a> {
        self.iter()
    }
}

/// Owning iteration (drains nothing; blocks are `Copy`).
pub struct IntoIter {
    words: Vec<u64>,
    word_idx: usize,
    current: u64,
}

impl Iterator for IntoIter {
    type Item = u64;

    fn next(&mut self) -> Option<u64> {
        while self.current == 0 {
            self.word_idx += 1;
            self.current = *self.words.get(self.word_idx)?;
        }
        let bit = self.current.trailing_zeros();
        self.current &= self.current - 1;
        Some(self.word_idx as u64 * 64 + u64::from(bit))
    }
}

impl IntoIterator for CoverageMap {
    type Item = u64;
    type IntoIter = IntoIter;

    fn into_iter(self) -> IntoIter {
        let current = self.words.first().copied().unwrap_or(0);
        IntoIter {
            words: self.words,
            word_idx: 0,
            current,
        }
    }
}

impl Extend<u64> for CoverageMap {
    fn extend<I: IntoIterator<Item = u64>>(&mut self, iter: I) {
        for b in iter {
            self.insert(b);
        }
    }
}

impl FromIterator<u64> for CoverageMap {
    fn from_iter<I: IntoIterator<Item = u64>>(iter: I) -> CoverageMap {
        let mut m = CoverageMap::new();
        m.extend(iter);
        m
    }
}

impl From<&BTreeSet<u64>> for CoverageMap {
    fn from(set: &BTreeSet<u64>) -> CoverageMap {
        set.iter().copied().collect()
    }
}

/// A coverage set read as its nonzero bitmap words: `(word index,
/// word)` pairs in ascending index order, where bit `b` of word `w`
/// set ⇔ block `w * 64 + b` covered. Implemented by the dense
/// [`CoverageMap`] (which skips its zero words) and the sparse
/// [`SparseCoverage`] (which stores nothing else), so each set
/// operation over either is one loop.
pub trait CoverageWords {
    /// The nonzero words, ascending by index.
    fn nonzero_words(&self) -> impl Iterator<Item = (usize, u64)> + '_;
}

impl CoverageWords for CoverageMap {
    fn nonzero_words(&self) -> impl Iterator<Item = (usize, u64)> + '_ {
        self.words
            .iter()
            .enumerate()
            .filter(|(_, w)| **w != 0)
            .map(|(i, w)| (i, *w))
    }
}

/// Largest word index a decoded [`SparseCoverage`] may name: block
/// ids below 2^26, room for 16,383 handler strata of 4,096 blocks.
/// Merging a key into a dense union grows the union to the key's
/// highest word, so an unchecked index from a checkpoint or a frame
/// could demand a 32 GB bitmap from a 16-byte key.
pub const MAX_KEY_WORD_INDEX: u32 = (1 << 20) - 1;

/// A coverage key: the blocks one corpus entry or hub seed
/// contributed, stored as only its nonzero bitmap words. See the
/// module docs for why keys are sparse and unions dense.
///
/// Invariant (kept by every constructor, checked by the decoder):
/// word indices strictly increase and no stored word is zero. Each
/// set therefore has exactly one representation, and `==` compares
/// sets.
#[derive(Clone, Default, PartialEq, Eq)]
pub struct SparseCoverage {
    /// `(word index, nonzero word)`, strictly increasing by index.
    words: Vec<(u32, u64)>,
    /// Number of set bits over all words.
    count: usize,
}

impl SparseCoverage {
    /// Empty key.
    #[must_use]
    pub fn new() -> SparseCoverage {
        SparseCoverage::default()
    }

    /// Number of distinct blocks. O(1).
    #[must_use]
    pub fn len(&self) -> usize {
        self.count
    }

    /// Whether the key holds no block.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// The stored `(word index, nonzero word)` pairs, strictly
    /// increasing by index.
    #[must_use]
    pub fn words(&self) -> &[(u32, u64)] {
        &self.words
    }

    /// Lazy ascending iteration over the key's block ids.
    pub fn iter(&self) -> SparseIter<'_> {
        SparseIter {
            words: self.words.iter(),
            base: 0,
            current: 0,
        }
    }

    /// Sorted-set view, for reports and tests.
    #[must_use]
    pub fn to_btree_set(&self) -> BTreeSet<u64> {
        self.iter().collect()
    }

    /// Append word `word` at index `index`, which must exceed every
    /// stored index; a zero word is skipped.
    fn push(&mut self, index: usize, word: u64) {
        if word == 0 {
            return;
        }
        let index = u32::try_from(index).expect("coverage word index fits in u32");
        debug_assert!(self.words.last().is_none_or(|&(last, _)| last < index));
        self.words.push((index, word));
        self.count += word.count_ones() as usize;
    }

    /// Append the key's encoding: `u32` pair count, then each pair as
    /// `u32` word index and `u64` word, little-endian.
    pub fn encode_into(&self, out: &mut Vec<u8>) {
        let n = u32::try_from(self.words.len()).expect("key word count fits in u32");
        out.extend_from_slice(&n.to_le_bytes());
        for &(index, word) in &self.words {
            out.extend_from_slice(&index.to_le_bytes());
            out.extend_from_slice(&word.to_le_bytes());
        }
    }

    /// Decode a key written by [`SparseCoverage::encode_into`] from
    /// `bytes` at `pos`, advancing `pos` past it. Total and canonical:
    /// any input either fails with a named error or decodes to the one
    /// key whose encoding it is.
    ///
    /// # Errors
    ///
    /// Returns a [`KeyDecodeError`] when the input ends early, the
    /// count exceeds what the remaining input can hold (checked before
    /// anything is reserved), an index does not exceed the previous
    /// one or exceeds [`MAX_KEY_WORD_INDEX`], or a word is zero.
    pub fn decode_from(bytes: &[u8], pos: &mut usize) -> Result<SparseCoverage, KeyDecodeError> {
        let count = u32::from_le_bytes(take_array(bytes, pos)?);
        let remaining = bytes.len().saturating_sub(*pos);
        if count as usize > remaining / 12 {
            return Err(KeyDecodeError::CountExceedsInput { count, remaining });
        }
        let mut key = SparseCoverage {
            words: Vec::with_capacity(count as usize),
            count: 0,
        };
        for _ in 0..count {
            let index = u32::from_le_bytes(take_array(bytes, pos)?);
            let word = u64::from_le_bytes(take_array(bytes, pos)?);
            if let Some(&(prev, _)) = key.words.last() {
                if index <= prev {
                    return Err(KeyDecodeError::UnsortedIndex { index, prev });
                }
            }
            if index > MAX_KEY_WORD_INDEX {
                return Err(KeyDecodeError::IndexOutOfRange { index });
            }
            if word == 0 {
                return Err(KeyDecodeError::ZeroWord { index });
            }
            key.words.push((index, word));
            key.count += word.count_ones() as usize;
        }
        Ok(key)
    }
}

/// `N` bytes from `bytes` at `pos`, advancing `pos`.
fn take_array<const N: usize>(bytes: &[u8], pos: &mut usize) -> Result<[u8; N], KeyDecodeError> {
    let at = *pos;
    let chunk = at
        .checked_add(N)
        .and_then(|end| bytes.get(at..end))
        .ok_or(KeyDecodeError::Truncated { at })?;
    *pos = at + N;
    Ok(chunk.try_into().expect("slice of length N"))
}

/// Why [`SparseCoverage::decode_from`] rejected its input.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum KeyDecodeError {
    /// The input ended inside the key, at byte offset `at`.
    Truncated {
        /// Offset of the read that ran past the end.
        at: usize,
    },
    /// The pair count promises more pairs than the input holds.
    CountExceedsInput {
        /// The encoded pair count.
        count: u32,
        /// Bytes left after the count.
        remaining: usize,
    },
    /// A word index does not exceed the one before it (unsorted or
    /// duplicate).
    UnsortedIndex {
        /// The offending index.
        index: u32,
        /// The index before it.
        prev: u32,
    },
    /// A word index exceeds [`MAX_KEY_WORD_INDEX`].
    IndexOutOfRange {
        /// The offending index.
        index: u32,
    },
    /// A stored word is zero (a key lists only nonzero words).
    ZeroWord {
        /// Index of the zero word.
        index: u32,
    },
}

impl fmt::Display for KeyDecodeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            KeyDecodeError::Truncated { at } => write!(f, "truncated coverage key at {at}"),
            KeyDecodeError::CountExceedsInput { count, remaining } => write!(
                f,
                "coverage key count {count} exceeds the {remaining} remaining bytes"
            ),
            KeyDecodeError::UnsortedIndex { index, prev } => write!(
                f,
                "coverage key word index {index} does not follow index {prev}"
            ),
            KeyDecodeError::IndexOutOfRange { index } => write!(
                f,
                "coverage key word index {index} exceeds {MAX_KEY_WORD_INDEX}"
            ),
            KeyDecodeError::ZeroWord { index } => {
                write!(f, "coverage key word {index} is zero")
            }
        }
    }
}

impl std::error::Error for KeyDecodeError {}

impl CoverageWords for SparseCoverage {
    fn nonzero_words(&self) -> impl Iterator<Item = (usize, u64)> + '_ {
        self.words.iter().map(|&(i, w)| (i as usize, w))
    }
}

impl From<&CoverageMap> for SparseCoverage {
    fn from(map: &CoverageMap) -> SparseCoverage {
        let mut key = SparseCoverage::new();
        for (i, w) in map.nonzero_words() {
            key.push(i, w);
        }
        key
    }
}

/// Build a key from block ids in any order. Memory follows the number
/// of blocks, not the highest id.
impl FromIterator<u64> for SparseCoverage {
    fn from_iter<I: IntoIterator<Item = u64>>(iter: I) -> SparseCoverage {
        let mut blocks: Vec<u64> = iter.into_iter().collect();
        blocks.sort_unstable();
        let mut key = SparseCoverage::new();
        for same_word in blocks.chunk_by(|a, b| a / 64 == b / 64) {
            let word = same_word.iter().fold(0u64, |w, b| w | 1 << (b % 64));
            let index = usize::try_from(same_word[0] / 64).expect("word index fits in usize");
            key.push(index, word);
        }
        key
    }
}

impl fmt::Debug for SparseCoverage {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_set().entries(self.iter()).finish()
    }
}

/// Lazy ascending iterator over a [`SparseCoverage`]'s block ids.
pub struct SparseIter<'a> {
    words: std::slice::Iter<'a, (u32, u64)>,
    /// Block id of bit 0 of `current`.
    base: u64,
    current: u64,
}

impl Iterator for SparseIter<'_> {
    type Item = u64;

    fn next(&mut self) -> Option<u64> {
        while self.current == 0 {
            let &(index, word) = self.words.next()?;
            self.base = u64::from(index) * 64;
            self.current = word;
        }
        let bit = self.current.trailing_zeros();
        self.current &= self.current - 1;
        Some(self.base + u64::from(bit))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_contains_len() {
        let mut m = CoverageMap::new();
        assert!(m.is_empty());
        assert!(m.insert(4096));
        assert!(!m.insert(4096));
        assert!(m.insert(0));
        assert!(m.insert(63));
        assert!(m.insert(64));
        assert_eq!(m.len(), 4);
        assert!(m.contains(63));
        assert!(!m.contains(62));
        assert!(!m.contains(1 << 20));
    }

    #[test]
    fn merge_counts_new_blocks_only() {
        let a: CoverageMap = [1u64, 2, 3].into_iter().collect();
        let b: CoverageMap = [3u64, 4, 200].into_iter().collect();
        let mut m = a.clone();
        assert_eq!(m.new_blocks_in(&b), 2);
        assert_eq!(m.merge(&b), 2);
        assert_eq!(m.len(), 5);
        assert_eq!(m.merge(&b), 0);
        // Merge in the opposite order gives the same set.
        let mut n = b.clone();
        n.merge(&a);
        assert_eq!(m, n);
    }

    #[test]
    fn equality_ignores_trailing_zero_words() {
        let mut a = CoverageMap::new();
        a.insert(5);
        let mut b = CoverageMap::new();
        b.insert(5);
        b.insert(100_000);
        // Force trailing zeros by a merge that adds nothing new there.
        let mut c = a.clone();
        c.merge(&b);
        assert_ne!(a, b);
        assert_eq!(c.len(), 2);
        // a vs a-with-capacity.
        let mut big = CoverageMap::with_capacity(1 << 16);
        big.insert(5);
        assert_eq!(a, big);
    }

    #[test]
    fn iteration_is_sorted_and_lazy_views_match() {
        let blocks = [4096u64, 4097, 8192, 64, 0, 12345];
        let m: CoverageMap = blocks.into_iter().collect();
        let got: Vec<u64> = m.iter().collect();
        let mut want = blocks.to_vec();
        want.sort_unstable();
        assert_eq!(got, want);
        assert_eq!(m.to_btree_set(), want.iter().copied().collect());
        let owned: Vec<u64> = m.clone().into_iter().collect();
        assert_eq!(owned, want);
    }

    #[test]
    fn diff_in_and_merge_diff_agree_with_set_difference() {
        let a: CoverageMap = [1u64, 2, 3, 200].into_iter().collect();
        let b: CoverageMap = [3u64, 4, 200, 9000].into_iter().collect();
        let want: SparseCoverage = [4u64, 9000].into_iter().collect();
        // Non-mutating diff.
        let d = a.diff_in(&b);
        assert_eq!(d, want);
        assert_eq!(d.len(), 2);
        assert_eq!(a.len(), 4, "diff_in must not modify the receiver");
        // One-pass merge + diff.
        let mut m = a.clone();
        let delta = m.merge_diff(&b);
        assert_eq!(delta, want);
        let mut merged = a.clone();
        merged.merge(&b);
        assert_eq!(m, merged);
        // Re-merging contributes nothing.
        assert!(m.merge_diff(&b).is_empty());
        // Diff against an empty receiver is the whole input.
        assert_eq!(CoverageMap::new().diff_in(&b), SparseCoverage::from(&b));
        // A sparse operand gives the same answers as its dense twin.
        let sparse_b = SparseCoverage::from(&b);
        assert_eq!(a.new_blocks_in(&sparse_b), 2);
        assert_eq!(a.diff_in(&sparse_b), want);
        let mut m2 = a.clone();
        assert_eq!(m2.merge_diff(&sparse_b), want);
        assert_eq!(m2, m);
    }

    #[test]
    fn words_round_trip_restores_equal_maps() {
        let m: CoverageMap = [0u64, 63, 64, 4096, 12345].into_iter().collect();
        let restored = CoverageMap::from_words(m.words().to_vec());
        assert_eq!(m, restored);
        assert_eq!(m.len(), restored.len());
        // Trailing zero words survive the round trip as noise only.
        let mut padded = m.words().to_vec();
        padded.extend([0u64; 7]);
        assert_eq!(CoverageMap::from_words(padded), m);
        assert_eq!(CoverageMap::from_words(Vec::new()), CoverageMap::new());
    }

    #[test]
    fn disjointness() {
        let a: CoverageMap = [4096u64, 4097].into_iter().collect();
        let b: CoverageMap = [8192u64].into_iter().collect();
        let c: CoverageMap = [4097u64].into_iter().collect();
        assert!(a.is_disjoint(&b));
        assert!(!a.is_disjoint(&c));
        assert!(a.is_disjoint(&CoverageMap::new()));
    }

    /// Tiny deterministic word stream for the randomized diff tests
    /// (xorshift64*; no external RNG dependency in this crate).
    struct TestRng(u64);

    impl TestRng {
        fn next(&mut self) -> u64 {
            let mut x = self.0;
            x ^= x >> 12;
            x ^= x << 25;
            x ^= x >> 27;
            self.0 = x;
            x.wrapping_mul(0x2545_F491_4F6C_DD1D)
        }
    }

    fn random_map(rng: &mut TestRng, blocks: usize, universe: u64) -> CoverageMap {
        (0..blocks).map(|_| rng.next() % universe).collect()
    }

    #[test]
    fn word_diff_round_trips_on_random_maps() {
        let mut rng = TestRng(0x5EED);
        for case in 0..50 {
            let base = random_map(&mut rng, 40, 4096);
            let mut new = base.clone();
            new.merge(&random_map(&mut rng, (case % 7) * 3, 4096));
            let diff = new.diff_words_since(&base);
            assert_eq!(base.apply_word_diff(&diff), new, "case {case}");
        }
        // Shrinkage (base has blocks the new map lacks) is also
        // representable: the diff writes the vanished words back to
        // zero (or falls back to dense).
        let base = random_map(&mut rng, 60, 4096);
        let new = random_map(&mut rng, 10, 4096);
        assert_eq!(base.apply_word_diff(&new.diff_words_since(&base)), new);
    }

    #[test]
    fn word_diff_of_equal_maps_is_empty() {
        let m = random_map(&mut TestRng(7), 30, 2048);
        let diff = m.diff_words_since(&m);
        assert!(diff.is_empty());
        assert_eq!(diff, CoverageWordDiff::Sparse(Vec::new()));
        assert_eq!(m.apply_word_diff(&diff), m);
        // Trailing zero words are representation noise, not a diff.
        let mut padded_words = m.words().to_vec();
        padded_words.extend([0u64; 9]);
        let padded = CoverageMap::from_words(padded_words);
        assert!(m.diff_words_since(&padded).is_empty());
        assert!(padded.diff_words_since(&m).is_empty());
    }

    #[test]
    fn word_diff_falls_back_to_dense_when_the_diff_is_large() {
        // Every word changes: sparse would pay a run header on top of
        // the words, so the diff must be the dense bitmap.
        let base = CoverageMap::new();
        let new: CoverageMap = (0..4096u64).step_by(64).collect(); // one bit per word
        let diff = new.diff_words_since(&base);
        assert!(matches!(diff, CoverageWordDiff::Dense(_)), "{diff:?}");
        assert_eq!(base.apply_word_diff(&diff), new);
        // A handful of changed words in a big map stays sparse, and a
        // consecutive cluster collapses into one run.
        let big: CoverageMap = (0..100_000u64).step_by(64).collect();
        let mut grown = big.clone();
        grown.insert(640_001);
        grown.insert(640_070);
        grown.insert(640_130);
        let diff = grown.diff_words_since(&big);
        match &diff {
            CoverageWordDiff::Sparse(runs) => {
                assert_eq!(runs.len(), 1, "consecutive words must share a run");
                assert_eq!(runs[0].0, 10_000);
                assert_eq!(runs[0].1.len(), 3);
            }
            CoverageWordDiff::Dense(_) => panic!("small diff must stay sparse"),
        }
        assert!(diff.encoded_bytes() < CoverageWordDiff::dense_bytes(grown.words().len()));
        assert_eq!(big.apply_word_diff(&diff), grown);
    }

    #[test]
    fn word_diff_agrees_with_diff_in_and_merge_diff_on_random_maps() {
        let mut rng = TestRng(0xD1FF);
        for case in 0..30 {
            let base = random_map(&mut rng, 50, 8192);
            let observed = random_map(&mut rng, 25, 8192);
            // The campaign's two growth paths: diff_in + merge, and
            // one-pass merge_diff. Both must land on the same map the
            // word diff reconstructs.
            let contributed = base.diff_in(&observed);
            let mut via_merge = base.clone();
            via_merge.merge(&contributed.iter().collect());
            let mut via_merge_diff = base.clone();
            let contributed2 = via_merge_diff.merge_diff(&observed);
            assert_eq!(contributed, contributed2, "case {case}");
            assert_eq!(via_merge, via_merge_diff, "case {case}");
            let diff = via_merge.diff_words_since(&base);
            assert_eq!(base.apply_word_diff(&diff), via_merge, "case {case}");
            assert_eq!(
                base.apply_word_diff(&diff).len(),
                base.len() + contributed.len(),
                "case {case}: grown count must be base plus contribution"
            );
        }
    }

    #[test]
    fn clear_retains_nothing_logically() {
        let mut m: CoverageMap = [1u64, 2, 3].into_iter().collect();
        m.clear();
        assert!(m.is_empty());
        assert_eq!(m, CoverageMap::new());
        assert!(m.insert(2));
    }

    #[test]
    fn sparse_key_keeps_only_nonzero_words() {
        // One block far up the id space: the dense diff would be
        // 46,876 words wide, the key is one word.
        let mut union: CoverageMap = [5u64].into_iter().collect();
        let exec: CoverageMap = [5u64, 3_000_003].into_iter().collect();
        let key = union.merge_diff(&exec);
        assert_eq!(key.words(), &[(46_875, 1 << 3)]);
        assert_eq!(key.len(), 1);
        assert_eq!(key.iter().collect::<Vec<_>>(), vec![3_000_003]);
        // Nothing new: no words, no allocation, union untouched.
        let before = union.clone();
        let none = union.merge_diff(&exec);
        assert!(none.is_empty() && none.words.capacity() == 0);
        assert_eq!(union, before);
    }

    #[test]
    fn sparse_key_codec_round_trips_and_rejects_each_bad_input() {
        let key: SparseCoverage = [0u64, 63, 64, 4096, 3_000_000, 3_000_001]
            .into_iter()
            .collect();
        let mut bytes = Vec::new();
        key.encode_into(&mut bytes);
        assert_eq!(bytes.len(), 4 + 12 * key.words().len());
        let mut pos = 0;
        assert_eq!(
            SparseCoverage::decode_from(&bytes, &mut pos),
            Ok(key.clone())
        );
        assert_eq!(pos, bytes.len());

        let encode = |pairs: &[(u32, u64)], count: u32| {
            let mut out = count.to_le_bytes().to_vec();
            for &(i, w) in pairs {
                out.extend_from_slice(&i.to_le_bytes());
                out.extend_from_slice(&w.to_le_bytes());
            }
            out
        };
        let decode = |bytes: &[u8]| SparseCoverage::decode_from(bytes, &mut 0);
        assert_eq!(
            decode(&encode(&[(3, 1), (2, 1)], 2)),
            Err(KeyDecodeError::UnsortedIndex { index: 2, prev: 3 })
        );
        assert_eq!(
            decode(&encode(&[(3, 1), (3, 2)], 2)),
            Err(KeyDecodeError::UnsortedIndex { index: 3, prev: 3 })
        );
        assert_eq!(
            decode(&encode(&[(3, 0)], 1)),
            Err(KeyDecodeError::ZeroWord { index: 3 })
        );
        assert_eq!(
            decode(&encode(&[(MAX_KEY_WORD_INDEX + 1, 1)], 1)),
            Err(KeyDecodeError::IndexOutOfRange {
                index: MAX_KEY_WORD_INDEX + 1
            })
        );
        assert!(decode(&encode(&[(MAX_KEY_WORD_INDEX, 1)], 1)).is_ok());
        assert_eq!(
            decode(&encode(&[(3, 1)], u32::MAX)),
            Err(KeyDecodeError::CountExceedsInput {
                count: u32::MAX,
                remaining: 12
            })
        );
        for cut in 0..bytes.len() {
            assert!(
                decode(&bytes[..cut]).is_err(),
                "prefix of {cut} bytes decoded"
            );
        }
    }
}
