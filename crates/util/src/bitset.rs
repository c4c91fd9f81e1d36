//! A fixed-capacity bit set over `u64` words.
//!
//! The simulation loops in `cobra-process` test and flip vertex membership
//! millions of times per run; this bit set keeps those operations to a
//! couple of ALU instructions with no bounds surprises. Capacity is fixed
//! at construction (the number of vertices of the graph under study).

/// Fixed-capacity bit set.
///
/// All indices must be `< len()`; out-of-range access panics (debug and
/// release), which in this workspace always indicates a vertex-id bug.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct BitSet {
    words: Vec<u64>,
    len: usize,
    ones: usize,
}

const WORD_BITS: usize = 64;

impl BitSet {
    /// Creates an empty set with capacity for `len` elements.
    pub fn new(len: usize) -> Self {
        BitSet {
            words: vec![0u64; len.div_ceil(WORD_BITS)],
            len,
            ones: 0,
        }
    }

    /// Capacity (the universe size), not the number of set bits.
    #[inline]
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when the universe is empty (capacity zero).
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Number of set bits. O(1): maintained incrementally.
    #[inline]
    pub fn count(&self) -> usize {
        self.ones
    }

    /// True if every element of the universe is set.
    #[inline]
    pub fn is_full(&self) -> bool {
        self.ones == self.len
    }

    /// Tests membership of `idx`.
    #[inline]
    pub fn contains(&self, idx: usize) -> bool {
        assert!(
            idx < self.len,
            "BitSet index {idx} out of range {}",
            self.len
        );
        (self.words[idx / WORD_BITS] >> (idx % WORD_BITS)) & 1 == 1
    }

    /// Inserts `idx`; returns true if it was newly inserted.
    #[inline]
    pub fn insert(&mut self, idx: usize) -> bool {
        assert!(
            idx < self.len,
            "BitSet index {idx} out of range {}",
            self.len
        );
        let w = &mut self.words[idx / WORD_BITS];
        let mask = 1u64 << (idx % WORD_BITS);
        if *w & mask == 0 {
            *w |= mask;
            self.ones += 1;
            true
        } else {
            false
        }
    }

    /// Sets `idx`; returns true if it was newly set. Same result and
    /// `count()` as [`insert`](Self::insert), without its data-dependent
    /// branch: the word is always stored and the fresh bit is added to
    /// the count arithmetically. For arrival streams whose new/seen
    /// outcome is a coin flip (the COBRA coalesce pass); `insert` stays
    /// the cheaper call when one outcome dominates.
    #[inline]
    pub fn test_and_set(&mut self, idx: usize) -> bool {
        assert!(
            idx < self.len,
            "BitSet index {idx} out of range {}",
            self.len
        );
        let w = &mut self.words[idx / WORD_BITS];
        let shift = idx % WORD_BITS;
        let fresh = (!*w >> shift) & 1;
        *w |= 1u64 << shift;
        self.ones += fresh as usize;
        fresh == 1
    }

    /// Sets `idx` without maintaining the `count()` accounting: a
    /// branchless load-OR-store, vs [`insert`](Self::insert)'s
    /// was-it-new test — a branch that coalescing arrival streams make
    /// unpredictable. For write-heavy sets whose owner never reads
    /// `count()` (the sharded COBRA frontier reads membership words,
    /// not cardinality). `count()` is stale until the next
    /// [`clear`](Self::clear) or [`union_with`](Self::union_with).
    #[inline]
    pub fn set_uncounted(&mut self, idx: usize) {
        assert!(
            idx < self.len,
            "BitSet index {idx} out of range {}",
            self.len
        );
        self.words[idx / WORD_BITS] |= 1u64 << (idx % WORD_BITS);
    }

    /// Removes `idx`; returns true if it was present.
    #[inline]
    pub fn remove(&mut self, idx: usize) -> bool {
        assert!(
            idx < self.len,
            "BitSet index {idx} out of range {}",
            self.len
        );
        let w = &mut self.words[idx / WORD_BITS];
        let mask = 1u64 << (idx % WORD_BITS);
        if *w & mask != 0 {
            *w &= !mask;
            self.ones -= 1;
            true
        } else {
            false
        }
    }

    /// Clears all bits. O(words).
    pub fn clear(&mut self) {
        self.words.fill(0);
        self.ones = 0;
    }

    /// Clears exactly the listed indices.
    ///
    /// The round loops track which bits they set and clear only those,
    /// which beats an O(n/64) full clear when the active set is small.
    pub fn clear_indices(&mut self, indices: &[u32]) {
        for &idx in indices {
            self.remove(idx as usize);
        }
    }

    /// Iterates over set bits in increasing order.
    pub fn iter(&self) -> impl Iterator<Item = usize> + '_ {
        self.words.iter().enumerate().flat_map(|(wi, &w)| {
            let mut w = w;
            std::iter::from_fn(move || {
                if w == 0 {
                    None
                } else {
                    let bit = w.trailing_zeros() as usize;
                    w &= w - 1;
                    Some(wi * WORD_BITS + bit)
                }
            })
        })
    }

    /// Collects the set bits as `u32` vertex ids.
    pub fn to_vec(&self) -> Vec<u32> {
        self.iter().map(|i| i as u32).collect()
    }

    /// True if `self` and `other` share at least one set bit.
    /// Universes must match.
    pub fn intersects(&self, other: &BitSet) -> bool {
        assert_eq!(self.len, other.len, "BitSet universe mismatch");
        self.words
            .iter()
            .zip(other.words.iter())
            .any(|(a, b)| a & b != 0)
    }

    /// Number of elements in the intersection.
    pub fn intersection_count(&self, other: &BitSet) -> usize {
        assert_eq!(self.len, other.len, "BitSet universe mismatch");
        self.words
            .iter()
            .zip(other.words.iter())
            .map(|(a, b)| (a & b).count_ones() as usize)
            .sum()
    }

    /// In-place union with `other`.
    pub fn union_with(&mut self, other: &BitSet) {
        assert_eq!(self.len, other.len, "BitSet universe mismatch");
        let mut ones = 0usize;
        for (a, b) in self.words.iter_mut().zip(other.words.iter()) {
            *a |= b;
            ones += a.count_ones() as usize;
        }
        self.ones = ones;
    }

    /// The backing words, least-significant bit = lowest index. Bits at
    /// positions `>= len()` are always zero.
    #[inline]
    pub fn words(&self) -> &[u64] {
        &self.words
    }

    /// ORs `bits` into word `wi` and returns the mask of *newly set*
    /// bits. The word-level primitive of the sharded engine's merge
    /// pass (`visited |= next`, counting fresh coverage per word
    /// instead of per bit). `bits` must not address positions `>=
    /// len()`.
    #[inline]
    pub fn or_word(&mut self, wi: usize, bits: u64) -> u64 {
        debug_assert!(
            (wi + 1) * WORD_BITS <= self.len || bits >> (self.len - wi * WORD_BITS) == 0,
            "or_word sets bits beyond len {}",
            self.len
        );
        let w = &mut self.words[wi];
        let new = bits & !*w;
        *w |= bits;
        self.ones += new.count_ones() as usize;
        new
    }

    /// Builds a set from a list of indices (duplicates allowed).
    pub fn from_indices(len: usize, indices: &[u32]) -> Self {
        let mut s = BitSet::new(len);
        for &i in indices {
            s.insert(i as usize);
        }
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn new_is_empty() {
        let s = BitSet::new(130);
        assert_eq!(s.count(), 0);
        assert_eq!(s.len(), 130);
        assert!(!s.is_full());
        for i in 0..130 {
            assert!(!s.contains(i));
        }
    }

    #[test]
    fn zero_capacity_set_is_full_and_empty() {
        let s = BitSet::new(0);
        assert!(s.is_empty());
        assert!(s.is_full(), "vacuously full");
        assert_eq!(s.iter().count(), 0);
    }

    #[test]
    fn insert_remove_roundtrip() {
        let mut s = BitSet::new(100);
        assert!(s.insert(63));
        assert!(s.insert(64));
        assert!(!s.insert(63), "double insert reports false");
        assert_eq!(s.count(), 2);
        assert!(s.contains(63));
        assert!(s.contains(64));
        assert!(s.remove(63));
        assert!(!s.remove(63), "double remove reports false");
        assert_eq!(s.count(), 1);
    }

    #[test]
    fn iter_is_sorted_and_complete() {
        let mut s = BitSet::new(200);
        let idxs = [0usize, 1, 63, 64, 65, 127, 128, 199];
        for &i in &idxs {
            s.insert(i);
        }
        let got: Vec<usize> = s.iter().collect();
        assert_eq!(got, idxs.to_vec());
    }

    #[test]
    fn is_full_detects_saturation() {
        let mut s = BitSet::new(65);
        for i in 0..65 {
            s.insert(i);
        }
        assert!(s.is_full());
        s.remove(64);
        assert!(!s.is_full());
    }

    #[test]
    fn clear_indices_matches_full_clear() {
        let mut a = BitSet::new(300);
        let idxs: Vec<u32> = vec![3, 77, 150, 299];
        for &i in &idxs {
            a.insert(i as usize);
        }
        a.clear_indices(&idxs);
        assert_eq!(a, BitSet::new(300));
    }

    #[test]
    fn intersects_and_counts() {
        let a = BitSet::from_indices(128, &[1, 70, 100]);
        let b = BitSet::from_indices(128, &[2, 70, 101]);
        assert!(a.intersects(&b));
        assert_eq!(a.intersection_count(&b), 1);
        let c = BitSet::from_indices(128, &[3, 4]);
        assert!(!a.intersects(&c));
        assert_eq!(a.intersection_count(&c), 0);
    }

    #[test]
    fn union_with_updates_count() {
        let mut a = BitSet::from_indices(128, &[1, 2, 3]);
        let b = BitSet::from_indices(128, &[3, 4]);
        a.union_with(&b);
        assert_eq!(a.count(), 4);
        assert!(a.contains(4));
    }

    #[test]
    fn or_word_reports_new_bits_and_maintains_count() {
        let mut s = BitSet::new(130);
        s.insert(1);
        s.insert(64);
        // Word 0: bit 1 already set, bits 0 and 3 are new.
        assert_eq!(s.or_word(0, 0b1011), 0b1001);
        assert_eq!(s.count(), 4);
        // Idempotent re-OR reports nothing new.
        assert_eq!(s.or_word(0, 0b1011), 0);
        assert_eq!(s.count(), 4);
        // Final partial word accepts in-range bits.
        assert_eq!(s.or_word(2, 0b10), 0b10);
        assert!(s.contains(129));
        let got: Vec<usize> = s.iter().collect();
        assert_eq!(got, vec![0, 1, 3, 64, 129]);
        assert_eq!(s.words()[0], 0b1011);
    }

    #[test]
    fn set_uncounted_sets_membership_and_clear_resyncs() {
        let mut s = BitSet::new(130);
        s.set_uncounted(0);
        s.set_uncounted(65);
        s.set_uncounted(65);
        assert!(s.contains(0) && s.contains(65));
        assert_eq!(s.iter().collect::<Vec<_>>(), vec![0, 65]);
        assert_eq!(s.words()[1], 0b10);
        s.clear();
        assert_eq!(s.count(), 0);
        assert!(!s.contains(65));
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn set_uncounted_checks_bounds() {
        let mut s = BitSet::new(10);
        s.set_uncounted(10);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_panics() {
        let s = BitSet::new(10);
        s.contains(10);
    }

    #[test]
    #[should_panic(expected = "universe mismatch")]
    fn universe_mismatch_panics() {
        let a = BitSet::new(10);
        let b = BitSet::new(11);
        a.intersects(&b);
    }

    proptest! {
        /// The bit set agrees with a reference `std` set under arbitrary
        /// insert/remove sequences.
        #[test]
        fn matches_reference_model(ops in proptest::collection::vec((0usize..256, any::<bool>()), 0..400)) {
            let mut s = BitSet::new(256);
            let mut model = std::collections::BTreeSet::new();
            for (idx, insert) in ops {
                if insert {
                    prop_assert_eq!(s.insert(idx), model.insert(idx));
                } else {
                    prop_assert_eq!(s.remove(idx), model.remove(&idx));
                }
            }
            prop_assert_eq!(s.count(), model.len());
            let got: Vec<usize> = s.iter().collect();
            let want: Vec<usize> = model.into_iter().collect();
            prop_assert_eq!(got, want);
        }

        /// `test_and_set` is `insert` without the branch: same return
        /// values, same count, same words.
        #[test]
        fn test_and_set_matches_insert(idxs in proptest::collection::vec(0usize..300, 0..400)) {
            let mut a = BitSet::new(300);
            let mut b = BitSet::new(300);
            for idx in idxs {
                prop_assert_eq!(a.test_and_set(idx), b.insert(idx));
                prop_assert_eq!(a.count(), b.count());
            }
            prop_assert_eq!(a.words(), b.words());
        }

        /// The COBRA kernel's two ways to end a round agree: folding the
        /// whole mark into `visited` and clearing it (dense rounds) leaves
        /// both sets as per-index inserts plus `clear_indices` (sparse
        /// rounds) do.
        #[test]
        fn dense_fold_and_clear_matches_the_per_index_path(
            seen in proptest::collection::vec(0u32..300, 0..100),
            arrivals in proptest::collection::vec(0u32..300, 0..400),
        ) {
            let mut dense_visited = BitSet::from_indices(300, &seen);
            let mut sparse_visited = dense_visited.clone();
            let mut dense_mark = BitSet::new(300);
            let mut sparse_mark = BitSet::new(300);
            let mut fresh = Vec::new();
            for &w in &arrivals {
                dense_mark.test_and_set(w as usize);
                sparse_visited.test_and_set(w as usize);
                if sparse_mark.test_and_set(w as usize) {
                    fresh.push(w);
                }
            }
            dense_visited.union_with(&dense_mark);
            dense_mark.clear();
            sparse_mark.clear_indices(&fresh);
            prop_assert_eq!(dense_visited, sparse_visited);
            prop_assert_eq!(dense_mark, sparse_mark);
        }

        /// from_indices tolerates duplicates and counts distinct elements.
        #[test]
        fn from_indices_dedups(mut idxs in proptest::collection::vec(0u32..512, 0..100)) {
            let s = BitSet::from_indices(512, &idxs);
            idxs.sort_unstable();
            idxs.dedup();
            prop_assert_eq!(s.count(), idxs.len());
        }
    }
}
