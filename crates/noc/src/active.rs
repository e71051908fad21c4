//! Dirty-tracking worklists for the active-set stepping of
//! [`crate::Network`].
//!
//! Each per-cycle pipeline stage used to scan every router (× 5 ports × 4
//! VCs), every link slot or every injection queue, making `step()` cost
//! O(mesh size) even on a completely quiet chip. The stages now walk an
//! [`ActiveSet`] — a fixed-size bitset over router/link/node indices kept
//! up to date *incrementally* as flits move — so the work per cycle is
//! proportional to activity.
//!
//! Determinism is the design constraint: the dense loops visited indices in
//! ascending order, and everything order-sensitive (ejection order, trace
//! events, round-robin pointers) depends on that. A bitset iterated
//! word-by-word, lowest set bit first, reproduces exactly that ascending
//! order, unlike an insertion-ordered worklist which would need re-sorting
//! every cycle.

/// A fixed-capacity bitset over `0..len` with O(1) insert/remove/contains,
/// an O(1) emptiness check, and ascending-order snapshot iteration.
#[derive(Debug, Clone)]
pub(crate) struct ActiveSet {
    words: Vec<u64>,
    /// Number of set bits, maintained incrementally.
    count: usize,
}

impl ActiveSet {
    /// An empty set with capacity for indices `0..len`.
    pub(crate) fn new(len: usize) -> Self {
        ActiveSet {
            words: vec![0; len.div_ceil(64)],
            count: 0,
        }
    }

    /// Marks `index` active. Idempotent.
    #[inline]
    pub(crate) fn insert(&mut self, index: usize) {
        let word = &mut self.words[index / 64];
        let bit = 1u64 << (index % 64);
        self.count += usize::from(*word & bit == 0);
        *word |= bit;
    }

    /// Marks `index` inactive. Idempotent.
    #[inline]
    pub(crate) fn remove(&mut self, index: usize) {
        let word = &mut self.words[index / 64];
        let bit = 1u64 << (index % 64);
        self.count -= usize::from(*word & bit != 0);
        *word &= !bit;
    }

    /// Whether `index` is active.
    #[inline]
    pub(crate) fn contains(&self, index: usize) -> bool {
        self.words[index / 64] & (1u64 << (index % 64)) != 0
    }

    /// Marks every index inactive.
    #[inline]
    pub(crate) fn clear(&mut self) {
        self.words.fill(0);
        self.count = 0;
    }

    /// Whether no index is active.
    #[inline]
    pub(crate) fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// Number of active indices. O(1) — maintained incrementally.
    #[inline]
    pub(crate) fn len(&self) -> usize {
        self.count
    }

    /// Snapshots the active indices into `out` (cleared first) in ascending
    /// order — the same order the dense scans visited them. The caller may
    /// then mutate the set freely while walking the snapshot.
    pub(crate) fn snapshot_into(&self, out: &mut Vec<u32>) {
        out.clear();
        if self.count == 0 {
            return;
        }
        for (wi, &word) in self.words.iter().enumerate() {
            let mut bits = word;
            while bits != 0 {
                let b = bits.trailing_zeros();
                out.push(wi as u32 * 64 + b);
                bits &= bits - 1;
            }
        }
        debug_assert_eq!(out.len(), self.count, "active-set count drifted");
    }
}

/// Iterates the set bits of one word, lowest index first.
#[derive(Debug, Clone)]
pub(crate) struct BitsIter(pub(crate) u64);

impl Iterator for BitsIter {
    type Item = usize;

    #[inline]
    fn next(&mut self) -> Option<usize> {
        if self.0 == 0 {
            return None;
        }
        let b = self.0.trailing_zeros() as usize;
        self.0 &= self.0 - 1;
        Some(b)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_remove_idempotent() {
        let mut s = ActiveSet::new(200);
        assert!(s.is_empty());
        s.insert(7);
        s.insert(7);
        s.insert(199);
        assert!(!s.is_empty());
        assert!(s.contains(7) && s.contains(199) && !s.contains(8));
        s.remove(7);
        s.remove(7);
        assert!(!s.is_empty());
        s.remove(199);
        assert!(s.is_empty());
    }

    #[test]
    fn clear_empties_the_set() {
        let mut s = ActiveSet::new(200);
        for i in [0usize, 64, 199] {
            s.insert(i);
        }
        s.clear();
        assert!(s.is_empty() && !s.contains(64));
        assert_eq!(s.len(), 0);
        let mut out = Vec::new();
        s.snapshot_into(&mut out);
        assert!(out.is_empty());
    }

    #[test]
    fn snapshot_is_ascending() {
        let mut s = ActiveSet::new(300);
        for i in [250usize, 0, 63, 64, 65, 128, 1] {
            s.insert(i);
        }
        let mut out = Vec::new();
        s.snapshot_into(&mut out);
        assert_eq!(out, vec![0, 1, 63, 64, 65, 128, 250]);
    }

    #[test]
    fn snapshot_clears_previous_contents() {
        let mut s = ActiveSet::new(10);
        s.insert(3);
        let mut out = vec![9, 9, 9];
        s.snapshot_into(&mut out);
        assert_eq!(out, vec![3]);
    }

    #[test]
    fn bits_iter_ascending() {
        let got: Vec<usize> = BitsIter(0b1010_0101).collect();
        assert_eq!(got, vec![0, 2, 5, 7]);
        assert_eq!(BitsIter(0).next(), None);
        assert_eq!(BitsIter(1 << 63).collect::<Vec<_>>(), vec![63]);
    }
}
