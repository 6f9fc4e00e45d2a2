//! Visibility sets: which Gaussians a view touches.
//!
//! CLM's offloading decisions are all expressed in terms of the per-view
//! visibility set `S_i` produced by frustum culling.  [`VisibilitySet`]
//! stores the indices as a sorted, deduplicated `Vec<u32>`, which makes the
//! set-algebra CLM needs (intersection size for Gaussian caching, symmetric
//! difference for the TSP distance, unions for finalisation analysis) cheap
//! linear merges.

use std::fmt;

/// A sorted, deduplicated set of Gaussian indices visible from one view.
///
/// ```
/// use gs_core::VisibilitySet;
/// let a = VisibilitySet::from_unsorted(vec![3, 1, 2, 3]);
/// let b = VisibilitySet::from_unsorted(vec![2, 3, 4]);
/// assert_eq!(a.len(), 3);
/// assert_eq!(a.intersection_len(&b), 2);
/// assert_eq!(a.symmetric_difference_len(&b), 2);
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Hash, Default)]
pub struct VisibilitySet {
    indices: Vec<u32>,
}

impl VisibilitySet {
    /// Creates an empty set.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates a set from indices that are already sorted and deduplicated.
    ///
    /// # Panics
    /// Panics in debug builds if the input is not strictly increasing.
    pub fn from_sorted(indices: Vec<u32>) -> Self {
        debug_assert!(
            indices.windows(2).all(|w| w[0] < w[1]),
            "indices must be strictly increasing"
        );
        VisibilitySet { indices }
    }

    /// Creates a set from arbitrary indices, sorting and deduplicating.
    pub fn from_unsorted(mut indices: Vec<u32>) -> Self {
        indices.sort_unstable();
        indices.dedup();
        VisibilitySet { indices }
    }

    /// Number of Gaussians in the set.
    pub fn len(&self) -> usize {
        self.indices.len()
    }

    /// Whether the set is empty.
    pub fn is_empty(&self) -> bool {
        self.indices.is_empty()
    }

    /// The sorted indices.
    pub fn indices(&self) -> &[u32] {
        &self.indices
    }

    /// Whether the set contains `index`.
    pub fn contains(&self, index: u32) -> bool {
        self.indices.binary_search(&index).is_ok()
    }

    /// Sparsity ρ = |S| / N for a scene with `total` Gaussians.
    ///
    /// Returns 0 for an empty scene.
    pub fn sparsity(&self, total: usize) -> f64 {
        if total == 0 {
            0.0
        } else {
            self.len() as f64 / total as f64
        }
    }

    /// Size of the intersection `|self ∩ other|`.
    pub fn intersection_len(&self, other: &VisibilitySet) -> usize {
        merge_count(&self.indices, &other.indices).both
    }

    /// Size of the union `|self ∪ other|`.
    pub fn union_len(&self, other: &VisibilitySet) -> usize {
        let c = merge_count(&self.indices, &other.indices);
        c.only_a + c.only_b + c.both
    }

    /// Size of the symmetric difference `|self ⊕ other|` — the TSP distance
    /// used by CLM's pipeline order optimisation (§4.2.3).
    pub fn symmetric_difference_len(&self, other: &VisibilitySet) -> usize {
        let c = merge_count(&self.indices, &other.indices);
        c.only_a + c.only_b
    }

    /// Elements of `self` that are also in `other` (`self ∩ other`), i.e.
    /// the Gaussians CLM can serve from the on-GPU cache when `other` was
    /// the previous micro-batch.
    pub fn intersection(&self, other: &VisibilitySet) -> VisibilitySet {
        let mut out = Vec::with_capacity(self.len().min(other.len()));
        merge_visit(&self.indices, &other.indices, |v, in_a, in_b| {
            if in_a && in_b {
                out.push(v);
            }
        });
        VisibilitySet { indices: out }
    }

    /// Elements of `self` that are **not** in `other` (`self \ other`), i.e.
    /// the Gaussians that must be fetched over PCIe.
    pub fn difference(&self, other: &VisibilitySet) -> VisibilitySet {
        let mut out = Vec::with_capacity(self.len());
        merge_visit(&self.indices, &other.indices, |v, in_a, in_b| {
            if in_a && !in_b {
                out.push(v);
            }
        });
        VisibilitySet { indices: out }
    }

    /// The indices below `total` that are **not** in the set — `(0..total)
    /// \ self` in one pass, without building the range.
    pub fn complement(&self, total: usize) -> VisibilitySet {
        let mut out = Vec::with_capacity(total.saturating_sub(self.len()));
        let mut next = 0;
        for &i in self.indices.iter().take_while(|&&i| (i as usize) < total) {
            out.extend(next..i);
            next = i + 1;
        }
        out.extend(next..total as u32);
        VisibilitySet { indices: out }
    }

    /// Union of the two sets.
    pub fn union(&self, other: &VisibilitySet) -> VisibilitySet {
        let mut out = Vec::with_capacity(self.len() + other.len());
        merge_visit(&self.indices, &other.indices, |v, _, _| out.push(v));
        VisibilitySet { indices: out }
    }

    /// Iterator over the contained indices.
    pub fn iter(&self) -> impl Iterator<Item = u32> + '_ {
        self.indices.iter().copied()
    }
}

impl FromIterator<u32> for VisibilitySet {
    fn from_iter<T: IntoIterator<Item = u32>>(iter: T) -> Self {
        VisibilitySet::from_unsorted(iter.into_iter().collect())
    }
}

impl fmt::Display for VisibilitySet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "VisibilitySet({} gaussians)", self.len())
    }
}

struct MergeCounts {
    only_a: usize,
    only_b: usize,
    both: usize,
}

fn merge_count(a: &[u32], b: &[u32]) -> MergeCounts {
    let mut counts = MergeCounts {
        only_a: 0,
        only_b: 0,
        both: 0,
    };
    merge_visit(a, b, |_, in_a, in_b| match (in_a, in_b) {
        (true, true) => counts.both += 1,
        (true, false) => counts.only_a += 1,
        (false, true) => counts.only_b += 1,
        (false, false) => unreachable!(),
    });
    counts
}

/// Walks two sorted index slices in lockstep, invoking `visit(value, in_a,
/// in_b)` exactly once per distinct value.
fn merge_visit(a: &[u32], b: &[u32], mut visit: impl FnMut(u32, bool, bool)) {
    let (mut i, mut j) = (0, 0);
    while i < a.len() && j < b.len() {
        match a[i].cmp(&b[j]) {
            std::cmp::Ordering::Less => {
                visit(a[i], true, false);
                i += 1;
            }
            std::cmp::Ordering::Greater => {
                visit(b[j], false, true);
                j += 1;
            }
            std::cmp::Ordering::Equal => {
                visit(a[i], true, true);
                i += 1;
                j += 1;
            }
        }
    }
    while i < a.len() {
        visit(a[i], true, false);
        i += 1;
    }
    while j < b.len() {
        visit(b[j], false, true);
        j += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::collections::BTreeSet;

    #[test]
    fn from_unsorted_sorts_and_dedups() {
        let s = VisibilitySet::from_unsorted(vec![5, 1, 3, 1, 5]);
        assert_eq!(s.indices(), &[1, 3, 5]);
        assert_eq!(s.len(), 3);
    }

    #[test]
    fn contains_and_sparsity() {
        let s = VisibilitySet::from_unsorted(vec![0, 10, 20]);
        assert!(s.contains(10));
        assert!(!s.contains(11));
        assert!((s.sparsity(100) - 0.03).abs() < 1e-12);
        assert_eq!(s.sparsity(0), 0.0);
    }

    #[test]
    fn set_algebra_small_cases() {
        let a = VisibilitySet::from_unsorted(vec![1, 2, 3, 4]);
        let b = VisibilitySet::from_unsorted(vec![3, 4, 5]);
        assert_eq!(a.intersection_len(&b), 2);
        assert_eq!(a.union_len(&b), 5);
        assert_eq!(a.symmetric_difference_len(&b), 3);
        assert_eq!(a.intersection(&b).indices(), &[3, 4]);
        assert_eq!(a.difference(&b).indices(), &[1, 2]);
        assert_eq!(b.difference(&a).indices(), &[5]);
        assert_eq!(a.union(&b).indices(), &[1, 2, 3, 4, 5]);
    }

    #[test]
    fn empty_set_behaviour() {
        let empty = VisibilitySet::new();
        let a = VisibilitySet::from_unsorted(vec![1, 2]);
        assert!(empty.is_empty());
        assert_eq!(empty.intersection_len(&a), 0);
        assert_eq!(empty.union_len(&a), 2);
        assert_eq!(empty.symmetric_difference_len(&a), 2);
    }

    #[test]
    fn display_reports_cardinality() {
        let s = VisibilitySet::from_unsorted(vec![4, 9]);
        assert_eq!(format!("{s}"), "VisibilitySet(2 gaussians)");
    }

    #[test]
    fn from_iterator_collects() {
        let s: VisibilitySet = [9u32, 2, 2, 5].into_iter().collect();
        assert_eq!(s.indices(), &[2, 5, 9]);
    }

    fn to_btree(s: &VisibilitySet) -> BTreeSet<u32> {
        s.iter().collect()
    }

    proptest! {
        #[test]
        fn prop_set_algebra_matches_btreeset(a in proptest::collection::vec(0u32..200, 0..100),
                                             b in proptest::collection::vec(0u32..200, 0..100)) {
            let sa = VisibilitySet::from_unsorted(a.clone());
            let sb = VisibilitySet::from_unsorted(b.clone());
            let ba: BTreeSet<u32> = a.into_iter().collect();
            let bb: BTreeSet<u32> = b.into_iter().collect();

            prop_assert_eq!(sa.intersection_len(&sb), ba.intersection(&bb).count());
            prop_assert_eq!(sa.union_len(&sb), ba.union(&bb).count());
            prop_assert_eq!(sa.symmetric_difference_len(&sb),
                            ba.symmetric_difference(&bb).count());
            prop_assert_eq!(to_btree(&sa.intersection(&sb)),
                            ba.intersection(&bb).copied().collect::<BTreeSet<_>>());
            prop_assert_eq!(to_btree(&sa.difference(&sb)),
                            ba.difference(&bb).copied().collect::<BTreeSet<_>>());
            prop_assert_eq!(to_btree(&sa.union(&sb)),
                            ba.union(&bb).copied().collect::<BTreeSet<_>>());
            for total in [0u32, 1, 150, 200, 250] {
                let range: VisibilitySet = (0..total).collect();
                prop_assert_eq!(sa.complement(total as usize), range.difference(&sa));
            }
        }

        #[test]
        fn prop_symmetric_difference_is_union_minus_intersection(
            a in proptest::collection::vec(0u32..500, 0..200),
            b in proptest::collection::vec(0u32..500, 0..200)
        ) {
            let sa = VisibilitySet::from_unsorted(a);
            let sb = VisibilitySet::from_unsorted(b);
            prop_assert_eq!(
                sa.symmetric_difference_len(&sb),
                sa.union_len(&sb) - sa.intersection_len(&sb)
            );
        }

        #[test]
        fn prop_tsp_distance_is_a_metric(
            a in proptest::collection::vec(0u32..100, 0..60),
            b in proptest::collection::vec(0u32..100, 0..60),
            c in proptest::collection::vec(0u32..100, 0..60)
        ) {
            // The symmetric-difference distance must satisfy the triangle
            // inequality (the paper relies on the instance being a metric
            // TSP, Appendix A.1).
            let sa = VisibilitySet::from_unsorted(a);
            let sb = VisibilitySet::from_unsorted(b);
            let sc = VisibilitySet::from_unsorted(c);
            let dab = sa.symmetric_difference_len(&sb);
            let dbc = sb.symmetric_difference_len(&sc);
            let dac = sa.symmetric_difference_len(&sc);
            prop_assert!(dac <= dab + dbc);
            // Symmetry and identity.
            prop_assert_eq!(dab, sb.symmetric_difference_len(&sa));
            prop_assert_eq!(sa.symmetric_difference_len(&sa), 0);
        }
    }
}
