//! Precise Gaussian caching (§4.2.1).
//!
//! Consecutive micro-batches share Gaussians because of spatial locality.
//! The culling step already knows each micro-batch's visibility set, so CLM
//! can serve the intersection `S_i ∩ S_{i+1}` from the GPU-resident double
//! buffer instead of re-fetching it over PCIe — and, symmetrically, keep the
//! gradients of shared Gaussians on the GPU for accumulation instead of
//! round-tripping them through host memory.  [`CachePlan`] captures exactly
//! that decision for one micro-batch transition.

use crate::offload::NON_CRITICAL_BYTES;
use gs_core::visibility::VisibilitySet;

/// The data-movement plan for loading one micro-batch's parameters and
/// retiring the previous micro-batch's gradients.
#[derive(Debug, Clone, PartialEq)]
pub struct CachePlan {
    /// Gaussians of the current micro-batch served from the on-GPU cache
    /// (`S_cur ∩ S_prev`).
    pub cached: VisibilitySet,
    /// Gaussians that must be fetched from pinned host memory
    /// (`S_cur \ S_prev`).
    pub fetched: VisibilitySet,
    /// Gaussians of the previous micro-batch whose gradients must be stored
    /// to host memory now (`S_prev \ S_cur`).
    pub grads_to_store: VisibilitySet,
    /// Gaussians of the previous micro-batch whose gradients stay on the GPU
    /// to be accumulated into the next micro-batch (`S_prev ∩ S_cur`).
    pub grads_to_keep: VisibilitySet,
}

impl CachePlan {
    /// Builds the plan for moving from `prev` (the previous micro-batch's
    /// visibility set, or an empty set at the start of a batch) to `cur`.
    pub fn new(prev: &VisibilitySet, cur: &VisibilitySet) -> Self {
        CachePlan {
            cached: cur.intersection(prev),
            fetched: cur.difference(prev),
            grads_to_store: prev.difference(cur),
            grads_to_keep: prev.intersection(cur),
        }
    }

    /// Builds the plan for the first micro-batch of a batch (nothing cached).
    pub fn cold(cur: &VisibilitySet) -> Self {
        Self::new(&VisibilitySet::new(), cur)
    }

    /// Bytes of parameters fetched over PCIe for this transition
    /// (non-critical attributes only; selection-critical never move).
    pub fn fetch_bytes(&self) -> u64 {
        (self.fetched.len() * NON_CRITICAL_BYTES) as u64
    }

    /// Fraction of the current working set served from the cache
    /// (0 when the working set is empty).
    pub fn hit_rate(&self) -> f64 {
        let total = self.cached.len() + self.fetched.len();
        if total == 0 {
            0.0
        } else {
            self.cached.len() as f64 / total as f64
        }
    }

    /// Sanity check: the plan partitions the current and previous sets.
    pub fn is_consistent_with(&self, prev: &VisibilitySet, cur: &VisibilitySet) -> bool {
        self.cached.len() + self.fetched.len() == cur.len()
            && self.grads_to_store.len() + self.grads_to_keep.len() == prev.len()
            && self.cached.union(&self.fetched) == *cur
            && self.grads_to_store.union(&self.grads_to_keep) == *prev
    }
}

/// Builds the cache plans for a whole ordered batch of visibility sets,
/// including a final "flush" plan that stores the last micro-batch's
/// gradients.
///
/// The returned vector has `sets.len() + 1` entries: one per micro-batch
/// plus the flush.
pub fn plan_batch(sets: &[VisibilitySet]) -> Vec<CachePlan> {
    let mut plans = Vec::with_capacity(sets.len() + 1);
    let empty = VisibilitySet::new();
    let mut prev = &empty;
    for cur in sets {
        plans.push(CachePlan::new(prev, cur));
        prev = cur;
    }
    // Flush: everything still on the GPU goes back to host memory.
    plans.push(CachePlan::new(prev, &empty));
    plans
}

/// Total CPU→GPU parameter bytes for an ordered batch **with** caching.
pub fn batch_fetch_bytes(sets: &[VisibilitySet]) -> u64 {
    plan_batch(sets).iter().map(CachePlan::fetch_bytes).sum()
}

/// Total CPU→GPU parameter bytes for the same batch **without** caching
/// (every micro-batch reloads its full working set).
pub fn batch_fetch_bytes_no_cache(sets: &[VisibilitySet]) -> u64 {
    sets.iter()
        .map(|s| (s.len() * NON_CRITICAL_BYTES) as u64)
        .sum()
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn set(v: &[u32]) -> VisibilitySet {
        VisibilitySet::from_unsorted(v.to_vec())
    }

    #[test]
    fn plan_partitions_both_sets() {
        let prev = set(&[1, 2, 3, 4]);
        let cur = set(&[3, 4, 5, 6, 7]);
        let plan = CachePlan::new(&prev, &cur);
        assert_eq!(plan.cached.indices(), &[3, 4]);
        assert_eq!(plan.fetched.indices(), &[5, 6, 7]);
        assert_eq!(plan.grads_to_store.indices(), &[1, 2]);
        assert_eq!(plan.grads_to_keep.indices(), &[3, 4]);
        assert!(plan.is_consistent_with(&prev, &cur));
        assert!((plan.hit_rate() - 0.4).abs() < 1e-12);
    }

    #[test]
    fn cold_plan_fetches_everything() {
        let cur = set(&[10, 20]);
        let plan = CachePlan::cold(&cur);
        assert_eq!(plan.fetched, cur);
        assert!(plan.cached.is_empty());
        assert_eq!(plan.fetch_bytes(), 2 * NON_CRITICAL_BYTES as u64);
        assert_eq!(plan.hit_rate(), 0.0);
    }

    #[test]
    fn batch_plans_include_flush() {
        let sets = vec![set(&[1, 2]), set(&[2, 3])];
        let plans = plan_batch(&sets);
        assert_eq!(plans.len(), 3);
        // Flush stores gradients of the last micro-batch that were not
        // already stored.
        assert_eq!(plans[2].grads_to_store, sets[1]);
        // Every gradient is stored exactly once across the batch.
        let stored: usize = plans.iter().map(|p| p.grads_to_store.len()).sum();
        let union = sets[0].union(&sets[1]);
        // {1} stored at transition, {2,3} at flush -> |{1}| + |{2,3}| = 3 = |union|.
        assert_eq!(stored, union.len());
    }

    #[test]
    fn caching_never_increases_traffic() {
        let sets = vec![set(&[1, 2, 3]), set(&[2, 3, 4]), set(&[3, 4, 5])];
        assert!(batch_fetch_bytes(&sets) <= batch_fetch_bytes_no_cache(&sets));
        // With identical consecutive sets the saving is maximal.
        let identical = vec![set(&[1, 2, 3]); 4];
        assert_eq!(
            batch_fetch_bytes(&identical),
            (3 * NON_CRITICAL_BYTES) as u64,
            "only the first micro-batch should fetch anything"
        );
    }

    #[test]
    fn disjoint_sets_get_no_benefit() {
        let sets = vec![set(&[1, 2]), set(&[3, 4]), set(&[5, 6])];
        assert_eq!(batch_fetch_bytes(&sets), batch_fetch_bytes_no_cache(&sets));
    }

    proptest! {
        #[test]
        fn prop_plan_is_always_consistent(
            prev in proptest::collection::vec(0u32..100, 0..50),
            cur in proptest::collection::vec(0u32..100, 0..50)
        ) {
            let prev = VisibilitySet::from_unsorted(prev);
            let cur = VisibilitySet::from_unsorted(cur);
            let plan = CachePlan::new(&prev, &cur);
            prop_assert!(plan.is_consistent_with(&prev, &cur));
            prop_assert!(plan.hit_rate() >= 0.0 && plan.hit_rate() <= 1.0);
        }

        #[test]
        fn prop_every_touched_gradient_reaches_host_memory(
            raw in proptest::collection::vec(proptest::collection::vec(0u32..60, 1..30), 1..8)
        ) {
            // Every Gaussian touched by the batch must have its gradient
            // stored to host memory at least once (a Gaussian that leaves
            // and re-enters the working set is stored more than once; the
            // gradient-offload kernel accumulates in that case, §5.3).
            let sets: Vec<VisibilitySet> =
                raw.into_iter().map(VisibilitySet::from_unsorted).collect();
            let plans = plan_batch(&sets);
            let mut seen = VisibilitySet::new();
            let mut total_stored = 0usize;
            for p in &plans {
                seen = seen.union(&p.grads_to_store);
                total_stored += p.grads_to_store.len();
            }
            let mut union = VisibilitySet::new();
            for s in &sets {
                union = union.union(s);
            }
            prop_assert_eq!(&seen, &union);
            prop_assert!(total_stored >= union.len());
        }
    }
}
