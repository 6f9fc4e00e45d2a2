//! Adaptive densification and pruning (§2.1).
//!
//! 3DGS periodically clones / splits Gaussians in regions with large
//! reconstruction error (approximated by large positional gradients) and
//! prunes Gaussians whose opacity has collapsed.  CLM inherits this
//! mechanism unchanged; it matters to the reproduction because it is the
//! reason model size — and therefore memory demand — grows during training,
//! and because the resulting allocation churn drives the fragmentation
//! behaviour discussed in Appendix A.3.

use gs_core::gaussian::GaussianModel;
use gs_core::math::{sigmoid, Vec3};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Densification / pruning thresholds.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DensifyConfig {
    /// Positional-gradient norm above which a Gaussian is densified.
    pub grad_threshold: f32,
    /// Scale (world units) above which a densified Gaussian is split rather
    /// than cloned.
    pub split_scale_threshold: f32,
    /// Opacity below which a Gaussian is pruned.
    pub prune_opacity: f32,
    /// Hard cap on the model size after densification (0 = unlimited).
    pub max_gaussians: usize,
    /// RNG seed for split-offset sampling.
    pub seed: u64,
}

impl Default for DensifyConfig {
    fn default() -> Self {
        DensifyConfig {
            grad_threshold: 2.0e-4,
            split_scale_threshold: 0.05,
            prune_opacity: 0.01,
            max_gaussians: 0,
            seed: 17,
        }
    }
}

/// What one densification pass did.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct DensifyReport {
    /// Gaussians cloned (small, high-gradient).
    pub cloned: usize,
    /// Gaussians split in two (large, high-gradient).
    pub split: usize,
    /// Gaussians removed because their opacity collapsed.
    pub pruned: usize,
}

impl DensifyReport {
    /// Net change in model size.
    pub fn net_growth(&self) -> isize {
        (self.cloned + self.split) as isize - self.pruned as isize
    }
}

/// Factor a split shrinks both resulting Gaussians by (~60% of the original
/// size, as in the reference implementation).
const SPLIT_SHRINK: f32 = 0.6;

/// One planned densification action.  `source` is a **post-prune** row index;
/// every action appends exactly one new row to the model.
#[derive(Debug, Clone, PartialEq)]
pub enum ResizeAction {
    /// Append an exact copy of the source row (small, high-gradient
    /// Gaussian); optimisation separates the copies later.
    Clone {
        /// Post-prune index of the cloned Gaussian.
        source: u32,
    },
    /// Shrink the source row in place and append a sibling displaced by
    /// `offset` (large, high-gradient Gaussian).
    Split {
        /// Post-prune index of the split Gaussian.
        source: u32,
        /// World-space displacement of the appended sibling.
        offset: Vec3,
    },
}

impl ResizeAction {
    /// The post-prune row index the action reads (and, for a split,
    /// rewrites).
    pub fn source(&self) -> u32 {
        match self {
            ResizeAction::Clone { source } | ResizeAction::Split { source, .. } => *source,
        }
    }
}

/// A fully planned model resize: the prune set, the densification actions
/// and their deterministic application order.
///
/// The event is what a training runtime hands around at a densification
/// boundary: [`plan_resize`] computes it **without touching the model**, so
/// every execution backend (synchronous, pipelined, threaded, sharded) can
/// drain its in-flight lanes, apply the identical row edits via
/// [`apply_resize`], and resize its aligned per-row state (optimiser
/// moments, offloaded attribute rows, gradient-norm accumulators) through
/// [`remap_rows`](Self::remap_rows) — keeping the training trajectory
/// bit-identical across backends.
///
/// Ordering is canonical by construction: `pruned` is ascending, actions are
/// emitted in ascending source order, and each action appends exactly one
/// row, so the post-resize row numbering is a pure function of the event.
#[derive(Debug, Clone, PartialEq)]
pub struct ResizeEvent {
    /// Model size the event was planned against.
    pub old_len: usize,
    /// Sorted, deduplicated **pre-resize** indices removed by the prune
    /// phase.
    pub pruned: Vec<u32>,
    /// Densification actions in application (= append) order; sources are
    /// post-prune indices, strictly ascending.
    pub actions: Vec<ResizeAction>,
}

impl ResizeEvent {
    /// Model size after the event is applied.
    pub fn new_len(&self) -> usize {
        self.old_len - self.pruned.len() + self.actions.len()
    }

    /// Net change in model size.
    pub fn net_growth(&self) -> isize {
        self.actions.len() as isize - self.pruned.len() as isize
    }

    /// Whether applying the event would change nothing.
    pub fn is_noop(&self) -> bool {
        self.pruned.is_empty() && self.actions.is_empty()
    }

    /// Rows the event touches (pruned + appended + split-shrunk sources) —
    /// the work a runtime's resize step is costed on.
    pub fn rows_changed(&self) -> usize {
        self.pruned.len()
            + self.actions.len()
            + self
                .actions
                .iter()
                .filter(|a| matches!(a, ResizeAction::Split { .. }))
                .count()
    }

    /// Post-prune indices whose rows a split rewrites in place (ascending).
    pub fn split_sources(&self) -> Vec<u32> {
        self.actions
            .iter()
            .filter_map(|a| match a {
                ResizeAction::Split { source, .. } => Some(*source),
                ResizeAction::Clone { .. } => None,
            })
            .collect()
    }

    /// The counts of what the event does, in [`DensifyReport`] form.
    pub fn report(&self) -> DensifyReport {
        DensifyReport {
            cloned: self
                .actions
                .iter()
                .filter(|a| matches!(a, ResizeAction::Clone { .. }))
                .count(),
            split: self.split_sources().len(),
            pruned: self.pruned.len(),
        }
    }

    /// Remaps a per-row state vector aligned with the **pre-resize** model:
    /// pruned rows are removed order-preserving, and one `default` row is
    /// appended per densification action — the renumbering an aligned store
    /// must follow when it keeps survivor values across a resize.  (The
    /// optimiser applies the same rule internally via
    /// [`remove_rows_in_place`]; stores that *reset* at a boundary, like
    /// the trainer's gradient-norm accumulator, just re-zero instead.)
    ///
    /// # Panics
    /// Panics if `rows` does not match the planned `old_len`.
    pub fn remap_rows<T: Clone>(&self, rows: &mut Vec<T>, default: T) {
        assert_eq!(rows.len(), self.old_len, "rows not aligned with the plan");
        remove_rows_in_place(rows, &self.pruned);
        rows.resize(self.new_len(), default);
    }
}

/// Removes the rows at the given sorted indices from `rows` in place,
/// preserving the relative order of the survivors.
pub fn remove_rows_in_place<T>(rows: &mut Vec<T>, pruned: &[u32]) {
    if pruned.is_empty() {
        return;
    }
    let mut remove = vec![false; rows.len()];
    for &i in pruned {
        remove[i as usize] = true;
    }
    let mut flags = remove.iter();
    rows.retain(|_| !*flags.next().unwrap());
}

/// Plans one densify-and-prune pass over `model` without mutating it.
///
/// `position_grad_norms` must hold one accumulated positional-gradient norm
/// per Gaussian (the densification criterion used by the reference
/// implementation).  Planning is deterministic: the same model, norms and
/// config always produce the same event (split offsets come from the
/// config's seed).
///
/// # Panics
/// Panics if `position_grad_norms.len() != model.len()`.
pub fn plan_resize(
    model: &GaussianModel,
    position_grad_norms: &[f32],
    config: &DensifyConfig,
) -> ResizeEvent {
    assert_eq!(
        position_grad_norms.len(),
        model.len(),
        "need one gradient norm per gaussian"
    );
    let mut rng = StdRng::seed_from_u64(config.seed);

    // 1. Prune low-opacity Gaussians first.
    let pruned: Vec<u32> = (0u32..)
        .zip(model.opacity_logits())
        .filter(|(_, &logit)| sigmoid(logit) < config.prune_opacity)
        .map(|(i, _)| i)
        .collect();
    let survivors: Vec<u32> = (0..model.len() as u32)
        .filter(|i| pruned.binary_search(i).is_err())
        .collect();

    // 2. Densify high-gradient survivors, bounded by the size cap.  The
    //    loop visits survivors in ascending order and draws split offsets in
    //    that order, so the plan (and its RNG stream) is canonical.
    let budget = if config.max_gaussians == 0 {
        usize::MAX
    } else {
        config.max_gaussians.saturating_sub(survivors.len())
    };
    let mut actions = Vec::new();
    for (post_idx, &pre_idx) in survivors.iter().enumerate() {
        if actions.len() >= budget {
            break;
        }
        if position_grad_norms[pre_idx as usize] <= config.grad_threshold {
            continue;
        }
        let g = model.get(pre_idx as usize);
        let max_scale = g.scale().max_component();
        if max_scale > config.split_scale_threshold {
            let offset = Vec3::new(
                rng.gen_range(-1.0..1.0),
                rng.gen_range(-1.0..1.0),
                rng.gen_range(-1.0..1.0),
            )
            .normalized()
                * max_scale
                * 0.5;
            actions.push(ResizeAction::Split {
                source: post_idx as u32,
                offset,
            });
        } else {
            actions.push(ResizeAction::Clone {
                source: post_idx as u32,
            });
        }
    }

    ResizeEvent {
        old_len: model.len(),
        pruned,
        actions,
    }
}

/// Applies a planned [`ResizeEvent`] to `model`: prunes, then executes the
/// densification actions in order.  Pruning never reorders surviving rows,
/// and appended rows land in action order, so two models resized by the same
/// event stay row-for-row identical.
///
/// # Panics
/// Panics if the event was planned against a different model size.
pub fn apply_resize(model: &mut GaussianModel, event: &ResizeEvent) -> DensifyReport {
    assert_eq!(
        model.len(),
        event.old_len,
        "resize event planned against a different model size"
    );
    model.remove_indices(&event.pruned);
    for action in &event.actions {
        match action {
            ResizeAction::Clone { source } => {
                model.push(model.get(*source as usize));
            }
            ResizeAction::Split { source, offset } => {
                let mut shrunk = model.get(*source as usize);
                shrunk.log_scale += Vec3::splat(SPLIT_SHRINK.ln());
                let mut sibling = shrunk.clone();
                sibling.position += *offset;
                model.set(*source as usize, shrunk);
                model.push(sibling);
            }
        }
    }
    debug_assert_eq!(model.len(), event.new_len());
    event.report()
}

/// Runs one densify-and-prune pass over `model`: [`plan_resize`] followed by
/// [`apply_resize`].
///
/// `position_grad_norms` must hold one accumulated positional-gradient norm
/// per Gaussian (the densification criterion used by the reference
/// implementation).
///
/// # Panics
/// Panics if `position_grad_norms.len() != model.len()`.
pub fn densify_and_prune(
    model: &mut GaussianModel,
    position_grad_norms: &[f32],
    config: &DensifyConfig,
) -> DensifyReport {
    let event = plan_resize(model, position_grad_norms, config);
    apply_resize(model, &event)
}

#[cfg(test)]
mod tests {
    use super::*;
    use gs_core::gaussian::Gaussian;

    fn model_with(scales: &[f32], opacities: &[f32]) -> GaussianModel {
        scales
            .iter()
            .zip(opacities)
            .enumerate()
            .map(|(i, (&s, &o))| Gaussian::isotropic(Vec3::new(i as f32, 0.0, 0.0), s, [0.5; 3], o))
            .collect()
    }

    #[test]
    fn high_gradient_small_gaussian_is_cloned() {
        let mut model = model_with(&[0.01], &[0.8]);
        let report = densify_and_prune(&mut model, &[1.0], &DensifyConfig::default());
        assert_eq!(report.cloned, 1);
        assert_eq!(report.split, 0);
        assert_eq!(model.len(), 2);
    }

    #[test]
    fn high_gradient_large_gaussian_is_split_and_shrunk() {
        let mut model = model_with(&[0.5], &[0.8]);
        let original_scale = model.get(0).scale().max_component();
        let report = densify_and_prune(&mut model, &[1.0], &DensifyConfig::default());
        assert_eq!(report.split, 1);
        assert_eq!(model.len(), 2);
        assert!(model.get(0).scale().max_component() < original_scale);
        assert!(model.get(1).scale().max_component() < original_scale);
        assert_ne!(model.get(0).position, model.get(1).position);
    }

    #[test]
    fn low_gradient_gaussians_are_left_alone() {
        let mut model = model_with(&[0.01, 0.5], &[0.8, 0.8]);
        let report = densify_and_prune(&mut model, &[0.0, 0.0], &DensifyConfig::default());
        assert_eq!(report, DensifyReport::default());
        assert_eq!(model.len(), 2);
    }

    #[test]
    fn transparent_gaussians_are_pruned() {
        let mut model = model_with(&[0.01, 0.01, 0.01], &[0.8, 0.001, 0.8]);
        let report = densify_and_prune(&mut model, &[0.0, 0.0, 0.0], &DensifyConfig::default());
        assert_eq!(report.pruned, 1);
        assert_eq!(model.len(), 2);
        assert_eq!(report.net_growth(), -1);
    }

    #[test]
    fn max_gaussians_caps_growth() {
        let mut model = model_with(&[0.01; 5], &[0.8; 5]);
        let config = DensifyConfig {
            max_gaussians: 7,
            ..Default::default()
        };
        let report = densify_and_prune(&mut model, &[1.0; 5], &config);
        assert_eq!(model.len(), 7);
        assert_eq!(report.cloned + report.split, 2);
    }

    #[test]
    #[should_panic(expected = "one gradient norm per gaussian")]
    fn mismatched_norms_panic() {
        let mut model = model_with(&[0.01], &[0.8]);
        let _ = densify_and_prune(&mut model, &[1.0, 2.0], &DensifyConfig::default());
    }

    /// A model whose rows are distinguishable by position, with a mix of
    /// prunable (transparent), clonable (small + high-grad) and splittable
    /// (large + high-grad) Gaussians.
    fn mixed_model() -> (GaussianModel, Vec<f32>) {
        let scales = [0.01, 0.5, 0.01, 0.02, 0.6, 0.01, 0.03, 0.01];
        let opacities = [0.8, 0.001, 0.7, 0.002, 0.9, 0.6, 0.001, 0.5];
        let norms = vec![1.0, 1.0, 0.0, 1.0, 1.0, 0.0, 1.0, 1.0];
        (model_with(&scales, &opacities), norms)
    }

    #[test]
    fn plan_and_apply_reproduce_densify_and_prune_exactly() {
        // The plan/apply split is a pure refactor of the one-shot pass: the
        // same model, norms and seed must produce bit-identical results
        // through both paths.
        let (reference_model, norms) = mixed_model();
        let config = DensifyConfig {
            max_gaussians: 10,
            ..Default::default()
        };

        let mut one_shot = reference_model.clone();
        let report_one_shot = densify_and_prune(&mut one_shot, &norms, &config);

        let mut planned = reference_model.clone();
        let event = plan_resize(&planned, &norms, &config);
        let report_planned = apply_resize(&mut planned, &event);

        assert_eq!(one_shot, planned);
        assert_eq!(report_one_shot, report_planned);
        assert_eq!(event.new_len(), planned.len());
        assert_eq!(event.old_len, reference_model.len());
    }

    #[test]
    fn planning_is_deterministic_and_does_not_touch_the_model() {
        let (model, norms) = mixed_model();
        let before = model.clone();
        let config = DensifyConfig::default();
        let a = plan_resize(&model, &norms, &config);
        let b = plan_resize(&model, &norms, &config);
        assert_eq!(a, b, "same inputs must plan the same event");
        assert_eq!(model, before, "planning is read-only");
        // Canonical ordering: ascending prune set, ascending action sources.
        assert!(a.pruned.windows(2).all(|w| w[0] < w[1]));
        assert!(a.actions.windows(2).all(|w| w[0].source() < w[1].source()));
    }

    #[test]
    fn pruning_never_reorders_surviving_rows() {
        // Row-index stability: every surviving pre-resize row keeps its
        // relative order (and, minus split shrinks, its contents) in the
        // post-resize model — the invariant all aligned per-row state
        // (optimiser moments, offloaded rows) relies on.
        let (model, norms) = mixed_model();
        let config = DensifyConfig::default();
        let event = plan_resize(&model, &norms, &config);
        assert!(!event.pruned.is_empty(), "scenario must exercise pruning");

        let mut resized = model.clone();
        apply_resize(&mut resized, &event);

        let survivors: Vec<u32> = (0..model.len() as u32)
            .filter(|i| !event.pruned.contains(i))
            .collect();
        let split_sources = event.split_sources();
        for (post, &pre) in survivors.iter().enumerate() {
            let original = model.get(pre as usize);
            let now = resized.get(post);
            assert_eq!(
                now.position, original.position,
                "survivor {pre} moved to a different row"
            );
            if !split_sources.contains(&(post as u32)) {
                assert_eq!(now, original, "non-split survivor {pre} changed");
            }
        }
    }

    #[test]
    fn net_growth_matches_param_row_count_delta() {
        let (mut model, norms) = mixed_model();
        let before_rows = model.len();
        let config = DensifyConfig {
            max_gaussians: 9,
            ..Default::default()
        };
        let event = plan_resize(&model, &norms, &config);
        let report = apply_resize(&mut model, &event);
        assert_eq!(
            report.net_growth(),
            model.len() as isize - before_rows as isize,
            "net_growth must equal the param_row count delta"
        );
        assert_eq!(report.net_growth(), event.net_growth());
        assert_eq!(event.new_len(), model.len());
    }

    #[test]
    fn remap_rows_follows_the_model_renumbering() {
        let (model, norms) = mixed_model();
        let config = DensifyConfig::default();
        let event = plan_resize(&model, &norms, &config);
        // State vector tagged with each row's pre-resize index.
        let mut state: Vec<i64> = (0..model.len() as i64).collect();
        event.remap_rows(&mut state, -1);
        assert_eq!(state.len(), event.new_len());
        let survivors: Vec<i64> = (0..model.len() as i64)
            .filter(|i| !event.pruned.contains(&(*i as u32)))
            .collect();
        assert_eq!(&state[..survivors.len()], &survivors[..]);
        assert!(state[survivors.len()..].iter().all(|&s| s == -1));
    }

    #[test]
    fn noop_event_round_trips() {
        let (model, _) = mixed_model();
        let norms = vec![0.0; model.len()];
        let config = DensifyConfig {
            prune_opacity: 0.0,
            ..Default::default()
        };
        let event = plan_resize(&model, &norms, &config);
        assert!(event.is_noop());
        assert_eq!(event.rows_changed(), 0);
        let mut copy = model.clone();
        apply_resize(&mut copy, &event);
        assert_eq!(copy, model);
    }
}
