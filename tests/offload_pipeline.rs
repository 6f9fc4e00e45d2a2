//! Integration tests of the offloading data path: frustum culling, the
//! attribute-wise offloaded store, cache planning and finalisation analysis
//! must agree with what the renderer actually touches.

use clm_repro::clm_core::{
    gather_rows_into, microbatch_stats_from_sets, CachePlan, FinalizationPlan, NON_CRITICAL_BYTES,
};
use clm_repro::gs_core::{cull_frustum, VisibilitySet};
use clm_repro::gs_render::{l1_loss, render, render_backward, Image, RenderOptions};
use clm_repro::gs_scene::{generate_dataset, DatasetConfig, SceneKind, SceneSpec};

fn dataset() -> clm_repro::gs_scene::Dataset {
    generate_dataset(
        &SceneSpec::of(SceneKind::Rubble),
        &DatasetConfig {
            num_gaussians: 500,
            num_views: 12,
            width: 40,
            height: 30,
            seed: 33,
        },
    )
}

#[test]
fn culling_is_conservative_for_the_renderer() {
    // Every Gaussian that receives a gradient from rendering a view must be
    // in that view's culled visibility set — otherwise CLM would fail to
    // load a needed Gaussian.
    let ds = dataset();
    let model = &ds.ground_truth;
    for camera in ds.cameras.iter().take(6) {
        let visible = cull_frustum(model, camera);
        let out = render(model, camera, &RenderOptions::default());
        let target = Image::filled(40, 30, [0.1, 0.1, 0.1]);
        let loss = l1_loss(&out.image, &target);
        let grads = render_backward(model, camera, &out.aux, &loss.d_image);
        for (index, _) in grads.iter() {
            assert!(
                visible.contains(*index),
                "gaussian {index} got a gradient but was frustum-culled"
            );
        }
    }
}

#[test]
fn rendering_from_the_culled_set_matches_full_rendering() {
    // Pre-rendering frustum culling (§5.1) must not change the image.
    let ds = dataset();
    let model = &ds.ground_truth;
    for camera in ds.cameras.iter().take(4) {
        let visible = cull_frustum(model, camera);
        let full = render(model, camera, &RenderOptions::default());
        let culled = render(
            model,
            camera,
            &RenderOptions {
                background: [0.0; 3],
                visible: Some(visible.indices().to_vec()),
                ..RenderOptions::default()
            },
        );
        assert_eq!(full.image, culled.image);
    }
}

#[test]
fn offloaded_store_serves_exactly_the_working_set() {
    let ds = dataset();
    let model = &ds.ground_truth;
    let (mut rows, mut gathered) = (Vec::new(), 0u64);
    let sets: Vec<VisibilitySet> = ds
        .cameras
        .iter()
        .take(4)
        .map(|cam| cull_frustum(model, cam))
        .collect();

    let mut prev = VisibilitySet::new();
    for set in &sets {
        let plan = CachePlan::new(&prev, set);
        assert!(plan.is_consistent_with(&prev, set));
        // Gather only what the plan says must come over PCIe from the
        // pinned store — the model's SH column — and verify the rows match
        // the dense model exactly.
        gather_rows_into(model.sh_rows(), plan.fetched.indices(), &mut rows);
        assert_eq!(rows.len(), plan.fetched.len());
        for (row, &idx) in rows.iter().zip(plan.fetched.indices()) {
            assert_eq!(&row[..], model.sh_of(idx as usize));
        }
        gathered += (rows.len() * NON_CRITICAL_BYTES) as u64;
        prev = set.clone();
    }
    // The gathered bytes are exactly the plans' fetch bytes.
    let plans: Vec<CachePlan> = {
        let mut prev = VisibilitySet::new();
        let mut out = Vec::new();
        for s in &sets {
            out.push(CachePlan::new(&prev, s));
            prev = s.clone();
        }
        out
    };
    let expected: u64 = plans.iter().map(|p| p.fetch_bytes()).sum();
    assert_eq!(gathered, expected);
}

#[test]
fn microbatch_stats_agree_with_cache_and_finalization_plans() {
    let ds = dataset();
    let model = &ds.ground_truth;
    let sets: Vec<VisibilitySet> = ds
        .cameras
        .iter()
        .take(6)
        .map(|cam| cull_frustum(model, cam))
        .collect();
    let stats = microbatch_stats_from_sets(&sets);
    assert_eq!(stats.len(), sets.len());
    let finalization = FinalizationPlan::new(&sets);
    for (i, s) in stats.iter().enumerate() {
        assert_eq!(s.working_set as usize, sets[i].len());
        assert!(s.fetched <= s.working_set);
        assert_eq!(s.finalized as usize, finalization.finalized_by(i).len());
    }
    // Everything fetched across the batch covers the union exactly once.
    let total_fetched: u64 = stats.iter().map(|s| s.fetched).sum();
    let mut union = VisibilitySet::new();
    for s in &sets {
        union = union.union(s);
    }
    assert!(total_fetched >= union.len() as u64);
}
