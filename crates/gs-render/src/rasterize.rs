//! Tile-based alpha-compositing rasteriser, split into **coverage** and
//! **shade**.
//!
//! The forward pass mirrors the reference 3DGS renderer — projected splats
//! are depth-sorted, binned into 16×16 pixel tiles, and composited
//! front-to-back per pixel with early termination once transmittance drops
//! below a threshold — but runs as two phases:
//!
//! * [`coverage`] is everything that decides *which* splats a pixel sees:
//!   geometry-only projection (no SH evaluation), the depth sort, tile
//!   binning and the front-to-back alpha walk, run in depth slabs until
//!   every walk has ended (below).  Per pixel it records, in walk order,
//!   `(slot, exp(power))` for every entry with alpha ≥ [`MIN_ALPHA`] —
//!   including the entry whose alpha trips [`TRANSMITTANCE_EPS`], which the
//!   backward pass processes too; the alpha itself is recomputed from the
//!   splat's opacity, bit for bit, wherever it is needed.  The union of
//!   those slots is the view's **reached** set ([`Coverage::reached`]).
//!   Coverage reads positions, scales, rotations and opacities — the
//!   attributes CLM keeps device-resident — and never the SH coefficients.
//! * [`shade`] evaluates the SH colour of the reached splats only and
//!   composites every pixel from its records.
//! * [`shade_backward`] walks each pixel's records in reverse to produce
//!   gradients with respect to the screen-space quantities, which are then
//!   chained through [`crate::projection`] back to the Gaussian parameters —
//!   no alpha or `exp` is evaluated twice.
//!
//! [`render`] is coverage followed by shade and [`render_backward`] is the
//! shade's backward; CLM's planner runs the two phases apart so that a
//! micro-batch fetches the SH rows of its reached splats only.  Removing a
//! splat no pixel reaches changes no composite, and the depth sort is stable
//! under a total order, so rendering the reached set alone is bit-identical
//! to rendering every candidate.
//!
//! # Depth slabs: plan only what the pixels reach
//!
//! A view's candidates are mostly hidden: where the scene is dense, every
//! pixel's walk ends within the nearest few percent of them.  So coverage
//! does not project, sort and bin every candidate.  It keys each candidate
//! by the projection's own depth, `camera.world_to_camera(p).z`, dropping
//! those the projection's near/far test would drop (a NaN depth is kept,
//! as there).  Then, slab by slab — the nearest `FIRST_SLAB` keys, then
//! twice as many, and so on — it selects the slab's keys
//! (`select_nth_unstable`), sorts only those, projects them, appends the
//! survivors to the lists of the tiles that still have an open pixel, and
//! walks each open pixel on from where it stopped, at the transmittance it
//! had, through every entry the slab gave its tile.  It stops once no pixel
//! is open or the candidates run out.  No walk is ever repeated.
//!
//! Each slab appends its records to every band in a part of their own, so a
//! pixel's walk is its parts read in slab order — nothing is copied
//! together.  This is exact by construction: each pixel's records and final
//! transmittance, the reached set, and so every shade and backward output
//! are byte for byte those of one slab holding every candidate, at any
//! thread count and band height:
//!
//! 1. *The slots are a prefix of the full depth order.*  A key is the
//!    depth's [`f32::total_cmp`] order with the candidate position as the
//!    tie-break, so keys are distinct, and the sorted slabs, concatenated,
//!    are the stable depth sort of the candidates inside the clip range.
//!    Projection then drops some of them; a stable order of a filtered list
//!    equals the filtered stable order, so the survivors, slab after slab,
//!    are a prefix of the depth-sorted survivors of all candidates.
//! 2. *Each pixel sees the same list.*  Binning appends slots in slot order,
//!    so a tile's list is a prefix of its list over every candidate — for
//!    every tile a pixel still walks, since a tile with an open pixel had
//!    one in every earlier slab too.
//! 3. *Each pixel walks it the same way.*  It evaluates the entries of that
//!    list one after another (an entry's alpha at a pixel depends on that
//!    splat and that pixel only), from the same transmittance, and stops at
//!    the same entry.  A walk that never terminates reaches the end of the
//!    candidates either way.  So [`Coverage::entry_evaluations`] equals the
//!    one slab's count too.
//!
//! The coverage's splats simply end at its last slab
//! ([`Coverage::projected_count`]): every walk ended before the next one.
//!
//! # Banded parallelism, deterministic by construction
//!
//! Every pass is organised around fixed-size **horizontal pixel bands**
//! ([`RenderOptions::band_height`] rows each).  Band geometry depends only
//! on the image size and the configured band height — **never** on the
//! thread count — and the bands are the unit of work handed to the scoped
//! parallel regions of [`crate::parallel`]:
//!
//! * **coverage and shade**: each band walks and composites its own pixels
//!   into its own record list and a disjoint slice of the output image.
//!   Every pixel is a pure function of the projected splats, so records and
//!   image are bit-identical for any `compute_threads`.
//! * **backward**: each band accumulates its pixels' contributions into its
//!   own sparse screen-space gradient accumulator; the per-band accumulators
//!   are then merged **in fixed band order** on the calling thread.  The
//!   floating-point accumulation order is therefore a function of the band
//!   geometry alone (and of the pixel order inside a band, which every pass
//!   shares), and the gradients are bit-identical for any thread count.
//!   (The per-slot chain through [`crate::projection`] is pure, so it
//!   parallelises over slots with no ordering concern at all.)
//!
//! `compute_threads = 1` runs exactly the same banded code path, so "the
//! serial path" and "the parallel path at width 1" are one and the same.
//!
//! # Pixel groups (splat-major inner loop)
//!
//! A band's pixels walk in **groups**: up to 32 consecutive pixels of one
//! tile in the band's pixel order (two 16-px rows of a full tile), with one
//! `u32` bit per pixel whose walk is open.  A group walks its tile's list
//! once, from one resume point its open pixels share, as the reference 3DGS
//! rasteriser advances a tile's pixels through the list together: per entry
//! it evaluates the Gaussian exponent at every pixel of the group in one
//! branch-free loop the autovectoriser lowers to SIMD, and then, only at the
//! open pixels whose exponent is neither positive nor below the splat's
//! floor `ln(MIN_ALPHA / opacity)` less a margin (below it the alpha is
//! under [`MIN_ALPHA`] whatever `expf` returns), the `exp` and the alpha.
//! Each kept entry goes to its pixel's buffer, and the buffers are copied
//! into the band's records in pixel order, so every pixel evaluates the same
//! entries, in the same order, with the same bits as a walk of that pixel
//! alone.  A tile's list holds each entry's slot and the screen-space
//! attributes the walk reads, copied at binning.
//!
//! Each slab's prologue (projection, tile binning) is also parallel in the
//! same way.  Projection keeps slab order via an index-ordered map; binning
//! assigns each *tile row* to one job that scans the slab's splats in slot
//! order, reproducing the serial per-tile list order exactly.

use crate::image::Image;
use crate::parallel::{parallel_for_each, parallel_map};
use crate::projection::{
    project_gaussian_backward, GaussianGradients, ProjectedGaussian, ProjectionContext,
    ProjectionSetup, ScreenGradients, MAX_ALPHA, MIN_ALPHA,
};
use gs_core::camera::Camera;
use gs_core::gaussian::GaussianModel;
use gs_core::math::Sym2;
use gs_core::visibility::VisibilitySet;

/// Tile edge length in pixels.
pub const TILE_SIZE: u32 = 16;

/// Transmittance below which compositing terminates early.
pub const TRANSMITTANCE_EPS: f32 = 1e-4;

/// How far below `ln(MIN_ALPHA / opacity)` a splat's exponent floor sits
/// ([`alpha_power_floor`]): a margin that dwarfs `expf`'s ≤ 1 ulp error and
/// the rounding of the floor itself and of `opacity · exp(power)`.
const ALPHA_FLOOR_MARGIN: f32 = 1.0e-3;

/// Default height of the horizontal accumulation bands (one tile row).
pub const DEFAULT_BAND_HEIGHT: u32 = TILE_SIZE;

/// Options controlling a render call.
#[derive(Debug, Clone)]
pub struct RenderOptions {
    /// Background colour composited behind the splats.
    pub background: [f32; 3],
    /// When set, only these Gaussian indices are rasterised (the
    /// "pre-rendering frustum culling" path, §5.1).  When `None`, every
    /// Gaussian in the model is considered (the fused-culling baseline).
    pub visible: Option<Vec<u32>>,
    /// Worker threads for the banded forward/backward kernels (clamped to at
    /// least 1; `1` runs everything on the calling thread).  Pure
    /// scheduling: the rendered image and the gradients are bit-identical
    /// for every value, and [`RenderAux`] reports the clamped count.
    pub compute_threads: usize,
    /// Height in pixels of the horizontal accumulation bands (clamped to at
    /// least 1).  This **is** part of the numeric contract: it fixes the
    /// floating-point accumulation grouping of the backward pass, so runs
    /// that must be bit-comparable need the same band height.  It must
    /// depend only on the workload, never on the thread count.
    pub band_height: u32,
}

impl Default for RenderOptions {
    fn default() -> Self {
        RenderOptions {
            background: [0.0; 3],
            visible: None,
            compute_threads: 1,
            band_height: DEFAULT_BAND_HEIGHT,
        }
    }
}

/// One entry of a pixel's compositing walk: a splat the pixel reached.  Its
/// alpha (at least [`MIN_ALPHA`], or NaN) is not stored: [`clamped_alpha`]
/// of the splat's opacity and `gauss` is the walk's value bit for bit.
#[derive(Debug, Clone, Copy)]
struct Contribution {
    /// The splat's depth-order slot in [`Coverage`]'s splats.
    slot: u32,
    /// Its Gaussian factor `exp(power)` at the pixel.
    gauss: f32,
}

/// The walk records of one horizontal band, pixel by pixel in the order
/// [`for_each_band_pixel`] visits them.
#[derive(Debug, Clone)]
struct BandCoverage {
    /// Per pixel: the transmittance left when its walk ended.
    final_t: Vec<f32>,
    /// What each slab that walked a pixel of the band recorded, in slab
    /// order.
    slabs: Vec<SlabRecords>,
}

impl BandCoverage {
    /// The records of the band's pixel `pixel`, in walk order: one slice
    /// per slab.
    fn records(&self, pixel: usize) -> impl DoubleEndedIterator<Item = &[Contribution]> {
        self.slabs.iter().map(move |slab| {
            let start = if pixel == 0 { 0 } else { slab.ends[pixel - 1] };
            &slab.records[start as usize..slab.ends[pixel] as usize]
        })
    }
}

/// What one view's compositing walk reached: the splats some pixel
/// composites, and per pixel the walk that reaches them.  Produced by
/// [`coverage`], consumed — any number of times — by [`shade`] and
/// [`shade_backward`].
#[derive(Debug, Clone)]
pub struct Coverage {
    /// The projected splats in depth order, through the last slab the walk
    /// needed (a record's slot indexes these).
    splats: Vec<ProjectedGaussian>,
    /// The reached splats' slots, ascending, and their projection contexts.
    reached_slots: Vec<u32>,
    contexts: Vec<ProjectionContext>,
    /// The reached splats' Gaussian indices, sorted.
    reached: VisibilitySet,
    bands: Vec<BandCoverage>,
    width: u32,
    height: u32,
    /// The walk's band geometry and resolved compute width; shade and
    /// backward reuse both.
    band_height: u32,
    compute_threads: usize,
    open_pixels: usize,
    entry_evaluations: u64,
}

impl Coverage {
    /// The Gaussians some pixel's compositing walk reaches (sorted) — the
    /// only candidates whose colour the image depends on and the only ones
    /// that can receive gradient.
    pub fn reached(&self) -> &VisibilitySet {
        &self.reached
    }

    /// Number of splats projected: the candidates that survive projection,
    /// in depth order, through the slab in which the last walk ended —
    /// every survivor only when some walk runs out of candidates.  A walk
    /// walks every entry a slab gave its tile, so one that ends among a
    /// slab's last entries projects no further slab.
    pub fn projected_count(&self) -> usize {
        self.splats.len()
    }

    /// Pixels whose walk ran out of candidates with its transmittance still
    /// at or above [`TRANSMITTANCE_EPS`] (zero when every walk terminated).
    pub fn open_pixels(&self) -> usize {
        self.open_pixels
    }

    /// Tile entries the walk evaluated, one per pixel still open at each
    /// (the entry that ends a walk included): its work count.  Exactly what
    /// one walk over every candidate at once evaluates, whatever the thread
    /// count, band height or slab sizes (see the module docs).
    pub fn entry_evaluations(&self) -> u64 {
        self.entry_evaluations
    }
}

/// What [`shade`] saves for [`shade_backward`]: the reached splats' colours.
#[derive(Debug, Clone)]
pub struct Shading {
    /// Per slot: its view-dependent colour (zero for an unreached slot —
    /// no record reads it).
    colors: Vec<[f32; 3]>,
    background: [f32; 3],
}

/// Saved forward-pass state required by [`render_backward`].
#[derive(Debug, Clone)]
pub struct RenderAux {
    coverage: Coverage,
    shading: Shading,
}

impl RenderAux {
    /// [`Coverage::projected_count`] of the forward pass.
    pub fn projected_count(&self) -> usize {
        self.coverage.projected_count()
    }

    /// The forward pass's coverage.
    pub fn coverage(&self) -> &Coverage {
        &self.coverage
    }

    /// Band geometry the forward pass used (part of the numeric contract;
    /// the backward pass reuses it).
    pub fn band_height(&self) -> u32 {
        self.coverage.band_height
    }

    /// The compute width the forward pass actually ran with (at least 1).
    pub fn compute_threads(&self) -> usize {
        self.coverage.compute_threads
    }
}

/// Result of a forward render.
#[derive(Debug, Clone)]
pub struct RenderOutput {
    /// The rendered image.
    pub image: Image,
    /// Saved state for the backward pass.
    pub aux: RenderAux,
}

/// Renders `model` from `camera`: [`coverage`], then [`shade`].
///
/// `options.visible` restricts rasterisation to the given Gaussian indices;
/// this is how CLM (and the enhanced baseline) skip out-of-frustum Gaussians
/// entirely.
///
/// # Panics
/// Panics if `options.visible` contains an index outside the model.
pub fn render(model: &GaussianModel, camera: &Camera, options: &RenderOptions) -> RenderOutput {
    let coverage = coverage(model, camera, options);
    let (image, shading) = shade(model, &coverage, options.background);
    RenderOutput {
        image,
        aux: RenderAux { coverage, shading },
    }
}

/// Candidates in the first depth slab of [`coverage`]; every later slab is
/// twice the one before.  Where the scene is dense every walk typically
/// ends inside the nearest thousand candidates, and a view with fewer
/// candidates than this takes them all in one slab.
const FIRST_SLAB: usize = 1024;

/// The coverage phase of a render: keys the candidates (`options.visible`,
/// or the whole model) by depth and then, one depth slab at a time, projects
/// them without colour, bins and stages them, and walks every pixel that is
/// still open on front to back, recording the entries it composites — until
/// no pixel is open or the candidates run out.  Reads no SH coefficient and
/// ignores `options.background`.
///
/// # Panics
/// Panics if `options.visible` contains an index outside the model.
pub fn coverage(model: &GaussianModel, camera: &Camera, options: &RenderOptions) -> Coverage {
    coverage_in_slabs(model, camera, options, FIRST_SLAB, |band, tiles, _| {
        band.walk(tiles)
    })
}

/// [`coverage`] with a first slab of `first_slab` candidates (at least one;
/// `usize::MAX` covers every candidate in one slab), walking each band with
/// an open pixel through each slab's tile lists by `walk` — passed whether
/// the slab is the last, which [`BandWalk::walk`] does not need.
fn coverage_in_slabs(
    model: &GaussianModel,
    camera: &Camera,
    options: &RenderOptions,
    first_slab: usize,
    walk: impl Fn(&mut BandWalk, &[Vec<TileEntry>], bool) + Sync,
) -> Coverage {
    let width = camera.intrinsics.width;
    let height = camera.intrinsics.height;
    let compute_threads = options.compute_threads.max(1);

    // 1. Validate the candidates up front (deterministic panics) and key
    //    each by its depth, dropping those outside the clip range.
    let all_indices: Vec<u32>;
    let candidates: &[u32] = match &options.visible {
        Some(indices) => {
            for &idx in indices {
                assert!(
                    (idx as usize) < model.len(),
                    "visible index {idx} out of bounds for model of length {}",
                    model.len()
                );
            }
            indices
        }
        None => {
            all_indices = (0..model.len() as u32).collect();
            &all_indices
        }
    };
    let mut keys = depth_keys(model, camera, candidates);

    // 2. The walk state: every pixel open at full transmittance, and per
    //    tile its depth-ordered entries, grown slab by slab.
    let band_height = options.band_height.max(1);
    let mut bands: Vec<BandWalk> = (0..height.div_ceil(band_height))
        .map(|b| BandWalk::new((width, height, band_height, b * band_height)))
        .collect();
    let (tiles_x, tiles_y) = (width.div_ceil(TILE_SIZE), height.div_ceil(TILE_SIZE));
    let tile_count = (tiles_x * tiles_y) as usize;
    let mut tiles: Vec<Vec<TileEntry>> = vec![Vec::new(); tile_count];
    let mut tile_open = vec![true; tile_count];
    let setup = ProjectionSetup::new(camera);
    let mut splats: Vec<ProjectedGaussian> = Vec::new();
    let mut contexts: Vec<ProjectionContext> = Vec::new();

    let mut rest: &mut [u64] = &mut keys;
    let mut slab_len = first_slab.max(1);
    loop {
        // 3. The next slab: the `slab_len` nearest keys left, sorted.
        let take = slab_len.min(rest.len());
        if take < rest.len() {
            rest.select_nth_unstable(take - 1);
        }
        let (slab, tail) = std::mem::take(&mut rest).split_at_mut(take);
        slab.sort_unstable();
        rest = tail;
        let last = rest.is_empty();

        // 4. Project the slab in key order; the survivors take the next
        //    slots.
        let first_slot = splats.len();
        let project = |key: u64| setup.project(model, candidates[key as u32 as usize]);
        let mut keep = |(p, ctx)| {
            splats.push(p);
            contexts.push(ctx);
        };
        if compute_threads <= 1 {
            // Width 1: survivors go straight to their final vectors, with no
            // per-candidate `Option` staging in between.
            slab.iter()
                .filter_map(|&key| project(key))
                .for_each(&mut keep);
        } else {
            parallel_map(compute_threads, slab.len(), |k| project(slab[k]))
                .into_iter()
                .flatten()
                .for_each(&mut keep);
        }

        // 5. Append the new slots to the lists of the tiles that still have
        //    an open pixel — one job per tile row, scanning them in slot
        //    order.
        {
            let new = &splats[first_slot..];
            let jobs: Vec<(u32, &mut [Vec<TileEntry>], &[bool])> = tiles
                .chunks_mut(tiles_x as usize)
                .zip(tile_open.chunks(tiles_x as usize))
                .enumerate()
                .map(|(ty, (row, open))| (ty as u32, row, open))
                .collect();
            parallel_for_each(
                compute_threads.min(tiles_y as usize),
                jobs,
                |(ty, row, open)| bin_tile_row(new, first_slot, (width, height), ty, row, open),
            );
        }

        // 6. Walk every open pixel on from where it stopped, one job per
        //    band with an open pixel.
        {
            let jobs: Vec<&mut BandWalk> = bands.iter_mut().filter(|b| b.open > 0).collect();
            let tiles = &tiles;
            parallel_for_each(compute_threads, jobs, |band| walk(band, tiles, last));
        }
        if last || bands.iter().all(|b| b.open == 0) {
            break;
        }
        tile_open.fill(false);
        for band in &bands {
            for group in band.groups.iter().filter(|g| g.open != 0) {
                tile_open[group.tile as usize] = true;
            }
        }
        slab_len = slab_len.saturating_mul(2);
    }

    // 7. The reached slots, and the projection contexts of those only.
    let open_pixels = bands.iter().map(|b| b.open).sum();
    let entry_evaluations = bands.iter().map(|b| b.entry_evaluations).sum();
    let bands: Vec<BandCoverage> = bands.into_iter().map(BandWalk::finish).collect();
    let mut is_reached = vec![false; splats.len()];
    for record in (bands.iter().flat_map(|band| &band.slabs)).flat_map(|slab| &slab.records) {
        is_reached[record.slot as usize] = true;
    }
    let (reached_slots, contexts): (Vec<u32>, Vec<ProjectionContext>) = contexts
        .into_iter()
        .enumerate()
        .filter(|&(slot, _)| is_reached[slot])
        .map(|(slot, ctx)| (slot as u32, ctx))
        .unzip();
    let reached = VisibilitySet::from_unsorted(
        reached_slots
            .iter()
            .map(|&slot| splats[slot as usize].index)
            .collect(),
    );

    Coverage {
        splats,
        reached_slots,
        contexts,
        reached,
        bands,
        width,
        height,
        band_height,
        compute_threads,
        open_pixels,
        entry_evaluations,
    }
}

/// Every candidate inside the camera's clip range as a sort key: its depth
/// `camera.world_to_camera(p).z` — the projection's own value, bit for bit
/// — in the high half, mapped to the order [`f32::total_cmp`] gives it, and
/// its position in `candidates` in the low half.  A NaN depth passes the
/// clip test here as it does in the projection.  The keys are distinct, so
/// sorting them is the stable depth sort of the candidates, and a total
/// order even with a NaN depth (a positive NaN sorts behind every finite
/// depth, a negative one in front).
///
/// # Panics
/// Panics if there are more than `u32::MAX` candidates.
fn depth_keys(model: &GaussianModel, camera: &Camera, candidates: &[u32]) -> Vec<u64> {
    assert!(
        u32::try_from(candidates.len()).is_ok(),
        "too many candidates"
    );
    let positions = model.positions();
    candidates
        .iter()
        .enumerate()
        .filter_map(|(k, &idx)| {
            let z = camera.world_to_camera(positions[idx as usize]).z;
            let clipped = z < camera.near || z > camera.far;
            (!clipped).then_some((total_order_bits(z) as u64) << 32 | k as u64)
        })
        .collect()
}

/// `x`'s bits as an unsigned integer ordered as [`f32::total_cmp`] orders
/// `x`: the standard library's own signed mapping, offset by `2^31`.
fn total_order_bits(x: f32) -> u32 {
    let bits = x.to_bits() as i32;
    (bits ^ (((bits >> 31) as u32) >> 1) as i32) as u32 ^ 0x8000_0000
}

/// Appends the entries of `new` (the splats from slot `first_slot` on) that
/// overlap tile row `ty` to that row's lists of the tiles marked `open`,
/// with the serial binning expressions (including the offscreen skip).
/// Scanning in slot order keeps every list in slot order.
fn bin_tile_row(
    new: &[ProjectedGaussian],
    first_slot: usize,
    (width, height): (u32, u32),
    ty: u32,
    row: &mut [Vec<TileEntry>],
    open: &[bool],
) {
    for (k, p) in new.iter().enumerate() {
        let min_x = ((p.mean2d.x - p.radius).floor().max(0.0)) as u32;
        let max_x = ((p.mean2d.x + p.radius).ceil().min(width as f32 - 1.0)) as u32;
        let min_y = ((p.mean2d.y - p.radius).floor().max(0.0)) as u32;
        let max_y = ((p.mean2d.y + p.radius).ceil().min(height as f32 - 1.0)) as u32;
        if p.mean2d.x + p.radius < 0.0
            || p.mean2d.y + p.radius < 0.0
            || p.mean2d.x - p.radius > width as f32
            || p.mean2d.y - p.radius > height as f32
        {
            continue;
        }
        if ty < min_y / TILE_SIZE || ty > max_y / TILE_SIZE {
            continue;
        }
        let entry = TileEntry {
            slot: (first_slot + k) as u32,
            mean_x: p.mean2d.x,
            mean_y: p.mean2d.y,
            conic_a: p.conic.a,
            conic_b: p.conic.b,
            conic_c: p.conic.c,
            opacity: p.opacity,
            floor: alpha_power_floor(p.opacity),
        };
        for tx in min_x / TILE_SIZE..=max_x / TILE_SIZE {
            if open[tx as usize] {
                row[tx as usize].push(entry);
            }
        }
    }
}

/// Visits the pixels of the band starting at row `y0` as `(tile, px, py)`
/// in the one order every pass shares: tile by tile along each tile row the
/// band covers, row-major inside a tile.  The backward pass accumulates in
/// this order, so it is part of the numeric contract.
fn for_each_band_pixel(
    (width, height, band_height, y0): (u32, u32, u32, u32),
    mut visit: impl FnMut(usize, u32, u32),
) {
    let tiles_x = width.div_ceil(TILE_SIZE);
    let y_end = (y0 + band_height).min(height);
    for ty in y0 / TILE_SIZE..=(y_end - 1) / TILE_SIZE {
        let py_start = (ty * TILE_SIZE).max(y0);
        let py_end = ((ty + 1) * TILE_SIZE).min(y_end);
        for tx in 0..tiles_x {
            let tile = (ty * tiles_x + tx) as usize;
            let x_end = ((tx + 1) * TILE_SIZE).min(width);
            for py in py_start..py_end {
                for px in tx * TILE_SIZE..x_end {
                    visit(tile, px, py);
                }
            }
        }
    }
}

/// One entry of a tile's depth-ordered list: a splat's slot and the
/// screen-space attributes the walk reads, copied from its projection.
#[derive(Debug, Clone, Copy)]
struct TileEntry {
    slot: u32,
    mean_x: f32,
    mean_y: f32,
    conic_a: f32,
    conic_b: f32,
    conic_c: f32,
    opacity: f32,
    /// [`alpha_power_floor`] of the opacity.
    floor: f32,
}

/// Pixels per [`PixelGroup`]: one bit each of its open mask.
const GROUP: usize = 32;

/// Up to [`GROUP`] consecutive pixels of one tile within one band, in
/// [`for_each_band_pixel`] order, and where their walks stand between slabs.
#[derive(Debug)]
struct PixelGroup {
    tile: u32,
    /// Pixels in the group; the lanes past them are never open.
    len: usize,
    /// Per pixel: its centre.
    cx: [f32; GROUP],
    cy: [f32; GROUP],
    /// Per pixel: the transmittance in front of the next entry — once its
    /// walk has ended, in front of the entry that ended it.
    t: [f32; GROUP],
    /// Bit `l` is set while pixel `l`'s walk has not ended.
    open: u32,
    /// The next entry of the tile's list, where every open pixel resumes.
    next: usize,
}

impl PixelGroup {
    /// The pixels `(tile, cx, cy)` (one tile's, at most [`GROUP`]), open at
    /// transmittance 1.
    fn new(pixels: &[(u32, f32, f32)]) -> Self {
        let mut group = PixelGroup {
            tile: pixels[0].0,
            len: pixels.len(),
            cx: [0.0; GROUP],
            cy: [0.0; GROUP],
            t: [1.0; GROUP],
            open: u32::MAX >> (GROUP - pixels.len()),
            next: 0,
        };
        for (l, &(_, cx, cy)) in pixels.iter().enumerate() {
            (group.cx[l], group.cy[l]) = (cx, cy);
        }
        group
    }

    /// Walks the open pixels on through the rest of `entries` (their tile's
    /// list) together, appending what each composites to its `kept` buffer,
    /// and returns the entry evaluations.  Per entry, the Gaussian exponent
    /// `power = -0.5 * (a·dx² + 2b·dx·dy + c·dy²)` over the conic `(a, b, c)`,
    /// with `dx = cx - mean_x`, is evaluated at every pixel in a branch-free
    /// loop (the SIMD-friendly shape; keep it apart from the `exp` calls,
    /// which stop it vectorising); then each open pixel whose exponent
    /// [`skips_exp`] does not skip gets its [`lane_alpha`], and composites
    /// the entry if the alpha is at least [`MIN_ALPHA`].
    fn walk(&mut self, entries: &[TileEntry], kept: &mut [Vec<Contribution>; GROUP]) -> u64 {
        let mut evaluations = 0;
        for e in &entries[self.next..] {
            if self.open == 0 {
                break;
            }
            evaluations += u64::from(self.open.count_ones());
            let mut powers = [0.0f32; GROUP];
            for l in 0..GROUP {
                let dx = self.cx[l] - e.mean_x;
                let dy = self.cy[l] - e.mean_y;
                powers[l] =
                    -0.5 * (e.conic_a * dx * dx + 2.0 * e.conic_b * dx * dy + e.conic_c * dy * dy);
            }
            let mut evaluate = 0u32;
            for l in 0..GROUP {
                evaluate |= u32::from(!skips_exp(powers[l], e.floor)) << l;
            }
            evaluate &= self.open;
            while evaluate != 0 {
                let l = evaluate.trailing_zeros() as usize;
                evaluate &= evaluate - 1;
                let (alpha, gauss) = lane_alpha(e.opacity, e.floor, powers[l]);
                if alpha < MIN_ALPHA {
                    continue;
                }
                kept[l].push(Contribution {
                    slot: e.slot,
                    gauss,
                });
                let next_t = self.t[l] * (1.0 - alpha);
                if next_t < TRANSMITTANCE_EPS {
                    self.open &= !(1 << l);
                } else {
                    self.t[l] = next_t;
                }
            }
        }
        self.next = entries.len();
        evaluations
    }
}

/// What one slab's walk recorded for each pixel of a band.
#[derive(Debug, Clone, Default)]
struct SlabRecords {
    /// Per pixel: one past its last entry of `records`.
    ends: Vec<u32>,
    records: Vec<Contribution>,
}

/// One band's pixels across the slabs of a [`coverage`].
#[derive(Debug)]
struct BandWalk {
    groups: Vec<PixelGroup>,
    /// Pixels whose walk has not ended.
    open: usize,
    /// One entry per slab in which the band had an open pixel.
    slabs: Vec<SlabRecords>,
    entry_evaluations: u64,
    /// Per pixel of the group being walked: what it composited, until the
    /// group's records are copied into the slab's in pixel order.
    kept: [Vec<Contribution>; GROUP],
}

impl BandWalk {
    /// Every pixel of the band `geometry` describes, open at transmittance
    /// 1, in groups.
    fn new(geometry: (u32, u32, u32, u32)) -> Self {
        let mut pixels = Vec::new();
        for_each_band_pixel(geometry, |tile, px, py| {
            pixels.push((tile as u32, px as f32 + 0.5, py as f32 + 0.5))
        });
        let groups = (pixels.chunk_by(|a, b| a.0 == b.0))
            .flat_map(|tile| tile.chunks(GROUP))
            .map(PixelGroup::new)
            .collect();
        BandWalk {
            groups,
            open: pixels.len(),
            slabs: Vec::new(),
            entry_evaluations: 0,
            kept: std::array::from_fn(|_| Vec::new()),
        }
    }

    /// Walks every open group on through its tile's list in `tiles` and
    /// records what each pixel composites.  Pure per pixel: identical output
    /// regardless of which thread runs it.
    fn walk(&mut self, tiles: &[Vec<TileEntry>]) {
        let mut slab = SlabRecords::default();
        for group in &mut self.groups {
            if group.open != 0 {
                let was_open = group.open.count_ones();
                let entries = &tiles[group.tile as usize];
                self.entry_evaluations += group.walk(entries, &mut self.kept);
                self.open -= (was_open - group.open.count_ones()) as usize;
            }
            for kept in &mut self.kept[..group.len] {
                slab.records.extend_from_slice(kept);
                kept.clear();
                slab.ends.push(slab.records.len() as u32);
            }
        }
        self.slabs.push(slab);
    }

    /// The band's records and final transmittances.
    fn finish(self) -> BandCoverage {
        BandCoverage {
            final_t: (self.groups.iter())
                .flat_map(|g| &g.t[..g.len])
                .copied()
                .collect(),
            slabs: self.slabs,
        }
    }
}

/// The Gaussian exponent below which a splat of this opacity (at most 1)
/// has an alpha under [`MIN_ALPHA`]: `ln(MIN_ALPHA / opacity)` less
/// [`ALPHA_FLOOR_MARGIN`] — `+inf` for a zero opacity, NaN (skipping
/// nothing) for a NaN one.
fn alpha_power_floor(opacity: f32) -> f32 {
    (MIN_ALPHA / opacity).ln() - ALPHA_FLOOR_MARGIN
}

/// Whether a Gaussian exponent puts the alpha under [`MIN_ALPHA`] before
/// any `exp`: a positive exponent, or one below the splat's `floor`
/// ([`alpha_power_floor`]).  A NaN exponent is neither and takes the
/// evaluating arm, as it always has.
#[inline]
// Not `!(floor..=0.0).contains(&power)`: that would skip a NaN.
#[allow(clippy::manual_range_contains)]
fn skips_exp(power: f32, floor: f32) -> bool {
    power > 0.0 || power < floor
}

/// One pixel of the alpha evaluation: `(alpha, exp(power))` of a splat of
/// the given opacity (at most 1) and exponent floor whose Gaussian exponent
/// at the pixel is `power`.  An alpha under [`MIN_ALPHA`] means "skipped",
/// and the walk tests that before it reads anything else, so the exponents
/// [`skips_exp`] names give `(0, 0)` without an `exp`.
#[inline]
fn lane_alpha(opacity: f32, floor: f32, power: f32) -> (f32, f32) {
    if skips_exp(power, floor) {
        (0.0, 0.0)
    } else {
        let e = power.exp();
        (clamped_alpha(opacity, e), e)
    }
}

/// A splat's alpha at a pixel from its opacity and Gaussian factor: the one
/// expression the walk evaluates and shade and backward re-evaluate from a
/// [`Contribution`].
#[inline]
fn clamped_alpha(opacity: f32, gauss: f32) -> f32 {
    (opacity * gauss).min(MAX_ALPHA)
}

/// The shade phase of a render: evaluates the view-dependent colour of
/// every reached splat of `coverage` from `model`'s SH coefficients — and
/// of no other — and composites each pixel from its records over
/// `background`.  Band-parallel at the coverage's compute width.
pub fn shade(model: &GaussianModel, coverage: &Coverage, background: [f32; 3]) -> (Image, Shading) {
    let splats = &coverage.splats;
    let mut colors = vec![[0.0f32; 3]; splats.len()];
    for (&slot, ctx) in coverage.reached_slots.iter().zip(&coverage.contexts) {
        let index = splats[slot as usize].index as usize;
        colors[slot as usize] = ctx.color(model.sh_of(index));
    }
    let Coverage {
        width,
        height,
        band_height,
        ..
    } = *coverage;
    let mut image = Image::new(width, height);
    {
        let band_pixels = (band_height * width) as usize;
        let jobs: Vec<(u32, &mut [[f32; 3]], &BandCoverage)> = image
            .pixels_mut()
            .chunks_mut(band_pixels)
            .zip(&coverage.bands)
            .enumerate()
            .map(|(b, (img, band))| (b as u32 * band_height, img, band))
            .collect();
        let colors = &colors;
        parallel_for_each(coverage.compute_threads, jobs, |(y0, img_band, band)| {
            let geometry = (width, height, band_height, y0);
            composite_band(band, splats, colors, background, geometry, img_band);
        });
    }
    (image, Shading { colors, background })
}

/// Composites every pixel of one band from its records into the band's
/// slice of the image, terminating at the same entry the walk did.
fn composite_band(
    band: &BandCoverage,
    splats: &[ProjectedGaussian],
    colors: &[[f32; 3]],
    background: [f32; 3],
    geometry: (u32, u32, u32, u32),
    img_band: &mut [[f32; 3]],
) {
    let (width, y0) = (geometry.0, geometry.3);
    let mut pixel = 0;
    for_each_band_pixel(geometry, |_, px, py| {
        let mut t = 1.0f32;
        let mut color = [0.0f32; 3];
        for r in band.records(pixel).flatten() {
            let slot = r.slot as usize;
            let alpha = clamped_alpha(splats[slot].opacity, r.gauss);
            let next_t = t * (1.0 - alpha);
            if next_t < TRANSMITTANCE_EPS {
                break;
            }
            let c = &colors[slot];
            color[0] += c[0] * alpha * t;
            color[1] += c[1] * alpha * t;
            color[2] += c[2] * alpha * t;
            t = next_t;
        }
        pixel += 1;
        for c in 0..3 {
            color[c] += t * background[c];
        }
        img_band[((py - y0) * width + px) as usize] = color;
    });
}

/// Gradients produced by [`render_backward`]: one entry per Gaussian that
/// received a non-zero gradient, keyed by its global index.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct RenderGradients {
    entries: Vec<(u32, GaussianGradients)>,
}

impl RenderGradients {
    /// The gradient entries, sorted by Gaussian index.
    pub fn entries(&self) -> &[(u32, GaussianGradients)] {
        &self.entries
    }

    /// Number of Gaussians with gradients.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether no Gaussian received a gradient.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Looks up the gradient of Gaussian `index`, if any.
    pub fn get(&self, index: u32) -> Option<&GaussianGradients> {
        self.entries
            .binary_search_by_key(&index, |(i, _)| *i)
            .ok()
            .map(|pos| &self.entries[pos].1)
    }

    /// Iterates over `(gaussian index, gradients)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = &(u32, GaussianGradients)> {
        self.entries.iter()
    }
}

/// Backward pass of [`render`]: given the gradient of the loss with respect
/// to every pixel (`d_image`, row-major, one `[f32; 3]` per pixel), computes
/// the gradient with respect to every contributing Gaussian's parameters.
/// It is [`shade_backward`] over the forward's coverage and shading.
///
/// # Panics
/// Panics if `d_image.len()` does not match the rendered resolution.
pub fn render_backward(
    model: &GaussianModel,
    camera: &Camera,
    aux: &RenderAux,
    d_image: &[[f32; 3]],
) -> RenderGradients {
    shade_backward(model, camera, &aux.coverage, &aux.shading, d_image)
}

/// Backward pass of [`shade`]: walks every pixel's records in reverse.
///
/// Runs band-parallel on up to the coverage's `compute_threads` workers:
/// each band accumulates its pixels' screen-space gradients independently,
/// the per-band sparse accumulators are merged in fixed band order, and the
/// per-splat chain through [`crate::projection`] fans out over slots.  The
/// result is bit-identical for every thread count (see the module docs).
/// Reads only the reached splats' rows of `model`.
///
/// # Panics
/// Panics if `d_image.len()` does not match the rendered resolution.
pub fn shade_backward(
    model: &GaussianModel,
    camera: &Camera,
    coverage: &Coverage,
    shading: &Shading,
    d_image: &[[f32; 3]],
) -> RenderGradients {
    assert_eq!(
        d_image.len(),
        (coverage.width * coverage.height) as usize,
        "d_image size must match the rendered resolution"
    );
    let threads = coverage.compute_threads.max(1);

    // 1. Per-band sparse screen-space accumulators, computed independently.
    let partials: Vec<Vec<(u32, ScreenGradients)>> =
        parallel_map(threads, coverage.bands.len(), |b| {
            backward_band(coverage, shading, d_image, b)
        });

    // 2. Merge in fixed band order.  This is the only order-sensitive
    //    floating-point reduction in the pass, and it runs on the calling
    //    thread over the index-ordered partials, so the accumulation order
    //    depends only on the band geometry.
    let mut screen_grads: Vec<ScreenGradients> =
        vec![ScreenGradients::default(); coverage.splats.len()];
    for band in &partials {
        for (slot, g) in band {
            screen_grads[*slot as usize].accumulate(g);
        }
    }

    // 3. Chain screen-space gradients back to the 59 Gaussian parameters —
    //    pure per slot, so it parallelises freely; the output vector is
    //    keyed by slot order either way.  Only a reached slot can hold a
    //    gradient; `k` indexes its context.
    let contributing: Vec<(usize, usize)> = (coverage.reached_slots.iter().enumerate())
        .map(|(k, &slot)| (k, slot as usize))
        .filter(|&(_, slot)| !screen_grads[slot].is_zero())
        .collect();
    let entries: Vec<(u32, GaussianGradients)> = parallel_map(threads, contributing.len(), |j| {
        let (k, slot) = contributing[j];
        let index = coverage.splats[slot].index;
        let g = model.get(index as usize);
        let context = &coverage.contexts[k];
        let grads = project_gaussian_backward(&g, camera, context, &screen_grads[slot]);
        (index, grads)
    });

    let mut entries = entries;
    entries.sort_by_key(|(i, _)| *i);
    // Merge duplicates (a Gaussian only appears once per render, but keep
    // the invariant explicit).
    let mut merged: Vec<(u32, GaussianGradients)> = Vec::with_capacity(entries.len());
    for (idx, grad) in entries {
        match merged.last_mut() {
            Some((last_idx, last_grad)) if *last_idx == idx => last_grad.accumulate(&grad),
            _ => merged.push((idx, grad)),
        }
    }
    RenderGradients { entries: merged }
}

/// Per-slot scratch of [`backward_band`]: the dense accumulator and a
/// first-touch flag per slot.
struct BandScratch {
    dense: Vec<ScreenGradients>,
    seen: Vec<bool>,
}

std::thread_local! {
    /// Per-worker scratch for [`backward_band`], reused across every band
    /// the worker drains (and across calls, on the calling thread).
    /// Invariant: every accumulator is zero and every flag clear between
    /// bands — each band resets exactly the slots it touched — so reuse
    /// costs O(touched) instead of re-zeroing O(projected) once per band.
    static BAND_SCRATCH: std::cell::RefCell<BandScratch> = const {
        std::cell::RefCell::new(BandScratch {
            dense: Vec::new(),
            seen: Vec::new(),
        })
    };
}

/// Accumulates the screen-space gradients of every pixel of band `b`,
/// returning them as a sparse, slot-ordered list.  Pure: depends only on
/// its inputs and the band geometry — the thread-local scratch is an
/// allocation cache, never carried state.
fn backward_band(
    coverage: &Coverage,
    shading: &Shading,
    d_image: &[[f32; 3]],
    b: usize,
) -> Vec<(u32, ScreenGradients)> {
    BAND_SCRATCH.with(|cell| {
        let scratch = &mut *cell.borrow_mut();
        let slots = coverage.splats.len();
        if scratch.dense.len() < slots {
            scratch.dense.resize(slots, ScreenGradients::default());
            scratch.seen.resize(slots, false);
        }
        backward_band_with_scratch(
            coverage,
            shading,
            d_image,
            b,
            &mut scratch.dense,
            &mut scratch.seen,
        )
    })
}

/// The body of [`backward_band`] over a caller-provided dense accumulator
/// and first-touch flags whose first `coverage.splats.len()` entries are
/// all zero and all clear; restores that invariant before returning.
fn backward_band_with_scratch(
    coverage: &Coverage,
    shading: &Shading,
    d_image: &[[f32; 3]],
    b: usize,
    dense: &mut [ScreenGradients],
    seen: &mut [bool],
) -> Vec<(u32, ScreenGradients)> {
    let band = &coverage.bands[b];
    let width = coverage.width;
    let background = shading.background;
    let geometry = (
        width,
        coverage.height,
        coverage.band_height,
        b as u32 * coverage.band_height,
    );
    // Slots this band wrote to, each pushed once, on first touch.
    let mut touched: Vec<u32> = Vec::new();
    let mut pixel = 0;
    for_each_band_pixel(geometry, |_, px, py| {
        let (records, final_t) = (band.records(pixel), band.final_t[pixel]);
        pixel += 1;
        let d_pix = d_image[(py * width + px) as usize];
        if d_pix == [0.0; 3] {
            return;
        }
        let (cx, cy) = (px as f32 + 0.5, py as f32 + 0.5);
        let mut t = final_t;
        // Accumulated contribution *behind* the splat currently being
        // processed (starts as background).
        let mut behind = [
            background[0] * final_t,
            background[1] * final_t,
            background[2] * final_t,
        ];
        for r in records.rev().flat_map(|slab| slab.iter().rev()) {
            let slot = r.slot as usize;
            let p = &coverage.splats[slot];
            let alpha = clamped_alpha(p.opacity, r.gauss);
            // Transmittance in front of this splat.
            t /= 1.0 - alpha;
            if !seen[slot] {
                seen[slot] = true;
                touched.push(r.slot);
            }
            let g = &mut dense[slot];
            let color = shading.colors[slot];

            // Colour gradient.
            for c in 0..3 {
                g.d_color[c] += alpha * t * d_pix[c];
            }
            // Alpha gradient.
            let mut d_alpha = 0.0;
            for c in 0..3 {
                let dc_dalpha = color[c] * t - behind[c] / (1.0 - alpha);
                d_alpha += d_pix[c] * dc_dalpha;
            }
            // Update the "behind" accumulator for the next splat (the one
            // in front of this one).
            for c in 0..3 {
                behind[c] += color[c] * alpha * t;
            }

            // Chain through alpha = min(0.99, opacity * exp(power)).
            let (dx, dy) = (cx - p.mean2d.x, cy - p.mean2d.y);
            if p.opacity * r.gauss >= MAX_ALPHA {
                continue; // clamped: no gradient through opacity/geometry
            }
            g.d_opacity += r.gauss * d_alpha;
            let d_power = d_alpha * alpha;
            g.d_conic = Sym2::new(
                g.d_conic.a - 0.5 * dx * dx * d_power,
                g.d_conic.b - dx * dy * d_power,
                g.d_conic.c - 0.5 * dy * dy * d_power,
            );
            let (ca, cb, cc) = (p.conic.a, p.conic.b, p.conic.c);
            g.d_mean2d.x += (ca * dx + cb * dy) * d_power;
            g.d_mean2d.y += (cb * dx + cc * dy) * d_power;
        }
    });
    // Compress the touched slots to a sparse, slot-ordered list (so the
    // merge step visits contributing splats in a fixed order) while
    // resetting exactly those scratch entries for the next band.
    touched.sort_unstable();
    let mut out: Vec<(u32, ScreenGradients)> = Vec::with_capacity(touched.len());
    for &slot in &touched {
        seen[slot as usize] = false;
        let g = std::mem::take(&mut dense[slot as usize]);
        if !g.is_zero() {
            out.push((slot, g));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use gs_core::camera::CameraIntrinsics;
    use gs_core::gaussian::Gaussian;
    use gs_core::math::Vec3;
    use proptest::prelude::*;

    /// The lane expression before the exponent floor: what `lane_alpha`
    /// must be indistinguishable from to both of its consumers.
    fn scalar_alpha(opacity: f32, power: f32) -> (f32, f32) {
        let e = power.exp();
        let alpha = if power > 0.0 {
            0.0
        } else {
            (opacity * e).min(MAX_ALPHA)
        };
        (alpha, e)
    }

    /// The consumers `continue` on `alpha < MIN_ALPHA` before reading
    /// anything: a skipped lane may hold any values, a kept one must match
    /// bit for bit (NaN alphas are kept — `NaN < x` is false).
    fn assert_lane_matches_scalar(opacity: f32, power: f32) {
        let (alpha, gauss) = lane_alpha(opacity, alpha_power_floor(opacity), power);
        let (ref_alpha, ref_gauss) = scalar_alpha(opacity, power);
        let skipped = ref_alpha < MIN_ALPHA;
        assert_eq!(
            alpha < MIN_ALPHA,
            skipped,
            "opacity {opacity}, power {power}"
        );
        if !skipped {
            assert_eq!(alpha.to_bits(), ref_alpha.to_bits(), "{opacity}, {power}");
            assert_eq!(gauss.to_bits(), ref_gauss.to_bits(), "{opacity}, {power}");
        }
    }

    /// Opacities at the edges of `[0, 1]` and in between.
    const EDGE_OPACITIES: [f32; 9] = [
        0.0,
        1.0e-40,
        MIN_ALPHA,
        0.004,
        0.1,
        0.3,
        0.5,
        0.999_999_94,
        1.0,
    ];

    #[test]
    fn the_exponent_floor_sits_just_below_the_alpha_threshold() {
        let ulp = |x: f32, by: i32| f32::from_bits((x.to_bits() as i32 + by) as u32);
        for opacity in EDGE_OPACITIES {
            let floor = alpha_power_floor(opacity);
            let threshold = (MIN_ALPHA / opacity).ln();
            if opacity > 0.0 {
                // Below it the splat is skipped, with room for `expf`'s
                // error; and it is not so low that it misses the lanes it
                // is there for.
                assert!(
                    opacity * floor.exp() < MIN_ALPHA * (1.0 - 5.0e-4),
                    "{opacity}"
                );
                assert!(floor > threshold - 2.0e-3, "{opacity}");
            } else {
                assert_eq!(floor, f32::INFINITY, "{opacity}");
            }
            let edge_powers = [
                f32::NAN,
                f32::INFINITY,
                f32::NEG_INFINITY,
                f32::MIN_POSITIVE,
                1.0e-30,
                3.0,
                0.0,
                -0.0,
                floor,
                // Negative floats: one ulp up in bits is one ulp further
                // down.
                ulp(floor, 1),
                ulp(floor, -1),
                threshold,
                ulp(threshold, 1),
                ulp(threshold, -1),
                -100.0,
            ];
            for power in edge_powers {
                for other in EDGE_OPACITIES {
                    assert_lane_matches_scalar(other, power);
                }
            }
        }
        // A NaN exponent was never skipped (`NaN.min(MAX_ALPHA)`), and is
        // not now; nor does a NaN opacity skip anything.
        assert_eq!(
            lane_alpha(0.5, alpha_power_floor(0.5), f32::NAN).0,
            MAX_ALPHA
        );
        assert!(alpha_power_floor(f32::NAN).is_nan());
        assert!(lane_alpha(f32::NAN, f32::NAN, -100.0).1 > 0.0);
        // At the floor the lane still evaluates; one ulp below it does not.
        let floor = alpha_power_floor(1.0);
        assert!(lane_alpha(1.0, floor, floor).1 > 0.0);
        assert_eq!(lane_alpha(1.0, floor, ulp(floor, 1)), (0.0, 0.0));
    }

    proptest! {
        #[test]
        fn lane_alpha_matches_the_scalar_expression_across_the_floor(
            opacity in 0.0f32..=1.0,
            power in -12.0f32..2.0,
            near_floor in -0.01f32..0.01,
            near_threshold in -0.01f32..0.01,
        ) {
            assert_lane_matches_scalar(opacity, power);
            assert_lane_matches_scalar(opacity, alpha_power_floor(opacity) + near_floor);
            assert_lane_matches_scalar(opacity, (MIN_ALPHA / opacity).ln() + near_threshold);
        }
    }

    fn camera(px: u32) -> Camera {
        camera_sized(px, px)
    }

    fn camera_sized(width: u32, height: u32) -> Camera {
        Camera::look_at(
            Vec3::ZERO,
            Vec3::Z,
            Vec3::Y,
            CameraIntrinsics::simple(width, height, 60.0_f32.to_radians()),
        )
        .with_clip(0.1, 100.0)
    }

    fn single_gaussian_scene() -> GaussianModel {
        let mut model = GaussianModel::new();
        model.push(Gaussian::isotropic(
            Vec3::new(0.0, 0.0, 5.0),
            0.5,
            [0.9, 0.2, 0.1],
            0.95,
        ));
        model
    }

    #[test]
    fn empty_scene_renders_background() {
        let model = GaussianModel::new();
        let out = render(
            &model,
            &camera(16),
            &RenderOptions {
                background: [0.1, 0.2, 0.3],
                visible: None,
                ..RenderOptions::default()
            },
        );
        for p in out.image.pixels() {
            assert_eq!(*p, [0.1, 0.2, 0.3]);
        }
        assert_eq!(out.aux.projected_count(), 0);
    }

    #[test]
    fn single_gaussian_colors_center_pixel() {
        let model = single_gaussian_scene();
        let cam = camera(32);
        let out = render(&model, &cam, &RenderOptions::default());
        let center = out.image.pixel(16, 16);
        // Red-dominant colour shows up at the centre.
        assert!(center[0] > 0.5, "center {center:?}");
        assert!(center[0] > center[1] && center[0] > center[2]);
        // Corner remains (nearly) background.
        let corner = out.image.pixel(0, 0);
        assert!(corner[0] < 0.2);
    }

    #[test]
    fn visible_subset_restricts_rendering() {
        let mut model = single_gaussian_scene();
        // Second, green Gaussian slightly off to the side.
        model.push(Gaussian::isotropic(
            Vec3::new(1.0, 0.0, 5.0),
            0.5,
            [0.1, 0.9, 0.1],
            0.95,
        ));
        let cam = camera(32);
        let all = render(&model, &cam, &RenderOptions::default());
        let only_first = render(
            &model,
            &cam,
            &RenderOptions {
                background: [0.0; 3],
                visible: Some(vec![0]),
                ..RenderOptions::default()
            },
        );
        assert_ne!(all.image, only_first.image);
        assert_eq!(only_first.aux.projected_count(), 1);
    }

    #[test]
    fn rendering_with_full_visibility_matches_unrestricted() {
        let mut model = single_gaussian_scene();
        model.push(Gaussian::isotropic(
            Vec3::new(0.5, 0.3, 7.0),
            0.4,
            [0.2, 0.3, 0.9],
            0.8,
        ));
        let cam = camera(32);
        let unrestricted = render(&model, &cam, &RenderOptions::default());
        let explicit = render(
            &model,
            &cam,
            &RenderOptions {
                background: [0.0; 3],
                visible: Some(vec![0, 1]),
                ..RenderOptions::default()
            },
        );
        assert_eq!(unrestricted.image, explicit.image);
    }

    #[test]
    fn nearer_gaussian_occludes_farther() {
        let mut model = GaussianModel::new();
        // Opaque red Gaussian in front.
        model.push(Gaussian::isotropic(
            Vec3::new(0.0, 0.0, 3.0),
            0.5,
            [1.0, 0.0, 0.0],
            0.99,
        ));
        // Opaque green Gaussian behind.
        model.push(Gaussian::isotropic(
            Vec3::new(0.0, 0.0, 8.0),
            0.5,
            [0.0, 1.0, 0.0],
            0.99,
        ));
        let out = render(&model, &camera(32), &RenderOptions::default());
        let center = out.image.pixel(16, 16);
        assert!(center[0] > 0.6, "front splat should dominate: {center:?}");
        assert!(center[1] < 0.4);
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn invalid_visible_index_panics() {
        let model = single_gaussian_scene();
        let _ = render(
            &model,
            &camera(16),
            &RenderOptions {
                background: [0.0; 3],
                visible: Some(vec![7]),
                ..RenderOptions::default()
            },
        );
    }

    /// Finite-difference check of the full render backward: perturb a
    /// parameter, recompute a scalar loss, compare with the analytic
    /// gradient.
    #[test]
    fn backward_matches_finite_difference_on_scalar_loss() {
        let mut model = GaussianModel::new();
        model.push(Gaussian::isotropic(
            Vec3::new(0.1, -0.2, 4.0),
            0.4,
            [0.6, 0.3, 0.8],
            0.7,
        ));
        model.push(Gaussian::isotropic(
            Vec3::new(-0.3, 0.1, 6.0),
            0.5,
            [0.2, 0.7, 0.4],
            0.6,
        ));
        let cam = camera(24);

        // Loss = sum of all pixel channels (so dL/dpixel = 1 everywhere).
        let loss = |m: &GaussianModel| -> f32 {
            let out = render(m, &cam, &RenderOptions::default());
            out.image.pixels().iter().map(|p| p[0] + p[1] + p[2]).sum()
        };

        let out = render(&model, &cam, &RenderOptions::default());
        let d_image = vec![[1.0f32; 3]; out.image.pixel_count()];
        let grads = render_backward(&model, &cam, &out.aux, &d_image);
        assert!(!grads.is_empty());

        let eps = 2e-3;
        let checks: Vec<(&str, Box<dyn Fn(&mut GaussianModel, f32)>, f32)> = vec![
            (
                "g0 position.x",
                Box::new(|m: &mut GaussianModel, e: f32| m.positions_mut()[0].x += e),
                grads.get(0).unwrap().d_position.x,
            ),
            (
                "g0 opacity_logit",
                Box::new(|m: &mut GaussianModel, e: f32| m.opacity_logits_mut()[0] += e),
                grads.get(0).unwrap().d_opacity_logit,
            ),
            (
                "g1 log_scale.y",
                Box::new(|m: &mut GaussianModel, e: f32| m.log_scales_mut()[1].y += e),
                grads.get(1).unwrap().d_log_scale.y,
            ),
            (
                "g1 sh dc (red)",
                Box::new(|m: &mut GaussianModel, e: f32| m.sh_mut()[48] += e),
                grads.get(1).unwrap().d_sh[0],
            ),
        ];
        for (label, mutate, analytic) in checks {
            let mut plus = model.clone();
            mutate(&mut plus, eps);
            let mut minus = model.clone();
            mutate(&mut minus, -eps);
            let fd = (loss(&plus) - loss(&minus)) / (2.0 * eps);
            let scale = 1.0f32.max(fd.abs()).max(analytic.abs());
            assert!(
                (fd - analytic).abs() / scale < 0.08,
                "{label}: finite diff {fd} vs analytic {analytic}"
            );
        }
    }

    #[test]
    fn banded_render_is_bit_identical_for_any_thread_count() {
        // The tentpole determinism contract at the crate level: with band
        // geometry fixed, the thread count is pure scheduling — image,
        // pixel states and gradients are bit-identical.
        let mut model = GaussianModel::new();
        model.push(Gaussian::isotropic(
            Vec3::new(0.1, -0.4, 4.0),
            0.6,
            [0.6, 0.3, 0.8],
            0.7,
        ));
        model.push(Gaussian::isotropic(
            Vec3::new(-0.3, 0.5, 6.0),
            0.8,
            [0.2, 0.7, 0.4],
            0.6,
        ));
        model.push(Gaussian::isotropic(
            Vec3::new(0.0, 0.0, 3.0),
            0.2,
            [0.9, 0.9, 0.1],
            0.9,
        ));
        let cam = camera(48);
        for band_height in [4u32, 16] {
            let opts = |threads: usize| RenderOptions {
                compute_threads: threads,
                band_height,
                ..RenderOptions::default()
            };
            let reference = render(&model, &cam, &opts(1));
            let d_image = vec![[0.7f32, -0.2, 1.3]; reference.image.pixel_count()];
            let ref_grads = render_backward(&model, &cam, &reference.aux, &d_image);
            assert!(!ref_grads.is_empty());
            for threads in [2usize, 3, 8] {
                let out = render(&model, &cam, &opts(threads));
                assert_eq!(
                    out.image, reference.image,
                    "band {band_height}, threads {threads}"
                );
                let grads = render_backward(&model, &cam, &out.aux, &d_image);
                assert_eq!(
                    grads, ref_grads,
                    "band {band_height}, threads {threads}: gradients must be bit-identical"
                );
            }
        }
    }

    #[test]
    fn zero_compute_threads_renders_serially_bit_identical_to_one() {
        // `compute_threads = 0` clamps to 1: the aux reports the clamped
        // value and the output is the serial render's.
        let model = single_gaussian_scene();
        let cam = camera(32);
        let render_with = |compute_threads| {
            render(
                &model,
                &cam,
                &RenderOptions {
                    compute_threads,
                    ..RenderOptions::default()
                },
            )
        };
        let (serial, zero) = (render_with(1), render_with(0));
        assert_eq!(zero.aux.compute_threads(), 1);
        assert_eq!(serial.aux.compute_threads(), 1);
        assert_eq!(zero.image, serial.image);
        assert_eq!(serial.aux.band_height(), DEFAULT_BAND_HEIGHT);
    }

    #[test]
    fn zero_image_gradient_produces_no_gaussian_gradients() {
        let model = single_gaussian_scene();
        let cam = camera(16);
        let out = render(&model, &cam, &RenderOptions::default());
        let d_image = vec![[0.0f32; 3]; out.image.pixel_count()];
        let grads = render_backward(&model, &cam, &out.aux, &d_image);
        assert!(grads.is_empty());
    }

    #[test]
    fn gradients_only_for_contributing_gaussians() {
        let mut model = single_gaussian_scene();
        // A Gaussian far outside the view contributes nothing.
        model.push(Gaussian::isotropic(
            Vec3::new(500.0, 0.0, 5.0),
            0.5,
            [1.0, 1.0, 1.0],
            0.9,
        ));
        let cam = camera(24);
        let out = render(&model, &cam, &RenderOptions::default());
        let d_image = vec![[1.0f32; 3]; out.image.pixel_count()];
        let grads = render_backward(&model, &cam, &out.aux, &d_image);
        assert!(grads.get(0).is_some());
        assert!(grads.get(1).is_none());
    }

    #[test]
    fn depth_keys_sort_as_the_stable_total_cmp_depth_sort() {
        // The key's high half orders every pair of edge depths as
        // `total_cmp` does: a positive NaN behind everything, a negative one
        // in front, -0 before +0.
        let edges = [
            f32::NAN,
            -f32::NAN,
            f32::INFINITY,
            f32::NEG_INFINITY,
            0.0,
            -0.0,
            f32::MIN_POSITIVE,
            -f32::MIN_POSITIVE,
            1.0e-45,
            -1.0e-45,
            1.0,
            -1.0,
            f32::MAX,
            f32::MIN,
        ];
        for a in edges {
            for b in edges {
                let (ka, kb) = (total_order_bits(a), total_order_bits(b));
                assert_eq!(ka.cmp(&kb), a.total_cmp(&b), "{a} vs {b}");
            }
        }
        // Sorted keys list the candidates inside the clip range (a NaN depth
        // included, both clip planes inclusive) in the stable `total_cmp`
        // order of their depths: equal depths in candidate order.
        let cam = camera(16);
        let depths = [
            3.0,
            f32::NAN,
            1.0,
            2.0,
            1.0,
            0.5,
            f32::NAN,
            2.0,
            -f32::NAN,
            0.05,
            150.0,
            100.0,
            0.1,
            f32::INFINITY,
        ];
        let depths: Vec<f32> = (0..2000)
            .map(|k| match k % 7 {
                0 => depths[(k / 7) % depths.len()],
                _ => ((k * 37) % 101) as f32,
            })
            .collect();
        let model: GaussianModel = depths
            .iter()
            .map(|&z| Gaussian::isotropic(Vec3::new(0.0, 0.0, z), 0.5, [0.5; 3], 0.5))
            .collect();
        let candidates: Vec<u32> = (0..model.len() as u32).rev().collect();
        let mut keys = depth_keys(&model, &cam, &candidates);
        keys.sort_unstable();
        let z = |k: usize| {
            cam.world_to_camera(model.positions()[candidates[k] as usize])
                .z
        };
        let mut expected: Vec<usize> = (0..candidates.len())
            .filter(|&k| !(z(k) < cam.near || z(k) > cam.far))
            .collect();
        expected.sort_by(|&a, &b| z(a).total_cmp(&z(b)));
        let sorted: Vec<usize> = keys.iter().map(|&key| key as u32 as usize).collect();
        assert_eq!(sorted, expected);
        assert!(sorted.len() < candidates.len(), "nothing clipped");
        assert!(sorted.iter().any(|&k| z(k).is_nan()), "no NaN depth kept");
    }

    /// A random small scene in front of `camera(px)`: clustered splats so
    /// that pixels saturate and walks terminate, a few wide and a few
    /// near-opaque ones (alpha clamped at [`MAX_ALPHA`]), and a corner left
    /// empty so some tiles have no splat at all.
    fn random_scene(splats: &[((f32, f32, f32), (f32, f32, f32), (f32, f32))]) -> GaussianModel {
        splats
            .iter()
            .map(|&((x, y, z), (sigma, r, g), (opacity, spin))| {
                let mut gaussian =
                    Gaussian::isotropic(Vec3::new(x, y, z), sigma, [r, g, 1.0 - r], opacity);
                gaussian.log_scale.x += spin;
                gaussian.rotation =
                    gs_core::math::Quat::from_axis_angle(Vec3::new(spin, 1.0, 0.3), spin);
                for (k, c) in gaussian.sh.iter_mut().enumerate().skip(3) {
                    *c = 0.05 * ((k as f32) * spin + r).sin();
                }
                gaussian
            })
            .collect()
    }

    /// What a render's backward yields for a fixed, sign-varied loss
    /// gradient.
    fn gradients_of(model: &GaussianModel, cam: &Camera, out: &RenderOutput) -> RenderGradients {
        let d_image: Vec<[f32; 3]> = (0..out.image.pixel_count())
            .map(|k| [0.7 - (k % 5) as f32 * 0.3, 0.2, -0.4 + (k % 3) as f32 * 0.5])
            .collect();
        render_backward(model, cam, &out.aux, &d_image)
    }

    proptest! {
        #[test]
        fn rendering_the_reached_set_equals_rendering_every_candidate(
            splats in proptest::collection::vec(
                (
                    (-1.2f32..0.6, -1.2f32..0.6, 2.5f32..6.0),
                    (0.02f32..0.6, 0.0f32..1.0, 0.0f32..1.0),
                    (0.05f32..0.9995, -0.8f32..0.8),
                ),
                1..60,
            ),
            px in 8u32..40,
            band_height in 3u32..20,
        ) {
            // Exactness of the fetch skip at the renderer: dropping every
            // candidate no pixel's walk reaches changes no record, so image,
            // gradients and the reached set itself are bit-identical — at
            // every thread count.  And shading reads the reached splats'
            // colours only: poisoning every other SH row changes nothing.
            let model = random_scene(&splats);
            let cam = camera(px);
            let options = |threads: usize, visible: Option<Vec<u32>>| RenderOptions {
                background: [0.1, 0.2, 0.3],
                visible,
                compute_threads: threads,
                band_height,
            };
            let full = render(&model, &cam, &options(1, None));
            let full_grads = gradients_of(&model, &cam, &full);
            let reached = full.aux.coverage().reached().clone();
            prop_assert!(reached.len() <= full.aux.projected_count());
            prop_assert!(full_grads.iter().all(|(i, _)| reached.contains(*i)));

            let mut poisoned = model.clone();
            for i in (0..model.len() as u32).filter(|&i| !reached.contains(i)) {
                poisoned.sh_mut()[i as usize * gs_core::SH_FLOATS..][..gs_core::SH_FLOATS]
                    .fill(f32::NAN);
            }
            for threads in [1usize, 2, 3] {
                let subset = render(&model, &cam, &options(threads, Some(reached.indices().to_vec())));
                prop_assert_eq!(&subset.image, &full.image);
                prop_assert_eq!(subset.aux.coverage().reached(), &reached);
                prop_assert_eq!(gradients_of(&model, &cam, &subset), full_grads.clone());

                let cover = coverage(&poisoned, &cam, &options(threads, None));
                let (image, shading) = shade(&poisoned, &cover, [0.1, 0.2, 0.3]);
                prop_assert_eq!(&image, &full.image);
                let d_image = vec![[0.5f32, -0.25, 1.0]; image.pixel_count()];
                prop_assert_eq!(
                    shade_backward(&poisoned, &cam, &cover, &shading, &d_image),
                    render_backward(&model, &cam, &full.aux, &d_image)
                );
            }
        }
    }

    #[test]
    fn the_random_scenes_reach_the_walks_edge_cases() {
        // The property above is only as strong as the walks its scenes
        // produce: a fixed dense scene must terminate some walk, clamp some
        // splat at MAX_ALPHA, leave some tile empty and leave some projected
        // candidate unreached.
        let splats: Vec<_> = (0..40)
            .map(|k| {
                let f = k as f32;
                let (x, y) = (-0.9 + (f * 0.37) % 1.2, -0.9 + (f * 0.53) % 1.2);
                if k % 4 == 0 {
                    // Near, wide and nearly opaque: clamped around its centre.
                    ((x, y, 2.5), (0.4, 0.9, 0.1), (0.9995, 0.0))
                } else {
                    (
                        (x, y, 3.0 + (f * 0.71) % 3.0),
                        (0.05 + (f * 0.13) % 0.5, (f * 0.31) % 1.0, (f * 0.17) % 1.0),
                        (0.3 + (f * 0.07) % 0.6, 0.1),
                    )
                }
            })
            .chain(
                // Three opaque layers over the image centre, and a splat
                // behind them that no walk reaches.
                [2.6, 2.7, 2.8, 5.0].map(|z| ((0.0, 0.0, z), (0.3, 0.5, 0.5), (0.9995, 0.0))),
            )
            .collect();
        let model = random_scene(&splats);
        let cam = camera(32);
        let out = render(&model, &cam, &RenderOptions::default());
        let cover = out.aux.coverage();
        let records = || (cover.bands.iter().flat_map(|b| &b.slabs)).flat_map(|s| &s.records);
        let terminated = cover
            .bands
            .iter()
            .flat_map(|b| &b.final_t)
            .filter(|&&t| t < 1e-3)
            .count();
        let clamped = records()
            .filter(|r| cover.splats[r.slot as usize].opacity * r.gauss >= MAX_ALPHA)
            .count();
        let empty_pixels = (cover.bands.iter())
            .flat_map(|b| (0..b.final_t.len()).map(|p| b.records(p).all(|r| r.is_empty())))
            .filter(|&empty| empty)
            .count();
        assert!(terminated > 0, "no walk terminated");
        assert!(clamped > 0, "no splat clamped at MAX_ALPHA");
        assert!(empty_pixels > 0, "no pixel without a record");
        assert!(
            cover.reached().len() < cover.projected_count(),
            "nothing unreached"
        );
    }

    /// A projected splat's fields as bits.
    fn splat_bits(p: &ProjectedGaussian) -> [u32; 9] {
        let f = [
            p.mean2d.x, p.mean2d.y, p.depth, p.conic.a, p.conic.b, p.conic.c, p.radius, p.opacity,
        ];
        std::array::from_fn(|k| if k == 0 { p.index } else { f[k - 1].to_bits() })
    }

    /// Every pixel's final transmittance and walk records, band by band, as
    /// bits.
    fn walk_bits(c: &Coverage) -> Vec<(u32, Vec<(u32, u32)>)> {
        (c.bands.iter())
            .flat_map(|b| {
                (0..b.final_t.len()).map(|p| {
                    let records = b.records(p).flatten();
                    let records = records.map(|r| (r.slot, r.gauss.to_bits())).collect();
                    (b.final_t[p].to_bits(), records)
                })
            })
            .collect()
    }

    /// [`coverage`] with a first slab of `first_slab` candidates.
    fn group_coverage(
        model: &GaussianModel,
        cam: &Camera,
        options: &RenderOptions,
        first_slab: usize,
    ) -> Coverage {
        coverage_in_slabs(model, cam, options, first_slab, |band, tiles, _| {
            band.walk(tiles)
        })
    }

    /// Asserts that `slabs` is byte-identical to `oracle`, the same
    /// coverage in one slab of every candidate: each pixel's records and
    /// final transmittance, the reached set, both counters, a prefix of the
    /// oracle's splats (all of them when a walk ran out of candidates), and
    /// the image and gradients shaded from it.
    fn assert_same_coverage(
        model: &GaussianModel,
        cam: &Camera,
        slabs: &Coverage,
        oracle: &Coverage,
    ) {
        assert_eq!(walk_bits(slabs), walk_bits(oracle));
        assert_eq!(slabs.reached(), oracle.reached());
        assert_eq!(slabs.reached_slots, oracle.reached_slots);
        assert_eq!(slabs.open_pixels(), oracle.open_pixels());
        assert_eq!(slabs.entry_evaluations(), oracle.entry_evaluations());
        let prefix = slabs.projected_count();
        assert!(prefix <= oracle.projected_count());
        if oracle.open_pixels() > 0 {
            assert_eq!(prefix, oracle.projected_count());
        }
        let bits = |splats: &[ProjectedGaussian]| splats.iter().map(splat_bits).collect::<Vec<_>>();
        assert_eq!(bits(&slabs.splats), bits(&oracle.splats[..prefix]));

        let background = [0.1, 0.2, 0.3];
        let (image, shading) = shade(model, slabs, background);
        let (oracle_image, oracle_shading) = shade(model, oracle, background);
        let image_bits = |image: &Image| {
            (image.pixels().iter())
                .map(|p| p.map(f32::to_bits))
                .collect::<Vec<_>>()
        };
        assert_eq!(image_bits(&image), image_bits(&oracle_image));
        let d_image: Vec<[f32; 3]> = (0..image.pixel_count())
            .map(|k| [0.7 - (k % 5) as f32 * 0.3, 0.2, -0.4 + (k % 3) as f32 * 0.5])
            .collect();
        assert_eq!(
            format!(
                "{:?}",
                shade_backward(model, cam, slabs, &shading, &d_image)
            ),
            format!(
                "{:?}",
                shade_backward(model, cam, oracle, &oracle_shading, &d_image)
            )
        );
    }

    /// `random_scene` plus rows the depth keys must order or drop exactly:
    /// a NaN depth, ±inf depths, depths before the near and beyond the far
    /// plane (`camera` clips at 0.1 and 100), and exact copies of earlier
    /// rows (equal-depth ties); and rows of zero, NaN and full opacity (a
    /// logit of -inf, NaN, +inf) and of NaN `x` or `y`.
    fn scene_with_edge_rows(
        splats: &[((f32, f32, f32), (f32, f32, f32), (f32, f32))],
        edges: &[(u32, usize)],
    ) -> GaussianModel {
        let mut model = random_scene(splats);
        for &(kind, row) in edges {
            let mut g = model.get(row % splats.len());
            match kind {
                0 => g.position.z = f32::NAN,
                1 => g.position.z = f32::INFINITY,
                2 => g.position.z = f32::NEG_INFINITY,
                3 => g.position.z = 0.05,
                4 => g.position.z = 150.0,
                8 => g.opacity_logit = f32::NEG_INFINITY,
                9 => g.opacity_logit = f32::NAN,
                10 => g.opacity_logit = f32::INFINITY,
                11 => g.position.x = f32::NAN,
                12 => g.position.y = f32::NAN,
                _ => {}
            }
            model.push(g);
        }
        model
    }

    proptest! {
        #[test]
        fn slabs_are_byte_identical_to_one_slab_of_everything(
            splats in proptest::collection::vec(
                (
                    (-1.2f32..0.6, -1.2f32..0.6, 2.5f32..6.0),
                    (0.02f32..0.6, 0.0f32..1.0, 0.0f32..1.0),
                    (0.05f32..0.9995, -0.8f32..0.8),
                ),
                1..60,
            ),
            edges in proptest::collection::vec((0u32..8, 0usize..60), 0..8),
            view in (8u32..40, 3u32..20, 0u32..3),
        ) {
            // The slab schedule changes what is projected, never what any
            // pixel's walk sees: for every first-slab size, thread count and
            // band height, the walk, its counters and everything shaded from
            // it equal one slab of every candidate.
            let (px, band_height, visible) = view;
            let model = scene_with_edge_rows(&splats, &edges);
            let cam = camera(px);
            let n = model.len() as u32;
            let visible = match visible {
                0 => None,
                1 => Some((0..n).rev().collect()),
                _ => Some((0..n).chain((0..n).step_by(3)).collect()),
            };
            let options = |threads: usize| RenderOptions {
                background: [0.0; 3],
                visible: visible.clone(),
                compute_threads: threads,
                band_height,
            };
            let oracle = group_coverage(&model, &cam, &options(1), usize::MAX);
            for threads in [1usize, 2, 3] {
                for first_slab in [1usize, 3, 8, 21] {
                    let slabs = group_coverage(&model, &cam, &options(threads), first_slab);
                    assert_same_coverage(&model, &cam, &slabs, &oracle);
                }
            }
        }
    }

    #[test]
    fn slabs_match_one_slab_whether_no_some_or_every_walk_terminates() {
        let cam = camera(32);
        let pixels = 32 * 32;
        // Faint splats: no walk terminates, so the slabs run through every
        // candidate.
        let faint: Vec<_> = (0..30)
            .map(|k| {
                let f = k as f32;
                let (x, y) = (-0.8 + (f * 0.37) % 1.6, -0.8 + (f * 0.53) % 1.6);
                ((x, y, 3.0 + (f * 0.71) % 3.0), (0.3, 0.4, 0.6), (0.05, 0.2))
            })
            .collect();
        // An opaque centre: the walks under it terminate, the others do not.
        let centre: Vec<_> = faint
            .iter()
            .copied()
            .chain([2.6, 2.7, 2.8, 2.9].map(|z| ((0.0, 0.0, z), (0.2, 0.5, 0.5), (0.9995, 0.0))))
            .collect();
        // Opaque layers over the whole view in front of everything else:
        // every walk terminates within the first slabs.
        let wall: Vec<_> = centre
            .iter()
            .copied()
            .chain((0..6).map(|k| {
                (
                    (0.0, 0.0, 2.0 + 0.01 * k as f32),
                    (3.0, 0.2, 0.7),
                    (0.9995, 0.0),
                )
            }))
            .collect();
        for (splats, open) in [
            (&faint, pixels..=pixels),
            (&centre, 1..=pixels - 1),
            (&wall, 0..=0),
        ] {
            let model = random_scene(splats);
            let oracle = group_coverage(&model, &cam, &RenderOptions::default(), usize::MAX);
            assert!(
                open.contains(&oracle.open_pixels()),
                "{} open",
                oracle.open_pixels()
            );
            for first_slab in [1usize, 2, 5, 16] {
                let slabs = group_coverage(&model, &cam, &RenderOptions::default(), first_slab);
                assert_same_coverage(&model, &cam, &slabs, &oracle);
                if oracle.open_pixels() == 0 && first_slab == 2 {
                    // More than one slab ran, and the walks ended early.
                    let projected = slabs.projected_count();
                    assert!(first_slab < projected && projected < oracle.projected_count());
                }
            }
        }
    }

    /// A per-pixel walk in lane blocks, the oracle of [`BandWalk::walk`]:
    /// pixel by pixel, each open pixel evaluates its tile's list from the
    /// group's resume point in blocks of [`gs_core::LANE_WIDTH`] entries
    /// (every alpha of a block, then the block's entries in order) and,
    /// before the `last` slab, stops in front of a block the slab only
    /// partly filled.  Counts one evaluation per entry a pixel walks, the
    /// one that ends it included.
    fn lane_block_walk(band: &mut BandWalk, tiles: &[Vec<TileEntry>], last: bool) {
        const LANES: usize = gs_core::LANE_WIDTH;
        let mut slab = SlabRecords::default();
        for group in &mut band.groups {
            let list = &tiles[group.tile as usize];
            let walkable = if last {
                list.len()
            } else {
                list.len() - list.len() % LANES
            };
            let mut next = group.next;
            for l in 0..group.len {
                if group.open & 1 << l != 0 {
                    let (cx, cy) = (group.cx[l], group.cy[l]);
                    let mut t = group.t[l];
                    let mut base = group.next;
                    'blocks: while base < walkable {
                        let block = &list[base..(base + LANES).min(list.len())];
                        let mut lanes = [(0.0f32, 0.0f32); LANES];
                        for (lane, e) in lanes.iter_mut().zip(block) {
                            let dx = cx - e.mean_x;
                            let dy = cy - e.mean_y;
                            let power = -0.5
                                * (e.conic_a * dx * dx
                                    + 2.0 * e.conic_b * dx * dy
                                    + e.conic_c * dy * dy);
                            *lane = lane_alpha(e.opacity, e.floor, power);
                        }
                        for (e, &(alpha, gauss)) in block.iter().zip(&lanes) {
                            band.entry_evaluations += 1;
                            if alpha < MIN_ALPHA {
                                continue;
                            }
                            slab.records.push(Contribution {
                                slot: e.slot,
                                gauss,
                            });
                            let next_t = t * (1.0 - alpha);
                            if next_t < TRANSMITTANCE_EPS {
                                group.open &= !(1 << l);
                                band.open -= 1;
                                break 'blocks;
                            }
                            t = next_t;
                        }
                        base += LANES;
                    }
                    group.t[l] = t;
                    if group.open & 1 << l != 0 {
                        next = base;
                    }
                }
                slab.ends.push(slab.records.len() as u32);
            }
            group.next = next;
        }
        band.slabs.push(slab);
    }

    proptest! {
        #[test]
        fn the_group_walk_matches_the_per_pixel_lane_block_walk(
            splats in proptest::collection::vec(
                (
                    (-1.2f32..0.6, -1.2f32..0.6, 2.5f32..6.0),
                    (0.02f32..0.6, 0.0f32..1.0, 0.0f32..1.0),
                    (0.05f32..0.9995, -0.8f32..0.8),
                ),
                1..60,
            ),
            edges in proptest::collection::vec((0u32..14, 0usize..60), 0..10),
            size in 0usize..2,
        ) {
            // Every pixel evaluates the same entries with the same bits and
            // stops at the same one, at any band height, thread count and
            // slab split; the work count does not depend on any of them.
            // Only the projected prefix may be shorter: the oracle waits in
            // front of a slab's last, partly filled lane block for the next
            // slab even when that block ends the walk.
            let (width, height) = [(23, 17), (48, 36)][size];
            let model = scene_with_edge_rows(&splats, &edges);
            let cam = camera_sized(width, height);
            let mut evaluations = None;
            for band_height in [1u32, 5, 16, 33] {
                for compute_threads in [1usize, 3] {
                    let options = RenderOptions {
                        background: [0.0; 3],
                        visible: None,
                        compute_threads,
                        band_height,
                    };
                    for first_slab in [1usize, 7, FIRST_SLAB, usize::MAX] {
                        let groups = group_coverage(&model, &cam, &options, first_slab);
                        let oracle =
                            coverage_in_slabs(&model, &cam, &options, first_slab, lane_block_walk);
                        prop_assert_eq!(walk_bits(&groups), walk_bits(&oracle));
                        prop_assert_eq!(groups.reached(), oracle.reached());
                        prop_assert_eq!(groups.open_pixels(), oracle.open_pixels());
                        prop_assert!(groups.projected_count() <= oracle.projected_count());
                        prop_assert_eq!(groups.entry_evaluations(), oracle.entry_evaluations());
                        let first = *evaluations.get_or_insert(groups.entry_evaluations());
                        prop_assert_eq!(groups.entry_evaluations(), first);
                    }
                }
            }
        }
    }
}
