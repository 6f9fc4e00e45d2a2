//! Tile-based alpha-compositing rasteriser (forward and backward).
//!
//! The forward pass mirrors the reference 3DGS renderer: projected splats
//! are depth-sorted, binned into 16×16 pixel tiles, and composited
//! front-to-back per pixel with early termination once transmittance drops
//! below a threshold.  The backward pass walks each pixel's splat list in
//! reverse, reconstructing per-splat alpha to produce gradients with respect
//! to the screen-space quantities, which are then chained through
//! [`crate::projection`] back to the Gaussian parameters.
//!
//! # Banded parallelism, deterministic by construction
//!
//! Both passes are organised around fixed-size **horizontal pixel bands**
//! ([`RenderOptions::band_height`] rows each).  Band geometry depends only
//! on the image size and the configured band height — **never** on the
//! thread count — and the bands are the unit of work handed to the scoped
//! parallel regions of [`crate::parallel`]:
//!
//! * **forward**: each band composites its own pixels into a disjoint slice
//!   of the output image.  Every pixel is a pure function of the projected
//!   splats, so the image is bit-identical for any `compute_threads`.
//! * **backward**: each band accumulates its pixels' contributions into its
//!   own sparse screen-space gradient accumulator; the per-band accumulators
//!   are then merged **in fixed band order** on the calling thread.  The
//!   floating-point accumulation order is therefore a function of the band
//!   geometry alone, and the gradients are bit-identical for any thread
//!   count.  (The per-slot chain through [`crate::projection`] is pure, so
//!   it parallelises over slots with no ordering concern at all.)
//!
//! `compute_threads = 1` runs exactly the same banded code path, so "the
//! serial path" and "the parallel path at width 1" are one and the same.
//!
//! # Lane-staged tiles (SoA inner loops)
//!
//! After binning, each tile's splats are staged into a `TileSoa` (private): one
//! `f32` array per screen-space attribute (means, conic, opacity, colour),
//! zero-padded to a multiple of [`LANES`].  The per-pixel alpha evaluation
//! then runs over fixed-width lane blocks (`TileSoa::lane_alphas`) whose
//! inner loops the autovectoriser lowers to SIMD — only `exp` stays a
//! scalar libm call per lane.  This changes *scheduling only*: every lane
//! evaluates exactly the expressions the scalar `splat_alpha` evaluated
//! (`power > 0 → skip` becomes the sentinel alpha `0.0 < MIN_ALPHA`), and
//! the compositing walk over the results is unchanged, so images and
//! gradients stay bit-identical.  Zero padding is inert by construction: a
//! zero lane yields `power = -0.0 → alpha = 0.0 → skipped`.
//!
//! The prologue (projection, tile binning, SoA staging) is also
//! band/tile-parallel in the same way.  Projection preserves candidate
//! order via an index-ordered map; binning assigns each *tile row* to one
//! job that scans the depth-sorted splats in slot order, reproducing the
//! serial per-tile list order exactly.

use crate::image::Image;
use crate::parallel::{parallel_for_each, parallel_map, resolve_compute_threads};
use crate::projection::{
    project_gaussian_backward, GaussianGradients, ProjectedGaussian, ProjectionContext,
    ProjectionSetup, ScreenGradients, MAX_ALPHA, MIN_ALPHA,
};
use gs_core::camera::Camera;
use gs_core::gaussian::GaussianModel;
use gs_core::math::Sym2;
use gs_core::soa::LANE_WIDTH as LANES;

/// Tile edge length in pixels.
pub const TILE_SIZE: u32 = 16;

/// Transmittance below which compositing terminates early.
pub const TRANSMITTANCE_EPS: f32 = 1e-4;

/// Gaussian exponents below this floor yield an alpha under [`MIN_ALPHA`]
/// whatever the splat's opacity (at most 1), so the lane kernels skip the
/// `exp`: `ln(MIN_ALPHA) = −5.54126…`, less a 1e-3 margin that dwarfs
/// `expf`'s ≤ 1 ulp error and the rounding of `opacity · exp(power)`.
const ALPHA_POWER_FLOOR: f32 = -5.5423;

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
    /// Worker threads for the banded forward/backward kernels.  `0` means
    /// *inherit*: resolve through the process-wide default width
    /// ([`crate::parallel::default_compute_threads`], which the runtime's
    /// autotuner sizes to the host's effective cores) rather than silently
    /// running serial; `1` runs everything on the calling thread.  Pure
    /// scheduling: the rendered image and the gradients are bit-identical
    /// for every value, and [`RenderAux`] reports the resolved count, not
    /// the sentinel.
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

/// Per-pixel state saved by the forward pass for the backward pass.
#[derive(Debug, Clone, Copy, Default)]
struct PixelState {
    /// Transmittance remaining after compositing.
    final_t: f32,
    /// Number of tile-list entries examined before termination (exclusive
    /// upper bound for the backward traversal).
    last_index: u32,
}

/// Saved forward-pass state required by [`render_backward`].
#[derive(Debug, Clone)]
pub struct RenderAux {
    projected: Vec<ProjectedGaussian>,
    contexts: Vec<ProjectionContext>,
    tile_lists: Vec<Vec<u32>>,
    /// Lane-staged copies of each tile's splat attributes, built once in the
    /// forward prologue and reused by the backward pass.
    tile_soas: Vec<TileSoa>,
    pixel_states: Vec<PixelState>,
    tiles_x: u32,
    width: u32,
    height: u32,
    background: [f32; 3],
    /// Band geometry the forward pass used; the backward pass reuses it so
    /// both passes share one accumulation grouping.
    band_height: u32,
    /// Thread-count hint carried over from the forward options (scheduling
    /// only — never affects the gradients).
    compute_threads: usize,
}

impl RenderAux {
    /// Number of splats that survived projection.
    pub fn projected_count(&self) -> usize {
        self.projected.len()
    }

    /// The projected splats (depth-sorted).
    pub fn projected(&self) -> &[ProjectedGaussian] {
        &self.projected
    }

    /// Band geometry the forward pass used (part of the numeric contract;
    /// the backward pass reuses it).
    pub fn band_height(&self) -> u32 {
        self.band_height
    }

    /// The compute width the forward pass actually ran with — the resolved
    /// value, never the `compute_threads = 0` "inherit" sentinel.
    pub fn compute_threads(&self) -> usize {
        self.compute_threads
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

/// Renders `model` from `camera`.
///
/// `options.visible` restricts rasterisation to the given Gaussian indices;
/// this is how CLM (and the enhanced baseline) skip out-of-frustum Gaussians
/// entirely.
///
/// # Panics
/// Panics if `options.visible` contains an index outside the model.
pub fn render(model: &GaussianModel, camera: &Camera, options: &RenderOptions) -> RenderOutput {
    let width = camera.intrinsics.width;
    let height = camera.intrinsics.height;
    let compute_threads = resolve_compute_threads(options.compute_threads);

    // 1. Project candidate Gaussians in parallel.  Indices are validated
    //    up front (deterministic panics), then an index-ordered map keeps
    //    the surviving splats in candidate order — exactly the serial order.
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
    let setup = ProjectionSetup::new(camera);
    let mut projected: Vec<ProjectedGaussian> = Vec::new();
    let mut contexts: Vec<ProjectionContext> = Vec::new();
    let mut keep = |(p, ctx)| {
        projected.push(p);
        contexts.push(ctx);
    };
    if compute_threads <= 1 {
        // Width 1: survivors go straight to their final vectors, with no
        // per-candidate `Option` staging in between.
        candidates
            .iter()
            .filter_map(|&idx| setup.project(model, idx))
            .for_each(&mut keep);
    } else {
        parallel_map(compute_threads, candidates.len(), |k| {
            setup.project(model, candidates[k])
        })
        .into_iter()
        .flatten()
        .for_each(&mut keep);
    }

    // 2. Depth sort (front to back).
    let mut order: Vec<u32> = (0..projected.len() as u32).collect();
    order.sort_by(|&a, &b| {
        projected[a as usize]
            .depth
            .partial_cmp(&projected[b as usize].depth)
            .unwrap_or(std::cmp::Ordering::Equal)
    });
    let projected: Vec<ProjectedGaussian> = order
        .iter()
        .map(|&i| projected[i as usize].clone())
        .collect();
    let contexts: Vec<ProjectionContext> = order
        .iter()
        .map(|&i| contexts[i as usize].clone())
        .collect();

    // 3. Bin splats into tiles (kept in depth order by construction).  One
    //    job per tile row: each job owns that row's lists and scans the
    //    splats in slot order, so every list is filled in exactly the order
    //    a serial pass over the splats would produce.
    let tiles_x = width.div_ceil(TILE_SIZE);
    let tiles_y = height.div_ceil(TILE_SIZE);
    let mut tile_lists: Vec<Vec<u32>> = vec![Vec::new(); (tiles_x * tiles_y) as usize];
    {
        let jobs: Vec<(u32, &mut [Vec<u32>])> = tile_lists
            .chunks_mut(tiles_x as usize)
            .enumerate()
            .map(|(ty, row)| (ty as u32, row))
            .collect();
        let projected = &projected;
        parallel_for_each(compute_threads.min(tiles_y as usize), jobs, |(ty, row)| {
            bin_tile_row(projected, width, height, ty, row);
        });
    }

    // 4. Stage each tile's splats into lane-padded SoA arrays (pure copies;
    //    one independent job per tile).
    let tile_soas: Vec<TileSoa> = {
        let (projected, tile_lists) = (&projected, &tile_lists);
        parallel_map(compute_threads, tile_lists.len(), |t| {
            TileSoa::build(&tile_lists[t], projected)
        })
    };

    // 5. Per-pixel front-to-back compositing, one job per horizontal band.
    //    Each band owns a disjoint slice of the image and the pixel-state
    //    buffer, so the bands can run in any order on any thread.
    let band_height = options.band_height.max(1);
    let mut image = Image::new(width, height);
    let mut pixel_states = vec![PixelState::default(); (width * height) as usize];
    {
        let band_pixels = (band_height * width) as usize;
        let jobs: Vec<(u32, &mut [[f32; 3]], &mut [PixelState])> = image
            .pixels_mut()
            .chunks_mut(band_pixels)
            .zip(pixel_states.chunks_mut(band_pixels))
            .enumerate()
            .map(|(b, (img, states))| (b as u32 * band_height, img, states))
            .collect();
        let tile_soas = &tile_soas;
        let background = options.background;
        parallel_for_each(compute_threads, jobs, |(y0, img_band, state_band)| {
            composite_band(
                tile_soas,
                tiles_x,
                width,
                height,
                band_height,
                background,
                y0,
                img_band,
                state_band,
            );
        });
    }

    RenderOutput {
        image,
        aux: RenderAux {
            projected,
            contexts,
            tile_lists,
            tile_soas,
            pixel_states,
            tiles_x,
            width,
            height,
            background: options.background,
            band_height,
            compute_threads,
        },
    }
}

/// Bins every splat that overlaps tile row `ty` into that row's lists,
/// replicating the serial binning expressions (including the offscreen skip)
/// exactly.  Scanning the splats in slot order fills each list in the same
/// order a serial pass over all tiles would.
fn bin_tile_row(
    projected: &[ProjectedGaussian],
    width: u32,
    height: u32,
    ty: u32,
    row: &mut [Vec<u32>],
) {
    for (slot, p) in projected.iter().enumerate() {
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
        let t_min_x = min_x / TILE_SIZE;
        let t_max_x = max_x / TILE_SIZE;
        for tx in t_min_x..=t_max_x {
            row[tx as usize].push(slot as u32);
        }
    }
}

/// One tile's splats in structure-of-arrays form: one `f32` array per
/// screen-space attribute, **zero-padded** to a multiple of [`LANES`] so the
/// lane kernels always process full fixed-width blocks.  Entry `pos`
/// corresponds to `tile_lists[tile][pos]`.
///
/// Zero padding is inert through the alpha kernel: a zero lane gives
/// `power = -0.5 * 0 = -0.0` (not `> 0`), `alpha = 0 * exp(-0) = 0`, and
/// `0 < MIN_ALPHA` means the compositing walk skips it — the same sentinel
/// used for "splat does not cover this pixel".
#[derive(Debug, Clone, Default)]
struct TileSoa {
    /// Real (unpadded) entry count — equals the tile list's length.
    len: usize,
    mean_x: Vec<f32>,
    mean_y: Vec<f32>,
    conic_a: Vec<f32>,
    conic_b: Vec<f32>,
    conic_c: Vec<f32>,
    opacity: Vec<f32>,
    color_r: Vec<f32>,
    color_g: Vec<f32>,
    color_b: Vec<f32>,
}

impl TileSoa {
    /// Stages the splats of one tile list (pure copies of the projected
    /// attributes, in list order).
    fn build(list: &[u32], projected: &[ProjectedGaussian]) -> TileSoa {
        let len = list.len();
        let padded = len.next_multiple_of(LANES);
        let mut soa = TileSoa {
            len,
            mean_x: vec![0.0; padded],
            mean_y: vec![0.0; padded],
            conic_a: vec![0.0; padded],
            conic_b: vec![0.0; padded],
            conic_c: vec![0.0; padded],
            opacity: vec![0.0; padded],
            color_r: vec![0.0; padded],
            color_g: vec![0.0; padded],
            color_b: vec![0.0; padded],
        };
        for (pos, &slot) in list.iter().enumerate() {
            let p = &projected[slot as usize];
            soa.mean_x[pos] = p.mean2d.x;
            soa.mean_y[pos] = p.mean2d.y;
            soa.conic_a[pos] = p.conic.a;
            soa.conic_b[pos] = p.conic.b;
            soa.conic_c[pos] = p.conic.c;
            soa.opacity[pos] = p.opacity;
            soa.color_r[pos] = p.color[0];
            soa.color_g[pos] = p.color[1];
            soa.color_b[pos] = p.color[2];
        }
        soa
    }

    /// Evaluates the Gaussian exponent for the [`LANES`] splats starting at
    /// `base` against the pixel centre `(cx, cy)` — elementwise identical to
    /// the scalar path: `power = -0.5 * conic.quadratic_form(dx, dy)` with
    /// `dx = cx - mean_x`.  The fixed-width loop over array slices is the
    /// SIMD-friendly shape (pure mul/add; no branches, no calls).
    #[inline]
    fn lane_powers(&self, base: usize, cx: f32, cy: f32, powers: &mut [f32; LANES]) {
        let mx: &[f32; LANES] = self.mean_x[base..base + LANES].try_into().unwrap();
        let my: &[f32; LANES] = self.mean_y[base..base + LANES].try_into().unwrap();
        let ca: &[f32; LANES] = self.conic_a[base..base + LANES].try_into().unwrap();
        let cb: &[f32; LANES] = self.conic_b[base..base + LANES].try_into().unwrap();
        let cc: &[f32; LANES] = self.conic_c[base..base + LANES].try_into().unwrap();
        for l in 0..LANES {
            let dx = cx - mx[l];
            let dy = cy - my[l];
            powers[l] = -0.5 * (ca[l] * dx * dx + 2.0 * cb[l] * dx * dy + cc[l] * dy * dy);
        }
    }

    /// Evaluates the alpha of the [`LANES`] splats starting at `base` at
    /// pixel centre `(cx, cy)`.  `alphas[l] = 0.0` encodes "skipped"
    /// (outside the effective footprint or below [`MIN_ALPHA`]), exactly the
    /// cases where the scalar path returned `None`.
    #[inline]
    fn lane_alphas(&self, base: usize, cx: f32, cy: f32, alphas: &mut [f32; LANES]) {
        let mut powers = [0.0f32; LANES];
        self.lane_powers(base, cx, cy, &mut powers);
        let op: &[f32; LANES] = self.opacity[base..base + LANES].try_into().unwrap();
        for l in 0..LANES {
            alphas[l] = lane_alpha(op[l], powers[l]).0;
        }
    }

    /// Like [`lane_alphas`](Self::lane_alphas) but also exports the raw
    /// Gaussian factor `exp(power)` per lane, which the backward pass chains
    /// through the opacity gradient (and reads only for lanes it does not
    /// skip).  One `exp` per lane serves both — the scalar backward path
    /// used to evaluate it twice.
    #[inline]
    fn lane_alphas_gauss(
        &self,
        base: usize,
        cx: f32,
        cy: f32,
        alphas: &mut [f32; LANES],
        gauss: &mut [f32; LANES],
    ) {
        let mut powers = [0.0f32; LANES];
        self.lane_powers(base, cx, cy, &mut powers);
        let op: &[f32; LANES] = self.opacity[base..base + LANES].try_into().unwrap();
        for l in 0..LANES {
            (alphas[l], gauss[l]) = lane_alpha(op[l], powers[l]);
        }
    }
}

/// One lane of the alpha kernel: `(alpha, exp(power))` of a splat of the
/// given opacity (at most 1) whose Gaussian exponent at the pixel is
/// `power`.  An alpha under [`MIN_ALPHA`] means "skipped"; both consumers
/// test that before they read anything else, so the lanes that cannot reach
/// it — a positive exponent, or one below [`ALPHA_POWER_FLOOR`] — are `(0,
/// 0)` without an `exp`.  (A NaN exponent is neither and takes the
/// evaluating arm, as it always has.)
#[inline]
// Not `!(FLOOR..=0.0).contains(&power)`: that would skip a NaN.
#[allow(clippy::manual_range_contains)]
fn lane_alpha(opacity: f32, power: f32) -> (f32, f32) {
    if power > 0.0 || power < ALPHA_POWER_FLOOR {
        (0.0, 0.0)
    } else {
        let e = power.exp();
        ((opacity * e).min(MAX_ALPHA), e)
    }
}

/// Composites every pixel of the band starting at row `y0` into the band's
/// slice of the image/state buffers.  Pure per pixel: identical output
/// regardless of which thread runs it.
///
/// The splat walk processes each tile list in [`LANES`]-wide blocks: alphas
/// for a block are evaluated by the lane kernel, then composited serially in
/// list order with the same early-termination rule as before — termination
/// mid-block wastes at most `LANES - 1` lane evaluations.
#[allow(clippy::too_many_arguments)]
fn composite_band(
    tile_soas: &[TileSoa],
    tiles_x: u32,
    width: u32,
    height: u32,
    band_height: u32,
    background: [f32; 3],
    y0: u32,
    img_band: &mut [[f32; 3]],
    state_band: &mut [PixelState],
) {
    let mut alphas = [0.0f32; LANES];
    let y_end = (y0 + band_height).min(height);
    for ty in y0 / TILE_SIZE..=(y_end - 1) / TILE_SIZE {
        let py_start = (ty * TILE_SIZE).max(y0);
        let py_end = ((ty + 1) * TILE_SIZE).min(y_end);
        for tx in 0..tiles_x {
            let soa = &tile_soas[(ty * tiles_x + tx) as usize];
            let x_end = ((tx + 1) * TILE_SIZE).min(width);
            for py in py_start..py_end {
                let cy = py as f32 + 0.5;
                for px in tx * TILE_SIZE..x_end {
                    let cx = px as f32 + 0.5;
                    let mut t = 1.0f32;
                    let mut color = [0.0f32; 3];
                    let mut last_index = 0u32;
                    'blocks: for base in (0..soa.len).step_by(LANES) {
                        soa.lane_alphas(base, cx, cy, &mut alphas);
                        for pos in base..(base + LANES).min(soa.len) {
                            let alpha = alphas[pos - base];
                            last_index = pos as u32 + 1;
                            if alpha < MIN_ALPHA {
                                continue;
                            }
                            let next_t = t * (1.0 - alpha);
                            if next_t < TRANSMITTANCE_EPS {
                                break 'blocks;
                            }
                            color[0] += soa.color_r[pos] * alpha * t;
                            color[1] += soa.color_g[pos] * alpha * t;
                            color[2] += soa.color_b[pos] * alpha * t;
                            t = next_t;
                        }
                    }
                    for c in 0..3 {
                        color[c] += t * background[c];
                    }
                    let idx = ((py - y0) * width + px) as usize;
                    img_band[idx] = color;
                    state_band[idx] = PixelState {
                        final_t: t,
                        last_index,
                    };
                }
            }
        }
    }
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

/// Backward pass: given the gradient of the loss with respect to every
/// pixel (`d_image`, row-major, one `[f32; 3]` per pixel), computes the
/// gradient with respect to every contributing Gaussian's parameters.
///
/// Runs band-parallel on up to `aux`'s `compute_threads` workers: each band
/// accumulates its pixels' screen-space gradients independently, the
/// per-band sparse accumulators are merged in fixed band order, and the
/// per-splat chain through [`crate::projection`] fans out over slots.  The
/// result is bit-identical for every thread count (see the module docs).
///
/// # Panics
/// Panics if `d_image.len()` does not match the rendered resolution.
pub fn render_backward(
    model: &GaussianModel,
    camera: &Camera,
    aux: &RenderAux,
    d_image: &[[f32; 3]],
) -> RenderGradients {
    assert_eq!(
        d_image.len(),
        (aux.width * aux.height) as usize,
        "d_image size must match the rendered resolution"
    );

    let band_height = aux.band_height.max(1);
    let threads = aux.compute_threads.max(1);
    let bands = aux.height.div_ceil(band_height) as usize;

    // 1. Per-band sparse screen-space accumulators, computed independently.
    let partials: Vec<Vec<(u32, ScreenGradients)>> = parallel_map(threads, bands, |b| {
        backward_band(aux, d_image, b as u32 * band_height)
    });

    // 2. Merge in fixed band order.  This is the only order-sensitive
    //    floating-point reduction in the pass, and it runs on the calling
    //    thread over the index-ordered partials, so the accumulation order
    //    depends only on the band geometry.
    let mut screen_grads: Vec<ScreenGradients> =
        vec![ScreenGradients::default(); aux.projected.len()];
    for band in &partials {
        for (slot, g) in band {
            screen_grads[*slot as usize].accumulate(g);
        }
    }

    // 3. Chain screen-space gradients back to the 59 Gaussian parameters —
    //    pure per slot, so it parallelises freely; the output vector is
    //    keyed by slot order either way.
    let contributing: Vec<u32> = (0..screen_grads.len() as u32)
        .filter(|&slot| !screen_grads[slot as usize].is_zero())
        .collect();
    let entries: Vec<(u32, GaussianGradients)> = parallel_map(threads, contributing.len(), |k| {
        let slot = contributing[k] as usize;
        let p = &aux.projected[slot];
        let g = model.get(p.index as usize);
        let grads = project_gaussian_backward(&g, camera, &aux.contexts[slot], &screen_grads[slot]);
        (p.index, grads)
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

/// Reusable per-worker scratch for [`backward_band`].
#[derive(Default)]
struct BandScratch {
    /// Dense per-slot accumulator.  Invariant: all entries are zero between
    /// bands — each band resets exactly the slots it touched — so reuse
    /// costs O(touched) instead of re-zeroing O(projected) once per band.
    dense: Vec<ScreenGradients>,
    /// Per-pixel lane-kernel outputs for positions `0..last_index` (padded
    /// to whole blocks), overwritten for every pixel.
    alphas: Vec<f32>,
    gauss: Vec<f32>,
}

std::thread_local! {
    /// Per-worker scratch for [`backward_band`], reused across every band
    /// the worker drains (and across calls, on the calling thread).
    static BAND_SCRATCH: std::cell::RefCell<BandScratch> =
        std::cell::RefCell::new(BandScratch::default());
}

/// Accumulates the screen-space gradients of every pixel in the band
/// starting at row `y0`, returning them as a sparse, slot-ordered list.
/// Pure: depends only on `aux`, `d_image` and the band geometry — the
/// thread-local scratch is an allocation cache, never carried state.
fn backward_band(aux: &RenderAux, d_image: &[[f32; 3]], y0: u32) -> Vec<(u32, ScreenGradients)> {
    BAND_SCRATCH.with(|cell| {
        let mut scratch = cell.borrow_mut();
        if scratch.dense.len() < aux.projected.len() {
            scratch
                .dense
                .resize(aux.projected.len(), ScreenGradients::default());
        }
        backward_band_with_scratch(aux, d_image, y0, &mut scratch)
    })
}

/// The body of [`backward_band`] over a caller-provided scratch whose dense
/// accumulator's first `aux.projected.len()` entries are all zero; restores
/// that invariant before returning.
fn backward_band_with_scratch(
    aux: &RenderAux,
    d_image: &[[f32; 3]],
    y0: u32,
    scratch: &mut BandScratch,
) -> Vec<(u32, ScreenGradients)> {
    let BandScratch {
        dense,
        alphas,
        gauss,
    } = scratch;
    // Slots this band wrote to, pushed on first touch (a touched entry that
    // cancels back to exact zero may be pushed again — dedup below).
    let mut touched: Vec<u32> = Vec::new();
    let y_end = (y0 + aux.band_height.max(1)).min(aux.height);
    for ty in y0 / TILE_SIZE..=(y_end - 1) / TILE_SIZE {
        let py_start = (ty * TILE_SIZE).max(y0);
        let py_end = ((ty + 1) * TILE_SIZE).min(y_end);
        for tx in 0..aux.tiles_x {
            let tile = (ty * aux.tiles_x + tx) as usize;
            let list = &aux.tile_lists[tile];
            if list.is_empty() {
                continue;
            }
            let soa = &aux.tile_soas[tile];
            let x_end = ((tx + 1) * TILE_SIZE).min(aux.width);
            for py in py_start..py_end {
                let cy = py as f32 + 0.5;
                for px in tx * TILE_SIZE..x_end {
                    let state = aux.pixel_states[(py * aux.width + px) as usize];
                    let d_pix = d_image[(py * aux.width + px) as usize];
                    if d_pix == [0.0; 3] || state.last_index == 0 {
                        continue;
                    }
                    let cx = px as f32 + 0.5;
                    // Evaluate alpha and the Gaussian factor for every
                    // position the forward pass examined, one lane block at
                    // a time.  One `exp` per position serves the whole
                    // reverse walk (the scalar path paid two).
                    let last = state.last_index as usize;
                    let padded = last.next_multiple_of(LANES);
                    alphas.resize(padded, 0.0);
                    gauss.resize(padded, 0.0);
                    for base in (0..last).step_by(LANES) {
                        soa.lane_alphas_gauss(
                            base,
                            cx,
                            cy,
                            (&mut alphas[base..base + LANES]).try_into().unwrap(),
                            (&mut gauss[base..base + LANES]).try_into().unwrap(),
                        );
                    }
                    let mut t = state.final_t;
                    // Accumulated contribution *behind* the splat currently
                    // being processed (starts as background).
                    let mut behind = [
                        aux.background[0] * state.final_t,
                        aux.background[1] * state.final_t,
                        aux.background[2] * state.final_t,
                    ];
                    for pos in (0..last).rev() {
                        let alpha = alphas[pos];
                        if alpha < MIN_ALPHA {
                            continue;
                        }
                        let slot = list[pos] as usize;
                        // Transmittance in front of this splat.
                        t /= 1.0 - alpha;
                        if dense[slot].is_zero() {
                            touched.push(slot as u32);
                        }
                        let g = &mut dense[slot];
                        let color = [soa.color_r[pos], soa.color_g[pos], soa.color_b[pos]];

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
                        // Update the "behind" accumulator for the next splat
                        // (the one in front of this one).
                        for c in 0..3 {
                            behind[c] += color[c] * alpha * t;
                        }

                        // Chain through alpha = min(0.99, opacity * exp(power)).
                        let (dx, dy) = (cx - soa.mean_x[pos], cy - soa.mean_y[pos]);
                        let gauss_pos = gauss[pos];
                        if soa.opacity[pos] * gauss_pos >= MAX_ALPHA {
                            continue; // clamped: no gradient through opacity/geometry
                        }
                        g.d_opacity += gauss_pos * d_alpha;
                        let d_power = d_alpha * alpha;
                        g.d_conic = Sym2::new(
                            g.d_conic.a - 0.5 * dx * dx * d_power,
                            g.d_conic.b - dx * dy * d_power,
                            g.d_conic.c - 0.5 * dy * dy * d_power,
                        );
                        let (ca, cb, cc) = (soa.conic_a[pos], soa.conic_b[pos], soa.conic_c[pos]);
                        g.d_mean2d.x += (ca * dx + cb * dy) * d_power;
                        g.d_mean2d.y += (cb * dx + cc * dy) * d_power;
                    }
                }
            }
        }
    }
    // Compress the touched slots to a sparse, slot-ordered list (so the
    // merge step visits contributing splats in a fixed order) while
    // resetting exactly those scratch entries for the next band.
    touched.sort_unstable();
    touched.dedup();
    let mut out: Vec<(u32, ScreenGradients)> = Vec::with_capacity(touched.len());
    for &slot in &touched {
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
        let (alpha, gauss) = lane_alpha(opacity, power);
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

    #[test]
    fn the_exponent_floor_sits_just_below_the_alpha_threshold() {
        // Below it even a fully opaque splat is skipped, with room for
        // `expf`'s error; and it is not so low that it misses the lanes it
        // is there for.
        assert!(ALPHA_POWER_FLOOR.exp() < MIN_ALPHA * (1.0 - 5.0e-4));
        assert!(ALPHA_POWER_FLOOR > MIN_ALPHA.ln() - 2.0e-3);
        let ulp = |x: f32, by: i32| f32::from_bits((x.to_bits() as i32 + by) as u32);
        let edge_powers = [
            f32::NAN,
            f32::INFINITY,
            f32::NEG_INFINITY,
            f32::MIN_POSITIVE,
            1.0e-30,
            3.0,
            0.0,
            -0.0,
            ALPHA_POWER_FLOOR,
            // Negative floats: one ulp up in bits is one ulp further down.
            ulp(ALPHA_POWER_FLOOR, 1),
            ulp(ALPHA_POWER_FLOOR, -1),
            MIN_ALPHA.ln(),
            ulp(MIN_ALPHA.ln(), 1),
            ulp(MIN_ALPHA.ln(), -1),
            -100.0,
        ];
        for power in edge_powers {
            for opacity in [0.0, MIN_ALPHA, 0.5, 0.999_999_94, 1.0] {
                assert_lane_matches_scalar(opacity, power);
            }
        }
        // A NaN exponent was never skipped (`NaN.min(MAX_ALPHA)`), and is
        // not now.
        assert_eq!(lane_alpha(0.5, f32::NAN).0, MAX_ALPHA);
        // At the floor the lane still evaluates; one ulp below it does not.
        assert!(lane_alpha(1.0, ALPHA_POWER_FLOOR).1 > 0.0);
        assert_eq!(lane_alpha(1.0, ulp(ALPHA_POWER_FLOOR, 1)), (0.0, 0.0));
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
            assert_lane_matches_scalar(opacity, ALPHA_POWER_FLOOR + near_floor);
            assert_lane_matches_scalar(1.0, MIN_ALPHA.ln() + near_threshold);
        }
    }

    fn camera(px: u32) -> Camera {
        Camera::look_at(
            Vec3::ZERO,
            Vec3::Z,
            Vec3::Y,
            CameraIntrinsics::simple(px, px, 60.0_f32.to_radians()),
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
    fn zero_compute_threads_inherits_the_pool_default_and_reports_it() {
        // The documented "0 = inherit" contract: the sentinel resolves
        // through the process-wide default width instead of silently
        // serialising, the aux reports the resolved value, and the output
        // stays bit-identical to the serial render.
        let model = single_gaussian_scene();
        let cam = camera(32);
        let serial = render(
            &model,
            &cam,
            &RenderOptions {
                compute_threads: 1,
                ..RenderOptions::default()
            },
        );
        let inherited = render(
            &model,
            &cam,
            &RenderOptions {
                compute_threads: 0,
                ..RenderOptions::default()
            },
        );
        let expected = crate::parallel::default_compute_threads();
        assert!(expected >= 1);
        assert_eq!(
            inherited.aux.compute_threads(),
            expected,
            "aux must report the resolved width, not the 0 sentinel"
        );
        assert_eq!(inherited.image, serial.image);
        assert_eq!(serial.aux.compute_threads(), 1);
        assert_eq!(serial.aux.band_height(), DEFAULT_BAND_HEIGHT);
        // An explicitly-set default is what 0 resolves to from then on.
        crate::parallel::set_default_compute_threads(3);
        let tuned = render(
            &model,
            &cam,
            &RenderOptions {
                compute_threads: 0,
                ..RenderOptions::default()
            },
        );
        assert_eq!(tuned.aux.compute_threads(), 3);
        assert_eq!(tuned.image, serial.image);
        crate::parallel::set_default_compute_threads(0);
        assert_eq!(crate::parallel::default_compute_threads(), expected);
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
}
