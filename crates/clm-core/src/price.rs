//! The one price list: how counts become simulated device seconds.
//!
//! The simulated engine, the analytic model ([`crate::simulate_batch`]) and
//! the trace replay's re-sharding rebuild price every op on their virtual
//! clocks with a [`PriceList`].  They differ only in where the counts come
//! from: the engine's `BatchPlan` and ownership partition at the run's cost
//! scale, [`MicrobatchStats`](crate::MicrobatchStats) at scale 1, or a
//! trace's recorded ops with the price list its header records.
//!
//! # Where the count sources disagree
//!
//! The rules are shared; the engine and the analytic model still count
//! these differently (ROADMAP item 11 settles each with a benchmark):
//!
//! * planning — the engine's host preamble, n·m·2e-10 s + m²·1e-6 s
//!   ([`PriceList::host_planning`]), vs a GPU cull at 0.05 × a forward pass
//!   over the model plus a 1 ms TSP (`PriceList::gpu_planning`);
//! * the cache copy — the engine counts 0 copied rows;
//! * `F₀` — the engine counts its live rows, the analytic model 0 rows (the
//!   paper's sparse Adam).  The engine prices every CLM Adam op on the rows
//!   its kernel stepped: the group less its cold rows, whose step is the
//!   identity (`gs_optim::adam`, "Cold rows cost nothing");
//! * coverage — neither prices it.

use crate::offload::{GRADIENT_BYTES, NON_CRITICAL_BYTES};
use crate::perf::WholeModelCosts;
use gs_core::{BYTES_PER_PARAM, PARAMS_PER_GAUSSIAN};
use sim_device::pipeline::{AdamGroup, CostSource, OpCost};
use sim_device::DeviceProfile;

/// Cost multiplier for gathering a row whose owner is another device: the
/// copy crosses from the owner's pinned pool through host memory before the
/// fetching device's DMA engine sees it — one extra hop at PCIe cost.
pub const PEER_HOP_FACTOR: f64 = 2.0;

/// Host planning seconds per Gaussian-view culled.
const CULL_COST_PER_GAUSSIAN_VIEW: f64 = 2.0e-10;
/// Host planning seconds per micro-batch pair ordered.
const ORDER_COST_PER_PAIR: f64 = 1.0e-6;
/// Host seconds per row a densification resize changes (a few hundred
/// bytes of memcpy: attribute rows, optimiser state, pinned host row).
const RESIZE_COST_PER_ROW: f64 = 1.0e-8;

/// The rules that turn counts into simulated device seconds.  Rows and
/// bytes are multiplied by `cost_scale`, pixels by `pixel_cost_scale`
/// (rounded to whole units) before pricing, so a reduced-scale scene prices
/// at paper scale; the rows an op records stay unscaled.
#[derive(Debug, Clone, PartialEq)]
pub struct PriceList {
    /// The simulated device's rates.
    pub device: DeviceProfile,
    /// Multiplier on row and byte counts.
    pub cost_scale: f64,
    /// Multiplier on pixel counts.
    pub pixel_cost_scale: f64,
    /// Multiplier on a remote row's gather ([`PEER_HOP_FACTOR`]).
    pub peer_hop_factor: f64,
    /// Gradient bytes per row a store or all-reduce moves ([`GRADIENT_BYTES`]).
    pub gradient_bytes: u64,
}

impl PriceList {
    /// The price list of `device` at the given scales.
    pub fn new(device: DeviceProfile, cost_scale: f64, pixel_cost_scale: f64) -> PriceList {
        let (peer_hop_factor, gradient_bytes) = (PEER_HOP_FACTOR, GRADIENT_BYTES as u64);
        PriceList {
            device,
            cost_scale,
            pixel_cost_scale,
            peer_hop_factor,
            gradient_bytes,
        }
    }

    fn scaled(&self, count: u64) -> u64 {
        (count as f64 * self.cost_scale).round() as u64
    }

    /// A transfer of `bytes` (unscaled) covering `rows` rows.
    fn transfer(&self, bytes: u64, rows: u64) -> OpCost {
        self.wire(self.scaled(bytes), rows)
    }

    fn wire(&self, bytes: u64, rows: u64) -> OpCost {
        let dur = self.device.transfer_time(bytes);
        OpCost { dur, bytes, rows }
    }

    /// A parameter gather of `local` rows from the fetching device's pinned
    /// pool and `remote` rows from other owners', plus `copied` rows moved on
    /// the device from the previous micro-batch's buffer.  It records the
    /// whole fetch's rows and bytes, wherever they came from, so the
    /// timeline's communication volume matches the batch accounting.
    pub(crate) fn gather(&self, local: u64, remote: u64, copied: u64) -> OpCost {
        let bytes = |rows: u64| self.scaled(rows * NON_CRITICAL_BYTES as u64);
        let dur = self.gather_time(bytes(local), bytes(remote), bytes(copied));
        OpCost {
            dur,
            bytes: bytes(local + remote),
            rows: local + remote,
        }
    }

    /// A gather's seconds over bytes already at the cost scale: PCIe for
    /// local bytes, the peer hop on top for remote ones, a tenth of PCIe for
    /// copied ones.  Summed `(local + hop·remote) + copied`, so a term
    /// without bytes adds an exact `0.0`.
    pub fn gather_time(&self, local_bytes: u64, remote_bytes: u64, copied_bytes: u64) -> f64 {
        let time = |bytes| self.device.transfer_time(bytes);
        (time(local_bytes) + self.peer_hop_factor * time(remote_bytes)) + time(copied_bytes) / 10.0
    }

    /// The forward pass over `rows` Gaussians at `pixels` output pixels.
    pub(crate) fn forward(&self, rows: u64, pixels: u64) -> OpCost {
        self.render(rows, pixels, DeviceProfile::forward_time)
    }

    /// The backward pass over `rows` Gaussians at `pixels` output pixels.
    pub(crate) fn backward(&self, rows: u64, pixels: u64) -> OpCost {
        self.render(rows, pixels, DeviceProfile::backward_time)
    }

    fn render(&self, rows: u64, pixels: u64, time: fn(&DeviceProfile, u64, u64) -> f64) -> OpCost {
        let pixels = (pixels as f64 * self.pixel_cost_scale).round() as u64;
        OpCost::compute(time(&self.device, self.scaled(rows), pixels), rows)
    }

    /// The store of `rows` gradient rows to host memory.
    pub(crate) fn store(&self, rows: u64) -> OpCost {
        self.transfer(rows * self.gradient_bytes, rows)
    }

    /// One device's share of a ring all-reduce of `rows` gradient rows over
    /// `devices` devices: each sends and receives `(D − 1)/D` of the bytes.
    pub fn allreduce(&self, rows: u64, devices: usize) -> OpCost {
        let total = self.scaled(rows * self.gradient_bytes) as f64;
        let devices = devices as f64;
        self.wire((total * (devices - 1.0) / devices).round() as u64, rows)
    }

    /// The CPU Adam update of `rows` Gaussians.
    pub fn cpu_adam(&self, rows: u64) -> OpCost {
        self.adam(rows, DeviceProfile::cpu_adam_time)
    }

    fn adam(&self, rows: u64, time: fn(&DeviceProfile, u64) -> f64) -> OpCost {
        let params = self.scaled(rows) * PARAMS_PER_GAUSSIAN as u64;
        OpCost::compute(time(&self.device, params), rows)
    }

    /// The comparison systems' whole-model ops over a model of `rows`: the
    /// upload of every parameter, a dense CPU Adam and the baselines' fused
    /// GPU Adam.
    pub fn whole_model(&self, rows: u64) -> WholeModelCosts {
        WholeModelCosts {
            transfer: self.transfer(rows * (PARAMS_PER_GAUSSIAN * BYTES_PER_PARAM) as u64, rows),
            cpu_adam: self.cpu_adam(rows),
            gpu_adam: self.adam(rows, DeviceProfile::gpu_adam_time),
        }
    }

    /// A densification resize changing `rows` rows, on the host.
    pub fn resize(&self, rows: u64) -> OpCost {
        OpCost::compute(self.scaled(rows) as f64 * RESIZE_COST_PER_ROW, rows)
    }

    /// The engine's planning preamble on the host: culling the model for
    /// each of `microbatches` views, then ordering every pair of them.
    pub fn host_planning(&self, model_rows: u64, microbatches: usize) -> OpCost {
        let (n, m) = (self.scaled(model_rows) as f64, microbatches as f64);
        let dur = n * m * CULL_COST_PER_GAUSSIAN_VIEW + m * m * ORDER_COST_PER_PAIR;
        OpCost::compute(dur, model_rows)
    }

    /// The analytic model's planning preamble as `(cull, order)` seconds:
    /// the frustum cull on the GPU over resident attributes, a twentieth of
    /// a forward pass over the model, then a 1 ms TSP on the CPU.
    pub(crate) fn gpu_planning(&self, model_rows: u64) -> (f64, f64) {
        (
            self.device.forward_time(self.scaled(model_rows), 0) * 0.05,
            1.0e-3,
        )
    }
}

/// What one micro-batch does, in counts.
#[derive(Debug, Clone)]
pub struct MicrobatchCounts {
    /// Rows its forward and backward passes render.
    pub rendered: u64,
    /// Output pixels of its view.
    pub pixels: u64,
    /// Fetched rows the rendering device owns.
    pub local: u64,
    /// Fetched rows another device owns.
    pub remote: u64,
    /// Rows copied on the device from the previous micro-batch's buffer.
    pub copied: u64,
    /// Gradient rows its store retires.
    pub stored: u64,
    /// Rows of its finalisation group, per owner device.
    pub finalized: Vec<u64>,
}

/// One batch in counts, priced by a [`PriceList`]: the cost source of the
/// analytic model, and of every op but CPU Adam in the simulated engine,
/// which prices the rows its run stepped instead.
#[derive(Debug)]
pub struct BatchCounts<'a> {
    /// The rules.
    pub price: &'a PriceList,
    /// Per micro-batch, in processing order.
    pub microbatches: Vec<MicrobatchCounts>,
    /// Rows of the whole model (the dense group), per owner device.
    pub model: Vec<u64>,
}

impl BatchCounts<'_> {
    /// Rows of Adam group `group` each owner device updates: `F₀` none.
    fn group(&self, group: AdamGroup) -> Vec<u64> {
        match group {
            AdamGroup::Untouched => vec![0; self.model.len()],
            AdamGroup::FinalizedBy(i) => self.microbatches[i].finalized.clone(),
            AdamGroup::Dense => self.model.clone(),
        }
    }
}

impl CostSource for BatchCounts<'_> {
    fn gather(&mut self, i: usize) -> OpCost {
        let mb = &self.microbatches[i];
        self.price.gather(mb.local, mb.remote, mb.copied)
    }

    fn forward(&mut self, i: usize) -> OpCost {
        let mb = &self.microbatches[i];
        self.price.forward(mb.rendered, mb.pixels)
    }

    fn backward(&mut self, i: usize) -> OpCost {
        let mb = &self.microbatches[i];
        self.price.backward(mb.rendered, mb.pixels)
    }

    fn store(&mut self, i: usize) -> OpCost {
        self.price.store(self.microbatches[i].stored)
    }

    /// Across the group's owners.
    fn allreduce(&mut self, group: AdamGroup) -> OpCost {
        let owners = self.group(group);
        self.price.allreduce(owners.iter().sum(), owners.len())
    }

    /// Each owner updates its share of the group.
    fn adam(&mut self, group: AdamGroup) -> Vec<OpCost> {
        let owners = self.group(group).into_iter();
        owners.map(|rows| self.price.cpu_adam(rows)).collect()
    }
}
