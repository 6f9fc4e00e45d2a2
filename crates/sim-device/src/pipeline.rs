//! The one schedule emitter: the op graph of a training batch, per system.
//!
//! The paper's contribution is a *shape* — windowed gather prefetch
//! overlapping GPU compute, per-transition gradient stores, early-finalised
//! CPU Adam (Figure 6) — and three parts of this workspace put that shape
//! on a [`Timeline`]: the simulated engine (`clm_runtime::PipelinedEngine`),
//! the trace what-if rebuild (`clm_trace::replay_with_knobs`) and the
//! paper-scale analytic model (`clm_core::perf::simulate_batch`).  They
//! differ only in where an op's cost comes from, so this module owns the
//! graph — which op on which lane, in which order, waiting for what — and
//! asks a [`CostSource`] for everything else: [`emit_clm`] (the CLM
//! pipeline per device lane group, as a function of [`ClmShape`]),
//! [`emit_naive`] (ZeRO-Offload-style, no overlap) and [`emit_gpu_only`]
//! (the GPU-only baselines).
//!
//! Every hook is called immediately before the op it prices is pushed
//! ([`CostSource::staged`] immediately after its gather), so a source may do
//! real work inside them and it happens in schedule order.  The engine
//! relies on this: it leases a pinned staging buffer in `staged(i)` and
//! releases it in `backward(i)`, so the pool's `window + 1` high-water is
//! exercised by the same [`PrefetchWindow`] arithmetic that spaces the
//! gathers, and an installed fault sink sees ops in emission order.

use crate::timeline::{Lane, OpId, OpKind, Timeline};

/// What one op costs: its duration plus the accounting annotations the
/// timeline records with it.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct OpCost {
    /// Duration in seconds.
    pub dur: f64,
    /// Bytes moved (zero for pure compute).
    pub bytes: u64,
    /// Gaussian rows touched.
    pub rows: u64,
}

impl OpCost {
    /// Pure compute over `rows` Gaussians: no bytes moved.
    pub fn compute(dur: f64, rows: u64) -> OpCost {
        OpCost {
            dur,
            bytes: 0,
            rows,
        }
    }
}

/// The set of Gaussians one CPU Adam update (and the all-reduce before it)
/// covers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AdamGroup {
    /// `F_0`: Gaussians the batch never touches — final from the start, so
    /// their update overlaps the whole pipeline (overlapped CLM only).
    Untouched,
    /// The Gaussians whose last use in the batch is micro-batch `i`
    /// (overlapped CLM only).
    FinalizedBy(usize),
    /// The whole model, at batch end (non-overlapped CLM).
    Dense,
}

impl AdamGroup {
    /// The micro-batch tag the group's ops carry.
    fn microbatch(self) -> Option<u32> {
        match self {
            AdamGroup::FinalizedBy(i) => Some(i as u32),
            AdamGroup::Untouched | AdamGroup::Dense => None,
        }
    }
}

/// Where an emitted op's cost comes from.  Hooks are called in emission
/// order (see the module docs); `i` is the micro-batch's position in the
/// ordered batch.  [`emit_naive`] and [`emit_gpu_only`] only call
/// [`forward`](Self::forward) and [`backward`](Self::backward).
pub trait CostSource {
    /// The parameter gather of micro-batch `i`.
    fn gather(&mut self, i: usize) -> OpCost;

    /// Gather `i` is on the timeline.  A source that executes the batch
    /// fills the staging buffer here and may push an op of its own (the
    /// engine's staging-denial stall); pure cost sources need nothing.
    fn staged(&mut self, _timeline: &mut Timeline, _i: usize) {}

    /// The forward pass of micro-batch `i`.
    fn forward(&mut self, i: usize) -> OpCost;

    /// The backward pass of micro-batch `i`.
    fn backward(&mut self, i: usize) -> OpCost;

    /// The gradient store retiring micro-batch `i`.
    fn store(&mut self, i: usize) -> OpCost;

    /// One device's share of the ring all-reduce over `group`'s gradients
    /// (every device sends and receives the same share).  Only called above
    /// one device.
    fn allreduce(&mut self, group: AdamGroup) -> OpCost;

    /// The CPU Adam update of `group`, one share per owner device, in
    /// device order.
    fn adam(&mut self, group: AdamGroup) -> Vec<OpCost>;
}

/// The parameters the CLM op graph is a function of.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ClmShape {
    /// Micro-batches in the batch (at least 1).
    pub microbatches: usize,
    /// Prefetch lookahead window, per device.
    pub window: usize,
    /// Device lane groups; micro-batch `i` runs on device `i mod devices`.
    pub devices: usize,
    /// Early-finalised CPU Adam (per-group updates as gradients retire)
    /// instead of one dense update at batch end.
    pub overlapped: bool,
}

impl ClmShape {
    /// Device `dev`'s prefetch window over its local micro-batch sequence
    /// `dev, dev + D, dev + 2D, …`.
    fn device_window(&self, dev: usize) -> PrefetchWindow {
        let local = (self.microbatches + self.devices - 1 - dev) / self.devices;
        PrefetchWindow::new(self.window, local)
    }

    /// Staging buffers the schedule holds gathered but unconsumed at its
    /// fullest, over all devices (`window + 1` per device, capped by the
    /// device's micro-batches): the pinned pool's high-water mark, and what
    /// an executor sizes its gather completion queue by.
    pub fn staging_buffers(&self) -> usize {
        (0..self.devices)
            .map(|dev| self.device_window(dev))
            .filter(|w| w.num_microbatches > 0)
            .map(|w| w.staging_buffers())
            .sum()
    }
}

/// Emits the CLM pipeline (Figure 6, once per device) after the ops in
/// `after` (the caller's scheduling preamble): per-device windowed gather
/// prefetch, per-device compute, per-transition gradient stores,
/// fixed-order all-reduce, owner-sharded CPU Adam.
///
/// # Panics
/// Panics if `shape` has no micro-batch or no device, or if
/// [`CostSource::adam`] does not return one share per device.
pub fn emit_clm(
    timeline: &mut Timeline,
    after: &[OpId],
    shape: &ClmShape,
    costs: &mut impl CostSource,
) {
    let (m, devices) = (shape.microbatches, shape.devices);
    assert!(m >= 1, "a batch has at least one micro-batch");
    assert!(devices >= 1, "a schedule has at least one device");
    // Each device gets its own prefetch window over its local sequence.
    let windows: Vec<PrefetchWindow> = (0..devices).map(|d| shape.device_window(d)).collect();
    let mut emit = ClmEmitter {
        timeline,
        after,
        devices,
        windows,
        costs,
        gathers: vec![None; m],
        backwards: vec![None; m],
        last_store: vec![None; devices],
        last_allreduce: None,
    };

    if shape.overlapped {
        emit.adam(AdamGroup::Untouched, after);
    }
    // Initial prefetch frontier, device-major: every device fills its own
    // window before any compute is issued.
    for dev in 0..devices {
        for k in emit.windows[dev].issuable_after(None) {
            emit.gather(k * devices + dev);
        }
    }
    for i in 0..m {
        let dev = i % devices;
        let gathered = emit.gathers[i].expect("the window issues every gather before its compute");
        let bwd = compute(
            emit.timeline,
            emit.costs,
            i,
            Lane::compute_of(dev),
            &[gathered],
        );
        emit.backwards[i] = Some(bwd);
        // Retire this micro-batch's finalised gradients to the device's
        // host shard …
        let cost = emit.costs.store(i);
        let store = push_cost(
            emit.timeline,
            OpKind::StoreGrads,
            Lane::comm_of(dev),
            cost,
            Some(i as u32),
            &[bwd],
        );
        emit.last_store[dev] = Some(store);
        // … reduce the finalised group across devices in fixed order, then
        // let each owner update its shard on its Adam lane while later
        // micro-batches keep the compute lanes busy.
        if shape.overlapped {
            let reduced = emit.allreduce(AdamGroup::FinalizedBy(i));
            emit.adam(AdamGroup::FinalizedBy(i), &[reduced]);
        }
        // This completion frees the next prefetch slot on this device.
        for k in emit.windows[dev].issuable_after(Some(i / devices)) {
            emit.gather(k * devices + dev);
        }
    }
    if !shape.overlapped {
        let reduced = emit.allreduce(AdamGroup::Dense);
        emit.adam(AdamGroup::Dense, &[reduced]);
    }
}

/// The state [`emit_clm`] threads through its helpers.
struct ClmEmitter<'a, C> {
    timeline: &'a mut Timeline,
    after: &'a [OpId],
    devices: usize,
    windows: Vec<PrefetchWindow>,
    costs: &'a mut C,
    gathers: Vec<Option<OpId>>,
    backwards: Vec<Option<OpId>>,
    /// Each device's latest gradient store.
    last_store: Vec<Option<OpId>>,
    /// Tail of the previous group's all-reduce chain.
    last_allreduce: Option<OpId>,
}

impl<C: CostSource> ClmEmitter<'_, C> {
    /// Issues the gather of micro-batch `i` on its device's comm lane,
    /// honouring the prefetch window's compute dependency.
    fn gather(&mut self, i: usize) {
        let dev = i % self.devices;
        let mut deps = self.after.to_vec();
        if let Some(k) = self.windows[dev].gather_depends_on_compute_of(i / self.devices) {
            deps.push(
                self.backwards[k * self.devices + dev]
                    .expect("window dependencies point at completed compute"),
            );
        }
        let cost = self.costs.gather(i);
        let id = push_cost(
            self.timeline,
            OpKind::LoadParams,
            Lane::comm_of(dev),
            cost,
            Some(i as u32),
            &deps,
        );
        self.gathers[i] = Some(id);
        self.costs.staged(self.timeline, i);
    }

    /// Pushes the fixed-device-order all-reduce chain for `group`'s
    /// gradients and returns the op its Adam updates must wait for.  With
    /// one device there is nothing to exchange — that op is the gradient
    /// store just pushed.
    fn allreduce(&mut self, group: AdamGroup) -> OpId {
        if self.devices == 1 {
            return self.last_store[0].expect("a store precedes every reduced group");
        }
        // The chain over devices 0 → D-1 makes the reduction order an
        // explicit scheduling dependency — the determinism the bit-identity
        // argument relies on.
        let cost = self.costs.allreduce(group);
        let mut base: Vec<OpId> = self.last_store.iter().flatten().copied().collect();
        base.extend(self.last_allreduce);
        let mut tail = None;
        for dev in 0..self.devices {
            let mut deps = base.clone();
            deps.extend(tail);
            tail = Some(push_cost(
                self.timeline,
                OpKind::AllReduce,
                Lane::comm_of(dev),
                cost,
                group.microbatch(),
                &deps,
            ));
        }
        self.last_allreduce = tail;
        tail.expect("devices >= 2 pushed at least one op")
    }

    /// Pushes `group`'s CPU Adam update, one op per owner device.
    fn adam(&mut self, group: AdamGroup, deps: &[OpId]) {
        let shares = self.costs.adam(group);
        assert_eq!(shares.len(), self.devices, "one Adam share per device");
        for (dev, share) in shares.into_iter().enumerate() {
            push_cost(
                self.timeline,
                OpKind::CpuAdamUpdate,
                Lane::adam_of(dev),
                share,
                group.microbatch(),
                deps,
            );
        }
    }
}

/// Emits the naive (ZeRO-Offload-style, Figure 3) schedule after the ops in
/// `after`: whole-model upload, serial compute, whole-gradient store, then
/// one dense CPU Adam pass — no overlap anywhere, on device 0's lanes.
/// `transfer` prices the upload and the store (the same bytes each way).
pub fn emit_naive(
    timeline: &mut Timeline,
    after: &[OpId],
    microbatches: usize,
    transfer: OpCost,
    adam: OpCost,
    costs: &mut impl CostSource,
) {
    let upload = push_cost(
        timeline,
        OpKind::LoadParams,
        Lane::GpuComm,
        transfer,
        None,
        after,
    );
    let last_bwd = emit_compute(timeline, &[upload], microbatches, costs);
    let store = push_cost(
        timeline,
        OpKind::StoreGrads,
        Lane::GpuComm,
        transfer,
        None,
        &[last_bwd],
    );
    push_cost(
        timeline,
        OpKind::CpuAdamUpdate,
        Lane::CpuAdam,
        adam,
        None,
        &[store],
    );
}

/// Emits a GPU-only baseline's schedule after the ops in `after`: compute
/// per micro-batch plus a fused GPU Adam step at batch end; no PCIe traffic
/// at all.  Device 0 only, like [`emit_naive`].
pub fn emit_gpu_only(
    timeline: &mut Timeline,
    after: &[OpId],
    microbatches: usize,
    adam: OpCost,
    costs: &mut impl CostSource,
) {
    let last_bwd = emit_compute(timeline, after, microbatches, costs);
    push_cost(
        timeline,
        OpKind::GpuAdamUpdate,
        Lane::GpuCompute,
        adam,
        None,
        &[last_bwd],
    );
}

/// Serial forward/backward pairs on device 0's compute lane, every forward
/// waiting for `after`; returns the last backward.
fn emit_compute(
    timeline: &mut Timeline,
    after: &[OpId],
    microbatches: usize,
    costs: &mut impl CostSource,
) -> OpId {
    (0..microbatches)
        .map(|i| compute(timeline, costs, i, Lane::GpuCompute, after))
        .last()
        .expect("a batch has at least one micro-batch")
}

/// Pushes micro-batch `i`'s forward (waiting for `deps`) and backward on
/// `lane`; returns the backward.
fn compute(
    timeline: &mut Timeline,
    costs: &mut impl CostSource,
    i: usize,
    lane: Lane,
    deps: &[OpId],
) -> OpId {
    let mb = Some(i as u32);
    let cost = costs.forward(i);
    let fwd = push_cost(timeline, OpKind::Forward, lane, cost, mb, deps);
    let cost = costs.backward(i);
    push_cost(timeline, OpKind::Backward, lane, cost, mb, &[fwd])
}

fn push_cost(
    timeline: &mut Timeline,
    kind: OpKind,
    lane: Lane,
    cost: OpCost,
    microbatch: Option<u32>,
    deps: &[OpId],
) -> OpId {
    timeline.push_traced(
        kind, lane, cost.dur, cost.bytes, cost.rows, microbatch, deps,
    )
}

/// Lookahead-window policy for one batch of `num_microbatches` gathers.
///
/// While micro-batch `i` computes, the gathers for micro-batches
/// `i+1 ..= i+W` may be in flight on the communication stream, which needs
/// `W + 1` staging buffers.  `W = 0` is the synchronous schedule (every
/// gather waits for the previous compute), `W = 1` double buffering, and
/// `W ≥ m − 1` leaves every gather unconstrained by compute.  Pure index
/// arithmetic, saturating: any `usize` window is a valid schedule.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PrefetchWindow {
    window: usize,
    num_microbatches: usize,
}

impl PrefetchWindow {
    /// Creates the policy for a batch.
    pub fn new(window: usize, num_microbatches: usize) -> Self {
        PrefetchWindow {
            window,
            num_microbatches,
        }
    }

    /// The configured lookahead.
    pub fn window(&self) -> usize {
        self.window
    }

    /// Index of the micro-batch whose **compute must have finished** before
    /// the gather of micro-batch `i` may start, or `None` if the gather is
    /// unconstrained (it only waits for the communication lane itself).
    ///
    /// The gather for micro-batch `i` may overlap the compute of
    /// micro-batches `i - window .. i`, so it must wait for micro-batch
    /// `i - window - 1`.
    pub fn gather_depends_on_compute_of(&self, i: usize) -> Option<usize> {
        debug_assert!(i < self.num_microbatches);
        i.checked_sub(self.window.saturating_add(1))
    }

    /// Number of staging buffers the schedule needs: one per micro-batch
    /// that may be gathered but not yet consumed (`window + 1`, capped by
    /// the batch size).
    pub fn staging_buffers(&self) -> usize {
        self.window
            .saturating_add(1)
            .min(self.num_microbatches.max(1))
    }

    /// Micro-batches whose gathers should be issued once micro-batch
    /// `completed` has finished computing (`None` = batch start): the next
    /// contiguous run of gathers the window admits.
    ///
    /// At batch start this is `0 ..= window`; after micro-batch `j`
    /// completes it is `j + window + 1` alone — the slot its completion
    /// freed.
    pub fn issuable_after(&self, completed: Option<usize>) -> std::ops::Range<usize> {
        match completed {
            None => 0..self.window.saturating_add(1).min(self.num_microbatches),
            Some(j) => {
                let next = j.saturating_add(self.window).saturating_add(1);
                next.min(self.num_microbatches)..next.saturating_add(1).min(self.num_microbatches)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// Prices every op at its own distinct, index-derived duration and
    /// records the order the hooks ran in.
    #[derive(Default)]
    struct Probe {
        devices: usize,
        calls: Vec<String>,
    }

    impl Probe {
        fn cost(&mut self, what: &str, i: usize) -> OpCost {
            self.calls.push(format!("{what}{i}"));
            OpCost {
                dur: 1.0 + i as f64,
                bytes: 10 * (i as u64 + 1),
                rows: i as u64 + 1,
            }
        }
    }

    impl CostSource for Probe {
        fn gather(&mut self, i: usize) -> OpCost {
            self.cost("g", i)
        }
        fn staged(&mut self, timeline: &mut Timeline, i: usize) {
            let gather = timeline.ops().last().expect("the gather was pushed");
            assert_eq!(gather.kind, OpKind::LoadParams);
            assert_eq!(gather.microbatch, Some(i as u32));
            self.calls.push(format!("s{i}"));
        }
        fn forward(&mut self, i: usize) -> OpCost {
            self.cost("f", i)
        }
        fn backward(&mut self, i: usize) -> OpCost {
            self.cost("b", i)
        }
        fn store(&mut self, i: usize) -> OpCost {
            self.cost("t", i)
        }
        fn allreduce(&mut self, _group: AdamGroup) -> OpCost {
            assert!(self.devices > 1, "no all-reduce on one device");
            self.cost("r", 0)
        }
        fn adam(&mut self, _group: AdamGroup) -> Vec<OpCost> {
            (0..self.devices).map(|d| self.cost("a", d)).collect()
        }
    }

    fn emit(shape: &ClmShape) -> (Timeline, Probe) {
        let mut t = Timeline::new();
        let sched = t.push(OpKind::Scheduling, Lane::CpuScheduler, 0.5, &[]);
        let mut probe = Probe {
            devices: shape.devices,
            ..Default::default()
        };
        emit_clm(&mut t, &[sched], shape, &mut probe);
        (t, probe)
    }

    #[test]
    fn double_buffered_single_device_graph_is_figure_6() {
        let (t, probe) = emit(&ClmShape {
            microbatches: 3,
            window: 1,
            devices: 1,
            overlapped: true,
        });
        let kinds: Vec<(OpKind, Option<u32>)> = t.ops()[1..]
            .iter()
            .map(|o| (o.kind, o.microbatch))
            .collect();
        use OpKind::*;
        assert_eq!(
            kinds,
            [
                (CpuAdamUpdate, None),
                (LoadParams, Some(0)),
                (LoadParams, Some(1)),
                (Forward, Some(0)),
                (Backward, Some(0)),
                (StoreGrads, Some(0)),
                (CpuAdamUpdate, Some(0)),
                (LoadParams, Some(2)),
                (Forward, Some(1)),
                (Backward, Some(1)),
                (StoreGrads, Some(1)),
                (CpuAdamUpdate, Some(1)),
                (Forward, Some(2)),
                (Backward, Some(2)),
                (StoreGrads, Some(2)),
                (CpuAdamUpdate, Some(2)),
            ]
        );
        // Gather 2 waits for the scheduling preamble and backward 0; hooks
        // ran in exactly the order the ops were pushed.
        let dep_indices =
            |op: usize| -> Vec<usize> { t.ops()[op].deps.iter().map(|d| d.index()).collect() };
        assert_eq!(dep_indices(8), [0, 5]);
        assert_eq!(dep_indices(7), [6], "Adam 0 waits for store 0");
        assert_eq!(
            probe.calls.join(" "),
            "a0 g0 s0 g1 s1 f0 b0 t0 a0 g2 s2 f1 b1 t1 a0 f2 b2 t2 a0"
        );
    }

    #[test]
    fn any_window_up_to_usize_max_is_the_window_at_least_batch_schedule() {
        // `usize::MAX` used to overflow the trace replay's restated window
        // arithmetic; the one saturating window makes it the same graph as
        // any other window ≥ m − 1.
        let shape = |window| ClmShape {
            microbatches: 5,
            window,
            devices: 2,
            overlapped: true,
        };
        let reference = emit(&shape(4)).0.fingerprint();
        for window in [5, 1 << 40, usize::MAX - 1, usize::MAX] {
            assert_eq!(emit(&shape(window)).0.fingerprint(), reference, "{window}");
        }
        assert_ne!(emit(&shape(1)).0.fingerprint(), reference);
    }

    #[test]
    fn naive_and_gpu_only_graphs_are_serial_on_device_zero() {
        let transfer = OpCost {
            dur: 2.0,
            bytes: 100,
            rows: 7,
        };
        let adam = OpCost {
            dur: 3.0,
            bytes: 0,
            rows: 7,
        };
        let mut naive = Timeline::new();
        emit_naive(&mut naive, &[], 2, transfer, adam, &mut Probe::default());
        use OpKind::*;
        let kinds: Vec<OpKind> = naive.ops().iter().map(|o| o.kind).collect();
        assert_eq!(
            kinds,
            [
                LoadParams,
                Forward,
                Backward,
                Forward,
                Backward,
                StoreGrads,
                CpuAdamUpdate
            ]
        );
        // upload 2 + (1 + 1) + (2 + 2) + store 2 + adam 3: nothing overlaps.
        assert_eq!(naive.makespan(), 13.0);
        assert_eq!(naive.bytes_by_kind(LoadParams), 100);
        assert_eq!(naive.bytes_by_kind(StoreGrads), 100);

        let mut gpu = Timeline::new();
        emit_gpu_only(&mut gpu, &[], 2, adam, &mut Probe::default());
        let kinds: Vec<OpKind> = gpu.ops().iter().map(|o| o.kind).collect();
        assert_eq!(kinds, [Forward, Backward, Forward, Backward, GpuAdamUpdate]);
        assert!(gpu.ops().iter().all(|o| o.lane == Lane::GpuCompute));
        assert_eq!(gpu.makespan(), 9.0);
    }

    proptest! {
        #[test]
        fn emitted_clm_graphs_are_well_formed(
            m in 1usize..13,
            window in 0usize..7,
            devices in 1usize..5,
            overlapped in 0u8..2,
        ) {
            let overlapped = overlapped == 1;
            let shape = ClmShape { microbatches: m, window, devices, overlapped };
            let (t, _) = emit(&shape);
            let ops = t.ops();

            // Every micro-batch gets exactly one gather/forward/backward/store.
            for kind in [OpKind::LoadParams, OpKind::Forward, OpKind::Backward, OpKind::StoreGrads] {
                let mut seen = vec![0usize; m];
                for op in ops.iter().filter(|o| o.kind == kind) {
                    seen[op.microbatch.expect("per-micro-batch op") as usize] += 1;
                }
                prop_assert_eq!(seen, vec![1usize; m], "{:?}", kind);
            }

            // Dependencies only point backwards.
            for (index, op) in ops.iter().enumerate() {
                prop_assert!(op.deps.iter().all(|d| d.index() < index));
            }

            // Gather i is pushed before forward i, and never more than
            // `window + 1` gathers are issued-but-unconsumed per device.
            let mut in_flight = vec![0usize; devices];
            let mut fullest = 0usize;
            let mut gathered = vec![false; m];
            for op in ops {
                let Some(i) = op.microbatch.map(|mb| mb as usize) else { continue };
                match op.kind {
                    OpKind::LoadParams => {
                        gathered[i] = true;
                        in_flight[i % devices] += 1;
                        prop_assert!(in_flight[i % devices] <= window + 1);
                        fullest = fullest.max(in_flight.iter().sum());
                        prop_assert_eq!(op.lane, Lane::comm_of(i % devices));
                    }
                    OpKind::Forward => {
                        prop_assert!(gathered[i], "forward {} before its gather", i);
                        prop_assert_eq!(op.lane, Lane::compute_of(i % devices));
                    }
                    OpKind::Backward => in_flight[i % devices] -= 1,
                    _ => {}
                }
            }

            prop_assert_eq!(fullest, shape.staging_buffers());

            // D all-reduce ops per finalisation group above one device (one
            // group per micro-batch when overlapped, one dense group
            // otherwise), none at D = 1; one Adam share per device per group.
            let groups = if overlapped { m } else { 1 };
            let allreduces = ops.iter().filter(|o| o.kind == OpKind::AllReduce).count();
            prop_assert_eq!(allreduces, if devices > 1 { groups * devices } else { 0 });
            let adams = ops.iter().filter(|o| o.kind == OpKind::CpuAdamUpdate).count();
            prop_assert_eq!(adams, (groups + usize::from(overlapped)) * devices);
        }
    }

    #[test]
    fn window_zero_is_synchronous() {
        // Every gather after the first waits for the immediately preceding
        // compute: no communication/compute overlap at all.
        let w = PrefetchWindow::new(0, 5);
        assert_eq!(w.gather_depends_on_compute_of(0), None);
        for i in 1..5 {
            assert_eq!(w.gather_depends_on_compute_of(i), Some(i - 1));
        }
        assert_eq!(w.staging_buffers(), 1);
        assert_eq!(w.issuable_after(None), 0..1);
        assert_eq!(w.issuable_after(Some(2)), 3..4);
    }

    #[test]
    fn double_buffering_is_window_one() {
        let w = PrefetchWindow::new(1, 6);
        assert_eq!(w.gather_depends_on_compute_of(0), None);
        assert_eq!(w.gather_depends_on_compute_of(1), None);
        assert_eq!(w.gather_depends_on_compute_of(2), Some(0));
        assert_eq!(w.gather_depends_on_compute_of(5), Some(3));
        assert_eq!(w.staging_buffers(), 2);
        assert_eq!(w.issuable_after(None), 0..2);
        assert_eq!(w.issuable_after(Some(0)), 2..3);
    }

    #[test]
    fn window_at_least_batch_size_never_blocks_on_compute() {
        for window in [7, 8, 100, usize::MAX - 1, usize::MAX] {
            let w = PrefetchWindow::new(window, 8);
            for i in 0..8 {
                assert_eq!(
                    w.gather_depends_on_compute_of(i),
                    None,
                    "window {window}, micro {i}"
                );
            }
            assert_eq!(w.staging_buffers(), 8, "buffers capped by batch size");
            assert_eq!(w.issuable_after(None), 0..8);
            // Completions free no further slots: everything was issued at
            // batch start.
            assert_eq!(w.issuable_after(Some(0)), 8..8);
        }
    }

    #[test]
    fn issuable_ranges_cover_each_gather_exactly_once() {
        for window in 0..6 {
            for m in 1..7 {
                let w = PrefetchWindow::new(window, m);
                let mut issued = vec![0usize; m];
                for i in w.issuable_after(None) {
                    issued[i] += 1;
                }
                for j in 0..m {
                    for i in w.issuable_after(Some(j)) {
                        issued[i] += 1;
                    }
                }
                assert_eq!(
                    issued,
                    vec![1; m],
                    "window {window}, batch {m}: every gather issued exactly once"
                );
            }
        }
    }

    #[test]
    fn single_microbatch_batches_are_degenerate_but_valid() {
        let w = PrefetchWindow::new(3, 1);
        assert_eq!(w.gather_depends_on_compute_of(0), None);
        assert_eq!(w.staging_buffers(), 1);
        assert_eq!(w.issuable_after(None), 0..1);
    }
}
