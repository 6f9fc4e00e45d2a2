//! Per-iteration execution reports of the pipelined runtime.
//!
//! Each [`IterationReport`] pairs the numeric outcome of one training batch
//! (loss, traffic, order — identical to the synchronous trainer's
//! [`BatchReport`]) with the discrete-event schedule it executed on: the
//! makespan, per-lane busy/idle time and communication volume the paper's
//! Figures 11–15 and Table 7 are derived from.

use clm_core::{BatchReport, DensifyReport};
use sim_device::{FaultStats, Lane, OpKind, Timeline};

/// Busy/idle accounting of one lane over one iteration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LaneReport {
    /// The lane.
    pub lane: Lane,
    /// Seconds the lane spent executing operations.
    pub busy: f64,
    /// Seconds the lane sat idle within the makespan.
    pub idle: f64,
    /// Busy fraction of the makespan (0–1).
    pub utilization: f64,
}

/// What one pipelined training iteration (batch) did, numerically and on
/// the event timeline.
#[derive(Debug, Clone)]
pub struct IterationReport {
    /// The numeric batch outcome (identical to the synchronous trainer's).
    pub batch: BatchReport,
    /// The executed schedule.
    pub timeline: Timeline,
    /// Number of views trained by the batch.
    pub views: usize,
    /// Prefetch lookahead window the batch ran with (the configured
    /// `prefetch_window`).
    pub prefetch_window: usize,
    /// Banded-render worker count the batch ran with (resolved — never the
    /// `0` "inherit/autotune" sentinel).
    pub compute_threads: usize,
    /// Accumulation band height the batch rendered with (resolved, part of
    /// the numeric contract).
    pub band_height: u32,
    /// The densification resize applied at this batch's boundary, if one
    /// was due (`None` for the fixed-size batches in between).
    pub resize: Option<DensifyReport>,
    /// Faults injected (and recovered from) while executing this batch.
    /// All-zero when no fault plan is installed.
    pub faults: FaultStats,
}

impl IterationReport {
    /// Completion time of the iteration in simulated seconds.
    pub fn makespan(&self) -> f64 {
        self.timeline.makespan()
    }

    /// Training throughput in images per simulated second.
    pub fn throughput(&self) -> f64 {
        let makespan = self.makespan();
        if makespan <= 0.0 {
            0.0
        } else {
            self.views as f64 / makespan
        }
    }

    /// Busy/idle accounting of one lane.
    pub fn lane(&self, lane: Lane) -> LaneReport {
        LaneReport {
            lane,
            busy: self.timeline.busy_time(lane),
            idle: self.timeline.idle_time(lane),
            utilization: self.timeline.utilization(lane),
        }
    }

    /// The four **single-device** lanes in display order (device 0's
    /// compute/comm/Adam plus the shared scheduler).  A multi-device report
    /// (`num_devices > 1`) has further `Device*` lanes on its timeline —
    /// use [`device_lane_group`](Self::device_lane_group) /
    /// [`all_device_lanes`](Self::all_device_lanes) to read them; this
    /// method alone under-counts a sharded schedule.
    pub fn lanes(&self) -> Vec<LaneReport> {
        Lane::ALL.iter().map(|&l| self.lane(l)).collect()
    }

    /// Busy/idle accounting of one device's lane group (compute, comm, CPU
    /// Adam — in that order).  Device 0 maps to the classic GPU lanes.
    pub fn device_lane_group(&self, device: usize) -> [LaneReport; 3] {
        [
            self.lane(Lane::compute_of(device)),
            self.lane(Lane::comm_of(device)),
            self.lane(Lane::adam_of(device)),
        ]
    }

    /// Lane groups of every device in a sharded schedule, in device order.
    pub fn all_device_lanes(&self, num_devices: usize) -> Vec<[LaneReport; 3]> {
        (0..num_devices)
            .map(|d| self.device_lane_group(d))
            .collect()
    }

    /// Fraction of the makespan the GPU compute lane sat idle — the paper's
    /// headline overlap metric (Figure 15).  For a multi-device report this
    /// is **device 0's** compute lane; see
    /// [`device_idle_fraction`](Self::device_idle_fraction) for the others.
    pub fn gpu_idle_fraction(&self) -> f64 {
        self.timeline.idle_fraction(Lane::GpuCompute)
    }

    /// Fraction of the makespan `device`'s compute lane sat idle.
    pub fn device_idle_fraction(&self, device: usize) -> f64 {
        self.timeline.idle_fraction(Lane::compute_of(device))
    }

    /// CPU→GPU bytes moved on the costed timeline.
    pub fn comm_bytes_h2d(&self) -> u64 {
        self.timeline.bytes_by_kind(OpKind::LoadParams)
    }

    /// GPU→CPU bytes moved on the costed timeline.
    pub fn comm_bytes_d2h(&self) -> u64 {
        self.timeline.bytes_by_kind(OpKind::StoreGrads)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn demo_report() -> IterationReport {
        let mut t = Timeline::new();
        let load = t.push_with_bytes(OpKind::LoadParams, Lane::GpuComm, 1.0, 100, &[]);
        let fwd = t.push(OpKind::Forward, Lane::GpuCompute, 2.0, &[load]);
        t.push_with_bytes(OpKind::StoreGrads, Lane::GpuComm, 1.0, 40, &[fwd]);
        IterationReport {
            batch: BatchReport {
                loss: 0.5,
                received: 0,
                touched: 10,
                bytes_loaded: 100,
                bytes_stored: 40,
                order: vec![0, 1],
            },
            timeline: t,
            views: 2,
            prefetch_window: 1,
            compute_threads: 1,
            band_height: 16,
            resize: None,
            faults: FaultStats::default(),
        }
    }

    #[test]
    fn throughput_and_lane_accounting() {
        let r = demo_report();
        assert_eq!(r.makespan(), 4.0);
        assert!((r.throughput() - 0.5).abs() < 1e-12);
        let compute = r.lane(Lane::GpuCompute);
        assert_eq!(compute.busy, 2.0);
        assert_eq!(compute.idle, 2.0);
        assert!((compute.utilization - 0.5).abs() < 1e-12);
        assert!((r.gpu_idle_fraction() - 0.5).abs() < 1e-12);
        assert_eq!(r.comm_bytes_h2d(), 100);
        assert_eq!(r.comm_bytes_d2h(), 40);
        assert_eq!(r.lanes().len(), 4);
    }

    #[test]
    fn device_lane_helpers_cover_sharded_timelines() {
        let mut t = Timeline::new();
        t.push(OpKind::Forward, Lane::compute_of(0), 1.0, &[]);
        t.push(OpKind::Forward, Lane::compute_of(1), 2.0, &[]);
        t.push_with_bytes(OpKind::LoadParams, Lane::comm_of(1), 1.0, 10, &[]);
        let r = IterationReport {
            batch: BatchReport {
                loss: 0.1,
                received: 0,
                touched: 1,
                bytes_loaded: 10,
                bytes_stored: 0,
                order: vec![0, 1],
            },
            timeline: t,
            views: 2,
            prefetch_window: 0,
            compute_threads: 1,
            band_height: 16,
            resize: None,
            faults: FaultStats::default(),
        };
        // Device 0's group is the classic lanes; device 1's lanes are only
        // visible through the device-aware helpers.
        let groups = r.all_device_lanes(2);
        assert_eq!(groups.len(), 2);
        assert_eq!(groups[0][0].busy, 1.0);
        assert_eq!(groups[1][0].busy, 2.0);
        assert_eq!(groups[1][1].busy, 1.0);
        assert_eq!(groups[0][0].lane, Lane::GpuCompute);
        assert_eq!(groups[1][0].lane, Lane::DeviceCompute(1));
        // lanes() alone sees only device 0's compute busy time.
        let classic: f64 = r.lanes().iter().map(|l| l.busy).sum();
        assert_eq!(classic, 1.0);
        assert!(r.device_idle_fraction(1) < r.device_idle_fraction(0));
    }
}
