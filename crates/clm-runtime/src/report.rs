//! The batch report every executor returns.
//!
//! An [`ExecutionReport`] pairs the numeric outcome of one training batch
//! (loss, traffic, order, resize — the same [`BatchReport`] on every
//! executor) with the schedule it ran on: the batch's [`Timeline`].  For the
//! simulated engine that is the costed discrete-event schedule; for the
//! threaded backend and the synchronous trainer it is the measured spans of
//! their threads.  The makespan, per-lane busy/idle time and communication
//! volume the paper's Figures 11–15 and Table 7 are derived from are read
//! off it.

use clm_core::BatchReport;
use sim_device::{FaultStats, Lane, OpKind, Timeline};

/// Busy seconds of each pipeline lane over one batch.
///
/// Simulated device seconds for the simulated backend, measured thread busy
/// seconds for the threaded backend and the synchronous trainer.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct LaneBusy {
    /// Forward/backward render compute (the would-be GPU lane).
    pub compute: f64,
    /// Parameter gathers / gradient stores (the communication lane).
    pub comm: f64,
    /// CPU Adam updates.
    pub adam: f64,
    /// Planning: frustum culling, ordering, finalisation analysis.
    pub scheduling: f64,
}

impl LaneBusy {
    /// The per-lane busy sums of `timeline`: compute, comm and Adam summed
    /// over the lane groups of `devices` devices in device order, scheduling
    /// from the shared [`Lane::CpuScheduler`].
    pub(crate) fn of(timeline: &Timeline, devices: usize) -> Self {
        let sum = |lane: fn(usize) -> Lane| -> f64 {
            (0..devices).map(|d| timeline.busy_time(lane(d))).sum()
        };
        LaneBusy {
            compute: sum(Lane::compute_of),
            comm: sum(Lane::comm_of),
            adam: sum(Lane::adam_of),
            scheduling: timeline.busy_time(Lane::CpuScheduler),
        }
    }
}

/// Busy/idle accounting of one lane over one batch.
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

/// What one executed batch did, numerically and in time: only what the
/// executor measured.  Its configuration (window, thread counts, band
/// height) lives on the executor; the boundary's resize is a numeric fact,
/// so it is [`BatchReport::resize`].
#[derive(Debug, Clone)]
pub struct ExecutionReport {
    /// The numeric batch outcome (identical across executors by
    /// construction).
    pub batch: BatchReport,
    /// The schedule the batch ran on: costed ops for the simulated backend,
    /// measured spans for the threaded backend and the synchronous trainer.
    pub timeline: Timeline,
    /// Measured wall-clock seconds the batch took on the host.
    pub wall_seconds: f64,
    /// Per-lane busy seconds of [`timeline`](Self::timeline): compute, comm
    /// and Adam summed over the device lane groups in device order (per
    /// device, see [`device_lane_group`](Self::device_lane_group)).
    pub lanes: LaneBusy,
    /// Faults injected (and recovered from) while executing this batch.
    /// All-zero when no fault plan is installed.
    pub faults: FaultStats,
    /// Gaussian rows whose final gradients were shipped to the CPU Adam
    /// lane (threaded backend; 0 for executors that step the optimiser
    /// inline).  One row per Gaussian that **received** gradient
    /// (`batch.received`) — a touched Gaussian the renderer never reached
    /// ships nothing, and neither does `F_0`.  Each row is a flat 59-float
    /// gradient row with its `u32` index.
    pub adam_rows_shipped: u64,
}

impl ExecutionReport {
    /// Completion time of the batch's timeline (simulated device seconds,
    /// or measured seconds for the threaded backend).
    pub fn makespan(&self) -> f64 {
        self.timeline.makespan()
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

    /// Busy/idle accounting of one device's lane group (compute, comm, CPU
    /// Adam — in that order).  Device 0 maps to the classic GPU lanes.
    pub fn device_lane_group(&self, device: usize) -> [LaneReport; 3] {
        [
            self.lane(Lane::compute_of(device)),
            self.lane(Lane::comm_of(device)),
            self.lane(Lane::adam_of(device)),
        ]
    }

    /// Fraction of the makespan the GPU compute lane sat idle — the paper's
    /// headline overlap metric (Figure 15).  For a multi-device report this
    /// is **device 0's** compute lane.
    pub fn gpu_idle_fraction(&self) -> f64 {
        self.timeline.idle_fraction(Lane::GpuCompute)
    }

    /// CPU→GPU bytes moved on the timeline.
    pub fn comm_bytes_h2d(&self) -> u64 {
        self.timeline.bytes_by_kind(OpKind::LoadParams)
    }

    /// GPU→CPU bytes moved on the timeline.
    pub fn comm_bytes_d2h(&self) -> u64 {
        self.timeline.bytes_by_kind(OpKind::StoreGrads)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accessors_read_the_timeline_per_lane_and_per_device() {
        let mut t = Timeline::new();
        let load = t.push_with_bytes(OpKind::LoadParams, Lane::GpuComm, 1.0, 100, &[]);
        let fwd = t.push(OpKind::Forward, Lane::GpuCompute, 2.0, &[load]);
        t.push_with_bytes(OpKind::StoreGrads, Lane::GpuComm, 1.0, 40, &[fwd]);
        t.push(OpKind::Forward, Lane::compute_of(1), 3.0, &[]);
        t.push_with_bytes(OpKind::LoadParams, Lane::comm_of(1), 1.0, 10, &[]);
        let r = ExecutionReport {
            batch: BatchReport {
                loss: 0.5,
                received: 0,
                touched: 10,
                bytes_loaded: 110,
                bytes_stored: 40,
                order: vec![0, 1],
                adam_rows_skipped: 0,
                resize: None,
            },
            lanes: LaneBusy::of(&t, 2),
            timeline: t,
            wall_seconds: 0.0,
            faults: FaultStats::default(),
            adam_rows_shipped: 0,
        };
        assert_eq!(r.makespan(), 4.0);
        let compute = r.lane(Lane::GpuCompute);
        assert_eq!((compute.busy, compute.idle), (2.0, 2.0));
        assert!((compute.utilization - 0.5).abs() < 1e-12);
        assert!((r.gpu_idle_fraction() - 0.5).abs() < 1e-12);
        assert_eq!(r.comm_bytes_h2d(), 110);
        assert_eq!(r.comm_bytes_d2h(), 40);
        // Device 1's lanes are only visible through the device-aware
        // accessors, and the lane sums cover both devices.
        let group = r.device_lane_group(1);
        assert_eq!(group[0].lane, Lane::DeviceCompute(1));
        assert_eq!(
            (group[0].busy, group[1].busy, group[2].busy),
            (3.0, 1.0, 0.0)
        );
        assert!(
            r.timeline.idle_fraction(Lane::compute_of(1))
                < r.timeline.idle_fraction(Lane::compute_of(0))
        );
        let expected = LaneBusy {
            compute: 5.0,
            comm: 3.0,
            adam: 0.0,
            scheduling: 0.0,
        };
        assert_eq!(r.lanes, expected);
    }
}
