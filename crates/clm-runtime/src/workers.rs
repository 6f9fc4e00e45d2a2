//! Hand-rolled worker-lane primitives for the threaded backend.
//!
//! The threaded execution backend runs each pipeline lane (parameter
//! gathers, CPU Adam) on a dedicated worker thread.  The build is
//! network-free, so instead of rayon/crossbeam this module provides the
//! small amount of infrastructure those lanes actually need, on top of
//! `std` only:
//!
//! * [`spawn_lane`] — a worker thread inside a [`std::thread::scope`] wired
//!   up with a **bounded** request queue in and a **bounded** completion
//!   queue out (`std::sync::mpsc::sync_channel`).  Each queue is used
//!   single-producer/single-consumer; the bounds are what give the pipeline
//!   backpressure: a lane that runs ahead of its consumer blocks on `send`
//!   instead of buffering unboundedly, exactly like a full CUDA stream.
//!
//! Every interval a lane thread times goes onto that thread's own
//! [`sim_device::LaneSpans`] list, which the coordinator gets back when the
//! scope joins it.
//!
//! Scoped threads (rather than long-lived ones) are deliberate: a worker
//! borrows the pinned host store, the staging pool and its span list
//! directly for one batch — no intermediate clone, no `Arc` plumbing.
//! Spawning and joining both lanes costs 55–85 µs per batch pinned to one
//! CPU (5 000 batches of scope + two lanes + four channels + join; about
//! 120 µs unpinned on two), at most 0.2 % of the shortest benchmark batch.

use std::sync::mpsc::{sync_channel, Receiver, SyncSender};
use std::thread::Scope;

/// The coordinator's two ends of one worker lane: a bounded request queue
/// into the worker and a bounded completion queue back out.
#[derive(Debug)]
pub struct WorkerLane<Req, Resp> {
    /// Sends work to the lane; blocks when the lane is `request_capacity`
    /// items behind (backpressure).
    pub requests: SyncSender<Req>,
    /// Receives finished work from the lane, in completion order.
    pub completions: Receiver<Resp>,
}

/// Spawns a worker lane inside `scope`.
///
/// `body` runs on the worker thread with the receiving end of the request
/// queue and the sending end of the completion queue; it should loop until
/// the request queue disconnects (the coordinator dropping
/// [`WorkerLane::requests`] is the shutdown signal).  Queue capacities are
/// clamped to at least 1 — a zero-capacity rendezvous channel would make
/// every handoff synchronous and serialise the pipeline.
pub fn spawn_lane<'scope, Req, Resp, F>(
    scope: &'scope Scope<'scope, '_>,
    request_capacity: usize,
    completion_capacity: usize,
    body: F,
) -> WorkerLane<Req, Resp>
where
    Req: Send + 'scope,
    Resp: Send + 'scope,
    F: FnOnce(Receiver<Req>, SyncSender<Resp>) + Send + 'scope,
{
    let (req_tx, req_rx) = sync_channel(request_capacity.max(1));
    let (resp_tx, resp_rx) = sync_channel(completion_capacity.max(1));
    scope.spawn(move || body(req_rx, resp_tx));
    WorkerLane {
        requests: req_tx,
        completions: resp_rx,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sim_device::{Lane, LaneSpans, OpKind, Timeline};
    use std::panic::{catch_unwind, AssertUnwindSafe};
    use std::time::Instant;

    #[test]
    fn lane_round_trips_work_in_order() {
        let mut out = Vec::new();
        std::thread::scope(|scope| {
            let lane = spawn_lane::<u32, u32, _>(scope, 1, 1, |req_rx, resp_tx| {
                while let Ok(x) = req_rx.recv() {
                    if resp_tx.send(x * 10).is_err() {
                        break;
                    }
                }
            });
            for x in 0..50u32 {
                lane.requests.send(x).unwrap();
                out.push(lane.completions.recv().unwrap());
            }
            drop(lane.requests);
            assert!(lane.completions.recv().is_err(), "worker exits on shutdown");
        });
        assert_eq!(out, (0..50).map(|x| x * 10).collect::<Vec<_>>());
    }

    #[test]
    fn capacity_one_queues_still_drain_a_burst() {
        // A deliberately tight lane (capacity 1 both ways) must still move a
        // burst of work if the coordinator drains completions while sending —
        // the backpressure pattern the threaded backend relies on.
        std::thread::scope(|scope| {
            let lane = spawn_lane::<u64, u64, _>(scope, 1, 1, |req_rx, resp_tx| {
                while let Ok(x) = req_rx.recv() {
                    if resp_tx.send(x + 1).is_err() {
                        break;
                    }
                }
            });
            let mut received = 0u64;
            let mut sum = 0u64;
            for x in 0..200u64 {
                while let Ok(y) = lane.completions.try_recv() {
                    received += 1;
                    sum += y;
                }
                lane.requests.send(x).unwrap();
            }
            drop(lane.requests);
            while let Ok(y) = lane.completions.recv() {
                received += 1;
                sum += y;
            }
            assert_eq!(received, 200);
            assert_eq!(sum, (1..=200).sum::<u64>());
        });
    }

    #[test]
    fn a_lane_that_panics_mid_batch_still_yields_the_spans_it_recorded() {
        let mut spans = LaneSpans::new(Instant::now());
        let batch = catch_unwind(AssertUnwindSafe(|| {
            std::thread::scope(|scope| {
                let spans = &mut spans;
                let lane = spawn_lane::<u32, u32, _>(scope, 1, 1, move |req_rx, _resp_tx| {
                    let _ = req_rx.recv();
                    spans.time(OpKind::Forward, Lane::GpuCompute, Some(0), 0, 1, || ());
                    panic!("lane dies mid-batch");
                });
                lane.requests.send(1).unwrap();
                assert!(lane.completions.recv().is_err(), "the coordinator sees it");
            })
        }));
        assert!(batch.is_err(), "the scope re-raises the lane's panic");
        // No lock to poison: what the lane had timed before dying is intact.
        let mut salvaged = Timeline::new();
        LaneSpans::merge_onto([spans], &mut salvaged);
        assert_eq!(salvaged.ops().len(), 1);
        assert_eq!(salvaged.ops()[0].kind, OpKind::Forward);
    }

    #[test]
    fn worker_death_surfaces_as_disconnect_not_hang() {
        std::thread::scope(|scope| {
            let lane = spawn_lane::<u32, u32, _>(scope, 1, 1, |req_rx, _resp_tx| {
                // Worker exits after one request without replying.
                let _ = req_rx.recv();
            });
            lane.requests.send(1).unwrap();
            assert!(
                lane.completions.recv().is_err(),
                "dropped completion sender must disconnect the coordinator"
            );
        });
    }
}
