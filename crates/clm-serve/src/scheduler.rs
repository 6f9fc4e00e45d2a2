//! Weighted deficit-round-robin scheduling across active sessions.
//!
//! Every session carries a deficit counter in **virtual device seconds**.
//! Each round-robin visit tops the counter up by `quantum × weight`; a
//! session runs while its credit covers the estimated cost of its next
//! batch, and the actual cost is charged afterwards.  Over any contention
//! interval each tenant therefore receives device time proportional to its
//! weight (the classic DRR bound: per-tenant service error ≤ one maximum
//! batch cost), which is what the two-tenant starvation test pins down.
//!
//! The scheduler is deliberately pure state-machine code — no clocks, no
//! randomness — so that with the simulated backend the whole service
//! schedule is bit-reproducible from the tenant specs alone.

use crate::session::SessionId;
use std::collections::BTreeMap;

/// Deficit-round-robin scheduler over the set of active sessions.
#[derive(Debug, Default)]
pub struct DeficitScheduler {
    /// Round-robin ring of `(session, weight)` in admission order.
    ring: Vec<(SessionId, f64)>,
    /// Next ring position to visit.
    cursor: usize,
    /// Unspent credit per session, in virtual device seconds.
    deficits: BTreeMap<SessionId, f64>,
    /// Estimated cost of each session's next batch (its last actual cost).
    estimates: BTreeMap<SessionId, f64>,
    /// Largest actual batch cost charged so far (adaptive quantum).
    max_cost_seen: f64,
}

impl DeficitScheduler {
    /// An empty scheduler.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of sessions in the ring.
    pub fn len(&self) -> usize {
        self.ring.len()
    }

    /// Whether the ring is empty.
    pub fn is_empty(&self) -> bool {
        self.ring.is_empty()
    }

    /// The quantum currently in effect for a weight-1.0 session, in virtual
    /// device seconds: the largest batch cost seen so far (1.0 before the
    /// first charge), which guarantees progress without knowing batch costs
    /// up front.
    pub fn effective_quantum(&self) -> f64 {
        if self.max_cost_seen > 0.0 {
            self.max_cost_seen
        } else {
            1.0
        }
    }

    /// Adds a session to the ring with the given weight (clamped to a
    /// small positive floor).  Its deficit starts at zero: newcomers earn
    /// credit at the same rate as everyone else, they do not jump queues.
    pub fn add(&mut self, id: SessionId, weight: f64) {
        let weight = if weight.is_finite() && weight > 0.0 {
            weight
        } else {
            1.0
        };
        self.ring.push((id, weight));
        self.deficits.insert(id, 0.0);
        self.estimates.insert(id, 0.0);
    }

    /// Removes a session (eviction, completion, cancellation).  Unspent
    /// deficit is forfeited — a session cannot bank credit across an
    /// eviction.
    pub fn remove(&mut self, id: SessionId) {
        if let Some(pos) = self.ring.iter().position(|&(s, _)| s == id) {
            self.ring.remove(pos);
            if pos < self.cursor {
                self.cursor -= 1;
            }
            if !self.ring.is_empty() {
                self.cursor %= self.ring.len();
            } else {
                self.cursor = 0;
            }
        }
        self.deficits.remove(&id);
        self.estimates.remove(&id);
    }

    /// Picks the next session to run one batch.  Visits the ring from the
    /// cursor; a session with enough credit to cover its estimated next
    /// batch cost is returned **without** advancing the cursor (DRR keeps
    /// serving a session while its credit lasts), otherwise its deficit is
    /// topped up by `quantum × weight` and the cursor advances.  Returns
    /// `None` when the ring is empty.
    pub fn pick(&mut self) -> Option<SessionId> {
        if self.ring.is_empty() {
            return None;
        }
        let quantum = self.effective_quantum();
        // Each full lap tops every deficit up by at least quantum×weight,
        // so at most ceil(estimate / (quantum×weight)) laps are needed;
        // the bound below only trips on internal accounting bugs.
        for _ in 0..10_000 * self.ring.len() {
            let (id, weight) = self.ring[self.cursor];
            let deficit = self.deficits.get_mut(&id).expect("ring member has deficit");
            let estimate = *self.estimates.get(&id).expect("ring member has estimate");
            if *deficit >= estimate {
                return Some(id);
            }
            *deficit += quantum * weight;
            self.cursor = (self.cursor + 1) % self.ring.len();
        }
        unreachable!("deficit scheduler failed to converge");
    }

    /// Charges a session the actual cost of the batch it just ran and
    /// records that cost as the estimate for its next one.
    pub fn charge(&mut self, id: SessionId, cost: f64) {
        let cost = if cost.is_finite() && cost > 0.0 {
            cost
        } else {
            0.0
        };
        if let Some(d) = self.deficits.get_mut(&id) {
            *d -= cost;
        }
        self.estimates.insert(id, cost);
        self.max_cost_seen = self.max_cost_seen.max(cost);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run_rounds(
        sched: &mut DeficitScheduler,
        costs: &BTreeMap<SessionId, f64>,
        n: usize,
    ) -> BTreeMap<SessionId, f64> {
        let mut served: BTreeMap<SessionId, f64> = BTreeMap::new();
        for _ in 0..n {
            let id = sched.pick().expect("non-empty ring");
            let cost = costs[&id];
            sched.charge(id, cost);
            *served.entry(id).or_insert(0.0) += cost;
        }
        served
    }

    #[test]
    fn equal_weights_share_equally() {
        let a = SessionId(1);
        let b = SessionId(2);
        let mut sched = DeficitScheduler::new();
        sched.add(a, 1.0);
        sched.add(b, 1.0);
        let costs = BTreeMap::from([(a, 2.0), (b, 2.0)]);
        let served = run_rounds(&mut sched, &costs, 100);
        assert!((served[&a] - served[&b]).abs() <= 2.0, "{served:?}");
    }

    #[test]
    fn weights_bias_service_proportionally() {
        let heavy = SessionId(1);
        let light = SessionId(2);
        let mut sched = DeficitScheduler::new();
        sched.add(heavy, 3.0);
        sched.add(light, 1.0);
        let costs = BTreeMap::from([(heavy, 1.0), (light, 1.0)]);
        let served = run_rounds(&mut sched, &costs, 400);
        let ratio = served[&heavy] / served[&light];
        assert!((ratio - 3.0).abs() < 0.2, "expected ≈3:1, got {ratio}");
    }

    #[test]
    fn expensive_tenant_cannot_starve_a_cheap_one() {
        let expensive = SessionId(1);
        let cheap = SessionId(2);
        let mut sched = DeficitScheduler::new();
        sched.add(expensive, 1.0);
        sched.add(cheap, 1.0);
        let costs = BTreeMap::from([(expensive, 8.0), (cheap, 1.0)]);
        let served = run_rounds(&mut sched, &costs, 200);
        // Equal weights: device time should split near 50/50 even though
        // one tenant's batches cost 8× more.
        let ratio = served[&expensive] / served[&cheap];
        assert!(
            (0.7..1.4).contains(&ratio),
            "expected ≈1:1 device time, got {ratio} ({served:?})"
        );
    }

    #[test]
    fn removal_keeps_the_ring_consistent() {
        let ids: Vec<SessionId> = (0..4).map(SessionId).collect();
        let mut sched = DeficitScheduler::new();
        for &id in &ids {
            sched.add(id, 1.0);
        }
        let costs: BTreeMap<SessionId, f64> = ids.iter().map(|&i| (i, 1.0)).collect();
        run_rounds(&mut sched, &costs, 10);
        sched.remove(ids[1]);
        sched.remove(ids[3]);
        assert_eq!(sched.len(), 2);
        let served = run_rounds(&mut sched, &costs, 40);
        assert!(served.keys().all(|k| *k == ids[0] || *k == ids[2]));
        sched.remove(ids[0]);
        sched.remove(ids[2]);
        assert!(sched.pick().is_none());
    }
}
