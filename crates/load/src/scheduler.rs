//! The two-level dispatch queue: fair queueing **across** tenants,
//! earliest-deadline-first **within** each tenant.
//!
//! Each tenant owns an EDF heap keyed by `(deadline, seq)` — `seq` (the
//! stream-wide query id) breaks ties deterministically. Across tenants the
//! scheduler runs least-attained-service fair queueing: each grant charges
//! the query's estimate `est` of virtual service to the tenant it went to,
//! and the non-empty tenant with the least attained virtual service is
//! served next (ties by tenant index), so long-run service shares converge
//! to equal shares. A tenant that was idle re-enters at the current virtual
//! time — idling never banks credit.
//!
//! With admission disabled the same structure runs in **FIFO policy
//! mode**: dispatch strictly by `seq`, which reproduces the PR 7
//! single-FIFO server exactly — the scheduler replaces the FIFO
//! structurally, while the legacy behavior stays byte-identical.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use crate::workload::Template;

/// One admitted query waiting for dispatch. The `Ord` impl follows field
/// order (`seq` first), but the scheduler only ever orders entries by their
/// explicit `(deadline, seq)` EDF key.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub struct QueuedQuery {
    /// Stream-wide query id (also the arrival-order sequence number).
    pub seq: u64,
    /// Index into the run's tenant list.
    pub tenant: usize,
    /// Template to run.
    pub template: Template,
    /// Arrival instant (virtual ns).
    pub arrival_ns: u64,
    /// Absolute deadline (virtual ns; `u64::MAX` when admission is off).
    pub deadline_ns: u64,
    /// Calibrated clean-run service estimate (virtual ns).
    pub est_ns: u64,
}

/// EDF key: earliest deadline first, ties by arrival sequence.
type EdfKey = (u64, u64);

#[derive(Debug, Default)]
struct TenantLane {
    /// Min-heap over `(deadline, seq)`, carrying the queued query.
    heap: BinaryHeap<Reverse<(EdfKey, QueuedQuery)>>,
    /// Attained virtual service: advances by `est` per grant.
    vfinish: f64,
}

/// The dispatch queue. See the module docs for the policy.
#[derive(Debug)]
pub struct Scheduler {
    lanes: Vec<TenantLane>,
    /// Global virtual time: the largest virtual start granted so far.
    /// Lanes going from idle to busy re-enter at this value.
    vtime: f64,
    len: usize,
    /// FIFO policy mode: dispatch strictly by `seq` (admission disabled).
    fifo: bool,
}

impl Scheduler {
    /// A scheduler over `tenants` lanes. `fifo: true` ignores deadlines
    /// and dispatches in arrival order.
    pub fn new(tenants: usize, fifo: bool) -> Scheduler {
        assert!(tenants > 0, "need at least one tenant lane");
        Scheduler {
            lanes: (0..tenants).map(|_| TenantLane::default()).collect(),
            vtime: 0.0,
            len: 0,
            fifo,
        }
    }

    /// Queued queries across all tenants.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether nothing is queued.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Enqueues an admitted query.
    pub fn push(&mut self, q: QueuedQuery) {
        let lane = &mut self.lanes[q.tenant];
        if lane.heap.is_empty() {
            // Idle → busy: re-enter at the current virtual time so idle
            // periods never bank service credit.
            lane.vfinish = lane.vfinish.max(self.vtime);
        }
        lane.heap.push(Reverse(((q.deadline_ns, q.seq), q)));
        self.len += 1;
    }

    /// Sum of service estimates of queued same-tenant queries that EDF
    /// will dispatch **before** a query with key `(deadline_ns, seq)` —
    /// the tenant-local backlog term of the admission feasibility bound.
    pub fn backlog_before(&self, tenant: usize, deadline_ns: u64, seq: u64) -> u64 {
        self.lanes[tenant]
            .heap
            .iter()
            .filter(|Reverse((key, _))| *key < (deadline_ns, seq))
            .map(|Reverse((_, q))| q.est_ns)
            .sum()
    }

    /// Dispatches the next query, or `None` when idle.
    pub fn pop(&mut self) -> Option<QueuedQuery> {
        if self.len == 0 {
            return None;
        }
        let lane_idx = if self.fifo {
            // FIFO policy: the lane whose head has the smallest seq.
            self.lanes
                .iter()
                .enumerate()
                .filter_map(|(i, l)| l.heap.peek().map(|Reverse((key, _))| (key.1, i)))
                .min()
                .map(|(_, i)| i)?
        } else {
            // Least attained virtual service wins (ties by lane index).
            let mut best: Option<(f64, usize)> = None;
            for (i, lane) in self.lanes.iter().enumerate() {
                if lane.heap.is_empty() {
                    continue;
                }
                if best.is_none_or(|(v, _)| lane.vfinish < v) {
                    best = Some((lane.vfinish, i));
                }
            }
            best.map(|(_, i)| i)?
        };
        let lane = &mut self.lanes[lane_idx];
        let Reverse((_, q)) = lane.heap.pop()?;
        self.len -= 1;
        if !self.fifo {
            let start = lane.vfinish;
            lane.vfinish = start + q.est_ns as f64;
            self.vtime = self.vtime.max(start);
        }
        Some(q)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn q(seq: u64, tenant: usize, deadline_ns: u64, est_ns: u64) -> QueuedQuery {
        QueuedQuery {
            seq,
            tenant,
            template: Template::Ld,
            arrival_ns: 0,
            deadline_ns,
            est_ns,
        }
    }

    #[test]
    fn fifo_mode_dispatches_in_arrival_order_across_tenants() {
        let mut s = Scheduler::new(2, true);
        for seq in [3u64, 0, 2, 1] {
            s.push(q(seq, (seq % 2) as usize, u64::MAX, 100));
        }
        let order: Vec<u64> = std::iter::from_fn(|| s.pop()).map(|q| q.seq).collect();
        assert_eq!(order, vec![0, 1, 2, 3]);
        assert!(s.is_empty());
    }

    #[test]
    fn edf_orders_within_a_tenant() {
        let mut s = Scheduler::new(1, false);
        s.push(q(0, 0, 500, 10));
        s.push(q(1, 0, 100, 10));
        s.push(q(2, 0, 100, 10)); // same deadline: seq breaks the tie
        s.push(q(3, 0, 300, 10));
        let order: Vec<u64> = std::iter::from_fn(|| s.pop()).map(|q| q.seq).collect();
        assert_eq!(order, vec![1, 2, 3, 0]);
    }

    #[test]
    fn equal_weights_interleave_fairly() {
        let mut s = Scheduler::new(2, false);
        for seq in 0..8 {
            s.push(q(seq, (seq % 2) as usize, u64::MAX, 100));
        }
        let tenants: Vec<usize> = std::iter::from_fn(|| s.pop()).map(|q| q.tenant).collect();
        let t0 = tenants.iter().filter(|&&t| t == 0).count();
        assert_eq!(t0, 4);
    }

    #[test]
    fn backlog_counts_only_earlier_edf_keys_of_the_same_tenant() {
        let mut s = Scheduler::new(2, false);
        s.push(q(0, 0, 100, 10));
        s.push(q(1, 0, 300, 20));
        s.push(q(2, 1, 50, 40)); // other tenant: not counted
        assert_eq!(s.backlog_before(0, 200, 5), 10);
        assert_eq!(s.backlog_before(0, 400, 5), 30);
        assert_eq!(s.backlog_before(0, 300, 0), 10, "seq tiebreak respected");
        assert_eq!(s.backlog_before(1, u64::MAX, u64::MAX), 40);
    }

    #[test]
    fn idle_tenant_reenters_at_current_virtual_time() {
        let mut s = Scheduler::new(2, false);
        // Tenant 0 works alone for a while…
        for seq in 0..6 {
            s.push(q(seq, 0, u64::MAX, 100));
        }
        for _ in 0..6 {
            s.pop();
        }
        // …then tenant 1 shows up. It must not get 6 back-to-back grants
        // out of banked credit: service alternates immediately.
        for seq in 6..12 {
            s.push(q(seq, (seq % 2) as usize, u64::MAX, 100));
        }
        let tenants: Vec<usize> = (0..4).filter_map(|_| s.pop()).map(|q| q.tenant).collect();
        assert_eq!(
            tenants.iter().filter(|&&t| t == 1).count(),
            2,
            "{tenants:?}"
        );
    }
}
