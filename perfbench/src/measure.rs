//! The closed measurement loop: one op at a time, each timed around the
//! program call and checked after the clock stops.

use std::hint::black_box;
use std::time::{Duration, Instant};

use crate::workloads::Workload;

/// What a timed phase measured.
#[derive(Debug, Default, Clone)]
pub struct LoopStats {
    /// Wall time of every op, milliseconds, in issue order.
    pub op_ms: Vec<f64>,
    /// Ops whose output the oracle rejected.
    pub failed: usize,
    /// The first rejection, for the log.
    pub first_error: Option<String>,
}

impl LoopStats {
    /// Ops attempted.
    pub fn attempted(&self) -> usize {
        self.op_ms.len()
    }

    /// Counts one op's check result.
    pub fn record(&mut self, ms: f64, verdict: Result<(), String>) {
        self.op_ms.push(ms);
        if let Err(e) = verdict {
            self.failed += 1;
            self.first_error.get_or_insert(e);
        }
    }
}

/// How long a timed phase runs.
#[derive(Debug, Clone, Copy)]
pub struct Budget {
    /// Stop issuing ops after this much wall time…
    pub seconds: f64,
    /// …but not before this many ops have run.
    pub min_ops: usize,
}

/// Runs ops `first, first + 1, …` until the budget is spent and the last
/// cycle of the mix is complete. `tamper` sees each output between the op
/// and its check (production passes a no-op; the tests corrupt one).
pub fn timed_loop<W: Workload>(
    w: &mut W,
    first: usize,
    budget: Budget,
    mut tamper: impl FnMut(usize, &mut W::Out),
) -> LoopStats {
    let mut stats = LoopStats::default();
    let cycle = w.cycle_len();
    let start = Instant::now();
    let limit = Duration::from_secs_f64(budget.seconds);
    let mut i = first;
    while start.elapsed() < limit
        || stats.attempted() < budget.min_ops
        || !(i - first).is_multiple_of(cycle)
    {
        let t0 = Instant::now();
        let mut out = w.op(black_box(i));
        let ms = t0.elapsed().as_secs_f64() * 1e3;
        tamper(i, &mut out);
        let verdict = w.check(i, &out);
        black_box(out);
        stats.record(ms, verdict);
        i += 1;
    }
    stats
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads::{CpuFastId, CpuLd, SimServe};

    fn budget(ops: usize) -> Budget {
        Budget {
            seconds: 0.0,
            min_ops: ops,
        }
    }

    #[test]
    fn a_corrupted_gamma_is_counted_as_failed() {
        let mut w = CpuLd::setup(7, 40, 300);
        w.prepare_oracle();
        let stats = timed_loop(&mut w, 1, budget(5), |i, g| {
            if i == 3 {
                g.add(2, 5, 1);
            }
        });
        assert_eq!(stats.attempted(), 5);
        assert_eq!(stats.failed, 1);
        assert!(stats.first_error.unwrap().contains("digest"));
    }

    #[test]
    fn a_wrong_identity_is_counted_as_failed() {
        let mut w = CpuFastId::setup(7, 300, 128);
        w.prepare_oracle();
        let clean = timed_loop(&mut w, 1, budget(2), |_, _| {});
        assert_eq!(clean.failed, 0);
        // Zero one non-planted column of every row: the argmin moves there
        // and the digest no longer matches either.
        let truth = w.data.truth.clone();
        let decoy = (0..300).find(|c| !truth.contains(&Some(*c))).unwrap();
        let stats = timed_loop(&mut w, 1, budget(3), |i, g| {
            if i == 2 {
                for q in 0..g.rows() {
                    g.set(q, decoy, 0);
                }
            }
        });
        assert_eq!(stats.failed, 1);
    }

    #[test]
    fn a_faulted_or_diverging_replay_is_counted_as_failed() {
        let mut w = SimServe::setup(5, 24);
        w.prepare_oracle();
        let stats = timed_loop(&mut w, 0, budget(4), |i, r| match i {
            1 => r.outcomes.fault = 1,
            2 => r.p99_all_ns += 1,
            _ => {}
        });
        assert_eq!(stats.attempted(), 4);
        assert_eq!(stats.failed, 2);
    }

    #[test]
    fn the_loop_finishes_the_cycle_it_started() {
        struct Cycle(usize);
        impl Workload for Cycle {
            type Out = ();
            fn cycle_len(&self) -> usize {
                4
            }
            fn op(&mut self, _i: usize) {
                self.0 += 1;
            }
            fn call(&self) -> &'static str {
                "test"
            }
            fn prepare_oracle(&mut self) {}
            fn check(&mut self, _i: usize, _out: &()) -> Result<(), String> {
                Ok(())
            }
            fn queries(&self, _i: usize) -> f64 {
                1.0
            }
            fn word_ops(&self, _i: usize) -> f64 {
                1.0
            }
            fn virt(&self) -> crate::workloads::Virt {
                unreachable!()
            }
        }
        let mut w = Cycle(0);
        let stats = timed_loop(&mut w, 1, budget(5), |_, _| {});
        assert_eq!(stats.attempted(), 8);
        assert_eq!(w.0, 8);
    }
}
