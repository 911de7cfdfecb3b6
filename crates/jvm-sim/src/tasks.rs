//! The `GCTaskQueue`: dynamic work assignment among GC workers.
//!
//! HotSpot's PS collector pushes root-scanning and stealing tasks onto a
//! central queue guarded by `GCTaskManager`; workers pull tasks so faster
//! threads do more work (Figure 4 of the paper). We reproduce the queue
//! and use greedy list scheduling to compute the *imbalance factor* of a
//! collection: how much longer the parallel phase runs than perfectly
//! divisible work would, given the task granularity and worker count.
//! Fine-grained stealing keeps the factor near 1; a worker count larger
//! than the task count leaves workers idle, which is one of the two
//! penalties of over-threading (the other being CPU contention, modelled
//! in [`crate::gc`]).

use arv_sim_core::SimDuration;
use std::collections::VecDeque;

/// One unit of GC work.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GcTask {
    /// What kind of work this task is.
    pub kind: GcTaskKind,
    /// CPU cost of the task.
    pub cost: SimDuration,
}

/// Task kinds of a PS minor collection (Figure 4).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GcTaskKind {
    /// `OldToYoungRootsTask`: scan old-to-young card-table stripes.
    OldToYoungRoots,
    /// `ScavengeRootsTask`: scan VM/thread roots.
    ScavengeRoots,
    /// `StealTask`: terminate-and-steal phase.
    Steal,
    /// Reference processing proxy task.
    RefProc,
}

/// The central task queue (`GCTaskQueue` + `GCTaskManager` monitor).
#[derive(Debug, Clone, Default)]
pub struct GcTaskQueue {
    tasks: VecDeque<GcTask>,
}

impl GcTaskQueue {
    /// An empty queue.
    pub fn new() -> GcTaskQueue {
        GcTaskQueue::default()
    }

    /// Refill for a new collection (the queue is drained to empty at the
    /// end of each GC, when workers are put back to sleep).
    pub fn refill(&mut self, tasks: impl IntoIterator<Item = GcTask>) {
        debug_assert!(self.tasks.is_empty(), "refill of a non-empty queue");
        self.tasks.extend(tasks);
    }

    /// A worker fetches the next task (dynamic work assignment).
    pub fn fetch(&mut self) -> Option<GcTask> {
        self.tasks.pop_front()
    }
}

/// Decompose `parallel_work` into the task set of one minor collection
/// (Figure 4): `stripes` old-to-young stripes, a handful of root tasks,
/// one reference-processing proxy task, and one steal task per worker.
pub fn decompose_minor(parallel_work: SimDuration, stripes: u32, workers: u32) -> Vec<GcTask> {
    let stripes = stripes.max(1);
    // Roots, reference processing, and stealing are small, roughly fixed
    // shares of the work.
    let root_share = parallel_work.mul_f64(0.05);
    let refproc_share = parallel_work.mul_f64(0.02);
    let steal_share = parallel_work.mul_f64(0.05);
    let stripe_share = parallel_work.saturating_sub(root_share + refproc_share + steal_share);

    let mut tasks = Vec::with_capacity(stripes as usize + 5 + workers as usize);
    for _ in 0..stripes {
        tasks.push(GcTask {
            kind: GcTaskKind::OldToYoungRoots,
            cost: stripe_share / u64::from(stripes),
        });
    }
    for _ in 0..4 {
        tasks.push(GcTask {
            kind: GcTaskKind::ScavengeRoots,
            cost: root_share / 4,
        });
    }
    // PSRefProcTaskProxy: reference processing runs as one queue task.
    tasks.push(GcTask {
        kind: GcTaskKind::RefProc,
        cost: refproc_share,
    });
    for _ in 0..workers.max(1) {
        tasks.push(GcTask {
            kind: GcTaskKind::Steal,
            cost: steal_share / u64::from(workers.max(1)),
        });
    }
    tasks
}

/// Greedy list scheduling of the queue onto `workers` workers: each idle
/// worker fetches the next task. Returns the makespan (the parallel-phase
/// wall CPU time with perfectly overlapping workers).
pub fn makespan(queue: &mut GcTaskQueue, workers: u32) -> SimDuration {
    let workers = workers.max(1) as usize;
    let mut loads = vec![SimDuration::ZERO; workers];
    while let Some(task) = queue.fetch() {
        // The earliest-free worker fetches (dynamic assignment).
        let min = loads
            .iter_mut()
            .min_by_key(|l| l.as_micros())
            .expect("at least one worker");
        *min += task.cost;
    }
    loads.into_iter().max().unwrap_or(SimDuration::ZERO)
}

/// Imbalance factor for `parallel_work` split over `stripes` stripes on
/// `workers` workers: `makespan / (work / workers) ≥ 1`.
pub fn imbalance_factor(parallel_work: SimDuration, stripes: u32, workers: u32) -> f64 {
    if parallel_work.is_zero() || workers == 0 {
        return 1.0;
    }
    let mut q = GcTaskQueue::new();
    q.refill(decompose_minor(parallel_work, stripes, workers));
    let span = makespan(&mut q, workers);
    let ideal = parallel_work / u64::from(workers);
    if ideal.is_zero() {
        1.0
    } else {
        (span.as_micros() as f64 / ideal.as_micros() as f64).max(1.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const W: SimDuration = SimDuration::from_millis(100);

    #[test]
    fn queue_fifo_semantics() {
        let mut q = GcTaskQueue::new();
        q.refill(decompose_minor(W, 8, 4));
        assert!(!q.is_empty());
        let first = q.fetch().unwrap();
        assert_eq!(first.kind, GcTaskKind::OldToYoungRoots);
        let total_before = q.total_cost();
        q.fetch();
        assert!(q.total_cost() < total_before);
    }

    #[test]
    fn decomposition_preserves_total_work() {
        let tasks = decompose_minor(W, 64, 8);
        let total: SimDuration = tasks.iter().map(|t| t.cost).sum();
        // Integer division loses at most a few microseconds.
        assert!(W.as_micros() - total.as_micros() < 100);
    }

    #[test]
    fn decomposition_includes_every_figure4_task_kind() {
        let tasks = decompose_minor(W, 16, 4);
        for kind in [
            GcTaskKind::OldToYoungRoots,
            GcTaskKind::ScavengeRoots,
            GcTaskKind::RefProc,
            GcTaskKind::Steal,
        ] {
            assert!(
                tasks.iter().any(|t| t.kind == kind),
                "missing task kind {kind:?}"
            );
        }
        assert_eq!(
            tasks
                .iter()
                .filter(|t| t.kind == GcTaskKind::RefProc)
                .count(),
            1
        );
    }

    #[test]
    fn single_worker_makespan_is_total_work() {
        let mut q = GcTaskQueue::new();
        let tasks = decompose_minor(W, 16, 1);
        let total: SimDuration = tasks.iter().map(|t| t.cost).sum();
        q.refill(tasks);
        assert_eq!(makespan(&mut q, 1), total);
    }

    #[test]
    fn fine_grained_tasks_balance_well() {
        let f = imbalance_factor(W, 64, 4);
        assert!(f < 1.10, "64 stripes over 4 workers should balance: {f}");
    }

    #[test]
    fn more_workers_than_tasks_wastes_them() {
        // 4 stripes cannot occupy 16 workers.
        let f = imbalance_factor(W, 4, 16);
        assert!(f > 2.0, "expected heavy imbalance, got {f}");
    }

    #[test]
    fn makespan_never_below_ideal() {
        for workers in [1u32, 2, 3, 5, 8, 13, 20] {
            for stripes in [1u32, 4, 16, 64] {
                let f = imbalance_factor(W, stripes, workers);
                assert!(f >= 1.0, "workers={workers} stripes={stripes}: {f}");
            }
        }
    }

    #[test]
    fn zero_work_is_neutral() {
        assert_eq!(imbalance_factor(SimDuration::ZERO, 8, 4), 1.0);
    }

    impl GcTaskQueue {
        /// Whether there are no entries.
        fn is_empty(&self) -> bool {
            self.tasks.is_empty()
        }

        /// Total CPU cost of the queued tasks.
        fn total_cost(&self) -> SimDuration {
            self.tasks.iter().map(|t| t.cost).sum()
        }
    }
}
