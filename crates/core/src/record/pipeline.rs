//! Worker-core scheduling for the simulated-time pipeline.
//!
//! With spare cores, each epoch's epoch-parallel execution is a task that
//! becomes ready when the thread-parallel run finishes producing the epoch
//! (its end checkpoint carries the boundary targets), occupies one worker
//! core for its single-CPU duration, and commits in epoch order. This tiny
//! scheduler computes those times; the coordinator derives the recorded
//! end-to-end runtime from the last commit.

/// A pool of identical worker cores.
#[derive(Debug, Clone)]
pub struct WorkerPool {
    free_at: Vec<u64>,
}

impl WorkerPool {
    /// Creates a pool of `workers` cores (at least one).
    pub fn new(workers: usize) -> Self {
        WorkerPool {
            free_at: vec![0; workers.max(1)],
        }
    }

    /// Schedules a task that becomes ready at `ready` and runs for
    /// `duration`; returns its completion time.
    pub fn schedule(&mut self, ready: u64, duration: u64) -> u64 {
        let idx = self
            .free_at
            .iter()
            .enumerate()
            .min_by_key(|(i, &t)| (t, *i))
            .map(|(i, _)| i)
            .expect("pool is never empty");
        self.free_at[idx] = ready.max(self.free_at[idx]) + duration;
        self.free_at[idx]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_worker_serializes() {
        let mut p = WorkerPool::new(1);
        assert_eq!(p.schedule(0, 10), 10);
        assert_eq!(p.schedule(0, 10), 20);
        assert_eq!(p.schedule(100, 5), 105);
    }

    #[test]
    fn parallel_workers_overlap() {
        let mut p = WorkerPool::new(2);
        assert_eq!(p.schedule(0, 10), 10);
        assert_eq!(p.schedule(0, 10), 10);
        assert_eq!(p.schedule(0, 10), 20); // third waits for a core
    }

    #[test]
    fn zero_workers_clamped_to_one() {
        let mut p = WorkerPool::new(0);
        assert_eq!(p.schedule(5, 5), 10);
    }

    #[test]
    fn steady_pipeline_keeps_up_when_capacity_matches() {
        // N-per-epoch work on N workers arriving every epoch: no backlog
        // growth (the spare-cores regime of the paper).
        let mut p = WorkerPool::new(4);
        let mut last = 0;
        for epoch in 0..100u64 {
            let ready = epoch * 100;
            // 4 tasks per window of 400 worker-cycles capacity.
            last = p.schedule(ready, 95);
        }
        assert!(last < 100 * 100 + 400, "backlog grew: {last}");
    }
}
