//! Recorder statistics: the numbers behind every table and figure.

/// Per-worker busy-time slots tracked in [`WallClockStats`]; workers beyond
/// this fold into the last slot.
pub const MAX_TRACKED_WORKERS: usize = 8;

/// Speculation-depth histogram buckets in [`WallClockStats`]: bucket `d`
/// counts submissions made with `d` epochs already in flight; depths beyond
/// the last bucket fold into it.
pub const DEPTH_BUCKETS: usize = 9;

/// Real (host) wall-clock measurements of one recording run.
///
/// Unlike the rest of [`RecorderStats`] these are *measurements of the
/// host*, not of the modeled machine: they differ run to run with OS
/// scheduling. To keep whole-`RecorderStats` equality meaningful for the
/// deterministic model (`recording_is_deterministic_given_seed` asserts
/// `a.stats == b.stats`), this struct compares equal to every other
/// instance.
#[derive(Debug, Clone, Copy, Default)]
pub struct WallClockStats {
    /// Wall-clock nanoseconds of the recording loop (boot to final commit).
    pub wall_ns: u64,
    /// Verify worker threads the run started (0: each epoch was verified
    /// inline, in lockstep with the thread-parallel run).
    pub workers: u64,
    /// Nanoseconds each worker spent executing verify jobs (including jobs
    /// later cancelled); workers beyond [`MAX_TRACKED_WORKERS`] accumulate
    /// into the last slot.
    pub worker_busy_ns: [u64; MAX_TRACKED_WORKERS],
    /// Histogram of speculation depth at submit time: bucket `d` counts
    /// epochs the front end submitted for verification while `d` earlier
    /// epochs were still in flight. Without workers every epoch lands in
    /// bucket 0.
    pub depth_histogram: [u64; DEPTH_BUCKETS],
    /// Speculative epochs cancelled by divergences (work discarded beyond
    /// the diverging epoch: both queued jobs and the not-yet-verified
    /// speculation the front-end had already run).
    pub cancelled_epochs: u64,
}

impl WallClockStats {
    /// Total worker busy nanoseconds.
    pub fn busy_ns(&self) -> u64 {
        self.worker_busy_ns.iter().sum()
    }

    /// Fraction of worker·wall capacity spent busy (0.0 without workers).
    pub fn utilization(&self) -> f64 {
        if self.workers == 0 || self.wall_ns == 0 {
            return 0.0;
        }
        self.busy_ns() as f64 / (self.wall_ns as f64 * self.workers as f64)
    }
}

/// Wall-clock readings are nondeterministic host measurements; two runs of
/// the same seed must still satisfy `a.stats == b.stats`.
impl PartialEq for WallClockStats {
    fn eq(&self, _other: &Self) -> bool {
        true
    }
}

/// Measurements accumulated while recording one execution.
///
/// Recording executes the guest only as recording needs (thread-parallel
/// plus epoch-parallel); it never measures the native baseline. Callers
/// that report a ratio against native runtime measure it themselves with
/// [`crate::measure_native`] and pass the cycle count to
/// [`RecorderStats::overhead`] and [`RecorderStats::log_bytes_per_mcycle`].
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct RecorderStats {
    /// Epochs recorded (committed + recovered).
    pub epochs: u64,
    /// Epochs that verified cleanly on the first try.
    pub committed: u64,
    /// Divergences detected (each triggers a live re-execution).
    pub divergences: u64,
    /// Guest instructions executed by the thread-parallel run.
    pub tp_instructions: u64,
    /// Pure thread-parallel execution cycles (no recording costs): the
    /// timeline the thread-parallel side would take if recording were free.
    pub tp_exec_cycles: u64,
    /// Cycles charged for checkpoints (COW page copies).
    pub checkpoint_cycles: u64,
    /// Cycles charged for log writes.
    pub log_write_cycles: u64,
    /// Single-CPU cycles consumed by all epoch-parallel runs (worker
    /// occupancy).
    pub ep_cycles: u64,
    /// Cycles spent re-executing divergent epochs live.
    pub recovery_cycles: u64,
    /// Thread-parallel work discarded by divergences (speculation beyond
    /// the divergent epoch).
    pub wasted_tp_cycles: u64,
    /// Schedule-log bytes (encoded).
    pub schedule_bytes: u64,
    /// Syscall-log bytes (encoded).
    pub syscall_bytes: u64,
    /// Pages dirtied across all epochs (checkpoint COW traffic).
    pub dirty_pages: u64,
    /// Pages the incremental state digest actually re-hashed across all
    /// retiring epochs (the epoch's dirty pages). Modeled at the in-order
    /// retire points, so the count is deterministic and identical across
    /// sequential/pipelined/sharded runs — unlike the live per-memory
    /// counters (`dp_vm::memory::HashStats`), which depend on which clone
    /// digests a shared page first.
    pub hashed_pages: u64,
    /// Resident pages the incremental digest did *not* have to re-hash at
    /// retire time (resident minus dirty, per epoch) — the work a full
    /// rehash would have done. Modeled; deterministic like `hashed_pages`.
    pub hash_skipped_pages: u64,
    /// End-to-end recorded runtime in simulated cycles (the uniparallel
    /// pipeline's completion time).
    pub recorded_cycles: u64,
    /// Epochs recorded in degraded serialized (uniprocessor-style) mode
    /// after the divergence rate exceeded the coordinator's threshold.
    pub serialized_epochs: u64,
    /// Epoch-parallel worker executions retried after a (caught) panic.
    pub worker_retries: u64,
    /// Injected I/O faults delivered to the guest on the committed
    /// timeline (syscall failures, short reads, connection resets).
    pub io_faults: u64,
    /// Real wall-clock measurements (host time; excluded from equality).
    pub wall: WallClockStats,
}

impl RecorderStats {
    /// Total log bytes.
    pub fn log_bytes(&self) -> u64 {
        self.schedule_bytes + self.syscall_bytes
    }

    /// Recording overhead relative to a native runtime of `native_cycles`
    /// (from [`crate::measure_native`]): `recorded/native - 1`, or 0.0
    /// when `native_cycles` is 0. The paper's headline metric ("15% with
    /// two worker threads").
    pub fn overhead(&self, native_cycles: u64) -> f64 {
        if native_cycles == 0 {
            return 0.0;
        }
        self.recorded_cycles as f64 / native_cycles as f64 - 1.0
    }

    /// Log production rate in bytes per million native cycles (the
    /// analogue of the paper's log-size-per-second table), or 0.0 when
    /// `native_cycles` is 0.
    pub fn log_bytes_per_mcycle(&self, native_cycles: u64) -> f64 {
        if native_cycles == 0 {
            return 0.0;
        }
        self.log_bytes() as f64 * 1e6 / native_cycles as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn overhead_math() {
        let s = RecorderStats {
            recorded_cycles: 115,
            ..Default::default()
        };
        assert!((s.overhead(100) - 0.15).abs() < 1e-9);
        assert_eq!(s.overhead(0), 0.0);
        let zero = RecorderStats::default();
        assert_eq!(zero.overhead(0), 0.0);
        assert_eq!(zero.log_bytes_per_mcycle(0), 0.0);
    }

    #[test]
    fn wall_clock_stats_are_excluded_from_equality() {
        let a = RecorderStats {
            wall: WallClockStats {
                wall_ns: 123,
                workers: 4,
                ..Default::default()
            },
            ..Default::default()
        };
        let b = RecorderStats::default();
        assert_eq!(a, b, "wall measurements must not break model equality");
    }

    #[test]
    fn utilization_math() {
        let mut w = WallClockStats {
            wall_ns: 1_000,
            workers: 2,
            ..Default::default()
        };
        w.worker_busy_ns[0] = 600;
        w.worker_busy_ns[1] = 400;
        assert!((w.utilization() - 0.5).abs() < 1e-9);
        assert_eq!(WallClockStats::default().utilization(), 0.0);
    }

    #[test]
    fn log_byte_accounting() {
        let s = RecorderStats {
            schedule_bytes: 10,
            syscall_bytes: 32,
            ..Default::default()
        };
        assert_eq!(s.log_bytes(), 42);
        assert!((s.log_bytes_per_mcycle(1_000_000) - 42.0).abs() < 1e-9);
        assert_eq!(s.log_bytes_per_mcycle(0), 0.0);
    }
}
