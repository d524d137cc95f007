//! Recorder configuration.

use crate::faults::FaultPlan;
use std::fmt;

/// Hard ceiling on spare verify workers: each one is a real OS thread when
/// recording is pipelined, so an absurd count is a typo, not a request.
pub const MAX_SPARE_WORKERS: usize = 512;

/// A structurally invalid recorder configuration, caught before any guest
/// boots. The CLI and the `dpd` service surface these as typed errors
/// instead of letting the coordinator silently reinterpret (or panic on)
/// degenerate worker counts.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ConfigError {
    /// `cpus == 0`: there is no thread-parallel execution to record.
    NoCpus,
    /// `pipelined` was requested with zero spare workers. Pipelining *is*
    /// the spare-worker pool; without workers the request is contradictory
    /// (the library would silently record with the same loop with no
    /// worker threads, which is almost never what the caller meant).
    PipelinedWithoutWorkers,
    /// More spare workers than [`MAX_SPARE_WORKERS`]: each is a real OS
    /// thread when recording is pipelined.
    TooManyWorkers {
        /// The requested worker count.
        workers: usize,
    },
}

impl fmt::Display for ConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ConfigError::NoCpus => write!(f, "at least one CPU is required"),
            ConfigError::PipelinedWithoutWorkers => write!(
                f,
                "pipelined recording requires at least one spare worker (got --workers 0)"
            ),
            ConfigError::TooManyWorkers { workers } => write!(
                f,
                "{workers} spare workers exceed the maximum of {MAX_SPARE_WORKERS}"
            ),
        }
    }
}

impl std::error::Error for ConfigError {}

/// Validates a `(cpus, spare_workers, pipelined)` triple *before* a
/// [`DoublePlayConfig`] is constructed (construction itself asserts on
/// zero CPUs, so callers handling untrusted input check here first).
///
/// # Errors
///
/// The violated [`ConfigError`] rule, most fundamental first.
pub fn validate_worker_counts(
    cpus: usize,
    spare_workers: usize,
    pipelined: bool,
) -> Result<(), ConfigError> {
    if cpus == 0 {
        return Err(ConfigError::NoCpus);
    }
    if spare_workers > MAX_SPARE_WORKERS {
        return Err(ConfigError::TooManyWorkers {
            workers: spare_workers,
        });
    }
    if pipelined && spare_workers == 0 {
        return Err(ConfigError::PipelinedWithoutWorkers);
    }
    Ok(())
}

/// Configuration for a DoublePlay recording run.
///
/// Construct with [`DoublePlayConfig::new`] (worker-thread count) and adjust
/// with the builder-style setters:
///
/// ```
/// use dp_core::DoublePlayConfig;
/// let config = DoublePlayConfig::new(4)
///     .epoch_cycles(500_000)
///     .spare_workers(4)
///     .adaptive_epochs(true);
/// assert_eq!(config.cpus, 4);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DoublePlayConfig {
    /// CPUs used by the thread-parallel execution (the application's worker
    /// parallelism, "2 worker threads" / "4 worker threads" in the paper).
    pub cpus: usize,
    /// Extra cores available for epoch-parallel execution. The paper's
    /// headline numbers use "spare cores" (`spare_workers == cpus`); setting
    /// `0` models the no-spare-cores configuration where both executions
    /// compete for the same CPUs.
    pub spare_workers: usize,
    /// Epoch length in thread-parallel cycles.
    pub epoch_cycles: u64,
    /// Scheduling quantum (instructions) of the epoch-parallel timeslicer.
    /// This bounds schedule-log density: one log entry per slice.
    pub ep_quantum: u64,
    /// Base scheduling quantum (instructions) of the thread-parallel run.
    pub tp_quantum: u64,
    /// Max random jitter added to thread-parallel quanta. This models
    /// scheduler/timing nondeterminism: it is drawn from the *hidden* seed,
    /// which the recorder must not rely on.
    pub tp_jitter: u64,
    /// Seed of the hidden nondeterminism source.
    pub hidden_seed: u64,
    /// Adapt epoch length to divergence rate (shrink on rollback, grow after
    /// sustained clean commits), as the paper's epoch-sizing discussion
    /// describes.
    pub adaptive: bool,
    /// Use forward recovery on divergence (adopt the epoch-parallel state
    /// and restart only the thread-parallel side). When disabled, a
    /// divergence additionally pays for re-running the thread-parallel
    /// epoch, modelling full rollback of both executions.
    pub forward_recovery: bool,
    /// Hard bound on guest instructions per recording.
    pub max_instructions: u64,
    /// Deterministic fault-injection plan (default: no faults).
    pub faults: FaultPlan,
    /// Run the recorder as a real multithreaded pipeline: the
    /// thread-parallel front-end speculates up to `spare_workers` epochs
    /// ahead while OS-thread verify workers check epochs out of order and
    /// a commit stage retires them strictly in order. Without it the same
    /// loop starts no worker threads and verifies each epoch inline. Both
    /// produce byte-identical recordings — this knob changes wall-clock
    /// execution strategy only, so it is deliberately **not** part of the
    /// wire encoding (see the hand-written [`Wire`] impl below).
    ///
    /// [`Wire`]: dp_support::wire::Wire
    pub pipelined: bool,
}

impl DoublePlayConfig {
    /// A configuration for `cpus` worker threads with paper-like defaults
    /// and `cpus` spare worker cores (the "spare cores" setup).
    pub fn new(cpus: usize) -> Self {
        assert!(cpus >= 1, "at least one CPU required");
        DoublePlayConfig {
            cpus,
            spare_workers: cpus,
            epoch_cycles: 400_000,
            ep_quantum: 20_000,
            tp_quantum: 10_000,
            tp_jitter: 7_000,
            hidden_seed: 0x5eed_0fd0_0b1e,
            adaptive: false,
            forward_recovery: true,
            max_instructions: 2_000_000_000,
            faults: FaultPlan::none(),
            pipelined: false,
        }
    }

    /// Sets the epoch length in cycles.
    pub fn epoch_cycles(mut self, cycles: u64) -> Self {
        assert!(cycles > 0);
        self.epoch_cycles = cycles;
        self
    }

    /// Sets the number of spare worker cores (0 = share cores).
    pub fn spare_workers(mut self, workers: usize) -> Self {
        self.spare_workers = workers;
        self
    }

    /// Sets the epoch-parallel scheduling quantum.
    pub fn ep_quantum(mut self, quantum: u64) -> Self {
        assert!(quantum > 0);
        self.ep_quantum = quantum;
        self
    }

    /// Sets the hidden nondeterminism seed.
    pub fn hidden_seed(mut self, seed: u64) -> Self {
        self.hidden_seed = seed;
        self
    }

    /// Enables or disables adaptive epoch sizing.
    pub fn adaptive_epochs(mut self, on: bool) -> Self {
        self.adaptive = on;
        self
    }

    /// Enables or disables forward recovery.
    pub fn forward_recovery(mut self, on: bool) -> Self {
        self.forward_recovery = on;
        self
    }

    /// Sets the instruction budget.
    pub fn max_instructions(mut self, max: u64) -> Self {
        self.max_instructions = max;
        self
    }

    /// Sets the fault-injection plan.
    pub fn faults(mut self, plan: FaultPlan) -> Self {
        self.faults = plan;
        self
    }

    /// Enables or disables the real multithreaded recording pipeline.
    pub fn pipelined(mut self, on: bool) -> Self {
        self.pipelined = on;
        self
    }

    /// Checks the configuration for degenerate worker counts
    /// ([`validate_worker_counts`]). Call this on any configuration built
    /// from untrusted input (CLI flags, service requests).
    ///
    /// # Errors
    ///
    /// The violated [`ConfigError`] rule.
    pub fn validate(&self) -> Result<(), ConfigError> {
        validate_worker_counts(self.cpus, self.spare_workers, self.pipelined)
    }
}

// Hand-written (not `impl_wire_struct!`) because `pipelined` must stay out
// of the encoding: `RecordingMeta` embeds the config, and a pipelined run
// must produce a recording byte-identical to a sequential one. Decoding
// always yields `pipelined: false`; replay never pipelines.
impl dp_support::wire::Wire for DoublePlayConfig {
    fn put(&self, out: &mut Vec<u8>) {
        self.cpus.put(out);
        self.spare_workers.put(out);
        self.epoch_cycles.put(out);
        self.ep_quantum.put(out);
        self.tp_quantum.put(out);
        self.tp_jitter.put(out);
        self.hidden_seed.put(out);
        self.adaptive.put(out);
        self.forward_recovery.put(out);
        self.max_instructions.put(out);
        self.faults.put(out);
    }

    fn get(r: &mut dp_support::wire::Reader<'_>) -> Result<Self, dp_support::wire::WireError> {
        Ok(DoublePlayConfig {
            cpus: dp_support::wire::Wire::get(r)?,
            spare_workers: dp_support::wire::Wire::get(r)?,
            epoch_cycles: dp_support::wire::Wire::get(r)?,
            ep_quantum: dp_support::wire::Wire::get(r)?,
            tp_quantum: dp_support::wire::Wire::get(r)?,
            tp_jitter: dp_support::wire::Wire::get(r)?,
            hidden_seed: dp_support::wire::Wire::get(r)?,
            adaptive: dp_support::wire::Wire::get(r)?,
            forward_recovery: dp_support::wire::Wire::get(r)?,
            max_instructions: dp_support::wire::Wire::get(r)?,
            faults: dp_support::wire::Wire::get(r)?,
            pipelined: false,
        })
    }
}

impl Default for DoublePlayConfig {
    fn default() -> Self {
        Self::new(2)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_chains() {
        let c = DoublePlayConfig::new(4)
            .epoch_cycles(123)
            .spare_workers(2)
            .ep_quantum(9)
            .hidden_seed(7)
            .adaptive_epochs(true)
            .forward_recovery(false)
            .max_instructions(10);
        assert_eq!(c.cpus, 4);
        assert_eq!(c.epoch_cycles, 123);
        assert_eq!(c.spare_workers, 2);
        assert_eq!(c.ep_quantum, 9);
        assert_eq!(c.hidden_seed, 7);
        assert!(c.adaptive);
        assert!(!c.forward_recovery);
        assert_eq!(c.max_instructions, 10);
    }

    #[test]
    fn defaults_have_spare_cores() {
        let c = DoublePlayConfig::new(4);
        assert_eq!(c.spare_workers, 4);
        assert!(c.forward_recovery);
    }

    #[test]
    #[should_panic(expected = "at least one CPU")]
    fn zero_cpus_panics() {
        DoublePlayConfig::new(0);
    }

    #[test]
    fn degenerate_worker_counts_are_typed_errors() {
        assert_eq!(
            validate_worker_counts(0, 2, false),
            Err(ConfigError::NoCpus)
        );
        assert_eq!(
            validate_worker_counts(2, 0, true),
            Err(ConfigError::PipelinedWithoutWorkers)
        );
        assert_eq!(
            validate_worker_counts(2, MAX_SPARE_WORKERS + 1, false),
            Err(ConfigError::TooManyWorkers {
                workers: MAX_SPARE_WORKERS + 1
            })
        );
        assert_eq!(validate_worker_counts(2, 0, false), Ok(()));
        assert!(DoublePlayConfig::new(2).validate().is_ok());
        assert_eq!(
            DoublePlayConfig::new(2)
                .spare_workers(0)
                .pipelined(true)
                .validate(),
            Err(ConfigError::PipelinedWithoutWorkers)
        );
        let msg = ConfigError::PipelinedWithoutWorkers.to_string();
        assert!(msg.contains("spare worker"));
    }

    #[test]
    fn pipelined_is_not_part_of_the_wire_encoding() {
        let seq = DoublePlayConfig::new(2).epoch_cycles(1234).hidden_seed(9);
        let pip = seq.pipelined(true);
        let a = dp_support::wire::to_bytes(&seq);
        let b = dp_support::wire::to_bytes(&pip);
        assert_eq!(a, b, "pipelined must not change the encoding");
        let decoded: DoublePlayConfig = dp_support::wire::from_bytes(&b).unwrap();
        assert!(!decoded.pipelined, "decode always yields sequential");
        assert_eq!(decoded, seq);
    }
}
