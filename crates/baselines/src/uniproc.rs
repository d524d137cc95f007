//! The uniprocessor record/replay baseline.
//!
//! The scheme DoublePlay generalizes: timeslice *all* threads on a single
//! processor for the whole run and log only the schedule and syscall
//! results. Trivially correct and cheap to log — but it forfeits all
//! parallelism, so recorded runtime is roughly `N×` the native
//! multiprocessor runtime for compute-bound programs. DoublePlay's whole
//! contribution is getting this scheme's logging simplicity *without* the
//! serialization, so this baseline anchors experiment E5.
//!
//! Implementation: the run is one giant "epoch" executed by the live-mode
//! single-CPU engine from `dp-core`; replay reuses the stock epoch
//! replayer.

use crate::common::BaselineStats;
use dp_core::checkpoint::Checkpoint;
use dp_core::logs::codec;
use dp_core::recording::EpochRecord;
use dp_core::{measure_native, DoublePlayConfig, GuestSpec, RecordError, ReplayError};
use dp_os::kernel::Kernel;
use dp_vm::Machine;

/// A uniprocessor recording: the initial state plus one whole-run epoch.
#[derive(Debug)]
pub struct UniprocRecording {
    /// Boot checkpoint.
    pub initial: Checkpoint,
    /// The whole execution as one epoch record.
    pub epoch: EpochRecord,
    /// Measurements.
    pub stats: BaselineStats,
}

/// Records `spec` by timeslicing every thread on one processor.
///
/// # Errors
///
/// Guest faults or deadlocks.
pub fn record(
    spec: &GuestSpec,
    config: &DoublePlayConfig,
) -> Result<UniprocRecording, RecordError> {
    let (machine, kernel) = spec.boot();
    let initial = Checkpoint::capture(&machine, &kernel);
    let ep = dp_core::record::run_live(&initial, u64::MAX, config.ep_quantum, 0)?;

    let sched_bytes = codec::encode_schedule(&ep.schedule).len() as u64;
    let sys_bytes = codec::encode_syscalls(&ep.generated).len() as u64;
    let cost = kernel.cost_model();
    let log_cost = cost.log_write(sched_bytes + sys_bytes);
    let stats = BaselineStats {
        recorded_cycles: ep.cycles + log_cost,
        native_cycles: measure_native(spec, config)?,
        log_bytes: sched_bytes + sys_bytes,
        events: ep.schedule.len() as u64,
        instructions: ep.instructions,
    };
    let epoch = EpochRecord {
        index: 0,
        schedule: ep.schedule,
        syscalls: ep.generated,
        end_machine_hash: ep.end_hash,
        external: ep.external,
        start: initial.to_image(),
        tp_cycles: ep.cycles,
    };
    Ok(UniprocRecording {
        initial,
        epoch,
        stats,
    })
}

/// Replays a uniprocessor recording, verifying the end state.
///
/// # Errors
///
/// Any [`ReplayError`] on mismatch.
pub fn replay(recording: &UniprocRecording) -> Result<(Machine, Kernel), ReplayError> {
    let (machine, kernel, _) = dp_core::replay_epoch(&recording.initial, &recording.epoch)?;
    Ok((machine, kernel))
}

#[cfg(test)]
mod tests {
    use super::*;
    use dp_workloads::Size;

    #[test]
    fn records_and_replays_a_workload() {
        let case = dp_workloads::kvstore::build(2, Size::Small);
        let config = DoublePlayConfig::new(2);
        let rec = record(&case.spec, &config).unwrap();
        assert!(rec.stats.instructions > 0);
        let (machine, kernel) = replay(&rec).unwrap();
        (case.verify)(&machine, &kernel).unwrap();
    }

    #[test]
    fn serialization_overhead_scales_with_cpus() {
        // Compute-bound workload: uniprocessor recording forfeits the
        // speedup, so overhead should be roughly (cpus - 1) or worse.
        let case = dp_workloads::ocean::build(2, Size::Small);
        let config = DoublePlayConfig::new(2);
        let rec = record(&case.spec, &config).unwrap();
        assert!(
            rec.stats.overhead() > 0.6,
            "uniprocessor overhead suspiciously low: {}",
            rec.stats.overhead()
        );
    }

    #[test]
    fn replay_detects_tampering() {
        let case = dp_workloads::pfscan::build(2, Size::Small);
        let mut rec = record(&case.spec, &DoublePlayConfig::new(2)).unwrap();
        rec.epoch.end_machine_hash ^= 1;
        assert!(matches!(
            replay(&rec),
            Err(ReplayError::HashMismatch { .. })
        ));
    }
}
