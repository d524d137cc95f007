//! Observed replay: the analysis-facing event stream of a replayed
//! recording.
//!
//! Replay is the one place where a recording's entire execution is
//! re-created instruction by instruction, which makes it the natural
//! attachment point for offline analyses (the paper's stated use for its
//! logs: debugging and race diagnosis *after* the cheap recording run).
//! [`ReplayObserver`] extends the VM's [`MemObserver`] with the
//! kernel-level events an analysis needs to reconstruct happens-before
//! order — syscall traps (futex wait/wake, thread exit/join), thread
//! spawns, logged-wake deliveries, and signal deliveries — and
//! [`replay_observed`] drives a full sequential replay through one.
//! [`crate::replay_sequential`] is [`replay_observed`] with the
//! [`NullObserver`], whose hooks compile away.
//!
//! The events come from `replay::follow`, the one loop that walks a
//! schedule for the recorder's verify pass and for every replay path, so
//! the observer sees exactly the execution replay verifies: the
//! epoch-parallel execution's total order (the recorded time-slice
//! order), interleaved with every data access the interpreter performs.
//! `dp-analyze` builds its vector-clock data-race detector on exactly this
//! stream.

use dp_vm::observer::{MemObserver, NullObserver};
use dp_vm::{Program, SyscallRequest, Tid, Word};
use std::sync::Arc;

use crate::checkpoint::Checkpoint;
use crate::error::ReplayError;
use crate::recording::Recording;
use crate::replay::{check_program, replay_from, ReplayReport};

/// One kernel-level event surfaced during observed replay, in the recorded
/// total order of the epoch-parallel execution.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReplayEvent {
    /// A thread trapped into the kernel. Emitted *before* the syscall is
    /// serviced (re-executed or satisfied from the log), so the observer
    /// sees the request exactly as issued — number and raw arguments
    /// included. For `futex_wait`/`futex_wake`, `req.args[0]` is the futex
    /// address; for `join`, `req.args[0]` is the joined thread.
    Trap {
        /// The trapping thread.
        tid: Tid,
        /// The thread's instruction count at the trap.
        icount: u64,
        /// The request as issued.
        req: SyscallRequest,
    },
    /// A `spawn` syscall created a new thread (emitted after the spawn is
    /// serviced, when the child's id is known).
    Spawned {
        /// The spawning thread.
        parent: Tid,
        /// The newly created thread.
        child: Tid,
    },
    /// A logged blocking syscall's completion was delivered at its recorded
    /// `LoggedWake` point. `req` is the request the thread had pending (for
    /// a `futex_wait`, `req.args[0]` is the futex address it slept on).
    Wake {
        /// The woken thread.
        tid: Tid,
        /// The request whose completion was applied.
        req: SyscallRequest,
    },
    /// A signal was delivered (handler frame pushed) at its recorded point.
    SignalDelivered {
        /// The receiving thread.
        tid: Tid,
        /// The signal number.
        sig: Word,
    },
    /// A thread exited by returning from its bottom frame (a thread that
    /// exits via the `thread_exit` syscall is seen as a [`ReplayEvent::Trap`]
    /// instead).
    ThreadExited {
        /// The exiting thread.
        tid: Tid,
    },
}

/// Receives everything an offline analysis needs from a replay: every data
/// access (via the [`MemObserver`] supertrait) plus the kernel-level
/// [`ReplayEvent`]s, all in the recorded total order.
///
/// The default event hooks do nothing, so a pure memory-access analysis
/// only implements `on_access`.
pub trait ReplayObserver: MemObserver {
    /// Called once before each epoch's events, with the epoch index.
    fn on_epoch_start(&mut self, index: u32) {
        let _ = index;
    }

    /// Called for each kernel-level event.
    fn on_replay_event(&mut self, event: &ReplayEvent) {
        let _ = event;
    }
}

impl ReplayObserver for NullObserver {}

/// Replays the whole recording sequentially (chaining state across epochs
/// from the initial checkpoint) while feeding every data access and kernel
/// event to `obs`. Each epoch's end world moves into the next epoch.
/// [`crate::replay_sequential`] is this function with
/// [`NullObserver`], so the analysis rides exactly the verified replay and
/// its input is exactly the recorded execution.
///
/// # Errors
///
/// Any [`ReplayError`] on mismatch.
pub fn replay_observed<O: ReplayObserver>(
    recording: &Recording,
    program: &Arc<Program>,
    obs: &mut O,
) -> Result<ReplayReport, ReplayError> {
    check_program(recording, program)?;
    let initial = Checkpoint::from_image(program.clone(), recording.initial.clone());
    let mut state = (initial.machine, initial.kernel);
    let mut instructions = 0u64;
    let mut final_hash = recording.meta.initial_machine_hash;
    for epoch in &recording.epochs {
        obs.on_epoch_start(epoch.index);
        let (m, k, n) = replay_from(state.0, state.1, epoch, None, obs)?;
        instructions += n;
        final_hash = epoch.end_machine_hash;
        state = (m, k);
    }
    Ok(ReplayReport {
        epochs: recording.epochs.len() as u32,
        instructions,
        final_hash,
        exit_code: state.0.halted(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::DoublePlayConfig;
    use crate::record::coordinator::record;
    use crate::record::testutil::atomic_counter_spec;
    use dp_os::abi;
    use dp_vm::observer::Access;

    /// Counts accesses and events; checks epoch ordering.
    #[derive(Default)]
    struct Counter {
        accesses: u64,
        traps: u64,
        spawns: u64,
        exits: u64,
        epochs: Vec<u32>,
    }

    impl MemObserver for Counter {
        fn on_access(&mut self, _access: Access) {
            self.accesses += 1;
        }
    }

    impl ReplayObserver for Counter {
        fn on_epoch_start(&mut self, index: u32) {
            self.epochs.push(index);
        }

        fn on_replay_event(&mut self, event: &ReplayEvent) {
            match event {
                ReplayEvent::Trap { req, .. } => {
                    self.traps += 1;
                    assert!(req.num < abi::SYSCALL_COUNT);
                }
                ReplayEvent::Spawned { parent, child } => {
                    self.spawns += 1;
                    assert_ne!(parent, child);
                }
                ReplayEvent::ThreadExited { .. } => self.exits += 1,
                _ => {}
            }
        }
    }

    #[test]
    fn observed_replay_sees_accesses_and_events() {
        let spec = atomic_counter_spec(2000, 2);
        let config = DoublePlayConfig::new(2).epoch_cycles(5_000);
        let bundle = record(&spec, &config).unwrap();
        let mut obs = Counter::default();
        let report = replay_observed(&bundle.recording, &spec.program, &mut obs).unwrap();
        assert_eq!(report.epochs as u64, bundle.stats.epochs);
        assert!(obs.accesses > 0, "no data accesses observed");
        assert!(obs.traps > 0, "no syscall traps observed");
        assert_eq!(obs.spawns, 2, "both worker spawns observed");
        assert_eq!(
            obs.epochs,
            (0..report.epochs).collect::<Vec<_>>(),
            "epochs observed in order"
        );
        // The observed replay verifies exactly like the plain one.
        let plain = crate::replay::replay_sequential(&bundle.recording, &spec.program).unwrap();
        assert_eq!(plain.final_hash, report.final_hash);
        assert_eq!(plain.instructions, report.instructions);
    }

    #[test]
    fn observed_replay_rejects_wrong_program() {
        let spec = atomic_counter_spec(500, 2);
        let bundle = record(&spec, &DoublePlayConfig::new(2)).unwrap();
        let other = atomic_counter_spec(501, 2);
        let mut obs = NullObserver;
        assert!(matches!(
            replay_observed(&bundle.recording, &other.program, &mut obs),
            Err(ReplayError::ProgramMismatch { .. })
        ));
    }
}
