//! Replay: re-creating a recorded execution, sequentially or with epochs on
//! real OS threads in parallel.
//!
//! Replaying an epoch is mechanical: start from the epoch's checkpoint,
//! follow the schedule log slice by slice (running each named thread for
//! exactly the logged instruction count), re-execute deterministic syscalls
//! against the epoch's kernel, satisfy logged-class syscalls from the
//! syscall log, deliver logged wakes and signals at their recorded points,
//! and finally check that the log was consumed and the machine digest
//! matches the recording. Because epochs are independent given their
//! checkpoints, offline replay parallelizes across real cores — the
//! paper's replay-speed result, which this module reproduces with genuine
//! OS threads.
//!
//! That walk is `follow`, the one definition of how a schedule event
//! executes. The recorder's verify pass
//! ([`crate::record::epoch_parallel::run_verify`]) follows the
//! thread-parallel run's hint through it, and replay, observed replay and
//! [`replay_to_point`] follow the recorded schedule through it, so every
//! path makes the same checks and only the end checks differ: verify
//! compares thread targets, the consumed log and the digest with the next
//! checkpoint; replay compares the consumed log and the digest with the
//! recording.
//!
//! Parallel replay is panic-isolated: a worker that dies mid-epoch —
//! whether from an injected [`crate::FaultPlan`] fault or a real bug — is
//! caught with `catch_unwind` and the epoch re-executed up to a bounded
//! retry budget; exhaustion surfaces as a typed
//! [`ReplayError::WorkerPanicked`] instead of aborting the process.

use dp_os::abi;
use dp_os::kernel::{ExternalChunk, Kernel};
use dp_vm::observer::NullObserver;
use dp_vm::{Fault, Machine, Program, SliceLimits, StopReason, SyscallRequest, ThreadStatus, Tid};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;

use crate::checkpoint::Checkpoint;
use crate::error::ReplayError;
use crate::faults::INJECTED_PANIC_TAG;
use crate::logs::{apply_entry, request_hash, SchedEvent, ScheduleLog, SyscallCursor, SyscallLog};
use crate::observe::{replay_observed, ReplayEvent, ReplayObserver};
use crate::record::epoch_parallel::{CancelToken, Divergence};
use crate::recording::{EpochRecord, Recording};

/// Re-executions of a panicked replay epoch before giving up.
const REPLAY_RETRY_BUDGET: u32 = 3;

/// The most instructions [`follow`] runs in one `run_slice` call, so a
/// cancel token is checked at least this often. A slice that spans
/// several calls stops on `Budget` between them and just continues:
/// chunking changes where the interpreter pauses, never what it computes.
const CANCEL_CHECK_QUANTUM: u64 = 8_192;

/// Result of a verified replay.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ReplayReport {
    /// Epochs replayed and verified.
    pub epochs: u32,
    /// Guest instructions re-executed.
    pub instructions: u64,
    /// Digest of the final machine state.
    pub final_hash: u64,
    /// Exit code, if the guest halted via `exit`.
    pub exit_code: Option<u64>,
}

/// How [`follow`] walks a schedule: the verify pass, replay and
/// replay-to-point differ only in these.
#[derive(Clone, Copy, Default)]
pub(crate) struct Follow<'a> {
    /// `(token, stamp)`: give up as soon as the stamp goes stale, checking
    /// at every event and every [`CANCEL_CHECK_QUANTUM`] instructions.
    pub cancel: Option<(&'a CancelToken, u64)>,
    /// `(tid, icount)`: stop as soon as `tid` reaches `icount`.
    pub stop: Option<(Tid, u64)>,
    /// Collect the external output of the consumed log entries. Verify
    /// releases it on commit; replay discards it, so it does not collect.
    pub external: bool,
}

impl Follow<'_> {
    fn check_cancel(&self) -> Result<(), Exit> {
        match self.cancel {
            Some((token, stamp)) if token.is_stale(stamp) => Err(Exit::Cancelled),
            _ => Ok(()),
        }
    }
}

/// The first schedule event the world could not follow.
pub(crate) enum Mismatch {
    /// The event names a thread that cannot take it: missing, not ready,
    /// blocked or exited mid-slice, or with no pending syscall to wake.
    Schedule(Tid, String),
    /// A logged syscall disagrees with the next log entry for its thread.
    Log(Tid, String),
    /// The guest faulted.
    Fault(Fault),
}

impl Mismatch {
    /// The recorder's name for this mismatch.
    pub(crate) fn divergence(self) -> Divergence {
        match self {
            Mismatch::Schedule(tid, detail) => Divergence::SliceMismatch { tid, detail },
            Mismatch::Log(tid, detail) => Divergence::SyscallMismatch { tid, detail },
            Mismatch::Fault(fault) => Divergence::GuestFault {
                detail: fault.to_string(),
            },
        }
    }

    /// Replay's name for this mismatch in epoch `epoch`.
    fn replay_error(self, epoch: u32) -> ReplayError {
        match self {
            Mismatch::Schedule(tid, detail) => ReplayError::ScheduleMismatch { epoch, tid, detail },
            Mismatch::Log(tid, detail) => ReplayError::LogMismatch { epoch, tid, detail },
            Mismatch::Fault(fault) => ReplayError::Guest(fault),
        }
    }
}

/// Why [`follow`] left its loop before the schedule's end.
enum Exit {
    Mismatch(Mismatch),
    Stopped,
    Cancelled,
}

impl From<Mismatch> for Exit {
    fn from(m: Mismatch) -> Self {
        Exit::Mismatch(m)
    }
}

/// The world [`follow`] reached, and the walk's state.
pub(crate) struct Followed<'a> {
    pub machine: Machine,
    pub kernel: Kernel,
    /// The syscall log, minus the entries the schedule consumed.
    pub cursor: SyscallCursor<'a>,
    /// Single-CPU cycles: instructions, context switches and syscall costs.
    pub cycles: u64,
    /// Guest instructions executed.
    pub instructions: u64,
    /// External output of the consumed entries, when collected.
    pub external: Vec<ExternalChunk>,
    /// The first event that could not be followed. The world is the one
    /// that event met.
    pub mismatch: Option<Mismatch>,
    /// Whether the stop point was reached.
    pub stopped: bool,
    /// The options the walk runs under.
    how: Follow<'a>,
    /// The thread of the last slice (a slice of another one is charged a
    /// context switch).
    last_tid: Option<Tid>,
}

/// Follows `schedule` on one CPU from the world `(machine, kernel)`:
/// each slice runs its thread for exactly its instruction count,
/// logged-class syscalls are served from `log` (number and argument digest
/// checked) and the rest re-executed against `kernel`, and logged wakes and
/// signals are delivered at their recorded points, each checked against
/// the thread it names. Every data access and kernel-level event goes to
/// `obs`.
///
/// Returns the world reached, at the schedule's end, the first mismatch or
/// the stop point, or `None` once `how.cancel` goes stale.
pub(crate) fn follow<'a, O: ReplayObserver>(
    machine: Machine,
    kernel: Kernel,
    schedule: &ScheduleLog,
    log: &'a SyscallLog,
    how: Follow<'a>,
    obs: &mut O,
) -> Option<Followed<'a>> {
    let mut f = Followed {
        machine,
        kernel,
        cursor: log.cursor(),
        cycles: 0,
        instructions: 0,
        external: Vec::new(),
        mismatch: None,
        stopped: false,
        how,
        last_tid: None,
    };
    for &event in schedule.events() {
        match f.event(event, obs) {
            Ok(()) => {}
            Err(Exit::Mismatch(m)) => {
                f.mismatch = Some(m);
                break;
            }
            Err(Exit::Stopped) => {
                f.stopped = true;
                break;
            }
            Err(Exit::Cancelled) => return None,
        }
    }
    Some(f)
}

impl Followed<'_> {
    fn event<O: ReplayObserver>(&mut self, event: SchedEvent, obs: &mut O) -> Result<(), Exit> {
        self.how.check_cancel()?;
        match event {
            SchedEvent::LoggedWake { tid } => {
                let thread = self.machine.threads().get(tid.index());
                let Some(pending) = thread.and_then(|t| t.pending) else {
                    let detail = "logged wake but no pending syscall".to_string();
                    return Err(Mismatch::Schedule(tid, detail).into());
                };
                let my_hash = request_hash(&self.machine, &pending);
                match self.cursor.peek(tid) {
                    Some(e) if e.num == pending.num && e.arg_hash == my_hash => {}
                    Some(e) => {
                        let detail = format!(
                            "wake entry {} (hash {:#x}) vs pending {} (hash {:#x})",
                            abi::name(e.num),
                            e.arg_hash,
                            abi::name(pending.num),
                            my_hash
                        );
                        return Err(Mismatch::Log(tid, detail).into());
                    }
                    None => {
                        let detail = "logged wake with no log entry".to_string();
                        return Err(Mismatch::Log(tid, detail).into());
                    }
                }
                obs.on_replay_event(&ReplayEvent::Wake { tid, req: pending });
                self.consume(tid);
            }
            SchedEvent::Signal { tid, sig } => {
                let status = self.machine.threads().get(tid.index()).map(|t| t.status);
                match self.kernel.take_pending_signal(tid) {
                    Some((got, handler)) if got == sig && status == Some(ThreadStatus::Ready) => {
                        obs.on_replay_event(&ReplayEvent::SignalDelivered { tid, sig });
                        self.machine.push_signal_frame(tid, handler, &[sig]);
                    }
                    other => {
                        let detail = format!(
                            "signal {sig} to a thread that is {status:?} but kernel has {other:?}"
                        );
                        return Err(Mismatch::Schedule(tid, detail).into());
                    }
                }
            }
            SchedEvent::Slice { tid, instrs } => {
                if self.last_tid != Some(tid) {
                    self.cycles += self.kernel.cost_model().context_switch;
                    self.last_tid = Some(tid);
                }
                if tid.index() >= self.machine.threads().len() {
                    let detail = "slice for a thread that does not exist".to_string();
                    return Err(Mismatch::Schedule(tid, detail).into());
                }
                self.slice(tid, instrs, obs)?;
            }
        }
        Ok(())
    }

    /// Runs `tid` for exactly `instrs` instructions.
    fn slice<O: ReplayObserver>(&mut self, tid: Tid, instrs: u64, obs: &mut O) -> Result<(), Exit> {
        let target = self.how.stop.filter(|&(t, _)| t == tid).map(|(_, at)| at);
        let mut remaining = instrs;
        while remaining > 0 {
            self.how.check_cancel()?;
            let thread = self.machine.thread(tid);
            if target.is_some_and(|at| thread.icount >= at) {
                return Err(Exit::Stopped);
            }
            if !thread.is_ready() {
                let detail = format!("{remaining} instrs left but thread is {:?}", thread.status);
                return Err(Mismatch::Schedule(tid, detail).into());
            }
            let limits = SliceLimits {
                icount_target: target,
                ..SliceLimits::budget(remaining.min(CANCEL_CHECK_QUANTUM))
            };
            let run = self
                .machine
                .run_slice(tid, limits, &mut *obs)
                .map_err(Mismatch::Fault)?;
            self.instructions += run.executed;
            self.cycles += run.executed;
            remaining -= run.executed;
            match run.stop {
                StopReason::Budget | StopReason::Atomic { .. } => {}
                StopReason::IcountTarget => return Err(Exit::Stopped),
                StopReason::Exited => {
                    self.kernel.on_thread_exited(&mut self.machine, tid);
                    obs.on_replay_event(&ReplayEvent::ThreadExited { tid });
                    if remaining > 0 {
                        let detail = format!("exited with {remaining} instrs left");
                        return Err(Mismatch::Schedule(tid, detail).into());
                    }
                }
                StopReason::Syscall(req) => {
                    self.syscall(tid, req, obs)?;
                    if remaining > 0 && !self.machine.thread(tid).is_ready() {
                        let detail = format!(
                            "blocked at {} with {remaining} instrs left",
                            abi::name(req.num)
                        );
                        return Err(Mismatch::Schedule(tid, detail).into());
                    }
                }
            }
            if self.machine.halted().is_some() {
                if remaining > 0 {
                    return Err(Mismatch::Schedule(tid, "halted mid-slice".into()).into());
                }
                break;
            }
        }
        Ok(())
    }

    /// Services `tid`'s trap: a logged-class call from the log, any other
    /// against the kernel.
    fn syscall<O: ReplayObserver>(
        &mut self,
        tid: Tid,
        req: SyscallRequest,
        obs: &mut O,
    ) -> Result<(), Mismatch> {
        let icount = self.machine.thread(tid).icount;
        obs.on_replay_event(&ReplayEvent::Trap { tid, icount, req });
        if !abi::is_logged(req.num) {
            let out = self.kernel.handle(&mut self.machine, req, self.cycles);
            self.cycles += out.cost;
            if req.num == abi::SYS_SPAWN {
                let ret = self.machine.thread(tid).regs[0];
                if !abi::is_err(ret) {
                    let child = Tid(ret as u32);
                    obs.on_replay_event(&ReplayEvent::Spawned { parent: tid, child });
                }
            }
            return Ok(());
        }
        let my_hash = request_hash(&self.machine, &req);
        match self.cursor.peek(tid) {
            Some(e) if e.num == req.num && e.arg_hash == my_hash && !e.via_wake => {
                self.consume(tid);
            }
            // The call blocks; its `LoggedWake` event completes it later.
            Some(e) if e.num == req.num && e.via_wake => {}
            Some(e) => {
                let detail = format!(
                    "issued {} (hash {:#x}) but log has {} (hash {:#x})",
                    abi::name(req.num),
                    my_hash,
                    abi::name(e.num),
                    e.arg_hash
                );
                return Err(Mismatch::Log(tid, detail));
            }
            // The completion lies beyond this epoch: the thread stays
            // blocked, as it did when the log was made.
            None => {}
        }
        Ok(())
    }

    /// Consumes `tid`'s next log entry, which the caller has checked
    /// against the pending syscall: charges its cost, collects its output
    /// if asked, and completes the syscall with it.
    fn consume(&mut self, tid: Tid) {
        let e = self.cursor.pop(tid).expect("the entry was peeked");
        self.cycles += self.kernel.cost_model().syscall(e.effect.bytes());
        if self.how.external {
            self.external.extend(e.effect.external.iter().cloned());
        }
        apply_entry(&mut self.machine, e);
    }
}

/// Replays one epoch from `start`, returning the end state.
///
/// # Errors
///
/// Any [`ReplayError`] if the recording cannot be followed or the end state
/// does not verify.
pub fn replay_epoch(
    start: &Checkpoint,
    epoch: &EpochRecord,
) -> Result<(Machine, Kernel, u64), ReplayError> {
    replay_epoch_observed(start, epoch, &mut NullObserver)
}

/// [`replay_epoch`] with an attached [`ReplayObserver`]: identical replay
/// and verification, but every data access and kernel-level event is also
/// fed to `obs` in the recorded total order.
///
/// # Errors
///
/// Any [`ReplayError`] if the recording cannot be followed or the end state
/// does not verify.
pub fn replay_epoch_observed<O: ReplayObserver>(
    start: &Checkpoint,
    epoch: &EpochRecord,
    obs: &mut O,
) -> Result<(Machine, Kernel, u64), ReplayError> {
    replay_from(
        start.machine.clone(),
        start.kernel.clone(),
        epoch,
        None,
        obs,
    )
}

/// Replays `epoch` from a world taken by value and returns the end world
/// and the instructions executed, once replay's end checks pass: the whole
/// schedule followed, every log entry consumed, and the recorded end
/// digest reached. With a `stop` point the epoch reaches, it returns the
/// world there instead, unchecked past that point.
pub(crate) fn replay_from<O: ReplayObserver>(
    machine: Machine,
    kernel: Kernel,
    epoch: &EpochRecord,
    stop: Option<(Tid, u64)>,
    obs: &mut O,
) -> Result<(Machine, Kernel, u64), ReplayError> {
    let how = Follow {
        stop,
        ..Follow::default()
    };
    let f = follow(machine, kernel, &epoch.schedule, &epoch.syscalls, how, obs)
        .expect("a follow without a cancel token always completes");
    if let Some(mismatch) = f.mismatch {
        return Err(mismatch.replay_error(epoch.index));
    }
    if f.stopped {
        return Ok((f.machine, f.kernel, f.instructions));
    }
    if let Some(first) = f.cursor.unconsumed().next() {
        let names: Vec<String> = f
            .cursor
            .unconsumed()
            .take(4)
            .map(|e| format!("{} {}", e.tid, abi::name(e.num)))
            .collect();
        return Err(ReplayError::LogMismatch {
            epoch: epoch.index,
            tid: first.tid,
            detail: format!(
                "{} log entries never consumed: {}",
                f.cursor.remaining(),
                names.join(", ")
            ),
        });
    }
    let actual = f.machine.state_hash();
    if actual != epoch.end_machine_hash {
        return Err(ReplayError::HashMismatch {
            epoch: epoch.index,
            expected: epoch.end_machine_hash,
            actual,
        });
    }
    Ok((f.machine, f.kernel, f.instructions))
}

/// Replays one epoch with panic isolation: a panicking worker — injected
/// via the recording's [`crate::FaultPlan`] or real — is retried with a
/// fresh attempt number up to [`REPLAY_RETRY_BUDGET`] times, then surfaced
/// as [`ReplayError::WorkerPanicked`].
fn replay_epoch_guarded(
    plan: &crate::faults::FaultPlan,
    start: &Checkpoint,
    epoch: &EpochRecord,
) -> Result<(Machine, Kernel, u64), ReplayError> {
    let mut attempt = 0u32;
    loop {
        let run = catch_unwind(AssertUnwindSafe(|| {
            if plan.worker_panics(epoch.index, attempt) {
                panic!(
                    "{INJECTED_PANIC_TAG} (replay epoch {}, attempt {attempt})",
                    epoch.index
                );
            }
            replay_epoch(start, epoch)
        }));
        match run {
            Ok(result) => return result,
            Err(_) => {
                attempt += 1;
                if attempt > REPLAY_RETRY_BUDGET {
                    return Err(ReplayError::WorkerPanicked {
                        epoch: Some(epoch.index),
                    });
                }
            }
        }
    }
}

pub(crate) fn check_program(
    recording: &Recording,
    program: &Arc<Program>,
) -> Result<(), ReplayError> {
    let actual = program.content_hash();
    if actual != recording.meta.program_hash {
        return Err(ReplayError::ProgramMismatch {
            expected: recording.meta.program_hash,
            actual,
        });
    }
    Ok(())
}

/// Replays the whole recording sequentially, chaining state across epochs
/// from the initial checkpoint: [`replay_observed`] with no observer.
///
/// # Errors
///
/// Any [`ReplayError`] on mismatch.
pub fn replay_sequential(
    recording: &Recording,
    program: &Arc<Program>,
) -> Result<ReplayReport, ReplayError> {
    replay_observed(recording, program, &mut NullObserver)
}

/// Replays all epochs in parallel on `threads` real OS threads, using the
/// per-epoch checkpoints stored in the recording. Epochs are independent
/// given their checkpoints, so this is an embarrassingly parallel verify —
/// the mechanism behind the paper's parallel-replay speedups. At most one
/// thread starts per epoch, whatever `threads` asks for.
///
/// # Errors
///
/// [`ReplayError::BadRequest`] if the recording lacks checkpoints;
/// otherwise the first epoch error encountered.
pub fn replay_parallel(
    recording: &Recording,
    program: &Arc<Program>,
    threads: usize,
) -> Result<ReplayReport, ReplayError> {
    check_program(recording, program)?;
    if !recording.has_checkpoints() {
        return Err(ReplayError::BadRequest {
            detail: "recording has no per-epoch checkpoints".into(),
        });
    }
    let n = recording.epochs.len();
    let threads = threads.clamp(1, n.max(1));
    // Interleaved round-robin partitioning balances long/short epochs.
    let mut chunks: Vec<Vec<&EpochRecord>> = vec![Vec::new(); threads];
    for (i, e) in recording.epochs.iter().enumerate() {
        chunks[i % threads].push(e);
    }
    // The recording carries the fault plan it was made under; replay
    // re-injects the same worker panics to exercise the same recovery.
    let plan = recording.meta.config.faults;
    // Each worker returns its instruction count and the exit code its last
    // epoch ended with.
    let per_worker: Vec<Result<(u64, Option<u64>), ReplayError>> = std::thread::scope(|scope| {
        let handles: Vec<_> = chunks
            .into_iter()
            .map(|chunk| {
                let program = program.clone();
                scope.spawn(move || {
                    let mut instructions = 0u64;
                    let mut exit_code = None;
                    for epoch in chunk {
                        let image = epoch.start.clone().ok_or_else(|| ReplayError::BadRequest {
                            detail: format!("epoch {} has no checkpoint", epoch.index),
                        })?;
                        let start = Checkpoint::from_image(program.clone(), image);
                        let (end, _, n) = replay_epoch_guarded(&plan, &start, epoch)?;
                        instructions += n;
                        exit_code = end.halted();
                    }
                    Ok((instructions, exit_code))
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| {
                // A worker that dies outside the guarded epoch body is a
                // harness bug, not a corrupt recording — surface it as a
                // typed error rather than aborting the replay.
                h.join()
                    .unwrap_or(Err(ReplayError::WorkerPanicked { epoch: None }))
            })
            .collect()
    });
    let mut instructions = 0u64;
    let mut exit_code = recording.initial.machine.halted;
    for (k, res) in per_worker.into_iter().enumerate() {
        let (worker_instructions, worker_exit) = res?;
        instructions += worker_instructions;
        // The worker holding the last epoch ended on the guest's final state.
        if n > 0 && k == (n - 1) % threads {
            exit_code = worker_exit;
        }
    }
    let final_hash = recording
        .epochs
        .last()
        .map(|e| e.end_machine_hash)
        .unwrap_or(recording.meta.initial_machine_hash);
    Ok(ReplayReport {
        epochs: n as u32,
        instructions,
        final_hash,
        exit_code,
    })
}

/// Replays up to a point of interest and returns the machine state there:
/// epoch `epoch`, just after thread `tid` reaches instruction count
/// `icount`. The debugging workflow ("inspect state right before the race
/// fired") the paper motivates deterministic replay with. The walk up to
/// the point makes every check replay makes; a point the epoch never
/// reaches returns the epoch's end state once replay's end checks pass.
///
/// # Errors
///
/// [`ReplayError::BadRequest`] for out-of-range epochs or when the
/// recording lacks checkpoints; replay errors otherwise.
pub fn replay_to_point(
    recording: &Recording,
    program: &Arc<Program>,
    epoch_index: u32,
    tid: Tid,
    icount: u64,
) -> Result<Machine, ReplayError> {
    check_program(recording, program)?;
    let epoch =
        recording
            .epochs
            .get(epoch_index as usize)
            .ok_or_else(|| ReplayError::BadRequest {
                detail: format!("epoch {epoch_index} out of range"),
            })?;
    let image = epoch.start.clone().ok_or_else(|| ReplayError::BadRequest {
        detail: "recording has no per-epoch checkpoints".into(),
    })?;
    let start = Checkpoint::from_image(program.clone(), image);
    let stop = Some((tid, icount));
    replay_from(start.machine, start.kernel, epoch, stop, &mut NullObserver)
        .map(|(machine, _, _)| machine)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::DoublePlayConfig;
    use crate::record::coordinator::record;
    use crate::record::testutil::{atomic_counter_spec, racy_counter_spec};

    #[test]
    fn sequential_replay_verifies_every_epoch() {
        let spec = atomic_counter_spec(2000, 2);
        let config = DoublePlayConfig::new(2).epoch_cycles(5_000);
        let bundle = record(&spec, &config).unwrap();
        let report = replay_sequential(&bundle.recording, &spec.program).unwrap();
        assert_eq!(report.epochs as u64, bundle.stats.epochs);
        assert_eq!(report.exit_code, Some(4000));
        assert!(report.instructions > 0);
    }

    #[test]
    fn parallel_replay_matches_sequential() {
        let spec = atomic_counter_spec(3000, 2);
        let config = DoublePlayConfig::new(2).epoch_cycles(4_000);
        let bundle = record(&spec, &config).unwrap();
        let seq = replay_sequential(&bundle.recording, &spec.program).unwrap();
        let par = replay_parallel(&bundle.recording, &spec.program, 4).unwrap();
        assert_eq!(par.epochs, seq.epochs);
        assert_eq!(par.instructions, seq.instructions);
        assert_eq!(par.final_hash, seq.final_hash);
        assert_eq!(par.exit_code, seq.exit_code);
        // A thread count no host could start: one worker per epoch starts.
        assert!(seq.epochs < 64, "{} epochs", seq.epochs);
        let all = replay_parallel(&bundle.recording, &spec.program, usize::MAX).unwrap();
        assert_eq!(all, seq);
    }

    #[test]
    fn racy_recordings_still_replay_exactly() {
        // The whole point: even when the original run diverged and rolled
        // back, the *recording* replays deterministically.
        for seed in 0..4 {
            let spec = racy_counter_spec(2500);
            let config = DoublePlayConfig {
                tp_quantum: 200,
                tp_jitter: 300,
                ..DoublePlayConfig::new(2)
                    .epoch_cycles(15_000)
                    .hidden_seed(seed)
            };
            let bundle = record(&spec, &config).unwrap();
            let report = replay_sequential(&bundle.recording, &spec.program).unwrap();
            assert_eq!(report.epochs as u64, bundle.stats.epochs);
            let par = replay_parallel(&bundle.recording, &spec.program, 3).unwrap();
            assert_eq!(par.final_hash, report.final_hash);
            assert_eq!(par.exit_code, report.exit_code);
        }
    }

    #[test]
    fn wrong_program_is_rejected() {
        let spec = atomic_counter_spec(500, 2);
        let config = DoublePlayConfig::new(2);
        let bundle = record(&spec, &config).unwrap();
        let other = atomic_counter_spec(501, 2);
        assert!(matches!(
            replay_sequential(&bundle.recording, &other.program),
            Err(ReplayError::ProgramMismatch { .. })
        ));
    }

    #[test]
    fn corrupted_schedule_is_detected() {
        let spec = atomic_counter_spec(1000, 2);
        let config = DoublePlayConfig::new(2).epoch_cycles(5_000);
        let mut bundle = record(&spec, &config).unwrap();
        // Tamper: extend the first slice of the first epoch.
        let first = &mut bundle.recording.epochs[0];
        let mut events: Vec<SchedEvent> = first.schedule.events().to_vec();
        if let Some(SchedEvent::Slice { instrs, .. }) = events.first_mut() {
            *instrs += 1;
        }
        first.schedule = events.into_iter().collect();
        let err = replay_sequential(&bundle.recording, &spec.program).unwrap_err();
        assert!(
            matches!(
                err,
                ReplayError::HashMismatch { .. }
                    | ReplayError::ScheduleMismatch { .. }
                    | ReplayError::LogMismatch { .. }
            ),
            "tampering not detected: {err:?}"
        );
    }

    #[test]
    fn replay_to_point_stops_at_icount() {
        let spec = atomic_counter_spec(2000, 2);
        let config = DoublePlayConfig::new(2).epoch_cycles(5_000);
        let mut bundle = record(&spec, &config).unwrap();
        // Pick a point inside epoch 1: thread 1 at 500 instructions.
        let m = replay_to_point(&bundle.recording, &spec.program, 0, Tid(1), 500).unwrap();
        assert!(m.thread(Tid(1)).icount <= 500);
        // Out-of-range epoch is a bad request.
        assert!(matches!(
            replay_to_point(&bundle.recording, &spec.program, 9999, Tid(0), 1),
            Err(ReplayError::BadRequest { .. })
        ));
        // A point the epoch never reaches: its end state, after replay's
        // end checks.
        let never = u64::MAX;
        let end = replay_to_point(&bundle.recording, &spec.program, 1, Tid(1), never).unwrap();
        assert_eq!(
            end.state_hash(),
            bundle.recording.epochs[1].end_machine_hash
        );
        bundle.recording.epochs[1].end_machine_hash ^= 1;
        assert!(matches!(
            replay_to_point(&bundle.recording, &spec.program, 1, Tid(1), never),
            Err(ReplayError::HashMismatch { epoch: 1, .. })
        ));
    }

    #[test]
    fn replay_worker_panics_retry_then_surface_typed_error() {
        crate::faults::silence_injected_panics();
        let spec = atomic_counter_spec(2000, 2);
        let config = DoublePlayConfig::new(2).epoch_cycles(4_000);
        let mut bundle = record(&spec, &config).unwrap();
        let clean = replay_parallel(&bundle.recording, &spec.program, 2).unwrap();

        // Sub-certain panics: workers die, retries converge, result exact.
        bundle.recording.meta.config = bundle.recording.meta.config.faults(
            crate::faults::FaultPlan::none()
                .seed(9)
                .worker_panics_with(0.25),
        );
        let report = replay_parallel(&bundle.recording, &spec.program, 2).unwrap();
        assert_eq!(report.final_hash, clean.final_hash);
        assert_eq!(report.instructions, clean.instructions);

        // Certain panics: the retry budget must surface a typed error, not
        // abort the process.
        bundle.recording.meta.config = bundle
            .recording
            .meta
            .config
            .faults(crate::faults::FaultPlan::none().worker_panics_with(1.0));
        assert!(matches!(
            replay_parallel(&bundle.recording, &spec.program, 2),
            Err(ReplayError::WorkerPanicked { epoch: Some(_) })
        ));
    }

    #[test]
    fn parallel_replay_without_checkpoints_is_rejected() {
        let spec = atomic_counter_spec(1000, 2);
        let config = DoublePlayConfig::new(2).keep_checkpoints(false);
        let bundle = record(&spec, &config).unwrap();
        assert!(matches!(
            replay_parallel(&bundle.recording, &spec.program, 2),
            Err(ReplayError::BadRequest { .. })
        ));
        // Sequential replay still works without checkpoints.
        assert!(replay_sequential(&bundle.recording, &spec.program).is_ok());
    }

    #[test]
    fn signal_to_a_thread_that_is_not_ready_is_a_schedule_mismatch() {
        use dp_vm::builder::ProgramBuilder;
        use dp_vm::Reg;
        // Thread 0 installs a handler, signals itself, then blocks in a
        // logged sleep; the schedule then delivers the signal while it is
        // still waiting, which no recorder ever logs.
        let mut pb = ProgramBuilder::new();
        let mut h = pb.function("handler");
        h.ret();
        h.finish();
        let handler = pb.declare("handler");
        let mut f = pb.function("main");
        f.consti(Reg(0), 7);
        f.consti(Reg(1), handler.0 as i64);
        f.syscall(abi::SYS_SIGACTION);
        f.consti(Reg(0), 0);
        f.consti(Reg(1), 7);
        f.syscall(abi::SYS_KILL);
        f.consti(Reg(0), 100);
        f.syscall(abi::SYS_SLEEP);
        f.ret();
        f.finish();
        let machine = Machine::new(Arc::new(pb.finish("main")), &[]);
        let start = Checkpoint::capture(&machine, &Kernel::new(Default::default()));
        let epoch = EpochRecord {
            index: 0,
            schedule: [
                SchedEvent::Slice {
                    tid: Tid(0),
                    instrs: 8,
                },
                SchedEvent::Signal {
                    tid: Tid(0),
                    sig: 7,
                },
            ]
            .into_iter()
            .collect(),
            syscalls: Default::default(),
            end_machine_hash: 0,
            external: Vec::new(),
            start: None,
            tp_cycles: 0,
        };
        let err = replay_epoch(&start, &epoch).unwrap_err();
        assert!(
            matches!(err, ReplayError::ScheduleMismatch { tid: Tid(0), .. }),
            "{err:?}"
        );
    }
}
