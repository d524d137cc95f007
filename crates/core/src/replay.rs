//! Replay: re-creating a recorded execution, sequentially or with epochs on
//! real OS threads in parallel.
//!
//! Replaying an epoch is mechanical: start from the epoch's checkpoint,
//! follow the schedule log slice by slice (running each named thread for
//! exactly the logged instruction count), re-execute deterministic syscalls
//! against the epoch's kernel, satisfy logged-class syscalls from the
//! syscall log, deliver logged wakes and signals at their recorded points,
//! and finally verify the machine digest against the recording. Because
//! epochs are independent given their checkpoints, offline replay
//! parallelizes across real cores — the paper's replay-speed result, which
//! this module reproduces with genuine OS threads.
//!
//! Parallel replay is panic-isolated: a worker that dies mid-epoch —
//! whether from an injected [`crate::FaultPlan`] fault or a real bug — is
//! caught with `catch_unwind` and the epoch re-executed up to a bounded
//! retry budget; exhaustion surfaces as a typed
//! [`ReplayError::WorkerPanicked`] instead of aborting the process.

use dp_os::abi;
use dp_os::kernel::Kernel;
use dp_vm::observer::NullObserver;
use dp_vm::{Machine, Program, SliceLimits, StopReason, ThreadStatus, Tid};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;

use crate::checkpoint::Checkpoint;
use crate::error::ReplayError;
use crate::faults::INJECTED_PANIC_TAG;
use crate::logs::{apply_entry, request_hash, SchedEvent};
use crate::observe::{ReplayEvent, ReplayObserver};
use crate::recording::{EpochRecord, Recording};

/// Re-executions of a panicked replay epoch before giving up.
const REPLAY_RETRY_BUDGET: u32 = 3;

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
    let mut machine = start.machine.clone();
    let mut kernel = start.kernel.clone();
    let mut cursor = epoch.syscalls.cursor();
    let mut instructions = 0u64;
    let err_sched = |tid, detail: String| ReplayError::ScheduleMismatch {
        epoch: epoch.index,
        tid,
        detail,
    };

    for event in epoch.schedule.events() {
        check_event_thread(&machine, event, epoch.index)?;
        match *event {
            SchedEvent::LoggedWake { tid } => {
                let pending = machine.thread(tid).pending.ok_or_else(|| {
                    err_sched(tid, "logged wake for thread with no pending syscall".into())
                })?;
                let entry = cursor.pop(tid).ok_or_else(|| ReplayError::LogMismatch {
                    epoch: epoch.index,
                    tid,
                    detail: "logged wake with no log entry".into(),
                })?;
                if entry.num != pending.num {
                    return Err(ReplayError::LogMismatch {
                        epoch: epoch.index,
                        tid,
                        detail: format!(
                            "wake entry {} vs pending {}",
                            abi::name(entry.num),
                            abi::name(pending.num)
                        ),
                    });
                }
                obs.on_replay_event(&ReplayEvent::Wake { tid, req: pending });
                apply_entry(&mut machine, entry);
            }
            SchedEvent::Signal { tid, sig } => {
                let (got, handler) = kernel.take_pending_signal(tid).ok_or_else(|| {
                    ReplayError::ScheduleMismatch {
                        epoch: epoch.index,
                        tid,
                        detail: "signal event but none pending".into(),
                    }
                })?;
                if got != sig {
                    return Err(err_sched(tid, format!("signal {got} logged as {sig}")));
                }
                obs.on_replay_event(&ReplayEvent::SignalDelivered { tid, sig });
                machine.push_signal_frame(tid, handler, &[sig]);
            }
            SchedEvent::Slice { tid, instrs } => {
                let mut remaining = instrs;
                while remaining > 0 {
                    if !machine.thread(tid).is_ready() {
                        return Err(err_sched(
                            tid,
                            format!(
                                "slice of {remaining} instrs but thread is {:?}",
                                machine.thread(tid).status
                            ),
                        ));
                    }
                    let run = machine.run_slice(tid, SliceLimits::budget(remaining), &mut *obs)?;
                    instructions += run.executed;
                    remaining -= run.executed;
                    match run.stop {
                        StopReason::Budget | StopReason::IcountTarget => {}
                        StopReason::Exited => {
                            kernel.on_thread_exited(&mut machine, tid);
                            obs.on_replay_event(&ReplayEvent::ThreadExited { tid });
                            if remaining > 0 {
                                return Err(err_sched(
                                    tid,
                                    format!("exited with {remaining} instrs left in slice"),
                                ));
                            }
                        }
                        StopReason::Syscall(req) => {
                            obs.on_replay_event(&ReplayEvent::Trap {
                                tid,
                                icount: machine.thread(tid).icount,
                                req,
                            });
                            if abi::is_logged(req.num) {
                                let my_hash = request_hash(&machine, &req);
                                match cursor.peek(tid) {
                                    Some(e)
                                        if e.num == req.num
                                            && e.arg_hash == my_hash
                                            && !e.via_wake =>
                                    {
                                        let e = cursor.pop(tid).unwrap();
                                        apply_entry(&mut machine, e);
                                    }
                                    // Blocked completion: the LoggedWake
                                    // event applies it later.
                                    Some(e) if e.num == req.num && e.via_wake => {}
                                    Some(e) => {
                                        return Err(ReplayError::LogMismatch {
                                            epoch: epoch.index,
                                            tid,
                                            detail: format!(
                                                "issued {} but log head is {}",
                                                abi::name(req.num),
                                                abi::name(e.num)
                                            ),
                                        })
                                    }
                                    // Blocks past the epoch boundary.
                                    None => {}
                                }
                            } else {
                                kernel.handle(&mut machine, req, 0);
                                if req.num == abi::SYS_SPAWN {
                                    let ret = machine.thread(tid).regs[0];
                                    if !abi::is_err(ret) {
                                        obs.on_replay_event(&ReplayEvent::Spawned {
                                            parent: tid,
                                            child: Tid(ret as u32),
                                        });
                                    }
                                }
                            }
                        }
                        StopReason::Atomic { .. } => {}
                    }
                    if machine.thread(tid).status == ThreadStatus::Waiting && remaining > 0 {
                        return Err(err_sched(
                            tid,
                            format!("blocked with {remaining} instrs left in slice"),
                        ));
                    }
                    if machine.halted().is_some() {
                        if remaining > 0 {
                            return Err(err_sched(tid, "halted mid-slice".into()));
                        }
                        break;
                    }
                }
            }
        }
    }

    let actual = machine.state_hash();
    if actual != epoch.end_machine_hash {
        return Err(ReplayError::HashMismatch {
            epoch: epoch.index,
            expected: epoch.end_machine_hash,
            actual,
        });
    }
    Ok((machine, kernel, instructions))
}

/// Checks the thread a schedule event names against the machine: it must
/// exist, and a signal's target must be ready to take the handler frame.
/// A recording that fails this is corrupt or was made from another guest;
/// replay reports it as [`ReplayError::ScheduleMismatch`] instead of
/// panicking on the thread table.
fn check_event_thread(
    machine: &Machine,
    event: &SchedEvent,
    epoch: u32,
) -> Result<(), ReplayError> {
    let (tid, signal) = match *event {
        SchedEvent::Slice { tid, .. } | SchedEvent::LoggedWake { tid } => (tid, false),
        SchedEvent::Signal { tid, .. } => (tid, true),
    };
    let detail = match machine.threads().get(tid.index()) {
        None => format!(
            "{event:?} names a thread the machine does not have ({} threads)",
            machine.threads().len()
        ),
        Some(t) if signal && !t.is_ready() => {
            format!("signal delivery to a thread that is {:?}", t.status)
        }
        Some(_) => return Ok(()),
    };
    Err(ReplayError::ScheduleMismatch { epoch, tid, detail })
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
/// from the initial checkpoint.
///
/// # Errors
///
/// Any [`ReplayError`] on mismatch.
pub fn replay_sequential(
    recording: &Recording,
    program: &Arc<Program>,
) -> Result<ReplayReport, ReplayError> {
    check_program(recording, program)?;
    let initial = Checkpoint::from_image(program.clone(), recording.initial.clone());
    let mut state = (initial.machine, initial.kernel);
    let mut instructions = 0u64;
    let mut final_hash = recording.meta.initial_machine_hash;
    for epoch in &recording.epochs {
        let start = Checkpoint::capture(&state.0, &state.1);
        let (m, k, n) = replay_epoch(&start, epoch)?;
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

/// Replays all epochs in parallel on `threads` real OS threads, using the
/// per-epoch checkpoints stored in the recording. Epochs are independent
/// given their checkpoints, so this is an embarrassingly parallel verify —
/// the mechanism behind the paper's parallel-replay speedups.
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
    let threads = threads.max(1);
    let n = recording.epochs.len();
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
/// fired") the paper motivates deterministic replay with.
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
    let mut machine = start.machine.clone();
    let mut kernel = start.kernel.clone();
    let mut cursor = epoch.syscalls.cursor();

    for event in epoch.schedule.events() {
        check_event_thread(&machine, event, epoch.index)?;
        match *event {
            SchedEvent::LoggedWake { tid: t } => {
                if let Some(entry) = cursor.pop(t) {
                    apply_entry(&mut machine, entry);
                }
            }
            SchedEvent::Signal { tid: t, sig } => {
                if let Some((_, handler)) = kernel.take_pending_signal(t) {
                    machine.push_signal_frame(t, handler, &[sig]);
                }
            }
            SchedEvent::Slice { tid: t, instrs } => {
                let mut remaining = instrs;
                while remaining > 0 && machine.thread(t).is_ready() {
                    let stop_at = if t == tid { Some(icount) } else { None };
                    if let Some(target) = stop_at {
                        if machine.thread(t).icount >= target {
                            return Ok(machine);
                        }
                    }
                    let run = machine.run_slice(
                        t,
                        SliceLimits {
                            max_instrs: remaining,
                            icount_target: stop_at,
                            stop_at_atomics: false,
                        },
                        &mut NullObserver,
                    )?;
                    remaining -= run.executed;
                    match run.stop {
                        StopReason::IcountTarget => return Ok(machine),
                        StopReason::Exited => {
                            kernel.on_thread_exited(&mut machine, t);
                            break;
                        }
                        StopReason::Syscall(req) => {
                            if abi::is_logged(req.num) {
                                if let Some(e) = cursor.pop(t) {
                                    apply_entry(&mut machine, e);
                                }
                            } else {
                                kernel.handle(&mut machine, req, 0);
                            }
                        }
                        StopReason::Budget | StopReason::Atomic { .. } => {}
                    }
                    if machine.halted().is_some() {
                        return Ok(machine);
                    }
                }
            }
        }
    }
    Ok(machine)
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
        let bundle = record(&spec, &config).unwrap();
        // Pick a point inside epoch 1: thread 1 at 500 instructions.
        let m = replay_to_point(&bundle.recording, &spec.program, 0, Tid(1), 500).unwrap();
        assert!(m.thread(Tid(1)).icount <= 500);
        // Out-of-range epoch is a bad request.
        assert!(matches!(
            replay_to_point(&bundle.recording, &spec.program, 9999, Tid(0), 1),
            Err(ReplayError::BadRequest { .. })
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
