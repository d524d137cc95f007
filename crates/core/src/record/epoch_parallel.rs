//! The epoch-parallel execution driver: DoublePlay's execution of record.
//!
//! Each epoch runs *all* threads time-sliced on a single logical CPU,
//! starting from the epoch's checkpoint. Because threads never overlap,
//! the resulting execution is fully determined by (schedule log, syscall
//! log, start state) — no shared-memory ordering is ever recorded.
//!
//! Two modes:
//!
//! * **Verify** ([`run_verify`]) — the normal recording path. The run
//!   *follows the thread-parallel run's schedule hint* (sync-ordered
//!   slices) through `replay::follow`, the same loop replay walks a
//!   recorded schedule with: deterministic syscalls re-execute against the
//!   epoch's own kernel snapshot and logged-class results come from the
//!   syscall log (number and argument digest checked). Only the end
//!   checks are verify's own: every thread must sit exactly at its
//!   epoch-boundary target, the log must be consumed, and the machine
//!   digest must equal the next checkpoint's. Any deviation — a slice that
//!   can't be followed, a syscall that doesn't match, a digest mismatch —
//!   is a **divergence**: some data race resolved differently between the
//!   two executions. The hint (which was followed successfully) becomes
//!   the epoch's schedule log on commit.
//! * **Live** ([`run_live`]) — re-execution after a divergence (forward
//!   recovery), and the whole-run mode of the uniprocessor baseline. The
//!   scheduler is a deterministic round-robin; all syscalls execute for
//!   real; logged-class results are captured into a fresh syscall log. The
//!   end state *defines* the new truth.

use dp_os::abi;
use dp_os::kernel::{Disposition, Kernel, Wake};
use dp_vm::observer::NullObserver;
use dp_vm::{Machine, SliceLimits, StopReason, Tid, Word};
use std::sync::atomic::{AtomicU64, Ordering};

use crate::checkpoint::{targets_of, Checkpoint, EpochTargets};
use crate::error::RecordError;
use crate::logs::{
    request_hash, request_hash_args, ScheduleLog, SyscallCursor, SyscallLog, SyscallLogEntry,
};
use crate::replay::{follow, Follow};

/// Generation-based cooperative cancellation for speculative verify work.
///
/// The pipelined coordinator stamps each verify job with the generation
/// current at submission; a divergence at epoch *k* bumps the generation,
/// which (a) tells every in-flight worker running an epoch > *k* to bail
/// out at its next quantum boundary and (b) lets the commit stage discard
/// results from the dead speculation by comparing stamps.
#[derive(Debug, Default)]
pub struct CancelToken {
    generation: AtomicU64,
}

impl CancelToken {
    /// A fresh token at generation 0.
    pub fn new() -> Self {
        Self::default()
    }

    /// The current generation (stamp new jobs with this).
    pub fn current(&self) -> u64 {
        self.generation.load(Ordering::Acquire)
    }

    /// Invalidates every job stamped with an older generation; returns the
    /// new generation.
    pub fn bump(&self) -> u64 {
        self.generation.fetch_add(1, Ordering::AcqRel) + 1
    }

    /// Whether a job stamped with `stamp` has been cancelled.
    pub fn is_stale(&self, stamp: u64) -> bool {
        self.current() != stamp
    }
}

/// Why an epoch-parallel run diverged from the thread-parallel run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Divergence {
    /// A logged-class syscall did not match the next log entry.
    SyscallMismatch {
        /// Thread whose syscall mismatched.
        tid: Tid,
        /// What differed.
        detail: String,
    },
    /// A hint slice could not be followed (thread blocked, exited, trapped,
    /// or was missing where the hint said it should run).
    SliceMismatch {
        /// The thread the hint named.
        tid: Tid,
        /// What differed.
        detail: String,
    },
    /// Thread positions at the epoch's end disagree with the checkpoint.
    TargetMismatch {
        /// The offending thread.
        tid: Tid,
        /// What differed.
        detail: String,
    },
    /// All targets met but the final memory/thread state differs.
    HashMismatch {
        /// Digest the checkpoint expects.
        expected: u64,
        /// Digest the epoch-parallel run produced.
        actual: u64,
        /// First differing byte address, when diagnosable.
        first_difference: Option<Word>,
    },
    /// The epoch ended with unconsumed syscall-log entries.
    LeftoverLog {
        /// Entries never consumed.
        remaining: usize,
    },
    /// The guest faulted in the epoch-parallel run where the
    /// thread-parallel run did not (racy fault).
    GuestFault {
        /// The fault, formatted.
        detail: String,
    },
}

impl Divergence {
    /// Short category name (for rollback statistics tables).
    pub fn kind(&self) -> &'static str {
        match self {
            Divergence::SyscallMismatch { .. } => "syscall",
            Divergence::SliceMismatch { .. } => "slice",
            Divergence::TargetMismatch { .. } => "target",
            Divergence::HashMismatch { .. } => "hash",
            Divergence::LeftoverLog { .. } => "leftover-log",
            Divergence::GuestFault { .. } => "fault",
        }
    }
}

/// Result of running one epoch on the epoch-parallel CPU.
#[derive(Debug)]
pub struct EpOutcome {
    /// The schedule this run actually followed (the recording).
    pub schedule: ScheduleLog,
    /// Logged-class syscalls captured by a Live run (empty for Verify —
    /// the consumed thread-parallel log is stored instead).
    pub generated: SyscallLog,
    /// Machine at epoch end.
    pub machine: Machine,
    /// Kernel at epoch end.
    pub kernel: Kernel,
    /// Digest of `machine`.
    pub end_hash: u64,
    /// External output this epoch produced (released on commit).
    pub external: Vec<dp_os::kernel::ExternalChunk>,
    /// Single-CPU cycles consumed (the ep-worker occupancy time).
    pub cycles: u64,
    /// Guest instructions executed.
    pub instructions: u64,
    /// Set if the run diverged from the thread-parallel execution
    /// (Verify mode only).
    pub divergence: Option<Divergence>,
    /// Whether the machine halted during the epoch.
    pub finished: bool,
}

/// Verify-mode inputs.
pub struct VerifyInputs<'a> {
    /// The thread-parallel run's schedule hint for this epoch.
    pub hint: &'a ScheduleLog,
    /// Per-thread boundary targets from the next checkpoint.
    pub targets: &'a EpochTargets,
    /// The thread-parallel run's syscall log for this epoch.
    pub log: &'a SyscallLog,
    /// The next checkpoint's machine digest.
    pub expected_hash: u64,
    /// The next checkpoint's machine, for divergence diagnostics.
    pub expected_machine: Option<&'a Machine>,
}

/// Runs one epoch in **verify** mode from `start`, following the hint.
///
/// # Errors
///
/// Never fails on divergence (reported in the outcome); `Err` is reserved
/// for host-level problems and does not occur today, but the signature
/// matches [`run_live`] for symmetry at call sites.
pub fn run_verify(start: &Checkpoint, inputs: VerifyInputs<'_>) -> Result<EpOutcome, RecordError> {
    Ok(run_verify_cancellable(start, inputs, None)?
        .expect("verify without a cancel token always completes"))
}

/// [`run_verify`] with cooperative cancellation: when `cancel` is given as
/// `(token, stamp)` the run checks the token at every schedule event and
/// every few thousand instructions within a slice, returning `Ok(None)` as
/// soon as the stamp goes stale. A completed run is bit-identical to an
/// uncancelled [`run_verify`] — chunked slices change only where the
/// interpreter pauses, never what it computes.
///
/// # Errors
///
/// As [`run_verify`].
pub fn run_verify_cancellable(
    start: &Checkpoint,
    inputs: VerifyInputs<'_>,
    cancel: Option<(&CancelToken, u64)>,
) -> Result<Option<EpOutcome>, RecordError> {
    let mut machine = start.machine.clone();
    machine.mem_mut().take_dirty();
    let how = Follow {
        cancel,
        stop: None,
        external: true,
    };
    let kernel = start.kernel.clone();
    let Some(f) = follow(
        machine,
        kernel,
        inputs.hint,
        inputs.log,
        how,
        &mut NullObserver,
    ) else {
        return Ok(None);
    };

    // End-of-epoch checks, against the one digest of the end state.
    let end_hash = f.machine.state_hash();
    let divergence = match f.mismatch {
        Some(mismatch) => Some(mismatch.divergence()),
        None => end_checks(&f.machine, end_hash, &inputs, &f.cursor),
    };
    let finished = f.machine.halted().is_some() || f.machine.live_threads() == 0;
    Ok(Some(EpOutcome {
        schedule: inputs.hint.clone(),
        generated: SyscallLog::new(),
        end_hash,
        external: f.external,
        cycles: f.cycles,
        instructions: f.instructions,
        divergence,
        finished,
        machine: f.machine,
        kernel: f.kernel,
    }))
}

/// Checks the end of a verify run against the next checkpoint: thread
/// targets, the syscall log fully consumed, and `end_hash`, the digest of
/// `machine`.
fn end_checks(
    machine: &Machine,
    end_hash: u64,
    inputs: &VerifyInputs<'_>,
    cursor: &SyscallCursor<'_>,
) -> Option<Divergence> {
    // The lowest thread whose position differs, including one that only
    // one side has.
    let reached = targets_of(machine);
    let wrong = reached
        .keys()
        .chain(inputs.targets.keys())
        .filter(|tid| reached.get(tid) != inputs.targets.get(tid))
        .min();
    if let Some(&tid) = wrong {
        let (got, want) = (reached.get(&tid), inputs.targets.get(&tid));
        return Some(Divergence::TargetMismatch {
            tid,
            detail: format!("at {got:?}, the next checkpoint has {want:?}"),
        });
    }
    if !cursor.exhausted() {
        return Some(Divergence::LeftoverLog {
            remaining: cursor.remaining(),
        });
    }
    if end_hash != inputs.expected_hash {
        let first_difference = inputs
            .expected_machine
            .and_then(|m| machine.mem().first_difference(m.mem()));
        return Some(Divergence::HashMismatch {
            expected: inputs.expected_hash,
            actual: end_hash,
            first_difference,
        });
    }
    None
}

/// Runs one epoch in **live** mode from `start` for about `duration`
/// single-CPU cycles (stopping at a slice boundary). `base_now` seeds the
/// virtual clock so `clock()` results keep advancing across epochs.
///
/// # Errors
///
/// Returns guest faults and true deadlocks.
pub fn run_live(
    start: &Checkpoint,
    duration: u64,
    quantum: u64,
    base_now: u64,
) -> Result<EpOutcome, RecordError> {
    let mut machine = start.machine.clone();
    let mut kernel = start.kernel.clone();
    machine.mem_mut().take_dirty();
    let switch = kernel.cost_model().context_switch;
    let mut schedule = ScheduleLog::new();
    let mut generated = SyscallLog::new();
    let mut cycles = 0u64;
    let mut instructions = 0u64;

    'outer: loop {
        if machine.halted().is_some() || machine.live_threads() == 0 || cycles >= duration {
            break;
        }
        let mut progress = false;
        let nthreads = machine.threads().len();
        for idx in 0..nthreads {
            let tid = Tid(idx as u32);
            if machine.halted().is_some() || cycles >= duration {
                break 'outer;
            }
            if !machine.thread(tid).is_ready() {
                continue;
            }
            if let Some((sig, handler)) = kernel.take_pending_signal(tid) {
                machine.push_signal_frame(tid, handler, &[sig]);
                schedule.push_signal(tid, sig);
            }
            // Clamp the turn to the remaining duration: without this a
            // quantum larger than the epoch would let the first runnable
            // thread monopolize (and overshoot) the whole live epoch.
            let mut remaining = quantum.min(duration.saturating_sub(cycles)).max(1);
            cycles += switch;
            while remaining > 0 && machine.thread(tid).is_ready() && machine.halted().is_none() {
                let run =
                    machine.run_slice(tid, SliceLimits::budget(remaining), &mut NullObserver)?;
                if run.executed > 0 {
                    progress = true;
                }
                schedule.push_slice(tid, run.executed);
                instructions += run.executed;
                cycles += run.executed;
                remaining = remaining.saturating_sub(run.executed.max(1));
                match run.stop {
                    StopReason::Budget | StopReason::IcountTarget | StopReason::Atomic { .. } => {}
                    StopReason::Exited => {
                        let wakes = kernel.on_thread_exited(&mut machine, tid);
                        log_live_wakes(&mut generated, &mut schedule, &wakes);
                    }
                    StopReason::Syscall(req) => {
                        let arg_hash = request_hash(&machine, &req);
                        let out = kernel.handle(&mut machine, req, base_now + cycles);
                        cycles += out.cost;
                        if abi::is_logged(req.num) {
                            match out.disposition {
                                Disposition::Done { ret } => generated.push(SyscallLogEntry {
                                    tid,
                                    num: req.num,
                                    arg_hash,
                                    ret,
                                    effect: out.effect,
                                    via_wake: false,
                                }),
                                Disposition::Blocked => {
                                    let _ = arg_hash; // digested at wake
                                }
                                _ => {}
                            }
                        }
                        log_live_wakes(&mut generated, &mut schedule, &out.wakes);
                    }
                }
            }
        }

        if !progress {
            // Everything blocked: advance virtual time to the next event.
            match kernel.next_event_time(base_now + cycles) {
                Some(t) => {
                    cycles = t.saturating_sub(base_now).max(cycles + 1);
                    let wakes = kernel.advance_time(&mut machine, base_now + cycles);
                    if wakes.is_empty() && machine.ready_tids().is_empty() {
                        return Err(RecordError::Deadlock {
                            blocked: machine.live_threads(),
                        });
                    }
                    log_live_wakes(&mut generated, &mut schedule, &wakes);
                }
                None => {
                    return Err(RecordError::Deadlock {
                        blocked: machine.live_threads(),
                    })
                }
            }
        }
    }

    let external = kernel.take_external();
    let end_hash = machine.state_hash();
    let finished = machine.halted().is_some() || machine.live_threads() == 0;
    Ok(EpOutcome {
        schedule,
        generated,
        end_hash,
        external,
        cycles,
        instructions,
        divergence: None,
        finished,
        machine,
        kernel,
    })
}

fn log_live_wakes(generated: &mut SyscallLog, schedule: &mut ScheduleLog, wakes: &[Wake]) {
    for w in wakes {
        if abi::is_logged(w.num) {
            schedule.push_wake(w.tid);
            generated.push(SyscallLogEntry {
                tid: w.tid,
                num: w.num,
                arg_hash: request_hash_args(&w.req),
                ret: w.ret,
                effect: w.effect.clone(),
                via_wake: true,
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::DoublePlayConfig;
    use crate::record::thread_parallel::TpRunner;
    use crate::world::GuestSpec;

    /// A well-synchronized two-thread program (atomic increments):
    /// deterministic final memory under any schedule, and sync order is
    /// captured by the hint, so verification must always succeed.
    fn sync_spec() -> GuestSpec {
        crate::record::testutil::atomic_counter_spec(2000, 2)
    }

    /// Runs one tp epoch and the corresponding verify run.
    fn one_epoch(
        spec: &GuestSpec,
        config: &DoublePlayConfig,
    ) -> (EpOutcome, Checkpoint, Checkpoint) {
        let (mut machine, mut kernel) = spec.boot();
        let start = Checkpoint::capture(&machine, &kernel);
        let mut tp = TpRunner::new(config);
        let tp_out = tp
            .run_epoch(&mut machine, &mut kernel, 0, config.epoch_cycles)
            .unwrap();
        kernel.take_external();
        let next = Checkpoint::capture(&machine, &kernel);
        let ep = run_verify(
            &start,
            VerifyInputs {
                hint: &tp_out.hint,
                targets: &targets_of(&next.machine),
                log: &tp_out.syscalls,
                expected_hash: next.machine_hash,
                expected_machine: Some(&next.machine),
            },
        )
        .unwrap();
        (ep, start, next)
    }

    #[test]
    fn synchronized_epoch_verifies_cleanly() {
        let spec = sync_spec();
        let config = DoublePlayConfig::new(2).epoch_cycles(5_000);
        let (ep, _, next) = one_epoch(&spec, &config);
        assert_eq!(ep.divergence, None);
        assert_eq!(ep.end_hash, next.machine_hash);
        assert!(ep.instructions > 0);
        assert!(!ep.schedule.is_empty());
    }

    #[test]
    fn cancellable_verify_matches_plain_verify_and_honors_the_token() {
        let spec = sync_spec();
        let config = DoublePlayConfig::new(2).epoch_cycles(5_000);
        let (mut machine, mut kernel) = spec.boot();
        let start = Checkpoint::capture(&machine, &kernel);
        let mut tp = TpRunner::new(&config);
        let tp_out = tp
            .run_epoch(&mut machine, &mut kernel, 0, config.epoch_cycles)
            .unwrap();
        kernel.take_external();
        let next = Checkpoint::capture(&machine, &kernel);
        let targets = targets_of(&next.machine);
        let inputs = || VerifyInputs {
            hint: &tp_out.hint,
            targets: &targets,
            log: &tp_out.syscalls,
            expected_hash: next.machine_hash,
            expected_machine: Some(&next.machine),
        };
        let plain = run_verify(&start, inputs()).unwrap();
        let token = CancelToken::new();
        let stamp = token.current();
        let chunked = run_verify_cancellable(&start, inputs(), Some((&token, stamp)))
            .unwrap()
            .expect("live token must not cancel");
        assert_eq!(chunked.divergence, None);
        assert_eq!(chunked.end_hash, plain.end_hash);
        assert_eq!(chunked.cycles, plain.cycles);
        assert_eq!(chunked.instructions, plain.instructions);
        assert_eq!(chunked.schedule, plain.schedule);
        // A stale stamp cancels before any work happens.
        token.bump();
        assert!(token.is_stale(stamp));
        let cancelled = run_verify_cancellable(&start, inputs(), Some((&token, stamp))).unwrap();
        assert!(cancelled.is_none(), "stale job must be abandoned");
    }

    #[test]
    fn verify_runs_every_epoch_of_a_full_program() {
        let spec = sync_spec();
        let config = DoublePlayConfig::new(2).epoch_cycles(4_000);
        let (mut machine, mut kernel) = spec.boot();
        let mut tp = TpRunner::new(&config);
        let mut prev = Checkpoint::capture(&machine, &kernel);
        let mut t = 0;
        let mut epochs = 0;
        loop {
            let tp_out = tp
                .run_epoch(&mut machine, &mut kernel, t, config.epoch_cycles)
                .unwrap();
            t += tp_out.cycles;
            kernel.take_external();
            let next = Checkpoint::capture(&machine, &kernel);
            let ep = run_verify(
                &prev,
                VerifyInputs {
                    hint: &tp_out.hint,
                    targets: &targets_of(&next.machine),
                    log: &tp_out.syscalls,
                    expected_hash: next.machine_hash,
                    expected_machine: Some(&next.machine),
                },
            )
            .unwrap();
            assert_eq!(
                ep.divergence, None,
                "unexpected divergence at epoch {epochs}"
            );
            prev = next;
            epochs += 1;
            if tp_out.finished {
                break;
            }
            assert!(epochs < 200, "runaway");
        }
        assert!(epochs >= 2);
        assert_eq!(machine.halted(), Some(4000));
    }

    /// Three threads take turns on a futex-based mutex: contended
    /// acquisitions block in `FUTEX_WAIT` and complete through a logged
    /// wake, so the thread-parallel log holds both wake-delivered
    /// completions and completions at issue.
    fn mutexed_spec() -> GuestSpec {
        use dp_os::guest::Rt;
        use dp_os::kernel::WorldConfig;
        use dp_vm::builder::ProgramBuilder;
        use dp_vm::Reg;
        use std::sync::Arc;
        let mut pb = ProgramBuilder::new();
        let rt = Rt::install(&mut pb);
        let lock = pb.global("lock", 8);
        let counter = pb.global("counter", 8);
        let mut w = pb.function("worker");
        let top = w.label();
        let done = w.label();
        w.consti(Reg(10), 0);
        w.bind(top);
        w.bin(dp_vm::BinOp::Ltu, Reg(11), Reg(10), 300i64);
        w.jz(Reg(11), done);
        w.consti(Reg(0), lock as i64);
        w.call(rt.mutex_lock);
        w.consti(Reg(12), counter as i64);
        w.load(Reg(13), Reg(12), 0, dp_vm::Width::W8);
        w.add(Reg(13), Reg(13), 1i64);
        w.store(Reg(13), Reg(12), 0, dp_vm::Width::W8);
        w.consti(Reg(0), lock as i64);
        w.call(rt.mutex_unlock);
        w.add(Reg(10), Reg(10), 1i64);
        w.jmp(top);
        w.bind(done);
        w.consti(Reg(0), 0);
        w.syscall(abi::SYS_THREAD_EXIT);
        w.finish();
        let worker = pb.declare("worker");
        let mut f = pb.function("main");
        for _ in 0..3 {
            f.consti(Reg(0), worker.0 as i64);
            f.consti(Reg(1), 0);
            f.consti(Reg(2), 0);
            f.syscall(abi::SYS_SPAWN);
        }
        for t in 1..=3 {
            f.consti(Reg(0), t);
            f.syscall(abi::SYS_JOIN);
        }
        f.consti(Reg(9), counter as i64);
        f.load(Reg(0), Reg(9), 0, dp_vm::Width::W8);
        f.syscall(abi::SYS_EXIT);
        f.finish();
        GuestSpec::new(
            "mutexed",
            Arc::new(pb.finish("main")),
            WorldConfig::default(),
        )
    }

    #[test]
    fn contended_mutex_program_verifies_cleanly() {
        // Futex-based mutexes: acquisition order is captured via the atomic
        // and syscall sync points in the hint, so no divergence.
        let spec = mutexed_spec();
        for seed in 0..4 {
            let config = DoublePlayConfig {
                tp_quantum: 150,
                tp_jitter: 250,
                ..DoublePlayConfig::new(2)
                    .epoch_cycles(6_000)
                    .hidden_seed(seed)
            };
            let (mut machine, mut kernel) = spec.boot();
            let mut tp = TpRunner::new(&config);
            let mut prev = Checkpoint::capture(&machine, &kernel);
            let mut t = 0;
            loop {
                let tp_out = tp
                    .run_epoch(&mut machine, &mut kernel, t, config.epoch_cycles)
                    .unwrap();
                t += tp_out.cycles;
                kernel.take_external();
                let next = Checkpoint::capture(&machine, &kernel);
                let ep = run_verify(
                    &prev,
                    VerifyInputs {
                        hint: &tp_out.hint,
                        targets: &targets_of(&next.machine),
                        log: &tp_out.syscalls,
                        expected_hash: next.machine_hash,
                        expected_machine: Some(&next.machine),
                    },
                )
                .unwrap();
                assert_eq!(ep.divergence, None, "seed {seed} diverged: lock order lost");
                prev = next;
                if tp_out.finished {
                    break;
                }
            }
            assert_eq!(machine.halted(), Some(900));
        }
    }

    #[test]
    fn a_flipped_argument_digest_is_a_syscall_mismatch_on_its_thread() {
        // Walk the thread-parallel run to the first epoch whose log holds
        // both a wake-delivered completion and one made at issue.
        let spec = mutexed_spec();
        let config = DoublePlayConfig {
            tp_quantum: 150,
            tp_jitter: 250,
            ..DoublePlayConfig::new(2).epoch_cycles(6_000)
        };
        let (mut machine, mut kernel) = spec.boot();
        let mut tp = TpRunner::new(&config);
        let mut prev = Checkpoint::capture(&machine, &kernel);
        let mut t = 0;
        loop {
            let tp_out = tp
                .run_epoch(&mut machine, &mut kernel, t, config.epoch_cycles)
                .unwrap();
            t += tp_out.cycles;
            kernel.take_external();
            let next = Checkpoint::capture(&machine, &kernel);
            let entries = tp_out.syscalls.entries();
            let wake = entries.iter().position(|e| e.via_wake);
            let direct = entries.iter().position(|e| !e.via_wake);
            let (Some(wake), Some(direct)) = (wake, direct) else {
                assert!(!tp_out.finished, "no epoch logged both kinds of completion");
                prev = next;
                continue;
            };
            let targets = targets_of(&next.machine);
            let verify = |log: &SyscallLog| {
                let inputs = VerifyInputs {
                    hint: &tp_out.hint,
                    targets: &targets,
                    log,
                    expected_hash: next.machine_hash,
                    expected_machine: Some(&next.machine),
                };
                run_verify(&prev, inputs).unwrap().divergence
            };
            assert_eq!(verify(&tp_out.syscalls), None, "untouched log");
            for k in [wake, direct] {
                let flipped: SyscallLog = entries
                    .iter()
                    .enumerate()
                    .map(|(i, e)| SyscallLogEntry {
                        arg_hash: e.arg_hash ^ u64::from(i == k),
                        ..e.clone()
                    })
                    .collect();
                match verify(&flipped) {
                    Some(Divergence::SyscallMismatch { tid, .. }) if tid == entries[k].tid => {}
                    other => panic!(
                        "flipped digest of {:?}: expected a syscall mismatch, got {other:?}",
                        entries[k]
                    ),
                }
            }
            return;
        }
    }

    #[test]
    fn racy_epoch_reports_divergence() {
        // Unsynchronized increments: the hint cannot capture plain-access
        // interleavings, so some seed must diverge.
        let spec = crate::record::testutil::racy_counter_spec(5000);
        let mut diverged = false;
        for seed in 0..10u64 {
            let config = DoublePlayConfig {
                tp_quantum: 200,
                tp_jitter: 300,
                ..DoublePlayConfig::new(2)
                    .epoch_cycles(50_000)
                    .hidden_seed(seed)
            };
            let (ep, _, _) = one_epoch(&spec, &config);
            if ep.divergence.is_some() {
                diverged = true;
                break;
            }
        }
        assert!(diverged, "no seed produced a divergence");
    }

    #[test]
    fn live_mode_records_and_finishes() {
        let spec = sync_spec();
        let (machine, kernel) = spec.boot();
        let start = Checkpoint::capture(&machine, &kernel);
        let ep = run_live(&start, u64::MAX, 4_096, 0).unwrap();
        assert!(ep.finished);
        assert_eq!(ep.machine.halted(), Some(4000));
        assert_eq!(ep.divergence, None);
        // Deterministic: run again, same everything.
        let ep2 = run_live(&start, u64::MAX, 4_096, 0).unwrap();
        assert_eq!(ep2.end_hash, ep.end_hash);
        assert_eq!(ep2.schedule, ep.schedule);
    }

    #[test]
    fn live_mode_duration_bound_partitions_run() {
        let spec = sync_spec();
        let (machine, kernel) = spec.boot();
        let mut ckpt = Checkpoint::capture(&machine, &kernel);
        let mut segments = 0;
        let mut now = 0;
        loop {
            let ep = run_live(&ckpt, 3_000, 1_000, now).unwrap();
            now += ep.cycles;
            segments += 1;
            if ep.finished {
                assert_eq!(ep.machine.halted(), Some(4000));
                break;
            }
            ckpt = Checkpoint::capture(&ep.machine, &ep.kernel);
            assert!(segments < 1000, "runaway");
        }
        assert!(segments > 2);
    }

    #[test]
    fn divergence_kinds_have_names() {
        let kinds = [
            Divergence::SyscallMismatch {
                tid: Tid(0),
                detail: String::new(),
            }
            .kind(),
            Divergence::SliceMismatch {
                tid: Tid(0),
                detail: String::new(),
            }
            .kind(),
            Divergence::HashMismatch {
                expected: 0,
                actual: 1,
                first_difference: None,
            }
            .kind(),
        ];
        assert_eq!(kinds, ["syscall", "slice", "hash"]);
    }
}
