//! The recording loop: uniparallelism on real spare cores, or in lockstep
//! when there are none.
//!
//! `drive` runs three stages. It starts one verify worker thread per
//! spare core when [`DoublePlayConfig::pipelined`] is set, and none
//! otherwise:
//!
//! * **submit** (this thread): the thread-parallel (TP) front end races
//!   ahead, up to one epoch per worker beyond the last retired one (one
//!   epoch with no workers). Each epoch's `(start checkpoint, TP outcome,
//!   targets)` is handed to the worker pool over a channel. Checkpoints
//!   taken here are *deferred* ([`Checkpoint::capture_deferred`]): the
//!   state digest — the dominant per-epoch cost — moves off the critical
//!   path.
//! * **verify** (worker threads): each worker dequeues a job, computes the
//!   deferred digest, and runs the panic-isolated verify
//!   ([`execute_verify`]). Workers finish out of order. With no workers the
//!   same loop builds no job and verifies the head epoch inline through
//!   the same entry point, from the commit state's checkpoint — at depth 1
//!   that is the epoch's start — so the TP run and its verify take turns.
//! * **commit** (this thread): epochs retire strictly in index order
//!   through the coordinator's stage functions, so the `RecordSink` sees
//!   the same byte sequence at every worker count.
//!
//! Every run starts at epoch 0 from the boot state. A resumed run also
//! hands the loop the epochs its salvaged journal committed: none of them
//! is submitted to a worker, and the commit stage reads each one's verdict
//! from the journal instead of verifying it.
//!
//! A divergence at epoch `k` invalidates every speculative epoch beyond
//! it: the [`CancelToken`] generation is bumped (workers poll it at event
//! boundaries and every few thousand instructions), in-flight state is
//! discarded, the TP runner and the adaptive-epoch control are rewound to
//! their post-`k` snapshots, live recovery runs, and the front end restarts
//! from the adopted world — exactly the state it would hold had it never
//! speculated past `k`.
//!
//! **Byte-identity invariant**: for any seed, workload, and fault plan,
//! every worker count produces the same `Recording` (and journal byte
//! stream) and the same modeled statistics; only the [`WallClockStats`]
//! measurements differ. Everything that feeds the recording is computed
//! either deterministically on this thread or as a pure function of the
//! job (`expected_hash`, the verify outcome), never as a function of worker
//! scheduling.

use crate::checkpoint::{targets_of, Checkpoint, EpochTargets};
use crate::config::DoublePlayConfig;
use crate::error::RecordError;
use crate::faults::FaultPlan;
use crate::journal::RecordSink;
use crate::logs::{ScheduleLog, SyscallLog};
use crate::record::coordinator::{
    charge_tp_side, commit_clean, commit_record, execute_verify, finish_session, journal_verdict,
    record_serialized_epoch, retire_diverged, run_tp_epoch, ControlState, EpochWork,
    RecordingBundle, Session, VerifyJobRef, VerifyVerdict, MAX_EPOCHS,
};
use crate::record::epoch_parallel::CancelToken;
use crate::record::thread_parallel::{TpRunner, TpSnapshot};
use crate::recording::EpochRecord;
use crate::stats::{WallClockStats, DEPTH_BUCKETS, MAX_TRACKED_WORKERS};
use dp_os::kernel::Kernel;
use dp_vm::Machine;
use std::collections::{BTreeMap, VecDeque};
use std::sync::mpsc;
use std::sync::{Arc, Mutex};
use std::thread;
use std::time::Instant;

/// One verify job, owned so it can cross the channel. The clones are cheap:
/// machine pages and kernel file contents are `Arc`-shared (copy-on-write).
struct VerifyJob {
    index: u32,
    /// Cancellation generation at submit time.
    stamp: u64,
    /// Start-of-epoch world (digest deferred — never read by verify).
    start: Checkpoint,
    hint: ScheduleLog,
    syscalls: SyscallLog,
    targets: EpochTargets,
    /// The TP end state whose digest the worker computes.
    next_machine: Machine,
}

/// A worker's answer, tagged so the commit stage can discard stale
/// generations and account busy time per worker.
struct VerifyDone {
    index: u32,
    stamp: u64,
    expected_hash: u64,
    verdict: VerifyVerdict,
    busy_ns: u64,
    worker: usize,
}

/// One speculative epoch awaiting retirement, with everything needed to
/// rewind past it.
struct Speculation {
    work: EpochWork,
    /// TP-runner state right after this epoch's TP run (what the front end
    /// would hold had it stopped there).
    tp_snap: TpSnapshot,
    /// Adaptive-epoch control right before this epoch's speculative
    /// clean-commit update.
    control_before: ControlState,
}

/// Verify-worker body: dequeue, check staleness, verify, report.
fn worker_loop(
    worker: usize,
    jobs: &Mutex<mpsc::Receiver<VerifyJob>>,
    results: &mpsc::Sender<VerifyDone>,
    cancel: &CancelToken,
    plan: &FaultPlan,
) {
    loop {
        // Hold the lock only for the dequeue; recv blocks at most one
        // worker while the others run jobs.
        let job = match jobs.lock().expect("job queue poisoned").recv() {
            Ok(j) => j,
            Err(_) => return, // submit side closed: drain complete
        };
        let begun = Instant::now();
        let (expected_hash, verdict) = if cancel.is_stale(job.stamp) {
            // Cancelled while queued: skip even the digest.
            (0, VerifyVerdict::Cancelled)
        } else {
            execute_verify(
                VerifyJobRef {
                    index: job.index,
                    start: &job.start,
                    hint: &job.hint,
                    syscalls: &job.syscalls,
                    targets: &job.targets,
                    next_machine: &job.next_machine,
                },
                plan,
                Some((cancel, job.stamp)),
            )
        };
        let done = VerifyDone {
            index: job.index,
            stamp: job.stamp,
            expected_hash,
            verdict,
            busy_ns: begun.elapsed().as_nanos() as u64,
            worker,
        };
        if results.send(done).is_err() {
            return; // commit side gone (error exit); nothing left to report to
        }
    }
}

/// Whether the guest has nothing left to run.
fn guest_done(machine: &Machine) -> bool {
    machine.halted().is_some() || machine.live_threads() == 0
}

/// The recording loop: records a run from epoch 0 and the boot state `s`,
/// `machine` and `kernel`. `prefix` holds the epochs a salvaged journal
/// already committed, empty for a fresh run. Each of them runs again as it
/// ran, submits no verify job, and takes its verdict from its record
/// ([`journal_verdict`]): a clean one commits the record with no sink
/// write, and a diverged or serialized one retires through the live tail
/// exactly as in a fresh run. So a resumed run rebuilds every piece of
/// carried state as the uninterrupted run built it.
pub(crate) fn drive(
    mut s: Session,
    config: &DoublePlayConfig,
    sink: &mut dyn RecordSink,
    mut machine: Machine,
    mut kernel: Kernel,
    prefix: &[EpochRecord],
    wall_start: Instant,
) -> Result<RecordingBundle, RecordError> {
    let workers = if config.pipelined {
        config.spare_workers
    } else {
        0
    };
    // Epochs in flight at once, counting the one the front end has just
    // run: one per worker, and one to verify inline when there are none.
    let depth = workers.max(1);
    let cancel = CancelToken::new();
    let mut tp = TpRunner::new(config);
    let mut control = ControlState::new(config);
    let mut wall = WallClockStats {
        workers: workers as u64,
        ..Default::default()
    };

    let (job_tx, job_rx) = mpsc::channel::<VerifyJob>();
    let (res_tx, res_rx) = mpsc::channel::<VerifyDone>();
    let job_rx = Arc::new(Mutex::new(job_rx));

    let drive = thread::scope(|scope| {
        let handles: Vec<_> = (0..workers)
            .map(|w| {
                let job_rx = Arc::clone(&job_rx);
                let res_tx = res_tx.clone();
                let cancel = &cancel;
                let plan = &config.faults;
                scope.spawn(move || worker_loop(w, &job_rx, &res_tx, cancel, plan))
            })
            .collect();
        // Workers hold clones; results end when the last worker exits.
        drop(res_tx);

        // In-flight speculation, oldest (next to retire) first.
        let mut inflight: VecDeque<Speculation> = VecDeque::new();
        // Verdicts that arrived ahead of their retirement turn.
        let mut stash: BTreeMap<u32, (u64, VerifyVerdict)> = BTreeMap::new();
        let mut next_index = 0u32;
        // Speculative guest clock / instruction count: what the committed
        // counters will read if everything in flight retires clean.
        let mut spec_clock = 0u64;
        let mut spec_instr = 0u64;
        let mut front_halted = guest_done(&machine);
        // A TP error is speculative until every earlier epoch retires
        // clean: a divergence below it rewinds past the error entirely.
        let mut front_err: Option<RecordError> = None;

        let outcome = loop {
            // Submit: race the TP front end ahead while there is depth.
            while front_err.is_none()
                && !front_halted
                && control.serialized_left == 0
                && inflight.len() < depth
                && spec_instr <= config.max_instructions
                && next_index < MAX_EPOCHS
            {
                let epoch_start = spec_clock;
                // A worker verifies from the epoch's start as the front end
                // leaves it; inline verification reads the commit state's,
                // and a salvaged epoch needs none.
                let start = (workers > 0 && next_index as usize >= prefix.len())
                    .then(|| Checkpoint::capture_deferred(&machine, &kernel));
                let work = match run_tp_epoch(
                    &mut tp,
                    &mut machine,
                    &mut kernel,
                    next_index,
                    epoch_start,
                    control.epoch_len,
                ) {
                    Ok(w) => w,
                    Err(e) => {
                        front_err = Some(e);
                        break;
                    }
                };
                wall.depth_histogram[inflight.len().min(DEPTH_BUCKETS - 1)] += 1;
                if let Some(start) = start {
                    let job = VerifyJob {
                        index: work.index,
                        stamp: cancel.current(),
                        start,
                        hint: work.hint.clone(),
                        syscalls: work.syscalls.clone(),
                        targets: targets_of(&work.next_machine),
                        next_machine: work.next_machine.clone(),
                    };
                    job_tx.send(job).expect("verify workers outlive the loop");
                }
                spec_clock += work.tp_cycles;
                spec_instr += work.tp_instructions;
                front_halted = guest_done(&machine);
                let tp_snap = tp.snapshot();
                let control_before = control.clone();
                // Speculate a clean commit (the only outcome that leaves
                // the pipeline running); rewound from `control_before` if
                // the epoch diverges instead.
                control.on_clean(config);
                control.note_outcome(false);
                inflight.push_back(Speculation {
                    work,
                    tp_snap,
                    control_before,
                });
                next_index += 1;
            }

            let adopted = if let Some(head) = inflight.front() {
                // Commit stage: read a salvaged head epoch's verdict from
                // the journal, verify the head epoch inline, or wait for its
                // worker's verdict, stashing later epochs' verdicts until
                // their turn.
                let head_index = head.work.index;
                let journaled = prefix.get(head_index as usize);
                let (expected_hash, verdict) = if let Some(record) = journaled {
                    journal_verdict(record, &head.work, &config.faults)
                } else if workers == 0 {
                    execute_verify(
                        VerifyJobRef {
                            index: head_index,
                            start: &s.commit.prev,
                            hint: &head.work.hint,
                            syscalls: &head.work.syscalls,
                            targets: &targets_of(&head.work.next_machine),
                            next_machine: &head.work.next_machine,
                        },
                        &config.faults,
                        None,
                    )
                } else {
                    loop {
                        if let Some(v) = stash.remove(&head_index) {
                            break v;
                        }
                        let done = res_rx
                            .recv()
                            .expect("workers hold the result channel while jobs are in flight");
                        wall.worker_busy_ns[done.worker.min(MAX_TRACKED_WORKERS - 1)] +=
                            done.busy_ns;
                        if cancel.is_stale(done.stamp) {
                            continue; // a cancelled generation's answer: time counted, result dropped
                        }
                        stash.insert(done.index, (done.expected_hash, done.verdict));
                    }
                };

                let head = inflight.pop_front().expect("checked non-empty");
                let sys_enc = charge_tp_side(&mut s.commit, &s.cost, &head.work);
                let verdict = match verdict {
                    VerifyVerdict::Done(ep) if ep.divergence.is_none() => {
                        // `control` already speculated this epoch's clean
                        // update at submit time.
                        if let Err(e) = commit_clean(
                            &mut s.commit,
                            config,
                            &s.cost,
                            sink,
                            head.work,
                            *ep,
                            expected_hash,
                            sys_enc,
                        ) {
                            break Err(e);
                        }
                        continue;
                    }
                    VerifyVerdict::Journaled => {
                        let record = prefix[head_index as usize].clone();
                        commit_record(&mut s.commit, record, head.work, expected_hash);
                        continue;
                    }
                    VerifyVerdict::Failed(e) => break Err(e),
                    VerifyVerdict::Cancelled => {
                        unreachable!("current-generation jobs are never cancelled")
                    }
                    diverged => diverged,
                };
                // Divergence (a panicked worker and a journaled divergence
                // included): everything speculated beyond this epoch is
                // invalid.
                wall.cancelled_epochs += inflight.len() as u64;
                cancel.bump();
                inflight.clear();
                stash.clear();
                front_err = None;
                tp.restore(head.tp_snap);
                control = head.control_before;
                control.on_diverged(config);
                control.note_outcome(true);
                retire_diverged(&mut s.commit, config, &s.cost, sink, head.work, verdict)
            } else {
                // The pipeline is drained: speculative conditions are now
                // authoritative.
                if let Some(e) = front_err.take() {
                    break Err(e);
                }
                if front_halted {
                    break Ok(());
                }
                if s.commit.stats.tp_instructions > config.max_instructions
                    || next_index >= MAX_EPOCHS
                {
                    break Err(RecordError::BudgetExhausted);
                }
                if control.serialized_left == 0 {
                    unreachable!("drained pipeline with nothing to do and no reason to stop");
                }
                // Degraded mode runs inline: it only engages at a
                // divergence retire, which always empties the pipeline
                // first, so there is never speculation to race with.
                control.serialized_left -= 1;
                record_serialized_epoch(
                    &mut s.commit,
                    config,
                    &s.cost,
                    sink,
                    next_index,
                    spec_clock,
                    control.epoch_len,
                )
            };
            // Both ways end in a live run, and the front end restarts
            // from the world it left.
            let adopted = match adopted {
                Ok(a) => a,
                Err(e) => break Err(e),
            };
            next_index = adopted.index + 1;
            spec_clock = adopted.clock;
            spec_instr = s.commit.stats.tp_instructions;
            front_halted = guest_done(&adopted.machine);
            machine = adopted.machine;
            kernel = adopted.kernel;
        };
        // Closing the job channel releases the workers. Each is joined
        // here rather than left to the scope, which returns once their
        // closures end while their threads may still be exiting: a thread
        // started meanwhile (a replay, the next recording) finds their
        // malloc arenas still taken and makes new ones, each keeping a few
        // MB resident.
        drop(job_tx);
        for h in handles {
            if let Err(panic) = h.join() {
                std::panic::resume_unwind(panic);
            }
        }
        outcome
    });

    // Workers are joined: collect busy time from any trailing results
    // (jobs that finished after their epoch was already retired or the
    // run aborted).
    while let Ok(done) = res_rx.try_recv() {
        wall.worker_busy_ns[done.worker.min(MAX_TRACKED_WORKERS - 1)] += done.busy_ns;
    }
    drive?;

    wall.wall_ns = wall_start.elapsed().as_nanos() as u64;
    finish_session(s, sink, &kernel, wall)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::journal::JournalWriter;
    use crate::record::coordinator::record_to;
    use crate::record::testutil::{atomic_counter_spec, compute_counter_spec, racy_counter_spec};
    use crate::world::GuestSpec;

    /// Records `spec` both ways and asserts byte-identical recordings,
    /// byte-identical journals, and equal modeled stats.
    fn assert_pipelined_matches_sequential(spec: &GuestSpec, config: &DoublePlayConfig) {
        let seq_cfg = config.pipelined(false);
        let pip_cfg = config.pipelined(true);
        let mut seq_journal = JournalWriter::new(Vec::new()).unwrap();
        let mut pip_journal = JournalWriter::new(Vec::new()).unwrap();
        let seq = record_to(spec, &seq_cfg, &mut seq_journal).unwrap();
        let pip = record_to(spec, &pip_cfg, &mut pip_journal).unwrap();
        assert_eq!(seq.stats, pip.stats, "modeled stats must match");
        let mut seq_bytes = Vec::new();
        let mut pip_bytes = Vec::new();
        seq.recording.save(&mut seq_bytes).unwrap();
        pip.recording.save(&mut pip_bytes).unwrap();
        assert_eq!(seq_bytes, pip_bytes, "recordings must be byte-identical");
        assert_eq!(
            seq_journal.into_inner(),
            pip_journal.into_inner(),
            "journals must be byte-identical"
        );
        assert_eq!(pip.stats.wall.workers as usize, config.spare_workers);
        assert_eq!(seq.stats.wall.workers, 0);
    }

    #[test]
    fn clean_run_is_byte_identical_to_sequential() {
        let spec = compute_counter_spec(3_000, 2);
        let config = DoublePlayConfig::new(2).epoch_cycles(25_000);
        assert_pipelined_matches_sequential(&spec, &config);
    }

    /// The pipelined commit stage feeding a *threaded* sharded sink —
    /// the intended production pairing: verify on spare cores, shard lane
    /// threads absorbing the journal flushes — still merges byte-identical
    /// to the lockstep recording.
    #[test]
    fn pipelined_into_threaded_sharded_journal_merges_identically() {
        let spec = atomic_counter_spec(4_000, 2);
        let config = DoublePlayConfig::new(2)
            .epoch_cycles(1_500)
            .spare_workers(2)
            .pipelined(true);
        let mut seq_journal = JournalWriter::new(Vec::new()).unwrap();
        let seq = record_to(&spec, &config.pipelined(false), &mut seq_journal).unwrap();
        let mut sharded = JournalWriter::threaded(
            (0..4).map(|_| Vec::new()).collect(),
            crate::journal::DEFAULT_SHARD_BATCH,
        )
        .unwrap();
        let pip = record_to(&spec, &config, &mut sharded).unwrap();
        assert_eq!(seq.stats, pip.stats);
        let streams = sharded.into_writers().unwrap();
        let merged = crate::journal::JournalReader::salvage_shards(&streams).unwrap();
        assert!(merged.clean, "detail: {}", merged.detail);
        let mut seq_bytes = Vec::new();
        let mut merged_bytes = Vec::new();
        seq.recording.save(&mut seq_bytes).unwrap();
        merged.recording.save(&mut merged_bytes).unwrap();
        assert_eq!(seq_bytes, merged_bytes);
    }

    #[test]
    fn divergent_runs_are_byte_identical_to_sequential() {
        for seed in 0..4 {
            let spec = racy_counter_spec(3_000);
            let config = DoublePlayConfig {
                tp_quantum: 200,
                tp_jitter: 300,
                ..DoublePlayConfig::new(2)
                    .epoch_cycles(20_000)
                    .hidden_seed(seed)
            };
            assert_pipelined_matches_sequential(&spec, &config);
        }
    }

    #[test]
    fn worker_panics_are_byte_identical_to_sequential() {
        crate::faults::silence_injected_panics();
        let spec = atomic_counter_spec(1_500, 2);
        let plan = crate::faults::FaultPlan::none()
            .seed(5)
            .worker_panics_with(0.3);
        let config = DoublePlayConfig::new(2).epoch_cycles(4_000).faults(plan);
        assert_pipelined_matches_sequential(&spec, &config);
    }

    #[test]
    fn budget_exhaustion_matches_sequential() {
        let spec = atomic_counter_spec(100_000, 2);
        let config = DoublePlayConfig::new(2)
            .max_instructions(10_000)
            .pipelined(true);
        assert!(matches!(
            crate::record::coordinator::record(&spec, &config),
            Err(RecordError::BudgetExhausted)
        ));
    }

    #[test]
    fn pipelined_run_reports_wall_measurements() {
        let spec = compute_counter_spec(3_000, 2);
        let config = DoublePlayConfig::new(2)
            .epoch_cycles(25_000)
            .pipelined(true);
        let bundle = crate::record::coordinator::record(&spec, &config).unwrap();
        let w = &bundle.stats.wall;
        assert!(w.wall_ns > 0);
        assert_eq!(w.workers as usize, config.spare_workers);
        assert!(w.busy_ns() > 0, "workers never ran a verify job");
        assert!(
            w.depth_histogram.iter().sum::<u64>() >= bundle.stats.committed,
            "every committed epoch was submitted through the pipeline"
        );
    }
}
