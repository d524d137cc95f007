//! The uniparallel coordinator: ties the thread-parallel and epoch-parallel
//! executions into one recording run.
//!
//! For each epoch the coordinator:
//!
//! 1. runs the thread-parallel execution one epoch forward (producing the
//!    next checkpoint and the epoch's syscall log);
//! 2. runs the epoch-parallel execution of that epoch in verify mode from
//!    the previous checkpoint;
//! 3. **commits** if the epoch-parallel end state matches the next
//!    checkpoint, releasing the epoch's external output; otherwise a
//!    **divergence** occurred (a data race resolved differently): the epoch
//!    is re-executed live on one CPU, its end state *becomes* the truth
//!    (forward recovery), and the thread-parallel side restarts from it.
//!
//! One loop drives these stages, `drive` in [`crate::record::pipelined`].
//! With spare workers it verifies epochs on real OS threads while the
//! thread-parallel front end speculates ahead; with none it is the same
//! loop with no worker threads, verifying each epoch inline, in lockstep.
//! The simulated-time [`crate::record::pipeline::WorkerPool`] models the
//! spare cores either way.
//!
//! Every piece of state that ends up in the recording or in the modeled
//! statistics is mutated only by the stage functions in this module
//! ([`charge_tp_side`], [`commit_clean`], `commit_record`,
//! [`retire_diverged`], [`record_serialized_epoch`]), applied in strict
//! epoch order, so the worker count never changes a recorded byte. The
//! recorded end-to-end runtime is the later of the two modeled timelines.
//!
//! Recording executes the guest only as recording needs. The native
//! baseline that overhead ratios divide by is a separate thread-parallel
//! run with recording work disabled (same hidden seed), [`measure_native`];
//! callers that report a ratio run it themselves.

use crate::checkpoint::{Checkpoint, EpochTargets};
use crate::config::DoublePlayConfig;
use crate::error::RecordError;
use crate::faults::{FaultPlan, INJECTED_PANIC_TAG};
use crate::journal::{NullSink, RecordSink};
use crate::logs::codec;
use crate::record::epoch_parallel::{
    run_live, run_verify_cancellable, CancelToken, EpOutcome, VerifyInputs,
};
use crate::record::pipeline::WorkerPool;
use crate::record::pipelined::drive;
use crate::record::thread_parallel::TpRunner;
use crate::recording::{EncodedLogs, EpochRecord, Recording, RecordingMeta};
use crate::stats::{RecorderStats, WallClockStats};
use crate::world::GuestSpec;
use dp_os::kernel::Kernel;
use dp_os::CostModel;
use dp_vm::Machine;
use std::collections::VecDeque;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;

/// A finished recording plus its measurements.
#[derive(Debug)]
pub struct RecordingBundle {
    /// The replayable artifact.
    pub recording: Recording,
    /// Overhead/log/divergence measurements.
    pub stats: RecorderStats,
}

/// Hard cap on recorded epochs (runaway-guest backstop).
pub(crate) const MAX_EPOCHS: u32 = 1_000_000;

/// How many times a panicked epoch worker is re-executed before the epoch
/// is declared unconvergeable ([`RecordError::DivergenceLoop`]).
const WORKER_RETRY_BUDGET: u32 = 3;

/// Sliding window (epochs) over which the divergence rate is observed.
const DEGRADE_WINDOW: usize = 8;
/// Divergences within the window that trigger serialized fallback.
const DEGRADE_THRESHOLD: usize = 4;
/// Epochs recorded serialized (single execution, no speculation) before
/// the coordinator attempts uniparallel recording again.
const SERIALIZED_EPOCHS: u32 = 8;

/// Records one execution of `spec` under `config`.
///
/// # Errors
///
/// Guest faults, true deadlocks, or budget exhaustion.
pub fn record(spec: &GuestSpec, config: &DoublePlayConfig) -> Result<RecordingBundle, RecordError> {
    record_to(spec, config, &mut NullSink)
}

/// Maps a durable-sink failure into the typed recorder error.
pub(crate) fn sink_err(e: std::io::Error) -> RecordError {
    RecordError::Sink {
        detail: e.to_string(),
    }
}

/// Records one execution of `spec` under `config`, streaming the recording
/// into `sink` as it is produced: the header (meta + boot state) before the
/// first epoch, then every epoch the moment it commits, then a completion
/// marker. With a [`crate::JournalWriter`] sink this makes the recording
/// crash-consistent — a run that dies mid-way leaves a journal from which
/// [`crate::JournalReader::salvage`] recovers every committed epoch.
///
/// With [`DoublePlayConfig::pipelined`] set, spare workers verify epochs on
/// real OS threads — same bytes, same modeled stats, less wall-clock time;
/// see [`crate::record::pipelined`].
///
/// # Errors
///
/// Everything [`record`] raises, plus [`RecordError::Sink`] when the sink
/// fails (torn write, full disk, failed flush). Sink faults never perturb
/// the guest: the epoch prefix committed before the failure is bit-exact
/// with the same run against a healthy sink.
pub fn record_to(
    spec: &GuestSpec,
    config: &DoublePlayConfig,
    sink: &mut dyn RecordSink,
) -> Result<RecordingBundle, RecordError> {
    let wall_start = Instant::now();
    let (s, machine, kernel) = boot_session(spec, config);
    sink.begin(&s.meta, &s.initial_image).map_err(sink_err)?;
    drive(s, config, sink, machine, kernel, &[], wall_start)
}

/// Committed state of a recording run: everything the strictly-in-order
/// retire stage reads and writes. Mutated only by the stage functions, so
/// inline and worker verification cannot disagree.
pub(crate) struct CommitState {
    pub stats: RecorderStats,
    pub epochs: Vec<EpochRecord>,
    pub pool: WorkerPool,
    /// Thread-parallel timeline (with recording costs), simulated cycles.
    pub tp_time: u64,
    /// Epoch-commit timeline, simulated cycles.
    pub commit_time: u64,
    /// Start checkpoint of the next epoch to retire. Authoritative: its
    /// digest is always the true machine hash.
    pub prev: Checkpoint,
}

/// Adaptive-epoch and degradation control: epoch sizing and the sliding
/// divergence window. The front end speculates it forward (assuming clean
/// commits) and restores a snapshot on rollback.
#[derive(Debug, Clone)]
pub(crate) struct ControlState {
    pub epoch_len: u64,
    pub clean_streak: u32,
    /// Recent divergence outcomes (true = diverged).
    pub window: VecDeque<bool>,
    /// Remaining epochs to record in degraded serialized mode.
    pub serialized_left: u32,
}

impl ControlState {
    pub fn new(config: &DoublePlayConfig) -> Self {
        ControlState {
            epoch_len: config.epoch_cycles,
            clean_streak: 0,
            window: VecDeque::new(),
            serialized_left: 0,
        }
    }

    /// Adaptive growth after a sustained clean streak.
    pub fn on_clean(&mut self, config: &DoublePlayConfig) {
        self.clean_streak += 1;
        if config.adaptive && self.clean_streak >= 8 {
            self.epoch_len = (self.epoch_len + self.epoch_len / 4).min(config.epoch_cycles * 8);
            self.clean_streak = 0;
        }
    }

    /// Adaptive shrink on a divergence.
    pub fn on_diverged(&mut self, config: &DoublePlayConfig) {
        self.clean_streak = 0;
        if config.adaptive {
            self.epoch_len = (self.epoch_len / 2)
                .max(config.epoch_cycles / 16)
                .max(1_000);
        }
    }

    /// Slides the divergence window; a saturated window switches the
    /// coordinator to serialized recording for a while, making the
    /// DivergenceLoop abort a genuine last resort. Only a divergence can
    /// trip the threshold, so the front end — which speculates clean
    /// outcomes — can never speculate *into* serialized mode.
    pub fn note_outcome(&mut self, diverged: bool) {
        self.window.push_back(diverged);
        if self.window.len() > DEGRADE_WINDOW {
            self.window.pop_front();
        }
        if self.window.iter().filter(|&&d| d).count() >= DEGRADE_THRESHOLD {
            self.serialized_left = SERIALIZED_EPOCHS;
            self.window.clear();
        }
    }
}

/// A recording run's shared context: the commit state plus the immutable
/// header produced at boot.
pub(crate) struct Session {
    pub commit: CommitState,
    pub cost: CostModel,
    pub meta: RecordingMeta,
    pub initial_image: crate::checkpoint::CheckpointImage,
}

/// Boots the guest and captures the initial checkpoint: the session a
/// fresh run writes its sink header from and a resumed run checks against
/// its journal's. Returns the session plus the live (mutable) world.
pub(crate) fn boot_session(
    spec: &GuestSpec,
    config: &DoublePlayConfig,
) -> (Session, Machine, Kernel) {
    let (mut machine, mut kernel) = spec.boot();
    if config.faults.is_active() {
        // Install before the initial checkpoint so the plan rides inside
        // every checkpoint and replay re-injects the same faults.
        kernel.set_io_faults(config.faults.io_faults());
    }
    machine.mem_mut().take_dirty();
    let initial = Checkpoint::capture(&machine, &kernel);
    let s = Session {
        cost: *kernel.cost_model(),
        meta: RecordingMeta {
            guest_name: spec.name.clone(),
            program_hash: spec.program_hash(),
            initial_machine_hash: initial.machine_hash,
            config: *config,
        },
        initial_image: initial.to_image(),
        commit: CommitState {
            stats: RecorderStats::default(),
            epochs: Vec::new(),
            pool: WorkerPool::new(config.spare_workers.max(1)),
            tp_time: 0,
            commit_time: 0,
            prev: initial,
        },
    };
    (s, machine, kernel)
}

/// Seals the run: completion marker, end-to-end timeline, fault count and
/// wall-clock stats. `kernel` is the final committed kernel (its fault
/// counters are part of the stats).
pub(crate) fn finish_session(
    mut s: Session,
    sink: &mut dyn RecordSink,
    kernel: &Kernel,
    wall: WallClockStats,
) -> Result<RecordingBundle, RecordError> {
    sink.finish().map_err(sink_err)?;
    s.commit.stats.recorded_cycles = s.commit.tp_time.max(s.commit.commit_time);
    s.commit.stats.io_faults = kernel.stats.injected_faults;
    s.commit.stats.wall = wall;
    Ok(RecordingBundle {
        recording: Recording {
            meta: s.meta,
            initial: s.initial_image,
            epochs: s.commit.epochs,
        },
        stats: s.commit.stats,
    })
}

/// Everything one thread-parallel epoch produced, carried from the submit
/// stage to the in-order retire stage.
pub(crate) struct EpochWork {
    pub index: u32,
    /// Guest clock at the epoch's start.
    pub epoch_start: u64,
    pub tp_cycles: u64,
    pub tp_instructions: u64,
    /// Pages dirtied by the epoch (checkpoint COW traffic).
    pub dirty: u64,
    pub syscalls: crate::logs::SyscallLog,
    pub hint: crate::logs::ScheduleLog,
    /// The world right after the epoch's thread-parallel run. Its digest is
    /// *deferred*: the verify stage computes it ([`execute_verify`]), and
    /// the retire stage attaches it when this state becomes the
    /// authoritative checkpoint.
    pub next_machine: Machine,
    pub next_kernel: Kernel,
}

/// Runs one thread-parallel epoch on the live world and packages the
/// result for the verify and retire stages.
pub(crate) fn run_tp_epoch(
    tp: &mut TpRunner<'_>,
    machine: &mut Machine,
    kernel: &mut Kernel,
    index: u32,
    epoch_start: u64,
    epoch_len: u64,
) -> Result<EpochWork, RecordError> {
    let tp_out = tp.run_epoch(machine, kernel, epoch_start, epoch_len)?;
    let dirty = machine.mem_mut().take_dirty().len() as u64;
    kernel.take_external(); // thread-parallel output is speculative only
    Ok(EpochWork {
        index,
        epoch_start,
        tp_cycles: tp_out.cycles,
        tp_instructions: tp_out.instructions,
        dirty,
        syscalls: tp_out.syscalls,
        hint: tp_out.hint,
        next_machine: machine.clone(),
        next_kernel: kernel.clone(),
    })
}

/// Borrowed inputs of one verify job: inline verification points these at
/// the commit state and the head epoch's work; a worker points them into
/// the owned job it received over the channel.
pub(crate) struct VerifyJobRef<'a> {
    pub index: u32,
    /// Start-of-epoch world. Only machine/kernel are read — the digest may
    /// be deferred (0).
    pub start: &'a Checkpoint,
    pub hint: &'a crate::logs::ScheduleLog,
    pub syscalls: &'a crate::logs::SyscallLog,
    pub targets: &'a EpochTargets,
    pub next_machine: &'a Machine,
}

/// How a verify attempt ended.
pub(crate) enum VerifyVerdict {
    /// The run completed; a divergence, if any, is inside the outcome.
    Done(Box<EpOutcome>),
    /// The worker panicked (injected or real); handled as a divergence.
    Panicked,
    /// A host-level error surfaced from the verify run.
    Failed(RecordError),
    /// A generation bump cancelled the job mid-run (workers only).
    Cancelled,
    /// A salvaged epoch the journal shows committed clean
    /// ([`journal_verdict`]).
    Journaled,
    /// A salvaged epoch the journal shows recovered live.
    JournaledDivergence,
}

/// Executes one verify job: computes the deferred end-state digest, then
/// runs the panic-isolated verify. This is the single verify entry point,
/// inline and on workers alike, so injected worker panics (keyed `(epoch,
/// attempt 0)` — a pure hash, deterministic under any thread interleaving)
/// and digest values never depend on which thread verified.
pub(crate) fn execute_verify(
    job: VerifyJobRef<'_>,
    plan: &FaultPlan,
    cancel: Option<(&CancelToken, u64)>,
) -> (u64, VerifyVerdict) {
    let expected_hash = job.next_machine.state_hash();
    let index = job.index;
    let run = catch_unwind(AssertUnwindSafe(|| {
        if plan.worker_panics(index, 0) {
            panic!("{INJECTED_PANIC_TAG} (epoch {index}, verify)");
        }
        run_verify_cancellable(
            job.start,
            VerifyInputs {
                hint: job.hint,
                targets: job.targets,
                log: job.syscalls,
                expected_hash,
                expected_machine: Some(job.next_machine),
            },
            cancel,
        )
    }));
    let verdict = match run {
        Ok(Ok(Some(ep))) => VerifyVerdict::Done(Box::new(ep)),
        Ok(Ok(None)) => VerifyVerdict::Cancelled,
        Ok(Err(e)) => VerifyVerdict::Failed(e),
        Err(_) => VerifyVerdict::Panicked,
    };
    (expected_hash, verdict)
}

/// The verdict a salvaged epoch's `record` gives its re-run
/// thread-parallel epoch, in place of a verify. It is clean iff the
/// original verify did not panic (injected ones are keyed `(epoch, attempt
/// 0)`) and both the end hash and the syscall log match the record; the log
/// closes the corner where a live recovery landed on the thread-parallel
/// hash.
pub(crate) fn journal_verdict(
    record: &EpochRecord,
    work: &EpochWork,
    plan: &FaultPlan,
) -> (u64, VerifyVerdict) {
    let tp_hash = work.next_machine.state_hash();
    let verdict = if plan.worker_panics(work.index, 0) {
        VerifyVerdict::Panicked
    } else if tp_hash == record.end_machine_hash && record.syscalls == work.syscalls {
        VerifyVerdict::Journaled
    } else {
        VerifyVerdict::JournaledDivergence
    };
    (tp_hash, verdict)
}

/// Thread-parallel-side accounting for one epoch, applied at the in-order
/// retire point. Returns the epoch's encoded syscall log — its length feeds
/// the cost model here, and [`commit_clean`] hands the same bytes to the
/// sink so the log is never encoded twice.
pub(crate) fn charge_tp_side(c: &mut CommitState, cost: &CostModel, work: &EpochWork) -> Vec<u8> {
    let sys_enc = codec::encode_syscalls(&work.syscalls);
    let ckpt_cost = cost.checkpoint(work.dirty);
    let tp_log_cost = cost.log_write(sys_enc.len() as u64);
    c.stats.tp_exec_cycles += work.tp_cycles;
    c.stats.tp_instructions += work.tp_instructions;
    c.stats.dirty_pages += work.dirty;
    c.stats.checkpoint_cycles += ckpt_cost;
    c.stats.log_write_cycles += tp_log_cost;
    c.tp_time += work.tp_cycles + ckpt_cost + tp_log_cost;
    sys_enc
}

/// Hash-side accounting for one retiring epoch's end machine: charges the
/// incremental digest (proportional to the pages the epoch dirtied, not the
/// resident footprint) and records the modeled hashed/skipped page split.
/// Every retire goes through this, so the counts are deterministic and
/// independent of the worker count — the real per-memory counters
/// ([`dp_vm::memory::HashStats`]) depend on which clone digests a shared
/// page first and serve tests only.
fn charge_state_hash(c: &mut CommitState, cost: &CostModel, machine: &Machine) -> u64 {
    let dirty = machine.mem().dirty().len() as u64;
    let resident = machine.mem().resident_pages() as u64;
    c.stats.hashed_pages += dirty;
    c.stats.hash_skipped_pages += resident.saturating_sub(dirty);
    cost.state_hash(dirty)
}

/// Commits a cleanly verified epoch: cost-model accounting, epoch record,
/// sink write, authoritative-checkpoint advance. `expected_hash` is the
/// digest of `work.next_machine` computed by the verify stage; `sys_enc` is
/// the encoded syscall log [`charge_tp_side`] produced, reused here for the
/// sink write.
#[allow(clippy::too_many_arguments)]
pub(crate) fn commit_clean(
    c: &mut CommitState,
    config: &DoublePlayConfig,
    cost: &CostModel,
    sink: &mut dyn RecordSink,
    work: EpochWork,
    ep: EpOutcome,
    expected_hash: u64,
    sys_enc: Vec<u8>,
) -> Result<(), RecordError> {
    let hash_cost = charge_state_hash(c, cost, &ep.machine);
    let sched_enc = codec::encode_schedule(&ep.schedule);
    let sched_bytes = sched_enc.len() as u64;
    let ep_task = ep.cycles + hash_cost + cost.log_write(sched_bytes);
    c.stats.ep_cycles += ep_task;
    c.stats.log_write_cycles += cost.log_write(sched_bytes);
    c.stats.schedule_bytes += sched_bytes;
    c.stats.syscall_bytes += sys_enc.len() as u64;
    let ready = c.tp_time;
    c.commit_time =
        finish_epoch_task(config, &mut c.tp_time, &mut c.pool, ep_task, ready).max(c.commit_time);
    let next = Checkpoint {
        machine: work.next_machine,
        kernel: work.next_kernel,
        machine_hash: expected_hash,
    };
    let record = EpochRecord {
        index: work.index,
        schedule: ep.schedule,
        syscalls: work.syscalls,
        end_machine_hash: expected_hash,
        external: ep.external,
        // The authoritative checkpoint moves into the record as the
        // epoch's start, and the epoch's end takes its place.
        start: std::mem::replace(&mut c.prev, next).into_image(),
        tp_cycles: work.tp_cycles,
    };
    let logs = EncodedLogs {
        schedule: sched_enc,
        syscalls: sys_enc,
    };
    sink.epoch_encoded(&record, &logs).map_err(sink_err)?;
    c.epochs.push(record);
    c.stats.committed += 1;
    c.stats.epochs += 1;
    Ok(())
}

/// Commits a salvaged epoch the journal shows committed clean: its
/// journaled `record`, with no verify and no sink write (the journal holds
/// it already), and makes `work`'s end state, whose digest is `hash`, the
/// authoritative checkpoint.
pub(crate) fn commit_record(c: &mut CommitState, record: EpochRecord, work: EpochWork, hash: u64) {
    c.epochs.push(record);
    c.prev = Checkpoint {
        machine: work.next_machine,
        kernel: work.next_kernel,
        machine_hash: hash,
    };
    c.stats.committed += 1;
    c.stats.epochs += 1;
}

/// The world a live re-execution leaves behind: the epoch's new truth,
/// which the front end restarts from.
pub(crate) struct Adopted {
    pub machine: Machine,
    pub kernel: Kernel,
    /// The epoch it ends.
    pub index: u32,
    /// Guest clock at its end: the epoch's start plus the single-CPU cycles
    /// the live run consumed.
    pub clock: u64,
}

/// Retires a diverged (or worker-panicked) epoch: accounts for the wasted
/// verify, re-executes the epoch live from the authoritative checkpoint,
/// records the live outcome, and returns the adopted world (forward
/// recovery). `verdict` says how the epoch failed: a diverged outcome, a
/// panicked worker, or a journaled divergence.
pub(crate) fn retire_diverged(
    c: &mut CommitState,
    config: &DoublePlayConfig,
    cost: &CostModel,
    sink: &mut dyn RecordSink,
    work: EpochWork,
    verdict: VerifyVerdict,
) -> Result<Adopted, RecordError> {
    c.stats.divergences += 1;
    // A panicked worker's progress is unknowable, and a journaled
    // divergence ran no verify: either is charged one epoch's worth of
    // wasted work. Only the panic is a worker retry.
    let verify_task = match verdict {
        VerifyVerdict::Done(ep) => ep.cycles + charge_state_hash(c, cost, &ep.machine),
        VerifyVerdict::Panicked => {
            c.stats.worker_retries += 1;
            work.tp_cycles
        }
        _ => work.tp_cycles,
    };
    let ready = c.tp_time;
    let detect = finish_epoch_task(config, &mut c.tp_time, &mut c.pool, verify_task, ready)
        .max(c.commit_time);
    c.stats.wasted_tp_cycles += detect.saturating_sub(c.tp_time);

    let duration = work.tp_cycles.saturating_mul(config.cpus as u64).max(1);
    let live = run_live_charged(c, config, cost, work.index, work.epoch_start, duration)?;
    c.stats.recovery_cycles += live.task;
    let mut resume = detect + live.task;
    if !config.forward_recovery {
        // Full rollback also re-runs the thread-parallel epoch.
        resume += work.tp_cycles;
        c.stats.wasted_tp_cycles += work.tp_cycles;
    }
    c.commit_time = resume;
    c.tp_time = resume;
    adopt(c, sink, work.tp_cycles, live)
}

/// Records one serialized (degraded-mode) epoch: a single uniprocessor-style
/// execution — nothing speculative, nothing to diverge. Slower (no
/// thread-parallelism) but guaranteed forward progress under a divergence
/// storm. Returns the adopted world.
pub(crate) fn record_serialized_epoch(
    c: &mut CommitState,
    config: &DoublePlayConfig,
    cost: &CostModel,
    sink: &mut dyn RecordSink,
    index: u32,
    epoch_start: u64,
    epoch_len: u64,
) -> Result<Adopted, RecordError> {
    let duration = epoch_len.saturating_mul(config.cpus as u64).max(1);
    let live = run_live_charged(c, config, cost, index, epoch_start, duration)?;
    c.stats.tp_instructions += live.out.instructions;
    c.tp_time += live.task;
    c.commit_time = c.commit_time.max(c.tp_time);
    c.stats.committed += 1;
    c.stats.serialized_epochs += 1;
    // There is no thread-parallel run: the record stores the live run's.
    let tp_cycles = live.out.cycles;
    adopt(c, sink, tp_cycles, live)
}

/// An epoch re-executed live, charged as epoch-parallel work but not yet
/// recorded.
struct Live {
    index: u32,
    /// Guest clock at the epoch's start.
    epoch_start: u64,
    out: EpOutcome,
    logs: EncodedLogs,
    /// Modeled worker time: the run, its state digest and its log writes.
    task: u64,
}

/// Re-executes epoch `index` live on one CPU for `duration` cycles from the
/// authoritative checkpoint and charges it as epoch-parallel work, its log
/// writes included: the first half of the tail a divergence retire and a
/// serialized epoch share.
fn run_live_charged(
    c: &mut CommitState,
    config: &DoublePlayConfig,
    cost: &CostModel,
    index: u32,
    epoch_start: u64,
    duration: u64,
) -> Result<Live, RecordError> {
    let out = run_live_guarded(c, config, index, duration, epoch_start)?;
    let logs = EncodedLogs {
        schedule: codec::encode_schedule(&out.schedule),
        syscalls: codec::encode_syscalls(&out.generated),
    };
    let (sched_bytes, sys_bytes) = (logs.schedule.len() as u64, logs.syscalls.len() as u64);
    let hash_cost = charge_state_hash(c, cost, &out.machine);
    let log_cost = cost.log_write(sched_bytes + sys_bytes);
    let task = out.cycles + hash_cost + log_cost;
    c.stats.ep_cycles += task;
    c.stats.log_write_cycles += log_cost;
    c.stats.schedule_bytes += sched_bytes;
    c.stats.syscall_bytes += sys_bytes;
    Ok(Live {
        index,
        epoch_start,
        out,
        logs,
        task,
    })
}

/// Records a live run as its epoch (storing `tp_cycles`) and adopts its end
/// world as the next authoritative checkpoint, moving it out of the outcome
/// — no full-world clones on the recovery path. The second half of the
/// shared tail.
fn adopt(
    c: &mut CommitState,
    sink: &mut dyn RecordSink,
    tp_cycles: u64,
    live: Live,
) -> Result<Adopted, RecordError> {
    let Live {
        index,
        epoch_start,
        out,
        logs,
        ..
    } = live;
    let EpOutcome {
        schedule,
        generated,
        machine,
        kernel,
        end_hash,
        external,
        cycles,
        ..
    } = out;
    c.epochs.push(EpochRecord {
        index,
        schedule,
        syscalls: generated,
        end_machine_hash: end_hash,
        external,
        start: std::mem::replace(&mut c.prev, Checkpoint::capture(&machine, &kernel)).into_image(),
        tp_cycles,
    });
    sink.epoch_encoded(c.epochs.last().expect("epoch just pushed"), &logs)
        .map_err(sink_err)?;
    c.stats.epochs += 1;
    Ok(Adopted {
        machine,
        kernel,
        index,
        clock: epoch_start + cycles,
    })
}

/// Runs the live (single-CPU) re-execution of epoch `index` from the
/// authoritative checkpoint with panic isolation: a worker that panics —
/// injected by a [`FaultPlan`] or real — is retried with a fresh attempt
/// number up to [`WORKER_RETRY_BUDGET`] times before the epoch is declared
/// unconvergeable.
fn run_live_guarded(
    c: &mut CommitState,
    config: &DoublePlayConfig,
    index: u32,
    duration: u64,
    base_now: u64,
) -> Result<EpOutcome, RecordError> {
    // Attempt 0 belongs to the verify pass of the same epoch, so injected
    // decisions there and here never alias.
    let mut attempt = 1u32;
    loop {
        let run = catch_unwind(AssertUnwindSafe(|| {
            if config.faults.worker_panics(index, attempt) {
                panic!("{INJECTED_PANIC_TAG} (epoch {index}, attempt {attempt})");
            }
            run_live(&c.prev, duration, config.ep_quantum, base_now)
        }));
        match run {
            Ok(result) => return result,
            Err(_) => {
                c.stats.worker_retries += 1;
                attempt += 1;
                if attempt > WORKER_RETRY_BUDGET {
                    return Err(RecordError::DivergenceLoop { epoch: index });
                }
            }
        }
    }
}

/// Accounts for one epoch-parallel task and returns its completion time.
/// With spare workers it runs on the pool; without, it steals time from the
/// thread-parallel cores (approximated as perfectly divisible work).
fn finish_epoch_task(
    config: &DoublePlayConfig,
    a: &mut u64,
    b: &mut WorkerPool,
    task: u64,
    ready: u64,
) -> u64 {
    let (tp_time, pool) = (a, b);
    if config.spare_workers > 0 {
        pool.schedule(ready, task)
    } else {
        *tp_time += task / config.cpus as u64 + 1;
        *tp_time
    }
}

/// Measures the native (unrecorded) runtime of `spec`: the same
/// thread-parallel execution with the same hidden seed and epoch-aligned
/// scheduling, but no checkpoint, log, or verification work.
///
/// # Errors
///
/// Guest faults, deadlocks, or budget exhaustion.
pub fn measure_native(spec: &GuestSpec, config: &DoublePlayConfig) -> Result<u64, RecordError> {
    let (mut machine, mut kernel) = spec.boot();
    if config.faults.is_active() {
        kernel.set_io_faults(config.faults.io_faults());
    }
    let mut tp = TpRunner::new(config);
    let mut t = 0u64;
    let mut instructions = 0u64;
    for _ in 0..MAX_EPOCHS {
        let out = tp.run_epoch(&mut machine, &mut kernel, t, config.epoch_cycles)?;
        t += out.cycles;
        instructions += out.instructions;
        if out.finished {
            return Ok(t);
        }
        if instructions > config.max_instructions {
            return Err(RecordError::BudgetExhausted);
        }
    }
    Err(RecordError::BudgetExhausted)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::journal::{JournalReader, JournalWriter};
    use crate::record::testutil::{atomic_counter_spec, compute_counter_spec, racy_counter_spec};
    use dp_os::FaultedSink;

    #[test]
    fn records_a_synchronized_program_without_divergence() {
        let spec = compute_counter_spec(3_000, 2);
        let config = DoublePlayConfig::new(2).epoch_cycles(25_000);
        let bundle = record(&spec, &config).unwrap();
        assert_eq!(bundle.stats.divergences, 0);
        assert!(bundle.stats.epochs >= 2);
        assert_eq!(bundle.stats.committed, bundle.stats.epochs);
        let native = measure_native(&spec, &config).unwrap();
        assert!(native > 0);
        assert!(bundle.stats.recorded_cycles >= native);
        // Overhead should be bounded for a clean run with spare cores
        // (the run is still short, so the pipeline tail is a large
        // fraction; benchmark-sized runs land in the tens of percent).
        assert!(
            bundle.stats.overhead(native) < 2.0,
            "overhead {} too large",
            bundle.stats.overhead(native)
        );
        // Lockstep recording measures wall time but starts no workers.
        assert!(bundle.stats.wall.wall_ns > 0);
        assert_eq!(bundle.stats.wall.workers, 0);
    }

    #[test]
    fn racy_program_records_with_divergences() {
        // With fine-grained interleaving some seed must diverge; recording
        // must still complete and stay internally consistent.
        let mut total_div = 0;
        for seed in 0..6 {
            let spec = racy_counter_spec(3000);
            let config = DoublePlayConfig {
                tp_quantum: 200,
                tp_jitter: 300,
                ..DoublePlayConfig::new(2)
                    .epoch_cycles(20_000)
                    .hidden_seed(seed)
            };
            let bundle = record(&spec, &config).unwrap();
            total_div += bundle.stats.divergences;
            assert_eq!(
                bundle.stats.committed + bundle.stats.divergences,
                bundle.stats.epochs
            );
        }
        assert!(total_div > 0, "no divergences across seeds");
    }

    #[test]
    fn recording_is_deterministic_given_seed() {
        let spec = atomic_counter_spec(1000, 2);
        let config = DoublePlayConfig::new(2).epoch_cycles(4_000);
        let a = record(&spec, &config).unwrap();
        let b = record(&spec, &config).unwrap();
        assert_eq!(a.stats, b.stats);
        assert_eq!(a.recording.epochs.len(), b.recording.epochs.len());
        for (ea, eb) in a.recording.epochs.iter().zip(&b.recording.epochs) {
            assert_eq!(ea.end_machine_hash, eb.end_machine_hash);
            assert_eq!(ea.schedule, eb.schedule);
        }
    }

    #[test]
    fn no_spare_cores_costs_more() {
        let spec = compute_counter_spec(5_000, 2);
        let spare = DoublePlayConfig::new(2).epoch_cycles(30_000);
        let shared = spare.spare_workers(0);
        let with_spare = record(&spec, &spare).unwrap();
        let without = record(&spec, &shared).unwrap();
        assert!(
            without.stats.recorded_cycles > with_spare.stats.recorded_cycles,
            "shared cores should be slower: {} vs {}",
            without.stats.recorded_cycles,
            with_spare.stats.recorded_cycles
        );
    }

    #[test]
    fn native_measurement_is_reproducible() {
        let spec = atomic_counter_spec(1500, 2);
        let config = DoublePlayConfig::new(2).epoch_cycles(6_000);
        assert_eq!(
            measure_native(&spec, &config).unwrap(),
            measure_native(&spec, &config).unwrap()
        );
    }

    #[test]
    fn budget_is_enforced() {
        let spec = atomic_counter_spec(100_000, 2);
        let config = DoublePlayConfig::new(2).max_instructions(10_000);
        assert!(matches!(
            record(&spec, &config),
            Err(RecordError::BudgetExhausted)
        ));
    }

    #[test]
    fn injected_worker_panics_are_retried_and_recording_survives() {
        crate::faults::silence_injected_panics();
        let spec = atomic_counter_spec(1500, 2);
        let plan = crate::faults::FaultPlan::none()
            .seed(5)
            .worker_panics_with(0.3);
        let config = DoublePlayConfig::new(2).epoch_cycles(4_000).faults(plan);
        let bundle = record(&spec, &config).unwrap();
        assert!(
            bundle.stats.worker_retries > 0,
            "p=0.3 over {} epochs injected nothing",
            bundle.stats.epochs
        );
        assert_eq!(
            bundle.stats.committed + bundle.stats.divergences,
            bundle.stats.epochs
        );
        // The surviving recording replays bit-exactly and preserves the
        // guest's observable result.
        let report = crate::replay::replay_sequential(&bundle.recording, &spec.program).unwrap();
        assert_eq!(report.epochs as u64, bundle.stats.epochs);
        assert_eq!(report.exit_code, Some(3000));
    }

    #[test]
    fn certain_worker_panics_exhaust_the_retry_budget() {
        crate::faults::silence_injected_panics();
        let spec = atomic_counter_spec(1000, 2);
        let plan = crate::faults::FaultPlan::none().worker_panics_with(1.0);
        let config = DoublePlayConfig::new(2).epoch_cycles(4_000).faults(plan);
        // Every verify and every live attempt panics: the bounded retry
        // budget must surface DivergenceLoop instead of looping forever.
        assert!(matches!(
            record(&spec, &config),
            Err(RecordError::DivergenceLoop { epoch: 0 })
        ));
    }

    #[test]
    fn journaled_recording_salvages_identical_to_the_in_memory_one() {
        let spec = atomic_counter_spec(1500, 2);
        let config = DoublePlayConfig::new(2).epoch_cycles(4_000);
        let mut journal = JournalWriter::new(Vec::new()).unwrap();
        let bundle = record_to(&spec, &config, &mut journal).unwrap();
        assert_eq!(
            u64::from(journal.epochs_committed()),
            bundle.stats.epochs,
            "every epoch must hit the journal"
        );
        let bytes = journal.into_inner();
        let salvaged = JournalReader::salvage(&bytes).unwrap();
        assert!(salvaged.clean);
        assert_eq!(salvaged.dropped_bytes, 0);
        assert_eq!(salvaged.committed(), bundle.recording.epochs.len());
        for (a, b) in salvaged
            .recording
            .epochs
            .iter()
            .zip(&bundle.recording.epochs)
        {
            assert_eq!(a.end_machine_hash, b.end_machine_hash);
            assert_eq!(a.schedule, b.schedule);
        }
        let report = crate::replay::replay_sequential(&salvaged.recording, &spec.program).unwrap();
        assert_eq!(report.epochs as u64, bundle.stats.epochs);
    }

    #[test]
    fn torn_sink_aborts_the_run_but_leaves_a_salvageable_prefix() {
        let spec = atomic_counter_spec(1500, 2);
        let config = DoublePlayConfig::new(2).epoch_cycles(4_000);
        // Reference run against a healthy sink: sink faults must not
        // perturb the guest, so the crash run's prefix must bit-match it.
        let mut healthy = JournalWriter::new(Vec::new()).unwrap();
        let reference = record_to(&spec, &config, &mut healthy).unwrap();
        let healthy_len = healthy.bytes_written();

        let torn_at = healthy_len * 2 / 3;
        let mut sink = JournalWriter::new(FaultedSink::new(
            Vec::new(),
            crate::faults::FaultPlan::none()
                .sink_torn_at(torn_at)
                .sink_faults(),
        ))
        .unwrap();
        match record_to(&spec, &config, &mut sink) {
            Err(RecordError::Sink { detail }) => assert!(detail.contains("torn")),
            other => panic!("expected Sink error, got {other:?}"),
        }
        let faulted = sink.into_inner();
        assert_eq!(faulted.durable_bytes(), torn_at);
        let salvaged = JournalReader::salvage(faulted.get_ref()).unwrap();
        assert!(!salvaged.clean);
        assert!(
            salvaged.committed() < reference.recording.epochs.len(),
            "torn at 2/3 must lose the tail"
        );
        for (a, b) in salvaged
            .recording
            .epochs
            .iter()
            .zip(&reference.recording.epochs)
        {
            assert_eq!(a.end_machine_hash, b.end_machine_hash);
        }
        crate::replay::replay_sequential(&salvaged.recording, &spec.program).unwrap();
    }

    /// A storm-test config: the base micro-slice covers a whole per-CPU
    /// epoch, so the thread-parallel interleaving degenerates to the same
    /// thread-ordered serialization the hint encodes — zero baseline
    /// divergence. A storm shrinks the slices 64x, making every storm epoch
    /// race-divergent. The small `ep_quantum` keeps recovery round-robin
    /// fair so no thread sprints to completion and ends the contention.
    fn storm_config(seed: u64) -> DoublePlayConfig {
        let plan = crate::faults::FaultPlan::none()
            .seed(seed)
            .storms(1.0, 4, 64);
        DoublePlayConfig {
            tp_quantum: 6_000,
            tp_jitter: 2_000,
            ..DoublePlayConfig::new(2)
                .epoch_cycles(6_000)
                .ep_quantum(512)
                .hidden_seed(seed)
                .faults(plan)
        }
    }

    #[test]
    fn divergence_storm_degrades_to_serialized_recording() {
        let spec = racy_counter_spec(8_000);
        // Storm: every epoch diverges until the sliding window trips and
        // the coordinator records serialized epochs instead of aborting.
        let bundle = record(&spec, &storm_config(3)).unwrap();
        assert_eq!(
            bundle.stats.committed + bundle.stats.divergences,
            bundle.stats.epochs
        );
        assert!(
            bundle.stats.divergences > 0,
            "storm produced no divergences"
        );
        assert!(
            bundle.stats.serialized_epochs > 0,
            "storm never engaged the serialized fallback: {} divergences over {} epochs",
            bundle.stats.divergences,
            bundle.stats.epochs
        );
        // Degraded or not, the recording must still replay exactly.
        let report = crate::replay::replay_sequential(&bundle.recording, &spec.program).unwrap();
        assert_eq!(report.epochs as u64, bundle.stats.epochs);
    }

    #[test]
    fn serialized_fallback_engages_under_some_seed() {
        // Across a few seeds the forced storm must trip the sliding-window
        // threshold at least once, proving the degradation path runs.
        let mut engaged = 0u64;
        for seed in 0..6 {
            let spec = racy_counter_spec(8_000);
            let bundle = record(&spec, &storm_config(seed)).unwrap();
            engaged += bundle.stats.serialized_epochs;
            let report =
                crate::replay::replay_sequential(&bundle.recording, &spec.program).unwrap();
            assert_eq!(report.epochs as u64, bundle.stats.epochs);
        }
        assert!(engaged > 0, "no seed engaged serialized fallback");
    }

    /// Every recorded log byte is charged as a log write, whichever path
    /// recorded it: a clean commit, a diverged epoch's live re-execution or
    /// a serialized epoch. With one cycle per byte, the charge is at least
    /// the recorded bytes; only diverged epochs' discarded thread-parallel
    /// syscall logs come on top.
    #[test]
    fn live_runs_charge_their_log_writes() {
        let mut spec = racy_counter_spec(3_000);
        spec.world.cost.log_byte = 8;
        let (mut diverged, mut serialized) = (false, false);
        for seed in 0..6 {
            let racy = DoublePlayConfig {
                tp_quantum: 200,
                tp_jitter: 300,
                ..DoublePlayConfig::new(2)
                    .epoch_cycles(20_000)
                    .hidden_seed(seed)
            };
            for config in [racy, storm_config(seed)] {
                let stats = record(&spec, &config).unwrap().stats;
                diverged |= stats.divergences > 0 && stats.serialized_epochs == 0;
                serialized |= stats.serialized_epochs > 0;
                let logged = stats.schedule_bytes + stats.syscall_bytes;
                assert!(
                    stats.log_write_cycles >= logged,
                    "seed {seed}: {} log-write cycles for {logged} recorded log bytes \
                     ({} divergences, {} serialized)",
                    stats.log_write_cycles,
                    stats.divergences,
                    stats.serialized_epochs
                );
            }
        }
        assert!(diverged && serialized, "both live paths must run");
    }

    #[test]
    fn full_rollback_records_and_replays_like_forward_recovery() {
        // forward_recovery(false) models the paper's rollback alternative:
        // the thread-parallel epoch is re-run too. It must cost at least as
        // much, diverge identically, and still produce an exact recording.
        let mut saw_divergence = false;
        for seed in 0..6 {
            let spec = racy_counter_spec(3_000);
            let base = DoublePlayConfig {
                tp_quantum: 200,
                tp_jitter: 300,
                ..DoublePlayConfig::new(2)
                    .epoch_cycles(20_000)
                    .hidden_seed(seed)
            };
            let rollback = base.forward_recovery(false);
            let fwd = record(&spec, &base).unwrap();
            let back = record(&spec, &rollback).unwrap();
            assert_eq!(fwd.stats.divergences, back.stats.divergences);
            if back.stats.divergences > 0 {
                saw_divergence = true;
                assert!(
                    back.stats.recorded_cycles >= fwd.stats.recorded_cycles,
                    "rollback cheaper than forward recovery: {} < {}",
                    back.stats.recorded_cycles,
                    fwd.stats.recorded_cycles
                );
                assert!(back.stats.wasted_tp_cycles >= fwd.stats.wasted_tp_cycles);
            }
            let r1 = crate::replay::replay_sequential(&back.recording, &spec.program).unwrap();
            let r2 = crate::replay::replay_sequential(&fwd.recording, &spec.program).unwrap();
            assert_eq!(r1.final_hash, r2.final_hash, "recovery modes disagree");
        }
        assert!(saw_divergence, "no seed diverged; rollback path untested");
    }
}
