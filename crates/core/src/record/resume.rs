//! Crash-resume: continue a recording run from its salvaged committed
//! prefix, byte-identical to a run that never crashed.
//!
//! A journal salvaged after a crash holds the committed epoch prefix —
//! but not the recorder's *cross-epoch* state: the thread-parallel
//! runner's hidden RNG, the atomic-ownership map, the adaptive-epoch
//! control, or the guest clock. None of that is journaled (it is exactly
//! the hidden nondeterminism the recorder must not depend on), so it
//! cannot be deserialized — but because the whole stack is deterministic
//! it can be **re-enacted**: [`resume_from`] re-runs the thread-parallel
//! side over the salvaged prefix epoch by epoch, reconstructing every
//! piece of carried state, and then re-enters the normal
//! sequential/pipelined coordinator at the next epoch.
//!
//! The re-enactment is cheaper than the original run: each prefix epoch
//! is classified against the journal, and the epoch-parallel *verify*
//! pass — the dominant recording cost — is skipped entirely for epochs
//! the journal shows committed clean (the thread-parallel end hash and
//! syscall log match the record). Only diverged and serialized epochs
//! re-run their single-CPU live execution, because their recorded state
//! *is* that live execution's outcome. That skipped verify work is the
//! "work saved" E17 measures against restart-from-zero.
//!
//! Every re-enacted epoch is hash-checked against the journal's identity
//! hash for it. Any disagreement — tampered journal, wrong seed, wrong
//! program build — surfaces as a typed
//! [`ResumeError::PrefixDiverged`], never as a silent wrong continuation.
//!
//! Modeled statistics of a resumed run cover the guest-visible counters
//! exactly (epochs, commits, divergences, instructions, the guest clock)
//! but not the epoch-parallel timing of the skipped verifies; wall-clock
//! measurements cover the resume itself.

use crate::checkpoint::Checkpoint;
use crate::config::DoublePlayConfig;
use crate::error::{RecordError, ResumeError};
use crate::journal::RecordSink;
use crate::record::coordinator::{
    charge_tp_side, drive_sequential, finish_session, run_live_guarded, run_tp_epoch, CommitState,
    ControlState, RecordingBundle, Session, MAX_EPOCHS,
};
use crate::record::pipeline::WorkerPool;
use crate::record::pipelined::drive_pipelined;
use crate::record::thread_parallel::TpRunner;
use crate::recording::{Recording, RecordingMeta};
use crate::stats::{RecorderStats, WallClockStats};
use crate::world::GuestSpec;
use std::time::Instant;

/// Resumes a crashed recording run: re-enacts `salvaged`'s committed
/// prefix through the deterministic VM (hash-checked epoch by epoch),
/// then continues recording epoch `salvaged.epochs.len()` onward into
/// `sink` under the normal pipelined/sequential coordinator.
///
/// `sink` must already hold the salvaged prefix — a
/// [`crate::JournalWriter::resume`] writer positioned at every stream's
/// truncation point. `resume_from` never calls [`RecordSink::begin`]:
/// the journal header the crashed incarnation wrote stays as-is, and the
/// appended epochs extend it byte-for-byte as an uninterrupted run would
/// have.
///
/// # Errors
///
/// [`ResumeError::BadPrefix`] when the prefix cannot belong to this
/// guest/config pairing, [`ResumeError::PrefixDiverged`] when
/// re-enactment disagrees with a journaled identity hash, and
/// [`ResumeError::Record`] for ordinary recording failures before or
/// after the hand-off.
pub fn resume_from(
    spec: &GuestSpec,
    config: &DoublePlayConfig,
    salvaged: Recording,
    sink: &mut dyn RecordSink,
) -> Result<RecordingBundle, ResumeError> {
    let wall_start = Instant::now();
    let bad = |detail: String| ResumeError::BadPrefix { detail };

    if salvaged.meta.guest_name != spec.name {
        return Err(bad(format!(
            "journal records guest '{}', offered '{}'",
            salvaged.meta.guest_name, spec.name
        )));
    }
    let program_hash = spec.program_hash();
    if salvaged.meta.program_hash != program_hash {
        return Err(bad(format!(
            "journal records program {:#x}, offered {program_hash:#x}",
            salvaged.meta.program_hash
        )));
    }
    // `pipelined` is an execution-strategy knob deliberately excluded
    // from the wire encoding; everything else must match, or the
    // re-enactment would diverge for config reasons, not tampering.
    if salvaged.meta.config.pipelined(false) != config.pipelined(false) {
        return Err(bad(
            "recorder configuration differs from the journal's".into()
        ));
    }

    let (mut machine, mut kernel) = spec.boot();
    if config.faults.is_active() {
        kernel.set_io_faults(config.faults.io_faults());
    }
    machine.mem_mut().take_dirty();
    let cost = *kernel.cost_model();
    let initial = Checkpoint::capture(&machine, &kernel);
    if initial.machine_hash != salvaged.meta.initial_machine_hash {
        return Err(bad(format!(
            "boot state {:#x} does not match the journal's initial hash {:#x}",
            initial.machine_hash, salvaged.meta.initial_machine_hash
        )));
    }
    let meta = RecordingMeta {
        guest_name: spec.name.clone(),
        program_hash,
        initial_machine_hash: initial.machine_hash,
        config: *config,
    };
    let initial_image = initial.to_image();
    let mut commit = CommitState {
        stats: RecorderStats::default(),
        epochs: Vec::new(),
        pool: WorkerPool::new(config.spare_workers.max(1)),
        tp_time: 0,
        commit_time: 0,
        prev: initial,
    };
    let mut tp = TpRunner::new(config);
    let mut control = ControlState::new(config);
    let mut guest_clock = 0u64;

    // Prefix re-enactment. Each salvaged epoch is replayed through the
    // thread-parallel side (and, where the original run fell back to a
    // live or serialized execution, through that same execution), with
    // the coordinator's carried state mutated exactly as the original
    // drivers would have mutated it.
    for (i, e) in salvaged.epochs.iter().enumerate() {
        let index = i as u32;
        if e.index != index {
            return Err(bad(format!(
                "salvaged epoch {} out of sequence (expected {index})",
                e.index
            )));
        }
        if commit.stats.tp_instructions > config.max_instructions || index >= MAX_EPOCHS {
            return Err(ResumeError::Record(RecordError::BudgetExhausted));
        }
        let epoch_start = guest_clock;

        if control.serialized_left > 0 {
            // The original run recorded this epoch in degraded serialized
            // mode; its journaled state is that single execution's
            // outcome, so re-run it with identical parameters.
            control.serialized_left -= 1;
            let duration = control.epoch_len.saturating_mul(config.cpus as u64).max(1);
            let live = run_live_guarded(
                &config.faults,
                &mut commit.stats,
                index,
                &commit.prev,
                duration,
                config.ep_quantum,
                epoch_start,
            )?;
            if live.end_hash != e.end_machine_hash {
                return Err(ResumeError::PrefixDiverged {
                    epoch: index,
                    expected: e.end_machine_hash,
                    actual: live.end_hash,
                });
            }
            commit.stats.tp_instructions += live.instructions;
            commit.stats.serialized_epochs += 1;
            commit.stats.committed += 1;
            commit.stats.epochs += 1;
            guest_clock = epoch_start + live.cycles;
            commit.prev = Checkpoint::capture(&live.machine, &live.kernel);
            commit.epochs.push(e.clone());
            machine = live.machine;
            kernel = live.kernel;
            continue;
        }

        let work = run_tp_epoch(
            &mut tp,
            &mut machine,
            &mut kernel,
            index,
            epoch_start,
            control.epoch_len,
        )?;
        guest_clock += work.tp_cycles;
        charge_tp_side(&mut commit, &cost, &work);
        let tp_hash = work.next_machine.state_hash();
        // Clean iff the original epoch committed its thread-parallel
        // state: no injected verify panic (keyed (epoch, attempt 0) —
        // replayable from the plan in the journaled config), matching end
        // hash, *and* matching syscall log. The log comparison closes the
        // corner where a divergence's live recovery coincidentally landed
        // on the thread-parallel hash.
        let clean = !config.faults.worker_panics(index, 0)
            && tp_hash == e.end_machine_hash
            && e.syscalls == work.syscalls;
        if clean {
            // The verify pass is skipped — this is the work resume saves.
            commit.prev = Checkpoint {
                machine: work.next_machine,
                kernel: work.next_kernel,
                machine_hash: tp_hash,
            };
            commit.stats.committed += 1;
            commit.stats.epochs += 1;
            commit.epochs.push(e.clone());
            control.on_clean(config);
            control.note_outcome(false);
        } else {
            // The original epoch diverged (or its verify worker panicked)
            // and forward recovery adopted the live re-execution's state:
            // re-run that same live execution and check it against the
            // journal.
            if config.faults.worker_panics(index, 0) {
                commit.stats.worker_retries += 1;
            }
            commit.stats.divergences += 1;
            control.on_diverged(config);
            let duration = work.tp_cycles.saturating_mul(config.cpus as u64).max(1);
            let live = run_live_guarded(
                &config.faults,
                &mut commit.stats,
                index,
                &commit.prev,
                duration,
                config.ep_quantum,
                epoch_start,
            )?;
            if live.end_hash != e.end_machine_hash {
                return Err(ResumeError::PrefixDiverged {
                    epoch: index,
                    expected: e.end_machine_hash,
                    actual: live.end_hash,
                });
            }
            commit.stats.epochs += 1;
            guest_clock = epoch_start + live.cycles;
            commit.prev = Checkpoint::capture(&live.machine, &live.kernel);
            commit.epochs.push(e.clone());
            machine = live.machine;
            kernel = live.kernel;
            control.note_outcome(true);
        }
    }

    let index = salvaged.epochs.len() as u32;
    let s = Session {
        commit,
        cost,
        meta,
        initial_image,
    };
    if machine.halted().is_some() || machine.live_threads() == 0 {
        // The guest completed inside the salvaged prefix: the crash hit
        // between the last epoch's commit and the FINAL marker becoming
        // durable. Nothing to record — seal the journal.
        let wall = WallClockStats {
            wall_ns: wall_start.elapsed().as_nanos() as u64,
            ..Default::default()
        };
        return finish_session(s, spec, config, sink, &kernel, wall).map_err(ResumeError::Record);
    }
    if config.pipelined && config.spare_workers > 0 {
        drive_pipelined(
            s,
            spec,
            config,
            sink,
            machine,
            kernel,
            tp,
            control,
            guest_clock,
            index,
            wall_start,
        )
        .map_err(ResumeError::Record)
    } else {
        drive_sequential(
            s,
            spec,
            config,
            sink,
            machine,
            kernel,
            tp,
            control,
            guest_clock,
            index,
            wall_start,
        )
        .map_err(ResumeError::Record)
    }
}
