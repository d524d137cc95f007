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
//! piece of carried state, and then hands off to the recording loop
//! (`drive` in [`crate::record::pipelined`]) at the next epoch, with the
//! session booted by the same code a fresh run boots with.
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
    boot_session, charge_tp_side, run_live_guarded, run_tp_epoch, ControlState, RecordingBundle,
    MAX_EPOCHS,
};
use crate::record::pipelined::drive;
use crate::record::thread_parallel::TpRunner;
use crate::recording::Recording;
use crate::world::GuestSpec;
use std::time::Instant;

/// Resumes a crashed recording run: re-enacts `salvaged`'s committed
/// prefix through the deterministic VM (hash-checked epoch by epoch),
/// then continues recording epoch `salvaged.epochs.len()` onward into
/// `sink` through the same recording loop [`crate::record_to`] runs.
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

    let (mut s, mut machine, mut kernel) = boot_session(spec, config);
    if s.meta.initial_machine_hash != salvaged.meta.initial_machine_hash {
        return Err(bad(format!(
            "boot state {:#x} does not match the journal's initial hash {:#x}",
            s.meta.initial_machine_hash, salvaged.meta.initial_machine_hash
        )));
    }
    let commit = &mut s.commit;
    let mut tp = TpRunner::new(config);
    let mut control = ControlState::new(config);
    let mut guest_clock = 0u64;

    // Prefix re-enactment. Each salvaged epoch is replayed through the
    // thread-parallel side (and, where the original run fell back to a
    // live or serialized execution, through that same execution), with
    // the coordinator's carried state mutated exactly as the recording
    // loop mutated it.
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
        charge_tp_side(commit, &s.cost, &work);
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

    // A guest that completed inside the salvaged prefix (the crash hit
    // between the last epoch's commit and the FINAL marker becoming
    // durable) leaves the loop nothing to record: it seals the journal.
    let index = salvaged.epochs.len() as u32;
    drive(
        s,
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::journal::{JournalReader, JournalWriter};
    use crate::record::coordinator::record_to;
    use crate::record::testutil::racy_counter_spec;

    /// A pipelined run resumed from a torn journal — mid-run, or with every
    /// epoch committed but the completion marker torn — hands off to the
    /// recording loop with its workers and ends byte-identical to the
    /// uninterrupted run.
    #[test]
    fn pipelined_resume_hands_off_byte_identical() {
        let spec = racy_counter_spec(3_000);
        let config = DoublePlayConfig {
            tp_quantum: 200,
            tp_jitter: 300,
            ..DoublePlayConfig::new(2)
                .epoch_cycles(8_000)
                .hidden_seed(1)
                .pipelined(true)
        };
        let mut w = JournalWriter::new(Vec::new()).unwrap();
        let solo = record_to(&spec, &config, &mut w).unwrap();
        let full = w.into_inner();
        for cut in [full.len() / 2, full.len() - 1] {
            let s = JournalReader::salvage(&full[..cut]).unwrap();
            let salvaged = s.committed();
            let prefix = full[..s.keep[0].unwrap()].to_vec();
            let mut w = JournalWriter::resume(vec![prefix], 1, &s).unwrap();
            let bundle = resume_from(&spec, &config, s.recording, &mut w).unwrap();
            assert_eq!(w.into_inner(), full, "cut {cut}: resumed journal differs");
            assert_eq!(bundle.stats.wall.workers as usize, config.spare_workers);
            if cut == full.len() - 1 {
                assert_eq!(
                    salvaged,
                    solo.recording.epochs.len(),
                    "only the marker torn"
                );
            } else {
                assert!(
                    salvaged < solo.recording.epochs.len(),
                    "cut {cut} lost no epoch"
                );
            }
        }
    }
}
