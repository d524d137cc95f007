//! Crash-resume: continue a recording run from its salvaged committed
//! prefix, byte-identical to a run that never crashed.
//!
//! A journal salvaged after a crash holds the committed epoch prefix, but
//! not the recorder's *cross-epoch* state: the thread-parallel runner's
//! hidden RNG, the atomic-ownership map, the adaptive-epoch control and
//! the guest clock. None of that is journaled (it is the hidden
//! nondeterminism the recorder must not depend on). Because a recording is
//! a deterministic function of guest, config and seed, it can be rebuilt
//! instead: [`resume_from`] boots the session the way a fresh run does and
//! records it through the same loop (`drive` in
//! [`crate::record::pipelined`]) from epoch 0, handing it the salvaged
//! epochs.
//!
//! The journal answers the verify question for the epochs it holds. A
//! salvaged epoch the journal shows committed clean (its thread-parallel
//! end hash and syscall log match the record, and no verify panic was
//! injected) skips the epoch-parallel verify pass, the dominant recording
//! cost, and commits its record. A diverged or serialized one re-runs its
//! single-CPU live execution, because its recorded state *is* that
//! execution's outcome. That skipped verify work is the "work saved" E17
//! measures against restart-from-zero.
//!
//! The loop records into a checking sink. It compares each salvaged epoch
//! the loop re-executes live with the journal's identity hash for it,
//! instead of writing it, and forwards every later epoch to the resumed
//! journal. Any disagreement (tampered journal, wrong seed, wrong program
//! build) surfaces as a typed [`ResumeError::PrefixDiverged`], never as a
//! silent wrong continuation.
//!
//! Modeled statistics of a resumed run cover the guest-visible counters
//! exactly (epochs, commits, divergences, serialized epochs, worker
//! retries, instructions) but not the epoch-parallel timing of the skipped
//! verifies; wall-clock measurements cover the resume itself.

use crate::checkpoint::CheckpointImage;
use crate::config::DoublePlayConfig;
use crate::error::ResumeError;
use crate::journal::RecordSink;
use crate::record::coordinator::{boot_session, RecordingBundle};
use crate::record::pipelined::drive;
use crate::recording::{EncodedLogs, EpochRecord, Recording, RecordingMeta};
use crate::world::GuestSpec;
use std::io;
use std::time::Instant;

/// Resumes a crashed recording run: records `spec` again from its boot
/// state through the same recording loop [`crate::record_to`] runs, with
/// `salvaged`'s committed prefix answering for the epochs it holds
/// (hash-checked epoch by epoch), and continues into `sink` from epoch
/// `salvaged.epochs.len()` onward.
///
/// `sink` must already hold the salvaged prefix — a
/// [`crate::JournalWriter::resume`] writer positioned at every stream's
/// truncation point. `resume_from` never calls [`RecordSink::begin`]:
/// the journal header the crashed incarnation wrote stays as-is, and the
/// appended epochs extend it byte-for-byte as an uninterrupted run would
/// have. A guest that completed inside the prefix (the crash hit between
/// the last epoch's commit and the FINAL marker becoming durable) only
/// seals the journal.
///
/// # Errors
///
/// [`ResumeError::BadPrefix`] when the prefix cannot belong to this
/// guest/config pairing, [`ResumeError::PrefixDiverged`] when a
/// re-executed epoch disagrees with a journaled identity hash, and
/// [`ResumeError::Record`] for ordinary recording failures.
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
    // from the wire encoding; everything else must match, or the resumed
    // run would diverge for config reasons, not tampering.
    if salvaged.meta.config.pipelined(false) != config.pipelined(false) {
        return Err(bad(
            "recorder configuration differs from the journal's".into()
        ));
    }
    if let Some((i, e)) = (0u32..).zip(&salvaged.epochs).find(|(i, e)| e.index != *i) {
        return Err(bad(format!(
            "salvaged epoch {} out of sequence (expected {i})",
            e.index
        )));
    }

    let (s, machine, kernel) = boot_session(spec, config);
    if s.meta.initial_machine_hash != salvaged.meta.initial_machine_hash {
        return Err(bad(format!(
            "boot state {:#x} does not match the journal's initial hash {:#x}",
            s.meta.initial_machine_hash, salvaged.meta.initial_machine_hash
        )));
    }
    let prefix = &salvaged.epochs;
    let mut check = PrefixCheck {
        prefix,
        journal: sink,
        diverged: None,
    };
    let run = drive(s, config, &mut check, machine, kernel, prefix, wall_start);
    run.map_err(|e| check.diverged.take().unwrap_or(ResumeError::Record(e)))
}

/// The sink a resumed run records through. The journal already holds the
/// salvaged prefix, so an epoch inside it that the loop re-executes live is
/// checked against the journal's end hash instead of written; every later
/// epoch, and the completion marker, go on to the resumed journal.
struct PrefixCheck<'a> {
    prefix: &'a [EpochRecord],
    journal: &'a mut dyn RecordSink,
    /// The disagreement that failed the run, surfaced in place of the sink
    /// error the loop sees.
    diverged: Option<ResumeError>,
}

impl PrefixCheck<'_> {
    /// Whether `epoch` lies past the salvaged prefix. One inside it must
    /// end where the journal says.
    fn past_prefix(&mut self, epoch: &EpochRecord) -> io::Result<bool> {
        let Some(e) = self.prefix.get(epoch.index as usize) else {
            return Ok(true);
        };
        if e.end_machine_hash == epoch.end_machine_hash {
            return Ok(false);
        }
        let diverged = ResumeError::PrefixDiverged {
            epoch: epoch.index,
            expected: e.end_machine_hash,
            actual: epoch.end_machine_hash,
        };
        let err = io::Error::other(diverged.to_string());
        self.diverged = Some(diverged);
        Err(err)
    }
}

impl RecordSink for PrefixCheck<'_> {
    fn begin(&mut self, meta: &RecordingMeta, initial: &CheckpointImage) -> io::Result<()> {
        self.journal.begin(meta, initial)
    }
    fn epoch(&mut self, epoch: &EpochRecord) -> io::Result<()> {
        if self.past_prefix(epoch)? {
            self.journal.epoch(epoch)?;
        }
        Ok(())
    }
    fn epoch_encoded(&mut self, epoch: &EpochRecord, logs: &EncodedLogs) -> io::Result<()> {
        if self.past_prefix(epoch)? {
            self.journal.epoch_encoded(epoch, logs)?;
        }
        Ok(())
    }
    fn finish(&mut self) -> io::Result<()> {
        self.journal.finish()
    }
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
