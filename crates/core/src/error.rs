//! Errors surfaced by recording and replay.

use dp_vm::{Fault, Tid};
use std::fmt;

/// Errors raised while recording an execution.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RecordError {
    /// A guest thread faulted (the guest program is buggy; faults are
    /// deterministic, so this is not a recorder failure).
    Guest(Fault),
    /// The guest deadlocked: no runnable threads and no future events.
    Deadlock {
        /// Live (blocked) threads at the deadlock.
        blocked: usize,
    },
    /// The per-run instruction budget was exhausted.
    BudgetExhausted,
    /// The recorder hit its bound on consecutive divergences for one epoch,
    /// which indicates a recorder bug rather than ordinary races.
    DivergenceLoop {
        /// Epoch index that would not converge.
        epoch: u32,
    },
    /// The durable sink the recording journal streams to failed (torn
    /// write, full disk, failed flush). Epochs committed to the journal
    /// before the failure remain salvageable; the run itself is over.
    Sink {
        /// The underlying sink error, formatted.
        detail: String,
    },
}

impl fmt::Display for RecordError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RecordError::Guest(fault) => write!(f, "guest fault while recording: {fault}"),
            RecordError::Deadlock { blocked } => {
                write!(
                    f,
                    "guest deadlock while recording ({blocked} threads blocked)"
                )
            }
            RecordError::BudgetExhausted => write!(f, "recording instruction budget exhausted"),
            RecordError::DivergenceLoop { epoch } => {
                write!(
                    f,
                    "epoch {epoch} failed to converge after repeated divergence"
                )
            }
            RecordError::Sink { detail } => {
                write!(f, "recording journal sink failed: {detail}")
            }
        }
    }
}

impl std::error::Error for RecordError {}

/// Errors raised while serializing a recording.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SaveError {
    /// The recording has more epochs than the container's u32 epoch count
    /// can represent; saving would silently truncate the tail.
    TooManyEpochs {
        /// The unencodable epoch count.
        count: usize,
    },
    /// The underlying writer failed.
    Io {
        /// The underlying I/O error, formatted.
        detail: String,
    },
}

impl fmt::Display for SaveError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SaveError::TooManyEpochs { count } => {
                write!(f, "{count} epochs exceed the container's u32 epoch count")
            }
            SaveError::Io { detail } => write!(f, "recording write failed: {detail}"),
        }
    }
}

impl std::error::Error for SaveError {}

impl From<std::io::Error> for SaveError {
    fn from(e: std::io::Error) -> Self {
        SaveError::Io {
            detail: e.to_string(),
        }
    }
}

impl From<Fault> for RecordError {
    fn from(fault: Fault) -> Self {
        RecordError::Guest(fault)
    }
}

/// Errors raised while replaying a recording. Any of these mean the replay
/// does not reproduce the recorded execution — the failure deterministic
/// replay is designed to make impossible, so they indicate corruption or a
/// mismatched program/world.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ReplayError {
    /// The supplied program does not match the recording's program hash.
    ProgramMismatch {
        /// Hash stored in the recording.
        expected: u64,
        /// Hash of the supplied program.
        actual: u64,
    },
    /// A schedule-log slice could not be followed (thread not runnable or
    /// wrong instruction count).
    ScheduleMismatch {
        /// Epoch where the mismatch occurred.
        epoch: u32,
        /// Thread the schedule named.
        tid: Tid,
        /// Description of the mismatch.
        detail: String,
    },
    /// A syscall trap did not match the next log entry for its thread.
    LogMismatch {
        /// Epoch where the mismatch occurred.
        epoch: u32,
        /// Thread whose syscall mismatched.
        tid: Tid,
        /// Description of the mismatch.
        detail: String,
    },
    /// The replayed epoch's final state hash differs from the recording.
    HashMismatch {
        /// Epoch whose end state differed.
        epoch: u32,
        /// Hash stored in the recording.
        expected: u64,
        /// Hash produced by the replay.
        actual: u64,
    },
    /// A guest fault occurred at a point where the recording had none.
    Guest(Fault),
    /// The recording has no stored checkpoints but a parallel replay was
    /// requested, or an epoch index was out of range.
    BadRequest {
        /// Description of the unusable request.
        detail: String,
    },
    /// The container is intact but written by an incompatible format
    /// version — a file from an older (or newer) build, not corruption.
    /// Distinguished from [`ReplayError::Corrupt`] so tooling can tell
    /// "re-record with this build" apart from "the bytes are damaged".
    UnsupportedVersion {
        /// Which container the file's magic names.
        container: &'static str,
        /// Version stored in the file.
        found: u32,
        /// Version this build reads and writes.
        expected: u32,
    },
    /// The recording container is corrupt: bad magic, a failed per-section
    /// CRC32, or an undecodable payload.
    Corrupt {
        /// What failed to validate.
        detail: String,
    },
    /// Reading the recording container from its source failed.
    Io {
        /// The underlying I/O error, formatted.
        detail: String,
    },
    /// A replay worker panicked and exhausted its retry budget (or died
    /// outside an epoch).
    WorkerPanicked {
        /// Epoch being replayed when the worker died, if known.
        epoch: Option<u32>,
    },
}

impl fmt::Display for ReplayError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ReplayError::ProgramMismatch { expected, actual } => write!(
                f,
                "program hash {actual:#x} does not match recording ({expected:#x})"
            ),
            ReplayError::ScheduleMismatch { epoch, tid, detail } => {
                write!(f, "schedule mismatch in epoch {epoch} on {tid}: {detail}")
            }
            ReplayError::LogMismatch { epoch, tid, detail } => {
                write!(f, "syscall log mismatch in epoch {epoch} on {tid}: {detail}")
            }
            ReplayError::HashMismatch {
                epoch,
                expected,
                actual,
            } => write!(
                f,
                "state hash mismatch at end of epoch {epoch}: expected {expected:#x}, got {actual:#x}"
            ),
            ReplayError::Guest(fault) => write!(f, "unexpected guest fault in replay: {fault}"),
            ReplayError::BadRequest { detail } => write!(f, "bad replay request: {detail}"),
            ReplayError::UnsupportedVersion {
                container,
                found,
                expected,
            } => write!(
                f,
                "unsupported {container} format version {found} (this build reads version {expected})"
            ),
            ReplayError::Corrupt { detail } => write!(f, "corrupt recording: {detail}"),
            ReplayError::Io { detail } => write!(f, "recording i/o error: {detail}"),
            ReplayError::WorkerPanicked { epoch: Some(e) } => {
                write!(f, "replay worker panicked in epoch {e} (retries exhausted)")
            }
            ReplayError::WorkerPanicked { epoch: None } => {
                write!(f, "replay worker panicked outside an epoch")
            }
        }
    }
}

impl std::error::Error for ReplayError {}

impl From<Fault> for ReplayError {
    fn from(fault: Fault) -> Self {
        ReplayError::Guest(fault)
    }
}

/// Errors raised while resuming a crashed recording run from its salvaged
/// committed prefix. Resume records the run again through the
/// deterministic VM and checks every salvaged epoch against the journal,
/// so a journal that does not belong to the offered guest/config —
/// tampered, trimmed, or simply someone else's — surfaces as a typed error
/// here, never as a silently wrong continuation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ResumeError {
    /// Re-executing a salvaged epoch produced an end-of-epoch state that
    /// disagrees with the journal's identity hash for that epoch: the
    /// journal was recorded by a different execution (tampered hashes,
    /// wrong seed, wrong program build).
    PrefixDiverged {
        /// Epoch whose re-executed state differed.
        epoch: u32,
        /// Hash the journal stores for the epoch.
        expected: u64,
        /// Hash the re-execution produced.
        actual: u64,
    },
    /// The salvaged prefix cannot belong to the offered guest/config
    /// pairing: mismatched program hash, initial state, or recorder
    /// configuration, out-of-sequence epoch indices, or a journal too
    /// damaged to salvage at all.
    BadPrefix {
        /// What failed to line up.
        detail: String,
    },
    /// The recorder failed while recording the prefix again or continuing
    /// the run past it.
    Record(RecordError),
}

impl fmt::Display for ResumeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ResumeError::PrefixDiverged {
                epoch,
                expected,
                actual,
            } => write!(
                f,
                "salvaged prefix diverged at epoch {epoch}: journal says {expected:#x}, \
                 re-execution produced {actual:#x}"
            ),
            ResumeError::BadPrefix { detail } => {
                write!(f, "salvaged prefix unusable for resume: {detail}")
            }
            ResumeError::Record(e) => write!(f, "recording failed during resume: {e}"),
        }
    }
}

impl std::error::Error for ResumeError {}

impl From<RecordError> for ResumeError {
    fn from(e: RecordError) -> Self {
        ResumeError::Record(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dp_vm::{FuncId, Pc};

    #[test]
    fn record_error_display() {
        let e = RecordError::Deadlock { blocked: 3 };
        assert!(e.to_string().contains("3 threads"));
        let f = RecordError::from(Fault::FellOffFunction {
            tid: Tid(1),
            func: FuncId(0),
        });
        assert!(f.to_string().contains("guest fault"));
    }

    #[test]
    fn resume_error_display() {
        let e = ResumeError::PrefixDiverged {
            epoch: 2,
            expected: 0x10,
            actual: 0x20,
        };
        assert!(e.to_string().contains("epoch 2"));
        let wrapped = ResumeError::from(RecordError::BudgetExhausted);
        assert!(wrapped.to_string().contains("budget"));
    }

    #[test]
    fn unsupported_version_display_names_the_container() {
        let e = ReplayError::UnsupportedVersion {
            container: "journal",
            found: 1,
            expected: 2,
        };
        let s = e.to_string();
        assert!(s.contains("journal"));
        assert!(s.contains("version 1"));
        assert!(s.contains("version 2"));
    }

    #[test]
    fn replay_error_display() {
        let e = ReplayError::HashMismatch {
            epoch: 4,
            expected: 0xabc,
            actual: 0xdef,
        };
        let s = e.to_string();
        assert!(s.contains("epoch 4"));
        assert!(s.contains("0xabc"));
        let e = ReplayError::ScheduleMismatch {
            epoch: 1,
            tid: Tid(2),
            detail: "thread exited early".into(),
        };
        assert!(e.to_string().contains("t2"));
        let _ = ReplayError::Guest(Fault::DivideByZero {
            tid: Tid(0),
            pc: Pc {
                func: FuncId(0),
                idx: 0,
            },
        })
        .to_string();
    }
}
