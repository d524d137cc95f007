//! Recordings: the persistent artifact a DoublePlay run produces.
//!
//! A recording is *complete*: given the same [`crate::GuestSpec`] (verified
//! by program hash), any consumer can re-create the recorded execution —
//! sequentially from the initial state, or epoch-by-epoch in parallel when
//! per-epoch checkpoints were kept. On disk it is a finalized one-stream
//! journal ([`crate::journal`]).

use std::io::{Read, Write};

use crate::checkpoint::CheckpointImage;
use crate::config::DoublePlayConfig;
use crate::error::{ReplayError, SaveError};
use crate::journal::{JournalReader, JournalWriter, RecordSink};
use crate::logs::{codec, ScheduleLog, SyscallLog};
use dp_os::kernel::ExternalChunk;
use dp_support::wire::{put_varint, Reader, Wire, WireError};

/// Identity and configuration of a recording.
#[derive(Debug, Clone)]
pub struct RecordingMeta {
    /// Name of the recorded guest.
    pub guest_name: String,
    /// Content hash of the recorded program.
    pub program_hash: u64,
    /// Digest of the boot state.
    pub initial_machine_hash: u64,
    /// The recorder configuration used.
    pub config: DoublePlayConfig,
}

/// One epoch of the recorded execution.
#[derive(Debug, Clone)]
pub struct EpochRecord {
    /// Epoch number (0-based).
    pub index: u32,
    /// Time-slice order of the epoch-parallel execution.
    pub schedule: ScheduleLog,
    /// Logged-class syscall results consumed within the epoch.
    pub syscalls: SyscallLog,
    /// Digest of the machine state at the epoch's end.
    pub end_machine_hash: u64,
    /// External output released when this epoch committed.
    pub external: Vec<ExternalChunk>,
    /// Start-of-epoch checkpoint (present when the recorder kept
    /// checkpoints; enables parallel replay and replay-to-point).
    pub start: Option<CheckpointImage>,
    /// Thread-parallel wall cycles of the epoch (diagnostics).
    pub tp_cycles: u64,
}

/// The compact-codec encodings of one epoch's logs, produced once in the
/// recorder's commit path (where their lengths feed cost accounting) and
/// spliced verbatim into the serialized [`EpochRecord`] by sinks that
/// implement [`crate::journal::RecordSink::epoch_encoded`] — the logs are
/// never encoded twice for one commit.
#[derive(Debug, Clone, Default)]
pub struct EncodedLogs {
    /// [`codec::encode_schedule`] of the epoch's schedule log.
    pub schedule: Vec<u8>,
    /// [`codec::encode_syscalls`] of the epoch's syscall log.
    pub syscalls: Vec<u8>,
}

impl EncodedLogs {
    /// Encodes both logs of `epoch` (the fallback for callers that did not
    /// carry encodings from the commit path).
    pub fn of(epoch: &EpochRecord) -> Self {
        EncodedLogs {
            schedule: codec::encode_schedule(&epoch.schedule),
            syscalls: codec::encode_syscalls(&epoch.syscalls),
        }
    }
}

/// Start-image tags of an EPOCH payload.
const NO_START: u8 = 0;
const START_DELTA: u8 = 1;

impl EpochRecord {
    /// Serializes the record as an EPOCH payload, splicing the pre-encoded
    /// log payloads in and writing the start image last, as a delta against
    /// `base` ([`CheckpointImage::put_delta`]):
    ///
    /// ```text
    /// index | schedule | syscalls | end hash | external | tp_cycles
    ///       | start := 0 | 1 ++ delta(base, start)
    /// ```
    ///
    /// The journal decides what `base` is; `get_head` decodes a payload
    /// back up to the start delta.
    pub fn put_with(&self, logs: &EncodedLogs, base: &CheckpointImage, out: &mut Vec<u8>) {
        self.index.put(out);
        put_varint(out, logs.schedule.len() as u64);
        out.extend_from_slice(&logs.schedule);
        put_varint(out, logs.syscalls.len() as u64);
        out.extend_from_slice(&logs.syscalls);
        self.end_machine_hash.put(out);
        self.external.put(out);
        self.tp_cycles.put(out);
        match &self.start {
            None => out.push(NO_START),
            Some(start) => {
                out.push(START_DELTA);
                start.put_delta(base, out);
            }
        }
    }

    /// Decodes an EPOCH payload up to its start image: the record with
    /// `start` left `None`, plus the raw start delta when the record has
    /// one (the rest of the payload). Only the caller knows the delta's
    /// base, so applying it ([`CheckpointImage::get_delta`]) is left to
    /// the caller.
    pub(crate) fn get_head<'a>(r: &mut Reader<'a>) -> Result<(Self, Option<&'a [u8]>), WireError> {
        let record = EpochRecord {
            index: Wire::get(r)?,
            schedule: Wire::get(r)?,
            syscalls: Wire::get(r)?,
            end_machine_hash: Wire::get(r)?,
            external: Wire::get(r)?,
            tp_cycles: Wire::get(r)?,
            start: None,
        };
        let off = r.pos();
        let delta = match r.u8("start tag")? {
            NO_START if r.is_empty() => None,
            NO_START => {
                return Err(WireError {
                    offset: r.pos(),
                    context: "trailing bytes after epoch record",
                })
            }
            START_DELTA => Some(r.take(r.remaining(), "start delta")?),
            _ => {
                return Err(WireError {
                    offset: off,
                    context: "unknown start tag",
                })
            }
        };
        Ok((record, delta))
    }
}

/// A complete recording.
#[derive(Debug, Clone)]
pub struct Recording {
    /// Identity and configuration.
    pub meta: RecordingMeta,
    /// The boot state.
    pub initial: CheckpointImage,
    /// Epochs in order.
    pub epochs: Vec<EpochRecord>,
}

impl Recording {
    /// Encoded size of all schedule logs (compact wire format).
    pub fn schedule_bytes(&self) -> u64 {
        self.epochs
            .iter()
            .map(|e| codec::encode_schedule(&e.schedule).len() as u64)
            .sum()
    }

    /// Encoded size of all syscall logs.
    pub fn syscall_bytes(&self) -> u64 {
        self.epochs
            .iter()
            .map(|e| codec::encode_syscalls(&e.syscalls).len() as u64)
            .sum()
    }

    /// Total encoded log size (the paper's log-size metric; checkpoints are
    /// accounted separately, as in the paper).
    pub fn log_bytes(&self) -> u64 {
        self.schedule_bytes() + self.syscall_bytes()
    }

    /// All external output in commit order, flattened to bytes per
    /// destination-agnostic stream (convenient for asserting console
    /// output in tests and examples).
    pub fn console_output(&self) -> Vec<u8> {
        self.epochs
            .iter()
            .flat_map(|e| e.external.iter())
            .filter(|c| matches!(c.dest, dp_os::kernel::ExternalDest::Console))
            .flat_map(|c| c.bytes.iter().copied())
            .collect()
    }

    /// All external output chunks in commit order.
    pub fn external(&self) -> impl Iterator<Item = &ExternalChunk> {
        self.epochs.iter().flat_map(|e| e.external.iter())
    }

    /// Total schedule events across epochs.
    pub fn schedule_events(&self) -> u64 {
        self.epochs.iter().map(|e| e.schedule.len() as u64).sum()
    }

    /// Total logged syscalls across epochs.
    pub fn logged_syscalls(&self) -> u64 {
        self.epochs.iter().map(|e| e.syscalls.len() as u64).sum()
    }

    /// True when every epoch carries a start checkpoint.
    pub fn has_checkpoints(&self) -> bool {
        self.epochs.iter().all(|e| e.start.is_some())
    }

    /// Serializes the recording as a finalized one-stream journal
    /// ([`crate::journal`]): exactly the bytes a [`JournalWriter::new`]
    /// sink holds after streaming this run, so a finished journal *is* its
    /// saved recording.
    ///
    /// # Errors
    ///
    /// [`SaveError::TooManyEpochs`] when the epoch count does not fit the
    /// final marker's u32 count field (saving would silently truncate);
    /// [`SaveError::Io`] for writer failures and for epochs out of index
    /// order.
    pub fn save<W: Write>(&self, writer: W) -> Result<(), SaveError> {
        if u32::try_from(self.epochs.len()).is_err() {
            return Err(SaveError::TooManyEpochs {
                count: self.epochs.len(),
            });
        }
        let mut journal = JournalWriter::new(writer)?;
        journal.begin(&self.meta, &self.initial)?;
        for epoch in &self.epochs {
            journal.epoch(epoch)?;
        }
        journal.finish()?;
        Ok(())
    }

    /// Deserializes a saved recording: salvages the stream and requires a
    /// clean, one-stream result with nothing after its final marker.
    /// Partial data never loads silently — a journal a crash left behind
    /// is recovered explicitly with `dp salvage`
    /// ([`JournalReader::salvage`]).
    ///
    /// # Errors
    ///
    /// [`ReplayError::Io`] if the reader fails;
    /// [`ReplayError::UnsupportedVersion`] for a file of a retired
    /// container or another format version;
    /// [`ReplayError::Corrupt`] for anything else that is not a finalized
    /// one-stream recording — malformed, truncated, or bit-flipped — never
    /// a panic.
    pub fn load<R: Read>(mut reader: R) -> Result<Self, ReplayError> {
        let mut buf = Vec::new();
        reader.read_to_end(&mut buf).map_err(|e| ReplayError::Io {
            detail: e.to_string(),
        })?;
        let s = JournalReader::salvage(&buf)?;
        if s.clean && s.streams == 1 && s.dropped_bytes == 0 {
            return Ok(s.recording);
        }
        Err(ReplayError::Corrupt {
            detail: format!(
                "not a finalized one-stream recording ({}; {} committed epoch(s) of a \
                 {}-stream journal, {} byte(s) dropped) — recover the committed prefix \
                 with `dp salvage`",
                s.detail,
                s.committed(),
                s.streams,
                s.dropped_bytes
            ),
        })
    }
}

dp_support::impl_wire_struct!(RecordingMeta {
    guest_name,
    program_hash,
    initial_machine_hash,
    config
});

#[cfg(test)]
mod tests {
    use super::*;
    use dp_os::kernel::ExternalDest;
    use dp_vm::Tid;

    fn tiny_recording() -> Recording {
        let mut schedule = ScheduleLog::new();
        schedule.push_slice(Tid(0), 100);
        Recording {
            meta: RecordingMeta {
                guest_name: "t".into(),
                program_hash: 1,
                initial_machine_hash: 2,
                config: DoublePlayConfig::new(2),
            },
            initial: CheckpointImage {
                machine: dp_vm::Machine::new(
                    std::sync::Arc::new({
                        let mut pb = dp_vm::builder::ProgramBuilder::new();
                        let mut f = pb.function("main");
                        f.ret();
                        f.finish();
                        pb.finish("main")
                    }),
                    &[],
                )
                .image(),
                kernel: dp_os::kernel::Kernel::new(Default::default()),
                machine_hash: 2,
            },
            epochs: vec![EpochRecord {
                index: 0,
                schedule,
                syscalls: SyscallLog::new(),
                end_machine_hash: 3,
                external: vec![ExternalChunk {
                    dest: ExternalDest::Console,
                    bytes: b"hi".to_vec(),
                }],
                start: None,
                tp_cycles: 500,
            }],
        }
    }

    #[test]
    fn size_accounting() {
        let r = tiny_recording();
        assert!(r.schedule_bytes() > 0);
        assert!(r.syscall_bytes() > 0); // count prefix
        assert_eq!(r.log_bytes(), r.schedule_bytes() + r.syscall_bytes());
        assert_eq!(r.schedule_events(), 1);
        assert_eq!(r.logged_syscalls(), 0);
        assert!(!r.has_checkpoints());
    }

    #[test]
    fn console_output_concatenates() {
        let r = tiny_recording();
        assert_eq!(r.console_output(), b"hi");
        assert_eq!(r.external().count(), 1);
    }

    #[test]
    fn save_load_roundtrip() {
        let r = tiny_recording();
        let mut buf = Vec::new();
        r.save(&mut buf).unwrap();
        let back = Recording::load(&buf[..]).unwrap();
        assert_eq!(back.meta.guest_name, "t");
        assert_eq!(back.epochs.len(), 1);
        assert_eq!(back.epochs[0].end_machine_hash, 3);
        assert_eq!(back.console_output(), b"hi");
    }

    #[test]
    fn save_surfaces_writer_errors_as_typed_io() {
        struct Broken;
        impl Write for Broken {
            fn write(&mut self, _: &[u8]) -> std::io::Result<usize> {
                Err(std::io::Error::other("disk on fire"))
            }
            fn flush(&mut self) -> std::io::Result<()> {
                Ok(())
            }
        }
        match tiny_recording().save(Broken) {
            Err(SaveError::Io { detail }) => assert!(detail.contains("disk on fire")),
            other => panic!("expected SaveError::Io, got {other:?}"),
        }
    }

    #[test]
    fn epoch_payloads_round_trip_through_salvage() {
        // `put_with` is the only EPOCH encoder: saving and salvaging must
        // give back every field, start images (stored as deltas) included.
        let mut r = tiny_recording();
        let mut first = r.initial.clone();
        first.machine.mem.write(0x2000, 0xfeed, dp_vm::Width::W8);
        first.machine_hash = 7;
        let mut second = first.clone();
        second.machine.mem.write(0x2000, 0, dp_vm::Width::W8);
        second.machine.mem.write(0x9000, 1, dp_vm::Width::W1);
        second.machine_hash = 8;
        r.epochs[0].start = Some(first);
        let mut gap = r.epochs[0].clone();
        gap.index = 1;
        gap.start = None;
        gap.syscalls.push(crate::logs::SyscallLogEntry {
            tid: Tid(0),
            num: 4,
            arg_hash: 9,
            ret: 2,
            effect: Default::default(),
            via_wake: false,
        });
        let mut last = gap.clone();
        last.index = 2;
        last.start = Some(second);
        r.epochs.push(gap);
        r.epochs.push(last);
        let mut buf = Vec::new();
        r.save(&mut buf).unwrap();
        let back = crate::journal::JournalReader::salvage(&buf).unwrap();
        assert!(back.clean, "{}", back.detail);
        assert_eq!(back.committed(), 3);
        for (a, b) in r.epochs.iter().zip(&back.recording.epochs) {
            assert_eq!(a.index, b.index);
            assert_eq!(a.schedule, b.schedule);
            assert_eq!(a.syscalls, b.syscalls);
            assert_eq!(a.end_machine_hash, b.end_machine_hash);
            assert_eq!(a.external, b.external);
            assert_eq!(a.tp_cycles, b.tp_cycles);
            assert_eq!(a.start.is_some(), b.start.is_some());
            if let (Some(x), Some(y)) = (&a.start, &b.start) {
                assert_eq!(x.machine.mem.state_digest(), y.machine.mem.state_digest());
                assert_eq!(x.machine.mem.dirty(), y.machine.mem.dirty());
                assert_eq!(x.kernel, y.kernel);
                assert_eq!(x.machine_hash, y.machine_hash);
            }
        }
        let mut again = Vec::new();
        back.recording.save(&mut again).unwrap();
        assert_eq!(again, buf, "save(salvage(j)) must equal j");
    }

    #[test]
    fn old_format_version_is_a_typed_version_error() {
        let r = tiny_recording();
        let mut buf = Vec::new();
        r.save(&mut buf).unwrap();
        // A version-2 stream is not corrupt, just older: rewrite the
        // version field and expect the typed error, never Corrupt or a
        // bogus decode.
        buf[4..8].copy_from_slice(&2u32.to_le_bytes());
        match Recording::load(&buf[..]) {
            Err(ReplayError::UnsupportedVersion {
                container,
                found,
                expected,
            }) => {
                assert_eq!(container, "DPRS stream");
                assert_eq!(found, 2);
                assert_eq!(expected, crate::journal::VERSION);
            }
            other => panic!("expected UnsupportedVersion, got {other:?}"),
        }
    }

    #[test]
    fn unfinalized_or_padded_recordings_are_corrupt() {
        let r = tiny_recording();
        let mut buf = Vec::new();
        r.save(&mut buf).unwrap();
        // The final marker lost: a journal a crash left behind, which only
        // `dp salvage` may turn into a recording.
        match Recording::load(&buf[..buf.len() - 1]) {
            Err(ReplayError::Corrupt { detail }) => {
                assert!(detail.contains("dp salvage"), "detail: {detail}")
            }
            other => panic!("expected Corrupt, got {other:?}"),
        }
        buf.extend_from_slice(b"junk");
        assert!(matches!(
            Recording::load(&buf[..]),
            Err(ReplayError::Corrupt { .. })
        ));
    }
}
