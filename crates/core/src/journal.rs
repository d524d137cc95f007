//! The recording format: one framed, CRC-guarded stream type, written as
//! `N ≥ 1` parallel streams.
//!
//! A recording is a header, a sequence of epoch records, and a final
//! marker. [`JournalWriter`] streams it while it is produced: the record
//! coordinator pushes every committed epoch through a [`RecordSink`], and
//! the writer appends it as a self-delimiting frame followed by a commit
//! marker. After a crash — torn write, `ENOSPC`, failed flush, SIGKILL —
//! [`JournalReader::salvage`] reconstructs the longest committed epoch
//! prefix as a valid, replayable [`Recording`].
//!
//! A journal may be split across `N` streams (Taurus-style parallel log
//! streams): epoch `i` goes to stream `i mod N`, and each stream
//! *group-commits*, flushing once per `batch` epochs. A single stream is
//! just the case `N = 1`, and a saved recording ([`Recording::save`]) is a
//! finalized one-stream journal, byte for byte.
//!
//! ## Format (version 5)
//!
//! ```text
//! stream := magic "DPRS" | version u32 le | frame*
//! frame  := tag u8 | len u32 le | payload[len] | crc32(tag|len|payload) u32 le
//!
//! tag 1 HEADER  stream k u32 | stream count N u32 | program hash u64
//!               | initial hash u64 | (k == 0 only) wire(meta) ++ delta(empty, initial)
//! tag 2 EPOCH   index | schedule | syscalls | end hash | external | tp_cycles
//!               | start := 0 | 1 ++ delta(base, start)
//!                                               epoch i goes to stream i mod N
//! tag 3 COMMIT  epoch index u32 | the EPOCH frame's crc32 trailer u32
//! tag 4 FINAL   total epoch count u32           written to every stream
//!
//! delta(base, image) := pages | threads | halt | fault | kernel | machine hash
//! pages := count | (pno | form)* | dirty set   changed pages, ascending pno
//! form  := 0                                   now zero (or absent)
//!        | 1 ++ 4096 bytes                     raw
//!        | 2 ++ file ++ block                  = 4 KiB block of base file `file`
//!        | 3 ++ count ++ run*                  runs that differ from base page pno
//! run   := varint(gap << 4 | min(len, 15)) ++ (varint(len - 15) if len >= 15)
//!          ++ bytes[len]                       `gap` bytes after the last run
//! kernel := files (each: path ++ 0 "= base's" | 1 ++ len ++ bytes)
//!         | peers (0 "= base's" | 1 ++ wire(peers)) | every other field whole
//! ```
//!
//! Every stream carries the identity hashes, so a stray stream can be
//! paired with — or rejected from — its siblings; only stream 0 carries
//! the metadata and the initial checkpoint.
//!
//! ## Delta start checkpoints
//!
//! Each epoch's start image is stored as a content delta
//! ([`CheckpointImage::put_delta`]) against its **base**: the last stored
//! start of an earlier epoch, else the header's initial image. The header
//! writes the initial image itself as a delta against
//! [`CheckpointImage::empty`], so every stored page takes the same forms.
//! A changed page is written in the shortest of three forms
//! ([`dp_vm::memory::Memory::put_delta`]): a reference to a 4 KiB-aligned
//! block of one of the base's files holding the same bytes (zero-padded
//! past the file's end), the runs of bytes that differ from the base's
//! page with the same number (an absent page reads as zeros), or the raw
//! 4096 bytes. File blocks are found through an index of sampled
//! fingerprints but confirmed byte for byte. The kernel is written
//! whole except that unchanged file contents and peer scripts become
//! one-byte back-references. The bytes are a pure function of the
//! start-image sequence, so every driver, stream count and resume point
//! writes the same ones. The writer keeps the base as a copy-on-write
//! clone; salvage applies the deltas in epoch order during the merge, so
//! every recovered [`EpochRecord::start`] is a full image sharing
//! unchanged pages, and their cached digests, with its predecessor. There
//! are no keyframes: salvage always scans every stream from its header,
//! so no reader ever seeks to one.
//!
//! ## Commit rule
//!
//! An epoch is **committed** iff its EPOCH frame is intact (CRC valid,
//! payload decodable, index the next one its stream owns) *and* the
//! immediately following COMMIT frame is intact and names that epoch's
//! index and the EPOCH frame's CRC trailer. The trailer already covers the
//! frame's tag, length and payload, so the writer and salvage each
//! checksum every byte once. A stream's flush is its durability point, so
//! a torn write can only hurt the youngest, uncommitted suffix of a
//! stream; salvage drops it. Across streams, salvage takes epoch `i` only
//! after epochs `0..i`, so the recovered prefix is the longest one whose
//! every epoch is committed in its stream — exactly the recording an
//! uninterrupted run would have produced over that prefix. A start delta
//! can only be checked against its base, so the merge decodes it; a
//! malformed one ends the prefix before its epoch, and
//! [`Salvaged::detail`] names the decode error.

use std::io::{self, Write};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{mpsc, Arc, Mutex};
use std::thread::JoinHandle;

use crate::checkpoint::CheckpointImage;
use crate::error::ReplayError;
use crate::recording::{EncodedLogs, EpochRecord, Recording, RecordingMeta};
use dp_support::crc32::crc32;
use dp_support::wire::{Reader, Wire, WireError};

/// Stream magic: "DPRS" (DoublePlay Recording Stream).
pub const MAGIC: [u8; 4] = *b"DPRS";
/// Format version; bumped on any layout change. Version 3 made this stream
/// the only on-disk form (one stream is a journal or a saved recording)
/// and the lead-byte schedule codec the only schedule encoding; version 4
/// stores each epoch's start image as a delta against the previous one;
/// version 5 writes each changed page as a file block, the runs that
/// changed or raw, writes the header's image as a delta against an empty
/// one, and binds each COMMIT marker to its EPOCH frame's CRC trailer.
pub const VERSION: u32 = 5;

const TAG_HEADER: u8 = 1;
const TAG_EPOCH: u8 = 2;
const TAG_COMMIT: u8 = 3;
const TAG_FINAL: u8 = 4;

/// Magic plus version.
const PREAMBLE: usize = 8;
/// Tag byte + u32 length prefix.
const FRAME_HEAD: usize = 5;
/// CRC32 trailer.
const FRAME_TAIL: usize = 4;
/// The HEADER fields every stream carries: stream index, stream count,
/// program hash, initial hash.
const IDENTITY: usize = 24;
/// Most streams one journal may have; a header claiming more is corrupt
/// (the reader allocates per declared stream).
const MAX_STREAMS: u32 = 4096;

/// Default group-commit size: epochs per stream between flushes.
pub const DEFAULT_SHARD_BATCH: u32 = 8;

/// Where the coordinator streams a recording as it is produced.
///
/// [`epoch`](RecordSink::epoch) returning `Ok` means the sink has
/// *accepted* the epoch; each implementation defines its own durability
/// point. A [`JournalWriter::new`] writer makes every epoch durable before
/// returning (flush per commit marker), while multi-stream writers
/// group-commit: acceptance is immediate but durability arrives at the
/// stream's next batch flush — after a crash, [`JournalReader`] recovers
/// exactly the durable prefix either way. Errors abort the recording run
/// with [`crate::RecordError::Sink`]; everything already durable remains
/// salvageable.
pub trait RecordSink {
    /// Called once, before the first epoch, with the recording identity
    /// and the boot state.
    fn begin(&mut self, meta: &RecordingMeta, initial: &CheckpointImage) -> io::Result<()>;
    /// Called after each epoch commits (including recovered divergent
    /// epochs and serialized-fallback epochs — everything that becomes
    /// part of the final recording). Epochs arrive **strictly in index
    /// order** (0, 1, 2, …): both recording drivers retire through the
    /// same in-order commit stage — even the pipelined one, whose verify
    /// workers finish out of order, holds results back until their turn.
    /// Sinks may rely on this for append-only layouts ([`JournalWriter`]
    /// relies on it to assign epochs to streams deterministically).
    fn epoch(&mut self, epoch: &EpochRecord) -> io::Result<()>;
    /// Like [`epoch`](RecordSink::epoch), but with the compact-codec log
    /// encodings the commit path already produced for cost accounting.
    /// Serializing sinks override this to splice `logs` in verbatim
    /// ([`EncodedLogs`]) instead of re-encoding both logs; the
    /// default ignores `logs` and delegates, so non-serializing sinks
    /// (taps, [`NullSink`]) need not change.
    fn epoch_encoded(&mut self, epoch: &EpochRecord, logs: &EncodedLogs) -> io::Result<()> {
        let _ = logs;
        self.epoch(epoch)
    }
    /// Called once on clean completion of the whole run.
    fn finish(&mut self) -> io::Result<()>;
}

/// The no-op sink behind plain [`crate::record`]: recording stays
/// in-memory-only, exactly as before journaling existed.
#[derive(Debug, Default)]
pub struct NullSink;

impl RecordSink for NullSink {
    fn begin(&mut self, _meta: &RecordingMeta, _initial: &CheckpointImage) -> io::Result<()> {
        Ok(())
    }
    fn epoch(&mut self, _epoch: &EpochRecord) -> io::Result<()> {
        Ok(())
    }
    fn finish(&mut self) -> io::Result<()> {
        Ok(())
    }
}

/// Appends one frame to `out` and returns its CRC trailer: `put`
/// serializes the payload straight after a reserved head, then the head's
/// length and the CRC trailer are filled in around it — the payload is
/// never copied.
fn push_frame(out: &mut Vec<u8>, tag: u8, put: impl FnOnce(&mut Vec<u8>)) -> io::Result<u32> {
    let start = out.len();
    out.push(tag);
    out.extend_from_slice(&[0; 4]);
    put(out);
    let payload = out.len() - start - FRAME_HEAD;
    let len = u32::try_from(payload).map_err(|_| {
        io::Error::new(
            io::ErrorKind::InvalidInput,
            format!("journal frame payload of {payload} bytes exceeds u32"),
        )
    })?;
    out[start + 1..start + FRAME_HEAD].copy_from_slice(&len.to_le_bytes());
    let crc = crc32(&out[start..]);
    out.extend_from_slice(&crc.to_le_bytes());
    Ok(crc)
}

/// The COMMIT payload binding epoch `index` to its EPOCH frame's CRC
/// trailer, which covers the frame's tag, length and payload.
fn commit_marker(index: u32, frame_crc: u32) -> [u8; 8] {
    let mut marker = [0u8; 8];
    marker[..4].copy_from_slice(&index.to_le_bytes());
    marker[4..].copy_from_slice(&frame_crc.to_le_bytes());
    marker
}

/// How many of the epochs below `total` stream `k` of `n` owns (epoch `i`
/// goes to stream `i mod n`).
fn owned(total: u64, k: u32, n: u32) -> u64 {
    (total + u64::from(n - 1 - k)) / u64::from(n)
}

/// What a lane carries per hand-off: bytes to append, how many epoch
/// commits they hold (group-commit ticks), and whether to flush regardless
/// (header and final frames are durability points).
struct LaneMsg {
    bytes: Vec<u8>,
    ticks: u32,
    force_flush: bool,
}

/// One stream's writer: appended inline by the caller of
/// [`RecordSink::epoch`] (sync) or by a dedicated lane thread (threaded —
/// the commit stage only serializes and sends).
enum Lane<W> {
    Sync {
        w: W,
        /// Epoch commits appended since the last flush.
        pending: u32,
    },
    Threaded {
        tx: mpsc::Sender<LaneMsg>,
        handle: JoinHandle<W>,
    },
}

impl<W> Lane<W> {
    /// The stream's writer, joining its lane thread first so every byte
    /// handed off has been written.
    fn into_writer(self) -> io::Result<W> {
        match self {
            Lane::Sync { w, .. } => Ok(w),
            Lane::Threaded { tx, handle } => {
                drop(tx);
                handle
                    .join()
                    .map_err(|_| io::Error::other("journal lane thread panicked"))
            }
        }
    }
}

/// State shared with lane threads.
#[derive(Default)]
struct Shared {
    /// Flushes issued across all streams (the E15 amortization metric).
    flushes: AtomicU64,
    /// First error a lane thread hit, surfaced on the writer's next call.
    lane_err: Mutex<Option<String>>,
}

/// Appends one hand-off to a stream, flushing at its group-commit
/// boundary.
fn append<W: Write>(
    w: &mut W,
    pending: &mut u32,
    msg: &LaneMsg,
    batch: u32,
    shared: &Shared,
) -> io::Result<()> {
    w.write_all(&msg.bytes)?;
    *pending += msg.ticks;
    if msg.force_flush || *pending >= batch {
        w.flush()?;
        *pending = 0;
        shared.flushes.fetch_add(1, Ordering::SeqCst);
    }
    Ok(())
}

/// Lane-thread body. On error the lane parks the message in the shared
/// slot and keeps draining (the writer surfaces it on its next call); the
/// writer is always returned so callers can inspect whatever bytes it
/// holds.
fn lane_loop<W: Write>(mut w: W, rx: &mpsc::Receiver<LaneMsg>, batch: u32, shared: &Shared) -> W {
    let mut pending = 0;
    let mut dead = false;
    while let Ok(msg) = rx.recv() {
        if dead {
            continue;
        }
        if let Err(e) = append(&mut w, &mut pending, &msg, batch, shared) {
            let mut slot = shared.lane_err.lock().expect("lane error slot poisoned");
            slot.get_or_insert_with(|| e.to_string());
            dead = true;
        }
    }
    w
}

/// Streams a recording into `N ≥ 1` journal streams. Implements
/// [`RecordSink`], so both recording drivers accept it.
///
/// [`new`](JournalWriter::new) builds the one-stream journal, written
/// inline and flushed at every commit marker — the form
/// [`Recording::save`] writes. [`sync`](JournalWriter::sync) and
/// [`threaded`](JournalWriter::threaded) split the journal across several
/// streams that group-commit; in threaded mode each stream is appended by
/// its own lane thread, so the commit stage only serializes frames and
/// the flush leaves the hot path.
///
/// Byte determinism: every stream's bytes are a pure function of the epoch
/// sequence (frames are serialized by the committing caller, in commit
/// order, before any hand-off, and start images are diffed by content
/// against the previous stored start), so batching and threading change
/// *when* bytes become durable, never *which* bytes the streams contain.
pub struct JournalWriter<W: Write> {
    lanes: Vec<Lane<W>>,
    batch: u32,
    epochs: u32,
    written: u64,
    shared: Arc<Shared>,
    /// The next start image's delta base: the last stored start, else the
    /// initial image (a copy-on-write clone). `None` until
    /// [`RecordSink::begin`].
    base: Option<CheckpointImage>,
}

/// [`JournalWriter`] under its multi-stream name.
pub type ShardedJournalWriter<W> = JournalWriter<W>;

impl<W: Write> JournalWriter<W> {
    /// One stream, written inline and flushed at every commit marker.
    /// Construction writes the preamble immediately, so even a run that
    /// crashes before its first epoch leaves an identifiable journal.
    ///
    /// # Errors
    ///
    /// I/O failures from the sink.
    pub fn new(sink: W) -> io::Result<Self> {
        Self::sync(vec![sink], 1)
    }

    /// One stream per writer, appended and flushed inline on the
    /// committing thread; each stream flushes once per `batch` epochs (0
    /// is treated as 1).
    ///
    /// # Errors
    ///
    /// `InvalidInput` for no writers or more than 4096; I/O failures from
    /// the preamble writes.
    pub fn sync(writers: Vec<W>, batch: u32) -> io::Result<Self> {
        let lanes = writers
            .into_iter()
            .map(|w| Lane::Sync { w, pending: 0 })
            .collect();
        Self::start(lanes, batch, Arc::default())
    }

    /// Continues a crashed journal: `writers[k]` holds exactly the first
    /// `salvaged.keep[k]` bytes of stream `k` (the caller truncated every
    /// torn tail), and the writer appends epoch `salvaged.committed()`
    /// onward, inline, diffing start images against the salvaged
    /// recording's last stored start. Nothing is rewritten: every stream
    /// continues byte-for-byte where its kept prefix ended.
    ///
    /// # Errors
    ///
    /// `InvalidInput` when the writer count differs from the salvaged
    /// stream count, or a stream was missing from the salvage (resume
    /// needs every stream).
    pub fn resume(writers: Vec<W>, batch: u32, salvaged: &Salvaged) -> io::Result<Self> {
        let invalid = |msg: String| io::Error::new(io::ErrorKind::InvalidInput, msg);
        if writers.len() != salvaged.streams as usize {
            return Err(invalid(format!(
                "{} writers for a {}-stream journal",
                writers.len(),
                salvaged.streams
            )));
        }
        let mut written = 0;
        for (k, keep) in salvaged.keep.iter().enumerate() {
            let keep =
                keep.ok_or_else(|| invalid(format!("stream {k} is missing; cannot resume")))?;
            written += keep as u64;
        }
        Ok(JournalWriter {
            lanes: writers
                .into_iter()
                .map(|w| Lane::Sync { w, pending: 0 })
                .collect(),
            batch: batch.max(1),
            epochs: salvaged.committed() as u32,
            written,
            shared: Arc::default(),
            base: Some(delta_base(&salvaged.recording).clone()),
        })
    }

    /// Builds a fresh writer and writes every stream's preamble.
    fn start(lanes: Vec<Lane<W>>, batch: u32, shared: Arc<Shared>) -> io::Result<Self> {
        if lanes.is_empty() || lanes.len() > MAX_STREAMS as usize {
            return Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                format!(
                    "a journal has 1 to {MAX_STREAMS} streams, not {}",
                    lanes.len()
                ),
            ));
        }
        let mut this = JournalWriter {
            lanes,
            batch: batch.max(1),
            epochs: 0,
            written: 0,
            shared,
            base: None,
        };
        let mut preamble = MAGIC.to_vec();
        preamble.extend_from_slice(&VERSION.to_le_bytes());
        for k in 0..this.lanes.len() {
            this.lane_write(k, preamble.clone(), 0, false)?;
        }
        Ok(this)
    }

    /// Stream count.
    pub fn stream_count(&self) -> u32 {
        self.lanes.len() as u32
    }

    /// Epochs committed so far.
    pub fn epochs_committed(&self) -> u32 {
        self.epochs
    }

    /// Total bytes handed to the streams (the write-overhead metric).
    pub fn bytes_written(&self) -> u64 {
        self.written
    }

    /// Flushes issued across all streams so far. Lane threads' flushes
    /// race this read; the count is exact once
    /// [`into_writers`](JournalWriter::into_writers) has joined them.
    pub fn flushes(&self) -> u64 {
        self.shared.flushes.load(Ordering::SeqCst)
    }

    /// A shared view of stream 0's writer: the whole journal of a
    /// [`new`](JournalWriter::new) writer.
    ///
    /// # Panics
    ///
    /// When stream 0 is appended by a lane thread.
    pub fn get_ref(&self) -> &W {
        match &self.lanes[0] {
            Lane::Sync { w, .. } => w,
            Lane::Threaded { .. } => panic!("get_ref on a threaded journal stream"),
        }
    }

    /// Unwraps stream 0's writer: the whole journal of a
    /// [`new`](JournalWriter::new) writer (e.g. to salvage the bytes a
    /// faulted sink holds).
    ///
    /// # Panics
    ///
    /// When stream 0's lane thread panicked.
    pub fn into_inner(self) -> W {
        self.lanes
            .into_iter()
            .next()
            .expect("a journal has a stream")
            .into_writer()
            .expect("journal lane thread panicked")
    }

    /// Consumes the writer and returns every stream's writer, joining
    /// lane threads first so all handed-off bytes are written.
    ///
    /// # Errors
    ///
    /// The first lane error, if any stream failed.
    pub fn into_writers(self) -> io::Result<Vec<W>> {
        let writers = self
            .lanes
            .into_iter()
            .map(Lane::into_writer)
            .collect::<io::Result<Vec<W>>>()?;
        let failed = self
            .shared
            .lane_err
            .lock()
            .expect("lane error slot poisoned")
            .take();
        match failed {
            Some(msg) => Err(io::Error::other(format!("journal lane failed: {msg}"))),
            None => Ok(writers),
        }
    }

    fn check_lanes(&self) -> io::Result<()> {
        match self
            .shared
            .lane_err
            .lock()
            .expect("lane error slot poisoned")
            .as_ref()
        {
            Some(msg) => Err(io::Error::other(format!("journal lane failed: {msg}"))),
            None => Ok(()),
        }
    }

    /// Hands `bytes` to stream `k`, advancing its group-commit state by
    /// `ticks` epoch commits; `force_flush` flushes unconditionally.
    fn lane_write(
        &mut self,
        k: usize,
        bytes: Vec<u8>,
        ticks: u32,
        force_flush: bool,
    ) -> io::Result<()> {
        let len = bytes.len() as u64;
        let msg = LaneMsg {
            bytes,
            ticks,
            force_flush,
        };
        match &mut self.lanes[k] {
            Lane::Sync { w, pending } => append(w, pending, &msg, self.batch, &self.shared)?,
            Lane::Threaded { tx, .. } => tx
                .send(msg)
                .map_err(|_| io::Error::other("journal lane thread exited early"))?,
        }
        self.written += len;
        Ok(())
    }
}

impl<W: Write + Send + 'static> JournalWriter<W> {
    /// Like [`sync`](JournalWriter::sync), but each stream is appended by
    /// its own lane thread: [`RecordSink::epoch`] only serializes the
    /// frames and hands them off, so neither the append nor the flush
    /// stalls the commit stage. Lane errors surface on the next sink call
    /// (or at [`into_writers`](JournalWriter::into_writers)).
    ///
    /// # Errors
    ///
    /// `InvalidInput` for no writers or more than 4096.
    pub fn threaded(writers: Vec<W>, batch: u32) -> io::Result<Self> {
        let batch = batch.max(1);
        let shared = Arc::new(Shared::default());
        let lanes = writers
            .into_iter()
            .enumerate()
            .map(|(k, w)| {
                let (tx, rx) = mpsc::channel();
                let shared = Arc::clone(&shared);
                let handle = std::thread::Builder::new()
                    .name(format!("journal-lane-{k}"))
                    .spawn(move || lane_loop(w, &rx, batch, &shared))
                    .expect("spawn journal lane thread");
                Lane::Threaded { tx, handle }
            })
            .collect();
        Self::start(lanes, batch, shared)
    }
}

impl<W: Write> RecordSink for JournalWriter<W> {
    fn begin(&mut self, meta: &RecordingMeta, initial: &CheckpointImage) -> io::Result<()> {
        self.check_lanes()?;
        let n = self.stream_count();
        for k in 0..n {
            let mut header = Vec::new();
            push_frame(&mut header, TAG_HEADER, |p| {
                p.extend_from_slice(&k.to_le_bytes());
                p.extend_from_slice(&n.to_le_bytes());
                p.extend_from_slice(&meta.program_hash.to_le_bytes());
                p.extend_from_slice(&meta.initial_machine_hash.to_le_bytes());
                if k == 0 {
                    meta.put(p);
                    initial.put_delta(&CheckpointImage::empty(), p);
                }
            })?;
            // The header is a durability point: a stream whose header
            // never reached the device contributes nothing.
            self.lane_write(k as usize, header, 0, true)?;
        }
        self.base = Some(initial.clone());
        Ok(())
    }

    fn epoch(&mut self, epoch: &EpochRecord) -> io::Result<()> {
        self.epoch_encoded(epoch, &EncodedLogs::of(epoch))
    }

    /// Appends one epoch: in-order check, the EPOCH frame serialized in
    /// place (start image as a delta against the current base), its COMMIT
    /// marker, and one hand-off to stream `index mod N`; a stored start
    /// then becomes the next base.
    fn epoch_encoded(&mut self, epoch: &EpochRecord, logs: &EncodedLogs) -> io::Result<()> {
        self.check_lanes()?;
        let index = epoch.index;
        // The stream assignment is a function of commit order, so an
        // out-of-order epoch is a commit-stage bug: surface it here, not as
        // an unreplayable journal.
        if index != self.epochs {
            return Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                format!(
                    "out-of-order epoch {index} (journal expects {})",
                    self.epochs
                ),
            ));
        }
        let base = self.base.as_ref().ok_or_else(|| {
            io::Error::new(io::ErrorKind::InvalidInput, "epoch before journal begin")
        })?;
        let mut bytes = Vec::new();
        let frame_crc = push_frame(&mut bytes, TAG_EPOCH, |p| epoch.put_with(logs, base, p))?;
        push_frame(&mut bytes, TAG_COMMIT, |p| {
            p.extend_from_slice(&commit_marker(index, frame_crc));
        })?;
        // The frame and its commit marker travel together; the stream
        // flushes at its group-commit boundary, and an epoch whose commit
        // marker never reached the device is, by the commit rule,
        // uncommitted.
        let k = (index % self.stream_count()) as usize;
        self.lane_write(k, bytes, 1, false)?;
        self.epochs += 1;
        if let Some(start) = &epoch.start {
            self.base = Some(start.clone());
        }
        Ok(())
    }

    fn finish(&mut self) -> io::Result<()> {
        self.check_lanes()?;
        let count = self.epochs;
        let mut fin = Vec::new();
        push_frame(&mut fin, TAG_FINAL, |p| {
            p.extend_from_slice(&count.to_le_bytes());
        })?;
        // Finish drains every stream's group-commit batch, so a clean run
        // is fully durable.
        for k in 0..self.lanes.len() {
            self.lane_write(k, fin.clone(), 0, true)?;
        }
        Ok(())
    }
}

/// What a salvage scan recovered from a journal's streams.
#[derive(Debug)]
pub struct Salvaged {
    /// The recovered recording: header plus the longest committed epoch
    /// prefix. Always valid and replayable (possibly zero epochs), and
    /// byte-identical when saved to an uninterrupted run's output over
    /// the same prefix.
    pub recording: Recording,
    /// True when every stream is present and finalized with the recovered
    /// epoch count: the run completed cleanly and nothing was lost.
    pub clean: bool,
    /// Stream count the headers declare (1 for a saved recording).
    pub streams: u32,
    /// Bytes consumed as valid frames, summed over streams.
    pub salvaged_bytes: usize,
    /// Trailing bytes dropped (torn frames, uncommitted epochs, garbage),
    /// summed over streams.
    pub dropped_bytes: usize,
    /// Epochs committed in their own stream but outside the recovered
    /// prefix (an earlier epoch died in a sibling stream).
    pub dropped_epochs: usize,
    /// Per stream, the byte offset to truncate it to before appending
    /// epoch [`committed`](Salvaged::committed) onward: just past the
    /// COMMIT frame of the stream's last epoch inside the prefix (the
    /// header's end when it holds none). Everything past it — a torn
    /// frame, an uncommitted epoch, even a FINAL marker — is tail. `None`
    /// for a stream that was missing or unusable; resume needs every
    /// stream.
    pub keep: Vec<Option<usize>>,
    /// Why the recovery stopped, for operator-facing reporting.
    pub detail: String,
}

impl Salvaged {
    /// Epochs recovered.
    pub fn committed(&self) -> usize {
        self.recording.epochs.len()
    }
}

/// The delta base for the epoch after `recording`'s last: its last stored
/// start image, else its initial image.
fn delta_base(recording: &Recording) -> &CheckpointImage {
    recording
        .epochs
        .iter()
        .rev()
        .find_map(|e| e.start.as_ref())
        .unwrap_or(&recording.initial)
}

/// Parses journal streams, including ones a crash left behind.
pub struct JournalReader;

fn corrupt(detail: String) -> ReplayError {
    ReplayError::Corrupt { detail }
}

/// One intact frame: tag, payload slice, CRC trailer, and the offset just
/// past it.
struct Frame<'a> {
    tag: u8,
    payload: &'a [u8],
    crc: u32,
    end: usize,
}

/// Reads the frame at `pos`, validating bounds and CRC. `None` means the
/// bytes from `pos` on do not form an intact frame — truncation, a torn
/// write, or corruption; salvage treats all three identically.
fn read_frame(buf: &[u8], pos: usize) -> Option<Frame<'_>> {
    let head = buf.get(pos..pos.checked_add(FRAME_HEAD)?)?;
    let len = u32::from_le_bytes(head[1..].try_into().ok()?) as usize;
    let payload_end = pos.checked_add(FRAME_HEAD)?.checked_add(len)?;
    let end = payload_end.checked_add(FRAME_TAIL)?;
    let crc = u32::from_le_bytes(buf.get(payload_end..end)?.try_into().ok()?);
    (crc == crc32(&buf[pos..payload_end])).then(|| Frame {
        tag: head[0],
        payload: &buf[pos + FRAME_HEAD..payload_end],
        crc,
        end,
    })
}

/// Checks a stream's magic and version. Files of the retired containers —
/// `DPRC` saved recordings, `DPRJ` journals and `DPRZ` compacted
/// recordings, all older than version 3 — and `DPRS` streams of another
/// version are recognized only to be rejected with the typed version
/// error.
fn check_preamble(buf: &[u8]) -> Result<(), ReplayError> {
    let Some(pre) = buf.get(..PREAMBLE) else {
        return Err(corrupt(format!(
            "file too short to be a recording ({} bytes)",
            buf.len()
        )));
    };
    let version = u32::from_le_bytes(pre[4..].try_into().expect("4-byte version"));
    let container = match &pre[..4] {
        m if m == MAGIC && version == VERSION => return Ok(()),
        m if m == MAGIC => "DPRS stream",
        b"DPRC" if version < VERSION => "DPRC recording",
        b"DPRJ" if version < VERSION => "DPRJ journal",
        b"DPRZ" if version < VERSION => "DPRZ recording",
        m => return Err(corrupt(format!("bad magic {m:02x?}"))),
    };
    Err(ReplayError::UnsupportedVersion {
        container,
        found: version,
        expected: VERSION,
    })
}

/// A stream's HEADER frame, parsed up to its identity fields.
struct Header<'a> {
    stream: u32,
    streams: u32,
    identity: [u64; 2],
    /// Stream 0's meta and initial checkpoint; empty for the others.
    rest: &'a [u8],
    end: usize,
}

fn read_header(buf: &[u8]) -> Result<Header<'_>, ReplayError> {
    check_preamble(buf)?;
    let frame = read_frame(buf, PREAMBLE)
        .filter(|f| f.tag == TAG_HEADER && f.payload.len() >= IDENTITY)
        .ok_or_else(|| corrupt("stream header frame missing or torn".into()))?;
    let p = frame.payload;
    let u32_at = |i: usize| u32::from_le_bytes(p[i..i + 4].try_into().expect("4 bytes"));
    let u64_at = |i: usize| u64::from_le_bytes(p[i..i + 8].try_into().expect("8 bytes"));
    let (stream, streams) = (u32_at(0), u32_at(4));
    if stream >= streams || streams > MAX_STREAMS {
        return Err(corrupt(format!(
            "stream header names stream {stream} of {streams}"
        )));
    }
    Ok(Header {
        stream,
        streams,
        identity: [u64_at(8), u64_at(16)],
        rest: &p[IDENTITY..],
        end: frame.end,
    })
}

/// A committed epoch as a stream scan leaves it: the record with `start`
/// still `None`, and the raw start delta the merge applies against its
/// base (which only the merge, walking every stream in epoch order, knows).
type ScannedEpoch<'a> = (EpochRecord, Option<&'a [u8]>);

/// What one stream's salvage scan recovered.
struct Scan<'a> {
    stream: u32,
    streams: u32,
    identity: [u64; 2],
    /// Meta and initial checkpoint (stream 0 only).
    header: Option<(RecordingMeta, CheckpointImage)>,
    /// Committed epochs, in stream order.
    epochs: Vec<ScannedEpoch<'a>>,
    /// Per committed epoch, the offset just past its COMMIT frame — the
    /// candidate truncation points for resume.
    commit_ends: Vec<usize>,
    header_end: usize,
    /// The FINAL marker's epoch count, when it agrees with this stream's
    /// commits.
    final_count: Option<u32>,
    /// Offset just past the last valid frame.
    end: usize,
    dropped: usize,
    /// Why the scan stopped.
    stop: String,
}

/// Scans one stream, applying the commit rule frame by frame. Errors only
/// when the stream is unusable outright (foreign or retired preamble, torn
/// header); a torn tail just ends the scan.
fn scan_stream(buf: &[u8]) -> Result<Scan<'_>, ReplayError> {
    let h = read_header(buf)?;
    let mut r = Reader::new(h.rest);
    let header = if h.stream == 0 {
        let meta = RecordingMeta::get(&mut r)
            .map_err(|e| corrupt(format!("header meta undecodable: {e}")))?;
        let initial = CheckpointImage::get_delta(&CheckpointImage::empty(), &mut r)
            .map_err(|e| corrupt(format!("header checkpoint undecodable: {e}")))?;
        Some((meta, initial))
    } else {
        None
    };
    if !r.is_empty() {
        return Err(corrupt(format!(
            "{} trailing bytes inside stream header frame",
            r.remaining()
        )));
    }
    let mut s = Scan {
        stream: h.stream,
        streams: h.streams,
        identity: h.identity,
        header,
        epochs: Vec::new(),
        commit_ends: Vec::new(),
        header_end: h.end,
        final_count: None,
        end: h.end,
        dropped: 0,
        stop: String::new(),
    };
    s.stop = loop {
        let pos = s.end;
        let Some(frame) = read_frame(buf, pos) else {
            break if pos == buf.len() {
                "ends mid-run (no final marker)".to_string()
            } else {
                format!("torn or corrupt frame at byte {pos}")
            };
        };
        match frame.tag {
            TAG_EPOCH => {
                // Stream k holds epochs k, k+N, k+2N, ... in order.
                let expect = u64::from(s.stream) + u64::from(s.streams) * s.epochs.len() as u64;
                let Ok((epoch, delta)) = EpochRecord::get_head(&mut Reader::new(frame.payload))
                else {
                    break format!("epoch frame at byte {pos} undecodable");
                };
                if u64::from(epoch.index) != expect {
                    break format!(
                        "epoch frame at byte {pos} out of sequence (index {}, expected {expect})",
                        epoch.index
                    );
                }
                // The commit rule: the very next frame must be this
                // epoch's commit marker, naming the frame's checked CRC.
                let marker = commit_marker(epoch.index, frame.crc);
                let Some(commit) = read_frame(buf, frame.end)
                    .filter(|c| c.tag == TAG_COMMIT && c.payload == marker.as_slice())
                else {
                    break format!("epoch {} has no commit marker (uncommitted)", epoch.index);
                };
                s.epochs.push((epoch, delta));
                s.commit_ends.push(commit.end);
                s.end = commit.end;
            }
            TAG_FINAL => {
                s.end = frame.end;
                let count = <[u8; 4]>::try_from(frame.payload)
                    .ok()
                    .map(u32::from_le_bytes);
                if count
                    .is_some_and(|c| owned(c.into(), s.stream, s.streams) == s.epochs.len() as u64)
                {
                    s.final_count = count;
                    break "clean completion".to_string();
                }
                break "final marker disagrees with committed epoch count".to_string();
            }
            TAG_COMMIT => break format!("orphan commit marker at byte {pos}"),
            t => break format!("unknown frame tag {t} at byte {pos}"),
        }
    };
    s.dropped = buf.len() - s.end;
    Ok(s)
}

impl JournalReader {
    /// Salvages one stream: a saved recording, a one-stream journal, or
    /// one stream of a larger set (bounded at its first epoch owned by a
    /// missing sibling). Works on intact streams (`clean` when finalized)
    /// and on any crash-truncated or tail-corrupted byte prefix.
    ///
    /// # Errors
    ///
    /// As [`salvage_shards`](JournalReader::salvage_shards).
    pub fn salvage(buf: &[u8]) -> Result<Salvaged, ReplayError> {
        merge(&[buf])
    }

    /// Merges a set of journal streams back into one [`Recording`]:
    /// salvages each stream independently (commit rule per stream), then
    /// takes the longest epoch prefix whose every epoch is committed in
    /// its stream. `bufs` may arrive in any order (streams carry their own
    /// index); a missing or unusable stream bounds the prefix at its first
    /// epoch.
    ///
    /// # Errors
    ///
    /// [`ReplayError::UnsupportedVersion`] when no stream is usable and
    /// the first offered is of a retired format or another version;
    /// [`ReplayError::Corrupt`] when nothing is reconstructible: no usable
    /// stream, conflicting stream sets, or stream 0 lost — without meta
    /// and the initial checkpoint there is no valid `Recording` to build.
    /// Never panics, whatever the input.
    pub fn salvage_shards(bufs: &[Vec<u8>]) -> Result<Salvaged, ReplayError> {
        let bufs: Vec<&[u8]> = bufs.iter().map(Vec::as_slice).collect();
        merge(&bufs)
    }

    /// The stream count a stream's header declares, without scanning its
    /// epochs — how a tool learns whether a file has siblings to gather.
    ///
    /// # Errors
    ///
    /// As [`salvage`](JournalReader::salvage), for an unusable preamble or
    /// header.
    pub fn stream_count(buf: &[u8]) -> Result<u32, ReplayError> {
        read_header(buf).map(|h| h.streams)
    }
}

/// Decodes one start delta against `base`, requiring it to fill the rest
/// of its EPOCH payload exactly.
fn apply_delta(base: &CheckpointImage, delta: &[u8]) -> Result<CheckpointImage, WireError> {
    let mut r = Reader::new(delta);
    let start = CheckpointImage::get_delta(base, &mut r)?;
    if !r.is_empty() {
        return Err(WireError {
            offset: r.pos(),
            context: "trailing bytes after start delta",
        });
    }
    Ok(start)
}

fn merge(bufs: &[&[u8]]) -> Result<Salvaged, ReplayError> {
    let mut scans = Vec::new();
    let mut failures = Vec::new();
    let mut first_err = None;
    for (i, buf) in bufs.iter().enumerate() {
        match scan_stream(buf) {
            Ok(s) => scans.push(s),
            Err(e) => {
                failures.push(format!("file {i}: {e}"));
                first_err.get_or_insert(e);
            }
        }
    }
    let Some(first) = scans.first() else {
        return Err(first_err.unwrap_or_else(|| corrupt("no journal stream to salvage".into())));
    };
    let (n, identity) = (first.streams, first.identity);
    let mut slots: Vec<Option<Scan>> = (0..n).map(|_| None).collect();
    for s in scans {
        if s.streams != n {
            return Err(corrupt(format!(
                "conflicting stream counts ({} vs {n})",
                s.streams
            )));
        }
        if s.identity != identity {
            return Err(corrupt(format!(
                "stream {} belongs to a different recording",
                s.stream
            )));
        }
        let slot = &mut slots[s.stream as usize];
        if slot.is_some() {
            return Err(corrupt(format!("two files claim stream {}", s.stream)));
        }
        *slot = Some(s);
    }
    let (meta, initial) = slots[0]
        .as_mut()
        .and_then(|s| s.header.take())
        .ok_or_else(|| corrupt("stream 0 (the header stream) is missing".into()))?;

    let durable: usize = slots.iter().flatten().map(|s| s.epochs.len()).sum();
    // The merge walk: epoch i is the next committed epoch of stream
    // i mod N. Records move out of the scans; none is copied.
    let mut queues: Vec<std::vec::IntoIter<ScannedEpoch>> = slots
        .iter_mut()
        .map(|s| {
            s.as_mut()
                .map(|s| std::mem::take(&mut s.epochs))
                .unwrap_or_default()
                .into_iter()
        })
        .collect();
    // Start deltas apply in epoch order: each against the last start
    // recovered so far (`last_start` indexes it), else the initial image.
    let mut epochs: Vec<EpochRecord> = Vec::new();
    let mut last_start: Option<usize> = None;
    let walk = loop {
        let i = epochs.len();
        let t = i % n as usize;
        match queues[t].next() {
            Some((mut e, delta)) => {
                if let Some(delta) = delta {
                    let base = last_start
                        .and_then(|b| epochs[b].start.as_ref())
                        .unwrap_or(&initial);
                    match apply_delta(base, delta) {
                        Ok(start) => e.start = Some(start),
                        Err(err) => break format!("epoch {i}: start delta malformed ({err})"),
                    }
                    last_start = Some(i);
                }
                epochs.push(e);
            }
            None => {
                break match &slots[t] {
                    None => format!("epoch {i}: stream {t} is missing"),
                    Some(s) if n == 1 => s.stop.clone(),
                    Some(s) => format!("epoch {i} not durable in stream {t} ({})", s.stop),
                }
            }
        }
    };

    let merged = epochs.len();
    let keep = slots
        .iter()
        .enumerate()
        .map(|(t, s)| {
            s.as_ref()
                .map(|s| match owned(merged as u64, t as u32, n) as usize {
                    0 => s.header_end,
                    taken => s.commit_ends[taken - 1],
                })
        })
        .collect();
    let clean = failures.is_empty()
        && durable == merged
        && slots.iter().all(|s| {
            s.as_ref()
                .is_some_and(|s| s.final_count == Some(merged as u32))
        });
    let detail = if clean {
        "clean completion".to_string()
    } else if failures.is_empty() {
        walk
    } else {
        format!("{walk}; {}", failures.join("; "))
    };
    Ok(Salvaged {
        recording: Recording {
            meta,
            initial,
            epochs,
        },
        clean,
        streams: n,
        salvaged_bytes: slots.iter().flatten().map(|s| s.end).sum(),
        dropped_bytes: slots.iter().flatten().map(|s| s.dropped).sum(),
        dropped_epochs: durable - merged,
        keep,
        detail,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::DoublePlayConfig;
    use crate::logs::{ScheduleLog, SyscallLog};
    use crate::record::coordinator::record_to;
    use crate::record::testutil::{atomic_counter_spec, racy_counter_spec};
    use dp_vm::Tid;

    fn tiny_parts() -> (RecordingMeta, CheckpointImage, Vec<EpochRecord>) {
        let meta = RecordingMeta {
            guest_name: "j".into(),
            program_hash: 11,
            initial_machine_hash: 22,
            config: DoublePlayConfig::new(2),
        };
        let initial = CheckpointImage {
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
            machine_hash: 22,
        };
        let epochs = (0..3)
            .map(|i| {
                let mut schedule = ScheduleLog::new();
                schedule.push_slice(Tid(0), 100 + i as u64);
                EpochRecord {
                    index: i,
                    schedule,
                    syscalls: SyscallLog::new(),
                    end_machine_hash: 100 + u64::from(i),
                    external: Vec::new(),
                    start: None,
                    tp_cycles: 10,
                }
            })
            .collect();
        (meta, initial, epochs)
    }

    fn journal_bytes(finalize: bool) -> (Vec<u8>, Vec<u64>) {
        let (meta, initial, epochs) = tiny_parts();
        let mut w = JournalWriter::new(Vec::new()).unwrap();
        w.begin(&meta, &initial).unwrap();
        let mut commit_offsets = Vec::new();
        for e in &epochs {
            w.epoch(e).unwrap();
            commit_offsets.push(w.bytes_written());
        }
        if finalize {
            w.finish().unwrap();
        }
        assert_eq!(w.epochs_committed(), 3);
        (w.into_inner(), commit_offsets)
    }

    #[test]
    fn out_of_order_epochs_are_rejected() {
        let (meta, initial, epochs) = tiny_parts();
        let mut w = JournalWriter::new(Vec::new()).unwrap();
        w.begin(&meta, &initial).unwrap();
        let err = w.epoch(&epochs[1]).unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidInput);
        w.epoch(&epochs[0]).unwrap();
        assert_eq!(w.epochs_committed(), 1);
    }

    #[test]
    fn full_journal_salvages_clean() {
        let (buf, _) = journal_bytes(true);
        let s = JournalReader::salvage(&buf).unwrap();
        assert!(s.clean);
        assert_eq!(s.streams, 1);
        assert_eq!(s.committed(), 3);
        assert_eq!(s.dropped_bytes, 0);
        assert_eq!(s.recording.epochs[2].end_machine_hash, 102);
        assert_eq!(s.recording.meta.guest_name, "j");
    }

    #[test]
    fn unfinalized_journal_salvages_all_commits_but_not_clean() {
        let (buf, _) = journal_bytes(false);
        let s = JournalReader::salvage(&buf).unwrap();
        assert!(!s.clean);
        assert_eq!(s.committed(), 3);
        assert_eq!(s.dropped_bytes, 0);
    }

    #[test]
    fn every_prefix_salvages_exactly_the_committed_epochs() {
        let (buf, commits) = journal_bytes(true);
        for cut in 0..=buf.len() {
            let expect: usize = commits.iter().filter(|&&o| o as usize <= cut).count();
            match JournalReader::salvage(&buf[..cut]) {
                Ok(s) => {
                    assert_eq!(
                        s.committed(),
                        expect,
                        "cut {cut}: salvaged {} epochs, expected {expect}",
                        s.committed()
                    );
                    assert_eq!(s.clean, cut == buf.len(), "cut {cut} clean flag");
                }
                Err(ReplayError::Corrupt { .. }) => {
                    // Only acceptable before the header frame is durable.
                    assert_eq!(expect, 0, "cut {cut}: header lost but epochs expected");
                }
                Err(e) => panic!("cut {cut}: unexpected error {e:?}"),
            }
        }
    }

    #[test]
    fn bitflips_after_header_never_gain_epochs_or_panic() {
        let (buf, commits) = journal_bytes(true);
        let full = commits.len();
        for i in 0..buf.len() {
            let mut bad = buf.clone();
            bad[i] ^= 0x40;
            match JournalReader::salvage(&bad) {
                Ok(s) => assert!(s.committed() <= full),
                Err(ReplayError::Corrupt { .. }) => {}
                // A flip inside the 4-byte version field reads as a
                // foreign version, which is typed separately.
                Err(ReplayError::UnsupportedVersion { .. }) => assert!((4..8).contains(&i)),
                Err(e) => panic!("flip at {i}: unexpected error {e:?}"),
            }
        }
    }

    #[test]
    fn commit_marker_is_required() {
        // Chop the journal right after an epoch frame but before its
        // commit marker: the epoch must not be salvaged.
        let (buf, commits) = journal_bytes(false);
        let cut = commits[1] as usize - FRAME_HEAD - 8 - FRAME_TAIL - 1;
        let s = JournalReader::salvage(&buf[..cut]).unwrap();
        assert_eq!(s.committed(), 1);
        assert!(s.detail.contains("commit marker") || s.detail.contains("torn"));
    }

    #[test]
    fn keep_offset_tracks_the_last_commit_frame() {
        let (buf, commits) = journal_bytes(true);
        let s = JournalReader::salvage(&buf).unwrap();
        // Clean journal: the keep offset excludes the FINAL frame.
        assert_eq!(s.keep, vec![Some(*commits.last().unwrap() as usize)]);
        assert_eq!(s.salvaged_bytes, buf.len());
        // Cut mid-epoch: the keep offset stays at the previous commit.
        let cut = commits[1] as usize + 3;
        let s = JournalReader::salvage(&buf[..cut]).unwrap();
        assert_eq!(s.committed(), 2);
        assert_eq!(s.keep, vec![Some(commits[1] as usize)]);
        // No epochs at all: the keep offset is the header frame's end, and
        // re-salvaging exactly that prefix is stable.
        let s = JournalReader::salvage(&buf[..commits[0] as usize - 1]).unwrap();
        assert_eq!(s.committed(), 0);
        let keep = s.keep[0].unwrap();
        let s0 = JournalReader::salvage(&buf[..keep]).unwrap();
        assert_eq!(s0.committed(), 0);
        assert_eq!(s0.keep, vec![Some(keep)]);
    }

    #[test]
    fn resume_continues_byte_identically() {
        let (full, commits) = journal_bytes(true);
        let (_, _, epochs) = tiny_parts();
        // Crash after epoch 1's commit, mid-epoch-2: salvage, truncate to
        // the kept prefix, and append the missing tail.
        let cut = commits[1] as usize + 7;
        let s = JournalReader::salvage(&full[..cut]).unwrap();
        assert_eq!(s.committed(), 2);
        let keep = s.keep[0].unwrap();
        let mut w = JournalWriter::resume(vec![full[..keep].to_vec()], 1, &s).unwrap();
        assert_eq!(w.epochs_committed(), 2);
        assert_eq!(w.bytes_written() as usize, keep);
        // Out-of-order guard still holds across the crash boundary.
        assert!(w.epoch(&epochs[0]).is_err());
        w.epoch(&epochs[2]).unwrap();
        w.finish().unwrap();
        assert_eq!(w.into_inner(), full);
    }

    #[test]
    fn garbage_and_retired_containers_are_typed_errors() {
        assert!(matches!(
            JournalReader::salvage(b""),
            Err(ReplayError::Corrupt { .. })
        ));
        assert!(matches!(
            JournalReader::salvage(b"WAT?\x03\x00\x00\x00rest"),
            Err(ReplayError::Corrupt { .. })
        ));
        // Files of the retired containers, and streams of another version,
        // are recognized by their preamble and refused with the typed
        // version error, whatever follows it.
        let (body, _) = journal_bytes(true);
        for (magic, found) in [
            (b"DPRC", 2u32),
            (b"DPRJ", 2),
            (b"DPRZ", 1),
            (b"DPRS", 2),
            (b"DPRS", 3),
            (b"DPRS", 4),
            (b"DPRS", 9),
        ] {
            let mut old = body.clone();
            old[..4].copy_from_slice(magic);
            old[4..8].copy_from_slice(&found.to_le_bytes());
            let results = [
                JournalReader::salvage(&old).map(drop),
                JournalReader::stream_count(&old).map(drop),
                Recording::load(&old[..]).map(drop),
            ];
            for result in results {
                match result {
                    Err(ReplayError::UnsupportedVersion {
                        container,
                        found: f,
                        expected,
                    }) => {
                        assert!(container.as_bytes().starts_with(magic), "{container}");
                        assert_eq!((f, expected), (found, VERSION));
                    }
                    other => {
                        panic!("{magic:?} v{found}: expected UnsupportedVersion, got {other:?}")
                    }
                }
            }
        }
        // One bit flip turns "DPRS" into "DPRC"; at version 5 that is a bad
        // magic, not a retired file.
        let mut flipped = body.clone();
        flipped[3] ^= 0x10;
        assert_eq!(&flipped[..4], b"DPRC");
        assert!(matches!(
            JournalReader::salvage(&flipped),
            Err(ReplayError::Corrupt { .. })
        ));
    }

    #[test]
    fn epoch_encoded_writes_identical_bytes() {
        let (meta, initial, epochs) = tiny_parts();
        let mut w1 = JournalWriter::new(Vec::new()).unwrap();
        let mut w2 = JournalWriter::new(Vec::new()).unwrap();
        w1.begin(&meta, &initial).unwrap();
        w2.begin(&meta, &initial).unwrap();
        for ep in &epochs {
            w1.epoch(ep).unwrap();
            w2.epoch_encoded(ep, &EncodedLogs::of(ep)).unwrap();
        }
        w1.finish().unwrap();
        w2.finish().unwrap();
        assert_eq!(w1.into_inner(), w2.into_inner());
    }

    /// Parts whose epochs store start images: epoch 0 at the initial
    /// image, epoch 1 with a word of page 2 and all of page 3 written,
    /// epoch 2 unchanged. The initial kernel holds a file, so every delta
    /// back-references it.
    fn delta_parts() -> (RecordingMeta, CheckpointImage, Vec<EpochRecord>) {
        let (meta, mut initial, mut epochs) = tiny_parts();
        initial.kernel = dp_os::kernel::Kernel::new(dp_os::kernel::WorldConfig {
            files: vec![("/in".into(), b"input bytes".to_vec())],
            ..Default::default()
        });
        let mut changed = initial.clone();
        let mem = &mut changed.machine.mem;
        mem.write(2 * 4096, 0xabcd, dp_vm::Width::W8);
        let page: Vec<u8> = (0..4096).map(|i| (i % 255 + 1) as u8).collect();
        mem.write_bytes(3 * 4096, &page);
        epochs[0].start = Some(initial.clone());
        epochs[1].start = Some(changed.clone());
        epochs[2].start = Some(changed);
        (meta, initial, epochs)
    }

    fn journal_of(parts: &(RecordingMeta, CheckpointImage, Vec<EpochRecord>)) -> Vec<u8> {
        let (meta, initial, epochs) = parts;
        let mut w = JournalWriter::new(Vec::new()).unwrap();
        w.begin(meta, initial).unwrap();
        for e in epochs {
            w.epoch(e).unwrap();
        }
        w.finish().unwrap();
        w.into_inner()
    }

    /// Rewrites epoch `target`'s EPOCH payload in a one-stream journal —
    /// `edit` gets the payload and the offset of its start delta — and
    /// re-frames it with a matching CRC and commit marker, so only the
    /// delta's content is wrong.
    fn with_edited_delta(
        buf: &[u8],
        target: u32,
        edit: impl FnOnce(&mut Vec<u8>, usize),
    ) -> Vec<u8> {
        let mut out = buf[..PREAMBLE].to_vec();
        let mut pos = PREAMBLE;
        let mut edit = Some(edit);
        while let Some(frame) = read_frame(buf, pos) {
            let mut next = frame.end;
            let head = EpochRecord::get_head(&mut Reader::new(frame.payload));
            match head {
                Ok((e, Some(delta))) if frame.tag == TAG_EPOCH && e.index == target => {
                    let mut payload = frame.payload.to_vec();
                    (edit.take().expect("one target epoch"))(
                        &mut payload,
                        frame.payload.len() - delta.len(),
                    );
                    let crc =
                        push_frame(&mut out, TAG_EPOCH, |p| p.extend_from_slice(&payload)).unwrap();
                    push_frame(&mut out, TAG_COMMIT, |p| {
                        p.extend_from_slice(&commit_marker(target, crc));
                    })
                    .unwrap();
                    next = read_frame(buf, frame.end).expect("commit frame").end;
                }
                _ => out.extend_from_slice(&buf[pos..frame.end]),
            }
            pos = next;
        }
        assert!(edit.is_none(), "epoch {target} has no start delta");
        out
    }

    #[test]
    fn start_deltas_round_trip_and_share_pages() {
        let parts = delta_parts();
        let buf = journal_of(&parts);
        let s = JournalReader::salvage(&buf).unwrap();
        assert!(s.clean, "{}", s.detail);
        for (want, got) in parts.2.iter().zip(&s.recording.epochs) {
            let (want, got) = (want.start.as_ref().unwrap(), got.start.as_ref().unwrap());
            assert_eq!(
                want.machine.mem.state_digest(),
                got.machine.mem.state_digest()
            );
            assert_eq!(want.kernel, got.kernel);
        }
        // Unchanged pages are shared, not copied: the unchanged epoch 2
        // start is the epoch 1 start again.
        let starts: Vec<_> = s
            .recording
            .epochs
            .iter()
            .map(|e| e.start.as_ref().unwrap())
            .collect();
        assert_eq!(
            starts[1]
                .machine
                .mem
                .first_difference(&starts[2].machine.mem),
            None
        );
        // Only the header carries a full image; the deltas hold one raw
        // page and the run of page 2.
        let mut full = Vec::new();
        parts.1.put_delta(&CheckpointImage::empty(), &mut full);
        assert!(
            buf.len() < full.len() + 4096 + 1024,
            "journal of {} bytes",
            buf.len()
        );
        // Saving the salvaged recording reproduces the journal.
        let mut again = Vec::new();
        s.recording.save(&mut again).unwrap();
        assert_eq!(again, buf);
    }

    #[test]
    fn malformed_start_deltas_end_the_prefix_before_their_epoch() {
        let buf = journal_of(&delta_parts());
        // Epoch 1's delta: page count 2, then page 2 as one run (tag, run
        // count, `gap << 4 | length`, 2 bytes), then page 3 raw (tag, 4096
        // bytes).
        type Edit = fn(&mut Vec<u8>, usize);
        let cases: [(&str, Edit); 5] = [
            ("unknown page delta tag", |p, at| {
                assert_eq!(&p[at..at + 7], &[2, 2, 3, 1, 2, 0xcd, 0xab]);
                p[at + 2] = 7;
            }),
            ("file back-reference the base lacks", |p, at| {
                let name = p[at..]
                    .windows(3)
                    .rposition(|w| w == b"/in")
                    .expect("the file's path is in the delta");
                p[at + name..at + name + 3].copy_from_slice(b"/xx");
            }),
            ("memory page", |p, at| {
                assert_eq!(&p[at + 7..at + 9], &[3, 1]);
                p.truncate(at + 9 + 100);
            }),
            ("zero-length page delta run", |p, at| p[at + 4] = 0),
            // Page 2 as block 2 of file 1: the initial image has one file.
            ("file block of a file the base lacks", |p, at| p[at + 2] = 2),
        ];
        for (reason, edit) in cases {
            let bad = with_edited_delta(&buf, 1, edit);
            let s = JournalReader::salvage(&bad).unwrap();
            assert_eq!(s.committed(), 1, "{reason}: {}", s.detail);
            assert!(!s.clean);
            assert_eq!(s.dropped_epochs, 2, "{reason}");
            assert!(
                s.detail.contains("epoch 1: start delta malformed") && s.detail.contains(reason),
                "expected `{reason}`, got: {}",
                s.detail
            );
            assert_eq!(
                s.keep,
                JournalReader::salvage(&buf[..s.keep[0].unwrap()])
                    .unwrap()
                    .keep
            );
        }
    }

    /// A guest that fills 64 pages, then only computes in registers.
    fn fill_then_spin_spec() -> crate::world::GuestSpec {
        use dp_vm::builder::ProgramBuilder;
        use dp_vm::{BinOp, Reg, Width};
        let mut pb = ProgramBuilder::new();
        let mut f = pb.function("main");
        let (fill, spin, done) = (f.label(), f.label(), f.label());
        f.consti(Reg(9), 0x10_0000);
        f.consti(Reg(10), 0);
        f.bind(fill);
        f.bin(BinOp::Ltu, Reg(11), Reg(10), 64 * 4096i64);
        f.jz(Reg(11), spin);
        f.add(Reg(12), Reg(9), Reg(10));
        f.store(Reg(9), Reg(12), 0, Width::W8);
        f.add(Reg(10), Reg(10), 8i64);
        f.jmp(fill);
        f.bind(spin);
        f.consti(Reg(10), 0);
        let top = f.label();
        f.bind(top);
        f.bin(BinOp::Ltu, Reg(11), Reg(10), 40_000i64);
        f.jz(Reg(11), done);
        f.add(Reg(10), Reg(10), 1i64);
        f.jmp(top);
        f.bind(done);
        f.consti(Reg(0), 0);
        f.syscall(dp_os::abi::SYS_EXIT);
        f.finish();
        crate::world::GuestSpec::new(
            "fill-then-spin",
            Arc::new(pb.finish("main")),
            Default::default(),
        )
    }

    #[test]
    fn epoch_frames_track_dirty_pages_not_the_footprint() {
        struct Sizes {
            w: JournalWriter<Vec<u8>>,
            frames: Vec<u64>,
        }
        impl RecordSink for Sizes {
            fn begin(&mut self, meta: &RecordingMeta, initial: &CheckpointImage) -> io::Result<()> {
                self.w.begin(meta, initial)
            }
            fn epoch(&mut self, e: &EpochRecord) -> io::Result<()> {
                let before = self.w.bytes_written();
                self.w.epoch(e)?;
                self.frames.push(self.w.bytes_written() - before);
                Ok(())
            }
            fn finish(&mut self) -> io::Result<()> {
                self.w.finish()
            }
        }
        let mut sink = Sizes {
            w: JournalWriter::new(Vec::new()).unwrap(),
            frames: Vec::new(),
        };
        let config = DoublePlayConfig::new(2).epoch_cycles(20_000);
        let bundle = record_to(&fill_then_spin_spec(), &config, &mut sink).unwrap();
        let epochs = &bundle.recording.epochs;
        // Memory stops changing once the fill is done; the first epoch to
        // start in that state still carries the fill's last pages.
        let digest = |i: usize| epochs[i].start.as_ref().unwrap().machine.mem.state_digest();
        let filled = digest(epochs.len() - 1);
        let first = (0..epochs.len()).find(|&i| digest(i) == filled).unwrap();
        let after = first + 1..epochs.len();
        assert!(
            after.len() >= 4,
            "only {} epochs after the fill",
            after.len()
        );
        for i in after {
            let start = epochs[i].start.as_ref().unwrap();
            assert!(start.machine.mem.resident_pages() >= 64);
            assert!(
                sink.frames[i] < 1024,
                "epoch {i} after the fill wrote {} bytes",
                sink.frames[i]
            );
        }
    }

    /// Replaying a journal digests the start images salvage decoded. Each
    /// page version hashes once: the header image's pages on first use,
    /// and after that only the pages each start delta carries, because a
    /// delta-decoded start shares every other page, digest included, with
    /// the start before it.
    #[test]
    fn salvaged_start_images_hash_only_their_delta_pages() {
        let mut w = JournalWriter::new(Vec::new()).unwrap();
        let config = DoublePlayConfig::new(2).epoch_cycles(20_000);
        record_to(&fill_then_spin_spec(), &config, &mut w).unwrap();
        let recording = JournalReader::salvage(w.get_ref()).unwrap().recording;
        let digest = |mem: &dp_vm::memory::Memory| {
            let before = mem.hash_stats().hashed_pages;
            assert_eq!(mem.state_digest(), mem.state_digest_scratch());
            mem.hash_stats().hashed_pages - before
        };
        let mut base = &recording.initial.machine.mem;
        let mut bound = base.resident_pages() as u64;
        let mut hashed = digest(base);
        for e in &recording.epochs {
            let mem = &e.start.as_ref().unwrap().machine.mem;
            let mut delta = Vec::new();
            mem.put_delta(base, &[], &mut delta);
            bound += usize::get(&mut Reader::new(&delta)).unwrap() as u64;
            hashed += digest(mem);
            base = mem;
        }
        assert!(recording.epochs.len() >= 8, "{}", recording.epochs.len());
        assert!(hashed <= bound, "{hashed} pages hashed, bound {bound}");
    }

    #[test]
    fn owned_counts_round_robin_epochs() {
        for n in 1..6u32 {
            for total in 0..40u64 {
                for k in 0..n {
                    let expect = (0..total)
                        .filter(|i| i % u64::from(n) == u64::from(k))
                        .count() as u64;
                    assert_eq!(owned(total, k, n), expect, "total={total} n={n} k={k}");
                }
            }
        }
    }

    /// Records `spec` through a sync multi-stream writer and returns the
    /// streams plus, per epoch, its stream and that stream's length right
    /// after the epoch's hand-off (the per-stream commit offsets — group
    /// commit makes no difference to a byte-granular store).
    fn sharded_solo(
        spec: &crate::world::GuestSpec,
        config: &DoublePlayConfig,
        shards: u32,
        batch: u32,
    ) -> (Vec<Vec<u8>>, Vec<(usize, u64)>) {
        struct Tap {
            w: JournalWriter<Vec<u8>>,
            offsets: Vec<(usize, u64)>,
        }
        impl RecordSink for Tap {
            fn begin(&mut self, meta: &RecordingMeta, initial: &CheckpointImage) -> io::Result<()> {
                self.w.begin(meta, initial)
            }
            fn epoch(&mut self, e: &EpochRecord) -> io::Result<()> {
                let k = (e.index % self.w.stream_count()) as usize;
                self.w.epoch(e)?;
                let len = match &self.w.lanes[k] {
                    Lane::Sync { w, .. } => w.len() as u64,
                    Lane::Threaded { .. } => unreachable!("sync tap"),
                };
                self.offsets.push((k, len));
                Ok(())
            }
            fn finish(&mut self) -> io::Result<()> {
                self.w.finish()
            }
        }
        let writers = (0..shards).map(|_| Vec::new()).collect();
        let mut tap = Tap {
            w: JournalWriter::sync(writers, batch).unwrap(),
            offsets: Vec::new(),
        };
        record_to(spec, config, &mut tap).unwrap();
        (tap.w.into_writers().unwrap(), tap.offsets)
    }

    /// The byte-identity acceptance sweep: for seeds × workers × stream
    /// counts × fault plans, the multi-stream journal merges to a
    /// `Recording` whose saved bytes equal the lockstep recording's — which
    /// in turn equal its finalized one-stream journal.
    #[test]
    fn sharded_merge_is_byte_identical_to_sequential_across_sweep() {
        crate::faults::silence_injected_panics();
        for seed in 0..3u64 {
            for &workers in &[1usize, 2] {
                for &shards in &[2u32, 3, 5] {
                    for &faulty in &[false, true] {
                        // Two regimes: a racy guest tuned to diverge (the
                        // forward-recovery path), and an atomic guest with
                        // injected worker panics over many short epochs.
                        let (spec, config) = if faulty {
                            (
                                atomic_counter_spec(1_500, 2),
                                DoublePlayConfig::new(2)
                                    .epoch_cycles(4_000)
                                    .hidden_seed(seed)
                                    // Plan seed is fixed: the panic draw
                                    // is a pure function of (plan seed,
                                    // epoch, attempt), and this seed is
                                    // known to stay within the retry
                                    // budget for this guest.
                                    .faults(
                                        crate::faults::FaultPlan::none()
                                            .seed(5)
                                            .worker_panics_with(0.3),
                                    ),
                            )
                        } else {
                            (
                                racy_counter_spec(3_000),
                                DoublePlayConfig {
                                    tp_quantum: 200,
                                    tp_jitter: 300,
                                    ..DoublePlayConfig::new(2)
                                        .epoch_cycles(20_000)
                                        .hidden_seed(seed)
                                },
                            )
                        };
                        let config = config.spare_workers(workers).pipelined(workers > 0);
                        // Sequential one-stream reference.
                        let mut seq_journal = JournalWriter::new(Vec::new()).unwrap();
                        let seq =
                            record_to(&spec, &config.pipelined(false), &mut seq_journal).unwrap();
                        // Multi-stream pipelined run.
                        let (streams, _) = sharded_solo(&spec, &config, shards, 4);
                        let merged = JournalReader::salvage_shards(&streams).unwrap();
                        assert!(merged.clean, "detail: {}", merged.detail);
                        assert_eq!(merged.dropped_epochs, 0);
                        assert_eq!(merged.streams, shards);
                        let mut seq_bytes = Vec::new();
                        let mut sharded_bytes = Vec::new();
                        seq.recording.save(&mut seq_bytes).unwrap();
                        merged.recording.save(&mut sharded_bytes).unwrap();
                        assert_eq!(
                            seq_bytes, sharded_bytes,
                            "merge diverged (seed={seed} workers={workers} \
                             shards={shards} faulty={faulty})"
                        );
                        assert_eq!(
                            seq_journal.into_inner(),
                            seq_bytes,
                            "a finalized one-stream journal is the saved recording"
                        );
                    }
                }
            }
        }
    }

    /// Crash sweep: cutting every stream prefix (with siblings intact)
    /// always yields exactly the dependency-closed prefix.
    #[test]
    fn every_shard_prefix_merges_to_the_dependency_closed_prefix() {
        let spec = atomic_counter_spec(4_000, 2);
        let config = DoublePlayConfig::new(2).epoch_cycles(1_500);
        let shards = 3u32;
        let (streams, offsets) = sharded_solo(&spec, &config, shards, 2);
        let epochs = offsets.len();
        assert!(epochs >= 6, "need several epochs per shard");
        // Cut shard `cut_shard` after `keep` of its epochs; siblings stay
        // complete. The consistent prefix must stop at the first epoch
        // assigned to the cut shard beyond `keep`.
        for cut_shard in 0..shards as usize {
            let ends: Vec<u64> = offsets
                .iter()
                .filter(|(s, _)| *s == cut_shard)
                .map(|(_, o)| *o)
                .collect();
            for (keep, &end) in ends.iter().enumerate() {
                let mut bufs = streams.clone();
                bufs[cut_shard].truncate(end as usize - 1);
                let merged = JournalReader::salvage_shards(&bufs).unwrap();
                // `keep` commits survive in the cut shard (the (keep+1)-th
                // is torn), so the prefix ends at that shard's epoch
                // number `keep`: global index cut_shard + keep*N.
                let expect = (cut_shard + keep * shards as usize).min(epochs);
                assert_eq!(
                    merged.committed(),
                    expect,
                    "cut shard {cut_shard} after {keep} commits"
                );
                assert!(!merged.clean);
                assert_eq!(
                    merged.dropped_epochs,
                    epochs - (epochs - expect).div_ceil(shards as usize) - expect,
                    "cut shard {cut_shard} keep {keep}: durable-but-dropped count"
                );
            }
        }
    }

    #[test]
    fn resume_continues_shard_streams_byte_identically() {
        let spec = atomic_counter_spec(4_000, 2);
        let config = DoublePlayConfig::new(2).epoch_cycles(1_500);
        let shards = 3u32;
        let (full_streams, offsets) = sharded_solo(&spec, &config, shards, 2);
        let full = JournalReader::salvage_shards(&full_streams).unwrap();
        assert!(full.clean);
        // Crash: tear stream 1 after one commit; siblings stay intact. The
        // merged prefix stops at stream 1's next epoch, so intact siblings
        // carry durable-but-unusable commits past it.
        let cut_shard = 1usize;
        let ends: Vec<u64> = offsets
            .iter()
            .filter(|(s, _)| *s == cut_shard)
            .map(|(_, o)| *o)
            .collect();
        let mut torn = full_streams.clone();
        torn[cut_shard].truncate(ends[1] as usize - 1);
        let salvaged = JournalReader::salvage_shards(&torn).unwrap();
        assert!(!salvaged.clean);
        let committed = salvaged.committed();
        assert!(committed < full.committed());
        assert!(salvaged.dropped_epochs > 0);
        // Truncate each stream to its keep point, append the missing tail,
        // finish — byte-identical to the uninterrupted run.
        let kept: Vec<Vec<u8>> = torn
            .iter()
            .enumerate()
            .map(|(t, s)| s[..salvaged.keep[t].unwrap()].to_vec())
            .collect();
        let mut w = JournalWriter::resume(kept, 2, &salvaged).unwrap();
        assert_eq!(w.epochs_committed() as usize, committed);
        for e in &full.recording.epochs[committed..] {
            w.epoch(e).unwrap();
        }
        w.finish().unwrap();
        assert_eq!(w.into_writers().unwrap(), full_streams);
        // A missing sibling stream forbids resume outright.
        let headerless = JournalReader::salvage_shards(&[torn[0].clone()]).unwrap();
        assert!(headerless.keep.iter().any(Option::is_none));
        match JournalWriter::resume(vec![Vec::<u8>::new(); shards as usize], 2, &headerless) {
            Ok(_) => panic!("resume with a missing stream must fail"),
            Err(e) => assert_eq!(e.kind(), io::ErrorKind::InvalidInput),
        }
        // So does a writer-count mismatch.
        match JournalWriter::resume(vec![Vec::<u8>::new()], 2, &salvaged) {
            Ok(_) => panic!("resume with a writer-count mismatch must fail"),
            Err(e) => assert_eq!(e.kind(), io::ErrorKind::InvalidInput),
        }
    }

    #[test]
    fn threaded_lanes_produce_identical_streams() {
        let spec = atomic_counter_spec(1_200, 2);
        let config = DoublePlayConfig::new(2).epoch_cycles(2_500);
        let (sync_streams, _) = sharded_solo(&spec, &config, 4, 8);
        let writers = (0..4).map(|_| Vec::new()).collect();
        let mut w = JournalWriter::threaded(writers, 8).unwrap();
        record_to(&spec, &config, &mut w).unwrap();
        // Lane flushes race a read before the join; count after it.
        let shared = Arc::clone(&w.shared);
        let threaded_streams = w.into_writers().unwrap();
        assert!(
            shared.flushes.load(Ordering::SeqCst) >= 4,
            "headers alone flush once per shard"
        );
        assert_eq!(sync_streams, threaded_streams);
    }

    #[test]
    fn group_commit_amortizes_flushes() {
        struct CountingSink(Vec<u8>, Arc<AtomicU64>);
        impl Write for CountingSink {
            fn write(&mut self, data: &[u8]) -> io::Result<usize> {
                self.0.extend_from_slice(data);
                Ok(data.len())
            }
            fn flush(&mut self) -> io::Result<()> {
                self.1.fetch_add(1, Ordering::SeqCst);
                Ok(())
            }
        }
        let spec = atomic_counter_spec(2_000, 2);
        let config = DoublePlayConfig::new(2).epoch_cycles(1_500);
        // One stream: one flush per epoch plus header and final.
        let single_flushes = Arc::new(AtomicU64::new(0));
        let mut single =
            JournalWriter::new(CountingSink(Vec::new(), Arc::clone(&single_flushes))).unwrap();
        let bundle = record_to(&spec, &config, &mut single).unwrap();
        let epochs = bundle.stats.committed;
        assert!(epochs >= 8, "need enough epochs to amortize");
        assert_eq!(single_flushes.load(Ordering::SeqCst), epochs + 2);
        // Two streams, batch 8: headers + finals + ~epochs/8 group commits.
        let shard_flushes = Arc::new(AtomicU64::new(0));
        let writers = (0..2)
            .map(|_| CountingSink(Vec::new(), Arc::clone(&shard_flushes)))
            .collect();
        let mut sharded = JournalWriter::sync(writers, 8).unwrap();
        record_to(&spec, &config, &mut sharded).unwrap();
        let sharded_count = shard_flushes.load(Ordering::SeqCst);
        assert_eq!(sharded.epochs_committed() as u64, epochs);
        assert!(
            sharded_count < single_flushes.load(Ordering::SeqCst),
            "sharded {sharded_count} flushes vs single {} — no amortization",
            single_flushes.load(Ordering::SeqCst)
        );
        assert_eq!(sharded.flushes(), sharded_count);
    }

    #[test]
    fn out_of_order_epochs_are_rejected_across_streams() {
        let spec = atomic_counter_spec(800, 2);
        let config = DoublePlayConfig::new(2).epoch_cycles(2_000);
        let (streams, _) = sharded_solo(&spec, &config, 2, 4);
        let merged = JournalReader::salvage_shards(&streams).unwrap();
        let mut w = JournalWriter::sync(vec![Vec::<u8>::new(), Vec::new()], 4).unwrap();
        w.begin(&merged.recording.meta, &merged.recording.initial)
            .unwrap();
        let err = w.epoch(&merged.recording.epochs[1]).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidInput);
    }

    #[test]
    fn foreign_mixed_and_duplicate_shards_are_typed_errors() {
        let spec = atomic_counter_spec(800, 2);
        let config = DoublePlayConfig::new(2).epoch_cycles(2_000);
        let (streams, _) = sharded_solo(&spec, &config, 2, 4);
        // Empty set and garbage are typed.
        assert!(matches!(
            JournalReader::salvage_shards(&[]),
            Err(ReplayError::Corrupt { .. })
        ));
        assert!(matches!(
            JournalReader::salvage_shards(&[b"garbage".to_vec()]),
            Err(ReplayError::Corrupt { .. })
        ));
        // Duplicate stream index.
        assert!(matches!(
            JournalReader::salvage_shards(&[streams[0].clone(), streams[0].clone()]),
            Err(ReplayError::Corrupt { .. })
        ));
        // A stream of a different recording (different seed → different
        // identity hashes) must be rejected, not merged.
        let other_cfg = config.hidden_seed(1234);
        let (other, _) = sharded_solo(&spec, &other_cfg, 2, 4);
        let r = JournalReader::salvage_shards(&[streams[0].clone(), other[1].clone()]);
        if let Ok(ok) = &r {
            // Same program and boot state can legitimately pair; then the
            // merge must still be internally consistent.
            assert!(ok.committed() <= streams.len() * ok.recording.epochs.len().max(1));
        }
        // Missing stream 0 (the full header) is unrecoverable.
        assert!(matches!(
            JournalReader::salvage_shards(&[streams[1].clone()]),
            Err(ReplayError::Corrupt { .. })
        ));
        // Missing a sibling bounds the prefix at its first epoch.
        let merged = JournalReader::salvage_shards(&[streams[0].clone()]).unwrap();
        assert_eq!(merged.committed(), 1.min(merged.recording.epochs.len()));
        assert!(!merged.clean);
    }

    #[test]
    fn bitflips_never_gain_epochs_or_panic() {
        let spec = atomic_counter_spec(800, 2);
        let config = DoublePlayConfig::new(2).epoch_cycles(2_000);
        let (streams, _) = sharded_solo(&spec, &config, 2, 4);
        let full = JournalReader::salvage_shards(&streams).unwrap().committed();
        for shard in 0..streams.len() {
            for i in (0..streams[shard].len()).step_by(7) {
                let mut bad = streams.clone();
                bad[shard][i] ^= 0x40;
                match JournalReader::salvage_shards(&bad) {
                    Ok(s) => assert!(s.committed() <= full),
                    Err(ReplayError::Corrupt { .. }) => {}
                    Err(e) => panic!("flip at {shard}:{i}: unexpected error {e:?}"),
                }
            }
        }
    }
}
