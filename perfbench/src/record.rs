//! One record → replay pass: record a guest into an on-disk journal, read
//! the journal back, salvage it, and replay it on two threads. Every call
//! into `dp-core` is timed from here; nothing inside the crates changes.

use crate::sink::{Counting, IoCounts, SinkTimes, TimedSink};
use crate::trace::Tracer;
use dp_core::logs::{decode_schedule, decode_syscalls, encode_schedule, encode_syscalls};
use dp_core::{
    record_to, replay_parallel, DoublePlayConfig, GuestSpec, JournalReader, JournalWriter,
    RecordSink, RecorderStats, Recording, RecordingBundle, ShardedJournalWriter,
};
use std::fs::File;
use std::hint::black_box;
use std::io::{BufWriter, Write};
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Replay threads: the host has two cores.
pub const REPLAY_THREADS: usize = 2;

/// The on-disk form a recording is written in.
#[derive(Debug, Clone, Copy)]
pub enum Container {
    /// One `DPRJ` journal, flushed at every epoch commit.
    Journal,
    /// `shards` `DPRS` streams appended by lane threads, each flushed
    /// once per `batch` epochs.
    Sharded { shards: u32, batch: u32 },
}

/// What to record and how.
#[derive(Clone)]
pub struct Plan {
    pub spec: GuestSpec,
    pub config: DoublePlayConfig,
    pub container: Container,
    /// Total external output bytes the guest must release, when known.
    pub expected_external: Option<u64>,
}

/// The values that must repeat exactly when the same plan is recorded
/// again.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Fingerprint {
    pub epochs: u64,
    pub journal_bytes: u64,
    pub log_bytes: u64,
    pub final_hash: u64,
}

/// Write-side numbers only a traced pass collects.
#[derive(Debug, Clone)]
pub struct WriteSide {
    pub sink: SinkTimes,
    pub file_bytes: u64,
    pub flushes: u64,
    pub encode: Duration,
    pub decode: Duration,
}

/// What one pass measured.
#[derive(Debug, Clone)]
pub struct Pass {
    /// File creation, `record_to` (including `finish`), and closing the
    /// files.
    pub record: Duration,
    /// Reading the files, salvaging them, and `replay_parallel`.
    pub replay: Duration,
    pub read: Duration,
    pub salvage: Duration,
    pub parallel: Duration,
    pub replay_instructions: u64,
    pub stats: RecorderStats,
    pub fingerprint: Fingerprint,
    pub write_side: Option<WriteSide>,
    /// Output checks: each entry is one checked operation.
    pub checks: Vec<Result<(), String>>,
}

/// The journal files a pass writes for `group` under `dir`.
fn journal_paths(dir: &Path, container: Container, group: u64) -> Vec<PathBuf> {
    match container {
        Container::Journal => vec![dir.join(format!("g{group}.dprj"))],
        Container::Sharded { shards, .. } => (0..shards)
            .map(|k| dir.join(format!("g{group}.s{k}.dprs")))
            .collect(),
    }
}

/// Records `plan` into journal files under `dir`, reads them back, and
/// replays them. A traced pass also wraps the sink and the files in
/// counters and times the log codec. The files are removed afterwards.
///
/// # Errors
///
/// A recording that fails outright; later failures land in
/// [`Pass::checks`].
pub fn run_pass(
    plan: &Plan,
    dir: &Path,
    tracer: &Tracer,
    group: u64,
    traced: bool,
) -> Result<Pass, String> {
    let paths = journal_paths(dir, plan.container, group);
    let result = pass_inner(plan, &paths, tracer, group, traced);
    for p in &paths {
        let _ = std::fs::remove_file(p);
    }
    result
}

fn pass_inner(
    plan: &Plan,
    paths: &[PathBuf],
    tracer: &Tracer,
    group: u64,
    traced: bool,
) -> Result<Pass, String> {
    let root = tracer.open();
    let root_id = root.id();

    let rec = tracer.open();
    let rec_id = rec.id();
    let (bundle, sink) = if traced {
        let counts: Vec<Arc<IoCounts>> = paths.iter().map(|_| Arc::default()).collect();
        let mut writers = Vec::new();
        for (p, c) in paths.iter().zip(&counts) {
            writers.push(Counting::new(BufWriter::new(create(p)?), c.clone()));
        }
        let (bundle, times) = record_into(plan, writers, Some((tracer, group, rec_id)))?;
        let bytes = counts.iter().map(|c| c.bytes()).sum();
        let flushes = counts.iter().map(|c| c.flushes()).sum();
        (bundle, times.map(|t| (t, bytes, flushes)))
    } else {
        let mut writers = Vec::new();
        for p in paths {
            writers.push(BufWriter::new(create(p)?));
        }
        (record_into(plan, writers, None)?.0, None)
    };
    let record = tracer.close(rec, "record", group, Some(root_id), None);

    let mut journal_bytes = 0;
    for p in paths {
        journal_bytes += std::fs::metadata(p)
            .map_err(|e| format!("stat {}: {e}", p.display()))?
            .len();
    }
    let RecordingBundle { recording, stats } = bundle;
    let fingerprint = Fingerprint {
        epochs: stats.epochs,
        journal_bytes,
        log_bytes: stats.log_bytes(),
        final_hash: final_hash(&recording),
    };
    let write_side = match sink {
        Some((sink, file_bytes, flushes)) => {
            let (encode, decode) = time_codec(&recording)?;
            Some(WriteSide {
                sink,
                file_bytes,
                flushes,
                encode,
                decode,
            })
        }
        None => None,
    };
    drop(recording);

    let rep = tracer.open();
    let rep_id = rep.id();
    let read = tracer.open();
    let mut bufs = Vec::with_capacity(paths.len());
    for p in paths {
        bufs.push(std::fs::read(p).map_err(|e| format!("read {}: {e}", p.display()))?);
    }
    let read_took = tracer.close(read, "journal.read", group, Some(rep_id), None);
    let salv = tracer.open();
    let salvaged = salvage(&bufs);
    let salvage_took = tracer.close(salv, "journal.salvage", group, Some(rep_id), None);
    let (recovered, clean, detail) = salvaged?;
    let par = tracer.open();
    let replayed = replay_parallel(&recovered, &plan.spec.program, REPLAY_THREADS);
    let parallel_took = tracer.close(par, "replay_parallel", group, Some(rep_id), None);
    let replay = tracer.close(rep, "replay", group, Some(root_id), None);
    drop(bufs);
    tracer.close(root, "pass", group, None, None);

    let mut checks = Vec::new();
    let committed = recovered.epochs.len() as u64;
    checks.push(if clean && committed == stats.epochs {
        Ok(())
    } else {
        Err(format!(
            "journal salvaged {committed} of {} epochs (clean: {clean}, {detail})",
            stats.epochs
        ))
    });
    let replay_instructions = match &replayed {
        Ok(r) if r.final_hash == fingerprint.final_hash && u64::from(r.epochs) == committed => {
            checks.push(Ok(()));
            r.instructions
        }
        Ok(r) => {
            checks.push(Err(format!(
                "replay reached hash {:#x} after {} epochs, recording ends at {:#x} after {}",
                r.final_hash, r.epochs, fingerprint.final_hash, committed
            )));
            0
        }
        Err(e) => {
            checks.push(Err(format!("replay_parallel failed: {e}")));
            0
        }
    };
    if plan.expected_external.is_some() {
        checks.push(check_external(&recovered, plan.expected_external));
    }

    Ok(Pass {
        record,
        replay,
        read: read_took,
        salvage: salvage_took,
        parallel: parallel_took,
        replay_instructions,
        stats,
        fingerprint,
        write_side,
        checks,
    })
}

fn create(path: &Path) -> Result<File, String> {
    File::create(path).map_err(|e| format!("create {}: {e}", path.display()))
}

/// Salvages one `DPRJ` journal, or merges a set of `DPRS` shard streams;
/// returns the recording, whether it completed cleanly, and why the scan
/// stopped.
///
/// # Errors
///
/// Bytes from which no recording can be recovered.
pub fn salvage(bufs: &[Vec<u8>]) -> Result<(Recording, bool, String), String> {
    let salvaged = match bufs {
        [journal] => JournalReader::salvage(journal).map(|s| (s.recording, s.clean, s.detail)),
        shards => JournalReader::salvage_shards(shards).map(|s| (s.recording, s.clean, s.detail)),
    };
    salvaged.map_err(|e| format!("journal does not salvage: {e}"))
}

/// Checks the recording's external output against the number of bytes
/// the guest must release, when that is known.
pub fn check_external(recording: &Recording, expected: Option<u64>) -> Result<(), String> {
    let Some(expected) = expected else {
        return Ok(());
    };
    let got: u64 = recording.external().map(|c| c.bytes.len() as u64).sum();
    if got == expected {
        Ok(())
    } else {
        Err(format!(
            "external output is {got} bytes, expected {expected}"
        ))
    }
}

/// The machine digest the recording ends at.
pub fn final_hash(recording: &Recording) -> u64 {
    recording
        .epochs
        .last()
        .map_or(recording.meta.initial_machine_hash, |e| e.end_machine_hash)
}

/// Records `plan` through the container's writer over `writers`, then
/// flushes and closes them. With `trace` set, the sink is wrapped in a
/// [`TimedSink`] whose spans hang under a `record_to` span.
fn record_into<W: Write + Send + 'static>(
    plan: &Plan,
    writers: Vec<W>,
    trace: Option<(&Tracer, u64, u32)>,
) -> Result<(RecordingBundle, Option<SinkTimes>), String> {
    let io = |what: &'static str| move |e: std::io::Error| format!("{what}: {e}");
    match plan.container {
        Container::Journal => {
            let w = writers.into_iter().next().expect("a journal has one file");
            let mut journal = JournalWriter::new(w).map_err(io("journal preamble"))?;
            let out = record_with(plan, &mut journal, trace)?;
            journal.into_inner().flush().map_err(io("journal flush"))?;
            Ok(out)
        }
        Container::Sharded { batch, .. } => {
            let mut journal =
                ShardedJournalWriter::threaded(writers, batch).map_err(io("shard preamble"))?;
            let out = record_with(plan, &mut journal, trace)?;
            for mut w in journal.into_writers().map_err(io("shard lanes"))? {
                w.flush().map_err(io("shard flush"))?;
            }
            Ok(out)
        }
    }
}

fn record_with(
    plan: &Plan,
    sink: &mut dyn RecordSink,
    trace: Option<(&Tracer, u64, u32)>,
) -> Result<(RecordingBundle, Option<SinkTimes>), String> {
    let err = |e: dp_core::RecordError| format!("record_to failed: {e}");
    match trace {
        None => Ok((
            record_to(&plan.spec, &plan.config, sink).map_err(err)?,
            None,
        )),
        Some((tracer, group, parent)) => {
            let open = tracer.open();
            let mut timed = TimedSink::new(sink, tracer, group, open.id());
            let bundle = record_to(&plan.spec, &plan.config, &mut timed);
            tracer.close(open, "record_to", group, Some(parent), None);
            Ok((bundle.map_err(err)?, Some(timed.into_times())))
        }
    }
}

/// Times `encode_*` and `decode_*` over every recorded epoch's logs, and
/// checks that each log decodes back to itself.
fn time_codec(recording: &Recording) -> Result<(Duration, Duration), String> {
    let start = Instant::now();
    let encoded: Vec<(Vec<u8>, Vec<u8>)> = recording
        .epochs
        .iter()
        .map(|e| {
            (
                black_box(encode_schedule(&e.schedule)),
                black_box(encode_syscalls(&e.syscalls)),
            )
        })
        .collect();
    let encode = start.elapsed();
    let start = Instant::now();
    let mut decoded = Vec::with_capacity(encoded.len());
    for (s, c) in &encoded {
        let schedule = decode_schedule(s).map_err(|e| format!("schedule log: {e}"))?;
        let syscalls = decode_syscalls(c).map_err(|e| format!("syscall log: {e}"))?;
        decoded.push(black_box((schedule, syscalls)));
    }
    let decode = start.elapsed();
    for (e, (schedule, syscalls)) in recording.epochs.iter().zip(&decoded) {
        if *schedule != e.schedule || *syscalls != e.syscalls {
            return Err(format!(
                "epoch {} logs do not decode to themselves",
                e.index
            ));
        }
    }
    Ok((encode, decode))
}
