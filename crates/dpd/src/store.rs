//! Pluggable per-session journal stores, including a crash-simulating one.
//!
//! The daemon streams each session's journal — one stream, or `N` for a
//! session recording with `journal_shards >= 2` — through a
//! [`SessionStore`], which hands out one writer per stream per attempt and
//! can later produce the bytes that would survive a machine crash. Two
//! implementations:
//!
//! * [`MemStore`] — in-memory buffers, optionally threaded onto a shared
//!   [`CrashClock`] that models a daemon-wide SIGKILL: one global byte
//!   clock advances with every write from every session, and only bytes
//!   written before the crash instant are durable (a write straddling the
//!   instant is torn). This is the engine of the N-journal crash property
//!   tests.
//! * [`DirStore`] — one `s{id}-{name}.s{k}.dprs` file per journal stream
//!   in a directory, for `dp serve`; a killed daemon leaves files that
//!   `dp sessions` / `dp salvage` recover independently.

use crate::session::SessionId;
use dp_core::JournalReader;
use std::collections::{HashMap, HashSet};
use std::fs::File;
use std::io::{self, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// Where per-session journals go, one writer per journal stream.
/// Implementations are shared across runner threads.
pub trait SessionStore: Send + Sync {
    /// Opens (or truncates, on a retry) stream `stream` of `id`'s journal
    /// for the given attempt and returns its writer. Attempts rewrite in
    /// place: the journal a session leaves behind is always its *latest*
    /// attempt's.
    ///
    /// # Errors
    ///
    /// Store I/O failures (these surface as the session's sink error).
    fn open(
        &self,
        id: SessionId,
        name: &str,
        attempt: u32,
        stream: u32,
    ) -> io::Result<Box<dyn Write + Send>>;

    /// The bytes of stream `stream` of `id`'s journal that would survive
    /// a crash right now — what a post-mortem salvage scan would read.
    ///
    /// # Errors
    ///
    /// Unknown session or stream, or store I/O failures.
    fn durable(&self, id: SessionId, stream: u32) -> io::Result<Vec<u8>>;

    /// Reopens stream `stream` of `id`'s journal for crash-resume:
    /// truncates it to its `keep`-byte salvaged prefix (dropping the torn
    /// tail) and returns a writer positioned to **append** after it —
    /// unlike [`open`](SessionStore::open), the prefix is preserved, not
    /// rewritten.
    ///
    /// # Errors
    ///
    /// Unknown session or stream, or store I/O failures.
    fn open_resume(
        &self,
        id: SessionId,
        stream: u32,
        keep: u64,
    ) -> io::Result<Box<dyn Write + Send>>;
}

/// A daemon-wide crash instant, measured on a global byte clock.
///
/// Every write from every session advances the clock by its length; bytes
/// ticked off before `crash_at` are durable, bytes after are lost, and
/// the write straddling the instant is torn (a prefix survives). Because
/// sessions interleave on the clock in whatever order the OS schedules
/// their commits, this reproduces the failure mode of one machine dying
/// under N concurrent recording sessions — each journal is cut at an
/// arbitrary, *different* point.
#[derive(Debug)]
pub struct CrashClock {
    now: AtomicU64,
    crash_at: u64,
}

impl CrashClock {
    /// A clock that crashes once `crash_at` total bytes have been written.
    pub fn new(crash_at: u64) -> Arc<Self> {
        Arc::new(CrashClock {
            now: AtomicU64::new(0),
            crash_at,
        })
    }

    /// Advances the clock by a write of `n` bytes and returns how many of
    /// them land before the crash instant (possibly 0, possibly a torn
    /// prefix).
    fn grant(&self, n: u64) -> u64 {
        let start = self.now.fetch_add(n, Ordering::Relaxed);
        self.crash_at.saturating_sub(start).min(n)
    }

    /// Total bytes written on this clock so far.
    pub fn elapsed(&self) -> u64 {
        self.now.load(Ordering::Relaxed)
    }
}

#[derive(Debug, Default)]
struct SessionBuf {
    /// Everything the session wrote (the process's own view — writes keep
    /// "succeeding" after the crash instant; the process just doesn't know
    /// the machine is dead).
    bytes: Vec<u8>,
    /// Prefix of `bytes` that landed before the crash instant.
    durable: usize,
}

/// [`MemStore`]'s buffer map: keyed by `(session id, stream)`.
type SessionBufs = HashMap<(u64, u32), Arc<Mutex<SessionBuf>>>;

/// An in-memory [`SessionStore`], optionally crash-simulating. Each
/// `(session, stream)` pair gets its own buffer on the same crash clock,
/// so one machine death cuts every stream of every session at a
/// different point.
#[derive(Default)]
pub struct MemStore {
    /// Keyed by `(session id, stream)`.
    sessions: Mutex<SessionBufs>,
    clock: Option<Arc<CrashClock>>,
}

impl MemStore {
    /// A store with no crash: `durable` returns everything written.
    pub fn new() -> Self {
        MemStore::default()
    }

    /// A store whose durability is cut by `clock`.
    pub fn crashing(clock: Arc<CrashClock>) -> Self {
        MemStore {
            sessions: Mutex::new(HashMap::new()),
            clock: Some(clock),
        }
    }

    fn buf(&self, id: SessionId, stream: u32) -> Arc<Mutex<SessionBuf>> {
        self.sessions
            .lock()
            .unwrap()
            .entry((id.0, stream))
            .or_default()
            .clone()
    }

    fn writer(&self, buf: Arc<Mutex<SessionBuf>>) -> Box<dyn Write + Send> {
        Box::new(MemWriter {
            buf,
            clock: self.clock.clone(),
        })
    }

    /// Everything stream 0 of the session has written, durable or not
    /// (the live view).
    pub fn live(&self, id: SessionId) -> Vec<u8> {
        self.buf(id, 0).lock().unwrap().bytes.clone()
    }

    /// Seeds a `(session, stream)` buffer with fully-durable `bytes` —
    /// models a daemon reboot: the new incarnation's store starts from
    /// whatever the dead one left durable.
    pub fn seed(&self, id: SessionId, stream: u32, bytes: Vec<u8>) {
        let buf = self.buf(id, stream);
        let mut b = buf.lock().unwrap();
        b.durable = bytes.len();
        b.bytes = bytes;
    }
}

struct MemWriter {
    buf: Arc<Mutex<SessionBuf>>,
    clock: Option<Arc<CrashClock>>,
}

impl Write for MemWriter {
    fn write(&mut self, data: &[u8]) -> io::Result<usize> {
        let mut b = self.buf.lock().unwrap();
        let granted = match &self.clock {
            Some(c) => c.grant(data.len() as u64) as usize,
            None => data.len(),
        };
        // The durable prefix only grows while the journal tail is exactly
        // where the device left off; a crash freezes it forever.
        if b.durable == b.bytes.len() {
            b.durable += granted;
        }
        b.bytes.extend_from_slice(data);
        Ok(data.len())
    }

    fn flush(&mut self) -> io::Result<()> {
        Ok(())
    }
}

impl SessionStore for MemStore {
    fn open(
        &self,
        id: SessionId,
        _name: &str,
        _attempt: u32,
        stream: u32,
    ) -> io::Result<Box<dyn Write + Send>> {
        let buf = self.buf(id, stream);
        {
            let mut b = buf.lock().unwrap();
            // Truncating reopen. If the crash already happened, the
            // truncate itself never reaches the device: the old durable
            // prefix would in reality survive, but modelling that would
            // need per-attempt files — the crash tests use budget 0, so
            // a post-crash retry simply contributes nothing durable.
            b.bytes.clear();
            b.durable = 0;
        }
        Ok(self.writer(buf))
    }

    fn durable(&self, id: SessionId, stream: u32) -> io::Result<Vec<u8>> {
        let buf = self.buf(id, stream);
        let b = buf.lock().unwrap();
        Ok(b.bytes[..b.durable].to_vec())
    }

    fn open_resume(
        &self,
        id: SessionId,
        stream: u32,
        keep: u64,
    ) -> io::Result<Box<dyn Write + Send>> {
        let buf = self.buf(id, stream);
        {
            let mut b = buf.lock().unwrap();
            // Keep the salvaged prefix, drop the torn tail. The surviving
            // prefix is durable by definition — it was salvaged from the
            // device — so the appended continuation extends from there.
            b.bytes.truncate(keep as usize);
            let len = b.bytes.len();
            b.durable = b.durable.min(len);
        }
        Ok(self.writer(buf))
    }
}

/// How one orphaned journal left behind by a previous daemon incarnation
/// classifies on re-adoption.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum OrphanClass {
    /// A clean, FINAL-marked journal: the session completed and nothing
    /// was lost. Adopted as [`Finalized`](crate::SessionState::Finalized).
    Finalized {
        /// Epochs the journal commits.
        epochs: u32,
    },
    /// The journal salvages to a committed epoch prefix but did not
    /// finalize — the previous daemon died mid-recording. Adopted as
    /// [`Salvaged`](crate::SessionState::Salvaged).
    Salvageable {
        /// Epochs in the committed prefix (possibly 0).
        epochs: u32,
        /// Why salvage stopped, for operator-facing reporting.
        detail: String,
    },
    /// Not a recoverable journal: a zero-length file, a `.tmp` leftover
    /// from an interrupted write, an unrecognized name, or bytes that no
    /// salvage scan accepts. Reported, never adopted — garbage must not
    /// wedge boot.
    Garbage {
        /// What disqualified the file.
        reason: String,
    },
}

/// One journal (its stream set) found in a [`DirStore`] directory that the
/// current incarnation did not write — a candidate for boot re-adoption.
#[derive(Debug)]
pub struct Orphan {
    /// The session id parsed from the file name; garbage entries whose
    /// names do not parse have none.
    pub id: Option<SessionId>,
    /// The session name parsed from the file name (for garbage, the raw
    /// file name).
    pub name: String,
    /// The backing stream files as `(stream, path)`, in stream order
    /// (garbage: the one file, as stream 0).
    pub files: Vec<(u32, PathBuf)>,
    /// What the salvage scan concluded.
    pub class: OrphanClass,
}

/// Parses a stream file stem of the form `s{id:04}-{name}.s{k}`.
fn parse_stem(stem: &str) -> Option<(u64, &str, u32)> {
    let (session, stream) = stem.rsplit_once(".s")?;
    let (digits, name) = session.strip_prefix('s')?.split_once('-')?;
    let numeric = |s: &str| !s.is_empty() && s.bytes().all(|b| b.is_ascii_digit());
    if !numeric(digits) || !numeric(stream) {
        return None;
    }
    Some((digits.parse().ok()?, name, stream.parse().ok()?))
}

/// A directory of `s{id:04}-{name}.s{k}.dprs` files: one per stream of
/// each session's journal.
pub struct DirStore {
    dir: PathBuf,
    paths: Mutex<HashMap<(u64, u32), PathBuf>>,
}

impl DirStore {
    /// Creates the directory (if needed) and the store.
    ///
    /// # Errors
    ///
    /// Directory creation failures.
    pub fn new(dir: impl AsRef<Path>) -> io::Result<Self> {
        std::fs::create_dir_all(dir.as_ref())?;
        Ok(DirStore {
            dir: dir.as_ref().to_path_buf(),
            paths: Mutex::new(HashMap::new()),
        })
    }

    /// The path of stream 0 of `id`'s journal — the whole journal of a
    /// one-stream session — if it opened one.
    pub fn path(&self, id: SessionId) -> Option<PathBuf> {
        self.shard_path(id, 0)
    }

    /// The path of stream `stream` of `id`'s journal, if it opened one.
    pub fn shard_path(&self, id: SessionId, stream: u32) -> Option<PathBuf> {
        self.paths.lock().unwrap().get(&(id.0, stream)).cloned()
    }

    /// Registers an existing stream file as stream `stream` of `id`'s
    /// journal, so [`durable`](SessionStore::durable) — and therefore the
    /// attach path — works for sessions adopted from a previous
    /// incarnation rather than opened by this one.
    pub fn adopt_path(&self, id: SessionId, stream: u32, path: PathBuf) {
        self.paths.lock().unwrap().insert((id.0, stream), path);
    }

    /// Scans the store directory for journals this incarnation did not
    /// write, groups each session's stream files, and classifies every
    /// set by its salvage: clean journals are [`OrphanClass::Finalized`],
    /// crash-cut ones [`OrphanClass::Salvageable`] (with their committed
    /// epoch count), and everything unrecoverable — zero-length files,
    /// `.tmp` leftovers from interrupted writes, unrecognized names,
    /// unsalvageable bytes — is [`OrphanClass::Garbage`] with a reason,
    /// reported rather than wedging boot. Results are ordered by session
    /// id, then name.
    ///
    /// # Errors
    ///
    /// Directory or file I/O failures.
    pub fn scan_orphans(&self) -> io::Result<Vec<Orphan>> {
        let own: HashSet<PathBuf> = self.paths.lock().unwrap().values().cloned().collect();
        let garbage = |path: PathBuf, reason: String| {
            let name = path
                .file_name()
                .map(|n| n.to_string_lossy().into_owned())
                .unwrap_or_else(|| path.display().to_string());
            Orphan {
                id: None,
                name,
                files: vec![(0, path)],
                class: OrphanClass::Garbage { reason },
            }
        };
        let mut orphans: Vec<Orphan> = Vec::new();
        let mut sets: HashMap<(u64, String), Vec<(u32, PathBuf)>> = HashMap::new();
        for entry in std::fs::read_dir(&self.dir)? {
            let entry = entry?;
            let path = entry.path();
            if !entry.file_type()?.is_file() || own.contains(&path) {
                continue;
            }
            let Some(fname) = path.file_name().and_then(|n| n.to_str()).map(String::from) else {
                orphans.push(garbage(path, "non-UTF-8 file name".into()));
                continue;
            };
            if fname.ends_with(".tmp") {
                orphans.push(garbage(
                    path,
                    "temporary leftover from an interrupted write".into(),
                ));
            } else if entry.metadata()?.len() == 0 {
                orphans.push(garbage(path, "zero-length file".into()));
            } else if let Some(stem) = fname.strip_suffix(".dprs") {
                match parse_stem(stem) {
                    Some((id, name, stream)) => sets
                        .entry((id, name.to_string()))
                        .or_default()
                        .push((stream, path)),
                    None => orphans.push(garbage(path, "unrecognized journal name".into())),
                }
            } else {
                orphans.push(garbage(path, "not a journal file".into()));
            }
        }
        for ((id, name), mut files) in sets {
            files.sort_by_key(|&(k, _)| k);
            let bufs = files
                .iter()
                .map(|(_, p)| std::fs::read(p))
                .collect::<io::Result<Vec<Vec<u8>>>>()?;
            let class = match JournalReader::salvage_shards(&bufs) {
                Ok(s) if s.clean => OrphanClass::Finalized {
                    epochs: s.committed() as u32,
                },
                Ok(s) => OrphanClass::Salvageable {
                    epochs: s.committed() as u32,
                    detail: s.detail,
                },
                Err(e) => OrphanClass::Garbage {
                    reason: e.to_string(),
                },
            };
            orphans.push(Orphan {
                id: Some(SessionId(id)),
                name,
                files,
                class,
            });
        }
        orphans.sort_by(|a, b| a.id.cmp(&b.id).then_with(|| a.name.cmp(&b.name)));
        Ok(orphans)
    }

    fn registered(&self, id: SessionId, stream: u32) -> io::Result<PathBuf> {
        self.shard_path(id, stream).ok_or_else(|| {
            io::Error::new(
                io::ErrorKind::NotFound,
                format!("no journal stream {stream} for {id}"),
            )
        })
    }
}

impl SessionStore for DirStore {
    fn open(
        &self,
        id: SessionId,
        name: &str,
        _attempt: u32,
        stream: u32,
    ) -> io::Result<Box<dyn Write + Send>> {
        // Session names come from workload names, but sanitize anyway so a
        // hostile name cannot escape the store directory.
        let safe: String = name
            .chars()
            .map(|c| if c.is_ascii_alphanumeric() { c } else { '_' })
            .collect();
        let path = self.dir.join(format!("{id}-{safe}.s{stream}.dprs"));
        let file = File::create(&path)?;
        self.paths.lock().unwrap().insert((id.0, stream), path);
        Ok(Box::new(file))
    }

    fn durable(&self, id: SessionId, stream: u32) -> io::Result<Vec<u8>> {
        std::fs::read(self.registered(id, stream)?)
    }

    fn open_resume(
        &self,
        id: SessionId,
        stream: u32,
        keep: u64,
    ) -> io::Result<Box<dyn Write + Send>> {
        let mut file = std::fs::OpenOptions::new()
            .write(true)
            .open(self.registered(id, stream)?)?;
        // Make the truncation to the salvaged prefix durable before any
        // continuation byte can land after it — a crash between the two
        // must leave the prefix, never prefix + stale tail + new tail.
        file.set_len(keep)?;
        file.sync_data()?;
        io::Seek::seek(&mut file, io::SeekFrom::End(0))?;
        Ok(Box::new(file))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mem_store_without_clock_is_fully_durable() {
        let store = MemStore::new();
        let id = SessionId(1);
        let mut w = store.open(id, "a", 0, 0).unwrap();
        w.write_all(b"hello").unwrap();
        w.flush().unwrap();
        drop(w);
        assert_eq!(store.durable(id, 0).unwrap(), b"hello");
        assert_eq!(store.live(id), b"hello");
        // A retry truncates in place.
        let mut w = store.open(id, "a", 1, 0).unwrap();
        w.write_all(b"x").unwrap();
        drop(w);
        assert_eq!(store.durable(id, 0).unwrap(), b"x");
    }

    #[test]
    fn crash_clock_tears_the_straddling_write() {
        let clock = CrashClock::new(7);
        let store = MemStore::crashing(clock.clone());
        let id = SessionId(2);
        let mut w = store.open(id, "b", 0, 0).unwrap();
        w.write_all(b"abcde").unwrap(); // bytes 0..5: durable
        w.write_all(b"fghij").unwrap(); // bytes 5..10: 2 land, torn at 7
        w.write_all(b"klmno").unwrap(); // after the crash: lost
        drop(w);
        assert_eq!(store.durable(id, 0).unwrap(), b"abcdefg");
        assert_eq!(store.live(id), b"abcdefghijklmno");
        assert_eq!(clock.elapsed(), 15);
    }

    #[test]
    fn crash_clock_interleaves_sessions() {
        let clock = CrashClock::new(4);
        let store = MemStore::crashing(clock);
        let a = SessionId(1);
        let b = SessionId(2);
        let mut wa = store.open(a, "a", 0, 0).unwrap();
        let mut wb = store.open(b, "b", 0, 0).unwrap();
        wa.write_all(b"111").unwrap(); // clock 0..3: durable
        wb.write_all(b"222").unwrap(); // clock 3..6: torn at 4
        wa.write_all(b"333").unwrap(); // clock 6..9: lost
        assert_eq!(store.durable(a, 0).unwrap(), b"111");
        assert_eq!(store.durable(b, 0).unwrap(), b"2");
    }

    #[test]
    fn mem_store_shards_share_the_crash_clock() {
        let clock = CrashClock::new(4);
        let store = MemStore::crashing(clock);
        let id = SessionId(7);
        let mut w0 = store.open(id, "s", 0, 0).unwrap();
        let mut w1 = store.open(id, "s", 0, 1).unwrap();
        w0.write_all(b"111").unwrap(); // clock 0..3: durable
        w1.write_all(b"222").unwrap(); // clock 3..6: torn at 4
        w0.write_all(b"333").unwrap(); // clock 6..9: lost
        assert_eq!(store.durable(id, 0).unwrap(), b"111");
        assert_eq!(store.durable(id, 1).unwrap(), b"2");
    }

    #[test]
    fn dir_store_writes_shard_siblings() {
        let tmp = crate::testdir::TempDir::new("dpd-shard-test");
        let store = DirStore::new(tmp.path()).unwrap();
        let id = SessionId(5);
        for k in 0..3u32 {
            let mut w = store.open(id, "job", 0, k).unwrap();
            w.write_all(format!("stream{k}").as_bytes()).unwrap();
        }
        for k in 0..3u32 {
            assert_eq!(
                store.durable(id, k).unwrap(),
                format!("stream{k}").as_bytes()
            );
            let path = store.shard_path(id, k).unwrap();
            assert!(path
                .to_str()
                .unwrap()
                .ends_with(&format!("s0005-job.s{k}.dprs")));
        }
        assert_eq!(store.path(id), store.shard_path(id, 0));
        assert!(store.durable(id, 3).is_err(), "no fourth stream");
    }

    #[test]
    fn stem_parser_accepts_store_names_only() {
        assert_eq!(
            parse_stem("s0004-pfscan_2_small.s0"),
            Some((4, "pfscan_2_small", 0))
        );
        assert_eq!(parse_stem("s0123-x.s2"), Some((123, "x", 2)));
        assert_eq!(parse_stem("0004-x.s0"), None, "missing s prefix");
        assert_eq!(parse_stem("s-x.s0"), None, "no digits");
        assert_eq!(parse_stem("s00x4-y.s0"), None, "non-digit id");
        assert_eq!(parse_stem("s0004.s0"), None, "no name separator");
        assert_eq!(parse_stem("s0004-job.2"), None, "missing s on stream");
        assert_eq!(parse_stem("s0004-job.sx"), None, "non-digit stream");
        assert_eq!(parse_stem("s0004-job"), None, "no stream suffix");
    }

    #[test]
    fn scan_classifies_orphans_and_reports_garbage() {
        use dp_core::{record_to, DoublePlayConfig, JournalWriter};
        let tmp = crate::testdir::TempDir::new("dpd-orphan-test");
        let dir = tmp.path().to_path_buf();
        // A previous incarnation: one clean journal, one truncated one.
        let spec = crate::guests::atomic_counter(2, 300);
        let cfg = DoublePlayConfig::new(2).epoch_cycles(600);
        let mut w = JournalWriter::new(Vec::new()).unwrap();
        record_to(&spec, &cfg, &mut w).unwrap();
        let clean = w.into_inner();
        {
            let old = DirStore::new(&dir).unwrap();
            let mut f = old.open(SessionId(1), "done", 0, 0).unwrap();
            f.write_all(&clean).unwrap();
            let mut f = old.open(SessionId(2), "cut", 0, 0).unwrap();
            f.write_all(&clean[..clean.len() - 3]).unwrap();
        }
        // Crash leftovers that must be garbage, not wedge boot.
        std::fs::write(dir.join("s0003-empty.s0.dprs"), b"").unwrap();
        std::fs::write(dir.join("s0004-half.s0.dprs.tmp"), b"partial").unwrap();
        std::fs::write(dir.join("notes.txt"), b"hi").unwrap();
        std::fs::write(dir.join("weird.dprs"), b"DPRS????").unwrap();

        let store = DirStore::new(&dir).unwrap();
        let orphans = store.scan_orphans().unwrap();
        assert_eq!(orphans.len(), 6, "{orphans:?}");
        let by_name = |n: &str| {
            orphans
                .iter()
                .find(|o| o.name == n)
                .unwrap_or_else(|| panic!("no orphan named {n}: {orphans:?}"))
        };
        let done = by_name("done");
        assert_eq!(done.id, Some(SessionId(1)));
        assert!(
            matches!(done.class, OrphanClass::Finalized { epochs } if epochs >= 1),
            "{:?}",
            done.class
        );
        let cut = by_name("cut");
        assert_eq!(cut.id, Some(SessionId(2)));
        assert!(
            matches!(cut.class, OrphanClass::Salvageable { .. }),
            "{:?}",
            cut.class
        );
        for n in [
            "s0003-empty.s0.dprs",
            "s0004-half.s0.dprs.tmp",
            "notes.txt",
            "weird.dprs",
        ] {
            assert!(
                matches!(by_name(n).class, OrphanClass::Garbage { .. }),
                "{n}: {:?}",
                by_name(n).class
            );
            assert_eq!(by_name(n).id, None);
        }
        // Files registered by this incarnation are not orphans.
        let mut f = store.open(SessionId(9), "mine", 0, 0).unwrap();
        f.write_all(&clean).unwrap();
        drop(f);
        assert_eq!(store.scan_orphans().unwrap().len(), 6);
        // Adoption registers the path so durable() works.
        store.adopt_path(SessionId(1), 0, done.files[0].1.clone());
        assert_eq!(store.durable(SessionId(1), 0).unwrap(), clean);
    }

    #[test]
    fn scan_groups_shard_sets() {
        use dp_core::{record_to, DoublePlayConfig, JournalWriter};
        let tmp = crate::testdir::TempDir::new("dpd-orphan-shards");
        let dir = tmp.path().to_path_buf();
        let spec = crate::guests::atomic_counter(2, 300);
        let cfg = DoublePlayConfig::new(2).epoch_cycles(600);
        {
            let old = DirStore::new(&dir).unwrap();
            let sinks = (0..3u32)
                .map(|k| old.open(SessionId(5), "sharded", 0, k).unwrap())
                .collect();
            let mut w = JournalWriter::sync(sinks, dp_core::DEFAULT_SHARD_BATCH).unwrap();
            record_to(&spec, &cfg, &mut w).unwrap();
        }
        let store = DirStore::new(&dir).unwrap();
        let orphans = store.scan_orphans().unwrap();
        assert_eq!(orphans.len(), 1, "{orphans:?}");
        let o = &orphans[0];
        assert_eq!(o.id, Some(SessionId(5)));
        assert_eq!(o.name, "sharded");
        assert_eq!(
            o.files.iter().map(|(k, _)| *k).collect::<Vec<_>>(),
            vec![0, 1, 2]
        );
        assert!(
            matches!(o.class, OrphanClass::Finalized { epochs } if epochs >= 1),
            "{:?}",
            o.class
        );
    }

    #[test]
    fn dir_store_round_trips_and_sanitizes() {
        let tmp = crate::testdir::TempDir::new("dpd-store-test");
        let store = DirStore::new(tmp.path()).unwrap();
        let id = SessionId(3);
        let mut w = store.open(id, "we/ird name", 0, 0).unwrap();
        w.write_all(b"journal").unwrap();
        drop(w);
        assert_eq!(store.durable(id, 0).unwrap(), b"journal");
        let path = store.path(id).unwrap();
        assert!(path
            .file_name()
            .unwrap()
            .to_str()
            .unwrap()
            .contains("we_ird_name"));
        assert!(store.durable(SessionId(99), 0).is_err());
    }

    #[test]
    fn mem_store_resume_appends_after_the_kept_prefix() {
        let store = MemStore::new();
        let id = SessionId(4);
        store.seed(id, 0, b"prefix+torn".to_vec());
        let mut w = store.open_resume(id, 0, 6).unwrap();
        w.write_all(b"-more").unwrap();
        drop(w);
        assert_eq!(store.durable(id, 0).unwrap(), b"prefix-more");
        // Streams truncate and append independently.
        store.seed(id, 1, b"abcdef".to_vec());
        let mut w = store.open_resume(id, 1, 3).unwrap();
        w.write_all(b"XY").unwrap();
        drop(w);
        assert_eq!(store.durable(id, 1).unwrap(), b"abcXY");
    }

    #[test]
    fn dir_store_resume_truncates_then_appends() {
        let tmp = crate::testdir::TempDir::new("dpd-resume-test");
        let store = DirStore::new(tmp.path()).unwrap();
        let id = SessionId(8);
        let mut w = store.open(id, "r", 0, 0).unwrap();
        w.write_all(b"prefix+torn-tail").unwrap();
        drop(w);
        let mut w = store.open_resume(id, 0, 6).unwrap();
        w.write_all(b"-more").unwrap();
        drop(w);
        assert_eq!(store.durable(id, 0).unwrap(), b"prefix-more");
        assert!(store.open_resume(SessionId(99), 0, 0).is_err());
    }
}
