//! The daemon: registry, runner pool, verify-core leases, supervision.
//!
//! One mutex-guarded [`Registry`] holds every session as a row; a fixed
//! pool of runner threads claims queued sessions and executes recording
//! attempts outside the lock. The shared verify-core pool is a counting
//! lease: a pipelined session needs `spare_workers` permits to run
//! pipelined; when permits are short, low-priority sessions (and sessions
//! whose demand exceeds the whole pool) *degrade* to the serialized
//! driver instead of waiting — recording the same bytes (the pipelined
//! flag is not wire-encoded) at lower throughput, which is the graceful
//! form of backpressure. Every attempt runs under `catch_unwind`, so a
//! panicking session is a row update, never a dead daemon.

use crate::admission::AdmitError;
use crate::session::{Priority, SessionError, SessionId, SessionReport, SessionSpec, SessionState};
use crate::store::{DirStore, Orphan, OrphanClass, SessionStore};
use dp_core::{
    record_to, resume_from, DoublePlayConfig, GuestSpec, JournalReader, JournalWriter,
    RecordingMeta, Salvaged, DEFAULT_SHARD_BATCH,
};
use dp_os::FaultedSink;
use std::collections::{HashMap, VecDeque};
use std::io::Write;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Claim passes a core-short queue head survives before the scheduler
/// earmarks freed cores for it (the anti-starvation threshold).
const STARVATION_PASS_LIMIT: u32 = 16;

/// Admission-wait samples kept for the latency percentiles — a sliding
/// window over the most recent first-claims, so a long-lived daemon's
/// metrics stay O(window) in memory and reflect *recent* behaviour.
const ADMISSION_WINDOW: usize = 1024;

/// Service-level tuning knobs.
#[derive(Debug, Clone, Copy)]
pub struct DaemonConfig {
    /// Runner threads — the maximum number of concurrently recording
    /// sessions.
    pub runners: usize,
    /// Size of the shared verify-core pool pipelined sessions lease from.
    pub verify_cores: usize,
    /// Bound on queued (not yet claimed) sessions; submissions beyond it
    /// are shed with [`AdmitError::Rejected`]. Retries of already-admitted
    /// sessions re-queue regardless — admission is the only gate.
    pub queue_capacity: usize,
    /// Per-daemon (per-boot) crash-resume budget: at most this many
    /// [`resume`](Daemon::resume) requests are accepted for the daemon's
    /// lifetime, bounding the prefix re-enactment work one boot can take
    /// on. This is deliberately *not* per-attempt: a crash-looping machine
    /// must converge on serving fresh work, not re-replay forever.
    pub resume_budget: u32,
    /// Admission lane resumed sessions re-queue on. Resumes flow through
    /// the normal claim path — they share runners and verify cores with
    /// fresh sessions at exactly this priority, nothing more.
    pub resume_priority: Priority,
}

impl Default for DaemonConfig {
    fn default() -> Self {
        DaemonConfig {
            runners: 4,
            verify_cores: 8,
            queue_capacity: 64,
            resume_budget: 16,
            resume_priority: Priority::Normal,
        }
    }
}

/// Aggregate service counters, for `dpd-load`, `dp serve`, and E14.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DaemonMetrics {
    /// Sessions admitted.
    pub admitted: u64,
    /// Submissions shed with [`AdmitError::Rejected`].
    pub rejected: u64,
    /// Sessions that reached [`SessionState::Finalized`].
    pub finalized: u64,
    /// Sessions that reached [`SessionState::Salvaged`].
    pub salvaged: u64,
    /// Sessions that reached [`SessionState::Failed`].
    pub failed: u64,
    /// Attempts re-queued after a contained failure.
    pub retries: u64,
    /// Attempts run serialized because the verify-core pool was
    /// oversubscribed.
    pub degraded_runs: u64,
    /// Epochs committed across all terminal sessions (their journals'
    /// salvageable view).
    pub epochs_committed: u64,
    /// Median queue wait from submission to first claim, nanoseconds.
    /// Nearest-rank over a sliding window of the most recent admissions
    /// (up to 1024 samples) — not the daemon's whole lifetime.
    pub admission_p50_ns: u64,
    /// 99th-percentile queue wait, nanoseconds. Same sliding-window
    /// nearest-rank semantics as `admission_p50_ns`.
    pub admission_p99_ns: u64,
    /// Queued sessions cancelled by a client before a runner claimed them
    /// (counted separately from `failed`: no attempt ever ran).
    pub cancelled: u64,
    /// Sessions re-adopted from a previous incarnation's store at boot.
    /// Their terminal states are *not* folded into `finalized` /
    /// `salvaged` — those count this incarnation's own work.
    pub adopted: u64,
    /// Crash-resume requests accepted (the session re-queued as
    /// [`SessionState::Resuming`]). A resumed session that finalizes
    /// counts in `finalized` like any other.
    pub resumed: u64,
    /// Crash-resumes that did not finalize: the salvaged prefix failed to
    /// parse or re-enact, the store refused the append-reopen, or the
    /// resumed run itself failed. The session row keeps the typed detail.
    pub resume_failed: u64,
}

dp_support::impl_wire_struct!(DaemonMetrics {
    admitted,
    rejected,
    finalized,
    salvaged,
    failed,
    retries,
    degraded_runs,
    epochs_committed,
    admission_p50_ns,
    admission_p99_ns,
    cancelled,
    adopted,
    resumed,
    resume_failed,
});

/// One registry row.
struct Session {
    spec: SessionSpec,
    state: SessionState,
    /// Attempts started (the next attempt to run is `attempts`).
    attempts: u32,
    epochs: u32,
    degraded: bool,
    submitted_at: Instant,
    admission_wait_ns: Option<u64>,
    error: Option<String>,
    /// Claim passes that skipped this queued session because its core
    /// demand outstripped the free pool (the starvation detector).
    bypassed: u32,
    /// Set while a crash-resume is queued or running: the epoch the
    /// resumed attempt continues from (= epochs in the salvaged prefix).
    resume_from: Option<u32>,
    /// True for rows re-adopted from a previous incarnation's store —
    /// their spec is a placeholder until a resume reconstructs it from
    /// the journal's metadata.
    adopted: bool,
}

/// All daemon state behind one lock. Runners hold it only to claim and to
/// retire; recording itself runs unlocked.
struct Registry {
    next_id: u64,
    sessions: HashMap<u64, Session>,
    /// Queued session ids, one FIFO deque per priority lane.
    lanes: [VecDeque<u64>; 3],
    free_cores: usize,
    active: usize,
    draining: bool,
    shutdown: bool,
    /// A starved core-waiting session that freed cores are earmarked for:
    /// while set, no other session may take cores (degrade-and-run and
    /// zero-core claims still pass), so the pool can only refill until the
    /// reservation holder fits.
    reserved: Option<u64>,
    /// Exponentially smoothed attempt runtime, for `retry_after` hints.
    ewma_run_ns: f64,
    /// Sliding window (most recent [`ADMISSION_WINDOW`] samples) of
    /// submission-to-first-claim waits, feeding the metrics percentiles.
    admission_waits: VecDeque<u64>,
    /// Operator-facing notes from boot re-adoption: one line per garbage
    /// file found in the store directory (surfaced by session listings).
    orphan_notes: Vec<String>,
    /// Crash-resume requests this boot may still accept (counts down from
    /// [`DaemonConfig::resume_budget`]).
    resume_budget_left: u32,
    /// Idempotency-token dedup map: token → admitted session id. A
    /// re-submission bearing a known token is answered with the original
    /// id instead of admitting a duplicate.
    idempotency: HashMap<String, u64>,
    metrics: DaemonMetrics,
}

struct Inner<S: SessionStore + ?Sized> {
    cfg: DaemonConfig,
    reg: Mutex<Registry>,
    cv: Condvar,
    store: Arc<S>,
}

/// A claimed unit of work: run `sid`'s next attempt holding `lease`
/// verify-core permits (0 under degradation or for sequential configs).
struct Claim {
    sid: u64,
    attempt: u32,
    lease: usize,
    degraded: bool,
    spec: SessionSpec,
    /// `Some(from_epoch)` for a crash-resume attempt: continue the
    /// existing journal instead of rewriting it.
    resume_from: Option<u32>,
}

/// The multi-session recording service. See the crate docs for the
/// contract; see [`DaemonConfig`] for sizing.
pub struct Daemon<S: SessionStore + 'static> {
    inner: Arc<Inner<S>>,
    runners: Vec<JoinHandle<()>>,
}

impl<S: SessionStore + 'static> Daemon<S> {
    /// Starts the runner pool over `store`.
    pub fn start(cfg: DaemonConfig, store: Arc<S>) -> Self {
        let inner = Arc::new(Inner {
            cfg,
            reg: Mutex::new(Registry {
                next_id: 1,
                sessions: HashMap::new(),
                lanes: Default::default(),
                free_cores: cfg.verify_cores,
                active: 0,
                draining: false,
                shutdown: false,
                reserved: None,
                ewma_run_ns: 0.0,
                admission_waits: VecDeque::new(),
                orphan_notes: Vec::new(),
                resume_budget_left: cfg.resume_budget,
                idempotency: HashMap::new(),
                metrics: DaemonMetrics::default(),
            }),
            cv: Condvar::new(),
            store,
        });
        let runners = (0..cfg.runners.max(1))
            .map(|i| {
                let inner = inner.clone();
                std::thread::Builder::new()
                    .name(format!("dpd-runner-{i}"))
                    .spawn(move || runner_loop(&*inner))
                    .expect("spawn dpd runner")
            })
            .collect();
        Daemon { inner, runners }
    }

    /// The session store this daemon records into — the attach path
    /// reads durable bytes through it.
    pub fn store(&self) -> Arc<S> {
        self.inner.store.clone()
    }

    /// Submits a session. Returns its id, or a typed admission error —
    /// never blocks, never panics on bad input.
    ///
    /// # Errors
    ///
    /// [`AdmitError::Invalid`] for degenerate configurations,
    /// [`AdmitError::Draining`] during shutdown, [`AdmitError::Rejected`]
    /// (with a back-off hint) when the admission queue is full.
    pub fn submit(&self, spec: SessionSpec) -> Result<SessionId, AdmitError> {
        spec.config.validate()?;
        let mut guard = self_lock(&self.inner);
        let reg = &mut *guard;
        // Idempotent re-submission: a client that lost its connection
        // mid-Submit re-issues with the same token and gets the already
        // admitted session's id back — checked before every other gate,
        // because the original admission already paid them.
        if !spec.idempotency.is_empty() {
            if let Some(&id) = reg.idempotency.get(&spec.idempotency) {
                return Ok(SessionId(id));
            }
        }
        if reg.draining || reg.shutdown {
            return Err(AdmitError::Draining);
        }
        let queued: usize = reg.lanes.iter().map(VecDeque::len).sum();
        if queued >= self.inner.cfg.queue_capacity {
            reg.metrics.rejected += 1;
            let retry_after = retry_after(reg, &self.inner.cfg, queued);
            return Err(AdmitError::Rejected {
                queued,
                capacity: self.inner.cfg.queue_capacity,
                retry_after,
            });
        }
        let id = reg.next_id;
        reg.next_id += 1;
        let lane = spec.priority.lane();
        if !spec.idempotency.is_empty() {
            reg.idempotency.insert(spec.idempotency.clone(), id);
        }
        reg.sessions.insert(
            id,
            Session {
                spec,
                state: SessionState::Admitted,
                attempts: 0,
                epochs: 0,
                degraded: false,
                submitted_at: Instant::now(),
                admission_wait_ns: None,
                error: None,
                bypassed: 0,
                resume_from: None,
                adopted: false,
            },
        );
        reg.lanes[lane].push_back(id);
        reg.metrics.admitted += 1;
        self.inner.cv.notify_all();
        Ok(SessionId(id))
    }

    /// [`submit`](Daemon::submit), retrying up to `tries` times on
    /// [`AdmitError::Rejected`] with the suggested (capped) back-off —
    /// the polite client loop, shared by the load generator and the soak.
    ///
    /// # Errors
    ///
    /// The last admission error once retries are exhausted.
    pub fn submit_retrying(
        &self,
        spec: SessionSpec,
        tries: usize,
    ) -> Result<SessionId, AdmitError> {
        let mut last = None;
        for _ in 0..tries.max(1) {
            match self.submit(spec.clone()) {
                Ok(id) => return Ok(id),
                Err(e @ AdmitError::Rejected { .. }) => {
                    let AdmitError::Rejected { retry_after, .. } = e else {
                        unreachable!()
                    };
                    last = Some(e);
                    std::thread::sleep(retry_after.min(Duration::from_millis(10)));
                }
                Err(e) => return Err(e),
            }
        }
        Err(last.expect("tries >= 1"))
    }

    /// A snapshot of one session's row.
    pub fn report(&self, id: SessionId) -> Option<SessionReport> {
        let reg = self_lock(&self.inner);
        reg.sessions.get(&id.0).map(|s| snapshot(id.0, s))
    }

    /// Snapshots every session, ordered by id.
    pub fn sessions(&self) -> Vec<SessionReport> {
        let reg = self_lock(&self.inner);
        let mut rows: Vec<SessionReport> = reg
            .sessions
            .iter()
            .map(|(&id, s)| snapshot(id, s))
            .collect();
        rows.sort_by_key(|r| r.id);
        rows
    }

    /// Cancels a queued session: it leaves its lane and turns terminal
    /// ([`SessionState::Failed`] with a "cancelled by client" error)
    /// without any attempt running. Only [`SessionState::Admitted`]
    /// sessions are cancellable — a running attempt is never killed
    /// mid-journal (its journal would be a torn lie), and terminal rows
    /// are history.
    ///
    /// # Errors
    ///
    /// [`SessionError::UnknownSession`] for an id the registry has never
    /// seen, [`SessionError::NotCancellable`] for any non-queued state.
    pub fn cancel(&self, id: SessionId) -> Result<(), SessionError> {
        let mut guard = self_lock(&self.inner);
        let reg = &mut *guard;
        let Some(s) = reg.sessions.get_mut(&id.0) else {
            return Err(SessionError::UnknownSession(id));
        };
        if s.state != SessionState::Admitted {
            return Err(SessionError::NotCancellable { id, state: s.state });
        }
        s.state = SessionState::Failed;
        s.error = Some("cancelled by client".into());
        let lane = s.spec.priority.lane();
        reg.lanes[lane].retain(|&sid| sid != id.0);
        if reg.reserved == Some(id.0) {
            reg.reserved = None;
        }
        reg.metrics.cancelled += 1;
        self.inner.cv.notify_all();
        Ok(())
    }

    /// Crash-resumes a [`SessionState::Salvaged`] session: its journal's
    /// committed prefix stays byte-for-byte in place, the recorder
    /// re-enacts it to reconstruct the carried state, and recording
    /// continues from the next epoch — the finished journal is
    /// byte-identical to a run that never crashed. The session re-queues
    /// on the [`DaemonConfig::resume_priority`] lane and runs through the
    /// normal claim path, reported as [`SessionState::Resuming`] until it
    /// retires. Returns the epoch the resume continues from.
    ///
    /// Resuming is idempotent: a second request while the resume is
    /// queued or running (two racing clients, a reconnect) returns the
    /// same from-epoch without re-admitting anything.
    ///
    /// # Errors
    ///
    /// [`SessionError::UnknownSession`] for an id the registry has never
    /// seen; [`SessionError::NotResumable`] when the session is not
    /// [`SessionState::Salvaged`], the per-boot
    /// [`DaemonConfig::resume_budget`] is spent, the durable prefix does
    /// not salvage, or (for adopted rows) the guest cannot be
    /// reconstructed from the journal's metadata.
    pub fn resume(&self, id: SessionId) -> Result<u32, SessionError> {
        let not = |detail: String| SessionError::NotResumable { id, detail };
        // Phase 1: validate the row and snapshot what reconstruction
        // needs, under the lock.
        let (spec, adopted) = {
            let reg = self_lock(&self.inner);
            let Some(s) = reg.sessions.get(&id.0) else {
                return Err(SessionError::UnknownSession(id));
            };
            match s.state {
                SessionState::Resuming { from_epoch } => return Ok(from_epoch),
                SessionState::Salvaged => {}
                state => {
                    return Err(not(format!(
                        "state is {state}; only salvaged sessions resume"
                    )))
                }
            }
            if reg.resume_budget_left == 0 {
                return Err(not("per-boot resume budget exhausted".into()));
            }
            (s.spec.clone(), s.adopted)
        };
        // Phase 2: read and salvage the durable prefix and, for adopted
        // rows, rebuild the real spec from the journal's metadata — pure
        // byte and program-builder work, outside the lock.
        let streams = spec.journal_shards.max(1);
        let (meta, from_epoch) = match resumable_prefix(&*self.inner.store, id, streams) {
            Ok(s) => {
                let epochs = s.committed() as u32;
                (s.recording.meta, epochs)
            }
            Err(detail) => {
                self_lock(&self.inner).metrics.resume_failed += 1;
                return Err(not(detail));
            }
        };
        let spec = if adopted {
            let Some(guest) = resolve_guest(&meta) else {
                self_lock(&self.inner).metrics.resume_failed += 1;
                return Err(not(format!(
                    "cannot reconstruct guest '{}' (program {:#x}) from journal metadata",
                    meta.guest_name, meta.program_hash
                )));
            };
            SessionSpec::new(spec.name, guest, meta.config).journal_shards(spec.journal_shards)
        } else {
            spec
        };
        // Phase 3: commit the transition, re-validating against a racing
        // resume (only the winner spends budget and queues).
        let mut guard = self_lock(&self.inner);
        let reg = &mut *guard;
        let s = reg
            .sessions
            .get_mut(&id.0)
            .expect("registry rows are never removed");
        match s.state {
            SessionState::Resuming { from_epoch } => return Ok(from_epoch),
            SessionState::Salvaged => {}
            state => {
                return Err(not(format!(
                    "state is {state}; only salvaged sessions resume"
                )))
            }
        }
        if reg.resume_budget_left == 0 {
            return Err(not("per-boot resume budget exhausted".into()));
        }
        reg.resume_budget_left -= 1;
        s.spec = spec;
        s.spec.priority = self.inner.cfg.resume_priority;
        s.resume_from = Some(from_epoch);
        s.state = SessionState::Resuming { from_epoch };
        reg.lanes[self.inner.cfg.resume_priority.lane()].push_back(id.0);
        reg.metrics.resumed += 1;
        self.inner.cv.notify_all();
        Ok(from_epoch)
    }

    /// Crash-resumes every re-adopted [`SessionState::Salvaged`] row (in
    /// id order, oldest first) until the per-boot resume budget runs out —
    /// the engine behind `dp serve --resume-adopted`. Returns each
    /// attempted id with its [`resume`](Daemon::resume) outcome, for the
    /// caller to print.
    pub fn resume_adopted(&self) -> Vec<(SessionId, Result<u32, SessionError>)> {
        let mut ids: Vec<u64> = {
            let reg = self_lock(&self.inner);
            reg.sessions
                .iter()
                .filter(|(_, s)| s.adopted && s.state == SessionState::Salvaged)
                .map(|(&id, _)| id)
                .collect()
        };
        ids.sort_unstable();
        ids.into_iter()
            .map(|id| (SessionId(id), self.resume(SessionId(id))))
            .collect()
    }

    /// Adopts one session recovered from a previous incarnation as a
    /// terminal registry row under its **original** id, so listings,
    /// reports, and attach see it exactly as the dead daemon's clients
    /// would have. The id counter jumps past adopted ids, keeping new
    /// submissions collision-free. Returns `false` (and changes nothing)
    /// if the id is already taken or `state` is not terminal.
    pub fn adopt(
        &self,
        id: SessionId,
        name: &str,
        state: SessionState,
        epochs: u32,
        journal_shards: u32,
        error: Option<String>,
    ) -> bool {
        if !state.is_terminal() {
            return false;
        }
        let mut guard = self_lock(&self.inner);
        let reg = &mut *guard;
        if reg.sessions.contains_key(&id.0) {
            return false;
        }
        // Terminal rows are never scheduled, so the spec's guest/config
        // are inert placeholders — only name, priority, and shard count
        // surface in reports.
        let spec = SessionSpec::new(name, crate::guests::atomic_counter(1, 1), {
            DoublePlayConfig::new(1)
        })
        .journal_shards(journal_shards);
        reg.sessions.insert(
            id.0,
            Session {
                spec,
                state,
                attempts: 0,
                epochs,
                degraded: false,
                submitted_at: Instant::now(),
                admission_wait_ns: Some(0),
                error,
                bypassed: 0,
                resume_from: None,
                adopted: true,
            },
        );
        reg.next_id = reg.next_id.max(id.0 + 1);
        reg.metrics.adopted += 1;
        true
    }

    /// Records an operator-facing note (a garbage file found during boot
    /// re-adoption, for example) for session listings to surface.
    pub fn add_orphan_note(&self, note: impl Into<String>) {
        self_lock(&self.inner).orphan_notes.push(note.into());
    }

    /// The notes recorded by [`add_orphan_note`](Daemon::add_orphan_note)
    /// / [`adopt_orphans`](Daemon::adopt_orphans), in insertion order.
    pub fn orphan_notes(&self) -> Vec<String> {
        self_lock(&self.inner).orphan_notes.clone()
    }

    /// Aggregate counters plus admission-latency percentiles (computed
    /// nearest-rank over the sliding sample window — see
    /// [`DaemonMetrics::admission_p50_ns`]).
    pub fn metrics(&self) -> DaemonMetrics {
        let reg = self_lock(&self.inner);
        let mut m = reg.metrics;
        if !reg.admission_waits.is_empty() {
            let mut waits: Vec<u64> = reg.admission_waits.iter().copied().collect();
            waits.sort_unstable();
            m.admission_p50_ns = percentile(&waits, 50);
            m.admission_p99_ns = percentile(&waits, 99);
        }
        m
    }

    /// Stops admitting and blocks until every admitted session is
    /// terminal. Queued and running work completes normally.
    pub fn drain(&self) {
        let mut reg = self_lock(&self.inner);
        reg.draining = true;
        self.inner.cv.notify_all();
        while reg.sessions.values().any(|s| !s.state.is_terminal()) {
            reg = self
                .inner
                .cv
                .wait(reg)
                .unwrap_or_else(PoisonError::into_inner);
        }
    }

    /// Drains, stops the runner pool, and joins it.
    pub fn shutdown(self) {
        self.drain();
        {
            let mut reg = self_lock(&self.inner);
            reg.shutdown = true;
            self.inner.cv.notify_all();
        }
        for h in self.runners {
            let _ = h.join();
        }
    }
}

impl Daemon<DirStore> {
    /// Boot-time journal re-adoption: scans the store directory for
    /// journals a previous incarnation left behind and re-adopts every
    /// recoverable one — finalized journals become
    /// [`SessionState::Finalized`] rows, crash-cut ones
    /// [`SessionState::Salvaged`] rows at exactly their committed epoch
    /// count, both under their original ids with their backing paths
    /// registered (so attach and `durable` work). Garbage files become
    /// operator notes, never wedged sessions. Returns the scan for
    /// callers that want to print it.
    ///
    /// # Errors
    ///
    /// Store directory or file I/O failures.
    pub fn adopt_orphans(&self) -> std::io::Result<Vec<Orphan>> {
        let orphans = self.inner.store.scan_orphans()?;
        for o in &orphans {
            let (state, epochs, error) = match &o.class {
                OrphanClass::Finalized { epochs } => (SessionState::Finalized, *epochs, None),
                OrphanClass::Salvageable { epochs, detail } => (
                    SessionState::Salvaged,
                    *epochs,
                    Some(format!("re-adopted after daemon crash: {detail}")),
                ),
                OrphanClass::Garbage { reason } => {
                    self.add_orphan_note(format!("garbage: {} ({reason})", o.name));
                    continue;
                }
            };
            let Some(id) = o.id else { continue };
            if self.adopt(id, &o.name, state, epochs, o.files.len() as u32, error) {
                for (stream, path) in &o.files {
                    self.inner.store.adopt_path(id, *stream, path.clone());
                }
            } else {
                self.add_orphan_note(format!("skipped: {} ({id} already registered)", o.name));
            }
        }
        Ok(orphans)
    }
}

/// The salvaged durable view of a session's journal as crash-resume
/// needs it: every stream read and merged, none missing its header.
/// Errors are operator-facing strings (they become the
/// [`SessionError::NotResumable`] detail or the resumed attempt's error).
fn resumable_prefix<S: SessionStore + ?Sized>(
    store: &S,
    id: SessionId,
    streams: u32,
) -> Result<Salvaged, String> {
    let mut bufs = Vec::new();
    for k in 0..streams {
        bufs.push(
            store
                .durable(id, k)
                .map_err(|e| format!("store read failed (stream {k}): {e}"))?,
        );
    }
    let s = JournalReader::salvage_shards(&bufs).map_err(|e| format!("salvage failed: {e}"))?;
    if s.keep.iter().any(Option::is_none) {
        return Err("a journal stream is missing its header; cannot resume".into());
    }
    Ok(s)
}

/// Reconstructs an adopted session's guest from its journal metadata:
/// tiny service guests rebuild from their parameter-encoding names
/// ([`crate::guests::from_name`]); workload guests rebuild by sweeping
/// the suite's thread/size grid under the journaled name. Either way the
/// journal's program hash must confirm the reconstruction — a name
/// collision yields `None`, never a wrong guest (and even a hash-colliding
/// wrong guest would still die typed in the resume's per-epoch prefix
/// checks, not continue silently).
fn resolve_guest(meta: &RecordingMeta) -> Option<GuestSpec> {
    let confirm = |g: GuestSpec| (g.program_hash() == meta.program_hash).then_some(g);
    if let Some(g) = crate::guests::from_name(&meta.guest_name) {
        return confirm(g);
    }
    use dp_workloads::Size;
    for size in [Size::Small, Size::Medium, Size::Large] {
        for threads in 1..=8 {
            if let Some(case) = dp_workloads::find(&meta.guest_name, threads, size) {
                if let Some(g) = confirm(case.spec) {
                    return Some(g);
                }
            }
        }
    }
    None
}

/// Nearest-rank percentile of an ascending-sorted, non-empty sample:
/// `rank = ceil(pct/100 · n)`, clamped into `1..=n`, returning the
/// rank-th smallest. Unlike the floor-biased `sorted[n·pct/100]`, this is
/// exact for small n (n=10, p99 → the maximum, not the 9th value).
fn percentile(sorted: &[u64], pct: u64) -> u64 {
    debug_assert!(!sorted.is_empty());
    let n = sorted.len() as u64;
    let rank = (n * pct).div_ceil(100).max(1);
    sorted[(rank.min(n) - 1) as usize]
}

fn snapshot(id: u64, s: &Session) -> SessionReport {
    SessionReport {
        id: SessionId(id),
        name: s.spec.name.clone(),
        priority: s.spec.priority,
        state: s.state,
        attempts: s.attempts,
        epochs: s.epochs,
        degraded: s.degraded,
        admission_wait_ns: s.admission_wait_ns.unwrap_or(0),
        journal_shards: s.spec.journal_shards,
        error: s.error.clone(),
    }
}

/// The `retry_after` hint: queue depth over runner count, in units of the
/// smoothed attempt runtime (floored at 1ms so a cold daemon still
/// suggests a sane back-off).
fn retry_after(reg: &Registry, cfg: &DaemonConfig, queued: usize) -> Duration {
    let per_slot = reg.ewma_run_ns.max(1_000_000.0);
    let slots = (queued as f64 / cfg.runners.max(1) as f64).max(1.0);
    Duration::from_nanos((per_slot * slots) as u64)
}

/// Picks the next runnable session, FIFO within each lane, lanes in
/// priority order. A whole lane is scanned so one head session waiting
/// for a big core lease does not block smaller siblings behind it —
/// but only up to a point: a core-waiting session skipped
/// [`STARVATION_PASS_LIMIT`] times acquires a *reservation*, after which
/// freed cores are earmarked for it alone (no other session may take
/// cores; degrade-and-run and zero-core claims still pass), so the pool
/// refills monotonically until the starved head fits. Without this, a
/// continuous stream of narrow siblings can bypass a wide high-priority
/// session forever.
fn claim(reg: &mut Registry, cfg: &DaemonConfig) -> Option<Claim> {
    for lane in 0..reg.lanes.len() {
        let mut idx = 0;
        while idx < reg.lanes[lane].len() {
            let sid = reg.lanes[lane][idx];
            // A stale queue entry (no row) is dropped, not indexed into —
            // one bad id must never panic a runner mid-lock.
            let Some(s) = reg.sessions.get(&sid) else {
                reg.lanes[lane].remove(idx);
                continue;
            };
            let want = if s.spec.config.pipelined {
                s.spec.config.spare_workers
            } else {
                0
            };
            let core_taking = want > 0 && want <= reg.free_cores;
            let reserved_for_other = reg.reserved.is_some_and(|r| r != sid);
            let (lease, degraded) = if want == 0 {
                (0, false)
            } else if core_taking && !reserved_for_other {
                (want, false)
            } else if lane == 2 || want > cfg.verify_cores {
                // Low priority never waits for cores, and a demand larger
                // than the whole pool can never be satisfied: both degrade
                // to the serialized driver (same bytes, no lease).
                (0, true)
            } else {
                // Bypassed: cores are short (or earmarked for a starved
                // session). Count the pass; past the threshold this
                // session becomes the reservation holder.
                let s = reg.sessions.get_mut(&sid).expect("row checked above");
                s.bypassed += 1;
                if s.bypassed >= STARVATION_PASS_LIMIT && reg.reserved.is_none() {
                    reg.reserved = Some(sid);
                }
                idx += 1;
                continue;
            };
            reg.lanes[lane].remove(idx);
            reg.free_cores -= lease;
            if reg.reserved == Some(sid) {
                reg.reserved = None;
            }
            return Some(make_claim(reg, sid, lease, degraded));
        }
    }
    // Stall breaker: if nothing is running and nothing was claimable,
    // waiting can only deadlock — degrade the highest-priority head.
    // (With lease release on every retire this is belt-and-braces: an
    // idle pool is a full pool, so pass one should always have matched.)
    if reg.active == 0 {
        for lane in 0..reg.lanes.len() {
            if let Some(sid) = reg.lanes[lane].pop_front() {
                if reg.reserved == Some(sid) {
                    reg.reserved = None;
                }
                return Some(make_claim(reg, sid, 0, true));
            }
        }
    }
    None
}

fn make_claim(reg: &mut Registry, sid: u64, lease: usize, degraded: bool) -> Claim {
    reg.active += 1;
    if degraded {
        reg.metrics.degraded_runs += 1;
    }
    let s = reg
        .sessions
        .get_mut(&sid)
        .expect("claimed session has a row");
    let attempt = s.attempts;
    s.attempts += 1;
    // A claimed resume keeps its Resuming state so Status/Sessions report
    // the crash-resume (and its from-epoch) for the attempt's whole life.
    s.state = match s.resume_from {
        Some(from_epoch) => SessionState::Resuming { from_epoch },
        None => SessionState::Recording { attempt },
    };
    s.degraded |= degraded;
    s.bypassed = 0;
    if s.admission_wait_ns.is_none() {
        let wait = s.submitted_at.elapsed().as_nanos() as u64;
        s.admission_wait_ns = Some(wait);
        if reg.admission_waits.len() == ADMISSION_WINDOW {
            reg.admission_waits.pop_front();
        }
        reg.admission_waits.push_back(wait);
    }
    Claim {
        sid,
        attempt,
        lease,
        degraded,
        spec: s.spec.clone(),
        resume_from: s.resume_from,
    }
}

/// What one recording attempt produced, gathered outside the lock.
struct AttemptOutcome {
    /// `None` = the run returned cleanly.
    error: Option<String>,
    run_ns: u64,
}

fn runner_loop<S: SessionStore + ?Sized>(inner: &Inner<S>) {
    loop {
        let claimed = {
            let mut reg = self_lock(inner);
            loop {
                if let Some(c) = claim(&mut reg, &inner.cfg) {
                    break Some(c);
                }
                if reg.shutdown {
                    break None;
                }
                reg = inner.cv.wait(reg).unwrap_or_else(PoisonError::into_inner);
            }
        };
        let Some(c) = claimed else { return };
        let outcome = run_attempt(&*inner.store, &c);
        retire(inner, c, outcome);
    }
}

/// The single registry lock site: a poisoned mutex is *recovered*, not
/// propagated. Every registry mutation is transactional (row updates and
/// counter bumps complete before any panic-prone work, which runs outside
/// the lock), so the state behind a poisoned lock is consistent — and one
/// panicking API caller or runner must degrade to a row update, never to
/// a daemon where every subsequent `lock().unwrap()` panics too.
fn self_lock<S: SessionStore + ?Sized>(inner: &Inner<S>) -> MutexGuard<'_, Registry> {
    inner.reg.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Executes one attempt: open one store writer per journal stream (each
/// faulted if the session's sink-fault plan applies to this attempt),
/// stream the journal, contain panics. A crash-resume attempt instead
/// salvages the durable prefix, reopens every stream truncated to it for
/// append, re-enacts the prefix, and continues recording — nothing
/// committed is ever rewritten. No daemon lock is held anywhere in here.
fn run_attempt<S: SessionStore + ?Sized>(store: &S, c: &Claim) -> AttemptOutcome {
    let started = Instant::now();
    let mut cfg = c.spec.config;
    if c.degraded {
        // Serialized degradation changes the execution strategy only:
        // `pipelined` is not wire-encoded, and `spare_workers` (which is)
        // stays untouched, so the journal bytes are identical to the
        // pipelined run the session asked for.
        cfg.pipelined = false;
    }
    // Sink faults wrap each stream independently: a faulted device cuts
    // streams at uncorrelated points, which is exactly what the salvage
    // merge must cope with.
    let faulted =
        c.spec.sink_faults.is_active() && (c.attempt == 0 || !c.spec.transient_sink_faults);
    let wrap = |raw: Box<dyn Write + Send>| -> Box<dyn Write + Send> {
        if faulted {
            Box::new(FaultedSink::new(raw, c.spec.sink_faults))
        } else {
            raw
        }
    };
    let id = SessionId(c.sid);
    let streams = c.spec.journal_shards.max(1);
    let error = (|| -> Result<(), String> {
        let run = match c.resume_from {
            None => {
                let mut sinks = Vec::new();
                for k in 0..streams {
                    let raw = store
                        .open(id, &c.spec.name, c.attempt, k)
                        .map_err(|e| format!("store open failed (stream {k}): {e}"))?;
                    sinks.push(wrap(raw));
                }
                let mut journal = JournalWriter::sync(sinks, DEFAULT_SHARD_BATCH)
                    .map_err(|e| format!("journal preamble failed: {e}"))?;
                catch_unwind(AssertUnwindSafe(|| {
                    record_to(&c.spec.guest, &cfg, &mut journal)
                        .map(drop)
                        .map_err(|e| e.to_string())
                }))
            }
            Some(_) => {
                let s = resumable_prefix(store, id, streams)?;
                let mut sinks = Vec::new();
                for (k, &keep) in s.keep.iter().flatten().enumerate() {
                    let raw = store
                        .open_resume(id, k as u32, keep as u64)
                        .map_err(|e| format!("store resume open failed (stream {k}): {e}"))?;
                    sinks.push(wrap(raw));
                }
                let mut journal = JournalWriter::resume(sinks, DEFAULT_SHARD_BATCH, &s)
                    .map_err(|e| format!("journal resume failed: {e}"))?;
                catch_unwind(AssertUnwindSafe(|| {
                    resume_from(&c.spec.guest, &cfg, s.recording, &mut journal)
                        .map(drop)
                        .map_err(|e| e.to_string())
                }))
            }
        };
        run.unwrap_or_else(|payload| Err(format!("session panicked: {}", panic_detail(&*payload))))
    })()
    .err();
    AttemptOutcome {
        error,
        run_ns: started.elapsed().as_nanos() as u64,
    }
}

fn panic_detail(payload: &(dyn std::any::Any + Send)) -> String {
    payload
        .downcast_ref::<&str>()
        .map(|s| (*s).to_string())
        .or_else(|| payload.downcast_ref::<String>().cloned())
        .unwrap_or_else(|| "opaque panic payload".into())
}

/// Retires a finished attempt: release the lease, update the EWMA, then
/// either re-queue (contained failure, budget left) or classify the
/// durable journal into a terminal state.
fn retire<S: SessionStore + ?Sized>(inner: &Inner<S>, c: Claim, out: AttemptOutcome) {
    // Salvage the durable view outside the lock; it is pure byte work:
    // was the durable view clean, and how many epochs does it commit.
    // Resumed attempts are always terminal: the prefix re-enactment is
    // deterministic, so a failed resume would fail identically on retry —
    // the row returns to Salvaged (re-resumable within budget) instead.
    let terminal =
        out.error.is_none() || c.resume_from.is_some() || c.attempt >= c.spec.restart_budget;
    let salvaged: Option<(bool, usize)> = if terminal {
        // Whichever streams are readable; a missing one only bounds the
        // merged prefix.
        let bufs: Vec<Vec<u8>> = (0..c.spec.journal_shards.max(1))
            .filter_map(|k| inner.store.durable(SessionId(c.sid), k).ok())
            .collect();
        JournalReader::salvage_shards(&bufs)
            .ok()
            .map(|s| (s.clean, s.committed()))
    } else {
        None
    };

    let mut guard = self_lock(inner);
    let reg = &mut *guard;
    // Saturating: a retire racing a recovered-from-poison state must
    // never underflow (and re-poison) the active count.
    reg.active = reg.active.saturating_sub(1);
    reg.free_cores += c.lease;
    reg.ewma_run_ns = if reg.ewma_run_ns == 0.0 {
        out.run_ns as f64
    } else {
        0.8 * reg.ewma_run_ns + 0.2 * out.run_ns as f64
    };

    let s = reg.sessions.get_mut(&c.sid).unwrap();
    s.error = out.error;
    s.resume_from = None;
    if !terminal {
        // Contained failure with budget left: back to the lane with a
        // fresh journal. Re-queues bypass the admission capacity gate —
        // the session was already admitted.
        s.state = SessionState::Admitted;
        reg.lanes[s.spec.priority.lane()].push_back(c.sid);
        reg.metrics.retries += 1;
    } else {
        let (state, epochs) = match (&salvaged, &s.error) {
            (Some((true, committed)), None) => (SessionState::Finalized, *committed),
            (Some((_, committed)), _) => (SessionState::Salvaged, *committed),
            (None, _) => (SessionState::Failed, 0),
        };
        s.state = state;
        s.epochs = epochs as u32;
        match state {
            SessionState::Finalized => reg.metrics.finalized += 1,
            SessionState::Salvaged => reg.metrics.salvaged += 1,
            _ => reg.metrics.failed += 1,
        }
        if let Some(from_epoch) = c.resume_from {
            // A resumed retire adds only the epochs recorded past the
            // crash point — the salvaged prefix was already counted when
            // the session first retired as Salvaged.
            reg.metrics.epochs_committed += (epochs as u64).saturating_sub(u64::from(from_epoch));
            if state != SessionState::Finalized {
                reg.metrics.resume_failed += 1;
            }
        } else {
            reg.metrics.epochs_committed += epochs as u64;
        }
    }
    inner.cv.notify_all();
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::guests;
    use crate::session::Priority;
    use crate::store::MemStore;
    use dp_core::{DoublePlayConfig, FaultPlan};

    fn tiny_config() -> DoublePlayConfig {
        DoublePlayConfig::new(2).epoch_cycles(800)
    }

    fn tiny_spec(name: &str) -> SessionSpec {
        SessionSpec::new(name, guests::atomic_counter(2, 400), tiny_config())
    }

    /// A solo run of the same spec: the byte-identity oracle.
    fn solo_bytes(spec: &SessionSpec) -> Vec<u8> {
        let mut w = JournalWriter::new(Vec::new()).unwrap();
        record_to(&spec.guest, &spec.config, &mut w).unwrap();
        w.into_inner()
    }

    /// A solo run instrumented with per-epoch commit byte offsets — the
    /// oracle for "salvages to exactly its committed prefix".
    fn solo_with_offsets(spec: &SessionSpec) -> (Vec<u8>, Vec<u64>) {
        struct Tap {
            w: JournalWriter<Vec<u8>>,
            offsets: Vec<u64>,
        }
        impl dp_core::RecordSink for Tap {
            fn begin(
                &mut self,
                meta: &dp_core::RecordingMeta,
                initial: &dp_core::CheckpointImage,
            ) -> std::io::Result<()> {
                self.w.begin(meta, initial)
            }
            fn epoch(&mut self, e: &dp_core::EpochRecord) -> std::io::Result<()> {
                self.w.epoch(e)?;
                self.offsets.push(self.w.bytes_written());
                Ok(())
            }
            fn finish(&mut self) -> std::io::Result<()> {
                self.w.finish()
            }
        }
        let mut tap = Tap {
            w: JournalWriter::new(Vec::new()).unwrap(),
            offsets: Vec::new(),
        };
        record_to(&spec.guest, &spec.config, &mut tap).unwrap();
        (tap.w.into_inner(), tap.offsets)
    }

    #[test]
    fn clean_session_finalizes_byte_identical_to_solo() {
        let store = Arc::new(MemStore::new());
        let daemon = Daemon::start(DaemonConfig::default(), store.clone());
        let spec = tiny_spec("clean");
        let solo = solo_bytes(&spec);
        let id = daemon.submit(spec).unwrap();
        daemon.drain();
        let r = daemon.report(id).unwrap();
        assert_eq!(r.state, SessionState::Finalized);
        assert!(r.epochs >= 2);
        assert!(r.error.is_none());
        assert_eq!(store.durable(id, 0).unwrap(), solo);
        let m = daemon.metrics();
        assert_eq!(m.finalized, 1);
        assert_eq!(m.epochs_committed, u64::from(r.epochs));
        daemon.shutdown();
    }

    #[test]
    fn invalid_config_is_rejected_typed() {
        let daemon = Daemon::start(DaemonConfig::default(), Arc::new(MemStore::new()));
        let spec = SessionSpec::new(
            "bad",
            guests::atomic_counter(2, 8),
            tiny_config().spare_workers(0).pipelined(true),
        );
        assert!(matches!(
            daemon.submit(spec),
            Err(AdmitError::Invalid(
                dp_core::ConfigError::PipelinedWithoutWorkers
            ))
        ));
        daemon.shutdown();
    }

    #[test]
    fn full_queue_sheds_with_retry_hint_and_draining_refuses() {
        let cfg = DaemonConfig {
            runners: 1,
            verify_cores: 2,
            queue_capacity: 2,
            ..DaemonConfig::default()
        };
        let daemon = Daemon::start(cfg, Arc::new(MemStore::new()));
        // Saturate: the single runner can hold one, the queue two more.
        let mut rejected = 0;
        for i in 0..32 {
            match daemon.submit(tiny_spec(&format!("s{i}"))) {
                Ok(_) => {}
                Err(AdmitError::Rejected { retry_after, .. }) => {
                    rejected += 1;
                    assert!(retry_after > Duration::ZERO);
                }
                Err(e) => panic!("unexpected admission error: {e}"),
            }
        }
        assert!(rejected > 0, "queue of 2 absorbed 32 instant submissions");
        assert_eq!(daemon.metrics().rejected, rejected);
        daemon.drain();
        assert!(matches!(
            daemon.submit(tiny_spec("late")),
            Err(AdmitError::Draining)
        ));
        daemon.shutdown();
    }

    #[test]
    fn oversubscribed_pool_degrades_low_priority_not_bytes() {
        // One verify core, sessions wanting two: low priority degrades to
        // serialized immediately; bytes stay identical to the solo run.
        let cfg = DaemonConfig {
            runners: 2,
            verify_cores: 1,
            queue_capacity: 64,
            ..DaemonConfig::default()
        };
        let store = Arc::new(MemStore::new());
        let daemon = Daemon::start(cfg, store.clone());
        let spec = SessionSpec::new(
            "low",
            guests::atomic_counter(2, 400),
            tiny_config().spare_workers(2).pipelined(true),
        )
        .priority(Priority::Low);
        let solo = solo_bytes(&spec);
        let id = daemon.submit(spec).unwrap();
        daemon.drain();
        let r = daemon.report(id).unwrap();
        assert_eq!(r.state, SessionState::Finalized);
        assert!(r.degraded, "1-core pool must degrade a 2-core low session");
        assert_eq!(store.durable(id, 0).unwrap(), solo);
        assert!(daemon.metrics().degraded_runs >= 1);
        daemon.shutdown();
    }

    #[test]
    fn transient_sink_fault_finalizes_after_retry() {
        let store = Arc::new(MemStore::new());
        let daemon = Daemon::start(DaemonConfig::default(), store.clone());
        let spec = tiny_spec("flaky-disk")
            .restart_budget(2)
            .transient_sink_faults(true);
        let solo = solo_bytes(&spec);
        let spec = spec.sink_faults({
            let mut f = dp_os::SinkFaults::none();
            f.torn_at = Some(200);
            f
        });
        let id = daemon.submit(spec).unwrap();
        daemon.drain();
        let r = daemon.report(id).unwrap();
        assert_eq!(r.state, SessionState::Finalized, "error: {:?}", r.error);
        assert!(r.attempts >= 2, "should have retried past the torn write");
        assert_eq!(store.durable(id, 0).unwrap(), solo);
        assert_eq!(daemon.metrics().retries, u64::from(r.attempts - 1));
        daemon.shutdown();
    }

    #[test]
    fn permanent_sink_fault_salvages_exact_committed_prefix() {
        let store = Arc::new(MemStore::new());
        let daemon = Daemon::start(DaemonConfig::default(), store.clone());
        let base = tiny_spec("dead-disk").restart_budget(0);
        let (_solo, offsets) = solo_with_offsets(&base);
        assert!(offsets.len() >= 2, "need multiple epochs to cut between");
        // Die between the first and second commit: exactly one epoch must
        // survive salvage.
        let torn_at = (offsets[0] + offsets[1]) / 2;
        let spec = base.sink_faults({
            let mut f = dp_os::SinkFaults::none();
            f.torn_at = Some(torn_at);
            f
        });
        let id = daemon.submit(spec).unwrap();
        daemon.drain();
        let r = daemon.report(id).unwrap();
        let expect = offsets.iter().filter(|&&o| o <= torn_at).count();
        assert_eq!(expect, 1);
        assert_eq!(r.state, SessionState::Salvaged);
        assert_eq!(r.epochs as usize, expect, "salvage != committed prefix");
        assert!(r.error.as_deref().unwrap_or("").contains("torn"));
        daemon.shutdown();
    }

    #[test]
    fn panicking_sink_is_contained_and_isolated_from_siblings() {
        /// A store whose writers panic mid-journal — modelling a bug in a
        /// session's sink plugin, the worst-case tenant.
        struct PanicStore {
            inner: MemStore,
            panic_for: u64,
        }
        struct PanicWriter {
            wrote: usize,
        }
        impl Write for PanicWriter {
            fn write(&mut self, data: &[u8]) -> std::io::Result<usize> {
                self.wrote += data.len();
                if self.wrote > 100 {
                    panic!("sink plugin bug");
                }
                Ok(data.len())
            }
            fn flush(&mut self) -> std::io::Result<()> {
                Ok(())
            }
        }
        impl SessionStore for PanicStore {
            fn open(
                &self,
                id: SessionId,
                name: &str,
                attempt: u32,
                stream: u32,
            ) -> std::io::Result<Box<dyn Write + Send>> {
                if id.0 == self.panic_for {
                    Ok(Box::new(PanicWriter { wrote: 0 }))
                } else {
                    self.inner.open(id, name, attempt, stream)
                }
            }
            fn durable(&self, id: SessionId, stream: u32) -> std::io::Result<Vec<u8>> {
                if id.0 == self.panic_for {
                    Err(std::io::Error::other("panicked sink has no bytes"))
                } else {
                    self.inner.durable(id, stream)
                }
            }
            fn open_resume(
                &self,
                id: SessionId,
                stream: u32,
                keep: u64,
            ) -> std::io::Result<Box<dyn Write + Send>> {
                self.inner.open_resume(id, stream, keep)
            }
        }

        let store = Arc::new(PanicStore {
            inner: MemStore::new(),
            panic_for: 1,
        });
        let daemon = Daemon::start(
            DaemonConfig {
                runners: 2,
                verify_cores: 8,
                queue_capacity: 64,
                ..DaemonConfig::default()
            },
            store.clone(),
        );
        let bad = daemon
            .submit(tiny_spec("panicky").restart_budget(1))
            .unwrap();
        let good_spec = tiny_spec("innocent");
        let solo = solo_bytes(&good_spec);
        let good = daemon.submit(good_spec).unwrap();
        daemon.drain();
        let rb = daemon.report(bad).unwrap();
        assert_eq!(rb.state, SessionState::Failed);
        assert!(rb.error.as_deref().unwrap().contains("panicked"));
        assert_eq!(rb.attempts, 2, "panic should be retried within budget");
        let rg = daemon.report(good).unwrap();
        assert_eq!(rg.state, SessionState::Finalized);
        assert_eq!(store.durable(good, 0).unwrap(), solo, "sibling perturbed");
        daemon.shutdown();
    }

    #[test]
    fn sharded_session_finalizes_and_merges_byte_identical_to_solo() {
        let store = Arc::new(MemStore::new());
        let daemon = Daemon::start(DaemonConfig::default(), store.clone());
        let spec = tiny_spec("sharded").journal_shards(3);
        // The oracle: a solo sequential run's *recording* bytes (three
        // streams' bytes differ from one stream's by design).
        let mut solo_rec = Vec::new();
        {
            let mut w = JournalWriter::new(Vec::new()).unwrap();
            let bundle = record_to(&spec.guest, &spec.config, &mut w).unwrap();
            bundle.recording.save(&mut solo_rec).unwrap();
        }
        let id = daemon.submit(spec).unwrap();
        daemon.drain();
        let r = daemon.report(id).unwrap();
        assert_eq!(r.state, SessionState::Finalized, "error: {:?}", r.error);
        assert!(r.epochs >= 2);
        let bufs: Vec<Vec<u8>> = (0..3).map(|k| store.durable(id, k).unwrap()).collect();
        let merged = JournalReader::salvage_shards(&bufs).unwrap();
        assert!(merged.clean);
        assert_eq!(merged.committed(), r.epochs as usize);
        let mut merged_rec = Vec::new();
        merged.recording.save(&mut merged_rec).unwrap();
        assert_eq!(merged_rec, solo_rec);
        daemon.shutdown();
    }

    #[test]
    fn sharded_session_with_torn_sink_salvages_consistent_prefix() {
        let store = Arc::new(MemStore::new());
        let daemon = Daemon::start(DaemonConfig::default(), store.clone());
        // Each shard stream dies after 300 durable bytes: the session
        // cannot finalize, but the cross-shard salvage must still produce
        // a dependency-closed prefix (possibly empty) without panicking.
        let spec = tiny_spec("torn-shards")
            .journal_shards(2)
            .restart_budget(0)
            .sink_faults({
                let mut f = dp_os::SinkFaults::none();
                f.torn_at = Some(300);
                f
            });
        let id = daemon.submit(spec).unwrap();
        daemon.drain();
        let r = daemon.report(id).unwrap();
        assert!(
            matches!(r.state, SessionState::Salvaged | SessionState::Failed),
            "state: {:?}",
            r.state
        );
        assert!(r.error.as_deref().unwrap_or("").contains("torn"));
        daemon.shutdown();
    }

    #[test]
    fn poisoned_registry_lock_does_not_kill_the_daemon() {
        let store = Arc::new(MemStore::new());
        let daemon = Daemon::start(DaemonConfig::default(), store);
        let before = daemon.submit(tiny_spec("before")).unwrap();
        // Poison the registry mutex the way a buggy in-lock code path
        // would: panic while holding the guard.
        let _ = catch_unwind(AssertUnwindSafe(|| {
            let _guard = self_lock(&daemon.inner);
            panic!("simulated panic while holding the registry lock");
        }));
        assert!(daemon.inner.reg.is_poisoned(), "test failed to poison");
        // Every API surface must keep working: submit, report, sessions,
        // metrics, drain — one panicking caller is not a dead daemon.
        let after = daemon.submit(tiny_spec("after")).unwrap();
        assert!(daemon.report(before).is_some());
        assert_eq!(daemon.sessions().len(), 2);
        assert!(daemon.metrics().admitted == 2);
        daemon.drain();
        for id in [before, after] {
            assert_eq!(
                daemon.report(id).unwrap().state,
                SessionState::Finalized,
                "session {id} did not survive the poisoned lock"
            );
        }
        daemon.shutdown();
    }

    #[test]
    fn wide_high_priority_session_is_not_starved_by_narrow_stream() {
        // Two runners, four cores. A continuous stream of narrow
        // low-priority pipelined sessions (1 core each) would bypass a
        // wide lane-0 session (needs all 4 cores) forever without the
        // reservation threshold: every time a core frees, a narrow
        // sibling takes it first.
        let cfg = DaemonConfig {
            runners: 2,
            verify_cores: 4,
            queue_capacity: 2048,
            ..DaemonConfig::default()
        };
        let store = Arc::new(MemStore::new());
        let daemon = Daemon::start(cfg, store);
        let narrow = || {
            SessionSpec::new(
                "narrow",
                guests::atomic_counter(2, 150),
                tiny_config().spare_workers(1).pipelined(true),
            )
            .priority(Priority::Low)
        };
        // Prime both runners with narrow core-holding work, then queue
        // the wide session plus a sustained narrow backlog behind it.
        for _ in 0..4 {
            daemon.submit(narrow()).unwrap();
        }
        let wide = daemon
            .submit(
                SessionSpec::new(
                    "wide",
                    guests::atomic_counter(2, 400),
                    tiny_config().spare_workers(4).pipelined(true),
                )
                .priority(Priority::High),
            )
            .unwrap();
        for _ in 0..1000 {
            daemon.submit(narrow()).unwrap();
        }
        daemon.drain();
        let r = daemon.report(wide).unwrap();
        assert_eq!(r.state, SessionState::Finalized, "error: {:?}", r.error);
        assert!(
            !r.degraded,
            "anti-starvation must grant the wide session its cores, \
             not degrade it"
        );
        // Everyone else still finished too.
        assert!(daemon
            .sessions()
            .iter()
            .all(|s| s.state == SessionState::Finalized));
        daemon.shutdown();
    }

    #[test]
    fn percentiles_are_nearest_rank() {
        let v: Vec<u64> = (1..=10).collect();
        assert_eq!(percentile(&v, 50), 5, "p50 of 1..=10 is the 5th value");
        assert_eq!(percentile(&v, 99), 10, "p99 of n=10 is the maximum");
        assert_eq!(percentile(&v, 100), 10);
        assert_eq!(percentile(&[42], 50), 42);
        assert_eq!(percentile(&[42], 99), 42);
        let two = [10, 20];
        assert_eq!(percentile(&two, 50), 10);
        assert_eq!(percentile(&two, 99), 20);
        let hundred: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile(&hundred, 50), 50);
        assert_eq!(percentile(&hundred, 99), 99);
        // The old floor-biased formula read index (10*99)/100 = 9 only by
        // accident for n=10 but index (50*99)/100 = 49 for n=50 — which
        // is the p100, not p99, of a 50-sample window... the regression
        // this pins: rank is ceil(p·n/100), clamped into 1..=n.
        let fifty: Vec<u64> = (1..=50).collect();
        assert_eq!(percentile(&fifty, 99), 50);
        assert_eq!(percentile(&fifty, 50), 25);
    }

    #[test]
    fn admission_wait_window_is_bounded() {
        let store = Arc::new(MemStore::new());
        let daemon = Daemon::start(DaemonConfig::default(), store);
        {
            let mut reg = self_lock(&daemon.inner);
            for i in 0..(ADMISSION_WINDOW as u64 + 500) {
                if reg.admission_waits.len() == ADMISSION_WINDOW {
                    reg.admission_waits.pop_front();
                }
                reg.admission_waits.push_back(i);
            }
            assert_eq!(reg.admission_waits.len(), ADMISSION_WINDOW);
            assert_eq!(*reg.admission_waits.front().unwrap(), 500);
        }
        // Percentiles come from the window that remains.
        let m = daemon.metrics();
        assert!(m.admission_p99_ns >= m.admission_p50_ns);
        assert!(m.admission_p50_ns >= 500);
        daemon.shutdown();
    }

    #[test]
    fn cancel_dequeues_admitted_sessions_only() {
        // No runners claiming: a 0-runner pool is clamped to 1, so jam the
        // single runner with a long session and queue a victim behind it.
        let cfg = DaemonConfig {
            runners: 1,
            verify_cores: 2,
            queue_capacity: 8,
            ..DaemonConfig::default()
        };
        let daemon = Daemon::start(cfg, Arc::new(MemStore::new()));
        let long = daemon
            .submit(SessionSpec::new(
                "long",
                guests::atomic_counter(2, 20_000),
                tiny_config(),
            ))
            .unwrap();
        let victim = daemon.submit(tiny_spec("victim")).unwrap();
        assert_eq!(daemon.cancel(victim), Ok(()));
        assert!(matches!(
            daemon.cancel(SessionId(999)),
            Err(SessionError::UnknownSession(_))
        ));
        // Cancelling twice: the row is now terminal.
        assert!(matches!(
            daemon.cancel(victim),
            Err(SessionError::NotCancellable {
                state: SessionState::Failed,
                ..
            })
        ));
        daemon.drain();
        let r = daemon.report(victim).unwrap();
        assert_eq!(r.state, SessionState::Failed);
        assert_eq!(r.attempts, 0, "no attempt may run after cancel");
        assert_eq!(r.error.as_deref(), Some("cancelled by client"));
        assert_eq!(daemon.report(long).unwrap().state, SessionState::Finalized);
        let m = daemon.metrics();
        assert_eq!(m.cancelled, 1);
        assert_eq!(m.failed, 0, "cancellation is not an attempt failure");
        assert!(matches!(
            daemon.cancel(long),
            Err(SessionError::NotCancellable { .. })
        ));
        daemon.shutdown();
    }

    #[test]
    fn adopt_orphans_restores_previous_incarnation() {
        let tmp = crate::testdir::TempDir::new("dpd-adopt-test");
        let dir = tmp.path().to_path_buf();
        // First incarnation: one finalized session, then the daemon "dies"
        // leaving a truncated sibling and assorted junk.
        let spec = tiny_spec("first");
        let epochs;
        {
            let store = Arc::new(crate::store::DirStore::new(&dir).unwrap());
            let daemon = Daemon::start(DaemonConfig::default(), store.clone());
            let id = daemon.submit(spec.clone()).unwrap();
            daemon.drain();
            let r = daemon.report(id).unwrap();
            assert_eq!(r.state, SessionState::Finalized);
            epochs = r.epochs;
            let full = std::fs::read(store.path(id).unwrap()).unwrap();
            std::fs::write(dir.join("s0002-cut.s0.dprs"), &full[..full.len() - 5]).unwrap();
            std::fs::write(dir.join("s0003-empty.s0.dprs"), b"").unwrap();
            std::fs::write(dir.join("s0004-mid.s0.dprs.tmp"), b"half").unwrap();
            daemon.shutdown();
        }
        // Second incarnation re-adopts on boot.
        let store = Arc::new(crate::store::DirStore::new(&dir).unwrap());
        let daemon = Daemon::start(DaemonConfig::default(), store.clone());
        let orphans = daemon.adopt_orphans().unwrap();
        assert_eq!(orphans.len(), 4, "{orphans:?}");
        let rows = daemon.sessions();
        assert_eq!(rows.len(), 2, "{rows:?}");
        assert_eq!(rows[0].id, SessionId(1));
        assert_eq!(rows[0].state, SessionState::Finalized);
        assert_eq!(rows[0].epochs, epochs);
        assert_eq!(rows[1].id, SessionId(2));
        assert_eq!(rows[1].state, SessionState::Salvaged);
        assert!(rows[1]
            .error
            .as_deref()
            .unwrap()
            .contains("re-adopted after daemon crash"));
        let notes = daemon.orphan_notes();
        assert_eq!(notes.len(), 2, "{notes:?}");
        assert!(notes.iter().any(|n| n.contains("s0003-empty.s0.dprs")));
        assert!(notes.iter().any(|n| n.contains("s0004-mid.s0.dprs.tmp")));
        // Adopted paths are registered: durable() serves the old bytes,
        // and new ids don't collide with adopted ones.
        assert!(!store.durable(SessionId(1), 0).unwrap().is_empty());
        assert_eq!(daemon.metrics().adopted, 2);
        let fresh = daemon.submit(spec).unwrap();
        assert!(fresh.0 >= 3, "id counter must jump past adopted ids");
        daemon.drain();
        daemon.shutdown();
    }

    /// Submits a session whose sink tears mid-epoch on attempt 0 only
    /// (the daemon-crash model: the bytes are gone, the device is fine),
    /// with no restart budget, so it retires [`SessionState::Salvaged`].
    /// Returns the id, the uninterrupted oracle bytes, and the epochs the
    /// torn run commits.
    fn salvage_one(daemon: &Daemon<MemStore>, name: &str) -> (SessionId, Vec<u8>, u32) {
        let base = tiny_spec(name)
            .restart_budget(0)
            .transient_sink_faults(true);
        let (solo, offsets) = solo_with_offsets(&base);
        assert!(offsets.len() >= 2, "need multiple epochs to cut between");
        let torn_at = (offsets[0] + offsets[1]) / 2;
        let spec = base.sink_faults({
            let mut f = dp_os::SinkFaults::none();
            f.torn_at = Some(torn_at);
            f
        });
        let id = daemon.submit(spec).unwrap();
        loop {
            let r = daemon.report(id).unwrap();
            if r.state.is_terminal() {
                assert_eq!(r.state, SessionState::Salvaged, "error: {:?}", r.error);
                return (id, solo, r.epochs);
            }
            std::thread::sleep(Duration::from_millis(1));
        }
    }

    #[test]
    fn resumed_session_finishes_byte_identical_to_uninterrupted_run() {
        let store = Arc::new(MemStore::new());
        let daemon = Daemon::start(DaemonConfig::default(), store.clone());
        let (id, solo, committed) = salvage_one(&daemon, "reborn");
        assert_eq!(committed, 1, "cut between commits 1 and 2");
        let from = daemon.resume(id).unwrap();
        assert_eq!(from, committed);
        daemon.drain();
        let r = daemon.report(id).unwrap();
        assert_eq!(r.state, SessionState::Finalized, "error: {:?}", r.error);
        assert_eq!(
            store.durable(id, 0).unwrap(),
            solo,
            "resumed journal must be byte-identical to an uninterrupted run"
        );
        let m = daemon.metrics();
        assert_eq!(m.resumed, 1);
        assert_eq!(m.resume_failed, 0);
        assert_eq!(m.finalized, 1);
        assert_eq!(m.salvaged, 1, "the pre-resume retirement still counts");
        assert_eq!(
            m.epochs_committed,
            u64::from(r.epochs),
            "resume must add only the epochs past the crash point"
        );
        daemon.shutdown();
    }

    #[test]
    fn resume_is_idempotent_while_queued() {
        // A single runner jammed with a long session keeps the resumed
        // session queued, so the second resume call observes Resuming.
        let cfg = DaemonConfig {
            runners: 1,
            ..DaemonConfig::default()
        };
        let store = Arc::new(MemStore::new());
        let daemon = Daemon::start(cfg, store);
        let (id, _solo, committed) = salvage_one(&daemon, "twice");
        daemon
            .submit(SessionSpec::new(
                "jam",
                guests::atomic_counter(2, 20_000),
                tiny_config(),
            ))
            .unwrap();
        let first = daemon.resume(id).unwrap();
        assert_eq!(first, committed);
        let second = daemon.resume(id).unwrap();
        assert_eq!(second, first, "double-resume must not re-admit");
        assert_eq!(daemon.metrics().resumed, 1, "exactly one admission");
        daemon.drain();
        assert_eq!(daemon.report(id).unwrap().state, SessionState::Finalized);
        daemon.shutdown();
    }

    #[test]
    fn resume_refusals_are_typed_and_budget_is_per_boot() {
        let cfg = DaemonConfig {
            resume_budget: 1,
            ..DaemonConfig::default()
        };
        let store = Arc::new(MemStore::new());
        let daemon = Daemon::start(cfg, store);
        assert!(matches!(
            daemon.resume(SessionId(999)),
            Err(SessionError::UnknownSession(_))
        ));
        // A finalized session is not resumable — typed, not a no-op resume.
        let done = daemon.submit(tiny_spec("done")).unwrap();
        let (a, _, _) = salvage_one(&daemon, "first");
        let (b, _, _) = salvage_one(&daemon, "second");
        loop {
            if daemon.report(done).unwrap().state.is_terminal() {
                break;
            }
            std::thread::sleep(Duration::from_millis(1));
        }
        match daemon.resume(done) {
            Err(SessionError::NotResumable { detail, .. }) => {
                assert!(detail.contains("only salvaged sessions resume"), "{detail}")
            }
            other => panic!("expected NotResumable, got {other:?}"),
        }
        daemon.resume(a).unwrap();
        match daemon.resume(b) {
            Err(SessionError::NotResumable { detail, .. }) => {
                assert!(detail.contains("resume budget exhausted"), "{detail}")
            }
            other => panic!("expected budget refusal, got {other:?}"),
        }
        let m = daemon.metrics();
        assert_eq!(m.resumed, 1);
        assert_eq!(m.resume_failed, 0, "budget refusals are not failures");
        daemon.drain();
        daemon.shutdown();
    }

    #[test]
    fn resume_adopted_continues_previous_incarnation_byte_identical() {
        let tmp = crate::testdir::TempDir::new("dpd-resume-adopt");
        let dir = tmp.path().to_path_buf();
        let base = tiny_spec("carryover")
            .restart_budget(0)
            .transient_sink_faults(true);
        let (solo, offsets) = solo_with_offsets(&base);
        let torn_at = (offsets[0] + offsets[1]) / 2;
        let id;
        {
            // First incarnation: the session's sink tears mid-epoch (the
            // crash model) and the daemon dies with it Salvaged on disk.
            let store = Arc::new(crate::store::DirStore::new(&dir).unwrap());
            let daemon = Daemon::start(DaemonConfig::default(), store);
            let spec = base.clone().sink_faults({
                let mut f = dp_os::SinkFaults::none();
                f.torn_at = Some(torn_at);
                f
            });
            id = daemon.submit(spec).unwrap();
            daemon.drain();
            assert_eq!(daemon.report(id).unwrap().state, SessionState::Salvaged);
            daemon.shutdown();
        }
        // Second incarnation: re-adopt, then resume every salvaged row.
        let store = Arc::new(crate::store::DirStore::new(&dir).unwrap());
        let daemon = Daemon::start(DaemonConfig::default(), store.clone());
        daemon.adopt_orphans().unwrap();
        let outcomes = daemon.resume_adopted();
        assert_eq!(outcomes.len(), 1);
        assert_eq!(outcomes[0].0, id);
        let from = outcomes[0].1.as_ref().unwrap();
        assert_eq!(*from, 1, "resume from the one committed epoch");
        daemon.drain();
        let r = daemon.report(id).unwrap();
        assert_eq!(r.state, SessionState::Finalized, "error: {:?}", r.error);
        assert_eq!(
            store.durable(id, 0).unwrap(),
            solo,
            "cross-incarnation resume must be byte-identical to an \
             uninterrupted run"
        );
        let m = daemon.metrics();
        assert_eq!(m.adopted, 1);
        assert_eq!(m.resumed, 1);
        assert_eq!(m.resume_failed, 0);
        daemon.shutdown();
    }

    #[test]
    fn idempotency_token_deduplicates_resubmission() {
        let daemon = Daemon::start(DaemonConfig::default(), Arc::new(MemStore::new()));
        let a = daemon
            .submit(tiny_spec("one").idempotency("tok-1"))
            .unwrap();
        let again = daemon
            .submit(tiny_spec("one").idempotency("tok-1"))
            .unwrap();
        assert_eq!(a, again, "same token must return the admitted id");
        let other = daemon
            .submit(tiny_spec("two").idempotency("tok-2"))
            .unwrap();
        assert_ne!(a, other);
        assert_eq!(daemon.metrics().admitted, 2, "dedup is not an admission");
        daemon.drain();
        daemon.shutdown();
    }

    #[test]
    fn injected_record_faults_are_contained_per_session() {
        dp_core::faults::silence_injected_panics();
        let store = Arc::new(MemStore::new());
        let daemon = Daemon::start(DaemonConfig::default(), store.clone());
        // worker_panic_p = 1.0 defeats the coordinator's internal retry
        // budget every time: the attempt fails, the daemon retries it,
        // and the budget runs out -> the committed prefix salvages.
        let storm = SessionSpec::new(
            "doomed",
            guests::racy_counter(2, 400),
            tiny_config().faults(FaultPlan::none().seed(5).worker_panics_with(1.0)),
        )
        .restart_budget(1);
        let doomed = daemon.submit(storm).unwrap();
        let fine = daemon.submit(tiny_spec("fine")).unwrap();
        daemon.drain();
        let rd = daemon.report(doomed).unwrap();
        assert!(
            matches!(rd.state, SessionState::Salvaged | SessionState::Failed),
            "state: {:?}",
            rd.state
        );
        assert!(rd.error.is_some());
        assert_eq!(rd.attempts, 2);
        assert_eq!(daemon.report(fine).unwrap().state, SessionState::Finalized);
        daemon.shutdown();
    }
}
