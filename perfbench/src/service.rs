//! The `dpd` side: an in-process daemon over a `DirStore`, served on a
//! unix socket, driven by closed-loop `Client` connections.

use crate::report::ms;
use crate::trace::Tracer;
use dp_dpd::{
    serve, Client, Daemon, DaemonConfig, DaemonMetrics, DirStore, ServerConfig, SessionId,
    SessionReport, SessionState, SubmitSpec,
};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Runner threads and verify cores: the host has two cores.
pub const DAEMON: DaemonConfig = DaemonConfig {
    runners: 2,
    verify_cores: 2,
    queue_capacity: 64,
    resume_budget: 16,
    resume_priority: dp_dpd::Priority::Normal,
};

/// Status poll interval while a client waits for a terminal state (the
/// interval `Client::wait` uses).
const POLL: Duration = Duration::from_millis(2);

/// How long to wait for the socket to accept its first connection.
const BIND_TIMEOUT: Duration = Duration::from_secs(10);

/// A daemon served on a socket from a thread of this process.
pub struct Server {
    daemon: Arc<Daemon<DirStore>>,
    store: Arc<DirStore>,
    socket: PathBuf,
    thread: JoinHandle<std::io::Result<()>>,
}

impl Server {
    /// Starts a daemon whose journals go to `dir/journals` and serves it
    /// at `dir/dpd.sock`; returns once the socket accepts connections.
    ///
    /// # Errors
    ///
    /// Store creation, or a socket that never comes up.
    pub fn start(dir: &Path) -> Result<Server, String> {
        let store = Arc::new(
            DirStore::new(dir.join("journals")).map_err(|e| format!("journal store: {e}"))?,
        );
        let daemon = Arc::new(Daemon::start(DAEMON, store.clone()));
        let socket = dir.join("dpd.sock");
        let thread = {
            let daemon = daemon.clone();
            let socket = socket.clone();
            std::thread::spawn(move || serve(&daemon, &socket, ServerConfig::default()))
        };
        let server = Server {
            daemon,
            store,
            socket,
            thread,
        };
        let start = Instant::now();
        loop {
            match Client::connect(&server.socket) {
                Ok(_) => return Ok(server),
                Err(e) if start.elapsed() > BIND_TIMEOUT || server.thread.is_finished() => {
                    let _ = server.stop();
                    return Err(format!("daemon socket never accepted: {e}"));
                }
                Err(_) => std::thread::sleep(POLL),
            }
        }
    }

    pub fn socket(&self) -> &Path {
        &self.socket
    }

    pub fn metrics(&self) -> DaemonMetrics {
        self.daemon.metrics()
    }

    /// The journal files of session `id`: one `DPRJ` file, or one file
    /// per shard stream when it records `shards >= 2` streams.
    pub fn journal(&self, id: SessionId, shards: u32) -> Option<Vec<PathBuf>> {
        if shards >= 2 {
            (0..shards).map(|k| self.store.shard_path(id, k)).collect()
        } else {
            self.store.path(id).map(|p| vec![p])
        }
    }

    /// Asks the server to shut down over the socket, joins it, and shuts
    /// the daemon down.
    ///
    /// # Errors
    ///
    /// The shutdown request, the serve loop, or a daemon still shared.
    pub fn stop(self) -> Result<(), String> {
        let asked = Client::connect(&self.socket)
            .and_then(|mut c| c.shutdown())
            .map_err(|e| format!("shutdown request: {e}"));
        let served = match self.thread.join() {
            Ok(r) => r.map_err(|e| format!("serve loop: {e}")),
            Err(_) => Err("serve thread panicked".to_string()),
        };
        match Arc::try_unwrap(self.daemon) {
            Ok(d) => d.shutdown(),
            Err(_) => return Err("daemon still shared after the server stopped".into()),
        }
        asked.and(served)
    }
}

/// One session as a client saw it.
#[derive(Debug, Clone)]
pub struct Session {
    pub index: usize,
    pub id: SessionId,
    /// Submit to terminal state.
    pub latency: Duration,
    pub submit_rtt: Duration,
    pub status_rtts: Vec<Duration>,
    pub report: SessionReport,
}

/// When the clients stop submitting.
#[derive(Debug, Clone, Copy)]
pub enum Stop {
    /// No new session after this instant.
    At(Instant),
    /// No new session once this many were handed out.
    After(usize),
}

/// Runs `clients` closed loops against `socket`: each submits session
/// `i` (from a shared counter), polls its status until it is terminal,
/// then takes the next `i`. Returns the sessions in index order and the
/// failures (refused or broken operations).
pub fn closed_loop(
    socket: &Path,
    clients: usize,
    stop: Stop,
    spec_for: &(dyn Fn(usize) -> SubmitSpec + Sync),
    tracer: &Tracer,
    group_base: u64,
) -> (Vec<Session>, Vec<String>) {
    let next = AtomicUsize::new(0);
    let done = Mutex::new((Vec::new(), Vec::new()));
    std::thread::scope(|scope| {
        for _ in 0..clients {
            scope.spawn(|| {
                let (sessions, failures) =
                    client_loop(socket, stop, &next, spec_for, tracer, group_base);
                let mut all = done.lock().expect("session list poisoned");
                all.0.extend(sessions);
                all.1.extend(failures);
            });
        }
    });
    let (mut sessions, failures): (Vec<Session>, Vec<String>) =
        done.into_inner().expect("session list poisoned");
    sessions.sort_by_key(|s| s.index);
    (sessions, failures)
}

fn client_loop(
    socket: &Path,
    stop: Stop,
    next: &AtomicUsize,
    spec_for: &(dyn Fn(usize) -> SubmitSpec + Sync),
    tracer: &Tracer,
    group_base: u64,
) -> (Vec<Session>, Vec<String>) {
    let mut sessions = Vec::new();
    let mut failures = Vec::new();
    let mut client = match Client::connect(socket) {
        Ok(c) => c,
        Err(e) => return (sessions, vec![format!("connect: {e}")]),
    };
    loop {
        if let Stop::At(deadline) = stop {
            if Instant::now() >= deadline {
                break;
            }
        }
        let index = next.fetch_add(1, Ordering::Relaxed);
        if let Stop::After(n) = stop {
            if index >= n {
                break;
            }
        }
        let spec = spec_for(index);
        match one_session(&mut client, &spec, tracer, group_base, index) {
            Ok(session) => sessions.push(session),
            Err(e) => {
                failures.push(format!("session {index} ({}): {e}", spec.name));
                // A broken connection is not reused.
                match Client::connect(socket) {
                    Ok(c) => client = c,
                    Err(e) => {
                        failures.push(format!("reconnect: {e}"));
                        break;
                    }
                }
            }
        }
    }
    (sessions, failures)
}

/// Submits session `index`, then polls its status until it is terminal.
fn one_session(
    client: &mut Client,
    spec: &SubmitSpec,
    tracer: &Tracer,
    group_base: u64,
    index: usize,
) -> Result<Session, String> {
    let group = group_base + index as u64;
    let root = tracer.open();
    let root_id = root.id();
    let open = tracer.open();
    let submitted = client.submit(spec);
    let submit_rtt = tracer.close(open, "proto.submit", group, Some(root_id), None);
    let id = submitted.map_err(|e| format!("submit refused: {e}"))?;
    let mut status_rtts = Vec::new();
    let report = loop {
        let open = tracer.open();
        let status = client.status(id);
        status_rtts.push(tracer.close(open, "proto.status", group, Some(root_id), None));
        let report = status.map_err(|e| format!("status: {e}"))?;
        if report.state.is_terminal() {
            break report;
        }
        std::thread::sleep(POLL);
    };
    Ok(Session {
        index,
        id,
        latency: tracer.close(root, "session", group, None, None),
        submit_rtt,
        status_rtts,
        report,
    })
}

/// The `dpd` and `dpd::proto` layer numbers of one set of sessions.
#[derive(Debug, Clone, Default)]
pub struct DpdLayer {
    pub admission_p50_ms: f64,
    pub degraded_runs: f64,
    pub retries: f64,
    pub epochs_per_s: f64,
    pub submit_rtt_us: Vec<f64>,
    pub status_rtt_us: Vec<f64>,
}

impl DpdLayer {
    /// Summarizes `sessions`, served over `wall`, from the daemon's
    /// counters before and after them.
    pub fn of(
        sessions: &[Session],
        before: &DaemonMetrics,
        after: &DaemonMetrics,
        wall: Duration,
    ) -> Self {
        let us = |d: &Duration| d.as_secs_f64() * 1e6;
        DpdLayer {
            admission_p50_ms: after.admission_p50_ns as f64 / 1e6,
            degraded_runs: (after.degraded_runs - before.degraded_runs) as f64,
            retries: (after.retries - before.retries) as f64,
            epochs_per_s: (after.epochs_committed - before.epochs_committed) as f64
                / wall.as_secs_f64(),
            submit_rtt_us: sessions.iter().map(|s| us(&s.submit_rtt)).collect(),
            status_rtt_us: sessions
                .iter()
                .flat_map(|s| s.status_rtts.iter().map(us))
                .collect(),
        }
    }
}

/// Checks that a session finalized.
pub fn check_finalized(s: &Session) -> Result<(), String> {
    if s.report.state == SessionState::Finalized {
        Ok(())
    } else {
        Err(format!(
            "session {} ({}) ended {} after {} attempt(s): {}",
            s.id,
            s.report.name,
            s.report.state,
            s.report.attempts,
            s.report.error.as_deref().unwrap_or("no error recorded")
        ))
    }
}

/// A session's own recording time in milliseconds, as its client saw
/// it: the latency minus the queue wait before a runner claimed it.
pub fn run_ms(s: &Session) -> f64 {
    ms(s.latency) - s.report.admission_wait_ns as f64 / 1e6
}
