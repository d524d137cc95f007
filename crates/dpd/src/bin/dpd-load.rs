//! `dpd-load` — the load-generator client for the `dpd` recording service.
//!
//! Opens hundreds of sessions over the mixed workload suite from several
//! client threads, with bursty submission, per-session derived fault
//! plans, mixed priorities, and polite back-off on typed rejections.
//! Prints the session table summary and service metrics at the end.
//!
//! ```text
//! dpd-load [--sessions N] [--clients N] [--runners N] [--cores N]
//!          [--capacity N] [--threads N] [--size small|medium|large]
//!          [--faults] [--check] [--seed N] [--socket PATH]
//! ```
//!
//! With `--socket PATH` the same load runs over the `dpnet` protocol
//! against an already-running `dp serve --socket` daemon: every client
//! thread opens its own connection, submits by guest *reference*, and
//! `--check` fetches each spot-checked journal over an attach stream —
//! proving socket-submitted recordings byte-identical to solo in-process
//! runs of the same spec.

use dp_core::{record_to, DoublePlayConfig, FaultPlan, JournalWriter};
use dp_dpd::{
    AdmitError, Client, ClientError, Daemon, DaemonConfig, GuestRef, MemStore, Priority, SessionId,
    SessionSpec, SessionState, SessionStore, SizeRef, SubmitSpec, WireFault,
};
use dp_support::rng::mix;
use dp_workloads::{mixed_suite, Size};
use std::sync::Arc;
use std::time::Instant;

struct Opts {
    sessions: usize,
    clients: usize,
    runners: usize,
    cores: usize,
    capacity: usize,
    threads: usize,
    size: Size,
    faults: bool,
    check: bool,
    seed: u64,
    socket: Option<String>,
}

fn fail(detail: &str) -> ! {
    eprintln!("dpd-load: {detail}");
    std::process::exit(1);
}

fn parse() -> Opts {
    let mut o = Opts {
        sessions: 200,
        clients: 4,
        runners: 4,
        cores: 4,
        capacity: 32,
        threads: 2,
        size: Size::Small,
        faults: false,
        check: false,
        seed: 42,
        socket: None,
    };
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        let mut num = |what: &str| -> usize {
            args.next()
                .and_then(|v| v.parse().ok())
                .unwrap_or_else(|| fail(&format!("{what} needs a number")))
        };
        match a.as_str() {
            "--sessions" => o.sessions = num("--sessions"),
            "--clients" => o.clients = num("--clients").max(1),
            "--runners" => o.runners = num("--runners").max(1),
            "--cores" => o.cores = num("--cores"),
            "--capacity" => o.capacity = num("--capacity").max(1),
            "--threads" => o.threads = num("--threads").max(1),
            "--seed" => o.seed = num("--seed") as u64,
            "--size" => {
                o.size = match args.next().as_deref() {
                    Some("small") => Size::Small,
                    Some("medium") => Size::Medium,
                    Some("large") => Size::Large,
                    other => fail(&format!("unknown size {other:?}")),
                }
            }
            "--faults" => o.faults = true,
            "--check" => o.check = true,
            "--socket" => {
                o.socket = Some(args.next().unwrap_or_else(|| fail("--socket needs a path")))
            }
            "--help" | "-h" => {
                println!(
                    "dpd-load [--sessions N] [--clients N] [--runners N] [--cores N] \
                     [--capacity N] [--threads N] [--size small|medium|large] \
                     [--faults] [--check] [--seed N] [--socket PATH]"
                );
                std::process::exit(0);
            }
            other => fail(&format!("unknown flag {other}")),
        }
    }
    o
}

/// The configuration and lane for global session number `i` — shared by
/// the in-process and socket paths so `--check`'s solo oracle reproduces
/// exactly what was submitted either way.
fn config_for(o: &Opts, i: usize) -> (DoublePlayConfig, Priority) {
    let mut config = DoublePlayConfig::new(o.threads)
        .epoch_cycles(50_000)
        .hidden_seed(mix(&[o.seed, i as u64, 0x10ad]));
    if i.is_multiple_of(2) {
        config = config.spare_workers(o.threads).pipelined(true);
    }
    if o.faults && i.is_multiple_of(3) {
        let template = FaultPlan::none()
            .seed(o.seed)
            .io(0.0, 0.002, 0.0)
            .worker_panics_with(0.01)
            .storms(0.05, 4, 32);
        config = config.faults(template.for_session(i as u64));
    }
    let priority = match i % 3 {
        0 => Priority::High,
        1 => Priority::Normal,
        _ => Priority::Low,
    };
    (config, priority)
}

/// The spec for global session number `i`: workloads cycle through the
/// mixed suite, priorities cycle through the lanes, and (with `--faults`)
/// every third session carries a per-session decorrelated fault plan.
fn spec_for(o: &Opts, i: usize) -> SessionSpec {
    let cases = mixed_suite(o.threads, o.size);
    let case = &cases[i % cases.len()];
    let (config, priority) = config_for(o, i);
    SessionSpec::new(case.name, case.spec.clone(), config)
        .priority(priority)
        .restart_budget(2)
}

/// The wire twin of [`spec_for`]: the same session, with the guest by
/// reference (the daemon resolves the identical workload on its side).
fn submit_spec_for(o: &Opts, i: usize) -> SubmitSpec {
    let cases = mixed_suite(o.threads, o.size);
    let case = &cases[i % cases.len()];
    let (config, priority) = config_for(o, i);
    let guest = GuestRef::Workload {
        name: case.name.to_string(),
        threads: o.threads as u64,
        size: SizeRef::from_size(o.size),
    };
    let mut spec = SubmitSpec::new(case.name, guest, config);
    spec.priority = priority;
    spec.restart_budget = 2;
    spec
}

/// The `--socket` load path: the same burst of sessions, submitted over
/// `dpnet` from one connection per client thread against a daemon that is
/// already serving. `--check` fetches journals back over attach streams.
fn run_socket(o: &Opts, socket: &str) {
    let started = Instant::now();
    let ids = std::thread::scope(|scope| {
        let mut handles = Vec::new();
        for client in 0..o.clients {
            let o = &*o;
            handles.push(scope.spawn(move || {
                let mut conn = Client::connect(socket)
                    .unwrap_or_else(|e| fail(&format!("cannot connect to `{socket}`: {e}")));
                let mut ids = Vec::new();
                let mut i = client;
                while i < o.sessions {
                    match conn.submit_retrying(&submit_spec_for(o, i), 1_000) {
                        Ok(id) => ids.push((i, id)),
                        Err(ClientError::Fault(WireFault::Draining)) => break,
                        Err(e) => fail(&format!("session {i} not admitted: {e}")),
                    }
                    i += o.clients;
                }
                for (_, id) in &ids {
                    conn.wait(*id)
                        .unwrap_or_else(|e| fail(&format!("waiting on {id}: {e}")));
                }
                ids
            }));
        }
        let mut all: Vec<(usize, SessionId)> = Vec::new();
        for h in handles {
            all.extend(h.join().expect("client thread"));
        }
        all
    });
    let wall = started.elapsed();

    let mut conn = Client::connect(socket)
        .unwrap_or_else(|e| fail(&format!("cannot connect to `{socket}`: {e}")));
    let m = conn
        .metrics()
        .unwrap_or_else(|e| fail(&format!("metrics: {e}")));
    let (rows, _notes) = conn
        .sessions()
        .unwrap_or_else(|e| fail(&format!("sessions: {e}")));
    let terminal = rows.iter().filter(|r| r.state.is_terminal()).count();
    println!(
        "sessions: {} submitted over {socket}, {} terminal daemon-wide \
         ({} finalized, {} salvaged, {} failed)",
        ids.len(),
        terminal,
        m.finalized,
        m.salvaged,
        m.failed
    );
    println!(
        "backpressure: {} rejections shed, {} degraded runs, {} retries",
        m.rejected, m.degraded_runs, m.retries
    );
    println!(
        "throughput: {:.1} sessions/s over the socket ({} epochs committed)",
        ids.len() as f64 / wall.as_secs_f64(),
        m.epochs_committed
    );

    if o.check {
        // Byte-identity spot check over the wire: every 10th session's
        // journal, fetched back through an attach stream, must be
        // identical to a solo in-process run of the same spec.
        let mut checked = 0;
        for (i, id) in ids.iter().step_by(10) {
            let row = rows.iter().find(|r| r.id == *id).expect("row");
            if row.state != SessionState::Finalized {
                continue;
            }
            let spec = spec_for(o, *i);
            let mut w = JournalWriter::new(Vec::new()).expect("journal");
            record_to(&spec.guest, &spec.config, &mut w).expect("solo run");
            let mut streamed = Vec::new();
            conn.attach(*id, &mut streamed)
                .unwrap_or_else(|e| fail(&format!("attach {id}: {e}")));
            if streamed != w.into_inner() {
                fail(&format!("session {id} diverged from its solo run"));
            }
            checked += 1;
        }
        println!("checked: {checked} sessions byte-identical to solo runs via attach");
    }
}

fn main() {
    let o = parse();
    dp_core::faults::silence_injected_panics();
    if let Some(socket) = o.socket.clone() {
        return run_socket(&o, &socket);
    }
    let store = Arc::new(MemStore::new());
    let daemon = Arc::new(Daemon::start(
        DaemonConfig {
            runners: o.runners,
            verify_cores: o.cores,
            queue_capacity: o.capacity,
            ..DaemonConfig::default()
        },
        store.clone(),
    ));

    let started = Instant::now();
    let ids = std::thread::scope(|scope| {
        let mut handles = Vec::new();
        for client in 0..o.clients {
            let daemon = daemon.clone();
            let o = &o;
            handles.push(scope.spawn(move || {
                let mut ids = Vec::new();
                let mut i = client;
                while i < o.sessions {
                    match daemon.submit_retrying(spec_for(o, i), 1_000) {
                        Ok(id) => ids.push((i, id)),
                        Err(AdmitError::Draining) => break,
                        Err(e) => fail(&format!("session {i} not admitted: {e}")),
                    }
                    i += o.clients;
                }
                ids
            }));
        }
        let mut all: Vec<(usize, SessionId)> = Vec::new();
        for h in handles {
            all.extend(h.join().expect("client thread"));
        }
        all
    });
    daemon.drain();
    let wall = started.elapsed();

    let m = daemon.metrics();
    let rows = daemon.sessions();
    let terminal = rows.iter().filter(|r| r.state.is_terminal()).count();
    println!(
        "sessions: {} admitted, {} terminal ({} finalized, {} salvaged, {} failed)",
        m.admitted, terminal, m.finalized, m.salvaged, m.failed
    );
    println!(
        "backpressure: {} rejections shed, {} degraded runs, {} retries",
        m.rejected, m.degraded_runs, m.retries
    );
    println!(
        "throughput: {:.1} sessions/s, {:.0} epochs/s ({} epochs committed)",
        m.admitted as f64 / wall.as_secs_f64(),
        m.epochs_committed as f64 / wall.as_secs_f64(),
        m.epochs_committed
    );
    println!(
        "admission latency: p50 {:.2}ms, p99 {:.2}ms",
        m.admission_p50_ns as f64 / 1e6,
        m.admission_p99_ns as f64 / 1e6
    );

    if o.check {
        // Byte-identity spot check: every 10th session's journal must be
        // identical to a solo run of the same spec (isolation oracle).
        let mut checked = 0;
        for (i, id) in ids.iter().step_by(10) {
            let spec = spec_for(&o, *i);
            let row = rows.iter().find(|r| r.id == *id).expect("row");
            if row.state != SessionState::Finalized {
                continue;
            }
            let mut w = JournalWriter::new(Vec::new()).expect("journal");
            record_to(&spec.guest, &spec.config, &mut w).expect("solo run");
            if store.durable(*id, 0).expect("durable") != w.into_inner() {
                fail(&format!("session {id} diverged from its solo run"));
            }
            checked += 1;
        }
        println!("checked: {checked} sessions byte-identical to solo runs");
    }

    match Arc::try_unwrap(daemon) {
        Ok(d) => d.shutdown(),
        Err(_) => fail("daemon still shared at exit"),
    }
}
