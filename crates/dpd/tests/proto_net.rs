//! The `dpnet` protocol over a real unix-domain socket: byte identity of
//! socket-submitted recordings against solo in-process runs, typed fault
//! mirroring, typed connection backpressure, and malformed-frame
//! hardening (no panic, no hang, no unbounded allocation — every bad
//! frame earns a typed answer).

mod common;

use common::{sock_path, solo_with_offsets, start_server};
use dp_core::{DoublePlayConfig, FaultPlan};
use dp_dpd::proto::frame::{expect_hello, read_frame, send_hello, write_frame};
use dp_dpd::{
    Client, ClientError, Daemon, DaemonConfig, GuestRef, MemStore, Priority, Request, Response,
    ServerConfig, SessionId, SessionState, SessionStore, SubmitSpec, WireFault,
};
use dp_support::rng::mix;
use dp_support::wire::{from_bytes, to_bytes};
use std::io::Write;
use std::os::unix::net::UnixStream;
use std::sync::Arc;

fn start_default(tag: &str) -> (Arc<Daemon<MemStore>>, std::path::PathBuf) {
    let daemon = Arc::new(Daemon::start(
        DaemonConfig {
            runners: 2,
            verify_cores: 4,
            queue_capacity: 64,
            ..DaemonConfig::default()
        },
        Arc::new(MemStore::new()),
    ));
    let (path, _handle) = start_server(&daemon, tag, ServerConfig::default());
    (daemon, path)
}

/// The sweep's submit spec for one (seed, priority, fault-plan) point:
/// a tiny counter guest whose recording is deterministic for the spec,
/// so a solo run is an exact byte oracle.
fn sweep_spec(seed: u64, priority: Priority, faulted: bool, i: u64) -> SubmitSpec {
    let guest = if i.is_multiple_of(2) {
        GuestRef::AtomicCounter {
            workers: 2,
            iters: 250 + (i as i64) * 40,
        }
    } else {
        GuestRef::RacyCounter {
            workers: 2,
            iters: 250 + (i as i64) * 40,
        }
    };
    let mut config = DoublePlayConfig::new(2)
        .epoch_cycles(600 + 90 * i)
        .hidden_seed(mix(&[seed, i, 0xd9e7]));
    if i.is_multiple_of(3) {
        config = config.spare_workers(2).pipelined(true);
    }
    if faulted {
        // Divergence storms perturb the recording deterministically —
        // the solo oracle runs the same plan, so bytes must still match.
        config = config.faults(FaultPlan::none().seed(mix(&[seed, i])).storms(0.3, 2, 12));
    }
    let mut spec = SubmitSpec::new(format!("sweep-{seed}-{i}"), guest, config);
    spec.priority = priority;
    spec.restart_budget = 0;
    spec
}

#[test]
fn socket_submissions_are_byte_identical_to_solo_runs() {
    let (daemon, path) = start_default("identity");
    let mut client = Client::connect(&path).unwrap();
    let mut points = Vec::new();
    let mut i = 0u64;
    for seed in [11u64, 47] {
        for priority in [Priority::High, Priority::Normal, Priority::Low] {
            for faulted in [false, true] {
                points.push(sweep_spec(seed, priority, faulted, i));
                i += 1;
            }
        }
    }
    let ids: Vec<SessionId> = points
        .iter()
        .map(|spec| client.submit_retrying(spec, 1_000).expect("admission"))
        .collect();
    for (spec, id) in points.iter().zip(&ids) {
        let report = client.wait(*id).unwrap();
        assert_eq!(
            report.state,
            SessionState::Finalized,
            "{}: {:?} ({:?})",
            spec.name,
            report.state,
            report.error
        );
        // The solo oracle resolves the same guest reference locally —
        // exactly what a remote client can do to audit the daemon.
        let session = spec.to_session_spec().unwrap();
        let (solo, _) = solo_with_offsets(&session);
        let mut streamed = Vec::new();
        let outcome = client.attach(*id, &mut streamed).unwrap();
        assert!(outcome.clean, "{}: journal not clean", spec.name);
        assert_eq!(
            streamed, solo,
            "{}: socket-submitted journal diverges from solo run",
            spec.name
        );
        let durable = daemon.store().durable(*id, 0).unwrap();
        assert_eq!(durable, solo, "{}: durable bytes diverge", spec.name);
    }
    client.shutdown().unwrap();
}

#[test]
fn typed_faults_mirror_in_process_errors() {
    let (_daemon, path) = start_default("faults");
    let mut client = Client::connect(&path).unwrap();

    match client.status(SessionId(404)) {
        Err(ClientError::Fault(WireFault::UnknownSession { id })) => assert_eq!(id, SessionId(404)),
        other => panic!("expected UnknownSession, got {other:?}"),
    }
    match client.cancel(SessionId(404)) {
        Err(ClientError::Fault(WireFault::UnknownSession { .. })) => {}
        other => panic!("expected UnknownSession, got {other:?}"),
    }
    let mut missing = sweep_spec(1, Priority::Normal, false, 0);
    missing.guest = GuestRef::Workload {
        name: "no-such-workload".into(),
        threads: 2,
        size: dp_dpd::SizeRef::Small,
    };
    match client.submit(&missing) {
        Err(ClientError::Fault(WireFault::UnknownGuest { detail })) => {
            assert!(detail.contains("no-such-workload"), "{detail}");
        }
        other => panic!("expected UnknownGuest, got {other:?}"),
    }
    let mut streamed = Vec::new();
    match client.attach(SessionId(404), &mut streamed) {
        Err(ClientError::Fault(WireFault::UnknownSession { .. })) => {}
        other => panic!("expected UnknownSession, got {other:?}"),
    }

    // A finalized session is not cancellable — the typed mirror of
    // SessionError::NotCancellable, with the state it was caught in.
    let spec = sweep_spec(2, Priority::Normal, false, 1);
    let id = client.submit(&spec).unwrap();
    let report = client.wait(id).unwrap();
    assert_eq!(report.state, SessionState::Finalized);
    match client.cancel(id) {
        Err(ClientError::Fault(WireFault::NotCancellable { id: got, state })) => {
            assert_eq!(got, id);
            assert_eq!(state, SessionState::Finalized);
        }
        other => panic!("expected NotCancellable, got {other:?}"),
    }
    client.shutdown().unwrap();
}

#[test]
fn over_limit_connections_get_typed_busy_backpressure() {
    let daemon = Arc::new(Daemon::start(
        DaemonConfig::default(),
        Arc::new(MemStore::new()),
    ));
    let cfg = ServerConfig {
        max_connections: 1,
        ..ServerConfig::default()
    };
    let (path, _handle) = start_server(&daemon, "busy", cfg);
    let mut first = Client::connect(&path).unwrap();
    first.sessions().unwrap(); // fully established and counted
    let mut second = Client::connect(&path).unwrap();
    match second.sessions() {
        Err(ClientError::Fault(WireFault::Busy { active, limit })) => {
            assert_eq!((active, limit), (1, 1));
        }
        other => panic!("expected Busy, got {other:?}"),
    }
    drop(second);
    first.shutdown().unwrap();
}

/// A raw protocol connection for crafting hostile frames.
fn raw_conn(path: &std::path::Path) -> UnixStream {
    let mut s = UnixStream::connect(path).unwrap();
    send_hello(&mut s).unwrap();
    expect_hello(&mut s).unwrap();
    s
}

fn read_response(s: &mut UnixStream) -> Response {
    let mut buf = Vec::new();
    read_frame(s, &mut buf).unwrap();
    from_bytes(&buf).unwrap()
}

#[test]
fn malformed_frames_get_typed_errors_never_panics() {
    let (_daemon, path) = start_default("fuzz");

    // An intact frame with an undecodable payload: typed answer, and the
    // connection keeps serving.
    let mut s = raw_conn(&path);
    write_frame(&mut s, &[0xff; 16]).unwrap();
    assert!(
        matches!(
            read_response(&mut s),
            Response::Error {
                fault: WireFault::Malformed { .. }
            }
        ),
        "undecodable payload must earn Malformed"
    );
    write_frame(&mut s, &to_bytes(&Request::Sessions)).unwrap();
    assert!(matches!(
        read_response(&mut s),
        Response::SessionList { .. }
    ));
    drop(s);

    // A corrupt CRC desynchronizes the stream: typed answer, then close.
    let mut s = raw_conn(&path);
    let mut frame = Vec::new();
    write_frame(&mut frame, &to_bytes(&Request::Sessions)).unwrap();
    let last = frame.len() - 1;
    frame[last] ^= 0x40;
    s.write_all(&frame).unwrap();
    s.flush().unwrap();
    assert!(matches!(
        read_response(&mut s),
        Response::Error {
            fault: WireFault::Malformed { .. }
        }
    ));
    drop(s);

    // An oversized declared length is refused before allocation.
    let mut s = raw_conn(&path);
    s.write_all(&(u32::MAX).to_le_bytes()).unwrap();
    s.write_all(&0u32.to_le_bytes()).unwrap();
    s.flush().unwrap();
    match read_response(&mut s) {
        Response::Error {
            fault: WireFault::Malformed { detail },
        } => assert!(detail.contains("exceeds"), "{detail}"),
        other => panic!("expected Malformed, got {other:?}"),
    }
    drop(s);

    // A frame truncated by a dying peer: typed answer on the way out.
    let mut s = raw_conn(&path);
    s.write_all(&frame[..frame.len() / 2]).unwrap();
    s.shutdown(std::net::Shutdown::Write).unwrap();
    assert!(matches!(
        read_response(&mut s),
        Response::Error {
            fault: WireFault::Malformed { .. }
        }
    ));
    drop(s);

    // Bit-flip fuzz: every single-bit mutation of a valid frame earns a
    // typed Malformed answer (CRC catches payload flips; length flips end
    // as truncated or oversized), and the server survives them all.
    let mut good = Vec::new();
    write_frame(&mut good, &to_bytes(&Request::Metrics)).unwrap();
    for round in 0..48u64 {
        let bit = (mix(&[round, 0xf1u64]) % (good.len() as u64 * 8)) as usize;
        let mut bad = good.clone();
        bad[bit / 8] ^= 1 << (bit % 8);
        let mut s = raw_conn(&path);
        s.write_all(&bad).unwrap();
        let _ = s.shutdown(std::net::Shutdown::Write);
        match read_response(&mut s) {
            Response::Error {
                fault: WireFault::Malformed { .. },
            } => {}
            other => panic!("bit {bit}: expected Malformed, got {other:?}"),
        }
    }

    // After all of that the server still serves honest clients.
    let mut client = Client::connect(&path).unwrap();
    let spec = sweep_spec(3, Priority::Normal, false, 2);
    let id = client.submit(&spec).unwrap();
    let report = client.wait(id).unwrap();
    assert_eq!(report.state, SessionState::Finalized);
    client.shutdown().unwrap();
}

#[test]
fn cancel_over_the_socket_dequeues_a_queued_session() {
    // One runner jammed by a slow session keeps the next one Admitted
    // long enough to cancel it through the protocol.
    let daemon = Arc::new(Daemon::start(
        DaemonConfig {
            runners: 1,
            verify_cores: 2,
            queue_capacity: 16,
            ..DaemonConfig::default()
        },
        Arc::new(MemStore::new()),
    ));
    let (path, _handle) = start_server(&daemon, "cancel", ServerConfig::default());
    let mut client = Client::connect(&path).unwrap();
    let slow = SubmitSpec::new(
        "jam",
        GuestRef::AtomicCounter {
            workers: 2,
            iters: 20_000,
        },
        DoublePlayConfig::new(2).epoch_cycles(800),
    );
    let jam = client.submit(&slow).unwrap();
    let queued = client
        .submit(&sweep_spec(9, Priority::Low, false, 4))
        .unwrap();
    client
        .cancel(queued)
        .expect("queued session is cancellable");
    let report = client.status(queued).unwrap();
    assert_eq!(report.state, SessionState::Failed);
    assert_eq!(report.error.as_deref(), Some("cancelled by client"));
    let metrics = client.metrics().unwrap();
    assert_eq!(metrics.cancelled, 1);
    client.wait(jam).unwrap();
    client.shutdown().unwrap();
}

#[test]
fn resume_over_the_socket_continues_crashed_session_byte_identical() {
    // One runner so the resume stays queued while we probe status,
    // idempotency, and the attach stream across the crash boundary.
    let daemon = Arc::new(Daemon::start(
        DaemonConfig {
            runners: 1,
            ..DaemonConfig::default()
        },
        Arc::new(MemStore::new()),
    ));
    let (path, _handle) = start_server(&daemon, "resume", ServerConfig::default());
    let mut client = Client::connect(&path).unwrap();
    let base = SubmitSpec::new(
        "reborn",
        GuestRef::AtomicCounter {
            workers: 2,
            iters: 400,
        },
        DoublePlayConfig::new(2).epoch_cycles(800),
    );
    let session = base.to_session_spec().unwrap();
    let (solo, offsets) = solo_with_offsets(&session);
    assert!(offsets.len() >= 2);
    // The crash model: the sink tears mid-epoch-2 on attempt 0 only (the
    // bytes are gone, the device is fine), no restart budget.
    let mut spec = base;
    spec.restart_budget = 0;
    spec.transient_sink_faults = true;
    spec.sink_faults = {
        let mut f = dp_os::SinkFaults::none();
        f.torn_at = Some((offsets[0] + offsets[1]) / 2);
        f
    };
    let id = client.submit(&spec).unwrap();
    let crashed = client.wait(id).unwrap();
    assert_eq!(crashed.state, SessionState::Salvaged, "{:?}", crashed.error);
    assert_eq!(crashed.epochs, 1);

    // Jam the runner, then resume: the session re-queues as Resuming.
    let jam = client
        .submit(&SubmitSpec::new(
            "jam",
            GuestRef::AtomicCounter {
                workers: 2,
                iters: 20_000,
            },
            DoublePlayConfig::new(2).epoch_cycles(800),
        ))
        .unwrap();
    let from = client.resume(id).unwrap();
    assert_eq!(from, 1, "resume from the one committed epoch");
    let st = client.status(id).unwrap();
    assert_eq!(st.state, SessionState::Resuming { from_epoch: 1 });
    // A racing second client double-resumes: same answer, no re-admission.
    let mut second = Client::connect(&path).unwrap();
    assert_eq!(second.resume(id).unwrap(), 1);

    // Attach before the resumed attempt runs: the stream must carry the
    // salvaged prefix and the post-crash epochs as one seamless journal.
    let attach_path = path.clone();
    let attacher = std::thread::spawn(move || {
        let mut c = Client::connect(&attach_path).unwrap();
        let mut out = Vec::new();
        let outcome = c.attach(id, &mut out).unwrap();
        (outcome, out)
    });
    let (outcome, streamed) = attacher.join().unwrap();
    assert_eq!(outcome.state, SessionState::Finalized);
    assert!(outcome.clean);
    assert_eq!(
        streamed, solo,
        "attach across the crash boundary diverges from an uninterrupted run"
    );
    assert_eq!(daemon.store().durable(id, 0).unwrap(), solo);
    let m = client.metrics().unwrap();
    assert_eq!(m.resumed, 1, "double-resume must admit exactly once");
    assert_eq!(m.resume_failed, 0);
    client.wait(jam).unwrap();
    client.shutdown().unwrap();
}

#[test]
fn resume_refusals_and_idempotent_submit_over_the_socket() {
    let (_daemon, path) = start_default("resume-refuse");
    let mut client = Client::connect(&path).unwrap();
    match client.resume(SessionId(404)) {
        Err(ClientError::Fault(WireFault::UnknownSession { id })) => assert_eq!(id, SessionId(404)),
        other => panic!("expected UnknownSession, got {other:?}"),
    }
    // A finalized session refuses with the typed wrong-state detail.
    let spec = sweep_spec(21, Priority::Normal, false, 0);
    let id = client.submit(&spec).unwrap();
    assert_eq!(client.wait(id).unwrap().state, SessionState::Finalized);
    match client.resume(id) {
        Err(ClientError::Fault(WireFault::NotResumable { id: got, detail })) => {
            assert_eq!(got, id);
            assert!(detail.contains("only salvaged sessions resume"), "{detail}");
        }
        other => panic!("expected NotResumable, got {other:?}"),
    }
    // Idempotent re-submission: a reconnecting client re-issues Submit
    // with its token and gets the original id, not a duplicate session.
    let tok = sweep_spec(22, Priority::Normal, false, 1).idempotency("submit-tok-1");
    let first = client.submit(&tok).unwrap();
    let mut reconnected = Client::connect(&path).unwrap();
    let again = reconnected.submit(&tok).unwrap();
    assert_eq!(first, again, "token must dedupe across connections");
    let admitted = client.metrics().unwrap().admitted;
    assert_eq!(
        admitted, 2,
        "one for the finalized probe, one for the token"
    );
    client.wait(first).unwrap();
    client.shutdown().unwrap();
}

#[test]
fn handshake_mismatches_are_refused() {
    let (_daemon, path) = start_default("hello");
    // A client speaking the wrong magic is refused at handshake; the
    // server stays up.
    let mut s = UnixStream::connect(&path).unwrap();
    s.write_all(b"NOPE\x01\x00\x00\x00").unwrap();
    s.flush().unwrap();
    // Server read our bad hello and closed; our read sees its hello then
    // EOF, never a frame.
    let mut client = Client::connect(&path).unwrap();
    client.sessions().unwrap();
    client.shutdown().unwrap();
    // The socket file is gone once serve() returns.
    std::thread::sleep(std::time::Duration::from_millis(100));
    assert!(!sock_path("hello").exists());
}
