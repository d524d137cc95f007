//! The socket server: a unix-domain accept loop in front of a
//! [`Daemon`], one thread per connection, bounded by a connection limit
//! with *typed* backpressure (an over-limit client gets a
//! [`WireFault::Busy`] frame, never a silent hang-up).
//!
//! The server owns no session state — it translates frames to daemon
//! calls and faults to [`Response::Error`]. Live attach streams poll the
//! daemon's store and forward exactly the committed journal prefix,
//! frame-aligned, so a client severed mid-stream holds a salvageable
//! journal prefix by construction.

use super::frame::{expect_hello, read_frame, send_hello, write_frame, FrameError};
use super::msg::{Request, Response, WireFault};
use crate::daemon::Daemon;
use crate::session::{SessionId, SessionState};
use crate::store::SessionStore;
use dp_core::JournalReader;
use dp_support::wire::{from_bytes, to_bytes, Bytes};
use std::io;
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// Attach chunks are split at this size so one frame never balloons.
const ATTACH_CHUNK: usize = 64 * 1024;

/// Accept-loop and connection tuning.
#[derive(Debug, Clone, Copy)]
pub struct ServerConfig {
    /// Concurrent connections served; the accept loop answers the
    /// (limit+1)-th client with [`WireFault::Busy`] and closes it.
    pub max_connections: usize,
    /// Poll interval for the accept loop, idle connections, and attach
    /// streams.
    pub poll: Duration,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            max_connections: 8,
            poll: Duration::from_millis(2),
        }
    }
}

/// Serves `daemon` on a unix-domain socket at `path` until a client
/// sends [`Request::Shutdown`]. A stale socket file at `path` is
/// replaced. Returns once every connection thread has exited; draining
/// and shutting down the daemon itself stays the caller's job (the
/// server only borrows it).
///
/// # Errors
///
/// Socket bind/accept failures. Per-connection errors never surface
/// here — they end that connection only.
pub fn serve<S: SessionStore + 'static>(
    daemon: &Arc<Daemon<S>>,
    path: &Path,
    cfg: ServerConfig,
) -> io::Result<()> {
    let _ = std::fs::remove_file(path);
    let listener = UnixListener::bind(path)?;
    listener.set_nonblocking(true)?;
    let shutdown = Arc::new(AtomicBool::new(false));
    let active = Arc::new(AtomicUsize::new(0));
    let mut handles = Vec::new();
    while !shutdown.load(Ordering::SeqCst) {
        match listener.accept() {
            Ok((stream, _)) => {
                let now = active.load(Ordering::SeqCst);
                if now >= cfg.max_connections {
                    reject_busy(stream, now, cfg.max_connections);
                    continue;
                }
                active.fetch_add(1, Ordering::SeqCst);
                let daemon = daemon.clone();
                let shutdown = shutdown.clone();
                let active = active.clone();
                handles.push(std::thread::spawn(move || {
                    let _ = handle_conn(&daemon, stream, &shutdown, cfg.poll);
                    active.fetch_sub(1, Ordering::SeqCst);
                }));
            }
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => std::thread::sleep(cfg.poll),
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(e) => return Err(e),
        }
    }
    for h in handles {
        let _ = h.join();
    }
    let _ = std::fs::remove_file(path);
    Ok(())
}

/// Typed backpressure for the over-limit client: greet, explain, close.
fn reject_busy(mut stream: UnixStream, active: usize, limit: usize) {
    let _ = stream.set_nonblocking(false);
    let _ = send_hello(&mut stream);
    let _ = send(
        &mut stream,
        &Response::Error {
            fault: WireFault::Busy {
                active: active as u64,
                limit: limit as u64,
            },
        },
    );
}

fn send(stream: &mut UnixStream, resp: &Response) -> Result<(), FrameError> {
    write_frame(stream, &to_bytes(resp)).map_err(FrameError::Io)
}

/// One connection's request loop. Returns when the peer closes, the
/// stream desyncs, or the server shuts down; a decodable-but-invalid
/// request is answered typed and the loop continues.
fn handle_conn<S: SessionStore + 'static>(
    daemon: &Arc<Daemon<S>>,
    mut stream: UnixStream,
    shutdown: &AtomicBool,
    poll: Duration,
) -> Result<(), FrameError> {
    stream.set_nonblocking(false).map_err(FrameError::Io)?;
    // Reads time out so an idle connection notices server shutdown.
    stream
        .set_read_timeout(Some(poll.max(Duration::from_millis(1)) * 16))
        .map_err(FrameError::Io)?;
    send_hello(&mut stream).map_err(FrameError::Io)?;
    expect_hello(&mut stream)?;
    let mut buf = Vec::new();
    loop {
        if shutdown.load(Ordering::SeqCst) {
            return Ok(());
        }
        match read_frame(&mut stream, &mut buf) {
            Ok(()) => {}
            Err(FrameError::Closed) => return Ok(()),
            Err(FrameError::Idle) => continue,
            Err(
                e @ (FrameError::Oversized { .. }
                | FrameError::Corrupt { .. }
                | FrameError::Truncated { .. }),
            ) => {
                // The stream is desynchronized: answer typed, then close —
                // there is no safe way to find the next frame boundary.
                let _ = send(
                    &mut stream,
                    &Response::Error {
                        fault: WireFault::Malformed {
                            detail: e.to_string(),
                        },
                    },
                );
                return Err(e);
            }
            Err(e) => return Err(e),
        }
        let req = match from_bytes::<Request>(&buf) {
            Ok(r) => r,
            Err(e) => {
                // The frame was intact (CRC passed), so the framing layer
                // still delimits messages — answer typed and keep serving.
                send(
                    &mut stream,
                    &Response::Error {
                        fault: WireFault::Malformed {
                            detail: format!("undecodable request: {e}"),
                        },
                    },
                )?;
                continue;
            }
        };
        match req {
            Request::Submit { spec } => {
                let resp = match spec.to_session_spec() {
                    Ok(s) => match daemon.submit(s) {
                        Ok(id) => Response::Admitted { id },
                        Err(e) => Response::Error { fault: e.into() },
                    },
                    Err(fault) => Response::Error { fault },
                };
                send(&mut stream, &resp)?;
            }
            Request::Status { id } => {
                let resp = match daemon.report(id) {
                    Some(report) => Response::Report { report },
                    None => Response::Error {
                        fault: WireFault::UnknownSession { id },
                    },
                };
                send(&mut stream, &resp)?;
            }
            Request::Sessions => {
                let resp = Response::SessionList {
                    rows: daemon.sessions(),
                    notes: daemon.orphan_notes(),
                };
                send(&mut stream, &resp)?;
            }
            Request::Cancel { id } => {
                let resp = match daemon.cancel(id) {
                    Ok(()) => Response::Cancelled { id },
                    Err(e) => Response::Error { fault: e.into() },
                };
                send(&mut stream, &resp)?;
            }
            Request::Attach { id } => {
                stream_attach(daemon, &mut stream, id, shutdown, poll)?;
            }
            Request::Metrics => {
                send(
                    &mut stream,
                    &Response::MetricsReport {
                        metrics: daemon.metrics(),
                    },
                )?;
            }
            Request::Shutdown => {
                let _ = send(&mut stream, &Response::ShuttingDown);
                shutdown.store(true, Ordering::SeqCst);
                return Ok(());
            }
            Request::Resume { id } => {
                let resp = match daemon.resume(id) {
                    Ok(from_epoch) => Response::Resumed { id, from_epoch },
                    Err(e) => Response::Error { fault: e.into() },
                };
                send(&mut stream, &resp)?;
            }
        }
    }
}

/// The live attach stream: polls the session's durable journal and
/// forwards its committed (salvageable) prefix as it grows, ending with
/// [`Response::AttachEnd`] once the session is terminal and fully
/// streamed. Chunks are cut at salvage boundaries, so the client's
/// received prefix is always a valid journal prefix — even if the
/// daemon dies mid-stream.
fn stream_attach<S: SessionStore + 'static>(
    daemon: &Arc<Daemon<S>>,
    stream: &mut UnixStream,
    id: SessionId,
    shutdown: &AtomicBool,
    poll: Duration,
) -> Result<(), FrameError> {
    let Some(report) = daemon.report(id) else {
        return send(
            stream,
            &Response::Error {
                fault: WireFault::UnknownSession { id },
            },
        );
    };
    if report.journal_shards >= 2 {
        return send(
            stream,
            &Response::Error {
                fault: WireFault::AttachUnsupported {
                    detail: format!(
                        "session {id} records {} shard streams; salvage them offline",
                        report.journal_shards
                    ),
                },
            },
        );
    }
    send(stream, &Response::AttachStart { id })?;
    let store = daemon.store();
    let mut offset = 0u64;
    let mut seen_attempts: Option<u32> = None;
    loop {
        // Report first, bytes second: if the report is terminal, the
        // bytes read after it are complete.
        let report = daemon.report(id).expect("rows are never removed");
        let bytes = store.durable(id, 0).unwrap_or_default();
        let salv = JournalReader::salvage(&bytes).ok();
        let avail = salv.as_ref().map_or(0, |s| s.salvaged_bytes as u64);
        // A retry rewrites the journal in place: everything streamed so
        // far belongs to a dead attempt. Tell the client to start over.
        // A crash-resume also bumps the attempt counter, but *appends*
        // past the committed prefix instead of rewriting — the streamed
        // bytes stay valid, so the stream continues seamlessly across
        // the crash boundary (no restart unless bytes actually shrank).
        let resuming = matches!(report.state, SessionState::Resuming { .. });
        if avail < offset || (seen_attempts != Some(report.attempts) && !resuming) {
            if offset > 0 {
                send(stream, &Response::AttachRestart)?;
                offset = 0;
            }
            seen_attempts = Some(report.attempts);
        } else if resuming {
            seen_attempts = Some(report.attempts);
        }
        while offset < avail {
            let end = avail.min(offset + ATTACH_CHUNK as u64);
            send(
                stream,
                &Response::AttachChunk {
                    offset,
                    bytes: Bytes(bytes[offset as usize..end as usize].to_vec()),
                },
            )?;
            offset = end;
        }
        if report.state.is_terminal() {
            return send(
                stream,
                &Response::AttachEnd {
                    state: report.state,
                    epochs: report.epochs,
                    clean: salv.as_ref().is_some_and(|s| s.clean),
                },
            );
        }
        if shutdown.load(Ordering::SeqCst) {
            // Server dying mid-stream: the client keeps its prefix.
            return Ok(());
        }
        std::thread::sleep(poll);
    }
}
