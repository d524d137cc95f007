//! The `dpnet` message vocabulary: requests, responses, and the typed
//! fault mirror — everything that crosses the socket, encoded with the
//! [`Wire`](dp_support::wire::Wire) codec inside CRC-framed frames.
//!
//! Two deliberate asymmetries with the in-process API:
//!
//! * Guests travel as [`GuestRef`] — a *name*, not a program. `Program`
//!   is not wire-encodable (recordings carry only its hash), so both ends
//!   resolve the same reference to the same [`GuestSpec`] locally, which
//!   keeps the byte-identity oracle honest: the client can run the solo
//!   reference itself.
//! * The `pipelined` flag rides in [`SubmitSpec`] explicitly, because
//!   [`DoublePlayConfig`]'s wire form excludes it by design (pipelined
//!   and serialized runs must stay byte-identical).

use crate::session::{Priority, SessionId, SessionReport, SessionState};
use crate::{DaemonMetrics, SessionSpec};
use dp_core::{DoublePlayConfig, GuestSpec};
use dp_os::SinkFaults;
use dp_support::wire::Bytes;
use std::fmt;

/// Wire form of [`dp_workloads::Size`] (a foreign type, so the codec
/// lives here).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SizeRef {
    /// Seconds-scale unit-test size.
    Small,
    /// Benchmark size.
    Medium,
    /// Stress size.
    Large,
}

dp_support::impl_wire_enum!(SizeRef { 0 => Small, 1 => Medium, 2 => Large });

impl SizeRef {
    /// The workload-harness size this names.
    pub fn to_size(self) -> dp_workloads::Size {
        match self {
            SizeRef::Small => dp_workloads::Size::Small,
            SizeRef::Medium => dp_workloads::Size::Medium,
            SizeRef::Large => dp_workloads::Size::Large,
        }
    }

    /// The wire form of a harness size.
    pub fn from_size(s: dp_workloads::Size) -> Self {
        match s {
            dp_workloads::Size::Small => SizeRef::Small,
            dp_workloads::Size::Medium => SizeRef::Medium,
            dp_workloads::Size::Large => SizeRef::Large,
        }
    }
}

/// A guest named by reference, resolved identically on both ends of the
/// socket (see the module docs for why programs never travel).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum GuestRef {
    /// A workload from [`dp_workloads::mixed_suite`], by name.
    Workload {
        /// The case name (`"pfscan"`, `"pbzip"`, ...).
        name: String,
        /// Worker-thread count the instance is built for.
        threads: u64,
        /// Input size.
        size: SizeRef,
    },
    /// The tiny synchronized counter from [`crate::guests`].
    AtomicCounter {
        /// Worker threads.
        workers: u64,
        /// Increments per worker.
        iters: i64,
    },
    /// The tiny racy counter from [`crate::guests`] (the divergence
    /// generator).
    RacyCounter {
        /// Worker threads.
        workers: u64,
        /// Increments per worker.
        iters: i64,
    },
}

dp_support::impl_wire_enum!(GuestRef {
    0 => Workload { name, threads, size },
    1 => AtomicCounter { workers, iters },
    2 => RacyCounter { workers, iters },
});

impl GuestRef {
    /// Resolves the reference to a bootable guest.
    ///
    /// # Errors
    ///
    /// [`WireFault::UnknownGuest`] when no workload matches.
    pub fn resolve(&self) -> Result<GuestSpec, WireFault> {
        match self {
            GuestRef::Workload {
                name,
                threads,
                size,
            } => dp_workloads::find(name, *threads as usize, size.to_size())
                .map(|case| case.spec)
                .ok_or_else(|| WireFault::UnknownGuest {
                    detail: format!("no workload {name:?} with {threads} threads"),
                }),
            GuestRef::AtomicCounter { workers, iters } => {
                Ok(crate::guests::atomic_counter(*workers as usize, *iters))
            }
            GuestRef::RacyCounter { workers, iters } => {
                Ok(crate::guests::racy_counter(*workers as usize, *iters))
            }
        }
    }
}

/// Everything a remote client submits to open a session — the wire twin
/// of [`SessionSpec`], with the guest by reference and `pipelined`
/// carried explicitly (see the module docs).
#[derive(Debug, Clone, PartialEq)]
pub struct SubmitSpec {
    /// Display name, embedded in the journal name.
    pub name: String,
    /// The guest to record, by reference.
    pub guest: GuestRef,
    /// Recorder configuration (validated at admission; its wire form
    /// excludes `pipelined`).
    pub config: DoublePlayConfig,
    /// Whether the run should use the pipelined driver.
    pub pipelined: bool,
    /// Admission lane.
    pub priority: Priority,
    /// Failed attempts are retried this many times (0 = one attempt).
    pub restart_budget: u32,
    /// Faults of the session's durable sink.
    pub sink_faults: SinkFaults,
    /// When true, sink faults apply to attempt 0 only.
    pub transient_sink_faults: bool,
    /// Journal streams (`< 2` = one stream).
    pub journal_shards: u32,
    /// Idempotency token (empty = none): a client that loses its
    /// connection mid-Submit re-issues the same spec with the same token
    /// and receives the already-admitted session's id instead of a
    /// duplicate admission.
    pub idempotency: String,
}

dp_support::impl_wire_struct!(SubmitSpec {
    name,
    guest,
    config,
    pipelined,
    priority,
    restart_budget,
    sink_faults,
    transient_sink_faults,
    journal_shards,
    // Appended last: wire structs are append-only for compatibility.
    idempotency,
});

impl SubmitSpec {
    /// A normal-priority spec with no sink faults and one retry,
    /// capturing `pipelined` out of `config`. The stored config carries
    /// `pipelined: false` — the explicit field is the single source of
    /// truth, so a decoded spec equals the one encoded.
    pub fn new(name: impl Into<String>, guest: GuestRef, mut config: DoublePlayConfig) -> Self {
        let pipelined = config.pipelined;
        config.pipelined = false;
        SubmitSpec {
            name: name.into(),
            guest,
            pipelined,
            config,
            priority: Priority::Normal,
            restart_budget: 1,
            sink_faults: SinkFaults::none(),
            transient_sink_faults: false,
            journal_shards: 0,
            idempotency: String::new(),
        }
    }

    /// Sets the idempotency token (builder style).
    #[must_use]
    pub fn idempotency(mut self, token: impl Into<String>) -> Self {
        self.idempotency = token.into();
        self
    }

    /// Resolves to the in-process [`SessionSpec`] the daemon runs — the
    /// same resolution a client performs for its solo byte-identity
    /// oracle.
    ///
    /// # Errors
    ///
    /// [`WireFault::UnknownGuest`] when the guest reference resolves to
    /// nothing.
    pub fn to_session_spec(&self) -> Result<SessionSpec, WireFault> {
        let guest = self.guest.resolve()?;
        let mut config = self.config;
        config.pipelined = self.pipelined;
        Ok(SessionSpec {
            name: self.name.clone(),
            guest,
            config,
            priority: self.priority,
            restart_budget: self.restart_budget,
            sink_faults: self.sink_faults,
            transient_sink_faults: self.transient_sink_faults,
            journal_shards: self.journal_shards,
            idempotency: self.idempotency.clone(),
        })
    }
}

/// A client request. Every request gets at least one response frame; the
/// `Attach` request gets a stream ([`Response::AttachStart`], zero or
/// more chunks, [`Response::AttachEnd`]).
#[derive(Debug, Clone, PartialEq)]
#[allow(clippy::large_enum_variant)] // one transient value per frame, never stored in bulk
pub enum Request {
    /// Open a session.
    Submit {
        /// What to record.
        spec: SubmitSpec,
    },
    /// One session's report.
    Status {
        /// Which session.
        id: SessionId,
    },
    /// Every session's report plus operator notes.
    Sessions,
    /// Cancel a queued session.
    Cancel {
        /// Which session.
        id: SessionId,
    },
    /// Stream a session's committed journal bytes, live, until it is
    /// terminal.
    Attach {
        /// Which session.
        id: SessionId,
    },
    /// Aggregate daemon counters.
    Metrics,
    /// Stop accepting connections and shut the server down.
    Shutdown,
    /// Crash-resume a salvaged session: its committed journal prefix
    /// stays in place and recording continues from the next epoch.
    Resume {
        /// Which session.
        id: SessionId,
    },
}

dp_support::impl_wire_enum!(Request {
    0 => Submit { spec },
    1 => Status { id },
    2 => Sessions,
    3 => Cancel { id },
    4 => Attach { id },
    5 => Metrics,
    6 => Shutdown,
    7 => Resume { id },
});

/// A server response. Errors are always the typed
/// [`Response::Error`] — a protocol-level failure never silently drops
/// the connection.
#[derive(Debug, Clone, PartialEq)]
pub enum Response {
    /// The submitted session's id.
    Admitted {
        /// The daemon-assigned id.
        id: SessionId,
    },
    /// One session's report.
    Report {
        /// The row snapshot.
        report: SessionReport,
    },
    /// Every session plus operator notes (boot re-adoption garbage).
    SessionList {
        /// Row snapshots, ordered by id.
        rows: Vec<SessionReport>,
        /// Operator-facing notes.
        notes: Vec<String>,
    },
    /// The cancel took effect.
    Cancelled {
        /// The cancelled session.
        id: SessionId,
    },
    /// The attach stream is starting.
    AttachStart {
        /// The session being streamed.
        id: SessionId,
    },
    /// One span of committed journal bytes, frame-aligned.
    AttachChunk {
        /// Byte offset of this span in the journal.
        offset: u64,
        /// The bytes.
        bytes: Bytes,
    },
    /// The attached session restarted its recording attempt and rewrote
    /// its journal from byte 0 (attempts rewrite in place): the client
    /// must discard everything received so far and resume from offset 0.
    AttachRestart,
    /// The attach stream is complete: the session is terminal and every
    /// committed byte has been sent.
    AttachEnd {
        /// The session's terminal state.
        state: SessionState,
        /// Epochs its journal commits.
        epochs: u32,
        /// True when the journal finalized cleanly.
        clean: bool,
    },
    /// Aggregate daemon counters.
    MetricsReport {
        /// The counters.
        metrics: DaemonMetrics,
    },
    /// The server acknowledges shutdown and will close.
    ShuttingDown,
    /// A typed failure (see [`WireFault`]).
    Error {
        /// What went wrong.
        fault: WireFault,
    },
    /// The crash-resume was accepted and the session re-queued.
    Resumed {
        /// The resumed session.
        id: SessionId,
        /// The epoch the resume continues from (= the committed prefix).
        from_epoch: u32,
    },
}

dp_support::impl_wire_enum!(Response {
    0 => Admitted { id },
    1 => Report { report },
    2 => SessionList { rows, notes },
    3 => Cancelled { id },
    4 => AttachStart { id },
    5 => AttachChunk { offset, bytes },
    6 => AttachEnd { state, epochs, clean },
    7 => MetricsReport { metrics },
    8 => ShuttingDown,
    9 => Error { fault },
    10 => AttachRestart,
    11 => Resumed { id, from_epoch },
});

/// The typed fault vocabulary: every in-process error
/// ([`AdmitError`](crate::AdmitError), [`SessionError`](crate::SessionError))
/// plus the socket-only failure modes, mirrored onto the wire so remote
/// clients get the same typed story as in-process callers.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WireFault {
    /// Admission queue full; mirror of [`crate::AdmitError::Rejected`].
    Rejected {
        /// Sessions queued at refusal time.
        queued: u64,
        /// The queue capacity.
        capacity: u64,
        /// Suggested back-off, milliseconds.
        retry_after_ms: u64,
    },
    /// The daemon is draining; mirror of [`crate::AdmitError::Draining`].
    Draining,
    /// The submitted configuration is degenerate; mirror of
    /// [`crate::AdmitError::Invalid`].
    InvalidConfig {
        /// The validation failure.
        detail: String,
    },
    /// No session with this id; mirror of
    /// [`crate::SessionError::UnknownSession`].
    UnknownSession {
        /// The id the caller named.
        id: SessionId,
    },
    /// The session is not in a cancellable state; mirror of
    /// [`crate::SessionError::NotCancellable`].
    NotCancellable {
        /// The session.
        id: SessionId,
        /// Its state at the time.
        state: SessionState,
    },
    /// The guest reference resolved to nothing.
    UnknownGuest {
        /// What failed to resolve.
        detail: String,
    },
    /// The session cannot be attached (sharded journals stream per shard
    /// and are salvaged offline instead).
    AttachUnsupported {
        /// Why.
        detail: String,
    },
    /// The peer sent bytes that do not decode (bad frame or bad
    /// payload).
    Malformed {
        /// The decode failure.
        detail: String,
    },
    /// The server is at its connection limit — typed backpressure, the
    /// accept-loop sibling of [`WireFault::Rejected`].
    Busy {
        /// Connections currently served.
        active: u64,
        /// The configured limit.
        limit: u64,
    },
    /// An unexpected server-side failure.
    Internal {
        /// What happened.
        detail: String,
    },
    /// The session cannot be crash-resumed; mirror of
    /// [`crate::SessionError::NotResumable`].
    NotResumable {
        /// The session.
        id: SessionId,
        /// Why (wrong state, budget spent, prefix does not salvage, ...).
        detail: String,
    },
}

dp_support::impl_wire_enum!(WireFault {
    0 => Rejected { queued, capacity, retry_after_ms },
    1 => Draining,
    2 => InvalidConfig { detail },
    3 => UnknownSession { id },
    4 => NotCancellable { id, state },
    5 => UnknownGuest { detail },
    6 => AttachUnsupported { detail },
    7 => Malformed { detail },
    8 => Busy { active, limit },
    9 => Internal { detail },
    10 => NotResumable { id, detail },
});

impl fmt::Display for WireFault {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WireFault::Rejected {
                queued,
                capacity,
                retry_after_ms,
            } => write!(
                f,
                "admission queue full ({queued}/{capacity}); retry in ~{retry_after_ms}ms"
            ),
            WireFault::Draining => write!(f, "daemon is draining; no new sessions"),
            WireFault::InvalidConfig { detail } => write!(f, "invalid config: {detail}"),
            WireFault::UnknownSession { id } => write!(f, "unknown session {id}"),
            WireFault::NotCancellable { id, state } => {
                write!(f, "session {id} is {state}, not cancellable")
            }
            WireFault::UnknownGuest { detail } => write!(f, "unknown guest: {detail}"),
            WireFault::AttachUnsupported { detail } => {
                write!(f, "attach unsupported: {detail}")
            }
            WireFault::Malformed { detail } => write!(f, "malformed request: {detail}"),
            WireFault::Busy { active, limit } => {
                write!(f, "server busy ({active}/{limit} connections)")
            }
            WireFault::Internal { detail } => write!(f, "internal error: {detail}"),
            WireFault::NotResumable { id, detail } => {
                write!(f, "session {id} is not resumable: {detail}")
            }
        }
    }
}

impl std::error::Error for WireFault {}

impl From<crate::AdmitError> for WireFault {
    fn from(e: crate::AdmitError) -> Self {
        match e {
            crate::AdmitError::Rejected {
                queued,
                capacity,
                retry_after,
            } => WireFault::Rejected {
                queued: queued as u64,
                capacity: capacity as u64,
                retry_after_ms: retry_after.as_millis() as u64,
            },
            crate::AdmitError::Draining => WireFault::Draining,
            crate::AdmitError::Invalid(e) => WireFault::InvalidConfig {
                detail: e.to_string(),
            },
        }
    }
}

impl From<crate::SessionError> for WireFault {
    fn from(e: crate::SessionError) -> Self {
        match e {
            crate::SessionError::UnknownSession(id) => WireFault::UnknownSession { id },
            crate::SessionError::NotCancellable { id, state } => {
                WireFault::NotCancellable { id, state }
            }
            crate::SessionError::NotResumable { id, detail } => {
                WireFault::NotResumable { id, detail }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dp_support::wire::{from_bytes, to_bytes};

    fn sample_spec() -> SubmitSpec {
        let mut s = SubmitSpec::new(
            "demo",
            GuestRef::Workload {
                name: "pfscan".into(),
                threads: 2,
                size: SizeRef::Small,
            },
            DoublePlayConfig::new(2)
                .epoch_cycles(900)
                .spare_workers(2)
                .pipelined(true),
        );
        s.priority = Priority::High;
        s.restart_budget = 3;
        s.journal_shards = 2;
        s
    }

    #[test]
    fn submit_spec_round_trips_with_pipelined() {
        let spec = sample_spec();
        assert!(spec.pipelined, "new() must capture config.pipelined");
        let back: SubmitSpec = from_bytes(&to_bytes(&spec)).unwrap();
        assert_eq!(back, spec);
        // The resolved session spec re-applies the flag the config codec
        // deliberately drops.
        let session = back.to_session_spec().unwrap();
        assert!(session.config.pipelined);
        assert_eq!(session.name, "demo");
        assert_eq!(session.priority, Priority::High);
        assert_eq!(session.journal_shards, 2);
    }

    #[test]
    fn guest_refs_resolve_or_fault() {
        let spec = GuestRef::AtomicCounter {
            workers: 2,
            iters: 50,
        }
        .resolve()
        .unwrap();
        assert_eq!(spec.name, "tiny-atomic-2x50");
        assert!(GuestRef::RacyCounter {
            workers: 2,
            iters: 50
        }
        .resolve()
        .is_ok());
        let missing = GuestRef::Workload {
            name: "no-such-workload".into(),
            threads: 2,
            size: SizeRef::Small,
        };
        assert!(matches!(
            missing.resolve(),
            Err(WireFault::UnknownGuest { .. })
        ));
    }

    #[test]
    fn requests_and_responses_round_trip() {
        let reqs = vec![
            Request::Submit {
                spec: sample_spec(),
            },
            Request::Status { id: SessionId(7) },
            Request::Sessions,
            Request::Cancel { id: SessionId(7) },
            Request::Attach { id: SessionId(7) },
            Request::Metrics,
            Request::Shutdown,
            Request::Resume { id: SessionId(7) },
        ];
        for r in reqs {
            let back: Request = from_bytes(&to_bytes(&r)).unwrap();
            assert_eq!(back, r);
        }
        let resps = vec![
            Response::Admitted { id: SessionId(1) },
            Response::AttachChunk {
                offset: 9,
                bytes: Bytes(vec![1, 2, 3]),
            },
            Response::AttachEnd {
                state: SessionState::Salvaged,
                epochs: 4,
                clean: false,
            },
            Response::ShuttingDown,
            Response::Resumed {
                id: SessionId(2),
                from_epoch: 3,
            },
            Response::Error {
                fault: WireFault::Busy {
                    active: 8,
                    limit: 8,
                },
            },
        ];
        for r in resps {
            let back: Response = from_bytes(&to_bytes(&r)).unwrap();
            assert_eq!(back, r);
        }
    }

    #[test]
    fn faults_mirror_in_process_errors() {
        let f: WireFault = crate::AdmitError::Rejected {
            queued: 3,
            capacity: 4,
            retry_after: std::time::Duration::from_millis(17),
        }
        .into();
        assert_eq!(
            f,
            WireFault::Rejected {
                queued: 3,
                capacity: 4,
                retry_after_ms: 17
            }
        );
        let f: WireFault = crate::SessionError::NotCancellable {
            id: SessionId(2),
            state: SessionState::Draining,
        }
        .into();
        assert!(matches!(f, WireFault::NotCancellable { .. }));
        // Every fault round-trips and displays.
        let all = vec![
            WireFault::Draining,
            WireFault::InvalidConfig { detail: "x".into() },
            WireFault::UnknownSession { id: SessionId(1) },
            WireFault::UnknownGuest { detail: "y".into() },
            WireFault::AttachUnsupported { detail: "z".into() },
            WireFault::Malformed { detail: "m".into() },
            WireFault::Internal { detail: "i".into() },
            WireFault::NotResumable {
                id: SessionId(4),
                detail: "r".into(),
            },
        ];
        for f in all {
            let back: WireFault = from_bytes(&to_bytes(&f)).unwrap();
            assert_eq!(back, f);
            assert!(!f.to_string().is_empty());
        }
    }

    #[test]
    fn truncated_messages_are_typed_errors() {
        let bytes = to_bytes(&Request::Submit {
            spec: sample_spec(),
        });
        for cut in 0..bytes.len() {
            assert!(from_bytes::<Request>(&bytes[..cut]).is_err(), "cut {cut}");
        }
    }
}
