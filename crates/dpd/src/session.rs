//! Sessions as data: identity, priority, state machine, spec, report.
//!
//! The identity/state/report types carry [`Wire`](dp_support::wire::Wire)
//! impls so the `dpnet` socket protocol can ship them verbatim — the
//! socket path and the in-process path expose the *same* rows, and the
//! shared [`sessions_json`] formatter renders both identically.

use dp_core::{DoublePlayConfig, GuestSpec};
use dp_os::SinkFaults;
use std::fmt;

/// Daemon-assigned session identity, unique for the daemon's lifetime and
/// embedded in the session's journal name so post-crash salvage can pair
/// journals with sessions.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct SessionId(pub u64);

impl fmt::Display for SessionId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "s{:04}", self.0)
    }
}

/// Admission lane. Within a lane the queue is FIFO; across lanes, higher
/// priority is always scanned first.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Priority {
    /// Claimed first; waits for verify cores rather than degrade (unless
    /// the whole daemon would otherwise stall).
    High,
    /// The default lane.
    #[default]
    Normal,
    /// Claimed last; degrades to serialized recording immediately when the
    /// verify-core pool is exhausted, instead of waiting or being refused.
    Low,
}

impl Priority {
    /// Lane index (0 = highest priority).
    pub(crate) fn lane(self) -> usize {
        match self {
            Priority::High => 0,
            Priority::Normal => 1,
            Priority::Low => 2,
        }
    }
}

impl fmt::Display for Priority {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Priority::High => write!(f, "high"),
            Priority::Normal => write!(f, "normal"),
            Priority::Low => write!(f, "low"),
        }
    }
}

/// The per-session state machine:
///
/// ```text
/// Admitted → Recording → Draining → Finalized   (clean journal)
///     ↑          │            └───→ Salvaged    (committed prefix only)
///     └──retry───┘            └───→ Failed      (nothing salvageable)
/// ```
///
/// A failed attempt with remaining restart budget loops back to
/// `Admitted` (the session re-queues on its lane with a fresh journal);
/// past the budget the attempt's durable bytes decide between `Salvaged`
/// and `Failed`.
///
/// `Salvaged` has one non-terminal exit: a crash-resume request moves the
/// row to `Resuming`, which re-queues it and — on success — continues the
/// journal from its committed prefix to `Finalized`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SessionState {
    /// In the admission queue, waiting for a runner (and, for pipelined
    /// sessions, a verify-core lease).
    Admitted,
    /// A runner is executing this attempt (0-based).
    Recording {
        /// The attempt number being executed.
        attempt: u32,
    },
    /// The run finished; the daemon is classifying the durable journal.
    Draining,
    /// The journal is durable and clean (FINAL marker): nothing was lost.
    Finalized,
    /// The durable journal salvages to a committed epoch prefix, but the
    /// run did not finalize cleanly (sink fault past the retry budget, or
    /// durability lost to a crash).
    Salvaged,
    /// Nothing was salvageable (the journal header never became durable).
    Failed,
    /// A crash-resume is queued or running: the salvaged committed prefix
    /// (epochs `0..from_epoch`) stays in place and recording continues
    /// from `from_epoch`, byte-identical to an uninterrupted run.
    Resuming {
        /// First epoch the resumed attempt will append (= epochs salvaged).
        from_epoch: u32,
    },
}

impl SessionState {
    /// True for the three terminal states.
    pub fn is_terminal(self) -> bool {
        matches!(
            self,
            SessionState::Finalized | SessionState::Salvaged | SessionState::Failed
        )
    }
}

impl fmt::Display for SessionState {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SessionState::Admitted => write!(f, "admitted"),
            SessionState::Recording { attempt } => write!(f, "recording#{attempt}"),
            SessionState::Draining => write!(f, "draining"),
            SessionState::Finalized => write!(f, "finalized"),
            SessionState::Salvaged => write!(f, "salvaged"),
            SessionState::Failed => write!(f, "failed"),
            SessionState::Resuming { from_epoch } => write!(f, "resuming@{from_epoch}"),
        }
    }
}

/// Everything a client submits to open a recording session.
///
/// The guest-perturbing fault plan rides inside `config.faults` exactly as
/// it does for a solo [`dp_core::record_to`] run — the daemon executes the
/// submitted configuration verbatim, so a solo re-run of the same spec is
/// byte-identical to the session's journal (the isolation oracle). Clients
/// decorrelate per-session plans with [`dp_core::FaultPlan::for_session`].
/// Sink faults are separate: they model *this session's* durable path
/// dying, so they wrap the sink inside the daemon, outside the recorded
/// world.
#[derive(Debug, Clone)]
pub struct SessionSpec {
    /// Display name, embedded in the journal name.
    pub name: String,
    /// The guest to record.
    pub guest: GuestSpec,
    /// Recorder configuration (validated at admission).
    pub config: DoublePlayConfig,
    /// Admission lane.
    pub priority: Priority,
    /// Failed attempts are retried this many times (0 = one attempt).
    pub restart_budget: u32,
    /// Faults of this session's durable sink (default: none).
    pub sink_faults: SinkFaults,
    /// When true, `sink_faults` apply to attempt 0 only — modelling a
    /// transient durable-path outage that a retry recovers from. When
    /// false, every attempt hits the same faults (a dead disk).
    pub transient_sink_faults: bool,
    /// Journal streams. `0` or `1` records one stream; `N >= 2` splits
    /// the journal into `N` group-committed streams, which salvage to the
    /// longest prefix committed across all of them.
    pub journal_shards: u32,
    /// Client-chosen idempotency token (empty = none). Submitting twice
    /// with the same non-empty token admits exactly one session: the
    /// second submission is answered with the first one's id, so a client
    /// that lost its connection mid-`Submit` can re-issue without
    /// double-admitting.
    pub idempotency: String,
}

impl SessionSpec {
    /// A normal-priority session with no sink faults and one retry.
    pub fn new(name: impl Into<String>, guest: GuestSpec, config: DoublePlayConfig) -> Self {
        SessionSpec {
            name: name.into(),
            guest,
            config,
            priority: Priority::Normal,
            restart_budget: 1,
            sink_faults: SinkFaults::none(),
            transient_sink_faults: false,
            journal_shards: 0,
            idempotency: String::new(),
        }
    }

    /// Sets the admission lane.
    pub fn priority(mut self, p: Priority) -> Self {
        self.priority = p;
        self
    }

    /// Sets the restart budget (retries after a failed attempt).
    pub fn restart_budget(mut self, n: u32) -> Self {
        self.restart_budget = n;
        self
    }

    /// Sets this session's durable-sink fault plan.
    pub fn sink_faults(mut self, faults: SinkFaults) -> Self {
        self.sink_faults = faults;
        self
    }

    /// Marks the sink faults transient (attempt 0 only).
    pub fn transient_sink_faults(mut self, transient: bool) -> Self {
        self.transient_sink_faults = transient;
        self
    }

    /// Records into `n` journal streams (`< 2` = one stream).
    pub fn journal_shards(mut self, n: u32) -> Self {
        self.journal_shards = n;
        self
    }

    /// Sets the idempotency token (duplicate submissions with the same
    /// token are answered with the original session's id).
    pub fn idempotency(mut self, token: impl Into<String>) -> Self {
        self.idempotency = token.into();
        self
    }
}

/// A typed per-session operation error — the session-level counterpart of
/// [`AdmitError`](crate::AdmitError), mirrored verbatim onto the wire by
/// the `dpnet` protocol so a remote client sees exactly what an
/// in-process caller would.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SessionError {
    /// No session with this id exists in the registry.
    UnknownSession(SessionId),
    /// The session is not in a cancellable state: only queued
    /// ([`SessionState::Admitted`]) sessions can be cancelled — a running
    /// attempt is never killed mid-journal, and terminal rows are history.
    NotCancellable {
        /// The session the caller tried to cancel.
        id: SessionId,
        /// Its state at the time of the attempt.
        state: SessionState,
    },
    /// The session cannot be crash-resumed: it is not
    /// [`SessionState::Salvaged`], its guest cannot be reconstructed, its
    /// salvaged prefix does not parse, the store cannot reopen its
    /// journal for append, or the daemon's per-boot resume budget is
    /// spent.
    NotResumable {
        /// The session the caller tried to resume.
        id: SessionId,
        /// Why the resume was refused.
        detail: String,
    },
}

impl fmt::Display for SessionError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SessionError::UnknownSession(id) => write!(f, "unknown session {id}"),
            SessionError::NotCancellable { id, state } => {
                write!(f, "session {id} is {state}, not cancellable")
            }
            SessionError::NotResumable { id, detail } => {
                write!(f, "session {id} is not resumable: {detail}")
            }
        }
    }
}

impl std::error::Error for SessionError {}

/// A snapshot of one session's registry row.
#[derive(Debug, Clone, PartialEq)]
pub struct SessionReport {
    /// Daemon-assigned identity.
    pub id: SessionId,
    /// Submitted display name.
    pub name: String,
    /// Admission lane.
    pub priority: Priority,
    /// Current state.
    pub state: SessionState,
    /// Attempts started so far (1 = no retries yet).
    pub attempts: u32,
    /// Epochs committed to the journal by the most recent attempt.
    pub epochs: u32,
    /// True when at least one attempt ran serialized because the
    /// verify-core pool was oversubscribed (backpressure by degradation).
    pub degraded: bool,
    /// Queue wait from submission to the first runner claim, in
    /// nanoseconds (the admission-latency metric).
    pub admission_wait_ns: u64,
    /// Journal streams the session records (`0` or `1` = one stream) —
    /// the attach path needs this to know which store streams back the
    /// session.
    pub journal_shards: u32,
    /// The most recent attempt's error, if any.
    pub error: Option<String>,
}

dp_support::impl_wire_newtype!(SessionId);
dp_support::impl_wire_enum!(Priority { 0 => High, 1 => Normal, 2 => Low });
dp_support::impl_wire_enum!(SessionState {
    0 => Admitted,
    1 => Recording { attempt },
    2 => Draining,
    3 => Finalized,
    4 => Salvaged,
    5 => Failed,
    6 => Resuming { from_epoch },
});
dp_support::impl_wire_struct!(SessionReport {
    id,
    name,
    priority,
    state,
    attempts,
    epochs,
    degraded,
    admission_wait_ns,
    journal_shards,
    error,
});

/// Appends `s` to `out` with JSON string escaping (quotes, backslashes,
/// and control characters).
fn json_escape(out: &mut String, s: &str) {
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                out.push_str(&format!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
}

impl SessionReport {
    /// This row as one JSON object — the machine-readable form behind
    /// `dp sessions --json`, shared by the in-process and socket paths so
    /// tooling never screen-scrapes the human table.
    pub fn to_json(&self) -> String {
        let mut s = String::new();
        s.push_str(&format!(
            "{{\"id\":{},\"label\":\"{}\",\"name\":\"",
            self.id.0, self.id
        ));
        json_escape(&mut s, &self.name);
        s.push_str(&format!(
            "\",\"priority\":\"{}\",\"state\":\"{}\",\"attempts\":{},\
             \"epochs\":{},\"degraded\":{},\"admission_wait_ns\":{},\
             \"journal_shards\":{},\"error\":",
            self.priority,
            self.state,
            self.attempts,
            self.epochs,
            self.degraded,
            self.admission_wait_ns,
            self.journal_shards,
        ));
        match &self.error {
            Some(e) => {
                s.push('"');
                json_escape(&mut s, e);
                s.push('"');
            }
            None => s.push_str("null"),
        }
        s.push('}');
        s
    }
}

/// A full session listing as one JSON document:
/// `{"sessions":[...],"notes":[...]}`. `notes` carries operator-facing
/// strings that are not session rows — garbage files found during boot
/// re-adoption, for example.
pub fn sessions_json(rows: &[SessionReport], notes: &[String]) -> String {
    let mut s = String::from("{\"sessions\":[");
    for (i, r) in rows.iter().enumerate() {
        if i > 0 {
            s.push(',');
        }
        s.push_str(&r.to_json());
    }
    s.push_str("],\"notes\":[");
    for (i, n) in notes.iter().enumerate() {
        if i > 0 {
            s.push(',');
        }
        s.push('"');
        json_escape(&mut s, n);
        s.push('"');
    }
    s.push_str("]}");
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn terminal_states() {
        assert!(SessionState::Finalized.is_terminal());
        assert!(SessionState::Salvaged.is_terminal());
        assert!(SessionState::Failed.is_terminal());
        assert!(!SessionState::Admitted.is_terminal());
        assert!(!SessionState::Recording { attempt: 2 }.is_terminal());
        assert!(!SessionState::Draining.is_terminal());
        assert!(!SessionState::Resuming { from_epoch: 4 }.is_terminal());
        assert_eq!(
            SessionState::Recording { attempt: 2 }.to_string(),
            "recording#2"
        );
        assert_eq!(
            SessionState::Resuming { from_epoch: 4 }.to_string(),
            "resuming@4"
        );
    }

    #[test]
    fn lanes_are_ordered() {
        assert!(Priority::High.lane() < Priority::Normal.lane());
        assert!(Priority::Normal.lane() < Priority::Low.lane());
        assert_eq!(Priority::default(), Priority::Normal);
    }

    #[test]
    fn spec_builder_chains() {
        let spec = SessionSpec::new(
            "x",
            crate::guests::atomic_counter(2, 8),
            DoublePlayConfig::new(2),
        )
        .priority(Priority::Low)
        .restart_budget(3)
        .transient_sink_faults(true);
        assert_eq!(spec.priority, Priority::Low);
        assert_eq!(spec.restart_budget, 3);
        assert!(spec.transient_sink_faults);
        assert_eq!(SessionId(7).to_string(), "s0007");
    }

    #[test]
    fn report_round_trips_on_the_wire() {
        use dp_support::wire::{from_bytes, to_bytes};
        let r = SessionReport {
            id: SessionId(42),
            name: "we\"ird\nname".into(),
            priority: Priority::High,
            state: SessionState::Recording { attempt: 3 },
            attempts: 4,
            epochs: 17,
            degraded: true,
            admission_wait_ns: 12_345,
            journal_shards: 3,
            error: Some("torn write".into()),
        };
        let bytes = to_bytes(&r);
        let back: SessionReport = from_bytes(&bytes).unwrap();
        assert_eq!(back.id, r.id);
        assert_eq!(back.name, r.name);
        assert_eq!(back.priority, r.priority);
        assert_eq!(back.state, r.state);
        assert_eq!(back.attempts, r.attempts);
        assert_eq!(back.epochs, r.epochs);
        assert_eq!(back.degraded, r.degraded);
        assert_eq!(back.admission_wait_ns, r.admission_wait_ns);
        assert_eq!(back.journal_shards, r.journal_shards);
        assert_eq!(back.error, r.error);
        // Truncation at every prefix is a typed error, never a panic.
        for cut in 0..bytes.len() {
            assert!(from_bytes::<SessionReport>(&bytes[..cut]).is_err());
        }
    }

    #[test]
    fn sessions_json_escapes_and_lists() {
        let r = SessionReport {
            id: SessionId(7),
            name: "quo\"te".into(),
            priority: Priority::Normal,
            state: SessionState::Finalized,
            attempts: 1,
            epochs: 5,
            degraded: false,
            admission_wait_ns: 0,
            journal_shards: 0,
            error: None,
        };
        let doc = sessions_json(&[r], &["garbage: x.tmp".to_string()]);
        assert!(doc.starts_with("{\"sessions\":["));
        assert!(doc.contains("\"label\":\"s0007\""));
        assert!(doc.contains("\"name\":\"quo\\\"te\""));
        assert!(doc.contains("\"state\":\"finalized\""));
        assert!(doc.contains("\"error\":null"));
        assert!(doc.contains("\"notes\":[\"garbage: x.tmp\"]"));
        assert_eq!(sessions_json(&[], &[]), "{\"sessions\":[],\"notes\":[]}");
    }

    #[test]
    fn session_error_displays() {
        assert_eq!(
            SessionError::UnknownSession(SessionId(9)).to_string(),
            "unknown session s0009"
        );
        assert_eq!(
            SessionError::NotCancellable {
                id: SessionId(2),
                state: SessionState::Finalized,
            }
            .to_string(),
            "session s0002 is finalized, not cancellable"
        );
        assert_eq!(
            SessionError::NotResumable {
                id: SessionId(3),
                detail: "resume budget exhausted".into(),
            }
            .to_string(),
            "session s0003 is not resumable: resume budget exhausted"
        );
    }
}
