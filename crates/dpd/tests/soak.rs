//! The mixed record + fault + salvage soak: hundreds of concurrent
//! sessions with per-session fault injection, a deliberately small
//! admission queue, and three invariants checked for every session:
//!
//! 1. **Zero cross-session interference** — every unaffected session's
//!    journal is byte-identical to a solo run of the same spec.
//! 2. **Containment** — faulted sessions finalize after retry (transient
//!    sink faults, survivable record faults) or salvage to exactly their
//!    committed epoch prefix (permanent sink faults, fatal record faults).
//! 3. **Typed backpressure** — oversubscription sheds with
//!    `AdmitError::Rejected`, never a panic or a hang; polite clients
//!    using the `retry_after` hint still land every session.

use dp_core::{record_to, DoublePlayConfig, FaultPlan, JournalReader, JournalWriter};
use dp_dpd::{
    guests, Daemon, DaemonConfig, MemStore, Priority, SessionSpec, SessionState, SessionStore,
};
use dp_os::SinkFaults;
use dp_support::rng::mix;
use std::sync::Arc;

const SESSIONS: usize = 210;
const CLASSES: usize = 6;

/// Fault class for global session number `i`.
fn class_of(i: usize) -> usize {
    i % CLASSES
}

/// Per-epoch commit byte offsets of a solo run (sink faults are outside
/// the recorded world, so this is the oracle for every class).
fn solo_offsets(spec: &SessionSpec) -> (Vec<u8>, Vec<u64>) {
    use dp_core::{CheckpointImage, EpochRecord, RecordSink, RecordingMeta};
    struct Tap {
        w: JournalWriter<Vec<u8>>,
        offsets: Vec<u64>,
    }
    impl RecordSink for Tap {
        fn begin(&mut self, meta: &RecordingMeta, init: &CheckpointImage) -> std::io::Result<()> {
            self.w.begin(meta, init)
        }
        fn epoch(&mut self, e: &EpochRecord) -> std::io::Result<()> {
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

/// The spec for session `i`. Classes:
/// 0 clean, 1 io faults (survivable short reads), 2 divergence storms,
/// 3 fatal worker panics, 4 transient sink fault (torn write on attempt 0
/// only), 5 permanent sink fault (torn write every attempt, no budget).
fn spec_for(i: usize) -> SessionSpec {
    let racy = i % 2 == 1;
    let iters = 300 + (i % 5) as i64 * 60;
    let guest = if racy {
        guests::racy_counter(2, iters)
    } else {
        guests::atomic_counter(2, iters)
    };
    let mut config = DoublePlayConfig::new(2)
        .epoch_cycles(700 + 100 * (i % 4) as u64)
        .hidden_seed(mix(&[i as u64, 0x50a6]));
    if !racy {
        config = config.spare_workers(2).pipelined(true);
    }
    let template = match class_of(i) {
        1 => FaultPlan::none().seed(7).io(0.0, 0.01, 0.0),
        2 => FaultPlan::none().seed(7).storms(0.03, 3, 16),
        3 => FaultPlan::none().seed(7).worker_panics_with(1.0),
        _ => FaultPlan::none(),
    };
    if template.is_active() {
        config = config.faults(template.for_session(i as u64));
    }
    let mut spec = SessionSpec::new(format!("soak-{i}"), guest, config)
        .priority(match i % 3 {
            0 => Priority::High,
            1 => Priority::Normal,
            _ => Priority::Low,
        })
        .restart_budget(2);
    match class_of(i) {
        4 | 5 => {
            // Tear the sink between the first and last epoch commits so
            // the faulted attempt always loses a suffix.
            let (solo, offsets) = solo_offsets(&spec);
            assert!(offsets.len() >= 2, "session {i} too small to tear");
            let torn = (offsets[0] + offsets[offsets.len() - 1]) / 2;
            assert!(torn < solo.len() as u64);
            spec = spec
                .sink_faults(SinkFaults {
                    torn_at: Some(torn),
                    ..SinkFaults::none()
                })
                .transient_sink_faults(class_of(i) == 4);
            if class_of(i) == 5 {
                spec = spec.restart_budget(0);
            }
            spec
        }
        _ => spec,
    }
}

#[test]
fn soak_mixed_faults_isolation_and_backpressure() {
    dp_core::faults::silence_injected_panics();
    let specs: Vec<SessionSpec> = (0..SESSIONS).map(spec_for).collect();
    let store = Arc::new(MemStore::new());
    // Queue far smaller than the offered load: rejections are expected
    // and must be typed, not panics or hangs.
    let daemon = Arc::new(Daemon::start(
        DaemonConfig {
            runners: 3,
            verify_cores: 4,
            queue_capacity: 4,
            ..DaemonConfig::default()
        },
        store.clone(),
    ));

    let ids = std::thread::scope(|scope| {
        let mut handles = Vec::new();
        for client in 0..4usize {
            let daemon = daemon.clone();
            let specs = &specs;
            handles.push(scope.spawn(move || {
                let mut ids = Vec::new();
                let mut i = client;
                while i < SESSIONS {
                    let id = daemon
                        .submit_retrying(specs[i].clone(), 10_000)
                        .expect("polite client must eventually land every session");
                    ids.push((i, id));
                    i += 4;
                }
                ids
            }));
        }
        let mut all = Vec::new();
        for h in handles {
            all.extend(h.join().expect("client thread"));
        }
        all
    });
    daemon.drain();

    let m = daemon.metrics();
    assert_eq!(m.admitted as usize, SESSIONS);
    assert!(
        m.rejected > 0,
        "queue of 4 under {SESSIONS} sessions must shed at least once"
    );

    let mut finalized = 0usize;
    let mut salvaged_or_failed = 0usize;
    for &(i, id) in &ids {
        let spec = &specs[i];
        let r = daemon.report(id).expect("registry row");
        assert!(
            r.state.is_terminal(),
            "session {i} not terminal: {:?}",
            r.state
        );
        let durable = store.durable(id, 0).expect("durable bytes");
        match class_of(i) {
            // Unaffected and survivable-fault sessions: finalized, and the
            // journal is byte-identical to a solo run — the zero-
            // interference oracle.
            0..=2 => {
                assert_eq!(
                    r.state,
                    SessionState::Finalized,
                    "session {i}: {:?} ({:?})",
                    r.state,
                    r.error
                );
                let (solo, _) = solo_offsets(spec);
                assert_eq!(durable, solo, "session {i} diverged from its solo run");
                finalized += 1;
            }
            // Fatal injected record faults (`worker_panic_p = 1.0`): the
            // run can never succeed, so containment means the session
            // consumes its budget, lands in a terminal failure state with
            // the panic detail in its own row, and whatever journal
            // prefix it left behind still salvages without error.
            3 => {
                assert!(
                    matches!(r.state, SessionState::Salvaged | SessionState::Failed),
                    "session {i}: fatal faults must not finalize ({:?})",
                    r.state
                );
                assert!(r.attempts >= 2, "fatal faults must consume the budget");
                assert!(r.error.is_some(), "session {i} lost its failure detail");
                if let Ok(salv) = JournalReader::salvage(&durable) {
                    assert!(!salv.clean, "a failed session cannot leave a clean journal");
                }
                salvaged_or_failed += 1;
            }
            // Transient sink fault: attempt 0 tears, the retry finalizes
            // byte-identically.
            4 => {
                assert_eq!(
                    r.state,
                    SessionState::Finalized,
                    "session {i}: {:?} ({:?})",
                    r.state,
                    r.error
                );
                assert!(r.attempts >= 2, "session {i} must have retried");
                let (solo, _) = solo_offsets(spec);
                assert_eq!(durable, solo, "session {i} retry not byte-identical");
                finalized += 1;
            }
            // Permanent sink fault, no budget: salvaged to exactly the
            // committed prefix.
            _ => {
                assert_eq!(
                    r.state,
                    SessionState::Salvaged,
                    "session {i}: {:?} ({:?})",
                    r.state,
                    r.error
                );
                let (solo, offsets) = solo_offsets(spec);
                check_exact_prefix(i, &durable, &solo, &offsets);
                let salv = JournalReader::salvage(&durable).unwrap();
                assert!(salv.committed() >= 1 && salv.committed() < offsets.len());
                salvaged_or_failed += 1;
            }
        }
    }
    assert_eq!(finalized + salvaged_or_failed, SESSIONS);
    assert_eq!(
        m.finalized as usize, finalized,
        "metrics disagree with the registry"
    );

    match Arc::try_unwrap(daemon) {
        Ok(d) => d.shutdown(),
        Err(_) => panic!("daemon still shared at exit"),
    }
}

/// Assert `durable` is a prefix of `solo` and salvages to exactly the
/// epochs whose commit offsets fit inside it.
fn check_exact_prefix(i: usize, durable: &[u8], solo: &[u8], offsets: &[u64]) {
    assert!(
        solo.starts_with(durable),
        "session {i}: durable bytes are not a solo-run prefix"
    );
    let expected = offsets
        .iter()
        .filter(|&&o| o as usize <= durable.len())
        .count();
    match JournalReader::salvage(durable) {
        Ok(salv) => assert_eq!(
            salv.committed(),
            expected,
            "session {i}: salvage disagrees with the commit-offset oracle"
        ),
        Err(_) => assert_eq!(expected, 0, "session {i}: committed epochs lost"),
    }
}
