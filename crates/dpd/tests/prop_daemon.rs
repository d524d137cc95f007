//! The daemon-wide crash property: kill the whole daemon at an arbitrary
//! instant and *every* per-session journal salvages independently to
//! exactly its committed epoch prefix.
//!
//! This extends the single-journal prefix-salvage property to N
//! concurrent journals sharing one durability timeline: a global byte
//! clock ([`CrashClock`]) advances with every write from every session,
//! and the crash instant cuts each journal at a different, arbitrary
//! point — including mid-write (a torn frame).
//!
//! The oracle is a solo run of each spec instrumented with per-epoch
//! commit byte offsets: for a durable prefix of length `L`, the
//! salvageable epoch count must be exactly the number of commit offsets
//! `<= L`, the salvaged epochs must match the solo run hash-for-hash
//! (recording is deterministic, so concurrency must not leak into any
//! journal), and the salvaged prefix must replay.

use dp_core::{
    record_to, replay_sequential, DoublePlayConfig, JournalReader, JournalWriter, RecordSink,
    RecordingMeta,
};
use dp_dpd::{guests, CrashClock, Daemon, DaemonConfig, MemStore, SessionSpec, SessionStore};
use dp_support::rng::mix;
use std::sync::Arc;

/// A solo run capturing the journal bytes and each epoch's commit offset.
fn solo_with_offsets(spec: &SessionSpec) -> (Vec<u8>, Vec<u64>) {
    struct Tap {
        w: JournalWriter<Vec<u8>>,
        offsets: Vec<u64>,
    }
    impl RecordSink for Tap {
        fn begin(
            &mut self,
            meta: &RecordingMeta,
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

/// The session mix for one round: a spread of guest shapes, epoch sizes,
/// and (byte-identical) driver choices, seeded per round.
fn session_mix(round: u64) -> Vec<SessionSpec> {
    let mut specs = Vec::new();
    for i in 0..6u64 {
        let seed = mix(&[round, i, 0xc4a5]);
        let racy = i % 2 == 1;
        let iters = 250 + (i as i64) * 70;
        let guest = if racy {
            guests::racy_counter(2, iters)
        } else {
            guests::atomic_counter(2, iters)
        };
        let mut config = DoublePlayConfig::new(2)
            .epoch_cycles(600 + 150 * i)
            .hidden_seed(seed);
        if i == 4 {
            // One pipelined session: same bytes, different driver.
            config = config.spare_workers(2).pipelined(true);
        }
        specs.push(SessionSpec::new(format!("p{round}-{i}"), guest, config).restart_budget(0));
    }
    specs
}

#[test]
fn daemon_wide_crash_leaves_every_journal_salvageable_to_its_commits() {
    for round in 0..2u64 {
        let specs = session_mix(round);
        let oracles: Vec<(Vec<u8>, Vec<u64>)> = specs.iter().map(solo_with_offsets).collect();
        let total: u64 = oracles.iter().map(|(b, _)| b.len() as u64).sum();
        assert!(
            oracles.iter().all(|(_, offs)| offs.len() >= 2),
            "sessions too small to cut interestingly"
        );

        // Crash instants: spread over the whole timeline plus the
        // never-crashes control (>= total bytes).
        let mut crash_points: Vec<u64> = (1..8).map(|k| total * k / 8).collect();
        crash_points.push(mix(&[round, 0xdead]) % total.max(1));
        crash_points.push(total + 1);

        for &crash_at in &crash_points {
            let clock = CrashClock::new(crash_at);
            let store = Arc::new(MemStore::crashing(clock));
            let daemon = Daemon::start(
                DaemonConfig {
                    runners: 3,
                    verify_cores: 4,
                    queue_capacity: 64,
                    ..DaemonConfig::default()
                },
                store.clone(),
            );
            let ids: Vec<_> = specs
                .iter()
                .map(|s| daemon.submit(s.clone()).expect("admission"))
                .collect();
            daemon.drain();
            daemon.shutdown();

            for ((spec, (solo, offsets)), &id) in specs.iter().zip(&oracles).zip(&ids) {
                let durable = store.durable(id, 0).unwrap();
                // Per-session durability is a prefix of the deterministic
                // solo byte stream: concurrency must not leak into any
                // journal.
                assert!(
                    solo.starts_with(&durable),
                    "{}: durable bytes diverge from solo run (crash_at={crash_at})",
                    spec.name
                );
                let expected = offsets
                    .iter()
                    .filter(|&&o| o as usize <= durable.len())
                    .count();
                match JournalReader::salvage(&durable) {
                    Ok(salv) => {
                        assert_eq!(
                            salv.committed(),
                            expected,
                            "{}: salvage != commit-offset oracle (crash_at={crash_at}, \
                             durable={} of {})",
                            spec.name,
                            durable.len(),
                            solo.len()
                        );
                        assert_eq!(
                            salv.clean,
                            durable.len() == solo.len(),
                            "{}: clean flag wrong (crash_at={crash_at})",
                            spec.name
                        );
                        // The salvaged epochs are the solo run's, hash for
                        // hash...
                        let reference = JournalReader::salvage(solo).unwrap();
                        for (a, b) in salv
                            .recording
                            .epochs
                            .iter()
                            .zip(&reference.recording.epochs)
                        {
                            assert_eq!(a.index, b.index);
                            assert_eq!(
                                a.end_machine_hash, b.end_machine_hash,
                                "{}: epoch {} differs from solo (crash_at={crash_at})",
                                spec.name, a.index
                            );
                        }
                        // ...and the prefix replays.
                        let report = replay_sequential(&salv.recording, &spec.guest.program)
                            .expect("salvaged prefix must replay");
                        assert_eq!(report.epochs as usize, expected);
                    }
                    Err(_) => {
                        // Only acceptable before the header became durable
                        // — by the commit rule no epoch can be committed.
                        assert_eq!(
                            expected, 0,
                            "{}: header lost but oracle expects {expected} epochs \
                             (crash_at={crash_at})",
                            spec.name
                        );
                    }
                }
            }
        }
    }
}

#[test]
fn crash_beyond_the_timeline_finalizes_everything() {
    let specs = session_mix(99);
    let store = Arc::new(MemStore::crashing(CrashClock::new(u64::MAX)));
    let daemon = Daemon::start(DaemonConfig::default(), store.clone());
    let ids: Vec<_> = specs
        .iter()
        .map(|s| daemon.submit(s.clone()).expect("admission"))
        .collect();
    daemon.drain();
    for (spec, &id) in specs.iter().zip(&ids) {
        let r = daemon.report(id).unwrap();
        assert_eq!(
            r.state,
            dp_dpd::SessionState::Finalized,
            "{}: {:?} ({:?})",
            spec.name,
            r.state,
            r.error
        );
        let salv = JournalReader::salvage(&store.durable(id, 0).unwrap()).unwrap();
        assert!(salv.clean);
        assert_eq!(salv.committed(), r.epochs as usize);
    }
    daemon.shutdown();
}
