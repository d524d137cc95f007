//! Crash-restart journal re-adoption: a daemon booting over a `DirStore`
//! directory a previous incarnation died in must re-adopt every journal
//! — finalized ones as `Finalized`, truncated ones as `Salvaged` with
//! exactly the committed epoch prefix (swept across crash instants), and
//! junk as reported garbage that never wedges boot.

mod common;

use common::{scratch_dir, solo_with_offsets, start_server};
use dp_core::DoublePlayConfig;
use dp_dpd::{
    guests, Client, Daemon, DaemonConfig, DirStore, GuestRef, OrphanClass, ServerConfig, SessionId,
    SessionSpec, SessionState, SessionStore, SubmitSpec,
};
use dp_support::rng::mix;
use std::sync::Arc;

fn boot(dir: &std::path::Path) -> Arc<Daemon<DirStore>> {
    Arc::new(Daemon::start(
        DaemonConfig::default(),
        Arc::new(DirStore::new(dir).unwrap()),
    ))
}

#[test]
fn readoption_recovers_the_exact_commit_prefix_at_every_crash_instant() {
    let spec = SessionSpec::new(
        "victim",
        guests::atomic_counter(2, 600),
        DoublePlayConfig::new(2)
            .epoch_cycles(700)
            .hidden_seed(mix(&[7, 0xcab])),
    );
    let (solo, offsets) = solo_with_offsets(&spec);
    assert!(offsets.len() >= 3, "victim too small to cut interestingly");
    let total = solo.len() as u64;

    // Crash instants across the whole journal, a seeded arbitrary one,
    // and the no-crash control (the full journal, finalized cleanly).
    let mut crash_points: Vec<u64> = (1..8).map(|k| total * k / 8).collect();
    crash_points.push(mix(&[0x5eed, total]) % total);
    crash_points.push(total);

    for &crash_at in &crash_points {
        let dir = scratch_dir(&format!("readopt-{crash_at}"));
        // The journal exactly as the dying daemon left it: a prefix of
        // the deterministic byte stream, torn at an arbitrary instant.
        std::fs::write(dir.join("s0001-victim.s0.dprs"), &solo[..crash_at as usize]).unwrap();

        let daemon = boot(&dir);
        let orphans = daemon.adopt_orphans().unwrap();
        assert_eq!(orphans.len(), 1, "crash_at={crash_at}");
        let expected = offsets.iter().filter(|&&o| o <= crash_at).count();

        let rows = daemon.sessions();
        if crash_at == total {
            assert!(
                matches!(orphans[0].class, OrphanClass::Finalized { .. }),
                "full journal must re-adopt clean (got {:?})",
                orphans[0].class
            );
            assert_eq!(rows[0].state, SessionState::Finalized);
        } else {
            match &orphans[0].class {
                OrphanClass::Salvageable { epochs, .. } => assert_eq!(
                    *epochs as usize, expected,
                    "crash_at={crash_at}: salvage != commit-offset oracle"
                ),
                OrphanClass::Garbage { .. } => assert_eq!(
                    expected, 0,
                    "crash_at={crash_at}: journal called garbage but oracle expects epochs"
                ),
                other => panic!("crash_at={crash_at}: unexpected class {other:?}"),
            }
        }
        if let Some(row) = rows.first() {
            assert_eq!(row.id, SessionId(1));
            assert_eq!(row.epochs as usize, expected, "crash_at={crash_at}");
            // The adopted journal is servable: durable bytes are exactly
            // what the dead incarnation persisted.
            assert_eq!(
                daemon.store().durable(SessionId(1), 0).unwrap(),
                &solo[..crash_at as usize]
            );
        }

        // The new incarnation records fresh sessions with non-colliding
        // ids in the same directory.
        let fresh = daemon
            .submit(SessionSpec::new(
                "fresh",
                guests::atomic_counter(2, 300),
                DoublePlayConfig::new(2).epoch_cycles(700),
            ))
            .unwrap();
        assert!(fresh.0 > 1, "fresh id must not collide with adopted ones");
        daemon.drain();
        assert_eq!(daemon.report(fresh).unwrap().state, SessionState::Finalized);
        match Arc::try_unwrap(daemon) {
            Ok(d) => d.shutdown(),
            Err(_) => panic!("daemon still shared"),
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
}

#[test]
fn garbage_in_the_store_is_reported_and_never_wedges_boot() {
    let dir = scratch_dir("readopt-garbage");
    // Everything a crashed or misbehaving incarnation might leave:
    std::fs::write(dir.join("s0001-empty.s0.dprs"), b"").unwrap(); // zero-length
    std::fs::write(dir.join("s0002-half.s0.dprs.tmp"), b"partial").unwrap(); // torn tmp
    std::fs::write(dir.join("s0003-junk.s0.dprs"), [0xabu8; 64]).unwrap(); // not a journal
    std::fs::write(dir.join("notes.txt"), b"operator scribbles").unwrap();
    std::fs::write(dir.join("weird.dprs"), b"DPRS????").unwrap(); // bad name

    let daemon = boot(&dir);
    let orphans = daemon.adopt_orphans().unwrap();
    assert_eq!(orphans.len(), 5);
    assert!(
        orphans
            .iter()
            .all(|o| matches!(o.class, OrphanClass::Garbage { .. })),
        "every file should classify as garbage: {orphans:?}"
    );
    assert!(daemon.sessions().is_empty(), "garbage must not become rows");
    let notes = daemon.orphan_notes();
    assert_eq!(notes.len(), 5);
    assert!(notes.iter().any(|n| n.contains("zero-length")), "{notes:?}");
    assert!(
        notes.iter().any(|n| n.contains("temporary leftover")),
        "{notes:?}"
    );

    // Boot is not wedged: the daemon serves over a socket and records.
    let (path, _handle) = start_server(&daemon, "readopt-garbage", ServerConfig::default());
    let mut client = Client::connect(&path).unwrap();
    let id = client
        .submit(&SubmitSpec::new(
            "after-garbage",
            GuestRef::AtomicCounter {
                workers: 2,
                iters: 300,
            },
            DoublePlayConfig::new(2).epoch_cycles(700),
        ))
        .unwrap();
    let report = client.wait(id).unwrap();
    assert_eq!(report.state, SessionState::Finalized);
    // The garbage notes travel to protocol clients too.
    let (_, notes) = client.sessions().unwrap();
    assert_eq!(notes.len(), 5);
    client.shutdown().unwrap();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn two_incarnations_chain_their_sessions() {
    let dir = scratch_dir("readopt-chain");
    // Incarnation 1 records two sessions to completion and is dropped
    // without cleanup (the kill -9 stand-in for in-process tests).
    let first = boot(&dir);
    for i in 0..2 {
        first
            .submit(SessionSpec::new(
                format!("gen1-{i}"),
                guests::atomic_counter(2, 300 + 50 * i),
                DoublePlayConfig::new(2).epoch_cycles(700),
            ))
            .unwrap();
    }
    first.drain();
    let gen1_rows = first.sessions();
    match Arc::try_unwrap(first) {
        Ok(d) => d.shutdown(),
        Err(_) => panic!("daemon still shared"),
    }

    // Incarnation 2 re-adopts both and keeps counting ids upward.
    let second = boot(&dir);
    let orphans = second.adopt_orphans().unwrap();
    assert_eq!(orphans.len(), 2);
    let rows = second.sessions();
    assert_eq!(rows.len(), 2);
    for (adopted, original) in rows.iter().zip(&gen1_rows) {
        assert_eq!(adopted.id, original.id);
        assert_eq!(adopted.state, SessionState::Finalized);
        assert_eq!(adopted.epochs, original.epochs);
    }
    let fresh = second
        .submit(SessionSpec::new(
            "gen2",
            guests::atomic_counter(2, 300),
            DoublePlayConfig::new(2).epoch_cycles(700),
        ))
        .unwrap();
    assert_eq!(fresh, SessionId(3));
    second.drain();
    assert_eq!(second.metrics().adopted, 2);
    match Arc::try_unwrap(second) {
        Ok(d) => d.shutdown(),
        Err(_) => panic!("daemon still shared"),
    }
    let _ = std::fs::remove_dir_all(&dir);
}
