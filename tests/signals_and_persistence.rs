//! Integration: asynchronous signal delivery through the full
//! record/verify/replay stack, and recording persistence through disk.

use doubleplay::os::{abi, kernel::WorldConfig};
use doubleplay::prelude::*;
use doubleplay::vm::builder::ProgramBuilder;
use doubleplay::vm::{BinOp, Reg, Width};
use std::sync::Arc;

/// A guest where a "supervisor" thread periodically signals a worker; the
/// worker's handler increments a counter; the worker spins doing compute
/// until it has seen enough signals. Signal delivery points are
/// scheduling decisions that must be recorded and replayed exactly.
fn signal_spec() -> GuestSpec {
    let mut pb = ProgramBuilder::new();
    let hits = pb.global("hits", 8);
    let work = pb.global("work", 8);

    let mut h = pb.function("handler");
    h.consti(Reg(1), hits as i64);
    h.load(Reg(2), Reg(1), 0, Width::W8);
    h.add(Reg(2), Reg(2), 1i64);
    h.store(Reg(2), Reg(1), 0, Width::W8);
    h.ret();
    h.finish();
    let handler = pb.declare("handler");

    // Worker (tid 1): install handler, spin until hits >= 5.
    let mut w = pb.function("worker");
    let spin = w.label();
    let done = w.label();
    w.consti(Reg(0), 7);
    w.consti(Reg(1), handler.0 as i64);
    w.syscall(abi::SYS_SIGACTION);
    w.bind(spin);
    w.consti(Reg(9), work as i64);
    w.load(Reg(10), Reg(9), 0, Width::W8);
    w.add(Reg(10), Reg(10), 1i64);
    w.store(Reg(10), Reg(9), 0, Width::W8);
    w.consti(Reg(9), hits as i64);
    w.load(Reg(11), Reg(9), 0, Width::W8);
    w.bin(BinOp::Ltu, Reg(12), Reg(11), 5i64);
    w.jnz(Reg(12), spin);
    w.jmp(done);
    w.bind(done);
    w.consti(Reg(0), 0);
    w.syscall(abi::SYS_THREAD_EXIT);
    w.finish();
    let worker = pb.declare("worker");

    // Supervisor (tid 2): send 5 signals to the worker, sleeping between.
    let mut s = pb.function("supervisor");
    let top = s.label();
    let fin = s.label();
    s.consti(Reg(10), 0);
    s.bind(top);
    s.bin(BinOp::Ltu, Reg(11), Reg(10), 5i64);
    s.jz(Reg(11), fin);
    s.consti(Reg(0), 3_000);
    s.syscall(abi::SYS_SLEEP);
    s.consti(Reg(0), 1); // worker tid
    s.consti(Reg(1), 7);
    s.syscall(abi::SYS_KILL);
    s.add(Reg(10), Reg(10), 1i64);
    s.jmp(top);
    s.bind(fin);
    s.consti(Reg(0), 0);
    s.syscall(abi::SYS_THREAD_EXIT);
    s.finish();
    let supervisor = pb.declare("supervisor");

    let mut f = pb.function("main");
    for func in [worker, supervisor] {
        f.consti(Reg(0), func.0 as i64);
        f.consti(Reg(1), 0);
        f.consti(Reg(2), 0);
        f.syscall(abi::SYS_SPAWN);
    }
    for t in 1..=2 {
        f.consti(Reg(0), t);
        f.syscall(abi::SYS_JOIN);
    }
    f.consti(Reg(9), hits as i64);
    f.load(Reg(0), Reg(9), 0, Width::W8);
    f.syscall(abi::SYS_EXIT);
    f.finish();

    GuestSpec::new(
        "signals",
        Arc::new(pb.finish("main")),
        WorldConfig::default(),
    )
}

#[test]
fn signals_record_and_replay_exactly() {
    let spec = signal_spec();
    for seed in 0..3 {
        let config = DoublePlayConfig::new(2)
            .epoch_cycles(20_000)
            .hidden_seed(seed);
        let bundle =
            record(&spec, &config).unwrap_or_else(|e| panic!("seed {seed}: record failed: {e}"));
        let report = replay_sequential(&bundle.recording, &spec.program)
            .unwrap_or_else(|e| panic!("seed {seed}: replay failed: {e}"));
        assert_eq!(
            report.exit_code,
            Some(5),
            "seed {seed}: handler ran 5 times"
        );
        // At least one epoch's schedule must carry a signal event.
        let signals: usize = bundle
            .recording
            .epochs
            .iter()
            .flat_map(|e| e.schedule.events())
            .filter(|ev| matches!(ev, doubleplay::core::logs::SchedEvent::Signal { .. }))
            .count();
        assert_eq!(signals, 5, "seed {seed}: all deliveries recorded");
    }
}

#[test]
fn recording_survives_disk_roundtrip_and_replays() {
    let case = doubleplay::workloads::pcomp::build(2, Size::Small);
    let bundle = record(&case.spec, &DoublePlayConfig::new(2).epoch_cycles(100_000)).unwrap();
    let path = std::env::temp_dir().join(format!("dp-test-{}.rec", std::process::id()));
    bundle
        .recording
        .save(std::fs::File::create(&path).unwrap())
        .unwrap();
    let loaded = Recording::load(std::fs::File::open(&path).unwrap()).unwrap();
    std::fs::remove_file(&path).ok();

    assert_eq!(loaded.epochs.len(), bundle.recording.epochs.len());
    assert_eq!(loaded.log_bytes(), bundle.recording.log_bytes());
    let a = replay_sequential(&bundle.recording, &case.spec.program).unwrap();
    let b = replay_sequential(&loaded, &case.spec.program).unwrap();
    assert_eq!(a, b);
    let par = replay_parallel(&loaded, &case.spec.program, 3).unwrap();
    assert_eq!(par.final_hash, a.final_hash);
}

/// A saved recording whose schedule names a thread the guest never
/// created — bit rot the CRCs cannot catch once `save` recomputes them, or
/// a recording paired with the wrong guest — must replay to a typed
/// `ScheduleMismatch` on every replay path, never an index panic (and, in
/// parallel replay, never a worker panic).
#[test]
fn schedule_naming_a_missing_thread_is_a_typed_replay_error() {
    use doubleplay::core::logs::SchedEvent;
    use doubleplay::vm::Tid;

    let case = doubleplay::workloads::pfscan::build(2, Size::Small);
    let program = &case.spec.program;
    let bundle = record(&case.spec, &DoublePlayConfig::new(2)).unwrap();
    assert!(bundle.recording.epochs.len() > 1, "epoch 0 must not halt");
    let ghost = Tid(9); // pfscan runs a main thread and 2 workers
    for bad in [
        SchedEvent::Slice {
            tid: ghost,
            instrs: 3,
        },
        SchedEvent::LoggedWake { tid: ghost },
        SchedEvent::Signal { tid: ghost, sig: 7 },
    ] {
        let mut tampered = bundle.recording.clone();
        let first = &mut tampered.epochs[0];
        let mut events = first.schedule.events().to_vec();
        events.push(bad);
        first.schedule = events.into_iter().collect();
        let mut bytes = Vec::new();
        tampered.save(&mut bytes).unwrap();
        let loaded = Recording::load(bytes.as_slice()).unwrap();

        let expect_mismatch = |what: &str, err: ReplayError| match err {
            ReplayError::ScheduleMismatch { epoch: 0, tid, .. } if tid == ghost => {}
            other => panic!("{bad:?} via {what}: expected ScheduleMismatch, got {other:?}"),
        };
        expect_mismatch(
            "replay_sequential",
            replay_sequential(&loaded, program).unwrap_err(),
        );
        expect_mismatch(
            "replay_parallel",
            replay_parallel(&loaded, program, 2).unwrap_err(),
        );
        expect_mismatch(
            "replay_to_point",
            replay_to_point(&loaded, program, 0, Tid(0), u64::MAX).unwrap_err(),
        );
    }
}

/// Every replay path walks a schedule through one follower, so a saved
/// recording whose syscall log or schedule was tampered with after the
/// CRCs were recomputed fails the same typed way on all of them: a wake
/// whose argument digest no longer matches the pending request, a log
/// entry the schedule never consumes, and a logged wake for a thread with
/// no pending syscall.
#[test]
fn tampered_logs_are_typed_replay_errors_on_every_path() {
    use doubleplay::core::logs::SchedEvent;
    use doubleplay::core::{replay_observed, EpochRecord};
    use doubleplay::vm::observer::NullObserver;
    use doubleplay::vm::Tid;

    let case = doubleplay::workloads::pcomp::build(2, Size::Small);
    let program = &case.spec.program;
    let bundle = record(&case.spec, &DoublePlayConfig::new(2)).unwrap();
    assert!(bundle.recording.epochs.len() > 1, "epoch 0 must not halt");
    let epoch0 = &bundle.recording.epochs[0];
    let entries = epoch0.syscalls.entries();
    let wake = entries.iter().position(|e| e.via_wake);
    let wake = wake.expect("epoch 0 has a logged wake");
    let plain = entries.iter().position(|e| !e.via_wake);
    let plain = plain.expect("epoch 0 has a completion at issue");
    // Thread 0 is the only thread at epoch 0's start, and it is ready.
    assert!(entries.iter().any(|e| e.tid == Tid(0)));

    let tamper = |edit: &dyn Fn(&mut EpochRecord)| {
        let mut tampered = bundle.recording.clone();
        edit(&mut tampered.epochs[0]);
        let mut bytes = Vec::new();
        tampered.save(&mut bytes).unwrap();
        Recording::load(bytes.as_slice()).unwrap()
    };
    // Each path's error; `None` where the path replayed the recording.
    let every_path = |loaded: &Recording| {
        [
            (
                "replay_sequential",
                replay_sequential(loaded, program).err(),
            ),
            ("replay_parallel", replay_parallel(loaded, program, 2).err()),
            // A point epoch 0 never reaches: the whole epoch is replayed.
            (
                "replay_to_point",
                replay_to_point(loaded, program, 0, Tid(0), u64::MAX).err(),
            ),
            (
                "replay_observed",
                replay_observed(loaded, program, &mut NullObserver).err(),
            ),
        ]
    };

    // (a) The first wake's argument digest no longer matches the request
    // its thread has pending.
    let loaded = tamper(&|epoch| {
        let mut log = epoch.syscalls.entries().to_vec();
        log[wake].arg_hash ^= 1;
        epoch.syscalls = log.into_iter().collect();
    });
    for (path, err) in every_path(&loaded) {
        match err {
            Some(ReplayError::LogMismatch { epoch: 0, tid, .. }) if tid == entries[wake].tid => {}
            other => panic!("flipped wake digest via {path}: expected LogMismatch, got {other:?}"),
        }
    }

    // (b) A copy of a completion nobody issues a second time: the schedule
    // ends with it unconsumed.
    let loaded = tamper(&|epoch| {
        let mut log = epoch.syscalls.entries().to_vec();
        log.push(entries[plain].clone());
        epoch.syscalls = log.into_iter().collect();
    });
    for (path, err) in every_path(&loaded) {
        match err {
            Some(ReplayError::LogMismatch {
                epoch: 0,
                tid,
                detail,
            }) if tid == entries[plain].tid && detail.contains("never consumed") => {}
            other => panic!("extra log entry via {path}: expected LogMismatch, got {other:?}"),
        }
    }

    // (c) A wake for a thread that is running, not blocked in a syscall.
    let loaded = tamper(&|epoch| {
        let mut events = vec![SchedEvent::LoggedWake { tid: Tid(0) }];
        events.extend_from_slice(epoch.schedule.events());
        epoch.schedule = events.into_iter().collect();
    });
    for (path, err) in every_path(&loaded) {
        match err {
            Some(ReplayError::ScheduleMismatch {
                epoch: 0,
                tid: Tid(0),
                ..
            }) => {}
            other => panic!(
                "wake of a ready thread via {path}: expected ScheduleMismatch, got {other:?}"
            ),
        }
    }
}
