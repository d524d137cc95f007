//! End-to-end integration: record every workload in the suite under
//! DoublePlay, verify the application still behaves correctly (via each
//! workload's ground-truth verifier applied to the replayed final state),
//! and check that sequential and parallel replay reproduce the recording
//! exactly.
//!
//! Each workload also pins what the guest computes: its epoch count,
//! thread-parallel instruction count and final machine digest. These do not
//! depend on the recording format; they move only when the interpreter's or
//! the scheduler's semantics move, which the in-build comparisons of
//! sequential against parallel replay cannot see.

use doubleplay::prelude::*;
use dp_core::checkpoint::Checkpoint;

/// What a workload's recording must compute: `(epochs, tp_instructions,
/// final_hash)`.
type Pinned = (u64, u64, u64);

fn record_and_replay(case: &WorkloadCase, cpus: usize, pinned: Pinned) {
    let config = DoublePlayConfig::new(cpus).epoch_cycles(120_000);
    let bundle =
        record(&case.spec, &config).unwrap_or_else(|e| panic!("{}: record failed: {e}", case.name));
    let stats = &bundle.stats;
    assert!(stats.epochs > 0, "{}: no epochs", case.name);
    assert_eq!(
        stats.committed + stats.divergences,
        stats.epochs,
        "{}: epoch accounting broken",
        case.name
    );

    // Sequential replay must verify every epoch and reproduce the final
    // application state; the workload verifier then checks ground truth.
    let initial =
        Checkpoint::from_image(case.spec.program.clone(), bundle.recording.initial.clone());
    let mut state = (initial.machine, initial.kernel);
    for epoch in &bundle.recording.epochs {
        let start = Checkpoint::capture(&state.0, &state.1);
        let (m, k, _) = dp_core::replay_epoch(&start, epoch)
            .unwrap_or_else(|e| panic!("{}: replay failed: {e}", case.name));
        state = (m, k);
    }
    (case.verify)(&state.0, &state.1)
        .unwrap_or_else(|e| panic!("{}: replayed state wrong: {e}", case.name));

    // External output committed by the recording matches ground truth.
    if let Some(expected) = case.expected_external_bytes {
        let total: u64 = bundle
            .recording
            .external()
            .map(|c| c.bytes.len() as u64)
            .sum();
        assert_eq!(total, expected, "{}: external output bytes", case.name);
    }

    // Parallel replay agrees.
    let seq = replay_sequential(&bundle.recording, &case.spec.program).unwrap();
    let par = replay_parallel(&bundle.recording, &case.spec.program, 4).unwrap();
    assert_eq!(
        seq.final_hash, par.final_hash,
        "{}: parallel replay differs",
        case.name
    );
    assert_eq!(seq.instructions, par.instructions, "{}", case.name);
    assert_eq!(
        (stats.epochs, stats.tp_instructions, seq.final_hash),
        pinned,
        "{}: (epochs, tp_instructions, final_hash) moved",
        case.name
    );
}

#[test]
fn pcomp_records_and_replays() {
    record_and_replay(
        &doubleplay::workloads::pcomp::build(2, Size::Small),
        2,
        (8, 1_705_165, 0x7c8ab84cb30d006f),
    );
}

#[test]
fn pfscan_records_and_replays() {
    record_and_replay(
        &doubleplay::workloads::pfscan::build(2, Size::Small),
        2,
        (14, 3_101_855, 0xc5000a691c994480),
    );
}

#[test]
fn aget_records_and_replays() {
    record_and_replay(
        &doubleplay::workloads::aget::build(2, Size::Small),
        2,
        (11, 2_361_008, 0xcb5972f0282111cb),
    );
}

#[test]
fn webserve_records_and_replays() {
    record_and_replay(
        &doubleplay::workloads::webserve::build(2, Size::Small),
        2,
        (5, 774_297, 0x6e6b7148f886a2f4),
    );
}

#[test]
fn kvstore_records_and_replays() {
    record_and_replay(
        &doubleplay::workloads::kvstore::build(2, Size::Small),
        2,
        (7, 1_022_625, 0xdfcf105dc5d21355),
    );
}

#[test]
fn ocean_records_and_replays() {
    record_and_replay(
        &doubleplay::workloads::ocean::build(2, Size::Small),
        2,
        (10, 2_268_833, 0x43c8fe23b94d8a8a),
    );
}

#[test]
fn water_records_and_replays() {
    record_and_replay(
        &doubleplay::workloads::water::build(2, Size::Small),
        2,
        (7, 1_482_841, 0x598f67fd787cd733),
    );
}

#[test]
fn radix_records_and_replays() {
    record_and_replay(
        &doubleplay::workloads::radix::build(2, Size::Small),
        2,
        (15, 3_262_734, 0x1650460478b9e1f0),
    );
}

#[test]
fn four_thread_suite_records_cleanly() {
    for case in doubleplay::workloads::suite(4, Size::Small) {
        let config = DoublePlayConfig::new(4).epoch_cycles(150_000);
        let bundle = record(&case.spec, &config)
            .unwrap_or_else(|e| panic!("{}: record failed: {e}", case.name));
        let report = replay_sequential(&bundle.recording, &case.spec.program)
            .unwrap_or_else(|e| panic!("{}: replay failed: {e}", case.name));
        assert_eq!(report.epochs as u64, bundle.stats.epochs, "{}", case.name);
    }
}

#[test]
fn racy_workloads_record_with_recovery_and_replay_exactly() {
    for case in doubleplay::workloads::racy_suite(2, Size::Small) {
        let config = DoublePlayConfig {
            tp_quantum: 300,
            tp_jitter: 400,
            ..DoublePlayConfig::new(2).epoch_cycles(60_000)
        };
        let bundle = record(&case.spec, &config)
            .unwrap_or_else(|e| panic!("{}: record failed: {e}", case.name));
        // Replay must be exact even when the original diverged.
        let report = replay_sequential(&bundle.recording, &case.spec.program)
            .unwrap_or_else(|e| panic!("{}: replay failed: {e}", case.name));
        assert_eq!(report.epochs as u64, bundle.stats.epochs, "{}", case.name);
        // And the replayed state satisfies the (loose) racy verifier.
        let initial =
            Checkpoint::from_image(case.spec.program.clone(), bundle.recording.initial.clone());
        let mut state = (initial.machine, initial.kernel);
        for epoch in &bundle.recording.epochs {
            let start = Checkpoint::capture(&state.0, &state.1);
            let (m, k, _) = dp_core::replay_epoch(&start, epoch).unwrap();
            state = (m, k);
        }
        (case.verify)(&state.0, &state.1)
            .unwrap_or_else(|e| panic!("{}: replayed state wrong: {e}", case.name));
    }
}

/// Parallel replay starts each epoch from its stored start, so every start
/// must be the state the previous epoch ended in: it digests to the
/// previous epoch's end hash (the boot hash for epoch 0) and carries that
/// hash. Checked on the salvaged journal of every suite and racy workload,
/// recorded with the default configuration and under a divergence storm,
/// so clean, diverged and serialized epochs all hand on their end state.
#[test]
fn every_epoch_starts_where_the_previous_one_ended() {
    let storm = DoublePlayConfig {
        tp_quantum: 6_000,
        tp_jitter: 2_000,
        ..DoublePlayConfig::new(2)
            .epoch_cycles(6_000)
            .ep_quantum(512)
            .faults(FaultPlan::none().storms(1.0, 4, 64))
    };
    let (mut diverged, mut serialized) = (0, 0);
    for case in mixed_suite(2, Size::Small) {
        for config in [DoublePlayConfig::new(2), storm] {
            let mut journal = JournalWriter::new(Vec::new()).unwrap();
            let bundle = record_to(&case.spec, &config, &mut journal)
                .unwrap_or_else(|e| panic!("{}: record failed: {e}", case.name));
            diverged += bundle.stats.divergences;
            serialized += bundle.stats.serialized_epochs;
            let recording = JournalReader::salvage(journal.get_ref()).unwrap().recording;
            let mut end = recording.meta.initial_machine_hash;
            for epoch in &recording.epochs {
                let start = Checkpoint::from_image(case.spec.program.clone(), epoch.start.clone());
                assert_eq!(
                    (start.machine.state_hash(), start.machine_hash),
                    (end, end),
                    "{}: epoch {} does not start where its predecessor ended",
                    case.name,
                    epoch.index
                );
                end = epoch.end_machine_hash;
            }
        }
    }
    assert!(
        diverged > 0 && serialized > 0,
        "{diverged} diverged and {serialized} serialized epochs"
    );
}
