//! Exhaustive prefix properties for the one durable format:
//!
//! * a saved recording (a finalized one-stream journal): *every* strict
//!   byte prefix is rejected by `Recording::load` with a typed
//!   `ReplayError::Corrupt` — never a panic, never a silent partial load;
//! * a journal: *every* byte prefix salvages to exactly the epochs whose
//!   commit markers lie inside the prefix, and each salvaged prefix
//!   replays with the recorded per-epoch hashes.
//!
//! These are the crash-consistency contract: a torn write can cut a file
//! at any byte, so the guarantees must hold at all of them, not at a
//! sample.

use dp_core::journal::RecordSink;
use dp_core::{
    record, replay_sequential, DoublePlayConfig, GuestSpec, JournalReader, JournalWriter,
    Recording, ReplayError,
};
use dp_os::abi;
use dp_os::kernel::WorldConfig;
use dp_vm::builder::ProgramBuilder;
use dp_vm::Reg;
use std::sync::Arc;

/// A small two-thread guest whose recording spans several epochs but stays
/// small (each start delta holds the few pages an epoch changes), so
/// exhaustive per-byte loops stay fast.
fn small_recording() -> (GuestSpec, Recording) {
    let iters = 900i64;
    let mut pb = ProgramBuilder::new();
    let counter = pb.global("counter", 8);
    let mut w = pb.function("worker");
    let top = w.label();
    let done = w.label();
    w.consti(Reg(10), 0);
    w.consti(Reg(9), counter as i64);
    w.bind(top);
    w.bin(dp_vm::BinOp::Ltu, Reg(11), Reg(10), iters);
    w.jz(Reg(11), done);
    w.fetch_add(Reg(12), Reg(9), 1i64);
    w.add(Reg(10), Reg(10), 1i64);
    w.jmp(top);
    w.bind(done);
    w.consti(Reg(0), 0);
    w.syscall(abi::SYS_THREAD_EXIT);
    w.finish();
    let worker = pb.declare("worker");
    let mut f = pb.function("main");
    for _ in 0..2 {
        f.consti(Reg(0), worker.0 as i64);
        f.consti(Reg(1), 0);
        f.consti(Reg(2), 0);
        f.syscall(abi::SYS_SPAWN);
    }
    for t in 1..=2i64 {
        f.consti(Reg(0), t);
        f.syscall(abi::SYS_JOIN);
    }
    f.consti(Reg(9), counter as i64);
    f.load(Reg(0), Reg(9), 0, dp_vm::Width::W8);
    f.syscall(abi::SYS_EXIT);
    f.finish();
    let spec = GuestSpec::new(
        "prefix-me",
        Arc::new(pb.finish("main")),
        WorldConfig::default(),
    );
    let config = DoublePlayConfig::new(2).epoch_cycles(2_000);
    let recording = record(&spec, &config).unwrap().recording;
    assert!(
        recording.epochs.len() >= 3,
        "want a multi-epoch recording, got {} epochs",
        recording.epochs.len()
    );
    (spec, recording)
}

/// Journals `recording` into memory, returning the bytes and the commit
/// offset of each epoch (the journal length right after its commit marker
/// hit the sink — the point at which the epoch is durable).
fn journaled(recording: &Recording) -> (Vec<u8>, Vec<usize>) {
    let mut w = JournalWriter::new(Vec::new()).unwrap();
    w.begin(&recording.meta, &recording.initial).unwrap();
    let mut commits = Vec::new();
    for epoch in &recording.epochs {
        w.epoch(epoch).unwrap();
        commits.push(w.bytes_written() as usize);
    }
    w.finish().unwrap();
    (w.into_inner(), commits)
}

/// Every strict byte prefix of a saved recording is rejected with
/// `ReplayError::Corrupt`: no prefix panics, and none loads as a shorter
/// recording (partial data must flow through salvage, never through load).
#[test]
fn every_strict_dprc_prefix_is_rejected() {
    let (_, recording) = small_recording();
    let mut saved = Vec::new();
    recording.save(&mut saved).unwrap();
    assert!(Recording::load(&saved[..]).is_ok());
    for n in 0..saved.len() {
        match Recording::load(&saved[..n]) {
            Err(ReplayError::Corrupt { .. }) => {}
            Err(other) => panic!("prefix of {n} bytes surfaced as {other:?}"),
            Ok(_) => panic!("strict prefix of {n} bytes loaded successfully"),
        }
    }
}

/// Every byte prefix of a journal salvages to exactly the epochs
/// committed within it: cuts before the header frame are typed errors,
/// and from there each commit marker adds exactly one salvageable epoch.
#[test]
fn every_journal_prefix_salvages_exactly_the_committed_epochs() {
    let (_, recording) = small_recording();
    let (journal, commits) = journaled(&recording);
    for cut in 0..=journal.len() {
        let expect = commits.iter().filter(|&&o| o <= cut).count();
        match JournalReader::salvage(&journal[..cut]) {
            Ok(s) => {
                assert_eq!(
                    s.committed(),
                    expect,
                    "cut at {cut}: salvaged {} epochs, expected {expect}",
                    s.committed()
                );
                assert_eq!(s.clean, cut == journal.len(), "cut at {cut}: clean flag");
                for (a, b) in s.recording.epochs.iter().zip(&recording.epochs) {
                    assert_eq!(a.end_machine_hash, b.end_machine_hash);
                }
            }
            // Only cuts that truncate the header itself may error: without
            // meta and the initial state there is nothing to salvage.
            Err(ReplayError::Corrupt { .. }) => {
                assert_eq!(expect, 0, "cut at {cut} lost committed epochs");
                assert!(
                    cut < commits[0],
                    "cut at {cut} errored after the first commit"
                );
            }
            Err(other) => panic!("cut at {cut}: unexpected error {other:?}"),
        }
    }
}

/// Each salvageable epoch prefix is a *replayable* recording whose verified
/// per-epoch hashes match the original run — the salvage output is not just
/// well-formed, it is the actual execution prefix.
#[test]
fn salvaged_prefixes_replay_with_the_recorded_hashes() {
    let (spec, recording) = small_recording();
    let (journal, commits) = journaled(&recording);
    for (k, &commit) in commits.iter().enumerate() {
        let s = JournalReader::salvage(&journal[..commit]).unwrap();
        assert_eq!(s.committed(), k + 1);
        // replay_sequential verifies every epoch's end hash internally;
        // success means the salvaged prefix reproduces the recorded states.
        let report = replay_sequential(&s.recording, &spec.program).unwrap();
        assert_eq!(report.epochs as usize, k + 1);
        assert_eq!(
            report.final_hash,
            recording.epochs[k].end_machine_hash,
            "prefix of {} epochs replays to a different state",
            k + 1
        );
    }
}
