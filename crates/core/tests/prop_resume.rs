//! Crash-resume identity oracle.
//!
//! The contract under test: kill a recording run at **any byte** of its
//! journal, salvage, truncate the torn tail, and resume: record the run
//! again through the recording loop, with the salvaged prefix answering
//! for the epochs it holds, and continue. The final journal (and its
//! recording) must be **byte-identical** to the run that never crashed,
//! with the same epoch, commit, divergence, serialized-epoch, worker-retry
//! and instruction counts. Swept across hidden seeds, shard counts and
//! crash instants, over guests that exercise all three epoch fates (clean commits, divergences with forward
//! recovery, degraded serialized mode).
//!
//! Tampering and misuse must surface as typed [`ResumeError`]s — never a
//! panic, never a silent wrong continuation.

use dp_core::journal::RecordSink;
use dp_core::{
    record_to, resume_from, DoublePlayConfig, FaultPlan, GuestSpec, JournalReader, JournalWriter,
    RecorderStats, RecordingBundle, ResumeError,
};
use dp_os::abi;
use dp_os::kernel::WorldConfig;
use dp_vm::builder::ProgramBuilder;
use dp_vm::Reg;
use std::sync::Arc;

/// Two-thread counter guest; `racy` picks unsynchronized read-modify-write
/// increments (divergence-prone) over atomic fetch-adds (always clean).
fn counter_spec(name: &str, iters: i64, racy: bool) -> GuestSpec {
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
    if racy {
        w.load(Reg(12), Reg(9), 0, dp_vm::Width::W8);
        w.add(Reg(12), Reg(12), 1i64);
        w.store(Reg(12), Reg(9), 0, dp_vm::Width::W8);
    } else {
        w.fetch_add(Reg(12), Reg(9), 1i64);
    }
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
    GuestSpec::new(name, Arc::new(pb.finish("main")), WorldConfig::default())
}

/// A divergence storm: the base micro-slice covers a whole per-CPU epoch,
/// so the racy counter never diverges on its own, and a storm in every
/// epoch shrinks the slices 64x until the recorder degrades to serialized
/// epochs. The small `ep_quantum` keeps live recovery round-robin fair.
fn storm_config() -> DoublePlayConfig {
    DoublePlayConfig {
        tp_quantum: 6_000,
        tp_jitter: 2_000,
        ..DoublePlayConfig::new(2)
            .epoch_cycles(6_000)
            .ep_quantum(512)
            .faults(FaultPlan::none().storms(1.0, 4, 64))
    }
}

/// The counters a resumed run must reproduce exactly.
fn counters(s: &RecorderStats) -> [u64; 6] {
    [
        s.epochs,
        s.committed,
        s.divergences,
        s.serialized_epochs,
        s.worker_retries,
        s.tp_instructions,
    ]
}

/// Records the uninterrupted solo run into a one-stream journal,
/// returning the journal bytes, the run, and each epoch's commit offset
/// (the durability point a crash can land on either side of).
fn solo_journal(
    spec: &GuestSpec,
    config: &DoublePlayConfig,
) -> (Vec<u8>, RecordingBundle, Vec<usize>) {
    let mut w = JournalWriter::new(Vec::new()).unwrap();
    let bundle = record_to(spec, config, &mut w).unwrap();
    let full = w.into_inner();
    // Re-journal the recording to learn the per-epoch commit offsets; the
    // byte stream must agree with what the live run produced.
    let mut rw = JournalWriter::new(Vec::new()).unwrap();
    rw.begin(&bundle.recording.meta, &bundle.recording.initial)
        .unwrap();
    let mut commits = Vec::new();
    for e in &bundle.recording.epochs {
        rw.epoch(e).unwrap();
        commits.push(rw.bytes_written() as usize);
    }
    rw.finish().unwrap();
    assert_eq!(rw.into_inner(), full, "re-journaled bytes differ from live");
    (full, bundle, commits)
}

/// Crash instants worth sweeping: both sides of every commit durability
/// point, plus a coarse stride over the whole byte range (mid-frame tears).
fn crash_instants(len: usize, commits: &[usize], stride: usize) -> Vec<usize> {
    let mut cuts: Vec<usize> = Vec::new();
    for &c in commits {
        cuts.extend([c.saturating_sub(1), c, (c + 1).min(len)]);
    }
    cuts.extend((0..=len).step_by(stride));
    cuts.push(len.saturating_sub(1));
    cuts.sort_unstable();
    cuts.dedup();
    cuts
}

/// Kills the run at `cut` bytes, salvages, resumes, and checks the final
/// journal is byte-identical to `full` and the resumed run's counters equal
/// the `solo` run's. Returns how many epochs the salvage recovered (so
/// callers can assert sweep coverage).
fn crash_and_resume_at(
    spec: &GuestSpec,
    config: &DoublePlayConfig,
    full: &[u8],
    solo: &RecordingBundle,
    cut: usize,
    first_commit: usize,
) -> Option<usize> {
    let torn = &full[..cut];
    let s = match JournalReader::salvage(torn) {
        Ok(s) => s,
        Err(_) => {
            // Only a cut inside the header itself may be unsalvageable.
            assert!(cut < first_commit, "cut {cut} unsalvageable past a commit");
            return None;
        }
    };
    let committed = s.committed();
    let prefix = torn[..s.keep[0].unwrap()].to_vec();
    let mut w = JournalWriter::resume(vec![prefix], 1, &s).unwrap();
    let bundle = resume_from(spec, config, s.recording, &mut w)
        .unwrap_or_else(|e| panic!("cut {cut} ({committed} epochs salvaged): resume failed: {e}"));
    assert_eq!(
        w.into_inner(),
        full,
        "cut {cut}: resumed journal differs from the uninterrupted run"
    );
    assert_eq!(
        bundle.recording.epochs.len(),
        solo.recording.epochs.len(),
        "cut {cut}: resumed recording has a different epoch count"
    );
    for (a, b) in bundle.recording.epochs.iter().zip(&solo.recording.epochs) {
        assert_eq!(a.end_machine_hash, b.end_machine_hash, "cut {cut}");
        assert_eq!(a.syscalls, b.syscalls, "cut {cut}");
    }
    assert_eq!(
        counters(&bundle.stats),
        counters(&solo.stats),
        "cut {cut}: resumed run's [epochs, committed, divergences, serialized, \
         worker retries, instructions] differ from the uninterrupted run's"
    );
    Some(committed)
}

/// Clean-path sweep: an atomic guest never diverges, so every prefix epoch
/// takes its clean verdict from the journal after its thread-parallel run
/// alone. Swept across hidden seeds and every commit boundary plus
/// mid-frame tears.
#[test]
fn resume_is_byte_identical_across_crash_instants_clean() {
    let spec = counter_spec("resume-clean", 900, false);
    for seed in [0x5eed_0fd0_0b1eu64, 0xabba_1972] {
        let config = DoublePlayConfig::new(2)
            .epoch_cycles(2_000)
            .hidden_seed(seed);
        let (full, solo, commits) = solo_journal(&spec, &config);
        let epochs = solo.recording.epochs.len();
        assert!(epochs >= 3, "want a multi-epoch run");
        let mut salvaged_counts = Vec::new();
        for cut in crash_instants(full.len(), &commits, 37) {
            if let Some(k) = crash_and_resume_at(&spec, &config, &full, &solo, cut, commits[0]) {
                salvaged_counts.push(k);
            }
        }
        // The sweep must actually cover resumes from every prefix length,
        // including zero epochs and the full prefix with FINAL lost.
        for k in 0..=epochs {
            assert!(
                salvaged_counts.contains(&k),
                "seed {seed:#x}: no cut salvaged {k} epochs"
            );
        }
    }
}

/// Divergence-path sweep: a racy guest plus injected verify-worker panics
/// drives the recorder through forward recovery, and a divergence storm
/// drives it into degraded serialized mode, so salvaged diverged and
/// serialized epochs both re-run live, hash-checked, at every crash
/// instant.
#[test]
fn resume_is_byte_identical_across_crash_instants_diverging() {
    dp_core::faults::silence_injected_panics();
    let panics = DoublePlayConfig::new(2)
        .epoch_cycles(2_000)
        .faults(FaultPlan::none().seed(0xfa17).worker_panics_with(0.35));
    let inputs = [
        (counter_spec("resume-racy", 700, true), panics, false),
        (
            counter_spec("resume-storm", 8_000, true),
            storm_config(),
            true,
        ),
    ];
    for (spec, config, storm) in &inputs {
        let (full, solo, commits) = solo_journal(spec, config);
        assert!(solo.recording.epochs.len() >= 3, "want a multi-epoch run");
        assert!(solo.stats.divergences > 0, "{}: no divergence", spec.name);
        if *storm {
            assert!(
                solo.stats.serialized_epochs > 0,
                "the storm never degraded to serialized epochs"
            );
        }
        for cut in crash_instants(full.len(), &commits, 101) {
            crash_and_resume_at(spec, config, &full, &solo, cut, commits[0]);
        }
    }
}

/// Sharded sweep: tear each of N lanes at an independently chosen byte,
/// salvage the merged prefix, truncate every lane to its `keep`
/// point, resume — every lane's final stream must match the uninterrupted
/// sharded run byte for byte.
#[test]
fn resume_is_byte_identical_across_shard_tears() {
    let spec = counter_spec("resume-shards", 900, false);
    for shards in [2usize, 3] {
        let config = DoublePlayConfig::new(2).epoch_cycles(2_000);
        let mut w =
            JournalWriter::sync((0..shards).map(|_| Vec::<u8>::new()).collect(), 2).unwrap();
        let bundle = record_to(&spec, &config, &mut w).unwrap();
        let full = w.into_writers().unwrap();
        assert!(bundle.recording.epochs.len() >= 3);
        // Deterministic cut tuples: a multiplicative generator walks each
        // lane's byte range so tears land mid-frame, on frame boundaries,
        // and at wildly unequal depths across lanes.
        let mut x = 0x9e37_79b9u64;
        for _ in 0..10 {
            let torn: Vec<Vec<u8>> = full
                .iter()
                .map(|lane| {
                    x = x
                        .wrapping_mul(6364136223846793005)
                        .wrapping_add(1442695040888963407);
                    let cut = (x >> 16) as usize % (lane.len() + 1);
                    lane[..cut].to_vec()
                })
                .collect();
            let s = match JournalReader::salvage_shards(&torn) {
                Ok(s) => s,
                // A tear inside shard 0's header loses meta: typed, fine.
                Err(_) => continue,
            };
            // A lane torn inside its own header is unusable: resume is
            // forbidden (`keep` reports `None`), only re-recording
            // from the merged prefix remains.
            let Some(keeps) = s.keep.iter().copied().collect::<Option<Vec<usize>>>() else {
                continue;
            };
            let lanes: Vec<Vec<u8>> = torn
                .iter()
                .zip(&keeps)
                .map(|(lane, &keep)| lane[..keep].to_vec())
                .collect();
            let committed = s.committed();
            let mut rw = JournalWriter::resume(lanes, 2, &s).unwrap();
            resume_from(&spec, &config, s.recording, &mut rw).unwrap_or_else(|e| {
                panic!("{shards} shards, {committed} epochs salvaged: resume failed: {e}")
            });
            assert_eq!(
                rw.into_writers().unwrap(),
                full,
                "{shards} shards, {committed} epochs salvaged: lanes differ after resume"
            );
        }
    }
}

/// A tampered per-epoch identity hash is caught as a typed
/// `PrefixDiverged` naming the tampered epoch — never a silent continuation
/// on wrong state. Tampered in turn: each epoch of a clean prefix, and each
/// diverged or serialized epoch of a divergence storm's prefix.
#[test]
fn tampered_hash_surfaces_as_prefix_diverged() {
    let clean = DoublePlayConfig::new(2).epoch_cycles(2_000);
    let inputs = [
        (counter_spec("resume-tamper", 900, false), clean, false),
        (
            counter_spec("resume-storm", 8_000, true),
            storm_config(),
            true,
        ),
    ];
    for (spec, config, storm) in &inputs {
        let (full, solo, commits) = solo_journal(spec, config);
        // The storm's prefix is every epoch but the last.
        let salvaged = if *storm { commits.len() - 1 } else { 3 };
        assert_eq!(*storm, solo.stats.serialized_epochs > 0, "{}", spec.name);
        for victim in 0..salvaged as u32 {
            let mut s = JournalReader::salvage(&full[..commits[salvaged - 1]]).unwrap();
            assert_eq!(s.committed(), salvaged);
            s.recording.epochs[victim as usize].end_machine_hash ^= 0xdead_beef;
            let expected = s.recording.epochs[victim as usize].end_machine_hash;
            let prefix = full[..s.keep[0].unwrap()].to_vec();
            let mut w = JournalWriter::resume(vec![prefix], 1, &s).unwrap();
            let name = &spec.name;
            match resume_from(spec, config, s.recording, &mut w) {
                Err(ResumeError::PrefixDiverged {
                    epoch, expected: e, ..
                }) => {
                    assert_eq!(epoch, victim, "{name}");
                    assert_eq!(e, expected, "{name}");
                }
                Err(other) => panic!("{name}: tampered epoch {victim}: wrong error {other}"),
                Ok(_) => panic!("{name}: tampered epoch {victim}: resume succeeded"),
            }
        }
    }
}

/// Prefixes that cannot belong to the offered guest/config pairing are
/// rejected up front as `BadPrefix` — wrong guest, wrong hidden seed —
/// while the `pipelined` strategy knob (not wire-encoded) is ignored.
#[test]
fn foreign_prefixes_are_rejected_as_bad_prefix() {
    let spec = counter_spec("resume-foreign", 900, false);
    let config = DoublePlayConfig::new(2).epoch_cycles(2_000);
    let (full, _, commits) = solo_journal(&spec, &config);
    let salvage = || JournalReader::salvage(&full[..commits[1]]).unwrap();

    let other = counter_spec("someone-else", 900, false);
    let s = salvage();
    let mut sink = JournalWriter::resume(vec![full[..s.keep[0].unwrap()].to_vec()], 1, &s).unwrap();
    assert!(matches!(
        resume_from(&other, &config, s.recording, &mut sink),
        Err(ResumeError::BadPrefix { .. })
    ));

    let reseeded = config.hidden_seed(42);
    let s = salvage();
    let mut sink = JournalWriter::resume(vec![full[..s.keep[0].unwrap()].to_vec()], 1, &s).unwrap();
    assert!(matches!(
        resume_from(&spec, &reseeded, s.recording, &mut sink),
        Err(ResumeError::BadPrefix { .. })
    ));

    // Toggling `pipelined` alone is NOT a foreign config: the resumed run
    // may pick its own execution strategy and must still land on the same
    // bytes (the strategy is invisible in the journal).
    let piped = config.pipelined(true).spare_workers(1);
    let s = salvage();
    let mut sink = JournalWriter::resume(vec![full[..s.keep[0].unwrap()].to_vec()], 1, &s).unwrap();
    let err = resume_from(&spec, &piped, s.recording, &mut sink);
    assert!(
        matches!(err, Err(ResumeError::BadPrefix { .. })),
        "spare_workers changed: still a config mismatch"
    );
    let piped_same = config.pipelined(true);
    let s = salvage();
    let mut sink = JournalWriter::resume(vec![full[..s.keep[0].unwrap()].to_vec()], 1, &s).unwrap();
    resume_from(&spec, &piped_same, s.recording, &mut sink).unwrap();
    assert_eq!(
        sink.into_inner(),
        full,
        "pipelined resume diverged in bytes"
    );
}
