//! Property tests for the recording logs: codec roundtrips over arbitrary
//! log contents, schedule-log coalescing invariants, cursor semantics, and
//! — the robustness half — clean typed errors (never panics) on truncated
//! or bit-flipped buffers, including the recording container.

use dp_core::logs::{codec, SchedEvent, ScheduleLog, SyscallLog, SyscallLogEntry};
use dp_core::{record, DoublePlayConfig, GuestSpec, Recording, ReplayError};
use dp_os::abi;
use dp_os::kernel::{ExternalChunk, ExternalDest, SyscallEffect, WorldConfig};
use dp_support::check::{check, Gen};
use dp_vm::builder::ProgramBuilder;
use dp_vm::{Reg, Tid};
use std::sync::Arc;

fn sched_event(g: &mut Gen) -> SchedEvent {
    match g.index(3) {
        0 => SchedEvent::Slice {
            tid: Tid(g.below(8) as u32),
            instrs: g.range(1, 1_000_000),
        },
        1 => SchedEvent::LoggedWake {
            tid: Tid(g.below(8) as u32),
        },
        _ => SchedEvent::Signal {
            tid: Tid(g.below(8) as u32),
            sig: g.below(64),
        },
    }
}

fn sched_events(g: &mut Gen, max: usize) -> Vec<SchedEvent> {
    (0..g.index(max + 1)).map(|_| sched_event(g)).collect()
}

fn syscall_entry(g: &mut Gen) -> SyscallLogEntry {
    let writes = (0..g.index(3))
        .map(|_| (g.u64(), g.bytes(64)))
        .collect::<Vec<_>>();
    let external = (0..g.index(2))
        .enumerate()
        .map(|(i, _)| ExternalChunk {
            dest: if i % 2 == 0 {
                ExternalDest::Console
            } else {
                ExternalDest::Socket(1000 + i as u32)
            },
            bytes: g.bytes(64),
        })
        .collect::<Vec<_>>();
    SyscallLogEntry {
        tid: Tid(g.below(8) as u32),
        num: g.below(28) as u32,
        arg_hash: g.u64(),
        ret: g.u64(),
        via_wake: g.bool(),
        effect: SyscallEffect {
            guest_writes: writes,
            external,
        },
    }
}

fn syscall_entries(g: &mut Gen, min: usize, max: usize) -> Vec<SyscallLogEntry> {
    let n = min + g.index(max - min + 1);
    (0..n).map(|_| syscall_entry(g)).collect()
}

/// Any schedule log survives encode/decode bit-for-bit.
#[test]
fn schedule_codec_roundtrips() {
    check("schedule_codec_roundtrips", 64, |g| {
        let log: ScheduleLog = sched_events(g, 200).into_iter().collect();
        let encoded = codec::encode_schedule(&log);
        let decoded = codec::decode_schedule(&encoded).unwrap();
        assert_eq!(decoded, log);
    });
}

/// Any syscall log survives encode/decode, including effects.
#[test]
fn syscall_codec_roundtrips() {
    check("syscall_codec_roundtrips", 64, |g| {
        let log: SyscallLog = syscall_entries(g, 0, 60).into_iter().collect();
        let encoded = codec::encode_syscalls(&log);
        let decoded = codec::decode_syscalls(&encoded).unwrap();
        assert_eq!(decoded, log);
    });
}

/// Truncating an encoded log never panics — it returns `CodecError` (or,
/// if the cut landed exactly after all payload, decodes a prefix).
#[test]
fn truncated_logs_error_cleanly() {
    check("truncated_logs_error_cleanly", 128, |g| {
        let log: SyscallLog = syscall_entries(g, 1, 20).into_iter().collect();
        let encoded = codec::encode_syscalls(&log);
        let n = g.index(encoded.len().max(1));
        if n < encoded.len() {
            let _ = codec::decode_syscalls(&encoded[..n]);
        }
        let sched: ScheduleLog = sched_events(g, 40).into_iter().collect();
        let enc = codec::encode_schedule(&sched);
        if !enc.is_empty() {
            let _ = codec::decode_schedule(&enc[..g.index(enc.len())]);
        }
    });
}

/// Bit-flipping any byte of an encoded log either decodes to *something*
/// or yields a typed `CodecError` — never a panic or a wild allocation.
#[test]
fn bitflipped_logs_never_panic() {
    check("bitflipped_logs_never_panic", 128, |g| {
        let log: SyscallLog = syscall_entries(g, 1, 12).into_iter().collect();
        let mut encoded = codec::encode_syscalls(&log);
        let i = g.index(encoded.len());
        encoded[i] ^= 1 << g.index(8);
        let _ = codec::decode_syscalls(&encoded);

        let sched: ScheduleLog = sched_events(g, 40).into_iter().collect();
        let mut enc = codec::encode_schedule(&sched);
        if !enc.is_empty() {
            let i = g.index(enc.len());
            enc[i] ^= 1 << g.index(8);
            let _ = codec::decode_schedule(&enc);
        }
    });
}

/// `get_varint` on arbitrary byte soup returns a value or a typed error.
#[test]
fn varint_decoding_is_total() {
    check("varint_decoding_is_total", 256, |g| {
        let buf = g.bytes(24);
        let mut pos = g.index(buf.len() + 1);
        match codec::get_varint(&buf, &mut pos, "fuzz") {
            Ok(_) => assert!(pos <= buf.len()),
            Err(e) => assert_eq!(e.context, "fuzz"),
        }
    });
}

/// A small two-thread atomic-counter guest producing a multi-epoch
/// recording to corrupt.
fn recorded() -> Recording {
    let iters = 600i64;
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
        "corrupt-me",
        Arc::new(pb.finish("main")),
        WorldConfig::default(),
    );
    record(&spec, &DoublePlayConfig::new(2).epoch_cycles(4_000))
        .unwrap()
        .recording
}

/// Corrupting any single byte of a saved recording makes `load` fail with
/// a typed `ReplayError` — `Corrupt`, or `UnsupportedVersion` for a flip
/// inside the version field — in 100% of trials, never a panic.
#[test]
fn corrupted_container_is_rejected_with_typed_error() {
    let recording = recorded();
    let mut saved = Vec::new();
    recording.save(&mut saved).unwrap();
    assert!(Recording::load(&saved[..]).is_ok());
    check("corrupted_container_is_rejected", 200, |g| {
        let mut bad = saved.clone();
        let i = g.index(bad.len());
        bad[i] ^= 1 << g.index(8);
        match Recording::load(&bad[..]) {
            Err(ReplayError::Corrupt { .. }) => {}
            // A flip inside the 4-byte version field reads as a foreign
            // version, which is typed separately.
            Err(ReplayError::UnsupportedVersion { .. }) if (4..8).contains(&i) => {}
            Err(other) => panic!("corruption at byte {i} surfaced as {other:?}"),
            // A flip inside a section *payload* is always caught by its
            // CRC32; only flips that happen to cancel out could load — and
            // a single bit flip never cancels in CRC32.
            Ok(_) => panic!("single-bit corruption at byte {i} loaded successfully"),
        }
    });
}

/// Truncating a saved recording at any prefix length is also rejected.
#[test]
fn truncated_container_is_rejected() {
    let recording = recorded();
    let mut saved = Vec::new();
    recording.save(&mut saved).unwrap();
    check("truncated_container_is_rejected", 100, |g| {
        let n = g.index(saved.len());
        assert!(
            matches!(
                Recording::load(&saved[..n]),
                Err(ReplayError::Corrupt { .. })
            ),
            "prefix of {n} bytes did not error"
        );
    });
    // Trailing garbage is rejected too.
    let mut padded = saved.clone();
    padded.extend_from_slice(b"junk");
    assert!(matches!(
        Recording::load(&padded[..]),
        Err(ReplayError::Corrupt { .. })
    ));
}

/// Coalescing preserves per-thread instruction totals and never leaves
/// two adjacent slices of the same thread.
#[test]
fn coalescing_preserves_totals() {
    check("coalescing_preserves_totals", 64, |g| {
        use std::collections::BTreeMap;
        let events = sched_events(g, 300);
        let mut expect: BTreeMap<Tid, u64> = BTreeMap::new();
        for e in &events {
            if let SchedEvent::Slice { tid, instrs } = e {
                *expect.entry(*tid).or_insert(0) += instrs;
            }
        }
        let log: ScheduleLog = events.into_iter().collect();
        let mut got: BTreeMap<Tid, u64> = BTreeMap::new();
        let mut prev: Option<Tid> = None;
        for e in log.events() {
            match e {
                SchedEvent::Slice { tid, instrs } => {
                    assert!(*instrs > 0, "zero-length slice survived");
                    assert_ne!(prev, Some(*tid), "adjacent same-thread slices");
                    *got.entry(*tid).or_insert(0) += instrs;
                    prev = Some(*tid);
                }
                _ => prev = None,
            }
        }
        assert_eq!(log.total_instructions(), expect.values().sum::<u64>());
        assert_eq!(got, expect);
    });
}

/// The per-thread cursor dispenses exactly the per-thread subsequences.
#[test]
fn cursor_is_a_partition() {
    check("cursor_is_a_partition", 64, |g| {
        let entries = syscall_entries(g, 0, 80);
        let log: SyscallLog = entries.clone().into_iter().collect();
        let mut cursor = log.cursor();
        for tid in (0..8).map(Tid) {
            let mine: Vec<&SyscallLogEntry> = entries.iter().filter(|e| e.tid == tid).collect();
            for want in mine {
                let got = cursor.pop(tid).expect("cursor exhausted early");
                assert_eq!(got, want);
            }
            assert!(cursor.pop(tid).is_none());
        }
        assert!(cursor.exhausted());
    });
}
