//! Byte-identity property suite for the multithreaded recording pipeline.
//!
//! The pipelined recorder's contract is absolute: for any seed, worker
//! count, and fault plan, it must produce a `Recording` whose serialized
//! bytes — and whose streamed journal bytes — are identical to the
//! sequential driver's, along with identical modeled statistics. This
//! suite sweeps seeds × worker counts × fault plans over racy and
//! synchronized guests, covering clean runs, divergences, worker panics,
//! divergence storms (serialized fallback), and injected I/O faults.

use dp_core::{
    record_to, replay_sequential, DoublePlayConfig, FaultPlan, GuestSpec, JournalWriter,
};
use dp_os::abi;
use dp_os::kernel::WorldConfig;
use dp_vm::builder::ProgramBuilder;
use dp_vm::Reg;
use std::sync::Arc;

/// A two-thread shared-counter guest. With `atomic` the increments are
/// `fetch_add` (schedule-independent — never diverges); without, they are
/// racy read-modify-write sequences (divergence-prone under fine-grained
/// interleaving).
fn counter_spec(iters: i64, atomic: bool) -> GuestSpec {
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
    if atomic {
        w.fetch_add(Reg(12), Reg(9), 1i64);
    } else {
        w.load(Reg(12), Reg(9), 0, dp_vm::Width::W8);
        w.add(Reg(12), Reg(12), 1i64);
        w.store(Reg(12), Reg(9), 0, dp_vm::Width::W8);
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
    let name = if atomic { "atomic" } else { "racy" };
    GuestSpec::new(name, Arc::new(pb.finish("main")), WorldConfig::default())
}

/// Records `spec` sequentially and pipelined (same config modulo the
/// `pipelined` flag, which is excluded from the wire format) and asserts
/// the full identity contract. Returns the sequential bundle's divergence
/// and serialized-epoch counts so sweeps can assert coverage.
fn assert_byte_identical(spec: &GuestSpec, config: &DoublePlayConfig, what: &str) -> (u64, u64) {
    let mut seq_journal = JournalWriter::new(Vec::new()).unwrap();
    let mut pip_journal = JournalWriter::new(Vec::new()).unwrap();
    let seq = record_to(spec, &config.pipelined(false), &mut seq_journal);
    let pip = record_to(spec, &config.pipelined(true), &mut pip_journal);
    let (seq, pip) = match (seq, pip) {
        (Ok(s), Ok(p)) => (s, p),
        (Err(se), Err(pe)) => {
            // A run the recorder legitimately aborts (e.g. a fault plan
            // that exhausts the retry budget) must abort identically:
            // same error, same committed journal prefix.
            assert_eq!(
                format!("{se:?}"),
                format!("{pe:?}"),
                "{what}: errors differ"
            );
            assert_eq!(
                seq_journal.into_inner(),
                pip_journal.into_inner(),
                "{what}: journal prefixes differ on abort"
            );
            return (0, 0);
        }
        (s, p) => panic!("{what}: drivers disagree on success: seq={s:?} pip={p:?}"),
    };

    assert_eq!(seq.stats, pip.stats, "{what}: modeled stats differ");
    assert_eq!(
        seq.recording.epochs.len(),
        pip.recording.epochs.len(),
        "{what}: epoch counts differ"
    );
    let mut seq_bytes = Vec::new();
    let mut pip_bytes = Vec::new();
    seq.recording.save(&mut seq_bytes).unwrap();
    pip.recording.save(&mut pip_bytes).unwrap();
    assert_eq!(seq_bytes, pip_bytes, "{what}: recording bytes differ");
    let seq_journal = seq_journal.into_inner();
    assert_eq!(
        seq_journal,
        pip_journal.into_inner(),
        "{what}: journal bytes differ"
    );
    // A finalized one-stream journal is the saved recording.
    assert_eq!(
        seq_journal, seq_bytes,
        "{what}: journal differs from the saved recording"
    );

    // The shared artifact must also actually replay.
    let report = replay_sequential(&pip.recording, &spec.program).unwrap();
    assert_eq!(report.epochs as u64, pip.stats.epochs, "{what}: replay");
    (seq.stats.divergences, seq.stats.serialized_epochs)
}

fn base_config(seed: u64, workers: usize) -> DoublePlayConfig {
    DoublePlayConfig {
        tp_quantum: 200,
        tp_jitter: 300,
        ..DoublePlayConfig::new(2)
            .epoch_cycles(8_000)
            .hidden_seed(seed)
            .spare_workers(workers)
    }
}

#[test]
fn clean_runs_are_byte_identical_across_worker_counts() {
    for workers in [1, 2, 4] {
        for seed in 0..3 {
            let spec = counter_spec(1_200, true);
            let config = base_config(seed, workers);
            let (div, _) =
                assert_byte_identical(&spec, &config, &format!("clean w={workers} s={seed}"));
            assert_eq!(div, 0, "atomic guest must not diverge");
        }
    }
}

#[test]
fn divergent_runs_are_byte_identical_across_worker_counts() {
    let mut total_div = 0;
    for workers in [1, 2, 4] {
        for seed in 0..3 {
            let spec = counter_spec(1_500, false);
            let config = base_config(seed, workers);
            let (div, _) =
                assert_byte_identical(&spec, &config, &format!("racy w={workers} s={seed}"));
            total_div += div;
        }
    }
    assert!(total_div > 0, "no seed diverged; rollback path unexercised");
}

#[test]
fn worker_panic_storms_are_byte_identical() {
    dp_core::faults::silence_injected_panics();
    for workers in [1, 2, 4] {
        for seed in 0..3 {
            let spec = counter_spec(1_200, true);
            let plan = FaultPlan::none().seed(seed).worker_panics_with(0.3);
            let config = base_config(seed, workers).faults(plan);
            assert_byte_identical(&spec, &config, &format!("panics w={workers} s={seed}"));
        }
    }
}

#[test]
fn divergence_storms_and_serialized_fallback_are_byte_identical() {
    // Forced storms: every storm epoch diverges, the sliding window trips,
    // and both drivers must fall back to serialized recording identically.
    let mut serialized = 0;
    for workers in [2, 4] {
        for seed in 0..4 {
            let spec = counter_spec(4_000, false);
            let plan = FaultPlan::none().seed(seed).storms(1.0, 4, 64);
            let config = DoublePlayConfig {
                tp_quantum: 6_000,
                tp_jitter: 2_000,
                ..DoublePlayConfig::new(2)
                    .epoch_cycles(6_000)
                    .ep_quantum(512)
                    .hidden_seed(seed)
                    .spare_workers(workers)
                    .faults(plan)
            };
            let (_, ser) =
                assert_byte_identical(&spec, &config, &format!("storm w={workers} s={seed}"));
            serialized += ser;
        }
    }
    assert!(serialized > 0, "no storm engaged the serialized fallback");
}

#[test]
fn io_faults_are_byte_identical() {
    for workers in [1, 2] {
        for seed in 0..2 {
            let spec = counter_spec(1_200, true);
            let plan = FaultPlan::none().seed(seed).io(0.2, 0.2, 0.1);
            let config = base_config(seed, workers).faults(plan);
            assert_byte_identical(&spec, &config, &format!("io w={workers} s={seed}"));
        }
    }
}

#[test]
fn mixed_fault_soup_is_byte_identical() {
    // Everything at once: panics + storms + I/O faults on a racy guest.
    dp_core::faults::silence_injected_panics();
    for seed in 0..3 {
        let spec = counter_spec(2_000, false);
        let plan = FaultPlan::none()
            .seed(seed)
            .worker_panics_with(0.2)
            .storms(0.4, 3, 32)
            .io(0.1, 0.1, 0.05);
        let config = base_config(seed, 3).faults(plan);
        assert_byte_identical(&spec, &config, &format!("soup s={seed}"));
    }
}
