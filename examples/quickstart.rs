//! Quickstart: build a tiny multithreaded guest, record it with
//! DoublePlay, inspect the recording, and replay it.
//!
//! ```sh
//! cargo run --release --example quickstart
//! ```

use doubleplay::os::guest::Rt;
use doubleplay::os::{abi, kernel::WorldConfig};
use doubleplay::prelude::*;
use doubleplay::vm::builder::ProgramBuilder;
use doubleplay::vm::Reg;
use std::sync::Arc;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // A guest program: three threads each add 10_000 to a shared counter
    // under a futex-based mutex, then main prints and exits with the total.
    let mut pb = ProgramBuilder::new();
    let rt = Rt::install(&mut pb);
    let lock = pb.global("lock", 8);
    let counter = pb.global("counter", 8);

    let mut w = pb.function("worker");
    let top = w.label();
    let done = w.label();
    w.consti(Reg(10), 0);
    w.bind(top);
    w.bin(doubleplay::vm::BinOp::Ltu, Reg(11), Reg(10), 10_000i64);
    w.jz(Reg(11), done);
    w.consti(Reg(0), lock as i64);
    w.call(rt.mutex_lock);
    w.consti(Reg(12), counter as i64);
    w.load(Reg(13), Reg(12), 0, doubleplay::vm::Width::W8);
    w.add(Reg(13), Reg(13), 1i64);
    w.store(Reg(13), Reg(12), 0, doubleplay::vm::Width::W8);
    w.consti(Reg(0), lock as i64);
    w.call(rt.mutex_unlock);
    w.add(Reg(10), Reg(10), 1i64);
    w.jmp(top);
    w.bind(done);
    w.consti(Reg(0), 0);
    w.syscall(abi::SYS_THREAD_EXIT);
    w.finish();
    let worker = pb.declare("worker");

    let mut f = pb.function("main");
    for _ in 0..3 {
        f.consti(Reg(0), worker.0 as i64);
        f.consti(Reg(1), 0);
        f.consti(Reg(2), 0);
        f.syscall(abi::SYS_SPAWN);
    }
    for t in 1..=3 {
        f.consti(Reg(0), t);
        f.syscall(abi::SYS_JOIN);
    }
    f.consti(Reg(9), counter as i64);
    f.load(Reg(0), Reg(9), 0, doubleplay::vm::Width::W8);
    f.call(rt.print_u64);
    f.consti(Reg(9), counter as i64);
    f.load(Reg(0), Reg(9), 0, doubleplay::vm::Width::W8);
    f.syscall(abi::SYS_EXIT);
    f.finish();

    let spec = GuestSpec::new(
        "quickstart",
        Arc::new(pb.finish("main")),
        WorldConfig::default(),
    );

    // Record with 2 worker CPUs and 2 spare cores (the paper's setup).
    let config = DoublePlayConfig::new(2).epoch_cycles(100_000);
    let bundle = record(&spec, &config)?;
    let stats = &bundle.stats;
    // Recording does not run the guest natively; measure the baseline the
    // overhead ratio divides by separately.
    let native = measure_native(&spec, &config)?;
    println!(
        "recorded {} epochs ({} divergences)",
        stats.epochs, stats.divergences
    );
    println!(
        "native {} cycles, recorded {} cycles -> overhead {:.1}%",
        native,
        stats.recorded_cycles,
        stats.overhead(native) * 100.0
    );
    println!(
        "log: {} schedule bytes + {} syscall bytes",
        stats.schedule_bytes, stats.syscall_bytes
    );
    println!(
        "console output committed by the recording: {:?}",
        String::from_utf8_lossy(&bundle.recording.console_output())
    );

    // Replay — sequentially, and in parallel across real OS threads.
    let seq = replay_sequential(&bundle.recording, &spec.program)?;
    println!("sequential replay: exit code {:?}", seq.exit_code);
    assert_eq!(seq.exit_code, Some(30_000));
    let par = replay_parallel(&bundle.recording, &spec.program, 4)?;
    assert_eq!(par.final_hash, seq.final_hash);
    println!("parallel replay across 4 threads reproduced the same state");
    Ok(())
}
