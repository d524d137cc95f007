//! Recording: the uniparallel machinery.
//!
//! * [`thread_parallel`] — the full-speed multi-CPU execution that
//!   generates checkpoints and the syscall log;
//! * [`epoch_parallel`] — the single-CPU-per-epoch execution of record,
//!   with divergence detection;
//! * [`coordinator`] — the stage machinery tying them together (boot,
//!   commit, divergence recovery, adaptive epoch sizing, the pipeline
//!   timing model);
//! * [`pipelined`] — the one recording loop: TP front-end speculating
//!   ahead, verify workers on spare cores, strictly-in-order commit; with
//!   no spare cores, the same loop with no worker threads verifies each
//!   epoch inline;
//! * [`pipeline`] — worker-core scheduling for the simulated-time account;
//! * [`interleave`] — the hidden nondeterminism source;
//! * [`resume`] — crash-resume: record a salvaged run again through the
//!   recording loop, the journal answering for the epochs it holds.

pub mod coordinator;
pub mod epoch_parallel;
pub mod interleave;
pub mod pipeline;
pub mod pipelined;
pub mod resume;
pub mod thread_parallel;

pub use coordinator::{measure_native, record, RecordingBundle};
pub use epoch_parallel::{run_live, run_verify, Divergence, EpOutcome, VerifyInputs};
pub use resume::resume_from;
pub use thread_parallel::{TpEpochOutcome, TpRunner};

/// Shared guest fixtures for the recorder's unit tests.
#[cfg(test)]
pub(crate) mod testutil {
    use crate::world::GuestSpec;
    use dp_os::abi;
    use dp_os::kernel::WorldConfig;
    use dp_vm::builder::ProgramBuilder;
    use dp_vm::Reg;
    use std::sync::Arc;

    /// Two threads perform `iters` unsynchronized read-modify-write
    /// increments each on a shared counter — racy by construction — then
    /// main exits with the counter value.
    pub fn racy_counter_spec(iters: i64) -> GuestSpec {
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
        w.load(Reg(12), Reg(9), 0, dp_vm::Width::W8);
        w.add(Reg(12), Reg(12), 1i64);
        w.store(Reg(12), Reg(9), 0, dp_vm::Width::W8);
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
        for t in 1..=2 {
            f.consti(Reg(0), t);
            f.syscall(abi::SYS_JOIN);
        }
        f.consti(Reg(9), counter as i64);
        f.load(Reg(0), Reg(9), 0, dp_vm::Width::W8);
        f.syscall(abi::SYS_EXIT);
        f.finish();
        GuestSpec::new("racy", Arc::new(pb.finish("main")), WorldConfig::default())
    }

    /// Compute-heavy variant: each iteration does ~90 instructions of
    /// private arithmetic before one atomic increment — a realistic
    /// compute-to-sync ratio for overhead assertions.
    pub fn compute_counter_spec(iters: i64, workers: usize) -> GuestSpec {
        counter_spec(iters, workers, 30)
    }

    /// Like [`racy_counter_spec`] but with atomic increments: the final
    /// state is schedule-independent, so recording never diverges.
    pub fn atomic_counter_spec(iters: i64, workers: usize) -> GuestSpec {
        counter_spec(iters, workers, 0)
    }

    fn counter_spec(iters: i64, workers: usize, compute: usize) -> GuestSpec {
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
        for _ in 0..compute {
            w.add(Reg(13), Reg(13), 7i64);
            w.mul(Reg(13), Reg(13), 3i64);
            w.bin(dp_vm::BinOp::Xor, Reg(13), Reg(13), Reg(10));
        }
        w.fetch_add(Reg(12), Reg(9), 1i64);
        w.add(Reg(10), Reg(10), 1i64);
        w.jmp(top);
        w.bind(done);
        w.consti(Reg(0), 0);
        w.syscall(abi::SYS_THREAD_EXIT);
        w.finish();
        let worker = pb.declare("worker");
        let mut f = pb.function("main");
        for _ in 0..workers {
            f.consti(Reg(0), worker.0 as i64);
            f.consti(Reg(1), 0);
            f.consti(Reg(2), 0);
            f.syscall(abi::SYS_SPAWN);
        }
        for t in 1..=workers as i64 {
            f.consti(Reg(0), t);
            f.syscall(abi::SYS_JOIN);
        }
        f.consti(Reg(9), counter as i64);
        f.load(Reg(0), Reg(9), 0, dp_vm::Width::W8);
        f.syscall(abi::SYS_EXIT);
        f.finish();
        GuestSpec::new(
            "atomic",
            Arc::new(pb.finish("main")),
            WorldConfig::default(),
        )
    }
}
