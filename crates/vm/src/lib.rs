//! # dp-vm — deterministic multithreaded bytecode VM
//!
//! The execution substrate for the DoublePlay (ASPLOS 2011) reproduction.
//! The original system records real Pthreads binaries on real hardware; this
//! crate provides the laptop-scale equivalent: a 64-bit register machine
//! whose execution is a *pure function* of
//!
//! 1. the [`Program`],
//! 2. the schedule (which thread runs each instruction), and
//! 3. the results the host kernel supplies for each `Syscall` trap.
//!
//! Everything DoublePlay needs from hardware/OS support maps onto an
//! explicit, testable API here:
//!
//! | Paper mechanism | dp-vm equivalent |
//! |---|---|
//! | timeslicing threads on one CPU | [`Machine::run_slice`] with instruction budgets |
//! | HW instruction/branch counters naming preemption points | exact per-thread `icount` ([`ThreadState::icount`]) |
//! | `fork()` copy-on-write checkpoints | `Machine: Clone` with `Arc`-shared pages ([`memory::Memory`]) |
//! | memory-state comparison at epoch ends | [`Machine::state_hash`] / [`memory::Memory::first_difference`] |
//! | instrumentation for baseline recorders | [`observer::MemObserver`] access hooks |
//!
//! ## Quick start
//!
//! ```
//! use dp_vm::builder::ProgramBuilder;
//! use dp_vm::{Machine, Reg, SliceLimits, Tid, observer::NullObserver};
//! use std::sync::Arc;
//!
//! let mut pb = ProgramBuilder::new();
//! let mut f = pb.function("main");
//! f.consti(Reg(0), 41);
//! f.add(Reg(0), Reg(0), 1i64);
//! f.ret();
//! f.finish();
//! let program = Arc::new(pb.finish("main"));
//!
//! let mut m = Machine::new(program, &[]);
//! m.run_slice(Tid(0), SliceLimits::budget(100), &mut NullObserver)?;
//! assert_eq!(m.thread(Tid(0)).exit_value, 42);
//! # Ok::<(), dp_vm::Fault>(())
//! ```

#![warn(missing_docs)]

pub mod builder;
mod error;
pub mod hash;
mod instr;
mod machine;
pub mod memory;
pub mod observer;
mod program;
mod thread;
mod value;

pub use error::Fault;
pub use instr::{BinOp, Instr, UnOp};
pub use machine::{
    Machine, MachineImage, SliceLimits, SliceRun, Step, StopReason, DEFAULT_MAX_CALL_DEPTH,
};
pub use program::{
    initial_sp, DataSegment, FuncId, Function, Program, GLOBAL_BASE, HEAP_BASE, STACK_BASE,
    STACK_SIZE,
};
pub use thread::{Frame, Pc, SyscallRequest, ThreadState, ThreadStatus};
pub use value::{Reg, Src, Tid, Width, Word, ARG_REGS, NUM_REGS, SP};
