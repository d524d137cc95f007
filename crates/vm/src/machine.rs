//! The machine: program + memory + threads, with a step/slice interpreter.
//!
//! A `Machine` is deliberately *passive*: it has no scheduler and no kernel.
//! Host drivers (the DoublePlay recorders, the baselines, replay engines)
//! decide which thread runs, for how many instructions, and what every
//! syscall returns. All nondeterminism therefore lives in the driver, which
//! is exactly the separation deterministic record/replay needs:
//!
//! * **schedule** — drivers call [`Machine::run_slice`] with explicit budgets;
//! * **syscalls** — the `Syscall` instruction traps; the driver's kernel
//!   services it and resumes the thread with [`Machine::complete_syscall`].
//!
//! Given the same program, the same slice sequence and the same syscall
//! results, execution is bit-for-bit identical — the foundational property
//! the whole repository's tests keep re-verifying.
//!
//! `Machine` is `Clone`: cloning is a copy-on-write checkpoint (page tables
//! are shared `Arc`s). It is also `Send`, so checkpointed epochs can replay
//! on real OS threads in parallel.
//!
//! One function defines what each instruction does. [`Machine::step`] runs
//! it once; [`Machine::run_slice`], the hot path of every recorder, verify
//! worker and replay, checks halt, readiness and its limits once per slice
//! and then runs it back to back. Both keep the thread's pc index, icount and
//! current function's code in a local cursor, and write the cursor back to
//! the thread only when the step or slice ends. Both are generic over the
//! [`MemObserver`], so the recorder's
//! [`NullObserver`](crate::observer::NullObserver) costs nothing.

use crate::error::Fault;
use crate::instr::Instr;
use crate::memory::Memory;
use crate::observer::{Access, AccessKind, MemObserver};
use crate::program::{initial_sp, FuncId, Program};
use crate::thread::{Pc, SyscallRequest, ThreadState, ThreadStatus};
use crate::value::{Reg, Src, Tid, Width, Word, NUM_REGS};
use dp_support::wire::{Reader, Wire, WireError};
use std::sync::Arc;

/// Default call-stack depth limit.
pub const DEFAULT_MAX_CALL_DEPTH: usize = 1024;

/// Result of a single [`Machine::step`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Step {
    /// An ordinary instruction executed.
    Ran,
    /// An atomic read-modify-write executed. `wrote` is false for a
    /// compare-and-swap that failed (it only read the location).
    RanAtomic {
        /// Address the atomic operated on.
        addr: Word,
        /// Whether the location was written.
        wrote: bool,
    },
    /// The thread trapped into the kernel and is now `Waiting`.
    Syscall(SyscallRequest),
    /// The thread returned from its bottom frame and exited.
    Exited,
}

/// Why [`Machine::run_slice`] stopped.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StopReason {
    /// The instruction budget was exhausted.
    Budget,
    /// The thread reached the requested instruction-count target.
    IcountTarget,
    /// The thread trapped into the kernel.
    Syscall(SyscallRequest),
    /// The thread exited.
    Exited,
    /// An atomic read-modify-write instruction executed and
    /// [`SliceLimits::stop_at_atomics`] was set. The atomic has completed;
    /// the slice ends just after it. Carries the accessed address and
    /// whether it wrote, so recorders can track per-address ownership.
    Atomic {
        /// Address the atomic operated on.
        addr: Word,
        /// Whether the location was written (false for a failed CAS).
        wrote: bool,
    },
}

/// Outcome of [`Machine::run_slice`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SliceRun {
    /// Instructions actually executed in this slice.
    pub executed: u64,
    /// Why the slice ended.
    pub stop: StopReason,
}

/// Limits for [`Machine::run_slice`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SliceLimits {
    /// Maximum instructions to execute in this slice.
    pub max_instrs: u64,
    /// Absolute per-thread icount at which to stop (epoch-boundary target).
    pub icount_target: Option<u64>,
    /// End the slice just after each atomic read-modify-write instruction.
    /// Recorders use this to make synchronization operations visible
    /// scheduling points (the simulated analogue of DoublePlay's
    /// sync-operation hints).
    pub stop_at_atomics: bool,
}

impl SliceLimits {
    /// A budget-only limit.
    pub fn budget(max_instrs: u64) -> Self {
        SliceLimits {
            max_instrs,
            icount_target: None,
            stop_at_atomics: false,
        }
    }

    /// Returns the limits with atomic-stop enabled.
    pub fn stopping_at_atomics(mut self) -> Self {
        self.stop_at_atomics = true;
        self
    }
}

/// A multithreaded guest machine executing one [`Program`].
#[derive(Debug, Clone)]
pub struct Machine {
    program: Arc<Program>,
    mem: Memory,
    threads: Vec<ThreadState>,
    live: usize,
    halted: Option<Word>,
    fault: Option<Fault>,
    max_call_depth: usize,
}

/// A serializable snapshot of everything in a [`Machine`] except the
/// (immutable, shared) program. Recordings persist these as checkpoints;
/// [`Machine::from_image`] reattaches the program.
#[derive(Debug, Clone)]
pub struct MachineImage {
    /// Guest memory contents.
    pub mem: Memory,
    /// All thread states.
    pub threads: Vec<ThreadState>,
    /// Halt status.
    pub halted: Option<Word>,
    /// Latched fault, if any.
    pub fault: Option<Fault>,
}

impl MachineImage {
    /// Appends the delta that turns `base` into `self`: memory as a page
    /// delta ([`Memory::put_delta`]) that may copy blocks of `files`, the
    /// base world's file contents, then the thread table and halt/fault
    /// state whole.
    pub fn put_delta(&self, base: &MachineImage, files: &[&[u8]], out: &mut Vec<u8>) {
        self.mem.put_delta(&base.mem, files, out);
        self.threads.put(out);
        self.halted.put(out);
        self.fault.put(out);
    }

    /// Applies a [`put_delta`](MachineImage::put_delta) encoding to
    /// `base`.
    ///
    /// # Errors
    ///
    /// A [`WireError`] for malformed or truncated input; never a panic.
    pub fn get_delta(
        base: &MachineImage,
        files: &[&[u8]],
        r: &mut Reader<'_>,
    ) -> Result<Self, WireError> {
        Ok(MachineImage {
            mem: Memory::get_delta(&base.mem, files, r)?,
            threads: Wire::get(r)?,
            halted: Wire::get(r)?,
            fault: Wire::get(r)?,
        })
    }
}

impl Machine {
    /// Boots a machine: loads data segments and spawns thread 0 running the
    /// program's entry function with `args`.
    pub fn new(program: Arc<Program>, args: &[Word]) -> Self {
        let mut mem = Memory::new();
        for seg in program.data() {
            mem.write_bytes(seg.addr, &seg.bytes);
        }
        // Loading the static image does not count as epoch-0 dirtying.
        mem.take_dirty();
        let entry = program.entry();
        let mut m = Machine {
            program,
            mem,
            threads: Vec::new(),
            live: 0,
            halted: None,
            fault: None,
            max_call_depth: DEFAULT_MAX_CALL_DEPTH,
        };
        m.spawn_thread(entry, args);
        m
    }

    /// The program this machine executes.
    pub fn program(&self) -> &Arc<Program> {
        &self.program
    }

    /// Shared view of guest memory.
    pub fn mem(&self) -> &Memory {
        &self.mem
    }

    /// Mutable view of guest memory (used by the kernel to copy syscall
    /// buffers in and out).
    pub fn mem_mut(&mut self) -> &mut Memory {
        &mut self.mem
    }

    /// All threads ever created, by id. Exited threads remain (ids are never
    /// reused).
    pub fn threads(&self) -> &[ThreadState] {
        &self.threads
    }

    /// One thread's state.
    ///
    /// # Panics
    ///
    /// Panics if `tid` was never created.
    pub fn thread(&self, tid: Tid) -> &ThreadState {
        &self.threads[tid.index()]
    }

    /// Mutable thread state (kernel use: e.g. signal delivery).
    pub fn thread_mut(&mut self, tid: Tid) -> &mut ThreadState {
        &mut self.threads[tid.index()]
    }

    /// Ids of threads currently able to execute.
    pub fn ready_tids(&self) -> Vec<Tid> {
        self.threads
            .iter()
            .filter(|t| t.is_ready())
            .map(|t| t.tid)
            .collect()
    }

    /// Number of threads not yet exited.
    pub fn live_threads(&self) -> usize {
        self.live
    }

    /// Exit code if the whole machine has halted (via the kernel).
    pub fn halted(&self) -> Option<Word> {
        self.halted
    }

    /// The first fault raised, if any.
    pub fn fault(&self) -> Option<&Fault> {
        self.fault.as_ref()
    }

    /// Creates a new thread running `func(args...)`. Returns its id.
    /// Thread ids are allocated densely and deterministically.
    pub fn spawn_thread(&mut self, func: FuncId, args: &[Word]) -> Tid {
        let tid = Tid(self.threads.len() as u32);
        let sp = initial_sp(tid.index());
        self.threads.push(ThreadState::new(tid, func, args, sp));
        self.live += 1;
        tid
    }

    /// Marks a thread exited (kernel `THREAD_EXIT` path).
    pub fn exit_thread(&mut self, tid: Tid, exit_value: Word) {
        let t = &mut self.threads[tid.index()];
        if !t.is_exited() {
            t.status = ThreadStatus::Exited;
            t.exit_value = exit_value;
            t.pending = None;
            self.live -= 1;
        }
    }

    /// Halts the whole machine with an exit code (kernel `EXIT` path).
    pub fn halt(&mut self, code: Word) {
        self.halted = Some(code);
        for t in &mut self.threads {
            if !t.is_exited() {
                t.status = ThreadStatus::Exited;
                t.pending = None;
                self.live -= 1;
            }
        }
    }

    /// Completes a pending syscall: writes `ret` to the thread's `r0` and
    /// makes it runnable again.
    ///
    /// # Panics
    ///
    /// Panics if the thread has no pending syscall (driver bug).
    pub fn complete_syscall(&mut self, tid: Tid, ret: Word) {
        let t = &mut self.threads[tid.index()];
        assert!(
            t.pending.is_some() && t.status == ThreadStatus::Waiting,
            "complete_syscall on {tid} with no pending syscall"
        );
        t.pending = None;
        t.regs[0] = ret;
        t.status = ThreadStatus::Ready;
    }

    /// Delivers a signal: pushes a transparent handler frame on `tid`.
    /// The thread must be `Ready` (drivers deliver at slice boundaries).
    pub fn push_signal_frame(&mut self, tid: Tid, handler: FuncId, args: &[Word]) {
        let t = &mut self.threads[tid.index()];
        assert!(t.is_ready(), "signal delivery to non-ready thread {tid}");
        t.enter_signal_call(handler, args);
    }

    /// Digest of the complete machine state: memory, every thread, and halt
    /// status. Two machines with equal hashes will behave identically given
    /// identical future schedules and syscall results.
    ///
    /// The memory contribution is incremental ([`Memory::state_digest`]):
    /// after the first call only pages written since the previous call are
    /// re-hashed, so epoch-boundary hashing costs O(pages dirtied this
    /// epoch), not O(resident footprint).
    pub fn state_hash(&self) -> u64 {
        self.hash_with_mem(self.mem.state_digest())
    }

    /// [`Machine::state_hash`] with the memory digest recomputed from
    /// scratch, bypassing the incremental cache. Always equal to
    /// `state_hash` — the correctness oracle and benchmark baseline.
    pub fn state_hash_scratch(&self) -> u64 {
        self.hash_with_mem(self.mem.state_digest_scratch())
    }

    fn hash_with_mem(&self, mem_digest: u64) -> u64 {
        let mut h = crate::hash::Fnv1a::new();
        h.write_u64(mem_digest);
        h.write_u64(self.threads.len() as u64);
        for t in &self.threads {
            t.hash_into(&mut h);
        }
        match self.halted {
            None => h.write_u32(0),
            Some(code) => {
                h.write_u32(1);
                h.write_u64(code);
            }
        }
        h.finish()
    }

    /// Converts the machine into a serializable image of its state.
    pub fn into_image(self) -> MachineImage {
        MachineImage {
            mem: self.mem,
            threads: self.threads,
            halted: self.halted,
            fault: self.fault,
        }
    }

    /// Reconstructs a machine from an image and the program it was running.
    pub fn from_image(program: Arc<Program>, image: MachineImage) -> Self {
        let live = image.threads.iter().filter(|t| !t.is_exited()).count();
        Machine {
            program,
            mem: image.mem,
            threads: image.threads,
            live,
            halted: image.halted,
            fault: image.fault,
            max_call_depth: DEFAULT_MAX_CALL_DEPTH,
        }
    }

    /// Executes exactly one instruction on `tid`.
    ///
    /// This is the reference semantics: [`Machine::run_slice`] executes the
    /// same per-instruction function in its loop, so a slice of `n`
    /// instructions is observably `n` steps.
    ///
    /// # Errors
    ///
    /// Returns the fault if the instruction faults, the thread is not
    /// runnable, or the machine has halted. An instruction's fault is also
    /// latched into [`Machine::fault`] and the thread is exited, so a
    /// faulted machine remains safe to inspect.
    pub fn step<O: MemObserver + ?Sized>(&mut self, tid: Tid, obs: &mut O) -> Result<Step, Fault> {
        if self.halted.is_some() || !self.threads[tid.index()].is_ready() {
            return Err(Fault::NotRunnable { tid });
        }
        let Machine {
            program,
            mem,
            threads,
            max_call_depth,
            ..
        } = self;
        let t = &mut threads[tid.index()];
        let mut cur = Cursor::load(program, t);
        let result = exec(t, &mut cur, mem, program, *max_call_depth, obs);
        cur.store(t);
        match result {
            Ok(Step::Exited) => {
                self.live -= 1;
                Ok(Step::Exited)
            }
            Ok(step) => Ok(step),
            Err(fault) => Err(self.latch(tid, fault)),
        }
    }

    /// Runs `tid` until a limit is hit, it traps, or it exits.
    ///
    /// Stops *before* executing an instruction that would exceed
    /// `limits.icount_target` (when the budget runs out at the same
    /// instruction, the stop is [`StopReason::IcountTarget`]); stops
    /// *after* a syscall instruction with the trap as the stop reason (the
    /// syscall is pending, not yet serviced).
    ///
    /// Equivalent to calling [`Machine::step`] once per instruction, but
    /// halt, readiness and the limits are checked once per slice, and the
    /// thread's pc index, icount and current code live in locals that go
    /// back into the thread once, when the slice ends. The observer is
    /// dispatched statically: with
    /// [`NullObserver`](crate::observer::NullObserver) its hooks compile
    /// away, and `&mut dyn MemObserver` still works.
    ///
    /// # Errors
    ///
    /// Returns the fault if the thread faults, or [`Fault::NotRunnable`]
    /// (not latched) if an instruction would run on a thread that is not
    /// ready or on a halted machine.
    pub fn run_slice<O: MemObserver + ?Sized>(
        &mut self,
        tid: Tid,
        limits: SliceLimits,
        obs: &mut O,
    ) -> Result<SliceRun, Fault> {
        let icount = self.threads[tid.index()].icount;
        let to_target = limits.icount_target.map(|target| {
            debug_assert!(icount <= target, "thread {tid} overshot icount target");
            target.saturating_sub(icount)
        });
        let (allowance, limit_stop) = match to_target {
            Some(n) if n <= limits.max_instrs => (n, StopReason::IcountTarget),
            _ => (limits.max_instrs, StopReason::Budget),
        };
        if allowance == 0 {
            return Ok(SliceRun {
                executed: 0,
                stop: limit_stop,
            });
        }
        if self.halted.is_some() || !self.threads[tid.index()].is_ready() {
            return Err(Fault::NotRunnable { tid });
        }
        let Machine {
            program,
            mem,
            threads,
            live,
            max_call_depth,
            ..
        } = self;
        let t = &mut threads[tid.index()];
        let mut cur = Cursor::load(program, t);
        // Every instruction that runs adds one to the icount, so the slice
        // ends at a fixed icount and the cursor is the only counter.
        let end = icount.saturating_add(allowance);
        let stop = loop {
            if cur.icount == end {
                break Ok(limit_stop);
            }
            match exec(t, &mut cur, mem, program, *max_call_depth, obs) {
                Ok(Step::Ran) => {}
                Ok(Step::RanAtomic { addr, wrote }) => {
                    if limits.stop_at_atomics {
                        break Ok(StopReason::Atomic { addr, wrote });
                    }
                }
                Ok(Step::Syscall(req)) => break Ok(StopReason::Syscall(req)),
                Ok(Step::Exited) => {
                    *live -= 1;
                    break Ok(StopReason::Exited);
                }
                Err(fault) => break Err(fault),
            }
        };
        cur.store(t);
        match stop {
            Ok(stop) => Ok(SliceRun {
                executed: cur.icount - icount,
                stop,
            }),
            Err(fault) => Err(self.latch(tid, fault)),
        }
    }

    /// Latches `fault` (the first one wins) and exits the faulting thread.
    fn latch(&mut self, tid: Tid, fault: Fault) -> Fault {
        self.fault.get_or_insert(fault.clone());
        self.exit_thread(tid, u64::MAX);
        fault
    }
}

/// The code of `func`, or no code if the function does not exist (the
/// next fetch then faults with [`fetch_fault`]).
fn code_of(program: &Program, func: FuncId) -> &[Instr] {
    program.function(func).map_or(&[], |f| &f.code)
}

/// The running thread's pc index and icount, and the code of its current
/// function, held in locals while [`Machine::step`] or
/// [`Machine::run_slice`] runs it. [`exec`] advances the cursor instead of
/// the [`ThreadState`], so the hot loop keeps all three in registers. The
/// thread's own `pc.idx` and `icount` are stale until [`Cursor::store`]
/// writes them back, once, when the step or slice ends, however it ends:
/// limit, atomic stop, syscall, exit or fault. Calls and returns, which
/// save or restore a pc in the thread's frames, hand the cursor's index
/// over explicitly and reload the cursor from the new frame.
struct Cursor<'p> {
    code: &'p [Instr],
    idx: u32,
    icount: u64,
}

impl<'p> Cursor<'p> {
    #[inline(always)]
    fn load(program: &'p Program, t: &ThreadState) -> Self {
        Cursor {
            code: code_of(program, t.pc.func),
            idx: t.pc.idx,
            icount: t.icount,
        }
    }

    #[inline(always)]
    fn store(&self, t: &mut ThreadState) {
        t.pc.idx = self.idx;
        t.icount = self.icount;
    }
}

/// `r`'s slot in a register file. [`Program::new`] refuses any register at
/// or above [`NUM_REGS`], so the mask never changes a register; it only lets
/// the compiler drop the per-operand bounds check.
#[inline(always)]
fn slot(r: Reg) -> usize {
    r.0 as usize % NUM_REGS
}

/// The fault for the pc `idx` in `t`'s current function, where there is no
/// instruction: the function does not exist, or execution ran off its end.
#[cold]
fn fetch_fault(program: &Program, t: &ThreadState, idx: u32) -> Fault {
    let func = t.pc.func;
    if program.function(func).is_none() {
        Fault::BadFunction {
            tid: t.tid,
            pc: Pc { func, idx },
            func,
        }
    } else {
        Fault::FellOffFunction { tid: t.tid, func }
    }
}

/// Executes one instruction of `t`, the interpreter's single definition of
/// instruction semantics. `cur` holds `t`'s pc index, icount and current
/// code (see [`Cursor`]); calls and returns repoint it. The caller owns the
/// machine-level effects: storing the cursor back, the live count on
/// [`Step::Exited`], and latching a fault.
#[inline(always)]
fn exec<'p, O: MemObserver + ?Sized>(
    t: &mut ThreadState,
    cur: &mut Cursor<'p>,
    mem: &mut Memory,
    program: &'p Program,
    max_call_depth: usize,
    obs: &mut O,
) -> Result<Step, Fault> {
    let idx = cur.idx;
    let Some(&instr) = cur.code.get(idx as usize) else {
        return Err(fetch_fault(program, t, idx));
    };

    // Advance pc and icount first; control flow overwrites pc below.
    cur.idx = idx + 1;
    cur.icount += 1;
    let tid = t.tid;
    let icount = cur.icount;
    let reg = |t: &ThreadState, r: Reg| t.regs[slot(r)];
    let src = |t: &ThreadState, s: Src| match s {
        Src::Reg(r) => t.regs[slot(r)],
        Src::Imm(v) => v as u64,
    };

    match instr {
        Instr::Nop => {}
        Instr::Const { dst, imm } => t.regs[slot(dst)] = imm,
        Instr::Mov { dst, src: s } => t.regs[slot(dst)] = src(t, s),
        Instr::Bin { op, dst, a, b } => {
            let Some(v) = op.eval(reg(t, a), src(t, b)) else {
                let pc = Pc {
                    func: t.pc.func,
                    idx,
                };
                return Err(Fault::DivideByZero { tid, pc });
            };
            t.regs[slot(dst)] = v;
        }
        Instr::Un { op, dst, a } => t.regs[slot(dst)] = op.eval(reg(t, a)),
        Instr::Load {
            dst,
            addr,
            offset,
            width,
        } => {
            let a = reg(t, addr).wrapping_add(offset as u64);
            let v = obs
                .intercept_load(tid, a, width)
                .unwrap_or_else(|| mem.read(a, width));
            t.regs[slot(dst)] = v;
            obs.on_access(Access {
                tid,
                icount,
                addr: a,
                width,
                kind: AccessKind::Read,
                value: v,
            });
        }
        Instr::Store {
            src: s,
            addr,
            offset,
            width,
        } => {
            let a = reg(t, addr).wrapping_add(offset as u64);
            let v = width.truncate(reg(t, s));
            mem.write(a, v, width);
            obs.on_access(Access {
                tid,
                icount,
                addr: a,
                width,
                kind: AccessKind::Write,
                value: v,
            });
        }
        Instr::Cas {
            dst,
            addr,
            expected,
            new,
        } => {
            let a = reg(t, addr);
            if let Some(old) = obs.intercept_atomic(tid, a) {
                t.regs[slot(dst)] = old;
                return Ok(Step::RanAtomic {
                    addr: a,
                    wrote: false,
                });
            }
            let old = mem.read(a, Width::W8);
            let wrote = old == reg(t, expected);
            if wrote {
                mem.write(a, reg(t, new), Width::W8);
            }
            t.regs[slot(dst)] = old;
            obs.on_access(Access {
                tid,
                icount,
                addr: a,
                width: Width::W8,
                kind: AccessKind::Atomic,
                value: old,
            });
            return Ok(Step::RanAtomic { addr: a, wrote });
        }
        Instr::FetchAdd { dst, addr, val } => {
            let a = reg(t, addr);
            if let Some(old) = obs.intercept_atomic(tid, a) {
                t.regs[slot(dst)] = old;
                return Ok(Step::RanAtomic {
                    addr: a,
                    wrote: false,
                });
            }
            let old = mem.read(a, Width::W8);
            mem.write(a, old.wrapping_add(src(t, val)), Width::W8);
            t.regs[slot(dst)] = old;
            obs.on_access(Access {
                tid,
                icount,
                addr: a,
                width: Width::W8,
                kind: AccessKind::Atomic,
                value: old,
            });
            return Ok(Step::RanAtomic {
                addr: a,
                wrote: true,
            });
        }
        Instr::Swap { dst, addr, val } => {
            let a = reg(t, addr);
            if let Some(old) = obs.intercept_atomic(tid, a) {
                t.regs[slot(dst)] = old;
                return Ok(Step::RanAtomic {
                    addr: a,
                    wrote: false,
                });
            }
            let old = mem.read(a, Width::W8);
            mem.write(a, reg(t, val), Width::W8);
            t.regs[slot(dst)] = old;
            obs.on_access(Access {
                tid,
                icount,
                addr: a,
                width: Width::W8,
                kind: AccessKind::Atomic,
                value: old,
            });
            return Ok(Step::RanAtomic {
                addr: a,
                wrote: true,
            });
        }
        Instr::Jmp { target } => cur.idx = target,
        Instr::Jnz { cond, target } => {
            if reg(t, cond) != 0 {
                cur.idx = target;
            }
        }
        Instr::Jz { cond, target } => {
            if reg(t, cond) == 0 {
                cur.idx = target;
            }
        }
        Instr::Call { func } => return call(t, cur, program, func, idx, max_call_depth),
        Instr::CallIndirect { func } => {
            let id = FuncId(reg(t, func) as u32);
            return call(t, cur, program, id, idx, max_call_depth);
        }
        Instr::Ret => {
            if !t.leave_call() {
                return Ok(Step::Exited);
            }
            cur.code = code_of(program, t.pc.func);
            cur.idx = t.pc.idx;
        }
        Instr::Syscall { num } => {
            let mut args = [0u64; 6];
            args.copy_from_slice(&t.regs[..6]);
            let req = SyscallRequest { tid, num, args };
            t.pending = Some(req);
            t.status = ThreadStatus::Waiting;
            return Ok(Step::Syscall(req));
        }
    }
    Ok(Step::Ran)
}

/// Enters `func` from the call at index `idx` of the current function,
/// saving the cursor's (already advanced) index as the return pc and
/// repointing the cursor at the callee's first instruction.
fn call<'p>(
    t: &mut ThreadState,
    cur: &mut Cursor<'p>,
    program: &'p Program,
    func: FuncId,
    idx: u32,
    max_call_depth: usize,
) -> Result<Step, Fault> {
    let pc = Pc {
        func: t.pc.func,
        idx,
    };
    let Some(callee) = program.function(func) else {
        return Err(Fault::BadFunction {
            tid: t.tid,
            pc,
            func,
        });
    };
    if t.frames.len() >= max_call_depth {
        return Err(Fault::StackOverflow { tid: t.tid, pc });
    }
    let ret_pc = Pc {
        func: pc.func,
        idx: cur.idx,
    };
    t.enter_call(func, ret_pc);
    cur.code = &callee.code;
    cur.idx = 0;
    Ok(Step::Ran)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::ProgramBuilder;
    use crate::instr::BinOp;
    use crate::observer::{CollectingObserver, NullObserver};
    use crate::value::Reg;

    /// A program whose main computes 6*7 into a global and returns it.
    fn mul_program() -> Arc<Program> {
        let mut pb = ProgramBuilder::new();
        let g = pb.global("answer", 8);
        let mut f = pb.function("main");
        f.consti(Reg(1), 6);
        f.consti(Reg(2), 7);
        f.bin(BinOp::Mul, Reg(0), Reg(1), Src::Reg(Reg(2)));
        f.consti(Reg(3), g as i64);
        f.store(Reg(0), Reg(3), 0, Width::W8);
        f.ret();
        f.finish();
        Arc::new(pb.finish("main"))
    }

    fn run_to_exit(m: &mut Machine, tid: Tid) -> SliceRun {
        m.run_slice(tid, SliceLimits::budget(1_000_000), &mut NullObserver)
            .unwrap()
    }

    #[test]
    fn straight_line_execution() {
        let mut m = Machine::new(mul_program(), &[]);
        let run = run_to_exit(&mut m, Tid(0));
        assert_eq!(run.stop, StopReason::Exited);
        assert_eq!(run.executed, 6);
        let g = m.program().symbol("answer").unwrap();
        assert_eq!(m.mem().read(g, Width::W8), 42);
        assert_eq!(m.thread(Tid(0)).exit_value, 42);
        assert_eq!(m.live_threads(), 0);
    }

    #[test]
    fn budget_stops_mid_run() {
        let mut m = Machine::new(mul_program(), &[]);
        let run = m
            .run_slice(Tid(0), SliceLimits::budget(3), &mut NullObserver)
            .unwrap();
        assert_eq!(run.stop, StopReason::Budget);
        assert_eq!(run.executed, 3);
        assert_eq!(m.thread(Tid(0)).icount, 3);
        // Resuming finishes the program identically.
        let run = run_to_exit(&mut m, Tid(0));
        assert_eq!(run.stop, StopReason::Exited);
        assert_eq!(m.thread(Tid(0)).exit_value, 42);
    }

    #[test]
    fn icount_target_is_exact() {
        let mut m = Machine::new(mul_program(), &[]);
        let run = m
            .run_slice(
                Tid(0),
                SliceLimits {
                    max_instrs: 1000,
                    icount_target: Some(4),
                    stop_at_atomics: false,
                },
                &mut NullObserver,
            )
            .unwrap();
        assert_eq!(run.stop, StopReason::IcountTarget);
        assert_eq!(m.thread(Tid(0)).icount, 4);
    }

    #[test]
    fn determinism_same_slices_same_hash() {
        let p = mul_program();
        let mut a = Machine::new(p.clone(), &[]);
        let mut b = Machine::new(p, &[]);
        // Different slice boundaries, same final state.
        run_to_exit(&mut a, Tid(0));
        for _ in 0..6 {
            let _ = b.run_slice(Tid(0), SliceLimits::budget(1), &mut NullObserver);
        }
        assert_eq!(a.state_hash(), b.state_hash());
    }

    #[test]
    fn observer_sees_the_store() {
        let mut m = Machine::new(mul_program(), &[]);
        let mut obs = CollectingObserver::default();
        m.run_slice(Tid(0), SliceLimits::budget(100), &mut obs)
            .unwrap();
        assert_eq!(obs.accesses.len(), 1);
        let a = obs.accesses[0];
        assert_eq!(a.kind, AccessKind::Write);
        assert_eq!(a.value, 42);
        assert_eq!(a.addr, m.program().symbol("answer").unwrap());
    }

    #[test]
    fn intercepted_atomic_skips_memory_and_the_access_report() {
        /// Feeds every atomic the value 9, as value-logging replay does.
        struct Feed(CollectingObserver);
        impl MemObserver for Feed {
            fn on_access(&mut self, access: Access) {
                self.0.on_access(access);
            }
            fn intercept_atomic(&mut self, _tid: Tid, _addr: Word) -> Option<Word> {
                Some(9)
            }
        }
        let mut pb = ProgramBuilder::new();
        let g = pb.global("counter", 8);
        let mut f = pb.function("main");
        f.consti(Reg(1), g as i64);
        f.consti(Reg(2), 0);
        f.consti(Reg(3), 5);
        f.cas(Reg(4), Reg(1), Reg(2), Reg(3));
        f.fetch_add(Reg(5), Reg(1), Src::Imm(5));
        f.swap(Reg(6), Reg(1), Reg(3));
        f.ret();
        f.finish();
        let mut m = Machine::new(Arc::new(pb.finish("main")), &[]);
        let mut obs = Feed(CollectingObserver::default());
        let limits = SliceLimits::budget(100).stopping_at_atomics();
        for dst in 4..=6 {
            let run = m.run_slice(Tid(0), limits, &mut obs).unwrap();
            assert_eq!(
                run.stop,
                StopReason::Atomic {
                    addr: g,
                    wrote: false
                }
            );
            assert_eq!(m.thread(Tid(0)).regs[dst], 9);
        }
        assert_eq!(m.mem().read(g, Width::W8), 0);
        assert!(obs.0.accesses.is_empty());
    }

    #[test]
    fn syscall_traps_and_resumes() {
        let mut pb = ProgramBuilder::new();
        let mut f = pb.function("main");
        f.consti(Reg(0), 123);
        f.syscall(9); // arbitrary number; kernel is the test below
        f.bin(BinOp::Add, Reg(0), Reg(0), Src::Imm(1));
        f.ret();
        f.finish();
        let p = Arc::new(pb.finish("main"));
        let mut m = Machine::new(p, &[]);
        let run = m
            .run_slice(Tid(0), SliceLimits::budget(100), &mut NullObserver)
            .unwrap();
        let req = match run.stop {
            StopReason::Syscall(r) => r,
            other => panic!("expected syscall, got {other:?}"),
        };
        assert_eq!(req.num, 9);
        assert_eq!(req.args[0], 123);
        assert_eq!(m.thread(Tid(0)).status, ThreadStatus::Waiting);
        // Thread cannot run while waiting.
        assert!(m.step(Tid(0), &mut NullObserver).is_err());
        m.complete_syscall(Tid(0), 1000);
        let run = run_to_exit(&mut m, Tid(0));
        assert_eq!(run.stop, StopReason::Exited);
        assert_eq!(m.thread(Tid(0)).exit_value, 1001);
    }

    #[test]
    fn fault_poisons_thread_not_machine() {
        let mut pb = ProgramBuilder::new();
        let mut f = pb.function("main");
        f.consti(Reg(1), 1);
        f.consti(Reg(2), 0);
        f.bin(BinOp::Divu, Reg(0), Reg(1), Src::Reg(Reg(2)));
        f.ret();
        f.finish();
        let p = Arc::new(pb.finish("main"));
        let mut m = Machine::new(p, &[]);
        let err = m
            .run_slice(Tid(0), SliceLimits::budget(100), &mut NullObserver)
            .unwrap_err();
        assert!(matches!(err, Fault::DivideByZero { .. }));
        assert!(m.fault().is_some());
        assert!(m.thread(Tid(0)).is_exited());
    }

    #[test]
    fn spawn_threads_get_distinct_stacks() {
        let p = mul_program();
        let mut m = Machine::new(p.clone(), &[]);
        let entry = p.entry();
        let t1 = m.spawn_thread(entry, &[5]);
        let t2 = m.spawn_thread(entry, &[6]);
        assert_eq!(t1, Tid(1));
        assert_eq!(t2, Tid(2));
        assert_ne!(m.thread(t1).regs[31], m.thread(t2).regs[31]);
        assert_eq!(m.thread(t1).regs[0], 5);
        assert_eq!(m.live_threads(), 3);
    }

    #[test]
    fn halt_exits_everything() {
        let p = mul_program();
        let mut m = Machine::new(p.clone(), &[]);
        m.spawn_thread(p.entry(), &[]);
        m.halt(3);
        assert_eq!(m.halted(), Some(3));
        assert_eq!(m.live_threads(), 0);
        assert!(m.step(Tid(0), &mut NullObserver).is_err());
    }

    #[test]
    fn clone_is_a_checkpoint() {
        let mut m = Machine::new(mul_program(), &[]);
        m.run_slice(Tid(0), SliceLimits::budget(2), &mut NullObserver)
            .unwrap();
        let snap = m.clone();
        run_to_exit(&mut m, Tid(0));
        assert_ne!(snap.state_hash(), m.state_hash());
        // Resume the snapshot: identical end state.
        let mut resumed = snap;
        run_to_exit(&mut resumed, Tid(0));
        assert_eq!(resumed.state_hash(), m.state_hash());
    }

    #[test]
    fn state_hash_covers_halt_flag() {
        let m1 = Machine::new(mul_program(), &[]);
        let mut m2 = Machine::new(mul_program(), &[]);
        m2.halt(0);
        assert_ne!(m1.state_hash(), m2.state_hash());
    }

    #[test]
    fn image_roundtrip_preserves_state() {
        let p = mul_program();
        let mut m = Machine::new(p.clone(), &[]);
        m.run_slice(Tid(0), SliceLimits::budget(3), &mut NullObserver)
            .unwrap();
        let image = m.clone().into_image();
        let restored = Machine::from_image(p, image);
        assert_eq!(restored.state_hash(), m.state_hash());
        assert_eq!(restored.live_threads(), m.live_threads());
        // And the restored machine continues identically.
        let mut a = m;
        let mut b = restored;
        run_to_exit(&mut a, Tid(0));
        run_to_exit(&mut b, Tid(0));
        assert_eq!(a.state_hash(), b.state_hash());
    }

    #[test]
    fn stack_overflow_faults() {
        let mut pb = ProgramBuilder::new();
        let mut f = pb.function("main");
        let self_id = f.id();
        f.call(self_id);
        f.ret();
        f.finish();
        let p = Arc::new(pb.finish("main"));
        let mut m = Machine::new(p, &[]);
        let err = m
            .run_slice(Tid(0), SliceLimits::budget(1_000_000), &mut NullObserver)
            .unwrap_err();
        assert!(matches!(err, Fault::StackOverflow { .. }));
    }
}
