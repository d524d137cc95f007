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

use crate::error::Fault;
use crate::instr::Instr;
use crate::memory::Memory;
use crate::observer::{Access, AccessKind, MemObserver};
use crate::program::{initial_sp, FuncId, Program};
use crate::thread::{Pc, SyscallRequest, ThreadState, ThreadStatus};
use crate::value::{Src, Tid, Width, Word};
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

impl Wire for MachineImage {
    fn put(&self, out: &mut Vec<u8>) {
        self.mem.put(out);
        self.put_rest(out);
    }

    fn get(r: &mut Reader<'_>) -> Result<Self, WireError> {
        let mem = Memory::get(r)?;
        Self::get_rest(mem, r)
    }
}

impl MachineImage {
    /// Appends the delta that turns `base` into `self`: memory as a page
    /// delta ([`Memory::put_delta`]), the thread table and halt/fault
    /// state whole.
    pub fn put_delta(&self, base: &MachineImage, out: &mut Vec<u8>) {
        self.mem.put_delta(&base.mem, out);
        self.put_rest(out);
    }

    /// Applies a [`put_delta`](MachineImage::put_delta) encoding to
    /// `base`.
    ///
    /// # Errors
    ///
    /// A [`WireError`] for malformed or truncated input; never a panic.
    pub fn get_delta(base: &MachineImage, r: &mut Reader<'_>) -> Result<Self, WireError> {
        let mem = Memory::get_delta(&base.mem, r)?;
        Self::get_rest(mem, r)
    }

    /// Every field after `mem`, in wire order (shared by both encodings).
    fn put_rest(&self, out: &mut Vec<u8>) {
        self.threads.put(out);
        self.halted.put(out);
        self.fault.put(out);
    }

    fn get_rest(mem: Memory, r: &mut Reader<'_>) -> Result<Self, WireError> {
        Ok(MachineImage {
            mem,
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

    /// Captures a serializable image of the machine state.
    pub fn image(&self) -> MachineImage {
        MachineImage {
            mem: self.mem.clone(),
            threads: self.threads.clone(),
            halted: self.halted,
            fault: self.fault.clone(),
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
    /// # Errors
    ///
    /// Returns the fault if the instruction faults, the thread is not
    /// runnable, or the machine has halted. The fault is also latched into
    /// [`Machine::fault`] and the thread is exited, so a faulted machine
    /// remains safe to inspect.
    pub fn step(&mut self, tid: Tid, obs: &mut dyn MemObserver) -> Result<Step, Fault> {
        if self.halted.is_some() || !self.threads[tid.index()].is_ready() {
            return Err(Fault::NotRunnable { tid });
        }
        match self.exec_one(tid, obs) {
            Ok(step) => Ok(step),
            Err(fault) => {
                self.fault.get_or_insert(fault.clone());
                self.exit_thread(tid, u64::MAX);
                Err(fault)
            }
        }
    }

    /// Runs `tid` until a limit is hit, it traps, or it exits.
    ///
    /// Stops *before* executing an instruction that would exceed
    /// `limits.icount_target`; stops *after* a syscall instruction with the
    /// trap as the stop reason (the syscall is pending, not yet serviced).
    ///
    /// # Errors
    ///
    /// Returns the fault if the thread faults or is not runnable.
    pub fn run_slice(
        &mut self,
        tid: Tid,
        limits: SliceLimits,
        obs: &mut dyn MemObserver,
    ) -> Result<SliceRun, Fault> {
        let mut executed = 0u64;
        loop {
            if let Some(target) = limits.icount_target {
                let ic = self.threads[tid.index()].icount;
                debug_assert!(ic <= target, "thread {tid} overshot icount target");
                if ic >= target {
                    return Ok(SliceRun {
                        executed,
                        stop: StopReason::IcountTarget,
                    });
                }
            }
            if executed >= limits.max_instrs {
                return Ok(SliceRun {
                    executed,
                    stop: StopReason::Budget,
                });
            }
            match self.step(tid, obs)? {
                Step::Ran => executed += 1,
                Step::RanAtomic { addr, wrote } => {
                    executed += 1;
                    if limits.stop_at_atomics {
                        return Ok(SliceRun {
                            executed,
                            stop: StopReason::Atomic { addr, wrote },
                        });
                    }
                }
                Step::Syscall(req) => {
                    return Ok(SliceRun {
                        executed: executed + 1,
                        stop: StopReason::Syscall(req),
                    })
                }
                Step::Exited => {
                    return Ok(SliceRun {
                        executed: executed + 1,
                        stop: StopReason::Exited,
                    })
                }
            }
        }
    }

    fn reg(&self, tid: Tid, r: crate::value::Reg) -> Word {
        self.threads[tid.index()].regs[r.index()]
    }

    fn src(&self, tid: Tid, s: Src) -> Word {
        match s {
            Src::Reg(r) => self.reg(tid, r),
            Src::Imm(v) => v as u64,
        }
    }

    fn exec_one(&mut self, tid: Tid, obs: &mut dyn MemObserver) -> Result<Step, Fault> {
        let pc = self.threads[tid.index()].pc;
        let func = self.program.function(pc.func).ok_or(Fault::BadFunction {
            tid,
            pc,
            func: pc.func,
        })?;
        let instr = match func.code.get(pc.idx as usize) {
            Some(i) => *i,
            None => return Err(Fault::FellOffFunction { tid, func: pc.func }),
        };

        // Advance pc and icount first; control flow overwrites pc below.
        {
            let t = &mut self.threads[tid.index()];
            t.pc.idx += 1;
            t.icount += 1;
        }
        let icount = self.threads[tid.index()].icount;

        macro_rules! set_reg {
            ($r:expr, $v:expr) => {{
                let v = $v;
                self.threads[tid.index()].regs[$r.index()] = v;
            }};
        }

        match instr {
            Instr::Nop => {}
            Instr::Const { dst, imm } => set_reg!(dst, imm),
            Instr::Mov { dst, src } => set_reg!(dst, self.src(tid, src)),
            Instr::Bin { op, dst, a, b } => {
                let va = self.reg(tid, a);
                let vb = self.src(tid, b);
                let v = op.eval(va, vb).ok_or(Fault::DivideByZero { tid, pc })?;
                set_reg!(dst, v);
            }
            Instr::Un { op, dst, a } => {
                let v = op.eval(self.reg(tid, a));
                set_reg!(dst, v);
            }
            Instr::Load {
                dst,
                addr,
                offset,
                width,
            } => {
                let a = self.reg(tid, addr).wrapping_add(offset as u64);
                let v = obs
                    .intercept_load(tid, a, width)
                    .unwrap_or_else(|| self.mem.read(a, width));
                set_reg!(dst, v);
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
                src,
                addr,
                offset,
                width,
            } => {
                let a = self.reg(tid, addr).wrapping_add(offset as u64);
                let v = width.truncate(self.reg(tid, src));
                self.mem.write(a, v, width);
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
                let a = self.reg(tid, addr);
                if let Some(old) = obs.intercept_atomic(tid, a) {
                    set_reg!(dst, old);
                    return Ok(Step::RanAtomic {
                        addr: a,
                        wrote: false,
                    });
                }
                let old = self.mem.read(a, Width::W8);
                let wrote = old == self.reg(tid, expected);
                if wrote {
                    let nv = self.reg(tid, new);
                    self.mem.write(a, nv, Width::W8);
                }
                set_reg!(dst, old);
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
                let a = self.reg(tid, addr);
                if let Some(old) = obs.intercept_atomic(tid, a) {
                    set_reg!(dst, old);
                    return Ok(Step::RanAtomic {
                        addr: a,
                        wrote: false,
                    });
                }
                let old = self.mem.read(a, Width::W8);
                let add = self.src(tid, val);
                self.mem.write(a, old.wrapping_add(add), Width::W8);
                set_reg!(dst, old);
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
                let a = self.reg(tid, addr);
                if let Some(old) = obs.intercept_atomic(tid, a) {
                    set_reg!(dst, old);
                    return Ok(Step::RanAtomic {
                        addr: a,
                        wrote: false,
                    });
                }
                let old = self.mem.read(a, Width::W8);
                let nv = self.reg(tid, val);
                self.mem.write(a, nv, Width::W8);
                set_reg!(dst, old);
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
            Instr::Jmp { target } => {
                self.threads[tid.index()].pc.idx = target;
            }
            Instr::Jnz { cond, target } => {
                if self.reg(tid, cond) != 0 {
                    self.threads[tid.index()].pc.idx = target;
                }
            }
            Instr::Jz { cond, target } => {
                if self.reg(tid, cond) == 0 {
                    self.threads[tid.index()].pc.idx = target;
                }
            }
            Instr::Call { func } => return self.do_call(tid, func, pc),
            Instr::CallIndirect { func } => {
                let id = FuncId(self.reg(tid, func) as u32);
                return self.do_call(tid, id, pc);
            }
            Instr::Ret => {
                let t = &mut self.threads[tid.index()];
                if !t.leave_call() {
                    self.live -= 1;
                    return Ok(Step::Exited);
                }
            }
            Instr::Syscall { num } => {
                let t = &mut self.threads[tid.index()];
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

    fn do_call(&mut self, tid: Tid, func: FuncId, pc: Pc) -> Result<Step, Fault> {
        if self.program.function(func).is_none() {
            return Err(Fault::BadFunction { tid, pc, func });
        }
        let t = &mut self.threads[tid.index()];
        if t.frames.len() >= self.max_call_depth {
            return Err(Fault::StackOverflow { tid, pc });
        }
        let ret_pc = t.pc; // already advanced past the call
        t.enter_call(func, ret_pc);
        Ok(Step::Ran)
    }
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
        let image = m.image();
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
