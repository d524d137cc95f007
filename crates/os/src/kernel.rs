//! The simulated kernel: syscall dispatch, blocking and wakeups, virtual
//! timers, signals, and the speculative external-output journal.
//!
//! A `Kernel` pairs with one [`dp_vm::Machine`] but is owned by the driver,
//! not the machine, because DoublePlay snapshots and rolls back *both*
//! together: a checkpoint is `(Machine, Kernel)` and restoring it undoes
//! every speculative kernel effect — the role Speculator plays in the paper.
//!
//! The kernel performs all machine mutations for syscalls it executes
//! (spawning threads, completing syscalls, halting), so drivers only decide
//! *scheduling*: which thread runs next and when virtual time advances.
//! Record/replay layers that consume logged results instead bypass
//! [`Kernel::handle`] entirely and complete syscalls on the machine
//! themselves.

use dp_vm::{FuncId, Machine, SyscallRequest, ThreadStatus, Tid, Word};
use std::collections::{BTreeMap, VecDeque};

use crate::abi::{self, err, ECONNRESET, EINVAL, EIO, ENOSYS};
use crate::cost::CostModel;
use crate::faults::IoFaults;
use crate::fs::SimFs;
use crate::net::{NetConfig, NetPoll, SimNet};

/// Destination of a chunk of external (world-visible) output.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ExternalDest {
    /// The console stream.
    Console,
    /// An outbound peer connection (socket fd).
    Socket(u32),
}

/// One chunk of external output, buffered speculatively until the epoch
/// that produced it commits.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ExternalChunk {
    /// Where the bytes go.
    pub dest: ExternalDest,
    /// The bytes.
    pub bytes: Vec<u8>,
}

/// The full observable outcome of a completed syscall — exactly what must
/// be logged so the epoch-parallel execution and the replayer can reproduce
/// it without a kernel.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SyscallEffect {
    /// Bytes the kernel wrote into guest memory (e.g. `recv` data).
    pub guest_writes: Vec<(Word, Vec<u8>)>,
    /// External output produced (e.g. `send` payload).
    pub external: Vec<ExternalChunk>,
}

impl SyscallEffect {
    /// Total bytes moved (for cost accounting and log sizing).
    pub fn bytes(&self) -> u64 {
        self.guest_writes
            .iter()
            .map(|(_, b)| b.len() as u64)
            .sum::<u64>()
            + self
                .external
                .iter()
                .map(|c| c.bytes.len() as u64)
                .sum::<u64>()
    }
}

/// How a syscall left the calling thread.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Disposition {
    /// Completed; the result has been written to the thread's `r0` and the
    /// thread is runnable again.
    Done {
        /// The value returned to the guest.
        ret: Word,
    },
    /// The thread is blocked; a later [`Wake`] will complete it.
    Blocked,
    /// The calling thread exited (`thread_exit`).
    ThreadExited,
    /// The whole machine halted (`exit`).
    Halted {
        /// Machine exit code.
        code: Word,
    },
}

/// A deferred syscall completion (blocked thread woken).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Wake {
    /// Thread whose syscall completed.
    pub tid: Tid,
    /// Syscall number that had blocked.
    pub num: u32,
    /// The original request that blocked (recorders digest its arguments).
    pub req: SyscallRequest,
    /// Result returned to the guest.
    pub ret: Word,
    /// Observable side effects delivered at wake time.
    pub effect: SyscallEffect,
}

/// Everything [`Kernel::handle`] tells the driver about one syscall.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SysOutcome {
    /// What happened to the calling thread.
    pub disposition: Disposition,
    /// Simulated cycles charged for the call.
    pub cost: u64,
    /// Observable effects of an immediately-completed call.
    pub effect: SyscallEffect,
    /// Other threads whose blocked syscalls completed as a consequence
    /// (futex wakes, request arrivals, ...). Already applied to the machine.
    pub wakes: Vec<Wake>,
}

/// Cumulative kernel statistics (workload characterization, Table 1).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct KernelStats {
    /// Total syscalls serviced.
    pub syscalls: u64,
    /// Syscalls in the logged (nondeterministic) class.
    pub logged_syscalls: u64,
    /// Futex waits that actually blocked.
    pub futex_blocks: u64,
    /// Bytes moved by logged-class syscalls (log payload estimate).
    pub logged_bytes: u64,
    /// Injected I/O faults actually delivered to the guest (failures,
    /// short reads, connection resets). Diagnostic only: never part of
    /// divergence checks, and it rolls back with checkpoints, so the
    /// final value counts faults on the committed timeline.
    pub injected_faults: u64,
}

/// Declarative description of the world a guest runs in.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct WorldConfig {
    /// Files present before execution.
    pub files: Vec<(String, Vec<u8>)>,
    /// The external network script.
    pub net: NetConfig,
    /// Seed for the kernel entropy stream (`SYS_RANDOM`).
    pub rng_seed: u64,
    /// The cost model used for cycle accounting.
    pub cost: CostModel,
    /// Deterministic syscall fault-injection plan (default: no faults).
    pub faults: IoFaults,
}

/// The simulated kernel. `Clone` is a checkpoint of all kernel state.
#[derive(Debug, Clone, PartialEq)]
pub struct Kernel {
    fs: SimFs,
    net: SimNet,
    rng_state: u64,
    brk: Word,
    cost: CostModel,
    faults: IoFaults,
    futex: BTreeMap<Word, VecDeque<Tid>>,
    join_waiters: BTreeMap<Tid, Vec<Tid>>,
    sleepers: BTreeMap<(u64, Tid), ()>,
    net_blocked: BTreeMap<Tid, SyscallRequest>,
    /// The request each currently-blocked thread trapped with (uniform
    /// bookkeeping across futex/join/sleep/net blocking).
    blocked_reqs: BTreeMap<Tid, SyscallRequest>,
    sig_handlers: BTreeMap<Word, FuncId>,
    sig_pending: BTreeMap<Tid, VecDeque<Word>>,
    external: Vec<ExternalChunk>,
    /// Cumulative statistics.
    pub stats: KernelStats,
}

impl Kernel {
    /// Builds a kernel from a world description.
    pub fn new(config: WorldConfig) -> Self {
        let mut fs = SimFs::new();
        for (path, contents) in config.files {
            fs.preload(&path, contents);
        }
        Kernel {
            fs,
            net: SimNet::new(config.net),
            rng_state: config.rng_seed ^ 0x9e37_79b9_7f4a_7c15,
            brk: dp_vm::HEAP_BASE,
            cost: config.cost,
            faults: config.faults,
            futex: BTreeMap::new(),
            join_waiters: BTreeMap::new(),
            sleepers: BTreeMap::new(),
            net_blocked: BTreeMap::new(),
            blocked_reqs: BTreeMap::new(),
            sig_handlers: BTreeMap::new(),
            sig_pending: BTreeMap::new(),
            external: Vec::new(),
            stats: KernelStats::default(),
        }
    }

    /// The cost model in effect.
    pub fn cost_model(&self) -> &CostModel {
        &self.cost
    }

    /// Replaces the syscall fault-injection plan. Recorders call this at
    /// boot so the plan rides inside every checkpoint and replay sees the
    /// same injected faults.
    pub fn set_io_faults(&mut self, faults: IoFaults) {
        self.faults = faults;
    }

    /// The syscall fault-injection plan in effect.
    pub fn io_faults(&self) -> &IoFaults {
        &self.faults
    }

    /// Read access to the filesystem (verification in tests/examples).
    pub fn fs(&self) -> &SimFs {
        &self.fs
    }

    /// Read access to the network (verification in tests/examples).
    pub fn net(&self) -> &SimNet {
        &self.net
    }

    /// Drains the buffered external output (the commit step).
    pub fn take_external(&mut self) -> Vec<ExternalChunk> {
        std::mem::take(&mut self.external)
    }

    /// Buffered external output without draining.
    pub fn external(&self) -> &[ExternalChunk] {
        &self.external
    }

    /// Earliest future event the kernel knows about (sleep deadline or
    /// scripted client arrival relevant to a blocked accept), after `now`.
    /// Drivers use this to advance virtual time when all threads are idle.
    pub fn next_event_time(&self, now: u64) -> Option<u64> {
        let sleep = self.sleepers.keys().map(|(d, _)| *d).find(|&d| d > now);
        let net = if self.net_blocked.is_empty() {
            None
        } else {
            self.net.next_event_after(now)
        };
        match (sleep, net) {
            (Some(a), Some(b)) => Some(a.min(b)),
            (a, b) => a.or(b),
        }
    }

    /// Advances virtual time: expires due sleepers and retries blocked
    /// network operations. Returns the completions performed.
    pub fn advance_time(&mut self, machine: &mut Machine, now: u64) -> Vec<Wake> {
        let mut wakes = Vec::new();
        let due: Vec<(u64, Tid)> = self
            .sleepers
            .keys()
            .copied()
            .filter(|(d, _)| *d <= now)
            .collect();
        for key in due {
            self.sleepers.remove(&key);
            let tid = key.1;
            if self.complete(machine, tid, 0) {
                let req = self.take_blocked_req(tid, abi::SYS_SLEEP);
                wakes.push(Wake {
                    tid,
                    num: abi::SYS_SLEEP,
                    req,
                    ret: 0,
                    effect: SyscallEffect::default(),
                });
            }
        }
        self.retry_net(machine, now, &mut wakes);
        wakes
    }

    /// Notifies the kernel that `tid` exited by returning from its bottom
    /// frame (no syscall involved); wakes its joiners.
    pub fn on_thread_exited(&mut self, machine: &mut Machine, tid: Tid) -> Vec<Wake> {
        let mut wakes = Vec::new();
        self.wake_joiners(machine, tid, &mut wakes);
        wakes
    }

    /// Pops one pending signal for `tid` if a handler is installed.
    /// The driver delivers it with [`dp_vm::Machine::push_signal_frame`].
    pub fn take_pending_signal(&mut self, tid: Tid) -> Option<(Word, FuncId)> {
        let queue = self.sig_pending.get_mut(&tid)?;
        while let Some(sig) = queue.pop_front() {
            if let Some(&handler) = self.sig_handlers.get(&sig) {
                return Some((sig, handler));
            }
        }
        None
    }

    /// True if any thread has a deliverable pending signal (driver fast path).
    pub fn has_pending_signals(&self) -> bool {
        self.sig_pending
            .values()
            .any(|q| q.iter().any(|s| self.sig_handlers.contains_key(s)))
    }

    /// Services a syscall trap. All machine mutations (thread spawn/exit,
    /// completion, halt) are performed here; the driver handles scheduling
    /// and cycle accounting using the returned cost.
    ///
    /// # Panics
    ///
    /// Panics if `req` does not match a thread in `Waiting` state (driver
    /// bug).
    pub fn handle(&mut self, machine: &mut Machine, req: SyscallRequest, now: u64) -> SysOutcome {
        let tid = req.tid;
        assert_eq!(
            machine.thread(tid).status,
            ThreadStatus::Waiting,
            "syscall from non-waiting thread"
        );
        self.stats.syscalls += 1;
        if abi::is_logged(req.num) {
            self.stats.logged_syscalls += 1;
        }
        let mut effect = SyscallEffect::default();
        let mut wakes = Vec::new();
        let mut cost_bytes = 0u64;
        let a = req.args;
        // Fault decisions key on the thread's icount at the trap, which is a
        // property of the guest's own execution path — so the same trap is
        // failed (or not) identically in every run that reaches it.
        let icount = machine.thread(tid).icount;

        let disposition = match req.num {
            abi::SYS_EXIT => {
                machine.halt(a[0]);
                // Halting exits every thread; blocked bookkeeping is moot.
                Disposition::Halted { code: a[0] }
            }
            abi::SYS_SPAWN => {
                let func = FuncId(a[0] as u32);
                if machine.program().function(func).is_none() {
                    self.finish(machine, tid, err(EINVAL))
                } else {
                    let new_tid = machine.spawn_thread(func, &[a[1], a[2]]);
                    self.finish(machine, tid, new_tid.0 as Word)
                }
            }
            abi::SYS_THREAD_EXIT => {
                machine.exit_thread(tid, a[0]);
                self.wake_joiners(machine, tid, &mut wakes);
                Disposition::ThreadExited
            }
            abi::SYS_JOIN => {
                let target = Tid(a[0] as u32);
                if target.index() >= machine.threads().len() || target == tid {
                    self.finish(machine, tid, err(EINVAL))
                } else if machine.thread(target).is_exited() {
                    let v = machine.thread(target).exit_value;
                    self.finish(machine, tid, v)
                } else {
                    self.join_waiters.entry(target).or_default().push(tid);
                    Disposition::Blocked
                }
            }
            abi::SYS_YIELD => self.finish(machine, tid, 0),
            abi::SYS_FUTEX_WAIT => {
                let addr = a[0];
                let expected = a[1];
                if machine.mem().read(addr, dp_vm::Width::W8) != expected {
                    self.finish(machine, tid, 1)
                } else {
                    self.futex.entry(addr).or_default().push_back(tid);
                    self.stats.futex_blocks += 1;
                    Disposition::Blocked
                }
            }
            abi::SYS_FUTEX_WAKE => {
                let addr = a[0];
                let count = a[1];
                let mut woken = 0u64;
                while woken < count {
                    let next = self.futex.get_mut(&addr).and_then(|q| q.pop_front());
                    match next {
                        Some(w) => {
                            if self.complete(machine, w, 0) {
                                let req = self.take_blocked_req(w, abi::SYS_FUTEX_WAIT);
                                wakes.push(Wake {
                                    tid: w,
                                    num: abi::SYS_FUTEX_WAIT,
                                    req,
                                    ret: 0,
                                    effect: SyscallEffect::default(),
                                });
                                woken += 1;
                            }
                        }
                        None => break,
                    }
                }
                if self.futex.get(&addr).is_some_and(|q| q.is_empty()) {
                    self.futex.remove(&addr);
                }
                self.finish(machine, tid, woken)
            }
            abi::SYS_GETTID => self.finish(machine, tid, tid.0 as Word),
            abi::SYS_CLOCK => self.finish(machine, tid, now),
            abi::SYS_SLEEP => {
                let deadline = now.saturating_add(a[0]);
                self.sleepers.insert((deadline, tid), ());
                Disposition::Blocked
            }
            abi::SYS_RANDOM => {
                let v = self.next_random();
                self.finish(machine, tid, v)
            }
            abi::SYS_SBRK => {
                let old = self.brk;
                self.brk = self.brk.saturating_add(a[0]);
                self.finish(machine, tid, old)
            }
            abi::SYS_OPEN => {
                let path = self.read_path(machine, a[0], a[1]);
                let ret = if self.faults.fail(tid.0, icount, req.num) {
                    self.stats.injected_faults += 1;
                    err(EIO)
                } else {
                    match self.fs.open(&path, a[2]) {
                        Ok(fd) => fd as Word,
                        Err(e) => err(e),
                    }
                };
                self.finish(machine, tid, ret)
            }
            abi::SYS_CLOSE => {
                let ret = match self.fs.close(a[0] as u32) {
                    Ok(()) => 0,
                    Err(e) => err(e),
                };
                self.finish(machine, tid, ret)
            }
            abi::SYS_READ => {
                // A short read shrinks the requested length up front, so the
                // fd offset stays consistent with the bytes delivered.
                let len = match self.faults.short_len(tid.0, icount, req.num, a[2]) {
                    Some(short) => {
                        self.stats.injected_faults += 1;
                        short
                    }
                    None => a[2],
                };
                let ret = if self.faults.fail(tid.0, icount, req.num) {
                    self.stats.injected_faults += 1;
                    err(EIO)
                } else {
                    match self.fs.read(a[0] as u32, len) {
                        Ok(data) => {
                            cost_bytes = data.len() as u64;
                            machine.mem_mut().write_bytes(a[1], &data);
                            // Filesystem state is part of the checkpointed
                            // world, so reads are re-executed rather than
                            // logged; the effect is still reported for
                            // instrumentation.
                            let n = data.len() as Word;
                            effect.guest_writes.push((a[1], data));
                            n
                        }
                        Err(e) => err(e),
                    }
                };
                self.finish(machine, tid, ret)
            }
            abi::SYS_WRITE => {
                let data = machine.mem().read_bytes(a[1], a[2] as usize);
                cost_bytes = data.len() as u64;
                let ret = match self.fs.write(a[0] as u32, &data) {
                    Ok(n) => n,
                    Err(e) => err(e),
                };
                self.finish(machine, tid, ret)
            }
            abi::SYS_LSEEK => {
                let ret = match self.fs.lseek(a[0] as u32, a[1] as i64, a[2]) {
                    Ok(off) => off,
                    Err(e) => err(e),
                };
                self.finish(machine, tid, ret)
            }
            abi::SYS_FSIZE => {
                let ret = match self.fs.fsize(a[0] as u32) {
                    Ok(n) => n,
                    Err(e) => err(e),
                };
                self.finish(machine, tid, ret)
            }
            abi::SYS_UNLINK => {
                let path = self.read_path(machine, a[0], a[1]);
                let ret = match self.fs.unlink(&path) {
                    Ok(()) => 0,
                    Err(e) => err(e),
                };
                self.finish(machine, tid, ret)
            }
            abi::SYS_CONSOLE => {
                let data = machine.mem().read_bytes(a[0], a[1] as usize);
                cost_bytes = data.len() as u64;
                let chunk = ExternalChunk {
                    dest: ExternalDest::Console,
                    bytes: data,
                };
                self.external.push(chunk.clone());
                effect.external.push(chunk);
                self.finish(machine, tid, a[1])
            }
            abi::SYS_CONNECT => {
                let ret = match self.net.connect(a[0] as u32) {
                    Ok(fd) => fd as Word,
                    Err(e) => err(e),
                };
                self.finish(machine, tid, ret)
            }
            abi::SYS_SEND if self.faults.reset(tid.0, icount, req.num) => {
                // Injected connection reset: the payload never reaches the
                // network, so no external chunk is journaled.
                self.stats.injected_faults += 1;
                self.finish(machine, tid, err(ECONNRESET))
            }
            abi::SYS_SEND => {
                let data = machine.mem().read_bytes(a[1], a[2] as usize);
                cost_bytes = data.len() as u64;
                let ret = match self.net.send(a[0] as u32, &data) {
                    Ok(n) => {
                        let chunk = ExternalChunk {
                            dest: ExternalDest::Socket(a[0] as u32),
                            bytes: data,
                        };
                        self.external.push(chunk.clone());
                        effect.external.push(chunk);
                        // Sending may unblock receivers (echo/other threads).
                        self.retry_net(machine, now, &mut wakes);
                        n
                    }
                    Err(e) => err(e),
                };
                self.finish(machine, tid, ret)
            }
            abi::SYS_RECV if self.faults.reset(tid.0, icount, req.num) => {
                self.stats.injected_faults += 1;
                self.finish(machine, tid, err(ECONNRESET))
            }
            abi::SYS_RECV => {
                // A short read shrinks the requested buffer length before the
                // receive; undrained bytes stay queued for later receives.
                let maxlen = match self.faults.short_len(tid.0, icount, req.num, a[2]) {
                    Some(short) => {
                        self.stats.injected_faults += 1;
                        short
                    }
                    None => a[2],
                };
                match self.net.recv(a[0] as u32, maxlen, now) {
                    Err(e) => self.finish(machine, tid, err(e)),
                    Ok(NetPoll::Ready(data)) => {
                        cost_bytes = data.len() as u64;
                        machine.mem_mut().write_bytes(a[1], &data);
                        let n = data.len() as Word;
                        effect.guest_writes.push((a[1], data));
                        self.finish(machine, tid, n)
                    }
                    Ok(NetPoll::WouldBlock { .. }) => {
                        self.net_blocked.insert(tid, req);
                        Disposition::Blocked
                    }
                }
            }
            abi::SYS_LISTEN => {
                let ret = match self.net.listen(a[0]) {
                    Ok(fd) => fd as Word,
                    Err(e) => err(e),
                };
                self.finish(machine, tid, ret)
            }
            abi::SYS_ACCEPT => match self.net.accept(a[0] as u32, now) {
                Err(e) => self.finish(machine, tid, err(e)),
                Ok(NetPoll::Ready(fd)) => self.finish(machine, tid, fd as Word),
                Ok(NetPoll::WouldBlock { .. }) => {
                    self.net_blocked.insert(tid, req);
                    Disposition::Blocked
                }
            },
            abi::SYS_SIGACTION => {
                self.sig_handlers.insert(a[0], FuncId(a[1] as u32));
                self.finish(machine, tid, 0)
            }
            abi::SYS_KILL => {
                let target = Tid(a[0] as u32);
                if target.index() >= machine.threads().len() {
                    self.finish(machine, tid, err(EINVAL))
                } else {
                    self.sig_pending.entry(target).or_default().push_back(a[1]);
                    self.finish(machine, tid, 0)
                }
            }
            abi::SYS_SOCK_CLOSE => {
                let ret = match self.net.close(a[0] as u32) {
                    Ok(()) => 0,
                    Err(e) => err(e),
                };
                self.finish(machine, tid, ret)
            }
            _ => self.finish(machine, tid, err(ENOSYS)),
        };

        if abi::is_logged(req.num) {
            self.stats.logged_bytes += cost_bytes + 8;
        }
        if disposition == Disposition::Blocked {
            self.blocked_reqs.insert(tid, req);
        }
        SysOutcome {
            disposition,
            cost: self.cost.syscall(cost_bytes),
            effect,
            wakes,
        }
    }

    /// Completes a syscall on a thread if it is still waiting. Returns
    /// whether the completion happened (false if the thread exited, e.g.
    /// because the machine halted while it was blocked).
    fn complete(&mut self, machine: &mut Machine, tid: Tid, ret: Word) -> bool {
        if machine.thread(tid).status == ThreadStatus::Waiting {
            machine.complete_syscall(tid, ret);
            true
        } else {
            false
        }
    }

    fn take_blocked_req(&mut self, tid: Tid, num: u32) -> SyscallRequest {
        self.blocked_reqs.remove(&tid).unwrap_or(SyscallRequest {
            tid,
            num,
            args: [0; 6],
        })
    }

    fn finish(&mut self, machine: &mut Machine, tid: Tid, ret: Word) -> Disposition {
        machine.complete_syscall(tid, ret);
        Disposition::Done { ret }
    }

    fn wake_joiners(&mut self, machine: &mut Machine, exited: Tid, wakes: &mut Vec<Wake>) {
        let exit_value = machine.thread(exited).exit_value;
        if let Some(waiters) = self.join_waiters.remove(&exited) {
            for w in waiters {
                if self.complete(machine, w, exit_value) {
                    let req = self.take_blocked_req(w, abi::SYS_JOIN);
                    wakes.push(Wake {
                        tid: w,
                        num: abi::SYS_JOIN,
                        req,
                        ret: exit_value,
                        effect: SyscallEffect::default(),
                    });
                }
            }
        }
    }

    fn retry_net(&mut self, machine: &mut Machine, now: u64, wakes: &mut Vec<Wake>) {
        let blocked: Vec<(Tid, SyscallRequest)> =
            self.net_blocked.iter().map(|(t, r)| (*t, *r)).collect();
        for (tid, req) in blocked {
            if machine.thread(tid).status != ThreadStatus::Waiting {
                self.net_blocked.remove(&tid);
                continue;
            }
            let a = req.args;
            match req.num {
                abi::SYS_RECV => match self.net.recv(a[0] as u32, a[2], now) {
                    Err(e) => {
                        self.net_blocked.remove(&tid);
                        if self.complete(machine, tid, err(e)) {
                            self.blocked_reqs.remove(&tid);
                            wakes.push(Wake {
                                tid,
                                num: req.num,
                                req,
                                ret: err(e),
                                effect: SyscallEffect::default(),
                            });
                        }
                    }
                    Ok(NetPoll::Ready(data)) => {
                        self.net_blocked.remove(&tid);
                        machine.mem_mut().write_bytes(a[1], &data);
                        let n = data.len() as Word;
                        let mut effect = SyscallEffect::default();
                        effect.guest_writes.push((a[1], data));
                        if self.complete(machine, tid, n) {
                            self.blocked_reqs.remove(&tid);
                            wakes.push(Wake {
                                tid,
                                num: req.num,
                                req,
                                ret: n,
                                effect,
                            });
                        }
                    }
                    Ok(NetPoll::WouldBlock { .. }) => {}
                },
                abi::SYS_ACCEPT => match self.net.accept(a[0] as u32, now) {
                    Err(e) => {
                        self.net_blocked.remove(&tid);
                        if self.complete(machine, tid, err(e)) {
                            self.blocked_reqs.remove(&tid);
                            wakes.push(Wake {
                                tid,
                                num: req.num,
                                req,
                                ret: err(e),
                                effect: SyscallEffect::default(),
                            });
                        }
                    }
                    Ok(NetPoll::Ready(fd)) => {
                        self.net_blocked.remove(&tid);
                        if self.complete(machine, tid, fd as Word) {
                            self.blocked_reqs.remove(&tid);
                            wakes.push(Wake {
                                tid,
                                num: req.num,
                                req,
                                ret: fd as Word,
                                effect: SyscallEffect::default(),
                            });
                        }
                    }
                    Ok(NetPoll::WouldBlock { .. }) => {}
                },
                other => unreachable!("non-network syscall {other} in net_blocked"),
            }
        }
    }

    fn next_random(&mut self) -> u64 {
        // SplitMix64: deterministic given the seed; classified as *logged*
        // anyway because a real kernel's entropy is not reproducible.
        self.rng_state = self.rng_state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.rng_state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn read_path(&self, machine: &Machine, ptr: Word, len: Word) -> String {
        let bytes = machine.mem().read_bytes(ptr, (len as usize).min(4096));
        String::from_utf8_lossy(&bytes).into_owned()
    }
}

mod wire_impls {
    use super::*;
    use dp_support::wire::{Reader, Wire, WireError};

    impl Wire for ExternalDest {
        fn put(&self, out: &mut Vec<u8>) {
            match self {
                ExternalDest::Console => out.push(0),
                ExternalDest::Socket(fd) => {
                    out.push(1);
                    fd.put(out);
                }
            }
        }
        fn get(r: &mut Reader<'_>) -> Result<Self, WireError> {
            let off = r.pos();
            match r.u8("ExternalDest tag")? {
                0 => Ok(ExternalDest::Console),
                1 => Ok(ExternalDest::Socket(u32::get(r)?)),
                _ => Err(WireError {
                    offset: off,
                    context: "unknown ExternalDest tag",
                }),
            }
        }
    }

    dp_support::impl_wire_struct!(ExternalChunk { dest, bytes });
    dp_support::impl_wire_struct!(SyscallEffect {
        guest_writes,
        external
    });
    dp_support::impl_wire_struct!(KernelStats {
        syscalls,
        logged_syscalls,
        futex_blocks,
        logged_bytes,
        injected_faults
    });
    dp_support::impl_wire_struct!(WorldConfig {
        files,
        net,
        rng_seed,
        cost,
        faults
    });
    impl Kernel {
        /// Appends the delta that turns `base` into `self`: every field
        /// whole, in wire order, except that file contents and the
        /// scripted peer set become one-byte back-references when
        /// unchanged ([`SimFs::put_delta`], [`SimNet::put_delta`]).
        pub fn put_delta(&self, base: &Kernel, out: &mut Vec<u8>) {
            self.fs.put_delta(&base.fs, out);
            self.net.put_delta(&base.net, out);
            self.rng_state.put(out);
            self.brk.put(out);
            self.cost.put(out);
            self.faults.put(out);
            self.futex.put(out);
            self.join_waiters.put(out);
            self.sleepers.put(out);
            self.net_blocked.put(out);
            self.blocked_reqs.put(out);
            self.sig_handlers.put(out);
            self.sig_pending.put(out);
            self.external.put(out);
            self.stats.put(out);
        }

        /// Applies a [`put_delta`](Kernel::put_delta) encoding to `base`.
        ///
        /// # Errors
        ///
        /// A [`WireError`] for malformed or truncated input, or a file
        /// back-reference `base` cannot satisfy; never a panic.
        pub fn get_delta(base: &Kernel, r: &mut Reader<'_>) -> Result<Self, WireError> {
            Ok(Kernel {
                fs: SimFs::get_delta(&base.fs, r)?,
                net: SimNet::get_delta(&base.net, r)?,
                rng_state: Wire::get(r)?,
                brk: Wire::get(r)?,
                cost: Wire::get(r)?,
                faults: Wire::get(r)?,
                futex: Wire::get(r)?,
                join_waiters: Wire::get(r)?,
                sleepers: Wire::get(r)?,
                net_blocked: Wire::get(r)?,
                blocked_reqs: Wire::get(r)?,
                sig_handlers: Wire::get(r)?,
                sig_pending: Wire::get(r)?,
                external: Wire::get(r)?,
                stats: Wire::get(r)?,
            })
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dp_vm::builder::ProgramBuilder;
    use dp_vm::observer::NullObserver;
    use dp_vm::{Machine, Reg, SliceLimits, StopReason};
    use std::sync::Arc;

    fn world() -> WorldConfig {
        WorldConfig {
            files: vec![("in.txt".into(), b"file-data".to_vec())],
            net: NetConfig::default(),
            rng_seed: 42,
            cost: CostModel::default(),
            faults: IoFaults::none(),
        }
    }

    /// Builds a machine whose main traps with the given syscall args.
    fn trap_machine(num: u32, args: &[i64]) -> (Machine, SyscallRequest) {
        let mut pb = ProgramBuilder::new();
        let mut f = pb.function("main");
        for (i, &v) in args.iter().enumerate() {
            f.consti(Reg(i as u8), v);
        }
        f.syscall(num);
        f.ret();
        f.finish();
        let mut m = Machine::new(Arc::new(pb.finish("main")), &[]);
        let run = m
            .run_slice(Tid(0), SliceLimits::budget(100), &mut NullObserver)
            .unwrap();
        let req = match run.stop {
            StopReason::Syscall(r) => r,
            other => panic!("expected trap, got {other:?}"),
        };
        (m, req)
    }

    #[test]
    fn gettid_and_clock() {
        let (mut m, req) = trap_machine(abi::SYS_GETTID, &[]);
        let mut k = Kernel::new(world());
        let out = k.handle(&mut m, req, 555);
        assert_eq!(out.disposition, Disposition::Done { ret: 0 });
        assert_eq!(m.thread(Tid(0)).regs[0], 0);

        let (mut m, req) = trap_machine(abi::SYS_CLOCK, &[]);
        let out = k.handle(&mut m, req, 555);
        assert_eq!(out.disposition, Disposition::Done { ret: 555 });
    }

    #[test]
    fn exit_halts_machine() {
        let (mut m, req) = trap_machine(abi::SYS_EXIT, &[3]);
        let mut k = Kernel::new(world());
        let out = k.handle(&mut m, req, 0);
        assert_eq!(out.disposition, Disposition::Halted { code: 3 });
        assert_eq!(m.halted(), Some(3));
    }

    #[test]
    fn spawn_creates_runnable_thread() {
        let (mut m, req) = trap_machine(abi::SYS_SPAWN, &[0, 77, 0]);
        let mut k = Kernel::new(world());
        let out = k.handle(&mut m, req, 0);
        assert_eq!(out.disposition, Disposition::Done { ret: 1 });
        assert_eq!(m.live_threads(), 2);
        assert_eq!(m.thread(Tid(1)).regs[0], 77);
    }

    #[test]
    fn spawn_bad_function_is_einval() {
        let (mut m, req) = trap_machine(abi::SYS_SPAWN, &[99, 0, 0]);
        let mut k = Kernel::new(world());
        let out = k.handle(&mut m, req, 0);
        assert_eq!(out.disposition, Disposition::Done { ret: err(EINVAL) });
    }

    #[test]
    fn futex_wait_value_mismatch_returns_immediately() {
        let (mut m, req) = trap_machine(abi::SYS_FUTEX_WAIT, &[0x2000, 1]);
        let mut k = Kernel::new(world());
        // mem[0x2000] == 0 != 1 -> no block.
        let out = k.handle(&mut m, req, 0);
        assert_eq!(out.disposition, Disposition::Done { ret: 1 });
    }

    #[test]
    fn futex_wait_then_wake() {
        // Thread 0 waits on 0x2000 (value 0 matches), thread 1 wakes it.
        let (mut m, req) = trap_machine(abi::SYS_FUTEX_WAIT, &[0x2000, 0]);
        let mut k = Kernel::new(world());
        let out = k.handle(&mut m, req, 0);
        assert_eq!(out.disposition, Disposition::Blocked);
        assert_eq!(k.stats.futex_blocks, 1);

        // Fake a waker thread: spawn one and have it trap FUTEX_WAKE.
        let entry = m.program().entry();
        let waker = m.spawn_thread(entry, &[]);
        let w = m
            .run_slice(waker, SliceLimits::budget(100), &mut NullObserver)
            .unwrap();
        // The spawned main traps FUTEX_WAIT too (same code); craft instead:
        // complete it manually and then test wake via a direct request.
        if let StopReason::Syscall(_) = w.stop {
            // Reinterpret this trap as FUTEX_WAKE for the test.
            let wake_req = SyscallRequest {
                tid: waker,
                num: abi::SYS_FUTEX_WAKE,
                args: [0x2000, 10, 0, 0, 0, 0],
            };
            let out = k.handle(&mut m, wake_req, 0);
            assert_eq!(out.disposition, Disposition::Done { ret: 1 });
            assert_eq!(out.wakes.len(), 1);
            assert_eq!(out.wakes[0].tid, Tid(0));
            assert_eq!(m.thread(Tid(0)).status, ThreadStatus::Ready);
        } else {
            panic!("waker did not trap");
        }
    }

    #[test]
    fn join_blocks_until_thread_exit_syscall() {
        let (mut m, _req) = trap_machine(abi::SYS_YIELD, &[]);
        let mut k = Kernel::new(world());
        // Complete the yield first.
        let req = m.thread(Tid(0)).pending.unwrap();
        k.handle(&mut m, req, 0);
        // Spawn a worker, then have t0 join it.
        let entry = m.program().entry();
        let worker = m.spawn_thread(entry, &[]);
        let join_req = SyscallRequest {
            tid: Tid(0),
            num: abi::SYS_JOIN,
            args: [worker.0 as u64, 0, 0, 0, 0, 0],
        };
        // Manually put t0 into Waiting as if it trapped.
        m.thread_mut(Tid(0)).pending = Some(join_req);
        m.thread_mut(Tid(0)).status = ThreadStatus::Waiting;
        let out = k.handle(&mut m, join_req, 0);
        assert_eq!(out.disposition, Disposition::Blocked);
        // Worker exits via syscall with value 99.
        let exit_req = SyscallRequest {
            tid: worker,
            num: abi::SYS_THREAD_EXIT,
            args: [99, 0, 0, 0, 0, 0],
        };
        m.thread_mut(worker).pending = Some(exit_req);
        m.thread_mut(worker).status = ThreadStatus::Waiting;
        let out = k.handle(&mut m, exit_req, 0);
        assert_eq!(out.disposition, Disposition::ThreadExited);
        assert_eq!(out.wakes.len(), 1);
        assert_eq!(out.wakes[0].ret, 99);
        assert_eq!(m.thread(Tid(0)).regs[0], 99);
    }

    #[test]
    fn sleep_wakes_via_advance_time() {
        let (mut m, req) = trap_machine(abi::SYS_SLEEP, &[1000]);
        let mut k = Kernel::new(world());
        let out = k.handle(&mut m, req, 500);
        assert_eq!(out.disposition, Disposition::Blocked);
        assert_eq!(k.next_event_time(500), Some(1500));
        assert!(k.advance_time(&mut m, 1000).is_empty());
        let wakes = k.advance_time(&mut m, 1500);
        assert_eq!(wakes.len(), 1);
        assert_eq!(wakes[0].num, abi::SYS_SLEEP);
        assert_eq!(m.thread(Tid(0)).status, ThreadStatus::Ready);
    }

    #[test]
    fn file_read_writes_guest_memory() {
        // open("in.txt") then read 5 bytes to 0x3000.
        let mut pb = ProgramBuilder::new();
        let path = pb.global_data("path", b"in.txt");
        let mut f = pb.function("main");
        f.consti(Reg(0), path as i64);
        f.consti(Reg(1), 6);
        f.consti(Reg(2), abi::O_RDONLY as i64);
        f.syscall(abi::SYS_OPEN);
        f.mov(Reg(6), Reg(0)); // save fd
        f.mov(Reg(0), Reg(6));
        f.consti(Reg(1), 0x3000);
        f.consti(Reg(2), 5);
        f.syscall(abi::SYS_READ);
        f.ret();
        f.finish();
        let mut m = Machine::new(Arc::new(pb.finish("main")), &[]);
        let mut k = Kernel::new(world());
        // Drive to completion.
        loop {
            let run = m
                .run_slice(Tid(0), SliceLimits::budget(1000), &mut NullObserver)
                .unwrap();
            match run.stop {
                StopReason::Syscall(req) => {
                    k.handle(&mut m, req, 0);
                }
                StopReason::Exited => break,
                other => panic!("{other:?}"),
            }
        }
        assert_eq!(m.mem().read_bytes(0x3000, 5), b"file-");
        assert_eq!(m.thread(Tid(0)).exit_value, 5);
    }

    #[test]
    fn console_output_is_journaled() {
        let mut pb = ProgramBuilder::new();
        let msg = pb.global_data("msg", b"hello");
        let mut f = pb.function("main");
        f.consti(Reg(0), msg as i64);
        f.consti(Reg(1), 5);
        f.syscall(abi::SYS_CONSOLE);
        f.ret();
        f.finish();
        let mut m = Machine::new(Arc::new(pb.finish("main")), &[]);
        let run = m
            .run_slice(Tid(0), SliceLimits::budget(100), &mut NullObserver)
            .unwrap();
        let req = match run.stop {
            StopReason::Syscall(r) => r,
            other => panic!("{other:?}"),
        };
        let mut k = Kernel::new(world());
        let out = k.handle(&mut m, req, 0);
        assert_eq!(out.effect.external.len(), 1);
        assert_eq!(out.effect.external[0].bytes, b"hello");
        let ext = k.take_external();
        assert_eq!(ext.len(), 1);
        assert_eq!(ext[0].dest, ExternalDest::Console);
        assert!(k.external().is_empty());
    }

    #[test]
    fn random_is_deterministic_per_seed() {
        let (mut m1, req1) = trap_machine(abi::SYS_RANDOM, &[]);
        let (mut m2, req2) = trap_machine(abi::SYS_RANDOM, &[]);
        let mut k1 = Kernel::new(world());
        let mut k2 = Kernel::new(world());
        let o1 = k1.handle(&mut m1, req1, 0);
        let o2 = k2.handle(&mut m2, req2, 0);
        assert_eq!(o1.disposition, o2.disposition);
        let mut k3 = Kernel::new(WorldConfig {
            rng_seed: 43,
            ..world()
        });
        let (mut m3, req3) = trap_machine(abi::SYS_RANDOM, &[]);
        let o3 = k3.handle(&mut m3, req3, 0);
        assert_ne!(o1.disposition, o3.disposition);
    }

    #[test]
    fn sbrk_bumps_monotonically() {
        let (mut m, req) = trap_machine(abi::SYS_SBRK, &[4096]);
        let mut k = Kernel::new(world());
        let out = k.handle(&mut m, req, 0);
        assert_eq!(
            out.disposition,
            Disposition::Done {
                ret: dp_vm::HEAP_BASE
            }
        );
        let req2 = SyscallRequest {
            tid: Tid(0),
            num: abi::SYS_SBRK,
            args: [8, 0, 0, 0, 0, 0],
        };
        m.thread_mut(Tid(0)).pending = Some(req2);
        m.thread_mut(Tid(0)).status = ThreadStatus::Waiting;
        let out = k.handle(&mut m, req2, 0);
        assert_eq!(
            out.disposition,
            Disposition::Done {
                ret: dp_vm::HEAP_BASE + 4096
            }
        );
    }

    #[test]
    fn signals_queue_and_deliver_with_handler() {
        let (mut m, req) = trap_machine(abi::SYS_SIGACTION, &[5, 0]);
        let mut k = Kernel::new(world());
        k.handle(&mut m, req, 0); // install handler func 0 for sig 5
        let kill = SyscallRequest {
            tid: Tid(0),
            num: abi::SYS_KILL,
            args: [0, 5, 0, 0, 0, 0],
        };
        m.thread_mut(Tid(0)).pending = Some(kill);
        m.thread_mut(Tid(0)).status = ThreadStatus::Waiting;
        k.handle(&mut m, kill, 0);
        assert!(k.has_pending_signals());
        let (sig, handler) = k.take_pending_signal(Tid(0)).unwrap();
        assert_eq!(sig, 5);
        assert_eq!(handler, FuncId(0));
        assert!(k.take_pending_signal(Tid(0)).is_none());
    }

    #[test]
    fn unknown_syscall_is_enosys() {
        let (mut m, req) = trap_machine(999, &[]);
        let mut k = Kernel::new(world());
        let out = k.handle(&mut m, req, 0);
        assert_eq!(out.disposition, Disposition::Done { ret: err(ENOSYS) });
    }

    #[test]
    fn kernel_clone_is_a_checkpoint() {
        let (mut m, req) = trap_machine(abi::SYS_RANDOM, &[]);
        let mut k = Kernel::new(world());
        let snap = k.clone();
        k.handle(&mut m, req, 0);
        assert_ne!(snap, k); // rng state moved
        assert_eq!(snap, Kernel::new(world()));
    }

    #[test]
    fn stats_track_logged_class() {
        let (mut m, req) = trap_machine(abi::SYS_RANDOM, &[]);
        let mut k = Kernel::new(world());
        k.handle(&mut m, req, 0);
        assert_eq!(k.stats.syscalls, 1);
        assert_eq!(k.stats.logged_syscalls, 1);
        let (mut m2, req2) = trap_machine(abi::SYS_GETTID, &[]);
        k.handle(&mut m2, req2, 0);
        assert_eq!(k.stats.syscalls, 2);
        assert_eq!(k.stats.logged_syscalls, 1);
    }
}
