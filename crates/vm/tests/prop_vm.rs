//! Property-based tests for the VM substrate: memory model equivalence,
//! copy-on-write isolation, and the determinism contract that the whole
//! DoublePlay stack relies on.

use dp_support::check::{check, Gen};
use dp_support::wire::{Reader, Wire};
use dp_vm::builder::ProgramBuilder;
use dp_vm::memory::{Memory, PAGE_SIZE};
use dp_vm::observer::{Access, CollectingObserver, MemObserver, NullObserver};
use dp_vm::{
    BinOp, DataSegment, Fault, FuncId, Function, Instr, Machine, Program, Reg, SliceLimits,
    SliceRun, Src, Step, StopReason, ThreadStatus, Tid, Width, Word, DEFAULT_MAX_CALL_DEPTH,
};
use std::collections::{BTreeMap, HashMap};
use std::sync::Arc;

/// A write operation for the memory model test.
#[derive(Debug, Clone)]
struct WriteOp {
    addr: u64,
    value: u64,
    width: Width,
}

const WIDTHS: [Width; 4] = [Width::W1, Width::W2, Width::W4, Width::W8];

fn write_op(g: &mut Gen) -> WriteOp {
    // Cluster addresses near page boundaries to exercise straddling.
    let page = g.below(4);
    let off = g.below(32);
    WriteOp {
        addr: page * 4096
            + if off < 16 {
                off
            } else {
                4096 - 8 + (off - 16) % 8
            },
        value: g.u64(),
        width: *g.pick(&WIDTHS),
    }
}

fn write_ops(g: &mut Gen, min: usize, max: usize) -> Vec<WriteOp> {
    let n = min + g.index(max - min);
    (0..n).map(|_| write_op(g)).collect()
}

/// A `write_bytes` call for the memory tests: 0 to 3 pages of bytes, all
/// zero one time in four, starting near a page boundary, in pages no other
/// op touches, or just below `u64::MAX`, so the copy wraps to address 0.
fn bytes_op(g: &mut Gen) -> (u64, Vec<u8>) {
    let addr = match g.index(4) {
        0 | 1 => write_op(g).addr,
        2 => g.range(64, 1 << 40) * 4096 + g.below(4096),
        _ => u64::MAX - g.below(2 * 4096),
    };
    let len = match g.index(4) {
        0 => g.below(2),
        1 => g.range(2, 64),
        2 => g.range(64, 4096),
        _ => g.range(4096, 3 * 4096 + 1),
    };
    let zero = g.index(4) == 0;
    let bytes = (0..len).map(|_| if zero { 0 } else { g.u8() }).collect();
    (addr, bytes)
}

/// `write_bytes` spelled as one `write_u8` per byte: the reference the
/// page-wise copy must match, bytes, resident and dirty pages and digest.
fn write_bytewise(mem: &mut Memory, addr: u64, bytes: &[u8]) {
    for (i, &b) in bytes.iter().enumerate() {
        mem.write_u8(addr.wrapping_add(i as u64), b);
    }
}

/// Memory behaves like a flat byte array initialized to zero, and
/// `write_bytes` leaves memory exactly as a `write_u8` per byte does.
#[test]
fn memory_matches_byte_model() {
    check("memory_matches_byte_model", 96, |g| {
        let mut mem = Memory::new();
        let mut bytewise = Memory::new();
        let mut model: HashMap<u64, u8> = HashMap::new();
        let mut writes = Vec::new();
        let mut copies = Vec::new();
        for _ in 0..g.range(1, 64) {
            if g.index(4) == 0 {
                let (addr, bytes) = bytes_op(g);
                mem.write_bytes(addr, &bytes);
                write_bytewise(&mut bytewise, addr, &bytes);
                for (i, &b) in bytes.iter().enumerate() {
                    model.insert(addr.wrapping_add(i as u64), b);
                }
                copies.push((addr, bytes.len()));
                continue;
            }
            let op = write_op(g);
            mem.write(op.addr, op.value, op.width);
            bytewise.write(op.addr, op.value, op.width);
            for i in 0..op.width.bytes() {
                model.insert(op.addr.wrapping_add(i), (op.value >> (8 * i)) as u8);
            }
            writes.push(op);
        }
        // Every byte the model knows about must match; and reads of each
        // written word and copied range must reassemble little-endian.
        for (&addr, &byte) in &model {
            assert_eq!(mem.read_u8(addr), byte);
        }
        for op in &writes {
            let read = mem.read(op.addr, op.width);
            let mut expect = 0u64;
            for i in 0..op.width.bytes() {
                expect |= (*model.get(&op.addr.wrapping_add(i)).unwrap() as u64) << (8 * i);
            }
            assert_eq!(read, expect);
        }
        for &(addr, len) in &copies {
            let expect: Vec<u8> = (0..len as u64)
                .map(|i| model[&addr.wrapping_add(i)])
                .collect();
            assert_eq!(mem.read_bytes(addr, len), expect);
        }
        assert_eq!(mem.dirty(), bytewise.dirty());
        assert_eq!(mem.state_digest(), bytewise.state_digest());
        assert_eq!(mem.hash_stats(), bytewise.hash_stats());
        // The same resident pages, zero ones included, with the same bytes.
        assert_eq!(mem.resident_pages(), bytewise.resident_pages());
        assert_eq!(whole(&mem), whole(&bytewise));
    });
}

/// Snapshots are immune to later writes, and writes to a snapshot do not
/// leak back — the checkpoint property.
#[test]
fn cow_snapshots_are_isolated() {
    check("cow_snapshots_are_isolated", 96, |g| {
        let before = write_ops(g, 1, 32);
        let after = write_ops(g, 1, 32);
        let mut mem = Memory::new();
        for op in &before {
            mem.write(op.addr, op.value, op.width);
        }
        let snap = mem.clone();
        let baseline: Vec<u64> = before
            .iter()
            .map(|op| snap.read(op.addr, op.width))
            .collect();
        let mut snap2 = mem.clone();
        for op in &after {
            mem.write(op.addr, op.value.wrapping_add(1), op.width);
            snap2.write(op.addr, op.value.wrapping_sub(1), op.width);
        }
        for (op, expect) in before.iter().zip(baseline) {
            assert_eq!(snap.read(op.addr, op.width), expect);
        }
        assert_eq!(snap.first_difference(&snap.clone()), None);
    });
}

/// Executing the same straight-line program with arbitrary slice
/// boundaries produces identical final state hashes.
#[test]
fn slicing_does_not_change_semantics() {
    check("slicing_does_not_change_semantics", 48, |g| {
        let seeds: Vec<u64> = (0..g.range(4, 16)).map(|_| g.u64()).collect();
        let slice_len = g.range(1, 7);
        let mut pb = ProgramBuilder::new();
        let scratch = pb.global("scratch", 64);
        let mut f = pb.function("main");
        f.consti(Reg(10), scratch as i64);
        for (i, &s) in seeds.iter().enumerate() {
            f.constu(Reg(1), s);
            f.bin(BinOp::Xor, Reg(2), Reg(2), Src::Reg(Reg(1)));
            f.bin(BinOp::Add, Reg(3), Reg(3), Src::Reg(Reg(2)));
            f.bin(BinOp::Mul, Reg(4), Reg(3), Src::Imm(31));
            f.store(Reg(4), Reg(10), (i as i64 % 8) * 8, Width::W8);
        }
        f.mov(Reg(0), Reg(4));
        f.ret();
        f.finish();
        let program = Arc::new(pb.finish("main"));

        let mut whole = Machine::new(program.clone(), &[]);
        whole
            .run_slice(Tid(0), SliceLimits::budget(1_000_000), &mut NullObserver)
            .unwrap();

        let mut sliced = Machine::new(program, &[]);
        while !sliced.thread(Tid(0)).is_exited() {
            sliced
                .run_slice(Tid(0), SliceLimits::budget(slice_len), &mut NullObserver)
                .unwrap();
        }
        assert_eq!(whole.state_hash(), sliced.state_hash());
        assert_eq!(
            whole.thread(Tid(0)).exit_value,
            sliced.thread(Tid(0)).exit_value
        );
    });
}

/// A register from the few that the generated address, divisor and
/// call-target constants land in, so the instructions that use them often
/// see those values.
fn low_reg(g: &mut Gen) -> Reg {
    Reg(g.below(4) as u8)
}

/// One instruction of a function `len` instructions long in a program of
/// `funcs` functions: mostly [`asm_props::instr`], plus in-range jumps,
/// direct and indirect calls (function id `funcs` is invalid), returns,
/// page-straddling loads and stores, atomics on those addresses, swaps and
/// division (by zero, too).
fn call_instr(g: &mut Gen, funcs: u64, len: u64) -> Instr {
    match g.index(18) {
        0..=7 => asm_props::instr(g),
        8 | 9 => {
            let target = g.below(len) as u32;
            match g.index(3) {
                0 => Instr::Jmp { target },
                1 => Instr::Jnz {
                    cond: low_reg(g),
                    target,
                },
                _ => Instr::Jz {
                    cond: low_reg(g),
                    target,
                },
            }
        }
        10 => Instr::Call {
            func: FuncId(if g.prob(0.15) { funcs } else { g.below(funcs) } as u32),
        },
        11 => Instr::CallIndirect { func: low_reg(g) },
        12 => Instr::Const {
            dst: low_reg(g),
            imm: g.below(funcs + 1),
        },
        // An address within 8 bytes of a page boundary.
        13 => Instr::Const {
            dst: low_reg(g),
            imm: g.range(1, 4) * 4096 + g.below(16) - 8,
        },
        14 => {
            let (addr, offset, width) = (low_reg(g), g.below(8) as i64 - 4, asm_props::width(g));
            if g.bool() {
                Instr::Load {
                    dst: asm_props::reg(g),
                    addr,
                    offset,
                    width,
                }
            } else {
                Instr::Store {
                    src: asm_props::reg(g),
                    addr,
                    offset,
                    width,
                }
            }
        }
        15 => match g.index(3) {
            0 => Instr::Swap {
                dst: asm_props::reg(g),
                addr: low_reg(g),
                val: asm_props::reg(g),
            },
            1 => Instr::FetchAdd {
                dst: asm_props::reg(g),
                addr: low_reg(g),
                val: asm_props::src(g),
            },
            _ => Instr::Cas {
                dst: asm_props::reg(g),
                addr: low_reg(g),
                expected: asm_props::reg(g),
                new: asm_props::reg(g),
            },
        },
        16 => Instr::Bin {
            op: *g.pick(&[BinOp::Divu, BinOp::Remu, BinOp::Divs, BinOp::Rems]),
            dst: asm_props::reg(g),
            a: asm_props::reg(g),
            b: match g.index(4) {
                0 => Src::Imm(0),
                1 => Src::Reg(low_reg(g)),
                _ => Src::Imm(g.range(1, 8) as i64),
            },
        },
        _ => Instr::Ret,
    }
}

/// A program of 2–3 functions built from [`call_instr`]. Three in four
/// functions end in `Ret`; the rest let execution fall off their end. A
/// data segment straddles the first page boundary.
fn call_program(g: &mut Gen) -> Arc<Program> {
    let funcs = g.range(2, 4);
    let functions = (0..funcs)
        .map(|i| {
            let len = g.range(4, 32);
            let mut code: Vec<Instr> = (0..len).map(|_| call_instr(g, funcs, len)).collect();
            if g.prob(0.75) {
                code.push(Instr::Ret);
            }
            Function {
                name: format!("f{i}"),
                code,
            }
        })
        .collect();
    let data = vec![DataSegment {
        addr: 4096 - 4,
        bytes: (0..8).map(|_| g.u8()).collect(),
    }];
    Arc::new(Program::new(functions, FuncId(0), data, BTreeMap::new()))
}

/// Slice limits relative to the thread's current `icount`: budgets of 0, 1
/// and more; no target, or a target at the count, tied with the budget, or
/// above it; and atomic stops on or off. Targets below the count are drawn
/// in release builds only, since debug builds assert against them.
fn slice_limits(g: &mut Gen, icount: u64) -> SliceLimits {
    let max_instrs = match g.index(4) {
        0 => 0,
        1 => 1,
        _ => g.range(2, 64),
    };
    let icount_target = match g.index(6) {
        0 if !cfg!(debug_assertions) => Some(icount.saturating_sub(g.range(1, 4))),
        0 | 1 => None,
        2 => Some(icount),
        3 => Some(icount + max_instrs),
        _ => Some(icount + g.range(1, 64)),
    };
    SliceLimits {
        max_instrs,
        icount_target,
        stop_at_atomics: g.bool(),
    }
}

/// [`Machine::run_slice`]'s documented contract, built from single
/// [`Machine::step`]s: the icount target is checked before the budget, so
/// it wins a tie; a trap and an exit count their instruction; an atomic
/// ends the slice just after it when asked to.
fn stepped_slice<O: MemObserver>(
    m: &mut Machine,
    tid: Tid,
    limits: SliceLimits,
    obs: &mut O,
) -> Result<SliceRun, Fault> {
    let mut executed = 0;
    loop {
        let at_target = limits
            .icount_target
            .is_some_and(|t| m.thread(tid).icount >= t);
        if at_target || executed >= limits.max_instrs {
            let stop = if at_target {
                StopReason::IcountTarget
            } else {
                StopReason::Budget
            };
            return Ok(SliceRun { executed, stop });
        }
        executed += 1;
        let stop = match m.step(tid, obs)? {
            Step::Ran => continue,
            Step::RanAtomic { addr, wrote } if limits.stop_at_atomics => {
                StopReason::Atomic { addr, wrote }
            }
            Step::RanAtomic { .. } => continue,
            Step::Syscall(req) => StopReason::Syscall(req),
            Step::Exited => StopReason::Exited,
        };
        return Ok(SliceRun { executed, stop });
    }
}

/// A [`CollectingObserver`] that, when `intercepts` is set, also answers
/// loads and atomics at addresses divisible by 3 itself, the way
/// value-logging replay feeds a thread its logged values.
struct Probe {
    seen: CollectingObserver,
    intercepts: bool,
}

impl MemObserver for Probe {
    fn on_access(&mut self, access: Access) {
        self.seen.on_access(access);
    }

    fn intercept_load(&mut self, _tid: Tid, addr: Word, width: Width) -> Option<Word> {
        (self.intercepts && addr.is_multiple_of(3)).then(|| width.truncate(addr.rotate_left(7)))
    }

    fn intercept_atomic(&mut self, _tid: Tid, addr: Word) -> Option<Word> {
        (self.intercepts && addr.is_multiple_of(3)).then_some(addr ^ 0x5a)
    }
}

/// Runs up to `rounds` slices on random threads of `fast` under random
/// [`slice_limits`], and each as [`stepped_slice`] on a clone, asserting
/// after every slice that both give the same `SliceRun` or fault, the same
/// threads, live count, latched fault, halt status, memory and access
/// stream. A waiting thread usually has its syscall completed first, with
/// the same random result on both; a round halts both machines with
/// probability `halt`. Half the slices go through `&mut dyn MemObserver`.
/// Returns the fast machine once no thread is live or the rounds run out.
fn assert_slices_match_steps(g: &mut Gen, mut fast: Machine, rounds: u64, halt: f64) -> Machine {
    let mut slow = fast.clone();
    let threads = fast.threads().len() as u64;
    let intercepts = g.bool();
    let mut fast_obs = Probe {
        seen: CollectingObserver::default(),
        intercepts,
    };
    let mut slow_obs = Probe {
        seen: CollectingObserver::default(),
        intercepts,
    };
    for _ in 0..rounds {
        let tid = Tid(g.below(threads) as u32);
        if fast.thread(tid).status == ThreadStatus::Waiting && g.prob(0.8) {
            let ret = g.u64();
            fast.complete_syscall(tid, ret);
            slow.complete_syscall(tid, ret);
        }
        if g.prob(halt) {
            fast.halt(1);
            slow.halt(1);
        }
        let limits = slice_limits(g, fast.thread(tid).icount);
        let got = if g.bool() {
            fast.run_slice(tid, limits, &mut fast_obs)
        } else {
            fast.run_slice(tid, limits, &mut fast_obs as &mut dyn MemObserver)
        };
        let want = stepped_slice(&mut slow, tid, limits, &mut slow_obs);
        assert_eq!(got, want, "{tid} under {limits:?}");
        assert_eq!(fast.threads(), slow.threads());
        assert_eq!(fast.live_threads(), slow.live_threads());
        assert_eq!(fast.fault(), slow.fault());
        assert_eq!(fast.halted(), slow.halted());
        assert_eq!(fast.mem().first_difference(slow.mem()), None);
        assert_eq!(fast_obs.seen.accesses, slow_obs.seen.accesses);
        if fast.live_threads() == 0 {
            break;
        }
    }
    assert_eq!(fast.state_hash(), slow.state_hash());
    fast
}

/// `run_slice`'s per-slice loop is observably a sequence of single steps:
/// random two-thread programs with calls, returns, jumps, page-straddling
/// accesses, atomics, division by zero and syscalls, run slice by slice
/// under random limits, behave exactly as [`stepped_slice`].
#[test]
fn run_slice_matches_single_steps() {
    check("run_slice_matches_single_steps", 128, |g| {
        let program = call_program(g);
        let funcs = program.functions().len() as u64;
        let mut m = Machine::new(program, &[g.u64()]);
        m.spawn_thread(FuncId(g.below(funcs) as u32), &[g.u64()]);
        let rounds = g.range(1, 32);
        assert_slices_match_steps(g, m, rounds, 0.01);
    });
}

/// The same down to [`Fault::StackOverflow`]: two threads each recurse
/// through a function that runs random straight-line code (loads, stores,
/// atomics, syscalls) and calls itself, until the call past
/// [`DEFAULT_MAX_CALL_DEPTH`] frames faults, inside a slice.
#[test]
fn run_slice_matches_single_steps_into_stack_overflow() {
    check("run_slice_into_stack_overflow", 8, |g| {
        let recursive = |g: &mut Gen, name: &str| {
            let mut code: Vec<Instr> = (0..g.range(0, 4)).map(|_| asm_props::instr(g)).collect();
            code.push(Instr::Call { func: FuncId(1) });
            code.push(Instr::Ret);
            Function {
                name: name.into(),
                code,
            }
        };
        let functions = vec![recursive(g, "main"), recursive(g, "recurse")];
        let program = Arc::new(Program::new(functions, FuncId(0), vec![], BTreeMap::new()));
        let mut m = Machine::new(program, &[g.u64()]);
        m.spawn_thread(FuncId(1), &[g.u64()]);
        let m = assert_slices_match_steps(g, m, 100_000, 0.0);
        assert_eq!(m.live_threads(), 0);
        assert!(
            matches!(m.fault(), Some(Fault::StackOverflow { .. })),
            "{:?}",
            m.fault()
        );
        for t in m.threads() {
            assert_eq!(t.frames.len(), DEFAULT_MAX_CALL_DEPTH);
        }
    });
}

/// `mem` written whole: its delta against an empty memory.
fn whole(mem: &Memory) -> Vec<u8> {
    let mut out = Vec::new();
    mem.put_delta(&Memory::new(), &[], &mut out);
    out
}

/// `mem` decoded back from [`whole`]: every nonzero page a new version.
fn rebuilt(mem: &Memory) -> Memory {
    Memory::get_delta(&Memory::new(), &[], &mut Reader::new(&whole(mem))).unwrap()
}

/// Pages a [`Memory::put_delta`] encoding spells out as new page
/// versions: entries `pno | form`, where form 1 carries the page's bytes,
/// 2 a file block and 3 the runs that changed; form 0 zeroes the page.
/// Checking the whole entry list also checks the forms' layout.
fn delta_new_pages(delta: &[u8]) -> u64 {
    let mut r = Reader::new(delta);
    let mut pages = 0;
    for _ in 0..usize::get(&mut r).unwrap() {
        u64::get(&mut r).unwrap();
        match r.u8("page delta tag").unwrap() {
            0 => {}
            1 => {
                r.take(PAGE_SIZE as usize, "memory page").unwrap();
                pages += 1;
            }
            2 => {
                usize::get(&mut r).unwrap();
                u64::get(&mut r).unwrap();
                pages += 1;
            }
            3 => {
                for _ in 0..usize::get(&mut r).unwrap() {
                    // `gap << 4 | length`, a length of 15 or more
                    // continuing in a second varint.
                    let mut len = (u64::get(&mut r).unwrap() & 15) as usize;
                    if len == 15 {
                        len += usize::get(&mut r).unwrap();
                    }
                    r.take(len, "page delta run").unwrap();
                }
                pages += 1;
            }
            form => panic!("unknown page form {form}"),
        }
    }
    pages
}

/// `mem`'s digest equals its from-scratch digest and its twin's, with the
/// same digest counters.
fn assert_digest_matches(mem: &Memory, twin: &Memory) {
    let digest = mem.state_digest();
    assert_eq!(digest, mem.state_digest_scratch());
    assert_eq!(digest, twin.state_digest());
    assert_eq!(mem.hash_stats(), twin.hash_stats());
}

/// The per-page cached digest equals a from-scratch digest after any
/// interleaving of writes, page-wise copies, CoW clones, snapshot restores,
/// dirty-set drains, wire decodes and delta rebuilds — the invariant the
/// recorder's verify hot path and every replay of a journal rest on.
/// Clones and snapshots share page versions and so their digests, a
/// decoded memory starts with none, and a delta-decoded one shares every
/// page the delta leaves alone with its base. A twin memory takes every op
/// too, with each `write_bytes` spelled as a `write_u8` per byte, and must
/// keep the same dirty set, digest and digest counters.
#[test]
fn incremental_digest_equals_scratch_under_any_interleaving() {
    check("incremental_digest_equals_scratch", 96, |g| {
        let mut mem = Memory::new();
        let mut twin = Memory::new();
        let mut snapshots: Vec<(Memory, Memory)> = Vec::new();
        for _ in 0..g.range(4, 40) {
            match g.index(11) {
                // Writes dominate: dirty some pages (occasionally writing
                // zero, which must keep zero-fill equivalence).
                0..=3 => {
                    let op = write_op(g);
                    let v = if g.index(8) == 0 { 0 } else { op.value };
                    mem.write(op.addr, v, op.width);
                    twin.write(op.addr, v, op.width);
                }
                4 => {
                    let (addr, bytes) = bytes_op(g);
                    mem.write_bytes(addr, &bytes);
                    write_bytewise(&mut twin, addr, &bytes);
                }
                5 => snapshots.push((mem.clone(), twin.clone())),
                6 => {
                    if let Some((snap, snap_twin)) = snapshots.pop() {
                        mem = snap; // restore an older world
                        twin = snap_twin;
                    }
                }
                7 => {
                    assert_eq!(mem.take_dirty(), twin.take_dirty());
                }
                8 => {
                    mem = rebuilt(&mem);
                    twin = rebuilt(&twin);
                    assert_digest_matches(&mem, &twin);
                }
                9 => {
                    // Rebuild both as a delta against a live snapshot whose
                    // pages are digested: only the pages the delta spells
                    // out are new versions, so only they hash.
                    if let Some((snap, snap_twin)) = snapshots.last() {
                        assert_digest_matches(snap, snap_twin);
                        let mut delta = Vec::new();
                        mem.put_delta(snap, &[], &mut delta);
                        let mut twin_delta = Vec::new();
                        twin.put_delta(snap_twin, &[], &mut twin_delta);
                        assert_eq!(delta, twin_delta);
                        mem = Memory::get_delta(snap, &[], &mut Reader::new(&delta)).unwrap();
                        twin = Memory::get_delta(snap_twin, &[], &mut Reader::new(&twin_delta))
                            .unwrap();
                        let before = mem.hash_stats().hashed_pages;
                        assert_digest_matches(&mem, &twin);
                        assert_eq!(
                            mem.hash_stats().hashed_pages - before,
                            delta_new_pages(&delta)
                        );
                    }
                }
                _ => assert_digest_matches(&mem, &twin),
            }
            assert_eq!(mem.dirty(), twin.dirty());
        }
        assert_eq!(mem.state_digest(), mem.state_digest_scratch());
        assert_eq!(mem.state_digest(), twin.state_digest());
        for (snap, snap_twin) in &snapshots {
            assert_eq!(snap.state_digest(), snap.state_digest_scratch());
            assert_eq!(snap.state_digest(), snap_twin.state_digest());
        }
    });
}

/// state_hash distinguishes states that differ in a single memory byte.
#[test]
fn state_hash_detects_byte_flips() {
    check("state_hash_detects_byte_flips", 64, |g| {
        let addr = g.range(0x1000, 0x9000);
        let val = g.range(1, 256) as u8;
        let mut pb = ProgramBuilder::new();
        let mut f = pb.function("main");
        f.ret();
        f.finish();
        let p = Arc::new(pb.finish("main"));
        let a = Machine::new(p.clone(), &[]);
        let mut b = Machine::new(p, &[]);
        b.mem_mut().write_u8(addr, val);
        assert_ne!(a.state_hash(), b.state_hash());
    });
}

mod asm_props {
    use dp_support::check::Gen;
    use dp_vm::{BinOp, Instr, Reg, Src, UnOp, Width};

    pub(super) fn reg(g: &mut Gen) -> Reg {
        Reg(g.below(32) as u8)
    }

    pub(super) fn src(g: &mut Gen) -> Src {
        if g.bool() {
            Src::Reg(reg(g))
        } else {
            Src::Imm(g.u64() as u32 as i32 as i64)
        }
    }

    pub(super) fn width(g: &mut Gen) -> Width {
        *g.pick(&[Width::W1, Width::W2, Width::W4, Width::W8])
    }

    fn binop(g: &mut Gen) -> BinOp {
        *g.pick(&[
            BinOp::Add,
            BinOp::Sub,
            BinOp::Mul,
            BinOp::Xor,
            BinOp::Shl,
            BinOp::Ltu,
            BinOp::Les,
            BinOp::Minu,
        ])
    }

    fn mem_offset(g: &mut Gen) -> i64 {
        g.range(0, 128) as i64 - 64
    }

    /// Straight-line instructions only (jumps are added separately with
    /// valid targets).
    pub(super) fn instr(g: &mut Gen) -> Instr {
        match g.index(10) {
            0 => Instr::Const {
                dst: reg(g),
                imm: g.u64(),
            },
            1 => Instr::Mov {
                dst: reg(g),
                src: src(g),
            },
            2 => Instr::Bin {
                op: binop(g),
                dst: reg(g),
                a: reg(g),
                b: src(g),
            },
            3 => Instr::Un {
                op: UnOp::Not,
                dst: reg(g),
                a: reg(g),
            },
            4 => Instr::Load {
                dst: reg(g),
                addr: reg(g),
                offset: mem_offset(g),
                width: width(g),
            },
            5 => Instr::Store {
                src: reg(g),
                addr: reg(g),
                offset: mem_offset(g),
                width: width(g),
            },
            6 => Instr::Cas {
                dst: reg(g),
                addr: reg(g),
                expected: reg(g),
                new: reg(g),
            },
            7 => Instr::FetchAdd {
                dst: reg(g),
                addr: reg(g),
                val: src(g),
            },
            8 => Instr::Syscall {
                num: g.below(28) as u32,
            },
            _ => Instr::Nop,
        }
    }
}
