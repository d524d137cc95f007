//! Ergonomic construction of [`Program`]s: forward-declared functions,
//! symbolic jump labels, and named globals.
//!
//! Guest workloads (the `dp-workloads` crate) are written directly against
//! this API. A minimal example:
//!
//! ```
//! use dp_vm::builder::ProgramBuilder;
//! use dp_vm::{BinOp, Reg, Src};
//!
//! let mut pb = ProgramBuilder::new();
//! let counter = pb.global("counter", 8);
//! let mut f = pb.function("main");
//! let top = f.label();
//! f.consti(Reg(1), 10); // loop bound
//! f.consti(Reg(2), 0); // i
//! f.bind(top);
//! f.bin(BinOp::Add, Reg(2), Reg(2), Src::Imm(1));
//! f.bin(BinOp::Ltu, Reg(3), Reg(2), Src::Reg(Reg(1)));
//! f.jnz(Reg(3), top);
//! f.consti(Reg(4), counter as i64);
//! f.store(Reg(2), Reg(4), 0, dp_vm::Width::W8);
//! f.ret();
//! f.finish();
//! let program = pb.finish("main");
//! assert!(program.function_by_name("main").is_some());
//! ```

use crate::instr::{BinOp, Instr, UnOp};
use crate::program::{DataSegment, FuncId, Function, Program, GLOBAL_BASE};
use crate::value::{Reg, Src, Width, Word};
use std::collections::BTreeMap;

/// A forward-referenceable jump target within one function.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Label(u32);

/// Builds a [`Program`] incrementally.
#[derive(Debug)]
pub struct ProgramBuilder {
    functions: Vec<Option<Function>>,
    names: Vec<String>,
    data: Vec<DataSegment>,
    symbols: BTreeMap<String, Word>,
    next_global: Word,
}

impl ProgramBuilder {
    /// Creates an empty builder.
    pub fn new() -> Self {
        ProgramBuilder {
            functions: Vec::new(),
            names: Vec::new(),
            data: Vec::new(),
            symbols: BTreeMap::new(),
            next_global: GLOBAL_BASE,
        }
    }

    /// Reserves `size` bytes of zeroed global storage under `name`,
    /// returning its address (8-byte aligned).
    ///
    /// # Panics
    ///
    /// Panics if `name` is already defined.
    pub fn global(&mut self, name: &str, size: Word) -> Word {
        let addr = self.next_global;
        assert!(
            self.symbols.insert(name.to_string(), addr).is_none(),
            "global `{name}` defined twice"
        );
        self.next_global += size.max(1);
        self.next_global = (self.next_global + 7) & !7;
        addr
    }

    /// Defines a global initialized with `bytes`, returning its address.
    pub fn global_data(&mut self, name: &str, bytes: &[u8]) -> Word {
        let addr = self.global(name, bytes.len() as Word);
        self.data.push(DataSegment {
            addr,
            bytes: bytes.to_vec(),
        });
        addr
    }

    /// Forward-declares (or looks up) a function by name, returning its id.
    /// The body can be provided later via [`ProgramBuilder::function`].
    pub fn declare(&mut self, name: &str) -> FuncId {
        if let Some(i) = self.names.iter().position(|n| n == name) {
            return FuncId(i as u32);
        }
        let id = FuncId(self.functions.len() as u32);
        self.functions.push(None);
        self.names.push(name.to_string());
        id
    }

    /// Starts building the body of `name` (declaring it if necessary).
    ///
    /// # Panics
    ///
    /// Panics if the function already has a body.
    pub fn function(&mut self, name: &str) -> FunctionBuilder<'_> {
        let id = self.declare(name);
        assert!(
            self.functions[id.index()].is_none(),
            "function `{name}` defined twice"
        );
        FunctionBuilder {
            pb: self,
            id,
            code: Vec::new(),
            labels: Vec::new(),
            patches: Vec::new(),
        }
    }

    /// Finalizes the program with `entry_name` as the entry function.
    ///
    /// # Panics
    ///
    /// Panics if any declared function lacks a body or the entry is unknown.
    pub fn finish(self, entry_name: &str) -> Program {
        let entry = self
            .names
            .iter()
            .position(|n| n == entry_name)
            .map(|i| FuncId(i as u32))
            .unwrap_or_else(|| panic!("entry function `{entry_name}` not defined"));
        let functions: Vec<Function> = self
            .functions
            .into_iter()
            .zip(&self.names)
            .map(|(f, name)| {
                f.unwrap_or_else(|| panic!("function `{name}` declared but never defined"))
            })
            .collect();
        Program::new(functions, entry, self.data, self.symbols)
    }
}

impl Default for ProgramBuilder {
    fn default() -> Self {
        Self::new()
    }
}

/// Builds one function body. Obtained from [`ProgramBuilder::function`];
/// call [`FunctionBuilder::finish`] to install the body.
#[derive(Debug)]
pub struct FunctionBuilder<'a> {
    pb: &'a mut ProgramBuilder,
    id: FuncId,
    code: Vec<Instr>,
    labels: Vec<Option<u32>>,
    patches: Vec<(usize, Label)>,
}

impl<'a> FunctionBuilder<'a> {
    /// The id of the function being built (useful for recursion).
    pub fn id(&self) -> FuncId {
        self.id
    }

    /// Index of the next instruction to be emitted.
    pub fn here(&self) -> u32 {
        self.code.len() as u32
    }

    /// Creates an unbound label.
    pub fn label(&mut self) -> Label {
        self.labels.push(None);
        Label(self.labels.len() as u32 - 1)
    }

    /// Binds `label` to the current position.
    ///
    /// # Panics
    ///
    /// Panics if the label is already bound.
    pub fn bind(&mut self, label: Label) {
        let here = self.here();
        let slot = &mut self.labels[label.0 as usize];
        assert!(slot.is_none(), "label bound twice");
        *slot = Some(here);
    }

    /// Forward-declares (or looks up) another function by name.
    pub fn declare(&mut self, name: &str) -> FuncId {
        self.pb.declare(name)
    }

    fn emit(&mut self, instr: Instr) -> &mut Self {
        self.code.push(instr);
        self
    }

    /// `dst = imm` (signed immediate convenience).
    pub fn consti(&mut self, dst: Reg, imm: i64) -> &mut Self {
        self.emit(Instr::Const {
            dst,
            imm: imm as u64,
        })
    }

    /// `dst = imm` (raw 64-bit constant).
    pub fn constu(&mut self, dst: Reg, imm: u64) -> &mut Self {
        self.emit(Instr::Const { dst, imm })
    }

    /// `dst = src`.
    pub fn mov(&mut self, dst: Reg, src: impl Into<Src>) -> &mut Self {
        self.emit(Instr::Mov {
            dst,
            src: src.into(),
        })
    }

    /// `dst = a <op> b`.
    pub fn bin(&mut self, op: BinOp, dst: Reg, a: Reg, b: impl Into<Src>) -> &mut Self {
        self.emit(Instr::Bin {
            op,
            dst,
            a,
            b: b.into(),
        })
    }

    /// `dst = a + b` shorthand.
    pub fn add(&mut self, dst: Reg, a: Reg, b: impl Into<Src>) -> &mut Self {
        self.bin(BinOp::Add, dst, a, b)
    }

    /// `dst = a - b` shorthand.
    pub fn sub(&mut self, dst: Reg, a: Reg, b: impl Into<Src>) -> &mut Self {
        self.bin(BinOp::Sub, dst, a, b)
    }

    /// `dst = a * b` shorthand.
    pub fn mul(&mut self, dst: Reg, a: Reg, b: impl Into<Src>) -> &mut Self {
        self.bin(BinOp::Mul, dst, a, b)
    }

    /// `dst = <op> a`.
    pub fn un(&mut self, op: UnOp, dst: Reg, a: Reg) -> &mut Self {
        self.emit(Instr::Un { op, dst, a })
    }

    /// `dst = mem[addr + offset]`.
    pub fn load(&mut self, dst: Reg, addr: Reg, offset: i64, width: Width) -> &mut Self {
        self.emit(Instr::Load {
            dst,
            addr,
            offset,
            width,
        })
    }

    /// `mem[addr + offset] = src`.
    pub fn store(&mut self, src: Reg, addr: Reg, offset: i64, width: Width) -> &mut Self {
        self.emit(Instr::Store {
            src,
            addr,
            offset,
            width,
        })
    }

    /// Atomic compare-and-swap (64-bit).
    pub fn cas(&mut self, dst: Reg, addr: Reg, expected: Reg, new: Reg) -> &mut Self {
        self.emit(Instr::Cas {
            dst,
            addr,
            expected,
            new,
        })
    }

    /// Atomic fetch-and-add (64-bit).
    pub fn fetch_add(&mut self, dst: Reg, addr: Reg, val: impl Into<Src>) -> &mut Self {
        self.emit(Instr::FetchAdd {
            dst,
            addr,
            val: val.into(),
        })
    }

    /// Atomic exchange (64-bit).
    pub fn swap(&mut self, dst: Reg, addr: Reg, val: Reg) -> &mut Self {
        self.emit(Instr::Swap { dst, addr, val })
    }

    /// Unconditional jump to `label`.
    pub fn jmp(&mut self, label: Label) -> &mut Self {
        self.patches.push((self.code.len(), label));
        self.emit(Instr::Jmp { target: u32::MAX })
    }

    /// Jump to `label` if `cond != 0`.
    pub fn jnz(&mut self, cond: Reg, label: Label) -> &mut Self {
        self.patches.push((self.code.len(), label));
        self.emit(Instr::Jnz {
            cond,
            target: u32::MAX,
        })
    }

    /// Jump to `label` if `cond == 0`.
    pub fn jz(&mut self, cond: Reg, label: Label) -> &mut Self {
        self.patches.push((self.code.len(), label));
        self.emit(Instr::Jz {
            cond,
            target: u32::MAX,
        })
    }

    /// Call a function by id.
    pub fn call(&mut self, func: FuncId) -> &mut Self {
        self.emit(Instr::Call { func })
    }

    /// Call a function by name (declaring it if needed).
    pub fn call_named(&mut self, name: &str) -> &mut Self {
        let func = self.pb.declare(name);
        self.call(func)
    }

    /// Indirect call through a register holding a function id.
    pub fn call_indirect(&mut self, func: Reg) -> &mut Self {
        self.emit(Instr::CallIndirect { func })
    }

    /// Return from the function.
    pub fn ret(&mut self) -> &mut Self {
        self.emit(Instr::Ret)
    }

    /// Trap into the kernel with syscall number `num`.
    pub fn syscall(&mut self, num: u32) -> &mut Self {
        self.emit(Instr::Syscall { num })
    }

    /// Emit a no-op.
    pub fn nop(&mut self) -> &mut Self {
        self.emit(Instr::Nop)
    }

    /// Resolves labels and installs the body into the program.
    ///
    /// # Panics
    ///
    /// Panics if any referenced label was never bound.
    pub fn finish(self) {
        let FunctionBuilder {
            pb,
            id,
            mut code,
            labels,
            patches,
        } = self;
        for (idx, label) in patches {
            let target = labels[label.0 as usize].unwrap_or_else(|| {
                panic!("label used but never bound in `{}`", pb.names[id.index()])
            });
            match &mut code[idx] {
                Instr::Jmp { target: t }
                | Instr::Jnz { target: t, .. }
                | Instr::Jz { target: t, .. } => *t = target,
                other => unreachable!("patch on non-jump {other:?}"),
            }
        }
        let name = pb.names[id.index()].clone();
        pb.functions[id.index()] = Some(Function { name, code });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::machine::{Machine, SliceLimits};
    use crate::observer::NullObserver;
    use crate::value::Tid;
    use std::sync::Arc;

    #[test]
    fn loop_with_backward_label() {
        let mut pb = ProgramBuilder::new();
        let mut f = pb.function("main");
        let top = f.label();
        f.consti(Reg(1), 0);
        f.bind(top);
        f.add(Reg(1), Reg(1), 1i64);
        f.bin(BinOp::Ltu, Reg(2), Reg(1), 5i64);
        f.jnz(Reg(2), top);
        f.mov(Reg(0), Reg(1));
        f.ret();
        f.finish();
        let p = Arc::new(pb.finish("main"));
        let mut m = Machine::new(p, &[]);
        m.run_slice(Tid(0), SliceLimits::budget(1000), &mut NullObserver)
            .unwrap();
        assert_eq!(m.thread(Tid(0)).exit_value, 5);
    }

    #[test]
    fn forward_label_and_else_branch() {
        let mut pb = ProgramBuilder::new();
        let mut f = pb.function("main");
        let done = f.label();
        f.consti(Reg(0), 1);
        f.jnz(Reg(0), done);
        f.consti(Reg(0), 99); // skipped
        f.bind(done);
        f.ret();
        f.finish();
        let p = Arc::new(pb.finish("main"));
        let mut m = Machine::new(p, &[]);
        m.run_slice(Tid(0), SliceLimits::budget(100), &mut NullObserver)
            .unwrap();
        assert_eq!(m.thread(Tid(0)).exit_value, 1);
    }

    #[test]
    fn cross_function_calls_by_name() {
        let mut pb = ProgramBuilder::new();
        let mut f = pb.function("main");
        f.consti(Reg(0), 20);
        f.call_named("double");
        f.add(Reg(0), Reg(0), 2i64);
        f.ret();
        f.finish();
        let mut g = pb.function("double");
        g.add(Reg(0), Reg(0), Reg(0));
        g.ret();
        g.finish();
        let p = Arc::new(pb.finish("main"));
        let mut m = Machine::new(p, &[]);
        m.run_slice(Tid(0), SliceLimits::budget(100), &mut NullObserver)
            .unwrap();
        assert_eq!(m.thread(Tid(0)).exit_value, 42);
    }

    #[test]
    fn globals_are_aligned_and_distinct() {
        let mut pb = ProgramBuilder::new();
        let a = pb.global("a", 1);
        let b = pb.global("b", 13);
        let c = pb.global("c", 8);
        assert_eq!(a % 8, 0);
        assert_eq!(b % 8, 0);
        assert_eq!(c % 8, 0);
        assert!(b > a);
        assert!(c >= b + 13);
    }

    #[test]
    fn global_data_loads_into_memory() {
        let mut pb = ProgramBuilder::new();
        let msg = pb.global_data("msg", b"hi");
        let mut f = pb.function("main");
        f.ret();
        f.finish();
        let p = Arc::new(pb.finish("main"));
        let m = Machine::new(p, &[]);
        assert_eq!(m.mem().read_bytes(msg, 2), b"hi");
    }

    #[test]
    #[should_panic(expected = "declared but never defined")]
    fn missing_body_panics() {
        let mut pb = ProgramBuilder::new();
        pb.declare("ghost");
        let mut f = pb.function("main");
        f.ret();
        f.finish();
        pb.finish("main");
    }

    #[test]
    #[should_panic(expected = "never bound")]
    fn unbound_label_panics() {
        let mut pb = ProgramBuilder::new();
        let mut f = pb.function("main");
        let l = f.label();
        f.jmp(l);
        f.finish();
    }

    #[test]
    #[should_panic(expected = "defined twice")]
    fn duplicate_function_panics() {
        let mut pb = ProgramBuilder::new();
        let mut f = pb.function("main");
        f.ret();
        f.finish();
        pb.function("main");
    }
}
