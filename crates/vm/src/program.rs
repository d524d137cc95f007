//! Programs: collections of functions plus static data, the immutable "text
//! segment" shared by every execution of a workload.

use crate::instr::Instr;
use crate::value::{Word, NUM_REGS};
use std::collections::BTreeMap;
use std::fmt;

/// Identifier of a function within a [`Program`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct FuncId(pub u32);

impl FuncId {
    /// Returns the id as a `usize` for indexing the function table.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for FuncId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "f{}", self.0)
    }
}

dp_support::impl_wire_newtype!(FuncId);

/// Start of the static data / globals region.
pub const GLOBAL_BASE: Word = 0x0000_1000;
/// Start of the heap region managed by the kernel's `SBRK`.
pub const HEAP_BASE: Word = 0x1000_0000;
/// Base of the per-thread stack area.
pub const STACK_BASE: Word = 0x7000_0000;
/// Size reserved for each thread's stack.
pub const STACK_SIZE: Word = 64 * 1024;

/// Returns the initial stack pointer for a thread (stacks grow downward; the
/// top is inset by 16 bytes of red zone).
pub fn initial_sp(tid_index: usize) -> Word {
    STACK_BASE + (tid_index as Word + 1) * STACK_SIZE - 16
}

/// A function body.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Function {
    /// Human-readable name (used in error messages).
    pub name: String,
    /// Instruction sequence. Execution falling off the end faults, so every
    /// path must end in `Ret`, a jump, or an exit syscall.
    pub code: Vec<Instr>,
}

/// A chunk of static data copied into memory before execution starts.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DataSegment {
    /// Destination address.
    pub addr: Word,
    /// Bytes to copy.
    pub bytes: Vec<u8>,
}

/// A complete program: the unit loaded into a [`crate::Machine`].
///
/// Programs are immutable once built and shared via `Arc` between the many
/// executions DoublePlay runs (thread-parallel, epoch-parallel, replay).
/// Build one with [`crate::builder::ProgramBuilder`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Program {
    functions: Vec<Function>,
    entry: FuncId,
    data: Vec<DataSegment>,
    symbols: BTreeMap<String, Word>,
}

impl Program {
    /// Creates a program from parts. Prefer [`crate::builder::ProgramBuilder`].
    ///
    /// Every register operand is checked here, once, so the interpreter
    /// indexes register files without checking each operand it executes.
    ///
    /// # Panics
    ///
    /// Panics if `entry` is out of range, or if any instruction names a
    /// register at or above [`NUM_REGS`].
    pub fn new(
        functions: Vec<Function>,
        entry: FuncId,
        data: Vec<DataSegment>,
        symbols: BTreeMap<String, Word>,
    ) -> Self {
        assert!(
            entry.index() < functions.len(),
            "entry {entry} out of range ({} functions)",
            functions.len()
        );
        for f in &functions {
            for (idx, instr) in f.code.iter().enumerate() {
                for r in instr.registers() {
                    assert!(
                        (r.0 as usize) < NUM_REGS,
                        "register {r} out of range in {}[{idx}]",
                        f.name
                    );
                }
            }
        }
        Program {
            functions,
            entry,
            data,
            symbols,
        }
    }

    /// The function executed by thread 0.
    pub fn entry(&self) -> FuncId {
        self.entry
    }

    /// Looks up a function body.
    pub fn function(&self, id: FuncId) -> Option<&Function> {
        self.functions.get(id.index())
    }

    /// All functions, in id order.
    pub fn functions(&self) -> &[Function] {
        &self.functions
    }

    /// Finds a function id by name.
    pub fn function_by_name(&self, name: &str) -> Option<FuncId> {
        self.functions
            .iter()
            .position(|f| f.name == name)
            .map(|i| FuncId(i as u32))
    }

    /// Static data segments.
    pub fn data(&self) -> &[DataSegment] {
        &self.data
    }

    /// The address of a named global, if defined.
    pub fn symbol(&self, name: &str) -> Option<Word> {
        self.symbols.get(name).copied()
    }

    /// All named globals.
    pub fn symbols(&self) -> &BTreeMap<String, Word> {
        &self.symbols
    }

    /// Total number of instructions across all functions.
    pub fn instruction_count(&self) -> usize {
        self.functions.iter().map(|f| f.code.len()).sum()
    }

    /// A stable content hash of the program, used to pair recordings with
    /// the program they recorded.
    pub fn content_hash(&self) -> u64 {
        let mut h = crate::hash::Fnv1a::new();
        for f in &self.functions {
            h.write_bytes(f.name.as_bytes());
            for instr in &f.code {
                // Debug formatting is stable for our own enum and avoids a
                // bespoke binary encoding just for hashing.
                h.write_bytes(format!("{instr:?}").as_bytes());
            }
        }
        for d in &self.data {
            h.write_u64(d.addr);
            h.write_bytes(&d.bytes);
        }
        h.write_u64(self.entry.0 as u64);
        h.finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::instr::{BinOp, Instr};
    use crate::value::{Reg, Src};

    fn tiny() -> Program {
        Program::new(
            vec![Function {
                name: "main".into(),
                code: vec![Instr::Ret],
            }],
            FuncId(0),
            vec![DataSegment {
                addr: GLOBAL_BASE,
                bytes: vec![1, 2, 3],
            }],
            BTreeMap::from([("g".to_string(), GLOBAL_BASE)]),
        )
    }

    #[test]
    fn lookup_by_name_and_id() {
        let p = tiny();
        assert_eq!(p.function_by_name("main"), Some(FuncId(0)));
        assert_eq!(p.function_by_name("nope"), None);
        assert!(p.function(FuncId(0)).is_some());
        assert!(p.function(FuncId(1)).is_none());
        assert_eq!(p.symbol("g"), Some(GLOBAL_BASE));
        assert_eq!(p.symbol("h"), None);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn bad_entry_panics() {
        Program::new(vec![], FuncId(0), vec![], BTreeMap::new());
    }

    /// One bad register anywhere in any operand position is refused when
    /// the program is built, naming the register and where it is.
    #[test]
    fn out_of_range_registers_panic_at_construction() {
        let cases = [
            Instr::Const {
                dst: Reg(32),
                imm: 1,
            },
            Instr::Bin {
                op: BinOp::Add,
                dst: Reg(0),
                a: Reg(1),
                b: Src::Reg(Reg(40)),
            },
            Instr::Cas {
                dst: Reg(0),
                addr: Reg(1),
                expected: Reg(2),
                new: Reg(255),
            },
            Instr::Jnz {
                cond: Reg(33),
                target: 0,
            },
            Instr::CallIndirect { func: Reg(64) },
        ];
        for (instr, bad) in cases.into_iter().zip([32, 40, 255, 33, 64]) {
            let build = || {
                let code = vec![Instr::Nop, instr, Instr::Ret];
                let main = Function {
                    name: "main".into(),
                    code,
                };
                Program::new(vec![main], FuncId(0), vec![], BTreeMap::new())
            };
            let msg = *std::panic::catch_unwind(build)
                .expect_err("built a program with a bad register")
                .downcast::<String>()
                .unwrap();
            assert_eq!(msg, format!("register r{bad} out of range in main[1]"));
        }
        // r31, the last register, is fine.
        let main = Function {
            name: "main".into(),
            code: vec![Instr::CallIndirect { func: Reg(31) }],
        };
        Program::new(vec![main], FuncId(0), vec![], BTreeMap::new());
    }

    #[test]
    fn content_hash_changes_with_code() {
        let a = tiny();
        let mut b = tiny();
        assert_eq!(a.content_hash(), b.content_hash());
        b = Program::new(
            vec![Function {
                name: "main".into(),
                code: vec![Instr::Nop, Instr::Ret],
            }],
            FuncId(0),
            b.data().to_vec(),
            b.symbols().clone(),
        );
        assert_ne!(a.content_hash(), b.content_hash());
    }

    #[test]
    fn stacks_do_not_overlap() {
        let top0 = initial_sp(0);
        let top1 = initial_sp(1);
        assert!(top1 - top0 == STACK_SIZE);
        assert!(top0 > STACK_BASE);
        assert_eq!(tiny().instruction_count(), 1);
    }
}
