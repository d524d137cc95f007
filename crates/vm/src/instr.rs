//! The VM instruction set.
//!
//! The ISA is a compact register machine: arithmetic and comparisons over
//! 64-bit registers, little-endian loads/stores of 1/2/4/8 bytes, atomic
//! read-modify-write operations, structured control flow within a function,
//! calls between functions, and a `Syscall` trap into the host kernel.
//!
//! Every instruction executes atomically with respect to other threads: the
//! interpreter interleaves threads only *between* instructions, which is what
//! lets a single-processor schedule log fully determine an execution.

use crate::program::FuncId;
use crate::value::{Reg, Src, Width};

/// Binary operations for [`Instr::Bin`].
///
/// Comparison operators produce `1` for true and `0` for false. Shift counts
/// are taken modulo 64. Signed variants interpret their operands as `i64`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BinOp {
    /// Wrapping addition.
    Add,
    /// Wrapping subtraction.
    Sub,
    /// Wrapping multiplication.
    Mul,
    /// Unsigned division. Division by zero faults.
    Divu,
    /// Unsigned remainder. Division by zero faults.
    Remu,
    /// Signed division. Division by zero faults; `i64::MIN / -1` wraps.
    Divs,
    /// Signed remainder. Division by zero faults; `i64::MIN % -1` is `0`.
    Rems,
    /// Bitwise and.
    And,
    /// Bitwise or.
    Or,
    /// Bitwise exclusive-or.
    Xor,
    /// Logical shift left (count mod 64).
    Shl,
    /// Logical shift right (count mod 64).
    Shr,
    /// Arithmetic shift right (count mod 64).
    Sar,
    /// Equality comparison.
    Eq,
    /// Inequality comparison.
    Ne,
    /// Unsigned less-than.
    Ltu,
    /// Unsigned less-or-equal.
    Leu,
    /// Signed less-than.
    Lts,
    /// Signed less-or-equal.
    Les,
    /// Unsigned minimum.
    Minu,
    /// Unsigned maximum.
    Maxu,
}

impl BinOp {
    /// Evaluates the operation on two words.
    ///
    /// Returns `None` for division or remainder by zero (the interpreter
    /// turns this into a [`crate::Fault::DivideByZero`]).
    #[inline]
    pub fn eval(self, a: u64, b: u64) -> Option<u64> {
        Some(match self {
            BinOp::Add => a.wrapping_add(b),
            BinOp::Sub => a.wrapping_sub(b),
            BinOp::Mul => a.wrapping_mul(b),
            BinOp::Divu => {
                if b == 0 {
                    return None;
                }
                a / b
            }
            BinOp::Remu => {
                if b == 0 {
                    return None;
                }
                a % b
            }
            BinOp::Divs => {
                if b == 0 {
                    return None;
                }
                (a as i64).wrapping_div(b as i64) as u64
            }
            BinOp::Rems => {
                if b == 0 {
                    return None;
                }
                (a as i64).wrapping_rem(b as i64) as u64
            }
            BinOp::And => a & b,
            BinOp::Or => a | b,
            BinOp::Xor => a ^ b,
            BinOp::Shl => a.wrapping_shl(b as u32),
            BinOp::Shr => a.wrapping_shr(b as u32),
            BinOp::Sar => ((a as i64).wrapping_shr(b as u32)) as u64,
            BinOp::Eq => (a == b) as u64,
            BinOp::Ne => (a != b) as u64,
            BinOp::Ltu => (a < b) as u64,
            BinOp::Leu => (a <= b) as u64,
            BinOp::Lts => ((a as i64) < (b as i64)) as u64,
            BinOp::Les => ((a as i64) <= (b as i64)) as u64,
            BinOp::Minu => a.min(b),
            BinOp::Maxu => a.max(b),
        })
    }
}

/// Unary operations for [`Instr::Un`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum UnOp {
    /// Bitwise complement.
    Not,
    /// Two's-complement negation.
    Neg,
}

impl UnOp {
    /// Evaluates the operation.
    #[inline]
    pub fn eval(self, a: u64) -> u64 {
        match self {
            UnOp::Not => !a,
            UnOp::Neg => a.wrapping_neg(),
        }
    }
}

/// A single VM instruction.
///
/// Control-flow targets (`Jmp`, `Jz`, `Jnz`) are indices into the containing
/// function's instruction vector; the [`crate::builder::FunctionBuilder`]
/// resolves symbolic labels to these indices.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[allow(missing_docs)] // operand fields are described in each variant's doc
pub enum Instr {
    /// `dst = imm` — load a 64-bit constant.
    Const { dst: Reg, imm: u64 },
    /// `dst = src` — register or immediate move.
    Mov { dst: Reg, src: Src },
    /// `dst = a <op> b`.
    Bin { op: BinOp, dst: Reg, a: Reg, b: Src },
    /// `dst = <op> a`.
    Un { op: UnOp, dst: Reg, a: Reg },
    /// `dst = mem[addr + offset]` (zero-extended, little-endian).
    Load {
        dst: Reg,
        addr: Reg,
        offset: i64,
        width: Width,
    },
    /// `mem[addr + offset] = src` (truncated to `width`).
    Store {
        src: Reg,
        addr: Reg,
        offset: i64,
        width: Width,
    },
    /// Atomic compare-and-swap on a 64-bit word:
    /// `dst = mem[addr]; if dst == expected { mem[addr] = new }`.
    Cas {
        dst: Reg,
        addr: Reg,
        expected: Reg,
        new: Reg,
    },
    /// Atomic fetch-and-add on a 64-bit word: `dst = mem[addr]; mem[addr] += val`.
    FetchAdd { dst: Reg, addr: Reg, val: Src },
    /// Atomic exchange on a 64-bit word: `dst = mem[addr]; mem[addr] = val`.
    Swap { dst: Reg, addr: Reg, val: Reg },
    /// Unconditional jump within the current function.
    Jmp { target: u32 },
    /// Jump if `cond != 0`.
    Jnz { cond: Reg, target: u32 },
    /// Jump if `cond == 0`.
    Jz { cond: Reg, target: u32 },
    /// Call a function. The callee receives a fresh register file with
    /// `r0..r7` copied from the caller and the thread registers (`r28..r31`)
    /// inherited.
    Call { func: FuncId },
    /// Call the function whose id is in a register (for function tables).
    CallIndirect { func: Reg },
    /// Return to the caller, copying `r0..r1` and `r28..r31` back. Returning
    /// from a thread's bottom frame exits the thread with `r0` as its exit
    /// value.
    Ret,
    /// Trap into the host kernel. Arguments are taken from `r0..r5`; the
    /// kernel's result is written to `r0` when the call completes.
    Syscall { num: u32 },
    /// Do nothing (placeholder / alignment).
    Nop,
}

impl Instr {
    /// True for instructions that read or write memory (used by access
    /// observers and the CREW baseline to know which instructions can fault).
    pub fn touches_memory(&self) -> bool {
        matches!(
            self,
            Instr::Load { .. }
                | Instr::Store { .. }
                | Instr::Cas { .. }
                | Instr::FetchAdd { .. }
                | Instr::Swap { .. }
        )
    }

    /// True for atomic read-modify-write instructions.
    pub fn is_atomic(&self) -> bool {
        matches!(
            self,
            Instr::Cas { .. } | Instr::FetchAdd { .. } | Instr::Swap { .. }
        )
    }

    /// Every register the instruction reads or writes.
    pub(crate) fn registers(&self) -> impl Iterator<Item = Reg> {
        let src = |s: Src| match s {
            Src::Reg(r) => Some(r),
            Src::Imm(_) => None,
        };
        let regs = match *self {
            Instr::Const { dst, .. } => [Some(dst), None, None, None],
            Instr::Mov { dst, src: s } => [Some(dst), src(s), None, None],
            Instr::Bin { dst, a, b, .. } => [Some(dst), Some(a), src(b), None],
            Instr::Un { dst, a, .. } => [Some(dst), Some(a), None, None],
            Instr::Load { dst, addr, .. } => [Some(dst), Some(addr), None, None],
            Instr::Store { src: s, addr, .. } => [Some(s), Some(addr), None, None],
            Instr::Cas {
                dst,
                addr,
                expected,
                new,
            } => [Some(dst), Some(addr), Some(expected), Some(new)],
            Instr::FetchAdd { dst, addr, val } => [Some(dst), Some(addr), src(val), None],
            Instr::Swap { dst, addr, val } => [Some(dst), Some(addr), Some(val), None],
            Instr::Jnz { cond, .. } | Instr::Jz { cond, .. } => [Some(cond), None, None, None],
            Instr::CallIndirect { func } => [Some(func), None, None, None],
            Instr::Jmp { .. }
            | Instr::Call { .. }
            | Instr::Ret
            | Instr::Syscall { .. }
            | Instr::Nop => [None; 4],
        };
        regs.into_iter().flatten()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn arithmetic_wraps() {
        assert_eq!(BinOp::Add.eval(u64::MAX, 1), Some(0));
        assert_eq!(BinOp::Sub.eval(0, 1), Some(u64::MAX));
        assert_eq!(BinOp::Mul.eval(u64::MAX, 2), Some(u64::MAX - 1));
    }

    #[test]
    fn division_by_zero_is_none() {
        assert_eq!(BinOp::Divu.eval(5, 0), None);
        assert_eq!(BinOp::Remu.eval(5, 0), None);
        assert_eq!(BinOp::Divs.eval(5, 0), None);
        assert_eq!(BinOp::Rems.eval(5, 0), None);
    }

    #[test]
    fn signed_division_edge_cases() {
        let min = i64::MIN as u64;
        assert_eq!(BinOp::Divs.eval(min, u64::MAX), Some(min)); // MIN / -1 wraps
        assert_eq!(BinOp::Rems.eval(min, u64::MAX), Some(0));
        assert_eq!(BinOp::Divs.eval((-7i64) as u64, 2), Some((-3i64) as u64));
    }

    #[test]
    fn comparisons_are_boolean() {
        assert_eq!(BinOp::Ltu.eval(1, 2), Some(1));
        assert_eq!(BinOp::Ltu.eval(2, 1), Some(0));
        assert_eq!(BinOp::Lts.eval((-1i64) as u64, 0), Some(1));
        assert_eq!(BinOp::Ltu.eval((-1i64) as u64, 0), Some(0));
        assert_eq!(BinOp::Eq.eval(3, 3), Some(1));
        assert_eq!(BinOp::Ne.eval(3, 3), Some(0));
    }

    #[test]
    fn shifts_mask_count() {
        assert_eq!(BinOp::Shl.eval(1, 64), Some(1)); // count mod 64
        assert_eq!(BinOp::Shr.eval(0x80, 4), Some(8));
        assert_eq!(BinOp::Sar.eval((-8i64) as u64, 1), Some((-4i64) as u64));
    }

    #[test]
    fn unary_ops() {
        assert_eq!(UnOp::Not.eval(0), u64::MAX);
        assert_eq!(UnOp::Neg.eval(1), u64::MAX);
        assert_eq!(UnOp::Neg.eval(0), 0);
    }

    #[test]
    fn memory_classification() {
        let load = Instr::Load {
            dst: Reg(0),
            addr: Reg(1),
            offset: 0,
            width: Width::W8,
        };
        assert!(load.touches_memory());
        assert!(!load.is_atomic());
        let cas = Instr::Cas {
            dst: Reg(0),
            addr: Reg(1),
            expected: Reg(2),
            new: Reg(3),
        };
        assert!(cas.touches_memory());
        assert!(cas.is_atomic());
        assert!(!Instr::Nop.touches_memory());
    }

    #[test]
    fn min_max() {
        assert_eq!(BinOp::Minu.eval(3, 9), Some(3));
        assert_eq!(BinOp::Maxu.eval(3, 9), Some(9));
    }
}
