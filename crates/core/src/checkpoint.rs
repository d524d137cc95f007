//! Checkpoints: copy-on-write snapshots of (machine, kernel) pairs.
//!
//! A checkpoint captures the *entire* recorded world — guest memory and
//! threads plus all kernel state (files, sockets, futex queues, timers,
//! entropy). Cloning is cheap (page tables and file contents are
//! `Arc`-shared); mutation after a checkpoint pays copy-on-write, which is
//! what the cost model charges per dirty page, mirroring the paper's
//! `fork()`-based checkpoints.

use dp_os::kernel::{Kernel, WorldConfig};
use dp_support::wire::{Reader, Wire, WireError};
use dp_vm::memory::Memory;
use dp_vm::{Machine, MachineImage, Program, Tid};
use std::collections::BTreeMap;
use std::sync::Arc;

/// Where each thread must stop in the epoch-parallel execution: the
/// per-thread instruction counts captured at the *next* checkpoint. This is
/// the simulated stand-in for the paper's syscall + hardware-branch-counter
/// epoch boundary markers.
pub type EpochTargets = BTreeMap<Tid, ThreadTarget>;

/// The epoch-boundary targets `machine`'s thread table sets: running the
/// previous epoch must bring every thread to exactly these instruction
/// counts.
pub(crate) fn targets_of(machine: &Machine) -> EpochTargets {
    machine
        .threads()
        .iter()
        .map(|t| {
            (
                t.tid,
                ThreadTarget {
                    icount: t.icount,
                    exited: t.is_exited(),
                },
            )
        })
        .collect()
}

/// One thread's epoch-boundary position.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ThreadTarget {
    /// Instruction count the thread must reach.
    pub icount: u64,
    /// Whether the thread had exited by the boundary.
    pub exited: bool,
}

/// A snapshot of the full world at an epoch boundary.
#[derive(Debug, Clone)]
pub struct Checkpoint {
    /// The machine at the boundary.
    pub machine: Machine,
    /// The kernel at the boundary.
    pub kernel: Kernel,
    /// Cached machine state hash (divergence detection compares these).
    pub machine_hash: u64,
}

impl Checkpoint {
    /// Snapshots the current world with its machine digest. The snapshot
    /// shares its pages, and their cached digests, with `machine`.
    pub fn capture(machine: &Machine, kernel: &Kernel) -> Self {
        let machine_hash = machine.state_hash();
        Checkpoint {
            machine: machine.clone(),
            kernel: kernel.clone(),
            machine_hash,
        }
    }

    /// Snapshots the current world *without* computing the machine digest
    /// (left 0). The pipelined recorder uses this on its speculative
    /// front-end: hashing is the dominant per-epoch cost, so it is deferred
    /// to the verify worker, which recomputes the digest off the critical
    /// path. A deferred checkpoint is only ever a verify/live *start* state
    /// (whose digest is never read); it must not become authoritative
    /// until the digest is filled in.
    pub fn capture_deferred(machine: &Machine, kernel: &Kernel) -> Self {
        Checkpoint {
            machine: machine.clone(),
            kernel: kernel.clone(),
            machine_hash: 0,
        }
    }

    /// Converts to a serializable image.
    pub fn to_image(&self) -> CheckpointImage {
        self.clone().into_image()
    }

    /// Converts into a serializable image.
    pub fn into_image(self) -> CheckpointImage {
        CheckpointImage {
            machine: self.machine.into_image(),
            kernel: self.kernel,
            machine_hash: self.machine_hash,
        }
    }

    /// Restores from an image, reattaching the program.
    pub fn from_image(program: Arc<Program>, image: CheckpointImage) -> Self {
        Checkpoint {
            machine: Machine::from_image(program, image.machine),
            kernel: image.kernel,
            machine_hash: image.machine_hash,
        }
    }
}

/// Serializable form of a [`Checkpoint`] (program detached).
#[derive(Debug, Clone)]
pub struct CheckpointImage {
    /// Machine state.
    pub machine: MachineImage,
    /// Kernel state.
    pub kernel: Kernel,
    /// Cached machine hash.
    pub machine_hash: u64,
}

impl CheckpointImage {
    /// The image with no pages, threads or files: the base the journal
    /// header's initial image is a delta against, so the boot image's
    /// pages take the same forms as every start delta's.
    pub fn empty() -> Self {
        CheckpointImage {
            machine: MachineImage {
                mem: Memory::new(),
                threads: Vec::new(),
                halted: None,
                fault: None,
            },
            kernel: Kernel::new(WorldConfig::default()),
            machine_hash: 0,
        }
    }

    /// Appends the delta that turns `base` into `self`: the machine as a
    /// page delta ([`MachineImage::put_delta`]) whose pages may copy
    /// blocks of `base`'s files, the kernel with
    /// unchanged file contents and peer scripts back-referenced
    /// ([`Kernel::put_delta`]), then the machine hash. The bytes are a pure
    /// function of the two images' contents.
    pub fn put_delta(&self, base: &CheckpointImage, out: &mut Vec<u8>) {
        let files = base.kernel.fs().file_contents();
        self.machine.put_delta(&base.machine, &files, out);
        self.kernel.put_delta(&base.kernel, out);
        self.machine_hash.put(out);
    }

    /// Applies a [`put_delta`](CheckpointImage::put_delta) encoding to
    /// `base`. The result shares every unchanged page and file with
    /// `base`.
    ///
    /// # Errors
    ///
    /// A [`WireError`] for malformed or truncated input, or a
    /// back-reference `base` cannot satisfy; never a panic.
    pub fn get_delta(base: &CheckpointImage, r: &mut Reader<'_>) -> Result<Self, WireError> {
        let files = base.kernel.fs().file_contents();
        Ok(CheckpointImage {
            machine: MachineImage::get_delta(&base.machine, &files, r)?,
            kernel: Kernel::get_delta(&base.kernel, r)?,
            machine_hash: Wire::get(r)?,
        })
    }
}

dp_support::impl_wire_struct!(ThreadTarget { icount, exited });

#[cfg(test)]
mod tests {
    use super::*;
    use crate::world::GuestSpec;
    use dp_os::kernel::WorldConfig;
    use dp_vm::builder::ProgramBuilder;
    use dp_vm::observer::NullObserver;
    use dp_vm::{Reg, SliceLimits};

    fn spec() -> GuestSpec {
        let mut pb = ProgramBuilder::new();
        let mut f = pb.function("main");
        let top = f.label();
        f.bind(top);
        f.add(Reg(1), Reg(1), 1i64);
        f.store(Reg(1), Reg(2), 0x2000, dp_vm::Width::W8);
        f.jmp(top);
        f.finish();
        GuestSpec::new(
            "loop",
            std::sync::Arc::new(pb.finish("main")),
            WorldConfig::default(),
        )
    }

    #[test]
    fn capture_restore_identical() {
        let (mut m, k) = spec().boot();
        m.run_slice(Tid(0), SliceLimits::budget(10), &mut NullObserver)
            .unwrap();
        let ckpt = Checkpoint::capture(&m, &k);
        assert_eq!(ckpt.machine_hash, m.state_hash());
        // Mutating the live machine does not disturb the checkpoint.
        m.run_slice(Tid(0), SliceLimits::budget(10), &mut NullObserver)
            .unwrap();
        assert_ne!(ckpt.machine.state_hash(), m.state_hash());
        assert_eq!(ckpt.machine.state_hash(), ckpt.machine_hash);
    }

    #[test]
    fn targets_reflect_icounts_and_exits() {
        let (mut m, k) = spec().boot();
        m.run_slice(Tid(0), SliceLimits::budget(7), &mut NullObserver)
            .unwrap();
        let entry = m.program().entry();
        let t1 = m.spawn_thread(entry, &[]);
        m.exit_thread(t1, 9);
        let ckpt = Checkpoint::capture(&m, &k);
        let targets = targets_of(&ckpt.machine);
        assert_eq!(targets[&Tid(0)].icount, 7);
        assert!(!targets[&Tid(0)].exited);
        assert!(targets[&t1].exited);
    }

    #[test]
    fn image_roundtrip() {
        let s = spec();
        let (mut m, k) = s.boot();
        m.run_slice(Tid(0), SliceLimits::budget(25), &mut NullObserver)
            .unwrap();
        let ckpt = Checkpoint::capture(&m, &k);
        let image = ckpt.to_image();
        let restored = Checkpoint::from_image(s.program.clone(), image);
        assert_eq!(restored.machine_hash, ckpt.machine_hash);
        assert_eq!(restored.machine.state_hash(), ckpt.machine.state_hash());
        assert_eq!(restored.kernel, ckpt.kernel);
    }
}
