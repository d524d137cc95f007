//! Memory-access observation hooks.
//!
//! The DoublePlay recorder itself never needs these — that is the paper's
//! central claim — but the baseline recorders it is compared against do:
//! value logging records every shared read, and CREW page-ownership logging
//! must see every access to drive its page state machine. The interpreter
//! reports each data access to an observer so those baselines can be built
//! without touching the interpreter.

use crate::value::{Tid, Width, Word};

/// Kind of data access.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AccessKind {
    /// A plain load.
    Read,
    /// A plain store.
    Write,
    /// An atomic read-modify-write (counts as both a read and a write).
    Atomic,
}

impl AccessKind {
    /// Whether the access reads memory.
    pub fn reads(self) -> bool {
        matches!(self, AccessKind::Read | AccessKind::Atomic)
    }

    /// Whether the access writes memory.
    pub fn writes(self) -> bool {
        matches!(self, AccessKind::Write | AccessKind::Atomic)
    }
}

/// One observed data access.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Access {
    /// Thread performing the access.
    pub tid: Tid,
    /// The accessing thread's instruction count *after* the instruction.
    pub icount: u64,
    /// Byte address.
    pub addr: Word,
    /// Access width.
    pub width: Width,
    /// Kind of access.
    pub kind: AccessKind,
    /// Value read (for reads/atomics) or written (for writes).
    pub value: Word,
}

/// Receives every data access the interpreter performs.
///
/// [`Machine::step`](crate::Machine::step) and
/// [`Machine::run_slice`](crate::Machine::run_slice) are generic over the
/// observer, so dispatch is static: with [`NullObserver`] the hooks, and the
/// [`Access`] values built for them, compile away. `&mut dyn MemObserver`
/// still works, with one virtual call per hook. A real observer runs once
/// per data access, so it should stay cheap.
pub trait MemObserver {
    /// Called after each data memory access.
    fn on_access(&mut self, access: Access);

    /// Called *before* a plain load; returning `Some(v)` makes the load
    /// yield `v` instead of reading memory. Value-logging replay uses this
    /// to feed a thread the shared-memory values it saw during recording.
    /// The default never intercepts.
    fn intercept_load(&mut self, tid: Tid, addr: Word, width: Width) -> Option<Word> {
        let _ = (tid, addr, width);
        None
    }

    /// Called *before* an atomic read-modify-write; returning `Some(old)`
    /// makes the atomic observe `old` and suppresses its memory write
    /// (value-logging replay runs each thread in isolation, so its view of
    /// shared atomics comes entirely from the log). The default never
    /// intercepts.
    fn intercept_atomic(&mut self, tid: Tid, addr: Word) -> Option<Word> {
        let _ = (tid, addr);
        None
    }
}

/// An observer that ignores everything; used by the DoublePlay recorder and
/// anywhere access tracking is not needed. It costs the interpreter nothing.
#[derive(Debug, Clone, Copy, Default)]
pub struct NullObserver;

impl MemObserver for NullObserver {
    #[inline]
    fn on_access(&mut self, _access: Access) {}
}

/// Test helper: collects all accesses into a vector.
#[derive(Debug, Default)]
pub struct CollectingObserver {
    /// Accesses in program order.
    pub accesses: Vec<Access>,
}

impl MemObserver for CollectingObserver {
    fn on_access(&mut self, access: Access) {
        self.accesses.push(access);
    }
}

/// Classifies addresses by how they are used: which addresses are ever
/// accessed atomically (synchronization candidates — mutex words, barrier
/// counters) and which are touched by more than one thread (sharing
/// candidates). Race detection uses a first pass with this observer to
/// restrict its expensive vector-clock tracking to addresses that are
/// shared but not themselves synchronization words.
///
/// Addresses are keyed by their start byte; the guest ABI accesses each
/// location with a consistent width, so start-byte identity is sufficient.
#[derive(Debug, Default)]
pub struct SharingTracker {
    /// Addresses ever accessed with [`AccessKind::Atomic`].
    pub atomic_addrs: std::collections::BTreeSet<Word>,
    /// Addresses accessed by at least two distinct threads.
    pub shared_addrs: std::collections::BTreeSet<Word>,
    first_owner: std::collections::BTreeMap<Word, Tid>,
}

impl SharingTracker {
    /// Creates an empty tracker.
    pub fn new() -> Self {
        Self::default()
    }
}

impl MemObserver for SharingTracker {
    fn on_access(&mut self, access: Access) {
        if access.kind == AccessKind::Atomic {
            self.atomic_addrs.insert(access.addr);
        }
        match self.first_owner.get(&access.addr) {
            None => {
                self.first_owner.insert(access.addr, access.tid);
            }
            Some(owner) if *owner != access.tid => {
                self.shared_addrs.insert(access.addr);
            }
            Some(_) => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kind_classification() {
        assert!(AccessKind::Read.reads());
        assert!(!AccessKind::Read.writes());
        assert!(!AccessKind::Write.reads());
        assert!(AccessKind::Write.writes());
        assert!(AccessKind::Atomic.reads());
        assert!(AccessKind::Atomic.writes());
    }

    #[test]
    fn sharing_tracker_classifies_addresses() {
        let mut t = SharingTracker::new();
        let mk = |tid: u32, addr: Word, kind: AccessKind| Access {
            tid: Tid(tid),
            icount: 0,
            addr,
            width: Width::W8,
            kind,
            value: 0,
        };
        t.on_access(mk(0, 0x10, AccessKind::Write)); // private to tid 0
        t.on_access(mk(0, 0x20, AccessKind::Write)); // shared below
        t.on_access(mk(1, 0x20, AccessKind::Read));
        t.on_access(mk(0, 0x30, AccessKind::Atomic)); // sync word, shared
        t.on_access(mk(1, 0x30, AccessKind::Atomic));
        assert!(!t.shared_addrs.contains(&0x10));
        assert!(t.shared_addrs.contains(&0x20));
        assert!(t.shared_addrs.contains(&0x30));
        assert_eq!(t.atomic_addrs.iter().copied().collect::<Vec<_>>(), [0x30]);
    }

    #[test]
    fn collecting_observer_collects() {
        let mut obs = CollectingObserver::default();
        let a = Access {
            tid: Tid(0),
            icount: 1,
            addr: 0x1000,
            width: Width::W8,
            kind: AccessKind::Read,
            value: 5,
        };
        obs.on_access(a);
        assert_eq!(obs.accesses, vec![a]);
    }
}
