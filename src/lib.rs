//! # doubleplay — uniparallel deterministic record/replay
//!
//! The facade crate of the DoublePlay (ASPLOS 2011) reproduction: a full
//! record/replay stack for multithreaded guest programs, built on
//! uniparallelism. Re-exports the layered crates:
//!
//! * [`vm`] — the deterministic multithreaded bytecode VM substrate;
//! * [`os`] — the simulated kernel (filesystem, sockets, futexes, signals,
//!   speculative output, cost model);
//! * [`core`] — DoublePlay itself: the uniparallel recorder, divergence
//!   detection with forward recovery, and sequential/parallel replay;
//! * [`analyze`] — offline analysis of saved recordings: vector-clock
//!   data-race detection, divergence triage, and inspection/diffing;
//! * [`baselines`] — conventional multiprocessor record/replay schemes for
//!   comparison;
//! * [`workloads`] — the paper-style benchmark suite;
//! * [`dpd`] — the supervised multi-session recording service: admission
//!   control with typed backpressure, a shared verify-core pool with
//!   graceful degradation, per-session fault isolation, and per-session
//!   crash-consistent journals.
//!
//! ## Record and replay in five lines
//!
//! ```
//! use doubleplay::prelude::*;
//!
//! let case = doubleplay::workloads::pfscan::build(2, Size::Small);
//! let bundle = record(&case.spec, &DoublePlayConfig::new(2))?;
//! let report = replay_sequential(&bundle.recording, &case.spec.program)?;
//! assert_eq!(report.epochs as u64, bundle.stats.epochs);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```
//!
//! ## Recording under injected faults
//!
//! A seeded [`core::FaultPlan`] deterministically injects syscall I/O
//! faults, epoch-worker panics, and divergence storms; fault decisions
//! are pure hashes of execution coordinates, so the recording still
//! replays bit-exactly:
//!
//! ```
//! use doubleplay::prelude::*;
//!
//! let plan = FaultPlan::none()
//!     .seed(42)
//!     .io(0.0, 0.01, 0.0)       // fail_p, short_read_p, reset_p
//!     .worker_panics_with(0.01) // panics inside verify workers; retried
//!     .storms(0.05, 4, 64);     // p, window length, jitter amplification
//! doubleplay::core::faults::silence_injected_panics();
//! let case = doubleplay::workloads::aget::build(2, Size::Small);
//! let bundle = record(&case.spec, &DoublePlayConfig::new(2).faults(plan))?;
//! let report = replay_sequential(&bundle.recording, &case.spec.program)?;
//! assert_eq!(report.epochs as u64, bundle.stats.epochs);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

pub use dp_analyze as analyze;
pub use dp_baselines as baselines;
pub use dp_core as core;
pub use dp_dpd as dpd;
pub use dp_os as os;
pub use dp_vm as vm;
pub use dp_workloads as workloads;

/// The commonly-used surface in one import.
pub mod prelude {
    pub use dp_core::{
        measure_native, record, record_to, replay_parallel, replay_sequential, replay_to_point,
        validate_worker_counts, ConfigError, DoublePlayConfig, FaultPlan, GuestSpec, JournalReader,
        JournalWriter, RecordError, RecorderStats, Recording, RecordingBundle, ReplayError,
        Salvaged, SaveError, ShardedJournalWriter, DEFAULT_SHARD_BATCH,
    };
    pub use dp_dpd::{
        AdmitError, Daemon, DaemonConfig, DirStore, MemStore, Priority, SessionSpec, SessionState,
        SessionStore,
    };
    pub use dp_workloads::{mixed_suite, racy_suite, suite, Size, WorkloadCase};
}
