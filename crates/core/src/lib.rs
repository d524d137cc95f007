//! # dp-core — DoublePlay: parallelizing sequential logging and replay
//!
//! A from-scratch reproduction of the DoublePlay system (Veeraraghavan et
//! al., ASPLOS 2011): deterministic record/replay for multithreaded
//! programs on multiprocessors via **uniparallelism**.
//!
//! ## The idea
//!
//! Deterministic multiprocessor replay is expensive because racing
//! shared-memory accesses must be ordered. DoublePlay instead runs the
//! program twice, concurrently:
//!
//! * a **thread-parallel execution** across all CPUs, which only generates
//!   epoch checkpoints and a syscall log (never the execution of record);
//! * an **epoch-parallel execution**, where each epoch (time interval) runs
//!   *all* threads time-sliced on one CPU, different epochs on different
//!   CPUs, each from its checkpoint.
//!
//! Within an epoch threads never race — so recording needs only a schedule
//! log (thread time-slice order) plus logged syscall results. If a data
//! race makes the epoch-parallel run disagree with the thread-parallel
//! run's next checkpoint, the divergence is detected by state digest
//! comparison and forward recovery adopts the epoch-parallel state.
//!
//! ## Quick start
//!
//! ```
//! use dp_core::{record, replay_sequential, DoublePlayConfig, GuestSpec};
//! use dp_os::{abi, kernel::WorldConfig};
//! use dp_vm::builder::ProgramBuilder;
//! use dp_vm::Reg;
//! use std::sync::Arc;
//!
//! // A trivial guest: exit(7).
//! let mut pb = ProgramBuilder::new();
//! let mut f = pb.function("main");
//! f.consti(Reg(0), 7);
//! f.syscall(abi::SYS_EXIT);
//! f.finish();
//! let spec = GuestSpec::new("demo", Arc::new(pb.finish("main")), WorldConfig::default());
//!
//! let bundle = record(&spec, &DoublePlayConfig::new(2))?;
//! let report = replay_sequential(&bundle.recording, &spec.program)?;
//! assert_eq!(report.exit_code, Some(7));
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```
//!
//! ## Map of the crate
//!
//! | Paper concept | Here |
//! |---|---|
//! | epochs & checkpoints | [`checkpoint`] |
//! | schedule + syscall logs | [`logs`] |
//! | thread-parallel execution | [`record::thread_parallel`] |
//! | epoch-parallel execution & divergence | [`record::epoch_parallel`] |
//! | uniparallel coordination, forward recovery | [`record::coordinator`] |
//! | multithreaded recording on real spare cores | [`record::pipelined`] |
//! | offline replay (sequential / parallel / to-point) | [`replay`] |
//! | the recording artifact | [`recording`] |
//! | the recording format: N-stream journals, salvage & merge | [`journal`] |

#![warn(missing_docs)]

pub mod checkpoint;
mod config;
mod error;
pub mod faults;
pub mod journal;
pub mod logs;
pub mod observe;
pub mod record;
pub mod recording;
pub mod replay;
mod stats;
mod world;

pub use checkpoint::{Checkpoint, CheckpointImage, EpochTargets, ThreadTarget};
pub use config::{validate_worker_counts, ConfigError, DoublePlayConfig, MAX_SPARE_WORKERS};
pub use error::{RecordError, ReplayError, ResumeError, SaveError};
pub use faults::FaultPlan;
pub use journal::{
    JournalReader, JournalWriter, NullSink, RecordSink, Salvaged, ShardedJournalWriter,
    DEFAULT_SHARD_BATCH,
};
pub use observe::{replay_observed, ReplayEvent, ReplayObserver};
pub use record::coordinator::{measure_native, record, record_to, RecordingBundle};
pub use record::epoch_parallel::Divergence;
pub use record::resume::resume_from;
pub use recording::{EncodedLogs, EpochRecord, Recording, RecordingMeta};
pub use replay::{
    replay_epoch, replay_epoch_observed, replay_parallel, replay_sequential, replay_to_point,
    ReplayReport,
};
pub use stats::{RecorderStats, WallClockStats, DEPTH_BUCKETS, MAX_TRACKED_WORKERS};
pub use world::GuestSpec;
