//! # dp-analyze — offline analysis of DoublePlay recordings.
//!
//! DoublePlay's recording is cheap *because* analysis is deferred: the
//! paper's stated use cases — debugging and race diagnosis — happen on the
//! log afterwards. This crate is that deferred half. It consumes saved
//! recordings and fully verified observed replays to produce correctness
//! reports:
//!
//! * [`race`] — a vector-clock happens-before **data-race detector** that
//!   re-runs each epoch under the VM's observer hooks, builds
//!   happens-before edges from spawn/join, futex wake→wait, sync-word
//!   accesses, and signal delivery, and names the racy address pairs
//!   (thread ids, instruction counts, epoch) behind what recording saw
//!   only as opaque divergences;
//! * [`race::triage`] — divergence triage: localize the *first* racy
//!   access pair in a recording whose epochs rolled back;
//! * [`inspect`] — per-epoch schedule/syscall summaries of one recording;
//! * [`diff`] — structural comparison of two recordings of the same
//!   program (first diverging epoch, event index, byte offset).

#![warn(missing_docs)]

pub mod diff;
pub mod inspect;
pub mod race;

pub use diff::{diff, DivergencePoint, RecordingDiff};
pub use inspect::{inspect, EpochSummary, InspectReport};
pub use race::{detect_races, triage, AccessSite, Race, RaceReport, Triage};
