//! The **CREW page-ownership** baseline (SMP-ReVirt style).
//!
//! A concurrent-read/exclusive-write protocol at page granularity: each
//! page is unowned, read-shared, or owned by one thread. Any access that
//! violates the current state is an ownership *fault*: the recorder logs
//! the transition point (thread + exact instruction count) and pays a
//! page-protection fault cost. Because all conflicting accesses cross
//! transitions, the logged transition order totally orders every conflict
//! — so replay serializes the recorded chunks on one CPU and reproduces
//! the run exactly, races included. The price is a fault storm whenever
//! sharing is fine-grained (the classic CREW weakness the paper cites).
//!
//! The transition log is emitted in `dp-core`'s schedule-log format, so
//! replay reuses the stock epoch replayer.

use crate::common::BaselineStats;
use crate::driver::{drive, Hooks};
use dp_core::checkpoint::Checkpoint;
use dp_core::logs::{codec, ScheduleLog};
use dp_core::recording::EpochRecord;
use dp_core::{measure_native, DoublePlayConfig, GuestSpec, RecordError, ReplayError};
use dp_os::kernel::Kernel;
use dp_vm::observer::{Access, MemObserver};
use dp_vm::{memory::page_of, Machine, Tid};
use std::collections::{BTreeMap, HashMap};

/// CREW page state.
#[derive(Debug, Clone, PartialEq, Eq)]
enum PageState {
    ReadShared(Vec<Tid>),
    Owned(Tid),
}

/// Tracks page states and builds the transition schedule.
#[derive(Default)]
struct CrewTracker {
    pages: HashMap<u64, PageState>,
    /// Per-thread instructions not yet emitted into the schedule.
    emitted_icount: BTreeMap<Tid, u64>,
    /// Latest known icount per thread (updated at every observed event).
    latest: BTreeMap<Tid, u64>,
    schedule: ScheduleLog,
    faults: u64,
    accesses: u64,
}

impl CrewTracker {
    /// Emits `tid`'s chunk up to `icount` (its current position).
    fn emit(&mut self, tid: Tid, icount: u64) {
        let done = self.emitted_icount.entry(tid).or_insert(0);
        if icount > *done {
            self.schedule.push_slice(tid, icount - *done);
            *done = icount;
        }
    }
}

impl MemObserver for CrewTracker {
    fn on_access(&mut self, a: Access) {
        self.accesses += 1;
        self.latest.insert(a.tid, a.icount);
        let page = page_of(a.addr);
        let state = self.pages.get(&page).cloned();
        let writes = a.kind.writes();
        match state {
            None => {
                self.pages.insert(
                    page,
                    if writes {
                        PageState::Owned(a.tid)
                    } else {
                        PageState::ReadShared(vec![a.tid])
                    },
                );
            }
            Some(PageState::Owned(owner)) if owner == a.tid => {}
            Some(PageState::Owned(owner)) => {
                // Transition: order the owner's chunk before this access,
                // and pin this access's position.
                self.faults += 1;
                let owner_ic = self.last_known(owner);
                self.emit(owner, owner_ic);
                self.emit(a.tid, a.icount);
                self.pages.insert(
                    page,
                    if writes {
                        PageState::Owned(a.tid)
                    } else {
                        PageState::ReadShared(vec![owner, a.tid])
                    },
                );
            }
            Some(PageState::ReadShared(readers)) => {
                if writes {
                    // Upgrade fault: order every reader's chunk first.
                    self.faults += 1;
                    for r in readers {
                        if r != a.tid {
                            let ic = self.last_known(r);
                            self.emit(r, ic);
                        }
                    }
                    self.emit(a.tid, a.icount);
                    self.pages.insert(page, PageState::Owned(a.tid));
                } else if let Some(PageState::ReadShared(rs)) = self.pages.get_mut(&page) {
                    if !rs.contains(&a.tid) {
                        // New reader: a (cheap) downgrade fault.
                        self.faults += 1;
                        rs.push(a.tid);
                    }
                }
            }
        }
    }
}

impl CrewTracker {
    /// Latest icount we know for `tid` (updated on its accesses/syscalls).
    fn last_known(&self, tid: Tid) -> u64 {
        self.latest.get(&tid).copied().unwrap_or(0)
    }
}

impl Hooks for CrewTracker {
    fn on_signal(&mut self, tid: Tid, sig: dp_vm::Word, icount: u64) {
        self.latest.insert(tid, icount);
        self.emit(tid, icount);
        self.schedule.push_signal(tid, sig);
    }

    fn on_syscall(&mut self, tid: Tid, icount: u64) {
        self.latest.insert(tid, icount);
        self.emit(tid, icount);
    }

    fn on_wake(&mut self, tid: Tid) {
        self.schedule.push_wake(tid);
    }

    fn on_thread_done(&mut self, tid: Tid, icount: u64) {
        self.latest.insert(tid, icount);
        self.emit(tid, icount);
    }
}

/// A CREW recording (single whole-run epoch in the standard format).
#[derive(Debug)]
pub struct CrewRecording {
    /// Boot checkpoint.
    pub initial: Checkpoint,
    /// Whole-run transition schedule + syscall log.
    pub epoch: EpochRecord,
    /// Measurements.
    pub stats: BaselineStats,
    /// CREW faults observed.
    pub faults: u64,
}

/// Records `spec` under the CREW protocol.
///
/// # Errors
///
/// Guest faults, deadlocks, or budget exhaustion.
pub fn record(spec: &GuestSpec, config: &DoublePlayConfig) -> Result<CrewRecording, RecordError> {
    let (mut machine, mut kernel) = spec.boot();
    let initial = Checkpoint::capture(&machine, &kernel);
    let mut tracker = CrewTracker::default();
    let out = drive(
        &mut machine,
        &mut kernel,
        config.cpus,
        config.tp_quantum,
        config.tp_jitter,
        config.hidden_seed,
        config.max_instructions,
        &mut tracker,
    )?;
    // Close out every thread's trailing chunk (deterministic order).
    let finals: Vec<(Tid, u64)> = machine
        .threads()
        .iter()
        .map(|t| (t.tid, t.icount))
        .collect();
    for (tid, ic) in finals {
        tracker.emit(tid, ic);
    }

    let cost = kernel.cost_model();
    let sched_bytes = codec::encode_schedule(&tracker.schedule).len() as u64;
    let sys_bytes = codec::encode_syscalls(&out.syscalls).len() as u64;
    let log_bytes = sched_bytes + sys_bytes;
    let recorded_cycles = out.cycles
        + (tracker.faults * cost.crew_fault + cost.log_write(log_bytes)) / config.cpus as u64;

    let stats = BaselineStats {
        recorded_cycles,
        native_cycles: measure_native(spec, config)?,
        log_bytes,
        events: tracker.faults,
        instructions: out.instructions,
    };
    Ok(CrewRecording {
        epoch: EpochRecord {
            index: 0,
            schedule: tracker.schedule,
            syscalls: out.syscalls,
            end_machine_hash: machine.state_hash(),
            external: Vec::new(),
            start: initial.to_image(),
            tp_cycles: out.cycles,
        },
        initial,
        stats,
        faults: tracker.faults,
    })
}

/// Replays a CREW recording by serializing the transition chunks, and
/// verifies the final state digest.
///
/// # Errors
///
/// Any [`ReplayError`] on mismatch.
pub fn replay(recording: &CrewRecording) -> Result<(Machine, Kernel), ReplayError> {
    let (machine, kernel, _) = dp_core::replay_epoch(&recording.initial, &recording.epoch)?;
    Ok((machine, kernel))
}

#[cfg(test)]
mod tests {
    use super::*;
    use dp_workloads::Size;

    fn config() -> DoublePlayConfig {
        DoublePlayConfig {
            tp_quantum: 300,
            tp_jitter: 400,
            ..DoublePlayConfig::new(2)
        }
    }

    #[test]
    fn crew_replays_a_racy_program_exactly() {
        // The CREW claim: transition ordering is enough to replay even
        // unsynchronized races bit-for-bit.
        let case = dp_workloads::racey::counter(2, Size::Small);
        let rec = record(&case.spec, &config()).unwrap();
        assert!(rec.faults > 0, "racy counter must fault");
        let (machine, _kernel) = replay(&rec).unwrap();
        assert_eq!(machine.state_hash(), rec.epoch.end_machine_hash);
    }

    #[test]
    fn crew_replays_the_banking_race() {
        let case = dp_workloads::racey::banking(2, Size::Small);
        let rec = record(&case.spec, &config()).unwrap();
        let (machine, kernel) = replay(&rec).unwrap();
        (case.verify)(&machine, &kernel).unwrap();
    }

    #[test]
    fn crew_replays_locked_and_scientific_workloads() {
        for case in [
            dp_workloads::kvstore::build(2, Size::Small),
            dp_workloads::radix::build(2, Size::Small),
        ] {
            let rec = record(&case.spec, &config()).unwrap();
            let (machine, kernel) = replay(&rec).unwrap_or_else(|e| panic!("{}: {e}", case.name));
            (case.verify)(&machine, &kernel).unwrap_or_else(|e| panic!("{}: {e}", case.name));
        }
    }

    #[test]
    fn fault_rate_reflects_sharing() {
        // ocean shares grid pages across threads every iteration; pfscan
        // only shares the input read-only (reads never upgrade).
        let ocean = record(&dp_workloads::ocean::build(2, Size::Small).spec, &config()).unwrap();
        let pfscan = record(&dp_workloads::pfscan::build(2, Size::Small).spec, &config()).unwrap();
        assert!(
            ocean.faults > pfscan.faults,
            "ocean {} vs pfscan {}",
            ocean.faults,
            pfscan.faults
        );
    }
}
