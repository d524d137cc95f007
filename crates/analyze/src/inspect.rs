//! Per-epoch inspection of a recording: what each epoch's schedule and
//! syscall logs contain, how big they are on the wire, and how the epochs
//! fit together.

use dp_core::logs::codec;
use dp_core::{Recording, ReplayError};
use dp_os::abi;
use dp_vm::Tid;
use std::collections::BTreeMap;
use std::fmt;

/// Summary of one epoch's logs.
#[derive(Debug, Clone)]
pub struct EpochSummary {
    /// Epoch number.
    pub index: u32,
    /// Schedule event counts: time slices, logged wakes, signal
    /// deliveries.
    pub slices: usize,
    /// Logged-wake deliveries.
    pub wakes: usize,
    /// Signal deliveries.
    pub signals: usize,
    /// Per-thread `(tid, slice count, instructions)`.
    pub per_thread: Vec<(Tid, usize, u64)>,
    /// Logged syscalls by name, with counts.
    pub syscalls_by_name: Vec<(&'static str, usize)>,
    /// Encoded schedule-log size.
    pub schedule_bytes: usize,
    /// Encoded syscall-log size.
    pub syscall_bytes: usize,
    /// External output bytes committed with this epoch.
    pub external_bytes: u64,
    /// End-of-epoch state digest.
    pub end_hash: u64,
    /// Thread-parallel wall cycles of the epoch.
    pub tp_cycles: u64,
}

/// Whole-recording inspection report.
#[derive(Debug, Clone)]
pub struct InspectReport {
    /// Recorded guest name.
    pub guest_name: String,
    /// Content hash of the recorded program.
    pub program_hash: u64,
    /// Boot-state digest.
    pub initial_hash: u64,
    /// Per-epoch summaries.
    pub epochs: Vec<EpochSummary>,
}

impl InspectReport {
    /// Total instructions across all epochs' slices.
    pub fn total_instructions(&self) -> u64 {
        self.epochs
            .iter()
            .map(|e| e.per_thread.iter().map(|t| t.2).sum::<u64>())
            .sum()
    }
}

/// Summarizes a recording epoch by epoch. Pure log analysis: no replay is
/// performed.
///
/// # Errors
///
/// Never fails today; the `Result` reserves room for summaries that need
/// log decoding.
pub fn inspect(recording: &Recording) -> Result<InspectReport, ReplayError> {
    let epochs = recording
        .epochs
        .iter()
        .map(|e| {
            let (slices, wakes, signals) = e.schedule.event_counts();
            let mut by_name: BTreeMap<&'static str, usize> = BTreeMap::new();
            for entry in e.syscalls.entries() {
                *by_name.entry(abi::name(entry.num)).or_default() += 1;
            }
            EpochSummary {
                index: e.index,
                slices,
                wakes,
                signals,
                per_thread: e.schedule.per_thread_totals(),
                syscalls_by_name: by_name.into_iter().collect(),
                schedule_bytes: codec::encode_schedule(&e.schedule).len(),
                syscall_bytes: codec::encode_syscalls(&e.syscalls).len(),
                external_bytes: e.external.iter().map(|c| c.bytes.len() as u64).sum(),
                end_hash: e.end_machine_hash,
                tp_cycles: e.tp_cycles,
            }
        })
        .collect();
    Ok(InspectReport {
        guest_name: recording.meta.guest_name.clone(),
        program_hash: recording.meta.program_hash,
        initial_hash: recording.meta.initial_machine_hash,
        epochs,
    })
}

impl fmt::Display for InspectReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "recording of `{}` (program {:#018x}, boot {:#018x}): {} epochs, {} instructions",
            self.guest_name,
            self.program_hash,
            self.initial_hash,
            self.epochs.len(),
            self.total_instructions()
        )?;
        for e in &self.epochs {
            writeln!(
                f,
                "epoch {:>3}: {:>5} slices {:>3} wakes {:>2} signals | sched {:>6}B sys {:>6}B ext {:>5}B | end {:#018x}",
                e.index,
                e.slices,
                e.wakes,
                e.signals,
                e.schedule_bytes,
                e.syscall_bytes,
                e.external_bytes,
                e.end_hash
            )?;
            for (tid, n, instrs) in &e.per_thread {
                writeln!(
                    f,
                    "    thread {:>2}: {n:>5} slices, {instrs:>9} instrs",
                    tid.0
                )?;
            }
            if !e.syscalls_by_name.is_empty() {
                let list: Vec<String> = e
                    .syscalls_by_name
                    .iter()
                    .map(|(name, n)| format!("{name}×{n}"))
                    .collect();
                writeln!(f, "    logged syscalls: {}", list.join(" "))?;
            }
        }
        Ok(())
    }
}
