//! Per-layer metrics of a traced run, derived from the traced passes, the
//! spans around them, and the `dpd` sessions.

use crate::record::Pass;
use crate::report::{median, ms, percentile, ratio, Metrics};
use crate::service::DpdLayer;
use crate::trace::{self_times, Span};
use std::time::Duration;

/// Everything a traced run measured.
pub struct Traced<'a> {
    /// Traced passes (each with its write side).
    pub passes: &'a [Pass],
    /// `measure_native` wall time for the plan of each traced pass.
    pub natives: &'a [Duration],
    /// Traced minus untraced `record` time, one entry per pair of passes.
    pub overhead_ms: &'a [f64],
    pub dpd: &'a DpdLayer,
    pub spans: &'a [Span],
}

/// Median over passes of `f`: for timings, robust to a noisy pass.
fn per_pass(passes: &[Pass], f: impl Fn(&Pass) -> f64) -> f64 {
    median(&passes.iter().map(f).collect::<Vec<_>>())
}

/// Mean over passes of `f`: for counts, so that events in a few of the
/// `service` cases (divergences of the racy guests) still show.
fn mean_pass(passes: &[Pass], f: impl Fn(&Pass) -> f64) -> f64 {
    ratio(passes.iter().map(f).sum(), passes.len() as f64)
}

pub fn metrics(t: &Traced) -> Metrics {
    let mut m = Metrics::default();
    let p = t.passes;
    let wall_ms = |p: &Pass| p.stats.wall.wall_ns as f64 / 1e6;
    let epochs = |p: &Pass| p.stats.epochs as f64;
    let write = |p: &Pass| {
        p.write_side
            .clone()
            .expect("traced passes carry a write side")
    };
    let native_ms: Vec<f64> = t.natives.iter().map(|d| ms(*d)).collect();
    let paired = |f: &dyn Fn(&Pass, f64) -> f64| {
        median(
            &p.iter()
                .zip(&native_ms)
                .map(|(p, n)| f(p, *n))
                .collect::<Vec<_>>(),
        )
    };

    // vm: the interpreter, timed alone by a native run.
    m.put("vm.native_ms", median(&native_ms), "ms");
    m.put(
        "vm.minstr_per_s",
        paired(&|p, n| ratio(p.stats.tp_instructions as f64 / 1e6, n / 1e3)),
        "Minstr/s",
    );

    // record::coordinator
    m.put("coordinator.loop_ms", per_pass(p, wall_ms), "ms");
    m.put(
        "coordinator.tail_ms",
        per_pass(p, |p| ms(p.record) - wall_ms(p)),
        "ms",
    );
    let selfs = self_times(t.spans);
    let record_to_self: Vec<f64> = t
        .spans
        .iter()
        .filter(|s| s.name == "record_to")
        .map(|s| selfs[&s.id] as f64 / 1e6)
        .collect();
    m.put("coordinator.self_ms", median(&record_to_self), "ms");
    m.put("coordinator.epochs", mean_pass(p, epochs), "count");
    m.put(
        "coordinator.overhead_x",
        paired(&|p, n| ratio(ms(p.record), n)),
        "x",
    );

    // record::pipelined
    m.put(
        "pipelined.worker_util",
        per_pass(p, |p| p.stats.wall.utilization()),
        "ratio",
    );
    m.put(
        "pipelined.mean_depth",
        per_pass(p, |p| {
            let h = &p.stats.wall.depth_histogram;
            let weighted: u64 = h.iter().enumerate().map(|(d, n)| d as u64 * n).sum();
            ratio(weighted as f64, h.iter().sum::<u64>() as f64)
        }),
        "epochs",
    );
    m.put(
        "pipelined.cancelled_epochs",
        mean_pass(p, |p| p.stats.wall.cancelled_epochs as f64),
        "count",
    );

    // record::epoch_parallel
    m.put(
        "epoch_parallel.divergences",
        mean_pass(p, |p| p.stats.divergences as f64),
        "count",
    );
    m.put(
        "epoch_parallel.clean_ratio",
        mean_pass(p, |p| ratio(p.stats.committed as f64, epochs(p))),
        "ratio",
    );
    m.put(
        "epoch_parallel.serialized_epochs",
        mean_pass(p, |p| p.stats.serialized_epochs as f64),
        "count",
    );
    m.put(
        "epoch_parallel.worker_retries",
        mean_pass(p, |p| p.stats.worker_retries as f64),
        "count",
    );

    // checkpoint
    m.put(
        "checkpoint.dirty_pages_per_epoch",
        per_pass(p, |p| ratio(p.stats.dirty_pages as f64, epochs(p))),
        "pages",
    );
    m.put(
        "checkpoint.hashed_pages",
        per_pass(p, |p| p.stats.hashed_pages as f64),
        "pages",
    );
    m.put(
        "checkpoint.bytes_per_epoch",
        per_pass(p, |p| {
            let sink = write(p).file_bytes as f64;
            ratio(sink - p.stats.log_bytes() as f64, epochs(p))
        }),
        "B",
    );

    // logs
    m.put(
        "logs.schedule_bytes",
        per_pass(p, |p| p.stats.schedule_bytes as f64),
        "B",
    );
    m.put(
        "logs.syscall_bytes",
        per_pass(p, |p| p.stats.syscall_bytes as f64),
        "B",
    );
    m.put("logs.encode_ms", per_pass(p, |p| ms(write(p).encode)), "ms");
    m.put("logs.decode_ms", per_pass(p, |p| ms(write(p).decode)), "ms");

    // journal / journal_shards, write side
    m.put(
        "sink.busy_ms",
        per_pass(p, |p| ms(write(p).sink.busy)),
        "ms",
    );
    m.put(
        "sink.share",
        per_pass(p, |p| ratio(ms(write(p).sink.busy), wall_ms(p))),
        "ratio",
    );
    m.put(
        "sink.epoch_us.p50",
        per_pass(p, |p| {
            let calls: Vec<f64> = write(p)
                .sink
                .epoch_calls
                .iter()
                .map(|d| ms(*d) * 1e3)
                .collect();
            percentile(&calls, 50)
        }),
        "us",
    );
    m.put(
        "sink.bytes",
        per_pass(p, |p| write(p).file_bytes as f64),
        "B",
    );
    m.put(
        "sink.flushes",
        per_pass(p, |p| write(p).flushes as f64),
        "count",
    );
    m.put(
        "commit.gap_ms.p50",
        per_pass(p, |p| {
            let gaps: Vec<f64> = write(p).sink.gaps.iter().map(|d| ms(*d)).collect();
            percentile(&gaps, 50)
        }),
        "ms",
    );

    // journal, read side
    m.put("journal.read_ms", per_pass(p, |p| ms(p.read)), "ms");
    m.put("journal.salvage_ms", per_pass(p, |p| ms(p.salvage)), "ms");

    // replay
    m.put("replay.parallel_ms", per_pass(p, |p| ms(p.parallel)), "ms");
    m.put(
        "replay.minstr_per_s",
        per_pass(p, |p| {
            ratio(p.replay_instructions as f64 / 1e6, p.parallel.as_secs_f64())
        }),
        "Minstr/s",
    );

    // dpd and dpd::proto
    let d = t.dpd;
    m.put("dpd.admission_p50_ms", d.admission_p50_ms, "ms");
    m.put("dpd.degraded_runs", d.degraded_runs, "count");
    m.put("dpd.retries", d.retries, "count");
    m.put("dpd.epochs_per_s", d.epochs_per_s, "1/s");
    m.put(
        "proto.submit_rtt_us.p50",
        percentile(&d.submit_rtt_us, 50),
        "us",
    );
    m.put(
        "proto.status_rtt_us.p50",
        percentile(&d.status_rtt_us, 50),
        "us",
    );

    // The traced run itself, and the baseline breakdown.
    m.put("trace.record_ms", per_pass(p, |p| ms(p.record)), "ms");
    m.put("trace.replay_ms", per_pass(p, |p| ms(p.replay)), "ms");
    m.put("trace.overhead_ms", median(t.overhead_ms), "ms");
    m.put(
        "coordinator.tail_share",
        per_pass(p, |p| ratio(ms(p.record) - wall_ms(p), ms(p.record))),
        "ratio",
    );
    m.put(
        "journal.salvage_share",
        per_pass(p, |p| ratio(ms(p.salvage), ms(p.replay))),
        "ratio",
    );
    m
}
