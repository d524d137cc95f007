//! Measurement wrappers for the write side of a recording: a forwarding
//! [`RecordSink`] that times every call into the journal writer, and a
//! [`Write`] wrapper that counts the bytes and flushes reaching the file.

use crate::trace::Tracer;
use dp_core::{CheckpointImage, EncodedLogs, EpochRecord, RecordSink, RecordingMeta};
use std::io::{self, Write};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Bytes and flushes that reached one writer.
#[derive(Debug, Default)]
pub struct IoCounts {
    bytes: AtomicU64,
    flushes: AtomicU64,
}

impl IoCounts {
    pub fn bytes(&self) -> u64 {
        self.bytes.load(Ordering::Relaxed)
    }

    pub fn flushes(&self) -> u64 {
        self.flushes.load(Ordering::Relaxed)
    }
}

/// Counts what passes through to `inner`. The counters are shared, so
/// they stay readable while a shard lane thread owns the writer.
pub struct Counting<W> {
    inner: W,
    counts: Arc<IoCounts>,
}

impl<W> Counting<W> {
    pub fn new(inner: W, counts: Arc<IoCounts>) -> Self {
        Counting { inner, counts }
    }
}

impl<W: Write> Write for Counting<W> {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        let n = self.inner.write(buf)?;
        self.counts.bytes.fetch_add(n as u64, Ordering::Relaxed);
        Ok(n)
    }

    fn flush(&mut self) -> io::Result<()> {
        self.counts.flushes.fetch_add(1, Ordering::Relaxed);
        self.inner.flush()
    }
}

/// What the timing wrapper saw of one recording's sink calls.
#[derive(Debug, Default, Clone)]
pub struct SinkTimes {
    /// Duration of every `epoch`/`epoch_encoded` call, in epoch order.
    pub epoch_calls: Vec<Duration>,
    /// Interval between consecutive epoch arrivals.
    pub gaps: Vec<Duration>,
    /// All sink calls, `begin` and `finish` included.
    pub busy: Duration,
}

/// Forwards every [`RecordSink`] call to `inner` unchanged and times it,
/// recording one span per call under the `parent` span (the `record_to`
/// call). The epoch index identifies each epoch's span.
pub struct TimedSink<'a> {
    inner: &'a mut dyn RecordSink,
    tracer: &'a Tracer,
    group: u64,
    parent: u32,
    last_arrival: Option<Instant>,
    times: SinkTimes,
}

impl<'a> TimedSink<'a> {
    pub fn new(inner: &'a mut dyn RecordSink, tracer: &'a Tracer, group: u64, parent: u32) -> Self {
        TimedSink {
            inner,
            tracer,
            group,
            parent,
            last_arrival: None,
            times: SinkTimes::default(),
        }
    }

    pub fn into_times(self) -> SinkTimes {
        self.times
    }

    fn timed<T>(
        &mut self,
        name: &'static str,
        epoch: Option<u32>,
        call: impl FnOnce(&mut dyn RecordSink) -> T,
    ) -> T {
        let open = self.tracer.open();
        let result = call(&mut *self.inner);
        let took = self
            .tracer
            .close(open, name, self.group, Some(self.parent), epoch);
        self.times.busy += took;
        result
    }

    fn epoch_arrived(&mut self) {
        let now = Instant::now();
        if let Some(last) = self.last_arrival.replace(now) {
            self.times.gaps.push(now - last);
        }
    }
}

impl RecordSink for TimedSink<'_> {
    fn begin(&mut self, meta: &RecordingMeta, initial: &CheckpointImage) -> io::Result<()> {
        self.timed("sink.begin", None, |s| s.begin(meta, initial))
    }

    fn epoch(&mut self, epoch: &EpochRecord) -> io::Result<()> {
        self.epoch_arrived();
        let before = self.times.busy;
        let r = self.timed("sink.epoch", Some(epoch.index), |s| s.epoch(epoch));
        self.times.epoch_calls.push(self.times.busy - before);
        r
    }

    fn epoch_encoded(&mut self, epoch: &EpochRecord, logs: &EncodedLogs) -> io::Result<()> {
        self.epoch_arrived();
        let before = self.times.busy;
        let r = self.timed("sink.epoch", Some(epoch.index), |s| {
            s.epoch_encoded(epoch, logs)
        });
        self.times.epoch_calls.push(self.times.busy - before);
        r
    }

    fn finish(&mut self) -> io::Result<()> {
        self.timed("sink.finish", None, |s| s.finish())
    }
}
