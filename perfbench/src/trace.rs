//! Spans recorded by the benchmark around its calls into each layer.
//!
//! Timing is the same whether tracing is on or off: every measured call
//! opens a span and closes it. With tracing off the closed span is only
//! returned as a duration; with tracing on it is also kept in memory and
//! written out at the end as one flat row per operation (the op-log
//! shape: index, thread, operation, group, parent, epoch, start, end,
//! duration, self time).

use std::collections::HashMap;
use std::io::{self, Write};
use std::path::Path;
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// One finished operation.
#[derive(Debug, Clone)]
pub struct Span {
    pub id: u32,
    pub parent: Option<u32>,
    /// Shared by every span of one recording or one session.
    pub group: u64,
    pub name: &'static str,
    /// The epoch index, for sink spans.
    pub epoch: Option<u32>,
    pub thread: u64,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// A span that has started but not ended.
#[derive(Debug)]
pub struct Open {
    id: u32,
    start: Instant,
}

impl Open {
    pub fn id(&self) -> u32 {
        self.id
    }
}

/// The span store. Cheap to share across client threads.
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    next_id: AtomicU32,
    spans: Mutex<Vec<Span>>,
}

impl Tracer {
    pub fn new(enabled: bool) -> Self {
        Tracer {
            enabled,
            origin: Instant::now(),
            next_id: AtomicU32::new(0),
            spans: Mutex::new(Vec::new()),
        }
    }

    /// Starts a span; its id can be handed to children before it ends.
    pub fn open(&self) -> Open {
        Open {
            id: self.next_id.fetch_add(1, Ordering::Relaxed),
            start: Instant::now(),
        }
    }

    /// Ends `open` and returns its duration, keeping the span when
    /// tracing is on.
    pub fn close(
        &self,
        open: Open,
        name: &'static str,
        group: u64,
        parent: Option<u32>,
        epoch: Option<u32>,
    ) -> Duration {
        let end = Instant::now();
        let took = end - open.start;
        if self.enabled {
            let span = Span {
                id: open.id,
                parent,
                group,
                name,
                epoch,
                thread: thread_number(),
                start_ns: nanos(open.start - self.origin),
                end_ns: nanos(end - self.origin),
            };
            self.spans.lock().expect("span store poisoned").push(span);
        }
        took
    }

    /// Every span kept so far, in start order.
    pub fn spans(&self) -> Vec<Span> {
        let mut spans = self.spans.lock().expect("span store poisoned").clone();
        spans.sort_by_key(|s| (s.start_ns, s.id));
        spans
    }
}

/// Self time of every span: its duration minus the part of it that its
/// children cover. Children of one parent run one after another on the
/// parent's thread, so their durations are summed.
pub fn self_times(spans: &[Span]) -> HashMap<u32, u64> {
    let mut child_ns: HashMap<u32, u64> = HashMap::new();
    for s in spans {
        if let Some(p) = s.parent {
            *child_ns.entry(p).or_default() += s.duration_ns();
        }
    }
    spans
        .iter()
        .map(|s| {
            let covered = child_ns.get(&s.id).copied().unwrap_or(0);
            (s.id, s.duration_ns().saturating_sub(covered))
        })
        .collect()
}

/// Writes the spans as tab-separated rows, one per operation.
pub fn write_rows(path: &Path, spans: &[Span]) -> io::Result<()> {
    let selfs = self_times(spans);
    let mut out = io::BufWriter::new(std::fs::File::create(path)?);
    writeln!(
        out,
        "idx\tthread\top\tgroup\tid\tparent\tepoch\tstart_ns\tend_ns\tduration_ns\tself_ns"
    )?;
    for (idx, s) in spans.iter().enumerate() {
        let opt = |v: Option<u32>| v.map_or_else(String::new, |v| v.to_string());
        writeln!(
            out,
            "{idx}\t{}\t{}\t{}\t{}\t{}\t{}\t{}\t{}\t{}\t{}",
            s.thread,
            s.name,
            s.group,
            s.id,
            opt(s.parent),
            opt(s.epoch),
            s.start_ns,
            s.end_ns,
            s.duration_ns(),
            selfs[&s.id]
        )?;
    }
    out.flush()
}

fn nanos(d: Duration) -> u64 {
    u64::try_from(d.as_nanos()).unwrap_or(u64::MAX)
}

/// A small stable number for the calling thread.
fn thread_number() -> u64 {
    static NEXT: AtomicU32 = AtomicU32::new(0);
    thread_local! {
        static ID: u64 = u64::from(NEXT.fetch_add(1, Ordering::Relaxed));
    }
    ID.with(|id| *id)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u32, parent: Option<u32>, start_ns: u64, end_ns: u64) -> Span {
        Span {
            id,
            parent,
            group: 0,
            name: "t",
            epoch: None,
            thread: 0,
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn self_time_subtracts_children() {
        let spans = [
            span(0, None, 0, 100),
            span(1, Some(0), 10, 30),
            span(2, Some(0), 40, 70),
            span(3, Some(2), 45, 50),
        ];
        let selfs = self_times(&spans);
        assert_eq!(selfs[&0], 50);
        assert_eq!(selfs[&1], 20);
        assert_eq!(selfs[&2], 25);
        assert_eq!(selfs[&3], 5);
    }

    #[test]
    fn disabled_tracer_times_but_keeps_nothing() {
        let t = Tracer::new(false);
        let open = t.open();
        let took = t.close(open, "x", 1, None, None);
        assert!(took >= Duration::ZERO);
        assert!(t.spans().is_empty());
        let t = Tracer::new(true);
        let outer = t.open();
        let inner = t.open();
        t.close(inner, "in", 1, Some(outer.id()), Some(3));
        t.close(outer, "out", 1, None, None);
        let spans = t.spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[0].name, "out");
        assert_eq!(spans[1].epoch, Some(3));
    }
}
