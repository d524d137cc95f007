//! Whole-run fault planning: the seeded, deterministic fault-injection
//! subsystem behind the robustness experiments (`report e10`).
//!
//! A [`FaultPlan`] extends the kernel-level [`IoFaults`] plan with recorder
//! faults that exercise DoublePlay's recovery machinery:
//!
//! * **syscall I/O faults** (`fail_p`, `short_read_p`, `reset_p`) — injected
//!   by the simulated kernel at trap time; see [`dp_os::faults`];
//! * **worker panics** (`worker_panic_p`) — epoch-parallel verify/live
//!   workers and parallel-replay workers panic mid-epoch; the coordinator
//!   and replayer isolate them with `catch_unwind` and retry with a
//!   bounded budget;
//! * **divergence storms** (`storm_p`, `storm_len`, `storm_jitter_mult`) —
//!   windows of epochs whose thread-parallel scheduling jitter is
//!   amplified, driving up the data-race divergence rate until the
//!   coordinator degrades to serialized recording;
//! * **sink faults** (`sink` — see [`dp_os::fs::SinkFaults`]) — the
//!   durable sink the recording journal streams to dies mid-write (torn
//!   write at an exact byte offset), fills up (`ENOSPC`), fails a flush,
//!   or accepts short writes. These model a crash of the recording
//!   machine and drive the journal-salvage experiments (`report e12`).
//!
//! Like [`IoFaults`], every decision is a pure hash of semantic
//! coordinates (seed, epoch, attempt), so fault runs are reproducible and
//! recordings of surviving runs replay bit-exactly.

use dp_os::{IoFaults, SinkFaults};
use dp_support::rng::{mix, roll};

const SALT_PANIC: u64 = 0x70a1_c0de;
const SALT_STORM: u64 = 0x5708_4a11;
const SALT_SESSION: u64 = 0x5e55_10fd;

/// Marker carried in the payload of every injected worker panic, so the
/// quiet panic hook can tell injected faults from real bugs.
pub const INJECTED_PANIC_TAG: &str = "injected worker panic";

/// Installs (once, process-wide) a panic hook that swallows the message for
/// panics injected by a [`FaultPlan`] — they are expected and recovered, so
/// their backtraces are pure noise — while delegating every other panic to
/// the previously installed hook.
pub fn silence_injected_panics() {
    static ONCE: std::sync::Once = std::sync::Once::new();
    ONCE.call_once(|| {
        let prev = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            let payload = info.payload();
            let injected = payload
                .downcast_ref::<String>()
                .map(|s| s.contains(INJECTED_PANIC_TAG))
                .or_else(|| {
                    payload
                        .downcast_ref::<&str>()
                        .map(|s| s.contains(INJECTED_PANIC_TAG))
                })
                .unwrap_or(false);
            if !injected {
                prev(info);
            }
        }));
    });
}

/// A seeded, deterministic fault-injection plan for one recording run.
/// `Default` injects nothing.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct FaultPlan {
    /// Seed decorrelating plans with equal probabilities.
    pub seed: u64,
    /// Probability an I/O syscall fails outright (`EIO`).
    pub fail_p: f64,
    /// Probability a read/recv is truncated to a shorter length.
    pub short_read_p: f64,
    /// Probability a socket operation observes a connection reset.
    pub reset_p: f64,
    /// Probability an epoch-parallel (or parallel-replay) worker panics
    /// while executing an epoch. Decisions vary per retry attempt, so any
    /// probability below 1.0 eventually succeeds within the retry budget.
    pub worker_panic_p: f64,
    /// Probability that a given window of epochs is a divergence storm.
    pub storm_p: f64,
    /// Length of a storm window in epochs (0 disables storms).
    pub storm_len: u32,
    /// Storm intensity: thread-parallel micro-slices shrink by this factor
    /// during a storm, amplifying the effective scheduling jitter (the
    /// relative variance of interleaving points) and with it the data-race
    /// divergence rate.
    pub storm_intensity: u64,
    /// Faults of the durable sink the recording journal streams to. These
    /// never perturb the guest (the sink is outside the recorded world);
    /// they decide how much of the journal survives a simulated crash.
    pub sink: SinkFaults,
}

impl FaultPlan {
    /// No injected faults.
    pub fn none() -> Self {
        FaultPlan::default()
    }

    /// True when any fault class that perturbs the *recorded world* is
    /// enabled. Sink faults are deliberately excluded: they live outside
    /// the recorded world, so they must not change what gets installed in
    /// the kernel (and with it the guest's execution).
    pub fn is_active(&self) -> bool {
        self.fail_p > 0.0
            || self.short_read_p > 0.0
            || self.reset_p > 0.0
            || self.worker_panic_p > 0.0
            || (self.storm_p > 0.0 && self.storm_len > 0)
    }

    /// Sets the plan seed.
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Sets the syscall-level fault probabilities.
    pub fn io(mut self, fail_p: f64, short_read_p: f64, reset_p: f64) -> Self {
        self.fail_p = fail_p;
        self.short_read_p = short_read_p;
        self.reset_p = reset_p;
        self
    }

    /// Sets the worker-panic probability.
    pub fn worker_panics_with(mut self, p: f64) -> Self {
        self.worker_panic_p = p;
        self
    }

    /// Enables divergence storms: windows of `len` epochs occur with
    /// probability `p` at the given `intensity`.
    pub fn storms(mut self, p: f64, len: u32, intensity: u64) -> Self {
        self.storm_p = p;
        self.storm_len = len;
        self.storm_intensity = intensity;
        self
    }

    /// Sets the whole sink-fault plan.
    pub fn sink(mut self, sink: SinkFaults) -> Self {
        self.sink = sink;
        self
    }

    /// The sink dies with a torn write once `offset` bytes are durable.
    pub fn sink_torn_at(mut self, offset: u64) -> Self {
        self.sink.torn_at = Some(offset);
        self
    }

    /// The sink reports `ENOSPC` once `offset` bytes are durable.
    pub fn sink_enospc_at(mut self, offset: u64) -> Self {
        self.sink.enospc_at = Some(offset);
        self
    }

    /// The sink's n-th flush (1-based) fails.
    pub fn sink_fail_flush_at(mut self, n: u64) -> Self {
        self.sink.fail_flush_at = Some(n);
        self
    }

    /// Sink write calls accept only a prefix with probability `p`
    /// (survivable: the journal writer retries them).
    pub fn sink_short_writes(mut self, p: f64) -> Self {
        self.sink.short_write_p = p;
        self
    }

    /// The sink slice of this plan, seeded from the plan seed unless the
    /// sink plan carries its own.
    pub fn sink_faults(&self) -> SinkFaults {
        let mut s = self.sink;
        if s.seed == 0 {
            s.seed = self.seed;
        }
        s
    }

    /// Derives the per-session plan for session `sid` of a multi-session
    /// service: identical probabilities, decorrelated decisions.
    ///
    /// The daemon hands every session the same operator-supplied template
    /// plan; reseeding by session id keeps fault decisions independent
    /// across sessions (session 7's storm windows say nothing about
    /// session 8's) while staying a pure function of `(template, sid)`, so
    /// a solo re-run of any one session injects the exact same faults. A
    /// sink plan carrying its own seed is reseeded the same way.
    pub fn for_session(mut self, sid: u64) -> Self {
        self.seed = mix(&[self.seed, sid, SALT_SESSION]);
        if self.sink.seed != 0 {
            self.sink.seed = mix(&[self.sink.seed, sid, SALT_SESSION]);
        }
        self
    }

    /// The kernel-level slice of this plan.
    pub fn io_faults(&self) -> IoFaults {
        IoFaults {
            seed: self.seed,
            fail_p: self.fail_p,
            short_read_p: self.short_read_p,
            reset_p: self.reset_p,
        }
    }

    /// Should the worker executing `epoch` panic on retry `attempt`?
    ///
    /// A pure hash of `(seed, epoch, attempt)` — no interior state, no
    /// call-order dependence. This is what keeps panic injection
    /// deterministic in the pipelined recorder, where concurrent verify
    /// workers evaluate it in whatever order the OS schedules them: a
    /// given `(epoch, attempt)` answers the same on every thread, every
    /// run, so every worker count, none included, injects identically.
    pub fn worker_panics(&self, epoch: u32, attempt: u32) -> bool {
        self.worker_panic_p > 0.0
            && roll(
                mix(&[self.seed, u64::from(epoch), u64::from(attempt), SALT_PANIC]),
                self.worker_panic_p,
            )
    }

    /// True when `epoch` falls inside a divergence-storm window.
    pub fn storm(&self, epoch: u32) -> bool {
        if self.storm_p <= 0.0 || self.storm_len == 0 {
            return false;
        }
        let window = u64::from(epoch / self.storm_len);
        roll(mix(&[self.seed, window, SALT_STORM]), self.storm_p)
    }

    /// The thread-parallel `(quantum, jitter)` pair to use for `epoch`
    /// given the configured base values. During a storm both shrink by the
    /// intensity factor: micro-slices get small and irregular, so racing
    /// accesses interleave at far finer granularity and divergence surges.
    pub fn storm_slice(&self, epoch: u32, quantum: u64, jitter: u64) -> (u64, u64) {
        if self.storm(epoch) {
            let f = self.storm_intensity.max(1);
            ((quantum / f).max(8), (jitter / f).max(8))
        } else {
            (quantum, jitter)
        }
    }
}

dp_support::impl_wire_struct!(FaultPlan {
    seed,
    fail_p,
    short_read_p,
    reset_p,
    worker_panic_p,
    storm_p,
    storm_len,
    storm_intensity,
    sink
});

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn inactive_by_default() {
        let p = FaultPlan::none();
        assert!(!p.is_active());
        assert!(!p.worker_panics(0, 0));
        assert!(!p.storm(0));
        assert_eq!(p.storm_slice(0, 700, 300), (700, 300));
        assert_eq!(p.io_faults(), IoFaults::none());
    }

    #[test]
    fn builder_chains_and_slices() {
        let p = FaultPlan::none()
            .seed(7)
            .io(0.1, 0.2, 0.3)
            .worker_panics_with(0.4)
            .storms(0.5, 4, 8);
        assert!(p.is_active());
        let io = p.io_faults();
        assert_eq!(io.seed, 7);
        assert_eq!(io.fail_p, 0.1);
        assert_eq!(io.short_read_p, 0.2);
        assert_eq!(io.reset_p, 0.3);
    }

    #[test]
    fn sink_faults_inherit_the_plan_seed() {
        let p = FaultPlan::none().seed(9).sink_torn_at(100);
        assert_eq!(p.sink_faults().seed, 9);
        assert_eq!(p.sink_faults().torn_at, Some(100));
        // Sink faults never activate the recorded-world fault path.
        assert!(!p.is_active());
        assert!(p.sink_faults().is_active());
        let own_seed = FaultPlan::none().seed(9).sink(SinkFaults {
            seed: 4,
            ..SinkFaults::none()
        });
        assert_eq!(own_seed.sink_faults().seed, 4);
    }

    #[test]
    fn per_session_plans_are_deterministic_and_decorrelated() {
        let template = FaultPlan::none().seed(3).storms(0.5, 4, 8);
        let a = template.for_session(7);
        let b = template.for_session(8);
        // Pure function of (template, sid): re-deriving gives the same plan.
        assert_eq!(a, template.for_session(7));
        // Distinct sessions draw from distinct decision streams.
        assert_ne!(a.seed, b.seed);
        let differs = (0..64u32).any(|w| a.storm(w * 4) != b.storm(w * 4));
        assert!(differs, "sessions 7 and 8 share every storm window");
        // Probabilities are untouched — only the seed moves.
        assert_eq!(a.storm_p, template.storm_p);
        assert_eq!(a.storm_len, template.storm_len);
        // A sink plan with its own seed is reseeded too; a seedless one
        // keeps inheriting the (already reseeded) plan seed.
        let own = template
            .sink(SinkFaults {
                seed: 5,
                short_write_p: 0.1,
                ..SinkFaults::none()
            })
            .for_session(7);
        assert_ne!(own.sink.seed, 5);
        let inherit = template.sink_short_writes(0.1).for_session(7);
        assert_eq!(inherit.sink_faults().seed, inherit.seed);
    }

    #[test]
    fn certain_panics_fire_on_every_attempt() {
        let p = FaultPlan::none().worker_panics_with(1.0);
        for attempt in 0..10 {
            assert!(p.worker_panics(3, attempt));
        }
    }

    #[test]
    fn sub_certain_panics_vary_by_attempt() {
        let p = FaultPlan::none().seed(11).worker_panics_with(0.5);
        let outcomes: Vec<bool> = (0..64).map(|a| p.worker_panics(0, a)).collect();
        assert!(outcomes.iter().any(|&b| b));
        assert!(outcomes.iter().any(|&b| !b));
    }

    #[test]
    fn storms_cover_whole_windows() {
        let p = FaultPlan::none().seed(2).storms(0.5, 4, 8);
        for w in 0..32u32 {
            let first = p.storm(w * 4);
            for e in w * 4..w * 4 + 4 {
                assert_eq!(p.storm(e), first, "window {w} not uniform");
            }
        }
        let hits = (0..128).filter(|&w| p.storm(w * 4)).count();
        assert!(hits > 32 && hits < 96, "storm rate off: {hits}/128");
        assert_eq!(
            p.storm_slice(0, 800, 160),
            if p.storm(0) { (100, 20) } else { (800, 160) }
        );
    }
}
