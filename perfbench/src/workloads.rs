//! The three workloads: set-up, the timed region, output checks, and the
//! metrics each run reports.

use crate::layers::{self, Traced};
use crate::record::{
    check_external, final_hash, run_pass, salvage, Container, Fingerprint, Pass, Plan,
    REPLAY_THREADS,
};
use crate::report::{median, ms, peak_rss_mb, percentile, Outcome};
use crate::service::{self, check_finalized, closed_loop, DpdLayer, Server, Session, Stop};
use crate::trace::Tracer;
use crate::{Args, Workload};
use dp_core::{measure_native, replay_parallel, DoublePlayConfig};
use dp_dpd::{GuestRef, SizeRef, SubmitSpec};
use dp_support::rng::{mix, SplitMix64};
use dp_workloads::{kvstore, mixed_suite, pfscan, Size, WorkloadCase};
use std::collections::HashMap;
use std::path::Path;
use std::time::{Duration, Instant};

/// Guest threads in every workload: the host has two cores.
const THREADS: usize = 2;

/// Set-ups per run; `setup_s` is their median.
const SETUP_REPS: usize = 11;

/// Client connections of the `service` closed loop.
const CLIENTS: usize = 2;

/// Served journals per `service` run that are replayed for `replay_ms`.
const REPLAY_SAMPLE: usize = 48;

/// Span groups of `dpd` sessions start here, clear of recording groups.
const SESSION_GROUPS: u64 = 1 << 32;

/// A record workload: one guest, one driver, one container.
struct RecordWorkload {
    build: fn(usize, Size) -> WorkloadCase,
    size: Size,
    pipelined: bool,
    container: Container,
}

const CKPT_HEAVY: RecordWorkload = RecordWorkload {
    build: pfscan::build,
    size: Size::Medium,
    pipelined: true,
    container: Container::Journal,
};

const LOG_HEAVY: RecordWorkload = RecordWorkload {
    build: kvstore::build,
    size: Size::Large,
    pipelined: false,
    container: Container::Sharded {
        shards: 2,
        batch: dp_core::DEFAULT_SHARD_BATCH,
    },
};

pub fn run(args: &Args, tracer: &Tracer, work: &Path) -> Outcome {
    match args.workload {
        Workload::CkptHeavy => run_record(&CKPT_HEAVY, args, tracer, work),
        Workload::LogHeavy => run_record(&LOG_HEAVY, args, tracer, work),
        Workload::Service => run_service(args, tracer, work),
    }
}

/// The recorder configuration every recording of a run uses; the seed
/// picks the hidden scheduling nondeterminism.
fn config(seed: u64, salt: u64, pipelined: bool) -> DoublePlayConfig {
    DoublePlayConfig::new(THREADS)
        .hidden_seed(mix(&[seed, salt, 0x0be7_c4ed]))
        .pipelined(pipelined)
}

fn plan(case: WorkloadCase, config: DoublePlayConfig, container: Container) -> Plan {
    Plan {
        spec: case.spec,
        config,
        container,
        expected_external: case.expected_external_bytes,
    }
}

/// The determinism guard: the fingerprint of everything recorded under
/// one key must repeat exactly.
#[derive(Default)]
struct Guard(HashMap<String, Fingerprint>);

impl Guard {
    fn check(&mut self, key: &str, fp: Fingerprint) -> Result<(), String> {
        match self.0.get(key) {
            None => {
                self.0.insert(key.to_string(), fp);
                Ok(())
            }
            Some(first) if *first == fp => Ok(()),
            Some(first) => Err(format!(
                "{key} is not deterministic: {fp:?} differs from the first recording {first:?}"
            )),
        }
    }
}

/// Counts a pass's output checks and its determinism check; returns the
/// pass when it ran at all.
fn account(
    out: &mut Outcome,
    guard: &mut Guard,
    key: &str,
    pass: Result<Pass, String>,
) -> Option<Pass> {
    match pass {
        Ok(pass) => {
            for c in &pass.checks {
                out.check(c.clone());
            }
            out.check(guard.check(key, pass.fingerprint));
            Some(pass)
        }
        Err(e) => {
            out.check(Err(format!("{key}: {e}")));
            None
        }
    }
}

/// Hands out span groups, one per recording.
struct Groups(u64);

impl Groups {
    fn next(&mut self) -> u64 {
        self.0 += 1;
        self.0
    }
}

fn run_record(w: &RecordWorkload, args: &Args, tracer: &Tracer, work: &Path) -> Outcome {
    let mut out = Outcome::default();
    let mut guard = Guard::default();
    let mut groups = Groups(0);
    let size = if args.smoke { Size::Small } else { w.size };
    let config = config(args.seed, 0, w.pipelined);
    let reps = if args.smoke { 1 } else { SETUP_REPS };

    // Set-up: build the guest, and warm up on the small instance.
    let mut setups = Vec::new();
    let mut measured = None;
    for _ in 0..reps {
        let start = Instant::now();
        let case = (w.build)(THREADS, size);
        let name = case.name;
        let warm = plan((w.build)(THREADS, Size::Small), config, w.container);
        let pass = run_pass(&warm, work, tracer, groups.next(), false);
        account(&mut out, &mut guard, "warm-up", pass);
        setups.push(start.elapsed().as_secs_f64());
        measured = Some((name, plan(case, config, w.container)));
    }
    let (name, plan) = measured.expect("at least one set-up");

    let deadline = Instant::now() + Duration::from_secs(args.seconds);
    if !args.trace {
        let start = Instant::now();
        let mut passes = Vec::new();
        loop {
            let pass = run_pass(&plan, work, tracer, groups.next(), false);
            passes.extend(account(&mut out, &mut guard, "recording", pass));
            if Instant::now() >= deadline {
                break;
            }
        }
        let wall = start.elapsed();
        let record: Vec<f64> = passes.iter().map(|p| ms(p.record)).collect();
        let replay: Vec<f64> = passes.iter().map(|p| ms(p.replay)).collect();
        let cycle: Vec<f64> = passes.iter().map(|p| ms(p.record + p.replay)).collect();
        let mb: Vec<f64> = passes
            .iter()
            .map(|p| p.fingerprint.journal_bytes as f64 / 1e6)
            .collect();
        end_to_end(
            &mut out,
            EndToEnd {
                setup_s: median(&setups),
                record_ms: median(&record),
                replay_ms: median(&replay),
                journal_mb: median(&mb),
                sessions: passes.len(),
                wall,
                session_ms: &cycle,
            },
        );
        return out;
    }

    // Traced: alternate traced and untraced passes (their difference is
    // the tracing overhead) and time a native run beside each.
    let mut traced = Vec::new();
    let mut natives = Vec::new();
    let mut overhead = Vec::new();
    loop {
        let t = run_pass(&plan, work, tracer, groups.next(), true);
        let u = run_pass(&plan, work, tracer, groups.next(), false);
        let native = time_native(&plan, tracer, groups.next());
        let (t, u) = (
            account(&mut out, &mut guard, "recording", t),
            account(&mut out, &mut guard, "recording", u),
        );
        out.check(native.as_ref().map(|_| ()).map_err(Clone::clone));
        if let (Some(t), Some(u), Ok(native)) = (t, u, native) {
            overhead.push(ms(t.record) - ms(u.record));
            natives.push(native);
            traced.push(t);
        }
        if Instant::now() >= deadline {
            break;
        }
    }

    // The same guest and configuration submitted once to a daemon, so
    // the dpd layer is measured on this workload too.
    let mut spec = SubmitSpec::new(
        format!("probe-{name}"),
        GuestRef::Workload {
            name: name.to_string(),
            threads: THREADS as u64,
            size: SizeRef::from_size(size),
        },
        plan.config,
    );
    if let Container::Sharded { shards, .. } = plan.container {
        spec.journal_shards = shards;
    }
    let dpd = probe_daemon(&mut out, work, tracer, &|_| spec.clone());
    out.metrics = layers::metrics(&Traced {
        passes: &traced,
        natives: &natives,
        overhead_ms: &overhead,
        dpd: &dpd,
        spans: &tracer.spans(),
    });
    out
}

fn time_native(plan: &Plan, tracer: &Tracer, group: u64) -> Result<Duration, String> {
    let open = tracer.open();
    let native = measure_native(&plan.spec, &plan.config);
    let took = tracer.close(open, "measure_native", group, None, None);
    native
        .map(|_| took)
        .map_err(|e| format!("measure_native failed: {e}"))
}

/// Serves one session of `spec_for(0)` on a fresh daemon and returns its
/// `dpd` layer numbers.
fn probe_daemon(
    out: &mut Outcome,
    work: &Path,
    tracer: &Tracer,
    spec_for: &(dyn Fn(usize) -> SubmitSpec + Sync),
) -> DpdLayer {
    let server = match Server::start(&work.join("probe")) {
        Ok(s) => s,
        Err(e) => {
            out.check(Err(e));
            return DpdLayer::default();
        }
    };
    let before = server.metrics();
    let start = Instant::now();
    let (sessions, failures) = closed_loop(
        server.socket(),
        1,
        Stop::After(1),
        spec_for,
        tracer,
        SESSION_GROUPS,
    );
    let wall = start.elapsed();
    let layer = DpdLayer::of(&sessions, &before, &server.metrics(), wall);
    for f in failures {
        out.check(Err(f));
    }
    for s in &sessions {
        out.check(check_finalized(s));
    }
    out.check(server.stop());
    layer
}

/// The end-to-end numbers every workload reports.
struct EndToEnd<'a> {
    setup_s: f64,
    record_ms: f64,
    replay_ms: f64,
    journal_mb: f64,
    /// Sessions completed in the timed region.
    sessions: usize,
    wall: Duration,
    /// Per-session latency samples.
    session_ms: &'a [f64],
}

/// Sets the end-to-end metrics of `out`. The p90 session latency is
/// printed in the table only: a record workload completes 10 to 25
/// sessions in a run, too few for a steady p90.
fn end_to_end(out: &mut Outcome, e: EndToEnd) {
    let m = &mut out.metrics;
    m.put("setup_s", e.setup_s, "s");
    m.put("record_ms", e.record_ms, "ms");
    m.put("replay_ms", e.replay_ms, "ms");
    m.put("journal_mb", e.journal_mb, "MB");
    m.put(
        "sessions_per_s",
        e.sessions as f64 / e.wall.as_secs_f64(),
        "1/s",
    );
    m.put("session_p50_ms", percentile(e.session_ms, 50), "ms");
    m.put("peak_rss_mb", peak_rss_mb().unwrap_or(0.0), "MB");
    let t = &mut out.table_only;
    t.put("session_p90_ms", percentile(e.session_ms, 90), "ms");
    t.put("session_samples", e.session_ms.len() as f64, "count");
}

/// Shard streams of `service` session `i`: sessions alternate in pairs
/// between one `DPRJ` journal and two `DPRS` shards, so that with the
/// pipelined flag every pairing of driver and container recurs.
fn service_shards(i: usize) -> u32 {
    if i % 4 < 2 {
        0
    } else {
        2
    }
}

/// The container a `service` recording with `shards` streams writes.
fn service_container(shards: u32) -> Container {
    if shards >= 2 {
        Container::Sharded {
            shards,
            batch: dp_core::DEFAULT_SHARD_BATCH,
        }
    } else {
        Container::Journal
    }
}

/// The determinism-guard key of a `service` recording.
fn service_key(case: &str, shards: u32) -> String {
    format!("{case}/{shards} shards")
}

/// The `service` session mix: session `i` records the case the seed
/// puts at position `i` (each round of `names.len()` sessions is a
/// seeded shuffle of the mixed suite), pipelined on every other session,
/// into [`service_shards`] streams. A case's hidden seed depends only on
/// the run seed and the case, so every session of one case and container
/// must write the same journal.
fn session_spec(names: &[&'static str], seed: u64, i: usize) -> (usize, SubmitSpec) {
    let n = names.len();
    let mut order: Vec<usize> = (0..n).collect();
    let mut rng = SplitMix64::new(mix(&[seed, (i / n) as u64, 0x5e55_1075]));
    for k in (1..n).rev() {
        order.swap(k, rng.below(k as u64 + 1) as usize);
    }
    let case = order[i % n];
    let mut spec = SubmitSpec::new(
        names[case],
        GuestRef::Workload {
            name: names[case].to_string(),
            threads: THREADS as u64,
            size: SizeRef::Small,
        },
        config(seed, case as u64 + 1, i.is_multiple_of(2)),
    );
    spec.journal_shards = service_shards(i);
    (case, spec)
}

fn run_service(args: &Args, tracer: &Tracer, work: &Path) -> Outcome {
    let mut out = Outcome::default();
    let mut guard = Guard::default();
    let reps = if args.smoke { 1 } else { SETUP_REPS };
    let seed = args.seed;

    // Set-up: build the guests, start the daemon and its socket, and
    // serve one warm-up session. Earlier set-ups are torn down.
    let mut setups = Vec::new();
    let mut ready = None;
    for rep in 0..reps {
        let start = Instant::now();
        let cases = mixed_suite(THREADS, Size::Small);
        let server = match Server::start(&work.join(format!("r{rep}"))) {
            Ok(s) => s,
            Err(e) => {
                out.check(Err(e));
                return out;
            }
        };
        // The same warm-up session whatever the seed: the first case.
        let warm_name = cases[0].name;
        let warm = |_| {
            let guest = GuestRef::Workload {
                name: warm_name.to_string(),
                threads: THREADS as u64,
                size: SizeRef::Small,
            };
            SubmitSpec::new(warm_name, guest, config(seed, 1, false))
        };
        let (sessions, failures) =
            closed_loop(server.socket(), 1, Stop::After(1), &warm, tracer, 0);
        for f in failures {
            out.check(Err(f));
        }
        for s in &sessions {
            out.check(check_finalized(s));
        }
        setups.push(start.elapsed().as_secs_f64());
        if let Some((_, old)) = ready.replace((cases, server)) {
            out.check(Server::stop(old));
        }
    }
    let (cases, server) = ready.expect("at least one set-up");
    let names: Vec<&'static str> = cases.iter().map(|c| c.name).collect();
    let spec_for = |i: usize| session_spec(&names, seed, i).1;

    let before = server.metrics();
    let start = Instant::now();
    let stop = Stop::At(start + Duration::from_secs(args.seconds));
    let (sessions, failures) = closed_loop(
        server.socket(),
        CLIENTS,
        stop,
        &spec_for,
        tracer,
        SESSION_GROUPS,
    );
    let wall = start.elapsed();
    let after = server.metrics();
    for f in failures {
        out.check(Err(f));
    }

    // After the timed region: every session finalized, and its journal
    // salvages clean, repeats for its case, and (for a sample) replays.
    let mut journal_bytes = Vec::new();
    let mut replays = Vec::new();
    for s in &sessions {
        out.check(check_finalized(s));
        let (case, _) = session_spec(&names, seed, s.index);
        let sample = replays.len() < REPLAY_SAMPLE;
        match check_served(&server, s, &cases[case], sample) {
            Ok((fp, replay)) => {
                out.check(Ok(()));
                let key = service_key(cases[case].name, s.report.journal_shards);
                out.check(guard.check(&key, fp));
                journal_bytes.push(fp.journal_bytes as f64);
                replays.extend(replay.map(ms));
            }
            Err(e) => out.check(Err(e)),
        }
    }
    let dpd = DpdLayer::of(&sessions, &before, &after, wall);
    out.check(server.stop());

    if !args.trace {
        let latency: Vec<f64> = sessions.iter().map(|s| ms(s.latency)).collect();
        let run: Vec<f64> = sessions.iter().map(service::run_ms).collect();
        let mean_bytes = journal_bytes.iter().sum::<f64>() / journal_bytes.len().max(1) as f64;
        end_to_end(
            &mut out,
            EndToEnd {
                setup_s: median(&setups),
                record_ms: median(&run),
                replay_ms: median(&replays),
                journal_mb: mean_bytes / 1e6,
                sessions: sessions.len(),
                wall,
                session_ms: &latency,
            },
        );
        return out;
    }

    // Traced: record every case of the mix solo, traced and untraced, so
    // the recorder layers are measured on the same sessions. The daemon
    // writes byte-identical journals, so the guard also pins each solo
    // recording to its served sessions.
    let mut groups = Groups(0);
    let mut traced = Vec::new();
    let mut natives = Vec::new();
    let mut overhead = Vec::new();
    for (i, case) in cases.into_iter().enumerate() {
        let shards = service_shards(i);
        let key = service_key(case.name, shards);
        let config = config(seed, i as u64 + 1, i.is_multiple_of(2));
        let p = plan(case, config, service_container(shards));
        let t = run_pass(&p, work, tracer, groups.next(), true);
        let u = run_pass(&p, work, tracer, groups.next(), false);
        let native = time_native(&p, tracer, groups.next());
        let (t, u) = (
            account(&mut out, &mut guard, &key, t),
            account(&mut out, &mut guard, &key, u),
        );
        out.check(native.as_ref().map(|_| ()).map_err(Clone::clone));
        if let (Some(t), Some(u), Ok(native)) = (t, u, native) {
            overhead.push(ms(t.record) - ms(u.record));
            natives.push(native);
            traced.push(t);
        }
    }
    out.metrics = layers::metrics(&Traced {
        passes: &traced,
        natives: &natives,
        overhead_ms: &overhead,
        dpd: &dpd,
        spans: &tracer.spans(),
    });
    out
}

/// Reads a served session's journal, salvages it, and removes it;
/// `replay` also replays it and times read + salvage + replay.
fn check_served(
    server: &Server,
    s: &Session,
    case: &WorkloadCase,
    replay: bool,
) -> Result<(Fingerprint, Option<Duration>), String> {
    let paths = server
        .journal(s.id, s.report.journal_shards)
        .ok_or_else(|| format!("session {} has no journal", s.id))?;
    let start = Instant::now();
    let mut bufs = Vec::with_capacity(paths.len());
    for p in &paths {
        bufs.push(std::fs::read(p).map_err(|e| format!("read {}: {e}", p.display()))?);
        let _ = std::fs::remove_file(p);
    }
    let (recording, clean, detail) =
        salvage(&bufs).map_err(|e| format!("session {}: {e}", s.id))?;
    if !clean || recording.epochs.len() != s.report.epochs as usize {
        return Err(format!(
            "session {} journal salvaged {} of {} epochs (clean: {clean}, {detail})",
            s.id,
            recording.epochs.len(),
            s.report.epochs,
        ));
    }
    let recording = &recording;
    let took = if replay {
        replay_parallel(recording, &case.spec.program, REPLAY_THREADS)
            .map_err(|e| format!("session {} does not replay: {e}", s.id))?;
        Some(start.elapsed())
    } else {
        None
    };
    check_external(recording, case.expected_external_bytes)
        .map_err(|e| format!("session {}: {e}", s.id))?;
    Ok((
        Fingerprint {
            epochs: recording.epochs.len() as u64,
            journal_bytes: bufs.iter().map(|b| b.len() as u64).sum(),
            log_bytes: recording.log_bytes(),
            final_hash: final_hash(recording),
        },
        took,
    ))
}
