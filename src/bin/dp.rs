//! `dp` — command-line record/replay/analysis for the bundled workloads.
//!
//! ```text
//! dp record <workload> [--threads N] [--size small|medium|large]
//!           [--epoch CYCLES] [--seed S] [--out FILE] [--journal FILE]
//!           [--journal-shards N]
//! dp salvage <JOURNAL> [-o FILE]
//! dp replay <FILE> --workload <workload> [--threads N] [--size ...] [--parallel N]
//! dp analyze <FILE> race   --workload <name> [--threads N] [--size S]
//!                          [--assert-races | --assert-clean]
//! dp analyze <FILE> triage --workload <name> [--threads N] [--size S]
//! dp analyze <FILE> inspect
//! dp analyze <FILE> diff <FILE2>
//! dp inspect <FILE>
//! dp serve [--sessions N] [--dir PATH] [--runners N] [--cores N]
//!          [--capacity N] [--threads N] [--size S] [--seed X] [--faults]
//!          [--journal-shards N] [--json]
//! dp serve --socket PATH [--dir PATH] [--runners N] [--cores N]
//!          [--capacity N] [--conns N] [--resume-adopted] [--resume-budget N]
//! dp submit <workload> --socket PATH [--threads N] [--size S] [--epoch C]
//!           [--seed X] [--pipelined] [--workers N] [--priority P] [--wait]
//! dp resume <ID> --socket PATH
//! dp attach <ID> --socket PATH [-o FILE]
//! dp shutdown --socket PATH
//! dp sessions <DIR>
//! dp sessions --socket PATH [--json]
//! dp list
//! ```
//!
//! The workload name selects the guest program; `replay` and the
//! replay-based analyses need it again (with the same parameters) because
//! recordings carry only a program hash, not the program itself.
//!
//! `--journal` streams the recording to a crash-consistent journal while
//! it is produced; `dp salvage` recovers the committed epoch prefix from a
//! journal a crash left behind. A finalized one-stream journal is byte for
//! byte the saved recording. Adding `--journal-shards N` splits the
//! journal into `N` group-committed streams (`FILE.s0`..`FILE.s{N-1}`)
//! appended by independent lanes, and `dp salvage FILE.s0` reads `N` from
//! the stream's header, gathers the siblings, and reconstructs the longest
//! prefix committed across all of them. Every output file is written
//! atomically (`<path>.tmp` + rename) except the journal itself, whose
//! entire point is to be written incrementally.
//!
//! `dp serve` runs the `dpd` multi-session service in-process: it admits
//! a batch of mixed-workload sessions (cycling priorities and, with
//! `--faults`, per-session decorrelated fault plans) against a shared
//! verify-core pool, streams one journal per session into `--dir`, and
//! prints the final session table. `dp sessions <DIR>` is the post-mortem
//! view: it classifies every journal in the directory the way daemon boot
//! does, salvaging each session's streams independently — exactly what
//! you run after killing a serve mid-flight.
//!
//! With `--socket PATH`, `dp serve` instead becomes a long-lived `dpnet`
//! daemon: it re-adopts any journals a previous incarnation left in
//! `--dir` (finalized, salvageable, or garbage — all surfaced), then
//! accepts framed requests on a unix-domain socket until a client sends
//! shutdown. With `--resume-adopted`, every salvageable journal the boot
//! scan re-adopts is immediately *resumed*: the session continues
//! recording from its committed prefix instead of being left terminal
//! (`--resume-budget N` caps how many resumes one boot may spend).
//! `dp submit`, `dp resume`, `dp attach`, `dp shutdown`, and
//! `dp sessions --socket` are the matching clients; `dp resume <ID>`
//! asks a serving daemon to continue a crashed (`Salvaged`) session from
//! its committed prefix; `dp attach` tails a
//! session's committed journal bytes live and writes whatever prefix it
//! received even if the daemon dies mid-stream — that prefix is always
//! salvageable.
//!
//! Failures exit nonzero with a one-line `error: <command>: <detail>`
//! message; a missing or truncated recording file is never a panic.

use doubleplay::analyze;
use doubleplay::core::MAX_SPARE_WORKERS;
use doubleplay::prelude::*;
use doubleplay::workloads::find;
use std::process::exit;

fn usage() -> ! {
    eprintln!(
        "usage:\n  dp list\n  dp record <workload> [--threads N] [--size S] [--epoch C] [--seed X] [--pipelined] [--workers N] [--out FILE] [--journal FILE] [--journal-shards N]\n  dp salvage <JOURNAL> [-o FILE]\n  dp replay <FILE> --workload <name> [--threads N] [--size S] [--parallel N]\n  dp analyze <FILE> race --workload <name> [--threads N] [--size S] [--assert-races|--assert-clean]\n  dp analyze <FILE> triage --workload <name> [--threads N] [--size S]\n  dp analyze <FILE> inspect\n  dp analyze <FILE> diff <FILE2>\n  dp inspect <FILE>\n  dp serve [--sessions N] [--dir PATH] [--runners N] [--cores N] [--capacity N] [--threads N] [--size S] [--seed X] [--faults] [--journal-shards N] [--json]\n  dp serve --socket PATH [--dir PATH] [--runners N] [--cores N] [--capacity N] [--conns N] [--resume-adopted] [--resume-budget N]\n  dp submit <workload> --socket PATH [--threads N] [--size S] [--epoch C] [--seed X] [--pipelined] [--workers N] [--priority high|normal|low] [--wait]\n  dp resume <ID> --socket PATH\n  dp attach <ID> --socket PATH [-o FILE]\n  dp shutdown --socket PATH\n  dp sessions <DIR> | dp sessions --socket PATH [--json]"
    );
    exit(2);
}

/// One-line structured failure: `error: <what>: <detail>`, exit 1.
fn fail(what: &str, detail: impl std::fmt::Display) -> ! {
    eprintln!("error: {what}: {detail}");
    exit(1);
}

/// Writes `bytes` to `path` atomically: the content goes to `<path>.tmp`,
/// renamed over the destination only once fully written — a crash or a
/// full disk mid-write never leaves a torn output file behind.
fn write_atomic(cmd: &str, path: &str, bytes: &[u8]) {
    let tmp = format!("{path}.tmp");
    std::fs::write(&tmp, bytes)
        .unwrap_or_else(|e| fail(cmd, format_args!("cannot write `{tmp}`: {e}")));
    std::fs::rename(&tmp, path)
        .unwrap_or_else(|e| fail(cmd, format_args!("cannot rename `{tmp}` to `{path}`: {e}")));
}

/// Reads and parses a saved recording (a finalized one-stream journal),
/// failing with a structured error instead of panicking.
fn load_recording(cmd: &str, path: &str) -> Recording {
    let bytes = std::fs::read(path)
        .unwrap_or_else(|e| fail(cmd, format_args!("cannot read `{path}`: {e}")));
    Recording::load(&bytes[..])
        .unwrap_or_else(|e| fail(cmd, format_args!("cannot parse `{path}`: {e}")))
}

/// Splits a `BASE.s<K>` stream path into its base journal path, for
/// gathering the sibling streams of a journal.
fn shard_base(path: &str) -> Option<&str> {
    let (base, k) = path.rsplit_once(".s")?;
    (!k.is_empty() && k.bytes().all(|b| b.is_ascii_digit())).then_some(base)
}

fn parse_size(s: &str) -> Size {
    match s {
        "small" => Size::Small,
        "medium" => Size::Medium,
        "large" => Size::Large,
        _ => usage(),
    }
}

struct Opts {
    threads: usize,
    size: Size,
    epoch: u64,
    seed: u64,
    out: Option<String>,
    journal: Option<String>,
    journal_shards: u32,
    workload: Option<String>,
    parallel: usize,
    pipelined: bool,
    workers: Option<usize>,
    assert_races: bool,
    assert_clean: bool,
    sessions: usize,
    dir: String,
    runners: usize,
    cores: usize,
    capacity: usize,
    faults: bool,
    socket: Option<String>,
    conns: usize,
    priority: Priority,
    wait: bool,
    json: bool,
    resume_adopted: bool,
    resume_budget: Option<u32>,
}

fn parse_opts(args: &[String]) -> Opts {
    let mut o = Opts {
        threads: 2,
        size: Size::Small,
        epoch: 200_000,
        seed: DoublePlayConfig::new(2).hidden_seed,
        out: None,
        journal: None,
        journal_shards: 0,
        workload: None,
        parallel: 0,
        pipelined: false,
        workers: None,
        assert_races: false,
        assert_clean: false,
        sessions: 24,
        dir: "dpd-journals".to_string(),
        runners: 4,
        cores: 4,
        capacity: 16,
        faults: false,
        socket: None,
        conns: 8,
        priority: Priority::Normal,
        wait: false,
        json: false,
        resume_adopted: false,
        resume_budget: None,
    };
    let mut it = args.iter();
    while let Some(a) = it.next() {
        let mut val = || it.next().cloned().unwrap_or_else(|| usage());
        match a.as_str() {
            "--threads" => o.threads = val().parse().unwrap_or_else(|_| usage()),
            "--size" => o.size = parse_size(&val()),
            "--epoch" => o.epoch = val().parse().unwrap_or_else(|_| usage()),
            "--seed" => o.seed = val().parse().unwrap_or_else(|_| usage()),
            "--out" | "-o" => o.out = Some(val()),
            "--journal" => o.journal = Some(val()),
            "--journal-shards" => o.journal_shards = val().parse().unwrap_or_else(|_| usage()),
            "--workload" => o.workload = Some(val()),
            "--parallel" => o.parallel = val().parse().unwrap_or_else(|_| usage()),
            "--pipelined" => o.pipelined = true,
            "--workers" => o.workers = Some(val().parse().unwrap_or_else(|_| usage())),
            "--assert-races" => o.assert_races = true,
            "--assert-clean" => o.assert_clean = true,
            "--sessions" => o.sessions = val().parse().unwrap_or_else(|_| usage()),
            "--dir" => o.dir = val(),
            "--runners" => o.runners = val().parse().unwrap_or_else(|_| usage()),
            "--cores" => o.cores = val().parse().unwrap_or_else(|_| usage()),
            "--capacity" => o.capacity = val().parse().unwrap_or_else(|_| usage()),
            "--faults" => o.faults = true,
            "--socket" => o.socket = Some(val()),
            "--conns" => o.conns = val().parse().unwrap_or_else(|_| usage()),
            "--priority" => {
                o.priority = match val().as_str() {
                    "high" => Priority::High,
                    "normal" => Priority::Normal,
                    "low" => Priority::Low,
                    _ => usage(),
                }
            }
            "--wait" => o.wait = true,
            "--json" => o.json = true,
            "--resume-adopted" => o.resume_adopted = true,
            "--resume-budget" => {
                o.resume_budget = Some(val().parse().unwrap_or_else(|_| usage()));
            }
            _ => usage(),
        }
    }
    o
}

fn find_case(name: &str, threads: usize, size: Size) -> WorkloadCase {
    find(name, threads, size).unwrap_or_else(|| {
        eprintln!("unknown workload `{name}` (try `dp list`)");
        exit(2);
    })
}

/// The replay-based analyses need the recorded program; resolve it from
/// `--workload` or fail with a structured error.
fn required_case(cmd: &str, o: &Opts) -> WorkloadCase {
    let Some(name) = &o.workload else {
        fail(
            cmd,
            "missing --workload <name> (the recording stores only a program hash)",
        );
    };
    find_case(name, o.threads, o.size)
}

fn cmd_analyze(argv: &[String]) {
    let Some(path) = argv.first() else { usage() };
    let Some(mode) = argv.get(1) else { usage() };
    match mode.as_str() {
        "race" | "triage" => {
            let o = parse_opts(&argv[2..]);
            let case = required_case("analyze", &o);
            let recording = load_recording("analyze", path);
            let report = analyze::detect_races(&recording, &case.spec.program)
                .unwrap_or_else(|e| fail("analyze", format_args!("replay failed: {e}")));
            if mode == "triage" {
                match analyze::triage(&recording, &case.spec.program) {
                    Ok(Some(t)) => println!("{t}"),
                    Ok(None) => println!("no races: the recording is happens-before clean"),
                    Err(e) => fail("analyze", format_args!("replay failed: {e}")),
                }
                return;
            }
            println!(
                "{}: {} racy address(es), {} racy pair(s), {} shared addr(s), {} sync addr(s), {} epochs",
                recording.meta.guest_name,
                report.races.len(),
                report.racy_pairs.len(),
                report.shared_addrs,
                report.sync_addrs,
                report.replay.epochs
            );
            for race in &report.races {
                println!("  {race}");
            }
            if o.assert_races && !report.is_racy() {
                fail("analyze", "--assert-races: no races found");
            }
            if o.assert_clean && report.is_racy() {
                fail(
                    "analyze",
                    format_args!("--assert-clean: {} race(s) found", report.races.len()),
                );
            }
        }
        "inspect" => {
            let recording = load_recording("analyze", path);
            let report = analyze::inspect(&recording)
                .unwrap_or_else(|e| fail("analyze", format_args!("inspect failed: {e}")));
            print!("{report}");
        }
        "diff" => {
            let Some(path_b) = argv.get(2) else { usage() };
            let a = load_recording("analyze", path);
            let b = load_recording("analyze", path_b);
            let d = analyze::diff(&a, &b);
            println!("{d}");
            if !d.identical() {
                exit(1);
            }
        }
        _ => usage(),
    }
}

/// The session table both service paths print (in-process batch and
/// socket daemon), or its JSON twin via the shared
/// [`doubleplay::dpd::sessions_json`] formatter.
fn print_sessions(rows: &[doubleplay::dpd::SessionReport], notes: &[String], json: bool) {
    if json {
        println!("{}", doubleplay::dpd::sessions_json(rows, notes));
        return;
    }
    println!("  id     workload              prio    state      att  epochs  shards");
    for row in rows {
        println!(
            "  {:6} {:21} {:7} {:10} {:3} {:7} {:7}",
            row.id.to_string(),
            row.name,
            format!("{:?}", row.priority),
            format!("{:?}", row.state),
            row.attempts,
            row.epochs,
            row.journal_shards,
        );
    }
    for note in notes {
        println!("  note: {note}");
    }
}

/// `dp serve --socket PATH`: run `dpd` as a long-lived `dpnet` daemon.
/// Boot re-adopts every journal a previous incarnation left in `--dir`;
/// the accept loop then serves framed requests until a client sends
/// shutdown, after which in-flight sessions drain and the final table
/// prints.
fn cmd_serve_socket(o: &Opts, socket: &str) {
    use doubleplay::dpd::{serve, OrphanClass, ServerConfig};
    use std::sync::Arc;

    doubleplay::core::faults::silence_injected_panics();
    let store = Arc::new(
        DirStore::new(&o.dir)
            .unwrap_or_else(|e| fail("serve", format_args!("cannot create `{}`: {e}", o.dir))),
    );
    let mut dcfg = DaemonConfig {
        runners: o.runners.max(1),
        verify_cores: o.cores,
        queue_capacity: o.capacity.max(1),
        ..DaemonConfig::default()
    };
    if let Some(budget) = o.resume_budget {
        dcfg.resume_budget = budget;
    }
    let daemon = Arc::new(Daemon::start(dcfg, store));
    let orphans = daemon
        .adopt_orphans()
        .unwrap_or_else(|e| fail("serve", format_args!("cannot scan `{}`: {e}", o.dir)));
    for orphan in &orphans {
        let verdict = match &orphan.class {
            OrphanClass::Finalized { epochs } => format!("re-adopted, {epochs} epoch(s), clean"),
            OrphanClass::Salvageable { epochs, detail } => {
                format!("re-adopted, {epochs} epoch(s) salvaged ({detail})")
            }
            OrphanClass::Garbage { reason } => format!("garbage ({reason})"),
        };
        println!("orphan {}: {verdict}", orphan.name);
    }
    // --resume-adopted: spend the resume budget on the boot scan's
    // salvageable rows so they continue recording from their committed
    // prefixes instead of sitting terminal.
    if o.resume_adopted {
        for (id, outcome) in daemon.resume_adopted() {
            match outcome {
                Ok(from) => println!("resume {id}: continuing from epoch {from}"),
                Err(e) => println!("resume {id}: refused ({e})"),
            }
        }
    }
    println!("dpd serving on {socket} (journals in {}/)", o.dir);
    let cfg = ServerConfig {
        max_connections: o.conns.max(1),
        ..ServerConfig::default()
    };
    serve(&daemon, std::path::Path::new(socket), cfg)
        .unwrap_or_else(|e| fail("serve", format_args!("socket `{socket}`: {e}")));
    daemon.drain();
    print_sessions(&daemon.sessions(), &daemon.orphan_notes(), o.json);
    let m = daemon.metrics();
    println!(
        "shutdown: {} admitted ({} adopted, {} resumed), {} finalized, {} salvaged, {} failed, {} cancelled",
        m.admitted, m.adopted, m.resumed, m.finalized, m.salvaged, m.failed, m.cancelled
    );
    match Arc::try_unwrap(daemon) {
        Ok(d) => d.shutdown(),
        Err(_) => fail("serve", "connection thread still holds the daemon"),
    }
}

/// `dp serve`: run the `dpd` multi-session service over the mixed
/// workload suite, one journal per session in `--dir`.
fn cmd_serve(o: &Opts) {
    use doubleplay::dpd::guests;
    use std::sync::Arc;

    if let Some(socket) = &o.socket {
        return cmd_serve_socket(o, socket);
    }

    doubleplay::core::faults::silence_injected_panics();
    let store = Arc::new(
        DirStore::new(&o.dir)
            .unwrap_or_else(|e| fail("serve", format_args!("cannot create `{}`: {e}", o.dir))),
    );
    let daemon = Daemon::start(
        DaemonConfig {
            runners: o.runners.max(1),
            verify_cores: o.cores,
            queue_capacity: o.capacity.max(1),
            ..DaemonConfig::default()
        },
        store.clone(),
    );

    let cases = mixed_suite(o.threads, o.size);
    let started = std::time::Instant::now();
    let mut ids = Vec::new();
    for i in 0..o.sessions {
        // Small-suite sizes record slowly per session; pad the tail of a
        // large batch with tiny service guests so `--sessions 200` stays a
        // service test, not a workload benchmark.
        let (name, guest) = if i < cases.len() {
            let case = &cases[i % cases.len()];
            (case.name.to_string(), case.spec.clone())
        } else if i.is_multiple_of(2) {
            (format!("tiny-atomic-{i}"), guests::atomic_counter(2, 400))
        } else {
            (format!("tiny-racy-{i}"), guests::racy_counter(2, 400))
        };
        let epoch = if i < cases.len() { 50_000 } else { 800 };
        let mut config = DoublePlayConfig::new(o.threads)
            .epoch_cycles(epoch)
            .hidden_seed(dp_support::rng::mix(&[o.seed, i as u64, 0x5e7e]));
        if i.is_multiple_of(2) {
            config = config.spare_workers(o.threads).pipelined(true);
        }
        if o.faults && i.is_multiple_of(3) {
            let template = FaultPlan::none()
                .seed(o.seed)
                .io(0.0, 0.002, 0.0)
                .worker_panics_with(0.005)
                .storms(0.05, 4, 32);
            config = config.faults(template.for_session(i as u64));
        }
        let spec = SessionSpec::new(name, guest, config)
            .priority(match i % 3 {
                0 => Priority::High,
                1 => Priority::Normal,
                _ => Priority::Low,
            })
            .restart_budget(2)
            .journal_shards(o.journal_shards);
        match daemon.submit_retrying(spec, 10_000) {
            Ok(id) => ids.push(id),
            Err(e) => fail("serve", format_args!("session {i} not admitted: {e}")),
        }
    }
    daemon.drain();
    let wall = started.elapsed();

    if o.json {
        print_sessions(&daemon.sessions(), &daemon.orphan_notes(), true);
    } else {
        println!("  id     workload              prio    state      att  epochs  journal");
        for row in daemon.sessions() {
            let journal = store
                .path(row.id)
                .map(|p| p.display().to_string())
                .unwrap_or_else(|| "-".to_string());
            println!(
                "  {:6} {:21} {:7} {:10} {:3} {:7}  {}",
                row.id.to_string(),
                row.name,
                format!("{:?}", row.priority),
                format!("{:?}", row.state),
                row.attempts,
                row.epochs,
                journal
            );
        }
    }
    // With --json the session list is the whole (machine-readable) output.
    if !o.json {
        let m = daemon.metrics();
        println!(
            "served {} sessions in {:.1}s: {} finalized, {} salvaged, {} failed \
             ({} rejections shed, {} degraded runs, {} retries)",
            m.admitted,
            wall.as_secs_f64(),
            m.finalized,
            m.salvaged,
            m.failed,
            m.rejected,
            m.degraded_runs,
            m.retries
        );
        println!(
            "throughput {:.1} sessions/s, {} epochs committed, admission p50 {:.2}ms p99 {:.2}ms",
            m.admitted as f64 / wall.as_secs_f64(),
            m.epochs_committed,
            m.admission_p50_ns as f64 / 1e6,
            m.admission_p99_ns as f64 / 1e6
        );
        println!(
            "journals in {}/ — inspect with `dp sessions {}`",
            o.dir, o.dir
        );
    }
    daemon.shutdown();
}

/// The `--socket PATH` every client subcommand requires.
fn required_socket<'a>(cmd: &str, o: &'a Opts) -> &'a str {
    o.socket
        .as_deref()
        .unwrap_or_else(|| fail(cmd, "missing --socket PATH (the daemon's listening socket)"))
}

/// Connects to a serving daemon, turning every failure into a one-line
/// structured error.
fn connect(cmd: &str, socket: &str) -> doubleplay::dpd::Client {
    doubleplay::dpd::Client::connect(socket)
        .unwrap_or_else(|e| fail(cmd, format_args!("cannot connect to `{socket}`: {e}")))
}

/// Accepts a session id as `s0007` (the display form) or a bare number.
fn parse_session_id(cmd: &str, s: &str) -> doubleplay::dpd::SessionId {
    let digits = s.strip_prefix('s').unwrap_or(s);
    digits
        .parse()
        .map(doubleplay::dpd::SessionId)
        .unwrap_or_else(|_| fail(cmd, format_args!("`{s}` is not a session id (try s0001)")))
}

/// `dp submit <workload> --socket PATH`: open a recording session on a
/// remote daemon. The guest travels by name — the daemon resolves the
/// same workload locally, which is what keeps socket-submitted journals
/// byte-identical to in-process ones.
fn cmd_submit(name: &str, o: &Opts) {
    use doubleplay::dpd::{GuestRef, SizeRef, SubmitSpec};

    let socket = required_socket("submit", o);
    validate_worker_counts(o.threads, o.workers.unwrap_or(o.threads), o.pipelined)
        .unwrap_or_else(|e| fail("submit", e));
    let guest = GuestRef::Workload {
        name: name.to_string(),
        threads: o.threads as u64,
        size: SizeRef::from_size(o.size),
    };
    let mut config = DoublePlayConfig::new(o.threads)
        .epoch_cycles(o.epoch)
        .hidden_seed(o.seed)
        .pipelined(o.pipelined);
    if let Some(w) = o.workers {
        config = config.spare_workers(w);
    }
    let mut spec = SubmitSpec::new(name, guest, config);
    spec.priority = o.priority;
    spec.journal_shards = o.journal_shards;
    let mut client = connect("submit", socket);
    let id = client
        .submit_retrying(&spec, 500)
        .unwrap_or_else(|e| fail("submit", e));
    println!("admitted {id}");
    if o.wait {
        let report = client.wait(id).unwrap_or_else(|e| fail("submit", e));
        println!(
            "{id}: {:?} after {} attempt(s), {} epoch(s){}",
            report.state,
            report.attempts,
            report.epochs,
            report
                .error
                .as_deref()
                .map(|e| format!(" — {e}"))
                .unwrap_or_default()
        );
    }
}

/// `dp resume <ID> --socket PATH`: ask a serving daemon to continue a
/// crashed (`Salvaged`) session from its committed journal prefix. The
/// daemon re-enacts the prefix deterministically and keeps recording;
/// refusals (wrong state, spent budget, unresolvable guest) come back
/// as one typed line.
fn cmd_resume(id_arg: &str, o: &Opts) {
    let socket = required_socket("resume", o);
    let id = parse_session_id("resume", id_arg);
    let mut client = connect("resume", socket);
    let from = client.resume(id).unwrap_or_else(|e| fail("resume", e));
    println!("{id}: resuming from epoch {from}");
    if o.wait {
        let report = client.wait(id).unwrap_or_else(|e| fail("resume", e));
        println!(
            "{id}: {:?} after {} attempt(s), {} epoch(s){}",
            report.state,
            report.attempts,
            report.epochs,
            report
                .error
                .as_deref()
                .map(|e| format!(" — {e}"))
                .unwrap_or_default()
        );
    }
}

/// `dp attach <ID> --socket PATH`: tail a session's journal live and
/// write the received bytes to `-o FILE` (default `<ID>.dprs`). If the
/// daemon dies mid-stream the prefix received so far is still written —
/// it is salvageable by construction (`dp salvage` recovers it).
fn cmd_attach(id_arg: &str, o: &Opts) {
    let socket = required_socket("attach", o);
    let id = parse_session_id("attach", id_arg);
    let out_path = o.out.clone().unwrap_or_else(|| format!("{id}.dprs"));
    let mut client = connect("attach", socket);
    let mut bytes = Vec::new();
    match client.attach(id, &mut bytes) {
        Ok(outcome) => {
            write_atomic("attach", &out_path, &bytes);
            println!(
                "{id}: {:?}, {} epoch(s), {} byte(s) in {} chunk(s){} — wrote {out_path}",
                outcome.state,
                outcome.epochs,
                outcome.bytes,
                outcome.chunks,
                if outcome.clean { "" } else { " (not clean)" },
            );
        }
        Err(e) => {
            // The severed prefix is a valid journal prefix: keep it.
            if !bytes.is_empty() {
                write_atomic("attach", &out_path, &bytes);
                eprintln!(
                    "note: kept {} byte(s) received before the failure in `{out_path}`; \
                     recover with `dp salvage {out_path}`",
                    bytes.len()
                );
            }
            fail("attach", e);
        }
    }
}

/// `dp shutdown --socket PATH`: ask the daemon to stop serving. The
/// daemon drains in-flight sessions after its accept loop exits.
fn cmd_shutdown(o: &Opts) {
    let socket = required_socket("shutdown", o);
    let mut client = connect("shutdown", socket);
    client.shutdown().unwrap_or_else(|e| fail("shutdown", e));
    println!("daemon on {socket} shutting down");
}

/// `dp sessions --socket PATH`: the live session table (or `--json`),
/// fetched from a serving daemon with the same formatter the in-process
/// paths use.
fn cmd_sessions_socket(o: &Opts) {
    let socket = required_socket("sessions", o);
    let mut client = connect("sessions", socket);
    let (rows, notes) = client.sessions().unwrap_or_else(|e| fail("sessions", e));
    print_sessions(&rows, &notes, o.json);
}

/// `dp sessions <DIR>`: the post-mortem view after a daemon crash. It
/// classifies every journal in a serve directory exactly as daemon boot
/// does ([`DirStore::scan_orphans`]): each session's streams salvage
/// independently, and unrecoverable files are reported, not fatal.
fn cmd_sessions(dir: &str) {
    use doubleplay::dpd::OrphanClass;

    if !std::path::Path::new(dir).is_dir() {
        fail(
            "sessions",
            format_args!("cannot read `{dir}`: not a directory"),
        );
    }
    let orphans = DirStore::new(dir)
        .and_then(|store| store.scan_orphans())
        .unwrap_or_else(|e| fail("sessions", format_args!("cannot read `{dir}`: {e}")));
    if orphans.is_empty() {
        fail("sessions", format_args!("no journals in `{dir}`"));
    }
    println!("  journal                                   streams   epochs  status");
    let mut recovered = 0usize;
    for o in &orphans {
        let name = match o.id {
            Some(id) => format!("{id}-{}", o.name),
            None => o.name.clone(),
        };
        let (epochs, status) = match &o.class {
            OrphanClass::Finalized { epochs } => (epochs.to_string(), "clean".to_string()),
            OrphanClass::Salvageable { epochs, detail } => (epochs.to_string(), detail.clone()),
            OrphanClass::Garbage { reason } => {
                ("-".to_string(), format!("unsalvageable: {reason}"))
            }
        };
        if !matches!(o.class, OrphanClass::Garbage { .. }) {
            recovered += 1;
        }
        println!("  {name:40} {:7} {epochs:>8}  {status}", o.files.len());
    }
    println!(
        "{recovered}/{} journals recovered independently",
        orphans.len()
    );
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let Some(cmd) = argv.first() else { usage() };
    match cmd.as_str() {
        "list" => {
            for c in mixed_suite(2, Size::Small) {
                println!("{:16} {}", c.name, c.category);
            }
        }
        "record" => {
            let Some(name) = argv.get(1) else { usage() };
            let o = parse_opts(&argv[2..]);
            // Degenerate worker counts (`--threads 0`, `--pipelined
            // --workers 0`, absurd worker requests) are typed errors, not
            // panics — checked before `DoublePlayConfig::new`, whose
            // assertion is for programmer errors, not CLI input.
            validate_worker_counts(o.threads, o.workers.unwrap_or(o.threads), o.pipelined)
                .unwrap_or_else(|e| fail("record", e));
            let case = find_case(name, o.threads, o.size);
            let mut config = DoublePlayConfig::new(o.threads)
                .epoch_cycles(o.epoch)
                .hidden_seed(o.seed)
                .pipelined(o.pipelined);
            if let Some(w) = o.workers {
                config = config.spare_workers(w);
            }
            // With --journal, every committed epoch streams to the journal
            // as it happens; a crash mid-run leaves a salvageable prefix
            // instead of nothing. The journal is written in place (it IS
            // the incremental artifact); the final recording below is
            // still written atomically. With --journal-shards N, the
            // journal splits across `FILE.s0`..`FILE.s{N-1}`.
            if o.journal_shards >= 2 && o.journal.is_none() {
                fail("record", "--journal-shards requires --journal FILE");
            }
            let result = match &o.journal {
                Some(jpath) => {
                    let streams = o.journal_shards.max(1);
                    let paths: Vec<String> = if streams == 1 {
                        vec![jpath.clone()]
                    } else {
                        (0..streams).map(|k| format!("{jpath}.s{k}")).collect()
                    };
                    let writers = paths
                        .iter()
                        .map(|p| {
                            let file = std::fs::File::create(p).unwrap_or_else(|e| {
                                fail("record", format_args!("cannot create `{p}`: {e}"))
                            });
                            std::io::BufWriter::new(file)
                        })
                        .collect();
                    let mut sink = JournalWriter::threaded(writers, DEFAULT_SHARD_BATCH)
                        .unwrap_or_else(|e| {
                            fail("record", format_args!("cannot write `{jpath}`: {e}"))
                        });
                    let r = record_to(&case.spec, &config, &mut sink);
                    let (epochs, flushes) = (sink.epochs_committed(), sink.flushes());
                    match (&r, sink.into_writers()) {
                        (Ok(_), Err(e)) => fail("record", format_args!("journal lane failed: {e}")),
                        (Err(_), _) => eprintln!(
                            "note: journal `{}` retains every committed epoch; \
                             recover with `dp salvage {}`",
                            paths.join("`, `"),
                            paths[0]
                        ),
                        (Ok(_), Ok(_)) => println!(
                            "journal {}: {epochs} epoch(s) across {streams} stream(s), \
                             {flushes} flush(es)",
                            paths.join(", ")
                        ),
                    }
                    r
                }
                None => record(&case.spec, &config),
            };
            let bundle = match result {
                Ok(b) => b,
                Err(e) => fail("record", e),
            };
            let s = &bundle.stats;
            // Recording does not measure the native baseline the overhead
            // ratio divides by; measure it beside the recording.
            let native = measure_native(&case.spec, &config).unwrap_or_else(|e| fail("record", e));
            println!(
                "{name}: {} epochs, {} divergences, overhead {:.1}%, log {} B",
                s.epochs,
                s.divergences,
                s.overhead(native) * 100.0,
                s.log_bytes()
            );
            println!(
                "hashing: {} page(s) hashed, {} skipped by the incremental digest cache",
                s.hashed_pages, s.hash_skipped_pages
            );
            if s.wall.pipelined {
                println!(
                    "wall {:.1} ms, {} verify workers at {:.0}% utilization, {} speculative epoch(s) cancelled",
                    s.wall.wall_ns as f64 / 1e6,
                    s.wall.workers,
                    s.wall.utilization() * 100.0,
                    s.wall.cancelled_epochs
                );
            } else {
                println!(
                    "wall {:.1} ms (sequential driver)",
                    s.wall.wall_ns as f64 / 1e6
                );
            }
            let path = o.out.unwrap_or_else(|| format!("{name}.dprec"));
            let mut buf = Vec::new();
            bundle
                .recording
                .save(&mut buf)
                .unwrap_or_else(|e| fail("record", format_args!("cannot serialize: {e}")));
            write_atomic("record", &path, &buf);
            println!("wrote {path}");
        }
        "salvage" => {
            let Some(path) = argv.get(1) else { usage() };
            let o = parse_opts(&argv[2..]);
            let bytes = std::fs::read(path)
                .unwrap_or_else(|e| fail("salvage", format_args!("cannot read `{path}`: {e}")));
            // A stream's header names how many streams its journal has;
            // only then are the `BASE.s<K>` siblings gathered.
            let streams = JournalReader::stream_count(&bytes)
                .unwrap_or_else(|e| fail("salvage", format_args!("cannot salvage `{path}`: {e}")));
            let (base, bufs) = if streams >= 2 {
                let Some(base) = shard_base(path) else {
                    fail(
                        "salvage",
                        format_args!(
                            "`{path}` is one of {streams} journal streams but is not named \
                             `BASE.s<K>`; restore the set's `BASE.s0`..`BASE.s{}` names",
                            streams - 1
                        ),
                    );
                };
                let bufs = (0..streams)
                    .filter_map(|k| std::fs::read(format!("{base}.s{k}")).ok())
                    .collect();
                (base, bufs)
            } else {
                (path.as_str(), vec![bytes])
            };
            let salvaged = JournalReader::salvage_shards(&bufs)
                .unwrap_or_else(|e| fail("salvage", format_args!("cannot salvage `{path}`: {e}")));
            println!(
                "{path}: {} committed epoch(s) across {streams} stream(s), \
                 {} bytes salvaged, {} bytes dropped, \
                 {} epoch(s) past a gap ({})",
                salvaged.committed(),
                salvaged.salvaged_bytes,
                salvaged.dropped_bytes,
                salvaged.dropped_epochs,
                salvaged.detail
            );
            let recording = salvaged.recording;
            let out_default = format!("{base}.dprec");
            let out = o.out.unwrap_or(out_default);
            let mut buf = Vec::new();
            recording
                .save(&mut buf)
                .unwrap_or_else(|e| fail("salvage", format_args!("cannot serialize: {e}")));
            write_atomic("salvage", &out, &buf);
            println!("wrote {out} ({} bytes)", buf.len());
        }
        "replay" => {
            let Some(path) = argv.get(1) else { usage() };
            let o = parse_opts(&argv[2..]);
            // Each replay thread is a real OS thread, so the cap on spare
            // recording workers bounds them too.
            if o.parallel > MAX_SPARE_WORKERS {
                fail(
                    "replay",
                    format_args!(
                        "--parallel {} exceeds the maximum of {MAX_SPARE_WORKERS} threads",
                        o.parallel
                    ),
                );
            }
            let case = required_case("replay", &o);
            let recording = load_recording("replay", path);
            let result = if o.parallel > 1 {
                replay_parallel(&recording, &case.spec.program, o.parallel)
            } else {
                replay_sequential(&recording, &case.spec.program)
            };
            match result {
                Ok(report) => println!(
                    "replayed {} epochs, {} instructions, exit {:?} — verified",
                    report.epochs, report.instructions, report.exit_code
                ),
                Err(e) => fail("replay", e),
            }
        }
        "serve" => cmd_serve(&parse_opts(&argv[1..])),
        "submit" => {
            let Some(name) = argv.get(1) else { usage() };
            cmd_submit(name, &parse_opts(&argv[2..]));
        }
        "resume" => {
            let Some(id) = argv.get(1) else { usage() };
            cmd_resume(id, &parse_opts(&argv[2..]));
        }
        "attach" => {
            let Some(id) = argv.get(1) else { usage() };
            cmd_attach(id, &parse_opts(&argv[2..]));
        }
        "shutdown" => cmd_shutdown(&parse_opts(&argv[1..])),
        "sessions" => {
            let Some(first) = argv.get(1) else { usage() };
            if first.starts_with("--") {
                cmd_sessions_socket(&parse_opts(&argv[1..]));
            } else {
                cmd_sessions(first);
            }
        }
        "analyze" => cmd_analyze(&argv[1..]),
        "inspect" => {
            let Some(path) = argv.get(1) else { usage() };
            let r = load_recording("inspect", path);
            println!("guest:         {}", r.meta.guest_name);
            println!("program hash:  {:#018x}", r.meta.program_hash);
            println!(
                "config:        {} cpus, epoch {} cycles",
                r.meta.config.cpus, r.meta.config.epoch_cycles
            );
            println!("epochs:        {}", r.epochs.len());
            println!(
                "checkpoints:   {}",
                if r.has_checkpoints() {
                    "per-epoch (parallel replay ok)"
                } else {
                    "initial only"
                }
            );
            println!(
                "schedule:      {} events, {} bytes",
                r.schedule_events(),
                r.schedule_bytes()
            );
            println!(
                "syscall log:   {} entries, {} bytes",
                r.logged_syscalls(),
                r.syscall_bytes()
            );
            let ext: u64 = r.external().map(|c| c.bytes.len() as u64).sum();
            println!("external out:  {ext} bytes");
            for e in r.epochs.iter().take(5) {
                println!(
                    "  epoch {:3}: {:6} sched events, {:5} syscalls, end hash {:#018x}",
                    e.index,
                    e.schedule.len(),
                    e.syscalls.len(),
                    e.end_machine_hash
                );
            }
            if r.epochs.len() > 5 {
                println!("  ... {} more", r.epochs.len() - 5);
            }
        }
        _ => usage(),
    }
}
