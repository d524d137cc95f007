//! End-to-end and property tests for the analysis subsystem: race
//! detection on real workloads, the schedule codec on recorder-shaped
//! logs, and recording diffs.

use dp_analyze::{detect_races, diff, inspect, triage};
use dp_core::logs::{codec, ScheduleLog};
use dp_core::{record, DoublePlayConfig, GuestSpec};
use dp_os::guest::Rt;
use dp_os::{abi, kernel::WorldConfig};
use dp_support::check::check;
use dp_vm::builder::ProgramBuilder;
use dp_vm::{Reg, Tid, Width};
use dp_workloads::{racy_suite, suite, Size};
use std::sync::Arc;

/// A fully lock-protected shared counter: `workers` threads, `iters`
/// non-atomic increments each, every increment under a mutex. Race-free
/// by construction.
fn locked_counter_spec(iters: i64, workers: usize) -> GuestSpec {
    let mut pb = ProgramBuilder::new();
    let rt = Rt::install(&mut pb);
    let lock = pb.global("lock", 8);
    let counter = pb.global("counter", 8);

    let mut w = pb.function("worker");
    let top = w.label();
    let done = w.label();
    w.consti(Reg(10), 0);
    w.bind(top);
    w.bin(dp_vm::BinOp::Ltu, Reg(11), Reg(10), iters);
    w.jz(Reg(11), done);
    w.consti(Reg(0), lock as i64);
    w.call(rt.mutex_lock);
    // Deliberately non-atomic increment; the mutex is the only protection.
    w.consti(Reg(12), counter as i64);
    w.load(Reg(13), Reg(12), 0, Width::W8);
    w.add(Reg(13), Reg(13), 1i64);
    w.store(Reg(13), Reg(12), 0, Width::W8);
    w.consti(Reg(0), lock as i64);
    w.call(rt.mutex_unlock);
    w.add(Reg(10), Reg(10), 1i64);
    w.jmp(top);
    w.bind(done);
    w.consti(Reg(0), 0);
    w.syscall(abi::SYS_THREAD_EXIT);
    w.finish();

    let worker_id = pb.declare("worker");
    let mut f = pb.function("main");
    for _ in 0..workers {
        f.consti(Reg(0), worker_id.0 as i64);
        f.consti(Reg(1), 0);
        f.consti(Reg(2), 0);
        f.syscall(abi::SYS_SPAWN);
    }
    for t in 1..=workers as i64 {
        f.consti(Reg(0), t);
        f.syscall(abi::SYS_JOIN);
    }
    f.consti(Reg(9), counter as i64);
    f.load(Reg(0), Reg(9), 0, Width::W8);
    f.syscall(abi::SYS_EXIT);
    f.finish();
    GuestSpec::new(
        "locked-counter",
        Arc::new(pb.finish("main")),
        WorldConfig::default(),
    )
}

fn case_by_name(name: &str, threads: usize) -> dp_workloads::WorkloadCase {
    suite(threads, Size::Small)
        .into_iter()
        .chain(racy_suite(threads, Size::Small))
        .find(|c| c.name == name)
        .unwrap_or_else(|| panic!("no workload named {name}"))
}

#[test]
fn racey_counter_reports_races_with_full_site_info() {
    let case = case_by_name("racey-counter", 2);
    let config = DoublePlayConfig::new(2).epoch_cycles(50_000);
    let bundle = record(&case.spec, &config).unwrap();
    let report = detect_races(&bundle.recording, &case.spec.program).unwrap();
    assert!(report.is_racy(), "racey-counter must report races");
    let race = report.first_race().unwrap();
    assert_ne!(race.first.tid, race.second.tid, "racing threads differ");
    assert!(race.addr > 0, "race has an address");
    assert!(
        race.first.icount > 0 && race.second.icount > 0,
        "sites carry instruction counts"
    );
    assert!(
        (race.second.epoch as usize) < bundle.recording.epochs.len(),
        "race epoch in range"
    );
    // Triage points at the same first race.
    let t = triage(&bundle.recording, &case.spec.program)
        .unwrap()
        .expect("triage finds the race");
    assert_eq!(t.race.addr, race.addr);
    assert!(t.to_string().contains("race at"));
}

#[test]
fn synchronized_workloads_have_no_false_positives() {
    for name in ["radix", "water"] {
        let case = case_by_name(name, 2);
        let config = DoublePlayConfig::new(2).epoch_cycles(100_000);
        let bundle = record(&case.spec, &config).unwrap();
        let report = detect_races(&bundle.recording, &case.spec.program).unwrap();
        assert!(
            report.races.is_empty(),
            "{name} must be race-free, got: {:?}",
            report.races
        );
        assert!(report.sync_addrs > 0, "{name} uses synchronization");
    }
}

#[test]
fn prop_lock_protected_workload_is_race_free() {
    check("lock_protected_race_free", 4, |g| {
        let iters = g.range(100, 400) as i64;
        let workers = g.range(2, 4) as usize;
        let spec = locked_counter_spec(iters, workers);
        let config = DoublePlayConfig {
            tp_quantum: g.range(150, 2_000),
            tp_jitter: g.range(0, 500),
            ..DoublePlayConfig::new(workers)
                .epoch_cycles(g.range(5_000, 40_000))
                .hidden_seed(g.u64())
        };
        let bundle = record(&spec, &config).unwrap();
        let report = detect_races(&bundle.recording, &spec.program).unwrap();
        assert!(
            report.races.is_empty(),
            "false positive on lock-protected counter: {:?}",
            report.races
        );
    });
}

#[test]
fn prop_racey_workload_always_races() {
    check("racey_always_races", 4, |g| {
        let case = case_by_name("racey-counter", 2);
        let config = DoublePlayConfig {
            tp_quantum: g.range(150, 2_000),
            tp_jitter: g.range(0, 500),
            ..DoublePlayConfig::new(2)
                .epoch_cycles(g.range(20_000, 80_000))
                .hidden_seed(g.u64())
        };
        let bundle = record(&case.spec, &config).unwrap();
        let report = detect_races(&bundle.recording, &case.spec.program).unwrap();
        assert!(
            report.is_racy(),
            "racey-counter must race under any schedule"
        );
    });
}

#[test]
fn prop_schedule_codec_roundtrips_random_schedules() {
    check("schedule_codec_roundtrip", 64, |g| {
        let mut log = ScheduleLog::new();
        let quantum = g.range(1, 5_000);
        for _ in 0..g.range(0, 200) {
            let tid = Tid(g.below(40) as u32);
            match g.below(10) {
                0 => log.push_wake(tid),
                1 => log.push_signal(tid, g.below(32)),
                // Mostly quantum-sized slices, as the recorder produces.
                _ if g.prob(0.7) => log.push_slice(tid, quantum),
                _ => {
                    let magnitude = g.range(1, 40);
                    log.push_slice(tid, g.range(1, 1 << magnitude));
                }
            }
        }
        let encoded = codec::encode_schedule(&log);
        assert_eq!(codec::decode_schedule(&encoded).unwrap(), log);
    });
}

#[test]
fn diff_localizes_first_divergence() {
    // The schedule log is the epoch-parallel run's and is deterministic
    // for a config, so structural divergence comes from changing the
    // epoch length, not the hidden thread-parallel seed.
    let mk = |epoch_cycles: u64| {
        let config = DoublePlayConfig::new(2).epoch_cycles(epoch_cycles);
        record(&case_by_name("racey-counter", 2).spec, &config).unwrap()
    };
    let a = mk(5_000);
    let b = mk(10_000);

    let same = diff(&a.recording, &a.recording);
    assert!(same.identical(), "a recording diffs clean against itself");

    let d = diff(&a.recording, &b.recording);
    assert!(!d.identical(), "different schedules must diff");
    assert!(d.to_string().contains("first divergence"));
    let p = d.first_divergence.expect("schedules diverge somewhere");
    assert_eq!(p.field, "schedule");
    assert!(p.event_index.is_some());
}

#[test]
fn inspect_summarizes_epochs() {
    let case = case_by_name("pfscan", 2);
    let config = DoublePlayConfig::new(2).epoch_cycles(50_000);
    let bundle = record(&case.spec, &config).unwrap();
    let report = inspect(&bundle.recording).unwrap();
    assert_eq!(report.guest_name, "pfscan");
    assert_eq!(report.epochs.len(), bundle.recording.epochs.len());
    assert!(report.total_instructions() > 0);
    let text = report.to_string();
    assert!(text.contains("epoch"));
    assert!(text.contains("thread"));
}
