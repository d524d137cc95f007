//! Overhead-composition diagnostics: prints the full `RecorderStats`
//! breakdown (execution, checkpoint, log, epoch-parallel, and recovery
//! cycles) for a few representative workload/thread configurations —
//! useful when calibrating the cost model or investigating a regression.

fn main() {
    for (name, threads) in [
        ("ocean", 4),
        ("aget", 2),
        ("kvstore", 2),
        ("webserve", 2),
        ("water", 4),
    ] {
        let case = dp_workloads::find(name, threads, dp_workloads::Size::Medium).unwrap();
        let config = dp_bench::config_for(threads);
        let b = dp_core::record(&case.spec, &config).unwrap();
        let native = dp_bench::experiments::native_cycles(&case.spec, &config);
        let s = b.stats;
        println!(
            "{name}@{threads}: ovh={:.1}% native={} recorded={} tp_exec={} ckpt={} logw={} ep={} recov={} epochs={} div={} sched_ev={} dirty={}",
            s.overhead(native) * 100.0,
            native,
            s.recorded_cycles,
            s.tp_exec_cycles,
            s.checkpoint_cycles,
            s.log_write_cycles,
            s.ep_cycles,
            s.recovery_cycles,
            s.epochs,
            s.divergences,
            b.recording.schedule_events(),
            s.dirty_pages
        );
    }
}
