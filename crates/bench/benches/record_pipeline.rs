//! Wall-clock cost of pipelined recording versus lockstep recording (the
//! same loop with no worker threads) — the engineering-side counterpart
//! of experiment E13. On a multicore
//! host the pipelined medians should drop as workers grow; on a starved
//! host they converge toward the sequential figure (the byte-identity
//! contract is asserted by the E13 table and the property suite, not
//! here).

use dp_bench::experiments::{verify_heavy_spec, wallclock_config};
use dp_bench::walltime::{bench, bench_throughput};

fn main() {
    let spec = verify_heavy_spec(192, 6_000);
    let seq = wallclock_config(1).pipelined(false);
    let epochs = dp_core::record(&spec, &seq).unwrap().stats.epochs;
    println!("record_pipeline: {epochs} epochs per run");
    bench_throughput("record_pipeline", "sequential", 5, epochs, || {
        dp_core::record(&spec, &seq).unwrap()
    });
    for workers in [1, 2, 4] {
        let config = wallclock_config(workers).pipelined(true);
        bench(
            "record_pipeline",
            &format!("pipelined_w{workers}"),
            5,
            || dp_core::record(&spec, &config).unwrap(),
        );
    }
}
