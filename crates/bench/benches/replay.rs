//! Wall-clock cost of sequential vs. parallel offline replay (experiment
//! E7's real-time side).

use dp_bench::config_for;
use dp_bench::walltime::bench;
use dp_workloads::{find, Size};

fn main() {
    let case = find("ocean", 2, Size::Small).unwrap();
    let bundle = dp_core::record(&case.spec, &config_for(2)).unwrap();
    bench("replay", "sequential", 10, || {
        dp_core::replay_sequential(&bundle.recording, &case.spec.program).unwrap()
    });
    for threads in [2usize, 4] {
        bench("replay", &format!("parallel-{threads}"), 10, || {
            dp_core::replay_parallel(&bundle.recording, &case.spec.program, threads).unwrap()
        });
    }
}
