//! Wall-clock cost of sequential vs. parallel offline replay (experiment
//! E7's real-time side) of the recording a journal reads back. Each sample
//! salvages the journal's bytes and replays what it recovered, as
//! `dp replay` does, so no sample reuses page digests an earlier one
//! computed; `replay/salvage` times the read-back alone.

use dp_bench::config_for;
use dp_bench::experiments::{read_back, record_journal};
use dp_bench::walltime::bench;
use dp_workloads::{find, Size};

fn main() {
    let case = find("ocean", 2, Size::Small).unwrap();
    let journal = record_journal(&case.spec, &config_for(2));
    bench("replay", "salvage", 10, || read_back(&journal));
    bench("replay", "sequential", 10, || {
        dp_core::replay_sequential(&read_back(&journal), &case.spec.program).unwrap()
    });
    for threads in [2usize, 4] {
        bench("replay", &format!("parallel-{threads}"), 10, || {
            dp_core::replay_parallel(&read_back(&journal), &case.spec.program, threads).unwrap()
        });
    }
}
