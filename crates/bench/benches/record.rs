//! Wall-clock cost of recording (the whole uniparallel pipeline) per
//! workload — the engineering-side counterpart of experiment E2.

use dp_bench::config_for;
use dp_bench::walltime::bench;
use dp_workloads::{find, Size};

fn main() {
    for name in ["pfscan", "kvstore", "ocean"] {
        let case = find(name, 2, Size::Small).unwrap();
        bench("record", name, 10, || {
            dp_core::record(&case.spec, &config_for(2)).unwrap()
        });
    }
}
