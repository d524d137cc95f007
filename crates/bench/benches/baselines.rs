//! Wall-clock recording cost of the baseline schemes vs DoublePlay
//! (experiment E5's real-time side).

use dp_bench::config_for;
use dp_bench::walltime::bench;
use dp_workloads::{find, Size};

fn main() {
    let case = find("kvstore", 2, Size::Small).unwrap();
    let config = config_for(2);
    bench("baselines-kvstore", "doubleplay", 10, || {
        dp_core::record(&case.spec, &config).unwrap()
    });
    bench("baselines-kvstore", "uniprocessor", 10, || {
        dp_baselines::uniproc::record(&case.spec, &config).unwrap()
    });
    bench("baselines-kvstore", "value-log", 10, || {
        dp_baselines::value_log::record(&case.spec, &config).unwrap()
    });
    bench("baselines-kvstore", "crew", 10, || {
        dp_baselines::crew::record(&case.spec, &config).unwrap()
    });
}
