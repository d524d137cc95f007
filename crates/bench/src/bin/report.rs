//! Regenerates the paper's tables and figures. Usage:
//!
//! ```text
//! report [small|medium|large] [e1 e2 e3 e4 e5 e6 e7 e8 e9 e10 e11 e12 e13 e14 e15 e16 e17 e18 e19 | all]
//! ```
//!
//! The size defaults to medium and may only come first; no experiment id
//! means all of them. An unknown size, an unknown experiment id, or a
//! misplaced size word is refused with a typed message and exit status 2.

use dp_bench::experiments as exp;
use dp_workloads::Size;

/// Every experiment id, in report order.
const EXPERIMENTS: [&str; 19] = [
    "e1", "e2", "e3", "e4", "e5", "e6", "e7", "e8", "e9", "e10", "e11", "e12", "e13", "e14", "e15",
    "e16", "e17", "e18", "e19",
];

/// Parses `[SIZE] [ID | all]...` into the size and the experiments to run.
fn parse_args(args: &[String]) -> Result<(Size, Vec<&'static str>), String> {
    let mut size = Size::Medium;
    let mut which = Vec::new();
    for (i, word) in args.iter().map(String::as_str).enumerate() {
        let as_size = match word {
            "small" => Some(Size::Small),
            "medium" => Some(Size::Medium),
            "large" => Some(Size::Large),
            _ => None,
        };
        if let Some(s) = as_size {
            if i > 0 {
                return Err(format!("the size `{word}` must come first"));
            }
            size = s;
        } else if word == "all" {
            which.extend(EXPERIMENTS);
        } else if let Some(id) = EXPERIMENTS.iter().find(|id| **id == word) {
            which.push(*id);
        } else if i == 0 {
            return Err(format!(
                "unknown size or experiment `{word}` (sizes: small, medium, large; \
                 experiments: e1..e19, all)"
            ));
        } else {
            return Err(format!(
                "unknown experiment `{word}` (experiments: e1..e19, all)"
            ));
        }
    }
    if which.is_empty() {
        which.extend(EXPERIMENTS);
    }
    Ok((size, which))
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (size, which) = parse_args(&args).unwrap_or_else(|e| {
        eprintln!("error: report: {e}");
        eprintln!("usage: report [small|medium|large] [e1..e19 | all]...");
        std::process::exit(2);
    });
    let want = |id: &str| which.contains(&id);

    println!("DoublePlay reproduction report (size = {size})");
    println!("================================================\n");
    if want("e1") {
        println!("{}", exp::table1(size));
    }
    if want("e2") {
        println!("{}", exp::fig_overhead(size, true));
    }
    if want("e3") {
        println!("{}", exp::fig_overhead(size, false));
    }
    if want("e4") {
        println!("{}", exp::table_logsize(size));
    }
    if want("e5") {
        println!("{}", exp::table_baselines(size));
    }
    if want("e6") {
        println!("{}", exp::fig_epoch_length(size));
        println!("{}", exp::fig_adaptive(size));
    }
    if want("e7") {
        println!("{}", exp::fig_replay_speed(size));
    }
    if want("e8") {
        println!("{}", exp::table_rollback(size));
    }
    if want("e9") {
        println!("{}", exp::fig_recovery_ablation(size));
    }
    if want("e10") {
        println!("{}", exp::table_faults(size));
    }
    if want("e11") {
        println!("{}", exp::table_analyze(size));
    }
    if want("e12") {
        println!("{}", exp::table_journal(size));
    }
    if want("e13") {
        println!("{}", exp::table_wallclock(size));
    }
    if want("e14") {
        println!("{}", exp::table_service(&exp::service_run(size)));
    }
    if want("e15") {
        println!("{}", exp::table_shards(&exp::shard_run(size)));
    }
    if want("e16") {
        println!("{}", exp::table_dpnet(&exp::dpnet_run(size)));
    }
    if want("e17") {
        println!("{}", exp::table_resume(&exp::resume_run(size)));
    }
    if want("e18") {
        let run = exp::hash_run(size);
        println!("{}", exp::table_hash_sweep(&run));
        println!("{}", exp::table_hash_record(&run));
    }
    if want("e19") {
        let run = exp::delta_run(size);
        println!("{}", exp::table_delta_sweep(&run));
        println!("{}", exp::table_delta_workloads(&run));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(words: &[&str]) -> Result<(Size, Vec<&'static str>), String> {
        parse_args(&words.iter().map(|w| w.to_string()).collect::<Vec<_>>())
    }

    #[test]
    fn arguments_parse_or_are_refused_typed() {
        assert_eq!(
            parse(&["small", "e10", "e4"]).unwrap(),
            (Size::Small, vec!["e10", "e4"])
        );
        assert_eq!(parse(&["e12"]).unwrap(), (Size::Medium, vec!["e12"]));
        assert_eq!(parse(&[]).unwrap(), (Size::Medium, EXPERIMENTS.to_vec()));
        assert_eq!(
            parse(&["large", "all"]).unwrap(),
            (Size::Large, EXPERIMENTS.to_vec())
        );
        for (words, message) in [
            (&["smal", "e10"][..], "unknown size or experiment `smal`"),
            (&["small", "e99"], "unknown experiment `e99`"),
            (&["small", "x1"], "unknown experiment `x1`"),
            (&["e10", "small"], "the size `small` must come first"),
        ] {
            let err = parse(words).unwrap_err();
            assert!(err.contains(message), "{words:?}: {err}");
        }
    }
}
