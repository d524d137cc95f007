//! `perfbench` — the repository benchmark.
//!
//! ```text
//! perfbench --workload <ckpt-heavy|log-heavy|service> --seed <n>
//!           --seconds <n> --trace <0|1> [--smoke]
//! ```
//!
//! Runs one workload through the public APIs of `dp-core`,
//! `dp-workloads` and `dp-dpd` for `--seconds` seconds, checks every
//! output, and prints each metric with its unit; the last line of
//! standard output is one JSON object with `correct`, `attempted`,
//! `failed` and `metrics`. `--trace 0` reports the end-to-end metrics
//! with tracing off; `--trace 1` reports the per-layer metrics from a
//! traced run and writes its spans to
//! `.bench_work/trace-<workload>-seed<n>.tsv`. `--smoke` shrinks every
//! guest to the small size, for a quick check that the metrics print.
//! Exits 1 when an output check fails and 2 on a bad argument.

mod layers;
mod record;
mod report;
mod service;
mod sink;
mod trace;
mod workloads;

use std::fmt;
use std::path::{Path, PathBuf};

/// The benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    CkptHeavy,
    LogHeavy,
    Service,
}

impl Workload {
    const ALL: [Workload; 3] = [Workload::CkptHeavy, Workload::LogHeavy, Workload::Service];

    pub fn name(self) -> &'static str {
        match self {
            Workload::CkptHeavy => "ckpt-heavy",
            Workload::LogHeavy => "log-heavy",
            Workload::Service => "service",
        }
    }
}

/// Checked command-line arguments.
#[derive(Debug, Clone)]
pub struct Args {
    pub workload: Workload,
    pub seed: u64,
    pub seconds: u64,
    pub trace: bool,
    pub smoke: bool,
}

/// Why the command line was refused.
#[derive(Debug, PartialEq, Eq)]
pub enum ArgError {
    UnknownWorkload(String),
    MalformedSeed(String),
    MalformedSeconds(String),
    MalformedTrace(String),
    MissingValue(&'static str),
    Missing(&'static str),
    UnknownFlag(String),
}

impl fmt::Display for ArgError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ArgError::UnknownWorkload(w) => {
                let names: Vec<_> = Workload::ALL.iter().map(|w| w.name()).collect();
                write!(
                    f,
                    "unknown workload `{w}` (expected one of: {})",
                    names.join(", ")
                )
            }
            ArgError::MalformedSeed(s) => {
                write!(
                    f,
                    "malformed --seed `{s}`: expected an unsigned 64-bit integer"
                )
            }
            ArgError::MalformedSeconds(s) => {
                write!(
                    f,
                    "malformed --seconds `{s}`: expected a whole number from 1 to 3600"
                )
            }
            ArgError::MalformedTrace(s) => write!(f, "malformed --trace `{s}`: expected 0 or 1"),
            ArgError::MissingValue(flag) => write!(f, "{flag} needs a value"),
            ArgError::Missing(flag) => write!(f, "{flag} is required"),
            ArgError::UnknownFlag(flag) => write!(f, "unknown argument `{flag}`"),
        }
    }
}

impl Args {
    pub fn parse(args: impl IntoIterator<Item = String>) -> Result<Args, ArgError> {
        let (mut workload, mut seed, mut seconds, mut trace, mut smoke) =
            (None, None, None, None, false);
        let mut args = args.into_iter();
        while let Some(flag) = args.next() {
            let mut value = |name: &'static str| args.next().ok_or(ArgError::MissingValue(name));
            match flag.as_str() {
                "--workload" => {
                    let w = value("--workload")?;
                    workload = Some(
                        Workload::ALL
                            .into_iter()
                            .find(|k| k.name() == w)
                            .ok_or(ArgError::UnknownWorkload(w))?,
                    );
                }
                "--seed" => {
                    let s = value("--seed")?;
                    seed = Some(s.parse().map_err(|_| ArgError::MalformedSeed(s))?);
                }
                "--seconds" => {
                    let s = value("--seconds")?;
                    seconds = Some(
                        s.parse()
                            .ok()
                            .filter(|n| (1..=3600).contains(n))
                            .ok_or(ArgError::MalformedSeconds(s))?,
                    );
                }
                "--trace" => {
                    let s = value("--trace")?;
                    trace = Some(match s.as_str() {
                        "0" => false,
                        "1" => true,
                        _ => return Err(ArgError::MalformedTrace(s)),
                    });
                }
                "--smoke" => smoke = true,
                _ => return Err(ArgError::UnknownFlag(flag)),
            }
        }
        Ok(Args {
            workload: workload.ok_or(ArgError::Missing("--workload"))?,
            seed: seed.ok_or(ArgError::Missing("--seed"))?,
            seconds: seconds.ok_or(ArgError::Missing("--seconds"))?,
            trace: trace.unwrap_or(false),
            smoke,
        })
    }
}

/// Scratch space for journals, removed when the run ends.
struct WorkDir(PathBuf);

impl Drop for WorkDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// Where runs keep their scratch files and traces, relative to the
/// checkout the benchmark runs from.
const BENCH_ROOT: &str = ".bench_work";

fn main() {
    let args = match Args::parse(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: error: {e}");
            std::process::exit(2);
        }
    };
    let root = Path::new(BENCH_ROOT);
    let work = WorkDir(root.join(format!("{}-{}", args.workload.name(), std::process::id())));
    if let Err(e) = std::fs::create_dir_all(&work.0) {
        eprintln!("perfbench: error: cannot create {}: {e}", work.0.display());
        std::process::exit(2);
    }
    let tracer = trace::Tracer::new(args.trace);
    let outcome = workloads::run(&args, &tracer, &work.0);
    drop(work);

    if args.trace {
        let path = root.join(format!(
            "trace-{}-seed{}.tsv",
            args.workload.name(),
            args.seed
        ));
        match trace::write_rows(&path, &tracer.spans()) {
            Ok(()) => println!("spans: {}", path.display()),
            Err(e) => eprintln!("perfbench: cannot write spans to {}: {e}", path.display()),
        }
    }
    let rows = outcome.metrics.rows().iter();
    for (name, value, unit) in rows.chain(outcome.table_only.rows()) {
        println!("{name:<34} {value:>14.4} {unit}");
    }
    let failed = outcome.failures.len() as f64;
    println!(
        "{:<34} {:>14.4} ratio ({} of {} operations)",
        "failed_frac",
        report::ratio(failed, outcome.attempted as f64),
        outcome.failures.len(),
        outcome.attempted
    );
    for why in &outcome.failures {
        eprintln!("perfbench: check failed: {why}");
    }
    println!("{}", outcome.json());
    std::process::exit(if outcome.failures.is_empty() { 0 } else { 1 });
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(line: &str) -> Result<Args, ArgError> {
        Args::parse(line.split_whitespace().map(String::from))
    }

    #[test]
    fn parses_a_full_command_line() {
        let a = parse("--workload service --seed 7 --seconds 10 --trace 1").unwrap();
        assert_eq!(a.workload, Workload::Service);
        assert_eq!((a.seed, a.seconds, a.trace, a.smoke), (7, 10, true, false));
    }

    #[test]
    fn rejects_bad_arguments_with_typed_errors() {
        assert_eq!(
            parse("--workload nope --seed 1 --seconds 1").unwrap_err(),
            ArgError::UnknownWorkload("nope".into())
        );
        assert_eq!(
            parse("--workload service --seed -3 --seconds 1").unwrap_err(),
            ArgError::MalformedSeed("-3".into())
        );
        assert_eq!(
            parse("--workload service --seed 1 --seconds 0").unwrap_err(),
            ArgError::MalformedSeconds("0".into())
        );
        assert_eq!(
            parse("--workload service --seed 1 --seconds 1 --trace 2").unwrap_err(),
            ArgError::MalformedTrace("2".into())
        );
        assert_eq!(
            parse("--workload service --seconds 1").unwrap_err(),
            ArgError::Missing("--seed")
        );
        assert_eq!(
            parse("--workload service --seed").unwrap_err(),
            ArgError::MissingValue("--seed")
        );
        assert!(parse("--workload service --seed 1 --seconds 1 --size small").is_err());
    }
}
