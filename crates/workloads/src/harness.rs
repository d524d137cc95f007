//! The workload harness: a uniform interface over the benchmark programs,
//! mirroring the paper's client/server/scientific suite.

use dp_core::GuestSpec;
use dp_os::kernel::Kernel;
use dp_vm::Machine;
use std::fmt;

/// How large a workload instance to build. The evaluation uses `Medium`;
/// tests use `Small` to stay fast; `Large` stresses the pipeline.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Size {
    /// Seconds-scale unit-test size.
    Small,
    /// Benchmark size (tens of millions of instructions).
    Medium,
    /// Stress size.
    Large,
}

impl Size {
    /// A scale factor the generators multiply their iteration counts by.
    pub fn factor(self) -> u64 {
        match self {
            Size::Small => 1,
            Size::Medium => 8,
            Size::Large => 24,
        }
    }
}

impl fmt::Display for Size {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Size::Small => write!(f, "small"),
            Size::Medium => write!(f, "medium"),
            Size::Large => write!(f, "large"),
        }
    }
}

/// Workload category, as the paper groups its benchmarks.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Category {
    /// Client-style parallel utilities (pbzip2, pfscan, aget).
    Client,
    /// Server-style request handlers (Apache, MySQL).
    Server,
    /// Scientific kernels (SPLASH-2-style).
    Scientific,
    /// Intentionally racy microbenchmarks (divergence studies).
    Racy,
}

impl fmt::Display for Category {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Category::Client => write!(f, "client"),
            Category::Server => write!(f, "server"),
            Category::Scientific => write!(f, "scientific"),
            Category::Racy => write!(f, "racy"),
        }
    }
}

/// A workload verification failure.
#[derive(Debug, Clone)]
pub struct VerifyError {
    /// What went wrong.
    pub detail: String,
}

impl fmt::Display for VerifyError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "workload verification failed: {}", self.detail)
    }
}

impl std::error::Error for VerifyError {}

/// A convenience constructor used by the verifiers.
pub fn verify_err(detail: impl Into<String>) -> VerifyError {
    VerifyError {
        detail: detail.into(),
    }
}

/// Asserts equality in a verifier, with context.
pub fn expect_eq<T: PartialEq + fmt::Debug>(
    what: &str,
    actual: T,
    expected: T,
) -> Result<(), VerifyError> {
    if actual == expected {
        Ok(())
    } else {
        Err(verify_err(format!(
            "{what}: got {actual:?}, expected {expected:?}"
        )))
    }
}

/// Final-state check installed by each workload.
pub type VerifyFn = Box<dyn Fn(&Machine, &Kernel) -> Result<(), VerifyError> + Send + Sync>;

/// One runnable benchmark instance: a guest spec plus a verifier that
/// checks the final world state for correctness (so every experiment
/// double-checks that record/replay didn't corrupt the application).
pub struct WorkloadCase {
    /// Short name ("pcomp", "ocean", ...).
    pub name: &'static str,
    /// Category for report grouping.
    pub category: Category,
    /// Worker-thread count the instance was built for.
    pub threads: usize,
    /// The bootable guest.
    pub spec: GuestSpec,
    /// Checks the final state (exit code, file contents, network traffic).
    pub verify: VerifyFn,
    /// Expected total external (world-visible) output bytes, when the
    /// workload's traffic is deterministic. Recording consumers check this
    /// against the recording's committed external chunks.
    pub expected_external_bytes: Option<u64>,
}

impl fmt::Debug for WorkloadCase {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("WorkloadCase")
            .field("name", &self.name)
            .field("category", &self.category)
            .field("threads", &self.threads)
            .finish()
    }
}

/// Builds one workload instance for a worker-thread count and size.
type Builder = fn(usize, Size) -> WorkloadCase;

/// Every workload by name, in suite order: the paper-style suite, then the
/// racy microbenchmarks. [`suite`], [`racy_suite`], [`mixed_suite`] and
/// [`find`] all read this one table, so "a workload name" means the same
/// thing everywhere and `find` builds only the workload it names.
const WORKLOADS: [(&str, Category, Builder); 12] = [
    ("pcomp", Category::Client, crate::pcomp::build),
    ("pfscan", Category::Client, crate::pfscan::build),
    ("aget", Category::Client, crate::aget::build),
    ("webserve", Category::Server, crate::webserve::build),
    ("kvstore", Category::Server, crate::kvstore::build),
    ("ocean", Category::Scientific, crate::ocean::build),
    ("water", Category::Scientific, crate::water::build),
    ("radix", Category::Scientific, crate::radix::build),
    ("racey-counter", Category::Racy, crate::racey::counter),
    ("racey-sparse", Category::Racy, crate::racey::sparse_counter),
    ("racey-lazyinit", Category::Racy, crate::racey::lazy_init),
    ("racey-bank", Category::Racy, crate::racey::banking),
];

/// Builds, in table order, every workload whose category passes `keep`.
fn build_where(threads: usize, size: Size, keep: impl Fn(Category) -> bool) -> Vec<WorkloadCase> {
    WORKLOADS
        .iter()
        .filter(|(_, category, _)| keep(*category))
        .map(|(_, _, build)| build(threads, size))
        .collect()
}

/// Builds the full paper-style suite for a worker-thread count: client
/// utilities, servers, and scientific kernels (no racy microbenchmarks).
pub fn suite(threads: usize, size: Size) -> Vec<WorkloadCase> {
    build_where(threads, size, |c| c != Category::Racy)
}

/// The racy microbenchmarks (experiment E8).
pub fn racy_suite(threads: usize, size: Size) -> Vec<WorkloadCase> {
    build_where(threads, size, |c| c == Category::Racy)
}

/// The full suite plus the racy microbenchmarks — the session mix a
/// multi-tenant recording service sees (experiment E14, `dpd-load`).
pub fn mixed_suite(threads: usize, size: Size) -> Vec<WorkloadCase> {
    build_where(threads, size, |_| true)
}

/// Builds the named workload of [`mixed_suite`], and only that one, or
/// returns `None` for an unknown name. Shared by the CLI, the daemon, and
/// the bench runner so "a workload name" means the same thing everywhere.
pub fn find(name: &str, threads: usize, size: Size) -> Option<WorkloadCase> {
    WORKLOADS
        .iter()
        .find(|(n, ..)| *n == name)
        .map(|(_, _, build)| build(threads, size))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn suite_covers_all_categories() {
        let suite = suite(2, Size::Small);
        assert_eq!(suite.len(), 8);
        for cat in [Category::Client, Category::Server, Category::Scientific] {
            assert!(
                suite.iter().any(|w| w.category == cat),
                "missing {cat} workloads"
            );
        }
        let names: Vec<_> = suite.iter().map(|w| w.name).collect();
        assert_eq!(
            names,
            vec!["pcomp", "pfscan", "aget", "webserve", "kvstore", "ocean", "water", "radix"]
        );
    }

    #[test]
    fn find_builds_the_suite_case_it_names() {
        for case in mixed_suite(2, Size::Small) {
            let found = find(case.name, 2, Size::Small).expect("suite name resolves");
            assert_eq!(found.name, case.name);
            assert_eq!(found.spec.program_hash(), case.spec.program_hash());
        }
        assert!(find("no-such-workload", 2, Size::Small).is_none());
    }

    #[test]
    fn the_workload_table_matches_its_builders() {
        for (name, category, build) in WORKLOADS {
            let case = build(2, Size::Small);
            assert_eq!((case.name, case.category), (name, category));
        }
        let racy: Vec<_> = racy_suite(2, Size::Small).iter().map(|w| w.name).collect();
        assert_eq!(
            racy,
            vec![
                "racey-counter",
                "racey-sparse",
                "racey-lazyinit",
                "racey-bank"
            ]
        );
    }

    #[test]
    fn size_factors_are_ordered() {
        assert!(Size::Small.factor() < Size::Medium.factor());
        assert!(Size::Medium.factor() < Size::Large.factor());
        assert_eq!(Size::Small.to_string(), "small");
    }

    #[test]
    fn expect_eq_formats_errors() {
        assert!(expect_eq("x", 1, 1).is_ok());
        let err = expect_eq("exit code", 1, 2).unwrap_err();
        assert!(err.to_string().contains("exit code"));
        assert!(err.to_string().contains("got 1"));
    }
}
