//! Arguments and process hygiene shared by the two binaries.

use crate::e2e::RunArgs;
use crate::spec::spec;

/// `--key value` pairs and bare `--flag`s, in order.
pub struct Args(Vec<String>);

impl Args {
    pub fn from_env(skip: usize) -> Self {
        Args(std::env::args().skip(skip).collect())
    }

    pub fn flag(&self, name: &str) -> bool {
        self.0.iter().any(|a| a == name)
    }

    pub fn value(&self, name: &str) -> Option<&str> {
        let at = self.0.iter().position(|a| a == name)?;
        self.0.get(at + 1).map(String::as_str)
    }

    /// Every argument after `name`, up to the next `--` one.
    pub fn values(&self, name: &str) -> &[String] {
        let from = self
            .0
            .iter()
            .position(|a| a == name)
            .map_or(self.0.len(), |at| at + 1);
        let rest = &self.0[from..];
        &rest[..rest
            .iter()
            .position(|a| a.starts_with("--"))
            .unwrap_or(rest.len())]
    }

    pub fn parsed<T: std::str::FromStr>(&self, name: &str, default: T) -> T {
        match self.value(name) {
            None => default,
            Some(v) => v
                .parse()
                .unwrap_or_else(|_| die(&format!("{name}: cannot read '{v}'"))),
        }
    }

    /// Measuring time: `--seconds`, except that a smoke run stops after
    /// its first pass (or pair of passes).
    pub fn seconds(&self) -> f64 {
        if self.flag("--smoke") {
            0.0
        } else {
            self.parsed("--seconds", spec().run_seconds)
        }
    }

    /// The arguments of one measured run (the driver's contract):
    /// `--workload <name> --seed <n> --seconds <s> [--smoke]`.
    pub fn run_args(&self) -> RunArgs {
        let name = self
            .value("--workload")
            .unwrap_or_else(|| die("--workload <name> is required"));
        let workload = spec().workload(name).unwrap_or_else(|| {
            let known: Vec<_> = spec().workloads.iter().map(|w| &*w.name).collect();
            die(&format!(
                "unknown workload '{name}' (known: {})",
                known.join(", ")
            ))
        });
        RunArgs {
            workload,
            seed: self.parsed("--seed", DEFAULT_SEED),
            seconds: self.seconds(),
            smoke: self.flag("--smoke"),
        }
    }
}

pub const DEFAULT_SEED: u64 = 77;

pub fn die(why: &str) -> ! {
    eprintln!("acr-benchmark: {why}");
    std::process::exit(2)
}

/// Removes every `ACR_*` variable from this process's environment — the
/// engine reads its toggles (`ACR_THREADS`, `ACR_DELTA`, `ACR_FLOW`,
/// `ACR_SYM`, ...) from there, and the benchmark measures the product's
/// defaults. Returns what was removed, as `NAME=value`. Call first
/// thing in `main`, before any thread exists.
pub fn scrub_env() -> Vec<String> {
    let found: Vec<(String, String)> = std::env::vars_os()
        .filter_map(|(k, v)| Some((k.into_string().ok()?, v.to_string_lossy().into_owned())))
        .filter(|(k, _)| k.starts_with("ACR_"))
        .collect();
    for (k, _) in &found {
        std::env::remove_var(k);
    }
    found.into_iter().map(|(k, v)| format!("{k}={v}")).collect()
}

/// A build with debug assertions is not what users run; refuse to
/// measure it. (This package's `dev` profile is the `release` profile,
/// so only a build with overridden profile settings gets here.)
pub fn refuse_debug_build() {
    if cfg!(debug_assertions) {
        die("this build has debug assertions on; measure with `benchmark/run.sh`");
    }
}
