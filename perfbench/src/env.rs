//! The machine and build a result was measured on.

use crate::stats::json_str;

/// What the report records about where it ran.
pub struct Env {
    /// `std::thread::available_parallelism`.
    pub available_parallelism: usize,
    /// The CPU model from `/proc/cpuinfo`, or `unknown`.
    pub cpu_model: String,
    /// `rustc --version` of the compiler that built the benchmark.
    pub rustc: &'static str,
    /// The checked-out commit, or `unknown` outside a git checkout.
    pub commit: String,
}

impl Env {
    /// Reads the environment.
    #[must_use]
    pub fn detect() -> Env {
        Env {
            available_parallelism: std::thread::available_parallelism().map_or(1, usize::from),
            cpu_model: cpu_model().unwrap_or_else(|| "unknown".to_string()),
            rustc: env!("PERFBENCH_RUSTC_VERSION"),
            commit: commit().unwrap_or_else(|| "unknown".to_string()),
        }
    }

    /// The environment as JSON object members (no braces).
    #[must_use]
    pub fn json_members(&self) -> String {
        format!(
            "\"available_parallelism\": {}, \"cpu_model\": {}, \"rustc\": {}, \"commit\": {}",
            self.available_parallelism,
            json_str(&self.cpu_model),
            json_str(self.rustc),
            json_str(&self.commit)
        )
    }
}

fn cpu_model() -> Option<String> {
    let info = std::fs::read_to_string("/proc/cpuinfo").ok()?;
    info.lines()
        .find(|l| l.starts_with("model name"))
        .and_then(|l| l.split_once(':'))
        .map(|(_, v)| v.trim().to_string())
}

/// The commit of the checkout in the working directory, read from
/// `.git` directly so nothing outside the checkout is consulted.
fn commit() -> Option<String> {
    let head = std::fs::read_to_string(".git/HEAD").ok()?;
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return Some(head.to_string());
    };
    if let Ok(id) = std::fs::read_to_string(format!(".git/{reference}")) {
        return Some(id.trim().to_string());
    }
    let packed = std::fs::read_to_string(".git/packed-refs").ok()?;
    packed.lines().find_map(|l| {
        l.strip_suffix(reference)?
            .strip_suffix(' ')
            .map(str::to_string)
    })
}

/// Peak resident set of this process so far, in MiB (`VmHWM`).
#[must_use]
pub fn peak_rss_mib() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let kib: f64 = status
        .lines()
        .find(|l| l.starts_with("VmHWM:"))?
        .split_whitespace()
        .nth(1)?
        .parse()
        .ok()?;
    Some(kib / 1024.0)
}
