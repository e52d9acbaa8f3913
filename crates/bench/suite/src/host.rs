//! What each report records about the machine and the build.

use std::fs;
use std::path::Path;

/// Host and build facts printed with every report.
#[derive(Debug, Clone)]
pub struct Host {
    /// `std::thread::available_parallelism`.
    pub nproc: usize,
    /// Commit of the checkout the benchmark runs in, or `unknown` when the
    /// checkout is not a git repository.
    pub git_rev: String,
    /// `rustc -V` of the compiler that built the benchmark.
    pub rustc: String,
    /// Cargo profile and optimisation level of the build.
    pub profile: String,
}

impl Host {
    /// Probe the current process and the checkout at the working directory.
    pub fn probe() -> Self {
        Host {
            nproc: nproc(),
            git_rev: git_rev(Path::new(".git")).unwrap_or_else(|| "unknown".to_string()),
            rustc: env!("SUITE_RUSTC_VERSION").to_string(),
            profile: env!("SUITE_BUILD_PROFILE").to_string(),
        }
    }
}

/// Hardware threads available to this process.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Resolve `HEAD` by reading the repository files directly, so no `git`
/// process is started.
fn git_rev(git_dir: &Path) -> Option<String> {
    let head = fs::read_to_string(git_dir.join("HEAD")).ok()?;
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return Some(head.to_string());
    };
    if let Ok(rev) = fs::read_to_string(git_dir.join(reference)) {
        return Some(rev.trim().to_string());
    }
    let packed = fs::read_to_string(git_dir.join("packed-refs")).ok()?;
    packed.lines().find_map(|line| {
        let (rev, name) = line.split_once(' ')?;
        (name == reference).then(|| rev.to_string())
    })
}

/// Peak resident set size of this process in MiB (`VmHWM`), or `None`
/// where `/proc` is unavailable.
pub fn peak_rss_mb() -> Option<f64> {
    let status = fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}
