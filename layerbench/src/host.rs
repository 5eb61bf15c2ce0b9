//! What every result is recorded with: the host's processor counts,
//! the revision under test, and the process's peak memory. Also the
//! environment pin that keeps `ST_*` knobs from changing the program.

use std::ffi::OsString;
use std::path::Path;

/// Names of any `ST_*` environment variables that are set.
/// `RuntimeConfig::from_env` would let them silently change team
/// widths, cache size or the recompute rule, so the benchmark refuses
/// to run with any of them.
pub fn st_knobs_set(vars: impl IntoIterator<Item = (OsString, OsString)>) -> Vec<String> {
    let mut set: Vec<String> = vars
        .into_iter()
        .map(|(k, _)| k.to_string_lossy().into_owned())
        .filter(|k| k.starts_with("ST_"))
        .collect();
    set.sort();
    set
}

/// Processor counts and revision, printed beside every result.
#[derive(Clone, Debug)]
pub struct Host {
    /// Processors online (`sysconf(_SC_NPROCESSORS_ONLN)`).
    pub nproc: usize,
    /// `std::thread::available_parallelism`: what this process may use.
    pub available_parallelism: usize,
    /// Commit of the checkout, or `unknown` outside a git checkout.
    pub git_rev: String,
}

impl Host {
    /// Reads the processor counts and the checkout's revision.
    pub fn detect() -> Self {
        let available_parallelism = std::thread::available_parallelism().map_or(1, |n| n.get());
        Self {
            nproc: online_cpus().unwrap_or(available_parallelism),
            available_parallelism,
            git_rev: git_rev(Path::new(".git")).unwrap_or_else(|| "unknown".to_owned()),
        }
    }
}

extern "C" {
    fn sysconf(name: i32) -> i64;
    fn getrusage(who: i32, usage: *mut RUsage) -> i32;
}

/// `_SC_NPROCESSORS_ONLN` on Linux.
const SC_NPROCESSORS_ONLN: i32 = 84;
/// `RUSAGE_SELF`.
const RUSAGE_SELF: i32 = 0;

/// Linux `struct rusage`: two `timeval`s, then fourteen `long`s of
/// which `ru_maxrss` (KiB) is the first.
#[repr(C)]
struct RUsage {
    times: [i64; 4],
    counters: [i64; 14],
}

fn online_cpus() -> Option<usize> {
    // SAFETY: sysconf takes an integer name and touches no memory of ours.
    let n = unsafe { sysconf(SC_NPROCESSORS_ONLN) };
    usize::try_from(n).ok().filter(|&n| n > 0)
}

/// Peak resident set size of this process so far, in MiB.
pub fn peak_rss_mb() -> f64 {
    let mut usage = RUsage {
        times: [0; 4],
        counters: [0; 14],
    };
    // SAFETY: `usage` is a live, writable struct with the layout of
    // Linux's `struct rusage`, which is all getrusage writes.
    let rc = unsafe { getrusage(RUSAGE_SELF, &mut usage) };
    assert_eq!(rc, 0, "getrusage(RUSAGE_SELF) cannot fail");
    usage.counters[0] as f64 / 1024.0
}

/// The commit `HEAD` names in the git directory `git_dir`, read from
/// its files so no process is started.
fn git_rev(git_dir: &Path) -> Option<String> {
    let head = std::fs::read_to_string(git_dir.join("HEAD")).ok()?;
    let head = head.trim();
    let Some(name) = head.strip_prefix("ref: ") else {
        return Some(head.to_owned());
    };
    if let Ok(rev) = std::fs::read_to_string(git_dir.join(name)) {
        return Some(rev.trim().to_owned());
    }
    let packed = std::fs::read_to_string(git_dir.join("packed-refs")).ok()?;
    packed.lines().find_map(|line| {
        let (rev, r) = line.split_once(' ')?;
        (r == name).then(|| rev.to_owned())
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn only_st_prefixed_variables_are_refused() {
        let vars = [
            ("ST_SERVICE_TEAMS", "4"),
            ("PATH", "/bin"),
            ("CARGO_TARGET_DIR", ".bench_build"),
            ("ST_DYN_RECOMPUTE_FRACTION", "2"),
            ("RUST_ST_X", "1"),
        ]
        .map(|(k, v)| (OsString::from(k), OsString::from(v)));
        assert_eq!(
            st_knobs_set(vars),
            ["ST_DYN_RECOMPUTE_FRACTION", "ST_SERVICE_TEAMS"]
        );
    }

    #[test]
    fn peak_rss_is_positive() {
        assert!(peak_rss_mb() > 0.0);
    }
}
