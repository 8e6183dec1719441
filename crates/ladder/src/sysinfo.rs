//! What the run ran on: peak memory of this process, core count, compiler
//! and commit. Everything degrades to a placeholder rather than failing —
//! the benchmark also runs in checkouts that are not git repositories.

use crate::json::Json;
use std::process::Command;

/// Peak resident set size of this process (`VmHWM`), in MB; 0 where
/// `/proc` does not exist.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status").ok().and_then(|s| parse_vm_hwm_kb(&s)).unwrap_or(0)
        as f64
        / 1024.0
}

fn parse_vm_hwm_kb(status: &str) -> Option<u64> {
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    line.split_whitespace().nth(1)?.parse().ok()
}

/// Cores available to this process.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

fn first_line_of(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .and_then(|s| s.lines().next().map(str::to_string))
        .unwrap_or_else(|| "unknown".to_string())
}

/// Which external dependencies this build links: `real` (the published
/// `rayon`, `rand`, `crossbeam`, ...) or `stand-in` (the ones under
/// `offline/`, whose `config.toml` sets this variable at build time).
/// Numbers from the two are not comparable.
pub fn deps() -> &'static str {
    option_env!("CIP_LADDER_DEPS").unwrap_or("real")
}

/// The environment block of a `run` document.
pub fn environment() -> Json {
    Json::obj([
        ("deps", Json::from(deps())),
        ("nproc", Json::from(nproc())),
        ("rustc", first_line_of("rustc", &["-V"]).into()),
        ("git_commit", first_line_of("git", &["rev-parse", "HEAD"]).into()),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reads_vm_hwm() {
        let status = "Name:\tx\nVmPeak:\t  999 kB\nVmHWM:\t  123456 kB\nVmRSS:\t 5 kB\n";
        assert_eq!(parse_vm_hwm_kb(status), Some(123_456));
        assert_eq!(parse_vm_hwm_kb("Name:\tx\n"), None);
        if std::path::Path::new("/proc/self/status").exists() {
            assert!(peak_rss_mb() > 1.0);
        }
        assert!(nproc() >= 1);
    }
}
