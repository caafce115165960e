//! The run environment recorded in `results.json`: numbers from a 2-core
//! sandbox with a page-cache-backed disk and loopback sockets are only
//! comparable with numbers taken the same way.

use std::path::Path;
use std::process::Command;

fn command_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".into())
}

fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|m| m.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into())
}

/// Device and filesystem type of the mount holding `dir`.
fn filesystem_of(dir: &Path) -> String {
    let dir = std::fs::canonicalize(dir).unwrap_or_else(|_| dir.to_path_buf());
    let mounts = std::fs::read_to_string("/proc/mounts").unwrap_or_default();
    mounts
        .lines()
        .filter_map(|l| {
            let mut f = l.split_whitespace();
            Some((f.next()?, f.next()?, f.next()?))
        })
        .filter(|(_, point, _)| dir.starts_with(point))
        .max_by_key(|(_, point, _)| point.len())
        .map(|(device, _, fstype)| format!("{fstype} on {device}"))
        .unwrap_or_else(|| "unknown".into())
}

fn quoted(s: &str) -> String {
    format!("\"{}\"", s.replace('\\', "\\\\").replace('"', "\\\""))
}

/// The environment as the body of a JSON object.
pub fn json(out_dir: &Path) -> String {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let kernel = std::fs::read_to_string("/proc/sys/kernel/osrelease")
        .map_or_else(|_| "unknown".into(), |s| s.trim().to_string());
    format!(
        "\"nproc\": {nproc}, \"cpu\": {}, \"kernel\": {}, \"rustc\": {}, \"commit\": {}, \
         \"fsync_policy\": \"PerBatch(64), the JournalConfig::new default\", \
         \"scratch_filesystem\": {}, \"network\": \"loopback, not a real link\"",
        quoted(&cpu_model()),
        quoted(&kernel),
        quoted(&command_line("rustc", &["-V"])),
        quoted(&command_line("git", &["rev-parse", "HEAD"])),
        quoted(&filesystem_of(out_dir)),
    )
}
