//! The host stamp every result carries, and the process's peak memory.

use std::path::Path;
use std::process::Command;

use scaledeep_trace::json::Json;

use crate::probe::{fnv, FNV_OFFSET};

/// `nproc`, CPU model, rustc version, git commit (when the checkout is a
/// git repository) and an FNV-1a fingerprint of the measured sources, so
/// a result names the code and machine it came from even without git.
pub fn stamp() -> Json {
    let nproc = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|t| {
            t.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split_once(':'))
                .map(|(_, m)| m.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into());
    let commit = if Path::new(".git").exists() {
        Command::new("git")
            .args(["rev-parse", "HEAD"])
            .output()
            .ok()
            .filter(|o| o.status.success())
            .and_then(|o| String::from_utf8(o.stdout).ok())
            .map(|s| s.trim().to_string())
    } else {
        None
    };
    let mut files = Vec::new();
    for root in ["crates", "hostbench/src", "Cargo.lock"] {
        collect(Path::new(root), &mut files);
    }
    files.sort();
    let h = files.iter().fold(FNV_OFFSET, |h, f| {
        let bytes = std::fs::read(f).unwrap_or_default();
        fnv(h, f.to_string_lossy().bytes().chain(bytes))
    });
    Json::Obj(vec![
        ("nproc".into(), Json::Num(nproc as f64)),
        ("cpu".into(), Json::Str(cpu)),
        ("rustc".into(), Json::Str(env!("HOSTBENCH_RUSTC").into())),
        ("git_commit".into(), commit.map_or(Json::Null, Json::Str)),
        ("source_files".into(), Json::Num(files.len() as f64)),
        ("source_fnv".into(), Json::Str(format!("{h:016x}"))),
    ])
}

fn collect(path: &Path, out: &mut Vec<std::path::PathBuf>) {
    if path.is_dir() {
        if let Ok(entries) = std::fs::read_dir(path) {
            for e in entries.flatten() {
                collect(&e.path(), out);
            }
        }
    } else if path.is_file() {
        out.push(path.to_path_buf());
    }
}

/// Hands the allocator's free memory back to the system (glibc's
/// `malloc_trim`). Called before each slice, so that its peak resident set
/// does not stack on memory that earlier, dropped states left freed but
/// mapped (on serve-mix that drifted from 75 to 86 MiB between runs). A
/// no-op on other C libraries.
pub fn release_free_memory() {
    #[cfg(all(target_os = "linux", target_env = "gnu"))]
    {
        extern "C" {
            fn malloc_trim(pad: usize) -> i32;
        }
        // SAFETY: `malloc_trim` takes no pointers; it only walks the
        // allocator's own free lists, under the allocator's locks.
        unsafe {
            malloc_trim(0);
        }
    }
}

/// The process's peak resident set (`VmHWM`), in MiB.
pub fn peak_rss_mb() -> f64 {
    status_field("VmHWM:").map_or(0.0, |kb| kb / 1024.0)
}

/// The process's live thread count (`Threads` of `/proc/self/status`);
/// `None` where that file does not exist.
pub fn threads() -> Option<f64> {
    status_field("Threads:")
}

fn status_field(key: &str) -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with(key))?;
    line.split_whitespace().nth(1)?.parse().ok()
}
