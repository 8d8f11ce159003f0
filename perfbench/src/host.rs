//! The host fingerprint stamped on every result record, and the
//! process's peak resident memory.

use std::process::Command;

use impulse_obs::Json;

fn command_line(program: &str, args: &[&str]) -> Option<String> {
    let out = Command::new(program).args(args).output().ok()?;
    out.status
        .success()
        .then(|| String::from_utf8_lossy(&out.stdout).trim().to_string())
}

fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|text| {
            text.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split_once(':'))
                .map(|(_, v)| v.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into())
}

/// `nproc`, CPU model, `rustc -V`, and the git commit with its dirty
/// flag (`null` outside a git checkout).
pub fn fingerprint() -> Json {
    let mut host = Json::obj();
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get() as u64);
    host.set("nproc", Json::UInt(nproc));
    host.set("cpu", Json::Str(cpu_model()));
    host.set(
        "rustc",
        command_line("rustc", &["-V"]).map_or(Json::Null, Json::Str),
    );
    let commit = command_line("git", &["rev-parse", "HEAD"]);
    let dirty = commit.as_ref().and_then(|_| {
        command_line("git", &["status", "--porcelain", "--untracked-files=no"])
            .map(|s| !s.is_empty())
    });
    host.set("git_commit", commit.map_or(Json::Null, Json::Str));
    host.set("git_dirty", dirty.map_or(Json::Null, Json::Bool));
    host
}

/// Peak resident set size of this process in MiB (`VmHWM`), if the
/// platform reports it.
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}
