//! The environment record printed with every run: core count, cgroup CPU
//! quota, CPU model, compiler, and the filesystem behind the checkpoint
//! directory. Throughput figures only compare across runs with the same
//! record.

use std::path::Path;

pub fn record(work: &Path) -> Vec<(&'static str, String)> {
    let nproc = std::thread::available_parallelism()
        .map(|n| n.get().to_string())
        .unwrap_or_else(|_| "unknown".to_string());
    let quota = std::fs::read_to_string("/sys/fs/cgroup/cpu.max")
        .map(|s| s.trim().to_string())
        .unwrap_or_else(|_| "none (no cpu.max)".to_string());
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|m| m.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".to_string());
    let rustc =
        std::process::Command::new(std::env::var("RUSTC").unwrap_or_else(|_| "rustc".into()))
            .arg("--version")
            .output()
            .ok()
            .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
            .unwrap_or_else(|| "unknown".to_string());
    vec![
        ("nproc", nproc),
        ("cgroup_cpu_max", quota),
        ("cpu_model", cpu),
        ("rustc", rustc),
        ("checkpoint_fs", filesystem(work)),
        (
            "checkpoint_fsync",
            "none: the workspace never fsyncs shard files or the manifest, so \
             making checkpoints durable is expected to slow sharded_longitudinal"
                .to_string(),
        ),
    ]
}

/// The mount (device, type) holding `path`: the longest matching mount
/// point in /proc/mounts.
fn filesystem(path: &Path) -> String {
    // The directory may not exist between repetitions: use its nearest
    // existing ancestor.
    let Some(abs) = path.ancestors().find_map(|p| {
        std::fs::canonicalize(if p.as_os_str().is_empty() {
            Path::new(".")
        } else {
            p
        })
        .ok()
    }) else {
        return "unknown".to_string();
    };
    let mounts = std::fs::read_to_string("/proc/mounts").unwrap_or_default();
    mounts
        .lines()
        .filter_map(|l| {
            let f: Vec<&str> = l.split_whitespace().collect();
            (f.len() >= 3 && abs.starts_with(f[1]))
                .then(|| (f[1].len(), format!("{} on {} ({})", f[2], f[0], f[1])))
        })
        .max_by_key(|(len, _)| *len)
        .map(|(_, s)| s)
        .unwrap_or_else(|| "unknown".to_string())
}
