//! Host fingerprint and process memory, for the run record.

use std::fs;

fn read(path: &str) -> Option<String> {
    fs::read_to_string(path).ok().map(|s| s.trim().to_string())
}

pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

fn cpu_model() -> String {
    read("/proc/cpuinfo")
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|m| m.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".to_string())
}

/// `(L2, last-level)` cache sizes as the OS reports them for cpu0.
fn caches() -> (String, String) {
    let (mut l2, mut llc, mut llc_level) = ("unknown".to_string(), "unknown".to_string(), 0);
    for i in 0..8 {
        let dir = format!("/sys/devices/system/cpu/cpu0/cache/index{i}");
        let (Some(level), Some(kind), Some(size)) = (
            read(&format!("{dir}/level")),
            read(&format!("{dir}/type")),
            read(&format!("{dir}/size")),
        ) else {
            continue;
        };
        let level: u32 = level.parse().unwrap_or(0);
        if kind == "Instruction" {
            continue;
        }
        if level == 2 {
            l2 = size.clone();
        }
        if level > llc_level {
            (llc, llc_level) = (size, level);
        }
    }
    (l2, llc)
}

/// Peak resident set size of this process (`VmHWM`), in MiB.
pub fn peak_rss_mib() -> f64 {
    read("/proc/self/status")
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// One line per fact: CPU, cores, caches, kernel tiers, compiler, revision.
pub fn fingerprint() -> Vec<(&'static str, String)> {
    let (l2, llc) = caches();
    let tiers: Vec<&str> = cake_kernels::available_tiers()
        .iter()
        .map(|t| t.name())
        .collect();
    let env = |k: &str| std::env::var(k).unwrap_or_else(|_| "unknown".to_string());
    vec![
        ("cpu", cpu_model()),
        ("nproc", nproc().to_string()),
        ("l2", l2),
        ("llc", llc),
        ("kernel_tiers", tiers.join(",")),
        ("rustc", env("PERFBENCH_RUSTC")),
        ("git_rev", env("PERFBENCH_GIT_REV")),
        ("source_digest", env("PERFBENCH_SOURCE_DIGEST")),
    ]
}
