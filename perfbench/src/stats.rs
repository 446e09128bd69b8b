//! Sample summaries, host facts, and process memory.

/// The `q`-quantile (0..=1) of `samples` by linear interpolation
/// between closest ranks; `None` for no samples.
pub fn quantile(samples: &[f64], q: f64) -> Option<f64> {
    if samples.is_empty() {
        return None;
    }
    let mut s = samples.to_vec();
    s.sort_by(f64::total_cmp);
    let pos = q * (s.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    Some(s[lo] + (s[hi] - s[lo]) * (pos - lo as f64))
}

pub fn median(samples: &[f64]) -> Option<f64> {
    quantile(samples, 0.5)
}

/// Peak resident set of this process over its lifetime, MiB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

pub fn build_profile() -> &'static str {
    if cfg!(debug_assertions) {
        "debug"
    } else {
        "release"
    }
}

/// FNV-1a 64 as 16 hex digits: the digest `refs.txt` stores.
pub fn digest(bytes: &[u8]) -> String {
    format!("{:016x}", respin_core::persist::fnv1a64(bytes))
}

/// Digest of a run result's canonical JSON.
pub fn result_digest(result: &respin_sim::RunResult) -> String {
    digest(
        serde_json::to_string(result)
            .expect("run results serialise")
            .as_bytes(),
    )
}
