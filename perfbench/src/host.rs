//! Host indicators read from `/proc`: they tell a noisy run from a slow
//! program. All reads are best-effort; a missing file reads as zero.

use std::path::Path;

/// A point-in-time reading of the counters a run is judged against.
pub struct Sample {
    involuntary_switches: u64,
    steal_ticks: u64,
    total_ticks: u64,
}

/// Change between two samples, plus the load average at the end.
pub struct Delta {
    pub involuntary_switches: f64,
    pub steal_share: f64,
    pub load_1m: f64,
}

impl Sample {
    pub fn now() -> Sample {
        let (steal_ticks, total_ticks) = cpu_ticks();
        Sample { involuntary_switches: involuntary_switches(), steal_ticks, total_ticks }
    }
}

pub fn delta(before: &Sample, after: &Sample) -> Delta {
    let total = after.total_ticks.saturating_sub(before.total_ticks);
    let steal = after.steal_ticks.saturating_sub(before.steal_ticks);
    Delta {
        involuntary_switches: after.involuntary_switches.saturating_sub(before.involuntary_switches)
            as f64,
        steal_share: if total == 0 { 0.0 } else { steal as f64 / total as f64 },
        load_1m: std::fs::read_to_string("/proc/loadavg")
            .ok()
            .and_then(|s| s.split_whitespace().next().and_then(|f| f.parse().ok()))
            .unwrap_or(0.0),
    }
}

fn status_field(text: &str, key: &str) -> Option<u64> {
    text.lines()
        .find_map(|line| line.strip_prefix(key))
        .and_then(|rest| rest.trim().trim_end_matches("kB").trim().parse().ok())
}

/// Involuntary context switches summed over every thread of this process.
fn involuntary_switches() -> u64 {
    let Ok(tasks) = std::fs::read_dir("/proc/self/task") else { return 0 };
    tasks
        .filter_map(|task| task.ok())
        .filter_map(|task| std::fs::read_to_string(task.path().join("status")).ok())
        .filter_map(|status| status_field(&status, "nonvoluntary_ctxt_switches:"))
        .sum()
}

/// `(steal, total)` jiffies of the aggregate `cpu` line of `/proc/stat`.
fn cpu_ticks() -> (u64, u64) {
    let Ok(stat) = std::fs::read_to_string("/proc/stat") else { return (0, 0) };
    let Some(line) = stat.lines().find(|l| l.starts_with("cpu ")) else { return (0, 0) };
    let fields: Vec<u64> = line.split_whitespace().skip(1).filter_map(|f| f.parse().ok()).collect();
    // user nice system idle iowait irq softirq steal guest guest_nice; the
    // guest fields are already counted in user and nice.
    let total = fields.iter().take(8).sum();
    (fields.get(7).copied().unwrap_or(0), total)
}

/// Peak resident set (`VmHWM`) of this process so far, in MiB.
pub fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("reading /proc/self/status: {e}"))?;
    let kib = status_field(&status, "VmHWM:").ok_or("no VmHWM in /proc/self/status")?;
    Ok(kib as f64 / 1024.0)
}

/// The checked-out commit, read from `.git` without running git; a source
/// tree without `.git` reads "unknown".
pub fn git_revision() -> String {
    let git = Path::new(env!("CARGO_MANIFEST_DIR")).join("../.git");
    let Ok(head) = std::fs::read_to_string(git.join("HEAD")) else { return "unknown".into() };
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else { return head.to_string() };
    if let Ok(rev) = std::fs::read_to_string(git.join(reference)) {
        return rev.trim().to_string();
    }
    std::fs::read_to_string(git.join("packed-refs"))
        .ok()
        .and_then(|packed| {
            packed.lines().find_map(|line| {
                let (rev, name) = line.split_once(' ')?;
                (name == reference).then(|| rev.to_string())
            })
        })
        .unwrap_or_else(|| "unknown".into())
}
