//! Order statistics and the `/proc` readers the end-to-end metrics need.

use std::fs;

/// Median of `values` (mean of the two middle values for an even count).
/// 0 for an empty slice.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// First and third quartile as Python's `statistics.quantiles(v, n=4)`
/// gives them (the exclusive method), so the spread this benchmark prints
/// is the one the acceptance procedure computes. Needs two values.
pub fn quartiles(values: &[f64]) -> Option<(f64, f64)> {
    if values.len() < 2 {
        return None;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    let at = |k: usize| {
        let pos = k * (n + 1);
        let j = (pos / 4).clamp(1, n - 1);
        let delta = pos as f64 / 4.0 - j as f64;
        v[j - 1] + (v[j] - v[j - 1]) * delta
    };
    Some((at(1), at(3)))
}

/// Inter-quartile range as a share of the median (0 when undefined).
pub fn iqr_share(values: &[f64]) -> f64 {
    let m = median(values);
    match quartiles(values) {
        Some((q1, q3)) if m != 0.0 => (q3 - q1) / m.abs(),
        _ => 0.0,
    }
}

/// Nearest-rank percentile of an ascending slice (0 when empty).
pub fn percentile(sorted: &[u64], p: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Kernel clock ticks per second; `USER_HZ` is 100 on every Linux ABI.
const TICKS_PER_S: f64 = 100.0;

/// User + system CPU this process (all threads) has consumed, in ms.
pub fn process_cpu_ms() -> f64 {
    let stat = fs::read_to_string("/proc/self/stat").unwrap_or_default();
    // Fields after the parenthesised command name: state is the first,
    // utime and stime the 12th and 13th.
    let tail = stat.rsplit_once(')').map(|(_, t)| t).unwrap_or("");
    let fields: Vec<&str> = tail.split_whitespace().collect();
    let tick = |i: usize| {
        fields
            .get(i)
            .and_then(|f| f.parse::<f64>().ok())
            .unwrap_or(0.0)
    };
    (tick(11) + tick(12)) * 1000.0 / TICKS_PER_S
}

/// `(steal, total)` CPU time of the whole guest in ms, from `/proc/stat`.
pub fn host_cpu_ms() -> (f64, f64) {
    let stat = fs::read_to_string("/proc/stat").unwrap_or_default();
    let cpu: Vec<f64> = stat
        .lines()
        .next()
        .unwrap_or("")
        .split_whitespace()
        .skip(1)
        .filter_map(|f| f.parse().ok())
        .collect();
    // user nice system idle iowait irq softirq steal [guest guest_nice];
    // the guest columns are already inside user/nice.
    let total: f64 = cpu.iter().take(8).sum();
    let to_ms = 1000.0 / TICKS_PER_S;
    (cpu.get(7).copied().unwrap_or(0.0) * to_ms, total * to_ms)
}

/// Peak resident set of this process in MiB (`VmHWM`).
pub fn peak_rss_mib() -> f64 {
    let status = fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.split_whitespace().next())
        .and_then(|kb| kb.parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Cores the scheduler will give this process.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Kernel release string.
pub fn kernel() -> String {
    fs::read_to_string("/proc/sys/kernel/osrelease")
        .map(|s| s.trim().to_string())
        .unwrap_or_else(|_| "unknown".into())
}

/// The commit checked out in the repository this binary was built from
/// (two levels above the package), read from `.git` without spawning git;
/// `unknown` in an exported tree.
pub fn git_commit() -> String {
    let git = concat!(env!("CARGO_MANIFEST_DIR"), "/../../.git");
    let head = match fs::read_to_string(format!("{git}/HEAD")) {
        Ok(h) => h.trim().to_string(),
        Err(_) => return "unknown".into(),
    };
    let Some(name) = head.strip_prefix("ref: ") else {
        return head;
    };
    if let Ok(id) = fs::read_to_string(format!("{git}/{name}")) {
        return id.trim().to_string();
    }
    fs::read_to_string(format!("{git}/packed-refs"))
        .ok()
        .and_then(|refs| {
            refs.lines()
                .find_map(|l| l.strip_suffix(name).map(|id| id.trim().to_string()))
        })
        .unwrap_or_else(|| "unknown".into())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), Some((2.75, 8.25)));
        assert_eq!(median(&v), 5.5);
        // statistics.quantiles([3, 1], n=4) == [0.5, 2.0, 3.5]
        assert_eq!(quartiles(&[3.0, 1.0]), Some((0.5, 3.5)));
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let v: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile(&v, 50.0), 50);
        assert_eq!(percentile(&v, 95.0), 95);
        assert_eq!(percentile(&v, 100.0), 100);
        assert_eq!(percentile(&[], 50.0), 0);
    }

    #[test]
    fn proc_readers_return_live_values() {
        assert!(peak_rss_mib() > 0.0);
        assert!(host_cpu_ms().1 > 0.0);
        assert!(process_cpu_ms() >= 0.0);
    }
}
