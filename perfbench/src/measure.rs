//! Small measurement helpers: order statistics, process CPU time and
//! peak memory from `/proc`, and the run's scratch directory.

use std::path::PathBuf;
use std::time::Duration;

/// Linear-interpolated quantile `q` (0..=1) of `values`; 0 when empty.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

/// The median of `values`; 0 when empty.
pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// The arithmetic mean of `values`; 0 when empty.
pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

/// Milliseconds in `d`.
pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Microseconds in `d`.
pub fn us(d: Duration) -> f64 {
    d.as_secs_f64() * 1e6
}

/// User plus system CPU time of the whole process so far, threads that
/// already exited included.
pub fn cpu_seconds() -> f64 {
    stat_cpu_seconds("/proc/self/stat")
}

/// User plus system CPU time of the calling thread so far.
pub fn thread_cpu_seconds() -> f64 {
    stat_cpu_seconds("/proc/thread-self/stat")
}

/// Fields 14 and 15 of a `stat` file, in clock ticks of 1/100 s (the
/// Linux default).
fn stat_cpu_seconds(path: &str) -> f64 {
    let stat = std::fs::read_to_string(path).unwrap_or_default();
    // The command name may contain spaces; the fields after its closing
    // parenthesis start at field 3.
    let rest = stat.rsplit_once(')').map_or("", |(_, r)| r);
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let ticks = |i: usize| {
        fields
            .get(i)
            .and_then(|f| f.parse::<f64>().ok())
            .unwrap_or(0.0)
    };
    (ticks(11) + ticks(12)) / 100.0
}

/// The process's peak resident set (`VmHWM`), in MiB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// A fresh scratch directory for this process under the benchmark's own
/// `work/` directory, removed again when dropped.
pub struct WorkDir(PathBuf);

impl WorkDir {
    pub fn new() -> WorkDir {
        let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
            .join("work")
            .join(format!("run-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("create the benchmark's work directory");
        WorkDir(dir)
    }

    pub fn path(&self) -> &std::path::Path {
        &self.0
    }
}

impl Drop for WorkDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
        // Leave no empty `work/` behind either; fails harmlessly while
        // another run still uses it.
        if let Some(parent) = self.0.parent() {
            let _ = std::fs::remove_dir(parent);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate() {
        let v = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(quantile(&v, 0.0), 1.0);
        assert_eq!(quantile(&v, 1.0), 4.0);
        assert_eq!(median(&v), 2.5);
        assert_eq!(mean(&v), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn proc_readings_are_positive() {
        let mut x = 0u64;
        for i in 0..20_000_000u64 {
            x = std::hint::black_box(x.wrapping_add(i));
        }
        assert!(cpu_seconds() > 0.0);
        assert!(thread_cpu_seconds() > 0.0);
        assert!(peak_rss_mb() > 0.0);
    }
}
