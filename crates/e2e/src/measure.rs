//! Host measurements: the wall clock, sample statistics, and this
//! process's memory and CPU counters from `/proc`.

use std::time::Instant;

/// The benchmark's single wall-clock read.
#[allow(clippy::disallowed_methods)]
pub fn now() -> Instant {
    // lint:allow(no-wall-clock): host time per executor call is the quantity this benchmark reports; no simulated behaviour depends on it.
    Instant::now()
}

/// Runs `f` and returns its result with the host seconds it took.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let start = now();
    let out = f();
    (out, start.elapsed().as_secs_f64())
}

/// Median, quartiles and range of a set of samples.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Stats {
    pub median: f64,
    pub q1: f64,
    pub q3: f64,
    pub min: f64,
    pub max: f64,
    pub n: usize,
}

impl Stats {
    /// Statistics of `samples` (must be non-empty). Quartiles follow
    /// Python's `statistics.quantiles(values, n=4)` (exclusive method),
    /// the rule the acceptance spread is defined with.
    pub fn of(samples: &[f64]) -> Stats {
        assert!(!samples.is_empty(), "statistics need at least one sample");
        let mut sorted = samples.to_vec();
        sorted.sort_by(f64::total_cmp);
        let n = sorted.len();
        let quantile = |i: usize| -> f64 {
            if n == 1 {
                return sorted[0];
            }
            let m = n + 1;
            let j = (i * m / 4).clamp(1, n - 1);
            let delta = (i * m) as f64 - (j * 4) as f64;
            (sorted[j - 1] * (4.0 - delta) + sorted[j] * delta) / 4.0
        };
        Stats {
            median: quantile(2),
            q1: quantile(1),
            q3: quantile(3),
            min: sorted[0],
            max: sorted[n - 1],
            n,
        }
    }

    /// A statistic that repeats exactly (a simulated count): no spread.
    pub fn exact(value: f64) -> Stats {
        Stats {
            median: value,
            q1: value,
            q3: value,
            min: value,
            max: value,
            n: 1,
        }
    }
}

/// Peak resident set size of this process in MB (`VmHWM`).
pub fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("cannot read /proc/self/status: {e}"))?;
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.trim().strip_suffix("kB"))
        .and_then(|kb| kb.trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| "no VmHWM line in /proc/self/status".to_owned())
}

/// CPU seconds (user + system, all threads) this process has consumed.
///
/// `/proc/self/stat` counts in clock ticks; Linux fixes `USER_HZ` at 100
/// for every architecture, and `sysconf` is not reachable without
/// `unsafe` or a libc binding.
pub fn cpu_seconds() -> Result<f64, String> {
    const USER_HZ: f64 = 100.0;
    let stat = std::fs::read_to_string("/proc/self/stat")
        .map_err(|e| format!("cannot read /proc/self/stat: {e}"))?;
    // The command name (field 2) may contain spaces; fields are counted
    // from the closing parenthesis.
    let after_comm = stat
        .rsplit_once(')')
        .map(|(_, rest)| rest)
        .ok_or("malformed /proc/self/stat")?;
    let fields: Vec<&str> = after_comm.split_whitespace().collect();
    // after_comm starts at field 3 (state); utime and stime are 14, 15.
    let ticks = |field: usize| -> Result<f64, String> {
        fields
            .get(field - 3)
            .and_then(|s| s.parse::<f64>().ok())
            .ok_or_else(|| format!("/proc/self/stat has no field {field}"))
    };
    Ok((ticks(14)? + ticks(15)?) / USER_HZ)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        let s = Stats::of(&ten);
        assert_eq!((s.q1, s.median, s.q3), (2.75, 5.5, 8.25));
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        let s = Stats::of(&[3.0, 1.0, 2.0]);
        assert_eq!((s.q1, s.median, s.q3), (1.0, 2.0, 3.0));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        let s = Stats::of(&[1.0, 2.0]);
        assert_eq!((s.q1, s.median, s.q3), (0.75, 1.5, 2.25));
        assert_eq!((s.min, s.max, s.n), (1.0, 2.0, 2));
    }

    #[test]
    fn proc_counters_are_readable() {
        assert!(peak_rss_mb().unwrap() > 0.0);
        assert!(cpu_seconds().unwrap() >= 0.0);
    }
}
