//! The benchmark's one percentile helper, and the process counters it
//! reads from `/proc`.

use std::fmt;

/// Samples that must lie beyond a percentile before it is reported: a
/// tail estimate resting on fewer points is noise.
pub const MIN_BEYOND: usize = 10;

/// A sorted sample of one quantity.
#[derive(Clone, Debug, Default)]
pub struct Sample {
    sorted: Vec<f64>,
}

impl Sample {
    /// Sorts `values` (NaN-free; `+∞` is allowed and sorts last).
    pub fn new(mut values: Vec<f64>) -> Self {
        values.sort_by(f64::total_cmp);
        Self { sorted: values }
    }

    /// The values, sorted.
    pub fn into_vec(self) -> Vec<f64> {
        self.sorted
    }

    pub fn len(&self) -> usize {
        self.sorted.len()
    }

    /// Nearest-rank percentile: the smallest value with at least
    /// `q` of the sample at or below it. `None` when fewer than
    /// [`MIN_BEYOND`] samples lie beyond that rank.
    pub fn pct(&self, q: f64) -> Option<f64> {
        let n = self.sorted.len();
        if n == 0 {
            return None;
        }
        let rank = ((q * n as f64).ceil() as usize).clamp(1, n);
        if n - rank < MIN_BEYOND {
            return None;
        }
        Some(self.sorted[rank - 1])
    }

    /// The percentile together with its sample count, for printing.
    pub fn quantile(&self, q: f64) -> Quantile {
        Quantile {
            q,
            value: self.pct(q),
            n: self.len(),
        }
    }

    pub fn max(&self) -> Option<f64> {
        self.sorted.last().copied()
    }
}

/// A percentile as printed: value (if reportable) and sample count.
#[derive(Clone, Copy, Debug)]
pub struct Quantile {
    pub q: f64,
    pub value: Option<f64>,
    pub n: usize,
}

impl Quantile {
    /// The value for the JSON result: `0` when the sample is too small
    /// to report this percentile (the printed line says so).
    pub fn or_zero(&self) -> f64 {
        self.value.unwrap_or(0.0)
    }
}

impl fmt::Display for Quantile {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let p = self.q * 100.0;
        match self.value {
            Some(v) => write!(f, "p{p} = {v:.3} (n={})", self.n),
            None => write!(
                f,
                "p{p} not reported (n={}: fewer than {MIN_BEYOND} samples beyond it)",
                self.n
            ),
        }
    }
}

fn status_field(text: &str, key: &str) -> Option<u64> {
    text.lines()
        .find_map(|l| l.strip_prefix(key))
        .and_then(|rest| rest.split_whitespace().next())
        .and_then(|v| v.parse().ok())
}

fn status_kib(key: &str) -> std::io::Result<u64> {
    let text = std::fs::read_to_string("/proc/self/status")?;
    status_field(&text, key)
        .ok_or_else(|| std::io::Error::new(std::io::ErrorKind::InvalidData, "no such line"))
}

/// Peak resident set size of this process (`VmHWM`), in KiB.
pub fn peak_rss_kib() -> u64 {
    status_kib("VmHWM:").unwrap_or(0)
}

/// Resident set size of this process (`VmRSS`), in KiB.
pub fn rss_kib() -> u64 {
    status_kib("VmRSS:").unwrap_or(0)
}

extern "C" {
    /// glibc: returns the allocator's free pages to the system.
    fn malloc_trim(pad: usize) -> i32;
}

/// Resets this process's peak resident set size to its current one
/// (writing `5` to `/proc/self/clear_refs`) and returns that size in
/// KiB, so a later [`peak_rss_kib`] covers only what came after. Free
/// heap pages are first handed back to the system: memory allocated
/// after the reset then shows as growth even where it reuses what was
/// freed before it.
pub fn reset_peak_rss() -> std::io::Result<u64> {
    // SAFETY: `malloc_trim` only releases pages the allocator holds
    // free; it takes no pointers and is safe to call at any time.
    unsafe {
        malloc_trim(0);
    }
    std::fs::write("/proc/self/clear_refs", "5")?;
    status_kib("VmRSS:")
}

/// CPU time (µs, from the scheduler's nanosecond count) and context
/// switches of the task whose `/proc` directory is `dir`.
fn task_usage(dir: &std::path::Path) -> (u64, u64) {
    let read = |f: &str| std::fs::read_to_string(dir.join(f)).unwrap_or_default();
    let cpu_ns = read("schedstat")
        .split_whitespace()
        .next()
        .and_then(|v| v.parse::<u64>().ok())
        .unwrap_or(0);
    let status = read("status");
    let switches = status_field(&status, "voluntary_ctxt_switches:").unwrap_or(0)
        + status_field(&status, "nonvoluntary_ctxt_switches:").unwrap_or(0);
    (cpu_ns / 1000, switches)
}

/// CPU time (µs) and context switches, summed over this process's
/// threads whose name starts with `prefix`.
pub fn threads_usage(prefix: &str) -> (u64, u64) {
    let Ok(tasks) = std::fs::read_dir("/proc/self/task") else {
        return (0, 0);
    };
    tasks
        .flatten()
        .map(|t| t.path())
        .filter(|dir| {
            std::fs::read_to_string(dir.join("comm")).is_ok_and(|c| c.starts_with(prefix))
        })
        .map(|dir| task_usage(&dir))
        .fold((0, 0), |(c, s), (dc, ds)| (c + dc, s + ds))
}

/// CPU time (µs) and context switches of the calling thread.
pub fn this_thread_usage() -> (u64, u64) {
    task_usage(std::path::Path::new("/proc/thread-self"))
}

/// Pins every thread of this process whose name starts with `prefix`
/// to `cpu`, with the `taskset` tool. Returns how many were pinned.
pub fn pin_threads(prefix: &str, cpu: usize) -> usize {
    let Ok(tasks) = std::fs::read_dir("/proc/self/task") else {
        return 0;
    };
    tasks
        .flatten()
        .filter(|t| {
            std::fs::read_to_string(t.path().join("comm")).is_ok_and(|c| c.starts_with(prefix))
        })
        .filter(|t| pin_thread(&t.file_name().to_string_lossy(), cpu))
        .count()
}

/// Pins thread `tid` of this process to `cpu` with the `taskset` tool.
pub fn pin_thread(tid: &str, cpu: usize) -> bool {
    std::process::Command::new("taskset")
        .args(["-cp", &cpu.to_string(), tid])
        .output()
        .is_ok_and(|o| o.status.success())
}

/// The file system and device under `path`, from the longest matching
/// mount point (so a result can say which disk its fsyncs hit).
pub fn mount_of(path: &std::path::Path) -> String {
    let path = std::fs::canonicalize(path).unwrap_or_else(|_| path.to_path_buf());
    let mounts = std::fs::read_to_string("/proc/self/mounts").unwrap_or_default();
    mounts
        .lines()
        .filter_map(|l| {
            let f: Vec<&str> = l.split_whitespace().collect();
            (f.len() >= 3 && path.starts_with(f[1]))
                .then(|| (f[1].len(), format!("{} {}", f[2], f[0])))
        })
        .max_by_key(|(len, _)| *len)
        .map_or_else(|| "unknown".to_string(), |(_, m)| m)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_needs_ten_samples_beyond() {
        let s = Sample::new((1..=100).map(f64::from).collect());
        assert_eq!(s.pct(0.5), Some(50.0));
        assert_eq!(s.pct(0.9), Some(90.0));
        // p99 of 100 samples has one sample beyond it: not reported.
        assert_eq!(s.pct(0.99), None);
        let s = Sample::new((1..=1000).map(f64::from).collect());
        assert_eq!(s.pct(0.99), Some(990.0));
        assert_eq!(Sample::new(vec![]).pct(0.5), None);
    }

    #[test]
    fn peak_rss_counts_only_what_comes_after_the_reset() {
        let before = vec![1u8; 16 << 20];
        drop(before);
        let base = reset_peak_rss().expect("clear_refs is writable");
        assert!(
            peak_rss_kib() < base + (8 << 10),
            "the 16 MiB freed before the reset"
        );
        let after = vec![1u8; 32 << 20];
        std::hint::black_box(&after);
        let gained = peak_rss_kib() - base;
        assert!(gained >= 30 << 10, "gained {gained} KiB for 32 MiB");
    }

    #[test]
    fn infinity_sorts_last() {
        let mut v: Vec<f64> = (0..30).map(f64::from).collect();
        v.push(f64::INFINITY);
        v.insert(0, f64::INFINITY);
        let s = Sample::new(v);
        assert_eq!(s.max(), Some(f64::INFINITY));
        assert_eq!(s.pct(0.5), Some(15.0));
    }
}
