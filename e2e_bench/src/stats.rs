//! Sample summaries, process memory, and the state-directory size.

use std::path::Path;
use std::time::{Duration, Instant};

/// Nearest-rank percentile of `xs` (sorted in place), `q` in `[0, 1]`.
pub fn percentile(xs: &mut [f64], q: f64) -> f64 {
    assert!(!xs.is_empty(), "percentile of no samples");
    xs.sort_by(|a, b| a.total_cmp(b));
    let rank = (q * (xs.len() - 1) as f64).round() as usize;
    xs[rank]
}

pub fn median(xs: &mut [f64]) -> f64 {
    percentile(xs, 0.5)
}

/// Wait until `due`: sleep to shortly before it, then spin, so that the
/// sleep's wake-up delay does not count against the system under test.
pub fn wait_until(due: Instant) {
    const SPIN: Duration = Duration::from_micros(200);
    if let Some(wait) = due.checked_duration_since(Instant::now() + SPIN) {
        std::thread::sleep(wait);
    }
    while Instant::now() < due {
        std::hint::spin_loop();
    }
}

pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

pub fn us(d: Duration) -> f64 {
    d.as_secs_f64() * 1e6
}

/// Run `f`, returning its result and wall time.
pub fn timed<R>(f: impl FnOnce() -> R) -> (R, Duration) {
    let t = Instant::now();
    let r = f();
    (r, t.elapsed())
}

/// The process's resident-set high-water mark, MiB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .unwrap_or(f64::NAN)
}

/// Bytes of the regular files directly inside `dir`.
pub fn dir_bytes(dir: &Path) -> u64 {
    std::fs::read_dir(dir)
        .map(|entries| {
            entries
                .flatten()
                .filter_map(|e| e.metadata().ok())
                .filter(|m| m.is_file())
                .map(|m| m.len())
                .sum()
        })
        .unwrap_or(0)
}
