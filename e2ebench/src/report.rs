//! Percentiles, metric records and the host fingerprint.

use std::process::{Command, Stdio};

/// Nearest-rank percentile of an ascending slice; 0 when empty.
fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// The highest percentile of this ladder with at least ten samples beyond
/// it (the median when there are fewer than twenty samples).
fn tail_percentile(n: usize) -> f64 {
    [99.9, 99.0, 95.0, 90.0, 75.0]
        .into_iter()
        .find(|p| n as f64 * (1.0 - p / 100.0) >= 10.0 - 1e-9)
        .unwrap_or(50.0)
}

/// Median and tail of a sample, with the tail's percentile.
pub fn median_tail(values: &[f64]) -> (f64, f64, f64) {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let p = tail_percentile(v.len());
    (percentile(&v, 50.0), percentile(&v, p), p)
}

/// The most windows a single closed-loop phase is split into.
pub const WINDOWS: usize = 24;
/// The fewest samples a window holds; with fewer, a window's figures are
/// too lumpy to help, and figures are taken over all samples.
pub const WINDOW_MIN: usize = 40;

/// Splits `0..n` into up to [`WINDOWS`] consecutive windows of at least
/// [`WINDOW_MIN`] samples (one window when `n` is smaller).
pub fn split(n: usize) -> Vec<(usize, usize)> {
    let k = (n / WINDOW_MIN).clamp(1, WINDOWS);
    (0..k).map(|w| (w * n / k, (w + 1) * n / k)).collect()
}

/// The middle of a small set of window figures (the mean of the two
/// middle values for an even count).
pub fn mid(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// Latency figures over windows of one phase: median, tail and the
/// tail's percentile. When every window has [`WINDOW_MIN`] samples
/// they are the middle of the window medians and of the window tails,
/// otherwise the median and tail of all samples (the flag says which). A
/// stall on a shared host then moves one window's figures, not the
/// result.
pub fn window_latency(windows: &[Vec<f64>]) -> (f64, f64, f64, bool) {
    if windows.len() > 1 && windows.iter().all(|w| w.len() >= WINDOW_MIN) {
        let p50 = mid(&windows.iter().map(|w| median(w)).collect::<Vec<_>>());
        let mut p = 50.0;
        let tails: Vec<f64> = windows
            .iter()
            .map(|w| {
                let (_, tail, pw) = median_tail(w);
                p = pw;
                tail
            })
            .collect();
        (p50, mid(&tails), p, true)
    } else {
        let (p50, tail, p) = median_tail(&windows.concat());
        (p50, tail, p, false)
    }
}

/// Median of a sample.
pub fn median(values: &[f64]) -> f64 {
    median_tail(values).0
}

/// One reported metric.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
    /// Samples behind the value.
    pub samples: usize,
    /// Free text shown next to the value (e.g. the tail percentile).
    pub note: String,
}

impl Metric {
    pub fn new(name: &'static str, value: f64, unit: &'static str, samples: usize) -> Metric {
        Metric {
            name,
            value,
            unit,
            samples,
            note: String::new(),
        }
    }

    pub fn note(mut self, note: impl Into<String>) -> Metric {
        self.note = note.into();
        self
    }
}

/// A finite JSON number with all its digits.
fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "0.0".to_string()
    }
}

/// The result line: the last line the benchmark prints.
pub fn result_json(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name,
                json_number(m.value),
                m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}

/// Peak resident memory of this process (MiB), from `VmHWM`.
pub fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

fn command_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .stdin(Stdio::null())
        .stderr(Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map_or_else(|| "unknown".to_string(), |s| s.trim().to_string())
}

/// `nproc`, the CPU model, `rustc -V` and the git revision (`unknown`
/// outside a git checkout), as one line.
pub fn host_fingerprint() -> String {
    let nproc = std::thread::available_parallelism().map_or(0, usize::from);
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split_once(':'))
                .map(|(_, m)| m.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".to_string());
    format!(
        "host: nproc={nproc} cpu=\"{cpu}\" rustc=\"{}\" git_rev={}",
        command_line("rustc", &["-V"]),
        command_line("git", &["rev-parse", "HEAD"])
    )
}
