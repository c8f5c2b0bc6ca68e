//! What every workload shares: the tally of timed operations, the timed
//! round loop, repeated set-up, peak memory, and the metric map.

use std::collections::BTreeMap;
use std::time::Instant;

use crate::stats;

/// Metric name → value, as a workload measured it.
pub type Metrics = BTreeMap<&'static str, f64>;

/// Command-line settings of one run.
#[derive(Debug, Clone, Copy)]
pub struct Settings {
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

/// What a workload hands back: its metrics, and counts of what it did.
pub struct Outcome {
    pub metrics: Metrics,
    pub attempted: u64,
    pub failed: u64,
    /// Check failures; the run is correct only when this is empty.
    pub violations: Vec<String>,
    /// Human-readable lines printed before the result (sample counts,
    /// threads, per-pairing figures).
    pub notes: Vec<String>,
}

/// Timed operations of one phase, and the checks they passed or failed.
#[derive(Default)]
pub struct Tally {
    pub compress_raw_bytes: f64,
    pub compress_secs: f64,
    pub decompress_raw_bytes: f64,
    pub decompress_secs: f64,
    /// Seconds per completed operation.
    pub latencies: Vec<f64>,
    pub attempted: u64,
    pub failed: u64,
    pub violations: Vec<String>,
    /// Per-round figures (compress MB/s, decompress MB/s, operations/s,
    /// median operation latency in s), when the phase marks its rounds.
    rounds: Vec<[f64; 4]>,
    /// Cumulative figures and time at the last round mark.
    mark: Option<(Instant, [f64; 5])>,
}

impl Tally {
    fn sums(&self) -> [f64; 5] {
        [
            self.compress_raw_bytes,
            self.compress_secs,
            self.decompress_raw_bytes,
            self.decompress_secs,
            self.latencies.len() as f64,
        ]
    }

    /// Start the clock of the first round.
    pub fn begin(&mut self) {
        self.mark = Some((Instant::now(), self.sums()));
    }

    /// Close a round opened by [`Tally::begin`] or the previous mark,
    /// keeping its rates.
    pub fn end_round(&mut self) {
        let now = Instant::now();
        let sums = self.sums();
        if let Some((at, last)) = self.mark.replace((now, sums)) {
            let d: Vec<f64> = sums.iter().zip(last).map(|(a, b)| a - b).collect();
            let p50 = stats::median(&self.latencies[last[4] as usize..]);
            self.add_round([
                d[0] / 1e6 / d[1],
                d[2] / 1e6 / d[3],
                d[4] / (now - at).as_secs_f64(),
                p50,
            ]);
        }
    }

    /// Keep the figures of one round (or time window) measured elsewhere.
    pub fn add_round(&mut self, figures: [f64; 4]) {
        self.rounds.push(figures);
    }

    pub fn compressed(&mut self, raw_bytes: usize, secs: f64) {
        self.compress_raw_bytes += raw_bytes as f64;
        self.compress_secs += secs;
        self.latencies.push(secs);
    }

    pub fn decompressed(&mut self, raw_bytes: usize, secs: f64) {
        self.decompress_raw_bytes += raw_bytes as f64;
        self.decompress_secs += secs;
        self.latencies.push(secs);
    }

    /// Record a check; keeps the first few failures verbatim.
    pub fn check(&mut self, what: &str, result: Result<(), String>) {
        if let Err(e) = result {
            if self.violations.len() < 8 {
                self.violations.push(format!("{what}: {e}"));
            } else if self.violations.len() == 8 {
                self.violations.push("further violations omitted".into());
            }
        }
    }

    /// An operation returned an error instead of a result. It counts in
    /// `failed`, not against correctness, which speaks of the operations
    /// that did not fail.
    pub fn op_failed(&mut self, what: &str, error: impl std::fmt::Display) {
        self.failed += 1;
        eprintln!("operation failed: {what}: {error}");
    }

    pub fn compress_mbps(&self) -> f64 {
        self.compress_raw_bytes / 1e6 / self.compress_secs
    }

    /// The end-to-end metrics every workload reports from its timed phase:
    /// the median over rounds of each round's figure, so that a round slowed
    /// by a neighbour on the machine does not move the result.
    pub fn end_to_end(&self, metrics: &mut Metrics) {
        let col = |i: usize| {
            let v: Vec<f64> = self
                .rounds
                .iter()
                .map(|r| r[i])
                .filter(|x| x.is_finite())
                .collect();
            stats::median(&v)
        };
        metrics.insert("compress_mbps", col(0));
        metrics.insert("decompress_mbps", col(1));
        metrics.insert("requests_per_s", col(2));
        metrics.insert("latency_p50_ms", col(3) * 1e3);
    }

    /// Rounds marked so far.
    pub fn rounds(&self) -> usize {
        self.rounds.len()
    }

    /// One line listing each round's compress and decompress MB/s.
    pub fn round_rates(&self) -> String {
        self.rounds
            .iter()
            .map(|r| format!("{:.1}/{:.1}", r[0], r[1]))
            .collect::<Vec<_>>()
            .join(" ")
    }
}

/// Run `round` (one whole round of the workload's operations) until
/// `seconds` of wall time have passed, always finishing the round in
/// progress.
pub fn timed_rounds(seconds: f64, mut round: impl FnMut()) {
    let t0 = Instant::now();
    loop {
        round();
        if t0.elapsed().as_secs_f64() >= seconds {
            return;
        }
    }
}

/// Set up `reps` times, timing each; returns the last set-up and every
/// time. Earlier set-ups are dropped outside the clock.
pub fn repeat_setup<S>(reps: usize, mut setup: impl FnMut() -> S) -> (S, Vec<f64>) {
    let mut times = Vec::with_capacity(reps);
    let mut last = None;
    for _ in 0..reps.max(1) {
        drop(last.take());
        let t0 = Instant::now();
        let s = setup();
        times.push(t0.elapsed().as_secs_f64());
        last = Some(s);
    }
    (last.expect("at least one set-up ran"), times)
}

/// One line listing every set-up time of the run.
pub fn setup_note(times: &[f64]) -> String {
    let t: Vec<String> = times.iter().map(|t| format!("{t:.3}")).collect();
    format!("set-up times (s), median reported: {}", t.join(" "))
}

/// Peak resident memory of this process so far, in MB (10^6 bytes), from
/// `VmHWM` in `/proc/self/status`.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(f64::NAN, |kib| kib * 1024.0 / 1e6)
}

/// Threads the rayon shim and the daemon size themselves to.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// A 64-bit mix of `x` (SplitMix64), for deriving input indices from the
/// workload seed.
pub fn mix(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// `n` distinct snapshot indices of one application, derived from the
/// workload seed and drawn far apart, so that the fields they generate
/// vary independently. Callers split them into test and training sets,
/// which are therefore disjoint.
pub fn snapshots(seed: u64, app: u64, n: usize) -> Vec<u64> {
    let mut out: Vec<u64> = Vec::with_capacity(n);
    let mut i = 0u64;
    while out.len() < n {
        let s = mix(seed ^ mix(app ^ mix(i))) % 1_000_000;
        if !out.contains(&s) {
            out.push(s);
        }
        i += 1;
    }
    out
}

/// Bit-for-bit equality of two f32 slices.
pub fn same_bits(a: &[f32], b: &[f32]) -> Result<(), String> {
    if a.len() != b.len() {
        return Err(format!("{} values vs {}", a.len(), b.len()));
    }
    match a
        .iter()
        .zip(b)
        .position(|(x, y)| x.to_bits() != y.to_bits())
    {
        None => Ok(()),
        Some(i) => Err(format!("value {i} differs: {} vs {}", a[i], b[i])),
    }
}
