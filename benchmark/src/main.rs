//! One seeded benchmark for the whole AE-SZ system.
//!
//! ```text
//! cargo run --release --manifest-path benchmark/Cargo.toml -- \
//!     --workload <learned-sweep|classic-archive|serve-mix> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Inputs are generated from `--seed` before any clock starts. Every
//! workload sets up several times (reporting the median), runs whole rounds
//! of its operations for `--seconds`, and checks every output against
//! figures computed here, apart from the program. With `--trace 0` the
//! last line of standard output is a JSON object carrying the end-to-end
//! metrics; with `--trace 1` the run is split into an untraced and a traced
//! half, and the object carries the per-layer metrics instead. See
//! README.md for what each metric means and which one it should move.

#![forbid(unsafe_code)]

mod checks;
mod classic;
mod common;
mod layers;
mod learned;
mod serve;
mod stats;
mod trace;

use common::{Outcome, Settings};

/// End-to-end metrics: name and unit.
const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("compress_mbps", "MB/s"),
    ("decompress_mbps", "MB/s"),
    ("compression_ratio", "x"),
    ("peak_rss_mb", "MB"),
    ("requests_per_s", "req/s"),
    ("latency_p50_ms", "ms"),
];

/// Per-layer metrics of the traced run: name and unit. A layer a workload
/// never calls reads 0.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("nn.encode_ms", "ms"),
    ("nn.decode_ms", "ms"),
    ("nn.encode_gflops", "GFLOP/s"),
    ("nn.decode_gflops", "GFLOP/s"),
    ("nn.train_s", "s"),
    ("nn.train_mbps", "MB/s"),
    ("core.ae_block_frac", "frac"),
    ("core.lorenzo_block_frac", "frac"),
    ("core.mean_block_frac", "frac"),
    ("core.latent_bytes", "B"),
    ("core.codes_bytes", "B"),
    ("core.means_bytes", "B"),
    ("core.unpredictable_bytes", "B"),
    ("core.select_quant_ms", "ms"),
    ("predictors.lorenzo_mvals_s", "Mvals/s"),
    ("predictors.regression_mvals_s", "Mvals/s"),
    ("predictors.interp_mvals_s", "Mvals/s"),
    ("codec.huffman_encode_mbps", "MB/s"),
    ("codec.huffman_decode_mbps", "MB/s"),
    ("codec.zlite_compress_mbps", "MB/s"),
    ("codec.zlite_decompress_mbps", "MB/s"),
    ("baselines.sz2.compress_ms", "ms"),
    ("baselines.sz2.decompress_ms", "ms"),
    ("baselines.zfp.compress_ms", "ms"),
    ("baselines.zfp.decompress_ms", "ms"),
    ("baselines.szinterp.compress_ms", "ms"),
    ("baselines.szinterp.decompress_ms", "ms"),
    ("baselines.szauto.compress_ms", "ms"),
    ("baselines.szauto.decompress_ms", "ms"),
    ("baselines.aeb.compress_ms", "ms"),
    ("baselines.aeb.decompress_ms", "ms"),
    ("metrics.archive_write_ms", "ms"),
    ("metrics.archive_codec_busy_ms", "ms"),
    ("metrics.archive_window_util", "frac"),
    ("metrics.stream_decode_ms", "ms"),
    ("metrics.archive_open_ms", "ms"),
    ("metrics.stream_peak_buffered_kb", "KB"),
    ("metrics.window_peak_raw_mb", "MB"),
    ("registry.fork_ms", "ms"),
    ("registry.model_cache_hits", "count"),
    ("server.service_ms_p50", "ms"),
    ("server.overhead_ms_p50", "ms"),
    ("server.bytes_in", "B"),
    ("server.bytes_out", "B"),
    ("server.latency_p99_ms", "ms"),
    ("trace.compress_coverage", "frac"),
    ("trace.decompress_coverage", "frac"),
    ("trace.overhead_pct", "%"),
];

const USAGE: &str =
    "usage: aesz_system_bench --workload <learned-sweep|classic-archive|serve-mix> \
                     --seed <n> --seconds <s> --trace <0|1>";

fn parse_args() -> Result<(String, Settings), String> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut workload = None;
    let (mut seed, mut seconds, mut trace) = (None, None, None);
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("{flag} {value}: {e}");
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| bad(&e))?),
            "--seconds" => seconds = Some(value.parse::<f64>().map_err(|e| bad(&e))?),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad(&"expected 0 or 1")),
                })
            }
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    let settings = Settings {
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds
            .filter(|s| s.is_finite() && *s >= 0.0)
            .ok_or("--seconds must be a non-negative number")?,
        trace: trace.unwrap_or(false),
    };
    Ok((workload.ok_or("--workload is required")?, settings))
}

/// `{"value": v, "unit": u}` entries for `names`, in order; a name the
/// workload did not measure reads `missing`.
fn metrics_json(
    outcome: &Outcome,
    names: &[(&str, &str)],
    missing: Option<f64>,
) -> Result<String, String> {
    let mut parts = Vec::with_capacity(names.len());
    for &(name, unit) in names {
        let value = match (outcome.metrics.get(name), missing) {
            (Some(&v), _) => v,
            (None, Some(m)) => m,
            (None, None) => return Err(format!("metric {name} was not measured")),
        };
        if !value.is_finite() {
            return Err(format!("metric {name} is {value}"));
        }
        parts.push(format!(
            "\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
        ));
    }
    Ok(parts.join(", "))
}

fn main() {
    let (workload, settings) = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            std::process::exit(2);
        }
    };
    let outcome = match workload.as_str() {
        "learned-sweep" => learned::run(settings),
        "classic-archive" => classic::run(settings),
        "serve-mix" => serve::run(settings),
        other => {
            eprintln!("unknown workload {other}\n{USAGE}");
            std::process::exit(2);
        }
    };
    for note in &outcome.notes {
        println!("# {note}");
    }
    for v in &outcome.violations {
        println!("# CHECK FAILED: {v}");
    }
    let metrics = if settings.trace {
        metrics_json(&outcome, PER_LAYER, Some(0.0))
    } else {
        metrics_json(&outcome, END_TO_END, None)
    };
    let metrics = match metrics {
        Ok(m) => m,
        Err(e) => {
            eprintln!("{e}");
            std::process::exit(1);
        }
    };
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{metrics}}}}}",
        outcome.violations.is_empty(),
        outcome.attempted,
        outcome.failed
    );
}
