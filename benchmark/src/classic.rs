//! `classic-archive`: SZ2, ZFP, SZinterp and SZauto on a 3D Nyx and a 2D
//! CESM-FREQSH field, written into chunked AESA archives and read back
//! whole, streamed in fixed-size packets, and by single random chunks. No
//! NN code runs here.

use std::time::Instant;

use aesz_repro::archive::{self, ArchiveOptions, ArchiveReader};
use aesz_repro::datagen::Application;
use aesz_repro::stream::{StreamFieldDecoder, StreamOutput};
use aesz_repro::{CodecId, Dims, ErrorBound, Field, Registry};

use crate::checks;
use crate::common::{self, Metrics, Outcome, Settings, Tally};
use crate::layers;
use crate::stats;
use crate::trace::{Op, SpanLog, Timed};

const CODECS: [CodecId; 4] = [
    CodecId::Sz2,
    CodecId::Zfp,
    CodecId::SzInterp,
    CodecId::SzAuto,
];
const BOUND: f64 = 1e-3;
/// Chunk reads per (codec, field) pairing per round.
const RANDOM_READS: usize = 2;
/// Packet size of the streamed decode, as a pipe would deliver it.
const PACKET: usize = 16 * 1024;
/// Archive writer and reader window, in chunks (the writer's default).
const WINDOW: usize = 8;
const SETUP_REPS: usize = 5;

struct FieldCase {
    name: String,
    field: Field,
    chunk: usize,
    abs_bound: f64,
    /// Chunk indices read at random, drawn from the seed.
    reads: Vec<usize>,
}

/// Test snapshots per application.
const SNAPSHOTS: usize = 3;

fn inputs(seed: u64) -> Vec<FieldCase> {
    let cases = |name, app: Application, dims: Dims, chunk: usize| {
        common::snapshots(seed, app as u64, SNAPSHOTS)
            .into_iter()
            .map(move |snap| {
                let field = app.generate(dims, snap);
                let chunks = checks::block_grid(dims, chunk);
                let reads = (0..RANDOM_READS)
                    .map(|i| (common::mix(seed ^ snap ^ i as u64) % chunks as u64) as usize)
                    .collect();
                FieldCase {
                    name: format!("{name}#{snap}"),
                    abs_bound: checks::abs_bound(&field, BOUND),
                    field,
                    chunk,
                    reads,
                }
            })
    };
    cases(
        "nyx-baryon",
        Application::NyxBaryonDensity,
        Dims::d3(64, 64, 32),
        32,
    )
    .chain(cases(
        "cesm-freqsh",
        Application::CesmFreqsh,
        Dims::d2(256, 512),
        128,
    ))
    .collect()
}

/// A registry holding the four codecs, bare or behind timing wrappers.
fn registry(log: Option<&SpanLog>) -> Registry {
    let defaults = Registry::with_defaults();
    let mut registry = Registry::empty();
    for id in CODECS {
        let codec = defaults.fork(id).expect("every classic codec is a default");
        match log {
            Some(log) => registry.register(Box::new(Timed::new(codec, log.clone()))),
            None => registry.register(codec),
        }
    }
    registry
}

/// Per-layer counters the archive and stream code already expose.
#[derive(Default)]
struct Counters {
    write_s: Vec<f64>,
    stream_s: Vec<f64>,
    peak_buffered: usize,
    peak_window_raw: usize,
    ratios: Vec<f64>,
}

/// Decode `bytes` by feeding it to a [`StreamFieldDecoder`] in `PACKET`-byte
/// pieces, placing each chunk as it arrives. Returns the field and the
/// parser's peak buffered bytes.
fn stream_decode(registry: &Registry, bytes: &[u8]) -> Result<(Field, usize), String> {
    let mut decoder = StreamFieldDecoder::new(registry);
    let mut out: Option<Field> = None;
    let place = |o: StreamOutput, out: &mut Option<Field>| match o {
        StreamOutput::Header(h) => *out = Some(Field::zeros(h.dims)),
        StreamOutput::Chunk(spec, chunk) => {
            if let Some(f) = out.as_mut() {
                f.write_block_valid(&spec, chunk.as_slice());
            }
        }
        StreamOutput::Field(f) => *out = Some(f),
    };
    for packet in bytes.chunks(PACKET) {
        decoder.feed(packet);
        while let Some(o) = decoder.poll().map_err(|e| e.to_string())? {
            place(o, &mut out);
        }
    }
    decoder.finish();
    while let Some(o) = decoder.poll().map_err(|e| e.to_string())? {
        place(o, &mut out);
    }
    let field = out.ok_or("the stream held no field")?;
    Ok((field, decoder.peak_buffered()))
}

/// One whole round: every codec on every field, written, then read whole,
/// streamed, and by random chunks.
fn round(registry: &Registry, cases: &[FieldCase], tally: &mut Tally, c: &mut Counters) {
    let first = c.ratios.is_empty();
    for case in cases {
        let field = &case.field;
        let raw = field.len() * 4;
        let opts = ArchiveOptions::new().chunk(case.chunk).window(WINDOW);
        for id in CODECS {
            let what = format!("{} {}", id.name(), case.name);
            tally.attempted += 3 + case.reads.len() as u64;
            let t0 = Instant::now();
            let (bytes, stats) =
                match archive::compress_field(registry, field, ErrorBound::rel(BOUND), &opts, id) {
                    Ok(r) => r,
                    Err(e) => {
                        // The reads of this archive cannot run: they fail too.
                        tally.op_failed(&format!("{what} archive write"), e);
                        tally.failed += 2 + case.reads.len() as u64;
                        continue;
                    }
                };
            let ws = t0.elapsed().as_secs_f64();
            tally.compressed(raw, ws);
            c.write_s.push(ws);
            c.peak_window_raw = c.peak_window_raw.max(stats.peak_window_raw_bytes);
            if first {
                c.ratios.push(raw as f64 / bytes.len() as f64);
            }

            let t0 = Instant::now();
            let full = archive::decompress(registry, &bytes, WINDOW);
            let ds = t0.elapsed().as_secs_f64();
            let full = match full {
                Ok((f, _)) => {
                    tally.decompressed(raw, ds);
                    f
                }
                Err(e) => {
                    tally.op_failed(&format!("{what} archive decode"), e);
                    tally.failed += 1 + case.reads.len() as u64;
                    continue;
                }
            };
            tally.check(
                &format!("{what} archive bound"),
                checks::within_bound(field.as_slice(), full.as_slice(), case.abs_bound),
            );

            let t0 = Instant::now();
            let streamed = stream_decode(registry, &bytes);
            let ss = t0.elapsed().as_secs_f64();
            match streamed {
                Ok((f, peak)) => {
                    tally.decompressed(raw, ss);
                    c.stream_s.push(ss);
                    c.peak_buffered = c.peak_buffered.max(peak);
                    tally.check(
                        &format!("{what} streamed = buffered"),
                        common::same_bits(f.as_slice(), full.as_slice()),
                    );
                }
                Err(e) => tally.op_failed(&format!("{what} streamed decode"), e),
            }

            for &index in &case.reads {
                let t0 = Instant::now();
                let got = archive::decompress_chunk(registry, &bytes, index);
                let rs = t0.elapsed().as_secs_f64();
                match got {
                    Ok((spec, chunk)) => {
                        tally.decompressed(chunk.len() * 4, rs);
                        tally.check(
                            &format!("{what} chunk {index} = region of the full decode"),
                            common::same_bits(chunk.as_slice(), &full.read_block_valid(&spec)),
                        );
                    }
                    Err(e) => tally.op_failed(&format!("{what} chunk {index}"), e),
                }
            }
        }
    }
}

pub fn run(settings: Settings) -> Outcome {
    let cases = inputs(settings.seed);
    let warm = |registry: &Registry| {
        let mut t = Tally::default();
        round(registry, &cases, &mut t, &mut Counters::default());
    };
    let (bare, setup_times) = common::repeat_setup(SETUP_REPS, || {
        let r = registry(None);
        warm(&r);
        r
    });
    let mut metrics = Metrics::new();
    metrics.insert("setup_s", stats::median(&setup_times));
    let mut notes = vec![
        format!(
            "threads: nproc {}, one process; archive windows of {WINDOW} chunks fan out over the rayon shim (up to nproc threads)",
            common::nproc()
        ),
        common::setup_note(&setup_times),
    ];

    let mut tally = Tally::default();
    let mut counters = Counters::default();
    let log = SpanLog::default();
    let (registry, phase_s, untraced) = if settings.trace {
        let mut bare_tally = Tally::default();
        common::timed_rounds(settings.seconds / 2.0, || {
            round(&bare, &cases, &mut bare_tally, &mut Counters::default())
        });
        let traced = registry(Some(&log));
        warm(&traced);
        log.drain();
        (traced, settings.seconds / 2.0, Some(bare_tally))
    } else {
        (bare, settings.seconds, None)
    };
    tally.begin();
    common::timed_rounds(phase_s, || {
        round(&registry, &cases, &mut tally, &mut counters);
        tally.end_round();
    });
    metrics.insert("peak_rss_mb", common::peak_rss_mb());
    tally.end_to_end(&mut metrics);
    metrics.insert("compression_ratio", stats::geomean(&counters.ratios));
    notes.push(format!(
        "operations: {} attempted, {} failed in {} rounds (rates are per-round medians); latency p50 over {} samples (p99 needs {})",
        tally.attempted,
        tally.failed,
        tally.rounds(),
        tally.latencies.len(),
        stats::samples_needed(0.99)
    ));
    notes.push(format!(
        "per-round compress/decompress MB/s: {}",
        tally.round_rates()
    ));
    let labels = cases.iter().flat_map(|c| {
        CODECS
            .iter()
            .map(move |id| format!("{} {}", id.name(), c.name))
    });
    for (label, ratio) in labels.zip(&counters.ratios) {
        notes.push(format!("pairing {label}: ratio {ratio:.3}"));
    }

    if let Some(bare_tally) = untraced {
        trace_layers(
            &registry,
            &cases,
            &log,
            &counters,
            tally.decompress_secs,
            &mut metrics,
        );
        metrics.insert(
            "trace.overhead_pct",
            100.0 * (bare_tally.compress_mbps() / tally.compress_mbps() - 1.0),
        );
        tally.violations.extend(bare_tally.violations);
        tally.attempted += bare_tally.attempted;
        tally.failed += bare_tally.failed;
    }
    Outcome {
        metrics,
        attempted: tally.attempted,
        failed: tally.failed,
        violations: tally.violations,
        notes,
    }
}

/// Per-layer figures of the traced phase. `decode_s` is the time the phase
/// spent in decode operations of every kind.
fn trace_layers(
    registry: &Registry,
    cases: &[FieldCase],
    log: &SpanLog,
    c: &Counters,
    decode_s: f64,
    metrics: &mut Metrics,
) {
    let spans = log.drain();
    let write_s: f64 = c.write_s.iter().sum();
    let stream_s: f64 = c.stream_s.iter().sum();
    let mut busy_c = 0.0;
    let mut busy_d = 0.0;
    for id in CODECS {
        let key = match id {
            CodecId::Sz2 => "sz2",
            CodecId::Zfp => "zfp",
            CodecId::SzInterp => "szinterp",
            _ => "szauto",
        };
        let of = |op: Op| spans.iter().filter(move |s| s.codec == id && s.op == op);
        let cs: Vec<f64> = of(Op::Compress).map(|s| s.secs()).collect();
        let ds: Vec<f64> = of(Op::Decompress).map(|s| s.secs()).collect();
        busy_c += cs.iter().sum::<f64>();
        busy_d += ds.iter().sum::<f64>();
        metrics.insert(
            baseline_metric(key, "compress_ms"),
            stats::median(&cs) * 1e3,
        );
        metrics.insert(
            baseline_metric(key, "decompress_ms"),
            stats::median(&ds) * 1e3,
        );
    }
    let writes = c.write_s.len() as f64;
    let threads = common::nproc().min(WINDOW) as f64;
    metrics.insert("metrics.archive_write_ms", write_s / writes * 1e3);
    metrics.insert("metrics.archive_codec_busy_ms", busy_c / writes * 1e3);
    metrics.insert("metrics.archive_window_util", busy_c / (write_s * threads));
    metrics.insert(
        "metrics.stream_decode_ms",
        stream_s / c.stream_s.len() as f64 * 1e3,
    );
    metrics.insert(
        "metrics.stream_peak_buffered_kb",
        c.peak_buffered as f64 / 1e3,
    );
    metrics.insert("metrics.window_peak_raw_mb", c.peak_window_raw as f64 / 1e6);
    let forks: Vec<f64> = spans
        .iter()
        .filter(|s| s.op == Op::Fork)
        .map(|s| s.secs())
        .collect();
    metrics.insert("registry.fork_ms", stats::median(&forks) * 1e3);

    // Replays: the archive opens a random read pays, and the stage kernels
    // on this workload's fields.
    let mut opens = Vec::new();
    let mut stages = layers::StagePass::default();
    for case in cases {
        let opts = ArchiveOptions::new().chunk(case.chunk).window(WINDOW);
        let (bytes, _) = archive::compress_field(
            registry,
            &case.field,
            ErrorBound::rel(BOUND),
            &opts,
            CodecId::Sz2,
        )
        .expect("replay archive");
        for _ in 0..8 {
            let t0 = Instant::now();
            std::hint::black_box(
                ArchiveReader::open(&bytes)
                    .expect("replay open")
                    .chunk_count(),
            );
            opens.push(t0.elapsed().as_secs_f64());
        }
        stages.add(layers::stage_pass(&case.field, case.abs_bound, 8, true));
    }
    log.drain();
    metrics.insert("metrics.archive_open_ms", stats::median(&opens) * 1e3);
    layers::stage_metrics(&stages, metrics);
    // Coverage: codec busy time inside archive windows and decodes over the
    // threads' share of those operations' wall time.
    metrics.insert("trace.compress_coverage", busy_c / (write_s * threads));
    metrics.insert("trace.decompress_coverage", busy_d / (decode_s * threads));
}

/// `baselines.<codec>.<what>` as a static name.
pub fn baseline_metric(codec: &str, what: &str) -> &'static str {
    crate::PER_LAYER
        .iter()
        .map(|(n, _)| *n)
        .find(|n| *n == format!("baselines.{codec}.{what}"))
        .expect("every baseline metric is declared")
}
