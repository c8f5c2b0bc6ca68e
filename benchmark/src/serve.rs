//! `serve-mix`: an in-process `aesz serve` daemon with its default worker
//! count, driven by closed-loop client connections (each waits for its
//! reply, as `aesz remote` does) that send Compress and Decompress requests
//! for small CESM fields across SZ2, ZFP, SZinterp and a trained AE-SZ.

use std::collections::HashMap;
use std::sync::Arc;
use std::thread::ThreadId;
use std::time::Instant;

use aesz_repro::datagen::Application;
use aesz_repro::metrics::protocol::{Request, Response};
use aesz_repro::{AeSz, CodecId, Compressor, Dims, ErrorBound, Field};
use aesz_server::{RemoteClient, Server, ServerConfig, ServerHandle, ServerState};

use crate::checks;
use crate::common::{self, Metrics, Outcome, Settings, Tally};
use crate::layers;
use crate::learned;
use crate::stats;
use crate::trace::{Op, Span, SpanLog, Timed};

const CODECS: [CodecId; 4] = [CodecId::Sz2, CodecId::Zfp, CodecId::SzInterp, CodecId::AeSz];
fn field_dims() -> Dims {
    Dims::d2(256, 256)
}
const FIELDS: usize = 8;
const BOUND: f64 = 1e-2;
fn train_dims() -> Dims {
    Dims::d2(256, 256)
}
const TRAIN_SNAPSHOTS: usize = 2;
const SETUP_REPS: usize = 5;
/// Length of the time windows whose figures the phase reports the median of.
const WINDOW_S: f64 = 0.5;

/// A field, and what the local registered instances make of it per codec.
struct Case {
    field: Field,
    abs_bound: f64,
    /// Per codec: the local stream and its local decode.
    expected: Vec<(Vec<u8>, Field)>,
}

struct Inputs {
    fields: Vec<Field>,
    train: Vec<Field>,
}

fn inputs(seed: u64) -> Inputs {
    let app = Application::CesmCldhgh;
    // The first FIELDS snapshots are served; the rest train.
    let snaps = common::snapshots(seed, app as u64, FIELDS + TRAIN_SNAPSHOTS);
    Inputs {
        fields: snaps[..FIELDS]
            .iter()
            .map(|&s| app.generate(field_dims(), s))
            .collect(),
        train: snaps[FIELDS..]
            .iter()
            .map(|&s| app.generate(train_dims(), s))
            .collect(),
    }
}

/// A running daemon: its state, stop handle and accept thread.
struct Daemon {
    state: Arc<ServerState>,
    handle: ServerHandle,
    runner: Option<std::thread::JoinHandle<std::io::Result<()>>>,
}

impl Daemon {
    fn start(codecs: Vec<Box<dyn Compressor>>) -> Daemon {
        let server = Server::bind(ServerConfig::default()).expect("bind a loopback port");
        let state = server.state();
        for c in codecs {
            state.registry.register(c);
        }
        let handle = server.handle().expect("daemon handle");
        let runner = Some(std::thread::spawn(move || server.run()));
        Daemon {
            state,
            handle,
            runner,
        }
    }

    fn addr(&self) -> String {
        self.handle.addr().to_string()
    }
}

impl Drop for Daemon {
    /// Stop accepting, join the accept thread, and wait until every
    /// connection job has released its share of the state, so the worker
    /// pool is dropped (and its threads joined) here rather than on one of
    /// its own workers.
    fn drop(&mut self) {
        self.handle.shutdown();
        if let Some(r) = self.runner.take() {
            let _ = r.join();
        }
        let deadline = Instant::now() + std::time::Duration::from_secs(10);
        while Arc::strong_count(&self.state) > 1 && Instant::now() < deadline {
            std::thread::sleep(std::time::Duration::from_millis(1));
        }
    }
}

/// One timed request as the client saw it.
#[derive(Clone, Copy)]
struct Sample {
    compress: bool,
    raw_bytes: usize,
    start: Instant,
    end: Instant,
}

/// What one client connection did.
#[derive(Default)]
struct ClientLog {
    samples: Vec<Sample>,
    tally: Tally,
}

/// Drive `clients` closed-loop connections for `seconds`, each sending
/// whole rounds: for every codec, a Compress of its current field checked
/// against the local stream, then a Decompress of that stream checked
/// against the local decode.
fn drive(addr: &str, cases: &[Case], clients: usize, seconds: f64) -> (Vec<ClientLog>, Instant) {
    let t0 = Instant::now();
    let logs = std::thread::scope(|scope| {
        let workers: Vec<_> = (0..clients)
            .map(|c| {
                scope.spawn(move || {
                    let mut log = ClientLog::default();
                    let mut client = RemoteClient::connect(addr).expect("connect to the daemon");
                    let mut r = 0usize;
                    loop {
                        let case = &cases[(c + r) % cases.len()];
                        for (id, (stream, recon)) in CODECS.iter().zip(&case.expected) {
                            request_pair(&mut client, *id, case, stream, recon, &mut log);
                        }
                        r += 1;
                        if t0.elapsed().as_secs_f64() >= seconds {
                            return log;
                        }
                    }
                })
            })
            .collect();
        workers
            .into_iter()
            .map(|w| w.join().expect("client thread"))
            .collect::<Vec<_>>()
    });
    (logs, t0)
}

/// Fold the client logs of one timed phase (started at `t0`) into one
/// tally whose "rounds" are `WINDOW_S`-second windows of request end times;
/// the last, partial window is left out. A window's request rate is its
/// completions over the time between its first and last one.
fn merge(logs: &[ClientLog], t0: Instant) -> Tally {
    #[derive(Default)]
    struct Window {
        /// Compress bytes and seconds, decompress bytes and seconds.
        sums: [f64; 4],
        latencies: Vec<f64>,
        first_end: f64,
        last_end: f64,
    }
    let mut t = Tally::default();
    let mut windows: Vec<Window> = Vec::new();
    for l in logs {
        t.attempted += l.tally.attempted;
        t.failed += l.tally.failed;
        t.violations.extend(l.tally.violations.iter().cloned());
        for s in &l.samples {
            let secs = (s.end - s.start).as_secs_f64();
            if s.compress {
                t.compressed(s.raw_bytes, secs);
            } else {
                t.decompressed(s.raw_bytes, secs);
            }
            let end = (s.end - t0).as_secs_f64();
            let i = (end / WINDOW_S) as usize;
            if windows.len() <= i {
                windows.resize_with(i + 1, Window::default);
            }
            let w = &mut windows[i];
            let k = if s.compress { 0 } else { 2 };
            w.sums[k] += s.raw_bytes as f64;
            w.sums[k + 1] += secs;
            if w.latencies.is_empty() || end < w.first_end {
                w.first_end = end;
            }
            w.last_end = w.last_end.max(end);
            w.latencies.push(secs);
        }
    }
    windows.pop();
    for w in windows {
        let n = w.latencies.len() as f64;
        t.add_round([
            w.sums[0] / 1e6 / w.sums[1],
            w.sums[2] / 1e6 / w.sums[3],
            (n - 1.0) / (w.last_end - w.first_end),
            stats::median(&w.latencies),
        ]);
    }
    t
}

fn request_pair(
    client: &mut RemoteClient,
    id: CodecId,
    case: &Case,
    stream: &[u8],
    recon: &Field,
    log: &mut ClientLog,
) {
    let raw = case.field.len() * 4;
    let what = id.name();
    log.tally.attempted += 2;
    let start = Instant::now();
    let got = client.request(&Request::Compress {
        codec: id,
        bound: ErrorBound::rel(BOUND),
        field: case.field.clone(),
    });
    let end = Instant::now();
    match got {
        Ok(Response::CompressOk { stream: served }) => {
            log.tally.compressed(raw, (end - start).as_secs_f64());
            log.samples.push(Sample {
                compress: true,
                raw_bytes: raw,
                start,
                end,
            });
            log.tally.check(
                &format!("{what} served stream = local stream"),
                if served == stream {
                    Ok(())
                } else {
                    Err(format!(
                        "{} bytes served, {} local",
                        served.len(),
                        stream.len()
                    ))
                },
            );
        }
        Ok(other) => log
            .tally
            .op_failed(&format!("{what} compress"), format!("{other:?}")),
        Err(e) => log.tally.op_failed(&format!("{what} compress"), e),
    }
    let start = Instant::now();
    let got = client.request(&Request::Decompress {
        bytes: stream.to_vec(),
    });
    let end = Instant::now();
    match got {
        Ok(Response::DecompressOk { field }) => {
            log.tally.decompressed(raw, (end - start).as_secs_f64());
            log.samples.push(Sample {
                compress: false,
                raw_bytes: raw,
                start,
                end,
            });
            log.tally.check(
                &format!("{what} served decode = local decode"),
                common::same_bits(field.as_slice(), recon.as_slice()),
            );
        }
        Ok(other) => log
            .tally
            .op_failed(&format!("{what} decompress"), format!("{other:?}")),
        Err(e) => log.tally.op_failed(&format!("{what} decompress"), e),
    }
}

/// A set-up daemon and what the timed phase needs beside it.
struct Ready {
    daemon: Daemon,
    cases: Vec<Case>,
    /// The registered AE-SZ, kept for the traced run's replays.
    aesz: AeSz,
    train_s: f64,
    train_bytes: f64,
}

/// Set-up: train AE-SZ, start the daemon with it registered through
/// `ServerState::registry`, compute the local expectations, and warm every
/// worker with one untimed round per client.
fn setup(inputs: &Inputs, seed: u64, clients: usize) -> Ready {
    let t0 = Instant::now();
    let (aesz, train_bytes) = learned::train_aesz(&inputs.train, 2, seed);
    let train_s = t0.elapsed().as_secs_f64();
    let daemon = Daemon::start(vec![Box::new(aesz.clone())]);
    let cases = expectations(&daemon.state, &inputs.fields);
    drive(&daemon.addr(), &cases, clients, 0.0);
    Ready {
        daemon,
        cases,
        aesz,
        train_s,
        train_bytes,
    }
}

fn expectations(state: &ServerState, fields: &[Field]) -> Vec<Case> {
    fields
        .iter()
        .map(|field| Case {
            abs_bound: checks::abs_bound(field, BOUND),
            expected: CODECS
                .iter()
                .map(|&id| {
                    let mut local = state.registry.fork(id).expect("codec registered");
                    let stream = local
                        .compress(field, ErrorBound::rel(BOUND))
                        .expect("local compress");
                    let recon = local.decompress(&stream).expect("local decompress");
                    (stream, recon)
                })
                .collect(),
            field: field.clone(),
        })
        .collect()
}

pub fn run(settings: Settings) -> Outcome {
    let inputs = inputs(settings.seed);
    let clients = common::nproc().min(2);
    let model_seed = common::mix(settings.seed ^ 0x5E7E);
    let (ready, setup_times) =
        common::repeat_setup(SETUP_REPS, || setup(&inputs, model_seed, clients));
    let mut metrics = Metrics::new();
    metrics.insert("setup_s", stats::median(&setup_times));
    let cases = &ready.cases;

    // Local expectations hold the bound; served results must equal them.
    let mut local = Tally::default();
    for case in cases {
        for (id, (_, recon)) in CODECS.iter().zip(&case.expected) {
            local.check(
                &format!("{} local bound", id.name()),
                checks::within_bound(case.field.as_slice(), recon.as_slice(), case.abs_bound),
            );
        }
    }

    let log = SpanLog::default();
    let mut untraced = None;
    let mut traced_daemon = None;
    let phase_s = if settings.trace {
        let (logs, t0) = drive(&ready.daemon.addr(), cases, clients, settings.seconds / 2.0);
        untraced = Some(merge(&logs, t0));
        // A second daemon whose codecs are timing wrappers around forks of
        // the first one's registered instances, warmed before timing.
        let wrapped = CODECS
            .iter()
            .map(|&id| {
                let c = ready
                    .daemon
                    .state
                    .registry
                    .fork(id)
                    .expect("codec registered");
                Box::new(Timed::new(c, log.clone())) as Box<dyn Compressor>
            })
            .collect();
        let d = Daemon::start(wrapped);
        drive(&d.addr(), cases, clients, 0.0);
        log.drain();
        traced_daemon = Some(d);
        settings.seconds / 2.0
    } else {
        settings.seconds
    };
    let active = traced_daemon.as_ref().unwrap_or(&ready.daemon);
    let before = active.state.snapshot();
    let (logs, t0) = drive(&active.addr(), cases, clients, phase_s);
    let after = active.state.snapshot();
    metrics.insert("peak_rss_mb", common::peak_rss_mb());
    let mut tally = merge(&logs, t0);
    tally.end_to_end(&mut metrics);
    let ratios: Vec<f64> = cases
        .iter()
        .flat_map(|c| {
            c.expected
                .iter()
                .map(|(s, _)| (c.field.len() * 4) as f64 / s.len() as f64)
        })
        .collect();
    metrics.insert("compression_ratio", stats::geomean(&ratios));
    let workers = ServerConfig::default().workers;
    let mut notes = vec![
        format!(
            "threads: nproc {}, one process: {clients} closed-loop client connections, daemon default workers {workers}, 1 acceptor",
            common::nproc()
        ),
        common::setup_note(&setup_times),
        format!(
            "operations: {} attempted, {} failed; rates and latency p50 are medians over {} windows of {WINDOW_S} s, {} samples (p99 needs {})",
            tally.attempted,
            tally.failed,
            tally.rounds(),
            tally.latencies.len(),
            stats::samples_needed(0.99)
        ),
        format!(
            "request mix: {FIELDS} CESM-CLDHGH {} fields of {} KB, rel bound {BOUND:e}, a Compress then a Decompress per codec of {:?}",
            field_dims(),
            field_dims().len() * 4 / 1000,
            CODECS.map(|c| c.name())
        ),
    ];
    for (i, c) in cases.iter().enumerate() {
        for (id, (s, _)) in CODECS.iter().zip(&c.expected) {
            notes.push(format!(
                "pairing {} field {i}: ratio {:.3}",
                id.name(),
                (c.field.len() * 4) as f64 / s.len() as f64
            ));
        }
    }

    if let Some(bare) = untraced {
        let spans = log.drain();
        trace_layers(&logs, &spans, &ready, &mut metrics, &mut notes);
        let requests = (after.requests - before.requests).max(1) as f64;
        metrics.insert(
            "server.bytes_in",
            (after.bytes_in - before.bytes_in) as f64 / requests,
        );
        metrics.insert(
            "server.bytes_out",
            (after.bytes_out - before.bytes_out) as f64 / requests,
        );
        metrics.insert(
            "registry.model_cache_hits",
            (after.model_cache_hits - before.model_cache_hits) as f64,
        );
        metrics.insert("nn.train_s", ready.train_s);
        metrics.insert("nn.train_mbps", ready.train_bytes / 1e6 / ready.train_s);
        let mut rates = (Metrics::new(), Metrics::new());
        bare.end_to_end(&mut rates.0);
        tally.end_to_end(&mut rates.1);
        metrics.insert(
            "trace.overhead_pct",
            100.0 * (rates.0["requests_per_s"] / rates.1["requests_per_s"] - 1.0),
        );
        tally.attempted += bare.attempted;
        tally.failed += bare.failed;
        tally.violations.extend(bare.violations);
    }
    tally.violations.extend(local.violations);
    drop(traced_daemon);
    drop(ready);
    Outcome {
        metrics,
        attempted: tally.attempted,
        failed: tally.failed,
        violations: tally.violations,
        notes,
    }
}

/// The daemon thread that served each client: the thread whose codec spans
/// fall inside that client's requests most often (a connection is served
/// by one worker for its whole life).
fn server_threads(logs: &[ClientLog], spans: &[Span]) -> Vec<Option<ThreadId>> {
    logs.iter()
        .map(|l| {
            let mut votes: HashMap<ThreadId, usize> = HashMap::new();
            for s in &l.samples {
                for sp in spans
                    .iter()
                    .filter(|sp| sp.op != Op::Fork && sp.start >= s.start && sp.end <= s.end)
                {
                    *votes.entry(sp.thread).or_default() += 1;
                }
            }
            votes.into_iter().max_by_key(|&(_, n)| n).map(|(t, _)| t)
        })
        .collect()
}

/// Per-layer figures of the traced phase: service time inside the daemon
/// per request (codec spans on the serving thread within the request's
/// client-side interval), what the client waited beyond it, per-codec and
/// fork times, and the NN, selector and stage replays on the served fields.
fn trace_layers(
    logs: &[ClientLog],
    spans: &[Span],
    ready: &Ready,
    metrics: &mut Metrics,
    notes: &mut Vec<String>,
) {
    let threads = server_threads(logs, spans);
    let mut service = Vec::new();
    let mut overhead = Vec::new();
    let mut latency = Vec::new();
    let (mut cov_c, mut whole_c, mut cov_d, mut whole_d) = (0.0, 0.0, 0.0, 0.0);
    for (l, thread) in logs.iter().zip(&threads) {
        for s in &l.samples {
            let lat = (s.end - s.start).as_secs_f64();
            let busy: f64 = spans
                .iter()
                .filter(|sp| {
                    Some(sp.thread) == *thread
                        && sp.op != Op::Fork
                        && sp.start >= s.start
                        && sp.end <= s.end
                })
                .map(Span::secs)
                .sum();
            service.push(busy);
            overhead.push(lat - busy);
            latency.push(lat);
            if s.compress {
                cov_c += busy;
                whole_c += lat;
            } else {
                cov_d += busy;
                whole_d += lat;
            }
        }
    }
    metrics.insert("server.service_ms_p50", stats::median(&service) * 1e3);
    metrics.insert("server.overhead_ms_p50", stats::median(&overhead) * 1e3);
    match stats::percentile(&latency, 0.99) {
        Some(p99) => {
            metrics.insert("server.latency_p99_ms", p99 * 1e3);
        }
        None => notes.push(format!(
            "server.latency_p99_ms refused: {} samples",
            latency.len()
        )),
    }
    notes.push(format!(
        "server.latency_p99_ms over {} samples",
        latency.len()
    ));
    metrics.insert("trace.compress_coverage", cov_c / whole_c);
    metrics.insert("trace.decompress_coverage", cov_d / whole_d);

    for (id, key) in [
        (CodecId::Sz2, "sz2"),
        (CodecId::Zfp, "zfp"),
        (CodecId::SzInterp, "szinterp"),
    ] {
        let of = |op: Op| -> Vec<f64> {
            spans
                .iter()
                .filter(|s| s.codec == id && s.op == op)
                .map(Span::secs)
                .collect()
        };
        metrics.insert(
            crate::classic::baseline_metric(key, "compress_ms"),
            stats::median(&of(Op::Compress)) * 1e3,
        );
        metrics.insert(
            crate::classic::baseline_metric(key, "decompress_ms"),
            stats::median(&of(Op::Decompress)) * 1e3,
        );
    }
    let forks: Vec<f64> = spans
        .iter()
        .filter(|s| s.op == Op::Fork)
        .map(Span::secs)
        .collect();
    metrics.insert("registry.fork_ms", stats::median(&forks) * 1e3);
    notes.push(format!("registry.fork_ms over {} forks", forks.len()));

    // Replays on the served fields.
    let aesz_spans: Vec<f64> = spans
        .iter()
        .filter(|s| s.codec == CodecId::AeSz && s.op == Op::Compress)
        .map(Span::secs)
        .collect();
    let mut nn = layers::NnPass::default();
    let mut stages = layers::StagePass::default();
    let mut local = ready.aesz.clone();
    let mut reports = Vec::new();
    for case in &ready.cases {
        let latent_eb = local.config().latent_eb_fraction * 2.0 * BOUND;
        nn.add(layers::nn_pass(
            local.model(),
            &case.field,
            1024,
            Some(latent_eb),
        ));
        stages.add(layers::stage_pass(&case.field, case.abs_bound, 8, true));
        local
            .compress(&case.field, ErrorBound::rel(BOUND))
            .expect("replay compress");
        reports.push(local.last_report());
    }
    let n = ready.cases.len() as f64;
    let nn_per_call = (nn.encode_s + nn.decode_s + nn.latent_s) / n;
    metrics.insert(
        "core.select_quant_ms",
        (stats::median(&aesz_spans) - nn_per_call) * 1e3,
    );
    let sum = |f: fn(&aesz_repro::CompressionReport) -> usize| {
        reports.iter().map(f).sum::<usize>() as f64
    };
    let total = sum(|r| r.total_blocks);
    metrics.insert("core.ae_block_frac", sum(|r| r.ae_blocks) / total);
    metrics.insert("core.lorenzo_block_frac", sum(|r| r.lorenzo_blocks) / total);
    metrics.insert("core.mean_block_frac", sum(|r| r.mean_blocks) / total);
    metrics.insert("core.latent_bytes", sum(|r| r.latent_bytes) / n);
    metrics.insert("core.codes_bytes", sum(|r| r.codes_bytes) / n);
    metrics.insert("core.means_bytes", sum(|r| r.means_bytes) / n);
    metrics.insert(
        "core.unpredictable_bytes",
        sum(|r| r.unpredictable_bytes) / n,
    );
    layers::nn_metrics(&nn, metrics);
    layers::stage_metrics(&stages, metrics);
}
