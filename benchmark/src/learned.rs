//! `learned-sweep`: AE-SZ over a Fig. 10 bound sweep on 2D CESM-CLDHGH and
//! 3D Hurricane-U fields, and AE-B on 3D Nyx fields — the workload where NN
//! inference, training and the adaptive selector do the work.

use std::time::Instant;

use aesz_repro::baselines::AeB;
use aesz_repro::core::training::{train_swae_for_field, TrainingOptions};
use aesz_repro::datagen::Application;
use aesz_repro::metrics::psnr;
use aesz_repro::nn::serialize::load_model;
use aesz_repro::{AeSz, AeSzConfig, CompressionReport, Compressor, Dims, ErrorBound, Field};

use crate::checks;
use crate::common::{self, Metrics, Outcome, Settings, Tally};
use crate::layers;
use crate::stats;

/// The Fig. 10 sweep, loosest first.
const BOUNDS: [f64; 5] = [1e-1, 3e-2, 1e-2, 3e-3, 1e-3];
fn cesm_dims() -> Dims {
    Dims::d2(256, 256)
}
fn cesm_train_dims() -> Dims {
    Dims::d2(256, 256)
}
fn hurricane_dims() -> Dims {
    Dims::d3(48, 48, 24)
}
fn hurricane_train_dims() -> Dims {
    Dims::d3(32, 32, 32)
}
fn nyx_dims() -> Dims {
    Dims::d3(64, 64, 32)
}
fn nyx_train_dims() -> Dims {
    Dims::d3(32, 32, 32)
}
/// Test and training snapshots per application. Two test snapshots halve
/// the spread the choice of snapshot puts into the figures.
const TEST_SNAPSHOTS: usize = 2;
const TRAIN_SNAPSHOTS: usize = 2;
/// AE-SZ training: blocks sampled across the training snapshots, epochs.
const AESZ_TRAIN_BLOCKS: usize = 64;
const AESZ_EPOCHS: usize = 2;
const AEB_EPOCHS: usize = 2;
/// Set-ups per run; `setup_s` is their median.
const SETUP_REPS: usize = 3;
/// The parallel AE-SZ path's inference batch, and AE-B's.
const AESZ_BATCH: usize = 1024;
const AEB_BATCH: usize = 16;

/// One AE-SZ application of the sweep: its test fields and the snapshots
/// its model trains on.
pub struct AeField {
    pub name: &'static str,
    pub tests: Vec<Field>,
    pub train: Vec<Field>,
    pub rank: usize,
}

/// Inputs, generated from the seed before any clock starts.
pub struct Inputs {
    pub ae: Vec<AeField>,
    pub nyx: Vec<Field>,
    pub nyx_train: Vec<Field>,
}

impl Inputs {
    pub fn generate(seed: u64) -> Inputs {
        let gen = |app: Application, dims: Dims, train_dims: Dims| {
            let snaps = common::snapshots(seed, app as u64, TEST_SNAPSHOTS + TRAIN_SNAPSHOTS);
            let (tests, train) = snaps.split_at(TEST_SNAPSHOTS);
            (
                tests.iter().map(|&s| app.generate(dims, s)).collect(),
                train
                    .iter()
                    .map(|&s| app.generate(train_dims, s))
                    .collect::<Vec<_>>(),
            )
        };
        let (cesm, cesm_train) = gen(Application::CesmCldhgh, cesm_dims(), cesm_train_dims());
        let (hur, hur_train) = gen(
            Application::HurricaneU,
            hurricane_dims(),
            hurricane_train_dims(),
        );
        let (nyx, nyx_train) = gen(Application::NyxBaryonDensity, nyx_dims(), nyx_train_dims());
        Inputs {
            ae: vec![
                AeField {
                    name: "cesm-cldhgh",
                    tests: cesm,
                    train: cesm_train,
                    rank: 2,
                },
                AeField {
                    name: "hurricane-u",
                    tests: hur,
                    train: hur_train,
                    rank: 3,
                },
            ],
            nyx,
            nyx_train,
        }
    }
}

/// Train an AE-SZ for fields of `rank` on `train`; returns the compressor
/// and the training bytes one epoch pass processed × epochs.
pub fn train_aesz(train: &[Field], rank: usize, seed: u64) -> (AeSz, f64) {
    let opts = TrainingOptions {
        epochs: AESZ_EPOCHS,
        max_blocks: AESZ_TRAIN_BLOCKS,
        seed,
        ..TrainingOptions::default_for_rank(rank)
    };
    let per_field = (opts.max_blocks / train.len()).max(1);
    let blocks: usize = train
        .iter()
        .map(|f| f.block_count(opts.block_size).min(per_field))
        .sum();
    let block_len = opts.block_size.pow(rank as u32);
    let bytes = (blocks * block_len * 4 * opts.epochs) as f64;
    let model = train_swae_for_field(train, &opts);
    let config = AeSzConfig {
        block_size: opts.block_size,
        ..if rank == 3 {
            AeSzConfig::default_3d()
        } else {
            AeSzConfig::default_2d()
        }
    };
    (AeSz::new(model, config), bytes)
}

fn train_aeb(train: &[Field], seed: u64) -> (AeB, f64) {
    let blocks: usize = train
        .iter()
        .map(|f| f.block_count(16))
        .sum::<usize>()
        .min(128);
    let mut aeb = AeB::new(seed);
    aeb.train(train, AEB_EPOCHS, seed);
    (aeb, (blocks * 16 * 16 * 16 * 4 * AEB_EPOCHS) as f64)
}

struct Trained {
    aesz: Vec<AeSz>,
    aeb: AeB,
    train_s: f64,
    train_bytes: f64,
}

/// Figures of one (field, bound) pairing, from the first round.
#[derive(Default, Clone)]
struct Pairing {
    label: String,
    ratio: f64,
    psnr: f64,
    report: Option<CompressionReport>,
    compress_s: Vec<f64>,
    decompress_s: Vec<f64>,
}

/// One empty [`Pairing`] per (field, bound), then AE-B's, in round order.
fn pairings(inputs: &Inputs) -> Vec<Pairing> {
    let label = |label| Pairing {
        label,
        ..Pairing::default()
    };
    inputs
        .ae
        .iter()
        .flat_map(|ae| {
            (0..ae.tests.len()).flat_map(move |i| {
                BOUNDS
                    .iter()
                    .map(move |rel| format!("aesz {}#{i} {rel:e}", ae.name))
            })
        })
        .chain((0..inputs.nyx.len()).map(|i| format!("aeb nyx#{i}")))
        .map(label)
        .collect()
}

/// One whole round: every field at every bound, then AE-B on every field.
fn round(t: &mut Trained, inputs: &Inputs, tally: &mut Tally, pairings: &mut [Pairing]) {
    let mut slots = pairings.iter_mut();
    for (aesz, ae) in t.aesz.iter_mut().zip(&inputs.ae) {
        for (field, rel) in ae
            .tests
            .iter()
            .flat_map(|f| BOUNDS.iter().map(move |&r| (f, r)))
        {
            let raw = field.len() * 4;
            let pr = slots.next().expect("one pairing per field and bound");
            tally.attempted += 2;
            let t0 = Instant::now();
            let stream = match aesz.compress(field, ErrorBound::rel(rel)) {
                Ok(s) => s,
                Err(e) => {
                    // The paired decompress cannot run: it fails too.
                    tally.op_failed("aesz compress", e);
                    tally.failed += 1;
                    continue;
                }
            };
            let cs = t0.elapsed().as_secs_f64();
            tally.compressed(raw, cs);
            let report = aesz.last_report();
            let t0 = Instant::now();
            let recon = match aesz.decompress(&stream) {
                Ok(r) => r,
                Err(e) => {
                    tally.op_failed("aesz decompress", e);
                    continue;
                }
            };
            let ds = t0.elapsed().as_secs_f64();
            tally.decompressed(raw, ds);

            let what = format!("aesz {} rel {rel:e}", ae.name);
            tally.check(
                &format!("{what} bound"),
                checks::within_bound(
                    field.as_slice(),
                    recon.as_slice(),
                    checks::abs_bound(field, rel),
                ),
            );
            let grid = checks::block_grid(field.dims(), aesz.config().block_size);
            let counted = report.ae_blocks + report.lorenzo_blocks + report.mean_blocks;
            tally.check(
                &format!("{what} block counts"),
                if counted == grid && report.total_blocks == grid {
                    Ok(())
                } else {
                    Err(format!(
                        "AE {} + Lorenzo {} + mean {} = {counted}, total {}, grid {grid}",
                        report.ae_blocks,
                        report.lorenzo_blocks,
                        report.mean_blocks,
                        report.total_blocks
                    ))
                },
            );
            if pr.report.is_none() {
                pr.ratio = raw as f64 / stream.len() as f64;
                pr.psnr = psnr(field.as_slice(), recon.as_slice());
                pr.report = Some(report);
            }
            pr.compress_s.push(cs);
            pr.decompress_s.push(ds);
        }
    }

    for field in &inputs.nyx {
        let raw = field.len() * 4;
        let pr = slots.next().expect("a pairing per AE-B field");
        tally.attempted += 2;
        let t0 = Instant::now();
        let stream = match t.aeb.compress(field, ErrorBound::rel(1e-2)) {
            Ok(s) => s,
            Err(e) => {
                // The paired decompress cannot run: it fails too.
                tally.op_failed("aeb compress", e);
                tally.failed += 1;
                continue;
            }
        };
        let cs = t0.elapsed().as_secs_f64();
        tally.compressed(raw, cs);
        let t0 = Instant::now();
        let recon = match t.aeb.decompress(&stream) {
            Ok(r) => r,
            Err(e) => {
                tally.op_failed("aeb decompress", e);
                continue;
            }
        };
        let ds = t0.elapsed().as_secs_f64();
        tally.decompressed(raw, ds);
        let expected = checks::aeb_expected_len(field.dims());
        tally.check(
            "aeb stream length",
            if stream.len() == expected {
                Ok(())
            } else {
                Err(format!("{} bytes, design gives {expected}", stream.len()))
            },
        );
        tally.check("aeb range", checks::within_range(field, recon.as_slice()));
        if pr.compress_s.is_empty() {
            pr.ratio = raw as f64 / stream.len() as f64;
            pr.psnr = psnr(field.as_slice(), recon.as_slice());
        }
        pr.compress_s.push(cs);
        pr.decompress_s.push(ds);
    }
}

fn setup(inputs: &Inputs, seed: u64) -> Trained {
    let t0 = Instant::now();
    let mut train_bytes = 0.0;
    let mut aesz = Vec::new();
    for (i, ae) in inputs.ae.iter().enumerate() {
        let (c, bytes) = train_aesz(&ae.train, ae.rank, seed.wrapping_add(i as u64));
        train_bytes += bytes;
        aesz.push(c);
    }
    let (aeb, bytes) = train_aeb(&inputs.nyx_train, seed);
    train_bytes += bytes;
    let train_s = t0.elapsed().as_secs_f64();
    let mut t = Trained {
        aesz,
        aeb,
        train_s,
        train_bytes,
    };
    // Warm-up: one untimed compress and decompress per codec and field, so
    // every resident scratch buffer reaches its high-water mark.
    for (aesz, ae) in t.aesz.iter_mut().zip(&inputs.ae) {
        for field in &ae.tests {
            let s = aesz
                .compress(field, ErrorBound::rel(BOUNDS[0]))
                .expect("warm-up compress");
            aesz.decompress(&s).expect("warm-up decompress");
        }
    }
    for field in &inputs.nyx {
        let s = t
            .aeb
            .compress(field, ErrorBound::rel(1e-2))
            .expect("warm-up compress");
        t.aeb.decompress(&s).expect("warm-up decompress");
    }
    t
}

pub fn run(settings: Settings) -> Outcome {
    let inputs = Inputs::generate(settings.seed);
    let model_seed = common::mix(settings.seed ^ 0xAE5E);
    let (mut trained, setup_times) =
        common::repeat_setup(SETUP_REPS, || setup(&inputs, model_seed));
    let mut metrics = Metrics::new();
    metrics.insert("setup_s", stats::median(&setup_times));

    let mut notes = vec![
        format!(
            "threads: nproc {}, one process, the rayon shim fans out up to nproc per call",
            common::nproc()
        ),
        common::setup_note(&setup_times),
    ];
    let mut pairings = pairings(&inputs);
    let mut tally = Tally::default();
    let (phase_s, untraced) = if settings.trace {
        // Untraced first half, for the tracing overhead.
        let mut bare = Tally::default();
        let mut bare_pairings = pairings.clone();
        common::timed_rounds(settings.seconds / 2.0, || {
            round(&mut trained, &inputs, &mut bare, &mut bare_pairings)
        });
        (settings.seconds / 2.0, Some(bare))
    } else {
        (settings.seconds, None)
    };
    tally.begin();
    common::timed_rounds(phase_s, || {
        round(&mut trained, &inputs, &mut tally, &mut pairings);
        tally.end_round();
    });
    metrics.insert("peak_rss_mb", common::peak_rss_mb());
    tally.end_to_end(&mut metrics);
    let ratios: Vec<f64> = pairings.iter().map(|p| p.ratio).collect();
    metrics.insert("compression_ratio", stats::geomean(&ratios));
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
    for p in &pairings {
        let frac = p.report.map_or(String::new(), |r| {
            format!(" ae_block_frac {:.4}", r.ae_fraction())
        });
        notes.push(format!(
            "pairing {}: ratio {:.3} psnr {:.2} dB{frac} compress p50 {:.2} ms decompress p50 {:.2} ms",
            p.label,
            p.ratio,
            p.psnr,
            stats::median(&p.compress_s) * 1e3,
            stats::median(&p.decompress_s) * 1e3
        ));
    }

    if let Some(bare) = untraced {
        trace_layers(&trained, &inputs, &pairings, &mut metrics, &mut notes);
        metrics.insert("nn.train_s", trained.train_s);
        metrics.insert("nn.train_mbps", trained.train_bytes / 1e6 / trained.train_s);
        metrics.insert(
            "trace.overhead_pct",
            100.0 * (bare.compress_mbps() / tally.compress_mbps() - 1.0),
        );
        tally.violations.extend(bare.violations);
        tally.attempted += bare.attempted;
        tally.failed += bare.failed;
    }
    Outcome {
        metrics,
        attempted: tally.attempted,
        failed: tally.failed,
        violations: tally.violations,
        notes,
    }
}

/// Per-layer figures of the traced run: NN and stage replays on the
/// workload's fields, the selector's report, and how much of each whole
/// AE-SZ call the replayed stages cover.
fn trace_layers(
    t: &Trained,
    inputs: &Inputs,
    pairings: &[Pairing],
    metrics: &mut Metrics,
    notes: &mut Vec<String>,
) {
    let mut nn = layers::NnPass::default();
    let mut stages = layers::StagePass::default();
    let mut covered_c = 0.0;
    let mut covered_d = 0.0;
    let mut whole_c = 0.0;
    let mut whole_d = 0.0;
    let mut reports = Vec::new();
    let mut select_ms = 0.0;
    let mut k = 0;
    for (aesz, ae) in t.aesz.iter().zip(&inputs.ae) {
        let block = aesz.config().block_size;
        for (i, field) in ae.tests.iter().enumerate() {
            for &rel in &BOUNDS {
                let latent_eb = aesz.config().latent_eb_fraction * 2.0 * rel;
                let pass = layers::nn_pass(aesz.model(), field, AESZ_BATCH, Some(latent_eb));
                let st = layers::stage_pass(field, checks::abs_bound(field, rel), block, false);
                let p = &pairings[k];
                k += 1;
                let report = p.report.expect("every AE-SZ pairing has a report");
                let cs = stats::median(&p.compress_s);
                let ds = stats::median(&p.decompress_s);
                // Compression runs the encoder and decoder on every block;
                // decompression decodes only the AE-chosen ones.
                let ae_share = report.ae_fraction();
                let c_cov = pass.encode_s
                    + pass.decode_s
                    + pass.latent_s
                    + st.codec_encode_s()
                    + st.lorenzo_s;
                let d_cov =
                    pass.decode_s * ae_share + st.codec_decode_s() + st.lorenzo_decompress_s;
                covered_c += c_cov;
                covered_d += d_cov;
                whole_c += cs;
                whole_d += ds;
                // Lorenzo quantization is part of the selection stage.
                select_ms += (cs - (c_cov - st.lorenzo_s)) * 1e3;
                reports.push(report);
                if rel == BOUNDS[0] {
                    nn.add(pass);
                }
                stages.add(st);
            }
            notes.push(format!(
                "core.ae_block_frac by bound on {}#{i}: {}",
                ae.name,
                BOUNDS
                    .iter()
                    .zip(&reports[reports.len() - BOUNDS.len()..])
                    .map(|(b, r)| format!("{b:e}={:.4}", r.ae_fraction()))
                    .collect::<Vec<_>>()
                    .join(" ")
            ));
        }
    }
    let n_calls = reports.len() as f64;
    metrics.insert("core.select_quant_ms", select_ms / n_calls);
    let sum = |f: fn(&CompressionReport) -> usize| reports.iter().map(f).sum::<usize>() as f64;
    let total = sum(|r| r.total_blocks);
    metrics.insert("core.ae_block_frac", sum(|r| r.ae_blocks) / total);
    metrics.insert("core.lorenzo_block_frac", sum(|r| r.lorenzo_blocks) / total);
    metrics.insert("core.mean_block_frac", sum(|r| r.mean_blocks) / total);
    metrics.insert("core.latent_bytes", sum(|r| r.latent_bytes) / n_calls);
    metrics.insert("core.codes_bytes", sum(|r| r.codes_bytes) / n_calls);
    metrics.insert("core.means_bytes", sum(|r| r.means_bytes) / n_calls);
    metrics.insert(
        "core.unpredictable_bytes",
        sum(|r| r.unpredictable_bytes) / n_calls,
    );

    // AE-B keeps its model private; its serialized form loads to the same
    // weights.
    let model = load_model(&t.aeb.to_model_bytes()).expect("AE-B model round-trips");
    for field in &inputs.nyx {
        nn.add(layers::nn_pass(&model, field, AEB_BATCH, None));
    }
    let aeb = &pairings[k..];
    let times = |f: fn(&Pairing) -> &Vec<f64>| -> Vec<f64> {
        aeb.iter().flat_map(|p| f(p).iter().copied()).collect()
    };
    metrics.insert(
        "baselines.aeb.compress_ms",
        stats::median(&times(|p| &p.compress_s)) * 1e3,
    );
    metrics.insert(
        "baselines.aeb.decompress_ms",
        stats::median(&times(|p| &p.decompress_s)) * 1e3,
    );
    layers::nn_metrics(&nn, metrics);
    layers::stage_metrics(&stages, metrics);
    metrics.insert("trace.compress_coverage", covered_c / whole_c);
    metrics.insert("trace.decompress_coverage", covered_d / whole_d);
}
