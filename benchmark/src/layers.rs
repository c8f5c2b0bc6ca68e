//! The traced run's replay of each layer's public calls on the workload's
//! own inputs, timed from here: NN inference through `AeSz::model()`, the
//! latent codec, the predictors, and the Huffman and zlite stages.

use std::hint::black_box;
use std::time::Instant;

use aesz_repro::codec::{huffman_decode, huffman_encode, zlite_compress, zlite_decompress};
use aesz_repro::core::LatentCodec;
use aesz_repro::nn::{ConvAutoencoder, Layer, NnScratch, Shape};
use aesz_repro::predictors::{interp, lorenzo, regression, Quantizer, DEFAULT_QUANT_BINS};
use aesz_repro::Field;

/// Time of one encoder and one decoder pass over every block of a field,
/// with the FLOPs those passes compute.
#[derive(Debug, Default, Clone, Copy)]
pub struct NnPass {
    pub encode_s: f64,
    pub decode_s: f64,
    pub encode_flops: f64,
    pub decode_flops: f64,
    pub latent_s: f64,
}

impl NnPass {
    pub fn add(&mut self, o: NnPass) {
        self.encode_s += o.encode_s;
        self.decode_s += o.decode_s;
        self.encode_flops += o.encode_flops;
        self.decode_flops += o.decode_flops;
        self.latent_s += o.latent_s;
    }
}

/// FLOPs of one sample through `layers`, computed from layer shapes: each
/// layer with weights costs 2 × (output positions) × (its largest weight
/// tensor) — exact for convolutions and dense layers, and for GDN's
/// channel-mixing matrix; weight-free layers count as free.
fn flops_per_sample(layers: &[Box<dyn Layer>], input: &[f32], shape: Shape) -> f64 {
    let mut scratch = NnScratch::new();
    let mut cur = input.to_vec();
    let mut shape = shape;
    let mut out = Vec::new();
    let mut flops = 0.0;
    for layer in layers {
        let out_shape = layer
            .infer_into(&cur, shape, &mut out, &mut scratch)
            .expect("replay shapes are the model's own");
        let dims = out_shape.dims();
        let positions = out_shape.len()
            / dims.first().copied().unwrap_or(1).max(1)
            / dims.get(1).copied().unwrap_or(1).max(1);
        let weights = layer.params().iter().map(|p| p.len()).max().unwrap_or(0);
        flops += 2.0 * positions as f64 * weights as f64;
        std::mem::swap(&mut cur, &mut out);
        shape = out_shape;
    }
    flops
}

/// Replay the AE stages of one compression of `field`: normalise its blocks
/// as AE-SZ and AE-B do, encode them in batches of `batch`, round-trip the
/// latents through a [`LatentCodec`] (when `latent_eb` is set), and decode.
pub fn nn_pass(
    model: &ConvAutoencoder,
    field: &Field,
    batch: usize,
    latent_eb: Option<f64>,
) -> NnPass {
    let cfg = model.config();
    let block = cfg.block_size;
    let block_len = cfg.block_len();
    let (lo, hi) = field.min_max();
    let range = hi - lo;
    let mut blocks = Vec::new();
    let mut n = 0usize;
    for spec in field.blocks(block) {
        let blk = field.extract_block(&spec);
        blocks.extend(blk.data.iter().map(|&v| 2.0 * (v - lo) / range - 1.0));
        n += 1;
    }
    // Two passes over the same blocks; the first warms the scratch buffers
    // (as the program's resident forks are warm), the second is timed.
    let mut scratch = NnScratch::new();
    let mut latents = Vec::new();
    let mut decoded = Vec::new();
    let (mut encode_s, mut latent_s, mut decode_s) = (0.0, 0.0, 0.0);
    let mut all_latents = Vec::with_capacity(n * cfg.latent_dim);
    for _ in 0..2 {
        all_latents.clear();
        let t0 = Instant::now();
        for chunk in blocks.chunks(batch * block_len) {
            model
                .encode_blocks_into(chunk, chunk.len() / block_len, &mut latents, &mut scratch)
                .expect("replay batches are block-shaped");
            all_latents.extend_from_slice(&latents);
        }
        encode_s = t0.elapsed().as_secs_f64();
        if let Some(eb) = latent_eb {
            let codec = LatentCodec::new(eb);
            let t0 = Instant::now();
            let idx = codec.quantize(&all_latents);
            black_box(codec.encode(&idx, cfg.latent_dim));
            all_latents = codec.dequantize(&idx);
            latent_s = t0.elapsed().as_secs_f64();
        }
        let t0 = Instant::now();
        for chunk in all_latents.chunks(batch * cfg.latent_dim) {
            model
                .decode_latents_into(
                    chunk,
                    chunk.len() / cfg.latent_dim,
                    &mut decoded,
                    &mut scratch,
                )
                .expect("replay latents are model-shaped");
            black_box(&decoded);
        }
        decode_s = t0.elapsed().as_secs_f64();
    }

    let mut in_shape = vec![1, 1];
    in_shape.extend(std::iter::repeat_n(block, cfg.spatial_rank));
    let enc = flops_per_sample(
        model.encoder_layers().layers(),
        &blocks[..block_len],
        Shape::new(&in_shape),
    );
    let dec = flops_per_sample(
        model.decoder_layers().layers(),
        &all_latents[..cfg.latent_dim],
        Shape::new(&[1, cfg.latent_dim]),
    );
    NnPass {
        encode_s,
        decode_s,
        encode_flops: enc * n as f64,
        decode_flops: dec * n as f64,
        latent_s,
    }
}

/// Time and element counts of the predictor and lossless-stage replays.
#[derive(Debug, Default, Clone, Copy)]
pub struct StagePass {
    pub elems: f64,
    pub lorenzo_s: f64,
    pub regression_s: f64,
    pub interp_s: f64,
    pub interp_elems: f64,
    /// Bytes of the u32 code streams fed to Huffman (4 per code).
    pub code_bytes: f64,
    pub huffman_encode_s: f64,
    pub huffman_decode_s: f64,
    /// Bytes fed to zlite (Huffman output and escaped values).
    pub zlite_bytes: f64,
    pub zlite_compress_s: f64,
    pub zlite_decompress_s: f64,
    pub lorenzo_decompress_s: f64,
}

impl StagePass {
    pub fn add(&mut self, o: StagePass) {
        self.elems += o.elems;
        self.lorenzo_s += o.lorenzo_s;
        self.regression_s += o.regression_s;
        self.interp_s += o.interp_s;
        self.interp_elems += o.interp_elems;
        self.code_bytes += o.code_bytes;
        self.huffman_encode_s += o.huffman_encode_s;
        self.huffman_decode_s += o.huffman_decode_s;
        self.zlite_bytes += o.zlite_bytes;
        self.zlite_compress_s += o.zlite_compress_s;
        self.zlite_decompress_s += o.zlite_decompress_s;
        self.lorenzo_decompress_s += o.lorenzo_decompress_s;
    }

    /// Seconds of the lossless encode stages, Huffman then zlite.
    pub fn codec_encode_s(&self) -> f64 {
        self.huffman_encode_s + self.zlite_compress_s
    }

    /// Seconds of the lossless decode stages.
    pub fn codec_decode_s(&self) -> f64 {
        self.huffman_decode_s + self.zlite_decompress_s
    }
}

/// Replay the predictor stage of a blockwise SZ-style compression of
/// `field` at absolute bound `abs_eb` with `block`-edge blocks — Lorenzo
/// and regression on every block, interpolation over the whole field when
/// `with_interp` is set — then the lossless stages over the Lorenzo codes and
/// escapes, and the Lorenzo decode.
pub fn stage_pass(field: &Field, abs_eb: f64, block: usize, with_interp: bool) -> StagePass {
    let quantizer = Quantizer::new(abs_eb, DEFAULT_QUANT_BINS);
    let specs: Vec<_> = field.blocks(block).collect();
    let mut valid = Vec::new();
    let (mut codes, mut unpred, mut recon) = (Vec::new(), Vec::new(), Vec::new());
    let mut all_codes: Vec<u32> = Vec::with_capacity(field.len());
    let mut all_unpred: Vec<f32> = Vec::new();
    let mut p = StagePass {
        elems: field.len() as f64,
        ..StagePass::default()
    };
    let mut per_block = Vec::with_capacity(specs.len());
    for spec in &specs {
        field.read_block_valid_into(spec, &mut valid);
        let t0 = Instant::now();
        lorenzo::compress_into(
            &valid,
            spec.size.as_slice(),
            &quantizer,
            &mut codes,
            &mut unpred,
            &mut recon,
        );
        p.lorenzo_s += t0.elapsed().as_secs_f64();
        all_codes.extend_from_slice(&codes);
        all_unpred.extend_from_slice(&unpred);
        per_block.push((codes.len(), unpred.len()));
        let t0 = Instant::now();
        black_box(regression::compress_into(
            &valid,
            spec.size.as_slice(),
            &quantizer,
            &mut codes,
            &mut unpred,
            &mut recon,
        ));
        p.regression_s += t0.elapsed().as_secs_f64();
    }
    if with_interp {
        let extents = field.dims().extents();
        let t0 = Instant::now();
        black_box(interp::compress(field.as_slice(), &extents, &quantizer));
        p.interp_s = t0.elapsed().as_secs_f64();
        p.interp_elems = field.len() as f64;
    }

    let t0 = Instant::now();
    let huff = huffman_encode(&all_codes);
    p.huffman_encode_s = t0.elapsed().as_secs_f64();
    let unpred_bytes: Vec<u8> = all_unpred.iter().flat_map(|v| v.to_le_bytes()).collect();
    let t0 = Instant::now();
    let z_codes = zlite_compress(&huff);
    let z_unpred = zlite_compress(&unpred_bytes);
    p.zlite_compress_s = t0.elapsed().as_secs_f64();
    let t0 = Instant::now();
    let huff_back = zlite_decompress(&z_codes).expect("zlite round trip");
    black_box(zlite_decompress(&z_unpred).expect("zlite round trip"));
    p.zlite_decompress_s = t0.elapsed().as_secs_f64();
    let t0 = Instant::now();
    let codes_back = huffman_decode(&huff_back).expect("huffman round trip");
    p.huffman_decode_s = t0.elapsed().as_secs_f64();
    assert_eq!(codes_back, all_codes, "lossless stages must round-trip");
    p.code_bytes = 4.0 * all_codes.len() as f64;
    p.zlite_bytes = (huff.len() + unpred_bytes.len()) as f64;

    let (mut ci, mut ui) = (0usize, 0usize);
    for (spec, &(nc, nu)) in specs.iter().zip(&per_block) {
        let t0 = Instant::now();
        lorenzo::decompress_into(
            &all_codes[ci..ci + nc],
            &all_unpred[ui..ui + nu],
            spec.size.as_slice(),
            &quantizer,
            &mut recon,
        );
        p.lorenzo_decompress_s += t0.elapsed().as_secs_f64();
        ci += nc;
        ui += nu;
    }
    p
}

/// Per-layer metrics of the predictor and lossless stages.
pub fn stage_metrics(p: &StagePass, metrics: &mut crate::common::Metrics) {
    metrics.insert("predictors.lorenzo_mvals_s", p.elems / 1e6 / p.lorenzo_s);
    metrics.insert(
        "predictors.regression_mvals_s",
        p.elems / 1e6 / p.regression_s,
    );
    if p.interp_elems > 0.0 {
        metrics.insert(
            "predictors.interp_mvals_s",
            p.interp_elems / 1e6 / p.interp_s,
        );
    }
    metrics.insert(
        "codec.huffman_encode_mbps",
        p.code_bytes / 1e6 / p.huffman_encode_s,
    );
    metrics.insert(
        "codec.huffman_decode_mbps",
        p.code_bytes / 1e6 / p.huffman_decode_s,
    );
    metrics.insert(
        "codec.zlite_compress_mbps",
        p.zlite_bytes / 1e6 / p.zlite_compress_s,
    );
    metrics.insert(
        "codec.zlite_decompress_mbps",
        p.zlite_bytes / 1e6 / p.zlite_decompress_s,
    );
}

/// Per-layer metrics of the NN replay.
pub fn nn_metrics(p: &NnPass, metrics: &mut crate::common::Metrics) {
    metrics.insert("nn.encode_ms", p.encode_s * 1e3);
    metrics.insert("nn.decode_ms", p.decode_s * 1e3);
    metrics.insert("nn.encode_gflops", p.encode_flops / 1e9 / p.encode_s);
    metrics.insert("nn.decode_gflops", p.decode_flops / 1e9 / p.decode_s);
}
