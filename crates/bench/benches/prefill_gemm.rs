//! Prefill GEMM microbenchmarks: the tiled batched matrix kernels underneath
//! chunk-batched prefill, and the chunked prompt pass end to end.
//!
//! Three granularities. `prefill_gemm` times one projection's worth of work
//! at real transformer shapes — one `matmul_strided` over the weight as the
//! model stores it (what every chunk and every decode step runs) against `n`
//! per-row `matvec_into` calls on the row-major weight — plus the square
//! `matmul_into` kernel. `chunk_attention` times one layer's prompt attention
//! for a 128-token chunk over 1k live slots, as the per-query `dot` / `vecmat_into`
//! loop and as the two tiled GEMMs the chunk forward runs on `f32` layers.
//! `chunked_prefill` times the full prompt pass through a session at each
//! chunk size, which is where the per-chunk savings show up end to end;
//! `batched/1` forwards one token per chunk, the per-token baseline.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use keyformer_core::cache::LayerKvCache;
use keyformer_core::rotated::RotatedKeyCache;
use keyformer_core::spec::PolicySpec;
use keyformer_model::families::ModelFamily;
use keyformer_model::generation::GenerationConfig;
use keyformer_model::positional::{
    alibi_bias, alibi_slope, PositionalEncoding, RopeRotor, ROPE_BASE,
};
use keyformer_model::session::Session;
use keyformer_tensor::matrix::{matmul_packed_bt, matmul_strided, PackedPanels};
use keyformer_tensor::ops::{softmax_into, softmax_slice};
use keyformer_tensor::{dot, Matrix};
use std::hint::black_box;
use std::time::Duration;

/// Chunk sizes swept by the end-to-end chunked prefill bench.
const CHUNKS: [usize; 4] = [1, 8, 32, 128];
/// Prompt length of the end-to-end chunked prefill bench.
const PROMPT_LEN: usize = 128;

/// Deterministic pseudo-random matrix (xorshift; weights don't need to be
/// realistic, just non-degenerate).
fn random_matrix(rows: usize, cols: usize, mut seed: u64) -> Matrix {
    let mut m = Matrix::zeros(rows, cols);
    for x in m.as_mut_slice() {
        seed ^= seed << 13;
        seed ^= seed >> 7;
        seed ^= seed << 17;
        *x = (seed >> 40) as f32 / (1u64 << 24) as f32 - 0.5;
    }
    m
}

/// Row counts of one projection: a decode step, a 32-token prefill chunk and
/// a 128-token one.
const PROJECTION_ROWS: [usize; 3] = [1, 32, 128];

/// One projection at transformer shapes, `n` rows through a weight: one
/// `matmul_strided` over the weight as the model stores it (`d_in x d_out`,
/// what the forward runs at every `n`, a decode step included) against `n`
/// `matvec_into` calls on the row-major `d_out x d_in` matrix (one scalar
/// `Iterator::sum` chain per output: the GEMV baseline). Shapes are the
/// headline GPT-J-like family's QKV (128 → 128), FFN input (128 → 256) and
/// tied readout (128 → 1024).
fn bench_prefill_gemm(c: &mut Criterion) {
    let mut group = c.benchmark_group("prefill_gemm");
    group
        .sample_size(30)
        .warm_up_time(Duration::from_millis(200))
        .measurement_time(Duration::from_millis(800));
    for (label, d_in, d_out) in [
        ("qkv_128x128", 128usize, 128usize),
        ("ffn_in_128x256", 128, 256),
        ("readout_128x1024", 128, 1024),
    ] {
        let row_major = random_matrix(d_out, d_in, 7);
        let stored = row_major.transpose();
        for &n in &PROJECTION_ROWS {
            let xs = random_matrix(n, d_in, 11);
            let xs = xs.as_slice();
            group.bench_with_input(
                BenchmarkId::new(format!("{label}/matmul_strided"), n),
                &n,
                |b, &n| {
                    let mut out = vec![0.0f32; n * d_out];
                    b.iter(|| {
                        matmul_strided(
                            black_box(xs),
                            d_in,
                            n,
                            d_in,
                            stored.as_slice(),
                            d_out,
                            &mut out,
                            d_out,
                        );
                        black_box(&out);
                    });
                },
            );
            group.bench_with_input(
                BenchmarkId::new(format!("{label}/matvec_rows"), n),
                &n,
                |b, _| {
                    let mut out = Vec::with_capacity(d_out);
                    b.iter(|| {
                        for x in xs.chunks_exact(d_in) {
                            row_major
                                .matvec_into(black_box(x), &mut out)
                                .expect("shape agrees");
                            black_box(&out);
                        }
                    });
                },
            );
        }
    }
    // The square kernel.
    for n in [64usize, 128, 256] {
        let a = random_matrix(n, n, 3);
        let b_m = random_matrix(n, n, 5);
        group.bench_with_input(BenchmarkId::new("matmul_into", n), &n, |b, _| {
            let mut out = Vec::with_capacity(n * n);
            b.iter(|| {
                a.matmul_into(black_box(&b_m), &mut out);
                black_box(&out);
            });
        });
    }
    group.finish();
}

/// One layer's prompt attention for the last 128-token chunk of a 1k-token
/// prompt (896 slots live before it), on the long-context ALiBi family and
/// the RoPE family: the per-query loop (`dot` per key row, `softmax_into`,
/// `vecmat_into` — what the chunk forward ran before, and still runs on `u8`
/// layers) against the two tiled GEMMs over keys packed once per head (what
/// it runs on `f32` layers). Same arithmetic chains, so both variants leave
/// the same context bits. Under ALiBi the far keys of the steepest head get
/// subnormal probabilities, which is why its P·V half is slower than RoPE's.
fn bench_chunk_attention(c: &mut Criterion) {
    const PRE: usize = 896;
    const CHUNK: usize = 128;
    const LIVE: usize = PRE + CHUNK;
    let mut group = c.benchmark_group("chunk_attention");
    group
        .sample_size(15)
        .warm_up_time(Duration::from_millis(300))
        .measurement_time(Duration::from_secs(2));
    for (label, family) in [
        ("storywriter", ModelFamily::MptStorywriterLike),
        ("gptj", ModelFamily::GptJLike),
    ] {
        let config = family.config(41);
        let (d_model, heads, hd) = (config.d_model, config.num_heads, config.head_dim());
        let rotary = config.positional == PositionalEncoding::Rope;
        let scale = 1.0 / (hd as f32).sqrt();
        let slopes: Vec<f32> = (0..heads).map(|h| alibi_slope(h, heads)).collect();
        let q = random_matrix(CHUNK, d_model, 13);
        let q = q.as_slice();
        let mut cache = LayerKvCache::new(heads, hd);
        let (keys, values) = (
            random_matrix(LIVE, d_model, 17),
            random_matrix(LIVE, d_model, 19),
        );
        for slot in 0..LIVE {
            cache
                .append_from_slices(slot, keys.row(slot), values.row(slot))
                .expect("unbounded pool");
        }
        let mut rot = RotatedKeyCache::new(heads, hd, cache.block_size());
        if rotary {
            let mut rotor = RopeRotor::new(hd, ROPE_BASE);
            rot.sync(&cache, |row, slot| {
                rotor.rotate(row, slot as f32 * config.rope_scale)
            });
        }
        let bias = |head: usize, query: usize, key: usize| match config.positional {
            PositionalEncoding::Alibi => alibi_bias(slopes[head], query, key),
            _ => 0.0,
        };

        group.bench_function(BenchmarkId::new(label, "per_query"), |b| {
            let mut context = vec![0.0f32; CHUNK * d_model];
            let (mut logits, mut probs) = (Vec::new(), Vec::new());
            let mut scratch = vec![0.0f32; hd];
            b.iter(|| {
                for t in 0..CHUNK {
                    let seen = PRE + t + 1;
                    for head in 0..heads {
                        let cols = t * d_model + head * hd..t * d_model + (head + 1) * hd;
                        let q_head = &q[cols.clone()];
                        logits.clear();
                        if rotary {
                            for slot in 0..seen {
                                logits.push(dot(q_head, rot.row(head, slot)) * scale);
                            }
                        } else {
                            let keys = cache.keys(head).truncated(seen);
                            keys.for_each_row(&mut scratch, |slot, row| {
                                logits.push(dot(q_head, row) * scale + bias(head, seen - 1, slot));
                            });
                        }
                        softmax_into(&logits, &mut probs);
                        let values = cache.values(head).truncated(seen);
                        values
                            .vecmat_into(&probs, &mut context[cols], &mut scratch)
                            .expect("shape agrees");
                    }
                }
                black_box(&context);
            });
        });

        group.bench_function(BenchmarkId::new(label, "two_gemms"), |b| {
            const BAND: usize = 8;
            let mut context = vec![0.0f32; CHUNK * d_model];
            let mut panels = PackedPanels::new();
            let (mut values, mut logits) = (Vec::new(), Vec::new());
            let mut band = vec![0.0f32; BAND * LIVE];
            let mut scratch = vec![0.0f32; hd];
            b.iter(|| {
                for head in 0..heads {
                    panels.reset(hd);
                    if rotary {
                        for slot in 0..LIVE {
                            panels.push_row(rot.row(head, slot));
                        }
                    } else {
                        let keys = cache.keys(head);
                        keys.for_each_row(&mut scratch, |_, row| panels.push_row(row));
                    }
                    values.clear();
                    let value_rows = cache.values(head);
                    value_rows.for_each_row(&mut scratch, |_, row| values.extend_from_slice(row));
                    for t0 in (0..CHUNK).step_by(BAND) {
                        let (rows, extent) =
                            (BAND.min(CHUNK - t0), PRE + t0 + BAND.min(CHUNK - t0));
                        let at = t0 * d_model + head * hd;
                        matmul_packed_bt(&q[at..], d_model, rows, &panels, extent, &mut band, LIVE);
                        for row in 0..rows {
                            let seen = PRE + t0 + row + 1;
                            let band_row = &mut band[row * LIVE..row * LIVE + extent];
                            for (slot, d) in band_row[..seen].iter_mut().enumerate() {
                                *d = *d * scale + bias(head, seen - 1, slot);
                            }
                            logits.clear();
                            logits.extend_from_slice(&band_row[..seen]);
                            softmax_slice(&logits, &mut band_row[..seen]);
                            band_row[seen..].fill(0.0);
                        }
                        matmul_strided(
                            &band,
                            LIVE,
                            rows,
                            extent,
                            &values,
                            hd,
                            &mut context[at..],
                            d_model,
                        );
                    }
                }
                black_box(&context);
            });
        });
    }
    group.finish();
}

/// The chunked prompt pass end to end: arm a prompt and drive
/// `advance_prefill` to completion at each chunk size; a chunk of 1 is the
/// per-token baseline.
fn bench_chunked_prefill(c: &mut Criterion) {
    let mut group = c.benchmark_group("chunked_prefill");
    group
        .sample_size(15)
        .warm_up_time(Duration::from_millis(300))
        .measurement_time(Duration::from_secs(2));
    let model = ModelFamily::GptJLike.build(41);
    let vocab = model.config().vocab_size;
    let prompt: Vec<u32> = (0..PROMPT_LEN)
        .map(|t| ((t * 13 + 5) % vocab) as u32)
        .collect();
    let gen = GenerationConfig::new(1);
    let run = |chunk: usize| {
        let mut session =
            Session::new(&model, PolicySpec::Full.build().expect("full builds"), None)
                .with_prefill_chunk(chunk);
        session
            .begin(black_box(&prompt), &gen)
            .expect("prompt arms");
        while session.is_prefilling() {
            session.advance_prefill().expect("unbounded pool");
        }
        black_box(session);
    };
    for &chunk in &CHUNKS {
        group.bench_with_input(BenchmarkId::new("batched", chunk), &chunk, |b, &chunk| {
            b.iter(|| run(chunk));
        });
    }
    group.finish();
}

criterion_group!(
    prefill_gemm,
    bench_prefill_gemm,
    bench_chunk_attention,
    bench_chunked_prefill
);
criterion_main!(prefill_gemm);
