//! Isolated probes: each times calls into one crate's public functions from
//! outside, on inputs shaped like the workload's (prompt length, steady live
//! cache size, prefill chunk, KV dtype). `None` means the workload bypasses
//! that layer.

use crate::loadgen::http_request_bytes;
use crate::replay::{offline_node, wire_parse};
use crate::stats::median;
use crate::verify::solo_session;
use crate::workload::{GenRequest, Lane, RequestStream, Workload, MODEL_SEED};
use keyformer_core::block::{OvercommitPolicy, SharedBlockPool};
use keyformer_core::budget::CacheBudget;
use keyformer_core::cache::{KvDtype, LayerKvCache};
use keyformer_core::observation::{AttentionObservation, Phase};
use keyformer_core::policy::KvCachePolicy;
use keyformer_core::prefix::{policy_context, SharedPrefixRegistry};
use keyformer_core::rotated::RotatedKeyCache;
use keyformer_model::generation::GenerationConfig;
use keyformer_model::positional::{apply_rope_scaled, PositionalEncoding, ROPE_BASE};
use keyformer_model::session::Session;
use keyformer_model::{ModelConfig, TransformerModel};
use keyformer_perf::ModelShape;
use keyformer_tensor::init::uniform_matrix;
use keyformer_tensor::ops::softmax_into;
use keyformer_tensor::{dot, top_k_indices, Matrix};
use kf_serve::cache::{CachedResult, ResultCache};
use kf_serve::jobs::{JobState, JobTable, StreamSnapshot};
use kf_serve::{api, http};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::hint::black_box;
use std::time::{Duration, Instant};

/// Time each probe may spend measuring.
const PROBE_BUDGET: Duration = Duration::from_millis(50);

/// Median seconds per call of `op`, timed in batches sized so the clock's own
/// cost is noise, for about [`PROBE_BUDGET`].
fn time_call(mut op: impl FnMut()) -> f64 {
    op();
    let mut batch = 1usize;
    loop {
        let started = Instant::now();
        for _ in 0..batch {
            op();
        }
        if started.elapsed() >= Duration::from_micros(200) || batch >= 1 << 20 {
            break;
        }
        batch *= 2;
    }
    let deadline = Instant::now() + PROBE_BUDGET;
    let mut samples = Vec::new();
    while samples.len() < 5 || Instant::now() < deadline {
        let started = Instant::now();
        for _ in 0..batch {
            op();
        }
        samples.push(started.elapsed().as_secs_f64() / batch as f64);
    }
    median(&samples).expect("at least five samples")
}

/// Median of `sample()` over about [`PROBE_BUDGET`], for operations that need
/// untimed preparation: `sample` prepares, times the operation itself and
/// returns its seconds.
fn time_samples(mut sample: impl FnMut() -> f64) -> f64 {
    let deadline = Instant::now() + PROBE_BUDGET;
    let mut samples = Vec::new();
    while samples.len() < 5 || Instant::now() < deadline {
        samples.push(sample());
    }
    median(&samples).expect("at least five samples")
}

fn timed<R>(op: impl FnOnce() -> R) -> f64 {
    let started = Instant::now();
    black_box(op());
    started.elapsed().as_secs_f64()
}

fn random_vec(rng: &mut StdRng, len: usize) -> Vec<f32> {
    (0..len).map(|_| rng.gen_range(-1.0f32..1.0)).collect()
}

/// The per-layer metrics the probes produce, by metric name.
pub type ProbeReport = Vec<(&'static str, Option<f64>)>;

struct Shapes<'a> {
    workload: &'a Workload,
    model: &'a TransformerModel,
    config: ModelConfig,
    request: std::sync::Arc<GenRequest>,
    /// Budgeted capacity for the prompt: the live cache size decode holds.
    budget: CacheBudget,
}

impl Shapes<'_> {
    fn live(&self) -> usize {
        self.budget.capacity()
    }

    fn width(&self) -> usize {
        self.config.d_model
    }

    fn pool(&self) -> SharedBlockPool {
        SharedBlockPool::unbounded(self.workload.block_size())
    }

    /// One layer's cache at `dtype` holding `rows` random tokens.
    fn layer_cache(&self, rng: &mut StdRng, dtype: KvDtype, rows: usize) -> LayerKvCache {
        let mut cache = LayerKvCache::with_pool_dtype(
            self.config.num_heads,
            self.config.head_dim(),
            self.pool(),
            dtype,
        );
        for position in 0..rows {
            let (k, v) = (random_vec(rng, self.width()), random_vec(rng, self.width()));
            cache
                .append_from_slices(position, &k, &v)
                .expect("an unbounded pool never runs dry");
        }
        cache
    }
}

/// Runs every probe for `workload` on inputs sampled from its seeded stream.
pub fn run(workload: &Workload, seed: u64) -> ProbeReport {
    let model = workload.family.build(MODEL_SEED);
    let request = RequestStream::new(workload, seed, Lane::Foreground, 0).get(0);
    let shapes = Shapes {
        workload,
        model: &model,
        config: *model.config(),
        budget: workload.budget().for_prompt_len(request.prompt.len()),
        request,
    };
    let mut report = Vec::new();
    kf_serve_probes(&shapes, &mut report);
    model_probes(&shapes, &mut report);
    core_probes(&shapes, &mut report);
    tensor_probes(&shapes, &mut report);
    report
}

fn kf_serve_probes(s: &Shapes<'_>, report: &mut ProbeReport) {
    let bytes_per_token = s
        .model
        .empty_cache_dtype(s.workload.kv_dtype)
        .bytes_per_token();
    let node = offline_node(s.workload, bytes_per_token);
    let bytes = http_request_bytes(&s.request);
    let spec = wire_parse(&bytes, &node).expect("generated requests parse");
    report.push((
        "kf_serve.parse_generate_us",
        Some(1e6 * time_call(|| drop(black_box(wire_parse(black_box(&bytes), &node))))),
    ));
    report.push((
        "kf_serve.content_hash_us",
        Some(
            1e6 * time_call(|| {
                black_box(black_box(&spec.key).content_hash());
            }),
        ),
    ));

    // A full cache of distinct keys: every get misses, every insert evicts —
    // the steady state of a server that has seen more than 256 requests.
    let mut cache = ResultCache::new(node.config.cache_capacity, node.config.cache_ttl_ms);
    let keys: Vec<_> = (0..2 * node.config.cache_capacity as u32)
        .map(|i| {
            let mut key = spec.key.clone();
            key.prompt[0] = i;
            key
        })
        .collect();
    let value = CachedResult {
        tokens: vec![17; s.request.max_new_tokens],
        prompt_len: s.request.prompt.len(),
    };
    for key in &keys[..node.config.cache_capacity] {
        cache.insert(key.clone(), value.clone(), 0);
    }
    let mut at = node.config.cache_capacity;
    report.push((
        "kf_serve.cache_get_insert_us",
        Some(
            1e6 * time_call(|| {
                let key = &keys[at % keys.len()];
                at += 1;
                black_box(cache.get(key, 0));
                cache.insert(key.clone(), value.clone(), 0);
            }),
        ),
    ));

    let snapshot = StreamSnapshot {
        new_tokens: vec![517],
        state: JobState::Running,
        deduplicated: false,
        error: None,
    };
    let mut sink: Vec<u8> = Vec::with_capacity(256);
    report.push((
        "kf_serve.stream_event_us",
        Some(
            1e6 * time_call(|| {
                sink.clear();
                for line in api::stream_event(black_box(&snapshot), 7) {
                    http::write_chunk(&mut sink, &format!("{line}\n")).expect("a Vec sink");
                }
                black_box(&sink);
            }),
        ),
    ));

    // One job's life in table operations: create, start, a push per token,
    // finish, read — reported per operation.
    let table = JobTable::new(s.workload.retained_jobs);
    let tokens = s.request.max_new_tokens;
    let per_job = time_call(|| {
        let job = table.create(s.request.prompt.len(), None, JobState::Queued);
        table.update(job, |r, _| r.state = JobState::Running);
        for t in 0..tokens {
            table.update(job, |r, _| r.tokens.push(t as u32));
        }
        table.update(job, |r, c| {
            r.state = JobState::Done;
            c.completed += 1;
        });
        black_box(table.with_job(job, |r| r.tokens.len()));
    });
    report.push((
        "kf_serve.job_table_us",
        Some(1e6 * per_job / (tokens + 4) as f64),
    ));
}

fn prefilled_session<'m>(s: &Shapes<'m>) -> Session<'m> {
    let mut session = solo_session(s.model, s.workload, &s.request);
    session
        .begin(
            &s.request.prompt,
            &GenerationConfig::new(s.request.max_new_tokens),
        )
        .expect("generated prompts are valid");
    while session.is_prefilling() {
        session
            .advance_prefill()
            .expect("solo prefill cannot stall");
    }
    session
}

fn model_probes(s: &Shapes<'_>, report: &mut ProbeReport) {
    let prompt_len = s.request.prompt.len();
    let generation = GenerationConfig::new(s.request.max_new_tokens);
    // Construction + arming only: a chunk keeps `begin` from running the
    // prompt itself.
    let arm_chunk = s.workload.prefill_chunk.unwrap_or(prompt_len);
    report.push((
        "model.session_begin_us",
        Some(
            1e6 * time_call(|| {
                let mut session = solo_session(s.model, s.workload, &s.request);
                session.set_prefill_chunk(Some(arm_chunk));
                session
                    .begin(&s.request.prompt, &generation)
                    .expect("generated prompts are valid");
                black_box(&session);
            }),
        ),
    ));
    let prefill = time_call(|| drop(black_box(prefilled_session(s))));
    report.push((
        "model.prefill_tokens_per_s",
        Some(prompt_len as f64 / prefill),
    ));

    // Decode steps at the steady live size, timed one by one across as many
    // sessions as the budget allows (the final step runs no forward pass).
    let deadline = Instant::now() + 2 * PROBE_BUDGET;
    let mut steps = Vec::new();
    while steps.is_empty() || Instant::now() < deadline {
        let mut session = prefilled_session(s);
        for _ in 1..s.request.max_new_tokens {
            let started = Instant::now();
            black_box(session.step().expect("solo decode cannot fail"));
            steps.push(started.elapsed().as_secs_f64());
        }
    }
    let step = median(&steps).expect("at least one decode step");
    report.push(("model.decode_step_us", Some(1e6 * step)));
    let shape = ModelShape {
        name: "benchmarked",
        d_model: s.config.d_model,
        num_layers: s.config.num_layers,
        num_heads: s.config.num_heads,
        d_ff: s.config.d_ff,
        vocab_size: s.config.vocab_size,
        bytes_per_element: s.workload.kv_dtype.bytes_per_value(),
    };
    // Computed from the model's sizes, not measured: FLOPs of one token at
    // the steady live size over the measured step time, and the KV bytes one
    // token's attention reads.
    report.push((
        "model.decode_gflops_computed",
        Some(shape.flops_per_token(s.live()) / step / 1e9),
    ));
    report.push((
        "model.kv_bytes_read_per_token_computed",
        Some(shape.kv_cache_bytes(s.live(), 1, 1) as f64),
    ));
}

fn core_probes(s: &Shapes<'_>, report: &mut ProbeReport) {
    let mut rng = StdRng::seed_from_u64(0x636f_7265);
    let dtype = s.workload.kv_dtype;
    let (live, width, layers) = (s.live(), s.width(), s.config.num_layers);
    let (heads, head_dim) = (s.config.num_heads, s.config.head_dim());
    let block = s.workload.block_size();
    let (k_row, v_row) = (random_vec(&mut rng, width), random_vec(&mut rng, width));

    // Appends timed one by one and split by whether they fill (and, at u8,
    // quantize-seal) their block.
    let (mut plain, mut sealing) = (Vec::new(), Vec::new());
    let deadline = Instant::now() + PROBE_BUDGET;
    while Instant::now() < deadline {
        let mut cache = s.layer_cache(&mut rng, dtype, 0);
        for position in 0..live.max(2 * block) {
            let fills = position % block == block - 1;
            let started = Instant::now();
            cache
                .append_from_slices(position, &k_row, &v_row)
                .expect("an unbounded pool never runs dry");
            let took = started.elapsed().as_secs_f64();
            if fills { &mut sealing } else { &mut plain }.push(took);
        }
    }
    report.push(("core.append_us", median(&plain).map(|t| 1e6 * t)));
    report.push((
        "core.append_seal_us",
        (dtype == KvDtype::U8)
            .then(|| median(&sealing).map(|t| 1e6 * t))
            .flatten(),
    ));

    // Decode-time eviction: one slot leaves a cache one over capacity.
    let mut cache = s.layer_cache(&mut rng, dtype, live);
    let victim = live / 3;
    let retained: Vec<usize> = (0..=live).filter(|&slot| slot != victim).collect();
    let mut position = live;
    report.push((
        "core.retain_slots_us",
        Some(
            1e6 * time_samples(|| {
                cache
                    .append_from_slices(position, &k_row, &v_row)
                    .expect("an unbounded pool never runs dry");
                position += 1;
                timed(|| cache.retain_slots(&retained).expect("a valid selection"))
            }),
        ),
    ));

    // Keyformer's per-token work over all layers: observe every head's
    // logits, select the survivors, compact the score state.
    let logits = random_vec(&mut rng, live + 1);
    let mut policy = s.workload.policy().build().expect("the policy builds");
    let observe = |policy: &mut dyn KvCachePolicy, layer: usize, phase: Phase, logits: &[f32]| {
        for head in 0..heads {
            policy.observe(&AttentionObservation {
                layer,
                head,
                phase,
                step: 1,
                total_steps: s.request.max_new_tokens,
                logits,
            });
        }
    };
    for layer in 0..layers {
        observe(policy.as_mut(), layer, Phase::Generation, &logits[..live]);
    }
    report.push((
        "core.policy_step_us",
        Some(
            1e6 * time_call(|| {
                for layer in 0..layers {
                    observe(policy.as_mut(), layer, Phase::Generation, &logits);
                    let kept = policy.select_retained(layer, live + 1, &s.budget);
                    policy.compact(layer, &kept);
                }
            }),
        ),
    ));

    // End-of-prompt eviction, all layers: select n/2 of n, compact the cache.
    let prompt_len = s.request.prompt.len();
    let prompt_logits = random_vec(&mut rng, prompt_len);
    report.push((
        "core.prompt_evict_ms",
        Some(
            1e3 * time_samples(|| {
                let mut policy = s.workload.policy().build().expect("the policy builds");
                let mut caches: Vec<LayerKvCache> = (0..layers)
                    .map(|layer| {
                        observe(policy.as_mut(), layer, Phase::Prompt, &prompt_logits);
                        s.layer_cache(&mut rng, dtype, prompt_len)
                    })
                    .collect();
                timed(|| {
                    for (layer, cache) in caches.iter_mut().enumerate() {
                        let kept = policy.select_retained(layer, prompt_len, &s.budget);
                        cache.retain_slots(&kept).expect("a valid selection");
                        policy.compact(layer, &kept);
                    }
                })
            }),
        ),
    ));

    // One token's attention reads over the block table, all layers: key rows
    // (dequantized on the fly at u8) and the probability-weighted value sum.
    let cache = s.layer_cache(&mut rng, dtype, live);
    let query = random_vec(&mut rng, head_dim);
    let probs = vec![1.0 / live as f32; live];
    let (mut scratch, mut out) = (vec![0.0f32; head_dim], vec![0.0f32; head_dim]);
    let mut scores = vec![0.0f32; live];
    let attn_read = 1e6
        * time_call(|| {
            for _ in 0..layers {
                for head in 0..heads {
                    cache.keys(head).for_each_row(&mut scratch, |slot, row| {
                        scores[slot] = dot(&query, row);
                    });
                    cache
                        .values(head)
                        .vecmat_into(&probs, &mut out, &mut scratch)
                        .expect("matching shapes");
                }
            }
            black_box((&scores, &out));
        });
    report.push((
        "core.attn_read_us",
        (dtype == KvDtype::F32).then_some(attn_read),
    ));
    report.push((
        "core.attn_read_u8_us",
        (dtype == KvDtype::U8).then_some(attn_read),
    ));

    // RoPE key-cache upkeep per token, all layers: a top-up after the append
    // and a rebuild from the evicted slot's block onwards after compaction.
    let rotated = (s.config.positional == PositionalEncoding::Rope).then(|| {
        let mut cache = s.layer_cache(&mut rng, dtype, live);
        let mut rot = RotatedKeyCache::new(heads, head_dim, block);
        let scale = s.config.rope_scale;
        let mut position = live;
        let mut sync = |cache: &LayerKvCache| {
            let positions = cache.positions();
            timed(|| {
                rot.sync(cache, |row, slot| {
                    apply_rope_scaled(row, positions[slot] as f32 * scale, ROPE_BASE);
                })
            })
        };
        sync(&cache);
        let pair = time_samples(|| {
            cache
                .append_from_slices(position, &k_row, &v_row)
                .expect("an unbounded pool never runs dry");
            position += 1;
            let after_append = sync(&cache);
            cache.retain_slots(&retained).expect("a valid selection");
            after_append + sync(&cache)
        });
        1e6 * pair * layers as f64
    });
    report.push(("core.rotated_sync_us", rotated));

    let pool = SharedBlockPool::bounded(block, 1024, OvercommitPolicy::AllowTransient)
        .expect("a valid pool");
    report.push((
        "core.pool_alloc_release_ns",
        Some(
            1e9 * time_call(|| {
                let id = pool.alloc().expect("the pool has room");
                pool.release(black_box(id)).expect("a live block");
            }),
        ),
    ));

    let (attach, register) = if s.workload.prefix_sharing {
        let (a, r) = prefix_probes(s);
        (Some(a), Some(r))
    } else {
        (None, None)
    };
    report.push(("core.prefix_match_attach_us", attach));
    report.push(("core.prefix_register_us", register));
}

/// `match_tokens` + `attach` of the whole shared prefix into an empty cache,
/// and `register` of one prefix block, against a registry a donor session
/// filled by prefilling the prefix.
fn prefix_probes(s: &Shapes<'_>) -> (f64, f64) {
    let block = s.workload.block_size();
    let pool = SharedBlockPool::bounded(block, 1 << 16, OvercommitPolicy::AllowTransient)
        .expect("a valid pool");
    let registry = SharedPrefixRegistry::new(&pool);
    let spec = s.workload.policy();
    let context = policy_context(&spec);
    let prompt = &s.request.prompt;
    let chunk = s.workload.prefill_chunk.unwrap_or(block);
    // The donor stops before the end-of-prompt eviction, so its cache still
    // holds the prefix blocks undisturbed.
    let shared = (prompt.len() - 1) / chunk * chunk;
    let mut donor = Session::with_pool_dtype(
        s.model,
        spec.build().expect("the policy builds"),
        Some(s.workload.budget()),
        pool.clone(),
        s.workload.kv_dtype,
    );
    donor.set_prefill_chunk(Some(chunk));
    donor.set_prefix_registry(registry.clone(), context);
    donor
        .begin_with_prefix(prompt, &GenerationConfig::new(s.request.max_new_tokens))
        .expect("generated prompts are valid");
    let mut done = 0;
    while done < shared {
        done += donor
            .advance_prefill()
            .expect("the pool has room")
            .processed;
    }
    let attachable = (prompt.len() - 1) / block * block;
    let attach = time_samples(|| {
        let mut cache = s
            .model
            .empty_cache_in_dtype(pool.clone(), s.workload.kv_dtype);
        timed(|| {
            let matched = registry.match_tokens(context, &prompt[..attachable]);
            registry
                .attach(context, &prompt[..matched], &mut cache)
                .expect("the cache is empty and of this pool")
        })
    });
    let policy = spec.build().expect("the policy builds");
    let blocks = shared / block;
    let chain = time_samples(|| {
        registry.clear();
        timed(|| {
            for depth in 1..=blocks {
                registry
                    .register(
                        context,
                        &prompt[..depth * block],
                        donor.cache(),
                        policy.as_ref(),
                    )
                    .expect("the donor holds the prefix");
            }
        })
    });
    (1e6 * attach, 1e6 * chain / blocks as f64)
}

fn tensor_probes(s: &Shapes<'_>, report: &mut ProbeReport) {
    let mut rng = StdRng::seed_from_u64(0x7465_6e73);
    let (d, d_ff, vocab) = (s.config.d_model, s.config.d_ff, s.config.vocab_size);
    // The three matvec shapes of one decode step: projections, FFN, readout.
    let weights: Vec<Matrix> = [(d, d), (d_ff, d), (vocab, d)]
        .iter()
        .enumerate()
        .map(|(i, &(rows, cols))| uniform_matrix(rows, cols, 0.1, i as u64 + 1))
        .collect();
    let x = random_vec(&mut rng, d);
    let mut out = Vec::new();
    let matvec = time_call(|| {
        for w in &weights {
            w.matvec_into(black_box(&x), &mut out)
                .expect("matching shapes");
            black_box(&out);
        }
    });
    let matvec_flops = 2.0 * (d * d + d_ff * d + vocab * d) as f64;
    report.push(("tensor.matvec_gflops", Some(matvec_flops / matvec / 1e9)));

    // The prefill GEMM: one chunk of activations through the FFN up-projection.
    let chunk = s.workload.prefill_chunk.unwrap_or(s.request.prompt.len());
    let activations = uniform_matrix(chunk, d, 1.0, 11);
    let up = uniform_matrix(d, d_ff, 0.1, 12);
    let matmul = time_call(|| {
        activations.matmul_into(black_box(&up), &mut out);
        black_box(&out);
    });
    report.push((
        "tensor.matmul_gflops",
        Some(2.0 * (chunk * d * d_ff) as f64 / matmul / 1e9),
    ));

    let live = s.live();
    let logits = random_vec(&mut rng, live + 1);
    let mut probs = Vec::new();
    let softmax = time_call(|| {
        softmax_into(black_box(&logits), &mut probs);
        black_box(&probs);
    });
    report.push((
        "tensor.softmax_ns_per_elem",
        Some(1e9 * softmax / (live + 1) as f64),
    ));
    report.push((
        "tensor.topk_us",
        Some(1e6 * time_call(|| drop(black_box(top_k_indices(black_box(&logits), live))))),
    ));
}
