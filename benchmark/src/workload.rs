//! The four workloads: the server configuration each one boots, the traffic
//! shape that drives it, and the seeded request streams.
//!
//! Everything the server sees is derived from `--seed` through
//! [`RequestStream`]; a request is a pure function of `(seed, lane, index)`,
//! so the socket run, the in-process replay and the solo reference runs all
//! regenerate byte-identical requests without sharing state.

use keyformer_core::budget::CacheBudgetSpec;
use keyformer_core::cache::KvDtype;
use keyformer_core::spec::PolicySpec;
use keyformer_model::families::ModelFamily;
use keyformer_serve::{ServerConfig, DEFAULT_SERVE_BLOCK_SIZE};
use keyformer_text::datasets::dialogue::{DialogueDataset, DialogueSpec};
use keyformer_text::datasets::longdoc::{LongDocDataset, LongDocSpec};
use keyformer_text::datasets::summarization::{SummarizationDataset, SummarizationSpec};
use keyformer_text::datasets::{instruction_suffix_len, Sample};
use keyformer_text::vocab::{Vocabulary, NUM_FILLER};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::Arc;
use std::time::Duration;

/// Weight seed of every benchmarked server (the `kf_serve` default).
pub const MODEL_SEED: u64 = 7;
/// Per-session KV budget fraction of every workload (`--budget 0.5`).
pub const BUDGET_FRACTION: f64 = 0.5;
/// Untimed warm-up before every measured window, the same on every commit.
pub const WARMUP: Duration = Duration::from_secs(2);
/// Every n-th request carries `"policy":"full","unbudgeted":true`.
pub const FULL_OVERRIDE_EVERY: usize = 8;
/// Shared prefixes of `shared_prefix_replay`, and their length in tokens (a
/// multiple of the block size, so whole prefixes attach).
const SHARED_PREFIXES: u64 = 4;
const SHARED_PREFIX_TOKENS: usize = 320;
/// Of every ten `shared_prefix_replay` requests, the ones at these offsets
/// replay an earlier request verbatim: a planted 30 % result-cache hit ratio.
const REPLAY_SLOTS: [usize; 3] = [3, 6, 9];
pub const PLANTED_REPLAY_SHARE: f64 = 0.30;
/// A replay copies a request this far back (plus up to `REPLAY_JITTER`), far
/// enough that the original has completed (a hit, never a coalesce) and near
/// enough that the 256-entry result cache still holds it.
const REPLAY_DISTANCE: usize = 8;
const REPLAY_JITTER: u64 = 24;

/// What the prompts of a workload look like.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PromptShape {
    /// `DialogueSpec::small()` samples (113 tokens).
    Dialogue,
    /// `LongDocSpec::paper_default()` samples (988 tokens).
    LongDoc,
    /// One of four seeded 320-token prefixes, then a unique dialogue sample.
    SharedPrefixDialogue,
    /// `SummarizationSpec::small()` samples (134 tokens).
    Summarization,
}

/// Open-loop background traffic: Poisson arrivals at a frozen rate.
#[derive(Debug, Clone, Copy)]
pub struct Background {
    /// Mean arrivals per second. Frozen at about 1.5x the drain rate of the
    /// commit that defined the benchmark; a later benchmark PR raises it when
    /// capacity comes within 10 % of it.
    pub rate_per_s: f64,
    pub new_tokens: usize,
}

/// Which of a workload's two request streams a request belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Lane {
    /// Closed-loop streaming clients; supplies every latency sample.
    Foreground,
    /// Open-loop non-streaming arrivals (`saturated_pool` only).
    Background,
}

/// One workload: server flags, traffic shape and sizes, all frozen.
#[derive(Debug, Clone, Copy)]
pub struct Workload {
    pub name: &'static str,
    pub why: &'static str,
    pub family: ModelFamily,
    family_flag: &'static str,
    pub kv_dtype: KvDtype,
    pub prefill_chunk: Option<usize>,
    pub prefix_sharing: bool,
    pub decode_workers: usize,
    pub preempt_on_arrival: bool,
    pub pool_tokens: usize,
    pub retained_jobs: usize,
    pub shape: PromptShape,
    /// Closed-loop streaming clients.
    pub clients: usize,
    pub fg_priority: u8,
    pub fg_new_tokens: usize,
    /// Draw each foreground reply length from 0.75x to 1.25x `fg_new_tokens`.
    /// Equal-length replies lock two closed-loop clients into step: both
    /// finish in the same batch, both re-submit at once, and TTFT flips
    /// between one prefill and two depending on how the run happened to lock.
    pub vary_reply_length: bool,
    pub background: Option<Background>,
    pub full_overrides: bool,
    pub replays: bool,
    /// Requests at the head of each lane whose token streams are checked
    /// against solo runs, fingerprinted and ROUGE-scored.
    pub fixed_part: usize,
    /// Requests at the head of each lane whose outputs are ROUGE-scored (the
    /// fixed part and beyond; a bigger sample steadies `rouge2_miss` across
    /// seeds at no cost, since scoring needs no reference run). About two
    /// thirds of what a 20 s window completes at the defining commit.
    pub rouge_part: usize,
    /// Foreground requests a 20 s window is expected to complete: three
    /// quarters of the 200 (25 for the long prompts) the sizes were tuned to
    /// yield. Fewer is reported as a thin sample, not as a failure — how fast
    /// the machine was is the metrics' business.
    pub min_samples: usize,
}

pub const WORKLOADS: [Workload; 4] = [
    Workload {
        name: "chat_short",
        why: "interactive chat: per-token decode, policy step and stream writes are nearly all \
              the work; prefill, prefix registry, result cache and preemption do almost none",
        family: ModelFamily::GptJLike,
        family_flag: "gptj",
        kv_dtype: KvDtype::F32,
        prefill_chunk: None,
        prefix_sharing: false,
        decode_workers: 1,
        preempt_on_arrival: false,
        pool_tokens: 4096,
        retained_jobs: 1024,
        shape: PromptShape::Dialogue,
        clients: 2,
        fg_priority: 0,
        // Long enough replies that decode-only steps are over 70 % of the
        // engine's busy time (a 113-token prefill costs about 16 decode steps).
        fg_new_tokens: 128,
        vary_reply_length: true,
        background: None,
        full_overrides: true,
        replays: false,
        fixed_part: 96,
        rouge_part: 176,
        min_samples: 150,
    },
    Workload {
        name: "longctx_summarize",
        why: "the paper's long-context case on the ALiBi path: chunk GEMM, prompt attention, the \
              n-to-n/2 eviction and a 1k-token JSON parse dominate TTFT; decode is the minority",
        family: ModelFamily::MptStorywriterLike,
        family_flag: "storywriter",
        kv_dtype: KvDtype::F32,
        prefill_chunk: Some(128),
        prefix_sharing: false,
        decode_workers: 1,
        preempt_on_arrival: false,
        pool_tokens: 4096,
        retained_jobs: 1024,
        shape: PromptShape::LongDoc,
        clients: 1,
        fg_priority: 0,
        fg_new_tokens: 64,
        vary_reply_length: false,
        background: None,
        full_overrides: false,
        replays: false,
        fixed_part: 8,
        rouge_part: 22,
        min_samples: 20,
    },
    Workload {
        name: "shared_prefix_replay",
        why: "uses prefill differently: most chunks are skipped by prefix attach + CoW and 30 % \
              of requests are exact replays answered by the result cache",
        family: ModelFamily::GptJLike,
        family_flag: "gptj",
        kv_dtype: KvDtype::F32,
        prefill_chunk: Some(32),
        prefix_sharing: true,
        decode_workers: 1,
        preempt_on_arrival: false,
        // The registry may pin half the pool: room for the eight prefix
        // chains (4 prefixes x {default, full-override} policy contexts) plus
        // the unique suffix blocks still ageing out.
        pool_tokens: 8192,
        retained_jobs: 1024,
        shape: PromptShape::SharedPrefixDialogue,
        clients: 2,
        fg_priority: 0,
        fg_new_tokens: 32,
        vary_reply_length: true,
        background: None,
        full_overrides: true,
        replays: true,
        fixed_part: 64,
        rouge_part: 240,
        min_samples: 150,
    },
    Workload {
        name: "saturated_pool",
        why: "the paper's systems claim: the KV pool, not compute, limits admission, so a wide \
              decode batch, a standing queue, preemption and the u8 write path do the work",
        family: ModelFamily::MptLike,
        family_flag: "mpt",
        kv_dtype: KvDtype::U8,
        prefill_chunk: Some(32),
        prefix_sharing: false,
        decode_workers: 2,
        preempt_on_arrival: true,
        // 8 budgeted 134-token sessions reserve 8 x 9 blocks of 8 slots.
        pool_tokens: 640,
        retained_jobs: 8192,
        shape: PromptShape::Summarization,
        clients: 1,
        // Top priority: queued background work gains one level per 16 steps
        // waited, so anything lower is outranked by the standing queue and
        // would measure the growing backlog instead of the scheduler.
        fg_priority: 255,
        // Short replies, so one client yields 200 latency samples a window.
        fg_new_tokens: 8,
        vary_reply_length: false,
        // One prefill chunk runs per step, so a request must live well over
        // 8 x 5 steps for eight of them to overlap: 48 tokens make the pool,
        // not the prefill slot, the limit on concurrency.
        background: Some(Background {
            rate_per_s: 26.0,
            new_tokens: 48,
        }),
        full_overrides: true,
        replays: false,
        fixed_part: 48,
        rouge_part: 128,
        min_samples: 100,
    },
];

pub fn find(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

impl Workload {
    pub fn policy(&self) -> PolicySpec {
        PolicySpec::keyformer_default()
    }

    pub fn budget(&self) -> CacheBudgetSpec {
        CacheBudgetSpec::with_fraction(BUDGET_FRACTION).expect("0.5 is a valid fraction")
    }

    /// The `kf_serve` flags of this workload (without `--addr`).
    pub fn server_flags(&self) -> Vec<String> {
        let mut flags = vec![
            "--family".to_string(),
            self.family_flag.to_string(),
            "--budget".to_string(),
            BUDGET_FRACTION.to_string(),
            "--pool-tokens".to_string(),
            self.pool_tokens.to_string(),
            "--retained-jobs".to_string(),
            self.retained_jobs.to_string(),
        ];
        if let Some(chunk) = self.prefill_chunk {
            flags.extend(["--prefill-chunk".to_string(), chunk.to_string()]);
        }
        if self.kv_dtype == KvDtype::U8 {
            flags.extend(["--kv-dtype".to_string(), "u8".to_string()]);
        }
        if self.decode_workers > 1 {
            flags.extend([
                "--decode-workers".to_string(),
                self.decode_workers.to_string(),
            ]);
        }
        if self.prefix_sharing {
            flags.push("--prefix-sharing".to_string());
        }
        if self.preempt_on_arrival {
            flags.push("--preempt-on-arrival".to_string());
        }
        flags
    }

    /// The engine configuration those flags resolve to, for the in-process
    /// replay (mirrors `kf_serve`'s `main`).
    pub fn engine_config(&self, bytes_per_token: usize) -> ServerConfig {
        let mut config = ServerConfig::new(
            self.policy(),
            Some(self.budget()),
            self.pool_tokens * bytes_per_token,
        )
        .with_decode_workers(self.decode_workers)
        .with_kv_dtype(self.kv_dtype)
        .with_preempt_on_arrival(self.preempt_on_arrival)
        .with_prefix_sharing(self.prefix_sharing);
        if let Some(chunk) = self.prefill_chunk {
            config = config.with_prefill_chunk(chunk);
        }
        config
    }

    pub fn block_size(&self) -> usize {
        DEFAULT_SERVE_BLOCK_SIZE
    }

    /// Prompt length in tokens; every prompt of a workload has the same.
    pub fn prompt_len(&self) -> usize {
        match self.shape {
            PromptShape::Dialogue => DialogueSpec::small().prompt_len(),
            PromptShape::LongDoc => LongDocSpec::paper_default().prompt_len(),
            PromptShape::SharedPrefixDialogue => {
                SHARED_PREFIX_TOKENS + DialogueSpec::small().prompt_len()
            }
            PromptShape::Summarization => {
                let spec = SummarizationSpec::small();
                spec.article_len + 2 + instruction_suffix_len(spec.num_facts)
            }
        }
    }

    /// Lanes this workload drives.
    pub fn lanes(&self) -> &'static [Lane] {
        if self.background.is_some() {
            &[Lane::Foreground, Lane::Background]
        } else {
            &[Lane::Foreground]
        }
    }
}

/// One generated request, ready for the wire.
#[derive(Debug, Clone, PartialEq)]
pub struct GenRequest {
    pub lane: Lane,
    pub index: usize,
    pub prompt: Vec<u32>,
    /// The dataset's reference output, for ROUGE.
    pub reference: Vec<u32>,
    pub max_new_tokens: usize,
    /// Carries the per-request `full` + `unbudgeted` override.
    pub full: bool,
    pub priority: u8,
    /// `Some(i)` when this request replays request `i` of the same lane.
    pub replay_of: Option<usize>,
    /// The JSON object of the generate call (HTTP body; also a valid NDJSON
    /// op line, since it carries `"op":"generate"`).
    pub body: String,
}

fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

fn mix(seed: u64, lane: Lane, index: u64) -> u64 {
    let lane = match lane {
        Lane::Foreground => 0x0f,
        Lane::Background => 0xb6,
    };
    splitmix64(splitmix64(seed ^ (lane << 56)) ^ index)
}

/// The seeded request stream of one lane of one workload.
pub struct RequestStream {
    workload: Workload,
    seed: u64,
    lane: Lane,
    prefixes: Vec<Vec<u32>>,
    prebuilt: Vec<Arc<GenRequest>>,
}

impl RequestStream {
    /// Generates the first `prebuild` requests up front (set-up time, outside
    /// every window); later indices are generated on demand.
    pub fn new(workload: &Workload, seed: u64, lane: Lane, prebuild: usize) -> Self {
        let vocab = Vocabulary::new();
        let prefixes = if workload.shape == PromptShape::SharedPrefixDialogue {
            (0..SHARED_PREFIXES)
                .map(|p| {
                    let mut rng = StdRng::seed_from_u64(mix(seed, lane, u64::MAX - p));
                    (0..SHARED_PREFIX_TOKENS)
                        .map(|_| vocab.filler(rng.gen_range(0..NUM_FILLER)))
                        .collect()
                })
                .collect()
        } else {
            Vec::new()
        };
        let mut stream = RequestStream {
            workload: *workload,
            seed,
            lane,
            prefixes,
            prebuilt: Vec::new(),
        };
        stream.prebuilt = (0..prebuild).map(|i| Arc::new(stream.build(i))).collect();
        stream
    }

    pub fn lane(&self) -> Lane {
        self.lane
    }

    /// Request `index` of this stream.
    pub fn get(&self, index: usize) -> Arc<GenRequest> {
        match self.prebuilt.get(index) {
            Some(request) => Arc::clone(request),
            None => Arc::new(self.build(index)),
        }
    }

    fn replay_source(&self, index: usize) -> Option<usize> {
        if !self.workload.replays
            || !REPLAY_SLOTS.contains(&(index % 10))
            || index <= REPLAY_DISTANCE
        {
            return None;
        }
        // The first few replays have fewer predecessors to choose from.
        let span = REPLAY_JITTER.min((index - REPLAY_DISTANCE) as u64);
        let jitter = mix(self.seed, self.lane, index as u64 ^ (1 << 40)) % span;
        let mut source = index - REPLAY_DISTANCE - jitter as usize;
        // Replay slots are never adjacent, so one step back is a fresh request.
        if REPLAY_SLOTS.contains(&(source % 10)) {
            source -= 1;
        }
        Some(source)
    }

    fn sample(&self, index: usize) -> Sample {
        let seed = mix(self.seed, self.lane, index as u64);
        let mut samples = match self.workload.shape {
            PromptShape::Dialogue | PromptShape::SharedPrefixDialogue => {
                let spec = DialogueSpec {
                    seed,
                    ..DialogueSpec::small()
                };
                DialogueDataset::generate(&spec, 1).samples().to_vec()
            }
            PromptShape::LongDoc => {
                let spec = LongDocSpec {
                    seed,
                    ..LongDocSpec::paper_default()
                };
                LongDocDataset::generate(&spec, 1).samples().to_vec()
            }
            PromptShape::Summarization => {
                let spec = SummarizationSpec {
                    seed,
                    ..SummarizationSpec::small()
                };
                SummarizationDataset::generate(&spec, 1).samples().to_vec()
            }
        };
        samples.pop().expect("one sample was generated")
    }

    fn build(&self, index: usize) -> GenRequest {
        if let Some(source) = self.replay_source(index) {
            let original = self.get(source);
            return GenRequest {
                index,
                replay_of: Some(source),
                ..(*original).clone()
            };
        }
        let sample = self.sample(index);
        let mut prompt = Vec::new();
        if let Some(prefix) = self
            .prefixes
            .get((mix(self.seed, self.lane, index as u64 ^ (1 << 41)) % SHARED_PREFIXES) as usize)
        {
            prompt.extend_from_slice(prefix);
        }
        prompt.extend_from_slice(&sample.prompt);
        let (max_new_tokens, priority, stream) = match (self.lane, self.workload.background) {
            (Lane::Background, Some(bg)) => (bg.new_tokens, 0, false),
            _ => {
                let eighths = if self.workload.vary_reply_length {
                    6 + mix(self.seed, self.lane, index as u64 ^ (1 << 42)) % 5
                } else {
                    8
                };
                (
                    self.workload.fg_new_tokens * eighths as usize / 8,
                    self.workload.fg_priority,
                    true,
                )
            }
        };
        let full =
            self.workload.full_overrides && index % FULL_OVERRIDE_EVERY == FULL_OVERRIDE_EVERY - 1;
        let mut body = String::with_capacity(prompt.len() * 4 + 128);
        body.push_str("{\"op\":\"generate\",\"prompt\":[");
        for (i, token) in prompt.iter().enumerate() {
            if i > 0 {
                body.push(',');
            }
            body.push_str(&token.to_string());
        }
        body.push_str(&format!("],\"max_new_tokens\":{max_new_tokens}"));
        if stream {
            body.push_str(",\"stream\":true");
        }
        if priority > 0 {
            body.push_str(&format!(",\"priority\":{priority}"));
        }
        if full {
            body.push_str(",\"policy\":\"full\",\"unbudgeted\":true");
        }
        body.push('}');
        GenRequest {
            lane: self.lane,
            index,
            prompt,
            reference: sample.reference,
            max_new_tokens,
            full,
            priority,
            replay_of: None,
            body,
        }
    }
}

/// Due times (offsets from the start of the run) of a seeded Poisson arrival
/// process at `rate_per_s`, covering `horizon`.
pub fn poisson_schedule(seed: u64, rate_per_s: f64, horizon: Duration) -> Vec<Duration> {
    let mut rng = StdRng::seed_from_u64(splitmix64(seed ^ 0x706f_6973_736f_6e21));
    let mut due = Vec::new();
    let mut t = 0.0f64;
    loop {
        let u: f64 = rng.gen_range(0.0..1.0);
        t += -(1.0 - u).ln() / rate_per_s;
        if t >= horizon.as_secs_f64() {
            return due;
        }
        due.push(Duration::from_secs_f64(t));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn bodies(workload: &Workload, seed: u64, lane: Lane, n: usize) -> Vec<String> {
        let stream = RequestStream::new(workload, seed, lane, n / 2);
        (0..n).map(|i| stream.get(i).body.clone()).collect()
    }

    #[test]
    fn same_seed_gives_a_byte_identical_stream_and_another_seed_does_not() {
        for workload in &WORKLOADS {
            for &lane in workload.lanes() {
                let a = bodies(workload, 11, lane, 48);
                let b = bodies(workload, 11, lane, 48);
                let c = bodies(workload, 12, lane, 48);
                assert_eq!(a, b, "{} {lane:?}", workload.name);
                assert_ne!(a, c, "{} {lane:?}", workload.name);
            }
        }
    }

    #[test]
    fn prebuilt_and_on_demand_requests_agree() {
        let workload = find("shared_prefix_replay").unwrap();
        let eager = RequestStream::new(workload, 3, Lane::Foreground, 64);
        let lazy = RequestStream::new(workload, 3, Lane::Foreground, 0);
        for i in 0..64 {
            assert_eq!(eager.get(i), lazy.get(i));
        }
    }

    #[test]
    fn prompts_have_the_frozen_shapes() {
        let lens: Vec<usize> = WORKLOADS
            .iter()
            .map(|w| {
                let generated = RequestStream::new(w, 1, Lane::Foreground, 0)
                    .get(0)
                    .prompt
                    .len();
                assert_eq!(generated, w.prompt_len(), "{}", w.name);
                generated
            })
            .collect();
        assert_eq!(lens, vec![113, 988, 433, 134]);
    }

    #[test]
    fn unique_workloads_never_repeat_a_prompt() {
        let stream = RequestStream::new(find("chat_short").unwrap(), 5, Lane::Foreground, 0);
        let mut prompts: Vec<Vec<u32>> = (0..200).map(|i| stream.get(i).prompt.clone()).collect();
        prompts.sort();
        prompts.dedup();
        assert_eq!(prompts.len(), 200);
    }

    #[test]
    fn replays_copy_an_earlier_fresh_request_at_the_planted_share() {
        let stream = RequestStream::new(
            find("shared_prefix_replay").unwrap(),
            9,
            Lane::Foreground,
            0,
        );
        let mut replays = 0;
        for i in 0..1000 {
            let request = stream.get(i);
            if let Some(source) = request.replay_of {
                replays += 1;
                let original = stream.get(source);
                assert!(original.replay_of.is_none());
                assert!(source + REPLAY_DISTANCE <= i && i - source <= 40);
                assert_eq!(request.body, original.body);
            }
        }
        // Every slot from index 9 on (index 3 and 6 have no predecessor far
        // enough back).
        assert_eq!(replays, 298);
    }

    #[test]
    fn every_eighth_request_carries_the_full_override() {
        let stream = RequestStream::new(find("chat_short").unwrap(), 2, Lane::Foreground, 0);
        for i in 0..32 {
            let request = stream.get(i);
            assert_eq!(request.full, i % 8 == 7);
            assert_eq!(request.body.contains("\"unbudgeted\":true"), request.full);
        }
        let longctx =
            RequestStream::new(find("longctx_summarize").unwrap(), 2, Lane::Foreground, 0);
        assert!((0..16).all(|i| !longctx.get(i).full));
    }

    #[test]
    fn varied_reply_lengths_span_three_to_five_quarters_of_the_nominal() {
        let stream = RequestStream::new(find("chat_short").unwrap(), 6, Lane::Foreground, 0);
        let lengths: Vec<usize> = (0..400).map(|i| stream.get(i).max_new_tokens).collect();
        let mut distinct = lengths.clone();
        distinct.sort_unstable();
        distinct.dedup();
        assert_eq!(distinct, vec![96, 112, 128, 144, 160]);
        let mean = lengths.iter().sum::<usize>() as f64 / lengths.len() as f64;
        assert!((mean - 128.0).abs() < 4.0, "mean reply length {mean}");
        let fixed = RequestStream::new(find("longctx_summarize").unwrap(), 6, Lane::Foreground, 0);
        assert!((0..8).all(|i| fixed.get(i).max_new_tokens == 64));
    }

    #[test]
    fn poisson_schedule_is_seeded_sorted_and_near_its_rate() {
        let a = poisson_schedule(4, 50.0, Duration::from_secs(40));
        assert_eq!(a, poisson_schedule(4, 50.0, Duration::from_secs(40)));
        assert_ne!(a, poisson_schedule(5, 50.0, Duration::from_secs(40)));
        assert!(a.windows(2).all(|w| w[0] <= w[1]));
        assert!((1800..2200).contains(&a.len()), "{} arrivals", a.len());
    }
}
