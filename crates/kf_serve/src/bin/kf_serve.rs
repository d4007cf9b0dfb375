//! The `kf_serve` binary: boots a serving node over TCP and runs until
//! killed. Every knob of the engine and the dedup layer is a flag; run with
//! `--help` for the list.

use keyformer_core::budget::CacheBudgetSpec;
use keyformer_core::cache::KvDtype;
use keyformer_core::spec::PolicySpec;
use keyformer_model::families::ModelFamily;
use keyformer_serve::ServerConfig;
use kf_serve::api::policy_by_name;
use kf_serve::NodeConfig;

const USAGE: &str = "\
kf_serve: network front-end for the keyformer serving engine

USAGE: kf_serve [FLAGS]

  --addr HOST:PORT        listen address (default 127.0.0.1:8091; port 0 = OS pick)
  --family NAME           tiny | gptj | cerebras | mpt | storywriter (default tiny)
  --model-seed N          weight-initialisation seed (default 7)
  --policy NAME           full | window | dilated | key_only | h2o | damped |
                          streaming_llm | keyformer (default keyformer)
  --budget FRACTION       per-session KV budget fraction in (0, 1] (default 0.5; 0 = unbudgeted)
  --pool-tokens N         KV pool size in token slots at the pool dtype (default 4096)
  --block-size N          token slots per block (engine default when omitted)
  --prefill-chunk N       chunked prefill at N tokens per step (default one-shot)
  --decode-workers N      decode worker threads (default 1)
  --max-concurrency N     cap on concurrently running sessions (default unlimited)
  --kv-dtype NAME         f32 | u8 pool storage precision (default f32)
  --preempt-on-arrival    let high-priority arrivals preempt lower-priority sessions
  --prefix-sharing        enable the shared-prefix registry
  --no-dedup              disable the result cache and request coalescing
  --cache-capacity N      result-cache entries (default 256)
  --cache-ttl-ms N        result-cache TTL in milliseconds (default 60000)
  --retained-jobs N       terminal job records kept pollable (default 1024)
  --max-connections N     concurrent connection threads; excess gets 503 (default 256)
  --ndjson-idle-ms N      NDJSON session idle timeout in ms; 0 = none (default 300000)
";

fn fail(message: &str) -> ! {
    eprintln!("kf_serve: {message}\n\n{USAGE}");
    std::process::exit(2)
}

fn parse_family(name: &str) -> ModelFamily {
    match name {
        "tiny" => ModelFamily::Tiny,
        "gptj" => ModelFamily::GptJLike,
        "cerebras" => ModelFamily::CerebrasLike,
        "mpt" => ModelFamily::MptLike,
        "storywriter" => ModelFamily::MptStorywriterLike,
        other => fail(&format!("unknown family `{other}`")),
    }
}

fn parse_policy(name: &str) -> PolicySpec {
    policy_by_name(name).unwrap_or_else(|| fail(&format!("unknown policy `{name}`")))
}

struct Flags {
    args: Vec<String>,
    at: usize,
}

impl Flags {
    fn next(&mut self) -> Option<String> {
        let arg = self.args.get(self.at).cloned();
        self.at += 1;
        arg
    }

    fn value(&mut self, flag: &str) -> String {
        self.next()
            .unwrap_or_else(|| fail(&format!("{flag} needs a value")))
    }

    fn number<T: std::str::FromStr>(&mut self, flag: &str) -> T {
        let raw = self.value(flag);
        raw.parse()
            .unwrap_or_else(|_| fail(&format!("{flag}: unparsable value {raw:?}")))
    }
}

fn main() {
    let mut flags = Flags {
        args: std::env::args().skip(1).collect(),
        at: 0,
    };
    let mut addr = "127.0.0.1:8091".to_string();
    let mut family = ModelFamily::Tiny;
    let mut model_seed = 7u64;
    let mut policy = PolicySpec::keyformer_default();
    let mut budget_fraction = 0.5f64;
    let mut pool_tokens = 4096usize;
    let mut block_size = None;
    let mut prefill_chunk = None;
    let mut decode_workers = 1usize;
    let mut max_concurrency = None;
    let mut kv_dtype = KvDtype::F32;
    let mut preempt_on_arrival = false;
    let mut prefix_sharing = false;
    let mut dedup = true;
    let mut cache_capacity = 256usize;
    let mut cache_ttl_ms = 60_000u64;
    let mut retained_jobs = 1024usize;
    let mut max_connections = 256usize;
    let mut ndjson_idle_ms = 300_000u64;

    while let Some(flag) = flags.next() {
        match flag.as_str() {
            "--addr" => addr = flags.value("--addr"),
            "--family" => family = parse_family(&flags.value("--family")),
            "--model-seed" => model_seed = flags.number("--model-seed"),
            "--policy" => policy = parse_policy(&flags.value("--policy")),
            "--budget" => budget_fraction = flags.number("--budget"),
            "--pool-tokens" => pool_tokens = flags.number("--pool-tokens"),
            "--block-size" => block_size = Some(flags.number("--block-size")),
            "--prefill-chunk" => prefill_chunk = Some(flags.number("--prefill-chunk")),
            "--decode-workers" => decode_workers = flags.number("--decode-workers"),
            "--max-concurrency" => max_concurrency = Some(flags.number("--max-concurrency")),
            "--kv-dtype" => {
                kv_dtype = match flags.value("--kv-dtype").as_str() {
                    "f32" => KvDtype::F32,
                    "u8" => KvDtype::U8,
                    other => fail(&format!("unknown kv dtype `{other}`")),
                }
            }
            "--preempt-on-arrival" => preempt_on_arrival = true,
            "--prefix-sharing" => prefix_sharing = true,
            "--no-dedup" => dedup = false,
            "--cache-capacity" => cache_capacity = flags.number("--cache-capacity"),
            "--cache-ttl-ms" => cache_ttl_ms = flags.number("--cache-ttl-ms"),
            "--retained-jobs" => retained_jobs = flags.number("--retained-jobs"),
            "--max-connections" => max_connections = flags.number("--max-connections"),
            "--ndjson-idle-ms" => ndjson_idle_ms = flags.number("--ndjson-idle-ms"),
            "--help" | "-h" => {
                println!("{USAGE}");
                return;
            }
            other => fail(&format!("unknown flag `{other}`")),
        }
    }

    // Exactly 0 means unbudgeted; anything else must be a valid fraction (NaN
    // and negatives included, which are not "0").
    let budget = if budget_fraction == 0.0 {
        None
    } else {
        match CacheBudgetSpec::with_fraction(budget_fraction) {
            Ok(budget) => Some(budget),
            Err(e) => fail(&format!("--budget: {e}")),
        }
    };
    // Convert the token-denominated pool size to bytes via the model's
    // per-token KV footprint at the pool dtype.
    let bytes_per_token = family
        .build(model_seed)
        .empty_cache_dtype(kv_dtype)
        .bytes_per_token();
    let Some(pool_bytes) = pool_tokens.checked_mul(bytes_per_token) else {
        fail(&format!(
            "--pool-tokens: {pool_tokens} tokens of {bytes_per_token} B overflow the pool's byte size"
        ))
    };
    let mut engine = ServerConfig::new(policy, budget, pool_bytes)
        .with_decode_workers(decode_workers)
        .with_kv_dtype(kv_dtype)
        .with_preempt_on_arrival(preempt_on_arrival)
        .with_prefix_sharing(prefix_sharing);
    if let Some(size) = block_size {
        engine = engine.with_block_size(size);
    }
    if let Some(chunk) = prefill_chunk {
        engine = engine.with_prefill_chunk(chunk);
    }
    if let Some(max) = max_concurrency {
        engine = engine.with_max_concurrency(max);
    }

    let node = NodeConfig::new(family, model_seed, engine)
        .with_dedup(dedup)
        .with_cache(cache_capacity, cache_ttl_ms)
        .with_retained_jobs(retained_jobs)
        .with_max_connections(max_connections)
        .with_ndjson_idle_timeout(ndjson_idle_ms);
    match kf_serve::serve(&addr, node) {
        Ok(handle) => {
            println!(
                "kf_serve listening on {} (family {family:?}, policy {}, dedup {})",
                handle.local_addr(),
                policy.label(),
                if dedup { "on" } else { "off" },
            );
            handle.wait();
        }
        Err(e) => {
            eprintln!("kf_serve: {e}");
            std::process::exit(1);
        }
    }
}
