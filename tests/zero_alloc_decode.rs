//! Proof that steady-state decode performs **zero heap allocations per
//! token**.
//!
//! A counting wrapper around the system allocator is installed as the global
//! allocator for this test binary. After a request is admitted
//! (`Session::begin` reserves every monotone-growth buffer for the whole
//! request up front) and a few warm-up decode steps have filled the
//! fixed-capacity scratch buffers and crossed the first block boundary, the
//! counter is armed and several more decode steps run entirely inside one KV
//! block. The assertion is exact: not "few allocations", zero. It holds
//! behind a prompt that fills a block and behind one shorter than its reply.
//!
//! A second test pins the score function: every scored policy (Key-only, H2O,
//! Damped, Keyformer; both accumulation scopes) observes a warmed-up logit row
//! through its own scratch, and compacts its scores in place, without
//! allocating. A third pins the prefill replay: a warmed Keyformer's
//! two-worker `observe_rows` allocates exactly what spawning the second
//! worker does, so the workers themselves allocate nothing.
//!
//! A fourth test pins the eviction data path itself: a single-slot
//! `retain_slots` on a warmed `f32` layer with private blocks, plus the
//! rotated-row hand-off that lets RoPE rows follow their keys, moves rows in
//! place and never touches the allocator either. (A whole Keyformer decode
//! step at budget still allocates the policy's `select_retained` result and
//! its working sets: the score copy, the top-k candidates and the keep mask.)
//!
//! The window deliberately avoids the two places the hot path *is* allowed to
//! allocate: block boundaries (a fresh KV block, its rotated-key entry and a
//! per-block `positions` reservation) and the stats collector (off here, as
//! in serving).

// The GlobalAlloc trait is unsafe to implement; this thin counting wrapper
// delegates straight to the system allocator.
#![allow(unsafe_code)]

use keyformer::core::accumulator::ScoreScope;
use keyformer::core::block::SharedBlockPool;
use keyformer::core::cache::LayerKvCache;
use keyformer::core::observation::{AttentionObservation, ObservationRows, Phase};
use keyformer::core::parallel::fan_out;
use keyformer::core::policy::KvCachePolicy;
use keyformer::core::spec::PolicySpec;
use keyformer::core::{KeyformerConfig, RotatedKeyCache};
use keyformer::model::families::ModelFamily;
use keyformer::model::generation::GenerationConfig;
use keyformer::model::model::TransformerModel;
use keyformer::model::session::Session;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Mutex;

static COUNTING: AtomicBool = AtomicBool::new(false);
static ALLOCATIONS: AtomicUsize = AtomicUsize::new(0);

/// System allocator wrapper that counts allocation events (fresh allocations
/// and reallocations; frees are not counted) while [`COUNTING`] is set.
struct CountingAllocator;

unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        if COUNTING.load(Ordering::Relaxed) {
            ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        }
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        if COUNTING.load(Ordering::Relaxed) {
            ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        }
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        if COUNTING.load(Ordering::Relaxed) {
            ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        }
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOC: CountingAllocator = CountingAllocator;

/// The counter is process-global, so a concurrently running sibling test
/// would pollute the window: every test holds this lock from start to end.
static WINDOW: Mutex<()> = Mutex::new(());

#[test]
fn steady_state_workspace_decode_allocates_nothing() {
    let _window = WINDOW.lock().unwrap_or_else(|e| e.into_inner());
    let model = ModelFamily::Tiny.build(11);
    // (prompt tokens, new tokens, warm-up steps), both with 8 counted steps.
    // A 16-token prompt is one full 16-slot block: its first decode forward
    // opens block 1 (an allowed boundary allocation) and the counted steps
    // append into block 1 (slots 16..=31 — positions 20..=27 here). A
    // 3-token prompt is shorter than its reply: the counted steps append
    // inside block 0 (slots 5..=12), and from slot 6 on a step buffers more
    // observation rows than the whole prompt did, so decode scratch grows
    // past the prefill's.
    for (prompt_len, new_tokens, warm_up) in [(16u32, 14, 4), (3, 14, 2)] {
        // Each request runs on a fresh thread, whose chunk scratch starts
        // empty: no earlier prefill on the thread has grown it.
        std::thread::scope(|scope| {
            scope
                .spawn(|| decode_allocates_nothing(&model, prompt_len, new_tokens, warm_up))
                .join()
                .unwrap()
        });
    }
}

/// Runs one request and asserts that 8 decode steps after `warm_up` steps
/// allocate nothing.
fn decode_allocates_nothing(
    model: &TransformerModel,
    prompt_len: u32,
    new_tokens: usize,
    warm_up: usize,
) {
    let policy = PolicySpec::Full.build().unwrap();
    let mut session = Session::new(model, policy, None);
    // begin() reserves sequence and per-slot scratch for the whole request.
    let prompt: Vec<u32> = (0..prompt_len).map(|i| (i * 7 + 3) % 128).collect();
    let config = GenerationConfig::new(new_tokens);
    session.begin(&prompt, &config).unwrap();
    while session.is_prefilling() {
        session.advance_prefill().unwrap();
    }

    // Warm-up: settles every scratch buffer at its final capacity.
    for _ in 0..warm_up {
        session.step().unwrap();
    }

    ALLOCATIONS.store(0, Ordering::SeqCst);
    COUNTING.store(true, Ordering::SeqCst);
    for _ in 0..8 {
        session.step().unwrap();
    }
    COUNTING.store(false, Ordering::SeqCst);
    let allocations = ALLOCATIONS.load(Ordering::SeqCst);

    assert_eq!(
        allocations, 0,
        "steady-state decode on the workspace path must not touch the \
         allocator; counted {allocations} allocation(s) over 8 steps behind a \
         {prompt_len}-token prompt"
    );

    // The request itself stayed healthy.
    while session.is_decoding() {
        session.step().unwrap();
    }
    let out = session.take_output().unwrap();
    assert_eq!(out.generated.len(), new_tokens);
}

#[test]
fn scored_policy_observe_allocates_nothing() {
    let _window = WINDOW.lock().unwrap_or_else(|e| e.into_inner());
    let c = KeyformerConfig::default();
    let keyformer = |scope| PolicySpec::Keyformer {
        adjustment: c.adjustment,
        temperature: c.temperature,
        scope,
        seed: c.seed,
    };
    let logits: Vec<f32> = (0..97)
        .map(|i| ((i * 11) % 13) as f32 * 0.3 - 1.5)
        .collect();
    for spec in [
        PolicySpec::KeyOnly,
        PolicySpec::h2o_default(),
        PolicySpec::H2O {
            scope: ScoreScope::Shared,
        },
        PolicySpec::Damped { alpha: 0.9 },
        keyformer(ScoreScope::PerLayer),
        keyformer(ScoreScope::Shared),
    ] {
        let mut policy = spec.build().unwrap();
        let observe = |policy: &mut dyn KvCachePolicy, head: usize, step: usize| {
            policy.observe(&AttentionObservation {
                layer: 0,
                head,
                phase: Phase::Generation,
                step,
                total_steps: 16,
                logits: &logits,
            });
        };
        // One warm-up observation sizes the scratch and the score bucket.
        observe(policy.as_mut(), 0, 0);

        let windows = quietest_of_three(|window| {
            for step in 0..8 {
                observe(policy.as_mut(), step % 2, 8 * window + step);
            }
        });
        assert_eq!(
            windows.iter().min(),
            Some(&0),
            "{spec}: a warmed policy must observe without allocating; counted \
             {windows:?} allocation(s) in three windows of 8 observations"
        );

        // Compaction gathers the totals in place: every window drops slot 0.
        let cuts: Vec<Vec<usize>> = (0..3).map(|w| (1..logits.len() - w).collect()).collect();
        let windows = quietest_of_three(|window| policy.compact(0, &cuts[window]));
        assert_eq!(
            windows.iter().min(),
            Some(&0),
            "{spec}: compaction must gather in place; counted {windows:?}"
        );
    }
}

/// Counts the allocations of `work(window)` in three windows. The counter is
/// process-global, and these windows are short enough to overlap the test
/// harness still recording the previous test's result, so callers keep the
/// quietest; code that allocates counts in every window.
fn quietest_of_three(mut work: impl FnMut(usize)) -> Vec<usize> {
    (0..3)
        .map(|window| {
            ALLOCATIONS.store(0, Ordering::SeqCst);
            COUNTING.store(true, Ordering::SeqCst);
            work(window);
            COUNTING.store(false, Ordering::SeqCst);
            ALLOCATIONS.load(Ordering::SeqCst)
        })
        .collect()
}

#[test]
fn parallel_replay_workers_allocate_nothing() {
    let _window = WINDOW.lock().unwrap_or_else(|e| e.into_inner());
    let (layers, heads, tokens) = (4, 4, 8);
    let (mut index, mut data) = (Vec::new(), Vec::new());
    for token in 0..tokens {
        for _ in 0..layers * heads {
            let len = 100 + token;
            index.push((data.len(), len));
            data.extend((0..len).map(|i| ((i * 7 + token) % 19) as f32 * 0.2 - 1.5));
        }
    }
    let rows = ObservationRows {
        phase: Phase::Prompt,
        first_step: 0,
        total_steps: 16,
        num_layers: layers,
        num_heads: heads,
        index: &index,
        data: &data,
    };
    let mut policy = PolicySpec::keyformer_default().build().unwrap();
    // One warm-up run sizes the buckets and both workers' scratch.
    policy.observe_rows(&rows, 2);

    let spawn_only = quietest_of_three(|_| fan_out([(), ()].into_iter(), |()| {}));
    let replay = quietest_of_three(|_| policy.observe_rows(&rows, 2));
    assert_eq!(
        replay.iter().min(),
        spawn_only.iter().min(),
        "a warmed two-worker replay may allocate only what spawning its \
         second worker does: counted {replay:?}, a bare spawn {spawn_only:?}"
    );
}

#[test]
fn single_slot_eviction_with_rotated_hand_off_allocates_nothing() {
    let _window = WINDOW.lock().unwrap_or_else(|e| e.into_inner());
    let (heads, head_dim, block) = (4, 32, 16);
    let mut layer = LayerKvCache::with_pool(heads, head_dim, SharedBlockPool::unbounded(block));
    let row = |pos: usize| -> Vec<f32> {
        (0..heads * head_dim)
            .map(|i| ((pos * 13 + i * 7) % 29) as f32 * 0.07 - 1.0)
            .collect()
    };
    // 44 slots over three private blocks; two evictions keep all three.
    for pos in 0..44 {
        layer
            .append_from_slices(pos, &row(pos), &row(pos + 1))
            .unwrap();
    }
    // A position-keyed stand-in for RoPE at original positions.
    let rotate = |layer: &LayerKvCache, rot: &mut RotatedKeyCache| -> usize {
        let positions = layer.positions();
        let mut rotations = 0;
        rot.sync(layer, |row, slot| {
            rotations += 1;
            for x in row.iter_mut() {
                *x += positions[slot] as f32;
            }
        });
        rotations
    };
    let mut rot = RotatedKeyCache::new(heads, head_dim, block);
    rotate(&layer, &mut rot);
    // Warm-up eviction, then the counted one: a mid-cache victim, so rows
    // move both within a block and across block boundaries.
    let warm: Vec<usize> = (0..44).filter(|&s| s != 20).collect();
    rot.retain_slots(&mut layer, &warm).unwrap();
    let kept: Vec<usize> = (0..43).filter(|&s| s != 5).collect();

    ALLOCATIONS.store(0, Ordering::SeqCst);
    COUNTING.store(true, Ordering::SeqCst);
    rot.retain_slots(&mut layer, &kept).unwrap();
    COUNTING.store(false, Ordering::SeqCst);
    let allocations = ALLOCATIONS.load(Ordering::SeqCst);

    assert_eq!(
        allocations, 0,
        "a single-slot eviction and its rotated-row hand-off must move rows \
         in place; counted {allocations} allocation(s)"
    );
    assert_eq!(layer.len(), 42);
    assert_eq!(rotate(&layer, &mut rot), 0, "the moved rows stay current");
}
