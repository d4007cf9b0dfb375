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
//! behind a prompt that fills a block and behind one shorter than its reply,
//! and at budget: a session at 50 % under Keyformer, H2O or any other
//! evicting member of the zoo evicts one slot per step (observe, select,
//! compact, all layers) without allocating either.
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
//! place and never touches the allocator either. The selection that feeds
//! it reads the scores in place and writes into a buffer the session reuses.
//!
//! The window deliberately avoids the two places the hot path *is* allowed to
//! allocate: block boundaries (a fresh KV block, its rotated-key entry and a
//! per-block `positions` reservation) and the stats collector (off here, as
//! in serving).
//!
//! A window counts the allocations of the measured work and nothing else:
//! those of the thread that opens it, and those of every thread the work
//! spawns. The test harness's own threads allocate whenever they like (to
//! record a result, or to start the next test), so they are never counted.

// The GlobalAlloc trait is unsafe to implement; this thin counting wrapper
// delegates straight to the system allocator.
#![allow(unsafe_code)]

use keyformer::core::accumulator::ScoreScope;
use keyformer::core::block::SharedBlockPool;
use keyformer::core::budget::CacheBudgetSpec;
use keyformer::core::cache::{KvDtype, LayerKvCache};
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
use std::cell::Cell;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Mutex;

static WINDOW_OPEN: AtomicBool = AtomicBool::new(false);
static ALLOCATIONS: AtomicUsize = AtomicUsize::new(0);

/// Whether a thread's allocations count while a window is open.
#[derive(Clone, Copy)]
enum Role {
    /// Has not allocated yet.
    Unseen,
    /// Counted: the thread that opened the window, or one spawned inside it.
    Measured,
    /// Never counted.
    Bystander,
}

thread_local! {
    // `const`-initialised and without a destructor: the allocator can read it
    // at any point of a thread's life without allocating.
    static ROLE: Cell<Role> = const { Cell::new(Role::Unseen) };
}

/// Whether the calling thread's allocation counts. A thread's role is fixed
/// at its first allocation: one made inside an open window by an unnamed
/// thread is the first of a worker the measured work spawned (`fan_out`'s
/// scoped threads have no name, while the test harness names every thread it
/// starts after its test). Every other thread is a bystander until
/// [`count_allocations`] makes it the measured one.
fn counts_here() -> bool {
    ROLE.with(|role| match role.get() {
        Role::Measured => WINDOW_OPEN.load(Ordering::Relaxed),
        Role::Bystander => false,
        Role::Unseen => {
            // Fixed before the name lookup, so an allocation inside it
            // cannot come back here.
            role.set(Role::Bystander);
            let worker =
                WINDOW_OPEN.load(Ordering::Relaxed) && std::thread::current().name().is_none();
            if worker {
                role.set(Role::Measured);
            }
            worker
        }
    })
}

/// System allocator wrapper that counts allocation events (fresh allocations
/// and reallocations; frees are not counted) that [`counts_here`] admits.
struct CountingAllocator;

unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        if counts_here() {
            ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        }
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        if counts_here() {
            ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        }
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        if counts_here() {
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

/// The tally is shared by every measured thread, so two tests' windows must
/// not overlap: every test holds this lock from start to end.
static WINDOW: Mutex<()> = Mutex::new(());

/// Counts the allocations `work` makes on the calling thread and on every
/// thread it spawns.
fn count_allocations(work: impl FnOnce()) -> usize {
    ROLE.with(|role| role.set(Role::Measured));
    ALLOCATIONS.store(0, Ordering::SeqCst);
    WINDOW_OPEN.store(true, Ordering::SeqCst);
    work();
    WINDOW_OPEN.store(false, Ordering::SeqCst);
    ROLE.with(|role| role.set(Role::Bystander));
    ALLOCATIONS.load(Ordering::SeqCst)
}

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
                .spawn(|| {
                    decode_allocates_nothing(
                        &model,
                        &PolicySpec::Full,
                        None,
                        prompt_len,
                        new_tokens,
                        warm_up,
                    )
                })
                .join()
                .unwrap()
        });
    }
}

#[test]
fn decode_step_at_budget_allocates_nothing() {
    let _window = WINDOW.lock().unwrap_or_else(|e| e.into_inner());
    let model = ModelFamily::Tiny.build(11);
    // A 40-token prompt at 50 % keeps 20 slots, 6 of them the recent window:
    // the prompt-end cut drops block 2, and every counted step appends slot
    // 20 into block 1 and evicts one slot back to 20, all inside two blocks.
    let budget = CacheBudgetSpec::with_fraction(0.5).unwrap();
    let c = KeyformerConfig::default();
    let keyformer_shared = PolicySpec::Keyformer {
        adjustment: c.adjustment,
        temperature: c.temperature,
        scope: ScoreScope::Shared,
        seed: c.seed,
    };
    for spec in [
        PolicySpec::keyformer_default(),
        PolicySpec::h2o_default(),
        keyformer_shared,
        PolicySpec::Damped { alpha: 0.9 },
        PolicySpec::KeyOnly,
        PolicySpec::Window,
        PolicySpec::DilatedWindow { dilation: 1 },
        PolicySpec::streaming_default(),
    ] {
        std::thread::scope(|scope| {
            scope
                .spawn(|| decode_allocates_nothing(&model, &spec, Some(budget), 40, 24, 4))
                .join()
                .unwrap()
        });
    }
}

/// Runs one request and asserts that 8 decode steps after `warm_up` steps
/// allocate nothing. With a budget, the cache must be at it throughout.
fn decode_allocates_nothing(
    model: &TransformerModel,
    spec: &PolicySpec,
    budget: Option<CacheBudgetSpec>,
    prompt_len: u32,
    new_tokens: usize,
    warm_up: usize,
) {
    let policy = spec.build().unwrap();
    let mut session = Session::new(model, policy, budget);
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

    let capacity = session.budget().map(|b| b.capacity());
    let mut at_budget = true;
    let allocations = count_allocations(|| {
        for _ in 0..8 {
            session.step().unwrap();
            at_budget &= capacity.is_none_or(|c| session.cache().layer(0).len() == c);
        }
    });

    assert!(
        at_budget,
        "{spec}: every counted step must evict to {capacity:?}"
    );
    assert_eq!(
        allocations, 0,
        "{spec}: steady-state decode on the workspace path must not touch the \
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

        let windows = three_windows(|window| {
            for step in 0..8 {
                observe(policy.as_mut(), step % 2, 8 * window + step);
            }
        });
        assert_eq!(
            windows, [0; 3],
            "{spec}: a warmed policy must observe without allocating; counted \
             {windows:?} allocation(s) in three windows of 8 observations"
        );

        // Compaction gathers the totals in place: every window drops slot 0.
        let cuts: Vec<Vec<usize>> = (0..3).map(|w| (1..logits.len() - w).collect()).collect();
        let windows = three_windows(|window| policy.compact(0, &cuts[window]));
        assert_eq!(
            windows, [0; 3],
            "{spec}: compaction must gather in place; counted {windows:?}"
        );
    }
}

/// Counts the allocations of `work(window)` in each of three windows.
fn three_windows(mut work: impl FnMut(usize)) -> [usize; 3] {
    [0, 1, 2].map(|window| count_allocations(|| work(window)))
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

    let spawn_only = three_windows(|_| fan_out([(), ()].into_iter(), |()| {}));
    let replay = three_windows(|_| policy.observe_rows(&rows, 2));
    assert_eq!(
        replay, spawn_only,
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

    let allocations = count_allocations(|| rot.retain_slots(&mut layer, &kept).unwrap());

    assert_eq!(
        allocations, 0,
        "a single-slot eviction and its rotated-row hand-off must move rows \
         in place; counted {allocations} allocation(s)"
    );
    assert_eq!(layer.len(), 42);
    assert_eq!(rotate(&layer, &mut rot), 0, "the moved rows stay current");
}

#[test]
fn u8_compaction_allocates_per_block_not_per_row() {
    let _window = WINDOW.lock().unwrap_or_else(|e| e.into_inner());
    let (heads, head_dim) = (4, 16);
    let row = |pos: usize| -> Vec<f32> {
        (0..heads * head_dim)
            .map(|i| ((pos * 13 + i * 7) % 29) as f32 * 0.07 - 1.0)
            .collect()
    };
    let counted = |block: usize| -> usize {
        // Four sealed blocks and a half-full f32 tail. The warm-up evicts a
        // slot of block 0; the counted eviction then evicts a slot of block
        // 1, which unseals, rewrites and reseals exactly the three sealed
        // blocks 1, 2 and 3 at either block size.
        let slots = 4 * block + block / 2;
        let warm: Vec<usize> = (0..slots).filter(|&s| s != 1).collect();
        let kept: Vec<usize> = (0..slots - 1).filter(|&s| s != block + 1).collect();
        let mut layers: Vec<LayerKvCache> = (0..3)
            .map(|_| {
                let pool = SharedBlockPool::unbounded(block);
                let mut layer = LayerKvCache::with_pool_dtype(heads, head_dim, pool, KvDtype::U8);
                for pos in 0..slots {
                    layer
                        .append_from_slices(pos, &row(pos), &row(pos + 1))
                        .unwrap();
                }
                layer.retain_slots(&warm).unwrap();
                layer
            })
            .collect();
        let windows = three_windows(|window| layers[window].retain_slots(&kept).unwrap());
        assert!(layers.iter().all(|l| l.len() == slots - 2));
        assert!(
            windows.iter().all(|&w| w == windows[0]),
            "three equal compactions at {block}-slot blocks counted {windows:?}"
        );
        windows[0]
    };
    let (small, large) = (counted(8), counted(32));
    assert_eq!(
        small, large,
        "a u8 compaction must allocate per rewritten block, not per row: \
         {small} allocation(s) at 8-slot blocks, {large} at 32-slot blocks"
    );
}
