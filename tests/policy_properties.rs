//! Property-based tests on the cache-policy invariants that every experiment relies
//! on: selections are valid (sorted, unique, in-bounds, right-sized), recent windows
//! are always retained, every zoo member selects exactly what the sort-and-merge
//! reference rules below select, compaction keeps policies and caches consistent,
//! and ROUGE stays within [0, 1].

use keyformer::core::accumulator::ScoreScope;
use keyformer::core::budget::CacheBudget;
use keyformer::core::observation::{AttentionObservation, Phase};
use keyformer::core::policy::KvCachePolicy;
use keyformer::core::spec::PolicySpec;
use keyformer::core::{KeyformerConfig, ScoredPolicy};
use keyformer::text::rouge::rouge_scores;
use proptest::prelude::*;

fn all_policies() -> Vec<PolicySpec> {
    vec![
        PolicySpec::Full,
        PolicySpec::Window,
        PolicySpec::DilatedWindow { dilation: 1 },
        PolicySpec::KeyOnly,
        PolicySpec::h2o_default(),
        PolicySpec::Damped { alpha: 0.9 },
        PolicySpec::streaming_default(),
        PolicySpec::keyformer_default(),
    ]
}

/// Every policy's selection rule in its sort-and-merge form: a full sort for
/// the key tokens, then a keep mask merged with the recent window. The
/// policies select in linear time without allocating; these are what they
/// must reproduce, slot for slot.
mod reference {
    use keyformer::core::budget::CacheBudget;
    use std::cmp::Ordering;

    fn cmp_score(a: f32, b: f32) -> Ordering {
        match (a.is_nan(), b.is_nan()) {
            (true, true) => Ordering::Equal,
            (true, false) => Ordering::Less,
            (false, true) => Ordering::Greater,
            (false, false) => a.partial_cmp(&b).unwrap_or(Ordering::Equal),
        }
    }

    /// The `k` best slots by a full sort: descending score, NaN last, ties
    /// to the earlier index; returned in ascending index order.
    pub fn top_k(scores: &[f32], k: usize) -> Vec<usize> {
        if k == 0 || scores.is_empty() {
            return Vec::new();
        }
        let k = k.min(scores.len());
        let mut order: Vec<usize> = (0..scores.len()).collect();
        order.sort_by(|&a, &b| cmp_score(scores[b], scores[a]).then_with(|| a.cmp(&b)));
        let mut selected: Vec<usize> = order.into_iter().take(k).collect();
        selected.sort_unstable();
        selected
    }

    /// Merges key slots with the recent window; tops up with the best
    /// remaining slots, or drops the worst non-recent ones, to hit `target`.
    fn merge(
        key_slots: &[usize],
        live: usize,
        target: usize,
        recent_window: usize,
        scores: &[f32],
    ) -> Vec<usize> {
        let target = target.min(live);
        let mut keep = vec![false; live];
        for &s in key_slots {
            if s < live {
                keep[s] = true;
            }
        }
        let recent_start = live.saturating_sub(recent_window);
        keep[recent_start..].fill(true);
        let mut selected: Vec<usize> = (0..live).filter(|&i| keep[i]).collect();
        let score = |i: usize| scores.get(i).copied().unwrap_or(0.0);
        if selected.len() > target {
            let mut droppable: Vec<usize> = selected
                .iter()
                .copied()
                .filter(|&i| i < recent_start)
                .collect();
            droppable.sort_by(|&a, &b| score(a).partial_cmp(&score(b)).unwrap_or(Ordering::Equal));
            let mut to_drop = selected.len() - target;
            for idx in droppable {
                if to_drop == 0 {
                    break;
                }
                keep[idx] = false;
                to_drop -= 1;
            }
            selected = (0..live).filter(|&i| keep[i]).collect();
            selected.truncate(target);
        } else if selected.len() < target {
            let mut remaining: Vec<usize> = (0..live).filter(|&i| !keep[i]).collect();
            remaining.sort_by(|&a, &b| {
                score(b)
                    .partial_cmp(&score(a))
                    .unwrap_or(Ordering::Equal)
                    .then_with(|| a.cmp(&b))
            });
            for idx in remaining.into_iter().take(target - selected.len()) {
                keep[idx] = true;
            }
            selected = (0..live).filter(|&i| keep[i]).collect();
        }
        selected
    }

    /// Key-only, H2O, Damped and Keyformer: the recent window (if the
    /// configuration keeps one) plus the top-scoring older slots.
    pub fn scored(scores: &[f32], live: usize, budget: &CacheBudget, window: bool) -> Vec<usize> {
        let target = budget.capacity().min(live);
        let recent = if window {
            budget.recent_window().min(target)
        } else {
            0
        };
        let key_slots = top_k(&scores[..live - recent], target - recent);
        merge(&key_slots, live, target, recent, scores)
    }

    /// Window attention: the newest `capacity` slots.
    pub fn window(live: usize, budget: &CacheBudget) -> Vec<usize> {
        (live.saturating_sub(budget.capacity())..live).collect()
    }

    /// Dilated window: every `dilation + 1`-th slot back from the newest,
    /// topped up with the newest skipped ones.
    pub fn dilated(dilation: usize, live: usize, budget: &CacheBudget) -> Vec<usize> {
        let target = budget.capacity().min(live);
        let stride = dilation + 1;
        let mut picked: Vec<usize> = (0..live).rev().step_by(stride).take(target).collect();
        let mut in_set = vec![false; live];
        for &p in &picked {
            in_set[p] = true;
        }
        for i in (0..live).rev() {
            if picked.len() >= target {
                break;
            }
            if !in_set[i] {
                in_set[i] = true;
                picked.push(i);
            }
        }
        picked.sort_unstable();
        picked
    }

    /// StreamingLLM: the slots at an original position below the sink count,
    /// then the newest others; `positions[slot]` is each live slot's position.
    pub fn streaming(sinks: usize, positions: &[usize], budget: &CacheBudget) -> Vec<usize> {
        let live = positions.len();
        let target = budget.capacity().min(live);
        let sinks = sinks.min(target);
        let mut keep: Vec<bool> = positions.iter().map(|&pos| pos < sinks).collect();
        let mut kept = keep.iter().filter(|&&k| k).count();
        for slot in (0..live).rev() {
            if kept >= target {
                break;
            }
            if !keep[slot] {
                keep[slot] = true;
                kept += 1;
            }
        }
        let mut selected: Vec<usize> = (0..live).filter(|&i| keep[i]).collect();
        selected.truncate(target);
        selected
    }
}

/// The rule a zoo member is held to, with whatever state it needs.
enum Rule {
    /// A scored configuration: a twin fed the same observations and
    /// compactions supplies the scores.
    Scored {
        twin: ScoredPolicy,
        window: bool,
    },
    Full,
    Window,
    Dilated(usize),
    /// Per layer, the original position of every live slot and the next one.
    Streaming {
        sinks: usize,
        positions: Vec<Vec<usize>>,
        next: Vec<usize>,
    },
}

impl Rule {
    fn observe(&mut self, obs: &AttentionObservation<'_>) {
        if let Rule::Scored { twin, .. } = self {
            twin.observe(obs);
        }
    }

    fn select(&mut self, layer: usize, live: usize, budget: &CacheBudget) -> Vec<usize> {
        match self {
            Rule::Scored { twin, window } => {
                reference::scored(&twin.scores(layer, live), live, budget, *window)
            }
            Rule::Full => (0..live).collect(),
            Rule::Window => reference::window(live, budget),
            Rule::Dilated(dilation) => reference::dilated(*dilation, live, budget),
            Rule::Streaming {
                sinks,
                positions,
                next,
            } => {
                let tracked = &mut positions[layer];
                while tracked.len() < live {
                    tracked.push(next[layer]);
                    next[layer] += 1;
                }
                reference::streaming(*sinks, tracked, budget)
            }
        }
    }

    fn compact(&mut self, layer: usize, retained: &[usize]) {
        match self {
            Rule::Scored { twin, .. } => twin.compact(layer, retained),
            Rule::Streaming { positions, .. } => {
                let tracked = &mut positions[layer];
                *tracked = retained.iter().map(|&slot| tracked[slot]).collect();
            }
            _ => {}
        }
    }
}

/// Every zoo member (Keyformer in both scopes) next to the rule it must
/// reproduce.
fn zoo_with_rules(dilation: usize, sinks: usize) -> Vec<(Box<dyn KvCachePolicy>, Rule)> {
    let keyformer = |scope| ScoredPolicy::keyformer(KeyformerConfig::default().with_scope(scope));
    let scored = [
        (keyformer(ScoreScope::PerLayer), true),
        (keyformer(ScoreScope::Shared), true),
        (ScoredPolicy::h2o(ScoreScope::PerLayer), true),
        (ScoredPolicy::damped(0.9).unwrap(), true),
        (ScoredPolicy::key_only(), false),
    ];
    let mut zoo: Vec<(Box<dyn KvCachePolicy>, Rule)> = scored
        .into_iter()
        .map(|(policy, window)| {
            let twin = policy.clone();
            (
                Box::new(policy) as Box<dyn KvCachePolicy>,
                Rule::Scored { twin, window },
            )
        })
        .collect();
    for (spec, rule) in [
        (PolicySpec::Full, Rule::Full),
        (PolicySpec::Window, Rule::Window),
        (
            PolicySpec::DilatedWindow { dilation },
            Rule::Dilated(dilation),
        ),
        (
            PolicySpec::StreamingLlm { sinks },
            Rule::Streaming {
                sinks,
                positions: vec![Vec::new(); 2],
                next: vec![0; 2],
            },
        ),
    ] {
        zoo.push((spec.build().unwrap(), rule));
    }
    zoo
}

/// A logit row with planted values: `plants[i]` picks slot `i`'s logit out of
/// NaN (only where `nan` is set), ties at 1.0, `+0.0` and `-0.0`, `-inf`
/// (a score of exactly 0), far-negative logits whose probabilities are
/// subnormal, or the random `base[i]`.
fn planted_row(base: &[f32], plants: &[u32], len: usize, nan: bool) -> Vec<f32> {
    (0..len)
        .map(|i| match plants[i % plants.len()] {
            0 if nan => f32::NAN,
            1 | 2 => 1.0,
            3 => 0.0,
            4 => -0.0,
            5 => f32::NEG_INFINITY,
            6 => -86.0,
            7 => -95.0,
            _ => base[i % base.len()],
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// At the prompt-end cut and then at the decode shape (`live =
    /// capacity + 1`), on two layers selected before either compacts, every
    /// zoo member's `select_retained_into` equals its sort-and-merge rule.
    /// The logits plant ties, NaN, `±0`, `-inf` and subnormal probabilities,
    /// and the decode row may cover fewer slots than are live (the rest score
    /// zero). One buffer is reused for every selection.
    #[test]
    fn selection_equals_the_sort_and_merge_reference(
        base in proptest::collection::vec(-4.0f32..4.0, 8..96),
        plants in proptest::collection::vec(0u32..16, 1..24),
        capacity in 0usize..96,
        recent in 0usize..96,
        deficit in 0usize..3,
        nan_layer in 0usize..4,
        dilation in 0usize..4,
        sinks in 0usize..6,
    ) {
        let prompt = base.len();
        let capacity = 1 + capacity % (prompt - 1);
        let budget = CacheBudget::new(capacity, recent % (capacity + 1));
        let mut out = Vec::new();
        for (mut policy, mut rule) in zoo_with_rules(dilation, sinks) {
            let name = policy.name();
            let rounds = [
                (Phase::Prompt, prompt, 0),
                (Phase::Generation, capacity + 1, deficit.min(capacity)),
            ];
            for (step, (phase, live, deficit)) in rounds.into_iter().enumerate() {
                for layer in 0..2 {
                    let logits = planted_row(&base, &plants, live - deficit, layer == nan_layer);
                    let obs = AttentionObservation {
                        layer,
                        head: 0,
                        phase,
                        step,
                        total_steps: 16,
                        logits: &logits,
                    };
                    policy.observe(&obs);
                    rule.observe(&obs);
                }
                let mut selections = Vec::new();
                for layer in 0..2 {
                    policy.select_retained_into(layer, live, &budget, &mut out);
                    let want = rule.select(layer, live, &budget);
                    prop_assert!(
                        out == want,
                        "{name} at {phase}, layer {layer}: {out:?} != {want:?}"
                    );
                    selections.push(want);
                }
                for (layer, retained) in selections.iter().enumerate() {
                    policy.compact(layer, retained);
                    rule.compact(layer, retained);
                }
            }
        }
    }

    /// Every policy returns a structurally valid selection of exactly the budgeted
    /// size, and always keeps the most recent slot.
    #[test]
    fn selections_satisfy_the_contract(
        logits in proptest::collection::vec(-4.0f32..4.0, 8..96),
        capacity in 2usize..48,
        recent in 1usize..8,
    ) {
        let live = logits.len();
        let budget = CacheBudget::new(capacity.min(live).max(2), recent.min(capacity.min(live).max(2)));
        for spec in all_policies() {
            let mut policy = spec.build().unwrap();
            policy.observe(&AttentionObservation {
                layer: 0,
                head: 0,
                phase: Phase::Generation,
                step: 1,
                total_steps: 16,
                logits: &logits,
            });
            let selection = policy.select_retained(0, live, &budget);
            // Structural contract.
            keyformer::core::cache::validate_selection(&selection, live).unwrap();
            if spec != PolicySpec::Full {
                prop_assert_eq!(selection.len(), budget.capacity().min(live));
            } else {
                prop_assert_eq!(selection.len(), live);
            }
            // Recency contract: the newest slot always survives (all policies keep
            // at least a window of 1, and full attention keeps everything). KeyOnly
            // has no recent window by design, and StreamingLLM spends its whole
            // budget on sink tokens when the budget is smaller than the sink count.
            let sinks_consume_budget =
                spec == PolicySpec::streaming_default() && budget.capacity() <= 4;
            if spec != PolicySpec::KeyOnly && !sinks_consume_budget {
                prop_assert!(
                    selection.contains(&(live - 1)),
                    "{}: newest slot evicted", spec.label()
                );
            }
        }
    }

    /// Compacting a policy with the selection it just produced never panics and
    /// subsequent selections remain valid for the reduced cache.
    #[test]
    fn compaction_keeps_policies_consistent(
        logits in proptest::collection::vec(-4.0f32..4.0, 16..64),
        rounds in 1usize..4,
    ) {
        for spec in all_policies() {
            let mut policy = spec.build().unwrap();
            let mut live = logits.len();
            for round in 0..rounds {
                let slice = &logits[..live];
                policy.observe(&AttentionObservation {
                    layer: 0,
                    head: 0,
                    phase: Phase::Generation,
                    step: round,
                    total_steps: 8,
                    logits: slice,
                });
                let budget = CacheBudget::new((live / 2).max(2), 1);
                let selection = policy.select_retained(0, live, &budget);
                keyformer::core::cache::validate_selection(&selection, live).unwrap();
                policy.compact(0, &selection);
                live = selection.len().max(2);
            }
        }
    }

    /// ROUGE scores are always within [0, 1] and exact matches score 1.
    #[test]
    fn rouge_is_bounded(
        candidate in proptest::collection::vec(0u32..200, 0..40),
        reference in proptest::collection::vec(0u32..200, 1..40),
    ) {
        let scores = rouge_scores(&candidate, &reference);
        for s in [scores.rouge1, scores.rouge2, scores.rouge_l] {
            prop_assert!((0.0..=1.0).contains(&s.f1));
            prop_assert!((0.0..=1.0).contains(&s.precision));
            prop_assert!((0.0..=1.0).contains(&s.recall));
        }
        let exact = rouge_scores(&reference, &reference);
        prop_assert!((exact.rouge1.f1 - 1.0).abs() < 1e-6);
        prop_assert!((exact.rouge_l.f1 - 1.0).abs() < 1e-6);
    }

    /// Cache budgets derived from a spec never exceed the prompt length by more than
    /// the minimum-capacity floor and always reserve at least one recent slot.
    #[test]
    fn budget_spec_is_well_formed(
        fraction in 0.05f64..1.0,
        ratio in 0.05f64..1.0,
        prompt_len in 1usize..4096,
    ) {
        let spec = keyformer::core::budget::CacheBudgetSpec::new(fraction, ratio).unwrap();
        let budget = spec.for_prompt_len(prompt_len);
        prop_assert!(budget.capacity() >= 1);
        prop_assert!(budget.recent_window() >= 1);
        prop_assert!(budget.recent_window() <= budget.capacity());
        prop_assert!(budget.capacity() <= prompt_len.max(4));
    }
}
