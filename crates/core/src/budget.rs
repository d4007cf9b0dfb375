//! KV-cache budgets: how many slots survive and how many of those are a recent window.

use crate::CoreError;

/// An absolute per-layer KV-cache budget.
///
/// `capacity` is the paper's `k` (total retained slots) and `recent_window` is `w`
/// (the most recent tokens that are always kept). The remaining `k - w` slots are the
/// *key token* window filled by the policy's score function.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheBudget {
    capacity: usize,
    recent_window: usize,
}

impl CacheBudget {
    /// Creates a budget of `capacity` slots of which `recent_window` are reserved for
    /// the most recent tokens.
    ///
    /// # Panics
    ///
    /// Panics if `capacity == 0` or `recent_window > capacity`. Use
    /// [`CacheBudget::try_new`] for a fallible constructor.
    pub fn new(capacity: usize, recent_window: usize) -> Self {
        Self::try_new(capacity, recent_window).expect("invalid cache budget")
    }

    /// Fallible constructor.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidConfig`] if `capacity == 0` or
    /// `recent_window > capacity`.
    pub fn try_new(capacity: usize, recent_window: usize) -> Result<Self, CoreError> {
        if capacity == 0 {
            return Err(CoreError::InvalidConfig(
                "cache capacity must be at least 1".into(),
            ));
        }
        if recent_window > capacity {
            return Err(CoreError::InvalidConfig(format!(
                "recent window {recent_window} exceeds capacity {capacity}"
            )));
        }
        Ok(CacheBudget {
            capacity,
            recent_window,
        })
    }

    /// Total number of retained slots (`k`).
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Number of slots reserved for the most recent tokens (`w`).
    pub fn recent_window(&self) -> usize {
        self.recent_window
    }

    /// Returns `true` when a cache currently holding `live` slots must be reduced.
    pub fn needs_eviction(&self, live: usize) -> bool {
        live > self.capacity
    }
}

/// The least capacity [`CacheBudgetSpec::for_prompt_len`] derives.
const MIN_CAPACITY: usize = 4;

/// A relative budget specification, expressed the way the paper sweeps it: the KV
/// cache is a *fraction* of the prompt length, and the recent window is a *ratio* of
/// the resulting capacity.
///
/// ```
/// use keyformer_core::budget::CacheBudgetSpec;
///
/// // "50% KV cache, 30% recent ratio" applied to a 400-token prompt.
/// let spec = CacheBudgetSpec::new(0.5, 0.3).unwrap();
/// let budget = spec.for_prompt_len(400);
/// assert_eq!(budget.capacity(), 200);
/// assert_eq!(budget.recent_window(), 60);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CacheBudgetSpec {
    cache_fraction: f64,
    recent_ratio: f64,
}

impl CacheBudgetSpec {
    /// Default recent-token ratio used throughout the paper's main experiments.
    pub const DEFAULT_RECENT_RATIO: f64 = 0.3;

    /// Creates a spec with the given KV-cache fraction (of prompt length) and recent
    /// ratio (of the resulting capacity).
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidConfig`] unless both values lie in `(0, 1]`.
    pub fn new(cache_fraction: f64, recent_ratio: f64) -> Result<Self, CoreError> {
        if !(cache_fraction > 0.0 && cache_fraction <= 1.0) {
            return Err(CoreError::InvalidConfig(format!(
                "cache fraction {cache_fraction} must be in (0, 1]"
            )));
        }
        if !(recent_ratio > 0.0 && recent_ratio <= 1.0) {
            return Err(CoreError::InvalidConfig(format!(
                "recent ratio {recent_ratio} must be in (0, 1]"
            )));
        }
        Ok(CacheBudgetSpec {
            cache_fraction,
            recent_ratio,
        })
    }

    /// Convenience constructor with the paper's default recent ratio.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidConfig`] if `cache_fraction` is outside `(0, 1]`.
    pub fn with_fraction(cache_fraction: f64) -> Result<Self, CoreError> {
        Self::new(cache_fraction, Self::DEFAULT_RECENT_RATIO)
    }

    /// KV-cache fraction of the prompt length.
    pub fn cache_fraction(&self) -> f64 {
        self.cache_fraction
    }

    /// Recent-window ratio of the capacity.
    pub fn recent_ratio(&self) -> f64 {
        self.recent_ratio
    }

    /// Materialises an absolute [`CacheBudget`] for a prompt of `prompt_len` tokens.
    ///
    /// The capacity is `ceil(cache_fraction * prompt_len)` clamped to
    /// `[4, prompt_len.max(4)]`, so tiny prompts never get degenerate budgets;
    /// the recent window is `round(recent_ratio * capacity)` clamped to
    /// `[1, capacity]`.
    pub fn for_prompt_len(&self, prompt_len: usize) -> CacheBudget {
        let raw = (self.cache_fraction * prompt_len as f64).ceil() as usize;
        let capacity = raw.max(MIN_CAPACITY);
        let recent = ((self.recent_ratio * capacity as f64).round() as usize).clamp(1, capacity);
        CacheBudget::new(capacity, recent)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn budget_accessors() {
        let b = CacheBudget::new(10, 3);
        assert_eq!(b.capacity(), 10);
        assert_eq!(b.recent_window(), 3);
        assert!(b.needs_eviction(11));
        assert!(!b.needs_eviction(10));
    }

    #[test]
    fn budget_rejects_bad_shapes() {
        assert!(CacheBudget::try_new(0, 0).is_err());
        assert!(CacheBudget::try_new(4, 5).is_err());
        assert!(CacheBudget::try_new(4, 4).is_ok());
    }

    #[test]
    fn spec_rejects_out_of_range_fractions() {
        assert!(CacheBudgetSpec::new(0.0, 0.3).is_err());
        assert!(CacheBudgetSpec::new(1.1, 0.3).is_err());
        assert!(CacheBudgetSpec::new(0.5, 0.0).is_err());
        assert!(CacheBudgetSpec::new(0.5, 1.5).is_err());
        assert!(CacheBudgetSpec::new(1.0, 1.0).is_ok());
    }

    #[test]
    fn spec_materialises_expected_budget() {
        let spec = CacheBudgetSpec::new(0.5, 0.2).unwrap();
        let b = spec.for_prompt_len(1000);
        assert_eq!(b.capacity(), 500);
        assert_eq!(b.recent_window(), 100);
    }

    #[test]
    fn spec_clamps_tiny_prompts() {
        let spec = CacheBudgetSpec::new(0.1, 0.3).unwrap();
        let b = spec.for_prompt_len(10);
        assert_eq!(b.capacity(), MIN_CAPACITY);
        assert!(b.recent_window() >= 1);
    }

    #[test]
    fn default_recent_ratio_constructor() {
        let spec = CacheBudgetSpec::with_fraction(0.7).unwrap();
        assert!((spec.recent_ratio() - CacheBudgetSpec::DEFAULT_RECENT_RATIO).abs() < 1e-12);
        assert!((spec.cache_fraction() - 0.7).abs() < 1e-12);
    }
}
