//! Temperature schedules for the Keyformer score function.
//!
//! The paper anneals the Gumbel-softmax temperature `τ` linearly from `τ_init` (used
//! throughout the prompt phase, where nothing has been discarded yet) to `τ_end` over
//! the planned text-generation length `T` (Equation 10). Appendix A.8 shows the
//! dynamic schedule beats any static value; both variants are provided here.

use crate::observation::Phase;
use crate::CoreError;

/// A temperature schedule mapping a decode step to the `τ` used by the score function.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum TemperatureSchedule {
    /// A constant temperature for every step (the Appendix A.8 baseline).
    Static(f32),
    /// The paper's linear schedule: `τ = τ_init + t * (τ_end - τ_init) / T` during
    /// generation, and `τ_init` during the prompt phase.
    Linear {
        /// Temperature during the prompt phase and at generation step 0.
        tau_init: f32,
        /// Temperature reached at the end of the planned generation length.
        tau_end: f32,
    },
}

impl Default for TemperatureSchedule {
    /// The paper's empirically best setting: `τ_init = 1`, `τ_end = 2`.
    fn default() -> Self {
        TemperatureSchedule::Linear {
            tau_init: 1.0,
            tau_end: 2.0,
        }
    }
}

impl TemperatureSchedule {
    /// Validates the schedule parameters.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidConfig`] if any temperature is not strictly
    /// positive.
    pub fn validate(&self) -> Result<(), CoreError> {
        let ok = match *self {
            TemperatureSchedule::Static(tau) => tau > 0.0,
            TemperatureSchedule::Linear { tau_init, tau_end } => tau_init > 0.0 && tau_end > 0.0,
        };
        if ok {
            Ok(())
        } else {
            Err(CoreError::InvalidConfig(
                "temperatures must be strictly positive".into(),
            ))
        }
    }

    /// Temperature to use at decode step `step` of a generation of `total_steps`
    /// tokens, in the given `phase`.
    ///
    /// During the prompt phase the linear schedule always returns `tau_init` because
    /// no tokens have been discarded yet. With `total_steps == 0` the schedule
    /// degenerates to `tau_init`.
    pub fn tau(&self, phase: Phase, step: usize, total_steps: usize) -> f32 {
        match *self {
            TemperatureSchedule::Static(tau) => tau,
            TemperatureSchedule::Linear { tau_init, tau_end } => {
                if !phase.is_generation() || total_steps == 0 {
                    tau_init
                } else {
                    let delta = (tau_end - tau_init) / total_steps as f32;
                    let t = step.min(total_steps) as f32;
                    tau_init + t * delta
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn static_schedule_is_constant() {
        let s = TemperatureSchedule::Static(1.5);
        assert_eq!(s.tau(Phase::Prompt, 0, 100), 1.5);
        assert_eq!(s.tau(Phase::Generation, 50, 100), 1.5);
        assert_eq!(s.tau(Phase::Generation, 100, 100), 1.5);
    }

    #[test]
    fn linear_schedule_anneals_during_generation() {
        let s = TemperatureSchedule::default();
        assert!((s.tau(Phase::Generation, 0, 100) - 1.0).abs() < 1e-6);
        assert!((s.tau(Phase::Generation, 50, 100) - 1.5).abs() < 1e-6);
        assert!((s.tau(Phase::Generation, 100, 100) - 2.0).abs() < 1e-6);
    }

    #[test]
    fn linear_schedule_is_flat_during_prompt() {
        let s = TemperatureSchedule::default();
        assert!((s.tau(Phase::Prompt, 70, 100) - 1.0).abs() < 1e-6);
    }

    #[test]
    fn linear_schedule_clamps_past_total_steps() {
        let s = TemperatureSchedule::default();
        assert!((s.tau(Phase::Generation, 500, 100) - 2.0).abs() < 1e-6);
        // Degenerate total_steps.
        assert!((s.tau(Phase::Generation, 3, 0) - 1.0).abs() < 1e-6);
    }

    #[test]
    fn validation_rejects_non_positive_temperatures() {
        assert!(TemperatureSchedule::Static(0.0).validate().is_err());
        assert!(TemperatureSchedule::Linear {
            tau_init: 1.0,
            tau_end: -1.0
        }
        .validate()
        .is_err());
        assert!(TemperatureSchedule::default().validate().is_ok());
    }

    #[test]
    fn monotone_increase_across_steps() {
        let s = TemperatureSchedule::default();
        let mut prev = 0.0;
        for t in 0..=20 {
            let tau = s.tau(Phase::Generation, t, 20);
            assert!(tau >= prev);
            prev = tau;
        }
    }
}
