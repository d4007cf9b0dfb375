//! Declarative policy specifications.
//!
//! The harness sweeps over many policies and configurations (Figure 7, Tables 3–4).
//! [`PolicySpec`] is a serializable description of a policy that can be turned into a
//! boxed [`KvCachePolicy`] on demand, so experiment definitions stay data.

use crate::accumulator::ScoreScope;
use crate::adjustment::LogitAdjustment;
use crate::policies::full::FullAttention;
use crate::policies::scored::{KeyformerConfig, ScoredPolicy};
use crate::policies::streaming::StreamingLlm;
use crate::policies::window::{DilatedWindowAttention, WindowAttention};
use crate::policy::KvCachePolicy;
use crate::temperature::TemperatureSchedule;
use crate::CoreError;
use serde::{Deserialize, Serialize};

/// A serializable description of a KV-cache policy.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum PolicySpec {
    /// Full attention (no eviction).
    Full,
    /// Sliding-window attention.
    Window,
    /// Dilated sliding-window attention with the given dilation.
    DilatedWindow {
        /// Number of skipped slots between kept slots.
        dilation: usize,
    },
    /// Key-token-only attention (no recent window), the Figure 3c strawman.
    KeyOnly,
    /// H2O heavy hitters.
    H2O {
        /// Score-accumulation scope.
        scope: ScoreScope,
    },
    /// H2O-style scoring with a damping factor α (Figure 5).
    Damped {
        /// Damping factor in `(0, 1]`.
        alpha: f32,
    },
    /// StreamingLLM attention sinks.
    StreamingLlm {
        /// Number of sink tokens.
        sinks: usize,
    },
    /// Keyformer.
    Keyformer {
        /// Logit-adjustment distribution.
        adjustment: LogitAdjustment,
        /// Temperature schedule.
        temperature: TemperatureSchedule,
        /// Score-accumulation scope.
        scope: ScoreScope,
        /// Noise seed.
        seed: u64,
    },
}

impl PolicySpec {
    /// The paper's default Keyformer configuration.
    pub fn keyformer_default() -> Self {
        let c = KeyformerConfig::default();
        PolicySpec::Keyformer {
            adjustment: c.adjustment,
            temperature: c.temperature,
            scope: c.scope,
            seed: c.seed,
        }
    }

    /// The paper's default H2O configuration.
    pub fn h2o_default() -> Self {
        PolicySpec::H2O {
            scope: ScoreScope::PerLayer,
        }
    }

    /// The default StreamingLLM configuration (4 sinks).
    pub fn streaming_default() -> Self {
        PolicySpec::StreamingLlm {
            sinks: StreamingLlm::DEFAULT_SINKS,
        }
    }

    /// Short label used in experiment tables.
    pub fn label(&self) -> String {
        match self {
            PolicySpec::Full => "Full".into(),
            PolicySpec::Window => "Window".into(),
            PolicySpec::DilatedWindow { dilation } => format!("DilatedWindow(d={dilation})"),
            PolicySpec::KeyOnly => "KeyOnly".into(),
            PolicySpec::H2O { scope } => format!("H2O({scope})"),
            PolicySpec::Damped { alpha } => format!("Damped(alpha={alpha})"),
            PolicySpec::StreamingLlm { sinks } => format!("StreamingLLM(sinks={sinks})"),
            PolicySpec::Keyformer {
                adjustment, scope, ..
            } => format!("Keyformer({}, {scope})", adjustment.label()),
        }
    }

    /// Instantiates the policy described by this spec.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidConfig`] if the spec's parameters are invalid
    /// (e.g. a damping factor outside `(0, 1]`).
    pub fn build(&self) -> Result<Box<dyn KvCachePolicy>, CoreError> {
        Ok(match *self {
            PolicySpec::Full => Box::new(FullAttention::new()),
            PolicySpec::Window => Box::new(WindowAttention::new()),
            PolicySpec::DilatedWindow { dilation } => {
                Box::new(DilatedWindowAttention::new(dilation))
            }
            PolicySpec::KeyOnly => Box::new(ScoredPolicy::key_only()),
            PolicySpec::H2O { scope } => Box::new(ScoredPolicy::h2o(scope)),
            PolicySpec::Damped { alpha } => Box::new(ScoredPolicy::damped(alpha)?),
            PolicySpec::StreamingLlm { sinks } => Box::new(StreamingLlm::new(sinks)),
            PolicySpec::Keyformer {
                adjustment,
                temperature,
                scope,
                seed,
            } => {
                let config = KeyformerConfig {
                    adjustment,
                    temperature,
                    scope,
                    seed,
                };
                config.validate()?;
                Box::new(ScoredPolicy::keyformer(config))
            }
        })
    }
}

impl std::fmt::Display for PolicySpec {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.label())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_spec_builds_and_reports_name() {
        let specs = [
            (PolicySpec::Full, "full"),
            (PolicySpec::Window, "window"),
            (PolicySpec::DilatedWindow { dilation: 1 }, "dilated-window"),
            (PolicySpec::KeyOnly, "key-only"),
            (PolicySpec::h2o_default(), "h2o"),
            (PolicySpec::Damped { alpha: 0.9 }, "damped"),
            (PolicySpec::streaming_default(), "streaming-llm"),
            (PolicySpec::keyformer_default(), "keyformer"),
        ];
        for (spec, expected) in specs {
            let policy = spec.build().unwrap();
            assert_eq!(policy.name(), expected, "spec {spec}");
        }
    }

    #[test]
    fn invalid_parameters_are_rejected() {
        assert!(PolicySpec::Damped { alpha: 0.0 }.build().is_err());
        assert!(PolicySpec::Keyformer {
            adjustment: LogitAdjustment::Gumbel,
            temperature: TemperatureSchedule::Static(-1.0),
            scope: ScoreScope::PerLayer,
            seed: 0,
        }
        .build()
        .is_err());
    }

    #[test]
    fn labels_are_descriptive() {
        assert_eq!(PolicySpec::Full.label(), "Full");
        assert!(PolicySpec::keyformer_default().label().contains("gumbel"));
        assert!(PolicySpec::Damped { alpha: 0.875 }
            .label()
            .contains("0.875"));
        assert!(PolicySpec::streaming_default().label().contains("4"));
        assert!(PolicySpec::DilatedWindow { dilation: 2 }
            .to_string()
            .contains("d=2"));
    }

    #[test]
    fn specs_round_trip_through_serde() {
        for spec in [
            PolicySpec::Full,
            PolicySpec::keyformer_default(),
            PolicySpec::Damped { alpha: 0.9 },
            PolicySpec::streaming_default(),
        ] {
            let json = serde_json::to_string(&spec).unwrap();
            let back: PolicySpec = serde_json::from_str(&json).unwrap();
            assert_eq!(back, spec);
        }
    }
}
