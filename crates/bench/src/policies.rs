//! Constructors for every policy the evaluation compares.

use crate::workloads::WorkloadSet;
use faro_core::baselines::{Aiad, FairShare, MarkCocktailBarista, Oneshot};
use faro_core::cilantro::CilantroLike;
use faro_core::faro::{FaroAutoscaler, FaroConfig};
use faro_core::opt::{Fidelity, LatencyModel};
use faro_core::policy::Policy;
use faro_core::predictor::{FlatPredictor, ProbabilisticPredictor, RatePredictor};
use faro_core::ClusterObjective;
use faro_forecast::nhits::NHits;

/// Faro ablation knobs (paper Figure 16).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Ablation {
    /// Disable the relaxation: solve the precise plateau objective.
    pub no_relaxation: bool,
    /// Replace M/D/c with the upper-bound latency estimator.
    pub no_mdc: bool,
    /// Replace the N-HiTS predictor with a flat recent-mean guess.
    pub no_prediction: bool,
    /// Use point (zero-sigma) prediction instead of probabilistic.
    pub no_probabilistic: bool,
    /// Disable the short-term reactive autoscaler.
    pub no_hybrid: bool,
    /// Disable Stage-3 shrinking.
    pub no_shrinking: bool,
}

/// A named policy under test.
#[derive(Debug, Clone, PartialEq)]
pub enum PolicyKind {
    /// Static equal split.
    FairShare,
    /// Proportional one-shot reactive scaling.
    Oneshot,
    /// Additive increase / additive decrease.
    Aiad,
    /// Mark/Cocktail/Barista-style proactive per-job policy.
    Mark,
    /// Cilantro-like learned multi-tenant baseline.
    Cilantro,
    /// Faro with a cluster objective and optional ablations.
    Faro {
        /// Cluster objective.
        objective: ClusterObjective,
        /// Ablation switches (all off = full Faro).
        ablation: Ablation,
    },
}

impl PolicyKind {
    /// Full Faro with the given objective.
    pub fn faro(objective: ClusterObjective) -> Self {
        PolicyKind::Faro {
            objective,
            ablation: Ablation::default(),
        }
    }

    /// The paper's standard nine policies (5 Faro variants + 4
    /// baselines) for an `n`-job cluster.
    pub fn standard_nine(n_jobs: usize) -> Vec<PolicyKind> {
        let gamma = ClusterObjective::recommended_gamma(n_jobs);
        vec![
            PolicyKind::faro(ClusterObjective::Sum),
            PolicyKind::faro(ClusterObjective::Fair),
            PolicyKind::faro(ClusterObjective::FairSum { gamma }),
            PolicyKind::faro(ClusterObjective::PenaltySum),
            PolicyKind::faro(ClusterObjective::PenaltyFairSum { gamma }),
            PolicyKind::Mark,
            PolicyKind::Aiad,
            PolicyKind::FairShare,
            PolicyKind::Oneshot,
        ]
    }

    /// The four baselines plus one Faro variant (Figure 10's cast).
    pub fn baselines_plus(objective: ClusterObjective) -> Vec<PolicyKind> {
        vec![
            PolicyKind::faro(objective),
            PolicyKind::Mark,
            PolicyKind::Aiad,
            PolicyKind::FairShare,
            PolicyKind::Oneshot,
        ]
    }

    /// Display name.
    pub fn name(&self) -> String {
        match self {
            PolicyKind::FairShare => "FairShare".into(),
            PolicyKind::Oneshot => "Oneshot".into(),
            PolicyKind::Aiad => "AIAD".into(),
            PolicyKind::Mark => "Mark/Cocktail/Barista".into(),
            PolicyKind::Cilantro => "Cilantro-like".into(),
            PolicyKind::Faro {
                objective,
                ablation,
            } => {
                let mut name = objective.name().to_string();
                let a = ablation;
                for (on, tag) in [
                    (a.no_relaxation, "-NoRelax"),
                    (a.no_mdc, "-NoMDc"),
                    (a.no_prediction, "-NoPred"),
                    (a.no_probabilistic, "-NoProb"),
                    (a.no_hybrid, "-NoHybrid"),
                    (a.no_shrinking, "-NoShrink"),
                ] {
                    if on {
                        name.push_str(tag);
                    }
                }
                name
            }
        }
    }

    /// Builds the policy for a workload set. `trained` must hold one
    /// fitted N-HiTS model per job for Faro and Mark (pass the result of
    /// [`WorkloadSet::train_predictors`]); pass `None` to fall back to
    /// flat predictors (fast tests).
    pub fn build(
        &self,
        set: &WorkloadSet,
        trained: Option<&[NHits]>,
        seed: u64,
    ) -> Box<dyn Policy> {
        let n = set.len();
        match self {
            PolicyKind::FairShare => Box::new(FairShare),
            PolicyKind::Oneshot => Box::new(Oneshot::default()),
            PolicyKind::Aiad => Box::new(Aiad::default()),
            PolicyKind::Cilantro => Box::new(CilantroLike::default()),
            PolicyKind::Mark => {
                let predictors: Vec<Box<dyn RatePredictor>> =
                    (0..n).map(|i| trained_predictor(trained, i, 0.0)).collect();
                Box::new(MarkCocktailBarista::new(predictors))
            }
            PolicyKind::Faro {
                objective,
                ablation,
            } => {
                let mut cfg = FaroConfig::new(*objective);
                cfg.seed = seed;
                if ablation.no_relaxation {
                    cfg.fidelity = Fidelity::Precise;
                }
                if ablation.no_mdc {
                    cfg.latency_model = LatencyModel::UpperBound;
                }
                if ablation.no_hybrid {
                    cfg.use_hybrid = false;
                }
                if ablation.no_shrinking {
                    cfg.use_shrinking = false;
                }
                if ablation.no_probabilistic {
                    cfg.samples = 1;
                }
                let predictors: Vec<Box<dyn RatePredictor>> = (0..n)
                    .map(|i| -> Box<dyn RatePredictor> {
                        if ablation.no_prediction {
                            Box::new(FlatPredictor {
                                lookback: 3,
                                sigma_fraction: 0.1,
                            })
                        } else if ablation.no_probabilistic {
                            trained_predictor(trained, i, 0.0)
                        } else {
                            trained_predictor(trained, i, 0.25)
                        }
                    })
                    .collect();
                Box::new(FaroAutoscaler::new(cfg, predictors))
            }
        }
    }
}

/// Job `i`'s trained model, or without one a flat guess with the given
/// sigma fraction. A point-forecast reader (Mark, Faro at one sample)
/// reads the model's mean.
fn trained_predictor(
    trained: Option<&[NHits]>,
    i: usize,
    sigma_fraction: f64,
) -> Box<dyn RatePredictor> {
    match trained.and_then(|t| t.get(i)) {
        Some(m) => Box::new(ProbabilisticPredictor::new(Box::new(m.clone()))),
        None => Box::new(FlatPredictor {
            lookback: 3,
            sigma_fraction,
        }),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_match_paper() {
        assert_eq!(PolicyKind::faro(ClusterObjective::Sum).name(), "Faro-Sum");
        assert_eq!(PolicyKind::Mark.name(), "Mark/Cocktail/Barista");
        let ab = PolicyKind::Faro {
            objective: ClusterObjective::Sum,
            ablation: Ablation {
                no_mdc: true,
                ..Default::default()
            },
        };
        assert_eq!(ab.name(), "Faro-Sum-NoMDc");
    }

    #[test]
    fn standard_nine_covers_everything() {
        let nine = PolicyKind::standard_nine(10);
        assert_eq!(nine.len(), 9);
        let names: Vec<String> = nine.iter().map(PolicyKind::name).collect();
        for expect in [
            "Faro-Sum",
            "Faro-Fair",
            "Faro-FairSum",
            "Faro-PenaltySum",
            "Faro-PenaltyFairSum",
            "Mark/Cocktail/Barista",
            "AIAD",
            "FairShare",
            "Oneshot",
        ] {
            assert!(names.iter().any(|n| n == expect), "missing {expect}");
        }
    }

    #[test]
    fn builds_without_trained_models() {
        let set = WorkloadSet::n_jobs(2, 1, 300.0).truncated_eval(10);
        for kind in PolicyKind::standard_nine(2) {
            let p = kind.build(&set, None, 0);
            assert!(!p.name().is_empty());
        }
        let c = PolicyKind::Cilantro.build(&set, None, 0);
        assert_eq!(c.name(), "Cilantro-like");
    }
}
