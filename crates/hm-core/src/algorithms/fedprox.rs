//! FedProx (Li et al., MLSys 2020) — the heterogeneity-robust two-layer
//! *minimization* extension baseline: FedAvg with a proximal term
//! `μ/2 ‖w − w^(k)‖²` added to each client's local objective, which bounds
//! client drift during multi-step local updates. Included because it is
//! the standard non-fairness answer to heterogeneity, making the
//! comparison triangle complete: drift control (FedProx) vs fairness soft
//! reweighting (q-FedAvg) vs minimax (HierMinimax).

use super::driver::{self, Blocks, Fold, RoundSpec, Sampler};
use super::{Algorithm, Method, RunError, RunOpts, RunResult};
use crate::problem::FederatedProblem;
use hm_simnet::Quantizer;

/// Configuration of a FedProx run.
#[derive(Debug, Clone)]
pub struct FedProxConfig {
    /// Training rounds.
    pub rounds: usize,
    /// Local SGD steps per round.
    pub tau1: usize,
    /// Participating clients per round (uniform sampling).
    pub m_clients: usize,
    /// Proximal coefficient `μ ≥ 0` (`0` recovers FedAvg with uniform
    /// aggregation).
    pub mu: f32,
    /// Model learning rate.
    pub eta_w: f32,
    /// Mini-batch size.
    pub batch_size: usize,
    /// Shared runner options.
    pub opts: RunOpts,
}

impl Default for FedProxConfig {
    fn default() -> Self {
        Self {
            rounds: 100,
            tau1: 2,
            m_clients: 4,
            mu: 0.1,
            eta_w: 0.05,
            batch_size: 4,
            opts: RunOpts::default(),
        }
    }
}

/// The FedProx extension baseline.
#[derive(Debug, Clone)]
pub struct FedProx {
    cfg: FedProxConfig,
}

impl FedProx {
    /// Build a runner from a config.
    ///
    /// # Panics
    /// Panics on degenerate configs or a negative or non-finite `μ`.
    pub fn new(cfg: FedProxConfig) -> Self {
        assert!(cfg.rounds > 0 && cfg.tau1 > 0 && cfg.m_clients > 0 && cfg.batch_size > 0);
        assert!(
            cfg.mu >= 0.0 && cfg.mu.is_finite(),
            "mu must be non-negative"
        );
        Self { cfg }
    }
}

impl Algorithm for FedProx {
    fn name(&self) -> &'static str {
        Method::FedProx.name()
    }

    fn try_run(&self, problem: &FederatedProblem, seed: u64) -> Result<RunResult, RunError> {
        let cfg = &self.cfg;
        let spec = RoundSpec {
            name: self.name(),
            rounds: cfg.rounds,
            tau1: cfg.tau1,
            eta_w: cfg.eta_w,
            batch_size: cfg.batch_size,
            quantizer: Quantizer::Exact,
            opts: &cfg.opts,
            sampler: Sampler::Uniform(cfg.m_clients),
            blocks: Blocks::Clients { mu: cfg.mu },
            fold: Fold::Plain,
            dual: None,
        };
        driver::run(problem, seed, spec)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hm_data::scenarios::tiny_problem;
    use hm_simnet::Parallelism;

    fn quick_cfg(rounds: usize, mu: f32) -> FedProxConfig {
        FedProxConfig {
            rounds,
            tau1: 4,
            m_clients: 4,
            mu,
            eta_w: 0.1,
            batch_size: 2,
            opts: RunOpts {
                eval_every: 0,
                parallelism: Parallelism::Sequential,
                ..Default::default()
            },
        }
    }

    #[test]
    fn runs_and_learns() {
        let sc = tiny_problem(3, 2, 85);
        let fp = FederatedProblem::logistic_from_scenario(&sc);
        let w0 = vec![0.0; fp.num_params()];
        let p0 = fp.initial_p();
        let before = fp.objective(&w0, &p0);
        let mut cfg = quick_cfg(120, 0.1);
        cfg.m_clients = 6;
        let r = FedProx::new(cfg).run(&fp, 3);
        assert!(fp.objective(&r.final_w, &p0) < before * 0.8);
    }

    #[test]
    fn one_cloud_round_per_training_round() {
        let sc = tiny_problem(3, 2, 86);
        let fp = FederatedProblem::logistic_from_scenario(&sc);
        let r = FedProx::new(quick_cfg(5, 0.1)).run(&fp, 1);
        assert_eq!(r.comm.cloud_rounds(), 5);
        assert_eq!(r.history.rounds.last().unwrap().slots_done, 20);
    }

    #[test]
    fn deterministic_across_parallelism() {
        let sc = tiny_problem(3, 2, 87);
        let fp = FederatedProblem::logistic_from_scenario(&sc);
        let mut cfg = quick_cfg(4, 0.5);
        let a = FedProx::new(cfg.clone()).run(&fp, 7);
        cfg.opts.parallelism = Parallelism::Rayon;
        let b = FedProx::new(cfg).run(&fp, 7);
        assert_eq!(a.final_w, b.final_w);
    }

    #[test]
    fn mu_reduces_round_update_magnitude() {
        // The proximal term tethers clients to the broadcast model, so the
        // aggregated per-round update shrinks with mu.
        let sc = tiny_problem(3, 2, 88);
        let fp = FederatedProblem::logistic_from_scenario(&sc);
        let first_step = |mu: f32| -> f64 {
            let r = FedProx::new(quick_cfg(1, mu)).run(&fp, 5);
            // Initial model is all zeros for logistic, so ||w1|| is the
            // update magnitude.
            hm_tensor::vecops::norm2(&r.final_w)
        };
        let free = first_step(0.0);
        let tethered = first_step(5.0);
        assert!(
            tethered < free,
            "mu did not shrink the update: {tethered} vs {free}"
        );
    }
}
