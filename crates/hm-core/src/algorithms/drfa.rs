//! DRFA (Deng, Kamani & Mahdavi, NeurIPS 2020) — the two-layer *minimax*
//! baseline with **multi-step** local updates.
//!
//! Per training round: clients sampled by `q` run `τ1` local SGD steps and
//! upload both the final model and a checkpoint captured at a uniformly
//! random step `t' ∈ [τ1]`; the cloud averages both. A second, uniform
//! client set evaluates the checkpoint model's loss, and the cloud applies
//! the importance-weighted ascent step `q ← Π_Δ(q + η_q τ1 v)`.
//!
//! The checkpoint/loss exchange (the checkpoint model re-broadcast to a
//! fresh uniform set) is metered in floats and messages but shares the
//! training round's single `ClientCloud` communication round, matching the
//! per-round O(1) communication-complexity accounting of the related-work
//! comparison (Table 1).
//!
//! HierMinimax with `τ2 = 1` and edges of one client degenerates to exactly
//! this method, bit for bit while no client drops — asserted by
//! `flat_baselines_match_hierarchical_on_one_client_edges` in
//! `tests/oracle_diff.rs`.

use super::driver::{self, Blocks, Dual, Fold, RoundSpec, Sampler};
use super::{Algorithm, Method, RunError, RunOpts, RunResult, WeightUpdateModel};
use crate::problem::FederatedProblem;
use hm_simnet::Quantizer;

/// Configuration of a DRFA run.
#[derive(Debug, Clone)]
pub struct DrfaConfig {
    /// Training rounds `K`.
    pub rounds: usize,
    /// Local SGD steps per round (`τ1`; the paper sets 2).
    pub tau1: usize,
    /// Participating clients per phase.
    pub m_clients: usize,
    /// Model learning rate.
    pub eta_w: f32,
    /// Mixture-weight learning rate (the update applies `η_q τ1`).
    pub eta_q: f32,
    /// Mini-batch size for local SGD.
    pub batch_size: usize,
    /// Mini-batch size for loss estimation (a larger batch lowers the
    /// variance σ_p² of the weight-gradient estimate).
    pub loss_batch: usize,
    /// Shared runner options.
    pub opts: RunOpts,
}

impl Default for DrfaConfig {
    fn default() -> Self {
        Self {
            rounds: 100,
            tau1: 2,
            m_clients: 4,
            eta_w: 0.05,
            eta_q: 0.05,
            batch_size: 4,
            loss_batch: 16,
            opts: RunOpts::default(),
        }
    }
}

/// The DRFA baseline.
#[derive(Debug, Clone)]
pub struct Drfa {
    cfg: DrfaConfig,
}

impl Drfa {
    /// Build a runner from a config.
    pub fn new(cfg: DrfaConfig) -> Self {
        assert!(cfg.rounds > 0 && cfg.tau1 > 0 && cfg.m_clients > 0 && cfg.batch_size > 0);
        Self { cfg }
    }
}

impl Algorithm for Drfa {
    fn name(&self) -> &'static str {
        Method::Drfa.name()
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
            sampler: Sampler::Weighted(cfg.m_clients),
            blocks: Blocks::Clients { mu: 0.0 },
            fold: Fold::Multiplicity,
            dual: Some(Dual {
                eta_p: cfg.eta_q,
                loss_batch: cfg.loss_batch,
                model: WeightUpdateModel::RandomCheckpoint,
            }),
        };
        driver::run(problem, seed, spec)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hm_data::scenarios::tiny_problem;
    use hm_simnet::Parallelism;

    fn quick_cfg(rounds: usize) -> DrfaConfig {
        DrfaConfig {
            rounds,
            tau1: 2,
            m_clients: 4,
            eta_w: 0.1,
            eta_q: 0.1,
            batch_size: 2,
            loss_batch: 4,
            opts: RunOpts {
                eval_every: 1,
                parallelism: Parallelism::Sequential,
                ..Default::default()
            },
        }
    }

    #[test]
    fn one_cloud_round_per_training_round() {
        let sc = tiny_problem(3, 2, 1);
        let fp = FederatedProblem::logistic_from_scenario(&sc);
        let r = Drfa::new(quick_cfg(5)).run(&fp, 42);
        assert_eq!(r.comm.cloud_rounds(), 5);
        assert_eq!(r.history.rounds.last().unwrap().slots_done, 10);
    }

    #[test]
    fn p_moves_off_uniform_and_stays_simplex() {
        let sc = tiny_problem(3, 2, 2);
        let fp = FederatedProblem::logistic_from_scenario(&sc);
        let r = Drfa::new(quick_cfg(20)).run(&fp, 3);
        let sum: f32 = r.final_p.iter().sum();
        assert!((sum - 1.0).abs() < 1e-4);
        assert!(r.final_p.iter().any(|&x| (x - 1.0 / 3.0).abs() > 1e-3));
    }

    #[test]
    fn training_reduces_objective() {
        let sc = tiny_problem(3, 2, 3);
        let fp = FederatedProblem::logistic_from_scenario(&sc);
        let w0 = vec![0.0; fp.num_params()];
        let p0 = fp.initial_p();
        let before = fp.objective(&w0, &p0);
        let mut cfg = quick_cfg(40);
        cfg.m_clients = 6;
        let r = Drfa::new(cfg).run(&fp, 5);
        assert!(fp.objective(&r.final_w, &p0) < before * 0.8);
    }

    #[test]
    fn deterministic_across_parallelism() {
        let sc = tiny_problem(3, 2, 4);
        let fp = FederatedProblem::logistic_from_scenario(&sc);
        let mut cfg = quick_cfg(4);
        let a = Drfa::new(cfg.clone()).run(&fp, 7);
        cfg.opts.parallelism = Parallelism::Rayon;
        let b = Drfa::new(cfg).run(&fp, 7);
        assert_eq!(a.final_w, b.final_w);
        assert_eq!(a.final_p, b.final_p);
    }
}
