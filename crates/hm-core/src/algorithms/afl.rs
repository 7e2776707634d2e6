//! Stochastic-AFL (Mohri, Sivek & Suresh, ICML 2019) — the two-layer
//! *minimax* baseline with **single-step** local updates.
//!
//! Per training round (= one time slot): the cloud samples clients by the
//! current mixture weights `q` for the model step, and a uniform client set
//! for the loss estimates that drive the `q` gradient-ascent step. Both
//! exchanges ride the round's single broadcast/gather (the original
//! algorithm has every sampled client return its gradient *and* loss for
//! the same broadcast model), so one `ClientCloud` round is recorded per
//! training round.
//!
//! The weight vector `q` lives on the client-level simplex `Δ_{N−1}`; with
//! identically-distributed clients inside each edge area this expresses the
//! same mixtures as the paper's edge-level `p` (history records `q` summed
//! per edge).
//!
//! On the round driver's client units this is DRFA with `τ1 = 1`,
//! estimating the losses on the round-start model that the sampled
//! clients already hold (DESIGN.md §7c); with edges of one client it is
//! HierMinimax with `τ1 = τ2 = 1` and [`WeightUpdateModel::RoundStart`],
//! bit for bit while no client drops (`tests/oracle_diff.rs`).

use super::driver::{self, Blocks, Dual, Fold, RoundSpec, Sampler};
use super::{Algorithm, Method, RunError, RunOpts, RunResult, WeightUpdateModel};
use crate::problem::FederatedProblem;
use hm_simnet::Quantizer;

/// Configuration of a Stochastic-AFL run.
#[derive(Debug, Clone)]
pub struct AflConfig {
    /// Training rounds (each is a single SGD slot).
    pub rounds: usize,
    /// Participating clients per round.
    pub m_clients: usize,
    /// Model learning rate.
    pub eta_w: f32,
    /// Mixture-weight learning rate.
    pub eta_q: f32,
    /// Mini-batch size for local SGD.
    pub batch_size: usize,
    /// Mini-batch size for loss estimation (a larger batch lowers the
    /// variance σ_p² of the weight-gradient estimate).
    pub loss_batch: usize,
    /// Shared runner options.
    pub opts: RunOpts,
}

impl Default for AflConfig {
    fn default() -> Self {
        Self {
            rounds: 200,
            m_clients: 4,
            eta_w: 0.05,
            eta_q: 0.05,
            batch_size: 4,
            loss_batch: 16,
            opts: RunOpts::default(),
        }
    }
}

/// The Stochastic-AFL baseline.
#[derive(Debug, Clone)]
pub struct StochasticAfl {
    cfg: AflConfig,
}

impl StochasticAfl {
    /// Build a runner from a config.
    pub fn new(cfg: AflConfig) -> Self {
        assert!(cfg.rounds > 0 && cfg.m_clients > 0 && cfg.batch_size > 0);
        Self { cfg }
    }
}

impl Algorithm for StochasticAfl {
    fn name(&self) -> &'static str {
        Method::StochasticAfl.name()
    }

    fn try_run(&self, problem: &FederatedProblem, seed: u64) -> Result<RunResult, RunError> {
        let cfg = &self.cfg;
        let spec = RoundSpec {
            name: self.name(),
            rounds: cfg.rounds,
            tau1: 1,
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
                model: WeightUpdateModel::RoundStart,
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

    fn quick_cfg(rounds: usize) -> AflConfig {
        AflConfig {
            rounds,
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
    fn one_cloud_round_and_one_slot_per_round() {
        let sc = tiny_problem(3, 2, 1);
        let fp = FederatedProblem::logistic_from_scenario(&sc);
        let r = StochasticAfl::new(quick_cfg(7)).run(&fp, 42);
        assert_eq!(r.comm.cloud_rounds(), 7);
        assert_eq!(r.history.rounds.last().unwrap().slots_done, 7);
    }

    #[test]
    fn p_moves_and_stays_stochastic() {
        let sc = tiny_problem(3, 2, 2);
        let fp = FederatedProblem::logistic_from_scenario(&sc);
        let r = StochasticAfl::new(quick_cfg(20)).run(&fp, 3);
        let sum: f32 = r.final_p.iter().sum();
        assert!(
            (sum - 1.0).abs() < 1e-4,
            "p doesn't sum to 1: {:?}",
            r.final_p
        );
        let uniform = 1.0 / 3.0;
        assert!(r.final_p.iter().any(|&x| (x - uniform).abs() > 1e-3));
    }

    #[test]
    fn training_reduces_objective() {
        let sc = tiny_problem(3, 2, 3);
        let fp = FederatedProblem::logistic_from_scenario(&sc);
        let w0 = vec![0.0; fp.num_params()];
        let p0 = fp.initial_p();
        let before = fp.objective(&w0, &p0);
        let mut cfg = quick_cfg(80);
        cfg.m_clients = 6;
        let r = StochasticAfl::new(cfg).run(&fp, 5);
        assert!(fp.objective(&r.final_w, &p0) < before * 0.9);
    }

    #[test]
    fn deterministic_across_parallelism() {
        let sc = tiny_problem(3, 2, 4);
        let fp = FederatedProblem::logistic_from_scenario(&sc);
        let mut cfg = quick_cfg(4);
        let a = StochasticAfl::new(cfg.clone()).run(&fp, 7);
        cfg.opts.parallelism = Parallelism::Rayon;
        let b = StochasticAfl::new(cfg).run(&fp, 7);
        assert_eq!(a.final_w, b.final_w);
        assert_eq!(a.final_p, b.final_p);
    }
}
