//! FedAvg (McMahan et al., AISTATS 2017) — the standard two-layer
//! *minimization* baseline: per round, a uniform sample of clients runs
//! `τ1` local SGD steps from the broadcast model and the cloud aggregates
//! the results weighted by local dataset size — the `q_n ∝ data` choice of
//! the paper's eq. (1), which is exactly what makes minimization
//! under-serve data-poor clients. No edge servers, no fairness weights.
//! With edges of one client this is HierFAVG with `τ2 = 1`, bit for bit
//! while no client drops (`tests/oracle_diff.rs`, DESIGN.md §7c).

use super::driver::{self, Blocks, Fold, RoundSpec, Sampler};
use super::{Algorithm, Method, RunError, RunOpts, RunResult};
use crate::problem::FederatedProblem;
use hm_simnet::Quantizer;

/// Configuration of a FedAvg run.
#[derive(Debug, Clone)]
pub struct FedAvgConfig {
    /// Training rounds `K`.
    pub rounds: usize,
    /// Local SGD steps per round (`τ1`; the paper sets 2).
    pub tau1: usize,
    /// Participating clients per round (the experiments use `m_E · N_0` so
    /// participation matches the hierarchical methods).
    pub m_clients: usize,
    /// Model learning rate.
    pub eta_w: f32,
    /// Mini-batch size.
    pub batch_size: usize,
    /// Shared runner options.
    pub opts: RunOpts,
}

impl Default for FedAvgConfig {
    fn default() -> Self {
        Self {
            rounds: 100,
            tau1: 2,
            m_clients: 4,
            eta_w: 0.05,
            batch_size: 4,
            opts: RunOpts::default(),
        }
    }
}

/// The FedAvg baseline.
#[derive(Debug, Clone)]
pub struct FedAvg {
    cfg: FedAvgConfig,
}

impl FedAvg {
    /// Build a runner from a config.
    pub fn new(cfg: FedAvgConfig) -> Self {
        assert!(cfg.rounds > 0 && cfg.tau1 > 0 && cfg.m_clients > 0 && cfg.batch_size > 0);
        Self { cfg }
    }
}

impl Algorithm for FedAvg {
    fn name(&self) -> &'static str {
        Method::FedAvg.name()
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
            blocks: Blocks::Clients { mu: 0.0 },
            fold: Fold::Volume,
            dual: None,
        };
        driver::run(problem, seed, spec)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hm_data::scenarios::tiny_problem;
    use hm_simnet::{Link, Parallelism};

    fn quick_cfg(rounds: usize) -> FedAvgConfig {
        FedAvgConfig {
            rounds,
            tau1: 2,
            m_clients: 4,
            eta_w: 0.1,
            batch_size: 2,
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
        let r = FedAvg::new(quick_cfg(6)).run(&fp, 42);
        assert_eq!(r.comm.cloud_rounds(), 6);
        // Two-layer: nothing on edge links.
        assert_eq!(r.comm.rounds(Link::ClientEdge), 0);
        assert_eq!(r.comm.rounds(Link::EdgeCloud), 0);
        assert_eq!(r.history.rounds.last().unwrap().slots_done, 12);
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
        let r = FedAvg::new(cfg).run(&fp, 5);
        assert!(fp.objective(&r.final_w, &p0) < before * 0.8);
    }

    #[test]
    fn deterministic_across_parallelism() {
        let sc = tiny_problem(3, 2, 4);
        let fp = FederatedProblem::logistic_from_scenario(&sc);
        let mut cfg = quick_cfg(3);
        let a = FedAvg::new(cfg.clone()).run(&fp, 7);
        cfg.opts.parallelism = Parallelism::Rayon;
        let b = FedAvg::new(cfg).run(&fp, 7);
        assert_eq!(a.final_w, b.final_w);
    }

    #[test]
    #[should_panic(expected = "exceeds")]
    fn too_many_clients_panics() {
        let sc = tiny_problem(2, 2, 1);
        let fp = FederatedProblem::logistic_from_scenario(&sc);
        let mut cfg = quick_cfg(1);
        cfg.m_clients = 100;
        let _ = FedAvg::new(cfg).run(&fp, 0);
    }
}
