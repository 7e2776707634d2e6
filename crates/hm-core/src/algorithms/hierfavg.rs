//! HierFAVG (Liu et al., ICC 2020) — the three-layer *minimization*
//! baseline: the same client-edge-cloud update structure as HierMinimax's
//! Phase 1 (`τ2` client-edge aggregations of `τ1` local steps), but solving
//! problem (1) — no edge weights, no Phase 2. Participating edges are
//! sampled uniformly, and the cloud aggregation weights each edge by its
//! training-data volume (the `q_n ∝ data` convention of eq. 1); client
//! shards within an edge are equal-sized in every scenario here, so the
//! client-edge aggregation remains a plain average.

use super::driver::{self, Blocks, Fold, RoundSpec, Sampler};
use super::{Algorithm, Method, RunError, RunOpts, RunResult};
use crate::problem::FederatedProblem;
use hm_simnet::Quantizer;

/// Configuration of a HierFAVG run.
#[derive(Debug, Clone)]
pub struct HierFavgConfig {
    /// Training rounds `K`.
    pub rounds: usize,
    /// Local SGD steps per client-edge aggregation (`τ1`).
    pub tau1: usize,
    /// Client-edge aggregations per round (`τ2`).
    pub tau2: usize,
    /// Participating edges per round (uniformly sampled).
    pub m_edges: usize,
    /// Model learning rate.
    pub eta_w: f32,
    /// Mini-batch size for local SGD.
    pub batch_size: usize,
    /// Uplink codec for model uploads (`Quantizer::Exact` = the original
    /// HierFAVG; a stochastic codec gives Hier-Local-QSGD).
    pub quantizer: Quantizer,
    /// Shared runner options.
    pub opts: RunOpts,
}

impl Default for HierFavgConfig {
    fn default() -> Self {
        Self {
            rounds: 50,
            tau1: 2,
            tau2: 2,
            m_edges: 2,
            eta_w: 0.05,
            batch_size: 4,
            quantizer: Quantizer::Exact,
            opts: RunOpts::default(),
        }
    }
}

/// The HierFAVG baseline.
#[derive(Debug, Clone)]
pub struct HierFavg {
    cfg: HierFavgConfig,
}

impl HierFavg {
    /// Build a runner from a config.
    pub fn new(cfg: HierFavgConfig) -> Self {
        assert!(cfg.rounds > 0 && cfg.tau1 > 0 && cfg.tau2 > 0);
        assert!(cfg.m_edges > 0 && cfg.batch_size > 0);
        Self { cfg }
    }
}

impl Algorithm for HierFavg {
    fn name(&self) -> &'static str {
        Method::HierFavg.name()
    }

    fn try_run(&self, problem: &FederatedProblem, seed: u64) -> Result<RunResult, RunError> {
        let cfg = &self.cfg;
        let n_edges = problem.num_edges();
        assert!(
            cfg.m_edges <= n_edges,
            "m_edges {} exceeds {} edges",
            cfg.m_edges,
            n_edges
        );
        let spec = RoundSpec {
            name: self.name(),
            rounds: cfg.rounds,
            tau1: cfg.tau1,
            eta_w: cfg.eta_w,
            batch_size: cfg.batch_size,
            quantizer: cfg.quantizer,
            opts: &cfg.opts,
            sampler: Sampler::Uniform(cfg.m_edges),
            blocks: Blocks::Edges { tau2: cfg.tau2 },
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
    use hm_simnet::Parallelism;

    fn quick_cfg(rounds: usize) -> HierFavgConfig {
        HierFavgConfig {
            rounds,
            tau1: 2,
            tau2: 2,
            m_edges: 2,
            eta_w: 0.1,
            batch_size: 2,
            quantizer: hm_simnet::Quantizer::Exact,
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
        let r = HierFavg::new(quick_cfg(5)).run(&fp, 42);
        assert_eq!(r.comm.cloud_rounds(), 5);
        // τ2 client-edge rounds per training round.
        assert_eq!(r.comm.rounds(hm_simnet::Link::ClientEdge), 10);
    }

    #[test]
    fn p_stays_uniform() {
        let sc = tiny_problem(4, 2, 2);
        let fp = FederatedProblem::logistic_from_scenario(&sc);
        let r = HierFavg::new(quick_cfg(3)).run(&fp, 1);
        assert_eq!(r.final_p, vec![0.25; 4]);
        for rec in &r.history.rounds {
            assert_eq!(rec.p, vec![0.25; 4]);
        }
    }

    #[test]
    fn training_reduces_objective() {
        let sc = tiny_problem(3, 2, 3);
        let fp = FederatedProblem::logistic_from_scenario(&sc);
        let w0 = vec![0.0; fp.num_params()];
        let p0 = fp.initial_p();
        let before = fp.objective(&w0, &p0);
        let mut cfg = quick_cfg(30);
        cfg.m_edges = 3;
        let r = HierFavg::new(cfg).run(&fp, 5);
        assert!(fp.objective(&r.final_w, &p0) < before * 0.8);
    }

    #[test]
    fn deterministic_across_parallelism() {
        let sc = tiny_problem(3, 2, 4);
        let fp = FederatedProblem::logistic_from_scenario(&sc);
        let mut cfg = quick_cfg(3);
        let a = HierFavg::new(cfg.clone()).run(&fp, 7);
        cfg.opts.parallelism = Parallelism::Rayon;
        let b = HierFavg::new(cfg).run(&fp, 7);
        assert_eq!(a.final_w, b.final_w);
    }
}
