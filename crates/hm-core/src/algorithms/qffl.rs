//! q-FedAvg (Li, Sanjabi, Beirami & Smith, *Fair Resource Allocation in
//! Federated Learning*, ICLR 2020 — the paper's reference [19]).
//!
//! An *alternative* fairness mechanism to minimax reweighting: instead of
//! optimising the worst mixture, q-FFL minimises
//! `Σ_k F_k^{q+1} / (q+1)` — a soft emphasis on high-loss clients that
//! interpolates between plain FedAvg (`q = 0`) and minimax fairness
//! (`q → ∞`). Included as an extension baseline so the fairness frontier
//! of the two approaches can be compared (`examples/fairness_frontier.rs`).
//!
//! Update rule (q-FedAvg): each sampled client `k` runs local SGD from the
//! broadcast `w` to `w̄_k`, reports its loss `F_k` at `w`, and the server
//! applies
//!
//! ```text
//! Δw_k = L (w − w̄_k),          Δ_k = F_k^q Δw_k,
//! h_k  = q F_k^{q−1} ‖Δw_k‖² + L F_k^q,
//! w ← w − (Σ_k Δ_k) / (Σ_k h_k),
//! ```
//!
//! with `L = 1/η_w` — the Lipschitz surrogate the authors recommend.

use super::driver::{self, Blocks, Fold, RoundSpec, Sampler};
use super::{Algorithm, Method, RunError, RunOpts, RunResult};
use crate::problem::FederatedProblem;
use hm_optim::projection::Projection;
use hm_simnet::Quantizer;
use hm_tensor::vecops;

/// Configuration of a q-FedAvg run.
#[derive(Debug, Clone)]
pub struct QfflConfig {
    /// Training rounds.
    pub rounds: usize,
    /// Local SGD steps per round.
    pub tau1: usize,
    /// Participating clients per round (uniform sampling).
    pub m_clients: usize,
    /// The fairness exponent `q ≥ 0` (`0` recovers FedAvg-style updates).
    pub q: f64,
    /// Local model learning rate (also sets `L = 1/η_w`).
    pub eta_w: f32,
    /// Mini-batch size for local SGD.
    pub batch_size: usize,
    /// Mini-batch size for the loss report `F_k`.
    pub loss_batch: usize,
    /// Shared runner options.
    pub opts: RunOpts,
}

impl Default for QfflConfig {
    fn default() -> Self {
        Self {
            rounds: 100,
            tau1: 2,
            m_clients: 4,
            q: 1.0,
            eta_w: 0.05,
            batch_size: 4,
            loss_batch: 16,
            opts: RunOpts::default(),
        }
    }
}

/// The q-FedAvg extension baseline.
#[derive(Debug, Clone)]
pub struct QFedAvg {
    cfg: QfflConfig,
}

impl QFedAvg {
    /// Build a runner from a config.
    ///
    /// # Panics
    /// Panics on degenerate configs or negative `q`.
    pub fn new(cfg: QfflConfig) -> Self {
        assert!(cfg.rounds > 0 && cfg.tau1 > 0 && cfg.m_clients > 0 && cfg.batch_size > 0);
        assert!(cfg.q >= 0.0, "q must be non-negative");
        assert!(cfg.eta_w > 0.0, "eta_w must be positive");
        Self { cfg }
    }
}

impl Algorithm for QFedAvg {
    fn name(&self) -> &'static str {
        Method::QFedAvg.name()
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
            fold: Fold::Qffl {
                q: cfg.q,
                loss_batch: cfg.loss_batch,
            },
            dual: None,
        };
        driver::run(problem, seed, spec)
    }
}

/// The q-FedAvg server step of the module docs, in f64: fold the
/// clients' local models `w̄_k` and losses `F_k` into `w`, then project
/// onto the model domain.
pub(super) fn server_step(
    problem: &FederatedProblem,
    w: &mut [f32],
    models: &[&[f32]],
    losses: &[f64],
    q: f64,
    eta_w: f32,
) {
    let big_l = f64::from(1.0 / eta_w);
    let mut delta_sum = vec![0.0_f64; w.len()];
    let mut h_sum = 0.0_f64;
    for (w_k, &f_k) in models.iter().zip(losses) {
        // Δw_k = L (w − w̄_k)
        let fq = f_k.powf(q);
        let mut norm_sq = 0.0_f64;
        for (i, (&wi, &wki)) in w.iter().zip(w_k.iter()).enumerate() {
            let dw = big_l * (f64::from(wi) - f64::from(wki));
            norm_sq += dw * dw;
            delta_sum[i] += fq * dw;
        }
        h_sum += q * f_k.powf(q - 1.0) * norm_sq + big_l * fq;
    }
    if h_sum > 0.0 {
        let step: Vec<f32> = delta_sum.iter().map(|&x| (x / h_sum) as f32).collect();
        vecops::axpy(-1.0, &step, w);
        problem.w_domain.project(w);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hm_data::scenarios::tiny_problem;
    use hm_simnet::Parallelism;

    fn quick_cfg(rounds: usize, q: f64) -> QfflConfig {
        QfflConfig {
            rounds,
            tau1: 2,
            m_clients: 4,
            q,
            eta_w: 0.1,
            batch_size: 2,
            loss_batch: 8,
            opts: RunOpts {
                eval_every: 0,
                parallelism: Parallelism::Sequential,
                ..Default::default()
            },
        }
    }

    #[test]
    fn runs_and_learns() {
        let sc = tiny_problem(3, 2, 81);
        let fp = FederatedProblem::logistic_from_scenario(&sc);
        let w0 = vec![0.0; fp.num_params()];
        let p0 = fp.initial_p();
        let before = fp.objective(&w0, &p0);
        let mut cfg = quick_cfg(150, 1.0);
        cfg.m_clients = 6;
        let r = QFedAvg::new(cfg).run(&fp, 3);
        assert!(fp.objective(&r.final_w, &p0) < before * 0.8);
    }

    #[test]
    fn one_cloud_round_per_training_round() {
        let sc = tiny_problem(3, 2, 82);
        let fp = FederatedProblem::logistic_from_scenario(&sc);
        let r = QFedAvg::new(quick_cfg(5, 1.0)).run(&fp, 1);
        assert_eq!(r.comm.cloud_rounds(), 5);
        assert_eq!(r.history.rounds.last().unwrap().slots_done, 10);
    }

    #[test]
    fn deterministic_across_parallelism() {
        let sc = tiny_problem(3, 2, 83);
        let fp = FederatedProblem::logistic_from_scenario(&sc);
        let mut cfg = quick_cfg(4, 2.0);
        let a = QFedAvg::new(cfg.clone()).run(&fp, 7);
        cfg.opts.parallelism = Parallelism::Rayon;
        let b = QFedAvg::new(cfg).run(&fp, 7);
        assert_eq!(a.final_w, b.final_w);
    }

    #[test]
    fn higher_q_equalizes_training_losses() {
        // q-FFL's defining property: larger q drives the per-edge *training
        // losses* toward uniformity (the objective upweights high-loss
        // clients). Measured on the loss spread, with low-noise loss
        // reports, averaged over seeds.
        use hm_data::generators::synthetic_images::ImageConfig;
        use hm_data::scenarios::one_class_per_edge;
        let cfg_img = ImageConfig {
            side: 8,
            num_classes: 4,
            bumps_per_class: 3,
            separation: 1.0,
            noise: 0.4,
            prototype_overlap: 0.0,
            pair_similarity: 0.0,
            noise_spread: 0.0,
            separation_spread: 0.5,
        };
        let sc = one_class_per_edge(cfg_img, 4, 2, 40, 100, 84);
        let fp = FederatedProblem::logistic_from_scenario(&sc);
        let spread_at = |q: f64| -> f64 {
            let mut total = 0.0;
            for seed in 0..3u64 {
                let mut c = quick_cfg(600, q);
                c.m_clients = 8; // full participation: isolate the q effect
                c.eta_w = 0.05;
                c.loss_batch = 64;
                let r = QFedAvg::new(c).run(&fp, 5 + seed);
                let losses = fp.edge_losses(&r.final_w);
                let max = losses.iter().copied().fold(f64::NEG_INFINITY, f64::max);
                let min = losses.iter().copied().fold(f64::INFINITY, f64::min);
                total += max - min;
            }
            total / 3.0
        };
        let s0 = spread_at(0.0);
        let s3 = spread_at(3.0);
        assert!(
            s3 < s0,
            "q = 3 should equalize losses vs q = 0: spread {s3:.3} vs {s0:.3}"
        );
    }

    #[test]
    #[should_panic(expected = "non-negative")]
    fn negative_q_rejected() {
        let _ = QFedAvg::new(quick_cfg(1, -1.0));
    }
}
