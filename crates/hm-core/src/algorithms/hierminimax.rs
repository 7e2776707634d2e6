//! HierMinimax — Algorithm 1 of the paper.
//!
//! Per training round `k`:
//!
//! **Phase 1 (model update).** The cloud samples `m_E` edges i.i.d. by the
//! current weights `p^(k)` and a checkpoint index `(c1, c2)` uniform on
//! `[τ1] × [τ2]`, and broadcasts `w^(k)` and `(c1, c2)`. Each sampled edge
//! runs `ModelUpdate`: `τ2` client-edge aggregation blocks of `τ1` local
//! projected-SGD steps (eq. 4), capturing the checkpoint model after `c1`
//! steps of block `c2`. Edges upload `w_e^{(k,τ2)}` and the checkpoint; the
//! cloud averages both (eqs. 5–6).
//!
//! **Phase 2 (weight update).** The cloud samples a *uniform* edge set
//! `U^(k)` of size `m_E`, broadcasts the checkpoint model, and collects
//! mini-batch loss estimates `f_e`. It forms the importance-weighted
//! estimate `v_e = (N_E/m_E)·f_e` for sampled edges (zero otherwise) —
//! unbiased for `∇_p F(w^{(k,c2,c1)}, ·)` — and updates
//! `p^{(k+1)} = Π_P(p^(k) + η_p τ1 τ2 v)` (eq. 7).

use super::{Algorithm, Hyper, Method, MethodRun, RunError, RunOpts, RunResult};
use crate::problem::FederatedProblem;
use hm_simnet::Quantizer;

/// Which model Phase 2 estimates losses on — the paper's randomly-indexed
/// checkpoint, or two biased ablation variants used by the
/// `ablation_checkpoint` bench to show why the checkpoint matters.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum WeightUpdateModel {
    /// The paper's mechanism: the aggregated model at the uniformly random
    /// checkpoint index `(c1, c2)` — an unbiased sample of the round's
    /// iterate trajectory.
    #[default]
    RandomCheckpoint,
    /// Ablation: the round's *final* aggregated model `w^(k+1)` (biased
    /// toward the end of the trajectory).
    FinalModel,
    /// Ablation: the round's *starting* model `w^(k)` (one full round
    /// stale).
    RoundStart,
}

/// Configuration of a HierMinimax run.
#[derive(Debug, Clone)]
pub struct HierMinimaxConfig {
    /// Training rounds `K`.
    pub rounds: usize,
    /// Local SGD steps per client-edge aggregation (`τ1`).
    pub tau1: usize,
    /// Client-edge aggregations per round (`τ2`).
    pub tau2: usize,
    /// Participating edges per phase (`m_E`).
    pub m_edges: usize,
    /// Model learning rate `η_w`.
    pub eta_w: f32,
    /// Weight learning rate `η_p` (the update applies `η_p τ1 τ2`).
    pub eta_p: f32,
    /// Mini-batch size for local SGD.
    pub batch_size: usize,
    /// Mini-batch size for Phase-2 loss estimation (a larger batch lowers
    /// the variance σ_p² of the weight-gradient estimate).
    pub loss_batch: usize,
    /// Which model Phase 2 evaluates (ablation hook; the paper's mechanism
    /// is the default).
    pub weight_update_model: WeightUpdateModel,
    /// Uplink codec for model uploads (the Hier-Local-QSGD extension;
    /// `Quantizer::Exact` reproduces the paper's algorithm).
    pub quantizer: Quantizer,
    /// Shared runner options.
    pub opts: RunOpts,
}

impl Default for HierMinimaxConfig {
    fn default() -> Self {
        Self {
            rounds: 50,
            tau1: 2,
            tau2: 2,
            m_edges: 2,
            eta_w: 0.05,
            eta_p: 0.05,
            batch_size: 4,
            loss_batch: 16,
            weight_update_model: WeightUpdateModel::default(),
            quantizer: Quantizer::Exact,
            opts: RunOpts::default(),
        }
    }
}

/// The HierMinimax algorithm (Algorithm 1): [`Method::HierMinimax`]'s
/// run of the config's [`Hyper`].
#[derive(Debug, Clone)]
pub struct HierMinimax(MethodRun);

impl HierMinimax {
    /// Build a runner from a config.
    pub fn new(cfg: HierMinimaxConfig) -> Self {
        let h = Hyper {
            rounds: cfg.rounds,
            tau1: cfg.tau1,
            tau2: cfg.tau2,
            m: cfg.m_edges,
            eta_w: cfg.eta_w,
            eta_p: cfg.eta_p,
            batch_size: cfg.batch_size,
            loss_batch: cfg.loss_batch,
            weight_update_model: cfg.weight_update_model,
            quantizer: cfg.quantizer,
            ..Hyper::default()
        };
        Self(Method::HierMinimax.build(&h, cfg.opts))
    }
}

impl Algorithm for HierMinimax {
    fn name(&self) -> &'static str {
        self.0.name()
    }

    fn try_run(&self, problem: &FederatedProblem, seed: u64) -> Result<RunResult, RunError> {
        self.0.try_run(problem, seed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hm_data::scenarios::tiny_problem;
    use hm_simnet::Parallelism;

    fn quick_cfg(rounds: usize) -> HierMinimaxConfig {
        HierMinimaxConfig {
            rounds,
            tau1: 2,
            tau2: 2,
            m_edges: 2,
            eta_w: 0.1,
            eta_p: 0.1,
            batch_size: 2,
            loss_batch: 4,
            weight_update_model: WeightUpdateModel::default(),
            quantizer: Quantizer::Exact,
            opts: RunOpts {
                eval_every: 1,
                parallelism: Parallelism::Sequential,
                ..Default::default()
            },
        }
    }

    #[test]
    fn runs_and_records_history() {
        let sc = tiny_problem(3, 2, 1);
        let fp = FederatedProblem::logistic_from_scenario(&sc);
        let r = HierMinimax::new(quick_cfg(4)).run(&fp, 42);
        assert_eq!(r.history.rounds.len(), 4);
        assert_eq!(r.final_p.len(), 3);
        // p stays on the simplex.
        let sum: f32 = r.final_p.iter().sum();
        assert!((sum - 1.0).abs() < 1e-4);
        assert!(r.final_p.iter().all(|&x| x >= -1e-6));
        // One cloud round per training round (Phases 1+2 share the
        // round's exchange window).
        assert_eq!(r.comm.cloud_rounds(), 4);
        // slots = rounds · τ1 τ2.
        assert_eq!(r.history.rounds.last().unwrap().slots_done, 16);
    }

    #[test]
    fn seeds_change_the_run() {
        let sc = tiny_problem(3, 2, 2);
        let fp = FederatedProblem::logistic_from_scenario(&sc);
        let a = HierMinimax::new(quick_cfg(3)).run(&fp, 1);
        let b = HierMinimax::new(quick_cfg(3)).run(&fp, 2);
        assert_ne!(a.final_w, b.final_w);
    }

    #[test]
    fn stream_contains_protocol_events() {
        use hm_telemetry::{MemorySink, Telemetry, TelemetryEvent};
        use std::sync::Arc;
        let sc = tiny_problem(3, 2, 4);
        let fp = FederatedProblem::logistic_from_scenario(&sc);
        let sink = Arc::new(MemorySink::new());
        let mut cfg = quick_cfg(2);
        cfg.opts.telemetry = Telemetry::with_sink(sink.clone());
        HierMinimax::new(cfg).run(&fp, 9);
        let events = sink.events();
        let count = |kind: &str| events.iter().filter(|e| e.kind() == kind).count();
        assert_eq!(count("phase1"), 2);
        assert_eq!(count("phase1_done"), 2);
        assert_eq!(count("dual_update"), 2);
        // Every round draws a checkpoint index within [τ1]×[τ2].
        for e in &events {
            if let TelemetryEvent::Phase1Sampled { checkpoint, .. } = e {
                let (c1, c2) = checkpoint.expect("minimax rounds draw a checkpoint");
                assert!(c1 < 2 && c2 < 2);
            }
        }
    }

    #[test]
    fn weights_shift_toward_lossier_edges() {
        // With one class per edge and per-edge losses, after training the
        // weight of the worst edge should not be the smallest one.
        let sc = tiny_problem(4, 2, 6);
        let fp = FederatedProblem::logistic_from_scenario(&sc);
        let mut cfg = quick_cfg(40);
        cfg.m_edges = 2;
        cfg.opts.eval_every = 0;
        let r = HierMinimax::new(cfg).run(&fp, 3);
        // p must have moved off the uniform start.
        let uniform = 1.0 / 4.0_f32;
        assert!(
            r.final_p.iter().any(|&x| (x - uniform).abs() > 1e-3),
            "p never moved: {:?}",
            r.final_p
        );
    }
}
