//! FedProx (Li et al., MLSys 2020) — the heterogeneity-robust two-layer
//! *minimization* extension baseline: FedAvg with a proximal term
//! `μ/2 ‖w − w^(k)‖²` added to each client's local objective, which bounds
//! client drift during multi-step local updates. Included because it is
//! the standard non-fairness answer to heterogeneity, making the
//! comparison triangle complete: drift control (FedProx) vs fairness soft
//! reweighting (q-FedAvg) vs minimax (HierMinimax).

use super::flat_common::{client_dataset, q_to_edge_p};
use super::{finish_round, Algorithm, IterateAverage, RunOpts, RunResult};
use crate::checkpoint::{CheckpointCtx, ResumedRun};
use crate::history::History;
use crate::localsgd::local_sgd_prox;
use crate::problem::FederatedProblem;
use hm_data::rng::{Purpose, StreamKey, StreamRng};
use hm_simnet::sampling::sample_edges_uniform;
use hm_simnet::{CommMeter, Link};
use hm_telemetry::Phase;
use hm_tensor::vecops;

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
    /// Panics on degenerate configs or negative `μ`.
    pub fn new(cfg: FedProxConfig) -> Self {
        assert!(cfg.rounds > 0 && cfg.tau1 > 0 && cfg.m_clients > 0 && cfg.batch_size > 0);
        assert!(cfg.mu >= 0.0, "mu must be non-negative");
        Self { cfg }
    }
}

impl Algorithm for FedProx {
    fn name(&self) -> &'static str {
        "FedProx"
    }

    fn run(&self, problem: &FederatedProblem, seed: u64) -> RunResult {
        let cfg = &self.cfg;
        let n = problem.topology().total_clients();
        assert!(
            cfg.m_clients <= n,
            "m_clients {} exceeds {} clients",
            cfg.m_clients,
            n
        );
        let d = problem.num_params();
        let meter = CommMeter::new();
        let mut history = History::default();
        let mut avg_w = IterateAverage::new(d);
        let mut avg_p = IterateAverage::new(problem.num_edges());
        let uniform_p = problem.initial_p();

        let mut w = problem
            .model
            .init_params(&mut StreamRng::for_key(StreamKey::new(
                seed,
                Purpose::Init,
                0,
                0,
            )));

        let resumed = ResumedRun::from_opts(&cfg.opts, "FedProx", seed, cfg.rounds);
        let start_round = match &resumed {
            Some(rr) => {
                w.clone_from(&rr.w);
                avg_w = rr.avg_w.clone();
                avg_p = rr.avg_p.clone();
                history = rr.history.clone();
                meter.restore(&rr.comm);
                rr.start_round
            }
            None => 0,
        };
        // FedProx emits no telemetry, so checkpoint events are suppressed.
        let ckpt = CheckpointCtx::new(&cfg.opts, "FedProx", seed, cfg.rounds, false);
        let prof = &cfg.opts.profile;
        let tel = &cfg.opts.telemetry;

        for k in start_round..cfg.rounds {
            let round_span = prof.start();
            let sampling_span = prof.start();
            let mut s_rng =
                StreamRng::for_key(StreamKey::new(seed, Purpose::EdgeSampling, k as u64, 0));
            let sampled = sample_edges_uniform(n, cfg.m_clients, &mut s_rng);
            prof.record(tel, Phase::Phase1Sampling, Some(k), None, sampling_span);

            meter.record_broadcast(Link::ClientCloud, d as u64, sampled.len() as u64);
            let sgd_span = prof.start();
            let results: Vec<Vec<f32>> = cfg.opts.parallelism.map_ref(&sampled, |&client| {
                let mut rng = StreamRng::for_key(StreamKey::new(
                    seed,
                    Purpose::Batch,
                    k as u64,
                    client as u64,
                ));
                local_sgd_prox(
                    &*problem.model,
                    client_dataset(problem, client),
                    &w,
                    cfg.tau1,
                    cfg.eta_w,
                    cfg.batch_size,
                    cfg.mu,
                    &problem.w_domain,
                    &mut rng,
                )
            });
            prof.record(tel, Phase::LocalSgdChain, Some(k), None, sgd_span);
            meter.record_gather(Link::ClientCloud, d as u64, sampled.len() as u64);
            meter.record_round(Link::ClientCloud);

            let agg_span = prof.start();
            let models: Vec<&[f32]> = results.iter().map(|m| m.as_slice()).collect();
            vecops::average_into(&models, &mut w);
            prof.record(tel, Phase::Aggregation, Some(k), None, agg_span);

            finish_round(
                problem,
                &cfg.opts,
                &mut history,
                &mut avg_w,
                &mut avg_p,
                k,
                cfg.rounds,
                cfg.tau1,
                meter.snapshot(),
                &w,
                uniform_p.clone(),
            );
            ckpt.after_round(
                k,
                &w,
                &uniform_p,
                &avg_w,
                &avg_p,
                &history,
                meter.snapshot(),
                Default::default(),
                vec![],
            );
            prof.record(tel, Phase::Round, Some(k), None, round_span);
        }
        prof.emit_summary(tel);

        let final_p = q_to_edge_p(problem, &vec![1.0 / n as f32; n]);
        RunResult {
            final_w: w,
            avg_w: avg_w.mean(),
            final_p,
            avg_p: avg_p.mean(),
            history,
            comm: meter.snapshot(),
            faults: Default::default(),
            quarantine: Default::default(),
            churn: Default::default(),
        }
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
