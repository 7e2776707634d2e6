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

use super::flat_common::{q_to_edge_p, run_flat_clients};
use super::hier_common::multiplicities;
use super::{finish_round, Algorithm, IterateAverage, RunOpts, RunResult};
use crate::checkpoint::{emit_preamble, CheckpointCtx, ResumedRun};
use crate::history::History;
use crate::localsgd::estimate_loss;
use crate::problem::FederatedProblem;
use hm_data::rng::{Purpose, StreamKey, StreamRng};
use hm_optim::sgd::projected_ascent_step;
use hm_optim::ProjectionOp;
use hm_simnet::sampling::{sample_edges_uniform, sample_edges_weighted};
use hm_simnet::{CommMeter, Link};
use hm_telemetry::{model_digest, Phase, TelemetryEvent};
use hm_tensor::vecops;

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
        "Stochastic-AFL"
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

        let mut w = problem
            .model
            .init_params(&mut StreamRng::for_key(StreamKey::new(
                seed,
                Purpose::Init,
                0,
                0,
            )));
        let mut q = vec![1.0 / n as f32; n];
        let q_domain = ProjectionOp::Simplex;

        let resumed = ResumedRun::from_opts(&cfg.opts, "Stochastic-AFL", seed, cfg.rounds);
        let start_round = match &resumed {
            Some(rr) => {
                w.clone_from(&rr.w);
                q.clone_from(&rr.p);
                avg_w = rr.avg_w.clone();
                avg_p = rr.avg_p.clone();
                history = rr.history.clone();
                meter.restore(&rr.comm);
                rr.start_round
            }
            None => 0,
        };
        let mut comm_prev = meter.snapshot();

        let tel = &cfg.opts.telemetry;
        let run_timer = tel.timer();
        emit_preamble(
            tel,
            resumed.as_ref(),
            "Stochastic-AFL",
            cfg.rounds,
            problem.num_edges(),
            d,
            seed,
        );
        let ckpt = CheckpointCtx::new(&cfg.opts, "Stochastic-AFL", seed, cfg.rounds, true);

        let prof = &cfg.opts.profile;
        for k in start_round..cfg.rounds {
            tel.record(|| TelemetryEvent::RoundStart { round: k });
            let round_timer = tel.timer();
            let phase1_timer = tel.timer();
            let round_span = prof.start();
            let sampling_span = prof.start();
            // Model step: clients sampled by q, single local SGD step.
            let mut e_rng =
                StreamRng::for_key(StreamKey::new(seed, Purpose::EdgeSampling, k as u64, 0));
            let q64: Vec<f64> = q.iter().map(|&x| f64::from(x).max(0.0)).collect();
            let sampled = sample_edges_weighted(&q64, cfg.m_clients, &mut e_rng);
            let (distinct, counts) = multiplicities(&sampled);
            // Two-layer method: "edges" are sampled client ids.
            tel.record(|| TelemetryEvent::Phase1Sampled {
                round: k,
                edges: sampled.clone(),
                checkpoint: None,
            });

            // Loss-estimation set: uniform clients (unbiased q-gradient).
            let mut u_rng = StreamRng::for_key(StreamKey::new(
                seed,
                Purpose::LossEstSampling,
                k as u64,
                u64::MAX,
            ));
            let u_set = sample_edges_uniform(n, cfg.m_clients, &mut u_rng);
            prof.record(tel, Phase::Phase1Sampling, Some(k), None, sampling_span);

            // One broadcast serves both sets; meter the union.
            let mut union = distinct.clone();
            for &c in &u_set {
                if !union.contains(&c) {
                    union.push(c);
                }
            }
            meter.record_broadcast(Link::ClientCloud, d as u64, union.len() as u64);

            let sgd_span = prof.start();
            let results = run_flat_clients(
                problem,
                &w,
                &distinct,
                1,
                cfg.eta_w,
                cfg.batch_size,
                k,
                seed,
                cfg.opts.parallelism,
                None,
            );
            prof.record(tel, Phase::LocalSgdChain, Some(k), None, sgd_span);
            meter.record_gather(Link::ClientCloud, d as u64, distinct.len() as u64);

            let losses: Vec<f64> = cfg.opts.parallelism.map_ref(&u_set, |&c| {
                let mut rng = StreamRng::for_key(StreamKey::new(
                    seed,
                    Purpose::LossEstSampling,
                    k as u64,
                    c as u64,
                ));
                estimate_loss(
                    &*problem.model,
                    super::flat_common::client_dataset(problem, c),
                    &w,
                    cfg.loss_batch,
                    &mut rng,
                )
            });
            meter.record_gather(Link::ClientCloud, 1, u_set.len() as u64);
            meter.record_round(Link::ClientCloud);

            // Aggregate the model over the m sampled slots.
            let agg_span = prof.start();
            let weights: Vec<f64> = counts
                .iter()
                .map(|&c| c as f64 / cfg.m_clients as f64)
                .collect();
            let models: Vec<&[f32]> = results.iter().map(|(m, _)| m.as_slice()).collect();
            vecops::weighted_average_into(&models, &weights, &mut w);
            prof.record(tel, Phase::Aggregation, Some(k), None, agg_span);
            tel.record(|| {
                let elapsed_s = phase1_timer.elapsed_s();
                let (w_digest, nonfinite) = model_digest(&w);
                TelemetryEvent::Phase1Done {
                    round: k,
                    w_digest,
                    nonfinite,
                    elapsed_s,
                }
            });

            // Mixture-weight ascent on the unbiased estimate.
            let phase2_timer = tel.timer();
            let dual_span = prof.start();
            let mut v = vec![0.0_f32; n];
            let scale = n as f64 / cfg.m_clients as f64;
            for (&c, &l) in u_set.iter().zip(&losses) {
                v[c] = (scale * l) as f32;
            }
            projected_ascent_step(&mut q, &v, cfg.eta_q, &q_domain);
            prof.record(tel, Phase::DualUpdate, Some(k), None, dual_span);
            let p_edge = q_to_edge_p(problem, &q);
            tel.record(|| TelemetryEvent::DualUpdate {
                round: k,
                edges: u_set.clone(),
                losses: losses.clone(),
                p: p_edge.clone(),
                elapsed_s: phase2_timer.elapsed_s(),
            });
            let comm_now = meter.snapshot();
            let slots_done = k + 1;
            tel.record(|| TelemetryEvent::RoundEnd {
                round: k,
                slots: slots_done,
                comm_delta: comm_now.since(&comm_prev),
                comm_total: comm_now,
                sim_s: tel.sim_seconds(&comm_now, slots_done, 1),
                elapsed_s: round_timer.elapsed_s(),
            });
            comm_prev = comm_now;
            prof.record(tel, Phase::Round, Some(k), None, round_span);

            finish_round(
                problem,
                &cfg.opts,
                &mut history,
                &mut avg_w,
                &mut avg_p,
                k,
                cfg.rounds,
                1,
                comm_now,
                &w,
                p_edge,
            );
            ckpt.after_round(
                k,
                &w,
                &q,
                &avg_w,
                &avg_p,
                &history,
                comm_now,
                Default::default(),
                vec![],
            );
        }

        let comm_final = meter.snapshot();
        prof.emit_summary(tel);
        tel.record(|| TelemetryEvent::RunEnd {
            rounds: cfg.rounds,
            slots: cfg.rounds,
            comm_total: comm_final,
            sim_s: tel.sim_seconds(&comm_final, cfg.rounds, 1),
            elapsed_s: run_timer.elapsed_s(),
        });
        tel.flush();

        let final_p = q_to_edge_p(problem, &q);
        RunResult {
            final_w: w,
            avg_w: avg_w.mean(),
            final_p,
            avg_p: avg_p.mean(),
            history,
            comm: comm_final,
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
