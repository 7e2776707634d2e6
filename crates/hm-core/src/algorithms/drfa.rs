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
//! this method — asserted in the integration tests.

use super::flat_common::{client_dataset, q_to_edge_p, run_flat_clients};
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
        "DRFA"
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

        let resumed = ResumedRun::from_opts(&cfg.opts, "DRFA", seed, cfg.rounds);
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
            "DRFA",
            cfg.rounds,
            problem.num_edges(),
            d,
            seed,
        );
        let ckpt = CheckpointCtx::new(&cfg.opts, "DRFA", seed, cfg.rounds, true);

        let prof = &cfg.opts.profile;
        for k in start_round..cfg.rounds {
            tel.record(|| TelemetryEvent::RoundStart { round: k });
            let round_timer = tel.timer();
            let phase1_timer = tel.timer();
            let round_span = prof.start();
            let sampling_span = prof.start();
            // Sample clients by q and a checkpoint step t' ∈ [τ1].
            let mut e_rng =
                StreamRng::for_key(StreamKey::new(seed, Purpose::EdgeSampling, k as u64, 0));
            let q64: Vec<f64> = q.iter().map(|&x| f64::from(x).max(0.0)).collect();
            let sampled = sample_edges_weighted(&q64, cfg.m_clients, &mut e_rng);
            let (distinct, counts) = multiplicities(&sampled);

            let mut c_rng =
                StreamRng::for_key(StreamKey::new(seed, Purpose::Checkpoint, k as u64, 0));
            let t_prime = c_rng.below(cfg.tau1);
            // Two-layer method: "edges" are sampled client ids; the single
            // checkpoint coordinate t' maps onto c1.
            tel.record(|| TelemetryEvent::Phase1Sampled {
                round: k,
                edges: sampled.clone(),
                checkpoint: Some((t_prime, 0)),
            });
            prof.record(tel, Phase::Phase1Sampling, Some(k), None, sampling_span);

            // Round 1: broadcast w + t', run τ1 local steps, gather model
            // and checkpoint.
            meter.record_broadcast(Link::ClientCloud, d as u64 + 1, distinct.len() as u64);
            let sgd_span = prof.start();
            let results = run_flat_clients(
                problem,
                &w,
                &distinct,
                cfg.tau1,
                cfg.eta_w,
                cfg.batch_size,
                k,
                seed,
                cfg.opts.parallelism,
                Some(t_prime),
            );
            prof.record(tel, Phase::LocalSgdChain, Some(k), None, sgd_span);
            meter.record_gather(Link::ClientCloud, 2 * d as u64, distinct.len() as u64);
            meter.record_round(Link::ClientCloud);

            let agg_span = prof.start();
            let weights: Vec<f64> = counts
                .iter()
                .map(|&c| c as f64 / cfg.m_clients as f64)
                .collect();
            let models: Vec<&[f32]> = results.iter().map(|(m, _)| m.as_slice()).collect();
            vecops::weighted_average_into(&models, &weights, &mut w);
            let cps: Vec<&[f32]> = results
                .iter()
                .map(|(_, cp)| cp.as_deref().expect("drfa captures checkpoints"))
                .collect();
            let mut w_checkpoint = vec![0.0_f32; d];
            vecops::weighted_average_into(&cps, &weights, &mut w_checkpoint);
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

            // Round 2: uniform set evaluates the checkpoint model.
            let phase2_timer = tel.timer();
            let dual_span = prof.start();
            let mut u_rng = StreamRng::for_key(StreamKey::new(
                seed,
                Purpose::LossEstSampling,
                k as u64,
                u64::MAX,
            ));
            let u_set = sample_edges_uniform(n, cfg.m_clients, &mut u_rng);
            meter.record_broadcast(Link::ClientCloud, d as u64, u_set.len() as u64);
            let losses: Vec<f64> = cfg.opts.parallelism.map_ref(&u_set, |&c| {
                let mut rng = StreamRng::for_key(StreamKey::new(
                    seed,
                    Purpose::LossEstSampling,
                    k as u64,
                    c as u64,
                ));
                estimate_loss(
                    &*problem.model,
                    client_dataset(problem, c),
                    &w_checkpoint,
                    cfg.loss_batch,
                    &mut rng,
                )
            });
            meter.record_gather(Link::ClientCloud, 1, u_set.len() as u64);

            let mut v = vec![0.0_f32; n];
            let scale = n as f64 / cfg.m_clients as f64;
            for (&c, &l) in u_set.iter().zip(&losses) {
                v[c] = (scale * l) as f32;
            }
            projected_ascent_step(&mut q, &v, cfg.eta_q * cfg.tau1 as f32, &q_domain);
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
            let slots_done = (k + 1) * cfg.tau1;
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
                cfg.tau1,
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
        let total_slots = cfg.rounds * cfg.tau1;
        prof.emit_summary(tel);
        tel.record(|| TelemetryEvent::RunEnd {
            rounds: cfg.rounds,
            slots: total_slots,
            comm_total: comm_final,
            sim_s: tel.sim_seconds(&comm_final, total_slots, 1),
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
