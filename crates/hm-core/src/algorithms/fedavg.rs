//! FedAvg (McMahan et al., AISTATS 2017) — the standard two-layer
//! *minimization* baseline: per round, a uniform sample of clients runs
//! `τ1` local SGD steps from the broadcast model and the cloud aggregates
//! the results weighted by local dataset size — the `q_n ∝ data` choice of
//! the paper's eq. (1), which is exactly what makes minimization
//! under-serve data-poor clients. No edge servers, no fairness weights.

use super::flat_common::{client_dataset, q_to_edge_p, run_flat_clients};
use super::{finish_round, Algorithm, IterateAverage, RunOpts, RunResult};
use crate::checkpoint::{emit_preamble, CheckpointCtx, ResumedRun};
use crate::history::History;
use crate::problem::FederatedProblem;
use hm_data::rng::{Purpose, StreamKey, StreamRng};
use hm_simnet::sampling::sample_edges_uniform;
use hm_simnet::{CommMeter, Link};
use hm_telemetry::{model_digest, Phase, TelemetryEvent};
use hm_tensor::vecops;

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
        "FedAvg"
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

        let resumed = ResumedRun::from_opts(&cfg.opts, "FedAvg", seed, cfg.rounds);
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
        let mut comm_prev = meter.snapshot();
        let tel = &cfg.opts.telemetry;
        let run_timer = tel.timer();
        emit_preamble(
            tel,
            resumed.as_ref(),
            "FedAvg",
            cfg.rounds,
            problem.num_edges(),
            d,
            seed,
        );
        let ckpt = CheckpointCtx::new(&cfg.opts, "FedAvg", seed, cfg.rounds, true);

        let prof = &cfg.opts.profile;
        for k in start_round..cfg.rounds {
            tel.record(|| TelemetryEvent::RoundStart { round: k });
            let round_timer = tel.timer();
            let phase1_timer = tel.timer();
            let round_span = prof.start();
            let sampling_span = prof.start();
            let mut s_rng =
                StreamRng::for_key(StreamKey::new(seed, Purpose::EdgeSampling, k as u64, 0));
            let sampled = sample_edges_uniform(n, cfg.m_clients, &mut s_rng);
            // Two-layer method: the "edges" here are sampled client ids.
            tel.record(|| TelemetryEvent::Phase1Sampled {
                round: k,
                edges: sampled.clone(),
                checkpoint: None,
            });
            prof.record(tel, Phase::Phase1Sampling, Some(k), None, sampling_span);

            meter.record_broadcast(Link::ClientCloud, d as u64, sampled.len() as u64);
            let sgd_span = prof.start();
            let results = run_flat_clients(
                problem,
                &w,
                &sampled,
                cfg.tau1,
                cfg.eta_w,
                cfg.batch_size,
                k,
                seed,
                cfg.opts.parallelism,
                None,
            );
            prof.record(tel, Phase::LocalSgdChain, Some(k), None, sgd_span);
            meter.record_gather(Link::ClientCloud, d as u64, sampled.len() as u64);
            meter.record_round(Link::ClientCloud);

            // Aggregate weighted by local data size (q_n ∝ |D_n|,
            // normalised over the sampled set).
            let agg_span = prof.start();
            let sizes: Vec<f64> = sampled
                .iter()
                .map(|&c| client_dataset(problem, c).len() as f64)
                .collect();
            let total: f64 = sizes.iter().sum();
            let weights: Vec<f64> = sizes.iter().map(|s| s / total).collect();
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
                uniform_p.clone(),
            );
            ckpt.after_round(
                k,
                &w,
                &uniform_p,
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

        let final_p = q_to_edge_p(problem, &vec![1.0 / n as f32; n]);
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
