//! The flat round driver: the two-layer round, run once for FedAvg,
//! FedProx, q-FedAvg, Stochastic-AFL and DRFA.
//!
//! These baselines ignore the edge servers: every exchange is metered on
//! the `ClientCloud` link and clients are indexed flat (`0..N`), while
//! fairness is still *measured* per edge area. Every flat algorithm runs
//! the same lifecycle per round `k`, in this order:
//!
//! 1. **Draw** — `m` distinct clients uniformly, or, for the minimax
//!    methods, `m` draws ∝ `q` (and DRFA's checkpoint step `t' ∈ [τ1]`).
//! 2. **Broadcast** of `w` (and `t'`) to the distinct sampled clients.
//! 3. **Local steps** — `τ1` SGD or proximal SGD steps from `w`.
//! 4. **Gather** and the **server update** of `w`.
//! 5. **Ascent on `q`** (minimax methods) — a uniform set `U^(k)`
//!    estimates its losses on the evaluation model and the cloud takes
//!    the projected ascent step.
//! 6. **`round_end`**, then the **evaluation** and the **checkpoint**.
//!
//! One closed policy, [`Update`], carries every difference (DESIGN.md
//! §7d). Each algorithm's run method translates its config into a
//! [`FlatSpec`] and calls [`run`].

use super::driver::Dual;
use super::hier_common::multiplicities;
use super::{finish_round, qffl, IterateAverage, RunOpts, RunResult, WeightUpdateModel};
use crate::checkpoint::{emit_preamble, CheckpointCtx, ResumedRun};
use crate::history::History;
use crate::localsgd::{estimate_loss, local_sgd, local_sgd_prox};
use crate::problem::FederatedProblem;
use hm_data::rng::{Purpose, StreamKey, StreamRng};
use hm_data::Dataset;
use hm_optim::sgd::projected_ascent_step;
use hm_optim::ProjectionOp;
use hm_simnet::sampling::{sample_edges_uniform, sample_edges_weighted};
use hm_simnet::{CommMeter, Link};
use hm_telemetry::{model_digest, Phase, TelemetryEvent};
use hm_tensor::vecops;

/// What the sampled clients run and how the cloud folds their uploads
/// into `w`.
#[derive(Clone, Copy)]
pub(crate) enum Update {
    /// `τ1` SGD steps; the average weighted by training-set size `|D_n|`
    /// (FedAvg).
    DataWeighted,
    /// `τ1` proximal SGD steps with coefficient `μ`; the plain average
    /// (FedProx).
    Proximal { mu: f32 },
    /// `τ1` SGD steps, plus each client's loss `F_k` at the broadcast
    /// model on a `loss_batch` mini-batch; the projected q-FFL step
    /// (q-FedAvg).
    Qffl { q: f64, loss_batch: usize },
    /// `m` draws ∝ `q`; `τ1` SGD steps; the average weighted by
    /// multiplicity in the draw; then the ascent step on `q` with
    /// `η_q·τ1` (Stochastic-AFL, DRFA). Under
    /// [`WeightUpdateModel::RandomCheckpoint`] each client also uploads
    /// its iterate after `t'` steps, averaged the same way.
    Minimax(Dual),
}

/// One flat run: the shared hyper-parameters and the [`Update`] policy.
pub(crate) struct FlatSpec<'a> {
    /// Snapshot identity and `run_start` name.
    pub name: &'static str,
    pub rounds: usize,
    /// Local SGD steps per round.
    pub tau1: usize,
    /// Clients drawn per round, and the size of `U^(k)`.
    pub m: usize,
    pub eta_w: f32,
    pub batch_size: usize,
    pub opts: &'a RunOpts,
    pub update: Update,
}

/// A flat client's training shard.
fn client_dataset(problem: &FederatedProblem, client: usize) -> &Dataset {
    let topo = problem.topology();
    let edge = topo.edge_of(client);
    problem.client_data(edge, client - edge * topo.clients_per_edge())
}

/// Collapse a per-client weight vector `q` into a per-edge vector (summing
/// within each edge area) for history recording and cross-method
/// comparison.
fn q_to_edge_p(problem: &FederatedProblem, q: &[f32]) -> Vec<f32> {
    let topo = problem.topology();
    assert_eq!(
        q.len(),
        topo.total_clients(),
        "client weight length mismatch"
    );
    let mut p = vec![0.0_f32; topo.num_edges()];
    for (c, &qc) in q.iter().enumerate() {
        p[topo.edge_of(c)] += qc;
    }
    p
}

/// Run `spec` on `problem`: the round lifecycle of the module docs, from
/// a fresh start or from `spec.opts.checkpoint.resume`.
pub(crate) fn run(problem: &FederatedProblem, seed: u64, spec: FlatSpec<'_>) -> RunResult {
    let FlatSpec {
        name,
        rounds,
        tau1,
        m,
        eta_w,
        batch_size,
        opts,
        update,
    } = spec;
    let n = problem.topology().total_clients();
    assert!(m <= n, "m_clients {m} exceeds {n} clients");
    let d = problem.num_params();
    let (tel, prof, par) = (&opts.telemetry, &opts.profile, opts.parallelism);
    let dual = match update {
        Update::Minimax(dual) => Some(dual),
        _ => None,
    };
    if let Update::Qffl { loss_batch, .. } | Update::Minimax(Dual { loss_batch, .. }) = update {
        assert!(loss_batch > 0, "loss_batch must be positive");
    }
    let key = |purpose, k: usize, id: u64| {
        StreamRng::for_key(StreamKey::new(seed, purpose, k as u64, id))
    };
    let loss = |k: usize, client: usize, w: &[f32], batch: usize| {
        let mut rng = key(Purpose::LossEstSampling, k, client as u64);
        let data = client_dataset(problem, client);
        estimate_loss(&*problem.model, data, w, batch, &mut rng)
    };

    let meter = CommMeter::new();
    let mut w = problem.model.init_params(&mut key(Purpose::Init, 0, 0));
    // Only the minimax methods move `q`. The others snapshot and record the
    // uniform edge weights, and report `final_p` from the uniform `q`.
    let mut q = vec![1.0 / n as f32; n];
    let uniform_p = problem.initial_p();
    let mut avg_w = IterateAverage::new(d);
    let mut avg_p = IterateAverage::new(problem.num_edges());
    let mut history = History::default();

    let resumed = ResumedRun::from_opts(opts, name, seed, rounds);
    let start = match &resumed {
        Some(rr) => {
            w.clone_from(&rr.w);
            if dual.is_some() {
                q.clone_from(&rr.p);
            }
            avg_w = rr.avg_w.clone();
            avg_p = rr.avg_p.clone();
            history = rr.history.clone();
            meter.restore(&rr.comm);
            rr.start_round
        }
        None => 0,
    };
    let mut comm_prev = meter.snapshot();
    let run_timer = tel.timer();
    emit_preamble(
        tel,
        resumed.as_ref(),
        name,
        rounds,
        problem.num_edges(),
        d,
        seed,
    );
    let ckpt = CheckpointCtx::new(opts, name, seed, rounds);

    for k in start..rounds {
        tel.record(|| TelemetryEvent::RoundStart { round: k });
        let round_timer = tel.timer();
        let phase1_timer = tel.timer();
        let round_span = prof.start();

        // ---- Draw --------------------------------------------------------
        let sampling_span = prof.start();
        let mut draw_rng = key(Purpose::EdgeSampling, k, 0);
        let sampled = match dual {
            Some(_) => {
                let q64: Vec<f64> = q.iter().map(|&x| f64::from(x).max(0.0)).collect();
                sample_edges_weighted(&q64, m, &mut draw_rng)
            }
            None => sample_edges_uniform(n, m, &mut draw_rng),
        };
        let t_prime = dual
            .filter(|dual| dual.model == WeightUpdateModel::RandomCheckpoint)
            .map(|_| key(Purpose::Checkpoint, k, 0).below(tau1));
        // Two-layer method: the "edges" are sampled client ids, and the
        // checkpoint step t' maps onto c1.
        tel.record(|| TelemetryEvent::Phase1Sampled {
            round: k,
            edges: sampled.clone(),
            checkpoint: t_prime.map(|t| (t, 0)),
        });
        prof.record(tel, Phase::Phase1Sampling, Some(k), None, sampling_span);
        let (clients, counts) = multiplicities(&sampled);

        // ---- Broadcast, local steps, gather -------------------------------
        let with_cp = u64::from(t_prime.is_some());
        meter.record_broadcast(Link::ClientCloud, d as u64 + with_cp, clients.len() as u64);
        let w_start = match dual {
            Some(Dual {
                model: WeightUpdateModel::RoundStart,
                ..
            }) => w.clone(),
            _ => Vec::new(),
        };
        let sgd_span = prof.start();
        let results: Vec<(Vec<f32>, Option<Vec<f32>>)> = par.map_ref(&clients, |&c| {
            let (model, data) = (&*problem.model, client_dataset(problem, c));
            let mut rng = key(Purpose::Batch, k, c as u64);
            let dom = &problem.w_domain;
            match update {
                Update::Proximal { mu } => (
                    local_sgd_prox(model, data, &w, tau1, eta_w, batch_size, mu, dom, &mut rng),
                    None,
                ),
                _ => local_sgd(
                    model, data, &w, tau1, eta_w, batch_size, dom, &mut rng, t_prime,
                ),
            }
        });
        // q-FedAvg's clients also report F_k at the broadcast model; the
        // floor keeps F_k^(q−1) finite for q < 1.
        let reports: Vec<f64> = match update {
            Update::Qffl { loss_batch, .. } => {
                par.map_ref(&clients, |&c| loss(k, c, &w, loss_batch).max(1e-10))
            }
            _ => Vec::new(),
        };
        prof.record(tel, Phase::LocalSgdChain, Some(k), None, sgd_span);
        let with_loss = u64::from(matches!(update, Update::Qffl { .. }));
        let up = (1 + with_cp) * d as u64 + with_loss;
        meter.record_gather(Link::ClientCloud, up, clients.len() as u64);
        meter.record_round(Link::ClientCloud);

        // ---- Server update -------------------------------------------------
        let agg_span = prof.start();
        let models: Vec<&[f32]> = results.iter().map(|(w_c, _)| w_c.as_slice()).collect();
        let mut w_checkpoint = Vec::new();
        match update {
            Update::DataWeighted => {
                let sizes: Vec<f64> = clients
                    .iter()
                    .map(|&c| client_dataset(problem, c).len() as f64)
                    .collect();
                let total: f64 = sizes.iter().sum();
                let weights: Vec<f64> = sizes.iter().map(|s| s / total).collect();
                vecops::weighted_average_into(&models, &weights, &mut w);
            }
            Update::Proximal { .. } => vecops::average_into(&models, &mut w),
            Update::Qffl { q, .. } => {
                qffl::server_step(problem, &mut w, &models, &reports, q, eta_w)
            }
            Update::Minimax(_) => {
                let weights: Vec<f64> = counts.iter().map(|&c| c as f64 / m as f64).collect();
                vecops::weighted_average_into(&models, &weights, &mut w);
                if t_prime.is_some() {
                    let cps: Vec<&[f32]> = results
                        .iter()
                        .map(|(_, cp)| cp.as_deref().expect("checkpoints captured"))
                        .collect();
                    w_checkpoint = vec![0.0_f32; d];
                    vecops::weighted_average_into(&cps, &weights, &mut w_checkpoint);
                }
            }
        }
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

        // ---- Ascent on q ---------------------------------------------------
        let p_edge = match dual {
            None => uniform_p.clone(),
            Some(dual) => {
                let phase2_timer = tel.timer();
                let dual_span = prof.start();
                let mut u_rng = key(Purpose::LossEstSampling, k, u64::MAX);
                let u_set = sample_edges_uniform(n, m, &mut u_rng);
                // The evaluation model goes only to the clients of U^(k)
                // that do not hold it yet: the sampled clients already hold
                // the round-start model.
                let (w_eval, fresh): (&[f32], usize) = match dual.model {
                    WeightUpdateModel::RandomCheckpoint => (&w_checkpoint, u_set.len()),
                    WeightUpdateModel::FinalModel => (&w, u_set.len()),
                    WeightUpdateModel::RoundStart => {
                        let fresh = u_set.iter().filter(|c| !clients.contains(c)).count();
                        (&w_start, fresh)
                    }
                };
                meter.record_broadcast(Link::ClientCloud, d as u64, fresh as u64);
                let losses: Vec<f64> =
                    par.map_ref(&u_set, |&c| loss(k, c, w_eval, dual.loss_batch));
                meter.record_gather(Link::ClientCloud, 1, u_set.len() as u64);
                let mut v = vec![0.0_f32; n];
                let scale = n as f64 / m as f64;
                for (&c, &l) in u_set.iter().zip(&losses) {
                    v[c] = (scale * l) as f32;
                }
                let eta = dual.eta_p * tau1 as f32;
                projected_ascent_step(&mut q, &v, eta, &ProjectionOp::Simplex);
                prof.record(tel, Phase::DualUpdate, Some(k), None, dual_span);
                let p_edge = q_to_edge_p(problem, &q);
                tel.record(|| TelemetryEvent::DualUpdate {
                    round: k,
                    edges: u_set,
                    losses,
                    p: p_edge.clone(),
                    elapsed_s: phase2_timer.elapsed_s(),
                });
                p_edge
            }
        };

        // ---- Accounting, evaluation and checkpoint -------------------------
        let comm_now = meter.snapshot();
        let slots_done = (k + 1) * tau1;
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
            opts,
            &mut history,
            &mut avg_w,
            &mut avg_p,
            k,
            rounds,
            tau1,
            comm_now,
            &w,
            p_edge,
        );
        let p_snap = if dual.is_some() { &q } else { &uniform_p };
        ckpt.after_round(
            k,
            &w,
            p_snap,
            &avg_w,
            &avg_p,
            &history,
            comm_now,
            Default::default(),
            vec![],
        );
    }

    let comm = meter.snapshot();
    let slots = rounds * tau1;
    prof.emit_summary(tel);
    tel.record(|| TelemetryEvent::RunEnd {
        rounds,
        slots,
        comm_total: comm,
        sim_s: tel.sim_seconds(&comm, slots, 1),
        elapsed_s: run_timer.elapsed_s(),
    });
    tel.flush();

    RunResult {
        final_w: w,
        avg_w: avg_w.mean(),
        final_p: q_to_edge_p(problem, &q),
        avg_p: avg_p.mean(),
        history,
        comm,
        faults: Default::default(),
        quarantine: Default::default(),
        churn: Default::default(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hm_data::scenarios::tiny_problem;

    #[test]
    fn client_dataset_addresses_by_edge() {
        let sc = tiny_problem(3, 2, 1);
        let fp = FederatedProblem::logistic_from_scenario(&sc);
        // Client 3 is edge 1, index 1.
        let a = client_dataset(&fp, 3);
        let b = fp.client_data(1, 1);
        assert_eq!(a.x.max_abs_diff(&b.x), 0.0);
    }

    #[test]
    fn q_to_edge_p_sums_within_edges() {
        let sc = tiny_problem(2, 3, 1);
        let fp = FederatedProblem::logistic_from_scenario(&sc);
        let q = vec![0.1, 0.2, 0.3, 0.05, 0.15, 0.2];
        let p = q_to_edge_p(&fp, &q);
        assert!((p[0] - 0.6).abs() < 1e-6);
        assert!((p[1] - 0.4).abs() < 1e-6);
    }
}
