//! Reference (differential-testing) implementations.
//!
//! Deliberately naive, allocation-heavy, obviously-correct transcriptions
//! of one HierMinimax round (Algorithm 1) and of the flat FedAvg/DRFA
//! round shapes, written straight from the paper's pseudocode. They share
//! only the substrate the protocol itself is defined over — the keyed RNG
//! streams, the model's loss/gradient oracle, the projection operators,
//! the pure [`FaultPlan`] decision functions (client crashes, straggler
//! deadlines, Byzantine corruption) and the robust aggregation kernels —
//! and re-derive everything the optimized `hm-core::algorithms` path does
//! cleverly: the fault prepass, multiplicity counting, survivor
//! bookkeeping, per-edge task chains, scratch reuse, fused projected
//! steps, workspace-based gradients.
//!
//! The HierMinimax round is the reference for the client-edge block
//! phase: it runs every block of every sampled edge in plain loop order,
//! with fresh allocations, and applies faults and aggregation rules
//! exactly as the protocol defines them. Cloud-link faults (edge outages,
//! message loss), quarantine and membership churn are not modelled;
//! `tests/pinned_bits.rs` pins those paths instead.
//!
//! The contract is **bit-identical** per-round iterates: the optimized run
//! streams each round's model digest (`phase1_done.w_digest`, see
//! `hm_telemetry::model_digest`) and weights (`dual_update.p`), and the
//! differential tests (`tests/oracle_diff.rs`) assert `==` on the digest
//! of the reference model and on the `f32` weight vectors — and on the
//! final `w` and `p` in full — not approximate closeness. The floating-point contracts that make this
//! possible are part of the workspace's determinism policy (DESIGN.md §7):
//! aggregation accumulates per-coordinate in `f64` over sources in index
//! order, and each SGD step is an `axpy` followed by a projection.

use hm_core::algorithms::{Hyper, RunOpts, WeightUpdateModel};
use hm_core::problem::FederatedProblem;
use hm_data::batch::sample_batch;
use hm_data::rng::{Purpose, StreamKey, StreamRng};
use hm_data::Dataset;
use hm_nn::Model;
use hm_optim::{Projection, ProjectionOp};
use hm_simnet::{FaultPlan, Quantizer, StragglerFate};
use hm_tensor::Aggregator;

/// The iterates a reference round produces.
#[derive(Debug, Clone, PartialEq)]
pub struct ReferenceRound {
    /// The aggregated global model `w^{(k+1)}` (eq. 5).
    pub w: Vec<f32>,
    /// The updated edge weights `p^{(k+1)}` (eq. 7).
    pub p: Vec<f32>,
    /// The aggregated checkpoint model `w^{(k,c2,c1)}` (eq. 6).
    pub w_checkpoint: Vec<f32>,
}

/// The initial model `w^(0)` every algorithm draws from the `Init` stream.
pub fn reference_init_w(problem: &FederatedProblem, seed: u64) -> Vec<f32> {
    problem
        .model
        .init_params(&mut StreamRng::for_key(StreamKey::new(
            seed,
            Purpose::Init,
            0,
            0,
        )))
}

/// Plain mean of vectors: per-coordinate `f64` accumulation in source
/// order, cast to `f32` — the aggregation contract of eq. (5).
fn naive_mean(sources: &[&[f32]]) -> Vec<f32> {
    assert!(!sources.is_empty());
    let n = sources.len() as f64;
    (0..sources[0].len())
        .map(|i| {
            let mut acc = 0.0_f64;
            for s in sources {
                acc += f64::from(s[i]);
            }
            (acc / n) as f32
        })
        .collect()
}

/// Weighted mean `out_i = Σ_j weight_j · source_j[i]`, same contract.
fn naive_weighted_mean(sources: &[&[f32]], weights: &[f64]) -> Vec<f32> {
    assert_eq!(sources.len(), weights.len());
    assert!(!sources.is_empty());
    (0..sources[0].len())
        .map(|i| {
            let mut acc = 0.0_f64;
            for (s, &wt) in sources.iter().zip(weights) {
                acc += wt * f64::from(s[i]);
            }
            acc as f32
        })
        .collect()
}

/// Multiplicity counting of a with-replacement sample, first-seen order.
fn naive_multiplicities(sampled: &[usize]) -> (Vec<usize>, Vec<usize>) {
    let mut distinct: Vec<usize> = Vec::new();
    let mut counts: Vec<usize> = Vec::new();
    for &e in sampled {
        if let Some(i) = distinct.iter().position(|&x| x == e) {
            counts[i] += 1;
        } else {
            distinct.push(e);
            counts.push(1);
        }
    }
    (distinct, counts)
}

/// One projected descent step of eq. (4), the unfused two-phase form:
/// `w ← Π_W(w − η g)`.
fn naive_descent_step(w: &mut [f32], grad: &[f32], lr: f32, proj: &ProjectionOp) {
    for (wi, &g) in w.iter_mut().zip(grad) {
        *wi += -lr * g;
    }
    proj.project(w);
}

/// What one client's local run produces: the final model and, if a
/// checkpoint step was requested, the model snapshot taken there.
type ClientIterates = (Vec<f32>, Option<Vec<f32>>);

/// Client-side local SGD: fresh allocations every step, the legacy
/// (workspace-free) gradient path, optional checkpoint after `c` steps.
#[allow(clippy::too_many_arguments)]
fn naive_local_sgd(
    model: &dyn Model,
    data: &Dataset,
    w0: &[f32],
    steps: usize,
    lr: f32,
    batch_size: usize,
    proj: &ProjectionOp,
    rng: &mut StreamRng,
    checkpoint_after: Option<usize>,
) -> ClientIterates {
    let mut w = w0.to_vec();
    let mut checkpoint = if checkpoint_after == Some(0) {
        Some(w.clone())
    } else {
        None
    };
    for step in 0..steps {
        let batch = sample_batch(data, batch_size, rng);
        let mut grad = vec![0.0_f32; model.num_params()];
        model.loss_grad(&w, &batch, &mut grad);
        naive_descent_step(&mut w, &grad, lr, proj);
        if checkpoint_after == Some(step + 1) {
            checkpoint = Some(w.clone());
        }
    }
    (w, checkpoint)
}

/// The upload codec: quantize the delta against `base`, reconstruct.
fn naive_quantize_delta(q: &Quantizer, base: &[f32], v: &mut [f32], rng: &mut StreamRng) {
    for (x, &b) in v.iter_mut().zip(base) {
        *x -= b;
    }
    q.apply(v, rng);
    for (x, &b) in v.iter_mut().zip(base) {
        *x += b;
    }
}

/// A client's mini-batch loss estimate (Phase-2 `LossEstimation`).
fn naive_estimate_loss(
    model: &dyn Model,
    data: &Dataset,
    w: &[f32],
    batch_size: usize,
    rng: &mut StreamRng,
) -> f64 {
    let batch = sample_batch(data, batch_size, rng);
    model.loss(w, &batch)
}

/// Whether a client's upload reaches its edge in a block: it neither
/// crashed nor straggled past the deadline.
fn uploads(plan: &FaultPlan, seed: u64, block_tag: u64, client: usize) -> bool {
    !plan.client_crashed(seed, block_tag, 0, client)
        && plan.straggler(seed, block_tag, 0, client) != StragglerFate::Missed
}

/// A robust rule's reduction of `sources` (unweighted by construction),
/// with `base` the model norm clipping measures deviations against. The
/// kernels are tested against naive references in `hm_tensor::robust`.
fn robust_reduce(agg: &Aggregator, sources: &[&[f32]], base: &[f32]) -> Vec<f32> {
    let mut out = vec![0.0_f32; base.len()];
    agg.aggregate_present_into(sources, |v| Some(*v), Some(base), &mut Vec::new(), &mut out);
    out
}

/// One full HierMinimax round (Algorithm 1, Phases 1 and 2), transcribed
/// naively. `w`/`p` are the round-start iterates `w^(k)` / `p^(k)`.
///
/// Client crashes, straggler deadline misses and Byzantine corruption
/// follow `opts.fault`;
/// client→edge and edge→cloud reductions follow `opts.aggregator`.
///
/// # Panics
/// Panics on what the reference does not model: edge outages, message
/// loss, quarantine and membership churn.
pub fn reference_hierminimax_round(
    problem: &FederatedProblem,
    h: &Hyper,
    opts: &RunOpts,
    seed: u64,
    k: usize,
    w: &[f32],
    p: &[f32],
) -> ReferenceRound {
    let plan = &opts.fault;
    assert!(
        plan.edge_outage == 0.0 && plan.msg_loss == 0.0,
        "reference round models client-level faults only"
    );
    assert!(
        opts.quarantine_z == 0.0 && opts.churn.is_none(),
        "reference round models neither quarantine nor churn"
    );
    let agg = &opts.aggregator;
    let n_edges = problem.num_edges();
    let n0 = problem.clients_per_edge();
    let topo = problem.topology();
    let model = &*problem.model;

    // Phase 1 (a): sample E^(k) ∝ p^(k) with replacement, and (c1, c2)
    // uniform on [τ1] × [τ2].
    let mut e_rng = StreamRng::for_key(StreamKey::new(seed, Purpose::EdgeSampling, k as u64, 0));
    let p64: Vec<f64> = p.iter().map(|&x| f64::from(x).max(0.0)).collect();
    let sampled = e_rng.sample_weighted_with_replacement(&p64, h.m);
    let mut c_rng = StreamRng::for_key(StreamKey::new(seed, Purpose::Checkpoint, k as u64, 0));
    let c1 = c_rng.below(h.tau1);
    let c2 = c_rng.below(h.tau2);
    let (distinct, counts) = naive_multiplicities(&sampled);

    // Phase 1 (b): ModelUpdate at every distinct sampled edge — τ2 blocks
    // of τ1 local steps, aggregating the surviving uploads per block,
    // checkpoint in block c2.
    let mut edge_models: Vec<Vec<f32>> = distinct.iter().map(|_| w.to_vec()).collect();
    let mut edge_cps: Vec<Option<Vec<f32>>> = vec![None; distinct.len()];
    for t2 in 0..h.tau2 {
        let cp_after = (t2 == c2).then_some(c1);
        let block_tag = (k * h.tau2 + t2) as u64;
        for (ei, &e) in distinct.iter().enumerate() {
            let base = edge_models[ei].clone();
            let mut outs: Vec<Option<ClientIterates>> = Vec::new();
            for c in 0..n0 {
                let client = topo.client_id(e, c);
                if !uploads(plan, seed, block_tag, client) {
                    outs.push(None);
                    continue;
                }
                let mut rng = StreamRng::for_key(StreamKey::new(
                    seed,
                    Purpose::Batch,
                    block_tag,
                    client as u64,
                ));
                let (mut w_out, mut cp_out) = naive_local_sgd(
                    model,
                    problem.client_data(e, c),
                    &base,
                    h.tau1,
                    h.eta_w,
                    h.batch_size,
                    &problem.w_domain,
                    &mut rng,
                    cp_after,
                );
                // A Byzantine client forges its model and checkpoint
                // before the uplink codec sees them.
                if plan.client_corrupt(seed, block_tag, 0, client) {
                    plan.corrupt_update(seed, block_tag, 0, client, &base, &mut w_out);
                    if let Some(cp) = cp_out.as_mut() {
                        plan.corrupt_update(seed, block_tag, 0, client, &base, cp);
                    }
                }
                if h.quantizer != Quantizer::Exact {
                    let mut qrng = StreamRng::for_key(StreamKey::new(
                        seed,
                        Purpose::Quantize,
                        block_tag,
                        client as u64,
                    ));
                    naive_quantize_delta(&h.quantizer, &base, &mut w_out, &mut qrng);
                    if let Some(cp) = cp_out.as_mut() {
                        naive_quantize_delta(&h.quantizer, &base, cp, &mut qrng);
                    }
                }
                outs.push(Some((w_out, cp_out)));
            }
            let survivors: Vec<&[f32]> = outs
                .iter()
                .filter_map(|o| o.as_ref().map(|(wc, _)| wc.as_slice()))
                .collect();
            if survivors.is_empty() {
                // Total blackout: the edge keeps its block-start model.
                continue;
            }
            // Survivors fold in slot order; `base` is the block-start
            // model.
            let reduce = |sources: &[&[f32]]| match agg {
                Aggregator::Mean => naive_mean(sources),
                _ => robust_reduce(agg, sources, &base),
            };
            edge_models[ei] = reduce(&survivors);
            if t2 == c2 {
                let cps: Vec<&[f32]> = outs
                    .iter()
                    .filter_map(|o| {
                        o.as_ref()
                            .map(|(_, cp)| cp.as_deref().expect("checkpoint block"))
                    })
                    .collect();
                edge_cps[ei] = Some(reduce(&cps));
            }
        }
    }
    // An edge that lost every client during block c2 falls back to its
    // final model as the checkpoint.
    let mut edge_cps: Vec<Vec<f32>> = edge_cps
        .into_iter()
        .enumerate()
        .map(|(ei, cp)| cp.unwrap_or_else(|| edge_models[ei].clone()))
        .collect();

    // Edge → cloud codec: deltas against the round's broadcast model.
    if h.quantizer != Quantizer::Exact {
        for (ei, &e) in distinct.iter().enumerate() {
            let mut qrng = StreamRng::for_key(StreamKey::new(
                seed,
                Purpose::Quantize,
                k as u64,
                1_000_000 + e as u64,
            ));
            naive_quantize_delta(&h.quantizer, w, &mut edge_models[ei], &mut qrng);
            naive_quantize_delta(&h.quantizer, w, &mut edge_cps[ei], &mut qrng);
        }
    }

    // Cloud aggregation over the m_E sampled slots (eqs. 5–6). A robust
    // rule ignores the multiplicity weights; `w` is the broadcast model.
    let weights: Vec<f64> = counts.iter().map(|&c| c as f64 / h.m as f64).collect();
    let reduce = |sources: &[&[f32]]| match agg {
        Aggregator::Mean => naive_weighted_mean(sources, &weights),
        _ => robust_reduce(agg, sources, w),
    };
    let finals: Vec<&[f32]> = edge_models.iter().map(|v| v.as_slice()).collect();
    let w_next = reduce(&finals);
    let cps: Vec<&[f32]> = edge_cps.iter().map(|v| v.as_slice()).collect();
    let w_checkpoint = reduce(&cps);

    // Phase 2: uniform U^(k), per-edge loss estimates on the checkpoint
    // (or an ablation model), importance-weighted ascent (eq. 7).
    let w_phase2: &[f32] = match h.weight_update_model {
        WeightUpdateModel::RandomCheckpoint => &w_checkpoint,
        WeightUpdateModel::FinalModel => &w_next,
        WeightUpdateModel::RoundStart => w,
    };
    let mut u_rng = StreamRng::for_key(StreamKey::new(
        seed,
        Purpose::LossEstSampling,
        k as u64,
        u64::MAX,
    ));
    let u_set = u_rng.sample_without_replacement(n_edges, h.m);
    let mut v = vec![0.0_f32; n_edges];
    let scale = n_edges as f64 / h.m as f64;
    for &e in &u_set {
        let mut total = 0.0_f64;
        for c in 0..n0 {
            let client = topo.client_id(e, c);
            let mut rng = StreamRng::for_key(StreamKey::new(
                seed,
                Purpose::LossEstSampling,
                k as u64,
                client as u64,
            ));
            total += naive_estimate_loss(
                model,
                problem.client_data(e, c),
                w_phase2,
                h.loss_batch,
                &mut rng,
            );
        }
        let fe = total / n0 as f64;
        v[e] = (scale * fe) as f32;
    }
    let mut p_next = p.to_vec();
    let lr = h.eta_p * (h.tau1 * h.tau2) as f32;
    for (pi, &vi) in p_next.iter_mut().zip(&v) {
        *pi += lr * vi;
    }
    problem.p_domain.project(&mut p_next);

    ReferenceRound {
        w: w_next,
        p: p_next,
        w_checkpoint,
    }
}

/// A full reference HierMinimax run: per-round iterates starting from the
/// `Init`-stream model and the uniform `p^(0)`.
pub fn reference_hierminimax_run(
    problem: &FederatedProblem,
    h: &Hyper,
    opts: &RunOpts,
    seed: u64,
) -> Vec<ReferenceRound> {
    let mut w = reference_init_w(problem, seed);
    let mut p = problem.initial_p();
    (0..h.rounds)
        .map(|k| {
            let r = reference_hierminimax_round(problem, h, opts, seed, k, &w, &p);
            w = r.w.clone();
            p = r.p.clone();
            r
        })
        .collect()
}

/// One FedAvg round: uniform client sample, `τ1` local steps each, cloud
/// average weighted by local data size. Returns `w^{(k+1)}`.
pub fn reference_fedavg_round(
    problem: &FederatedProblem,
    h: &Hyper,
    seed: u64,
    k: usize,
    w: &[f32],
) -> Vec<f32> {
    let topo = problem.topology();
    let n = topo.total_clients();
    let mut s_rng = StreamRng::for_key(StreamKey::new(seed, Purpose::EdgeSampling, k as u64, 0));
    let sampled = s_rng.sample_without_replacement(n, h.m);
    let results: Vec<Vec<f32>> = sampled
        .iter()
        .map(|&client| {
            let mut rng = StreamRng::for_key(StreamKey::new(
                seed,
                Purpose::Batch,
                k as u64,
                client as u64,
            ));
            let (edge, idx) = (topo.edge_of(client), client % topo.clients_per_edge());
            naive_local_sgd(
                &*problem.model,
                problem.client_data(edge, idx),
                w,
                h.tau1,
                h.eta_w,
                h.batch_size,
                &problem.w_domain,
                &mut rng,
                None,
            )
            .0
        })
        .collect();
    let sizes: Vec<f64> = sampled
        .iter()
        .map(|&client| {
            let (edge, idx) = (topo.edge_of(client), client % topo.clients_per_edge());
            problem.client_data(edge, idx).len() as f64
        })
        .collect();
    let total: f64 = sizes.iter().sum();
    let weights: Vec<f64> = sizes.iter().map(|s| s / total).collect();
    let models: Vec<&[f32]> = results.iter().map(|m| m.as_slice()).collect();
    naive_weighted_mean(&models, &weights)
}

/// One DRFA round: clients sampled ∝ `q` run `τ1` steps with a checkpoint
/// at the uniform `t' ∈ [τ1]`; a second uniform set evaluates the
/// checkpoint and `q ← Π_Δ(q + η_q τ1 v)`. Returns `(w^{(k+1)},
/// q^{(k+1)}, p_edge)` where `p_edge` is `q` collapsed per edge area (the
/// vector DRFA's `dual_update` event carries).
pub fn reference_drfa_round(
    problem: &FederatedProblem,
    h: &Hyper,
    seed: u64,
    k: usize,
    w: &[f32],
    q: &[f32],
) -> (Vec<f32>, Vec<f32>, Vec<f32>) {
    let topo = problem.topology();
    let n = topo.total_clients();
    let shard = |client: usize| -> &Dataset {
        problem.client_data(topo.edge_of(client), client % topo.clients_per_edge())
    };

    let mut e_rng = StreamRng::for_key(StreamKey::new(seed, Purpose::EdgeSampling, k as u64, 0));
    let q64: Vec<f64> = q.iter().map(|&x| f64::from(x).max(0.0)).collect();
    let sampled = e_rng.sample_weighted_with_replacement(&q64, h.m);
    let (distinct, counts) = naive_multiplicities(&sampled);
    let mut c_rng = StreamRng::for_key(StreamKey::new(seed, Purpose::Checkpoint, k as u64, 0));
    let t_prime = c_rng.below(h.tau1);

    let results: Vec<ClientIterates> = distinct
        .iter()
        .map(|&client| {
            let mut rng = StreamRng::for_key(StreamKey::new(
                seed,
                Purpose::Batch,
                k as u64,
                client as u64,
            ));
            naive_local_sgd(
                &*problem.model,
                shard(client),
                w,
                h.tau1,
                h.eta_w,
                h.batch_size,
                &problem.w_domain,
                &mut rng,
                Some(t_prime),
            )
        })
        .collect();
    let weights: Vec<f64> = counts.iter().map(|&c| c as f64 / h.m as f64).collect();
    let models: Vec<&[f32]> = results.iter().map(|(m, _)| m.as_slice()).collect();
    let w_next = naive_weighted_mean(&models, &weights);
    let cps: Vec<&[f32]> = results
        .iter()
        .map(|(_, cp)| cp.as_deref().expect("drfa checkpoint"))
        .collect();
    let w_checkpoint = naive_weighted_mean(&cps, &weights);

    let mut u_rng = StreamRng::for_key(StreamKey::new(
        seed,
        Purpose::LossEstSampling,
        k as u64,
        u64::MAX,
    ));
    let u_set = u_rng.sample_without_replacement(n, h.m);
    let mut v = vec![0.0_f32; n];
    let scale = n as f64 / h.m as f64;
    for &client in &u_set {
        let mut rng = StreamRng::for_key(StreamKey::new(
            seed,
            Purpose::LossEstSampling,
            k as u64,
            client as u64,
        ));
        let l = naive_estimate_loss(
            &*problem.model,
            shard(client),
            &w_checkpoint,
            h.loss_batch,
            &mut rng,
        );
        v[client] = (scale * l) as f32;
    }
    let mut q_next = q.to_vec();
    let lr = h.eta_p * h.tau1 as f32;
    for (qi, &vi) in q_next.iter_mut().zip(&v) {
        *qi += lr * vi;
    }
    ProjectionOp::Simplex.project(&mut q_next);

    // Per-edge collapse, f32 accumulation in client order (the recording
    // convention of the round driver's client units).
    let mut p_edge = vec![0.0_f32; problem.num_edges()];
    for (client, &qc) in q_next.iter().enumerate() {
        p_edge[topo.edge_of(client)] += qc;
    }
    (w_next, q_next, p_edge)
}

#[cfg(test)]
mod tests {
    use super::*;
    use hm_data::scenarios::tiny_problem;

    #[test]
    fn naive_mean_matches_vecops_contract() {
        let a = vec![0.1_f32, -2.5, 3.125];
        let b = vec![1.0_f32, 0.5, -0.25];
        let got = naive_mean(&[&a, &b]);
        let mut want = vec![0.0_f32; 3];
        hm_tensor::vecops::average_into(&[&a, &b], &mut want);
        assert_eq!(got, want);

        let got = naive_weighted_mean(&[&a, &b], &[0.75, 0.25]);
        let mut want = vec![0.0_f32; 3];
        hm_tensor::vecops::weighted_average_into(&[&a, &b], &[0.75, 0.25], &mut want);
        assert_eq!(got, want);
    }

    #[test]
    fn naive_multiplicities_first_seen_order() {
        let (d, c) = naive_multiplicities(&[3, 1, 3, 3, 0]);
        assert_eq!(d, vec![3, 1, 0]);
        assert_eq!(c, vec![3, 1, 1]);
    }

    #[test]
    fn naive_descent_matches_fused_step() {
        let g = vec![1.0_f32, -0.5, 0.25, 3.0];
        for proj in [
            ProjectionOp::Unconstrained,
            ProjectionOp::L2Ball { radius: 0.1 },
            ProjectionOp::Box {
                lo: -0.05,
                hi: 0.05,
            },
        ] {
            let mut a = vec![0.1_f32, 0.2, -0.3, 0.4];
            let mut b = a.clone();
            naive_descent_step(&mut a, &g, 0.37, &proj);
            hm_optim::sgd::projected_sgd_step(&mut b, &g, 0.37, &proj);
            assert_eq!(a, b, "{proj:?}");
        }
    }

    #[test]
    fn reference_round_is_deterministic() {
        let sc = tiny_problem(3, 2, 11);
        let fp = FederatedProblem::logistic_from_scenario(&sc);
        let h = Hyper {
            rounds: 2,
            eta_w: 0.05,
            eta_p: 0.05,
            batch_size: 4,
            ..Hyper::default()
        };
        let opts = RunOpts::default();
        let a = reference_hierminimax_run(&fp, &h, &opts, 7);
        let b = reference_hierminimax_run(&fp, &h, &opts, 7);
        assert_eq!(a, b);
        assert_eq!(a.len(), 2);
        // p stays a distribution.
        let sum: f32 = a[1].p.iter().sum();
        assert!((sum - 1.0).abs() < 1e-4);
    }
}
