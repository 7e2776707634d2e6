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
//! [`Method::QFedAvg`](super::Method::QFedAvg) runs it as the cloud's
//! fold over client units.

use crate::problem::FederatedProblem;
use hm_optim::projection::Projection;
use hm_tensor::vecops;

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
    use crate::algorithms::{Algorithm, Hyper, Method, RunOpts};
    use hm_simnet::Parallelism;

    /// q-FedAvg's run of `h` with `q`.
    fn run(fp: &FederatedProblem, h: &Hyper, q: f64, seed: u64) -> crate::RunResult {
        let opts = RunOpts {
            eval_every: 0,
            parallelism: Parallelism::Sequential,
            ..Default::default()
        };
        Method::QFedAvg
            .build(&Hyper { q, ..h.clone() }, opts)
            .run(fp, seed)
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
        let h = Hyper {
            rounds: 600,
            m: 8, // full participation: isolate the q effect
            eta_w: 0.05,
            loss_batch: 64,
            ..Hyper::default()
        };
        let spread_at = |q: f64| -> f64 {
            let mut total = 0.0;
            for seed in 0..3u64 {
                let r = run(&fp, &h, q, 5 + seed);
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
        let fp =
            FederatedProblem::logistic_from_scenario(&hm_data::scenarios::tiny_problem(2, 2, 1));
        run(&fp, &Hyper::default(), -1.0, 0);
    }
}
