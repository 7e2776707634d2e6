//! Convergence- and fairness-shape integration tests: the empirical
//! counterparts of Theorem 1 and the §6.3 fairness claims, at miniature
//! scale so they run in CI time.

use hierminimax::core::algorithms::{
    Algorithm, HierMinimax, HierMinimaxConfig, Hyper, Method, RunOpts,
};
use hierminimax::core::duality::{duality_gap, GapConfig};
use hierminimax::core::metrics::evaluate;
use hierminimax::core::problem::FederatedProblem;
use hierminimax::data::generators::synthetic_images::ImageConfig;
use hierminimax::data::scenarios::{linear_sizes, one_class_per_edge_sized, tiny_problem};
use hierminimax::simnet::Parallelism;

fn hm_cfg(rounds: usize) -> HierMinimaxConfig {
    HierMinimaxConfig {
        rounds,
        tau1: 2,
        tau2: 2,
        m_edges: 3,
        eta_w: 0.05,
        eta_p: 0.01,
        batch_size: 2,
        loss_batch: 8,
        weight_update_model: Default::default(),
        quantizer: Default::default(),
        opts: RunOpts {
            eval_every: 0,
            parallelism: Parallelism::Rayon,
            ..Default::default()
        },
    }
}

/// Theorem 1 shape: the duality gap of the averaged iterates decreases as
/// the slot budget T grows (fixed τ1, τ2 — so K grows).
#[test]
fn duality_gap_decreases_with_t() {
    let sc = tiny_problem(4, 2, 31);
    let fp = FederatedProblem::logistic_from_scenario(&sc);
    let gap_cfg = GapConfig {
        gd_iters: 150,
        ..Default::default()
    };
    let gap_at = |rounds: usize| {
        let r = HierMinimax::new(hm_cfg(rounds)).run(&fp, 5);
        duality_gap(&fp, &r.avg_w, &r.avg_p, &gap_cfg).gap
    };
    let g_small = gap_at(5);
    let g_large = gap_at(120);
    assert!(
        g_large < g_small * 0.7,
        "duality gap did not shrink with T: {g_small} -> {g_large}"
    );
}

/// The §6.3 fairness claim: on a problem with unequal data ratios and class
/// difficulty, HierMinimax achieves a better worst-edge accuracy and lower
/// variance than HierFAVG, at a bounded average-accuracy cost.
#[test]
fn minimax_beats_minimization_on_worst_edge() {
    let cfg = ImageConfig {
        side: 8,
        num_classes: 6,
        bumps_per_class: 3,
        separation: 1.0,
        noise: 0.3,
        prototype_overlap: 0.0,
        pair_similarity: 0.4,
        noise_spread: 0.2,
        separation_spread: 0.35,
    };
    let sizes = linear_sizes(40, 0.15, 6);
    let sc = one_class_per_edge_sized(cfg, 6, 2, &sizes, 250, 77);
    let fp = FederatedProblem::logistic_from_scenario(&sc);

    let opts = RunOpts {
        eval_every: 0,
        parallelism: Parallelism::Rayon,
        ..Default::default()
    };
    let h = Hyper {
        rounds: 600,
        m: 3,
        eta_w: 0.02,
        eta_p: 0.005,
        batch_size: 1,
        ..Hyper::default()
    };
    let [favg, hm] =
        [Method::HierFavg, Method::HierMinimax].map(|m| m.build(&h, opts.clone()).run(&fp, 3));

    let e_favg = evaluate(&fp, &favg.final_w, Parallelism::Rayon);
    let e_hm = evaluate(&fp, &hm.final_w, Parallelism::Rayon);
    assert!(
        e_hm.worst > e_favg.worst + 0.02,
        "minimax did not lift the worst edge: {:.3} vs {:.3}",
        e_hm.worst,
        e_favg.worst
    );
    assert!(
        e_hm.variance_pp < e_favg.variance_pp,
        "minimax did not reduce variance: {:.1} vs {:.1}",
        e_hm.variance_pp,
        e_favg.variance_pp
    );
    assert!(
        e_hm.average > e_favg.average - 0.10,
        "minimax sacrificed too much average accuracy: {:.3} vs {:.3}",
        e_hm.average,
        e_favg.average
    );
}

/// Isolated Phase-2 property: with the model frozen (η_w = 0) the edge
/// losses are static, F(w, ·) is a fixed linear function of p, and the
/// projected ascent of eq. (7) driven by the unbiased estimator must move
/// p toward the maximum-loss vertex of the simplex.
#[test]
fn frozen_model_weights_climb_to_max_loss_vertex() {
    let sc = tiny_problem(4, 2, 88);
    // MLP with random init so the per-edge losses differ at w^(0).
    let fp = FederatedProblem::mlp_from_scenario(&sc, &[8]);
    // Small η_p over many rounds lets the unbiased drift dominate the
    // mini-batch noise of the loss estimates.
    let cfg = HierMinimaxConfig {
        rounds: 1500,
        tau1: 2,
        tau2: 2,
        m_edges: 2,
        eta_w: 0.0, // freeze the model
        eta_p: 0.004,
        batch_size: 4,
        loss_batch: 64,
        weight_update_model: Default::default(),
        quantizer: Default::default(),
        opts: RunOpts {
            eval_every: 0,
            parallelism: Parallelism::Rayon,
            ..Default::default()
        },
    };
    let r = HierMinimax::new(cfg).run(&fp, 4);
    // The model never moved.
    let w0 = {
        use hierminimax::data::rng::{Purpose, StreamKey, StreamRng};
        fp.model.init_params(&mut StreamRng::for_key(StreamKey::new(
            4,
            Purpose::Init,
            0,
            0,
        )))
    };
    assert_eq!(r.final_w, w0, "eta_w = 0 must freeze the model");
    // p concentrates on the arg-max-loss edge.
    let losses = fp.edge_losses(&w0);
    let hardest = losses
        .iter()
        .enumerate()
        .max_by(|a, b| a.1.partial_cmp(b.1).expect("finite"))
        .expect("non-empty")
        .0;
    let p_max = r
        .final_p
        .iter()
        .enumerate()
        .max_by(|a, b| a.1.partial_cmp(b.1).expect("finite"))
        .expect("non-empty")
        .0;
    assert_eq!(
        p_max, hardest,
        "p {:?} did not concentrate on max-loss edge (losses {:?})",
        r.final_p, losses
    );
    assert!(r.final_p[hardest] > 0.5, "ascent too weak: {:?}", r.final_p);
}

/// Every algorithm drives the uniform-weight objective down on an easy
/// problem (basic sanity beyond the per-crate unit tests: this exercises
/// the full stack end to end through the umbrella crate).
#[test]
fn all_methods_learn_tiny_problem_to_high_accuracy() {
    let sc = tiny_problem(3, 2, 32);
    let fp = FederatedProblem::logistic_from_scenario(&sc);
    let opts = RunOpts {
        eval_every: 0,
        parallelism: Parallelism::Rayon,
        ..Default::default()
    };
    // 800 time slots each, on the clients of two edges.
    let h = Hyper {
        m: 2,
        eta_w: 0.1,
        eta_p: 0.002,
        batch_size: 4,
        ..Hyper::default()
    };
    let algs = Method::PAPER.map(|m| m.build(&m.matched(&h, 800, &fp), opts.clone()));
    for alg in algs {
        let r = alg.run(&fp, 1);
        let e = evaluate(&fp, &r.final_w, Parallelism::Rayon);
        assert!(
            e.average > 0.9,
            "{} only reached {:.3} average accuracy",
            alg.name(),
            e.average
        );
    }
}
