//! Trained bits pinned to recorded constants.
//!
//! The determinism, resume and oracle suites compare the code with itself:
//! a kernel change that shifts the numerics by one ULP on every path still
//! passes them. These tests train short HierMinimax runs with each model
//! family — the fig3 logistic model, the fig4 100/50 MLP and `SimpleCnn` —
//! and compare a hash of the final iterate, the final edge weights and
//! every evaluated per-edge accuracy with a constant recorded before the
//! fully connected forward kernel was rewritten. Any change to how the
//! model kernels round shows up here.
//!
//! The losses go through `f64::exp`/`ln`, whose last bit is the platform
//! libm's, so the constants are pinned on x86_64 Linux only.
#![cfg(all(target_arch = "x86_64", target_os = "linux"))]

use hierminimax::core::algorithms::{Algorithm, HierMinimax, HierMinimaxConfig, RunOpts};
use hierminimax::core::problem::FederatedProblem;
use hierminimax::core::RunResult;
use hierminimax::data::generators::synthetic_images::ImageConfig;
use hierminimax::data::scenarios::{
    linear_sizes, one_class_per_edge_sized, similarity_scenario, SimilarityOptions,
};
use hierminimax::nn::SimpleCnn;
use hierminimax::optim::ProjectionOp;
use hierminimax::simnet::Parallelism;
use std::sync::Arc;

/// FNV-1a over the bits of `final_w`, `final_p` and the evaluated
/// per-edge accuracies, in that order.
fn digest(r: &RunResult) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut eat = |bytes: &[u8]| {
        for &b in bytes {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    };
    for v in r.final_w.iter().chain(&r.final_p) {
        eat(&v.to_bits().to_le_bytes());
    }
    for round in &r.history.rounds {
        if let Some(e) = &round.eval {
            for a in &e.per_edge_accuracy {
                eat(&a.to_bits().to_le_bytes());
            }
        }
    }
    h
}

fn train(fp: &FederatedProblem, rounds: usize, m_edges: usize, batch: usize, eta_w: f32) -> u64 {
    let alg = HierMinimax::new(HierMinimaxConfig {
        rounds,
        tau1: 2,
        tau2: 2,
        m_edges,
        eta_w,
        eta_p: 0.005,
        batch_size: batch,
        loss_batch: 16,
        opts: RunOpts {
            eval_every: 5,
            parallelism: Parallelism::Sequential,
            ..Default::default()
        },
        ..Default::default()
    });
    digest(&alg.run(fp, 11))
}

fn check(name: &str, got: u64, want: u64) {
    assert_eq!(
        got, want,
        "{name}: trained bits changed (digest {got:#018x}, pinned {want:#018x})"
    );
}

#[test]
fn logistic_training_bits_are_pinned() {
    // fig3's shape: 256 inputs, 10 classes, one class per edge.
    let sc = one_class_per_edge_sized(
        ImageConfig::emnist_digits_like(),
        10,
        2,
        &linear_sizes(24, 0.3, 10),
        40,
        5,
    );
    let fp = FederatedProblem::logistic_from_scenario(&sc);
    check(
        "logistic",
        train(&fp, 20, 3, 1, 0.02),
        0xab36_4317_168f_004a,
    );
}

#[test]
fn mlp_training_bits_are_pinned() {
    // fig4's network: 256-100-50-10.
    let sc = similarity_scenario(
        ImageConfig::fashion_mnist_like(),
        4,
        2,
        60,
        0.5,
        0.25,
        &SimilarityOptions::default(),
        6,
    );
    let fp = FederatedProblem::mlp_from_scenario(&sc, &[100, 50]);
    check("mlp", train(&fp, 10, 2, 8, 0.05), 0xacf5_c932_1e12_f573);
}

#[test]
fn cnn_training_bits_are_pinned() {
    // The CLI's CNN on 16×16 images: a 32 → 32 → 10 fully connected head.
    let sc = similarity_scenario(
        ImageConfig::fashion_mnist_like(),
        3,
        2,
        40,
        0.5,
        0.25,
        &SimilarityOptions::default(),
        7,
    );
    let model = Arc::new(SimpleCnn::new(16, 3, 4, 8, 32, sc.num_classes));
    let fp = FederatedProblem::new(
        sc,
        model,
        ProjectionOp::Unconstrained,
        ProjectionOp::Simplex,
    );
    check("cnn", train(&fp, 6, 2, 4, 0.05), 0x439b_445f_2baf_43a7);
}
