//! Figure 3 (§6.1): convex logistic regression, one class per edge area.
//!
//! Reproduces the paper's comparison of average and worst test accuracy vs
//! communication rounds for FedAvg, Stochastic-AFL, DRFA, HierFAVG and
//! HierMinimax, and prints the headline "communication rounds to reach the
//! target worst accuracy" numbers (the paper reports 8200 / 16652 / 11727 /
//! 18228 rounds and FedAvg never reaching 80%).
//!
//! Paper setting: EMNIST-Digits, `N_E = 10`, `N_0 = 3`, `m_E = 5`,
//! `τ1 = τ2 = 2`, `η_w = η_p = 0.001`, batch size 1. Here the dataset is
//! the EMNIST-like synthetic generator (16×16 images) and learning rates
//! are retuned for it; the architecture, partitioning, participation and τ
//! values match the paper (see EXPERIMENTS.md).

use hm_bench::harness::{report_suites, run_suite, SuiteParams};
use hm_bench::results::{parse_scale_flags, parse_seed};
use hm_core::FederatedProblem;
use hm_data::generators::synthetic_images::ImageConfig;
use hm_data::scenarios::{linear_sizes, one_class_per_edge_sized};
use hm_simnet::Parallelism;

fn main() {
    let (quick, full) = parse_scale_flags();
    // Scale: total time slots and data volume.
    let (total_slots, train_per_client, test_per_edge, target) = if quick {
        (400, 30, 60, 0.30)
    } else if full {
        (32_000, 120, 800, 0.57)
    } else {
        (12_000, 60, 500, 0.66)
    };

    let cfg = ImageConfig::emnist_digits_like();
    // Later classes are both harder (separation/noise spread) and
    // data-poorer (down to 20% of the first edge's data): the paper's
    // motivating data-ratio mismatch.
    let sizes = linear_sizes(train_per_client, 0.15, 10);
    let scenario = one_class_per_edge_sized(cfg, 10, 3, &sizes, test_per_edge, 2024);
    let problem = FederatedProblem::logistic_from_scenario(&scenario);
    let sp = SuiteParams {
        total_slots,
        tau1: 2,
        tau2: 2,
        m_edges: 5,
        eta_w: 0.02,
        eta_p: 0.005,
        batch_size: 1,
        loss_batch: 16,
        eval_every_slots: (total_slots / 100).max(4),
        parallelism: Parallelism::Rayon,
        // --telemetry: write per-method JSONL event streams next to the
        // CSV results (results/telemetry_<method>.jsonl).
        telemetry_dir: if std::env::args().any(|a| a == "--telemetry") {
            let dir = std::path::PathBuf::from(hm_bench::results::RESULTS_DIR);
            std::fs::create_dir_all(&dir).expect("create results dir");
            Some(dir)
        } else {
            None
        },
        fault: Default::default(),
    };

    println!("Fig. 3 reproduction: convex logistic regression, one class per edge");
    println!(
        "N_E=10 N_0=3 m_E={} tau1={} tau2={} T={} slots, target worst acc {}\n",
        sp.m_edges, sp.tau1, sp.tau2, sp.total_slots, target
    );

    let base_seed = parse_seed(7);
    // Three independent runs; headline numbers are medians over seeds.
    let suites: Vec<_> = (0..3)
        .map(|i| run_suite(&problem, &sp, base_seed + i))
        .collect();
    report_suites(&suites, target, "fig3.csv");
}
