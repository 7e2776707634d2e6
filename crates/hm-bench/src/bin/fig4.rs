//! Figure 4 (§6.2): non-convex MLP training, s%-similarity split.
//!
//! Reproduces the paper's non-convex comparison: a two-hidden-layer ReLU
//! network (300/100 neurons, the paper's architecture) on the
//! Fashion-MNIST-like generator with the s = 50% similarity split, average
//! and worst test accuracy vs communication rounds for all five methods,
//! and the rounds-to-target-worst headline numbers (the paper reports
//! 21576 / 45201 / 28087 / 36445 rounds to 50% worst accuracy and FedAvg
//! never reaching it).
//!
//! Paper setting: `N_E = 10`, `N_0 = 3`, `m_E = 2`, `τ1 = τ2 = 2`, batch
//! size 8, `η_w = 0.001`, `η_p = 0.0001`. Input images are 16×16 here, so
//! `d = 108,310` instead of the paper's 266,610 (see EXPERIMENTS.md).

use hm_bench::harness::{report_suites, run_suite, SuiteParams};
use hm_bench::results::{parse_scale_flags, parse_seed};
use hm_core::FederatedProblem;
use hm_data::generators::synthetic_images::ImageConfig;
use hm_data::scenarios::{similarity_scenario, SimilarityOptions};
use hm_simnet::Parallelism;

fn main() {
    let (quick, full) = parse_scale_flags();
    let (total_slots, samples_per_edge, hidden, target): (usize, usize, Vec<usize>, f64) = if quick
    {
        (240, 200, vec![32, 16], 0.45)
    } else if full {
        (24_000, 800, vec![300, 100], 0.50)
    } else {
        (9_600, 400, vec![100, 50], 0.45)
    };

    let cfg = ImageConfig::fashion_mnist_like();
    // Plain s = 50% similarity split with equal edge sizes, exactly the
    // paper's §6.2 setup. (Variants with per-edge data shares, class
    // imbalance, fresh test sets, and s = 30% were tried and made the
    // non-convex differentiation weaker, not stronger — see the caveat in
    // EXPERIMENTS.md.) The outcome is sensitive to the partition
    // realization, so the suite runs over three *data* seeds and reports
    // aggregates.
    let options = SimilarityOptions::default();
    let problems: Vec<FederatedProblem> = (0..3)
        .map(|i| {
            let scenario = similarity_scenario(
                cfg.clone(),
                10,
                3,
                samples_per_edge,
                0.5,
                0.25,
                &options,
                2024 + i,
            );
            FederatedProblem::mlp_from_scenario(&scenario, &hidden)
        })
        .collect();
    let problem = &problems[0];
    let sp = SuiteParams {
        total_slots,
        tau1: 2,
        tau2: 2,
        m_edges: 2,
        eta_w: 0.05,
        eta_p: 0.003,
        batch_size: 8,
        loss_batch: 16,
        eval_every_slots: (total_slots / 60).max(4),
        parallelism: Parallelism::Rayon,
        telemetry_dir: None,
        fault: Default::default(),
    };

    println!("Fig. 4 reproduction: non-convex MLP, 50% similarity split");
    println!(
        "N_E=10 N_0=3 m_E={} tau1={} tau2={} hidden={:?} d={} T={} slots, target worst acc {}\n",
        sp.m_edges,
        sp.tau1,
        sp.tau2,
        hidden,
        problem.num_params(),
        sp.total_slots,
        target
    );

    let base_seed = parse_seed(11);
    // Three independent data realizations × algorithm seeds; headline
    // numbers are medians over the three runs.
    let suites: Vec<_> = problems
        .iter()
        .enumerate()
        .map(|(i, fp)| run_suite(fp, &sp, base_seed + i as u64))
        .collect();
    report_suites(&suites, target, "fig4.csv");
}
