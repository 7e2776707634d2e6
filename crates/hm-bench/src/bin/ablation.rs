//! Design-choice ablations called out in DESIGN.md §5:
//!
//! 1. **Checkpoint mechanism** — Phase 2 on the paper's uniformly random
//!    checkpoint vs two biased variants (round-final model, round-start
//!    model). The random checkpoint is what makes the weight gradient an
//!    unbiased sample of the round's trajectory (Appendix A).
//! 2. **Participation m_E** — worst-accuracy sensitivity to how many edges
//!    participate per round at a fixed slot budget.

use hm_bench::results::parse_scale_flags;
use hm_bench::table::TextTable;
use hm_core::algorithms::{Algorithm, HierMinimax, HierMinimaxConfig, RunOpts, WeightUpdateModel};
use hm_core::metrics::evaluate;
use hm_core::FederatedProblem;
use hm_data::generators::synthetic_images::ImageConfig;
use hm_data::scenarios::{linear_sizes, one_class_per_edge_sized};
use hm_simnet::Parallelism;

fn main() {
    let (quick, _full) = parse_scale_flags();
    let rounds = if quick { 300 } else { 2000 };

    let cfg = ImageConfig::emnist_digits_like();
    let sizes = linear_sizes(60, 0.15, 10);
    let scenario = one_class_per_edge_sized(cfg, 10, 3, &sizes, 400, 2024);
    let problem = FederatedProblem::logistic_from_scenario(&scenario);

    let base = HierMinimaxConfig {
        rounds,
        tau1: 2,
        tau2: 2,
        m_edges: 5,
        eta_w: 0.02,
        eta_p: 0.005,
        batch_size: 1,
        loss_batch: 16,
        weight_update_model: WeightUpdateModel::RandomCheckpoint,
        quantizer: Default::default(),
        opts: RunOpts {
            eval_every: 0,
            parallelism: Parallelism::Rayon,
            ..Default::default()
        },
    };

    // The checkpoint's bias matters in proportion to how much the model
    // moves within a round, so this ablation uses long rounds (τ1 = τ2 = 4,
    // 16 slots between weight updates) and a fast weight learning rate.
    println!(
        "Ablation 1: Phase-2 model choice (tau1=tau2=4, {} rounds, mean of 3 seeds)\n",
        rounds / 2
    );
    let mut t = TextTable::new(vec!["phase-2 model", "avg acc", "worst acc", "var (pp^2)"]);
    for (label, wum) in [
        (
            "random checkpoint (paper)",
            WeightUpdateModel::RandomCheckpoint,
        ),
        ("round-final model", WeightUpdateModel::FinalModel),
        ("round-start model", WeightUpdateModel::RoundStart),
    ] {
        let mut cfg = base.clone();
        cfg.weight_update_model = wum;
        cfg.tau1 = 4;
        cfg.tau2 = 4;
        cfg.rounds = rounds / 2;
        cfg.eta_p = 0.02;
        let (mut avg, mut worst, mut var) = (0.0, 0.0, 0.0);
        for seed in 0..3u64 {
            let r = HierMinimax::new(cfg.clone()).run(&problem, 31 + seed);
            let e = evaluate(&problem, &r.final_w, Parallelism::Rayon);
            avg += e.average / 3.0;
            worst += e.worst / 3.0;
            var += e.variance_pp / 3.0;
        }
        t.row(vec![
            label.to_string(),
            format!("{avg:.4}"),
            format!("{worst:.4}"),
            format!("{var:.2}"),
        ]);
    }
    println!("{}", t.render());

    println!("Ablation 2: participation m_E at a fixed slot budget\n");
    let mut t = TextTable::new(vec!["m_E", "avg acc", "worst acc", "var (pp^2)"]);
    for m_edges in [2usize, 5, 8, 10] {
        let mut cfg = base.clone();
        cfg.m_edges = m_edges;
        let (mut avg, mut worst, mut var) = (0.0, 0.0, 0.0);
        for seed in 0..3u64 {
            let r = HierMinimax::new(cfg.clone()).run(&problem, 41 + seed);
            let e = evaluate(&problem, &r.final_w, Parallelism::Rayon);
            avg += e.average / 3.0;
            worst += e.worst / 3.0;
            var += e.variance_pp / 3.0;
        }
        t.row(vec![
            m_edges.to_string(),
            format!("{avg:.4}"),
            format!("{worst:.4}"),
            format!("{var:.2}"),
        ]);
    }
    println!("{}", t.render());
}
