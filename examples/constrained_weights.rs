//! Constrained weight domains: `P` as a *capped* simplex.
//!
//! The paper's formulation allows any compact convex `P ⊆ Δ` — e.g. "prior
//! knowledge or parameter regularization" (§3, footnote 1). Capping each
//! edge's weight bounds how far the optimizer may tilt toward the worst
//! edge, interpolating between plain minimization (`p` pinned at uniform)
//! and full minimax fairness (`P = Δ`). This example sweeps the cap and
//! shows the resulting average-vs-worst accuracy frontier.
//!
//! ```bash
//! cargo run --release --example constrained_weights
//! ```

use hierminimax::core::algorithms::{Algorithm, HierMinimax, HierMinimaxConfig, RunOpts};
use hierminimax::core::metrics::evaluate;
use hierminimax::core::problem::FederatedProblem;
use hierminimax::data::generators::synthetic_images::ImageConfig;
use hierminimax::data::scenarios::{linear_sizes, one_class_per_edge_sized};
use hierminimax::optim::ProjectionOp;
use hierminimax::simnet::Parallelism;

fn main() {
    let cfg = ImageConfig::emnist_digits_like();
    let sizes = linear_sizes(60, 0.15, 10);
    let scenario = one_class_per_edge_sized(cfg, 10, 3, &sizes, 300, 5);

    println!("cap      avg acc   worst acc   variance(pp^2)   max p");
    for &cap in &[0.1_f32, 0.15, 0.25, 0.5, 1.0] {
        let mut problem = FederatedProblem::logistic_from_scenario(&scenario);
        // cap = 0.1 = 1/N_E pins p at uniform (pure minimization);
        // cap = 1.0 is the unconstrained simplex (full minimax).
        problem.p_domain = ProjectionOp::CappedSimplex { lo: 0.0, hi: cap };
        let hm = HierMinimax::new(HierMinimaxConfig {
            rounds: 1000,
            tau1: 2,
            tau2: 2,
            m_edges: 5,
            eta_w: 0.02,
            eta_p: 0.005,
            batch_size: 1,
            loss_batch: 16,
            weight_update_model: Default::default(),
            quantizer: Default::default(),
            opts: RunOpts {
                eval_every: 0,
                parallelism: Parallelism::Rayon,
                ..Default::default()
            },
        });
        let r = hm.run(&problem, 17);
        let e = evaluate(&problem, &r.final_w, Parallelism::Rayon);
        let max_p = r.final_p.iter().copied().fold(0.0_f32, f32::max);
        println!(
            "{cap:<9}{:<10.4}{:<12.4}{:<17.2}{max_p:.3}",
            e.average, e.worst, e.variance_pp
        );
    }
    println!("\nRaising the cap frees the minimax weights: the worst edge improves");
    println!("while the average dips — the fairness frontier of constraint set P.");
}
