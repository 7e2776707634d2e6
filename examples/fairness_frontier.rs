//! The fairness frontier: two mechanisms, one axis.
//!
//! q-FFL (Li et al. 2020) softens fairness through the exponent `q`
//! (0 = plain FedAvg, larger = more uniform); HierMinimax reaches the
//! minimax end of the same axis through explicit weight ascent, and its
//! capped-simplex variant interpolates from the other side. This example
//! sweeps both and prints the average-vs-worst frontier they trace.
//!
//! ```bash
//! cargo run --release --example fairness_frontier
//! ```

use hierminimax::core::algorithms::{Algorithm, Hyper, Method, RunOpts};
use hierminimax::core::metrics::evaluate;
use hierminimax::core::problem::FederatedProblem;
use hierminimax::data::generators::synthetic_images::ImageConfig;
use hierminimax::data::scenarios::{linear_sizes, one_class_per_edge_sized};
use hierminimax::optim::ProjectionOp;
use hierminimax::simnet::Parallelism;

fn main() {
    let cfg = ImageConfig::emnist_digits_like();
    let sizes = linear_sizes(60, 0.15, 10);
    let scenario = one_class_per_edge_sized(cfg, 10, 3, &sizes, 300, 23);
    let problem = FederatedProblem::logistic_from_scenario(&scenario);
    let opts = RunOpts {
        eval_every: 0,
        parallelism: Parallelism::Rayon,
        ..Default::default()
    };

    println!(
        "{:<28}{:>10}{:>10}{:>12}",
        "method", "avg", "worst", "var (pp^2)"
    );

    let h = Hyper {
        rounds: 1500,
        m: 15,
        eta_w: 0.05,
        eta_p: 0.002,
        batch_size: 1,
        loss_batch: 32,
        ..Hyper::default()
    };

    // q-FFL sweep over 15 clients: soft fairness.
    for q in [0.0, 1.0, 3.0] {
        let q_h = Hyper { q, ..h.clone() };
        let r = Method::QFedAvg.build(&q_h, opts.clone()).run(&problem, 3);
        let e = evaluate(&problem, &r.final_w, Parallelism::Rayon);
        println!(
            "{:<28}{:>10.4}{:>10.4}{:>12.2}",
            format!("q-FedAvg (q = {q})"),
            e.average,
            e.worst,
            e.variance_pp
        );
    }

    // HierMinimax: capped simplex sweep up to the full minimax end.
    for cap in [0.15_f32, 0.3, 1.0] {
        let mut p = problem.clone();
        p.p_domain = ProjectionOp::CappedSimplex { lo: 0.0, hi: cap };
        // Half the rounds of twice the slots, on 5 edges.
        let hm_h = Hyper {
            rounds: 750,
            m: 5,
            ..h.clone()
        };
        let r = Method::HierMinimax.build(&hm_h, opts.clone()).run(&p, 3);
        let e = evaluate(&p, &r.final_w, Parallelism::Rayon);
        println!(
            "{:<28}{:>10.4}{:>10.4}{:>12.2}",
            format!("HierMinimax (cap = {cap})"),
            e.average,
            e.worst,
            e.variance_pp
        );
    }
    println!("\nBoth mechanisms trade average for worst accuracy; the minimax end");
    println!("(cap = 1.0) should dominate the q-FFL points on the worst axis.");
}
