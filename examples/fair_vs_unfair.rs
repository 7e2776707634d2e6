//! Minimax fairness vs plain minimization on a heterogeneous image task.
//!
//! Trains HierFAVG (solves `min_w Σ q_e f_e`) and HierMinimax (solves
//! `min_w max_p Σ p_e f_e`) on the same one-class-per-edge scenario with
//! asymmetric class difficulty, and prints the per-edge accuracy profile of
//! both — the §6.3 story: minimax trades a sliver of average accuracy for
//! a materially better worst edge and far lower variance.
//!
//! ```bash
//! cargo run --release --example fair_vs_unfair
//! ```

use hierminimax::core::algorithms::{Algorithm, Hyper, Method, RunOpts};
use hierminimax::core::metrics::evaluate;
use hierminimax::core::problem::FederatedProblem;
use hierminimax::data::generators::synthetic_images::ImageConfig;
use hierminimax::data::scenarios::one_class_per_edge;
use hierminimax::simnet::Parallelism;

fn main() {
    let scenario = one_class_per_edge(ImageConfig::emnist_digits_like(), 10, 3, 60, 200, 99);
    let problem = FederatedProblem::logistic_from_scenario(&scenario);
    let opts = RunOpts {
        eval_every: 0,
        parallelism: Parallelism::Rayon,
        ..Default::default()
    };

    let h = Hyper {
        rounds: 1500,
        m: 5,
        eta_w: 0.05,
        eta_p: 0.002,
        ..Hyper::default()
    };

    println!("training HierFAVG (minimization) ...");
    let favg = Method::HierFavg.build(&h, opts.clone()).run(&problem, 1);

    println!("training HierMinimax (minimax) ...");
    let hm = Method::HierMinimax.build(&h, opts).run(&problem, 1);

    let e_favg = evaluate(&problem, &favg.final_w, Parallelism::Rayon);
    let e_hm = evaluate(&problem, &hm.final_w, Parallelism::Rayon);

    println!("\nper-edge accuracy (class difficulty rises with the edge index):");
    println!(
        "edge      {}",
        (0..10).map(|e| format!("{e:>6}")).collect::<String>()
    );
    println!(
        "HierFAVG  {}",
        e_favg
            .per_edge_accuracy
            .iter()
            .map(|a| format!("{a:>6.2}"))
            .collect::<String>()
    );
    println!(
        "HierMinimax{}",
        e_hm.per_edge_accuracy
            .iter()
            .map(|a| format!("{a:>5.2} "))
            .collect::<String>()
    );
    println!("\n                 average   worst   variance(pp^2)");
    println!(
        "HierFAVG         {:.4}    {:.4}  {:.2}",
        e_favg.average, e_favg.worst, e_favg.variance_pp
    );
    println!(
        "HierMinimax      {:.4}    {:.4}  {:.2}",
        e_hm.average, e_hm.worst, e_hm.variance_pp
    );
    println!(
        "\nlearned minimax weights p (mass concentrates on the hard edges):\n{:?}",
        hm.final_p
    );
}
