//! Four- and five-layer hierarchies: the paper's §3 generalisation.
//!
//! Builds a 16-edge problem and runs minimax fair optimization over
//! successively deeper trees — 3 layers (client-edge-cloud), 4 layers
//! (+regions), 5 layers (+super-regions) — with a matched slot budget, and
//! shows how cloud communication shrinks with depth while the fairness
//! metrics stay comparable.
//!
//! ```bash
//! cargo run --release --example deep_hierarchy
//! ```

use hierminimax::core::algorithms::{Algorithm, Hyper, Method, RunOpts, UpperLevel};
use hierminimax::core::metrics::evaluate;
use hierminimax::core::problem::FederatedProblem;
use hierminimax::data::generators::synthetic_images::ImageConfig;
use hierminimax::data::scenarios::{linear_sizes, one_class_per_edge_sized};
use hierminimax::simnet::{Link, Parallelism};

fn main() {
    let cfg = ImageConfig {
        num_classes: 16,
        ..ImageConfig::emnist_digits_like()
    };
    let sizes = linear_sizes(40, 0.2, 16);
    let scenario = one_class_per_edge_sized(cfg, 16, 2, &sizes, 200, 13);
    let problem = FederatedProblem::logistic_from_scenario(&scenario);
    let total_slots = 8_000;

    let depths: [(&str, Vec<UpperLevel>); 3] = [
        ("3-layer (client-edge-cloud)", vec![]),
        (
            "4-layer (+4 regions)",
            vec![UpperLevel {
                group_size: 4,
                tau: 2,
            }],
        ),
        (
            "5-layer (+2 super-regions)",
            vec![
                UpperLevel {
                    group_size: 2,
                    tau: 2,
                }, // super-regions of 2 regions
                UpperLevel {
                    group_size: 4,
                    tau: 2,
                }, // regions of 4 edges
            ],
        ),
    ];

    println!(
        "{:<30}{:>8}{:>14}{:>14}{:>10}{:>10}",
        "hierarchy", "groups", "cloud rounds", "local rounds", "avg", "worst"
    );
    let opts = RunOpts {
        eval_every: 0,
        parallelism: Parallelism::Rayon,
        ..Default::default()
    };
    for (label, upper) in depths {
        // Two groups sampled per round, as many rounds as the budget fits.
        let h = Hyper {
            upper,
            eta_w: 0.02,
            eta_p: 0.002,
            batch_size: 1,
            ..Hyper::default()
        };
        let rounds = (total_slots / Method::MultiLevel.slots_per_round(&h)).max(1);
        let h = Hyper { rounds, ..h };
        let r = Method::MultiLevel.build(&h, opts.clone()).run(&problem, 29);
        // `p` weighs the top-level groups.
        let groups = r.final_p.len();
        let e = evaluate(&problem, &r.final_w, Parallelism::Rayon);
        println!(
            "{:<30}{:>8}{:>14}{:>14}{:>10.3}{:>10.3}",
            label,
            groups,
            r.comm.cloud_rounds(),
            r.comm.rounds(Link::ClientEdge),
            e.average,
            e.worst,
        );
    }
    println!("\nDeeper trees push more synchronisation onto cheap local links: the");
    println!("cloud-round count falls by the extra levels' tau factors at a matched");
    println!("slot budget, while fairness metrics remain in the same range.");
}
