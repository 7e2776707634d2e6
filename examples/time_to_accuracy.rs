//! Time-to-accuracy under a realistic network: the system-level case for
//! the hierarchy.
//!
//! Runs all five methods with a matched slot budget and converts each
//! method's metered communication into simulated wall-clock time under two
//! network models: a mobile-edge network (fast local links, slow cloud
//! links — the paper's §1 motivation) and a uniform network (control).
//! Hierarchical methods should win on the former and not on the latter.
//!
//! ```bash
//! cargo run --release --example time_to_accuracy
//! ```

use hierminimax::core::problem::FederatedProblem;
use hierminimax::data::generators::synthetic_images::ImageConfig;
use hierminimax::data::scenarios::{linear_sizes, one_class_per_edge_sized};
use hierminimax::simnet::{LatencyModel, Parallelism};
use hm_bench::harness::{run_suite, SuiteParams};

fn main() {
    let cfg = ImageConfig::emnist_digits_like();
    let sizes = linear_sizes(60, 0.15, 10);
    let scenario = one_class_per_edge_sized(cfg, 10, 3, &sizes, 300, 5);
    let problem = FederatedProblem::logistic_from_scenario(&scenario);
    let sp = SuiteParams {
        total_slots: 12_000,
        tau1: 2,
        tau2: 2,
        m_edges: 5,
        eta_w: 0.02,
        eta_p: 0.005,
        batch_size: 1,
        loss_batch: 16,
        eval_every_slots: 120,
        parallelism: Parallelism::Rayon,
        telemetry_dir: None,
        fault: Default::default(),
    };
    let suite = run_suite(&problem, &sp, 19);

    let mec = LatencyModel::mobile_edge();
    let uni = LatencyModel::uniform(0.02, 1e8);
    println!(
        "{:<16}{:>10}{:>14}{:>18}{:>18}",
        "method", "worst acc", "cloud rounds", "mec time (s)", "uniform time (s)"
    );
    for (m, r) in &suite {
        let e = r.history.final_eval().expect("evaluated");
        let slots = r.history.rounds.last().unwrap().slots_done;
        println!(
            "{:<16}{:>10.3}{:>14}{:>18.1}{:>18.1}",
            m.name(),
            e.worst,
            r.comm.cloud_rounds(),
            mec.simulated_seconds(&r.comm, slots),
            uni.simulated_seconds(&r.comm, slots),
        );
    }
    println!("\nUnder the mobile-edge model the hierarchical methods' cloud-round");
    println!("savings translate directly into wall-clock savings; under a uniform");
    println!("network the hierarchy's advantage disappears, as expected.");
}
