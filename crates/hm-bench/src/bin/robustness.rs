//! Robustness sweep: HierMinimax under the deterministic fault presets
//! (client crashes, edge outages, lossy WAN with bounded retries,
//! compute stragglers, all at once), reporting accuracy degradation,
//! fault bookkeeping, and the WAN retry overhead relative to the
//! failure-free run. Expected shape: graceful degradation — accuracy
//! bends rather than collapses, the dual weights stay a distribution,
//! and communication grows only by the metered retransmissions.

use hm_bench::results::{parse_scale_flags, parse_seed, write_result};
use hm_bench::table::{fmt_pct, TextTable};
use hm_core::algorithms::{Algorithm, HierMinimax, HierMinimaxConfig, RunOpts};
use hm_core::metrics::evaluate;
use hm_core::FederatedProblem;
use hm_data::generators::synthetic_images::ImageConfig;
use hm_data::scenarios::{linear_sizes, one_class_per_edge_sized};
use hm_simnet::{FaultPlan, Link, Parallelism, FAULT_PRESETS};

fn main() {
    let (quick, full) = parse_scale_flags();
    let rounds = if quick {
        150
    } else if full {
        4000
    } else {
        1500
    };
    let seeds: u64 = 3;
    let base_seed = parse_seed(7);

    let cfg = ImageConfig::emnist_digits_like();
    let sizes = linear_sizes(60, 0.15, 10);
    let scenario = one_class_per_edge_sized(cfg, 10, 3, &sizes, 400, 2024);
    let problem = FederatedProblem::logistic_from_scenario(&scenario);

    println!(
        "HierMinimax under fault injection, {rounds} rounds, mean of {seeds} seeds\n\
         (presets: see `hierminimax run --fault-plan`)\n"
    );
    let mut t = TextTable::new(vec![
        "fault plan",
        "avg acc",
        "worst acc",
        "crashes",
        "outages",
        "gave up",
        "WAN floats",
        "vs none",
    ]);
    let mut csv = String::from("plan,avg,worst,crashes,outages,gave_up,wan_floats\n");
    let mut clean_floats = 0u64;
    for name in FAULT_PRESETS {
        let plan = FaultPlan::preset(name).expect("preset table is exhaustive");
        let base = HierMinimaxConfig {
            rounds,
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
                fault: plan,
                ..Default::default()
            },
        };
        let (mut avg, mut worst) = (0.0, 0.0);
        let (mut crashes, mut outages, mut gave_up, mut floats) = (0u64, 0u64, 0u64, 0u64);
        for s in 0..seeds {
            let r = HierMinimax::new(base.clone()).run(&problem, base_seed + s);
            let e = evaluate(&problem, &r.final_w, Parallelism::Rayon);
            avg += e.average / seeds as f64;
            worst += e.worst / seeds as f64;
            crashes += r.faults.crashes / seeds;
            outages += r.faults.outages / seeds;
            gave_up += r.faults.gave_up / seeds;
            floats += (r.comm.downlink_floats(Link::EdgeCloud)
                + r.comm.uplink_floats(Link::EdgeCloud))
                / seeds;
        }
        if name == "none" {
            clean_floats = floats;
        }
        t.row(vec![
            name.to_string(),
            fmt_pct(avg),
            fmt_pct(worst),
            crashes.to_string(),
            outages.to_string(),
            gave_up.to_string(),
            floats.to_string(),
            format!(
                "{:+.1}%",
                100.0 * (floats as f64 / clean_floats as f64 - 1.0)
            ),
        ]);
        csv.push_str(&format!(
            "{name},{avg:.6},{worst:.6},{crashes},{outages},{gave_up},{floats}\n"
        ));
    }
    println!("{}", t.render());
    println!(
        "\nWAN floats compare the edge-cloud link only: that is where lost\n\
         messages are retransmitted (bounded retries, exponential backoff)."
    );
    let path = write_result("robustness.csv", &csv);
    println!("series written to {}", path.display());
}
