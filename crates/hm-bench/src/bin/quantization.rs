//! Hier-Local-QSGD extension experiment (the paper's reference \[22\]):
//! HierMinimax with stochastic uplink quantization at 32/8/4/2 bits per
//! coordinate, reporting accuracy and total uplink floats. Expected shape
//! (matching \[22\]): moderate quantization costs little accuracy while
//! cutting uplink volume close to the bit ratio.

use hm_bench::results::{parse_scale_flags, write_result};
use hm_bench::table::TextTable;
use hm_core::algorithms::{Algorithm, HierMinimax, HierMinimaxConfig, RunOpts};
use hm_core::metrics::evaluate;
use hm_core::FederatedProblem;
use hm_data::generators::synthetic_images::ImageConfig;
use hm_data::scenarios::{linear_sizes, one_class_per_edge_sized};
use hm_simnet::{Link, Parallelism, Quantizer};

fn main() {
    let (quick, _full) = parse_scale_flags();
    let rounds = if quick { 300 } else { 2500 };

    let cfg = ImageConfig::emnist_digits_like();
    let sizes = linear_sizes(60, 0.15, 10);
    let scenario = one_class_per_edge_sized(cfg, 10, 3, &sizes, 400, 2024);
    let problem = FederatedProblem::logistic_from_scenario(&scenario);

    println!(
        "Quantized HierMinimax (Hier-Local-QSGD extension), {rounds} rounds, mean of 3 seeds\n"
    );
    let mut t = TextTable::new(vec![
        "uplink codec",
        "avg acc",
        "worst acc",
        "uplink floats",
        "vs exact",
    ]);
    let mut csv = String::from("bits,avg,worst,uplink_floats\n");
    let mut exact_floats = 0u64;
    for (label, q, bits) in [
        ("exact (32-bit)", Quantizer::Exact, 32u8),
        ("8-bit", Quantizer::Stochastic { bits: 8 }, 8),
        ("4-bit", Quantizer::Stochastic { bits: 4 }, 4),
        ("2-bit", Quantizer::Stochastic { bits: 2 }, 2),
    ] {
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
            quantizer: q,
            opts: RunOpts {
                eval_every: 0,
                parallelism: Parallelism::Rayon,
                ..Default::default()
            },
        };
        let (mut avg, mut worst, mut floats) = (0.0, 0.0, 0u64);
        for seed in 0..3u64 {
            let r = HierMinimax::new(base.clone()).run(&problem, 51 + seed);
            let e = evaluate(&problem, &r.final_w, Parallelism::Rayon);
            avg += e.average / 3.0;
            worst += e.worst / 3.0;
            floats = r.comm.uplink_floats(Link::ClientEdge) + r.comm.uplink_floats(Link::EdgeCloud);
        }
        if q == Quantizer::Exact {
            exact_floats = floats;
        }
        t.row(vec![
            label.to_string(),
            format!("{avg:.4}"),
            format!("{worst:.4}"),
            floats.to_string(),
            format!("{:.1}x less", exact_floats as f64 / floats as f64),
        ]);
        csv.push_str(&format!("{bits},{avg:.6},{worst:.6},{floats}\n"));
    }
    println!("{}", t.render());
    let path = write_result("quantization.csv", &csv);
    println!("series written to {}", path.display());
}
