//! Parameter-tuning scratch harness (not part of the reproduction output;
//! used to pick the learning-rate constants recorded in EXPERIMENTS.md).
//! Sweeps η_w × η_p for HierMinimax against the HierFAVG reference on the
//! Fig.-3 scenario and prints final average/worst accuracy and p.

use hm_bench::harness::{run_method, Method, SuiteParams};
use hm_bench::table::TextTable;
use hm_core::metrics::EvalReport;
use hm_core::FederatedProblem;
use hm_data::generators::synthetic_images::ImageConfig;
use hm_data::scenarios::one_class_per_edge;
use hm_simnet::Parallelism;

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let slots: usize = args
        .iter()
        .position(|a| a == "--slots")
        .and_then(|i| args.get(i + 1))
        .and_then(|v| v.parse().ok())
        .unwrap_or(8000);

    let cfg = ImageConfig::emnist_digits_like();
    let scenario = one_class_per_edge(cfg, 10, 3, 60, 150, 2024);
    let problem = FederatedProblem::logistic_from_scenario(&scenario);

    let mut t = TextTable::new(vec![
        "method",
        "eta_w",
        "eta_p",
        "avg",
        "worst(mean3)",
        "worst(min3)",
        "var",
    ]);
    for &eta_w in &[0.02_f32, 0.05] {
        for &eta_p in &[0.001_f32, 0.005] {
            let sp = SuiteParams {
                total_slots: slots,
                tau1: 2,
                tau2: 2,
                m_edges: 5,
                eta_w,
                eta_p,
                batch_size: 1,
                loss_batch: 16,
                eval_every_slots: usize::MAX,
                parallelism: Parallelism::Rayon,
                telemetry_dir: None,
                fault: Default::default(),
            };
            for m in Method::all() {
                let evals: Vec<EvalReport> = (0..3)
                    .map(|s| {
                        run_method(m, &problem, &sp, 7 + s)
                            .history
                            .final_eval()
                            .unwrap()
                            .clone()
                    })
                    .collect();
                let avg = evals.iter().map(|e| e.average).sum::<f64>() / 3.0;
                let worst_mean = evals.iter().map(|e| e.worst).sum::<f64>() / 3.0;
                let worst_min = evals.iter().map(|e| e.worst).fold(f64::MAX, f64::min);
                let var = evals.iter().map(|e| e.variance_pp).sum::<f64>() / 3.0;
                t.row(vec![
                    m.name().to_string(),
                    format!("{eta_w}"),
                    format!("{eta_p}"),
                    format!("{:.3}", avg),
                    format!("{:.3}", worst_mean),
                    format!("{:.3}", worst_min),
                    format!("{:.1}", var),
                ]);
            }
        }
    }
    println!("{}", t.render());
}
